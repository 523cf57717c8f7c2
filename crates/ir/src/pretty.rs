//! Pseudo-code pretty printing in the paper's presentation style.

use crate::{ArrayRef, Expr, Program, Stmt};
use std::fmt::Write as _;

/// Renders a whole program: parameter and array declarations followed by
/// the loop nest.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for p in &program.params {
        let _ = writeln!(out, "param {} = {};", p.name, p.default);
    }
    for c in &program.coefs {
        let _ = writeln!(out, "coef {} = {};", c.name, format_coef(c.value));
    }
    for e in &program.assumptions {
        let _ = writeln!(out, "assume {e} >= 0;");
    }
    for a in &program.arrays {
        let dims: Vec<String> = a.dims.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(
            out,
            "array {}[{}] distribute {};",
            a.name,
            dims.join(", "),
            a.distribution
        );
    }
    out.push_str(&print_nest(program));
    out
}

/// Renders the program as *re-parseable source*: declarations plus the
/// braced loop nest (the paper-style [`print_program`] output drops the
/// braces for readability).
pub fn print_source(program: &Program) -> String {
    let mut out = String::new();
    for p in &program.params {
        let _ = writeln!(out, "param {} = {};", p.name, p.default);
    }
    for c in &program.coefs {
        let _ = writeln!(out, "coef {} = {};", c.name, format_coef(c.value));
    }
    for e in &program.assumptions {
        let _ = writeln!(out, "assume {e} >= 0;");
    }
    for a in &program.arrays {
        let dims: Vec<String> = a.dims.iter().map(|d| d.to_string()).collect();
        let _ = writeln!(
            out,
            "array {}[{}] distribute {};",
            a.name,
            dims.join(", "),
            a.distribution
        );
    }
    let nest = &program.nest;
    for (depth, lb) in nest.bounds.iter().enumerate() {
        let indent = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{indent}for {} = {}, {} {{",
            nest.space.var_name(lb.var),
            lb.render_lower(),
            lb.render_upper()
        );
    }
    let indent = "  ".repeat(nest.depth());
    for stmt in &nest.body {
        let _ = writeln!(out, "{indent}{}", render_stmt(program, stmt));
    }
    for depth in (0..nest.depth()).rev() {
        let _ = writeln!(out, "{}}}", "  ".repeat(depth));
    }
    out
}

/// Renders the loop nest with `for v = lb, ub` headers and indented body.
pub fn print_nest(program: &Program) -> String {
    let nest = &program.nest;
    let mut out = String::new();
    for (depth, lb) in nest.bounds.iter().enumerate() {
        let indent = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{indent}for {} = {}, {}",
            nest.space.var_name(lb.var),
            lb.render_lower(),
            lb.render_upper()
        );
    }
    let indent = "  ".repeat(nest.depth());
    for stmt in &nest.body {
        let _ = writeln!(out, "{indent}{}", render_stmt(program, stmt));
    }
    out
}

/// Renders one statement.
pub fn render_stmt(program: &Program, stmt: &Stmt) -> String {
    let Stmt::Assign { lhs, rhs } = stmt;
    format!(
        "{} = {};",
        render_ref(program, lhs),
        render_expr(program, rhs)
    )
}

/// Renders an array reference with its declared name.
pub fn render_ref(program: &Program, r: &ArrayRef) -> String {
    let name = &program.array(r.array).name;
    let subs: Vec<String> = r.subscripts.iter().map(|s| s.to_string()).collect();
    format!("{}[{}]", name, subs.join(", "))
}

/// Renders an expression with array names resolved.
pub fn render_expr(program: &Program, e: &Expr) -> String {
    match e {
        Expr::Access(r) => render_ref(program, r),
        Expr::Lit(v) => format!("{v}"),
        Expr::Coef(i) => program.coefs[*i].name.clone(),
        Expr::Bin(op, a, b) => format!(
            "{} {} {}",
            render_operand(program, a),
            op.symbol(),
            render_operand(program, b)
        ),
        Expr::Neg(a) => format!("-{}", render_operand(program, a)),
    }
}

/// Formats a coefficient so it re-parses as a number (integers keep a
/// trailing `.0`-free form; the grammar accepts both).
fn format_coef(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_operand(program: &Program, e: &Expr) -> String {
    match e {
        Expr::Bin(..) => format!("({})", render_expr(program, e)),
        _ => render_expr(program, e),
    }
}

#[cfg(test)]
mod tests {
    use crate::build::NestBuilder;
    use crate::{Distribution, Expr};

    #[test]
    fn prints_figure_1a_shape() {
        // Figure 1(a): B[i, j-i] = B[i, j-i] + A[i, j+k].
        let mut b = NestBuilder::new(&["i", "j", "k"], &[("N1", 8), ("b", 4), ("N2", 8)]);
        let dim_a = b.par(0).add(&b.par(1)).add(&b.par(2));
        let arr_a = b.array("A", &[b.par(0), dim_a], Distribution::Wrapped { dim: 1 });
        let arr_b = b.array("B", &[b.par(0), b.par(1)], Distribution::Wrapped { dim: 1 });
        b.bounds(0, b.cst(0), b.par(0).sub(&b.cst(1)));
        b.bounds(1, b.var(0), b.var(0).add(&b.par(1)).sub(&b.cst(1)));
        b.bounds(2, b.cst(0), b.par(2).sub(&b.cst(1)));
        let bij = b.access(arr_b, &[b.var(0), b.var(1).sub(&b.var(0))]);
        let rhs = Expr::add(
            Expr::access(bij.clone()),
            Expr::access(b.access(arr_a, &[b.var(0), b.var(1).add(&b.var(2))])),
        );
        b.assign(bij, rhs);
        let p = b.finish();
        let text = super::print_program(&p);
        assert!(text.contains("for i = 0, N1 - 1"));
        assert!(text.contains("for j = i, i + b - 1"));
        assert!(text.contains("for k = 0, N2 - 1"));
        assert!(text.contains("B[i, -i + j] = B[i, -i + j] + A[i, j + k];"));
        assert!(text.contains("array B[N1, b] distribute wrapped(1);"));
    }
}
