//! Scalar value expressions for statement right-hand sides.

use crate::stmt::ArrayRef;
use std::fmt;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// A scalar expression: array reads, literals, named coefficients and
/// arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A read of an array element.
    Access(ArrayRef),
    /// A floating-point literal.
    Lit(f64),
    /// A named scalar coefficient (`alpha`, `beta`), indexing the
    /// program's coefficient table.
    Coef(usize),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // static constructors, not operators
impl Expr {
    /// An array read.
    pub fn access(r: ArrayRef) -> Expr {
        Expr::Access(r)
    }

    /// A literal.
    pub fn lit(v: f64) -> Expr {
        Expr::Lit(v)
    }

    /// A named coefficient by table index.
    pub fn coef(index: usize) -> Expr {
        Expr::Coef(index)
    }

    /// `lhs + rhs`.
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs - rhs`.
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs * rhs`.
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs / rhs`.
    pub fn div(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(lhs), Box::new(rhs))
    }

    /// `-e`.
    pub fn neg(e: Expr) -> Expr {
        Expr::Neg(Box::new(e))
    }

    /// All array reads in the expression, in evaluation order.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        match self {
            Expr::Access(r) => out.push(r),
            Expr::Lit(_) | Expr::Coef(_) => {}
            Expr::Bin(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Neg(a) => a.collect_reads(out),
        }
    }

    /// Number of arithmetic operations (binary operators and negations)
    /// one evaluation performs — the unit the cost evaluators charge
    /// `compute_per_op` for.
    pub fn op_count(&self) -> u64 {
        match self {
            Expr::Access(_) | Expr::Lit(_) | Expr::Coef(_) => 0,
            Expr::Neg(a) => 1 + a.op_count(),
            Expr::Bin(_, a, b) => 1 + a.op_count() + b.op_count(),
        }
    }

    /// Rewrites all references into a new variable space via
    /// `old_vars = M · new_vars`.
    ///
    /// # Errors
    ///
    /// Returns [`an_poly::PolyError::Overflow`] if a substituted
    /// subscript coefficient does not fit in `i64`.
    pub fn substitute_vars(
        &self,
        m: &an_linalg::IMatrix,
        new_space: &an_poly::Space,
    ) -> Result<Expr, an_poly::PolyError> {
        Ok(match self {
            Expr::Access(r) => Expr::Access(r.substitute_vars(m, new_space)?),
            Expr::Lit(v) => Expr::Lit(*v),
            Expr::Coef(i) => Expr::Coef(*i),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.substitute_vars(m, new_space)?),
                Box::new(b.substitute_vars(m, new_space)?),
            ),
            Expr::Neg(a) => Expr::Neg(Box::new(a.substitute_vars(m, new_space)?)),
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Access(r) => write!(f, "{r}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Coef(i) => write!(f, "c#{i}"),
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayId;
    use an_poly::{Affine, Space};

    #[test]
    fn reads_are_collected_in_order() {
        let s = Space::new(&["i"], &[]);
        let r1 = ArrayRef::new(ArrayId(0), vec![Affine::var(&s, 0, 1)]);
        let r2 = ArrayRef::new(ArrayId(1), vec![Affine::var(&s, 0, 2)]);
        let e = Expr::add(
            Expr::mul(Expr::access(r1.clone()), Expr::lit(2.0)),
            Expr::neg(Expr::access(r2.clone())),
        );
        let reads = e.reads();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].array, ArrayId(0));
        assert_eq!(reads[1].array, ArrayId(1));
        // add, mul and neg are operations; the accesses and the literal are not.
        assert_eq!(e.op_count(), 3);
    }

    #[test]
    fn display_round_trips_structure() {
        let e = Expr::div(Expr::lit(1.0), Expr::sub(Expr::lit(2.0), Expr::lit(3.0)));
        assert_eq!(e.to_string(), "(1 / (2 - 3))");
    }
}
