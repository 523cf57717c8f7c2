//! Symbolic linear expressions over named symbols.
//!
//! The normalizer reasons about affine expressions before lowering has
//! assigned variable indices, so it works over a name-keyed linear form:
//! a constant plus integer coefficients over symbols (loop variables,
//! parameters, and — during delta discovery — opaque scalar entry
//! values, marked with a reserved prefix that cannot appear in source
//! identifiers).

use an_lang::ast::AstAffine;
use an_lang::token::Pos;
use std::collections::BTreeMap;

/// Reserved prefix for scalar-entry symbols used during delta
/// discovery. The lexer only admits alphanumeric identifiers, so the
/// prefix cannot collide with a source name.
pub const SCALAR_SYM: &str = "\u{1}";

/// A linear expression `const + Σ coeff·symbol` with exact `i64`
/// arithmetic (overflow panics under the workspace's checked profiles,
/// which is the intended failure mode for absurd inputs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lin {
    /// Constant term.
    pub constant: i64,
    /// Symbol coefficients; zero coefficients are never stored.
    pub terms: BTreeMap<String, i64>,
}

impl Lin {
    /// The constant expression `c`.
    pub fn num(c: i64) -> Lin {
        Lin {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    /// The expression `1·name`.
    pub fn sym(name: &str) -> Lin {
        let mut terms = BTreeMap::new();
        terms.insert(name.to_string(), 1);
        Lin { constant: 0, terms }
    }

    /// Coefficient of `name` (zero when absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// `Some(c)` when the expression is the constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// Whether any symbol carries the scalar-entry marker.
    pub fn has_scalar_syms(&self) -> bool {
        self.terms.keys().any(|k| k.starts_with(SCALAR_SYM))
    }

    /// Whether `name` appears with a non-zero coefficient.
    pub fn mentions(&self, name: &str) -> bool {
        self.coeff(name) != 0
    }

    /// The expression with `name`'s term removed.
    pub fn without(&self, name: &str) -> Lin {
        let mut r = self.clone();
        r.terms.remove(name);
        r
    }

    /// `self + other`.
    pub fn add(&self, other: &Lin) -> Lin {
        let mut r = self.clone();
        r.constant += other.constant;
        for (k, v) in &other.terms {
            let c = r.terms.entry(k.clone()).or_insert(0);
            *c += v;
            if *c == 0 {
                r.terms.remove(k);
            }
        }
        r
    }

    /// `self - other`.
    pub fn sub(&self, other: &Lin) -> Lin {
        self.add(&other.scale(-1))
    }

    /// `k · self`.
    pub fn scale(&self, k: i64) -> Lin {
        if k == 0 {
            return Lin::num(0);
        }
        Lin {
            constant: self.constant * k,
            terms: self.terms.iter().map(|(n, c)| (n.clone(), c * k)).collect(),
        }
    }

    /// `self · other` when one side is constant.
    pub fn mul(&self, other: &Lin) -> Option<Lin> {
        if let Some(c) = other.as_const() {
            Some(self.scale(c))
        } else {
            self.as_const().map(|c| other.scale(c))
        }
    }

    /// Substitutes `name := value` throughout.
    pub fn subst(&self, name: &str, value: &Lin) -> Lin {
        let c = self.coeff(name);
        if c == 0 {
            return self.clone();
        }
        self.without(name).add(&value.scale(c))
    }

    /// Whether every coefficient and the constant are divisible by `d`.
    pub fn divisible_by(&self, d: i64) -> bool {
        self.constant % d == 0 && self.terms.values().all(|c| c % d == 0)
    }

    /// Exact division by `d`; call only after [`Lin::divisible_by`].
    pub fn div_exact(&self, d: i64) -> Lin {
        Lin {
            constant: self.constant / d,
            terms: self
                .terms
                .iter()
                .map(|(n, c)| (n.clone(), c / d))
                .filter(|&(_, c)| c != 0)
                .collect(),
        }
    }

    /// Reads a scalar-free affine expression as written, every
    /// identifier a symbol; `None` on a non-linear product.
    pub fn from_ast(e: &AstAffine) -> Option<Lin> {
        match e {
            AstAffine::Num(v, _) => Some(Lin::num(*v)),
            AstAffine::Ident(name, _) => Some(Lin::sym(name)),
            AstAffine::Neg(a, _) => Some(Lin::from_ast(a)?.scale(-1)),
            AstAffine::Add(a, b, _) => Some(Lin::from_ast(a)?.add(&Lin::from_ast(b)?)),
            AstAffine::Sub(a, b, _) => Some(Lin::from_ast(a)?.sub(&Lin::from_ast(b)?)),
            AstAffine::Mul(a, b, _) => Lin::from_ast(a)?.mul(&Lin::from_ast(b)?),
        }
    }

    /// Renders the expression back into AST form at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if a scalar-entry marker symbol remains: those never
    /// belong in a rewritten program.
    pub fn to_ast(&self, pos: Pos) -> AstAffine {
        let mut acc: Option<AstAffine> = if self.constant != 0 || self.terms.is_empty() {
            Some(AstAffine::Num(self.constant, pos))
        } else {
            None
        };
        for (name, &c) in &self.terms {
            assert!(
                !name.starts_with(SCALAR_SYM),
                "scalar-entry symbol escaped into a rewrite"
            );
            let var = AstAffine::Ident(name.clone(), pos);
            let term = if c.abs() == 1 {
                var
            } else {
                AstAffine::Mul(Box::new(AstAffine::Num(c.abs(), pos)), Box::new(var), pos)
            };
            acc = Some(match acc {
                None if c < 0 => AstAffine::Neg(Box::new(term), pos),
                None => term,
                Some(a) if c < 0 => AstAffine::Sub(Box::new(a), Box::new(term), pos),
                Some(a) => AstAffine::Add(Box::new(a), Box::new(term), pos),
            });
        }
        acc.expect("accumulator always set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(l: &Lin) -> String {
        let pos = Pos { line: 1, col: 1 };
        an_lang::print::print_program(&an_lang::ast::AstProgram {
            params: vec![],
            coefs: vec![],
            assumes: vec![],
            arrays: vec![],
            nest: an_lang::ast::AstLoop {
                var: "i".into(),
                lowers: vec![l.to_ast(pos)],
                uppers: vec![AstAffine::Num(0, pos)],
                step: None,
                body: an_lang::ast::AstBody::Stmts(vec![]),
                pos,
            },
        })
    }

    #[test]
    fn arithmetic_and_rendering() {
        let e = Lin::sym("N").scale(2).sub(&Lin::sym("i")).add(&Lin::num(3));
        assert_eq!(e.coeff("N"), 2);
        assert_eq!(e.coeff("i"), -1);
        assert_eq!(e.constant, 3);
        // BTreeMap order: `N` before `i`.
        assert!(render(&e).contains("3 + 2 * N - i"), "{}", render(&e));
        let z = e.sub(&e);
        assert_eq!(z.as_const(), Some(0));
        assert!(render(&z).contains("for i = 0, 0"));
    }

    #[test]
    fn substitution_and_divisibility() {
        // 2i + 4 with i := N - 1  →  2N + 2.
        let e = Lin::sym("i").scale(2).add(&Lin::num(4));
        let s = e.subst("i", &Lin::sym("N").sub(&Lin::num(1)));
        assert_eq!(s.coeff("N"), 2);
        assert_eq!(s.constant, 2);
        assert!(s.divisible_by(2));
        assert_eq!(s.div_exact(2).coeff("N"), 1);
        assert!(!s.divisible_by(4));
    }
}
