//! Affine forms over loop variables and symbolic parameters.

use crate::Space;
use an_linalg::IMatrix;
use std::fmt;

/// An affine form `Σ aᵢ·varᵢ + Σ bⱼ·paramⱼ + c` with exact integer
/// coefficients, tied to a [`Space`].
///
/// ```
/// use an_poly::{Affine, Space};
/// let s = Space::new(&["i", "j"], &["N"]);
/// // j - i + N - 1
/// let e = Affine::var(&s, 1, 1)
///     .sub(&Affine::var(&s, 0, 1))
///     .add(&Affine::param(&s, 0, 1))
///     .add(&Affine::constant(&s, -1));
/// assert_eq!(e.eval(&[2, 5], &[10]), 12);
/// assert_eq!(e.to_string(), "-i + j + N - 1");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Affine {
    space: Space,
    vars: Vec<i64>,
    params: Vec<i64>,
    constant: i64,
}

impl Affine {
    /// The zero form.
    pub fn zero(space: &Space) -> Affine {
        Affine {
            space: space.clone(),
            vars: vec![0; space.num_vars()],
            params: vec![0; space.num_params()],
            constant: 0,
        }
    }

    /// The constant form `c`.
    pub fn constant(space: &Space, c: i64) -> Affine {
        let mut a = Affine::zero(space);
        a.constant = c;
        a
    }

    /// The form `coeff · varᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the space.
    pub fn var(space: &Space, i: usize, coeff: i64) -> Affine {
        let mut a = Affine::zero(space);
        a.vars[i] = coeff;
        a
    }

    /// The form `coeff · paramⱼ`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range for the space.
    pub fn param(space: &Space, j: usize, coeff: i64) -> Affine {
        let mut a = Affine::zero(space);
        a.params[j] = coeff;
        a
    }

    /// Builds a form from raw coefficient slices.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the space.
    pub fn from_coeffs(space: &Space, vars: &[i64], params: &[i64], constant: i64) -> Affine {
        assert_eq!(vars.len(), space.num_vars(), "variable coefficient count");
        assert_eq!(
            params.len(),
            space.num_params(),
            "parameter coefficient count"
        );
        Affine {
            space: space.clone(),
            vars: vars.to_vec(),
            params: params.to_vec(),
            constant,
        }
    }

    /// The space this form lives in.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Coefficient of variable `i`.
    pub fn var_coeff(&self, i: usize) -> i64 {
        self.vars[i]
    }

    /// Coefficient of parameter `j`.
    pub fn param_coeff(&self, j: usize) -> i64 {
        self.params[j]
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// All variable coefficients.
    pub fn var_coeffs(&self) -> &[i64] {
        &self.vars
    }

    /// All parameter coefficients.
    pub fn param_coeffs(&self) -> &[i64] {
        &self.params
    }

    /// Returns `true` if all coefficients and the constant are zero.
    pub fn is_zero(&self) -> bool {
        self.constant == 0
            && self.vars.iter().all(|&v| v == 0)
            && self.params.iter().all(|&v| v == 0)
    }

    /// Returns `true` if no loop variable appears (parameters and
    /// constant only).
    pub fn is_var_free(&self) -> bool {
        self.vars.iter().all(|&v| v == 0)
    }

    /// Returns `true` if the form is exactly the single variable `i`
    /// with coefficient 1 (the paper's *normal subscript*, Definition
    /// 4.1).
    pub fn is_normal_wrt(&self, i: usize) -> bool {
        self.constant == 0
            && self.params.iter().all(|&v| v == 0)
            && self
                .vars
                .iter()
                .enumerate()
                .all(|(k, &v)| if k == i { v == 1 } else { v == 0 })
    }

    /// Sum of two forms.
    ///
    /// # Panics
    ///
    /// Panics if the spaces have different shapes.
    pub fn add(&self, rhs: &Affine) -> Affine {
        self.zip(rhs, |a, b| a.checked_add(b).expect("affine overflow"))
    }

    /// Difference of two forms.
    ///
    /// # Panics
    ///
    /// Panics if the spaces have different shapes.
    pub fn sub(&self, rhs: &Affine) -> Affine {
        self.zip(rhs, |a, b| a.checked_sub(b).expect("affine overflow"))
    }

    fn zip(&self, rhs: &Affine, f: impl Fn(i64, i64) -> i64) -> Affine {
        assert!(
            self.space.same_shape(&rhs.space),
            "affine ops across different spaces"
        );
        Affine {
            space: self.space.clone(),
            vars: self
                .vars
                .iter()
                .zip(&rhs.vars)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            params: self
                .params
                .iter()
                .zip(&rhs.params)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            constant: f(self.constant, rhs.constant),
        }
    }

    /// Scales the form by an integer.
    pub fn scale(&self, s: i64) -> Affine {
        let m = |v: i64| v.checked_mul(s).expect("affine overflow");
        Affine {
            space: self.space.clone(),
            vars: self.vars.iter().map(|&v| m(v)).collect(),
            params: self.params.iter().map(|&v| m(v)).collect(),
            constant: m(self.constant),
        }
    }

    /// The negated form.
    pub fn neg(&self) -> Affine {
        self.scale(-1)
    }

    /// Overflow-checked negation: `None` if any coefficient is
    /// `i64::MIN`.
    pub fn checked_neg(&self) -> Option<Affine> {
        self.try_zip(self, |a, _| a.checked_neg())
    }

    /// Overflow-checked sum.
    pub fn checked_add(&self, rhs: &Affine) -> Option<Affine> {
        self.try_zip(rhs, |a, b| a.checked_add(b))
    }

    /// Overflow-checked difference.
    pub fn checked_sub(&self, rhs: &Affine) -> Option<Affine> {
        self.try_zip(rhs, |a, b| a.checked_sub(b))
    }

    fn try_zip(&self, rhs: &Affine, f: impl Fn(i64, i64) -> Option<i64>) -> Option<Affine> {
        assert!(
            self.space.same_shape(&rhs.space),
            "affine ops across different spaces"
        );
        Some(Affine {
            space: self.space.clone(),
            vars: self
                .vars
                .iter()
                .zip(&rhs.vars)
                .map(|(&a, &b)| f(a, b))
                .collect::<Option<_>>()?,
            params: self
                .params
                .iter()
                .zip(&rhs.params)
                .map(|(&a, &b)| f(a, b))
                .collect::<Option<_>>()?,
            constant: f(self.constant, rhs.constant)?,
        })
    }

    /// The inequality combination `s1·self + s2·rhs` for constraints
    /// `self ≥ 0`, `rhs ≥ 0` (requires `s1, s2 > 0`), computed exactly in
    /// 128-bit intermediates and reduced by the gcd of its coefficients
    /// (flooring the constant, which is valid — and tightening — for
    /// integer solutions of `e ≥ 0`). Returns `None` only if the reduced
    /// combination still does not fit in `i64`.
    pub(crate) fn combine_inequalities(&self, s1: i64, rhs: &Affine, s2: i64) -> Option<Affine> {
        assert!(s1 > 0 && s2 > 0, "combination multipliers must be positive");
        assert!(
            self.space.same_shape(&rhs.space),
            "affine ops across different spaces"
        );
        // Each product is < 2^126, so the sum is exact in i128.
        let comb = |a: i64, b: i64| s1 as i128 * a as i128 + s2 as i128 * b as i128;
        let vars: Vec<i128> = self
            .vars
            .iter()
            .zip(&rhs.vars)
            .map(|(&a, &b)| comb(a, b))
            .collect();
        let params: Vec<i128> = self
            .params
            .iter()
            .zip(&rhs.params)
            .map(|(&a, &b)| comb(a, b))
            .collect();
        let constant = comb(self.constant, rhs.constant);
        let g = vars
            .iter()
            .chain(&params)
            .fold(0i128, |acc, &v| gcd_i128(acc, v));
        let (vars, params, constant) = if g > 1 {
            (
                vars.iter().map(|&v| v / g).collect(),
                params.iter().map(|&v| v / g).collect(),
                div_floor_i128(constant, g),
            )
        } else {
            (vars, params, constant)
        };
        Some(Affine {
            space: self.space.clone(),
            vars: narrow_all(&vars)?,
            params: narrow_all(&params)?,
            constant: i64::try_from(constant).ok()?,
        })
    }

    /// Overflow-checked variant of [`Affine::substitute_vars`].
    pub fn try_substitute_vars(&self, m: &IMatrix, new_space: &Space) -> Option<Affine> {
        assert_eq!(m.rows(), self.vars.len(), "substitution row count");
        assert_eq!(m.cols(), new_space.num_vars(), "substitution column count");
        assert_eq!(
            new_space.num_params(),
            self.space.num_params(),
            "substitution must preserve parameters"
        );
        let mut vars = vec![0i64; m.cols()];
        for (c, slot) in vars.iter_mut().enumerate() {
            let mut acc: i128 = 0;
            for r in 0..m.rows() {
                acc = acc.checked_add(self.vars[r] as i128 * m[(r, c)] as i128)?;
            }
            *slot = i64::try_from(acc).ok()?;
        }
        Some(Affine {
            space: new_space.clone(),
            vars,
            params: self.params.clone(),
            constant: self.constant,
        })
    }

    /// Evaluates the form at concrete variable and parameter values.
    ///
    /// # Panics
    ///
    /// Panics if the value slices do not match the space, or if the
    /// value does not fit in `i64`. Callers that user input can reach
    /// bound the form first, as `an_ir::LoopNest::reach` does for loop
    /// bounds and `an_numa::plan::evaluate` for what pricing evaluates.
    pub fn eval(&self, var_values: &[i64], param_values: &[i64]) -> i64 {
        assert_eq!(var_values.len(), self.vars.len(), "variable value count");
        assert_eq!(
            param_values.len(),
            self.params.len(),
            "parameter value count"
        );
        let mut acc: i128 = self.constant as i128;
        for (c, v) in self.vars.iter().zip(var_values) {
            acc += *c as i128 * *v as i128;
        }
        for (c, v) in self.params.iter().zip(param_values) {
            acc += *c as i128 * *v as i128;
        }
        i64::try_from(acc).expect("affine evaluation overflow")
    }

    /// Partially evaluates: fixes parameter values, keeping variables
    /// symbolic. The result lives in a space with zero parameters.
    pub fn bind_params(&self, param_values: &[i64]) -> Affine {
        assert_eq!(
            param_values.len(),
            self.params.len(),
            "parameter value count"
        );
        let space = Space::from_names(self.space.var_names().to_vec(), Vec::new());
        let mut constant = self.constant as i128;
        for (c, v) in self.params.iter().zip(param_values) {
            constant += *c as i128 * *v as i128;
        }
        Affine {
            space,
            vars: self.vars.clone(),
            params: Vec::new(),
            constant: i64::try_from(constant).expect("affine overflow"),
        }
    }

    /// Rewrites the form into a new variable space given the substitution
    /// `old_vars = M · new_vars` (an integer matrix with
    /// `M.rows() == old space vars`, `M.cols() == new space vars`).
    /// Parameter and constant parts are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the spaces.
    pub fn substitute_vars(&self, m: &IMatrix, new_space: &Space) -> Affine {
        assert_eq!(m.rows(), self.vars.len(), "substitution row count");
        assert_eq!(m.cols(), new_space.num_vars(), "substitution column count");
        assert_eq!(
            new_space.num_params(),
            self.space.num_params(),
            "substitution must preserve parameters"
        );
        // new_coeff = old_coeffs^T · M
        let mut vars = vec![0i64; m.cols()];
        for (c, slot) in vars.iter_mut().enumerate() {
            let mut acc: i128 = 0;
            for r in 0..m.rows() {
                acc += self.vars[r] as i128 * m[(r, c)] as i128;
            }
            *slot = i64::try_from(acc).expect("affine substitution overflow");
        }
        Affine {
            space: new_space.clone(),
            vars,
            params: self.params.clone(),
            constant: self.constant,
        }
    }

    /// Re-homes a *variable-free* form into any space with at least as
    /// many parameters (coefficients keep their indices; the variable
    /// part is zero).
    ///
    /// # Panics
    ///
    /// Panics if the form involves loop variables or the target space
    /// has fewer parameters.
    pub fn widen_to(&self, target: &Space) -> Affine {
        assert!(self.is_var_free(), "widen_to requires a variable-free form");
        assert!(
            target.num_params() >= self.params.len(),
            "widen_to cannot drop parameters"
        );
        let mut params = self.params.clone();
        params.resize(target.num_params(), 0);
        Affine {
            space: target.clone(),
            vars: vec![0; target.num_vars()],
            params,
            constant: self.constant,
        }
    }

    /// Re-homes the form into a space that has the same variables but
    /// additional parameters appended (existing parameter coefficients
    /// keep their indices).
    ///
    /// # Panics
    ///
    /// Panics if `wider` has fewer parameters or a different variable
    /// count.
    pub fn widen_params(&self, wider: &Space) -> Affine {
        assert_eq!(wider.num_vars(), self.space.num_vars(), "variable count");
        assert!(
            wider.num_params() >= self.space.num_params(),
            "widen_params cannot drop parameters"
        );
        let mut params = self.params.clone();
        params.resize(wider.num_params(), 0);
        Affine {
            space: wider.clone(),
            vars: self.vars.clone(),
            params,
            constant: self.constant,
        }
    }
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    // |coefficients| < 2^127, so the absolute values are exact.
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn div_floor_i128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn narrow_all(values: &[i128]) -> Option<Vec<i64>> {
    values.iter().map(|&v| i64::try_from(v).ok()).collect()
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut term = |f: &mut fmt::Formatter<'_>, coeff: i64, name: &str| -> fmt::Result {
            if coeff == 0 {
                return Ok(());
            }
            if first {
                first = false;
                match coeff {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    c => write!(f, "{c}*{name}")?,
                }
            } else {
                let sign = if coeff > 0 { "+" } else { "-" };
                match coeff.abs() {
                    1 => write!(f, " {sign} {name}")?,
                    c => write!(f, " {sign} {c}*{name}")?,
                }
            }
            Ok(())
        };
        for i in 0..self.vars.len() {
            term(f, self.vars[i], self.space.var_name(i))?;
        }
        for j in 0..self.params.len() {
            term(f, self.params[j], self.space.param_name(j))?;
        }
        if self.constant != 0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant > 0 {
                write!(f, " + {}", self.constant)?;
            } else {
                write!(f, " - {}", -(self.constant as i128))?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Affine({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::new(&["i", "j", "k"], &["N", "b"])
    }

    #[test]
    fn construction_and_eval() {
        let s = space();
        // 2i - j + 3N + 5
        let e = Affine::from_coeffs(&s, &[2, -1, 0], &[3, 0], 5);
        assert_eq!(e.eval(&[1, 2, 3], &[10, 0]), 30 + 5);
        assert_eq!(e.var_coeff(0), 2);
        assert_eq!(e.param_coeff(0), 3);
        assert_eq!(e.constant_term(), 5);
    }

    #[test]
    fn arithmetic() {
        let s = space();
        let a = Affine::var(&s, 0, 1);
        let b = Affine::var(&s, 1, 1);
        let e = a.add(&b).scale(2).sub(&Affine::constant(&s, 4)).neg();
        assert_eq!(e.eval(&[3, 5, 0], &[0, 0]), -(2 * (3 + 5) - 4));
    }

    #[test]
    fn normal_subscript_detection() {
        let s = space();
        assert!(Affine::var(&s, 1, 1).is_normal_wrt(1));
        assert!(!Affine::var(&s, 1, 2).is_normal_wrt(1));
        assert!(!Affine::var(&s, 1, 1)
            .add(&Affine::constant(&s, 1))
            .is_normal_wrt(1));
        assert!(!Affine::var(&s, 1, 1)
            .add(&Affine::param(&s, 0, 1))
            .is_normal_wrt(1));
        assert!(!Affine::var(&s, 0, 1).is_normal_wrt(1));
    }

    #[test]
    fn substitution_by_matrix() {
        let s = space();
        // u-space: (u, v, w) with i = v+w, j = u, k = w  (some mapping M)
        let new = s.with_vars(&["u", "v", "w"]);
        let m = IMatrix::from_rows(&[&[0, 1, 1], &[1, 0, 0], &[0, 0, 1]]);
        // e = i + 2j  ->  (v+w) + 2u
        let e = Affine::from_coeffs(&s, &[1, 2, 0], &[0, 0], 0);
        let t = e.substitute_vars(&m, &new);
        assert_eq!(t.var_coeffs(), &[2, 1, 1]);
        // Evaluation consistency: e(M·x) == t(x).
        for x in [[1, 2, 3], [0, -1, 4]] {
            let old_point = m.mul_vec(&x).unwrap();
            assert_eq!(e.eval(&old_point, &[0, 0]), t.eval(&x, &[0, 0]));
        }
    }

    #[test]
    fn bind_and_widen() {
        let s = space();
        let e = Affine::from_coeffs(&s, &[1, 0, 0], &[2, -1], 3);
        let bound = e.bind_params(&[10, 4]);
        assert!(!bound.is_var_free());
        assert_eq!(bound.eval(&[5, 0, 0], &[]), 5 + 20 - 4 + 3);
        let (wider, pidx) = s.with_extra_param("P");
        let w = e.widen_params(&wider);
        assert_eq!(w.param_coeff(pidx), 0);
        assert_eq!(w.eval(&[5, 0, 0], &[10, 4, 99]), 5 + 20 - 4 + 3);
    }

    #[test]
    fn display_formatting() {
        let s = space();
        assert_eq!(Affine::zero(&s).to_string(), "0");
        assert_eq!(Affine::constant(&s, -7).to_string(), "-7");
        let e = Affine::from_coeffs(&s, &[-1, 1, 0], &[0, 2], -1);
        assert_eq!(e.to_string(), "-i + j + 2*b - 1");
    }
}
