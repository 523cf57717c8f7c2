//! Exact integer linear algebra for loop transformations.
//!
//! This crate is the algebraic substrate of the access-normalization
//! pipeline (Li & Pingali, ASPLOS 1992). Loop transformations are modeled
//! as invertible integer matrices acting on iteration spaces, and the
//! iteration spaces themselves are integer lattices, so everything here is
//! *exact* integer arithmetic: checked `i64` with `i128` intermediates,
//! promoted to [`bigint::BigInt`] on overflow — no division that leaves
//! ℤ (the Hermite normal form and Cramer's rule take its place) and no
//! floating point anywhere.
//!
//! # Contents
//!
//! - [`Matrix`] — dense matrices generic over a [`Scalar`] integer ring,
//!   with the aliases [`IMatrix`] (`i64`) and [`bigint::BMatrix`].
//! - [`hnf`] — the column Hermite normal form, which drives lattice-aware
//!   code generation for non-unimodular transforms.
//! - [`det`] — fraction-free (Bareiss) determinants and the exact
//!   adjugate.
//! - [`solve`] — integer (Diophantine) solving and null-space bases.
//! - [`lattice`] — the integer lattice `T·Zⁿ` of a transform.
//! - [`projection`] — the integer-scaled orthogonal projection used by
//!   Algorithm `LegalInvt` (paper Figure 3).
//! - [`basis`] — first-row-basis extraction (paper Algorithm
//!   `BasisMatrix`, Section 5.1).
//!
//! # Example
//!
//! ```
//! use an_linalg::{IMatrix, hnf::column_hnf};
//!
//! // The loop-scaling example of the paper, Section 3.
//! let t = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
//! assert_eq!(t.determinant(), 6);
//! let h = column_hnf(&t).unwrap();
//! // H = T * U with U unimodular; H is lower triangular.
//! assert_eq!(h.h.get(0, 1), 0);
//! assert_eq!(h.u.determinant().abs(), 1);
//! assert_eq!(&t.mul(&h.u).unwrap(), &h.h);
//! ```
//!
//! # Exact arithmetic
//!
//! Public entry points compute on `i64` with `checked_*` operations; on
//! overflow they transparently re-run over the in-tree arbitrary-precision
//! [`bigint::BigInt`] and narrow the result, so
//! [`LinalgError::Overflow`] is returned only when a *final* value
//! genuinely does not fit in `i64` — intermediates never wrap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod bigint;
pub mod cache;
pub mod det;
pub mod hnf;
pub mod lattice;
pub mod matrix;
pub mod projection;
pub mod solve;
pub mod vector;

mod error;

pub use cache::{CacheStats, FxHashMap, MemoCache};
pub use error::LinalgError;
pub use matrix::{IMatrix, Matrix, Scalar};
pub use vector::{lex_cmp, lex_negative, lex_positive, IVec};

/// Greatest common divisor of two integers; always non-negative, and
/// `gcd(0, 0) == 0`.
///
/// ```
/// assert_eq!(an_linalg::gcd(12, -18), 6);
/// assert_eq!(an_linalg::gcd(0, 5), 5);
/// ```
pub fn gcd(a: i64, b: i64) -> i64 {
    checked_gcd(a, b).expect("gcd overflow: |i64::MIN|")
}

/// Checked [`gcd`]: `None` only for `gcd(i64::MIN, i64::MIN)` (and the
/// equivalent zero cases), whose exact value `2^63` does not fit.
///
/// ```
/// assert_eq!(an_linalg::checked_gcd(12, -18), Some(6));
/// assert_eq!(an_linalg::checked_gcd(i64::MIN, 0), None);
/// ```
pub fn checked_gcd(a: i64, b: i64) -> Option<i64> {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    i64::try_from(a).ok()
}

/// Least common multiple; `lcm(0, x) == 0`.
///
/// # Panics
///
/// Panics on overflow of the exact result.
///
/// ```
/// assert_eq!(an_linalg::lcm(4, 6), 12);
/// ```
pub fn lcm(a: i64, b: i64) -> i64 {
    checked_lcm(a, b).expect("lcm overflow")
}

/// Checked [`lcm`]: `None` if the exact result does not fit in `i64`.
///
/// ```
/// assert_eq!(an_linalg::checked_lcm(4, 6), Some(12));
/// assert_eq!(an_linalg::checked_lcm(i64::MAX, i64::MAX - 1), None);
/// ```
pub fn checked_lcm(a: i64, b: i64) -> Option<i64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = checked_gcd(a, b)?;
    (a / g).checked_mul(b)?.checked_abs()
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y == g == gcd(a, b)` and `g >= 0`.
///
/// ```
/// let (g, x, y) = an_linalg::extended_gcd(240, 46);
/// assert_eq!(g, 2);
/// assert_eq!(240 * x + 46 * y, 2);
/// ```
pub fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    let (mut old_r, mut r) = (a as i128, b as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let q = old_r.div_euclid(r);
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    if old_r < 0 {
        old_r = -old_r;
        old_s = -old_s;
        old_t = -old_t;
    }
    (
        i64::try_from(old_r).expect("extended_gcd overflow"),
        i64::try_from(old_s).expect("extended_gcd overflow"),
        i64::try_from(old_t).expect("extended_gcd overflow"),
    )
}

/// Floor division `a / b` for `b != 0` (rounds toward negative infinity).
///
/// ```
/// assert_eq!(an_linalg::div_floor(7, 2), 3);
/// assert_eq!(an_linalg::div_floor(-7, 2), -4);
/// assert_eq!(an_linalg::div_floor(7, -2), -4);
/// ```
pub fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division `a / b` for `b != 0` (rounds toward positive infinity).
///
/// ```
/// assert_eq!(an_linalg::div_ceil(7, 2), 4);
/// assert_eq!(an_linalg::div_ceil(-7, 2), -3);
/// ```
pub fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Mathematical modulus: result is in `[0, |b|)`.
///
/// ```
/// assert_eq!(an_linalg::mod_floor(-3, 5), 2);
/// ```
pub fn mod_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0);
    a.rem_euclid(b)
}

/// `Σ_{i<n} ⌊(a·i + b)/m⌋` for `m > 0` and any `a`, `b`, in
/// `O(log max(a, m))` steps: the whole-multiple parts of `a` and `b`
/// first, then the Euclid-like reduction that trades the roles of `a`
/// and `m` each round. `None` when an intermediate leaves `i128`; `0`
/// for `n ≤ 0`.
///
/// ```
/// // ⌊0/3⌋ + ⌊2/3⌋ + ⌊4/3⌋ + ⌊6/3⌋ + ⌊8/3⌋ = 0 + 0 + 1 + 2 + 2
/// assert_eq!(an_linalg::floor_sum(5, 3, 2, 0), Some(5));
/// assert_eq!(an_linalg::floor_sum(3, 2, -1, 0), Some(-2));
/// ```
pub fn floor_sum(n: i128, m: i128, a: i128, b: i128) -> Option<i128> {
    debug_assert!(m > 0);
    if n <= 0 {
        return Some(0);
    }
    // Σ_{i<n} i, the weight of the whole-multiple part of `a`.
    let tri = |n: i128| n.checked_mul(n - 1).map(|t| t / 2);
    let mut ans = tri(n)?
        .checked_mul(a.div_euclid(m))?
        .checked_add(n.checked_mul(b.div_euclid(m))?)?;
    let (mut n, mut m, mut a, mut b) = (n, m, a.rem_euclid(m), b.rem_euclid(m));
    loop {
        if a >= m {
            ans = ans.checked_add(tri(n)?.checked_mul(a / m)?)?;
            a %= m;
        }
        if b >= m {
            ans = ans.checked_add(n.checked_mul(b / m)?)?;
            b %= m;
        }
        let y_max = a.checked_mul(n)?.checked_add(b)?;
        if y_max < m {
            return Some(ans);
        }
        (n, b, m, a) = (y_max / m, y_max % m, a, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-4, -6), 2);
        assert_eq!(gcd(i64::MAX, 1), 1);
    }

    #[test]
    fn extended_gcd_identity() {
        for (a, b) in [(0, 0), (5, 0), (0, 7), (-12, 18), (35, -21)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(g, gcd(a, b));
            assert_eq!(a * x + b * y, g);
        }
    }

    #[test]
    fn floor_sum_matches_brute_force() {
        let brute = |n: i128, m: i128, a: i128, b: i128| {
            (0..n.max(0))
                .map(|i| (a * i + b).div_euclid(m))
                .sum::<i128>()
        };
        let mut z: u64 = 7;
        let mut next = |span: i64| {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((z >> 33) % (2 * span as u64 + 1)) as i64 - span
        };
        for _ in 0..4000 {
            let n = next(10_000).unsigned_abs() as i128;
            let m = next(60).unsigned_abs() as i128 + 1;
            let (a, b) = (next(1_000) as i128, next(100_000) as i128);
            assert_eq!(
                floor_sum(n, m, a, b),
                Some(brute(n, m, a, b)),
                "n={n} m={m} a={a} b={b}"
            );
        }
        for n in -2..40 {
            for m in 1..9 {
                for a in -9..10 {
                    for b in -20..21 {
                        assert_eq!(floor_sum(n, m, a, b), Some(brute(n, m, a, b)));
                    }
                }
            }
        }
        assert_eq!(floor_sum(3, 1, i128::MAX, 0), None);
    }

    #[test]
    fn floor_ceil_div_agree_with_euclid() {
        for a in -20..=20 {
            for b in [-7, -2, -1, 1, 2, 7] {
                assert_eq!(div_floor(a, b), (a as f64 / b as f64).floor() as i64);
                assert_eq!(div_ceil(a, b), (a as f64 / b as f64).ceil() as i64);
                let m = mod_floor(a, b);
                assert!(m >= 0 && m < b.abs());
            }
        }
    }
}
