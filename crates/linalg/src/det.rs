//! Fraction-free (Bareiss) determinants and the exact adjugate.

use crate::bigint::{self, BMatrix, BigInt};
use crate::{IMatrix, LinalgError};

/// Determinant of an integer matrix by fraction-free Bareiss elimination.
///
/// Exact: intermediates are computed in `i128`, and if those overflow the
/// elimination transparently re-runs over [`BigInt`], so the only error
/// for square input is a *final* determinant that does not fit in `i64`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::Overflow`] if the (exact) determinant exceeds `i64`.
pub fn determinant(m: &IMatrix) -> Result<i64, LinalgError> {
    match determinant_i128(m) {
        Err(LinalgError::Overflow) => determinant_big(m)?.to_i64().ok_or(LinalgError::Overflow),
        other => other,
    }
}

/// The `i128` fast path: errors with `Overflow` when an intermediate
/// minor leaves the safe range.
///
/// Overflow detection is by invariant, not per-operation checking:
/// every matrix entry is kept with magnitude ≤ `i64::MAX` (= 2⁶³−1), so
/// `a·b − c·d` over such entries is bounded by 2·(2⁶³−1)² < 2¹²⁷−1 and
/// plain `i128` arithmetic provably cannot wrap. Only the exact-division
/// result needs one magnitude check to re-establish the invariant —
/// much cheaper than three `checked_*` ops per element (the Bareiss
/// intermediates are minors of `m`, so bailing at 2⁶³ merely promotes
/// to the `BigInt` path a little earlier, never changes the result).
fn determinant_i128(m: &IMatrix) -> Result<i64, LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            shape: (m.rows(), m.cols()),
        });
    }
    const SAFE: u128 = i64::MAX as u128;
    let n = m.rows();
    if n == 0 {
        return Ok(1);
    }
    let mut a: Vec<Vec<i128>> = (0..n)
        .map(|r| m.row(r).iter().map(|&v| v as i128).collect())
        .collect();
    // `i64::MIN` is the one input whose magnitude exceeds the invariant.
    if (0..n).any(|r| m.row(r).contains(&i64::MIN)) {
        return Err(LinalgError::Overflow);
    }
    let mut sign = 1i128;
    let mut prev = 1i128;
    for k in 0..n - 1 {
        if a[k][k] == 0 {
            // Pivot: find a non-zero below.
            let Some(p) = (k + 1..n).find(|&r| a[r][k] != 0) else {
                return Ok(0);
            };
            a.swap(k, p);
            sign = -sign;
        }
        for i in k + 1..n {
            for j in k + 1..n {
                // Cannot wrap: all four factors satisfy |v| ≤ 2⁶³−1.
                let num = a[k][k] * a[i][j] - a[i][k] * a[k][j];
                let q = num / prev; // exact division (Bareiss invariant)
                if q.unsigned_abs() > SAFE {
                    return Err(LinalgError::Overflow);
                }
                a[i][j] = q;
            }
            a[i][k] = 0;
        }
        prev = a[k][k];
    }
    // In range by the invariant (|entry| ≤ i64::MAX).
    Ok((a[n - 1][n - 1] * sign) as i64)
}

/// The exact determinant as a [`BigInt`]; never overflows.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
pub fn determinant_big(m: &IMatrix) -> Result<BigInt, LinalgError> {
    determinant_exact(&bigint::to_big(m))
}

/// The exact determinant of an arbitrary-precision matrix.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
pub fn determinant_exact(m: &BMatrix) -> Result<BigInt, LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            shape: (m.rows(), m.cols()),
        });
    }
    let n = m.rows();
    if n == 0 {
        return Ok(BigInt::one());
    }
    let mut a: Vec<Vec<BigInt>> = (0..n).map(|r| m.row(r).to_vec()).collect();
    let mut negate = false;
    let mut prev = BigInt::one();
    for k in 0..n - 1 {
        if a[k][k].is_zero() {
            let Some(p) = (k + 1..n).find(|&r| !a[r][k].is_zero()) else {
                return Ok(BigInt::zero());
            };
            a.swap(k, p);
            negate = !negate;
        }
        for i in k + 1..n {
            for j in k + 1..n {
                let num = a[k][k].clone() * a[i][j].clone() - a[i][k].clone() * a[k][j].clone();
                a[i][j] = num.exact_div(&prev); // Bareiss invariant
            }
            a[i][k] = BigInt::zero();
        }
        prev = a[k][k].clone();
    }
    let d = a[n - 1][n - 1].clone();
    Ok(if negate { -d } else { d })
}

/// The exact adjugate of an arbitrary-precision matrix:
/// `m * adjugate_exact(m) == determinant_exact(m) * I`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
pub fn adjugate_exact(m: &BMatrix) -> Result<BMatrix, LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            shape: (m.rows(), m.cols()),
        });
    }
    let n = m.rows();
    let mut adj = BMatrix::zero(n, n);
    for r in 0..n {
        for c in 0..n {
            let mut minor = BMatrix::zero(n - 1, n - 1);
            let mut rr = 0;
            for i in 0..n {
                if i == r {
                    continue;
                }
                let mut cc = 0;
                for j in 0..n {
                    if j == c {
                        continue;
                    }
                    minor[(rr, cc)] = m[(i, j)].clone();
                    cc += 1;
                }
                rr += 1;
            }
            let cof = determinant_exact(&minor)?;
            // Adjugate is the *transpose* of the cofactor matrix.
            adj[(c, r)] = if (r + c) % 2 == 0 { cof } else { -cof };
        }
    }
    Ok(adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinant_known_values() {
        assert_eq!(determinant(&IMatrix::identity(4)).unwrap(), 1);
        let m = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
        assert_eq!(determinant(&m).unwrap(), 6);
        let s = IMatrix::from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(determinant(&s).unwrap(), 0);
        // Paper Figure 1 transformation matrix (unimodular).
        let x = IMatrix::from_rows(&[&[-1, 1, 0], &[0, 1, 1], &[1, 0, 0]]);
        assert_eq!(determinant(&x).unwrap(), 1);
    }

    #[test]
    fn determinant_empty_and_single() {
        assert_eq!(determinant(&IMatrix::zero(0, 0)).unwrap(), 1);
        let one = IMatrix::from_rows(&[&[-7]]);
        assert_eq!(determinant(&one).unwrap(), -7);
    }

    #[test]
    fn determinant_rejects_non_square() {
        assert!(matches!(
            determinant(&IMatrix::zero(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn near_max_coefficients_use_big_fallback() {
        // Bareiss over this matrix multiplies two ~2^126 order-2 minors,
        // far past i128 — the i64/i128 fast path must hand off to the
        // exact BigInt path instead of failing.
        let a = i64::MAX - 1;
        let singular = IMatrix::from_rows(&[&[a, 1, 0], &[1, a, a - 1], &[0, a + 1, a]]);
        assert!(matches!(
            determinant_i128(&singular),
            Err(LinalgError::Overflow)
        ));
        assert_eq!(determinant(&singular).unwrap(), 0);
        assert!(!singular.is_invertible());

        // Same shape, nudged to determinant a^2 - 1: exact but too large
        // for i64, so the typed error (not a wrapped value) is returned.
        let huge = IMatrix::from_rows(&[&[a, 1, 0], &[1, a, a - 1], &[0, a + 1, a + 1]]);
        assert_eq!(determinant(&huge), Err(LinalgError::Overflow));
        let exact = determinant_big(&huge).unwrap();
        let expect = BigInt::from(a as i128) * BigInt::from(a as i128) - BigInt::one();
        assert_eq!(exact, expect);
        assert!(huge.is_invertible());
        assert!(!huge.is_unimodular());
    }

    #[test]
    fn adjugate_exact_identity_property() {
        let m = IMatrix::from_rows(&[&[2, 4, 1], &[1, 5, 0], &[0, 3, 2]]);
        let b = bigint::to_big(&m);
        let adj = adjugate_exact(&b).unwrap();
        let d = determinant_exact(&b).unwrap();
        let prod = b.mul(&adj).unwrap();
        assert_eq!(prod, BMatrix::identity(3).scale(d));
    }
}
