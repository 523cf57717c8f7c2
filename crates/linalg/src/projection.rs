//! Integer-scaled orthogonal projection — the padding-row construction of
//! Algorithm `LegalInvt` (paper Figure 3).
//!
//! Given the remaining dependence matrix `D`, the algorithm needs a new
//! row `x` whose inner product with every remaining dependence column is
//! non-negative, with at least one strictly positive, and which is
//! linearly independent of the rows chosen so far. The paper constructs
//! `x = c·Z(ZᵀZ)⁻¹Zᵀ·e_k` where `Z` is a column basis of `D`, `e_k` is
//! the first standard basis vector not orthogonal to `D`, and `c > 0`
//! scales the rational projection to an integer vector.
//!
//! The projection is computed entirely over [`crate::bigint::BigInt`]
//! via Cramer's rule: `det(ZᵀZ)·(ZᵀZ)⁻¹ = adj(ZᵀZ)`, and `det(ZᵀZ) > 0`
//! for full-column-rank `Z`, so `Z·adj(ZᵀZ)·Zᵀ·e_k` is the projection
//! scaled by a *positive* integer — exact, sign-preserving, and immune
//! to coefficient blowup.

use crate::bigint::{self, BigInt};
use crate::det::{adjugate_exact, determinant_exact};
use crate::{IMatrix, IVec, LinalgError};

/// Orthogonal projection of the standard basis vector `e_k` onto the
/// column space of `z`, scaled by the smallest positive integer that
/// makes it integral.
///
/// Returns `Ok(None)` if the projection is the zero vector (i.e. `e_k`
/// is orthogonal to the column space).
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] if `z` does not have full column
/// rank, and [`LinalgError::Overflow`] if the primitive integer
/// projection does not fit in `i64`.
///
/// # Panics
///
/// Panics if `k >= z.rows()`.
///
/// ```
/// use an_linalg::{IMatrix, projection::project_onto_column_space};
/// // Z = e3 (third axis): projecting e3 gives e3 back.
/// let z = IMatrix::from_rows(&[&[0], &[0], &[1]]);
/// assert_eq!(
///     project_onto_column_space(&z, 2).unwrap(),
///     Some(vec![0, 0, 1])
/// );
/// ```
pub fn project_onto_column_space(z: &IMatrix, k: usize) -> Result<Option<IVec>, LinalgError> {
    assert!(k < z.rows(), "basis vector index out of range");
    let zb = bigint::to_big(z);
    let ztz = zb.transpose().mul(&zb)?;
    let det = determinant_exact(&ztz)?;
    if det.is_zero() {
        // ZᵀZ is singular iff Z lacks full column rank.
        return Err(LinalgError::Singular);
    }
    // Cramer: det·w = adj(ZᵀZ)·Zᵀ·e_k, then det·x = Z·(det·w). Since
    // det(ZᵀZ) > 0, the scaled x has the sign of the true projection.
    let rhs: Vec<BigInt> = (0..z.cols()).map(|c| BigInt::from(z[(k, c)])).collect();
    let w_scaled = adjugate_exact(&ztz)?.mul_vec(&rhs)?;
    let x_scaled = zb.mul_vec(&w_scaled)?;
    if x_scaled.iter().all(BigInt::is_zero) {
        return Ok(None);
    }
    // Make primitive: divide by the gcd of the entries.
    let g = x_scaled.iter().fold(BigInt::zero(), |acc, v| acc.gcd(v));
    let mut out = IVec::with_capacity(x_scaled.len());
    for v in &x_scaled {
        out.push(v.exact_div(&g).to_i64().ok_or(LinalgError::Overflow)?);
    }
    Ok(Some(out))
}

/// Finds the first standard basis vector `e_k` not orthogonal to the
/// columns of `d` (i.e. some row `k` of `d` is non-zero), as used in
/// Algorithm `LegalInvt`.
pub fn first_non_orthogonal_axis(d: &IMatrix) -> Option<usize> {
    (0..d.rows()).find(|&r| d.row(r).iter().any(|&v| v != 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;

    #[test]
    fn projection_onto_axis() {
        // Paper §6.2 example: remaining dependence e3; Z = [e3];
        // x = e3.
        let z = IMatrix::from_rows(&[&[0], &[0], &[1]]);
        assert_eq!(first_non_orthogonal_axis(&z), Some(2));
        assert_eq!(
            project_onto_column_space(&z, 2).unwrap(),
            Some(vec![0, 0, 1])
        );
    }

    #[test]
    fn projection_has_nonnegative_products_with_columns() {
        // The projection of e_k onto colspace(Z) satisfies
        // xᵀ·z_j = (proj e_k)ᵀ z_j = e_kᵀ z_j  (after scaling, same sign).
        let z = IMatrix::from_rows(&[&[1, 0], &[1, 1], &[0, 2]]);
        let k = first_non_orthogonal_axis(&z).unwrap();
        let x = project_onto_column_space(&z, k).unwrap().unwrap();
        for c in 0..z.cols() {
            let col = z.col(c);
            let expected_sign = z[(k, c)].signum();
            let got = dot(&x, &col).signum();
            if expected_sign != 0 {
                assert_eq!(got, expected_sign);
            }
        }
    }

    #[test]
    fn orthogonal_axis_returns_none() {
        // Z spans the (e2, e3) plane; projecting e1 gives zero.
        let z = IMatrix::from_rows(&[&[0, 0], &[1, 0], &[0, 1]]);
        assert_eq!(project_onto_column_space(&z, 0).unwrap(), None);
    }

    #[test]
    fn projection_is_in_column_space() {
        let z = IMatrix::from_rows(&[&[2, 1], &[0, 3], &[1, 1]]);
        let x = project_onto_column_space(&z, 0).unwrap().unwrap();
        // x must be a rational combination of the columns: rank doesn't grow.
        let mut aug = z.clone();
        aug = aug
            .transpose()
            .vstack(&IMatrix::row_vector(&x))
            .unwrap()
            .transpose();
        assert_eq!(aug.rank(), z.rank());
    }

    #[test]
    fn rank_deficient_basis_is_typed_error() {
        let z = IMatrix::from_rows(&[&[1, 2], &[2, 4], &[0, 0]]);
        assert_eq!(project_onto_column_space(&z, 0), Err(LinalgError::Singular));
    }

    #[test]
    fn huge_coefficients_project_exactly() {
        // Entries ~2^32 make ZᵀZ entries ~2^64 and adjugate/Cramer
        // intermediates ~2^192 — far past any fixed width. The exact
        // path must still produce the primitive projection.
        let s = 1i64 << 32;
        let z = IMatrix::from_rows(&[&[s, 0], &[s, s], &[0, 2 * s]]);
        let k = first_non_orthogonal_axis(&z).unwrap();
        let x = project_onto_column_space(&z, k).unwrap().unwrap();
        // Same direction as the small-coefficient projection of the
        // equivalent basis (columns scaled by s don't change the space).
        let small = IMatrix::from_rows(&[&[1, 0], &[1, 1], &[0, 2]]);
        let y = project_onto_column_space(&small, k).unwrap().unwrap();
        assert_eq!(x, y);
    }
}
