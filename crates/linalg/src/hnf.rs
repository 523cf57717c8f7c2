//! The column Hermite normal form.
//!
//! The column-style HNF is the key tool for restructuring loops by
//! *non-unimodular* invertible matrices (paper Section 3): the image
//! `T·Zⁿ` of the iteration space is an integer lattice, and the column
//! HNF `H = T·U` (with `U` unimodular and `H` lower triangular) is a
//! triangular basis of that lattice from which loop steps and congruence
//! offsets are read off directly.
//!
//! The reduction runs on `i64` with checked operations; if an
//! intermediate overflows it transparently re-runs over
//! [`crate::bigint::BigInt`] and narrows the result, so
//! [`LinalgError::Overflow`] is returned only when the final `H`/`U`
//! entries genuinely do not fit in `i64`.

use crate::bigint;
use crate::matrix::Scalar;
use crate::{IMatrix, LinalgError, Matrix};

/// Result of a column-style Hermite normal form: `h == a * u`, `u`
/// unimodular, and `h` in column echelon form (lower triangular for
/// square invertible input) with positive pivots and entries to the left
/// of each pivot reduced to `[0, pivot)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnHnf {
    /// The Hermite normal form.
    pub h: IMatrix,
    /// The unimodular column-operation matrix with `h == a * u`.
    pub u: IMatrix,
    /// For each pivot (in order): `(row, col)` position in `h`.
    pub pivots: Vec<(usize, usize)>,
}

impl ColumnHnf {
    /// Rank of the input matrix (number of pivots).
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Indices of the columns of `u` spanning the integer null space of
    /// the input (the columns of `h` that are zero).
    pub fn kernel_columns(&self) -> Vec<usize> {
        (self.rank()..self.h.cols()).collect()
    }
}

/// The generic reduction state, instantiated at `i64` and `BigInt`.
struct HnfParts<T> {
    h: Matrix<T>,
    u: Matrix<T>,
    pivots: Vec<(usize, usize)>,
}

/// Computes the column-style Hermite normal form `h = a * u`.
///
/// Works for any shape and rank; for a square invertible `a`, `h` is
/// lower triangular with positive diagonal.
///
/// # Errors
///
/// Returns [`LinalgError::Overflow`] only if an entry of the final
/// `H`/`U` does not fit in `i64` (intermediate overflow is absorbed by
/// the exact big-integer fallback).
///
/// ```
/// use an_linalg::{IMatrix, hnf::column_hnf};
/// let t = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
/// let r = column_hnf(&t).unwrap();
/// assert_eq!(&t.mul(&r.u).unwrap(), &r.h);
/// assert!(r.u.is_unimodular());
/// // diag(H) multiplies to |det T| = 6
/// assert_eq!(r.h.get(0, 0) * r.h.get(1, 1), 6);
/// ```
pub fn column_hnf(a: &IMatrix) -> Result<ColumnHnf, LinalgError> {
    match column_hnf_core(a) {
        Ok(p) => Ok(ColumnHnf {
            h: p.h,
            u: p.u,
            pivots: p.pivots,
        }),
        Err(LinalgError::Overflow) => {
            let p =
                column_hnf_core(&bigint::to_big(a)).expect("BigInt HNF reduction cannot overflow");
            Ok(ColumnHnf {
                h: bigint::narrow(&p.h)?,
                u: bigint::narrow(&p.u)?,
                pivots: p.pivots,
            })
        }
        Err(e) => Err(e),
    }
}

fn column_hnf_core<T: Scalar>(a: &Matrix<T>) -> Result<HnfParts<T>, LinalgError> {
    let (m, n) = (a.rows(), a.cols());
    let mut h = a.clone();
    let mut u = Matrix::<T>::identity(n);
    let mut pivots = Vec::with_capacity(m.min(n));
    let mut c = 0; // next pivot column
    for r in 0..m {
        if c >= n {
            break;
        }
        // Reduce row r over columns c..n to a single non-zero at column c
        // using the Euclidean algorithm on columns.
        loop {
            // Pick the column in c..n with the smallest non-zero |h[r][j]|.
            let best = (c..n)
                .filter(|&j| !h[(r, j)].is_zero())
                .min_by(|&i, &j| h[(r, i)].abs_cmp(&h[(r, j)]));
            let Some(j) = best else { break };
            h.swap_cols(c, j);
            u.swap_cols(c, j);
            let pivot = h[(r, c)].clone();
            let mut all_zero = true;
            for k in c + 1..n {
                if !h[(r, k)].is_zero() {
                    let f = neg_quotient(&h[(r, k)], &pivot)?;
                    col_axpy(&mut h, k, c, &f)?;
                    col_axpy(&mut u, k, c, &f)?;
                    if !h[(r, k)].is_zero() {
                        all_zero = false;
                    }
                }
            }
            if all_zero {
                break;
            }
        }
        if h[(r, c)].is_zero() {
            continue; // no pivot in this row
        }
        if h[(r, c)] < T::zero() {
            col_negate(&mut h, c)?;
            col_negate(&mut u, c)?;
        }
        // Canonicalize: reduce entries left of the pivot into [0, pivot).
        let pivot = h[(r, c)].clone();
        for j in 0..c {
            let f = neg_quotient(&h[(r, j)], &pivot)?;
            if !f.is_zero() {
                col_axpy(&mut h, j, c, &f)?;
                col_axpy(&mut u, j, c, &f)?;
            }
        }
        pivots.push((r, c));
        c += 1;
    }
    Ok(HnfParts { h, u, pivots })
}

/// `-floor(a / b)`, the column-operation factor; checked at both steps.
#[inline]
fn neg_quotient<T: Scalar>(a: &T, b: &T) -> Result<T, LinalgError> {
    a.try_div_floor(b)
        .and_then(|q| q.try_neg())
        .ok_or(LinalgError::Overflow)
}

#[inline]
fn col_axpy<T: Scalar>(
    m: &mut Matrix<T>,
    target: usize,
    source: usize,
    factor: &T,
) -> Result<(), LinalgError> {
    for r in 0..m.rows() {
        let v = T::try_fma(m[(r, target)].clone(), &m[(r, source)], factor)
            .ok_or(LinalgError::Overflow)?;
        m[(r, target)] = v;
    }
    Ok(())
}

#[inline]
fn col_negate<T: Scalar>(m: &mut Matrix<T>, col: usize) -> Result<(), LinalgError> {
    for r in 0..m.rows() {
        let v = m[(r, col)].try_neg().ok_or(LinalgError::Overflow)?;
        m[(r, col)] = v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_column_hnf(a: &IMatrix) {
        let r = column_hnf(a).unwrap();
        assert_eq!(a.mul(&r.u).unwrap(), r.h, "H = A*U violated for\n{a}");
        assert!(r.u.is_unimodular(), "U not unimodular for\n{a}");
        // Echelon structure: pivot rows strictly increase with column.
        let mut last_row = None;
        for &(row, col) in &r.pivots {
            assert!(r.h[(row, col)] > 0);
            if let Some(lr) = last_row {
                assert!(row > lr);
            }
            last_row = Some(row);
            // Entries above the pivot in its column are zero.
            for rr in 0..row {
                assert_eq!(r.h[(rr, col)], 0);
            }
            // Entries to the left in the pivot row are reduced.
            for j in 0..col {
                assert!(r.h[(row, j)] >= 0 && r.h[(row, j)] < r.h[(row, col)]);
            }
        }
        // Columns past the rank are zero.
        for c in r.rank()..a.cols() {
            assert!(r.h.col(c).iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn square_invertible() {
        check_column_hnf(&IMatrix::from_rows(&[&[2, 4], &[1, 5]]));
        check_column_hnf(&IMatrix::from_rows(&[&[-1, 1, 0], &[0, 1, 1], &[1, 0, 0]]));
        check_column_hnf(&IMatrix::identity(4));
    }

    #[test]
    fn scaling_example_diagonal() {
        // T = [[2,4],[1,5]] from paper §3. The new outer loop steps by
        // H[0][0] = 2 (the paper's "for u = 6, 18 step 2").
        let r = column_hnf(&IMatrix::from_rows(&[&[2, 4], &[1, 5]])).unwrap();
        assert_eq!(r.h[(0, 0)], 2);
        assert_eq!(r.h[(0, 1)], 0);
    }

    #[test]
    fn rank_deficient_and_rectangular() {
        check_column_hnf(&IMatrix::from_rows(&[&[1, 2], &[2, 4]]));
        check_column_hnf(&IMatrix::from_rows(&[&[1, 1, -1, 0], &[0, 0, 1, -1]]));
        check_column_hnf(&IMatrix::zero(3, 2));
        let r = column_hnf(&IMatrix::from_rows(&[&[1, 2], &[2, 4]])).unwrap();
        assert_eq!(r.rank(), 1);
        assert_eq!(r.kernel_columns(), vec![1]);
        // Kernel column of U really is in the null space.
        let a = IMatrix::from_rows(&[&[1, 2], &[2, 4]]);
        let k = r.u.col(1);
        assert_eq!(a.mul_vec(&k).unwrap(), vec![0, 0]);
    }

    #[test]
    fn negative_entries() {
        check_column_hnf(&IMatrix::from_rows(&[&[-3, 7], &[2, -5]]));
        check_column_hnf(&IMatrix::from_rows(&[&[0, -2, 1], &[-1, 0, 3]]));
    }

    #[test]
    fn min_edge_uses_big_fallback() {
        // Reducing [i64::MIN, -1] needs the quotient MIN / -1 = 2^63,
        // which does not fit in i64 — the old checked axpy panicked
        // here. The BigInt fallback absorbs the oversized intermediate,
        // and the final H = [1, 0] / U = [[0, 1], [-1, MIN]] narrow fine.
        let m = IMatrix::from_rows(&[&[i64::MIN, -1]]);
        let r = column_hnf(&m).unwrap();
        assert_eq!(r.h, IMatrix::from_rows(&[&[1, 0]]));
        assert!(r.u.is_unimodular());
        // Verify H = A*U over BigInt: the i64 product would itself
        // overflow on the MIN * -1 intermediate.
        let prod = bigint::to_big(&m).mul(&bigint::to_big(&r.u)).unwrap();
        assert_eq!(prod, bigint::to_big(&r.h));
    }

    #[test]
    fn i64_rung_agrees_with_bigint_rung_or_promotes() {
        // The promotion contract of `column_hnf`, pinned on the two rungs
        // themselves: where the checked `i64` reduction succeeds it is
        // the `BigInt` reduction entry for entry (H, U and pivots), and
        // where it reports `Overflow` the public entry point answers with
        // the `BigInt` result narrowed, or `Overflow` exactly when that
        // result does not fit.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut seed = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 11) as i64 - 5
        };
        let (mut fast, mut promoted) = (0, 0);
        for scale in [1, 7, 1 << 20, i64::MAX / 6] {
            for (rows, cols) in (1..=4).flat_map(|r| (1..=4).map(move |c| (r, c))) {
                for _ in 0..16 {
                    let data = (0..rows * cols).map(|_| seed() * scale).collect();
                    let m = IMatrix::from_vec(rows, cols, data);
                    let big = column_hnf_core(&bigint::to_big(&m)).unwrap();
                    match column_hnf_core(&m) {
                        Ok(p) => {
                            fast += 1;
                            assert_eq!(bigint::to_big(&p.h), big.h, "H differs for\n{m}");
                            assert_eq!(bigint::to_big(&p.u), big.u, "U differs for\n{m}");
                            assert_eq!(p.pivots, big.pivots, "pivots differ for\n{m}");
                        }
                        Err(LinalgError::Overflow) => {
                            promoted += 1;
                            match (bigint::narrow(&big.h), bigint::narrow(&big.u)) {
                                (Ok(h), Ok(u)) => {
                                    let pivots = big.pivots;
                                    assert_eq!(column_hnf(&m), Ok(ColumnHnf { h, u, pivots }));
                                }
                                _ => assert_eq!(column_hnf(&m), Err(LinalgError::Overflow)),
                            }
                        }
                        Err(e) => panic!("the i64 rung fails only by overflow, got {e}"),
                    }
                }
            }
        }
        assert!(fast > 0 && promoted > 0, "{fast} fast, {promoted} promoted");
    }

    #[test]
    fn unrepresentable_result_is_typed_error() {
        // Coprime near-i64::MAX rows: H[0][0] = gcd = 1, so
        // H[1][1] = |det| = 2*i64::MAX - 3, which cannot be narrowed to
        // i64. The reduction must report the typed overflow — never wrap
        // and never panic.
        let a = i64::MAX - 1; // even
        let b = i64::MAX - 2; // odd, coprime to a
        let m = IMatrix::from_rows(&[&[a, b], &[b, a]]);
        assert!(matches!(column_hnf(&m), Err(LinalgError::Overflow)));
    }
}
