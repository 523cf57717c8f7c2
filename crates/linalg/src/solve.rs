//! Exact integer (Diophantine) linear solvers.
//!
//! Dependence analysis reduces to integer linear systems: two references
//! touch the same element when their subscript functions agree, i.e.
//! `A·d = c` for the iteration difference `d`. [`solve_integer`] returns
//! the full solution set — a particular solution plus a basis of the
//! integer null space — via the column Hermite normal form.

use crate::hnf::column_hnf;
use crate::{IMatrix, IVec, LinalgError};

/// The complete solution set of an integer linear system `A·x = b`:
/// every integer solution is `particular + Σ λᵢ·kernel[i]` for integer
/// `λᵢ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegerSolution {
    /// One integer solution.
    pub particular: IVec,
    /// Basis vectors of the integer null space of `A`.
    pub kernel: Vec<IVec>,
}

impl IntegerSolution {
    /// Returns `true` if the solution is unique (trivial null space).
    pub fn is_unique(&self) -> bool {
        self.kernel.is_empty()
    }
}

/// Solves `A·x = b` over the integers.
///
/// # Errors
///
/// Returns [`LinalgError::NoIntegerSolution`] if the system is
/// inconsistent over the integers (including the case where it is
/// solvable over the rationals only), and
/// [`LinalgError::DimensionMismatch`] if `b.len() != A.rows()`.
///
/// ```
/// use an_linalg::{IMatrix, solve::solve_integer};
/// let a = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
/// let s = solve_integer(&a, &[6, 6]).unwrap();
/// assert_eq!(s.particular, vec![1, 1]);
/// assert!(s.is_unique());
/// ```
pub fn solve_integer(a: &IMatrix, b: &[i64]) -> Result<IntegerSolution, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "integer solve",
            lhs: (a.rows(), a.cols()),
            rhs: (b.len(), 1),
        });
    }
    let hnf = column_hnf(a)?;
    let n = a.cols();
    // Solve H·y = b by forward substitution over the echelon structure.
    let mut y = vec![0i64; n];
    let mut pivot_iter = hnf.pivots.iter().peekable();
    let mut determined: Vec<(usize, usize)> = Vec::new(); // (col, pivot row)
    for (r, &br) in b.iter().enumerate() {
        let mut s: i128 = 0;
        for &(c, _) in &determined {
            // Each term is < 2^126; the number of terms is a loop-nest
            // depth, so a checked i128 accumulator is exact in practice
            // and reports the (absurd) residual case as a typed error.
            let term = (hnf.h[(r, c)] as i128)
                .checked_mul(y[c] as i128)
                .ok_or(LinalgError::Overflow)?;
            s = s.checked_add(term).ok_or(LinalgError::Overflow)?;
        }
        if let Some(&&(pr, pc)) = pivot_iter.peek() {
            if pr == r {
                pivot_iter.next();
                let rhs = br as i128 - s;
                let pivot = hnf.h[(r, pc)] as i128;
                if rhs % pivot != 0 {
                    return Err(LinalgError::NoIntegerSolution);
                }
                y[pc] = i64::try_from(rhs / pivot).map_err(|_| LinalgError::Overflow)?;
                determined.push((pc, pr));
                continue;
            }
        }
        if s != br as i128 {
            return Err(LinalgError::NoIntegerSolution);
        }
    }
    // x = U·y.
    let particular = hnf.u.mul_vec(&y)?;
    let kernel = hnf
        .kernel_columns()
        .into_iter()
        .map(|c| hnf.u.col(c))
        .collect();
    Ok(IntegerSolution { particular, kernel })
}

/// Computes a basis of the integer null space of `A` (the lattice of
/// `x` with `A·x = 0`).
///
/// # Errors
///
/// Returns [`LinalgError::Overflow`] only if a basis vector does not fit
/// in `i64`.
pub fn integer_kernel(a: &IMatrix) -> Result<Vec<IVec>, LinalgError> {
    let hnf = column_hnf(a)?;
    Ok(hnf
        .kernel_columns()
        .into_iter()
        .map(|c| hnf.u.col(c))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_solution(a: &IMatrix, b: &[i64]) {
        let s = solve_integer(a, b).unwrap();
        assert_eq!(a.mul_vec(&s.particular).unwrap(), b);
        for k in &s.kernel {
            let zero = vec![0i64; a.rows()];
            assert_eq!(a.mul_vec(k).unwrap(), zero);
        }
    }

    #[test]
    fn unique_solution() {
        let a = IMatrix::from_rows(&[&[2, 4], &[1, 5]]);
        check_solution(&a, &[6, 6]);
    }

    #[test]
    fn underdetermined_system() {
        let a = IMatrix::from_rows(&[&[1, 1, -1]]);
        check_solution(&a, &[3]);
        let s = solve_integer(&a, &[3]).unwrap();
        assert_eq!(s.kernel.len(), 2);
    }

    #[test]
    fn rationally_solvable_but_not_integrally() {
        let a = IMatrix::from_rows(&[&[2, 0], &[0, 2]]);
        assert_eq!(
            solve_integer(&a, &[1, 2]),
            Err(LinalgError::NoIntegerSolution)
        );
    }

    #[test]
    fn inconsistent_system() {
        let a = IMatrix::from_rows(&[&[1, 1], &[2, 2]]);
        assert_eq!(
            solve_integer(&a, &[1, 3]),
            Err(LinalgError::NoIntegerSolution)
        );
    }

    #[test]
    fn gcd_condition_single_equation() {
        // 6x + 10y = b solvable iff gcd(6,10)=2 divides b.
        let a = IMatrix::from_rows(&[&[6, 10]]);
        check_solution(&a, &[8]);
        assert!(solve_integer(&a, &[7]).is_err());
    }

    #[test]
    fn kernel_of_dependent_rows() {
        let a = IMatrix::from_rows(&[&[1, 2, 3], &[2, 4, 6]]);
        let k = integer_kernel(&a).unwrap();
        assert_eq!(k.len(), 2);
        for v in &k {
            assert_eq!(a.mul_vec(v).unwrap(), vec![0, 0]);
        }
    }

    #[test]
    fn shape_mismatch() {
        let a = IMatrix::identity(2);
        assert!(matches!(
            solve_integer(&a, &[1]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
