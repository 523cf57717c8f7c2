//! Dense matrices over an exact integer ring.

use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// An exact integer ring: the element type of a [`Matrix`].
///
/// This trait is sealed in spirit — it is implemented for [`i64`] (the
/// fallible fast rung, where every `try_*` hook detects overflow,
/// including the `i64::MIN` edge cases of negation and division) and
/// [`crate::bigint::BigInt`] (the infallible exact rung), and the
/// crate's algorithms are written against exactly those instantiations.
pub trait Scalar:
    Clone
    + Ord
    + fmt::Debug
    + fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;

    /// Returns `true` if the value is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Fused multiply-add `acc + a*b`, or `None` if the exact result is
    /// not representable. Rings of unbounded precision never return
    /// `None`; for `i64` this is the overflow-detection hook that lets
    /// [`Matrix::mul`] report [`LinalgError::Overflow`] instead of
    /// wrapping.
    fn try_fma(acc: Self, a: &Self, b: &Self) -> Option<Self> {
        Some(acc + a.clone() * b.clone())
    }

    /// Checked addition `a + b`, or `None` if not representable.
    fn try_add(a: Self, b: &Self) -> Option<Self> {
        Some(a + b.clone())
    }

    /// Floor division (toward negative infinity), like
    /// [`crate::div_floor`]; `None` if the exact quotient is not
    /// representable (`i64::MIN / -1`).
    fn try_div_floor(&self, rhs: &Self) -> Option<Self>;
    /// Checked negation (`-i64::MIN` is not representable).
    fn try_neg(&self) -> Option<Self>;
    /// Compares absolute values without materializing them.
    fn abs_cmp(&self, other: &Self) -> std::cmp::Ordering;
}

impl Scalar for i64 {
    #[inline]
    fn zero() -> i64 {
        0
    }
    #[inline]
    fn one() -> i64 {
        1
    }
    #[inline]
    fn try_fma(acc: i64, a: &i64, b: &i64) -> Option<i64> {
        acc.checked_add(a.checked_mul(*b)?)
    }
    #[inline]
    fn try_add(a: i64, b: &i64) -> Option<i64> {
        a.checked_add(*b)
    }
    #[inline]
    fn try_div_floor(&self, rhs: &i64) -> Option<i64> {
        let (a, b) = (*self as i128, *rhs as i128);
        let mut q = a / b;
        if a % b != 0 && (a < 0) != (b < 0) {
            q -= 1;
        }
        i64::try_from(q).ok()
    }
    #[inline]
    fn try_neg(&self) -> Option<i64> {
        self.checked_neg()
    }
    #[inline]
    fn abs_cmp(&self, other: &i64) -> std::cmp::Ordering {
        self.unsigned_abs().cmp(&other.unsigned_abs())
    }
}

/// A dense, row-major matrix over an exact scalar type.
///
/// The workhorse representation for data access matrices, transformation
/// matrices and dependence matrices. Dimensions are small (the loop
/// nesting depth), so the implementation favors clarity and exactness over
/// asymptotic cleverness.
///
/// ```
/// use an_linalg::IMatrix;
/// let a = IMatrix::from_rows(&[&[1, 2], &[3, 4]]);
/// let b = a.mul(&IMatrix::identity(2)).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// Integer matrix.
pub type IMatrix = Matrix<i64>;

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zero(rows: usize, cols: usize) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Matrix<T> {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[T]]) -> Matrix<T> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "ragged rows in Matrix::from_rows"
        );
        Matrix {
            rows: nrows,
            cols: ncols,
            data: rows.iter().flat_map(|r| r.iter().cloned()).collect(),
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Matrix<T> {
        assert_eq!(data.len(), rows * cols, "flat data has wrong length");
        Matrix { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(row: &[T]) -> Matrix<T> {
        Matrix::from_rows(&[row])
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(col: &[T]) -> Matrix<T> {
        Matrix {
            rows: col.len(),
            cols: 1,
            data: col.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> T {
        self[(r, c)].clone()
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self[(r, c)] = v;
    }

    /// A view of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` as an owned vector.
    pub fn col(&self, c: usize) -> Vec<T> {
        (0..self.rows).map(|r| self[(r, c)].clone()).collect()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks(self.cols.max(1)).take(self.rows)
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Matrix<T> {
        let mut out = Matrix::zero(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].clone();
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`, or [`LinalgError::Overflow`] if an
    /// entry of the exact product is not representable in `T`.
    pub fn mul(&self, rhs: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiplication",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for c in 0..rhs.cols {
                let mut acc = T::zero();
                for k in 0..self.cols {
                    acc = T::try_fma(acc, &self[(r, k)], &rhs[(k, c)])
                        .ok_or(LinalgError::Overflow)?;
                }
                out[(r, c)] = acc;
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != v.len()`, or [`LinalgError::Overflow`] if an entry
    /// of the exact product is not representable in `T`.
    pub fn mul_vec(&self, v: &[T]) -> Result<Vec<T>, LinalgError> {
        let mut out = Vec::with_capacity(self.rows);
        self.mul_vec_into(v, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::mul_vec`] into `out`, which is cleared first: a caller
    /// that multiplies many vectors reuses one buffer.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::mul_vec`]; `out` then holds a partial product.
    pub fn mul_vec_into(&self, v: &[T], out: &mut Vec<T>) -> Result<(), LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix-vector multiplication",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        out.clear();
        for r in 0..self.rows {
            let mut acc = T::zero();
            for k in 0..self.cols {
                acc = T::try_fma(acc, &self[(r, k)], &v[k]).ok_or(LinalgError::Overflow)?;
            }
            out.push(acc);
        }
        Ok(())
    }

    /// Sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch, or
    /// [`LinalgError::Overflow`] if an entry of the exact sum is not
    /// representable in `T`.
    pub fn add(&self, rhs: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix addition",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o = T::try_add(o.clone(), r).ok_or(LinalgError::Overflow)?;
        }
        Ok(out)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: T) -> Matrix<T> {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = v.clone() * s.clone();
        }
        out
    }

    /// The negated matrix.
    pub fn neg(&self) -> Matrix<T> {
        self.scale(-T::one())
    }

    /// Returns the submatrix of the given rows (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix<T> {
        let mut out = Matrix::zero(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            for c in 0..self.cols {
                out[(i, c)] = self[(r, c)].clone();
            }
        }
        out
    }

    /// Returns the submatrix of the given columns (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix<T> {
        let mut out = Matrix::zero(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out[(r, j)] = self[(r, c)].clone();
            }
        }
        out
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the column counts
    /// differ.
    pub fn vstack(&self, other: &Matrix<T>) -> Result<Matrix<T>, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "vertical stack",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Appends a single row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.cols, "push_row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Removes row `r` in place.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn remove_row(&mut self, r: usize) {
        assert!(r < self.rows, "remove_row out of bounds");
        let start = r * self.cols;
        self.data.drain(start..start + self.cols);
        self.rows -= 1;
    }

    /// Removes column `c` in place.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn remove_col(&mut self, c: usize) {
        assert!(c < self.cols, "remove_col out of bounds");
        let mut data = Vec::with_capacity(self.rows * (self.cols - 1));
        for r in 0..self.rows {
            for cc in 0..self.cols {
                if cc != c {
                    data.push(self[(r, cc)].clone());
                }
            }
        }
        self.cols -= 1;
        self.data = data;
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    /// Swaps two columns in place.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for r in 0..self.rows {
            self.data.swap(r * self.cols + a, r * self.cols + b);
        }
    }

    /// Returns `true` if every element is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(Scalar::is_zero)
    }
}

impl IMatrix {
    /// Rank over the rationals.
    pub fn rank(&self) -> usize {
        crate::basis::rank(self)
    }

    /// Determinant via fraction-free Bareiss elimination.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or the determinant does not fit
    /// in `i64`; use [`crate::det::determinant`] or
    /// [`crate::det::determinant_big`] for fallible/exact variants.
    pub fn determinant(&self) -> i64 {
        crate::det::determinant(self).expect("determinant of non-square matrix")
    }

    /// Returns `true` if the matrix is square with non-zero determinant.
    ///
    /// Decided exactly: a determinant too large for `i64` is still
    /// recognized as non-zero.
    pub fn is_invertible(&self) -> bool {
        crate::det::determinant_big(self).is_ok_and(|d| !d.is_zero())
    }

    /// Returns `true` if the matrix is square with determinant `±1`.
    pub fn is_unimodular(&self) -> bool {
        crate::det::determinant_big(self).is_ok_and(|d| d.abs().to_i64() == Some(1))
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column-aligned plain text, convenient in test failure output.
        let strings: Vec<Vec<String>> = (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)].to_string()).collect())
            .collect();
        let widths: Vec<usize> = (0..self.cols)
            .map(|c| strings.iter().map(|row| row[c].len()).max().unwrap_or(0))
            .collect();
        for (i, row) in strings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "[")?;
            for (c, s) in row.iter().enumerate() {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{s:>w$}", w = widths[c])?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = IMatrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        let i3 = IMatrix::identity(3);
        assert_eq!(a.mul(&i3).unwrap(), a);
    }

    #[test]
    fn known_product() {
        let a = IMatrix::from_rows(&[&[1, 2], &[3, 4]]);
        let b = IMatrix::from_rows(&[&[5, 6], &[7, 8]]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c, IMatrix::from_rows(&[&[19, 22], &[43, 50]]));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = IMatrix::zero(2, 3);
        let b = IMatrix::zero(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(a.mul_vec(&[1, 2]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = IMatrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn row_col_selection() {
        let a = IMatrix::from_rows(&[&[1, 2], &[3, 4], &[5, 6]]);
        assert_eq!(
            a.select_rows(&[2, 0]),
            IMatrix::from_rows(&[&[5, 6], &[1, 2]])
        );
        assert_eq!(a.select_cols(&[1]), IMatrix::from_rows(&[&[2], &[4], &[6]]));
        assert_eq!(a.col(0), vec![1, 3, 5]);
    }

    #[test]
    fn stack_and_mutate() {
        let mut a = IMatrix::from_rows(&[&[1, 2]]);
        a.push_row(&[3, 4]);
        assert_eq!(a.rows(), 2);
        a.remove_row(0);
        assert_eq!(a, IMatrix::from_rows(&[&[3, 4]]));
        let b = IMatrix::from_rows(&[&[9, 9]]);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.rows(), 2);
        let mut c = IMatrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        c.remove_col(1);
        assert_eq!(c, IMatrix::from_rows(&[&[1, 3], &[4, 6]]));
    }

    #[test]
    fn display_is_nonempty() {
        let a = IMatrix::identity(2);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }
}
