//! Arbitrary-precision signed integers — the overflow-proof fallback
//! ring behind the `i64` fast paths.
//!
//! The compiler's algebra (HNF reduction, Bareiss determinants, the
//! `LegalInvt` projection) is exact over ℤ, but the working
//! representation is `i64`. Adversarially large subscript coefficients
//! can push intermediates past 64 (or even 128) bits; when the checked
//! fast path detects that, the algorithm is re-run over [`BigInt`] and
//! the result narrowed back, so only a *final* value that genuinely does
//! not fit in `i64` surfaces as [`LinalgError::Overflow`].
//!
//! This is an in-tree, dependency-free implementation (the workspace
//! builds with no network access — see the vendored `proptest` shim for
//! the same pattern): sign-magnitude with little-endian `u64` limbs,
//! schoolbook multiplication and binary long division. Matrix dimensions
//! here are loop-nest depths, so clarity beats asymptotics.

use crate::matrix::{Matrix, Scalar};
use crate::{IMatrix, LinalgError};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An arbitrary-precision signed integer.
///
/// Invariants: `mag` has no trailing zero limbs, and zero is represented
/// as an empty `mag` with `neg == false`.
///
/// ```
/// use an_linalg::bigint::BigInt;
/// let a = BigInt::from(i64::MAX);
/// let sq = a.clone() * a.clone();
/// assert_eq!(sq.to_string(), "85070591730234615847396907784232501249");
/// assert_eq!(sq.to_i64(), None);
/// assert_eq!((a.clone() - a).to_i64(), Some(0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    neg: bool,
    mag: Vec<u64>,
}

fn trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x.cmp(y);
        }
    }
    Ordering::Equal
}

fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &l) in long.iter().enumerate() {
        let s = l as u128 + *short.get(i).unwrap_or(&0) as u128 + carry as u128;
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`, requiring `a >= b` in magnitude.
fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &av) in a.iter().enumerate() {
        let bi = *b.get(i).unwrap_or(&0) as u128 + borrow as u128;
        let ai = av as u128;
        if ai >= bi {
            out.push((ai - bi) as u64);
            borrow = 0;
        } else {
            out.push((ai + (1u128 << 64) - bi) as u64);
            borrow = 1;
        }
    }
    trim(&mut out);
    out
}

fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

fn bit(mag: &[u64], i: usize) -> bool {
    mag[i / 64] >> (i % 64) & 1 == 1
}

/// Binary long division on magnitudes: `(quotient, remainder)`.
fn div_rem_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero");
    if cmp_mag(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    if b.len() == 1 {
        // Short division, one limb at a time.
        let d = b[0] as u128;
        let mut q = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        trim(&mut q);
        let mut r = vec![rem as u64];
        trim(&mut r);
        return (q, r);
    }
    let bits = a.len() * 64;
    let mut q = vec![0u64; a.len()];
    let mut r: Vec<u64> = Vec::new();
    for i in (0..bits).rev() {
        // r = r*2 + bit_i(a)
        let mut carry = u64::from(bit(a, i));
        for limb in r.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
        if carry != 0 {
            r.push(carry);
        }
        if cmp_mag(&r, b) != Ordering::Less {
            r = sub_mag(&r, b);
            q[i / 64] |= 1 << (i % 64);
        }
    }
    trim(&mut q);
    (q, r)
}

impl BigInt {
    /// The zero value.
    pub fn zero() -> BigInt {
        BigInt {
            neg: false,
            mag: Vec::new(),
        }
    }

    /// The one value.
    pub fn one() -> BigInt {
        BigInt {
            neg: false,
            mag: vec![1],
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// The sign: `-1`, `0` or `1`.
    pub fn signum(&self) -> i64 {
        if self.mag.is_empty() {
            0
        } else if self.neg {
            -1
        } else {
            1
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt {
            neg: false,
            mag: self.mag.clone(),
        }
    }

    /// Converts back to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        i64::try_from(self.to_i128()?).ok()
    }

    /// Converts back to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        match self.mag.len() {
            0 => Some(0),
            1 => Some(if self.neg {
                -(self.mag[0] as i128)
            } else {
                self.mag[0] as i128
            }),
            2 => {
                let m = (self.mag[1] as u128) << 64 | self.mag[0] as u128;
                if self.neg {
                    (m <= 1u128 << 127).then(|| (m as i128).wrapping_neg())
                } else {
                    i128::try_from(m).ok()
                }
            }
            _ => None,
        }
    }

    /// Truncating division with remainder: `self = q*rhs + r`, with `r`
    /// taking the sign of `self` (like Rust's `/` and `%`).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &BigInt) -> (BigInt, BigInt) {
        let (qm, rm) = div_rem_mag(&self.mag, &rhs.mag);
        let q = BigInt {
            neg: (self.neg != rhs.neg) && !qm.is_empty(),
            mag: qm,
        };
        let r = BigInt {
            neg: self.neg && !rm.is_empty(),
            mag: rm,
        };
        (q, r)
    }

    /// Floor division (rounds toward negative infinity), matching
    /// [`crate::div_floor`] on `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_floor(&self, rhs: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(rhs);
        if !r.is_zero() && (self.neg != rhs.neg) {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Exact division: `self / rhs` when the remainder is known to be
    /// zero (the Bareiss invariant).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero; debug-asserts exactness.
    pub fn exact_div(&self, rhs: &BigInt) -> BigInt {
        let (q, r) = self.div_rem(rhs);
        debug_assert!(r.is_zero(), "exact_div with non-zero remainder");
        q
    }

    /// Greatest common divisor; always non-negative.
    pub fn gcd(&self, rhs: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = rhs.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1.abs();
            a = b;
            b = r;
        }
        a
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> BigInt {
        BigInt::from(v as i128)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        let neg = v < 0;
        let m = v.unsigned_abs();
        let mut mag = vec![m as u64, (m >> 64) as u64];
        trim(&mut mag);
        BigInt {
            neg: neg && !mag.is_empty(),
            mag,
        }
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => cmp_mag(&self.mag, &other.mag),
            (true, true) => cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, rhs: BigInt) -> BigInt {
        if self.neg == rhs.neg {
            BigInt {
                neg: self.neg,
                mag: add_mag(&self.mag, &rhs.mag),
            }
        } else {
            match cmp_mag(&self.mag, &rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt {
                    neg: self.neg,
                    mag: sub_mag(&self.mag, &rhs.mag),
                },
                Ordering::Less => BigInt {
                    neg: rhs.neg,
                    mag: sub_mag(&rhs.mag, &self.mag),
                },
            }
        }
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, rhs: BigInt) -> BigInt {
        self + (-rhs)
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, rhs: BigInt) -> BigInt {
        let mag = mul_mag(&self.mag, &rhs.mag);
        BigInt {
            neg: (self.neg != rhs.neg) && !mag.is_empty(),
            mag,
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        let neg = !self.neg && !self.mag.is_empty();
        BigInt { neg, mag: self.mag }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mag.is_empty() {
            return write!(f, "0");
        }
        // Peel 19-digit chunks (the largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = self.mag.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let mut rem = 0u128;
            for limb in mag.iter_mut().rev() {
                let cur = (rem << 64) | *limb as u128;
                *limb = (cur / CHUNK as u128) as u64;
                rem = cur % CHUNK as u128;
            }
            trim(&mut mag);
            chunks.push(rem as u64);
        }
        if self.neg {
            write!(f, "-")?;
        }
        write!(f, "{}", chunks.last().unwrap())?;
        for c in chunks.iter().rev().skip(1) {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl Scalar for BigInt {
    fn zero() -> BigInt {
        BigInt::zero()
    }
    fn one() -> BigInt {
        BigInt::one()
    }
    fn is_zero(&self) -> bool {
        BigInt::is_zero(self)
    }
    fn try_div_floor(&self, rhs: &BigInt) -> Option<BigInt> {
        Some(self.div_floor(rhs))
    }
    fn try_neg(&self) -> Option<BigInt> {
        Some(-self.clone())
    }
    fn abs_cmp(&self, other: &BigInt) -> Ordering {
        cmp_mag(&self.mag, &other.mag)
    }
}

/// Arbitrary-precision matrix, the promoted form of an [`IMatrix`].
pub type BMatrix = Matrix<BigInt>;

/// Widens an integer matrix to arbitrary precision.
pub fn to_big(m: &IMatrix) -> BMatrix {
    let mut out = BMatrix::zero(m.rows(), m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out[(r, c)] = BigInt::from(m[(r, c)]);
        }
    }
    out
}

/// Narrows an arbitrary-precision matrix back to `i64`.
///
/// # Errors
///
/// Returns [`LinalgError::Overflow`] if any entry does not fit.
pub fn narrow(m: &BMatrix) -> Result<IMatrix, LinalgError> {
    let mut out = IMatrix::zero(m.rows(), m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out[(r, c)] = m[(r, c)].to_i64().ok_or(LinalgError::Overflow)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn round_trips_i64_and_i128() {
        for v in [
            0i128,
            1,
            -1,
            42,
            i64::MAX as i128,
            i64::MIN as i128,
            i128::MAX,
            i128::MIN,
            (i64::MAX as i128) + 1,
        ] {
            let b = big(v);
            assert_eq!(b.to_i128(), Some(v), "{v}");
            assert_eq!(b.to_i64(), i64::try_from(v).ok(), "{v}");
            assert_eq!(b.to_string(), v.to_string());
        }
    }

    #[test]
    fn arithmetic_matches_i128() {
        let vals = [
            0i128,
            1,
            -1,
            7,
            -13,
            i64::MAX as i128,
            i64::MIN as i128,
            1 << 100,
            -(1 << 90) + 3,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!((big(a) + big(b)).to_i128(), a.checked_add(b), "{a}+{b}");
                assert_eq!((big(a) - big(b)).to_i128(), a.checked_sub(b), "{a}-{b}");
                if let Some(p) = a.checked_mul(b) {
                    assert_eq!((big(a) * big(b)).to_i128(), Some(p), "{a}*{b}");
                }
                assert_eq!(big(a).cmp(&big(b)), a.cmp(&b), "cmp {a} {b}");
                if b != 0 {
                    let (q, r) = big(a).div_rem(&big(b));
                    assert_eq!(q.to_i128(), Some(a / b), "{a}/{b}");
                    assert_eq!(r.to_i128(), Some(a % b), "{a}%{b}");
                }
            }
        }
    }

    #[test]
    fn div_floor_matches_i64_semantics() {
        for a in [-20i64, -7, -1, 0, 1, 7, 20] {
            for b in [-7i64, -2, -1, 1, 2, 7] {
                assert_eq!(
                    big(a as i128).div_floor(&big(b as i128)).to_i64(),
                    Some(crate::div_floor(a, b)),
                    "div_floor({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn wide_division() {
        // (2^200 + 17) / 2^100 exercises the multi-limb long division.
        let two100 = big(1 << 100) * big(1 << 100);
        let a = two100.clone() * big(1 << 100).clone() + big(17);
        let (q, r) = a.div_rem(&big(1 << 100));
        assert_eq!(q, two100);
        assert_eq!(r, big(17));
    }

    #[test]
    fn gcd_and_exact_div() {
        assert_eq!(big(12).gcd(&big(-18)), big(6));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        let a = big(i64::MAX as i128) * big(6);
        assert_eq!(
            a.gcd(&(big(i64::MAX as i128) * big(4))),
            big(i64::MAX as i128) * big(2)
        );
        assert_eq!(a.exact_div(&big(6)), big(i64::MAX as i128));
    }

    #[test]
    fn negation_and_zero_canonical_form() {
        assert_eq!(-big(0), big(0));
        assert!(!(-big(0)).neg);
        assert_eq!((big(5) - big(5)).signum(), 0);
        assert_eq!(big(-5).abs(), big(5));
    }

    #[test]
    fn matrix_over_bigint() {
        let m = to_big(&IMatrix::from_rows(&[&[i64::MAX, 1], &[1, i64::MAX]]));
        let sq = m.mul(&m).unwrap();
        // Top-left entry is i64::MAX² + 1: narrows must fail.
        assert!(narrow(&sq).is_err());
        assert_eq!(narrow(&m).unwrap()[(0, 0)], i64::MAX);
    }
}
