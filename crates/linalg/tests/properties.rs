//! Property-based tests for the exact linear-algebra substrate.

use an_linalg::bigint::{to_big, BigInt};
use an_linalg::det::{adjugate_exact, determinant_exact};
use an_linalg::hnf::column_hnf;
use an_linalg::lattice::Lattice;
use an_linalg::solve::{integer_kernel, solve_integer};
use an_linalg::{basis, IMatrix};
use proptest::prelude::*;

/// Strategy: a small integer matrix with entries in [-6, 6].
fn small_matrix(max_dim: usize) -> impl Strategy<Value = IMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-6i64..=6, r * c)
            .prop_map(move |data| IMatrix::from_vec(r, c, data))
    })
}

/// Strategy: a small square matrix.
fn square_matrix(max_dim: usize) -> impl Strategy<Value = IMatrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-6i64..=6, n * n)
            .prop_map(move |data| IMatrix::from_vec(n, n, data))
    })
}

/// Strategy: a small square *invertible* matrix (filtered).
fn invertible_matrix(max_dim: usize) -> impl Strategy<Value = IMatrix> {
    square_matrix(max_dim).prop_filter("invertible", |m| m.determinant() != 0)
}

proptest! {
    #[test]
    fn column_hnf_postconditions(a in small_matrix(4)) {
        let r = column_hnf(&a).unwrap();
        // H = A·U with unimodular U.
        prop_assert_eq!(a.mul(&r.u).unwrap(), r.h.clone());
        prop_assert!(r.u.is_unimodular());
        // Echelon shape with positive, canonical pivots.
        let mut last = None;
        for &(row, col) in &r.pivots {
            prop_assert!(r.h.get(row, col) > 0);
            if let Some((lr, lc)) = last {
                prop_assert!(row > lr && col > lc);
            }
            last = Some((row, col));
            for rr in 0..row {
                prop_assert_eq!(r.h.get(rr, col), 0);
            }
            for j in 0..col {
                prop_assert!(r.h.get(row, j) >= 0 && r.h.get(row, j) < r.h.get(row, col));
            }
        }
        // Rank agrees with Gaussian rank.
        prop_assert_eq!(r.rank(), a.rank());
    }

    #[test]
    fn determinant_multiplicative(a in square_matrix(3), b in square_matrix(3)) {
        prop_assume!(a.rows() == b.rows());
        let da = a.determinant();
        let db = b.determinant();
        let dab = a.mul(&b).unwrap().determinant();
        prop_assert_eq!(dab, da * db);
    }

    #[test]
    fn determinant_transpose_invariant(a in square_matrix(4)) {
        prop_assert_eq!(a.determinant(), a.transpose().determinant());
    }

    #[test]
    fn first_row_basis_properties(a in small_matrix(4)) {
        let sel = basis::first_row_basis(&a);
        // Kept + discarded partition the rows.
        let mut all: Vec<usize> = sel.kept.iter().chain(&sel.discarded).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..a.rows()).collect::<Vec<_>>());
        // The kept rows are independent: rank equals count.
        let b = sel.basis_matrix(&a);
        prop_assert_eq!(b.rank(), sel.rank());
        // Prefix-maximality: each discarded row is dependent on kept rows
        // *before* it (adding it to those rows does not raise the rank).
        for &d in &sel.discarded {
            let before: Vec<usize> = sel.kept.iter().copied().filter(|&k| k < d).collect();
            let mut m = a.select_rows(&before);
            m.push_row(a.row(d));
            prop_assert_eq!(m.rank(), before.len());
        }
    }

    #[test]
    fn integer_solve_solves(a in small_matrix(4), x in proptest::collection::vec(-5i64..=5, 1..=4)) {
        prop_assume!(x.len() == a.cols());
        // Construct a consistent rhs, solve, and verify.
        let b = a.mul_vec(&x).unwrap();
        let s = solve_integer(&a, &b).unwrap();
        prop_assert_eq!(a.mul_vec(&s.particular).unwrap(), b);
        for k in &s.kernel {
            prop_assert_eq!(a.mul_vec(k).unwrap(), vec![0; a.rows()]);
        }
        // Kernel dimension = cols - rank.
        prop_assert_eq!(s.kernel.len(), a.cols() - a.rank());
    }

    #[test]
    fn kernel_vectors_annihilate(a in small_matrix(4)) {
        for k in integer_kernel(&a).unwrap() {
            prop_assert_eq!(a.mul_vec(&k).unwrap(), vec![0; a.rows()]);
        }
    }

    #[test]
    fn lattice_contains_exactly_images(t in invertible_matrix(3), p in proptest::collection::vec(-10i64..=10, 1..=3)) {
        prop_assume!(p.len() == t.rows());
        let l = Lattice::from_transform(&t).unwrap();
        // p is on the lattice iff T⁻¹·p = adj(T)·p / det(T) is integral —
        // an oracle that never touches the HNF the lattice is built from.
        let tb = to_big(&t);
        let det = determinant_exact(&tb).unwrap();
        let pb: Vec<BigInt> = p.iter().map(|&v| BigInt::from(v)).collect();
        let pre = adjugate_exact(&tb).unwrap().mul_vec(&pb).unwrap();
        let integral = pre.iter().all(|v| v.div_rem(&det).1.is_zero());
        prop_assert_eq!(l.contains(&p), integral);
        if let Some(c) = l.coordinates(&p) {
            prop_assert_eq!(l.point(&c), p);
        }
        prop_assert_eq!(l.index(), t.determinant().abs());
    }

    #[test]
    fn singular_matrices_fail_closed(m in square_matrix(4), scale in -3i64..=3) {
        // Force singularity: replace the last row with a multiple of the
        // first (or zero it for 1x1).
        let mut a = m;
        let last = a.rows() - 1;
        let first: Vec<i64> = a.row(0).to_vec();
        for (c, &f) in first.iter().enumerate() {
            let v = if last == 0 { 0 } else { scale * f };
            a.set(last, c, v);
        }
        prop_assert_eq!(a.determinant(), 0);
        prop_assert!(Lattice::from_transform(&a).is_err());
        prop_assert!(!a.is_invertible());
    }

    #[test]
    fn extended_gcd_bezout(a in -1000i64..1000, b in -1000i64..1000) {
        let (g, x, y) = an_linalg::extended_gcd(a, b);
        prop_assert_eq!(g, an_linalg::gcd(a, b));
        prop_assert_eq!(a * x + b * y, g);
    }

    #[test]
    fn div_floor_ceil_consistency(a in -10_000i64..10_000, b in prop_oneof![-100i64..=-1, 1i64..=100]) {
        let f = an_linalg::div_floor(a, b);
        let c = an_linalg::div_ceil(a, b);
        prop_assert!(f * b <= a || b < 0 && f * b >= a);
        prop_assert!(c >= f);
        prop_assert!(c - f <= 1);
        if a % b == 0 {
            prop_assert_eq!(f, c);
        }
    }
}
