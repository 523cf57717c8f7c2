//! Home-processor computation for distributed arrays, and the modular
//! and interval counting of the closed-form innermost count
//! ([`crate::plan::Plan::local_hits`]).

use crate::error::SimError;
use an_ir::{ArrayDecl, Distribution, IrError, Program};
use an_linalg::{div_ceil, div_floor, gcd, mod_floor};

/// Where an element lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// The element is local on every processor (replicated arrays).
    Everywhere,
    /// The element lives on one processor.
    Proc(usize),
}

impl Home {
    /// Is the element local to processor `p`?
    pub fn is_local_to(self, p: usize) -> bool {
        match self {
            Home::Everywhere => true,
            Home::Proc(q) => q == p,
        }
    }
}

/// The block size of a blocked distribution: `ceil(extent / P)`.
pub fn block_size(extent: i64, procs: usize) -> i64 {
    div_ceil(extent.max(1), procs as i64).max(1)
}

/// A near-square factorization `pr × pc = P` for 2-D block grids.
pub fn grid_shape(procs: usize) -> (usize, usize) {
    let mut pr = (procs as f64).sqrt() as usize;
    while pr > 1 && !procs.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr.max(1), procs / pr.max(1))
}

/// Computes the home of an element given its full index vector.
///
/// Out-of-range indices are clamped into the processor range (the
/// simulator traps genuine out-of-bounds earlier via the interpreter
/// path in tests; cost simulation stays total).
pub fn home_of(decl: &ArrayDecl, extents: &[i64], index: &[i64], procs: usize) -> Home {
    let p = procs as i64;
    match decl.distribution {
        Distribution::Replicated => Home::Everywhere,
        Distribution::Wrapped { dim } => Home::Proc(mod_floor(index[dim], p) as usize),
        Distribution::Blocked { dim } => {
            let s = block_size(extents[dim], procs);
            let h = div_floor(index[dim], s).clamp(0, p - 1);
            Home::Proc(h as usize)
        }
        Distribution::Block2D { row_dim, col_dim } => {
            let (pr, pc) = grid_shape(procs);
            let sr = block_size(extents[row_dim], pr);
            let sc = block_size(extents[col_dim], pc);
            let hr = div_floor(index[row_dim], sr).clamp(0, pr as i64 - 1);
            let hc = div_floor(index[col_dim], sc).clamp(0, pc as i64 - 1);
            Home::Proc((hr * pc as i64 + hc) as usize)
        }
    }
}

/// Checked variant of [`block_size`]: rejects an empty machine and
/// negative extents instead of clamping them away.
///
/// # Errors
///
/// [`SimError::NoProcessors`] when `procs == 0`, [`SimError::BadExtent`]
/// (with an empty array name) when `extent < 0`.
pub fn try_block_size(extent: i64, procs: usize) -> Result<i64, SimError> {
    if procs == 0 {
        return Err(SimError::NoProcessors);
    }
    if extent < 0 {
        return Err(SimError::BadExtent {
            array: String::new(),
            dim: 0,
            extent,
        });
    }
    Ok(block_size(extent, procs))
}

/// Checked variant of [`grid_shape`].
///
/// # Errors
///
/// [`SimError::NoProcessors`] when `procs == 0`.
pub fn try_grid_shape(procs: usize) -> Result<(usize, usize), SimError> {
    if procs == 0 {
        return Err(SimError::NoProcessors);
    }
    Ok(grid_shape(procs))
}

/// Checked variant of [`home_of`]: surfaces an empty machine or a
/// negative extent as an error before computing the home.
///
/// # Errors
///
/// [`SimError::NoProcessors`] when `procs == 0`, [`SimError::BadExtent`]
/// when any extent is negative.
pub fn try_home_of(
    decl: &ArrayDecl,
    extents: &[i64],
    index: &[i64],
    procs: usize,
) -> Result<Home, SimError> {
    if procs == 0 {
        return Err(SimError::NoProcessors);
    }
    if let Some((dim, &extent)) = extents.iter().enumerate().find(|&(_, &e)| e < 0) {
        return Err(SimError::BadExtent {
            array: decl.name.clone(),
            dim,
            extent,
        });
    }
    Ok(home_of(decl, extents, index, procs))
}

/// Evaluates every array extent of `program` at `params` and rejects any
/// negative size. Simulation entry points call this once up front so the
/// unchecked [`home_of`]/[`block_size`] fast paths stay total afterwards.
///
/// # Errors
///
/// [`SimError::ExtentOverflow`] for an extent that leaves `i64`, checked
/// before any is evaluated, and [`SimError::BadExtent`] for a negative
/// one; each names the first offending array dimension.
pub fn validate_extents(program: &Program, params: &[i64]) -> Result<Vec<Vec<i64>>, SimError> {
    if let Err(IrError::ExtentOverflow { array, dim }) = program.check_extents(params) {
        return Err(SimError::ExtentOverflow { array, dim });
    }
    let extents: Vec<Vec<i64>> = program.arrays.iter().map(|a| a.extents(params)).collect();
    for (decl, exts) in program.arrays.iter().zip(&extents) {
        if let Some((dim, &extent)) = exts.iter().enumerate().find(|&(_, &e)| e < 0) {
            return Err(SimError::BadExtent {
                array: decl.name.clone(),
                dim,
                extent,
            });
        }
    }
    Ok(extents)
}

/// Counts `w ∈ [lo, hi]` with `(a·w + c) mod P == p` — the number of
/// inner-loop iterations whose wrapped home is processor `p`.
#[inline]
pub fn count_wrapped_hits(lo: i64, hi: i64, a: i64, c: i64, procs: usize, p: usize) -> i64 {
    if lo > hi {
        return 0;
    }
    let pp = procs as i64;
    let target = p as i64;
    // Only residues matter: reduced mod P, the period scan's `a·w + c`
    // stays below P² however large the subscript's coefficients are.
    let (a, c) = (mod_floor(a, pp), mod_floor(c, pp));
    if a == 0 {
        return if c == target { hi - lo + 1 } else { 0 };
    }
    // a·w ≡ target − c (mod P): solvable iff g = gcd(a, P) divides rhs.
    let g = gcd(a, pp);
    let rhs = mod_floor(target - c, pp);
    if rhs % g != 0 {
        return 0;
    }
    // Solutions form w ≡ w0 (mod P/g). Find w0 by scanning one period
    // (P ≤ a few hundred, so this is cheap and robust).
    let period = pp / g;
    let mut w0 = None;
    for w in 0..period {
        if mod_floor(a * w + c, pp) == target {
            w0 = Some(w);
            break;
        }
    }
    let Some(w0) = w0 else { return 0 };
    // Count w in [lo, hi] with w ≡ w0 (mod period).
    let first = lo + mod_floor(w0 - lo, period);
    if first > hi {
        0
    } else {
        (hi - first) / period + 1
    }
}

/// How far from zero pricing lets a blocked coordinate go: the
/// [`block_interval`] sentinels. Validation (`plan::evaluate`) keeps
/// every blocked subscript, blocked extent and loop variable within
/// `±HEADROOM`, so every index lies inside the interval of the block
/// [`home_of`]'s clamp places it in, and the difference of any two such
/// values — an interval inversion, a trip count — stays inside `i64`.
pub const HEADROOM: i64 = i64::MAX / 4;

/// The index interval block `t` of `g` blocks of size `s` is home to,
/// open-ended at the edges exactly like [`home_of`]'s clamp (the
/// `i64::MIN / 4` / `i64::MAX / 4` sentinels leave headroom for the
/// affine arithmetic around them).
pub fn block_interval(t: i64, s: i64, g: i64) -> (i64, i64) {
    let lo = if t == 0 { i64::MIN / 4 } else { t * s };
    let hi = if t == g - 1 {
        i64::MAX / 4
    } else {
        (t + 1) * s - 1
    };
    (lo, hi)
}

/// The `w`-interval on which `a·w + c` lands in `[blo, bhi]`, for
/// `a != 0`.
pub fn invert_interval(a: i64, c: i64, blo: i64, bhi: i64) -> (i64, i64) {
    if a > 0 {
        (div_ceil(blo - c, a), div_floor(bhi - c, a))
    } else {
        (div_ceil(bhi - c, a), div_floor(blo - c, a))
    }
}

/// Counts `w ∈ [lo, hi]` with `a·w + c ∈ [blo, bhi]` — the number of
/// inner-loop iterations whose blocked home is a given block.
#[inline]
pub fn count_interval_hits(lo: i64, hi: i64, a: i64, c: i64, blo: i64, bhi: i64) -> i64 {
    if lo > hi || blo > bhi {
        return 0;
    }
    if a == 0 {
        return if c >= blo && c <= bhi { hi - lo + 1 } else { 0 };
    }
    let (wlo, whi) = invert_interval(a, c, blo, bhi);
    let s = wlo.max(lo);
    let e = whi.min(hi);
    (e - s + 1).max(0)
}

/// Counts `w ∈ [lo, hi]` whose Block2D home is processor `p`, for a
/// row subscript `row.0·w + row.1` and a column subscript `col.0·w +
/// col.1` over a `pr × pc` grid of `sr × sc` blocks: the intersection of
/// the two inverted block intervals.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn count_block2d(
    lo: i64,
    hi: i64,
    row: (i64, i64),
    col: (i64, i64),
    sr: i64,
    sc: i64,
    pr: usize,
    pc: usize,
    p: usize,
) -> i64 {
    if lo > hi {
        return 0;
    }
    let (tr, tc) = ((p / pc) as i64, (p % pc) as i64);
    let mut wlo = lo;
    let mut whi = hi;
    for ((a, c), (s, g, t)) in [row, col]
        .into_iter()
        .zip([(sr, pr as i64, tr), (sc, pc as i64, tc)])
    {
        let (blo, bhi) = block_interval(t, s, g);
        if a == 0 {
            if c < blo || c > bhi {
                return 0;
            }
        } else {
            let (ilo, ihi) = invert_interval(a, c, blo, bhi);
            wlo = wlo.max(ilo);
            whi = whi.min(ihi);
        }
    }
    (whi - wlo + 1).max(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_poly::{Affine, Space};

    fn decl(dist: Distribution) -> ArrayDecl {
        let s = Space::new(&[], &[]);
        ArrayDecl {
            name: "A".into(),
            dims: vec![Affine::constant(&s, 12), Affine::constant(&s, 12)],
            distribution: dist,
        }
    }

    #[test]
    fn wrapped_home() {
        let d = decl(Distribution::Wrapped { dim: 1 });
        let e = [12, 12];
        assert_eq!(home_of(&d, &e, &[3, 0], 4), Home::Proc(0));
        assert_eq!(home_of(&d, &e, &[3, 5], 4), Home::Proc(1));
        assert_eq!(home_of(&d, &e, &[3, -1], 4), Home::Proc(3));
    }

    #[test]
    fn blocked_home() {
        let d = decl(Distribution::Blocked { dim: 0 });
        let e = [12, 12];
        // Block size = 3 at P = 4.
        assert_eq!(home_of(&d, &e, &[0, 0], 4), Home::Proc(0));
        assert_eq!(home_of(&d, &e, &[3, 0], 4), Home::Proc(1));
        assert_eq!(home_of(&d, &e, &[11, 0], 4), Home::Proc(3));
    }

    #[test]
    fn block2d_home() {
        let d = decl(Distribution::Block2D {
            row_dim: 0,
            col_dim: 1,
        });
        let e = [12, 12];
        // P = 4 -> 2x2 grid, 6x6 blocks.
        assert_eq!(home_of(&d, &e, &[0, 0], 4), Home::Proc(0));
        assert_eq!(home_of(&d, &e, &[0, 6], 4), Home::Proc(1));
        assert_eq!(home_of(&d, &e, &[6, 0], 4), Home::Proc(2));
        assert_eq!(home_of(&d, &e, &[7, 9], 4), Home::Proc(3));
    }

    #[test]
    fn replicated_is_everywhere() {
        let d = decl(Distribution::Replicated);
        assert!(home_of(&d, &[12, 12], &[5, 5], 4).is_local_to(3));
    }

    #[test]
    fn wrapped_hit_counting_matches_enumeration() {
        for a in [-3i64, -1, 0, 1, 2, 4, 6] {
            for c in [-5i64, 0, 3] {
                for procs in [1usize, 2, 3, 4, 7] {
                    for p in 0..procs {
                        let fast = count_wrapped_hits(-4, 17, a, c, procs, p);
                        let slow = (-4..=17)
                            .filter(|&w| mod_floor(a * w + c, procs as i64) == p as i64)
                            .count() as i64;
                        assert_eq!(fast, slow, "a={a} c={c} P={procs} p={p}");
                    }
                }
            }
        }
    }

    #[test]
    fn wrapped_hit_counting_survives_coefficients_near_i64_max() {
        // `a·w + c` over one period would leave i64 unreduced.
        let (a, c) = (4_000_000_000_000_000_001i64, -(i64::MAX / 2));
        for procs in [3usize, 4, 5, 8] {
            for p in 0..procs {
                let slow = (-3i128..=9)
                    .filter(|&w| (a as i128 * w + c as i128).rem_euclid(procs as i128) == p as i128)
                    .count() as i64;
                assert_eq!(
                    count_wrapped_hits(-3, 9, a, c, procs, p),
                    slow,
                    "P={procs} p={p}"
                );
            }
        }
    }

    #[test]
    fn interval_hit_counting_matches_enumeration() {
        for a in [-3i64, -1, 0, 2, 5] {
            for c in [-2i64, 0, 7] {
                let fast = count_interval_hits(-3, 14, a, c, 4, 20);
                let slow = (-3..=14)
                    .filter(|&w| {
                        let v = a * w + c;
                        (4..=20).contains(&v)
                    })
                    .count() as i64;
                assert_eq!(fast, slow, "a={a} c={c}");
            }
        }
    }

    #[test]
    fn block2d_count_matches_brute_force() {
        for procs in [1usize, 2, 4, 6, 8] {
            let (pr, pc) = grid_shape(procs);
            for sr in [1i64, 3, 5] {
                for sc in [2i64, 4] {
                    for ar in [-2i64, 0, 1, 3] {
                        for ac in [-1i64, 0, 2] {
                            for cr in [-4i64, 0, 7] {
                                for cc in [-3i64, 1] {
                                    for p in 0..procs {
                                        let fast = count_block2d(
                                            -5,
                                            23,
                                            (ar, cr),
                                            (ac, cc),
                                            sr,
                                            sc,
                                            pr,
                                            pc,
                                            p,
                                        );
                                        let slow = (-5i64..=23)
                                            .filter(|&w| {
                                                let ir = ar * w + cr;
                                                let ic = ac * w + cc;
                                                let hr = div_floor(ir, sr).clamp(0, pr as i64 - 1);
                                                let hc = div_floor(ic, sc).clamp(0, pc as i64 - 1);
                                                (hr * pc as i64 + hc) as usize == p
                                            })
                                            .count()
                                            as i64;
                                        assert_eq!(
                                            fast, slow,
                                            "P={procs} sr={sr} sc={sc} ar={ar} ac={ac} cr={cr} cc={cc} p={p}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_shapes() {
        assert_eq!(grid_shape(1), (1, 1));
        assert_eq!(grid_shape(4), (2, 2));
        assert_eq!(grid_shape(6), (2, 3));
        assert_eq!(grid_shape(7), (1, 7));
        assert_eq!(grid_shape(16), (4, 4));
    }

    #[test]
    fn checked_variants_reject_zero_procs() {
        assert_eq!(try_block_size(12, 0), Err(SimError::NoProcessors));
        assert_eq!(try_grid_shape(0), Err(SimError::NoProcessors));
        let d = decl(Distribution::Wrapped { dim: 0 });
        assert_eq!(
            try_home_of(&d, &[12, 12], &[0, 0], 0),
            Err(SimError::NoProcessors)
        );
    }

    #[test]
    fn checked_variants_reject_negative_extents() {
        assert_eq!(
            try_block_size(-3, 4),
            Err(SimError::BadExtent {
                array: String::new(),
                dim: 0,
                extent: -3,
            })
        );
        let d = decl(Distribution::Blocked { dim: 1 });
        assert_eq!(
            try_home_of(&d, &[12, -7], &[0, 0], 4),
            Err(SimError::BadExtent {
                array: "A".into(),
                dim: 1,
                extent: -7,
            })
        );
    }

    #[test]
    fn checked_variants_agree_with_unchecked_on_valid_input() {
        assert_eq!(try_block_size(12, 4).unwrap(), block_size(12, 4));
        assert_eq!(try_grid_shape(6).unwrap(), grid_shape(6));
        let d = decl(Distribution::Block2D {
            row_dim: 0,
            col_dim: 1,
        });
        assert_eq!(
            try_home_of(&d, &[12, 12], &[7, 9], 4).unwrap(),
            home_of(&d, &[12, 12], &[7, 9], 4)
        );
    }

    #[test]
    fn validate_extents_names_the_offending_array() {
        use an_ir::build::NestBuilder;
        // A[N] with N = -2 at the bound parameters.
        let mut b = NestBuilder::new(&["i"], &[("N", -2)]);
        let a = b.array("A", &[b.par(0)], Distribution::Wrapped { dim: 0 });
        b.bounds(0, b.cst(0), b.cst(0));
        let lhs = b.access(a, &[b.var(0)]);
        b.assign(lhs, an_ir::Expr::lit(1.0));
        let p = b.finish();
        assert_eq!(
            validate_extents(&p, &[-2]),
            Err(SimError::BadExtent {
                array: "A".into(),
                dim: 0,
                extent: -2,
            })
        );
        assert_eq!(validate_extents(&p, &[3]).unwrap(), vec![vec![3]]);
    }
}
