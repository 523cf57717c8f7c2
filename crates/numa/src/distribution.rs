//! Home-processor computation for distributed arrays, and the modular
//! and interval counting of the closed-form innermost count
//! ([`crate::plan::Plan::local_hits`]).

use crate::error::SimError;
use an_ir::{ArrayDecl, Distribution, IrError, Program};
use an_linalg::{div_ceil, div_floor, extended_gcd, gcd, mod_floor};

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
    home(decl, extents, procs, |d| index[d])
}

/// [`home_of`] of the index that is `value` along dimension `dim` and
/// zero everywhere else, without building that index: the ownership and
/// transfer checks of the pricing walk.
#[inline]
pub fn home_along(decl: &ArrayDecl, extents: &[i64], dim: usize, value: i64, procs: usize) -> Home {
    home(decl, extents, procs, |d| if d == dim { value } else { 0 })
}

/// The one home computation: the distribution function of `decl` at
/// the index whose dimension `d` is `coord(d)`.
#[inline]
fn home(decl: &ArrayDecl, extents: &[i64], procs: usize, coord: impl Fn(usize) -> i64) -> Home {
    let p = procs as i64;
    match decl.distribution {
        Distribution::Replicated => Home::Everywhere,
        Distribution::Wrapped { dim } => Home::Proc(mod_floor(coord(dim), p) as usize),
        Distribution::Blocked { dim } => {
            let s = block_size(extents[dim], procs);
            let h = div_floor(coord(dim), s).clamp(0, p - 1);
            Home::Proc(h as usize)
        }
        Distribution::Block2D { row_dim, col_dim } => {
            let (pr, pc) = grid_shape(procs);
            let sr = block_size(extents[row_dim], pr);
            let sc = block_size(extents[col_dim], pc);
            let hr = div_floor(coord(row_dim), sr).clamp(0, pr as i64 - 1);
            let hc = div_floor(coord(col_dim), sc).clamp(0, pc as i64 - 1);
            Home::Proc((hr * pc as i64 + hc) as usize)
        }
    }
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

/// The congruence `a·w + c ≡ p (mod P)` of one wrapped access, solved
/// for `w` once per plan: `a` is the access's innermost coefficient, so
/// only `c` (the rest of the subscript) and the target `p` vary from one
/// innermost loop to the next.
///
/// With `g = gcd(a mod P, P)` the congruence is solvable iff `g` divides
/// `p − c`, and then its solutions are `w ≡ (p − c)/g · inv (mod P/g)`,
/// `inv` the inverse of `a/g` modulo the period `P/g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidueSolver {
    /// Processor count `P`.
    procs: i64,
    /// `a mod P`.
    a: i64,
    /// `gcd(a mod P, P)` (`P` when `a ≡ 0`).
    g: i64,
    /// `P / g`: the spacing of consecutive solutions.
    period: i64,
    /// The inverse of `a/g` modulo `period` (0 when the period is 1).
    inv: i64,
}

impl ResidueSolver {
    /// Precomputes the solver for innermost coefficient `a` on `procs`
    /// processors.
    pub fn new(a: i64, procs: usize) -> ResidueSolver {
        let pp = procs as i64;
        let a = mod_floor(a, pp);
        let g = gcd(a, pp);
        let period = pp / g;
        // (a/g)·x ≡ 1 (mod period): `a/g` and `period` are coprime.
        let (_, x, _) = extended_gcd(a / g, period);
        ResidueSolver {
            procs: pp,
            a,
            g,
            period,
            inv: mod_floor(x, period),
        }
    }

    /// The solutions of `a·w + c ≡ p (mod P)`: `Some((w0, q))` when they
    /// are exactly the `w ≡ w0 (mod q)` (`q = 1` when every `w` is one),
    /// `None` when there are none. [`ResidueSolver::count`] is the same
    /// congruence counted over one interval.
    fn solutions(&self, c: i64, p: usize) -> Option<(i64, i64)> {
        let mut rhs = p as i64 - mod_floor(c, self.procs);
        if rhs < 0 {
            rhs += self.procs;
        }
        if self.a == 0 {
            return (rhs == 0).then_some((0, 1));
        }
        if rhs % self.g != 0 {
            return None;
        }
        let w0 = (rhs / self.g) as i128 * self.inv as i128 % self.period as i128;
        Some((w0 as i64, self.period))
    }

    /// This congruence with a second variable `v` moving its constant,
    /// `a·w + σ·v + τ ≡ p (mod P)`, its part that does not depend on `τ`
    /// or `p` solved once ([`AlongSolver::solutions`]).
    pub(crate) fn along(self, sigma: i64) -> AlongSolver {
        AlongSolver {
            w: self,
            // Solvable iff g | p − σ·v − τ: a congruence in `v` modulo g.
            v: ResidueSolver::new(sigma, self.g as usize),
            sigma,
        }
    }

    /// Counts `w ∈ [lo, hi]` with `(a·w + c) mod P == p` — the number of
    /// inner-loop iterations whose wrapped home is processor `p`.
    #[inline]
    pub fn count(&self, lo: i64, hi: i64, c: i64, p: usize) -> i64 {
        if lo > hi {
            return 0;
        }
        let (pp, target) = (self.procs, p as i64);
        if self.a == 0 {
            return if mod_floor(c, pp) == target {
                hi - lo + 1
            } else {
                0
            };
        }
        // How far the first solution lies above `lo`.
        let skip = if self.a == 1 {
            // w ≡ p − c (mod P): no reduction of `c`, no inverse.
            match target.checked_sub(c).and_then(|d| d.checked_sub(lo)) {
                Some(d) => mod_floor(d, pp),
                None => (target as i128 - c as i128 - lo as i128).rem_euclid(pp as i128) as i64,
            }
        } else {
            let mut rhs = target - mod_floor(c, pp);
            if rhs < 0 {
                rhs += pp;
            }
            if rhs % self.g != 0 {
                return 0;
            }
            let q = rhs / self.g;
            let w0 = match q.checked_mul(self.inv) {
                Some(v) => v % self.period,
                None => (q as i128 * self.inv as i128 % self.period as i128) as i64,
            };
            mod_floor(w0 - lo, self.period)
        };
        let first = lo + skip;
        if first > hi {
            0
        } else {
            (hi - first) / self.period + 1
        }
    }
}

/// A wrapped congruence `a·w + σ·v + τ ≡ p (mod P)` along a second
/// variable `v` ([`ResidueSolver::along`]). The closed-form level sum
/// counts a wrapped access whose subscript moves with the summed
/// variable `v` with it; `σ` and the solvers are fixed per plan, `τ`
/// changes with every iteration prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AlongSolver {
    /// The congruence in `w`.
    w: ResidueSolver,
    /// The congruence in `v` modulo `g` that makes it solvable.
    v: ResidueSolver,
    sigma: i64,
}

impl AlongSolver {
    /// The solutions as `v` moves: there are some exactly when
    /// `v ≡ start (mod step)`, and then they are the
    /// `w ≡ w0 + dw·(v − start)/step (mod period)`. `None` when no `v`
    /// has any.
    pub(crate) fn solutions(&self, tau: i64, p: usize) -> Option<Along> {
        let w = &self.w;
        let (start, step) = self.v.solutions(tau, p % w.g as usize)?;
        let c_at = |v: i64| {
            (self.sigma as i128 * v as i128 + tau as i128).rem_euclid(w.procs as i128) as i64
        };
        let solved = |v: i64| w.solutions(c_at(v), p).map(|(w0, _)| w0);
        let w0 = solved(start)?;
        let w1 = solved(start + step)?;
        Some(Along {
            start,
            step,
            w0,
            dw: (w1 - w0).rem_euclid(w.period),
            period: w.period,
        })
    }
}

/// The solutions of a wrapped congruence along a second variable `v`
/// ([`AlongSolver::solutions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Along {
    /// The first `v ≥ 0` with solutions.
    pub(crate) start: i64,
    /// The spacing of the `v` with solutions.
    pub(crate) step: i64,
    /// The solution class of `w` at `v = start`.
    pub(crate) w0: i64,
    /// How far the solution class moves per `step` of `v`.
    pub(crate) dw: i64,
    /// The spacing of the solutions in `w`.
    pub(crate) period: i64,
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

    /// Brute force for [`ResidueSolver::count`], in `i128` so that
    /// `a·w + c` cannot leave the range it is reduced in.
    fn wrapped_hits_by_enumeration(
        lo: i64,
        hi: i64,
        a: i64,
        c: i64,
        procs: usize,
        p: usize,
    ) -> i64 {
        (lo..=hi)
            .filter(|&w| (a as i128 * w as i128 + c as i128).rem_euclid(procs as i128) == p as i128)
            .count() as i64
    }

    #[test]
    fn residue_solver_matches_enumeration() {
        for procs in 1usize..=16 {
            for a in [-3i64, -1, 0, 1, 2, 4, 6, 12, 17] {
                let solver = ResidueSolver::new(a, procs);
                for c in [-5i64, 0, 3, 11] {
                    for p in 0..procs {
                        assert_eq!(
                            solver.count(-4, 17, c, p),
                            wrapped_hits_by_enumeration(-4, 17, a, c, procs, p),
                            "a={a} c={c} P={procs} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn residue_solutions_are_the_counted_congruence() {
        for procs in 1usize..=12 {
            for a in [-6i64, -1, 0, 1, 2, 3, 4, 9, 12] {
                let solver = ResidueSolver::new(a, procs);
                for c in -13i64..=13 {
                    for p in 0..procs {
                        let hits = |w: i64| {
                            (a as i128 * w as i128 + c as i128).rem_euclid(procs as i128)
                                == p as i128
                        };
                        match solver.solutions(c, p) {
                            None => assert!(!(-30..30).any(hits), "a={a} c={c} P={procs} p={p}"),
                            Some((w0, q)) => {
                                assert!((0..q).contains(&w0) && q >= 1);
                                for w in -30i64..30 {
                                    assert_eq!(hits(w), mod_floor(w - w0, q) == 0);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn solutions_along_a_second_variable_match_enumeration() {
        for procs in 1usize..=12 {
            for a in [-4i64, 0, 1, 2, 3, 6, 8] {
                let solver = ResidueSolver::new(a, procs);
                for sigma in [-3i64, -1, 0, 1, 2, 4, 6] {
                    for tau in [-7i64, 0, 5] {
                        for p in 0..procs {
                            let along = solver.along(sigma).solutions(tau, p);
                            for v in -15i64..15 {
                                let c = sigma * v + tau;
                                let at = format!("a={a} σ={sigma} τ={tau} P={procs} p={p} v={v}");
                                let hits =
                                    |w: i64| (a * w + c).rem_euclid(procs as i64) == p as i64;
                                let Some(al) =
                                    along.filter(|al| (v - al.start).rem_euclid(al.step) == 0)
                                else {
                                    assert!(!(-20..20).any(hits), "{at}");
                                    continue;
                                };
                                let k = al.w0 + al.dw * (v - al.start).div_euclid(al.step);
                                for w in -20i64..20 {
                                    assert_eq!(
                                        hits(w),
                                        (w - k).rem_euclid(al.period) == 0,
                                        "{at} w={w}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn residue_solver_handles_coefficients_sharing_a_factor_with_p() {
        // gcd(a, P) > 1: solutions exist only for every g-th target, and
        // then one per period P/g.
        for procs in [8usize, 12] {
            for a in [2i64, 4, 6, 12, -6] {
                let solver = ResidueSolver::new(a, procs);
                for c in -13i64..=13 {
                    for p in 0..procs {
                        for (lo, hi) in [(-9, 30), (5, 5), (3, 2), (0, 47)] {
                            assert_eq!(
                                solver.count(lo, hi, c, p),
                                wrapped_hits_by_enumeration(lo, hi, a, c, procs, p),
                                "a={a} c={c} P={procs} p={p} w in [{lo}, {hi}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn residue_solver_survives_coefficients_near_i64_max() {
        // `a·w + c` would leave i64 unreduced, and so would `p − c − lo`.
        let (a, c) = (4_000_000_000_000_000_001i64, -(i64::MAX / 2));
        for procs in [3usize, 4, 5, 8] {
            for p in 0..procs {
                for a in [a, a - 3, 1 - 4 * procs as i64] {
                    let solver = ResidueSolver::new(a, procs);
                    for c in [c, i64::MAX, -i64::MAX] {
                        assert_eq!(
                            solver.count(-3, 9, c, p),
                            wrapped_hits_by_enumeration(-3, 9, a, c, procs, p),
                            "a={a} c={c} P={procs} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn home_along_is_home_of_the_one_coordinate_index() {
        let dists = [
            Distribution::Replicated,
            Distribution::Wrapped { dim: 0 },
            Distribution::Wrapped { dim: 2 },
            Distribution::Blocked { dim: 1 },
            Distribution::Block2D {
                row_dim: 0,
                col_dim: 2,
            },
            Distribution::Block2D {
                row_dim: 2,
                col_dim: 1,
            },
        ];
        let extents = [13, 7, 20];
        for distribution in dists {
            let s = Space::new(&[], &[]);
            let d = ArrayDecl {
                name: "A".into(),
                dims: extents.iter().map(|&e| Affine::constant(&s, e)).collect(),
                distribution,
            };
            for procs in 1usize..=16 {
                for dim in 0..extents.len() {
                    // Negative values and values past every extent
                    // exercise the clamp.
                    for value in [-40i64, -13, -1, 0, 1, 6, 7, 12, 13, 19, 20, 41, 1000] {
                        let mut idx = [0i64; 3];
                        idx[dim] = value;
                        assert_eq!(
                            home_along(&d, &extents, dim, value, procs),
                            home_of(&d, &extents, &idx, procs),
                            "{distribution:?} P={procs} dim={dim} value={value}"
                        );
                    }
                }
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
