//! The closed-form count of the second-innermost loop: how a whole
//! level `L = d − 2` of a depth-`d` nest is priced under one iteration
//! prefix without visiting its values. The simulator's walk sums it on a
//! nest of depth 3 or more; `an-model` sums level 0 of a depth-2 nest,
//! where the summed variable is the distributed loop `u` itself.
//!
//! Under a fixed prefix every quantity the innermost count
//! ([`Plan::local_hits`]) reads at `v = point[L]` is a floor of an
//! affine function of `v`: the inner bounds `max ⌈(α·v + β)/d⌉` and
//! `min ⌊(γ·v + δ)/e⌋`, and each blocked access's inverted block
//! interval. The level's range is cut at the rational crossings of those
//! lines — an integer crossing joins the side on which `U ≥ L` — so that
//! inside a segment the order of every pair of lines that meet in a
//! maximum, a minimum or a trip count is fixed: the maximum lower and
//! minimum upper are single lines, and the clipped count `⌊U⌋ − ⌈L⌉ + 1`
//! is either non-negative at every `v` (`U ≥ L`) or empty at every `v`. Each count
//! over a segment is then a difference of [`floor_sum`]s:
//!
//! - trips, and a covered or undistributed access: `Σ ⌊U⌋ − ⌈L⌉ + 1`;
//! - a blocked access: the same over its clipped interval;
//! - a wrapped access `a·w + σ·v + τ ≡ p (mod P)`: solvable on one
//!   residue class of `v`, where the solutions are `w ≡ k(v) (mod q)`
//!   with `k` affine ([`AlongSolver::solutions`]), so its count
//!   `⌊(hi − k)/q⌋ − ⌊(lo − 1 − k)/q⌋` folds into two floors of lines;
//! - a transfer hoisted to level `L`: the values whose inner loop runs,
//!   less those on the residue class where its wrapped slice is local,
//!   or all or none of them where a blocked slice's home is constant.
//!
//! At level 0 every count runs only over the `u` processor `p` executes
//! ([`Plan::executes_level`]): one residue class of `u` under a
//! round-robin or wrapped owner, met (CRT) with each wrapped access's and
//! transfer's own class; an interval under a blocked or 2-D owner, which
//! cuts the range; all of it under a replicated owner or on one
//! processor. A 2-D tiling's column filter on the inner loop enters as a
//! constant lower and upper line of it. The values whose inner loop runs
//! are then the outer iterations.
//!
//! A shape the sum does not cover — an unbounded or guarded inner loop
//! (Fourier–Motzkin puts guards only on level 0), a line that can leave
//! the magnitude limit `LIMIT` (2⁶²) over the range, an accumulated
//! count past `i128` — returns `false`, and the walk then visits the
//! level one value at a time. Inside the limit the line arithmetic runs
//! unchecked in `i128`.

use crate::distribution::{
    block_interval, block_size, grid_shape, invert_interval, Along, AlongSolver, ResidueSolver,
    HEADROOM,
};
use crate::plan::{BoundTerm, Dist, Flat, Plan};
use an_codegen::spmd::OuterAssignment;
use an_ir::Distribution;
use an_linalg::{extended_gcd, floor_sum};
use std::cmp::Ordering;
use std::ops::Range;

/// The largest magnitude a line may take over the summed range, and the
/// largest divisor: a product of two such stays below `2^125`, so
/// comparisons and crossings cannot leave `i128`.
const LIMIT: u128 = 1 << 62;

/// The class of every `v`: the owner filter of a level no processor
/// filters.
const EVERY: Along = Along {
    start: 0,
    step: 1,
    w0: 0,
    dw: 0,
    period: 1,
};

/// `(a·v + b) / m` with `m > 0`: a loop bound or a block-interval end as
/// a rational line in the summed variable `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    a: i128,
    b: i128,
    m: i128,
}

impl Line {
    /// `form / m` as a line in `point[level]`, the other coordinates of
    /// `point` bound.
    fn of(form: &Flat, point: &[i64], level: usize, m: i64) -> Option<Line> {
        let mut line = Line {
            a: 0,
            b: form.base,
            m: m as i128,
        };
        for (k, (&c, &x)) in form.coeffs.iter().zip(point).enumerate() {
            if k == level {
                line.a = c as i128;
            } else {
                line.b = line.b.checked_add(c as i128 * x as i128)?;
            }
        }
        Some(line)
    }

    /// Whether the line stays inside [`LIMIT`] for `|v| ≤ v_max`.
    fn bounded(&self, v_max: u128) -> bool {
        self.m as u128 <= LIMIT
            && self
                .a
                .unsigned_abs()
                .checked_mul(v_max)
                .and_then(|x| x.checked_add(self.b.unsigned_abs()))
                .is_some_and(|x| x <= LIMIT)
    }

    /// The line one unit higher.
    fn raised(self) -> Line {
        Line {
            b: self.b + self.m,
            ..self
        }
    }

    /// Compares the real values of `self` and `o` at `v`, and when they
    /// tie there and `onward`, just past `v`: by slope.
    fn cmp_at(&self, o: &Line, v: i128, onward: bool) -> Ordering {
        let at = ((self.a * v + self.b) * o.m).cmp(&((o.a * v + o.b) * self.m));
        if at == Ordering::Equal && onward {
            return (self.a * o.m).cmp(&(o.a * self.m));
        }
        at
    }

    /// Pushes the segment start the crossing of `self` and `o` needs,
    /// where `o ≥ self` may change: the first integer past a fractional
    /// crossing; an integer crossing itself when `o − self` grows (its
    /// tie starts the segment on which `o ≥ self`), else the integer
    /// after it (its tie ends the segment on which `o ≥ self`).
    fn cut_at_crossing(&self, o: &Line, cuts: &mut Vec<i128>) {
        let mut den = self.a * o.m - o.a * self.m;
        if den == 0 {
            return;
        }
        let grows = den < 0;
        let mut num = o.b * self.m - self.b * o.m;
        if grows {
            (num, den) = (-num, -den);
        }
        let r = num.div_euclid(den);
        cuts.push(if grows && r * den == num { r } else { r + 1 });
    }

    /// `Σ_{t<n} ⌊(⌊line(v0 + d·t)⌋ − k0 − k1·t) / q⌋` for `k0, k1 <
    /// q ≤ P` and `d ≤ P`: the integer shift folds into the numerator and
    /// the nested floor into one.
    fn floor_sum(
        &self,
        v0: i128,
        d: i128,
        n: i128,
        (k0, k1, q): (i128, i128, i128),
    ) -> Option<i128> {
        let b = self.a * v0 + self.b - self.m * k0;
        let a = self.a * d - self.m * k1;
        let m = self.m * q;
        if n == 1 || a == 0 {
            return n.checked_mul(b.div_euclid(m));
        }
        floor_sum(n, m, a, b)
    }

    /// `Σ_{t<n} ⌈line(v0 + d·t)⌉`.
    fn ceil_sum(&self, v0: i128, d: i128, n: i128) -> Option<i128> {
        let neg = Line {
            a: -self.a,
            b: -self.b,
            m: self.m,
        };
        neg.floor_sum(v0, d, n, (0, 0, 1))?.checked_neg()
    }
}

/// The trips `Σ ⌊u⌋ − ⌈l⌉ + 1` of the `n` values `v0 + d·t`, on which
/// `u ≥ l`.
fn trips(l: &Line, u: &Line, v0: i128, d: i128, n: i128) -> Option<i128> {
    u.floor_sum(v0, d, n, (0, 0, 1))?
        .checked_sub(l.ceil_sum(v0, d, n)?)?
        .checked_add(n)
}

/// Pushes the segment starts every crossing of a line of `xs` with one
/// of `ys` needs, `xs` the lower side.
fn crossings(xs: &[Line], ys: &[Line], cuts: &mut Vec<i128>) {
    for x in xs {
        for y in ys {
            x.cut_at_crossing(y, cuts);
        }
    }
}

/// [`crossings`] of every pair of `lines`.
fn crossings_within(lines: &[Line], cuts: &mut Vec<i128>) {
    for (i, x) in lines.iter().enumerate() {
        crossings(std::slice::from_ref(x), &lines[i + 1..], cuts);
    }
}

/// The maximum (`want == Greater`) or minimum (`Less`) of `lines` on
/// the segment that starts at `v`, `onward` when it goes past `v`.
fn dominant(lines: &[Line], v: i128, onward: bool, want: Ordering) -> Option<Line> {
    let mut best = *lines.first()?;
    for l in &lines[1..] {
        if l.cmp_at(&best, v, onward) == want {
            best = *l;
        }
    }
    Some(best)
}

/// The `v` with `σ·v + τ ∈ [lo, hi]`, as an interval (empty when
/// `lo > hi`).
fn preimage(sigma: i128, tau: i128, lo: i128, hi: i128) -> Option<(i128, i128)> {
    let ceil = |x: i128, m: i128| Some(x.checked_add(m - 1)?.div_euclid(m));
    match sigma.cmp(&0) {
        Ordering::Equal if (lo..=hi).contains(&tau) => Some((i128::MIN, i128::MAX)),
        Ordering::Equal => Some((1, 0)),
        Ordering::Greater => Some((
            ceil(lo.checked_sub(tau)?, sigma)?,
            hi.checked_sub(tau)?.div_euclid(sigma),
        )),
        Ordering::Less => Some((
            ceil(tau.checked_sub(hi)?, -sigma)?,
            tau.checked_sub(lo)?.div_euclid(-sigma),
        )),
    }
}

/// The members of the residue class `along` in `[s, e]` — the first
/// one, their spacing and how many — and the class's solution line
/// `(k0, k1, q)` from the first one on; `None` when there are none.
#[allow(clippy::type_complexity)]
fn class_in(along: &Along, s: i128, e: i128) -> Option<(i128, i128, i128, (i128, i128, i128))> {
    let (start, step) = (along.start as i128, along.step as i128);
    let j = (s - start + step - 1).div_euclid(step);
    let v1 = start + j * step;
    if v1 > e {
        return None;
    }
    let (w0, dw, q) = (along.w0 as i128, along.dw as i128, along.period as i128);
    let k0 = (w0 + dw * j.rem_euclid(q)) % q;
    let n = (e - v1).div_euclid(step) + 1;
    Some((v1, step, n, (k0, dw, q)))
}

/// The members of the owner class `owner` in `[s, e]`: the first one,
/// their spacing and how many; `None` when there are none.
fn members(owner: &Along, s: i128, e: i128) -> Option<(i128, i128, i128)> {
    if owner.step == 1 {
        return Some((s, 1, e - s + 1));
    }
    class_in(owner, s, e).map(|(v1, d, n, _)| (v1, d, n))
}

/// `along` cut to the `v` of the owner class `owner` (CRT), its
/// solutions in `w` carried along; `None` when the two share no `v`.
/// Both steps divide `P`, and so does the step of the meet.
fn meet(along: Along, owner: &Along) -> Option<Along> {
    if owner.step == 1 {
        return Some(along);
    }
    let (g, x, _) = extended_gcd(along.step, owner.step);
    let gap = owner.start - along.start;
    if gap % g != 0 {
        return None;
    }
    // v = start + step·t with step·t ≡ gap (mod owner.step).
    let m = owner.step / g;
    let t = ((gap / g) as i128 * x as i128).rem_euclid(m as i128);
    let q = along.period as i128;
    Some(Along {
        start: along.start + along.step * t as i64,
        step: along.step * m,
        w0: (along.w0 as i128 + along.dw as i128 * t).rem_euclid(q) as i64,
        dw: (along.dw as i128 * m as i128).rem_euclid(q) as i64,
        period: along.period,
    })
}

/// How one access's local hits depend on `v` under the current prefix.
/// Equal ones count alike, so the sum counts each once, weighted.
#[derive(PartialEq)]
enum Hits {
    /// Every trip is local: a covered read or an undistributed array.
    Trips,
    /// A blocked access: the trips inside the block(s) the processor
    /// owns — the inner range clipped by more lowers and uppers (ranges
    /// of [`LevelScratch::own`]), and empty outside the `v`-intervals
    /// (a range of [`LevelScratch::within`]) where an inner-invariant
    /// blocked subscript is local.
    Clip {
        lowers: Range<usize>,
        uppers: Range<usize>,
        within: Range<usize>,
    },
    /// A wrapped access: where and how its congruence is solvable on the
    /// values the processor runs (`None`: nowhere).
    Wrapped(Option<Along>),
}

/// How a transfer hoisted to the summed level fires along `v`.
enum Fires {
    /// Except on the residue class of `v` where its wrapped slice is
    /// local (`None`: it never is).
    OffClass(Option<Along>),
    /// The same way on a whole segment.
    BySegment,
}

/// What one level sum counted, in `i128`; the walk adds it to the
/// processor's counters with a check.
#[derive(Debug, Default)]
pub(crate) struct LevelSum {
    /// Σ inner trip counts.
    pub(crate) trips: i128,
    /// Σ local hits over every access.
    pub(crate) local: i128,
    /// Values of `v` the processor runs whose inner loop ran at least
    /// once: at level 0, its outer iterations.
    pub(crate) worked: i128,
    /// Per transfer hoisted to level `L`: its firings.
    pub(crate) fired: Vec<i128>,
}

/// The buffers of one processor's level sums, reused from one prefix to
/// the next so that a sum allocates nothing once they have grown.
#[derive(Default)]
pub(crate) struct LevelScratch {
    lowers: Vec<Line>,
    uppers: Vec<Line>,
    raised: Vec<Line>,
    /// The blocked accesses' own clipping lines.
    own: Vec<Line>,
    within: Vec<(i128, i128)>,
    cuts: Vec<i128>,
    /// Each distinct [`Hits`], with how many accesses share it.
    hits: Vec<(Hits, i128)>,
    fires: Vec<Fires>,
    /// [`Plan::along_solvers`], built by the processor's first sum.
    solvers: Option<Vec<AlongSolver>>,
    /// The counts of the last sum.
    pub(crate) sum: LevelSum,
}

/// Counts one more access with hits `h`.
fn tally(hits: &mut Vec<(Hits, i128)>, h: Hits) {
    match hits.iter_mut().find(|(x, _)| *x == h) {
        Some((_, weight)) => *weight += 1,
        None => hits.push((h, 1)),
    }
}

/// Clips a blocked access by one coordinate `sub ∈ [blo, bhi]`: a lower
/// (`lower`) or upper line of `w` onto `own` when the inner variable
/// moves `sub`, else (once, with `lower`) a `v`-interval onto `within`.
/// An end at a [`block_interval`] sentinel clips nothing: validation
/// keeps every blocked subscript inside it.
#[allow(clippy::too_many_arguments)]
fn clip(
    sub: &Flat,
    (blo, bhi): (i64, i64),
    lower: bool,
    point: &[i64],
    level: usize,
    own: &mut Vec<Line>,
    within: &mut Vec<(i128, i128)>,
) -> Option<()> {
    let c = Line::of(sub, point, level, 1)?;
    let ai = sub.a as i128;
    let (blo, bhi) = (blo as i128, bhi as i128);
    if ai == 0 {
        if lower {
            within.push(preimage(c.a, c.b, blo, bhi)?);
        }
        return Some(());
    }
    // blo ≤ ai·w + c ≤ bhi, as w ≥ ⌈·⌉ or w ≤ ⌊·⌋.
    let (end, sentinel) = if lower == (ai > 0) {
        (blo, blo < -(HEADROOM as i128))
    } else {
        (bhi, bhi >= HEADROOM as i128)
    };
    if !sentinel {
        own.push(if ai > 0 {
            Line {
                a: -c.a,
                b: end - c.b,
                m: ai,
            }
        } else {
            Line {
                a: c.a,
                b: c.b - end,
                m: -ai,
            }
        });
    }
    Some(())
}

impl Plan<'_> {
    /// The values of level 0 processor `p` executes
    /// ([`Plan::executes_level`]): a residue class of `u` ([`EVERY`] when
    /// every `u` is in it) cut to an interval; `None` when there are none.
    fn outer_owned(&self, p: usize) -> Option<(Along, (i64, i64))> {
        let all = (i64::MIN, i64::MAX);
        if self.procs == 1 {
            return Some((EVERY, all));
        }
        let off = self.owner_offsets[0];
        // `coeff·u + off ≡ p (mod P)`.
        let class = |coeff: i64| {
            let along = ResidueSolver::new(0, self.procs).along(coeff);
            Some((along.solutions(off, p)?, all))
        };
        // `coeff·u + off ∈ [blo, bhi]`.
        let within = |coeff: i64, (blo, bhi): (i64, i64)| match coeff {
            0 => (blo..=bhi).contains(&off).then_some((EVERY, all)),
            _ => Some((EVERY, invert_interval(coeff, off, blo, bhi))),
        };
        match &self.spmd.outer {
            OuterAssignment::RoundRobin => class(1),
            OuterAssignment::ByHome { array, coeff, .. } => {
                let exts = &self.extents[array.0];
                match self.spmd.program.array(*array).distribution {
                    Distribution::Replicated => Some((EVERY, all)),
                    Distribution::Wrapped { .. } => class(*coeff),
                    Distribution::Blocked { dim } => {
                        let size = block_size(exts[dim], self.procs);
                        within(*coeff, block_interval(p as i64, size, self.procs as i64))
                    }
                    Distribution::Block2D { row_dim, .. } => {
                        // The filter homes the row index; the zero column
                        // index homes to grid column 0.
                        let (pr, pc) = grid_shape(self.procs);
                        if !p.is_multiple_of(pc) {
                            return None;
                        }
                        let size = block_size(exts[row_dim], pr);
                        within(*coeff, block_interval((p / pc) as i64, size, pr as i64))
                    }
                }
            }
            OuterAssignment::ByHome2D {
                array,
                row_dim,
                row_coeff,
                ..
            } => {
                let (gr, gc) = grid_shape(self.procs);
                let size = block_size(self.extents[array.0][*row_dim], gr);
                within(*row_coeff, block_interval((p / gc) as i64, size, gr as i64))
            }
        }
    }

    /// The congruence solvers along `v = point[level]` of the wrapped
    /// accesses, then of the transfers hoisted to `level` whose slice is
    /// wrapped, in the order the sum meets them. They depend only on the
    /// plan; the iteration prefix moves only the constant `τ`.
    fn along_solvers(&self, level: usize) -> Vec<AlongSolver> {
        let accesses = self.stmts.iter().flat_map(|(_, accesses)| accesses);
        let wrapped = accesses.filter_map(|acc| match &acc.dist {
            Dist::Wrapped { sub, solver } if !acc.covered => Some(solver.along(sub.coeff(level))),
            _ => None,
        });
        let transfers = self.transfers_at[level].iter().filter_map(|t| {
            match self.spmd.program.array(t.block.array).distribution {
                Distribution::Wrapped { dim } if dim == t.block.dim && self.procs > 1 => {
                    Some(ResidueSolver::new(0, self.procs).along(t.sub.coeff(level)))
                }
                _ => None,
            }
        });
        wrapped.chain(transfers).collect()
    }

    /// Counts level `L = point.len() − 2`, whose range under the prefix
    /// `point[..L]` is `[lo, hi]`, in closed form for processor `p`: the
    /// counts the walk would gather from the innermost count of every
    /// `v`, left in `scratch.sum`. `point[L]` is left at zero.
    ///
    /// `false` when the sum does not cover the level (see the module
    /// documentation): the caller then walks it.
    pub(crate) fn sum_level(
        &self,
        p: usize,
        point: &mut [i64],
        (lo, hi): (i64, i64),
        scratch: &mut LevelScratch,
    ) -> bool {
        let level = point.len() - 2;
        let summed = self
            .sum_level_in(p, point, level, (lo, hi), scratch)
            .is_some();
        point[level] = 0;
        summed
    }

    fn sum_level_in(
        &self,
        p: usize,
        point: &mut [i64],
        level: usize,
        (lo, hi): (i64, i64),
        scratch: &mut LevelScratch,
    ) -> Option<()> {
        let inner = &self.bounds[level + 1];
        if inner.lowers.is_empty()
            || inner.uppers.is_empty()
            || !inner.guards.is_empty()
            || self.procs as u64 > 1 << 32
        {
            return None;
        }
        let LevelScratch {
            lowers,
            uppers,
            raised,
            own,
            within,
            cuts,
            hits,
            fires,
            solvers,
            sum,
        } = scratch;
        let mut solvers = solvers
            .get_or_insert_with(|| self.along_solvers(level))
            .iter();
        let transfers = &self.transfers_at[level];
        sum.trips = 0;
        sum.local = 0;
        sum.worked = 0;
        sum.fired.clear();
        sum.fired.resize(transfers.len(), 0);
        // The level's own values `p` runs: at level 0 the outer
        // assignment's, at level 1 its 2-D tiling column filter's.
        let (owner, (lo, hi)) = match level {
            0 => match self.outer_owned(p) {
                Some((owner, (flo, fhi))) => (owner, (lo.max(flo), hi.min(fhi))),
                None => return Some(()),
            },
            1 => (EVERY, self.restrict_to_grid_column(p, lo, hi)),
            _ => (EVERY, (lo, hi)),
        };
        if lo > hi {
            return Some(());
        }
        let (lo, hi) = (lo as i128, hi as i128);
        let procs = self.procs as i64;
        for (lines, terms) in [(&mut *lowers, &inner.lowers), (&mut *uppers, &inner.uppers)] {
            lines.clear();
            for t in terms {
                let BoundTerm { form, divisor } = t;
                lines.push(Line::of(form, point, level, *divisor)?);
            }
        }
        if level == 0 {
            // The inner loop's 2-D tiling column filter, as constant lines.
            let (clo, chi) = self.restrict_to_grid_column(p, i64::MIN, i64::MAX);
            let constant = |b: i64| Line {
                a: 0,
                b: b as i128,
                m: 1,
            };
            lowers.extend((clo > i64::MIN).then(|| constant(clo)));
            uppers.extend((chi < i64::MAX).then(|| constant(chi)));
        }
        raised.clear();
        raised.extend(lowers.iter().map(|l| l.raised()));
        // `τ` of a subscript `σ·v + τ` along `v`, inside `i64`.
        let along_v =
            |sub: &Flat| -> Option<i64> { i64::try_from(Line::of(sub, point, level, 1)?.b).ok() };
        own.clear();
        within.clear();
        hits.clear();
        for acc in self.stmts.iter().flat_map(|(_, accesses)| accesses) {
            let coords: [Option<(&Flat, (i64, i64))>; 2] = match &acc.dist {
                _ if acc.covered => [None, None],
                Dist::Local => [None, None],
                Dist::Wrapped { sub, .. } => {
                    let tau = along_v(sub)?;
                    let along = solvers.next()?.solutions(tau, p);
                    let h = match along.and_then(|al| meet(al, &owner)) {
                        // Local at every trip of every value `p` runs.
                        Some(al) if al.period == 1 && al.step == owner.step => Hits::Trips,
                        along => Hits::Wrapped(along),
                    };
                    tally(hits, h);
                    continue;
                }
                Dist::Blocked { sub, size } => {
                    [Some((sub, block_interval(p as i64, *size, procs))), None]
                }
                Dist::Block2D {
                    row,
                    col,
                    sr,
                    sc,
                    pr,
                    pc,
                } => {
                    let (tr, tc) = ((p / pc) as i64, (p % pc) as i64);
                    [
                        Some((row, block_interval(tr, *sr, *pr as i64))),
                        Some((col, block_interval(tc, *sc, *pc as i64))),
                    ]
                }
            };
            if coords[0].is_none() {
                tally(hits, Hits::Trips);
                continue;
            }
            let (l0, w0) = (own.len(), within.len());
            for &(sub, block) in coords.iter().flatten() {
                clip(sub, block, true, point, level, own, within)?;
            }
            let u0 = own.len();
            for &(sub, block) in coords.iter().flatten() {
                clip(sub, block, false, point, level, own, within)?;
            }
            let h = Hits::Clip {
                lowers: l0..u0,
                uppers: u0..own.len(),
                within: w0..within.len(),
            };
            tally(hits, h);
        }
        let v_max = lo.unsigned_abs().max(hi.unsigned_abs());
        let all = lowers.iter().chain(&*uppers).chain(&*raised).chain(&*own);
        if !all.into_iter().all(|l| l.bounded(v_max)) {
            return None;
        }
        // Segment starts: where a maximum or a minimum changes lines, or
        // a trip count crosses 0 (or, for the loop's own, 1).
        cuts.clear();
        cuts.push(lo);
        crossings_within(lowers, cuts);
        crossings_within(uppers, cuts);
        crossings(lowers, uppers, cuts);
        crossings(raised, uppers, cuts);
        for (h, _) in &*hits {
            let Hits::Clip {
                lowers: cl,
                uppers: cu,
                within: w,
            } = h
            else {
                continue;
            };
            let (cl, cu) = (&own[cl.clone()], &own[cu.clone()]);
            crossings_within(cl, cuts);
            crossings_within(cu, cuts);
            let (tl, tu): (&[Line], &[Line]) = (lowers, uppers);
            for (xs, ys) in [(cl, tl), (cu, tu), (cl, cu), (cl, tu), (tl, cu)] {
                crossings(xs, ys, cuts);
            }
            for &(a, b) in &within[w.clone()] {
                cuts.extend([a, b.saturating_add(1)]);
            }
        }
        // A hoisted transfer fires by the home of its slice: local on
        // one residue class of `v` along a wrapped dimension, constant
        // between the ends of the processor's block along a blocked one.
        fires.clear();
        for t in transfers {
            let exts = &self.extents[t.block.array.0];
            let block = match self.spmd.program.array(t.block.array).distribution {
                Distribution::Wrapped { dim } if dim == t.block.dim && self.procs > 1 => {
                    let c = along_v(&t.sub)?;
                    let local = solvers.next()?.solutions(c, p);
                    fires.push(Fires::OffClass(local.and_then(|al| meet(al, &owner))));
                    continue;
                }
                Distribution::Replicated | Distribution::Wrapped { .. } => None,
                Distribution::Blocked { dim } => Some(block_interval(
                    p as i64,
                    block_size(exts[dim], self.procs),
                    procs,
                )),
                Distribution::Block2D { row_dim, col_dim } => {
                    let (pr, pc) = grid_shape(self.procs);
                    Some(if t.block.dim == row_dim {
                        block_interval((p / pc) as i64, block_size(exts[row_dim], pr), pr as i64)
                    } else {
                        block_interval((p % pc) as i64, block_size(exts[col_dim], pc), pc as i64)
                    })
                }
            };
            if let Some((blo, bhi)) = block {
                let s = Line::of(&t.sub, point, level, 1)?;
                let (a, b) = preimage(s.a, s.b, blo as i128, bhi as i128)?;
                cuts.extend([a, b.saturating_add(1)]);
            }
            fires.push(Fires::BySegment);
        }
        cuts.retain(|&c| c >= lo && c <= hi);
        cuts.sort_unstable();
        cuts.dedup();
        for (i, &s) in cuts.iter().enumerate() {
            let e = cuts.get(i + 1).map_or(hi, |&next| next - 1);
            let n = e - s + 1;
            // Every order on the segment is its order at `s`, a tie at
            // `s` broken by slope; and `u ≥ l` holds at a tie.
            let onward = n > 1;
            let l = dominant(lowers, s, onward, Ordering::Greater)?;
            let u = dominant(uppers, s, onward, Ordering::Less)?;
            if u.cmp_at(&l, s, false) == Ordering::Less {
                continue;
            }
            let Some((v0, d, owned)) = members(&owner, s, e) else {
                continue;
            };
            // At least one trip at every `v` of the segment, or else at
            // most one, so that the trips count the values that work.
            let full = u.cmp_at(&l.raised(), s, false) != Ordering::Less;
            let trips_seg = trips(&l, &u, v0, d, owned)?;
            let worked = if full { owned } else { trips_seg };
            if worked == 0 {
                continue;
            }
            sum.trips = sum.trips.checked_add(trips_seg)?;
            sum.worked = sum.worked.checked_add(worked)?;
            for (h, weight) in &*hits {
                let local = match h {
                    Hits::Trips => trips_seg,
                    Hits::Clip {
                        lowers: cl,
                        uppers: cu,
                        within: w,
                    } => {
                        let inside = within[w.clone()].iter().all(|&(a, b)| a <= s && s <= b);
                        let cl = dominant(&own[cl.clone()], s, onward, Ordering::Greater)
                            .filter(|x| x.cmp_at(&l, s, onward) == Ordering::Greater)
                            .unwrap_or(l);
                        let cu = dominant(&own[cu.clone()], s, onward, Ordering::Less)
                            .filter(|x| x.cmp_at(&u, s, onward) == Ordering::Less)
                            .unwrap_or(u);
                        if inside && cu.cmp_at(&cl, s, false) != Ordering::Less {
                            trips(&cl, &cu, v0, d, owned)?
                        } else {
                            0
                        }
                    }
                    Hits::Wrapped(along) => match along.and_then(|al| class_in(&al, s, e)) {
                        None => 0,
                        // ⌊(hi − k)/q⌋ − ⌊(lo − 1 − k)/q⌋ on the class,
                        // with ⌈x/m⌉ − 1 = ⌊(x − 1)/m⌋.
                        Some((v1, d, nc, k)) => {
                            let below = Line { b: l.b - 1, ..l };
                            u.floor_sum(v1, d, nc, k)?
                                .checked_sub(below.floor_sum(v1, d, nc, k)?)?
                        }
                    },
                };
                sum.local = sum.local.checked_add(local.checked_mul(*weight)?)?;
            }
            point[level] = s as i64;
            for ((t, f), fired) in transfers.iter().zip(&*fires).zip(&mut sum.fired) {
                let count = match f {
                    Fires::OffClass(local) => match local.and_then(|al| class_in(&al, s, e)) {
                        None => worked,
                        Some((_, _, nc, _)) if full => worked - nc,
                        Some((v1, d, nc, _)) => worked.checked_sub(trips(&l, &u, v1, d, nc)?)?,
                    },
                    Fires::BySegment if self.transfer_fires(t, p, point) => worked,
                    Fires::BySegment => 0,
                };
                *fired = fired.checked_add(count)?;
            }
        }
        Some(())
    }
}
