//! Closed-form analytic locality model for the search inner loop.
//!
//! The simulator ([`an_numa::simulate()`]) prices a candidate by walking
//! the levels above the innermost loop and costing the innermost loop
//! in closed form (on a nest of depth 3 or more, every range of the
//! second-innermost level of at least
//! [`MIN_SUMMED`](an_numa::simulate::MIN_SUMMED) values too). On a depth-2 nest, whose one level above the innermost
//! the walk visits value by value, this crate removes that enumeration:
//! the outer loop (level 0) is collapsed into
//! residue classes modulo `M = P · lcm(bound divisors, access
//! coefficients)`, within which every quantity the per-iteration costing
//! reads — bound values, wrapped-home residues, block-interval endpoints,
//! transfer subscripts — is *exactly affine* in the class index. Each
//! class is split at the (rational) crossings of those affine lines and
//! summed as arithmetic series, so a loop of a million iterations prices
//! in a handful of evaluations.
//!
//! The rule is by depth: the model takes over at level 0 or not at all.
//! Every other nest — depth 1, and depth 3 or more, whose
//! second-innermost level the walk itself sums in closed form — goes
//! whole to the simulator's walk ([`enumerate_from`]), and so does a
//! depth-2
//! processor whose level 0 cannot be collapsed: a range shorter than
//! `3·M`, a modulus past `CLASS_CAP`, an unbounded inner loop. Both
//! evaluators count over one structure, [`an_numa::plan::Plan`]:
//! extents, flattened distribution subscripts, transfer coverage and
//! sizes, the outer-assignment filter, the transfer-home test and the
//! innermost count ([`Plan::local_hits`]) live there. This crate holds
//! only what makes the evaluation closed-form — the class modulus, the
//! probe lines and the per-class series.
//!
//! The contract is exactness, not approximation: every counter
//! (`local_accesses`, `remote_accesses`, `messages`, `transfer_bytes`,
//! `outer_iterations`, `ops`) equals the simulator's bit-for-bit, and
//! since both evaluators only count and [`an_numa::plan::evaluate`]
//! prices the counts with one function, busy and total times are
//! bit-equal too. A differential oracle (`tests/model_property.rs`) pins
//! the equality on the whole corpus and on fuzz-generated programs;
//! [`Mutation`] exists so the mutation harness can prove the oracle
//! actually bites on the nests the model collapses.

use an_codegen::spmd::{OuterAssignment, SpmdProgram};
use an_ir::Distribution;
use an_linalg::gcd;
use an_numa::distribution::{block_interval, block_size, grid_shape, invert_interval};
use an_numa::plan::{evaluate, Dist, Flat, Plan};
use an_numa::simulate::enumerate_from;
use an_numa::{add_count, MachineConfig, ProcStats, SimError, SimStats};

/// Largest class modulus the analytic path accepts; beyond it (huge
/// skew divisors or coefficient lcms) the processor goes to the
/// simulator's walk.
const CLASS_CAP: i64 = 4096;

/// Deliberate model corruptions for the differential mutation harness
/// (`tests/model_mutations.rs`): each one must be caught by the
/// model-vs-simulator gate on the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The faithful model.
    #[default]
    None,
    /// Inner trip counts run one iteration long.
    TripOffByOne,
    /// Remote accesses are never counted or charged.
    DropRemoteTerm,
    /// Access ownership is tested against the wrong processor plane
    /// (`p + 1 mod P` instead of `p`).
    WrongOwnershipPlane,
}

/// Analytic counterpart of [`an_numa::simulate()`]: identical validation,
/// identical counters, no enumeration of the outer loop of a depth-2
/// nest.
///
/// # Errors
///
/// As [`an_numa::simulate()`]: [`SimError::NoProcessors`],
/// [`SimError::BadParameters`], [`SimError::BadExtent`],
/// [`SimError::UnboundedLoop`].
pub fn model_stats(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
) -> Result<SimStats, SimError> {
    model_stats_mutated(spmd, machine, procs, params, Mutation::None)
}

/// [`model_stats`] recording a `"model"` span on `tracer` when present,
/// with the aggregate counters mirroring the simulator's (`model.*`
/// namespace).
///
/// # Errors
///
/// As [`model_stats`]; with a tracer also [`SimError::CountOverflow`]
/// when an aggregate counter, a sum over the processors, leaves `u64`.
pub fn model_stats_traced(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    tracer: Option<&an_obs::Tracer>,
) -> Result<SimStats, SimError> {
    let Some(t) = tracer else {
        return model_stats(spmd, machine, procs, params);
    };
    let _span = t.span("model");
    let stats = model_stats(spmd, machine, procs, params)?;
    let m = t.metrics();
    m.add("model.local_accesses", stats.counter(|p| p.local_accesses)?);
    m.add(
        "model.remote_accesses",
        stats.counter(|p| p.remote_accesses)?,
    );
    m.add("model.messages", stats.counter(|p| p.messages)?);
    m.add("model.transfer_bytes", stats.counter(|p| p.transfer_bytes)?);
    for ps in &stats.per_proc {
        m.observe("model.proc_transfer_bytes", ps.transfer_bytes);
    }
    Ok(stats)
}

/// [`model_stats`] with a deliberate corruption armed — test hook for
/// the mutation harness; [`Mutation::None`] is the faithful model.
///
/// # Errors
///
/// As [`model_stats`].
pub fn model_stats_mutated(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    mutation: Mutation,
) -> Result<SimStats, SimError> {
    evaluate(spmd, machine, procs, params, |plan, p| {
        Model { plan, mutation }.run_processor(p)
    })
}

fn div_floor_i128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// How the outer-assignment filter restricts level 0 for one processor.
enum UFilter {
    /// Every iteration executes here.
    All,
    /// No iteration executes here.
    Never,
    /// Iterations with `u ∈ [lo, hi]` execute here.
    Interval(i64, i64),
    /// Membership is constant on each residue class mod `M` (the test
    /// is a `mod P` residue and `P | M`); evaluate once per class.
    ClassConstant,
}

/// One exact evaluation of the outer-loop body at `u`: the restricted
/// inner trip count, per-access local-hit counts (in statement order),
/// and the would-fire flag of each transfer hoisted to level 0.
struct Sample {
    worked: bool,
    trips: i64,
    local: Vec<i64>,
    fired: Vec<bool>,
}

/// Accumulator for one collapse, in `i128` so the series sums cannot
/// overflow; folded into [`ProcStats`] once at the end.
struct Acc {
    trips: i128,
    local: Vec<i128>,
    worked: i128,
    fired: Vec<i128>,
}

impl Acc {
    fn new(accesses: usize, transfers: usize) -> Acc {
        Acc {
            trips: 0,
            local: vec![0; accesses],
            worked: 0,
            fired: vec![0; transfers],
        }
    }

    fn add(&mut self, s: &Sample) {
        self.trips += s.trips as i128;
        for (t, v) in self.local.iter_mut().zip(&s.local) {
            *t += *v as i128;
        }
        if s.worked {
            self.worked += 1;
            for (t, f) in self.fired.iter_mut().zip(&s.fired) {
                *t += *f as i128;
            }
        }
    }

    /// Adds an affine run: `len` samples starting at `s0` whose numeric
    /// components advance by `slope` per step (`worked`/`fired` flags
    /// constant across the run, verified by the caller).
    fn add_run(&mut self, s0: &Sample, slope: &[i128], len: i64) {
        let l = len as i128;
        let tri = l * (l - 1) / 2;
        self.trips += l * s0.trips as i128 + slope[0] * tri;
        for (i, t) in self.local.iter_mut().enumerate() {
            *t += l * s0.local[i] as i128 + slope[1 + i] * tri;
        }
        if s0.worked {
            self.worked += l;
            for (t, f) in self.fired.iter_mut().zip(&s0.fired) {
                *t += *f as i128 * l;
            }
        }
    }
}

fn components(s: &Sample) -> Vec<i128> {
    let mut v = Vec::with_capacity(1 + s.local.len());
    v.push(s.trips as i128);
    v.extend(s.local.iter().map(|&x| x as i128));
    v
}

/// The closed-form evaluator of a [`Plan`]: it collapses level 0 of a
/// depth-2 nest (with the innermost loop under it) into residue classes.
struct Model<'p, 'a> {
    plan: &'p Plan<'a>,
    mutation: Mutation,
}

impl Model<'_, '_> {
    /// The processor whose ownership plane prices the accesses — `p`
    /// for the faithful model, shifted under the mutation.
    fn p_access(&self, p: usize) -> usize {
        match self.mutation {
            Mutation::WrongOwnershipPlane => (p + 1) % self.plan.procs,
            _ => p,
        }
    }

    /// Classifies the outer-assignment filter at level 0 into a shape
    /// the class machinery can use without per-iteration tests.
    fn collapse_filter(&self, p: usize) -> UFilter {
        if self.plan.procs == 1 {
            return UFilter::All;
        }
        // `blo ≤ coeff·u + off ≤ bhi` as a u-interval (or a constant).
        let affine_in = |coeff: i64, off: i64, blo: i64, bhi: i64| -> UFilter {
            if coeff == 0 {
                if off >= blo && off <= bhi {
                    UFilter::All
                } else {
                    UFilter::Never
                }
            } else {
                let (lo, hi) = invert_interval(coeff, off, blo, bhi);
                UFilter::Interval(lo, hi)
            }
        };
        match &self.plan.spmd.outer {
            OuterAssignment::RoundRobin => UFilter::ClassConstant,
            OuterAssignment::ByHome { array, coeff, .. } => {
                let off = self.plan.owner_offsets[0];
                let decl = self.plan.spmd.program.array(*array);
                let extents = &self.plan.extents[array.0];
                match decl.distribution {
                    Distribution::Replicated => UFilter::All,
                    Distribution::Wrapped { .. } => UFilter::ClassConstant,
                    Distribution::Blocked { dim } => {
                        let s = block_size(extents[dim], self.plan.procs);
                        let (blo, bhi) = block_interval(p as i64, s, self.plan.procs as i64);
                        affine_in(*coeff, off, blo, bhi)
                    }
                    Distribution::Block2D { row_dim, .. } => {
                        // The filter indexes only the row dimension; the
                        // zero column index homes to grid column 0.
                        let (pr, pc) = grid_shape(self.plan.procs);
                        if !p.is_multiple_of(pc) {
                            return UFilter::Never;
                        }
                        let sr = block_size(extents[row_dim], pr);
                        let (blo, bhi) = block_interval((p / pc) as i64, sr, pr as i64);
                        affine_in(*coeff, off, blo, bhi)
                    }
                }
            }
            OuterAssignment::ByHome2D {
                array,
                row_dim,
                row_coeff,
                ..
            } => {
                // Level 0 is tiled by grid row; the column filter is the
                // inner loop's, applied per sample.
                let (gr, gc) = grid_shape(self.plan.procs);
                let off = self.plan.owner_offsets[0];
                let sr = block_size(self.plan.extents[array.0][*row_dim], gr);
                let (blo, bhi) = block_interval((p / gc) as i64, sr, gr as i64);
                affine_in(*row_coeff, off, blo, bhi)
            }
        }
    }

    /// The class modulus: `P · lcm(inner bound divisors, |inner
    /// coefficients| of interval-counted accesses)`. Within one residue
    /// class every tracked quantity is exactly affine in the class
    /// index. `None` means the lcm overflowed or exceeded [`CLASS_CAP`].
    fn class_modulus(&self) -> Option<i64> {
        let bounds = &self.plan.bounds[1];
        let mut l: i64 = 1;
        let mut fold = |d: i64| -> bool {
            if d == 0 {
                return true;
            }
            let d = d.abs();
            let g = gcd(l, d);
            match (l / g).checked_mul(d) {
                Some(v) if v <= CLASS_CAP => {
                    l = v;
                    true
                }
                _ => false,
            }
        };
        for b in bounds.lowers.iter().chain(&bounds.uppers) {
            if !fold(b.divisor) {
                return None;
            }
        }
        for (_, accesses) in &self.plan.stmts {
            for acc in accesses {
                let ok = match &acc.dist {
                    Dist::Local | Dist::Wrapped { .. } => true,
                    Dist::Blocked { sub, .. } => fold(sub.a),
                    Dist::Block2D { row, col, .. } => fold(row.a) && fold(col.a),
                };
                if !ok {
                    return None;
                }
            }
        }
        l.checked_mul(self.plan.procs as i64)
            .filter(|&m| m <= CLASS_CAP)
    }

    /// Evaluates the outer-loop body at `u`: the inner loop's trip
    /// count, each access's local hits (in statement order) by the
    /// plan's innermost count, and the would-fire flag of each transfer
    /// hoisted to level 0.
    fn sample(&self, u: i64, p: usize) -> Sample {
        let plan = self.plan;
        let point = [u, 0];
        let (lo, hi) = plan.bounds[1]
            .eval(&point)
            .expect("inner bounds checked non-empty before collapse");
        let (lo, mut hi) = plan.restrict_to_grid_column(p, lo, hi);
        if self.mutation == Mutation::TripOffByOne && lo <= hi {
            hi += 1;
        }
        let p_acc = self.p_access(p);
        let local = plan
            .stmts
            .iter()
            .flat_map(|(_, accesses)| accesses)
            .map(|acc| plan.local_hits(acc, lo, hi, p_acc, &point))
            .collect();
        let fired = plan.transfers_at[0]
            .iter()
            .map(|t| plan.transfer_fires(t, p, &point))
            .collect();
        Sample {
            worked: lo <= hi,
            trips: (hi - lo + 1).max(0),
            local,
            fired,
        }
    }

    /// Folds a collapse accumulator into the processor's counters.
    ///
    /// # Errors
    ///
    /// [`SimError::CountOverflow`] for a counter past `u64`.
    fn fold(&self, acc: &Acc) -> Result<ProcStats, SimError> {
        let times =
            |count: i128, k: u64| count.checked_mul(k as i128).ok_or(SimError::CountOverflow);
        let mut stats = ProcStats::default();
        add_count(&mut stats.outer_iterations, acc.worked)?;
        for (ops, _) in &self.plan.stmts {
            add_count(&mut stats.ops, times(acc.trips, *ops)?)?;
        }
        for &l in &acc.local {
            add_count(&mut stats.local_accesses, l)?;
            if self.mutation != Mutation::DropRemoteTerm {
                add_count(&mut stats.remote_accesses, acc.trips - l)?;
            }
        }
        for (t, &count) in self.plan.transfers_at[0].iter().zip(&acc.fired) {
            add_count(&mut stats.messages, count)?;
            add_count(&mut stats.transfer_bytes, times(count, t.bytes)?)?;
        }
        Ok(stats)
    }

    /// Counts processor `p`. On a depth-2 nest, level 0 collapses into
    /// residue classes mod `M`, each split at the crossings of its
    /// tracked affine lines and summed as arithmetic series. Every other
    /// nest, and a processor with a range shorter than `3·M`, a modulus
    /// past [`CLASS_CAP`] or an unbounded inner loop, goes whole to the
    /// simulator's walk instead.
    fn run_processor(&self, p: usize) -> Result<ProcStats, SimError> {
        if self.plan.bounds.len() != 2 {
            return enumerate_from(self.plan, p);
        }
        let (mut lo_u, mut hi_u) = self.plan.bounds[0]
            .eval(&[0, 0])
            .ok_or(SimError::UnboundedLoop { var: 0 })?;
        let filter = self.collapse_filter(p);
        match filter {
            UFilter::Never => return Ok(ProcStats::default()),
            UFilter::Interval(flo, fhi) => {
                lo_u = lo_u.max(flo);
                hi_u = hi_u.min(fhi);
            }
            UFilter::All | UFilter::ClassConstant => {}
        }
        if lo_u > hi_u {
            return Ok(ProcStats::default());
        }
        let ib = &self.plan.bounds[1];
        let bounded = !ib.lowers.is_empty() && !ib.uppers.is_empty();
        let Some(m) = self
            .class_modulus()
            .filter(|&m| bounded && hi_u - lo_u >= 3 * m)
        else {
            return enumerate_from(self.plan, p);
        };
        let mut acc = Acc::new(self.plan.n_access, self.plan.transfers_at[0].len());
        for u0 in lo_u..lo_u + m {
            if matches!(filter, UFilter::ClassConstant) && !self.plan.executes_level(0, p, u0) {
                continue;
            }
            let kmax = (hi_u - u0) / m;
            self.collapse_class(u0, m, kmax, p, &mut acc);
        }
        self.fold(&acc)
    }

    /// Sums one residue class `{u0 + t·M : t ∈ [0, kmax]}`, `kmax ≥ 2`.
    fn collapse_class(&self, u0: i64, m: i64, kmax: i64, p: usize, acc: &mut Acc) {
        // Two probes determine every tracked line exactly (each probed
        // quantity is affine in the class index across the whole class).
        let l0 = self.probe(u0, p);
        let l1 = self.probe(u0 + m, p);
        let mut lines: Vec<(i128, i128)> = l0
            .iter()
            .zip(&l1)
            .map(|(&a, &b)| (a as i128, b as i128 - a as i128))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        let mut cuts: Vec<i64> = vec![0, kmax];
        for i in 0..lines.len() {
            for j in (i + 1)..lines.len() {
                let (v_i, s_i) = lines[i];
                let (v_j, s_j) = lines[j];
                let ds = s_i - s_j;
                if ds == 0 {
                    continue;
                }
                let tf = div_floor_i128(v_j - v_i, ds);
                // ±2 window covers every `A ⋈ B + k` comparison whose
                // shift from the raw crossing is < 1 (all slopes here
                // differ by at least the shift's denominator).
                for d in -2i128..=3 {
                    let t = tf + d;
                    if t >= 0 && t <= kmax as i128 {
                        cuts.push(t as i64);
                    }
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        // Singleton segments at every cut, affine interiors between.
        let mut segs: Vec<(i64, i64)> = Vec::with_capacity(cuts.len() * 2);
        for w in cuts.windows(2) {
            segs.push((w[0], w[0]));
            if w[1] > w[0] + 1 {
                segs.push((w[0] + 1, w[1] - 1));
            }
        }
        segs.push((kmax, kmax));
        for (t0, t1) in segs {
            let len = t1 - t0 + 1;
            let s0 = self.sample(u0 + t0 * m, p);
            if len == 1 {
                acc.add(&s0);
                continue;
            }
            let s_end = self.sample(u0 + t1 * m, p);
            if len == 2 {
                acc.add(&s0);
                acc.add(&s_end);
                continue;
            }
            let s_mid = self.sample(u0 + (t0 + 1) * m, p);
            let c0 = components(&s0);
            let c_mid = components(&s_mid);
            let c_end = components(&s_end);
            let slope: Vec<i128> = c_mid.iter().zip(&c0).map(|(a, b)| a - b).collect();
            let affine = c_end
                .iter()
                .zip(&c0)
                .zip(&slope)
                .all(|((e, s), sl)| *e == *s + sl * (len as i128 - 1))
                && s0.worked == s_mid.worked
                && s0.worked == s_end.worked
                && s0.fired == s_mid.fired
                && s0.fired == s_end.fired;
            if affine {
                acc.add_run(&s0, &slope, len);
            } else {
                // Defense in depth: a missed breakpoint degrades to the
                // exact per-iteration walk, never to a wrong count.
                for t in t0..=t1 {
                    acc.add(&self.sample(u0 + t * m, p));
                }
            }
        }
    }

    /// Samples every quantity whose sign changes or branch switches can
    /// bend the per-iteration counts: inner bound values, guards,
    /// grid-column limits, block-interval inversions, and transfer
    /// subscripts. Crossings between any two of these lines are the
    /// only places the collapse body stops being affine.
    fn probe(&self, u: i64, p: usize) -> Vec<i64> {
        let point = [u, 0];
        let ib = &self.plan.bounds[1];
        let mut out = Vec::with_capacity(8 + 2 * self.plan.n_access);
        for b in &ib.lowers {
            out.push(b.lower(&point));
        }
        for b in &ib.uppers {
            out.push(b.upper(&point));
        }
        for g in &ib.guards {
            out.push(g.eval(&point));
            out.push(0);
        }
        let (vlo, vhi) = self
            .plan
            .restrict_to_grid_column(p, i64::MIN / 2, i64::MAX / 2);
        out.push(vlo);
        out.push(vhi);
        let p_acc = self.p_access(p);
        let procs = self.plan.procs;
        // A blocked subscript bends the count where its inverted block
        // interval (or, for an inner-invariant subscript, its value)
        // crosses another line.
        let mut blocked = |sub: &Flat, (blo, bhi): (i64, i64)| {
            let c = sub.eval(&point);
            if sub.a == 0 {
                out.extend([c, blo, bhi]);
            } else {
                let (wlo, whi) = invert_interval(sub.a, c, blo, bhi);
                out.extend([wlo, whi]);
            }
        };
        for (_, accesses) in &self.plan.stmts {
            for acc in accesses {
                match &acc.dist {
                    Dist::Local | Dist::Wrapped { .. } => {}
                    Dist::Blocked { sub, size } => {
                        blocked(sub, block_interval(p_acc as i64, *size, procs as i64));
                    }
                    Dist::Block2D {
                        row,
                        col,
                        sr,
                        sc,
                        pr,
                        pc,
                    } => {
                        let (tr, tc) = ((p_acc / pc) as i64, (p_acc % pc) as i64);
                        blocked(row, block_interval(tr, *sr, *pr as i64));
                        blocked(col, block_interval(tc, *sc, *pc as i64));
                    }
                }
            }
        }
        for t in &self.plan.transfers_at[0] {
            let s_val = t.sub.eval(&point);
            let t = t.block;
            let decl = self.plan.spmd.program.array(t.array);
            match decl.distribution {
                Distribution::Replicated | Distribution::Wrapped { .. } => {}
                Distribution::Blocked { dim } => {
                    let s = block_size(self.plan.extents[t.array.0][dim], self.plan.procs);
                    let (blo, bhi) = block_interval(p as i64, s, self.plan.procs as i64);
                    out.push(s_val);
                    out.push(blo);
                    out.push(bhi);
                }
                Distribution::Block2D { row_dim, col_dim } => {
                    let (pr, pc) = grid_shape(self.plan.procs);
                    let exts = &self.plan.extents[t.array.0];
                    let (g, s, tgt) = if t.dim == row_dim {
                        (pr, block_size(exts[row_dim], pr), (p / pc) as i64)
                    } else {
                        (pc, block_size(exts[col_dim], pc), (p % pc) as i64)
                    };
                    let (blo, bhi) = block_interval(tgt, s, g as i64);
                    out.push(s_val);
                    out.push(blo);
                    out.push(bhi);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::spmd::{generate_spmd, SpmdOptions};
    use an_codegen::transform::apply_transform;
    use an_core::{normalize, NormalizeOptions};
    use an_linalg::IMatrix;
    use an_numa::simulate;

    fn build_spmd(src: &str, transform: Option<IMatrix>, block: bool) -> SpmdProgram {
        let p = an_lang::parse(src).unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let t_mat = transform.unwrap_or(r.transform.clone());
        let tp = apply_transform(&p, &t_mat).unwrap();
        generate_spmd(
            &tp,
            Some(&r.dependences),
            &SpmdOptions {
                block_transfers: block,
            },
        )
    }

    fn assert_matches_sim(spmd: &SpmdProgram, params: &[i64], procs_list: &[usize]) {
        let machine = MachineConfig::butterfly_gp1000();
        for &procs in procs_list {
            let sim = simulate(spmd, &machine, procs, params).unwrap();
            let model = model_stats(spmd, &machine, procs, params).unwrap();
            assert_eq!(model, sim, "P={procs}");
        }
    }

    fn check(src: &str, params: &[i64], transform: Option<IMatrix>) {
        for block in [true, false] {
            let spmd = build_spmd(src, transform.clone(), block);
            assert_matches_sim(&spmd, params, &[1, 2, 3, 4, 5, 8]);
        }
    }

    #[test]
    fn matches_sim_figure1() {
        check(
            "param N1 = 17; param b = 3; param N2 = 9;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
            &[17, 3, 9],
            None,
        );
    }

    #[test]
    fn matches_sim_gemm_naive_and_normalized() {
        let src = "param N = 13;
             array C[N, N] distribute wrapped(1);
             array A[N, N] distribute wrapped(1);
             array B[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
                 C[i, j] = C[i, j] + A[i, k] * B[k, j];
             } } }";
        check(src, &[13], Some(IMatrix::identity(3)));
        check(src, &[13], None);
    }

    #[test]
    fn matches_sim_blocked_depth2() {
        check(
            "param N = 19;
             array A[N, N] distribute blocked(0);
             array B[N, N] distribute blocked(1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[j, i] = A[j, i] + B[i, j];
             } }",
            &[19],
            Some(IMatrix::identity(2)),
        );
    }

    #[test]
    fn matches_sim_block2d() {
        check(
            "param N = 16;
             array A[N, N] distribute block2d(0, 1);
             array B[N, N] distribute block2d(0, 1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[i, j] = A[i, j] + B[j, i];
             } }",
            &[16],
            Some(IMatrix::identity(2)),
        );
    }

    #[test]
    fn matches_sim_depth1() {
        check(
            "param N = 29;
             array A[N] distribute wrapped(0);
             array B[N] distribute blocked(0);
             for i = 0, N - 1 { A[i] = A[i] + B[i]; }",
            &[29],
            Some(IMatrix::identity(1)),
        );
    }

    #[test]
    fn matches_sim_triangular_skewed() {
        check(
            "param N = 21;
             array A[N, N] distribute wrapped(0);
             for i = 0, N - 1 { for j = i, N - 1 {
                 A[i, j] = A[i, j] + 1.0;
             } }",
            &[21],
            Some(IMatrix::identity(2)),
        );
    }

    #[test]
    fn same_errors_as_sim() {
        let spmd = build_spmd(
            "param N = 4;
             array A[N, N] distribute wrapped(1);
             for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[i, j] + 1.0; } }",
            Some(IMatrix::identity(2)),
            false,
        );
        let machine = MachineConfig::butterfly_gp1000();
        assert_eq!(
            model_stats(&spmd, &machine, 0, &[4]),
            Err(SimError::NoProcessors)
        );
        assert_eq!(
            model_stats(&spmd, &machine, 2, &[]),
            Err(SimError::BadParameters {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn mutations_diverge_from_sim() {
        // A depth-2 nest long enough (19 ≥ 3·M at P = 4) that level 0
        // collapses: the mutation hooks live in the collapse.
        let spmd = build_spmd(
            "param N = 19;
             array A[N, N] distribute blocked(0);
             array B[N, N] distribute blocked(1);
             for i = 0, N - 1 { for j = 0, N - 1 {
                 A[j, i] = A[j, i] + B[i, j];
             } }",
            Some(IMatrix::identity(2)),
            false,
        );
        let machine = MachineConfig::butterfly_gp1000();
        let sim = simulate(&spmd, &machine, 4, &[19]).unwrap();
        for m in [
            Mutation::TripOffByOne,
            Mutation::DropRemoteTerm,
            Mutation::WrongOwnershipPlane,
        ] {
            let mutated = model_stats_mutated(&spmd, &machine, 4, &[19], m).unwrap();
            let diverges = mutated.per_proc.iter().zip(&sim.per_proc).any(|(a, b)| {
                a.local_accesses != b.local_accesses || a.remote_accesses != b.remote_accesses
            });
            assert!(diverges, "{m:?} not caught");
        }
        let faithful = model_stats_mutated(&spmd, &machine, 4, &[19], Mutation::None).unwrap();
        for (a, b) in faithful.per_proc.iter().zip(&sim.per_proc) {
            assert_eq!(a.local_accesses, b.local_accesses);
            assert_eq!(a.remote_accesses, b.remote_accesses);
        }
    }
}
