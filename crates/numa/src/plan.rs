//! The per-processor *domain plan*: the structure every cost evaluator
//! prices, derived once from an [`SpmdProgram`].
//!
//! The paper's claim is a counting argument — per processor, how many
//! accesses are local, how many remote, how many block transfers fire.
//! The inputs to that count are the same whoever does the counting:
//! array extents, each access's distribution subscript flattened for the
//! innermost loop, which reads a hoisted transfer covers, which outer
//! iterations a processor executes, and where a transfer's slice lives.
//! This module owns all of them, and the one innermost count
//! ([`Plan::local_hits`]). The simulator ([`mod@crate::simulate`]) is the
//! *enumerating* evaluator of a [`Plan`] (it takes over at the innermost
//! loop); `an-model` is the *closed-form* evaluator of the same plan (it
//! takes over one level higher and collapses that level into residue
//! classes, handing the levels it cannot collapse to the simulator's
//! walk). Both only count; [`evaluate`] turns each processor's counts
//! into time with [`MachineConfig::busy_us`].

use crate::distribution::{
    block_interval, block_size, count_block2d, count_interval_hits, count_wrapped_hits, grid_shape,
    home_of, invert_interval, validate_extents, HEADROOM,
};
use crate::machine::MachineConfig;
use crate::stats::{FaultStats, ProcStats, SimStats};
use crate::SimError;
use an_codegen::spmd::{OuterAssignment, SpmdProgram};
use an_codegen::transfers::BlockTransfer;
use an_ir::nest::magnitude;
use an_ir::{ArrayId, ArrayRef, Distribution, IrError, Stmt};
use an_linalg::{div_floor, mod_floor};
use an_poly::Affine;

/// A distribution subscript flattened for innermost-loop pricing: the
/// constant-plus-parameter part is folded into `base` and the innermost
/// variable's coefficient is split out as `a`, so pricing an access at
/// an iteration prefix is one dot product — no `Affine` re-walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Flat {
    /// Coefficient of the innermost loop variable.
    pub a: i64,
    /// Constant term plus the parameter terms at the plan's parameters.
    pub base: i128,
    /// Loop-variable coefficients with the innermost slot zeroed.
    pub coeffs: Vec<i64>,
}

impl Flat {
    /// The subscript's value at `point` minus its innermost-variable
    /// term (the innermost slot's coefficient is zero, so whatever
    /// `point` holds there never matters).
    #[inline]
    pub fn eval(&self, point: &[i64]) -> i64 {
        let mut acc = self.base;
        for (c, v) in self.coeffs.iter().zip(point) {
            acc += *c as i128 * *v as i128;
        }
        i64::try_from(acc).expect("affine evaluation overflow")
    }
}

/// Flattens subscript `s` around the innermost loop variable `inner`.
pub fn flatten(s: &Affine, inner: usize, params: &[i64]) -> Flat {
    let mut base = s.constant_term() as i128;
    for (c, v) in s.param_coeffs().iter().zip(params) {
        base += *c as i128 * *v as i128;
    }
    let mut coeffs = s.var_coeffs().to_vec();
    let a = coeffs.get(inner).copied().unwrap_or(0);
    if inner < coeffs.len() {
        coeffs[inner] = 0;
    }
    Flat { a, base, coeffs }
}

/// How an access's home depends on the iteration point.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always local: replicated array, or a single processor.
    Local,
    /// Home is `subscript mod P`.
    Wrapped(Flat),
    /// Home is `subscript / size`, clamped to the processor range.
    Blocked {
        /// The distribution-dimension subscript.
        sub: Flat,
        /// Block size `ceil(extent / P)`.
        size: i64,
    },
    /// Home is the `(row / sr, col / sc)` cell of a `pr × pc` grid.
    Block2D {
        /// The row-dimension subscript.
        row: Flat,
        /// The column-dimension subscript.
        col: Flat,
        /// Row block size.
        sr: i64,
        /// Column block size.
        sc: i64,
        /// Grid rows.
        pr: usize,
        /// Grid columns.
        pc: usize,
    },
}

/// One array access of the loop body with its costing info resolved.
#[derive(Debug, Clone)]
pub struct Access<'a> {
    /// The reference as written in the program.
    pub r: &'a ArrayRef,
    /// Its home function over the iteration space.
    pub dist: Dist,
    /// `true` if a hoisted block transfer supplies this element locally.
    pub covered: bool,
}

/// A hoisted block transfer with its (point-independent) size.
#[derive(Debug, Clone)]
pub struct Transfer<'a> {
    /// The transfer as generated by `an-codegen`.
    pub block: &'a BlockTransfer,
    /// Elements moved per firing.
    pub elements: i64,
    /// Bytes moved per firing.
    pub bytes: u64,
}

impl Transfer<'_> {
    /// Counts one firing.
    pub fn charge(&self, stats: &mut ProcStats) {
        stats.messages += 1;
        stats.transfer_bytes += self.bytes;
    }
}

/// Whether every distribution dimension of read `r` has a matching
/// hoisted transfer (writes are never covered).
pub fn covered(spmd: &SpmdProgram, r: &ArrayRef, is_write: bool) -> bool {
    let dims = spmd.program.array(r.array).distribution.dims();
    !is_write
        && !dims.is_empty()
        && dims.iter().all(|&dim| {
            spmd.transfers
                .iter()
                .any(|t| t.array == r.array && t.dim == dim && t.subscript == r.subscripts[dim])
        })
}

/// What an evaluator adds to the shared level walk.
pub trait Evaluator {
    /// Counts everything from the take-over level down at the iteration
    /// prefix in `point`; returns whether any full-depth iteration
    /// executed there.
    ///
    /// # Errors
    ///
    /// [`SimError::UnboundedLoop`] if a bound below the prefix cannot be
    /// evaluated.
    fn leaf(&self, p: usize, point: &mut [i64], stats: &mut ProcStats) -> Result<bool, SimError>;

    /// Counts transfer `t`, hoisted above the take-over level, firing
    /// for processor `p` at an iteration prefix that did real work.
    fn transfer(&self, t: &Transfer<'_>, _p: usize, _point: &[i64], stats: &mut ProcStats) {
        t.charge(stats);
    }
}

/// The domain plan of one `(program, machine, P, parameters)` point.
#[derive(Debug)]
pub struct Plan<'a> {
    /// The program being priced.
    pub spmd: &'a SpmdProgram,
    /// The machine whose constants price it.
    pub machine: &'a MachineConfig,
    /// Processor count.
    pub procs: usize,
    /// Parameter values.
    pub params: &'a [i64],
    /// Array extents at `params`, indexed by [`an_ir::ArrayId`].
    pub extents: Vec<Vec<i64>>,
    /// Per statement: (operation count, accesses — the write first, then
    /// the reads in evaluation order).
    pub stmts: Vec<(u64, Vec<Access<'a>>)>,
    /// Total accesses per iteration over all statements.
    pub n_access: usize,
    /// Transfers grouped by hoist level.
    pub transfers_at: Vec<Vec<Transfer<'a>>>,
}

impl<'a> Plan<'a> {
    /// Builds the plan. Extents must already be validated
    /// ([`validate_extents`]); [`evaluate`] does so, and validates the
    /// built plan's subscripts before pricing it.
    pub fn build(
        spmd: &'a SpmdProgram,
        machine: &'a MachineConfig,
        procs: usize,
        params: &'a [i64],
    ) -> Plan<'a> {
        let program = &spmd.program;
        let extents: Vec<Vec<i64>> = program.arrays.iter().map(|a| a.extents(params)).collect();
        let mut transfers_at = vec![Vec::new(); program.nest.depth()];
        for block in &spmd.transfers {
            let elements = block.elements(program, params);
            transfers_at[block.level].push(Transfer {
                block,
                elements,
                bytes: (elements.max(0) as u64) * machine.element_bytes as u64,
            });
        }
        let plan_access = |r: &'a ArrayRef, is_write: bool| {
            let inner = program.nest.depth() - 1;
            let exts = &extents[r.array.0];
            let dist = match program.array(r.array).distribution {
                Distribution::Replicated => Dist::Local,
                _ if procs == 1 => Dist::Local,
                Distribution::Wrapped { dim } => {
                    Dist::Wrapped(flatten(&r.subscripts[dim], inner, params))
                }
                Distribution::Blocked { dim } => Dist::Blocked {
                    sub: flatten(&r.subscripts[dim], inner, params),
                    size: block_size(exts[dim], procs),
                },
                Distribution::Block2D { row_dim, col_dim } => {
                    let (pr, pc) = grid_shape(procs);
                    Dist::Block2D {
                        row: flatten(&r.subscripts[row_dim], inner, params),
                        col: flatten(&r.subscripts[col_dim], inner, params),
                        sr: block_size(exts[row_dim], pr),
                        sc: block_size(exts[col_dim], pc),
                        pr,
                        pc,
                    }
                }
            };
            Access {
                r,
                dist,
                covered: covered(spmd, r, is_write),
            }
        };
        let stmts: Vec<(u64, Vec<Access<'a>>)> = program
            .nest
            .body
            .iter()
            .map(|stmt| {
                let Stmt::Assign { lhs, rhs } = stmt else {
                    return (0, Vec::new());
                };
                let mut accesses = vec![plan_access(lhs, true)];
                accesses.extend(rhs.reads().into_iter().map(|r| plan_access(r, false)));
                (rhs.op_count(), accesses)
            })
            .collect();
        Plan {
            spmd,
            machine,
            procs,
            params,
            n_access: stmts.iter().map(|(_, a)| a.len()).sum(),
            stmts,
            transfers_at,
            extents,
        }
    }

    /// A variable-free affine form (an outer-assignment offset) at the
    /// plan's parameters.
    fn offset(&self, a: &Affine) -> i64 {
        let zeros = vec![0i64; self.spmd.program.nest.space.num_vars()];
        a.eval(&zeros, self.params)
    }

    /// Whether processor `p` executes iterations with `value` at `level`
    /// (level 0 for every assignment; level 1 additionally for 2-D
    /// tiling).
    pub fn executes_level(&self, level: usize, p: usize, value: i64) -> bool {
        if self.procs == 1 {
            return true;
        }
        match &self.spmd.outer {
            OuterAssignment::RoundRobin => {
                level != 0 || mod_floor(value, self.procs as i64) == p as i64
            }
            OuterAssignment::ByHome {
                array,
                dim: _,
                coeff,
                offset,
            } => {
                if level != 0 {
                    return true;
                }
                let decl = self.spmd.program.array(*array);
                // Home along the (single) distribution dimension.
                let mut idx = vec![0i64; decl.rank()];
                idx[decl.distribution.dims()[0]] = coeff * value + self.offset(offset);
                home_of(decl, &self.extents[array.0], &idx, self.procs).is_local_to(p)
            }
            OuterAssignment::ByHome2D {
                array,
                row_dim,
                col_dim,
                row_coeff,
                row_offset,
                col_coeff,
                col_offset,
            } => {
                let (gr, gc) = grid_shape(self.procs);
                let extents = &self.extents[array.0];
                let cell = |s_val: i64, extent: i64, g: usize| {
                    div_floor(s_val, block_size(extent, g)).clamp(0, g as i64 - 1) as usize
                };
                match level {
                    0 => {
                        let s_val = row_coeff * value + self.offset(row_offset);
                        cell(s_val, extents[*row_dim], gr) == p / gc
                    }
                    1 => {
                        let s_val = col_coeff * value + self.offset(col_offset);
                        cell(s_val, extents[*col_dim], gc) == p % gc
                    }
                    _ => true,
                }
            }
        }
    }

    /// Intersects `[lo, hi]` with the second-loop values processor `p`
    /// owns under 2-D tiling (the whole range for other assignments).
    pub fn restrict_to_grid_column(&self, p: usize, lo: i64, hi: i64) -> (i64, i64) {
        let OuterAssignment::ByHome2D {
            array,
            col_dim,
            col_coeff,
            col_offset,
            ..
        } = &self.spmd.outer
        else {
            return (lo, hi);
        };
        if self.procs == 1 {
            return (lo, hi);
        }
        let (_, gc) = grid_shape(self.procs);
        let sc = block_size(self.extents[array.0][*col_dim], gc);
        let (blo, bhi) = block_interval((p % gc) as i64, sc, gc as i64);
        // blo <= col_coeff·v + off <= bhi.
        let (vlo, vhi) = invert_interval(*col_coeff, self.offset(col_offset), blo, bhi);
        (lo.max(vlo), hi.min(vhi))
    }

    /// Whether transfer `t` moves data for processor `p` at `point`:
    /// `false` when the slice it names is already local.
    pub fn transfer_fires(&self, t: &BlockTransfer, p: usize, point: &[i64]) -> bool {
        if self.procs == 1 {
            return false;
        }
        let decl = self.spmd.program.array(t.array);
        if decl.distribution == Distribution::Replicated {
            return false;
        }
        let mut idx = vec![0i64; decl.rank()];
        idx[t.dim] = t.subscript.eval(point, self.params);
        !home_of(decl, &self.extents[t.array.0], &idx, self.procs).is_local_to(p)
    }

    /// How many `w ∈ [lo, hi]` of the innermost loop at `point` find
    /// access `acc` local to processor `p`: every one for a covered read
    /// or a local array, else the closed-form count of its distribution.
    #[inline]
    pub fn local_hits(&self, acc: &Access<'_>, lo: i64, hi: i64, p: usize, point: &[i64]) -> i64 {
        if lo > hi {
            return 0;
        }
        let procs = self.procs;
        match &acc.dist {
            _ if acc.covered => hi - lo + 1,
            Dist::Local => hi - lo + 1,
            Dist::Wrapped(sub) => count_wrapped_hits(lo, hi, sub.a, sub.eval(point), procs, p),
            Dist::Blocked { sub, size } => {
                let (blo, bhi) = block_interval(p as i64, *size, procs as i64);
                count_interval_hits(lo, hi, sub.a, sub.eval(point), blo, bhi)
            }
            Dist::Block2D {
                row,
                col,
                sr,
                sc,
                pr,
                pc,
            } => count_block2d(
                lo,
                hi,
                (row.a, row.eval(point)),
                (col.a, col.eval(point)),
                *sr,
                *sc,
                *pr,
                *pc,
                p,
            ),
        }
    }

    /// Counts processor `p`'s slice of the iteration space: the shared
    /// walk over loop levels `0..leaf_level`, with `eval` taking over at
    /// `leaf_level`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnboundedLoop`] if a loop bound cannot be evaluated.
    pub fn run_processor(
        &self,
        eval: &impl Evaluator,
        leaf_level: usize,
        p: usize,
    ) -> Result<ProcStats, SimError> {
        let mut stats = ProcStats::default();
        let mut point = vec![0i64; self.spmd.program.nest.depth()];
        self.walk(eval, leaf_level, 0, p, &mut point, &mut stats)?;
        Ok(stats)
    }

    /// Walks one loop level; returns `true` if any full-depth iteration
    /// executed below it. Hoisted transfers (and outer-iteration
    /// counting) fire only for prefixes with real work, matching an
    /// element-by-element execution.
    pub(crate) fn walk(
        &self,
        eval: &impl Evaluator,
        leaf_level: usize,
        level: usize,
        p: usize,
        point: &mut [i64],
        stats: &mut ProcStats,
    ) -> Result<bool, SimError> {
        if level == leaf_level {
            return eval.leaf(p, point, stats);
        }
        let (lo, hi) = self.spmd.program.nest.bounds[level]
            .eval(point, self.params)
            .ok_or(SimError::UnboundedLoop { var: level })?;
        let mut any = false;
        for v in lo..=hi {
            point[level] = v;
            if level <= 1 && !self.executes_level(level, p, v) {
                continue;
            }
            if self.walk(eval, leaf_level, level + 1, p, point, stats)? {
                any = true;
                if level == 0 {
                    stats.outer_iterations += 1;
                }
                for t in &self.transfers_at[level] {
                    if self.transfer_fires(t.block, p, point) {
                        eval.transfer(t, p, point, stats);
                    }
                }
            }
        }
        point[level] = 0;
        Ok(any)
    }
}

/// Rejects a program whose loop bounds, subscripts, transfer subscripts,
/// outer-assignment subscript or blocked extents can leave the range the
/// evaluators compute in at `params`. Both evaluators narrow these forms
/// — and partial sums of them: [`Flat::eval`] leaves the innermost term
/// out, [`Plan::executes_level`] adds the offset to a product — to `i64`
/// unchecked at every iteration prefix, and invert block intervals and
/// take trip counts by subtracting two of them; like
/// [`validate_extents`], this runs once up front so those fast paths
/// stay total.
///
/// The test is the magnitude bound of [`LoopNest::reach`] rather than an
/// exact range, so that every partial sum is covered too. A wrapped or
/// undistributed subscript must stay inside `i64`; every loop variable,
/// blocked subscript and blocked extent inside [`HEADROOM`].
///
/// # Errors
///
/// [`SimError::BoundOverflow`] naming the first offending loop,
/// [`SimError::BadExtent`] or [`SimError::SubscriptOverflow`] naming the
/// first offending array dimension.
///
/// [`LoopNest::reach`]: an_ir::LoopNest::reach
fn validate_ranges(plan: &Plan<'_>) -> Result<(), SimError> {
    let (spmd, params) = (plan.spmd, plan.params);
    let program = &spmd.program;
    let reach = program.nest.reach(params).map_err(|e| match e {
        IrError::BoundOverflow { var } => SimError::BoundOverflow { var },
        _ => unreachable!("`LoopNest::reach` fails only on a bound overflow"),
    })?;
    if reach.len() < program.nest.depth() {
        return Ok(()); // a loop without bounds: the walk reports `UnboundedLoop`
    }
    if let Some(var) = reach.iter().position(|&m| m > HEADROOM as i128) {
        return Err(SimError::BoundOverflow { var });
    }
    let blocked = |array: ArrayId, dim: usize| {
        let d = &program.array(array).distribution;
        matches!(
            d,
            Distribution::Blocked { .. } | Distribution::Block2D { .. }
        ) && d.dims().contains(&dim)
    };
    for (id, exts) in plan.extents.iter().enumerate() {
        let array = ArrayId(id);
        if let Some((dim, &extent)) = exts
            .iter()
            .enumerate()
            .find(|&(dim, &e)| blocked(array, dim) && e > HEADROOM)
        {
            return Err(SimError::BadExtent {
                array: program.array(array).name.clone(),
                dim,
                extent,
            });
        }
    }
    let check = |bound: i128, array: ArrayId, dim: usize| {
        let limit = if blocked(array, dim) {
            HEADROOM
        } else {
            i64::MAX
        };
        if bound <= limit as i128 {
            return Ok(());
        }
        Err(SimError::SubscriptOverflow {
            array: program.array(array).name.clone(),
            dim,
        })
    };
    for acc in plan.stmts.iter().flat_map(|(_, accesses)| accesses) {
        for (dim, s) in acc.r.subscripts.iter().enumerate() {
            check(magnitude(s, params, &reach), acc.r.array, dim)?;
        }
    }
    for t in &spmd.transfers {
        check(magnitude(&t.subscript, params, &reach), t.array, t.dim)?;
    }
    // `coeff · v_level + offset`, as `Plan::executes_level` computes it.
    let owner = |level: usize, coeff: i64, offset: &Affine| {
        let m = reach.get(level).copied().unwrap_or(0);
        magnitude(offset, params, &[]).saturating_add((coeff as i128).abs().saturating_mul(m))
    };
    match &spmd.outer {
        OuterAssignment::RoundRobin => Ok(()),
        OuterAssignment::ByHome {
            array,
            dim,
            coeff,
            offset,
        } => check(owner(0, *coeff, offset), *array, *dim),
        OuterAssignment::ByHome2D {
            array,
            row_dim,
            col_dim,
            row_coeff,
            row_offset,
            col_coeff,
            col_offset,
        } => {
            check(owner(0, *row_coeff, row_offset), *array, *row_dim)?;
            check(owner(1, *col_coeff, col_offset), *array, *col_dim)
        }
    }
}

/// The entry point both evaluators share: validates the request, builds
/// the [`Plan`], counts each processor in order with `per_proc`, adds
/// [`MachineConfig::busy_us`] of its counts to its busy time, and folds
/// the completion time.
///
/// # Errors
///
/// [`SimError::NoProcessors`] for `procs == 0`,
/// [`SimError::BadParameters`] for an arity mismatch,
/// [`SimError::BadExtent`] for a negative array extent (or a blocked one
/// past [`HEADROOM`]), [`SimError::BoundOverflow`] and
/// [`SimError::SubscriptOverflow`] for a bound or subscript that can leave
/// the range the evaluators compute in,
/// and the first (in processor order) error `per_proc` returns.
pub fn evaluate(
    spmd: &SpmdProgram,
    machine: &MachineConfig,
    procs: usize,
    params: &[i64],
    per_proc: impl Fn(&Plan<'_>, usize) -> Result<ProcStats, SimError>,
) -> Result<SimStats, SimError> {
    if procs == 0 {
        return Err(SimError::NoProcessors);
    }
    let program = &spmd.program;
    if params.len() != program.params.len() {
        return Err(SimError::BadParameters {
            expected: program.params.len(),
            got: params.len(),
        });
    }
    validate_extents(program, params)?;
    let plan = Plan::build(spmd, machine, procs, params);
    validate_ranges(&plan)?;
    let per_proc = (0..procs)
        .map(|p| {
            let mut stats = per_proc(&plan, p)?;
            stats.busy_us += machine.busy_us(&stats, procs);
            Ok(stats)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let time_us = if spmd.outer_carried {
        per_proc.iter().map(|s| s.busy_us).sum()
    } else {
        per_proc.iter().map(|s| s.busy_us).fold(0.0, f64::max)
    };
    Ok(SimStats {
        procs,
        time_us,
        per_proc,
        faults: FaultStats::default(),
    })
}
