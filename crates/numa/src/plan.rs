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
//! ([`Plan::local_hits`]), but no walk over the loop levels. The
//! simulator ([`mod@crate::simulate`]) is the *enumerating* evaluator of a
//! [`Plan`]: it walks the levels above the innermost loop, and on a nest
//! of depth 3 or more sums every range of the second-innermost one that
//! holds at least [`crate::simulate::MIN_SUMMED`] values in closed form
//! instead of visiting it (module `level_sum`). `an-model` prices with
//! the same walk ([`crate::simulate::sum_from`]), which on a depth-2 nest
//! also sums level 0 with that closed form, over the values of the
//! distributed loop each processor executes. Both only count;
//! [`evaluate`] turns each processor's counts into time with
//! [`MachineConfig::busy_us`].
//!
//! Everything a walk evaluates is bound to the parameters once, here:
//! each level's loop bounds ([`LevelBounds`]), each access subscript and
//! transfer slice subscript ([`Flat`]), the outer assignment's offsets
//! ([`Plan::owner_offsets`]), and each wrapped access's innermost
//! congruence ([`ResidueSolver`]). The walk's ownership, transfer and
//! innermost-count checks are then dot products and a few integer
//! divisions — no `Affine` re-walk and no allocation.

use crate::distribution::{
    block_interval, block_size, count_block2d, count_interval_hits, grid_shape, home_along,
    invert_interval, validate_extents, Home, ResidueSolver, HEADROOM,
};
use crate::machine::MachineConfig;
use crate::stats::{FaultStats, ProcStats, SimStats};
use crate::SimError;
use an_codegen::spmd::{OuterAssignment, SpmdProgram};
use an_codegen::transfers::BlockTransfer;
use an_ir::nest::magnitude;
use an_ir::{ArrayId, ArrayRef, Distribution, IrError, Stmt};
use an_linalg::{div_ceil, div_floor, mod_floor};
use an_poly::{Affine, BoundExpr, LoopBounds};

/// An affine form bound to the plan's parameters: the constant-plus-
/// parameter part is folded into `base` and, for a distribution
/// subscript, the innermost variable's coefficient is split out as `a`,
/// so evaluating the form at an iteration prefix is one dot product —
/// no `Affine` re-walk.
#[derive(Debug, Clone, PartialEq)]
pub struct Flat {
    /// Coefficient of the innermost loop variable (0 for a form bound
    /// whole by [`Flat::bind`]).
    pub a: i64,
    /// Constant term plus the parameter terms at the plan's parameters.
    pub base: i128,
    /// Loop-variable coefficients up to the last non-zero one, with the
    /// split-out innermost slot zeroed.
    pub coeffs: Vec<i64>,
}

impl Flat {
    /// Binds `s` to `params`, keeping every loop variable in `coeffs`.
    pub fn bind(s: &Affine, params: &[i64]) -> Flat {
        Flat::split(s, None, params)
    }

    /// Binds `s` to `params`, splitting out the coefficient of loop
    /// variable `inner` when there is one.
    fn split(s: &Affine, inner: Option<usize>, params: &[i64]) -> Flat {
        let mut base = s.constant_term() as i128;
        for (c, v) in s.param_coeffs().iter().zip(params) {
            base += *c as i128 * *v as i128;
        }
        let mut coeffs = s.var_coeffs().to_vec();
        let a = inner
            .and_then(|k| coeffs.get_mut(k))
            .map_or(0, std::mem::take);
        let used = coeffs.iter().rposition(|&c| c != 0).map_or(0, |k| k + 1);
        coeffs.truncate(used);
        Flat { a, base, coeffs }
    }

    /// The coefficient of loop variable `k` (0 past the last non-zero
    /// one, and for the split-out innermost slot).
    #[inline]
    pub fn coeff(&self, k: usize) -> i64 {
        self.coeffs.get(k).copied().unwrap_or(0)
    }

    /// The form's value at `point` minus its innermost-variable term
    /// (the innermost slot's coefficient is zero, so whatever `point`
    /// holds there never matters).
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
    Flat::split(s, Some(inner), params)
}

/// One loop-bound term bound to the plan's parameters: `⌈form / divisor⌉`
/// as a lower bound, `⌊form / divisor⌋` as an upper one. A divisor of 1
/// takes no division.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTerm {
    /// The numerator.
    pub form: Flat,
    /// The positive divisor.
    pub divisor: i64,
}

impl BoundTerm {
    /// The term as a lower bound at `point`.
    #[inline]
    pub fn lower(&self, point: &[i64]) -> i64 {
        let v = self.form.eval(point);
        if self.divisor == 1 {
            v
        } else {
            div_ceil(v, self.divisor)
        }
    }

    /// The term as an upper bound at `point`.
    #[inline]
    pub fn upper(&self, point: &[i64]) -> i64 {
        let v = self.form.eval(point);
        if self.divisor == 1 {
            v
        } else {
            div_floor(v, self.divisor)
        }
    }
}

/// One level's [`LoopBounds`] bound to the plan's parameters: the same
/// guards, lowers and uppers, each a [`Flat`] form.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelBounds {
    /// Guards `g ≥ 0`; a violated one empties the loop.
    pub guards: Vec<Flat>,
    /// Lower-bound terms (take the maximum).
    pub lowers: Vec<BoundTerm>,
    /// Upper-bound terms (take the minimum).
    pub uppers: Vec<BoundTerm>,
}

impl LevelBounds {
    /// Binds `bounds` to `params`.
    pub fn bind(bounds: &LoopBounds, params: &[i64]) -> LevelBounds {
        let terms = |exprs: &[BoundExpr]| {
            exprs
                .iter()
                .map(|b| BoundTerm {
                    form: Flat::bind(&b.expr, params),
                    divisor: b.divisor,
                })
                .collect()
        };
        LevelBounds {
            guards: bounds
                .guards
                .iter()
                .map(|g| Flat::bind(g, params))
                .collect(),
            lowers: terms(&bounds.lowers),
            uppers: terms(&bounds.uppers),
        }
    }

    /// [`LoopBounds::eval`] at `point` and the bound parameters: the
    /// loop's `(lo, hi)`, `(0, -1)` under a violated guard, `None` if it
    /// is unbounded on either side.
    #[inline]
    pub fn eval(&self, point: &[i64]) -> Option<(i64, i64)> {
        if self.guards.iter().any(|g| g.eval(point) < 0) {
            return Some((0, -1));
        }
        let lo = self.lowers.iter().map(|b| b.lower(point)).max()?;
        let hi = self.uppers.iter().map(|b| b.upper(point)).min()?;
        Some((lo, hi))
    }
}

/// How an access's home depends on the iteration point.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always local: replicated array, or a single processor.
    Local,
    /// Home is `subscript mod P`.
    Wrapped {
        /// The distribution-dimension subscript.
        sub: Flat,
        /// Its innermost congruence, solved once for the plan's `P`.
        solver: ResidueSolver,
    },
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

/// A hoisted block transfer with its (point-independent) size and its
/// slice subscript bound to the plan's parameters.
#[derive(Debug, Clone)]
pub struct Transfer<'a> {
    /// The transfer as generated by `an-codegen`.
    pub block: &'a BlockTransfer,
    /// The slice subscript along the transfer's dimension.
    pub sub: Flat,
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
    /// Loop bounds per level, bound to `params`.
    pub bounds: Vec<LevelBounds>,
    /// The outer assignment's variable-free subscript parts at `params`,
    /// by the level they distribute: `ByHome`'s offset at level 0,
    /// `ByHome2D`'s row offset at level 0 and column offset at level 1.
    pub owner_offsets: [i64; 2],
    /// The dimension `ByHome`'s filter homes along: its array's first
    /// distribution dimension.
    owner_dim: usize,
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
                sub: Flat::bind(&block.subscript, params),
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
                    let sub = flatten(&r.subscripts[dim], inner, params);
                    let solver = ResidueSolver::new(sub.a, procs);
                    Dist::Wrapped { sub, solver }
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
        // Validation rejects an offset past `i64` before any evaluator
        // reads one, so saturating here only keeps the build total.
        let bind = |offset: &Affine| {
            let v = Flat::bind(offset, params).base;
            v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
        };
        let (owner_offsets, owner_dim) = match &spmd.outer {
            OuterAssignment::RoundRobin => ([0, 0], 0),
            OuterAssignment::ByHome { array, offset, .. } => {
                let dims = program.array(*array).distribution.dims();
                ([bind(offset), 0], dims.first().copied().unwrap_or(0))
            }
            OuterAssignment::ByHome2D {
                row_offset,
                col_offset,
                ..
            } => ([bind(row_offset), bind(col_offset)], 0),
        };
        Plan {
            spmd,
            machine,
            procs,
            params,
            n_access: stmts.iter().map(|(_, a)| a.len()).sum(),
            stmts,
            transfers_at,
            bounds: program
                .nest
                .bounds
                .iter()
                .map(|b| LevelBounds::bind(b, params))
                .collect(),
            owner_offsets,
            owner_dim,
            extents,
        }
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
            OuterAssignment::ByHome { array, coeff, .. } => {
                if level != 0 {
                    return true;
                }
                let s_val = coeff * value + self.owner_offsets[0];
                self.home_along(*array, self.owner_dim, s_val)
                    .is_local_to(p)
            }
            OuterAssignment::ByHome2D {
                array,
                row_dim,
                col_dim,
                row_coeff,
                col_coeff,
                ..
            } => {
                let (gr, gc) = grid_shape(self.procs);
                let extents = &self.extents[array.0];
                let cell = |s_val: i64, extent: i64, g: usize| {
                    div_floor(s_val, block_size(extent, g)).clamp(0, g as i64 - 1) as usize
                };
                match level {
                    0 => {
                        let s_val = row_coeff * value + self.owner_offsets[0];
                        cell(s_val, extents[*row_dim], gr) == p / gc
                    }
                    1 => {
                        let s_val = col_coeff * value + self.owner_offsets[1];
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
        let (vlo, vhi) = invert_interval(*col_coeff, self.owner_offsets[1], blo, bhi);
        (lo.max(vlo), hi.min(vhi))
    }

    /// The home of element `value` along dimension `dim` of `array`
    /// (zero along every other dimension).
    #[inline]
    fn home_along(&self, array: ArrayId, dim: usize, value: i64) -> Home {
        let decl = self.spmd.program.array(array);
        home_along(decl, &self.extents[array.0], dim, value, self.procs)
    }

    /// Whether transfer `t` moves data for processor `p` at `point`:
    /// `false` when the slice it names is already local.
    #[inline]
    pub fn transfer_fires(&self, t: &Transfer<'_>, p: usize, point: &[i64]) -> bool {
        self.procs != 1
            && !self
                .home_along(t.block.array, t.block.dim, t.sub.eval(point))
                .is_local_to(p)
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
            Dist::Wrapped { sub, solver } => solver.count(lo, hi, sub.eval(point), p),
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
