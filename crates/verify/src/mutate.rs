//! Seeded artifact corruptions for exercising the verifier.
//!
//! Each [`Mutation`] produces compiled artifacts that are *plausibly*
//! wrong — the kind of damage a codegen bug would cause — together with
//! the diagnostic code the verifier is expected to raise. The mutation
//! harness in `tests/` and `anc check --mutate` both drive this module,
//! so a detection regression shows up identically in both.

use crate::diag::Code;
use crate::oracle::{oracle_distances, ConcreteContext};
use an_codegen::TransformedProgram;
use an_codegen::{apply_transform, generate_spmd, OuterAssignment, SpmdOptions, SpmdProgram};
use an_ir::{Program, Stmt};
use an_linalg::lex_positive;
use an_poly::Affine;

/// One seeded corruption of the compiled artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Negate a row of `T` so a dependence runs backwards.
    FlipTransformSign,
    /// Widen one Fourier–Motzkin bound so extra iterations are scanned.
    WidenBound,
    /// Narrow one Fourier–Motzkin bound so iterations are dropped.
    NarrowBound,
    /// Drop one emitted block transfer.
    DropTransfer,
    /// Shift the ownership split off the data it claims to localize.
    SkewOwnership,
}

impl Mutation {
    /// All mutations, in a fixed order.
    pub fn all() -> [Mutation; 5] {
        [
            Mutation::FlipTransformSign,
            Mutation::WidenBound,
            Mutation::NarrowBound,
            Mutation::DropTransfer,
            Mutation::SkewOwnership,
        ]
    }

    /// Stable kebab-case name (CLI argument syntax).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::FlipTransformSign => "flip-transform-sign",
            Mutation::WidenBound => "widen-bound",
            Mutation::NarrowBound => "narrow-bound",
            Mutation::DropTransfer => "drop-transfer",
            Mutation::SkewOwnership => "skew-ownership",
        }
    }

    /// Parses a CLI mutation name.
    pub fn parse(s: &str) -> Option<Mutation> {
        Mutation::all().into_iter().find(|m| m.name() == s)
    }

    /// The diagnostic the verifier must raise for this corruption.
    pub fn expected_code(self) -> Code {
        match self {
            Mutation::FlipTransformSign => Code::LegalityDistance,
            Mutation::WidenBound => Code::BoundsExtra,
            Mutation::NarrowBound => Code::BoundsDropped,
            Mutation::DropTransfer => Code::TransferMissing,
            Mutation::SkewOwnership => Code::RaceOwnershipClaim,
        }
    }
}

/// Applies `mutation` to the compiled artifacts of `program`, returning
/// corrupted `(transformed, spmd)` artifacts. `ctx` is the concrete
/// context of the uncorrupted artifacts ([`ConcreteContext::build`]),
/// `None` when there is none: the dependence distances and points the
/// corruptions pick their target from, and the context the verifier
/// then rebuilds for the corrupted ones
/// ([`crate::verify_artifacts_in`]).
///
/// # Errors
///
/// A human-readable reason when the program offers no opportunity for
/// the mutation (e.g. no dependences to reverse, no transfers to drop).
pub fn apply_mutation(
    program: &Program,
    transformed: &TransformedProgram,
    spmd: &SpmdProgram,
    mutation: Mutation,
    ctx: Option<&ConcreteContext>,
) -> Result<(TransformedProgram, SpmdProgram), String> {
    match mutation {
        Mutation::FlipTransformSign => flip_transform_sign(program, transformed, ctx),
        Mutation::WidenBound => nudge_bound(transformed, spmd, 1, ctx),
        Mutation::NarrowBound => nudge_bound(transformed, spmd, -1, ctx),
        Mutation::DropTransfer => {
            let mut spmd = spmd.clone();
            if spmd.transfers.pop().is_none() {
                return Err("program has no block transfers to drop".to_string());
            }
            Ok((transformed.clone(), spmd))
        }
        Mutation::SkewOwnership => {
            let mut spmd = spmd.clone();
            let space = spmd.program.nest.space.clone();
            let (array, dim, coeff, offset) = match &mut spmd.outer {
                OuterAssignment::ByHome {
                    array,
                    dim,
                    coeff,
                    offset,
                } => (*array, *dim, *coeff, offset),
                OuterAssignment::ByHome2D {
                    array,
                    row_dim,
                    row_coeff,
                    row_offset,
                    ..
                } => (*array, *row_dim, *row_coeff, row_offset),
                OuterAssignment::RoundRobin => {
                    return Err("round-robin assignment has no ownership split to skew".to_string())
                }
            };
            // The smallest shift k ≥ 1 whose claim no body subscript along
            // the owner's dimension makes: a claim the body still uses
            // would hide the skew from the ownership check.
            let used: Vec<&Affine> = spmd
                .program
                .nest
                .body
                .iter()
                .filter_map(|stmt| match stmt {
                    Stmt::Assign { lhs, rhs } => Some((lhs, rhs)),
                    _ => None,
                })
                .flat_map(|(lhs, rhs)| std::iter::once(lhs).chain(rhs.reads()))
                .filter(|r| r.array == array)
                .filter_map(|r| r.subscripts.get(dim))
                .collect();
            let claim = |o: &Affine| Affine::var(&space, 0, coeff).add(o);
            *offset = (1..)
                .map(|k| offset.add(&Affine::constant(&space, k)))
                .find(|o| !used.contains(&&claim(o)))
                .expect("a finite body leaves some shift unused");
            Ok((transformed.clone(), spmd))
        }
    }
}

/// Negates the first row of `T` whose flip makes some realized
/// dependence distance lex-nonpositive, then regenerates the downstream
/// artifacts so they are self-consistent with the corrupted transform.
fn flip_transform_sign(
    program: &Program,
    transformed: &TransformedProgram,
    ctx: Option<&ConcreteContext>,
) -> Result<(TransformedProgram, SpmdProgram), String> {
    let ctx = ctx.ok_or_else(|| "iteration space too large to pick a row to flip".to_string())?;
    let distances = oracle_distances(program, &ctx.original_points, &ctx.params);
    if distances.is_empty() {
        return Err("program has no dependences for a flipped sign to violate".to_string());
    }
    let t = &transformed.transform;
    for r in 0..t.rows() {
        let mut flipped = t.clone();
        for c in 0..t.cols() {
            flipped.set(r, c, -t.get(r, c));
        }
        let breaks_a_dependence = distances.iter().any(|d| {
            let td = flipped.mul_vec(d).expect("transform arity");
            !lex_positive(&td)
        });
        if !breaks_a_dependence {
            continue;
        }
        let tp = apply_transform(program, &flipped)
            .map_err(|e| format!("flipped transform fails to apply: {e}"))?;
        let spmd = generate_spmd(&tp, None, &SpmdOptions::default());
        return Ok((tp, spmd));
    }
    Err("no single row flip reverses a dependence".to_string())
}

/// Adds `delta` to the first upper-bound term whose change actually
/// alters the scanned iteration set at small parameters, preferring
/// inner levels (innermost bound corruption is the classic
/// off-by-one). The change is applied to both artifact copies of the
/// program so they stay consistent.
fn nudge_bound(
    transformed: &TransformedProgram,
    spmd: &SpmdProgram,
    delta: i64,
    ctx: Option<&ConcreteContext>,
) -> Result<(TransformedProgram, SpmdProgram), String> {
    let ctx =
        ctx.ok_or_else(|| "iteration space too large to pick a bound to nudge".to_string())?;
    let (baseline, max_points) = (&ctx.transformed_points, ctx.max_points);
    let n = transformed.program.nest.bounds.len();
    let space = transformed.program.nest.space.clone();
    for level in (0..n).rev() {
        let terms = transformed.program.nest.bounds[level].uppers.len();
        for term in 0..terms {
            let mut tp = transformed.clone();
            let expr = &mut tp.program.nest.bounds[level].uppers[term].expr;
            *expr = expr.add(&Affine::constant(&space, delta));
            let mut points = Vec::new();
            let enumerable = tp
                .program
                .nest
                .iteration_count_capped(&ctx.params, 4 * max_points)
                .ok()
                .flatten()
                .is_some()
                && tp
                    .program
                    .nest
                    .for_each_iteration(&ctx.params, |pt| points.push(pt.to_vec()))
                    .is_ok();
            if !enumerable || &points == baseline {
                continue;
            }
            let mut spmd = spmd.clone();
            spmd.program = tp.program.clone();
            return Ok((tp, spmd));
        }
    }
    Err("no upper-bound term changes the scanned set when nudged".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for m in Mutation::all() {
            assert_eq!(Mutation::parse(m.name()), Some(m));
        }
        assert_eq!(Mutation::parse("no-such-mutation"), None);
    }
}
