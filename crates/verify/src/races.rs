//! Invariant family 3 — SPMD race freedom (owner-computes soundness).
//!
//! The simulator runs the outer loop in parallel whenever
//! `outer_carried` is false; this module independently re-derives each
//! iteration's executing processor from the [`OuterAssignment`] fields
//! and checks that no array element is then touched by two processors
//! with at least one write. It also checks the *static* ownership
//! claim: the subscript the assignment declares local must actually
//! appear in the loop body (a skewed split shifts executor and claim
//! consistently, so only the body anchors the truth).

use crate::diag::{Anchor, Code, Diagnostic};
use crate::oracle::{ConcreteContext, Touched};
use an_codegen::{OuterAssignment, SpmdProgram};
use an_ir::{collect_accesses, ArrayDecl, Distribution, Stmt};
use an_linalg::{div_floor, mod_floor};
use an_numa::distribution::{block_size, grid_shape, home_along, Home};
use std::collections::BTreeSet;

/// Runs the race checks, appending findings to `diags`.
pub fn check_races(
    spmd: &SpmdProgram,
    ctx: Option<&ConcreteContext>,
    procs: &[usize],
    diags: &mut Vec<Diagnostic>,
    notes: &mut Vec<String>,
) {
    check_ownership_claim(spmd, diags);
    if spmd.outer_carried {
        notes.push(
            "outer loop marked dependence-carried: iterations serialize, race \
             freedom holds trivially"
                .to_string(),
        );
        return;
    }
    let Some(ctx) = ctx else {
        notes
            .push("iteration space too large to enumerate: dynamic race check skipped".to_string());
        return;
    };
    let program = &spmd.program;
    let points = &ctx.transformed_points;
    let accesses = collect_accesses(program);
    let tables: Vec<Option<Touched>> = (accesses.iter())
        .map(|a| {
            let decl = program.array(a.reference.array);
            (decl.distribution != Distribution::Replicated).then(|| {
                Touched::by(
                    &a.reference,
                    &decl.extents(&ctx.params),
                    points,
                    &ctx.params,
                )
            })
        })
        .collect();
    // Every touch of a shared array, sorted by array and offset with ties
    // broken by the subscripts, so that the touches of one element are
    // one run. Which element a touch lands on does not depend on `P`, so
    // this is done once, and only written elements can race.
    let mut touches = Vec::new();
    for (access, table) in tables.iter().enumerate() {
        let array = accesses[access].reference.array.0;
        let Some(table) = table else { continue };
        touches.extend((table.by_offset().iter()).map(|&(offset, point)| Touch {
            array,
            offset,
            access,
            point,
        }));
    }
    let at = |t: &Touch| {
        tables[t.access]
            .as_ref()
            .expect("a touched table")
            .at(t.point)
    };
    touches.sort_unstable_by(|x, y| (x.array, x.offset, at(x)).cmp(&(y.array, y.offset, at(y))));
    let written: Vec<&[Touch]> = (touches.chunk_by(|x, y| x.array == y.array && at(x) == at(y)))
        .filter(|run| run.iter().any(|t| accesses[t.access].is_write))
        .collect();
    let split = Split::bind(spmd, &ctx.params);
    for &p in procs {
        if p < 2 {
            continue;
        }
        let executors: Vec<Executor> = points.iter().map(|pt| split.executor(pt, p)).collect();
        let mut raced: Vec<&[Touch]> = (written.iter().copied())
            .filter(|run| {
                let first = executors[run[0].point];
                first == Executor::All || run.iter().any(|t| executors[t.point] != first)
            })
            .collect();
        // Offsets order the elements of an array as their subscripts do
        // only inside its extents; findings come in subscript order.
        raced.sort_by(|x, y| (x[0].array, at(&x[0])).cmp(&(y[0].array, at(&y[0]))));
        for run in raced.iter().take(3) {
            // Only a reported element names its processors.
            let (mut all, mut writers) = (BTreeSet::new(), BTreeSet::new());
            for t in run.iter() {
                let execs = match executors[t.point] {
                    Executor::One(q) => q..q + 1,
                    Executor::All => 0..p,
                };
                all.extend(execs.clone());
                if accesses[t.access].is_write {
                    writers.extend(execs);
                }
            }
            diags.push(Diagnostic::new(
                Code::RaceParallelOuter,
                Anchor::Array(run[0].array),
                format!(
                    "element {:?} of array '{}' is touched by processors \
                     {:?} (written by {:?}) at P = {p} while the outer \
                     loop runs in parallel",
                    at(&run[0]),
                    program.arrays[run[0].array].name,
                    all.iter().collect::<Vec<_>>(),
                    writers.iter().collect::<Vec<_>>()
                ),
            ));
        }
        if raced.len() > 3 {
            notes.push(format!(
                "{} further raced elements suppressed",
                raced.len() - 3
            ));
        }
        if !raced.is_empty() {
            break; // one processor count suffices as a witness
        }
    }
}

/// One access landing on an element of a shared array at one point.
struct Touch {
    array: usize,
    /// Row-major offset of the element.
    offset: i64,
    access: usize,
    point: usize,
}

/// Who executes an iteration.
#[derive(Clone, Copy, PartialEq)]
enum Executor {
    /// Exactly one processor.
    One(usize),
    /// Every processor (a replicated driving array — should not occur
    /// from codegen, and duplicates every write).
    All,
}

/// The outer assignment with its offsets and the driving array's
/// extents evaluated at the checked parameters.
enum Split<'a> {
    RoundRobin,
    ByHome {
        decl: &'a ArrayDecl,
        extents: Vec<i64>,
        dim: usize,
        coeff: i64,
        offset: i64,
    },
    ByHome2D {
        row_extent: i64,
        col_extent: i64,
        row_coeff: i64,
        row_offset: i64,
        col_coeff: i64,
        col_offset: i64,
    },
}

impl<'a> Split<'a> {
    fn bind(spmd: &'a SpmdProgram, params: &[i64]) -> Split<'a> {
        let zeros = vec![0i64; spmd.program.nest.space.num_vars()];
        match &spmd.outer {
            OuterAssignment::RoundRobin => Split::RoundRobin,
            OuterAssignment::ByHome {
                array,
                dim,
                coeff,
                offset,
            } => {
                let decl = spmd.program.array(*array);
                Split::ByHome {
                    decl,
                    extents: decl.extents(params),
                    dim: *dim,
                    coeff: *coeff,
                    offset: offset.eval(&zeros, params),
                }
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
                let extents = spmd.program.array(*array).extents(params);
                Split::ByHome2D {
                    row_extent: extents[*row_dim],
                    col_extent: extents[*col_dim],
                    row_coeff: *row_coeff,
                    row_offset: row_offset.eval(&zeros, params),
                    col_coeff: *col_coeff,
                    col_offset: col_offset.eval(&zeros, params),
                }
            }
        }
    }

    /// Re-derives the executing processor of a lattice point from the
    /// outer assignment, mirroring the simulator's documented semantics
    /// without calling into it.
    fn executor(&self, point: &[i64], procs: usize) -> Executor {
        match *self {
            Split::RoundRobin => Executor::One(mod_floor(point[0], procs as i64) as usize),
            Split::ByHome {
                decl,
                ref extents,
                dim,
                coeff,
                offset,
            } => match home_along(decl, extents, dim, coeff * point[0] + offset, procs) {
                Home::Proc(q) => Executor::One(q),
                Home::Everywhere => Executor::All,
            },
            Split::ByHome2D {
                row_extent,
                col_extent,
                row_coeff,
                row_offset,
                col_coeff,
                col_offset,
            } => {
                let (pr, pc) = grid_shape(procs);
                let s_row = row_coeff * point[0] + row_offset;
                let s_col = col_coeff * point[1] + col_offset;
                let hr = div_floor(s_row, block_size(row_extent, pr)).clamp(0, pr as i64 - 1);
                let hc = div_floor(s_col, block_size(col_extent, pc)).clamp(0, pc as i64 - 1);
                Executor::One((hr * pc as i64 + hc) as usize)
            }
        }
    }
}

/// The static ownership claim: the subscript declared local by the
/// assignment must be one the body actually uses on the driving array's
/// distribution dimension.
fn check_ownership_claim(spmd: &SpmdProgram, diags: &mut Vec<Diagnostic>) {
    let space = &spmd.program.nest.space;
    let claims: Vec<(an_ir::ArrayId, usize, an_poly::Affine)> = match &spmd.outer {
        OuterAssignment::RoundRobin => Vec::new(),
        OuterAssignment::ByHome {
            array,
            dim,
            coeff,
            offset,
        } => vec![(
            *array,
            *dim,
            an_poly::Affine::var(space, 0, *coeff).add(offset),
        )],
        OuterAssignment::ByHome2D {
            array,
            row_dim,
            col_dim,
            row_coeff,
            row_offset,
            col_coeff,
            col_offset,
        } => vec![
            (
                *array,
                *row_dim,
                an_poly::Affine::var(space, 0, *row_coeff).add(row_offset),
            ),
            (
                *array,
                *col_dim,
                an_poly::Affine::var(space, 1, *col_coeff).add(col_offset),
            ),
        ],
    };
    for (array, dim, claimed) in claims {
        let mut used = false;
        for stmt in &spmd.program.nest.body {
            let Stmt::Assign { lhs, rhs } = stmt else {
                continue;
            };
            let mut refs = vec![lhs];
            refs.extend(rhs.reads());
            for r in refs {
                if r.array == array && r.subscripts.get(dim) == Some(&claimed) {
                    used = true;
                }
            }
        }
        if !used {
            diags.push(Diagnostic::new(
                Code::RaceOwnershipClaim,
                Anchor::Array(array.0),
                format!(
                    "outer assignment claims subscript '{claimed}' of array '{}' \
                     (dimension {dim}) is local, but no body reference uses it — \
                     the ownership split is skewed against the data",
                    spmd.program.array(array).name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an_codegen::{apply_transform, generate_spmd, SpmdOptions};
    use an_core::{normalize, NormalizeOptions};
    use an_ir::Program;

    fn fig1_compiled() -> (Program, SpmdProgram) {
        let p = an_lang::parse(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
        )
        .unwrap();
        let r = normalize(&p, &NormalizeOptions::default()).unwrap();
        let tp = apply_transform(&p, &r.transform).unwrap();
        let spmd = generate_spmd(&tp, Some(&r.dependences), &SpmdOptions::default());
        (p, spmd)
    }

    #[test]
    fn fig1_is_race_free() {
        let (p, spmd) = fig1_compiled();
        let ctx = ConcreteContext::build(&p, &spmd.program, 4096).unwrap();
        let mut diags = Vec::new();
        check_races(&spmd, Some(&ctx), &[2, 3], &mut diags, &mut Vec::new());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn skewed_ownership_is_flagged() {
        let (p, mut spmd) = fig1_compiled();
        if let OuterAssignment::ByHome { offset, .. } = &mut spmd.outer {
            let one = an_poly::Affine::constant(&spmd.program.nest.space, 1);
            *offset = offset.add(&one);
        } else {
            panic!("expected ByHome for figure 1");
        }
        let ctx = ConcreteContext::build(&p, &spmd.program, 4096).unwrap();
        let mut diags = Vec::new();
        check_races(&spmd, Some(&ctx), &[2, 3], &mut diags, &mut Vec::new());
        assert!(
            diags.iter().any(|d| d.code == Code::RaceOwnershipClaim),
            "{diags:?}"
        );
    }

    #[test]
    fn raced_elements_are_reported_in_subscript_order() {
        // Every iteration of the parallel outer loop writes A[0, 9] and
        // A[1, 0]. The column 9 is outside the extent 4, so the row-major
        // offsets order the two the other way round (9 > 4).
        let p = an_lang::parse(
            "param N = 4;
             array A[N, N] distribute wrapped(0);
             for i = 0, N - 1 { for j = 0, 1 { A[i, j] = 1.0; } }",
        )
        .unwrap();
        let q = an_lang::parse(
            "param N = 4;
             array A[N, N] distribute wrapped(0);
             for i = 0, N - 1 { for j = 0, 1 { A[j, 9 - 9 * j] = 1.0; } }",
        )
        .unwrap();
        let tq = apply_transform(&q, &an_linalg::IMatrix::identity(2)).unwrap();
        let mut spmd = generate_spmd(&tq, None, &SpmdOptions::default());
        spmd.outer_carried = false;
        let ctx = ConcreteContext::build(&p, &spmd.program, 4096).unwrap();
        let mut diags = Vec::new();
        check_races(&spmd, Some(&ctx), &[2], &mut diags, &mut Vec::new());
        let raced: Vec<&str> = (diags.iter())
            .filter(|d| d.code == Code::RaceParallelOuter)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            raced,
            [
                "element [0, 9] of array 'A' is touched by processors [0, 1] \
                 (written by [0, 1]) at P = 2 while the outer loop runs in parallel",
                "element [1, 0] of array 'A' is touched by processors [0, 1] \
                 (written by [0, 1]) at P = 2 while the outer loop runs in parallel",
            ]
        );
    }

    #[test]
    fn forced_parallel_outer_with_carried_writes_races() {
        // A[i+1] = A[i] distributed round-robin with outer_carried
        // forced false: processors 0 and 1 write/read the same cells.
        let p = an_lang::parse(
            "param N = 8;
             array A[N + 1] distribute blocked(0);
             for i = 0, N - 1 { A[i + 1] = A[i] + 1.0; }",
        )
        .unwrap();
        let tp = apply_transform(&p, &an_linalg::IMatrix::identity(1)).unwrap();
        let mut spmd = generate_spmd(&tp, None, &SpmdOptions::default());
        spmd.outer_carried = false;
        let ctx = ConcreteContext::build(&p, &spmd.program, 4096).unwrap();
        let mut diags = Vec::new();
        check_races(&spmd, Some(&ctx), &[2], &mut diags, &mut Vec::new());
        assert!(
            diags.iter().any(|d| d.code == Code::RaceParallelOuter),
            "{diags:?}"
        );
    }
}
