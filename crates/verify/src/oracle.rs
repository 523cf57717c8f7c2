//! Brute-force concrete machinery shared by the invariant checkers.
//!
//! The verifier's concrete checks enumerate iteration spaces outright,
//! so they only run when some parameter instantiation keeps the space
//! small. [`ConcreteContext::build`] shrinks the program's default
//! parameters until the nest fits under a point budget (or gives up),
//! and caches the enumerated original and transformed iteration sets
//! and both programs' interpreted array states.

use an_ir::interp::{run_seeded, ArrayStore};
use an_ir::{collect_accesses, AccessInfo, ArrayRef, IrError, Program};
use an_linalg::lex_negative;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Seed for differential interpreter runs (arbitrary but fixed, so
/// verification is deterministic).
pub(crate) const SEED: u64 = 11;

/// Enumerated iteration sets for one parameter instantiation.
#[derive(Debug, Clone)]
pub struct ConcreteContext {
    /// The parameter values used.
    pub params: Vec<i64>,
    /// Original iteration vectors in lexicographic order.
    pub original_points: Vec<Vec<i64>>,
    /// Transformed (lattice-coordinate) iteration vectors in
    /// lexicographic order.
    pub transformed_points: Vec<Vec<i64>>,
    /// Per-level `(min, max)` of the original iteration vectors.
    pub ranges: Vec<(i64, i64)>,
    /// The original program's array state after its seeded run at
    /// `params`: the run that proves the program interpretable there,
    /// kept as the reference of the bounds check's differential run.
    pub original_store: ArrayStore,
    /// The point budget the context was built under.
    pub max_points: u64,
    /// The transformed program the context enumerates.
    transformed: Program,
    /// Its seeded run at `params`, made on first use.
    transformed_store: OnceLock<Result<ArrayStore, IrError>>,
}

impl ConcreteContext {
    /// Tries to find parameter values small enough to enumerate both
    /// nests under `max_points` points each, preferring values close to
    /// the program defaults. Returns `None` when every candidate is too
    /// large, empty, or not interpretable (e.g. an extent that shrinks
    /// below a constant subscript).
    pub fn build(
        program: &Program,
        transformed_program: &Program,
        max_points: u64,
    ) -> Option<ConcreteContext> {
        ConcreteContext::build_reusing(program, transformed_program, max_points, None)
    }

    /// [`ConcreteContext::build`] for another transformed program of the
    /// same original program and budget — the verifier's context of
    /// mutated artifacts: where the parameters come out the same, the
    /// original program's run and points are this context's, not
    /// interpreted and enumerated again.
    pub fn rebuild(
        &self,
        program: &Program,
        transformed_program: &Program,
    ) -> Option<ConcreteContext> {
        ConcreteContext::build_reusing(program, transformed_program, self.max_points, Some(self))
    }

    /// The transformed program's array state after its seeded run at
    /// `params`, interpreted once and shared by the bounds check's
    /// differential run and the recovery check's fault-free baseline.
    pub fn transformed_store(&self) -> &Result<ArrayStore, IrError> {
        self.transformed_store
            .get_or_init(|| run_seeded(&self.transformed, &self.params, SEED))
    }

    /// Whether the context enumerates `program` as its transformed
    /// program.
    pub fn transforms_to(&self, program: &Program) -> bool {
        self.transformed == *program
    }

    fn build_reusing(
        program: &Program,
        transformed_program: &Program,
        max_points: u64,
        known: Option<&ConcreteContext>,
    ) -> Option<ConcreteContext> {
        let defaults = program.default_param_values();
        let mut candidates: Vec<Vec<i64>> = vec![defaults.clone()];
        for cap in [8i64, 6, 4, 3, 2] {
            let shrunk: Vec<i64> = defaults.iter().map(|&v| v.min(cap)).collect();
            if !candidates.contains(&shrunk) {
                candidates.push(shrunk);
            }
        }
        for params in candidates {
            let Ok(Some(count)) = program.nest.iteration_count_capped(&params, max_points) else {
                continue;
            };
            if count == 0 {
                continue;
            }
            // The transformed nest need not have the same count (that is
            // exactly what the bounds check decides), but it must stay
            // enumerable.
            let Ok(Some(_)) = transformed_program
                .nest
                .iteration_count_capped(&params, 4 * max_points)
            else {
                continue;
            };
            // Every array must be non-empty and the original program
            // interpretable at these values (guards subscripts that
            // escape a shrunken extent).
            if program
                .arrays
                .iter()
                .any(|a| a.extents(&params).iter().any(|&e| e < 1))
            {
                continue;
            }
            // Storage must be materializable: adversarially large
            // extents (e.g. subscript coefficients near i64::MAX) would
            // abort inside the allocator before `run_seeded` could
            // report an error. Product in i128 — the count itself can
            // exceed i64.
            const MAX_STORE_ELEMENTS: i128 = 1 << 24;
            let elements = program.arrays.iter().fold(0i128, |acc, a| {
                let n = a
                    .extents(&params)
                    .iter()
                    .fold(1i128, |p, &e| p.saturating_mul(e.max(0) as i128));
                acc.saturating_add(n)
            });
            if elements > MAX_STORE_ELEMENTS {
                continue;
            }
            let known = known.filter(|k| k.params == params);
            let (original_store, original_points) = match known {
                Some(k) => (k.original_store.clone(), k.original_points.clone()),
                None => {
                    let Ok(store) = run_seeded(program, &params, SEED) else {
                        continue;
                    };
                    let mut points = Vec::new();
                    if program
                        .nest
                        .for_each_iteration(&params, |pt| points.push(pt.to_vec()))
                        .is_err()
                    {
                        continue;
                    }
                    (store, points)
                }
            };
            let mut transformed_points = Vec::new();
            if transformed_program
                .nest
                .for_each_iteration(&params, |pt| transformed_points.push(pt.to_vec()))
                .is_err()
            {
                continue;
            }
            if transformed_points.len() as u64 > 4 * max_points {
                continue;
            }
            let ranges = point_ranges(&original_points, program.nest.depth());
            // The same transformed program has the same run.
            let transformed_store = known
                .filter(|k| k.transforms_to(transformed_program))
                .map_or_else(OnceLock::new, |k| k.transformed_store.clone());
            return Some(ConcreteContext {
                params,
                original_points,
                transformed_points,
                ranges,
                original_store,
                max_points,
                transformed: transformed_program.clone(),
                transformed_store,
            });
        }
        None
    }
}

/// Per-level `(min, max)` over a point set (`(0, 0)` for empty sets).
fn point_ranges(points: &[Vec<i64>], depth: usize) -> Vec<(i64, i64)> {
    (0..depth)
        .map(|k| {
            let lo = points.iter().map(|p| p[k]).min().unwrap_or(0);
            let hi = points.iter().map(|p| p[k]).max().unwrap_or(0);
            (lo, hi)
        })
        .collect()
}

/// All access pairs `(a, b)` on the same array with at least one write
/// (including an access paired with itself for self-dependences).
pub fn conflicting_pairs(accesses: &[AccessInfo]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..accesses.len() {
        for j in i..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if a.reference.array == b.reference.array && (a.is_write || b.is_write) {
                out.push((i, j));
            }
        }
    }
    out
}

/// `true` when the pair is uniformly generated: equal loop-variable
/// coefficients in every subscript dimension, so every dependence
/// between them has a constant distance.
pub fn is_uniform_pair(a: &AccessInfo, b: &AccessInfo) -> bool {
    a.reference
        .subscripts
        .iter()
        .zip(&b.reference.subscripts)
        .all(|(s1, s2)| s1.var_coeffs() == s2.var_coeffs())
}

/// Enumerates every dependence distance actually realized at the given
/// parameters: all (source, sink) iteration pairs touching the same
/// element with at least one write, canonicalized to lexicographically
/// positive form. The zero vector (same iteration) is excluded.
///
/// A dependence exists only between iterations that touch the *same
/// element*, so the element is the join key: each access orders the
/// points by the flat offset it touches there, and a conflicting pair
/// is a merge of two such orders —
/// `O(accesses · points · log points + matches)`, and no two points
/// that touch different elements are ever compared. The offset only
/// labels a bucket; a match is confirmed on the subscript values, so a
/// subscript outside the declared extents cannot merge two elements.
/// Each access's subscripts are evaluated once per point, and a match
/// allocates nothing unless it realizes a distance not seen before.
pub fn oracle_distances(
    program: &Program,
    points: &[Vec<i64>],
    params: &[i64],
) -> BTreeSet<Vec<i64>> {
    let accesses = collect_accesses(program);
    let pairs = conflicting_pairs(&accesses);
    let depth = program.nest.depth();
    let mut out = Distances::default();
    let mut d = vec![0i64; depth];
    for (array, decl) in program.arrays.iter().enumerate() {
        // One table per access to this array, dropped before the next
        // array's are built.
        let extents = decl.extents(params);
        let touched: Vec<Option<Touched>> = (accesses.iter())
            .map(|a| &a.reference)
            .map(|r| (r.array.0 == array).then(|| Touched::by(r, &extents, points, params)))
            .collect();
        for &(i, j) in &pairs {
            let (Some(ti), Some(tj)) = (&touched[i], &touched[j]) else {
                continue;
            };
            ti.join(tj, |px, py| {
                // An access paired with itself meets every two points
                // both ways round, and both give one canonical distance.
                if (i == j && py <= px) || ti.at(px) != tj.at(py) {
                    return;
                }
                for (dv, (yv, xv)) in d.iter_mut().zip(points[py].iter().zip(&points[px])) {
                    *dv = yv - xv;
                }
                if lex_negative(&d) {
                    d.iter_mut().for_each(|v| *v = -*v);
                }
                if d.iter().any(|&v| v != 0) {
                    out.insert(&d);
                }
            });
        }
    }
    // (A depth-0 nest realizes no distance: `flat` is empty.)
    out.flat
        .chunks_exact(depth.max(1))
        .map(<[i64]>::to_vec)
        .collect()
}

/// Distinct distance vectors of one length, sorted and stored end to
/// end: a lookup is a binary search with no pointer to follow.
#[derive(Default)]
struct Distances {
    flat: Vec<i64>,
}

impl Distances {
    /// Adds `d`, which is not empty, unless it is already there.
    fn insert(&mut self, d: &[i64]) {
        let n = d.len();
        let (mut lo, mut hi) = (0, self.flat.len() / n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.flat[mid * n..(mid + 1) * n].cmp(d) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return,
            }
        }
        self.flat.splice(lo * n..lo * n, d.iter().copied());
    }
}

/// Where one access lands at every point of a point set: the access's
/// subscripts evaluated once per point, shared by the distance join and
/// the race check.
pub(crate) struct Touched {
    /// Subscripts per point.
    rank: usize,
    /// The subscript values, `rank` per point, in point order.
    subscripts: Vec<i64>,
    /// `(offset, point)` sorted, where `offset` is the row-major element
    /// offset (wrapping when a subscript leaves the extents: still equal
    /// for equal subscripts).
    order: Vec<(i64, usize)>,
}

impl Touched {
    pub(crate) fn by(
        r: &ArrayRef,
        extents: &[i64],
        points: &[Vec<i64>],
        params: &[i64],
    ) -> Touched {
        let rank = r.subscripts.len();
        let mut subscripts = Vec::with_capacity(rank * points.len());
        let mut order = Vec::with_capacity(points.len());
        for (p, x) in points.iter().enumerate() {
            let at = subscripts.len();
            subscripts.extend(r.subscripts.iter().map(|s| s.eval(x, params)));
            let offset = (subscripts[at..].iter().zip(extents))
                .fold(0i64, |flat, (&v, &e)| flat.wrapping_mul(e).wrapping_add(v));
            order.push((offset, p));
        }
        order.sort_unstable();
        Touched {
            rank,
            subscripts,
            order,
        }
    }

    /// `(offset, point)` for every point, in offset order.
    pub(crate) fn by_offset(&self) -> &[(i64, usize)] {
        &self.order
    }

    /// The subscript values at point index `p`.
    pub(crate) fn at(&self, p: usize) -> &[i64] {
        &self.subscripts[p * self.rank..(p + 1) * self.rank]
    }

    /// Calls `matched(p, q)` for every two point indices at which
    /// `self` and `other` land on the same offset: a merge of the two
    /// orders, so points on different offsets never meet.
    fn join(&self, other: &Touched, mut matched: impl FnMut(usize, usize)) {
        let mut lo = 0;
        for &(offset, p) in &self.order {
            while lo < other.order.len() && other.order[lo].0 < offset {
                lo += 1;
            }
            let run = other.order[lo..].iter();
            for &(_, q) in run.take_while(|&&(o, _)| o == offset) {
                matched(p, q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Program {
        an_lang::parse(
            "param N1 = 5; param b = 3; param N2 = 4;
             array A[N1, N1 + N2 + b] distribute wrapped(1);
             array B[N1, b] distribute wrapped(1);
             for i = 0, N1 - 1 { for j = i, i + b - 1 { for k = 0, N2 - 1 {
                 B[i, j - i] = B[i, j - i] + A[i, j + k];
             } } }",
        )
        .unwrap()
    }

    #[test]
    fn context_uses_defaults_when_small() {
        let p = fig1();
        let ctx = ConcreteContext::build(&p, &p, 4096).unwrap();
        assert_eq!(ctx.params, vec![5, 3, 4]);
        assert_eq!(ctx.original_points.len(), 5 * 3 * 4);
        assert_eq!(ctx.ranges[0], (0, 4));
    }

    #[test]
    fn context_shrinks_large_defaults() {
        let p = an_lang::parse(
            "param N = 100000;
             array A[N] distribute wrapped(0);
             for i = 0, N - 1 { A[i] = 1.0; }",
        )
        .unwrap();
        let ctx = ConcreteContext::build(&p, &p, 4096).unwrap();
        assert_eq!(ctx.params, vec![8]);
    }

    #[test]
    fn fig1_distances_carried_by_middle_loop() {
        let p = fig1();
        let ctx = ConcreteContext::build(&p, &p, 4096).unwrap();
        let ds = oracle_distances(&p, &ctx.original_points, &ctx.params);
        // B[i, j-i] self-dependence: same element for equal i and j,
        // different k — distance (0, 0, dk).
        assert!(ds.contains(&vec![0, 0, 1]), "{ds:?}");
        // No distance moves across i for B writes.
        assert!(ds.iter().all(|d| d[0] == 0), "{ds:?}");
    }

    #[test]
    fn offsets_that_alias_outside_the_extents_do_not_merge_elements() {
        // `j` runs past the extent: (0, 4) lands on the row-major
        // offset of (1, 0) — the same bucket, not the same element.
        // Each element is written once, so no distance is realized.
        let p = an_lang::parse(
            "param N = 4;
             array A[N, N];
             for i = 0, N - 1 { for j = 0, 2 * N - 1 { A[i, j] = 1.0; } }",
        )
        .unwrap();
        let mut points = Vec::new();
        p.nest
            .for_each_iteration(&[4], |pt| points.push(pt.to_vec()))
            .unwrap();
        assert!(oracle_distances(&p, &points, &[4]).is_empty());
    }

    #[test]
    fn uniformity_classification() {
        let p = an_lang::parse(
            "param N = 4;
             array A[N, N];
             for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[j, i] + 1.0; } }",
        )
        .unwrap();
        let acc = collect_accesses(&p);
        assert!(!is_uniform_pair(&acc[0], &acc[1]));
        assert!(is_uniform_pair(&acc[0], &acc[0]));
    }
}
