//! The random-program strategy the property suites share.

use an_ir::build::NestBuilder;
use an_ir::{Distribution, Expr, Program};
use proptest::prelude::*;

/// Strategy: a random 2-deep or 3-deep affine program with 1–2 arrays,
/// random (small) subscript coefficients and a random distribution.
pub fn random_program() -> impl Strategy<Value = Program> {
    let dist = prop_oneof![
        Just(Distribution::Replicated),
        Just(Distribution::Wrapped { dim: 0 }),
        Just(Distribution::Wrapped { dim: 1 }),
        Just(Distribution::Blocked { dim: 1 }),
    ];
    (
        2usize..=3,                               // depth
        proptest::collection::vec(-2i64..=2, 12), // subscript coeffs
        proptest::collection::vec(0i64..=2, 4),   // offsets
        dist,
        any::<bool>(), // self-referencing rhs?
    )
        .prop_map(|(depth, coeffs, offsets, dist, self_ref)| {
            build_program(depth, &coeffs, &offsets, dist, self_ref)
        })
        .prop_filter("program must validate and have iterations", |p| {
            p.validate().is_ok()
                && matches!(p.nest.iteration_count(&p.default_param_values()), Ok(1..))
        })
}

/// Builds `A[s0, s1] = A[s0', s1'] + 1` (or `= B[...] + 1`) with
/// subscripts `s = c0·i0 + c1·i1 (+ c2·i2) + offset`, shifted so that
/// every access stays within a generously sized array.
fn build_program(
    depth: usize,
    coeffs: &[i64],
    offsets: &[i64],
    dist: Distribution,
    self_ref: bool,
) -> Program {
    let names: Vec<&str> = ["i", "j", "k"][..depth].to_vec();
    let mut b = NestBuilder::new(&names, &[("N", 5)]);
    // Max |subscript| given |coeff| <= 2, 3 vars, index <= N-1=4, offset <= 2:
    // 2*3*4 + 2 = 26; shift by 26 and size 64.
    let extent = b.cst(64);
    let arr_a = b.array("A", &[extent.clone(), extent.clone()], dist);
    let arr_b = b.array("B", &[extent.clone(), extent], dist);
    for k in 0..depth {
        b.bounds(k, b.cst(0), b.par(0).sub(&b.cst(1)));
    }
    let sub = |b: &NestBuilder, cs: &[i64], off: i64| {
        let mut e = b.cst(26 + off);
        for (v, &c) in cs.iter().take(depth).enumerate() {
            e = e.add(&b.var(v).scale(c));
        }
        e
    };
    let lhs = b.access(
        arr_a,
        &[
            sub(&b, &coeffs[0..3], offsets[0]),
            sub(&b, &coeffs[3..6], offsets[1]),
        ],
    );
    let read_arr = if self_ref { arr_a } else { arr_b };
    let read = b.access(
        read_arr,
        &[
            sub(&b, &coeffs[6..9], offsets[2]),
            sub(&b, &coeffs[9..12], offsets[3]),
        ],
    );
    let rhs = Expr::add(Expr::access(read), Expr::lit(1.0));
    b.assign(lhs, rhs);
    // finish() would panic on invalid programs; the strategy filters, so
    // build unvalidated here, with a trivially valid placeholder for the
    // filter to discard should that ever fail.
    b.try_finish().unwrap_or_else(|_| {
        let mut b = NestBuilder::new(&["i"], &[("N", 0)]);
        let a = b.array("Z", &[b.cst(1)], Distribution::Replicated);
        b.bounds(0, b.cst(1), b.cst(0));
        let lhs = b.access(a, &[b.cst(0)]);
        b.assign(lhs, Expr::lit(0.0));
        b.finish()
    })
}
