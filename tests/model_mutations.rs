//! Seeded mutation harness for the analytic model (the PR 2 / PR 7
//! discipline): deliberately corrupt the model's counting — an
//! off-by-one trip count, a dropped remote term, the wrong ownership
//! plane — and assert the differential model-vs-simulator gate catches
//! *every* class on at least one corpus kernel. A gate that cannot see
//! a planted bug cannot be trusted to see a real one.

use access_normalization::model::{model_stats_mutated, Mutation};
use access_normalization::numa::{simulate, MachineConfig, SimStats};
use access_normalization::{compile, CompileOptions};

/// Kernels with asymmetric work across processors (extents not all
/// divisible by every P) and at least one layout with remote traffic —
/// the shapes where each corruption has something to corrupt.
const BATTERY: &[&str] = &["fig1", "gemm", "mvt", "cholesky", "seidel2d"];
const PROCS: &[usize] = &[2, 3, 4, 8];

fn kernel_source(name: &str) -> String {
    let path = format!("{}/examples/kernels/{name}.an", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// `true` when any integer counter of any processor differs — the exact
/// predicate the search's top-k validation applies.
fn diverges(sim: &SimStats, model: &SimStats) -> bool {
    sim.per_proc.iter().zip(&model.per_proc).any(|(s, m)| {
        s.local_accesses != m.local_accesses
            || s.remote_accesses != m.remote_accesses
            || s.messages != m.messages
            || s.transfer_bytes != m.transfer_bytes
            || s.outer_iterations != m.outer_iterations
    })
}

#[test]
fn every_mutation_class_is_caught_and_the_faithful_model_never_is() {
    let machine = MachineConfig::butterfly_gp1000();
    let mutations = [
        Mutation::TripOffByOne,
        Mutation::DropRemoteTerm,
        Mutation::WrongOwnershipPlane,
    ];
    let mut caught = [false; 3];
    for name in BATTERY {
        let src = kernel_source(name);
        let compiled = compile(&src, &CompileOptions::default()).unwrap();
        let params = compiled.program.default_param_values();
        for &procs in PROCS {
            let sim = simulate(&compiled.spmd, &machine, procs, &params).unwrap();
            // The faithful model must never diverge — anywhere.
            let honest =
                model_stats_mutated(&compiled.spmd, &machine, procs, &params, Mutation::None)
                    .unwrap();
            assert!(
                !diverges(&sim, &honest),
                "{name} P={procs}: unmutated model diverged from the simulator"
            );
            for (k, &m) in mutations.iter().enumerate() {
                if let Ok(bad) = model_stats_mutated(&compiled.spmd, &machine, procs, &params, m) {
                    caught[k] |= diverges(&sim, &bad);
                }
            }
        }
    }
    for (k, &m) in mutations.iter().enumerate() {
        assert!(
            caught[k],
            "{m:?}: differential gate missed this mutation class on the whole battery"
        );
    }
}

#[test]
fn each_mutation_is_caught_on_a_specific_kernel() {
    // Stronger than the battery-wide sweep: pin one (kernel, procs)
    // witness per class so a regression report names the exact scene.
    let machine = MachineConfig::butterfly_gp1000();
    let witnesses = [
        // Any depth-2 kernel whose outer loop collapses exposes a trip
        // off-by-one.
        (Mutation::TripOffByOne, "jacobi2d", 4usize),
        // mvt's mixed layout keeps remote element reads around (~9% of
        // accesses stay remote at P=4).
        (Mutation::DropRemoteTerm, "mvt", 4),
        // P∤N work split makes the ownership plane observable.
        (Mutation::WrongOwnershipPlane, "seidel2d", 3),
    ];
    for (m, name, procs) in witnesses {
        let src = kernel_source(name);
        let compiled = compile(&src, &CompileOptions::default()).unwrap();
        let params = compiled.program.default_param_values();
        let sim = simulate(&compiled.spmd, &machine, procs, &params).unwrap();
        let bad = model_stats_mutated(&compiled.spmd, &machine, procs, &params, m).unwrap();
        assert!(
            diverges(&sim, &bad),
            "{m:?} on {name} P={procs}: mutation was invisible to the gate"
        );
    }
}

#[test]
fn depth_three_nests_are_the_simulators_walk() {
    // The model collapses only level 0 of a depth-2 nest; a depth-3 nest
    // goes whole to the simulator's walk, so no mutation hook is reached.
    let machine = MachineConfig::butterfly_gp1000();
    let compiled = compile(&kernel_source("gemm"), &CompileOptions::default()).unwrap();
    assert_eq!(compiled.program.nest.depth(), 3);
    let params = compiled.program.default_param_values();
    for &procs in PROCS {
        let sim = simulate(&compiled.spmd, &machine, procs, &params).unwrap();
        for m in [
            Mutation::None,
            Mutation::TripOffByOne,
            Mutation::DropRemoteTerm,
            Mutation::WrongOwnershipPlane,
        ] {
            let model = model_stats_mutated(&compiled.spmd, &machine, procs, &params, m).unwrap();
            assert_eq!(model, sim, "{m:?} on gemm P={procs}");
        }
    }
}
