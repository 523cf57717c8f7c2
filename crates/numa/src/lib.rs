//! A NUMA machine cost-model simulator.
//!
//! The paper evaluates access normalization on a BBN Butterfly GP-1000:
//! local memory access ≈ 0.6 µs, remote access ≈ 6.6 µs, block transfers
//! cost ≈ 8 µs startup plus 0.31 µs per byte. The observed speedups are
//! an *access-counting* phenomenon — per-processor counts of local
//! accesses, remote accesses and messages — which is exactly what this
//! simulator computes: it executes the SPMD programs produced by
//! `an-codegen` and prices every access with the published constants
//! (machine profiles in [`machine`], including an Intel iPSC/i860
//! profile and an optional Agarwal-style contention model).
//!
//! The engine ([`simulate()`]) walks each processor's loop prefixes and
//! prices the innermost loop in closed form (counting which iterations
//! hit local vs. remote homes by modular arithmetic), so full paper-sized
//! problems (400×400 GEMM) simulate in milliseconds. What it prices —
//! extents, flattened subscripts, the outer-assignment filter, transfer
//! homes, the walk over the loop levels — is the per-processor domain
//! plan of [`plan`], which the closed-form `an-model` crate evaluates
//! too.
//!
//! ```
//! use an_numa::{simulate, MachineConfig};
//! use an_codegen::{generate_spmd, apply_transform, SpmdOptions};
//! use an_core::{normalize, NormalizeOptions};
//!
//! let p = an_lang::parse("
//!     param N = 32;
//!     array C[N, N] distribute wrapped(1);
//!     array A[N, N] distribute wrapped(1);
//!     array B[N, N] distribute wrapped(1);
//!     for i = 0, N - 1 { for j = 0, N - 1 { for k = 0, N - 1 {
//!         C[i, j] = C[i, j] + A[i, k] * B[k, j];
//!     } } }
//! ").unwrap();
//! let r = normalize(&p, &NormalizeOptions::default()).unwrap();
//! let tp = apply_transform(&p, &r.transform).unwrap();
//! let spmd = generate_spmd(&tp, Some(&r.dependences), &SpmdOptions::default());
//! let machine = MachineConfig::butterfly_gp1000();
//! let t1 = simulate(&spmd, &machine, 1, &[32]).unwrap();
//! let t8 = simulate(&spmd, &machine, 8, &[32]).unwrap();
//! let speedup = t1.time_us / t8.time_us;
//! assert!(speedup > 4.0, "normalized GEMM should scale, got {speedup}");
//! // Accesses to C and B are local after normalization; only the A
//! // column transfers keep this below linear at this small size.
//! assert!(t8.remote_fraction() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod faults;
mod level_sum;
pub mod machine;
pub mod model;
pub mod ownership;
pub mod plan;
pub mod simulate;
pub mod stats;
pub mod sweep;

mod error;

pub use error::SimError;
pub use faults::{
    run_chaos, run_chaos_with_policy, simulate_chaos, ChaosError, ChaosExecution, ChaosReport,
    FailStop, FaultPlan, ReplayPolicy, Scenario, SpikeWindow,
};
pub use machine::{ContentionModel, MachineConfig};
pub use model::{predict, ModelPrediction};
pub use ownership::simulate_ownership;
pub use simulate::{simulate, simulate_traced};
pub use stats::{add_count, FaultStats, ProcStats, SimStats};
pub use sweep::{sweep, SweepConfig, SweepPoint, SweepReport};
