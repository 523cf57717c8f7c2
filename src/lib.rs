//! # Access Normalization
//!
//! A reproduction of *Li & Pingali, "Access Normalization: Loop
//! Restructuring for NUMA Compilers"* (ASPLOS 1992) as a family of Rust
//! crates. This facade crate re-exports the whole pipeline and offers a
//! one-call [`compile`] driver:
//!
//! - [`linalg`] — exact integer linear algebra (column Hermite normal
//!   form, determinants, Diophantine solving, lattices, projections).
//! - [`poly`] — symbolic affine expressions, constraint systems and
//!   Fourier–Motzkin elimination.
//! - [`ir`] — the affine loop-nest intermediate representation with data
//!   distribution declarations, plus a reference interpreter.
//! - [`lang`] — a small FORTRAN-D-like surface language.
//! - [`deps`] — dependence analysis (distance vectors, legality).
//! - [`core`] — the paper's contribution: data access matrices and the
//!   algorithms `BasisMatrix`, `Padding`, `LegalBasis`, `LegalInvt`.
//! - [`codegen`] — loop restructuring by invertible matrices and SPMD
//!   code generation with block transfers.
//! - [`numa`] — a NUMA machine cost-model simulator (BBN Butterfly
//!   GP-1000 and Intel iPSC/i860 profiles).
//! - [`verify_mod`] — an independent soundness verifier that re-derives
//!   legality, bounds, race-freedom and transfer-coverage evidence from
//!   scratch and reports structured `AN0xxx` diagnostics (see
//!   [`verify`] and `CompileOptions::verify`).
//! - [`normal`] — a-priori nest normalization: induction-variable
//!   substitution, stride normalization and statement sinking over the
//!   surface AST, each rewrite differentially checked against the
//!   seeded interpreter and reported as `AN06xx` lints. [`compile`]
//!   pre-normalizes automatically; see [`parse_normalized`] and
//!   `CompileOptions::skip_prenormalize`.
//! - [`serve`] — the fault-isolated compile-as-a-service daemon behind
//!   `anc serve`: a JSON-lines protocol, per-request fault cells,
//!   admission control, poison-pill quarantine and `AN07xx` serving
//!   diagnostics.
//!
//! The driver itself ([`compile`], [`CompileOptions`], [`CompileBudget`],
//! [`PipelineCtx`], [`Error`]) lives in the `an-driver` crate and is
//! re-exported here unchanged, so long-lived hosts (the serve daemon)
//! and one-shot callers share one implementation.
//!
//! ## Quickstart
//!
//! ```
//! use access_normalization::{compile, CompileOptions};
//! use access_normalization::numa::{simulate, MachineConfig};
//!
//! // The running example of the paper (Figure 1(a)).
//! let src = r#"
//!     param N1 = 8; param b = 4; param N2 = 8;
//!     array A[N1, N1 + N2 + b] distribute wrapped(1);
//!     array B[N1, b] distribute wrapped(1);
//!     for i = 0, N1 - 1 {
//!       for j = i, i + b - 1 {
//!         for k = 0, N2 - 1 {
//!           B[i, j - i] = B[i, j - i] + A[i, j + k];
//!         }
//!       }
//!     }
//! "#;
//! let compiled = compile(src, &CompileOptions::default())?;
//! assert!(compiled.normalized.transform.is_invertible());
//!
//! // Simulate the generated SPMD program on the paper's machine.
//! let machine = MachineConfig::butterfly_gp1000();
//! let t1 = simulate(&compiled.spmd, &machine, 1, &[8, 4, 8])?;
//! let t4 = simulate(&compiled.spmd, &machine, 4, &[8, 4, 8])?;
//! assert!(t1.time_us > t4.time_us);
//! # Ok::<(), access_normalization::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use an_codegen as codegen;
pub use an_core as core;
pub use an_deps as deps;
pub use an_diag as diag;
pub use an_ir as ir;
pub use an_lang as lang;
pub use an_linalg as linalg;
pub use an_model as model;
pub use an_normal as normal;
pub use an_numa as numa;
pub use an_obs as obs;
pub use an_poly as poly;
pub use an_serve as serve;
pub use an_verify as verify_mod;

pub use an_driver::{
    compile, compile_program, compile_program_with, parse_normalized, parse_normalized_with_spans,
    verify, verify_options_for, verify_with, BudgetExceeded, CompileBudget, CompileOptions,
    Compiled, Error, PipelineCtx,
};

pub mod autodist;
pub mod fuzz;
