//! The end-to-end compile driver for the access-normalization pipeline.
//!
//! This crate owns the one-call [`compile`] entry point and everything a
//! host needs to run many compilations safely and cheaply:
//!
//! - [`CompileOptions`] / [`CompileBudget`] — per-compile configuration
//!   and resource ceilings with typed [`Error::Budget`] failures,
//! - [`PipelineCtx`] — shared memoization across repeated compiles of
//!   one base program (distribution search, a serving daemon's warm
//!   cache),
//! - [`parse_normalized`] — the a-priori nest-normalization front door,
//! - [`verify`] / [`verify_with`] — the independent soundness verifier
//!   over compiled artifacts.
//!
//! It sits below the `access-normalization` facade (which re-exports all
//! of it) so long-lived hosts such as the `an-serve` compile daemon can
//! drive the pipeline without depending on the facade crate itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub use error::{BudgetExceeded, Error};

/// Monotone version of the compile pipeline's observable output.
///
/// Bump this whenever a change alters any emitted artifact byte-for-byte
/// (codegen text, transform selection, normalization rewrites). Durable
/// artifact caches (the `an-serve` persistent cache) embed it in every
/// entry and treat a mismatch as a cache miss, so stale artifacts from an
/// older pipeline are recompiled instead of served.
pub const PIPELINE_VERSION: u32 = 1;

use an_codegen::{
    apply_transform_traced, generate_spmd_traced, CodegenError, SpmdOptions, SpmdProgram,
    TransformedProgram,
};
use an_core::{normalize_with, NormCache, NormContext, NormalizeOptions, NormalizeResult};
use an_deps::DependenceInfo;
use an_ir::Program;
use an_lang::SpanMap;
use an_linalg::cache::{CacheStats, MemoCache};
use an_linalg::IMatrix;
use an_obs::{EventKind, Tracer};
use an_poly::{FmBudget, PolyError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Resource ceilings for one end-to-end compilation.
///
/// Every limit converts a worst-case blowup into a typed
/// [`Error::Budget`] carrying what tripped and how far over the input
/// was. The defaults are far above anything a real loop nest needs, so
/// they only fire on pathological or adversarial inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileBudget {
    /// Maximum live constraints during a single Fourier–Motzkin
    /// elimination (its output can square per eliminated variable).
    pub max_fm_constraints: usize,
    /// Maximum loop-nest depth accepted by the pipeline.
    pub max_loop_depth: usize,
    /// Maximum distribution assignments an automatic search may
    /// enumerate (the space is a per-array product).
    pub max_search_candidates: usize,
    /// Optional wall-clock deadline for one compilation, in
    /// milliseconds from the moment `compile` is entered.
    pub deadline_ms: Option<u64>,
}

impl Default for CompileBudget {
    fn default() -> Self {
        CompileBudget {
            max_fm_constraints: 20_000,
            max_loop_depth: 16,
            max_search_candidates: 1_000_000,
            deadline_ms: None,
        }
    }
}

impl CompileBudget {
    /// The polyhedral-layer budget for a compile starting now.
    fn fm_budget(&self) -> FmBudget {
        FmBudget {
            max_constraints: self.max_fm_constraints,
            deadline: self
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// Maps a polyhedral failure to the facade error, attributing
    /// budget-type failures to [`Error::Budget`].
    fn classify_poly(&self, e: PolyError, stage: &'static str) -> Error {
        match e {
            PolyError::TooManyConstraints { limit, produced } => Error::Budget(BudgetExceeded {
                resource: "fm-constraints",
                limit: limit as u64,
                observed: Some(produced as u64),
                stage,
            }),
            PolyError::DeadlineExceeded => Error::Budget(BudgetExceeded {
                resource: "deadline",
                limit: self.deadline_ms.unwrap_or(0),
                observed: None,
                stage,
            }),
            PolyError::Overflow => Error::Codegen(CodegenError::Poly(PolyError::Overflow)),
        }
    }
}

/// Options for the end-to-end [`compile`] driver.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Access-normalization options.
    pub normalize: NormalizeOptions,
    /// SPMD generation options.
    pub spmd: SpmdOptions,
    /// Skip restructuring (identity transform): the paper's naive
    /// baseline that distributes the original outer loop.
    pub skip_transform: bool,
    /// Run the independent soundness verifier (`an-verify`) on the
    /// compiled artifacts and fail with [`Error::Verify`] if it finds
    /// an error-severity violation.
    pub verify: bool,
    /// Skip the a-priori nest normalization that [`compile`] (and every
    /// other source entry point) runs by default. With normalization
    /// skipped, a messy nest is rejected with [`Error::Lint`] carrying
    /// the `AN06xx` codes at error severity instead of being rewritten
    /// (see [`an_normal::require_canonical`]).
    pub skip_prenormalize: bool,
    /// Resource ceilings for this compilation.
    pub budget: CompileBudget,
    /// When set, every pipeline stage records spans, events and metrics
    /// on this tracer. Tracing never changes the compiled artifacts —
    /// see `tests/obs_property.rs` for the enforced guarantee.
    pub tracer: Option<Arc<Tracer>>,
}

/// Everything the compiler produced for one program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The parsed (or given) input program.
    pub program: Program,
    /// Access-normalization result (transform, access matrix,
    /// dependences).
    pub normalized: NormalizeResult,
    /// The restructured nest.
    pub transformed: TransformedProgram,
    /// The per-processor SPMD program (input to the simulator).
    pub spmd: SpmdProgram,
}

/// Parses, pre-normalizes, restructures and SPMD-generates a source
/// program.
///
/// # Errors
///
/// Any stage's error, wrapped in [`Error`].
pub fn compile(src: &str, opts: &CompileOptions) -> Result<Compiled, Error> {
    let (program, _lint) = parse_normalized(src, opts)?;
    compile_program(&program, opts)
}

/// Parses a source program and brings the nest into canonical form
/// before lowering: induction-variable substitution, stride
/// normalization and statement sinking, every applied rewrite
/// differentially checked against the seeded interpreter.
///
/// With `opts.skip_prenormalize` the rewrites are disabled and a messy
/// nest is rejected instead ([`an_normal::require_canonical`]). The
/// returned [`an_normal::LintReport`] carries the `AN06xx` findings for
/// programs that do lower — informational on the rewrite path, empty on
/// the skip path for canonical programs.
///
/// # Errors
///
/// [`Error::Lint`] when normalization (or the canonical-form gate)
/// reports error-severity findings; [`Error::Lang`] for lex, parse and
/// lowering failures.
pub fn parse_normalized(
    src: &str,
    opts: &CompileOptions,
) -> Result<(Program, an_normal::LintReport), Error> {
    parse_normalized_with_spans(src, opts).map(|(p, _, report)| (p, report))
}

/// [`parse_normalized`] that also returns the source [`SpanMap`] of the
/// normalized AST, for attaching verifier diagnostics to source lines.
///
/// # Errors
///
/// See [`parse_normalized`].
pub fn parse_normalized_with_spans(
    src: &str,
    opts: &CompileOptions,
) -> Result<(Program, SpanMap, an_normal::LintReport), Error> {
    let tracer = opts.tracer.as_deref();
    let _span = tracer.map(|t| t.span("prenormalize"));
    let tokens = an_lang::lexer::lex(src)?;
    let ast = an_lang::parser::parse_tokens(&tokens)?;
    let (ast, report) = if opts.skip_prenormalize {
        let report = an_normal::require_canonical(&ast);
        (ast, report)
    } else {
        let normalized = an_normal::normalize(
            &ast,
            &an_normal::Options {
                tracer: opts.tracer.clone(),
                ..an_normal::Options::default()
            },
        );
        (normalized.ast, normalized.report)
    };
    if report.has_errors() {
        return Err(Error::Lint(report));
    }
    let spans = SpanMap::from_ast(&ast);
    let program = an_lang::lower::lower(&ast)?;
    Ok((program, spans, report))
}

/// [`compile`] for an already-built IR program.
///
/// # Errors
///
/// Any stage's error, wrapped in [`Error`].
pub fn compile_program(program: &Program, opts: &CompileOptions) -> Result<Compiled, Error> {
    compile_program_with(program, opts, &PipelineCtx::default())
}

/// Shared memoization for compiling many variants of one base program.
///
/// Distribution search compiles the same loop nest over and over with
/// different distribution annotations; the expensive stages recur on
/// identical inputs and are cached here:
///
/// - dependence analysis (computed once — distributions do not affect
///   dependences),
/// - basis extraction and `LegalBasis`/`LegalInvt` legalization (keyed
///   by matrix contents, in [`NormCache`]),
/// - loop restructuring with its Fourier–Motzkin bound derivation
///   (keyed by the transform matrix; distributions are patched onto the
///   cached nest afterwards, which is sound because `apply_transform`
///   never reads them).
///
/// **Invariant:** a `PipelineCtx` is tied to one base program. Every
/// program compiled through it must share the same loop nest,
/// parameters, and array shapes, differing only in distribution
/// annotations. The context is thread-safe: share `&PipelineCtx` across
/// a parallel search.
#[derive(Debug, Default)]
pub struct PipelineCtx {
    /// Normalization memo tables.
    pub norm: NormCache,
    transforms: MemoCache<IMatrix, Result<TransformedProgram, CodegenError>>,
    deps: OnceLock<DependenceInfo>,
}

impl PipelineCtx {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs dependence analysis for `program` once and pins the result,
    /// so a parallel search does not race several redundant analyses at
    /// startup. No-op if dependences are already pinned.
    ///
    /// # Errors
    ///
    /// [`Error::Ir`] for loop bounds or array extents that can leave
    /// `i64`, [`Error::Deps`] if analysis fails.
    pub fn precompute_deps(
        &self,
        program: &Program,
        opts: &an_deps::DepOptions,
    ) -> Result<(), Error> {
        if self.deps.get().is_none() {
            let d = analyze_deps(program, opts, None)?;
            let _ = self.deps.set(d);
        }
        Ok(())
    }

    /// Combined hit/miss counters over every memo table.
    pub fn stats(&self) -> CacheStats {
        self.norm.stats() + self.transforms.stats()
    }
}

/// Dependence analysis, the first stage to walk the nest at concrete
/// parameters: a bound that can leave `i64` there is rejected before
/// the walk evaluates it, and an array extent that does before any
/// later stage (the verifier, pricing, the interpreter) evaluates it.
fn analyze_deps(
    program: &Program,
    opts: &an_deps::DepOptions,
    tracer: Option<&Tracer>,
) -> Result<DependenceInfo, Error> {
    let params = program.default_param_values();
    program.nest.reach(&params)?;
    program.check_extents(&params)?;
    Ok(an_deps::analyze_traced(program, opts, tracer)?)
}

/// [`compile_program`] through a shared [`PipelineCtx`].
///
/// The result is identical to an uncached compile — every cached stage
/// is a pure function of its inputs — but repeated calls skip the
/// integer-linear-algebra and bound-derivation work.
///
/// # Errors
///
/// Any stage's error, wrapped in [`Error`].
pub fn compile_program_with(
    program: &Program,
    opts: &CompileOptions,
    ctx: &PipelineCtx,
) -> Result<Compiled, Error> {
    let tracer = opts.tracer.as_deref();
    let _compile_span = tracer.map(|t| t.span("compile"));
    let depth = program.nest.depth();
    if let Some(t) = tracer {
        t.emit(EventKind::BudgetCharge {
            resource: "loop-depth".to_string(),
            amount: depth as u64,
            limit: opts.budget.max_loop_depth as u64,
        });
    }
    if depth > opts.budget.max_loop_depth {
        return Err(Error::Budget(BudgetExceeded {
            resource: "loop-depth",
            limit: opts.budget.max_loop_depth as u64,
            observed: Some(depth as u64),
            stage: "front-end",
        }));
    }
    let fm = opts.budget.fm_budget();
    let deps = match ctx.deps.get() {
        Some(d) => {
            if let Some(t) = tracer {
                t.emit(EventKind::CacheHit {
                    cache: "deps".to_string(),
                });
            }
            d.clone()
        }
        None => {
            let d = analyze_deps(program, &opts.normalize.deps, tracer)?;
            let _ = ctx.deps.set(d.clone());
            d
        }
    };
    let normalized = normalize_with(
        program,
        &opts.normalize,
        NormContext {
            cache: Some(&ctx.norm),
            deps: Some(&deps),
            tracer,
        },
    )?;
    let t = if opts.skip_transform {
        IMatrix::identity(program.nest.depth())
    } else {
        normalized.transform.clone()
    };
    let restructure_span = tracer.map(|tr| tr.span("restructure"));
    let mut transformed =
        ctx.transforms
            .get_or_insert_traced(t.clone(), tracer, "transform", || {
                apply_transform_traced(program, &t, &fm, tracer)
            });
    // A deadline failure is relative to the *earlier* call's clock:
    // never serve it from the cache, retry against this call's budget.
    if matches!(
        transformed,
        Err(CodegenError::Poly(PolyError::DeadlineExceeded))
    ) {
        transformed = apply_transform_traced(program, &t, &fm, tracer);
    }
    drop(restructure_span);
    let mut transformed = transformed.map_err(|e| match e {
        CodegenError::Poly(pe) => opts.budget.classify_poly(pe, "restructuring"),
        other => Error::Codegen(other),
    })?;
    // The cached nest carries the distributions of whichever candidate
    // computed it; restore this candidate's (a no-op on a cache miss).
    for (cached, live) in transformed.program.arrays.iter_mut().zip(&program.arrays) {
        cached.distribution = live.distribution;
    }
    let codegen_span = tracer.map(|tr| tr.span("codegen"));
    let spmd = generate_spmd_traced(
        &transformed,
        Some(&normalized.dependences),
        &opts.spmd,
        tracer,
    );
    drop(codegen_span);
    let compiled = Compiled {
        program: program.clone(),
        normalized,
        transformed,
        spmd,
    };
    if opts.verify {
        let report = verify_with(&compiled, &verify_options_for(opts));
        if report.has_errors() {
            return Err(Error::Verify(report));
        }
    }
    Ok(compiled)
}

/// The [`an_verify::VerifyOptions`] matching a [`CompileOptions`]: the
/// verifier must not demand block transfers the pipeline was told not
/// to emit.
pub fn verify_options_for(opts: &CompileOptions) -> an_verify::VerifyOptions {
    an_verify::VerifyOptions {
        expect_transfers: opts.spmd.block_transfers,
        tracer: opts.tracer.clone(),
        ..an_verify::VerifyOptions::default()
    }
}

/// Runs the independent soundness verifier over a compilation result
/// with default options. See [`an_verify::verify_artifacts`].
pub fn verify(compiled: &Compiled) -> an_verify::VerifyReport {
    verify_with(compiled, &an_verify::VerifyOptions::default())
}

/// [`verify`] with explicit options.
pub fn verify_with(
    compiled: &Compiled,
    opts: &an_verify::VerifyOptions,
) -> an_verify::VerifyReport {
    an_verify::verify_artifacts(
        &compiled.program,
        &compiled.transformed,
        &compiled.spmd,
        opts,
    )
}
