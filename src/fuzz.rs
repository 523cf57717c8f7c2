//! Seeded, in-tree fuzzing for the compiler boundary.
//!
//! `anc fuzz --seed S --iters N` drives [`run`]: a deterministic
//! splitmix64 stream generates programs from six archetypes and
//! asserts the public boundary contract on each:
//!
//! 1. **Small sane kernels** — must compile, and the compiled artifacts
//!    must pass the independent soundness verifier.
//! 2. **Adversarial coefficients** — subscripts with huge multipliers
//!    (up to ~`i64::MAX/40`, one read up to `i64::MAX`) must either
//!    compile or fail with a *typed* error, and what compiles must be
//!    priced alike — or rejected with the same typed error — by the
//!    simulator and the model; alongside, random near-`i64::MAX`
//!    matrices are pushed through the exact linear algebra and the `i64`
//!    fast path is differentially checked against the
//!    arbitrary-precision path, and a second source whose loop bound has
//!    a multiplier up to `i64::MAX` must compile or fail typed.
//! 3. **Deep skewed nests under a tiny budget** — compilation must
//!    return promptly (typed success or [`Error::Budget`]).
//! 4. **Serve protocol frames** — an eighth of the iteration budget is
//!    spent throwing valid, truncated, mutated, mistyped and oversized
//!    JSON-lines frames at an in-process `anc serve` daemon
//!    (`an_serve::fuzz`); every frame must produce a structured
//!    response within the frame deadline, never a panic or a hang.
//! 5. **Persistent-cache corruption** — another eighth compiles into a
//!    fresh `--cache-dir`, truncates / bit-flips / garbage-rewrites the
//!    entry files on disk, restarts the daemon on the damaged directory
//!    and replays the request; the daemon must neither panic nor hang,
//!    and must recompile rather than ever serve corrupt bytes.
//! 6. **Model-vs-simulator differential** — random sane kernels with
//!    random per-array distributions are compiled and priced twice, by
//!    the closed-form analytic model (`an-model`) and by the discrete
//!    simulator, at a random processor count; every integer counter
//!    (local, remote, messages, transfer bytes, outer iterations) must
//!    match exactly on every processor, or the iteration is a mismatch.
//!
//! No archetype is ever allowed to panic: every compile runs under
//! `catch_unwind` with the panic hook silenced, and any caught unwind is
//! a fuzzing failure. The whole run is reproducible from `(seed, iters)`.

use crate::{compile, verify, CompileBudget, CompileOptions, Error};
use an_linalg::det::{determinant, determinant_big};
use an_linalg::hnf::column_hnf;
use an_linalg::{IMatrix, LinalgError};
use an_serve::fuzz::Rng;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// Options for one fuzzing run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Stream seed; equal seeds reproduce the run exactly.
    pub seed: u64,
    /// Number of generated programs.
    pub iters: u64,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 42,
            iters: 200,
        }
    }
}

/// Outcome counters of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Programs generated.
    pub iterations: u64,
    /// Programs that compiled successfully.
    pub compiled_ok: u64,
    /// Programs rejected with a typed (non-budget) error.
    pub typed_errors: u64,
    /// Programs rejected with [`Error::Budget`].
    pub budget_errors: u64,
    /// Compiles that panicked — always a bug.
    pub panics: u64,
    /// Contract violations: verifier findings on compiled output or
    /// fast-path/exact differential mismatches — always a bug.
    pub mismatches: u64,
    /// One human-readable line per failure, with the iteration index.
    pub failures: Vec<String>,
}

impl FuzzReport {
    /// `true` if the run found no panic and no contract violation.
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.mismatches == 0
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} iteration(s): {} compiled, {} typed error(s), \
             {} budget error(s), {} panic(s), {} mismatch(es)",
            self.iterations,
            self.compiled_ok,
            self.typed_errors,
            self.budget_errors,
            self.panics,
            self.mismatches
        )?;
        for line in &self.failures {
            writeln!(f, "  FAIL {line}")?;
        }
        Ok(())
    }
}

/// Runs the fuzzer. Deterministic for a given [`FuzzOptions`].
///
/// The process-global panic hook is silenced for the duration of the
/// run (caught unwinds are *expected* evidence, not noise) and restored
/// before returning.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let mut report = FuzzReport {
        iterations: opts.iters,
        ..FuzzReport::default()
    };
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for i in 0..opts.iters {
        let mut rng = Rng(opts.seed ^ (i.wrapping_mul(0x517c_c1b7_2722_0a95)));
        match i % 4 {
            0 => fuzz_sane(&mut rng, i, &mut report),
            1 => fuzz_adversarial(&mut rng, i, &mut report),
            2 => fuzz_deep_budgeted(&mut rng, i, &mut report),
            // Archetype 6 rides the slot archetypes 4 and 5 leave
            // free: the serve-side fuzzers are batched below and boot
            // their own in-process daemons.
            _ => fuzz_model_differential(&mut rng, i, &mut report),
        }
    }
    // The serve quarter of the budget is split between protocol frames
    // and persistent-cache corruption.
    let frame_iters = (opts.iters / 8) as usize;
    if frame_iters > 0 {
        let frames = an_serve::fuzz::fuzz_frames(frame_iters, opts.seed, &generated_kernel);
        report.compiled_ok += frames.ok as u64;
        report.typed_errors += frames.rejected as u64;
        // A hang or malformed response breaks the serve contract the
        // same way a verifier rejection breaks the compile contract.
        report.mismatches += (frames.hangs + frames.violations) as u64;
        report
            .failures
            .extend(frames.failures.iter().map(|f| format!("serve-frame {f}")));
    }
    let store_iters = (opts.iters / 4).saturating_sub(opts.iters / 8) as usize;
    if store_iters > 0 {
        let store = an_serve::fuzz::fuzz_cache_store(store_iters, opts.seed, &generated_kernel);
        report.compiled_ok += store.ok as u64;
        report.typed_errors += store.rejected as u64;
        // Serving corrupt cache bytes (or hanging on them) is a
        // contract violation, exactly like a verifier rejection.
        report.mismatches += (store.hangs + store.violations) as u64;
        report
            .failures
            .extend(store.failures.iter().map(|f| format!("cache-store {f}")));
    }
    panic::set_hook(prev_hook);
    report
}

/// A random, always-in-bounds kernel source from the sane-archetype
/// generator, reproducible from `seed`. This is the same generator the
/// fuzzer's archetype 1 draws from, exposed for property tests (e.g.
/// the observability suite) that need a deterministic stream of valid,
/// compilable programs.
pub fn generated_kernel(seed: u64) -> String {
    let mut rng = Rng(seed);
    let depth = rng.range(1, 3) as usize;
    let n = rng.range(4, 8);
    sane_source(&mut rng, depth, n)
}

/// Compiles under `catch_unwind`, folding the outcome into the report.
/// Returns the compile result when it did not panic.
fn guarded_compile(
    src: &str,
    copts: &CompileOptions,
    iter: u64,
    what: &str,
    report: &mut FuzzReport,
) -> Option<Result<crate::Compiled, Error>> {
    let result = panic::catch_unwind(AssertUnwindSafe(|| compile(src, copts)));
    match result {
        Ok(Ok(c)) => {
            report.compiled_ok += 1;
            Some(Ok(c))
        }
        Ok(Err(Error::Budget(b))) => {
            report.budget_errors += 1;
            Some(Err(Error::Budget(b)))
        }
        Ok(Err(e)) => {
            report.typed_errors += 1;
            Some(Err(e))
        }
        Err(_) => {
            report.panics += 1;
            report
                .failures
                .push(format!("iter {iter}: panic compiling {what}:\n{src}"));
            None
        }
    }
}

/// Archetype 1: small in-bounds kernels that must compile and verify.
fn fuzz_sane(rng: &mut Rng, iter: u64, report: &mut FuzzReport) {
    let depth = rng.range(1, 3) as usize;
    let n = rng.range(4, 8);
    let src = sane_source(rng, depth, n);
    let copts = CompileOptions::default();
    let Some(Ok(compiled)) = guarded_compile(&src, &copts, iter, "sane kernel", report) else {
        return;
    };
    let verdict = panic::catch_unwind(AssertUnwindSafe(|| verify(&compiled)));
    match verdict {
        Ok(r) if r.has_errors() => {
            report.mismatches += 1;
            report.failures.push(format!(
                "iter {iter}: verifier rejected sane kernel:\n{src}\n{r}"
            ));
        }
        Ok(_) => {}
        Err(_) => {
            report.panics += 1;
            report
                .failures
                .push(format!("iter {iter}: panic verifying sane kernel:\n{src}"));
        }
    }
}

/// A random, always-in-bounds source program of the given depth.
fn sane_source(rng: &mut Rng, depth: usize, n: u64) -> String {
    let vars: Vec<String> = (0..depth).map(|k| format!("i{k}")).collect();
    let rank = depth.min(2);
    // One subscript expression per array dimension, with the extent that
    // provably covers it for 0 <= i < N.
    let subscript = |rng: &mut Rng| -> (String, String) {
        let a = rng.below(depth as u64) as usize;
        let b = rng.below(depth as u64) as usize;
        match rng.below(3) {
            0 => (vars[a].clone(), "N".to_string()),
            1 if a != b => (format!("{} + {}", vars[a], vars[b]), "2 * N".to_string()),
            _ => (
                format!("{} - {} + N", vars[a], vars[b]),
                "2 * N".to_string(),
            ),
        }
    };
    let (w, r): (Vec<_>, Vec<_>) = (0..rank).map(|_| (subscript(rng), subscript(rng))).unzip();
    let dist_dim = rng.below(rank as u64) as usize;
    let mut src = format!("param N = {n};\n");
    let extents = |s: &[(String, String)]| {
        s.iter()
            .map(|(_, e)| e.clone())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let subs = |s: &[(String, String)]| {
        s.iter()
            .map(|(x, _)| x.clone())
            .collect::<Vec<_>>()
            .join(", ")
    };
    src.push_str(&format!(
        "array A[{}] distribute wrapped({dist_dim});\n",
        extents(&w)
    ));
    src.push_str(&format!(
        "array B[{}] distribute wrapped({dist_dim});\n",
        extents(&r)
    ));
    for v in &vars {
        src.push_str(&format!("for {v} = 0, N - 1 {{ "));
    }
    src.push_str(&format!(
        "A[{}] = A[{}] + B[{}] + 1.0;",
        subs(&w),
        subs(&w),
        subs(&r)
    ));
    src.push_str(&" }".repeat(depth));
    src
}

/// Archetype 2: huge subscript multipliers (compile-or-typed-error,
/// then priced-or-typed-error by both evaluators alike), a differential
/// check of the `i64` linear-algebra fast path against the
/// arbitrary-precision path, and a huge loop-bound multiplier
/// (compile-or-typed-error).
fn fuzz_adversarial(rng: &mut Rng, iter: u64, report: &mut FuzzReport) {
    // Multipliers up to ~2e17: extents still evaluate inside i64, while
    // transform arithmetic on the squared terms overflows freely.
    let c1 = rng.range(1_000_000_007, 200_000_000_000_000_000) as i64;
    let c2 = rng.range(1_000_000_007, 200_000_000_000_000_000) as i64;
    let n = rng.range(3, 5);
    // A third multiplier over the whole of i64: the read it scales
    // compiles, but for most draws leaves i64 by `i = N - 1`, which
    // pricing must reject with a typed error rather than evaluate.
    let c3 = rng.range(1_000_000_007, i64::MAX as u64) as i64;
    let src = format!(
        "param N = {n};\n\
         array A[{c1} * N + {c2} * N] distribute wrapped(0);\n\
         for i = 0, N - 1 {{ for j = 0, N - 1 {{\n\
             A[{c1} * i + {c2} * j] = A[{c1} * i + {c2} * j] + A[{c3} * i];\n\
         }} }}"
    );
    // Either outcome is fine; only a panic is a failure. What compiles
    // is priced, and must be priced or rejected alike by both evaluators.
    let compiled = guarded_compile(
        &src,
        &CompileOptions::default(),
        iter,
        "adversarial kernel",
        report,
    );
    if let Some(Ok(compiled)) = compiled {
        guarded_pricing(&compiled, 4, iter, &src, report);
    }

    // Differential: determinant fast path vs. exact BigInt path on a
    // matrix with near-i64::MAX entries.
    let dim = rng.range(2, 4) as usize;
    let data: Vec<i64> = (0..dim * dim)
        .map(|_| rng.sign() * (rng.below(i64::MAX as u64 / 4) as i64))
        .collect();
    let m = IMatrix::from_vec(dim, dim, data);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let fast = determinant(&m);
        let exact = determinant_big(&m).expect("square input");
        match fast {
            Ok(d) => exact.to_i64() == Some(d),
            // The typed overflow error must mean the exact value really
            // does not fit in i64.
            Err(LinalgError::Overflow) => exact.to_i64().is_none(),
            Err(_) => false,
        }
    }));
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            report.mismatches += 1;
            report.failures.push(format!(
                "iter {iter}: determinant differential mismatch on\n{m}"
            ));
        }
        Err(_) => {
            report.panics += 1;
            report.failures.push(format!(
                "iter {iter}: panic in determinant differential on\n{m}"
            ));
        }
    }

    // HNF consistency: |diag product of H| == |det| (H = A·U, U unimodular).
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| match column_hnf(&m) {
        Ok(h) => {
            let diag: Option<i64> = (0..dim).try_fold(1i64, |acc, k| acc.checked_mul(h.h[(k, k)]));
            match (diag, determinant(&m)) {
                (Some(p), Ok(d)) => p.checked_abs() == d.checked_abs(),
                // Either side overflowing i64 leaves nothing to compare.
                _ => true,
            }
        }
        Err(LinalgError::Overflow) => true,
        Err(_) => false,
    }));
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            report.mismatches += 1;
            report
                .failures
                .push(format!("iter {iter}: HNF/determinant mismatch on\n{m}"));
        }
        Err(_) => {
            report.panics += 1;
            report
                .failures
                .push(format!("iter {iter}: panic in HNF differential on\n{m}"));
        }
    }

    // A loop-bound multiplier over the whole of i64, in a source of its
    // own so the kernel above keeps its reach: `c4 · N` leaves i64 for
    // most draws, which the front end must reject with a typed error
    // rather than evaluate. What compiles spans up to ~2⁶³ points, so it
    // is compiled only, never priced.
    let c4 = rng.range(1, i64::MAX as u64) as i64;
    let src = format!(
        "param N = {n};\n\
         array A[N, N] distribute wrapped(0);\n\
         for i = 0, {c4} * N {{ for j = 0, N - 1 {{ A[j, i] = A[j, i] + 1; }} }}"
    );
    guarded_compile(
        &src,
        &CompileOptions::default(),
        iter,
        "adversarial loop bound",
        report,
    );
}

/// Archetype 3: deep skewed nests compiled under a deliberately tiny
/// budget — must return a typed outcome promptly, never hang or panic.
fn fuzz_deep_budgeted(rng: &mut Rng, iter: u64, report: &mut FuzzReport) {
    let depth = rng.range(5, 8) as usize;
    let n = rng.range(3, 6);
    let mut src = format!("param N = {n};\narray A[{depth} * N] distribute wrapped(0);\n");
    src.push_str("for i0 = 0, N - 1 { ");
    for k in 1..depth {
        // Skew each loop against its predecessor so elimination has to
        // combine bounds across every level.
        src.push_str(&format!("for i{k} = i{}, i{} + N - 1 {{ ", k - 1, k - 1));
    }
    src.push_str(&format!("A[i{}] = A[i{}] + 1.0;", depth - 1, depth - 1));
    src.push_str(&" }".repeat(depth));
    // i_{d-1} <= i0 + (d-1)(N-1) <= d(N-1) < d*N: in bounds.
    let copts = CompileOptions {
        budget: CompileBudget {
            max_fm_constraints: rng.range(4, 64) as usize,
            deadline_ms: Some(5_000),
            ..CompileBudget::default()
        },
        ..CompileOptions::default()
    };
    guarded_compile(&src, &copts, iter, "deep budgeted nest", report);
}

/// Archetype 6: differential model-vs-simulator pricing on random sane
/// kernels under random per-array distributions and processor counts.
/// The analytic counts must equal the simulator's exactly — any
/// divergence on any integer counter of any processor is a mismatch.
fn fuzz_model_differential(rng: &mut Rng, iter: u64, report: &mut FuzzReport) {
    let depth = rng.range(1, 3) as usize;
    let n = rng.range(4, 9);
    let mut src = sane_source(rng, depth, n);
    // Reassign each array's distribution at random — the generator only
    // emits wrapped(d); the model must agree under every plan.
    for _ in 0..2 {
        let dist = match rng.below(4) {
            0 => format!("wrapped({})", rng.below(2)),
            1 => format!("blocked({})", rng.below(2)),
            2 if depth >= 2 => "block2d(0, 1)".to_string(),
            2 => "blocked(0)".to_string(),
            _ => "replicated".to_string(),
        };
        let at = src
            .find("distribute wrapped(")
            .expect("generator emits wrapped");
        let end = at + src[at..].find(')').expect("closing paren") + 1;
        src.replace_range(at..end, &format!("distribute {dist}"));
    }
    let Some(Ok(compiled)) = guarded_compile(
        &src,
        &CompileOptions::default(),
        iter,
        "model differential kernel",
        report,
    ) else {
        return;
    };
    let procs = [1usize, 2, 3, 4, 8, 16][rng.below(6) as usize];
    guarded_pricing(&compiled, procs, iter, &src, report);
}

/// Prices `compiled` with the simulator and the analytic model under
/// `catch_unwind`: the two must agree ([`crate::autodist::stats_agree`]),
/// or both must reject with the same typed error.
fn guarded_pricing(
    compiled: &crate::Compiled,
    procs: usize,
    iter: u64,
    src: &str,
    report: &mut FuzzReport,
) {
    let machine = an_numa::MachineConfig::butterfly_gp1000();
    let params = compiled.program.default_param_values();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let sim = an_numa::simulate(&compiled.spmd, &machine, procs, &params);
        let model = an_model::model_stats(&compiled.spmd, &machine, procs, &params);
        match (sim, model) {
            (Ok(s), Ok(m)) => crate::autodist::stats_agree(&s, &m),
            // Errors must agree too: same typed error from both paths.
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }));
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            report.mismatches += 1;
            report.failures.push(format!(
                "iter {iter}: model/simulator divergence at P={procs} on:\n{src}"
            ));
        }
        Err(_) => {
            report.panics += 1;
            report.failures.push(format!(
                "iter {iter}: panic in model differential at P={procs} on:\n{src}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_is_clean_and_deterministic() {
        let opts = FuzzOptions { seed: 7, iters: 24 };
        let a = run(&opts);
        assert!(a.clean(), "{a}");
        assert!(a.compiled_ok > 0, "{a}");
        let b = run(&opts);
        assert_eq!(a.compiled_ok, b.compiled_ok);
        assert_eq!(a.typed_errors, b.typed_errors);
        assert_eq!(a.budget_errors, b.budget_errors);
    }

    #[test]
    fn sane_sources_parse() {
        let mut rng = Rng(1);
        for depth in 1..=3 {
            let src = sane_source(&mut rng, depth, 5);
            an_lang::parse(&src).unwrap_or_else(|e| panic!("{e}:\n{src}"));
        }
    }
}
