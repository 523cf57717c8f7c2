//! The six workloads: what each one runs as an operation, how it is set
//! up, measured in rounds, and checked for correctness afterwards.

use crate::calib::Calibrator;
use crate::daemon::{compile_frame, Client, Daemon};
use crate::gen::{corpus_inputs, Input, Rng, CORPUS};
use crate::trace::Recorder;
use access_normalization as an;
use an::autodist::{search_report, AutoDistOptions, SearchReport};
use an::codegen::emit::emit_spmd;
use an::numa::MachineConfig;
use an::serve::json::{self, Json};
use an::verify_mod::{VerifyOptions, VerifyReport};
use an::{CompileOptions, Compiled};
use std::path::Path;
use std::time::{Duration, Instant};

/// Simulated machine size for every priced artifact.
pub const PROCS: usize = 8;
/// Load threads, search jobs and daemon workers: the sandbox has two
/// cores, so more would only measure the scheduler.
pub const LOAD_THREADS: usize = 2;
/// A run measures at least this many rounds, however slow a round is.
const MIN_ROUNDS: usize = 3;
/// Serve responses fully compared against the in-process compiler; the
/// rest are checked for `ok` and `cached` only, which keeps the check
/// bounded should the daemon ever answer in microseconds.
const FULL_COMPARE_CAP: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `compile(src)` + `emit_spmd`, fresh pipeline context each.
    Compile,
    /// `autodist::search_report` with its defaults at `PROCS`.
    Search,
    /// `verify(&compiled)` with default options.
    Check,
    /// A request line to a real `anc serve` child over TCP. The only
    /// kind read on the uncorrected wall clock: at the seed a request
    /// waits 44 ms on the peer's delayed-ACK timer and the CPU's share
    /// of that is a thousandth, so scaling by a CPU probe would add the
    /// very noise it removes elsewhere. Should a later change take the
    /// stall away, these workloads become CPU-bound and need the
    /// correction too — a change to the benchmark of its own.
    Serve { hit: bool },
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Which corpus kernels (name, nest depth) the workload runs.
    pub keep: fn(&str, usize) -> bool,
    /// Each kept kernel runs once per entry, at that multiple of its
    /// default sizes.
    pub sizes: &'static [f64],
    /// Whole rounds run (untimed) at the end of set-up. A count, not a
    /// duration, so that `setup_s` measures work and not a timer.
    pub warmup_rounds: usize,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "compile_corpus",
        why: "front end and compile layers do all the work, pricing, verifier and serve none; the messy twins are its tail",
        kind: Kind::Compile,
        keep: |_, _| true,
        sizes: &[1.0],
        warmup_rounds: 20,
    },
    Spec {
        name: "search_deep",
        why: "depth-3 kernels: the model still walks levels above the collapse level, so model, numa, driver memo and par dominate",
        kind: Kind::Search,
        keep: |_, depth| depth == 3,
        sizes: &[1.0],
        warmup_rounds: 1,
    },
    Spec {
        name: "search_flat",
        why: "depth<=2 kernels at 1x and 16x size: pricing is already O(1) in N, so a deeper collapse predicts no change here",
        kind: Kind::Search,
        keep: |_, depth| depth <= 2,
        sizes: &[1.0, 16.0],
        warmup_rounds: 1,
    },
    Spec {
        name: "check_corpus",
        why: "verify and the ir interpreter do all the work, compile and pricing are idle; trmm and lu are most of a round",
        kind: Kind::Check,
        keep: |_, _| true,
        sizes: &[CHECK_SCALE],
        warmup_rounds: 1,
    },
    Spec {
        name: "serve_hit",
        why: "read path of serve over real TCP: framing, JSON, hash, resident cache, net; the pipeline does nothing",
        kind: Kind::Serve { hit: true },
        keep: |_, _| true,
        sizes: &[1.0],
        warmup_rounds: 1,
    },
    Spec {
        name: "serve_miss",
        why: "write path of serve: every request a never-seen source, so parse, compile, model, emit and cache commit per request",
        kind: Kind::Serve { hit: false },
        keep: |_, _| true,
        sizes: &[1.0],
        warmup_rounds: 1,
    },
];

/// `check_corpus` runs the corpus at this share of its default sizes so
/// that three rounds and a warm-up fit in a ten-second run (at 1.0 one
/// round takes about six seconds, trmm and lu most of it).
pub const CHECK_SCALE: f64 = 0.8;

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// The input list of a workload.
pub fn generate_inputs(spec: &Spec) -> Vec<Input> {
    let mut inputs = Vec::new();
    for &scale in spec.sizes {
        for mut input in corpus_inputs(spec.keep, scale) {
            if spec.sizes.len() > 1 {
                input.label = format!("{}@{scale}x", input.label);
            }
            inputs.push(input);
        }
    }
    inputs
}

/// A never-seen source for `serve_miss`: kernel `kernel` behind a
/// comment no other request of any run with this seed carries, so its
/// content hash is new to the daemon.
fn miss_source(kernel: usize, seed: u64, client: usize, seq: u64) -> String {
    format!("// nonce {seed}-{client}-{seq}\n{}", CORPUS[kernel].2)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One pass over the workload's input list by one client.
pub struct Round {
    /// Wall seconds spent in the round's operations.
    pub seconds: f64,
    /// Mean reference-probe time during the round, in seconds per
    /// repetition; `None` on a wall-clock workload.
    pub probe: Option<f64>,
    /// Operations performed (candidates priced, for a search).
    pub ops: f64,
    /// Per operation call: input index and microseconds per operation.
    pub samples: Vec<(usize, f64)>,
}

/// What one measured (or warm-up) pass produced.
pub struct Measured {
    pub labels: Vec<String>,
    pub rounds: Vec<Round>,
    pub clients: usize,
    /// The reference probe's undisturbed cost (see [`crate::calib`]);
    /// `None` on a wall-clock workload.
    pub nominal_probe: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or failed output check.
    pub failures: Vec<String>,
    pub recorder: Recorder,
}

impl Measured {
    fn new(labels: Vec<String>, clients: usize, traced: bool) -> Measured {
        Measured {
            labels,
            rounds: Vec::new(),
            clients,
            nominal_probe: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            recorder: Recorder::new(traced),
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// The factor each round's timings are multiplied by: the
    /// interference correction of [`crate::calib`], or 1 on a
    /// wall-clock workload.
    pub fn factors(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| match (self.nominal_probe, r.probe) {
                (Some(nominal), Some(probe)) => nominal / probe,
                _ => 1.0,
            })
            .collect()
    }

    /// Median of the rounds' corrected durations, in microseconds.
    pub fn round_us(&self) -> f64 {
        let us: Vec<f64> = self
            .rounds
            .iter()
            .zip(self.factors())
            .map(|(round, factor)| round.seconds * factor * 1e6)
            .collect();
        crate::stats::median(&us)
    }
}

/// One serve response, reduced to what the output check needs.
struct Answer {
    label: usize,
    /// The request's source, kept for a full comparison (see
    /// [`FULL_COMPARE_CAP`]).
    source: Option<String>,
    ok: bool,
    cached: Option<bool>,
    spmd_fnv: Option<u64>,
}

struct ServeClient {
    client: Client,
    index: usize,
    rng: Rng,
    seq: u64,
    answers: Vec<Answer>,
}

enum State {
    Compile {
        last: Vec<Option<(Compiled, String)>>,
    },
    Search {
        programs: Vec<an::ir::Program>,
        first: Vec<Option<SearchReport>>,
        last: Vec<Option<SearchReport>>,
    },
    Check {
        compiled: Vec<Compiled>,
        last: Vec<Option<VerifyReport>>,
    },
    Serve {
        daemon: Daemon,
        clients: Vec<ServeClient>,
        frames: Vec<String>,
        hit: bool,
    },
}

/// A workload after set-up, ready to run rounds.
pub struct Ready {
    pub inputs: Vec<Input>,
    seed: u64,
    rng: Rng,
    state: State,
}

pub fn search_options() -> AutoDistOptions {
    AutoDistOptions {
        procs: PROCS,
        jobs: LOAD_THREADS,
        ..AutoDistOptions::default()
    }
}

/// The one-call pipeline an untraced `compile_corpus` operation runs.
pub fn compile_one(source: &str) -> Result<(Compiled, String), String> {
    let compiled = an::compile(source, &CompileOptions::default()).map_err(|e| e.to_string())?;
    let text = emit_spmd(&compiled.spmd);
    Ok((compiled, text))
}

/// `an_core::normalize_with` the way the driver calls it on a fresh
/// context: dependences supplied, an empty memo table.
pub fn core_normalize(
    program: &an::ir::Program,
    opts: &CompileOptions,
    deps: &an::deps::DependenceInfo,
) -> Result<an::core::NormalizeResult, an::core::CoreError> {
    an::core::normalize_with(
        program,
        &opts.normalize,
        an::core::NormContext {
            cache: Some(&an::core::NormCache::default()),
            deps: Some(deps),
            tracer: None,
        },
    )
}

/// The same pipeline called stage by stage, with a span around each
/// layer's public function — the traced `compile_corpus` operation.
pub fn compile_staged(source: &str, rec: &mut Recorder) -> Result<(Compiled, String), String> {
    let opts = CompileOptions::default();
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let tokens = rec
        .within("lang.lex", || an::lang::lexer::lex(source))
        .map_err(|e| err(&e))?;
    let ast = rec
        .within("lang.parse", || an::lang::parser::parse_tokens(&tokens))
        .map_err(|e| err(&e))?;
    let normalized = rec.within("normal.normalize", || {
        an::normal::normalize(&ast, &an::normal::Options::default())
    });
    if normalized.report.has_errors() {
        return Err("pre-normalization reported errors".to_string());
    }
    let ast = normalized.ast;
    let program = rec
        .within("lang.lower", || {
            let _spans = an::lang::SpanMap::from_ast(&ast);
            an::lang::lower::lower(&ast)
        })
        .map_err(|e| err(&e))?;
    let deps = rec
        .within("deps.analyze", || {
            an::deps::analyze(&program, &opts.normalize.deps)
        })
        .map_err(|e| err(&e))?;
    let normalized = rec
        .within("core.normalize", || core_normalize(&program, &opts, &deps))
        .map_err(|e| err(&e))?;
    let transformed = rec
        .within("codegen.restructure", || {
            an::codegen::apply_transform(&program, &normalized.transform)
        })
        .map_err(|e| err(&e))?;
    let spmd = rec.within("codegen.spmd", || {
        an::codegen::generate_spmd(&transformed, Some(&normalized.dependences), &opts.spmd)
    });
    let text = rec.within("codegen.emit", || emit_spmd(&spmd));
    let compiled = Compiled {
        program,
        normalized,
        transformed,
        spmd,
    };
    Ok((compiled, text))
}

/// Sets a workload up from its seed: generates the inputs, prepares what
/// the operation needs (parsed programs, compiled artifacts, or a warm
/// daemon with its connections), then warms up. Returns the workload
/// and its set-up time in seconds: preparation on the wall clock plus
/// the warm-up rounds read like measured rounds (corrected for
/// interference where the workload is).
pub fn set_up(spec: &'static Spec, seed: u64, anc: &Path) -> Result<(Ready, f64), String> {
    let started = Instant::now();
    let inputs = generate_inputs(spec);
    let n = inputs.len();
    let state = match spec.kind {
        Kind::Compile => State::Compile {
            last: (0..n).map(|_| None).collect(),
        },
        Kind::Search => {
            let programs = inputs
                .iter()
                .map(|input| {
                    an::parse_normalized(&input.source, &CompileOptions::default())
                        .map(|(program, _)| program)
                        .map_err(|e| format!("generator bug: {} does not parse: {e}", input.label))
                })
                .collect::<Result<_, _>>()?;
            State::Search {
                programs,
                first: (0..n).map(|_| None).collect(),
                last: (0..n).map(|_| None).collect(),
            }
        }
        Kind::Check => {
            let compiled = inputs
                .iter()
                .map(|input| {
                    compile_one(&input.source).map(|(c, _)| c).map_err(|e| {
                        format!("generator bug: {} does not compile: {e}", input.label)
                    })
                })
                .collect::<Result<_, _>>()?;
            State::Check {
                compiled,
                last: (0..n).map(|_| None).collect(),
            }
        }
        Kind::Serve { hit } => {
            let daemon = Daemon::spawn(anc, None)?;
            let mut clients = Vec::new();
            for index in 0..LOAD_THREADS {
                clients.push(ServeClient {
                    client: Client::tcp(daemon.tcp)
                        .map_err(|e| format!("{e}; daemon stderr: {:?}", daemon.stderr()))?,
                    index,
                    rng: Rng::new(seed ^ (0x5E57 + index as u64)),
                    seq: 0,
                    answers: Vec::new(),
                });
            }
            let frames: Vec<String> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| compile_frame(i as u64, &input.source))
                .collect();
            if hit {
                // Fill the resident cache: every source once, each a miss.
                for (frame, input) in frames.iter().zip(&inputs) {
                    let line = clients[0]
                        .client
                        .request(frame, &mut Recorder::new(false))
                        .map_err(|e| format!("{e}; daemon stderr: {:?}", daemon.stderr()))?;
                    if !line.contains("\"ok\":true") {
                        return Err(format!(
                            "generator bug: the daemon refused {}: {line}",
                            input.label
                        ));
                    }
                }
            }
            State::Serve {
                daemon,
                clients,
                frames,
                hit,
            }
        }
    };
    let mut ready = Ready {
        inputs,
        seed,
        rng: Rng::new(seed ^ 0xDDE7),
        state,
    };
    let prepared = started.elapsed().as_secs_f64();
    let warm = ready.run(0.0, spec.warmup_rounds, false);
    if let Some(first) = warm.failures.first() {
        return Err(format!("warm-up failed: {first}"));
    }
    let warmed = match warm.nominal_probe {
        Some(_) => warm
            .rounds
            .iter()
            .zip(warm.factors())
            .map(|(round, factor)| round.seconds * factor)
            .sum(),
        None => started.elapsed().as_secs_f64() - prepared,
    };
    Ok((ready, prepared + warmed))
}

impl Ready {
    /// Runs whole rounds until `seconds` have passed (at least
    /// [`MIN_ROUNDS`]), timing every operation and every round.
    pub fn measure(&mut self, seconds: f64, traced: bool) -> Measured {
        self.run(seconds, MIN_ROUNDS, traced)
    }

    fn run(&mut self, seconds: f64, min_rounds: usize, traced: bool) -> Measured {
        let labels: Vec<String> = self.inputs.iter().map(|i| i.label.clone()).collect();
        if let State::Serve {
            clients,
            frames,
            hit,
            ..
        } = &mut self.state
        {
            return run_serve(
                labels, clients, frames, *hit, self.seed, seconds, min_rounds, traced,
            );
        }
        let mut m = Measured::new(labels, 1, traced);
        let inputs = &self.inputs;
        let state = &mut self.state;
        let machine = MachineConfig::butterfly_gp1000();
        let search = search_options();
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut calibrator = Calibrator::default();
        let started = Instant::now();
        while m.rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
            self.rng.shuffle(&mut order);
            let mut round = Round {
                seconds: 0.0,
                probe: None,
                ops: 0.0,
                samples: Vec::with_capacity(order.len()),
            };
            m.recorder.next_round();
            let (mut probe_sum, mut probe_count) = (0.0, 0);
            for &i in &order {
                m.recorder.next_op();
                let rec = &mut m.recorder;
                let op_started = Instant::now();
                // Each arm yields how many operations the call performed
                // and how long it took; storing its output is not timed.
                let outcome: Result<(f64, Duration), String> = match state {
                    State::Compile { last } => {
                        let out = if rec.enabled() {
                            compile_staged(&inputs[i].source, rec)
                        } else {
                            compile_one(&inputs[i].source)
                        };
                        let elapsed = op_started.elapsed();
                        out.map(|artifacts| {
                            last[i] = Some(artifacts);
                            (1.0, elapsed)
                        })
                    }
                    State::Search {
                        programs,
                        first,
                        last,
                    } => {
                        let out = rec.within("autodist.search_report", || {
                            search_report(&programs[i], &machine, &search)
                        });
                        let elapsed = op_started.elapsed();
                        out.map_err(|e| e.to_string()).map(|report| {
                            let priced = (report.evaluated + report.skipped) as f64;
                            m.failed += report.skipped as u64;
                            if first[i].is_none() {
                                first[i] = Some(report.clone());
                            }
                            last[i] = Some(report);
                            (priced, elapsed)
                        })
                    }
                    State::Check { compiled, last } => {
                        let report = rec.within("verify.verify", || an::verify(&compiled[i]));
                        let elapsed = op_started.elapsed();
                        last[i] = Some(report);
                        Ok((1.0, elapsed))
                    }
                    State::Serve { .. } => unreachable!("serve runs its own client threads"),
                };
                let (sum, count) = calibrator.probe_after(op_started.elapsed().as_secs_f64());
                probe_sum += sum;
                probe_count += count;
                match outcome {
                    Ok((ops, elapsed)) => {
                        round.seconds += elapsed.as_secs_f64();
                        round.samples.push((i, elapsed.as_secs_f64() * 1e6 / ops));
                        round.ops += ops;
                        m.attempted += ops as u64;
                    }
                    Err(e) => {
                        m.attempted += 1;
                        m.fail(format!("{}: {e}", inputs[i].label));
                    }
                }
            }
            round.probe = Some(probe_sum / probe_count as f64);
            m.rounds.push(round);
        }
        m.nominal_probe = calibrator.nominal();
        m
    }

    /// Peak resident set in MiB of the process doing the workload's
    /// work: this process, or the `anc serve` child.
    pub fn peak_rss_mib(&self) -> f64 {
        let kib = match &self.state {
            State::Serve { daemon, .. } => daemon.peak_rss_kib(),
            _ => crate::daemon::peak_rss_kib("/proc/self/status"),
        };
        kib.unwrap_or(f64::NAN) / 1024.0
    }

    /// Checks every artifact the workload produced, outside the timed
    /// section. Returns one line per wrong output.
    pub fn check_outputs(&mut self) -> Vec<String> {
        let mut wrong = Vec::new();
        let machine = MachineConfig::butterfly_gp1000();
        match &mut self.state {
            State::Compile { last } => {
                for (input, artifacts) in self.inputs.iter().zip(last.iter()) {
                    let Some((compiled, text)) = artifacts else {
                        wrong.push(format!("{}: never compiled", input.label));
                        continue;
                    };
                    wrong.extend(
                        check_compiled(compiled, &machine)
                            .into_iter()
                            .map(|e| format!("{}: {e}", input.label)),
                    );
                    match compile_one(&input.source) {
                        Ok((_, again)) if again == *text => {}
                        Ok(_) => {
                            wrong.push(format!("{}: SPMD text is not repeatable", input.label))
                        }
                        Err(e) => wrong.push(format!("{}: {e}", input.label)),
                    }
                }
            }
            State::Search { first, last, .. } => {
                for ((input, first), last) in self.inputs.iter().zip(first.iter()).zip(last.iter())
                {
                    let (Some(first), Some(last)) = (first, last) else {
                        wrong.push(format!("{}: never searched", input.label));
                        continue;
                    };
                    if last.mismatches != 0 || last.validated == 0 {
                        wrong.push(format!(
                            "{}: {} of {} validated finalists disagree with the simulator",
                            input.label, last.mismatches, last.validated
                        ));
                    }
                    if first.ranking != last.ranking {
                        wrong.push(format!("{}: ranking is not repeatable", input.label));
                    }
                    match last.best() {
                        Some(best) => wrong.extend(
                            check_compiled(&best.compiled, &machine)
                                .into_iter()
                                .map(|e| format!("{} winner: {e}", input.label)),
                        ),
                        None => wrong.push(format!("{}: search found no winner", input.label)),
                    }
                }
            }
            State::Check { last, .. } => {
                for (input, report) in self.inputs.iter().zip(last.iter()) {
                    match report {
                        None => wrong.push(format!("{}: never verified", input.label)),
                        // The corpus is known sound: the only right
                        // verdict is "no error", reached by actually
                        // enumerating a concrete instance.
                        Some(r) if r.has_errors() => wrong.push(format!(
                            "{}: verifier reported {:?} on a sound kernel",
                            input.label,
                            r.codes()
                        )),
                        Some(r) if r.checked_params.is_none() => wrong.push(format!(
                            "{}: verifier skipped its concrete checks",
                            input.label
                        )),
                        Some(_) => {}
                    }
                }
            }
            State::Serve {
                daemon,
                clients,
                hit,
                ..
            } => {
                match daemon.status() {
                    Ok(status) => {
                        let count = |group: &str, key: &str| {
                            status
                                .get(group)
                                .and_then(|g| g.get(key))
                                .and_then(Json::as_u64)
                        };
                        if count("conns", "shed") != Some(0)
                            || count("faults", "overloaded") != Some(0)
                        {
                            wrong.push("the daemon shed load under two connections".to_string());
                        }
                    }
                    Err(e) => wrong.push(format!("status verb failed: {e}")),
                }
                let expected: Vec<Option<u64>> = self
                    .inputs
                    .iter()
                    .map(|input| compile_one(&input.source).ok().map(|(_, t)| fnv1a(&t)))
                    .collect();
                for client in clients.iter_mut() {
                    for answer in client.answers.drain(..) {
                        let label = &self.inputs[answer.label].label;
                        if !answer.ok {
                            wrong.push(format!("{label}: the daemon answered an error"));
                        } else if answer.cached != Some(*hit) {
                            wrong.push(format!(
                                "{label}: cached is {:?}, expected {hit}",
                                answer.cached
                            ));
                        } else {
                            // Past FULL_COMPARE_CAP a miss keeps no source:
                            // its flags were checked, its text is not.
                            let want = match (&answer.source, *hit) {
                                (Some(source), _) => {
                                    Some(compile_one(source).ok().map(|(_, t)| fnv1a(&t)))
                                }
                                (None, true) => Some(expected[answer.label]),
                                (None, false) => None,
                            };
                            match want {
                                Some(None) => wrong
                                    .push(format!("{label}: the in-process compiler rejected it")),
                                Some(want) if want != answer.spmd_fnv => wrong.push(format!(
                                    "{label}: served SPMD text differs from the in-process compiler"
                                )),
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        wrong
    }
}

/// The checks every compiled artifact must pass: the independent
/// verifier finds no error (at a small concrete instance, so the check
/// itself stays cheap), and the analytic model agrees with the
/// simulator on every integer counter.
fn check_compiled(compiled: &Compiled, machine: &MachineConfig) -> Vec<String> {
    let mut wrong = Vec::new();
    let report = an::verify_with(
        compiled,
        &VerifyOptions {
            max_points: 512,
            ..VerifyOptions::default()
        },
    );
    if report.has_errors() {
        wrong.push(format!("verifier reported {:?}", report.codes()));
    }
    let params = compiled.program.default_param_values();
    let sim = an::numa::simulate(&compiled.spmd, machine, PROCS, &params);
    let model = an::model::model_stats(&compiled.spmd, machine, PROCS, &params);
    match (sim, model) {
        (Ok(s), Ok(m)) if an::autodist::stats_agree(&s, &m) => {}
        (Ok(_), Ok(_)) => wrong.push("model and simulator counters differ".to_string()),
        (s, m) => wrong.push(format!(
            "pricing failed: simulator {:?}, model {:?}",
            s.err(),
            m.err()
        )),
    }
    wrong
}

#[allow(clippy::too_many_arguments)]
fn run_serve(
    labels: Vec<String>,
    clients: &mut [ServeClient],
    frames: &[String],
    hit: bool,
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    traced: bool,
) -> Measured {
    let n = labels.len();
    let started = Instant::now();
    let per_client: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let labels = labels.clone();
                scope.spawn(move || {
                    let mut m = Measured::new(labels, 1, traced);
                    let mut order: Vec<usize> = (0..n).collect();
                    while m.rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
                        c.rng.shuffle(&mut order);
                        // A miss round's sources are made before its clock starts.
                        let fresh: Vec<(String, String)> = if hit {
                            Vec::new()
                        } else {
                            order
                                .iter()
                                .map(|&k| {
                                    c.seq += 1;
                                    let source = miss_source(k, seed, c.index, c.seq);
                                    (compile_frame(c.seq, &source), source)
                                })
                                .collect()
                        };
                        let mut lines = Vec::with_capacity(n);
                        let mut round = Round {
                            seconds: 0.0,
                            probe: None,
                            ops: 0.0,
                            samples: Vec::with_capacity(n),
                        };
                        m.recorder.next_round();
                        let round_started = Instant::now();
                        for (pos, &k) in order.iter().enumerate() {
                            let frame = if hit { &frames[k] } else { &fresh[pos].0 };
                            m.recorder.next_op();
                            let open = m.recorder.enter("anbench.request");
                            let op_started = Instant::now();
                            let line = c.client.request(frame, &mut m.recorder);
                            let elapsed = op_started.elapsed();
                            m.recorder.exit(open);
                            m.attempted += 1;
                            if line.is_ok() {
                                round.samples.push((k, elapsed.as_secs_f64() * 1e6));
                                round.ops += 1.0;
                            }
                            lines.push(line);
                        }
                        round.seconds = round_started.elapsed().as_secs_f64();
                        m.rounds.push(round);
                        let mut sources = fresh.into_iter().map(|(_, source)| source);
                        for (&k, line) in order.iter().zip(lines) {
                            let source = sources.next();
                            match line {
                                Ok(line) => c.answers.push(digest(
                                    k,
                                    &line,
                                    source.filter(|_| c.answers.len() < FULL_COMPARE_CAP),
                                )),
                                Err(e) => m.fail(format!("{}: {e}", m.labels[k])),
                            }
                        }
                    }
                    m
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Measured::new(labels, per_client.len(), traced);
    for m in per_client {
        merged.rounds.extend(m.rounds);
        merged.attempted += m.attempted;
        merged.failed += m.failed;
        merged.failures.extend(m.failures);
        merged.recorder.absorb(m.recorder);
    }
    merged
}

fn digest(label: usize, line: &str, source: Option<String>) -> Answer {
    let parsed = json::parse(line).ok();
    let field = |key: &str| parsed.as_ref().and_then(|p| p.get(key));
    Answer {
        label,
        source,
        ok: field("ok").and_then(Json::as_bool) == Some(true),
        cached: field("cached").and_then(Json::as_bool),
        spmd_fnv: field("artifacts")
            .and_then(|a| a.get("spmd"))
            .and_then(Json::as_str)
            .map(fnv1a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_input_lists_have_the_documented_shape() {
        let count = |name| generate_inputs(spec_named(name).unwrap()).len();
        assert_eq!(count("compile_corpus"), 15);
        assert_eq!(count("search_deep"), 7);
        assert_eq!(count("search_flat"), 16);
        assert_eq!(count("check_corpus"), 15);
        let flat = generate_inputs(spec_named("search_flat").unwrap());
        assert!(flat
            .iter()
            .any(|i| i.label == "mvt@16x" && i.source.contains("param N = 512;")));
        let check = generate_inputs(spec_named("check_corpus").unwrap());
        assert!(check
            .iter()
            .any(|i| i.label == "trmm" && i.source.contains("param N = 16;")));
    }

    #[test]
    fn miss_sources_never_repeat() {
        let a = miss_source(6, 1, 0, 1);
        assert_eq!(a, miss_source(6, 1, 0, 1));
        assert_ne!(a, miss_source(6, 1, 0, 2));
        assert_ne!(a, miss_source(6, 1, 1, 1));
        assert!(a.starts_with("// nonce 1-0-1\n"));
    }

    #[test]
    fn staged_pipeline_equals_the_one_call_pipeline() {
        for input in generate_inputs(spec_named("compile_corpus").unwrap()) {
            let (_, one) = compile_one(&input.source).unwrap();
            let (_, staged) = compile_staged(&input.source, &mut Recorder::new(true)).unwrap();
            assert_eq!(one, staged, "{}", input.label);
        }
    }
}
