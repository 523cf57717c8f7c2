//! `anbench` — the repository's benchmark. See `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! anbench --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! anbench --seed N [--seconds S] [--repeat K]             every workload, untraced then traced
//! anbench compare A.json B.json                           verdict per metric and workload
//! anbench --selftest                                      the benchmark checks itself
//! ```

mod calib;
mod daemon;
mod gen;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use access_normalization::serve::json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Kind, Measured, Spec};

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Of a traced run's `--seconds`: the share spent on untraced rounds
/// (the base the tracing overhead is measured against) and on traced
/// rounds. The layer probes that follow do a fixed amount of work.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.25;
const TRACED_RUN_TRACED_SHARE: f64 = 0.35;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// A JSON object from literal keys.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// `{"value": .., "unit": ..}`, the shape of a metric wherever one is
/// written.
pub fn metric_json(value: f64, unit: &str) -> Json {
    obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// The checkout the benchmark was built in: the parent of its package.
pub fn repo_root() -> Result<PathBuf, String> {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .ok_or_else(|| "the benchmark package has no parent directory".to_string())
}

/// Where things are: the checkout, the build outputs, the `anc` binary.
pub struct Env {
    pub root: PathBuf,
    pub target_dir: PathBuf,
    pub anc: PathBuf,
    pub out_dir: PathBuf,
}

impl Env {
    fn locate() -> Result<Env, String> {
        let root = repo_root()?;
        let exe = std::env::current_exe().map_err(|e| format!("cannot find my own path: {e}"))?;
        // <target>/release/anbench
        let target_dir = exe
            .parent()
            .and_then(|p| p.parent())
            .ok_or("cannot find the build directory from my own path")?
            .to_path_buf();
        Ok(Env {
            anc: target_dir.join("release").join("anc"),
            out_dir: target_dir.join("anbench"),
            root,
            target_dir,
        })
    }

    /// Builds `anc` from the checkout into the build directory this
    /// binary came from (a no-op when it is up to date).
    fn build_anc(&self) -> Result<(), String> {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet", "--bin", "anc"])
            .arg("--manifest-path")
            .arg(self.root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&self.target_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo to build anc: {e}"))?;
        if !status.success() || !self.anc.is_file() {
            return Err(format!(
                "missing {}: building anc from {} failed",
                self.anc.display(),
                self.root.display()
            ));
        }
        Ok(())
    }
}

fn refuse_unfit_machine() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".to_string());
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < workloads::LOAD_THREADS {
        return Err(format!(
            "refusing to run on {cores} core(s): the workloads need {}",
            workloads::LOAD_THREADS
        ));
    }
    Ok(())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v.parse().ok().filter(|k| *k >= 1).ok_or_else(|| bad(&v))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => report::compare(&argv[1..]),
        Some("--selftest") => locate_and_check().and_then(|env| report::selftest(&env)),
        _ => parse_args(&argv).and_then(|args| {
            let env = locate_and_check()?;
            match &args.workload {
                Some(name) => {
                    let spec = workloads::spec_named(name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?;
                    let seconds = match args.seconds {
                        Some(seconds) => seconds,
                        None => report::Manifest::read(&env.root)?.run_seconds,
                    };
                    run_one(&env, spec, args.seed, seconds, args.trace)
                }
                None => report::run_all(&env, args.seed, args.seconds, args.repeat),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("anbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn locate_and_check() -> Result<Env, String> {
    refuse_unfit_machine()?;
    Env::locate()
}

/// One run of one workload. Prints a readable report, then the result
/// as one JSON object on the last line. Returns whether every
/// operation and every output check passed.
fn run_one(
    env: &Env,
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<bool, String> {
    if traced || matches!(spec.kind, Kind::Serve { .. }) {
        env.build_anc()?;
    }
    println!(
        "anbench workload={} seed={seed} seconds={seconds} trace={}",
        spec.name,
        u8::from(traced)
    );
    println!("why: {}", spec.why);

    // Set up SETUP_REPS times; the last set-up is the one measured on.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        drop(ready.take());
        let (workload, seconds) = workloads::set_up(spec, seed, &env.anc)?;
        ready = Some(workload);
        setup_s.push(seconds);
    }
    let mut ready = ready.expect("at least one set-up ran");

    let (mut measured, metrics) = if traced {
        let untraced = ready.measure(seconds * TRACED_RUN_UNTRACED_SHARE, false);
        let traced_pass = ready.measure(seconds * TRACED_RUN_TRACED_SHARE, true);
        let mut metrics = layers::attribute(env, spec, seed, &untraced, &traced_pass)?;
        let (probed, wrong) = layers::probe_all(env)?;
        metrics.extend(probed);
        let mut all = untraced;
        all.attempted += traced_pass.attempted;
        all.failed += traced_pass.failed + wrong.len() as u64;
        all.failures.extend(traced_pass.failures);
        all.failures.extend(wrong);
        (all, metrics)
    } else {
        let measured = ready.measure(seconds, false);
        print_rows(&measured);
        let mut metrics = end_to_end(&measured);
        metrics.push(Metric::new("setup_s", stats::median(&setup_s), "s"));
        metrics.push(Metric::new("peak_rss_mib", ready.peak_rss_mib(), "MiB"));
        (measured, metrics)
    };

    for line in ready.check_outputs() {
        measured.failed += 1;
        measured.failures.push(line);
    }
    drop(ready);

    for m in &metrics {
        println!("metric {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_share {:.6} ({} failed of {} attempted)",
        measured.failed as f64 / measured.attempted.max(1) as f64,
        measured.failed,
        measured.attempted
    );
    for line in &measured.failures {
        println!("FAILED {line}");
    }
    let correct = measured.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, &measured, &metrics));
    Ok(correct)
}

/// The corrected timings of one measured pass (see
/// [`Measured::factors`]).
struct Corrected {
    /// Operations per second of each round (one client).
    rates: Vec<f64>,
    /// Per-operation latencies in µs, all kernels together.
    ops_us: Vec<f64>,
    /// Per kernel: its per-operation latencies in µs.
    kernel_us: Vec<Vec<f64>>,
}

impl Corrected {
    fn of(m: &Measured) -> Corrected {
        let mut corrected = Corrected {
            rates: Vec::new(),
            ops_us: Vec::new(),
            kernel_us: vec![Vec::new(); m.labels.len()],
        };
        for (round, factor) in m.rounds.iter().zip(m.factors()) {
            corrected.rates.push(round.ops / (round.seconds * factor));
            for &(kernel, us) in &round.samples {
                corrected.ops_us.push(us * factor);
                corrected.kernel_us[kernel].push(us * factor);
            }
        }
        corrected
    }
}

/// The end-to-end metrics every workload reports, from one measured
/// pass.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let corrected = Corrected::of(m);
    let all = stats::Summary::of(&corrected.ops_us);
    let kernel_medians: Vec<f64> = corrected
        .kernel_us
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| stats::median(samples))
        .collect();
    vec![
        Metric::new(
            "ops_per_s",
            stats::median(&corrected.rates) * m.clients as f64,
            "1/s",
        ),
        Metric::new("op_p50_us", all.p50, "us"),
        Metric::new("op_p95_us", all.p95, "us"),
        Metric::new("kernel_geomean_us", stats::geomean(&kernel_medians), "us"),
    ]
}

/// One row per kernel and one for the rounds: sample count, median and
/// quartiles of every timing behind the summary metrics.
fn print_rows(m: &Measured) {
    let wall_ms: Vec<f64> = m.rounds.iter().map(|r| r.seconds * 1e3).collect();
    println!(
        "round_ms   wall      {} ({} client(s))",
        stats::Summary::of(&wall_ms),
        m.clients
    );
    if let Some(nominal) = m.nominal_probe {
        let corrected_ms: Vec<f64> = wall_ms
            .iter()
            .zip(m.factors())
            .map(|(ms, f)| ms * f)
            .collect();
        println!("round_ms   corrected {}", stats::Summary::of(&corrected_ms));
        let probes_us: Vec<f64> = m
            .rounds
            .iter()
            .filter_map(|r| r.probe)
            .map(|p| p * 1e6)
            .collect();
        println!(
            "probe_us   {} nominal {:.3}: interference {:.3} (median round's probes / nominal - 1)",
            stats::Summary::of(&probes_us),
            nominal * 1e6,
            stats::median(&probes_us) / (nominal * 1e6) - 1.0
        );
    }
    let corrected = Corrected::of(m);
    println!("op_us      {}", stats::Summary::of(&corrected.ops_us));
    if corrected.ops_us.len() < 200 {
        println!(
            "op_us      fewer than 200 samples: read p95 as the slowest kernels, not as a tail"
        );
    }
    let mut rows: Vec<(&String, stats::Summary)> = m
        .labels
        .iter()
        .zip(&corrected.kernel_us)
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(label, samples)| (label, stats::Summary::of(samples)))
        .collect();
    rows.sort_by(|a, b| b.1.p50.total_cmp(&a.1.p50));
    for (label, summary) in rows {
        println!("kernel_us  {label:<20} {summary}");
    }
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(correct: bool, m: &Measured, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|metric| (metric.name.clone(), metric_json(metric.value, metric.unit)))
        .collect();
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(m.attempted.max(1) as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use access_normalization::serve::json;

    #[test]
    fn json_writer_escapes_what_it_writes() {
        let nasty = "quote \" backslash \\ newline \n tab \t bell \u{7} unicode é";
        let rendered = obj([(nasty, Json::Str(nasty.to_string()))]).to_string();
        assert!(!rendered.contains('\n') && !rendered.contains('\t'));
        let back = json::parse(&rendered).unwrap();
        assert_eq!(back.get(nasty).and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn arguments_follow_the_contract() {
        let argv: Vec<String> = "--workload serve_hit --seed 9 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_hit"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, Some(2.5), true));
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--seconds".to_string(), "0".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }
}
