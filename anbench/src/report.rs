//! Everything above a single run: every workload in its own child
//! process (untraced, then traced), the results file, `compare`,
//! `--repeat` agreement and `--selftest`. The metric lists, bounds and
//! run length come from `BENCHMARK.json`; nothing here repeats them.

use crate::stats::{median, spread_share};
use crate::workloads::WORKLOADS;
use crate::{metric_json, obj, repo_root, Env};
use access_normalization::serve::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// What `BENCHMARK.json` fixes: run length, workloads, metrics, bounds.
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

impl Manifest {
    pub fn read(root: &Path) -> Result<Manifest, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        Manifest::parse(&text).map_err(|e| format!("{path:?}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("no list '{key}'"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry has no '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: match text_of(item, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better is '{other}'")),
                        },
                        bound: match item.get("bound") {
                            Some(Json::Num(b)) => Some(*b),
                            _ => None,
                        },
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: match doc.get("run_seconds") {
                Some(Json::Num(s)) => *s,
                _ => return Err("no number 'run_seconds'".to_string()),
            },
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The metrics one child run reported, by name.
type Metrics = BTreeMap<String, (f64, String)>;

/// One run of every workload: per workload its end-to-end and per-layer
/// metrics.
type Set = BTreeMap<String, (Metrics, Metrics)>;

struct ChildResult {
    correct: bool,
    metrics: Metrics,
}

/// Runs this binary again for one workload, echoing its report and
/// parsing the result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    if echo {
        for line in &lines {
            println!("  {line}");
        }
    }
    let result = json::parse(last).map_err(|e| {
        format!(
            "the {workload} child ({}) printed no result: {e}",
            out.status
        )
    })?;
    Ok(ChildResult {
        correct: result.get("correct").and_then(Json::as_bool) == Some(true)
            && out.status.success(),
        metrics: parse_metrics(result.get("metrics")),
    })
}

/// The `{name: {value, unit}}` object of a result line or a results
/// file; entries of another shape are left out (and then reported as
/// missing by whoever expected them).
fn parse_metrics(group: Option<&Json>) -> Metrics {
    group
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
        .filter_map(|(name, entry)| {
            match (entry.get("value"), entry.get("unit").and_then(Json::as_str)) {
                (Some(Json::Num(value)), Some(unit)) => {
                    Some((name.clone(), (*value, unit.to_string())))
                }
                _ => None,
            }
        })
        .collect()
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The recorded environment block.
fn environment(env: &Env, seed: u64, seconds: f64) -> Json {
    let root = env.root.to_string_lossy();
    obj([
        (
            "git_commit",
            Json::Str(first_line_of(
                "git",
                &["-C", &root, "rev-parse", "--short", "HEAD"],
            )),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
    ])
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, (value, unit))| (name.clone(), metric_json(*value, unit)))
            .collect(),
    )
}

/// Every workload, each in its own child process: untraced for the
/// end-to-end metrics, then traced for the per-layer table. With
/// `repeat > 1` the sets run back to back and must agree.
pub fn run_all(env: &Env, seed: u64, seconds: Option<f64>, repeat: usize) -> Result<bool, String> {
    let manifest = Manifest::read(&env.root)?;
    let seconds = seconds.unwrap_or(manifest.run_seconds);
    let environment = environment(env, seed, seconds);
    println!("environment {environment}");
    let mut all_correct = true;
    let mut sets: Vec<Set> = Vec::new();
    for set_index in 0..repeat {
        let mut set = Set::new();
        for spec in WORKLOADS {
            println!("== set {} {} (untraced)", set_index + 1, spec.name);
            let untraced = run_child(spec.name, seed, seconds, false, true)?;
            println!("== set {} {} (traced)", set_index + 1, spec.name);
            let traced = run_child(spec.name, seed, seconds, true, true)?;
            all_correct &= untraced.correct && traced.correct;
            set.insert(spec.name.to_string(), (untraced.metrics, traced.metrics));
        }
        sets.push(set);
    }

    println!("== summary (seed {seed}, {seconds} s per run)");
    for (set_index, set) in sets.iter().enumerate() {
        for (workload, (end_to_end, per_layer)) in set {
            for (kind, metrics) in [("end_to_end", end_to_end), ("per_layer", per_layer)] {
                for (name, (value, unit)) in metrics {
                    println!(
                        "set {} {workload:<15} {kind:<10} {name:<28} {value:>16.4} {unit}",
                        set_index + 1
                    );
                }
            }
        }
    }

    let set_json = |set: &Set| {
        Json::Obj(
            set.iter()
                .map(|(workload, (end_to_end, per_layer))| {
                    let groups = obj([
                        ("end_to_end", metrics_json(end_to_end)),
                        ("per_layer", metrics_json(per_layer)),
                    ]);
                    (workload.clone(), groups)
                })
                .collect(),
        )
    };
    let file = obj([
        ("environment", environment),
        ("sets", Json::Arr(sets.iter().map(set_json).collect())),
    ]);
    std::fs::create_dir_all(&env.out_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", env.out_dir))?;
    let path = env.out_dir.join(format!("results_seed{seed}.json"));
    std::fs::write(&path, file.to_string()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("results {}", path.display());

    let mut agree = true;
    if sets.len() >= 2 {
        println!("== agreement of {} sets of the same code", sets.len());
        let (first, rest) = sets.split_at(1);
        agree = print_verdicts(&manifest, first, rest);
    }
    if !all_correct {
        println!("FAILED: at least one run reported a failed operation or a wrong output");
    }
    Ok(all_correct && agree)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Compares `b` against `a` for one metric: by how much the median got
/// worse, against the bound. Where either side's own runs spread wider
/// than the bound the answer is `Unresolved`, unless every run of `b`
/// reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let noisy = [a, b]
        .iter()
        .any(|side| side.len() >= 2 && spread_share(side) > bound);
    if noisy {
        let b_wins_every_pair = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if b_wins_every_pair {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per metric and workload. Returns whether nothing got worse,
/// nothing is unresolved and every exact count repeats.
fn print_verdicts(manifest: &Manifest, a: &[Set], b: &[Set]) -> bool {
    let values = |sets: &[Set], workload: &str, traced: bool, name: &str| -> Vec<f64> {
        sets.iter()
            .filter_map(|set| set.get(workload))
            .filter_map(|(end_to_end, per_layer)| {
                if traced { per_layer } else { end_to_end }.get(name)
            })
            .map(|(value, _)| *value)
            .collect()
    };
    let mut fine = true;
    for workload in &manifest.workloads {
        for spec in &manifest.end_to_end {
            let (va, vb) = (
                values(a, workload, false, &spec.name),
                values(b, workload, false, &spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<15} {:<28} missing", spec.name);
                fine = false;
                continue;
            }
            let bound = spec.bound.unwrap_or(0.0);
            let verdict = judge(&va, &vb, bound, spec.higher_is_better);
            fine &= matches!(verdict, Verdict::Better | Verdict::Same);
            println!(
                "{workload:<15} {:<28} {:>14.4} -> {:>14.4} {:<6} {:>+7.2} % (bound {:.0} %) {:?}",
                spec.name,
                median(&va),
                median(&vb),
                spec.unit,
                (median(&vb) / median(&va) - 1.0) * 100.0,
                bound * 100.0,
                verdict
            );
        }
        for spec in &manifest.per_layer {
            let (va, vb) = (
                values(a, workload, true, &spec.name),
                values(b, workload, true, &spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            // Counts are exact: they repeat or they changed.
            let exact = spec.unit == "count" || spec.unit == "bytes";
            let note = match (exact, median(&va) == median(&vb)) {
                (true, true) => "exact",
                (true, false) => {
                    fine = false;
                    "CHANGED"
                }
                (false, _) => "",
            };
            println!(
                "{workload:<15} {:<28} {:>14.4} -> {:>14.4} {:<6} {:>+7.2} % {note}",
                spec.name,
                median(&va),
                median(&vb),
                spec.unit,
                (median(&vb) / median(&va) - 1.0) * 100.0
            );
        }
    }
    fine
}

fn read_sets(path: &str) -> Result<Vec<Set>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("sets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path} has no sets"))?
        .iter()
        .map(|set| {
            set.as_obj()
                .into_iter()
                .flatten()
                .map(|(workload, groups)| {
                    (
                        workload.clone(),
                        (
                            parse_metrics(groups.get("end_to_end")),
                            parse_metrics(groups.get("per_layer")),
                        ),
                    )
                })
                .collect()
        })
        .collect())
}

/// `anbench compare A.json B.json`: B judged against A with the bounds
/// of `BENCHMARK.json`.
pub fn compare(argv: &[String]) -> Result<bool, String> {
    let [a, b] = argv else {
        return Err("usage: anbench compare A.json B.json".to_string());
    };
    let manifest = Manifest::read(&repo_root()?)?;
    Ok(print_verdicts(&manifest, &read_sets(a)?, &read_sets(b)?))
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The benchmark checks itself: `BENCHMARK.json` against the code, every
/// workload for one second against `BENCHMARK.json`, and that the same
/// seed gives the same inputs and the same exact counts twice.
pub fn selftest(env: &Env) -> Result<bool, String> {
    let manifest = Manifest::read(&env.root)?;
    let mut problems: Vec<String> = Vec::new();
    let code_names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if manifest.workloads != code_names {
        problems.push(format!(
            "BENCHMARK.json lists workloads {:?}, the code has {code_names:?}",
            manifest.workloads
        ));
    }
    for name in manifest
        .workloads
        .iter()
        .chain(manifest.end_to_end.iter().map(|m| &m.name))
        .chain(manifest.per_layer.iter().map(|m| &m.name))
    {
        if !valid_name(name) {
            problems.push(format!("'{name}' is not a valid name"));
        }
    }

    let mut counts: Option<Metrics> = None;
    for spec in WORKLOADS {
        for (traced, expected) in [(false, &manifest.end_to_end), (true, &manifest.per_layer)] {
            println!("selftest {} trace={}", spec.name, u8::from(traced));
            let run = run_child(spec.name, 7, 1.0, traced, false)?;
            if !run.correct {
                problems.push(format!("{} trace={traced}: not correct", spec.name));
            }
            for m in expected {
                match run.metrics.get(&m.name) {
                    None => problems.push(format!("{}: missing metric {}", spec.name, m.name)),
                    Some((_, unit)) if *unit != m.unit => problems.push(format!(
                        "{}: {} has unit {unit}, BENCHMARK.json says {}",
                        spec.name, m.name, m.unit
                    )),
                    Some((value, _)) if !value.is_finite() => {
                        problems.push(format!("{}: {} is {value}", spec.name, m.name));
                    }
                    Some(_) => {}
                }
            }
            for name in run.metrics.keys() {
                if !expected.iter().any(|m| m.name == *name) {
                    problems.push(format!("{}: unknown metric {name}", spec.name));
                }
            }
            if traced {
                // The probes' counts are exact: every traced run of one
                // commit must report the same ones.
                let exact: Metrics = run
                    .metrics
                    .into_iter()
                    .filter(|(_, (_, unit))| unit == "count" || unit == "bytes")
                    .collect();
                match &counts {
                    None => counts = Some(exact),
                    Some(first) => {
                        for (name, value) in &exact {
                            if first.get(name) != Some(value) {
                                problems.push(format!(
                                    "{}: {name} is {:?}, an earlier run had {:?}",
                                    spec.name,
                                    value.0,
                                    first.get(name).map(|v| v.0)
                                ));
                            }
                        }
                    }
                }
            }
        }
        if crate::workloads::generate_inputs(spec) != crate::workloads::generate_inputs(spec) {
            problems.push(format!(
                "{}: generated inputs are not repeatable",
                spec.name
            ));
        }
    }
    for problem in &problems {
        println!("selftest FAILED {problem}");
    }
    if problems.is_empty() {
        println!("selftest ok");
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_refuse_noise() {
        // Lower is better, bound 10 %.
        assert_eq!(judge(&[100.0], &[105.0], 0.10, false), Verdict::Same);
        assert_eq!(judge(&[100.0], &[115.0], 0.10, false), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[85.0], 0.10, false), Verdict::Better);
        // Higher is better: the direction flips.
        assert_eq!(judge(&[100.0], &[85.0], 0.10, true), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[115.0], 0.10, true), Verdict::Better);
        // A side whose own runs spread wider than the bound is not
        // judged, unless every run of the change wins.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(judge(&noisy, &[110.0], 0.10, false), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[70.0], 0.10, false), Verdict::Better);
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("serve.net_share") && valid_name("op_p95_us") && valid_name("1x"));
        assert!(
            !valid_name("") && !valid_name(".hidden") && !valid_name("a b") && !valid_name("µs")
        );
    }

    #[test]
    fn manifest_parses_the_contract_shape() {
        let m = Manifest::parse(
            r#"{"command":["x"],"paths":["p"],"run_seconds":10,
                "workloads":[{"name":"hit","why":"w"},{"name":"miss","why":"w"}],
                "end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}],
                "per_layer":[{"name":"cache_hits","unit":"count","better":"higher"}]}"#,
        )
        .unwrap();
        assert_eq!(m.run_seconds, 10.0);
        assert_eq!(m.workloads, ["hit", "miss"]);
        assert_eq!(m.end_to_end[0].bound, Some(0.1));
        assert!(m.per_layer[0].higher_is_better && m.per_layer[0].bound.is_none());
        assert!(Manifest::parse(r#"{"run_seconds":10}"#).is_err());
    }
}
