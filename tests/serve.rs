//! End-to-end tests of `anc serve`: a mixed workload of every corpus
//! kernel plus seeded poison pills and deadline busters, driven through
//! a real child process over stdio and a unix socket.
//!
//! The headline property is chaos-under-load: the daemon never exits,
//! every good request returns artifacts bitwise-identical to a one-shot
//! `anc` invocation, every bad request gets a structured `AN07xx`
//! response, and shutdown drains cleanly to exit code 0.

use access_normalization::serve::json::{self, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

const RESPONSE_WAIT: Duration = Duration::from_secs(120);

fn anc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_anc"))
}

fn kernel_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join("kernels")
}

/// All 15 corpus kernels as `(name, source)` in sorted order.
fn corpus() -> Vec<(String, String)> {
    let mut names: Vec<_> = std::fs::read_dir(kernel_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "an"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|p| {
            (
                p.file_stem().unwrap().to_str().unwrap().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect()
}

/// A daemon child plus a background thread feeding its stdout lines
/// into a channel.
struct Daemon {
    child: Child,
    stdin: std::process::ChildStdin,
    lines: Receiver<String>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = anc()
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let stdin = child.stdin.take().unwrap();
        let stdout = child.stdout.take().unwrap();
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send(l).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
        Daemon {
            child,
            stdin,
            lines,
        }
    }

    fn send(&mut self, frame: &str) {
        writeln!(self.stdin, "{frame}").unwrap();
        self.stdin.flush().unwrap();
    }

    /// Collects `n` responses keyed by their integer `id`.
    fn collect(&self, n: usize) -> HashMap<i64, Json> {
        let mut got = HashMap::new();
        while got.len() < n {
            let line = self
                .lines
                .recv_timeout(RESPONSE_WAIT)
                .unwrap_or_else(|e| panic!("daemon response {}/{n}: {e}", got.len()));
            let v = json::parse(&line).unwrap_or_else(|e| panic!("bad response {line}: {e}"));
            let id = v
                .get("id")
                .and_then(Json::as_i64)
                .unwrap_or_else(|| panic!("response without integer id: {line}"));
            got.insert(id, v);
        }
        got
    }

    /// Closes stdin (EOF drain) and asserts a clean exit.
    fn finish(mut self) {
        drop(self.stdin);
        let status = self.child.wait().unwrap();
        assert!(status.success(), "daemon exited with {status}");
    }
}

fn compile_frame(id: i64, source: &str, extra: &str) -> String {
    format!(
        "{{\"id\":{id},\"verb\":\"compile\",\"source\":\"{}\"{extra}}}",
        access_normalization::diag::escape_json(source)
    )
}

fn error_code(v: &Json) -> &str {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("")
}

fn artifact<'v>(v: &'v Json, kind: &str) -> &'v str {
    v.get("artifacts")
        .and_then(|a| a.get(kind))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no {kind} artifact in {v}"))
}

/// One-shot `anc --emit <kind> <file>` stdout, asserted successful.
fn one_shot(kind: &str, file: &std::path::Path) -> String {
    let out = anc()
        .args(["--emit", kind, file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "one-shot anc --emit {kind} {}: {}",
        file.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The chaos-under-load acceptance test: all 15 corpus kernels compile
/// concurrently among 3 poison pills and 2 deadline busters; the good
/// requests stay bitwise-identical to one-shot `anc`, the bad ones get
/// structured errors, and the daemon drains to exit 0.
#[test]
fn chaos_under_load_matches_one_shot_bitwise() {
    let kernels = corpus();
    assert_eq!(kernels.len(), 15, "corpus drifted; update this test");

    let mut daemon = Daemon::spawn(&["--stdio", "--workers", "4"]);

    // Wave 1: every kernel, interleaved with pills and busters so the
    // faults land while good compiles are in flight.
    for (i, (_, source)) in kernels.iter().enumerate() {
        daemon.send(&compile_frame(i as i64, source, ""));
        match i {
            2 | 7 | 12 => {
                // Poison pill: same source, chaos panic.
                daemon.send(&compile_frame(
                    100 + i as i64,
                    source,
                    ",\"chaos\":\"panic\"",
                ));
            }
            4 | 9 => {
                // Deadline buster: sleeps past its own deadline.
                daemon.send(&compile_frame(
                    200 + i as i64,
                    source,
                    ",\"chaos\":\"sleep:300\",\"options\":{\"deadline_ms\":50}",
                ));
            }
            _ => {}
        }
    }
    let wave1 = daemon.collect(20);

    // Good requests: ok, uncached, artifacts bitwise-equal to one-shot.
    for (i, (name, _)) in kernels.iter().enumerate() {
        let v = &wave1[&(i as i64)];
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{name}: {v}"
        );
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(false),
            "{name}: {v}"
        );
        let spmd = artifact(v, "spmd");
        let shot = one_shot("spmd", &kernel_dir().join(format!("{name}.an")));
        assert_eq!(
            shot,
            format!("== SPMD node program ==\n{spmd}\n"),
            "{name}: serve artifact differs from one-shot anc"
        );
    }
    // Pills: panicked in their fault cells, daemon still alive.
    for i in [102, 107, 112] {
        let v = &wave1[&i];
        assert_eq!(error_code(v), "AN0705", "{v}");
        assert!(v.to_string().contains("quarantined"), "{v}");
    }
    // Busters: deadline family (budget at a phase boundary, or expired
    // while queued under load).
    for i in [204, 209] {
        let code = error_code(&wave1[&i]);
        assert!(code == "AN0704" || code == "AN0709", "{}", wave1[&i]);
    }

    // Wave 2: the same pills fast-fail from quarantine, and a repeat of
    // kernel 0 is a cache hit with identical artifacts.
    let (_, pill_src2) = &kernels[2];
    let (_, pill_src7) = &kernels[7];
    let (_, pill_src12) = &kernels[12];
    for (id, src) in [(300, pill_src2), (301, pill_src7), (302, pill_src12)] {
        daemon.send(&compile_frame(id, src, ",\"chaos\":\"panic\""));
    }
    daemon.send(&compile_frame(400, &kernels[0].1, ""));
    let wave2 = daemon.collect(4);
    for id in [300, 301, 302] {
        assert_eq!(error_code(&wave2[&id]), "AN0706", "{}", wave2[&id]);
    }
    let warm = &wave2[&400];
    assert_eq!(
        warm.get("cached").and_then(Json::as_bool),
        Some(true),
        "{warm}"
    );
    assert_eq!(
        artifact(warm, "spmd"),
        artifact(&wave1[&0], "spmd"),
        "cache hit returned different artifacts"
    );

    // Status reflects the carnage; health is still ok.
    daemon.send("{\"id\":500,\"verb\":\"status\"}");
    daemon.send("{\"id\":501,\"verb\":\"health\"}");
    let views = daemon.collect(2);
    let status = views[&500].get("status").cloned().unwrap();
    let faults = status.get("faults").unwrap();
    assert_eq!(
        faults.get("panics").and_then(Json::as_u64),
        Some(3),
        "{status}"
    );
    assert_eq!(
        faults.get("quarantined").and_then(Json::as_u64),
        Some(3),
        "{status}"
    );
    assert_eq!(
        status
            .get("quarantine")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(3),
        "{status}"
    );
    assert_eq!(
        status
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64),
        Some(1),
        "{status}"
    );
    assert!(
        status
            .get("phase_us")
            .and_then(|p| p.get("compile"))
            .and_then(|c| c.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 15,
        "{status}"
    );
    assert_eq!(
        views[&501].get("health").and_then(Json::as_str),
        Some("ok"),
        "{}",
        views[&501]
    );

    // Graceful drain: shutdown acknowledged, process exits 0.
    daemon.send("{\"id\":600,\"verb\":\"shutdown\"}");
    let bye = daemon.collect(1);
    assert_eq!(
        bye[&600].get("draining").and_then(Json::as_bool),
        Some(true),
        "{}",
        bye[&600]
    );
    daemon.finish();
}

/// Multi-artifact requests reproduce every one-shot emit kind exactly.
#[test]
fn serve_artifacts_match_one_shot_for_every_emit_kind() {
    let gemm = kernel_dir().join("gemm.an");
    let source = std::fs::read_to_string(&gemm).unwrap();
    let mut daemon = Daemon::spawn(&["--stdio", "--workers", "2"]);
    daemon.send(&compile_frame(
        1,
        &source,
        ",\"emit\":[\"ir\",\"transform\",\"transformed\",\"spmd\",\"c\",\"ownership\"]",
    ));
    let v = &daemon.collect(1)[&1];
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");

    // Headerless kinds compare to raw stdout; headered kinds strip it.
    assert_eq!(one_shot("c", &gemm), format!("{}\n", artifact(v, "c")));
    assert_eq!(
        one_shot("spmd", &gemm),
        format!("== SPMD node program ==\n{}\n", artifact(v, "spmd"))
    );
    assert_eq!(
        one_shot("ir", &gemm),
        format!("== input program ==\n{}\n", artifact(v, "ir"))
    );
    assert_eq!(
        one_shot("transformed", &gemm),
        format!("== transformed nest ==\n{}\n", artifact(v, "transformed"))
    );
    assert_eq!(
        one_shot("ownership", &gemm),
        format!(
            "== ownership-rule node program ==\n{}\n",
            artifact(v, "ownership")
        )
    );
    // `--emit transform` appends a normalization summary after the
    // matrix; the artifact is the matrix itself.
    let transform = one_shot("transform", &gemm);
    assert!(
        transform.starts_with(&format!(
            "== transformation matrix ==\n{}\n",
            artifact(v, "transform")
        )),
        "{transform}"
    );
    daemon.send("{\"id\":2,\"verb\":\"shutdown\"}");
    daemon.collect(1);
    daemon.finish();
}

/// A saturated queue sheds load with `AN0707` + `retry_after_ms`
/// instead of growing without bound, and the daemon keeps serving.
#[test]
fn overload_sheds_and_daemon_survives() {
    let mut daemon = Daemon::spawn(&[
        "--stdio",
        "--workers",
        "1",
        "--queue",
        "1",
        "--retry-after-ms",
        "25",
    ]);
    // One sleeper occupies the worker, one fills the queue, the rest
    // race admission; at least one must be shed.
    for id in 0..6 {
        daemon.send(&compile_frame(
            id,
            "param N = 4; array A[N] distribute wrapped(0); for i = 0, N - 1 { A[i] = 1.0; }",
            &format!(",\"chaos\":\"sleep:{}\"", 250 + id),
        ));
    }
    let responses = daemon.collect(6);
    let shed: Vec<_> = responses
        .values()
        .filter(|v| error_code(v) == "AN0707")
        .collect();
    assert!(!shed.is_empty(), "nothing was shed: {responses:?}");
    for v in &shed {
        // The hint is the configured base plus deterministic jitter,
        // always in [base, 2*base).
        let hint = v.get("retry_after_ms").and_then(Json::as_u64);
        assert!(
            hint.is_some_and(|ms| (25..50).contains(&ms)),
            "retry_after_ms outside [25, 50): {v}"
        );
    }
    let ok = responses
        .values()
        .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
        .count();
    assert!(ok >= 1, "no request survived the stampede: {responses:?}");

    daemon.send("{\"id\":100,\"verb\":\"ping\"}");
    let pong = daemon.collect(1);
    assert_eq!(
        pong[&100].get("pong").and_then(Json::as_bool),
        Some(true),
        "{}",
        pong[&100]
    );
    daemon.send("{\"id\":101,\"verb\":\"shutdown\"}");
    daemon.collect(1);
    daemon.finish();
}

/// Malformed and oversized frames get structured errors on a live
/// daemon that keeps compiling afterwards.
#[test]
fn malformed_and_oversized_frames_are_structured_errors() {
    let mut daemon = Daemon::spawn(&["--stdio", "--workers", "1", "--max-frame-bytes", "4096"]);
    daemon.send("this is not json");
    daemon.send("{\"id\":2,\"verb\":\"transmogrify\"}");
    daemon.send(&compile_frame(3, &"x".repeat(8192), ""));
    // A null-id error for the garbage frame has no integer id; read raw.
    let mut an0701 = 0;
    let mut an0702 = 0;
    for _ in 0..3 {
        let line = daemon.lines.recv_timeout(RESPONSE_WAIT).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        match error_code(&v) {
            "AN0701" => an0701 += 1,
            "AN0702" => an0702 += 1,
            other => panic!("unexpected code {other}: {line}"),
        }
    }
    assert_eq!((an0701, an0702), (2, 1));

    daemon.send(&compile_frame(
        4,
        "param N = 4; array A[N] distribute wrapped(0); for i = 0, N - 1 { A[i] = 1.0; }",
        "",
    ));
    let v = daemon.collect(1);
    assert_eq!(
        v[&4].get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v[&4]
    );
    // Stdio frames bytes exactly as the sockets do. A line that is not
    // UTF-8 is one malformed frame, not a transport error: the ping
    // behind it is answered.
    daemon.stdin.write_all(b"\xff\xfe x\n").unwrap();
    daemon.send("{\"id\":5,\"verb\":\"ping\"}");
    let line = daemon.lines.recv_timeout(RESPONSE_WAIT).unwrap();
    assert_eq!(error_code(&json::parse(&line).unwrap()), "AN0701", "{line}");
    let v = daemon.collect(1);
    assert_eq!(v[&5].get("pong").and_then(Json::as_bool), Some(true));
    // A 16 KiB line is cut off at the 4 KiB limit while it streams in:
    // one AN0702 (a second would have no integer id and fail the
    // collect), its tail discarded up to the newline, the ping behind
    // it answered.
    daemon.send(&"y".repeat(16384));
    daemon.send("{\"id\":6,\"verb\":\"ping\"}");
    let line = daemon.lines.recv_timeout(RESPONSE_WAIT).unwrap();
    assert_eq!(error_code(&json::parse(&line).unwrap()), "AN0702", "{line}");
    let v = daemon.collect(1);
    assert_eq!(v[&6].get("pong").and_then(Json::as_bool), Some(true));

    daemon.send("{\"id\":7,\"verb\":\"shutdown\"}");
    daemon.collect(1);
    daemon.finish();
}

/// The unix-socket transport serves concurrent clients and removes its
/// socket file on shutdown.
#[cfg(unix)]
#[test]
fn unix_socket_round_trip_and_cleanup() {
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("anc-serve-it-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut child = anc()
        .args([
            "serve",
            "--socket",
            path.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    let mut stream = {
        let mut tries = 0;
        loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) if tries < 250 => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect {}: {e}", path.display()),
            }
        }
    };
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();

    let source = std::fs::read_to_string(kernel_dir().join("fig1.an")).unwrap();
    writeln!(stream, "{}", compile_frame(1, &source, "")).unwrap();
    reader.read_line(&mut line).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    let spmd = artifact(&v, "spmd").to_string();
    let shot = one_shot("spmd", &kernel_dir().join("fig1.an"));
    assert_eq!(shot, format!("== SPMD node program ==\n{spmd}\n"));

    // A second client shares the same cache.
    let mut second = UnixStream::connect(&path).unwrap();
    writeln!(second, "{}", compile_frame(2, &source, "")).unwrap();
    let mut line2 = String::new();
    BufReader::new(second.try_clone().unwrap())
        .read_line(&mut line2)
        .unwrap();
    let v2 = json::parse(&line2).unwrap();
    assert_eq!(
        v2.get("cached").and_then(Json::as_bool),
        Some(true),
        "{line2}"
    );

    writeln!(stream, "{{\"id\":3,\"verb\":\"shutdown\"}}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"draining\":true"), "{line}");

    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exited with {status}");
    assert!(!path.exists(), "socket file survived shutdown");
}
