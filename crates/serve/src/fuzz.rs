//! Protocol-frame and cache-store fuzzing.
//!
//! [`fuzz_frames`] throws malformed, oversized, truncated and
//! adversarially-typed frames at an in-process daemon and demands that
//! every one of them yields a structured response — never a panic,
//! never a hang past the frame deadline.
//!
//! [`fuzz_cache_store`] attacks the *persistent cache* instead of the
//! protocol: it populates a cache directory, corrupts the entry files
//! on disk (truncation, bit flips, garbage rewrites, appended junk),
//! restarts the daemon on the damaged directory, and demands the same
//! contract — no panic, no hang — plus the store's own invariant:
//! a response that claims success must carry artifacts bitwise equal to
//! the pristine compile's; corrupt bytes are never served.
//!
//! The kernel generator is injected by the caller (`anc fuzz` passes
//! its grammar-driven generator) so this crate needs no dependency on
//! the surface-language fuzzer.

use crate::core::{ServeConfig, Server};
use crate::json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Aggregated outcome of one fuzz run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameFuzzReport {
    /// Frames thrown.
    pub iterations: usize,
    /// Frames answered with `"ok":true`.
    pub ok: usize,
    /// Frames answered with a structured `AN07xx` error.
    pub rejected: usize,
    /// Frames whose response missed the frame deadline.
    pub hangs: usize,
    /// Frames that escaped the fault cell as a panic, or whose
    /// response was not valid single-line JSON.
    pub violations: usize,
    /// Human-readable descriptions of the first few violations.
    pub failures: Vec<String>,
}

impl FrameFuzzReport {
    /// `true` when no frame hung or broke the response contract.
    pub fn clean(&self) -> bool {
        self.hangs == 0 && self.violations == 0
    }
}

/// Splitmix64: a reproducible stream from one seed, shared by these
/// fuzzers and the surface fuzzer of `anc fuzz`.
pub struct Rng(pub u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`0..1` for `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// `1` or `-1` with equal odds.
    pub fn sign(&mut self) -> i64 {
        if self.below(2) == 0 {
            1
        } else {
            -1
        }
    }
}

/// How long the harness waits for any single frame before declaring a
/// hang. Generous, because CI machines are slow — the daemon's own
/// deadline machinery is what keeps real responses fast.
const FRAME_DEADLINE: Duration = Duration::from_secs(30);

fn mutate_frame(rng: &mut Rng, frame: &str) -> String {
    match rng.below(6) {
        // Truncate at a random char boundary.
        0 => {
            let cut = rng.below(frame.len().max(1) as u64) as usize;
            frame.chars().take(cut).collect()
        }
        // Flip one byte to a random printable character.
        1 => {
            let mut chars: Vec<char> = frame.chars().collect();
            if !chars.is_empty() {
                let at = rng.below(chars.len() as u64) as usize;
                chars[at] = char::from(b' ' + (rng.below(94)) as u8);
            }
            chars.into_iter().collect()
        }
        // Duplicate the frame on one line (trailing garbage).
        2 => format!("{frame}{frame}"),
        // Splice random unicode into the middle.
        3 => {
            let mid = frame.len() / 2;
            let mid = (0..=mid)
                .rev()
                .find(|&i| frame.is_char_boundary(i))
                .unwrap_or(0);
            format!("{}\u{1F980}\u{0}\u{7}{}", &frame[..mid], &frame[mid..])
        }
        // Deep nesting.
        4 => {
            let depth = 40 + rng.below(200) as usize;
            format!("{}{}{}", "{\"a\":".repeat(depth), "1", "}".repeat(depth))
        }
        // Pure garbage bytes (printable, so it stays a &str line).
        _ => (0..rng.below(120) + 1)
            .map(|_| char::from(b' ' + (rng.below(94)) as u8))
            .collect(),
    }
}

fn valid_frame(rng: &mut Rng, i: usize, kernel: &dyn Fn(u64) -> String) -> String {
    let source = kernel(rng.next());
    let mut extra = String::new();
    if rng.below(3) == 0 {
        extra.push_str(&format!(
            ",\"options\":{{\"deadline_ms\":{},\"max_depth\":{}}}",
            rng.below(2_000),
            1 + rng.below(20)
        ));
    }
    if rng.below(5) == 0 {
        extra.push_str(&format!(",\"chaos\":\"sleep:{}\"", rng.below(20)));
    }
    if rng.below(4) == 0 {
        extra.push_str(",\"emit\":[\"spmd\",\"ir\",\"transform\"]");
    }
    format!(
        "{{\"id\":{i},\"verb\":\"compile\",\"source\":\"{}\"{extra}}}",
        an_diag::escape_json(&source)
    )
}

fn typed_nonsense(rng: &mut Rng, i: usize) -> String {
    match rng.below(6) {
        0 => format!("{{\"id\":{i},\"verb\":\"transmogrify\"}}"),
        1 => format!("{{\"id\":{i},\"verb\":\"compile\",\"source\":{}}}", rng.below(9)),
        2 => format!(
            "{{\"id\":{i},\"verb\":\"compile\",\"source\":\"x\",\"emit\":[\"{}\"]}}",
            rng.below(1000)
        ),
        3 => format!(
            "{{\"id\":{i},\"verb\":\"compile\",\"source\":\"x\",\"options\":{{\"max_depth\":-{}}}}}",
            rng.below(50) + 1
        ),
        4 => format!("{{\"id\":[{i}],\"verb\":\"ping\"}}"),
        _ => format!(
            "{{\"id\":{i},\"verb\":\"compile\",\"source\":\"x\",\"chaos\":\"sleep:forever\"}}"
        ),
    }
}

/// Runs `iterations` randomized frames against a fresh in-process
/// daemon. `kernel` generates syntactically plausible source programs
/// from a seed (malformed sources are also fine — the daemon must
/// reject them in a structured way regardless).
pub fn fuzz_frames(
    iterations: usize,
    seed: u64,
    kernel: &dyn Fn(u64) -> String,
) -> FrameFuzzReport {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        default_deadline_ms: Some(2_000),
        max_frame_bytes: 16 * 1024,
        ..ServeConfig::default()
    });
    let mut rng = Rng(seed ^ 0xA5E2_57E5);
    let mut report = FrameFuzzReport::default();

    for i in 0..iterations {
        report.iterations += 1;
        let frame = match i % 4 {
            0 => valid_frame(&mut rng, i, kernel),
            1 => {
                let base = valid_frame(&mut rng, i, kernel);
                mutate_frame(&mut rng, &base)
            }
            2 => typed_nonsense(&mut rng, i),
            // Oversized: blows past the configured 16 KiB frame limit.
            _ => format!(
                "{{\"id\":{i},\"verb\":\"compile\",\"source\":\"{}\"}}",
                "x ".repeat(12 * 1024)
            ),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            server.request_sync(&frame, FRAME_DEADLINE)
        }));
        let response = match outcome {
            Ok(r) => r,
            Err(_) => {
                report.violations += 1;
                if report.failures.len() < 8 {
                    report
                        .failures
                        .push(format!("frame {i}: submit panicked: {frame:.120}"));
                }
                continue;
            }
        };
        if response.contains("no response within") {
            report.hangs += 1;
            if report.failures.len() < 8 {
                report
                    .failures
                    .push(format!("frame {i}: hang: {frame:.120}"));
            }
            continue;
        }
        match json::parse(&response) {
            Ok(v) if v.get("ok").and_then(json::Json::as_bool) == Some(true) => report.ok += 1,
            Ok(v)
                if v.get("ok").and_then(json::Json::as_bool) == Some(false)
                    && v.get("error").and_then(|e| e.get("code")).is_some() =>
            {
                report.rejected += 1;
            }
            _ => {
                report.violations += 1;
                if report.failures.len() < 8 {
                    report
                        .failures
                        .push(format!("frame {i}: bad response {response:.120}"));
                }
            }
        }
    }
    server.join();
    report
}

/// Damages one persistent-cache entry file in place. Mirrors the
/// corruption a crashed host can inflict: truncation, bit rot, garbage
/// rewrites, appended junk and version skew.
fn mutate_entry_bytes(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.below(5) {
        // Truncate: the classic torn write.
        0 => {
            let cut = rng.below(bytes.len().max(1) as u64) as usize;
            bytes.truncate(cut);
        }
        // Flip one bit somewhere (possibly producing invalid UTF-8).
        1 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Replace the whole file with random bytes.
        2 => {
            let len = rng.below(96) as usize + 1;
            bytes.clear();
            for _ in 0..len {
                bytes.push(rng.next() as u8);
            }
        }
        // Append junk after the framed payload.
        3 => bytes.extend_from_slice(b"\ntrailing junk from a torn append"),
        // Version skew: stamp a future format/pipeline version.
        _ => {
            let skewed = b"anc-cache 99 99\n";
            let n = skewed.len().min(bytes.len());
            bytes[..n].copy_from_slice(&skewed[..n]);
        }
    }
}

/// Runs `iterations` rounds of persistent-cache corruption. Each round
/// compiles a kernel into a fresh `--cache-dir`, damages every entry
/// file on disk, restarts the daemon on the damaged directory and
/// replays the same request. The daemon must neither panic nor hang,
/// and a successful response must carry artifacts bitwise equal to the
/// pristine compile's — corrupt cache bytes are never served.
pub fn fuzz_cache_store(
    iterations: usize,
    seed: u64,
    kernel: &dyn Fn(u64) -> String,
) -> FrameFuzzReport {
    let mut rng = Rng(seed ^ 0x0005_702E_5EED);
    let mut report = FrameFuzzReport::default();
    let root = std::env::temp_dir().join(format!(
        "an-serve-storefuzz-{}-{seed:x}",
        std::process::id()
    ));

    for i in 0..iterations {
        report.iterations += 1;
        let dir = root.join(format!("round-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            workers: 1,
            default_deadline_ms: Some(5_000),
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let source = kernel(rng.next());
        let frame = format!(
            "{{\"id\":{i},\"verb\":\"compile\",\"source\":\"{}\"}}",
            an_diag::escape_json(&source)
        );

        // Phase 1: pristine compile populates the on-disk tier.
        let writer = Server::start(config.clone());
        let pristine = writer.request_sync(&frame, FRAME_DEADLINE);
        writer.join();
        let reference = json::parse(&pristine)
            .ok()
            .filter(|v| v.get("ok").and_then(json::Json::as_bool) == Some(true))
            .and_then(|v| v.get("artifacts").cloned());

        // Phase 2: corrupt every persisted entry.
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if let Ok(mut bytes) = std::fs::read(&path) {
                    mutate_entry_bytes(&mut rng, &mut bytes);
                    let _ = std::fs::write(&path, bytes);
                }
            }
        }

        // Phase 3: restart on the damaged directory and replay.
        let reader = Server::start(config);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            reader.request_sync(&frame, FRAME_DEADLINE)
        }));
        match outcome {
            Err(_) => {
                report.violations += 1;
                if report.failures.len() < 8 {
                    report
                        .failures
                        .push(format!("round {i}: replay after corruption panicked"));
                }
            }
            Ok(response) if response.contains("no response within") => {
                report.hangs += 1;
                if report.failures.len() < 8 {
                    report
                        .failures
                        .push(format!("round {i}: hang after corruption"));
                }
            }
            Ok(response) => match json::parse(&response) {
                Ok(v) if v.get("ok").and_then(json::Json::as_bool) == Some(true) => {
                    // The store invariant: success means the artifacts
                    // match the pristine compile, byte for byte.
                    if let Some(reference) = &reference {
                        if v.get("artifacts") == Some(reference) {
                            report.ok += 1;
                        } else {
                            report.violations += 1;
                            if report.failures.len() < 8 {
                                report.failures.push(format!(
                                    "round {i}: served artifacts differ from pristine compile"
                                ));
                            }
                        }
                    } else {
                        // Pristine compile failed but the replay
                        // succeeded: impossible for a deterministic
                        // pipeline.
                        report.violations += 1;
                        if report.failures.len() < 8 {
                            report
                                .failures
                                .push(format!("round {i}: replay ok but pristine compile was not"));
                        }
                    }
                }
                Ok(v)
                    if v.get("ok").and_then(json::Json::as_bool) == Some(false)
                        && v.get("error").and_then(|e| e.get("code")).is_some() =>
                {
                    report.rejected += 1;
                }
                _ => {
                    report.violations += 1;
                    if report.failures.len() < 8 {
                        report
                            .failures
                            .push(format!("round {i}: bad response {response:.120}"));
                    }
                }
            },
        }
        reader.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_kernel(seed: u64) -> String {
        format!(
            "param N = {};\narray A[N] distribute blocked(0);\n\
             for i = 0, N - 1 {{ A[i] = A[i] + 1; }}\n",
            2 + seed % 6
        )
    }

    #[test]
    fn short_fuzz_run_is_clean() {
        let report = fuzz_frames(64, 0xF00D, &trivial_kernel);
        assert!(report.clean(), "{report:?}");
        assert!(report.ok > 0, "no valid frame compiled: {report:?}");
        assert!(report.rejected > 0, "no frame rejected: {report:?}");
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let a = fuzz_frames(32, 7, &trivial_kernel);
        let b = fuzz_frames(32, 7, &trivial_kernel);
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn cache_store_fuzz_is_clean_and_never_serves_corrupt_bytes() {
        let report = fuzz_cache_store(8, 0xBEEF, &trivial_kernel);
        assert!(report.clean(), "{report:?}");
        // Every round must resolve: a fresh recompile (ok, verified
        // bitwise against the pristine artifacts) or a structured
        // rejection when the generated kernel itself was invalid.
        assert_eq!(report.ok + report.rejected, report.iterations, "{report:?}");
        assert!(report.ok > 0, "no round recompiled: {report:?}");
    }
}
