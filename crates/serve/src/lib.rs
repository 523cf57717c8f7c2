//! `an-serve` — a fault-isolated, self-healing compile-as-a-service
//! daemon for the access-normalization pipeline.
//!
//! A compiler that dies on its worst input is a library; one that
//! *contains* its worst input is a service. This crate wraps the
//! `an-driver` pipeline in a long-lived daemon with the failure
//! discipline production front-ends need:
//!
//! - **JSON-lines protocol** ([`proto`]): one request per line over a
//!   Unix socket ([`serve_unix`]), TCP ([`serve_tcp`]) or stdin/stdout
//!   ([`serve_lines`]); verbs `compile`, `status`, `health`, `ping`,
//!   `shutdown`. All three split frames with one byte-level framer
//!   (lossy UTF-8, max-frame enforcement while buffering) and answer
//!   through one response writer; the two socket entry points share
//!   one accept loop, take the shutdown latch that lets a `shutdown`
//!   frame on either stop both, serve byte-identical responses for the
//!   same frames and add slow-loris read deadlines and connection-cap
//!   shedding ([`net`]).
//! - **Fault cells** ([`core`]): every compile runs under
//!   `catch_unwind` with a full [`an_driver::CompileBudget`]; a panic
//!   or budget blow-up produces a structured `AN07xx` error
//!   ([`ServeCode`]) and never takes the worker down.
//! - **Poison-pill quarantine**: the content hash of a request that
//!   panicked is remembered (capped, FIFO); repeats fast-fail with
//!   `AN0706` instead of burning another fault cell.
//! - **Admission control**: a bounded queue; when full, requests are
//!   shed with `AN0707` and a deterministically jittered
//!   `retry_after_ms` hint. Health degrades to `overloaded`, never to
//!   unbounded memory.
//! - **In-flight coalescing**: identical concurrent requests ride one
//!   compile; waiters share the leader's outcome — success, error or
//!   panic — marked `"coalesced":true`.
//! - **Two-tier commit-on-success cache**: artifacts are cached by
//!   content hash only after a fully successful compile, so transient
//!   failures (deadlines, panics) can never poison future responses.
//!   The resident tier LRU-evicts at a byte budget it always has
//!   (64 KiB unless `--cache-cap` says otherwise) and forgets what it
//!   evicts; with `--cache-dir` eviction only demotes, because
//!   the [`store`] tier persists entries crash-safely (checksummed,
//!   length-framed, version-stamped) and survives `kill -9` —
//!   validation on load deletes and recompiles anything corrupt
//!   (`AN0710`) rather than ever serving it.
//! - **Graceful drain**: the `shutdown` verb (or transport EOF) stops
//!   admission, finishes every admitted job, then exits. The classic
//!   SIGTERM hook is deliberately absent — signal handlers need
//!   `unsafe`/libc and this workspace forbids both — so orchestrators
//!   send `shutdown` (or close stdin) instead.
//!
//! Observability rides on [`an_obs`]: request/fault counters, cache
//!   hit rates and per-phase latency histograms, all exposed through
//!   the `status` verb.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod diag;
mod frame;
pub mod fuzz;
pub mod json;
pub mod net;
pub mod proto;
pub mod store;

pub use crate::core::{ServeConfig, Server, Submit};
pub use diag::ServeCode;
#[cfg(unix)]
pub use net::serve_unix;
pub use net::{serve_tcp, Shutdown};

use std::io::{self, BufRead, Write};
use std::sync::mpsc;
use std::thread;

/// Runs the daemon over an arbitrary line transport: frames read from
/// `reader`, responses written (in completion order, correlated by id)
/// to `writer`. Returns after a `shutdown` frame or EOF, once every
/// admitted job has been answered and flushed.
///
/// # Errors
///
/// Propagates read errors from `reader` and write errors from the
/// response writer thread.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    server: &Server,
    mut reader: R,
    mut writer: W,
) -> io::Result<()> {
    let (tx, rx) = mpsc::channel::<String>();
    thread::scope(|scope| {
        let writer_thread = scope.spawn(move || -> io::Result<()> {
            for line in rx {
                frame::write_response(&mut writer, &line)?;
            }
            Ok(())
        });
        let mut framer = frame::Framer::new(server);
        let read_result = loop {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            if chunk.is_empty() {
                framer.finish(&tx);
                break Ok(());
            }
            let n = chunk.len();
            let outcome = framer.feed(chunk, &tx);
            reader.consume(n);
            if outcome == Submit::Shutdown {
                break Ok(());
            }
        };
        // Drain before dropping the sender: every admitted job sends
        // its response through a clone of `tx`, and drain() blocks
        // until they all have.
        server.drain();
        drop(tx);
        let write_result = writer_thread.join().expect("serve writer thread");
        read_result.and(write_result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const KERNEL: &str = "param N = 6;\n\
        array A[N, N] distribute wrapped(0);\n\
        for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[i, j] + 1; } }\n";

    #[test]
    fn serve_lines_round_trips_and_drains() {
        let input = format!(
            "{{\"id\":1,\"verb\":\"compile\",\"source\":\"{}\"}}\n\
             not even json\n\
             {{\"id\":2,\"verb\":\"ping\"}}\n\
             {{\"id\":3,\"verb\":\"shutdown\"}}\n\
             {{\"id\":4,\"verb\":\"ping\"}}\n",
            an_diag::escape_json(KERNEL)
        );
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let mut out: Vec<u8> = Vec::new();
        serve_lines(&server, input.as_bytes(), &mut out).unwrap();
        server.join();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Frame 4 sits after shutdown and must never be answered.
        assert_eq!(lines.len(), 4, "{text}");
        assert!(
            lines.iter().all(|l| crate::json::parse(l).is_ok()),
            "{text}"
        );
        assert!(
            text.contains("\"id\":1") && text.contains("\"spmd\""),
            "{text}"
        );
        assert!(text.contains("AN0701"), "{text}");
        assert!(text.contains("\"pong\":true"), "{text}");
        assert!(text.contains("\"draining\":true"), "{text}");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_smoke() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let path = std::env::temp_dir().join(format!("an-serve-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let result = thread::scope(|scope| {
            let srv = &server;
            let p = path.clone();
            let listener = scope.spawn(move || serve_unix(srv, &p, &Shutdown::new()));
            // Wait for the socket to exist, then talk to it.
            let mut tries = 0;
            let mut stream = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(_) if tries < 100 => {
                        tries += 1;
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => panic!("connect: {e}"),
                }
            };
            writeln!(stream, "{{\"id\":1,\"verb\":\"ping\"}}").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"pong\":true"), "{line}");
            writeln!(stream, "{{\"id\":2,\"verb\":\"shutdown\"}}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"draining\":true"), "{line}");
            listener.join().expect("listener thread")
        });
        result.unwrap();
        server.join();
        assert!(!path.exists(), "socket file not cleaned up");
    }
}
