//! Socket transports: the Unix-domain listener and its TCP sibling.
//! [`serve_unix`] and [`serve_tcp`] differ only in how the listener is
//! bound and cleaned up; one accept loop and one framed connection
//! handler, both generic over the stream type, serve either.
//!
//! Both transports speak the identical JSON-lines protocol — a client
//! moved from `--socket` to `--tcp` sees byte-identical responses for
//! the same frames — split with the framer and answered through the
//! response writer that stdio uses too (`frame.rs`: lossy UTF-8,
//! `AN0702` at the buffer). What only a network peer can do is handled
//! here:
//!
//! - **Slow-loris partial frames.** A connection that trickles bytes
//!   without ever sending a newline holds memory, not a worker. After
//!   [`crate::ServeConfig::frame_read_deadline_ms`] with an unfinished
//!   frame, the daemon answers one `AN0709` line and closes the
//!   connection.
//! - **Connection cap with shedding.** Beyond
//!   [`crate::ServeConfig::max_conns`] concurrent connections per
//!   listener, new arrivals get one `AN0707` line (with the jittered
//!   `retry_after_ms` hint) and a close, instead of sitting invisibly
//!   in the accept backlog.
//!
//! Shutdown is cooperative and signal-free (the workspace forbids
//! `unsafe`/libc): listeners poll a shared [`Shutdown`] latch from a
//! non-blocking accept loop, and connection readers poll it between
//! 100 ms read timeouts. One `shutdown` frame on any connection of any
//! transport drains the whole daemon.

use crate::core::{Server, Submit};
use crate::diag::ServeCode;
use crate::frame::{write_response, Framer};
use crate::json::Json;
use crate::proto::render_error;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// How long a blocked `read` waits before re-checking the shutdown
/// latch and the partial-frame deadline.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long the non-blocking accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A shared, clonable shutdown latch. All listeners and connection
/// handlers serving one daemon poll the same latch, so a `shutdown`
/// frame received anywhere stops everything.
#[derive(Clone, Default)]
pub struct Shutdown(Arc<AtomicBool>);

impl Shutdown {
    /// A fresh, untriggered latch.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Trips the latch; idempotent.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the latch has been tripped.
    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A connection-slot guard: admission decrements on drop, so a handler
/// that panics still frees its slot.
struct ConnSlot<'a>(&'a AtomicUsize);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Tries to claim a connection slot against the per-listener cap.
fn claim_slot<'a>(server: &Server, active: &'a AtomicUsize) -> Option<ConnSlot<'a>> {
    if active.fetch_add(1, Ordering::SeqCst) >= server.config().max_conns {
        active.fetch_sub(1, Ordering::SeqCst);
        return None;
    }
    Some(ConnSlot(active))
}

/// Sheds one over-cap connection: a single structured `AN0707` line
/// with the jittered back-off hint, then close-by-drop.
fn shed_connection<W: Write>(server: &Server, mut stream: W) {
    server.metrics().inc("serve.conn.shed");
    let line = render_error(
        &Json::Null,
        ServeCode::Overloaded,
        "connection limit reached; retry later",
        Some(server.retry_hint()),
    );
    let _ = write_response(&mut stream, &line);
}

/// The two stream types the accept loop and the framed handler run
/// over. `configure` puts the stream in blocking mode with the poll
/// read-timeout; `split` clones a handle for the writer thread.
trait NetStream: Read + Write + Send {
    fn configure(&self) -> io::Result<()>;
    fn split(&self) -> io::Result<Self>
    where
        Self: Sized;
}

impl NetStream for TcpStream {
    fn configure(&self) -> io::Result<()> {
        // Accepted sockets may inherit the listener's non-blocking
        // flag on some platforms; normalize before setting timeouts.
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(READ_POLL))
    }

    fn split(&self) -> io::Result<TcpStream> {
        self.try_clone()
    }
}

#[cfg(unix)]
impl NetStream for std::os::unix::net::UnixStream {
    fn configure(&self) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(READ_POLL))
    }

    fn split(&self) -> io::Result<std::os::unix::net::UnixStream> {
        self.try_clone()
    }
}

/// Reads newline-delimited frames from one connection until EOF, error,
/// shutdown, or a blown partial-frame deadline, answering through a
/// per-connection writer thread. Returns [`Submit::Shutdown`] when this
/// connection requested the drain.
fn handle_framed<S: NetStream>(server: &Server, mut stream: S, shutdown: &Shutdown) -> Submit {
    if stream.configure().is_err() {
        return Submit::Handled;
    }
    let write_half = match stream.split() {
        Ok(s) => s,
        Err(_) => return Submit::Handled,
    };
    let frame_deadline = server
        .config()
        .frame_read_deadline_ms
        .map(Duration::from_millis);
    let (tx, rx) = mpsc::channel::<String>();
    thread::scope(|scope| {
        let writer_thread = scope.spawn(move || {
            let mut w = write_half;
            for line in rx {
                if write_response(&mut w, &line).is_err() {
                    break;
                }
            }
        });
        let mut outcome = Submit::Handled;
        let mut framer = Framer::new(server);
        let mut chunk = [0u8; 4096];
        // When did the currently-unfinished frame start sitting in the
        // framer? `Some` while bytes are buffered without a newline (or
        // while discarding an oversize frame's tail).
        let mut partial_since: Option<Instant> = None;
        loop {
            if shutdown.is_triggered() {
                break;
            }
            if let (Some(since), Some(limit)) = (partial_since, frame_deadline) {
                if since.elapsed() >= limit {
                    server.metrics().inc("serve.conn.slow_frame");
                    let _ = tx.send(render_error(
                        &Json::Null,
                        ServeCode::Timeout,
                        &format!(
                            "partial frame exceeded the {}ms read deadline; closing connection",
                            limit.as_millis()
                        ),
                        None,
                    ));
                    break;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    if framer.feed(&chunk[..n], &tx) == Submit::Shutdown {
                        outcome = Submit::Shutdown;
                        break;
                    }
                    if !framer.mid_frame() {
                        partial_since = None;
                    } else if partial_since.is_none() {
                        partial_since = Some(Instant::now());
                    }
                }
                // Timeout: loop to re-check the shutdown latch and the
                // partial-frame deadline.
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => break,
            }
        }
        drop(tx);
        let _ = writer_thread.join();
        outcome
    })
}

/// The accept loop of either listener, handed its `accept`: poll the
/// latch, take a connection, give it a slot and a [`handle_framed`]
/// thread of its own — or shed it when [`ServeConfig::max_conns`] are
/// already open — and sleep [`ACCEPT_POLL`] when nobody is waiting.
/// Returns once the latch has tripped, every connection has wound down
/// and the daemon has drained.
///
/// [`ServeConfig::max_conns`]: crate::ServeConfig::max_conns
fn accept_loop<S: NetStream>(
    server: &Server,
    shutdown: &Shutdown,
    accept: impl Fn() -> io::Result<S>,
) {
    let active = AtomicUsize::new(0);
    thread::scope(|scope| {
        while !shutdown.is_triggered() {
            match accept() {
                Ok(stream) => match claim_slot(server, &active) {
                    Some(slot) => {
                        scope.spawn(move || {
                            let _slot = slot;
                            if handle_framed(server, stream, shutdown) == Submit::Shutdown {
                                shutdown.trigger();
                            }
                        });
                    }
                    None => {
                        let _ = stream.configure();
                        shed_connection(server, stream);
                    }
                },
                // Nobody waiting (`WouldBlock`), or an accept that
                // failed for this one peer: poll again shortly.
                Err(_) => thread::sleep(ACCEPT_POLL),
            }
        }
    });
    server.drain();
}

/// Serves connections from a pre-bound TCP listener until the shared
/// latch trips (a `shutdown` frame on any connection of any transport
/// trips it). Binding is the caller's job so the resolved address —
/// port 0 requests an ephemeral port — can be reported before serving.
///
/// # Errors
///
/// Listener configuration errors. Per-connection I/O errors only
/// terminate that connection.
pub fn serve_tcp(server: &Server, listener: TcpListener, shutdown: &Shutdown) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(server, shutdown, || {
        listener.accept().map(|(stream, _peer)| stream)
    });
    Ok(())
}

/// Binds `path` and serves connections until the shared latch trips.
/// Each connection gets its own reader thread; all of them share the
/// one [`Server`] (and therefore its queue, cache tiers, quarantine
/// and singleflight table). The socket file is removed on exit.
///
/// # Errors
///
/// Bind errors. Per-connection I/O errors only terminate that
/// connection.
#[cfg(unix)]
pub fn serve_unix(server: &Server, path: &std::path::Path, shutdown: &Shutdown) -> io::Result<()> {
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    accept_loop(server, shutdown, || {
        listener.accept().map(|(stream, _addr)| stream)
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use std::io::{BufRead, BufReader};
    use std::net::SocketAddr;

    const KERNEL: &str = "param N = 6;\n\
        array A[N, N] distribute wrapped(0);\n\
        for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[i, j] + 1; } }\n";

    fn compile_frame(id: u64) -> String {
        format!(
            "{{\"id\":{id},\"verb\":\"compile\",\"source\":\"{}\"}}",
            an_diag::escape_json(KERNEL)
        )
    }

    fn connect_tcp(addr: SocketAddr) -> TcpStream {
        let mut tries = 0;
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => return s,
                Err(_) if tries < 100 => {
                    tries += 1;
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect {addr}: {e}"),
            }
        }
    }

    fn roundtrip(stream: &TcpStream, frames: &[&str]) -> Vec<String> {
        let mut w = stream.try_clone().unwrap();
        for f in frames {
            writeln!(w, "{f}").unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = Vec::new();
        for _ in frames {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            out.push(line);
        }
        out
    }

    #[test]
    fn tcp_smoke_ping_compile_shutdown() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|scope| {
            let srv = &server;
            let t = scope.spawn(move || serve_tcp(srv, listener, &Shutdown::new()));
            let stream = connect_tcp(addr);
            let lines = roundtrip(
                &stream,
                &[
                    "{\"id\":1,\"verb\":\"ping\"}",
                    &compile_frame(2),
                    "{\"id\":3,\"verb\":\"shutdown\"}",
                ],
            );
            // Responses come back in completion order: the async
            // compile may land after the shutdown acknowledgement.
            assert!(lines[0].contains("\"pong\":true"), "{lines:?}");
            assert!(lines.iter().any(|l| l.contains("\"spmd\"")), "{lines:?}");
            assert!(
                lines.iter().any(|l| l.contains("\"draining\":true")),
                "{lines:?}"
            );
            t.join().unwrap().unwrap();
        });
        server.join();
    }

    #[cfg(unix)]
    #[test]
    fn tcp_and_unix_responses_are_byte_identical() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let sock =
            std::env::temp_dir().join(format!("an-serve-parity-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Shutdown::new();
        thread::scope(|scope| {
            let srv = &server;
            let (sd1, sd2) = (shutdown.clone(), shutdown.clone());
            let sock_path = sock.clone();
            let tu = scope.spawn(move || serve_unix(srv, &sock_path, &sd1));
            let tt = scope.spawn(move || serve_tcp(srv, listener, &sd2));

            // Prime the cache so the compile response is deterministic
            // (cached=true, compile_us=0) on both transports.
            let prime = server.request_sync(&compile_frame(0), Duration::from_secs(30));
            assert!(prime.contains("\"ok\":true"), "{prime}");

            let frames = [
                compile_frame(1),
                "{\"id\":2,\"verb\":\"ping\"}".to_string(),
                "this is not json".to_string(),
                "{\"id\":4,\"verb\":\"health\"}".to_string(),
            ];
            let frame_refs: Vec<&str> = frames.iter().map(String::as_str).collect();

            let tcp_lines = roundtrip(&connect_tcp(addr), &frame_refs);

            let mut tries = 0;
            let unix_stream = loop {
                match std::os::unix::net::UnixStream::connect(&sock) {
                    Ok(s) => break s,
                    Err(_) if tries < 100 => {
                        tries += 1;
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => panic!("connect unix: {e}"),
                }
            };
            let mut w = unix_stream.try_clone().unwrap();
            for f in &frame_refs {
                writeln!(w, "{f}").unwrap();
            }
            let mut reader = BufReader::new(unix_stream);
            let unix_lines: Vec<String> = frame_refs
                .iter()
                .map(|_| {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    line
                })
                .collect();

            assert_eq!(
                tcp_lines, unix_lines,
                "transports must serve byte-identical responses"
            );
            assert!(tcp_lines[0].contains("\"cached\":true"), "{tcp_lines:?}");

            shutdown.trigger();
            tu.join().unwrap().unwrap();
            tt.join().unwrap().unwrap();
        });
        server.join();
        assert!(!sock.exists(), "socket file not cleaned up");
    }

    #[test]
    fn slow_loris_partial_frame_is_cut_off() {
        let server = Server::start(ServeConfig {
            workers: 1,
            frame_read_deadline_ms: Some(300),
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Shutdown::new();
        thread::scope(|scope| {
            let srv = &server;
            let sd = shutdown.clone();
            let t = scope.spawn(move || serve_tcp(srv, listener, &sd));
            let stream = connect_tcp(addr);
            let mut w = stream.try_clone().unwrap();
            // A frame that never finishes.
            write!(w, "{{\"id\":1,\"verb\":").unwrap();
            w.flush().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("AN0709"), "{line}");
            assert!(line.contains("read deadline"), "{line}");
            // The daemon closed the connection: next read is EOF.
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");
            assert_eq!(server.metrics().counter("serve.conn.slow_frame"), 1);
            shutdown.trigger();
            t.join().unwrap().unwrap();
        });
        server.join();
    }

    #[test]
    fn oversize_frame_is_rejected_and_connection_recovers() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_frame_bytes: 256,
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Shutdown::new();
        thread::scope(|scope| {
            let srv = &server;
            let sd = shutdown.clone();
            let t = scope.spawn(move || serve_tcp(srv, listener, &sd));
            let stream = connect_tcp(addr);
            let mut w = stream.try_clone().unwrap();
            // 4 KiB of newline-less garbage trips the buffer guard
            // mid-stream; the newline then clears the discard state.
            let flood = "x".repeat(4096);
            writeln!(w, "{flood}").unwrap();
            writeln!(w, "{{\"id\":2,\"verb\":\"ping\"}}").unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("AN0702"), "{line}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(
                line.contains("\"pong\":true"),
                "connection must recover: {line}"
            );
            shutdown.trigger();
            t.join().unwrap().unwrap();
        });
        server.join();
    }

    #[test]
    fn connection_cap_sheds_with_retry_hint() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_conns: 1,
            retry_after_ms: 30,
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Shutdown::new();
        thread::scope(|scope| {
            let srv = &server;
            let sd = shutdown.clone();
            let t = scope.spawn(move || serve_tcp(srv, listener, &sd));
            let held = connect_tcp(addr);
            // Prove the first connection owns its slot before piling on.
            let lines = roundtrip(&held, &["{\"id\":1,\"verb\":\"ping\"}"]);
            assert!(lines[0].contains("\"pong\":true"), "{lines:?}");
            let second = connect_tcp(addr);
            let mut reader = BufReader::new(second);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("AN0707"), "{line}");
            let hint = crate::json::parse(&line)
                .unwrap()
                .get("retry_after_ms")
                .unwrap()
                .as_u64()
                .unwrap();
            assert!((30..60).contains(&hint), "{line}");
            line.clear();
            assert_eq!(
                reader.read_line(&mut line).unwrap(),
                0,
                "shed conn must close"
            );
            assert_eq!(server.metrics().counter("serve.conn.shed"), 1);
            drop(held);
            shutdown.trigger();
            t.join().unwrap().unwrap();
        });
        server.join();
    }
}
