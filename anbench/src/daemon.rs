//! The real `anc serve` child process and the benchmark's client.
//!
//! The daemon is always reached the way a user reaches it: a TCP (or
//! Unix) connection, one JSON line out, one JSON line back, one request
//! in flight per connection. The client sets `TCP_NODELAY` and writes
//! each frame with a single `write_all`; it does not pipeline.

use crate::trace::Recorder;
use access_normalization::serve::json::{self, Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(5);
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);
const STDERR_TAIL_LINES: usize = 20;

/// A running `anc serve --tcp 127.0.0.1:0 --workers 2` child. Dropping
/// it sends `shutdown`, then kills and reaps the child and removes the
/// socket directory — on the error and panic paths too.
pub struct Daemon {
    child: Child,
    pub tcp: SocketAddr,
    pub unix: Option<PathBuf>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    stderr_reader: Option<std::thread::JoinHandle<()>>,
    socket_dir: Option<PathBuf>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral TCP port (and, when
    /// `socket_dir` is given, on `socket_dir/anc.sock` too) and waits
    /// for its announce line.
    pub fn spawn(anc: &Path, socket_dir: Option<PathBuf>) -> Result<Daemon, String> {
        let mut cmd = Command::new(anc);
        cmd.args(["serve", "--tcp", "127.0.0.1:0", "--workers", "2"]);
        let unix = socket_dir.as_ref().map(|d| d.join("anc.sock"));
        if let (Some(dir), Some(sock)) = (&socket_dir, &unix) {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
            cmd.arg("--socket").arg(sock);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", anc.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let tail = Arc::new(Mutex::new(VecDeque::new()));
        let (announce_tx, announce_rx) = mpsc::channel();
        let reader_tail = Arc::clone(&tail);
        // Keeps draining stderr for the child's whole life so a chatty
        // daemon can never block on a full pipe.
        let stderr_reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line
                    .split("tcp://")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|a| a.parse::<SocketAddr>().ok())
                {
                    let _ = announce_tx.send(addr);
                }
                let mut tail = reader_tail.lock().unwrap_or_else(|e| e.into_inner());
                if tail.len() == STDERR_TAIL_LINES {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });
        let announced = announce_rx.recv_timeout(ANNOUNCE_TIMEOUT);
        let mut daemon = Daemon {
            child,
            tcp: SocketAddr::from(([127, 0, 0, 1], 0)),
            unix,
            stderr_tail: tail,
            stderr_reader: Some(stderr_reader),
            socket_dir,
        };
        match announced {
            Ok(addr) => {
                daemon.tcp = addr;
                Ok(daemon)
            }
            Err(_) => Err(format!(
                "anc serve did not announce a TCP address within {ANNOUNCE_TIMEOUT:?}; stderr: {:?}",
                daemon.stderr()
            )),
        }
    }

    /// The last stderr lines of the child, for quoting in a failure.
    pub fn stderr(&self) -> String {
        let tail = self.stderr_tail.lock().unwrap_or_else(|e| e.into_inner());
        tail.iter().cloned().collect::<Vec<_>>().join("\n")
    }

    /// Peak resident set of the daemon in KiB (`VmHWM`).
    pub fn peak_rss_kib(&self) -> Option<f64> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// The daemon's own `status` answer, over a fresh connection.
    pub fn status(&self) -> Result<Json, String> {
        let mut client = Client::tcp(self.tcp)?;
        let line = client.request("{\"id\":0,\"verb\":\"status\"}", &mut Recorder::new(false))?;
        let parsed = json::parse(&line).map_err(|e| format!("bad status line: {e}"))?;
        parsed
            .get("status")
            .cloned()
            .ok_or_else(|| format!("status answer without a status member: {line}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut stream) = TcpStream::connect_timeout(&self.tcp, Duration::from_secs(1)) {
            let _ = stream.write_all(b"{\"id\":0,\"verb\":\"shutdown\"}\n");
            let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
            let _ = stream.read(&mut [0u8; 256]);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr_reader.take() {
            let _ = reader.join();
        }
        if let Some(dir) = &self.socket_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB.
pub fn peak_rss_kib(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// One closed-loop connection: a request is written only after the
/// previous answer was read.
pub struct Client {
    writer: Box<dyn Stream>,
    reader: BufReader<Box<dyn Stream>>,
}

impl Client {
    pub fn tcp(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("cannot configure the connection to {addr}: {e}"))?;
        Client::over(stream.try_clone(), stream)
    }

    /// A client over a stream and a second handle to it for reading.
    fn over<S: Read + Write + Send + 'static>(
        read_half: std::io::Result<S>,
        stream: S,
    ) -> Result<Client, String> {
        let read_half = read_half.map_err(|e| format!("cannot clone the connection: {e}"))?;
        Ok(Client {
            writer: Box::new(stream),
            reader: BufReader::new(Box::new(read_half)),
        })
    }

    pub fn unix(path: &Path) -> Result<Client, String> {
        // The daemon announces its endpoints before its listener thread
        // has bound the socket file, so the first attempts may find none.
        let deadline = Instant::now() + ANNOUNCE_TIMEOUT;
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("cannot connect to {path:?}: {e}")),
            }
        };
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("cannot configure the connection to {path:?}: {e}"))?;
        Client::over(stream.try_clone(), stream)
    }

    /// Sends one frame (without its newline) and returns the answer
    /// line (without its newline).
    pub fn request(&mut self, frame: &str, rec: &mut Recorder) -> Result<String, String> {
        let mut wire = Vec::with_capacity(frame.len() + 1);
        wire.extend_from_slice(frame.as_bytes());
        wire.push(b'\n');
        let open = rec.enter("net.client_write");
        let sent = self
            .writer
            .write_all(&wire)
            .and_then(|()| self.writer.flush());
        rec.exit(open);
        sent.map_err(|e| format!("write failed: {e}"))?;
        let mut line = String::new();
        let open = rec.enter("net.client_wait");
        let got = self.reader.read_line(&mut line);
        rec.exit(open);
        match got {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => {
                line.truncate(line.trim_end_matches(['\n', '\r']).len());
                Ok(line)
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }
}

/// A `compile` frame for `source` with correlation id `id`.
pub fn compile_frame(id: u64, source: &str) -> String {
    format!(
        "{{\"id\":{id},\"verb\":\"compile\",\"source\":{}}}",
        Json::Str(source.to_string())
    )
}
