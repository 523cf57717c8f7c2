//! The daemon core: admission control, a bounded worker pool,
//! per-request fault cells, a two-tier (memory + disk) commit-on-success
//! artifact cache, in-flight request coalescing, and a poison-pill
//! quarantine.
//!
//! # One answer path
//!
//! Every compile request ends in one `Outcome` — artifacts, or an
//! `AN07xx` code and message — that one function, `Inner::answer`,
//! renders for each requester, counts (`serve.ok` for every
//! `"ok":true`, else the code's `serve.fault.*`) and sends.
//!
//! # Fault isolation
//!
//! Each compile runs inside a *fault cell*: `catch_unwind` around the
//! whole parse→compile→emit chain, a [`CompileBudget`] bounding every
//! resource axis, and a per-request deadline checked cooperatively at
//! phase boundaries (and inside Fourier–Motzkin via the driver's own
//! deadline plumbing). A panic kills the request, not the worker: the
//! payload is captured, the request's content hash is quarantined so
//! repeats fast-fail with `AN0706`, and the worker returns to the pool.
//!
//! # Admission control
//!
//! The queue is bounded. When it is full, new compiles are shed
//! immediately with `AN0707` and a `retry_after_ms` hint — the daemon
//! degrades by refusing work, never by growing without bound. The hint
//! carries deterministic, seeded jitter in `[retry_after_ms,
//! 2*retry_after_ms)` so a shed client burst does not re-arrive as a
//! synchronized thundering herd. Once draining, everything already
//! admitted completes and new work is refused with `AN0708`.
//!
//! # Cache discipline
//!
//! Artifacts are cached by content hash and inserted only after a fully
//! successful compile — errors, budget exhaustions and panics never
//! populate the cache, so a transient deadline failure cannot poison
//! future responses. The resident tier always has a byte budget
//! ([`ServeConfig::cache_cap_bytes`]) and evicts least-recently-used
//! entries to keep it: like the queue, it refuses to grow rather than
//! grow without bound. Without a [`ServeConfig::cache_dir`] an evicted
//! entry is forgotten and recompiled on its next request; with one,
//! every successful compile is also persisted through the crash-safe
//! [`crate::store::CacheStore`], so eviction only demotes an entry to
//! disk and a restarted daemon reloads artifacts lazily on first miss.
//! Disk entries are validated end to end before anything in them is
//! served; a corrupt entry is deleted, counted (`AN0710`), and
//! transparently recompiled.
//!
//! # Coalescing
//!
//! Identical requests (same content hash) in flight at the same time
//! cost one compile: the first becomes the *leader* and occupies the
//! one queue slot; the rest join its flight as waiters and are answered
//! with the leader's outcome — success, compile error, or panic — each
//! under its own request id, with `"coalesced":true`. Deadlines stay
//! per-member: a member whose deadline lapses in the queue is failed
//! with `AN0709` at pickup, and the compile proceeds for whichever
//! members still have slack under the group's most generous deadline.

use crate::diag::ServeCode;
use crate::json::Json;
use crate::proto::{
    parse_request, render_compile_ok, render_error, render_ok_payload, Chaos, CompileRequest, Emit,
    Verb, DEFAULT_MAX_FRAME_BYTES,
};
use crate::store::{CacheStore, Loaded};
use an_driver::Error as DriverError;
use an_obs::Metrics;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` means one per available core (the same
    /// resolution rule as `--jobs`).
    pub workers: usize,
    /// Maximum queued (admitted but not yet running) requests before
    /// load-shedding kicks in.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`. `None` disables the default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Per-frame size limit in bytes.
    pub max_frame_bytes: usize,
    /// Base back-off hint returned with `AN0707` shed responses; the
    /// hint on the wire is jittered into `[base, 2*base)`.
    pub retry_after_ms: u64,
    /// Seed for the deterministic retry-hint jitter. Two daemons with
    /// the same seed emit the same hint sequence — reproducible load
    /// tests; different seeds decorrelate their shed clients.
    pub retry_jitter_seed: u64,
    /// Directory for the persistent artifact cache. `None` (the
    /// default) keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the resident artifact cache; least-recently-used
    /// entries are evicted once the budget is exceeded. Eviction never
    /// touches the disk tier. The budget counts artifact text plus 48
    /// bytes an artifact, of which the heap pays about 2.5 times (`Arc`,
    /// `Vec`, map slot, `String` capacity); the 64 KiB default is some
    /// 190 corpus-sized SPMD artifacts and was sized against the
    /// daemon's peak RSS when every request is a never-seen source
    /// (DESIGN.md §16).
    pub cache_cap_bytes: u64,
    /// Maximum quarantined poison-pill hashes retained; the oldest is
    /// dropped (memory and disk) once the cap is exceeded.
    pub quarantine_cap: usize,
    /// Maximum concurrent socket connections per listener (Unix or
    /// TCP); excess connections are shed with one `AN0707` line and
    /// closed instead of queuing invisibly in the accept backlog.
    pub max_conns: usize,
    /// How long a connection may hold an unfinished frame (bytes
    /// buffered, no newline) before the daemon gives up on it — the
    /// slow-loris guard. `None` disables the deadline.
    pub frame_read_deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            default_deadline_ms: Some(10_000),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            retry_after_ms: 50,
            retry_jitter_seed: 0,
            cache_dir: None,
            cache_cap_bytes: 64 << 10,
            quarantine_cap: 256,
            max_conns: 64,
            frame_read_deadline_ms: Some(10_000),
        }
    }
}

/// Rendered artifacts for one cache entry, shared between the cache
/// and in-flight responses without cloning the strings.
type Artifacts = Arc<Vec<(Emit, String)>>;

/// One requester awaiting a flight's outcome (the leader is member 0
/// until its deadline drops it).
struct Member {
    id: Json,
    reply: Sender<String>,
    deadline: Option<Instant>,
    enqueued_at: Instant,
    /// Whether this member joined an existing flight (false only for
    /// the original leader). Sticky: it still renders truthfully after
    /// the leader itself is dropped by a queued-deadline expiry.
    coalesced: bool,
}

#[derive(Default)]
struct QueueState {
    /// Queued compiles with their content hashes; who gets the answer
    /// lives in the flight table.
    queue: VecDeque<(CompileRequest, u64)>,
    active: usize,
    draining: bool,
}

/// How one compile request ends.
enum Outcome {
    /// The artifacts, with the compile's `compile_us` — `None` when they
    /// came from the cache.
    Done(Artifacts, Option<u64>),
    /// An `AN07xx` code and message, plus a shed's `retry_after_ms`.
    Fault(ServeCode, String, Option<u64>),
}

impl Outcome {
    /// The response line for one requester; `coalesced` shows on
    /// success only.
    fn render(&self, id: &Json, coalesced: bool) -> String {
        match self {
            Outcome::Done(a, us) => {
                render_compile_ok(id, us.is_none(), coalesced, a, us.unwrap_or(0))
            }
            Outcome::Fault(code, message, retry) => render_error(id, *code, message, *retry),
        }
    }
}

/// Resident tier of the artifact cache: LRU eviction to a byte budget.
#[derive(Default)]
struct Resident {
    entries: HashMap<u64, CacheEntry>,
    bytes: u64,
    cap: u64,
    tick: u64,
}

struct CacheEntry {
    artifacts: Artifacts,
    bytes: u64,
    last_used: u64,
}

impl Resident {
    /// Looks up `hash`, refreshing its recency on hit.
    fn touch(&mut self, hash: u64) -> Option<Artifacts> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&hash)?;
        e.last_used = tick;
        Some(Arc::clone(&e.artifacts))
    }

    /// Inserts (or replaces) an entry, then evicts least-recently-used
    /// entries until the byte budget holds again. A single entry larger
    /// than the whole budget is kept alone rather than thrashed —
    /// serving it beats recompiling it every time.
    fn insert(&mut self, hash: u64, artifacts: &Artifacts, metrics: &Metrics) {
        let bytes = artifacts
            .iter()
            .map(|(k, t)| k.as_str().len() + t.len() + 48)
            .sum::<usize>() as u64;
        self.tick += 1;
        let entry = CacheEntry {
            artifacts: Arc::clone(artifacts),
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(hash, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.bytes > self.cap && self.entries.len() > 1 {
            let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let evicted = self.entries.remove(&victim).expect("victim present");
            self.bytes -= evicted.bytes;
            metrics.inc("serve.cache.evicted");
        }
    }
}

/// The artifact cache: the resident tier over the durable disk tier,
/// when one is configured. Commit-on-success only.
struct ArtifactCache {
    resident: Mutex<Resident>,
    disk: Option<CacheStore>,
}

impl ArtifactCache {
    /// The artifacts for `hash`: resident first, then from disk —
    /// validated end to end before anything is served, and promoted to
    /// the resident tier. A corrupt disk entry was already deleted by
    /// the store; it is counted (`AN0710`) and reads as a miss, so the
    /// request recompiles.
    fn get(&self, hash: u64, metrics: &Metrics) -> Option<Artifacts> {
        if let Some(artifacts) = self.resident.lock().expect("cache").touch(hash) {
            metrics.inc("serve.cache.hit");
            return Some(artifacts);
        }
        match self.disk.as_ref()?.load_artifacts(hash) {
            Loaded::Hit(arts) => {
                let artifacts: Artifacts = Arc::new(arts);
                let mut resident = self.resident.lock().expect("cache");
                resident.insert(hash, &artifacts, metrics);
                metrics.inc("serve.cache.disk_hit");
                Some(artifacts)
            }
            Loaded::Corrupt(why) => {
                metrics.inc("serve.cache.corrupt");
                eprintln!(
                    "anc serve: AN0710 cache entry {hash:016x} failed validation ({why}); \
                     deleted, recompiling"
                );
                None
            }
            Loaded::Miss => None,
        }
    }

    /// Commits one successful compile: into the resident tier (evicting
    /// to the budget), then durably to disk, where a failed write is
    /// counted rather than fatal — the resident tier still serves it.
    fn put(&self, hash: u64, artifacts: &Artifacts, metrics: &Metrics) {
        let mut resident = self.resident.lock().expect("cache");
        resident.insert(hash, artifacts, metrics);
        drop(resident);
        if let Some(disk) = &self.disk {
            if disk.store_artifacts(hash, artifacts).is_err() {
                metrics.inc("serve.cache.write_errors");
            }
        }
    }
}

/// The poison-pill quarantine and its `.qr` records on disk, with a
/// FIFO cap: insertion order is retirement order, so the pills most
/// likely to recur (recent ones) stay resident.
#[derive(Default)]
struct QuarantineMap {
    map: BTreeMap<u64, String>,
    order: VecDeque<u64>,
    cap: usize,
    disk: Option<CacheStore>,
}

impl QuarantineMap {
    /// The quarantine `disk` holds (empty without one); records that
    /// fail validation were deleted by the store and count as corrupt.
    fn load(cap: usize, disk: Option<CacheStore>, metrics: &Metrics) -> QuarantineMap {
        let loaded = disk.as_ref().map(CacheStore::load_all_quarantine);
        let (records, corrupt) = loaded.unwrap_or_default();
        if corrupt > 0 {
            metrics.add("serve.cache.corrupt", corrupt);
        }
        let mut quarantine = QuarantineMap {
            cap,
            disk,
            ..QuarantineMap::default()
        };
        for (hash, msg) in records {
            quarantine.remember(hash, msg, metrics);
        }
        quarantine
    }

    /// Quarantines `hash`, then persists its record once the lock is
    /// released, so `health` and `status` never wait on the durable write.
    fn insert(this: &Mutex<Self>, hash: u64, message: String, metrics: &Metrics) {
        let mut quarantine = this.lock().expect("quarantine");
        quarantine.remember(hash, message.clone(), metrics);
        let disk = quarantine.disk.clone();
        drop(quarantine);
        if let Some(disk) = disk {
            if disk.store_quarantine(hash, &message).is_err() {
                metrics.inc("serve.cache.write_errors");
            }
        }
    }

    /// Adds one record and enforces the cap, retiring the oldest records
    /// from memory and disk together.
    fn remember(&mut self, hash: u64, message: String, metrics: &Metrics) {
        if self.map.insert(hash, message).is_none() {
            self.order.push_back(hash);
        }
        while self.map.len() > self.cap.max(1) {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.map.remove(&oldest).is_some() {
                if let Some(disk) = &self.disk {
                    disk.remove_quarantine(oldest);
                }
                metrics.inc("serve.quarantine.evicted");
            }
        }
    }
}

struct Inner {
    config: ServeConfig,
    state: Mutex<QueueState>,
    /// Signaled when a job is enqueued or draining starts.
    job_ready: Condvar,
    /// Signaled when a worker finishes a job (drain waits on this).
    job_done: Condvar,
    cache: ArtifactCache,
    /// Content hash → its singleflight group: every requester whose
    /// identical request is riding the one queued compile. Lock order
    /// where nesting is needed: `inflight` → (`cache` | `quarantine` |
    /// `state`); nothing acquires `inflight` while holding the others.
    inflight: Mutex<HashMap<u64, Vec<Member>>>,
    /// Content hash → first panic message. A hash listed here is
    /// fast-failed without compiling.
    quarantine: Mutex<QuarantineMap>,
    /// Monotone sequence for the retry-hint jitter stream.
    jitter_seq: AtomicU64,
    metrics: Metrics,
}

impl Inner {
    /// The one way an outcome leaves the core: rendered for one
    /// requester, counted once, sent. The send can only fail if the
    /// client is gone, which is the client's problem, not the daemon's.
    fn answer(&self, to: &Sender<String>, id: &Json, coalesced: bool, outcome: &Outcome) {
        self.metrics.inc(match outcome {
            Outcome::Done(..) => "serve.ok",
            Outcome::Fault(code, ..) => code.fault_counter(),
        });
        let _ = to.send(outcome.render(id, coalesced));
    }
}

/// What [`Server::submit`] tells the transport loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// The frame was handled (response already sent or job queued).
    Handled,
    /// The frame was a `shutdown` request: its acknowledgement has been
    /// sent; the transport should stop reading and call
    /// [`Server::drain`].
    Shutdown,
}

/// A running daemon: worker pool plus shared state. Create with
/// [`Server::start`], feed frames with [`Server::submit`] (or
/// [`Server::request_sync`]), stop with [`Server::drain`] then
/// [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Boots the worker pool. With a `cache_dir` configured this also
    /// opens the persistent store (sweeping crash debris) and reloads
    /// the quarantine eagerly; artifacts reload lazily, on first miss.
    /// An unusable cache directory disables persistence with a warning
    /// rather than refusing to serve.
    pub fn start(config: ServeConfig) -> Server {
        let worker_count = an_par::resolve_jobs(config.workers);
        let metrics = Metrics::new();
        let disk = config.cache_dir.as_ref().and_then(|dir| {
            let store = CacheStore::open(dir);
            if let Err(e) = &store {
                let dir = dir.display();
                eprintln!("anc serve: cache dir {dir} unusable ({e}); persistence disabled");
            }
            store.ok()
        });
        let quarantine = QuarantineMap::load(config.quarantine_cap, disk.clone(), &metrics);
        let resident = Resident {
            cap: config.cache_cap_bytes,
            ..Resident::default()
        };
        let inner = Arc::new(Inner {
            jitter_seq: AtomicU64::new(0),
            state: Mutex::new(QueueState::default()),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            cache: ArtifactCache {
                resident: Mutex::new(resident),
                disk,
            },
            inflight: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(quarantine),
            metrics,
            config,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("an-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The daemon's metrics registry (shared with workers).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The configuration this daemon was started with (transports read
    /// their frame and connection limits from here).
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Next load-shed back-off hint: the configured base plus
    /// deterministic seeded jitter, in `[base, 2*base)`. Shared by
    /// queue shedding and the transports' connection-cap shedding.
    pub fn retry_hint(&self) -> u64 {
        let base = self.inner.config.retry_after_ms.max(1);
        let n = self.inner.jitter_seq.fetch_add(1, Ordering::Relaxed);
        let z = splitmix64(
            self.inner
                .config
                .retry_jitter_seed
                .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        base + z % base
    }

    /// Answers a frame the transport rejected before it could reach
    /// [`Server::submit`] (an oversize frame cut off while buffering).
    pub(crate) fn reject(&self, reply: &Sender<String>, code: ServeCode, message: String) {
        let outcome = Outcome::Fault(code, message, None);
        self.inner.answer(reply, &Json::Null, false, &outcome);
    }

    /// Handles one protocol frame. Immediate verbs (`status`, `health`,
    /// `ping`, malformed frames, shed compiles) are answered through
    /// `reply` before this returns; admitted compiles are answered
    /// later by a worker. A failed send means the client is gone, which
    /// the daemon treats as the client's problem, not its own.
    pub fn submit(&self, line: &str, reply: &Sender<String>) -> Submit {
        let inner = &self.inner;
        inner.metrics.inc("serve.requests.total");
        let request = match parse_request(line, inner.config.max_frame_bytes) {
            Ok(r) => r,
            Err(e) => {
                let outcome = Outcome::Fault(e.code, e.message, None);
                inner.answer(reply, &e.id, false, &outcome);
                return Submit::Handled;
            }
        };
        if !matches!(request.verb, Verb::Compile(_)) {
            // Answered `"ok":true` below, and counted first so that a
            // `status` answer counts itself.
            inner.metrics.inc("serve.ok");
        }
        let (payload, next) = match request.verb {
            Verb::Compile(req) => {
                self.admit(request.id, req, reply);
                return Submit::Handled;
            }
            Verb::Ping => ("\"pong\":true".to_string(), Submit::Handled),
            Verb::Health => (self.health_payload(), Submit::Handled),
            Verb::Status => (
                format!("\"status\":{}", self.status_json()),
                Submit::Handled,
            ),
            Verb::Shutdown => {
                let mut state = inner.state.lock().expect("serve state");
                state.draining = true;
                inner.job_ready.notify_all();
                ("\"draining\":true".to_string(), Submit::Shutdown)
            }
        };
        let _ = reply.send(render_ok_payload(&request.id, &payload));
        next
    }

    /// Admission control for one compile request: quarantine fast-fail,
    /// then the artifact cache, then singleflight join, then (as a
    /// flight leader) the bounded queue.
    fn admit(&self, id: Json, req: CompileRequest, reply: &Sender<String>) {
        let inner = &self.inner;
        let hash = req.content_hash();

        // Everything below holds the singleflight lock, and a finishing
        // leader commits its artifacts to the cache — or a panicking one
        // its hash to the quarantine — *before* removing its flight,
        // under this same lock. So a hash that is neither quarantined
        // nor cached here either has a live flight to join or gets its
        // first: no concurrent request compiles twice, and no
        // quarantined hash ever gains a new flight.
        let mut inflight = inner.inflight.lock().expect("inflight");
        // Copied out: the quarantine lock is not held over the cache lookup.
        let quarantine = inner.quarantine.lock().expect("quarantine");
        let pill = quarantine.map.get(&hash).cloned();
        drop(quarantine);
        let settled = match pill {
            Some(msg) => Some(Outcome::Fault(
                ServeCode::Quarantined,
                format!("source hash {hash:016x} is quarantined after a panic: {msg}"),
                None,
            )),
            None => inner
                .cache
                .get(hash, &inner.metrics)
                .map(|artifacts| Outcome::Done(artifacts, None)),
        };
        if let Some(outcome) = settled {
            drop(inflight);
            inner.answer(reply, &id, false, &outcome);
            return;
        }

        let now = Instant::now();
        let deadline_ms = req.deadline_ms.or(inner.config.default_deadline_ms);
        let mut member = Member {
            id,
            reply: reply.clone(),
            deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            enqueued_at: now,
            coalesced: false,
        };

        // Singleflight join: an identical request is already queued or
        // compiling; ride it instead of burning a second compile. This
        // also holds while draining — the flight's job was admitted
        // before the drain, so piggy-backing costs nothing extra.
        if let Some(flight) = inflight.get_mut(&hash) {
            inner.metrics.inc("serve.dedup.hit");
            member.coalesced = true;
            flight.push(member);
            return;
        }

        // Flight-leader path: this is the one genuine cache miss of
        // the whole group (waiters are dedup hits, not misses). Claim
        // the queue slot.
        inner.metrics.inc("serve.cache.miss");
        let mut state = inner.state.lock().expect("serve state");
        let refusal = if state.draining {
            let message = "daemon is draining; no new work admitted".to_string();
            Outcome::Fault(ServeCode::Draining, message, None)
        } else if state.queue.len() >= inner.config.queue_capacity {
            let (queued, active) = (state.queue.len(), state.active);
            let message = format!("queue full ({queued} queued, {active} active); retry later");
            Outcome::Fault(ServeCode::Overloaded, message, Some(self.retry_hint()))
        } else {
            state.queue.push_back((req, hash));
            inflight.insert(hash, vec![member]);
            inner.job_ready.notify_one();
            return;
        };
        drop((state, inflight));
        inner.answer(&member.reply, &member.id, false, &refusal);
    }

    /// Submits one frame and waits for its single response. `timeout`
    /// is the frame-level hang guard: the call returns an `AN0709`
    /// response rather than blocking forever. Used by tests, the fuzz
    /// harness and the bench harness.
    pub fn request_sync(&self, line: &str, timeout: Duration) -> String {
        let (tx, rx) = mpsc::channel();
        self.submit(line, &tx);
        rx.recv_timeout(timeout).unwrap_or_else(|_| {
            let message = format!("no response within {}ms", timeout.as_millis());
            Outcome::Fault(ServeCode::Timeout, message, None).render(&Json::Null, false)
        })
    }

    /// One-word health: `draining`, `overloaded` (queue at capacity) or
    /// `ok`.
    pub fn health_word(&self) -> &'static str {
        let state = self.inner.state.lock().expect("serve state");
        if state.draining {
            "draining"
        } else if state.queue.len() >= self.inner.config.queue_capacity {
            "overloaded"
        } else {
            "ok"
        }
    }

    /// The `health` response payload: the one-word summary plus the
    /// quarantine occupancy against its cap and whether a persistent
    /// cache is attached.
    fn health_payload(&self) -> String {
        format!(
            "\"health\":\"{}\",\"quarantine_entries\":{},\"quarantine_cap\":{},\"persistent\":{}",
            self.health_word(),
            self.inner.quarantine.lock().expect("quarantine").map.len(),
            self.inner.config.quarantine_cap,
            self.inner.cache.disk.is_some()
        )
    }

    /// The `status` payload as a JSON object: pool and queue state,
    /// request/fault counters, both cache tiers, coalescing statistics,
    /// latency quantiles and the quarantine list.
    pub fn status_json(&self) -> String {
        let inner = &self.inner;
        let state = inner.state.lock().expect("serve state");
        let (queue_depth, active, draining) = (state.queue.len(), state.active, state.draining);
        drop(state);
        let counters: HashMap<String, u64> = inner.metrics.counters().into_iter().collect();
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        // `"key":count` pairs, in wire order.
        let field = |(key, name): &(&str, &str)| format!("\"{key}\":{}", count(name));
        let fields = |pairs: &[(&str, &str)]| pairs.iter().map(field).collect::<Vec<_>>().join(",");
        let served = count("serve.cache.hit") + count("serve.cache.disk_hit");
        let looked_up = served + count("serve.cache.miss");
        let hit_rate = served as f64 / looked_up.max(1) as f64;
        let resident = inner.cache.resident.lock().expect("cache");
        let (cache_entries, cache_bytes) = (resident.entries.len(), resident.bytes);
        drop(resident);
        let pills: Vec<String> = {
            let q = inner.quarantine.lock().expect("quarantine");
            q.map.keys().map(|h| format!("\"{h:016x}\"")).collect()
        };
        let histograms = inner.metrics.histograms();
        let phases = ["parse", "compile", "emit"].map(|phase| {
            let name = format!("serve.phase.{phase}_us");
            let (p50, p99, total) = histograms
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| (h.quantile(0.5), h.quantile(0.99), h.total))
                .unwrap_or((0, 0, 0));
            format!("\"{phase}\":{{\"p50_us\":{p50},\"p99_us\":{p99},\"count\":{total}}}")
        });
        format!(
            concat!(
                "{{\"workers\":{},\"queue_depth\":{},\"active\":{},\"draining\":{},",
                "\"requests\":{{{}}},\"faults\":{{{}}},",
                "\"cache\":{{\"entries\":{},\"bytes\":{},\"cap_bytes\":{},\"persistent\":{},",
                "{},\"hit_rate\":{:.3}}},",
                "\"dedup\":{{\"hits\":{}}},",
                "\"conns\":{{\"shed\":{},\"slow_frames\":{}}},",
                "\"quarantine\":[{}],\"quarantine_cap\":{},\"quarantine_evicted\":{},",
                "\"phase_us\":{{{}}}}}"
            ),
            self.workers.len(),
            queue_depth,
            active,
            draining,
            fields(&[("total", "serve.requests.total"), ("ok", "serve.ok")]),
            fields(&[
                ("malformed", "serve.fault.malformed"),
                ("frame_too_large", "serve.fault.frame_too_large"),
                ("compile", "serve.fault.compile"),
                ("budget", "serve.fault.budget"),
                ("panics", "serve.fault.panic"),
                ("quarantined", "serve.fault.quarantined"),
                ("overloaded", "serve.fault.overloaded"),
                ("draining", "serve.fault.draining"),
                ("timeouts", "serve.fault.timeout"),
            ]),
            cache_entries,
            cache_bytes,
            inner.config.cache_cap_bytes,
            inner.cache.disk.is_some(),
            fields(&[
                ("hits", "serve.cache.hit"),
                ("disk_hits", "serve.cache.disk_hit"),
                ("misses", "serve.cache.miss"),
                ("corrupt", "serve.cache.corrupt"),
                ("evicted", "serve.cache.evicted"),
                ("write_errors", "serve.cache.write_errors"),
            ]),
            hit_rate,
            count("serve.dedup.hit"),
            count("serve.conn.shed"),
            count("serve.conn.slow_frame"),
            pills.join(","),
            inner.config.quarantine_cap,
            count("serve.quarantine.evicted"),
            phases.join(",")
        )
    }

    /// Stops admitting work and blocks until every admitted job has
    /// been answered. Coalesced waiters ride their flight's job, so an
    /// empty queue with no active workers means no flight is pending
    /// either. Idempotent.
    pub fn drain(&self) {
        let inner = &self.inner;
        let mut state = inner.state.lock().expect("serve state");
        state.draining = true;
        inner.job_ready.notify_all();
        let busy = |s: &mut QueueState| !s.queue.is_empty() || s.active > 0;
        let _idle = inner.job_done.wait_while(state, busy).expect("serve state");
    }

    /// Drains (if not already drained) and joins the worker pool.
    pub fn join(mut self) {
        self.drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let state = inner.state.lock().expect("serve state");
        let idle = |s: &mut QueueState| s.queue.is_empty() && !s.draining;
        let mut state = inner
            .job_ready
            .wait_while(state, idle)
            .expect("serve state");
        let Some(job) = state.queue.pop_front() else {
            return; // draining, and nothing left to run
        };
        state.active += 1;
        drop(state);
        run_job(inner, job);
        let mut state = inner.state.lock().expect("serve state");
        state.active -= 1;
        inner.job_done.notify_all();
    }
}

/// Executes one job inside its fault cell and answers every member of
/// its flight with the one outcome.
fn run_job(inner: &Inner, (req, hash): (CompileRequest, u64)) {
    // Pickup, under the flight lock so joins cannot race it: members
    // whose deadline lapsed while queued get `AN0709` now; the compile
    // proceeds for whichever members still have slack, under the
    // group's most generous deadline.
    let deadline = {
        let mut inflight = inner.inflight.lock().expect("inflight");
        let Some(flight) = inflight.get_mut(&hash) else {
            return;
        };
        let now = Instant::now();
        let (expired, live): (Vec<Member>, Vec<Member>) = flight
            .drain(..)
            .partition(|m| m.deadline.is_some_and(|d| now >= d));
        for m in &expired {
            let waited = m.enqueued_at.elapsed().as_millis();
            let message = format!("deadline expired after {waited}ms in queue");
            let outcome = Outcome::Fault(ServeCode::Timeout, message, None);
            inner.answer(&m.reply, &m.id, m.coalesced, &outcome);
        }
        if live.is_empty() {
            inflight.remove(&hash);
            return;
        }
        // `None` — no deadline — as soon as one member has none.
        let deadline = live
            .iter()
            .try_fold(None, |max, m| m.deadline.map(|d| max.max(Some(d))));
        *flight = live;
        deadline.flatten()
    };

    let started = Instant::now();
    // The fault cell: everything that can panic runs under
    // catch_unwind. The worker owns the request outright, and the only
    // shared state the cell writes is the metrics registry, whose
    // updates an unwind cannot tear — AssertUnwindSafe is sound here.
    let outcome = match catch_unwind(AssertUnwindSafe(|| compile_cell(inner, &req, deadline))) {
        Ok(Ok(artifacts)) => {
            let artifacts: Artifacts = Arc::new(artifacts);
            // Committed before the flight is removed (see `admit`).
            inner.cache.put(hash, &artifacts, &inner.metrics);
            Outcome::Done(artifacts, Some(started.elapsed().as_micros() as u64))
        }
        Ok(Err((code, message))) => Outcome::Fault(code, message, None),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            let message =
                format!("request panicked in its fault cell ({msg}); hash {hash:016x} quarantined");
            // Quarantined before the flight is removed (see `admit`).
            QuarantineMap::insert(&inner.quarantine, hash, msg, &inner.metrics);
            Outcome::Fault(ServeCode::Panicked, message, None)
        }
    };
    // A panicking leader must still wake its followers: every flight
    // member gets the leader's outcome, never a hang.
    let members = inner.inflight.lock().expect("inflight").remove(&hash);
    for m in members.unwrap_or_default() {
        inner.answer(&m.reply, &m.id, m.coalesced, &outcome);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("non-string panic payload").to_string()
}

/// Remaining milliseconds before `deadline`, as a driver budget value.
/// Returns an error when the deadline has already passed (cooperative
/// cancellation at a phase boundary).
fn remaining_ms(deadline: Option<Instant>) -> Result<Option<u64>, (ServeCode, String)> {
    let Some(left) = deadline.map(|d| d.saturating_duration_since(Instant::now())) else {
        return Ok(None);
    };
    if left.is_zero() {
        let why = "deadline budget exhausted at a phase boundary".to_string();
        return Err((ServeCode::BudgetExceeded, why));
    }
    Ok(Some(left.as_millis().max(1) as u64))
}

/// The body of the fault cell: parse → compile → emit with cooperative
/// deadline checks between phases. Returns rendered artifacts or a
/// `(code, message)` protocol error.
fn compile_cell(
    inner: &Inner,
    req: &CompileRequest,
    deadline: Option<Instant>,
) -> Result<Vec<(Emit, String)>, (ServeCode, String)> {
    match req.chaos {
        Some(Chaos::Panic) => panic!("chaos: injected panic"),
        Some(Chaos::SleepMs(ms)) => thread::sleep(Duration::from_millis(ms)),
        Some(Chaos::SleepPanic(ms)) => {
            thread::sleep(Duration::from_millis(ms));
            panic!("chaos: injected panic after {ms}ms sleep");
        }
        None => {}
    }

    let mut opts = req.to_options(None);
    let observe = |histogram: &str, t: Instant| {
        inner
            .metrics
            .observe(histogram, t.elapsed().as_micros() as u64);
    };

    // Phase: parse (+ pre-normalization).
    let t = Instant::now();
    opts.budget.deadline_ms = remaining_ms(deadline)?;
    let (program, _lint) = an_driver::parse_normalized(&req.source, &opts).map_err(driver_error)?;
    observe("serve.phase.parse_us", t);

    // Parameter bindings are validated even though emission uses the
    // program's own defaults — a bad binding is a client error worth
    // rejecting before burning compile time.
    let bindings: Vec<(&str, i64)> = req.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    program
        .bind_params(&bindings)
        .map_err(|e| (ServeCode::CompileFailed, format!("bad params: {e}")))?;

    // Phase: compile.
    let t = Instant::now();
    opts.budget.deadline_ms = remaining_ms(deadline)?;
    let compiled = an_driver::compile_program(&program, &opts).map_err(driver_error)?;
    observe("serve.phase.compile_us", t);

    // Phase: emit.
    let t = Instant::now();
    remaining_ms(deadline)?;
    let defaults = compiled.program.default_param_values();
    let artifacts = req.emit.iter().map(|&kind| {
        let text = match kind {
            Emit::Ir => an_ir::pretty::print_program(&compiled.program),
            Emit::Transform => compiled.normalized.transform.to_string(),
            Emit::Transformed => an_ir::pretty::print_nest(&compiled.transformed.program),
            Emit::Spmd => an_codegen::emit::emit_spmd(&compiled.spmd),
            Emit::C => an_codegen::emit_c::emit_c(&compiled.transformed.program, &defaults, 42),
            Emit::Ownership => an_codegen::ownership::emit_ownership(
                &an_codegen::ownership::generate_ownership(&compiled.program),
            ),
        };
        (kind, text)
    });
    let artifacts = artifacts.collect();
    observe("serve.phase.emit_us", t);
    Ok(artifacts)
}

fn driver_error(e: DriverError) -> (ServeCode, String) {
    match e {
        DriverError::Budget(b) => (ServeCode::BudgetExceeded, b.to_string()),
        other => (ServeCode::CompileFailed, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const KERNEL: &str = "param N = 8;\n\
        array A[N, N] distribute wrapped(0);\n\
        for i = 0, N - 1 { for j = 0, N - 1 { A[i, j] = A[i, j] + 1; } }\n";

    fn frame(id: u64, source: &str, extra: &str) -> String {
        format!(
            "{{\"id\":{id},\"verb\":\"compile\",\"source\":\"{}\"{extra}}}",
            an_diag::escape_json(source)
        )
    }

    fn tiny_server() -> Server {
        Server::start(ServeConfig {
            workers: 2,
            queue_capacity: 8,
            default_deadline_ms: Some(5_000),
            ..ServeConfig::default()
        })
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "an-serve-core-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const WAIT: Duration = Duration::from_secs(30);

    #[test]
    fn compiles_and_caches() {
        let server = tiny_server();
        let cold = server.request_sync(&frame(1, KERNEL, ""), WAIT);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(cold.contains("\"cached\":false"), "{cold}");
        assert!(cold.contains("\"spmd\":\""), "{cold}");
        let warm = server.request_sync(&frame(2, KERNEL, ""), WAIT);
        assert!(warm.contains("\"cached\":true"), "{warm}");
        // Artifacts identical modulo the id / cached / timing fields.
        let get = |s: &str| {
            let v = crate::json::parse(s).unwrap();
            v.get("artifacts")
                .unwrap()
                .get("spmd")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(get(&cold), get(&warm));
        assert_eq!(server.metrics().counter("serve.cache.hit"), 1);
        server.join();
    }

    #[test]
    fn panic_is_contained_and_quarantined() {
        let server = tiny_server();
        let pill = frame(1, KERNEL, ",\"chaos\":\"panic\"");
        let first = server.request_sync(&pill, WAIT);
        assert!(first.contains("AN0705"), "{first}");
        assert!(first.contains("chaos: injected panic"), "{first}");
        let second = server.request_sync(&pill, WAIT);
        assert!(second.contains("AN0706"), "{second}");
        // The worker pool survived: a good request still compiles.
        let good = server.request_sync(&frame(3, KERNEL, ""), WAIT);
        assert!(good.contains("\"ok\":true"), "{good}");
        let status = server.request_sync("{\"id\":4,\"verb\":\"status\"}", WAIT);
        assert!(status.contains("\"quarantine\":[\""), "{status}");
        assert!(status.contains("\"panics\":1"), "{status}");
        server.join();
    }

    #[test]
    fn unpriceable_source_still_returns_artifacts() {
        // `A[i64::MAX * i, j]` compiles but cannot be priced; the
        // daemon serves artifacts and never prices them, so it neither
        // fails nor quarantines the source.
        let source = "param N = 8; array A[N, N] distribute wrapped(0);\n\
            for i = 1, N - 1 { for j = 1, N - 1 {\n\
              A[i, j] = A[i - 1, j] + A[i, j - 1] + A[9223372036854775807 * i, j];\n\
            } }\n";
        let server = tiny_server();
        let cold = server.request_sync(&frame(1, source, ""), WAIT);
        let warm = server.request_sync(&frame(2, source, ""), WAIT);
        for r in [&cold, &warm] {
            assert!(
                r.contains("\"ok\":true") && r.contains("\"spmd\":\""),
                "{r}"
            );
            assert!(!r.contains("AN0705") && !r.contains("AN0706"), "{r}");
        }
        assert!(cold.contains("\"cached\":false"), "{cold}");
        assert!(warm.contains("\"cached\":true"), "{warm}");
        server.join();
    }

    #[test]
    fn compile_errors_are_an0703_and_not_cached() {
        let server = tiny_server();
        let bad = frame(1, "for i = 0, { garbage", "");
        let r = server.request_sync(&bad, WAIT);
        assert!(r.contains("AN0703"), "{r}");
        let r2 = server.request_sync(&bad, WAIT);
        assert!(r2.contains("AN0703"), "{r2}");
        assert_eq!(server.metrics().counter("serve.cache.hit"), 0);
        server.join();
    }

    #[test]
    fn deadline_zero_is_budget_exceeded() {
        let server = tiny_server();
        let r = server.request_sync(
            &frame(
                1,
                KERNEL,
                ",\"options\":{\"deadline_ms\":0},\"chaos\":\"sleep:10\"",
            ),
            WAIT,
        );
        assert!(r.contains("AN0704") || r.contains("AN0709"), "{r}");
        server.join();
    }

    #[test]
    fn overload_sheds_with_jittered_retry_hint() {
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            default_deadline_ms: Some(10_000),
            retry_after_ms: 25,
            ..ServeConfig::default()
        });
        // Occupy the single worker with a sleeper, fill the queue with
        // a second, then watch the third get shed.
        let (tx, rx) = mpsc::channel();
        server.submit(&frame(1, KERNEL, ",\"chaos\":\"sleep:400\""), &tx);
        thread::sleep(Duration::from_millis(100)); // let the worker pick it up
        server.submit(&frame(2, "param M = 2;", ",\"chaos\":\"sleep:100\""), &tx);
        let shed = server.request_sync(&frame(3, "param Q = 3;", ""), WAIT);
        assert!(shed.contains("AN0707"), "{shed}");
        let hint = crate::json::parse(&shed)
            .unwrap()
            .get("retry_after_ms")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(
            (25..50).contains(&hint),
            "hint {hint} outside [base, 2*base)"
        );
        assert_eq!(server.health_word(), "overloaded");
        // Both admitted jobs still complete.
        let a = rx.recv_timeout(WAIT).unwrap();
        let b = rx.recv_timeout(WAIT).unwrap();
        assert!(
            a.contains("\"id\":1") || b.contains("\"id\":1"),
            "{a} / {b}"
        );
        server.join();
    }

    #[test]
    fn retry_hints_are_seed_deterministic() {
        let mk = |seed| {
            Server::start(ServeConfig {
                workers: 1,
                retry_after_ms: 40,
                retry_jitter_seed: seed,
                ..ServeConfig::default()
            })
        };
        let (a, b, c) = (mk(7), mk(7), mk(8));
        let seq = |s: &Server| (0..16).map(|_| s.retry_hint()).collect::<Vec<_>>();
        let (sa, sb, sc) = (seq(&a), seq(&b), seq(&c));
        assert!(sa.iter().all(|h| (40..80).contains(h)), "{sa:?}");
        assert_eq!(sa, sb, "same seed must give the same hint stream");
        assert_ne!(sa, sc, "different seeds should decorrelate");
        a.join();
        b.join();
        c.join();
    }

    #[test]
    fn identical_burst_coalesces_to_one_compile() {
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        });
        // The sleeper holds the single worker long enough for the rest
        // of the burst to pile onto its flight.
        let burst = 4;
        let (tx, rx) = mpsc::channel();
        for i in 0..burst {
            server.submit(&frame(i, KERNEL, ",\"chaos\":\"sleep:300\""), &tx);
            if i == 0 {
                thread::sleep(Duration::from_millis(50)); // leader reaches the worker
            }
        }
        let responses: Vec<String> = (0..burst).map(|_| rx.recv_timeout(WAIT).unwrap()).collect();
        let coalesced = responses
            .iter()
            .filter(|r| r.contains("\"coalesced\":true"))
            .count();
        assert_eq!(coalesced as u64, burst - 1, "{responses:?}");
        for r in &responses {
            assert!(r.contains("\"ok\":true"), "{r}");
            assert!(r.contains("\"cached\":false"), "{r}");
        }
        assert_eq!(server.metrics().counter("serve.dedup.hit"), burst - 1);
        assert_eq!(server.metrics().counter("serve.cache.miss"), 1);
        assert_eq!(server.metrics().counter("serve.ok"), burst);
        server.join();
    }

    #[test]
    fn panicking_leader_wakes_all_followers() {
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        server.submit(&frame(0, KERNEL, ",\"chaos\":\"sleep-panic:200\""), &tx);
        thread::sleep(Duration::from_millis(50));
        for i in 1..3 {
            server.submit(&frame(i, KERNEL, ",\"chaos\":\"sleep-panic:200\""), &tx);
        }
        for _ in 0..3 {
            let r = rx.recv_timeout(WAIT).unwrap();
            assert!(r.contains("AN0705"), "follower must see the panic: {r}");
        }
        // The hash is quarantined for everyone afterwards.
        let again = server.request_sync(&frame(9, KERNEL, ",\"chaos\":\"sleep-panic:200\""), WAIT);
        assert!(again.contains("AN0706"), "{again}");
        // One flight, compiled once and never again: three `AN0705`
        // answers from it, and the repeat fast-failed without a flight.
        assert_eq!(server.metrics().counter("serve.cache.miss"), 1);
        assert_eq!(server.metrics().counter("serve.fault.panic"), 3);
        assert_eq!(server.metrics().counter("serve.fault.quarantined"), 1);
        server.join();
    }

    #[test]
    fn status_accounts_for_every_answer() {
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        let mut answers = vec![
            server.request_sync("{\"id\":1,\"verb\":\"ping\"}", WAIT),
            server.request_sync("not even json", WAIT),
            server.request_sync(&frame(2, KERNEL, ""), WAIT),
            server.request_sync(&frame(3, KERNEL, ""), WAIT),
            server.request_sync(&frame(4, KERNEL, ""), WAIT),
        ];
        // A coalesced burst holds the one worker while a second sleeper
        // fills the one queue slot, so a third compile is shed.
        let (tx, rx) = mpsc::channel();
        let kernel = |n: u32| KERNEL.replacen("N = 8", &format!("N = {n}"), 1);
        let burst = frame(5, &kernel(5), ",\"chaos\":\"sleep:300\"");
        server.submit(&burst, &tx);
        thread::sleep(Duration::from_millis(100)); // the leader reaches the worker
        server.submit(&burst, &tx);
        server.submit(&burst, &tx);
        server.submit(&frame(6, &kernel(6), ",\"chaos\":\"sleep:100\""), &tx);
        let shed = server.request_sync(&frame(7, &kernel(7), ""), WAIT);
        assert!(shed.contains("AN0707"), "{shed}");
        answers.push(shed);
        answers.extend((0..4).map(|_| rx.recv_timeout(WAIT).unwrap()));
        let pill = frame(8, KERNEL, ",\"chaos\":\"panic\"");
        answers.push(server.request_sync(&pill, WAIT));
        answers.push(server.request_sync(&pill, WAIT));
        answers.push(server.request_sync("{\"id\":9,\"verb\":\"health\"}", WAIT));
        answers.push(server.request_sync("{\"id\":10,\"verb\":\"status\"}", WAIT));

        let ok = answers.iter().filter(|a| a.contains("\"ok\":true")).count() as u64;
        let status = crate::json::parse(answers.last().unwrap()).unwrap();
        let status = status.get("status").unwrap();
        let requests = status.get("requests").unwrap();
        let number = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(number(requests, "ok"), ok, "{status}");
        let faults = status.get("faults").unwrap();
        let faults: u64 = faults
            .as_obj()
            .unwrap()
            .values()
            .filter_map(Json::as_u64)
            .sum();
        assert_eq!(number(requests, "total"), ok + faults, "{status}");
        assert_eq!(number(requests, "total"), answers.len() as u64, "{status}");
        server.join();
    }

    #[test]
    fn expired_leader_does_not_fail_waiters_with_slack() {
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        // Block the only worker so the flight below sits queued past
        // the leader's deadline.
        server.submit(&frame(0, "param B = 2;", ",\"chaos\":\"sleep:400\""), &tx);
        thread::sleep(Duration::from_millis(50));
        // Leader: 100ms deadline (will lapse in queue). Waiter: same
        // content hash (deadline_ms is not hashed), generous deadline.
        let (ltx, lrx) = mpsc::channel();
        let (wtx, wrx) = mpsc::channel();
        server.submit(
            &frame(1, KERNEL, ",\"options\":{\"deadline_ms\":100}"),
            &ltx,
        );
        server.submit(
            &frame(2, KERNEL, ",\"options\":{\"deadline_ms\":30000}"),
            &wtx,
        );
        let leader = lrx.recv_timeout(WAIT).unwrap();
        let waiter = wrx.recv_timeout(WAIT).unwrap();
        assert!(
            leader.contains("AN0709"),
            "leader should time out: {leader}"
        );
        assert!(waiter.contains("\"ok\":true"), "waiter had slack: {waiter}");
        assert!(waiter.contains("\"coalesced\":true"), "{waiter}");
        rx.recv_timeout(WAIT).unwrap(); // the blocker
        server.join();
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_coalesced_flights() {
        let server = tiny_server();
        let (tx, rx) = mpsc::channel();
        server.submit(&frame(1, KERNEL, ",\"chaos\":\"sleep:150\""), &tx);
        thread::sleep(Duration::from_millis(30));
        // A duplicate coalesces onto the in-flight job...
        server.submit(&frame(5, KERNEL, ",\"chaos\":\"sleep:150\""), &tx);
        let outcome = server.submit("{\"id\":2,\"verb\":\"shutdown\"}", &tx);
        assert_eq!(outcome, Submit::Shutdown);
        // ...and even during the drain window a second duplicate may
        // still ride it, while fresh work is refused.
        let refused = server.request_sync(&frame(3, "param Z = 1;", ""), WAIT);
        assert!(refused.contains("AN0708"), "{refused}");
        server.join();
        let mut got = Vec::new();
        while let Ok(r) = rx.try_recv() {
            got.push(r);
        }
        for id in ["\"id\":1", "\"id\":5"] {
            assert!(
                got.iter()
                    .any(|r| r.contains(id) && r.contains("\"ok\":true")),
                "{id}: {got:?}"
            );
        }
        assert!(
            got.iter().any(|r| r.contains("\"draining\":true")),
            "{got:?}"
        );
    }

    #[test]
    fn status_and_health_render_json() {
        let server = tiny_server();
        let health = server.request_sync("{\"id\":1,\"verb\":\"health\"}", WAIT);
        assert!(health.contains("\"health\":\"ok\""), "{health}");
        assert!(health.contains("\"quarantine_cap\":256"), "{health}");
        assert!(health.contains("\"persistent\":false"), "{health}");
        server.request_sync(&frame(2, KERNEL, ""), WAIT);
        let status = server.request_sync("{\"id\":3,\"verb\":\"status\"}", WAIT);
        let v = crate::json::parse(&status).expect(&status);
        let s = v.get("status").unwrap();
        assert_eq!(s.get("workers").unwrap().as_u64(), Some(2));
        assert!(
            s.get("phase_us").unwrap().get("compile").is_some(),
            "{status}"
        );
        let cache = s.get("cache").unwrap();
        assert!(cache.get("hit_rate").is_some(), "{status}");
        assert_eq!(cache.get("persistent").unwrap().as_bool(), Some(false));
        assert_eq!(
            s.get("dedup").unwrap().get("hits").unwrap().as_u64(),
            Some(0)
        );
        server.join();
    }

    fn persistent_config(dir: &Path) -> ServeConfig {
        ServeConfig {
            workers: 2,
            cache_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn artifacts_survive_restart_via_disk_tier() {
        let dir = scratch_dir("restart");
        let first = Server::start(persistent_config(&dir));
        let cold = first.request_sync(&frame(1, KERNEL, ""), WAIT);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        first.join();

        let second = Server::start(persistent_config(&dir));
        let warm = second.request_sync(&frame(2, KERNEL, ""), WAIT);
        assert!(warm.contains("\"cached\":true"), "{warm}");
        assert_eq!(second.metrics().counter("serve.cache.disk_hit"), 1);
        let get = |s: &str| {
            let v = crate::json::parse(s).unwrap();
            v.get("artifacts").unwrap().to_string()
        };
        assert_eq!(get(&cold), get(&warm), "disk tier must be bitwise faithful");
        second.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_counted_deleted_and_recompiled() {
        let dir = scratch_dir("corrupt");
        let first = Server::start(persistent_config(&dir));
        let cold = first.request_sync(&frame(1, KERNEL, ""), WAIT);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        first.join();

        // Flip one payload byte in the single artifact entry.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "anc"))
            .expect("one .anc entry");
        let mut bytes = std::fs::read(&entry).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&entry, &bytes).unwrap();

        let second = Server::start(persistent_config(&dir));
        let r = second.request_sync(&frame(2, KERNEL, ""), WAIT);
        // Never served corrupt: the response is a fresh, uncached
        // compile, and the entry file was deleted before recompiling
        // rewrote it.
        assert!(r.contains("\"ok\":true"), "{r}");
        assert!(r.contains("\"cached\":false"), "{r}");
        assert_eq!(second.metrics().counter("serve.cache.corrupt"), 1);
        let status = second.request_sync("{\"id\":3,\"verb\":\"status\"}", WAIT);
        assert!(status.contains("\"corrupt\":1"), "{status}");
        second.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_survives_restart_and_respects_cap() {
        let dir = scratch_dir("qcap");
        let config = ServeConfig {
            workers: 1,
            quarantine_cap: 2,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let first = Server::start(config.clone());
        for (i, src) in ["param A = 1;", "param B = 2;", "param C = 3;"]
            .iter()
            .enumerate()
        {
            let r = first.request_sync(&frame(i as u64, src, ",\"chaos\":\"panic\""), WAIT);
            assert!(r.contains("AN0705"), "{r}");
        }
        // Cap 2: the oldest pill was evicted from memory and disk.
        assert_eq!(first.metrics().counter("serve.quarantine.evicted"), 1);
        let health = first.request_sync("{\"id\":9,\"verb\":\"health\"}", WAIT);
        assert!(health.contains("\"quarantine_entries\":2"), "{health}");
        assert!(health.contains("\"quarantine_cap\":2"), "{health}");
        first.join();

        // The two resident pills persisted: a restarted daemon
        // fast-fails them without ever compiling.
        let second = Server::start(config);
        let r = second.request_sync(&frame(9, "param C = 3;", ",\"chaos\":\"panic\""), WAIT);
        assert!(r.contains("AN0706"), "quarantine must survive restart: {r}");
        // The evicted one compiles (and panics) afresh.
        let r = second.request_sync(&frame(10, "param A = 1;", ",\"chaos\":\"panic\""), WAIT);
        assert!(r.contains("AN0705"), "{r}");
        second.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_cap_evicts_cold_entries_but_keeps_disk_tier() {
        let dir = scratch_dir("lru");
        let server = Server::start(ServeConfig {
            workers: 1,
            cache_cap_bytes: 600,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        // Multi-emit artifacts comfortably exceed the 600-byte budget,
        // so every insert displaces its predecessor.
        let sources: Vec<String> = [4, 5, 6]
            .iter()
            .map(|n| KERNEL.replacen("N = 8", &format!("N = {n}"), 1))
            .collect();
        for (i, src) in sources.iter().enumerate() {
            let r = server.request_sync(
                &frame(
                    i as u64,
                    src,
                    ",\"emit\":[\"spmd\",\"c\",\"ir\",\"transformed\"]",
                ),
                WAIT,
            );
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        assert!(
            server.metrics().counter("serve.cache.evicted") >= 1,
            "cap 600 must have evicted something"
        );
        let status = server.request_sync("{\"id\":7,\"verb\":\"status\"}", WAIT);
        let v = crate::json::parse(&status).unwrap();
        let cache = v.get("status").unwrap().get("cache").unwrap();
        // A single entry over the whole budget is deliberately kept
        // (anti-thrash); otherwise the budget holds.
        assert!(
            cache.get("bytes").unwrap().as_u64().unwrap() <= 600
                || cache.get("entries").unwrap().as_u64() == Some(1),
            "{status}"
        );
        assert_eq!(cache.get("cap_bytes").unwrap().as_u64(), Some(600));
        // An evicted entry comes back from disk, not a recompile (the
        // emit list is part of the content hash, so it must match).
        let r = server.request_sync(
            &frame(
                8,
                &sources[0],
                ",\"emit\":[\"spmd\",\"c\",\"ir\",\"transformed\"]",
            ),
            WAIT,
        );
        assert!(r.contains("\"cached\":true"), "{r}");
        assert!(server.metrics().counter("serve.cache.disk_hit") >= 1);
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Feeds `server` 1 000 distinct one-statement kernels, checks the
    /// resident tier held its budget, and returns how the first kernel
    /// is answered afterwards.
    fn first_kernel_after_a_thousand(server: &Server) -> String {
        let source = |n: u64| {
            format!(
                "param N = {};\narray A[N];\nfor i = 0, N - 1 {{ A[i] = A[i] + 1; }}\n",
                n + 2
            )
        };
        for n in 0..1000 {
            let r = server.request_sync(&frame(n, &source(n), ""), WAIT);
            assert!(r.contains("\"cached\":false"), "{r}");
        }
        let status = server.request_sync("{\"id\":0,\"verb\":\"status\"}", WAIT);
        let v = crate::json::parse(&status).unwrap();
        let cache = v.get("status").unwrap().get("cache").unwrap();
        let field = |name| cache.get(name).unwrap().as_u64();
        let cap = field("cap_bytes").expect("cap_bytes is a number");
        assert_eq!(cap, server.config().cache_cap_bytes, "{status}");
        assert!(field("bytes").unwrap() <= cap, "{status}");
        assert!(field("evicted").unwrap() > 0, "{status}");
        server.request_sync(&frame(1000, &source(0), ""), WAIT)
    }

    #[test]
    fn default_cap_bounds_the_resident_tier() {
        // No disk tier: what the budget evicts is forgotten.
        let server = Server::start(ServeConfig::default());
        let again = first_kernel_after_a_thousand(&server);
        assert!(again.contains("\"cached\":false"), "{again}");
        server.join();

        // With one, eviction only demoted it.
        let dir = scratch_dir("defaultcap");
        let server = Server::start(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let again = first_kernel_after_a_thousand(&server);
        assert!(again.contains("\"cached\":true"), "{again}");
        assert_eq!(server.metrics().counter("serve.cache.disk_hit"), 1);
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
