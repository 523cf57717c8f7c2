//! The daemon core: admission control, a bounded worker pool,
//! per-request fault cells, a two-tier (memory + disk) commit-on-success
//! artifact cache, in-flight request coalescing, and a poison-pill
//! quarantine.
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
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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

/// One queued compile; who gets the answer lives in the flight table.
struct Job {
    req: CompileRequest,
    hash: u64,
}

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

/// The singleflight group for one content hash: every requester whose
/// identical request is riding the one queued compile.
struct Flight {
    members: Vec<Member>,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    active: usize,
    draining: bool,
}

/// Resident artifact cache with LRU byte-budget eviction.
#[derive(Default)]
struct CacheMap {
    entries: HashMap<u64, CacheEntry>,
    bytes: u64,
    tick: u64,
}

struct CacheEntry {
    artifacts: Artifacts,
    bytes: u64,
    last_used: u64,
}

fn entry_bytes(artifacts: &[(Emit, String)]) -> u64 {
    artifacts
        .iter()
        .map(|(k, t)| k.as_str().len() + t.len() + 48)
        .sum::<usize>() as u64
}

impl CacheMap {
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
    fn insert(&mut self, hash: u64, artifacts: Artifacts, cap: u64, metrics: &Metrics) {
        let bytes = entry_bytes(&artifacts);
        self.tick += 1;
        let entry = CacheEntry {
            artifacts,
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(hash, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.bytes > cap && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&h, _)| h)
                .expect("non-empty cache");
            let evicted = self.entries.remove(&victim).expect("victim present");
            self.bytes -= evicted.bytes;
            metrics.inc("serve.cache.evicted");
        }
    }
}

/// Quarantine with FIFO cap: insertion order is retirement order, so
/// the pills most likely to recur (recent ones) stay resident.
#[derive(Default)]
struct QuarantineMap {
    map: BTreeMap<u64, String>,
    order: VecDeque<u64>,
}

impl QuarantineMap {
    fn get(&self, hash: u64) -> Option<&String> {
        self.map.get(&hash)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Inserts one quarantine record and enforces the cap, removing the
    /// oldest records from memory *and* the disk store. Persisting the
    /// new record is the caller's job (startup loads records that are
    /// already on disk).
    fn insert(
        &mut self,
        hash: u64,
        message: String,
        cap: usize,
        store: Option<&CacheStore>,
        metrics: &Metrics,
    ) {
        if self.map.insert(hash, message).is_none() {
            self.order.push_back(hash);
        }
        while self.map.len() > cap.max(1) {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.map.remove(&oldest).is_some() {
                if let Some(store) = store {
                    store.remove_quarantine(oldest);
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
    /// Resident tier of the artifact cache. Commit-on-success only.
    cache: Mutex<CacheMap>,
    /// Content hash → in-flight singleflight group. Lock order where
    /// nesting is needed: `inflight` → (`cache` | `quarantine` |
    /// `state`); nothing acquires `inflight` while holding the others.
    inflight: Mutex<HashMap<u64, Flight>>,
    /// Content hash → first panic message. A hash listed here is
    /// fast-failed without compiling.
    quarantine: Mutex<QuarantineMap>,
    /// Durable tier of the artifact cache and quarantine, when
    /// configured.
    store: Option<CacheStore>,
    /// Monotone sequence for the retry-hint jitter stream.
    jitter_seq: AtomicU64,
    metrics: Metrics,
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
        let store = config
            .cache_dir
            .as_ref()
            .and_then(|dir| match CacheStore::open(dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!(
                        "anc serve: cache dir {} unusable ({e}); persistence disabled",
                        dir.display()
                    );
                    None
                }
            });
        let mut quarantine = QuarantineMap::default();
        if let Some(store) = &store {
            let (records, corrupt) = store.load_all_quarantine();
            if corrupt > 0 {
                metrics.add("serve.cache.corrupt", corrupt);
            }
            for (hash, msg) in records {
                quarantine.insert(hash, msg, config.quarantine_cap, Some(store), &metrics);
            }
        }
        let inner = Arc::new(Inner {
            jitter_seq: AtomicU64::new(0),
            state: Mutex::new(QueueState::default()),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            cache: Mutex::new(CacheMap::default()),
            inflight: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(quarantine),
            store,
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

    /// Handles one protocol frame. Immediate verbs (`status`, `health`,
    /// `ping`, malformed frames, shed compiles) are answered through
    /// `reply` before this returns; admitted compiles are answered
    /// later by a worker. The send can only fail if the client is gone,
    /// which the daemon treats as the client's problem, not its own.
    pub fn submit(&self, line: &str, reply: &Sender<String>) -> Submit {
        let inner = &self.inner;
        inner.metrics.inc("serve.requests.total");
        let request = match parse_request(line, inner.config.max_frame_bytes) {
            Ok(r) => r,
            Err(e) => {
                inner.metrics.inc(match e.code {
                    ServeCode::FrameTooLarge => "serve.fault.frame_too_large",
                    _ => "serve.fault.malformed",
                });
                let _ = reply.send(render_error(&e.id, e.code, &e.message, None));
                return Submit::Handled;
            }
        };
        match request.verb {
            Verb::Ping => {
                let _ = reply.send(render_ok_payload(&request.id, "\"pong\":true"));
                Submit::Handled
            }
            Verb::Health => {
                let _ = reply.send(render_ok_payload(&request.id, &self.health_payload()));
                Submit::Handled
            }
            Verb::Status => {
                let _ = reply.send(render_ok_payload(
                    &request.id,
                    &format!("\"status\":{}", self.status_json()),
                ));
                Submit::Handled
            }
            Verb::Shutdown => {
                {
                    let mut state = inner.state.lock().expect("serve state");
                    state.draining = true;
                    inner.job_ready.notify_all();
                }
                let _ = reply.send(render_ok_payload(&request.id, "\"draining\":true"));
                Submit::Shutdown
            }
            Verb::Compile(req) => {
                self.admit(request.id, req, reply);
                Submit::Handled
            }
        }
    }

    /// Admission control for one compile request: quarantine fast-fail,
    /// then resident cache, then disk tier, then singleflight join,
    /// then (as a flight leader) the bounded queue.
    fn admit(&self, id: Json, req: CompileRequest, reply: &Sender<String>) {
        let inner = &self.inner;
        let hash = req.content_hash();

        // Quarantined hashes fast-fail without consuming a queue slot.
        if let Some(msg) = inner.quarantine.lock().expect("quarantine").get(hash) {
            inner.metrics.inc("serve.fault.quarantined");
            let _ = reply.send(render_error(
                &id,
                ServeCode::Quarantined,
                &format!("source hash {hash:016x} is quarantined after a panic: {msg}"),
                None,
            ));
            return;
        }

        // Everything below holds the singleflight lock, so a finishing
        // leader (which commits to the cache *before* removing its
        // flight, under this same lock) cannot slip between our cache
        // check and our flight check — a miss here therefore either
        // finds a live flight to join or becomes the new leader;
        // duplicate compiles of a concurrent request are impossible.
        let mut inflight = inner.inflight.lock().expect("inflight");

        // Resident tier.
        if let Some(artifacts) = inner.cache.lock().expect("cache").touch(hash) {
            inner.metrics.inc("serve.cache.hit");
            let _ = reply.send(render_compile_ok(&id, true, false, &artifacts, 0));
            return;
        }

        // Disk tier: validated end to end before anything is served; a
        // corrupt entry was already deleted by the store and falls
        // through to a fresh compile.
        if let Some(store) = &inner.store {
            match store.load_artifacts(hash) {
                Loaded::Hit(arts) => {
                    let artifacts: Artifacts = Arc::new(arts);
                    inner.cache.lock().expect("cache").insert(
                        hash,
                        Arc::clone(&artifacts),
                        inner.config.cache_cap_bytes,
                        &inner.metrics,
                    );
                    inner.metrics.inc("serve.cache.disk_hit");
                    let _ = reply.send(render_compile_ok(&id, true, false, &artifacts, 0));
                    return;
                }
                Loaded::Corrupt(why) => {
                    inner.metrics.inc("serve.cache.corrupt");
                    eprintln!(
                        "anc serve: AN0710 cache entry {hash:016x} failed validation ({why}); \
                         deleted, recompiling"
                    );
                }
                Loaded::Miss => {}
            }
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
            flight.members.push(member);
            return;
        }

        // Flight-leader path: this is the one genuine cache miss of
        // the whole group (waiters are dedup hits, not misses). Claim
        // the queue slot.
        inner.metrics.inc("serve.cache.miss");
        let mut state = inner.state.lock().expect("serve state");
        if state.draining {
            inner.metrics.inc("serve.fault.draining");
            let _ = member.reply.send(render_error(
                &member.id,
                ServeCode::Draining,
                "daemon is draining; no new work admitted",
                None,
            ));
            return;
        }
        if state.queue.len() >= inner.config.queue_capacity {
            inner.metrics.inc("serve.fault.overloaded");
            let _ = member.reply.send(render_error(
                &member.id,
                ServeCode::Overloaded,
                &format!(
                    "queue full ({} queued, {} active); retry later",
                    state.queue.len(),
                    state.active
                ),
                Some(self.retry_hint()),
            ));
            return;
        }
        state.queue.push_back(Job { req, hash });
        inflight.insert(
            hash,
            Flight {
                members: vec![member],
            },
        );
        inner.job_ready.notify_one();
    }

    /// Submits one frame and waits for its single response. `timeout`
    /// is the frame-level hang guard: the call returns an `AN0709`
    /// response rather than blocking forever. Used by tests, the fuzz
    /// harness and the bench harness.
    pub fn request_sync(&self, line: &str, timeout: Duration) -> String {
        let (tx, rx): (Sender<String>, Receiver<String>) = mpsc::channel();
        self.submit(line, &tx);
        match rx.recv_timeout(timeout) {
            Ok(response) => response,
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => render_error(
                &Json::Null,
                ServeCode::Timeout,
                &format!("no response within {}ms", timeout.as_millis()),
                None,
            ),
        }
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
            self.inner.quarantine.lock().expect("quarantine").len(),
            self.inner.config.quarantine_cap,
            self.inner.store.is_some()
        )
    }

    /// The `status` payload as a JSON object: pool and queue state,
    /// request/fault counters, both cache tiers, coalescing statistics,
    /// latency quantiles and the quarantine list.
    pub fn status_json(&self) -> String {
        let inner = &self.inner;
        let (queue_depth, active, draining) = {
            let state = inner.state.lock().expect("serve state");
            (state.queue.len(), state.active, state.draining)
        };
        let m = &inner.metrics;
        let [total, ok, malformed, frame_too_large, compile, budget, panics, quarantined, overloaded, drain_refusals, timeouts, hits, disk_hits, misses, corrupt, evicted, write_errors, dedup_hits, quarantine_evicted, conns_shed, slow_frames, model_priced, model_errors] =
            m.counters_many([
                "serve.requests.total",
                "serve.ok",
                "serve.fault.malformed",
                "serve.fault.frame_too_large",
                "serve.fault.compile",
                "serve.fault.budget",
                "serve.fault.panic",
                "serve.fault.quarantined",
                "serve.fault.overloaded",
                "serve.fault.draining",
                "serve.fault.timeout",
                "serve.cache.hit",
                "serve.cache.disk_hit",
                "serve.cache.miss",
                "serve.cache.corrupt",
                "serve.cache.evicted",
                "serve.cache.write_errors",
                "serve.dedup.hit",
                "serve.quarantine.evicted",
                "serve.conn.shed",
                "serve.conn.slow_frame",
                "serve.model.priced",
                "serve.model.errors",
            ]);
        let served = hits + disk_hits;
        let hit_rate = if served + misses == 0 {
            0.0
        } else {
            served as f64 / (served + misses) as f64
        };
        let (cache_entries, cache_bytes) = {
            let cache = inner.cache.lock().expect("cache");
            (cache.entries.len(), cache.bytes)
        };
        let quarantine: Vec<String> = inner
            .quarantine
            .lock()
            .expect("quarantine")
            .map
            .keys()
            .map(|h| format!("\"{h:016x}\""))
            .collect();

        let mut phases = String::new();
        for (i, phase) in ["parse", "compile", "model", "emit"].iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            let name = format!("serve.phase.{phase}_us");
            let (p50, p99, total) = m
                .histograms()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| (h.quantile(0.5), h.quantile(0.99), h.total))
                .unwrap_or((0, 0, 0));
            phases.push_str(&format!(
                "\"{phase}\":{{\"p50_us\":{p50},\"p99_us\":{p99},\"count\":{total}}}"
            ));
        }

        format!(
            concat!(
                "{{\"workers\":{},\"queue_depth\":{},\"active\":{},\"draining\":{},",
                "\"requests\":{{\"total\":{},\"ok\":{}}},",
                "\"faults\":{{\"malformed\":{},\"frame_too_large\":{},\"compile\":{},",
                "\"budget\":{},\"panics\":{},\"quarantined\":{},\"overloaded\":{},",
                "\"draining\":{},\"timeouts\":{}}},",
                "\"cache\":{{\"entries\":{},\"bytes\":{},\"cap_bytes\":{},\"persistent\":{},",
                "\"hits\":{},\"disk_hits\":{},\"misses\":{},\"corrupt\":{},\"evicted\":{},",
                "\"write_errors\":{},\"hit_rate\":{:.3}}},",
                "\"dedup\":{{\"hits\":{}}},",
                "\"model\":{{\"priced\":{},\"errors\":{}}},",
                "\"conns\":{{\"shed\":{},\"slow_frames\":{}}},",
                "\"quarantine\":[{}],\"quarantine_cap\":{},\"quarantine_evicted\":{},",
                "\"phase_us\":{{{}}}}}"
            ),
            self.workers.len(),
            queue_depth,
            active,
            draining,
            total,
            ok,
            malformed,
            frame_too_large,
            compile,
            budget,
            panics,
            quarantined,
            overloaded,
            drain_refusals,
            timeouts,
            cache_entries,
            cache_bytes,
            inner.config.cache_cap_bytes,
            inner.store.is_some(),
            hits,
            disk_hits,
            misses,
            corrupt,
            evicted,
            write_errors,
            hit_rate,
            dedup_hits,
            model_priced,
            model_errors,
            conns_shed,
            slow_frames,
            quarantine.join(","),
            inner.config.quarantine_cap,
            quarantine_evicted,
            phases
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
        while !state.queue.is_empty() || state.active > 0 {
            state = inner.job_done.wait(state).expect("serve state");
        }
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
        let job = {
            let mut state = inner.state.lock().expect("serve state");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.active += 1;
                    break job;
                }
                if state.draining {
                    return;
                }
                state = inner.job_ready.wait(state).expect("serve state");
            }
        };
        run_job(inner, &job);
        let mut state = inner.state.lock().expect("serve state");
        state.active -= 1;
        inner.job_done.notify_all();
        drop(state);
    }
}

/// Removes the flight for `hash` and returns every member awaiting its
/// outcome.
fn remove_flight(inner: &Inner, hash: u64) -> Vec<Member> {
    inner
        .inflight
        .lock()
        .expect("inflight")
        .remove(&hash)
        .map(|f| f.members)
        .unwrap_or_default()
}

/// Executes one job inside its fault cell and sends exactly one
/// response to every member of its flight.
fn run_job(inner: &Arc<Inner>, job: &Job) {
    let hash = job.hash;

    // Pickup checks, under the flight lock so joins cannot race them:
    // defensive quarantine re-check, then per-member queued deadlines.
    // Members whose deadline lapsed while queued get `AN0709` now; the
    // compile proceeds for whichever members still have slack, under
    // the group's most generous deadline.
    let deadline = {
        let mut inflight = inner.inflight.lock().expect("inflight");
        let Some(flight) = inflight.get_mut(&hash) else {
            return;
        };

        if let Some(msg) = inner.quarantine.lock().expect("quarantine").get(hash) {
            let msg = msg.clone();
            let members = inflight.remove(&hash).expect("flight present").members;
            inner
                .metrics
                .add("serve.fault.quarantined", members.len() as u64);
            for m in &members {
                let _ = m.reply.send(render_error(
                    &m.id,
                    ServeCode::Quarantined,
                    &format!("source hash {hash:016x} is quarantined after a panic: {msg}"),
                    None,
                ));
            }
            return;
        }

        let now = Instant::now();
        let (expired, live): (Vec<Member>, Vec<Member>) = flight
            .members
            .drain(..)
            .partition(|m| m.deadline.is_some_and(|d| now >= d));
        for m in &expired {
            inner.metrics.inc("serve.fault.timeout");
            let _ = m.reply.send(render_error(
                &m.id,
                ServeCode::Timeout,
                &format!(
                    "deadline expired after {}ms in queue",
                    m.enqueued_at.elapsed().as_millis()
                ),
                None,
            ));
        }
        if live.is_empty() {
            inflight.remove(&hash);
            return;
        }
        let deadline = if live.iter().any(|m| m.deadline.is_none()) {
            None
        } else {
            live.iter().filter_map(|m| m.deadline).max()
        };
        flight.members = live;
        deadline
    };

    let started = Instant::now();
    // The fault cell: everything that can panic runs under
    // catch_unwind. The request data is moved in by value (clones), so
    // a mid-compile panic cannot leave shared state torn —
    // AssertUnwindSafe is sound here.
    let req = job.req.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| compile_cell(inner, &req, deadline)));

    match outcome {
        Ok(Ok(artifacts)) => {
            let artifacts: Artifacts = Arc::new(artifacts);
            // Commit to the cache *before* removing the flight: an
            // admit that finds neither (and would duplicate the
            // compile) is impossible because it checks both under the
            // flight lock.
            inner.cache.lock().expect("cache").insert(
                hash,
                Arc::clone(&artifacts),
                inner.config.cache_cap_bytes,
                &inner.metrics,
            );
            if let Some(store) = &inner.store {
                if store.store_artifacts(hash, &artifacts).is_err() {
                    inner.metrics.inc("serve.cache.write_errors");
                }
            }
            let compile_us = started.elapsed().as_micros() as u64;
            let members = remove_flight(inner, hash);
            inner.metrics.add("serve.ok", members.len() as u64);
            for m in &members {
                let _ = m.reply.send(render_compile_ok(
                    &m.id,
                    false,
                    m.coalesced,
                    &artifacts,
                    compile_us,
                ));
            }
        }
        Ok(Err((code, message))) => {
            let members = remove_flight(inner, hash);
            inner.metrics.add(
                match code {
                    ServeCode::BudgetExceeded => "serve.fault.budget",
                    ServeCode::Timeout => "serve.fault.timeout",
                    _ => "serve.fault.compile",
                },
                members.len() as u64,
            );
            for m in &members {
                let _ = m.reply.send(render_error(&m.id, code, &message, None));
            }
        }
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            inner.quarantine.lock().expect("quarantine").insert(
                hash,
                msg.clone(),
                inner.config.quarantine_cap,
                inner.store.as_ref(),
                &inner.metrics,
            );
            if let Some(store) = &inner.store {
                if store.store_quarantine(hash, &msg).is_err() {
                    inner.metrics.inc("serve.cache.write_errors");
                }
            }
            // A panicking leader must still wake its followers: every
            // flight member gets the structured AN0705, not a hang.
            let members = remove_flight(inner, hash);
            inner.metrics.add("serve.fault.panic", members.len() as u64);
            for m in &members {
                let _ = m.reply.send(render_error(
                    &m.id,
                    ServeCode::Panicked,
                    &format!(
                        "request panicked in its fault cell ({msg}); hash {hash:016x} quarantined"
                    ),
                    None,
                ));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Remaining milliseconds before `deadline`, as a driver budget value.
/// Returns an error when the deadline has already passed (cooperative
/// cancellation at a phase boundary).
fn remaining_ms(deadline: Option<Instant>) -> Result<Option<u64>, (ServeCode, String)> {
    match deadline {
        None => Ok(None),
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                Err((
                    ServeCode::BudgetExceeded,
                    "deadline budget exhausted at a phase boundary".to_string(),
                ))
            } else {
                Ok(Some((d - now).as_millis().max(1) as u64))
            }
        }
    }
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

    // Phase: parse (+ pre-normalization).
    let t = Instant::now();
    opts.budget.deadline_ms = remaining_ms(deadline)?;
    let (program, _lint) = an_driver::parse_normalized(&req.source, &opts).map_err(driver_error)?;
    inner
        .metrics
        .observe("serve.phase.parse_us", t.elapsed().as_micros() as u64);

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
    inner
        .metrics
        .observe("serve.phase.compile_us", t.elapsed().as_micros() as u64);

    // Phase: model — analytic locality pricing of the compiled SPMD
    // program (closed-form counts, microseconds), surfaced in `status`
    // alongside the other phases. Pricing failures are counted, not
    // fatal: the client asked for artifacts, not a price.
    let t = Instant::now();
    remaining_ms(deadline)?;
    let defaults = compiled.program.default_param_values();
    match an_model::model_stats(
        &compiled.spmd,
        &an_numa::MachineConfig::butterfly_gp1000(),
        4,
        &defaults,
    ) {
        Ok(_) => inner.metrics.add("serve.model.priced", 1),
        Err(_) => inner.metrics.add("serve.model.errors", 1),
    }
    inner
        .metrics
        .observe("serve.phase.model_us", t.elapsed().as_micros() as u64);

    // Phase: emit.
    let t = Instant::now();
    remaining_ms(deadline)?;
    let mut artifacts = Vec::with_capacity(req.emit.len());
    for &kind in &req.emit {
        let text = match kind {
            Emit::Ir => an_ir::pretty::print_program(&compiled.program),
            Emit::Transform => compiled.normalized.transform.to_string(),
            Emit::Transformed => an_ir::pretty::print_nest(&compiled.transformed.program),
            Emit::Spmd => an_codegen::emit::emit_spmd(&compiled.spmd),
            Emit::C => {
                let defaults = compiled.program.default_param_values();
                an_codegen::emit_c::emit_c(&compiled.transformed.program, &defaults, 42)
            }
            Emit::Ownership => an_codegen::ownership::emit_ownership(
                &an_codegen::ownership::generate_ownership(&compiled.program),
            ),
        };
        artifacts.push((kind, text));
    }
    inner
        .metrics
        .observe("serve.phase.emit_us", t.elapsed().as_micros() as u64);
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
        // `A[i64::MAX * i, j]` compiles but cannot be priced. The model
        // phase is informational: its typed rejection is counted, never
        // a panic that would quarantine a source that compiles.
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
        assert_eq!(server.metrics().counter("serve.model.errors"), 1);
        assert_eq!(server.metrics().counter("serve.model.priced"), 0);
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
        assert!(
            s.get("phase_us").unwrap().get("model").is_some(),
            "{status}"
        );
        assert_eq!(
            s.get("model")
                .and_then(|m| m.get("priced"))
                .and_then(|v| v.as_u64()),
            Some(1),
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
