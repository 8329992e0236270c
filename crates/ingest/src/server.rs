//! The ingestion server: one non-blocking event loop accepting many
//! concurrent plant connections, one intake thread fanning reassembled
//! step batches into the persistent [`WorkerPool`] for T²/SPE scoring.
//!
//! # Architecture
//!
//! ```text
//!            event-loop thread                intake thread
//!  epoll ──► read → StreamParser ──► per-conn ──► batch → WorkerPool
//!            (torn-read reassembly)  step queue    (StreamScorer per plant)
//!                 ▲                  (bounded)          │
//!                 └── park read interest when full ◄────┘ drain
//! ```
//!
//! * **Backpressure** is explicit: when a connection's step queue
//!   reaches `queue_depth`, the event loop parks its read interest; the
//!   kernel buffer then fills and the peer's TCP window closes. A
//!   periodic tick unparks connections whose queues have drained below
//!   half depth. Frames are therefore *never* dropped under load — the
//!   `ingest_dropped_steps_total` counter exists as a hard-cap backstop
//!   and staying at zero is asserted by the integration tests.
//! * **Bit-identical scoring**: each connection's steps go through a
//!   [`StreamScorer`] — the exact scoring path `score_capture` and
//!   `run_scenario` use — so a detection served off the wire equals the
//!   offline replay of the same tape, digest for digest.
//! * **Per-plant models**: with a store-backed [`ModelSource`], each
//!   connection resolves its cohort's monitor through the sharded
//!   [`ModelStore`] on handshake (LRU residency, calibrate-on-miss, hot
//!   reload on generation bump), so no plant is scored against another
//!   regime's control limits. The generation used is pinned for the
//!   connection's lifetime and recorded in its report.
//! * **Live incidents**: an optional sink streams line-framed
//!   `key=value` events (detections as their block flushes, the final
//!   verdict, faults) the moment they fire, instead of only a report at
//!   drain.
//! * **Graceful shutdown**: when the stop flag is set, the loop stops
//!   accepting, marks every connection end-of-stream, drains all queued
//!   batches through the pool, and returns the final [`IngestReport`]
//!   (which `temspc ingest serve` flushes atomically to a TPB file).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use temspc::{AnomalousEvent, DualMspc, ScenarioKind, StreamScorer};
use temspc_fieldbus::{CaptureRecord, ReplayLink, ReplayStep, TapPoint};
use temspc_fleet::{
    Counter, FleetReport, Gauge, Histogram, MetricsRegistry, ModelStore, PlantKey, PlantRecord,
    WorkerPool,
};
use temspc_persist::{FileError, FileKind};

use crate::poller::{Poller, Polling};
use crate::stream::{Hello, StreamEvent, StreamParser};

/// Configuration of the ingestion server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Listen address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Concurrent connection cap; further accepts are refused.
    pub max_connections: usize,
    /// Per-connection step-queue bound: reaching it parks the
    /// connection's read interest until the intake thread drains the
    /// queue below half. (A queue may transiently exceed the bound by
    /// the steps decoded from one already-read chunk.)
    pub queue_depth: usize,
    /// Most steps scored per connection per intake batch.
    pub batch_steps: usize,
    /// Scoring worker threads (0 → one per CPU core, capped at 16).
    pub threads: usize,
    /// Stop serving once this many connections have been fully scored
    /// (`None` → serve until the stop flag is raised).
    pub expect: Option<usize>,
    /// Live incident sink: a path (plain file, or e.g. `/dev/stdout`)
    /// that receives line-framed `key=value` events — detections as
    /// their scoring block flushes, final verdicts, faults — flushed
    /// per line so it can be tailed. `None` disables the stream.
    pub incidents: Option<String>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 1024,
            queue_depth: 256,
            batch_steps: 512,
            threads: 0,
            expect: None,
            incidents: None,
        }
    }
}

/// Aggregate outcome of one serving session.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IngestReport {
    /// Per-connection outcomes, sorted by plant id.
    pub connections: Vec<PlantRecord>,
    /// Total wire frames received.
    pub frames: u64,
    /// Total closed-loop steps scored.
    pub steps: u64,
    /// Total bytes read off sockets.
    pub bytes: u64,
    /// Steps dropped at the hard queue cap (zero under the parking
    /// backpressure design; asserted zero by the smoke tests).
    pub drops: u64,
    /// Connections that died to a framing/reassembly/scoring error.
    pub reassembly_errors: u64,
}

impl IngestReport {
    /// The session as a fleet report, so the confusion-matrix and
    /// latency aggregation applies to served traffic unchanged.
    pub fn fleet_report(&self) -> FleetReport {
        FleetReport::new(self.connections.clone())
    }
}

/// Saves an ingestion report to `path` as an atomically written
/// ingest-report file — a SIGTERM mid-flush leaves the previous report,
/// never a torn file. Fails with [`FileError`].
pub fn save_report(report: &IngestReport, path: impl AsRef<Path>) -> Result<(), FileError> {
    temspc_persist::save(path, FileKind::IngestReport, 0, report)
}

/// Loads a report saved with [`save_report`]; fails with [`FileError`].
pub fn load_report(path: impl AsRef<Path>) -> Result<IngestReport, FileError> {
    Ok(temspc_persist::load(path, FileKind::IngestReport)?.0)
}

/// Poison-tolerant lock (same rationale as the worker pool: all guarded
/// state is consistent on every unwind path).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handles into the server's metric family.
struct IngestMetrics {
    connections_current: Gauge,
    connections_total: Counter,
    refused_total: Counter,
    bytes_total: Counter,
    frames_total: Counter,
    steps_total: Counter,
    dropped_steps_total: Counter,
    reassembly_errors_total: Counter,
    parked_total: Counter,
    batch_latency: Histogram,
}

impl IngestMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        IngestMetrics {
            connections_current: registry.gauge(
                "ingest_connections_current",
                "plant connections currently open",
            ),
            connections_total: registry.counter(
                "ingest_connections_total",
                "plant connections accepted and registered",
            ),
            refused_total: registry.counter(
                "ingest_connections_refused_total",
                "connections refused: concurrency cap reached or socket setup failed",
            ),
            bytes_total: registry.counter("ingest_bytes_total", "bytes read off sockets"),
            frames_total: registry.counter("ingest_frames_total", "wire frames received"),
            steps_total: registry.counter("ingest_steps_total", "closed-loop steps reassembled"),
            dropped_steps_total: registry.counter(
                "ingest_dropped_steps_total",
                "steps dropped at the hard queue cap (0 under parking backpressure)",
            ),
            reassembly_errors_total: registry.counter(
                "ingest_reassembly_errors_total",
                "connections killed by framing, reassembly or scoring errors",
            ),
            parked_total: registry.counter(
                "ingest_parked_total",
                "backpressure events: read interest parked on a full queue",
            ),
            batch_latency: registry.histogram(
                "ingest_batch_queue_latency_seconds",
                "time a batch's oldest step waited in its connection queue",
                &[0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0],
            ),
        }
    }
}

/// Where the server's per-connection monitors come from.
pub enum ModelSource<'m> {
    /// Every connection scores against one shared monitor — the
    /// pre-store path; reports carry `model_generation` 0.
    Shared(&'m DualMspc),
    /// Each connection resolves its cohort's monitor through the
    /// sharded store at handshake: `PlantKey::cohort(plant % cohorts)`,
    /// with the store's LRU residency, calibrate-on-miss and hot reload
    /// on generation bump. The resolved generation is pinned for the
    /// connection's lifetime and recorded in its report.
    Store {
        /// The sharded per-plant model store.
        store: &'m ModelStore,
        /// Cohort count for the plant → key mapping (clamped to ≥ 1;
        /// must match the fleet's `--cohorts` for digests to line up).
        cohorts: usize,
    },
}

/// Pins every store-resolved monitor in memory for the lifetime of one
/// serving session, handing out plain `&DualMspc` borrows the scorers
/// can hold across intake iterations.
///
/// The store returns `Arc<DualMspc>` and may evict under LRU pressure;
/// a [`StreamScorer`] wants a plain borrow. Holding the `Arc` inside
/// each connection entry alongside its scorer would make the entry
/// self-referential, so instead the arena owns every `(key, generation)`
/// model resolved during the session — bounded by cohorts × generations,
/// not by connections — and the scorers borrow from the arena.
#[derive(Default)]
struct ModelPin {
    pinned: Mutex<Vec<(PlantKey, u64, Arc<DualMspc>)>>,
}

impl ModelPin {
    /// Resolves `key` through `store` (hot-reload aware) and returns a
    /// pinned borrow of the model plus the generation that produced it.
    fn resolve<'p>(
        &'p self,
        store: &ModelStore,
        key: &PlantKey,
    ) -> Result<(&'p DualMspc, u64), String> {
        let resolved = store
            .get(key)
            .map_err(|e| format!("model store resolution for '{}' failed: {e}", key.as_str()))?;
        let mut pinned = lock(&self.pinned);
        let generation = resolved.generation;
        let index = match pinned
            .iter()
            .position(|(k, g, _)| k == key && *g == generation)
        {
            Some(index) => index,
            None => {
                pinned.push((key.clone(), generation, resolved.model));
                pinned.len() - 1
            }
        };
        let arc = &pinned[index].2;
        // SAFETY: the arena is append-only — entries are never removed
        // while `self` is borrowed — and an `Arc`'s pointee is heap-
        // allocated and address-stable, so the pointer stays valid for
        // the arena's borrow lifetime even though the Vec holding the
        // `Arc` handles may reallocate. The arena outlives every scorer
        // (it is dropped only after the intake thread joins).
        Ok((unsafe { &*Arc::as_ptr(arc) }, generation))
    }
}

/// Live incident sink: line-framed `key=value` events appended to the
/// configured file, flushed per line so the stream can be tailed while
/// the server runs.
struct IncidentSink {
    out: Mutex<File>,
    emitted: Counter,
}

impl IncidentSink {
    fn open(path: &str, registry: &MetricsRegistry) -> io::Result<Self> {
        Ok(IncidentSink {
            out: Mutex::new(File::create(path)?),
            emitted: registry.counter("ingest_incidents_total", "live incident events emitted"),
        })
    }

    fn emit(&self, line: &str) {
        let mut out = lock(&self.out);
        // A sink write failure must never take down scoring; the
        // counter still advances, so a dead sink stays visible in the
        // metrics as events without file growth.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
        self.emitted.inc();
    }
}

/// State one connection shares between the event loop and the intake
/// thread.
#[derive(Default)]
struct ConnState {
    hello: Option<Hello>,
    steps: VecDeque<ReplayStep>,
    /// Enqueue instant of the oldest undrained step (queue-latency
    /// observation point).
    oldest: Option<Instant>,
    /// No more steps will arrive (EOF, error, or server shutdown).
    eof: bool,
    fault: Option<String>,
}

#[derive(Default)]
struct ConnShared {
    state: Mutex<ConnState>,
}

/// Event-loop-side connection bookkeeping.
struct Conn {
    stream: TcpStream,
    parser: StreamParser,
    /// Records of the step currently being reassembled (0..4).
    pending_step: Vec<CaptureRecord>,
    shared: Arc<ConnShared>,
    parked: bool,
    /// Whether the intake thread has been told about this token.
    announced: bool,
    /// Plant id this connection holds the live claim for (`None` until
    /// the handshake lands — or forever, for a duplicate claimant whose
    /// close must not release the rightful owner's claim).
    claimed_plant: Option<u32>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            parser: StreamParser::new(),
            pending_step: Vec::with_capacity(TapPoint::STEP_ORDER.len()),
            shared: Arc::new(ConnShared::default()),
            parked: false,
            announced: false,
            claimed_plant: None,
        }
    }
}

/// Announcement channel from the event loop to the intake thread: each
/// token is announced once; the intake thread keeps polling announced
/// connections until it retires them.
#[derive(Default)]
struct IntakeQueue {
    ready: Mutex<VecDeque<(usize, Arc<ConnShared>)>>,
    wake: Condvar,
}

impl IntakeQueue {
    fn push(&self, token: usize, shared: &Arc<ConnShared>) {
        lock(&self.ready).push_back((token, Arc::clone(shared)));
        self.wake.notify_one();
    }

    fn drain_wait(&self, timeout: Duration) -> Vec<(usize, Arc<ConnShared>)> {
        let mut guard = lock(&self.ready);
        if guard.is_empty() {
            guard = self
                .wake
                .wait_timeout(guard, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        guard.drain(..).collect()
    }
}

/// The ingestion server. Bind once, then [`IngestServer::run`] the
/// serving session; metrics accumulate in [`IngestServer::metrics`].
pub struct IngestServer<'m> {
    source: ModelSource<'m>,
    config: IngestConfig,
    listener: TcpListener,
    registry: MetricsRegistry,
    pool: WorkerPool,
}

impl<'m> IngestServer<'m> {
    /// Binds the listen socket and spawns the scoring pool, scoring
    /// every connection against one shared `monitor`.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failure.
    pub fn bind(monitor: &'m DualMspc, config: IngestConfig) -> io::Result<Self> {
        Self::bind_source(ModelSource::Shared(monitor), config)
    }

    /// Binds the listen socket and spawns the scoring pool, resolving
    /// each connection's monitor per cohort through `store` (see
    /// [`ModelSource::Store`]).
    ///
    /// # Errors
    ///
    /// Propagates socket binding failure.
    pub fn bind_with_store(
        store: &'m ModelStore,
        cohorts: usize,
        config: IngestConfig,
    ) -> io::Result<Self> {
        Self::bind_source(
            ModelSource::Store {
                store,
                cohorts: cohorts.max(1),
            },
            config,
        )
    }

    fn bind_source(source: ModelSource<'m>, config: IngestConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let pool = WorkerPool::new(config.threads);
        Ok(IngestServer {
            source,
            config,
            listener,
            registry: MetricsRegistry::new(),
            pool,
        })
    }

    /// The bound listen address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The server's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Serves until the stop flag is raised (or `expect` connections
    /// have been fully scored), then drains all in-flight batches and
    /// returns the session report.
    ///
    /// # Errors
    ///
    /// Propagates event-loop I/O failures (poller or listener); per-
    /// connection errors never fail the server, they fail the
    /// connection's report.
    pub fn run(&self, stop: &AtomicBool) -> io::Result<IngestReport> {
        let metrics = IngestMetrics::register(&self.registry);
        let incidents = match &self.config.incidents {
            Some(path) => Some(IncidentSink::open(path, &self.registry)?),
            None => None,
        };
        let pin = ModelPin::default();
        let intake = IntakeQueue::default();
        let reports: Mutex<Vec<PlantRecord>> = Mutex::new(Vec::new());
        let drained = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);

        let loop_result = std::thread::scope(|scope| {
            let intake_thread = scope.spawn(|| {
                intake_loop(
                    &self.source,
                    &pin,
                    incidents.as_ref(),
                    &self.pool,
                    self.config.batch_steps,
                    &intake,
                    &drained,
                    &reports,
                    &metrics,
                    &finished,
                )
            });
            let result = self.event_loop(stop, &metrics, &intake, &finished);
            drained.store(true, Ordering::SeqCst);
            intake.wake.notify_one();
            intake_thread.join().expect("intake thread panicked");
            result
        });
        loop_result?;

        let mut connections = reports.into_inner().unwrap_or_else(PoisonError::into_inner);
        connections.sort_by_key(|c| c.plant);
        Ok(IngestReport {
            connections,
            frames: metrics.frames_total.get(),
            steps: metrics.steps_total.get(),
            bytes: metrics.bytes_total.get(),
            drops: metrics.dropped_steps_total.get(),
            reassembly_errors: metrics.reassembly_errors_total.get(),
        })
    }

    fn event_loop(
        &self,
        stop: &AtomicBool,
        metrics: &IngestMetrics,
        intake: &IntakeQueue,
        finished: &AtomicUsize,
    ) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(self.listener.as_raw_fd(), 0, true)?;

        let mut state = EventState {
            poller,
            conns: HashMap::new(),
            claimed: HashSet::new(),
            next_token: 1,
            max_connections: self.config.max_connections.max(1),
            queue_depth: self.config.queue_depth.max(1),
            read_buf: vec![0u8; 65536].into_boxed_slice(),
            metrics,
            intake,
        };
        let mut events = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if let Some(expected) = self.config.expect {
                if finished.load(Ordering::SeqCst) >= expected {
                    break;
                }
            }
            state.poller.wait(&mut events, 5)?;
            for &event in &events {
                if event.token == 0 {
                    state.accept_ready(&self.listener)?;
                } else if event.readable || event.closed {
                    state.conn_readable(event.token);
                }
            }
            state.unpark_tick();
        }
        state.shutdown_remaining();
        Ok(())
    }
}

/// The event loop's mutable world, factored out so connection handling
/// reads as methods instead of parameter soup. Generic over the poller
/// so tests can drive the failure paths with a misbehaving stub.
struct EventState<'s, P: Polling> {
    poller: P,
    /// Live connections by token. Tokens are never reused — the intake
    /// thread keys its scorers by token, and a recycled token could
    /// collide with a connection it has not finalized yet.
    conns: HashMap<usize, Conn>,
    /// Plant ids claimed by live connections: one live stream per plant,
    /// so two peers cannot both claim plant 7 and produce ambiguous
    /// reports. Released when the claiming connection closes.
    claimed: HashSet<u32>,
    next_token: usize,
    max_connections: usize,
    queue_depth: usize,
    /// Reusable socket read buffer, shared across every connection's
    /// reads on this (single) event-loop thread.
    read_buf: Box<[u8]>,
    metrics: &'s IngestMetrics,
    intake: &'s IntakeQueue,
}

impl<P: Polling> EventState<'_, P> {
    fn accept_ready(&mut self, listener: &TcpListener) -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // `connections_total` counts only connections that
                    // make it into the loop; refused attempts count in
                    // `refused_total` alone, so
                    // attempts = connections_total + refused_total.
                    if self.conns.len() >= self.max_connections {
                        self.metrics.refused_total.inc();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.metrics.refused_total.inc();
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true)
                        .is_err()
                    {
                        self.metrics.refused_total.inc();
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    self.metrics.connections_total.inc();
                    self.metrics.connections_current.inc();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (e.g. the peer aborted
                // between queueing and accept) are not server failures.
                Err(_) => break,
            }
        }
        Ok(())
    }

    fn conn_readable(&mut self, token: usize) {
        let outcome = {
            // Split the borrows: the connection lives in the slab, the
            // poller/metrics/intake are sibling fields.
            let EventState {
                poller,
                conns,
                claimed,
                queue_depth,
                read_buf,
                metrics,
                intake,
                ..
            } = self;
            let Some(conn) = conns.get_mut(&token) else {
                return; // already closed this tick
            };
            read_conn(
                conn,
                token,
                *queue_depth,
                read_buf,
                poller,
                claimed,
                metrics,
                intake,
            )
        };
        match outcome {
            ReadOutcome::Continue => {}
            ReadOutcome::Eof => self.close_conn(token, None),
            ReadOutcome::Fault(fault) => {
                self.metrics.reassembly_errors_total.inc();
                self.close_conn(token, Some(fault));
            }
        }
    }

    /// Retires a connection: deregisters the socket, marks the shared
    /// state end-of-stream (diagnosing a tear if the wire died mid-
    /// message or mid-step) and announces the token so the intake thread
    /// finalizes it.
    fn close_conn(&mut self, token: usize, fault: Option<String>) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.metrics.connections_current.dec();
        // Release the plant claim so a reconnecting plant can resume.
        // (A duplicate-claim connection never set `claimed_plant`, so
        // closing it leaves the rightful owner's claim in place.)
        if let Some(plant) = conn.claimed_plant {
            self.claimed.remove(&plant);
        }
        let mut fault = fault;
        if fault.is_none() && (conn.parser.pending_bytes() > 0 || !conn.pending_step.is_empty()) {
            self.metrics.reassembly_errors_total.inc();
            fault = Some(format!(
                "connection closed mid-stream ({} bytes and {} frames of an \
                 unfinished step pending)",
                conn.parser.pending_bytes(),
                conn.pending_step.len()
            ));
        }
        {
            let mut state = lock(&conn.shared.state);
            state.eof = true;
            if state.fault.is_none() {
                state.fault = fault;
            }
        }
        // Announce each token at most once, ever: a second announcement
        // could arrive after the intake thread finalized the entry and
        // would resurrect it as a duplicate report.
        if conn.announced {
            self.intake.wake.notify_one();
        } else {
            self.intake.push(token, &conn.shared);
        }
    }

    /// Un-parks connections whose queues have drained below half depth —
    /// the periodic other half of the backpressure protocol (the intake
    /// thread never touches the poller).
    fn unpark_tick(&mut self) {
        let mut failed: Vec<(usize, String)> = Vec::new();
        for (&token, conn) in &mut self.conns {
            if !conn.parked {
                continue;
            }
            let depth = lock(&conn.shared.state).steps.len();
            if depth * 2 > self.queue_depth {
                continue;
            }
            match self
                .poller
                .set_readable(conn.stream.as_raw_fd(), token, true)
            {
                Ok(()) => conn.parked = false,
                // A connection whose read interest cannot be re-armed
                // would otherwise stay parked forever — its queue is
                // already drained, so nothing else will ever retry.
                // Fail it loudly instead of wedging it silently.
                Err(e) => failed.push((token, format!("unparking read interest failed: {e}"))),
            }
        }
        for (token, fault) in failed {
            self.close_conn(token, Some(fault));
        }
    }

    /// Shutdown path: every still-open connection is marked end-of-
    /// stream so the intake thread drains its queue and reports it as
    /// interrupted rather than silently vanishing.
    fn shutdown_remaining(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(
                token,
                Some("server stopped while the stream was live".into()),
            );
        }
    }
}

enum ReadOutcome {
    Continue,
    Eof,
    Fault(String),
}

/// Pulls everything the socket has, feeding the parser and enqueuing
/// reassembled steps, until the read would block, the connection parks,
/// or the stream ends or faults.
#[allow(clippy::too_many_arguments)]
fn read_conn<P: Polling>(
    conn: &mut Conn,
    token: usize,
    queue_depth: usize,
    buf: &mut [u8],
    poller: &P,
    claimed: &mut HashSet<u32>,
    metrics: &IngestMetrics,
    intake: &IntakeQueue,
) -> ReadOutcome {
    while !conn.parked {
        match conn.stream.read(buf) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => {
                metrics.bytes_total.add(n as u64);
                conn.parser.feed(&buf[..n]);
                if let Err(fault) =
                    drain_parser(conn, token, queue_depth, poller, claimed, metrics, intake)
                {
                    return ReadOutcome::Fault(fault);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadOutcome::Fault(format!("socket read failed: {e}")),
        }
    }
    ReadOutcome::Continue
}

/// Drains every complete parser event, reassembling steps and enqueuing
/// them for the intake thread. Returns the fault message on the first
/// protocol/reassembly error.
#[allow(clippy::too_many_arguments)]
fn drain_parser<P: Polling>(
    conn: &mut Conn,
    token: usize,
    queue_depth: usize,
    poller: &P,
    claimed: &mut HashSet<u32>,
    metrics: &IngestMetrics,
    intake: &IntakeQueue,
) -> Result<(), String> {
    loop {
        match conn.parser.next_event() {
            Ok(None) => return Ok(()),
            Ok(Some(StreamEvent::Hello(hello))) => {
                let plant = hello.plant;
                // Store the hello before the claim check so a duplicate
                // claimant's report still names the plant it attempted.
                lock(&conn.shared.state).hello = Some(hello);
                if claimed.insert(plant) {
                    conn.claimed_plant = Some(plant);
                } else {
                    return Err(format!(
                        "plant id {plant} already claimed by a live connection"
                    ));
                }
            }
            Ok(Some(StreamEvent::Record(record))) => {
                metrics.frames_total.inc();
                conn.pending_step.push(record);
                if conn.pending_step.len() < TapPoint::STEP_ORDER.len() {
                    continue;
                }
                // Reuse the replay grammar for step reassembly: tap
                // order, frame-kind direction, hour/seq/width agreement
                // — the same strictness an offline tape replay gets.
                let step = match ReplayLink::new(&conn.pending_step).next() {
                    Some(Ok(step)) => step,
                    Some(Err(e)) => return Err(format!("step reassembly failed: {e}")),
                    None => unreachable!("four records always yield one result"),
                };
                conn.pending_step.clear();
                metrics.steps_total.inc();
                let depth = {
                    let mut state = lock(&conn.shared.state);
                    if state.steps.len() >= queue_depth.saturating_mul(8).max(8) {
                        // Hard-cap backstop; unreachable under parking.
                        metrics.dropped_steps_total.inc();
                        state.steps.len()
                    } else {
                        if state.oldest.is_none() {
                            state.oldest = Some(Instant::now());
                        }
                        state.steps.push_back(step);
                        state.steps.len()
                    }
                };
                if !conn.announced {
                    conn.announced = true;
                    intake.push(token, &conn.shared);
                } else {
                    intake.wake.notify_one();
                }
                if depth >= queue_depth && !conn.parked {
                    // Backpressure: stop reading this connection; its
                    // kernel buffer and then the peer's send window
                    // absorb the flow until the queue drains.
                    metrics.parked_total.inc();
                    if poller
                        .set_readable(conn.stream.as_raw_fd(), token, false)
                        .is_ok()
                    {
                        conn.parked = true;
                    }
                }
            }
            Err(e) => return Err(format!("stream error: {e}")),
        }
    }
}

/// One connection's scoring job slot: the scorer plus its step batch,
/// taken (`Option`) by whichever pool worker claims the slot.
type BatchJob<'m> = Mutex<Option<(StreamScorer<'m>, Vec<ReplayStep>)>>;

/// Resolves the monitor one connection scores against: the shared
/// monitor (generation 0), or the plant's cohort model pinned out of
/// the store. Resolution happens exactly once per connection — at the
/// first batch after its handshake — so an in-flight stream keeps its
/// generation across a mid-session hot reload while the next connection
/// picks the bumped one up.
fn resolve_monitor<'p>(
    source: &'p ModelSource<'p>,
    pin: &'p ModelPin,
    plant: u32,
) -> Result<(&'p DualMspc, u64), String> {
    match source {
        ModelSource::Shared(monitor) => Ok((monitor, 0)),
        ModelSource::Store { store, cohorts } => {
            let key = PlantKey::cohort(plant as usize % (*cohorts).max(1));
            pin.resolve(store, &key)
        }
    }
}

/// Emits one `event=detection` line per detection that surfaced on a
/// level since the last emission, advancing the per-level cursor.
fn emit_new_detections(
    sink: &IncidentSink,
    plant: u32,
    generation: u64,
    level: &str,
    events: &[AnomalousEvent],
    seen: &mut usize,
) {
    for event in &events[*seen..] {
        sink.emit(&format!(
            "event=detection plant={plant} level={level} detected_hour={:.6} \
             first_violation_hour={:.6} generation={generation}",
            event.detected_hour, event.first_violation_hour
        ));
    }
    *seen = events.len();
}

#[allow(clippy::too_many_arguments)]
fn intake_loop<'p>(
    source: &'p ModelSource<'p>,
    pin: &'p ModelPin,
    incidents: Option<&IncidentSink>,
    pool: &WorkerPool,
    batch_steps: usize,
    intake: &IntakeQueue,
    drained: &AtomicBool,
    reports: &Mutex<Vec<PlantRecord>>,
    metrics: &IngestMetrics,
    finished: &AtomicUsize,
) {
    struct Entry<'p> {
        shared: Arc<ConnShared>,
        scorer: Option<StreamScorer<'p>>,
        /// The monitor the scorer borrows — needed again at diagnosis.
        monitor: Option<&'p DualMspc>,
        /// Store generation that produced `monitor` (0 = shared path).
        generation: u64,
        /// Plant id from the handshake (`u32::MAX` until it lands).
        plant: u32,
        /// Per-level incident cursors: detections already emitted.
        seen_events: (usize, usize),
        steps: u64,
        fault: Option<String>,
    }

    let batch_steps = batch_steps.max(1);
    let mut active: HashMap<usize, Entry<'p>> = HashMap::new();
    loop {
        for (token, shared) in intake.drain_wait(Duration::from_millis(5)) {
            active.entry(token).or_insert(Entry {
                shared,
                scorer: None,
                monitor: None,
                generation: 0,
                plant: u32::MAX,
                seen_events: (0, 0),
                steps: 0,
                fault: None,
            });
        }

        // Assemble one bounded batch per connection with queued steps.
        let mut batch_tokens: Vec<usize> = Vec::new();
        let mut jobs: Vec<BatchJob<'p>> = Vec::new();
        for (&token, entry) in &mut active {
            let batch = {
                let mut state = lock(&entry.shared.state);
                if state.steps.is_empty() {
                    None
                } else {
                    let take = state.steps.len().min(batch_steps);
                    let batch: Vec<ReplayStep> = state.steps.drain(..take).collect();
                    if let Some(oldest) = state.oldest.take() {
                        metrics
                            .batch_latency
                            .observe(oldest.elapsed().as_secs_f64());
                    }
                    if !state.steps.is_empty() {
                        state.oldest = Some(Instant::now());
                    }
                    Some(batch)
                }
            };
            let Some(batch) = batch else { continue };
            if entry.fault.is_some() {
                continue; // scorer already condemned; drain and discard
            }
            if entry.scorer.is_none() {
                let hello = lock(&entry.shared.state)
                    .hello
                    .as_ref()
                    .map(|h| (h.plant, h.scenario.onset_hour));
                match hello {
                    Some((plant, onset)) => {
                        match resolve_monitor(source, pin, plant) {
                            Ok((monitor, generation)) => {
                                entry.plant = plant;
                                entry.monitor = Some(monitor);
                                entry.generation = generation;
                                entry.scorer = Some(monitor.stream_scorer(onset));
                            }
                            Err(fault) => {
                                // Store resolution failed (I/O, torn
                                // file, failed calibrate-on-miss): the
                                // connection fails, the server lives.
                                entry.plant = plant;
                                entry.fault = Some(fault);
                                continue;
                            }
                        }
                    }
                    None => {
                        // Unreachable (the parser emits Hello first),
                        // kept as a fault rather than a panic.
                        entry.fault = Some("steps arrived before the handshake".into());
                        continue;
                    }
                }
            }
            let scorer = entry.scorer.take().expect("scorer just ensured");
            batch_tokens.push(token);
            jobs.push(Mutex::new(Some((scorer, batch))));
        }

        // Fan the batches over the pool: one job per connection, scorers
        // moved in and handed back through the sink.
        if !jobs.is_empty() {
            pool.run(
                jobs.len(),
                |j| {
                    let (mut scorer, batch) =
                        lock(&jobs[j]).take().expect("each job taken exactly once");
                    let mut fault = None;
                    for step in &batch {
                        if let Err(e) = scorer.push_step(step) {
                            fault = Some(format!("scoring rejected a step: {e}"));
                            break;
                        }
                    }
                    (scorer, batch.len() as u64, fault)
                },
                |j, (scorer, scored, fault)| {
                    let entry = active
                        .get_mut(&batch_tokens[j])
                        .expect("batch token is active");
                    entry.steps += scored;
                    match fault {
                        None => {
                            if let Some(sink) = incidents {
                                let (controller, process) = scorer.events();
                                emit_new_detections(
                                    sink,
                                    entry.plant,
                                    entry.generation,
                                    "controller",
                                    controller,
                                    &mut entry.seen_events.0,
                                );
                                emit_new_detections(
                                    sink,
                                    entry.plant,
                                    entry.generation,
                                    "process",
                                    process,
                                    &mut entry.seen_events.1,
                                );
                            }
                            entry.scorer = Some(scorer);
                        }
                        Some(fault) => {
                            metrics.reassembly_errors_total.inc();
                            entry.fault = Some(fault);
                        }
                    }
                },
            );
        }

        // Finalize every connection that hit end-of-stream with an empty
        // queue: fold its scorer into an outcome and report.
        let finished_tokens: Vec<usize> = active
            .iter()
            .filter(|(_, entry)| {
                let state = lock(&entry.shared.state);
                state.eof && state.steps.is_empty()
            })
            .map(|(&token, _)| token)
            .collect();
        for token in finished_tokens {
            let mut entry = active.remove(&token).expect("token just listed");
            let (hello, fault) = {
                let state = lock(&entry.shared.state);
                (state.hello.clone(), state.fault.clone())
            };
            let fault = entry.fault.take().or(fault);
            let report = match (hello, entry.scorer.take(), fault) {
                (Some(hello), Some(scorer), None) => {
                    let monitor = entry.monitor.expect("a live scorer has its monitor");
                    let steps = scorer.steps() as u64;
                    let outcome = scorer.finish(hello.scenario, None);
                    PlantRecord::scored(
                        hello.plant,
                        monitor,
                        &outcome,
                        Some(steps),
                        entry.generation,
                    )
                }
                (hello, _, fault) => {
                    let (plant, kind, seed) = hello
                        .map_or((u32::MAX, ScenarioKind::Normal, 0), |h| {
                            (h.plant, h.scenario.kind, h.scenario.seed)
                        });
                    let fault = fault
                        .unwrap_or_else(|| "connection closed before any complete step".into());
                    PlantRecord {
                        steps: entry.steps,
                        model_generation: entry.generation,
                        ..PlantRecord::failed(plant, kind, seed, fault)
                    }
                }
            };
            if let Some(sink) = incidents {
                match &report.fault {
                    None => sink.emit(&format!(
                        "event=verdict plant={} kind={} verdict={} latency_hours={} \
                         false_alarms={} digest={:016x} generation={}",
                        report.plant,
                        report.kind.id(),
                        report
                            .verdict
                            .map_or_else(|| "-".to_string(), |v| v.to_string()),
                        report
                            .detection_latency_hours
                            .map_or_else(|| "-".to_string(), |h| format!("{h:.6}")),
                        report.false_alarms,
                        report.digest,
                        report.model_generation,
                    )),
                    Some(fault) => sink.emit(&format!(
                        "event=fault plant={} fault=\"{fault}\"",
                        report.plant
                    )),
                }
            }
            lock(reports).push(report);
            finished.fetch_add(1, Ordering::SeqCst);
        }

        if drained.load(Ordering::SeqCst) && active.is_empty() && lock(&intake.ready).is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poller::PollEvent;
    use std::os::fd::RawFd;

    /// A poller whose re-arm always fails — the trigger for the unpark
    /// wedge this module's regression test guards against.
    struct FailingPoller;

    impl Polling for FailingPoller {
        fn register(&self, _: RawFd, _: usize, _: bool) -> io::Result<()> {
            Ok(())
        }

        fn set_readable(&self, _: RawFd, _: usize, _: bool) -> io::Result<()> {
            Err(io::Error::other("stub re-arm failure"))
        }

        fn deregister(&self, _: RawFd) -> io::Result<()> {
            Ok(())
        }

        fn wait(&self, out: &mut Vec<PollEvent>, _: i32) -> io::Result<usize> {
            out.clear();
            Ok(0)
        }
    }

    /// Before the fix, a failed `set_readable` in `unpark_tick` left the
    /// connection parked with a drained queue: no readiness event would
    /// ever fire for it again and no retry path existed, so it hung
    /// forever. The fix closes it with a fault instead.
    #[test]
    fn failed_unpark_fails_the_connection_instead_of_wedging_it() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let intake = IntakeQueue::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();

        let mut state = EventState {
            poller: FailingPoller,
            conns: HashMap::new(),
            claimed: HashSet::new(),
            next_token: 2,
            max_connections: 4,
            queue_depth: 4,
            read_buf: vec![0u8; 64].into_boxed_slice(),
            metrics: &metrics,
            intake: &intake,
        };
        let mut conn = Conn::new(stream);
        conn.parked = true;
        let shared = Arc::clone(&conn.shared);
        state.conns.insert(1, conn);

        // Queue empty (below half depth), so the tick must unpark; the
        // poller refuses, and the connection must be retired with a
        // fault rather than left in the map parked forever.
        state.unpark_tick();

        assert!(state.conns.is_empty(), "connection left wedged in the map");
        let conn_state = lock(&shared.state);
        assert!(conn_state.eof, "closed connection not marked end-of-stream");
        assert!(
            conn_state
                .fault
                .as_deref()
                .is_some_and(|f| f.contains("unparking read interest failed")),
            "fault missing or wrong: {:?}",
            conn_state.fault
        );
        // The intake thread must have been told so it reports the
        // connection instead of waiting on it.
        assert_eq!(lock(&intake.ready).len(), 1);
        drop(client);
    }

    /// A healthy poller still unparks a drained connection — the fix
    /// must not fail connections whose re-arm succeeds.
    #[test]
    fn successful_unpark_keeps_the_connection() {
        struct OkPoller;
        impl Polling for OkPoller {
            fn register(&self, _: RawFd, _: usize, _: bool) -> io::Result<()> {
                Ok(())
            }
            fn set_readable(&self, _: RawFd, _: usize, _: bool) -> io::Result<()> {
                Ok(())
            }
            fn deregister(&self, _: RawFd) -> io::Result<()> {
                Ok(())
            }
            fn wait(&self, out: &mut Vec<PollEvent>, _: i32) -> io::Result<usize> {
                out.clear();
                Ok(0)
            }
        }

        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let intake = IntakeQueue::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();

        let mut state = EventState {
            poller: OkPoller,
            conns: HashMap::new(),
            claimed: HashSet::new(),
            next_token: 2,
            max_connections: 4,
            queue_depth: 4,
            read_buf: vec![0u8; 64].into_boxed_slice(),
            metrics: &metrics,
            intake: &intake,
        };
        let mut conn = Conn::new(stream);
        conn.parked = true;
        state.conns.insert(1, conn);

        state.unpark_tick();

        let conn = state.conns.get(&1).expect("connection must stay live");
        assert!(!conn.parked, "drained connection still parked");
        drop(client);
    }
}
