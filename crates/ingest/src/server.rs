//! The ingestion server: one thread runs a non-blocking event loop over
//! many concurrent plant connections and scores each turn's reassembled
//! steps on the persistent [`WorkerPool`].
//!
//! # Architecture
//!
//! ```text
//!              one turn of the loop (one thread)
//!  epoll ──► accept ──► ≤ 1 read per ready conn ──► StreamParser → steps on Conn
//!    ▲                  (64 KiB, torn-read reassembly)                │
//!    │                                                                ▼
//!    └──── finalize EOF conns ◄── emit incidents ◄── WorkerPool: StreamScorer per conn
//! ```
//!
//! * **Backpressure** comes from bounded reads: each turn reads at most
//!   one 64 KiB buffer per connection and scores it before the next
//!   turn. Epoll is level-triggered, so bytes left unread stay in the
//!   kernel buffer and come back on the next turn; a peer that sends
//!   faster than the server scores fills that buffer and then its TCP
//!   window closes. No step is ever taken off the wire and dropped.
//! * **Bit-identical scoring**: each connection's steps go through a
//!   [`StreamScorer`] — the exact scoring path `score_capture` and
//!   `run_scenario` use — so a detection served off the wire equals the
//!   offline replay of the same tape, digest for digest.
//! * **Per-plant models**: a store-backed server resolves each
//!   connection's cohort monitor through the sharded [`ModelStore`]
//!   before its first steps are scored (LRU residency, calibrate-on-miss,
//!   hot reload on generation bump), so no plant is scored against
//!   another regime's control limits. The generation used is pinned for
//!   the connection's lifetime and recorded in its report.
//! * **Live incidents**: an optional sink streams line-framed
//!   `key=value` events (detections as their block flushes, the final
//!   verdict, faults) the moment they fire, instead of only a report at
//!   drain.
//! * **Graceful shutdown**: when the stop flag is set, the loop stops
//!   accepting and reading; every step already read has been scored, so
//!   each open connection is reported as interrupted and the final
//!   [`IngestReport`] returned (which `temspc ingest serve` flushes
//!   atomically to a TPB file).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use temspc::{AnomalousEvent, DualMspc, ScenarioKind, StreamScorer};
use temspc_fieldbus::{CaptureRecord, ReplayLink, ReplayStep, TapPoint};
use temspc_fleet::{
    plant_key, Counter, FleetReport, Gauge, Histogram, MetricsRegistry, ModelStore, PlantKey,
    PlantRecord, WorkerPool,
};
use temspc_persist::{FileError, FileKind};

use crate::poller::Poller;
use crate::stream::{Hello, StreamEvent, StreamParser};

/// Configuration of the ingestion server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Listen address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Concurrent connection cap; further accepts are refused.
    pub max_connections: usize,
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
    reassembly_errors_total: Counter,
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
            reassembly_errors_total: registry.counter(
                "ingest_reassembly_errors_total",
                "connections killed by framing, reassembly or scoring errors",
            ),
            batch_latency: registry.histogram(
                "ingest_batch_queue_latency_seconds",
                "time a connection's first step of a turn waited between its read and scoring",
                &[0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0],
            ),
        }
    }
}

/// Where the server's per-connection monitors come from.
enum ModelSource<'m> {
    /// Every connection scores against one shared monitor; reports
    /// carry `model_generation` 0.
    Shared(&'m DualMspc),
    /// Each connection resolves its cohort's monitor (the fleet's
    /// [`plant_key`] mapping) through the sharded store.
    Store {
        store: &'m ModelStore,
        /// Cohort count for the plant → key mapping; must match the
        /// fleet's `--cohorts` for digests to line up.
        cohorts: usize,
    },
}

/// Pins every store-resolved monitor in memory for the lifetime of one
/// serving session, handing out plain `&DualMspc` borrows the scorers
/// can hold across turns of the loop.
///
/// The store returns `Arc<DualMspc>` and may evict under LRU pressure;
/// a [`StreamScorer`] wants a plain borrow. Holding the `Arc` inside
/// each connection alongside its scorer would make the connection
/// self-referential, so instead the arena owns every `(key, generation)`
/// model resolved during the session — bounded by cohorts × generations,
/// not by connections — and the scorers borrow from the arena.
#[derive(Default)]
struct ModelPin {
    pinned: RefCell<Vec<(PlantKey, u64, Arc<DualMspc>)>>,
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
        let mut pinned = self.pinned.borrow_mut();
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
        // (it is dropped only after the serving session ends).
        Ok((unsafe { &*Arc::as_ptr(arc) }, generation))
    }
}

/// Live incident sink: line-framed `key=value` events appended to the
/// configured file, flushed per line so the stream can be tailed while
/// the server runs.
struct IncidentSink {
    out: File,
    emitted: Counter,
    write_errors: Counter,
}

impl IncidentSink {
    fn open(path: &str, registry: &MetricsRegistry) -> io::Result<Self> {
        Ok(IncidentSink {
            out: File::create(path)?,
            emitted: registry.counter("ingest_incidents_total", "live incident events emitted"),
            write_errors: registry.counter(
                "ingest_incident_write_errors_total",
                "incident lines the sink failed to write or flush",
            ),
        })
    }

    fn emit(&self, line: &str) {
        // A sink write failure must never take down scoring; it is
        // counted instead, so a dead sink stays visible in the metrics.
        let mut out = &self.out;
        if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
            self.write_errors.inc();
        }
        self.emitted.inc();
    }

    /// Emits one `event=detection` line per detection that surfaced on a
    /// level since the last emission, advancing the per-level cursor.
    fn emit_new_detections(
        &self,
        plant: u32,
        generation: u64,
        level: &str,
        events: &[AnomalousEvent],
        seen: &mut usize,
    ) {
        for event in &events[*seen..] {
            self.emit(&format!(
                "event=detection plant={plant} level={level} detected_hour={:.6} \
                 first_violation_hour={:.6} generation={generation}",
                event.detected_hour, event.first_violation_hour
            ));
        }
        *seen = events.len();
    }

    /// Emits a finalized connection's verdict, or its fault.
    fn emit_record(&self, record: &PlantRecord) {
        match &record.fault {
            None => self.emit(&format!(
                "event=verdict plant={} kind={} verdict={} latency_hours={} \
                 false_alarms={} digest={:016x} generation={}",
                record.plant,
                record.kind.id(),
                record
                    .verdict
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
                record
                    .detection_latency_hours
                    .map_or_else(|| "-".to_string(), |h| format!("{h:.6}")),
                record.false_alarms,
                record.digest,
                record.model_generation,
            )),
            Some(fault) => self.emit(&format!(
                "event=fault plant={} fault=\"{fault}\"",
                record.plant
            )),
        }
    }
}

/// One plant connection: its socket and reassembly state, the steps
/// read this turn, and the scorer they go to.
struct Conn<'p> {
    stream: TcpStream,
    parser: StreamParser,
    /// Records of the step currently being reassembled (0..4).
    pending_step: Vec<CaptureRecord>,
    hello: Option<Hello>,
    /// Plant id this connection holds the live claim for (`None` until
    /// the handshake lands — or forever, for a duplicate claimant whose
    /// close must not release the rightful owner's claim).
    claimed_plant: Option<u32>,
    /// Steps reassembled this turn, scored before the turn ends.
    steps: Vec<ReplayStep>,
    /// When the first of `steps` was reassembled (queue-latency
    /// observation point).
    read_at: Option<Instant>,
    /// Created, with its monitor resolved, before the first steps score.
    scorer: Option<StreamScorer<'p>>,
    /// The monitor the scorer borrows — needed again at finalize.
    monitor: Option<&'p DualMspc>,
    /// Store generation that produced `monitor` (0 = shared path).
    generation: u64,
    /// Per-level incident cursors: detections already emitted.
    seen_events: (usize, usize),
    /// The first fault; a faulted connection is finalized as failed.
    fault: Option<String>,
    /// No more reads: end of stream or fault. Finalized this turn.
    closed: bool,
}

impl<'p> Conn<'p> {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            parser: StreamParser::new(),
            pending_step: Vec::with_capacity(TapPoint::STEP_ORDER.len()),
            hello: None,
            claimed_plant: None,
            steps: Vec::new(),
            read_at: None,
            scorer: None,
            monitor: None,
            generation: 0,
            seen_events: (0, 0),
            fault: None,
            closed: false,
        }
    }

    /// Closes the connection with `fault`, unless an earlier fault
    /// already explains it.
    fn fail(&mut self, fault: String) {
        self.fault.get_or_insert(fault);
        self.closed = true;
    }

    /// Makes at most one read into `buf` and reassembles what it
    /// brought; a failed read or a protocol error fails the connection.
    fn read(&mut self, buf: &mut [u8], claimed: &mut HashSet<u32>, metrics: &IngestMetrics) {
        let fault = match self.stream.read(buf) {
            Ok(0) => {
                self.closed = true;
                return;
            }
            Ok(n) => {
                metrics.bytes_total.add(n as u64);
                self.parser.feed(&buf[..n]);
                match self.drain_parser(claimed, metrics) {
                    Ok(()) => return,
                    Err(fault) => fault,
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return
            }
            Err(e) => format!("socket read failed: {e}"),
        };
        metrics.reassembly_errors_total.inc();
        self.fail(fault);
    }

    /// Drains every complete parser event, checking the handshake's
    /// plant claim and reassembling steps. Returns the fault message on
    /// the first protocol/reassembly error.
    fn drain_parser(
        &mut self,
        claimed: &mut HashSet<u32>,
        metrics: &IngestMetrics,
    ) -> Result<(), String> {
        loop {
            match self.parser.next_event() {
                Ok(None) => return Ok(()),
                Ok(Some(StreamEvent::Hello(hello))) => {
                    let plant = hello.plant;
                    // Store the hello before the claim check so a
                    // duplicate claimant's report still names the plant
                    // it attempted.
                    self.hello = Some(hello);
                    if !claimed.insert(plant) {
                        return Err(format!(
                            "plant id {plant} already claimed by a live connection"
                        ));
                    }
                    self.claimed_plant = Some(plant);
                }
                Ok(Some(StreamEvent::Record(record))) => {
                    metrics.frames_total.inc();
                    self.pending_step.push(record);
                    if self.pending_step.len() < TapPoint::STEP_ORDER.len() {
                        continue;
                    }
                    // Reuse the replay grammar for step reassembly: tap
                    // order, frame-kind direction, hour/seq/width
                    // agreement — the same strictness an offline tape
                    // replay gets.
                    let step = match ReplayLink::new(&self.pending_step).next() {
                        Some(Ok(step)) => step,
                        Some(Err(e)) => return Err(format!("step reassembly failed: {e}")),
                        None => unreachable!("four records always yield one result"),
                    };
                    self.pending_step.clear();
                    metrics.steps_total.inc();
                    self.read_at.get_or_insert_with(Instant::now);
                    self.steps.push(step);
                }
                Err(e) => return Err(format!("stream error: {e}")),
            }
        }
    }

    /// Creates the scorer on first use: the shared monitor (generation
    /// 0), or the plant's cohort model pinned out of the store. Resolving
    /// once per connection means an in-flight stream keeps its generation
    /// across a mid-session hot reload while the next connection picks
    /// the bumped one up.
    fn ensure_scorer(&mut self, source: &ModelSource<'p>, pin: &'p ModelPin) -> Result<(), String> {
        if self.scorer.is_some() {
            return Ok(());
        }
        // Unreachable (the parser emits Hello first), kept as a fault
        // rather than a panic.
        let hello = self
            .hello
            .as_ref()
            .ok_or("steps arrived before the handshake")?;
        let (monitor, generation) = match source {
            ModelSource::Shared(monitor) => (*monitor, 0),
            ModelSource::Store { store, cohorts } => {
                pin.resolve(store, &plant_key(*cohorts, hello.plant as usize))?
            }
        };
        self.monitor = Some(monitor);
        self.generation = generation;
        self.scorer = Some(monitor.stream_scorer(hello.scenario.onset_hour));
        Ok(())
    }

    /// Pushes this turn's steps through the scorer; runs on a pool
    /// worker. Returns the scoring fault, if a step was rejected.
    fn score_steps(&mut self) -> Option<String> {
        let scorer = self.scorer.as_mut().expect("scorer ensured before scoring");
        let fault = self
            .steps
            .iter()
            .find_map(|step| scorer.push_step(step).err())
            .map(|e| format!("scoring rejected a step: {e}"));
        self.steps.clear();
        fault
    }

    /// Folds the connection into its report record.
    fn into_record(self) -> PlantRecord {
        match (self.hello, self.scorer, self.fault) {
            (Some(hello), Some(scorer), None) => {
                let monitor = self.monitor.expect("a live scorer has its monitor");
                let steps = scorer.steps() as u64;
                let outcome = scorer.finish(hello.scenario, None);
                PlantRecord::scored(hello.plant, monitor, &outcome, Some(steps), self.generation)
            }
            (hello, scorer, fault) => {
                let (plant, kind, seed) = hello.map_or((u32::MAX, ScenarioKind::Normal, 0), |h| {
                    (h.plant, h.scenario.kind, h.scenario.seed)
                });
                let fault =
                    fault.unwrap_or_else(|| "connection closed before any complete step".into());
                PlantRecord {
                    steps: scorer.map_or(0, |s| s.steps() as u64),
                    model_generation: self.generation,
                    ..PlantRecord::failed(plant, kind, seed, fault)
                }
            }
        }
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
    /// each connection's monitor through `store` under the fleet's
    /// plant → cohort key ([`plant_key`]). The resolved generation is
    /// pinned for the connection's lifetime and recorded in its report.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failure.
    pub fn bind_with_store(
        store: &'m ModelStore,
        cohorts: usize,
        config: IngestConfig,
    ) -> io::Result<Self> {
        Self::bind_source(ModelSource::Store { store, cohorts }, config)
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
    /// have been fully scored), then reports every connection still open
    /// as interrupted and returns the session report.
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
        self.listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(self.listener.as_raw_fd(), 0)?;

        let mut session = Session {
            poller,
            conns: HashMap::new(),
            claimed: HashSet::new(),
            next_token: 1,
            read_buf: vec![0u8; 65536].into_boxed_slice(),
            reports: Vec::new(),
            source: &self.source,
            pin: &pin,
            incidents: incidents.as_ref(),
            metrics: &metrics,
        };
        let max_connections = self.config.max_connections.max(1);
        let mut events = Vec::new();
        while !stop.load(Ordering::SeqCst)
            && self
                .config
                .expect
                .is_none_or(|expected| session.reports.len() < expected)
        {
            session.poller.wait(&mut events, 5)?;
            for &event in &events {
                if event.token == 0 {
                    session.accept_ready(&self.listener, max_connections);
                } else if event.readable || event.closed {
                    session.read(event.token);
                }
            }
            session.score(&self.pool);
            session.finalize_closed();
        }
        // Every step read has been scored; what is still open was cut
        // off mid-stream.
        for conn in session.conns.values_mut() {
            conn.fail("server stopped while the stream was live".into());
        }
        session.finalize_closed();

        let mut connections = session.reports;
        connections.sort_by_key(|c| c.plant);
        Ok(IngestReport {
            connections,
            frames: metrics.frames_total.get(),
            steps: metrics.steps_total.get(),
            bytes: metrics.bytes_total.get(),
            reassembly_errors: metrics.reassembly_errors_total.get(),
        })
    }
}

/// The serving session's mutable world, factored out so each step of a
/// turn reads as a method instead of parameter soup.
struct Session<'p> {
    poller: Poller,
    /// Live connections by token (the listener is token 0).
    conns: HashMap<usize, Conn<'p>>,
    /// Plant ids claimed by live connections: one live stream per plant,
    /// so two peers cannot both claim plant 7 and produce ambiguous
    /// reports. Released when the claiming connection is finalized.
    claimed: HashSet<u32>,
    next_token: usize,
    /// Socket read buffer shared by every connection's reads.
    read_buf: Box<[u8]>,
    /// Records of finalized connections.
    reports: Vec<PlantRecord>,
    source: &'p ModelSource<'p>,
    pin: &'p ModelPin,
    incidents: Option<&'p IncidentSink>,
    metrics: &'p IngestMetrics,
}

impl<'p> Session<'p> {
    fn accept_ready(&mut self, listener: &TcpListener, max_connections: usize) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // `connections_total` counts only connections that
                    // make it into the loop; refused attempts count in
                    // `refused_total` alone, so
                    // attempts = connections_total + refused_total.
                    if self.conns.len() >= max_connections {
                        self.metrics.refused_total.inc();
                        drop(stream);
                        continue;
                    }
                    let token = self.next_token;
                    if stream.set_nonblocking(true).is_err()
                        || self.poller.register(stream.as_raw_fd(), token).is_err()
                    {
                        self.metrics.refused_total.inc();
                        continue;
                    }
                    self.next_token += 1;
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
    }

    fn read(&mut self, token: usize) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.read(&mut self.read_buf, &mut self.claimed, self.metrics);
        }
    }

    /// Scores every connection's steps from this turn in one pool run,
    /// emitting detections as their blocks flush.
    fn score(&mut self, pool: &WorkerPool) {
        let mut jobs: Vec<Mutex<&mut Conn<'p>>> = Vec::new();
        for conn in self.conns.values_mut() {
            let Some(read_at) = conn.read_at.take() else {
                continue;
            };
            self.metrics
                .batch_latency
                .observe(read_at.elapsed().as_secs_f64());
            match conn.ensure_scorer(self.source, self.pin) {
                Ok(()) => jobs.push(Mutex::new(conn)),
                // Store resolution failed (I/O, torn file, failed
                // calibrate-on-miss): the connection fails, the server
                // lives.
                Err(fault) => conn.fail(fault),
            }
        }
        let (metrics, incidents) = (self.metrics, self.incidents);
        pool.run(
            jobs.len(),
            |j| lock(&jobs[j]).score_steps(),
            |j, fault| {
                let mut guard = lock(&jobs[j]);
                let conn = &mut **guard;
                if let Some(fault) = fault {
                    metrics.reassembly_errors_total.inc();
                    conn.fail(fault);
                } else if let (Some(sink), Some(scorer), Some(hello)) =
                    (incidents, &conn.scorer, &conn.hello)
                {
                    let (controller, process) = scorer.events();
                    let (plant, generation) = (hello.plant, conn.generation);
                    let seen = &mut conn.seen_events;
                    sink.emit_new_detections(
                        plant,
                        generation,
                        "controller",
                        controller,
                        &mut seen.0,
                    );
                    sink.emit_new_detections(plant, generation, "process", process, &mut seen.1);
                }
            },
        );
    }

    /// Retires every closed connection: deregisters the socket, releases
    /// its plant claim, diagnoses a tear if the wire died mid-message or
    /// mid-step, and reports it.
    fn finalize_closed(&mut self) {
        let closed: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.closed)
            .map(|(&token, _)| token)
            .collect();
        for token in closed {
            let mut conn = self.conns.remove(&token).expect("token just listed");
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.metrics.connections_current.dec();
            // Release the plant claim so a reconnecting plant can resume.
            // (A duplicate-claim connection never set `claimed_plant`, so
            // closing it leaves the rightful owner's claim in place.)
            if let Some(plant) = conn.claimed_plant {
                self.claimed.remove(&plant);
            }
            if conn.fault.is_none()
                && (conn.parser.pending_bytes() > 0 || !conn.pending_step.is_empty())
            {
                self.metrics.reassembly_errors_total.inc();
                conn.fault = Some(format!(
                    "connection closed mid-stream ({} bytes and {} frames of an \
                     unfinished step pending)",
                    conn.parser.pending_bytes(),
                    conn.pending_step.len()
                ));
            }
            let record = conn.into_record();
            if let Some(sink) = self.incidents {
                sink.emit_record(&record);
            }
            self.reports.push(record);
        }
    }
}
