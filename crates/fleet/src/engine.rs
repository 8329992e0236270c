//! The fleet engine: N independent plant+controller+fieldbus+MSPC
//! closed loops scheduled over the worker pool, streaming outcomes into
//! an aggregate report.
//!
//! Plants resolve their monitor either from one shared calibrated
//! [`DualMspc`] ([`FleetEngine::new`]) or per-cohort from a sharded
//! [`ModelStore`] ([`FleetEngine::with_store`]) — a single-cohort store
//! reproduces the shared-monitor fleet bit-for-bit.
//!
//! Every per-plant scenario is a pure function of the fleet
//! configuration (`plant_scenario`), so the verdict set is identical for
//! any thread count — the pool only changes *when* a plant runs, never
//! *what* it computes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use temspc::{DualMspc, Scenario, ScenarioKind, ScenarioOutcome};

use crate::checkpoint::{self, CheckpointError, FleetCheckpoint};
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::pool::WorkerPool;
use crate::report::{FleetReport, PlantRecord};
use crate::store::{ModelStore, PlantKey, ResolvedModel};

/// Where each plant's traffic comes from.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlantSource {
    /// Simulate each plant's closed loop live (the default).
    #[default]
    Live,
    /// Replay recorded wire captures from this directory: plant `i`
    /// scores `<dir>/plant_i.cap` (as written by
    /// [`record_fleet_captures`]) instead of re-simulating. The stored
    /// path is a `String` so the config stays serializable with the
    /// vendored serde.
    Replay(String),
}

/// Configuration of a fleet campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of plants to monitor.
    pub plants: usize,
    /// Worker threads (0 → one per CPU core, capped at 16).
    pub threads: usize,
    /// Simulated hours per plant.
    pub hours: f64,
    /// Hour at which each anomalous plant's anomaly starts.
    pub onset_hour: f64,
    /// Fraction of plants under attack (the rest split between IDV(6)
    /// disturbances and normal operation).
    pub attack_fraction: f64,
    /// Seed of the whole fleet; per-plant seeds are derived from it.
    pub fleet_seed: u64,
    /// Save a checkpoint every this many completed plants
    /// (0 → only at the end).
    pub checkpoint_every: usize,
    /// Chaos hook: plant indices whose job panics deliberately on every
    /// run (exercises the per-plant panic boundary; empty in production).
    pub inject_panic_plants: Vec<u32>,
    /// Traffic source: live simulation or recorded capture replay.
    pub source: PlantSource,
    /// Calibration cohorts when monitoring through a [`ModelStore`]:
    /// plant `i` resolves the model of cohort `i % cohorts`. With 1 (the
    /// default) every plant shares one cohort, matching the
    /// shared-monitor engine; ignored by [`FleetEngine::new`].
    pub cohorts: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            plants: 4,
            threads: 0,
            hours: 2.0,
            onset_hour: 0.5,
            attack_fraction: 0.25,
            fleet_seed: 2016,
            checkpoint_every: 8,
            inject_panic_plants: Vec::new(),
            source: PlantSource::Live,
            cohorts: 1,
        }
    }
}

/// One SplitMix64 step — the same mixer the RNG seeding uses, reused
/// here to derive decorrelated per-plant seeds from the fleet seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives plant `i`'s RNG seed from the fleet seed.
pub fn plant_seed(fleet_seed: u64, plant: usize) -> u64 {
    let mut state = fleet_seed ^ (plant as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let _ = splitmix64(&mut state);
    splitmix64(&mut state)
}

const ATTACKS: [ScenarioKind; 3] = [
    ScenarioKind::IntegrityXmv3,
    ScenarioKind::IntegrityXmeas1,
    ScenarioKind::DosXmv3,
];

/// The scenario plant `i` runs: a pure function of the configuration.
///
/// `round(attack_fraction × plants)` plants are attacked, spread evenly
/// over the index range (Bresenham), cycling through the three attack
/// kinds; the remaining plants alternate between the IDV(6) disturbance
/// and plain normal operation. Normal plants get an infinite onset so
/// every alarm they raise counts as a false alarm.
pub fn plant_scenario(config: &FleetConfig, plant: usize) -> Scenario {
    let n = config.plants.max(1);
    let attacked = ((config.attack_fraction * n as f64).round() as usize).min(n);
    // Bresenham spread: plant i is attacked iff the running total of
    // `attacked / n` crosses an integer at i.
    let is_attacked = |i: usize| (i + 1) * attacked / n > i * attacked / n;
    let kind = if is_attacked(plant) {
        let attack_rank = (0..plant).filter(|j| is_attacked(*j)).count();
        ATTACKS[attack_rank % ATTACKS.len()]
    } else {
        let clean_rank = (0..plant).filter(|j| !is_attacked(*j)).count();
        if clean_rank % 2 == 0 {
            ScenarioKind::Idv6
        } else {
            ScenarioKind::Normal
        }
    };
    let onset = if kind == ScenarioKind::Normal {
        f64::INFINITY
    } else {
        config.onset_hour
    };
    Scenario::short(
        kind,
        config.hours,
        onset,
        plant_seed(config.fleet_seed, plant),
    )
}

/// The capture file plant `i` reads (replay) or writes (recording).
fn capture_path(dir: &str, plant: usize) -> PathBuf {
    Path::new(dir).join(format!("plant_{plant}.cap"))
}

/// The store key plant `i` resolves its model under: cohort
/// `i % cohorts` (`cohorts` clamped to ≥ 1). The one plant → cohort
/// mapping: the fleet engine and the ingestion server both key the
/// store through it, so the same plant always scores against the same
/// calibration lineage on either front end.
pub fn plant_key(cohorts: usize, plant: usize) -> PlantKey {
    PlantKey::cohort(plant % cohorts.max(1))
}

/// Rejects a capture recorded under a different scenario than the one
/// this configuration derives for the plant — replaying someone else's
/// tape would silently produce a report about the wrong fleet.
fn validate_capture(plant: usize, recorded: &Scenario, expected: &Scenario) -> Result<(), String> {
    let matches = recorded.kind == expected.kind
        && recorded.seed == expected.seed
        && recorded.duration_hours == expected.duration_hours
        && recorded.onset_hour == expected.onset_hour;
    if matches {
        Ok(())
    } else {
        Err(format!(
            "plant {plant}: capture was recorded for {:?} (seed {}, {} h, onset {}), \
             but this fleet derives {:?} (seed {}, {} h, onset {})",
            recorded.kind,
            recorded.seed,
            recorded.duration_hours,
            recorded.onset_hour,
            expected.kind,
            expected.seed,
            expected.duration_hours,
            expected.onset_hour,
        ))
    }
}

/// Records every plant's fieldbus traffic into `<dir>/plant_i.cap`, so a
/// later campaign with [`PlantSource::Replay`] pointed at `dir` scores
/// the exact same traffic without re-simulating the fleet.
///
/// The scenarios recorded are derived from `config` exactly as
/// [`FleetEngine::run`] derives them (via [`plant_scenario`]), so the
/// replayed report matches a live run of the same configuration
/// bit-for-bit.
///
/// # Errors
///
/// Returns [`FleetError::Capture`] if a run or a file write fails.
pub fn record_fleet_captures(
    config: &FleetConfig,
    dir: impl AsRef<Path>,
) -> Result<(), FleetError> {
    let dir = dir.as_ref();
    for plant in 0..config.plants {
        let scenario = plant_scenario(config, plant);
        let capture = temspc::capture_scenario(&scenario)
            .map_err(|e| FleetError::Capture(format!("plant {plant}: {e}")))?;
        let path = dir.join(format!("plant_{plant}.cap"));
        temspc::persistence::save_capture(&capture, &path)
            .map_err(|e| FleetError::Capture(format!("{}: {e}", path.display())))?;
    }
    Ok(())
}

/// Errors from a fleet campaign.
#[derive(Debug)]
pub enum FleetError {
    /// Checkpoint I/O or validation failure.
    Checkpoint(CheckpointError),
    /// Recording or loading a capture failed.
    Capture(String),
    /// The campaign was interrupted by a cancellation signal
    /// ([`FleetEngine::with_cancel`]): in-flight plants drained, pending
    /// ones were skipped, and the checkpoint (if configured) holds every
    /// completed record — resume with the same configuration to finish.
    Interrupted {
        /// Plant records completed (and checkpointed) before the stop.
        completed: usize,
        /// Total plants the campaign was asked for.
        total: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Checkpoint(e) => write!(f, "{e}"),
            FleetError::Capture(msg) => write!(f, "capture failure: {msg}"),
            FleetError::Interrupted { completed, total } => write!(
                f,
                "campaign interrupted after {completed}/{total} plants \
                 (in-flight work drained; resume from the checkpoint to finish)"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Checkpoint(e) => Some(e),
            FleetError::Capture(_) | FleetError::Interrupted { .. } => None,
        }
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        FleetError::Checkpoint(e)
    }
}

/// Handles into the engine's metric family, shared by all workers.
struct FleetMetrics {
    scheduled: Counter,
    completed: Counter,
    failed: Counter,
    shutdowns: Counter,
    false_alarms: Counter,
    verdict_disturbance: Counter,
    verdict_intrusion: Counter,
    verdict_inconclusive: Counter,
    undetected: Counter,
    latency: Histogram,
}

impl FleetMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        FleetMetrics {
            scheduled: registry.counter(
                "fleet_plants_scheduled_total",
                "plants scheduled this campaign",
            ),
            completed: registry.counter("fleet_plants_completed_total", "plant jobs completed"),
            failed: registry.counter(
                "fleet_plants_failed_total",
                "plant jobs that panicked or whose run, capture or model resolution failed",
            ),
            shutdowns: registry.counter(
                "fleet_interlock_shutdowns_total",
                "plants tripped into safe shutdown by an interlock",
            ),
            false_alarms: registry.counter(
                "fleet_false_alarms_total",
                "alarms raised before anomaly onset",
            ),
            verdict_disturbance: registry.counter(
                "fleet_verdict_disturbance_total",
                "plants diagnosed as disturbances",
            ),
            verdict_intrusion: registry.counter(
                "fleet_verdict_intrusion_total",
                "plants diagnosed as intrusions",
            ),
            verdict_inconclusive: registry.counter(
                "fleet_verdict_inconclusive_total",
                "plants with inconclusive diagnoses",
            ),
            undetected: registry.counter(
                "fleet_undetected_total",
                "completed plants with no detection",
            ),
            latency: registry.histogram(
                "fleet_detection_latency_hours",
                "hours from anomaly onset to first detection",
                &[0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0],
            ),
        }
    }

    fn record(&self, record: &PlantRecord) {
        self.completed.inc();
        self.false_alarms.add(u64::from(record.false_alarms));
        if !record.completed {
            self.failed.inc();
            return;
        }
        if record.shutdown_hour.is_some() {
            self.shutdowns.inc();
        }
        match record.verdict {
            Some(temspc::Verdict::Disturbance) => self.verdict_disturbance.inc(),
            Some(temspc::Verdict::Intrusion) => self.verdict_intrusion.inc(),
            Some(temspc::Verdict::Inconclusive) => self.verdict_inconclusive.inc(),
            None => self.undetected.inc(),
        }
        if let Some(latency) = record.detection_latency_hours {
            self.latency.observe(latency);
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where plant monitors come from.
enum Models<'a> {
    /// One calibrated monitor shared by every plant.
    Shared(&'a DualMspc),
    /// Per-cohort monitors resolved through the sharded store.
    Store(&'a ModelStore),
}

/// A plant's resolved monitor plus the generation that identifies it in
/// checkpoints (0 = the shared monitor, which has no store lineage).
enum ResolvedMonitor<'a> {
    Shared(&'a DualMspc),
    Stored(ResolvedModel),
}

impl ResolvedMonitor<'_> {
    fn monitor(&self) -> &DualMspc {
        match self {
            ResolvedMonitor::Shared(m) => m,
            ResolvedMonitor::Stored(r) => &r.model,
        }
    }

    fn generation(&self) -> u64 {
        match self {
            ResolvedMonitor::Shared(_) => 0,
            ResolvedMonitor::Stored(r) => r.generation,
        }
    }
}

/// The concurrent multi-plant monitoring engine.
///
/// Resolves each plant's calibrated monitor (shared or per-cohort from a
/// [`ModelStore`]) and fans plant scenarios out over a [`WorkerPool`];
/// results stream back into an aggregate [`FleetReport`] and the
/// engine's [`MetricsRegistry`].
pub struct FleetEngine<'a> {
    models: Models<'a>,
    config: FleetConfig,
    registry: MetricsRegistry,
    checkpoint_path: Option<PathBuf>,
    /// Persistent workers, spawned once per engine (or shared via
    /// [`FleetEngine::with_pool`]); every [`FleetEngine::run`] call
    /// reuses them, so per-thread scoring scratches stay warm across
    /// campaigns.
    pool: WorkerPool,
    /// Cooperative cancellation flag ([`FleetEngine::with_cancel`]):
    /// once set, plants not yet started are skipped, in-flight plants
    /// drain normally, and [`FleetEngine::run`] checkpoints what it has
    /// before returning [`FleetError::Interrupted`].
    cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

impl<'a> FleetEngine<'a> {
    /// An engine over one shared calibrated monitor.
    pub fn new(monitor: &'a DualMspc, config: FleetConfig) -> Self {
        let pool = WorkerPool::new(config.threads);
        FleetEngine {
            models: Models::Shared(monitor),
            config,
            registry: MetricsRegistry::new(),
            checkpoint_path: None,
            pool,
            cancel: None,
        }
    }

    /// An engine resolving per-plant monitors through a sharded
    /// [`ModelStore`]: plant `i` scores against cohort
    /// `i % config.cohorts` (lazily calibrated on first use). With
    /// `cohorts = 1` and a store whose calibration matches the shared
    /// monitor's, the report reproduces [`FleetEngine::new`]
    /// bit-for-bit.
    pub fn with_store(store: &'a ModelStore, config: FleetConfig) -> Self {
        let pool = WorkerPool::new(config.threads);
        FleetEngine {
            models: Models::Store(store),
            config,
            registry: MetricsRegistry::new(),
            checkpoint_path: None,
            pool,
            cancel: None,
        }
    }

    /// Dispatches this engine's campaigns onto `pool` instead of its own
    /// workers — several engines (or calibration campaigns) can share one
    /// set of resident threads and their warmed per-thread caches. The
    /// pool's thread count takes precedence over `config.threads`.
    #[must_use]
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// The persistent worker pool this engine dispatches onto; clone it
    /// to drive other work (e.g. pooled calibration) on the same
    /// resident threads.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Enables periodic checkpointing to `path`; if the file already
    /// holds a checkpoint of this configuration, its plants are skipped
    /// on [`FleetEngine::run`] and their records merged into the report.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl AsRef<Path>) -> Self {
        self.checkpoint_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Installs a cooperative cancellation flag (typically set from a
    /// SIGINT/SIGTERM handler). Once the flag reads `true`, plants not
    /// yet started are skipped, in-flight plants drain normally, and
    /// [`FleetEngine::run`] flushes a checkpoint of every completed
    /// record before returning [`FleetError::Interrupted`].
    #[must_use]
    pub fn with_cancel(mut self, flag: &'a std::sync::atomic::AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The engine's metrics (counters, gauges, latency histogram).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Resolves the monitor plant `plant` scores against.
    fn resolve_monitor(&self, plant: usize) -> Result<ResolvedMonitor<'a>, String> {
        match &self.models {
            Models::Shared(monitor) => Ok(ResolvedMonitor::Shared(monitor)),
            Models::Store(store) => {
                let key = plant_key(self.config.cohorts, plant);
                store
                    .get(&key)
                    .map(ResolvedMonitor::Stored)
                    .map_err(|e| format!("model store key '{key}': {e}"))
            }
        }
    }

    /// Produces one plant's outcome from the configured source: a live
    /// closed-loop run, or a recorded capture scored offline. Both paths
    /// end in the same scoring code, so for a faithful capture the
    /// outcome is bit-identical either way.
    fn execute_plant(
        &self,
        monitor: &DualMspc,
        plant: usize,
        scenario: &Scenario,
    ) -> Result<ScenarioOutcome, String> {
        match &self.config.source {
            PlantSource::Live => monitor.run_scenario(scenario).map_err(|e| e.to_string()),
            PlantSource::Replay(dir) => {
                let path = capture_path(dir, plant);
                let capture = temspc::persistence::load_capture(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                validate_capture(plant, &capture.scenario, scenario)?;
                monitor
                    .score_capture(&capture)
                    .map_err(|e| format!("{}: {e}", path.display()))
            }
        }
    }

    /// Runs one plant job to a finished record. A panic anywhere in the
    /// job fails this plant alone: it is caught here and reported as the
    /// record's fault. (A rerun could only panic again — the job is a
    /// pure function of the plant's scenario.)
    fn run_plant(&self, plant: usize) -> PlantRecord {
        let scenario = plant_scenario(&self.config, plant);
        let job = || {
            if self.config.inject_panic_plants.contains(&(plant as u32)) {
                panic!("chaos: injected panic for plant {plant}");
            }
            let resolved = self.resolve_monitor(plant)?;
            let monitor = resolved.monitor();
            let outcome = self.execute_plant(monitor, plant, &scenario)?;
            let generation = resolved.generation();
            Ok::<_, String>(PlantRecord::scored(
                plant as u32,
                monitor,
                &outcome,
                None,
                generation,
            ))
        };
        let fault = match catch_unwind(AssertUnwindSafe(job)) {
            Ok(Ok(record)) => return record,
            Ok(Err(message)) => message,
            Err(payload) => panic_message(payload),
        };
        PlantRecord::failed(plant as u32, scenario.kind, scenario.seed, fault)
    }

    /// Runs the campaign: schedules every plant not already covered by
    /// the checkpoint, streams records into the report (checkpointing
    /// periodically), and returns the aggregate.
    ///
    /// The report is identical for any thread count: each record is a
    /// pure function of `(config, plant index)` and records are sorted
    /// by plant index.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] on checkpoint I/O or validation failure.
    pub fn run(&self) -> Result<FleetReport, FleetError> {
        let mut records: Vec<PlantRecord> = match &self.checkpoint_path {
            Some(path) => checkpoint::resume(path, &self.config)?,
            None => Vec::new(),
        };
        records.retain(|r| (r.plant as usize) < self.config.plants);
        if let Models::Store(store) = &self.models {
            // Resume consistency: only keep records scored by the model
            // generation the store currently serves for their cohort.
            // Records from an older generation (the key was re-calibrated
            // since the checkpoint) and failed records (generation 0)
            // re-run against the current model instead of mixing
            // calibrations inside one report.
            records.retain(|r| {
                let key = plant_key(self.config.cohorts, r.plant as usize);
                matches!(
                    store.generation_on_disk(&key),
                    Ok(Some(gen)) if gen == r.model_generation
                )
            });
        }
        let done: std::collections::BTreeSet<u32> = records.iter().map(|r| r.plant).collect();
        let pending: Vec<usize> = (0..self.config.plants)
            .filter(|i| !done.contains(&(*i as u32)))
            .collect();

        let metrics = FleetMetrics::register(&self.registry);
        metrics.scheduled.add(pending.len() as u64);
        let progress = self
            .registry
            .gauge("fleet_progress_ratio", "completed plants / total plants");
        progress.set(done.len() as f64 / self.config.plants.max(1) as f64);

        let mut since_checkpoint = 0usize;
        let mut checkpoint_failure: Option<CheckpointError> = None;
        let cancelled =
            || matches!(self.cancel, Some(flag) if flag.load(std::sync::atomic::Ordering::SeqCst));
        self.pool.run(
            pending.len(),
            |j| {
                if cancelled() {
                    None
                } else {
                    Some(self.run_plant(pending[j]))
                }
            },
            |_, record| {
                let Some(record) = record else { return };
                metrics.record(&record);
                records.push(record);
                progress.set(records.len() as f64 / self.config.plants.max(1) as f64);
                since_checkpoint += 1;
                if checkpoint_failure.is_none()
                    && self.config.checkpoint_every > 0
                    && since_checkpoint >= self.config.checkpoint_every
                {
                    since_checkpoint = 0;
                    if let Err(e) = self.save_checkpoint(&records) {
                        checkpoint_failure = Some(e);
                    }
                }
            },
        );
        if let Some(e) = checkpoint_failure {
            return Err(e.into());
        }
        if cancelled() && records.len() < self.config.plants {
            records.sort_by_key(|r| r.plant);
            self.save_checkpoint(&records)?;
            return Err(FleetError::Interrupted {
                completed: records.len(),
                total: self.config.plants,
            });
        }
        let report = FleetReport::new(records);
        if self.checkpoint_path.is_some() {
            self.save_checkpoint(&report.records)?;
        }
        Ok(report)
    }

    fn save_checkpoint(&self, records: &[PlantRecord]) -> Result<(), CheckpointError> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(());
        };
        let mut snapshot = FleetCheckpoint {
            config: self.config.clone(),
            records: records.to_vec(),
        };
        snapshot.records.sort_by_key(|r| r.plant);
        checkpoint::save(&snapshot, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temspc::CalibrationConfig;

    fn quick_monitor() -> DualMspc {
        DualMspc::calibrate(&CalibrationConfig {
            runs: 3,
            duration_hours: 1.0,
            record_every: 10,
            base_seed: 100,
            threads: 0,
        })
        .unwrap()
    }

    fn quick_config(plants: usize, threads: usize) -> FleetConfig {
        FleetConfig {
            plants,
            threads,
            hours: 1.0,
            onset_hour: 0.3,
            attack_fraction: 0.5,
            fleet_seed: 7,
            checkpoint_every: 0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn scenario_assignment_is_deterministic_and_spread() {
        let config = quick_config(8, 1);
        let kinds: Vec<ScenarioKind> = (0..8).map(|i| plant_scenario(&config, i).kind).collect();
        // Same config → same assignment.
        let again: Vec<ScenarioKind> = (0..8).map(|i| plant_scenario(&config, i).kind).collect();
        assert_eq!(kinds, again);
        // Half the plants are attacked (attack_fraction 0.5).
        let attacked = kinds.iter().filter(|k| k.is_attack()).count();
        assert_eq!(attacked, 4);
        // All three attack kinds appear.
        assert!(kinds.contains(&ScenarioKind::IntegrityXmv3));
        assert!(kinds.contains(&ScenarioKind::IntegrityXmeas1));
        assert!(kinds.contains(&ScenarioKind::DosXmv3));
        // Seeds are pairwise distinct.
        let mut seeds: Vec<u64> = (0..8).map(|i| plant_scenario(&config, i).seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn zero_attack_fraction_has_no_attacks() {
        let config = FleetConfig {
            attack_fraction: 0.0,
            ..quick_config(6, 1)
        };
        assert!((0..6).all(|i| !plant_scenario(&config, i).kind.is_attack()));
    }

    #[test]
    fn full_attack_fraction_attacks_everything() {
        let config = FleetConfig {
            attack_fraction: 1.0,
            ..quick_config(6, 1)
        };
        assert!((0..6).all(|i| plant_scenario(&config, i).kind.is_attack()));
    }

    #[test]
    fn normal_plants_have_infinite_onset() {
        let config = FleetConfig {
            attack_fraction: 0.0,
            ..quick_config(4, 1)
        };
        let normals: Vec<Scenario> = (0..4)
            .map(|i| plant_scenario(&config, i))
            .filter(|s| s.kind == ScenarioKind::Normal)
            .collect();
        assert!(!normals.is_empty());
        assert!(normals.iter().all(|s| s.onset_hour.is_infinite()));
    }

    #[test]
    fn replayed_fleet_matches_live_fleet() {
        let monitor = quick_monitor();
        let dir = std::env::temp_dir().join("temspc_fleet_replay_test");
        let _ = std::fs::remove_dir_all(&dir);
        let config = quick_config(3, 2);
        record_fleet_captures(&config, &dir).unwrap();

        let live = FleetEngine::new(&monitor, config.clone()).run().unwrap();
        let replay_config = FleetConfig {
            source: PlantSource::Replay(dir.to_string_lossy().into_owned()),
            ..config
        };
        let replayed = FleetEngine::new(&monitor, replay_config).run().unwrap();
        assert_eq!(live.records.len(), replayed.records.len());
        for (a, b) in live.records.iter().zip(&replayed.records) {
            assert_eq!(a.plant, b.plant);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.false_alarms, b.false_alarms);
            assert_eq!(
                a.detection_latency_hours.map(f64::to_bits),
                b.detection_latency_hours.map(f64::to_bits)
            );
            assert_eq!(
                a.shutdown_hour.map(f64::to_bits),
                b.shutdown_hour.map(f64::to_bits)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_with_missing_captures_fails_the_plants_not_the_fleet() {
        let monitor = quick_monitor();
        let config = FleetConfig {
            source: PlantSource::Replay("/nonexistent/temspc/captures".into()),
            ..quick_config(2, 1)
        };
        let report = FleetEngine::new(&monitor, config).run().unwrap();
        assert_eq!(report.failed_plants().len(), 2);
        assert!(report.records.iter().all(|r| !r.completed));
        assert!(report.records[0]
            .fault
            .as_deref()
            .is_some_and(|f| f.contains("plant_0.cap")));
    }

    #[test]
    fn replaying_the_wrong_tape_is_rejected() {
        let monitor = quick_monitor();
        let dir = std::env::temp_dir().join("temspc_fleet_wrong_tape_test");
        let _ = std::fs::remove_dir_all(&dir);
        let config = quick_config(1, 1);
        record_fleet_captures(&config, &dir).unwrap();
        // Same capture files, different fleet seed → scenario mismatch.
        let wrong = FleetConfig {
            fleet_seed: config.fleet_seed + 1,
            source: PlantSource::Replay(dir.to_string_lossy().into_owned()),
            ..config
        };
        let report = FleetEngine::new(&monitor, wrong).run().unwrap();
        assert!(!report.records[0].completed);
        assert!(report.records[0]
            .fault
            .as_deref()
            .is_some_and(|f| f.contains("recorded for")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_set_cancel_flag_interrupts_and_checkpoints_completed_work() {
        let monitor = quick_monitor();
        let path = std::env::temp_dir().join("temspc_fleet_cancel_test.tpb");
        let _ = std::fs::remove_file(&path);
        let config = quick_config(3, 1);
        let flag = std::sync::atomic::AtomicBool::new(true);
        let engine = FleetEngine::new(&monitor, config.clone())
            .with_checkpoint(&path)
            .with_cancel(&flag);
        match engine.run() {
            Err(FleetError::Interrupted { completed, total }) => {
                assert_eq!(completed, 0);
                assert_eq!(total, 3);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // Clearing the flag resumes from the checkpoint to a full report.
        flag.store(false, std::sync::atomic::Ordering::SeqCst);
        let report = engine.run().unwrap();
        assert_eq!(report.records.len(), 3);
        assert!(report.failed_plants().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn small_fleet_produces_full_report_and_metrics() {
        let monitor = quick_monitor();
        let engine = FleetEngine::new(&monitor, quick_config(4, 2));
        let report = engine.run().unwrap();
        assert_eq!(report.records.len(), 4);
        assert!(report.failed_plants().is_empty());
        let text = engine.metrics().expose();
        assert!(text.contains("fleet_plants_completed_total 4"));
        assert!(text.contains("fleet_progress_ratio 1"));
    }
}
