//! # temspc-fleet — concurrent multi-plant monitoring
//!
//! The paper evaluates one plant at a time; an operator of a real
//! control network watches many. This crate scales the dual-level MSPC
//! monitor to a *fleet*: N independent plant+controller+fieldbus closed
//! loops run concurrently over a worker pool, share one calibrated
//! [`temspc::DualMspc`], and stream their outcomes into an aggregate
//! report — a confusion matrix of disturbance-vs-intrusion verdicts plus
//! detection-latency statistics.
//!
//! Modules:
//!
//! * [`pool`] — a reusable scoped-thread worker pool with bounded result
//!   channels (backpressure) and index-keyed jobs (deterministic
//!   reassembly for any thread count);
//! * [`engine`] — the fleet scheduler: derives each plant's scenario
//!   deterministically from the fleet seed, fans jobs out, aggregates;
//!   a panicking plant job fails that plant alone;
//! * [`metrics`] — an atomics-based metrics registry (counters, gauges,
//!   latency histograms) with Prometheus-style text exposition;
//! * [`checkpoint`] — periodic fleet snapshots in the TPB format and
//!   resume;
//! * [`report`] — the per-plant record (one builder for fleet and
//!   served plants alike, with its [`detection_digest`]) and the
//!   aggregate fleet report;
//! * [`calibrate`] — the pooled calibration campaign, byte-identical to
//!   the sequential one in `temspc`;
//! * [`store`] — the sharded per-plant calibration store: keyed TPB
//!   persistence, bounded LRU residency, hot reload, and deterministic
//!   calibrate-on-miss.
//!
//! ```no_run
//! use temspc::{CalibrationConfig, DualMspc};
//! use temspc_fleet::{FleetConfig, FleetEngine};
//!
//! let monitor = DualMspc::calibrate(&CalibrationConfig::quick()).unwrap();
//! let config = FleetConfig {
//!     plants: 8,
//!     attack_fraction: 0.25,
//!     ..FleetConfig::default()
//! };
//! let report = FleetEngine::new(&monitor, config).run().unwrap();
//! println!("{report}");
//! ```

#![warn(missing_docs)]

pub mod calibrate;
pub mod checkpoint;
pub mod engine;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod store;

pub use calibrate::{
    calibrate, collect_calibration_data_pooled, collect_calibration_data_pooled_on, CalibrateError,
};
pub use checkpoint::{CheckpointError, FleetCheckpoint};
pub use engine::{
    plant_key, plant_scenario, plant_seed, record_fleet_captures, FleetConfig, FleetEngine,
    FleetError, PlantSource,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use pool::WorkerPool;
pub use report::{detection_digest, FleetReport, Outcome, PlantRecord, Truth};
pub use store::{ModelStore, PlantKey, ResolvedModel, StoreConfig, StoreError};

/// Compile-time assertion that `T` can be shared across the pool's
/// worker threads.
pub const fn assert_send_sync<T: Send + Sync>() {}

// The types the fleet moves between threads must stay thread-safe; a
// `Rc`/`RefCell` slipping into one of them should fail the build here,
// not in a distant generic bound.
const _: () = {
    assert_send_sync::<temspc::DualMspc>();
    assert_send_sync::<temspc::Scenario>();
    assert_send_sync::<temspc::ScenarioKind>();
    assert_send_sync::<temspc::Verdict>();
    assert_send_sync::<temspc::CalibrationConfig>();
    assert_send_sync::<temspc::MonitorConfig>();
    assert_send_sync::<temspc_linalg::Matrix>();
    assert_send_sync::<FleetConfig>();
    assert_send_sync::<PlantRecord>();
    assert_send_sync::<FleetReport>();
    assert_send_sync::<FleetCheckpoint>();
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<WorkerPool>();
    assert_send_sync::<ModelStore>();
    assert_send_sync::<PlantKey>();
};
