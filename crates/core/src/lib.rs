//! # temspc — distinguishing process disturbances from intrusions with
//! dual-level MSPC
//!
//! A full reproduction of *"On the Feasibility of Distinguishing Between
//! Process Disturbances and Intrusions in Process Control Systems Using
//! Multivariate Statistical Process Control"* (Iturbe et al., DSN 2016),
//! built on:
//!
//! * [`temspc_tesim`] — a Tennessee-Eastman-like plant (41 XMEAS, 12 XMV,
//!   20 IDV, safety interlocks),
//! * [`temspc_control`] — a Ricker-style decentralized control layer,
//! * [`temspc_fieldbus`] — an insecure fieldbus with a man-in-the-middle
//!   adversary (integrity and DoS attacks),
//! * [`temspc_mspc`] — PCA-based MSPC: T²/SPE charts, control limits, the
//!   3-consecutive detector and oMEDA diagnosis.
//!
//! The crate adds the paper's pipeline: closed-loop **scenarios**
//! ([`Scenario`]), a **runner** that records the controller-level and
//! process-level views simultaneously ([`ClosedLoopRunner`]), **dual-level
//! calibration and monitoring** ([`DualMspc`]) and **diagnosis**
//! ([`diagnosis`]) that compares the two levels' oMEDA vectors to decide
//! *disturbance vs. intrusion*. The [`experiments`] module regenerates
//! every figure and table of the paper.
//!
//! # Quickstart
//!
//! ```no_run
//! use temspc::{CalibrationConfig, DualMspc, Scenario, ScenarioKind};
//!
//! // Calibrate the dual-level MSPC model on normal operation (abbreviated
//! // here; the paper uses 30 runs of 72 h).
//! let calib = CalibrationConfig {
//!     runs: 2,
//!     duration_hours: 2.0,
//!     ..CalibrationConfig::default()
//! };
//! let monitor = DualMspc::calibrate(&calib).unwrap();
//!
//! // Run the paper's scenario (b): integrity attack closing valve XMV(3).
//! let scenario = Scenario::paper(ScenarioKind::IntegrityXmv3, 42);
//! let outcome = monitor.run_scenario(&scenario).unwrap();
//! println!("detected: {:?}", outcome.detection);
//! ```

#![warn(missing_docs)]

pub mod ascii_plot;
mod calibration;
pub mod capture;
pub mod csv;
pub mod diagnosis;
pub mod experiments;
mod monitor;
mod names;
pub mod netmon;
pub mod persistence;
pub mod report;
mod runner;
mod scenario;

pub use calibration::{
    calibration_scenario, collect_calibration_data, run_calibration_scenario,
    stack_calibration_runs, CalibrationConfig,
};
pub use capture::{capture_scenario, CaptureError, ScenarioCapture, StreamScorer};
pub use diagnosis::{AnomalyDiagnosis, Verdict};
pub use monitor::{DetectionSummary, DualMspc, MonitorConfig, ScenarioOutcome};
pub use names::{variable_description, variable_name, xmeas_index, xmv_index, N_MONITORED};
pub use netmon::{NetworkMonitor, NetworkOutcome};
pub use report::incident_report;
pub use runner::{ClosedLoopRunner, RunData, RunError, RunScratch, StepSample};
pub use scenario::{Scenario, ScenarioKind};
// Re-exported so downstream consumers of `StreamScorer::events` (the
// live incident stream) can name the event type without a direct
// `temspc-mspc` dependency.
pub use temspc_mspc::AnomalousEvent;
// Re-exported so per-plant reports can turn a run's end hour into its
// step count without a direct `temspc-tesim` dependency.
pub use temspc_tesim::SAMPLES_PER_HOUR;
