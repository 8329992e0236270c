//! Shared fixtures for the `temspc` benchmark suite.
//!
//! Each bench regenerates one figure/table of the paper at a reduced
//! scale (the full-scale campaign lives in
//! `examples/paper_experiments.rs`); the `micro_*` benches time the hot
//! kernels (plant step, control scan, MSPC scoring, oMEDA, frame codec).

use temspc::experiments::ExperimentContext;
use temspc::{CalibrationConfig, DualMspc, MonitorConfig};

/// A reduced-scale experiment context for benches: 2 calibration runs of
/// 1 h, one run per scenario of 1.2 h, onset at 0.5 h.
pub fn bench_context(results_dir: &str) -> ExperimentContext {
    let monitor = DualMspc::calibrate_with(
        &CalibrationConfig {
            runs: 2,
            duration_hours: 1.0,
            record_every: 10,
            base_seed: 1_000,
            threads: 0,
        },
        MonitorConfig::default(),
    )
    .expect("bench calibration");
    ExperimentContext {
        results_dir: std::env::temp_dir().join(results_dir),
        scenario_runs: 1,
        duration_hours: 1.2,
        onset_hour: 0.5,
        base_seed: 42,
        monitor,
    }
}
