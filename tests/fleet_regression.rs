//! Regression lock on the fleet report: the batched scoring hot path
//! must produce reports byte-identical to the original one-row-at-a-time
//! scalar path.
//!
//! The golden digest below was generated from the pre-kernel scalar
//! implementation (PR 1 state). Every field that depends on scoring —
//! detection latencies (exact f64 bits), false-alarm counts, verdicts,
//! shutdown hours — is locked. If a kernel or scoring change alters any
//! floating-point result anywhere in the projection → T²/SPE → detector →
//! oMEDA → verdict pipeline, this test fails.
//!
//! To regenerate after an *intentional* numeric change, run:
//! `TEMSPC_PRINT_GOLDEN=1 cargo test -p temspc-fleet --test fleet_regression -- --nocapture`

use temspc::{CalibrationConfig, DualMspc, Verdict};
use temspc_fleet::{FleetConfig, FleetEngine, FleetReport, PlantSource};

fn monitor() -> DualMspc {
    DualMspc::calibrate(&CalibrationConfig {
        runs: 2,
        duration_hours: 0.5,
        record_every: 10,
        base_seed: 100,
        threads: 0,
    })
    .unwrap()
}

fn config() -> FleetConfig {
    FleetConfig {
        plants: 6,
        threads: 2,
        hours: 1.0,
        onset_hour: 0.3,
        attack_fraction: 0.5,
        fleet_seed: 4242,
        checkpoint_every: 0,
        inject_panic_plants: Vec::new(),
        source: PlantSource::Live,
        cohorts: 1,
    }
}

/// Bit-exact digest of everything scoring-dependent in the report.
fn digest(report: &FleetReport) -> String {
    report
        .records
        .iter()
        .map(|r| {
            let verdict = match r.verdict {
                Some(Verdict::Disturbance) => "disturbance",
                Some(Verdict::Intrusion) => "intrusion",
                Some(Verdict::Inconclusive) => "inconclusive",
                None => "none",
            };
            format!(
                "{};{:?};{};{};lat={:016x};fa={};{};shut={:016x}",
                r.plant,
                r.kind,
                r.seed,
                r.completed,
                r.detection_latency_hours.map_or(0, f64::to_bits),
                r.false_alarms,
                verdict,
                r.shutdown_hour.map_or(0, f64::to_bits),
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

const GOLDEN: &str = "\
0;Idv6;6618998805086131378;true;lat=0000000000000000;fa=66;none;shut=0000000000000000\n\
1;IntegrityXmv3;16461762346616018318;true;lat=3f50624dd2f1ae00;fa=30;intrusion;shut=0000000000000000\n\
2;Normal;11307554333035224946;true;lat=0000000000000000;fa=142;none;shut=0000000000000000\n\
3;IntegrityXmeas1;5093776639084510298;true;lat=3f50624dd2f1ae00;fa=26;disturbance;shut=3fe7b22d0e56032d\n\
4;Idv6;2056164764027188571;true;lat=3f589374bc6a8300;fa=24;disturbance;shut=0000000000000000\n\
5;DosXmv3;7451222237342572368;true;lat=3f6cac083126eb80;fa=56;intrusion;shut=0000000000000000";

#[test]
fn fleet_report_matches_pre_kernel_golden() {
    let monitor = monitor();
    let report = FleetEngine::new(&monitor, config()).run().unwrap();
    let got = digest(&report);
    if std::env::var("TEMSPC_PRINT_GOLDEN").is_ok() {
        println!("---GOLDEN-BEGIN---\n{got}\n---GOLDEN-END---");
        return;
    }
    assert_eq!(
        got, GOLDEN,
        "fleet report diverged from the pre-kernel scalar baseline"
    );
}

/// A single-key model store must reproduce the shared-monitor fleet
/// bit-for-bit: cohort 0's calibrate-on-miss seed offset is zero, so the
/// store calibrates the exact same campaign as [`monitor`] and every
/// scoring-dependent field matches the golden digest.
#[test]
fn single_key_store_reproduces_shared_monitor_golden() {
    use temspc_fleet::{ModelStore, StoreConfig};

    let dir = std::env::temp_dir().join("temspc_fleet_regression_store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::new(StoreConfig::new(
        &dir,
        CalibrationConfig {
            runs: 2,
            duration_hours: 0.5,
            record_every: 10,
            base_seed: 100,
            threads: 0,
        },
    ));
    let report = FleetEngine::with_store(&store, config()).run().unwrap();
    assert_eq!(
        digest(&report),
        GOLDEN,
        "single-key store fleet diverged from the shared-monitor baseline"
    );
    // Every plant was scored by the generation-1 stored model.
    assert!(report.records.iter().all(|r| r.model_generation == 1));
    let _ = std::fs::remove_dir_all(&dir);
}

fn config_with_threads(threads: usize) -> FleetConfig {
    FleetConfig {
        threads,
        ..config()
    }
}

/// The fleet outcome must not depend on the degree of parallelism: each
/// plant's scenario is a pure function of (config, index), and results
/// are reassembled in index order, so the persistent worker pool must
/// yield the same golden digest at every thread count.
#[test]
fn fleet_digest_is_identical_across_thread_counts() {
    let monitor = monitor();
    for threads in [1, 2, 4, 8] {
        let report = FleetEngine::new(&monitor, config_with_threads(threads))
            .run()
            .unwrap();
        assert_eq!(
            digest(&report),
            GOLDEN,
            "fleet digest diverged from golden at threads={threads}"
        );
    }
}

/// Re-running a fleet on the *same* persistent pool (the steady-state
/// service regime: warm workers, warm thread-local scratch) must be as
/// deterministic as a cold engine.
#[test]
fn fleet_digest_is_stable_across_runs_on_one_pool() {
    let monitor = monitor();
    let engine = FleetEngine::new(&monitor, config_with_threads(4));
    for run in 0..3 {
        let report = engine.run().unwrap();
        assert_eq!(
            digest(&report),
            GOLDEN,
            "fleet digest diverged on pool reuse, run {run}"
        );
    }
}

/// Pooled calibration must produce bit-identical controller- and
/// process-level matrices regardless of how many workers split the
/// campaign: run k always maps to seed base_seed + k, and
/// [`temspc_fleet::collect_calibration_data_pooled_on`] stacks runs in
/// index order.
#[test]
fn pooled_calibration_matrices_are_bit_identical_across_thread_counts() {
    use temspc_fleet::{collect_calibration_data_pooled_on, WorkerPool};

    let calib = CalibrationConfig {
        runs: 4,
        duration_hours: 0.25,
        record_every: 10,
        base_seed: 900,
        threads: 0,
    };
    let bits = |m: &temspc_linalg::Matrix| -> Vec<u64> {
        m.as_slice().iter().copied().map(f64::to_bits).collect()
    };
    let pool = WorkerPool::new(1);
    let (ref_ctrl, ref_proc) = collect_calibration_data_pooled_on(&pool, &calib).unwrap();
    for threads in [2, 4, 8] {
        let pool = WorkerPool::new(threads);
        // Two campaigns per pool: cold workers, then warm (reused scratch).
        for pass in 0..2 {
            let (ctrl, proc) = collect_calibration_data_pooled_on(&pool, &calib).unwrap();
            assert_eq!(ctrl.shape(), ref_ctrl.shape());
            assert_eq!(proc.shape(), ref_proc.shape());
            assert_eq!(
                bits(&ctrl),
                bits(&ref_ctrl),
                "controller-level calibration matrix diverged at threads={threads}, pass {pass}"
            );
            assert_eq!(
                bits(&proc),
                bits(&ref_proc),
                "process-level calibration matrix diverged at threads={threads}, pass {pass}"
            );
        }
    }
}
