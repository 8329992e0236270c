//! Integration tests of the fleet engine: thread-count determinism,
//! per-plant panic isolation, and checkpoint/resume equivalence.

use temspc::{CalibrationConfig, DualMspc};
use temspc_fleet::{FleetConfig, FleetEngine, PlantSource};

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

fn fleet_config(threads: usize) -> FleetConfig {
    FleetConfig {
        plants: 8,
        threads,
        hours: 1.0,
        onset_hour: 0.3,
        attack_fraction: 0.375,
        fleet_seed: 4242,
        checkpoint_every: 0,
        inject_panic_plants: Vec::new(),
        source: PlantSource::Live,
        cohorts: 1,
    }
}

#[test]
fn verdicts_identical_across_thread_counts() {
    let monitor = quick_monitor();
    let reference = FleetEngine::new(&monitor, fleet_config(1)).run().unwrap();
    assert_eq!(reference.records.len(), 8);
    for threads in [4, 8] {
        let report = FleetEngine::new(&monitor, fleet_config(threads))
            .run()
            .unwrap();
        // Full per-plant equality: same kinds, seeds, latencies, verdicts,
        // false-alarm counts — byte-identical aggregate behaviour.
        assert_eq!(
            report.records, reference.records,
            "thread count {threads} changed the fleet outcome"
        );
        assert_eq!(report.to_string(), reference.to_string());
    }
}

/// A panicking plant fails alone: its record carries the panic as its
/// fault, the failure is counted, and the other plants still complete.
#[test]
fn hopeless_plant_degrades_gracefully() {
    let monitor = quick_monitor();
    let mut config = fleet_config(2);
    config.plants = 3;
    config.inject_panic_plants = vec![1];
    let engine = FleetEngine::new(&monitor, config);
    let report = engine.run().unwrap();

    assert_eq!(report.records.len(), 3);
    assert_eq!(report.failed_plants(), vec![1]);
    assert!(!report.records[1].completed);
    assert!(
        report.records[1]
            .fault
            .as_deref()
            .is_some_and(|f| f.contains("injected panic")),
        "fault: {:?}",
        report.records[1].fault
    );
    assert!(engine
        .metrics()
        .expose()
        .contains("fleet_plants_failed_total 1"));
    assert!(report.records[0].completed);
    assert!(report.records[2].completed);
}

/// A panic in one worker is reported on that plant's record and leaves
/// every other record exactly as an uninjected fleet produces it. The
/// name predates the removal of restarts: the panicking plant now fails
/// on its only run.
#[test]
fn panicking_worker_is_restarted_and_reported() {
    let monitor = quick_monitor();
    let mut config = fleet_config(4);
    config.plants = 4;
    config.inject_panic_plants = vec![2];
    let engine = FleetEngine::new(&monitor, config.clone());
    let report = engine.run().unwrap();

    assert_eq!(report.records.len(), 4);
    assert_eq!(report.failed_plants(), vec![2]);
    let victim = &report.records[2];
    assert_eq!(victim.plant, 2);
    assert!(!victim.completed);
    assert!(
        victim
            .fault
            .as_deref()
            .is_some_and(|f| f.contains("injected panic")),
        "fault: {:?}",
        victim.fault
    );
    assert!(engine
        .metrics()
        .expose()
        .contains("fleet_plants_failed_total 1"));

    config.inject_panic_plants = Vec::new();
    let clean = FleetEngine::new(&monitor, config).run().unwrap();
    for i in [0usize, 1, 3] {
        assert_eq!(report.records[i], clean.records[i]);
    }
}

#[test]
fn checkpoint_resume_reproduces_uninterrupted_report() {
    let monitor = quick_monitor();
    let config = fleet_config(4);
    let uninterrupted = FleetEngine::new(&monitor, config.clone()).run().unwrap();

    // Simulate an interrupted campaign: a checkpoint holding the first
    // three plants' records.
    let dir = std::env::temp_dir().join("temspc_fleet_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.tpb");
    let partial = temspc_fleet::FleetCheckpoint {
        config: config.clone(),
        records: uninterrupted.records[..3].to_vec(),
    };
    temspc_fleet::checkpoint::save(&partial, &path).unwrap();

    // Resume: only the remaining five plants run; the merged report is
    // identical to the uninterrupted one.
    let engine = FleetEngine::new(&monitor, config.clone()).with_checkpoint(&path);
    let resumed = engine.run().unwrap();
    assert_eq!(resumed.records, uninterrupted.records);
    // Only the pending plants were scheduled this time.
    assert!(engine
        .metrics()
        .expose()
        .contains("fleet_plants_scheduled_total 5"));

    // The final checkpoint now covers the whole fleet: resuming again
    // schedules nothing and still reproduces the report.
    let engine = FleetEngine::new(&monitor, config).with_checkpoint(&path);
    let replayed = engine.run().unwrap();
    assert_eq!(replayed.records, uninterrupted.records);
    assert!(engine
        .metrics()
        .expose()
        .contains("fleet_plants_scheduled_total 0"));

    let _ = std::fs::remove_dir_all(&dir);
}
