//! Integration tests of the sharded calibration store and the torn-file
//! matrix shared by every persisted kind in the workspace.
//!
//! Torn-file matrix: for each kind loaded here (models, network models,
//! captures, fleet checkpoints, store entries), an empty file, a
//! truncated header, a bit-flipped header, a truncated payload and one
//! flipped bit at each of 16 evenly spaced payload offsets must each
//! surface as their own typed envelope error — never a panic, never a
//! silently wrong value. So must a file of one kind loaded as another.

use std::path::Path;

use temspc::persistence::{
    load_capture, load_monitor, load_network_monitor, save_capture, save_monitor,
    save_network_monitor, FileError,
};
use temspc::{CalibrationConfig, DualMspc, NetworkMonitor, Scenario, ScenarioKind};
use temspc_fleet::{
    checkpoint, CheckpointError, FleetCheckpoint, FleetConfig, FleetEngine, ModelStore, PlantKey,
    PlantSource, StoreConfig, StoreError,
};
use temspc_persist::HEADER_LEN;

fn tmp(test: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("temspc_store_it_{test}"))
}

fn quick_calibration() -> CalibrationConfig {
    CalibrationConfig {
        runs: 2,
        duration_hours: 0.2,
        record_every: 10,
        base_seed: 300,
        threads: 0,
    }
}

fn fleet_config(plants: usize, cohorts: usize) -> FleetConfig {
    FleetConfig {
        plants,
        threads: 2,
        hours: 0.5,
        onset_hour: 0.2,
        attack_fraction: 0.5,
        fleet_seed: 4242,
        checkpoint_every: 0,
        inject_panic_plants: Vec::new(),
        source: PlantSource::Live,
        cohorts,
    }
}

/// Number of evenly spaced single-bit payload flips per kind.
const PAYLOAD_FLIPS: usize = 16;

/// A predicate on the error a corruption must produce.
type Expected = fn(&FileError) -> bool;

/// The corruptions of the matrix, applied to a valid file's bytes.
fn corruptions(valid: &[u8]) -> Vec<(String, Vec<u8>, Expected)> {
    let mut flipped = valid.to_vec();
    flipped[2] ^= 0x40;
    let mut cases: Vec<(String, Vec<u8>, Expected)> = vec![
        ("empty file".into(), Vec::new(), |e| {
            matches!(e, FileError::Truncated(0))
        }),
        ("truncated header".into(), valid[..4].to_vec(), |e| {
            matches!(e, FileError::Truncated(4))
        }),
        ("bit-flipped header".into(), flipped, |e| {
            matches!(e, FileError::BadMagic)
        }),
        (
            "truncated payload".into(),
            valid[..valid.len() / 2].to_vec(),
            |e| matches!(e, FileError::LengthMismatch { .. }),
        ),
    ];
    let payload = valid.len() - HEADER_LEN;
    assert!(payload >= PAYLOAD_FLIPS, "payload too short for the matrix");
    for i in 0..PAYLOAD_FLIPS {
        let offset = HEADER_LEN + i * payload / PAYLOAD_FLIPS;
        let mut bytes = valid.to_vec();
        bytes[offset] ^= 1 << (i % 8);
        cases.push((format!("bit flip at byte {offset}"), bytes, |e| {
            matches!(e, FileError::ChecksumMismatch)
        }));
    }
    cases
}

/// Writes every corruption of `path`'s valid contents over it and checks
/// that `load` rejects each with the expected error.
fn assert_matrix_rejects(what: &str, path: &Path, load: impl Fn(&Path) -> Result<(), FileError>) {
    let valid = std::fs::read(path).unwrap();
    for (case, bytes, expected) in corruptions(&valid) {
        std::fs::write(path, &bytes).unwrap();
        match load(path) {
            Err(e) if expected(&e) => {}
            other => panic!("{what} {case}: got {other:?}"),
        }
    }
    std::fs::write(path, &valid).unwrap();
    load(path).unwrap_or_else(|e| panic!("{what}: restored file failed: {e}"));
}

fn is_wrong_kind(result: Result<(), FileError>) -> bool {
    matches!(result, Err(FileError::WrongKind { .. }))
}

#[test]
fn torn_file_matrix_every_kind_errors_cleanly() {
    let dir = tmp("matrix");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Calibrated dual-level monitor.
    let monitor = DualMspc::calibrate(&quick_calibration()).unwrap();
    let model_path = dir.join("model.tpb");
    save_monitor(&monitor, &model_path).unwrap();
    assert_matrix_rejects("model", &model_path, |p| load_monitor(p).map(drop));

    // Network-level monitor.
    let network = NetworkMonitor::calibrate(&quick_calibration(), 0.02).unwrap();
    let net_path = dir.join("net.tpb");
    save_network_monitor(&network, &net_path).unwrap();
    assert_matrix_rejects("network model", &net_path, |p| {
        load_network_monitor(p).map(drop)
    });

    // Wire capture.
    let scenario = Scenario::short(ScenarioKind::Idv6, 0.02, 0.01, 7);
    let capture = temspc::capture_scenario(&scenario).unwrap();
    let cap_path = dir.join("run.cap");
    save_capture(&capture, &cap_path).unwrap();
    assert_matrix_rejects("capture", &cap_path, |p| load_capture(p).map(drop));

    // Fleet checkpoint.
    let ckpt = FleetCheckpoint {
        config: fleet_config(2, 1),
        records: Vec::new(),
    };
    let ckpt_path = dir.join("fleet.tpb");
    checkpoint::save(&ckpt, &ckpt_path).unwrap();
    assert_matrix_rejects("checkpoint", &ckpt_path, |p| match checkpoint::load(p) {
        Ok(_) => Ok(()),
        Err(CheckpointError::File(e)) => Err(e),
        Err(other) => panic!("checkpoint: unexpected {other:?}"),
    });

    // Model store entry. Each load evicts the cached copy so the
    // corrupted file is actually read; a resident model with a matching
    // header generation would (correctly) keep serving from memory.
    let store = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
    let key = PlantKey::cohort(0);
    store.insert(&key, monitor).unwrap();
    let entry_path = dir.join("cohort_0.tpb");
    assert_matrix_rejects("store entry", &entry_path, |_| {
        store.evict(&key);
        let got = store.get(&key);
        // The 40-byte freshness peek agrees: only the header is read, so
        // payload damage is invisible to it but header damage is not.
        let peek = store.generation_on_disk(&key);
        match (&got, &peek) {
            (Ok(_), Ok(Some(1))) => {}
            (Err(StoreError::File(FileError::LengthMismatch { .. })), Ok(Some(1))) => {}
            (Err(StoreError::File(FileError::ChecksumMismatch)), Ok(Some(1))) => {}
            (Err(_), Err(StoreError::File(_))) => {}
            _ => panic!(
                "store entry: get {:?} vs peek {peek:?}",
                got.as_ref().map(|r| r.generation)
            ),
        }
        match got {
            Ok(_) => Ok(()),
            Err(StoreError::File(e)) => Err(e),
            Err(other) => panic!("store entry: unexpected {other}"),
        }
    });

    // Wrong kind: every file names what it holds, so none loads as
    // another kind — including a store key holding a non-model file.
    assert!(is_wrong_kind(load_monitor(&net_path).map(drop)));
    assert!(is_wrong_kind(load_monitor(&cap_path).map(drop)));
    assert!(is_wrong_kind(load_capture(&model_path).map(drop)));
    assert!(is_wrong_kind(load_network_monitor(&entry_path).map(drop)));
    std::fs::copy(&cap_path, &entry_path).unwrap();
    store.evict(&key);
    assert!(matches!(
        store.get(&key),
        Err(StoreError::File(FileError::WrongKind { .. }))
    ));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_roundtrip_eviction_and_hot_reload() {
    let dir = tmp("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = StoreConfig::new(&dir, quick_calibration());
    config.capacity = 1;
    let store = ModelStore::new(config);

    // Cold store: both cohorts calibrate on miss, persist at gen 1, and
    // the capacity-1 LRU keeps only the latest resident.
    let first = store.get(&PlantKey::cohort(0)).unwrap();
    let second = store.get(&PlantKey::cohort(1)).unwrap();
    assert_eq!(first.generation, 1);
    assert_eq!(second.generation, 1);
    assert_eq!(store.resident(), 1);
    let text = store.metrics().expose();
    assert!(text.contains("model_store_calibrations_total 2"));
    assert!(text.contains("model_store_evictions_total 1"));
    assert!(text.contains("model_store_key_evictions_total_cohort_0 1"));

    // Distinct cohorts calibrated with distinct seeds → distinct models.
    assert_ne!(
        first.model.controller_model().limits().t2_99,
        second.model.controller_model().limits().t2_99
    );

    // Re-resolving the evicted key reloads from disk (a miss, not a
    // recalibration) and reproduces the identical model.
    let again = store.get(&PlantKey::cohort(0)).unwrap();
    assert_eq!(
        again.model.controller_model().limits().t2_99,
        first.model.controller_model().limits().t2_99
    );
    assert!(store
        .metrics()
        .expose()
        .contains("model_store_calibrations_total 2"));

    // A second handle over the same directory bumps the generation; the
    // first handle hot-reloads it on its next get.
    let writer = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
    assert_eq!(
        writer.recalibrate(&PlantKey::cohort(0)).unwrap().generation,
        2
    );
    assert_eq!(store.get(&PlantKey::cohort(0)).unwrap().generation, 2);
    assert!(store
        .metrics()
        .expose()
        .contains("model_store_reloads_total 1"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_cohort_fleet_resolves_per_cohort_models_within_capacity() {
    let dir = tmp("fleet");
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = StoreConfig::new(&dir, quick_calibration());
    config.capacity = 1;
    let store = ModelStore::new(config);

    let report = FleetEngine::with_store(&store, fleet_config(4, 2))
        .run()
        .unwrap();

    // Every plant completed and was scored by a generation-1 stored
    // model (0 would mean the shared-monitor path leaked through).
    assert_eq!(report.records.len(), 4);
    for record in &report.records {
        assert!(record.completed, "plant {} failed", record.plant);
        assert_eq!(record.model_generation, 1);
    }
    // Both cohorts were materialised on disk ...
    let keys: Vec<_> = store
        .keys_on_disk()
        .unwrap()
        .into_iter()
        .map(|(k, g)| (k.as_str().to_string(), g))
        .collect();
    assert_eq!(
        keys,
        vec![
            ("cohort_0".to_string(), Some(1)),
            ("cohort_1".to_string(), Some(1)),
        ]
    );
    // ... while the LRU bound kept at most one resident, which shows up
    // in the eviction counters.
    assert!(store.resident() <= 1);
    let text = store.metrics().expose();
    assert!(text.contains("model_store_calibrations_total 2"));
    assert!(!text.contains("model_store_evictions_total 0"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_reruns_plants_scored_by_a_stale_generation() {
    let dir = tmp("resume");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::new(StoreConfig::new(dir.join("models"), quick_calibration()));
    let config = fleet_config(4, 2);
    let ckpt_path = dir.join("fleet.tpb");

    let first = FleetEngine::with_store(&store, config.clone())
        .with_checkpoint(&ckpt_path)
        .run()
        .unwrap();

    // Unchanged store: resuming schedules nothing and reproduces the
    // report exactly.
    let engine = FleetEngine::with_store(&store, config.clone()).with_checkpoint(&ckpt_path);
    let resumed = engine.run().unwrap();
    assert_eq!(resumed.records, first.records);
    assert!(engine
        .metrics()
        .expose()
        .contains("fleet_plants_scheduled_total 0"));

    // Re-calibrating cohort 1 bumps its generation; only the plants it
    // scored (plants 1 and 3 of 4 under plant % cohorts) re-run.
    store.recalibrate(&PlantKey::cohort(1)).unwrap();
    let engine = FleetEngine::with_store(&store, config).with_checkpoint(&ckpt_path);
    let rerun = engine.run().unwrap();
    assert!(engine
        .metrics()
        .expose()
        .contains("fleet_plants_scheduled_total 2"));
    assert_eq!(rerun.records.len(), 4);
    for record in &rerun.records {
        let expected = if record.plant % 2 == 1 { 2 } else { 1 };
        assert_eq!(
            record.model_generation, expected,
            "plant {} generation",
            record.plant
        );
    }
    // Cohort-0 plants were not re-run: their records carry over
    // unchanged from the first report.
    assert_eq!(rerun.records[0], first.records[0]);
    assert_eq!(rerun.records[2], first.records[2]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calibrate_failure_surfaces_run_error_text_through_the_store() {
    let dir = tmp("calfail");
    let _ = std::fs::remove_dir_all(&dir);
    let mut calibration = quick_calibration();
    // Zero-length campaign: the run itself succeeds but produces no
    // rows, so the PCA fit fails — the fit stage must be named and the
    // underlying error text preserved end-to-end.
    calibration.duration_hours = 0.0;
    let store = ModelStore::new(StoreConfig::new(&dir, calibration));
    let err = store.get(&PlantKey::cohort(0)).unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("calibrate-on-miss failed") && text.contains("calibration fit failed"),
        "unexpected error text: {text}"
    );
    // Nothing half-written was left behind.
    assert!(store.keys_on_disk().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
