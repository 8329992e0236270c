//! End-to-end lock on the ingestion server: traffic served over real
//! loopback sockets must score bit-identically to an offline replay of
//! the same tapes, with zero drops, across many concurrent connections.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use temspc::persistence::{load_monitor, FileError};
use temspc::{capture_scenario, CalibrationConfig, DualMspc, Scenario, ScenarioKind};
use temspc_fleet::{
    record_fleet_captures, FleetConfig, FleetEngine, ModelStore, PlantKey, PlantRecord, StoreConfig,
};
use temspc_ingest::{
    detection_digest, drive, load_report, save_report, DriveConfig, IngestConfig, IngestReport,
    IngestServer,
};

/// Raises the server's stop flag when dropped. Declared first inside
/// every `thread::scope`, it turns a failed assertion into a failed test:
/// unwinding stops the server, so the scope's implicit join returns
/// instead of waiting forever on a server still expecting connections.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn monitor() -> DualMspc {
    DualMspc::calibrate(&CalibrationConfig {
        runs: 3,
        duration_hours: 1.0,
        record_every: 10,
        base_seed: 100,
        threads: 3,
    })
    .unwrap()
}

const KINDS: [ScenarioKind; 5] = [
    ScenarioKind::Normal,
    ScenarioKind::Idv6,
    ScenarioKind::IntegrityXmv3,
    ScenarioKind::IntegrityXmeas1,
    ScenarioKind::DosXmv3,
];

/// The locked constraint: 64 concurrent connections over loopback, zero
/// drops, and every served detection bit-identical (digest, latency,
/// false alarms, verdict) to `score_capture` of the same tape.
#[test]
fn sixty_four_connections_score_bit_identically_to_offline_replay() {
    let root = test_root("sixty_four");
    let monitor = monitor();

    // One tape per scenario kind; 64 connections cycle through them.
    let mut tapes = Vec::new();
    let mut offline = Vec::new();
    for (i, kind) in KINDS.iter().enumerate() {
        let scenario = Scenario::short(*kind, 0.3, 0.1, 42 + i as u64);
        let capture = capture_scenario(&scenario).unwrap();
        let outcome = monitor.score_capture(&capture).unwrap();
        let path = root.join(format!("tape_{i}.cap"));
        temspc::persistence::save_capture(&capture, &path).unwrap();
        offline.push((capture.steps() as u64, outcome));
        tapes.push(path);
    }

    let connections = 64;
    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 128,
            queue_depth: 32, // small on purpose: force the parking path
            batch_steps: 64,
            threads: 0,
            expect: Some(connections),
            incidents: None,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));
        let driven = drive(&DriveConfig {
            addr,
            tapes: tapes.clone(),
            connections,
            rate: 0.0, // flood: the server must absorb wire rate
            chunk: 0,
        })
        .unwrap();
        assert_eq!(driven.connections, connections);
        serve.join().expect("server thread panicked").unwrap()
    });

    assert_eq!(report.drops, 0, "backpressure must prevent drops");
    assert_eq!(report.reassembly_errors, 0);
    assert_eq!(report.connections.len(), connections);
    // Parking actually engaged (flooding 64 conns into depth-32 queues).
    let expose = server.metrics().expose();
    assert!(
        expose.contains("ingest_parked_total"),
        "parking metric missing from dump:\n{expose}"
    );

    for conn in &report.connections {
        let tape = conn.plant as usize % KINDS.len();
        let (steps, outcome) = &offline[tape];
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        assert_eq!(conn.steps, *steps, "plant {}", conn.plant);
        assert_eq!(
            conn.digest,
            detection_digest(outcome),
            "plant {}: served digest diverged from offline replay",
            conn.plant
        );
        assert_eq!(conn.false_alarms, outcome.false_alarms as u32);
        let scenario_onset = 0.1;
        assert_eq!(
            conn.detection_latency_hours.map(f64::to_bits),
            outcome
                .detection
                .run_length(scenario_onset)
                .map(f64::to_bits),
            "plant {}",
            conn.plant
        );
    }

    // The report survives its persistence round trip.
    let path = root.join("session.tpb");
    save_report(&report, &path).unwrap();
    assert_eq!(load_report(&path).unwrap(), report);

    // And reframed as a fleet report, the campaign aggregation applies.
    let fleet = report.fleet_report();
    assert_eq!(fleet.records.len(), connections);

    let _ = std::fs::remove_dir_all(&root);
}

/// Torn writes: tiny 7-byte socket writes tear every message across
/// many segments, and the served result is still bit-identical.
#[test]
fn torn_writes_still_score_bit_identically() {
    let root = test_root("torn");
    let monitor = monitor();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmeas1, 0.2, 0.05, 7);
    let capture = capture_scenario(&scenario).unwrap();
    let outcome = monitor.score_capture(&capture).unwrap();
    let path = root.join("torn.cap");
    temspc::persistence::save_capture(&capture, &path).unwrap();

    let connections = 8;
    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            expect: Some(connections),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));
        drive(&DriveConfig {
            addr,
            tapes: vec![path],
            connections,
            rate: 0.0,
            chunk: 7,
        })
        .unwrap();
        serve.join().expect("server thread panicked").unwrap()
    });

    assert_eq!(report.drops, 0);
    assert_eq!(report.reassembly_errors, 0);
    assert_eq!(report.connections.len(), connections);
    for conn in &report.connections {
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        assert_eq!(conn.digest, detection_digest(&outcome));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Graceful shutdown: raising the stop flag mid-stream drains what was
/// already queued, reports the interrupted connections with a fault
/// instead of dropping them, and still writes a loadable report.
#[test]
fn stop_flag_drains_in_flight_streams_and_reports_them() {
    use std::io::Write;

    let monitor = monitor();
    let scenario = Scenario::short(ScenarioKind::Normal, 0.2, 0.05, 11);
    let capture = capture_scenario(&scenario).unwrap();

    let server = IngestServer::bind(&monitor, IngestConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));

        // Stream a handshake and half the tape, then keep the socket
        // open (no FIN): an in-flight connection.
        let mut socket = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(3, &capture.scenario).to_vec();
        for record in &capture.records[..capture.records.len() / 2] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        socket.write_all(&bytes).unwrap();
        socket.flush().unwrap();

        // Give the event loop time to ingest, then request shutdown the
        // way the signal handler would.
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::SeqCst);
        let report = serve.join().expect("server thread panicked").unwrap();
        drop(socket);
        report
    });

    assert_eq!(report.drops, 0);
    assert_eq!(report.connections.len(), 1);
    let conn = &report.connections[0];
    assert_eq!(conn.plant, 3);
    assert!(!conn.completed);
    assert!(
        conn.fault
            .as_deref()
            .unwrap_or("")
            .contains("server stopped"),
        "fault: {:?}",
        conn.fault
    );
    // The queued half-tape was drained and scored, not thrown away.
    assert_eq!(conn.steps, (capture.records.len() / 2 / 4) as u64);

    let path = test_root("interrupted").join("interrupted.tpb");
    save_report(&report, &path).unwrap();
    assert_eq!(load_report(&path).unwrap(), report);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A per-test scratch directory, so no test's cleanup races another
/// test's files.
fn test_root(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("temspc_loopback_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The cheap calibration the store-path tests share: small enough to
/// calibrate several cohorts per test, deterministic per seed.
fn quick_calibration(seed: u64) -> CalibrationConfig {
    CalibrationConfig {
        runs: 2,
        duration_hours: 0.5,
        record_every: 10,
        base_seed: seed,
        threads: 3,
    }
}

enum ServeModel<'a> {
    Shared(&'a DualMspc),
    Store(&'a ModelStore, usize),
}

/// Binds a server over the given model source, floods it with
/// `connections` tape replays, checks that nothing was dropped or torn,
/// and returns the session report.
fn serve_and_drive(
    model: ServeModel<'_>,
    connections: usize,
    tapes: &[std::path::PathBuf],
    incidents: Option<String>,
) -> temspc_ingest::IngestReport {
    let config = IngestConfig {
        expect: Some(connections),
        incidents,
        ..IngestConfig::default()
    };
    let server = match model {
        ServeModel::Shared(monitor) => IngestServer::bind(monitor, config).unwrap(),
        ServeModel::Store(store, cohorts) => {
            IngestServer::bind_with_store(store, cohorts, config).unwrap()
        }
    };
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));
        drive(&DriveConfig {
            addr,
            tapes: tapes.to_vec(),
            connections,
            rate: 0.0,
            chunk: 0,
        })
        .unwrap();
        let report = serve.join().expect("server thread panicked").unwrap();
        assert_eq!(report.drops, 0, "backpressure must prevent drops");
        assert_eq!(report.reassembly_errors, 0);
        report
    })
}

/// Golden digest: a single-cohort store whose cohort_0 calibration
/// matches the shared monitor must serve bit-identically to both the
/// shared-monitor path and an offline replay of the same tape.
#[test]
fn single_cohort_store_serves_bit_identically_to_shared_monitor() {
    let root = test_root("golden");
    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.3, 0.1, 21);
    let capture = capture_scenario(&scenario).unwrap();
    let offline = detection_digest(&monitor.score_capture(&capture).unwrap());
    let tape = root.join("golden.cap");
    temspc::persistence::save_capture(&capture, &tape).unwrap();

    let connections = 2;
    let shared = serve_and_drive(
        ServeModel::Shared(&monitor),
        connections,
        std::slice::from_ref(&tape),
        None,
    );
    let store = ModelStore::new(StoreConfig::new(root.join("store"), quick_calibration(100)));
    let stored = serve_and_drive(ServeModel::Store(&store, 1), connections, &[tape], None);

    assert_eq!(shared.connections.len(), connections);
    assert_eq!(stored.connections.len(), connections);
    for (s, t) in shared.connections.iter().zip(&stored.connections) {
        assert!(s.completed, "shared plant {}: {:?}", s.plant, s.fault);
        assert!(t.completed, "stored plant {}: {:?}", t.plant, t.fault);
        assert_eq!(
            s.digest, offline,
            "shared path diverged from offline replay"
        );
        assert_eq!(
            t.digest, offline,
            "store-backed serve diverged from the shared-monitor path"
        );
        // The shared path has no store generation to report; the store
        // path pins the freshly calibrated generation 1.
        assert_eq!(s.model_generation, 0);
        assert_eq!(t.model_generation, 1);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Two plants in different cohorts must get verdicts from their own
/// cohort's model: served digests match the offline replay against that
/// cohort's calibration, and the two cohorts disagree.
#[test]
fn cohorts_score_against_their_own_models() {
    let root = test_root("cohorts");
    let stride = 5_000u64;
    let mut cfg = StoreConfig::new(root.join("store"), quick_calibration(100));
    cfg.seed_stride = stride;
    let store = ModelStore::new(cfg);

    let scenario = Scenario::short(ScenarioKind::IntegrityXmeas1, 0.3, 0.1, 33);
    let capture = capture_scenario(&scenario).unwrap();
    let tape = root.join("cohort.cap");
    temspc::persistence::save_capture(&capture, &tape).unwrap();

    let model_a = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let model_b = DualMspc::calibrate(&quick_calibration(100 + stride)).unwrap();
    let digest_a = detection_digest(&model_a.score_capture(&capture).unwrap());
    let digest_b = detection_digest(&model_b.score_capture(&capture).unwrap());
    assert_ne!(
        digest_a, digest_b,
        "cohort calibrations scored identically; the test needs a seed stride that separates them"
    );

    let report = serve_and_drive(ServeModel::Store(&store, 2), 4, &[tape], None);
    assert_eq!(report.connections.len(), 4);
    for conn in &report.connections {
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        let expected = if conn.plant % 2 == 0 {
            digest_a
        } else {
            digest_b
        };
        assert_eq!(
            conn.digest, expected,
            "plant {} was scored against the wrong cohort's model",
            conn.plant
        );
        assert_eq!(conn.model_generation, 1);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Refused connections (over `--max-connections`) are shed without being
/// counted as registered: attempts = connections_total + refused_total.
#[test]
fn refused_connections_do_not_count_as_registered() {
    use std::io::{Read as _, Write};

    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::Normal, 0.2, 0.05, 3);
    let capture = capture_scenario(&scenario).unwrap();

    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            max_connections: 1,
            expect: Some(1),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));

        // Occupy the single slot: handshake plus half the tape, held open.
        let mut first = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(2, &capture.scenario).to_vec();
        let half = capture.records.len() / 2;
        for record in &capture.records[..half] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        first.write_all(&bytes).unwrap();
        first.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));

        // Over the cap: the server sheds this socket immediately.
        let mut refused = std::net::TcpStream::connect(addr).unwrap();
        refused
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut probe = [0u8; 1];
        let n = refused.read(&mut probe).unwrap_or(0);
        assert_eq!(n, 0, "refused connection should be closed by the server");

        // Finish the occupant cleanly.
        let mut rest = Vec::new();
        for record in &capture.records[half..] {
            temspc_ingest::encode_record(record, &mut rest);
        }
        first.write_all(&rest).unwrap();
        drop(first);
        serve.join().expect("server thread panicked").unwrap()
    });

    assert_eq!(report.connections.len(), 1);
    assert!(report.connections[0].completed);
    let expose = server.metrics().expose();
    assert!(
        expose.contains("ingest_connections_total 1"),
        "registered-connection count drifted:\n{expose}"
    );
    assert!(
        expose.contains("ingest_connections_refused_total 1"),
        "refused-connection count drifted:\n{expose}"
    );
}

/// A second live connection claiming an already-claimed plant id is
/// faulted; the rightful owner keeps streaming and completes.
#[test]
fn duplicate_plant_claim_faults_the_second_connection() {
    use std::io::Write;

    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::Normal, 0.2, 0.05, 5);
    let capture = capture_scenario(&scenario).unwrap();

    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            expect: Some(2),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));

        // The rightful owner of plant 7: handshake plus half the tape.
        let mut first = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(7, &capture.scenario).to_vec();
        let half = capture.records.len() / 2;
        for record in &capture.records[..half] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        first.write_all(&bytes).unwrap();
        first.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));

        // A second claimant of the same plant id: faulted, not scored.
        let mut second = std::net::TcpStream::connect(addr).unwrap();
        second
            .write_all(&temspc_ingest::encode_hello(7, &capture.scenario))
            .unwrap();
        second.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));

        // The owner finishes cleanly despite the squatter.
        let mut rest = Vec::new();
        for record in &capture.records[half..] {
            temspc_ingest::encode_record(record, &mut rest);
        }
        first.write_all(&rest).unwrap();
        drop(first);
        let report = serve.join().expect("server thread panicked").unwrap();
        drop(second);
        report
    });

    assert_eq!(report.connections.len(), 2);
    let faulted: Vec<_> = report
        .connections
        .iter()
        .filter(|c| c.fault.is_some())
        .collect();
    assert_eq!(faulted.len(), 1, "exactly the duplicate claimant faults");
    assert!(
        faulted[0]
            .fault
            .as_deref()
            .unwrap()
            .contains("already claimed"),
        "fault: {:?}",
        faulted[0].fault
    );
    assert_eq!(
        faulted[0].plant, 7,
        "the faulted report still names the plant"
    );
    let owner = report
        .connections
        .iter()
        .find(|c| c.fault.is_none())
        .expect("the rightful owner completes");
    assert!(owner.completed);
    assert_eq!(owner.plant, 7);
    assert_eq!(owner.steps, (capture.records.len() / 4) as u64);
}

/// Hot reload mid-session: a generation bump on disk swaps the model for
/// the *next* connection, while the in-flight connection finishes on the
/// generation it pinned at scorer creation.
#[test]
fn hot_reload_swaps_models_for_new_connections_only() {
    use std::io::Write;

    let root = test_root("reload");
    let store = ModelStore::new(StoreConfig::new(root.join("store"), quick_calibration(100)));
    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.3, 0.1, 9);
    let capture = capture_scenario(&scenario).unwrap();
    let tape_steps = (capture.records.len() / 4) as u64;

    let model_gen1 = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let digest_gen1 = detection_digest(&model_gen1.score_capture(&capture).unwrap());
    let replacement = DualMspc::calibrate(&quick_calibration(4242)).unwrap();
    let digest_gen2 = detection_digest(&replacement.score_capture(&capture).unwrap());
    assert_ne!(digest_gen1, digest_gen2);

    let server = IngestServer::bind_with_store(
        &store,
        1,
        IngestConfig {
            expect: Some(2),
            batch_steps: 8, // small: the in-flight scorer resolves early
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);

    // A second handle on the same directory plays the operator pushing a
    // recalibrated model mid-session.
    let writer = ModelStore::new(StoreConfig::new(root.join("store"), quick_calibration(100)));

    let report = std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));

        // In-flight connection: pins generation 1 at its first batch.
        let mut inflight = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(0, &capture.scenario).to_vec();
        let half = capture.records.len() / 2;
        for record in &capture.records[..half] {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        inflight.write_all(&bytes).unwrap();
        inflight.flush().unwrap();

        // Wait until the server's calibrate-on-miss has published
        // generation 1, as seen from a second handle.
        let deadline = Instant::now() + Duration::from_secs(300);
        while writer
            .generation_on_disk(&PlantKey::cohort(0))
            .ok()
            .flatten()
            != Some(1)
        {
            assert!(
                Instant::now() < deadline,
                "the server never published cohort_0 generation 1"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // Generation bump on disk while plant 0 is still streaming.
        let inserted = writer.insert(&PlantKey::cohort(0), replacement).unwrap();
        assert_eq!(inserted.generation, 2);

        // A fresh connection resolves the reloaded generation 2.
        let mut second = std::net::TcpStream::connect(addr).unwrap();
        let mut bytes = temspc_ingest::encode_hello(1, &capture.scenario).to_vec();
        for record in &capture.records {
            temspc_ingest::encode_record(record, &mut bytes);
        }
        second.write_all(&bytes).unwrap();
        drop(second);
        std::thread::sleep(std::time::Duration::from_millis(200));

        // The in-flight stream finishes on its pinned model.
        let mut rest = Vec::new();
        for record in &capture.records[half..] {
            temspc_ingest::encode_record(record, &mut rest);
        }
        inflight.write_all(&rest).unwrap();
        drop(inflight);
        serve.join().expect("server thread panicked").unwrap()
    });

    assert_eq!(report.connections.len(), 2);
    let inflight = &report.connections[0];
    assert_eq!(inflight.plant, 0);
    assert!(inflight.completed, "{:?}", inflight.fault);
    assert_eq!(inflight.steps, tape_steps);
    assert_eq!(
        inflight.model_generation, 1,
        "in-flight stream must stay pinned"
    );
    assert_eq!(
        inflight.digest, digest_gen1,
        "in-flight stream was rescored by the swapped model"
    );
    let fresh = &report.connections[1];
    assert_eq!(fresh.plant, 1);
    assert!(fresh.completed, "{:?}", fresh.fault);
    assert_eq!(
        fresh.model_generation, 2,
        "new connection must see the reload"
    );
    assert_eq!(fresh.digest, digest_gen2);
    let _ = std::fs::remove_dir_all(&root);
}

/// The `--incidents` sink records one verdict line per completed
/// connection, carrying the same digest and generation as the report.
#[test]
fn incident_stream_records_verdict_transitions() {
    let root = test_root("incidents");
    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.3, 0.1, 13);
    let capture = capture_scenario(&scenario).unwrap();
    let tape = root.join("incidents.cap");
    temspc::persistence::save_capture(&capture, &tape).unwrap();
    let incidents_path = root.join("incidents.log");

    let report = serve_and_drive(
        ServeModel::Shared(&monitor),
        2,
        &[tape],
        Some(incidents_path.display().to_string()),
    );

    let text = std::fs::read_to_string(&incidents_path).unwrap();
    assert_eq!(report.connections.len(), 2);
    for conn in &report.connections {
        assert!(conn.completed, "plant {}: {:?}", conn.plant, conn.fault);
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("event=verdict plant={} ", conn.plant)))
            .unwrap_or_else(|| panic!("no verdict line for plant {} in:\n{text}", conn.plant));
        assert!(
            line.contains(&format!("digest={:016x}", conn.digest)),
            "incident digest drifted from the report: {line}"
        );
        assert!(line.contains(&format!("generation={}", conn.model_generation)));
        assert!(line.contains(&format!("kind={}", conn.kind.id())));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A store entry is a model file: `load_monitor(<store>/cohort_0.tpb)`
/// replays a tape to the same digest as the store's own resolution.
#[test]
fn store_entry_loads_directly_as_a_model() {
    let root = test_root("entry_as_model");
    let store = ModelStore::new(StoreConfig::new(root.join("store"), quick_calibration(100)));
    let resolved = store.get(&PlantKey::cohort(0)).unwrap();
    let loaded = load_monitor(root.join("store").join("cohort_0.tpb")).unwrap();

    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.3, 0.1, 21);
    let capture = capture_scenario(&scenario).unwrap();
    assert_eq!(
        detection_digest(&loaded.score_capture(&capture).unwrap()),
        detection_digest(&resolved.model.score_capture(&capture).unwrap())
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Ingest reports share the file envelope, so they reject the torn-file
/// matrix of `tests/store.rs` the same way: torn or flipped bytes and a
/// file of another kind each fail with a typed error.
#[test]
fn corrupt_report_files_fail_with_typed_errors() {
    let root = test_root("report_matrix");
    let connection = PlantRecord {
        plant: 4,
        kind: ScenarioKind::IntegrityXmv3,
        seed: 99,
        completed: true,
        steps: 1200,
        false_alarms: 1,
        detection_latency_hours: Some(0.05),
        verdict: None,
        digest: 0x0123_4567_89ab_cdef,
        shutdown_hour: None,
        model_generation: 3,
        fault: None,
    };
    let report = IngestReport {
        connections: vec![connection.clone(), connection],
        frames: 9600,
        steps: 2400,
        ..IngestReport::default()
    };
    let path = root.join("session.tpb");
    save_report(&report, &path).unwrap();
    let valid = std::fs::read(&path).unwrap();
    let header = temspc_persist::HEADER_LEN;
    let payload = valid.len() - header;

    let mut cases = vec![
        Vec::new(),
        valid[..4].to_vec(),
        valid[..valid.len() / 2].to_vec(),
    ];
    let mut flipped = valid.clone();
    flipped[2] ^= 0x40;
    cases.push(flipped);
    for i in 0..16 {
        let mut bytes = valid.clone();
        bytes[header + i * payload / 16] ^= 1 << (i % 8);
        cases.push(bytes);
    }
    for bytes in cases {
        std::fs::write(&path, &bytes).unwrap();
        let err = load_report(&path).unwrap_err();
        assert!(
            matches!(
                err,
                FileError::Truncated(_)
                    | FileError::BadMagic
                    | FileError::LengthMismatch { .. }
                    | FileError::ChecksumMismatch
            ),
            "{err:?}"
        );
    }

    let tape = root.join("tape.cap");
    let scenario = Scenario::short(ScenarioKind::Normal, 0.02, 0.01, 5);
    temspc::persistence::save_capture(&capture_scenario(&scenario).unwrap(), &tape).unwrap();
    assert!(matches!(
        load_report(&tape),
        Err(FileError::WrongKind { .. })
    ));
    std::fs::write(&path, &valid).unwrap();
    assert_eq!(load_report(&path).unwrap(), report);
    let _ = std::fs::remove_dir_all(&root);
}

/// NaN telemetry fails loudly: an integrity-XMV(3) tape whose frame
/// values are all NaN from hour 0.05 on would blind the detector (every
/// comparison against NaN is false, so nothing ever alarms). The frame
/// decode rejects it instead: the connection fails with a fault naming
/// the non-finite value, and the reassembly-error counter says so.
#[test]
fn nan_telemetry_fails_the_connection_loudly() {
    let root = test_root("nan");
    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let scenario = Scenario::short(ScenarioKind::IntegrityXmv3, 0.2, 0.1, 42);
    let mut capture = capture_scenario(&scenario).unwrap();
    for record in capture.records.iter_mut().filter(|r| r.hour >= 0.05) {
        let mut frame = temspc_fieldbus::Frame::decode(&record.wire).unwrap();
        frame.values.fill(f64::NAN);
        record.wire = frame.encode().unwrap().to_vec();
    }
    let tape = root.join("nan.cap");
    temspc::persistence::save_capture(&capture, &tape).unwrap();

    let server = IngestServer::bind(
        &monitor,
        IngestConfig {
            expect: Some(1),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let _stop_on_drop = StopOnDrop(&stop);
        let serve = scope.spawn(|| server.run(&stop));
        // The server may close the socket on the first NaN frame, so the
        // tail of the drive can fail with a reset; only the report counts.
        let _ = drive(&DriveConfig {
            addr,
            tapes: vec![tape],
            connections: 1,
            rate: 0.0,
            chunk: 0,
        });
        serve.join().expect("server thread panicked").unwrap()
    });

    assert_eq!(report.connections.len(), 1);
    let conn = &report.connections[0];
    assert!(!conn.completed, "NaN stream scored as complete");
    assert!(
        conn.fault
            .as_deref()
            .is_some_and(|f| f.contains("non-finite value")),
        "fault: {:?}",
        conn.fault
    );
    assert_eq!(report.reassembly_errors, 1);
    let expose = server.metrics().expose();
    assert!(
        expose.contains("ingest_reassembly_errors_total 1"),
        "reassembly-error count drifted:\n{expose}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// One record type across front ends: a small fleet recorded with
/// `record_fleet_captures` and served over loopback (connection `i` is
/// plant `i`) yields, plant for plant, the live `FleetEngine` record —
/// every field, `steps` and `digest` included, except the shutdown hour,
/// which the wire does not carry. Served == replayed == live.
#[test]
fn served_fleet_tapes_reproduce_the_live_fleet_records() {
    let root = test_root("cross_path");
    let monitor = DualMspc::calibrate(&quick_calibration(100)).unwrap();
    let config = FleetConfig {
        plants: 6,
        threads: 2,
        hours: 1.0,
        onset_hour: 0.3,
        attack_fraction: 0.5,
        fleet_seed: 4242,
        checkpoint_every: 0,
        ..FleetConfig::default()
    };
    record_fleet_captures(&config, &root).unwrap();
    let tapes: Vec<_> = (0..config.plants)
        .map(|i| root.join(format!("plant_{i}.cap")))
        .collect();

    let live = FleetEngine::new(&monitor, config.clone()).run().unwrap();
    let served = serve_and_drive(ServeModel::Shared(&monitor), config.plants, &tapes, None);

    // The fleet includes an interlock trip, so the step count derived
    // from the shutdown hour is checked against the served count too.
    assert!(live.records.iter().any(|r| r.shutdown_hour.is_some()));
    assert_eq!(served.connections.len(), live.records.len());
    for (served, live) in served.connections.iter().zip(&live.records) {
        assert!(live.completed, "plant {}: {:?}", live.plant, live.fault);
        assert_eq!(served.shutdown_hour, None);
        let served = PlantRecord {
            shutdown_hour: live.shutdown_hour,
            ..served.clone()
        };
        assert_eq!(&served, live);
    }
    let _ = std::fs::remove_dir_all(&root);
}
