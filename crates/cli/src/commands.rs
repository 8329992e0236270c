//! Implementations of the CLI subcommands.

use std::error::Error;

use temspc::diagnosis::{diagnose, VerdictThresholds};
use temspc::experiments::{arl, fig1, fig2, fig3, fig45, verdicts, ExperimentContext};
use temspc::persistence::{load_monitor, load_network_monitor, save_monitor, save_network_monitor};
use temspc::{CalibrationConfig, ClosedLoopRunner, NetworkMonitor, Scenario, ScenarioKind};
use temspc_fieldbus::{Attack, AttackKind, AttackTarget};
use temspc_tesim::measurement::XMEAS_INFO;

use crate::args::ParsedArgs;

/// Usage text.
pub const USAGE: &str = r#"temspc — disturbances vs intrusions in process control, with dual-level MSPC

USAGE:
  temspc simulate  [--hours 4] [--idv 0] [--attack none|xmv3|xmeas1|dos]
                   [--onset <h>] [--seed 1] [--csv run.csv] [--no-noise]
  temspc calibrate [--runs 4] [--hours 2] [--threads 0] --out model.tpb
                   [--seed 1000] [--net-out net.tpb]
  temspc detect    --model model.tpb [--net net.tpb] [--scenario idv6]
                   [--hours 4] [--onset 1] [--seed 42]
  temspc capture   --out run.cap [--scenario idv6] [--hours 4] [--onset 1]
                   [--seed 42]
  temspc replay    --model model.tpb --capture run.cap [--net net.tpb] [--digest]
  temspc fleet     [--plants 8] [--threads 4] [--hours 2] [--attack-fraction 0.25]
                   [--onset 0.5] [--seed 2016] [--model model.tpb]
                   [--model-store dir [--cohorts 2] [--store-capacity 4]
                    [--seed-stride 1000000]]
                   [--calib-runs 4] [--calib-hours 2] [--calib-seed 1000]
                   [--checkpoint fleet.tpb [--resume]] [--checkpoint-every 4]
                   [--metrics fleet.prom]
                   [--record-captures dir | --replay dir]
  temspc ingest    serve [--model model.tpb |
                    --model-store dir [--cohorts 2] [--store-capacity 4]
                    [--seed-stride 1000000]
                    [--calib-runs 4] [--calib-hours 2] [--calib-seed 1000]]
                   [--addr 127.0.0.1:4840]
                   [--max-connections 1024] [--queue-depth 256]
                   [--batch-steps 512] [--threads 0] [--expect <n>]
                   [--incidents incidents.log]
                   [--report ingest_session.tpb] [--metrics ingest.prom]
  temspc ingest    drive [--addr 127.0.0.1:4840] [--tapes a.cap,b.cap]
                   [--tape-dir captures] [--connections 1] [--rate 0]
                   [--chunk 0]
  temspc store     list|calibrate|evict --dir models
                   [--key cohort_0 | --cohorts 2]
                   [--calib-runs 4] [--calib-hours 2] [--calib-seed 1000]
                   [--threads 0] [--store-capacity 4] [--seed-stride 1000000]
  temspc experiments [--mode quick|paper] [--out results]
  temspc list
  temspc help

SCENARIOS: normal, idv6, xmv3 (integrity), xmeas1 (integrity), dos

CAPTURE/REPLAY: `capture` records every wire frame of a run into a .cap
tape; `replay` re-scores the recorded traffic through the same charts,
printing the same detection lines as a live `detect` of that scenario.
`fleet --record-captures dir` writes one tape per plant; a later
`fleet --replay dir` (same fleet flags) scores them without
re-simulating.

MODEL STORE: `fleet --model-store dir` resolves each plant's monitor
from a sharded per-cohort calibration store (one .tpb per key, bounded
in-memory LRU residency, calibrate-on-miss with deterministic per-cohort
seeds, hot reload on generation bump). `store calibrate` pre-populates
or refreshes keys; `store list` shows keys and generations; `store
evict` deletes a persisted key. A store entry is a model file:
`--model dir/cohort_0.tpb` loads it directly.

LIVE INGESTION: `ingest serve` accepts live fieldbus traffic over TCP
(thousands of concurrent plant connections on one non-blocking event
loop), scores each stream with the same T2/SPE path `replay` uses, and
flushes a TPB session report on SIGINT/SIGTERM after draining in-flight
batches. `ingest drive` replays recorded .cap tapes over real sockets
as a load generator. Served detections are bit-identical to offline
replay: diff the digest `serve` prints against `replay --digest` of the
same tape. `fleet` and `serve` both drain and checkpoint on Ctrl-C.

Each subcommand accepts exactly the options its USAGE lines name; any
other option is an error (exit status 2)."#;

type CmdResult = Result<(), Box<dyn Error>>;

fn scenario_kind(name: &str) -> Result<ScenarioKind, String> {
    Ok(match name {
        "normal" => ScenarioKind::Normal,
        "idv6" => ScenarioKind::Idv6,
        "xmv3" | "integrity_xmv3" => ScenarioKind::IntegrityXmv3,
        "xmeas1" | "integrity_xmeas1" => ScenarioKind::IntegrityXmeas1,
        "dos" | "dos_xmv3" => ScenarioKind::DosXmv3,
        other => return Err(format!("unknown scenario '{other}'")),
    })
}

/// `temspc simulate` — run the closed loop, print a summary, optionally
/// dump a CSV of both views.
pub fn simulate(args: &ParsedArgs) -> CmdResult {
    let hours: f64 = args.get_parsed("hours", 4.0)?;
    let idv: usize = args.get_parsed("idv", 0)?;
    let onset: f64 = args.get_parsed("onset", hours / 2.0)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let attack = args.get_or("attack", "none").to_string();

    let mut scenario = Scenario::short(ScenarioKind::Normal, hours, onset, seed);
    if idv == 6 && attack == "none" {
        scenario.kind = ScenarioKind::Idv6;
    }
    let attacks: Vec<Attack> = match attack.as_str() {
        "none" => Vec::new(),
        "xmv3" => vec![Attack::new(
            AttackTarget::Actuator(3),
            AttackKind::IntegrityConstant(0.0),
            onset..f64::INFINITY,
        )],
        "xmeas1" => vec![Attack::new(
            AttackTarget::Sensor(1),
            AttackKind::IntegrityConstant(0.0),
            onset..f64::INFINITY,
        )],
        "dos" => vec![Attack::new(
            AttackTarget::Actuator(3),
            AttackKind::DenialOfService,
            onset..f64::INFINITY,
        )],
        other => return Err(format!("unknown attack '{other}'").into()),
    };
    if idv > 0 && idv != 6 {
        // Arbitrary disturbances: schedule through the generic path.
        let mut set = temspc_tesim::DisturbanceSet::new();
        set.schedule(temspc_tesim::Disturbance::from_idv_number(idv), onset);
        // Run manually to honor both the custom IDV and custom attacks.
        return simulate_custom(hours, set, attacks, seed, args);
    }

    let runner = if attacks.is_empty() {
        ClosedLoopRunner::new(&scenario)
    } else {
        ClosedLoopRunner::with_attacks(&scenario, attacks)
    };
    let data = runner.run(20, |_| {})?;
    print_run_summary(&data);
    maybe_write_csv(args, &data)?;
    Ok(())
}

fn simulate_custom(
    hours: f64,
    idv: temspc_tesim::DisturbanceSet,
    attacks: Vec<Attack>,
    seed: u64,
    args: &ParsedArgs,
) -> CmdResult {
    use temspc_control::DecentralizedController;
    use temspc_fieldbus::{FieldbusLink, MitmAdversary};
    use temspc_tesim::{PlantConfig, TePlant, SAMPLES_PER_HOUR};

    let mut cfg = PlantConfig::default();
    if args.flag("no-noise") {
        cfg.measurement_noise = false;
        cfg.process_randomness = false;
    }
    let mut plant = TePlant::new(cfg, seed);
    plant.set_disturbances(idv);
    let mut controller = DecentralizedController::new();
    let mut link = FieldbusLink::new(MitmAdversary::new(attacks));
    let mut hours_v = Vec::new();
    let mut cview = temspc_linalg_matrix();
    let mut pview = temspc_linalg_matrix();
    let steps = (hours * SAMPLES_PER_HOUR as f64) as usize;
    for k in 0..steps {
        let hour = plant.hour();
        let xmeas = plant.measurements();
        let received = link.uplink(hour, xmeas.as_slice())?;
        let commanded = controller.step(&received);
        let delivered = link.downlink(hour, &commanded)?;
        if plant.step(&delivered).is_err() {
            break;
        }
        if k % 20 == 0 {
            hours_v.push(hour);
            let mut c = received.clone();
            c.extend_from_slice(&commanded);
            cview.push_row(&c);
            let mut p = xmeas.as_slice().to_vec();
            p.extend_from_slice(&delivered);
            pview.push_row(&p);
        }
    }
    let data = temspc::RunData {
        scenario: Scenario::short(ScenarioKind::Normal, hours, f64::INFINITY, seed),
        hours: hours_v,
        controller_view: cview,
        process_view: pview,
        shutdown: plant.shutdown(),
    };
    print_run_summary(&data);
    maybe_write_csv(args, &data)?;
    Ok(())
}

fn temspc_linalg_matrix() -> temspc_linalg::Matrix {
    temspc_linalg::Matrix::default()
}

fn print_run_summary(data: &temspc::RunData) {
    let last = data.hours.len().saturating_sub(1);
    println!("samples recorded : {}", data.hours.len());
    if data.hours.is_empty() {
        return;
    }
    println!("final hour       : {:.3}", data.hours[last]);
    println!(
        "XMEAS(1) A feed  : {:.3} kscmh",
        data.process_view.get(last, 0)
    );
    println!(
        "reactor pressure : {:.1} kPa",
        data.process_view.get(last, 6)
    );
    println!(
        "stripper level   : {:.1} %",
        data.process_view.get(last, 14)
    );
    match data.shutdown {
        Some((reason, hour)) => println!("SHUTDOWN at {hour:.3} h: {reason}"),
        None => println!("no shutdown"),
    }
}

fn maybe_write_csv(args: &ParsedArgs, data: &temspc::RunData) -> CmdResult {
    if let Some(path) = args.get("csv") {
        let mut header = vec!["hour".to_string(), "level".to_string()];
        for i in 0..temspc::N_MONITORED {
            header.push(temspc::variable_name(i));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut csv = temspc::csv::CsvWriter::with_header(&header_refs);
        for (i, h) in data.hours.iter().enumerate() {
            csv.push_labelled(&format!("{h},controller"), data.controller_view.row(i));
            csv.push_labelled(&format!("{h},process"), data.process_view.row(i));
        }
        csv.write_to(path)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `temspc calibrate` — calibrate and persist monitors.
pub fn calibrate(args: &ParsedArgs) -> CmdResult {
    let runs: usize = args.get_parsed("runs", 4)?;
    let hours: f64 = args.get_parsed("hours", 2.0)?;
    let out = args.require("out")?;
    let cfg = CalibrationConfig {
        runs,
        duration_hours: hours,
        record_every: 10,
        base_seed: args.get_parsed("seed", 1_000)?,
        threads: args.get_parsed("threads", 0)?,
    };
    println!("calibrating dual-level monitor on {runs} x {hours} h ...");
    // The pooled campaign produces matrices byte-identical to the
    // sequential one, just faster.
    let monitor = temspc_fleet::calibrate(&cfg, temspc::MonitorConfig::default())?;
    save_monitor(&monitor, out)?;
    println!(
        "saved {out} ({} PCs, T2_99 = {:.2}, SPE_99 = {:.2})",
        monitor.controller_model().pca().n_components(),
        monitor.controller_model().limits().t2_99,
        monitor.controller_model().limits().spe_99
    );
    if let Some(net_out) = args.get("net-out") {
        println!("calibrating network-level monitor ...");
        let network = NetworkMonitor::calibrate(&cfg, 0.02)?;
        save_network_monitor(&network, net_out)?;
        println!("saved {net_out}");
    }
    Ok(())
}

/// `temspc detect` — monitor a scenario with persisted models.
pub fn detect(args: &ParsedArgs) -> CmdResult {
    let model_path = args.require("model")?;
    let kind = scenario_kind(args.get_or("scenario", "idv6"))?;
    let hours: f64 = args.get_parsed("hours", 4.0)?;
    let onset: f64 = args.get_parsed("onset", 1.0)?;
    let seed: u64 = args.get_parsed("seed", 42)?;

    let monitor = load_monitor(model_path)?;
    let scenario = Scenario::short(kind, hours, onset, seed);
    println!("scenario: {}", kind.description());
    let outcome = monitor.run_scenario(&scenario)?;
    print_outcome(&monitor, &outcome, onset, hours);
    if let Some(net_path) = args.get("net") {
        let network = load_network_monitor(net_path)?;
        let net = network.run_scenario(&scenario)?;
        print_network_outcome(&net, onset);
    }
    if let Some((reason, hour)) = outcome.run.shutdown {
        println!("plant shut down at {hour:.3} h: {reason}");
    }
    Ok(())
}

/// Prints the detection/diagnosis summary shared by `detect` (live) and
/// `replay` (recorded traffic) — identical inputs print identical lines.
fn print_outcome(
    monitor: &temspc::DualMspc,
    outcome: &temspc::ScenarioOutcome,
    onset: f64,
    hours: f64,
) {
    match outcome.detection.run_length(onset) {
        Some(rl) => println!("detected {:.1} s after onset", rl * 3600.0),
        None => println!("not detected within {hours} h"),
    }
    if outcome.false_alarms > 0 {
        println!("false alarms before onset: {}", outcome.false_alarms);
    }
    if let Some(diag) = diagnose(monitor, outcome, VerdictThresholds::default()) {
        println!("{}", temspc::incident_report(outcome, &diag));
    }
}

fn print_network_outcome(net: &temspc::NetworkOutcome, onset: f64) {
    match net.detected_hour {
        Some(h) => println!(
            "network level: detected {:.1} s after onset, implicates {}",
            (h - onset) * 3600.0,
            net.implicated_feature.as_deref().unwrap_or("-")
        ),
        None => println!("network level: no detection"),
    }
}

/// `temspc capture` — run a scenario with the fieldbus tap attached and
/// write the wire tape to a capture file.
pub fn capture(args: &ParsedArgs) -> CmdResult {
    let kind = scenario_kind(args.get_or("scenario", "idv6"))?;
    let hours: f64 = args.get_parsed("hours", 4.0)?;
    let onset: f64 = args.get_parsed("onset", 1.0)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let out = args.require("out")?;

    let scenario = Scenario::short(kind, hours, onset, seed);
    println!("scenario: {}", kind.description());
    let capture = temspc::capture_scenario(&scenario)?;
    let wire_bytes: usize = capture.records.iter().map(|r| r.wire.len()).sum();
    temspc::persistence::save_capture(&capture, out)?;
    println!(
        "captured {} steps ({} frames, {} wire bytes)",
        capture.steps(),
        capture.records.len(),
        wire_bytes
    );
    if let Some((reason, hour)) = capture.shutdown {
        println!("plant shut down at {hour:.3} h: {reason}");
    }
    println!("wrote {out}");
    Ok(())
}

/// `temspc replay` — score a recorded capture with persisted models; the
/// output lines match what `detect` printed for the live run.
pub fn replay(args: &ParsedArgs) -> CmdResult {
    let model_path = args.require("model")?;
    let capture_path = args.require("capture")?;

    let monitor = load_monitor(model_path)?;
    let capture = temspc::persistence::load_capture(capture_path)?;
    let scenario = capture.scenario.clone();
    let onset = scenario.onset_hour;
    println!("scenario: {}", scenario.kind.description());
    println!(
        "replaying {} recorded steps (seed {})",
        capture.steps(),
        scenario.seed
    );
    let outcome = monitor.score_capture(&capture)?;
    print_outcome(&monitor, &outcome, onset, scenario.duration_hours);
    if args.flag("digest") {
        // Comparable against the digests `ingest serve` prints: equal
        // digests prove the served scoring path matched this replay.
        println!("digest {:016x}", temspc_fleet::detection_digest(&outcome));
    }
    if let Some(net_path) = args.get("net") {
        let network = load_network_monitor(net_path)?;
        let net = network.score_capture(&capture)?;
        print_network_outcome(&net, onset);
    }
    if let Some((reason, hour)) = outcome.run.shutdown {
        println!("plant shut down at {hour:.3} h: {reason}");
    }
    Ok(())
}

/// `temspc fleet` — monitor many plants concurrently and print the
/// aggregate confusion matrix.
pub fn fleet(args: &ParsedArgs) -> CmdResult {
    use temspc_fleet::{FleetConfig, FleetEngine, ModelStore, PlantSource};

    let source = match args.get("replay") {
        Some(dir) => PlantSource::Replay(dir.to_string()),
        None => PlantSource::Live,
    };
    let config = FleetConfig {
        plants: args.get_parsed("plants", 8)?,
        threads: args.get_parsed("threads", 0)?,
        hours: args.get_parsed("hours", 2.0)?,
        onset_hour: args.get_parsed("onset", 0.5)?,
        attack_fraction: args.get_parsed("attack-fraction", 0.25)?,
        fleet_seed: args.get_parsed("seed", 2016)?,
        checkpoint_every: args.get_parsed("checkpoint-every", 4)?,
        cohorts: args.get_parsed("cohorts", 1)?,
        source,
        ..FleetConfig::default()
    };
    if !(0.0..=1.0).contains(&config.attack_fraction) {
        return Err("--attack-fraction must be within [0, 1]".into());
    }
    if config.cohorts == 0 {
        return Err("--cohorts must be at least 1".into());
    }
    if let Some(dir) = args.get("record-captures") {
        println!("recording {} plant captures into {dir}/ ...", config.plants);
        temspc_fleet::record_fleet_captures(&config, dir)?;
        println!("done; replay them with: temspc fleet --replay {dir} <same fleet flags>");
        return Ok(());
    }

    if let Some(dir) = args.get("model-store") {
        if args.get("model").is_some() {
            return Err("--model and --model-store are mutually exclusive".into());
        }
        println!(
            "resolving per-plant monitors from model store {dir}/ ({} cohort(s)) ...",
            config.cohorts
        );
        let store = ModelStore::new(store_config_from_args(args, dir)?);
        let engine = FleetEngine::with_store(&store, config.clone());
        return run_fleet(engine, args, &config, Some(&store));
    }

    let monitor = match args.get("model") {
        Some(path) => {
            println!("loading monitor from {path} ...");
            load_monitor(path)?
        }
        None => {
            let cfg = calibration_from_args(args)?;
            let (runs, hours) = (cfg.runs, cfg.duration_hours);
            println!("calibrating dual-level monitor on {runs} x {hours} h ...");
            temspc_fleet::calibrate(&cfg, temspc::MonitorConfig::default())?
        }
    };
    let engine = FleetEngine::new(&monitor, config.clone());
    run_fleet(engine, args, &config, None)
}

/// Shared tail of `temspc fleet`: checkpoint wiring, the run itself, the
/// report, and the metrics exposition (fleet + store when present).
fn run_fleet(
    mut engine: temspc_fleet::FleetEngine<'_>,
    args: &ParsedArgs,
    config: &temspc_fleet::FleetConfig,
    store: Option<&temspc_fleet::ModelStore>,
) -> CmdResult {
    if let Some(path) = args.get("checkpoint") {
        if std::path::Path::new(path).exists() && !args.flag("resume") {
            return Err(format!(
                "checkpoint {path} already exists; pass --resume to continue it or remove the file"
            )
            .into());
        }
        engine = engine.with_checkpoint(path);
    }
    // SIGINT/SIGTERM drain in-flight plants and flush a final checkpoint
    // instead of killing the campaign mid-write.
    engine = engine.with_cancel(temspc_ingest::install_handlers());

    println!(
        "monitoring {} plants ({} attacked) for {} h each ...",
        config.plants,
        (config.attack_fraction * config.plants as f64).round() as usize,
        config.hours
    );
    match engine.run() {
        Ok(report) => print_plants(&report),
        Err(temspc_fleet::FleetError::Interrupted { completed, total }) => {
            println!("\ninterrupted: {completed}/{total} plants completed; in-flight work drained");
            match args.get("checkpoint") {
                Some(path) => {
                    println!("checkpoint {path} flushed — rerun with --resume to finish");
                }
                None => println!("(no --checkpoint configured, so partial results were not kept)"),
            }
        }
        Err(e) => return Err(e.into()),
    }
    if let Some(path) = args.get("metrics") {
        let mut text = engine.metrics().expose();
        if let Some(store) = store {
            text.push_str(&store.metrics().expose());
        }
        std::fs::write(path, text)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// One row per plant, then the confusion matrix: the report layout that
/// `fleet` and `ingest serve` share.
fn print_plants(report: &temspc_fleet::FleetReport) {
    println!();
    for record in &report.records {
        println!("{record}");
    }
    println!("\n{report}");
}

/// The calibration campaign of the shared `--calib-*` and `--threads`
/// flags, so `fleet`, `fleet --model-store` and `store <action>` agree.
fn calibration_from_args(args: &ParsedArgs) -> Result<CalibrationConfig, Box<dyn Error>> {
    Ok(CalibrationConfig {
        runs: args.get_parsed("calib-runs", 4)?,
        duration_hours: args.get_parsed("calib-hours", 2.0)?,
        record_every: 10,
        base_seed: args.get_parsed("calib-seed", 1_000)?,
        threads: args.get_parsed("threads", 0)?,
    })
}

/// Builds a [`temspc_fleet::StoreConfig`] from the shared flags.
fn store_config_from_args(
    args: &ParsedArgs,
    dir: &str,
) -> Result<temspc_fleet::StoreConfig, Box<dyn Error>> {
    let mut cfg = temspc_fleet::StoreConfig::new(dir, calibration_from_args(args)?);
    cfg.capacity = args.get_parsed("store-capacity", cfg.capacity)?;
    if cfg.capacity == 0 {
        return Err("--store-capacity must be at least 1".into());
    }
    cfg.seed_stride = args.get_parsed("seed-stride", cfg.seed_stride)?;
    Ok(cfg)
}

/// The keys a `temspc store` action operates on: an explicit `--key`, or
/// the first `--cohorts` cohort keys.
fn store_target_keys(args: &ParsedArgs) -> Result<Vec<temspc_fleet::PlantKey>, Box<dyn Error>> {
    if let Some(key) = args.get("key") {
        return Ok(vec![temspc_fleet::PlantKey::new(key)?]);
    }
    let cohorts: usize = args.get_parsed("cohorts", 0)?;
    if cohorts == 0 {
        return Err("pass --key <name> or --cohorts <n> to select store keys".into());
    }
    Ok((0..cohorts).map(temspc_fleet::PlantKey::cohort).collect())
}

/// `temspc store` — inspect and maintain a model store directory:
/// `list` keys and generations, `calibrate` (re)build keys, `evict`
/// delete persisted keys.
pub fn store(args: &ParsedArgs) -> CmdResult {
    use temspc_fleet::ModelStore;

    let action = args.action().unwrap_or("list");
    let dir = args.require("dir")?;
    let store = ModelStore::new(store_config_from_args(args, dir)?);
    match action {
        "list" => {
            let keys = store.keys_on_disk()?;
            if keys.is_empty() {
                println!("no stored models in {dir}/");
                return Ok(());
            }
            println!("{:<24} generation", "key");
            for (key, generation) in keys {
                let state = generation.map_or_else(|| "invalid".to_string(), |g| g.to_string());
                println!("{:<24} {state}", key.as_str());
            }
        }
        "calibrate" => {
            for key in store_target_keys(args)? {
                let seed = store.config().calibration_for(&key).base_seed;
                println!("calibrating {} (base seed {seed}) ...", key.as_str());
                let resolved = store.recalibrate(&key)?;
                println!("  stored at generation {}", resolved.generation);
            }
        }
        "evict" => {
            for key in store_target_keys(args)? {
                if store.remove(&key)? {
                    println!("removed {}", key.as_str());
                } else {
                    println!("no stored model for {}", key.as_str());
                }
            }
        }
        other => {
            return Err(format!(
                "unknown store action '{other}' (expected list, calibrate or evict)"
            )
            .into())
        }
    }
    Ok(())
}

/// `temspc experiments` — the full figure/table campaign.
pub fn experiments(args: &ParsedArgs) -> CmdResult {
    let mode = args.get_or("mode", "quick");
    let out = args.get_or("out", "results");
    println!("calibrating ({mode} scale) ...");
    let ctx = match mode {
        "paper" => ExperimentContext::paper(out)?,
        _ => {
            let mut ctx = ExperimentContext::quick(out, 4.0)?;
            ctx.onset_hour = 1.0;
            ctx
        }
    };
    fig1::run(&ctx)?;
    fig2::run(&ctx)?;
    fig3::run(&ctx)?;
    fig45::run(&ctx)?;
    arl::run(&ctx)?;
    let v = verdicts::run(&ctx)?;
    println!(
        "experiments complete; verdict accuracy {:.1} %; artifacts in {out}/",
        100.0 * v.accuracy()
    );
    Ok(())
}

/// `temspc list` — enumerate scenarios, disturbances and variables.
pub fn list() -> CmdResult {
    println!("scenarios:");
    for kind in ScenarioKind::anomalous() {
        println!("  {:<18} {}", kind.id(), kind.description());
    }
    println!("\ndisturbances (IDV):");
    for n in 1..=20 {
        let d = temspc_tesim::Disturbance::from_idv_number(n);
        println!("  IDV({n:>2})  {d:?}");
    }
    println!("\nmeasurements (XMEAS):");
    for info in XMEAS_INFO.iter() {
        println!(
            "  XMEAS({:>2})  {:<36} [{}]  nominal {}",
            info.number, info.name, info.unit, info.nominal
        );
    }
    Ok(())
}

/// `temspc ingest` — the live ingestion front half: `serve` scores live
/// fieldbus streams over TCP, `drive` replays .cap tapes over sockets.
pub fn ingest(args: &ParsedArgs) -> CmdResult {
    match args.action() {
        Some("serve") => ingest_serve(args),
        Some("drive") => ingest_drive(args),
        Some(other) => {
            Err(format!("unknown ingest action '{other}' (expected serve or drive)").into())
        }
        None => Err("ingest needs an action: serve or drive".into()),
    }
}

/// Builds the server configuration from `ingest serve` flags.
fn ingest_serve_config(args: &ParsedArgs) -> Result<temspc_ingest::IngestConfig, Box<dyn Error>> {
    let config = temspc_ingest::IngestConfig {
        addr: args.get_or("addr", "127.0.0.1:4840").to_string(),
        max_connections: args.get_parsed("max-connections", 1024)?,
        queue_depth: args.get_parsed("queue-depth", 256)?,
        batch_steps: args.get_parsed("batch-steps", 512)?,
        threads: args.get_parsed("threads", 0)?,
        expect: match args.get("expect") {
            None => None,
            Some(_) => Some(args.get_parsed("expect", 0usize)?),
        },
        incidents: args.get("incidents").map(str::to_string),
    };
    if config.max_connections == 0 {
        return Err("--max-connections must be at least 1".into());
    }
    if config.queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    if config.batch_steps == 0 {
        return Err("--batch-steps must be at least 1".into());
    }
    Ok(config)
}

/// Builds the load-generator configuration from `ingest drive` flags.
fn ingest_drive_config(args: &ParsedArgs) -> Result<temspc_ingest::DriveConfig, Box<dyn Error>> {
    let mut tapes: Vec<std::path::PathBuf> = Vec::new();
    if let Some(list) = args.get("tapes") {
        for part in list.split(',') {
            let part = part.trim();
            if !part.is_empty() {
                tapes.push(part.into());
            }
        }
    }
    if let Some(dir) = args.get("tape-dir") {
        let mut found: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "cap"))
            .collect();
        found.sort();
        tapes.extend(found);
    }
    if tapes.is_empty() {
        return Err("no tapes: pass --tapes a.cap,b.cap and/or --tape-dir <dir>".into());
    }
    let config = temspc_ingest::DriveConfig {
        addr: args.get_or("addr", "127.0.0.1:4840").to_string(),
        tapes,
        connections: args.get_parsed("connections", 1)?,
        rate: args.get_parsed("rate", 0.0)?,
        chunk: args.get_parsed("chunk", 0)?,
    };
    if config.connections == 0 {
        return Err("--connections must be at least 1".into());
    }
    if config.rate < 0.0 {
        return Err("--rate must be >= 0 (frames/s; 0 = unthrottled)".into());
    }
    Ok(config)
}

/// `temspc ingest serve` — bind, accept live plant streams, score them
/// with the shared T2/SPE path, and persist a TPB session report. With
/// `--model-store`, each connection resolves its own cohort monitor
/// through the sharded store instead of sharing one `--model`.
fn ingest_serve(args: &ParsedArgs) -> CmdResult {
    let config = ingest_serve_config(args)?;

    if let Some(dir) = args.get("model-store") {
        if args.get("model").is_some() {
            return Err("--model and --model-store are mutually exclusive".into());
        }
        let cohorts: usize = args.get_parsed("cohorts", 1)?;
        if cohorts == 0 {
            return Err("--cohorts must be at least 1".into());
        }
        println!("resolving per-plant monitors from model store {dir}/ ({cohorts} cohort(s)) ...");
        let store = temspc_fleet::ModelStore::new(store_config_from_args(args, dir)?);
        let server = temspc_ingest::IngestServer::bind_with_store(&store, cohorts, config)?;
        return run_ingest_serve(server, args, Some(&store));
    }

    let model_path = args.require("model")?;
    let monitor = load_monitor(model_path)?;
    let server = temspc_ingest::IngestServer::bind(&monitor, config)?;
    run_ingest_serve(server, args, None)
}

/// Shared tail of `temspc ingest serve`: the serve loop, the
/// per-connection table, the session report, and metrics exposition
/// (ingest + store when present).
fn run_ingest_serve(
    server: temspc_ingest::IngestServer<'_>,
    args: &ParsedArgs,
    store: Option<&temspc_fleet::ModelStore>,
) -> CmdResult {
    let report_path = args.get_or("report", "ingest_session.tpb").to_string();
    println!("listening on {}", server.local_addr()?);
    if let Some(path) = &server.config().incidents {
        println!("streaming incidents to {path}");
    }
    match server.config().expect {
        Some(n) => println!("serving until {n} connection(s) complete (or SIGINT/SIGTERM)"),
        None => println!("serving until SIGINT/SIGTERM; draining in-flight batches on stop"),
    }
    let stop = temspc_ingest::install_handlers();
    let report = server.run(stop)?;

    print_plants(&report.fleet_report());
    println!(
        "totals: {} connection(s), {} frames, {} steps, {} wire bytes, {} dropped, {} reassembly error(s)",
        report.connections.len(),
        report.frames,
        report.steps,
        report.bytes,
        report.drops,
        report.reassembly_errors
    );
    temspc_ingest::save_report(&report, &report_path)?;
    println!("wrote {report_path}");
    if let Some(path) = args.get("metrics") {
        let mut text = server.metrics().expose();
        if let Some(store) = store {
            text.push_str(&store.metrics().expose());
        }
        std::fs::write(path, text)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `temspc ingest drive` — replay capture tapes over real TCP sockets as
/// a load generator for `ingest serve`.
fn ingest_drive(args: &ParsedArgs) -> CmdResult {
    let config = ingest_drive_config(args)?;
    println!(
        "driving {} connection(s) at {} into {} ({} tape(s))",
        config.connections,
        if config.rate > 0.0 {
            format!("{} frame/s each", config.rate)
        } else {
            "full rate".to_string()
        },
        config.addr,
        config.tapes.len()
    );
    let report = temspc_ingest::drive(&config)?;
    println!(
        "drove {} connection(s): {} frames, {} wire bytes in {:.2} s",
        report.connections, report.frames, report.bytes, report.elapsed_secs
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn ingest_serve_defaults() {
        let args = parse(&["ingest", "serve", "--model", "model.tpb"]);
        assert_eq!(args.subcommand(), Some("ingest"));
        assert_eq!(args.action(), Some("serve"));
        let config = ingest_serve_config(&args).unwrap();
        assert_eq!(config.addr, "127.0.0.1:4840");
        assert_eq!(config.max_connections, 1024);
        assert_eq!(config.queue_depth, 256);
        assert_eq!(config.batch_steps, 512);
        assert_eq!(config.threads, 0);
        assert_eq!(config.expect, None);
    }

    #[test]
    fn ingest_serve_flags_parse() {
        let args = parse(&[
            "ingest",
            "serve",
            "--model",
            "m.tpb",
            "--addr",
            "0.0.0.0:9000",
            "--max-connections=64",
            "--queue-depth",
            "32",
            "--batch-steps",
            "128",
            "--threads",
            "3",
            "--expect",
            "64",
        ]);
        let config = ingest_serve_config(&args).unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.max_connections, 64);
        assert_eq!(config.queue_depth, 32);
        assert_eq!(config.batch_steps, 128);
        assert_eq!(config.threads, 3);
        assert_eq!(config.expect, Some(64));
    }

    #[test]
    fn ingest_serve_rejects_zero_limits() {
        for bad in [
            ["ingest", "serve", "--max-connections", "0"],
            ["ingest", "serve", "--queue-depth", "0"],
            ["ingest", "serve", "--batch-steps", "0"],
        ] {
            let args = parse(&bad);
            assert!(ingest_serve_config(&args).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ingest_serve_rejects_bad_expect() {
        let args = parse(&["ingest", "serve", "--expect", "many"]);
        assert!(ingest_serve_config(&args).is_err());
    }

    #[test]
    fn ingest_drive_parses_tape_list() {
        let args = parse(&[
            "ingest",
            "drive",
            "--tapes",
            "a.cap, b.cap,",
            "--connections",
            "64",
            "--rate",
            "2.5",
            "--chunk",
            "7",
        ]);
        let config = ingest_drive_config(&args).unwrap();
        assert_eq!(config.addr, "127.0.0.1:4840");
        assert_eq!(
            config.tapes,
            vec![
                std::path::PathBuf::from("a.cap"),
                std::path::PathBuf::from("b.cap")
            ]
        );
        assert_eq!(config.connections, 64);
        assert_eq!(config.rate, 2.5);
        assert_eq!(config.chunk, 7);
    }

    #[test]
    fn ingest_drive_scans_tape_dir_sorted() {
        let dir = std::env::temp_dir().join(format!("temspc_cli_tapes_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.cap"), b"x").unwrap();
        std::fs::write(dir.join("a.cap"), b"x").unwrap();
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        let args = parse(&["ingest", "drive", "--tape-dir", &dir_str]);
        let config = ingest_drive_config(&args).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let names: Vec<_> = config
            .tapes
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["a.cap", "b.cap"]);
    }

    #[test]
    fn ingest_drive_requires_tapes() {
        let args = parse(&["ingest", "drive"]);
        let err = ingest_drive_config(&args).unwrap_err().to_string();
        assert!(err.contains("no tapes"), "unexpected error: {err}");
        let args = parse(&["ingest", "drive", "--connections", "0", "--tapes", "a.cap"]);
        assert!(ingest_drive_config(&args).is_err());
    }

    #[test]
    fn digest_is_a_boolean_flag() {
        let args = parse(&[
            "replay",
            "--model",
            "m.tpb",
            "--capture",
            "r.cap",
            "--digest",
        ]);
        assert!(args.flag("digest"));
        assert_eq!(args.get("capture"), Some("r.cap"));
    }

    #[test]
    fn misspelled_flags_are_rejected() {
        for (tokens, typo) in [
            (
                &["calibrate", "--runs", "1", "--out", "m.tpb", "--hourz", "9"][..],
                "hourz",
            ),
            (&["ingest", "serve", "--modle", "m.tpb"][..], "modle"),
            (&["list", "--bogus-flag", "3"][..], "bogus-flag"),
            (&["fleet", "--modle", "m.tpb", "--plants", "2"][..], "modle"),
        ] {
            assert_eq!(
                parse(tokens).reject_unknown(USAGE),
                Err(crate::args::ArgsError::UnknownOption(typo.into())),
                "{tokens:?}"
            );
        }
        // A flag of one ingest action is unknown to the other.
        let args = parse(&["ingest", "serve", "--tapes", "a.cap"]);
        assert!(args.reject_unknown(USAGE).is_err());
    }

    #[test]
    fn every_usage_flag_is_accepted_by_its_own_subcommand() {
        let blocks = crate::args::usage_blocks(USAGE);
        assert!(blocks.len() >= 11, "USAGE blocks not found: {blocks:?}");
        for block in &blocks {
            let action = block.actions.first().copied();
            for option in &block.options {
                let given = format!("--{option}=1");
                let tokens: Vec<&str> = [block.subcommand]
                    .into_iter()
                    .chain(action)
                    .chain([given.as_str()])
                    .collect();
                assert_eq!(parse(&tokens).reject_unknown(USAGE), Ok(()), "{tokens:?}");
            }
        }
    }

    #[test]
    fn usage_mentions_every_subcommand_dispatched() {
        // Help-text drift gate: every subcommand the binary dispatches
        // must appear in USAGE, including the ingest family.
        for name in [
            "simulate",
            "calibrate",
            "detect",
            "capture",
            "replay",
            "fleet",
            "ingest",
            "store",
            "experiments",
            "list",
        ] {
            assert!(
                USAGE.contains(&format!("temspc {name}")),
                "USAGE lost the '{name}' subcommand"
            );
        }
        for flag in [
            "--max-connections",
            "--queue-depth",
            "--batch-steps",
            "--digest",
        ] {
            assert!(USAGE.contains(flag), "USAGE lost the '{flag}' flag");
        }
    }
}
