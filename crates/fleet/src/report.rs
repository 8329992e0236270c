//! Per-plant records and aggregate reporting: the
//! disturbance-vs-intrusion confusion matrix and latency statistics.

use serde::{Deserialize, Serialize};
use temspc::diagnosis::{diagnose, VerdictThresholds};
use temspc::{DualMspc, ScenarioKind, ScenarioOutcome, Verdict, SAMPLES_PER_HOUR};

/// Everything one plant yielded, whether it ran in a fleet campaign or
/// streamed into `temspc ingest serve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantRecord {
    /// Plant index within the fleet (`u32::MAX` for a served connection
    /// whose handshake never arrived).
    pub plant: u32,
    /// The scenario this plant ran (ground truth).
    pub kind: ScenarioKind,
    /// The plant's RNG seed.
    pub seed: u64,
    /// Whether the plant was scored to a clean end (false → it panicked,
    /// its run, capture or model resolution failed, or its stream tore).
    pub completed: bool,
    /// Closed-loop steps scored.
    pub steps: u64,
    /// Panic, run-error or stream-fault message of a failed plant.
    pub fault: Option<String>,
    /// Hours from anomaly onset to first detection (either level).
    pub detection_latency_hours: Option<f64>,
    /// Alarms raised before the anomaly onset.
    pub false_alarms: u32,
    /// The dual-level oMEDA verdict, if an anomalous window was
    /// collected.
    pub verdict: Option<Verdict>,
    /// [`detection_digest`] of the scored outcome, for bit-identity
    /// diffs between live, replayed and served runs (0 when not scored).
    pub digest: u64,
    /// Hour at which a safety interlock shut the plant down, if one did
    /// (always `None` when served: the wire carries no shutdown record).
    pub shutdown_hour: Option<f64>,
    /// Generation of the model-store entry that scored this plant
    /// (0 = a shared monitor, which has no store lineage). Checkpoint
    /// resume compares this against the store's current generation so
    /// one report never mixes calibrations.
    pub model_generation: u64,
}

impl PlantRecord {
    /// The record of a plant scored to a clean end: the one place an
    /// outcome becomes a verdict, a digest and a detection latency.
    ///
    /// `steps` is the number of steps scored; `None` derives it from the
    /// run's end hour (the shutdown hour, or the scenario duration),
    /// which is exact for a simulated or replayed run because the plant
    /// advances one `1 / SAMPLES_PER_HOUR` hour per step.
    pub fn scored(
        plant: u32,
        monitor: &DualMspc,
        outcome: &ScenarioOutcome,
        steps: Option<u64>,
        model_generation: u64,
    ) -> Self {
        let scenario = &outcome.run.scenario;
        let shutdown_hour = outcome.run.shutdown.map(|(_, hour)| hour);
        let end_hour = shutdown_hour.unwrap_or(scenario.duration_hours);
        PlantRecord {
            plant,
            kind: scenario.kind,
            seed: scenario.seed,
            completed: true,
            steps: steps.unwrap_or_else(|| (end_hour * SAMPLES_PER_HOUR as f64).round() as u64),
            fault: None,
            detection_latency_hours: outcome.detection.run_length(scenario.onset_hour),
            false_alarms: outcome.false_alarms as u32,
            verdict: diagnose(monitor, outcome, VerdictThresholds::default()).map(|d| d.verdict),
            digest: detection_digest(outcome),
            shutdown_hour,
            model_generation,
        }
    }

    /// The record of a plant that was not scored to a clean end.
    pub fn failed(plant: u32, kind: ScenarioKind, seed: u64, fault: String) -> Self {
        PlantRecord {
            plant,
            kind,
            seed,
            completed: false,
            steps: 0,
            fault: Some(fault),
            detection_latency_hours: None,
            false_alarms: 0,
            verdict: None,
            digest: 0,
            shutdown_hour: None,
            model_generation: 0,
        }
    }

    /// Ground-truth class of this plant's scenario.
    pub fn truth(&self) -> Truth {
        match self.kind {
            ScenarioKind::Normal => Truth::Normal,
            k if k.is_attack() => Truth::Intrusion,
            _ => Truth::Disturbance,
        }
    }

    /// Whether the verdict matches the ground truth (only meaningful for
    /// anomalous plants).
    pub fn verdict_correct(&self) -> Option<bool> {
        let v = self.verdict?;
        match self.truth() {
            Truth::Normal => None,
            Truth::Disturbance => Some(v == Verdict::Disturbance),
            Truth::Intrusion => Some(v == Verdict::Intrusion),
        }
    }
}

/// One row per plant, as `temspc fleet` and `temspc ingest serve` print
/// them (plus an indented `fault:` line for a failed plant).
impl std::fmt::Display for PlantRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = if self.completed { "complete" } else { "failed" };
        let latency = self
            .detection_latency_hours
            .map_or_else(|| "-".to_string(), |h| format!("{:.1} s", h * 3600.0));
        let verdict = self
            .verdict
            .map_or_else(|| "-".to_string(), |v| v.to_string());
        write!(
            f,
            "plant {:>4} [{status}] {} steps, verdict {verdict}, latency {latency}, \
             digest {:016x}, gen {}",
            self.plant, self.steps, self.digest, self.model_generation
        )?;
        if let Some(fault) = &self.fault {
            write!(f, "\n  fault: {fault}")?;
        }
        Ok(())
    }
}

/// A stable 64-bit digest over a scored outcome's detection-relevant
/// fields: both levels' detection and first-violation hours (bit
/// patterns, not rounded values) and the false-alarm count.
///
/// Two outcomes digest equal iff their detections are bit-identical, so
/// diffing the digest printed by `temspc ingest serve` against `temspc
/// replay --digest` of the same tape proves the served scoring path
/// equals the offline one without shipping whole outcomes around.
pub fn detection_digest(outcome: &ScenarioOutcome) -> u64 {
    // FNV-1a: dependency-free and deterministic across platforms.
    let mut hash = temspc_persist::Fnv1a::new();
    for event in [&outcome.detection.controller, &outcome.detection.process] {
        match event {
            Some(e) => {
                hash.write(&[1]);
                hash.write(&e.detected_hour.to_bits().to_be_bytes());
                hash.write(&e.first_violation_hour.to_bits().to_be_bytes());
            }
            None => hash.write(&[0]),
        }
    }
    hash.write(&(outcome.false_alarms as u64).to_be_bytes());
    hash.finish()
}

/// Ground-truth class of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Truth {
    /// No anomaly scheduled.
    Normal,
    /// A natural process disturbance.
    Disturbance,
    /// A fieldbus attack.
    Intrusion,
}

impl Truth {
    fn label(self) -> &'static str {
        match self {
            Truth::Normal => "normal",
            Truth::Disturbance => "disturbance",
            Truth::Intrusion => "intrusion",
        }
    }
}

/// How the fleet classified one plant, collapsing the per-plant outcome
/// into one column of the confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Diagnosed as a disturbance.
    Disturbance,
    /// Diagnosed as an intrusion.
    Intrusion,
    /// Detected but the diagnosis was inconclusive.
    Inconclusive,
    /// Nothing detected for the whole run.
    Undetected,
    /// The plant was not scored to a clean end (see
    /// [`PlantRecord::fault`]).
    Failed,
}

const OUTCOMES: [Outcome; 5] = [
    Outcome::Disturbance,
    Outcome::Intrusion,
    Outcome::Inconclusive,
    Outcome::Undetected,
    Outcome::Failed,
];

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Disturbance => "disturbance",
            Outcome::Intrusion => "intrusion",
            Outcome::Inconclusive => "inconclusive",
            Outcome::Undetected => "undetected",
            Outcome::Failed => "failed",
        }
    }

    fn of(record: &PlantRecord) -> Outcome {
        if !record.completed {
            return Outcome::Failed;
        }
        match record.verdict {
            Some(Verdict::Disturbance) => Outcome::Disturbance,
            Some(Verdict::Intrusion) => Outcome::Intrusion,
            Some(Verdict::Inconclusive) => Outcome::Inconclusive,
            None => Outcome::Undetected,
        }
    }
}

/// The aggregate report over a whole fleet.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-plant records, sorted by plant index.
    pub records: Vec<PlantRecord>,
}

impl FleetReport {
    /// Builds a report from records (sorts them by plant index so the
    /// report is identical regardless of worker completion order).
    pub fn new(mut records: Vec<PlantRecord>) -> Self {
        records.sort_by_key(|r| r.plant);
        FleetReport { records }
    }

    /// Count of `(truth, outcome)` pairs.
    pub fn confusion(&self, truth: Truth, outcome: Outcome) -> usize {
        self.records
            .iter()
            .filter(|r| r.truth() == truth && Outcome::of(r) == outcome)
            .count()
    }

    /// Verdict accuracy over anomalous plants that produced a verdict.
    pub fn verdict_accuracy(&self) -> Option<f64> {
        let judged: Vec<bool> = self
            .records
            .iter()
            .filter_map(PlantRecord::verdict_correct)
            .collect();
        (!judged.is_empty())
            .then(|| judged.iter().filter(|c| **c).count() as f64 / judged.len() as f64)
    }

    /// Mean detection latency in hours over detected anomalous plants.
    pub fn mean_latency_hours(&self) -> Option<f64> {
        let lat: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.truth() != Truth::Normal)
            .filter_map(|r| r.detection_latency_hours)
            .collect();
        (!lat.is_empty()).then(|| lat.iter().sum::<f64>() / lat.len() as f64)
    }

    /// Plants that were not scored to a clean end.
    pub fn failed_plants(&self) -> Vec<u32> {
        self.records
            .iter()
            .filter(|r| !r.completed)
            .map(|r| r.plant)
            .collect()
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fleet report: {} plants", self.records.len())?;
        writeln!(f)?;
        write!(f, "{:<14}", "truth \\ said")?;
        for o in OUTCOMES {
            write!(f, "{:>14}", o.label())?;
        }
        writeln!(f)?;
        for truth in [Truth::Normal, Truth::Disturbance, Truth::Intrusion] {
            write!(f, "{:<14}", truth.label())?;
            for o in OUTCOMES {
                write!(f, "{:>14}", self.confusion(truth, o))?;
            }
            writeln!(f)?;
        }
        writeln!(f)?;
        if let Some(acc) = self.verdict_accuracy() {
            writeln!(f, "verdict accuracy : {:.1} %", 100.0 * acc)?;
        }
        if let Some(lat) = self.mean_latency_hours() {
            writeln!(f, "mean latency     : {:.1} s after onset", lat * 3600.0)?;
        }
        let shutdowns = self
            .records
            .iter()
            .filter(|r| r.shutdown_hour.is_some())
            .count();
        writeln!(f, "interlock trips  : {shutdowns}")?;
        let failed = self.failed_plants();
        if !failed.is_empty() {
            writeln!(f, "FAILED plants    : {failed:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(plant: u32, kind: ScenarioKind, verdict: Option<Verdict>) -> PlantRecord {
        PlantRecord {
            plant,
            kind,
            seed: 1,
            completed: true,
            steps: 2000,
            fault: None,
            detection_latency_hours: verdict.is_some().then_some(0.05),
            false_alarms: 0,
            verdict,
            digest: 0,
            shutdown_hour: None,
            model_generation: 0,
        }
    }

    #[test]
    fn report_orders_records_by_plant() {
        let report = FleetReport::new(vec![
            record(2, ScenarioKind::Normal, None),
            record(0, ScenarioKind::Idv6, Some(Verdict::Disturbance)),
            record(1, ScenarioKind::DosXmv3, Some(Verdict::Intrusion)),
        ]);
        let ids: Vec<u32> = report.records.iter().map(|r| r.plant).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn confusion_and_accuracy() {
        let report = FleetReport::new(vec![
            record(0, ScenarioKind::Idv6, Some(Verdict::Disturbance)),
            record(1, ScenarioKind::Idv6, Some(Verdict::Intrusion)),
            record(2, ScenarioKind::IntegrityXmv3, Some(Verdict::Intrusion)),
            record(3, ScenarioKind::Normal, None),
        ]);
        assert_eq!(
            report.confusion(Truth::Disturbance, Outcome::Disturbance),
            1
        );
        assert_eq!(report.confusion(Truth::Disturbance, Outcome::Intrusion), 1);
        assert_eq!(report.confusion(Truth::Intrusion, Outcome::Intrusion), 1);
        assert_eq!(report.confusion(Truth::Normal, Outcome::Undetected), 1);
        // 2 of 3 judged verdicts are correct.
        assert!((report.verdict_accuracy().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn failed_plants_show_up() {
        let mut bad = record(5, ScenarioKind::Idv6, None);
        bad.completed = false;
        let report = FleetReport::new(vec![bad, record(1, ScenarioKind::Normal, None)]);
        assert_eq!(report.failed_plants(), vec![5]);
        assert_eq!(report.confusion(Truth::Disturbance, Outcome::Failed), 1);
        let text = report.to_string();
        assert!(text.contains("FAILED plants"));
    }

    #[test]
    fn display_contains_matrix_rows() {
        let report = FleetReport::new(vec![record(0, ScenarioKind::Normal, None)]);
        let text = report.to_string();
        assert!(text.contains("normal"));
        assert!(text.contains("disturbance"));
        assert!(text.contains("intrusion"));
        assert!(text.contains("undetected"));
    }
}
