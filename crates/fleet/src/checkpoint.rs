//! Fleet checkpointing: periodic snapshots of completed plant records,
//! so an interrupted campaign resumes instead of recomputing.
//!
//! Snapshots are [`temspc_persist`] checkpoint files, written
//! atomically (temp file + rename) so a crash mid-write never leaves a
//! torn checkpoint behind.

use std::path::Path;

use serde::{Deserialize, Serialize};
use temspc_persist::{FileError, FileKind};

use crate::engine::FleetConfig;
use crate::report::PlantRecord;

/// A snapshot of a (possibly partial) fleet campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// The configuration the campaign was started with. Resume refuses a
    /// checkpoint whose configuration differs — per-plant scenarios are
    /// derived from it, so mixing configurations would corrupt the
    /// aggregate report.
    pub config: FleetConfig,
    /// Records of the plants finished so far.
    pub records: Vec<PlantRecord>,
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// The checkpoint file could not be written or read back.
    File(FileError),
    /// The checkpoint was produced by a different fleet configuration.
    ConfigMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::File(e) => write!(f, "checkpoint file: {e}"),
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint belongs to a different fleet configuration")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::File(e) => Some(e),
            CheckpointError::ConfigMismatch => None,
        }
    }
}

impl From<FileError> for CheckpointError {
    fn from(e: FileError) -> Self {
        CheckpointError::File(e)
    }
}

/// Saves a checkpoint atomically; fails with [`CheckpointError::File`].
pub fn save(checkpoint: &FleetCheckpoint, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let kind = FileKind::Checkpoint;
    Ok(temspc_persist::save(path, kind, 0, checkpoint)?)
}

/// Loads a checkpoint saved with [`save`]; fails with
/// [`CheckpointError::File`].
pub fn load(path: impl AsRef<Path>) -> Result<FleetCheckpoint, CheckpointError> {
    Ok(temspc_persist::load(path, FileKind::Checkpoint)?.0)
}

/// Loads a checkpoint if `path` exists, validating it against `config`.
///
/// Returns an empty record set when there is no checkpoint yet (the
/// common first-run case).
///
/// # Errors
///
/// Returns [`CheckpointError::ConfigMismatch`] when the file belongs to
/// a differently configured campaign, or the underlying I/O/decoding
/// error.
pub fn resume(
    path: impl AsRef<Path>,
    config: &FleetConfig,
) -> Result<Vec<PlantRecord>, CheckpointError> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(Vec::new());
    }
    let checkpoint = load(path)?;
    if checkpoint.config != *config {
        return Err(CheckpointError::ConfigMismatch);
    }
    Ok(checkpoint.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use temspc::ScenarioKind;

    /// Per-test directory: tests run in parallel, so cleanup of a shared
    /// directory would race with a sibling's save/load.
    fn tmp(test: &str, name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("temspc_fleet_ckpt_{test}"))
            .join(name)
    }

    fn sample() -> FleetCheckpoint {
        FleetCheckpoint {
            config: FleetConfig {
                plants: 4,
                ..FleetConfig::default()
            },
            records: vec![PlantRecord {
                plant: 1,
                kind: ScenarioKind::Idv6,
                seed: 99,
                completed: true,
                steps: 2000,
                fault: Some("transient".into()),
                detection_latency_hours: Some(0.07),
                false_alarms: 0,
                verdict: Some(temspc::Verdict::Disturbance),
                digest: 0x0123_4567_89ab_cdef,
                shutdown_hour: None,
                model_generation: 1,
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip", "ck.tpb");
        let ck = sample();
        save(&ck, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.config, ck.config);
        assert_eq!(loaded.records, ck.records);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn resume_filters_and_validates() {
        let path = tmp("resume", "ck.tpb");
        let ck = sample();
        save(&ck, &path).unwrap();
        let records = resume(&path, &ck.config).unwrap();
        assert_eq!(records.len(), 1);
        let other = FleetConfig {
            plants: 8,
            ..FleetConfig::default()
        };
        assert!(matches!(
            resume(&path, &other),
            Err(CheckpointError::ConfigMismatch)
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_checkpoint_resumes_empty() {
        let records = resume(tmp("missing", "none.tpb"), &FleetConfig::default()).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("badheader", "garbage.tpb");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"NOTAFLEETCKPT").unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::File(FileError::Truncated(13)))
        ));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
