//! Run-level durability: periodic, atomically-written snapshots of the
//! scheduling core's driver state, and the resume path that restores
//! them.
//!
//! PLB-HeC's value is the state it accumulates online — fitted `F_p`/`G_p`
//! curves, per-unit measurements, quarantine history, and the disjoint
//! cover of completed work. A process crash used to throw all of it away;
//! this module persists it so a run can be SIGKILLed and picked back up
//! on the remaining uncovered items with zero re-probing.
//!
//! Format and guarantees (see `docs/FAULT_TOLERANCE.md`):
//!
//! * **Atomic writes.** A snapshot is serialized to a sibling `.tmp`
//!   file, flushed with `sync_all`, then renamed over the target path.
//!   A reader (including a resuming process) never observes a partial
//!   snapshot — it sees either the previous complete one or the new one.
//! * **Checksummed.** The file is two lines: a small JSON header
//!   carrying an FNV-1a 64 checksum, then the JSON payload the checksum
//!   covers. Truncation and bit-rot are detected at load, not silently
//!   resumed from.
//! * **Workload identity.** A snapshot names the policy, total item
//!   count, unit count, total cost and node roster it was taken under;
//!   [`Checkpoint::matches`] rejects resuming it under a different
//!   workload.
//! * **One version.** [`load`] reads only the version this build writes
//!   ([`CHECKPOINT_FORMAT_VERSION`]).
//!
//! This is the *only* module in `plb-runtime` allowed to touch the
//! filesystem — xtask lint pass 7 (`fs-confinement`) enforces that.

use crate::events::EventCounters;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version stamped into every snapshot, and the only one [`load`]
/// accepts. A change to the snapshot bumps it, and the version
/// `docs/FAULT_TOLERANCE.md` states with it.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 4;

/// Magic tag on the header line, so a wrong file path fails loudly.
const MAGIC: &str = "plb-checkpoint";

/// Identity of the workload a snapshot was taken under. Resuming
/// requires an exact match: a snapshot of one run must not silently
/// seed a different one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadId {
    /// Scheduling-policy name ([`Policy::name`](crate::Policy::name)).
    pub policy: String,
    /// Items the application processes.
    pub total_items: u64,
    /// Processing units in the cluster.
    pub n_pus: usize,
    /// Total workload weight in cost units ([`crate::Weights`]); equals
    /// `total_items` under uniform weights.
    pub total_cost: u64,
    /// Node roster of a cluster-tier run: one display name per node,
    /// in shard order. Empty for a single-node run, so a cluster
    /// snapshot never resumes a single-node workload, nor the reverse.
    pub nodes: Vec<String>,
}

/// Persisted per-unit driver state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PuState {
    /// Display name of the unit (sanity only, not matched on resume).
    pub name: String,
    /// Lifetime dispatch count on this unit — the fault-plan attempt
    /// index, restored so injected faults stay deterministic across a
    /// resume.
    pub dispatches: u64,
    /// Failures in a row at snapshot time (quarantine threshold state).
    pub consecutive_failures: u32,
    /// Smoothed observed processing rate, cost units/second (items/second
    /// under uniform weights).
    pub rate_ewma: Option<f64>,
    /// The unit was out of the active set when the snapshot was taken.
    pub quarantined: bool,
    /// The unit's executor was written off (worker infrastructure died).
    pub lost: bool,
}

/// One durability snapshot of the driver state: everything `drive()`
/// needs to continue a run in a fresh process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Snapshot format version ([`CHECKPOINT_FORMAT_VERSION`]).
    pub version: u32,
    /// The workload this snapshot belongs to.
    pub workload: WorkloadId,
    /// 0-based sequence number of this snapshot within the run.
    pub seq: u64,
    /// Engine clock at snapshot time, seconds (diagnostic only).
    pub at: f64,
    /// Completed tasks so far (lifetime, across resumes).
    pub tasks_done: u64,
    /// Next engine task id to hand out.
    pub next_task: u64,
    /// The disjoint cover of finished work: sorted, coalesced,
    /// non-overlapping `(offset, items)` ranges. The complement is what
    /// a resumed run still has to do.
    pub completed: Vec<(u64, u64)>,
    /// Per-unit driver state, indexed by unit id.
    pub units: Vec<PuState>,
    /// Lifetime event counters at snapshot time (held + pre-resume).
    pub counters: EventCounters,
    /// Opaque policy snapshot ([`Policy::snapshot`](crate::Policy::snapshot)):
    /// for PLB-HeC, the accumulated profiles and fitted models that make
    /// re-probing unnecessary.
    pub policy_state: Option<serde_json::Value>,
}

impl Checkpoint {
    /// Items covered by the completed ranges.
    pub fn completed_items(&self) -> u64 {
        self.completed.iter().map(|&(_, len)| len).sum()
    }

    /// Structural validity: the current version, completed ranges sorted,
    /// non-empty, disjoint and in bounds, unit list sized to the
    /// workload.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::Unsupported {
                version: self.version,
            });
        }
        if self.units.len() != self.workload.n_pus {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot has {} unit records for a {}-unit workload",
                self.units.len(),
                self.workload.n_pus
            )));
        }
        let mut prev_end = 0u64;
        for (i, &(off, len)) in self.completed.iter().enumerate() {
            if len == 0 {
                return Err(CheckpointError::Corrupt(format!(
                    "completed range #{i} is empty"
                )));
            }
            if i > 0 && off < prev_end {
                return Err(CheckpointError::Corrupt(format!(
                    "completed range #{i} at offset {off} overlaps or precedes the previous range ending at {prev_end}"
                )));
            }
            let end = off.checked_add(len).ok_or_else(|| {
                CheckpointError::Corrupt(format!("completed range #{i} overflows u64"))
            })?;
            if end > self.workload.total_items {
                return Err(CheckpointError::Corrupt(format!(
                    "completed range #{i} ends at {end}, past the {}-item workload",
                    self.workload.total_items
                )));
            }
            prev_end = end;
        }
        Ok(())
    }

    /// Does this snapshot belong to `workload`? Resume refuses a
    /// mismatch in any field instead of corrupting a different run.
    pub fn matches(&self, workload: &WorkloadId) -> Result<(), CheckpointError> {
        if self.workload == *workload {
            return Ok(());
        }
        let describe = |w: &WorkloadId| {
            let roster = if w.nodes.is_empty() {
                String::new()
            } else {
                format!(" / nodes [{}]", w.nodes.join(", "))
            };
            format!(
                "{} / {} items / {} cost / {} units{roster}",
                w.policy, w.total_items, w.total_cost, w.n_pus
            )
        };
        Err(CheckpointError::WorkloadMismatch {
            expected: describe(workload),
            found: describe(&self.workload),
        })
    }
}

/// Where and how often to snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Target file; a sibling `<file>.tmp` is used for atomic writes.
    pub path: PathBuf,
    /// Snapshot every this-many completed tasks (plus one forced
    /// snapshot on clean shutdown). Clamped to at least 1.
    pub interval_tasks: u64,
}

impl CheckpointConfig {
    /// Checkpoint to `path` with the default interval (every 32
    /// completed tasks).
    pub fn new(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            interval_tasks: 32,
        }
    }

    /// Override the snapshot interval, in completed tasks.
    #[must_use]
    pub fn with_interval(mut self, interval_tasks: u64) -> CheckpointConfig {
        self.interval_tasks = interval_tasks.max(1);
        self
    }
}

/// Stateful snapshot writer owned by the driver: tracks the sequence
/// number and the task count at the last write so `due` can answer
/// cheaply on the completion hot path.
#[derive(Debug, Clone)]
pub struct CheckpointWriter {
    cfg: CheckpointConfig,
    next_seq: u64,
    tasks_at_last: u64,
}

impl CheckpointWriter {
    /// A writer that starts a fresh snapshot sequence.
    pub fn new(cfg: CheckpointConfig) -> CheckpointWriter {
        CheckpointWriter {
            cfg,
            next_seq: 0,
            tasks_at_last: 0,
        }
    }

    /// Continue an existing sequence after a resume: the next snapshot
    /// gets `next_seq`, and the interval counts from `tasks_done`.
    pub fn continue_from(&mut self, next_seq: u64, tasks_done: u64) {
        self.next_seq = next_seq;
        self.tasks_at_last = tasks_done;
    }

    /// Is a periodic snapshot due at `tasks_done` completed tasks?
    pub fn due(&self, tasks_done: u64) -> bool {
        tasks_done.saturating_sub(self.tasks_at_last) >= self.cfg.interval_tasks.max(1)
    }

    /// Target path of the snapshots.
    pub fn path(&self) -> &Path {
        &self.cfg.path
    }

    /// Stamp `ckpt` with the next sequence number and write it
    /// atomically. Returns the sequence number written.
    pub fn write(&mut self, ckpt: &mut Checkpoint) -> Result<u64, CheckpointError> {
        ckpt.seq = self.next_seq;
        save(&self.cfg.path, ckpt)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tasks_at_last = ckpt.tasks_done;
        Ok(seq)
    }
}

/// Why a snapshot could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The filesystem said no (create, write, sync or rename failed).
    Io(String),
    /// The file is not a valid snapshot: bad magic, failed checksum,
    /// truncated or structurally inconsistent payload.
    Corrupt(String),
    /// The snapshot belongs to a different workload.
    WorkloadMismatch {
        /// Identity of the run asking to resume.
        expected: String,
        /// Identity recorded in the snapshot.
        found: String,
    },
    /// The snapshot was written in a format version other than
    /// [`CHECKPOINT_FORMAT_VERSION`].
    Unsupported {
        /// Version found in the snapshot.
        version: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(detail) => write!(f, "checkpoint I/O failed: {detail}"),
            CheckpointError::Corrupt(detail) => write!(f, "checkpoint corrupt: {detail}"),
            CheckpointError::WorkloadMismatch { expected, found } => write!(
                f,
                "checkpoint is for a different workload: expected {expected}, found {found}"
            ),
            CheckpointError::Unsupported { version } => write!(
                f,
                "checkpoint format version {version}; this build reads only {CHECKPOINT_FORMAT_VERSION}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit — dependency-free integrity check for the payload
/// line. Not cryptographic; it guards against truncation and bit-rot,
/// not adversaries.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The header line preceding the payload.
#[derive(Serialize, Deserialize)]
struct FileHeader {
    magic: String,
    /// FNV-1a 64 over the payload line's bytes, hex-encoded.
    checksum: String,
}

/// Atomically persist `ckpt` to `path`: serialize, write `<path>.tmp`,
/// `sync_all`, rename over `path`. On any error the previous snapshot
/// at `path` (if one exists) is left untouched.
pub fn save(path: &Path, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    let payload = serde_json::to_string(ckpt)
        .map_err(|e| CheckpointError::Io(format!("serialize snapshot: {e}")))?;
    let header = serde_json::to_string(&FileHeader {
        magic: MAGIC.to_string(),
        checksum: format!("{:016x}", checksum64(payload.as_bytes())),
    })
    .map_err(|e| CheckpointError::Io(format!("serialize header: {e}")))?;

    let tmp = tmp_path(path);
    let io = |what: &str, e: std::io::Error| {
        CheckpointError::Io(format!("{what} {}: {e}", tmp.display()))
    };
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io("create", e))?;
        f.write_all(header.as_bytes()).map_err(|e| io("write", e))?;
        f.write_all(b"\n").map_err(|e| io("write", e))?;
        f.write_all(payload.as_bytes())
            .map_err(|e| io("write", e))?;
        f.write_all(b"\n").map_err(|e| io("write", e))?;
        f.sync_all().map_err(|e| io("sync", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        CheckpointError::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// Load and verify a snapshot: magic, checksum, version, structural
/// validity. Never observes a partial file thanks to the atomic write
/// protocol.
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
    let (header_line, payload) = text
        .split_once('\n')
        .ok_or_else(|| CheckpointError::Corrupt("missing payload line".into()))?;
    let payload = payload.strip_suffix('\n').unwrap_or(payload);
    let header: FileHeader = serde_json::from_str(header_line)
        .map_err(|e| CheckpointError::Corrupt(format!("bad header line: {e}")))?;
    if header.magic != MAGIC {
        return Err(CheckpointError::Corrupt(format!(
            "bad magic {:?}",
            header.magic
        )));
    }
    let actual = format!("{:016x}", checksum64(payload.as_bytes()));
    if header.checksum != actual {
        return Err(CheckpointError::Corrupt(format!(
            "checksum mismatch: header says {}, payload hashes to {actual}",
            header.checksum
        )));
    }
    let ckpt: Checkpoint = serde_json::from_str(payload)
        .map_err(|e| CheckpointError::Corrupt(format!("bad payload: {e}")))?;
    ckpt.validate()?;
    Ok(ckpt)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            workload: WorkloadId {
                policy: "plb-hec".into(),
                total_items: 1000,
                n_pus: 2,
                total_cost: 1000,
                nodes: Vec::new(),
            },
            seq: 0,
            at: 1.25,
            tasks_done: 7,
            next_task: 9,
            completed: vec![(0, 100), (200, 300)],
            units: vec![
                PuState {
                    name: "cpu".into(),
                    dispatches: 5,
                    consecutive_failures: 0,
                    rate_ewma: Some(1234.5),
                    quarantined: false,
                    lost: false,
                },
                PuState {
                    name: "gpu".into(),
                    dispatches: 4,
                    consecutive_failures: 2,
                    rate_ewma: None,
                    quarantined: true,
                    lost: false,
                },
            ],
            counters: EventCounters::default(),
            policy_state: Some(serde_json::json!({"models": []})),
        }
    }

    fn tmp_file(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("plb-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_through_disk() {
        let path = tmp_file("roundtrip");
        let ckpt = sample();
        save(&path, &ckpt).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        assert_eq!(loaded.completed_items(), 400);
        // The atomic-write protocol leaves no stray tmp file behind.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_paces_and_numbers_snapshots() {
        let path = tmp_file("writer");
        let mut w = CheckpointWriter::new(CheckpointConfig::new(&path).with_interval(4));
        assert!(!w.due(3));
        assert!(w.due(4));
        let mut ckpt = sample();
        assert_eq!(w.write(&mut ckpt).unwrap(), 0);
        assert_eq!(ckpt.seq, 0);
        // The interval now counts from the written snapshot's task count.
        assert!(!w.due(ckpt.tasks_done + 3));
        assert!(w.due(ckpt.tasks_done + 4));
        assert_eq!(w.write(&mut ckpt).unwrap(), 1);
        // A resumed writer continues the sequence.
        let mut w2 = CheckpointWriter::new(CheckpointConfig::new(&path));
        w2.continue_from(2, 7);
        let mut ckpt2 = sample();
        assert_eq!(w2.write(&mut ckpt2).unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_and_truncation_detected() {
        let path = tmp_file("corrupt");
        save(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Flip a byte inside the payload.
        let mut flipped = text.clone();
        let at = flipped.rfind("plb-hec").unwrap();
        flipped.replace_range(at..at + 7, "plb-heq");
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Corrupt(_))));

        // Truncate the payload.
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Corrupt(_))));

        // Header only, no payload line.
        let header = text.split('\n').next().unwrap();
        std::fs::write(&path, header).unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Corrupt(_))));

        // Not a checkpoint file at all.
        std::fs::write(&path, "{}\n{}\n").unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::Corrupt(_))));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let err = load(Path::new("/nonexistent/plb.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn validate_rejects_bad_covers_and_versions() {
        let mut c = sample();
        c.completed = vec![(0, 100), (50, 10)];
        assert!(matches!(c.validate(), Err(CheckpointError::Corrupt(_))));
        c.completed = vec![(0, 0)];
        assert!(matches!(c.validate(), Err(CheckpointError::Corrupt(_))));
        c.completed = vec![(990, 20)];
        assert!(matches!(c.validate(), Err(CheckpointError::Corrupt(_))));
        c.completed = vec![(0, 100)];
        c.units.pop();
        assert!(matches!(c.validate(), Err(CheckpointError::Corrupt(_))));
        // Only the current version is read: a newer one and an older
        // one are refused alike.
        for version in [CHECKPOINT_FORMAT_VERSION + 1, CHECKPOINT_FORMAT_VERSION - 1] {
            let mut other = sample();
            other.version = version;
            let err = other.validate().unwrap_err();
            assert_eq!(err, CheckpointError::Unsupported { version });
            assert!(err.to_string().contains("this build reads only"), "{err}");
        }
    }

    #[test]
    fn workload_mismatch_is_specific() {
        let c = sample();
        let other = WorkloadId {
            policy: "greedy".into(),
            total_items: 1000,
            n_pus: 2,
            total_cost: 1000,
            nodes: Vec::new(),
        };
        assert!(c.matches(&c.workload).is_ok());
        let err = c.matches(&other).unwrap_err();
        assert!(matches!(err, CheckpointError::WorkloadMismatch { .. }));
        assert!(err.to_string().contains("greedy"));
        // Cost and roster are identity too.
        let mut reweighted = c.workload.clone();
        reweighted.total_cost = 999;
        let err = c.matches(&reweighted).unwrap_err();
        assert!(err.to_string().contains("999 cost"), "{err}");
        let mut cluster = sample();
        cluster.workload.nodes = vec!["node0".into(), "node1".into()];
        let mut reshaped = cluster.workload.clone();
        reshaped.nodes = vec!["node0".into(), "node2".into()];
        let err = cluster.matches(&reshaped).unwrap_err();
        assert!(err.to_string().contains("node2"), "{err}");
        // A cluster snapshot does not resume a single-node workload of
        // the same policy, items, cost and unit count, nor the reverse.
        assert!(cluster.matches(&c.workload).is_err());
        assert!(c.matches(&cluster.workload).is_err());
    }
}
