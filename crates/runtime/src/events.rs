//! Structured event tracing: the one record of a run.
//!
//! The stream records what each unit was *doing* — every task's submit,
//! start and finish — and what the stack *decided* and *observed*: when
//! a probe block was issued, when a curve was refit and with what
//! quality, when the block sizes were solved and in how many steps,
//! when a rebalance fired and why, when a device failed or slowed down.
//! That makes every run a replayable, diagnosable artifact (the data
//! behind the paper's Figs. 3, 6 and 7 at decision granularity). The
//! Gantt chart of Fig. 3 is a view over the stream ([`gantt_segments`]);
//! the per-unit totals of Fig. 7 come from the driver's
//! [`UnitLedger`], which a trace file carries beside the events.
//!
//! The full schema — every variant, field meanings, units — is
//! documented in `docs/OBSERVABILITY.md`, together with the JSONL file
//! format produced by [`write_jsonl`] and read back by
//! [`TraceData::parse_jsonl`], and worked diagnosis examples. The text
//! summary `plb trace` prints is built in [`table`](crate::table).
//!
//! Design notes:
//!
//! * Events are recorded into an [`EventSink`], a bounded ring buffer
//!   allocated once, at its capacity, when the sink is made: recording
//!   never allocates the ring and never blocks, so emission is safe on
//!   the scheduling hot path. The pages of the ring are touched only as
//!   events arrive. When the buffer wraps, the *oldest* events are
//!   overwritten and counted in [`EventSink::dropped`] — recent history
//!   is what debugging needs.
//! * All emission happens on the scheduler thread (both engines route
//!   policy callbacks and assignments through a single thread), so the
//!   sink needs no lock.
//! * Timestamps are clamped non-decreasing per processing unit, so
//!   per-PU event order in the buffer is always chronological even when
//!   an event carries a scheduled future time (e.g. a task start behind
//!   a scheduler-overhead window) and a perturbation lands inside that
//!   window.

use crate::metrics::UnitLedger;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema version stamped into every exported trace header, and the
/// only one [`TraceData::parse_jsonl`] accepts. A change to the schema
/// bumps it, and the version `docs/OBSERVABILITY.md` states with it.
pub const TRACE_FORMAT_VERSION: u32 = 8;

/// Default ring-buffer capacity (events).
pub(crate) const DEFAULT_SINK_CAPACITY: usize = 1 << 16;

/// What happened. Field units: times in seconds (`*_s` suffix), sizes in
/// work items. See `docs/OBSERVABILITY.md` for the 1:1 schema reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum EventKind {
    /// A run began (`pu` is `None`).
    RunStart {
        /// Policy name driving the run.
        policy: String,
        /// Items the application will process.
        total_items: u64,
        /// Processing units in the cluster.
        n_pus: usize,
    },
    /// The engine accepted an assignment for `pu`.
    TaskSubmit {
        /// Engine-assigned task id.
        task: u64,
        /// Items in the task's block.
        items: u64,
        /// Weight of the block in cost units ([`crate::Weights`]);
        /// equals `items` under uniform weights.
        cost: u64,
    },
    /// The task began occupying its unit (may trail the submit when a
    /// scheduler-overhead window delays it).
    TaskStart {
        /// Engine-assigned task id.
        task: u64,
        /// Items in the task's block.
        items: u64,
    },
    /// The task completed.
    TaskFinish {
        /// Engine-assigned task id.
        task: u64,
        /// Items in the task's block.
        items: u64,
        /// Weight of the block in cost units; equals `items` under
        /// uniform weights.
        cost: u64,
        /// Measured input-transfer time, seconds.
        xfer_s: f64,
        /// Measured kernel time, seconds.
        proc_s: f64,
    },
    /// A task attempt failed on its unit: the kernel panicked, the task
    /// blew its deadline, or the worker infrastructure died. The items
    /// are either retried in place or re-credited to the pool.
    TaskFailed {
        /// Engine-assigned task id.
        task: u64,
        /// Items in the task's block.
        items: u64,
        /// 0-based attempt number that failed (0 = first dispatch).
        attempt: u32,
        /// `"panic"`, `"deadline"` or `"worker-lost"`.
        reason: String,
    },
    /// A failed block is being retried on the same unit after an
    /// exponential backoff.
    TaskRetry {
        /// Engine-assigned task id (unchanged across retries).
        task: u64,
        /// Items in the task's block.
        items: u64,
        /// 0-based attempt number being dispatched (≥ 1).
        attempt: u32,
        /// Backoff applied before this retry, seconds.
        backoff_s: f64,
    },
    /// `pu` hit the consecutive-failure threshold and left the active
    /// set; its block's items were re-credited and the policy notified
    /// so it redistributes over the survivors.
    PuQuarantined {
        /// Consecutive failures that tripped the threshold.
        failures: u32,
    },
    /// A slowdown perturbation was applied to `pu`.
    SlowdownSet {
        /// Kernel-time multiplier from now on (1.0 = nominal).
        factor: f64,
    },
    /// `pu` failed; its in-flight task (if any) was lost.
    DeviceFailed,
    /// `pu` came back after a failure.
    DeviceRestored,
    /// The run deadlocked: no work in flight, items left, policy silent.
    Stalled {
        /// Items never assigned.
        remaining: u64,
    },
    /// The run completed (`pu` is `None`).
    RunEnd {
        /// Final makespan, seconds.
        makespan_s: f64,
        /// Items processed.
        total_items: u64,
    },
    /// A durability snapshot of the driver state was atomically written
    /// to disk (`pu` is `None`). See `docs/FAULT_TOLERANCE.md`.
    CheckpointWritten {
        /// 0-based snapshot sequence number within the checkpoint file's
        /// lifetime (monotone across a resume).
        seq: u64,
        /// Completed tasks at snapshot time (lifetime total, including
        /// tasks finished before a resume).
        tasks_done: u64,
        /// Items covered by the snapshot's completed ranges.
        completed_items: u64,
    },
    /// The run was restored from a checkpoint instead of starting fresh
    /// (`pu` is `None`): the work pool resumes on the uncovered items
    /// and the policy is re-seeded with the persisted measurements.
    RunResumed {
        /// Sequence number of the snapshot the run resumed from.
        seq: u64,
        /// Items already covered when the run resumed.
        completed_items: u64,
    },
    /// A never-before-seen unit (`pu`) joined the run mid-flight: it was
    /// latent until the global completed-task count reached its
    /// `Join` trigger, and is now eligible for work. Emitted before the
    /// policy is asked whether admitting it pays off
    /// (`docs/FAULT_TOLERANCE.md`, "Elastic capacity").
    PuJoined {
        /// Global completed-task threshold that admitted the unit.
        after_tasks: u64,
    },
    /// The deterministic drift schedule changed `pu`'s kernel-speed
    /// multiplier. Emitted only when the factor differs from the unit's
    /// previous dispatch, so a trace records the drift *trajectory*
    /// rather than one event per task.
    DriftApplied {
        /// Kernel-time multiplier applied from this dispatch on
        /// (1.0 = nominal, 2.0 = twice as slow).
        factor: f64,
    },
    /// A joined unit's measured block times came back inside the
    /// divergence envelope of its fitted curve (or the bounded
    /// post-join observation window elapsed): the split absorbed the
    /// newcomer. `pu` is the joined unit.
    Restabilized {
        /// Rebalances between the join and this event (the cost of
        /// absorbing the unit).
        rebalances: u32,
    },
    /// A `device_restored` (or join) notification reached a policy that
    /// did not override the handler: the restore was silently ignored
    /// and the unit will only receive work if the policy's normal
    /// dispatch path covers it. Debug breadcrumb for traces.
    DeviceRestoredIgnored,

    /// A cluster node (`pu` = node index in the cluster driver) was
    /// admitted — either re-admitted through the acquisition gate after
    /// a partition healed, or accepted into the active set at cluster
    /// start. Since trace v6 (`docs/FAULT_TOLERANCE.md`, "Node fault
    /// domains").
    NodeJoined {
        /// Work-pool cost still unclaimed when the node was admitted.
        remaining_cost: u64,
    },
    /// A cluster node (`pu` = node index) left the active set: it
    /// crashed, fell behind a partition, or exhausted its migration
    /// retries. Its unfinished ranges are re-credited to the surviving
    /// nodes' pool. Since trace v6.
    NodeQuarantined {
        /// `"crash"`, `"partition"` or `"migration-failures"`.
        reason: String,
    },
    /// A work chunk was migrated from its home shard to another node
    /// over the inter-node link model (`pu` = destination node).
    /// Since trace v6.
    MigrationSent {
        /// Engine-assigned task id of the migrated chunk.
        task: u64,
        /// Source node: the home shard owner the chunk migrated away
        /// from.
        from: usize,
        /// Items in the chunk.
        items: u64,
        /// Weight of the chunk in cost units.
        cost: u64,
        /// Payload size charged to the link, bytes.
        bytes: u64,
        /// Modeled transfer time over the (possibly degraded) link,
        /// seconds.
        xfer_s: f64,
    },
    /// A migration missed its delivery deadline (partition or degraded
    /// link) and is being re-sent after an exponential backoff
    /// (`pu` = destination node). Since trace v6.
    MigrationRetried {
        /// Engine-assigned task id (unchanged across resends).
        task: u64,
        /// 0-based delivery attempt being dispatched (≥ 1).
        attempt: u32,
        /// Backoff applied before this resend, seconds.
        backoff_s: f64,
    },
    /// Unfinished ranges from a quarantined node (or an undeliverable
    /// migration) were folded back into the shared pool, preserving the
    /// cluster-wide disjoint cover (`pu` = the node whose work was
    /// re-credited). Since trace v6.
    CoverRecredited {
        /// Items returned to the pool.
        items: u64,
        /// Weight of the returned range in cost units.
        cost: u64,
    },

    /// PLB-HeC issued a modeling-phase probe block to `pu`.
    ProbeIssued {
        /// Probe block size in items.
        items: u64,
        /// 1-based probe number on this unit.
        round: u32,
    },
    /// A per-unit curve fit was attempted (modeling gate or rebalancing
    /// refit).
    CurveFit {
        /// Gate quality of the processing-time fit `F_p` (R², or the
        /// relative-residual quality for near-constant data).
        r2_f: f64,
        /// Gate quality of the transfer-time fit `G_p`.
        r2_g: f64,
        /// Chosen basis of `F_p`, e.g. `"a + b·x"`.
        basis_f: String,
        /// Samples the fit consumed.
        samples: usize,
        /// Whether the fit cleared its acceptance test: the R² gate when
        /// modeling ends (budget-forced models report `false`), or fit
        /// success on a rebalancing refit (a failed refit keeps the
        /// previous model and reports `false`).
        accepted: bool,
    },
    /// The modeling phase finished (`pu` is `None`).
    ModelingDone {
        /// Items consumed by probing.
        items_used: u64,
    },
    /// A block-size selection ran (`pu` is `None`).
    BlockSolve {
        /// Items distributed by this round.
        window: u64,
        /// `"water-fill"` or `"rate-proportional"`.
        method: String,
        /// Newton steps on the common time (0 for the rate-proportional
        /// split).
        iterations: usize,
        /// Wall-clock cost of the selection, seconds.
        solve_s: f64,
        /// Predicted common finish time of the round, seconds.
        predicted_s: f64,
    },
    /// The rebalance threshold fired (`pu` = the unit whose block
    /// diverged, or the lost device).
    RebalanceTriggered {
        /// `"divergence"` (QoS drift / model error) or `"device-lost"`.
        trigger: String,
        /// Model-predicted block time, seconds (0 for `device-lost`).
        expected_s: f64,
        /// Measured block time, seconds (0 for `device-lost`).
        observed_s: f64,
        /// `|observed − expected| / expected` (0 for `device-lost`).
        divergence: f64,
    },
}

impl EventKind {
    /// Short machine name of the variant (the JSONL `kind` tag).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run_start",
            EventKind::TaskSubmit { .. } => "task_submit",
            EventKind::TaskStart { .. } => "task_start",
            EventKind::TaskFinish { .. } => "task_finish",
            EventKind::TaskFailed { .. } => "task_failed",
            EventKind::TaskRetry { .. } => "task_retry",
            EventKind::PuQuarantined { .. } => "pu_quarantined",
            EventKind::SlowdownSet { .. } => "slowdown_set",
            EventKind::DeviceFailed => "device_failed",
            EventKind::DeviceRestored => "device_restored",
            EventKind::Stalled { .. } => "stalled",
            EventKind::RunEnd { .. } => "run_end",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::RunResumed { .. } => "run_resumed",
            EventKind::PuJoined { .. } => "pu_joined",
            EventKind::DriftApplied { .. } => "drift_applied",
            EventKind::Restabilized { .. } => "restabilized",
            EventKind::DeviceRestoredIgnored => "device_restored_ignored",
            EventKind::NodeJoined { .. } => "node_joined",
            EventKind::NodeQuarantined { .. } => "node_quarantined",
            EventKind::MigrationSent { .. } => "migration_sent",
            EventKind::MigrationRetried { .. } => "migration_retried",
            EventKind::CoverRecredited { .. } => "cover_recredited",
            EventKind::ProbeIssued { .. } => "probe_issued",
            EventKind::CurveFit { .. } => "curve_fit",
            EventKind::ModelingDone { .. } => "modeling_done",
            EventKind::BlockSolve { .. } => "block_solve",
            EventKind::RebalanceTriggered { .. } => "rebalance_triggered",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Global sequence number (gaps reveal ring-buffer overwrites).
    pub seq: u64,
    /// Timestamp, seconds (virtual for the simulator, wall-clock for the
    /// host engine). Non-decreasing per `pu`.
    pub t: f64,
    /// The processing unit the event concerns, when there is one.
    pub pu: Option<usize>,
    /// The event payload.
    #[serde(flatten)]
    pub kind: EventKind,
}

/// Bounded, overwrite-oldest event buffer. See the module docs for the
/// concurrency and clamping contract.
#[derive(Debug, Clone)]
pub struct EventSink {
    buf: Vec<Event>,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    capacity: usize,
    next_seq: u64,
    /// Lifetime tally of every recorded event, including overwritten
    /// ones; `counters.dropped` is the overwrite count.
    counters: EventCounters,
    /// Per-PU monotonicity clamp; index = pu, last slot unused for
    /// global events (those clamp against `last_global`).
    last_t: Vec<f64>,
    last_global: f64,
    /// Records whose stamp the per-unit clamp raised.
    raised: u64,
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink::new(DEFAULT_SINK_CAPACITY)
    }
}

impl EventSink {
    /// Create a sink holding at most `capacity` events, with the ring
    /// allocated at that size.
    pub fn new(capacity: usize) -> EventSink {
        let capacity = capacity.max(1);
        EventSink {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            next_seq: 0,
            counters: EventCounters::default(),
            last_t: Vec::new(),
            last_global: 0.0,
            raised: 0,
        }
    }

    /// Record one event at time `t` (clamped non-decreasing per unit).
    pub fn record(&mut self, t: f64, pu: Option<usize>, kind: EventKind) {
        let t = if t.is_finite() { t } else { self.last_global };
        // A unit index at `usize::MAX` has no clamp slot; it clamps
        // against the global time, as an event without a unit does.
        let slot = pu.and_then(|p| {
            let len = p.checked_add(1)?;
            if self.last_t.len() < len {
                self.last_t.resize(len, 0.0);
            }
            self.last_t.get_mut(p)
        });
        let t = match slot {
            Some(last) => {
                self.raised += u64::from(t < *last);
                *last = t.max(*last);
                *last
            }
            None => t.max(self.last_global),
        };
        self.last_global = self.last_global.max(t);
        self.counters.tally(&kind);
        let ev = Event {
            seq: self.next_seq,
            t,
            pu,
            kind,
        };
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.counters.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Iterate the held events oldest first without copying the buffer.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Events overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped
    }

    /// How many records the per-unit clamp raised: 0 when every unit's
    /// events were recorded in the order of their stamps.
    pub(crate) fn raised(&self) -> u64 {
        self.raised
    }

    /// Total events ever recorded (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Aggregate counters over every event ever recorded — exact even
    /// after the ring wrapped, and O(1): the tally is kept by
    /// [`record`](EventSink::record).
    pub fn counters(&self) -> EventCounters {
        self.counters.clone()
    }
}

/// Aggregate event counts of one run — carried on
/// [`RunReport`](crate::metrics::RunReport) so every figure harness sees
/// the decision-level totals without touching the event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounters {
    /// Task submissions accepted by the engine.
    pub tasks_submitted: u64,
    /// Task completions.
    pub tasks_finished: u64,
    /// Modeling-phase probe blocks issued.
    pub probes: u64,
    /// Curve-fit attempts (modeling gate + rebalancing refits).
    pub curve_fits: u64,
    /// Fit attempts that were rejected (previous model kept).
    pub fit_rejections: u64,
    /// Block-size selections (`block_solve`).
    pub solves: u64,
    /// Rebalance triggers (divergence threshold or device loss).
    pub rebalances: u64,
    /// Perturbations applied (slowdowns, failures, restorations).
    pub perturbations: u64,
    /// Device failures among the perturbations.
    pub device_failures: u64,
    /// Failed task attempts (kernel panics, blown deadlines, worker
    /// infrastructure loss).
    pub task_failures: u64,
    /// In-place retries of failed blocks.
    pub task_retries: u64,
    /// Units quarantined after hitting the consecutive-failure
    /// threshold.
    pub quarantines: u64,
    /// Durability snapshots written (`checkpoint_written`).
    pub checkpoints: u64,
    /// Resumes from a checkpoint (`run_resumed`; 0 or 1 per process).
    pub resumes: u64,
    /// Units admitted mid-run (`pu_joined`).
    pub joins: u64,
    /// Drift-factor changes applied at dispatch (`drift_applied`).
    pub drift_changes: u64,
    /// Joined units absorbed back into a stable split (`restabilized`).
    pub restabilizations: u64,
    /// Restore/join notifications a policy left unhandled
    /// (`device_restored_ignored`).
    pub restores_ignored: u64,
    /// Cluster nodes admitted or re-admitted (`node_joined`).
    pub node_joins: u64,
    /// Cluster nodes quarantined (`node_quarantined`).
    pub node_quarantines: u64,
    /// Cross-node work migrations dispatched (`migration_sent`).
    pub migrations_sent: u64,
    /// Migration delivery retries (`migration_retried`).
    pub migration_retries: u64,
    /// Cross-node re-credits of unfinished ranges (`cover_recredited`).
    pub cover_recredits: u64,
    /// Stall errors.
    pub stalls: u64,
    /// Events lost to ring-buffer overwrite (the other counts still
    /// include them).
    pub dropped: u64,
}

impl EventCounters {
    /// Tally counters from an event stream.
    pub fn from_events<'a>(events: impl Iterator<Item = &'a Event>) -> EventCounters {
        let mut c = EventCounters::default();
        for e in events {
            c.tally(&e.kind);
        }
        c
    }

    /// Count one event.
    pub(crate) fn tally(&mut self, kind: &EventKind) {
        match kind {
            EventKind::TaskSubmit { .. } => self.tasks_submitted += 1,
            EventKind::TaskFinish { .. } => self.tasks_finished += 1,
            EventKind::ProbeIssued { .. } => self.probes += 1,
            EventKind::CurveFit { accepted, .. } => {
                self.curve_fits += 1;
                if !accepted {
                    self.fit_rejections += 1;
                }
            }
            EventKind::BlockSolve { .. } => self.solves += 1,
            EventKind::RebalanceTriggered { .. } => self.rebalances += 1,
            EventKind::SlowdownSet { .. } | EventKind::DeviceRestored => {
                self.perturbations += 1;
            }
            EventKind::DeviceFailed => {
                self.perturbations += 1;
                self.device_failures += 1;
            }
            EventKind::TaskFailed { .. } => self.task_failures += 1,
            EventKind::TaskRetry { .. } => self.task_retries += 1,
            EventKind::PuQuarantined { .. } => self.quarantines += 1,
            EventKind::CheckpointWritten { .. } => self.checkpoints += 1,
            EventKind::RunResumed { .. } => self.resumes += 1,
            EventKind::PuJoined { .. } => self.joins += 1,
            EventKind::DriftApplied { .. } => self.drift_changes += 1,
            EventKind::Restabilized { .. } => self.restabilizations += 1,
            EventKind::DeviceRestoredIgnored => self.restores_ignored += 1,
            EventKind::NodeJoined { .. } => self.node_joins += 1,
            EventKind::NodeQuarantined { .. } => self.node_quarantines += 1,
            EventKind::MigrationSent { .. } => self.migrations_sent += 1,
            EventKind::MigrationRetried { .. } => self.migration_retries += 1,
            EventKind::CoverRecredited { .. } => self.cover_recredits += 1,
            EventKind::Stalled { .. } => self.stalls += 1,
            EventKind::RunStart { .. }
            | EventKind::TaskStart { .. }
            | EventKind::RunEnd { .. }
            | EventKind::ModelingDone { .. } => {}
        }
    }

    /// Accumulate another set of counters into this one, field by field.
    /// A resumed run carries the pre-crash totals from its checkpoint
    /// and merges them into the final report, so lifetime counts survive
    /// the process boundary.
    pub(crate) fn merge(&mut self, other: &EventCounters) {
        self.tasks_submitted += other.tasks_submitted;
        self.tasks_finished += other.tasks_finished;
        self.probes += other.probes;
        self.curve_fits += other.curve_fits;
        self.fit_rejections += other.fit_rejections;
        self.solves += other.solves;
        self.rebalances += other.rebalances;
        self.perturbations += other.perturbations;
        self.device_failures += other.device_failures;
        self.task_failures += other.task_failures;
        self.task_retries += other.task_retries;
        self.quarantines += other.quarantines;
        self.checkpoints += other.checkpoints;
        self.resumes += other.resumes;
        self.joins += other.joins;
        self.drift_changes += other.drift_changes;
        self.restabilizations += other.restabilizations;
        self.restores_ignored += other.restores_ignored;
        self.node_joins += other.node_joins;
        self.node_quarantines += other.node_quarantines;
        self.migrations_sent += other.migrations_sent;
        self.migration_retries += other.migration_retries;
        self.cover_recredits += other.cover_recredits;
        self.stalls += other.stalls;
        self.dropped += other.dropped;
    }
}

/// First line of an exported trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Trace format version ([`TRACE_FORMAT_VERSION`]).
    pub version: u32,
    /// Policy that produced the run.
    pub policy: String,
    /// Unit display names, indexed by unit id.
    pub pu_names: Vec<String>,
}

/// Serialize a run (header, per-unit ledger, events) to JSONL: one JSON
/// object per line, each tagged with a `"rec"` field of `"header"`,
/// `"unit"` (one per unit, in unit-id order) or `"event"`. The format is
/// documented in `docs/OBSERVABILITY.md`.
// Serializing plain data structs (no maps with non-string keys, no
// custom Serialize impls) cannot fail; the expects below are
// unreachable rather than error paths (audited in
// crates/xtask/allowlists/panic-freedom.txt).
pub fn write_jsonl(header: &TraceHeader, units: &[UnitLedger], events: &[Event]) -> String {
    fn tagged(rec: &str, value: serde_json::Value) -> String {
        let mut obj = value;
        if let Some(map) = obj.as_object_mut() {
            map.insert("rec".into(), serde_json::Value::String(rec.into()));
        }
        serde_json::to_string(&obj).expect("trace records serialize")
    }
    let mut out = String::new();
    out.push_str(&tagged(
        "header",
        serde_json::to_value(header).expect("header serializes"),
    ));
    out.push('\n');
    for u in units {
        out.push_str(&tagged(
            "unit",
            serde_json::to_value(u).expect("unit ledger serializes"),
        ));
        out.push('\n');
    }
    for e in events {
        out.push_str(&tagged(
            "event",
            serde_json::to_value(e).expect("event serializes"),
        ));
        out.push('\n');
    }
    out
}

/// A parsed trace file: everything needed to re-derive Gantt charts,
/// idle accounting, fit timelines and rebalance history offline.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// The file header.
    pub header: TraceHeader,
    /// The per-unit ledger, indexed by unit id.
    pub units: Vec<UnitLedger>,
    /// Decision events, oldest first.
    pub events: Vec<Event>,
}

impl TraceData {
    /// Parse a JSONL trace produced by [`write_jsonl`].
    pub fn parse_jsonl(text: &str) -> Result<TraceData, String> {
        let mut header: Option<TraceHeader> = None;
        let mut units = Vec::new();
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut v: serde_json::Value = serde_json::from_str(line)
                .map_err(|e| format!("line {}: invalid JSON: {e}", lineno + 1))?;
            let rec = v
                .get("rec")
                .and_then(|r| r.as_str())
                .ok_or_else(|| format!("line {}: missing \"rec\" tag", lineno + 1))?
                .to_string();
            if let Some(map) = v.as_object_mut() {
                map.remove("rec");
            }
            match rec.as_str() {
                "header" => {
                    let h: TraceHeader = serde_json::from_value(v)
                        .map_err(|e| format!("line {}: bad header: {e}", lineno + 1))?;
                    if h.version != TRACE_FORMAT_VERSION {
                        return Err(format!(
                            "trace format version {}; this build reads only {}",
                            h.version, TRACE_FORMAT_VERSION
                        ));
                    }
                    header = Some(h);
                }
                "unit" => {
                    let u: UnitLedger = serde_json::from_value(v)
                        .map_err(|e| format!("line {}: bad unit: {e}", lineno + 1))?;
                    check_unit(header.as_ref(), Some(units.len()), lineno + 1)?;
                    units.push(u);
                }
                "event" => {
                    let e: Event = serde_json::from_value(v)
                        .map_err(|e| format!("line {}: bad event: {e}", lineno + 1))?;
                    check_unit(header.as_ref(), e.pu, lineno + 1)?;
                    events.push(e);
                }
                other => return Err(format!("line {}: unknown record \"{other}\"", lineno + 1)),
            }
        }
        let header = header.ok_or("trace file has no header line")?;
        Ok(TraceData {
            header,
            units,
            events,
        })
    }

    /// Number of processing units the trace covers: those its header
    /// names, which a parsed trace's records never exceed.
    pub fn n_pus(&self) -> usize {
        self.header.pu_names.len()
    }

    /// Aggregate event counters of the stored stream. `dropped` is the
    /// first kept event's `seq`: the sink numbers events from 0 and
    /// overwrites the oldest first, so that is how many a truncated
    /// stream lost.
    pub fn counters(&self) -> EventCounters {
        let mut counters = EventCounters::from_events(self.events.iter());
        counters.dropped = self.events.first().map_or(0, |e| e.seq);
        counters
    }
}

/// `Err` unless the header has been read and names `pu`, the unit of
/// the record on line `line`: a record must come after the header, and
/// a unit the header does not name has no accounting.
fn check_unit(header: Option<&TraceHeader>, pu: Option<usize>, line: usize) -> Result<(), String> {
    let header = header.ok_or_else(|| format!("line {line}: record before the header"))?;
    let units = header.pu_names.len();
    match pu {
        Some(p) if p >= units => Err(format!(
            "line {line}: unit {p} is not one of the header's {units} units"
        )),
        _ => Ok(()),
    }
}

/// What a unit was doing during a [`Segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Moving input/result data.
    Transfer,
    /// Executing the kernel.
    Compute,
}

/// One busy interval of one unit: a bar of the Gantt chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The unit.
    pub pu: usize,
    /// The task occupying it.
    pub task: u64,
    /// Transfer or compute.
    pub kind: SegmentKind,
    /// Interval start, seconds.
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// Items in the task's block.
    pub items: u64,
}

/// The Gantt segments of an event stream, in finish order. Each
/// `task_finish` at `t` draws a transfer `[start, start + xfer_s]` when
/// the task moved data, then a compute `[start + xfer_s, t]`.
///
/// A task's `start` is its latest `task_start` on the unit, or, when a
/// `task_retry` came after that, the retry's stamp plus its backoff: a
/// virtual clock stamps the start of a first attempt only, and a retry
/// begins when its backoff runs out. A finish whose start the ring
/// dropped is not drawn. On a virtual clock the segments are exact; on
/// a wall clock a start is the stamp the sink kept, which its per-unit
/// clamp may have raised (`docs/OBSERVABILITY.md`).
pub fn gantt_segments<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<Segment> {
    let mut started: BTreeMap<(usize, u64), f64> = BTreeMap::new();
    let mut segments = Vec::new();
    for e in events {
        let Some(pu) = e.pu else {
            continue;
        };
        match e.kind {
            EventKind::TaskStart { task, .. } => {
                started.insert((pu, task), e.t);
            }
            EventKind::TaskRetry {
                task, backoff_s, ..
            } => {
                started.insert((pu, task), e.t + backoff_s);
            }
            EventKind::TaskFinish {
                task,
                items,
                xfer_s,
                ..
            } => {
                let Some(start) = started.remove(&(pu, task)) else {
                    continue;
                };
                let mid = start + xfer_s;
                let mut push = |kind, start, end| {
                    segments.push(Segment {
                        pu,
                        task,
                        kind,
                        start,
                        end,
                        items,
                    });
                };
                if xfer_s > 0.0 {
                    push(SegmentKind::Transfer, start, mid);
                }
                push(SegmentKind::Compute, mid, e.t);
            }
            _ => {}
        }
    }
    segments
}

/// The latest end of `segments` (0 when there are none): the span a
/// Gantt chart of them covers.
pub fn gantt_span(segments: &[Segment]) -> f64 {
    segments.iter().fold(0.0, |m, s| m.max(s.end))
}

/// Render `segments` in Chrome trace-event format (the JSON array
/// flavour): open in `chrome://tracing` or [Perfetto] for an
/// interactive timeline. Each unit of `names` is a "thread"; transfer
/// and compute segments become complete ("X") events with microsecond
/// timestamps.
///
/// [Perfetto]: https://ui.perfetto.dev
// Serializing a Vec of serde_json::Value cannot fail; the expect is
// unreachable rather than an error path (audited in
// crates/xtask/allowlists/panic-freedom.txt).
pub fn chrome_trace(segments: &[Segment], names: &[String]) -> String {
    let mut events = Vec::with_capacity(segments.len() + names.len());
    for (i, name) in names.iter().enumerate() {
        events.push(serde_json::json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": i,
            "args": {"name": name},
        }));
    }
    for s in segments {
        let kind = match s.kind {
            SegmentKind::Compute => "compute",
            SegmentKind::Transfer => "transfer",
        };
        events.push(serde_json::json!({
            "name": format!("{kind} T{} ({} items)", s.task, s.items),
            "cat": kind,
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": 1,
            "tid": s.pu,
        }));
    }
    serde_json::to_string_pretty(&events).expect("trace events serialize")
}

/// Render a coarse ASCII Gantt chart of `segments` (for examples and the
/// Fig. 3 reproduction): one row per unit of `names`, `width` columns
/// spanning [`gantt_span`], `#` = compute, `-` = transfer, `.` = idle.
pub fn ascii_gantt(segments: &[Segment], names: &[String], width: usize) -> String {
    let ms = gantt_span(segments);
    if ms <= 0.0 || width == 0 {
        return String::new();
    }
    let name_w = names.iter().map(|n| n.len()).max().unwrap_or(4).max(4);
    // One pass over the segments paints every row; a unit's cells are
    // still painted in its own finish order.
    let mut rows = vec![vec!['.'; width]; names.len()];
    for s in segments {
        let Some(row) = rows.get_mut(s.pu) else {
            continue;
        };
        let a = ((s.start / ms) * width as f64).floor() as usize;
        let b = (((s.end / ms) * width as f64).ceil() as usize).min(width);
        let ch = match s.kind {
            SegmentKind::Compute => '#',
            SegmentKind::Transfer => '-',
        };
        for c in row.iter_mut().take(b).skip(a.min(width)) {
            // Compute overwrites transfer if they round onto the same
            // cell; never overwrite compute with transfer.
            if *c != '#' {
                *c = ch;
            }
        }
    }
    let mut out = String::new();
    for (name, row) in names.iter().zip(rows) {
        out.push_str(&format!("{name:<name_w$} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Ledger;

    fn fill(sink: &mut EventSink, n: usize) {
        for i in 0..n {
            sink.record(
                i as f64,
                Some(0),
                EventKind::TaskSubmit {
                    task: i as u64,
                    items: 1,
                    cost: 1,
                },
            );
        }
    }

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let mut sink = EventSink::new(4);
        fill(&mut sink, 6);
        assert_eq!(sink.buf.len(), 4);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.recorded(), 6);
        let evs = sink.events();
        // Oldest two (seq 0, 1) were overwritten.
        assert_eq!(evs.first().unwrap().seq, 2);
        assert_eq!(evs.last().unwrap().seq, 5);
        // Still chronological.
        for w in evs.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn the_ring_is_allocated_once_at_its_capacity() {
        let mut sink = EventSink::new(64);
        assert_eq!(sink.buf.capacity(), 64);
        fill(&mut sink, 3 * 64);
        assert_eq!(sink.buf.capacity(), 64);
        assert_eq!(sink.dropped(), 128);
        let seqs: Vec<u64> = sink.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (128..192).collect::<Vec<u64>>());
    }

    #[test]
    fn a_unit_index_at_the_top_of_usize_is_recorded_without_overflow() {
        let mut sink = EventSink::new(4);
        sink.record(2.0, None, EventKind::DeviceFailed);
        sink.record(1.0, Some(usize::MAX), EventKind::DeviceFailed);
        let evs = sink.events();
        assert_eq!(evs[1].pu, Some(usize::MAX));
        // No clamp slot of its own: it clamps against the global time.
        assert_eq!(evs[1].t, 2.0);
        assert!(sink.last_t.is_empty());
    }

    #[test]
    fn iter_matches_events_after_wrap() {
        let mut sink = EventSink::new(4);
        fill(&mut sink, 7);
        let copied = sink.events();
        let viewed: Vec<Event> = sink.iter().cloned().collect();
        assert_eq!(copied, viewed);
    }

    #[test]
    fn counters_stay_exact_after_the_ring_wraps() {
        let mut sink = EventSink::new(8);
        let mut all = Vec::new();
        for seq in 0..100u64 {
            let kind = match seq % 5 {
                0 => EventKind::Stalled { remaining: seq },
                1 => EventKind::PuQuarantined { failures: 3 },
                2 => EventKind::DeviceFailed,
                3 => EventKind::CoverRecredited { items: 4, cost: 4 },
                _ => EventKind::PuJoined { after_tasks: seq },
            };
            let (t, pu) = (seq as f64, Some(0));
            sink.record(t, pu, kind.clone());
            all.push(Event { seq, t, pu, kind });
        }
        let mut expected = EventCounters::from_events(all.iter());
        expected.dropped = 92;
        assert_eq!(sink.counters(), expected);
        assert_eq!(expected.device_failures, 20);
    }

    #[test]
    fn timestamps_clamped_monotone_per_pu() {
        let mut sink = EventSink::new(16);
        sink.record(5.0, Some(1), EventKind::TaskStart { task: 0, items: 1 });
        // An earlier-stamped event on the same unit is clamped forward.
        sink.record(3.0, Some(1), EventKind::DeviceFailed);
        // Other units are unaffected.
        sink.record(3.0, Some(0), EventKind::DeviceFailed);
        let evs = sink.events();
        assert_eq!(evs[1].t, 5.0);
        assert_eq!(evs[2].t, 3.0);
    }

    #[test]
    fn counters_tally_kinds() {
        let mut sink = EventSink::new(64);
        sink.record(
            0.0,
            Some(0),
            EventKind::ProbeIssued {
                items: 10,
                round: 1,
            },
        );
        sink.record(
            0.1,
            Some(0),
            EventKind::CurveFit {
                r2_f: 0.99,
                r2_g: 1.0,
                basis_f: "a + b·x".into(),
                samples: 4,
                accepted: true,
            },
        );
        sink.record(
            0.2,
            Some(1),
            EventKind::CurveFit {
                r2_f: 0.1,
                r2_g: 0.0,
                basis_f: "?".into(),
                samples: 2,
                accepted: false,
            },
        );
        sink.record(
            0.4,
            None,
            EventKind::BlockSolve {
                window: 100,
                method: "water-fill".into(),
                iterations: 9,
                solve_s: 1e-4,
                predicted_s: 0.5,
            },
        );
        sink.record(
            0.5,
            Some(0),
            EventKind::RebalanceTriggered {
                trigger: "divergence".into(),
                expected_s: 1.0,
                observed_s: 2.0,
                divergence: 1.0,
            },
        );
        sink.record(0.6, Some(1), EventKind::DeviceFailed);
        let c = sink.counters();
        assert_eq!(c.probes, 1);
        assert_eq!(c.curve_fits, 2);
        assert_eq!(c.fit_rejections, 1);
        assert_eq!(c.solves, 1);
        assert_eq!(c.rebalances, 1);
        assert_eq!(c.perturbations, 1);
        assert_eq!(c.device_failures, 1);
        assert_eq!(c.dropped, 0);
    }

    /// Record one completed task of `pu`: its start, then its finish.
    fn task(
        sink: &mut EventSink,
        pu: usize,
        task: u64,
        items: u64,
        start: f64,
        xfer: f64,
        proc: f64,
    ) {
        sink.record(start, Some(pu), EventKind::TaskStart { task, items });
        let kind = EventKind::TaskFinish {
            task,
            items,
            cost: items,
            xfer_s: xfer,
            proc_s: proc,
        };
        sink.record(start + xfer + proc, Some(pu), kind);
    }

    fn sample_trace_data() -> TraceData {
        let mut ledger = Ledger::new(2);
        ledger.record_task(0, 100, 0.0, 0.5, 1.5);
        ledger.record_task(1, 50, 0.0, 0.0, 1.0);
        let mut sink = EventSink::new(64);
        sink.record(
            0.0,
            None,
            EventKind::RunStart {
                policy: "test".into(),
                total_items: 150,
                n_pus: 2,
            },
        );
        sink.record(
            0.0,
            Some(0),
            EventKind::TaskSubmit {
                task: 0,
                items: 100,
                cost: 100,
            },
        );
        task(&mut sink, 0, 0, 100, 0.0, 0.5, 1.5);
        sink.record(
            2.0,
            None,
            EventKind::RunEnd {
                makespan_s: 2.0,
                total_items: 150,
            },
        );
        TraceData {
            header: TraceHeader {
                version: TRACE_FORMAT_VERSION,
                policy: "test".into(),
                pu_names: vec!["cpu".into(), "gpu".into()],
            },
            units: ledger.units,
            events: sink.events(),
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let data = sample_trace_data();
        let text = write_jsonl(&data.header, &data.units, &data.events);
        let parsed = TraceData::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.header, data.header);
        assert_eq!(parsed.units, data.units);
        assert_eq!(parsed.events, data.events);
        let items: Vec<u64> = parsed.units.iter().map(|u| u.items).collect();
        assert_eq!(items, [100, 50]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceData::parse_jsonl("not json\n").is_err());
        assert!(TraceData::parse_jsonl("{\"rec\":\"mystery\"}\n").is_err());
        // No header at all.
        assert!(TraceData::parse_jsonl("").is_err());
        // Any version but the current one is refused rather than
        // misread, a newer one and an older one alike.
        for version in [TRACE_FORMAT_VERSION + 1, TRACE_FORMAT_VERSION - 1] {
            let header = format!(
                "{{\"rec\":\"header\",\"version\":{version},\"policy\":\"x\",\"pu_names\":[]}}"
            );
            let err = TraceData::parse_jsonl(&header).unwrap_err();
            assert!(err.contains("this build reads only"), "{err}");
        }
    }

    /// The sample trace as JSONL, with line `line` (1-based) passed
    /// through `edit`.
    fn edited_jsonl(line: usize, edit: impl Fn(&str) -> String) -> String {
        let data = sample_trace_data();
        let text = write_jsonl(&data.header, &data.units, &data.events);
        text.lines()
            .enumerate()
            .map(|(i, l)| if i + 1 == line { edit(l) } else { l.to_string() } + "\n")
            .collect()
    }

    #[test]
    fn parse_rejects_a_unit_the_header_does_not_name() {
        // Lines 2 and 3 are the two units' records, line 5 the first
        // event that names a unit (`task_submit` on unit 0); the header
        // names 2 units.
        let cases = [
            (5, "\"pu\":0", "\"pu\":1099511627776"),
            (5, "\"pu\":0", "\"pu\":18446744073709551615"),
            (5, "\"pu\":0", "\"pu\":2"),
        ];
        for (line, from, to) in cases {
            let text = edited_jsonl(line, |l| {
                assert!(l.contains(from), "line {line}: {l}");
                l.replacen(from, to, 1)
            });
            let err = TraceData::parse_jsonl(&text).unwrap_err();
            assert!(err.starts_with(&format!("line {line}: unit ")), "{err}");
            assert!(err.contains("header's 2 units"), "{err}");
        }
        // Unedited, every record names one of the two units.
        let text = edited_jsonl(0, str::to_string);
        assert_eq!(TraceData::parse_jsonl(&text).unwrap().n_pus(), 2);
        // A third unit record names a unit the header does not.
        let text = edited_jsonl(3, |l| format!("{l}\n{l}"));
        let err = TraceData::parse_jsonl(&text).unwrap_err();
        assert_eq!(err, "line 4: unit 2 is not one of the header's 2 units");
    }

    #[test]
    fn parse_rejects_a_record_before_the_header() {
        let data = sample_trace_data();
        let text = write_jsonl(&data.header, &data.units, &data.events);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 1);
        let err = TraceData::parse_jsonl(&lines.join("\n")).unwrap_err();
        assert_eq!(err, "line 1: record before the header");
    }

    /// The rows of the summary table titled `title` (none when the
    /// summary leaves that section out).
    fn rows(data: &TraceData, title: &str) -> Vec<Vec<String>> {
        let table = data.summary().into_iter().find(|t| t.title == title);
        table.map_or_else(Vec::new, |t| t.rows)
    }

    fn cells(row: &[&str]) -> Vec<String> {
        row.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn summary_mentions_units_and_counters() {
        let data = sample_trace_data();
        assert_eq!(
            rows(&data, "per-unit time accounting"),
            [
                cells(&["cpu", "1", "1.5000s", "0.5000s", "0.0000s", "0.0%"]),
                cells(&["gpu", "1", "1.0000s", "0.0000s", "1.0000s", "50.0%"]),
            ]
        );
        assert_eq!(
            rows(&data, "run"),
            [cells(&["test", "2.000000s", "2", "5", "0"])]
        );
        // No rebalance fired, so that section is left out.
        assert!(rows(&data, "rebalances").is_empty());
        assert_eq!(
            rows(&data, "event counters"),
            [
                cells(&["tasks_finished", "1"]),
                cells(&["tasks_submitted", "1"])
            ]
        );
    }

    #[test]
    fn truncated_trace_reports_what_the_ring_dropped() {
        let mut sink = EventSink::new(4);
        fill(&mut sink, 10);
        let data = sample_trace_data();
        let text = write_jsonl(&data.header, &data.units, &sink.events());
        let parsed = TraceData::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.events[0].seq, 6);
        assert_eq!(parsed.counters().dropped, 6);
        assert_eq!(parsed.counters().dropped, sink.dropped());
        assert_eq!(rows(&parsed, "run")[0][4], "6");
    }

    #[test]
    fn durability_events_counted_and_merged() {
        let mut sink = EventSink::new(16);
        sink.record(
            0.5,
            None,
            EventKind::CheckpointWritten {
                seq: 0,
                tasks_done: 3,
                completed_items: 300,
            },
        );
        sink.record(
            0.0,
            None,
            EventKind::RunResumed {
                seq: 0,
                completed_items: 300,
            },
        );
        let mut c = sink.counters();
        assert_eq!(c.checkpoints, 1);
        assert_eq!(c.resumes, 1);
        let carried = EventCounters {
            checkpoints: 4,
            tasks_finished: 10,
            probes: 8,
            ..EventCounters::default()
        };
        c.merge(&carried);
        assert_eq!(c.checkpoints, 5);
        assert_eq!(c.tasks_finished, 10);
        assert_eq!(c.probes, 8);
        assert_eq!(c.resumes, 1);
        // The summary's counters carry the durability events.
        let mut data = sample_trace_data();
        data.events.extend(sink.events());
        let counters = rows(&data, "event counters");
        assert!(counters.contains(&cells(&["checkpoints", "1"])));
        assert!(counters.contains(&cells(&["resumes", "1"])));
    }

    #[test]
    fn elastic_events_counted_merged_and_summarized() {
        let mut sink = EventSink::new(16);
        sink.record(1.0, Some(1), EventKind::PuJoined { after_tasks: 40 });
        sink.record(1.1, Some(1), EventKind::DriftApplied { factor: 1.5 });
        sink.record(1.2, Some(1), EventKind::DriftApplied { factor: 2.0 });
        sink.record(1.5, Some(1), EventKind::Restabilized { rebalances: 2 });
        sink.record(1.6, Some(0), EventKind::DeviceRestoredIgnored);
        let mut c = sink.counters();
        assert_eq!(c.joins, 1);
        assert_eq!(c.drift_changes, 2);
        assert_eq!(c.restabilizations, 1);
        assert_eq!(c.restores_ignored, 1);
        let carried = EventCounters {
            joins: 2,
            drift_changes: 5,
            ..EventCounters::default()
        };
        c.merge(&carried);
        assert_eq!(c.joins, 3);
        assert_eq!(c.drift_changes, 7);
        // The summary shows the join with its time to restabilize and
        // the rebalances that cost, and counts the elastic events.
        let mut data = sample_trace_data();
        data.events.extend(sink.events());
        assert_eq!(
            rows(&data, "elastic capacity"),
            [cells(&["1.000000s", "gpu", "40", "0.500000s", "2"])]
        );
        let counters = rows(&data, "event counters");
        assert!(counters.contains(&cells(&["joins", "1"])));
        assert!(counters.contains(&cells(&["drift_changes", "2"])));
    }

    #[test]
    fn join_without_restabilization_is_reported() {
        let mut data = sample_trace_data();
        let mut sink = EventSink::new(4);
        sink.record(1.0, Some(1), EventKind::PuJoined { after_tasks: 3 });
        data.events.extend(sink.events());
        assert_eq!(
            rows(&data, "elastic capacity"),
            [cells(&["1.000000s", "gpu", "3", "never", "-"])]
        );
    }

    #[test]
    fn event_kind_names_are_stable() {
        assert_eq!(EventKind::DeviceFailed.name(), "device_failed");
        assert_eq!(EventKind::Stalled { remaining: 1 }.name(), "stalled");
        assert_eq!(EventKind::PuJoined { after_tasks: 1 }.name(), "pu_joined");
        assert_eq!(
            EventKind::DriftApplied { factor: 1.5 }.name(),
            "drift_applied"
        );
        assert_eq!(
            EventKind::Restabilized { rebalances: 0 }.name(),
            "restabilized"
        );
        assert_eq!(
            EventKind::DeviceRestoredIgnored.name(),
            "device_restored_ignored"
        );
        // The serde tag matches `name()` (the schema contract the docs
        // rely on).
        let e = Event {
            seq: 0,
            t: 0.0,
            pu: None,
            kind: EventKind::ModelingDone { items_used: 7 },
        };
        let v = serde_json::to_value(&e).unwrap();
        assert_eq!(v["kind"], "modeling_done");
        assert_eq!(v["items_used"].as_u64(), Some(7));
    }

    /// Three tasks: one with a transfer prefix on unit 0 (busy 0..2),
    /// two back to back on unit 1 (busy 0..3).
    fn sample_stream() -> EventSink {
        let mut sink = EventSink::new(64);
        task(&mut sink, 0, 0, 100, 0.0, 0.5, 1.5);
        task(&mut sink, 1, 1, 50, 0.0, 0.0, 1.0);
        task(&mut sink, 1, 2, 50, 1.0, 0.0, 2.0);
        sink
    }

    #[test]
    fn segments_are_drawn_from_starts_and_finishes() {
        let segs = gantt_segments(sample_stream().iter());
        let spans: Vec<_> = segs
            .iter()
            .map(|s| (s.pu, s.kind, s.start, s.end))
            .collect();
        use SegmentKind::*;
        assert_eq!(
            spans,
            [
                (0, Transfer, 0.0, 0.5),
                (0, Compute, 0.5, 2.0),
                (1, Compute, 0.0, 1.0),
                (1, Compute, 1.0, 3.0)
            ]
        );
        assert_eq!(gantt_span(&segs), 3.0);
        assert_eq!(gantt_span(&[]), 0.0);
    }

    #[test]
    fn a_retry_starts_after_its_backoff_and_a_dropped_start_is_not_drawn() {
        let mut sink = EventSink::new(64);
        sink.record(0.0, Some(0), EventKind::TaskStart { task: 7, items: 4 });
        let retry = EventKind::TaskRetry {
            task: 7,
            items: 4,
            attempt: 1,
            backoff_s: 0.25,
        };
        sink.record(1.0, Some(0), retry);
        let finish = |task| EventKind::TaskFinish {
            task,
            items: 4,
            cost: 4,
            xfer_s: 0.0,
            proc_s: 0.5,
        };
        sink.record(1.75, Some(0), finish(7));
        // Task 8's start is not in the stream.
        sink.record(2.0, Some(1), finish(8));
        let segs = gantt_segments(sink.iter());
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].task, segs[0].start, segs[0].end), (7, 1.25, 1.75));
    }

    #[test]
    fn ascii_gantt_shape() {
        let segs = gantt_segments(sample_stream().iter());
        let names = vec!["cpu".to_string(), "gpu".to_string()];
        // A transfer prefix, then compute, then idle in the last third.
        assert_eq!(
            ascii_gantt(&segs, &names, 30),
            "cpu  |-----###############..........|\n\
             gpu  |##############################|\n"
        );
        assert_eq!(ascii_gantt(&[], &names, 10), "");
    }

    #[test]
    fn chrome_trace_roundtrips_as_json() {
        let segs = gantt_segments(sample_stream().iter());
        let names = vec!["cpu".to_string(), "gpu".to_string()];
        let parsed: serde_json::Value = serde_json::from_str(&chrome_trace(&segs, &names)).unwrap();
        let events = parsed.as_array().unwrap();
        // 2 thread-name metadata events + 4 segments (one task has a
        // transfer prefix).
        assert_eq!(events.len(), 2 + segs.len());
        let xs: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(xs.len(), segs.len());
        for e in xs {
            assert!(e["ts"].as_f64().unwrap() >= 0.0);
            assert!(e["dur"].as_f64().unwrap() > 0.0);
        }
    }
}
