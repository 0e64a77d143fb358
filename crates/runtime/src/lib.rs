#![warn(missing_docs)]
// Panic policy (the run path must degrade into typed errors, not
// panics; see docs/FAULT_TOLERANCE.md) is enforced workspace-wide by
// `cargo xtask lint` pass 10 (`panic-freedom`, docs/SOUNDNESS.md).
// Audited exceptions live in crates/xtask/allowlists/panic-freedom.txt
// and carry a local proof of unreachability.

//! A StarPU-like task runtime for heterogeneous processing units.
//!
//! The paper implements PLB-HeC "inside the StarPU framework", which
//! exposes codelets (tasks with one implementation per architecture),
//! data handles managed across memory nodes, and pluggable scheduling
//! policies. This crate reproduces that runtime surface:
//!
//! * [`Policy`] — the scheduling-policy plug-in point. A policy receives
//!   `on_start` / `on_task_finished` callbacks and assigns blocks of a
//!   data-parallel workload to processing units, exactly the level at
//!   which StarPU schedulers (and the paper's four algorithms) operate.
//! * [`Engine`] — the one public way to run: a machine plus the run
//!   configuration every machine shares (fault plan and response,
//!   checkpointing, resume, weights) and the per-unit ledger and events
//!   of its last run. Three machines plug in:
//!   * [`SimEngine`] — a discrete-event executor over a
//!     [`plb_hetsim::ClusterSim`]: virtual time, deterministic, fast
//!     enough to run 65536×65536-element experiments in milliseconds.
//!     It supports scheduled perturbations (slowdowns, device failures)
//!     for the paper's future-work scenarios.
//!   * [`HostEngine`] — a real-thread executor that runs actual
//!     [`Codelet`] kernels on pools of host cores, so the same policies
//!     drive genuinely measured wall-clock times in the examples.
//!   * [`ClusterEngine`] — the cluster tier: whole nodes as units, each
//!     chunk run by a [`NodeRunner`], with node fault domains and
//!     inter-node migration.
//! * [`DisjointOutput`] — the audited concurrent-output buffer host
//!   kernels assemble partial results into; per-unit transfer-byte
//!   accounting lives in the backends ([`PuReport::bytes_in`]).
//! * [`metrics`] — per-unit busy/idle accounting ([`UnitLedger`]) and
//!   the run reports from which every figure of the paper is
//!   regenerated.
//! * [`events`] — the structured event stream, the one record of a run
//!   (task starts and finishes, probes, curve fits, solves, rebalances,
//!   perturbations), with JSONL export and the Gantt segments drawn from
//!   it ([`gantt_segments`]); see `docs/OBSERVABILITY.md` for the schema.
//! * [`table`] — the one [`Table`] type every human-readable report is
//!   made of (run reports, trace summaries, the `repro` figures), with
//!   its text, markdown and CSV renderers.
//! * [`fault`] — fault injection ([`FaultPlan`], shared with the
//!   simulator crate) and the fault-tolerance response knobs
//!   ([`FaultToleranceConfig`]: retries, backoff, quarantine, host
//!   watchdog deadlines); see `docs/FAULT_TOLERANCE.md`.
//! * [`checkpoint`] — run-level durability: periodic, atomically
//!   written (tmp + rename + checksum) snapshots of the driver state
//!   ([`Checkpoint`]) and the resume path that restores them, so a
//!   crashed run continues on the uncovered items with its profiles
//!   and fitted models intact; see `docs/FAULT_TOLERANCE.md`.
//! * `core` (crate-private) — the backend-agnostic scheduling core: one
//!   driver loop (assignment bookkeeping, disjoint-range cover,
//!   retry/backoff, quarantine/probation, re-credit, deadlines, stall
//!   detection, event emission, report accounting) over a backend that
//!   supplies execution mechanics. Every machine above is a thin backend
//!   of this core, and nothing outside the crate names the seam; see
//!   `docs/ARCHITECTURE.md`.
//! * [`protocol`] — the one decision a worker thread races the driver
//!   for (a result vs. the watchdog's deadline, a queued block's start
//!   vs. its revoke) as an explicit state machine, model-checked under
//!   loom; [`sync`] is the primitive shim that swaps in loom's twins
//!   under `--cfg loom`. What only the driver touches — a unit's
//!   availability, the work pool — is plain data. See
//!   `docs/SOUNDNESS.md`.

pub mod checkpoint;
pub mod codelet;
mod core;
pub mod data;
pub mod engine;
pub mod events;
pub mod fault;
pub mod host;
pub mod metrics;
pub mod policy;
pub mod protocol;
pub mod sync;
pub mod table;
pub mod task;
pub mod weights;

pub use crate::core::cluster::{
    equal_cost_shards, ChunkOutcome, ClusterEngine, MigrationConfig, NodeRunner, SimNodeRunner,
};
pub use crate::core::WorkPool;
pub use checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointError, PuState, WorkloadId, CHECKPOINT_FORMAT_VERSION,
};
pub use codelet::{Codelet, FnCodelet, PuResources};
pub use data::{DisjointError, DisjointOutput, DisjointWriter};
pub use engine::{Engine, Perturbation, PerturbationKind, RunError, SimEngine};
pub use events::{
    ascii_gantt, chrome_trace, gantt_segments, gantt_span, write_jsonl, Event, EventCounters,
    EventKind, EventSink, Segment, SegmentKind, TraceData, TraceHeader, TRACE_FORMAT_VERSION,
};
pub use fault::{
    Fault, FaultAction, FaultKind, FaultPlan, FaultSpecError, FaultToleranceConfig, NodeFault,
    NodeFaultKind, NodeFaultPlan,
};
pub use host::{HostEngine, HostNodeRunner, HostPerturbation, HostPu};
pub use metrics::{PuReport, RunReport, UnitLedger};
pub use policy::{FixedBlockPolicy, Policy, PuHandle, SchedulerCtx};
pub use protocol::{AttemptOutcome, AttemptSlot};
pub use table::Table;
pub use task::{FailureReason, TaskFailure, TaskId, TaskInfo};
pub use weights::Weights;
