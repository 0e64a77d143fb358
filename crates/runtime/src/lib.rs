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
//!   checkpointing, resume, weights) and the trace and events of its
//!   last run. Three machines plug in:
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
//! * [`trace`] — Gantt segments, per-unit busy/idle accounting, and the
//!   run reports from which every figure of the paper is regenerated.
//! * [`events`] — structured decision-level event tracing (probes, curve
//!   fits, solves, rebalances, perturbations) with JSONL export; see
//!   `docs/OBSERVABILITY.md` for the schema.
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
//! * [`protocol`] — the racy decisions (result vs. deadline, quarantine
//!   vs. loss, re-credit vs. completion) as explicit state machines,
//!   model-checked under loom; [`sync`] is the primitive shim that
//!   swaps in loom's twins under `--cfg loom`. See `docs/SOUNDNESS.md`.

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
pub mod trace;
pub mod weights;

pub use crate::core::cluster::{
    equal_cost_shards, ChunkOutcome, ClusterEngine, MigrationConfig, NodeRunner, SimNodeRunner,
};
pub use crate::core::WorkPool;
pub use checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointError, CheckpointWriter, PuState, WorkloadId,
    CHECKPOINT_FORMAT_VERSION,
};
pub use codelet::{Codelet, FnCodelet, PuResources};
pub use data::{DisjointError, DisjointOutput, DisjointWriter};
pub use engine::{Engine, Perturbation, PerturbationKind, RunError, SimEngine};
pub use events::{
    write_jsonl, Event, EventCounters, EventKind, EventSink, TraceData, TraceHeader,
    TRACE_FORMAT_VERSION,
};
pub use fault::{
    Fault, FaultAction, FaultKind, FaultPlan, FaultSpecError, FaultToleranceConfig, NodeFault,
    NodeFaultKind, NodeFaultPlan,
};
pub use host::{HostEngine, HostNodeRunner, HostPerturbation, HostPu};
pub use metrics::{PuReport, RunReport};
pub use policy::{FixedBlockPolicy, Policy, PuHandle, SchedulerCtx};
pub use protocol::{AttemptOutcome, AttemptSlot, CompletionLatch, UnitGate};
pub use table::Table;
pub use task::{FailureReason, TaskFailure, TaskId, TaskInfo};
pub use trace::{Segment, SegmentKind, Trace};
pub use weights::Weights;
