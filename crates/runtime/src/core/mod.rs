//! The backend-agnostic scheduling core.
//!
//! Both execution engines — the discrete-event [`SimEngine`] and the
//! real-thread [`HostEngine`] — are thin [`Backend`]s behind this one
//! driver. The core owns every scheduling *decision* and all shared
//! bookkeeping:
//!
//! * the driver loop (completion detection, stall detection, watchdog
//!   wake-ups),
//! * assignment bookkeeping and the disjoint-range cover of the run's
//!   item range ([`WorkPool`]) — `0..total_items` for a whole run, one
//!   node chunk of the global item space for a nested cluster-tier run,
//! * the entire fault-response state machine — bounded in-place retry
//!   with exponential backoff, quarantine after consecutive failures,
//!   probation restore, item re-credit, permanent unit loss — exactly
//!   once, for every backend (`cargo xtask lint` guards against the
//!   logic leaking back into the engines),
//! * deadline hints and the observed-rate fallback feeding the
//!   watchdog,
//! * structured event emission and [`RunReport`] accounting.
//!
//! Backends supply only mechanics: how an attempt is launched, how the
//! next observation is surfaced, and what the clock means
//! ([`ClockKind`]). The two clock semantics differ in exactly three
//! places, all conditioned explicitly here: virtual clocks know task
//! start times at launch (so `task_start` is emitted at dispatch),
//! wall clocks learn them at completion (so it is emitted
//! retroactively); watchdog deadlines and probation timers are armed
//! only under wall clocks (virtual time cannot be "late"); and
//! scheduler overhead only delays virtual launches (wall time already
//! passed).
//!
//! What the loop spends per poll does not grow with the roster: the
//! driver counts the attempts in flight and the timers it has armed as
//! it arms them, and while no timer is armed — always, under a virtual
//! clock — it neither looks for elapsed probations nor scans for the
//! next wake time.
//!
//! [`SimEngine`]: crate::engine::SimEngine
//! [`HostEngine`]: crate::host::HostEngine

mod backend;
pub mod cluster;
mod pool;

pub(crate) use backend::EventQueue;
pub use backend::{Backend, ClockKind, Launch, LaunchSpec, Polled};
pub use pool::WorkPool;

use crate::checkpoint::{
    Checkpoint, CheckpointWriter, PuState, WorkloadId, CHECKPOINT_FORMAT_VERSION,
};
use crate::engine::RunError;
use crate::events::{EventCounters, EventKind, EventSink};
use crate::fault::{FaultPlan, FaultToleranceConfig};
use crate::metrics::RunReport;
use crate::policy::{Policy, PuHandle, SchedulerCtx};
use crate::protocol::UnitGate;
use crate::sync::Arc;
use crate::task::{FailureReason, TaskFailure, TaskId, TaskInfo};
use crate::trace::Trace;
use crate::weights::Weights;
use plb_hetsim::PuId;
use std::ops::Range;

/// Run-level durability knobs handed to [`drive`]: an optional
/// periodic-snapshot writer and an optional snapshot to resume from.
/// Both default to off; see [`crate::checkpoint`] and
/// `docs/FAULT_TOLERANCE.md`.
#[derive(Debug, Default)]
pub struct Durability {
    /// Write periodic snapshots (plus one on clean shutdown) through
    /// this writer.
    pub checkpoint: Option<CheckpointWriter>,
    /// Restore this snapshot instead of starting fresh: the work pool
    /// resumes on the uncovered items, per-unit driver state is
    /// restored, and the policy is re-seeded via
    /// [`Policy::restore`](crate::Policy::restore).
    pub resume: Option<Checkpoint>,
    /// Cluster-tier node roster (one display name per node, in shard
    /// order). Stamped into snapshots as checkpoint-v3 workload
    /// identity so a mid-partition cluster run only resumes under the
    /// same roster. Empty for single-node runs.
    pub nodes: Vec<String>,
    /// Home-shard boundaries of a cluster run: `shard_bounds[i]` is the
    /// first item of shard `i+1` (ascending, exclusive of 0 and the
    /// total). On a fresh cluster run the work pool is pre-fragmented
    /// at these bounds so shard-scoped claims
    /// ([`WorkPool::take_within`]) never straddle an ownership border.
    /// Empty for single-node runs.
    pub shard_bounds: Vec<u64>,
}

/// Everything a finished drive hands back to its engine: the result
/// (with the report already built on success), plus the trace and the
/// event stream — preserved on errors too, for post-mortems.
#[derive(Debug)]
pub struct CoreOutcome {
    /// The run's outcome: a full [`RunReport`] or the typed error.
    pub result: Result<RunReport, RunError>,
    /// Gantt trace of every successful task.
    pub trace: Trace,
    /// The structured event stream (see [`crate::events`]).
    pub events: EventSink,
    /// Per-unit permanent-loss flags: `lost[i]` is true when unit `i`
    /// was written off (dead or wedged executor). The host engine skips
    /// joining those workers.
    pub lost: Vec<bool>,
}

/// Engine-side record of one in-flight attempt.
#[derive(Debug, Clone)]
struct Pending {
    task: TaskId,
    offset: u64,
    items: u64,
    /// Weight of the block's range in cost units (equal to `items`
    /// under uniform weights).
    cost: u64,
    /// 0-based attempt number of this block (0 = first dispatch).
    attempt: u32,
    /// Absolute watchdog deadline, when one applies (wall clocks only).
    deadline_at: Option<f64>,
}

/// The driver's working state: shared bookkeeping plus the backend.
struct Driver<'b> {
    backend: &'b mut dyn Backend,
    handles: Vec<PuHandle>,
    /// Written only through `set_inflight` / `take_inflight`, which keep
    /// `busy` and `armed_timers` in step.
    inflight: Vec<Option<Pending>>,
    /// Attempts in flight: the `Some` entries of `inflight`.
    busy: usize,
    /// Timers the loop must wake for: watchdog deadlines of in-flight
    /// attempts plus probation expiries in `quarantined_until`. Zero
    /// for the whole run under a virtual clock.
    armed_timers: usize,
    pool: WorkPool,
    /// Per-unit availability lattice (`Active ⇄ Quarantined`, `Lost`
    /// absorbing): a probation restore can never resurrect a unit
    /// whose executor is gone. See [`crate::protocol::UnitGate`].
    gates: Vec<UnitGate>,
    /// First item and item count of the range this drive covers.
    start: u64,
    total: u64,
    next_task: u64,
    trace: Trace,
    events: EventSink,
    /// Fault injection + response (see [`crate::fault`]).
    faults: FaultPlan,
    ft: FaultToleranceConfig,
    /// Per-unit dispatch counter (including retries) — the fault
    /// plan's attempt index.
    attempts: Vec<u64>,
    /// Join schedule from the fault plan, sorted by trigger: units in
    /// this list start *latent* (never probed, never assigned) and are
    /// admitted when the global completed-task count reaches their
    /// threshold. Keying admission to `tasks_done` — owned here, not by
    /// the backends — makes both engines admit at the same point in the
    /// task sequence.
    joins: Vec<(usize, u64)>,
    /// Next unadmitted entry of `joins`.
    next_join: usize,
    /// Per-unit drift factor of the previous dispatch; `drift_applied`
    /// is emitted only when the factor changes.
    last_drift: Vec<f64>,
    /// Whether the fault plan has any drift schedule at all (skips the
    /// per-launch schedule evaluation on the common drift-free path).
    has_drift: bool,
    /// Per-unit consecutive-failure counter; reset by any success.
    consec_failures: Vec<u32>,
    /// Policy-provided seconds-per-cost-unit prediction (deadline
    /// hint; seconds per item under uniform weights).
    deadline_hint: Vec<Option<f64>>,
    /// Observed seconds-per-cost-unit EWMA (deadline fallback).
    rate_ewma: Vec<Option<f64>>,
    /// Probation expiry for quarantined units (wall clocks only).
    /// Written only through `set_probation`.
    quarantined_until: Vec<Option<f64>>,
    /// Units whose loss was detected inside `assign` (policy callback
    /// re-entrancy guard): the driver loop delivers `on_device_lost`.
    pending_lost: Vec<PuId>,
    /// Completed ranges accumulated this process (sorted + coalesced
    /// lazily) — the disjoint cover a checkpoint persists.
    completed: Vec<(u64, u64)>,
    /// Completed tasks, lifetime (restored across a resume).
    tasks_done: u64,
    /// Periodic-snapshot writer, when checkpointing is on.
    ckpt_writer: Option<CheckpointWriter>,
    /// Event counters carried over from the resumed snapshot; merged
    /// into every new snapshot and the final report so lifetime totals
    /// survive the process boundary.
    carried: EventCounters,
    /// Per-item cost of the workload (shared with the pool): converts
    /// claimed ranges to cost units for events, deadlines, and the
    /// policy-facing cost accessors.
    weights: Arc<Weights>,
    /// Cluster-tier node roster, stamped into checkpoint workload
    /// identity (v3). Empty for single-node runs.
    nodes: Vec<String>,
}

impl SchedulerCtx for Driver<'_> {
    fn now(&self) -> f64 {
        self.backend.now()
    }

    fn pus(&self) -> &[PuHandle] {
        &self.handles
    }

    fn remaining_items(&self) -> u64 {
        self.pool.remaining()
    }

    fn total_items(&self) -> u64 {
        self.total
    }

    fn remaining_cost(&self) -> u64 {
        self.pool.remaining_cost()
    }

    fn total_cost(&self) -> u64 {
        self.weights.cost(self.start, self.total)
    }

    fn assign(&mut self, pu: PuId, budget_cost: u64) -> u64 {
        self.claim_and_launch(pu, budget_cost, |pool| pool.take(budget_cost))
    }

    fn assign_within(&mut self, pu: PuId, budget_cost: u64, lo: u64, hi: u64) -> u64 {
        self.claim_and_launch(pu, budget_cost, |pool| {
            pool.take_within(lo, hi, budget_cost)
        })
    }

    fn is_busy(&self, pu: PuId) -> bool {
        self.inflight[pu.0].is_some()
    }

    fn any_busy(&self) -> bool {
        self.busy > 0
    }

    fn charge_overhead(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.backend.charge_overhead(seconds);
        }
    }

    fn emit_event(&mut self, pu: Option<usize>, kind: EventKind) {
        let now = self.backend.now();
        self.events.record(now, pu, kind);
    }

    fn set_deadline_hint(&mut self, pu: PuId, seconds_per_cost_unit: f64) {
        self.deadline_hint[pu.0] =
            if seconds_per_cost_unit.is_finite() && seconds_per_cost_unit > 0.0 {
                Some(seconds_per_cost_unit)
            } else {
                None
            };
    }
}

impl Driver<'_> {
    /// Record `pend` as the attempt in flight on the free unit `pu`.
    fn set_inflight(&mut self, pu: usize, pend: Pending) {
        if let Some(slot) = self.inflight.get_mut(pu) {
            debug_assert!(slot.is_none(), "launching onto a busy unit");
            self.busy += 1;
            self.armed_timers += usize::from(pend.deadline_at.is_some());
            *slot = Some(pend);
        }
    }

    /// Clear and return the attempt in flight on `pu`, if any.
    fn take_inflight(&mut self, pu: usize) -> Option<Pending> {
        let pend = self.inflight.get_mut(pu)?.take()?;
        self.busy -= 1;
        self.armed_timers -= usize::from(pend.deadline_at.is_some());
        Some(pend)
    }

    /// Take the attempt in flight on `pu` if it is still `task`. An
    /// observation of any other task is stale — it comes from a unit
    /// already written off, whose block was re-dispatched elsewhere —
    /// and yields `None`.
    fn take_if_current(&mut self, pu: usize, task: TaskId) -> Option<Pending> {
        let current = self.inflight.get(pu)?.as_ref()?.task == task;
        if current {
            self.take_inflight(pu)
        } else {
            None
        }
    }

    /// Arm (`Some`) or clear (`None`) the probation timer of `pu`.
    fn set_probation(&mut self, pu: usize, until: Option<f64>) {
        if let Some(slot) = self.quarantined_until.get_mut(pu) {
            self.armed_timers -= usize::from(slot.is_some());
            self.armed_timers += usize::from(until.is_some());
            *slot = until;
        }
    }

    /// `(busy, armed_timers)` counted from scratch: what the two
    /// counters must equal at every turn of the loop.
    fn recount(&self) -> (usize, usize) {
        let deadlines = self
            .inflight
            .iter()
            .flatten()
            .filter(|p| p.deadline_at.is_some());
        let probations = self.quarantined_until.iter().flatten();
        (
            self.inflight.iter().flatten().count(),
            deadlines.count() + probations.count(),
        )
    }

    /// The earliest armed watchdog deadline or probation expiry. Looks
    /// at the roster only when a timer is armed.
    fn earliest_timer(&self) -> Option<f64> {
        if self.armed_timers == 0 {
            return None;
        }
        let deadlines = self.inflight.iter().flatten().filter_map(|p| p.deadline_at);
        let probations = self.quarantined_until.iter().flatten().copied();
        deadlines
            .chain(probations)
            .reduce(f64::min)
            .filter(|t| t.is_finite())
    }

    /// The body of both `assign` flavours: if `pu` is free, claim a
    /// range through `claim`, submit it as a new task and launch it;
    /// returns the claimed cost (0 when nothing was assigned).
    fn claim_and_launch(
        &mut self,
        pu: PuId,
        budget_cost: u64,
        claim: impl FnOnce(&mut WorkPool) -> Option<(u64, u64)>,
    ) -> u64 {
        if budget_cost == 0 || self.pool.remaining() == 0 {
            return 0;
        }
        let unit_free = self.handles.get(pu.0).is_some_and(|h| h.available)
            && self.inflight.get(pu.0).is_some_and(Option::is_none)
            && self.backend.unit_ready(pu.0);
        if !unit_free {
            return 0;
        }
        // Re-credited ranges are served first so failed blocks re-run;
        // a reclaimed fragment may carry less weight than the budget,
        // in which case less cost is assigned (policies must tolerate
        // any return value).
        let Some((offset, got)) = claim(&mut self.pool) else {
            return 0;
        };
        let cost = self.weights.cost(offset, got);
        let task = TaskId(self.next_task);
        self.next_task += 1;
        let now = self.backend.now();
        self.events.record(
            now,
            Some(pu.0),
            EventKind::TaskSubmit {
                task: task.0,
                items: got,
                cost,
            },
        );
        if !self.launch(pu.0, task, offset, got, cost, 0, 0.0) {
            // The executor died out from under us: the block returns
            // to the pool and the unit is lost; the driver loop
            // delivers the policy notification.
            self.pool.reclaim(offset, got);
            self.release_unit(pu.0);
            return 0;
        }
        cost
    }

    /// Launch one attempt: resolve the fault plan, arm the watchdog
    /// deadline (wall clocks), record the in-flight entry, and hand the
    /// spec to the backend. Returns `false` when the unit's executor is
    /// gone — the caller reclaims the block and writes the unit off.
    fn launch(
        &mut self,
        pu: usize,
        task: TaskId,
        offset: u64,
        items: u64,
        cost: u64,
        attempt: u32,
        backoff_s: f64,
    ) -> bool {
        let fault_attempt = self.attempts[pu];
        self.attempts[pu] += 1;
        let inject = self.faults.action(pu, fault_attempt);
        let drift = if self.has_drift {
            self.faults.drift_factor(pu, fault_attempt)
        } else {
            1.0
        };
        if drift != self.last_drift[pu] {
            self.last_drift[pu] = drift;
            let now = self.backend.now();
            self.events
                .record(now, Some(pu), EventKind::DriftApplied { factor: drift });
        }
        let deadline_at = if self.backend.clock_kind() == ClockKind::Wall {
            // Rates (hinted and observed) are seconds per cost unit, so
            // the watchdog prices the block by its weight, not length.
            let rate = self.deadline_hint[pu].or(self.rate_ewma[pu]);
            let now = self.backend.now();
            self.ft
                .deadline_for(rate, cost)
                .map(|d| now + backoff_s + d)
        } else {
            None
        };
        self.set_inflight(
            pu,
            Pending {
                task,
                offset,
                items,
                cost,
                attempt,
                deadline_at,
            },
        );
        match self.backend.launch(&LaunchSpec {
            pu,
            task,
            offset,
            items,
            attempt,
            backoff_s,
            inject,
            drift,
        }) {
            Launch::Started { start } => {
                // Virtual clocks know the start time at dispatch; it is
                // recorded for first attempts only (retries of the same
                // block keep the original submit/start pair).
                if attempt == 0 {
                    if let Some(s) = start {
                        self.events.record(
                            s,
                            Some(pu),
                            EventKind::TaskStart {
                                task: task.0,
                                items,
                            },
                        );
                    }
                }
                true
            }
            Launch::UnitGone => {
                let _ = self.take_inflight(pu);
                false
            }
        }
    }

    /// Permanently remove a unit whose executor is gone or wedged.
    /// Emits `device_failed` and queues the `on_device_lost`
    /// notification for the driver loop (never calls the policy
    /// directly — this can run inside a policy's own `assign` call).
    fn release_unit(&mut self, pu: usize) {
        // The gate's swap makes loss idempotent and absorbing: exactly
        // one caller performs the teardown, and a pending probation
        // restore can no longer succeed.
        if !self.gates[pu].mark_lost() {
            return;
        }
        self.handles[pu].available = false;
        self.backend.forget_unit(pu);
        self.set_probation(pu, None);
        let now = self.backend.now();
        self.events.record(now, Some(pu), EventKind::DeviceFailed);
        self.pending_lost.push(PuId(pu));
    }

    /// Deliver queued `on_device_lost` notifications (losses detected
    /// inside `assign`, where calling back into the policy would
    /// re-enter it).
    fn notify_lost(&mut self, policy: &mut dyn Policy) {
        while let Some(pu) = self.pending_lost.pop() {
            policy.on_device_lost(self, pu);
        }
    }

    /// Admit every latent unit whose join threshold the global
    /// completed-task count has reached: flip it available, mirror the
    /// admission in the backend, emit `pu_joined`, and hand the unit to
    /// the policy's `on_device_joined` flow (which decides — via its
    /// acquisition gate — whether folding the newcomer in pays off).
    /// Called once at start (thresholds of 0, resumed runs) and after
    /// every completion; joins never fire between completions, so both
    /// engines admit at the same point in the task sequence.
    fn admit_due_joins(&mut self, policy: &mut dyn Policy) {
        while self
            .joins
            .get(self.next_join)
            .is_some_and(|&(_, after)| self.tasks_done >= after)
        {
            let (pu, after_tasks) = self.joins[self.next_join];
            self.next_join += 1;
            // Out-of-range targets (a plan built for a larger cluster)
            // are ignored, mirroring the latent-marking pass. A unit
            // written off while latent (it cannot fail a task it never
            // ran, but an external perturbation may have killed it)
            // stays gone.
            if pu >= self.handles.len() || self.gates[pu].is_lost() || self.handles[pu].available {
                continue;
            }
            self.handles[pu].available = true;
            self.consec_failures[pu] = 0;
            self.backend.on_unit_joined(pu);
            let now = self.backend.now();
            self.events
                .record(now, Some(pu), EventKind::PuJoined { after_tasks });
            policy.on_device_joined(self, PuId(pu));
            self.notify_lost(policy);
        }
    }

    /// Fold an observed per-cost-unit rate into the unit's EWMA
    /// estimate (per-item under uniform weights).
    fn observe_rate(&mut self, pu: usize, proc_time: f64, cost: u64) {
        if cost == 0 || !(proc_time.is_finite() && proc_time >= 0.0) {
            return;
        }
        let rate = proc_time / cost as f64;
        self.rate_ewma[pu] = Some(match self.rate_ewma[pu] {
            Some(prev) => 0.5 * prev + 0.5 * rate,
            None => rate,
        });
    }

    /// Sort the completed ranges and merge adjacent ones in place. The
    /// ranges are disjoint by construction (every item completes under
    /// exactly one attempt), so adjacency is the only merge case.
    fn coalesce_completed(&mut self) {
        self.completed.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.completed.len());
        for &(off, len) in &self.completed {
            match merged.last_mut() {
                Some((m_off, m_len)) if *m_off + *m_len == off => *m_len += len,
                _ => merged.push((off, len)),
            }
        }
        self.completed = merged;
    }

    /// Snapshot the driver state (see [`crate::checkpoint`]). The
    /// sequence number is stamped by the writer.
    fn build_checkpoint(&mut self, policy: &dyn Policy) -> Checkpoint {
        self.coalesce_completed();
        let mut counters = self.events.counters();
        counters.merge(&self.carried);
        let units = (0..self.handles.len())
            .map(|i| PuState {
                name: self.handles[i].name.clone(),
                dispatches: self.attempts[i],
                consecutive_failures: self.consec_failures[i],
                rate_ewma: self.rate_ewma[i],
                quarantined: !self.gates[i].is_lost() && !self.handles[i].available,
                lost: self.gates[i].is_lost(),
            })
            .collect();
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            workload: WorkloadId {
                policy: policy.name().to_string(),
                total_items: self.total,
                n_pus: self.handles.len(),
                total_cost: self.total_cost(),
                nodes: self.nodes.clone(),
            },
            seq: 0,
            at: self.backend.now(),
            tasks_done: self.tasks_done,
            next_task: self.next_task,
            completed: self.completed.clone(),
            units,
            counters,
            policy_state: policy.snapshot(),
        }
    }

    /// Write a snapshot when one is due (or `force`d, on clean
    /// shutdown). A failed write is a run error: silently continuing
    /// without the durability the caller asked for would let a later
    /// crash lose work the caller believed was persisted.
    fn maybe_checkpoint(&mut self, policy: &dyn Policy, force: bool) -> Result<(), RunError> {
        let due = match &self.ckpt_writer {
            Some(w) => force || w.due(self.tasks_done),
            None => false,
        };
        if !due {
            return Ok(());
        }
        let mut ckpt = self.build_checkpoint(policy);
        let Some(w) = self.ckpt_writer.as_mut() else {
            return Ok(());
        };
        let seq = w.write(&mut ckpt).map_err(|e| RunError::Checkpoint {
            detail: e.to_string(),
        })?;
        let now = self.backend.now();
        self.events.record(
            now,
            None,
            EventKind::CheckpointWritten {
                seq,
                tasks_done: self.tasks_done,
                completed_items: ckpt.completed_items(),
            },
        );
        Ok(())
    }

    /// Record the stall in the event stream and build the error.
    fn stall(&mut self) -> RunError {
        let at = self.backend.now();
        let remaining = self.pool.remaining();
        self.events
            .record(at, None, EventKind::Stalled { remaining });
        RunError::Stalled { remaining, at }
    }

    /// After a unit loss: when every unit is gone, nothing is in
    /// flight, and nothing (probation, pending external restore) can
    /// bring one back, the run is dead — stall immediately rather than
    /// replaying a drained queue.
    fn all_dead_stall(&mut self) -> Option<RunError> {
        if self.pool.remaining() == 0
            || self.handles.iter().any(|h| h.available)
            || self.any_busy()
            // With nothing in flight, every armed timer is a probation.
            || self.armed_timers > 0
            || self.backend.external_restore_possible()
        {
            return None;
        }
        Some(self.stall())
    }

    /// The fault-response state machine for one failed attempt:
    /// quarantine after `quarantine_after` consecutive failures, else
    /// bounded in-place retry with exponential backoff, else re-credit
    /// the block to the pool. Returns an error when the failure killed
    /// the run (every unit gone).
    fn handle_failure(
        &mut self,
        policy: &mut dyn Policy,
        pu: usize,
        task: TaskId,
        reason: FailureReason,
    ) -> Option<RunError> {
        let pend = self.take_if_current(pu, task)?;
        self.consec_failures[pu] += 1;
        let failures = self.consec_failures[pu];
        let now = self.backend.now();
        self.events.record(
            now,
            Some(pu),
            EventKind::TaskFailed {
                task: pend.task.0,
                items: pend.items,
                attempt: pend.attempt,
                reason: reason.name().to_string(),
            },
        );
        if failures >= self.ft.quarantine_after {
            // Quarantine: the unit leaves the active set, its block
            // returns to the pool, and the policy re-solves the split
            // over the survivors. Under a wall clock with a probation
            // window the unit can come back; virtual clocks model
            // restores as external perturbations instead.
            let gated = self.gates[pu].try_quarantine();
            debug_assert!(gated, "quarantining a non-active unit");
            self.backend.on_unit_quarantined(pu);
            self.handles[pu].available = false;
            if self.backend.clock_kind() == ClockKind::Wall {
                self.set_probation(pu, self.ft.probation_s.map(|p| now + p));
            }
            self.pool.reclaim(pend.offset, pend.items);
            self.events
                .record(now, Some(pu), EventKind::PuQuarantined { failures });
            self.events.record(now, Some(pu), EventKind::DeviceFailed);
            policy.on_device_lost(self, PuId(pu));
            self.notify_lost(policy);
            let failure = TaskFailure {
                task_id: pend.task,
                pu: PuId(pu),
                items: pend.items,
                cost: pend.cost,
                attempt: pend.attempt,
                at: now,
                reason,
            };
            policy.on_task_failed(self, &failure);
            self.notify_lost(policy);
            return self.all_dead_stall();
        }
        if pend.attempt < self.ft.max_retries {
            // Bounded in-place retry with exponential backoff; the
            // fault plan sees a fresh per-unit attempt index.
            let retry_attempt = pend.attempt + 1;
            let backoff = self.ft.backoff_for(retry_attempt);
            self.events.record(
                now,
                Some(pu),
                EventKind::TaskRetry {
                    task: pend.task.0,
                    items: pend.items,
                    attempt: retry_attempt,
                    backoff_s: backoff,
                },
            );
            if !self.launch(
                pu,
                pend.task,
                pend.offset,
                pend.items,
                pend.cost,
                retry_attempt,
                backoff,
            ) {
                self.pool.reclaim(pend.offset, pend.items);
                self.release_unit(pu);
                self.notify_lost(policy);
            }
            return None;
        }
        // Retries exhausted without hitting the quarantine bar: the
        // block's items return to the pool for the other units.
        self.pool.reclaim(pend.offset, pend.items);
        let failure = TaskFailure {
            task_id: pend.task,
            pu: PuId(pu),
            items: pend.items,
            cost: pend.cost,
            attempt: pend.attempt,
            at: now,
            reason,
        };
        policy.on_task_failed(self, &failure);
        self.notify_lost(policy);
        None
    }

    /// Close the run if every item is done and nothing is in flight.
    fn try_finish(&mut self) -> bool {
        if self.pool.remaining() > 0 || self.any_busy() {
            return false;
        }
        let closed = self.pool.try_close();
        debug_assert!(closed, "run closed twice");
        true
    }

    /// End the probation windows that have elapsed: the unit rejoins
    /// the active set and the policy can fold it back in. The gate
    /// arbitrates against loss: a unit marked lost after its quarantine
    /// fails `try_restore` and stays gone.
    fn end_elapsed_probations(&mut self, policy: &mut dyn Policy) {
        let now = self.backend.now();
        for i in 0..self.handles.len() {
            let due = self.quarantined_until[i].is_some_and(|t| now >= t);
            if !due {
                continue;
            }
            self.set_probation(i, None);
            if !self.gates[i].try_restore() {
                continue;
            }
            self.consec_failures[i] = 0;
            self.handles[i].available = true;
            let now = self.backend.now();
            self.events.record(now, Some(i), EventKind::DeviceRestored);
            policy.on_device_restored(self, PuId(i));
            self.notify_lost(policy);
        }
    }

    /// The unified driver loop.
    fn run_loop(&mut self, policy: &mut dyn Policy) -> Result<(), RunError> {
        let n = self.handles.len();
        loop {
            debug_assert_eq!(
                (self.busy, self.armed_timers),
                self.recount(),
                "busy / armed-timer counts drifted from inflight / quarantined_until"
            );
            if self.try_finish() {
                return Ok(());
            }

            // Timers are armed under wall clocks only, so a virtual-
            // clock run never walks the roster here.
            if self.armed_timers > 0 {
                self.end_elapsed_probations(policy);
                if self.try_finish() {
                    return Ok(());
                }
            }

            // Idle with work left: unless a probation expiry (with
            // nothing in flight, every armed timer is one) or the
            // backend itself (queued completions, a pending external
            // restore) can still make progress, the policy deadlocked
            // the run — stall now rather than waiting forever.
            if !self.any_busy() && self.armed_timers == 0 && !self.backend.idle_progress_possible()
            {
                return Err(self.stall());
            }

            // Watchdog-aware wait: wake at the earliest task deadline
            // or probation expiry, whichever comes first.
            let wake = self.earliest_timer();

            match self.backend.poll(wake, &mut self.events) {
                Polled::Completed {
                    pu,
                    task,
                    start,
                    xfer_s,
                    proc_s,
                    finish,
                } => {
                    // Stale completions (from units already written
                    // off, whose wedged worker eventually finished) are
                    // ignored: the block was re-dispatched elsewhere.
                    let Some(pend) = self.take_if_current(pu, task) else {
                        continue;
                    };
                    self.consec_failures[pu] = 0;
                    self.observe_rate(pu, proc_s, pend.cost);
                    self.completed.push((pend.offset, pend.items));
                    self.tasks_done += 1;
                    self.trace
                        .record_task(PuId(pu), task, pend.items, start, xfer_s, proc_s);
                    if self.backend.clock_kind() == ClockKind::Wall {
                        // Wall clocks learn the start time only now:
                        // record it retroactively (virtual clocks
                        // already did at dispatch).
                        self.events.record(
                            start,
                            Some(pu),
                            EventKind::TaskStart {
                                task: task.0,
                                items: pend.items,
                            },
                        );
                    }
                    self.events.record(
                        finish,
                        Some(pu),
                        EventKind::TaskFinish {
                            task: task.0,
                            items: pend.items,
                            cost: pend.cost,
                            xfer_s,
                            proc_s,
                        },
                    );
                    let info = TaskInfo {
                        task_id: task,
                        pu: PuId(pu),
                        items: pend.items,
                        cost: pend.cost,
                        xfer_time: xfer_s,
                        proc_time: proc_s,
                        start,
                        finish,
                    };
                    policy.on_task_finished(self, &info);
                    self.notify_lost(policy);
                    self.admit_due_joins(policy);
                    self.maybe_checkpoint(&*policy, false)?;
                }
                Polled::AttemptFailed { pu, task, reason } => {
                    if let Some(err) = self.handle_failure(policy, pu, task, reason) {
                        return Err(err);
                    }
                }
                Polled::UnitDown { pu } => {
                    // Backend-external loss (a simulated machine
                    // failure): cancel the in-flight block and
                    // re-credit its items. The gate records it as a
                    // quarantine so a later external restore succeeds.
                    self.handles[pu].available = false;
                    let _ = self.gates[pu].try_quarantine();
                    let now = self.backend.now();
                    if let Some(pend) = self.take_inflight(pu) {
                        self.pool.reclaim(pend.offset, pend.items);
                        self.events.record(
                            now,
                            Some(pu),
                            EventKind::TaskFailed {
                                task: pend.task.0,
                                items: pend.items,
                                attempt: pend.attempt,
                                reason: FailureReason::WorkerLost.name().to_string(),
                            },
                        );
                    }
                    self.events.record(now, Some(pu), EventKind::DeviceFailed);
                    policy.on_device_lost(self, PuId(pu));
                    self.notify_lost(policy);
                    if let Some(err) = self.all_dead_stall() {
                        return Err(err);
                    }
                }
                Polled::UnitRestored { pu } => {
                    // Backend-external restore. `try_restore` is a
                    // no-op for a unit that never failed — the event
                    // and callback still fire, matching the
                    // perturbation's contract.
                    let _ = self.gates[pu].try_restore();
                    self.handles[pu].available = true;
                    self.consec_failures[pu] = 0;
                    let now = self.backend.now();
                    self.events.record(now, Some(pu), EventKind::DeviceRestored);
                    policy.on_device_restored(self, PuId(pu));
                    self.notify_lost(policy);
                }
                Polled::Nothing => {}
                Polled::Timeout => {
                    // Declare units with blown deadlines lost. Their
                    // executors may be wedged mid-kernel; the lost
                    // block re-runs on a survivor (idempotent
                    // codelets). The watchdog must win the attempt's
                    // claim word first: if the real outcome beat the
                    // deadline and is already queued, the claim fails
                    // and the unit is left alone.
                    let now = self.backend.now();
                    for i in 0..n {
                        let blown = self.inflight[i]
                            .as_ref()
                            .is_some_and(|p| p.deadline_at.is_some_and(|d| now >= d))
                            && self.backend.try_claim_timeout(i);
                        if !blown {
                            continue;
                        }
                        let Some(pend) = self.take_inflight(i) else {
                            continue;
                        };
                        self.events.record(
                            now,
                            Some(i),
                            EventKind::TaskFailed {
                                task: pend.task.0,
                                items: pend.items,
                                attempt: pend.attempt,
                                reason: FailureReason::DeadlineExceeded.name().to_string(),
                            },
                        );
                        self.pool.reclaim(pend.offset, pend.items);
                        self.release_unit(i);
                        self.notify_lost(policy);
                        let failure = TaskFailure {
                            task_id: pend.task,
                            pu: PuId(i),
                            items: pend.items,
                            cost: pend.cost,
                            attempt: pend.attempt,
                            at: now,
                            reason: FailureReason::DeadlineExceeded,
                        };
                        policy.on_task_failed(self, &failure);
                        self.notify_lost(policy);
                    }
                }
                Polled::Drained => {
                    // The backend can never produce another event while
                    // work is outstanding: a policy bug (or every
                    // device failed).
                    return Err(self.stall());
                }
                Polled::Infrastructure { detail } => {
                    return Err(RunError::Infrastructure { detail });
                }
            }
        }
    }
}

/// Run the item range `items` under `policy` on `backend`: the single
/// driver every engine delegates to. `items` is `0..total_items` for a
/// whole run and one node's chunk, in global coordinates, for a nested
/// cluster-tier run; `handles` is the backend's unit roster (with
/// initial availability); `weights` is the *global* per-item cost
/// (uniform for regular workloads — cost ≡ item count); `faults`
/// injects deterministic failures and `ft` tunes the response (see
/// [`crate::fault`]); `durability` turns on periodic checkpointing
/// and/or resume (see [`crate::checkpoint`]), which are defined for
/// whole runs only.
pub fn drive(
    backend: &mut dyn Backend,
    handles: Vec<PuHandle>,
    policy: &mut dyn Policy,
    items: Range<u64>,
    weights: Arc<Weights>,
    faults: FaultPlan,
    ft: FaultToleranceConfig,
    durability: Durability,
) -> CoreOutcome {
    let n = handles.len();
    let Durability {
        checkpoint,
        resume,
        nodes,
        shard_bounds,
    } = durability;

    let total_items = items.end.saturating_sub(items.start);
    let reject = |detail: String| CoreOutcome {
        result: Err(RunError::Checkpoint { detail }),
        trace: Trace::new(n),
        events: EventSink::default(),
        lost: vec![false; n],
    };
    // A snapshot's cover and identity describe `0..total_items`; one
    // taken of (or restored into) a sub-range would be unreadable.
    if items.start != 0 && (checkpoint.is_some() || resume.is_some()) {
        return reject("checkpoint and resume need a whole run, not a sub-range".into());
    }

    // Validate the resume snapshot before building any state: a
    // rejected snapshot must fail the run loudly, never silently start
    // a fresh one over the remains of another.
    let mut restored: Option<Checkpoint> = None;
    let mut pool = WorkPool::over(items.clone(), Arc::clone(&weights));
    if let Some(ckpt) = resume {
        let workload = WorkloadId {
            policy: policy.name().to_string(),
            total_items,
            n_pus: n,
            total_cost: weights.total_cost(total_items),
            nodes: nodes.clone(),
        };
        let prepared = ckpt
            .validate()
            .and_then(|()| ckpt.matches(&workload))
            .map_err(|e| e.to_string())
            .and_then(|()| {
                WorkPool::resume_with_weights(total_items, &ckpt.completed, Arc::clone(&weights))
            });
        match prepared {
            Ok(p) => {
                pool = p;
                restored = Some(ckpt);
            }
            Err(detail) => return reject(detail),
        }
    }

    // Cluster runs pre-fragment the pool at the home-shard borders so
    // shard-scoped claims never straddle an ownership boundary (a
    // no-op on a resumed pool, whose fresh range is already exhausted —
    // resume holes split lazily inside `take_within`).
    if !shard_bounds.is_empty() {
        pool.fragment(&shard_bounds);
    }

    // Units with a scheduled mid-run join start *latent*: invisible to
    // the policy's probing and assignment until the global completed-
    // task count reaches their threshold (`Driver::admit_due_joins`).
    let joins = faults.joins();
    let has_drift = faults.has_drift();
    let mut d = Driver {
        backend,
        handles,
        inflight: vec![None; n],
        busy: 0,
        armed_timers: 0,
        pool,
        gates: (0..n).map(|_| UnitGate::new()).collect(),
        start: items.start,
        total: total_items,
        next_task: 0,
        trace: Trace::new(n),
        events: EventSink::default(),
        faults,
        ft,
        attempts: vec![0; n],
        joins,
        next_join: 0,
        last_drift: vec![1.0; n],
        has_drift,
        consec_failures: vec![0; n],
        deadline_hint: vec![None; n],
        rate_ewma: vec![None; n],
        quarantined_until: vec![None; n],
        pending_lost: Vec::new(),
        completed: Vec::new(),
        tasks_done: 0,
        ckpt_writer: checkpoint,
        carried: EventCounters::default(),
        weights,
        nodes,
    };
    for &(pu, _) in &d.joins {
        if pu < n {
            d.handles[pu].available = false;
        }
    }
    d.events.record(
        0.0,
        None,
        EventKind::RunStart {
            policy: policy.name().to_string(),
            total_items,
            n_pus: n,
        },
    );
    if let Some(ckpt) = &restored {
        // Restore the driver's bookkeeping: the task-id sequence, the
        // completed cover, lifetime counters, and per-unit fault state.
        // Restoring `attempts` keeps injected fault plans deterministic
        // across the process boundary.
        d.next_task = ckpt.next_task;
        d.tasks_done = ckpt.tasks_done;
        d.completed = ckpt.completed.clone();
        d.carried = ckpt.counters.clone();
        for (i, u) in ckpt.units.iter().enumerate() {
            d.attempts[i] = u.dispatches;
            d.consec_failures[i] = u.consecutive_failures;
            d.rate_ewma[i] = u.rate_ewma;
            if u.lost {
                // The executor died with the previous process: written
                // off before the policy ever sees the unit.
                if d.gates[i].mark_lost() {
                    d.handles[i].available = false;
                    d.backend.forget_unit(i);
                }
            } else if u.quarantined && d.handles[i].available && d.gates[i].try_quarantine() {
                d.backend.on_unit_quarantined(i);
                d.handles[i].available = false;
                if d.backend.clock_kind() == ClockKind::Wall {
                    let now = d.backend.now();
                    d.set_probation(i, d.ft.probation_s.map(|p| now + p));
                }
            }
        }
        if let Some(w) = d.ckpt_writer.as_mut() {
            w.continue_from(ckpt.seq + 1, ckpt.tasks_done);
        }
        // Re-seed the policy with its persisted state (for PLB-HeC, the
        // accumulated profiles and fitted models — re-fit + re-solve
        // instead of re-probing). A policy that declines restores
        // simply starts fresh on the remaining items.
        if let Some(state) = &ckpt.policy_state {
            let _ = policy.restore(state);
        }
        d.events.record(
            d.backend.now(),
            None,
            EventKind::RunResumed {
                seq: ckpt.seq,
                completed_items: ckpt.completed_items(),
            },
        );
    }
    policy.on_start(&mut d);
    d.notify_lost(policy);
    // Joins already due (a threshold of 0, or a resume past the
    // threshold) fire before the loop; later ones fire on completions.
    d.admit_due_joins(policy);
    let mut outcome = d.run_loop(policy);
    if outcome.is_ok() {
        // One forced snapshot on clean shutdown, so the file on disk
        // always ends covering the full item space.
        outcome = d.maybe_checkpoint(&*policy, true);
    }
    let result = outcome.map(|()| {
        d.events.record(
            d.backend.now(),
            None,
            EventKind::RunEnd {
                makespan_s: d.trace.makespan(),
                total_items,
            },
        );
        let names: Vec<String> = d.handles.iter().map(|h| h.name.clone()).collect();
        let mut report =
            RunReport::from_trace(policy.name(), &d.trace, &names, policy.block_distribution());
        for (i, pu) in report.pus.iter_mut().enumerate() {
            pu.bytes_in = d.backend.bytes_into(i);
        }
        report.events = d.events.counters();
        // Lifetime totals: fold in the counters carried over from the
        // resumed snapshot.
        report.events.merge(&d.carried);
        report.rebalances = report.events.rebalances as usize;
        // The completed cover (coalesced): callers assert the
        // disjoint-cover invariant on it across faults and resumes.
        d.coalesce_completed();
        report.cover = d.completed.clone();
        report
    });
    CoreOutcome {
        result,
        trace: d.trace,
        events: d.events,
        lost: d.gates.iter().map(UnitGate::is_lost).collect(),
    }
}

/// The driver's wake contract: what `wake` the core hands
/// [`Backend::poll`], and so which timers it believes are armed. The
/// loop's own `debug_assert!` recounts `busy` / `armed_timers` at every
/// turn of these runs.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultAction, FaultKind};
    use crate::task::{FailureReason, TaskFailure, TaskInfo};
    use plb_hetsim::PuKind;

    /// What the mock's queue holds.
    enum Ev {
        /// The attempt of `task` on `pu`, started at `start`, ends; `doomed`
        /// attempts end in a panic.
        Done {
            pu: usize,
            task: TaskId,
            start: f64,
            doomed: bool,
        },
        /// The core's wake time arrived with nothing else to report.
        Tick,
    }

    /// A backend of either clock kind whose time moves only in `poll`: an
    /// attempt on unit `i` takes `task_s[i]` seconds, and a poll that has
    /// a wake time but no event sleeps until then.
    struct MockBackend {
        clock: ClockKind,
        task_s: Vec<f64>,
        queue: EventQueue<Ev>,
    }

    impl MockBackend {
        fn new(clock: ClockKind, task_s: &[f64]) -> MockBackend {
            MockBackend {
                clock,
                task_s: task_s.to_vec(),
                queue: EventQueue::new(),
            }
        }
    }

    impl Backend for MockBackend {
        fn clock_kind(&self) -> ClockKind {
            self.clock
        }

        fn now(&self) -> f64 {
            self.queue.now()
        }

        fn launch(&mut self, spec: &LaunchSpec) -> Launch {
            let start = self.queue.start_of(spec);
            let doomed = matches!(spec.inject, Some(FaultAction::Panic));
            self.queue.push(
                start + self.task_s[spec.pu],
                Ev::Done {
                    pu: spec.pu,
                    task: spec.task,
                    start,
                    doomed,
                },
            );
            Launch::Started {
                start: (self.clock == ClockKind::Virtual).then_some(start),
            }
        }

        fn poll(&mut self, wake: Option<f64>, _events: &mut EventSink) -> Polled {
            if !self.idle_progress_possible() {
                match wake {
                    Some(w) => self.queue.push(w, Ev::Tick),
                    None => return Polled::Drained,
                }
            }
            match self.queue.pop() {
                Some(Ev::Done {
                    pu,
                    task,
                    doomed: true,
                    ..
                }) => Polled::AttemptFailed {
                    pu,
                    task,
                    reason: FailureReason::Panicked,
                },
                Some(Ev::Done {
                    pu, task, start, ..
                }) => Polled::Completed {
                    pu,
                    task,
                    start,
                    xfer_s: 0.0,
                    proc_s: self.now() - start,
                    finish: self.now(),
                },
                Some(Ev::Tick) => Polled::Timeout,
                None => Polled::Drained,
            }
        }

        fn idle_progress_possible(&self) -> bool {
            self.queue.pending().next().is_some()
        }
    }

    /// Delegates to `inner`, noting the `wake` of every poll.
    struct WakeLog<B> {
        inner: B,
        wakes: Vec<Option<f64>>,
    }

    impl<B: Backend> Backend for WakeLog<B> {
        fn clock_kind(&self) -> ClockKind {
            self.inner.clock_kind()
        }
        fn now(&self) -> f64 {
            self.inner.now()
        }
        fn launch(&mut self, spec: &LaunchSpec) -> Launch {
            self.inner.launch(spec)
        }
        fn poll(&mut self, wake: Option<f64>, events: &mut EventSink) -> Polled {
            self.wakes.push(wake);
            self.inner.poll(wake, events)
        }
        fn idle_progress_possible(&self) -> bool {
            self.inner.idle_progress_possible()
        }
    }

    /// Hands a block to every free unit whenever anything happens — unless
    /// `hold`, in which case only the start and a restore assign, so a run
    /// can sit idle on a probation timer.
    struct Pump {
        block: u64,
        /// Seconds per cost unit hinted for unit `i` (the watchdog's rate).
        hints: Vec<f64>,
        hold: bool,
    }

    impl Pump {
        fn pump(&self, ctx: &mut dyn SchedulerCtx) {
            let free: Vec<PuId> = ctx
                .pus()
                .iter()
                .filter(|p| p.available)
                .map(|p| p.id)
                .collect();
            for id in free {
                if !ctx.is_busy(id) {
                    ctx.assign(id, self.block);
                }
            }
        }
    }

    impl Policy for Pump {
        fn name(&self) -> &str {
            "pump"
        }
        fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
            for (i, &h) in self.hints.iter().enumerate() {
                ctx.set_deadline_hint(PuId(i), h);
            }
            self.pump(ctx);
        }
        fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, _done: &TaskInfo) {
            if !self.hold {
                self.pump(ctx);
            }
        }
        fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, _failure: &TaskFailure) {
            if !self.hold {
                self.pump(ctx);
            }
        }
        fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, _pu: PuId) {
            self.pump(ctx);
        }
    }

    fn handles(n: usize) -> Vec<PuHandle> {
        (0..n)
            .map(|i| PuHandle {
                id: PuId(i),
                name: format!("u{i}"),
                kind: PuKind::Cpu,
                machine: 0,
                available: true,
            })
            .collect()
    }

    fn flaky(pu: usize, attempts: u64) -> FaultPlan {
        FaultPlan::new(vec![Fault {
            pu,
            kind: FaultKind::FlakyUntil { attempts },
        }])
    }

    fn run(
        backend: &mut dyn Backend,
        n: usize,
        policy: &mut Pump,
        total: u64,
        faults: FaultPlan,
        ft: FaultToleranceConfig,
    ) -> RunReport {
        drive(
            backend,
            handles(n),
            policy,
            0..total,
            Weights::uniform(),
            faults,
            ft,
            Durability::default(),
        )
        .result
        .expect("run completes")
    }

    #[test]
    fn virtual_clock_never_arms_a_timer() {
        let mut backend = WakeLog {
            inner: MockBackend::new(ClockKind::Virtual, &[0.3, 0.2, 0.25]),
            wakes: Vec::new(),
        };
        // Hints and a probation window are on offer; a virtual clock must
        // turn neither into a timer.
        let mut policy = Pump {
            block: 100,
            hints: vec![1e-3; 3],
            hold: false,
        };
        // Unit 1 panics three times: attempt 0 and two in-place retries,
        // then quarantine, and its block is re-credited to the others.
        let report = run(
            &mut backend,
            3,
            &mut policy,
            1_000,
            flaky(1, 10),
            FaultToleranceConfig::default().with_probation(1.0),
        );
        assert_eq!(report.cover, vec![(0, 1_000)]);
        assert_eq!(report.events.task_retries, 2);
        assert_eq!(report.events.quarantines, 1);
        assert_eq!(report.pus[1].items, 0);
        assert!(backend.wakes.len() >= 10 + 3);
        assert!(
            backend.wakes.iter().all(Option::is_none),
            "{:?}",
            backend.wakes
        );
    }

    #[test]
    fn wall_clock_wakes_at_the_earliest_deadline_or_probation_expiry() {
        let mut backend = WakeLog {
            inner: MockBackend::new(ClockKind::Wall, &[0.3, 0.2]),
            wakes: Vec::new(),
        };
        let mut policy = Pump {
            block: 100,
            hints: vec![1e-3, 2e-3],
            hold: true,
        };
        let ft = FaultToleranceConfig::default()
            .with_quarantine_after(1)
            .with_probation(5.0);
        // Seconds from dispatch to the watchdog deadline of a block: 1 s on
        // unit 0, 2 s on unit 1.
        let deadline = |pu: usize| ft.deadline_for(Some(policy.hints[pu]), 100).expect("armed");
        let (d0, d1) = (deadline(0), deadline(1));
        assert!(d0 < d1);
        let report = run(&mut backend, 2, &mut policy, 300, flaky(1, 1), ft);
        assert_eq!(report.cover, vec![(0, 300)]);
        assert_eq!(report.events.quarantines, 1);
        let restored_at = 0.2 + 5.0;
        assert_eq!(
            backend.wakes,
            vec![
                // Both first attempts in flight: unit 0's deadline is the
                // earlier. Unit 1 then panics at 0.2 s and is quarantined.
                Some(d0),
                // Unit 0's deadline still comes before the probation expiry.
                Some(d0),
                // Unit 0 finished at 0.3 s and the policy holds: only the
                // probation timer is left, and the backend sleeps until it.
                Some(restored_at),
                // Restored, both units run the last two blocks.
                Some(restored_at + d0),
                // Unit 1 finished first; unit 0's deadline remains.
                Some(restored_at + d0),
            ]
        );
    }
}
