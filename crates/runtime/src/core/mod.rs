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
//! passed). One more capacity follows the clock by default: a
//! wall-clock unit accepts one block queued behind the one it runs,
//! because there every dispatch pays a round trip through the driver,
//! while on a virtual clock it pays nothing and a unit takes none
//! ahead. The backend declares that capacity
//! ([`Backend::holds_one_ahead`]), and the cluster tier, whose chunks
//! cross a link before they compute, holds one chunk ahead on its
//! virtual clock.
//!
//! A queued block is in the executor's hands but not yet running: it
//! has no deadline until the attempt ahead of it ends with an outcome,
//! when it becomes the attempt in flight (`promote`) and, on a wall
//! clock, its deadline runs from that attempt's end. A unit lost
//! without an outcome gives it back to the pool with the rest of what
//! it held (`write_off`, `UnitDown`). There is still one attempt in
//! flight, one deadline and one deciding claim word per unit.
//!
//! Who owns what: `handles` is what policies see
//! ([`SchedulerCtx::pus`]); everything else the driver keeps about a
//! unit is one `Unit` record, resolved once per hook and per
//! observation; and a unit's availability changes in three functions
//! only — `take_down`, `bring_back`, `write_off` — which the run loop
//! and the checkpoint restore share (`docs/FAULT_TOLERANCE.md`,
//! "Transitions").
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
pub(crate) use backend::{Backend, ClockKind, Launch, LaunchSpec, Polled};
pub use pool::WorkPool;

use crate::checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointWriter, PuState, WorkloadId, CHECKPOINT_FORMAT_VERSION,
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

/// What a run is configured with besides its backend, units, policy and
/// items: the one value every engine holds and hands to [`drive`]. The
/// defaults are uniform weights, no injected fault, the default
/// response, and no durability.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunConfig {
    /// The *global* per-item cost of the workload (uniform for regular
    /// workloads — cost ≡ item count): converts claimed ranges to cost
    /// units for events, deadlines, and the policy-facing cost
    /// accessors. The pool handed to [`drive`] is built over the same
    /// table. See [`crate::weights`].
    pub(crate) weights: Arc<Weights>,
    /// Deterministic fault injection (see [`crate::fault`]).
    pub(crate) faults: FaultPlan,
    /// The fault-response tunables.
    pub(crate) ft: FaultToleranceConfig,
    /// Write periodic snapshots (plus one on clean shutdown) here. See
    /// [`crate::checkpoint`] and `docs/FAULT_TOLERANCE.md`; defined for
    /// whole runs only, like `resume`.
    pub(crate) checkpoint: Option<CheckpointConfig>,
    /// Restore this snapshot instead of starting fresh: the work pool
    /// resumes on the uncovered items, per-unit driver state is
    /// restored, and the policy is re-seeded via [`Policy::restore`].
    pub(crate) resume: Option<Checkpoint>,
    /// Cluster-tier node roster (one display name per node, in shard
    /// order). Stamped into snapshots as part of their workload
    /// identity so a mid-partition cluster run only resumes under the
    /// same roster. Empty for single-node runs.
    pub(crate) roster: Vec<String>,
}

impl RunConfig {
    /// The configuration of an engine's next run: a copy that takes the
    /// resume snapshot with it, so a snapshot is consumed by one run
    /// and the run after it starts fresh.
    pub(crate) fn for_run(&mut self) -> RunConfig {
        let resume = self.resume.take();
        RunConfig {
            resume,
            ..self.clone()
        }
    }
}

/// Everything a finished drive hands back to its engine: the result
/// (with the report already built on success), plus the trace and the
/// event stream — preserved on errors too, for post-mortems.
#[derive(Debug)]
pub(crate) struct CoreOutcome {
    /// The run's outcome: a full [`RunReport`] or the typed error.
    pub(crate) result: Result<RunReport, RunError>,
    /// Gantt trace of every successful task.
    pub(crate) trace: Trace,
    /// The structured event stream (see [`crate::events`]).
    pub(crate) events: EventSink,
    /// Per-unit permanent-loss flags: `lost[i]` is true when unit `i`
    /// was written off (dead or wedged executor). The host engine skips
    /// joining those workers.
    pub(crate) lost: Vec<bool>,
}

/// Engine-side record of one dispatched attempt: in flight, or queued
/// behind the one that is.
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
    /// Delay before the attempt executes (retry backoff), seconds.
    backoff_s: f64,
    /// Absolute watchdog deadline, when one applies (wall clocks only,
    /// from the moment the attempt runs).
    deadline_at: Option<f64>,
}

/// Everything the driver keeps about one unit besides its policy-facing
/// [`PuHandle`].
#[derive(Debug, Default)]
struct Unit {
    /// Availability lattice (`Active ⇄ Quarantined`, `Lost` absorbing):
    /// a probation restore can never resurrect a unit whose executor is
    /// gone. A unit still waiting for its join is `Active` here and
    /// unavailable in its handle. See [`crate::protocol::UnitGate`].
    gate: UnitGate,
    /// The attempt in flight. Written only by `run` and
    /// `take_inflight`, which keep `busy` and `armed_timers` in step.
    inflight: Option<Pending>,
    /// The block queued behind it (on a backend that holds one ahead),
    /// without a deadline until `promote` makes it the attempt in
    /// flight. `Some` only while `inflight` is.
    queued: Option<Pending>,
    /// Dispatch counter (including retries) — the fault plan's attempt
    /// index.
    attempts: u64,
    /// Drift factor of the previous dispatch (`None` before the first:
    /// nominal); `drift_applied` is emitted only when the factor
    /// changes.
    last_drift: Option<f64>,
    /// Consecutive-failure counter; reset by any success.
    consec_failures: u32,
    /// Policy-provided seconds-per-cost-unit prediction (deadline
    /// hint; seconds per item under uniform weights).
    deadline_hint: Option<f64>,
    /// Observed seconds-per-cost-unit EWMA (deadline fallback).
    rate_ewma: Option<f64>,
    /// Probation expiry while quarantined (wall clocks only). Written
    /// only through `set_probation`.
    quarantined_until: Option<f64>,
}

impl Unit {
    /// Arm (`Some`) or clear (`None`) the probation timer, keeping the
    /// driver's count of armed timers in step.
    fn set_probation(&mut self, until: Option<f64>, armed_timers: &mut usize) {
        *armed_timers -= usize::from(self.quarantined_until.is_some());
        *armed_timers += usize::from(until.is_some());
        self.quarantined_until = until;
    }

    /// Make `pend` the attempt in flight, keeping the driver's counts of
    /// busy units and armed timers in step.
    fn run(&mut self, pend: Pending, busy: &mut usize, armed_timers: &mut usize) {
        debug_assert!(self.inflight.is_none(), "launching onto a busy unit");
        *busy += 1;
        *armed_timers += usize::from(pend.deadline_at.is_some());
        self.inflight = Some(pend);
    }

    /// The watchdog deadline of `pend` if it starts running at `from`:
    /// its backoff plus what `ft` allows for its weight at the unit's
    /// rate. Rates (hinted and observed) are seconds per cost unit, so
    /// the watchdog prices the block by its weight, not its length.
    fn deadline_from(&self, ft: &FaultToleranceConfig, pend: &Pending, from: f64) -> Option<f64> {
        let rate = self.deadline_hint.or(self.rate_ewma);
        ft.deadline_for(rate, pend.cost)
            .map(|d| from + pend.backoff_s + d)
    }

    /// Fold an observed per-cost-unit rate into the EWMA estimate
    /// (per-item under uniform weights).
    fn observe_rate(&mut self, proc_time: f64, cost: u64) {
        if cost == 0 || !(proc_time.is_finite() && proc_time >= 0.0) {
            return;
        }
        let rate = proc_time / cost as f64;
        self.rate_ewma = Some(match self.rate_ewma {
            Some(prev) => 0.5 * prev + 0.5 * rate,
            None => rate,
        });
    }

    /// The timers armed on the unit: the watchdog deadline of its
    /// attempt in flight, and its probation expiry.
    fn timers(&self) -> impl Iterator<Item = f64> {
        let deadline = self.inflight.as_ref().and_then(|p| p.deadline_at);
        [deadline, self.quarantined_until].into_iter().flatten()
    }
}

/// Why a unit enters the active set.
enum Up {
    /// Its probation ended, or the backend restored it.
    Restored,
    /// The completed-task count reached its join threshold.
    Joined { after_tasks: u64 },
}

/// The driver's working state: shared bookkeeping plus the backend.
struct Driver<'b> {
    backend: &'b mut dyn Backend,
    /// What policies see of the units; `available` is written by
    /// `take_down`, `bring_back` and `write_off` only.
    handles: Vec<PuHandle>,
    /// What the driver keeps about them, index for index.
    units: Vec<Unit>,
    /// Attempts in flight: the units whose `inflight` is `Some`.
    busy: usize,
    /// Timers the loop must wake for: watchdog deadlines of in-flight
    /// attempts plus probation expiries. Zero for the whole run under a
    /// virtual clock.
    armed_timers: usize,
    pool: WorkPool,
    /// First item and item count of the range this drive covers.
    start: u64,
    total: u64,
    next_task: u64,
    trace: Trace,
    events: EventSink,
    /// The run's configuration; its `checkpoint` has moved into
    /// `ckpt_writer` and its `resume` snapshot, restored, is gone.
    cfg: RunConfig,
    /// Join schedule from the fault plan, soonest trigger last: units
    /// in this list start *latent* (never probed, never assigned) and
    /// are admitted, off the back, when the global completed-task count
    /// reaches their threshold. Keying admission to `tasks_done` —
    /// owned here, not by the backends — makes both engines admit at
    /// the same point in the task sequence.
    joins: Vec<(usize, u64)>,
    /// Whether the fault plan has any drift schedule at all (skips the
    /// per-launch schedule evaluation on the common drift-free path).
    has_drift: bool,
    /// Units that went down since the policy was last told: the loop
    /// delivers `on_device_lost` once the hook in progress (a loss can
    /// be detected inside the policy's own `assign`) has returned.
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
        self.cfg.weights.cost(self.start, self.total)
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
        self.units.get(pu.0).is_some_and(|u| u.inflight.is_some())
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
        // A unit outside the roster is no unit: the event is kept, as
        // a global one.
        let pu = pu.filter(|&p| p < self.handles.len());
        self.events.record(now, pu, kind);
    }

    fn set_deadline_hint(&mut self, pu: PuId, seconds_per_cost_unit: f64) {
        if let Some(unit) = self.units.get_mut(pu.0) {
            let usable = seconds_per_cost_unit.is_finite() && seconds_per_cost_unit > 0.0;
            unit.deadline_hint = usable.then_some(seconds_per_cost_unit);
        }
    }
}

impl<'b> Driver<'b> {
    /// The driver of one run, before its policy starts: the resume
    /// snapshot (if any) validated and restored, latent units held out.
    /// `Err` is why the snapshot — or asking for durability on a
    /// sub-range — was rejected, before any state was built: a rejected
    /// snapshot must fail the run loudly, never silently start a fresh
    /// one over the remains of another.
    fn new(
        backend: &'b mut dyn Backend,
        mut handles: Vec<PuHandle>,
        policy: &mut dyn Policy,
        mut pool: WorkPool,
        mut cfg: RunConfig,
    ) -> Result<Driver<'b>, String> {
        let n = handles.len();
        let items = pool.items();
        let total = items.end.saturating_sub(items.start);
        // A snapshot's cover and identity describe `0..total`; one
        // taken of (or restored into) a sub-range would be unreadable.
        if items.start != 0 && (cfg.checkpoint.is_some() || cfg.resume.is_some()) {
            return Err("checkpoint and resume need a whole run, not a sub-range".into());
        }
        let resume = cfg.resume.take();
        if let Some(ckpt) = &resume {
            let workload = WorkloadId {
                policy: policy.name().to_string(),
                total_items: total,
                n_pus: n,
                total_cost: cfg.weights.total_cost(total),
                nodes: cfg.roster.clone(),
            };
            ckpt.validate()
                .and_then(|()| ckpt.matches(&workload))
                .map_err(|e| e.to_string())?;
            // The uncovered holes replace whatever the engine handed
            // over; they split at shard borders lazily, inside
            // `take_within`.
            pool = WorkPool::resume_with_weights(total, &ckpt.completed, Arc::clone(&cfg.weights))?;
        }

        // Units with a scheduled mid-run join start *latent*: invisible
        // to the policy's probing and assignment until the global
        // completed-task count reaches their threshold
        // (`admit_due_joins`). Out-of-range targets (a plan built for a
        // larger cluster) are ignored.
        let mut joins = cfg.faults.joins();
        joins.reverse();
        for &(pu, _) in &joins {
            if let Some(handle) = handles.get_mut(pu) {
                handle.available = false;
            }
        }
        let mut d = Driver {
            backend,
            handles,
            units: (0..n).map(|_| Unit::default()).collect(),
            busy: 0,
            armed_timers: 0,
            pool,
            start: items.start,
            total,
            next_task: 0,
            trace: Trace::new(n),
            events: EventSink::default(),
            has_drift: cfg.faults.has_drift(),
            joins,
            pending_lost: Vec::new(),
            completed: Vec::new(),
            tasks_done: 0,
            ckpt_writer: cfg.checkpoint.take().map(CheckpointWriter::new),
            carried: EventCounters::default(),
            cfg,
        };
        let started = EventKind::RunStart {
            policy: policy.name().to_string(),
            total_items: total,
            n_pus: n,
        };
        d.events.record(0.0, None, started);
        if let Some(ckpt) = &resume {
            d.restore(policy, ckpt);
        }
        Ok(d)
    }

    /// Restore the driver's bookkeeping from a validated snapshot: the
    /// task-id sequence, the completed cover, lifetime counters, and
    /// per-unit fault state — the transitions replayed without events
    /// or callbacks, since the policy has not started. Restoring
    /// `attempts` keeps injected fault plans deterministic across the
    /// process boundary.
    fn restore(&mut self, policy: &mut dyn Policy, ckpt: &Checkpoint) {
        self.next_task = ckpt.next_task;
        self.tasks_done = ckpt.tasks_done;
        self.completed = ckpt.completed.clone();
        self.carried = ckpt.counters.clone();
        for (pu, saved) in ckpt.units.iter().enumerate() {
            let Some(unit) = self.units.get_mut(pu) else {
                break;
            };
            unit.attempts = saved.dispatches;
            unit.consec_failures = saved.consecutive_failures;
            unit.rate_ewma = saved.rate_ewma;
            if saved.lost {
                // The executor died with the previous process.
                let _ = self.write_off(pu);
            } else if saved.quarantined && self.handles.get(pu).is_some_and(|h| h.available) {
                let _ = self.take_down(pu, true);
            }
        }
        if let Some(w) = self.ckpt_writer.as_mut() {
            w.continue_from(ckpt.seq + 1, ckpt.tasks_done);
        }
        // Re-seed the policy with its persisted state (for PLB-HeC, the
        // accumulated profiles and fitted models — re-fit + re-solve
        // instead of re-probing). A policy that declines restores
        // simply starts fresh on the remaining items.
        if let Some(state) = &ckpt.policy_state {
            let _ = policy.restore(state);
        }
        let resumed = EventKind::RunResumed {
            seq: ckpt.seq,
            completed_items: ckpt.completed_items(),
        };
        self.events.record(self.backend.now(), None, resumed);
    }

    /// Clear and return the attempt in flight on `pu`, if any, with the
    /// unit it ran on. A block queued behind it stays queued.
    fn take_inflight(&mut self, pu: usize) -> Option<(&mut Unit, Pending)> {
        let unit = self.units.get_mut(pu)?;
        let pend = unit.inflight.take()?;
        self.busy -= 1;
        self.armed_timers -= usize::from(pend.deadline_at.is_some());
        Some((unit, pend))
    }

    /// Take the attempt in flight on `pu` if it is still `task`. An
    /// observation of any other task is stale — it comes from a unit
    /// already written off, whose block was re-dispatched elsewhere —
    /// and yields `None`, as does one naming a unit outside the roster.
    fn take_if_current(&mut self, pu: usize, task: TaskId) -> Option<(&mut Unit, Pending)> {
        let current = self.units.get(pu)?.inflight.as_ref()?.task == task;
        current.then(|| self.take_inflight(pu)).flatten()
    }

    /// The attempt in flight on `pu` ended with an outcome at `ended`,
    /// and its executor has already taken the block queued behind it:
    /// that block is now the attempt in flight, and on a wall clock its
    /// deadline runs from `ended`.
    fn promote(&mut self, pu: usize, ended: f64) {
        let wall = self.backend.clock_kind() == ClockKind::Wall;
        let Some(unit) = self.units.get_mut(pu) else {
            return;
        };
        let Some(mut next) = unit.queued.take() else {
            return;
        };
        if wall {
            next.deadline_at = unit.deadline_from(&self.cfg.ft, &next, ended);
        }
        unit.run(next, &mut self.busy, &mut self.armed_timers);
    }

    /// Give back everything `pu` holds — the attempt in flight, then the
    /// block queued behind it — each with one `task_failed`: what a unit
    /// lost without an outcome does to its blocks. The policy hears of
    /// the unit, not of the tasks.
    fn abandon_held(&mut self, pu: usize) {
        let running = self.take_inflight(pu).map(|(_, pend)| pend);
        let queued = self.units.get_mut(pu).and_then(|u| u.queued.take());
        for pend in running.into_iter().chain(queued) {
            let _ = self.abandon(pu, pend, FailureReason::WorkerLost);
        }
    }

    /// `(busy, armed_timers, no block queued on an idle unit)` counted
    /// from scratch: what the two counters, and `true`, must be at every
    /// turn of the loop.
    fn recount(&self) -> (usize, usize, bool) {
        let busy = self.units.iter().filter(|u| u.inflight.is_some()).count();
        let timers = self.units.iter().flat_map(Unit::timers).count();
        let behind = (self.units.iter()).all(|u| u.queued.is_none() || u.inflight.is_some());
        (busy, timers, behind)
    }

    /// The earliest armed watchdog deadline or probation expiry. Looks
    /// at the roster only when a timer is armed.
    fn earliest_timer(&self) -> Option<f64> {
        if self.armed_timers == 0 {
            return None;
        }
        let earliest = self.units.iter().flat_map(Unit::timers).reduce(f64::min);
        earliest.filter(|t| t.is_finite())
    }

    /// The body of both `assign` flavours: if `pu` has room, claim a
    /// range through `claim`, submit it as a new task and launch it;
    /// returns the claimed cost (0 when nothing was assigned). A unit
    /// has room while nothing runs on it; on a backend that holds one
    /// ahead also for one block queued behind the one that does.
    fn claim_and_launch(
        &mut self,
        pu: PuId,
        budget_cost: u64,
        claim: impl FnOnce(&mut WorkPool) -> Option<(u64, u64)>,
    ) -> u64 {
        if budget_cost == 0 || self.pool.remaining() == 0 {
            return 0;
        }
        let ahead = self.backend.holds_one_ahead();
        let room = |u: &Unit| u.inflight.is_none() || (ahead && u.queued.is_none());
        let unit_free = self.handles.get(pu.0).is_some_and(|h| h.available)
            && self.units.get(pu.0).is_some_and(room)
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
        let cost = self.cfg.weights.cost(offset, got);
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
        let first = Pending {
            task,
            offset,
            items: got,
            cost,
            attempt: 0,
            backoff_s: 0.0,
            deadline_at: None,
        };
        // An executor that died out from under us took nothing: the
        // loop delivers the policy's notification once this hook ends.
        if self.launch(pu.0, first) {
            cost
        } else {
            0
        }
    }

    /// Launch the attempt `pend` (its deadline not yet set): resolve
    /// the fault plan, hand the spec to the backend and record it — as
    /// the attempt in flight, with its watchdog deadline armed (wall
    /// clocks), or queued behind the one running. Returns `false` when
    /// the unit's executor is gone: the block is back in the pool and
    /// the unit written off.
    fn launch(&mut self, pu: usize, mut pend: Pending) -> bool {
        let Some(unit) = self.units.get_mut(pu) else {
            return false;
        };
        let fault_attempt = unit.attempts;
        unit.attempts += 1;
        let inject = self.cfg.faults.action(pu, fault_attempt);
        let drift = if self.has_drift {
            self.cfg.faults.drift_factor(pu, fault_attempt)
        } else {
            1.0
        };
        let now = self.backend.now();
        if drift != unit.last_drift.unwrap_or(1.0) {
            unit.last_drift = Some(drift);
            self.events
                .record(now, Some(pu), EventKind::DriftApplied { factor: drift });
        }
        // A block behind a running one gets its deadline when promoted.
        let behind = unit.inflight.is_some();
        if self.backend.clock_kind() == ClockKind::Wall && !behind {
            pend.deadline_at = unit.deadline_from(&self.cfg.ft, &pend, now);
        }
        match self.backend.launch(&LaunchSpec {
            pu,
            task: pend.task,
            offset: pend.offset,
            items: pend.items,
            attempt: pend.attempt,
            backoff_s: pend.backoff_s,
            inject,
            drift,
        }) {
            Launch::Started { start } => {
                // Virtual clocks know the start time at dispatch; it is
                // recorded for first attempts only (retries of the same
                // block keep the original submit/start pair).
                if let (0, Some(s)) = (pend.attempt, start) {
                    let kind = EventKind::TaskStart {
                        task: pend.task.0,
                        items: pend.items,
                    };
                    self.events.record(s, Some(pu), kind);
                }
                if behind {
                    debug_assert!(unit.queued.is_none(), "queueing onto a full unit");
                    unit.queued = Some(pend);
                } else {
                    unit.run(pend, &mut self.busy, &mut self.armed_timers);
                }
                true
            }
            Launch::UnitGone => {
                self.pool.reclaim(pend.offset, pend.items);
                if self.write_off(pu) {
                    self.announce_down(pu);
                }
                false
            }
        }
    }

    /// Take `pu` out of the active set, restorably: its handle goes
    /// unavailable and the gate records a quarantine, so a later
    /// restore succeeds (a no-op on a unit that is already down). When
    /// the core itself decided it (`by_core`: the failure bar, or a
    /// quarantine replayed from a snapshot) the backend mirrors it and,
    /// under a wall clock with a probation window, the timer that
    /// brings the unit back is armed; a down the backend reported is
    /// ended by the backend. `false` when `pu` is outside the roster.
    fn take_down(&mut self, pu: usize, by_core: bool) -> bool {
        let (Some(handle), Some(unit)) = (self.handles.get_mut(pu), self.units.get_mut(pu)) else {
            return false;
        };
        handle.available = false;
        let gated = unit.gate.try_quarantine();
        if by_core {
            debug_assert!(gated, "quarantining a non-active unit");
            self.backend.on_unit_quarantined(pu);
            if self.backend.clock_kind() == ClockKind::Wall {
                let until = self.cfg.ft.probation_s.map(|p| self.backend.now() + p);
                unit.set_probation(until, &mut self.armed_timers);
            }
        }
        true
    }

    /// Bring `pu` into the active set — back, after a probation window
    /// or a backend-external restore, or for the first time, when its
    /// join is due — with a clean failure run, and tell the policy. The
    /// gate arbitrates against loss: a written-off unit stays gone (no
    /// event, no callback), because its executor is. A restore of a
    /// unit that never failed still fires, matching the perturbation's
    /// contract; a join admits only a latent unit — active at the gate,
    /// unavailable in its handle — so one that is already up, or
    /// quarantined and serving its probation, stays as it is.
    fn bring_back(&mut self, policy: &mut dyn Policy, pu: usize, why: Up) {
        let (Some(handle), Some(unit)) = (self.handles.get_mut(pu), self.units.get_mut(pu)) else {
            return;
        };
        let latent = unit.gate.is_active() && !handle.available;
        if unit.gate.is_lost() || (matches!(why, Up::Joined { .. }) && !latent) {
            return;
        }
        let _ = unit.gate.try_restore();
        unit.set_probation(None, &mut self.armed_timers);
        unit.consec_failures = 0;
        handle.available = true;
        let now = self.backend.now();
        match why {
            Up::Restored => {
                self.events.record(now, Some(pu), EventKind::DeviceRestored);
                policy.on_device_restored(self, PuId(pu));
            }
            // The policy's `on_device_joined` flow decides — via its
            // acquisition gate — whether folding the newcomer in pays.
            Up::Joined { after_tasks } => {
                self.backend.on_unit_joined(pu);
                self.events
                    .record(now, Some(pu), EventKind::PuJoined { after_tasks });
                policy.on_device_joined(self, PuId(pu));
            }
        }
        self.notify_lost(policy);
    }

    /// Permanently remove a unit whose executor is gone or wedged. The
    /// gate's swap makes loss idempotent and absorbing: exactly one
    /// caller performs the teardown (and gets `true`), and a pending
    /// probation restore can no longer succeed. What the unit still
    /// holds goes back to the pool; the backend revokes a queued block,
    /// and if the executor started it anyway its report is stale.
    fn write_off(&mut self, pu: usize) -> bool {
        let (Some(handle), Some(unit)) = (self.handles.get_mut(pu), self.units.get_mut(pu)) else {
            return false;
        };
        if !unit.gate.mark_lost() {
            return false;
        }
        handle.available = false;
        unit.set_probation(None, &mut self.armed_timers);
        self.abandon_held(pu);
        self.backend.forget_unit(pu);
        true
    }

    /// Say that `pu` left the active set: `device_failed` now, the
    /// policy's `on_device_lost` at the next `notify_lost` — never a
    /// direct call, since this can run inside a policy's own `assign`.
    fn announce_down(&mut self, pu: usize) {
        let now = self.backend.now();
        self.events.record(now, Some(pu), EventKind::DeviceFailed);
        self.pending_lost.push(PuId(pu));
    }

    /// Deliver the queued `on_device_lost` notifications.
    fn notify_lost(&mut self, policy: &mut dyn Policy) {
        while let Some(pu) = self.pending_lost.pop() {
            policy.on_device_lost(self, pu);
        }
    }

    /// Record one failed attempt in the event stream.
    fn note_failed(&mut self, pu: usize, pend: &Pending, reason: FailureReason) {
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
    }

    /// Give an attempt up: record `task_failed`, return the block's
    /// items to the pool for the other units, and describe the failure
    /// for [`Policy::on_task_failed`].
    fn abandon(&mut self, pu: usize, pend: Pending, reason: FailureReason) -> TaskFailure {
        self.note_failed(pu, &pend, reason);
        self.pool.reclaim(pend.offset, pend.items);
        TaskFailure {
            task_id: pend.task,
            pu: PuId(pu),
            items: pend.items,
            cost: pend.cost,
            attempt: pend.attempt,
            at: self.backend.now(),
            reason,
        }
    }

    /// Admit every latent unit whose join threshold the global
    /// completed-task count has reached. Called once at start
    /// (thresholds of 0, resumed runs) and after every completion;
    /// joins never fire between completions, so both engines admit at
    /// the same point in the task sequence. A unit written off while
    /// latent (it cannot fail a task it never ran, but an external
    /// perturbation may have killed it) stays gone.
    fn admit_due_joins(&mut self, policy: &mut dyn Policy) {
        let done = self.tasks_done;
        while let Some((pu, after_tasks)) = self.joins.pop_if(|(_, after)| done >= *after) {
            self.bring_back(policy, pu, Up::Joined { after_tasks });
        }
    }

    /// Sort the completed ranges and merge adjacent ones in place. The
    /// ranges are disjoint by construction (every item completes under
    /// exactly one attempt), so adjacency is the only merge case.
    fn coalesce_completed(&mut self) {
        self.completed.sort_unstable();
        self.completed.dedup_by(|next, kept| {
            let adjacent = kept.0 + kept.1 == next.0;
            if adjacent {
                kept.1 += next.1;
            }
            adjacent
        });
    }

    /// Snapshot the driver state (see [`crate::checkpoint`]). The
    /// sequence number is stamped by the writer.
    fn build_checkpoint(&mut self, policy: &dyn Policy) -> Checkpoint {
        self.coalesce_completed();
        let mut counters = self.events.counters();
        counters.merge(&self.carried);
        // The gate tells a quarantined unit (neither active nor lost)
        // from one that is merely waiting for its join.
        let state = |(handle, unit): (&PuHandle, &Unit)| PuState {
            name: handle.name.clone(),
            dispatches: unit.attempts,
            consecutive_failures: unit.consec_failures,
            rate_ewma: unit.rate_ewma,
            quarantined: !unit.gate.is_active() && !unit.gate.is_lost(),
            lost: unit.gate.is_lost(),
        };
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            workload: WorkloadId {
                policy: policy.name().to_string(),
                total_items: self.total,
                n_pus: self.handles.len(),
                total_cost: self.total_cost(),
                nodes: self.cfg.roster.clone(),
            },
            seq: 0,
            at: self.backend.now(),
            tasks_done: self.tasks_done,
            next_task: self.next_task,
            completed: self.completed.clone(),
            units: self.handles.iter().zip(&self.units).map(state).collect(),
            counters,
            policy_state: policy.snapshot(),
        }
    }

    /// Write a snapshot when one is due (or `force`d, on clean
    /// shutdown). A failed write is a run error: silently continuing
    /// without the durability the caller asked for would let a later
    /// crash lose work the caller believed was persisted.
    fn maybe_checkpoint(&mut self, policy: &dyn Policy, force: bool) -> Result<(), RunError> {
        let due = |w: &CheckpointWriter| force || w.due(self.tasks_done);
        if !self.ckpt_writer.as_ref().is_some_and(due) {
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

    /// After a unit went down: when every unit is gone, nothing is in
    /// flight, and nothing (probation, pending external restore) can
    /// bring one back, the run is dead — stall immediately rather than
    /// replaying a drained queue.
    fn all_dead_stall(&mut self) -> Result<(), RunError> {
        if self.pool.remaining() == 0
            || self.handles.iter().any(|h| h.available)
            || self.any_busy()
            // With nothing in flight, every armed timer is a probation.
            || self.armed_timers > 0
            || self.backend.external_restore_possible()
        {
            return Ok(());
        }
        Err(self.stall())
    }

    /// The fault-response state machine for one failed attempt:
    /// quarantine after `quarantine_after` consecutive failures, else
    /// bounded in-place retry with exponential backoff, else re-credit
    /// the block to the pool. A block queued behind the failed one is
    /// promoted first; a retry queues behind it, and a quarantine leaves
    /// it running. `Err` when the failure killed the run (every unit
    /// gone).
    fn handle_failure(
        &mut self,
        policy: &mut dyn Policy,
        pu: usize,
        task: TaskId,
        reason: FailureReason,
    ) -> Result<(), RunError> {
        let now = self.backend.now();
        let Some((unit, pend)) = self.take_if_current(pu, task) else {
            return Ok(());
        };
        unit.consec_failures += 1;
        let failures = unit.consec_failures;
        // A block promoted past a quarantine that now fails too: the
        // unit is down already, so the block just goes back.
        let up = unit.gate.is_active();
        self.promote(pu, now);
        let quarantine = up && failures >= self.cfg.ft.quarantine_after;
        if up && !quarantine && pend.attempt < self.cfg.ft.max_retries {
            // Bounded in-place retry with exponential backoff; the
            // fault plan sees a fresh per-unit attempt index.
            self.note_failed(pu, &pend, reason);
            let attempt = pend.attempt + 1;
            let retry = Pending {
                attempt,
                backoff_s: self.cfg.ft.backoff_for(attempt),
                deadline_at: None,
                ..pend
            };
            self.events.record(
                now,
                Some(pu),
                EventKind::TaskRetry {
                    task: retry.task.0,
                    items: retry.items,
                    attempt: retry.attempt,
                    backoff_s: retry.backoff_s,
                },
            );
            if !self.launch(pu, retry) {
                self.notify_lost(policy);
            }
            return Ok(());
        }
        // The block is given up — the unit hit the quarantine bar, or
        // ran out of retries short of it — and its items return to the
        // pool for the other units.
        let failure = self.abandon(pu, pend, reason);
        if quarantine {
            // The unit leaves the active set and the policy re-solves
            // the split over the survivors. Under a wall clock with a
            // probation window the unit can come back; virtual clocks
            // model restores as external perturbations instead.
            let _ = self.take_down(pu, true);
            let now = self.backend.now();
            self.events
                .record(now, Some(pu), EventKind::PuQuarantined { failures });
            self.announce_down(pu);
            self.notify_lost(policy);
        }
        policy.on_task_failed(self, &failure);
        self.notify_lost(policy);
        if quarantine {
            return self.all_dead_stall();
        }
        Ok(())
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
    /// the active set and the policy can fold it back in.
    fn end_elapsed_probations(&mut self, policy: &mut dyn Policy) {
        let now = self.backend.now();
        for pu in 0..self.units.len() {
            let elapsed = |u: &Unit| u.quarantined_until.is_some_and(|t| now >= t);
            if self.units.get(pu).is_some_and(elapsed) {
                self.bring_back(policy, pu, Up::Restored);
            }
        }
    }

    /// The unified driver loop.
    fn run_loop(&mut self, policy: &mut dyn Policy) -> Result<(), RunError> {
        loop {
            debug_assert_eq!(
                (self.busy, self.armed_timers, true),
                self.recount(),
                "busy / armed-timer counts drifted from the units' inflight / quarantined_until, \
                 or a block is queued on an idle unit"
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
            let polled = self.backend.poll(wake, &mut self.events);
            self.observe(policy, polled)?;
        }
    }

    /// Act on one observation of the backend.
    fn observe(&mut self, policy: &mut dyn Policy, polled: Polled) -> Result<(), RunError> {
        match polled {
            Polled::Completed {
                pu,
                task,
                start,
                xfer_s,
                proc_s,
                finish,
            } => {
                // Stale completions (from units already written off,
                // whose wedged worker eventually finished) are ignored:
                // the block was re-dispatched elsewhere.
                let Some((unit, pend)) = self.take_if_current(pu, task) else {
                    return Ok(());
                };
                unit.consec_failures = 0;
                unit.observe_rate(proc_s, pend.cost);
                self.promote(pu, finish);
                self.completed.push((pend.offset, pend.items));
                self.tasks_done += 1;
                self.trace
                    .record_task(PuId(pu), task, pend.items, start, xfer_s, proc_s);
                if self.backend.clock_kind() == ClockKind::Wall {
                    // Wall clocks learn the start time only now: record
                    // it retroactively (virtual clocks already did at
                    // dispatch).
                    let kind = EventKind::TaskStart {
                        task: task.0,
                        items: pend.items,
                    };
                    self.events.record(start, Some(pu), kind);
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
                self.handle_failure(policy, pu, task, reason)?;
            }
            Polled::UnitDown { pu } => {
                // Backend-external loss (a simulated machine failure):
                // the unit's blocks are cancelled and their items are
                // re-credited; the policy hears of the unit, not of the
                // tasks.
                if self.take_down(pu, false) {
                    self.abandon_held(pu);
                    self.announce_down(pu);
                    self.notify_lost(policy);
                    self.all_dead_stall()?;
                }
            }
            Polled::UnitRestored { pu } => self.bring_back(policy, pu, Up::Restored),
            Polled::Nothing => {}
            Polled::Timeout => {
                // Declare units with blown deadlines lost. Their
                // executors may be wedged mid-kernel; the lost block
                // re-runs on a survivor (idempotent codelets), and so
                // does a block queued behind it (`write_off`). The
                // watchdog must win the attempt's claim word first: if
                // the real outcome beat the deadline and is already
                // queued, the claim fails and the unit is left alone.
                let now = self.backend.now();
                for pu in 0..self.units.len() {
                    let deadline = self
                        .units
                        .get(pu)
                        .and_then(|u| u.inflight.as_ref()?.deadline_at);
                    let blown =
                        deadline.is_some_and(|d| now >= d) && self.backend.try_claim_timeout(pu);
                    if !blown {
                        continue;
                    }
                    let Some((_, pend)) = self.take_inflight(pu) else {
                        continue;
                    };
                    let failure = self.abandon(pu, pend, FailureReason::DeadlineExceeded);
                    if self.write_off(pu) {
                        self.announce_down(pu);
                    }
                    self.notify_lost(policy);
                    policy.on_task_failed(self, &failure);
                    self.notify_lost(policy);
                }
            }
            // The backend can never produce another event while work is
            // outstanding: a policy bug (or every device failed).
            Polled::Drained => return Err(self.stall()),
            Polled::Infrastructure { detail } => return Err(RunError::Infrastructure { detail }),
        }
        Ok(())
    }
}

/// Run the items of `pool` under `policy` on `backend`: the single
/// driver every engine delegates to. `pool` holds `0..total_items` for
/// a whole run — cut at the home-shard borders by the cluster tier —
/// and one node's chunk, in global coordinates, for a nested
/// cluster-tier run; `handles` is the backend's unit roster (with
/// initial availability); `cfg` is everything else ([`RunConfig`]).
pub(crate) fn drive(
    backend: &mut dyn Backend,
    handles: Vec<PuHandle>,
    policy: &mut dyn Policy,
    pool: WorkPool,
    cfg: RunConfig,
) -> CoreOutcome {
    let n = handles.len();
    let mut d = match Driver::new(backend, handles, policy, pool, cfg) {
        Ok(d) => d,
        Err(detail) => {
            return CoreOutcome {
                result: Err(RunError::Checkpoint { detail }),
                trace: Trace::new(n),
                events: EventSink::default(),
                lost: vec![false; n],
            }
        }
    };
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
                total_items: d.total,
            },
        );
        // The loop is done with the handles: their names move into the
        // report.
        let names = std::mem::take(&mut d.handles)
            .into_iter()
            .map(|h| h.name)
            .collect();
        let mut report =
            RunReport::from_trace(policy.name(), &d.trace, names, policy.block_distribution());
        for (i, pu) in report.pus.iter_mut().enumerate() {
            pu.bytes_in = d.backend.bytes_into(i);
        }
        report.events = d.events.counters();
        // Lifetime totals: fold in the counters carried over from the
        // resumed snapshot.
        report.events.merge(&d.carried);
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
        lost: d.units.iter().map(|u| u.gate.is_lost()).collect(),
    }
}

/// The driver against a scripted backend: the wake contract (what
/// `wake` the core hands [`Backend::poll`], and so which timers it
/// believes are armed) and cross-commit goldens for the paths no
/// simulated run reaches — watchdog deadlines, probation timers,
/// executors that go away, resume of a quarantined and a lost unit —
/// then every transition of a unit, state by cause. The loop's own
/// `debug_assert!` recounts `busy` / `armed_timers` at every turn of
/// these runs, and the transition table after every row.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultAction, FaultKind};
    use crate::task::{FailureReason, TaskFailure, TaskInfo};
    use plb_hetsim::PuKind;
    use std::collections::VecDeque;

    /// What the mock's queue holds.
    enum Ev {
        /// The attempt of `task` on `pu`, started at `start`, ends at
        /// `at`; `doomed` attempts end in a panic.
        Done {
            at: f64,
            pu: usize,
            task: TaskId,
            start: f64,
            doomed: bool,
        },
        /// The core's wake time arrived with nothing else to report.
        Tick,
        /// A backend-external `UnitDown` / `UnitRestored` surfaces at `at`.
        External { at: f64, polled: Polled },
    }

    /// A backend of either clock kind whose time moves only in `poll`: an
    /// attempt on unit `i` takes `task_s[i]` seconds (one queued behind
    /// another starts when that one ends), and a poll whose wake time
    /// comes before the next outcome sleeps until then.
    struct MockBackend {
        clock: ClockKind,
        /// Whether a unit holds one block queued behind the one it runs
        /// (by default, on a wall clock only).
        ahead: bool,
        task_s: Vec<f64>,
        queue: EventQueue<Ev>,
        /// The attempts each unit still owes an outcome for, oldest
        /// first: the front leaves when its outcome surfaces or the
        /// watchdog claims it, all of them when the unit is forgotten. A
        /// `Done` of any other attempt is stale.
        owed: Vec<VecDeque<TaskId>>,
        /// When the last attempt launched on each unit ends.
        free_at: Vec<f64>,
        /// Launches each unit's executor still accepts; at 0 it is gone.
        launches_left: Vec<u64>,
        /// The `wake` of every poll.
        wakes: Vec<Option<f64>>,
        /// The per-unit hooks the core called, in order.
        hooks: Vec<String>,
    }

    impl MockBackend {
        fn new(clock: ClockKind, task_s: &[f64]) -> MockBackend {
            MockBackend {
                clock,
                ahead: clock == ClockKind::Wall,
                task_s: task_s.to_vec(),
                queue: EventQueue::new(),
                owed: vec![VecDeque::new(); task_s.len()],
                free_at: vec![0.0; task_s.len()],
                launches_left: vec![u64::MAX; task_s.len()],
                wakes: Vec::new(),
                hooks: Vec::new(),
            }
        }

        /// A unit holds one block ahead whatever the clock, as the
        /// cluster tier's virtual one does.
        fn one_ahead(mut self) -> MockBackend {
            self.ahead = true;
            self
        }

        /// The executor of `pu` goes away after `launches` launches.
        fn executor_lasts(mut self, pu: usize, launches: u64) -> MockBackend {
            self.launches_left[pu] = launches;
            self
        }

        /// `polled` surfaces at time `at`.
        fn external(mut self, at: f64, polled: Polled) -> MockBackend {
            self.queue.push(at, Ev::External { at, polled });
            self
        }

        /// When `ev` surfaces as an observation, if it still will.
        fn live(&self, ev: &Ev) -> Option<f64> {
            match ev {
                Ev::Done { at, pu, task, .. } => self.owed[*pu].contains(task).then_some(*at),
                Ev::External { at, .. } => Some(*at),
                Ev::Tick => None,
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

        fn holds_one_ahead(&self) -> bool {
            self.ahead
        }

        fn launch(&mut self, spec: &LaunchSpec) -> Launch {
            if self.launches_left[spec.pu] == 0 {
                return Launch::UnitGone;
            }
            self.launches_left[spec.pu] -= 1;
            let start = if self.owed[spec.pu].is_empty() {
                self.queue.start_of(spec)
            } else {
                self.free_at[spec.pu] + spec.backoff_s
            };
            let at = start + self.task_s[spec.pu];
            self.free_at[spec.pu] = at;
            self.queue.push(
                at,
                Ev::Done {
                    at,
                    pu: spec.pu,
                    task: spec.task,
                    start,
                    doomed: matches!(spec.inject, Some(FaultAction::Panic)),
                },
            );
            self.owed[spec.pu].push_back(spec.task);
            Launch::Started {
                start: (self.clock == ClockKind::Virtual).then_some(start),
            }
        }

        fn poll(&mut self, wake: Option<f64>, _events: &mut EventSink) -> Polled {
            self.wakes.push(wake);
            let mut wake = wake;
            loop {
                let next = self
                    .queue
                    .pending()
                    .filter_map(|e| self.live(e))
                    .fold(f64::INFINITY, f64::min);
                match wake.take() {
                    Some(w) if w < next => self.queue.push(w.max(self.now()), Ev::Tick),
                    None if next.is_infinite() => return Polled::Drained,
                    _ => {}
                }
                match self.queue.pop() {
                    Some(Ev::Done {
                        pu,
                        task,
                        start,
                        doomed,
                        ..
                    }) => {
                        if self.owed[pu].front() != Some(&task) {
                            continue;
                        }
                        self.owed[pu].pop_front();
                        if doomed {
                            return Polled::AttemptFailed {
                                pu,
                                task,
                                reason: FailureReason::Panicked,
                            };
                        }
                        return Polled::Completed {
                            pu,
                            task,
                            start,
                            xfer_s: 0.0,
                            proc_s: self.now() - start,
                            finish: self.now(),
                        };
                    }
                    Some(Ev::External { polled, .. }) => return polled,
                    Some(Ev::Tick) => return Polled::Timeout,
                    None => return Polled::Drained,
                }
            }
        }

        fn try_claim_timeout(&mut self, pu: usize) -> bool {
            self.owed[pu].pop_front().is_some()
        }

        fn on_unit_quarantined(&mut self, pu: usize) {
            self.hooks.push(format!("quarantined {pu}"));
        }

        fn on_unit_joined(&mut self, pu: usize) {
            self.hooks.push(format!("joined {pu}"));
        }

        fn forget_unit(&mut self, pu: usize) {
            self.hooks.push(format!("forgot {pu}"));
            self.launches_left[pu] = 0;
            self.owed[pu].clear();
        }

        fn idle_progress_possible(&self) -> bool {
            self.queue.pending().any(|e| self.live(e).is_some())
        }

        fn external_restore_possible(&self) -> bool {
            self.queue.pending().any(|e| {
                matches!(
                    e,
                    Ev::External {
                        polled: Polled::UnitRestored { .. },
                        ..
                    }
                )
            })
        }
    }

    /// Hands a block to every free unit whenever anything happens — unless
    /// `hold`, in which case only the start, a restore and a join assign,
    /// so a run can sit idle on a probation timer. Notes every callback.
    struct Pump {
        block: u64,
        /// Seconds per cost unit hinted for unit `i` (the watchdog's rate).
        hints: Vec<f64>,
        hold: bool,
        calls: Vec<String>,
    }

    impl Pump {
        fn new(block: u64, hints: &[f64]) -> Pump {
            Pump {
                block,
                hints: hints.to_vec(),
                hold: false,
                calls: Vec::new(),
            }
        }

        fn holding(mut self) -> Pump {
            self.hold = true;
            self
        }

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
            self.calls.push("start>".into());
            for (i, &h) in self.hints.iter().enumerate() {
                ctx.set_deadline_hint(PuId(i), h);
            }
            self.pump(ctx);
            self.calls.push("<start".into());
        }
        fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
            self.calls.push(format!("finished {}", done.pu.0));
            if !self.hold {
                self.pump(ctx);
            }
        }
        fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, failure: &TaskFailure) {
            self.calls
                .push(format!("failed {} {}", failure.pu.0, failure.reason.name()));
            if !self.hold {
                self.pump(ctx);
            }
        }
        fn on_device_lost(&mut self, _ctx: &mut dyn SchedulerCtx, pu: PuId) {
            self.calls.push(format!("lost {}", pu.0));
        }
        fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
            self.calls.push(format!("restored {}", pu.0));
            self.pump(ctx);
        }
        fn on_device_joined(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
            self.calls.push(format!("joined {}", pu.0));
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

    fn join(pu: usize, after_tasks: u64) -> FaultPlan {
        FaultPlan::new(vec![Fault {
            pu,
            kind: FaultKind::Join { after_tasks },
        }])
    }

    /// One whole drive of `0..total` over the mock's units.
    fn run_outcome(
        backend: &mut MockBackend,
        policy: &mut Pump,
        total: u64,
        faults: FaultPlan,
        ft: FaultToleranceConfig,
        resume: Option<Checkpoint>,
    ) -> CoreOutcome {
        let n = backend.task_s.len();
        let cfg = RunConfig {
            faults,
            ft,
            resume,
            ..Default::default()
        };
        drive(backend, handles(n), policy, WorkPool::new(total), cfg)
    }

    fn run(
        backend: &mut MockBackend,
        policy: &mut Pump,
        total: u64,
        faults: FaultPlan,
        ft: FaultToleranceConfig,
    ) -> RunReport {
        run_outcome(backend, policy, total, faults, ft, None)
            .result
            .expect("run completes")
    }

    #[test]
    fn virtual_clock_never_arms_a_timer() {
        let mut backend = MockBackend::new(ClockKind::Virtual, &[0.3, 0.2, 0.25]);
        // Hints and a probation window are on offer; a virtual clock must
        // turn neither into a timer.
        let mut policy = Pump::new(100, &[1e-3; 3]);
        // Unit 1 panics three times: attempt 0 and two in-place retries,
        // then quarantine, and its block is re-credited to the others.
        let report = run(
            &mut backend,
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
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 0.2]);
        let mut policy = Pump::new(100, &[1e-3, 2e-3]).holding();
        let ft = FaultToleranceConfig::default()
            .with_quarantine_after(1)
            .with_probation(5.0);
        // Seconds from dispatch to the watchdog deadline of a block: 1 s on
        // unit 0, 2 s on unit 1.
        let deadline = |pu: usize| ft.deadline_for(Some(policy.hints[pu]), 100).expect("armed");
        let (d0, d1) = (deadline(0), deadline(1));
        assert!(d0 < d1);
        let report = run(&mut backend, &mut policy, 300, flaky(1, 1), ft);
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

    // -----------------------------------------------------------------
    // Cross-commit goldens (the `tests/policy_goldens.rs` method): one
    // hash per scenario over the whole event stream and the outcome.
    // The mock's time moves only in `poll`, so a wall-clock run is
    // deterministic. Every constant was printed at commit d850cbf, the
    // parent of the PR that gave the driver one record per unit
    // (ISSUE 20), which passed them all unmodified.

    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over every event's `seq`, `t` bits, `pu` and `Debug`
    /// payload; then the makespan's bits, the task count and every
    /// unit's items — or the error's `Debug` text.
    fn stream_hash(out: &CoreOutcome) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for e in out.events.iter() {
            h = fnv(h, &e.seq.to_le_bytes());
            h = fnv(h, &e.t.to_bits().to_le_bytes());
            h = fnv(h, &e.pu.map_or(u64::MAX, |p| p as u64).to_le_bytes());
            h = fnv(h, format!("{:?}", e.kind).as_bytes());
        }
        match &out.result {
            Ok(report) => {
                h = fnv(h, &report.makespan.to_bits().to_le_bytes());
                h = fnv(h, &(report.tasks as u64).to_le_bytes());
                for pu in &report.pus {
                    h = fnv(h, &pu.items.to_le_bytes());
                }
            }
            Err(e) => h = fnv(h, format!("{e:?}").as_bytes()),
        }
        h
    }

    fn check(name: &str, out: &CoreOutcome, golden: u64) {
        let got = stream_hash(out);
        let names: Vec<&str> = out.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            got, golden,
            "{name}: got {got:#018x}; {:?}; events {names:?}",
            out.result
        );
    }

    fn names_on(out: &CoreOutcome, pu: usize) -> Vec<&'static str> {
        let on_pu = out.events.iter().filter(|e| e.pu == Some(pu));
        on_pu.map(|e| e.kind.name()).collect()
    }

    #[test]
    fn a_blown_deadline_writes_the_unit_off_and_its_block_reruns_elsewhere() {
        // Unit 1 wedges in its first kernel; its deadline is 1 s.
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 50.0]);
        let mut policy = Pump::new(100, &[1e-3, 1e-3]);
        let out = run_outcome(
            &mut backend,
            &mut policy,
            500,
            FaultPlan::none(),
            FaultToleranceConfig::default(),
            None,
        );
        let report = out.result.as_ref().expect("run completes");
        assert_eq!(report.cover, vec![(0, 500)]);
        assert_eq!(report.pus[1].items, 0);
        assert_eq!(report.makespan, 1.5, "the lost block re-ran last");
        assert_eq!(out.lost, vec![false, true]);
        assert_eq!(backend.hooks, ["forgot 1"]);
        assert_eq!(
            names_on(&out, 1),
            ["task_submit", "task_failed", "device_failed"]
        );
        let tail = &policy.calls[policy.calls.len() - 4..];
        assert_eq!(
            tail,
            ["lost 1", "failed 1 deadline", "finished 0", "finished 0"]
        );
        check("blown_deadline", &out, 0x99b9_2698_4204_7d0c);
    }

    #[test]
    fn an_executor_gone_inside_assign_is_reported_after_the_hook_returns() {
        // Unit 2 has no executor from the start; unit 1's takes one
        // launch, which panics, and is gone for the retry.
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 0.2, 0.25])
            .executor_lasts(2, 0)
            .executor_lasts(1, 1);
        let mut policy = Pump::new(100, &[]);
        let out = run_outcome(
            &mut backend,
            &mut policy,
            600,
            flaky(1, 1),
            FaultToleranceConfig::default(),
            None,
        );
        let report = out.result.as_ref().expect("run completes");
        assert_eq!(report.cover, vec![(0, 600)]);
        assert_eq!(report.pus[0].items, 600);
        assert_eq!(out.lost, vec![false, true, true]);
        assert_eq!(backend.hooks, ["forgot 2", "forgot 1"]);
        // The block claimed for unit 2 went back without a start or a
        // failure; the policy heard of the loss once `on_start` was over.
        assert_eq!(names_on(&out, 2), ["task_submit", "device_failed"]);
        assert_eq!(policy.calls[..3], ["start>", "<start", "lost 2"]);
        // Unit 1's block was given up on the retry: no `on_task_failed`.
        assert_eq!(
            names_on(&out, 1),
            ["task_submit", "task_failed", "task_retry", "device_failed"]
        );
        assert_eq!(policy.calls[3], "lost 1");
        assert!(!policy.calls.iter().any(|c| c.starts_with("failed")));
        check("executor_gone", &out, 0x1234_aa3a_bada_8a3c);
    }

    #[test]
    fn quarantine_probation_restore_resets_the_failure_run() {
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 0.2]);
        let mut policy = Pump::new(100, &[1e-3, 1e-3]).holding();
        // Unit 1 panics on its first three dispatches and is quarantined
        // after the second. Restored, the third failure starts a new run
        // of one and is retried in place; counted onto the old run it
        // would be a second quarantine.
        let out = run_outcome(
            &mut backend,
            &mut policy,
            300,
            flaky(1, 3),
            FaultToleranceConfig::default()
                .with_quarantine_after(2)
                .with_probation(5.0),
            None,
        );
        let report = out.result.as_ref().expect("run completes");
        assert_eq!(report.cover, vec![(0, 300)]);
        assert_eq!(report.events.quarantines, 1);
        assert_eq!(report.events.task_retries, 2);
        assert_eq!(report.pus[1].items, 100);
        assert_eq!(backend.hooks, ["quarantined 1"]);
        assert_eq!(
            policy.calls,
            [
                "start>",
                "<start",
                "finished 0",
                "lost 1",
                "failed 1 panic",
                "restored 1",
                "finished 0",
                "finished 1"
            ]
        );
        check("probation_restore", &out, 0x5677_ae61_44e3_c7d6);
    }

    #[test]
    fn every_unit_gone_stalls_the_run() {
        // Unit 0 has no executor, unit 1 wedges past its 1 s deadline and
        // unit 2 (no deadline) panics at 1.5 s into a quarantine.
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 50.0, 1.5]).executor_lasts(0, 0);
        let mut policy = Pump::new(100, &[1e-3, 1e-3, 0.0]);
        let out = run_outcome(
            &mut backend,
            &mut policy,
            500,
            flaky(2, 10),
            FaultToleranceConfig::default().with_quarantine_after(1),
            None,
        );
        let stalled = RunError::Stalled {
            remaining: 500,
            at: 1.5,
        };
        assert_eq!(out.result.as_ref().err(), Some(&stalled));
        assert_eq!(out.lost, vec![true, true, false]);
        assert_eq!(backend.hooks, ["forgot 0", "forgot 1", "quarantined 2"]);
        assert_eq!(
            policy.calls,
            [
                "start>",
                "<start",
                "lost 0",
                "lost 1",
                "failed 1 deadline",
                "lost 2",
                "failed 2 panic"
            ]
        );
        let last = out.events.iter().last().expect("events");
        assert_eq!(last.kind, EventKind::Stalled { remaining: 500 });
        check("every_unit_gone", &out, 0xd38c_61eb_7e85_11b7);
    }

    /// A snapshot of a 600-item run, 200 done: unit 1 quarantined after
    /// three dispatches, unit 2 written off.
    fn snapshot_with_a_quarantined_and_a_lost_unit() -> Checkpoint {
        let unit = |name: &str, dispatches: u64| PuState {
            name: name.into(),
            dispatches,
            consecutive_failures: 0,
            rate_ewma: None,
            quarantined: false,
            lost: false,
        };
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            workload: WorkloadId {
                policy: "pump".into(),
                total_items: 600,
                n_pus: 3,
                total_cost: 600,
                nodes: Vec::new(),
            },
            seq: 4,
            at: 0.9,
            tasks_done: 2,
            next_task: 5,
            completed: vec![(0, 100), (200, 100)],
            units: vec![
                PuState {
                    rate_ewma: Some(3e-3),
                    ..unit("u0", 2)
                },
                PuState {
                    consecutive_failures: 3,
                    quarantined: true,
                    ..unit("u1", 3)
                },
                PuState {
                    lost: true,
                    ..unit("u2", 1)
                },
            ],
            counters: EventCounters {
                quarantines: 1,
                ..Default::default()
            },
            policy_state: None,
        }
    }

    #[test]
    fn resume_restores_a_quarantined_and_a_lost_unit() {
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 0.2, 0.25]);
        let mut policy = Pump::new(100, &[]);
        // Unit 1's fourth dispatch (index 3) still panics: the restored
        // dispatch count keeps the plan where it was.
        let out = run_outcome(
            &mut backend,
            &mut policy,
            600,
            flaky(1, 4),
            FaultToleranceConfig::default().with_probation(0.5),
            Some(snapshot_with_a_quarantined_and_a_lost_unit()),
        );
        let report = out.result.as_ref().expect("run completes");
        assert_eq!(report.cover, vec![(0, 600)]);
        assert_eq!(report.events.quarantines, 1, "the carried one only");
        assert_eq!(report.events.task_retries, 1);
        assert_eq!(report.pus[2].items, 0);
        assert!(report.pus[1].items > 0, "probation ended at 0.5 s");
        assert_eq!(out.lost, vec![false, false, true]);
        // Replayed silently: no event, no callback before `on_start`.
        assert_eq!(backend.hooks, ["quarantined 1", "forgot 2"]);
        assert_eq!(policy.calls[..3], ["start>", "<start", "finished 0"]);
        let head: Vec<&str> = out.events.iter().take(3).map(|e| e.kind.name()).collect();
        assert_eq!(head, ["run_start", "run_resumed", "task_submit"]);
        // Unit 0's restored rate (3 ms per cost unit) arms its 3 s
        // deadline; the probation timer comes first.
        assert_eq!(backend.wakes[0], Some(0.5));
        check("resume_quarantined_and_lost", &out, 0xf635_f39d_42ed_dbde);
    }
    // -----------------------------------------------------------------
    // The two fixes that rode along with the one-record driver: each
    // test fails at d850cbf.

    #[test]
    fn a_latent_joiner_is_not_snapshotted_as_quarantined() {
        // Unit 1 joins after five tasks; snapshots are cut after two and
        // after six.
        let mut backend = MockBackend::new(ClockKind::Virtual, &[0.3, 0.2]);
        let mut policy = Pump::new(100, &[]);
        let handles = handles(2);
        let cfg = RunConfig {
            faults: join(1, 5),
            ..Default::default()
        };
        let mut d = Driver::new(
            &mut backend,
            handles,
            &mut policy,
            WorkPool::new(1_000),
            cfg,
        )
        .expect("nothing to reject");
        policy.on_start(&mut d);
        let mut snapshots = Vec::new();
        while d.tasks_done < 6 {
            let polled = d.backend.poll(None, &mut d.events);
            d.observe(&mut policy, polled).expect("run goes on");
            if d.tasks_done == 2 || d.tasks_done == 6 {
                snapshots.push(d.build_checkpoint(&policy));
            }
        }
        let flags = |c: &Checkpoint| (c.units[1].quarantined, c.units[1].lost);
        assert_eq!(
            flags(&snapshots[0]),
            (false, false),
            "latent: waiting, not down"
        );
        assert_eq!(flags(&snapshots[1]), (false, false), "joined");
        drop(d);

        // Resumed without the join plan, the unit is simply there.
        let mut backend = MockBackend::new(ClockKind::Virtual, &[0.3, 0.2]);
        let mut policy = Pump::new(100, &[]);
        let resume = Some(snapshots.swap_remove(0));
        let out = run_outcome(
            &mut backend,
            &mut policy,
            1_000,
            FaultPlan::none(),
            FaultToleranceConfig::default(),
            resume,
        );
        let report = out.result.expect("run completes");
        assert_eq!(report.cover, vec![(0, 1_000)]);
        assert!(report.pus[1].items > 0, "{:?}", report.pus[1]);
        assert!(backend.hooks.is_empty(), "{:?}", backend.hooks);
    }

    #[test]
    fn a_restore_of_a_written_off_unit_is_dropped() {
        // Unit 1's executor is gone from the start; at 0.45 s the backend
        // claims the unit is back.
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 0.2])
            .executor_lasts(1, 0)
            .external(0.45, Polled::UnitRestored { pu: 1 });
        let mut policy = Pump::new(100, &[]);
        let out = run_outcome(
            &mut backend,
            &mut policy,
            400,
            FaultPlan::none(),
            FaultToleranceConfig::default(),
            None,
        );
        let report = out.result.as_ref().expect("run completes");
        assert_eq!(report.pus[0].items, 400);
        assert_eq!(out.lost, vec![false, true]);
        // One launch was refused, and none was tried again: the unit
        // never reappeared in `pus()`.
        assert_eq!(report.events.tasks_submitted, 5);
        assert_eq!(names_on(&out, 1), ["task_submit", "device_failed"]);
        assert!(!policy.calls.iter().any(|c| c == "restored 1"));
    }

    // -----------------------------------------------------------------
    // Transitions: the state of a unit x what happens to it -> where it
    // ends up and who hears of it. Unit 0 stands by, idle and healthy;
    // unit 1 is the subject, and no callback assigns anything. Every
    // row also checks that each item is in the pool or held by a unit,
    // once.

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum State {
        /// Up; with a block in flight (deadline 1 s, kernel wedged)
        /// unless its executor is about to be found gone.
        Active,
        /// Taken down by the core: probation until 5 s.
        Quarantined,
        Lost,
        /// Waiting for its join, due after five tasks.
        Latent,
        /// Up, with a block in flight as in `Active` and a second one
        /// queued behind it — unless its executor is about to be found
        /// gone, when the launch of that second block finds it.
        Ahead,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Cause {
        FailureAtTheBar,
        ExternalDown,
        ProbationExpiry,
        ExternalRestore,
        JoinDue,
        BlownDeadline,
        ExecutorGone,
    }

    /// Where a row leaves unit 1: its gate, its handle's `available`,
    /// the timers armed, and — since the cause — the events on it, the
    /// policy's callbacks and the backend's hooks.
    #[derive(Debug, PartialEq)]
    struct After {
        gate: State,
        available: bool,
        timers: usize,
        events: String,
        calls: String,
        hooks: String,
    }

    fn after(gate: State, timers: usize, events: &str, calls: &str, hooks: &str) -> After {
        After {
            gate,
            available: matches!(gate, State::Active | State::Ahead),
            timers,
            events: events.into(),
            calls: calls.into(),
            hooks: hooks.into(),
        }
    }

    fn transition(state: State, cause: Cause) -> After {
        let executor = match (state, cause) {
            (State::Ahead, Cause::ExecutorGone) => 1,
            (_, Cause::ExecutorGone) => 0,
            _ => 9,
        };
        let mut backend =
            MockBackend::new(ClockKind::Wall, &[0.3, 50.0]).executor_lasts(1, executor);
        let mut policy = Pump::new(0, &[1e-3, 1e-3]);
        let cfg = RunConfig {
            faults: if state == State::Latent {
                join(1, 5)
            } else {
                FaultPlan::none()
            },
            ft: FaultToleranceConfig::default()
                .with_quarantine_after(1)
                .with_probation(5.0),
            ..Default::default()
        };
        let pool = WorkPool::new(1_000);
        let mut d = Driver::new(&mut backend, handles(2), &mut policy, pool, cfg).expect("fresh");
        policy.on_start(&mut d);
        match state {
            State::Active if cause != Cause::ExecutorGone => {
                assert_eq!(d.assign(PuId(1), 100), 100)
            }
            State::Active | State::Latent => {}
            State::Quarantined => assert!(d.take_down(1, true)),
            State::Lost => assert!(d.write_off(1)),
            State::Ahead => {
                assert_eq!(d.assign(PuId(1), 100), 100);
                if cause != Cause::ExecutorGone {
                    assert_eq!(d.assign(PuId(1), 100), 100);
                    assert_eq!(d.assign(PuId(1), 100), 0, "one block ahead, no more");
                }
            }
        }
        let (seen, called) = (d.events.len(), policy.calls.len());
        let hooked = usize::from(matches!(state, State::Quarantined | State::Lost));
        assert_eq!(
            (d.busy, d.armed_timers, true),
            d.recount(),
            "{state:?} set up"
        );

        // The mock's clock moves in `poll` only.
        let sleep_until = |d: &mut Driver, t: f64| {
            assert_eq!(d.backend.poll(Some(t), &mut d.events), Polled::Timeout);
        };
        let verdict = match cause {
            Cause::FailureAtTheBar => d.observe(
                &mut policy,
                Polled::AttemptFailed {
                    pu: 1,
                    task: TaskId(0),
                    reason: FailureReason::Panicked,
                },
            ),
            Cause::ExternalDown => d.observe(&mut policy, Polled::UnitDown { pu: 1 }),
            Cause::ProbationExpiry => {
                sleep_until(&mut d, 6.0);
                d.end_elapsed_probations(&mut policy);
                Ok(())
            }
            Cause::ExternalRestore => d.observe(&mut policy, Polled::UnitRestored { pu: 1 }),
            Cause::JoinDue => {
                if state != State::Latent {
                    d.joins.push((1, 5));
                }
                d.tasks_done = 5;
                d.admit_due_joins(&mut policy);
                Ok(())
            }
            Cause::BlownDeadline => {
                sleep_until(&mut d, 1.5);
                d.observe(&mut policy, Polled::Timeout)
            }
            Cause::ExecutorGone => {
                assert_eq!(d.assign(PuId(1), 100), 0);
                d.notify_lost(&mut policy);
                Ok(())
            }
        };
        assert_eq!(verdict, Ok(()), "unit 0 keeps the run alive");
        assert_eq!(
            (d.busy, d.armed_timers, true),
            d.recount(),
            "{state:?} x {cause:?}"
        );
        let held = (d.units.iter()).flat_map(|u| u.inflight.iter().chain(&u.queued));
        assert_eq!(
            d.pool.remaining() + held.map(|p| p.items).sum::<u64>(),
            1_000,
            "{state:?} x {cause:?}: an item lost or held twice"
        );
        let unit = &d.units[1];
        let gate = match (unit.gate.is_active(), unit.gate.is_lost()) {
            (true, _) if !d.handles[1].available => State::Latent,
            (true, _) if unit.queued.is_some() => State::Ahead,
            (true, _) => State::Active,
            (_, true) => State::Lost,
            _ => State::Quarantined,
        };
        let events: Vec<&str> = (d.events.iter().skip(seen))
            .filter(|e| e.pu == Some(1))
            .map(|e| e.kind.name())
            .collect();
        let result = After {
            gate,
            available: d.handles[1].available,
            timers: d.armed_timers,
            events: events.join(" "),
            calls: policy.calls[called..].join(", "),
            hooks: String::new(),
        };
        drop(d);
        After {
            hooks: backend.hooks[hooked..].join(", "),
            ..result
        }
    }

    #[test]
    fn every_transition_of_a_unit() {
        use Cause::*;
        use State::*;
        let unchanged = |state: State| {
            let timers = usize::from(matches!(state, Active | Quarantined | Ahead));
            after(state, timers, "", "", "")
        };
        let down_again =
            |state: State, timers: usize| after(state, timers, "device_failed", "lost 1", "");
        let table = [
            // Active: a block in flight, its 1 s deadline the one timer.
            (
                (Active, FailureAtTheBar),
                after(
                    Quarantined,
                    1,
                    "task_failed pu_quarantined device_failed",
                    "lost 1, failed 1 panic",
                    "quarantined 1",
                ),
            ),
            (
                (Active, ExternalDown),
                after(Quarantined, 0, "task_failed device_failed", "lost 1", ""),
            ),
            ((Active, ProbationExpiry), unchanged(Active)),
            // A restore of a unit that never failed still fires.
            (
                (Active, ExternalRestore),
                after(Active, 1, "device_restored", "restored 1", ""),
            ),
            ((Active, JoinDue), unchanged(Active)),
            (
                (Active, BlownDeadline),
                after(
                    Lost,
                    0,
                    "task_failed device_failed",
                    "lost 1, failed 1 deadline",
                    "forgot 1",
                ),
            ),
            (
                (Active, ExecutorGone),
                after(Lost, 0, "task_submit device_failed", "lost 1", "forgot 1"),
            ),
            // Quarantined by the core: the probation expiry is the timer.
            // Nothing is in flight, so a failure or a deadline finds
            // nothing, and `assign` refuses before any launch.
            ((Quarantined, FailureAtTheBar), unchanged(Quarantined)),
            ((Quarantined, ExternalDown), down_again(Quarantined, 1)),
            (
                (Quarantined, ProbationExpiry),
                after(Active, 0, "device_restored", "restored 1", ""),
            ),
            (
                (Quarantined, ExternalRestore),
                after(Active, 0, "device_restored", "restored 1", ""),
            ),
            // A join admits only a latent unit: this one serves out its
            // probation.
            ((Quarantined, JoinDue), unchanged(Quarantined)),
            ((Quarantined, BlownDeadline), unchanged(Quarantined)),
            ((Quarantined, ExecutorGone), unchanged(Quarantined)),
            // Lost is absorbing: no restore, no join.
            ((Lost, FailureAtTheBar), unchanged(Lost)),
            ((Lost, ExternalDown), down_again(Lost, 0)),
            ((Lost, ProbationExpiry), unchanged(Lost)),
            ((Lost, ExternalRestore), unchanged(Lost)),
            ((Lost, JoinDue), unchanged(Lost)),
            ((Lost, BlownDeadline), unchanged(Lost)),
            ((Lost, ExecutorGone), unchanged(Lost)),
            // Latent: the gate is active, the handle is not available.
            ((Latent, FailureAtTheBar), unchanged(Latent)),
            ((Latent, ExternalDown), down_again(Quarantined, 0)),
            ((Latent, ProbationExpiry), unchanged(Latent)),
            (
                (Latent, ExternalRestore),
                after(Active, 0, "device_restored", "restored 1", ""),
            ),
            (
                (Latent, JoinDue),
                after(Active, 0, "pu_joined", "joined 1", "joined 1"),
            ),
            ((Latent, BlownDeadline), unchanged(Latent)),
            ((Latent, ExecutorGone), unchanged(Latent)),
            // Ahead: a block in flight with its 1 s deadline, a second
            // queued behind it with none. A failure at the bar promotes
            // the queued block, whose deadline joins the probation; a
            // loss without an outcome re-credits it with a
            // `task_failed` of its own.
            (
                (Ahead, FailureAtTheBar),
                after(
                    Quarantined,
                    2,
                    "task_failed pu_quarantined device_failed",
                    "lost 1, failed 1 panic",
                    "quarantined 1",
                ),
            ),
            (
                (Ahead, ExternalDown),
                after(
                    Quarantined,
                    0,
                    "task_failed task_failed device_failed",
                    "lost 1",
                    "",
                ),
            ),
            ((Ahead, ProbationExpiry), unchanged(Ahead)),
            (
                (Ahead, ExternalRestore),
                after(Ahead, 1, "device_restored", "restored 1", ""),
            ),
            ((Ahead, JoinDue), unchanged(Ahead)),
            (
                (Ahead, BlownDeadline),
                after(
                    Lost,
                    0,
                    "task_failed task_failed device_failed",
                    "lost 1, failed 1 deadline",
                    "forgot 1",
                ),
            ),
            // The block about to queue goes back unlaunched, as on an
            // idle unit; the one running, which no executor will report,
            // goes back with a `task_failed`.
            (
                (Ahead, ExecutorGone),
                after(
                    Lost,
                    0,
                    "task_submit task_failed device_failed",
                    "lost 1",
                    "forgot 1",
                ),
            ),
        ];
        assert_eq!(table.len(), 5 * 7);
        for ((state, cause), expected) in table {
            assert_eq!(transition(state, cause), expected, "{state:?} x {cause:?}");
        }
    }

    #[test]
    fn a_completion_promotes_the_queued_block_and_arms_it_from_the_finish() {
        let mut backend = MockBackend::new(ClockKind::Wall, &[0.3, 50.0]);
        let mut policy = Pump::new(0, &[1e-3, 1e-3]);
        let ft = FaultToleranceConfig::default();
        let allowed = ft.deadline_for(Some(1e-3), 100).expect("armed");
        let cfg = RunConfig {
            ft,
            ..Default::default()
        };
        let pool = WorkPool::new(1_000);
        let mut d = Driver::new(&mut backend, handles(2), &mut policy, pool, cfg).expect("fresh");
        policy.on_start(&mut d);
        assert_eq!(d.assign(PuId(1), 100), 100);
        assert_eq!(d.assign(PuId(1), 100), 100);
        let running = |d: &Driver| (d.units[1].inflight.as_ref()).map(|p| (p.task, p.deadline_at));
        let queued = |d: &Driver| (d.units[1].queued.as_ref()).map(|p| (p.task, p.deadline_at));
        assert_eq!(running(&d), Some((TaskId(0), Some(allowed))));
        assert_eq!(queued(&d), Some((TaskId(1), None)));

        // The first block ended at 0.4 s; the driver hears of it later.
        let done = Polled::Completed {
            pu: 1,
            task: TaskId(0),
            start: 0.0,
            xfer_s: 0.0,
            proc_s: 0.4,
            finish: 0.4,
        };
        d.observe(&mut policy, done).expect("run goes on");
        assert_eq!(running(&d), Some((TaskId(1), Some(0.4 + allowed))));
        assert_eq!(queued(&d), None);
        assert_eq!((d.busy, d.armed_timers, true), d.recount());
        // The slot is free again: the next block queues behind.
        assert_eq!(d.assign(PuId(1), 100), 100);
        assert_eq!(queued(&d), Some((TaskId(2), None)));
    }

    #[test]
    fn a_promotion_on_a_virtual_clock_arms_no_deadline() {
        // The cluster tier's case: a virtual clock whose units hold one
        // block ahead, with a deadline hint on offer.
        let mut backend = MockBackend::new(ClockKind::Virtual, &[0.3, 0.2]).one_ahead();
        let mut policy = Pump::new(0, &[1e-3, 1e-3]);
        let pool = WorkPool::new(1_000);
        let cfg = RunConfig::default();
        let mut d = Driver::new(&mut backend, handles(2), &mut policy, pool, cfg).expect("fresh");
        policy.on_start(&mut d);
        assert_eq!(d.assign(PuId(1), 100), 100);
        assert_eq!(d.assign(PuId(1), 100), 100);
        assert_eq!(d.assign(PuId(1), 100), 0, "one block ahead, no more");
        let queued = |d: &Driver| (d.units[1].queued.as_ref()).map(|p| p.task);
        assert_eq!(queued(&d), Some(TaskId(1)));
        // The queued block's start is known at dispatch: when the one
        // ahead of it ends.
        let starts: Vec<f64> = (d.events.iter())
            .filter(|e| matches!(e.kind, EventKind::TaskStart { .. }))
            .map(|e| e.t)
            .collect();
        assert_eq!(starts, [0.0, 0.2]);

        let polled = d.backend.poll(None, &mut d.events);
        assert!(
            matches!(polled, Polled::Completed { pu: 1, .. }),
            "{polled:?}"
        );
        d.observe(&mut policy, polled).expect("run goes on");
        let running = (d.units[1].inflight.as_ref()).map(|p| (p.task, p.deadline_at));
        assert_eq!(running, Some((TaskId(1), None)));
        assert_eq!(queued(&d), None);
        assert_eq!(d.armed_timers, 0);
        assert_eq!((d.busy, d.armed_timers, true), d.recount());
    }
}
