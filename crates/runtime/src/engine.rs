//! The engine, and the discrete-event simulation machine.
//!
//! [`Engine`] is the one public way to run: a machine, the run
//! configuration every machine shares, and the trace and events of the
//! last run. [`SimEngine`], [`HostEngine`](crate::HostEngine) and
//! [`ClusterEngine`](crate::ClusterEngine) are it over the simulated,
//! the host and the node machine.
//!
//! The simulated machine executes a data-parallel application of
//! `total_items` work units on a [`ClusterSim`] under a scheduling
//! [`Policy`]. Virtual time advances through a binary-heap event queue;
//! each task occupies its unit for `transfer_time + proc_time` as
//! measured by the device models. A unit holds one task at a time: its
//! clock is virtual, so a dispatch costs it nothing and the core queues
//! no block behind a running one (the wall-clock host engine takes one
//! ahead).
//!
//! All scheduling decisions — assignment bookkeeping, retry, quarantine,
//! re-credit, stall detection, event emission — live in the shared
//! scheduling core (the crate-private `core` module); this module adds
//! only the virtual-clock backend: an event heap over the simulated
//! cluster's device models, plus the per-unit transfer-byte counters
//! behind the report's byte accounting.
//!
//! Perturbations (slowdowns, failures, restorations) can be scheduled at
//! absolute virtual times to reproduce the paper's future-work scenarios
//! (cloud QoS drift, machine loss).

use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::core::{
    self, Backend, ClockKind, CoreOutcome, EventQueue, Launch, LaunchSpec, Polled, RunConfig,
    WorkPool,
};
use crate::events::{EventKind, EventSink};
use crate::fault::{FaultAction, FaultPlan, FaultToleranceConfig};
use crate::metrics::RunReport;
use crate::policy::{Policy, PuHandle};
use crate::sync::Arc;
use crate::task::{FailureReason, TaskId};
use crate::trace::Trace;
use crate::weights::Weights;
use plb_hetsim::{ClusterSim, CostModel, PuId};
use std::ops::Range;

/// A scheduled runtime perturbation.
#[derive(Debug, Clone)]
pub struct Perturbation {
    /// Virtual time at which the perturbation fires.
    pub at: f64,
    /// What happens.
    pub kind: PerturbationKind,
}

/// Kinds of perturbation.
#[derive(Debug, Clone, Copy)]
pub enum PerturbationKind {
    /// Multiply a unit's kernel times by `factor` from now on (cloud QoS
    /// drift; `1.0` restores nominal speed).
    SetSlowdown(PuId, f64),
    /// The unit fails: its in-flight task is lost (items re-credited)
    /// and it accepts no further work.
    Fail(PuId),
    /// A failed unit comes back.
    Restore(PuId),
}

/// Engine errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The policy left work unassigned with every unit idle — a policy
    /// bug (or every device failed).
    Stalled {
        /// Items never assigned.
        remaining: u64,
        /// Virtual time at which the stall was detected.
        at: f64,
    },
    /// No processing unit is available at start.
    NoUnits,
    /// The engine's own machinery failed (thread spawn, pool
    /// construction). Host engine only; the simulator never returns it.
    Infrastructure {
        /// Human-readable cause.
        detail: String,
    },
    /// Run-level durability failed: a periodic snapshot could not be
    /// written, or the snapshot offered for resume was rejected
    /// (corrupt, truncated, or from a different workload). See
    /// [`crate::checkpoint`].
    Checkpoint {
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stalled { remaining, at } => {
                write!(
                    f,
                    "run stalled at t={at:.6}s with {remaining} items unassigned"
                )
            }
            RunError::NoUnits => write!(f, "no processing units available"),
            RunError::Infrastructure { detail } => {
                write!(f, "engine infrastructure failure: {detail}")
            }
            RunError::Checkpoint { detail } => {
                write!(f, "checkpoint failure: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// What the simulator's event queue holds.
#[derive(Debug, Clone)]
enum EventPayload {
    /// Task `task` on `pu` completes.
    Completion { pu: PuId, task: TaskId },
    /// A scheduled perturbation fires.
    Perturb(PerturbationKind),
}

/// Backend-side record of the attempt currently occupying a unit: the
/// device-model timings the completion event will report, and whether
/// the fault plan doomed this attempt to panic at "completion" time.
#[derive(Debug, Clone)]
struct SimAttempt {
    task: TaskId,
    start: f64,
    xfer: f64,
    proc: f64,
    doomed: bool,
}

/// The virtual-clock backend: a binary-heap event queue over the
/// simulated cluster's device models. Mechanics only — every decision
/// is the scheduling core's.
struct SimBackend<'a> {
    cluster: &'a mut ClusterSim,
    cost: &'a dyn CostModel,
    queue: EventQueue<EventPayload>,
    units: Vec<SimUnit>,
}

/// What the backend keeps per unit.
#[derive(Debug, Clone, Default)]
struct SimUnit {
    /// Bytes moved host -> unit so far: every block's input buffer plus
    /// the one-time broadcast staging. Feeds the run report's byte
    /// accounting.
    bytes_in: u64,
    /// Has the broadcast set been staged there yet?
    broadcast_staged: bool,
    attempt: Option<SimAttempt>,
}

impl SimBackend<'_> {
    /// Is a `Restore` perturbation still waiting in the event queue?
    /// (Only pending restores can bring a dead cluster back; already-
    /// fired ones must not defer a stall.)
    fn restore_pending(&self) -> bool {
        let is_restore = |p| matches!(p, &EventPayload::Perturb(PerturbationKind::Restore(_)));
        self.queue.pending().any(is_restore)
    }
}

impl Backend for SimBackend<'_> {
    fn clock_kind(&self) -> ClockKind {
        ClockKind::Virtual
    }

    fn now(&self) -> f64 {
        self.queue.now()
    }

    fn launch(&mut self, spec: &LaunchSpec) -> Launch {
        let pu = PuId(spec.pu);
        let Some(unit) = self.units.get_mut(spec.pu) else {
            return Launch::UnitGone;
        };
        if spec.attempt == 0 {
            // Data movement: the block's input buffer moves host ->
            // unit; the broadcast set is staged once per unit (cache
            // hit after). Retries reuse the already-staged block.
            unit.bytes_in += self.cost.bytes_in_range(spec.offset, spec.items).max(0.0) as u64;
            if !std::mem::replace(&mut unit.broadcast_staged, true) {
                unit.bytes_in += self.cost.broadcast_bytes().max(0.0) as u64;
            }
        }
        let dev = self.cluster.device_mut(pu);
        let xfer = dev.transfer_time_at(self.cost, spec.offset, spec.items);
        // Drift from the fault plan multiplies kernel time only —
        // background load contends for compute, not the interconnect.
        let mut proc = dev.proc_time_at(self.cost, spec.offset, spec.items) * spec.drift;
        // Injected delays stretch the kernel; injected panics surface
        // when the "completion" event fires.
        let doomed = match spec.inject {
            Some(FaultAction::Panic) => true,
            Some(FaultAction::Delay(s)) => {
                proc += s;
                false
            }
            None => false,
        };
        // First attempts issued while scheduler overhead is outstanding
        // begin only after the overhead window closes; retries begin
        // after their backoff.
        let start = self.queue.start_of(spec);
        unit.attempt = Some(SimAttempt {
            task: spec.task,
            start,
            xfer,
            proc,
            doomed,
        });
        self.queue.push(
            start + xfer + proc,
            EventPayload::Completion {
                pu,
                task: spec.task,
            },
        );
        Launch::Started { start: Some(start) }
    }

    fn poll(&mut self, _wake: Option<f64>, events: &mut EventSink) -> Polled {
        loop {
            let Some(payload) = self.queue.pop() else {
                return Polled::Drained;
            };
            match payload {
                EventPayload::Completion { pu, task } => {
                    // Completions of cancelled attempts (unit failed
                    // while the task was in flight) are stale: skip to
                    // the next event.
                    let Some(unit) = self.units.get_mut(pu.0) else {
                        continue;
                    };
                    let Some(a) = unit.attempt.take_if(|a| a.task == task) else {
                        continue;
                    };
                    if a.doomed {
                        return Polled::AttemptFailed {
                            pu: pu.0,
                            task,
                            reason: FailureReason::Panicked,
                        };
                    }
                    return Polled::Completed {
                        pu: pu.0,
                        task,
                        start: a.start,
                        xfer_s: a.xfer,
                        proc_s: a.proc,
                        finish: self.queue.now(),
                    };
                }
                EventPayload::Perturb(kind) => match kind {
                    PerturbationKind::SetSlowdown(pu, f) => {
                        self.cluster.device_mut(pu).set_slowdown(f);
                        let now = self.queue.now();
                        events.record(now, Some(pu.0), EventKind::SlowdownSet { factor: f });
                        // In-flight tasks keep their original times:
                        // the slowdown applies from the next kernel,
                        // like a contended cloud node would behave
                        // between scheduling rounds.
                        return Polled::Nothing;
                    }
                    PerturbationKind::Fail(pu) => {
                        self.cluster.device_mut(pu).fail();
                        // The in-flight attempt (if any) is cancelled;
                        // its queued completion event becomes stale.
                        if let Some(unit) = self.units.get_mut(pu.0) {
                            unit.attempt = None;
                        }
                        return Polled::UnitDown { pu: pu.0 };
                    }
                    PerturbationKind::Restore(pu) => {
                        self.cluster.device_mut(pu).restore();
                        return Polled::UnitRestored { pu: pu.0 };
                    }
                },
            }
        }
    }

    fn charge_overhead(&mut self, seconds: f64) {
        self.queue.charge_overhead(seconds);
    }

    fn on_unit_quarantined(&mut self, pu: usize) {
        self.cluster.device_mut(PuId(pu)).fail();
    }

    fn on_unit_joined(&mut self, pu: usize) {
        // The device sat latent (held out of the roster by the core);
        // make sure the simulated hardware is live from here on.
        // Restoring a never-failed device is a no-op.
        self.cluster.device_mut(PuId(pu)).restore();
    }

    fn idle_progress_possible(&self) -> bool {
        self.queue
            .pending()
            .any(|p| matches!(p, EventPayload::Completion { .. }))
            || self.restore_pending()
    }

    fn external_restore_possible(&self) -> bool {
        self.restore_pending()
    }

    fn bytes_into(&self, pu: usize) -> u64 {
        self.units.get(pu).map_or(0, |u| u.bytes_in)
    }
}

/// One engine over one machine `M`: the machine, the run configuration
/// every machine shares, and what the last run left behind. The
/// builders here serve every machine; each machine adds its own `new`,
/// `run` and extra builders. [`SimEngine`], [`HostEngine`] and
/// [`ClusterEngine`] name the three.
///
/// [`HostEngine`]: crate::HostEngine
/// [`ClusterEngine`]: crate::ClusterEngine
pub struct Engine<M> {
    pub(crate) machine: M,
    pub(crate) cfg: RunConfig,
    last_trace: Option<Trace>,
    last_events: Option<EventSink>,
}

impl<M> Engine<M> {
    /// An engine over `machine` with the default configuration: uniform
    /// weights, no injected fault, the default response, no durability.
    pub(crate) fn over(machine: M) -> Engine<M> {
        Engine {
            machine,
            cfg: RunConfig::default(),
            last_trace: None,
            last_events: None,
        }
    }

    /// Inject deterministic faults (panics, delays, drift, joins) by
    /// per-unit attempt index; a node engine applies them per node. See
    /// [`FaultPlan`]. Re-dispatch after a loss assumes idempotent
    /// codelets.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Override the fault-response tunables: retry bound, backoff,
    /// quarantine threshold, and on a wall clock the deadline factor and
    /// probation window (virtual time cannot be late).
    pub fn with_fault_tolerance(mut self, ft: FaultToleranceConfig) -> Self {
        self.cfg.ft = ft;
        self
    }

    /// Write periodic, atomically-replaced durability snapshots of the
    /// driver state during `run` (plus one on clean shutdown), so a
    /// killed run can be resumed. A node engine's snapshots carry the
    /// node roster. See [`crate::checkpoint`].
    pub fn with_checkpoint(mut self, cfg: CheckpointConfig) -> Self {
        self.cfg.checkpoint = Some(cfg);
        self
    }

    /// Resume the next `run` from `ckpt` instead of starting fresh.
    /// Consumed by that run: a second `run` on the same engine starts
    /// fresh again. The snapshot must match the run's workload (policy
    /// name, item count, unit count, total cost and node roster) or
    /// `run` fails with [`RunError::Checkpoint`]. Codelets must be
    /// idempotent over a possibly re-executed tail block.
    pub fn resume_from(mut self, ckpt: Checkpoint) -> Self {
        self.cfg.resume = Some(ckpt);
        self
    }

    /// Use per-item work weights for the run: pool claims become
    /// cost-budgeted, profiling and selection see cost, not count, and a
    /// node engine's home shards become equal-cost. The default is
    /// [`Weights::Uniform`], under which cost equals item count. See
    /// [`crate::weights`].
    pub fn with_weights(mut self, weights: Arc<Weights>) -> Self {
        self.cfg.weights = weights;
        self
    }

    /// The Gantt trace of the most recent `run` (for rendering and
    /// idle-time analysis).
    pub fn last_trace(&self) -> Option<&Trace> {
        self.last_trace.as_ref()
    }

    /// The structured event stream of the most recent `run` — also kept
    /// on a stalled run, so post-mortems can see what the policy last
    /// did. See [`crate::events`].
    pub fn last_events(&self) -> Option<&EventSink> {
        self.last_events.as_ref()
    }

    /// Keep the trace and events of a finished drive and hand back its
    /// result.
    pub(crate) fn keep(&mut self, outcome: CoreOutcome) -> Result<RunReport, RunError> {
        self.last_trace = Some(outcome.trace);
        self.last_events = Some(outcome.events);
        outcome.result
    }
}

/// The simulated machine: a cluster, a cost model, and optional
/// perturbations.
pub struct SimMachine<'a> {
    cluster: &'a mut ClusterSim,
    cost: &'a dyn CostModel,
    perturbations: Vec<Perturbation>,
}

/// The discrete-event engine: [`Engine`] over a simulated cluster.
///
/// ```
/// use plb_hetsim::cluster::ClusterOptions;
/// use plb_hetsim::workload::LinearCost;
/// use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
/// use plb_runtime::{FixedBlockPolicy, SimEngine};
///
/// let machines = cluster_scenario(Scenario::One, false);
/// let mut cluster = ClusterSim::build(&machines, &ClusterOptions::default());
/// let cost = LinearCost::generic();
/// let mut policy = FixedBlockPolicy { block: 1_000 };
/// let report = SimEngine::new(&mut cluster, &cost)
///     .run(&mut policy, 50_000)
///     .unwrap();
/// assert_eq!(report.total_items, 50_000);
/// assert!(report.makespan > 0.0);
/// ```
pub type SimEngine<'a> = Engine<SimMachine<'a>>;

impl<'a> SimEngine<'a> {
    /// Create an engine over a cluster and an application cost model.
    pub fn new(cluster: &'a mut ClusterSim, cost: &'a dyn CostModel) -> SimEngine<'a> {
        Engine::over(SimMachine {
            cluster,
            cost,
            perturbations: Vec::new(),
        })
    }

    /// Schedule perturbations (may be unsorted; the engine orders them).
    pub fn with_perturbations(mut self, p: Vec<Perturbation>) -> SimEngine<'a> {
        self.machine.perturbations = p;
        self
    }

    /// Run `total_items` under `policy`. Returns the run report, or an
    /// error when the policy deadlocks the run. Delegates to the shared
    /// scheduling core over a virtual-clock backend.
    pub fn run(
        &mut self,
        policy: &mut dyn Policy,
        total_items: u64,
    ) -> Result<RunReport, RunError> {
        self.run_range(policy, 0..total_items)
    }

    /// Run the global item range `items` under `policy`: the whole
    /// space for [`run`](SimEngine::run), one node's chunk for the
    /// cluster tier's [`SimNodeRunner`](crate::SimNodeRunner). The cost
    /// model and weights are the application's own, at global offsets.
    pub(crate) fn run_range(
        &mut self,
        policy: &mut dyn Policy,
        items: Range<u64>,
    ) -> Result<RunReport, RunError> {
        let sim = &mut self.machine;
        let handles: Vec<PuHandle> = sim
            .cluster
            .devices()
            .iter()
            .enumerate()
            .map(|(i, d)| PuHandle {
                id: PuId(i),
                name: d.spec.name.clone(),
                kind: d.spec.kind,
                machine: d.spec.machine,
                available: d.is_available(),
            })
            .collect();
        if !handles.iter().any(|h| h.available) {
            return Err(RunError::NoUnits);
        }
        let mut backend = SimBackend {
            cluster: &mut *sim.cluster,
            cost: sim.cost,
            queue: EventQueue::new(),
            units: vec![SimUnit::default(); handles.len()],
        };
        for p in &sim.perturbations {
            backend
                .queue
                .push(p.at.max(0.0), EventPayload::Perturb(p.kind));
        }
        let cfg = self.cfg.for_run();
        let pool = WorkPool::over(items, Arc::clone(&cfg.weights));
        let outcome = core::drive(&mut backend, handles, policy, pool, cfg);
        self.keep(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedBlockPolicy, SchedulerCtx};
    use crate::task::TaskInfo;
    use plb_hetsim::cluster::ClusterOptions;
    use plb_hetsim::workload::LinearCost;
    use plb_hetsim::{cluster_scenario, Scenario};

    fn make_cluster(s: Scenario) -> ClusterSim {
        ClusterSim::build(
            &cluster_scenario(s, false),
            &ClusterOptions {
                noise_sigma: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn fixed_policy_processes_everything() {
        let mut cluster = make_cluster(Scenario::Two);
        let cost = LinearCost::generic();
        let mut policy = FixedBlockPolicy { block: 1000 };
        let report = SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 100_000)
            .unwrap();
        assert_eq!(report.total_items, 100_000);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn zero_items_finishes_immediately() {
        let mut cluster = make_cluster(Scenario::One);
        let cost = LinearCost::generic();
        let mut policy = FixedBlockPolicy { block: 10 };
        let report = SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 0)
            .unwrap();
        assert_eq!(report.total_items, 0);
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn unused_unit_reports_positive_zero_busy_time() {
        // One block for a roster of several units: every unit but the
        // first runs nothing.
        let mut cluster = make_cluster(Scenario::Two);
        let cost = LinearCost::generic();
        let report = SimEngine::new(&mut cluster, &cost)
            .run(&mut FixedBlockPolicy { block: 1_000 }, 1_000)
            .unwrap();
        assert_eq!(report.tasks, 1);
        assert!(report.pus.len() > 1);
        let unused = report.pus.last().unwrap();
        assert_eq!(unused.items, 0);
        // +0.0, not the -0.0 of an empty `f64` sum: `plb run` prints it
        // and JSON reports carry it.
        assert_eq!(unused.busy_s.to_bits(), 0.0f64.to_bits());
        assert_eq!(unused.idle_fraction, 1.0);
    }

    #[test]
    fn sub_range_runs_cover_global_items_and_refuse_durability() {
        let mut cluster = make_cluster(Scenario::One);
        let cost = LinearCost::generic();
        let mut policy = FixedBlockPolicy { block: 10 };
        let report = SimEngine::new(&mut cluster, &cost)
            .run_range(&mut policy, 50..100)
            .unwrap();
        assert_eq!(report.total_items, 50);
        assert_eq!(report.cover, vec![(50, 50)]);
        // A snapshot describes `0..total_items`; none is taken of a chunk.
        let err = SimEngine::new(&mut cluster, &cost)
            .with_checkpoint(CheckpointConfig::new("never-written.ckpt"))
            .run_range(&mut policy, 50..100)
            .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint { .. }), "{err}");
    }

    #[test]
    fn stalled_policy_detected() {
        struct LazyPolicy;
        impl Policy for LazyPolicy {
            fn name(&self) -> &str {
                "lazy"
            }
            fn on_start(&mut self, _ctx: &mut dyn SchedulerCtx) {}
            fn on_task_finished(&mut self, _ctx: &mut dyn SchedulerCtx, _d: &TaskInfo) {}
        }
        let mut cluster = make_cluster(Scenario::One);
        let cost = LinearCost::generic();
        let err = SimEngine::new(&mut cluster, &cost)
            .run(&mut LazyPolicy, 100)
            .unwrap_err();
        assert!(matches!(err, RunError::Stalled { remaining: 100, .. }));
    }

    #[test]
    fn an_event_naming_a_unit_outside_the_roster_is_kept_as_a_global_one() {
        struct Stray(FixedBlockPolicy);
        impl Policy for Stray {
            fn name(&self) -> &str {
                "stray"
            }
            fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
                let n = ctx.pus().len();
                for pu in [usize::MAX, n] {
                    ctx.emit_event(Some(pu), EventKind::DeviceRestoredIgnored);
                }
                self.0.on_start(ctx);
            }
            fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
                self.0.on_task_finished(ctx, done);
            }
        }
        let mut cluster = make_cluster(Scenario::Two);
        let cost = LinearCost::generic();
        let mut engine = SimEngine::new(&mut cluster, &cost);
        let report = engine
            .run(&mut Stray(FixedBlockPolicy { block: 1_000 }), 10_000)
            .unwrap();
        assert_eq!(report.cover, vec![(0, 10_000)]);
        assert_eq!(report.events.restores_ignored, 2);
        let strays: Vec<Option<usize>> = (engine.last_events().unwrap().iter())
            .filter(|e| e.kind == EventKind::DeviceRestoredIgnored)
            .map(|e| e.pu)
            .collect();
        assert_eq!(strays, [None, None]);
    }

    #[test]
    fn failure_recredit_items_and_completes() {
        let mut cluster = make_cluster(Scenario::Two);
        let cost = LinearCost::generic();
        let mut policy = FixedBlockPolicy { block: 5_000 };
        let report = SimEngine::new(&mut cluster, &cost)
            .with_perturbations(vec![Perturbation {
                at: 1e-5,
                kind: PerturbationKind::Fail(PuId(0)),
            }])
            .run(&mut policy, 200_000)
            .unwrap();
        // All items still processed by the surviving units.
        assert_eq!(report.total_items, 200_000);
        // The failed unit processed nothing (its first task was lost
        // before completion).
        assert_eq!(report.pus[0].items, 0);
    }

    #[test]
    fn slowdown_perturbation_changes_future_tasks() {
        let cost = LinearCost::generic();
        let mut c1 = make_cluster(Scenario::One);
        let base = SimEngine::new(&mut c1, &cost)
            .run(&mut FixedBlockPolicy { block: 10_000 }, 500_000)
            .unwrap();
        let mut c2 = make_cluster(Scenario::One);
        let slowed = SimEngine::new(&mut c2, &cost)
            .with_perturbations(vec![Perturbation {
                at: 0.0,
                kind: PerturbationKind::SetSlowdown(PuId(1), 10.0),
            }])
            .run(&mut FixedBlockPolicy { block: 10_000 }, 500_000)
            .unwrap();
        assert!(slowed.makespan > base.makespan);
    }

    #[test]
    fn all_failed_units_is_no_units() {
        let mut cluster = make_cluster(Scenario::One);
        for id in cluster.ids().collect::<Vec<_>>() {
            cluster.device_mut(id).fail();
        }
        let cost = LinearCost::generic();
        let err = SimEngine::new(&mut cluster, &cost)
            .run(&mut FixedBlockPolicy { block: 10 }, 100)
            .unwrap_err();
        assert_eq!(err, RunError::NoUnits);
    }

    #[test]
    fn assign_clamps_to_remaining() {
        struct GreedyOnce;
        impl Policy for GreedyOnce {
            fn name(&self) -> &str {
                "once"
            }
            fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
                let got = ctx.assign(PuId(0), u64::MAX);
                assert_eq!(got, ctx.total_items());
                // Second assign on a busy unit returns 0.
                assert_eq!(ctx.assign(PuId(0), 10), 0);
            }
            fn on_task_finished(&mut self, _ctx: &mut dyn SchedulerCtx, _d: &TaskInfo) {}
        }
        let mut cluster = make_cluster(Scenario::One);
        let cost = LinearCost::generic();
        let report = SimEngine::new(&mut cluster, &cost)
            .run(&mut GreedyOnce, 777)
            .unwrap();
        assert_eq!(report.total_items, 777);
        assert_eq!(report.tasks, 1);
    }

    #[test]
    fn run_records_event_stream() {
        let mut cluster = make_cluster(Scenario::Two);
        let cost = LinearCost::generic();
        let mut engine = SimEngine::new(&mut cluster, &cost).with_perturbations(vec![
            Perturbation {
                at: 1e-4,
                kind: PerturbationKind::SetSlowdown(PuId(1), 2.0),
            },
            Perturbation {
                at: 2e-4,
                kind: PerturbationKind::Fail(PuId(0)),
            },
        ]);
        let report = engine
            .run(&mut FixedBlockPolicy { block: 5_000 }, 100_000)
            .unwrap();
        let sink = engine.last_events().expect("events recorded");
        let events = sink.events();
        assert!(matches!(events[0].kind, EventKind::RunStart { .. }));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::RunEnd { .. }
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SlowdownSet { .. })));
        assert!(events.iter().any(|e| e.kind == EventKind::DeviceFailed));
        // Counters on the report agree with the stream.
        assert_eq!(report.events.tasks_finished, report.tasks as u64);
        assert_eq!(report.events.perturbations, 2);
        assert_eq!(report.events.device_failures, 1);
        // Per-PU timestamps are monotone after clamping.
        let mut last: std::collections::BTreeMap<usize, f64> = Default::default();
        for e in &events {
            if let Some(p) = e.pu {
                let prev = last.entry(p).or_insert(f64::NEG_INFINITY);
                assert!(e.t >= *prev, "event time regressed on pu {p}");
                *prev = e.t;
            }
        }
    }

    #[test]
    fn stalled_run_preserves_events() {
        struct LazyPolicy;
        impl Policy for LazyPolicy {
            fn name(&self) -> &str {
                "lazy"
            }
            fn on_start(&mut self, _ctx: &mut dyn SchedulerCtx) {}
            fn on_task_finished(&mut self, _ctx: &mut dyn SchedulerCtx, _d: &TaskInfo) {}
        }
        let mut cluster = make_cluster(Scenario::One);
        let cost = LinearCost::generic();
        let mut engine = SimEngine::new(&mut cluster, &cost);
        let err = engine.run(&mut LazyPolicy, 42).unwrap_err();
        assert!(matches!(err, RunError::Stalled { remaining: 42, .. }));
        let events = engine.last_events().expect("post-mortem events").events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Stalled { remaining: 42 })));
    }

    #[test]
    fn deterministic_across_runs() {
        let cost = LinearCost::generic();
        let run = || {
            let mut cluster = ClusterSim::build(
                &cluster_scenario(Scenario::Three, false),
                &ClusterOptions {
                    noise_sigma: 0.05,
                    seed: 9,
                    ..Default::default()
                },
            );
            SimEngine::new(&mut cluster, &cost)
                .run(&mut FixedBlockPolicy { block: 3_000 }, 300_000)
                .unwrap()
                .makespan
        };
        assert_eq!(run(), run());
    }
}
