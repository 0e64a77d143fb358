//! The real-thread host backend.
//!
//! Runs the same [`Policy`] implementations as the simulator, but on
//! actual host threads executing actual [`Codelet`] kernels with
//! wall-clock timing. Heterogeneity is realized by granting each
//! processing unit a different number of worker threads: a "GPU" unit is
//! simply a wide pool, a weak CPU a narrow one — honest, measurable
//! speed differences on one machine, which is what the examples
//! demonstrate.
//!
//! All scheduling decisions — assignment bookkeeping, retry, quarantine,
//! re-credit, deadlines, stall detection, event emission — live in the
//! shared scheduling core (the crate-private `core` module); this
//! module is only the wall-clock backend: per-unit worker threads fed
//! by channels, a completion channel back, and the loom-checked attempt
//! claim words that arbitrate worker results against the core's
//! watchdog.
//!
//! A unit runs one block at a time and holds at most one more queued
//! behind it in its channel: a worker that finishes a block starts the
//! next one itself, while the driver is still taking in the report, the
//! way StarPU's workers pull from their own queues. The backend keeps
//! the claim words of both, oldest first.
//!
//! # Fault tolerance
//!
//! The host path realizes the core's failure semantics on real threads
//! (see `docs/FAULT_TOLERANCE.md` for the full model):
//!
//! * **Panic isolation** — each kernel invocation runs under
//!   [`std::panic::catch_unwind`], so a panicking codelet marks its task
//!   failed instead of poisoning the worker; the unit stays usable.
//! * **Deadlines** — every running task gets a watchdog deadline of
//!   `deadline_factor × E_p(x)` (a queued block from the moment the
//!   block ahead of it ends), where `E_p(x)` is the policy's
//!   model-predicted block time (via
//!   [`crate::policy::SchedulerCtx::set_deadline_hint`]) or, absent a
//!   hint, the core's
//!   running per-item rate estimate. A blown deadline declares the unit
//!   lost: its worker may be wedged inside the kernel, so the thread is
//!   detached rather than joined and the unit never returns.
//! * **Retry / re-dispatch** — a failed block is retried in place with
//!   exponential backoff up to `max_retries` times; past that its items
//!   are re-credited to the shared pool, from which the policy's next
//!   `assign` hands them to a surviving unit (the ranges are recycled
//!   so the disjoint-cover guarantee over `0..total_items` still holds).
//! * **Quarantine** — `quarantine_after` consecutive failures remove the
//!   unit from the active set and notify the policy via
//!   `on_device_lost`, which for PLB-HeC re-solves the block-size split
//!   over the survivors. With a probation window configured, a
//!   quarantined (but not deadline-lost) unit is restored after
//!   `probation_s` and the policy told via `on_device_restored`.
//!
//! Deterministic faults are injected with a
//! [`FaultPlan`](crate::FaultPlan) shared with the simulator;
//! re-dispatch after a lost unit assumes idempotent codelets, exactly
//! like [`HostPerturbation`] re-execution does.
//!
//! The racy decisions above — result-arrival vs. watchdog-deadline,
//! quarantine/restore vs. permanent loss, failed-block re-credit vs.
//! run completion — are implemented on the explicit state machines in
//! [`crate::protocol`] and model-checked under loom (see
//! `docs/SOUNDNESS.md`).

use crate::codelet::{Codelet, PuResources};
use crate::core::{self, Backend, ClockKind, Launch, LaunchSpec, Polled, WorkPool};
use crate::engine::{Engine, RunError};
use crate::events::EventSink;
use crate::fault::FaultAction;
use crate::metrics::RunReport;
use crate::policy::{Policy, PuHandle};
use crate::protocol::AttemptSlot;
use crate::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use crate::sync::Arc;
use crate::task::{FailureReason, TaskId};
use crate::weights::Weights;
use plb_hetsim::{PuId, PuKind};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Configuration of one host processing unit.
#[derive(Debug, Clone)]
pub struct HostPu {
    /// Display name.
    pub name: String,
    /// Kind the unit models.
    pub kind: PuKind,
    /// Worker threads granted to the unit.
    pub threads: usize,
}

/// A QoS-drift injection for the host engine: once unit `pu` has
/// completed `after_tasks` tasks, its kernel is executed `repeat` times
/// per task, making it effectively `repeat`x slower *in real wall-clock
/// time*. Requires idempotent codelets (every shipped application kernel
/// writes pure functions of its inputs, so re-execution is safe).
///
/// Task-count triggering (rather than wall-clock) keeps tests and demos
/// deterministic under arbitrary machine load.
#[derive(Debug, Clone, Copy)]
pub struct HostPerturbation {
    /// Unit index the slowdown applies to.
    pub pu: usize,
    /// Number of completed tasks on that unit before the drift starts.
    pub after_tasks: u64,
    /// Kernel repetitions per task once active (1 = nominal).
    pub repeat: u32,
}

/// One dispatch of a block to a worker. The core resolves the fault
/// plan at launch time (it owns the per-unit attempt counters), so the
/// worker just obeys `inject`.
struct Assignment {
    task: TaskId,
    offset: u64,
    items: u64,
    /// 0-based attempt number of this block (0 = first dispatch).
    attempt: u32,
    /// Sleep this long before executing (retry backoff).
    backoff_s: f64,
    /// Injected fault for this attempt, if any.
    inject: Option<FaultAction>,
    /// Kernel-speed drift multiplier from the fault plan (≥ 1.0 here:
    /// a wall clock cannot speed real hardware up, so the core's factor
    /// is clamped at launch). Realized by sleeping the surplus of the
    /// measured kernel time inside the timed section, so the drift is
    /// visible to the policy's measurements exactly like background
    /// load would be.
    drift: f64,
    /// The attempt's claim word, shared with the core's watchdog: the
    /// worker must start it (`try_start`) before executing, and win it
    /// (`try_complete` / `try_fail`) before reporting, so a revoked
    /// block never runs and a deadline-claimed attempt reports nothing.
    /// See [`crate::protocol::AttemptSlot`].
    slot: Arc<AttemptSlot>,
}

struct Completion {
    pu: PuId,
    task: TaskId,
    proc_time: f64,
    started_at: f64,
}

/// What a worker reports back: a completed attempt or a caught panic.
enum WorkerMsg {
    Done(Completion),
    Failed { pu: PuId, task: TaskId },
}

/// The wall-clock backend: worker channels out, a completion channel
/// back, and the claim words of the attempts each unit holds. Mechanics
/// only — every decision is the scheduling core's.
struct HostBackend {
    units: Vec<HostUnit>,
    done_rx: Receiver<WorkerMsg>,
    epoch: Instant,
}

/// What the backend keeps per unit; no sender and no claim word once
/// the core forgot it.
struct HostUnit {
    /// The channel into the unit's worker thread.
    sender: Option<Sender<Assignment>>,
    /// The claim words of the attempts handed to the worker and not yet
    /// reported, in dispatch order: the one the core has in flight
    /// first, the one queued behind it second. The worker reports in
    /// the same order, so each report retires the front.
    slots: VecDeque<Arc<AttemptSlot>>,
}

impl Backend for HostBackend {
    fn clock_kind(&self) -> ClockKind {
        ClockKind::Wall
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn unit_ready(&self, pu: usize) -> bool {
        self.units.get(pu).is_some_and(|u| u.sender.is_some())
    }

    fn launch(&mut self, spec: &LaunchSpec) -> Launch {
        let Some(unit) = self.units.get_mut(spec.pu) else {
            return Launch::UnitGone;
        };
        let slot = Arc::new(AttemptSlot::queued());
        let sent = match unit.sender.as_ref() {
            Some(tx) => tx
                .send(Assignment {
                    task: spec.task,
                    offset: spec.offset,
                    items: spec.items,
                    attempt: spec.attempt,
                    backoff_s: spec.backoff_s,
                    inject: spec.inject,
                    drift: if spec.drift.is_finite() {
                        spec.drift.max(1.0)
                    } else {
                        1.0
                    },
                    slot: Arc::clone(&slot),
                })
                .is_ok(),
            None => false,
        };
        if !sent {
            return Launch::UnitGone;
        }
        unit.slots.push_back(slot);
        // Real start time is only known when the completion reports it.
        Launch::Started { start: None }
    }

    fn poll(&mut self, wake: Option<f64>, _events: &mut EventSink) -> Polled {
        let timeout = match wake {
            // Not `clamp`: a NaN wake must read as "now", not panic.
            Some(w) => 60f64.min((w - self.now()).max(0.0)),
            None => 60.0,
        };
        let (pu, polled) = match self.done_rx.recv_timeout(Duration::from_secs_f64(timeout)) {
            Ok(WorkerMsg::Done(c)) => (
                c.pu.0,
                Polled::Completed {
                    pu: c.pu.0,
                    task: c.task,
                    start: c.started_at,
                    xfer_s: 0.0,
                    proc_s: c.proc_time,
                    finish: c.started_at + c.proc_time,
                },
            ),
            Ok(WorkerMsg::Failed { pu, task }) => (
                pu.0,
                Polled::AttemptFailed {
                    pu: pu.0,
                    task,
                    reason: FailureReason::Panicked,
                },
            ),
            Err(RecvTimeoutError::Timeout) => return Polled::Timeout,
            Err(RecvTimeoutError::Disconnected) => {
                return Polled::Infrastructure {
                    detail: "all worker threads exited while tasks were in flight".into(),
                }
            }
        };
        // A forgotten unit holds no claim word, so its stale reports
        // retire nothing.
        if let Some(unit) = self.units.get_mut(pu) {
            unit.slots.pop_front();
        }
        polled
    }

    fn try_claim_timeout(&mut self, pu: usize) -> bool {
        let slot = self.units.get(pu).and_then(|u| u.slots.front());
        slot.is_some_and(|s| s.try_timeout())
    }

    fn forget_unit(&mut self, pu: usize) {
        if let Some(unit) = self.units.get_mut(pu) {
            unit.sender = None;
            // Dropping the sender does not take back a block already in
            // the channel: revoke it, so the worker skips it. One the
            // worker started anyway reports late, and the core drops
            // that report as stale.
            for slot in unit.slots.drain(..) {
                slot.try_revoke();
            }
        }
    }
}

/// Effective kernel repetitions for this unit's next task.
fn repeat_for(perturbations: &[HostPerturbation], pu: usize, done: u64) -> u32 {
    perturbations
        .iter()
        .filter(|p| p.pu == pu && done >= p.after_tasks)
        .map(|p| p.repeat.max(1))
        .max()
        .unwrap_or(1)
}

/// The host machine: a set of unit configurations and optional QoS
/// drift.
pub struct HostMachine {
    pus: Vec<HostPu>,
    perturbations: Vec<HostPerturbation>,
}

/// The real-thread engine: [`Engine`] over host units.
///
/// ```
/// use plb_hetsim::PuKind;
/// use plb_runtime::{FixedBlockPolicy, FnCodelet, HostEngine, HostPu};
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // Relaxed is sufficient for this counter: it publishes no other
/// // memory, fetch_add is atomic under any ordering, and the final
/// // load below happens-after every increment because `run` joins its
/// // worker threads before returning.
/// let counter = Arc::new(AtomicU64::new(0));
/// let c2 = Arc::clone(&counter);
/// let codelet = Arc::new(FnCodelet::new("count", move |range, _res| {
///     c2.fetch_add(range.end - range.start, Ordering::Relaxed);
/// }));
///
/// let mut engine = HostEngine::new(vec![
///     HostPu { name: "wide".into(), kind: PuKind::Gpu, threads: 2 },
///     HostPu { name: "narrow".into(), kind: PuKind::Cpu, threads: 1 },
/// ]);
/// let mut policy = FixedBlockPolicy { block: 100 };
/// let report = engine.run(&mut policy, codelet, 1_000).unwrap();
/// assert_eq!(report.total_items, 1_000);
/// assert_eq!(counter.load(Ordering::Relaxed), 1_000);
/// ```
pub type HostEngine = Engine<HostMachine>;

impl HostEngine {
    /// Create an engine with the given processing units.
    pub fn new(pus: Vec<HostPu>) -> HostEngine {
        assert!(!pus.is_empty(), "host engine needs at least one unit");
        assert!(pus.iter().all(|p| p.threads > 0), "each unit needs threads");
        Engine::over(HostMachine {
            pus,
            perturbations: Vec::new(),
        })
    }

    /// Schedule QoS-drift injections (idempotent codelets required; see
    /// [`HostPerturbation`]).
    pub fn with_perturbations(mut self, p: Vec<HostPerturbation>) -> HostEngine {
        self.machine.perturbations = p;
        self
    }

    /// Run `total_items` of `codelet` under `policy`, with real
    /// execution and wall-clock timing. Delegates to the shared
    /// scheduling core over a wall-clock backend.
    pub fn run(
        &mut self,
        policy: &mut dyn Policy,
        codelet: Arc<dyn Codelet>,
        total_items: u64,
    ) -> Result<RunReport, RunError> {
        self.run_range(policy, codelet, 0..total_items)
    }

    /// Run the global item range `items` of `codelet` under `policy`:
    /// the whole space for [`run`](HostEngine::run), one node's chunk
    /// for [`HostNodeRunner`]. The kernel sees global ranges.
    pub(crate) fn run_range(
        &mut self,
        policy: &mut dyn Policy,
        codelet: Arc<dyn Codelet>,
        items: Range<u64>,
    ) -> Result<RunReport, RunError> {
        let host = &self.machine;
        let n = host.pus.len();
        let epoch = Instant::now();
        let (done_tx, done_rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = channel();

        // One worker thread per unit; the kernel widens itself to the
        // unit's `threads` (`PuResources::for_each_chunk`). A spawn
        // failure tears down what exists and reports infrastructure
        // loss instead of panicking.
        let mut senders: Vec<Sender<Assignment>> = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        for (i, pu) in host.pus.iter().enumerate() {
            let (tx, rx): (Sender<Assignment>, Receiver<Assignment>) = channel();
            let done = done_tx.clone();
            let codelet = Arc::clone(&codelet);
            let res = PuResources {
                threads: pu.threads,
                kind: pu.kind,
            };
            let perturbations = host.perturbations.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("hostpu{i}"))
                .spawn(move || {
                    let mut attempts_run = 0u64;
                    while let Ok(a) = rx.recv() {
                        if a.backoff_s > 0.0 && a.backoff_s.is_finite() {
                            std::thread::sleep(Duration::from_secs_f64(a.backoff_s));
                        }
                        // A block the core revoked (its unit written
                        // off) or timed out before it began never runs.
                        if !a.slot.try_start() {
                            continue;
                        }
                        let started_at = epoch.elapsed().as_secs_f64();
                        let repeat = repeat_for(&perturbations, i, attempts_run);
                        let t0 = Instant::now();
                        // Catch codelet panics so one bad kernel marks
                        // its task failed instead of killing the worker.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                match a.inject {
                                    Some(FaultAction::Delay(s)) if s.is_finite() && s > 0.0 => {
                                        std::thread::sleep(Duration::from_secs_f64(s));
                                    }
                                    Some(FaultAction::Panic) => {
                                        panic!("injected fault: panic on attempt {}", a.attempt);
                                    }
                                    Some(FaultAction::Delay(_)) | None => {}
                                }
                                for _ in 0..repeat {
                                    codelet.execute(a.offset..a.offset + a.items, &res);
                                }
                            }));
                        // Realize drift: stretch the attempt by the
                        // surplus fraction of its own measured kernel
                        // time, inside the timed section, so measured
                        // `proc_time` reflects the drifted speed.
                        if outcome.is_ok() && a.drift > 1.0 {
                            let busy = t0.elapsed().as_secs_f64();
                            let extra = (a.drift - 1.0) * busy;
                            if extra.is_finite() && extra > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(extra));
                            }
                        }
                        let proc_time = t0.elapsed().as_secs_f64();
                        attempts_run += 1;
                        // Win the attempt's claim word before reporting:
                        // if the watchdog claimed the deadline first,
                        // the block was already re-dispatched and this
                        // outcome is stale — report nothing. Exactly
                        // one side of the race acts (see
                        // `protocol::AttemptSlot` and its loom model).
                        let msg = match outcome {
                            Ok(()) => {
                                if !a.slot.try_complete() {
                                    continue;
                                }
                                WorkerMsg::Done(Completion {
                                    pu: PuId(i),
                                    task: a.task,
                                    proc_time,
                                    started_at,
                                })
                            }
                            Err(_) => {
                                if !a.slot.try_fail() {
                                    continue;
                                }
                                WorkerMsg::Failed {
                                    pu: PuId(i),
                                    task: a.task,
                                }
                            }
                        };
                        if done.send(msg).is_err() {
                            break;
                        }
                    }
                });
            match spawned {
                Ok(h) => {
                    senders.push(tx);
                    joins.push(h);
                }
                Err(e) => {
                    drop(senders);
                    for j in joins {
                        let _ = j.join();
                    }
                    return Err(RunError::Infrastructure {
                        detail: format!("worker thread spawn for unit {i}: {e}"),
                    });
                }
            }
        }
        drop(done_tx);

        let handles: Vec<PuHandle> = host
            .pus
            .iter()
            .enumerate()
            .map(|(i, p)| PuHandle {
                id: PuId(i),
                name: p.name.clone(),
                kind: p.kind,
                machine: 0,
                available: true,
            })
            .collect();
        let unit = |tx| HostUnit {
            sender: Some(tx),
            slots: VecDeque::with_capacity(2),
        };
        let mut backend = HostBackend {
            units: senders.into_iter().map(unit).collect(),
            done_rx,
            epoch,
        };
        let cfg = self.cfg.for_run();
        let pool = WorkPool::over(items, Arc::clone(&cfg.weights));
        let outcome = core::drive(&mut backend, handles, policy, pool, cfg);

        // Shut healthy workers down; threads of lost units may be wedged
        // inside a kernel and are detached instead of joined.
        drop(backend);
        let mut join_failed = false;
        for (j, &lost) in joins.into_iter().zip(&outcome.lost) {
            if !lost && j.join().is_err() {
                join_failed = true;
            }
        }
        let report = self.keep(outcome)?;
        if join_failed {
            // The codelet guard catches kernel panics, so a panicking
            // worker thread means engine infrastructure broke.
            return Err(RunError::Infrastructure {
                detail: "a worker thread panicked outside the codelet guard".into(),
            });
        }
        Ok(report)
    }
}

/// The real-thread node runner for the cluster tier
/// ([`crate::ClusterEngine`]): each node is a set of host units, and
/// every chunk runs a nested [`HostEngine`] over them with the node's
/// own persistent intra-node policy. Worker threads live for one chunk
/// (spawned per `run_chunk`), which keeps node executions isolated —
/// a wedged kernel in one chunk cannot leak threads into the next.
pub struct HostNodeRunner {
    names: Vec<String>,
    pus: Vec<Vec<HostPu>>,
    policies: Vec<Box<dyn Policy>>,
    codelet: Arc<dyn Codelet>,
    weights: Arc<Weights>,
}

impl HostNodeRunner {
    /// Build a runner from per-node unit rosters and per-node intra-node
    /// policies (equal lengths), the application codelet, and the
    /// *global* per-item cost table (chunks run in global item
    /// coordinates against both). Codelets must be idempotent — the same
    /// contract single-node re-dispatch already requires.
    pub fn new(
        names: Vec<String>,
        pus: Vec<Vec<HostPu>>,
        policies: Vec<Box<dyn Policy>>,
        codelet: Arc<dyn Codelet>,
        weights: Arc<Weights>,
    ) -> HostNodeRunner {
        HostNodeRunner {
            names,
            pus,
            policies,
            codelet,
            weights,
        }
    }
}

impl crate::core::cluster::NodeRunner for HostNodeRunner {
    fn node_count(&self) -> usize {
        self.pus.len().min(self.policies.len())
    }

    fn node_name(&self, node: usize) -> String {
        self.names
            .get(node)
            .cloned()
            .unwrap_or_else(|| format!("node{node}"))
    }

    fn run_chunk(
        &mut self,
        node: usize,
        offset: u64,
        items: u64,
    ) -> Result<crate::core::cluster::ChunkOutcome, String> {
        let Some(pus) = self.pus.get(node) else {
            return Err(format!("unknown node {node}"));
        };
        let Some(policy) = self.policies.get_mut(node) else {
            return Err(format!("no policy for node {node}"));
        };
        if pus.is_empty() {
            return Err(format!("node {node} has no units"));
        }
        let report = HostEngine::new(pus.clone())
            .with_weights(Arc::clone(&self.weights))
            .run_range(
                policy.as_mut(),
                Arc::clone(&self.codelet),
                offset..offset.saturating_add(items),
            )
            .map_err(|e| e.to_string())?;
        Ok(crate::core::cluster::ChunkOutcome {
            makespan_s: report.makespan,
            bytes_in: report.pus.iter().map(|p| p.bytes_in).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::FnCodelet;
    use crate::events::EventKind;
    use crate::policy::{FixedBlockPolicy, SchedulerCtx};
    use crate::task::TaskInfo;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn two_unequal_pus() -> Vec<HostPu> {
        vec![
            HostPu {
                name: "wide".into(),
                kind: PuKind::Gpu,
                threads: 4,
            },
            HostPu {
                name: "narrow".into(),
                kind: PuKind::Cpu,
                threads: 1,
            },
        ]
    }

    #[test]
    fn processes_every_item_exactly_once() {
        let touched = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&touched);
        let codelet = Arc::new(FnCodelet::new("sum", move |r, _| {
            t2.fetch_add(r.end - r.start, Ordering::Relaxed);
        }));
        let mut engine = HostEngine::new(two_unequal_pus());
        let report = engine
            .run(&mut FixedBlockPolicy { block: 137 }, codelet, 10_000)
            .unwrap();
        assert_eq!(report.total_items, 10_000);
        assert_eq!(touched.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn ranges_are_disjoint_and_cover() {
        use crate::sync::Mutex;
        let ranges = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&ranges);
        let codelet = Arc::new(FnCodelet::new("collect", move |r, _| {
            r2.lock().push(r);
        }));
        let mut engine = HostEngine::new(two_unequal_pus());
        let report = engine
            .run(&mut FixedBlockPolicy { block: 97 }, codelet, 1000)
            .unwrap();
        assert_eq!(report.total_items, 1000);
        let mut got = ranges.lock().clone();
        got.sort_by_key(|r| r.start);
        let mut expect = 0;
        for r in got {
            assert_eq!(r.start, expect, "gap or overlap in ranges");
            expect = r.end;
        }
        assert_eq!(expect, 1000);
    }

    #[test]
    fn stalled_policy_reported() {
        struct Never;
        impl Policy for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn on_start(&mut self, _: &mut dyn SchedulerCtx) {}
            fn on_task_finished(&mut self, _: &mut dyn SchedulerCtx, _: &TaskInfo) {}
        }
        let codelet = Arc::new(FnCodelet::new("noop", |_, _| {}));
        let mut engine = HostEngine::new(two_unequal_pus());
        let err = engine.run(&mut Never, codelet, 10).unwrap_err();
        assert!(matches!(err, RunError::Stalled { remaining: 10, .. }));
    }

    #[test]
    fn stalled_run_preserves_events() {
        // Host-engine twin of the simulator test of the same name: a
        // stalled run still exposes its partial event stream.
        struct Never;
        impl Policy for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn on_start(&mut self, _: &mut dyn SchedulerCtx) {}
            fn on_task_finished(&mut self, _: &mut dyn SchedulerCtx, _: &TaskInfo) {}
        }
        let codelet = Arc::new(FnCodelet::new("noop", |_, _| {}));
        let mut engine = HostEngine::new(two_unequal_pus());
        let err = engine.run(&mut Never, codelet, 42).unwrap_err();
        assert!(matches!(err, RunError::Stalled { remaining: 42, .. }));
        let events = engine.last_events().expect("post-mortem events").events();
        assert!(matches!(events[0].kind, EventKind::RunStart { .. }));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Stalled { remaining: 42 })));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_units_panic() {
        HostEngine::new(vec![]);
    }

    #[test]
    fn qos_drift_slows_the_unit_measurably() {
        // Drift repeats the kernel: repeat=4 after 2 tasks runs the last
        // two of four tasks four times each. The kernel counts its calls,
        // so the repeat is asserted exactly; the wall-time ratio it makes
        // is not asserted, since a busy machine can squeeze it below any
        // fixed bound.
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let codelet = Arc::new(FnCodelet::new("count", move |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        }));
        let mut engine = HostEngine::new(vec![HostPu {
            name: "solo".into(),
            kind: PuKind::Cpu,
            threads: 1,
        }])
        .with_perturbations(vec![HostPerturbation {
            pu: 0,
            after_tasks: 2,
            repeat: 4,
        }]);
        let mut policy = FixedBlockPolicy { block: 20_000 };
        let _ = engine.run(&mut policy, codelet, 80_000).unwrap();
        assert_eq!(engine.last_trace().unwrap().segments().len(), 4);
        assert_eq!(calls.load(Ordering::Relaxed), 2 + 2 * 4);
    }

    #[test]
    fn repeat_for_picks_strongest_active_drift() {
        let p = vec![
            HostPerturbation {
                pu: 0,
                after_tasks: 2,
                repeat: 3,
            },
            HostPerturbation {
                pu: 0,
                after_tasks: 5,
                repeat: 7,
            },
            HostPerturbation {
                pu: 1,
                after_tasks: 0,
                repeat: 2,
            },
        ];
        assert_eq!(repeat_for(&p, 0, 0), 1);
        assert_eq!(repeat_for(&p, 0, 2), 3);
        assert_eq!(repeat_for(&p, 0, 9), 7);
        assert_eq!(repeat_for(&p, 1, 0), 2);
        assert_eq!(repeat_for(&p, 2, 100), 1);
    }

    #[test]
    fn events_recorded_on_host_runs() {
        let codelet = Arc::new(FnCodelet::new("noop", |_, _| {}));
        let mut engine = HostEngine::new(two_unequal_pus());
        let report = engine
            .run(&mut FixedBlockPolicy { block: 250 }, codelet, 1_000)
            .unwrap();
        let events = engine.last_events().expect("events recorded").events();
        assert!(matches!(events[0].kind, EventKind::RunStart { .. }));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::RunEnd { .. }
        ));
        assert_eq!(report.events.tasks_finished, report.tasks as u64);
        assert_eq!(report.events.tasks_submitted, report.tasks as u64);
    }

    #[test]
    fn trace_recorded_with_wall_times() {
        let codelet = Arc::new(FnCodelet::new("spin", |r, _| {
            // A tiny busy loop so proc times are nonzero.
            let mut acc = 0u64;
            for i in r {
                acc = acc.wrapping_add(i).rotate_left(7);
            }
            std::hint::black_box(acc);
        }));
        let mut engine = HostEngine::new(two_unequal_pus());
        let report = engine
            .run(&mut FixedBlockPolicy { block: 50_000 }, codelet, 200_000)
            .unwrap();
        assert!(report.makespan > 0.0);
        let trace = engine.last_trace().unwrap();
        assert!(!trace.segments().is_empty());
        assert!(trace.segments().iter().all(|s| s.end >= s.start));
    }
}
