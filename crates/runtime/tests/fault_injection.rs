//! Fault-injection suite: deterministic chaos for both engines.
//!
//! Exercises the failure semantics documented in
//! `docs/FAULT_TOLERANCE.md`: panic isolation, in-place retry with
//! backoff, quarantine with redistribution, the host watchdog's
//! deadline path, probation restores, and the accounting invariants
//! (`RunReport` counters, trace coverage) that must survive all of it.

use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, PuId, PuKind, Scenario};
use plb_runtime::{
    gantt_segments, Codelet, EventKind, Fault, FaultKind, FaultPlan, FaultToleranceConfig,
    FixedBlockPolicy, FnCodelet, HostEngine, HostPu, Policy, RunError, SchedulerCtx, SimEngine,
    TaskFailure, TaskInfo,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn quiet_cluster(s: Scenario) -> ClusterSim {
    ClusterSim::build(
        &cluster_scenario(s, false),
        &ClusterOptions {
            noise_sigma: 0.0,
            ..Default::default()
        },
    )
}

fn panic_on(pu: usize, nth: u64) -> FaultPlan {
    FaultPlan::new(vec![Fault {
        pu,
        kind: FaultKind::PanicOnAttempt { nth },
    }])
}

fn flaky(pu: usize, attempts: u64) -> FaultPlan {
    FaultPlan::new(vec![Fault {
        pu,
        kind: FaultKind::FlakyUntil { attempts },
    }])
}

/// A fixed-block policy that also re-dispatches re-credited items: on
/// every callback it tops up each idle available unit. This is the
/// minimal "fault-aware" policy shape the engines are designed around.
struct RedispatchPolicy {
    block: u64,
}

impl RedispatchPolicy {
    fn pump(&self, ctx: &mut dyn SchedulerCtx) {
        let ids: Vec<PuId> = ctx
            .pus()
            .iter()
            .filter(|p| p.available)
            .map(|p| p.id)
            .collect();
        for id in ids {
            if ctx.remaining_items() == 0 {
                break;
            }
            if !ctx.is_busy(id) {
                ctx.assign(id, self.block);
            }
        }
    }
}

impl Policy for RedispatchPolicy {
    fn name(&self) -> &str {
        "redispatch"
    }
    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        self.pump(ctx);
    }
    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, _done: &TaskInfo) {
        self.pump(ctx);
    }
    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, _pu: PuId) {
        self.pump(ctx);
    }
    fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, _pu: PuId) {
        self.pump(ctx);
    }
    fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, _failure: &TaskFailure) {
        self.pump(ctx);
    }
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

#[test]
fn sim_panic_is_retried_then_succeeds() {
    let mut cluster = quiet_cluster(Scenario::Two);
    let cost = LinearCost::generic();
    let report = SimEngine::new(&mut cluster, &cost)
        .with_faults(panic_on(0, 0))
        .run(&mut FixedBlockPolicy { block: 5_000 }, 100_000)
        .expect("one panic must not sink the run");
    assert_eq!(report.total_items, 100_000);
    assert_eq!(report.events.task_failures, 1);
    assert_eq!(report.events.task_retries, 1);
    assert_eq!(report.events.quarantines, 0);
    // The unit survived its one bad attempt and kept working.
    assert!(report.pus[0].items > 0);
}

#[test]
fn sim_retry_event_carries_backoff() {
    let mut cluster = quiet_cluster(Scenario::Two);
    let cost = LinearCost::generic();
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(panic_on(1, 0));
    let report = engine
        .run(&mut FixedBlockPolicy { block: 5_000 }, 100_000)
        .expect("run completes");
    assert_eq!(report.total_items, 100_000);
    let events = engine.last_events().expect("events recorded").events();
    let retry = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::TaskRetry {
                attempt, backoff_s, ..
            } => Some((attempt, backoff_s)),
            _ => None,
        })
        .expect("a retry event must be recorded");
    assert_eq!(retry.0, 1, "first retry is attempt 1");
    assert!(retry.1 > 0.0, "retry backs off");
    // The failure precedes its retry in the stream.
    let fail_pos = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::TaskFailed { .. }))
        .expect("failure recorded");
    let retry_pos = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::TaskRetry { .. }))
        .expect("retry recorded");
    assert!(fail_pos < retry_pos);
}

#[test]
fn sim_flaky_unit_is_quarantined_and_work_redistributed() {
    let mut cluster = quiet_cluster(Scenario::Two);
    let cost = LinearCost::generic();
    // The unit panics on its first 10 attempts; with the default
    // quarantine threshold of 3 consecutive failures it never gets that
    // far: attempt 0 fails, two in-place retries fail, quarantine.
    let report = SimEngine::new(&mut cluster, &cost)
        .with_faults(flaky(0, 10))
        .run(&mut RedispatchPolicy { block: 5_000 }, 100_000)
        .expect("survivors absorb the flaky unit's work");
    assert_eq!(report.total_items, 100_000);
    assert_eq!(report.events.task_failures, 3);
    assert_eq!(report.events.task_retries, 2);
    assert_eq!(report.events.quarantines, 1);
    assert_eq!(report.events.device_failures, 1);
    assert_eq!(report.pus[0].items, 0, "quarantined unit completed nothing");
}

#[test]
fn sim_completion_only_policy_stalls_when_survivors_drain_first() {
    // The other half of the contract: the engine re-credits a
    // quarantined unit's block to the pool and tells the policy
    // (`on_task_failed`, `on_device_lost`) — it assigns nothing itself.
    // `FixedBlockPolicy` assigns only on start and on a completion, and
    // here the four healthy units finish the other 95 000 items while
    // unit 0 is still sitting out its retry back-offs, so when the
    // quarantine lands nobody is left to hand the 5 000 re-credited
    // items to. That is reported as a stall with the remainder — not a
    // hang, not a run that "completes" short.
    let mut cluster = quiet_cluster(Scenario::Two);
    let cost = LinearCost::generic();
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(flaky(0, 10));
    let err = engine
        .run(&mut FixedBlockPolicy { block: 5_000 }, 100_000)
        .expect_err("nobody re-dispatches the re-credited block");
    assert!(
        matches!(
            err,
            RunError::Stalled {
                remaining: 5_000,
                ..
            }
        ),
        "{err:?}"
    );
    let events = engine.last_events().expect("post-mortem events").events();
    let quarantined_at = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::PuQuarantined { .. }))
        .expect("the flaky unit was quarantined");
    let last_finish = events
        .iter()
        .rposition(|e| matches!(e.kind, EventKind::TaskFinish { .. }))
        .expect("the survivors completed work");
    assert!(
        last_finish < quarantined_at,
        "the survivors had drained the pool before the quarantine landed"
    );
}

#[test]
fn sim_all_units_quarantined_stalls_with_partial_events() {
    let mut cluster = quiet_cluster(Scenario::One);
    let n_pus = cluster.ids().count();
    let cost = LinearCost::generic();
    let plan = FaultPlan::new(
        (0..n_pus)
            .map(|pu| Fault {
                pu,
                kind: FaultKind::FlakyUntil { attempts: u64::MAX },
            })
            .collect(),
    );
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(plan);
    let err = engine
        .run(&mut FixedBlockPolicy { block: 1_000 }, 50_000)
        .expect_err("no unit can make progress");
    assert!(matches!(err, RunError::Stalled { remaining, .. } if remaining > 0));
    // The post-mortem stream shows what happened: every unit was
    // quarantined and the run stalled immediately, not after a replay
    // of the remaining event queue.
    let sink = engine.last_events().expect("post-mortem events");
    let events = sink.events();
    let quarantines = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PuQuarantined { .. }))
        .count();
    assert_eq!(quarantines, n_pus);
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Stalled { .. })));
}

#[test]
fn sim_injected_delay_stretches_makespan() {
    let cost = LinearCost::generic();
    let mut base_cluster = quiet_cluster(Scenario::One);
    let base = SimEngine::new(&mut base_cluster, &cost)
        .run(&mut FixedBlockPolicy { block: 10_000 }, 200_000)
        .expect("baseline run")
        .makespan;
    let mut slow_cluster = quiet_cluster(Scenario::One);
    let slowed = SimEngine::new(&mut slow_cluster, &cost)
        .with_faults(FaultPlan::new(vec![Fault {
            pu: 0,
            kind: FaultKind::Delay {
                from: 0,
                attempts: 5,
                seconds: 0.5,
            },
        }]))
        .run(&mut FixedBlockPolicy { block: 10_000 }, 200_000)
        .expect("delayed run completes");
    assert_eq!(slowed.total_items, 200_000);
    // The first delayed task alone pins the makespan at >= 0.5s.
    assert!(
        slowed.makespan >= 0.5 && slowed.makespan > base,
        "injected delays must show up in the makespan: {base} -> {}",
        slowed.makespan
    );
}

#[test]
fn sim_faulty_runs_are_deterministic() {
    let cost = LinearCost::generic();
    let run = || {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::Two, false),
            &ClusterOptions {
                noise_sigma: 0.05,
                seed: 11,
                ..Default::default()
            },
        );
        let report = SimEngine::new(&mut cluster, &cost)
            .with_faults(flaky(1, 10))
            .run(&mut RedispatchPolicy { block: 3_000 }, 150_000)
            .expect("run completes");
        (
            report.makespan,
            report.events.task_failures,
            report.events.task_retries,
            report.events.quarantines,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn sim_trace_times_stay_monotone_under_faults() {
    let mut cluster = quiet_cluster(Scenario::Two);
    let cost = LinearCost::generic();
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(flaky(0, 10));
    let report = engine
        .run(&mut RedispatchPolicy { block: 5_000 }, 100_000)
        .expect("run completes");
    assert_eq!(report.total_items, 100_000);
    let events = engine.last_events().expect("events recorded").events();
    let mut last: std::collections::HashMap<usize, f64> = Default::default();
    for e in &events {
        if let Some(p) = e.pu {
            let prev = last.entry(p).or_insert(f64::NEG_INFINITY);
            assert!(e.t >= *prev, "event time regressed on pu {p}");
            *prev = e.t;
        }
    }
    // Compute segments on one unit never overlap.
    let segments = gantt_segments(&events);
    for pu in 0..report.pus.len() {
        let mut segs: Vec<_> = segments.iter().filter(|s| s.pu == pu).collect();
        segs.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in segs.windows(2) {
            assert!(
                w[1].start >= w[0].end - 1e-9,
                "overlapping segments on pu {pu}"
            );
        }
    }
}

/// A unit can start a run unavailable without being quarantined: a
/// device an earlier run on the same cluster left failed, as inside a
/// cluster-tier node across chunks. Such a unit is latent. A due join
/// admits it, a snapshot records it as neither quarantined nor lost,
/// and a `Restore` perturbation brings it up.
#[test]
fn sim_a_unit_that_starts_failed_is_latent() {
    let cost = LinearCost::generic();
    let failed_cluster = || {
        let mut cl = quiet_cluster(Scenario::One);
        cl.device_mut(PuId(1)).fail();
        cl
    };
    let join = |after_tasks| {
        FaultPlan::new(vec![Fault {
            pu: 1,
            kind: FaultKind::Join { after_tasks },
        }])
    };
    let on_unit_1 = |events: &plb_runtime::EventSink, kind: EventKind| {
        events
            .iter()
            .filter(|e| e.pu == Some(1) && e.kind == kind)
            .count()
    };

    // The join is due after three completions: it admits the unit.
    let mut cl = failed_cluster();
    let mut policy = RedispatchPolicy { block: 1_000 };
    let mut engine = SimEngine::new(&mut cl, &cost).with_faults(join(3));
    let report = engine.run(&mut policy, 40_000).expect("run completes");
    let events = engine.last_events().expect("events recorded");
    let joined = EventKind::PuJoined { after_tasks: 3 };
    assert_eq!(on_unit_1(events, joined), 1);
    assert!(report.pus[1].items > 0, "{:?}", report.pus[1]);
    assert_eq!(report.cover, vec![(0, 40_000)]);
    assert_eq!(report.events.quarantines, 0);

    // The join never comes due: the final snapshot holds the unit as
    // waiting, not as down.
    let path = std::env::temp_dir().join(format!("plb-latent-{}.json", std::process::id()));
    let mut cl = failed_cluster();
    let mut policy = RedispatchPolicy { block: 1_000 };
    let report = SimEngine::new(&mut cl, &cost)
        .with_faults(join(1_000_000))
        .with_checkpoint(plb_runtime::CheckpointConfig::new(&path))
        .run(&mut policy, 40_000)
        .expect("run completes");
    assert_eq!(report.pus[1].items, 0);
    let ckpt = plb_runtime::checkpoint::load(&path).expect("snapshot written");
    std::fs::remove_file(&path).expect("snapshot removed");
    let unit = &ckpt.units[1];
    assert_eq!((unit.quarantined, unit.lost), (false, false), "{unit:?}");

    // A restore brings the unit up, with its join still pending.
    let mut cl = failed_cluster();
    let mut policy = RedispatchPolicy { block: 1_000 };
    let restore = plb_runtime::Perturbation {
        at: 1e-3,
        kind: plb_runtime::PerturbationKind::Restore(PuId(1)),
    };
    let mut engine = SimEngine::new(&mut cl, &cost)
        .with_faults(join(1_000_000))
        .with_perturbations(vec![restore]);
    let report = engine.run(&mut policy, 40_000).expect("run completes");
    let events = engine.last_events().expect("events recorded");
    assert_eq!(on_unit_1(events, EventKind::DeviceRestored), 1);
    assert!(report.pus[1].items > 0, "{:?}", report.pus[1]);
    assert_eq!(report.cover, vec![(0, 40_000)]);
}

// ---------------------------------------------------------------------
// Host engine
// ---------------------------------------------------------------------

fn host_pus() -> Vec<HostPu> {
    vec![
        HostPu {
            name: "wide".into(),
            kind: PuKind::Gpu,
            threads: 2,
        },
        HostPu {
            name: "narrow".into(),
            kind: PuKind::Cpu,
            threads: 1,
        },
    ]
}

#[test]
fn host_panic_mid_block_is_retried_and_nothing_is_lost() {
    // Injected panics fire *before* the kernel body, so every item is
    // executed exactly once even under retries — assert the exact
    // disjoint cover.
    let ranges = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&ranges);
    let codelet = Arc::new(FnCodelet::new("collect", move |r, _| {
        r2.lock().expect("no holder panics").push(r);
    }));
    let mut engine = HostEngine::new(host_pus()).with_faults(panic_on(1, 0));
    let report = engine
        .run(&mut RedispatchPolicy { block: 100 }, codelet, 1_000)
        .expect("a single panic must not sink the run");
    assert_eq!(report.total_items, 1_000);
    assert!(report.events.task_failures >= 1);
    assert!(report.events.task_retries >= 1);
    assert_eq!(report.events.quarantines, 0);
    let mut got = ranges.lock().expect("no holder panics").clone();
    got.sort_by_key(|r| r.start);
    let mut expect = 0;
    for r in got {
        assert_eq!(r.start, expect, "gap or overlap in executed ranges");
        expect = r.end;
    }
    assert_eq!(expect, 1_000);
}

#[test]
fn host_panic_inside_one_chunk_of_a_wide_unit_fails_the_task_not_the_worker() {
    // A `threads: 3` unit splits its block over three scoped threads
    // (`PuResources::for_each_chunk`). The first time round, the chunk
    // holding item 40 panics on one of them: the scope re-raises it on
    // the worker thread once the sibling chunks are done, the worker's
    // codelet guard turns it into a failed attempt, and the same worker
    // then runs the retry — a dead worker would stall the run instead.
    let panicked = Arc::new(AtomicU64::new(0));
    let touched = Arc::new(AtomicU64::new(0));
    let (p2, t2) = (Arc::clone(&panicked), Arc::clone(&touched));
    let codelet = Arc::new(FnCodelet::new("chunked", move |r, res| {
        res.for_each_chunk(r, |sub| {
            if sub.contains(&40) && p2.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("kernel bug in chunk {sub:?}");
            }
            t2.fetch_add(sub.end - sub.start, Ordering::Relaxed);
        });
    }));
    let mut engine = HostEngine::new(vec![HostPu {
        name: "wide".into(),
        kind: PuKind::Gpu,
        threads: 3,
    }])
    .with_fault_tolerance(FaultToleranceConfig::default().with_backoff_base(0.005));
    let report = engine
        .run(&mut RedispatchPolicy { block: 90 }, codelet, 900)
        .expect("one panicking chunk must not sink the run");
    assert_eq!(report.total_items, 900);
    assert_eq!(report.events.task_failures, 1);
    assert_eq!(report.events.task_retries, 1);
    assert_eq!(report.events.quarantines, 0);
    let events = engine.last_events().expect("events recorded").events();
    assert!(events.iter().any(|e| matches!(
        &e.kind,
        EventKind::TaskFailed { reason, .. } if reason == "panic"
    )));
    // The failed attempt's two sibling chunks (30 items each) ran to
    // the end before the panic surfaced; the retry redid all 90.
    assert_eq!(touched.load(Ordering::Relaxed), 900 + 60);
}

#[test]
fn host_deadline_blowout_loses_unit_and_survivors_finish() {
    // The narrow unit completes its first block (establishing a rate
    // estimate), then hangs inside the kernel on its second. The
    // watchdog declares it lost at the deadline; its block re-runs on
    // the survivor. The wedged thread is detached, so the run must end
    // long before its 30 s sleep does.
    //
    // The verdict does not depend on which thread runs when: the wide
    // unit's blocks wait on a latch that the narrow unit's second
    // kernel opens as it starts to hang, so the pool cannot drain
    // before that block is out. The hang is the kernel's own; that an
    // *injected* `FaultKind::Delay` meets the watchdog the same way is
    // `tests/integration_faults.rs::plb_hec_host_run_survives_panic_and_hang`'s
    // to assert, not this test's.
    let touched = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&touched);
    let hung = (Mutex::new(false), Condvar::new());
    let narrow_blocks = AtomicU64::new(0);
    let codelet = Arc::new(FnCodelet::new("hang-on-second", move |r, res| {
        let (open, opened) = &hung;
        if res.threads == 1 {
            if narrow_blocks.fetch_add(1, Ordering::SeqCst) == 1 {
                *open.lock().expect("no holder panics") = true;
                opened.notify_all();
                std::thread::sleep(Duration::from_secs(30));
            }
        } else {
            let held = open.lock().expect("no holder panics");
            let (_held, timeout) = opened
                .wait_timeout_while(held, Duration::from_secs(20), |open| !*open)
                .expect("no holder panics");
            assert!(!timeout.timed_out(), "the narrow unit never hung");
        }
        t2.fetch_add(r.end - r.start, Ordering::Relaxed);
    }));
    let ft = FaultToleranceConfig::default()
        .with_min_deadline(0.2)
        .with_deadline_factor(5.0);
    let t0 = std::time::Instant::now();
    let mut engine = HostEngine::new(host_pus()).with_fault_tolerance(ft);
    let report = engine
        .run(&mut RedispatchPolicy { block: 100 }, codelet, 1_000)
        .expect("the survivor absorbs the hung unit's block");
    assert!(
        t0.elapsed().as_secs_f64() < 20.0,
        "the watchdog, not the hung kernel, must end the wait"
    );
    assert_eq!(report.total_items, 1_000);
    // The narrow unit finished one block and was lost on its second.
    assert_eq!(report.pus[1].items, 100);
    assert_eq!(report.events.task_failures, 1);
    assert_eq!(report.events.device_failures, 1);
    let events = engine.last_events().expect("events recorded").events();
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EventKind::TaskFailed { reason, .. } if reason == "deadline"
        )),
        "the blown deadline must be attributed as such"
    );
    // Everything completed once; the wedged worker is still asleep and
    // has not counted its block.
    assert_eq!(touched.load(Ordering::Relaxed), 1_000);
}

#[test]
fn host_flaky_unit_recovers_after_probation() {
    // A single-unit engine: the unit panics its first three attempts
    // (one dispatch + two retries), is quarantined, sits out the 200ms
    // probation with the engine idling, is restored, and finishes the
    // whole workload healthy.
    let touched = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&touched);
    let codelet = Arc::new(FnCodelet::new("count", move |r, _| {
        t2.fetch_add(r.end - r.start, Ordering::Relaxed);
    }));
    let mut engine = HostEngine::new(vec![HostPu {
        name: "solo".into(),
        kind: PuKind::Cpu,
        threads: 1,
    }])
    .with_faults(flaky(0, 3))
    .with_fault_tolerance(
        FaultToleranceConfig::default()
            .with_backoff_base(0.005)
            .with_probation(0.2),
    );
    let report = engine
        .run(&mut RedispatchPolicy { block: 500 }, codelet, 1_000)
        .expect("the unit must come back from probation and finish");
    assert_eq!(report.total_items, 1_000);
    assert_eq!(touched.load(Ordering::Relaxed), 1_000);
    assert_eq!(report.events.quarantines, 1);
    assert_eq!(report.events.task_failures, 3);
    assert_eq!(report.events.task_retries, 2);
    let events = engine.last_events().expect("events recorded").events();
    let restored = events
        .iter()
        .position(|e| e.kind == EventKind::DeviceRestored)
        .expect("probation must restore the unit");
    let quarantined = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::PuQuarantined { .. }))
        .expect("quarantine recorded");
    assert!(quarantined < restored);
}

#[test]
fn host_last_healthy_unit_completes_everything() {
    let touched = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&touched);
    let codelet = Arc::new(FnCodelet::new("count", move |r, _| {
        t2.fetch_add(r.end - r.start, Ordering::Relaxed);
    }));
    // The wide unit never succeeds; no probation, so its quarantine is
    // permanent and the narrow unit does everything.
    let mut engine = HostEngine::new(host_pus()).with_faults(flaky(0, u64::MAX));
    let report = engine
        .run(&mut RedispatchPolicy { block: 250 }, codelet, 2_000)
        .expect("the last healthy unit carries the run");
    assert_eq!(report.total_items, 2_000);
    assert_eq!(touched.load(Ordering::Relaxed), 2_000);
    assert_eq!(report.events.quarantines, 1);
    assert_eq!(report.pus[0].items, 0, "the flaky unit completed nothing");
    assert_eq!(report.pus[1].items, 2_000);
}

#[test]
fn host_all_units_failed_stalls_with_partial_events() {
    // Both units flaky forever, no probation: once both are
    // quarantined the engine must report the stall immediately instead
    // of hanging, and keep the partial event stream for post-mortems.
    let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("noop", |_, _| {}));
    let plan = FaultPlan::new(
        (0..2)
            .map(|pu| Fault {
                pu,
                kind: FaultKind::FlakyUntil { attempts: u64::MAX },
            })
            .collect(),
    );
    let mut engine = HostEngine::new(host_pus()).with_faults(plan);
    let err = engine
        .run(&mut RedispatchPolicy { block: 100 }, codelet, 1_000)
        .expect_err("no healthy unit remains");
    assert!(matches!(err, RunError::Stalled { remaining, .. } if remaining > 0));
    let events = engine.last_events().expect("post-mortem events").events();
    assert!(matches!(events[0].kind, EventKind::RunStart { .. }));
    let quarantines = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PuQuarantined { .. }))
        .count();
    assert_eq!(quarantines, 2);
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Stalled { .. })));
}

#[test]
fn host_retry_accounting_matches_between_report_and_stream() {
    let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("noop", |_, _| {}));
    let mut engine = HostEngine::new(host_pus()).with_faults(FaultPlan::new(vec![
        Fault {
            pu: 0,
            kind: FaultKind::PanicOnAttempt { nth: 1 },
        },
        Fault {
            pu: 1,
            kind: FaultKind::PanicOnAttempt { nth: 0 },
        },
    ]));
    let report = engine
        .run(&mut RedispatchPolicy { block: 100 }, codelet, 1_000)
        .expect("isolated panics are retried");
    let events = engine.last_events().expect("events recorded").events();
    let failures = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskFailed { .. }))
        .count() as u64;
    let retries = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskRetry { .. }))
        .count() as u64;
    assert_eq!(report.events.task_failures, failures);
    assert_eq!(report.events.task_retries, retries);
    assert_eq!(failures, 2);
    assert_eq!(retries, 2);
    assert_eq!(report.total_items, 1_000);
}

#[test]
fn sim_report_counters_are_a_retally_of_the_event_stream_under_faults() {
    // The full-width invariant behind the previous test: every counter
    // the report carries — not just failures and retries — must equal a
    // recount over the surviving event stream, even when faults drove
    // retries, a quarantine, and redistribution mid-run.
    let mut cluster = quiet_cluster(Scenario::Two);
    let cost = LinearCost::generic();
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(flaky(1, u64::MAX));
    let report = engine
        .run(&mut RedispatchPolicy { block: 5_000 }, 200_000)
        .expect("survivors complete the run");
    let sink = engine.last_events().expect("events recorded");
    let mut recount = plb_runtime::EventCounters::from_events(sink.events().iter());
    recount.dropped = sink.dropped();
    assert_eq!(report.events, recount);
    // The invariant must not hold vacuously: the faults really fired.
    assert!(recount.task_failures >= 1);
    assert_eq!(recount.quarantines, 1);
}
