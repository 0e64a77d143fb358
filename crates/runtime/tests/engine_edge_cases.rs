//! Edge cases of the discrete-event engine: perturbation ordering,
//! restoration, cancelled completions, and overhead interactions.

use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, PuId, Scenario};
use plb_runtime::policy::FixedBlockPolicy;
use plb_runtime::{
    Fault, FaultKind, FaultPlan, Perturbation, PerturbationKind, Policy, RunError, SchedulerCtx,
    SimEngine, TaskInfo,
};

fn cluster() -> ClusterSim {
    ClusterSim::build(
        &cluster_scenario(Scenario::Two, false),
        &ClusterOptions {
            seed: 11,
            noise_sigma: 0.0,
            ..Default::default()
        },
    )
}

fn cost() -> LinearCost {
    LinearCost {
        label: "edge".into(),
        flops_per_item: 1e5,
        in_bytes_per_item: 32.0,
        out_bytes_per_item: 8.0,
        threads_per_item: 32.0,
    }
}

#[test]
fn perturbation_at_time_zero_applies_before_first_completion() {
    let mut c = cluster();
    let cost = cost();
    let mut p = FixedBlockPolicy { block: 10_000 };
    let report = SimEngine::new(&mut c, &cost)
        .with_perturbations(vec![Perturbation {
            at: 0.0,
            kind: PerturbationKind::Fail(PuId(0)),
        }])
        .run(&mut p, 200_000)
        .unwrap();
    assert_eq!(report.total_items, 200_000);
    // The failed unit's initial task was cancelled; it processed nothing.
    assert_eq!(report.pus[0].items, 0);
}

#[test]
fn fail_then_restore_lets_greedy_like_policies_resume_via_reassignment() {
    /// A policy that retries every unit on each completion (so a
    /// restored unit gets picked up again).
    struct RetryAll {
        block: u64,
    }
    impl Policy for RetryAll {
        fn name(&self) -> &str {
            "retry-all"
        }
        fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
            let ids: Vec<PuId> = ctx.pus().iter().map(|p| p.id).collect();
            for id in ids {
                ctx.assign(id, self.block);
            }
        }
        fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, _d: &TaskInfo) {
            let ids: Vec<PuId> = ctx.pus().iter().map(|p| p.id).collect();
            for id in ids {
                ctx.assign(id, self.block);
            }
        }
    }
    let mut c = cluster();
    let cost = cost();
    let mut p = RetryAll { block: 5_000 };
    let report = SimEngine::new(&mut c, &cost)
        .with_perturbations(vec![
            Perturbation {
                at: 1e-6,
                kind: PerturbationKind::Fail(PuId(1)),
            },
            Perturbation {
                at: 0.05,
                kind: PerturbationKind::Restore(PuId(1)),
            },
        ])
        .run(&mut p, 500_000)
        .unwrap();
    assert_eq!(report.total_items, 500_000);
    // The restored unit came back and did real work.
    assert!(report.pus[1].items > 0, "restored unit never rejoined");
}

#[test]
fn multiple_simultaneous_failures_at_same_timestamp() {
    let mut c = cluster();
    let cost = cost();
    let mut p = FixedBlockPolicy { block: 4_000 };
    let report = SimEngine::new(&mut c, &cost)
        .with_perturbations(vec![
            Perturbation {
                at: 0.01,
                kind: PerturbationKind::Fail(PuId(2)),
            },
            Perturbation {
                at: 0.01,
                kind: PerturbationKind::Fail(PuId(3)),
            },
            Perturbation {
                at: 0.01,
                kind: PerturbationKind::Fail(PuId(4)),
            },
        ])
        .run(&mut p, 300_000)
        .unwrap();
    assert_eq!(report.total_items, 300_000);
    let survivors: u64 = report.pus[..2].iter().map(|p| p.items).sum();
    assert_eq!(
        survivors,
        300_000 - report.pus[2..].iter().map(|p| p.items).sum::<u64>()
    );
}

#[test]
fn failing_every_unit_midrun_stalls_with_remaining_work() {
    let mut c = cluster();
    let cost = cost();
    let mut p = FixedBlockPolicy { block: 1_000 };
    let n = c.len();
    let perturbations: Vec<Perturbation> = (0..n)
        .map(|i| Perturbation {
            at: 1e-6,
            kind: PerturbationKind::Fail(PuId(i)),
        })
        .collect();
    let err = SimEngine::new(&mut c, &cost)
        .with_perturbations(perturbations)
        .run(&mut p, 1_000_000)
        .unwrap_err();
    match err {
        RunError::Stalled { remaining, .. } => assert!(remaining > 0),
        other => panic!("expected stall, got {other}"),
    }
}

#[test]
fn slowdown_then_speedup_round_trip() {
    let cost = cost();
    let run = |perturbations: Vec<Perturbation>| {
        let mut c = cluster();
        SimEngine::new(&mut c, &cost)
            .with_perturbations(perturbations)
            .run(&mut FixedBlockPolicy { block: 5_000 }, 400_000)
            .unwrap()
            .makespan
    };
    let base = run(vec![]);
    // Slow down then restore to nominal: strictly between base and the
    // permanently slowed run.
    let bounce = run(vec![
        Perturbation {
            at: 0.0,
            kind: PerturbationKind::SetSlowdown(PuId(1), 8.0),
        },
        Perturbation {
            at: 0.05,
            kind: PerturbationKind::SetSlowdown(PuId(1), 1.0),
        },
    ]);
    let slowed = run(vec![Perturbation {
        at: 0.0,
        kind: PerturbationKind::SetSlowdown(PuId(1), 8.0),
    }]);
    assert!(base < bounce, "{base} !< {bounce}");
    assert!(bounce < slowed, "{bounce} !< {slowed}");
}

#[test]
fn zero_item_assignments_are_ignored() {
    struct ZeroFirst;
    impl Policy for ZeroFirst {
        fn name(&self) -> &str {
            "zero-first"
        }
        fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
            assert_eq!(ctx.assign(PuId(0), 0), 0, "zero-size assign must no-op");
            assert_eq!(ctx.assign(PuId(0), 100), 100);
            assert_eq!(ctx.assign(PuId(1), u64::MAX), ctx.total_items() - 100);
        }
        fn on_task_finished(&mut self, _ctx: &mut dyn SchedulerCtx, _d: &TaskInfo) {}
    }
    let mut c = cluster();
    let cost = cost();
    let report = SimEngine::new(&mut c, &cost)
        .run(&mut ZeroFirst, 10_000)
        .unwrap();
    assert_eq!(report.total_items, 10_000);
    assert_eq!(report.tasks, 2);
}

#[test]
fn assignments_to_unknown_or_failed_units_return_zero() {
    struct Probe;
    impl Policy for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
            // Unit 0 was failed before start via the cluster, so the
            // handle is unavailable.
            assert_eq!(ctx.assign(PuId(0), 10), 0);
            assert!(ctx.assign(PuId(1), 10_000) > 0);
        }
        fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, d: &TaskInfo) {
            if ctx.remaining_items() > 0 {
                ctx.assign(d.pu, 10_000);
            }
        }
    }
    let mut c = cluster();
    c.device_mut(PuId(0)).fail();
    let cost = cost();
    let report = SimEngine::new(&mut c, &cost)
        .run(&mut Probe, 50_000)
        .unwrap();
    assert_eq!(report.total_items, 50_000);
    assert_eq!(report.pus[0].items, 0);
}

#[test]
fn charge_overhead_with_nonfinite_values_is_ignored() {
    struct BadCharge;
    impl Policy for BadCharge {
        fn name(&self) -> &str {
            "bad-charge"
        }
        fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
            ctx.charge_overhead(f64::NAN);
            ctx.charge_overhead(f64::INFINITY);
            ctx.charge_overhead(-5.0);
            ctx.assign(PuId(0), u64::MAX);
        }
        fn on_task_finished(&mut self, _ctx: &mut dyn SchedulerCtx, _d: &TaskInfo) {}
    }
    let mut c = cluster();
    let cost = cost();
    let report = SimEngine::new(&mut c, &cost)
        .run(&mut BadCharge, 1_000)
        .unwrap();
    assert!(report.makespan.is_finite());
}

#[test]
fn byte_accounting_reflects_block_and_broadcast_data() {
    use plb_hetsim::workload::CostModel;
    struct Bcast;
    impl CostModel for Bcast {
        fn name(&self) -> &str {
            "bcast"
        }
        fn flops(&self, items: u64) -> f64 {
            1e6 * items as f64
        }
        fn bytes_in(&self, items: u64) -> f64 {
            10.0 * items as f64
        }
        fn bytes_out(&self, items: u64) -> f64 {
            2.0 * items as f64
        }
        fn threads(&self, items: u64) -> f64 {
            64.0 * items as f64
        }
        fn broadcast_bytes(&self) -> f64 {
            1_000_000.0
        }
    }
    // The second run panics unit 0's second dispatch; the block is
    // retried in place and must not pay for its input a second time.
    let retry_once = FaultPlan::new(vec![Fault {
        pu: 0,
        kind: FaultKind::PanicOnAttempt { nth: 1 },
    }]);
    for (plan, retries) in [(FaultPlan::none(), 0), (retry_once, 1)] {
        let mut c = cluster();
        let cost = Bcast;
        let mut p = FixedBlockPolicy { block: 5_000 };
        let report = SimEngine::new(&mut c, &cost)
            .with_faults(plan)
            .run(&mut p, 100_000)
            .unwrap();
        assert_eq!(report.events.task_retries, retries);
        let total_block_bytes: u64 = report.pus.iter().map(|p| p.bytes_in).sum();
        // Every unit that processed anything staged the 1 MB broadcast
        // once plus 10 B per item.
        let busy_units = report.pus.iter().filter(|p| p.items > 0).count() as u64;
        assert_eq!(total_block_bytes, 100_000 * 10 + busy_units * 1_000_000);
        for pu in &report.pus {
            if pu.items > 0 {
                assert!(pu.bytes_in >= 1_000_000 + pu.items * 10 - 10);
            }
        }
    }
}
