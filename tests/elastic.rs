//! Elastic capacity end-to-end: hot-joins admitted mid-run fold into
//! the split and restabilize, deterministic speed drift completes
//! without rebalance thrash, the elastic chaos dimension is seeded and
//! reproducible, and — property-tested — an admission at *any* point of
//! the run never breaks the two conservation laws (the split sums to 1,
//! the executed item ranges form a disjoint cover of the workload).
//!
//! These are the CI `chaos-elastic` scenarios (`.github/workflows/
//! ci.yml`); docs/FAULT_TOLERANCE.md ("Elastic capacity") describes the
//! semantics they pin down.

use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::workload::LinearCost;
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, PuId, PuKind, Scenario};
use plb_hec_suite::plb::{PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{
    Codelet, EventKind, FaultPlan, FnCodelet, HostEngine, HostPu, Policy, SchedulerCtx, SimEngine,
    TaskFailure, TaskInfo,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Heavy, wide items: long enough virtual runs for mid-run admissions
/// to land during the execution phase.
fn heavy_cost() -> LinearCost {
    LinearCost {
        label: "elastic".into(),
        flops_per_item: 1e5,
        in_bytes_per_item: 64.0,
        out_bytes_per_item: 64.0,
        threads_per_item: 64.0,
    }
}

fn sim_cluster(scenario: Scenario) -> ClusterSim {
    ClusterSim::build(
        &cluster_scenario(scenario, false),
        &ClusterOptions {
            noise_sigma: 0.01,
            ..Default::default()
        },
    )
}

fn host_pus(n: usize) -> Vec<HostPu> {
    (0..n)
        .map(|i| HostPu {
            name: format!("pu{i}"),
            kind: PuKind::Cpu,
            threads: 1,
        })
        .collect()
}

/// Minimal fault-aware policy: tops up every idle available unit on
/// each callback, so a joined unit is picked up automatically.
struct PumpPolicy {
    block: u64,
}

impl PumpPolicy {
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

impl Policy for PumpPolicy {
    fn name(&self) -> &str {
        "pump"
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

fn assert_disjoint_cover(mut ranges: Vec<std::ops::Range<u64>>, total: u64) {
    ranges.sort_by_key(|r| r.start);
    let mut expect = 0;
    for r in ranges {
        assert_eq!(r.start, expect, "gap or overlap in executed ranges");
        expect = r.end;
    }
    assert_eq!(expect, total, "the cover must end at total_items");
}

/// The acceptance scenario on the simulator: a seeded hot-join ends the
/// run with the joined unit holding a nonzero share, every item
/// accounted for exactly once, and a `restabilized` event on record.
#[test]
fn sim_hot_join_gains_share_and_restabilizes() {
    let mut cluster = sim_cluster(Scenario::Two);
    let cost = heavy_cost();
    let cfg = PolicyConfig::default()
        .with_initial_block(1_000)
        .with_round_fraction(0.25);
    let mut policy = PlbHecPolicy::new(&cfg);
    let n = cluster.ids().count();
    let plan = FaultPlan::parse("join:pu=2,after=30", n).expect("valid join plan");
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(plan);
    let report = engine.run(&mut policy, 4_000_000).expect("run completes");

    assert_eq!(report.total_items, 4_000_000);
    let per_pu: u64 = report.pus.iter().map(|p| p.items).sum();
    assert_eq!(per_pu, 4_000_000, "items lost or duplicated");
    assert!(
        report.pus[2].items > 0,
        "joined unit must end with a share: {:?}",
        report.pus
    );

    let sink = engine.last_events().expect("events recorded");
    assert_eq!(sink.counters().joins, 1);
    let events = sink.events();
    assert!(
        events
            .iter()
            .any(|e| e.pu == Some(2) && matches!(e.kind, EventKind::PuJoined { after_tasks: 30 })),
        "admission must be on record"
    );
    let restab = events
        .iter()
        .find(|e| e.pu == Some(2) && matches!(e.kind, EventKind::Restabilized { .. }))
        .expect("joined unit must restabilize");
    let joined_at = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::PuJoined { .. }))
        .expect("join event")
        .t;
    assert!(
        restab.t >= joined_at,
        "restabilization follows the admission"
    );
}

/// The same acceptance scenario on the real-thread engine, with the
/// executed ranges captured: the joined unit works, the cover is
/// disjoint and complete, and the unit restabilizes.
#[test]
fn host_hot_join_gains_share_and_restabilizes() {
    let n = 3;
    let total = 500_000u64;
    let ranges = Arc::new(Mutex::new(Vec::new()));
    let sink_ranges = Arc::clone(&ranges);
    // Deterministic per-item spin so the fitted curves are linear and
    // the watchdog deadlines sane.
    let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("spin", move |r, _| {
        let mut acc = 0u64;
        for i in r.clone() {
            acc = acc.wrapping_add(i).rotate_left(1);
        }
        std::hint::black_box(acc);
        sink_ranges.lock().expect("range log lock").push(r);
    }));
    let plan = FaultPlan::parse("join:pu=1,after=12", n).expect("valid join plan");
    let cfg = PolicyConfig::default()
        .with_initial_block(500)
        .with_round_fraction(0.33);
    let mut policy = PlbHecPolicy::new(&cfg);
    let mut engine = HostEngine::new(host_pus(n)).with_faults(plan);
    let report = engine
        .run(&mut policy, codelet, total)
        .expect("host run completes");

    assert_eq!(report.total_items, total);
    assert!(report.pus[1].items > 0, "joined unit must end with a share");
    assert_disjoint_cover(ranges.lock().expect("range log lock").clone(), total);

    let sink = engine.last_events().expect("events recorded");
    assert_eq!(sink.counters().joins, 1);
    assert!(
        sink.events()
            .iter()
            .any(|e| e.pu == Some(1) && matches!(e.kind, EventKind::Restabilized { .. })),
        "joined unit must restabilize"
    );
}

/// Drift tracking without thrash: a continuously drifting unit keeps
/// the divergence trigger pressured, and each refit reads the profile's
/// window of recent blocks, so the re-solve count stays bounded while
/// the run still completes.
#[test]
fn sim_drift_completes_without_rebalance_thrash() {
    let mut cluster = sim_cluster(Scenario::One);
    let cost = heavy_cost();
    let cfg = PolicyConfig::default()
        .with_initial_block(1_000)
        .with_round_fraction(0.25);
    let mut policy = PlbHecPolicy::new(&cfg);
    let plan = FaultPlan::parse("drift:pu=1,kind=sin,from=0,period=8,amp=0.6", 2)
        .expect("valid drift plan");
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(plan);
    let report = engine.run(&mut policy, 8_000_000).expect("run completes");

    assert_eq!(report.total_items, 8_000_000);
    let sink = engine.last_events().expect("events recorded");
    assert!(
        sink.counters().drift_changes > 0,
        "the sinusoid must actually move the speed"
    );
    // A re-solve per divergent block would be dozens.
    assert!(
        policy.rebalances() <= 10,
        "rebalance thrash under drift: {} re-solves",
        policy.rebalances()
    );
}

/// Same drift scenario on the host engine: drift stretches real wall
/// time (the worker sleeps the surplus), the run completes, and the
/// two steps cost a re-solve each at most, not one per block.
#[test]
fn host_drift_completes_without_rebalance_thrash() {
    let n = 3;
    let total = 300_000u64;
    let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("spin", move |r, _| {
        let mut acc = 0u64;
        for i in r {
            acc = acc.wrapping_add(i).rotate_left(1);
        }
        std::hint::black_box(acc);
    }));
    let cfg = PolicyConfig::default()
        .with_initial_block(500)
        .with_round_fraction(0.33);
    let mut policy = PlbHecPolicy::new(&cfg);
    let plan =
        FaultPlan::parse("drift:pu=1,kind=step,points=4:1.5/10:2.5", n).expect("valid drift plan");
    let mut engine = HostEngine::new(host_pus(n)).with_faults(plan);
    let report = engine
        .run(&mut policy, codelet, total)
        .expect("host run completes");

    assert_eq!(report.total_items, total);
    assert!(
        policy.rebalances() <= 10,
        "rebalance thrash under drift: {} re-solves",
        policy.rebalances()
    );
}

/// The elastic chaos dimension is seeded: bit-identical plans per seed,
/// never touching unit 0, at most one join per unit.
#[test]
fn chaos_elastic_plans_are_reproducible_and_bounded() {
    for seed in 0..32u64 {
        let a = FaultPlan::chaos_elastic(seed, 6, 12, 3);
        let b = FaultPlan::chaos_elastic(seed, 6, 12, 3);
        assert_eq!(a.faults, b.faults, "seed {seed} not reproducible");
        let joins = a.joins();
        for &(pu, _) in &joins {
            assert_ne!(pu, 0, "unit 0 must stay untouched");
        }
        let mut pus: Vec<usize> = joins.iter().map(|&(pu, _)| pu).collect();
        pus.dedup();
        assert_eq!(pus.len(), joins.len(), "a unit may join at most once");
        // The base (non-elastic) dimension is unchanged by composition.
        let base = FaultPlan::chaos(seed, 6, 12);
        let zero = FaultPlan::chaos_elastic(seed, 6, 12, 0);
        assert_eq!(base.faults, zero.faults);
    }
}

/// Full PLB-HeC survives combined loss + join + drift chaos across
/// seeds with every item accounted for.
#[test]
fn plb_hec_completes_under_elastic_chaos() {
    let total = 2_000_000u64;
    let cost = heavy_cost();
    for seed in [7u64, 42, 1234] {
        let mut cluster = sim_cluster(Scenario::Two);
        let n = cluster.ids().count();
        let plan = FaultPlan::chaos_elastic(seed, n, 2 * n, 2);
        let cfg = PolicyConfig::default()
            .with_initial_block(1_000)
            .with_round_fraction(0.25);
        let mut policy = PlbHecPolicy::new(&cfg);
        let report = SimEngine::new(&mut cluster, &cost)
            .with_faults(plan)
            .run(&mut policy, total)
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        assert_eq!(report.total_items, total, "seed {seed}");
        let per_pu: u64 = report.pus.iter().map(|p| p.items).sum();
        assert_eq!(per_pu, total, "seed {seed}: items lost or duplicated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Folding a joined unit at an arbitrary point of the run preserves
    /// the split invariant (the reported distribution sums to 1) and
    /// item conservation on the simulator.
    #[test]
    fn prop_sim_join_preserves_split_sum(
        pu_pick in 0usize..8,
        after in 0u64..120,
    ) {
        let total = 2_000_000u64;
        let mut cluster = sim_cluster(Scenario::Two);
        let n = cluster.ids().count();
        // Any unit but 0 (the master CPU stays up by convention).
        let pu = 1 + pu_pick % (n - 1);
        let cost = heavy_cost();
        let cfg = PolicyConfig::default()
            .with_initial_block(1_000)
            .with_round_fraction(0.25);
        let mut policy = PlbHecPolicy::new(&cfg);
        let plan = FaultPlan::parse(&format!("join:pu={pu},after={after}"), n)
            .expect("valid join plan");
        let report = SimEngine::new(&mut cluster, &cost)
            .with_faults(plan)
            .run(&mut policy, total)
            .expect("run completes");
        prop_assert_eq!(report.total_items, total);
        let per_pu: u64 = report.pus.iter().map(|p| p.items).sum();
        prop_assert_eq!(per_pu, total, "items lost or duplicated");
        if let Some(d) = &report.block_distribution {
            let sum: f64 = d.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "split must sum to 1, got {}", sum);
        }
    }

    /// On the real-thread engine the work pool's disjoint-range
    /// invariant holds under arbitrary join timing: the executed ranges
    /// tile 0..total exactly, joined unit included.
    #[test]
    fn prop_host_join_preserves_disjoint_cover(
        pu in 1usize..3,
        after in 0u64..20,
        block in 500u64..2_000,
    ) {
        let n = 3;
        let total = 60_000u64;
        let ranges = Arc::new(Mutex::new(Vec::new()));
        let sink_ranges = Arc::clone(&ranges);
        let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("collect", move |r, _| {
            sink_ranges.lock().expect("range log lock").push(r);
        }));
        let plan = FaultPlan::parse(&format!("join:pu={pu},after={after}"), n)
            .expect("valid join plan");
        let mut engine = HostEngine::new(host_pus(n)).with_faults(plan);
        let report = engine
            .run(&mut PumpPolicy { block }, codelet, total)
            .expect("host run completes");
        prop_assert_eq!(report.total_items, total);
        let got = ranges.lock().expect("range log lock").clone();
        let mut sorted = got;
        sorted.sort_by_key(|r| r.start);
        let mut expect = 0;
        for r in sorted {
            prop_assert_eq!(r.start, expect, "gap or overlap in executed ranges");
            expect = r.end;
        }
        prop_assert_eq!(expect, total, "the cover must end at total_items");
    }
}
