//! Cross-commit goldens for the PLB-HeC policy: one hash per scenario
//! over the whole event stream and the run's outcome, so "byte-identical
//! across a refactor" is a test and not a claim. `plbmark` and
//! `event_streams_are_deterministic_across_repeat_runs` compare a binary
//! with itself; this file compares commits (the `tests/weighted.rs`
//! pattern).
//!
//! Every scenario runs at `noise_sigma: 0.0`, so no generator stream
//! enters and the constants hold under any generator. Every constant
//! was printed by this file at commit 0a308d9, the parent of the PR
//! that split `policy.rs` by phase (ISSUE 19), and the split passed
//! them all unmodified. The seven that the PR's two fixes then moved
//! — all in runs that lose a unit mid-modeling — carry the parent's
//! value in a comment. So do the five that PR 22 moved: four runs
//! re-fit, at a rebalance, a unit that has landed more blocks than a
//! profile keeps (its ladder and its 16 most recent), and the second
//! run of a reused policy object keeps the models that still predict.
//!
//! Two changes then moved every stream, each printed on its own. The
//! line search's Armijo test (`plb-ipm`) moved every run that solves:
//! the same blocks on the same units, fewer `ipm_iteration` events, a
//! smaller charged solve cost and so a makespan shorter by less than a
//! millisecond; such a test names its constant from before in one line.
//! Closing the modeling phase at the data cap, probes in flight or not,
//! moved the runs that hit the cap with a probe out; they say how. A
//! unit joining a running split on one probe instead of four moved the
//! two joins it admits, and retiring the fixed point moved the
//! ablation run that forced it.
//!
//! Solving every split as one Newton root on the common time `T`, in
//! place of the interior point, moved all but one stream: the
//! `ipm_iteration` and `ipm_done` events are gone, and the solve charged
//! to the virtual clock counts at least 4 of the root's 2 to 5 steps
//! (2 in 36 of 45 solves) where it counted the interior point's 1 to 13
//! iterations (7 in 25). Every selection chose the same blocks; each
//! constant names its value from before in one line. Two runs then
//! handed out their last items differently, once their blocks started
//! earlier; they say how.
//!
//! A scenario whose constant moves prints what it got, with the run's
//! summary.

use plb_hec_suite::apps::BlackScholes;
use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::workload::{CostModel, LinearCost};
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, PuId, Scenario};
use plb_hec_suite::plb::{FitMode, PlbHecPolicy, PolicyConfig, ProbeSchedule, SolverChoice};
use plb_hec_suite::runtime::checkpoint::load;
use plb_hec_suite::runtime::{
    CheckpointConfig, Event, EventKind, FaultPlan, FaultToleranceConfig, Perturbation,
    PerturbationKind, Policy, RunReport, SchedulerCtx, SimEngine, TaskInfo,
};
use std::path::PathBuf;

mod common;

/// Heavy, wide items (~50 µs of GPU work each): runs last long enough
/// for mid-run faults to land in the execution phase.
fn heavy_cost() -> LinearCost {
    LinearCost {
        label: "heavy".into(),
        flops_per_item: 1e5,
        in_bytes_per_item: 64.0,
        out_bytes_per_item: 64.0,
        threads_per_item: 64.0,
    }
}

/// The configuration most scenarios share.
fn cfg() -> PolicyConfig {
    PolicyConfig::default()
        .with_initial_block(1_000)
        .with_round_fraction(0.1)
}

/// Everything a scenario may turn on besides the policy and the size.
#[derive(Default)]
struct Setup {
    faults: &'static str,
    ft: Option<FaultToleranceConfig>,
    perturbations: Vec<Perturbation>,
}

fn at(at: f64, kind: PerturbationKind) -> Perturbation {
    Perturbation { at, kind }
}

/// One finished run: its report and its whole event stream.
struct Outcome {
    report: RunReport,
    events: Vec<Event>,
}

fn engine_run(
    scenario: Scenario,
    cost: &dyn CostModel,
    items: u64,
    policy: &mut dyn Policy,
    setup: Setup,
    tune: impl FnOnce(SimEngine<'_>) -> SimEngine<'_>,
) -> Outcome {
    let mut cluster = ClusterSim::build(
        &cluster_scenario(scenario, false),
        &ClusterOptions {
            seed: 7,
            noise_sigma: 0.0,
            ..Default::default()
        },
    );
    let n = cluster.ids().count();
    let plan = match setup.faults {
        "" => FaultPlan::none(),
        spec => FaultPlan::parse(spec, n).expect("valid fault plan"),
    };
    let mut engine = tune(
        SimEngine::new(&mut cluster, cost)
            .with_faults(plan)
            .with_fault_tolerance(setup.ft.unwrap_or_default())
            .with_perturbations(setup.perturbations),
    );
    let report = engine.run(policy, items).expect("run completes");
    let sink = engine.last_events().expect("engine keeps the event sink");
    assert_eq!(sink.counters().dropped, 0, "the hash must see every event");
    Outcome {
        report,
        events: sink.events(),
    }
}

fn run(scenario: Scenario, cost: &dyn CostModel, items: u64, setup: Setup) -> Outcome {
    run_with(scenario, cost, items, &cfg(), setup)
}

fn run_with(
    scenario: Scenario,
    cost: &dyn CostModel,
    items: u64,
    cfg: &PolicyConfig,
    setup: Setup,
) -> Outcome {
    let mut policy = PlbHecPolicy::new(cfg);
    engine_run(scenario, cost, items, &mut policy, setup, |e| e)
}

impl Outcome {
    /// The stream hash every constant below is one of.
    fn hash(&self) -> u64 {
        common::stream_hash(&self.events, &self.report)
    }

    fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Time of the first event matching `pred`.
    fn first_t(&self, pred: impl Fn(&Event) -> bool) -> Option<f64> {
        self.events.iter().find(|e| pred(e)).map(|e| e.t)
    }

    fn modeling_done_t(&self) -> f64 {
        self.first_t(|e| matches!(e.kind, EventKind::ModelingDone { .. }))
            .expect("the modeling phase closes")
    }

    fn triggers(&self, name: &str) -> usize {
        self.count(
            |e| matches!(&e.kind, EventKind::RebalanceTriggered { trigger, .. } if trigger == name),
        )
    }

    fn items(&self) -> Vec<u64> {
        self.report.pus.iter().map(|p| p.items).collect()
    }

    /// Tasks in flight when the modeling phase closed: submitted, and
    /// neither finished nor failed, before the `modeling_done` event.
    fn in_flight_at_modeling_done(&self) -> Vec<u64> {
        let mut open: Vec<u64> = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::ModelingDone { .. } => break,
                EventKind::TaskSubmit { task, .. } => open.push(task),
                EventKind::TaskFinish { task, .. } | EventKind::TaskFailed { task, .. } => {
                    open.retain(|&t| t != task)
                }
                _ => {}
            }
        }
        open
    }

    fn check(&self, name: &str, golden: u64) {
        check_all(&[(name, self, golden)]);
    }
}

/// Compare every run with its constant and report all that moved.
fn check_all(cases: &[(&str, &Outcome, u64)]) {
    let moved: Vec<String> = cases
        .iter()
        .filter(|(_, o, golden)| o.hash() != *golden)
        .map(|(name, o, _)| {
            format!(
                "{name}: got {:#018x}; makespan {:?} s, {} tasks, items {:?}, {} events",
                o.hash(),
                o.report.makespan,
                o.report.tasks,
                o.items(),
                o.events.len()
            )
        })
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

fn is_probe(e: &Event) -> bool {
    matches!(e.kind, EventKind::ProbeIssued { .. })
}

fn is_quarantine(e: &Event) -> bool {
    matches!(e.kind, EventKind::PuQuarantined { .. })
}

// ---------------------------------------------------------------------
// Fault-free.

#[test]
fn fault_free_two_machines() {
    let o = run(Scenario::Two, &heavy_cost(), 4_000_000, Setup::default());
    assert_eq!(o.triggers("divergence"), 0);
    // 0x9065_b181_92ab_ade7 before the Armijo test (see above).
    // 0x28e3_3698_c50a_0de9 before the root on `T` (see above).
    o.check("fault_free_two_machines", 0x4588_6f37_bbdb_0a86);
}

#[test]
fn fault_free_four_machines() {
    let o = run(Scenario::Four, &heavy_cost(), 8_000_000, Setup::default());
    // 0x7e20_73ad_48a6_26c8 before the Armijo test (see above).
    // 0xaeff_5340_ba45_f1ae before the root on `T` (see above).
    o.check("fault_free_four_machines", 0xa357_a7c1_d430_cf5b);
}

// ---------------------------------------------------------------------
// A unit is lost.

#[test]
fn busy_unit_fails_mid_modeling() {
    let o = run(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        Setup {
            perturbations: vec![at(1e-4, PerturbationKind::Fail(PuId(0)))],
            ..Default::default()
        },
    );
    assert!(
        o.modeling_done_t() > 1e-4,
        "the loss lands in the modeling phase"
    );
    assert_eq!(
        o.count(|e| e.pu == Some(0) && matches!(e.kind, EventKind::TaskFailed { .. })),
        1,
        "the unit was running a probe when it failed"
    );
    // 0xf6e3_3eae_c10a_2bc0 at the parent: the lost probe's 1 000 cost
    // units now return to the modeling budget, so `modeling_done`
    // reports 1 000 fewer; every time and every block is as it was.
    // 0x1b47_5303_3add_67b1 before the Armijo test (see above).
    // 0x81e0_9339_794a_983f before the root on `T` (see above).
    o.check("busy_unit_fails_mid_modeling", 0x97cc_b9d3_ac48_c758);
}

#[test]
fn busy_unit_fails_mid_execution() {
    let o = run(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        Setup {
            perturbations: vec![at(0.05, PerturbationKind::Fail(PuId(1)))],
            ..Default::default()
        },
    );
    assert!(
        o.modeling_done_t() < 0.05,
        "the loss lands in the execution phase"
    );
    assert_eq!(o.triggers("device-lost"), 1);
    // 0x71b0_269a_6eba_8a12 before the Armijo test (see above).
    // 0x2e7d_0550_2f0f_c8a7 before the root on `T` (see above).
    o.check("busy_unit_fails_mid_execution", 0x97bf_75a8_b8df_5e0e);
}

#[test]
fn flaky_unit_is_quarantined_mid_modeling() {
    let o = run(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        Setup {
            faults: "flaky:pu=2,n=5",
            ..Default::default()
        },
    );
    let quarantined = o.first_t(is_quarantine).expect("unit 2 is quarantined");
    assert!(quarantined < o.modeling_done_t());
    assert_eq!(o.items()[2], 0);
    // 0x0478_7fac_979c_5510 at the parent, and the same difference:
    // `items_used` without the quarantined unit's 1 000. Then
    // 0x8df2_bb3a_b611_2d1f until profiles were bounded: the one
    // rebalance (0.0460 s) fits 20 samples a unit where it fitted 24,
    // 58, 25 and 25, to the same lines — every time and every block is
    // as it was, `predicted_s` differs in its last two digits.
    // 0x6e7b_046f_89ad_e624 before the Armijo test (see above).
    o.check(
        "flaky_unit_is_quarantined_mid_modeling",
        // 0x2788_d854_4caa_ed34 before the root on `T` (see above).
        0xeb52_bd9f_be04_7084,
    );
}

#[test]
fn failing_unit_is_quarantined_mid_execution() {
    let o = run(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        Setup {
            faults: "panic:pu=3,nth=10; panic:pu=3,nth=11; panic:pu=3,nth=12",
            ..Default::default()
        },
    );
    let quarantined = o.first_t(is_quarantine).expect("unit 3 is quarantined");
    assert!(quarantined > o.modeling_done_t());
    assert_eq!(o.triggers("device-lost"), 1);
    // 0x68a9_88ba_414b_7f2c before the Armijo test (see above).
    o.check(
        "failing_unit_is_quarantined_mid_execution",
        // 0x8bbf_f16e_4e7b_96b7 before the root on `T` (see above).
        0x3ea0_4587_743c_26cc,
    );
}

#[test]
fn retries_exhausted_without_quarantine_mid_modeling() {
    let o = run(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        Setup {
            faults: "flaky:pu=2,n=2",
            ft: Some(FaultToleranceConfig {
                max_retries: 1,
                quarantine_after: 5,
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    assert_eq!(o.count(is_quarantine), 0);
    assert_eq!(
        o.count(|e| matches!(e.kind, EventKind::TaskFailed { .. })),
        2
    );
    // 0x8f19_a36a_832d_f4cf with unbounded profiles; as above, the
    // rebalance's fits read 20 samples a unit and nothing else moves.
    // 0xedf3_6ef9_c016_03ba then; 0x7642_2eef_45a3_8466 with the Armijo
    // test. Closed at the cap one landing sooner, with a probe in flight
    // (0.2387 → 0.2375 s).
    o.check(
        "retries_exhausted_without_quarantine_mid_modeling",
        // 0xab03_1dbf_3831_987d before the root on `T` (see above): 215
        // tasks in 0.237482 s, now 221 in 0.239476 s, the first split's
        // blocks unchanged and charged 4 steps where it was 13.
        0xb9af_dd13_dfec_e80f,
    );
}

#[test]
fn retries_exhausted_without_quarantine_mid_execution() {
    let o = run(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        Setup {
            faults: "panic:pu=3,nth=10; panic:pu=3,nth=11",
            ft: Some(FaultToleranceConfig {
                max_retries: 1,
                quarantine_after: 5,
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    assert_eq!(o.count(is_quarantine), 0);
    let failed = o
        .first_t(|e| matches!(e.kind, EventKind::TaskFailed { .. }))
        .expect("unit 3 fails a block");
    assert!(failed > o.modeling_done_t());
    // 0xf6e3_bd24_86ab_140e before the Armijo test (see above).
    o.check(
        "retries_exhausted_without_quarantine_mid_execution",
        // 0xe151_fc1d_afad_0c30 before the root on `T` (see above).
        0xc0b5_bf91_8965_91a5,
    );
}

#[test]
fn pool_drains_during_probing() {
    // 3 000 items: gone before any unit has its four probes. 40 000:
    // gone while the slow units are still on the ladder.
    let drained = |items| {
        let o = run(Scenario::Two, &heavy_cost(), items, Setup::default());
        assert_eq!(o.report.total_items, items);
        o
    };
    let (tiny, small) = (drained(3_000), drained(40_000));
    // 0x93fd_647e_a09d_5d0e and 0x0bab_da19_4e40_3337 before the phase
    // closed at the cap. At 3 000 the cap is spent by the first probes:
    // the phase closes at the first landing, and the two units still
    // probing are fitted when theirs land. At 40 000 the slow units'
    // first probes land late instead of holding the split back
    // (0.0105 → 0.0049 s).
    check_all(&[
        (
            "pool_drains_during_probing (3 000)",
            &tiny,
            0x7066_061e_2264_0209,
        ),
        (
            "pool_drains_during_probing (40 000)",
            &small,
            // 0x4964_91d8_9fcf_97f1 before the root on `T` (see above):
            // the same 28 tasks, the last items on other units, 0.004882
            // -> 0.004864 s.
            0xb57d_f2bb_31ff_7e02,
        ),
    ]);
}

// ---------------------------------------------------------------------
// A unit arrives.

fn join(after: &'static str) -> Outcome {
    run(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        Setup {
            faults: after,
            ..Default::default()
        },
    )
}

#[test]
fn join_mid_modeling() {
    let o = join("join:pu=2,after=3");
    let joined = o
        .first_t(|e| matches!(e.kind, EventKind::PuJoined { .. }))
        .expect("unit 2 joins");
    assert!(joined < o.modeling_done_t());
    assert!(o.items()[2] > 0);
    // 0xf772_7dec_571d_ee2d before the Armijo test (see above).
    // 0x3e9d_e7d5_b789_1c56 before the root on `T` (see above).
    o.check("join_mid_modeling", 0x30c7_7812_c162_de94);
}

#[test]
fn join_mid_execution_accepted() {
    let o = join("join:pu=2,after=30");
    assert_eq!(o.triggers("device-joined"), 1);
    assert_eq!(
        o.count(|e| matches!(e.kind, EventKind::Restabilized { .. })),
        1
    );
    // 0x9efb_42b7_f76c_c151 before the Armijo test (see above).
    // 0x48f2_d772_f268_68b4 (0.220420 s) while a joiner walked four
    // probes and folded in on their best-subset fit; it folds in on its
    // first probe's mean rate now (0.220646 s).
    // 0xecb7_3190_f993_7d82 before the root on `T` (see above).
    o.check("join_mid_execution_accepted", 0x4eeb_99f9_ccb1_4eba);
}

#[test]
fn join_whose_ladder_outlives_the_pool() {
    // Admitted with 65 594 items left. While a joiner walked four
    // probes, the pool drained on its third and it folded with nothing
    // to re-solve (`restabilized{0}`, no trigger), having spent the
    // pool's tail on probes. On one probe it folds into the running
    // split.
    let o = join("join:pu=2,after=60");
    assert_eq!(o.triggers("device-joined"), 1);
    assert_eq!(
        o.count(|e| matches!(e.kind, EventKind::Restabilized { rebalances: 0 })),
        1
    );
    // 0x78c0_142d_4cdf_8afe before the Armijo test (see above); then
    // 0x3cbf_97a2_2da4_d073 (0.232980 s) with the four-probe walk.
    // 0xa79f_bee6_e41e_13fa before the root on `T` (see above).
    o.check("join_whose_ladder_outlives_the_pool", 0x528c_ed3e_567e_785d);
}

#[test]
fn join_near_the_end_declined() {
    let o = join("join:pu=2,after=62");
    assert_eq!(
        o.count(|e| matches!(e.kind, EventKind::DeviceRestoredIgnored)),
        1
    );
    assert_eq!(o.items()[2], 0);
    // 0x8265_1707_cca0_7e40 before the Armijo test (see above).
    // 0x8ed6_2306_c476_7f2b before the root on `T` (see above).
    o.check("join_near_the_end_declined", 0x219d_4088_025c_926a);
}

#[test]
fn joiner_quarantined_on_its_ladder() {
    let o = join("join:pu=2,after=30; flaky:pu=2,n=5");
    assert_eq!(o.count(is_quarantine), 1);
    assert_eq!(o.triggers("device-joined"), 0);
    assert_eq!(o.items()[2], 0);
    // 0x1a51_bd78_3b36_e0af before the Armijo test (see above).
    // 0xe9cd_9a3f_9894_b005 before the root on `T` (see above).
    o.check("joiner_quarantined_on_its_ladder", 0xcb3f_e139_7bf9_a3a8);
}

// ---------------------------------------------------------------------
// A unit changes speed.

#[test]
fn slowdown_diverges_drains_and_refits() {
    let o = run(
        Scenario::One,
        &heavy_cost(),
        8_000_000,
        Setup {
            perturbations: vec![at(0.1, PerturbationKind::SetSlowdown(PuId(1), 6.0))],
            ..Default::default()
        },
    );
    let trigger = o
        .events
        .iter()
        .position(|e| matches!(&e.kind, EventKind::RebalanceTriggered { trigger, .. } if trigger == "divergence"))
        .expect("the slowdown trips the threshold");
    let solve = trigger
        + o.events[trigger..]
            .iter()
            .position(|e| matches!(e.kind, EventKind::BlockSolve { .. }))
            .expect("the drain ends in a re-solve");
    let drain = &o.events[trigger..solve];
    assert!(
        drain
            .iter()
            .any(|e| matches!(e.kind, EventKind::TaskSubmit { .. })),
        "a unit finishing early gets its extra block"
    );
    assert!(
        drain
            .iter()
            .any(|e| matches!(e.kind, EventKind::CurveFit { .. })),
        "the re-solve runs on refitted curves"
    );
    // 0x646d_da7e_16a3_f4b3 before the Armijo test (see above).
    // 0x5dce_a855_73ae_4b40 before the root on `T` (see above).
    o.check("slowdown_diverges_drains_and_refits", 0x62ba_512f_3e57_2296);
}

#[test]
fn sinusoidal_drift_rebalances_without_thrash() {
    let o = run(
        Scenario::One,
        &heavy_cost(),
        8_000_000,
        Setup {
            faults: "drift:pu=1,kind=sin,from=0,period=6,amp=0.8",
            ..Default::default()
        },
    );
    // 0x1e62_4a2a_9cc0_cbc0 (0.6115 s, 263 tasks) when each of the
    // three refits read every block since the start — 183 on the GPU by
    // the last — and a 50 ms `rebalance_cooldown_s` was set; the knob is
    // gone (it changed neither the count nor, for the better, the
    // makespan: 0.6188 s with it on the windowed profile).
    assert_eq!(o.triggers("divergence"), 3);
    // 0x02d5_9045_749c_1c89 then; 0x7ae3_01c7_697c_a1c9 with the Armijo
    // test. Closed at the cap with a probe in flight (0.6084 → 0.6079 s).
    o.check(
        "sinusoidal_drift_rebalances_without_thrash",
        // 0x5acd_6bd3_5177_6e22 before the root on `T` (see above).
        0x6d8b_e55c_399b_462d,
    );
}

#[test]
fn ablation_knobs_under_a_slowdown() {
    // The curve family, the solver, the probe schedule and a coarse
    // granularity, none at its default, through probing and a refit.
    let knobs = PolicyConfig {
        granularity: 64,
        fit_mode: FitMode::LogOnly,
        solver: SolverChoice::RateProportionalOnly,
        probe_schedule: ProbeSchedule::ExponentialEqual,
        ..cfg()
    };
    let o = run_with(
        Scenario::Two,
        &heavy_cost(),
        4_000_000,
        &knobs,
        Setup {
            perturbations: vec![at(0.05, PerturbationKind::SetSlowdown(PuId(1), 3.0))],
            ..Default::default()
        },
    );
    assert!(o.triggers("divergence") >= 1);
    // 0x8603_6d13_5938_5e7a with unbounded profiles (0.4717 s, 163
    // tasks): the refits after the slowdown no longer average the old
    // speed in (0.4319 s, 155 tasks).
    // 0xc940_feaa_c86e_6067 then, the fixed point untouched by
    // the Armijo test. Closed at the cap with a probe in flight
    // (0.4313 s): 0xcde7_1c69_da5c_5123. The fixed point is gone; the
    // water-fill in its place read the same 0.431308 s, and the solver
    // knob left to turn is the rate-proportional split (0.5717 s).
    o.check("ablation_knobs_under_a_slowdown", 0xdc9d_e06b_ab11_d1eb);
}

// ---------------------------------------------------------------------
// Learning carried across runs.

/// PLB-HeC, keeping a copy of the run's checkpoint file as it stood
/// after `after` completions. The driver snapshots once the hook has
/// returned, so the copy is taken on entering the next one. No fault
/// fires in these runs, so the fault hooks keep their defaults.
struct KeepCheckpoint {
    inner: PlbHecPolicy,
    after: u64,
    live: PathBuf,
    kept: PathBuf,
}

impl Policy for KeepCheckpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        self.inner.on_start(ctx);
    }
    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        if self.after == 0 {
            std::fs::copy(&self.live, &self.kept).expect("the driver has snapshotted");
        }
        self.after = self.after.wrapping_sub(1);
        self.inner.on_task_finished(ctx, done);
    }
    fn snapshot(&self) -> Option<serde_json::Value> {
        self.inner.snapshot()
    }
}

/// Run to completion checkpointing after every task, then resume a
/// fresh policy on a fresh cluster from the snapshot that followed the
/// `after`-th completion. Returns that first run and the resumed one.
fn resume_after(after: u64) -> (Outcome, Outcome) {
    let tmp = |role: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "plb-policy-goldens-{}-{after}-{role}",
            std::process::id()
        ));
        p
    };
    let (live, kept) = (tmp("live"), tmp("kept"));
    let cost = heavy_cost();
    let mut first = KeepCheckpoint {
        inner: PlbHecPolicy::new(&cfg()),
        after,
        live: live.clone(),
        kept: kept.clone(),
    };
    let whole = engine_run(
        Scenario::Two,
        &cost,
        4_000_000,
        &mut first,
        Setup::default(),
        |e| e.with_checkpoint(CheckpointConfig::new(&live).with_interval(1)),
    );
    let ckpt = load(&kept).expect("the kept snapshot loads");
    assert_eq!(ckpt.tasks_done, after);
    for p in [live, kept] {
        std::fs::remove_file(p).expect("temp file removed");
    }
    let resumed = engine_run(
        Scenario::Two,
        &cost,
        4_000_000,
        &mut PlbHecPolicy::new(&cfg()),
        Setup::default(),
        |e| e.resume_from(ckpt),
    );
    (whole, resumed)
}

/// Completions on record when the modeling phase closed.
fn tasks_at_modeling_done(o: &Outcome) -> usize {
    let done = o.modeling_done_t();
    o.count(|e| e.t <= done && matches!(e.kind, EventKind::TaskFinish { .. }))
}

#[test]
fn resume_from_a_mid_modeling_checkpoint() {
    let (whole, o) = resume_after(6);
    assert!(tasks_at_modeling_done(&whole) > 6);
    assert!(o.count(is_probe) > 0, "too few samples to skip modeling");
    // 0x8f73_ad5d_0b34_bfea before the Armijo test (see above).
    o.check(
        "resume_from_a_mid_modeling_checkpoint",
        // 0xbc38_968b_ecb4_d18a before the root on `T` (see above).
        0x3439_7fa5_fe95_9ed0,
    );
}

#[test]
fn resume_from_a_mid_execution_checkpoint() {
    let (whole, o) = resume_after(60);
    assert!(tasks_at_modeling_done(&whole) < 60);
    assert_eq!(o.count(is_probe), 0, "resume re-fits, never re-probes");
    // 0x0d94_8e40_bf19_925f before the Armijo test (see above).
    o.check(
        "resume_from_a_mid_execution_checkpoint",
        // 0x1c05_f28d_26d7_219f before the root on `T` (see above).
        0x4d58_9a28_2d98_668f,
    );
}

#[test]
fn policy_object_reused_for_a_second_run() {
    // The cluster tier runs one nested engine per chunk against the
    // same policy object; its profiles are the second run's seed.
    let cost = heavy_cost();
    let mut policy = PlbHecPolicy::new(&cfg());
    let first = engine_run(
        Scenario::Two,
        &cost,
        2_000_000,
        &mut policy,
        Setup::default(),
        |e| e,
    );
    let second = engine_run(
        Scenario::Two,
        &cost,
        2_000_000,
        &mut policy,
        Setup::default(),
        |e| e,
    );
    assert!(first.count(is_probe) > 0);
    assert_eq!(second.count(is_probe), 0);
    // 0x763f_4e37_f1fc_732f and 0x9fdd_dbfc_91d3_2c24 before the
    // Armijo test (see above).
    check_all(&[
        (
            "policy_object_reused_for_a_second_run (first)",
            &first,
            // 0xf725_d0dd_118a_51f9 before the root on `T` (see above).
            0x1e7c_3700_1528_c2bf,
        ),
        (
            "policy_object_reused_for_a_second_run (second)",
            // 0x9973_2081_733b_8c1b when a chunk start re-fitted every
            // unit: no block of the first run left the band, so all
            // five models are kept and the five `curve_fit` events
            // are not emitted; every time and every block is as it was.
            &second,
            // 0x2cba_d5d0_16d1_87e9 before the root on `T` (see above).
            0x54ce_da76_050e_c099,
        ),
    ]);
}

// ---------------------------------------------------------------------
// The two defects ISSUE 19 fixes. Scenario::Two, Black-Scholes on
// 2 000 000 options, first probe 20 000.

fn defect_run(perturbations: Vec<Perturbation>) -> Outcome {
    let app = BlackScholes::new(2_000_000);
    run_with(
        Scenario::Two,
        &app.cost(),
        app.total_items(),
        &PolicyConfig::default().with_initial_block(20_000),
        Setup {
            perturbations,
            ..Default::default()
        },
    )
}

/// The four probes in flight when unit 4's second probe lands at
/// 0.1075 s and spends the data budget: units 0 and 2 on their first,
/// unit 1 on its fourth, unit 3 on its third.
const LATE_PROBES: [u64; 4] = [0, 2, 7, 10];

#[test]
fn idle_unit_lost_mid_modeling() {
    // Unit 4 spends the probe budget at 0.1075 s. It used to wait there,
    // idle, until every probe had landed.
    let o = defect_run(vec![at(0.12, PerturbationKind::Fail(PuId(4)))]);
    // 0x3db3_fc1f_bbbf_2c2e at the parent, where losing the idle unit
    // un-counted unit 2's probe: the phase closed at 0.1603 s with that
    // probe in flight and unit 2 was modelled from no sample at all
    // (makespan 0.8873 s — by accident, the partial-model close-out of
    // ROADMAP item 7). It closes at 0.7055 s now, every probe landed
    // (1.4270 s).
    // 0x6a2a_ebf6_9de1_63d5 then; 0xb957_0d2d_d67c_06ad with the Armijo
    // test (1.4265 s). Closed at the cap, the phase ends at unit 4's
    // landing with four probes in flight, and the loss takes unit 4 out
    // of a running split: units 0 and 2 join it as their first probes
    // land (0.8591 s).
    // 0x5d7a_73cf_4e6e_eb93 before the root on `T` (see above).
    o.check("idle_unit_lost_mid_modeling", 0x9f1b_c041_c2e8_474d);
    assert!(
        o.modeling_done_t() < 0.12,
        "the loss lands in the execution phase"
    );
    assert_eq!(o.in_flight_at_modeling_done(), LATE_PROBES);
    assert_eq!(o.triggers("device-lost"), 1);
}

#[test]
fn busy_unit_lost_at_the_modeling_cap() {
    // The same run with the loss on unit 3: its third probe, in flight
    // when the cap closed the phase, is lost with it.
    let o = defect_run(vec![at(0.12, PerturbationKind::Fail(PuId(3)))]);
    assert_eq!(o.in_flight_at_modeling_done(), LATE_PROBES);
    assert_eq!(o.triggers("device-lost"), 1);
    // 0xcd44_51d2_7a6f_2b06 at the parent (1.4531 s): with the lost
    // probe's 10 317 cost units back in the budget, unit 0 fits two more
    // probes under the cap (1.4016 s).
    // 0x55f6_1e39_1d03_8c65 then; 0x9574_fad0_cdfb_1df0 with the Armijo
    // test (1.4013 s). Closed at the cap, as above.
    // 0x8146_cabf_cc7f_63cd before the root on `T` (see above).
    o.check("busy_unit_lost_at_the_modeling_cap", 0x1800_b4a0_f9a4_a8f5);
}

#[test]
fn unit_restored_mid_modeling() {
    // Unit 3 is lost on its second probe; restored in the same phase,
    // restored once a split is running, or never.
    let lost = at(0.09, PerturbationKind::Fail(PuId(3)));
    let restore = |t| at(t, PerturbationKind::Restore(PuId(3)));
    let early = defect_run(vec![lost.clone(), restore(0.10)]);
    let late = defect_run(vec![lost.clone(), restore(0.80)]);
    let never = defect_run(vec![lost]);
    // At the parent 0xceb6_2e49_0fa9_eea1, 0x7729_fbe6_019b_ab5e and
    // 0xfd54_e08d_9f28_ed44: restoring early did exactly what never
    // restoring did (1.4354 s, 20 000 items on unit 3), against 1.3613 s
    // for the late restore. Now 1.3769 s with 184 131 items, 1.3683 s
    // and 1.4428 s; the last two moved with the lost probe's 5 159 cost
    // units going back to the budget.
    // 0xd573_3ae0_b835_760a, 0x4ffb_d463_72f2_e0b3 and
    // 0xb42a_ed35_df03_2cc9 then; 0xbdfc_a3b5_3ae1_f91e,
    // 0x91c1_ffb8_a3f7_710b and 0x0edd_0fb4_0fa6_dbcf with the Armijo
    // test. Closed at the cap with three or four probes in flight, unit
    // 2's first among them: 0.8003 s, 0.8593 s and 0.9131 s.
    check_all(&[
        // 0x6477_5c1c_6e82_4d77 before the root on `T` (see above).
        ("unit_restored_mid_modeling", &early, 0x0aa2_daed_04f9_5c23),
        // 0xbaee_2dac_ebbd_012b before the root on `T` (see above).
        ("unit_restored_mid_execution", &late, 0x28a4_d294_a0e5_c06a),
        (
            "unit_lost_and_never_restored",
            &never,
            // 0x6bcd_202d_b190_a388 before the root on `T` (see above).
            0xa791_3ce5_2f6d_acb4,
        ),
    ]);
    assert!(early.modeling_done_t() > 0.10 && late.modeling_done_t() < 0.80);
    let restored = early
        .events
        .iter()
        .position(|e| matches!(e.kind, EventKind::DeviceRestored))
        .expect("unit 3 is restored");
    assert!(
        early.events[restored..]
            .iter()
            .any(|e| e.pu == Some(3) && matches!(e.kind, EventKind::TaskFinish { .. })),
        "a unit restored mid-modeling works again"
    );
    assert!(early.items()[3] > late.items()[3] && late.items()[3] > never.items()[3]);
    assert!(
        early.report.makespan < never.report.makespan,
        "restored early {} s, never {} s",
        early.report.makespan,
        never.report.makespan
    );
}
