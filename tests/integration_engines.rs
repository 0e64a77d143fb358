//! Cross-engine equivalence: the virtual-clock simulator and the
//! real-thread host executor are thin backends of the same scheduling
//! core (`plb_runtime`'s crate-private `core`), so under the same
//! policy and the same fault plan they must agree on everything the
//! core decides — which fault events fire and how often, how the item
//! space is covered, and which unit ends up with the work. Execution
//! *times* legitimately differ (virtual vs. wall clock); the decisions
//! must not.

use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::workload::LinearCost;
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, PuId, PuKind, Scenario};
use plb_hec_suite::runtime::{
    Codelet, EventKind, Fault, FaultKind, FaultPlan, FnCodelet, HostEngine, HostPu, Policy,
    RunReport, SchedulerCtx, SimEngine, TaskFailure, TaskInfo,
};
use std::sync::Arc;

const TOTAL: u64 = 20_000;
const BLOCK: u64 = 1_000;

/// A fixed-block policy that re-dispatches re-credited items: on every
/// callback it tops up each idle available unit (the minimal
/// fault-aware policy shape both engines are designed around).
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

/// Noise-free simulator cluster for Scenario::Two (machines A and B).
fn sim_cluster() -> ClusterSim {
    ClusterSim::build(
        &cluster_scenario(Scenario::Two, false),
        &ClusterOptions {
            noise_sigma: 0.0,
            ..Default::default()
        },
    )
}

/// A host-engine unit list parallel to the simulator's: same count, one
/// thread each, so fault-plan indices address the same logical units.
fn host_pus(n: usize) -> Vec<HostPu> {
    (0..n)
        .map(|i| HostPu {
            name: format!("pu{i}"),
            kind: PuKind::Cpu,
            threads: 1,
        })
        .collect()
}

/// Run the fault plan through the simulator and return its report plus
/// the fault-related event-kind sequence (see [`fault_event_label`]).
fn run_sim(
    plan: FaultPlan,
) -> (
    RunReport,
    std::collections::BTreeMap<usize, Vec<&'static str>>,
) {
    let mut cluster = sim_cluster();
    let cost = LinearCost::generic();
    let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(plan);
    let report = engine
        .run(&mut RedispatchPolicy { block: BLOCK }, TOTAL)
        .expect("sim run completes");
    let seq = fault_sequence(engine.last_events().expect("events recorded").events());
    (report, seq)
}

/// Run the same plan through the host engine; also returns the exact
/// item ranges the codelet executed, for the disjoint-cover check.
fn run_host(
    n_units: usize,
    plan: FaultPlan,
) -> (
    RunReport,
    std::collections::BTreeMap<usize, Vec<&'static str>>,
    Vec<std::ops::Range<u64>>,
) {
    use std::sync::Mutex;
    let ranges = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&ranges);
    let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("collect", move |r, _| {
        r2.lock().expect("range log lock").push(r);
    }));
    let mut engine = HostEngine::new(host_pus(n_units)).with_faults(plan);
    let report = engine
        .run(&mut RedispatchPolicy { block: BLOCK }, codelet, TOTAL)
        .expect("host run completes");
    let seq = fault_sequence(engine.last_events().expect("events recorded").events());
    let got = ranges.lock().expect("range log lock").clone();
    (report, seq, got)
}

fn fault_event_label(kind: &EventKind) -> Option<&'static str> {
    match kind {
        EventKind::TaskFailed { .. } => Some("failed"),
        EventKind::TaskRetry { .. } => Some("retry"),
        EventKind::PuQuarantined { .. } => Some("quarantined"),
        EventKind::DeviceFailed => Some("device-failed"),
        EventKind::DeviceRestored => Some("device-restored"),
        EventKind::PuJoined { .. } => Some("joined"),
        _ => None,
    }
}

/// The per-unit fault-response story of a run: which fault events fired
/// on each unit, in emission order. The *interleaving across units* is
/// timing-dependent (wall clock vs. virtual clock), but each unit's own
/// sequence is decided by the shared core, so the two engines must
/// produce it identically.
fn fault_sequence(
    events: Vec<plb_hec_suite::runtime::Event>,
) -> std::collections::BTreeMap<usize, Vec<&'static str>> {
    let mut per_unit: std::collections::BTreeMap<usize, Vec<&'static str>> = Default::default();
    for e in &events {
        if let (Some(pu), Some(label)) = (e.pu, fault_event_label(&e.kind)) {
            per_unit.entry(pu).or_default().push(label);
        }
    }
    per_unit
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

fn flaky_forever(pu: usize) -> Fault {
    Fault {
        pu,
        kind: FaultKind::FlakyUntil { attempts: u64::MAX },
    }
}

#[test]
fn engines_agree_when_all_but_one_unit_is_quarantined() {
    // Every unit except the last is flaky forever: each accumulates
    // exactly 3 consecutive failures (one dispatch + two in-place
    // retries), is quarantined, and its items are re-credited to the
    // lone survivor. None of that depends on the clock, so the two
    // engines must tell the identical story.
    let n = sim_cluster().len();
    assert!(n >= 2, "the equivalence scenario needs a survivor");
    let plan = FaultPlan::new((0..n - 1).map(flaky_forever).collect());

    let (sim, sim_seq) = run_sim(plan.clone());
    let (host, host_seq, ranges) = run_host(n, plan);

    let k = (n - 1) as u64;
    for report in [&sim, &host] {
        assert_eq!(report.total_items, TOTAL);
        assert_eq!(report.events.task_failures, 3 * k);
        assert_eq!(report.events.task_retries, 2 * k);
        assert_eq!(report.events.quarantines, k);
        assert_eq!(report.events.device_failures, k);
    }

    // The forced distribution: quarantined units complete nothing, the
    // survivor completes everything — per-unit shares agree exactly.
    for i in 0..n {
        assert!(
            (sim.pus[i].item_share - host.pus[i].item_share).abs() < 1e-6,
            "share of unit {i} diverged: sim {} vs host {}",
            sim.pus[i].item_share,
            host.pus[i].item_share
        );
    }
    assert_eq!(sim.pus[n - 1].items, TOTAL);
    assert_eq!(host.pus[n - 1].items, TOTAL);

    // The host engine really executed a disjoint cover of 0..TOTAL; the
    // simulator executes no kernels, so its cover is checked through
    // the report's conservation law.
    assert_disjoint_cover(ranges, TOTAL);
    let sim_items: u64 = sim.pus.iter().map(|p| p.items).sum();
    assert_eq!(sim_items, TOTAL);

    // Per-unit fault-event sequences match event for event.
    assert_eq!(sim_seq, host_seq);
}

#[test]
fn engines_agree_on_hot_join_and_drift() {
    // Unit 1 is latent until 8 tasks complete globally, then hot-joins;
    // unit 0 ramps to 2× slower over its first 10 launches. Admission is
    // decided by the shared core on the global completed-task count, so
    // both engines must admit at the same point and tell the same
    // story; drift only stretches execution *times*, which the
    // equivalence deliberately does not compare.
    let n = sim_cluster().len();
    let plan = FaultPlan::parse(
        "join:pu=1,after=8; drift:pu=0,kind=ramp,from=0,n=10,to=2.0",
        n,
    )
    .expect("valid elastic plan");

    let (sim, sim_seq) = run_sim(plan.clone());
    let (host, host_seq, ranges) = run_host(n, plan);

    for report in [&sim, &host] {
        assert_eq!(report.total_items, TOTAL);
        assert_eq!(report.events.joins, 1, "exactly one admission");
        assert!(report.pus[1].items > 0, "joined unit must receive work");
    }
    assert_disjoint_cover(ranges, TOTAL);
    let sim_items: u64 = sim.pus.iter().map(|p| p.items).sum();
    assert_eq!(sim_items, TOTAL);

    // Per-unit fault/elastic sequences match event for event, and the
    // joined unit's story is exactly one admission.
    assert_eq!(sim_seq, host_seq);
    assert_eq!(sim_seq.get(&1), Some(&vec!["joined"]));
}

#[test]
fn event_streams_are_deterministic_across_repeat_runs() {
    // Run-to-run determinism, the property lint pass 9
    // (`nondeterminism-confinement`) exists to protect: the runtime and
    // policy state now lives exclusively in ordered collections
    // (`BTreeMap`/`BTreeSet`), so repeating the same plan must
    // reproduce the same decisions — not just equal counters.
    let n = sim_cluster().len();
    let plan = FaultPlan::parse(
        "flaky:pu=0,n=4; join:pu=1,after=8; drift:pu=0,kind=ramp,from=0,n=10,to=2.0",
        n,
    )
    .expect("valid mixed plan");

    // The simulator runs on a virtual clock, so its *entire* event
    // stream — sequence numbers, timestamps, payloads — must be
    // identical between two runs of the same plan.
    let sim_events = |plan: FaultPlan| -> Vec<plb_hec_suite::runtime::Event> {
        let mut cluster = sim_cluster();
        let cost = LinearCost::generic();
        let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(plan);
        let _report = engine
            .run(&mut RedispatchPolicy { block: BLOCK }, TOTAL)
            .expect("sim run completes");
        engine.last_events().expect("events recorded").events()
    };
    let first = sim_events(plan.clone());
    let second = sim_events(plan.clone());
    assert!(!first.is_empty(), "the plan must produce events");
    assert_eq!(
        first, second,
        "two identical sim runs diverged — hidden nondeterminism in the core"
    );

    // The host engine's timestamps and cross-unit interleavings are
    // wall-clock, but each unit's own fault-response story is decided
    // by the shared core and must replay exactly.
    let (_, host_first, _) = run_host(n, plan.clone());
    let (_, host_second, _) = run_host(n, plan);
    assert_eq!(
        host_first, host_second,
        "two identical host runs told different per-unit fault stories"
    );
}

#[test]
fn engines_agree_on_isolated_retry() {
    // A single panic on unit 0's first attempt: retried in place,
    // no quarantine, nothing lost — on both engines.
    let n = sim_cluster().len();
    let plan = FaultPlan::new(vec![Fault {
        pu: 0,
        kind: FaultKind::PanicOnAttempt { nth: 0 },
    }]);

    let (sim, sim_seq) = run_sim(plan.clone());
    let (host, host_seq, ranges) = run_host(n, plan);

    for report in [&sim, &host] {
        assert_eq!(report.total_items, TOTAL);
        assert_eq!(report.events.task_failures, 1);
        assert_eq!(report.events.task_retries, 1);
        assert_eq!(report.events.quarantines, 0);
        assert_eq!(report.events.device_failures, 0);
        assert!(
            report.pus[0].items > 0,
            "the retried unit keeps working after its one bad attempt"
        );
    }
    assert_disjoint_cover(ranges, TOTAL);
    assert_eq!(sim_seq, host_seq);
    assert_eq!(
        sim_seq.get(&0),
        Some(&vec!["failed", "retry"]),
        "unit 0's story is one failure followed by one in-place retry"
    );
}
