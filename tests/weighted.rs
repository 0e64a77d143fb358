//! The weighted range model end-to-end: cost-budgeted claims must mean
//! the same thing on the virtual-clock simulator and the real-thread
//! host engine, `Weights::Uniform` must be a strict identity with the
//! pre-weights behavior, and on a skewed irregular workload (the SpMV
//! app) balancing *cost* must beat balancing *row counts*.

use plb_hec_suite::apps::spmv::SpmvData;
use plb_hec_suite::apps::Spmv;
use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::workload::LinearCost;
use plb_hec_suite::hetsim::PuKind;
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, PuId, Scenario};
use plb_hec_suite::plb::{GreedyPolicy, PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{
    Codelet, Event, EventKind, FnCodelet, HostEngine, HostPu, Policy, SchedulerCtx, SimEngine,
    TaskInfo, Weights,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const ROWS: u64 = 20_000;
const SKEW: f64 = 1.5;
const SEED: u64 = 7;

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

fn host_pus(n: usize) -> Vec<HostPu> {
    (0..n)
        .map(|i| HostPu {
            name: format!("pu{i}"),
            kind: PuKind::Cpu,
            threads: 1,
        })
        .collect()
}

/// A static policy that hands every unit an equal *cost* share up
/// front, in unit order. All claims happen inside `on_start`, before
/// any completion, so the claimed ranges are decided entirely by the
/// shared core's cursor arithmetic — nothing about them depends on the
/// clock, and both engines must produce them identically.
struct EqualCostSharePolicy;

impl Policy for EqualCostSharePolicy {
    fn name(&self) -> &str {
        "equal-cost-share"
    }
    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let ids: Vec<PuId> = ctx.pus().iter().map(|p| p.id).collect();
        let n = ids.len() as u64;
        let fair = (ctx.total_cost() / n).max(1);
        for (i, id) in ids.iter().enumerate() {
            // The last unit sweeps the residue so the pool drains.
            let budget = if i + 1 == ids.len() {
                ctx.remaining_cost()
            } else {
                fair
            };
            ctx.assign(*id, budget);
        }
    }
    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, _done: &TaskInfo) {
        // Mop up rounding residue (a fair-share claim may round down to
        // an item boundary short of its budget).
        let ids: Vec<PuId> = ctx.pus().iter().map(|p| p.id).collect();
        for id in ids {
            if ctx.remaining_cost() == 0 {
                break;
            }
            if !ctx.is_busy(id) {
                ctx.assign(id, ctx.remaining_cost());
            }
        }
    }
}

/// Per-unit `(cost, items)` sums from a run's TaskFinish events.
fn finished_by_unit(events: &[Event]) -> BTreeMap<usize, (u64, u64)> {
    let mut per_unit: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for e in events {
        if let (Some(pu), EventKind::TaskFinish { items, cost, .. }) = (e.pu, &e.kind) {
            let entry = per_unit.entry(pu).or_default();
            entry.0 += cost;
            entry.1 += items;
        }
    }
    per_unit
}

#[test]
fn engines_agree_on_per_unit_cost_shares() {
    let app = Spmv::new(ROWS, SKEW, SEED).expect("valid spmv parameters");
    let weights = app.weights();
    let total_cost = weights.total_cost(ROWS);
    assert!(
        total_cost > ROWS,
        "a skewed matrix must cost more than one unit per row"
    );

    // Simulator run.
    let mut cluster = sim_cluster();
    let n = cluster.ids().count();
    let cost_model = app.cost();
    let mut engine = SimEngine::new(&mut cluster, &cost_model).with_weights(Arc::clone(&weights));
    let sim_report = engine
        .run(&mut EqualCostSharePolicy, ROWS)
        .expect("sim run completes");
    let sim_units = finished_by_unit(&engine.last_events().expect("events").events());

    // Host run, same unit count, no-op codelet.
    let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("noop", |_r, _| {}));
    let mut host = HostEngine::new(host_pus(n)).with_weights(Arc::clone(&weights));
    let host_report = host
        .run(&mut EqualCostSharePolicy, codelet, ROWS)
        .expect("host run completes");
    let host_units = finished_by_unit(&host.last_events().expect("events").events());

    assert_eq!(sim_report.total_items, ROWS);
    assert_eq!(host_report.total_items, ROWS);

    // The engines agree unit for unit on both claimed cost and items.
    assert_eq!(
        sim_units, host_units,
        "sim and host disagreed on per-unit cost/item totals"
    );

    // All cost is accounted for, and every unit's cost share is close
    // to the fair 1/n while the *item* counts are visibly unequal —
    // the whole point of budgeting claims in cost units.
    let sum_cost: u64 = sim_units.values().map(|&(c, _)| c).sum();
    assert_eq!(sum_cost, total_cost, "cost conservation");
    let shares: Vec<f64> = sim_units
        .values()
        .map(|&(c, _)| c as f64 / total_cost as f64)
        .collect();
    let fair = 1.0 / n as f64;
    for (i, s) in shares.iter().enumerate() {
        assert!(
            (s - fair).abs() < 0.05 * fair.max(*s),
            "unit {i} cost share {s:.4} strays from fair {fair:.4}"
        );
    }
    let items: Vec<u64> = sim_units.values().map(|&(_, i)| i).collect();
    let (min_items, max_items) = (
        items.iter().copied().min().unwrap_or(0),
        items.iter().copied().max().unwrap_or(0),
    );
    assert!(
        max_items > min_items,
        "equal cost shares of a skewed matrix must claim unequal row counts"
    );
}

#[test]
fn uniform_weights_are_an_identity() {
    // The same run with an explicit `Weights::uniform()` table and with
    // no table at all must produce bit-identical event streams: the
    // uniform fast path IS the pre-weights behavior. The policy here is
    // deterministic (no measured solver time charged to the clock), so
    // any divergence is the weights table's fault.
    let total: u64 = 20_000;
    let run = |weights: Option<Arc<Weights>>| -> Vec<Event> {
        let mut cluster = sim_cluster();
        let cost = LinearCost::generic();
        let mut engine = SimEngine::new(&mut cluster, &cost);
        if let Some(w) = weights {
            engine = engine.with_weights(w);
        }
        let _ = engine
            .run(&mut EqualCostSharePolicy, total)
            .expect("run completes");
        engine.last_events().expect("events recorded").events()
    };
    let implicit = run(None);
    let explicit = run(Some(Weights::uniform()));
    assert!(!implicit.is_empty());
    assert_eq!(
        implicit, explicit,
        "Weights::Uniform changed engine behavior"
    );
}

#[test]
fn weighted_plb_hec_beats_count_uniform_on_skewed_spmv() {
    // The e2e payoff: on a skewed SpMV, telling the scheduler the true
    // per-row cost (weighted run) must yield a strictly better makespan
    // than pretending rows are uniform (count-uniform baseline). Both
    // runs execute the *same* matrix through the same cost model on the
    // same noise-free cluster; only the claim/selection domain differs.
    let app = Spmv::new(ROWS, 0.8, SEED).expect("valid spmv parameters");
    let cost_model = app.cost();
    let run = |weights: Arc<Weights>| -> f64 {
        let mut cluster = sim_cluster();
        let total_cost = weights.total_cost(ROWS);
        let cfg = PolicyConfig::default()
            .with_initial_block((total_cost / 64).max(1))
            .with_round_fraction(0.2);
        let mut policy = PlbHecPolicy::new(&cfg);
        let mut engine = SimEngine::new(&mut cluster, &cost_model).with_weights(weights);
        engine
            .run(&mut policy, ROWS)
            .expect("run completes")
            .makespan
    };
    let weighted = run(app.weights());
    let uniform = run(Weights::uniform());
    assert!(
        weighted < uniform,
        "weighted PLB-HeC ({weighted:.6}s) must strictly beat the count-uniform \
         baseline ({uniform:.6}s) on a skewed matrix"
    );
}

#[test]
fn weighted_runs_keep_their_bits_across_commits() {
    // `plbmark` compares a binary with itself; this compares commits.
    // Printed by this test at commit 323660e, where the cost model and
    // the weights were two tables built from a third: the makespan's
    // bits, the task count and every unit's item count, under PLB-HeC
    // and under greedy. PLB-HeC's was 0x3f83_5ea1_e483_aec5 (9.458 ms,
    // 23 tasks, [14 001, 1 313, 1 648, 2 123, 915]) before the modeling
    // phase closed at its data cap: the slow units' first probes land
    // late, and the split starts without waiting for them (1.967 ms).
    let golden = [
        (
            0x3f60_1c42_77ba_edecu64,
            17usize,
            vec![17_519u64, 1_429, 270, 475, 307],
        ),
        (
            0x3f70_182b_6b48_5c24,
            74,
            vec![15_097, 2_867, 271, 912, 853],
        ),
    ];
    let app = Spmv::new(ROWS, 0.8, SEED).expect("valid spmv parameters");
    let cost_model = app.cost();
    let cfg = PolicyConfig::default()
        .with_initial_block((app.weights().total_cost(ROWS) / 64).max(1))
        .with_round_fraction(0.2);
    let run = |policy: &mut dyn Policy| {
        let mut cluster = sim_cluster();
        let report = SimEngine::new(&mut cluster, &cost_model)
            .with_weights(app.weights())
            .run(policy, ROWS)
            .expect("run completes");
        assert_eq!(report.cover, vec![(0, ROWS)]);
        let items: Vec<u64> = report.pus.iter().map(|pu| pu.items).collect();
        (report.makespan.to_bits(), report.tasks, items)
    };
    let got = [
        run(&mut PlbHecPolicy::new(&cfg)),
        run(&mut GreedyPolicy::new(&cfg)),
    ];
    assert_eq!(got, golden, "(makespan bits, tasks, items per unit)");
}

#[test]
fn generated_matrix_keeps_its_bits_across_commits() {
    // Printed by this test at commit 323660e, where `generate` read the
    // row lengths from a `Vec<u32>` of the app's own: the nonzero count
    // and the FNV-1a hash of `row_ptr`, `cols`, `vals` and `x`, each
    // word as its little-endian bytes.
    const GOLDEN: (usize, u64) = (218_696, 0xa804_ccbb_dd9d_649c);
    let app = Spmv::new(2_000, 0.8, 201_509).expect("valid spmv parameters");
    let data = SpmvData::generate(&app);
    let words = (data.row_ptr.iter().copied())
        .chain(data.cols.iter().map(|&c| u64::from(c)))
        .chain(data.vals.iter().chain(&data.x).map(|v| v.to_bits()));
    let hash = words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!((data.cols.len(), hash), GOLDEN);
}
