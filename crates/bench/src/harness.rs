//! The scenario runner.

use plb_hec::{
    AcostaPolicy, GreedyPolicy, HdssPolicy, PlbHecPolicy, PolicyConfig, SelectionResult,
};
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::{cluster_scenario, ClusterSim, CostModel, Scenario};
use plb_runtime::{EventSink, Perturbation, RunReport, SimEngine, Trace, Weights};
use std::sync::Arc;

/// An evaluation application at a given input size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    /// Matrix multiplication of the given order.
    MatMul(u64),
    /// GRN inference over the given gene count.
    Grn(u64),
    /// Black-Scholes over the given option count.
    BlackScholes(u64),
    /// Dense NN-layer inference over the given batch size (extension
    /// app; fixed 16384x16384 layer = 1 GB of broadcast weights).
    NnLayer(u64),
    /// Sparse matrix–vector multiply: the irregular-workload extension
    /// app. Rows follow a seeded power-law length distribution; the run
    /// carries per-row [`Weights`] so work is balanced by nonzeros.
    Spmv {
        /// Matrix order (items = rows).
        rows: u64,
        /// Power-law exponent (see [`plb_apps::Spmv::validate`]).
        skew: f64,
        /// Matrix generator seed.
        seed: u64,
    },
}

/// What a run needs of its application, built once by [`App::inputs`].
pub struct AppInputs {
    /// The simulator cost model.
    pub cost: Box<dyn CostModel>,
    /// The run's work weights: per-row nonzero costs for SpMV (the very
    /// table `cost` reads), uniform for the regular apps (for which
    /// cost ≡ item count).
    pub weights: Arc<Weights>,
    /// Total work items.
    pub total_items: u64,
    /// Total workload weight in cost units (equals `total_items` for
    /// the uniform apps): the quantity block-size heuristics should
    /// scale with.
    pub total_cost: u64,
}

impl App {
    /// Build the run's inputs. For [`App::Spmv`] this generates the
    /// matrix's row profile — once, whatever the run then reads of it.
    /// Panics on parameters [`plb_apps::Spmv::validate`] rejects — the
    /// CLI validates before constructing the variant.
    pub fn inputs(&self) -> AppInputs {
        let uniform = |cost: Box<dyn CostModel>| (cost, Weights::uniform());
        let (cost, weights) = match *self {
            App::MatMul(n) => uniform(Box::new(plb_apps::MatMul::new(n).cost())),
            App::Grn(n) => uniform(Box::new(plb_apps::GrnInference::new(n).cost())),
            App::BlackScholes(n) => uniform(Box::new(plb_apps::BlackScholes::new(n).cost())),
            App::NnLayer(n) => uniform(Box::new(plb_apps::NnLayer::new(n, 16384, 16384).cost())),
            App::Spmv { rows, skew, seed } => {
                let app = plb_apps::Spmv::new(rows, skew, seed)
                    .expect("spmv parameters validated by caller");
                (Box::new(app.cost()) as Box<dyn CostModel>, app.weights())
            }
        };
        let total_items = self.total_items();
        AppInputs {
            cost,
            total_cost: weights.total_cost(total_items),
            weights,
            total_items,
        }
    }

    /// Total work items.
    pub(crate) fn total_items(&self) -> u64 {
        match *self {
            App::MatMul(n) => n,
            App::Grn(n) => n,
            App::BlackScholes(n) => n,
            App::NnLayer(n) => n,
            App::Spmv { rows, .. } => rows,
        }
    }

    /// Display label, e.g. `"MM 16384"`.
    pub fn label(&self) -> String {
        match *self {
            App::MatMul(n) => format!("MM {n}"),
            App::Grn(n) => format!("GRN {n}"),
            App::BlackScholes(n) => format!("BS {n}"),
            App::NnLayer(n) => format!("NN {n}"),
            App::Spmv { rows, skew, .. } => format!("SPMV {rows} a={skew}"),
        }
    }
}

/// The four scheduling algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// StarPU-style greedy dispatch (the speedup baseline).
    Greedy,
    /// Acosta et al. relative-power balancing.
    Acosta,
    /// HDSS two-phase weighting.
    Hdss,
    /// PLB-HeC.
    PlbHec,
}

impl PolicyKind {
    /// All four, in the paper's presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::PlbHec,
        PolicyKind::Acosta,
        PolicyKind::Hdss,
        PolicyKind::Greedy,
    ];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Greedy => "greedy",
            PolicyKind::Acosta => "acosta",
            PolicyKind::Hdss => "hdss",
            PolicyKind::PlbHec => "plb-hec",
        }
    }
}

/// One run's full outcome.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The runtime's report (makespan, per-unit shares, idleness).
    pub report: RunReport,
    /// The execution trace (for Gantt rendering).
    pub trace: Trace,
    /// PLB-HeC only: wall-clock seconds of each block-size solve.
    pub solve_times: Vec<f64>,
    /// PLB-HeC only: the run's first block-size selection.
    pub selection: Option<SelectionResult>,
    /// Rebalance / share-update events the policy performed.
    pub rebalances: usize,
    /// The structured decision-event stream of the run (see
    /// [`plb_runtime::events`]).
    pub events: EventSink,
}

/// The paper's `initialBlockSize` heuristic: chosen "empirically, so
/// that the initial phase of the algorithm would take about 10% of the
/// application execution time", with the same block used by every
/// algorithm. The modeling phase's duration is dominated by the fastest
/// unit's probe blocks (slow units get `t_f/t_k`-rescaled ones), and
/// the first (unscaled) round is dominated by the *slowest* unit, so the
/// budget works out near `initial ≈ 0.001 · total` on the Table I
/// spread.
///
/// The floor reflects practice: a kernel launch must expose enough
/// fine-grained parallelism to be worth dispatching at all (~10⁵
/// threads), so items that carry little parallelism each (options) get a
/// higher floor than items that are already wide (matrix columns). Tiny
/// inputs end up with blocks that are a visible fraction of the data —
/// exactly where the paper reports "large fluctuation".
pub fn default_initial_block(total_items: u64, cost: &dyn plb_hetsim::CostModel) -> u64 {
    let threads_per_item = cost.threads(1).max(1.0);
    let total = total_items.max(1);
    let floor = ((1e5 / threads_per_item).ceil() as u64).clamp(32.min(total), total);
    let b = (total_items as f64 * 0.001).ceil().max(1.0) as u64;
    b.max(floor)
}

/// Run one (application, scenario, policy, seed) combination.
pub fn run_once(
    app: App,
    scenario: Scenario,
    single_gpu: bool,
    kind: PolicyKind,
    seed: u64,
    perturbations: Vec<Perturbation>,
) -> RunOutcome {
    run_with(
        &app.inputs(),
        scenario,
        single_gpu,
        kind,
        seed,
        perturbations,
    )
}

/// [`run_once`] over inputs the caller built, so repeated runs of one
/// application share them.
fn run_with(
    inputs: &AppInputs,
    scenario: Scenario,
    single_gpu: bool,
    kind: PolicyKind,
    seed: u64,
    perturbations: Vec<Perturbation>,
) -> RunOutcome {
    let machines = cluster_scenario(scenario, single_gpu);
    let opts = ClusterOptions {
        seed,
        noise_sigma: 0.02,
        ..Default::default()
    };
    let mut cluster = ClusterSim::build(&machines, &opts);
    let total = inputs.total_items;
    let cost = inputs.cost.as_ref();
    let cfg = PolicyConfig {
        // Block sizes are cost budgets, so the heuristic scales with
        // the workload's weight, not its item count (identical for the
        // uniform apps).
        initial_block: default_initial_block(inputs.total_cost, cost),
        seed,
        ..Default::default()
    };
    let mut engine = SimEngine::new(&mut cluster, cost)
        .with_weights(Arc::clone(&inputs.weights))
        .with_perturbations(perturbations);

    let (report, solve_times, selection, rebalances) = match kind {
        PolicyKind::Greedy => {
            let mut p = GreedyPolicy::new(&cfg);
            let r = engine.run(&mut p, total).expect("greedy run completes");
            (r, Vec::new(), None, 0)
        }
        PolicyKind::Acosta => {
            let mut p = AcostaPolicy::new(&cfg);
            let r = engine.run(&mut p, total).expect("acosta run completes");
            let reb = p.rebalances();
            (r, Vec::new(), None, reb)
        }
        PolicyKind::Hdss => {
            let mut p = HdssPolicy::new(&cfg);
            let r = engine.run(&mut p, total).expect("hdss run completes");
            (r, Vec::new(), None, 0)
        }
        PolicyKind::PlbHec => {
            let mut p = PlbHecPolicy::new(&cfg);
            let r = engine.run(&mut p, total).expect("plb-hec run completes");
            let st = p.selections().iter().map(|s| s.solve_seconds).collect();
            let reb = p.rebalances();
            (r, st, p.selections().first().cloned(), reb)
        }
    };
    let trace = engine.last_trace().expect("trace recorded").clone();
    let events = engine.last_events().cloned().unwrap_or_default();
    RunOutcome {
        report,
        trace,
        solve_times,
        selection,
        rebalances,
        events,
    }
}

/// Aggregate over the paper's 10-run protocol.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Mean makespan, seconds.
    pub mean_makespan: f64,
    /// Sample standard deviation of the makespan.
    pub std_makespan: f64,
    /// Per-seed outcomes (seed i at index i).
    pub runs: Vec<RunOutcome>,
}

impl Aggregate {
    /// Two-sided 95% confidence half-width of the mean makespan
    /// (Student-t on the 10-run protocol).
    pub(crate) fn makespan_ci95(&self) -> f64 {
        let makespans: Vec<f64> = self.runs.iter().map(|r| r.report.makespan).collect();
        plb_numerics::stats::confidence95_half_width(&makespans)
    }

    /// Mean of the per-unit item shares across runs (Fig. 6's bars).
    pub(crate) fn mean_item_shares(&self) -> Vec<f64> {
        let n = self.runs[0].report.pus.len();
        let mut m = vec![0.0; n];
        for r in &self.runs {
            for (i, pu) in r.report.pus.iter().enumerate() {
                m[i] += pu.item_share;
            }
        }
        for v in &mut m {
            *v /= self.runs.len() as f64;
        }
        m
    }

    /// Mean of the policies' declared block distributions (Fig. 6), when
    /// available.
    pub(crate) fn mean_block_distribution(&self) -> Option<Vec<f64>> {
        let dists: Vec<&Vec<f64>> = self
            .runs
            .iter()
            .filter_map(|r| r.report.block_distribution.as_ref())
            .collect();
        if dists.is_empty() {
            return None;
        }
        let n = dists[0].len();
        let mut m = vec![0.0; n];
        for d in &dists {
            for (i, v) in d.iter().enumerate() {
                m[i] += v;
            }
        }
        for v in &mut m {
            *v /= dists.len() as f64;
        }
        Some(m)
    }

    /// Per-unit standard deviation of the block distributions (the error
    /// bars of Fig. 6).
    pub(crate) fn std_block_distribution(&self) -> Option<Vec<f64>> {
        let mean = self.mean_block_distribution()?;
        let dists: Vec<&Vec<f64>> = self
            .runs
            .iter()
            .filter_map(|r| r.report.block_distribution.as_ref())
            .collect();
        if dists.len() < 2 {
            return Some(vec![0.0; mean.len()]);
        }
        let mut var = vec![0.0; mean.len()];
        for d in &dists {
            for (i, v) in d.iter().enumerate() {
                var[i] += (v - mean[i]) * (v - mean[i]);
            }
        }
        Some(
            var.iter()
                .map(|v| (v / (dists.len() - 1) as f64).sqrt())
                .collect(),
        )
    }

    /// Mean idle fraction per unit (Fig. 7's bars).
    pub(crate) fn mean_idle_fractions(&self) -> Vec<f64> {
        let n = self.runs[0].report.pus.len();
        let mut m = vec![0.0; n];
        for r in &self.runs {
            for (i, pu) in r.report.pus.iter().enumerate() {
                m[i] += pu.idle_fraction;
            }
        }
        for v in &mut m {
            *v /= self.runs.len() as f64;
        }
        m
    }
}

/// Run `seeds` repetitions (the paper uses 10).
pub fn run_many(
    app: App,
    scenario: Scenario,
    single_gpu: bool,
    kind: PolicyKind,
    seeds: u64,
) -> Aggregate {
    assert!(seeds > 0);
    let inputs = app.inputs();
    let runs: Vec<RunOutcome> = (0..seeds)
        .map(|s| run_with(&inputs, scenario, single_gpu, kind, s, Vec::new()))
        .collect();
    let makespans: Vec<f64> = runs.iter().map(|r| r.report.makespan).collect();
    Aggregate {
        mean_makespan: plb_numerics::mean(&makespans),
        std_makespan: plb_numerics::stats::sample_stddev(&makespans),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_block_heuristic() {
        // Wide items (matmul columns): floor is the 32-item minimum.
        let mm = App::MatMul(150_000).inputs().cost;
        assert_eq!(default_initial_block(150_000, mm.as_ref()), 150);
        // Narrow items (options, 128 threads each): floor ≈ 782 items.
        let bs = App::BlackScholes(500_000).inputs().cost;
        assert_eq!(default_initial_block(500_000, bs.as_ref()), 782);
        // Floor never exceeds the input itself.
        let bs_small = App::BlackScholes(100).inputs().cost;
        assert_eq!(default_initial_block(100, bs_small.as_ref()), 100);
        // Nor does it for inputs smaller than the 32-item minimum.
        for total in [1u64, 8, 31] {
            let mm = App::MatMul(total).inputs().cost;
            let bs = App::BlackScholes(total).inputs().cost;
            for cost in [mm.as_ref(), bs.as_ref()] {
                let block = default_initial_block(total, cost);
                assert!((1..=total).contains(&block), "{total}: {block}");
            }
        }
    }

    #[test]
    fn spmv_inputs_share_one_generated_table() {
        let app = App::Spmv {
            rows: 2_000,
            skew: 0.8,
            seed: 7,
        };
        let AppInputs {
            cost,
            weights,
            total_items,
            total_cost,
        } = app.inputs();
        assert_eq!(total_items, 2_000);
        assert_eq!(total_cost, weights.total_cost(total_items));
        assert_eq!(cost.flops_range(0, total_items), 2.0 * total_cost as f64);
        // The generated app is gone; what still holds the table beside
        // `weights` is the cost model, so it reads this allocation and
        // no second one was built.
        assert_eq!(Arc::strong_count(&weights), 2);
        drop(cost);
        assert_eq!(Arc::strong_count(&weights), 1);
        // The regular apps carry no table at all.
        let uniform = App::BlackScholes(1_000).inputs();
        assert_eq!(*uniform.weights, Weights::Uniform);
        assert_eq!(uniform.total_cost, uniform.total_items);
    }

    #[test]
    fn run_once_all_policies_complete() {
        for kind in PolicyKind::ALL {
            let o = run_once(
                App::BlackScholes(50_000),
                Scenario::Two,
                false,
                kind,
                0,
                Vec::new(),
            );
            assert_eq!(o.report.total_items, 50_000, "{kind:?}");
            assert!(o.report.makespan > 0.0);
        }
    }

    #[test]
    fn nn_extension_app_runs_and_streams_weights() {
        // The 1 GB weight matrix overflows the small GPUs: their shares
        // must come out below a proportional-by-core-count split.
        let o = run_once(
            App::NnLayer(50_000),
            Scenario::Four,
            false,
            PolicyKind::PlbHec,
            0,
            vec![],
        );
        assert_eq!(o.report.total_items, 50_000);
        // B's GTX 295 halves (0.44 GB memory) stream hardest; each gets
        // only a sliver of the batch.
        let b_gpu_share = o.report.pus[3].item_share + o.report.pus[4].item_share;
        assert!(
            b_gpu_share < 0.15,
            "streaming GPUs should be de-prioritized, got {b_gpu_share}"
        );
    }

    #[test]
    fn aggregate_statistics() {
        let agg = run_many(
            App::BlackScholes(30_000),
            Scenario::One,
            false,
            PolicyKind::Greedy,
            3,
        );
        assert_eq!(agg.runs.len(), 3);
        assert!(agg.mean_makespan > 0.0);
        assert!(agg.std_makespan >= 0.0);
        assert!(agg.makespan_ci95() >= 0.0);
        let shares = agg.mean_item_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn plb_records_solve_times() {
        let o = run_once(
            App::MatMul(8192),
            Scenario::Two,
            false,
            PolicyKind::PlbHec,
            1,
            Vec::new(),
        );
        assert!(!o.solve_times.is_empty());
    }

    #[test]
    fn outcomes_carry_event_streams() {
        let o = run_once(
            App::BlackScholes(50_000),
            Scenario::Two,
            false,
            PolicyKind::PlbHec,
            0,
            Vec::new(),
        );
        let c = o.events.counters();
        assert!(c.probes > 0 && c.curve_fits > 0 && c.solves > 0);
        assert_eq!(c.tasks_finished, o.report.tasks as u64);
    }
}
