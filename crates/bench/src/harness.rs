//! The run description, [`RunSpec`], and the one path from it to an
//! engine, [`RunSpec::run`].

use plb_hec::{
    AcostaPolicy, GreedyPolicy, HdssPolicy, NodeDiffusionPolicy, PerfProfile, PlbHecPolicy,
    PolicyConfig, SelectionResult, StaticProfilePolicy, UnitModel,
};
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, CostModel, MachineSpec, PuId, Scenario, Topology};
use plb_numerics::FitError;
use plb_runtime::{
    equal_cost_shards, Checkpoint, CheckpointConfig, ClusterEngine, Engine, EventSink, FaultPlan,
    NodeFaultPlan, Perturbation, Policy, RunError, RunReport, SimEngine, SimNodeRunner, UnitLedger,
    Weights,
};
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
    /// The ablations' synthetic kernel whose execution blocks sit on the
    /// GPU occupancy ramp: one thread per item and substantial per-item
    /// work, so blocks of ~10-20k items expose only 10-20k threads, well
    /// below the big GPUs' ~40k-thread half-occupancy points.
    Ramp(u64),
    /// The ablations' synthetic saturated kernel: 64 threads per item.
    Saturated(u64),
}

/// What a run needs of its application, built once by [`App::inputs`].
pub(crate) struct AppInputs {
    /// The simulator cost model.
    pub(crate) cost: Box<dyn CostModel>,
    /// The run's work weights: per-row nonzero costs for SpMV (the very
    /// table `cost` reads), uniform for the regular apps (for which
    /// cost ≡ item count).
    pub(crate) weights: Arc<Weights>,
    /// Total work items.
    pub(crate) total_items: u64,
    /// Total workload weight in cost units (equals `total_items` for
    /// the uniform apps): the quantity block-size heuristics should
    /// scale with.
    pub(crate) total_cost: u64,
}

impl App {
    /// Build the run's inputs. For [`App::Spmv`] this generates the
    /// matrix's row profile — once, whatever the run then reads of it.
    /// Panics on parameters [`plb_apps::Spmv::validate`] rejects — the
    /// CLI validates before constructing the variant.
    pub(crate) fn inputs(&self) -> AppInputs {
        let uniform = |cost: Box<dyn CostModel>| (cost, Weights::uniform());
        let (cost, weights) = match *self {
            App::MatMul(n) => uniform(Box::new(plb_apps::MatMul::new(n).cost())),
            App::Grn(n) => uniform(Box::new(plb_apps::GrnInference::new(n).cost())),
            App::BlackScholes(n) => uniform(Box::new(plb_apps::BlackScholes::new(n).cost())),
            App::NnLayer(n) => uniform(Box::new(plb_apps::NnLayer::new(n, 16384, 16384).cost())),
            App::Ramp(_) => uniform(Box::new(LinearCost {
                label: "ramp".into(),
                flops_per_item: 2e5,
                in_bytes_per_item: 64.0,
                out_bytes_per_item: 8.0,
                threads_per_item: 1.0,
            })),
            App::Saturated(_) => uniform(Box::new(LinearCost {
                label: "saturated".into(),
                flops_per_item: 1e5,
                in_bytes_per_item: 64.0,
                out_bytes_per_item: 16.0,
                threads_per_item: 64.0,
            })),
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
            App::Ramp(n) => n,
            App::Saturated(n) => n,
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
            App::Ramp(n) => format!("ramp {n}"),
            App::Saturated(n) => format!("saturated {n}"),
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
    /// The per-unit ledger the report was built from (the `unit`
    /// records of the run's trace file).
    pub ledger: Vec<UnitLedger>,
    /// PLB-HeC only: wall-clock seconds of each block-size solve.
    pub solve_times: Vec<f64>,
    /// PLB-HeC only: the run's first block-size selection.
    pub selection: Option<SelectionResult>,
    /// Rebalance / share-update events the policy performed.
    pub rebalances: usize,
    /// The structured event stream of the run (see
    /// [`plb_runtime::events`]); its Gantt segments are
    /// [`plb_runtime::gantt_segments`] of it.
    pub events: EventSink,
    /// The policy configuration the run used.
    pub config: PolicyConfig,
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
pub(crate) fn default_initial_block(total_items: u64, cost: &dyn plb_hetsim::CostModel) -> u64 {
    let threads_per_item = cost.threads(1).max(1.0);
    let total = total_items.max(1);
    let floor = ((1e5 / threads_per_item).ceil() as u64).clamp(32.min(total), total);
    let b = (total_items as f64 * 0.001).ceil().max(1.0) as u64;
    b.max(floor)
}

/// The policy a run balances with.
#[derive(Debug, Clone)]
pub enum PolicyChoice {
    /// One of the paper's four algorithms.
    Paper(PolicyKind),
    /// The static prior-profile distribution (the paper's reference
    /// \[17\]) over offline profiles, e.g. from [`RunSpec::profile`].
    Static(Vec<UnitModel>),
}

impl PolicyChoice {
    /// The one place a policy is built.
    fn build(&self, cfg: &PolicyConfig) -> Built {
        match self {
            PolicyChoice::Paper(PolicyKind::PlbHec) => {
                Built::PlbHec(Box::new(PlbHecPolicy::new(cfg)))
            }
            PolicyChoice::Paper(PolicyKind::Acosta) => Built::Acosta(AcostaPolicy::new(cfg)),
            PolicyChoice::Paper(PolicyKind::Hdss) => Built::Other(Box::new(HdssPolicy::new(cfg))),
            PolicyChoice::Paper(PolicyKind::Greedy) => {
                Built::Other(Box::new(GreedyPolicy::new(cfg)))
            }
            PolicyChoice::Static(models) => Built::Other(Box::new(
                StaticProfilePolicy::from_profiles(cfg, models.clone()),
            )),
        }
    }
}

/// A built policy, keeping the type of the two whose reports read more
/// than the run report: PLB-HeC's selections and both one's rebalances.
/// PLB-HeC is boxed: it is over twice the size of the others.
enum Built {
    PlbHec(Box<PlbHecPolicy>),
    Acosta(AcostaPolicy),
    Other(Box<dyn Policy>),
}

impl Built {
    fn policy(&mut self) -> &mut dyn Policy {
        match self {
            Built::PlbHec(p) => p.as_mut(),
            Built::Acosta(p) => p,
            Built::Other(p) => p.as_mut(),
        }
    }

    fn boxed(self) -> Box<dyn Policy> {
        match self {
            Built::PlbHec(p) => p,
            Built::Acosta(p) => Box::new(p),
            Built::Other(p) => p,
        }
    }
}

/// One run, described: everything from which [`RunSpec::run`] builds
/// its engine, and the only way this crate builds one. `plb` parses its
/// argv into one; each `repro` figure writes its own.
///
/// The default is `plb run` without flags: PLB-HeC on MM 16384 over the
/// four Table I machines at σ = 0.02, seed 0, fault-free, on one node.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The application and its input size.
    pub app: App,
    /// The platform: Table I presets ([`cluster_scenario`]) or machines
    /// read from a file.
    pub machines: Vec<MachineSpec>,
    /// Lognormal σ of the simulated timing noise.
    pub noise: f64,
    /// Seeds the noise streams and, unless [`RunSpec::config`] is set,
    /// the policy.
    pub seed: u64,
    /// The policy.
    pub policy: PolicyChoice,
    /// The policy's configuration; `None` is the paper's defaults with
    /// the initial block of the paper's 10 % heuristic, sized on the
    /// workload's (on the cluster tier, one node's share of its) cost,
    /// seeded with the run seed.
    pub config: Option<PolicyConfig>,
    /// Injected faults: on one node per unit, on the cluster tier per
    /// node. `plb` merges its `--chaos` plan in here.
    pub faults: FaultPlan,
    /// Timed perturbations (one node only).
    pub perturbations: Vec<Perturbation>,
    /// Units that are already slowed, by the given factor, when the
    /// cluster is built. Unlike a `SetSlowdown` perturbation at t = 0,
    /// which the engine queues behind the first launches, this slows
    /// those launches too.
    pub slowed: Vec<(PuId, f64)>,
    /// Where to write durability snapshots.
    pub checkpoint: Option<CheckpointConfig>,
    /// The snapshot to resume from.
    pub resume: Option<Checkpoint>,
    /// Nodes of the cluster tier; each is a whole copy of `machines`,
    /// node `i` seeded with `seed + i`. One node is a plain run.
    pub nodes: usize,
    /// Which nodes may exchange migrations (cluster tier).
    pub topology: Topology,
    /// Node crashes, partitions and lossy links (cluster tier).
    pub node_faults: NodeFaultPlan,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec {
            app: App::MatMul(16384),
            machines: cluster_scenario(Scenario::Four, false),
            noise: 0.02,
            seed: 0,
            policy: PolicyChoice::Paper(PolicyKind::PlbHec),
            config: None,
            faults: FaultPlan::none(),
            perturbations: Vec::new(),
            slowed: Vec::new(),
            checkpoint: None,
            resume: None,
            nodes: 1,
            topology: Topology::Full,
            node_faults: NodeFaultPlan::none(),
        }
    }
}

impl RunSpec {
    /// Run the spec once.
    pub fn run(&self) -> Result<RunOutcome, RunError> {
        self.run_seeded(&self.app.inputs(), self.seed)
    }

    /// The paper's protocol: the spec run with seeds `seed`,
    /// `seed + 1`, …, `seed + seeds − 1` (wrapping), on application
    /// inputs built once.
    ///
    /// # Panics
    ///
    /// If `seeds` is 0, or a run fails, which a fault-free run on at
    /// least one machine does not.
    pub fn run_many(&self, seeds: u64) -> Aggregate {
        assert!(seeds > 0);
        let inputs = self.app.inputs();
        let runs: Vec<RunOutcome> = (0..seeds)
            .map(|i| self.run_seeded(&inputs, self.seed.wrapping_add(i)))
            .map(|o| o.expect("run completes"))
            .collect();
        let makespans: Vec<f64> = runs.iter().map(|r| r.report.makespan).collect();
        Aggregate {
            mean_makespan: plb_numerics::mean(&makespans),
            std_makespan: plb_numerics::stats::sample_stddev(&makespans),
            runs,
        }
    }

    /// Offline profiling, the static algorithm's input: each unit
    /// of the spec's cluster timed at its initial block × 1, 2, 4, …, 32
    /// and fitted.
    pub fn profile(&self) -> Result<Vec<UnitModel>, FitError> {
        let inputs = self.app.inputs();
        let cost = inputs.cost.as_ref();
        let base = self.policy_config(&inputs, self.seed).initial_block;
        let mut cluster = self.cluster(self.seed);
        let ids: Vec<PuId> = cluster.ids().collect();
        ids.into_iter()
            .map(|id| {
                let mut p = PerfProfile::new();
                for mult in [1u64, 2, 4, 8, 16, 32] {
                    let b = base.saturating_mul(mult);
                    let d = cluster.device_mut(id);
                    let xfer = d.transfer_time(cost, b);
                    let proc = d.proc_time(cost, b);
                    p.record(b, proc, xfer);
                }
                p.fit()
            })
            .collect()
    }

    fn policy_config(&self, inputs: &AppInputs, seed: u64) -> PolicyConfig {
        self.config.clone().unwrap_or_else(|| PolicyConfig {
            // Block sizes are cost budgets, so the heuristic scales with
            // the workload's weight, not its item count (identical for
            // the uniform apps). A node's chunks are shard-sized, not
            // run-sized.
            initial_block: default_initial_block(
                (inputs.total_cost / (self.nodes as u64).max(1)).max(1),
                inputs.cost.as_ref(),
            ),
            seed,
            ..Default::default()
        })
    }

    /// The one place a simulated cluster is built.
    fn cluster(&self, seed: u64) -> ClusterSim {
        let opts = ClusterOptions {
            seed,
            noise_sigma: self.noise,
            ..Default::default()
        };
        let mut cluster = ClusterSim::build(&self.machines, &opts);
        for &(pu, factor) in &self.slowed {
            cluster.device_mut(pu).set_slowdown(factor);
        }
        cluster
    }

    /// What either engine takes from the spec besides its machine.
    fn configure<M>(&self, engine: Engine<M>, inputs: &AppInputs) -> Engine<M> {
        let mut engine = engine
            .with_weights(Arc::clone(&inputs.weights))
            .with_faults(self.faults.clone());
        if let Some(cfg) = &self.checkpoint {
            engine = engine.with_checkpoint(cfg.clone());
        }
        if let Some(ckpt) = &self.resume {
            engine = engine.resume_from(ckpt.clone());
        }
        engine
    }

    fn run_seeded(&self, inputs: &AppInputs, seed: u64) -> Result<RunOutcome, RunError> {
        let cost = inputs.cost.as_ref();
        let config = self.policy_config(inputs, seed);
        if self.nodes > 1 {
            return self.run_nodes(inputs, seed, config);
        }
        let mut cluster = self.cluster(seed);
        let mut built = self.policy.build(&config);
        let engine =
            SimEngine::new(&mut cluster, cost).with_perturbations(self.perturbations.clone());
        let mut engine = self.configure(engine, inputs);
        let report = engine.run(built.policy(), inputs.total_items)?;
        Ok(outcome(report, &engine, Some(&built), config))
    }

    /// The cluster tier: equal-cost home shards balanced across whole
    /// nodes by diffusion over the topology, each node running the
    /// spec's policy.
    fn run_nodes(
        &self,
        inputs: &AppInputs,
        seed: u64,
        config: PolicyConfig,
    ) -> Result<RunOutcome, RunError> {
        let n = self.nodes;
        // Per-node seeds keep the nodes' noise streams independent while
        // the whole run stays reproducible from one seed.
        let clusters = (0..n)
            .map(|i| self.cluster(seed.wrapping_add(i as u64)))
            .collect();
        let policies = (0..n).map(|_| self.policy.build(&config).boxed()).collect();
        let names = (0..n).map(|i| format!("node{i}")).collect();
        let weights = Arc::clone(&inputs.weights);
        let mut runner =
            SimNodeRunner::new(inputs.cost.as_ref(), names, clusters, policies, weights);
        let bounds = equal_cost_shards(inputs.total_items, n, &inputs.weights);
        let mut outer = NodeDiffusionPolicy::new(self.topology, bounds.clone());
        let engine = ClusterEngine::new(&mut runner)
            .with_node_faults(self.node_faults.clone())
            .with_shard_bounds(bounds);
        let mut engine = self.configure(engine, inputs);
        let report = engine.run(&mut outer, inputs.total_items)?;
        Ok(outcome(report, &engine, None, config))
    }
}

/// A finished run's outcome on `engine`, with what its single-node
/// policy, if `built`, recorded besides the report.
fn outcome<M>(
    report: RunReport,
    engine: &Engine<M>,
    built: Option<&Built>,
    config: PolicyConfig,
) -> RunOutcome {
    let (solve_times, selection, rebalances) = match built {
        Some(Built::PlbHec(p)) => (
            p.selections().iter().map(|s| s.solve_seconds).collect(),
            p.selections().first().cloned(),
            p.rebalances(),
        ),
        Some(Built::Acosta(p)) => (Vec::new(), None, p.rebalances()),
        _ => (Vec::new(), None, 0),
    };
    RunOutcome {
        report,
        ledger: engine.last_ledger().to_vec(),
        solve_times,
        selection,
        rebalances,
        events: engine.last_events().cloned().unwrap_or_default(),
        config,
    }
}

/// Aggregate over the paper's 10-run protocol ([`RunSpec::run_many`]).
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Mean makespan, seconds.
    pub mean_makespan: f64,
    /// Sample standard deviation of the makespan.
    pub std_makespan: f64,
    /// Per-seed outcomes, in seed order.
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

    /// One run of `kind` on `app` over a Table I scenario, seed `seed`.
    fn run(app: App, scenario: Scenario, kind: PolicyKind, seed: u64) -> RunOutcome {
        let spec = RunSpec {
            app,
            machines: cluster_scenario(scenario, false),
            seed,
            policy: PolicyChoice::Paper(kind),
            ..RunSpec::default()
        };
        spec.run().unwrap()
    }

    #[test]
    fn every_policy_completes() {
        for kind in PolicyKind::ALL {
            let o = run(App::BlackScholes(50_000), Scenario::Two, kind, 0);
            assert_eq!(o.report.total_items, 50_000, "{kind:?}");
            assert!(o.report.makespan > 0.0);
        }
    }

    #[test]
    fn nn_extension_app_runs_and_streams_weights() {
        // The 1 GB weight matrix overflows the small GPUs: their shares
        // must come out below a proportional-by-core-count split.
        let o = run(App::NnLayer(50_000), Scenario::Four, PolicyKind::PlbHec, 0);
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
        let spec = RunSpec {
            app: App::BlackScholes(30_000),
            machines: cluster_scenario(Scenario::One, false),
            policy: PolicyChoice::Paper(PolicyKind::Greedy),
            ..RunSpec::default()
        };
        let agg = spec.run_many(3);
        assert_eq!(agg.runs.len(), 3);
        assert!(agg.mean_makespan > 0.0);
        assert!(agg.std_makespan >= 0.0);
        assert!(agg.makespan_ci95() >= 0.0);
        let shares = agg.mean_item_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn plb_records_solve_times() {
        let o = run(App::MatMul(8192), Scenario::Two, PolicyKind::PlbHec, 1);
        assert!(!o.solve_times.is_empty());
    }

    #[test]
    fn outcomes_carry_event_streams() {
        let o = run(
            App::BlackScholes(50_000),
            Scenario::Two,
            PolicyKind::PlbHec,
            0,
        );
        let c = o.events.counters();
        assert!(c.probes > 0 && c.curve_fits > 0 && c.solves > 0);
        assert_eq!(c.tasks_finished, o.report.tasks as u64);
    }
}
