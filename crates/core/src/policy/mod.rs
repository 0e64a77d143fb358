//! The complete PLB-HeC scheduling policy (paper Algorithm 2).
//!
//! Glues the three phases together behind the runtime's [`Policy`]
//! interface:
//!
//! * **Modeling** (`modeling.rs`) — every unit walks the probe ladder
//!   (pipelined, exponentially growing, speed-rescaled blocks) until
//!   the fit gate passes or the data budget is spent.
//! * **Execution** (`execution.rs`) — distributes blocks of the sizes
//!   chosen by [`select_block_sizes`](crate::select_block_sizes); each
//!   unit that finishes "requests another task of the same size" (paper
//!   Section III-D) until the data runs out.
//! * **Rebalancing** — when a block runs more than the threshold (10 %
//!   of its execution time) away from its prediction, the policy
//!   synchronizes as in the paper's Fig. 3: in-flight tasks drain,
//!   units that finish early receive one extra block so they do not
//!   idle, then the curves are refit with all accumulated measurements
//!   and the block sizes re-solved.
//!
//! The same machinery serves the paper's future-work scenarios
//! (`elastic.rs`): when a unit is lost, restored or joins, the split is
//! re-solved over whoever is active, a unit nothing is known about
//! first lands one probe beside the running split, and QoS drift shows
//! up as a divergence that trips the rebalance threshold.
//!
//! Every fact has one owner: the measurements live in one
//! `ProfileBook` for the whole run, `active` and `models` are the two
//! slices the selection takes, everything else the policy knows about a
//! unit is its `Unit`, and the modeling phase's counters exist inside
//! `Phase::Modeling` and nowhere else. Every transition is one
//! function; `docs/ALGORITHM.md` ("Algorithm 2") has the table.

mod elastic;
mod execution;
mod modeling;

use crate::config::PolicyConfig;
use crate::modeling::Modeling;
use crate::profile::{PerfProfile, ProfileBook, UnitModel};
use crate::selection::{select_block_sizes, SelectionResult};
use plb_hetsim::PuId;
use plb_runtime::{EventKind, Policy, SchedulerCtx, TaskFailure, TaskInfo};

/// Which of the paper's phases the run is in.
enum Phase {
    /// Units are on the probe ladder; the phase's counters live here.
    Modeling(Modeling),
    /// `models` holds a model for every unit and a split is in force.
    Executing,
}

/// Armed when a unit is admitted mid-run; cleared (with a
/// `restabilized` event) once its blocks settle.
struct JoinWatch {
    /// `rebalances` counter at admission: the difference at settle time
    /// is how many extra re-solves the admission cost.
    rebalances_at_join: usize,
    /// Blocks of the split the unit has completed since.
    post_blocks: u32,
}

/// What the policy keeps per unit, besides its measurements (the book)
/// and its slots in `active` and `models`.
struct Unit {
    /// Its share of the split in force, and that share as a block
    /// budget in cost units (both 0 outside the split).
    fraction: f64,
    block: u64,
    /// The one extra block of the current synchronization drain went
    /// out.
    extra_granted: bool,
    /// Probes landed on its current walk of the ladder.
    step: u32,
    /// Budgeted cost of its probe in flight, when one is: a unit's
    /// completion is a probe's exactly when this is set, and a probe
    /// that dies can only be cancelled by its own unit.
    probe: Option<u64>,
    /// `t_f / t_k` rescale of its modeling-phase probes (1 for the
    /// fastest unit, and on any walk off the modeling phase).
    speed_scale: f64,
    watch: Option<JoinWatch>,
}

impl Unit {
    fn idle() -> Unit {
        Unit {
            fraction: 0.0,
            block: 0,
            extra_granted: false,
            step: 0,
            probe: None,
            speed_scale: 1.0,
            watch: None,
        }
    }
}

/// What a run checkpoint carries for PLB-HeC: the raw per-unit
/// measurements (always) and the fitted models (once the execution
/// phase has begun). On resume the profiles are authoritative — models
/// are re-fit from them, falling back to the persisted models only when
/// a re-fit fails (e.g. too few samples for the configured basis).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct PolicySeed {
    profiles: Vec<PerfProfile>,
    models: Vec<UnitModel>,
}

/// The PLB-HeC policy.
///
/// ```
/// use plb_hec::{PlbHecPolicy, PolicyConfig};
/// use plb_hetsim::cluster::ClusterOptions;
/// use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
/// use plb_runtime::SimEngine;
///
/// // Balance a 32768-order matrix multiplication over machines A and B.
/// let app = plb_apps::MatMul::new(32_768);
/// let cost = app.cost();
/// let machines = cluster_scenario(Scenario::Two, false);
/// let mut cluster = ClusterSim::build(&machines, &ClusterOptions::default());
///
/// let cfg = PolicyConfig::default().with_initial_block(64);
/// let mut policy = PlbHecPolicy::new(&cfg);
/// let report = SimEngine::new(&mut cluster, &cost)
///     .run(&mut policy, app.total_items())
///     .unwrap();
///
/// assert_eq!(report.total_items, 32_768);
/// // The fitted models produced at least one block-size selection.
/// assert!(!policy.selections().is_empty());
/// ```
pub struct PlbHecPolicy {
    cfg: PolicyConfig,
    phase: Phase,
    /// Every unit's measurements, and the model last fitted from each:
    /// one book from the first probe to the last block, and into the
    /// next run of a reused policy object.
    book: ProfileBook,
    /// Which units take part in the modeling gate and in the split.
    active: Vec<bool>,
    /// The model each unit runs on: empty while modeling, one per unit
    /// from the moment the execution phase begins.
    models: Vec<UnitModel>,
    units: Vec<Unit>,
    /// Sum of the units' blocks (one full round, in cost units), kept
    /// by their writers so a finished task does not walk the roster.
    round_total: u64,
    /// `T`, the block time the split in force predicts for every unit:
    /// what a unit sized alone is sized to.
    split_time: f64,
    rebalance_pending: bool,
    selections: Vec<SelectionResult>,
    rebalances: usize,
    /// Checkpointed learning delivered via [`Policy::restore`], consumed
    /// by the first `on_start` to skip the modeling phase.
    seed: Option<PolicySeed>,
}

impl PlbHecPolicy {
    /// Create the policy from shared configuration.
    pub fn new(cfg: &PolicyConfig) -> PlbHecPolicy {
        PlbHecPolicy {
            cfg: cfg.clone(),
            phase: Phase::Modeling(Modeling::default()),
            book: ProfileBook::default(),
            active: Vec::new(),
            models: Vec::new(),
            units: Vec::new(),
            round_total: 0,
            split_time: 0.0,
            rebalance_pending: false,
            selections: Vec::new(),
            rebalances: 0,
            seed: None,
        }
    }

    /// Every block-size selection of the latest run (the first plus any
    /// rebalances): exposes the selection's solve times, which the
    /// paper reports for IPOPT (~170 ms mean on its 4-machine scenario).
    pub fn selections(&self) -> &[SelectionResult] {
        &self.selections
    }

    /// Number of rebalancing events (the paper observed zero on its
    /// dedicated cluster; QoS drift and failures make it fire).
    pub fn rebalances(&self) -> usize {
        self.rebalances
    }

    /// Try to enter the execution phase directly from the learning in
    /// the book — a checkpoint's, or this policy object's own previous
    /// run (paper resume semantics: never re-probe). A unit keeps the
    /// model `carried` for it while that model still predicts: an
    /// accepted fit no block has left the divergence band of. Every
    /// other unit — surprised, never fitted, on a stand-in, or read
    /// from a checkpoint — is re-fit from its profile, falling back to
    /// the carried model when the re-fit fails. Succeeds only when
    /// every *active* unit ends up with a model; on any shortfall the
    /// caller falls back to ordinary modeling. An inactive unit gets
    /// what its own samples support, the model it comes back on should
    /// it be restored.
    fn try_resume(&mut self, ctx: &mut dyn SchedulerCtx, carried: Vec<UnitModel>) -> bool {
        let n = self.active.len();
        if self.book.profiles().len() != n || (!carried.is_empty() && carried.len() != n) {
            return false;
        }
        let mut carried = carried.into_iter();
        let mut models = Vec::with_capacity(n);
        let mut refitted = Vec::with_capacity(n);
        for (pu, &active) in self.active.iter().enumerate() {
            let carried = carried.next();
            let predicts = carried.as_ref().is_some_and(|model| {
                !self.book.surprised(pu) && model.min_r2() >= self.cfg.r2_threshold
            });
            let model = if predicts {
                carried
            } else {
                (self.book.fit(pu, self.cfg.fit_mode).ok().cloned()).or(carried)
            };
            refitted.push(!predicts);
            match model {
                Some(model) => models.push(model),
                None if active => return false,
                None => models.push(self.book.fit_or_mean_rate(pu, self.cfg.fit_mode)),
            }
        }
        if !self.active.contains(&true) {
            return false;
        }
        self.enter_execution(ctx, models, &refitted, None);
        true
    }

    /// The one way into the execution phase, from a modeling phase that
    /// closed (having consumed `modeling_items`) or from earlier
    /// learning: announce the model of every active unit that was
    /// `fitted` for the occasion, and solve the first split.
    fn enter_execution(
        &mut self,
        ctx: &mut dyn SchedulerCtx,
        models: Vec<UnitModel>,
        fitted: &[bool],
        modeling_items: Option<u64>,
    ) {
        self.models = models;
        let units = self.models.iter().zip(&self.active).zip(fitted);
        for (pu, ((model, &active), &fitted)) in units.enumerate() {
            if active && fitted {
                let accepted = model.min_r2() >= self.cfg.r2_threshold;
                emit_fit(ctx, pu, self.book.samples(pu), model, Some(accepted));
            }
        }
        if let Some(items_used) = modeling_items {
            ctx.emit_event(None, EventKind::ModelingDone { items_used });
        }
        self.phase = Phase::Executing;
        self.resolve(ctx);
    }

    /// One execution round's worth of work, in cost units: a fraction
    /// of the total workload weight, capped by what is left. Under
    /// uniform weights this is the pre-weights item window.
    fn execution_window(&self, ctx: &dyn SchedulerCtx) -> u64 {
        let w = (ctx.total_cost() as f64 * self.cfg.round_fraction) as u64;
        w.clamp(1, ctx.remaining_cost().max(1))
            .min(ctx.remaining_cost())
    }

    /// A unit still on its first probe: active, but with no sample to
    /// model it by. It stays out of every split until the probe lands.
    fn on_first_probe(&self, pu: usize) -> bool {
        let probing = self.units.get(pu).is_some_and(|u| u.probe.is_some());
        probing && self.book.samples(pu) == 0
    }

    /// Run the block-size selection over the current models and the
    /// active units that have one, and put a block on every idle unit of
    /// the new split. Every selection — the first, a divergence's, a
    /// change of the unit set's — is this one.
    fn resolve(&mut self, ctx: &mut dyn SchedulerCtx) {
        let in_split: Vec<bool> = (self.active.iter().enumerate())
            .map(|(pu, &active)| active && !self.on_first_probe(pu))
            .collect();
        let n_live = in_split.iter().filter(|&&a| a).count();
        if ctx.remaining_items() == 0 || n_live == 0 {
            return;
        }
        let window = self.execution_window(ctx);
        let sel = select_block_sizes(
            &self.models,
            &in_split,
            window,
            self.cfg.granularity,
            self.cfg.solver,
        );
        self.round_total = sel.blocks.iter().sum();
        self.split_time = sel.predicted_time;
        let split = sel.fractions.iter().zip(&sel.blocks);
        for (unit, (&fraction, &block)) in self.units.iter_mut().zip(split) {
            unit.fraction = fraction;
            unit.block = block;
            unit.extra_granted = false;
        }
        ctx.emit_event(
            None,
            EventKind::BlockSolve {
                window,
                method: sel.method.name().to_string(),
                iterations: sel.iterations,
                solve_s: sel.solve_seconds,
                predicted_s: sel.predicted_time,
            },
        );
        // The paper's execution times include the selection's solve
        // cost; charge it so the comparison against cheap schedulers is
        // fair. The charge uses a deterministic cost model (at least 4
        // of the root's Newton steps on the common time, scaled by √n)
        // rather than the measured wall time: wall-clock jitter in the
        // virtual clock would break run reproducibility. The measured
        // time is still recorded in `selections()` for the Section V
        // solver-cost statistic.
        let deterministic_cost = 50e-6 * (sel.iterations.max(4) as f64) * (n_live as f64).sqrt();
        ctx.charge_overhead(deterministic_cost);
        self.selections.push(sel);
        let split = self.units.iter().zip(&self.models).zip(&self.active);
        for (pu, ((unit, model), &active)) in split.enumerate() {
            if active {
                arm_deadline(ctx, PuId(pu), model, unit.block);
            }
        }
        self.pump(ctx);
    }

    /// Give `pu` a block of `block` cost units in the split in force,
    /// without a re-solve: every other unit keeps its block, and each
    /// unit's fraction becomes its block's share of the round, so the
    /// fractions still sum to one.
    fn set_block(&mut self, pu: PuId, block: u64) {
        let Some(unit) = self.units.get_mut(pu.0) else {
            return;
        };
        self.round_total = self.round_total.saturating_sub(unit.block) + block;
        unit.block = block;
        let round = self.round_total.max(1) as f64;
        for unit in &mut self.units {
            unit.fraction = unit.block as f64 / round;
        }
    }

    /// Put its block on every unit of the split that sits idle, while
    /// the pool lasts.
    fn pump(&self, ctx: &mut dyn SchedulerCtx) {
        for (pu, (unit, &active)) in self.units.iter().zip(&self.active).enumerate() {
            if ctx.remaining_items() == 0 {
                break;
            }
            if active && unit.block > 0 && !ctx.is_busy(PuId(pu)) {
                ctx.assign(PuId(pu), unit.block);
            }
        }
    }
}

/// Arm the engine's watchdog with the model's prediction: a task
/// deadline of k × E_p(x) only means something when E_p comes from the
/// same fitted curves that sized the blocks.
fn arm_deadline(ctx: &mut dyn SchedulerCtx, pu: PuId, model: &UnitModel, block: u64) {
    if block > 0 {
        let t = model.total_time(block as f64);
        if t.is_finite() && t > 0.0 {
            ctx.set_deadline_hint(pu, t / block as f64);
        }
    }
}

/// The one `curve_fit` event: `pu` runs on `model`, fitted from
/// `samples` samples. `outcome` is whether the fit was accepted, or
/// `None` when the fit failed and `model` is the one kept.
fn emit_fit(
    ctx: &mut dyn SchedulerCtx,
    pu: usize,
    samples: usize,
    model: &UnitModel,
    outcome: Option<bool>,
) {
    let (r2_f, r2_g) = match outcome {
        Some(_) => (model.f_quality, model.g_quality),
        None => (0.0, 0.0),
    };
    ctx.emit_event(
        Some(pu),
        EventKind::CurveFit {
            r2_f,
            r2_g,
            basis_f: model.f.basis().describe(),
            samples,
            accepted: outcome.unwrap_or(false),
        },
    );
}

impl Policy for PlbHecPolicy {
    fn name(&self) -> &str {
        "plb-hec"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        self.active = ctx.pus().iter().map(|p| p.available).collect();
        self.units = self.active.iter().map(|_| Unit::idle()).collect();
        self.round_total = 0;
        self.split_time = 0.0;
        self.rebalance_pending = false;
        self.selections.clear();
        // Earlier learning is a seed: never re-probe. A checkpoint's
        // replaces the book, and every unit is re-fit from it; a reused
        // policy object (the cluster tier runs one nested engine per
        // chunk against the same policy) simply still holds its own,
        // and re-fits the units its last run surprised.
        let carried = match self.seed.take() {
            Some(seed) => {
                self.book = ProfileBook::from_profiles(seed.profiles);
                Some(seed.models)
            }
            None if matches!(self.phase, Phase::Executing) => {
                Some(std::mem::take(&mut self.models))
            }
            None => None,
        };
        if !carried.is_some_and(|models| self.try_resume(ctx, models)) {
            self.start_modeling(ctx);
        }
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        // In the modeling phase every block is a probe; in the execution
        // phase the blocks of a unit on the ladder are.
        let probing = self.units.get(done.pu.0).is_some_and(|u| u.probe.is_some());
        if probing || matches!(self.phase, Phase::Modeling(_)) {
            self.probe_landed(ctx, done);
        } else {
            self.block_finished(ctx, done);
        }
    }

    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.unit_lost(ctx, pu);
    }

    // `on_device_joined` keeps its default, which is this hook: a unit
    // became available, whatever it is called.
    fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.admit(ctx, pu);
    }

    fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, failure: &TaskFailure) {
        // Called once the failed task's items are back in the pool
        // (retries exhausted or the unit quarantined). If the block was
        // a probe it will never land; a quarantine has been through
        // `on_device_lost` already, which cancelled it.
        self.cancel_probe(failure.pu);
        match self.phase {
            Phase::Modeling(_) => self.close_modeling_if_due(ctx),
            // A loss re-solves the split; this hook covers what that
            // cannot: putting the re-credited items back in flight on
            // whoever is idle.
            Phase::Executing => self.pump(ctx),
        }
    }

    fn block_distribution(&self) -> Option<Vec<f64>> {
        let fractions: Vec<f64> = self.units.iter().map(|u| u.fraction).collect();
        fractions.iter().any(|&f| f > 0.0).then_some(fractions)
    }

    fn snapshot(&self) -> Option<serde_json::Value> {
        let seed = PolicySeed {
            profiles: self.book.profiles().to_vec(),
            models: self.models.clone(),
        };
        serde_json::to_value(&seed).ok()
    }

    fn restore(&mut self, state: &serde_json::Value) -> bool {
        match serde_json::from_value::<PolicySeed>(state.clone()) {
            Ok(seed) => {
                self.seed = Some(seed);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{PINNED, WINDOW};
    use plb_hetsim::cluster::ClusterOptions;
    use plb_hetsim::workload::LinearCost;
    use plb_hetsim::{cluster_scenario, ClusterSim, PuKind, Scenario};
    use plb_runtime::{Perturbation, PerturbationKind, SimEngine};

    fn run_plb(
        scenario: Scenario,
        items: u64,
        perturbations: Vec<Perturbation>,
    ) -> (plb_runtime::RunReport, PlbHecPolicy) {
        run_plb_cost(scenario, items, perturbations, LinearCost::generic())
    }

    /// Heavy, wide items (~50 µs of GPU work each): runs last long
    /// enough for mid-run perturbations to land during execution.
    fn heavy_cost() -> LinearCost {
        LinearCost {
            label: "heavy".into(),
            flops_per_item: 1e5,
            in_bytes_per_item: 64.0,
            out_bytes_per_item: 64.0,
            threads_per_item: 64.0,
        }
    }

    fn run_plb_cost(
        scenario: Scenario,
        items: u64,
        perturbations: Vec<Perturbation>,
        cost: LinearCost,
    ) -> (plb_runtime::RunReport, PlbHecPolicy) {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(scenario, false),
            &ClusterOptions {
                noise_sigma: 0.01,
                ..Default::default()
            },
        );
        let cfg = PolicyConfig::default()
            .with_initial_block(1000)
            .with_round_fraction(0.25);
        let mut policy = PlbHecPolicy::new(&cfg);
        let report = SimEngine::new(&mut cluster, &cost)
            .with_perturbations(perturbations)
            .run(&mut policy, items)
            .unwrap();
        (report, policy)
    }

    #[test]
    fn completes_all_items() {
        let (r, p) = run_plb(Scenario::Two, 2_000_000, vec![]);
        assert_eq!(r.total_items, 2_000_000);
        assert!(!p.selections().is_empty(), "at least one selection ran");
    }

    #[test]
    fn distribution_favors_gpus() {
        let (r, _) = run_plb_cost(Scenario::One, 4_000_000, vec![], heavy_cost());
        let d = r.block_distribution.expect("plb reports a distribution");
        // Machine A: PU0 = CPU, PU1 = K20c. The GPU must get the larger
        // share on a compute-bound workload.
        assert!(d[1] > d[0], "{d:?}");
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn no_rebalance_on_stable_cluster() {
        // The paper observed its threshold never fired on dedicated
        // machines. That result depends on probe blocks being sized
        // like execution blocks (the paper tunes initialBlockSize so
        // modeling takes ~10% of the run): with representative probes
        // and low noise the threshold must stay quiet.
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::Three, false),
            &ClusterOptions {
                noise_sigma: 0.01,
                ..Default::default()
            },
        );
        let cost = heavy_cost();
        let cfg = PolicyConfig::default().with_initial_block(30_000);
        let mut policy = PlbHecPolicy::new(&cfg);
        let _ = SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 8_000_000)
            .unwrap();
        assert_eq!(
            policy.rebalances(),
            0,
            "unexpected rebalance on a stable cluster"
        );
    }

    #[test]
    fn qos_drift_triggers_rebalance() {
        // Slow the GPU 6x mid-run: finish times diverge, the threshold
        // fires, and the new distribution shifts work away from it. The
        // heavy workload runs for ~0.4s, so a drift at 0.1s lands in the
        // middle of the execution phase.
        let (r, p) = run_plb_cost(
            Scenario::One,
            8_000_000,
            vec![Perturbation {
                at: 0.1,
                kind: PerturbationKind::SetSlowdown(plb_hetsim::PuId(1), 6.0),
            }],
            heavy_cost(),
        );
        assert_eq!(r.total_items, 8_000_000);
        assert!(p.rebalances() >= 1, "QoS drift must trigger rebalancing");
    }

    #[test]
    fn survives_device_loss_mid_execution() {
        let (r, p) = run_plb_cost(
            Scenario::Two,
            4_000_000,
            vec![Perturbation {
                at: 0.05,
                kind: PerturbationKind::Fail(plb_hetsim::PuId(1)),
            }],
            heavy_cost(),
        );
        assert_eq!(r.total_items, 4_000_000);
        assert_eq!(r.pus[1].name, "A/gpu0");
        assert!(p.rebalances() >= 1);
    }

    #[test]
    fn survives_device_loss_during_modeling() {
        let (r, _) = run_plb(
            Scenario::Two,
            4_000_000,
            vec![Perturbation {
                at: 1e-6,
                kind: PerturbationKind::Fail(plb_hetsim::PuId(0)),
            }],
        );
        assert_eq!(r.total_items, 4_000_000);
        assert_eq!(r.pus[0].items, 0, "failed master CPU processed nothing");
    }

    #[test]
    fn losing_every_unit_during_modeling_stalls_the_run() {
        // The last loss closes the modeling phase over nobody: there is
        // no split to solve, and the run ends as the driver's stall,
        // with its event stream — not as a panic inside the selection.
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::One, false),
            &ClusterOptions::default(),
        );
        let fail = |pu| Perturbation {
            at: 1e-6,
            kind: PerturbationKind::Fail(plb_hetsim::PuId(pu)),
        };
        let cost = LinearCost::generic();
        let mut policy = PlbHecPolicy::new(&PolicyConfig::default().with_initial_block(1000));
        let mut engine =
            SimEngine::new(&mut cluster, &cost).with_perturbations(vec![fail(0), fail(1)]);
        let stalled = engine.run(&mut policy, 4_000_000);
        assert!(
            matches!(stalled, Err(plb_runtime::RunError::Stalled { .. })),
            "{stalled:?}"
        );
        assert!(policy.selections().is_empty());
        let sink = engine
            .last_events()
            .expect("a stalled run keeps its events");
        assert_eq!(sink.counters().solves, 0);
    }

    #[test]
    fn selection_solve_times_recorded() {
        let (_, p) = run_plb(Scenario::Four, 8_000_000, vec![]);
        for s in p.selections() {
            assert!(s.solve_seconds >= 0.0 && s.solve_seconds < 10.0);
        }
    }

    #[test]
    fn tiny_input_consumed_entirely_by_probing() {
        let (r, _) = run_plb(Scenario::Two, 3_000, vec![]);
        assert_eq!(r.total_items, 3_000);
    }

    #[test]
    fn emits_probe_fit_solve_events() {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::Two, false),
            &ClusterOptions {
                noise_sigma: 0.01,
                ..Default::default()
            },
        );
        let cost = LinearCost::generic();
        let cfg = PolicyConfig::default()
            .with_initial_block(1000)
            .with_round_fraction(0.25);
        let mut policy = PlbHecPolicy::new(&cfg);
        let mut engine = SimEngine::new(&mut cluster, &cost);
        let _ = engine.run(&mut policy, 2_000_000).unwrap();

        let sink = engine.last_events().expect("engine keeps the event sink");
        let counters = sink.counters();
        assert!(counters.probes > 0, "modeling must issue probes");
        assert!(counters.curve_fits > 0, "modeling must fit curves");
        assert!(counters.solves > 0, "execution must run a selection");
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::ModelingDone { .. })),
            "the modeling phase must close"
        );
        // The probe rounds on each unit count 1, 2, 3, ... in order.
        for pu in 0..2 {
            let rounds: Vec<u32> = sink
                .events()
                .iter()
                .filter(|e| e.pu == Some(pu))
                .filter_map(|e| match e.kind {
                    EventKind::ProbeIssued { round, .. } => Some(round),
                    _ => None,
                })
                .collect();
            for (i, &r) in rounds.iter().enumerate() {
                assert_eq!(r, i as u32 + 1, "probe rounds on pu {pu}: {rounds:?}");
            }
        }
        // Every solve is attributed to a known method.
        for e in sink.events() {
            if let EventKind::BlockSolve { ref method, .. } = e.kind {
                assert!(
                    ["water-fill", "rate-proportional"].contains(&method.as_str()),
                    "unknown method {method}"
                );
            }
        }
    }

    #[test]
    fn qos_drift_emits_divergence_rebalance_event() {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::One, false),
            &ClusterOptions {
                noise_sigma: 0.01,
                ..Default::default()
            },
        );
        let cost = heavy_cost();
        let cfg = PolicyConfig::default()
            .with_initial_block(1000)
            .with_round_fraction(0.25);
        let mut policy = PlbHecPolicy::new(&cfg);
        let mut engine =
            SimEngine::new(&mut cluster, &cost).with_perturbations(vec![Perturbation {
                at: 0.1,
                kind: PerturbationKind::SetSlowdown(plb_hetsim::PuId(1), 6.0),
            }]);
        let _ = engine.run(&mut policy, 8_000_000).unwrap();

        let sink = engine.last_events().expect("engine keeps the event sink");
        let trigger = sink.events().iter().find_map(|e| match e.kind {
            EventKind::RebalanceTriggered {
                ref trigger,
                expected_s,
                observed_s,
                divergence,
            } => Some((trigger.clone(), expected_s, observed_s, divergence)),
            _ => None,
        });
        let (trigger, expected_s, observed_s, divergence) =
            trigger.expect("QoS drift must emit a rebalance event");
        assert_eq!(trigger, "divergence");
        assert!(expected_s > 0.0 && observed_s > 0.0);
        assert!(divergence > 0.1, "divergence {divergence} beats threshold");
        // Every performed rebalance was announced by a trigger event (a
        // trigger whose drain ran out of data performs nothing, so the
        // event count can exceed the performed count).
        assert!(policy.rebalances() >= 1);
        assert!(sink.counters().rebalances as usize >= policy.rebalances());
    }

    #[test]
    fn snapshot_restore_skips_modeling() {
        let machines = cluster_scenario(Scenario::Two, false);
        let opts = ClusterOptions {
            noise_sigma: 0.01,
            ..Default::default()
        };
        let cost = LinearCost::generic();
        let cfg = PolicyConfig::default()
            .with_initial_block(1000)
            .with_round_fraction(0.25);

        let mut cluster = ClusterSim::build(&machines, &opts);
        let mut policy = PlbHecPolicy::new(&cfg);
        let _ = SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 2_000_000)
            .unwrap();
        let state = policy.snapshot().expect("plb-hec snapshots its learning");

        let mut cluster2 = ClusterSim::build(&machines, &opts);
        let mut resumed = PlbHecPolicy::new(&cfg);
        assert!(resumed.restore(&state), "own snapshot must restore");
        let mut engine = SimEngine::new(&mut cluster2, &cost);
        let r = engine.run(&mut resumed, 1_000_000).unwrap();
        assert_eq!(r.total_items, 1_000_000);

        let sink = engine.last_events().expect("engine keeps the event sink");
        assert_eq!(sink.counters().probes, 0, "resume must not re-probe");
        assert!(
            sink.counters().curve_fits > 0,
            "resume re-fits from the persisted profiles"
        );
        assert!(!resumed.selections().is_empty(), "resume re-solves");
    }

    #[test]
    fn restore_rejects_garbage_and_falls_back_to_modeling() {
        let mut policy = PlbHecPolicy::new(&PolicyConfig::default());
        assert!(!policy.restore(&serde_json::json!({"bogus": 1})));

        // A seed sized for the wrong cluster is dropped at on_start:
        // the run still completes, via ordinary modeling.
        let mut donor = PlbHecPolicy::new(&PolicyConfig::default());
        donor.book = ProfileBook::new(7);
        let state = donor.snapshot().expect("snapshot always serializes");
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::Two, false),
            &ClusterOptions {
                noise_sigma: 0.01,
                ..Default::default()
            },
        );
        let cfg = PolicyConfig::default().with_initial_block(1000);
        let mut policy = PlbHecPolicy::new(&cfg);
        assert!(policy.restore(&state), "shape is valid, content mismatched");
        let cost = LinearCost::generic();
        let mut engine = SimEngine::new(&mut cluster, &cost);
        let r = engine.run(&mut policy, 500_000).unwrap();
        assert_eq!(r.total_items, 500_000);
        let sink = engine.last_events().expect("engine keeps the event sink");
        assert!(
            sink.counters().probes > 0,
            "mismatched seed falls back to probing"
        );
    }

    pub(crate) fn linear_model(rate: f64) -> UnitModel {
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800] {
            p.record(x, x as f64 / rate, 1e-5);
        }
        p.fit_with(crate::config::FitMode::BestSubset)
            .expect("clean linear data fits")
    }

    /// A scheduler context the tests script: `remaining` cost units in
    /// the pool, units that are busy from `assign` until
    /// [`finish`](MockCtx::finish) or [`drop_task`](MockCtx::drop_task),
    /// and a record of what the policy assigned and emitted. It lets one
    /// hook, or one phase's step, be driven alone.
    pub(crate) struct MockCtx {
        pub pus: Vec<plb_runtime::PuHandle>,
        pub total: u64,
        pub remaining: u64,
        pub now: f64,
        /// What each unit is running: the cost it claimed.
        pub running: Vec<Option<u64>>,
        pub assigned: Vec<(usize, u64)>,
        pub events: Vec<(Option<usize>, EventKind)>,
    }

    impl MockCtx {
        pub fn new(n_pus: usize, total: u64) -> MockCtx {
            let handle = |i| plb_runtime::PuHandle {
                id: PuId(i),
                name: format!("pu{i}"),
                kind: PuKind::Cpu,
                machine: 0,
                available: true,
            };
            MockCtx {
                pus: (0..n_pus).map(handle).collect(),
                total,
                remaining: total,
                now: 0.0,
                running: vec![None; n_pus],
                assigned: Vec::new(),
                events: Vec::new(),
            }
        }

        /// `pu`'s block completes on a linear device: `overhead_s` plus
        /// `cost / rate` of kernel time, 0.1 ms of transfer.
        pub fn finish(&mut self, pu: usize, rate: f64) -> TaskInfo {
            self.finish_timed(pu, |cost| (1e-3 + cost as f64 / rate, 1e-4))
        }

        /// `pu`'s block completes in `(proc, xfer)` seconds.
        pub fn finish_timed(&mut self, pu: usize, time: impl Fn(u64) -> (f64, f64)) -> TaskInfo {
            let cost = self.running[pu].take().expect("unit is running a block");
            let (proc_time, xfer_time) = time(cost);
            TaskInfo {
                task_id: plb_runtime::TaskId(0),
                pu: PuId(pu),
                items: cost,
                cost,
                xfer_time,
                proc_time,
                start: self.now,
                finish: self.now + proc_time + xfer_time,
            }
        }

        /// `pu`'s block is lost with its unit or returns to the pool:
        /// what the driver does before it calls a fault hook.
        pub fn drop_task(&mut self, pu: usize) -> TaskFailure {
            let cost = self.running[pu].take().expect("unit is running a block");
            self.remaining += cost;
            TaskFailure {
                task_id: plb_runtime::TaskId(0),
                pu: PuId(pu),
                items: cost,
                cost,
                attempt: 0,
                at: self.now,
                reason: plb_runtime::FailureReason::Panicked,
            }
        }

        /// The blocks assigned since the last call.
        pub fn take_assigned(&mut self) -> Vec<(usize, u64)> {
            std::mem::take(&mut self.assigned)
        }

        /// The names of the events emitted since the last call, with
        /// the unit each concerns.
        pub fn take_events(&mut self) -> Vec<(Option<usize>, &'static str)> {
            let names = self.events.iter().map(|(pu, kind)| (*pu, kind.name()));
            let names = names.collect();
            self.events.clear();
            names
        }
    }

    impl SchedulerCtx for MockCtx {
        fn now(&self) -> f64 {
            self.now
        }
        fn pus(&self) -> &[plb_runtime::PuHandle] {
            &self.pus
        }
        fn remaining_items(&self) -> u64 {
            self.remaining
        }
        fn total_items(&self) -> u64 {
            self.total
        }
        fn assign(&mut self, pu: PuId, budget: u64) -> u64 {
            let free = self.pus[pu.0].available && self.running[pu.0].is_none();
            let got = if free { budget.min(self.remaining) } else { 0 };
            if got > 0 {
                self.remaining -= got;
                self.running[pu.0] = Some(got);
                self.assigned.push((pu.0, got));
            }
            got
        }
        fn is_busy(&self, pu: PuId) -> bool {
            self.running[pu.0].is_some()
        }
        fn any_busy(&self) -> bool {
            self.running.iter().any(Option::is_some)
        }
        fn charge_overhead(&mut self, _seconds: f64) {}
        fn emit_event(&mut self, pu: Option<usize>, kind: EventKind) {
            self.events.push((pu, kind));
        }
    }

    /// Devices whose kernel time is linear in the cost, at these many
    /// cost units per second.
    const RATES: [f64; 3] = [1e5, 2e5, 4e5];

    /// Rows of one chunk, and chunks one node policy sees at ten times
    /// `sim-cluster`'s 11 a node.
    const CHUNK: u64 = 200_000;
    const CHUNKS: usize = 110;

    /// One run of `policy` over a fresh pool of [`CHUNK`] cost units,
    /// as the cluster tier makes one per chunk: every block lands,
    /// unit after unit, at `rate(pu, pool_dry)`. Returns what the chunk
    /// start emitted, and what the rest of the run did.
    fn chunk(
        policy: &mut PlbHecPolicy,
        rate: impl Fn(usize, bool) -> f64,
    ) -> [Vec<(Option<usize>, EventKind)>; 2] {
        let mut ctx = MockCtx::new(RATES.len(), CHUNK);
        policy.on_start(&mut ctx);
        let at_start = std::mem::take(&mut ctx.events);
        while ctx.any_busy() {
            for pu in 0..RATES.len() {
                if ctx.running[pu].is_some() {
                    let done = ctx.finish(pu, rate(pu, ctx.remaining == 0));
                    policy.on_task_finished(&mut ctx, &done);
                }
            }
        }
        assert_eq!(ctx.remaining, 0, "the chunk completes");
        [at_start, ctx.events]
    }

    /// The unit and sample count of every `curve_fit` among `events`.
    fn fits(events: &[(Option<usize>, EventKind)]) -> Vec<(usize, usize)> {
        let fit = |(pu, kind): &(Option<usize>, EventKind)| match kind {
            EventKind::CurveFit { samples, .. } => Some((pu.expect("a unit's"), *samples)),
            _ => None,
        };
        events.iter().filter_map(fit).collect()
    }

    fn solves(events: &[(Option<usize>, EventKind)]) -> usize {
        let solve = |(_, kind): &&(Option<usize>, EventKind)| kind.name() == "block_solve";
        events.iter().filter(solve).count()
    }

    fn node_policy() -> PlbHecPolicy {
        PlbHecPolicy::new(&PolicyConfig::default().with_initial_block(100))
    }

    fn steady(pu: usize, _pool_dry: bool) -> f64 {
        RATES[pu]
    }

    #[test]
    fn a_long_lived_policy_fits_on_surprise_and_holds_a_bounded_profile() {
        let mut policy = node_policy();
        let [at_start, rest] = chunk(&mut policy, steady);
        assert_eq!(fits(&at_start), [], "nothing is known yet");
        assert_eq!(
            fits(&rest).len(),
            RATES.len(),
            "modeling closes on a fit a unit"
        );

        for n in 1..CHUNKS {
            let [at_start, rest] = chunk(&mut policy, steady);
            // Every block stayed inside the band: no model is fitted
            // again, yet each chunk's window gets its own split.
            assert_eq!(fits(&at_start), [], "chunk {n}");
            assert_eq!(fits(&rest), [], "chunk {n}");
            assert_eq!(solves(&at_start), 1, "chunk {n}");
            assert!(at_start
                .iter()
                .all(|(_, kind)| kind.name() != "probe_issued"));
            assert_eq!(policy.selections().len(), 1, "chunk {n}: this run's only");
            for pu in 0..RATES.len() {
                assert!(policy.book.samples(pu) <= PINNED + WINDOW, "chunk {n}");
            }
        }
        // Far more blocks landed than are held...
        for pu in 0..RATES.len() {
            assert_eq!(policy.book.samples(pu), PINNED + WINDOW);
        }
        // ...and a snapshot is sized by units × (ladder + window), not
        // by chunks.
        let bytes = serde_json::to_string(&policy.snapshot())
            .expect("serializes")
            .len();
        let per_block = 2 * "[12345.0,0.0123456789012345678],".len();
        let models = 4096;
        assert!(
            bytes <= RATES.len() * (PINNED + WINDOW) * per_block + models,
            "{bytes} bytes"
        );
    }

    #[test]
    fn a_chunk_start_refits_the_unit_that_was_surprised_and_only_that_unit() {
        let mut policy = node_policy();
        for _ in 0..CHUNKS / 2 {
            chunk(&mut policy, steady);
        }
        // Unit 1 turns three times slower on the chunk's last blocks,
        // where a divergence is a tail effect and triggers nothing.
        let slowing = |pu: usize, pool_dry: bool| match (pu, pool_dry) {
            (1, true) => RATES[1] / 3.0,
            _ => RATES[pu],
        };
        let [at_start, rest] = chunk(&mut policy, slowing);
        assert_eq!((fits(&at_start), fits(&rest)), (vec![], vec![]));
        assert!(policy.book.surprised(1));
        assert!(!policy.book.surprised(0) && !policy.book.surprised(2));

        let slow = |pu: usize, _: bool| if pu == 1 { RATES[1] / 3.0 } else { RATES[pu] };
        let [at_start, _] = chunk(&mut policy, slow);
        assert_eq!(fits(&at_start), [(1, PINNED + WINDOW)]);
        assert_eq!(solves(&at_start), 1);
        // The window turns over and the model settles on the new
        // speed: chunk starts stop fitting again.
        for _ in 0..CHUNKS / 2 - 10 {
            chunk(&mut policy, slow);
        }
        for n in 0..10 {
            let [at_start, rest] = chunk(&mut policy, slow);
            assert_eq!((fits(&at_start), fits(&rest)), (vec![], vec![]), "{n}");
        }
        let block = policy.units[1].block as f64;
        let (predicted, actual) = (
            policy.models[1].total_time(block),
            1e-3 + block / (RATES[1] / 3.0) + 1e-4,
        );
        assert!(
            (predicted - actual).abs() < 0.01 * actual,
            "{predicted} vs {actual}"
        );
    }

    #[test]
    fn refit_of_an_unchanged_profile_emits_the_from_scratch_fit() {
        let mode = crate::config::FitMode::BestSubset;
        let sample = |unit: usize, i: usize, x: u64| {
            let wobble = 1.0 + 0.01 * ((i + unit) % 3) as f64;
            let proc = (1e-3 + x as f64 / (1e5 * (unit + 1) as f64)) * wobble;
            (x, proc, 1e-5 + 1e-9 * x as f64)
        };
        let mut profiles = vec![PerfProfile::new(); 4];
        for (unit, p) in profiles.iter_mut().enumerate() {
            for (i, x) in [100u64, 200, 400, 800, 1600].into_iter().enumerate() {
                let (x, proc, xfer) = sample(unit, i, x);
                p.record(x, proc, xfer);
            }
        }
        let mut policy = PlbHecPolicy::new(&PolicyConfig::default());
        policy.active = vec![true, true, true, false];
        policy.models = vec![linear_model(1e4); 4];
        policy.book = ProfileBook::from_profiles(profiles);

        let mut first = MockCtx::new(0, 0);
        policy.refit_models(&mut first);
        // Until the next rebalance only unit 1 runs anything.
        for (i, x) in [3200u64, 6400].into_iter().enumerate() {
            let (x, proc, xfer) = sample(1, i, x);
            policy.book.record(1, x, proc, xfer, false);
        }
        let mut second = MockCtx::new(0, 0);
        policy.refit_models(&mut second);

        // What a policy with no memory of earlier fits would emit.
        let from_scratch: Vec<(Option<usize>, EventKind)> = (0..3)
            .map(|unit| {
                let profile = &policy.book.profiles()[unit];
                let m = profile.fit_with(mode).expect("clean data fits");
                assert_eq!(
                    policy.models[unit].f.coeffs(),
                    m.f.coeffs(),
                    "unit {unit} runs on the from-scratch curve"
                );
                let kind = EventKind::CurveFit {
                    r2_f: m.f_quality,
                    r2_g: m.g_quality,
                    basis_f: m.f.basis().describe(),
                    samples: profile.len(),
                    accepted: true,
                };
                (Some(unit), kind)
            })
            .collect();
        assert_eq!(
            second.events, from_scratch,
            "inactive unit 3 is never fitted"
        );
        assert_eq!(second.events[0], first.events[0]);
        assert_eq!(second.events[2], first.events[2]);
        assert_ne!(second.events[1], first.events[1], "unit 1 gained samples");
    }

    #[test]
    fn hot_join_folds_newcomer_and_restabilizes() {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::Two, false),
            &ClusterOptions {
                noise_sigma: 0.01,
                ..Default::default()
            },
        );
        let cost = heavy_cost();
        let cfg = PolicyConfig::default()
            .with_initial_block(1000)
            .with_round_fraction(0.25);
        let mut policy = PlbHecPolicy::new(&cfg);
        let plan = plb_runtime::FaultPlan::parse("join:pu=1,after=30", 2).unwrap();
        let mut engine = SimEngine::new(&mut cluster, &cost).with_faults(plan);
        let r = engine.run(&mut policy, 4_000_000).unwrap();
        assert_eq!(r.total_items, 4_000_000);
        assert!(r.pus[1].items > 0, "joined unit must hold a share");

        let sink = engine.last_events().expect("engine keeps the event sink");
        assert!(
            sink.events()
                .iter()
                .any(|e| e.pu == Some(1) && matches!(e.kind, EventKind::PuJoined { .. })),
            "join must be recorded"
        );
        assert!(
            sink.events()
                .iter()
                .any(|e| e.pu == Some(1) && matches!(e.kind, EventKind::Restabilized { .. })),
            "joined unit must restabilize"
        );
    }

    #[test]
    fn gpu_share_exceeds_cpu_share_in_processed_items() {
        let (r, _) = run_plb_cost(Scenario::One, 4_000_000, vec![], heavy_cost());
        let gpu_items: u64 = r
            .pus
            .iter()
            .zip([PuKind::Cpu, PuKind::Gpu])
            .filter(|(_, k)| *k == PuKind::Gpu)
            .map(|(p, _)| p.items)
            .sum();
        assert!(gpu_items > r.total_items / 2);
    }
}
