//! The complete PLB-HeC scheduling policy (paper Algorithm 2).
//!
//! Glues the three phases together behind the runtime's [`Policy`]
//! interface:
//!
//! * **Modeling** — drives the [`ModelingController`] probing rounds
//!   (synchronized, exponentially growing, speed-rescaled blocks).
//! * **Execution** — distributes blocks of the sizes chosen by
//!   [`select_block_sizes`](crate::select_block_sizes); each unit that finishes "requests another
//!   task of the same size" (paper Section III-D) until the data runs
//!   out.
//! * **Rebalancing** — when any two units' latest finish times diverge
//!   by more than the threshold (10 % of a block's execution time), the
//!   policy synchronizes as in the paper's Fig. 3: in-flight tasks
//!   drain, units that finish early receive one extra block so they do
//!   not idle, then the curves are refit with all accumulated
//!   measurements and the block sizes re-solved.
//!
//! The same machinery serves the paper's future-work scenarios: on
//! device loss the survivors' models are re-solved immediately, and QoS
//! drift shows up as a finish-time divergence that trips the rebalance
//! threshold.

use crate::config::PolicyConfig;
use crate::modeling::{round_to_granularity, ModelingController, ModelingStatus};
use crate::profile::{PerfProfile, ProfileBook, UnitModel};
use crate::selection::{select_block_sizes_cached, SelectionResult, SelectionWarmCache};
use plb_hetsim::PuId;
use plb_runtime::{EventKind, Policy, SchedulerCtx, TaskFailure, TaskInfo};

enum Phase {
    Modeling,
    Executing,
}

/// Probes a unit joining mid-execution must complete before it is
/// folded into the split: the modeling phase's minimum quota, walked
/// on the ×1, ×2, ×4, ×8 mini schedule.
const JOIN_PROBE_ROUNDS: u32 = 4;

/// A joined unit that cannot land a block inside the divergence
/// envelope within this many post-fold blocks is declared restabilized
/// anyway — continuously drifting incumbents can keep the envelope out
/// of reach through no fault of the newcomer.
const JOIN_SETTLE_BLOCKS: u32 = 5;

/// Armed when a joined unit is folded into the split; cleared (with a
/// `restabilized` event) once the unit settles.
struct JoinWatch {
    /// `rebalances` counter at fold time: the difference at settle time
    /// is how many extra re-solves the admission cost.
    rebalances_at_join: usize,
    /// Post-fold blocks completed by the unit so far.
    post_blocks: u32,
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
    ctrl: Option<ModelingController>,
    /// Every unit's measurements, and the model last fitted from each.
    book: ProfileBook,
    models: Vec<UnitModel>,
    fractions: Vec<f64>,
    blocks: Vec<u64>,
    /// Sum of `blocks` (one full round, in cost units), kept by the two
    /// writers of `blocks` so a finished task does not walk the roster.
    round_total: u64,
    active: Vec<bool>,
    last_finish: Vec<Option<f64>>,
    mean_block_time: f64,
    rebalance_pending: bool,
    extra_granted: Vec<bool>,
    selections: Vec<SelectionResult>,
    rebalances: usize,
    /// Remaining mini-schedule probes per unit joining mid-execution
    /// (0 for everyone else).
    join_probing: Vec<u32>,
    /// Restabilization watches for freshly folded joiners.
    restabilize: Vec<Option<JoinWatch>>,
    /// When the last block-size selection ran; divergence triggers
    /// within `rebalance_cooldown_s` of it are suppressed.
    last_rebalance_t: f64,
    /// Checkpointed learning delivered via [`Policy::restore`], consumed
    /// by the first `on_start` to skip the modeling phase.
    seed: Option<PolicySeed>,
    /// Previous interior-point optimum, reused to warm-start rebalance
    /// re-solves. Optimization only — never checkpointed; a restore
    /// simply solves cold once.
    warm_cache: Option<SelectionWarmCache>,
}

impl PlbHecPolicy {
    /// Create the policy from shared configuration.
    pub fn new(cfg: &PolicyConfig) -> PlbHecPolicy {
        PlbHecPolicy {
            cfg: cfg.clone(),
            phase: Phase::Modeling,
            ctrl: None,
            book: ProfileBook::default(),
            models: Vec::new(),
            fractions: Vec::new(),
            blocks: Vec::new(),
            round_total: 0,
            active: Vec::new(),
            last_finish: Vec::new(),
            mean_block_time: 0.0,
            rebalance_pending: false,
            extra_granted: Vec::new(),
            selections: Vec::new(),
            rebalances: 0,
            join_probing: Vec::new(),
            restabilize: Vec::new(),
            last_rebalance_t: f64::NEG_INFINITY,
            seed: None,
            warm_cache: None,
        }
    }

    /// Every block-size selection performed (the first plus any
    /// rebalances): exposes the interior-point solve times the paper
    /// reports (~170 ms mean on its 4-machine scenario).
    pub fn selections(&self) -> &[SelectionResult] {
        &self.selections
    }

    /// Number of rebalancing events (the paper observed zero on its
    /// dedicated cluster; QoS drift and failures make it fire).
    pub fn rebalances(&self) -> usize {
        self.rebalances
    }

    fn assign_initial_probes(&mut self, ctx: &mut dyn SchedulerCtx) {
        let Some(ctrl) = self.ctrl.as_mut() else {
            debug_assert!(false, "controller exists in modeling phase");
            return;
        };
        let blocks = ctrl.initial_probes();
        let mut dead = Vec::new();
        for (i, &b) in blocks.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let got = ctx.assign(PuId(i), b);
            if got == 0 {
                // Data exhausted before this probe could be issued.
                dead.push((i, b));
            } else {
                ctx.emit_event(Some(i), EventKind::ProbeIssued { items: b, round: 1 });
            }
        }
        if !dead.is_empty() {
            if let Some(ctrl) = self.ctrl.as_mut() {
                for (i, b) in dead {
                    ctrl.cancel_probe(i, b);
                }
            }
        }
    }

    /// One execution round's worth of work, in cost units: a fraction
    /// of the total workload weight, capped by what is left. Under
    /// uniform weights this is the pre-weights item window.
    fn execution_window(&self, ctx: &dyn SchedulerCtx) -> u64 {
        let w = (ctx.total_cost() as f64 * self.cfg.round_fraction) as u64;
        w.clamp(1, ctx.remaining_cost().max(1))
            .min(ctx.remaining_cost())
    }

    /// Run the block-size selection over the current models and assign a
    /// block to every idle active unit.
    fn reselect_and_dispatch(&mut self, ctx: &mut dyn SchedulerCtx) {
        if ctx.remaining_items() == 0 {
            return;
        }
        // Every selection (initial, divergence, loss, restore, join)
        // opens a fresh cooldown window.
        self.last_rebalance_t = ctx.now();
        let window = self.execution_window(ctx);
        let sel = select_block_sizes_cached(
            &self.models,
            &self.active,
            window,
            self.cfg.granularity,
            self.cfg.solver,
            &mut self.warm_cache,
        );
        self.fractions = sel.fractions.clone();
        self.blocks = sel.blocks.clone();
        self.round_total = self.blocks.iter().sum();
        if sel.predicted_time.is_finite() && sel.predicted_time > 0.0 {
            self.mean_block_time = sel.predicted_time;
        }
        // Replay the interior-point trajectory into the event stream: the
        // per-iteration log is what distinguishes "solver converged in 9
        // steps" from "line search died and a fallback saved the round".
        for rec in &sel.ipm_log {
            ctx.emit_event(
                None,
                EventKind::IpmIteration {
                    iter: rec.iter,
                    mu: rec.mu,
                    kkt_error: rec.kkt_error,
                    theta: rec.theta,
                    backtracks: rec.backtracks,
                    accepted: rec.accepted,
                },
            );
        }
        if let Some(status) = sel.ipm_status {
            ctx.emit_event(
                None,
                EventKind::IpmDone {
                    status: status.name().to_string(),
                    iterations: sel.ipm_log.len(),
                },
            );
        }
        ctx.emit_event(
            None,
            EventKind::BlockSolve {
                window,
                method: sel.method.name().to_string(),
                iterations: sel.ipm_iterations,
                solve_s: sel.solve_seconds,
                predicted_s: sel.predicted_time,
            },
        );
        // The paper's execution times include the interior-point solve
        // cost; charge it so the comparison against cheap schedulers is
        // fair. The charge uses a deterministic cost model (per-iteration
        // dense KKT factorization over n units) rather than the measured
        // wall time: wall-clock jitter in the virtual clock would break
        // run reproducibility. The measured time is still recorded in
        // `selections()` for the Section V solver-cost statistic.
        let n_live = self.active.iter().filter(|&&a| a).count();
        let deterministic_cost =
            50e-6 * (sel.ipm_iterations.max(4) as f64) * (n_live.max(1) as f64).sqrt();
        ctx.charge_overhead(deterministic_cost);
        self.selections.push(sel);
        self.last_finish.fill(None);
        self.extra_granted.fill(false);
        // Arm the engine's watchdog with the model's prediction: a task
        // deadline of k × E_p(x) only means something when E_p comes from
        // the same fitted curves that sized the blocks.
        for i in 0..self.blocks.len() {
            if self.active[i] && self.blocks[i] > 0 {
                let t = self.models[i].total_time(self.blocks[i] as f64);
                if t.is_finite() && t > 0.0 {
                    ctx.set_deadline_hint(PuId(i), t / self.blocks[i] as f64);
                }
            }
        }
        for i in 0..self.blocks.len() {
            if self.active[i] && self.blocks[i] > 0 && !ctx.is_busy(PuId(i)) {
                ctx.assign(PuId(i), self.blocks[i]);
            }
            if ctx.remaining_items() == 0 {
                break;
            }
        }
    }

    /// Try to enter the execution phase directly from earlier learning
    /// — a checkpoint's, or this policy object's own previous run
    /// (paper resume semantics: re-fit + re-solve, never re-probe).
    /// Succeeds only when every *active* unit ends up with a model —
    /// either re-fit from its profile or carried over verbatim from
    /// `models`. On any shortfall the learning is dropped and the
    /// caller falls back to ordinary modeling.
    fn try_resume(
        &mut self,
        ctx: &mut dyn SchedulerCtx,
        mut book: ProfileBook,
        models: Vec<UnitModel>,
    ) -> bool {
        let n = ctx.pus().len();
        if book.profiles().len() != n || (!models.is_empty() && models.len() != n) {
            return false;
        }
        let mut fitted: Vec<Option<UnitModel>> = Vec::with_capacity(n);
        for (i, &active) in self.active.iter().enumerate() {
            if !active {
                fitted.push(None);
                continue;
            }
            let refit = book.fit(i, self.cfg.fit_mode).ok().cloned();
            match refit.or_else(|| models.get(i).cloned()) {
                Some(m) => fitted.push(Some(m)),
                None => return false,
            }
        }
        // Inactive units still need a slot in the model vector; the
        // selection skips them, so any valid curve serves as filler.
        let Some(filler) = fitted.iter().flatten().next().cloned() else {
            return false; // no active unit at all
        };
        self.models = fitted
            .into_iter()
            .map(|m| m.unwrap_or_else(|| filler.clone()))
            .collect();
        self.book = book;
        for (i, (m, &active)) in self.models.iter().zip(&self.active).enumerate() {
            if !active {
                continue;
            }
            ctx.emit_event(
                Some(i),
                EventKind::CurveFit {
                    r2_f: m.f_quality,
                    r2_g: m.g_quality,
                    basis_f: m.f.basis().describe(),
                    samples: self.book.samples(i),
                    accepted: m.min_r2() >= self.cfg.r2_threshold,
                },
            );
        }
        self.phase = Phase::Executing;
        self.ctrl = None;
        self.reselect_and_dispatch(ctx);
        true
    }

    fn finish_modeling(&mut self, ctx: &mut dyn SchedulerCtx, models: Vec<UnitModel>) {
        // Keep the accumulated probe measurements: rebalancing refits
        // extend them with execution-phase samples.
        if let Some(ctrl) = self.ctrl.take() {
            let items_used = ctrl.items_used();
            self.book = ctrl.into_book();
            for (i, (m, &active)) in models.iter().zip(&self.active).enumerate() {
                if !active {
                    continue;
                }
                ctx.emit_event(
                    Some(i),
                    EventKind::CurveFit {
                        r2_f: m.f_quality,
                        r2_g: m.g_quality,
                        basis_f: m.f.basis().describe(),
                        samples: self.book.samples(i),
                        accepted: m.min_r2() >= self.cfg.r2_threshold,
                    },
                );
            }
            ctx.emit_event(None, EventKind::ModelingDone { items_used });
        }
        self.models = models;
        self.phase = Phase::Executing;
        self.reselect_and_dispatch(ctx);
    }

    /// Bring every active unit's model up to date with its profile. A
    /// unit that ran nothing since its last fit gets that fit back.
    fn refit_models(&mut self, ctx: &mut dyn SchedulerCtx) {
        for (i, (model, &active)) in self.models.iter_mut().zip(&self.active).enumerate() {
            if !active {
                continue;
            }
            let samples = self.book.samples(i);
            match self.book.fit(i, self.cfg.fit_mode) {
                Ok(m) => {
                    ctx.emit_event(
                        Some(i),
                        EventKind::CurveFit {
                            r2_f: m.f_quality,
                            r2_g: m.g_quality,
                            basis_f: m.f.basis().describe(),
                            samples,
                            accepted: true,
                        },
                    );
                    *model = m.clone();
                }
                Err(_) => {
                    // On a failed refit the previous model is kept: stale
                    // but valid, the conservative choice mid-run.
                    ctx.emit_event(
                        Some(i),
                        EventKind::CurveFit {
                            r2_f: 0.0,
                            r2_g: 0.0,
                            basis_f: model.f.basis().describe(),
                            samples,
                            accepted: false,
                        },
                    );
                }
            }
        }
    }

    /// Does this completed block's time deviate from the equalized
    /// prediction by more than the threshold? Returns the
    /// `(expected, observed)` pair when it does.
    ///
    /// The paper phrases the trigger as a divergence of finishing times
    /// between units; since the selection gives every unit the *same*
    /// predicted block time, a divergence of finish times is exactly a
    /// block running over (or under) its prediction. Checking per block
    /// is robust to the startup skew of the pipelined modeling phase,
    /// which staggers when units enter the execution phase without any
    /// actual imbalance.
    fn check_divergence(&self, done: &TaskInfo) -> Option<(f64, f64)> {
        if self.blocks[done.pu.0] == 0 {
            return None;
        }
        // The unit's own fitted curve is the reference: a block running
        // more than the threshold away from it means either the machine
        // changed (QoS drift) or the model is off by more than the
        // tolerance — both are reasons to refit and re-solve. The curve
        // domain is cost, so the comparison uses the block's claimed
        // weight, not its item count.
        let expected = self.models[done.pu.0].total_time(done.cost as f64);
        if !(expected.is_finite() && expected > 0.0) {
            return None;
        }
        let observed = done.total_time();
        if (observed - expected).abs() > self.cfg.rebalance_threshold * expected {
            Some((expected, observed))
        } else {
            None
        }
    }

    fn perform_rebalance(&mut self, ctx: &mut dyn SchedulerCtx) {
        self.rebalance_pending = false;
        self.rebalances += 1;
        self.refit_models(ctx);
        self.reselect_and_dispatch(ctx);
    }

    /// The acquisition gate: admit a mid-execution joiner only when the
    /// modeled makespan payoff on the remaining work (cost units)
    /// exceeds the probing cost the newcomer must sink before it can
    /// contribute.
    ///
    /// The payoff is priced optimistically — the newcomer is assumed as
    /// fast as the fastest incumbent (its actual speed is unknown, that
    /// is what the probes are for). Even under that best case, a join
    /// near the end of the run costs more probe work than the extra
    /// rate can recover; declining keeps the tail undisturbed.
    fn join_payoff_beats_cost(&self, remaining: u64) -> bool {
        // The mini schedule ×1+×2+×4+×8 consumes 15 initial blocks
        // (initial_block is a cost budget) before the newcomer's curve
        // exists.
        let probe_cost = self.cfg.initial_block.saturating_mul(15);
        if remaining <= probe_cost.saturating_mul(2) {
            return false;
        }
        let mut total_rate = 0.0f64;
        let mut max_rate = 0.0f64;
        for i in 0..self.models.len() {
            if !self.active[i] {
                continue;
            }
            let x = match self.blocks.get(i) {
                Some(&b) if b > 0 => b as f64,
                _ => self.cfg.initial_block as f64,
            };
            let t = self.models[i].total_time(x);
            if t.is_finite() && t > 0.0 {
                let r = x / t;
                total_rate += r;
                max_rate = max_rate.max(r);
            }
        }
        if total_rate <= 0.0 || max_rate <= 0.0 {
            // No usable incumbent model to price the decision: admit —
            // extra hands cannot make a blind split worse.
            return true;
        }
        let payoff = remaining as f64 / total_rate - remaining as f64 / (total_rate + max_rate);
        let cost = probe_cost as f64 / max_rate;
        payoff > cost
    }

    /// A joining unit finished one of its mini-schedule probes: record
    /// the sample, issue the next probe, or — once the schedule (or the
    /// data) runs out — fold the unit into the split.
    fn on_join_probe_done(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        let pu = done.pu;
        self.book
            .record(pu.0, done.cost, done.proc_time, done.xfer_time);
        self.join_probing[pu.0] -= 1;
        if self.join_probing[pu.0] > 0 && ctx.remaining_items() > 0 {
            let round = JOIN_PROBE_ROUNDS - self.join_probing[pu.0] + 1;
            let raw = (1u64 << (round - 1).min(3)) as f64 * self.cfg.initial_block as f64;
            let block = round_to_granularity(raw, self.cfg.granularity);
            if ctx.assign(pu, block) > 0 {
                ctx.emit_event(
                    Some(pu.0),
                    EventKind::ProbeIssued {
                        items: block,
                        round,
                    },
                );
                return;
            }
            // Pool raced to empty mid-schedule: fold with what we have.
        }
        self.join_probing[pu.0] = 0;
        self.fold_joined_unit(ctx, pu);
    }

    /// Fit the joined unit's probe samples and fold it into the split:
    /// re-solve over the full active set (warm-started like any other
    /// rebalance) and arm the restabilization watch.
    fn fold_joined_unit(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let fitted = self.book.fit(pu.0, self.cfg.fit_mode).ok().cloned();
        let accepted = fitted.is_some();
        let model = fitted.or_else(|| {
            // Too few samples for a curve (the pool dried up during the
            // mini schedule): borrow the fastest incumbent's curve as a
            // stand-in; the next refit replaces it with the unit's own.
            self.fastest_incumbent_model(pu.0)
        });
        let Some(model) = model else {
            // No samples and no incumbent to borrow from: nothing to
            // solve against, the unit sits back out.
            ctx.emit_event(Some(pu.0), EventKind::DeviceRestoredIgnored);
            return;
        };
        self.active[pu.0] = true;
        ctx.emit_event(
            Some(pu.0),
            EventKind::CurveFit {
                r2_f: model.f_quality,
                r2_g: model.g_quality,
                basis_f: model.f.basis().describe(),
                samples: self.book.samples(pu.0),
                accepted,
            },
        );
        self.models[pu.0] = model;
        if ctx.remaining_items() == 0 {
            // The pool drained while the newcomer probed: there is no
            // split left to absorb it into, which is trivially stable.
            ctx.emit_event(Some(pu.0), EventKind::Restabilized { rebalances: 0 });
            return;
        }
        ctx.emit_event(
            Some(pu.0),
            EventKind::RebalanceTriggered {
                trigger: "device-joined".to_string(),
                expected_s: 0.0,
                observed_s: 0.0,
                divergence: 0.0,
            },
        );
        self.rebalances += 1;
        self.restabilize[pu.0] = Some(JoinWatch {
            rebalances_at_join: self.rebalances,
            post_blocks: 0,
        });
        self.reselect_and_dispatch(ctx);
    }

    fn fastest_incumbent_model(&self, joined: usize) -> Option<UnitModel> {
        let x = self.cfg.initial_block.max(1) as f64;
        (0..self.models.len())
            .filter(|&i| i != joined && self.active[i])
            .min_by(|&a, &b| {
                let ta = self.models[a].total_time(x);
                let tb = self.models[b].total_time(x);
                ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|i| self.models[i].clone())
    }
}

impl Policy for PlbHecPolicy {
    fn name(&self) -> &str {
        "plb-hec"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let n = ctx.pus().len();
        self.active = ctx.pus().iter().map(|p| p.available).collect();
        self.last_finish = vec![None; n];
        self.extra_granted = vec![false; n];
        self.blocks = vec![0; n];
        self.round_total = 0;
        self.fractions = vec![0.0; n];
        self.join_probing = vec![0; n];
        self.restabilize = (0..n).map(|_| None).collect();
        // A reused policy object (the cluster tier runs one nested
        // engine per chunk against the same policy) carries its learned
        // profiles into the next run as an implicit seed: re-fit +
        // re-solve, never re-probe — the same path a checkpoint resume
        // takes. Its book moves over whole, so a unit the previous run
        // never used is not fitted again.
        let learned = match self.seed.take() {
            Some(seed) => Some((ProfileBook::from_profiles(seed.profiles), seed.models)),
            None if matches!(self.phase, Phase::Executing) && self.book.profiles().len() == n => {
                Some((
                    std::mem::take(&mut self.book),
                    std::mem::take(&mut self.models),
                ))
            }
            None => None,
        };
        self.phase = Phase::Modeling;
        self.ctrl = None;
        self.mean_block_time = 0.0;
        self.rebalance_pending = false;
        self.last_rebalance_t = f64::NEG_INFINITY;
        if learned.is_some_and(|(book, models)| self.try_resume(ctx, book, models)) {
            // The learned profiles re-fit cleanly: straight to the
            // execution phase, zero probes re-issued.
            return;
        }
        self.book = ProfileBook::new(n);
        // The paper's 20% modeling budget, measured in work (cost
        // units), so a skewed workload doesn't let probing chew through
        // a disproportionate share of the heavy rows.
        let budget = (ctx.total_cost() as f64 * self.cfg.modeling_cap_fraction).ceil() as u64;
        let mut ctrl = ModelingController::new(
            n,
            self.cfg.initial_block,
            self.cfg.granularity,
            self.cfg.r2_threshold,
            budget.max(1),
        )
        .with_schedule(self.cfg.probe_schedule);
        for (i, a) in self.active.iter().enumerate() {
            if !a {
                ctrl.deactivate(i);
            }
        }
        self.ctrl = Some(ctrl);
        self.assign_initial_probes(ctx);
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        match self.phase {
            Phase::Modeling => {
                let Some(ctrl) = self.ctrl.as_mut() else {
                    debug_assert!(false, "controller exists in modeling phase");
                    return;
                };
                let next = ctrl.on_task_done(done.pu.0, done.cost, done.proc_time, done.xfer_time);
                let round = ctrl.probes_done(done.pu.0) + 1;
                if let Some(block) = next {
                    // Pipelined probing: this unit immediately gets its
                    // next (speed-rescaled) probe.
                    let got = ctx.assign(done.pu, block);
                    if got > 0 {
                        ctx.emit_event(
                            Some(done.pu.0),
                            EventKind::ProbeIssued {
                                items: block,
                                round,
                            },
                        );
                        return;
                    }
                    if let Some(ctrl) = self.ctrl.as_mut() {
                        ctrl.cancel_probe(done.pu.0, block);
                    }
                }
                let Some(ctrl) = self.ctrl.as_mut() else {
                    debug_assert!(false, "controller exists in modeling phase");
                    return;
                };
                match ctrl.status() {
                    ModelingStatus::Done(models) => self.finish_modeling(ctx, models),
                    ModelingStatus::Probing => {
                        if ctx.remaining_items() == 0 && !ctx.any_busy() {
                            // Data exhausted during probing with nothing
                            // in flight: close out with what we have.
                            let models = ctrl.force_models();
                            self.finish_modeling(ctx, models);
                        }
                        // Otherwise this unit idles briefly while the
                        // remaining units complete their probe quotas.
                    }
                }
            }
            Phase::Executing => {
                if self.join_probing[done.pu.0] > 0 {
                    // A joiner's mini-schedule probe, not a split block.
                    self.on_join_probe_done(ctx, done);
                    return;
                }
                self.book
                    .record(done.pu.0, done.cost, done.proc_time, done.xfer_time);
                self.last_finish[done.pu.0] = Some(done.finish);

                // Restabilization watch: a freshly folded joiner has
                // settled once one of its blocks lands inside the
                // divergence envelope (or after enough blocks that the
                // envelope is evidently unreachable).
                // An exhausted pool also settles the watch: with no
                // items left to redistribute, the tail blocks are
                // tail effects, not instability (the same reasoning
                // that mutes the divergence trigger below). Computed
                // before borrowing the watch because check_divergence
                // reads `self`.
                let settled = self.restabilize[done.pu.0].is_some()
                    && (self.check_divergence(done).is_none() || ctx.remaining_items() == 0);
                if let Some(watch) = self.restabilize[done.pu.0].as_mut() {
                    watch.post_blocks += 1;
                    if settled || watch.post_blocks >= JOIN_SETTLE_BLOCKS {
                        let rebalances = (self.rebalances - watch.rebalances_at_join) as u32;
                        self.restabilize[done.pu.0] = None;
                        ctx.emit_event(Some(done.pu.0), EventKind::Restabilized { rebalances });
                    }
                }
                if ctx.remaining_items() == 0 {
                    // The pool is drained, so no watch can ever see
                    // another block from its own unit: whatever split the
                    // run ends on is the stable one. Flush them all.
                    for pu in 0..self.restabilize.len() {
                        if let Some(watch) = self.restabilize[pu].take() {
                            let rebalances = (self.rebalances - watch.rebalances_at_join) as u32;
                            ctx.emit_event(Some(pu), EventKind::Restabilized { rebalances });
                        }
                    }
                }

                // A divergence is only actionable while data remains to
                // redistribute; the staggered finishes of the very last
                // blocks (including the shrinking residue-phase blocks)
                // are inherent tail effects, not imbalance. The cooldown
                // additionally mutes triggers right after a re-solve —
                // hysteresis against thrash under continuous drift.
                // Blocks are cost budgets, so the "one full round left"
                // test compares against the remaining cost.
                let round_total = self.round_total;
                debug_assert_eq!(
                    round_total,
                    self.blocks.iter().sum::<u64>(),
                    "round_total out of step with blocks"
                );
                let cooled = ctx.now() >= self.last_rebalance_t + self.cfg.rebalance_cooldown_s;
                if !self.rebalance_pending && cooled && ctx.remaining_cost() >= round_total.max(1) {
                    if let Some((expected, observed)) = self.check_divergence(done) {
                        ctx.emit_event(
                            Some(done.pu.0),
                            EventKind::RebalanceTriggered {
                                trigger: "divergence".to_string(),
                                expected_s: expected,
                                observed_s: observed,
                                divergence: (observed - expected).abs() / expected,
                            },
                        );
                        self.rebalance_pending = true;
                        self.extra_granted.fill(false);
                    }
                }

                if self.rebalance_pending {
                    if ctx.any_busy() {
                        // Synchronization drain (Fig. 3): units finishing
                        // while others still run get one extra block so
                        // they do not idle through the sync.
                        if !self.extra_granted[done.pu.0]
                            && ctx.remaining_items() > 0
                            && self.blocks[done.pu.0] > 0
                        {
                            self.extra_granted[done.pu.0] = true;
                            ctx.assign(done.pu, self.blocks[done.pu.0]);
                        }
                    } else if ctx.remaining_items() > 0 {
                        self.perform_rebalance(ctx);
                    } else {
                        // The data drained away during the sync: nothing
                        // left to rebalance.
                        self.rebalance_pending = false;
                    }
                    return;
                }

                // Steady state: another task of the same size — until the
                // pool can no longer cover a full round. The residue is
                // then split by the same fractions (blocks shrink
                // geometrically), so the last tasks finish together
                // instead of one unit dragging a full-size block past
                // everyone else. All in cost units: on an irregular
                // workload a "same-size" block covers however many items
                // add up to the same weight.
                let remaining = ctx.remaining_cost();
                if remaining > 0 && self.blocks[done.pu.0] > 0 {
                    let want = if remaining >= round_total {
                        self.blocks[done.pu.0]
                    } else {
                        // Floor at a quarter of the unit's block: tiny
                        // residue tasks would drown in dispatch latency.
                        let scaled = (self.fractions[done.pu.0] * remaining as f64).round() as u64;
                        scaled
                            .max(self.cfg.granularity)
                            .max(self.blocks[done.pu.0] / 4)
                            .min(self.blocks[done.pu.0])
                    };
                    ctx.assign(done.pu, want);
                }
            }
        }
    }

    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.active[pu.0] = false;
        self.last_finish[pu.0] = None;
        // A joiner that dies mid-probe (or before settling) takes its
        // join bookkeeping with it.
        self.join_probing[pu.0] = 0;
        self.restabilize[pu.0] = None;
        match self.phase {
            Phase::Modeling => {
                let Some(ctrl) = self.ctrl.as_mut() else {
                    debug_assert!(false, "controller exists in modeling phase");
                    return;
                };
                ctrl.deactivate(pu.0);
                // The unit's in-flight probe (if any) will never land.
                if !ctx.is_busy(pu) && ctrl.outstanding() > 0 {
                    ctrl.cancel_probe(pu.0, 0);
                }
                match ctrl.status() {
                    ModelingStatus::Done(models) => self.finish_modeling(ctx, models),
                    ModelingStatus::Probing => {
                        if ctrl.outstanding() == 0 && !ctx.any_busy() {
                            // Nothing left in flight and the gate cannot
                            // pass on its own: force completion so the
                            // survivors proceed.
                            let models = ctrl.force_models();
                            self.finish_modeling(ctx, models);
                        }
                    }
                }
            }
            Phase::Executing => {
                if self.active.iter().any(|&a| a) && ctx.remaining_items() > 0 {
                    // Redistribute among survivors with existing models
                    // (the paper's fault-tolerance sketch, Section VI).
                    ctx.emit_event(
                        Some(pu.0),
                        EventKind::RebalanceTriggered {
                            trigger: "device-lost".to_string(),
                            expected_s: 0.0,
                            observed_s: 0.0,
                            divergence: 0.0,
                        },
                    );
                    self.rebalances += 1;
                    self.reselect_and_dispatch(ctx);
                }
            }
        }
    }

    fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        if self.active[pu.0] {
            return;
        }
        match self.phase {
            Phase::Modeling => {
                // A mid-modeling rejoin would need fresh probes for the
                // unit and would distort the synchronized rounds; the
                // unit sits out until the execution phase instead.
            }
            Phase::Executing => {
                self.active[pu.0] = true;
                self.last_finish[pu.0] = None;
                if ctx.remaining_items() > 0 {
                    // The survivors' split no longer includes the best
                    // use of the restored unit: re-solve over the full
                    // active set (its pre-quarantine model still holds).
                    ctx.emit_event(
                        Some(pu.0),
                        EventKind::RebalanceTriggered {
                            trigger: "device-restored".to_string(),
                            expected_s: 0.0,
                            observed_s: 0.0,
                            divergence: 0.0,
                        },
                    );
                    self.rebalances += 1;
                    self.reselect_and_dispatch(ctx);
                }
            }
        }
    }

    fn on_device_joined(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        if self.active[pu.0] {
            return;
        }
        match self.phase {
            Phase::Modeling => {
                // Mid-modeling the newcomer folds straight into the
                // probe pipeline — no acquisition gate, probing is what
                // this phase spends its budget on anyway.
                self.active[pu.0] = true;
                let Some(ctrl) = self.ctrl.as_mut() else {
                    debug_assert!(false, "controller exists in modeling phase");
                    self.active[pu.0] = false;
                    return;
                };
                let block = ctrl.admit(pu.0);
                if ctx.assign(pu, block) > 0 {
                    ctx.emit_event(
                        Some(pu.0),
                        EventKind::ProbeIssued {
                            items: block,
                            round: 1,
                        },
                    );
                    // The watch stays dormant through modeling (only
                    // executing-phase completions tick it): the unit is
                    // declared restabilized once its first split blocks
                    // settle, same as an executing-phase fold.
                    self.restabilize[pu.0] = Some(JoinWatch {
                        rebalances_at_join: self.rebalances,
                        post_blocks: 0,
                    });
                } else {
                    // Data exhausted before the probe could be issued:
                    // the unit stays out, as if it never joined.
                    if let Some(ctrl) = self.ctrl.as_mut() {
                        ctrl.cancel_probe(pu.0, block);
                        ctrl.deactivate(pu.0);
                    }
                    self.active[pu.0] = false;
                    ctx.emit_event(Some(pu.0), EventKind::DeviceRestoredIgnored);
                }
            }
            Phase::Executing => {
                let remaining = ctx.remaining_cost();
                if remaining == 0 || !self.join_payoff_beats_cost(remaining) {
                    // Declined: the modeled payoff on the remaining work
                    // does not cover the probing cost. The breadcrumb
                    // explains why the unit idles.
                    ctx.emit_event(Some(pu.0), EventKind::DeviceRestoredIgnored);
                    return;
                }
                // The unit stays out of `active` (and thus out of any
                // concurrent re-solve) until its probes yield a model;
                // `fold_joined_unit` flips it in.
                self.last_finish[pu.0] = None;
                self.book.reset(pu.0);
                self.join_probing[pu.0] = JOIN_PROBE_ROUNDS;
                let block =
                    round_to_granularity(self.cfg.initial_block as f64, self.cfg.granularity);
                if ctx.assign(pu, block) > 0 {
                    ctx.emit_event(
                        Some(pu.0),
                        EventKind::ProbeIssued {
                            items: block,
                            round: 1,
                        },
                    );
                } else {
                    // The pool raced to empty between the gate and the
                    // probe: back out.
                    self.join_probing[pu.0] = 0;
                    ctx.emit_event(Some(pu.0), EventKind::DeviceRestoredIgnored);
                }
            }
        }
    }

    fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, failure: &TaskFailure) {
        // Called once the failed task's items are back in the pool
        // (retries exhausted or the unit quarantined). A quarantine also
        // fires `on_device_lost`, which re-solves the split; this hook
        // covers what that path cannot: putting the re-credited items
        // back in flight on whoever is idle.
        match self.phase {
            Phase::Modeling => {
                // A quarantine already went through `on_device_lost`,
                // which deactivated the unit and cancelled its probe;
                // cancelling again would corrupt the round gate. Only
                // the retries-exhausted-while-still-active case still
                // owes the controller a cancellation.
                if !self.active[failure.pu.0] {
                    return;
                }
                let Some(ctrl) = self.ctrl.as_mut() else {
                    return;
                };
                // The probe measurement will never land; stop the round
                // gate from waiting on it. The budget to un-account is
                // the block's weight, not its item count.
                ctrl.cancel_probe(failure.pu.0, failure.cost);
                match ctrl.status() {
                    ModelingStatus::Done(models) => self.finish_modeling(ctx, models),
                    ModelingStatus::Probing => {
                        if ctrl.outstanding() == 0 && !ctx.any_busy() {
                            let models = ctrl.force_models();
                            self.finish_modeling(ctx, models);
                        }
                    }
                }
            }
            Phase::Executing => {
                if ctx.remaining_items() == 0 {
                    return;
                }
                for i in 0..self.blocks.len() {
                    if ctx.remaining_items() == 0 {
                        break;
                    }
                    if self.active[i] && self.blocks[i] > 0 && !ctx.is_busy(PuId(i)) {
                        ctx.assign(PuId(i), self.blocks[i]);
                    }
                }
            }
        }
    }

    fn block_distribution(&self) -> Option<Vec<f64>> {
        if self.fractions.iter().any(|&f| f > 0.0) {
            Some(self.fractions.clone())
        } else {
            None
        }
    }

    fn snapshot(&self) -> Option<serde_json::Value> {
        let seed = PolicySeed {
            profiles: match (&self.phase, &self.ctrl) {
                // Mid-modeling the controller owns the live profiles.
                (Phase::Modeling, Some(ctrl)) => ctrl.profiles().to_vec(),
                _ => self.book.profiles().to_vec(),
            },
            models: match self.phase {
                Phase::Modeling => Vec::new(),
                Phase::Executing => self.models.clone(),
            },
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
        SimEngine::new(&mut cluster, &cost)
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
                    ["interior-point", "fixed-point", "rate-proportional"]
                        .contains(&method.as_str()),
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

    fn linear_model(rate: f64) -> UnitModel {
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800] {
            p.record(x, x as f64 / rate, 1e-5);
        }
        p.fit_with(crate::config::FitMode::BestSubset)
            .expect("clean linear data fits")
    }

    /// A context that only keeps the events a hook emits.
    #[derive(Default)]
    struct EventLog(Vec<(Option<usize>, EventKind)>);

    impl SchedulerCtx for EventLog {
        fn now(&self) -> f64 {
            0.0
        }
        fn pus(&self) -> &[plb_runtime::PuHandle] {
            &[]
        }
        fn remaining_items(&self) -> u64 {
            0
        }
        fn total_items(&self) -> u64 {
            0
        }
        fn assign(&mut self, _pu: PuId, _budget: u64) -> u64 {
            0
        }
        fn is_busy(&self, _pu: PuId) -> bool {
            false
        }
        fn any_busy(&self) -> bool {
            false
        }
        fn charge_overhead(&mut self, _seconds: f64) {}
        fn emit_event(&mut self, pu: Option<usize>, kind: EventKind) {
            self.0.push((pu, kind));
        }
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

        let mut first = EventLog::default();
        policy.refit_models(&mut first);
        // Until the next rebalance only unit 1 runs anything.
        for (i, x) in [3200u64, 6400].into_iter().enumerate() {
            let (x, proc, xfer) = sample(1, i, x);
            policy.book.record(1, x, proc, xfer);
        }
        let mut second = EventLog::default();
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
        assert_eq!(second.0, from_scratch, "inactive unit 3 is never fitted");
        assert_eq!(second.0[0], first.0[0]);
        assert_eq!(second.0[2], first.0[2]);
        assert_ne!(second.0[1], first.0[1], "unit 1 gained samples");
    }

    #[test]
    fn acquisition_gate_prices_probe_cost() {
        let cfg = PolicyConfig::default().with_initial_block(100);
        let mut p = PlbHecPolicy::new(&cfg);
        p.active = vec![true, true, false];
        p.blocks = vec![1000, 1000, 0];
        p.models = vec![linear_model(1e4), linear_model(1e4), linear_model(1e4)];
        // Plenty of work left: the added rate easily recovers the 15
        // initial blocks the mini schedule will consume.
        assert!(p.join_payoff_beats_cost(1_000_000));
        // Just past the hard floor the modeled payoff (~0.05 s) cannot
        // cover the probe cost (~0.15 s).
        assert!(!p.join_payoff_beats_cost(3_001));
        // At or below twice the probe items the gate refuses outright.
        assert!(!p.join_payoff_beats_cost(3_000));
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
    fn cooldown_bounds_rebalances_under_drift() {
        // Fast sinusoidal drift on the GPU: every block runs far from
        // its freshly fitted curve, so without hysteresis the trigger
        // re-solves round after round.
        let run = |cooldown: f64| {
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
                .with_round_fraction(0.25)
                .with_rebalance_cooldown(cooldown);
            let mut policy = PlbHecPolicy::new(&cfg);
            let plan =
                plb_runtime::FaultPlan::parse("drift:pu=1,kind=sin,from=0,period=6,amp=0.8", 2)
                    .unwrap();
            let r = SimEngine::new(&mut cluster, &cost)
                .with_faults(plan)
                .run(&mut policy, 8_000_000)
                .unwrap();
            assert_eq!(r.total_items, 8_000_000);
            policy.rebalances()
        };
        let unchecked = run(0.0);
        assert!(unchecked >= 1, "drift scenario must be adversarial");
        // A cooldown longer than the whole run mutes every divergence
        // trigger after the initial selection.
        let damped = run(1e6);
        assert_eq!(damped, 0, "cooldown must suppress repeat triggers");
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
