//! HDSS — the Heterogeneous Dynamic Self-Scheduler (\[19\] in the paper).
//!
//! Two phases:
//!
//! * **Adaptive phase** — every unit self-schedules probe blocks of
//!   growing size (the same growth schedule on every unit — which is
//!   why HDSS shows more idleness than PLB-HeC in the paper's Fig. 7:
//!   slow units spend the whole phase chewing oversized probes) until
//!   the adaptive data budget is consumed. A FLOP-rate-versus-size
//!   curve `rate(x) = a·ln x + b` is fitted per unit by least squares,
//!   and a scalar weight per unit is derived from the curve's value at
//!   the unit's projected share — the "single number per processor" the
//!   paper criticizes.
//! * **Completion phase** — pure self-scheduling, no barriers: whenever
//!   a unit goes idle it takes `weight × remaining × α` items, so block
//!   sizes start big and decrease geometrically, trimming the
//!   end-of-run imbalance. Weights are never updated again.

use super::{renormalize_live, spread_evenly};
use crate::config::PolicyConfig;
use crate::modeling::{ladder_multiplier, round_to_granularity};
use plb_hetsim::PuId;
use plb_numerics::{fit_basis, BasisFn, BasisSet};
use plb_runtime::{Policy, SchedulerCtx, TaskInfo};

/// Fraction of a unit's weighted share taken per completion-phase block.
const COMPLETION_ALPHA: f64 = 0.5;

enum Phase {
    Adaptive,
    Completion,
}

/// What HDSS keeps per unit, besides its weight.
#[derive(Clone, Default)]
struct Unit {
    active: bool,
    /// Adaptive probes issued so far.
    probe_count: u32,
    /// Whether an adaptive probe is currently in flight.
    probing: bool,
    /// (block size, observed items/s) samples.
    rate_samples: Vec<(f64, f64)>,
}

/// The HDSS policy.
pub struct HdssPolicy {
    cfg: PolicyConfig,
    phase: Phase,
    units: Vec<Unit>,
    /// Items the adaptive phase may still hand out.
    adaptive_budget: u64,
    /// One weight per unit (fraction of total speed).
    weights: Vec<f64>,
}

impl HdssPolicy {
    /// Create the policy.
    pub fn new(cfg: &PolicyConfig) -> HdssPolicy {
        HdssPolicy {
            cfg: cfg.clone(),
            phase: Phase::Adaptive,
            units: Vec::new(),
            adaptive_budget: 0,
            weights: Vec::new(),
        }
    }

    /// The fitted per-unit weights (sum to 1 over active units).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Hand `pu` its next adaptive probe if the budget allows. The
    /// probe sizes follow the same growth schedule on every unit —
    /// HDSS has no round-1 speed preview to rescale with — and every
    /// unit self-schedules its next probe the moment it finishes the
    /// previous one, so fast units naturally perform more probes.
    fn adaptive_probe(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) -> bool {
        let Some(unit) = self.units.get_mut(pu.0) else {
            return false;
        };
        if self.adaptive_budget == 0 || ctx.remaining_items() == 0 || !unit.active {
            return false;
        }
        let block = (self.cfg.initial_block)
            .saturating_mul(ladder_multiplier(unit.probe_count))
            .max(self.cfg.granularity)
            .min(self.adaptive_budget);
        let got = ctx.assign(pu, block);
        if got == 0 {
            return false;
        }
        unit.probe_count += 1;
        unit.probing = true;
        self.adaptive_budget = self.adaptive_budget.saturating_sub(got);
        true
    }

    /// Enter the completion phase if the adaptive phase is over: the
    /// budget is gone and every probe has landed (the weight
    /// computation is a synchronization point, as in the original).
    fn try_enter_completion(&mut self, ctx: &mut dyn SchedulerCtx) {
        if self.units.iter().any(|u| u.probing) {
            return; // a probe is still in flight; finished units idle
        }
        self.fit_weights(ctx.remaining_items());
        // Deterministic stand-in for the (trivial) weight-fit cost.
        ctx.charge_overhead(5e-6 * self.weights.len() as f64);
        self.phase = Phase::Completion;
        for pu in (0..self.units.len()).map(PuId) {
            if !ctx.is_busy(pu) {
                self.assign_completion(ctx, pu);
            }
        }
    }

    /// Fit each unit's log rate curve and collapse it to a weight.
    fn fit_weights(&mut self, remaining: u64) {
        let live = self.units.iter().filter(|u| u.active).count().max(1);
        let eval_x = (remaining as f64 / live as f64).max(1.0);
        let log_basis = BasisSet::new(&[BasisFn::One, BasisFn::LnX]);
        let weight = |unit: &Unit| {
            let s = &unit.rate_samples;
            if !unit.active || s.is_empty() {
                return 0.0;
            }
            let rate = match fit_basis(s, &log_basis) {
                Ok(fit) => fit.eval(eval_x),
                Err(_) => s.iter().map(|&(_, r)| r).sum::<f64>() / s.len() as f64,
            };
            rate.max(1e-9)
        };
        self.weights = self.units.iter().map(weight).collect();
        let live = self.units.iter().map(|u| u.active);
        if !renormalize_live(&mut self.weights, live.clone()) {
            spread_evenly(&mut self.weights, live);
        }
    }

    fn completion_block(&self, weight: f64, remaining: u64) -> u64 {
        let ideal = weight * remaining as f64 * COMPLETION_ALPHA;
        round_to_granularity(ideal, self.cfg.granularity).min(remaining.max(1))
    }

    fn assign_completion(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let (Some(unit), Some(&weight)) = (self.units.get(pu.0), self.weights.get(pu.0)) else {
            return;
        };
        let remaining = ctx.remaining_items();
        if remaining > 0 && unit.active {
            ctx.assign(pu, self.completion_block(weight, remaining));
        }
    }
}

impl Policy for HdssPolicy {
    fn name(&self) -> &str {
        "hdss"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let unit = |p: &plb_runtime::PuHandle| Unit {
            active: p.available,
            ..Unit::default()
        };
        self.units = ctx.pus().iter().map(unit).collect();
        self.weights = vec![0.0; self.units.len()];
        // The adaptive phase consumes the same share of the input the
        // other profile-based schedulers grant their modeling phases.
        self.adaptive_budget =
            ((ctx.total_items() as f64 * self.cfg.modeling_cap_fraction * 0.5) as u64).max(1);
        for pu in (0..self.units.len()).map(PuId) {
            self.adaptive_probe(ctx, pu);
        }
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        let Some(unit) = self.units.get_mut(done.pu.0) else {
            return;
        };
        match self.phase {
            Phase::Adaptive => {
                unit.probing = false;
                let t = done.total_time();
                if t > 0.0 {
                    let items = done.items as f64;
                    unit.rate_samples.push((items, items / t));
                }
                // Self-scheduling within the phase: this unit takes its
                // next probe while the budget lasts. Once the budget is
                // gone, it waits for every outstanding probe to land —
                // the weights need all units' measurements — and that
                // wait is exactly the phase-1 idleness of Fig. 7.
                if self.adaptive_probe(ctx, done.pu) {
                    return;
                }
                self.try_enter_completion(ctx);
            }
            Phase::Completion => {
                self.assign_completion(ctx, done.pu);
            }
        }
    }

    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let Some(unit) = self.units.get_mut(pu.0) else {
            return;
        };
        unit.active = false;
        match self.phase {
            Phase::Adaptive => {
                // Its in-flight probe (if any) will never land; don't
                // hold the weight synchronization for it.
                unit.probing = false;
                if self.adaptive_budget == 0 {
                    self.try_enter_completion(ctx);
                }
            }
            Phase::Completion => {
                // Self-scheduling absorbs the loss: renormalize weights
                // so survivors' blocks stay proportional.
                let live = self.units.iter().map(|u| u.active);
                renormalize_live(&mut self.weights, live);
            }
        }
    }

    fn block_distribution(&self) -> Option<Vec<f64>> {
        if self.weights.iter().any(|&w| w > 0.0) {
            Some(self.weights.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::cluster::ClusterOptions;
    use plb_hetsim::workload::LinearCost;
    use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
    use plb_runtime::SimEngine;

    fn run_hdss(scenario: Scenario, items: u64) -> plb_runtime::RunReport {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(scenario, false),
            &ClusterOptions {
                noise_sigma: 0.0,
                ..Default::default()
            },
        );
        // Heavy, wide items (a matmul-row-like workload): GPUs reach
        // good occupancy already at probe-block sizes.
        let cost = LinearCost {
            label: "heavy".into(),
            flops_per_item: 1e5,
            in_bytes_per_item: 64.0,
            out_bytes_per_item: 64.0,
            threads_per_item: 64.0,
        };
        let cfg = PolicyConfig::default().with_initial_block(1000);
        let mut policy = HdssPolicy::new(&cfg);
        SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, items)
            .unwrap()
    }

    #[test]
    fn completes_all_items() {
        let r = run_hdss(Scenario::Two, 2_000_000);
        assert_eq!(r.total_items, 2_000_000);
    }

    #[test]
    fn weights_favor_the_gpu() {
        let r = run_hdss(Scenario::One, 2_000_000);
        let w = r.block_distribution.unwrap();
        assert!(w[1] > w[0], "GPU should outweigh CPU: {w:?}");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completion_blocks_decrease() {
        let cfg = PolicyConfig::default();
        let p = HdssPolicy::new(&cfg);
        let b1 = p.completion_block(1.0, 100_000);
        let b2 = p.completion_block(1.0, 100_000 - b1);
        assert!(b2 < b1, "{b1} then {b2}");
    }

    #[test]
    fn tiny_input_finishes_within_adaptive_phase() {
        // Input smaller than the probing budget: the policy must finish
        // without entering a degenerate completion phase.
        let r = run_hdss(Scenario::One, 1500);
        assert_eq!(r.total_items, 1500);
    }
}
