//! Acosta et al.'s dynamic load-balancing algorithm (\[18\] in the paper).
//!
//! The algorithm is iterative and synchronized: in every iteration each
//! processing unit works on its assigned share of a wave of data, all
//! units synchronize, and each unit's *Relative Power*
//! `RP_g = load_g / time_g` is computed. The next shares are a simple
//! weighted average of the current shares and `RP_g / SRP` (the
//! normalized relative powers) — which is why, as the paper notes, its
//! convergence toward the balanced distribution is asymptotic and costs
//! several rebalancing iterations. Once the per-unit times agree within
//! a user threshold, the distribution is frozen.

use super::{renormalize_live, spread_evenly};
use crate::config::PolicyConfig;
use crate::selection::apportion;
use plb_hetsim::PuId;
use plb_runtime::{Policy, SchedulerCtx, TaskInfo};

/// Acosta relative-power iterative balancing.
pub struct AcostaPolicy {
    cfg: PolicyConfig,
    fractions: Vec<f64>,
    active: Vec<bool>,
    /// Per-unit (items, seconds) of the current wave.
    wave_result: Vec<Option<(u64, f64)>>,
    outstanding: usize,
    converged: bool,
    rebalances: usize,
}

impl AcostaPolicy {
    /// Create the policy from shared configuration.
    pub fn new(cfg: &PolicyConfig) -> AcostaPolicy {
        AcostaPolicy {
            cfg: cfg.clone(),
            fractions: Vec::new(),
            active: Vec::new(),
            wave_result: Vec::new(),
            outstanding: 0,
            converged: false,
            rebalances: 0,
        }
    }

    /// How many share updates were performed.
    pub fn rebalances(&self) -> usize {
        self.rebalances
    }

    fn wave_items(&self, ctx: &dyn SchedulerCtx) -> u64 {
        // Acosta's algorithm piggybacks on the application's own
        // iteration structure: each rebalancing synchronization covers
        // one iteration, in which every unit processes a block-sized
        // chunk — the same order of magnitude as the pieces the other
        // algorithms hand out, not a fixed fraction of the dataset.
        let live = self.active.iter().filter(|&&a| a).count().max(1) as u64;
        let w = 2 * live * self.cfg.initial_block.max(self.cfg.granularity);
        w.clamp(1, ctx.remaining_items().max(1))
            .min(ctx.remaining_items())
    }

    fn launch_wave(&mut self, ctx: &mut dyn SchedulerCtx) {
        let window = self.wave_items(ctx);
        if window == 0 {
            return;
        }
        let masked: Vec<f64> = self
            .fractions
            .iter()
            .zip(&self.active)
            .map(|(&f, &a)| if a { f } else { 0.0 })
            .collect();
        let blocks = apportion(&masked, window, self.cfg.granularity);
        self.wave_result.fill(None);
        self.outstanding = 0;
        for (i, &b) in blocks.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let got = ctx.assign(PuId(i), b);
            if got > 0 {
                self.outstanding += 1;
            }
        }
    }

    fn finish_wave(&mut self, ctx: &mut dyn SchedulerCtx) {
        // Relative powers from the completed wave.
        let timed = |r: &Option<(u64, f64)>| r.filter(|&(_, secs)| secs > 0.0);
        let rp: Vec<f64> = (self.wave_result.iter())
            .map(|r| timed(r).map_or(0.0, |(items, secs)| items as f64 / secs))
            .collect();
        let times: Vec<f64> = (self.wave_result.iter())
            .filter_map(|r| timed(r).map(|(_, secs)| secs))
            .collect();
        let srp: f64 = rp.iter().sum();
        if srp > 0.0 && !self.converged {
            let tmax = times.iter().cloned().fold(0.0f64, f64::max);
            let tmin = times.iter().cloned().fold(f64::INFINITY, f64::min);
            if times.len() > 1 && (tmax - tmin) / tmax <= self.cfg.rebalance_threshold {
                // Times agree within the user threshold: freeze.
                self.converged = true;
            } else {
                // Weighted average toward the normalized relative power:
                // the asymptotic update the paper criticizes.
                for (f, &r) in self.fractions.iter_mut().zip(&rp) {
                    let target = r / srp;
                    *f = 0.5 * *f + 0.5 * target;
                }
                renormalize_live(&mut self.fractions, self.active.iter().copied());
                self.rebalances += 1;
            }
        }
        // Deterministic stand-in for the share-update cost (a handful of
        // arithmetic operations per unit).
        ctx.charge_overhead(1e-6 * self.fractions.len() as f64);
        if ctx.remaining_items() > 0 {
            self.launch_wave(ctx);
        }
    }
}

impl Policy for AcostaPolicy {
    fn name(&self) -> &str {
        "acosta"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let n = ctx.pus().len();
        self.active = ctx.pus().iter().map(|p| p.available).collect();
        self.fractions = vec![0.0; n];
        spread_evenly(&mut self.fractions, self.active.iter().copied());
        self.wave_result = vec![None; n];
        self.launch_wave(ctx);
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        let Some(result) = self.wave_result.get_mut(done.pu.0) else {
            return;
        };
        *result = Some((done.items, done.total_time()));
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.finish_wave(ctx);
        }
    }

    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let (Some(active), Some(result)) = (self.active.get_mut(pu.0), self.wave_result.get(pu.0))
        else {
            return;
        };
        *active = false;
        // If the lost unit was part of the wave barrier, release it.
        if result.is_none() && self.outstanding > 0 {
            self.outstanding -= 1;
        }
        // Its share goes to the survivors, in proportion.
        if !renormalize_live(&mut self.fractions, self.active.iter().copied()) {
            spread_evenly(&mut self.fractions, self.active.iter().copied());
        }
        self.converged = false;
        if self.outstanding == 0 && ctx.remaining_items() > 0 {
            self.launch_wave(ctx);
        }
    }

    fn block_distribution(&self) -> Option<Vec<f64>> {
        Some(self.fractions.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::cluster::ClusterOptions;
    use plb_hetsim::workload::LinearCost;
    use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
    use plb_runtime::SimEngine;

    fn run_acosta(scenario: Scenario) -> plb_runtime::RunReport {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(scenario, false),
            &ClusterOptions {
                noise_sigma: 0.0,
                ..Default::default()
            },
        );
        // Heavy, wide items so the GPU is clearly faster at wave
        // granularity (Acosta's waves are only a few blocks wide).
        let cost = LinearCost {
            label: "heavy".into(),
            flops_per_item: 1e5,
            in_bytes_per_item: 64.0,
            out_bytes_per_item: 64.0,
            threads_per_item: 64.0,
        };
        let cfg = PolicyConfig::default().with_initial_block(1000);
        let mut policy = AcostaPolicy::new(&cfg);
        SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 2_000_000)
            .unwrap()
    }

    #[test]
    fn completes_all_items() {
        let r = run_acosta(Scenario::Two);
        assert_eq!(r.total_items, 2_000_000);
    }

    #[test]
    fn distribution_converges_toward_speed() {
        let r = run_acosta(Scenario::One);
        // GPU (PU 1) ends up with a larger share than the CPU.
        let d = r.block_distribution.unwrap();
        assert!(d[1] > d[0], "{d:?}");
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survives_device_loss() {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::Two, false),
            &ClusterOptions {
                noise_sigma: 0.0,
                ..Default::default()
            },
        );
        let cost = LinearCost::generic();
        let cfg = PolicyConfig::default().with_initial_block(1000);
        let mut policy = AcostaPolicy::new(&cfg);
        let report = SimEngine::new(&mut cluster, &cost)
            .with_perturbations(vec![plb_runtime::Perturbation {
                at: 1e-4,
                kind: plb_runtime::PerturbationKind::Fail(plb_hetsim::PuId(0)),
            }])
            .run(&mut policy, 500_000)
            .unwrap();
        assert_eq!(report.total_items, 500_000);
    }
}
