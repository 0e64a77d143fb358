//! The static profile-based distribution of the paper's reference \[17\]
//! (de Camargo, "A load distribution algorithm based on profiling for
//! heterogeneous GPU clusters", WAMCA 2012) — PLB-HeC's direct ancestor
//! and the paper's Section II foil.
//!
//! The static algorithm determines the distribution *before* execution
//! from profiles gathered in previous runs, "ensuring that all GPUs
//! spend the same amount of time processing kernels". Its drawbacks,
//! per the paper: an initially unbalanced distribution cannot be
//! adjusted at runtime, it needs prior executions on the target
//! devices, and it ignores parameter-dependent behaviour.
//!
//! Here the prior profiles are [`UnitModel`]s recorded from an earlier
//! run (for instance a [`PlbHecPolicy`](crate::PlbHecPolicy) run via
//! [`StaticProfilePolicy::from_profiles`], or analytic models in
//! tests). At start the equal-time partition is solved once — with the
//! same water-fill PLB-HeC uses online — and the distribution is then
//! *frozen*: every unit keeps requesting blocks of its precomputed
//! size, with no refitting and no rebalancing. Under
//! QoS drift or device failure this policy demonstrates exactly the
//! weakness Section II describes (see the `static_vs_dynamic` ablation
//! and tests).

use crate::config::PolicyConfig;
use crate::profile::UnitModel;
use crate::selection::select_block_sizes;
use plb_hetsim::PuId;
use plb_runtime::{Policy, SchedulerCtx, TaskInfo};

/// Static profile-based distribution (reference \[17\]).
pub struct StaticProfilePolicy {
    cfg: PolicyConfig,
    models: Vec<UnitModel>,
    fractions: Vec<f64>,
    blocks: Vec<u64>,
    active: Vec<bool>,
}

impl StaticProfilePolicy {
    /// Build from previously recorded per-unit models ("profiles from
    /// previous executions"). The model order must match the unit order
    /// of the cluster the policy will run on.
    pub fn from_profiles(cfg: &PolicyConfig, models: Vec<UnitModel>) -> StaticProfilePolicy {
        assert!(!models.is_empty(), "need at least one profiled unit");
        StaticProfilePolicy {
            cfg: cfg.clone(),
            models,
            fractions: Vec::new(),
            blocks: Vec::new(),
            active: Vec::new(),
        }
    }
}

impl Policy for StaticProfilePolicy {
    fn name(&self) -> &str {
        "static-profile"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let n = ctx.pus().len();
        assert_eq!(
            self.models.len(),
            n,
            "profiles recorded for {} units but the cluster has {n}",
            self.models.len()
        );
        self.active = ctx.pus().iter().map(|p| p.available).collect();

        // One offline solve over the prior profiles, partitioning the
        // *entire* input up-front — the defining property of the static
        // algorithm ("determines the distribution of data before the
        // execution of the application"). There is no shared pool to
        // self-schedule from, hence no runtime adaptivity at all.
        let sel = select_block_sizes(
            &self.models,
            &self.active,
            ctx.total_items().max(1),
            self.cfg.granularity,
            self.cfg.solver,
        );
        self.fractions = sel.fractions;
        self.blocks = sel.blocks;

        for (pu, (&block, &active)) in self.blocks.iter().zip(&self.active).enumerate() {
            if active && block > 0 {
                ctx.assign(PuId(pu), block);
            }
            if ctx.remaining_items() == 0 {
                break;
            }
        }
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        // Each unit received its entire share in one block; only the
        // rounding residue can remain. Hand it to whoever finishes
        // first — no refit, no rebalance, the static algorithm cannot
        // react to anything else.
        let residue = ctx.remaining_items();
        if residue > 0 {
            ctx.assign(done.pu, residue);
        }
    }

    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        // The one concession required for liveness: a vanished unit's
        // share is re-apportioned (otherwise the run cannot finish).
        // The *relative* split among survivors stays frozen.
        let (Some(active), Some(fraction), Some(block)) = (
            self.active.get_mut(pu.0),
            self.fractions.get_mut(pu.0),
            self.blocks.get_mut(pu.0),
        ) else {
            return;
        };
        *active = false;
        let lost = std::mem::take(fraction);
        *block = 0;
        let live_sum: f64 = self.fractions.iter().sum();
        let shares = self.fractions.iter_mut().zip(&mut self.blocks);
        let survivors = shares.zip(&self.active).filter(|&(_, &active)| active);
        if live_sum > 0.0 && lost > 0.0 {
            // Blocks scale with the regained share.
            for ((f, b), _) in survivors {
                *f *= 1.0 + lost / live_sum;
                if *b > 0 {
                    *b = ((*b as f64) * (1.0 + lost / live_sum)).round().max(1.0) as u64;
                }
            }
        }
        // Kick idle survivors (their next natural request may be far
        // away if they were idle when the failure hit).
        for (id, (&block, &active)) in self.blocks.iter().zip(&self.active).enumerate() {
            let id = PuId(id);
            if active && !ctx.is_busy(id) && ctx.remaining_items() > 0 && block > 0 {
                ctx.assign(id, block);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PerfProfile;
    use crate::PlbHecPolicy;
    use plb_hetsim::cluster::ClusterOptions;
    use plb_hetsim::workload::LinearCost;
    use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
    use plb_runtime::{Perturbation, PerturbationKind, SimEngine};

    fn heavy_cost() -> LinearCost {
        LinearCost {
            label: "heavy".into(),
            flops_per_item: 1e5,
            in_bytes_per_item: 64.0,
            out_bytes_per_item: 64.0,
            threads_per_item: 64.0,
        }
    }

    /// Record profiles by probing the actual devices offline (the
    /// "previous execution" the static algorithm requires).
    fn record_profiles(cluster: &mut ClusterSim, cost: &LinearCost) -> Vec<UnitModel> {
        cluster
            .ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|id| {
                let mut p = PerfProfile::new();
                for &b in &[1000u64, 2000, 4000, 8000, 16000, 32000] {
                    let d = cluster.device_mut(id);
                    let xfer = d.transfer_time(cost, b);
                    let proc = d.proc_time(cost, b);
                    p.record(b, proc, xfer);
                }
                p.fit().expect("offline profiling fits")
            })
            .collect()
    }

    #[test]
    fn static_distribution_completes_and_matches_speeds() {
        let machines = cluster_scenario(Scenario::One, false);
        let opts = ClusterOptions {
            seed: 0,
            noise_sigma: 0.01,
            ..Default::default()
        };
        let cost = heavy_cost();
        let mut profiler_cluster = ClusterSim::build(&machines, &opts);
        let models = record_profiles(&mut profiler_cluster, &cost);

        let mut cluster = ClusterSim::build(&machines, &opts);
        let cfg = PolicyConfig::default();
        let mut policy = StaticProfilePolicy::from_profiles(&cfg, models);
        let report = SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 2_000_000)
            .unwrap();
        assert_eq!(report.total_items, 2_000_000);
        let d = report.block_distribution.unwrap();
        assert!(d[1] > d[0], "GPU share must exceed CPU share: {d:?}");
    }

    #[test]
    fn stale_profiles_hurt_static_but_not_dynamic() {
        // The paper's Section II argument, quantified: the static
        // algorithm "requires previous executions of the applications in
        // the target devices" and "an initial unbalanced distribution
        // cannot be adjusted in runtime". Profile on a healthy machine,
        // run on one whose GPU has since degraded 6x (driver trouble,
        // thermal throttling, a noisy cloud neighbour): the static split
        // overloads the now-slow GPU for the entire run, while PLB-HeC
        // probes the machine as it actually is.
        let machines = cluster_scenario(Scenario::One, false);
        let opts = ClusterOptions {
            seed: 2,
            noise_sigma: 0.01,
            ..Default::default()
        };
        let cost = heavy_cost();
        let total = 8_000_000u64;
        let cfg = PolicyConfig::default().with_initial_block(1000);

        // Profiles recorded on the *healthy* cluster.
        let mut profiler_cluster = ClusterSim::build(&machines, &opts);
        let models = record_profiles(&mut profiler_cluster, &cost);

        // The cluster as it is today: GPU 6x slower.
        let degraded = || {
            let mut c = ClusterSim::build(&machines, &opts);
            c.device_mut(plb_hetsim::PuId(1)).set_slowdown(6.0);
            c
        };

        let mut cluster = degraded();
        let mut static_p = StaticProfilePolicy::from_profiles(&cfg, models);
        let static_time = SimEngine::new(&mut cluster, &cost)
            .run(&mut static_p, total)
            .unwrap()
            .makespan;

        let mut cluster = degraded();
        let mut dynamic_p = PlbHecPolicy::new(&cfg);
        let dynamic_time = SimEngine::new(&mut cluster, &cost)
            .run(&mut dynamic_p, total)
            .unwrap()
            .makespan;

        assert!(
            dynamic_time * 1.2 < static_time,
            "dynamic ({dynamic_time:.3}s) must clearly beat stale-profile static              ({static_time:.3}s)"
        );
    }

    #[test]
    fn survives_device_loss_with_frozen_relative_split() {
        let machines = cluster_scenario(Scenario::Two, false);
        let opts = ClusterOptions {
            seed: 1,
            noise_sigma: 0.01,
            ..Default::default()
        };
        let cost = heavy_cost();
        let mut profiler_cluster = ClusterSim::build(&machines, &opts);
        let models = record_profiles(&mut profiler_cluster, &cost);

        let mut cluster = ClusterSim::build(&machines, &opts);
        let cfg = PolicyConfig::default();
        let mut policy = StaticProfilePolicy::from_profiles(&cfg, models);
        let report = SimEngine::new(&mut cluster, &cost)
            .with_perturbations(vec![Perturbation {
                at: 0.02,
                kind: PerturbationKind::Fail(plb_hetsim::PuId(1)),
            }])
            .run(&mut policy, 1_000_000)
            .unwrap();
        assert_eq!(report.total_items, 1_000_000);
    }

    #[test]
    #[should_panic(expected = "profiles recorded for")]
    fn wrong_profile_count_is_rejected() {
        let machines = cluster_scenario(Scenario::Two, false);
        let opts = ClusterOptions::default();
        let cost = heavy_cost();
        let mut c = ClusterSim::build(&cluster_scenario(Scenario::One, false), &opts);
        let models = record_profiles(&mut c, &cost); // 2 units
        let mut cluster = ClusterSim::build(&machines, &opts); // 5 units
        let cfg = PolicyConfig::default();
        let mut policy = StaticProfilePolicy::from_profiles(&cfg, models);
        let _ = SimEngine::new(&mut cluster, &cost).run(&mut policy, 1000);
    }
}
