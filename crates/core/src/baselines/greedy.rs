//! The StarPU-style greedy scheduler.
//!
//! Paper Section IV: "the greedy consisted in dividing the input set in
//! pieces and assigning each piece of input to any idle processing unit,
//! without any priority assignment." Pieces are `initialBlockSize` items
//! (the paper uses the same initial block size for every algorithm).
//!
//! StarPU's workers pull their next piece from their own queue the
//! moment the last one ends, without waiting on a master. Greedy does
//! the same wherever the runtime lets a unit hold a piece queued behind
//! the one it runs (on a wall clock, one): at start it asks every unit
//! for pieces until refused, and each completion refills the slot the
//! unit's next piece just left. A simulated device holds one piece,
//! and this is plain first-idle dispatch.

use crate::config::PolicyConfig;
use plb_runtime::{Policy, SchedulerCtx, TaskInfo};

/// Greedy first-idle dispatch of fixed-size pieces, one queued per
/// unit where the runtime allows it.
pub struct GreedyPolicy {
    block: u64,
}

impl GreedyPolicy {
    /// Create a greedy policy from the shared configuration.
    pub fn new(cfg: &PolicyConfig) -> GreedyPolicy {
        GreedyPolicy {
            block: cfg.initial_block.max(cfg.granularity),
        }
    }
}

impl Policy for GreedyPolicy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let ids: Vec<_> = ctx
            .pus()
            .iter()
            .filter(|p| p.available)
            .map(|p| p.id)
            .collect();
        for id in ids {
            while ctx.remaining_items() > 0 && ctx.assign(id, self.block) > 0 {}
        }
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        if ctx.remaining_items() > 0 {
            ctx.assign(done.pu, self.block);
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

    #[test]
    fn completes_and_faster_units_take_more_pieces() {
        let mut cluster = ClusterSim::build(
            &cluster_scenario(Scenario::One, false),
            &ClusterOptions {
                noise_sigma: 0.0,
                ..Default::default()
            },
        );
        // Heavy, wide items: the GPU clearly outruns the CPU per piece.
        let cost = LinearCost {
            label: "heavy".into(),
            flops_per_item: 1e5,
            in_bytes_per_item: 64.0,
            out_bytes_per_item: 64.0,
            threads_per_item: 64.0,
        };
        let cfg = PolicyConfig::default().with_initial_block(50_000);
        let mut policy = GreedyPolicy::new(&cfg);
        let report = SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 5_000_000)
            .unwrap();
        assert_eq!(report.total_items, 5_000_000);
        // Machine A: GPU (index 1) is much faster than CPU (index 0) on
        // this compute-bound workload, so self-scheduling gives it more
        // pieces.
        assert!(report.pus[1].items > report.pus[0].items);
    }

    #[test]
    fn block_respects_granularity_floor() {
        let cfg = PolicyConfig {
            initial_block: 10,
            granularity: 64,
            ..Default::default()
        };
        assert_eq!(GreedyPolicy::new(&cfg).block, 64);
    }
}
