//! The node-level diffusion policy for the cluster tier.
//!
//! One level above the intra-node schedulers sits a second balancing
//! problem: which *node* works on which shard of the item space. The
//! diffusion policy solves it with locality-first work stealing over
//! the cluster topology:
//!
//! 1. **Home shard first** — every node owns an equal-cost shard
//!    ([`plb_runtime::equal_cost_shards`]); an idle node claims from
//!    its own shard before anything else, so in the fault-free case no
//!    chunk ever crosses the network.
//! 2. **Neighbours next** — when its shard is exhausted, a node pulls
//!    from the shards of its [`Topology`] neighbours in order
//!    (migration over one link).
//! 3. **Anywhere last** — remaining work anywhere in the item space
//!    (the driver's unrestricted claim), so stragglers never idle a
//!    healthy node.
//!
//! Chunk budgets diffuse by observed speed: each node's budget is its
//! rate-EWMA share of the remaining cost, divided by an
//! over-partitioning factor so the tail stays balanceable. Node loss
//! re-credits work through the core; the policy just pumps again and
//! the range diffuses to the survivors. A healed node passes an
//! acquisition gate before re-admission (mirroring PLB-HeC's
//! mid-execution join gate, `docs/FAULT_TOLERANCE.md`): re-admitting a
//! node for the last few chunks disturbs the tail for no payoff, so
//! the gate declines unless enough work remains — emitting
//! `node_joined` on admission and `device_restored_ignored` on
//! decline.

use plb_hetsim::{PuId, Topology};
use plb_runtime::events::EventKind;
use plb_runtime::policy::{Policy, SchedulerCtx};
use plb_runtime::task::{TaskFailure, TaskInfo};

/// Budget divisor keeping several rounds of chunks per node, so late
/// rate drift can still re-balance the tail.
const OVER_PARTITION: f64 = 4.0;

/// Node-level diffusion scheduler (see the module docs). Drives the
/// cluster tier's outer engine ([`plb_runtime::ClusterEngine`]), where
/// every "unit" is a whole node.
pub struct NodeDiffusionPolicy {
    topology: Topology,
    /// Interior home-shard boundaries (same values handed to the
    /// engine; see [`plb_runtime::equal_cost_shards`]).
    shard_bounds: Vec<u64>,
    /// Minimum cost units per chunk, derived at start:
    /// `total_cost / (nodes × 32)`.
    min_chunk: u64,
    /// Per-node cost-units-per-second EWMA.
    rate: Vec<Option<f64>>,
    /// Gate verdicts: a declined node stays out of the split.
    admitted: Vec<bool>,
}

impl NodeDiffusionPolicy {
    /// Create a diffusion policy over `topology` with the engine's
    /// home-shard boundaries.
    pub fn new(topology: Topology, shard_bounds: Vec<u64>) -> NodeDiffusionPolicy {
        NodeDiffusionPolicy {
            topology,
            shard_bounds,
            min_chunk: 0,
            rate: Vec::new(),
            admitted: Vec::new(),
        }
    }

    fn ensure_len(&mut self, n: usize) {
        if self.rate.len() < n {
            self.rate.resize(n, None);
        }
        if self.admitted.len() < n {
            self.admitted.resize(n, true);
        }
    }

    /// Home shard of `node` as a `[lo, hi)` item range.
    fn shard_range(&self, node: usize, n: usize, total: u64) -> (u64, u64) {
        let lo = if node == 0 {
            0
        } else {
            self.shard_bounds.get(node - 1).copied().unwrap_or(total)
        };
        let hi = if node + 1 >= n {
            total
        } else {
            self.shard_bounds.get(node).copied().unwrap_or(total)
        };
        (lo, hi.max(lo))
    }

    /// This node's rate-proportional share of the remaining cost, over-
    /// partitioned and clamped to the chunk floor.
    fn budget_for(&self, node: usize, ctx: &dyn SchedulerCtx) -> u64 {
        let remaining = ctx.remaining_cost();
        if remaining == 0 {
            return 0;
        }
        let mut total_rate = 0.0f64;
        for (j, p) in ctx.pus().iter().enumerate() {
            if p.available && self.admitted.get(j).copied().unwrap_or(false) {
                total_rate += self.rate.get(j).copied().flatten().unwrap_or(1.0);
            }
        }
        if total_rate.is_nan() || total_rate <= 0.0 {
            return 0;
        }
        let mine = self.rate.get(node).copied().flatten().unwrap_or(1.0);
        let share = remaining as f64 * (mine / total_rate);
        let budget = (share / OVER_PARTITION).ceil() as u64;
        budget.clamp(self.min_chunk.min(remaining).max(1), remaining)
    }

    /// Offer every admitted node one chunk: home shard, then the
    /// topology neighbours' shards, then anywhere. A busy node is
    /// offered one too, as greedy offers a busy unit its next piece:
    /// where the engine lets a node hold a chunk queued behind the one
    /// it runs (the cluster tier), that chunk's payload crosses the
    /// link while the node computes; a full node is refused by the
    /// engine.
    fn pump(&mut self, ctx: &mut dyn SchedulerCtx) {
        let n = ctx.pus().len();
        self.ensure_len(n);
        let total = ctx.total_items();
        for i in 0..n {
            let ready = ctx.pus()[i].available && self.admitted.get(i).copied().unwrap_or(false);
            if !ready {
                continue;
            }
            let budget = self.budget_for(i, ctx);
            if budget == 0 {
                continue;
            }
            let (lo, hi) = self.shard_range(i, n, total);
            let mut got = if lo < hi {
                ctx.assign_within(PuId(i), budget, lo, hi)
            } else {
                0
            };
            if got == 0 {
                for nb in self.topology.neighbors(i, n) {
                    let (nlo, nhi) = self.shard_range(nb, n, total);
                    if nlo < nhi {
                        got = ctx.assign_within(PuId(i), budget, nlo, nhi);
                        if got > 0 {
                            break;
                        }
                    }
                }
            }
            if got == 0 {
                ctx.assign(PuId(i), budget);
            }
        }
    }

    /// The acquisition gate for a healed node (mirrors PLB-HeC's
    /// mid-execution join gate at node granularity): admit only when
    /// the remaining work is worth the disturbance — at least a few
    /// chunks' worth — or when no other node could finish it.
    fn gate(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let n = ctx.pus().len();
        self.ensure_len(n);
        let remaining = ctx.remaining_cost();
        let floor = self.min_chunk.saturating_mul(4).max(1);
        let others_alive = ctx.pus().iter().enumerate().any(|(j, p)| {
            j != pu.0 && p.available && self.admitted.get(j).copied().unwrap_or(false)
        });
        if remaining >= floor || (!others_alive && remaining > 0) {
            if let Some(a) = self.admitted.get_mut(pu.0) {
                *a = true;
            }
            ctx.emit_event(
                Some(pu.0),
                EventKind::NodeJoined {
                    remaining_cost: remaining,
                },
            );
            self.pump(ctx);
        } else {
            if let Some(a) = self.admitted.get_mut(pu.0) {
                *a = false;
            }
            ctx.emit_event(Some(pu.0), EventKind::DeviceRestoredIgnored);
        }
    }
}

impl Policy for NodeDiffusionPolicy {
    fn name(&self) -> &str {
        "node-diffusion"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let n = ctx.pus().len();
        self.ensure_len(n);
        let rounds = (n as u64).saturating_mul(32).max(1);
        self.min_chunk = (ctx.total_cost() / rounds).max(1);
        self.pump(ctx);
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        let dur = done.xfer_time + done.proc_time;
        if done.cost > 0 && dur.is_finite() && dur > 0.0 {
            let observed = done.cost as f64 / dur;
            let node = done.pu.0;
            self.ensure_len(node + 1);
            if let Some(slot) = self.rate.get_mut(node) {
                *slot = Some(match *slot {
                    Some(prev) => 0.5 * prev + 0.5 * observed,
                    None => observed,
                });
            }
        }
        self.pump(ctx);
    }

    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, _pu: PuId) {
        // The lost node's range was re-credited before this call; the
        // survivors pick it up through the normal diffusion order.
        self.pump(ctx);
    }

    fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, _failure: &TaskFailure) {
        self.pump(ctx);
    }

    fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.gate(ctx, pu);
    }

    fn on_device_joined(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.gate(ctx, pu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::PuKind;
    use plb_runtime::{PuHandle, TaskId};

    /// Available nodes over a pool of `remaining` cost units of
    /// `total`: refuses every claim and records the budget of each
    /// node's last-resort `assign`, one per node per pump.
    struct Offers {
        pus: Vec<PuHandle>,
        total: u64,
        remaining: u64,
        offered: Vec<(usize, u64)>,
    }

    impl Offers {
        fn new(n: usize, total: u64) -> Offers {
            let pu = |i: usize| PuHandle {
                id: PuId(i),
                name: format!("node{i}"),
                kind: PuKind::Cpu,
                machine: i,
                available: true,
            };
            Offers {
                pus: (0..n).map(pu).collect(),
                total,
                remaining: total,
                offered: Vec::new(),
            }
        }
    }

    impl SchedulerCtx for Offers {
        fn now(&self) -> f64 {
            0.0
        }
        fn pus(&self) -> &[PuHandle] {
            &self.pus
        }
        fn remaining_items(&self) -> u64 {
            self.remaining
        }
        fn total_items(&self) -> u64 {
            self.total
        }
        fn assign(&mut self, pu: PuId, budget: u64) -> u64 {
            self.offered.push((pu.0, budget));
            0
        }
        fn assign_within(&mut self, _pu: PuId, _budget: u64, _lo: u64, _hi: u64) -> u64 {
            0
        }
        fn is_busy(&self, _pu: PuId) -> bool {
            false
        }
        fn any_busy(&self) -> bool {
            false
        }
        fn charge_overhead(&mut self, _seconds: f64) {}
    }

    /// Pins today's fallback for a node with no observed rate: it
    /// counts at 1 cost unit per second against observed rates of
    /// billions, so the first node to finish is offered a quarter of
    /// what remains in one chunk and the others the floor. (The faulted
    /// `sim-cluster` cell shows the same at its first completions.)
    #[test]
    fn a_node_with_no_observed_rate_counts_at_one_cost_unit_per_second() {
        let mut policy = NodeDiffusionPolicy::new(Topology::Ring, vec![250, 500, 750]);
        let mut ctx = Offers::new(4, 1_000_000_000);
        policy.on_start(&mut ctx);
        // No rate known anywhere: an even split, over-partitioned 4×.
        assert_eq!(
            ctx.offered,
            [
                (0, 62_500_000),
                (1, 62_500_000),
                (2, 62_500_000),
                (3, 62_500_000)
            ]
        );

        ctx.offered.clear();
        ctx.remaining = 845_000_000;
        let done = TaskInfo {
            task_id: TaskId(0),
            pu: PuId(3),
            items: 1,
            cost: 33_000_000,
            xfer_time: 0.0,
            proc_time: 0.01,
            start: 0.0,
            finish: 0.01,
        };
        policy.on_task_finished(&mut ctx, &done);
        // Node 3 runs at 3.3e9 cost units/s, the three others count at
        // 1.0: node 3 is offered a quarter of the 845 M left, the others
        // the floor of total / (4 × 32).
        let floor = 7_812_500;
        assert_eq!(
            ctx.offered,
            [(0, floor), (1, floor), (2, floor), (3, 211_250_000)]
        );
    }

    #[test]
    fn shard_ranges_partition_the_item_space() {
        let p = NodeDiffusionPolicy::new(Topology::Full, vec![25, 50, 75]);
        assert_eq!(p.shard_range(0, 4, 100), (0, 25));
        assert_eq!(p.shard_range(1, 4, 100), (25, 50));
        assert_eq!(p.shard_range(3, 4, 100), (75, 100));
        // Missing bounds degrade to empty shards, never to overlap.
        let q = NodeDiffusionPolicy::new(Topology::Full, vec![]);
        assert_eq!(q.shard_range(1, 3, 90), (90, 90));
    }
}
