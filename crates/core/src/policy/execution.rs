//! The execution phase: a unit that finishes a block of the split gets
//! another of the same size, a block that runs away from its model's
//! prediction starts a synchronization drain, and the drain ends in a
//! refit and a re-solve.

use super::{emit_fit, PlbHecPolicy, Unit};
use crate::profile::UnitModel;
use plb_runtime::{EventKind, SchedulerCtx, TaskInfo};

/// A freshly admitted unit that cannot land a block inside the
/// divergence envelope within this many blocks is declared
/// restabilized anyway — continuously drifting incumbents can keep the
/// envelope out of reach through no fault of the newcomer.
const SETTLE_BLOCKS: u32 = 5;

/// Does this completed block's time deviate from its unit's model by
/// more than `threshold`? Returns the `(expected, observed)` pair when
/// it does; a unit outside the split has nothing to deviate from.
///
/// The paper phrases the trigger as a divergence of finishing times
/// between units; since the selection gives every unit the *same*
/// predicted block time, a divergence of finish times is exactly a
/// block running over (or under) its prediction — the machine changed
/// (QoS drift) or the model is off by more than the tolerance, both
/// reasons to refit and re-solve. Checking per block is robust to the
/// startup skew of the pipelined modeling phase, which staggers when
/// units enter the execution phase without any actual imbalance. The
/// curve's domain is cost, so the comparison uses the block's claimed
/// weight, not its item count.
fn divergence(
    unit: &Unit,
    model: &UnitModel,
    done: &TaskInfo,
    threshold: f64,
) -> Option<(f64, f64)> {
    if unit.block == 0 {
        return None;
    }
    let expected = model.total_time(done.cost as f64);
    if !(expected.is_finite() && expected > 0.0) {
        return None;
    }
    let observed = done.total_time();
    ((observed - expected).abs() > threshold * expected).then_some((expected, observed))
}

/// Declare `unit` restabilized, if a watch is armed on it: the one
/// `restabilized` event, counting the re-solves since its admission.
pub(super) fn settle(ctx: &mut dyn SchedulerCtx, pu: usize, unit: &mut Unit, rebalances: usize) {
    if let Some(watch) = unit.watch.take() {
        let rebalances = (rebalances - watch.rebalances_at_join) as u32;
        ctx.emit_event(Some(pu), EventKind::Restabilized { rebalances });
    }
}

impl PlbHecPolicy {
    /// A block of the split finished on `done.pu`.
    pub(super) fn block_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        let pu = done.pu;
        let (Some(unit), Some(model)) = (self.units.get_mut(pu.0), self.models.get(pu.0)) else {
            return;
        };
        // Judged once: the trigger below, the watch, and the book —
        // which keeps the verdict for the next run's first split.
        let diverged = divergence(unit, model, done, self.cfg.rebalance_threshold);
        let surprise = diverged.is_some();
        self.book
            .record(pu.0, done.cost, done.proc_time, done.xfer_time, surprise);
        let pool_dry = ctx.remaining_items() == 0;

        // Restabilization watch: a freshly admitted unit has settled
        // once one of its blocks lands inside the divergence envelope,
        // or after enough blocks that the envelope is evidently
        // unreachable. A drained pool settles every watch: with nothing
        // left to redistribute, whatever split the run ends on is the
        // stable one, and no watch can see another block of its unit.
        if let Some(watch) = unit.watch.as_mut() {
            watch.post_blocks += 1;
            if pool_dry || watch.post_blocks >= SETTLE_BLOCKS || !surprise {
                settle(ctx, pu.0, unit, self.rebalances);
            }
        }
        if pool_dry {
            for (k, other) in self.units.iter_mut().enumerate() {
                settle(ctx, k, other, self.rebalances);
            }
        }
        let round_total = self.round_total;
        debug_assert_eq!(
            round_total,
            self.units.iter().map(|u| u.block).sum::<u64>(),
            "round_total out of step with the units' blocks"
        );

        // A divergence is only actionable while data remains to
        // redistribute; the staggered finishes of the very last blocks
        // (including the shrinking residue-phase blocks) are inherent
        // tail effects, not imbalance. Blocks are cost budgets, so the
        // "one full round left" test compares against the remaining
        // cost.
        if !self.rebalance_pending && ctx.remaining_cost() >= round_total.max(1) {
            if let Some((expected, observed)) = diverged {
                ctx.emit_event(
                    Some(pu.0),
                    EventKind::RebalanceTriggered {
                        trigger: "divergence".to_string(),
                        expected_s: expected,
                        observed_s: observed,
                        divergence: (observed - expected).abs() / expected,
                    },
                );
                self.rebalance_pending = true;
                self.units.iter_mut().for_each(|u| u.extra_granted = false);
            }
        }
        let Some(unit) = self.units.get_mut(pu.0) else {
            return;
        };

        if self.rebalance_pending {
            if ctx.any_busy() {
                // Synchronization drain (Fig. 3): units finishing while
                // others still run get one extra block so they do not
                // idle through the sync.
                if !unit.extra_granted && !pool_dry && unit.block > 0 {
                    unit.extra_granted = true;
                    ctx.assign(pu, unit.block);
                }
                return;
            }
            self.rebalance_pending = false;
            // Nothing to rebalance if the data drained away during the
            // sync.
            if !pool_dry {
                self.rebalances += 1;
                self.refit_models(ctx);
                self.resolve(ctx);
            }
            return;
        }

        // Steady state: another task of the same size — until the pool
        // can no longer cover a full round. The residue is then split
        // by the same fractions (blocks shrink geometrically), so the
        // last tasks finish together instead of one unit dragging a
        // full-size block past everyone else. All in cost units: on an
        // irregular workload a "same-size" block covers however many
        // items add up to the same weight.
        let remaining = ctx.remaining_cost();
        if remaining > 0 && unit.block > 0 {
            let want = if remaining >= round_total {
                unit.block
            } else {
                // Floor at a quarter of the unit's block: tiny residue
                // tasks would drown in dispatch latency.
                let scaled = (unit.fraction * remaining as f64).round() as u64;
                scaled
                    .max(self.cfg.granularity)
                    .max(unit.block / 4)
                    .min(unit.block)
            };
            ctx.assign(pu, want);
        }
    }

    /// Bring every active unit's model up to date with its profile. A
    /// unit that ran nothing since its last fit gets that fit back; on
    /// a failed refit the previous model is kept — stale but valid, the
    /// conservative choice mid-run.
    pub(super) fn refit_models(&mut self, ctx: &mut dyn SchedulerCtx) {
        for (pu, (model, &active)) in self.models.iter_mut().zip(&self.active).enumerate() {
            if !active {
                continue;
            }
            let samples = self.book.samples(pu);
            let refit = self.book.fit(pu, self.cfg.fit_mode).ok();
            let fitted = refit.is_some();
            if let Some(new) = refit {
                *model = new.clone();
            }
            emit_fit(ctx, pu, samples, model, fitted.then_some(true));
        }
    }
}
