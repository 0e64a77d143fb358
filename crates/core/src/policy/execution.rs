//! The execution phase: a unit that finishes a block of the split gets
//! another of the same size, a block that runs away from its model's
//! prediction starts a synchronization drain, and the drain ends in a
//! refit and a re-solve. A unit on a partial model — one fitted from
//! less than a full ladder of samples — is re-sized alone instead, and
//! so is a unit whose first probe lands after the modeling phase closed.

use super::{arm_deadline, emit_fit, PlbHecPolicy, Unit};
use crate::modeling::round_to_granularity;
use crate::profile::{UnitModel, REACH};
use plb_hetsim::PuId;
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
/// `restabilized` event, counting the re-solves since its admission,
/// and one fewer of the policy's `armed` watches.
pub(super) fn settle(
    ctx: &mut dyn SchedulerCtx,
    pu: usize,
    unit: &mut Unit,
    armed: &mut usize,
    rebalances: usize,
) {
    if let Some(watch) = unit.watch.take() {
        *armed -= 1;
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
        // A surprise on a partial model re-sizes its unit alone; on a
        // model fitted from a full ladder it calls the rebalance.
        let partial = model.is_partial();
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
                settle(ctx, pu.0, unit, &mut self.armed_watches, self.rebalances);
            }
        }
        if pool_dry && self.armed_watches > 0 {
            for (k, other) in self.units.iter_mut().enumerate() {
                settle(ctx, k, other, &mut self.armed_watches, self.rebalances);
            }
        }
        let round_total = self.round_total;
        debug_assert_eq!(
            round_total,
            self.units.iter().map(|u| u.block).sum::<u64>(),
            "round_total out of step with the units' blocks"
        );
        debug_assert_eq!(
            self.armed_watches,
            self.units.iter().filter(|u| u.watch.is_some()).count(),
            "armed_watches out of step with the units' watches"
        );

        // A divergence is only actionable while data remains to
        // redistribute; the staggered finishes of the very last blocks
        // (including the shrinking residue-phase blocks) are inherent
        // tail effects, not imbalance. Blocks are cost budgets, so the
        // "one full round left" test compares against the remaining
        // cost.
        if !self.rebalance_pending && ctx.remaining_cost() >= round_total.max(1) {
            match diverged {
                None => {}
                Some(_) if partial => self.size_alone(ctx, pu),
                Some((expected, observed)) => {
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
        }
        self.next_block(ctx, pu);
    }

    /// A probe of the modeling phase landed after the phase closed on
    /// its data cap (`probe_landed` has recorded it, with no divergence
    /// check: a probe has no prediction to miss). A unit that was on its
    /// first probe has no place in the split yet and joins it now, sized
    /// alone; either way the unit then carries on as any unit of the
    /// split whose block finished.
    pub(super) fn late_probe_landed(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        if self.units.get(pu.0).is_some_and(|u| u.block == 0) {
            self.size_alone(ctx, pu);
        }
        self.next_block(ctx, pu);
    }

    /// Fit `pu` in the family its samples afford and size its block at
    /// the split's predicted block time `T`: `x = E⁻¹(T)`, clipped to
    /// [granularity, [`REACH`] × the largest block it has measured]. No
    /// re-solve and no drain: every other unit keeps its block.
    fn size_alone(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let samples = self.book.samples(pu.0);
        let model = self.book.model(pu.0, self.cfg.fit_mode);
        let accepted = model.min_r2() >= self.cfg.r2_threshold;
        emit_fit(ctx, pu.0, samples, &model, Some(accepted));
        let lo = self.cfg.granularity.max(1) as f64;
        let hi = (REACH * self.book.largest_block(pu.0)).max(lo);
        let from = self.units.get(pu.0).map_or(lo, |u| u.block as f64);
        let x = model.invert(self.split_time, lo, hi, from);
        let block = round_to_granularity(x, self.cfg.granularity);
        arm_deadline(ctx, pu, &model, block);
        if let Some(slot) = self.models.get_mut(pu.0) {
            *slot = model;
        }
        self.set_block(pu, block);
    }

    /// `pu` is idle with a place in the split: in a synchronization
    /// drain it gets its one extra block, or, the last to finish, ends
    /// the drain; otherwise it gets its next block.
    fn next_block(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let pool_dry = ctx.remaining_items() == 0;
        let round_total = self.round_total;
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

    /// Bring every active unit's model up to date with its profile, in
    /// the family its samples afford. A unit that ran nothing since its
    /// last fit gets that fit back; on a failed refit, or samples that
    /// afford no curve, the previous model is kept — stale but valid,
    /// the conservative choice mid-run.
    pub(super) fn refit_models(&mut self, ctx: &mut dyn SchedulerCtx) {
        for (pu, (model, &active)) in self.models.iter_mut().zip(&self.active).enumerate() {
            if !active {
                continue;
            }
            let samples = self.book.samples(pu);
            let family = self.book.family(pu, self.cfg.fit_mode);
            let refit = family.and_then(|family| self.book.fit(pu, family).ok());
            let fitted = refit.is_some();
            if let Some(new) = refit {
                *model = new.clone();
            }
            emit_fit(ctx, pu, samples, model, fitted.then_some(true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FitMode, PolicyConfig};
    use crate::policy::tests::MockCtx;
    use crate::policy::Phase;
    use crate::profile::{PerfProfile, ProfileBook};
    use plb_runtime::Policy;

    /// A profile of blocks of these sizes on a device running `rate`
    /// cost units a second after a millisecond of overhead.
    fn profile(blocks: &[u64], rate: f64) -> PerfProfile {
        let mut p = PerfProfile::new();
        for &x in blocks {
            p.record(x, 1e-3 + x as f64 / rate, 1e-4);
        }
        p
    }

    /// A policy whose split over these profiles is in force, each unit
    /// on the model its samples afford and running its block.
    fn executing(profiles: Vec<PerfProfile>, total: u64) -> (PlbHecPolicy, MockCtx) {
        let n = profiles.len();
        let mut policy = PlbHecPolicy::new(&PolicyConfig::default());
        let mut ctx = MockCtx::new(n, total);
        policy.active = vec![true; n];
        policy.units = (0..n).map(|_| Unit::idle()).collect();
        policy.book = ProfileBook::from_profiles(profiles);
        policy.models = (0..n)
            .map(|pu| policy.book.model(pu, FitMode::BestSubset))
            .collect();
        policy.phase = Phase::Executing;
        policy.resolve(&mut ctx);
        assert!(ctx.running.iter().all(Option::is_some));
        ctx.take_events();
        ctx.take_assigned();
        (policy, ctx)
    }

    #[test]
    fn the_inversion_is_capped_at_twice_the_largest_measured_block() {
        let ladder = profile(&[100, 200, 400, 800], 1e5);
        let mut flat = PerfProfile::new();
        flat.record(1000, 0.0100, 0.0);
        flat.record(904, 0.0099, 0.0);
        // Two points 96 items and 0.1 ms apart: the affine fit is all
        // but flat, and its inverse at 49 ms is a block of 38 440. Too
        // bunched to afford a slope, they get the mean rate, whose
        // inverse is still 4 687.
        let affine = flat.fit_with(FitMode::LinearOnly).unwrap();
        let uncapped = affine.invert(0.049, 1.0, f64::INFINITY, 1.0);
        assert!((uncapped - 38_440.0).abs() < 1.0, "{uncapped}");
        let (mut policy, mut ctx) = executing(vec![ladder, flat], 10_000_000);
        policy.split_time = 0.049;
        let mean_rate = policy.models[1].invert(0.049, 1.0, f64::INFINITY, 1.0);
        assert!((mean_rate - 4_687.0).abs() < 1.0, "{mean_rate}");
        policy.size_alone(&mut ctx, PuId(1));
        assert_eq!(policy.units[1].block, 2 * 1000);
    }

    /// Unit 1's block lands half again slower than its model said.
    fn surprise(unit_1: PerfProfile) -> (PlbHecPolicy, MockCtx, u64) {
        let ladder = profile(&[100, 200, 400, 800], 1e5);
        let (mut policy, mut ctx) = executing(vec![ladder, unit_1], 10_000_000);
        let before = policy.units[0].block;
        let model = policy.models[1].clone();
        let late = ctx.finish_timed(1, |cost| (1.5 * model.total_time(cost as f64), 0.0));
        policy.on_task_finished(&mut ctx, &late);
        (policy, ctx, before)
    }

    #[test]
    fn a_surprise_on_a_partial_model_resizes_that_unit_alone() {
        let (policy, mut ctx, unit_0) = surprise(profile(&[100, 200], 2e5));
        assert_eq!(
            ctx.take_events(),
            [(Some(1), "curve_fit")],
            "no drain, no re-solve"
        );
        assert!(!policy.rebalance_pending);
        assert_eq!(policy.units[0].block, unit_0, "unit 0 keeps its block");
        let block = policy.units[1].block;
        assert_eq!(ctx.take_assigned(), [(1, block)]);
        assert_eq!(policy.book.samples(1), 3);
        assert_eq!(policy.models[1].f.n_samples(), 3, "refitted, affine");
        let t = policy.models[1].total_time(block as f64);
        assert!(
            (t - policy.split_time).abs() < 1e-4,
            "{t} vs {}",
            policy.split_time
        );
        let shares = policy.block_distribution().expect("a split is in force");
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_same_surprise_on_a_full_model_drains() {
        let (policy, mut ctx, _) = surprise(profile(&[100, 200, 400, 800], 2e5));
        assert_eq!(ctx.take_events(), [(Some(1), "rebalance_triggered")]);
        assert!(policy.rebalance_pending);
    }
}
