//! The policy's side of the probe ladder: issuing a unit's next probe,
//! taking its measurement when it lands, and the one check that ends
//! the modeling phase. The arithmetic and the phase's counters are
//! [`crate::modeling`]'s; a unit admitted mid-execution lands its one
//! probe through the same two functions, and a probe that lands after
//! the phase closed is taken through the second.

use super::{Phase, PlbHecPolicy};
use crate::config::{FitMode, ProbeSchedule};
use crate::modeling::{owes_probes, probe_block, CloseOut, Modeling};
use crate::profile::ProfileBook;
use plb_hetsim::PuId;
use plb_runtime::{EventKind, SchedulerCtx, TaskInfo};

impl PlbHecPolicy {
    /// Open the modeling phase on an empty book: every active unit
    /// steps onto the ladder.
    pub(super) fn start_modeling(&mut self, ctx: &mut dyn SchedulerCtx) {
        self.book = ProfileBook::new(self.active.len());
        self.models.clear();
        // The paper's 20% modeling budget, measured in work (cost
        // units), so a skewed workload doesn't let probing chew through
        // a disproportionate share of the heavy rows.
        let budget = (ctx.total_cost() as f64 * self.cfg.modeling_cap_fraction).ceil() as u64;
        let owing = self.active.iter().filter(|&&a| a).count();
        self.phase = Phase::Modeling(Modeling::new(budget.max(1), owing));
        for pu in 0..self.active.len() {
            if self.active.get(pu) == Some(&true) {
                self.issue_probe(ctx, PuId(pu));
            }
        }
    }

    /// Issue `pu`'s next probe on the ladder. False when the pool had
    /// nothing for it: no probe is then in flight and none is accounted.
    pub(super) fn issue_probe(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) -> bool {
        let Some(unit) = self.units.get_mut(pu.0) else {
            return false;
        };
        let block = probe_block(&self.cfg, unit.step, unit.speed_scale);
        if ctx.assign(pu, block) == 0 {
            return false;
        }
        unit.probe = Some(block);
        if let Phase::Modeling(modeling) = &mut self.phase {
            modeling.issued(block);
        }
        let round = unit.step + 1;
        ctx.emit_event(
            Some(pu.0),
            EventKind::ProbeIssued {
                items: block,
                round,
            },
        );
        true
    }

    /// A probe came back: record the sample and move its unit one rung
    /// up. Pipelined probing: in the modeling phase the unit immediately
    /// gets its next probe until the fit gate passes or the budget is
    /// spent. When none goes out the modeling phase may be over; beside
    /// a running split none ever does: a unit admitted mid-execution is
    /// folded into the split on its one sample, and an active unit — its
    /// probe one of the modeling phase's, landed late — takes its place
    /// in the split.
    pub(super) fn probe_landed(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        let pu = done.pu;
        let (Some(unit), Some(&active)) = (self.units.get_mut(pu.0), self.active.get(pu.0)) else {
            return;
        };
        // A probe has no prediction to leave the band of.
        self.book
            .record(pu.0, done.cost, done.proc_time, done.xfer_time, false);
        let owed = owes_probes(active, unit.step);
        debug_assert!(unit.probe.is_some(), "a completion without a probe");
        unit.probe = None;
        unit.step += 1;
        let another = match &mut self.phase {
            Phase::Modeling(modeling) => {
                modeling.landed();
                modeling.requota(owed, owes_probes(active, unit.step));
                if unit.step == 1 {
                    // Every schedule pins `t_f`; one rescales to it.
                    let scale = modeling.rescale(done.proc_time + done.xfer_time);
                    if self.cfg.probe_schedule == ProbeSchedule::ExponentialRescaled {
                        unit.speed_scale = scale.unwrap_or(unit.speed_scale);
                    }
                }
                active
                    && !modeling.spent()
                    && !modeling.gate_passes(&self.active, &mut self.book, self.cfg.r2_threshold)
            }
            Phase::Executing => false,
        };
        if another && self.issue_probe(ctx, pu) {
            return;
        }
        match self.phase {
            // This unit idles briefly while the others complete their
            // probe quotas — unless it was the last.
            Phase::Modeling(_) => self.close_modeling_if_due(ctx),
            Phase::Executing if active => self.late_probe_landed(ctx, pu),
            Phase::Executing => self.fold(ctx, pu),
        }
    }

    /// The one close-out of the modeling phase, asked after anything
    /// that can end it — a probe landed and none went out, a unit was
    /// lost, a probe's block returned to the pool. Every unit leaves
    /// with a model, active or not, in the family its samples afford: a
    /// best-subset fit from a full ladder, an affine one from two or
    /// three samples, the mean rate of one. A unit still on its first
    /// probe is modelled by nothing yet: it is not announced, and it
    /// joins the split when the probe lands.
    pub(super) fn close_modeling_if_due(&mut self, ctx: &mut dyn SchedulerCtx) {
        let Phase::Modeling(modeling) = &self.phase else {
            return;
        };
        debug_assert!(
            modeling.counts_match(
                self.units.iter().filter(|u| u.probe.is_some()).count(),
                (self.units.iter().zip(&self.active))
                    .filter(|(u, &active)| owes_probes(active, u.step))
                    .count()
            ),
            "modeling counters out of step with the units' probes and steps"
        );
        let (active, book, threshold) = (&self.active, &mut self.book, self.cfg.r2_threshold);
        let gate = || modeling.gate_passes(active, book, threshold);
        if modeling.close_out(ctx.any_busy(), gate) == CloseOut::KeepProbing {
            return;
        }
        let items_used = modeling.items_used();
        // The gate judges the best-subset fit whatever `fit_mode` says,
        // and those are the curves the first split runs on; the
        // configured family applies from the first refit.
        let models: Vec<_> = (0..self.units.len())
            .map(|pu| self.book.model(pu, FitMode::BestSubset))
            .collect();
        let fitted: Vec<bool> = (0..models.len())
            .map(|pu| !self.on_first_probe(pu))
            .collect();
        self.enter_execution(ctx, models, &fitted, Some(items_used));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyConfig;
    use crate::policy::tests::MockCtx;
    use plb_runtime::Policy;

    /// Enough data that the 20 % cap never binds.
    const AMPLE: u64 = 1 << 40;

    fn cfg(initial_block: u64, r2_threshold: f64) -> PolicyConfig {
        PolicyConfig {
            initial_block,
            r2_threshold,
            ..Default::default()
        }
    }

    fn start(n_pus: usize, cfg: &PolicyConfig, total: u64) -> (PlbHecPolicy, MockCtx) {
        let mut ctx = MockCtx::new(n_pus, total);
        let mut policy = PlbHecPolicy::new(cfg);
        policy.on_start(&mut ctx);
        (policy, ctx)
    }

    /// `pu`'s block completes at `rate` cost units per second; returns
    /// the unit's next block, if the policy gave it one.
    fn land(policy: &mut PlbHecPolicy, ctx: &mut MockCtx, pu: usize, rate: f64) -> Option<u64> {
        let done = ctx.finish(pu, rate);
        ctx.take_assigned();
        policy.on_task_finished(ctx, &done);
        let next = ctx.take_assigned();
        next.iter()
            .find(|&&(to, _)| to == pu)
            .map(|&(_, block)| block)
    }

    fn modeling(policy: &PlbHecPolicy) -> bool {
        matches!(policy.phase, Phase::Modeling(_))
    }

    /// Land every unit's block, round after round, while the modeling
    /// phase lasts.
    fn drive(policy: &mut PlbHecPolicy, ctx: &mut MockCtx, rates: &[f64]) {
        for _ in 0..20 {
            for (pu, &rate) in rates.iter().enumerate() {
                if modeling(policy) && ctx.running[pu].is_some() {
                    land(policy, ctx, pu, rate);
                }
            }
        }
    }

    #[test]
    fn initial_probes_uniform() {
        let (policy, mut ctx) = start(3, &cfg(100, 0.7), AMPLE);
        assert_eq!(ctx.take_assigned(), [(0, 100), (1, 100), (2, 100)]);
        let issued: Vec<_> = (0..3).map(|pu| (Some(pu), "probe_issued")).collect();
        assert_eq!(ctx.take_events(), issued);
        let Phase::Modeling(m) = &policy.phase else {
            panic!("modeling has begun");
        };
        assert!(m.counts_match(3, 3));
        assert_eq!(m.items_used(), 300);
    }

    #[test]
    fn first_finisher_sets_t_f_and_gets_full_multiplier() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        // Unit 1 (fast) finishes first: next probe is the full 2x.
        assert_eq!(land(&mut policy, &mut ctx, 1, 4e5), Some(2000));
        // Unit 0 (4x slower) then gets a rescaled 2x probe.
        let next = land(&mut policy, &mut ctx, 0, 1e5).expect("the slow unit probes on");
        assert!(
            next < 2000,
            "slow unit must get a smaller probe, got {next}"
        );
        assert!(next >= 400, "rescale ≈ t_f/t_k ≈ 1/4, got {next}");
    }

    #[test]
    fn equal_schedule_skips_rescale() {
        let equal = PolicyConfig {
            probe_schedule: ProbeSchedule::ExponentialEqual,
            ..cfg(1000, 0.7)
        };
        let (mut policy, mut ctx) = start(2, &equal, AMPLE);
        land(&mut policy, &mut ctx, 1, 4e5);
        let next_slow = land(&mut policy, &mut ctx, 0, 1e5);
        assert_eq!(next_slow, Some(2000), "equal schedule must not rescale");
    }

    #[test]
    fn granularity_respected() {
        let coarse = PolicyConfig {
            granularity: 64,
            ..cfg(100, 0.7)
        };
        let (_, mut ctx) = start(1, &coarse, AMPLE);
        assert_eq!(ctx.take_assigned(), [(0, 128)]);
    }

    #[test]
    fn pipelined_probing_needs_no_barrier() {
        // The fast unit runs through its whole ladder (and beyond, with
        // extra probes) while the slow unit is still on probe 1 — no
        // waiting.
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        for _ in 0..4 {
            land(&mut policy, &mut ctx, 1, 4e5).expect("fast unit keeps probing");
        }
        assert_eq!(policy.units[1].step, 4);
        assert_eq!(policy.units[0].step, 0);
        assert!(modeling(&policy));
    }

    #[test]
    fn completes_when_all_units_have_quota_and_fits_pass() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        drive(&mut policy, &mut ctx, &[1e5, 3e5]);
        assert!(!modeling(&policy), "should have completed");
        assert_eq!(policy.models.len(), 2);
        for m in &policy.models {
            assert!(m.min_r2() >= 0.7);
        }
        let predicted = policy.models[1].total_time(10_000.0);
        let actual = 1e-3 + 10_000.0 / 3e5 + 1e-4;
        assert!((predicted - actual).abs() / actual < 0.1);
        // The phase handed over in one piece: a fit per unit, its
        // close, the first split, a block on each unit.
        let events = ctx.take_events();
        let tail: Vec<&str> = events.iter().rev().take(1).map(|&(_, n)| n).collect();
        assert_eq!(tail, ["block_solve"]);
        assert_eq!(events.iter().filter(|e| e.1 == "curve_fit").count(), 2);
        assert_eq!(events.iter().filter(|e| e.1 == "modeling_done").count(), 1);
        assert!(ctx.running.iter().all(Option::is_some));
    }

    /// Kernel times no curve explains.
    const NOISY: [f64; 7] = [0.5, 3.0, 0.2, 5.0, 1.0, 2.0, 0.7];

    fn land_noisy(policy: &mut PlbHecPolicy, ctx: &mut MockCtx, i: usize) -> Option<u64> {
        let done = ctx.finish_timed(0, |_| (NOISY[i % NOISY.len()], 0.0));
        ctx.take_assigned();
        policy.on_task_finished(ctx, &done);
        ctx.take_assigned().first().map(|&(_, block)| block)
    }

    #[test]
    fn budget_cap_forces_completion() {
        // 20 % of 175 cost units: a budget of 35. The noisy device
        // defeats the R² gate; the budget must end probing.
        let (mut policy, mut ctx) = start(1, &cfg(10, 0.999999), 175);
        let mut landed = 0;
        while modeling(&policy) {
            land_noisy(&mut policy, &mut ctx, landed);
            landed += 1;
            assert!(landed < 20, "budget never exhausted");
        }
        let used = ctx.events.iter().find_map(|(_, kind)| match kind {
            EventKind::ModelingDone { items_used } => Some(*items_used),
            _ => None,
        });
        assert!(used.expect("the phase closed") >= 35);
    }

    #[test]
    fn extra_probes_cap_at_eight_x() {
        let (mut policy, mut ctx) = start(1, &cfg(10, 0.999999), AMPLE);
        for i in 0..NOISY.len() {
            let next = land_noisy(&mut policy, &mut ctx, i).expect("the gate never passes");
            assert!(next <= 80, "probe {i} exceeded 8x cap: {next}");
        }
    }

    #[test]
    fn every_unit_leaves_the_phase_with_a_model() {
        // One sample each and a dry pool: no curve fits, the mean rate
        // has to do.
        let (mut policy, mut ctx) = start(2, &cfg(10, 0.7), 20);
        for pu in 0..2 {
            let done = ctx.finish_timed(pu, |_| (0.5, 0.0));
            policy.on_task_finished(&mut ctx, &done);
        }
        assert!(!modeling(&policy));
        assert_eq!(policy.models.len(), 2);
        assert!((policy.models[0].total_time(100.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn phase_waits_for_outstanding_probes() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.0), AMPLE);
        // Unit 1 completes its quota but keeps receiving extra probes
        // because unit 0 hasn't finished: the phase cannot end while
        // probes are in flight.
        for _ in 0..4 {
            land(&mut policy, &mut ctx, 1, 1e5).expect("extra probes issued");
        }
        // Unit 0 lands its quota; after its last probe the gate passes
        // and it gets no other, but unit 1's extra probe is still flying.
        while land(&mut policy, &mut ctx, 0, 1e4).is_some() {}
        assert_eq!(policy.units[0].step, 4);
        assert!(modeling(&policy), "probe still in flight");
        // The flying probe lands: now the phase can complete.
        let done = ctx.finish(1, 1e5);
        policy.on_task_finished(&mut ctx, &done);
        assert!(!modeling(&policy));
        assert_eq!(policy.units[1].step, 5);
    }

    /// The driver's side of losing `pu`: its block goes back to the
    /// pool and its handle is marked, then the hook fires.
    fn lose(policy: &mut PlbHecPolicy, ctx: &mut MockCtx, pu: usize) {
        if ctx.running[pu].is_some() {
            ctx.drop_task(pu);
        }
        ctx.pus[pu].available = false;
        policy.on_device_lost(ctx, PuId(pu));
    }

    #[test]
    fn lost_unit_excluded_from_gate() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        lose(&mut policy, &mut ctx, 0);
        assert!(modeling(&policy));
        drive(&mut policy, &mut ctx, &[1e5, 1e5]);
        assert!(!modeling(&policy), "the survivor's quota closes the phase");
        assert_eq!(policy.units[0].block, 0);
    }

    #[test]
    fn lost_probe_returns_its_budget_and_is_cancelled_once() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        land(&mut policy, &mut ctx, 0, 1e5);
        let used = |policy: &PlbHecPolicy| match &policy.phase {
            Phase::Modeling(m) => (m.items_used(), m.counts_match(1, 1)),
            Phase::Executing => panic!("still modeling"),
        };
        assert_eq!(used(&policy).0, 4000, "1000 + 1000, and unit 0's 2000");
        // A quarantine: the block is back in the pool, the unit is
        // lost, and then the block's failure is reported as well.
        let failure = ctx.drop_task(0);
        ctx.pus[0].available = false;
        policy.on_device_lost(&mut ctx, PuId(0));
        assert_eq!(used(&policy), (2000, true));
        policy.on_task_failed(&mut ctx, &failure);
        assert_eq!(used(&policy), (2000, true));
    }

    fn split_sums_to_one(policy: &PlbHecPolicy) {
        let shares = policy.block_distribution().expect("a split is in force");
        assert!(
            (shares.iter().sum::<f64>() - 1.0).abs() < 1e-12,
            "{shares:?}"
        );
    }

    #[test]
    fn the_cap_closes_at_the_next_landing_and_a_first_probe_joins_when_it_lands() {
        // 20 % of 20 000: unit 2's second probe spends the budget, and
        // its landing closes the phase with units 0 and 1 on their
        // first probes.
        let (mut policy, mut ctx) = start(3, &cfg(1000, 0.7), 20_000);
        assert_eq!(land(&mut policy, &mut ctx, 2, 4e5), Some(2000));
        ctx.take_events();
        let alone = land(&mut policy, &mut ctx, 2, 4e5).expect("unit 2 runs the split");
        assert!(!modeling(&policy));
        assert_eq!(
            ctx.take_events(),
            [
                (Some(2), "curve_fit"),
                (None, "modeling_done"),
                (None, "block_solve")
            ],
            "a unit with no sample is neither fitted nor in the split"
        );
        assert_eq!(policy.models[2].f.basis().describe(), "a0*1 + a1*x");
        assert_eq!((policy.units[0].block, policy.units[2].block), (0, alone));
        split_sums_to_one(&policy);

        // Unit 0's first probe lands: one sample, the mean rate, and a
        // block of E⁻¹(T) — no re-solve.
        let t = policy.split_time;
        let block = land(&mut policy, &mut ctx, 0, 1e5).expect("unit 0 joins");
        assert_eq!(ctx.take_events(), [(Some(0), "curve_fit")]);
        assert_eq!(policy.units[0].block, block);
        let model = &policy.models[0];
        let per_item = model.total_time(1.0);
        assert!((model.total_time(block as f64) - t).abs() <= per_item);
        assert!(block <= 2 * 1000);
        assert_eq!(policy.units[2].block, alone, "nobody else moved");
        split_sums_to_one(&policy);
    }

    #[test]
    fn a_unit_lost_after_the_cap_takes_nobody_elses_probe() {
        let (mut policy, mut ctx) = start(3, &cfg(1000, 0.7), 20_000);
        land(&mut policy, &mut ctx, 2, 4e5);
        land(&mut policy, &mut ctx, 2, 4e5).expect("the cap closed the phase");
        // The only unit in the split is lost: units 0 and 1 keep their
        // probes, and each joins the split when its probe lands.
        lose(&mut policy, &mut ctx, 2);
        assert!(policy.units[0].probe.is_some() && policy.units[1].probe.is_some());
        for pu in 0..2 {
            assert!(land(&mut policy, &mut ctx, pu, 1e5).is_some(), "unit {pu}");
            assert_eq!(policy.book.samples(pu), 1);
        }
        assert_eq!(policy.units[2].block, 0);
        split_sums_to_one(&policy);
    }

    #[test]
    fn a_late_probe_that_lands_last_ends_the_drain() {
        // 20 % of 20 000 again, probes from 100: units 1 and 2 walk
        // their ladders while unit 0 is on its first probe, and unit 2's
        // fifth probe spends the budget. Unit 1's fifth landing closes
        // the phase; unit 2's lands late.
        let (mut policy, mut ctx) = start(3, &cfg(100, 0.7), 20_000);
        for _ in 0..4 {
            land(&mut policy, &mut ctx, 1, 4e5);
            land(&mut policy, &mut ctx, 2, 4e5);
        }
        assert!(modeling(&policy));
        land(&mut policy, &mut ctx, 1, 4e5).expect("unit 1 runs the split");
        assert!(!modeling(&policy));
        assert!(policy.units[2].probe.is_some() && policy.units[0].probe.is_some());

        // Unit 1's block runs three times over a model fitted from a
        // full ladder: the paper's drain. Every completion but the last
        // finds a unit still busy.
        let slow = ctx.finish_timed(1, |cost| (3.0 * (1e-3 + cost as f64 / 4e5), 1e-4));
        policy.on_task_finished(&mut ctx, &slow);
        assert!(policy.rebalance_pending);
        land(&mut policy, &mut ctx, 2, 4e5).expect("its extra block");
        land(&mut policy, &mut ctx, 1, 4e5);
        land(&mut policy, &mut ctx, 2, 4e5);
        assert!(policy.rebalance_pending && ctx.any_busy());
        ctx.take_events();
        // The last busy unit was on its first probe: it joins the split,
        // and its landing ends the drain in a refit and a re-solve.
        land(&mut policy, &mut ctx, 0, 1e5);
        assert!(!policy.rebalance_pending);
        assert_eq!(policy.rebalances(), 1);
        let events = ctx.take_events();
        assert_eq!(events.first(), Some(&(Some(0), "curve_fit")));
        assert_eq!(events.last(), Some(&(None, "block_solve")));
        assert!(ctx.running.iter().all(Option::is_some), "{:?}", ctx.running);
        split_sums_to_one(&policy);
    }

    #[test]
    fn retries_exhausted_cancels_the_probe_and_keeps_the_unit() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        let failure = ctx.drop_task(0);
        policy.on_task_failed(&mut ctx, &failure);
        assert!(policy.active[0], "no quarantine: the unit stays");
        assert_eq!(policy.units[0].probe, None);
        // It still owes its probes and is offered none, so the other
        // unit probes on; when the pool runs dry the phase is forced
        // shut on what there is.
        for _ in 0..6 {
            land(&mut policy, &mut ctx, 1, 1e5).expect("the gate waits for unit 0");
        }
        ctx.remaining = 0;
        assert_eq!(land(&mut policy, &mut ctx, 1, 1e5), None);
        assert!(
            !modeling(&policy),
            "forced: nothing in flight, nothing to issue"
        );
    }

    #[test]
    fn losing_every_unit_closes_the_phase_without_a_solve() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        lose(&mut policy, &mut ctx, 0);
        ctx.take_events();
        lose(&mut policy, &mut ctx, 1);
        assert!(!modeling(&policy));
        assert_eq!(ctx.take_events(), [(None, "modeling_done")]);
        assert!(policy.selections().is_empty());
    }

    #[test]
    fn admitted_unit_rejoins_the_probe_pipeline() {
        let mut ctx = MockCtx::new(2, AMPLE);
        // Unit 0 never starts (latent join target).
        ctx.pus[0].available = false;
        let mut policy = PlbHecPolicy::new(&cfg(1000, 0.7));
        policy.on_start(&mut ctx);
        assert_eq!(ctx.take_assigned(), [(1, 1000)]);
        land(&mut policy, &mut ctx, 1, 1e5);
        land(&mut policy, &mut ctx, 1, 1e5);
        // The unit joins mid-phase: it gets a fresh initial probe, and
        // the gate now waits for its quota as well.
        ctx.pus[0].available = true;
        ctx.take_events();
        policy.on_device_joined(&mut ctx, PuId(0));
        assert_eq!(ctx.take_assigned(), [(0, 1000)]);
        assert_eq!(ctx.take_events(), [(Some(0), "probe_issued")]);
        assert!(policy.active[0]);
        drive(&mut policy, &mut ctx, &[2e5, 1e5]);
        assert!(!modeling(&policy));
        assert!(policy.units[0].step >= 4);
        assert!(
            policy.units[0].watch.is_some(),
            "dormant until its first blocks"
        );
    }

    #[test]
    fn restored_unit_walks_on_from_where_it_was() {
        let (mut policy, mut ctx) = start(2, &cfg(1000, 0.7), AMPLE);
        land(&mut policy, &mut ctx, 1, 4e5);
        let second = land(&mut policy, &mut ctx, 0, 1e5).expect("a rescaled second probe");
        lose(&mut policy, &mut ctx, 0);
        assert!(!policy.active[0]);
        // Restored: its sample is kept, and so is its place on the
        // ladder — the probe that died goes out again.
        ctx.pus[0].available = true;
        policy.on_device_restored(&mut ctx, PuId(0));
        assert!(policy.active[0]);
        assert_eq!(ctx.take_assigned(), [(0, second)]);
        assert_eq!(policy.book.samples(0), 1);
        drive(&mut policy, &mut ctx, &[1e5, 4e5]);
        assert!(!modeling(&policy));
        assert!(policy.units[0].block > 0, "back in the split");
    }
}
