//! A changing unit set: a unit is lost, a unit becomes available
//! (restored after a quarantine, or never seen before), and what each
//! does to the probes in flight and to the split in force.

use super::execution::settle;
use super::{emit_fit, JoinWatch, Phase, PlbHecPolicy};
use crate::modeling::{owes_probes, probe_block};
use plb_hetsim::PuId;
use plb_runtime::{EventKind, SchedulerCtx};

impl PlbHecPolicy {
    /// The one writer of `active` once the run is under way: in the
    /// modeling phase the count of units that owe probes moves with it.
    fn set_active(&mut self, pu: PuId, on: bool) {
        let (Some(unit), Some(active)) = (self.units.get(pu.0), self.active.get_mut(pu.0)) else {
            return;
        };
        if let Phase::Modeling(modeling) = &mut self.phase {
            modeling.requota(owes_probes(*active, unit.step), owes_probes(on, unit.step));
        }
        *active = on;
    }

    /// `pu`'s probe in flight, if it has one, will never land: its unit
    /// is gone or its block went back to the pool. Only the unit's own
    /// probe can be cancelled, and only once.
    pub(super) fn cancel_probe(&mut self, pu: PuId) {
        let Some(cost) = self.units.get_mut(pu.0).and_then(|u| u.probe.take()) else {
            return;
        };
        if let Phase::Modeling(modeling) = &mut self.phase {
            modeling.cancelled(cost);
        }
    }

    /// `pu` is gone, with its probe, its watch and its block. The
    /// modeling phase may be over without it; a running split is
    /// re-solved over the survivors with their existing models (the
    /// paper's fault-tolerance sketch, Section VI).
    pub(super) fn unit_lost(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.set_active(pu, false);
        self.cancel_probe(pu);
        let Some(unit) = self.units.get_mut(pu.0) else {
            return;
        };
        unit.watch = None;
        let had_block = unit.block > 0;
        match self.phase {
            Phase::Modeling(_) => self.close_modeling_if_due(ctx),
            Phase::Executing => {
                // Out of the split even when nobody is left to re-solve
                // over: the units on their first probe join a split
                // whose shares are the survivors'.
                if had_block {
                    self.set_block(pu, 0);
                }
                self.unit_set_changed(ctx, pu, "device-lost");
            }
        }
    }

    /// The active set changed under a running split: re-solve over
    /// whoever is in it now. False when there is nothing to re-solve —
    /// the pool is dry, or no unit is left.
    fn unit_set_changed(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId, trigger: &str) -> bool {
        if ctx.remaining_items() == 0 || !self.active.contains(&true) {
            return false;
        }
        ctx.emit_event(
            Some(pu.0),
            EventKind::RebalanceTriggered {
                trigger: trigger.to_string(),
                expected_s: 0.0,
                observed_s: 0.0,
                divergence: 0.0,
            },
        );
        self.rebalances += 1;
        self.resolve(ctx);
        true
    }

    /// The one admission: `pu` became available, restored after a
    /// quarantine or never seen before. In the modeling phase it goes
    /// onto the ladder with everyone else — back where it was, with its
    /// samples, if it had been there — and no gate is asked: probing is
    /// what that phase spends its budget on anyway. Beside a running
    /// split, a unit the book has samples of still has a model that
    /// holds and goes straight back in; a unit nothing is known about
    /// lands one probe first, and only when the acquisition gate says
    /// the probe pays off. A declined unit idles; the breadcrumb says
    /// why.
    pub(super) fn admit(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        if self.active.get(pu.0) != Some(&false) {
            return;
        }
        let modeling = matches!(self.phase, Phase::Modeling(_));
        if !modeling && self.book.samples(pu.0) > 0 {
            self.set_active(pu, true);
            self.unit_set_changed(ctx, pu, "device-restored");
            return;
        }
        let admitted = (modeling || self.join_pays_off(ctx.remaining_cost()))
            && self.start_ladder(ctx, pu, modeling);
        if !admitted {
            self.decline(ctx, pu);
        }
    }

    fn decline(&self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        ctx.emit_event(Some(pu.0), EventKind::DeviceRestoredIgnored);
    }

    /// Issue `pu` its next probe on the ladder: the first rung for a
    /// newcomer, the one it was lost on for a unit that comes back. In
    /// the modeling phase it counts as active from here on, with a
    /// watch that stays dormant until its first blocks of the split;
    /// beside a running split it stays out of `active` — and thus out
    /// of any concurrent re-solve — until its probe lands and
    /// [`fold`](Self::fold) flips it in. False, with nothing changed,
    /// when the pool has no probe left for it.
    fn start_ladder(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId, modeling: bool) -> bool {
        if !modeling {
            return self.issue_probe(ctx, pu);
        }
        self.set_active(pu, true);
        if self.issue_probe(ctx, pu) {
            self.arm_watch(pu);
            return true;
        }
        self.set_active(pu, false);
        false
    }

    fn arm_watch(&mut self, pu: PuId) {
        if let Some(unit) = self.units.get_mut(pu.0) {
            unit.watch = Some(JoinWatch {
                rebalances_at_join: self.rebalances,
                post_blocks: 0,
            });
        }
    }

    /// The acquisition gate: let a unit probe beside a running split
    /// only when the modeled makespan payoff on the remaining work (cost
    /// units) exceeds the one probe it must sink before it can
    /// contribute.
    ///
    /// The payoff is priced optimistically — the newcomer is assumed as
    /// fast as the fastest incumbent (its actual speed is unknown, that
    /// is what the probe is for). Even under that best case, a join
    /// near the end of the run costs more probe work than the extra
    /// rate can recover; declining keeps the tail undisturbed.
    fn join_pays_off(&self, remaining: u64) -> bool {
        let probe_cost = probe_block(&self.cfg, 0, 1.0);
        if remaining <= probe_cost.saturating_mul(2) {
            return false;
        }
        let mut total_rate = 0.0f64;
        let mut max_rate = 0.0f64;
        let incumbents = self.models.iter().zip(&self.units).zip(&self.active);
        for ((model, unit), _) in incumbents.filter(|&(_, &active)| active) {
            let x = match unit.block {
                0 => self.cfg.initial_block as f64,
                block => block as f64,
            };
            let t = model.total_time(x);
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

    /// `pu`'s probe landed beside a running split: model it in the
    /// family its samples afford — one sample gives the mean rate — and
    /// fold it in: re-solve over the full active set (warm-started like
    /// any other rebalance) and arm the restabilization watch. From then
    /// on the unit is on a partial model, and a surprise re-sizes it
    /// alone until it has a full ladder of samples.
    pub(super) fn fold(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        let samples = self.book.samples(pu.0);
        let Some(slot) = self.models.get_mut(pu.0).filter(|_| samples > 0) else {
            // The probe measured nothing: nothing to solve against, the
            // unit sits back out.
            self.decline(ctx, pu);
            return;
        };
        let model = self.book.model(pu.0, self.cfg.fit_mode);
        let accepted = model.min_r2() >= self.cfg.r2_threshold;
        emit_fit(ctx, pu.0, samples, &model, Some(accepted));
        *slot = model;
        self.set_active(pu, true);
        let resolved = self.unit_set_changed(ctx, pu, "device-joined");
        self.arm_watch(pu);
        if let (false, Some(unit)) = (resolved, self.units.get_mut(pu.0)) {
            // The pool drained while the newcomer probed: there is no
            // split left to absorb it into, which is trivially stable.
            settle(ctx, pu.0, unit, self.rebalances);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyConfig;
    use crate::policy::tests::{linear_model, MockCtx};
    use crate::policy::Unit;
    use crate::profile::ProfileBook;
    use plb_runtime::Policy;

    #[test]
    fn acquisition_gate_prices_probe_cost() {
        let cfg = PolicyConfig::default().with_initial_block(100);
        let mut p = PlbHecPolicy::new(&cfg);
        p.active = vec![true, true, false];
        p.units = (0..3).map(|_| Unit::idle()).collect();
        p.units[0].block = 1000;
        p.units[1].block = 1000;
        p.models = vec![linear_model(1e4), linear_model(1e4), linear_model(1e4)];
        // The price is the one initial block the joiner probes with
        // (~0.01 s at the incumbents' rate); the payoff of a third unit
        // as fast as the other two is a sixth of the remaining work's
        // time at one unit's rate. With 1 000 cost units left the payoff
        // (~0.017 s) covers it.
        assert!(p.join_pays_off(1_000_000));
        assert!(p.join_pays_off(1_000));
        // Below 600 it does not (~0.008 s at 500)...
        assert!(!p.join_pays_off(500));
        // ...and at or below twice the probe the gate refuses outright.
        assert!(!p.join_pays_off(200));
    }

    /// Two units at 10 000 cost units per second with a split in force,
    /// and a third, inactive, that the book knows (`known`) or does not.
    fn executing(known: bool, total: u64) -> (PlbHecPolicy, MockCtx) {
        let cfg = PolicyConfig::default().with_initial_block(100);
        let mut policy = PlbHecPolicy::new(&cfg);
        let mut ctx = MockCtx::new(3, total);
        policy.active = vec![true, true, false];
        policy.units = (0..3).map(|_| Unit::idle()).collect();
        policy.models = vec![linear_model(1e4); 3];
        policy.book = ProfileBook::new(3);
        if known {
            policy.book.record(2, 100, 0.01, 0.0, false);
        }
        policy.phase = Phase::Executing;
        policy.resolve(&mut ctx);
        assert!(policy.units[0].block > 0 && policy.units[2].block == 0);
        ctx.take_events();
        (policy, ctx)
    }

    fn names(ctx: &mut MockCtx) -> Vec<&'static str> {
        ctx.take_events()
            .into_iter()
            .map(|(_, name)| name)
            .collect()
    }

    #[test]
    fn one_admission_for_every_phase_model_and_gate_verdict() {
        // Modeling: no gate, the unit steps onto the ladder as an
        // active unit — restored or joined, it is the same hook.
        let mut ctx = MockCtx::new(2, 1 << 40);
        ctx.pus[1].available = false;
        let mut policy = PlbHecPolicy::new(&PolicyConfig::default());
        policy.on_start(&mut ctx);
        ctx.take_events();
        ctx.pus[1].available = true;
        policy.on_device_restored(&mut ctx, PuId(1));
        assert_eq!(names(&mut ctx), ["probe_issued"]);
        assert!(policy.active[1] && policy.units[1].probe.is_some());
        policy.on_device_restored(&mut ctx, PuId(1));
        assert_eq!(
            names(&mut ctx),
            [""; 0],
            "an active unit is not admitted twice"
        );

        // Modeling, pool dry: declined, and as inactive as before.
        let mut ctx = MockCtx::new(2, 256);
        ctx.pus[1].available = false;
        let mut policy = PlbHecPolicy::new(&PolicyConfig::default());
        policy.on_start(&mut ctx);
        assert_eq!(ctx.remaining, 0);
        ctx.take_events();
        policy.on_device_joined(&mut ctx, PuId(1));
        assert_eq!(names(&mut ctx), ["device_restored_ignored"]);
        assert!(!policy.active[1] && policy.units[1].watch.is_none());
        assert!(matches!(&policy.phase, Phase::Modeling(m) if m.counts_match(1, 1)));

        // Executing, a unit the book has samples of: straight back into
        // the split, whichever hook announces it.
        let (mut policy, mut ctx) = executing(true, 1_000_000);
        policy.on_device_joined(&mut ctx, PuId(2));
        assert_eq!(names(&mut ctx), ["rebalance_triggered", "block_solve"]);
        assert!(policy.active[2] && policy.units[2].block > 0);
        assert_eq!(policy.rebalances(), 1);
        // ...and with the pool dry, reactivated with nothing to solve.
        let (mut policy, mut ctx) = executing(true, 1_000_000);
        ctx.remaining = 0;
        policy.on_device_restored(&mut ctx, PuId(2));
        assert_eq!(names(&mut ctx), [""; 0]);
        assert!(policy.active[2]);

        // Executing, a unit nothing is known about, and its probe pays
        // off: one probe, outside the active set.
        let (mut policy, mut ctx) = executing(false, 1_000_000);
        policy.on_device_restored(&mut ctx, PuId(2));
        assert_eq!(names(&mut ctx), ["probe_issued"]);
        assert!(!policy.active[2]);
        assert_eq!(policy.units[2].probe, Some(100));
        // ...and when it does not: declined.
        let (mut policy, mut ctx) = executing(false, 1_000_000);
        ctx.remaining = 500;
        policy.on_device_joined(&mut ctx, PuId(2));
        assert_eq!(names(&mut ctx), ["device_restored_ignored"]);
        assert!(!policy.active[2] && policy.units[2].probe.is_none());
    }

    #[test]
    fn a_walk_beside_the_split_ends_in_a_fold() {
        let (mut policy, mut ctx) = executing(false, 1_000_000);
        ctx.take_assigned();
        policy.on_device_joined(&mut ctx, PuId(2));
        assert_eq!(ctx.take_assigned(), [(2, 100)]);
        assert!(!policy.active[2]);
        ctx.take_events();
        // The walk is one probe long. It lands: modelled by its own
        // mean rate, folded, watched.
        let done = ctx.finish(2, 2e4);
        policy.on_task_finished(&mut ctx, &done);
        assert_eq!(
            names(&mut ctx),
            ["curve_fit", "rebalance_triggered", "block_solve"]
        );
        assert!(policy.active[2] && policy.units[2].block > 0);
        assert_eq!(policy.book.samples(2), 1);
        let model = &policy.models[2];
        assert!(model.is_partial());
        let own_rate = 100.0 / (1e-3 + 100.0 / 2e4);
        assert!((model.total_time(own_rate) - 1.0).abs() < 1e-9);
        let watch = policy.units[2].watch.as_ref().expect("watch armed");
        assert_eq!((watch.rebalances_at_join, policy.rebalances()), (1, 1));
    }

    #[test]
    fn a_fold_on_a_dry_pool_is_trivially_stable() {
        let (mut policy, mut ctx) = executing(false, 1_000_000);
        policy.on_device_joined(&mut ctx, PuId(2));
        ctx.remaining = 0;
        ctx.take_events();
        // One sample is no curve: the unit's own mean rate models it.
        let done = ctx.finish(2, 2e4);
        policy.on_task_finished(&mut ctx, &done);
        assert_eq!(names(&mut ctx), ["curve_fit", "restabilized"]);
        assert!(policy.active[2] && policy.units[2].watch.is_none());
        assert_eq!(policy.rebalances(), 0);
    }

    #[test]
    fn a_unit_lost_on_the_ladder_takes_its_probe_with_it() {
        let (mut policy, mut ctx) = executing(false, 1_000_000);
        policy.on_device_joined(&mut ctx, PuId(2));
        ctx.drop_task(2);
        ctx.pus[2].available = false;
        ctx.take_events();
        policy.on_device_lost(&mut ctx, PuId(2));
        assert_eq!(policy.units[2].probe, None);
        assert_eq!(names(&mut ctx), ["rebalance_triggered", "block_solve"]);
    }
}
