//! The performance-modeling phase (paper Section III-B, Algorithm 1).
//!
//! Probing is *pipelined*, not barriered: the paper emphasizes that
//! PLB-HeC "prevents idleness periods in the initial phase by starting
//! to adapt the block sizes after the submission of the first block".
//! The first unit to finish its `initialBlockSize` probe is by
//! definition the fastest (its time is `t_f`); every unit that finishes
//! afterwards immediately receives its next probe of size
//! `mult × initialBlockSize × t_f / t_k` without waiting for anyone —
//! numerically identical block sizes to Algorithm 1's rounds, with no
//! barrier idleness.
//!
//! Each unit walks the multiplier schedule 1, 2, 4, 8 at its own pace;
//! extra probes (at the capped ×8 multiplier) keep fast units busy and
//! keep refining their curves while slow units finish their quota.
//! Modeling completes when every active unit has at least four samples
//! and all fits reach R² ≥ 0.7, or when the phase has consumed its data
//! budget (20 % of the application).
//!
//! All block quantities here are *cost units* (`plb_runtime::Weights`):
//! probe sizes are cost budgets the policy passes to `assign`, and
//! completions report the cost actually claimed. Under uniform weights
//! cost ≡ item count, which is the paper's original formulation.

use crate::config::{FitMode, ProbeSchedule};
use crate::profile::{PerfProfile, ProfileBook, UnitModel};

/// Where the modeling phase stands.
#[derive(Debug)]
pub enum ModelingStatus {
    /// Keep probing.
    Probing,
    /// Models are ready.
    Done(Vec<UnitModel>),
}

/// Minimum probes per unit before the fit gate is consulted.
const MIN_PROBES: u32 = 4;

/// The self-paced probing controller.
#[derive(Debug)]
pub struct ModelingController {
    initial_block: u64,
    granularity: u64,
    r2_threshold: f64,
    items_budget: u64,
    /// The measurements, and the model last fitted from each.
    book: ProfileBook,
    /// Probes completed per unit.
    probes_done: Vec<u32>,
    /// Active units still short of [`MIN_PROBES`]: what the fit gate
    /// waits for, counted by the writers of `active` and `probes_done`
    /// instead of by a roster scan per probe completion.
    below_quota: usize,
    /// `t_f / t_k` speed rescale per unit (1.0 for the fastest).
    speed_scale: Vec<f64>,
    /// Earliest observed first-probe time; set by the first finisher.
    t_f: Option<f64>,
    active: Vec<bool>,
    outstanding: usize,
    items_used: u64,
    schedule: ProbeSchedule,
}

impl ModelingController {
    /// Create a controller for `n_units` units.
    ///
    /// `items_budget` is the modeling-phase data cap in cost units (the
    /// paper's 20 % of the application input; items under uniform
    /// weights), as are `initial_block` and `granularity`.
    pub fn new(
        n_units: usize,
        initial_block: u64,
        granularity: u64,
        r2_threshold: f64,
        items_budget: u64,
    ) -> ModelingController {
        assert!(n_units > 0, "need at least one unit");
        assert!(initial_block > 0 && granularity > 0);
        ModelingController {
            initial_block,
            granularity,
            r2_threshold,
            items_budget,
            book: ProfileBook::new(n_units),
            probes_done: vec![0; n_units],
            below_quota: n_units,
            speed_scale: vec![1.0; n_units],
            t_f: None,
            active: vec![true; n_units],
            outstanding: 0,
            items_used: 0,
            schedule: ProbeSchedule::ExponentialRescaled,
        }
    }

    /// Override the probe schedule (ablation knob).
    pub fn with_schedule(mut self, schedule: ProbeSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Accumulated measurement profiles (shared with the execution phase
    /// for rebalancing refits).
    pub fn profiles(&self) -> &[PerfProfile] {
        self.book.profiles()
    }

    /// Hand the measurements, with the models fitted from them, to the
    /// execution phase.
    pub(crate) fn into_book(self) -> ProfileBook {
        self.book
    }

    /// Is `unit` one the fit gate still waits for?
    fn owes_probes(&self, unit: usize) -> bool {
        self.active[unit] && self.probes_done[unit] < MIN_PROBES
    }

    /// Cost units consumed by probing so far (items under uniform
    /// weights).
    pub fn items_used(&self) -> u64 {
        self.items_used
    }

    /// Probes still outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Number of completed probes on one unit.
    pub fn probes_done(&self, unit: usize) -> u32 {
        self.probes_done[unit]
    }

    /// Mark a unit failed: no further probes, excluded from the gate.
    pub fn deactivate(&mut self, unit: usize) {
        if self.owes_probes(unit) {
            self.below_quota -= 1;
        }
        self.active[unit] = false;
    }

    /// Admit a unit that joined (or re-joined) mid-phase: reactivate it
    /// and issue its initial probe, which re-enters the pipelined
    /// schedule exactly like a startup probe — the caller assigns the
    /// returned block and routes its completion to
    /// [`on_task_done`](Self::on_task_done). The unit's earlier samples
    /// (if any) are kept; its probe count restarts so it walks the full
    /// multiplier ladder again.
    pub fn admit(&mut self, unit: usize) -> u64 {
        if !self.owes_probes(unit) {
            self.below_quota += 1;
        }
        self.active[unit] = true;
        self.probes_done[unit] = 0;
        let block = round_to_granularity(self.initial_block as f64, self.granularity);
        self.outstanding += 1;
        self.items_used += block;
        block
    }

    /// The first probes: `initialBlockSize` for every active unit.
    /// Records the issued probes as outstanding; the caller assigns them
    /// and routes completions to [`on_task_done`](Self::on_task_done).
    pub fn initial_probes(&mut self) -> Vec<u64> {
        let mut blocks = vec![0u64; self.active.len()];
        for (k, b) in blocks.iter_mut().enumerate() {
            if !self.active[k] {
                continue;
            }
            *b = round_to_granularity(self.initial_block as f64, self.granularity);
            self.outstanding += 1;
            self.items_used += *b;
        }
        blocks
    }

    /// Tell the controller an issued probe could not actually be
    /// assigned (data ran out): it will never complete. `cost` is the
    /// probe's budgeted weight.
    pub fn cancel_probe(&mut self, _unit: usize, cost: u64) {
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
        self.items_used = self.items_used.saturating_sub(cost);
    }

    /// Record a probe completion and decide this unit's next probe.
    /// `cost` is the block's claimed weight (item count under uniform
    /// weights) — the x-value the curves are fit against.
    ///
    /// Returns `Some(block)` when the unit should immediately probe
    /// again (the pipelined schedule), `None` when the modeling phase
    /// should stop growing (consult [`status`](Self::status)).
    pub fn on_task_done(&mut self, unit: usize, cost: u64, proc: f64, xfer: f64) -> Option<u64> {
        debug_assert!(self.outstanding > 0, "completion without outstanding probe");
        self.outstanding -= 1;
        self.book.record(unit, cost, proc, xfer);
        self.probes_done[unit] += 1;
        if self.active[unit] && self.probes_done[unit] == MIN_PROBES {
            self.below_quota -= 1;
        }

        let total = proc + xfer;
        if self.probes_done[unit] == 1 && total > 0.0 && total.is_finite() {
            // The first finisher pins t_f; later units learn their
            // rescale the moment their first probe lands.
            match self.t_f {
                None => self.t_f = Some(total),
                Some(t_f) => {
                    if self.schedule == ProbeSchedule::ExponentialRescaled {
                        self.speed_scale[unit] = (t_f / total).clamp(1e-3, 1.0);
                    }
                }
            }
        }

        if !self.active[unit] || self.items_used >= self.items_budget {
            return None;
        }
        if self.gate_passes() {
            return None;
        }

        // Multiplier schedule 1, 2, 4, 8 — extra probes stay at 8
        // (unbounded doubling would let a stubborn fit consume the
        // entire budget in two enormous probes).
        let mult = 1u64 << self.probes_done[unit].min(3);
        let raw = mult as f64 * self.initial_block as f64 * self.speed_scale[unit];
        let block = round_to_granularity(raw, self.granularity);
        self.outstanding += 1;
        self.items_used += block;
        Some(block)
    }

    /// True when every active unit has its probe quota and every fit
    /// clears the R² gate.
    fn gate_passes(&mut self) -> bool {
        debug_assert_eq!(
            self.below_quota,
            (0..self.active.len())
                .filter(|&k| self.owes_probes(k))
                .count(),
            "below_quota out of step with active / probes_done"
        );
        if self.below_quota > 0 {
            return false;
        }
        let (active, book, threshold) = (&self.active, &mut self.book, self.r2_threshold);
        (0..active.len()).all(|k| {
            !active[k]
                || book
                    .fit(k, FitMode::BestSubset)
                    .is_ok_and(|m| m.min_r2() >= threshold)
        })
    }

    /// Decide whether probing is finished. Modeling completes when the
    /// fit gate passes or the data budget is exhausted — and never
    /// before every outstanding probe has landed (their measurements
    /// feed the fits).
    pub fn status(&mut self) -> ModelingStatus {
        if self.outstanding > 0 {
            return ModelingStatus::Probing;
        }
        if self.gate_passes() || self.items_used >= self.items_budget {
            ModelingStatus::Done(self.force_models())
        } else {
            ModelingStatus::Probing
        }
    }

    /// Produce a model for every unit no matter what, falling back from
    /// the best-subset fit to a constant-rate model built from the mean
    /// observed throughput. Inactive units get whatever their samples
    /// support (they are excluded from selection by the policy anyway).
    pub fn force_models(&mut self) -> Vec<UnitModel> {
        (0..self.active.len())
            .map(|k| {
                let fitted = self.book.fit(k, FitMode::BestSubset).ok().cloned();
                fitted.unwrap_or_else(|| mean_rate_model(self.book.profiles()[k].proc_samples()))
            })
            .collect()
    }
}

/// Mean-rate fallback for samples no curve fits: time = items /
/// mean_rate.
fn mean_rate_model(samples: &[(f64, f64)]) -> UnitModel {
    let rate = if samples.is_empty() {
        1.0
    } else {
        let s: f64 = samples.iter().map(|&(x, t)| x / t.max(1e-12)).sum();
        (s / samples.len() as f64).max(1e-12)
    };
    let line: Vec<(f64, f64)> = [1.0, 2.0, 4.0].iter().map(|&x| (x, x / rate)).collect();
    // Exact affine data always fits; if the solve ever degenerates
    // anyway, degrade to a constant one-item-time model instead of
    // panicking.
    let f = plb_numerics::fit_linear(&line)
        .unwrap_or_else(|_| plb_numerics::FittedCurve::constant(1.0 / rate));
    UnitModel {
        f,
        g: plb_numerics::FittedCurve::constant(0.0),
        f_quality: 0.0,
        g_quality: 1.0,
    }
}

/// Round `raw` cost units to the application granularity, at least one
/// granule.
pub fn round_to_granularity(raw: f64, granularity: u64) -> u64 {
    let g = granularity.max(1);
    let blocks = (raw / g as f64).round().max(1.0);
    (blocks as u64).saturating_mul(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a linear device: time = overhead + items/rate. Returns the
    /// next probe for the unit.
    fn feed(ctrl: &mut ModelingController, unit: usize, items: u64, rate: f64) -> Option<u64> {
        let t = 1e-3 + items as f64 / rate;
        ctrl.on_task_done(unit, items, t, 1e-4)
    }

    #[test]
    fn initial_probes_uniform() {
        let mut c = ModelingController::new(3, 100, 1, 0.7, 1_000_000);
        assert_eq!(c.initial_probes(), vec![100, 100, 100]);
        assert_eq!(c.outstanding(), 3);
    }

    #[test]
    fn first_finisher_sets_t_f_and_gets_full_multiplier() {
        let mut c = ModelingController::new(2, 1000, 1, 0.7, u64::MAX);
        let b = c.initial_probes();
        // Unit 1 (fast) finishes first: next probe is the full 2x.
        let next = feed(&mut c, 1, b[1], 4e5).unwrap();
        assert_eq!(next, 2000);
        // Unit 0 (4x slower) then gets a rescaled 2x probe.
        let next = feed(&mut c, 0, b[0], 1e5).unwrap();
        assert!(
            next < 2000,
            "slow unit must get a smaller probe, got {next}"
        );
        assert!(next >= 400, "rescale ≈ t_f/t_k ≈ 1/4, got {next}");
    }

    #[test]
    fn pipelined_probing_needs_no_barrier() {
        // The fast unit runs through its whole schedule (and beyond,
        // with extra probes) while the slow unit is still on probe 1 —
        // no waiting.
        let mut c = ModelingController::new(2, 1000, 1, 0.7, u64::MAX);
        let b = c.initial_probes();
        let mut next = b[1];
        for _ in 0..4 {
            next = feed(&mut c, 1, next, 4e5).expect("fast unit keeps probing");
        }
        assert_eq!(c.probes_done(1), 4);
        assert_eq!(c.probes_done(0), 0);
        assert!(matches!(c.status(), ModelingStatus::Probing));
    }

    #[test]
    fn completes_when_all_units_have_quota_and_fits_pass() {
        let mut c = ModelingController::new(2, 1000, 1, 0.7, u64::MAX);
        let b = c.initial_probes();
        let rates = [1e5, 3e5];
        let mut next = [Some(b[0]), Some(b[1])];
        // Drive both units until the controller stops issuing probes.
        for _ in 0..20 {
            for u in 0..2 {
                if let Some(blk) = next[u] {
                    next[u] = feed(&mut c, u, blk, rates[u]);
                }
            }
            if next.iter().all(Option::is_none) {
                break;
            }
        }
        match c.status() {
            ModelingStatus::Done(models) => {
                assert_eq!(models.len(), 2);
                for m in &models {
                    assert!(m.min_r2() >= 0.7);
                }
                let predicted = models[1].total_time(10_000.0);
                let actual = 1e-3 + 10_000.0 / 3e5 + 1e-4;
                assert!((predicted - actual).abs() / actual < 0.1);
            }
            ModelingStatus::Probing => panic!("should have completed"),
        }
    }

    #[test]
    fn budget_cap_forces_completion() {
        let mut c = ModelingController::new(1, 10, 1, 0.999999, 35);
        let b = c.initial_probes();
        // Noisy device defeats the R² gate; budget must end probing.
        let noisy = [0.5, 3.0, 0.2, 5.0, 1.0];
        let mut blk = Some(b[0]);
        let mut i = 0;
        while let Some(x) = blk {
            blk = c.on_task_done(0, x, noisy[i % noisy.len()], 0.0);
            i += 1;
            assert!(i < 20, "budget never exhausted");
        }
        assert!(c.items_used() >= 35);
        assert!(matches!(c.status(), ModelingStatus::Done(_)));
    }

    #[test]
    fn extra_probes_cap_at_eight_x() {
        let mut c = ModelingController::new(1, 10, 1, 0.999999, u64::MAX);
        let b = c.initial_probes();
        let noisy = [0.5, 3.0, 0.2, 5.0, 1.0, 2.0, 0.7];
        let mut blk = b[0];
        for (i, &t) in noisy.iter().enumerate() {
            match c.on_task_done(0, blk, t, 0.0) {
                Some(nb) => {
                    assert!(nb <= 80, "probe {i} exceeded 8x cap: {nb}");
                    blk = nb;
                }
                None => break,
            }
        }
    }

    #[test]
    fn deactivated_unit_excluded_from_gate() {
        let mut c = ModelingController::new(2, 1000, 1, 0.7, u64::MAX);
        let b = c.initial_probes();
        c.deactivate(0);
        c.cancel_probe(0, b[0]);
        let mut next = Some(b[1]);
        for _ in 0..10 {
            match next {
                Some(blk) => next = feed(&mut c, 1, blk, 1e5),
                None => break,
            }
        }
        assert!(matches!(c.status(), ModelingStatus::Done(_)));
    }

    #[test]
    fn status_waits_for_outstanding_probes() {
        let mut c = ModelingController::new(2, 1000, 1, 0.0, u64::MAX);
        let b = c.initial_probes();
        // Unit 1 completes its quota but keeps receiving extra probes
        // because unit 0 hasn't finished: the phase cannot end while
        // probes are in flight.
        let mut pending1 = b[1];
        for _ in 0..4 {
            pending1 = feed(&mut c, 1, pending1, 1e5).expect("extra probes issued");
        }
        assert!(matches!(c.status(), ModelingStatus::Probing));
        // Unit 0 lands its quota; its last on_task_done returns None
        // (gate now passes), but unit 1's extra probe is still flying.
        let mut next0 = Some(b[0]);
        for _ in 0..10 {
            match next0 {
                Some(blk) => next0 = feed(&mut c, 0, blk, 1e4),
                None => break,
            }
        }
        assert!(
            matches!(c.status(), ModelingStatus::Probing),
            "probe still in flight"
        );
        // The flying probe lands: now the phase can complete.
        let next1 = feed(&mut c, 1, pending1, 1e5);
        assert!(next1.is_none(), "gate passed; no more probes");
        assert!(matches!(c.status(), ModelingStatus::Done(_)));
    }

    #[test]
    fn admitted_unit_rejoins_the_probe_pipeline() {
        let mut c = ModelingController::new(2, 1000, 1, 0.7, u64::MAX);
        let b = c.initial_probes();
        // Unit 0 never starts (latent join target).
        c.deactivate(0);
        c.cancel_probe(0, b[0]);
        let mut next = Some(b[1]);
        for _ in 0..10 {
            match next {
                Some(blk) => next = feed(&mut c, 1, blk, 1e5),
                None => break,
            }
        }
        assert!(matches!(c.status(), ModelingStatus::Done(_)));
        // The unit joins mid-run: it gets a fresh initial probe, the
        // phase re-opens, and driving it to quota closes the gate again.
        let probe = c.admit(0);
        assert_eq!(probe, 1000);
        assert!(matches!(c.status(), ModelingStatus::Probing));
        let mut next = Some(probe);
        for _ in 0..10 {
            match next {
                Some(blk) => next = feed(&mut c, 0, blk, 2e5),
                None => break,
            }
        }
        assert!(c.probes_done(0) >= 4);
        assert!(matches!(c.status(), ModelingStatus::Done(_)));
    }

    #[test]
    fn granularity_respected() {
        let mut c = ModelingController::new(1, 100, 64, 0.7, u64::MAX);
        let b = c.initial_probes();
        assert_eq!(b[0] % 64, 0);
        assert!(b[0] >= 64);
    }

    #[test]
    fn round_to_granularity_cases() {
        assert_eq!(round_to_granularity(100.0, 1), 100);
        assert_eq!(round_to_granularity(100.0, 64), 128);
        assert_eq!(round_to_granularity(0.4, 1), 1);
        assert_eq!(round_to_granularity(0.0, 8), 8);
    }

    #[test]
    fn force_models_always_returns_models() {
        let mut c = ModelingController::new(2, 10, 1, 0.7, u64::MAX);
        let b = c.initial_probes();
        c.on_task_done(0, b[0], 0.5, 0.0);
        c.on_task_done(1, b[1], 0.5, 0.0);
        let models = c.force_models();
        assert_eq!(models.len(), 2);
        assert!(models[0].total_time(100.0) > 0.0);
    }

    #[test]
    fn equal_schedule_skips_rescale() {
        let mut c = ModelingController::new(2, 1000, 1, 0.7, u64::MAX)
            .with_schedule(ProbeSchedule::ExponentialEqual);
        let b = c.initial_probes();
        feed(&mut c, 1, b[1], 4e5).unwrap();
        let next_slow = feed(&mut c, 0, b[0], 1e5).unwrap();
        assert_eq!(next_slow, 2000, "equal schedule must not rescale");
    }
}
