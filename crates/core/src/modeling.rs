//! The performance-modeling phase (paper Section III-B, Algorithm 1):
//! the probe ladder every unit walks, and what the phase counts to
//! know when it is over.
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
//! Each unit walks the multiplier ladder 1, 2, 4, 8 at its own pace;
//! extra probes (at the capped ×8 multiplier) keep fast units busy and
//! keep refining their curves while slow units finish their quota.
//! Modeling completes when every active unit has at least four samples
//! and all fits reach R² ≥ 0.7, or when the phase has consumed its data
//! budget (20 % of the application). The cap closes the phase at once:
//! the probes still in flight land late, and a unit still on its first
//! joins the split when it lands, so no unit waits for the slowest
//! one's first probe. A unit admitted once the phase is over lands the
//! ladder's first rung, unscaled, beside the running split, and joins
//! it on that one sample.
//!
//! The measurements belong to the policy's one `ProfileBook`, the set
//! of active units and each unit's place on the ladder to the policy
//! ([`PlbHecPolicy`](crate::PlbHecPolicy), which keeps a `Modeling`
//! inside its modeling phase and nowhere else); this module keeps the
//! arithmetic and the counters.
//!
//! All block quantities here are *cost units* (`plb_runtime::Weights`):
//! probe sizes are cost budgets the policy passes to `assign`, and
//! completions report the cost actually claimed. Under uniform weights
//! cost ≡ item count, which is the paper's original formulation.

use crate::config::{FitMode, PolicyConfig};
use crate::profile::ProfileBook;

/// Probes a unit lands on one walk of the ladder — ×1, ×2, ×4, ×8 —
/// before its fit is consulted.
pub(crate) const LADDER_PROBES: u32 = 4;

/// The ladder: the block multiplier for a unit with `step` probes
/// landed. Extra probes stay at ×8 (unbounded doubling would let a
/// stubborn fit consume the entire budget in two enormous probes).
pub(crate) fn ladder_multiplier(step: u32) -> u64 {
    1 << step.min(3)
}

/// Cost budget of the probe a unit with `step` probes landed issues
/// next; `scale` is its `t_f / t_k` speed rescale (1 off the modeling
/// phase, and for the fastest unit in it).
pub(crate) fn probe_block(cfg: &PolicyConfig, step: u32, scale: f64) -> u64 {
    let raw = ladder_multiplier(step) as f64 * cfg.initial_block as f64 * scale;
    round_to_granularity(raw, cfg.granularity)
}

/// Does a unit in this state still owe the fit gate probes?
pub(crate) fn owes_probes(active: bool, step: u32) -> bool {
    active && step < LADDER_PROBES
}

/// What the one close-out check of the modeling phase decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseOut {
    /// Probes are in flight, or more are worth issuing.
    KeepProbing,
    /// The data budget is spent, or every probe has landed and the fit
    /// gate passes.
    Finish,
    /// Nothing is in flight and nothing will be: the gate cannot pass
    /// on its own (the pool is dry, or a unit that owes probes lost its
    /// block), so the phase closes on the samples it has.
    Force,
}

/// The modeling phase's own state: the budget it may spend and the
/// counters that say, without a roster walk per probe, whether it is
/// over. Exists exactly as long as the phase does.
#[derive(Debug, Default)]
pub(crate) struct Modeling {
    /// The phase's data cap in cost units (the paper's 20 % of the
    /// application input).
    budget: u64,
    /// Budgeted cost of every probe issued and not cancelled.
    used: u64,
    /// Earliest observed first-probe time; set by the first finisher.
    t_f: Option<f64>,
    /// Active units short of [`LADDER_PROBES`]: what the fit gate waits
    /// for, kept by [`requota`](Self::requota).
    below_quota: usize,
    /// Probes in flight.
    outstanding: usize,
}

impl Modeling {
    /// A phase that may spend `budget` cost units, `below_quota` of
    /// whose units owe probes.
    pub(crate) fn new(budget: u64, below_quota: usize) -> Modeling {
        Modeling {
            budget,
            below_quota,
            ..Modeling::default()
        }
    }

    /// Cost units consumed by probing so far (items under uniform
    /// weights).
    pub(crate) fn items_used(&self) -> u64 {
        self.used
    }

    /// A unit went from owing probes (`was`) to owing them or not
    /// (`is`): every write of its `active` flag or its ladder step.
    pub(crate) fn requota(&mut self, was: bool, is: bool) {
        self.below_quota = (self.below_quota + usize::from(is)).saturating_sub(usize::from(was));
    }

    /// A probe of `cost` budgeted units went out.
    pub(crate) fn issued(&mut self, cost: u64) {
        self.outstanding += 1;
        self.used += cost;
    }

    /// A probe came back measured.
    pub(crate) fn landed(&mut self) {
        debug_assert!(self.outstanding > 0, "completion without outstanding probe");
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// A probe of `cost` budgeted units will never land (its unit was
    /// lost, or its block returned to the pool): the close-out stops
    /// waiting for it and its budget is free again.
    pub(crate) fn cancelled(&mut self, cost: u64) {
        self.landed();
        self.used = self.used.saturating_sub(cost);
    }

    /// A unit's first probe took `total` seconds. The first finisher
    /// pins `t_f`; every later one learns its `t_f / t_k` rescale.
    pub(crate) fn rescale(&mut self, total: f64) -> Option<f64> {
        if !(total > 0.0 && total.is_finite()) {
            return None;
        }
        match self.t_f {
            None => {
                self.t_f = Some(total);
                None
            }
            Some(t_f) => Some((t_f / total).clamp(1e-3, 1.0)),
        }
    }

    /// Are the two counters what a walk of the roster finds — that many
    /// probes in flight, that many units owing probes? For
    /// `debug_assert!`.
    pub(crate) fn counts_match(&self, outstanding: usize, below_quota: usize) -> bool {
        (self.outstanding, self.below_quota) == (outstanding, below_quota)
    }

    /// Has the phase consumed its data budget?
    pub(crate) fn spent(&self) -> bool {
        self.used >= self.budget
    }

    /// True when every active unit has its probe quota and every fit
    /// clears the R² gate.
    pub(crate) fn gate_passes(
        &self,
        active: &[bool],
        book: &mut ProfileBook,
        r2_threshold: f64,
    ) -> bool {
        self.below_quota == 0
            && active.iter().enumerate().all(|(k, &on)| {
                !on || book
                    .fit(k, FitMode::BestSubset)
                    .is_ok_and(|m| m.min_r2() >= r2_threshold)
            })
    }

    /// Is the phase over? As soon as the data budget is spent, probes in
    /// flight or not: they land late, as execution-phase samples. Short
    /// of the cap, never before every outstanding probe has landed
    /// (their measurements feed the fits); `gate` is only asked then.
    pub(crate) fn close_out(&self, any_busy: bool, gate: impl FnOnce() -> bool) -> CloseOut {
        if self.spent() {
            CloseOut::Finish
        } else if self.outstanding > 0 {
            CloseOut::KeepProbing
        } else if gate() {
            CloseOut::Finish
        } else if !any_busy {
            CloseOut::Force
        } else {
            CloseOut::KeepProbing
        }
    }
}

/// Round `raw` cost units to the application granularity, at least one
/// granule.
pub(crate) fn round_to_granularity(raw: f64, granularity: u64) -> u64 {
    let g = granularity.max(1);
    let blocks = (raw / g as f64).round().max(1.0);
    (blocks as u64).saturating_mul(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(initial_block: u64, granularity: u64) -> PolicyConfig {
        PolicyConfig {
            initial_block,
            granularity,
            ..Default::default()
        }
    }

    #[test]
    fn the_ladder_is_both_old_schedules() {
        // Before there was one ladder, the modeling controller sized the
        // next probe of a unit with `probes` landed as
        // `(1 << probes.min(3)) × initialBlock × scale`, and the join
        // gate sized a joiner's `round`-th probe, counting from 1, as
        // `(1 << (round - 1).min(3)) × initialBlock`.
        let c = cfg(1000, 1);
        let walked: Vec<u64> = (0..=6).map(|step| probe_block(&c, step, 1.0)).collect();
        assert_eq!(walked, [1000, 2000, 4000, 8000, 8000, 8000, 8000]);
        for step in 0..=6u32 {
            let controller = (1u64 << step.min(3)) as f64 * 1000.0 * 1.0;
            let round = step + 1;
            let join_gate = (1u64 << (round - 1).min(3)) as f64 * 1000.0;
            assert_eq!(walked[step as usize], round_to_granularity(controller, 1));
            assert_eq!(walked[step as usize], round_to_granularity(join_gate, 1));
        }
        // Rescaled for a unit four times slower than the fastest, and
        // rounded to the application's granule.
        assert_eq!(probe_block(&c, 1, 0.25), 500);
        assert_eq!(probe_block(&cfg(1000, 64), 1, 0.25), 512);
        assert_eq!(probe_block(&cfg(100, 64), 0, 1.0), 128);
    }

    #[test]
    fn round_to_granularity_cases() {
        assert_eq!(round_to_granularity(100.0, 1), 100);
        assert_eq!(round_to_granularity(100.0, 64), 128);
        assert_eq!(round_to_granularity(0.4, 1), 1);
        assert_eq!(round_to_granularity(0.0, 8), 8);
    }

    #[test]
    fn counters_follow_the_probes_and_the_quota() {
        let mut m = Modeling::new(1000, 2);
        m.issued(100);
        m.issued(200);
        assert!(m.counts_match(2, 2));
        assert_eq!(m.items_used(), 300);
        // One lands, and takes its unit to its quota; the other dies
        // with its unit, and its budget is free again.
        m.landed();
        m.requota(true, false);
        m.cancelled(200);
        m.requota(true, false);
        assert!(m.counts_match(0, 0));
        assert_eq!(m.items_used(), 100);
        assert!(!m.spent());
        // A unit is admitted, owing probes; its probe spends the budget.
        m.requota(false, true);
        m.issued(900);
        assert!(m.counts_match(1, 1));
        assert!(m.spent());
    }

    #[test]
    fn first_finisher_pins_t_f_and_the_rest_are_rescaled_to_it() {
        let mut m = Modeling::new(1000, 3);
        assert_eq!(m.rescale(f64::NAN), None);
        assert_eq!(m.rescale(0.0), None);
        assert_eq!(m.rescale(0.5), None, "the fastest unit keeps scale 1");
        assert_eq!(m.rescale(2.0), Some(0.25));
        assert_eq!(m.rescale(0.25), Some(1.0), "never above the fastest");
        assert_eq!(m.rescale(1e9), Some(1e-3), "never a vanishing probe");
    }

    /// A phase with that many probes in flight, its budget spent or not.
    fn phase(outstanding: usize, spent: bool) -> Modeling {
        let mut m = Modeling::new(100, 0);
        m.used = if spent { 100 } else { 10 };
        m.outstanding = outstanding;
        m
    }

    #[test]
    fn close_out_cases() {
        use CloseOut::*;
        // (probes in flight, any unit busy, gate passes, budget spent)
        let cases = [
            (
                (2, true, false, true),
                Finish,
                "the cap closes the phase; the probes in flight land late",
            ),
            (
                (2, true, true, false),
                KeepProbing,
                "short of the cap, probes in flight feed the fits",
            ),
            ((0, false, true, false), Finish, "every fit clears the gate"),
            ((0, false, false, true), Finish, "the data cap is hit"),
            (
                (0, false, false, false),
                Force,
                "nothing in flight, nothing will be",
            ),
            (
                (0, true, false, false),
                KeepProbing,
                "a block not ours is still out",
            ),
        ];
        for ((outstanding, busy, gate, spent), expect, why) in cases {
            let got = phase(outstanding, spent).close_out(busy, || gate);
            assert_eq!(got, expect, "{why}");
        }
        // The gate fits curves: it is not asked while probes are out,
        // nor once the cap has decided.
        for spent in [false, true] {
            let asked = std::cell::Cell::new(false);
            phase(1, spent).close_out(true, || asked.replace(true));
            assert!(!asked.get(), "spent: {spent}");
        }
    }

    #[test]
    fn close_out_stops_waiting_for_probes_at_the_cap_and_nowhere_else() {
        use CloseOut::*;
        // The close-out before the cap rule: it waited for every probe
        // in flight, cap or no cap.
        let waiting = |o: usize, busy: bool, gate: bool, spent: bool| match () {
            () if o > 0 => KeepProbing,
            () if spent || gate => Finish,
            () if !busy => Force,
            () => KeepProbing,
        };
        let flags = [false, true];
        for outstanding in [0usize, 1, 2] {
            for busy in flags {
                for (gate, spent) in flags.iter().flat_map(|&g| flags.map(|s| (g, s))) {
                    let row = (outstanding, busy, gate, spent);
                    let now = phase(outstanding, spent).close_out(busy, || gate);
                    let was = waiting(outstanding, busy, gate, spent);
                    if spent && outstanding > 0 {
                        // The one change: nine tenths of a roster no
                        // longer idle behind the slowest unit's probe.
                        assert_eq!((was, now), (KeepProbing, Finish), "{row:?}");
                    } else {
                        assert_eq!(now, was, "{row:?}");
                    }
                }
            }
        }
    }
}
