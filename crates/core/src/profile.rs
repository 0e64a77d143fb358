//! Per-unit performance profiles: the measurement store behind the
//! paper's `F_p[x]` and `G_p[x]` models.

use crate::config::FitMode;
use crate::modeling::LADDER_PROBES;
use plb_numerics::{
    fit_basis, fit_best_model, fit_linear, BasisFn, BasisSet, FitError, FittedCurve,
};

/// A profile's first samples are its walk of the probe ladder. They
/// span the x-range and anchor the curve's shape, so they stay.
pub(crate) const PINNED: usize = LADDER_PROBES as usize;

/// Samples a profile keeps after the pinned ones: the most recent, so a
/// fit describes the operating point the unit is at now, and its cost,
/// a snapshot's size and a long-lived policy's memory do not grow with
/// the number of blocks. Picked from {8, 16, 32} on `sim-cluster` and
/// the drift goldens; CHANGES.md (PR 22) has the table.
pub(crate) const WINDOW: usize = 16;

/// How far past the largest block a unit has measured its model is
/// trusted to size one: a block found by inverting a model is at most
/// `REACH` times that block. Without the cap a late unit's two-point
/// affine fit, over blocks of 1 000 and 904 items, inverted to a block
/// of 38 724. It is also the spread a slope needs: fewer than a full
/// ladder of samples are fitted by a line only when their blocks span
/// this factor.
pub(crate) const REACH: f64 = 2.0;

/// The curve family `samples` afford: `full` from one walk of the
/// ladder on, and below that the affine [`FitMode::LinearOnly`], which
/// two points determine and three cannot bend — if the blocks span a
/// factor of [`REACH`]. Blocks bunched closer measure noise, not a
/// slope (three of 782–786 items fitted a line that ran downhill, and
/// the next split gave their unit 18 727), and one sample fits no
/// curve: `None`, the mean-rate model.
pub(crate) fn fit_family(samples: &[(f64, f64)], full: FitMode) -> Option<FitMode> {
    if samples.len() >= PINNED {
        return Some(full);
    }
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(x, _)| {
            (lo.min(x), hi.max(x))
        });
    (samples.len() >= 2 && hi >= REACH * lo).then_some(FitMode::LinearOnly)
}

/// Measurements kept for one processing unit: at most `PINNED + WINDOW`
/// blocks, each one entry in both lists.
///
/// Serializable so a run checkpoint can carry the raw samples across a
/// crash: a resumed run re-fits from these instead of re-probing.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct PerfProfile {
    proc_samples: Vec<(f64, f64)>,
    xfer_samples: Vec<(f64, f64)>,
}

/// Make room for one more sample: the oldest unpinned ones leave. One
/// when the list is full; more only for a list read from a checkpoint
/// that an unbounded profile wrote. A list is allocated once, at its
/// bound, when its first sample arrives.
fn make_room(samples: &mut Vec<(f64, f64)>) {
    let newest = samples.len().saturating_sub(WINDOW - 1);
    if newest > PINNED {
        samples.drain(PINNED..newest);
    }
    samples.reserve_exact((PINNED + WINDOW).saturating_sub(samples.len()));
}

impl PerfProfile {
    /// Create an empty profile.
    pub fn new() -> PerfProfile {
        PerfProfile::default()
    }

    /// Record one task execution: block weight in cost units (the item
    /// count under uniform weights), kernel time, and transfer time
    /// (seconds). Cost is the curves' domain — on an irregular workload
    /// two blocks with the same row count but different weight are
    /// different x-values, which is what keeps the fits meaningful.
    ///
    /// A block is recorded whole or not at all, and evicted whole: the
    /// two lists describe the same blocks, index by index.
    pub fn record(&mut self, cost: u64, proc_time: f64, xfer_time: f64) {
        let measured = |t: f64| t.is_finite() && t >= 0.0;
        // Zero-weight tasks carry no model information.
        if cost == 0 || !measured(proc_time) || !measured(xfer_time) {
            return;
        }
        let x = cost as f64;
        make_room(&mut self.proc_samples);
        make_room(&mut self.xfer_samples);
        self.proc_samples.push((x, proc_time));
        self.xfer_samples.push((x, xfer_time));
    }

    /// Number of processing-time samples.
    pub fn len(&self) -> usize {
        self.proc_samples.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.proc_samples.is_empty()
    }

    /// The recorded processing-time samples.
    pub fn proc_samples(&self) -> &[(f64, f64)] {
        &self.proc_samples
    }

    /// Fit the unit's model: `F_p` by best-subset least squares over the
    /// paper's basis set, `G_p` by the affine transfer model. A unit
    /// whose transfers are all zero (the master's own CPU) gets a
    /// constant-zero `G_p` rather than a degenerate fit.
    pub fn fit(&self) -> Result<UnitModel, FitError> {
        self.fit_with(FitMode::BestSubset)
    }

    /// Fit with an explicit curve family (ablation knob).
    pub fn fit_with(&self, mode: FitMode) -> Result<UnitModel, FitError> {
        let f = match mode {
            FitMode::BestSubset => fit_best_model(&self.proc_samples)?,
            FitMode::LinearOnly => fit_basis(
                &self.proc_samples,
                &BasisSet::new(&[BasisFn::One, BasisFn::X]),
            )?,
            FitMode::LogOnly => fit_basis(
                &self.proc_samples,
                &BasisSet::new(&[BasisFn::One, BasisFn::LnX]),
            )?,
        };
        let (g, g_quality) = if self.xfer_samples.iter().all(|&(_, t)| t == 0.0) {
            (FittedCurve::constant(0.0), 1.0)
        } else {
            let g = fit_linear(&self.xfer_samples)?;
            let quality = fit_quality(&g, &self.xfer_samples);
            (g, quality)
        };
        let f_quality = fit_quality(&f, &self.proc_samples);
        Ok(UnitModel {
            f,
            g,
            f_quality,
            g_quality,
        })
    }
}

/// The one owner of a run's measurements: every unit's profile and,
/// beside each, the outcome of the last fit of it and whether the unit
/// has surprised that fit since. The policy holds one book from the
/// first probe to the last block — the modeling phase records into it
/// and gates on it, the execution phase extends it and refits from it,
/// a checkpoint copies its profiles — and a sample set is fitted once:
/// whoever asks for a unit's model gets the stored outcome until
/// [`record`](Self::record) adds a sample. The memo lives here and not
/// in [`PerfProfile`] because a profile is checkpointed and a model is
/// derived from it.
#[derive(Debug, Default)]
pub(crate) struct ProfileBook {
    profiles: Vec<PerfProfile>,
    /// `fitted[k]`: how `profiles[k]`, as it stands, fits.
    fitted: Vec<Fitted>,
    /// `surprised[k]`: a block of unit `k` left the divergence band
    /// since `profiles[k]` was last fitted, or it never was — a model
    /// carried for `k` cannot be taken on trust.
    surprised: Vec<bool>,
}

/// The outcome of fitting a profile in one mode, once it is known.
type Fitted = Option<(FitMode, Result<UnitModel, FitError>)>;

impl ProfileBook {
    /// Empty profiles for `n_units` units.
    pub(crate) fn new(n_units: usize) -> ProfileBook {
        ProfileBook::from_profiles(vec![PerfProfile::new(); n_units])
    }

    /// Take over recorded profiles, none of them fitted yet.
    pub(crate) fn from_profiles(profiles: Vec<PerfProfile>) -> ProfileBook {
        ProfileBook {
            fitted: profiles.iter().map(|_| None).collect(),
            surprised: vec![true; profiles.len()],
            profiles,
        }
    }

    /// Every unit's measurements, indexed by unit.
    pub(crate) fn profiles(&self) -> &[PerfProfile] {
        &self.profiles
    }

    /// One unit's profile, memo slot and surprise flag. The policy
    /// hooks must not index (`cargo xtask lint`, panic freedom): a unit
    /// outside the book reads as one that has no samples.
    fn entry(&mut self, unit: usize) -> Option<(&mut PerfProfile, &mut Fitted, &mut bool)> {
        Some((
            self.profiles.get_mut(unit)?,
            self.fitted.get_mut(unit)?,
            self.surprised.get_mut(unit)?,
        ))
    }

    /// Processing-time samples held for `unit`.
    pub(crate) fn samples(&self, unit: usize) -> usize {
        self.profiles.get(unit).map_or(0, PerfProfile::len)
    }

    /// Must `unit` be refitted before a model carried for it is used?
    pub(crate) fn surprised(&self, unit: usize) -> bool {
        self.surprised.get(unit).copied().unwrap_or(true)
    }

    /// [`PerfProfile::record`] on `unit`'s profile. `surprise`: the
    /// block ran outside the divergence band of the model its unit is
    /// on — the caller's verdict, it being the one who holds the model.
    pub(crate) fn record(
        &mut self,
        unit: usize,
        cost: u64,
        proc_time: f64,
        xfer_time: f64,
        surprise: bool,
    ) {
        if let Some((profile, slot, surprised)) = self.entry(unit) {
            profile.record(cost, proc_time, xfer_time);
            *slot = None;
            *surprised |= surprise;
        }
    }

    /// [`PerfProfile::fit_with`] of `unit`'s profile, computed at most
    /// once per sample set and mode. A fit that succeeds is what the
    /// unit's next blocks are judged against.
    pub(crate) fn fit(&mut self, unit: usize, mode: FitMode) -> Result<&UnitModel, FitError> {
        let Some((profile, slot, surprised)) = self.entry(unit) else {
            return Err(FitError::NotEnoughSamples { have: 0, need: 2 });
        };
        if slot.as_ref().is_some_and(|(m, _)| *m != mode) {
            *slot = None;
        }
        let (_, outcome) = slot.get_or_insert_with(|| (mode, profile.fit_with(mode)));
        *surprised &= outcome.is_err();
        outcome.as_ref().map_err(FitError::clone)
    }

    /// `unit`'s processing-time samples (none for a unit outside the
    /// book).
    fn proc_samples(&self, unit: usize) -> &[(f64, f64)] {
        self.profiles
            .get(unit)
            .map_or(&[], PerfProfile::proc_samples)
    }

    /// The largest block, in cost units, `unit`'s profile holds (0 for
    /// none): the edge of what its model has seen.
    pub(crate) fn largest_block(&self, unit: usize) -> f64 {
        (self.proc_samples(unit).iter()).fold(0.0, |max, &(x, _)| max.max(x))
    }

    /// The family [`fit_family`] picks for what `unit` holds.
    pub(crate) fn family(&self, unit: usize, full: FitMode) -> Option<FitMode> {
        fit_family(self.proc_samples(unit), full)
    }

    /// [`fit_or_mean_rate`](Self::fit_or_mean_rate) in the family its
    /// samples afford: `full` from a full ladder on, affine below it,
    /// the mean rate when they afford no curve.
    pub(crate) fn model(&mut self, unit: usize, full: FitMode) -> UnitModel {
        match self.family(unit, full) {
            Some(mode) => self.fit_or_mean_rate(unit, mode),
            None => mean_rate_model(self.proc_samples(unit)),
        }
    }

    /// A model for `unit` no matter what: its fit, or — when its samples
    /// support no curve — the constant-rate model of its mean observed
    /// throughput.
    pub(crate) fn fit_or_mean_rate(&mut self, unit: usize, mode: FitMode) -> UnitModel {
        if let Ok(model) = self.fit(unit, mode) {
            return model.clone();
        }
        mean_rate_model(self.proc_samples(unit))
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
    let f = fit_linear(&line).unwrap_or_else(|_| FittedCurve::constant(1.0 / rate));
    UnitModel {
        f,
        g: FittedCurve::constant(0.0),
        f_quality: 0.0,
        g_quality: 1.0,
    }
}

/// Gate quality of a fit: its R², except when the data is essentially
/// constant. R² measures variance *explained*, so a transfer time
/// dominated by a fixed per-task cost (e.g. re-streaming a broadcast
/// matrix) has nothing to explain and R² ≈ 0 forever — yet the model is
/// excellent. In that regime the relative residual is the meaningful
/// metric: a fit within a few percent of every sample passes the gate.
fn fit_quality(fit: &FittedCurve, samples: &[(f64, f64)]) -> f64 {
    let r2 = fit.r2();
    if samples.is_empty() {
        return r2;
    }
    let mean_abs: f64 = samples.iter().map(|&(_, y)| y.abs()).sum::<f64>() / samples.len() as f64;
    if mean_abs <= 0.0 {
        return r2.max(1.0);
    }
    let rms: f64 = (samples
        .iter()
        .map(|&(x, y)| {
            let e = y - fit.eval(x);
            e * e
        })
        .sum::<f64>()
        / samples.len() as f64)
        .sqrt();
    let rel_accuracy_quality = 1.0 - (rms / mean_abs) / 0.15; // 15% rel-RMS ≡ quality 0
    r2.max(rel_accuracy_quality.clamp(0.0, 1.0))
}

/// A fitted per-unit model: `F_p` (processing) and `G_p` (transfer).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct UnitModel {
    /// Processing-time curve over cost units (items under uniform
    /// weights).
    pub f: FittedCurve,
    /// Transfer-time curve over cost units.
    pub g: FittedCurve,
    /// Gate quality of the processing fit (R², or residual-based for
    /// near-constant data).
    pub f_quality: f64,
    /// Gate quality of the transfer fit.
    pub g_quality: f64,
}

impl UnitModel {
    /// Total predicted execution time `E_p(x) = F_p(x) + G_p(x)` for a
    /// block of `x` cost units (items under uniform weights).
    pub fn total_time(&self, cost: f64) -> f64 {
        self.f.eval(cost) + self.g.eval(cost)
    }

    /// First derivative of `E_p` at `cost`.
    pub fn total_d1(&self, cost: f64) -> f64 {
        self.f.d1(cost) + self.g.d1(cost)
    }

    /// Second derivative of `E_p` at `cost`.
    pub fn total_d2(&self, cost: f64) -> f64 {
        self.f.d2(cost) + self.g.d2(cost)
    }

    /// `E_p⁻¹(t)` clipped to `[lo, hi]`: the block this model predicts
    /// to take `t` seconds. `E_p` is taken to be increasing: an affine
    /// model is inverted in closed form, any other by Newton steps from
    /// `from`, safeguarded by the bracket `[lo, hi]`. A model no block of
    /// the range takes `t` on gives the nearer end: `hi` when it predicts
    /// the whole range done within `t`, else `lo` — so a flat or falling
    /// model is sized by where it stands, not by its slope.
    pub(crate) fn invert(&self, t: f64, lo: f64, hi: f64, from: f64) -> f64 {
        if !(t.is_finite() && lo <= hi) {
            return lo;
        }
        if self.total_time(hi) <= t {
            return hi;
        }
        if self.total_time(lo) >= t {
            return lo;
        }
        if self.is_affine() {
            let x = lo + (t - self.total_time(lo)) / self.total_d1(lo);
            return if x.is_finite() { x.clamp(lo, hi) } else { hi };
        }
        // E(below) < t < E(above). A step that would leave the bracket,
        // or a slope that is not positive, halves it instead; so does a
        // step no shorter than half the one before the last, which is
        // how Newton crawls down the far side of a steep exponential.
        let (mut below, mut above) = (lo, hi);
        let mut x = Some(from)
            .filter(|&x| x > lo && x < hi)
            .unwrap_or(0.5 * (lo + hi));
        let (mut before_last, mut last) = (hi - lo, hi - lo);
        for _ in 0..64 {
            let r = self.total_time(x) - t;
            if r == 0.0 || r.is_nan() {
                return x;
            }
            *(if r < 0.0 { &mut below } else { &mut above }) = x;
            let step = r / self.total_d1(x);
            let newton = x - step > below && x - step < above && step.abs() <= 0.5 * before_last;
            before_last = last;
            (x, last) = if newton {
                (x - step, step.abs())
            } else {
                (0.5 * (below + above), 0.5 * (above - below))
            };
            if last <= 1e-12 * x {
                break;
            }
        }
        x
    }

    /// Is this a partial model: fitted from fewer samples than one walk
    /// of the ladder, or a mean-rate stand-in (drawn through three
    /// points of its own)? Good enough to size its own unit by, not to
    /// call a rebalance of every unit on. Read off the model itself, so
    /// a checkpoint that carries the model carries the verdict.
    pub(crate) fn is_partial(&self) -> bool {
        self.f.n_samples() < PINNED
    }

    /// Both curves affine: `E_p(x) = a + b·x`.
    pub(crate) fn is_affine(&self) -> bool {
        let affine = |c: &FittedCurve| {
            c.basis()
                .funcs()
                .iter()
                .all(|f| matches!(f, BasisFn::One | BasisFn::X))
        };
        affine(&self.f) && affine(&self.g)
    }

    /// The worse (smaller) of the two fit qualities — what the paper's
    /// R² ≥ 0.7 gate checks per unit (with the near-constant-data
    /// correction described on [`PerfProfile::fit_with`]).
    pub fn min_r2(&self) -> f64 {
        self.f_quality.min(self.g_quality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_profile() -> PerfProfile {
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800, 1600, 3200] {
            let xf = x as f64;
            p.record(x, 0.001 + 2e-6 * xf, 1e-4 + 1e-8 * xf);
        }
        p
    }

    #[test]
    fn fit_recovers_linear_shapes() {
        let m = filled_profile().fit().unwrap();
        assert!(m.f.r2() > 0.999);
        assert!(m.g.r2() > 0.999);
        assert!(m.min_r2() > 0.999);
        let t = m.total_time(1000.0);
        let expect = (0.001 + 2e-3) + (1e-4 + 1e-5);
        assert!((t - expect).abs() / expect < 0.02, "{t} vs {expect}");
    }

    #[test]
    fn zero_item_records_ignored() {
        let mut p = PerfProfile::new();
        p.record(0, 1.0, 1.0);
        assert!(p.is_empty());
    }

    #[test]
    fn nan_times_ignored() {
        // A block either of whose times is unusable is dropped whole:
        // half of it would put the two lists out of step.
        let mut p = PerfProfile::new();
        p.record(10, f64::NAN, 0.1);
        p.record(10, 0.1, f64::INFINITY);
        p.record(10, -0.1, 0.1);
        assert!(p.is_empty() && p.xfer_samples.is_empty());
        p.record(10, 0.1, 0.2);
        assert_eq!(
            (p.proc_samples(), &p.xfer_samples[..]),
            (&[(10.0, 0.1)][..], &[(10.0, 0.2)][..])
        );
    }

    #[test]
    fn ladder_stays_and_the_window_slides_pair_by_pair() {
        let mut p = PerfProfile::new();
        for block in 1..=100u64 {
            p.record(block, block as f64, 0.5 * block as f64);
            if block % 7 == 0 {
                p.record(block, f64::NAN, 1.0); // never half a block
            }
            assert_eq!(p.len(), (block as usize).min(PINNED + WINDOW));
        }
        let costs: Vec<f64> = p.proc_samples().iter().map(|&(x, _)| x).collect();
        let kept = (1..=PINNED as u64).chain(100 - WINDOW as u64 + 1..=100);
        assert_eq!(costs, kept.map(|x| x as f64).collect::<Vec<_>>());
        for (&(x, proc), &(gx, xfer)) in p.proc_samples().iter().zip(&p.xfer_samples) {
            assert_eq!((gx, xfer), (x, 0.5 * proc), "one block, both lists");
        }
    }

    #[test]
    fn each_list_is_allocated_once_at_its_bound() {
        let caps = |p: &PerfProfile| (p.proc_samples.capacity(), p.xfer_samples.capacity());
        let bound = PINNED + WINDOW;
        let mut p = PerfProfile::new();
        p.record(1, 1.0, 0.5);
        assert_eq!(caps(&p), (bound, bound));
        for block in 2..=100u64 {
            p.record(block, block as f64, 0.5 * block as f64);
        }
        assert_eq!(caps(&p), (bound, bound));
    }

    #[test]
    fn oversized_profile_from_an_old_checkpoint_is_cut_to_size_on_its_next_block() {
        // What an unbounded profile wrote, the lists not even in step.
        let blocks = |n: u64| (1..=n).map(|x| (x as f64, 1.0)).collect::<Vec<_>>();
        let mut p = PerfProfile {
            proc_samples: blocks(500),
            xfer_samples: blocks(3),
        };
        p.record(501, 1.0, 1.0);
        assert_eq!(p.len(), PINNED + WINDOW);
        assert_eq!(
            p.proc_samples()[PINNED - 1..][..2],
            [(4.0, 1.0), (486.0, 1.0)]
        );
        assert_eq!(p.xfer_samples.len(), 4);
    }

    #[test]
    fn all_zero_transfers_give_constant_zero_g() {
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800] {
            p.record(x, 1e-3 * x as f64, 0.0);
        }
        let m = p.fit().unwrap();
        assert_eq!(m.g.eval(1e6), 0.0);
        assert_eq!(m.g.d1(1e6), 0.0);
    }

    #[test]
    fn too_few_samples_error() {
        let mut p = PerfProfile::new();
        p.record(100, 0.1, 0.0);
        assert!(p.fit().is_err());
    }

    #[test]
    fn book_refits_after_a_new_sample_or_another_mode_only() {
        let mut book = ProfileBook::from_profiles(vec![filled_profile(), PerfProfile::new()]);
        let describe = |m: &UnitModel| (m.f.basis().describe(), m.f.n_samples());
        let best = describe(book.fit(0, FitMode::BestSubset).unwrap());
        assert_eq!(best.1, 6);
        assert_eq!(describe(book.fit(0, FitMode::BestSubset).unwrap()), best);
        // Another mode is another fit of the same samples, both ways.
        let log = describe(book.fit(0, FitMode::LogOnly).unwrap());
        assert_eq!(log, ("a0*1 + a1*ln(x)".to_string(), 6));
        assert_eq!(describe(book.fit(0, FitMode::BestSubset).unwrap()), best);
        // A new sample is a new sample set.
        book.record(0, 6400, 0.001 + 2e-6 * 6400.0, 1e-4, false);
        assert_eq!(book.samples(0), 7);
        assert_eq!(book.fit(0, FitMode::BestSubset).unwrap().f.n_samples(), 7);
        // Failures are outcomes too, until a sample arrives.
        assert!(book.fit(1, FitMode::BestSubset).is_err());
        book.record(1, 100, 0.1, 0.0, false);
        book.record(1, 200, 0.2, 0.0, false);
        assert!(book.fit(1, FitMode::BestSubset).is_ok());
    }

    #[test]
    fn a_unit_is_surprised_until_a_fit_succeeds_and_again_by_a_block_outside_the_band() {
        let mut book = ProfileBook::from_profiles(vec![filled_profile(), PerfProfile::new()]);
        assert!(book.surprised(0) && book.surprised(1) && book.surprised(9));
        assert!(book.fit(0, FitMode::BestSubset).is_ok());
        assert!(book.fit(1, FitMode::BestSubset).is_err());
        assert!(!book.surprised(0));
        assert!(book.surprised(1), "a failed fit vouches for nothing");
        // Blocks inside the band leave the verdict alone; one outside
        // it stands until the next fit, whatever lands in between.
        book.record(0, 6400, 0.0138, 1e-4, false);
        assert!(!book.surprised(0));
        book.record(0, 6400, 0.05, 1e-4, true);
        book.record(0, 6400, 0.0138, 1e-4, false);
        assert!(book.surprised(0));
        assert!(book.fit(0, FitMode::BestSubset).is_ok());
        assert!(!book.surprised(0));
    }

    #[test]
    fn every_unit_gets_a_model_its_own_samples_support() {
        let mut book = ProfileBook::from_profiles(vec![filled_profile(); 3]);
        book.profiles[1] = PerfProfile::new();
        book.profiles[1].record(1000, 0.5, 0.0);
        book.profiles[2] = PerfProfile::new();
        // A curve where one fits; the mean rate of a lone sample; and
        // one cost unit per second for a unit nothing is known about.
        let fitted = book.fit_or_mean_rate(0, FitMode::BestSubset);
        assert!(fitted.min_r2() > 0.999);
        let lone = book.fit_or_mean_rate(1, FitMode::BestSubset);
        assert!((lone.total_time(2000.0) - 1.0).abs() < 1e-9);
        assert_eq!(lone.f_quality, 0.0);
        let unknown = book.fit_or_mean_rate(2, FitMode::BestSubset);
        assert!((unknown.total_time(10.0) - 10.0).abs() < 1e-9);
        assert!(
            (book
                .fit_or_mean_rate(9, FitMode::BestSubset)
                .total_time(10.0)
                - 10.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn a_model_is_partial_below_a_full_ladder() {
        let mut book = ProfileBook::from_profiles(vec![filled_profile(), PerfProfile::new()]);
        for (k, &(x, t)) in filled_profile().proc_samples().iter().enumerate().take(4) {
            let model = book.model(1, FitMode::BestSubset);
            // One sample: the mean rate; two or three: an affine fit.
            let (family, partial) = (model.f.basis().describe(), model.is_partial());
            match k {
                0 | 1 => assert_eq!((family.as_str(), partial), ("a0*x + a1*1", true)),
                _ => assert_eq!((family.as_str(), partial), ("a0*1 + a1*x", true)),
            }
            book.record(1, x as u64, t, 0.0, false);
        }
        assert!(!book.model(1, FitMode::BestSubset).is_partial());
        let ladder = |n: usize| filled_profile().proc_samples()[..n].to_vec();
        assert_eq!(
            fit_family(&ladder(3), FitMode::LogOnly),
            Some(FitMode::LinearOnly)
        );
        assert_eq!(
            fit_family(&ladder(4), FitMode::LogOnly),
            Some(FitMode::LogOnly)
        );
        assert_eq!(fit_family(&ladder(1), FitMode::LogOnly), None);
        // Three blocks within a factor of two of each other: no slope.
        let bunched = [(782.0, 0.0293), (786.0, 0.0290), (786.0, 0.0297)];
        assert_eq!(fit_family(&bunched, FitMode::BestSubset), None);
        assert_eq!(book.largest_block(0), 3200.0);
        assert_eq!(book.largest_block(9), 0.0);
    }

    #[test]
    fn inversion_is_closed_form_on_an_affine_model_and_newton_otherwise() {
        let affine = filled_profile().fit_with(FitMode::LinearOnly).unwrap();
        let t = affine.total_time(1234.0);
        assert!((affine.invert(t, 1.0, 1e6, 1.0) - 1234.0).abs() < 1e-6);
        assert_eq!(affine.invert(t, 1.0, 1000.0, 1.0), 1000.0, "clipped above");
        assert_eq!(affine.invert(0.0, 10.0, 1e6, 1.0), 10.0, "clipped below");
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800, 1600] {
            let xf = x as f64;
            p.record(x, 1e-3 + 1e-6 * xf + 1e-9 * xf * xf, 0.0);
        }
        let curved = p.fit_with(FitMode::BestSubset).unwrap();
        assert!(!curved.is_affine());
        let t = curved.total_time(1000.0);
        // From either side, from outside the range and from the root.
        for from in [1.0, 900.0, 1000.0, 1e5, 2e6, f64::NAN] {
            let x = curved.invert(t, 1.0, 1e6, from);
            assert!((x - 1000.0).abs() <= 1e-9 * 1000.0, "from {from}: {x}");
        }
        assert_eq!(affine.invert(f64::NAN, 5.0, 10.0, 7.0), 5.0);
    }

    #[test]
    fn newton_does_not_crawl_down_a_steep_exponential() {
        // E = 1e-4·(1 + u/2 + u·eᵘ/100) s, u = x / 65 536: a block of 16 M
        // items is 244 units of u up the exponential, and a Newton step
        // there comes down by about one, so Newton alone would not reach
        // the 100 000-item root in the 64 steps allowed.
        let model: UnitModel = serde_json::from_str(
            r#"{"f": {"basis": {"funcs": ["One", "X", "XExpX"]}, "coeffs": [1.0, 0.5, 0.01],
                      "r2": 1.0, "adj_r2": 1.0, "x_scale": 65536.0, "y_scale": 1e-4,
                      "n_samples": 8},
                "g": {"basis": {"funcs": ["One"]}, "coeffs": [0.0], "r2": 1.0, "adj_r2": 1.0,
                      "x_scale": 1.0, "y_scale": 1.0, "n_samples": 0},
                "f_quality": 1.0, "g_quality": 1.0}"#,
        )
        .unwrap();
        let t = model.total_time(100_000.0);
        let x = model.invert(t, 1.0, 1.6e7, 1.6e7 - 1.0);
        assert!((x - 100_000.0).abs() <= 1e-9 * 100_000.0, "{x}");
    }

    #[test]
    fn a_flat_or_falling_model_is_inverted_by_where_it_stands() {
        // Blocks that all took 0.5 s, or took less the larger they were:
        // no slope to divide by. Below the time the model stands at, no
        // block is done in time — the smallest; above it, all are.
        for fall in [0.0, 1e-5] {
            let mut p = PerfProfile::new();
            for &x in &[100u64, 200, 400, 800] {
                p.record(x, 0.5 - fall * x as f64, 0.0);
            }
            let model = p.fit_with(FitMode::LinearOnly).unwrap();
            assert!(model.is_affine() && model.total_d1(1.0) <= 1e-12);
            assert_eq!(model.invert(0.1, 1.0, 1000.0, 500.0), 1.0, "fall {fall}");
            assert_eq!(model.invert(0.6, 1.0, 1000.0, 500.0), 1000.0, "fall {fall}");
        }
    }

    #[test]
    fn derivatives_are_sums() {
        let m = filled_profile().fit().unwrap();
        let x = 500.0;
        assert!((m.total_d1(x) - (m.f.d1(x) + m.g.d1(x))).abs() < 1e-15);
        assert!((m.total_d2(x) - (m.f.d2(x) + m.g.d2(x))).abs() < 1e-15);
    }
}
