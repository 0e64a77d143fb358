//! Per-unit performance profiles: the measurement store behind the
//! paper's `F_p[x]` and `G_p[x]` models.

use crate::config::FitMode;
use plb_numerics::{
    fit_basis, fit_best_model, fit_linear, BasisFn, BasisSet, FitError, FittedCurve,
};

/// Measurements accumulated for one processing unit.
///
/// Serializable so a run checkpoint can carry the raw samples across a
/// crash: a resumed run re-fits from these instead of re-probing.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct PerfProfile {
    proc_samples: Vec<(f64, f64)>,
    xfer_samples: Vec<(f64, f64)>,
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
    pub fn record(&mut self, cost: u64, proc_time: f64, xfer_time: f64) {
        if cost == 0 {
            return; // zero-weight tasks carry no model information
        }
        let x = cost as f64;
        if proc_time.is_finite() && proc_time >= 0.0 {
            self.proc_samples.push((x, proc_time));
        }
        if xfer_time.is_finite() && xfer_time >= 0.0 {
            self.xfer_samples.push((x, xfer_time));
        }
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
/// beside each, the outcome of the last fit of it. The policy holds one
/// book from the first probe to the last block — the modeling phase
/// records into it and gates on it, the execution phase extends it and
/// refits from it, a checkpoint copies its profiles — and a sample set
/// is fitted once: whoever asks for a unit's model gets the stored
/// outcome until [`record`](Self::record) adds a sample. The memo lives
/// here and not in [`PerfProfile`] because a profile is checkpointed
/// and a model is derived from it.
#[derive(Debug, Default)]
pub(crate) struct ProfileBook {
    profiles: Vec<PerfProfile>,
    /// `fitted[k]`: how `profiles[k]`, as it stands, fits.
    fitted: Vec<Fitted>,
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
        let fitted = profiles.iter().map(|_| None).collect();
        ProfileBook { profiles, fitted }
    }

    /// Every unit's measurements, indexed by unit.
    pub(crate) fn profiles(&self) -> &[PerfProfile] {
        &self.profiles
    }

    /// One unit's profile and memo slot. The policy hooks must not
    /// index (`cargo xtask lint`, panic freedom): a unit outside the
    /// book reads as one that has no samples.
    fn entry(&mut self, unit: usize) -> Option<(&mut PerfProfile, &mut Fitted)> {
        self.profiles.get_mut(unit).zip(self.fitted.get_mut(unit))
    }

    /// Processing-time samples recorded for `unit`.
    pub(crate) fn samples(&self, unit: usize) -> usize {
        self.profiles.get(unit).map_or(0, PerfProfile::len)
    }

    /// [`PerfProfile::record`] on `unit`'s profile.
    pub(crate) fn record(&mut self, unit: usize, cost: u64, proc_time: f64, xfer_time: f64) {
        if let Some((profile, slot)) = self.entry(unit) {
            profile.record(cost, proc_time, xfer_time);
            *slot = None;
        }
    }

    /// [`PerfProfile::fit_with`] of `unit`'s profile, computed at most
    /// once per sample set and mode.
    pub(crate) fn fit(&mut self, unit: usize, mode: FitMode) -> Result<&UnitModel, FitError> {
        let Some((profile, slot)) = self.entry(unit) else {
            return Err(FitError::NotEnoughSamples { have: 0, need: 2 });
        };
        if slot.as_ref().is_some_and(|(m, _)| *m != mode) {
            *slot = None;
        }
        let (_, outcome) = slot.get_or_insert_with(|| (mode, profile.fit_with(mode)));
        outcome.as_ref().map_err(FitError::clone)
    }

    /// A model for `unit` no matter what: its fit, or — when its samples
    /// support no curve — the constant-rate model of its mean observed
    /// throughput.
    pub(crate) fn fit_or_mean_rate(&mut self, unit: usize, mode: FitMode) -> UnitModel {
        if let Ok(model) = self.fit(unit, mode) {
            return model.clone();
        }
        mean_rate_model(
            self.profiles
                .get(unit)
                .map_or(&[], PerfProfile::proc_samples),
        )
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
        let mut p = PerfProfile::new();
        p.record(10, f64::NAN, 0.1);
        p.record(10, 0.1, f64::INFINITY);
        assert_eq!(p.len(), 1); // only the second's proc sample
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
        book.record(0, 6400, 0.001 + 2e-6 * 6400.0, 1e-4);
        assert_eq!(book.samples(0), 7);
        assert_eq!(book.fit(0, FitMode::BestSubset).unwrap().f.n_samples(), 7);
        // Failures are outcomes too, until a sample arrives.
        assert!(book.fit(1, FitMode::BestSubset).is_err());
        book.record(1, 100, 0.1, 0.0);
        book.record(1, 200, 0.2, 0.0);
        assert!(book.fit(1, FitMode::BestSubset).is_ok());
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
    fn derivatives_are_sums() {
        let m = filled_profile().fit().unwrap();
        let x = 500.0;
        assert!((m.total_d1(x) - (m.f.d1(x) + m.g.d1(x))).abs() < 1e-15);
        assert!((m.total_d2(x) - (m.f.d2(x) + m.g.d2(x))).abs() < 1e-15);
    }
}
