//! The block-size selection phase (paper Section III-C).
//!
//! Solves the equal-finish-time partition problem over the fitted
//! per-unit models with the interior-point method (the paper's IPOPT
//! role, filled by `plb-ipm`), then rounds the real-valued fractions to
//! valid application block sizes.
//!
//! The partition window is measured in *cost units* (item count under
//! uniform weights): the NLP distributes shares of total work, and the
//! Σx = 1 coupling and KKT structure are identical either way — only the
//! domain the fitted curves are evaluated on changes.
//!
//! If the NLP solve fails or returns an unusable point (wild curves
//! extrapolated far from the probed range can do that, and so can units
//! whose intercepts exceed the common time, where the equalities have no
//! nonnegative solution), the exact water-fill takes over: bisect the
//! common time `T` until the blocks `E_g⁻¹(T)` fill the window.

use crate::config::SolverChoice;
use crate::perf::Stopwatch;
use crate::profile::UnitModel;
use plb_ipm::nlp::Curve;
use plb_ipm::{
    solve_warm, BlockPartitionNlp, BoxedCurve, IpmOptions, IpmStatus, IterationRecord, WarmStart,
};

/// Which solver produced the selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMethod {
    /// The interior-point NLP solve succeeded (normal path).
    InteriorPoint,
    /// The exact water-fill, when the interior point's answer is
    /// rejected.
    WaterFill,
    /// One-shot rate-proportional split: the ablation's comparator, and
    /// the trivial split of a single unit.
    RateProportional,
}

impl SelectionMethod {
    /// Short machine name (used in trace events and reports).
    pub fn name(&self) -> &'static str {
        match self {
            SelectionMethod::InteriorPoint => "interior-point",
            SelectionMethod::WaterFill => "water-fill",
            SelectionMethod::RateProportional => "rate-proportional",
        }
    }
}

/// The outcome of one block-size selection.
#[derive(Debug, Clone)]
#[must_use = "a SelectionResult holds the solved block split; apply or record it"]
pub struct SelectionResult {
    /// Per-unit fraction of the window (0 for inactive units).
    pub fractions: Vec<f64>,
    /// Per-unit block budget in cost units (items under uniform
    /// weights); sums to the window.
    pub blocks: Vec<u64>,
    /// Predicted common execution time of the round, seconds.
    pub predicted_time: f64,
    /// Which solver produced the result.
    pub method: SelectionMethod,
    /// Wall-clock cost of the selection itself, seconds (the paper
    /// reports ~170 ms with IPOPT on its 4-machine scenario).
    pub solve_seconds: f64,
    /// Interior-point iterations (0 for fallbacks).
    pub ipm_iterations: usize,
    /// Per-iteration interior-point log, kept even when the solve was
    /// rejected and a fallback produced the final split — that is
    /// exactly the trace a post-mortem needs.
    pub ipm_log: Vec<IterationRecord>,
    /// Termination status of the interior-point solve, when one ran.
    pub ipm_status: Option<IpmStatus>,
}

/// A fitted unit model reinterpreted on the fraction domain of a
/// `window`-cost-unit round.
struct FracCurve {
    model: UnitModel,
    window: f64,
}

impl Curve for FracCurve {
    fn value(&self, x: f64) -> f64 {
        self.model.total_time(x * self.window)
    }
    fn deriv1(&self, x: f64) -> f64 {
        self.window * self.model.total_d1(x * self.window)
    }
    fn deriv2(&self, x: f64) -> f64 {
        self.window * self.window * self.model.total_d2(x * self.window)
    }
}

/// Warm-start state carried between successive selections.
///
/// A rebalance re-solves the same NLP with slightly drifted curves, so
/// the previous interior-point optimum is an excellent starting point —
/// typically cutting the re-solve to a handful of iterations. The cache
/// is an optimization only: it is consulted solely when the live-unit
/// set is identical to the one it was captured on, and a stale or
/// missing cache just means a cold solve. Losing it (checkpoint
/// restore, unit failure) is always safe.
#[derive(Debug, Clone)]
pub struct SelectionWarmCache {
    /// Indices of the live units the warm start was captured for.
    live: Vec<usize>,
    /// The previous interior-point optimum.
    warm: WarmStart,
}

/// Select the per-unit block sizes for a round of `window_cost` cost
/// units (items under uniform weights), with the `solver` the
/// configuration names.
///
/// `active[i]` masks failed units: they receive fraction 0 and no work.
/// `cache` is consumed and refreshed, so that a rebalance's re-solve
/// starts from the previous optimum; a caller with no cache passes
/// `&mut None`.
///
/// # Panics
/// Panics when `models` and `active` lengths differ, when no unit is
/// active, or when `window_cost == 0`.
pub fn select_block_sizes(
    models: &[UnitModel],
    active: &[bool],
    window_cost: u64,
    granularity: u64,
    solver: SolverChoice,
    cache: &mut Option<SelectionWarmCache>,
) -> SelectionResult {
    assert_eq!(models.len(), active.len(), "models/active length mismatch");
    assert!(window_cost > 0, "empty selection window");
    let live: Vec<usize> = (0..models.len()).filter(|&i| active[i]).collect();
    assert!(!live.is_empty(), "no active processing units");

    let t0 = Stopwatch::start();
    let n = models.len();

    // Single unit: trivial.
    if live.len() == 1 {
        let mut fractions = vec![0.0; n];
        fractions[live[0]] = 1.0;
        let mut blocks = vec![0u64; n];
        blocks[live[0]] = window_cost;
        let predicted = models[live[0]].total_time(window_cost as f64);
        return SelectionResult {
            fractions,
            blocks,
            predicted_time: predicted,
            method: SelectionMethod::RateProportional,
            solve_seconds: t0.elapsed_seconds(),
            ipm_iterations: 0,
            ipm_log: Vec::new(),
            ipm_status: None,
        };
    }

    let window = window_cost as f64;
    let curves: Vec<BoxedCurve> = live
        .iter()
        .map(|&i| {
            Box::new(FracCurve {
                model: models[i].clone(),
                window,
            }) as BoxedCurve
        })
        .collect();

    let nlp = BlockPartitionNlp::new(curves);

    // The water-fill knows its common time exactly; every other split
    // is read off its curves once it is rounded.
    let mut filled_time = None;
    let mut fallback = || {
        let (f, t) = water_fill(live.iter().map(|&i| &models[i]), window);
        filled_time = Some(t).filter(|t| t.is_finite());
        (f, SelectionMethod::WaterFill, 0)
    };

    let mut ipm_log: Vec<IterationRecord> = Vec::new();
    let mut ipm_status: Option<IpmStatus> = None;
    let (live_fractions, method, iterations) = match solver {
        SolverChoice::RateProportionalOnly => (
            rate_proportional(&nlp),
            SelectionMethod::RateProportional,
            0,
        ),
        SolverChoice::Auto => {
            // Reuse the previous optimum only when it was captured on
            // exactly this live-unit set; anything else solves cold. Only
            // a usable solve refreshes it: a failed one's point would
            // poison the next warm start.
            let warm = cache.take().filter(|c| c.live == live).map(|c| c.warm);
            match solve_warm(&nlp, &IpmOptions::default(), warm.as_ref()) {
                Ok(mut sol) => {
                    // The solve happened: keep its trajectory and status
                    // for observability whether or not the point is
                    // accepted.
                    ipm_status = Some(sol.status);
                    ipm_log = std::mem::take(&mut sol.iteration_log);
                    let mut f = sol.x[..live.len()].to_vec();
                    if matches!(sol.status, IpmStatus::Optimal)
                        || sol.is_usable(1e-4) && fractions_sane(&f)
                    {
                        *cache = Some(SelectionWarmCache {
                            live: live.clone(),
                            warm: WarmStart::from_solution(&sol),
                        });
                        sanitize(&mut f);
                        (f, SelectionMethod::InteriorPoint, sol.iterations)
                    } else {
                        fallback()
                    }
                }
                Err(_) => fallback(),
            }
        }
    };

    // Scatter back to full-width vectors and round to blocks.
    let mut fractions = vec![0.0; n];
    for (j, &i) in live.iter().enumerate() {
        fractions[i] = live_fractions[j];
    }
    let blocks = apportion(&fractions, window_cost, granularity);

    // Predicted common time: max over the units that got a block (they
    // should be nearly equal when the solve succeeded). A unit rounded
    // to nothing runs nothing, whatever its curve says of its share.
    let predicted = filled_time.unwrap_or_else(|| {
        (live.iter().enumerate())
            .filter(|&(_, &i)| blocks[i] > 0)
            .map(|(j, _)| nlp.unit_time(j, live_fractions[j].max(1e-12)))
            .fold(0.0f64, f64::max)
    });

    SelectionResult {
        fractions,
        blocks,
        predicted_time: predicted,
        method,
        solve_seconds: t0.elapsed_seconds(),
        ipm_iterations: iterations,
        ipm_log,
        ipm_status,
    }
}

fn fractions_sane(f: &[f64]) -> bool {
    f.iter()
        .all(|v| v.is_finite() && *v >= -1e-6 && *v <= 1.0 + 1e-6)
        && (f.iter().sum::<f64>() - 1.0).abs() < 1e-3
}

fn sanitize(f: &mut [f64]) {
    for v in f.iter_mut() {
        if !v.is_finite() || *v < 0.0 {
            *v = 0.0;
        }
    }
    let s: f64 = f.iter().sum();
    if s > 0.0 {
        for v in f.iter_mut() {
            *v /= s;
        }
    } else {
        let n = f.len() as f64;
        f.fill(1.0 / n);
    }
}

/// The exact equal-finish split of a `window`-cost-unit round over
/// increasing curves: each unit takes the block it finishes in `T`,
/// `x_g(T) = E_g⁻¹(T)` on `[lo, window]`, and `T` is bisected until
/// those blocks fill the window. A unit that finishes no block in `T`
/// (its intercept exceeds it) keeps the floor `lo`, and so does a unit
/// whose curve is not finite on the range. Returns the fractions of the
/// window and `T`.
fn water_fill<'a>(models: impl Iterator<Item = &'a UnitModel>, window: f64) -> (Vec<f64>, f64) {
    let lo = 1e-9 * window;
    // `T` lies between the fastest start and the slowest whole window.
    let (mut below, mut above) = (f64::INFINITY, f64::NEG_INFINITY);
    let finite: Vec<Option<&UnitModel>> = models
        .map(|m| {
            let (first, last) = (m.total_time(lo), m.total_time(window));
            let finite = first.is_finite() && last.is_finite();
            if finite {
                below = below.min(first);
                above = above.max(last);
            }
            finite.then_some(m)
        })
        .collect();
    let blocks = |t: f64| -> Vec<f64> {
        let block = |m: &Option<&UnitModel>| m.map_or(lo, |m| m.invert(t, lo, window));
        finite.iter().map(block).collect()
    };
    while above - below > 1e-12 * above.abs() {
        let mid = 0.5 * (below + above);
        if blocks(mid).iter().sum::<f64>() < window {
            below = mid;
        } else {
            above = mid;
        }
    }
    let mut x = blocks(above);
    sanitize(&mut x);
    (x, above)
}

/// One-shot split proportional to the rate each unit achieves on an
/// equal share — what a weighted-average scheme in the style of Acosta
/// computes; the solver ablation's comparator.
fn rate_proportional(nlp: &BlockPartitionNlp) -> Vec<f64> {
    let mut x = nlp.warm_start_fractions();
    sanitize(&mut x);
    x
}

/// Round fractions to granular block budgets (cost units) conserving
/// the exact window total (largest-remainder apportionment in
/// granularity quanta; the sub-quantum remainder goes to the unit with
/// the largest fraction).
pub fn apportion(fractions: &[f64], window_cost: u64, granularity: u64) -> Vec<u64> {
    let g = granularity.max(1);
    let quanta_total = window_cost / g;
    let remainder_items = window_cost % g;
    let n = fractions.len();
    let mut blocks = vec![0u64; n];

    if quanta_total > 0 {
        let ideal: Vec<f64> = fractions.iter().map(|f| f * quanta_total as f64).collect();
        let mut floor_sum = 0u64;
        let mut rema: Vec<(f64, usize)> = Vec::with_capacity(n);
        for (i, &q) in ideal.iter().enumerate() {
            let fl = q.floor().max(0.0) as u64;
            blocks[i] = fl;
            floor_sum += fl;
            rema.push((q - fl as f64, i));
        }
        let mut leftover = quanta_total.saturating_sub(floor_sum);
        rema.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut k = 0;
        while leftover > 0 {
            blocks[rema[k % n].1] += 1;
            leftover -= 1;
            k += 1;
        }
        for b in blocks.iter_mut() {
            *b *= g;
        }
    }

    if remainder_items > 0 {
        let best = fractions
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        blocks[best] += remainder_items;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FitMode;
    use crate::profile::PerfProfile;

    /// Build a model for a linear device: t = overhead + items/rate.
    fn linear_model(rate: f64, overhead: f64) -> UnitModel {
        let mut p = PerfProfile::new();
        for &x in &[1000u64, 2000, 4000, 8000, 16000, 32000] {
            p.record(x, overhead + x as f64 / rate, 0.0);
        }
        p.fit().unwrap()
    }

    #[test]
    fn proportional_for_linear_devices() {
        let models = vec![linear_model(1e5, 0.0), linear_model(3e5, 0.0)];
        let r = select_block_sizes(
            &models,
            &[true, true],
            100_000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert!((r.fractions[0] - 0.25).abs() < 0.02, "{:?}", r.fractions);
        assert!((r.fractions[1] - 0.75).abs() < 0.02, "{:?}", r.fractions);
        assert_eq!(r.blocks.iter().sum::<u64>(), 100_000);
        assert_eq!(r.method, SelectionMethod::InteriorPoint);
        assert!(r.solve_seconds >= 0.0);
    }

    #[test]
    fn equalizes_finish_times() {
        let models = vec![
            linear_model(5e4, 0.01),
            linear_model(2e5, 0.002),
            linear_model(8e5, 0.001),
        ];
        let r = select_block_sizes(
            &models,
            &[true; 3],
            1_000_000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        let times: Vec<f64> = (0..3)
            .map(|i| models[i].total_time(r.blocks[i] as f64))
            .collect();
        let tmax = times.iter().cloned().fold(0.0f64, f64::max);
        let tmin = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (tmax - tmin) / tmax < 0.05,
            "times not equalized: {times:?} (blocks {:?})",
            r.blocks
        );
    }

    #[test]
    fn single_active_unit_takes_all() {
        let models = vec![linear_model(1e5, 0.0), linear_model(3e5, 0.0)];
        let r = select_block_sizes(
            &models,
            &[false, true],
            5000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert_eq!(r.blocks, vec![0, 5000]);
        assert_eq!(r.fractions, vec![0.0, 1.0]);
    }

    #[test]
    fn inactive_unit_excluded() {
        let models = vec![
            linear_model(1e5, 0.0),
            linear_model(1e5, 0.0),
            linear_model(1e5, 0.0),
        ];
        let r = select_block_sizes(
            &models,
            &[true, false, true],
            90_000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert_eq!(r.blocks[1], 0);
        assert_eq!(r.blocks.iter().sum::<u64>(), 90_000);
        assert!((r.blocks[0] as f64 - 45_000.0).abs() < 2000.0);
    }

    #[test]
    fn granularity_respected_and_total_conserved() {
        let models = vec![linear_model(1e5, 0.0), linear_model(2e5, 0.0)];
        let r = select_block_sizes(
            &models,
            &[true, true],
            10_000,
            128,
            SolverChoice::Auto,
            &mut None,
        );
        assert_eq!(r.blocks.iter().sum::<u64>(), 10_000);
        // All blocks are multiples of 128 except the remainder carrier.
        let off_grid = r.blocks.iter().filter(|&&b| b % 128 != 0).count();
        assert!(off_grid <= 1, "{:?}", r.blocks);
    }

    #[test]
    fn apportion_conserves_any_window() {
        let f = [0.37, 0.21, 0.42];
        for w in [1u64, 7, 100, 9999, 65536] {
            for g in [1u64, 3, 64] {
                let b = apportion(&f, w, g);
                assert_eq!(b.iter().sum::<u64>(), w, "w={w} g={g}");
            }
        }
    }

    #[test]
    fn apportion_zero_fraction_gets_nothing_mostly() {
        let b = apportion(&[0.0, 1.0], 1000, 1);
        assert_eq!(b, vec![0, 1000]);
    }

    #[test]
    fn ipm_log_kept_on_interior_point_path() {
        let models = vec![linear_model(1e5, 0.0), linear_model(3e5, 0.0)];
        let r = select_block_sizes(
            &models,
            &[true, true],
            100_000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert_eq!(r.method, SelectionMethod::InteriorPoint);
        assert_eq!(r.ipm_status, Some(IpmStatus::Optimal));
        assert_eq!(r.ipm_log.len(), r.ipm_iterations);
        assert!(r.ipm_log.iter().all(|rec| rec.mu > 0.0));
        assert_eq!(r.method.name(), "interior-point");
    }

    #[test]
    fn fallback_when_curves_are_pathological() {
        // A model fitted on constant times: E(x) flat → IPM's equal-time
        // constraints are degenerate in x. The flat unit's 0.5 s exceeds
        // what the linear unit takes for the whole window (0.1 s), so the
        // smallest makespan gives it nothing.
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800, 1600] {
            p.record(x, 0.5, 0.0);
        }
        let flat = p.fit().unwrap();
        let models = vec![flat, linear_model(1e5, 0.0)];
        let r = select_block_sizes(
            &models,
            &[true, true],
            10_000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert_eq!(r.blocks, [0, 10_000], "{:?}", r.method);
        assert!(
            (r.predicted_time - 0.1).abs() < 1e-6,
            "{}",
            r.predicted_time
        );
    }

    #[test]
    fn units_whose_intercept_exceeds_the_common_time_get_nothing() {
        // `sim-cluster`'s failing solves: one unit takes the window in
        // 0.1 s, and the other two cannot start a block in under 0.5 s.
        // The equal-finish equalities have no nonnegative solution, the
        // interior point's answer is rejected, and the water-fill gives
        // the fast unit everything.
        let models = vec![
            linear_model(1e6, 0.0),
            linear_model(1e5, 0.5),
            linear_model(2e5, 0.8),
        ];
        let r = select_block_sizes(
            &models,
            &[true; 3],
            100_000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert_eq!(r.method, SelectionMethod::WaterFill);
        assert_eq!(r.method.name(), "water-fill");
        assert_eq!(r.blocks, [100_000, 0, 0]);
        assert!(r.ipm_status.is_some(), "the rejected solve is kept");
        // Less the two floors of 1e-9 of the window.
        let t = models[0].total_time(100_000.0);
        assert!(
            (r.predicted_time - t).abs() < 1e-8 * t,
            "{}",
            r.predicted_time
        );
    }

    /// A CPU's line fitted on 20 blocks, and a GPU whose best-subset
    /// quadratic, fitted on its 4 probes, falls to a minimum near 36 000
    /// items before it rises.
    const CPU: &str = r#"{
        "f": {"basis": {"funcs": ["One", "X"]},
              "coeffs": [0.3812084750815972, 0.5982417652240971],
              "r2": 0.9926618242242217, "adj_r2": 0.9917985094270713,
              "x_scale": 105643.0, "y_scale": 5.2899408417730546e-5, "n_samples": 20},
        "g": {"basis": {"funcs": ["One"]}, "coeffs": [0.0], "r2": 1.0, "adj_r2": 1.0,
              "x_scale": 1.0, "y_scale": 1.0, "n_samples": 0},
        "f_quality": 0.9926618242242217, "g_quality": 1.0}"#;
    const GPU: &str = r#"{
        "f": {"basis": {"funcs": ["One", "X", "X2"]},
              "coeffs": [2.2090912925755744, -11.841844765945766, 10.632190277755091],
              "r2": 0.9998515646615329, "adj_r2": 0.8498515646615329,
              "x_scale": 65536.0, "y_scale": 6.386757972788896e-5, "n_samples": 4},
        "g": {"basis": {"funcs": ["X", "One"]},
              "coeffs": [0.5596207200747031, 0.4282565822373851],
              "r2": 0.9987452123992067, "adj_r2": 0.99623563719762,
              "x_scale": 65536.0, "y_scale": 0.00023181661380181727, "n_samples": 4},
        "f_quality": 0.9998515646615329, "g_quality": 0.9987452123992067}"#;

    /// ROADMAP item 4's line-search failure, pinned: one node's cold
    /// round of `sim-cluster` at seed 201509, met in every sweep. The
    /// equal-finish split is interior, x ≈ [0.9866, 0.0134], but the
    /// interior point runs the GPU down to its floor, where the GPU's
    /// equality cannot hold, and its line search fails; the water-fill
    /// answers.
    #[test]
    fn a_line_search_failure_on_an_interior_optimum_falls_to_the_water_fill() {
        let models: Vec<UnitModel> = [CPU, GPU]
            .iter()
            .map(|json| serde_json::from_str(json).unwrap())
            .collect();
        let r = select_block_sizes(
            &models,
            &[true, true],
            14_363_247,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert_eq!(r.method, SelectionMethod::WaterFill);
        let t = 0.004265146173820867;
        assert!((r.predicted_time - t).abs() < 1e-12, "{}", r.predicted_time);
        assert!((r.fractions[1] - 0.0134).abs() < 1e-4, "{:?}", r.fractions);
        // Item 4's defect: the fix flips this to `Some(IpmStatus::Optimal)`
        // and the method to `InteriorPoint`.
        assert_eq!(r.ipm_status, Some(IpmStatus::LineSearchFailure));
    }

    #[test]
    fn flat_units_get_nothing_they_cannot_finish_in_time() {
        // Lines fitted on times that did not grow with the block, the
        // third falling: the shape of a 4-node ring's node models,
        // fitted on 64-item probes and asked to split 80 795. Only the
        // fastest finishes anything in `T`; a falling line is no reason
        // to hand its unit the window.
        let flat = |t: f64, fall: f64| {
            let mut p = PerfProfile::new();
            for &x in &[64u64, 128, 256, 512] {
                p.record(x, t - fall * x as f64, 0.0);
            }
            p.fit_with(FitMode::LinearOnly).unwrap()
        };
        let models = [flat(2.1e-5, 0.0), flat(1.76e-4, 0.0), flat(1.76e-4, 1e-12)];
        let (x, t) = water_fill(models.iter(), 80_795.0);
        assert_eq!(apportion(&x, 80_795, 1), [80_795, 0, 0]);
        assert!((t - 2.1e-5).abs() < 1e-12, "{t}");
    }

    #[test]
    fn a_unit_rounded_to_nothing_does_not_set_the_predicted_time() {
        // An equal-rate unit behind a 10 s intercept gets a sliver of a
        // three-item window, which rounds to nothing; the one unit that
        // runs the round takes 3 ms.
        let models = vec![linear_model(1e3, 0.0), linear_model(1e3, 10.0)];
        let r = select_block_sizes(
            &models,
            &[true, true],
            3,
            1,
            SolverChoice::RateProportionalOnly,
            &mut None,
        );
        assert_eq!(r.blocks, [3, 0]);
        assert!(r.fractions[1] > 0.0);
        let t = models[0].total_time(3.0);
        assert!((r.predicted_time - t).abs() < 1e-6, "{}", r.predicted_time);
    }

    #[test]
    #[should_panic(expected = "no active")]
    fn all_inactive_panics() {
        let models = vec![linear_model(1e5, 0.0)];
        let _ = select_block_sizes(&models, &[false], 100, 1, SolverChoice::Auto, &mut None);
    }

    #[test]
    #[should_panic(expected = "empty selection")]
    fn zero_window_panics() {
        let models = vec![linear_model(1e5, 0.0)];
        let _ = select_block_sizes(&models, &[true], 0, 1, SolverChoice::Auto, &mut None);
    }

    #[test]
    fn warm_cache_speeds_up_rebalance_resolve() {
        let models = vec![
            linear_model(5e4, 0.01),
            linear_model(2e5, 0.002),
            linear_model(8e5, 0.001),
        ];
        let active = [true; 3];
        let mut cache = None;
        let first = select_block_sizes(
            &models,
            &active,
            1_000_000,
            1,
            SolverChoice::Auto,
            &mut cache,
        );
        assert_eq!(first.method, SelectionMethod::InteriorPoint);
        assert!(cache.is_some(), "usable solve must refresh the cache");

        // Re-fit with slightly drifted rates, as a rebalance would.
        let drifted = vec![
            linear_model(5.2e4, 0.011),
            linear_model(1.9e5, 0.002),
            linear_model(8.3e5, 0.001),
        ];
        let mut no_cache = None;
        let cold = select_block_sizes(
            &drifted,
            &active,
            1_000_000,
            1,
            SolverChoice::Auto,
            &mut no_cache,
        );
        let warm = select_block_sizes(
            &drifted,
            &active,
            1_000_000,
            1,
            SolverChoice::Auto,
            &mut cache,
        );
        assert_eq!(cold.method, SelectionMethod::InteriorPoint);
        assert_eq!(warm.method, SelectionMethod::InteriorPoint);
        assert!(
            warm.ipm_iterations < cold.ipm_iterations,
            "warm {} !< cold {}",
            warm.ipm_iterations,
            cold.ipm_iterations
        );
        // Same selection either way: identical blocks, matching fractions.
        assert_eq!(warm.blocks, cold.blocks);
        for (w, c) in warm.fractions.iter().zip(&cold.fractions) {
            assert!(
                (w - c).abs() < 1e-6,
                "{:?} vs {:?}",
                warm.fractions,
                cold.fractions
            );
        }
    }

    #[test]
    fn warm_cache_ignored_when_live_set_changes() {
        let models = vec![
            linear_model(1e5, 0.0),
            linear_model(2e5, 0.0),
            linear_model(4e5, 0.0),
        ];
        let mut cache = None;
        let _ = select_block_sizes(
            &models,
            &[true; 3],
            100_000,
            1,
            SolverChoice::Auto,
            &mut cache,
        );
        assert!(cache.is_some());
        // A unit dies: the cached 3-unit optimum no longer matches; the
        // 2-unit solve must still be correct (and refresh the cache).
        let r = select_block_sizes(
            &models,
            &[true, false, true],
            100_000,
            1,
            SolverChoice::Auto,
            &mut cache,
        );
        assert_eq!(r.blocks[1], 0);
        assert_eq!(r.blocks.iter().sum::<u64>(), 100_000);
        assert!(
            (r.blocks[0] as f64 / 100_000.0 - 0.2).abs() < 0.02,
            "{:?}",
            r.blocks
        );
        let c = cache.as_ref().unwrap();
        assert_eq!(c.live, vec![0, 2]);
    }

    /// Blocks a unit of the oracle's rounds is sized around, in cost
    /// units: large enough that the water-fill's half-unit inversion is
    /// below the 1e-6 it is held to.
    const SCALE: f64 = 2e6;

    /// The fitted model of a device taking `overhead + x / rate` seconds
    /// for a block of `x`, bent by `kind`: 0 affine (fitted as a line,
    /// inverted in closed form), 1 convex and 2 concave (best-subset
    /// fits, inverted by bisection). `None` unless the fit clears the
    /// paper's gate and increases over the whole window.
    fn oracle_model(kind: u8, rate: f64, overhead: f64, window: f64) -> Option<UnitModel> {
        let time = |x: f64| {
            let linear = overhead + x / rate;
            match kind {
                0 => linear,
                1 => linear * (1.0 + x / (8.0 * SCALE)),
                _ => linear + 0.2 * (SCALE / rate) * (1.0 + x / SCALE).ln(),
            }
        };
        let mut p = PerfProfile::new();
        for m in [0.25, 0.5, 1.0, 2.0, 4.0] {
            p.record((m * SCALE) as u64, time(m * SCALE), 0.0);
        }
        let mode = match kind {
            0 => FitMode::LinearOnly,
            _ => FitMode::BestSubset,
        };
        let model = p.fit_with(mode).ok()?;
        let grid = (0..=64).map(|k| window * 1e-9f64.powf(f64::from(k) / 64.0));
        let times: Vec<f64> = grid.map(|x| model.total_time(x)).collect();
        let increasing = times.windows(2).all(|w| w[1] < w[0]);
        (model.min_r2() >= 0.7 && increasing && times.iter().all(|t| t.is_finite()))
            .then_some(model)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The interior point against the water-fill, on fitted curves
        /// that increase: where every unit gets more than the floor, the
        /// two common times agree to 1e-6. Half the rounds have 2 to 10
        /// units, a quarter 500 and a quarter 5 000; units cycle through
        /// a pool of up to six devices, so a 5 000-unit round fits six
        /// curves. The large rounds run in the release profile only:
        /// unoptimized, one 5 000-unit round of best-subset curves took
        /// 9 s.
        #[test]
        fn the_interior_point_agrees_with_the_water_fill(
            (size, small) in (0usize..4, 2usize..11),
            pool in proptest::collection::vec((0u8..3, 1e5f64..1e6, 0.0f64..2.0), 1..7),
        ) {
            let n = [small, small, 500, 5_000][size];
            proptest::prop_assume!(n <= 10 || !cfg!(debug_assertions));
            let window = n as f64 * SCALE;
            let pool: Option<Vec<UnitModel>> = pool
                .iter()
                .map(|&(kind, rate, overhead)| oracle_model(kind, rate, overhead, window))
                .collect();
            proptest::prop_assume!(pool.is_some());
            let pool = pool.unwrap_or_default();
            let models: Vec<UnitModel> = pool.iter().cycle().take(n).cloned().collect();
            let (fractions, t) = water_fill(models.iter(), window);
            proptest::prop_assume!(fractions.iter().all(|&f| f * window > 1.0));
            let r = select_block_sizes(
                &models,
                &vec![true; n],
                window as u64,
                1,
                SolverChoice::Auto,
                &mut None,
            );
            proptest::prop_assert_eq!(r.method, SelectionMethod::InteriorPoint);
            proptest::prop_assert!(
                (r.predicted_time - t).abs() <= 1e-6 * t,
                "n = {}: interior point {} s, water-fill {} s",
                n,
                r.predicted_time,
                t
            );
        }
    }

    #[test]
    fn gpu_like_curve_gets_larger_share_than_naive_weighting() {
        // A device that is inefficient on small blocks but very fast on
        // large ones (GPU): solving the curve system should hand it more
        // than a naive rate-at-small-probe weighting would.
        let mut p = PerfProfile::new();
        for &x in &[1000u64, 2000, 4000, 8000, 16000, 32000, 64000] {
            let xf = x as f64;
            // Saturating: rate grows with x. t = x / (rate_max * x/(x+k))
            let k = 20_000.0;
            let t = xf * (xf + k) / (2e6 * xf);
            p.record(x, t, 0.0);
        }
        let gpu = p.fit().unwrap();
        let cpu = linear_model(2e5, 0.0);
        let r = select_block_sizes(
            &[gpu, cpu],
            &[true, true],
            500_000,
            1,
            SolverChoice::Auto,
            &mut None,
        );
        assert!(
            r.fractions[0] > 0.7,
            "GPU should dominate at this window: {:?} ({:?})",
            r.fractions,
            r.method
        );
    }
}
