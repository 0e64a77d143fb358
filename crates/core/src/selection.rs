//! The block-size selection phase (paper Section III-C).
//!
//! The paper hands the equal-finish split to IPOPT. Over increasing
//! curves that split has one unknown, the common time `T`: each unit
//! takes the block it finishes in `T`, `x_g(T) = E_g⁻¹(T)`, and
//! `Σ x_g(T) = window` is one increasing scalar equation. It is solved
//! as one safeguarded Newton root on `T` (the water-fill), and the
//! real-valued blocks are then rounded to valid application block
//! sizes. A unit whose intercept exceeds `T` finishes no block in it and
//! gets the floor, so the split exists whatever the curves; the paper's
//! NLP, whose equalities have no nonnegative solution then, is kept in
//! `plb-ipm` as this module's test oracle.
//!
//! The partition window is measured in *cost units* (item count under
//! uniform weights): only the domain the fitted curves are evaluated on
//! changes.

use crate::config::SolverChoice;
use crate::perf::Stopwatch;
use crate::profile::UnitModel;

/// Which solver produced the selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMethod {
    /// The equal-finish split, as one root on the common time (normal
    /// path).
    WaterFill,
    /// One-shot rate-proportional split: the ablation's comparator, and
    /// the trivial split of a single unit.
    RateProportional,
}

impl SelectionMethod {
    /// Short machine name (used in trace events and reports).
    pub(crate) fn name(&self) -> &'static str {
        match self {
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
    /// Newton steps on the common time `T` (0 for the rate-proportional
    /// split).
    pub iterations: usize,
}

/// Select the per-unit block sizes for a round of `window_cost` cost
/// units (items under uniform weights), with the `solver` the
/// configuration names.
///
/// `active[i]` masks failed units: they receive fraction 0 and no work.
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
            iterations: 0,
        };
    }

    let window = window_cost as f64;
    let live_models: Vec<&UnitModel> = live.iter().map(|&i| &models[i]).collect();
    // The water-fill knows its common time exactly; the rate-proportional
    // split is read off its curves once it is rounded.
    let (live_fractions, method, iterations, filled_time) = if solver == SolverChoice::Auto {
        let (f, t, steps) = water_fill(&live_models, window);
        let t = Some(t).filter(|t| t.is_finite());
        (f, SelectionMethod::WaterFill, steps, t)
    } else {
        let f = rate_proportional(&live_models, window);
        (f, SelectionMethod::RateProportional, 0, None)
    };

    // Scatter back to full-width vectors and round to blocks.
    let mut fractions = vec![0.0; n];
    live.iter()
        .zip(&live_fractions)
        .for_each(|(&i, &f)| fractions[i] = f);
    let blocks = apportion(&fractions, window_cost, granularity);

    // Predicted common time: max over the units that got a block. A
    // unit rounded to nothing runs nothing, whatever its curve says of
    // its share.
    let predicted = filled_time.unwrap_or_else(|| {
        (live.iter().enumerate())
            .filter(|&(_, &i)| blocks[i] > 0)
            .map(|(j, _)| live_models[j].total_time(live_fractions[j].max(1e-12) * window))
            .fold(0.0f64, f64::max)
    });

    SelectionResult {
        fractions,
        blocks,
        predicted_time: predicted,
        method,
        solve_seconds: t0.elapsed_seconds(),
        iterations,
    }
}

/// Scale positive shares to sum to one.
fn normalize(x: &mut [f64]) {
    let sum: f64 = x.iter().sum();
    x.iter_mut().for_each(|v| *v /= sum);
}

/// The exact equal-finish split of a `window`-cost-unit round over
/// increasing curves: each unit takes the block it finishes in `T`,
/// `x_g(T) = E_g⁻¹(T)` on `[lo, window]`, and `T` is the root of
/// `S(T) = Σ x_g(T) − window`. A unit that finishes no block in `T`
/// (its intercept exceeds it) keeps the floor `lo`, and so does a unit
/// whose curve is not finite on the range.
///
/// Newton's method on `T`, from the time the rate-proportional split
/// predicts, with `S′(T) = Σ 1/E′_g(x_g)` over the units strictly inside
/// their range. Each unit's inversion starts from its block at the
/// previous `T`. `S` bends, or jumps, only where a unit starts a block
/// or fills the window; a step that would leave the bracket `T` is
/// known to lie in, or cross such a time, halves the bracket instead,
/// on the time nearest its middle if one is inside. A unit whose curve
/// does not rise over its range takes nothing below its time and the
/// whole window from it on: at that time it gives back what the window
/// cannot hold. Returns the fractions of the window, `T` and the steps
/// taken.
fn water_fill(models: &[&UnitModel], window: f64) -> (Vec<f64>, f64, usize) {
    let lo = 1e-9 * window;
    // Each unit's start and whole-window times, where its curve is finite.
    let ends: Vec<Option<(f64, f64)>> = (models.iter())
        .map(|m| Some((m.total_time(lo), m.total_time(window))))
        .map(|e| e.filter(|(first, last)| first.is_finite() && last.is_finite()))
        .collect();
    // `S` bends, or jumps, only at these times.
    let times: Vec<f64> = ends.iter().flatten().flat_map(|&(a, b)| [a, b]).collect();
    // `T` lies between them: every unit is at `lo` below the first and
    // at `window` from the last on.
    let mut below = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mut above = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let guess = rate_proportional(models, window);
    let mut x: Vec<f64> = guess.iter().map(|f| f * window).collect();
    let t: f64 = (guess.iter().zip(&x).zip(models))
        .map(|((f, &x), m)| f * m.total_time(x))
        .sum();
    let mut t = Some(t)
        .filter(|&t| t > below && t < above)
        .unwrap_or(0.5 * (below + above));
    let mut steps = 0;
    // A guard, never met on curves that increase: they take a handful.
    while steps < 64 {
        steps += 1;
        let (mut sum, mut slope) = (0.0, 0.0);
        for ((x, m), end) in x.iter_mut().zip(models).zip(&ends) {
            *x = end.map_or(lo, |_| m.invert(t, lo, window, *x));
            sum += *x;
            if *x > lo && *x < window {
                slope += 1.0 / m.total_d1(*x);
            }
        }
        let mut s = sum - window;
        // At its start or whole-window time a unit moves with `T` on one
        // side only; on the root's side its slope counts. A unit whose
        // curve does not rise over its range (by more than `T` resolves)
        // gives back at its time what the window cannot hold.
        for ((x, m), end) in x.iter_mut().zip(models).zip(&ends) {
            let Some((first, last)) = *end else { continue };
            let flat = last - first <= 1e-12 * last.abs();
            if s > 0.0 && last == t && flat {
                let back = s.min(*x - lo);
                *x -= back;
                s -= back;
            } else if !flat && (s > 0.0 && last == t || s < 0.0 && first == t) {
                slope += 1.0 / m.total_d1(*x);
            }
        }
        if s.abs() <= 1e-13 * window {
            break;
        }
        *(if s < 0.0 { &mut below } else { &mut above }) = t;
        if above - below <= 1e-12 * t.abs() || t.is_nan() {
            break;
        }
        let inside = || times.iter().copied().filter(|&b| b > below && b < above);
        let newton = t - s / slope;
        let crossed = |b: f64| (b - t) * (newton - b) > 0.0;
        t = if newton > below && newton < above && !inside().any(crossed) {
            newton
        } else {
            let mid = 0.5 * (below + above);
            let nearest = |a: &f64, b: &f64| (a - mid).abs().total_cmp(&(b - mid).abs());
            inside().min_by(nearest).unwrap_or(mid)
        };
    }
    normalize(&mut x);
    (x, t, steps)
}

/// One-shot split proportional to the rate each unit achieves on an
/// equal share — what a weighted-average scheme in the style of Acosta
/// computes; the solver ablation's comparator, and the water-fill's
/// first guess. A curve extrapolated far beyond its probed range can go
/// non-positive, so the share retreats to smaller probes before the
/// split gives up on rates and goes uniform.
fn rate_proportional(models: &[&UnitModel], window: f64) -> Vec<f64> {
    let uniform = 1.0 / models.len() as f64;
    let probes = [uniform, uniform / 4.0, uniform / 16.0, uniform / 64.0];
    let mut x = (probes.iter())
        .find_map(|&probe| {
            let rates = models.iter().map(|m| {
                let t = m.total_time(probe * window);
                (t.is_finite() && t > 0.0).then(|| 1.0 / t)
            });
            rates.collect::<Option<Vec<f64>>>()
        })
        .unwrap_or_else(|| vec![uniform; models.len()]);
    normalize(&mut x);
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
        let r = select_block_sizes(&models, &[true, true], 100_000, 1, SolverChoice::Auto);
        assert!((r.fractions[0] - 0.25).abs() < 0.02, "{:?}", r.fractions);
        assert!((r.fractions[1] - 0.75).abs() < 0.02, "{:?}", r.fractions);
        assert_eq!(r.blocks.iter().sum::<u64>(), 100_000);
        assert_eq!(r.method, SelectionMethod::WaterFill);
        assert!(r.solve_seconds >= 0.0);
    }

    #[test]
    fn equalizes_finish_times() {
        let models = vec![
            linear_model(5e4, 0.01),
            linear_model(2e5, 0.002),
            linear_model(8e5, 0.001),
        ];
        let r = select_block_sizes(&models, &[true; 3], 1_000_000, 1, SolverChoice::Auto);
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
        let r = select_block_sizes(&models, &[false, true], 5000, 1, SolverChoice::Auto);
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
        let r = select_block_sizes(&models, &[true, false, true], 90_000, 1, SolverChoice::Auto);
        assert_eq!(r.blocks[1], 0);
        assert_eq!(r.blocks.iter().sum::<u64>(), 90_000);
        assert!((r.blocks[0] as f64 - 45_000.0).abs() < 2000.0);
    }

    #[test]
    fn granularity_respected_and_total_conserved() {
        let models = vec![linear_model(1e5, 0.0), linear_model(2e5, 0.0)];
        let r = select_block_sizes(&models, &[true, true], 10_000, 128, SolverChoice::Auto);
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
    fn fallback_when_curves_are_pathological() {
        // A model fitted on constant times: E(x) flat, so the paper's
        // equal-time constraints are degenerate in x. The flat unit's 0.5 s exceeds
        // what the linear unit takes for the whole window (0.1 s), so the
        // smallest makespan gives it nothing.
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800, 1600] {
            p.record(x, 0.5, 0.0);
        }
        let flat = p.fit().unwrap();
        let models = vec![flat, linear_model(1e5, 0.0)];
        let r = select_block_sizes(&models, &[true, true], 10_000, 1, SolverChoice::Auto);
        assert_eq!(r.blocks, [0, 10_000], "{:?}", r.method);
        assert!(
            (r.predicted_time - 0.1).abs() < 1e-6,
            "{}",
            r.predicted_time
        );
    }

    #[test]
    fn units_whose_intercept_exceeds_the_common_time_get_nothing() {
        // One unit takes the window in 0.1 s, and the other two cannot
        // start a block in under 0.5 s. The equal-finish equalities have
        // no nonnegative solution; the water-fill gives the fast unit
        // everything.
        let models = vec![
            linear_model(1e6, 0.0),
            linear_model(1e5, 0.5),
            linear_model(2e5, 0.8),
        ];
        let r = select_block_sizes(&models, &[true; 3], 100_000, 1, SolverChoice::Auto);
        assert_eq!(r.method, SelectionMethod::WaterFill);
        assert_eq!(r.method.name(), "water-fill");
        assert_eq!(r.blocks, [100_000, 0, 0]);
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

    /// One node's cold round of `sim-cluster` at seed 201509, met in
    /// every sweep: the equal-finish split is interior, x ≈ [0.9866,
    /// 0.0134], and the GPU's curve falls before it rises. The paper's
    /// interior point ran the GPU down to its floor there and its line
    /// search failed; the root answers it like any other round.
    #[test]
    fn the_root_answers_an_interior_optimum_the_interior_point_missed() {
        let models: Vec<UnitModel> = [CPU, GPU]
            .iter()
            .map(|json| serde_json::from_str(json).unwrap())
            .collect();
        let r = select_block_sizes(&models, &[true, true], 14_363_247, 1, SolverChoice::Auto);
        assert_eq!(r.method, SelectionMethod::WaterFill);
        assert!((r.fractions[1] - 0.0134).abs() < 1e-4, "{:?}", r.fractions);
        let (_, t) = bisection_fill(&models, 14_363_247.0);
        assert!(
            (r.predicted_time - t).abs() <= 1e-6 * t,
            "root {} s, bisection {t} s",
            r.predicted_time
        );
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
        let (x, t, steps) = water_fill(&models.iter().collect::<Vec<_>>(), 80_795.0);
        assert_eq!(apportion(&x, 80_795, 1), [80_795, 0, 0]);
        assert!((t - 2.1e-5).abs() < 1e-12, "{t}");
        // The root is where the fastest unit's flat line jumps to the
        // whole window: landed on, not halved down to.
        assert!(steps <= 3, "{steps} steps");
    }

    #[test]
    fn a_flat_unit_whose_time_is_the_root_takes_the_rest_of_the_window() {
        // A line that takes the window in 1 s and a unit that takes 0.5 s
        // for any block: below 0.5 s the line alone falls short, from 0.5
        // s on the flat unit would take the whole window. At 0.5 s the
        // flat unit takes what the line leaves.
        let flat = |t: f64| {
            let mut p = PerfProfile::new();
            for &x in &[1000u64, 2000, 4000, 8000] {
                p.record(x, t, 0.0);
            }
            p.fit_with(FitMode::LinearOnly).unwrap()
        };
        let models = [linear_model(1e5, 0.0), flat(0.5)];
        let (x, t, steps) = water_fill(&models.iter().collect::<Vec<_>>(), 100_000.0);
        assert_eq!(apportion(&x, 100_000, 1), [50_000, 50_000]);
        assert!((t - 0.5).abs() < 1e-12, "{t}");
        assert!(steps <= 4, "{steps} steps");
        // A curve that bends up, 20 µs + 3.5e-13 s·x², a flat unit at
        // 175 µs and a fast line that starts at 176 µs. A step from below
        // 175 µs aims far past it; from up there, with the flat unit's
        // whole window and the fast line's share in `S`, steps would crawl
        // back down. The step stops on the flat unit's time instead.
        let mut p = PerfProfile::new();
        for &x in &[2_000u64, 4_000, 8_000, 16_000, 32_000] {
            p.record(x, 2e-5 + 3.5e-13 * (x * x) as f64, 0.0);
        }
        let models = [p.fit().unwrap(), flat(1.75e-4), linear_model(1e8, 1.76e-4)];
        let (x, t, steps) = water_fill(&models.iter().collect::<Vec<_>>(), 75_805.0);
        let blocks = apportion(&x, 75_805, 1);
        assert!((blocks[0] as f64 - 21_044.0).abs() <= 1.0, "{blocks:?}");
        assert_eq!(blocks[2], 0, "{blocks:?}");
        assert!((t - 1.75e-4).abs() < 1e-12, "{t}");
        assert!(steps <= 4, "{steps} steps");
    }

    #[test]
    fn a_root_at_the_end_of_a_units_range_is_met_from_that_end() {
        // A concave curve, a + b·ln x, that takes the whole window in
        // 25 µs, beside a unit that cannot start a block in under 0.2 ms:
        // the root sits where the first fills the window but for the
        // second's floor, a hair below its whole-window time. Newton from
        // below overshoots past that time every step; from it, with the
        // curve's slope there, it lands.
        let mut p = PerfProfile::new();
        for &x in &[64u64, 128, 256, 512, 1024] {
            p.record(x, 6e-6 + 1.6e-6 * (x as f64).ln(), 0.0);
        }
        let log = p.fit_with(FitMode::LogOnly).unwrap();
        let models = [log, linear_model(1e9, 2e-4)];
        let window = 122_279.0;
        let (x, t, steps) = water_fill(&models.iter().collect::<Vec<_>>(), window);
        assert_eq!(apportion(&x, 122_279, 1), [122_279, 0]);
        assert!((t - models[0].total_time(window)).abs() < 1e-9 * t, "{t}");
        assert!(steps <= 4, "{steps} steps");
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
        let _ = select_block_sizes(&models, &[false], 100, 1, SolverChoice::Auto);
    }

    #[test]
    #[should_panic(expected = "empty selection")]
    fn zero_window_panics() {
        let models = vec![linear_model(1e5, 0.0)];
        let _ = select_block_sizes(&models, &[true], 0, 1, SolverChoice::Auto);
    }

    /// `E⁻¹(t)` on `[lo, hi]` as the bisection oracle takes it: the ends
    /// first, an affine model in closed form, any other bisected to
    /// within half a cost unit. Its own code, so the oracle shares
    /// nothing with [`UnitModel::invert`].
    fn bisect_invert(m: &UnitModel, t: f64, lo: f64, hi: f64) -> f64 {
        if m.total_time(hi) <= t {
            return hi;
        }
        if m.total_time(lo) >= t {
            return lo;
        }
        if m.is_affine() {
            return (lo + (t - m.total_time(lo)) / m.total_d1(lo)).clamp(lo, hi);
        }
        let (mut below, mut above) = (lo, hi);
        while above - below > 0.5 {
            let mid = 0.5 * (below + above);
            if m.total_time(mid) < t {
                below = mid;
            } else {
                above = mid;
            }
        }
        below
    }

    /// The water-fill by bisection on `T` until its bracket is within
    /// 1e-12 of it: the root's first reference. Returns the fractions of
    /// the window and `T`.
    fn bisection_fill(models: &[UnitModel], window: f64) -> (Vec<f64>, f64) {
        let lo = 1e-9 * window;
        let below = models.iter().map(|m| m.total_time(lo));
        let mut below = below.fold(f64::INFINITY, f64::min);
        let above = models.iter().map(|m| m.total_time(window));
        let mut above = above.fold(f64::NEG_INFINITY, f64::max);
        let blocks = |t: f64| -> Vec<f64> {
            let block = |m: &UnitModel| bisect_invert(m, t, lo, window);
            models.iter().map(block).collect()
        };
        while above - below > 1e-12 * above {
            let mid = 0.5 * (below + above);
            if blocks(mid).iter().sum::<f64>() < window {
                below = mid;
            } else {
                above = mid;
            }
        }
        let mut x = blocks(above);
        normalize(&mut x);
        (x, above)
    }

    /// A fitted unit model on the fraction domain of a `window`-cost-unit
    /// round, as the paper's NLP takes its curves.
    struct FracCurve {
        model: UnitModel,
        window: f64,
    }

    impl plb_ipm::nlp::Curve for FracCurve {
        fn value(&self, x: f64) -> f64 {
            self.model.total_time(x * self.window)
        }
        fn deriv1(&self, x: f64) -> f64 {
            self.window * self.model.total_d1(x * self.window)
        }
        fn deriv2(&self, x: f64) -> f64 {
            let cost = x * self.window;
            self.window * self.window * (self.model.f.d2(cost) + self.model.g.d2(cost))
        }
    }

    /// The common time of the paper's NLP, solved cold by the interior
    /// point: the root's second reference. `None` unless it reports
    /// `Optimal`.
    fn interior_point(models: &[UnitModel], window: f64) -> Option<f64> {
        let curves = models.iter().map(|m| {
            let model = m.clone();
            Box::new(FracCurve { model, window }) as plb_ipm::BoxedCurve
        });
        let nlp = plb_ipm::BlockPartitionNlp::new(curves.collect());
        let sol = plb_ipm::solve(&nlp, &plb_ipm::IpmOptions::default()).ok()?;
        (sol.status == plb_ipm::IpmStatus::Optimal).then(|| sol.x[models.len()])
    }

    /// Blocks a unit of the oracle's rounds is sized around, in cost
    /// units: large enough that the bisection's half-unit inversion is
    /// below the 1e-6 it is held to.
    const SCALE: f64 = 2e6;

    /// The fitted model of a device taking `overhead + x / rate` seconds
    /// for a block of `x`, bent by `kind`: 0 affine (fitted as a line,
    /// inverted in closed form), 1 convex and 2 concave (best-subset
    /// fits, inverted by Newton steps). `None` unless the fit clears the
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

        /// The root against its two references, on fitted curves that
        /// increase: its common time is the bisection's to 1e-6 (1e-12
        /// when every curve is affine, where both invert in closed form),
        /// and, where every unit gets more than the floor and the
        /// interior point reports `Optimal`, the interior point's to
        /// 1e-9. It takes a handful of steps. Half the rounds have 2 to 10 units, a quarter 500 and a
        /// quarter 5 000; units cycle through a pool of up to six
        /// devices, so a 5 000-unit round fits six curves. The large
        /// rounds run in the release profile only: unoptimized, one
        /// 5 000-unit round of best-subset curves took 9 s.
        #[test]
        fn the_root_agrees_with_the_bisection_and_the_interior_point(
            (size, small) in (0usize..4, 2usize..11),
            pool in proptest::collection::vec((0u8..3, 1e5f64..1e6, 0.0f64..2.0), 1..7),
        ) {
            let n = [small, small, 500, 5_000][size];
            proptest::prop_assume!(n <= 10 || !cfg!(debug_assertions));
            let window = n as f64 * SCALE;
            let affine = pool.iter().all(|&(kind, _, _)| kind == 0);
            let pool: Option<Vec<UnitModel>> = pool
                .iter()
                .map(|&(kind, rate, overhead)| oracle_model(kind, rate, overhead, window))
                .collect();
            proptest::prop_assume!(pool.is_some());
            let pool = pool.unwrap_or_default();
            let models: Vec<UnitModel> = pool.iter().cycle().take(n).cloned().collect();
            let r = select_block_sizes(&models, &vec![true; n], window as u64, 1, SolverChoice::Auto);
            proptest::prop_assert_eq!(r.method, SelectionMethod::WaterFill);
            proptest::prop_assert!(r.iterations <= 8, "{} steps", r.iterations);
            let (fractions, t) = bisection_fill(&models, window);
            let tolerance = if affine { 1e-12 } else { 1e-6 };
            proptest::prop_assert!(
                (r.predicted_time - t).abs() <= tolerance * t,
                "n = {}: root {} s, bisection {} s",
                n,
                r.predicted_time,
                t
            );
            if fractions.iter().all(|&f| f * window > 1.0) {
                if let Some(t) = interior_point(&models, window) {
                    proptest::prop_assert!(
                        (r.predicted_time - t).abs() <= 1e-9 * t,
                        "n = {}: root {} s, interior point {} s",
                        n,
                        r.predicted_time,
                        t
                    );
                }
            }
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
        let r = select_block_sizes(&[gpu, cpu], &[true, true], 500_000, 1, SolverChoice::Auto);
        assert!(
            r.fractions[0] > 0.7,
            "GPU should dominate at this window: {:?} ({:?})",
            r.fractions,
            r.method
        );
    }
}
