//! The PLB-HeC block-size selection NLP (paper Section III-C).
//!
//! Given fitted per-processing-unit execution-time curves
//! `E_g(x) = F_g(x) + G_g(x)` defined on the *fraction* of the input
//! assigned to unit `g`, find the fractions that equalize finish times:
//!
//! ```text
//! minimize    T
//! subject to  E_g(x_g) − T = 0        for g = 1..n   (Equation 4)
//!             Σ_g x_g − 1 = 0                         (Equation 3)
//!             x_g ≥ x_min,  T ≥ 0
//! ```
//!
//! Minimizing the common time `T` while forcing all units to finish
//! together is exactly the paper's formulation: "minimizes E_1(x_1) while
//! satisfying the constraint E_1 = E_2 = ... = E_n".
//!
//! The KKT system has *arrow* shape: each `E_g` couples `x_g` only to
//! the shared `T`, the simplex row is all ones, and the Lagrangian
//! Hessian is diagonal. [`crate::kkt::solve_kkt_arrow`] eliminates it in
//! O(n).

use crate::nlp::BoxedCurve;

/// Smallest admissible fraction per unit. Strictly positive so the
/// logarithmic barrier is defined; practically zero work.
pub const X_MIN: f64 = 1e-9;

/// The block-partition NLP over `n` processing units.
///
/// Decision vector layout: `[x_1, ..., x_n, T]`.
///
/// ```
/// use plb_ipm::nlp::FnCurve;
/// use plb_ipm::{solve, BlockPartitionNlp, BoxedCurve, IpmOptions};
///
/// // Two linear devices, one 3x faster than the other.
/// let slow: BoxedCurve = Box::new(FnCurve::new(|x| x / 1.0, |_| 1.0, |_| 0.0));
/// let fast: BoxedCurve = Box::new(FnCurve::new(|x| x / 3.0, |_| 1.0 / 3.0, |_| 0.0));
/// let nlp = BlockPartitionNlp::new(vec![slow, fast]);
/// let sol = solve(&nlp, &IpmOptions::default()).unwrap();
/// // Equal finish times => fractions proportional to the rates.
/// assert!((sol.x[0] - 0.25).abs() < 1e-4);
/// assert!((sol.x[1] - 0.75).abs() < 1e-4);
/// ```
pub struct BlockPartitionNlp {
    curves: Vec<BoxedCurve>,
}

impl BlockPartitionNlp {
    /// Build the problem from per-unit execution-time curves on the
    /// fraction domain `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `curves` is empty.
    pub fn new(curves: Vec<BoxedCurve>) -> Self {
        assert!(!curves.is_empty(), "need at least one processing unit");
        BlockPartitionNlp { curves }
    }

    /// Number of processing units.
    pub fn units(&self) -> usize {
        self.curves.len()
    }

    /// Evaluate unit `g`'s execution-time curve at fraction `x`.
    pub fn unit_time(&self, g: usize, x: f64) -> f64 {
        self.curves[g].value(x)
    }

    /// Inverse-rate warm start: `x_g ∝ 1 / E_g(1/n)`, i.e. faster units
    /// (lower predicted time on an equal share) get proportionally more.
    /// Falls back to the uniform split if any curve misbehaves.
    pub fn warm_start_fractions(&self) -> Vec<f64> {
        let n = self.curves.len();
        let uniform = 1.0 / n as f64;
        // Fitted curves extrapolated far beyond their probed range can
        // go non-positive; retreat to smaller probe fractions before
        // giving up on the inverse-rate heuristic entirely.
        for probe in [uniform, uniform / 4.0, uniform / 16.0, uniform / 64.0] {
            let mut inv: Vec<f64> = self
                .curves
                .iter()
                .map(|c| {
                    let t = c.value(probe);
                    if t.is_finite() && t > 0.0 {
                        1.0 / t
                    } else {
                        -1.0
                    }
                })
                .collect();
            if inv.iter().all(|&v| v > 0.0) {
                let s: f64 = inv.iter().sum();
                for v in &mut inv {
                    *v /= s;
                }
                return inv;
            }
        }
        vec![uniform; n]
    }

    /// The equality residuals at `x = [x_1, ..., x_n, T]`: `E_g(x_g) − T`
    /// for each unit, then the simplex row `Σ_g x_g − 1`.
    pub(crate) fn constraints(&self, x: &[f64], c: &mut [f64]) {
        let n = self.curves.len();
        let t = x[n];
        for (g, curve) in self.curves.iter().enumerate() {
            c[g] = curve.value(x[g]) - t;
        }
        c[n] = x[..n].iter().sum::<f64>() - 1.0;
    }

    /// `x_g ≥ X_MIN` for every fraction, `T ≥ 0`.
    pub(crate) fn lower_bounds(&self) -> Vec<f64> {
        let n = self.curves.len();
        let mut lb = vec![X_MIN; n + 1];
        lb[n] = 0.0;
        lb
    }

    /// The cold start: the inverse-rate fractions, equalized, and `T` at
    /// the largest predicted time.
    pub(crate) fn initial_point(&self) -> Vec<f64> {
        let mut fractions = self.warm_start_fractions();
        // Equalize the predicted times before handing the point to the
        // interior-point solver. The inverse-rate guess alone leaves
        // the equal-time constraints violated by the overhead spread —
        // an infeasibility that grows *linearly* with k and stalls the
        // filter line search on large rosters. A few Newton steps on
        // the feasibility system (linearized E_g(x_g) = T plus the
        // simplex row, solved in closed form through the same arrow
        // structure the KKT path uses) start the solve nearly feasible
        // at any scale.
        for _ in 0..8 {
            let mut sum_inv_d = 0.0; // Σ 1/E'_g
            let mut sum_e_over_d = 0.0; // Σ E_g/E'_g
            let mut sum_x = 0.0;
            let mut ok = true;
            for (g, curve) in self.curves.iter().enumerate() {
                let e = curve.value(fractions[g]);
                let d = curve.deriv1(fractions[g]);
                if !(e.is_finite() && d.is_finite()) || d <= 0.0 {
                    ok = false;
                    break;
                }
                sum_inv_d += 1.0 / d;
                sum_e_over_d += e / d;
                sum_x += fractions[g];
            }
            if !ok || sum_inv_d <= 0.0 {
                break;
            }
            // From E_g + E'_g·Δx_g = T and Σ(x_g + Δx_g) = 1:
            let t = (1.0 - sum_x + sum_e_over_d) / sum_inv_d;
            let mut moved = 0.0f64;
            for (g, curve) in self.curves.iter().enumerate() {
                let e = curve.value(fractions[g]);
                let d = curve.deriv1(fractions[g]);
                let next = (fractions[g] + (t - e) / d).max(X_MIN * 2.0);
                moved = moved.max((next - fractions[g]).abs());
                fractions[g] = next;
            }
            if moved < 1e-12 {
                break;
            }
        }
        // Start T at the max predicted time so every equal-time
        // residual begins ≤ 0 (tiny, after the equalization above).
        let t0 = fractions
            .iter()
            .enumerate()
            .map(|(g, &f)| self.curves[g].value(f))
            .fold(0.0f64, |a, v| a.max(if v.is_finite() { v } else { 0.0 }))
            .max(1e-6);
        let mut x = fractions;
        x.push(t0);
        x
    }

    /// The Jacobian's one free entry per unit, `jac_diag[g] = E′_g(x_g)`:
    /// row `g` also holds `−1` on `T`, and the simplex row is all ones.
    /// `false` when an `E′_g` is not finite.
    pub(crate) fn jac_diag(&self, x: &[f64], jac_diag: &mut [f64]) -> bool {
        for (g, curve) in self.curves.iter().enumerate() {
            let d1 = curve.deriv1(x[g]);
            if !d1.is_finite() {
                return false;
            }
            jac_diag[g] = d1;
        }
        true
    }

    /// The Lagrangian Hessian, diagonal: the objective `T` and the simplex
    /// row are linear, so only `λ_g·E″_g(x_g)` remains, and `T`'s entry is
    /// 0. `false` when an `E″_g` is not finite.
    pub(crate) fn hess_diag(&self, x: &[f64], lambda: &[f64], hess_diag: &mut [f64]) -> bool {
        let k = self.curves.len();
        for (g, curve) in self.curves.iter().enumerate() {
            let d2 = curve.deriv2(x[g]);
            if !d2.is_finite() {
                return false;
            }
            hess_diag[g] = lambda[g] * d2;
        }
        hess_diag[k] = 0.0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nlp::FnCurve;
    use crate::solver::{solve, IpmOptions, IpmStatus};

    fn linear_curve(rate: f64) -> BoxedCurve {
        // time = x / rate (linear device, no overhead)
        Box::new(FnCurve::new(
            move |x: f64| x / rate,
            move |_| 1.0 / rate,
            |_| 0.0,
        ))
    }

    #[test]
    fn two_equal_units_split_evenly() {
        let nlp = BlockPartitionNlp::new(vec![linear_curve(1.0), linear_curve(1.0)]);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!((sol.x[0] - 0.5).abs() < 1e-5, "{:?}", sol.x);
        assert!((sol.x[1] - 0.5).abs() < 1e-5, "{:?}", sol.x);
    }

    #[test]
    fn rates_proportional_split_for_linear_devices() {
        // Rates 1 : 3 → fractions 0.25 : 0.75, T = 0.25.
        let nlp = BlockPartitionNlp::new(vec![linear_curve(1.0), linear_curve(3.0)]);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!((sol.x[0] - 0.25).abs() < 1e-5, "{:?}", sol.x);
        assert!((sol.x[1] - 0.75).abs() < 1e-5, "{:?}", sol.x);
        assert!((sol.x[2] - 0.25).abs() < 1e-5, "T = {}", sol.x[2]);
    }

    #[test]
    fn equal_time_constraint_holds_for_nonlinear_curves() {
        // GPU-like sublinear device vs CPU-like linear device.
        let gpu: BoxedCurve = Box::new(FnCurve::new(
            |x: f64| 0.05 + 0.3 * x + 0.1 * x * x,
            |x: f64| 0.3 + 0.2 * x,
            |_| 0.2,
        ));
        let cpu = linear_curve(0.8);
        let nlp = BlockPartitionNlp::new(vec![gpu, cpu]);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert!(sol.constraint_violation < 1e-6, "{:?}", sol);
        let t0 = nlp.unit_time(0, sol.x[0]);
        let t1 = nlp.unit_time(1, sol.x[1]);
        assert!((t0 - t1).abs() < 1e-5, "times {t0} vs {t1}");
        assert!((sol.x[0] + sol.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn four_heterogeneous_units() {
        let rates = [1.0, 2.5, 4.0, 8.0];
        let nlp = BlockPartitionNlp::new(rates.iter().map(|&r| linear_curve(r)).collect());
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        let total: f64 = rates.iter().sum();
        for (g, &r) in rates.iter().enumerate() {
            assert!(
                (sol.x[g] - r / total).abs() < 1e-4,
                "unit {g}: {} vs {}",
                sol.x[g],
                r / total
            );
        }
    }

    #[test]
    fn warm_start_favors_fast_units() {
        let nlp = BlockPartitionNlp::new(vec![linear_curve(1.0), linear_curve(9.0)]);
        let ws = nlp.warm_start_fractions();
        assert!(ws[1] > ws[0]);
        assert!((ws.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warm_start_handles_bad_curves() {
        let bad: BoxedCurve = Box::new(FnCurve::new(|_| f64::NAN, |_| 0.0, |_| 0.0));
        let nlp = BlockPartitionNlp::new(vec![bad, linear_curve(1.0)]);
        let ws = nlp.warm_start_fractions();
        assert_eq!(ws, vec![0.5, 0.5]);
    }

    #[test]
    fn fractions_remain_strictly_positive_with_extreme_heterogeneity() {
        // 1000x spread: slow device gets a tiny but positive share.
        let nlp = BlockPartitionNlp::new(vec![linear_curve(0.001), linear_curve(1.0)]);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert!(sol.x[0] >= X_MIN);
        assert!(sol.x[0] < 0.01);
        assert!((sol.x[0] + sol.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_units_panics() {
        BlockPartitionNlp::new(vec![]);
    }

    /// The arrow path makes a 500-unit selection tractable in a unit
    /// test; the split must still be rate-proportional.
    #[test]
    fn five_hundred_units_solve_via_arrow_path() {
        let rates: Vec<f64> = (0..500).map(|g| 1.0 + (g % 17) as f64 * 0.5).collect();
        let nlp = BlockPartitionNlp::new(rates.iter().map(|&r| linear_curve(r)).collect());
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert!(sol.is_usable(1e-6), "{:?}", sol.status);
        let total: f64 = rates.iter().sum();
        for (g, &r) in rates.iter().enumerate().step_by(97) {
            assert!(
                (sol.x[g] - r / total).abs() < 1e-5,
                "unit {g}: {} vs {}",
                sol.x[g],
                r / total
            );
        }
    }

    /// `n` units of 64 speed grades and three fixed overheads, with a
    /// `quad` term, their rates scaled by `drift`: the selection problem
    /// `plbmark` times, its times O(1 s) at any `n`.
    fn graded(n: usize, quad: f64, drift: f64) -> BlockPartitionNlp {
        let k = n as f64;
        let curves = (0..n)
            .map(|g| {
                let rate = (1.0 + (g % 64) as f64 * 0.25) * drift;
                let overhead = 0.01 * (1 + g % 3) as f64;
                Box::new(FnCurve::new(
                    move |x: f64| overhead + x * k / rate + quad * (x * k) * (x * k),
                    move |x: f64| k / rate + 2.0 * quad * k * (x * k),
                    move |_| 2.0 * quad * k * k,
                )) as BoxedCurve
            })
            .collect();
        BlockPartitionNlp::new(curves)
    }

    /// Affine curves make the start's equalization exact, so the first
    /// iterate is feasible to rounding. The φ test's margin then asked
    /// more than any step could give: without the Armijo test this took
    /// 10 iterations and 81 backtracks. With it, every step is full.
    #[test]
    fn an_exactly_feasible_start_takes_full_steps() {
        let nlp = graded(450, 0.0, 1.0);
        let mut c = vec![0.0; nlp.units() + 1];
        nlp.constraints(&nlp.initial_point(), &mut c);
        let theta: f64 = c.iter().map(|v| v.abs()).sum();
        assert!(theta <= 1e-12, "θ = {theta}");
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!(sol.iterations <= 8, "{} iterations", sol.iterations);
        let backtracks: usize = sol.iteration_log.iter().map(|r| r.backtracks).sum();
        assert_eq!(backtracks, 0);
    }

    /// The rebalance case: curves drift 3 % and the split is solved
    /// again from the old optimum, in the two iterations it took before
    /// the Armijo test, to the cold solve's point.
    #[test]
    fn a_warm_resolve_still_takes_two_iterations() {
        let opts = IpmOptions::default();
        let old = solve(&graded(10, 0.05, 1.0), &opts).unwrap();
        let warm = crate::solver::WarmStart::from_solution(&old);
        let drifted = graded(10, 0.05, 1.03);
        let again = crate::solver::solve_warm(&drifted, &opts, Some(&warm)).unwrap();
        let cold = solve(&drifted, &opts).unwrap();
        assert_eq!((again.status, again.iterations), (IpmStatus::Optimal, 2));
        for (w, c) in again.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9, "{w} vs {c}");
        }
    }

    /// A curve that goes non-finite declines its derivatives, which the
    /// solver turns into `IpmError::NumericalBreakdown` rather than
    /// poison the solve.
    #[test]
    fn non_finite_derivatives_are_declined() {
        let weird: BoxedCurve = Box::new(FnCurve::new(|x: f64| x * 2.0, |_| f64::NAN, |_| 0.0));
        let nlp = BlockPartitionNlp::new(vec![weird, linear_curve(1.0)]);
        let mut jd = vec![0.0; 2];
        assert!(!nlp.jac_diag(&[0.5, 0.5, 1.0], &mut jd));
        let curved: BoxedCurve = Box::new(FnCurve::new(|x: f64| x * 2.0, |_| 2.0, |_| f64::NAN));
        let nlp = BlockPartitionNlp::new(vec![curved, linear_curve(1.0)]);
        let mut hd = vec![0.0; 3];
        assert!(nlp.jac_diag(&[0.5, 0.5, 1.0], &mut jd));
        assert!(!nlp.hess_diag(&[0.5, 0.5, 1.0], &[0.0; 3], &mut hd));
    }

    #[test]
    fn single_unit_gets_everything() {
        let nlp = BlockPartitionNlp::new(vec![linear_curve(2.0)]);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-6, "{:?}", sol.x);
        assert!((sol.x[1] - 0.5).abs() < 1e-5, "T = {}", sol.x[1]);
    }
}
