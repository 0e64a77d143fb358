//! The primal-dual interior-point solver on the block-partition NLP:
//! barrier loop, filter line search, fraction-to-boundary rule, and the
//! monotone (Fiacco–McCormick) barrier update IPOPT uses by default.

use crate::filter::Filter;
use crate::kkt::{solve_kkt_arrow_into, ArrowKktInputs, ArrowWorkspace, KktStep};
use crate::problem::BlockPartitionNlp;

/// Holds no setting: every solver value is one of this module's
/// constants. Kept so that callers' `solve(&nlp, &IpmOptions::default())`
/// compiles unchanged.
#[derive(Debug, Clone, Default)]
pub struct IpmOptions {}

/// Termination status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpmStatus {
    /// KKT error below tolerance.
    Optimal,
    /// Iteration cap reached; iterate returned may still be usable.
    MaxIterations,
    /// The filter line search could not make progress.
    LineSearchFailure,
}

impl IpmStatus {
    /// Short machine name of the status (used in trace events).
    pub fn name(&self) -> &'static str {
        match self {
            IpmStatus::Optimal => "optimal",
            IpmStatus::MaxIterations => "max_iterations",
            IpmStatus::LineSearchFailure => "line_search_failure",
        }
    }
}

/// One outer iteration of a solve, recorded for observability (this
/// crate stays dependency-free; serialization happens at the event
/// layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iter: usize,
    /// Barrier parameter μ used for this iteration's step.
    pub mu: f64,
    /// Unperturbed KKT error at the iterate before stepping.
    pub kkt_error: f64,
    /// Constraint violation θ = ‖c(x)‖₁ before stepping.
    pub theta: f64,
    /// Barrier merit φ before stepping.
    pub phi: f64,
    /// Accepted primal step length (0 when the line search failed).
    pub alpha: f64,
    /// Filter rejections before acceptance (or before giving up).
    pub backtracks: usize,
    /// Whether the filter accepted a step this iteration.
    pub accepted: bool,
}

/// A solver result.
#[derive(Debug, Clone)]
#[must_use = "a Solution must be checked (`is_usable`/`status`) before its point is trusted"]
pub struct Solution {
    /// Final primal point `[x_1, ..., x_n, T]`.
    pub x: Vec<f64>,
    /// Final equality multipliers.
    pub lambda: Vec<f64>,
    /// Final bound multipliers.
    pub z: Vec<f64>,
    /// Objective at `x`: the common finish time `T`.
    pub objective: f64,
    /// Unperturbed KKT error at `x`.
    pub kkt_error: f64,
    /// Constraint violation ‖c(x)‖∞ at `x`.
    pub constraint_violation: f64,
    /// Iterations used.
    pub iterations: usize,
    /// How the solver stopped.
    pub status: IpmStatus,
    /// Per-iteration log, one record per iteration taken.
    pub iteration_log: Vec<IterationRecord>,
}

impl Solution {
    /// True when the point is usable: optimal, or stopped early but with
    /// small constraint violation and finite values.
    pub fn is_usable(&self, feas_tol: f64) -> bool {
        self.x.iter().all(|v| v.is_finite()) && self.constraint_violation <= feas_tol
    }
}

/// Hard errors (numerics, not convergence).
#[derive(Debug, Clone)]
pub enum IpmError {
    /// A curve's derivative was not finite at a point the solve
    /// evaluated, or the KKT solve failed even at maximum
    /// regularization.
    NumericalBreakdown(String),
}

impl std::fmt::Display for IpmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpmError::NumericalBreakdown(s) => write!(f, "numerical breakdown: {s}"),
        }
    }
}

impl std::error::Error for IpmError {}

fn non_finite(derivative: &str) -> IpmError {
    IpmError::NumericalBreakdown(format!("non-finite {derivative} on a unit's curve"))
}

/// Convergence tolerance on the unperturbed KKT error.
const TOL: f64 = 1e-8;
/// Iteration cap.
const MAX_ITER: usize = 200;
/// Barrier parameter μ of a cold start.
const MU_INIT: f64 = 0.1;
/// Fraction-to-boundary parameter τ: a step keeps `1 − τ` of the slack.
const TAU: f64 = 0.995;
/// Step halvings per line search.
const MAX_BACKTRACKS: usize = 30;
const KAPPA_EPS: f64 = 10.0;
const KAPPA_MU: f64 = 0.2;
const THETA_MU: f64 = 1.5;
const KAPPA_SIGMA: f64 = 1e10;
const ALPHA_MIN: f64 = 1e-12;
/// Constraint violation at or below which an iterate counts as
/// feasible: the level of rounding in `c(x)`, where a test that θ
/// shrinks measures only the rounding.
const THETA_FEASIBLE: f64 = 1e-12;
/// IPOPT's η_φ: the share of the predicted barrier decrease an Armijo
/// step must deliver.
const ETA_PHI: f64 = 1e-8;

/// One evaluated point: its constraints and its Jacobian, held as `jd`,
/// the `k` per-unit diagonal entries (the `-1` column on `T` and the
/// all-ones simplex row are implied by the structure, so they are never
/// materialized). A solve holds two, the iterate and the line search's
/// trial point, and evaluates into them in place, so no point
/// allocates.
struct Eval {
    c: Vec<f64>,
    jd: Vec<f64>,
}

impl Eval {
    fn new(k: usize) -> Eval {
        Eval {
            c: vec![0.0; k + 1],
            jd: vec![0.0; k],
        }
    }

    /// Evaluate `p` at `x`. The Jacobian diagonal is computed here and
    /// nowhere else; the Hessian diagonal, the one coefficient that
    /// needs the multipliers, is left to the iteration's KKT solve.
    fn at(&mut self, p: &BlockPartitionNlp, x: &[f64]) -> Result<(), IpmError> {
        p.constraints(x, &mut self.c);
        if p.jac_diag(x, &mut self.jd) {
            Ok(())
        } else {
            Err(non_finite("E′"))
        }
    }
}

/// `Jᵀλ` in O(n): `jd_g·λ_g + ν` for each unit (its own row plus the
/// simplex row's multiplier `ν`), and `−Σ λ_g` for `T`.
fn jt_lambda(jd: &[f64], lambda: &[f64]) -> Vec<f64> {
    let k = jd.len();
    let mut out = vec![0.0; k + 1];
    let nu = lambda[k];
    let mut sum = 0.0;
    for g in 0..k {
        out[g] = jd[g] * lambda[g] + nu;
        sum += lambda[g];
    }
    out[k] = -sum;
    out
}

fn theta(c: &[f64]) -> f64 {
    c.iter().map(|v| v.abs()).sum()
}

fn barrier_phi(f: f64, x: &[f64], lb: &[f64], mu: f64) -> f64 {
    let mut phi = f;
    for i in 0..x.len() {
        let d = x[i] - lb[i];
        if d <= 0.0 {
            return f64::INFINITY;
        }
        phi -= mu * d.ln();
    }
    phi
}

/// `∇φᵀd`: the slope of the barrier merit along the primal step `dx`.
fn barrier_slope(grad: &[f64], x: &[f64], lb: &[f64], dx: &[f64], mu: f64) -> f64 {
    let mut slope = 0.0;
    for i in 0..x.len() {
        slope += (grad[i] - mu / (x[i] - lb[i])) * dx[i];
    }
    slope
}

/// Unperturbed (μ = 0) KKT error: stationarity, feasibility,
/// complementarity.
fn kkt_error(
    ev: &Eval,
    grad: &[f64],
    x: &[f64],
    lb: &[f64],
    z: &[f64],
    lambda: &[f64],
    mu: f64,
) -> f64 {
    let n = x.len();
    let jt_lambda = jt_lambda(&ev.jd, lambda);
    let mut stat = 0.0f64;
    for i in 0..n {
        stat = stat.max((grad[i] + jt_lambda[i] - z[i]).abs());
    }
    let feas = ev.c.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut compl = 0.0f64;
    for i in 0..n {
        compl = compl.max(((x[i] - lb[i]) * z[i] - mu).abs());
    }
    // Scale stationarity by the multiplier magnitude (IPOPT's s_d) so
    // huge multipliers don't keep a converged point "unconverged".
    let zl: f64 =
        z.iter().map(|v| v.abs()).sum::<f64>() + lambda.iter().map(|v| v.abs()).sum::<f64>();
    let s_d = ((zl / ((n + lambda.len()).max(1) as f64)) / 100.0).max(1.0);
    (stat / s_d).max(feas).max(compl)
}

/// Largest step in `[0, 1]` keeping `v + α dv ≥ (1 − τ)·v` element-wise
/// distance to the bound (the fraction-to-boundary rule).
fn max_step(v: &[f64], lb: &[f64], dv: &[f64]) -> f64 {
    let mut alpha: f64 = 1.0;
    for i in 0..v.len() {
        if dv[i] < 0.0 {
            let slack = v[i] - lb[i];
            let a = -TAU * slack / dv[i];
            alpha = alpha.min(a);
        }
    }
    alpha.clamp(0.0, 1.0)
}

/// A previous optimum used to seed a re-solve of the same-shaped
/// problem, as happens on every PLB-HeC rebalance: the live-unit set is
/// unchanged, the fitted curves drifted slightly, so the old primal and
/// dual point is an excellent start. Built with
/// [`WarmStart::from_solution`]; consumed by [`solve_warm`].
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Previous primal point, length `n`.
    pub x: Vec<f64>,
    /// Previous equality multipliers, length `m`.
    pub lambda: Vec<f64>,
    /// Previous bound multipliers, length `n`.
    pub z: Vec<f64>,
}

impl WarmStart {
    /// Capture the warm-start state of a finished solve.
    pub fn from_solution(sol: &Solution) -> Self {
        WarmStart {
            x: sol.x.clone(),
            lambda: sol.lambda.clone(),
            z: sol.z.clone(),
        }
    }

    fn usable_for(&self, n: usize, m: usize) -> bool {
        self.x.len() == n
            && self.lambda.len() == m
            && self.z.len() == n
            && self.x.iter().all(|v| v.is_finite())
            && self.lambda.iter().all(|v| v.is_finite())
            && self.z.iter().all(|v| v.is_finite())
    }
}

/// Solve the block-partition NLP with the interior-point filter method.
pub fn solve(problem: &BlockPartitionNlp, opts: &IpmOptions) -> Result<Solution, IpmError> {
    solve_warm(problem, opts, None)
}

/// [`solve`], optionally seeded with the previous optimum.
///
/// A usable warm start replaces the problem's cold start with the
/// previous primal point (pushed strictly inside the bounds), keeps the
/// previous multipliers, and starts the barrier parameter from the
/// carried complementarity instead of the cold start's μ — so a
/// re-solve after a small model drift converges in a handful of
/// iterations. A warm start whose dimensions do not match the problem
/// (the live-unit set changed) or that contains non-finite values is
/// silently ignored and the solve proceeds cold; warm starting is an
/// optimization, never a correctness requirement.
///
/// A non-finite `E′` at any point the solve evaluates, or a non-finite
/// `E″` at an iterate, ends the solve with
/// [`IpmError::NumericalBreakdown`].
pub fn solve_warm(
    problem: &BlockPartitionNlp,
    _opts: &IpmOptions,
    warm: Option<&WarmStart>,
) -> Result<Solution, IpmError> {
    // `[x_1, ..., x_k, T]` against the `k` equal-time rows and the
    // simplex row.
    let k = problem.units();
    let (n, m) = (k + 1, k + 1);
    let lb = problem.lower_bounds();
    let warm = warm.filter(|w| w.usable_for(n, m));

    // Push the start strictly inside the bounds.
    let mut x = match warm {
        Some(w) => w.x.clone(),
        None => problem.initial_point(),
    };
    for i in 0..n {
        let margin = 1e-4 * (1.0 + lb[i].abs());
        if x[i] < lb[i] + margin {
            x[i] = lb[i] + margin;
        }
    }

    let (mut mu, mut z, mut lambda) = match warm {
        Some(w) => {
            let z: Vec<f64> = w.z.iter().map(|&v| v.max(1e-8)).collect();
            // Resume the barrier from the carried complementarity, not
            // from MU_INIT: near an old optimum this starts μ small and
            // skips the whole early barrier schedule.
            let avg = (0..n).map(|i| (x[i] - lb[i]) * z[i]).sum::<f64>() / n as f64;
            let mu = avg.clamp(TOL / 10.0, MU_INIT);
            (mu, z, w.lambda.clone())
        }
        None => {
            let mu = MU_INIT;
            let z = (0..n).map(|i| mu / (x[i] - lb[i])).collect();
            (mu, z, vec![0.0; m])
        }
    };

    // The objective is `T`, the last entry: its gradient is `e_T`.
    let mut grad = vec![0.0; n];
    grad[k] = 1.0;
    let mut ev = Eval::new(k);
    ev.at(problem, &x)?;
    let mut trial = Eval::new(k);
    let mut x_trial = vec![0.0; n];
    let zeros = vec![0.0; n];
    let mut filter = Filter::new((theta(&ev.c) * 1e4).max(1.0));
    let mut hd = vec![0.0; n];
    let mut arrow_ws = ArrowWorkspace::new();
    let mut step = KktStep {
        dx: Vec::new(),
        dlambda: Vec::new(),
        dz: Vec::new(),
        delta: 0.0,
    };
    let mut ls_failures = 0usize;
    let mut log: Vec<IterationRecord> = Vec::new();

    let (status, iterations) = 'solve: {
        for iter in 0..MAX_ITER {
            let err0 = kkt_error(&ev, &grad, &x, &lb, &z, &lambda, 0.0);
            if err0 < TOL {
                break 'solve (IpmStatus::Optimal, iter);
            }

            // Monotone barrier update: hold μ until the barrier KKT
            // error is below κ_ε·μ, then shrink superlinearly.
            let err_mu = kkt_error(&ev, &grad, &x, &lb, &z, &lambda, mu);
            if err_mu < KAPPA_EPS * mu {
                let new_mu = (KAPPA_MU * mu).min(mu.powf(THETA_MU)).max(TOL / 10.0);
                if new_mu < mu {
                    mu = new_mu;
                    filter.clear();
                }
            }

            // KKT step by the O(n) arrow elimination.
            if !problem.hess_diag(&x, &lambda, &mut hd) {
                return Err(non_finite("E″"));
            }
            solve_kkt_arrow_into(
                &ArrowKktInputs {
                    hess_diag: &hd,
                    jac_diag: &ev.jd,
                    grad: &grad,
                    c: &ev.c,
                    x: &x,
                    lb: &lb,
                    z: &z,
                    lambda: &lambda,
                    mu,
                },
                &mut arrow_ws,
                &mut step,
            )
            .map_err(|e| IpmError::NumericalBreakdown(e.to_string()))?;

            let alpha_pri_max = max_step(&x, &lb, &step.dx);
            let alpha_dual_max = max_step(&z, &zeros, &step.dz);

            // Filter line search on the primal step.
            let theta_cur = theta(&ev.c);
            let phi_cur = barrier_phi(x[k], &x, &lb, mu);
            // A feasible iterate may also pass on the standard Armijo test:
            // the barrier merit falls by a share of what the step's slope
            // ∇φᵀd predicts. Without it, θ at rounding level left only the
            // φ test's margin of 1e-8·|φ| — ≈ 3e-6 at n = 450 and μ = 0.1,
            // more than any step could deliver — and the search halved α
            // until rounding happened to shave θ. A rise of φ at its own
            // rounding level is no rise (IPOPT's comparison), and a
            // direction that is not a descent one must not raise φ.
            let feasible = theta_cur <= THETA_FEASIBLE;
            let slope = if feasible {
                barrier_slope(&grad, &x, &lb, &step.dx, mu).min(0.0)
            } else {
                0.0
            };
            let mut alpha = alpha_pri_max;
            let mut accepted = false;
            let mut backtracks = 0usize;
            for _ in 0..=MAX_BACKTRACKS {
                if alpha < ALPHA_MIN {
                    break;
                }
                for i in 0..n {
                    x_trial[i] = x[i] + alpha * step.dx[i];
                }
                trial.at(problem, &x_trial)?;
                let theta_t = theta(&trial.c);
                let phi_t = barrier_phi(x_trial[k], &x_trial, &lb, mu);
                let armijo = || {
                    phi_t - (phi_cur + ETA_PHI * alpha * slope)
                        <= 10.0 * f64::EPSILON * phi_cur.abs()
                };
                let improves = theta_t < (1.0 - 1e-5) * theta_cur
                    || phi_t < phi_cur - 1e-8 * phi_cur.abs().max(1.0)
                    || feasible && armijo();
                if filter.acceptable(theta_t, phi_t) && improves {
                    // θ-type acceptance: remember the pair so we cannot cycle.
                    if phi_t >= phi_cur - 1e-8 {
                        filter.add(theta_cur, phi_cur);
                    }
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
                backtracks += 1;
            }

            // Near-optimal rescue: once θ sits at machine level the filter's
            // relative improvement margins can exceed the attainable merit
            // decrease, stalling one small step short of tolerance. In that
            // regime the unperturbed KKT error is the right merit: accept
            // the full fraction-to-boundary step if it cuts the error by at
            // least 10% (geometric decrease, so this terminates).
            if !accepted && theta_cur <= 1e-8 {
                alpha = alpha_pri_max;
                for i in 0..n {
                    x_trial[i] = x[i] + alpha * step.dx[i];
                }
                trial.at(problem, &x_trial)?;
                let mut lambda_t = lambda.clone();
                for j in 0..m {
                    lambda_t[j] += alpha * step.dlambda[j];
                }
                let mut z_t = z.clone();
                for i in 0..n {
                    z_t[i] = (z_t[i] + alpha_dual_max * step.dz[i]).max(1e-300);
                }
                let err_t = kkt_error(&trial, &grad, &x_trial, &lb, &z_t, &lambda_t, 0.0);
                if err_t < 0.9 * err0 {
                    accepted = true;
                }
            }

            log.push(IterationRecord {
                iter,
                mu,
                kkt_error: err0,
                theta: theta_cur,
                phi: phi_cur,
                alpha: if accepted { alpha } else { 0.0 },
                backtracks,
                accepted,
            });

            if !accepted {
                ls_failures += 1;
                if ls_failures >= 3 {
                    break 'solve (IpmStatus::LineSearchFailure, iter);
                }
                // Crude restoration: clear the filter, take a tiny damped
                // step toward feasibility and keep iterating.
                filter.clear();
                for i in 0..n {
                    x[i] += (alpha_pri_max * 1e-3) * step.dx[i];
                }
                ev.at(problem, &x)?;
                continue;
            }
            ls_failures = 0;

            // An accepted step's point is the one last evaluated.
            x.copy_from_slice(&x_trial);
            std::mem::swap(&mut ev, &mut trial);
            for j in 0..m {
                lambda[j] += alpha * step.dlambda[j];
            }
            for i in 0..n {
                z[i] += alpha_dual_max * step.dz[i];
                // IPOPT's κ_Σ safeguard keeps z within a box of μ/d.
                let d = (x[i] - lb[i]).max(1e-300);
                let lo = mu / (KAPPA_SIGMA * d);
                let hi = KAPPA_SIGMA * mu / d;
                z[i] = z[i].clamp(lo.min(hi), hi.max(lo)).max(1e-300);
            }
        }
        (IpmStatus::MaxIterations, MAX_ITER)
    };

    let kkt_error = kkt_error(&ev, &grad, &x, &lb, &z, &lambda, 0.0);
    Ok(Solution {
        objective: x[k],
        kkt_error,
        constraint_violation: ev.c.iter().fold(0.0f64, |a, v| a.max(v.abs())),
        x,
        lambda,
        z,
        iterations,
        status,
        iteration_log: log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nlp::{BoxedCurve, FnCurve};

    /// `a·x + b·x²`: a device whose time grows faster than its block.
    fn quad(a: f64, b: f64) -> BoxedCurve {
        Box::new(FnCurve::new(
            move |x: f64| a * x + b * x * x,
            move |x: f64| a + 2.0 * b * x,
            move |_| 2.0 * b,
        ))
    }

    /// Four such devices, their coefficients scaled by `drift`.
    fn sel_problem(drift_a: f64, drift_b: f64) -> BlockPartitionNlp {
        let a = [1.0, 2.5, 0.7, 1.8];
        let b = [0.3, 0.1, 0.6, 0.2];
        let curves = (a.iter().zip(&b))
            .map(|(&a, &b)| quad(a * drift_a, b * drift_b))
            .collect();
        BlockPartitionNlp::new(curves)
    }

    #[test]
    fn concave_log_curves_finish_together() {
        // `a + b·ln x`, the `LogOnly` ablation's family: increasing and
        // concave, so the Lagrangian Hessian is indefinite wherever the
        // multipliers are positive, and the KKT solve must regularize.
        let curves = [(1.0, 0.5), (1.2, 0.3), (0.9, 0.4)]
            .iter()
            .map(|&(a, b): &(f64, f64)| {
                Box::new(FnCurve::new(
                    move |x: f64| a + b * x.ln(),
                    move |x: f64| b / x,
                    move |x: f64| -b / (x * x),
                )) as BoxedCurve
            })
            .collect();
        let nlp = BlockPartitionNlp::new(curves);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!(sol.constraint_violation < 1e-6, "{sol:?}");
        let t = sol.x[3];
        for g in 0..3 {
            let tg = nlp.unit_time(g, sol.x[g]);
            assert!((tg - t).abs() < 1e-6, "unit {g}: {tg} vs T = {t}");
        }
    }

    #[test]
    fn a_warm_start_below_the_bounds_is_pushed_inside() {
        // A fraction below `X_MIN` is moved inside before the first
        // step, and the solve still reaches the cold optimum.
        let p = sel_problem(1.0, 1.0);
        let cold = solve(&p, &IpmOptions::default()).unwrap();
        let below = WarmStart {
            x: vec![-5.0, 0.4, 0.3, 0.3, 1.0],
            lambda: vec![0.0; 5],
            z: vec![0.1; 5],
        };
        let sol = solve_warm(&p, &IpmOptions::default(), Some(&below)).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        for (w, c) in sol.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-6, "{w} vs {c}");
        }
    }

    #[test]
    fn iteration_log_recorded_and_consistent() {
        let sol = solve(&sel_problem(1.0, 1.0), &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        // One record per completed (non-terminating) iteration.
        assert_eq!(sol.iteration_log.len(), sol.iterations);
        for (i, r) in sol.iteration_log.iter().enumerate() {
            assert_eq!(r.iter, i);
            assert!(r.mu > 0.0);
            assert!(r.kkt_error.is_finite() && r.kkt_error >= 0.0);
            assert!(r.accepted || r.alpha == 0.0);
        }
        // KKT error at the last logged iterate exceeds the tolerance
        // (otherwise the solve would have stopped there).
        let last = sol.iteration_log.last().unwrap();
        assert!(last.kkt_error >= TOL);
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(IpmStatus::Optimal.name(), "optimal");
        assert_eq!(IpmStatus::MaxIterations.name(), "max_iterations");
        assert_eq!(IpmStatus::LineSearchFailure.name(), "line_search_failure");
    }

    /// Re-solving a slightly drifted problem from the previous optimum
    /// must converge in no more iterations than a cold solve, to the
    /// same point.
    #[test]
    fn warm_start_resolves_faster_than_cold() {
        let first = solve(&sel_problem(1.0, 1.0), &IpmOptions::default()).unwrap();
        assert_eq!(first.status, IpmStatus::Optimal);
        let warm = WarmStart::from_solution(&first);

        // Drift the curves a little, as a rebalance re-fit would.
        let drifted = sel_problem(1.05, 0.97);
        let cold = solve(&drifted, &IpmOptions::default()).unwrap();
        let rewarmed = solve_warm(&drifted, &IpmOptions::default(), Some(&warm)).unwrap();
        assert_eq!(cold.status, IpmStatus::Optimal);
        assert_eq!(rewarmed.status, IpmStatus::Optimal);
        assert!(
            rewarmed.iterations <= cold.iterations,
            "warm {} > cold {}",
            rewarmed.iterations,
            cold.iterations
        );
        for (w, c) in rewarmed.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-6, "{w} vs {c}");
        }
    }

    /// Warm start at the unchanged optimum terminates immediately.
    #[test]
    fn warm_start_at_optimum_is_instant() {
        let p = sel_problem(1.0, 1.0);
        let first = solve(&p, &IpmOptions::default()).unwrap();
        let warm = WarmStart::from_solution(&first);
        let again = solve_warm(&p, &IpmOptions::default(), Some(&warm)).unwrap();
        assert_eq!(again.status, IpmStatus::Optimal);
        assert_eq!(again.iterations, 0, "expected instant re-convergence");
    }

    /// A dimension-mismatched or non-finite warm start is ignored, not
    /// an error.
    #[test]
    fn bad_warm_start_is_ignored() {
        let p = sel_problem(1.0, 1.0);
        let wrong_dims = WarmStart {
            x: vec![0.5; 2],
            lambda: vec![0.0; 2],
            z: vec![0.1; 2],
        };
        let sol = solve_warm(&p, &IpmOptions::default(), Some(&wrong_dims)).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);

        let non_finite = WarmStart {
            x: vec![f64::NAN; 5],
            lambda: vec![0.0; 5],
            z: vec![0.1; 5],
        };
        let sol2 = solve_warm(&p, &IpmOptions::default(), Some(&non_finite)).unwrap();
        assert_eq!(sol2.status, IpmStatus::Optimal);
    }

    /// A curve whose `E′` is not finite ends the solve at its start: the
    /// selection's water-fill then answers the round.
    #[test]
    fn a_non_finite_first_derivative_is_a_numerical_breakdown() {
        let nan_d1: BoxedCurve = Box::new(FnCurve::new(|x: f64| 2.0 * x, |_| f64::NAN, |_| 0.0));
        let nlp = BlockPartitionNlp::new(vec![nan_d1, quad(1.0, 0.0)]);
        let err = solve(&nlp, &IpmOptions::default()).unwrap_err();
        assert!(matches!(err, IpmError::NumericalBreakdown(_)), "{err}");
    }

    /// The same for `E″`, which is asked for before the first KKT solve.
    #[test]
    fn a_non_finite_second_derivative_is_a_numerical_breakdown() {
        let nan_d2: BoxedCurve = Box::new(FnCurve::new(|x: f64| 2.0 * x, |_| 2.0, |_| f64::NAN));
        let nlp = BlockPartitionNlp::new(vec![nan_d2, quad(1.0, 0.0)]);
        let err = solve(&nlp, &IpmOptions::default()).unwrap_err();
        assert!(matches!(err, IpmError::NumericalBreakdown(_)), "{err}");
    }

    #[test]
    fn max_step_respects_fraction_to_boundary() {
        let v = [1.0, 1.0];
        let lb = [0.0, 0.0];
        let dv = [-2.0, 0.5];
        let a = max_step(&v, &lb, &dv);
        // Moving -2 from slack 1: cap at 0.995/2.
        assert!((a - 0.4975).abs() < 1e-12);
        // No negative direction: full step.
        assert_eq!(max_step(&v, &lb, &[0.1, 0.2]), 1.0);
    }
}
