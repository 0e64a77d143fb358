//! The primal-dual interior-point driver: barrier loop, filter line
//! search, fraction-to-boundary rule, and both barrier-update strategies
//! of the paper's reference \[25\].

use crate::filter::Filter;
use crate::kkt::{
    solve_kkt, solve_kkt_arrow_into, ArrowKktInputs, ArrowWorkspace, KktInputs, KktStep,
};
use crate::nlp::NlpProblem;
use plb_numerics::Mat;

/// How the barrier parameter μ is driven to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierStrategy {
    /// Fiacco–McCormick: hold μ until the barrier KKT error is below
    /// `κ_ε·μ`, then shrink superlinearly. IPOPT's default.
    Monotone,
    /// Adaptive Mehrotra-style: re-target μ from the current
    /// complementarity every iteration (Nocedal–Wächter–Waltz, the
    /// paper's reference \[25\]).
    Adaptive,
}

/// Solver options.
#[derive(Debug, Clone)]
pub struct IpmOptions {
    /// Convergence tolerance on the unperturbed KKT error.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Initial barrier parameter.
    pub mu_init: f64,
    /// Barrier update strategy.
    pub barrier: BarrierStrategy,
    /// Fraction-to-boundary parameter τ (steps keep `1−τ` of the slack).
    pub tau: f64,
    /// Maximum backtracking halvings per line search.
    pub max_backtracks: usize,
    /// Keep a per-iteration [`IterationRecord`] log on the returned
    /// [`Solution`]. Cheap (a few floats per iteration, iteration counts
    /// are capped), so on by default; disable for bulk embedded solves.
    pub record_iterations: bool,
    /// Ignore [`NlpProblem::arrow_k`] and always use the dense `(n+m)²`
    /// KKT factorization. Off by default; exists for A/B benchmarking
    /// and as the oracle switch in structured-vs-dense agreement tests.
    pub force_dense_kkt: bool,
}

impl Default for IpmOptions {
    fn default() -> Self {
        IpmOptions {
            tol: 1e-8,
            max_iter: 200,
            mu_init: 0.1,
            barrier: BarrierStrategy::Monotone,
            tau: 0.995,
            max_backtracks: 30,
            record_iterations: true,
            force_dense_kkt: false,
        }
    }
}

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
    /// Final primal point.
    pub x: Vec<f64>,
    /// Final equality multipliers.
    pub lambda: Vec<f64>,
    /// Final bound multipliers.
    pub z: Vec<f64>,
    /// Objective at `x`.
    pub objective: f64,
    /// Unperturbed KKT error at `x`.
    pub kkt_error: f64,
    /// Constraint violation ‖c(x)‖∞ at `x`.
    pub constraint_violation: f64,
    /// Iterations used.
    pub iterations: usize,
    /// How the solver stopped.
    pub status: IpmStatus,
    /// Per-iteration log (empty when `record_iterations` was off).
    pub iteration_log: Vec<IterationRecord>,
}

impl Solution {
    /// True when the point is usable: optimal, or stopped early but with
    /// small constraint violation and finite values.
    pub fn is_usable(&self, feas_tol: f64) -> bool {
        self.x.iter().all(|v| v.is_finite()) && self.constraint_violation <= feas_tol
    }
}

/// Hard errors (problem setup, not convergence).
#[derive(Debug, Clone)]
pub enum IpmError {
    /// Problem dimensions are inconsistent or empty.
    BadProblem(String),
    /// Every KKT solve failed even at maximum regularization.
    NumericalBreakdown(String),
}

impl std::fmt::Display for IpmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpmError::BadProblem(s) => write!(f, "bad problem: {s}"),
            IpmError::NumericalBreakdown(s) => write!(f, "numerical breakdown: {s}"),
        }
    }
}

impl std::error::Error for IpmError {}

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

/// One evaluated point: objective, gradient, constraints and Jacobian.
/// A solve holds two, the iterate and the line search's trial point,
/// and evaluates into them in place, so no point allocates.
struct Eval {
    f: f64,
    grad: Vec<f64>,
    c: Vec<f64>,
    /// Whether the Jacobian is held as `jd`, the `k` per-block diagonal
    /// entries of an arrow problem (the `-1` column on `T` and the
    /// all-ones coupling row are implied by the structure, so they are
    /// never materialized), or as the dense `m x n` matrix `dense`.
    arrow: bool,
    jd: Vec<f64>,
    /// Allocated the first time a point needs it.
    dense: Option<Mat>,
}

impl Eval {
    fn new(n: usize, m: usize, arrow: Option<usize>) -> Eval {
        Eval {
            f: 0.0,
            grad: vec![0.0; n],
            c: vec![0.0; m],
            arrow: false,
            jd: vec![0.0; arrow.unwrap_or(0)],
            dense: None,
        }
    }

    /// Evaluate `p` at `x`. The Jacobian diagonal is computed here and
    /// nowhere else; the Hessian diagonal, the one coefficient that
    /// needs the multipliers, is left to the iteration's KKT solve.
    fn at(&mut self, p: &dyn NlpProblem, x: &[f64], arrow: bool) {
        self.grad.fill(0.0);
        p.gradient(x, &mut self.grad);
        self.c.fill(0.0);
        p.constraints(x, &mut self.c);
        self.arrow = arrow && p.arrow_jac_diag(x, &mut self.jd);
        if !self.arrow {
            let (m, n) = (self.c.len(), self.grad.len());
            let jac = self.dense.get_or_insert_with(|| Mat::zeros(m, n));
            jac.as_mut_slice().fill(0.0);
            p.jacobian(x, jac);
        }
        self.f = p.objective(x);
    }

    /// The dense Jacobian: the one evaluated, or, for an arrow point
    /// whose Hessian declined, the arrow's materialized.
    fn dense_jac(&self) -> std::borrow::Cow<'_, Mat> {
        match &self.dense {
            Some(jac) if !self.arrow => std::borrow::Cow::Borrowed(jac),
            _ => std::borrow::Cow::Owned(arrow_dense_jac(&self.jd)),
        }
    }
}

/// `Jᵀλ` for either Jacobian representation — O(mn) dense, O(n) arrow.
fn jt_lambda(ev: &Eval, lambda: &[f64], n: usize) -> Vec<f64> {
    if !ev.arrow {
        if let Some(jac) = &ev.dense {
            return jac.tr_matvec(lambda);
        }
    }
    let jd = &ev.jd;
    let k = jd.len();
    let mut out = vec![0.0; n];
    let nu = lambda[k];
    let mut sum = 0.0;
    for g in 0..k {
        out[g] = jd[g] * lambda[g] + nu;
        sum += lambda[g];
    }
    out[k] = -sum;
    out
}

/// Materialize the dense Jacobian of an arrow problem — only needed on
/// the rare fallback path when the Hessian diagonal declines an iterate.
fn arrow_dense_jac(jd: &[f64]) -> Mat {
    let k = jd.len();
    let mut j = Mat::zeros(k + 1, k + 1);
    for g in 0..k {
        j[(g, g)] = jd[g];
        j[(g, k)] = -1.0;
        j[(k, g)] = 1.0;
    }
    j
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
fn kkt_error(ev: &Eval, x: &[f64], lb: &[f64], z: &[f64], lambda: &[f64], mu: f64) -> f64 {
    let n = x.len();
    let jt_lambda = jt_lambda(ev, lambda, n);
    let mut stat = 0.0f64;
    for i in 0..n {
        stat = stat.max((ev.grad[i] + jt_lambda[i] - z[i]).abs());
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
fn max_step(v: &[f64], lb: &[f64], dv: &[f64], tau: f64) -> f64 {
    let mut alpha: f64 = 1.0;
    for i in 0..v.len() {
        if dv[i] < 0.0 {
            let slack = v[i] - lb[i];
            let a = -tau * slack / dv[i];
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

/// Solve an [`NlpProblem`] with the interior-point filter method.
pub fn solve(problem: &dyn NlpProblem, opts: &IpmOptions) -> Result<Solution, IpmError> {
    solve_warm(problem, opts, None)
}

/// [`solve`], optionally seeded with the previous optimum.
///
/// A usable warm start replaces the problem's `initial_point` with the
/// previous primal point (pushed strictly inside the bounds), keeps the
/// previous multipliers, and starts the barrier parameter from the
/// carried complementarity instead of `mu_init` — so a re-solve after a
/// small model drift converges in a handful of iterations. A warm start
/// whose dimensions do not match the problem (the live-unit set
/// changed) or that contains non-finite values is silently ignored and
/// the solve proceeds cold; warm starting is an optimization, never a
/// correctness requirement.
pub fn solve_warm(
    problem: &dyn NlpProblem,
    opts: &IpmOptions,
    warm: Option<&WarmStart>,
) -> Result<Solution, IpmError> {
    let n = problem.n();
    let m = problem.m();
    if n == 0 {
        return Err(IpmError::BadProblem("no variables".into()));
    }
    let lb = problem.lower_bounds();
    if lb.len() != n {
        return Err(IpmError::BadProblem(format!(
            "lower_bounds length {} != n {}",
            lb.len(),
            n
        )));
    }

    // Structured path: honour the problem's declared arrow shape unless
    // the caller forces the dense oracle or the declaration is
    // inconsistent with the dimensions.
    let arrow = match problem.arrow_k() {
        Some(k) if !opts.force_dense_kkt && n == k + 1 && m == k + 1 => Some(k),
        _ => None,
    };

    let warm = warm.filter(|w| w.usable_for(n, m));

    // Push the start strictly inside the bounds.
    let mut x = match warm {
        Some(w) => w.x.clone(),
        None => problem.initial_point(),
    };
    if x.len() != n {
        return Err(IpmError::BadProblem(format!(
            "initial_point length {} != n {}",
            x.len(),
            n
        )));
    }
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
            // from mu_init: near an old optimum this starts μ small and
            // skips the whole early barrier schedule.
            let avg = (0..n).map(|i| (x[i] - lb[i]) * z[i]).sum::<f64>() / n as f64;
            let mu = avg.clamp(opts.tol / 10.0, opts.mu_init);
            (mu, z, w.lambda.clone())
        }
        None => {
            let mu = opts.mu_init;
            let z = (0..n).map(|i| mu / (x[i] - lb[i])).collect();
            (mu, z, vec![0.0; m])
        }
    };

    let mut ev = Eval::new(n, m, arrow);
    ev.at(problem, &x, arrow.is_some());
    let mut trial = Eval::new(n, m, arrow);
    let mut x_trial = vec![0.0; n];
    let zeros = vec![0.0; n];
    let mut filter = Filter::new((theta(&ev.c) * 1e4).max(1.0));
    // The dense n×n Hessian is only materialized if the dense KKT path
    // is ever taken — at n = 10⁴ the arrow path never pays for it.
    let mut hess: Option<Mat> = None;
    let mut hd_buf = vec![0.0; if arrow.is_some() { n } else { 0 }];
    let mut arrow_ws = ArrowWorkspace::new();
    let mut kstep = KktStep {
        dx: Vec::new(),
        dlambda: Vec::new(),
        dz: Vec::new(),
        delta: 0.0,
    };
    let mut ls_failures = 0usize;
    let mut log: Vec<IterationRecord> = Vec::new();

    for iter in 0..opts.max_iter {
        let err0 = kkt_error(&ev, &x, &lb, &z, &lambda, 0.0);
        if err0 < opts.tol {
            return Ok(Solution {
                objective: ev.f,
                kkt_error: err0,
                constraint_violation: ev.c.iter().fold(0.0f64, |a, v| a.max(v.abs())),
                x,
                lambda,
                z,
                iterations: iter,
                status: IpmStatus::Optimal,
                iteration_log: log,
            });
        }

        // Barrier update.
        match opts.barrier {
            BarrierStrategy::Monotone => {
                let err_mu = kkt_error(&ev, &x, &lb, &z, &lambda, mu);
                if err_mu < KAPPA_EPS * mu {
                    let new_mu = (KAPPA_MU * mu).min(mu.powf(THETA_MU)).max(opts.tol / 10.0);
                    if new_mu < mu {
                        mu = new_mu;
                        filter.clear();
                    }
                }
            }
            BarrierStrategy::Adaptive => {
                // Re-target from the average complementarity with a
                // centering factor; cheap stand-in for Mehrotra probing
                // that works well on these small problems.
                let avg: f64 = (0..n).map(|i| (x[i] - lb[i]) * z[i]).sum::<f64>() / n as f64;
                let new_mu = (0.1 * avg).max(opts.tol / 10.0);
                if (new_mu - mu).abs() > 0.1 * mu {
                    filter.clear();
                }
                mu = new_mu;
            }
        }

        // KKT step: O(n) arrow elimination when the problem declared the
        // structure and can produce coefficients at this iterate; dense
        // LU otherwise.
        let arrow_ready = ev.arrow && problem.arrow_hess_diag(&x, &lambda, &mut hd_buf);
        if arrow_ready {
            solve_kkt_arrow_into(
                &ArrowKktInputs {
                    hess_diag: &hd_buf,
                    jac_diag: &ev.jd,
                    grad: &ev.grad,
                    c: &ev.c,
                    x: &x,
                    lb: &lb,
                    z: &z,
                    lambda: &lambda,
                    mu,
                },
                &mut arrow_ws,
                &mut kstep,
            )
            .map_err(|e| IpmError::NumericalBreakdown(e.to_string()))?;
        } else {
            let jac = ev.dense_jac();
            let hess = hess.get_or_insert_with(|| Mat::zeros(n, n));
            problem.lagrangian_hessian(&x, &lambda, hess);
            kstep = solve_kkt(&KktInputs {
                hess,
                jac: &jac,
                grad: &ev.grad,
                c: &ev.c,
                x: &x,
                lb: &lb,
                z: &z,
                lambda: &lambda,
                mu,
            })
            .map_err(|e| IpmError::NumericalBreakdown(e.to_string()))?;
        }
        let step = &kstep;

        let alpha_pri_max = max_step(&x, &lb, &step.dx, opts.tau);
        let alpha_dual_max = max_step(&z, &zeros, &step.dz, opts.tau);

        // Filter line search on the primal step.
        let theta_cur = theta(&ev.c);
        let phi_cur = barrier_phi(ev.f, &x, &lb, mu);
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
            barrier_slope(&ev.grad, &x, &lb, &step.dx, mu).min(0.0)
        } else {
            0.0
        };
        let mut alpha = alpha_pri_max;
        let mut accepted = false;
        let mut backtracks = 0usize;
        for _ in 0..=opts.max_backtracks {
            if alpha < ALPHA_MIN {
                break;
            }
            for i in 0..n {
                x_trial[i] = x[i] + alpha * step.dx[i];
            }
            trial.at(problem, &x_trial, arrow.is_some());
            let theta_t = theta(&trial.c);
            let phi_t = barrier_phi(trial.f, &x_trial, &lb, mu);
            let armijo = || {
                phi_t - (phi_cur + ETA_PHI * alpha * slope) <= 10.0 * f64::EPSILON * phi_cur.abs()
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
            trial.at(problem, &x_trial, arrow.is_some());
            let mut lambda_t = lambda.clone();
            for j in 0..m {
                lambda_t[j] += alpha * step.dlambda[j];
            }
            let mut z_t = z.clone();
            for i in 0..n {
                z_t[i] = (z_t[i] + alpha_dual_max * step.dz[i]).max(1e-300);
            }
            let err_t = kkt_error(&trial, &x_trial, &lb, &z_t, &lambda_t, 0.0);
            if err_t < 0.9 * err0 {
                accepted = true;
            }
        }

        if opts.record_iterations {
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
        }

        if !accepted {
            ls_failures += 1;
            if ls_failures >= 3 {
                let err = kkt_error(&ev, &x, &lb, &z, &lambda, 0.0);
                return Ok(Solution {
                    objective: ev.f,
                    kkt_error: err,
                    constraint_violation: ev.c.iter().fold(0.0f64, |a, v| a.max(v.abs())),
                    x,
                    lambda,
                    z,
                    iterations: iter,
                    status: IpmStatus::LineSearchFailure,
                    iteration_log: log,
                });
            }
            // Crude restoration: clear the filter, take a tiny damped
            // step toward feasibility and keep iterating.
            filter.clear();
            for i in 0..n {
                x[i] += (alpha_pri_max * 1e-3) * step.dx[i];
            }
            ev.at(problem, &x, arrow.is_some());
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

    let err = kkt_error(&ev, &x, &lb, &z, &lambda, 0.0);
    Ok(Solution {
        objective: ev.f,
        kkt_error: err,
        constraint_violation: ev.c.iter().fold(0.0f64, |a, v| a.max(v.abs())),
        x,
        lambda,
        z,
        iterations: opts.max_iter,
        status: IpmStatus::MaxIterations,
        iteration_log: log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_numerics::Mat;

    /// min (x0-1)² + (x1-2)²  s.t. x ≥ 0 — interior solution.
    struct Quad;

    impl NlpProblem for Quad {
        fn n(&self) -> usize {
            2
        }
        fn m(&self) -> usize {
            0
        }
        fn objective(&self, x: &[f64]) -> f64 {
            (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2)
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 2.0 * (x[0] - 1.0);
            g[1] = 2.0 * (x[1] - 2.0);
        }
        fn constraints(&self, _x: &[f64], _c: &mut [f64]) {}
        fn jacobian(&self, _x: &[f64], _j: &mut Mat) {}
        fn lagrangian_hessian(&self, _x: &[f64], _l: &[f64], h: &mut Mat) {
            *h = Mat::identity(2);
            h.scale(2.0);
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![5.0, 5.0]
        }
    }

    #[test]
    fn unconstrained_interior_minimum() {
        let sol = solve(&Quad, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!((sol.x[0] - 1.0).abs() < 1e-6, "{:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-6, "{:?}", sol.x);
    }

    /// min (x0+2)² + (x1-2)²  s.t. x ≥ 0 — active bound at x0 = 0.
    struct QuadActive;

    impl NlpProblem for QuadActive {
        fn n(&self) -> usize {
            2
        }
        fn m(&self) -> usize {
            0
        }
        fn objective(&self, x: &[f64]) -> f64 {
            (x[0] + 2.0).powi(2) + (x[1] - 2.0).powi(2)
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 2.0 * (x[0] + 2.0);
            g[1] = 2.0 * (x[1] - 2.0);
        }
        fn constraints(&self, _x: &[f64], _c: &mut [f64]) {}
        fn jacobian(&self, _x: &[f64], _j: &mut Mat) {}
        fn lagrangian_hessian(&self, _x: &[f64], _l: &[f64], h: &mut Mat) {
            *h = Mat::identity(2);
            h.scale(2.0);
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![1.0, 1.0]
        }
    }

    #[test]
    fn active_bound_detected() {
        let sol = solve(&QuadActive, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!(sol.x[0].abs() < 1e-5, "{:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-5, "{:?}", sol.x);
        // Bound multiplier for the active bound is strictly positive.
        assert!(sol.z[0] > 1e-3, "z = {:?}", sol.z);
    }

    /// min x0² + x1²  s.t. x0 + x1 = 1, x ≥ 0 → (0.5, 0.5).
    struct EqQuad;

    impl NlpProblem for EqQuad {
        fn n(&self) -> usize {
            2
        }
        fn m(&self) -> usize {
            1
        }
        fn objective(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + x[1] * x[1]
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 2.0 * x[0];
            g[1] = 2.0 * x[1];
        }
        fn constraints(&self, x: &[f64], c: &mut [f64]) {
            c[0] = x[0] + x[1] - 1.0;
        }
        fn jacobian(&self, _x: &[f64], j: &mut Mat) {
            j[(0, 0)] = 1.0;
            j[(0, 1)] = 1.0;
        }
        fn lagrangian_hessian(&self, _x: &[f64], _l: &[f64], h: &mut Mat) {
            *h = Mat::identity(2);
            h.scale(2.0);
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![0.9, 0.3]
        }
    }

    #[test]
    fn equality_constrained_quadratic() {
        for strategy in [BarrierStrategy::Monotone, BarrierStrategy::Adaptive] {
            let opts = IpmOptions {
                barrier: strategy,
                ..Default::default()
            };
            let sol = solve(&EqQuad, &opts).unwrap();
            assert_eq!(sol.status, IpmStatus::Optimal, "{strategy:?}");
            assert!((sol.x[0] - 0.5).abs() < 1e-6, "{strategy:?}: {:?}", sol.x);
            assert!((sol.x[1] - 0.5).abs() < 1e-6, "{strategy:?}: {:?}", sol.x);
            assert!(sol.constraint_violation < 1e-8);
        }
    }

    /// Nonconvex objective with a constraint: Hessian regularization path.
    struct NonConvex;

    impl NlpProblem for NonConvex {
        fn n(&self) -> usize {
            2
        }
        fn m(&self) -> usize {
            1
        }
        fn objective(&self, x: &[f64]) -> f64 {
            -x[0] * x[1] // saddle
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            g[0] = -x[1];
            g[1] = -x[0];
        }
        fn constraints(&self, x: &[f64], c: &mut [f64]) {
            c[0] = x[0] + x[1] - 1.0;
        }
        fn jacobian(&self, _x: &[f64], j: &mut Mat) {
            j[(0, 0)] = 1.0;
            j[(0, 1)] = 1.0;
        }
        fn lagrangian_hessian(&self, _x: &[f64], _l: &[f64], h: &mut Mat) {
            *h = Mat::zeros(2, 2);
            h[(0, 1)] = -1.0;
            h[(1, 0)] = -1.0;
        }
        fn initial_point(&self) -> Vec<f64> {
            vec![0.8, 0.2]
        }
    }

    #[test]
    fn nonconvex_saddle_converges_to_max_product() {
        // On the simplex segment, -x0*x1 is minimized at x0 = x1 = 0.5.
        let sol = solve(&NonConvex, &IpmOptions::default()).unwrap();
        assert!(sol.constraint_violation < 1e-6);
        assert!((sol.x[0] - 0.5).abs() < 1e-4, "{:?}", sol.x);
    }

    #[test]
    fn empty_problem_rejected() {
        struct Empty;
        impl NlpProblem for Empty {
            fn n(&self) -> usize {
                0
            }
            fn m(&self) -> usize {
                0
            }
            fn objective(&self, _: &[f64]) -> f64 {
                0.0
            }
            fn gradient(&self, _: &[f64], _: &mut [f64]) {}
            fn constraints(&self, _: &[f64], _: &mut [f64]) {}
            fn jacobian(&self, _: &[f64], _: &mut Mat) {}
            fn lagrangian_hessian(&self, _: &[f64], _: &[f64], _: &mut Mat) {}
            fn initial_point(&self) -> Vec<f64> {
                vec![]
            }
        }
        assert!(matches!(
            solve(&Empty, &IpmOptions::default()),
            Err(IpmError::BadProblem(_))
        ));
    }

    #[test]
    fn infeasible_start_is_pushed_inside() {
        // Start below the bounds; the solver must still converge.
        struct BadStart;
        impl NlpProblem for BadStart {
            fn n(&self) -> usize {
                1
            }
            fn m(&self) -> usize {
                0
            }
            fn objective(&self, x: &[f64]) -> f64 {
                (x[0] - 3.0).powi(2)
            }
            fn gradient(&self, x: &[f64], g: &mut [f64]) {
                g[0] = 2.0 * (x[0] - 3.0);
            }
            fn constraints(&self, _: &[f64], _: &mut [f64]) {}
            fn jacobian(&self, _: &[f64], _: &mut Mat) {}
            fn lagrangian_hessian(&self, _: &[f64], _: &[f64], h: &mut Mat) {
                h[(0, 0)] = 2.0;
            }
            fn initial_point(&self) -> Vec<f64> {
                vec![-5.0]
            }
        }
        let sol = solve(&BadStart, &IpmOptions::default()).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn iteration_log_recorded_and_consistent() {
        let sol = solve(&EqQuad, &IpmOptions::default()).unwrap();
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
        assert!(last.kkt_error >= IpmOptions::default().tol);
    }

    #[test]
    fn iteration_log_disabled_when_requested() {
        let opts = IpmOptions {
            record_iterations: false,
            ..Default::default()
        };
        let sol = solve(&EqQuad, &opts).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);
        assert!(sol.iteration_log.is_empty());
        assert!(sol.iterations > 0);
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(IpmStatus::Optimal.name(), "optimal");
        assert_eq!(IpmStatus::MaxIterations.name(), "max_iterations");
        assert_eq!(IpmStatus::LineSearchFailure.name(), "line_search_failure");
    }

    /// A selection-shaped arrow problem: minimize T subject to
    /// `a_g·x_g + b_g·x_g² = T` and `Σ x_g = 1`, implementing both the
    /// dense trait methods and the arrow fast path.
    struct ArrowSel {
        a: Vec<f64>,
        b: Vec<f64>,
    }

    impl ArrowSel {
        fn k(&self) -> usize {
            self.a.len()
        }
    }

    impl NlpProblem for ArrowSel {
        fn n(&self) -> usize {
            self.k() + 1
        }
        fn m(&self) -> usize {
            self.k() + 1
        }
        fn objective(&self, x: &[f64]) -> f64 {
            x[self.k()]
        }
        fn gradient(&self, _x: &[f64], g: &mut [f64]) {
            g.fill(0.0);
            g[self.k()] = 1.0;
        }
        fn constraints(&self, x: &[f64], c: &mut [f64]) {
            let k = self.k();
            let t = x[k];
            for g in 0..k {
                c[g] = self.a[g] * x[g] + self.b[g] * x[g] * x[g] - t;
            }
            c[k] = x[..k].iter().sum::<f64>() - 1.0;
        }
        fn jacobian(&self, x: &[f64], j: &mut Mat) {
            let k = self.k();
            *j = Mat::zeros(k + 1, k + 1);
            for g in 0..k {
                j[(g, g)] = self.a[g] + 2.0 * self.b[g] * x[g];
                j[(g, k)] = -1.0;
                j[(k, g)] = 1.0;
            }
        }
        fn lagrangian_hessian(&self, _x: &[f64], l: &[f64], h: &mut Mat) {
            let k = self.k();
            *h = Mat::zeros(k + 1, k + 1);
            for g in 0..k {
                h[(g, g)] = l[g] * 2.0 * self.b[g];
            }
        }
        fn lower_bounds(&self) -> Vec<f64> {
            let mut lb = vec![1e-9; self.k()];
            lb.push(0.0);
            lb
        }
        fn initial_point(&self) -> Vec<f64> {
            let k = self.k();
            let frac = 1.0 / k as f64;
            let t = (0..k)
                .map(|g| self.a[g] * frac + self.b[g] * frac * frac)
                .fold(0.0f64, f64::max);
            let mut x = vec![frac; k];
            x.push(t.max(1e-6));
            x
        }
        fn arrow_k(&self) -> Option<usize> {
            Some(self.k())
        }
        fn arrow_jac_diag(&self, x: &[f64], jac_diag: &mut [f64]) -> bool {
            for g in 0..self.k() {
                jac_diag[g] = self.a[g] + 2.0 * self.b[g] * x[g];
            }
            true
        }
        fn arrow_hess_diag(&self, _x: &[f64], lambda: &[f64], hess_diag: &mut [f64]) -> bool {
            let k = self.k();
            for g in 0..k {
                hess_diag[g] = lambda[g] * 2.0 * self.b[g];
            }
            hess_diag[k] = 0.0;
            true
        }
    }

    fn sel_problem() -> ArrowSel {
        ArrowSel {
            a: vec![1.0, 2.5, 0.7, 1.8],
            b: vec![0.3, 0.1, 0.6, 0.2],
        }
    }

    /// The arrow fast path and the dense oracle must agree on the final
    /// point, not just per-step.
    #[test]
    fn arrow_path_matches_dense_solution() {
        let p = sel_problem();
        let arrow = solve(&p, &IpmOptions::default()).unwrap();
        let dense = solve(
            &p,
            &IpmOptions {
                force_dense_kkt: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(arrow.status, IpmStatus::Optimal);
        assert_eq!(dense.status, IpmStatus::Optimal);
        for i in 0..p.n() {
            assert!(
                (arrow.x[i] - dense.x[i]).abs() < 1e-6,
                "x[{i}]: {} vs {}",
                arrow.x[i],
                dense.x[i]
            );
        }
        // Equal-time property holds: all block times match T.
        let t = arrow.x[p.k()];
        for g in 0..p.k() {
            let tg = p.a[g] * arrow.x[g] + p.b[g] * arrow.x[g] * arrow.x[g];
            assert!((tg - t).abs() < 1e-6, "block {g}: {tg} vs T={t}");
        }
    }

    /// Re-solving a slightly drifted problem from the previous optimum
    /// must converge in no more iterations than a cold solve, to the
    /// same point.
    #[test]
    fn warm_start_resolves_faster_than_cold() {
        let p = sel_problem();
        let first = solve(&p, &IpmOptions::default()).unwrap();
        assert_eq!(first.status, IpmStatus::Optimal);
        let warm = WarmStart::from_solution(&first);

        // Drift the curves a little, as a rebalance re-fit would.
        let drifted = ArrowSel {
            a: p.a.iter().map(|v| v * 1.05).collect(),
            b: p.b.iter().map(|v| v * 0.97).collect(),
        };
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
        for i in 0..drifted.n() {
            assert!(
                (rewarmed.x[i] - cold.x[i]).abs() < 1e-6,
                "x[{i}]: {} vs {}",
                rewarmed.x[i],
                cold.x[i]
            );
        }
    }

    /// Warm start at the unchanged optimum terminates immediately.
    #[test]
    fn warm_start_at_optimum_is_instant() {
        let p = sel_problem();
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
        let p = sel_problem();
        let wrong_dims = WarmStart {
            x: vec![0.5; 2],
            lambda: vec![0.0; 2],
            z: vec![0.1; 2],
        };
        let sol = solve_warm(&p, &IpmOptions::default(), Some(&wrong_dims)).unwrap();
        assert_eq!(sol.status, IpmStatus::Optimal);

        let non_finite = WarmStart {
            x: vec![f64::NAN; p.n()],
            lambda: vec![0.0; p.m()],
            z: vec![0.1; p.n()],
        };
        let sol2 = solve_warm(&p, &IpmOptions::default(), Some(&non_finite)).unwrap();
        assert_eq!(sol2.status, IpmStatus::Optimal);
    }

    #[test]
    fn max_step_respects_fraction_to_boundary() {
        let v = [1.0, 1.0];
        let lb = [0.0, 0.0];
        let dv = [-2.0, 0.5];
        let a = max_step(&v, &lb, &dv, 0.995);
        // Moving -2 from slack 1: cap at 0.995/2.
        assert!((a - 0.4975).abs() < 1e-12);
        // No negative direction: full step.
        assert_eq!(max_step(&v, &lb, &[0.1, 0.2], 0.995), 1.0);
    }
}
