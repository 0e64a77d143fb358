//! Assembly and solution of the primal-dual KKT system.
//!
//! At each interior-point iteration we solve the perturbed Newton system
//!
//! ```text
//! [ W + Σ + δI   Jᵀ ] [ dx ]     [ ∇f(x) - z + Jᵀλ ]
//! [ J           -εI ] [ dλ ] = - [ c(x)            ]
//! ```
//!
//! where `W = ∇²L`, `Σ = diag(z_i / (x_i - lb_i))` is the primal-dual
//! barrier term, `ε = 1e-12` is a tiny dual regularization that keeps
//! rank-deficient Jacobians solvable, and `δ ≥ 0` is an
//! inertia-correcting regularization grown geometrically until the
//! solve succeeds with the right curvature.
//!
//! Two solution paths share those exact semantics:
//!
//! * [`solve_kkt`] — dense assembly and LU factorization of the full
//!   `(n+m)²` system, O((n+m)³) per call. The step oracle: it makes no
//!   structural assumption, and the arrow path is checked against it
//!   step by step (`arrow_agrees_with_dense_on_selection_shape` and the
//!   proptest `arrow_kkt_step_matches_dense_oracle`). The solver never
//!   calls it.
//! * [`solve_kkt_arrow`] — the solver's path for PLB-HeC's selection
//!   problem, which is an *arrow* system: per-unit curves couple only
//!   through the shared finish time `T` and the simplex row `Σx = 1`.
//!   Block elimination reduces the whole system to a 2×2 Schur
//!   complement in `(dT, dν)`, making each solve O(n) time and O(n)
//!   memory. The inertia test is exact here (the reduced Hessian block
//!   is diagonal), not a posteriori like the dense curvature check.
//!
//! The bound multiplier step is recovered explicitly on both paths:
//! `dz_i = (μ - z_i·dx_i) / (x_i - lb_i) - z_i`.

use plb_numerics::{Lu, Mat};

/// Result of one KKT solve.
pub struct KktStep {
    /// Primal step.
    pub dx: Vec<f64>,
    /// Equality-multiplier step.
    pub dlambda: Vec<f64>,
    /// Bound-multiplier step.
    pub dz: Vec<f64>,
    /// Regularization that was finally applied.
    pub delta: f64,
}

/// Failure of the KKT solve even at maximum regularization.
#[derive(Debug, Clone)]
pub struct KktError {
    /// Last regularization attempted.
    pub delta: f64,
    /// Description of the final failure.
    pub detail: String,
}

impl std::fmt::Display for KktError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KKT solve failed at delta={}: {}",
            self.delta, self.detail
        )
    }
}

impl std::error::Error for KktError {}

/// Inputs to one KKT solve, borrowed from the solver's iteration state.
pub struct KktInputs<'a> {
    /// Hessian of the Lagrangian, `n x n`.
    pub hess: &'a Mat,
    /// Constraint Jacobian, `m x n`.
    pub jac: &'a Mat,
    /// Objective gradient.
    pub grad: &'a [f64],
    /// Constraint values.
    pub c: &'a [f64],
    /// Current primal point.
    pub x: &'a [f64],
    /// Lower bounds.
    pub lb: &'a [f64],
    /// Current bound multipliers.
    pub z: &'a [f64],
    /// Current equality multipliers.
    pub lambda: &'a [f64],
    /// Current barrier parameter.
    pub mu: f64,
}

const DELTA_MAX: f64 = 1e10;
const DELTA_FIRST: f64 = 1e-8;

/// Solve the KKT system, escalating regularization as needed.
pub fn solve_kkt(inp: &KktInputs<'_>) -> Result<KktStep, KktError> {
    let n = inp.x.len();
    let m = inp.c.len();
    debug_assert_eq!(inp.hess.rows(), n);
    debug_assert_eq!(inp.jac.rows(), m);
    debug_assert_eq!(inp.jac.cols(), n);

    // Slack distances to the bound and the barrier diagonal Σ.
    let mut sigma = vec![0.0; n];
    for i in 0..n {
        let d = (inp.x[i] - inp.lb[i]).max(1e-300);
        sigma[i] = inp.z[i] / d;
    }

    // Dual residual: ∇f - z + Jᵀλ.
    let jt_lambda = inp.jac.tr_matvec(inp.lambda);
    let mut r_dual = vec![0.0; n];
    for i in 0..n {
        r_dual[i] = inp.grad[i] - inp.z[i] + jt_lambda[i];
    }
    // Barrier correction folded into the rhs: the primal-dual system has
    // rhs  -(∇f - μ D⁻¹ e + Jᵀλ)  after eliminating dz; equivalently we
    // use -(r_dual) with Σ in the matrix and the μ-term in dz recovery,
    // plus the centering contribution  (z_i - μ/d_i)  moved into rhs:
    let mut rhs = vec![0.0; n + m];
    for i in 0..n {
        let d = (inp.x[i] - inp.lb[i]).max(1e-300);
        // -(∇f + Jᵀλ - μ/d): primal-dual elimination of dz.
        rhs[i] = -(inp.grad[i] + jt_lambda[i] - inp.mu / d);
    }
    for (j, &cj) in inp.c.iter().enumerate() {
        rhs[n + j] = -cj;
    }

    let mut delta = 0.0;
    loop {
        // Assemble the (n+m) x (n+m) symmetric system.
        let mut k = Mat::zeros(n + m, n + m);
        for i in 0..n {
            for j in 0..n {
                k[(i, j)] = inp.hess[(i, j)];
            }
            k[(i, i)] += sigma[i] + delta;
        }
        for cj in 0..m {
            for i in 0..n {
                let v = inp.jac[(cj, i)];
                k[(n + cj, i)] = v;
                k[(i, n + cj)] = v;
            }
            // Tiny dual regularization keeps rank-deficient Jacobians
            // (duplicate constraints) solvable.
            k[(n + cj, n + cj)] = -1e-12;
        }

        match Lu::factor(&k).and_then(|f| f.solve(&rhs)) {
            Ok(sol) => {
                let dx = sol[..n].to_vec();
                let dlambda = sol[n..].to_vec();

                // Curvature test: dxᵀ (W + Σ + δI) dx > 0 guarantees the
                // step is a descent direction for the barrier problem in
                // the constraint null space.
                let mut curv = 0.0;
                for i in 0..n {
                    let mut hi = 0.0;
                    for j in 0..n {
                        hi += inp.hess[(i, j)] * dx[j];
                    }
                    curv += dx[i] * (hi + (sigma[i] + delta) * dx[i]);
                }
                let dx_norm2: f64 = dx.iter().map(|v| v * v).sum();
                if curv <= 1e-14 * dx_norm2 && dx_norm2 > 0.0 {
                    // Wrong inertia: regularize more.
                    delta = next_delta(delta);
                    if delta > DELTA_MAX {
                        return Err(KktError {
                            delta,
                            detail: "curvature never became positive".into(),
                        });
                    }
                    continue;
                }

                // Recover dz from the eliminated bound-complementarity
                // rows: Z dx + D dz = μe - D z.
                let mut dz = vec![0.0; n];
                for i in 0..n {
                    let d = (inp.x[i] - inp.lb[i]).max(1e-300);
                    dz[i] = (inp.mu - inp.z[i] * dx[i]) / d - inp.z[i];
                }

                if dx.iter().any(|v| !v.is_finite())
                    || dlambda.iter().any(|v| !v.is_finite())
                    || dz.iter().any(|v| !v.is_finite())
                {
                    delta = next_delta(delta);
                    if delta > DELTA_MAX {
                        return Err(KktError {
                            delta,
                            detail: "non-finite step at max regularization".into(),
                        });
                    }
                    continue;
                }

                return Ok(KktStep {
                    dx,
                    dlambda,
                    dz,
                    delta,
                });
            }
            Err(e) => {
                delta = next_delta(delta);
                if delta > DELTA_MAX {
                    return Err(KktError {
                        delta,
                        detail: e.to_string(),
                    });
                }
            }
        }
    }
}

fn next_delta(delta: f64) -> f64 {
    if delta == 0.0 {
        DELTA_FIRST
    } else {
        delta * 10.0
    }
}

/// Inputs to an arrow-structured KKT solve.
///
/// Describes the same system as [`KktInputs`] for the special shape the
/// PLB-HeC selection problem always has (`n = k + 1` variables
/// `[x_0, …, x_{k-1}, T]`, `m = k + 1` constraints): a diagonal Hessian,
/// per-block constraint rows `c_g` touching only `x_g` (entry
/// `jac_diag[g]`) and `T` (entry `-1`), and a final coupling row that is
/// all-ones over the blocks: the shape of
/// [`crate::problem::BlockPartitionNlp`].
pub struct ArrowKktInputs<'a> {
    /// Diagonal of the Lagrangian Hessian, length `n = k + 1`.
    pub hess_diag: &'a [f64],
    /// `∂c_g/∂x_g` for each block constraint, length `k`.
    pub jac_diag: &'a [f64],
    /// Objective gradient, length `n`.
    pub grad: &'a [f64],
    /// Constraint values, length `m = k + 1`.
    pub c: &'a [f64],
    /// Current primal point, length `n`.
    pub x: &'a [f64],
    /// Lower bounds, length `n`.
    pub lb: &'a [f64],
    /// Current bound multipliers, length `n`.
    pub z: &'a [f64],
    /// Current equality multipliers, length `m` (last entry is the
    /// coupling-row multiplier `ν`).
    pub lambda: &'a [f64],
    /// Current barrier parameter.
    pub mu: f64,
}

/// Reusable scratch for [`solve_kkt_arrow_into`] so the solver performs
/// no per-iteration heap allocation once buffers have grown to size.
#[derive(Default)]
pub(crate) struct ArrowWorkspace {
    d: Vec<f64>,    // slack distances x_i - lb_i
    r1: Vec<f64>,   // variable-row rhs
    dcap: Vec<f64>, // D_i = hess_ii + σ_i + δ
    a: Vec<f64>,    // dλ_g affine coefficient
    b: Vec<f64>,    // dλ_g coefficient on dν
    cc: Vec<f64>,   // dλ_g coefficient on dT
}

impl ArrowWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solve an arrow-structured KKT system in O(n) time, escalating
/// regularization as needed. Convenience wrapper over
/// `solve_kkt_arrow_into` that allocates the step and scratch.
pub fn solve_kkt_arrow(inp: &ArrowKktInputs<'_>) -> Result<KktStep, KktError> {
    let mut step = KktStep {
        dx: Vec::new(),
        dlambda: Vec::new(),
        dz: Vec::new(),
        delta: 0.0,
    };
    let mut ws = ArrowWorkspace::new();
    solve_kkt_arrow_into(inp, &mut ws, &mut step)?;
    Ok(step)
}

/// Solve an arrow-structured KKT system into caller-owned buffers.
///
/// Semantically identical to [`solve_kkt`] on the same system — same
/// barrier elimination, same `-ε` dual regularization, same geometric
/// `δ` escalation, same `dz` recovery — but runs in O(n) time and O(n)
/// memory via block elimination:
///
/// 1. each variable row yields `dx_g = (r1_g - jd_g·dλ_g - dν) / D_g`,
/// 2. substituting into constraint row `g` expresses
///    `dλ_g = a_g + b_g·dν + c_g·dT`,
/// 3. the `T` row and the coupling row become a 2×2 Schur complement in
///    `(dT, dν)`, solved by Cramer's rule,
/// 4. back-substitution recovers `dλ` then `dx`, and `dz` is recovered
///    from the eliminated complementarity rows as in the dense path.
///
/// The inertia check is exact: the reduced primal block is
/// `diag(D_i)`, so `D_i > 0` for all `i` is necessary and sufficient
/// for positive curvature, and `δ` is escalated until it holds.
pub(crate) fn solve_kkt_arrow_into(
    inp: &ArrowKktInputs<'_>,
    ws: &mut ArrowWorkspace,
    step: &mut KktStep,
) -> Result<(), KktError> {
    const EPS_DUAL: f64 = 1e-12;
    let n = inp.x.len();
    let k = n - 1;
    debug_assert_eq!(inp.hess_diag.len(), n);
    debug_assert_eq!(inp.jac_diag.len(), k);
    debug_assert_eq!(inp.c.len(), n);
    debug_assert_eq!(inp.lambda.len(), n);

    let nu = inp.lambda[k];

    resize(&mut ws.d, n);
    resize(&mut ws.r1, n);
    resize(&mut ws.dcap, n);
    resize(&mut ws.a, k);
    resize(&mut ws.b, k);
    resize(&mut ws.cc, k);

    // Slack distances and variable-row rhs. The arrow Jᵀλ is
    // (Jᵀλ)_g = jd_g·λ_g + ν (block row + coupling row) and
    // (Jᵀλ)_T = -Σ λ_g (each block constraint carries -1 on T).
    let mut lambda_sum = 0.0;
    for g in 0..k {
        lambda_sum += inp.lambda[g];
    }
    for i in 0..n {
        ws.d[i] = (inp.x[i] - inp.lb[i]).max(1e-300);
        let jt_lambda = if i < k {
            inp.jac_diag[i] * inp.lambda[i] + nu
        } else {
            -lambda_sum
        };
        ws.r1[i] = -(inp.grad[i] + jt_lambda - inp.mu / ws.d[i]);
    }

    let mut delta = 0.0;
    'reg: loop {
        let escalate = |delta: &mut f64, detail: &str| -> Result<(), KktError> {
            *delta = next_delta(*delta);
            if *delta > DELTA_MAX {
                Err(KktError {
                    delta: *delta,
                    detail: detail.into(),
                })
            } else {
                Ok(())
            }
        };

        // Reduced primal diagonal with exact inertia test.
        for i in 0..n {
            ws.dcap[i] = inp.hess_diag[i] + inp.z[i] / ws.d[i] + delta;
            if ws.dcap[i] <= 0.0 || !ws.dcap[i].is_finite() {
                escalate(&mut delta, "arrow diagonal never became positive")?;
                continue 'reg;
            }
        }

        // Eliminate dλ_g = a_g + b_g·dν + c_g·dT from constraint row g,
        // accumulating the 2×2 Schur complement
        //   [ p  q ] [dT]   [ rhs_t  ]
        //   [ r  s ] [dν] = [ rhs_nu ]
        // from the T row and the coupling row.
        let mut p = ws.dcap[k];
        let mut q = 0.0;
        let mut r = 0.0;
        let mut s = -EPS_DUAL;
        let mut rhs_t = ws.r1[k];
        let mut rhs_nu = -inp.c[k];
        for g in 0..k {
            let jd = inp.jac_diag[g];
            let inv_d = 1.0 / ws.dcap[g];
            let jd_over_d = jd * inv_d;
            let qg = jd * jd_over_d + EPS_DUAL;
            let ag = (jd_over_d * ws.r1[g] + inp.c[g]) / qg;
            let bg = -jd_over_d / qg;
            let cg = -1.0 / qg;
            ws.a[g] = ag;
            ws.b[g] = bg;
            ws.cc[g] = cg;
            // T row: D_T·dT - Σ dλ_g = r1_T.
            p -= cg;
            q -= bg;
            rhs_t += ag;
            // Coupling row: Σ dx_g - ε·dν = -c_k, with dx_g expanded.
            r -= jd_over_d * cg;
            s -= jd_over_d * bg + inv_d;
            rhs_nu -= ws.r1[g] * inv_d - jd_over_d * ag;
        }

        let det = p * s - q * r;
        if !det.is_finite() || det.abs() < 1e-300 {
            escalate(&mut delta, "singular arrow Schur complement")?;
            continue 'reg;
        }
        let dt = (rhs_t * s - q * rhs_nu) / det;
        let dnu = (p * rhs_nu - r * rhs_t) / det;

        // Back-substitute dλ then dx, recover dz, and validate.
        resize(&mut step.dx, n);
        resize(&mut step.dlambda, n);
        resize(&mut step.dz, n);
        let mut finite = dt.is_finite() && dnu.is_finite();
        step.dx[k] = dt;
        step.dlambda[k] = dnu;
        for g in 0..k {
            let dl = ws.a[g] + ws.b[g] * dnu + ws.cc[g] * dt;
            let dxg = (ws.r1[g] - inp.jac_diag[g] * dl - dnu) / ws.dcap[g];
            step.dlambda[g] = dl;
            step.dx[g] = dxg;
            finite &= dl.is_finite() && dxg.is_finite();
        }
        for i in 0..n {
            let dzi = (inp.mu - inp.z[i] * step.dx[i]) / ws.d[i] - inp.z[i];
            step.dz[i] = dzi;
            finite &= dzi.is_finite();
        }
        if !finite {
            escalate(&mut delta, "non-finite step at max regularization")?;
            continue 'reg;
        }

        step.delta = delta;
        return Ok(());
    }
}

fn resize(buf: &mut Vec<f64>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unconstrained convex quadratic with bounds far away: the KKT step
    /// from the center must point at the minimizer.
    #[test]
    fn newton_step_on_quadratic() {
        let n = 2;
        // f = 0.5 xᵀ H x - gᵀ x with H = diag(2, 4), minimizer H x = g.
        let hess = Mat::from_rows(2, 2, &[2.0, 0.0, 0.0, 4.0]);
        let jac = Mat::zeros(0, 2);
        let x = vec![1.0, 1.0];
        let lb = vec![-1e10, -1e10];
        let z = vec![1e-12, 1e-12]; // bounds inactive
        let grad = vec![2.0 * x[0] - 4.0, 4.0 * x[1] - 8.0]; // g = (4, 8)
        let step = solve_kkt(&KktInputs {
            hess: &hess,
            jac: &jac,
            grad: &grad,
            c: &[],
            x: &x,
            lb: &lb,
            z: &z,
            lambda: &[],
            mu: 1e-14,
        })
        .unwrap();
        // Minimizer is (2, 2); Newton step from (1,1) is (1,1).
        assert!((step.dx[0] - 1.0).abs() < 1e-6, "{:?}", step.dx);
        assert!((step.dx[1] - 1.0).abs() < 1e-6, "{:?}", step.dx);
        assert_eq!(step.dlambda.len(), 0);
        let _ = n;
    }

    /// Equality-constrained quadratic: step must restore feasibility.
    #[test]
    fn step_restores_linear_constraint() {
        // f = 0.5(x0² + x1²), c = x0 + x1 - 1 = 0.
        let hess = Mat::identity(2);
        let jac = Mat::from_rows(1, 2, &[1.0, 1.0]);
        let x = vec![0.2, 0.2];
        let c = vec![x[0] + x[1] - 1.0];
        let grad = x.clone();
        let step = solve_kkt(&KktInputs {
            hess: &hess,
            jac: &jac,
            grad: &grad,
            c: &c,
            x: &x,
            lb: &[-1e10, -1e10],
            z: &[1e-12, 1e-12],
            lambda: &[0.0],
            mu: 1e-14,
        })
        .unwrap();
        // Linear constraint: J dx = -c exactly.
        let jdx = step.dx[0] + step.dx[1];
        assert!((jdx - (-c[0])).abs() < 1e-8);
        // Full step lands on the known solution (0.5, 0.5).
        assert!((x[0] + step.dx[0] - 0.5).abs() < 1e-6);
        assert!((x[1] + step.dx[1] - 0.5).abs() < 1e-6);
    }

    /// An indefinite Hessian must trigger regularization, not failure.
    #[test]
    fn indefinite_hessian_is_regularized() {
        let hess = Mat::from_rows(2, 2, &[-5.0, 0.0, 0.0, -5.0]);
        let jac = Mat::from_rows(1, 2, &[1.0, 1.0]);
        let x = vec![0.4, 0.6];
        let step = solve_kkt(&KktInputs {
            hess: &hess,
            jac: &jac,
            grad: &[0.1, -0.2],
            c: &[0.0],
            x: &x,
            lb: &[0.0, 0.0],
            z: &[0.1, 0.1],
            lambda: &[0.0],
            mu: 0.01,
        })
        .unwrap();
        assert!(step.delta > 0.0, "expected regularization");
        assert!(step.dx.iter().all(|v| v.is_finite()));
    }

    /// Duplicate constraints (rank-deficient Jacobian) still solve thanks
    /// to the dual regularization.
    #[test]
    fn rank_deficient_jacobian_survives() {
        let hess = Mat::identity(2);
        let jac = Mat::from_rows(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let x = vec![0.3, 0.3];
        let step = solve_kkt(&KktInputs {
            hess: &hess,
            jac: &jac,
            grad: &[0.3, 0.3],
            c: &[-0.4, -0.4],
            x: &x,
            lb: &[0.0, 0.0],
            z: &[0.1, 0.1],
            lambda: &[0.0, 0.0],
            mu: 0.01,
        })
        .unwrap();
        assert!(step.dx.iter().all(|v| v.is_finite()));
    }

    /// A dense system: Hessian, Jacobian, gradient, constraints, lower
    /// bounds, bound multipliers, equality multipliers.
    type DenseSystem = (Mat, Mat, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

    /// Build the dense `KktInputs` equivalent of an arrow system so the
    /// dense path can serve as an oracle.
    fn dense_equiv(inp: &ArrowKktInputs<'_>) -> DenseSystem {
        let n = inp.x.len();
        let k = n - 1;
        let mut hess = Mat::zeros(n, n);
        for i in 0..n {
            hess[(i, i)] = inp.hess_diag[i];
        }
        let mut jac = Mat::zeros(n, n);
        for g in 0..k {
            jac[(g, g)] = inp.jac_diag[g];
            jac[(g, k)] = -1.0;
            jac[(k, g)] = 1.0;
        }
        (
            hess,
            jac,
            inp.grad.to_vec(),
            inp.c.to_vec(),
            inp.lb.to_vec(),
            inp.z.to_vec(),
            inp.lambda.to_vec(),
        )
    }

    /// The arrow path must reproduce the dense solve on a convex
    /// selection-shaped system to tight tolerance.
    #[test]
    fn arrow_agrees_with_dense_on_selection_shape() {
        let k = 3;
        let inp = ArrowKktInputs {
            hess_diag: &[0.8, 1.3, 2.1, 0.0],
            jac_diag: &[-1.7, -0.9, -2.4],
            grad: &[0.0, 0.0, 0.0, 1.0],
            c: &[0.03, -0.02, 0.05, 0.01],
            x: &[0.3, 0.4, 0.3, 1.2],
            lb: &[1e-9, 1e-9, 1e-9, 0.0],
            z: &[0.05, 0.04, 0.06, 0.01],
            lambda: &[0.2, -0.1, 0.3, 0.4],
            mu: 0.01,
        };
        let arrow = solve_kkt_arrow(&inp).unwrap();
        let (hess, jac, grad, c, lb, z, lambda) = dense_equiv(&inp);
        let dense = solve_kkt(&KktInputs {
            hess: &hess,
            jac: &jac,
            grad: &grad,
            c: &c,
            x: inp.x,
            lb: &lb,
            z: &z,
            lambda: &lambda,
            mu: inp.mu,
        })
        .unwrap();
        for i in 0..k + 1 {
            assert!(
                (arrow.dx[i] - dense.dx[i]).abs() < 1e-9,
                "dx[{i}]: {} vs {}",
                arrow.dx[i],
                dense.dx[i]
            );
            assert!(
                (arrow.dlambda[i] - dense.dlambda[i]).abs() < 1e-9,
                "dlambda[{i}]: {} vs {}",
                arrow.dlambda[i],
                dense.dlambda[i]
            );
            assert!(
                (arrow.dz[i] - dense.dz[i]).abs() < 1e-9,
                "dz[{i}]: {} vs {}",
                arrow.dz[i],
                dense.dz[i]
            );
        }
    }

    /// Negative curvature in a block must escalate `δ`, not fail.
    #[test]
    fn arrow_indefinite_hessian_is_regularized() {
        let inp = ArrowKktInputs {
            hess_diag: &[-5.0, -5.0, 0.0],
            jac_diag: &[-1.0, -1.0],
            grad: &[0.0, 0.0, 1.0],
            c: &[0.0, 0.0, 0.0],
            x: &[0.5, 0.5, 1.0],
            lb: &[0.0, 0.0, 0.0],
            z: &[0.1, 0.1, 0.1],
            lambda: &[0.0, 0.0, 0.0],
            mu: 0.01,
        };
        let step = solve_kkt_arrow(&inp).unwrap();
        assert!(step.delta > 0.0, "expected regularization");
        assert!(step.dx.iter().all(|v| v.is_finite()));
    }

    /// The arrow path satisfies the same linearized complementarity
    /// identity as the dense recovery: `z·dx + d·dz = μ - d·z`.
    #[test]
    fn arrow_dz_satisfies_complementarity_linearization() {
        let inp = ArrowKktInputs {
            hess_diag: &[1.0, 2.0, 0.0],
            jac_diag: &[-2.0, -3.0],
            grad: &[0.0, 0.0, 1.0],
            c: &[0.1, -0.1, 0.0],
            x: &[0.6, 0.4, 0.9],
            lb: &[1e-9, 1e-9, 0.0],
            z: &[0.2, 0.3, 0.05],
            lambda: &[0.1, 0.1, 0.2],
            mu: 0.05,
        };
        let step = solve_kkt_arrow(&inp).unwrap();
        for i in 0..3 {
            let d = inp.x[i] - inp.lb[i];
            let lhs = inp.z[i] * step.dx[i] + d * step.dz[i];
            let rhs = inp.mu - d * inp.z[i];
            assert!((lhs - rhs).abs() < 1e-10, "i={i}: {lhs} vs {rhs}");
        }
    }

    /// Workspace reuse across solves of different sizes stays correct.
    #[test]
    fn arrow_workspace_reuse_across_sizes() {
        let mut ws = ArrowWorkspace::new();
        let mut step = KktStep {
            dx: Vec::new(),
            dlambda: Vec::new(),
            dz: Vec::new(),
            delta: 0.0,
        };
        for k in [2usize, 5, 3] {
            let n = k + 1;
            let hess_diag: Vec<f64> = (0..n).map(|i| 0.5 + i as f64 * 0.1).collect();
            let jac_diag: Vec<f64> = (0..k).map(|g| -1.0 - g as f64 * 0.2).collect();
            let mut grad = vec![0.0; n];
            grad[k] = 1.0;
            let c: Vec<f64> = (0..n).map(|j| 0.01 * (j as f64 - 1.0)).collect();
            let x: Vec<f64> = (0..n).map(|i| 0.2 + 0.1 * i as f64).collect();
            let lb = vec![0.0; n];
            let z = vec![0.05; n];
            let lambda = vec![0.1; n];
            let inp = ArrowKktInputs {
                hess_diag: &hess_diag,
                jac_diag: &jac_diag,
                grad: &grad,
                c: &c,
                x: &x,
                lb: &lb,
                z: &z,
                lambda: &lambda,
                mu: 0.01,
            };
            solve_kkt_arrow_into(&inp, &mut ws, &mut step).unwrap();
            assert_eq!(step.dx.len(), n);
            let (hess, jac, grad_d, c_d, lb_d, z_d, lambda_d) = dense_equiv(&inp);
            let dense = solve_kkt(&KktInputs {
                hess: &hess,
                jac: &jac,
                grad: &grad_d,
                c: &c_d,
                x: &x,
                lb: &lb_d,
                z: &z_d,
                lambda: &lambda_d,
                mu: 0.01,
            })
            .unwrap();
            for i in 0..n {
                assert!((step.dx[i] - dense.dx[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dz_recovery_satisfies_complementarity_linearization() {
        let hess = Mat::identity(1);
        let jac = Mat::zeros(0, 1);
        let x = vec![0.5];
        let lb = vec![0.0];
        let z = vec![0.2];
        let mu = 0.05;
        let step = solve_kkt(&KktInputs {
            hess: &hess,
            jac: &jac,
            grad: &[0.1],
            c: &[],
            x: &x,
            lb: &lb,
            z: &z,
            lambda: &[],
            mu,
        })
        .unwrap();
        // Linearized complementarity: z*dx + d*dz = mu - d*z.
        let d = x[0] - lb[0];
        let lhs = z[0] * step.dx[0] + d * step.dz[0];
        let rhs = mu - d * z[0];
        assert!((lhs - rhs).abs() < 1e-10);
    }
}
