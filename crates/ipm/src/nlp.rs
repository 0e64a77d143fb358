//! The NLP problem interface consumed by the interior-point solver.
//!
//! Problems have the standard form
//!
//! ```text
//! minimize    f(x)
//! subject to  c(x) = 0          (m equality constraints)
//!             x  >= lb          (element-wise lower bounds)
//! ```
//!
//! which is exactly what the PLB-HeC block-size selection needs
//! (fractions bounded below by a small epsilon, equal-time equality
//! constraints, and the simplex constraint). Upper bounds can be encoded
//! as equalities or by the caller's variable transformation; the
//! block-partition problem does not need them because `Σ x = 1, x ≥ 0`
//! already implies `x ≤ 1`.

use plb_numerics::Mat;

/// A smooth nonlinear program with equality constraints and lower bounds.
pub trait NlpProblem {
    /// Number of decision variables.
    fn n(&self) -> usize;

    /// Number of equality constraints.
    fn m(&self) -> usize;

    /// Objective value at `x`.
    fn objective(&self, x: &[f64]) -> f64;

    /// Objective gradient into `grad` (length `n`).
    fn gradient(&self, x: &[f64], grad: &mut [f64]);

    /// Constraint values into `c` (length `m`).
    fn constraints(&self, x: &[f64], c: &mut [f64]);

    /// Constraint Jacobian (`m x n`) into `jac`.
    fn jacobian(&self, x: &[f64], jac: &mut Mat);

    /// Hessian of the Lagrangian `∇²f + Σ λ_i ∇²c_i` (`n x n`) into `h`.
    fn lagrangian_hessian(&self, x: &[f64], lambda: &[f64], h: &mut Mat);

    /// Element-wise lower bounds (length `n`). Defaults to all zeros.
    fn lower_bounds(&self) -> Vec<f64> {
        vec![0.0; self.n()]
    }

    /// A strictly feasible-with-respect-to-bounds starting point.
    fn initial_point(&self) -> Vec<f64>;

    /// Declare *arrow* structure, the shape every PLB-HeC selection
    /// problem has: `k` scalar blocks coupled only through one shared
    /// variable and one coupling row.
    ///
    /// Returning `Some(k)` asserts that, with `n = k + 1` variables
    /// `[x_0, …, x_{k-1}, T]` and `m = k + 1` constraints:
    ///
    /// * the Lagrangian Hessian is diagonal,
    /// * constraint `g < k` touches only `x_g` (entry `∂c_g/∂x_g`) and
    ///   `T` (constant entry `-1`),
    /// * the last constraint is the coupling row `Σ x_g + const`, i.e.
    ///   all-ones over the blocks and `0` over `T`.
    ///
    /// The solver then replaces the dense `(n+m)²` factorization with an
    /// O(n) block elimination (see [`crate::kkt::solve_kkt_arrow`]).
    /// The default — `None` — keeps the dense path.
    fn arrow_k(&self) -> Option<usize> {
        None
    }

    /// Fill the arrow Jacobian at `x`: `jac_diag[g] = ∂c_g/∂x_g`
    /// (length `k`). Returns `true` on success; the default returns
    /// `false`, which makes the solver hold this point's Jacobian dense.
    ///
    /// Asked once per point the solver evaluates, trial points of the
    /// line search included. Only called when [`NlpProblem::arrow_k`]
    /// returns `Some`.
    fn arrow_jac_diag(&self, x: &[f64], jac_diag: &mut [f64]) -> bool {
        let _ = (x, jac_diag);
        false
    }

    /// Fill the arrow Hessian at `(x, lambda)`: `hess_diag[i] = ∂²L/∂x_i²`
    /// (length `n = k + 1`, last entry for `T`). Returns `true` on
    /// success; the default returns `false`, which makes the solver fall
    /// back to the dense assembly for that iteration.
    ///
    /// Asked once per iteration, before the KKT solve, at an iterate
    /// whose [`arrow_jac_diag`](Self::arrow_jac_diag) succeeded.
    fn arrow_hess_diag(&self, x: &[f64], lambda: &[f64], hess_diag: &mut [f64]) -> bool {
        let _ = (x, lambda, hess_diag);
        false
    }
}

/// A differentiable scalar curve `t(x)` with first and second
/// derivatives: the shape of the fitted `E_g = F_g + G_g` functions the
/// block-partition NLP is built from. Object-safe so heterogeneous curve
/// representations (fitted models, analytic models in tests) can be
/// mixed.
pub trait Curve {
    /// Value at `x`.
    fn value(&self, x: f64) -> f64;
    /// First derivative at `x`.
    fn deriv1(&self, x: f64) -> f64;
    /// Second derivative at `x`.
    fn deriv2(&self, x: f64) -> f64;
}

/// Owned, heap-allocated curve trait object.
pub type BoxedCurve = Box<dyn Curve + Send + Sync>;

impl Curve for plb_numerics::FittedCurve {
    fn value(&self, x: f64) -> f64 {
        self.eval(x)
    }
    fn deriv1(&self, x: f64) -> f64 {
        self.d1(x)
    }
    fn deriv2(&self, x: f64) -> f64 {
        self.d2(x)
    }
}

/// An analytic curve built from closures — convenient in tests and for
/// simulator-backed oracles.
pub struct FnCurve<V, D1, D2>
where
    V: Fn(f64) -> f64,
    D1: Fn(f64) -> f64,
    D2: Fn(f64) -> f64,
{
    value: V,
    d1: D1,
    d2: D2,
}

impl<V, D1, D2> FnCurve<V, D1, D2>
where
    V: Fn(f64) -> f64,
    D1: Fn(f64) -> f64,
    D2: Fn(f64) -> f64,
{
    /// Build a curve from value / first-derivative / second-derivative
    /// closures.
    pub fn new(value: V, d1: D1, d2: D2) -> Self {
        FnCurve { value, d1, d2 }
    }
}

impl<V, D1, D2> Curve for FnCurve<V, D1, D2>
where
    V: Fn(f64) -> f64,
    D1: Fn(f64) -> f64,
    D2: Fn(f64) -> f64,
{
    fn value(&self, x: f64) -> f64 {
        (self.value)(x)
    }
    fn deriv1(&self, x: f64) -> f64 {
        (self.d1)(x)
    }
    fn deriv2(&self, x: f64) -> f64 {
        (self.d2)(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_curve_evaluates() {
        let c = FnCurve::new(|x| x * x, |x| 2.0 * x, |_| 2.0);
        assert_eq!(c.value(3.0), 9.0);
        assert_eq!(c.deriv1(3.0), 6.0);
        assert_eq!(c.deriv2(3.0), 2.0);
    }

    #[test]
    fn fitted_curve_implements_curve() {
        let samples: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        let fit = plb_numerics::fit_linear(&samples).unwrap();
        let c: BoxedCurve = Box::new(fit);
        assert!((c.value(4.0) - 9.0).abs() < 1e-6);
        assert!((c.deriv1(4.0) - 2.0).abs() < 1e-6);
    }
}
