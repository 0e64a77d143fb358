//! The per-unit execution-time curves the block-partition NLP is built
//! from.

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
