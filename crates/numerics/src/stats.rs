//! Small statistics helpers used across the workspace: sample moments and
//! the coefficient of determination (R²) that gates the paper's
//! performance-modeling phase (Section III-B requires R² ≥ 0.7 on every
//! processing unit before probing stops).

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Sample standard deviation (n-1 denominator), as reported by the paper
/// for its 10-run experiment protocol.
pub fn sample_stddev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
}

/// Coefficient of determination of predictions against observations.
///
/// `R² = 1 - SS_res / SS_tot`. When the observations are constant
/// (`SS_tot == 0`), returns 1.0 if the predictions match exactly and 0.0
/// otherwise — constant timing data is "perfectly explained" only by a
/// constant model.
pub fn r_squared(observed: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        predicted.len(),
        "r_squared: length mismatch"
    );
    if observed.is_empty() {
        return 0.0;
    }
    let m = mean(observed);
    let ss_tot: f64 = observed.iter().map(|y| (y - m) * (y - m)).sum();
    let ss_res: f64 = observed
        .iter()
        .zip(predicted)
        .map(|(y, p)| (y - p) * (y - p))
        .sum();
    if ss_tot <= f64::EPSILON * observed.len() as f64 {
        return if ss_res <= 1e-18 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Adjusted R² penalizing model size: guards the model selection against
/// overfitting when probe points are few (the paper's stated reason for
/// the 0.7 threshold is "a good approximation ... and prevents
/// overfitting").
pub fn adjusted_r_squared(r2: f64, n_samples: usize, n_params: usize) -> f64 {
    if n_samples <= n_params + 1 {
        // Not enough degrees of freedom for the correction; fall back to
        // a heavily penalized plain R² so bigger models don't win by
        // default.
        return r2 - 0.05 * n_params as f64;
    }
    1.0 - (1.0 - r2) * ((n_samples - 1) as f64 / (n_samples - n_params - 1) as f64)
}

/// Two-sided 95% confidence half-width for the mean of a small sample,
/// using Student-t critical values (the paper's 10-run protocol lives at
/// n = 10). Returns 0 for fewer than 2 samples.
pub fn confidence95_half_width(v: &[f64]) -> f64 {
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    // t_{0.975, df} for df = 1..30, then the asymptotic 1.96.
    const T: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    let df = n - 1;
    let t = if df <= 30 { T[df - 1] } else { 1.96 };
    t * sample_stddev(v) / (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn sample_stddev_uses_n_minus_one() {
        let v = [1.0, 3.0];
        // mean 2, squared devs 1+1=2, /(n-1)=2, sqrt ≈ 1.414
        assert!((sample_stddev(&v) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn r2_perfect_fit_is_one() {
        let y = [1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&y, &y) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn r2_mean_model_is_zero() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let p = [2.5; 4];
        assert!(r_squared(&y, &p).abs() < 1e-12);
    }

    #[test]
    fn r2_constant_observations() {
        let y = [3.0; 5];
        assert_eq!(r_squared(&y, &[3.0; 5]), 1.0);
        assert_eq!(r_squared(&y, &[4.0; 5]), 0.0);
    }

    #[test]
    fn r2_can_be_negative_for_bad_models() {
        let y = [1.0, 2.0, 3.0];
        let p = [10.0, -5.0, 20.0];
        assert!(r_squared(&y, &p) < 0.0);
    }

    #[test]
    fn adjusted_r2_penalizes_parameters() {
        let r2 = 0.9;
        let a_small = adjusted_r_squared(r2, 10, 2);
        let a_big = adjusted_r_squared(r2, 10, 6);
        assert!(a_small > a_big);
        assert!(a_small <= r2 + 1e-12);
    }

    #[test]
    fn adjusted_r2_degenerate_dof() {
        // 4 samples, 4 params: falls back to penalized R².
        let a = adjusted_r_squared(1.0, 4, 4);
        assert!(a < 1.0);
    }

    #[test]
    fn confidence_interval_matches_known_t() {
        // n = 10, σ known: half-width = 2.262·s/√10.
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let hw = confidence95_half_width(&v);
        let expect = 2.262 * sample_stddev(&v) / 10.0f64.sqrt();
        assert!((hw - expect).abs() < 1e-12);
        assert_eq!(confidence95_half_width(&[1.0]), 0.0);
    }
}
