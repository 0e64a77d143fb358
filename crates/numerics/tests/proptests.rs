//! Property-based tests for the numerics crate.

use plb_numerics::{fit_best_model, fit_linear, lstsq, r_squared, BasisFn, Lu, Mat};
use proptest::prelude::*;

/// A well-conditioned random square matrix: diagonally dominant.
fn dominant_matrix(n: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |v| {
        let mut m = Mat::from_rows(n, n, &v);
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0; // strict diagonal dominance
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_residual_small(
        a in dominant_matrix(4),
        b in proptest::collection::vec(-10.0f64..10.0, 4),
    ) {
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let r: Vec<f64> = (0..4)
            .map(|i| a.row(i).iter().zip(&x).map(|(aij, xj)| aij * xj).sum())
            .collect();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8, "residual {ri} vs {bi}");
        }
    }

    #[test]
    fn qr_matches_lu_on_square_systems(
        a in dominant_matrix(3),
        b in proptest::collection::vec(-5.0f64..5.0, 3),
    ) {
        let xq = lstsq(&a, &b).unwrap();
        let xl = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (q, l) in xq.iter().zip(&xl) {
            prop_assert!((q - l).abs() < 1e-7);
        }
    }

    #[test]
    fn lstsq_recovers_exact_affine_data(
        slope in 0.001f64..100.0,
        intercept in 0.0f64..50.0,
        xs in proptest::collection::btree_set(1u32..100_000, 3..12),
    ) {
        let samples: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x as f64, intercept + slope * x as f64))
            .collect();
        let fit = fit_linear(&samples).unwrap();
        prop_assert!(fit.r2() > 1.0 - 1e-9);
        for &(x, y) in &samples {
            prop_assert!((fit.eval(x) - y).abs() < 1e-6 * y.max(1.0));
        }
    }

    #[test]
    fn r_squared_is_at_most_one(
        obs in proptest::collection::vec(0.1f64..100.0, 2..20),
    ) {
        // Any prediction vector: R² of observations vs themselves is 1
        // and shifted predictions only lower it.
        prop_assert!((r_squared(&obs, &obs) - 1.0).abs() < 1e-12);
        let shifted: Vec<f64> = obs.iter().map(|v| v + 1.0).collect();
        prop_assert!(r_squared(&obs, &shifted) <= 1.0);
    }

    #[test]
    fn best_model_fits_never_explode_on_monotone_data(
        rate in 1.0f64..1e3,
        overhead in 0.0f64..10.0,
        extra in proptest::collection::vec(1.0f64..1.1, 6),
    ) {
        // Monotone increasing "timing" data with up to 10% multiplicative
        // wobble and a slope that dominates the noise: the selected model
        // must stay positive and monotone-ish when extrapolated (the
        // guard in fit_best_model). Constant-dominated noisy data is
        // deliberately excluded: there the guard legitimately relaxes
        // and a slightly declining affine fit is acceptable.
        let samples: Vec<(f64, f64)> = extra
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let x = 100.0 * (1 << i) as f64;
                (x, (overhead + x / rate) * w)
            })
            .collect();
        let fit = fit_best_model(&samples).unwrap();
        let max_x = samples.last().unwrap().0;
        let mut prev = fit.eval(max_x);
        prop_assert!(prev.is_finite() && prev > 0.0);
        for mult in [2.0, 4.0, 8.0] {
            let v = fit.eval(max_x * mult);
            prop_assert!(v.is_finite() && v > 0.0, "exploded at {mult}x: {v}");
            prop_assert!(v >= 0.9 * prev, "collapsed at {mult}x");
            prev = v;
        }
    }

    #[test]
    fn basis_derivatives_match_finite_differences(
        x in 0.05f64..5.0,
    ) {
        let h = 1e-7 * x.max(1.0);
        for f in BasisFn::ALL {
            let num = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h);
            let ana = f.d1(x);
            prop_assert!(
                (num - ana).abs() < 1e-3 * (1.0 + ana.abs()),
                "{}: {num} vs {ana} at {x}",
                f.name()
            );
        }
    }

    #[test]
    fn lstsq_zero_columns_never_fail(
        ys in proptest::collection::vec(-10.0f64..10.0, 4),
    ) {
        let values: Vec<f64> = (0..12)
            .map(|k| if k % 3 == 1 { 0.0 } else { (k / 3 + k % 3) as f64 + 1.0 })
            .collect();
        let a = Mat::from_rows(4, 3, &values);
        let x = lstsq(&a, &ys).unwrap();
        prop_assert_eq!(x[1], 0.0);
    }
}
