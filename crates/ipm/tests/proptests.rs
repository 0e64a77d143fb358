//! Property-based tests for the interior-point solver: on randomly
//! generated block-partition problems the returned point must always be
//! a valid, equalizing partition.

use plb_ipm::kkt::{solve_kkt, solve_kkt_arrow, ArrowKktInputs, KktInputs};
use plb_ipm::nlp::FnCurve;
use plb_ipm::{solve, BlockPartitionNlp, BoxedCurve, IpmOptions};
use plb_numerics::Mat;
use proptest::prelude::*;

/// Random affine device: time = overhead + x / rate.
fn affine_curve(rate: f64, overhead: f64) -> BoxedCurve {
    Box::new(FnCurve::new(
        move |x: f64| overhead + x / rate,
        move |_| 1.0 / rate,
        |_| 0.0,
    ))
}

/// Random convex quadratic device: time = o + a x + b x².
fn quad_curve(o: f64, a: f64, b: f64) -> BoxedCurve {
    Box::new(FnCurve::new(
        move |x: f64| o + a * x + b * x * x,
        move |x: f64| a + 2.0 * b * x,
        move |_| 2.0 * b,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_is_always_finite_and_optimal_solves_are_feasible(
        rates in proptest::collection::vec(0.01f64..100.0, 2..8),
        overheads in proptest::collection::vec(0.0f64..0.05, 8),
    ) {
        let curves: Vec<BoxedCurve> = rates
            .iter()
            .zip(&overheads)
            .map(|(&r, &o)| affine_curve(r, o))
            .collect();
        let n = curves.len();
        let nlp = BlockPartitionNlp::new(curves);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();

        // The iterate is always finite — callers can inspect it safely.
        prop_assert!(sol.x.iter().all(|v| v.is_finite()));

        // On extreme spreads (rates span 4 orders of magnitude here) the
        // solver may stop early; the caller's fallback chain handles
        // that. When it reports Optimal, the point must be feasible.
        if sol.status == plb_ipm::IpmStatus::Optimal {
            let frac = &sol.x[..n];
            let sum: f64 = frac.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
            for &f in frac {
                prop_assert!((-1e-9..=1.0 + 1e-6).contains(&f), "fraction {f}");
            }
            prop_assert!(sol.constraint_violation < 1e-3);
        }
    }

    #[test]
    fn equal_time_constraint_holds_for_convex_devices(
        params in proptest::collection::vec((0.0f64..0.1, 0.1f64..10.0, 0.0f64..5.0), 2..8),
    ) {
        let curves: Vec<BoxedCurve> =
            params.iter().map(|&(o, a, b)| quad_curve(o, a, b)).collect();
        let n = curves.len();
        let nlp = BlockPartitionNlp::new(curves);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        if sol.constraint_violation < 1e-6 {
            // Times equalized: every unit's time matches T.
            let t = sol.x[n];
            for g in 0..n {
                let tg = nlp.unit_time(g, sol.x[g].max(1e-12));
                prop_assert!(
                    (tg - t).abs() < 1e-4 * t.max(1e-6),
                    "unit {g}: {tg} vs T={t}"
                );
            }
        }
    }

    #[test]
    fn faster_affine_devices_get_larger_fractions(
        r1 in 0.1f64..10.0,
        ratio in 1.5f64..50.0,
    ) {
        let r2 = r1 * ratio;
        let nlp = BlockPartitionNlp::new(vec![affine_curve(r1, 0.0), affine_curve(r2, 0.0)]);
        let sol = solve(&nlp, &IpmOptions::default()).unwrap();
        prop_assert!(
            sol.x[1] > sol.x[0],
            "faster device got {:.4} <= {:.4}",
            sol.x[1],
            sol.x[0]
        );
        // Affine with zero overhead: exactly rate-proportional.
        let expect = r2 / (r1 + r2);
        prop_assert!((sol.x[1] - expect).abs() < 1e-3, "{} vs {expect}", sol.x[1]);
    }

    #[test]
    fn arrow_kkt_step_matches_dense_oracle(
        (hess_diag_k, jac_diag, xs, zs, lambdas, cs) in (2usize..12).prop_flat_map(|k| (
            proptest::collection::vec(0.01f64..5.0, k),
            proptest::collection::vec(0.1f64..5.0, k),
            proptest::collection::vec(0.01f64..1.0, k),
            proptest::collection::vec(0.001f64..1.0, k + 1),
            proptest::collection::vec(-1.0f64..1.0, k + 1),
            proptest::collection::vec(-0.1f64..0.1, k + 1),
        )),
        t in 0.1f64..2.0,
        mu in 1e-6f64..0.1,
    ) {
        // A random convex selection-shaped KKT system: diagonal Hessian
        // over [x_0..x_{k-1}, T], block rows (jd_g on x_g, -1 on T), an
        // all-ones simplex row. The arrow elimination must reproduce
        // the dense factorization to oracle tolerance.
        let k = hess_diag_k.len();
        let n = k + 1;
        let mut hess_diag = hess_diag_k.clone();
        hess_diag.push(0.0); // T is linear in the objective
        let mut grad = vec![0.0; n];
        grad[k] = 1.0; // min T
        let mut x = xs.clone();
        x.push(t);
        let mut lb = vec![1e-9; k];
        lb.push(0.0);

        let inp = ArrowKktInputs {
            hess_diag: &hess_diag,
            jac_diag: &jac_diag,
            grad: &grad,
            c: &cs,
            x: &x,
            lb: &lb,
            z: &zs,
            lambda: &lambdas,
            mu,
        };
        let arrow = solve_kkt_arrow(&inp).unwrap();

        // Dense oracle: materialize the same system as full matrices.
        let mut hess = Mat::zeros(n, n);
        for i in 0..n {
            hess[(i, i)] = hess_diag[i];
        }
        let mut jac = Mat::zeros(n, n);
        for g in 0..k {
            jac[(g, g)] = jac_diag[g];
            jac[(g, k)] = -1.0;
            jac[(k, g)] = 1.0;
        }
        let dense = solve_kkt(&KktInputs {
            hess: &hess,
            jac: &jac,
            grad: &grad,
            c: &cs,
            x: &x,
            lb: &lb,
            z: &zs,
            lambda: &lambdas,
            mu,
        })
        .unwrap();

        for i in 0..n {
            prop_assert!(
                (arrow.dx[i] - dense.dx[i]).abs() < 1e-9,
                "dx[{i}]: arrow {} vs dense {}",
                arrow.dx[i],
                dense.dx[i]
            );
            prop_assert!(
                (arrow.dlambda[i] - dense.dlambda[i]).abs() < 1e-9,
                "dlambda[{i}]: arrow {} vs dense {}",
                arrow.dlambda[i],
                dense.dlambda[i]
            );
            prop_assert!(
                (arrow.dz[i] - dense.dz[i]).abs() < 1e-9,
                "dz[{i}]: arrow {} vs dense {}",
                arrow.dz[i],
                dense.dz[i]
            );
        }
    }

    #[test]
    fn warm_start_is_a_distribution(
        rates in proptest::collection::vec(0.01f64..100.0, 1..10),
    ) {
        let curves: Vec<BoxedCurve> =
            rates.iter().map(|&r| affine_curve(r, 0.01)).collect();
        let nlp = BlockPartitionNlp::new(curves);
        let ws = nlp.warm_start_fractions();
        let sum: f64 = ws.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(ws.iter().all(|&w| w > 0.0));
    }
}
