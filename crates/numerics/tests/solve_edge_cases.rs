//! Edge cases of the direct solvers beyond the unit tests.

use plb_numerics::{cholesky_solve, lstsq, lu_solve, qr_solve, Cholesky, Lu, Mat, Qr};

#[test]
fn one_by_one_systems() {
    let a = Mat::from_rows(1, 1, &[4.0]);
    assert_eq!(lu_solve(&a, &[8.0]).unwrap(), vec![2.0]);
    assert_eq!(cholesky_solve(&a, &[8.0]).unwrap(), vec![2.0]);
    assert_eq!(qr_solve(&a, &[8.0]).unwrap(), vec![2.0]);
}

#[test]
fn lu_determinant_properties() {
    // det(I) = 1; det of a scaled identity = product of the scales;
    // row swap flips the sign.
    let f = Lu::factor(&Mat::identity(3)).unwrap();
    assert!((f.det() - 1.0).abs() < 1e-12);
    let d = Mat::from_rows(3, 3, &[2.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 5.0]);
    assert!((Lu::factor(&d).unwrap().det() - 30.0).abs() < 1e-9);
    let swapped = Mat::from_rows(3, 3, &[0.0, 3.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 5.0]);
    assert!((Lu::factor(&swapped).unwrap().det() + 30.0).abs() < 1e-9);
}

#[test]
fn tall_qr_least_squares_residual_is_orthogonal() {
    // m=6, n=2: the residual of the LS solution must be orthogonal to
    // the column space.
    let a = Mat::from_fn(6, 2, |i, j| ((i + 1) as f64).powi(j as i32 + 1));
    let b: Vec<f64> = (0..6)
        .map(|i| (i as f64) * 1.3 - 2.0 + ((i * i) as f64) * 0.1)
        .collect();
    let x = Qr::factor(&a).unwrap().solve(&b).unwrap();
    let ax = a.matvec(&x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
    let atr = a.tr_matvec(&r);
    for v in atr {
        assert!(v.abs() < 1e-8, "residual not orthogonal: {v}");
    }
}

#[test]
fn cholesky_lower_factor_is_triangular() {
    let m = Mat::from_rows(3, 3, &[4.0, 2.0, 1.0, 2.0, 5.0, 3.0, 1.0, 3.0, 6.0]);
    let f = Cholesky::factor(&m).unwrap();
    let l = f.l();
    for i in 0..3 {
        for j in (i + 1)..3 {
            assert_eq!(l[(i, j)], 0.0, "upper triangle must be zero");
        }
        assert!(l[(i, i)] > 0.0, "diagonal must be positive");
    }
}

#[test]
fn lstsq_with_more_columns_than_independent_data_shapes() {
    // 4 samples, 3 columns where col2 = 2*col1: collinear. Plain QR
    // would fail; lstsq's scaling doesn't fix rank deficiency, so the
    // call may error — the contract is that it never panics and never
    // returns NaN.
    let a = Mat::from_fn(4, 3, |i, j| match j {
        0 => 1.0,
        1 => (i + 1) as f64,
        _ => 2.0 * (i + 1) as f64,
    });
    let b = vec![1.0, 2.0, 3.0, 4.0];
    // Rank-deficient: an error is acceptable.
    if let Ok(x) = lstsq(&a, &b) {
        assert!(x.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn solvers_reject_dimension_mismatches() {
    let a = Mat::identity(3);
    assert!(lu_solve(&a, &[1.0, 2.0]).is_err());
    assert!(cholesky_solve(&a, &[1.0]).is_err());
    assert!(qr_solve(&a, &[1.0, 2.0, 3.0, 4.0]).is_err());
}

#[test]
fn large_well_conditioned_system_round_trips() {
    // 40x40 diagonally dominant: residual stays tiny.
    let n = 40;
    let a = Mat::from_fn(n, n, |i, j| {
        if i == j {
            100.0
        } else {
            ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5
        }
    });
    let truth: Vec<f64> = (0..n).map(|i| (i as f64 - 20.0) / 7.0).collect();
    let b = a.matvec(&truth);
    let x = lu_solve(&a, &b).unwrap();
    for (xi, ti) in x.iter().zip(&truth) {
        assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
    }
}
