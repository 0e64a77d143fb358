//! The fit kernel against the path it replaced, bit for bit.
//!
//! Until PR 16 every candidate model of a best-subset fit built its own
//! design matrix, cloned it into a QR factorization and allocated its
//! way through `fit_basis` → `lstsq` → `Qr::factor`/`solve`. The crate
//! now tabulates the basis once and solves every candidate in one
//! workspace. The old path is kept *here*, as the reference: its own
//! Householder loops over a `Mat`, its own column scaling, its own
//! selection loop. Seeded random sample sets — duplicate block sizes, a
//! basis column that degenerates to zero, as many samples as
//! parameters, samples that only the relaxed tiers accept — must give
//! the same bits (or the same error) through both.

use plb_numerics::stats::adjusted_r_squared;
use plb_numerics::{
    fit_basis, fit_best_model, fit_linear, lstsq, r_squared, BasisFn, BasisSet, FitError,
    FittedCurve, LinAlgError, Mat,
};
use plb_rng::ChaCha8Rng;

const PIVOT_TOL: f64 = 1e-13;

/// What a fit is, without the crate's private fields.
#[derive(Debug, Clone, PartialEq)]
struct RefFit {
    funcs: Vec<BasisFn>,
    coeffs: Vec<f64>,
    r2: f64,
    adj_r2: f64,
    x_scale: f64,
    y_scale: f64,
}

impl RefFit {
    fn eval(&self, x: f64) -> f64 {
        let u = x / self.x_scale;
        let s: f64 = self
            .funcs
            .iter()
            .zip(&self.coeffs)
            .map(|(f, a)| a * f.eval(u))
            .sum();
        s * self.y_scale
    }
}

/// `Qr::factor` followed by `Qr::solve`, as they were.
fn ref_qr_solve(a: &Mat, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
    let (m, n) = (a.rows(), a.cols());
    if m < n {
        return Err(LinAlgError::ShapeMismatch {
            detail: format!("QR requires rows >= cols, got {m}x{n}"),
        });
    }
    if !a.is_finite() {
        return Err(LinAlgError::NotFinite);
    }
    let mut qr = a.clone();
    let mut tau = vec![0.0; n];
    for k in 0..n {
        let mut norm = 0.0;
        for i in k..m {
            norm += qr[(i, k)] * qr[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < PIVOT_TOL {
            return Err(LinAlgError::Singular {
                pivot: norm,
                index: k,
            });
        }
        let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
        let v0 = qr[(k, k)] - alpha;
        for i in (k + 1)..m {
            qr[(i, k)] /= v0;
        }
        tau[k] = -v0 / alpha;
        qr[(k, k)] = alpha;
        for j in (k + 1)..n {
            let mut s = qr[(k, j)];
            for i in (k + 1)..m {
                s += qr[(i, k)] * qr[(i, j)];
            }
            s *= tau[k];
            qr[(k, j)] -= s;
            for i in (k + 1)..m {
                let vik = qr[(i, k)];
                qr[(i, j)] -= s * vik;
            }
        }
    }
    let mut y = b.to_vec();
    for k in 0..n {
        let mut s = y[k];
        for i in (k + 1)..m {
            s += qr[(i, k)] * y[i];
        }
        s *= tau[k];
        y[k] -= s;
        for i in (k + 1)..m {
            let vik = qr[(i, k)];
            y[i] -= s * vik;
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in (i + 1)..n {
            s -= qr[(i, j)] * x[j];
        }
        let d = qr[(i, i)];
        if d.abs() < PIVOT_TOL {
            return Err(LinAlgError::Singular {
                pivot: d.abs(),
                index: i,
            });
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// `lstsq`, as it was.
fn ref_lstsq(a: &Mat, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
    let (m, n) = (a.rows(), a.cols());
    if b.len() != m {
        return Err(LinAlgError::ShapeMismatch {
            detail: format!("rhs length {} != {}", b.len(), m),
        });
    }
    let mut scale = vec![0.0f64; n];
    for j in 0..n {
        let mut s = 0.0f64;
        for i in 0..m {
            s = s.max(a[(i, j)].abs());
        }
        scale[j] = s;
    }
    let kept: Vec<usize> = (0..n).filter(|&j| scale[j] > 0.0).collect();
    if kept.is_empty() {
        return Ok(vec![0.0; n]);
    }
    let mut a2 = Mat::zeros(m, kept.len());
    for (jj, &j) in kept.iter().enumerate() {
        for i in 0..m {
            a2[(i, jj)] = a[(i, j)] / scale[j];
        }
    }
    let sol = ref_qr_solve(&a2, b)?;
    let mut x = vec![0.0; n];
    for (jj, &j) in kept.iter().enumerate() {
        x[j] = sol[jj] / scale[j];
    }
    Ok(x)
}

fn ref_validate(samples: &[(f64, f64)]) -> Result<(), FitError> {
    for (i, &(x, y)) in samples.iter().enumerate() {
        if !(x.is_finite() && x > 0.0 && y.is_finite()) {
            return Err(FitError::InvalidSample { index: i });
        }
    }
    Ok(())
}

/// `fit_basis`, as it was.
fn ref_fit_basis(samples: &[(f64, f64)], basis: &BasisSet) -> Result<RefFit, FitError> {
    ref_validate(samples)?;
    let n = samples.len();
    let k = basis.len();
    if n < k {
        return Err(FitError::NotEnoughSamples { have: n, need: k });
    }
    let x_max = samples.iter().fold(0.0f64, |m, &(x, _)| m.max(x));
    let y_max = samples.iter().fold(0.0f64, |m, &(_, y)| m.max(y.abs()));
    let x_scale = if x_max > 0.0 { x_max } else { 1.0 };
    let y_scale = if y_max > 0.0 { y_max } else { 1.0 };

    let mut design = Mat::zeros(n, k);
    let mut rhs = vec![0.0; n];
    let mut row = Vec::with_capacity(k);
    for (i, &(x, y)) in samples.iter().enumerate() {
        basis.eval_row(x / x_scale, &mut row);
        design.row_mut(i).copy_from_slice(&row);
        rhs[i] = y / y_scale;
    }
    let coeffs = ref_lstsq(&design, &rhs).map_err(FitError::AllModelsFailed)?;
    let predicted: Vec<f64> = (0..n)
        .map(|i| design.row(i).iter().zip(&coeffs).map(|(d, c)| d * c).sum())
        .collect();
    let r2 = r_squared(&rhs, &predicted);
    Ok(RefFit {
        funcs: basis.funcs().to_vec(),
        coeffs,
        r2,
        adj_r2: adjusted_r_squared(r2, n, k),
        x_scale,
        y_scale,
    })
}

fn ref_extrapolates_sanely(fit: &RefFit, max_x: f64) -> bool {
    let mut prev = fit.eval(max_x);
    if !(prev.is_finite() && prev > 0.0) {
        return false;
    }
    for mult in [2.0, 4.0, 8.0, 16.0] {
        let v = fit.eval(max_x * mult);
        if !(v.is_finite() && v > 0.0 && v >= 0.99 * prev) {
            return false;
        }
        prev = v;
    }
    true
}

/// `fit_best_model`, as it was. Also reports the tier that produced
/// the winner, so the test can say it reached every one of them.
fn ref_fit_best_model(samples: &[(f64, f64)]) -> Result<(RefFit, usize), FitError> {
    ref_validate(samples)?;
    if samples.len() < 2 {
        return Err(FitError::NotEnoughSamples {
            have: samples.len(),
            need: 2,
        });
    }
    let max_x = samples.iter().fold(0.0f64, |m, &(x, _)| m.max(x));
    let mut best: Option<RefFit> = None;
    let mut last_err: Option<FitError> = None;
    let tiers = [(true, true), (false, true), (true, false), (false, false)];
    for (tier, (require_dof, require_sane)) in tiers.into_iter().enumerate() {
        for cand in BasisSet::candidate_models() {
            let limit_ok = if require_dof {
                cand.len() < samples.len()
            } else {
                cand.len() <= samples.len()
            };
            if !limit_ok {
                continue;
            }
            match ref_fit_basis(samples, &cand) {
                Ok(fit) => {
                    if require_sane && !ref_extrapolates_sanely(&fit, max_x) {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            if fit.funcs.len() <= b.funcs.len() {
                                fit.adj_r2 > b.adj_r2
                            } else {
                                fit.adj_r2 > b.adj_r2 + 0.005
                            }
                        }
                    };
                    if better {
                        best = Some(fit);
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        if let Some(b) = best {
            return Ok((b, tier));
        }
    }
    Err(last_err.unwrap_or(FitError::NotEnoughSamples {
        have: samples.len(),
        need: 2,
    }))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(got: Result<FittedCurve, FitError>, want: Result<RefFit, FitError>, what: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.basis().funcs(), &w.funcs[..], "{what}: basis");
            assert_eq!(bits(g.coeffs()), bits(&w.coeffs), "{what}: coefficients");
            assert_eq!(g.r2().to_bits(), w.r2.to_bits(), "{what}: R²");
            assert_eq!(
                g.adjusted_r2().to_bits(),
                w.adj_r2.to_bits(),
                "{what}: adjusted R²"
            );
            // Pins both normalization scales.
            for x in [0.37 * w.x_scale, w.x_scale, 5.0 * w.x_scale] {
                assert_eq!(
                    g.eval(x).to_bits(),
                    w.eval(x).to_bits(),
                    "{what}: eval({x})"
                );
            }
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: error"),
        (g, w) => panic!("{what}: kernel gave {g:?}, reference gave {w:?}"),
    }
}

/// One random sample set; `shape` picks the family.
fn sample_set(rng: &mut ChaCha8Rng, shape: u32) -> Vec<(f64, f64)> {
    // Mostly what a modeling phase holds; one set in five is long
    // enough to leave the kernel's on-stack workspace for the heap.
    let n = if rng.gen_range(0..5) == 0 {
        rng.gen_range(13usize..=48)
    } else {
        rng.gen_range(2usize..=12)
    };
    let base = 10f64.powf(rng.gen_range(0.0..9.0));
    let mut xs: Vec<f64> = (0..n)
        .map(|_| (base * rng.gen_range(0.01..1.0f64)).max(1e-9))
        .collect();
    match shape % 4 {
        // A repeated block size, as extra probes at the ×8 cap give.
        0 => {
            let dup = xs[0];
            for x in xs.iter_mut().skip(1).step_by(2) {
                *x = dup;
            }
        }
        // Every sample at one size: after normalization `ln u` and
        // `u ln u` are identically zero columns, and `1`, `u`, `u²`
        // coincide (singular designs).
        1 => xs.fill(base),
        _ => {}
    }
    let (a, b, c) = (
        rng.gen_range(0.0..2.0f64),
        rng.gen_range(1e-9..1e-3f64),
        rng.gen_range(0.0..1e-9f64),
    );
    let noise = rng.gen_range(0.0..0.3f64);
    xs.iter()
        .map(|&x| {
            let w = 1.0 + noise * rng.gen_range(-1.0..1.0f64);
            let y = match shape % 7 {
                0 => a + b * x,
                1 => a + b * x + c * x * x,
                2 => a + 0.3 * (1.0 + x).ln() + b * x,
                3 => a,                       // constant, explained by nothing
                4 => rng.gen_range(0.0..1.0), // noise
                5 => 1.0 + a - b * x,         // decreasing: relaxed tiers
                _ => 0.0,                     // all-zero times
            };
            (x, y * w)
        })
        .collect()
}

#[test]
fn best_subset_matches_the_per_candidate_reference() {
    let cases = if cfg!(miri) { 12 } else { 3000 };
    let mut rng = ChaCha8Rng::seed_from_u64(0x16_F17);
    let mut tiers_seen = [0usize; 4];
    let mut n_equals_k = 0;
    for case in 0..cases {
        let samples = sample_set(&mut rng, case);
        let want = ref_fit_best_model(&samples);
        if let Ok((fit, tier)) = &want {
            tiers_seen[*tier] += 1;
            n_equals_k += usize::from(fit.funcs.len() == samples.len());
        }
        assert_same(
            fit_best_model(&samples),
            want.map(|(fit, _)| fit),
            &format!("case {case}: {samples:?}"),
        );
    }
    if !cfg!(miri) {
        assert!(
            tiers_seen.iter().all(|&t| t > 0),
            "a tier was never the deciding one: {tiers_seen:?}"
        );
        assert!(
            n_equals_k > 0,
            "no winner with as many parameters as samples"
        );
    }
}

#[test]
fn single_model_fits_match_the_reference() {
    let cases = if cfg!(miri) { 8 } else { 1500 };
    let mut rng = ChaCha8Rng::seed_from_u64(0x16_B45);
    for case in 0..cases {
        let samples = sample_set(&mut rng, case);
        // Any subset of the basis, in any order, repeats included
        // (`BasisSet::new` drops them).
        let k = rng.gen_range(1usize..=5);
        let funcs: Vec<BasisFn> = (0..k)
            .map(|_| BasisFn::ALL[rng.gen_range(0..BasisFn::ALL.len())])
            .collect();
        let basis = BasisSet::new(&funcs);
        let what = format!("case {case}: {} over {samples:?}", basis.describe());
        assert_same(
            fit_basis(&samples, &basis),
            ref_fit_basis(&samples, &basis),
            &what,
        );
        assert_same(
            fit_linear(&samples),
            ref_fit_basis(&samples, &BasisSet::transfer_linear()),
            &what,
        );
    }
}

#[test]
fn invalid_samples_are_rejected_like_before() {
    for samples in [
        vec![(1.0, 1.0)],
        vec![],
        vec![(1.0, 1.0), (0.0, 2.0), (3.0, 3.0)],
        vec![(1.0, 1.0), (2.0, f64::NAN)],
        vec![(f64::INFINITY, 1.0), (2.0, 2.0)],
        vec![(-4.0, 1.0), (2.0, 2.0)],
    ] {
        assert_same(
            fit_best_model(&samples),
            ref_fit_best_model(&samples).map(|(f, _)| f),
            &format!("{samples:?}"),
        );
        assert_same(
            fit_linear(&samples),
            ref_fit_basis(&samples, &BasisSet::transfer_linear()),
            &format!("{samples:?}"),
        );
    }
}

#[test]
fn lstsq_matches_the_reference() {
    let cases = if cfg!(miri) { 8 } else { 2000 };
    let mut rng = ChaCha8Rng::seed_from_u64(0x16_157);
    for case in 0..cases {
        let n = rng.gen_range(1usize..=5);
        // Square, tall, and (rarely) wide, which QR must refuse.
        let m = match case % 10 {
            0 => n,
            1 => n.saturating_sub(1).max(1),
            _ => n + rng.gen_range(0usize..6),
        };
        let mut a = Mat::from_fn(m, n, |_, _| rng.gen_range(-3.0..3.0));
        match case % 6 {
            // A zero column.
            0 => (0..m).for_each(|i| a[(i, n - 1)] = 0.0),
            // Two equal columns: singular.
            1 if n > 1 => (0..m).for_each(|i| a[(i, 1)] = a[(i, 0)]),
            // Columns of wildly different magnitude.
            2 => (0..m).for_each(|i| a[(i, 0)] *= 1e9),
            3 if case % 5 == 0 => a[(0, 0)] = f64::NAN,
            _ => {}
        }
        let b: Vec<f64> = (0..m + usize::from(case % 97 == 0))
            .map(|_| rng.gen_range(-10.0..10.0))
            .collect();
        let (got, want) = (lstsq(&a, &b), ref_lstsq(&a, &b));
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert_eq!(bits(g), bits(w), "case {case}: {a:?} \\ {b:?}"),
            _ => assert_eq!(got, want, "case {case}: {a:?} \\ {b:?}"),
        }
    }
}
