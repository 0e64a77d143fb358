//! Direct dense solvers: LU with partial pivoting, and linear least
//! squares by Householder QR.
//!
//! These cover every linear-algebra need of the workspace: the
//! least-squares curve fits of the performance-modeling phase (QR), and
//! the dense KKT oracle of the interior-point solver (LU).

use crate::matrix::Mat;

/// Errors from the direct solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinAlgError {
    /// A pivot fell below the singularity tolerance.
    Singular {
        /// Magnitude of the offending pivot.
        pivot: f64,
        /// Column index where elimination failed.
        index: usize,
    },
    /// Shapes are inconsistent with the requested operation.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The input contained NaN or infinity.
    NotFinite,
}

impl std::fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinAlgError::Singular { pivot, index } => {
                write!(f, "singular matrix: pivot {pivot:.3e} at column {index}")
            }
            LinAlgError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            LinAlgError::NotFinite => write!(f, "non-finite values in input"),
        }
    }
}

impl std::error::Error for LinAlgError {}

const PIVOT_TOL: f64 = 1e-13;

/// LU factorization with partial pivoting, `P A = L U`.
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: Mat,
    /// Row permutation: `perm[i]` is the source row of factored row `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factor a square matrix.
    pub fn factor(a: &Mat) -> Result<Lu, LinAlgError> {
        if !a.is_square() {
            return Err(LinAlgError::ShapeMismatch {
                detail: format!("LU requires square matrix, got {}x{}", a.rows(), a.cols()),
            });
        }
        if !a.is_finite() {
            return Err(LinAlgError::NotFinite);
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < PIVOT_TOL {
                return Err(LinAlgError::Singular {
                    pivot: pmax,
                    index: k,
                });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let u = lu[(k, j)];
                    lu[(i, j)] -= m * u;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solve `A x = b` using the factorization.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinAlgError::ShapeMismatch {
                detail: format!("rhs length {} != {}", b.len(), n),
            });
        }
        // Apply permutation, then forward substitution (unit L).
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        // Backward substitution (U).
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * x[j];
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// Householder QR of the row-major `m x n` matrix in `a` (`m >= n`), in
/// place: reflector vectors end up below the diagonal, R on and above
/// it, the reflector scalars in `tau` (length `n`). The one copy of the
/// factorization loops, which [`lstsq`] runs.
fn householder_factor(
    a: &mut [f64],
    m: usize,
    n: usize,
    tau: &mut [f64],
) -> Result<(), LinAlgError> {
    debug_assert!(a.len() == m * n && tau.len() == n, "QR workspace shape");
    if m < n {
        return Err(LinAlgError::ShapeMismatch {
            detail: format!("QR requires rows >= cols, got {m}x{n}"),
        });
    }
    if !a.iter().all(|v| v.is_finite()) {
        return Err(LinAlgError::NotFinite);
    }
    for k in 0..n {
        // Householder vector for column k.
        let mut norm = 0.0;
        for i in k..m {
            norm += a[i * n + k] * a[i * n + k];
        }
        let norm = norm.sqrt();
        if norm < PIVOT_TOL {
            return Err(LinAlgError::Singular {
                pivot: norm,
                index: k,
            });
        }
        let alpha = if a[k * n + k] >= 0.0 { -norm } else { norm };
        let v0 = a[k * n + k] - alpha;
        // Normalize so v[k] == 1 implicitly; store v below diagonal.
        for i in (k + 1)..m {
            a[i * n + k] /= v0;
        }
        tau[k] = -v0 / alpha;
        a[k * n + k] = alpha;
        // Apply the reflector to the remaining columns.
        for j in (k + 1)..n {
            let mut s = a[k * n + j];
            for i in (k + 1)..m {
                s += a[i * n + k] * a[i * n + j];
            }
            s *= tau[k];
            a[k * n + j] -= s;
            for i in (k + 1)..m {
                let vik = a[i * n + k];
                a[i * n + j] -= s * vik;
            }
        }
    }
    Ok(())
}

/// Least-squares solve against a factorization made by
/// [`householder_factor`]: `y` (length `m`) holds the right-hand side
/// on entry and `Qᵀ b` on return, `x` (length `n`) receives the
/// solution.
fn householder_solve(
    qr: &[f64],
    m: usize,
    n: usize,
    tau: &[f64],
    y: &mut [f64],
    x: &mut [f64],
) -> Result<(), LinAlgError> {
    debug_assert!(
        qr.len() == m * n && tau.len() == n && y.len() == m && x.len() == n,
        "QR workspace shape"
    );
    // Apply Qᵀ to b.
    for k in 0..n {
        let mut s = y[k];
        for i in (k + 1)..m {
            s += qr[i * n + k] * y[i];
        }
        s *= tau[k];
        y[k] -= s;
        for i in (k + 1)..m {
            let vik = qr[i * n + k];
            y[i] -= s * vik;
        }
    }
    // Back-substitute R x = (Qᵀ b)[0..n].
    x.fill(0.0);
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in (i + 1)..n {
            s -= qr[i * n + j] * x[j];
        }
        let d = qr[i * n + i];
        if d.abs() < PIVOT_TOL {
            return Err(LinAlgError::Singular {
                pivot: d.abs(),
                index: i,
            });
        }
        x[i] = s / d;
    }
    Ok(())
}

/// Scratch of one [`lstsq_into`] solve of an `m x n` system, provided
/// by the caller so a loop of solves allocates nothing: `a2` holds at
/// least `m·n` values, `y` at least `m`, the others at least `n`.
pub(crate) struct LstsqScratch<'a> {
    pub(crate) a2: &'a mut [f64],
    pub(crate) y: &'a mut [f64],
    pub(crate) tau: &'a mut [f64],
    pub(crate) scale: &'a mut [f64],
    pub(crate) sol: &'a mut [f64],
    pub(crate) kept: &'a mut [usize],
}

/// [`lstsq`] over a matrix given as `a(row, col)`, writing the `n`
/// coefficients to `x` and touching no heap: the least-squares kernel
/// every fit in this crate runs.
pub(crate) fn lstsq_into(
    m: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f64,
    b: &[f64],
    scratch: LstsqScratch<'_>,
    x: &mut [f64],
) -> Result<(), LinAlgError> {
    if b.len() != m {
        return Err(LinAlgError::ShapeMismatch {
            detail: format!("rhs length {} != {}", b.len(), m),
        });
    }
    let LstsqScratch {
        a2,
        y,
        tau,
        scale,
        sol,
        kept,
    } = scratch;
    debug_assert!(
        x.len() == n
            && a2.len() >= m * n
            && y.len() >= m
            && tau.len() >= n
            && scale.len() >= n
            && sol.len() >= n
            && kept.len() >= n,
        "least-squares workspace shape"
    );
    // Column scales; identically zero columns drop out.
    let mut k = 0;
    for j in 0..n {
        let mut s = 0.0f64;
        for i in 0..m {
            s = s.max(a(i, j).abs());
        }
        scale[j] = s;
        if s > 0.0 {
            kept[k] = j;
            k += 1;
        }
    }
    x.fill(0.0);
    if k == 0 {
        return Ok(());
    }
    let (a2, y, tau, sol, kept) = (
        &mut a2[..m * k],
        &mut y[..m],
        &mut tau[..k],
        &mut sol[..k],
        &kept[..k],
    );
    for (jj, &j) in kept.iter().enumerate() {
        for i in 0..m {
            a2[i * k + jj] = a(i, j) / scale[j];
        }
    }
    householder_factor(a2, m, k, tau)?;
    y.copy_from_slice(b);
    householder_solve(a2, m, k, tau, y, sol)?;
    for (jj, &j) in kept.iter().enumerate() {
        x[j] = sol[jj] / scale[j];
    }
    Ok(())
}

/// Linear least squares with per-column scaling for conditioning.
///
/// Columns of `a` are scaled to unit infinity-norm before the QR solve;
/// the solution is unscaled afterwards. Columns that are identically zero
/// yield a zero coefficient rather than an error, which matters when a
/// basis function degenerates on the sampled range (e.g. `ln x` when all
/// samples share one x value after normalization).
pub fn lstsq(a: &Mat, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
    let (m, n) = (a.rows(), a.cols());
    let mut reals = vec![0.0f64; m * n + m + 3 * n];
    let (a2, rest) = reals.split_at_mut(m * n);
    let (y, rest) = rest.split_at_mut(m);
    let (tau, rest) = rest.split_at_mut(n);
    let (scale, sol) = rest.split_at_mut(n);
    let scratch = LstsqScratch {
        a2,
        y,
        tau,
        scale,
        sol,
        kept: &mut vec![0; n],
    };
    let mut x = vec![0.0; n];
    lstsq_into(m, n, |i, j| a[(i, j)], b, scratch, &mut x)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x - y).abs() < tol,
                "{x} != {y} (tol {tol}): {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn lu_solves_known_system() {
        let a = Mat::from_rows(3, 3, &[2., 1., 1., 1., 3., 2., 1., 0., 0.]);
        let x = Lu::factor(&a).unwrap().solve(&[4., 5., 6.]).unwrap();
        // Check residual instead of hand-computing the solution.
        let r = a.matvec(&x);
        assert_close(&r, &[4., 5., 6.], 1e-10);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Mat::from_rows(2, 2, &[1., 2., 2., 4.]);
        assert!(matches!(Lu::factor(&a), Err(LinAlgError::Singular { .. })));
    }

    #[test]
    fn lu_rejects_nan() {
        let mut a = Mat::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(Lu::factor(&a), Err(LinAlgError::NotFinite)));
    }

    #[test]
    fn qr_least_squares_overdetermined() {
        // Fit y = 2x + 1 through noisy-free points: exact recovery.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let a = Mat::from_fn(4, 2, |i, j| if j == 0 { xs[i] } else { 1.0 });
        let b: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let sol = lstsq(&a, &b).unwrap();
        assert_close(&sol, &[2.0, 1.0], 1e-10);
    }

    #[test]
    fn qr_square_matches_lu() {
        let a = Mat::from_rows(3, 3, &[4., 1., 2., 1., 3., 0., 2., 0., 5.]);
        let b = [1., 2., 3.];
        let xq = lstsq(&a, &b).unwrap();
        let xl = Lu::factor(&a).unwrap().solve(&b).unwrap();
        assert_close(&xq, &xl, 1e-9);
    }

    #[test]
    fn lstsq_rejects_wide() {
        let a = Mat::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert!(matches!(
            lstsq(&a, &[0.0, 0.0]),
            Err(LinAlgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn lstsq_zero_column_gets_zero_coefficient() {
        // Second column is identically zero; fit must still succeed.
        let a = Mat::from_fn(4, 2, |i, j| if j == 0 { (i + 1) as f64 } else { 0.0 });
        let b: Vec<f64> = (1..=4).map(|i| 3.0 * i as f64).collect();
        let x = lstsq(&a, &b).unwrap();
        assert_close(&x, &[3.0, 0.0], 1e-10);
    }

    #[test]
    fn lstsq_badly_scaled_columns() {
        // Columns with scales 1e9 and 1e-9: plain normal equations would
        // lose all precision; scaled QR must recover coefficients.
        let n = 6;
        let a = Mat::from_fn(n, 2, |i, j| {
            let x = (i + 1) as f64;
            if j == 0 {
                1e9 * x
            } else {
                1e-9 * x * x
            }
        });
        let truth = [2.0e-9, 5.0e9];
        let b: Vec<f64> = (0..n)
            .map(|i| a[(i, 0)] * truth[0] + a[(i, 1)] * truth[1])
            .collect();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - truth[0]).abs() / truth[0].abs() < 1e-6);
        assert!((x[1] - truth[1]).abs() / truth[1].abs() < 1e-6);
    }

    #[test]
    fn lstsq_all_zero_matrix() {
        let a = Mat::zeros(3, 2);
        let x = lstsq(&a, &[1., 2., 3.]).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
    }

    // Edge cases beyond the one-property tests above.

    #[test]
    fn one_by_one_systems() {
        let a = Mat::from_rows(1, 1, &[4.0]);
        assert_eq!(Lu::factor(&a).unwrap().solve(&[8.0]).unwrap(), vec![2.0]);
        assert_eq!(lstsq(&a, &[8.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn tall_least_squares_residual_is_orthogonal() {
        // m=6, n=2: the residual of the LS solution must be orthogonal to
        // the column space.
        let a = Mat::from_fn(6, 2, |i, j| ((i + 1) as f64).powi(j as i32 + 1));
        let b: Vec<f64> = (0..6)
            .map(|i| (i as f64) * 1.3 - 2.0 + ((i * i) as f64) * 0.1)
            .collect();
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let atr = a.tr_matvec(&r);
        for v in atr {
            assert!(v.abs() < 1e-8, "residual not orthogonal: {v}");
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
        assert!(Lu::factor(&a).unwrap().solve(&[1.0, 2.0]).is_err());
        assert!(lstsq(&a, &[1.0, 2.0, 3.0, 4.0]).is_err());
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
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&truth) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }
}
