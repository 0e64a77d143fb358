//! A minimal dense, row-major matrix type.
//!
//! The problems solved in this workspace are small (curve fits over a
//! handful of basis functions, KKT systems with a few dozen variables), so
//! a straightforward `Vec<f64>`-backed dense matrix is the right tool: no
//! unsafe, no external BLAS, cache-friendly row-major storage.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
///
/// ```
/// use plb_numerics::Mat;
///
/// let a = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(a.row(1), &[3.0, 4.0]);
/// assert_eq!(a.tr_matvec(&[1.0, 1.0]), vec![4.0, 6.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major slice. Panics if the slice length
    /// does not equal `rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_rows: expected {} elements, got {}",
            rows * cols,
            data.len()
        );
        Mat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {} out of bounds ({} rows)",
            i,
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed matrix-vector product `selfᵀ * v`.
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            self.rows,
            v.len(),
            "tr_matvec: dimension mismatch ({}x{})ᵀ * {}",
            self.rows,
            self.cols,
            v.len()
        );
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(self.row(i)) {
                *o += a * vi;
            }
        }
        out
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

/// Test-only constructors and products.
#[cfg(test)]
impl Mat {
    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Matrix-vector product `self * v`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            self.cols,
            v.len(),
            "matvec: dimension mismatch ({}x{} * {})",
            self.rows,
            self.cols,
            v.len()
        );
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data.iter().all(|&v| v == 0.0));

        let i = Mat::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    #[should_panic(expected = "from_rows")]
    fn from_rows_wrong_len_panics() {
        Mat::from_rows(2, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_and_transposed() {
        let a = Mat::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matvec(&[1., 1., 1.]), vec![6., 15.]);
        assert_eq!(a.tr_matvec(&[1., 1.]), vec![5., 7., 9.]);
    }

    #[test]
    fn row_access() {
        let m = Mat::from_rows(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Mat::identity(2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }
}
