//! Matrix multiplication (paper Section IV-A).
//!
//! "The matrix multiplication application distributes a copy of the
//! matrix A to all processing units and divides matrix B among the
//! processing units according to the load-balancing scheme." One work
//! item is one *line* (column) of B, the paper's rounding unit; a block
//! of `b` items costs `2·n²·b` FLOPs and moves `4·n·b` bytes each way
//! (single-precision input columns and result columns).

use plb_hetsim::CostModel;
use plb_rng::ChaCha8Rng;
use plb_runtime::{Codelet, DisjointOutput, PuResources};
use std::ops::Range;
use std::sync::Arc;

/// The matmul application at matrix order `n`: `C = A × B`, items are
/// columns of B.
#[derive(Debug, Clone)]
pub struct MatMul {
    /// Matrix order.
    pub n: u64,
}

impl MatMul {
    /// Create the application for `n × n` matrices.
    pub fn new(n: u64) -> MatMul {
        assert!(n > 0, "matrix order must be positive");
        MatMul { n }
    }

    /// Total work items (columns of B).
    pub fn total_items(&self) -> u64 {
        self.n
    }

    /// The simulator cost model.
    pub fn cost(&self) -> MatMulCost {
        MatMulCost { n: self.n }
    }
}

/// Cost model: `2·n²` FLOPs, `4n` bytes in/out, and `n` fine-grained
/// threads (one per output element of the column) per item.
#[derive(Debug, Clone)]
pub struct MatMulCost {
    n: u64,
}

impl CostModel for MatMulCost {
    fn name(&self) -> &str {
        "matmul"
    }

    fn flops(&self, items: u64) -> f64 {
        2.0 * (self.n as f64) * (self.n as f64) * items as f64
    }

    fn bytes_in(&self, items: u64) -> f64 {
        4.0 * self.n as f64 * items as f64
    }

    fn bytes_out(&self, items: u64) -> f64 {
        4.0 * self.n as f64 * items as f64
    }

    fn bytes_touched(&self, items: u64) -> f64 {
        // The kernel streams the B column and C column once and A from
        // cache-resident tiles; approximate with 3 arrays' worth.
        12.0 * self.n as f64 * items as f64
    }

    fn threads(&self, items: u64) -> f64 {
        self.n as f64 * items as f64
    }

    fn broadcast_bytes(&self) -> f64 {
        // Matrix A is distributed "to all processing units" and every
        // task's column computation reads all of it. At n = 65536 that
        // is 17 GB — more than any Table I GPU holds, so tasks at large
        // n re-stream it (the effect that makes the paper's speedups
        // grow with matrix size).
        4.0 * self.n as f64 * self.n as f64
    }
}

/// Host data: column-major B and C so a work item (column) is
/// contiguous.
pub struct MatMulData {
    /// Matrix order.
    pub n: usize,
    /// A, row-major `n × n`.
    pub a: Vec<f32>,
    /// B, column-major `n × n`.
    pub b: Vec<f32>,
}

impl MatMulData {
    /// Generate random matrices with a deterministic seed.
    pub fn generate(n: usize, seed: u64) -> MatMulData {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = vec![0.0f32; n * n];
        let mut b = vec![0.0f32; n * n];
        for v in a.iter_mut().chain(b.iter_mut()) {
            *v = rng.gen_range(-1.0..1.0);
        }
        MatMulData { n, a, b }
    }
}

/// The real CPU codelet: computes the C columns of its item range.
pub struct MatMulCodelet {
    data: Arc<MatMulData>,
    /// Output C, column-major; each work item (column `j`) owns the
    /// contiguous element range `j·n .. (j+1)·n`, and a chunk of
    /// columns claims its columns' elements as one [`DisjointOutput`]
    /// view.
    c: Arc<DisjointOutput<f32>>,
}

impl MatMulCodelet {
    /// Wrap host data for execution.
    pub fn new(data: Arc<MatMulData>) -> MatMulCodelet {
        let c = Arc::new(DisjointOutput::new(0.0f32, data.n * data.n));
        MatMulCodelet { data, c }
    }

    /// Copy the result matrix out (column-major).
    pub fn result(&self) -> Vec<f32> {
        self.c.snapshot()
    }

    fn compute_column(&self, j: usize, col: &mut [f32]) {
        let n = self.data.n;
        let a = &self.data.a;
        let bcol = &self.data.b[j * n..(j + 1) * n];
        for i in 0..n {
            let arow = &a[i * n..(i + 1) * n];
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += arow[k] * bcol[k];
            }
            col[i] = acc;
        }
    }
}

impl Codelet for MatMulCodelet {
    fn name(&self) -> &str {
        "matmul"
    }

    fn execute(&self, range: Range<u64>, res: &PuResources) {
        let n = self.data.n;
        res.for_each_chunk(range, |sub| {
            let (lo, hi) = (sub.start as usize, sub.end as usize);
            let mut out = self.c.writer(lo * n..hi * n);
            for (j, col) in (lo..hi).zip(out.chunks_exact_mut(n)) {
                self.compute_column(j, col);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::PuKind;

    #[test]
    fn cost_is_cubic_in_order() {
        let small = MatMul::new(100).cost();
        let big = MatMul::new(200).cost();
        // Per item: 2n² flops → 4x when n doubles; total items double
        // too, so full-problem cost is 8x.
        assert!((big.flops(1) / small.flops(1) - 4.0).abs() < 1e-12);
        let full_small = small.flops(100);
        let full_big = big.flops(200);
        assert!((full_big / full_small - 8.0).abs() < 1e-12);
    }

    #[test]
    fn codelet_matches_reference() {
        let n = 17;
        let data = Arc::new(MatMulData::generate(n, 42));
        let codelet = MatMulCodelet::new(Arc::clone(&data));
        codelet.execute(
            0..n as u64,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let c = codelet.result();
        // Reference: naive triple loop.
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += data.a[i * n + k] * data.b[j * n + k];
                }
                let got = c[j * n + i];
                assert!((got - acc).abs() < 1e-3, "C[{i},{j}] = {got}, want {acc}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let n = 32;
        let data = Arc::new(MatMulData::generate(n, 7));
        let seq = MatMulCodelet::new(Arc::clone(&data));
        seq.execute(
            0..n as u64,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let par = MatMulCodelet::new(Arc::clone(&data));
        par.execute(
            0..n as u64,
            &PuResources {
                threads: 4,
                kind: PuKind::Gpu,
            },
        );
        assert_eq!(seq.result(), par.result());
    }

    #[test]
    fn partial_ranges_fill_only_their_columns() {
        let n = 8;
        let data = Arc::new(MatMulData::generate(n, 1));
        let codelet = MatMulCodelet::new(data);
        codelet.execute(
            2..4,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let c = codelet.result();
        // Columns outside 2..4 stay zero.
        assert!(c[0..2 * n].iter().all(|&v| v == 0.0));
        assert!(c[4 * n..].iter().all(|&v| v == 0.0));
        assert!(c[2 * n..4 * n].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn deterministic_generation() {
        let d1 = MatMulData::generate(10, 3);
        let d2 = MatMulData::generate(10, 3);
        assert_eq!(d1.a, d2.a);
        assert_eq!(d1.b, d2.b);
        let d3 = MatMulData::generate(10, 4);
        assert_ne!(d1.a, d3.a);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_order_rejected() {
        MatMul::new(0);
    }
}
