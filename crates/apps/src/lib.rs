#![warn(missing_docs)]

//! The paper's three evaluation applications (Section IV-A), each as a
//! pair of artifacts:
//!
//! * a **cost model** (`plb_hetsim::CostModel`) describing the FLOPs,
//!   bytes, and parallelism per block — what the cluster simulator uses
//!   to "execute" blocks at paper-scale inputs (65536² matrices, 140k
//!   genes, 500k options) in milliseconds of wall time;
//! * a **real CPU codelet** (`plb_runtime::Codelet`) — an actual kernel
//!   run by the host backend in the examples and correctness tests.
//!
//! | App | Paper role | Complexity | Item |
//! |-----|-----------|-----------|------|
//! | [`matmul`] | linear algebra (CUBLAS MM) | O(n³) | one line of B |
//! | [`grn`] | bioinformatics (GRN inference) | O(n³) | one target gene |
//! | [`blackscholes`] | finance | O(n) | one option |
//!
//! A fourth application, [`nnlayer`] (dense neural-network layer
//! inference), extends the suite into the machine-learning workload
//! class the paper's introduction motivates.
//!
//! A fifth, [`spmv`] (sparse matrix–vector multiply with power-law row
//! lengths), opens the *irregular* workload class: items are rows but
//! work is nonzeros, so it additionally exports per-item
//! [`plb_runtime::Weights`] that the weighted range model consumes.

pub mod blackscholes;
pub mod grn;
pub mod matmul;
pub mod nnlayer;
pub mod spmv;

pub use blackscholes::{BlackScholes, BsCodelet, BsCost};
pub use grn::{GrnCodelet, GrnCost, GrnInference};
pub use matmul::{MatMul, MatMulCodelet, MatMulCost};
pub use nnlayer::{NnLayer, NnLayerCodelet, NnLayerCost};
pub use spmv::{Spmv, SpmvCost};

/// The input-size grids of the paper's evaluation (Figures 4 and 5).
pub mod paper_inputs {
    /// Matrix orders: 4096 × 4096 up to 65536 × 65536.
    pub const MM_SIZES: [u64; 5] = [4096, 8192, 16384, 32768, 65536];
    /// Gene counts: 60,000 to 140,000.
    pub const GRN_SIZES: [u64; 5] = [60_000, 80_000, 100_000, 120_000, 140_000];
    /// Option counts: 10,000 to 500,000.
    pub const BS_SIZES: [u64; 5] = [10_000, 50_000, 100_000, 250_000, 500_000];
}
