#![warn(missing_docs)]
// Indexed loops mirror the textbook linear-algebra formulations and
// keep row/column index symmetry visible; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]

//! Dense numerics for the PLB-HeC reproduction.
//!
//! This crate provides the numerical substrate the load balancer is built
//! on: a small dense [`Mat`] toolkit, an LU factorization, linear least
//! squares by QR, and the performance-curve models of the paper
//! (Section III-B): fits of
//! `F_p[x] = a_1 f_1(x) + ... + a_n f_n(x)` over the basis
//! `{ln x, x, x^2, x^3, e^x, x e^x, x ln x}` and of the linear transfer
//! model `G_p[x] = a_1 x + a_2`.
//!
//! Everything is `f64`, allocation-light, and has no external
//! dependencies, so the interior-point solver in `plb-ipm` can build on it
//! without pulling a full BLAS into the workspace.

pub mod basis;
pub mod curvefit;
pub mod matrix;
pub mod solve;
pub mod stats;

pub use basis::{BasisFn, BasisSet};

pub use curvefit::{fit_basis, fit_best_model, fit_linear, FitError, FittedCurve};
pub use matrix::Mat;
pub use solve::{lstsq, LinAlgError, Lu};
pub use stats::{mean, r_squared};
