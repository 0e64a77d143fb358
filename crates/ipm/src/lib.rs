#![warn(missing_docs)]
// Indexed loops mirror the textbook linear-algebra formulations and
// keep row/column index symmetry visible; iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]
// Solver failures surface as `IpmError`/`IpmStatus`, never as panics:
// the balancer falls back to proportional selection when a solve goes
// bad. Enforced by `cargo xtask lint` pass 10 (`panic-freedom`,
// docs/SOUNDNESS.md).

//! Interior-point NLP solver — the workspace's IPOPT substitute, for
//! the one problem it solves.
//!
//! The paper solves its block-size selection problem (Section III-C) with
//! IPOPT's interior-point line-search filter method (reference \[25\],
//! Nocedal, Wächter & Waltz, "Adaptive barrier update strategies for
//! nonlinear interior methods"). This crate implements that method, on
//! [`problem::BlockPartitionNlp`] alone, the exact NLP of
//! Equations (3)–(5): minimize the common finish time `T` subject to
//! `E_g(x_g) = T` for every processing unit and `Σ x_g = 1`, with
//! `x_g ≥ X_MIN`:
//!
//! * primal-dual log-barrier formulation;
//! * Newton steps on the perturbed KKT system with inertia-correcting
//!   diagonal regularization, through the O(n) arrow-structured Schur
//!   elimination ([`kkt::solve_kkt_arrow`]) the problem's shape allows,
//!   which is what lets a solve over thousands of processing units
//!   finish in microseconds (see `docs/PERFORMANCE.md`). The dense LU
//!   solve ([`kkt::solve_kkt`]) stays as the oracle each arrow step is
//!   checked against;
//! * a Wächter–Biegler-style filter line search with a
//!   fraction-to-boundary rule;
//! * the monotone (Fiacco–McCormick) barrier update, IPOPT's default;
//! * warm starting ([`solve_warm`]) of rebalance re-solves from the
//!   previous optimum, cutting repeat solves to a few iterations.

pub mod filter;
pub mod kkt;
pub mod nlp;
pub mod problem;
pub mod solver;

pub use nlp::BoxedCurve;
pub use problem::BlockPartitionNlp;
pub use solver::{
    solve, solve_warm, IpmError, IpmOptions, IpmStatus, IterationRecord, Solution, WarmStart,
};
