#![warn(missing_docs)]
// Panic policy (scheduling decisions must degrade, not abort) is
// enforced workspace-wide by `cargo xtask lint` pass 10
// (`panic-freedom`, docs/SOUNDNESS.md) instead of per-crate clippy
// deny attributes.

//! PLB-HeC: the Profile-based Load-Balancing algorithm for Heterogeneous
//! CPU-GPU Clusters (Sant'Ana, Camargo & Cordeiro, IEEE CLUSTER 2015),
//! plus the three baseline schedulers the paper compares against.
//!
//! The algorithm runs in three phases (paper Section III):
//!
//! 1. **Performance modeling** ([`modeling`]) — online probing with
//!    exponentially growing, speed-rescaled block sizes; least-squares
//!    fits of per-unit execution time `F_p[x]` over the basis
//!    `{ln x, x, x², x³, eˣ, x·eˣ, x·ln x}` and of transfer time
//!    `G_p[x] = a₁x + a₂`; probing stops at R² ≥ 0.7 on every unit or
//!    after 20 % of the data.
//! 2. **Block-size selection** ([`selection`]) — solve
//!    `min T  s.t.  E_g(x_g) = T ∀g, Σ x_g = 1, x ≥ 0`, which the paper
//!    hands to IPOPT. Over increasing curves it has one degree of
//!    freedom, `T`, so it is solved as one safeguarded Newton root on
//!    `T`, then rounded to valid application block sizes.
//! 3. **Execution and rebalancing** ([`policy`]) — asynchronous
//!    self-scheduled execution with the selected sizes; when finish
//!    times diverge beyond a threshold (10 % of a block's execution
//!    time), synchronize, refit with all accumulated measurements, and
//!    re-solve.
//!
//! Baselines ([`baselines`]): StarPU-style **Greedy** dispatch,
//! **Acosta**'s relative-power iterative rebalancing, and **HDSS**'s
//! two-phase (adaptive + completion) log-curve weight scheme.
//!
//! Every policy implements [`plb_runtime::Policy`] and therefore runs
//! unchanged on both the discrete-event simulator and the real-thread
//! host backend.

pub mod baselines;
pub mod config;
pub mod diffusion;
pub mod modeling;
pub mod perf;
pub mod policy;
pub mod profile;
pub mod selection;

pub use baselines::{AcostaPolicy, GreedyPolicy, HdssPolicy, StaticProfilePolicy};
pub use config::{FitMode, PolicyConfig, ProbeSchedule, SolverChoice};
pub use diffusion::NodeDiffusionPolicy;
pub use policy::PlbHecPolicy;
pub use profile::{PerfProfile, UnitModel};
pub use selection::{select_block_sizes, SelectionMethod, SelectionResult};
