#![warn(missing_docs)]

//! PLB-HeC reproduction suite: one-stop re-exports of every crate in the
//! workspace.
//!
//! * [`numerics`] — dense linear algebra and the paper's curve models.
//! * [`ipm`] — the interior-point NLP solver (IPOPT's role), the
//!   block-size selection's test oracle.
//! * [`hetsim`] — the heterogeneous CPU/GPU cluster simulator (Table I).
//! * [`runtime`] — the StarPU-like task runtime (codelets, policies,
//!   discrete-event and real-thread engines).
//! * [`plb`] — PLB-HeC itself plus the Greedy/Acosta/HDSS baselines.
//! * [`apps`] — matrix multiplication, GRN inference, Black-Scholes.
//!
//! See the `examples/` directory for runnable entry points and the
//! `plb-bench` crate for the harness that regenerates the paper's
//! tables and figures.

pub use plb_apps as apps;
pub use plb_hec as plb;
pub use plb_hetsim as hetsim;
pub use plb_ipm as ipm;
pub use plb_numerics as numerics;
pub use plb_runtime as runtime;
