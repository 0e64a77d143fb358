#![warn(missing_docs)]

//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures from the simulator.
//!
//! * [`harness`] — the scenario runner: (application, machine scenario,
//!   policy, seed) → run reports, repeated over the paper's 10-run
//!   protocol.
//! * [`figures`] — one generator per table/figure of the paper
//!   (Table I, Fig. 1, Fig. 3–7, plus the block-size solve cost statistic
//!   from Section V and the ablation studies from DESIGN.md).
//! * [`report`] — writes each figure's markdown and its tables' CSVs
//!   under `results/`; the tables are [`plb_runtime::Table`]s.
//!
//! The `repro` binary drives all of this:
//! `cargo run -p plb-bench --bin repro --release -- all`.

pub mod figures;
pub mod harness;
pub mod report;
pub mod viz;

pub use harness::{
    default_initial_block, run_many, run_once, Aggregate, App, PolicyKind, RunOutcome,
};
pub use report::write_results;
pub use viz::gantt_svg;
