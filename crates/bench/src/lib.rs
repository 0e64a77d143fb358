#![warn(missing_docs)]

//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures from the simulator.
//!
//! * [`harness`] — the run description: a [`RunSpec`] names the
//!   application, platform, noise, seed, policy, faults, durability and
//!   cluster tier of one run, and [`RunSpec::run`] is the only path from
//!   it to an engine; [`RunSpec::run_many`] repeats it over the paper's
//!   10-run protocol.
//! * [`figures`] — one generator per table/figure of the paper
//!   (Table I, Fig. 1, Fig. 3–7, plus the block-size solve cost statistic
//!   from Section V and the ablation studies from DESIGN.md).
//! * [`report`] — writes each figure's markdown and its tables' CSVs
//!   under `results/`; the tables are [`plb_runtime::Table`]s.
//!
//! The `repro` binary drives all of this:
//! `cargo run -p plb-bench --bin repro --release -- all`. The `plb`
//! binary parses its argv into one [`RunSpec`].

pub mod figures;
pub mod harness;
pub mod report;
pub mod viz;

pub use harness::{Aggregate, App, PolicyChoice, PolicyKind, RunOutcome, RunSpec};
pub use report::write_results;
pub use viz::gantt_svg;
