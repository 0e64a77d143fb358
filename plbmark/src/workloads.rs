//! The four workloads: which cells, policies and seeds make up a sweep,
//! and how a sweep's runs turn into the end-to-end metrics.
//!
//! A *cell* is one (application, cluster) pair. A *sweep* runs every
//! cell × policy × seed of the workload once, one run at a time on this
//! thread (a closed loop with a single client). Seeds come from the
//! benchmark's `--seed` through `stats::derive_seed`; a cell's seeds
//! are the same for every policy, so policies are compared on the same
//! simulated hardware noise.

use crate::spans::Shared;
use crate::stats::{derive_seed, geomean, mean, median};
use crate::sut::{
    run_cluster, run_host, run_sim, ClusterSetup, HostSetup, PaperApp, PolicyKind, RunOutcome,
    SimSetup, SimTrace,
};
use std::collections::BTreeMap;

/// The workloads, in the order the benchmark runs them.
pub const NAMES: [&str; 4] = ["sim-paper", "sim-scale", "sim-cluster", "host-bs"];

/// Options priced by one `host-bs` run: about a third of a second on
/// two units of the reference box, unit 1 at a third of the speed.
const HOST_OPTIONS: usize = 1_000_000;

/// Rows of the `sim-cluster` SpMV matrix.
const CLUSTER_ROWS: u64 = 4_000_000;

/// One run of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunKey {
    /// Index into [`Prepared::cells`].
    pub cell: usize,
    /// The policy under test.
    pub policy: PolicyKind,
    /// Which of the cell's seeds.
    pub seed_index: usize,
}

/// A cell: its label and how many seeds each policy runs on it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// For the report.
    pub label: String,
    /// `(policy, seeds)`; seed indices are shared between policies.
    pub plan: Vec<(PolicyKind, usize)>,
}

enum Inputs {
    /// `sim-paper` and `sim-scale`: one `SimSetup` per cell.
    Sim(Vec<SimSetup>),
    /// `sim-cluster`: the ring (cells 0 and 1) and the single node.
    Cluster {
        ring: ClusterSetup,
        single: SimSetup,
    },
    /// `host-bs`.
    Host(HostSetup),
}

/// A workload with its inputs built: everything `setup_s` pays for.
pub struct Prepared {
    /// The workload's cells.
    pub cells: Vec<Cell>,
    /// Whether the engine's clock is virtual, which makes every count
    /// and every makespan repeat exactly for a fixed seed.
    pub virtual_clock: bool,
    seed: u64,
    inputs: Inputs,
}

fn all_policies(seeds: usize) -> Vec<(PolicyKind, usize)> {
    PolicyKind::ALL.iter().map(|&p| (p, seeds)).collect()
}

impl Prepared {
    /// Build the inputs of workload `name` from `seed`.
    pub fn new(name: &str, seed: u64) -> Result<Prepared, String> {
        let input_seed = derive_seed(seed, 0, 0);
        let (cells, inputs) = match name {
            // The paper's evaluation matrix at its largest inputs.
            "sim-paper" => {
                let apps = [
                    PaperApp::MatMul(65_536),
                    PaperApp::Grn(140_000),
                    PaperApp::BlackScholes(500_000),
                ];
                let setups: Vec<SimSetup> = apps
                    .iter()
                    .flat_map(|&app| (1..=4).map(move |m| SimSetup::paper(app, m)))
                    .collect();
                let cells = setups
                    .iter()
                    .map(|s| Cell {
                        label: s.label.clone(),
                        plan: all_policies(10),
                    })
                    .collect();
                (cells, Inputs::Sim(setups))
            }
            // 500 units: the driver's per-poll scans and an n = 500
            // solve carry the cost; greedy in blocks of 2000 is 25 000
            // tasks. (At blocks of 1000 about half of PLB-HeC's runs
            // rebalance once and half never do, 7 % apart in makespan,
            // so the median over seeds flips between the two from one
            // `--seed` to the next; at 2000 the runs agree.)
            "sim-scale" => {
                let setup = SimSetup::scale(50_000_000, 200, 2000);
                let cells = vec![Cell {
                    label: setup.label.clone(),
                    plan: vec![(PolicyKind::PlbHec, 8), (PolicyKind::Greedy, 2)],
                }];
                (cells, Inputs::Sim(vec![setup]))
            }
            "sim-cluster" => {
                let ring = ClusterSetup::new(CLUSTER_ROWS, 0.8, input_seed, 4)?;
                let single = SimSetup::spmv(&ring, 4, 250_000);
                let per_node = vec![(PolicyKind::PlbHec, 10), (PolicyKind::Greedy, 10)];
                let cells = vec![
                    Cell {
                        label: "SPMV ring of 4 nodes, fault-free".into(),
                        plan: per_node.clone(),
                    },
                    Cell {
                        label: "SPMV ring of 4 nodes, crash + partition + slow link".into(),
                        plan: per_node,
                    },
                    Cell {
                        label: single.label.clone(),
                        plan: vec![(PolicyKind::Greedy, 1)],
                    },
                ];
                (cells, Inputs::Cluster { ring, single })
            }
            "host-bs" => {
                let setup = HostSetup::new(HOST_OPTIONS, input_seed);
                let cells = vec![Cell {
                    label: format!(
                        "BS {HOST_OPTIONS} on {} threads, unit 1 three times slower",
                        setup.units
                    ),
                    plan: vec![(PolicyKind::PlbHec, 1), (PolicyKind::Greedy, 1)],
                }];
                (cells, Inputs::Host(setup))
            }
            other => return Err(format!("unknown workload `{other}`; one of {NAMES:?}")),
        };
        Ok(Prepared {
            cells,
            virtual_clock: !matches!(inputs, Inputs::Host(_)),
            seed,
            inputs,
        })
    }

    /// The runs of one sweep, in the order they execute.
    pub fn keys(&self) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for (cell, c) in self.cells.iter().enumerate() {
            for &(policy, seeds) in &c.plan {
                keys.extend((0..seeds).map(|seed_index| RunKey {
                    cell,
                    policy,
                    seed_index,
                }));
            }
        }
        keys
    }

    /// Seconds the single-threaded reference run of `host-bs` took.
    pub fn single_thread_baseline_s(&self) -> Option<f64> {
        match &self.inputs {
            Inputs::Host(h) => Some(h.reference_s),
            _ => None,
        }
    }

    /// Execute one run, recording spans into `rec` if given.
    pub fn run(&self, key: RunKey, rec: Option<&Shared>) -> RunOutcome {
        let seed = derive_seed(self.seed, 1 + key.cell as u64, key.seed_index as u64);
        let sim_trace = SimTrace {
            rec,
            checkpoint: None,
        };
        match &self.inputs {
            Inputs::Sim(setups) => run_sim(&setups[key.cell], key.policy, seed, &sim_trace),
            Inputs::Cluster { ring, single } => match key.cell {
                0 => run_cluster(ring, key.policy, false, seed, rec),
                1 => run_cluster(ring, key.policy, true, seed, rec),
                _ => run_sim(single, key.policy, seed, &sim_trace),
            },
            // Coarse blocks for PLB-HeC's probes, about 2000 blocks for
            // greedy's fine-grained dispatch.
            Inputs::Host(setup) => match key.policy {
                PolicyKind::Greedy => run_host(setup, key.policy, 2000, rec),
                _ => run_host(setup, key.policy, 250, rec),
            },
        }
    }
}

/// What the benchmark remembers of every run with a given key, across
/// sweeps.
#[derive(Debug, Clone, Default)]
struct KeyLog {
    makespan_s: Vec<f64>,
    idle_frac: Vec<f64>,
    run_wall_s: Vec<f64>,
    /// `1 - busy / (units x makespan)`.
    lost_frac: Vec<f64>,
    /// Hashes of the first run, which later sweeps must reproduce.
    first: Option<(u64, u64)>,
}

/// Accumulates sweeps and derives the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Ledger {
    logs: BTreeMap<RunKey, KeyLog>,
    /// Summed `wall_s` of each timed sweep.
    pub sweep_wall_s: Vec<f64>,
    /// Runs executed, warm-up included.
    pub attempted: u64,
    /// Runs that broke a correctness rule, with the first few reasons.
    pub failed: u64,
    /// Why, for the report (at most eight kept).
    pub failures: Vec<String>,
}

/// The workload-dependent end-to-end metrics (`setup_s` and
/// `peak_rss_mb` are the process's, and are added by `main`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Geometric mean over cells of PLB-HeC's median makespan.
    pub makespan_s: f64,
    /// Geometric mean over cells of greedy median / PLB-HeC median.
    pub speedup_vs_greedy: f64,
    /// Mean over cells of PLB-HeC's median (over seeds) mean idle
    /// fraction.
    pub idle_frac: f64,
    /// Max over cells and seeds of PLB-HeC makespan / the cell's median.
    pub makespan_tail_ratio: f64,
    /// The balancer's own cost as a share of what it balances.
    pub overhead_frac: f64,
}

impl Ledger {
    fn fail(&mut self, key: RunKey, why: &str) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!("{key:?}: {why}"));
        }
    }

    /// Take one run into the ledger, applying the rule that a
    /// virtual-clock run must reproduce the first run with its key.
    /// `measured` is false for warm-up runs, which are checked and
    /// counted but feed no metric.
    fn record(&mut self, virtual_clock: bool, key: RunKey, out: &RunOutcome, measured: bool) {
        self.attempted += 1;
        let log = self.logs.entry(key).or_default();
        let hashes = (out.event_hash, out.report_hash);
        let repeats = *log.first.get_or_insert(hashes) == hashes;
        if let Some(why) = &out.failure {
            self.fail(key, why);
        } else if virtual_clock && !repeats {
            self.fail(
                key,
                "event sequence or report differs from the first sweep's",
            );
        } else if measured {
            log.makespan_s.push(out.makespan_s);
            log.idle_frac.push(out.idle_frac);
            log.lost_frac
                .push(1.0 - out.busy_s / (out.units as f64 * out.makespan_s));
            log.run_wall_s.push(out.run_wall_s);
        }
    }

    /// Run every cell once under each of its policies (the first seed
    /// only), checked and counted like any other run.
    pub fn warm_up(&mut self, prepared: &Prepared) {
        for key in prepared.keys().into_iter().filter(|k| k.seed_index == 0) {
            let out = prepared.run(key, None);
            self.record(prepared.virtual_clock, key, &out, false);
        }
    }

    /// Run one sweep of `prepared`, every run checked and measured.
    /// Returns the outcomes for the caller that wants per-run detail.
    pub fn sweep(
        &mut self,
        prepared: &Prepared,
        rec: Option<&Shared>,
    ) -> Vec<(RunKey, RunOutcome)> {
        let mut outcomes = Vec::new();
        let mut wall_s = 0.0;
        for (run_id, key) in prepared.keys().into_iter().enumerate() {
            if let Some(rec) = rec {
                rec.begin_run(run_id as u32);
            }
            let out = prepared.run(key, rec);
            wall_s += out.wall_s;
            self.record(prepared.virtual_clock, key, &out, true);
            outcomes.push((key, out));
        }
        self.sweep_wall_s.push(wall_s);
        outcomes
    }

    /// Every sample of `field` for `policy` on `cell`, all seeds.
    fn samples(
        &self,
        cell: usize,
        policy: PolicyKind,
        field: fn(&KeyLog) -> &Vec<f64>,
    ) -> Vec<f64> {
        self.logs
            .iter()
            .filter(|(k, _)| k.cell == cell && k.policy == policy)
            .flat_map(|(_, log)| field(log).iter().copied())
            .collect()
    }

    /// The end-to-end metrics over everything swept so far. Cells
    /// without a PLB-HeC run (the single-node greedy cell) add to
    /// `wall_s` only.
    pub fn end_to_end(&self, prepared: &Prepared) -> EndToEnd {
        let (mut makespans, mut speedups, mut idles, mut overheads) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut tail = 0.0f64;
        for cell in 0..prepared.cells.len() {
            let plb = self.samples(cell, PolicyKind::PlbHec, |l| &l.makespan_s);
            if plb.is_empty() {
                continue;
            }
            let plb_median = median(&plb);
            makespans.push(plb_median);
            let greedy = self.samples(cell, PolicyKind::Greedy, |l| &l.makespan_s);
            speedups.push(median(&greedy) / plb_median);
            idles.push(median(
                &self.samples(cell, PolicyKind::PlbHec, |l| &l.idle_frac),
            ));
            tail = plb.iter().fold(tail, |t, m| t.max(m / plb_median));
            overheads.push(if prepared.virtual_clock {
                // Host seconds the balancer and runtime spend per
                // virtual second of balanced work.
                median(&self.samples(cell, PolicyKind::PlbHec, |l| &l.run_wall_s)) / plb_median
            } else {
                // Share of real unit-seconds lost between tasks in the
                // fine-grained greedy run.
                median(&self.samples(cell, PolicyKind::Greedy, |l| &l.lost_frac))
            });
        }
        EndToEnd {
            makespan_s: geomean(&makespans),
            speedup_vs_greedy: geomean(&speedups),
            idle_frac: mean(&idles),
            makespan_tail_ratio: tail,
            overhead_frac: geomean(&overheads),
        }
    }

    /// Per cell: label, PLB-HeC median makespan, greedy median makespan.
    pub fn per_cell(&self, prepared: &Prepared) -> Vec<(String, f64, f64)> {
        prepared
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    c.label.clone(),
                    median(&self.samples(i, PolicyKind::PlbHec, |l| &l.makespan_s)),
                    median(&self.samples(i, PolicyKind::Greedy, |l| &l.makespan_s)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_keys_follow_the_plan_and_share_seeds_between_policies() {
        let p = Prepared::new("sim-scale", 1).unwrap();
        let keys = p.keys();
        assert_eq!(keys.len(), 10);
        assert_eq!(
            keys.iter()
                .filter(|k| k.policy == PolicyKind::PlbHec)
                .count(),
            8
        );
        assert_eq!(keys[8].policy, PolicyKind::Greedy);
        assert_eq!(keys[8].seed_index, 0);
        assert_eq!(Prepared::new("sim-paper", 1).unwrap().keys().len(), 480);
        assert!(Prepared::new("nope", 1).is_err());
    }

    fn outcome(makespan_s: f64, hash: u64) -> RunOutcome {
        RunOutcome {
            makespan_s,
            run_wall_s: 0.5,
            idle_frac: makespan_s / 100.0,
            units: 2,
            busy_s: 1.5 * makespan_s,
            event_hash: hash,
            ..Default::default()
        }
    }

    fn key(cell: usize, policy: PolicyKind, seed_index: usize) -> RunKey {
        RunKey {
            cell,
            policy,
            seed_index,
        }
    }

    #[test]
    fn metrics_follow_their_definitions() {
        // Two cells of hand-made makespans: PLB-HeC medians 2 and 8,
        // greedy medians 4 and 8, one PLB-HeC outlier at 3x its median.
        let mut ledger = Ledger::default();
        let data: [(usize, PolicyKind, [f64; 3]); 4] = [
            (0, PolicyKind::PlbHec, [2.0, 1.0, 6.0]),
            (0, PolicyKind::Greedy, [4.0, 4.0, 4.0]),
            (1, PolicyKind::PlbHec, [8.0, 8.0, 8.0]),
            (1, PolicyKind::Greedy, [8.0, 7.0, 9.0]),
        ];
        for (cell, policy, makespans) in data {
            for (seed_index, m) in makespans.into_iter().enumerate() {
                ledger.record(true, key(cell, policy, seed_index), &outcome(m, 0), true);
            }
        }
        assert_eq!((ledger.attempted, ledger.failed), (12, 0));
        let mut p = Prepared::new("sim-scale", 1).unwrap();
        p.cells.push(p.cells[0].clone());
        let e = ledger.end_to_end(&p);
        assert!((e.makespan_s - 4.0).abs() < 1e-12);
        assert!((e.speedup_vs_greedy - 2.0f64.sqrt()).abs() < 1e-12);
        // Per-cell medians 0.02 and 0.08 (the mean over runs is 0.055).
        assert!((e.idle_frac - 0.05).abs() < 1e-12);
        assert_eq!(e.makespan_tail_ratio, 3.0);
        // Virtual clock: run() wall over makespan, sqrt(0.5/2 * 0.5/8).
        assert!((e.overhead_frac - 0.125).abs() < 1e-12);
        // Wall clock: unit-seconds lost in the greedy run, 1 - 1.5/2.
        p.virtual_clock = false;
        assert!((ledger.end_to_end(&p).overhead_frac - 0.25).abs() < 1e-12);
    }

    #[test]
    fn failed_and_unrepeatable_runs_are_counted_and_kept_out_of_the_metrics() {
        let mut ledger = Ledger::default();
        let k = key(0, PolicyKind::PlbHec, 0);
        ledger.record(true, k, &outcome(2.0, 7), true);
        // Same key, other hash: fails on a virtual clock only.
        ledger.record(true, k, &outcome(9.0, 8), true);
        ledger.record(false, k, &outcome(3.0, 8), true);
        let broken = RunOutcome {
            failure: Some("cover is [], not [(0, 9)]".into()),
            ..outcome(5.0, 7)
        };
        ledger.record(true, k, &broken, true);
        // A warm-up run is checked and counted but feeds no metric.
        ledger.record(true, k, &outcome(2.0, 7), false);
        ledger.record(true, k, &outcome(2.0, 9), false);
        assert_eq!((ledger.attempted, ledger.failed), (6, 3));
        assert_eq!(ledger.failures.len(), 3);
        let log = &ledger.logs[&k];
        assert_eq!(log.makespan_s, vec![2.0, 3.0]);
        assert_eq!(log.run_wall_s.len(), 2);
    }
}
