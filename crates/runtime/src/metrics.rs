//! Run reports: the per-experiment summary every figure is built from,
//! and the per-unit ledger the driver keeps to build it.

use crate::events::EventCounters;
use serde::{Deserialize, Serialize};

/// One unit's running totals over its completed tasks, and the `unit`
/// record of a trace file (`docs/OBSERVABILITY.md`). Each task posts a
/// transfer interval `[start, start + xfer]` (when it moved data) and a
/// compute interval `[start + xfer, start + xfer + proc]`; every sum
/// grows in completion order, by those intervals' durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UnitLedger {
    /// Seconds in compute intervals.
    pub compute_s: f64,
    /// Seconds in transfer intervals.
    pub transfer_s: f64,
    /// Seconds in intervals of either kind. Kept beside the two above
    /// because transfer and compute durations interleave in it, which
    /// `compute_s + transfer_s` does not reproduce to the bit.
    pub busy_s: f64,
    /// Items of the completed tasks.
    pub items: u64,
    /// Completed tasks.
    pub tasks: usize,
}

/// The driver's record of a run: a [`UnitLedger`] per unit, indexed by
/// unit id, and the makespan, the latest end of a completed task.
#[derive(Debug)]
pub(crate) struct Ledger {
    pub(crate) units: Vec<UnitLedger>,
    pub(crate) makespan: f64,
}

impl Ledger {
    /// An empty ledger over `n_pus` units.
    pub(crate) fn new(n_pus: usize) -> Ledger {
        Ledger {
            units: vec![UnitLedger::default(); n_pus],
            makespan: 0.0,
        }
    }

    /// Post one completed task of `pu` to its unit's totals.
    pub(crate) fn record_task(
        &mut self,
        pu: usize,
        items: u64,
        start: f64,
        xfer_s: f64,
        proc_s: f64,
    ) {
        debug_assert!(xfer_s >= 0.0 && proc_s >= 0.0);
        let Some(u) = self.units.get_mut(pu) else {
            return;
        };
        let mid = start + xfer_s;
        let end = mid + proc_s;
        if xfer_s > 0.0 {
            let d = mid - start;
            u.busy_s += d;
            u.transfer_s += d;
        }
        let d = end - mid;
        u.busy_s += d;
        u.compute_s += d;
        u.items += items;
        u.tasks += 1;
        self.makespan = self.makespan.max(end);
    }
}

/// Per-unit summary.
#[derive(Debug, Clone, Serialize)]
#[must_use = "a PuReport summarizes measured work; dropping it loses the run's evidence"]
pub struct PuReport {
    /// Unit display name.
    pub name: String,
    /// Items processed.
    pub items: u64,
    /// Fraction of all items processed by this unit (Fig. 6's quantity
    /// at run granularity).
    pub item_share: f64,
    /// Busy seconds (transfer + compute).
    pub busy_s: f64,
    /// Idle fraction of the makespan (Fig. 7's quantity).
    pub idle_fraction: f64,
    /// Bytes moved into this unit's memory (block data plus the
    /// one-time broadcast staging), as counted by the backend.
    pub bytes_in: u64,
}

/// Summary of one complete run.
#[derive(Debug, Clone, Serialize)]
#[must_use = "a RunReport is the product of an entire run; inspect or export it"]
pub struct RunReport {
    /// Policy that produced the run.
    pub policy: String,
    /// Total wall/virtual time, seconds.
    pub makespan: f64,
    /// Items processed across all units.
    pub total_items: u64,
    /// Number of task submissions.
    pub tasks: usize,
    /// Per-unit summaries, indexed by unit id.
    pub pus: Vec<PuReport>,
    /// The policy's declared one-round block distribution (Fig. 6), if
    /// it has one.
    pub block_distribution: Option<Vec<f64>>,
    /// Aggregate decision-level event counts (probes, fits, solves,
    /// rebalances, perturbations) from the run's
    /// [`EventSink`](crate::events::EventSink). Zeroed when the run was
    /// executed without event tracing.
    pub events: EventCounters,
    /// The disjoint cover of completed work: sorted, coalesced
    /// `(offset, items)` ranges over the item space. A complete run's
    /// cover is the single range `(0, total_items)`; tests assert on
    /// this to prove no item was lost or executed twice across node
    /// faults. Empty when the driver did not track completion ranges.
    pub cover: Vec<(u64, u64)>,
}

impl RunReport {
    /// Build a report from a run's ledger. `names` are the units' display
    /// names, by unit id; a unit past their end is named `PU{id}`.
    pub(crate) fn from_ledger(
        policy: &str,
        ledger: &Ledger,
        names: Vec<String>,
        block_distribution: Option<Vec<f64>>,
    ) -> RunReport {
        let ms = ledger.makespan;
        let total: u64 = ledger.units.iter().map(|u| u.items).sum();
        let mut names = names.into_iter();
        let pus = ledger
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| PuReport {
                name: names.next().unwrap_or_else(|| format!("PU{i}")),
                items: u.items,
                item_share: if total > 0 {
                    u.items as f64 / total as f64
                } else {
                    0.0
                },
                busy_s: u.busy_s,
                // Fig. 7's quantity; 0 for a run that completed nothing.
                idle_fraction: if ms > 0.0 {
                    ((ms - u.busy_s) / ms).max(0.0)
                } else {
                    0.0
                },
                bytes_in: 0,
            })
            .collect();
        RunReport {
            policy: policy.to_string(),
            makespan: ms,
            total_items: total,
            tasks: ledger.units.iter().map(|u| u.tasks).sum(),
            pus,
            block_distribution,
            events: EventCounters::default(),
            cover: Vec::new(),
        }
    }

    /// Mean idle fraction across units.
    pub fn mean_idle_fraction(&self) -> f64 {
        if self.pus.is_empty() {
            return 0.0;
        }
        self.pus.iter().map(|p| p.idle_fraction).sum::<f64>() / self.pus.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_from_ledger() {
        let mut l = Ledger::new(2);
        l.record_task(0, 75, 0.0, 0.0, 2.0);
        l.record_task(1, 25, 0.0, 0.5, 1.5);
        let names = vec!["a".into(), "b".into()];
        let r = RunReport::from_ledger("test", &l, names, None);
        assert_eq!(r.total_items, 100);
        assert_eq!(r.tasks, 2);
        assert!((r.pus[0].item_share - 0.75).abs() < 1e-12);
        assert!((r.pus[1].busy_s - 2.0).abs() < 1e-12);
        assert_eq!(r.makespan, 2.0);
        assert_eq!(r.mean_idle_fraction(), 0.0);
    }

    #[test]
    fn ledger_splits_transfer_from_compute_and_counts_items_once() {
        let mut l = Ledger::new(2);
        l.record_task(0, 100, 0.0, 0.5, 1.5); // busy 0..2
        l.record_task(1, 50, 0.0, 0.0, 1.0); // busy 0..1
        l.record_task(1, 50, 1.0, 0.0, 2.0); // busy 1..3
        assert_eq!(l.makespan, 3.0);
        let [a, b] = [l.units[0], l.units[1]];
        assert_eq!((a.transfer_s, a.compute_s, a.busy_s), (0.5, 1.5, 2.0));
        assert_eq!((b.transfer_s, b.compute_s, b.busy_s), (0.0, 3.0, 3.0));
        assert_eq!((a.items, a.tasks, b.items, b.tasks), (100, 1, 100, 2));
        let r = RunReport::from_ledger("x", &l, Vec::new(), None);
        assert!((r.pus[0].idle_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.pus[1].idle_fraction, 0.0);
        assert_eq!(r.pus[1].name, "PU1");
    }

    #[test]
    fn empty_ledger_report() {
        let l = Ledger::new(1);
        let r = RunReport::from_ledger("x", &l, vec!["p".into()], None);
        assert_eq!(r.total_items, 0);
        assert_eq!(r.pus[0].item_share, 0.0);
        assert_eq!(r.pus[0].idle_fraction, 0.0);
    }
}
