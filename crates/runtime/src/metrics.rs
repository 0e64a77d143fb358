//! Run reports: the per-experiment summary every figure is built from.

use crate::events::EventCounters;
use crate::trace::Trace;
use plb_hetsim::PuId;
use serde::Serialize;

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
    /// Build a report from a trace. `names` are the units' display
    /// names, by unit id; a unit past their end is named `PU{id}`.
    pub fn from_trace(
        policy: &str,
        trace: &Trace,
        names: Vec<String>,
        block_distribution: Option<Vec<f64>>,
    ) -> RunReport {
        let ledger = trace.ledger();
        let total: u64 = ledger.iter().map(|u| u.items).sum();
        let mut names = names.into_iter();
        let pus = ledger
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
                idle_fraction: trace.idle_fraction(PuId(i)),
                bytes_in: 0,
            })
            .collect();
        RunReport {
            policy: policy.to_string(),
            makespan: trace.makespan(),
            total_items: total,
            tasks: ledger.iter().map(|u| u.tasks).sum(),
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
    use crate::task::TaskId;

    #[test]
    fn report_from_trace() {
        let mut t = Trace::new(2);
        t.record_task(PuId(0), TaskId(0), 75, 0.0, 0.0, 2.0);
        t.record_task(PuId(1), TaskId(1), 25, 0.0, 0.5, 1.5);
        let names = vec!["a".into(), "b".into()];
        let r = RunReport::from_trace("test", &t, names, None);
        assert_eq!(r.total_items, 100);
        assert_eq!(r.tasks, 2);
        assert!((r.pus[0].item_share - 0.75).abs() < 1e-12);
        assert!((r.pus[1].busy_s - 2.0).abs() < 1e-12);
        assert_eq!(r.makespan, 2.0);
        assert_eq!(r.mean_idle_fraction(), 0.0);
    }

    #[test]
    fn empty_trace_report() {
        let t = Trace::new(1);
        let r = RunReport::from_trace("x", &t, vec!["p".into()], None);
        assert_eq!(r.total_items, 0);
        assert_eq!(r.pus[0].item_share, 0.0);
    }
}
