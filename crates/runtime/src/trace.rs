//! Execution traces: Gantt segments and per-unit time accounting.
//!
//! The paper's Fig. 3 is a Gantt chart of tasks with a rebalancing
//! synchronization, and Fig. 7 reports per-unit idle-time percentages.
//! Both are computed from the segment stream recorded here.

use crate::task::TaskId;
use plb_hetsim::PuId;
use serde::{Deserialize, Serialize};

/// What a unit was doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Moving input/result data.
    Transfer,
    /// Executing the kernel.
    Compute,
}

/// One busy interval of one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// The unit.
    pub pu: usize,
    /// The task occupying it.
    pub task: u64,
    /// Transfer or compute.
    pub kind: SegmentKind,
    /// Interval start, seconds.
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// Items in the task's block.
    pub items: u64,
}

impl Segment {
    /// Segment duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One unit's running totals. Every sum grows in recording order, so
/// it carries the bits a filter over the segment list would produce.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct UnitLedger {
    /// Seconds in compute segments.
    pub(crate) compute_s: f64,
    /// Seconds in transfer segments.
    pub(crate) transfer_s: f64,
    /// Seconds in segments of either kind. Kept beside the two above
    /// because transfer and compute durations interleave in it, which
    /// `compute_s + transfer_s` does not reproduce to the bit.
    pub(crate) busy_s: f64,
    /// Items of the unit's compute segments (transfers carry the same
    /// block and are not counted again).
    pub(crate) items: u64,
    /// Compute segments, i.e. completed tasks.
    pub(crate) tasks: usize,
}

/// The recorded trace of one run: the segment list, plus a per-unit
/// ledger and the running makespan kept up to date as segments arrive,
/// so no accessor below walks the segments.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    segments: Vec<Segment>,
    /// Indexed by unit id; its length is the unit count.
    units: Vec<UnitLedger>,
    makespan: f64,
}

impl Trace {
    /// Create a trace for `n_pus` units.
    pub fn new(n_pus: usize) -> Trace {
        Trace {
            segments: Vec::new(),
            units: vec![UnitLedger::default(); n_pus],
            makespan: 0.0,
        }
    }

    /// Rebuild a trace from previously exported segments (e.g. a parsed
    /// JSONL trace — see [`crate::events::TraceData`]). The trace covers
    /// `n_pus` units, or more when a segment names a higher unit.
    pub fn from_segments(n_pus: usize, segments: Vec<Segment>) -> Trace {
        let mut trace = Trace::new(n_pus);
        trace.segments.reserve(segments.len());
        for s in segments {
            trace.push(s);
        }
        trace
    }

    /// Append one segment and post it to its unit's ledger.
    fn push(&mut self, s: Segment) {
        if s.pu >= self.units.len() {
            self.units.resize(s.pu + 1, UnitLedger::default());
        }
        if let Some(u) = self.units.get_mut(s.pu) {
            let d = s.duration();
            u.busy_s += d;
            match s.kind {
                SegmentKind::Compute => {
                    u.compute_s += d;
                    u.items += s.items;
                    u.tasks += 1;
                }
                SegmentKind::Transfer => u.transfer_s += d,
            }
        }
        self.makespan = self.makespan.max(s.end);
        self.segments.push(s);
    }

    /// Record the two segments (transfer then compute) of a completed
    /// task.
    pub fn record_task(
        &mut self,
        pu: PuId,
        task: TaskId,
        items: u64,
        start: f64,
        xfer_time: f64,
        proc_time: f64,
    ) {
        debug_assert!(xfer_time >= 0.0 && proc_time >= 0.0);
        if xfer_time > 0.0 {
            self.push(Segment {
                pu: pu.0,
                task: task.0,
                kind: SegmentKind::Transfer,
                start,
                end: start + xfer_time,
                items,
            });
        }
        self.push(Segment {
            pu: pu.0,
            task: task.0,
            kind: SegmentKind::Compute,
            start: start + xfer_time,
            end: start + xfer_time + proc_time,
            items,
        });
    }

    /// All segments in recording order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of units the trace covers.
    pub fn n_pus(&self) -> usize {
        self.units.len()
    }

    /// The per-unit ledger, indexed by unit id.
    pub(crate) fn ledger(&self) -> &[UnitLedger] {
        &self.units
    }

    /// Makespan: latest segment end (0 for an empty trace).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Total busy time of one unit (0 for a unit the trace does not
    /// cover).
    pub fn busy_time(&self, pu: PuId) -> f64 {
        self.units.get(pu.0).map_or(0.0, |u| u.busy_s)
    }

    /// Idle fraction of one unit over the whole run: the quantity of
    /// Fig. 7. Returns 0 for an empty trace.
    pub fn idle_fraction(&self, pu: PuId) -> f64 {
        let ms = self.makespan;
        if ms <= 0.0 {
            return 0.0;
        }
        ((ms - self.busy_time(pu)) / ms).max(0.0)
    }

    /// Items processed per unit (indexed by unit id). Transfer segments
    /// are not double-counted: only compute segments contribute.
    pub fn items_per_pu(&self) -> Vec<u64> {
        self.units.iter().map(|u| u.items).collect()
    }

    /// Export the trace in Chrome trace-event format (the JSON array
    /// flavour): open in `chrome://tracing` or [Perfetto] for an
    /// interactive timeline. Each unit is a "thread"; transfer and
    /// compute segments become complete ("X") events with microsecond
    /// timestamps.
    ///
    /// [Perfetto]: https://ui.perfetto.dev
    // Serializing a Vec of serde_json::Value cannot fail; the expect is
    // unreachable rather than an error path (audited in
    // crates/xtask/allowlists/panic-freedom.txt).
    pub fn to_chrome_trace(&self, names: &[String]) -> String {
        let mut events = Vec::with_capacity(self.segments.len() + self.n_pus());
        for (i, name) in names.iter().enumerate().take(self.n_pus()) {
            events.push(serde_json::json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": i,
                "args": {"name": name},
            }));
        }
        for s in &self.segments {
            let kind = match s.kind {
                SegmentKind::Compute => "compute",
                SegmentKind::Transfer => "transfer",
            };
            events.push(serde_json::json!({
                "name": format!("{kind} T{} ({} items)", s.task, s.items),
                "cat": kind,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": s.pu,
            }));
        }
        serde_json::to_string_pretty(&events).expect("trace events serialize")
    }

    /// Render a coarse ASCII Gantt chart (for examples and the Fig. 3
    /// reproduction): one row per unit, `width` columns spanning the
    /// makespan, `#` = compute, `-` = transfer, `.` = idle.
    pub fn ascii_gantt(&self, names: &[String], width: usize) -> String {
        let ms = self.makespan;
        if ms <= 0.0 || width == 0 {
            return String::new();
        }
        let name_w = names.iter().map(|n| n.len()).max().unwrap_or(4).max(4);
        // One pass over the segments paints every row; a unit's cells
        // are still painted in its own recording order.
        let mut rows = vec![vec!['.'; width]; self.n_pus()];
        for s in &self.segments {
            let Some(row) = rows.get_mut(s.pu) else {
                continue;
            };
            let a = ((s.start / ms) * width as f64).floor() as usize;
            let b = (((s.end / ms) * width as f64).ceil() as usize).min(width);
            let ch = match s.kind {
                SegmentKind::Compute => '#',
                SegmentKind::Transfer => '-',
            };
            for c in row.iter_mut().take(b).skip(a.min(width)) {
                // Compute overwrites transfer if they round onto the
                // same cell; never overwrite compute with transfer.
                if *c != '#' {
                    *c = ch;
                }
            }
        }
        let mut out = String::new();
        for (pu, row) in rows.into_iter().enumerate() {
            let name = names.get(pu).map(String::as_str).unwrap_or("?");
            out.push_str(&format!("{name:<name_w$} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(2);
        t.record_task(PuId(0), TaskId(0), 100, 0.0, 0.5, 1.5); // busy 0..2
        t.record_task(PuId(1), TaskId(1), 50, 0.0, 0.0, 1.0); // busy 0..1
        t.record_task(PuId(1), TaskId(2), 50, 1.0, 0.0, 2.0); // busy 1..3
        t
    }

    #[test]
    fn makespan_is_latest_end() {
        assert_eq!(sample_trace().makespan(), 3.0);
        assert_eq!(Trace::new(1).makespan(), 0.0);
    }

    #[test]
    fn busy_time_sums_segments() {
        let t = sample_trace();
        assert!((t.busy_time(PuId(0)) - 2.0).abs() < 1e-12);
        assert!((t.busy_time(PuId(1)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_fraction_complements_busy() {
        let t = sample_trace();
        assert!((t.idle_fraction(PuId(0)) - 1.0 / 3.0).abs() < 1e-12);
        assert!(t.idle_fraction(PuId(1)).abs() < 1e-12);
    }

    #[test]
    fn items_counted_once_per_task() {
        let t = sample_trace();
        assert_eq!(t.items_per_pu(), vec![100, 100]);
    }

    #[test]
    fn zero_transfer_records_single_segment() {
        let mut t = Trace::new(1);
        t.record_task(PuId(0), TaskId(0), 10, 0.0, 0.0, 1.0);
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.segments()[0].kind, SegmentKind::Compute);
    }

    #[test]
    fn ascii_gantt_shape() {
        let t = sample_trace();
        let names = vec!["cpu".to_string(), "gpu".to_string()];
        let g = t.ascii_gantt(&names, 30);
        // A transfer prefix, then compute, then idle in the last third.
        assert_eq!(
            g,
            "cpu  |-----###############..........|\n\
             gpu  |##############################|\n"
        );
    }

    #[test]
    fn empty_gantt_is_empty() {
        assert_eq!(Trace::new(2).ascii_gantt(&[], 10), "");
    }

    #[test]
    fn chrome_trace_roundtrips_as_json() {
        let t = sample_trace();
        let names = vec!["cpu".to_string(), "gpu".to_string()];
        let json = t.to_chrome_trace(&names);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        // 2 thread-name metadata events + 4 segments (one task has a
        // transfer prefix).
        assert_eq!(events.len(), 2 + t.segments().len());
        let xs: Vec<&serde_json::Value> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(xs.len(), t.segments().len());
        for e in xs {
            assert!(e["ts"].as_f64().unwrap() >= 0.0);
            assert!(e["dur"].as_f64().unwrap() > 0.0);
        }
    }
}
