//! Structural invariants of execution traces and event streams: the
//! guarantees `docs/OBSERVABILITY.md` documents for trace consumers.
//!
//! * Per-PU Gantt segments never overlap (a unit runs one task at a
//!   time, even with another queued behind it on the host engine) and
//!   carry non-negative durations.
//! * Event timestamps are non-decreasing per PU, on both engines.
//! * `RunReport::from_trace` accounting is self-consistent:
//!   `item_share` sums to 1 and `idle_fraction` complements
//!   `busy / makespan`.
//! * The JSONL export round-trips losslessly through
//!   `TraceData::parse_jsonl`.
//! * Every per-unit number a `Trace`, a `RunReport`, `summary()` and
//!   `ascii_gantt()` give equals the definitional computation — a
//!   filter of the segment list per unit — kept here as the reference.

use std::collections::HashMap;
use std::sync::Arc;

use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, PuId, PuKind, Scenario};
use plb_rng::ChaCha8Rng;
use plb_runtime::policy::FixedBlockPolicy;
use plb_runtime::{
    write_jsonl, EventKind, EventSink, FnCodelet, HostEngine, HostPu, Policy, RunReport,
    SchedulerCtx, Segment, SegmentKind, SimEngine, TaskId, TaskInfo, Trace, TraceData, TraceHeader,
    TRACE_FORMAT_VERSION,
};

fn cluster() -> ClusterSim {
    ClusterSim::build(
        &cluster_scenario(Scenario::Two, false),
        &ClusterOptions {
            seed: 7,
            noise_sigma: 0.01,
            ..Default::default()
        },
    )
}

fn cost() -> LinearCost {
    LinearCost {
        label: "invariants".into(),
        flops_per_item: 1e5,
        in_bytes_per_item: 32.0,
        out_bytes_per_item: 8.0,
        threads_per_item: 32.0,
    }
}

/// One instrumented run: the report, its trace, and its event stream.
fn run() -> (RunReport, Trace, EventSink) {
    let mut c = cluster();
    let cost = cost();
    let mut p = FixedBlockPolicy { block: 20_000 };
    let mut engine = SimEngine::new(&mut c, &cost);
    let report = engine.run(&mut p, 400_000).expect("run completes");
    let trace = engine.last_trace().expect("trace recorded").clone();
    let events = engine.last_events().expect("events recorded").clone();
    (report, trace, events)
}

/// The shape of the greedy baseline (`plb_hec::GreedyPolicy`, which
/// this crate cannot name): fixed pieces, asked for until refused at
/// start, and one more for every unit that finishes one. On the host
/// engine that keeps a piece queued behind the running one.
struct Greedy {
    block: u64,
}

impl Policy for Greedy {
    fn name(&self) -> &str {
        "greedy-shape"
    }
    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let ids: Vec<PuId> = ctx.pus().iter().map(|p| p.id).collect();
        for id in ids {
            while ctx.remaining_items() > 0 && ctx.assign(id, self.block) > 0 {}
        }
    }
    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        ctx.assign(done.pu, self.block);
    }
}

/// One greedy run on two real-thread units: its trace and events.
fn host_greedy_run() -> (Trace, EventSink) {
    let codelet = Arc::new(FnCodelet::new("spin", |r, _| {
        let mut acc = 0u64;
        for i in r {
            for k in 0..64u64 {
                acc = acc.wrapping_add(i ^ k).rotate_left(5);
            }
        }
        std::hint::black_box(acc);
    }));
    let pus = (0..2)
        .map(|i| HostPu {
            name: format!("unit{i}"),
            kind: PuKind::Cpu,
            threads: 1,
        })
        .collect();
    let mut engine = HostEngine::new(pus);
    let report = (engine.run(&mut Greedy { block: 500 }, codelet, 40_000)).expect("run completes");
    assert_eq!(report.cover, vec![(0, 40_000)]);
    let trace = engine.last_trace().expect("trace recorded").clone();
    let events = engine.last_events().expect("events recorded").clone();
    (trace, events)
}

fn assert_segments_disjoint_per_pu(trace: &Trace) {
    let mut by_pu: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    for s in trace.segments() {
        assert!(s.end >= s.start, "segment with negative duration: {s:?}");
        by_pu.entry(s.pu).or_default().push((s.start, s.end));
    }
    assert!(!by_pu.is_empty(), "run produced no segments");
    for (pu, mut spans) in by_pu {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-12,
                "pu {pu}: segment {:?} overlaps {:?}",
                w[1],
                w[0]
            );
        }
    }
}

#[test]
fn per_pu_segments_never_overlap() {
    let (_, trace, _) = run();
    assert_segments_disjoint_per_pu(&trace);
}

fn assert_stamps_monotone_per_pu(events: &EventSink) {
    let mut last: HashMap<Option<usize>, f64> = HashMap::new();
    let mut last_seq = None;
    for e in events.events() {
        let prev = last.entry(e.pu).or_insert(f64::NEG_INFINITY);
        assert!(
            e.t >= *prev,
            "pu {:?}: timestamp {} < {} at seq {}",
            e.pu,
            e.t,
            prev,
            e.seq
        );
        *prev = e.t;
        if let Some(s) = last_seq {
            assert!(e.seq > s, "sequence numbers must strictly increase");
        }
        last_seq = Some(e.seq);
    }
}

#[test]
fn event_timestamps_monotone_per_pu() {
    let (_, _, events) = run();
    assert_stamps_monotone_per_pu(&events);
}

/// On a wall clock a unit's next piece is submitted while the one
/// before it runs, and its start is only learnt at its finish; the
/// same two invariants hold.
#[test]
fn host_greedy_segments_never_overlap_and_stamps_never_decrease() {
    let (trace, events) = host_greedy_run();
    assert_segments_disjoint_per_pu(&trace);
    assert_stamps_monotone_per_pu(&events);
    for pu in 0..2 {
        let on_pu = events.iter().filter(|e| e.pu == Some(pu));
        let ahead = on_pu
            .take_while(|e| !matches!(e.kind, EventKind::TaskFinish { .. }))
            .filter(|e| matches!(e.kind, EventKind::TaskSubmit { .. }))
            .count();
        assert_eq!(ahead, 2, "unit {pu} had a piece queued from the start");
    }
}

#[test]
fn report_accounting_is_consistent() {
    let (report, trace, _) = run();
    let share_sum: f64 = report.pus.iter().map(|p| p.item_share).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-9,
        "item shares sum to {share_sum}"
    );
    for (i, pu) in report.pus.iter().enumerate() {
        let busy = trace.busy_time(PuId(i));
        assert!((pu.busy_s - busy).abs() < 1e-12);
        let expect_idle = 1.0 - busy / report.makespan;
        assert!(
            (pu.idle_fraction - expect_idle).abs() < 1e-9,
            "pu {i}: idle {} vs 1 - busy/makespan {}",
            pu.idle_fraction,
            expect_idle
        );
        assert!((0.0..=1.0).contains(&pu.idle_fraction));
    }
    // Rebuilding the report from the same trace reproduces it.
    let names: Vec<String> = report.pus.iter().map(|p| p.name.clone()).collect();
    let rebuilt = RunReport::from_trace(&report.policy, &trace, names, None);
    assert_eq!(rebuilt.total_items, report.total_items);
    assert_eq!(rebuilt.tasks, report.tasks);
    assert_eq!(rebuilt.makespan, report.makespan);
}

#[test]
fn jsonl_round_trip_is_lossless() {
    let (report, trace, events) = run();
    let header = TraceHeader {
        version: TRACE_FORMAT_VERSION,
        policy: report.policy.clone(),
        pu_names: report.pus.iter().map(|p| p.name.clone()).collect(),
    };
    let stream = events.events();
    let text = write_jsonl(&header, trace.segments(), &stream);

    let parsed = TraceData::parse_jsonl(&text).expect("valid JSONL parses");
    assert_eq!(parsed.header, header);
    assert_eq!(parsed.segments, trace.segments());
    assert_eq!(parsed.events, stream);
    assert_eq!(parsed.counters(), events.counters());

    // The re-derived trace preserves the Gantt accounting.
    let rebuilt = parsed.to_trace();
    assert_eq!(rebuilt.n_pus(), trace.n_pus());
    assert!((rebuilt.makespan() - trace.makespan()).abs() < 1e-12);
    assert_eq!(rebuilt.items_per_pu(), trace.items_per_pu());

    // And the summary's per-unit table lists every unit, in order.
    let units = per_unit_rows(&parsed);
    let names: Vec<&str> = units.iter().map(|row| row[0].as_str()).collect();
    let expected: Vec<&str> = report.pus.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, expected);
}

/// The rows of the summary's per-unit time accounting.
fn per_unit_rows(data: &TraceData) -> Vec<Vec<String>> {
    let summary = data.summary();
    let table = summary
        .into_iter()
        .find(|t| t.title == "per-unit time accounting");
    table.map_or_else(Vec::new, |t| t.rows)
}

/// The per-unit numbers by their definitions: one filter of the whole
/// segment list per unit and quantity.
struct Reference<'a> {
    segments: &'a [Segment],
}

impl Reference<'_> {
    fn of(&self, pu: usize) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.pu == pu)
    }
    fn seconds(&self, pu: usize, kind: SegmentKind) -> f64 {
        // Accumulates from +0.0 like the summary always did.
        self.of(pu)
            .filter(|s| s.kind == kind)
            .fold(0.0, |acc, s| acc + s.duration())
    }
    fn tasks(&self, pu: usize) -> usize {
        self.of(pu)
            .filter(|s| s.kind == SegmentKind::Compute)
            .count()
    }
    fn items(&self, pu: usize) -> u64 {
        let compute = self.of(pu).filter(|s| s.kind == SegmentKind::Compute);
        compute.map(|s| s.items).sum()
    }
    fn busy(&self, pu: usize) -> f64 {
        self.of(pu).map(Segment::duration).sum()
    }
    fn makespan(&self) -> f64 {
        self.segments.iter().fold(0.0f64, |m, s| m.max(s.end))
    }
    fn idle_fraction(&self, pu: usize) -> f64 {
        let ms = self.makespan();
        if ms <= 0.0 {
            return 0.0;
        }
        ((ms - self.busy(pu)) / ms).max(0.0)
    }
    /// One `ascii_gantt` row, painted from the unit's own segments.
    fn gantt_row(&self, pu: usize, width: usize) -> String {
        let ms = self.makespan();
        let mut row = vec!['.'; width];
        for s in self.of(pu) {
            let a = ((s.start / ms) * width as f64).floor() as usize;
            let b = (((s.end / ms) * width as f64).ceil() as usize).min(width);
            for c in row.iter_mut().take(b).skip(a.min(width)) {
                if *c != '#' {
                    *c = match s.kind {
                        SegmentKind::Compute => '#',
                        SegmentKind::Transfer => '-',
                    };
                }
            }
        }
        row.into_iter().collect()
    }
}

/// Compare everything `trace` reports per unit against the reference.
fn assert_matches_reference(trace: &Trace, what: &str) {
    let reference = Reference {
        segments: trace.segments(),
    };
    let n = trace.n_pus();
    // Five characters each, the width `ascii_gantt` pads names to.
    let names: Vec<String> = (0..n).map(|i| format!("unit{i}")).collect();
    assert_eq!(
        trace.makespan().to_bits(),
        reference.makespan().to_bits(),
        "{what}"
    );

    let report = RunReport::from_trace("oracle", trace, names.clone(), None);
    assert_eq!(report.pus.len(), n, "{what}");
    assert_eq!(
        report.makespan.to_bits(),
        reference.makespan().to_bits(),
        "{what}"
    );
    assert_eq!(
        report.tasks,
        (0..n).map(|p| reference.tasks(p)).sum::<usize>(),
        "{what}"
    );
    let total: u64 = (0..n).map(|p| reference.items(p)).sum();
    assert_eq!(report.total_items, total, "{what}");

    let data = TraceData {
        header: TraceHeader {
            version: TRACE_FORMAT_VERSION,
            policy: "oracle".into(),
            pu_names: names.clone(),
        },
        segments: trace.segments().to_vec(),
        events: Vec::new(),
    };
    let units = per_unit_rows(&data);
    assert_eq!(units.len(), n, "{what}");
    let gantt = trace.ascii_gantt(&names, 64);
    let gantt_rows: Vec<&str> = gantt.lines().collect();
    assert_eq!(
        gantt_rows.len(),
        if reference.makespan() > 0.0 { n } else { 0 },
        "{what}"
    );

    let ms = reference.makespan();
    for pu in 0..n {
        let what = format!("{what}, unit {pu}");
        let (busy, idle) = (reference.busy(pu), reference.idle_fraction(pu));
        let r = &report.pus[pu];
        // `==` holds for every unit; the bits as well, except for a
        // unit with no segment, whose empty sum is -0.0 by definition
        // and +0.0 in the ledger.
        assert_eq!(trace.busy_time(PuId(pu)), busy, "{what}");
        assert_eq!(trace.idle_fraction(PuId(pu)), idle, "{what}");
        assert_eq!(trace.items_per_pu()[pu], reference.items(pu), "{what}");
        assert_eq!(
            (r.busy_s, r.idle_fraction, r.items),
            (busy, idle, reference.items(pu)),
            "{what}"
        );
        if reference.of(pu).next().is_some() {
            assert_eq!(
                trace.busy_time(PuId(pu)).to_bits(),
                busy.to_bits(),
                "{what}"
            );
            assert_eq!(r.busy_s.to_bits(), busy.to_bits(), "{what}");
            assert_eq!(r.idle_fraction.to_bits(), idle.to_bits(), "{what}");
        } else {
            assert_eq!(r.busy_s.to_bits(), 0.0f64.to_bits(), "{what}");
        }
        let share = if total > 0 {
            reference.items(pu) as f64 / total as f64
        } else {
            0.0
        };
        assert_eq!(r.item_share.to_bits(), share.to_bits(), "{what}");

        // What the summary reported for this unit before the ledger
        // existed, cell by cell.
        let compute = reference.seconds(pu, SegmentKind::Compute);
        let transfer = reference.seconds(pu, SegmentKind::Transfer);
        let idle_s = (ms - compute - transfer).max(0.0);
        let idle_pct = if ms > 0.0 { idle_s / ms * 100.0 } else { 0.0 };
        let cells = [
            names[pu].clone(),
            reference.tasks(pu).to_string(),
            format!("{compute:.4}s"),
            format!("{transfer:.4}s"),
            format!("{idle_s:.4}s"),
            format!("{idle_pct:.1}%"),
        ];
        assert_eq!(units[pu], cells, "{what}");

        if ms > 0.0 {
            let row = format!("{:<5} |{}|", names[pu], reference.gantt_row(pu, 64));
            assert_eq!(gantt_rows[pu], row, "{what}");
        }
    }
}

#[test]
fn per_unit_accounting_matches_the_definitional_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(201_509);
    for case in 0..40 {
        // Up to 9 units, of which the last two never run a task.
        let n = rng.gen_range(3..10usize);
        let active = n - 2;
        let mut free_at = vec![0.0f64; n];
        let mut trace = Trace::new(n);
        for task in 0..rng.gen_range(0..60u64) {
            let pu = rng.gen_range(0..active);
            // One task in three moves no data: a single compute segment.
            let xfer = if rng.gen_bool(1.0 / 3.0) {
                0.0
            } else {
                rng.gen_range(0.0..1.37)
            };
            let proc = rng.gen_range(0.0..1.37);
            let start = free_at[pu] + rng.gen_range(0.0..1.37);
            let items = rng.gen_range(1..=5_000u64);
            trace.record_task(PuId(pu), TaskId(task), items, start, xfer, proc);
            free_at[pu] = start + xfer + proc;
        }
        assert_eq!(trace.n_pus(), n);
        assert_matches_reference(&trace, &format!("case {case}, recorded"));

        // Rebuilt from its segments, told of fewer units than they name.
        let rebuilt = Trace::from_segments(1, trace.segments().to_vec());
        let named = trace.segments().iter().map(|s| s.pu + 1).max().unwrap_or(0);
        assert_eq!(rebuilt.n_pus(), named.max(1), "case {case}");
        assert_eq!(rebuilt.segments(), trace.segments());
        assert_matches_reference(&rebuilt, &format!("case {case}, rebuilt"));
    }
}
