//! Structural invariants of execution traces and event streams: the
//! guarantees `docs/OBSERVABILITY.md` documents for trace consumers.
//!
//! * Per-PU Gantt segments — the view `gantt_segments` draws from the
//!   event stream — never overlap (a unit runs one task at a time, even
//!   with another queued behind it on the host engine) and carry
//!   non-negative durations.
//! * Event timestamps are non-decreasing per PU, on both engines.
//! * `RunReport` accounting is self-consistent: `item_share` sums to 1
//!   and `idle_fraction` complements `busy / makespan`.
//! * The JSONL export round-trips losslessly through
//!   `TraceData::parse_jsonl`.
//! * Every per-unit number a `RunReport`, the engine's ledger,
//!   `summary()` and `ascii_gantt()` give equals the definitional
//!   computation — a filter of the Gantt segments per unit — kept here
//!   as the reference.

use std::collections::HashMap;
use std::sync::Arc;

use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, PuId, PuKind, Scenario};
use plb_rng::ChaCha8Rng;
use plb_runtime::policy::FixedBlockPolicy;
use plb_runtime::{
    ascii_gantt, gantt_segments, gantt_span, write_jsonl, Event, EventKind, EventSink, Fault,
    FaultKind, FaultPlan, FnCodelet, HostEngine, HostPu, Policy, RunReport, SchedulerCtx, Segment,
    SegmentKind, SimEngine, TaskInfo, TraceData, TraceHeader, UnitLedger, TRACE_FORMAT_VERSION,
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

/// One instrumented run: the report, the engine's ledger, and its event
/// stream.
fn run() -> (RunReport, Vec<UnitLedger>, EventSink) {
    let mut c = cluster();
    let cost = cost();
    let mut p = FixedBlockPolicy { block: 20_000 };
    let mut engine = SimEngine::new(&mut c, &cost);
    let report = engine.run(&mut p, 400_000).expect("run completes");
    let ledger = engine.last_ledger().to_vec();
    let events = engine.last_events().expect("events recorded").clone();
    (report, ledger, events)
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

/// One greedy run on two real-thread units: its events.
fn host_greedy_run() -> EventSink {
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
    engine.last_events().expect("events recorded").clone()
}

fn assert_segments_disjoint_per_pu(events: &EventSink) {
    let mut by_pu: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    for s in gantt_segments(events.iter()) {
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
    let (_, _, events) = run();
    assert_segments_disjoint_per_pu(&events);
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
    let events = host_greedy_run();
    assert_segments_disjoint_per_pu(&events);
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
    let (report, ledger, _) = run();
    let share_sum: f64 = report.pus.iter().map(|p| p.item_share).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-9,
        "item shares sum to {share_sum}"
    );
    assert_eq!(ledger.len(), report.pus.len());
    for (i, (pu, unit)) in report.pus.iter().zip(&ledger).enumerate() {
        assert_eq!(pu.busy_s.to_bits(), unit.busy_s.to_bits());
        assert_eq!(pu.items, unit.items);
        let expect_idle = 1.0 - unit.busy_s / report.makespan;
        assert!(
            (pu.idle_fraction - expect_idle).abs() < 1e-9,
            "pu {i}: idle {} vs 1 - busy/makespan {}",
            pu.idle_fraction,
            expect_idle
        );
        assert!((0.0..=1.0).contains(&pu.idle_fraction));
    }
    assert_eq!(report.tasks, ledger.iter().map(|u| u.tasks).sum::<usize>());
}

#[test]
fn jsonl_round_trip_is_lossless() {
    let (report, ledger, events) = run();
    let header = TraceHeader {
        version: TRACE_FORMAT_VERSION,
        policy: report.policy.clone(),
        pu_names: report.pus.iter().map(|p| p.name.clone()).collect(),
    };
    let stream = events.events();
    let text = write_jsonl(&header, &ledger, &stream);

    let parsed = TraceData::parse_jsonl(&text).expect("valid JSONL parses");
    assert_eq!(parsed.header, header);
    assert_eq!(parsed.units, ledger);
    assert_eq!(parsed.events, stream);
    assert_eq!(parsed.counters(), events.counters());

    // The Gantt segments drawn from the file are the run's.
    assert_eq!(
        gantt_segments(&parsed.events),
        gantt_segments(events.iter())
    );

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
/// list of Gantt segments per unit and quantity.
struct Reference {
    segments: Vec<Segment>,
}

impl Reference {
    fn of(&self, pu: usize) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.pu == pu)
    }
    fn seconds(&self, pu: usize, kind: SegmentKind) -> f64 {
        // Accumulates from +0.0 like the summary always did.
        self.of(pu)
            .filter(|s| s.kind == kind)
            .fold(0.0, |acc, s| acc + (s.end - s.start))
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
        self.of(pu).map(|s| s.end - s.start).sum()
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

/// Compare everything a run reports per unit — its `report`, the
/// engine's `ledger`, the summary of its trace file and its ASCII Gantt
/// chart — against the reference drawn from its `events`.
fn assert_matches_reference(
    report: &RunReport,
    ledger: &[UnitLedger],
    events: &[Event],
    what: &str,
) {
    let reference = Reference {
        segments: gantt_segments(events),
    };
    let n = report.pus.len();
    let names: Vec<String> = report.pus.iter().map(|p| p.name.clone()).collect();
    let name_w = names.iter().map(String::len).max().unwrap_or(0).max(4);
    let ms = reference.makespan();
    assert!(ms > 0.0, "{what}");
    assert_eq!(
        gantt_span(&reference.segments).to_bits(),
        ms.to_bits(),
        "{what}"
    );
    assert_eq!(report.makespan.to_bits(), ms.to_bits(), "{what}");
    assert_eq!(ledger.len(), n, "{what}");
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
            policy: report.policy.clone(),
            pu_names: names.clone(),
        },
        units: ledger.to_vec(),
        events: events.to_vec(),
    };
    let units = per_unit_rows(&data);
    assert_eq!(units.len(), n, "{what}");
    let gantt = ascii_gantt(&reference.segments, &names, 64);
    let gantt_rows: Vec<&str> = gantt.lines().collect();
    assert_eq!(gantt_rows.len(), n, "{what}");

    for pu in 0..n {
        let what = format!("{what}, unit {pu}");
        let (busy, idle) = (reference.busy(pu), reference.idle_fraction(pu));
        let (r, u) = (&report.pus[pu], &ledger[pu]);
        // `==` holds for every unit; the bits as well, except for a
        // unit with no segment, whose empty sum is -0.0 by definition
        // and +0.0 in the ledger.
        assert_eq!(
            (r.busy_s, r.idle_fraction, r.items),
            (busy, idle, reference.items(pu)),
            "{what}"
        );
        assert_eq!((u.busy_s, u.items), (busy, reference.items(pu)), "{what}");
        if reference.of(pu).next().is_some() {
            assert_eq!(u.busy_s.to_bits(), busy.to_bits(), "{what}");
            assert_eq!(r.busy_s.to_bits(), busy.to_bits(), "{what}");
            assert_eq!(r.idle_fraction.to_bits(), idle.to_bits(), "{what}");
        } else {
            assert_eq!(r.busy_s.to_bits(), 0.0f64.to_bits(), "{what}");
        }
        let share = reference.items(pu) as f64 / total as f64;
        assert_eq!(r.item_share.to_bits(), share.to_bits(), "{what}");

        // What the summary reported for this unit when it read a list of
        // segments, cell by cell.
        let compute = reference.seconds(pu, SegmentKind::Compute);
        let transfer = reference.seconds(pu, SegmentKind::Transfer);
        assert_eq!(u.compute_s, compute, "{what}");
        assert_eq!(u.transfer_s, transfer, "{what}");
        assert_eq!(u.tasks, reference.tasks(pu), "{what}");
        let idle_s = (ms - compute - transfer).max(0.0);
        let idle_pct = idle_s / ms * 100.0;
        let cells = [
            names[pu].clone(),
            reference.tasks(pu).to_string(),
            format!("{compute:.4}s"),
            format!("{transfer:.4}s"),
            format!("{idle_s:.4}s"),
            format!("{idle_pct:.1}%"),
        ];
        assert_eq!(units[pu], cells, "{what}");

        let row = format!("{:<name_w$} |{}|", names[pu], reference.gantt_row(pu, 64));
        assert_eq!(gantt_rows[pu], row, "{what}");
    }
}

/// Simulated runs of random shape — platform, block, item count, and a
/// unit whose first attempts fail, so some blocks finish on a retry —
/// checked against the reference. Item counts below the roster's first
/// round leave the last units without a task.
#[test]
fn per_unit_accounting_matches_the_definitional_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(201_509);
    let scenarios = [
        Scenario::One,
        Scenario::Two,
        Scenario::Three,
        Scenario::Four,
    ];
    let (mut retried, mut idle_units) = (0, 0);
    for case in 0..24 {
        let scenario = scenarios[case % scenarios.len()];
        let mut c = ClusterSim::build(
            &cluster_scenario(scenario, false),
            &ClusterOptions {
                seed: rng.gen_range(0..1_000u64),
                noise_sigma: 0.02,
                ..Default::default()
            },
        );
        let n = c.ids().count();
        let block = rng.gen_range(500..20_000u64);
        let total = if case % 3 == 0 {
            block * rng.gen_range(1..n as u64)
        } else {
            rng.gen_range(50_000..400_000u64)
        };
        let faults = if case % 2 == 1 {
            let pu = rng.gen_range(0..n);
            let kind = FaultKind::FlakyUntil {
                attempts: rng.gen_range(1..3u64),
            };
            FaultPlan::new(vec![Fault { pu, kind }])
        } else {
            FaultPlan::none()
        };
        let cost = cost();
        let mut engine = SimEngine::new(&mut c, &cost).with_faults(faults);
        let report = (engine.run(&mut FixedBlockPolicy { block }, total)).expect("run completes");
        let events = engine.last_events().expect("events recorded");
        assert_eq!(events.dropped(), 0, "case {case}");
        let stream = events.events();
        retried += stream
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskRetry { .. }))
            .count();
        idle_units += report.pus.iter().filter(|p| p.items == 0).count();
        assert_matches_reference(
            &report,
            engine.last_ledger(),
            &stream,
            &format!("case {case}"),
        );
    }
    assert!(retried > 0, "no block was retried");
    assert!(idle_units > 0, "every unit ran a task");
}
