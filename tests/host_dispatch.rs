//! One block ahead on real threads, judged on what each run's event
//! stream records, not on when its threads ran: greedy has a second
//! piece queued on each unit before the unit's first one finishes; the
//! profile-based policies never ask a running unit for more, so they
//! hold one block per unit; and every run covers every item once.
//!
//! The kernel is a latch: each unit's first block waits until both
//! units have started one, so every run begins with both units busy at
//! once, however the OS schedules the threads. No verdict depends on
//! anything after that.

use plb_hec_suite::hetsim::PuKind;
use plb_hec_suite::plb::{AcostaPolicy, GreedyPolicy, HdssPolicy, PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{
    Codelet, Event, EventKind, FnCodelet, HostEngine, HostPu, Policy, RunReport,
};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const ITEMS: u64 = 40_000;

fn pus() -> Vec<HostPu> {
    vec![
        HostPu {
            name: "wide".into(),
            kind: PuKind::Gpu,
            threads: 2,
        },
        HostPu {
            name: "narrow".into(),
            kind: PuKind::Cpu,
            threads: 1,
        },
    ]
}

/// What a run executed, and whether its latch ever gave up waiting.
#[derive(Default)]
struct Ledger {
    ranges: Vec<Range<u64>>,
    latch_timed_out: bool,
}

/// The latch kernel: unit 0 is the GPU-kind unit, unit 1 the CPU one.
/// A little work per item keeps every block measurable.
fn latched(ledger: Arc<Mutex<Ledger>>) -> Arc<dyn Codelet> {
    let started = (Mutex::new([false; 2]), Condvar::new());
    Arc::new(FnCodelet::new("latched", move |r, res| {
        let unit = usize::from(res.kind == PuKind::Cpu);
        let (seen, both) = &started;
        let mut seen = seen.lock().expect("no holder panics");
        if !seen[unit] {
            seen[unit] = true;
            both.notify_all();
            let (_seen, wait) = both
                .wait_timeout_while(seen, Duration::from_secs(20), |s| !s.iter().all(|&b| b))
                .expect("no holder panics");
            if wait.timed_out() {
                ledger.lock().expect("no holder panics").latch_timed_out = true;
            }
        }
        let mut acc = 0u64;
        for i in r.clone() {
            for k in 0..64u64 {
                acc = acc.wrapping_add(i ^ k).rotate_left(5);
            }
        }
        std::hint::black_box(acc);
        ledger.lock().expect("no holder panics").ranges.push(r);
    }))
}

/// One run of `policy` on the two units: its report and event stream,
/// after checking that both units met at the latch and that the items
/// executed, like the report's cover, are `0..ITEMS` exactly once.
fn run(policy: &mut dyn Policy) -> (RunReport, Vec<Event>) {
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let mut engine = HostEngine::new(pus());
    let report = engine
        .run(policy, latched(Arc::clone(&ledger)), ITEMS)
        .expect("host run completes");
    let name = report.policy.clone();
    let mut ledger = ledger.lock().expect("no holder panics");
    assert!(!ledger.latch_timed_out, "{name}: a unit never got a block");
    assert_eq!(report.cover, vec![(0, ITEMS)], "{name}");
    ledger.ranges.sort_by_key(|r| r.start);
    let mut next = 0;
    for r in &ledger.ranges {
        assert_eq!(r.start, next, "{name}: gap or overlap at {r:?}");
        next = r.end;
    }
    assert_eq!(next, ITEMS, "{name}");
    let events = engine.last_events().expect("events recorded").events();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::TaskFailed { .. })),
        "{name}: nothing failed, so every submit ends in a finish"
    );
    (report, events)
}

/// Per unit, in stream order: `+1` for each `task_submit`, `-1` for
/// each `task_finish`.
fn steps(events: &[Event], pu: usize) -> Vec<i32> {
    (events.iter().filter(|e| e.pu == Some(pu)))
        .filter_map(|e| match e.kind {
            EventKind::TaskSubmit { .. } => Some(1),
            EventKind::TaskFinish { .. } => Some(-1),
            _ => None,
        })
        .collect()
}

/// The most blocks `pu` ever held at once: submitted, not finished.
fn most_held(events: &[Event], pu: usize) -> i32 {
    let held = steps(events, pu).into_iter().scan(0, |held, step| {
        *held += step;
        Some(*held)
    });
    held.max().unwrap_or(0)
}

#[test]
fn greedy_queues_a_second_piece_on_each_unit_before_its_first_finishes() {
    let cfg = PolicyConfig::default().with_initial_block(500);
    let (report, events) = run(&mut GreedyPolicy::new(&cfg));
    assert_eq!(report.tasks as u64, ITEMS / 500);
    for pu in 0..2 {
        let steps = steps(&events, pu);
        assert_eq!(steps[..2], [1, 1], "unit {pu}: {steps:?}");
        assert_eq!(
            most_held(&events, pu),
            2,
            "unit {pu}: one running, one queued"
        );
    }
}

#[test]
fn profile_policies_hold_one_block_per_unit() {
    let cfg = PolicyConfig::default().with_initial_block(500);
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(PlbHecPolicy::new(&cfg)),
        Box::new(AcostaPolicy::new(&cfg)),
        Box::new(HdssPolicy::new(&cfg)),
    ];
    for mut policy in policies {
        let (report, events) = run(policy.as_mut());
        for pu in 0..2 {
            assert_eq!(
                most_held(&events, pu),
                1,
                "{}: unit {pu} was handed a block while one ran",
                report.policy
            );
        }
    }
}
