//! Allocation budget of one PLB-HeC run on the `sim-scale` roster.
//!
//! The stores on the simulated run path — the event ring, the profiles'
//! sample lists, the report's unit names — are each allocated once per
//! run at their bound, not per task, per sample or per fit. This binary
//! counts the heap allocations one run makes and holds the count under
//! a committed bound, which may only fall.
//!
//! The global allocator below delegates every call to
//! [`System`] and counts `alloc`, `alloc_zeroed` and `realloc` calls
//! made on the current thread, in a `const`-initialised thread-local,
//! so tests running in parallel threads of this binary do not pollute
//! the count. It lives in this test binary only.

use plb_hec_suite::apps::BlackScholes;
use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::{machine_a, machine_b, machine_c, machine_d, ClusterSim, MachineSpec};
use plb_hec_suite::plb::{PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::SimEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation and reallocation calls the PLB-HeC run below may make.
/// It made 10 807 while its stores grew per task, per sample and per
/// fit, and makes 6 994 with each allocated once at its bound.
const BUDGET: u64 = 7_500;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // A `const`-initialised `Cell` has no destructor, so the slot is
    // live for the thread's whole life and touching it never allocates.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// [`System`], counting calls that hand out memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a plain
// thread-local store that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// The paper's machines A to D, cycled over `n` machines.
fn machines(n: usize) -> Vec<MachineSpec> {
    let presets = [machine_a, machine_b, machine_c, machine_d];
    (0..n).map(|i| presets[i % 4]()).collect()
}

#[test]
fn one_plb_hec_run_on_the_scale_roster_stays_within_its_allocation_budget() {
    let total = 50_000_000;
    let opts = ClusterOptions {
        seed: 7,
        noise_sigma: 0.02,
        ..Default::default()
    };
    let mut cluster = ClusterSim::build(&machines(200), &opts);
    assert_eq!(cluster.ids().count(), 500);
    let cost = BlackScholes::new(total).cost();
    let mut policy = PlbHecPolicy::new(&PolicyConfig::default().with_initial_block(2000));
    let mut engine = SimEngine::new(&mut cluster, &cost);

    let before = calls();
    let report = engine.run(&mut policy, total).expect("run completes");
    let made = calls() - before;

    assert_eq!(report.cover, vec![(0, total)]);
    println!(
        "{made} allocation calls for {} tasks ({:.2} per task)",
        report.tasks,
        made as f64 / report.tasks as f64
    );
    assert!(
        made <= BUDGET,
        "{made} allocation calls; the budget is {BUDGET}"
    );
}
