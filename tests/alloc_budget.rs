//! Allocation budget of one PLB-HeC run on the `sim-scale` roster, and
//! the bytes a weighted workload's cost table holds.
//!
//! The stores on the simulated run path — the event ring, the profiles'
//! sample lists, the report's unit names — are each allocated once per
//! run at their bound, not per task, per sample or per fit. This binary
//! counts the heap allocations one run makes and holds the count under
//! a committed bound, which may only fall. It also holds the peak heap
//! an SpMV cost table takes to build and keep to its bound per row.
//!
//! The global allocator below delegates every call to [`System`]. On
//! the current thread it counts `alloc`, `alloc_zeroed` and `realloc`
//! calls, and tracks the live bytes and their peak, in
//! `const`-initialised thread-locals, so tests running in parallel
//! threads of this binary do not pollute each other. It lives in this
//! test binary only.

use plb_hec_suite::apps::{BlackScholes, Spmv};
use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::{machine_a, machine_b, machine_c, machine_d, ClusterSim, MachineSpec};
use plb_hec_suite::plb::{GreedyPolicy, PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{Event, RunReport, SimEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation and reallocation calls the PLB-HeC run below may make.
/// It made 10 807 while its stores grew per task, per sample and per
/// fit, and makes 6 985 with each allocated once at its bound.
const BUDGET: u64 = 7_500;

/// Peak heap bytes per row the cost table of an SpMV app may take,
/// while it is built and after: 8.0 for a flat `u64` prefix, 4.0 for
/// the two-level table's `u32` offsets plus its `u64` block bases.
const TABLE_BYTES_PER_ROW: f64 = 4.1;

/// Events the sink's ring holds (`EventSink::default`).
const EVENT_RING: usize = 1 << 16;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread and not yet freed. Signed: a
    /// block freed here may have been allocated on another thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_call() {
    // A `const`-initialised `Cell` has no destructor, so the slot is
    // live for the thread's whole life and touching it never allocates.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Add `delta` bytes to the live count, raising the peak with it.
fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// The size of an allocation, as a byte delta.
fn bytes(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

/// [`System`], counting calls that hand out memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a plain
// thread-local store that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        track(bytes(layout.size()));
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        track(bytes(layout.size()));
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-bytes(layout.size()));
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        track(bytes(new_size) - bytes(layout.size()));
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Start a new peak at the current live count.
fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
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

/// One greedy run of `tasks` blocks of 1 000 items on four machines:
/// the allocation calls it makes and the peak live bytes it adds, with
/// the report.
fn greedy_run(tasks: u64) -> (u64, i64, RunReport) {
    let block = 1_000;
    let total = tasks * block;
    let opts = ClusterOptions {
        seed: 7,
        noise_sigma: 0.02,
        ..Default::default()
    };
    let mut cluster = ClusterSim::build(&machines(4), &opts);
    let cost = BlackScholes::new(total).cost();
    let mut policy = GreedyPolicy::new(&PolicyConfig::default().with_initial_block(block));
    let mut engine = SimEngine::new(&mut cluster, &cost);
    let (before, live_before) = (calls(), live());
    reset_peak();
    let report = engine.run(&mut policy, total).expect("run completes");
    let made = calls() - before;
    assert_eq!(report.cover, vec![(0, total)]);
    assert_eq!(report.tasks as u64, tasks);
    (made, peak() - live_before, report)
}

/// A run's stores are sized by the roster and the event ring, not by
/// its task count: a greedy run of ten times the tasks makes no more
/// allocation calls, and its peak heap does not grow past the 1x run's,
/// which already holds the whole ring and the completed cover.
#[test]
fn ten_times_the_tasks_allocate_no_more() {
    let (calls_1x, peak_1x, report) = greedy_run(2_000);
    let (calls_10x, peak_10x, _) = greedy_run(20_000);
    let ring = EVENT_RING * std::mem::size_of::<Event>();
    let cover = report.cover.len() * std::mem::size_of::<(u64, u64)>();
    println!(
        "1x: {calls_1x} calls, peak {peak_1x} B; 10x: {calls_10x} calls, peak {peak_10x} B; \
         ring {ring} B, cover {cover} B"
    );
    assert!(
        calls_10x <= calls_1x,
        "{calls_10x} allocation calls for 10x the tasks, {calls_1x} for 1x"
    );
    // The ring is allocated whole when the run starts, and the cover is
    // coalesced as it grows, so both are in the 1x peak already.
    assert!(
        peak_10x <= peak_1x,
        "the peak grew by {} B for 10x the tasks",
        peak_10x - peak_1x
    );
    assert!(peak_1x as usize >= ring + cover, "{peak_1x} B");
}

#[test]
fn an_spmv_cost_table_takes_four_bytes_a_row() {
    let rows = 1_000_000;
    let before = live();
    reset_peak();
    let app = Spmv::new(rows, 0.8, 7).expect("valid parameters");
    let (built, held) = (peak() - before, live() - before);
    let per_row = |b: i64| b as f64 / rows as f64;
    println!(
        "{:.3} bytes a row at the peak of the build, {:.3} held",
        per_row(built),
        per_row(held)
    );
    assert!(held <= built);
    assert!(
        per_row(built) <= TABLE_BYTES_PER_ROW,
        "{:.3} bytes a row; the bound is {TABLE_BYTES_PER_ROW}",
        per_row(built)
    );
    drop(app);
}
