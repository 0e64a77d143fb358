//! The adapter to the system under test: every call the benchmark makes
//! into the library crates is in this module (and its two submodules),
//! so the list of public items a later change must keep
//! source-compatible is the list of `use` lines below. README.md,
//! "SUT surface", spells it out.
//!
//! Each `run_*` function builds what one run needs (simulated cluster
//! or thread pools, a fresh policy, an engine), times the engine's
//! `run()` from outside, and then checks the result: the run returned
//! `Ok`, the cover is exactly `[(0, total)]`, the per-unit items sum to
//! the total, and on top of that the cluster runs' exactly-once oracle
//! and the host runs' bit-for-bit output comparison.

pub mod layers;
pub mod traced;

use crate::spans::{span_if, Shared};
use plb_apps::blackscholes::{price, BsData};
use plb_apps::{BlackScholes, BsCodelet, GrnInference, MatMul, Spmv};
use plb_hec::{
    AcostaPolicy, GreedyPolicy, HdssPolicy, NodeDiffusionPolicy, PlbHecPolicy, PolicyConfig,
};
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::{
    machine_a, machine_b, machine_c, machine_d, ClusterSim, CostModel, MachineSpec, PuKind,
    Topology,
};
use plb_runtime::events::EventKind;
use plb_runtime::{
    equal_cost_shards, CheckpointConfig, ClusterEngine, Codelet, EventSink, HostEngine,
    HostPerturbation, HostPu, MigrationConfig, NodeFault, NodeFaultKind, NodeFaultPlan, Policy,
    RunError, RunReport, SimEngine, SimNodeRunner, Weights,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use traced::{CheckpointGrab, TracedNodeRunner, TracedPolicy};

/// Timing noise of every simulated device, as in the paper's protocol.
const NOISE_SIGMA: f64 = 0.02;

/// The four scheduling algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKind {
    /// PLB-HeC.
    PlbHec,
    /// HDSS two-phase weighting.
    Hdss,
    /// Acosta et al. relative-power balancing.
    Acosta,
    /// StarPU-style greedy dispatch, the speed-up baseline.
    Greedy,
}

impl PolicyKind {
    /// All four, in the paper's order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::PlbHec,
        PolicyKind::Hdss,
        PolicyKind::Acosta,
        PolicyKind::Greedy,
    ];

    fn build(self, initial_block: u64, seed: u64) -> Box<dyn Policy> {
        let cfg = PolicyConfig {
            initial_block,
            seed,
            ..Default::default()
        };
        match self {
            PolicyKind::PlbHec => Box::new(PlbHecPolicy::new(&cfg)),
            PolicyKind::Hdss => Box::new(HdssPolicy::new(&cfg)),
            PolicyKind::Acosta => Box::new(AcostaPolicy::new(&cfg)),
            PolicyKind::Greedy => Box::new(GreedyPolicy::new(&cfg)),
        }
    }
}

/// What the benchmark keeps of one run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Why the run counts as failed; `None` for a good run.
    pub failure: Option<String>,
    /// `RunReport.makespan`, seconds on the engine's clock.
    pub makespan_s: f64,
    /// `RunReport::mean_idle_fraction()`.
    pub idle_frac: f64,
    /// Host wall-clock of building the run's inputs (cluster or thread
    /// pools, policy, engine) plus the `run()` call, seconds.
    pub wall_s: f64,
    /// Host wall-clock of the `run()` call alone, seconds.
    pub run_wall_s: f64,
    /// Tasks the run submitted.
    pub tasks: u64,
    /// Processing units (nodes, on the cluster tier).
    pub units: usize,
    /// Busy seconds summed over units.
    pub busy_s: f64,
    /// Hash of the event sequence, wall-clock fields left out.
    pub event_hash: u64,
    /// Hash of the `RunReport`'s scheduling outcome.
    pub report_hash: u64,
    /// Counts and samples read off the run's events.
    pub seen: Seen,
}

/// Counts and samples read off one run's report and event stream. The
/// counts repeat exactly for a fixed seed; the two sample lists are
/// wall-clock.
#[derive(Debug, Clone, Default)]
pub struct Seen {
    /// `EventCounters.solves`.
    pub solves: u64,
    /// `EventCounters.rebalances`.
    pub rebalances: u64,
    /// `EventCounters.curve_fits`.
    pub curve_fits: u64,
    /// `EventCounters.fit_rejections`.
    pub fit_rejections: u64,
    /// `EventCounters.task_retries`.
    pub retries: u64,
    /// `EventCounters.quarantines` plus `node_quarantines`.
    pub quarantines: u64,
    /// `EventCounters.migrations_sent`.
    pub migrations: u64,
    /// `EventCounters.migration_retries`.
    pub migration_retries: u64,
    /// `EventCounters.cover_recredits`.
    pub recredits: u64,
    /// Items those re-credits returned to the pool.
    pub recredited_items: u64,
    /// `EventSink::recorded()`.
    pub events_recorded: u64,
    /// `EventSink::dropped()`.
    pub events_dropped: u64,
    /// Cost spent probing (`ModelingDone.items_used`, summed).
    pub probe_cost: u64,
    /// The workload's total cost, the base of `probe_cost`.
    pub total_cost: u64,
    /// Summed `MigrationSent.xfer_s`, seconds (virtual).
    pub migration_xfer_s: f64,
    /// Chunks the node runner executed (cluster runs).
    pub chunks: u64,
    /// `BlockSolve.solve_s` of every solve, seconds (wall).
    pub solve_s: Vec<f64>,
    /// `task_submit` to `task_start` gap of every task, seconds (only
    /// meaningful on the wall-clock engine).
    pub dispatch_gap_s: Vec<f64>,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One pass over the run's events: the determinism hash and the samples
/// that only the events carry. The hash covers every field of every
/// event except `BlockSolve.solve_s`, the one wall-clock value in a
/// simulated run's stream.
fn digest_events(sink: &EventSink, seen: &mut Seen) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    // A unit has one task in flight, so a start pairs with the last
    // submit on its unit.
    let mut submitted: Vec<Option<f64>> = Vec::new();
    for e in sink.iter() {
        fnv(&mut hash, &e.seq.to_le_bytes());
        fnv(&mut hash, &e.t.to_bits().to_le_bytes());
        fnv(
            &mut hash,
            &e.pu.map_or(u64::MAX, |p| p as u64).to_le_bytes(),
        );
        fnv(&mut hash, e.kind.name().as_bytes());
        match &e.kind {
            EventKind::TaskSubmit { task, items, cost } => {
                for v in [task, items, cost] {
                    fnv(&mut hash, &v.to_le_bytes());
                }
                if let Some(pu) = e.pu {
                    if submitted.len() <= pu {
                        submitted.resize(pu + 1, None);
                    }
                    submitted[pu] = Some(e.t);
                }
            }
            EventKind::TaskStart { task, items } => {
                for v in [task, items] {
                    fnv(&mut hash, &v.to_le_bytes());
                }
                let slot = e.pu.and_then(|pu| submitted.get_mut(pu));
                if let Some(t0) = slot.and_then(Option::take) {
                    seen.dispatch_gap_s.push(e.t - t0);
                }
            }
            EventKind::TaskFinish {
                task,
                items,
                cost,
                xfer_s,
                proc_s,
            } => {
                for v in [*task, *items, *cost, xfer_s.to_bits(), proc_s.to_bits()] {
                    fnv(&mut hash, &v.to_le_bytes());
                }
            }
            EventKind::BlockSolve {
                window,
                method,
                iterations,
                solve_s,
                predicted_s,
            } => {
                fnv(&mut hash, &window.to_le_bytes());
                fnv(&mut hash, method.as_bytes());
                fnv(&mut hash, &(*iterations as u64).to_le_bytes());
                fnv(&mut hash, &predicted_s.to_bits().to_le_bytes());
                seen.solve_s.push(*solve_s);
            }
            other => {
                match other {
                    EventKind::ModelingDone { items_used } => seen.probe_cost += items_used,
                    EventKind::MigrationSent { xfer_s, .. } => seen.migration_xfer_s += xfer_s,
                    EventKind::CoverRecredited { items, .. } => seen.recredited_items += items,
                    _ => {}
                }
                fnv(&mut hash, format!("{other:?}").as_bytes());
            }
        }
    }
    seen.events_recorded = sink.recorded();
    seen.events_dropped = sink.dropped();
    fnv(&mut hash, &seen.events_recorded.to_le_bytes());
    hash
}

/// The report's scheduling outcome as one number: makespan, task count,
/// per-unit items and busy time, and the cover.
fn digest_report(report: &RunReport) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    fnv(&mut hash, report.policy.as_bytes());
    fnv(&mut hash, &report.makespan.to_bits().to_le_bytes());
    fnv(&mut hash, &(report.tasks as u64).to_le_bytes());
    for pu in &report.pus {
        fnv(&mut hash, pu.name.as_bytes());
        for v in [
            pu.items,
            pu.busy_s.to_bits(),
            pu.idle_fraction.to_bits(),
            pu.bytes_in,
        ] {
            fnv(&mut hash, &v.to_le_bytes());
        }
    }
    for (offset, items) in &report.cover {
        fnv(&mut hash, &offset.to_le_bytes());
        fnv(&mut hash, &items.to_le_bytes());
    }
    hash
}

/// Turn an engine's result and event stream into a [`RunOutcome`],
/// applying the failure rules every engine shares.
fn outcome(
    result: Result<RunReport, RunError>,
    events: Option<&EventSink>,
    total_items: u64,
    total_cost: u64,
    wall_s: f64,
    run_wall_s: f64,
) -> RunOutcome {
    let mut out = RunOutcome {
        wall_s,
        run_wall_s,
        ..Default::default()
    };
    out.seen.total_cost = total_cost;
    if let Some(sink) = events {
        out.event_hash = digest_events(sink, &mut out.seen);
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.failure = Some(format!("run() returned Err: {e}"));
            return out;
        }
    };
    let done: u64 = report.pus.iter().map(|p| p.items).sum();
    if report.cover != [(0, total_items)] {
        out.failure = Some(format!(
            "cover is {:?}, not [(0, {total_items})]",
            report.cover
        ));
    } else if done != total_items {
        out.failure = Some(format!("per-unit items sum to {done}, not {total_items}"));
    }
    let c = &report.events;
    out.seen.solves = c.solves;
    out.seen.rebalances = c.rebalances;
    out.seen.curve_fits = c.curve_fits;
    out.seen.fit_rejections = c.fit_rejections;
    out.seen.retries = c.task_retries;
    out.seen.quarantines = c.quarantines + c.node_quarantines;
    out.seen.migrations = c.migrations_sent;
    out.seen.migration_retries = c.migration_retries;
    out.seen.recredits = c.cover_recredits;
    out.makespan_s = report.makespan;
    out.idle_frac = report.mean_idle_fraction();
    out.tasks = report.tasks as u64;
    out.units = report.pus.len();
    out.busy_s = report.pus.iter().map(|p| p.busy_s).sum();
    out.report_hash = digest_report(&report);
    out
}

/// `initialBlockSize` as the repository's own harness picks it: about a
/// thousandth of the work, but never so small that a block exposes
/// fewer than ~1e5 threads.
fn default_initial_block(total_cost: u64, cost: &dyn CostModel) -> u64 {
    let threads_per_item = cost.threads(1).max(1.0);
    let floor = ((1e5 / threads_per_item).ceil() as u64).clamp(32, total_cost.max(1));
    ((total_cost as f64 * 0.001).ceil().max(1.0) as u64).max(floor)
}

/// The paper's machines A to D, cycled.
fn machine(i: usize) -> MachineSpec {
    match i % 4 {
        0 => machine_a(),
        1 => machine_b(),
        2 => machine_c(),
        _ => machine_d(),
    }
}

fn machines(n: usize) -> Vec<MachineSpec> {
    (0..n).map(machine).collect()
}

/// The paper's three evaluation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperApp {
    /// Matrix multiplication of the given order.
    MatMul(u64),
    /// Gene-regulatory-network inference over the given gene count.
    Grn(u64),
    /// Black-Scholes over the given option count.
    BlackScholes(u64),
}

impl PaperApp {
    /// Display label, for example `MM 65536`.
    pub fn label(self) -> String {
        match self {
            PaperApp::MatMul(n) => format!("MM {n}"),
            PaperApp::Grn(n) => format!("GRN {n}"),
            PaperApp::BlackScholes(n) => format!("BS {n}"),
        }
    }
}

/// Everything a single-node simulated run needs that does not depend
/// on the run's seed or policy.
pub struct SimSetup {
    /// `<app> on <n> machines`.
    pub label: String,
    cost: Box<dyn CostModel>,
    weights: Arc<Weights>,
    total_items: u64,
    total_cost: u64,
    initial_block: u64,
    machines: Vec<MachineSpec>,
}

impl SimSetup {
    /// One cell of the paper's matrix: `app` on machines A.. (1 to 4).
    pub fn paper(app: PaperApp, n_machines: usize) -> SimSetup {
        let (cost, total): (Box<dyn CostModel>, u64) = match app {
            PaperApp::MatMul(n) => (Box::new(MatMul::new(n).cost()), n),
            PaperApp::Grn(n) => (Box::new(GrnInference::new(n).cost()), n),
            PaperApp::BlackScholes(n) => (Box::new(BlackScholes::new(n).cost()), n),
        };
        SimSetup {
            label: format!("{} on {n_machines} machines", app.label()),
            initial_block: default_initial_block(total, cost.as_ref()),
            cost,
            weights: Weights::uniform(),
            total_items: total,
            total_cost: total,
            machines: machines(n_machines),
        }
    }

    /// Black-Scholes over `options` on `n_machines` machines (A to D
    /// cycled), every policy starting from blocks of `block` items.
    pub fn scale(options: u64, n_machines: usize, block: u64) -> SimSetup {
        SimSetup {
            label: format!("BS {options} on {n_machines} machines"),
            cost: Box::new(BlackScholes::new(options).cost()),
            weights: Weights::uniform(),
            total_items: options,
            total_cost: options,
            initial_block: block,
            machines: machines(n_machines),
        }
    }

    /// The cluster workload's SpMV matrix on one node of `n_machines`
    /// machines, in blocks sized for about `claims` weighted claims.
    pub fn spmv(cluster: &ClusterSetup, n_machines: usize, claims: u64) -> SimSetup {
        SimSetup {
            label: format!("SPMV {} on {n_machines} machines", cluster.total_items),
            cost: Box::new(cluster.app.cost()),
            weights: Arc::clone(&cluster.weights),
            total_items: cluster.total_items,
            total_cost: cluster.total_cost,
            initial_block: (cluster.total_cost / claims).max(1),
            machines: machines(n_machines),
        }
    }
}

/// Checkpointing during a traced run, with a copy of a mid-run snapshot
/// set aside (the engine overwrites `file` with the final state).
pub struct Checkpointing<'a> {
    /// The file the engine snapshots to.
    pub file: &'a Path,
    /// Snapshot every this many completed tasks.
    pub interval_tasks: u64,
    /// Copy `file` to `copy` once this many tasks have finished.
    pub grab_after_tasks: u64,
    /// Where the mid-run copy goes.
    pub copy: &'a Path,
}

/// Extras of a simulated run that only the traced sweep asks for.
#[derive(Default)]
pub struct SimTrace<'a> {
    /// Record spans here.
    pub rec: Option<&'a Shared>,
    /// Also checkpoint (needs `rec`).
    pub checkpoint: Option<Checkpointing<'a>>,
}

/// One run on `SimEngine`: build the cluster from `seed`, construct the
/// policy, run.
pub fn run_sim(setup: &SimSetup, kind: PolicyKind, seed: u64, trace: &SimTrace) -> RunOutcome {
    let t0 = Instant::now();
    let opts = ClusterOptions {
        seed,
        noise_sigma: NOISE_SIGMA,
        ..Default::default()
    };
    let mut cluster = ClusterSim::build(&setup.machines, &opts);
    let mut policy = kind.build(setup.initial_block, seed);
    let mut engine =
        SimEngine::new(&mut cluster, setup.cost.as_ref()).with_weights(Arc::clone(&setup.weights));
    if let Some(rec) = trace.rec {
        let mut traced = TracedPolicy::new(policy, "policy", rec.clone());
        if let Some(c) = &trace.checkpoint {
            engine = engine
                .with_checkpoint(CheckpointConfig::new(c.file).with_interval(c.interval_tasks));
            traced = traced.with_checkpoint_grab(CheckpointGrab {
                after_tasks: c.grab_after_tasks,
                from: c.file.to_path_buf(),
                to: c.copy.to_path_buf(),
            });
        }
        policy = Box::new(traced);
    }
    let t1 = Instant::now();
    let result = span_if(trace.rec, "engine", "run", || {
        engine.run(policy.as_mut(), setup.total_items)
    });
    let (run_wall_s, wall_s) = (t1.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64());
    outcome(
        result,
        engine.last_events(),
        setup.total_items,
        setup.total_cost,
        wall_s,
        run_wall_s,
    )
}

/// What every run of the cluster workload shares: the SpMV matrix's row
/// profile, its weights, and the home shards.
pub struct ClusterSetup {
    app: Spmv,
    weights: Arc<Weights>,
    total_items: u64,
    total_cost: u64,
    bounds: Vec<u64>,
    nodes: usize,
    inner_block: u64,
    /// Virtual makespan of one fault-free run, the time scale the fault
    /// windows and the migration retry envelope are laid out on.
    timescale_s: f64,
}

impl ClusterSetup {
    /// SpMV with `rows` rows and power-law exponent `skew` on a ring of
    /// `nodes` single-machine nodes (machines A to D).
    pub fn new(rows: u64, skew: f64, seed: u64, nodes: usize) -> Result<ClusterSetup, String> {
        let app = Spmv::new(rows, skew, seed)?;
        let weights = app.weights();
        let total_cost = weights.total_cost(rows);
        let bounds = equal_cost_shards(rows, nodes, &weights);
        // A node works through its shard in several chunks; size the
        // intra-node blocks for a chunk, not for the whole matrix.
        let chunk_cost = total_cost / (nodes as u64 * 16);
        let inner_block = default_initial_block(chunk_cost, &app.cost());
        let mut setup = ClusterSetup {
            app,
            weights,
            total_items: rows,
            total_cost,
            bounds,
            nodes,
            inner_block,
            timescale_s: 0.0,
        };
        let calibration = run_cluster(&setup, PolicyKind::Greedy, false, seed, None);
        if let Some(why) = calibration.failure {
            return Err(format!("calibration run failed: {why}"));
        }
        setup.timescale_s = calibration.makespan_s;
        Ok(setup)
    }
}

/// The execution-level oracle of the cluster tier. Counting how often
/// each item was executed (from the chunks the node runner ran), no
/// item may have run zero times, and every execution beyond the first
/// must be paid for by a re-credit: a chunk in flight on a node that is
/// cut off has run already when its range returns to the pool, so it
/// legitimately runs again elsewhere, and nothing else may.
fn exactly_once(chunks: &[(u64, u64)], total: u64, recredited_items: u64) -> Result<(), String> {
    let mut edges: Vec<(u64, i64)> = chunks
        .iter()
        .flat_map(|&(offset, items)| [(offset, 1), (offset + items, -1)])
        .collect();
    edges.push((total, 0));
    edges.sort_unstable();
    let (mut at, mut depth, mut repeats) = (0u64, 0i64, 0u64);
    for (edge, step) in edges {
        if edge > at {
            if depth == 0 {
                return Err(format!(
                    "exactly-once violated: items {at}..{edge} never ran"
                ));
            }
            repeats += (depth as u64 - 1) * (edge - at);
            at = edge;
        }
        depth += step;
    }
    if repeats > recredited_items {
        return Err(format!(
            "exactly-once violated: {repeats} repeated item executions, only {recredited_items} items re-credited"
        ));
    }
    Ok(())
}

/// One run on `ClusterEngine` over `SimNodeRunner`, `kind` scheduling
/// inside every node and `NodeDiffusionPolicy` between them. With
/// `faults`, node 1 crashes after its second chunk, the link between
/// nodes 0 and 1 runs three times slower for the whole run, and node 3
/// is cut off from a quarter to six tenths of the fault-free makespan
/// (a crash alone re-credits nothing: it fires with no chunk in flight).
pub fn run_cluster(
    setup: &ClusterSetup,
    kind: PolicyKind,
    faults: bool,
    seed: u64,
    rec: Option<&Shared>,
) -> RunOutcome {
    let t0 = Instant::now();
    let cost = setup.app.cost();
    let clusters: Vec<ClusterSim> = (0..setup.nodes)
        .map(|node| {
            let opts = ClusterOptions {
                seed: seed.wrapping_add(node as u64),
                noise_sigma: NOISE_SIGMA,
                ..Default::default()
            };
            ClusterSim::build(&[machine(node)], &opts)
        })
        .collect();
    let policies: Vec<Box<dyn Policy>> = (0..setup.nodes)
        .map(|_| {
            let inner = kind.build(setup.inner_block, seed);
            match rec {
                Some(rec) => Box::new(TracedPolicy::new(inner, "node-policy", rec.clone())),
                None => inner,
            }
        })
        .collect();
    let names = (0..setup.nodes).map(|i| format!("node{i}")).collect();
    let mut sim_runner =
        SimNodeRunner::new(&cost, names, clusters, policies, Arc::clone(&setup.weights));
    let mut runner = TracedNodeRunner::new(&mut sim_runner, rec.cloned());
    let mut policy: Box<dyn Policy> = Box::new(NodeDiffusionPolicy::new(
        Topology::Ring,
        setup.bounds.clone(),
    ));
    if let Some(rec) = rec {
        policy = Box::new(TracedPolicy::new(policy, "diffusion", rec.clone()));
    }
    let plan = if faults {
        NodeFaultPlan::new(vec![
            NodeFault {
                node: 1,
                kind: NodeFaultKind::Crash { after_chunks: 2 },
            },
            NodeFault {
                node: 0,
                kind: NodeFaultKind::LinkDegrade {
                    peer: 1,
                    factor: 3.0,
                    from_s: 0.0,
                    to_s: 1e9,
                },
            },
            NodeFault {
                node: 3,
                kind: NodeFaultKind::Partition {
                    from_s: 0.25 * setup.timescale_s,
                    to_s: 0.60 * setup.timescale_s,
                },
            },
        ])
    } else {
        NodeFaultPlan::none()
    };
    let (result, events, run_wall_s) = {
        let mut engine = ClusterEngine::new(&mut runner)
            .with_weights(Arc::clone(&setup.weights))
            .with_shard_bounds(setup.bounds.clone())
            .with_node_faults(plan);
        if faults {
            // The defaults are sized for wall-clock clusters; on the
            // virtual clock one default backoff outlasts the whole run.
            engine = engine.with_migration(MigrationConfig {
                base_backoff_s: 0.02 * setup.timescale_s,
                deadline_s: 10.0 * setup.timescale_s,
                max_attempts: 6,
                ..Default::default()
            });
        }
        let t1 = Instant::now();
        let result = span_if(rec, "cluster", "run", || {
            engine.run(policy.as_mut(), setup.total_items)
        });
        let run_wall_s = t1.elapsed().as_secs_f64();
        (result, engine.last_events().cloned(), run_wall_s)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = outcome(
        result,
        events.as_ref(),
        setup.total_items,
        setup.total_cost,
        wall_s,
        run_wall_s,
    );
    out.seen.chunks = runner.executed.len() as u64;
    if out.failure.is_none() {
        out.failure = exactly_once(
            &runner.executed,
            setup.total_items,
            out.seen.recredited_items,
        )
        .err();
    }
    out
}

/// Times every host unit executes its kernel per task. The kernels are
/// idempotent, so repeating one multiplies a run's compute without
/// multiplying its memory: a run long enough to time steadily would
/// otherwise need an option book of most of a gigabyte.
const HOST_KERNEL_REPEAT: u32 = 6;

/// What every run of the host workload shares: the option book and the
/// prices a plain single-threaded loop computes for it.
pub struct HostSetup {
    data: Arc<BsData>,
    reference: Vec<(f64, f64)>,
    /// Seconds the plain single-threaded run took: this thread pricing
    /// the book [`HOST_KERNEL_REPEAT`] times, as unit 0 would alone.
    pub reference_s: f64,
    /// Units the engine gets, one thread each.
    pub units: usize,
}

impl HostSetup {
    /// Generate `options` options from `seed`, price them on this
    /// thread, and size the engine to `min(2, cores)` units.
    pub fn new(options: usize, seed: u64) -> HostSetup {
        let data = Arc::new(BsData::generate(options, seed));
        let t0 = Instant::now();
        let mut reference = vec![(0.0, 0.0); options];
        for _ in 0..HOST_KERNEL_REPEAT {
            // Opaque to the optimizer, so no pass is dropped as a
            // repeat of the one before.
            let book = std::hint::black_box(&data.options);
            for (out, option) in reference.iter_mut().zip(book) {
                *out = price(option);
            }
        }
        let reference_s = t0.elapsed().as_secs_f64();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        HostSetup {
            data,
            reference,
            reference_s,
            units: cores.min(2),
        }
    }

    /// Options in the book.
    pub fn options(&self) -> u64 {
        self.data.options.len() as u64
    }
}

/// One run on `HostEngine`: real threads pricing the option book, unit
/// 1 made three times slower than unit 0 by repeating its kernel three
/// times as often, every policy starting from `blocks` equal blocks.
pub fn run_host(
    setup: &HostSetup,
    kind: PolicyKind,
    blocks: u64,
    rec: Option<&Shared>,
) -> RunOutcome {
    let t0 = Instant::now();
    let total = setup.options();
    let pus = (0..setup.units)
        .map(|i| HostPu {
            name: format!("unit{i}"),
            kind: PuKind::Cpu,
            threads: 1,
        })
        .collect();
    let repeats = (0..setup.units)
        .map(|pu| HostPerturbation {
            pu,
            after_tasks: 0,
            repeat: HOST_KERNEL_REPEAT * if pu == 1 { 3 } else { 1 },
        })
        .collect();
    let mut engine = HostEngine::new(pus).with_perturbations(repeats);
    let codelet = Arc::new(BsCodelet::new(Arc::clone(&setup.data)));
    let mut policy = kind.build((total / blocks).max(1), 0);
    if let Some(rec) = rec {
        policy = Box::new(TracedPolicy::new(policy, "policy", rec.clone()));
    }
    let t1 = Instant::now();
    let as_codelet: Arc<dyn Codelet> = codelet.clone();
    let result = span_if(rec, "engine", "run", || {
        engine.run(policy.as_mut(), as_codelet, total)
    });
    let (run_wall_s, wall_s) = (t1.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64());
    let mut out = outcome(
        result,
        engine.last_events(),
        total,
        total,
        wall_s,
        run_wall_s,
    );
    if out.failure.is_none() {
        let got = codelet.results();
        let same = got.len() == setup.reference.len()
            && got
                .iter()
                .zip(&setup.reference)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
        if !same {
            out.failure = Some("output differs from the single-threaded reference".into());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::FaultPlan;

    #[test]
    fn exactly_once_oracle_sees_gaps_and_overlaps() {
        assert_eq!(exactly_once(&[(5, 5), (0, 5)], 10, 0), Ok(()));
        assert!(exactly_once(&[(0, 4), (5, 5)], 10, 0)
            .unwrap_err()
            .contains("4..5 never ran"));
        assert!(exactly_once(&[(0, 5)], 10, 0)
            .unwrap_err()
            .contains("5..10 never ran"));
        assert!(exactly_once(&[(2, 8)], 10, 0)
            .unwrap_err()
            .contains("0..2 never ran"));
        // An item run twice is a violation unless a re-credit pays for it.
        assert!(exactly_once(&[(0, 6), (5, 5)], 10, 0)
            .unwrap_err()
            .contains("1 repeated"));
        assert_eq!(exactly_once(&[(0, 6), (5, 5)], 10, 6), Ok(()));
        assert!(exactly_once(&[(0, 10), (2, 3), (3, 4)], 10, 6).is_err());
        assert_eq!(exactly_once(&[(0, 10), (2, 3), (3, 4)], 10, 7), Ok(()));
        assert!(exactly_once(&[], 0, 0).is_ok());
    }

    /// The satellite's correctness gate: a run under all three
    /// decorators has the same event-sequence hash and the same report
    /// as the plain run, on every engine tier the decorators wrap, for
    /// every policy, and with faults firing so that the defaulted hooks
    /// (`on_device_lost`, `on_task_failed`, `on_device_restored`) are
    /// exercised too.
    #[test]
    fn decorators_do_not_change_scheduling() {
        let setup = SimSetup::paper(PaperApp::BlackScholes(60_000), 2);
        for kind in PolicyKind::ALL {
            let plain = run_sim(&setup, kind, 11, &SimTrace::default());
            let rec = Shared::new();
            let traced = run_sim(
                &setup,
                kind,
                11,
                &SimTrace {
                    rec: Some(&rec),
                    checkpoint: None,
                },
            );
            assert_eq!(plain.failure, None, "{kind:?}");
            assert_eq!(traced.failure, None, "{kind:?}");
            assert_eq!(plain.event_hash, traced.event_hash, "{kind:?}");
            assert_eq!(plain.report_hash, traced.report_hash, "{kind:?}");
            assert!(rec.take().len() as u64 > plain.tasks, "{kind:?}");
        }

        let cluster = ClusterSetup::new(40_000, 0.8, 3, 4).unwrap();
        for faults in [false, true] {
            let plain = run_cluster(&cluster, PolicyKind::PlbHec, faults, 5, None);
            let rec = Shared::new();
            let traced = run_cluster(&cluster, PolicyKind::PlbHec, faults, 5, Some(&rec));
            assert_eq!(plain.failure, None);
            assert_eq!(traced.failure, None);
            assert_eq!(plain.event_hash, traced.event_hash);
            assert_eq!(plain.report_hash, traced.report_hash);
            assert_eq!(
                plain.seen.recredits > 0,
                faults,
                "the crash must fire and recover"
            );
        }

        // Unit-level faults drive the failure hooks through the
        // decorator on a bare engine.
        let run = |traced: bool| {
            let mut cluster = ClusterSim::build(
                &machines(2),
                &ClusterOptions {
                    seed: 1,
                    noise_sigma: NOISE_SIGMA,
                    ..Default::default()
                },
            );
            let cost = BlackScholes::new(60_000).cost();
            let mut policy = PolicyKind::PlbHec.build(782, 1);
            if traced {
                policy = Box::new(TracedPolicy::new(policy, "policy", Shared::new()));
            }
            let mut engine =
                SimEngine::new(&mut cluster, &cost).with_faults(FaultPlan::chaos(9, 5, 3));
            let result = engine.run(policy.as_mut(), 60_000);
            outcome(result, engine.last_events(), 60_000, 60_000, 0.0, 0.0)
        };
        let (plain, traced) = (run(false), run(true));
        assert_eq!(plain.failure, None);
        assert!(
            plain.seen.retries + plain.seen.quarantines > 0,
            "chaos must inject faults"
        );
        assert_eq!(plain.event_hash, traced.event_hash);
        assert_eq!(plain.report_hash, traced.report_hash);
    }

    #[test]
    fn same_seed_same_hash_other_seed_other_hash() {
        let setup = SimSetup::paper(PaperApp::MatMul(4096), 3);
        let a = run_sim(&setup, PolicyKind::PlbHec, 1, &SimTrace::default());
        let b = run_sim(&setup, PolicyKind::PlbHec, 1, &SimTrace::default());
        let c = run_sim(&setup, PolicyKind::PlbHec, 2, &SimTrace::default());
        assert_eq!(a.failure, None);
        assert_eq!((a.event_hash, a.report_hash), (b.event_hash, b.report_hash));
        assert_ne!(a.event_hash, c.event_hash);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    }

    #[test]
    fn host_run_matches_the_reference_bit_for_bit() {
        let setup = HostSetup::new(20_000, 4);
        for kind in [PolicyKind::PlbHec, PolicyKind::Greedy] {
            let out = run_host(&setup, kind, 50, None);
            assert_eq!(out.failure, None, "{kind:?}");
            assert_eq!(out.units, setup.units);
            assert!(!out.seen.dispatch_gap_s.is_empty());
        }
    }
}
