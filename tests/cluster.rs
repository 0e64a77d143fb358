//! The cluster tier end-to-end: multi-node balancing with node-level
//! fault domains. Partitions degrade a run gracefully (zero lost or
//! duplicated items, quarantine + re-credit events, makespan within the
//! quarantined node's capacity share plus re-credit overhead, and
//! re-admission through the acquisition gate on heal); crashes execute
//! every item exactly once at the runner level; seeded cluster chaos
//! preserves the disjoint complete cover; the simulator and host node
//! runners agree on crash accounting; and checkpoints stamp the node
//! roster so mid-partition snapshots resume only under the same nodes.

use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::workload::LinearCost;
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, PuKind, Scenario, Topology};
use plb_hec_suite::plb::{NodeDiffusionPolicy, PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{
    equal_cost_shards, Checkpoint, CheckpointConfig, ChunkOutcome, ClusterEngine, Codelet,
    EventKind, EventSink, FaultToleranceConfig, FixedBlockPolicy, FnCodelet, HostNodeRunner,
    HostPu, MigrationConfig, NodeFault, NodeFaultKind, NodeFaultPlan, NodeRunner, Policy, PuState,
    RunError, RunReport, SimNodeRunner, Weights, WorkloadId, CHECKPOINT_FORMAT_VERSION,
};
use proptest::prelude::*;
use std::sync::Arc;

mod common;

/// Per-node simulated machines, intra-node policies, and names for an
/// `n`-node homogeneous cluster.
fn sim_nodes(n: usize) -> (Vec<ClusterSim>, Vec<Box<dyn Policy>>, Vec<String>) {
    let opts = ClusterOptions {
        noise_sigma: 0.0,
        ..Default::default()
    };
    let clusters = (0..n)
        .map(|_| ClusterSim::build(&cluster_scenario(Scenario::One, false), &opts))
        .collect();
    let policies = (0..n)
        .map(|_| Box::new(FixedBlockPolicy { block: 4096 }) as Box<dyn Policy>)
        .collect();
    let names = (0..n).map(|i| format!("node{i}")).collect();
    (clusters, policies, names)
}

fn diffusion_for(n: usize, total: u64) -> NodeDiffusionPolicy {
    let bounds = equal_cost_shards(total, n, &Weights::uniform());
    NodeDiffusionPolicy::new(Topology::Full, bounds)
}

/// Migration tunables scaled to a simulated run whose fault-free
/// makespan is `m` seconds: the defaults are sized for wall-clock
/// clusters, so a sub-millisecond virtual run would otherwise spend
/// 25x its makespan in one retry backoff.
fn scaled_migration(m: f64) -> MigrationConfig {
    MigrationConfig {
        base_backoff_s: 0.02 * m,
        deadline_s: 10.0 * m,
        max_attempts: 6,
        ..Default::default()
    }
}

/// Rescale a plan's time windows (partitions, link degradations) by
/// `factor`, leaving chunk-keyed crashes untouched — chaos plans speak
/// in wall-clock seconds, simulated runs in sub-millisecond virtual
/// time.
fn rescale_windows(mut plan: NodeFaultPlan, factor: f64) -> NodeFaultPlan {
    for fault in &mut plan.faults {
        match &mut fault.kind {
            NodeFaultKind::Partition { from_s, to_s } => {
                *from_s *= factor;
                *to_s *= factor;
            }
            NodeFaultKind::LinkDegrade { from_s, to_s, .. } => {
                *from_s *= factor;
                *to_s *= factor;
            }
            NodeFaultKind::Crash { .. } => {}
        }
    }
    plan
}

/// Run an `n`-node simulated cluster under `plan`, returning the report
/// and the event stream. `migration` overrides the delivery tunables
/// (the defaults are sized for wall-clock seconds; simulated runs are
/// sub-millisecond, so tests scale the retry timescale to the run).
fn run_sim_cluster(
    n: usize,
    total: u64,
    plan: NodeFaultPlan,
    migration: Option<MigrationConfig>,
) -> (Result<RunReport, RunError>, EventSink) {
    let cost = LinearCost::generic();
    let (clusters, policies, names) = sim_nodes(n);
    let mut runner = SimNodeRunner::new(&cost, names, clusters, policies, Weights::uniform());
    let mut policy = diffusion_for(n, total);
    let mut engine = ClusterEngine::new(&mut runner).with_node_faults(plan);
    if let Some(m) = migration {
        engine = engine.with_migration(m);
    }
    let result = engine.run(&mut policy, total);
    let events = engine.last_events().cloned().unwrap_or_default();
    (result, events)
}

fn assert_full_cover(report: &RunReport, total: u64) {
    assert_eq!(
        report.cover,
        vec![(0, total)],
        "cover must be one disjoint range over the whole item space"
    );
    let done: u64 = report.pus.iter().map(|p| p.items).sum();
    assert_eq!(done, total, "per-node item accounting must sum to total");
}

#[test]
fn fault_free_cluster_completes_with_full_cover() {
    let total = 90_000;
    let (result, events) = run_sim_cluster(3, total, NodeFaultPlan::none(), None);
    let counters = events.counters();
    let report = result.expect("fault-free cluster run");
    assert_full_cover(&report, total);
    assert!(report.makespan > 0.0);
    // Every node contributes: the shards are equal-cost and the nodes
    // identical, so nobody should sit the run out.
    for pu in &report.pus {
        assert!(pu.items > 0, "{} processed nothing", pu.name);
    }
    assert_eq!(counters.node_quarantines, 0);
    assert_eq!(counters.cover_recredits, 0);
    // Work crosses shard borders even without faults, and no migrated
    // chunk arrives sooner than the inter-node link's latency allows.
    assert!(counters.migrations_sent >= 1, "nothing migrated");
    let latency_s = MigrationConfig::default().link.latency_s;
    for e in events.iter() {
        if let EventKind::MigrationSent { xfer_s, .. } = e.kind {
            assert!(xfer_s >= latency_s, "{xfer_s} s beats the link latency");
        }
    }
}

/// The acceptance scenario: a partition mid-run quarantines one of
/// three nodes and re-credits its in-flight chunk; survivors absorb the
/// work (no lost or duplicated items); the makespan degrades by less
/// than the quarantined node's full capacity share; and the node is
/// re-admitted through the acquisition gate when the partition heals
/// before completion.
#[test]
fn partition_degrades_gracefully_recredits_and_readmits() {
    let total = 120_000;
    let (baseline, _) = run_sim_cluster(3, total, NodeFaultPlan::none(), None);
    let baseline = baseline.expect("baseline run");
    let m = baseline.makespan;
    assert!(m > 0.0);

    // Cut node 2 off during the middle of the run; it heals well before
    // the degraded run can finish.
    let plan = NodeFaultPlan::new(vec![NodeFault {
        node: 2,
        kind: NodeFaultKind::Partition {
            from_s: 0.25 * m,
            to_s: 0.60 * m,
        },
    }]);
    let (result, events) = run_sim_cluster(3, total, plan, Some(scaled_migration(m)));
    let counters = events.counters();
    let report = result.expect("partitioned run must still complete");

    // Zero lost, zero duplicated: the cover is exact.
    assert_full_cover(&report, total);

    // The fault surfaced through the event stream: quarantine on the
    // cut, re-credit of the in-flight chunk, re-admission on heal.
    assert!(counters.node_quarantines >= 1, "no node_quarantined event");
    assert!(counters.cover_recredits >= 1, "no cover_recredited event");
    assert!(counters.node_joins >= 1, "healed node was not re-admitted");

    // Graceful degradation: losing one of three equal nodes for the
    // whole run would cost 1.5x; a bounded window plus re-credit
    // overhead must cost strictly less.
    assert!(
        report.makespan < 1.5 * m,
        "partition cost more than the node's full capacity share: {} vs baseline {}",
        report.makespan,
        m
    );
    assert!(
        report.makespan > 0.99 * m,
        "partitioned run cannot beat the fault-free baseline"
    );
}

/// A node runner that records every chunk execution, so tests can
/// assert the exactly-once property at the execution level (not just in
/// the driver's accounting).
struct CountingRunner<'c> {
    inner: SimNodeRunner<'c>,
    runs: Vec<(usize, u64, u64)>,
}

impl NodeRunner for CountingRunner<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn node_name(&self, node: usize) -> String {
        self.inner.node_name(node)
    }
    fn run_chunk(&mut self, node: usize, offset: u64, items: u64) -> Result<ChunkOutcome, String> {
        self.runs.push((node, offset, items));
        self.inner.run_chunk(node, offset, items)
    }
}

/// Crashes are keyed on completed chunks and fire with nothing in
/// flight, and a degraded (slow but lossless) link never drops a
/// delivery — so every item is executed exactly once even while the
/// survivors absorb the dead node's shard over the network.
#[test]
fn crash_executes_every_item_exactly_once() {
    let total: u64 = 60_000;
    let cost = LinearCost::generic();
    let (clusters, policies, names) = sim_nodes(3);
    let mut runner = CountingRunner {
        inner: SimNodeRunner::new(&cost, names, clusters, policies, Weights::uniform()),
        runs: Vec::new(),
    };
    let mut policy = diffusion_for(3, total);
    let plan = NodeFaultPlan::new(vec![
        NodeFault {
            node: 2,
            kind: NodeFaultKind::Crash { after_chunks: 2 },
        },
        NodeFault {
            node: 0,
            kind: NodeFaultKind::LinkDegrade {
                peer: 1,
                factor: 3.0,
                from_s: 0.0,
                to_s: 1e6,
            },
        },
    ]);
    let counters;
    {
        let mut engine = ClusterEngine::new(&mut runner).with_node_faults(plan);
        let report = engine
            .run(&mut policy, total)
            .expect("survivors must finish after the crash");
        assert_full_cover(&report, total);
        counters = engine
            .last_events()
            .map(|s| s.counters())
            .unwrap_or_default();
    }
    assert!(counters.node_quarantines >= 1, "crash must quarantine");
    assert!(
        counters.migrations_sent >= 1,
        "absorbing the dead node's shard must migrate work"
    );
    // Execution-level exactly-once: every item ran in precisely one
    // chunk across all nodes.
    let mut hits = vec![0u32; total as usize];
    for &(_, offset, items) in &runner.runs {
        for i in offset..offset + items {
            hits[i as usize] += 1;
        }
    }
    let zero = hits.iter().filter(|&&h| h == 0).count();
    let multi = hits.iter().filter(|&&h| h > 1).count();
    assert!(
        zero == 0 && multi == 0,
        "exactly-once violated: {zero} items never ran, {multi} ran more than once \
         (chunks: {:?})",
        runner.runs
    );
}

/// An undeliverable migration (the shard owner is partitioned away)
/// retries with exponential backoff and succeeds once the partition
/// heals — the retry schedule bridges the outage instead of losing the
/// chunk.
#[test]
fn undeliverable_migrations_retry_until_heal() {
    let total = 60_000;
    // Baseline to calibrate the virtual timescale.
    let (baseline, _) = run_sim_cluster(2, total, NodeFaultPlan::none(), None);
    let m = baseline.expect("baseline run").makespan;

    // Node 1 is unreachable from the start until well after node 0 has
    // exhausted its own shard and reached across the cut.
    let heal = 1.4 * m;
    let plan = NodeFaultPlan::new(vec![NodeFault {
        node: 1,
        kind: NodeFaultKind::Partition {
            from_s: 0.0,
            to_s: heal,
        },
    }]);
    let cost = LinearCost::generic();
    let (clusters, policies, names) = sim_nodes(2);
    let mut runner = SimNodeRunner::new(&cost, names, clusters, policies, Weights::uniform());
    let mut policy = diffusion_for(2, total);
    let mut engine = ClusterEngine::new(&mut runner)
        .with_node_faults(plan)
        // A wide retry schedule: backoff doubling from 0.1x the
        // baseline makespan bridges any heal within ~12x baseline.
        .with_migration(MigrationConfig {
            base_backoff_s: 0.1 * m,
            max_attempts: 8,
            deadline_s: 100.0 * m,
            ..Default::default()
        })
        // Keep the reaching node un-quarantined while it waits.
        .with_fault_tolerance(FaultToleranceConfig::default().with_quarantine_after(100));
    let report = engine
        .run(&mut policy, total)
        .expect("run must complete after the heal");
    let counters = engine
        .last_events()
        .map(|s| s.counters())
        .unwrap_or_default();
    assert_full_cover(&report, total);
    assert!(counters.migrations_sent >= 1, "no migration was attempted");
    assert!(
        counters.migration_retries >= 1,
        "the undeliverable migration never retried"
    );
    assert!(
        counters.node_quarantines >= 1,
        "the cut node must be quarantined"
    );
    assert!(
        counters.node_joins >= 1,
        "the healed node must be re-admitted"
    );
    assert!(
        report.makespan >= 0.999 * heal,
        "completion cannot precede the heal: {} < {}",
        report.makespan,
        heal
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded cluster chaos (crashes, partitions, lossy links in random
    /// combination) never loses or duplicates an item: a finished run
    /// covers the item space exactly, and the only admissible failure
    /// is a detected stall (every node dead), never a bad cover.
    #[test]
    fn cluster_chaos_preserves_disjoint_complete_cover(
        seed in any::<u64>(),
        intensity in 1usize..4,
    ) {
        let total = 30_000;
        let plan = NodeFaultPlan::chaos_cluster(seed, 3, intensity);
        prop_assert!(plan.validate(3).is_ok());
        // Chaos windows speak wall-clock seconds (0..~18s); squeeze
        // them into the virtual run so they actually overlap it.
        let (baseline, _) = run_sim_cluster(3, total, NodeFaultPlan::none(), None);
        let m = baseline.map(|r| r.makespan).unwrap_or(1.0);
        let plan = rescale_windows(plan, m / 6.0);
        prop_assert!(plan.validate(3).is_ok());
        let (result, _) = run_sim_cluster(3, total, plan, Some(scaled_migration(m)));
        match result {
            Ok(report) => {
                prop_assert_eq!(report.cover.clone(), vec![(0, total)]);
                let done: u64 = report.pus.iter().map(|p| p.items).sum();
                prop_assert_eq!(done, total);
            }
            Err(RunError::Stalled { .. }) => {
                // Admissible: chaos can kill every node.
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}

/// The same chunk-keyed crash plan produces the same order-independent
/// facts on the discrete-event runner and the real-thread runner: a
/// complete cover, zero lost items, and exactly one quarantine.
#[test]
fn sim_and_host_runners_agree_on_crash_accounting() {
    let total: u64 = 16_000;
    let plan = NodeFaultPlan::new(vec![NodeFault {
        node: 1,
        kind: NodeFaultKind::Crash { after_chunks: 1 },
    }]);

    // Simulated nodes.
    let (sim_report, sim_events) = run_sim_cluster(2, total, plan.clone(), None);
    let sim_counters = sim_events.counters();
    let sim_report = sim_report.expect("sim cluster run");
    assert_full_cover(&sim_report, total);

    // Real-thread nodes: one single-threaded CPU each, trivial kernel.
    let codelet: Arc<dyn Codelet> = Arc::new(FnCodelet::new("noop", |_r, _| {}));
    let pus: Vec<Vec<HostPu>> = (0..2)
        .map(|i| {
            vec![HostPu {
                name: format!("n{i}-cpu"),
                kind: PuKind::Cpu,
                threads: 1,
            }]
        })
        .collect();
    let policies: Vec<Box<dyn Policy>> = (0..2)
        .map(|_| Box::new(FixedBlockPolicy { block: 2048 }) as Box<dyn Policy>)
        .collect();
    let names = vec!["node0".to_string(), "node1".to_string()];
    let mut runner = HostNodeRunner::new(names, pus, policies, codelet, Weights::uniform());
    let mut policy = diffusion_for(2, total);
    let mut engine = ClusterEngine::new(&mut runner).with_node_faults(plan);
    let host_report = engine.run(&mut policy, total).expect("host cluster run");
    let host_counters = engine
        .last_events()
        .map(|s| s.counters())
        .unwrap_or_default();
    assert_full_cover(&host_report, total);

    assert_eq!(sim_counters.node_quarantines, 1);
    assert_eq!(host_counters.node_quarantines, 1);
    assert!(sim_counters.migrations_sent >= 1);
    assert!(host_counters.migrations_sent >= 1);
    // The crashed node stopped after one chunk on both engines, so the
    // survivor carried the majority of the items on both.
    for report in [&sim_report, &host_report] {
        let survivor = report.pus.first().map(|p| p.items).unwrap_or(0);
        let crashed = report.pus.get(1).map(|p| p.items).unwrap_or(0);
        assert!(
            survivor > crashed,
            "survivor must out-process the crashed node"
        );
    }
}

/// Cluster snapshots stamp the node roster, a roster
/// mismatch is rejected before any work runs, and a matching roster
/// resumes onto the uncovered remainder.
#[test]
fn cluster_checkpoints_stamp_and_enforce_the_node_roster() {
    let total: u64 = 40_000;
    let snapshot = |nodes: Vec<String>| Checkpoint {
        version: CHECKPOINT_FORMAT_VERSION,
        workload: WorkloadId {
            policy: "node-diffusion".to_string(),
            total_items: total,
            n_pus: 2,
            total_cost: total,
            nodes,
        },
        seq: 0,
        at: 1.0,
        tasks_done: 1,
        next_task: 1,
        completed: vec![(0, 1_000)],
        units: (0..2)
            .map(|i| PuState {
                name: format!("node{i}"),
                dispatches: 0,
                consecutive_failures: 0,
                rate_ewma: None,
                quarantined: false,
                lost: false,
            })
            .collect(),
        counters: Default::default(),
        policy_state: None,
    };

    // A snapshot from a different roster must be rejected up front.
    let cost = LinearCost::generic();
    {
        let (clusters, policies, names) = sim_nodes(2);
        let mut runner = SimNodeRunner::new(&cost, names, clusters, policies, Weights::uniform());
        let mut policy = diffusion_for(2, total);
        let foreign = snapshot(vec!["alpha".to_string(), "beta".to_string()]);
        let result = ClusterEngine::new(&mut runner)
            .resume_from(foreign)
            .run(&mut policy, total);
        assert!(
            matches!(result, Err(RunError::Checkpoint { .. })),
            "a foreign node roster must not resume: {result:?}"
        );
    }

    // The same roster resumes and completes the uncovered remainder.
    {
        let (clusters, policies, names) = sim_nodes(2);
        let mut runner = SimNodeRunner::new(&cost, names, clusters, policies, Weights::uniform());
        let mut policy = diffusion_for(2, total);
        let own = snapshot(vec!["node0".to_string(), "node1".to_string()]);
        let report = ClusterEngine::new(&mut runner)
            .resume_from(own)
            .run(&mut policy, total)
            .expect("matching roster must resume");
        // The snapshot pre-covered the first 1,000 items; the resumed
        // run completes the cover by processing only the remainder.
        assert_eq!(report.cover, vec![(0, total)]);
        let done: u64 = report.pus.iter().map(|p| p.items).sum();
        assert_eq!(done, total - 1_000);
    }

    // A live run stamps the roster into the snapshot it writes. The
    // offline test image ships a non-serializing serde_json stub, in
    // which case snapshot writing reports a typed checkpoint error and
    // the stamping assertion is skipped.
    {
        let dir = std::env::temp_dir().join(format!("plb-cluster-ckpt-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cluster.ckpt");
        let (clusters, policies, names) = sim_nodes(2);
        let mut runner = SimNodeRunner::new(&cost, names, clusters, policies, Weights::uniform());
        let mut policy = diffusion_for(2, total);
        let result = ClusterEngine::new(&mut runner)
            .with_checkpoint(CheckpointConfig::new(&path).with_interval(1))
            .run(&mut policy, total);
        match result {
            Ok(report) => {
                assert_full_cover(&report, total);
                let ck = plb_hec_suite::runtime::checkpoint::load(&path)
                    .expect("final snapshot must load");
                assert_eq!(
                    ck.workload.nodes,
                    vec!["node0".to_string(), "node1".to_string()],
                    "cluster snapshots must carry the node roster"
                );
            }
            Err(RunError::Checkpoint { .. }) => {
                // Stub serde_json: snapshot writing unavailable offline.
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Cross-commit goldens (the `tests/policy_goldens.rs` method): one hash
// over the whole node-level event stream and the run's outcome. Noise
// is off and the weights are closed-form, so no generator stream
// enters. Both constants were printed by this file at commit d850cbf,
// the parent of the PR that gave the driver one record per unit
// (ISSUE 20), which passed them unmodified.

/// Skewed per-item weights with a heavy head, in closed form.
fn skewed_weights(total: u64) -> Arc<Weights> {
    Arc::new(Weights::per_item((0..total).map(|i| {
        let base = 1 + i.wrapping_mul(2_654_435_761) % 97;
        base + if i < total / 20 { 400 } else { 0 }
    })))
}

/// The paper's machines A to D as a 4-node ring, PLB-HeC inside every
/// node and diffusion between them, over skewed weights; with a
/// `timescale`, under `plbmark`'s `sim-cluster` fault plan — node 1
/// crashes after its second chunk, the link between nodes 0 and 1 runs
/// three times slower, node 3 is cut off from a quarter to six tenths
/// of the timescale. Returns the makespan and the hash.
fn golden_ring(timescale: Option<f64>) -> (f64, u64) {
    let total = 80_000;
    let weights = skewed_weights(total);
    let cost = LinearCost::generic();
    let opts = ClusterOptions {
        seed: 7,
        noise_sigma: 0.0,
        ..Default::default()
    };
    let machines = cluster_scenario(Scenario::Four, false);
    let clusters: Vec<ClusterSim> = machines
        .iter()
        .map(|m| ClusterSim::build(std::slice::from_ref(m), &opts))
        .collect();
    let cfg = PolicyConfig::default()
        .with_initial_block(64)
        .with_round_fraction(0.25);
    let policies = (0..4)
        .map(|_| Box::new(PlbHecPolicy::new(&cfg)) as Box<dyn Policy>)
        .collect();
    let names = (0..4).map(|i| format!("node{i}")).collect();
    let mut runner = SimNodeRunner::new(&cost, names, clusters, policies, Arc::clone(&weights));
    let bounds = equal_cost_shards(total, 4, &weights);
    let mut policy = NodeDiffusionPolicy::new(Topology::Ring, bounds);
    let mut engine = ClusterEngine::new(&mut runner).with_weights(weights);
    if let Some(m) = timescale {
        engine = engine
            .with_migration(scaled_migration(m))
            .with_node_faults(NodeFaultPlan::new(vec![
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
                        from_s: 0.25 * m,
                        to_s: 0.60 * m,
                    },
                },
            ]));
    }
    let report = engine.run(&mut policy, total).expect("run completes");
    assert_full_cover(&report, total);
    let sink = engine.last_events().expect("engine keeps the event sink");
    assert_eq!(sink.counters().dropped, 0, "the hash must see every event");
    let counters = sink.counters();
    if timescale.is_some() {
        assert!(counters.node_quarantines >= 2, "crash and partition");
        assert!(counters.cover_recredits >= 1, "the cut re-credits a chunk");
    } else {
        assert_eq!(counters.node_quarantines, 0);
    }
    assert!(counters.migrations_sent >= 1, "nothing migrated");
    (report.makespan, common::stream_hash(sink.iter(), &report))
}

#[test]
fn four_node_ring_keeps_its_stream_across_commits() {
    let (m, fault_free) = golden_ring(None);
    let (_, faulted) = golden_ring(Some(m));
    assert_eq!(
        (fault_free, faulted),
        // (0x34de_8969_cbcf_9c6b, 0x7eb7_a080_da54_2709) at PR 21, where
        // every chunk start re-fitted every unit: 0.011595 s fault-free
        // and 0.014907 s faulted, against 0.013058 s and 0.011539 s with
        // the models that still predict kept (80 000 rows in all; at
        // `plbmark`'s 4 000 000 the two agree within 1.2 %). Then
        // (0xe0f6_f55b_6868_2797, 0xcb68_a8b7_2fa2_ffe2) until a node
        // held one chunk queued behind the one it runs, its payload on
        // the link while the node computes: fault-free 0.013058 s ->
        // 0.010815 s. Then (0xd8c5_167e_7797_ea79, 0x4008_b4d4_a8a4_bff3)
        // until every split was the water-fill's root: the nodes' models,
        // fitted on 64-item probes, are all but flat, and the interior
        // point's answers on them were near-even splits the fits do not
        // predict; the root gives the unit its flat curve says is done
        // first the whole window, in 2 to 5 steps a solve. Fault-free
        // 0.010815 s -> 0.008835 s, faulted 0.010670 s -> 0.013510 s.
        (0xb9f0_052a_67b6_bdbf, 0x6325_02c8_2c74_ab06),
        "got ({fault_free:#018x}, {faulted:#018x}); fault-free makespan {m:?} s"
    );
}
