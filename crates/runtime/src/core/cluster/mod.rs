//! The cluster tier: multi-node balancing with node-level fault
//! domains.
//!
//! A [`ClusterBackend`] composes *per-node* executions behind the same
//! [`Backend`] trait the single-node engines implement, so the shared
//! scheduling core ([`super::drive`]) runs unchanged one level up: each
//! "unit" of the outer drive is a whole node, each "task" is a chunk of
//! the cost-weighted item space, and the outer policy (the diffusion
//! policy in `plb-hec`) decides which node works on which shard of the
//! item space. Inside every chunk a [`NodeRunner`] executes the items
//! with the node's own intra-node engine and policy — PLB-HeC within
//! the node, diffusion between nodes.
//!
//! Node-level fault domains come from a [`NodeFaultPlan`]
//! (`plb-hetsim`): whole-node crashes keyed by completed-chunk count,
//! network partitions over virtual-time windows, and lossy links that
//! stretch inter-node transfers. Chunks assigned to a node that does
//! not own their home shard are *migrations*: the chunk's input payload
//! crosses a [`Link`] (cluster Ethernet latency), with a delivery
//! deadline and exponential-backoff retries while the destination is
//! unreachable. Delivery is exactly-once — the node runner executes a
//! chunk only after a successful delivery, and a delivery that exhausts
//! its retries surfaces as a failed attempt so the core's fault-response
//! machinery (retry, quarantine, re-credit) reassigns the range with no
//! item lost or double-counted.
//!
//! The tier emits the trace-v6 cluster events (`node_quarantined`,
//! `migration_sent`, `migration_retried`, `cover_recredited`; the
//! diffusion policy adds `node_joined`) and stamps the node roster into
//! checkpoint-v3 workload identity so a mid-partition run only resumes
//! under the same cluster shape. See `docs/FAULT_TOLERANCE.md`, "Node
//! fault domains".

use super::backend::{Backend, ClockKind, EventQueue, Launch, LaunchSpec, Polled};
use super::{drive, RunConfig, WorkPool};
use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::engine::{RunError, SimEngine};
use crate::events::{EventKind, EventSink};
use crate::fault::{FaultAction, FaultPlan, FaultToleranceConfig};
use crate::metrics::RunReport;
use crate::policy::{Policy, PuHandle};
use crate::sync::Arc;
use crate::task::{FailureReason, TaskId};
use crate::trace::Trace;
use crate::weights::Weights;
use plb_hetsim::transfer::Link;
use plb_hetsim::workload::CostModel;
use plb_hetsim::{ClusterSim, NodeFaultPlan, PuId, PuKind};

/// Inter-node migration tunables: the link a migrated chunk's payload
/// crosses, the payload size, and the delivery retry envelope.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// The inter-node link (defaults to
    /// [`Link::cluster_ethernet`] — 1 ms latency, 1.1 GB/s).
    pub link: Link,
    /// Payload bytes per migrated item (input block the destination
    /// node needs before it can execute the chunk).
    pub bytes_per_item: f64,
    /// Give up on a delivery this many seconds after the first send:
    /// the attempt surfaces as `deadline-exceeded` and the core's
    /// fault response re-credits the range.
    pub deadline_s: f64,
    /// Backoff before the first delivery retry, seconds; doubles on
    /// each further retry of the same chunk.
    pub base_backoff_s: f64,
    /// Delivery attempts per chunk (1 = no retry).
    pub max_attempts: u32,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            link: Link::cluster_ethernet(),
            bytes_per_item: 64.0,
            deadline_s: 5.0,
            base_backoff_s: 0.05,
            max_attempts: 4,
        }
    }
}

/// What one node-level chunk execution produced: the node-local
/// makespan (seconds of the node's own engine run) and the bytes its
/// intra-node data movement pulled in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkOutcome {
    /// Virtual (or wall) seconds the node spent on the chunk.
    pub makespan_s: f64,
    /// Bytes moved inside the node while executing the chunk.
    pub bytes_in: u64,
}

/// Executes one chunk of the global item space on one node. The sim
/// runner wraps per-node [`ClusterSim`]s; the host runner in
/// `crate::host` wraps nested real-thread engines. Runners keep their
/// per-node policies alive across chunks so intra-node learning (the
/// PLB-HeC profiles) accumulates.
pub trait NodeRunner {
    /// Number of nodes in the cluster.
    fn node_count(&self) -> usize;

    /// Display name of node `node` (stamped into checkpoint identity).
    fn node_name(&self, node: usize) -> String;

    /// Execute the global items `offset..offset + items` on `node`,
    /// returning the node-local timing. An `Err` surfaces as a failed
    /// attempt of the chunk (the core retries or re-credits it).
    fn run_chunk(&mut self, node: usize, offset: u64, items: u64) -> Result<ChunkOutcome, String>;
}

/// Split `total_items` into per-node home shards of (approximately)
/// equal *cost*: returns the interior boundaries (`bounds[i]` = first
/// item of shard `i + 1`), ascending, exclusive of `0` and the total.
/// Under uniform weights the shards have equal item counts.
pub fn equal_cost_shards(total_items: u64, n_nodes: usize, weights: &Weights) -> Vec<u64> {
    if n_nodes <= 1 || total_items == 0 {
        return Vec::new();
    }
    let total_cost = weights.total_cost(total_items);
    let mut bounds = Vec::with_capacity(n_nodes - 1);
    for k in 1..n_nodes as u64 {
        let target = (u128::from(total_cost) * u128::from(k) / n_nodes as u128) as u64;
        // Smallest boundary whose prefix cost reaches the target.
        let (mut lo, mut hi) = (0u64, total_items);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if weights.cost(0, mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        bounds.push(lo);
    }
    bounds.sort_unstable();
    bounds.dedup();
    bounds.retain(|&b| b > 0 && b < total_items);
    bounds
}

/// Are `bounds` usable home-shard boundaries? The owner lookup is a
/// `partition_point` over them, so anything but at most `n_nodes - 1`
/// strictly ascending items inside `(0, total_items)` names the wrong
/// owner, or one that does not exist.
fn shard_bounds_usable(bounds: &[u64], total_items: u64, n_nodes: usize) -> bool {
    let mut prev = 0;
    bounds.len() < n_nodes
        && bounds.iter().all(|&b| {
            let inside = prev < b && b < total_items;
            prev = b;
            inside
        })
}

/// Why a node left the active set, as reported in `node_quarantined`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DownReason {
    Crash,
    Partition,
}

impl DownReason {
    fn name(self) -> &'static str {
        match self {
            DownReason::Crash => "crash",
            DownReason::Partition => "partition",
        }
    }
}

/// Heap payloads of the cluster tier's virtual clock.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// A chunk's node-level execution finishes (stale when the node's
    /// epoch moved on — it was quarantined or crashed mid-chunk).
    ChunkDone {
        node: usize,
        epoch: u64,
        task: TaskId,
        start: f64,
        xfer_s: f64,
        proc_s: f64,
        /// Injected panic or a runner error: surfaces as a failed
        /// attempt instead of a completion.
        doomed: bool,
    },
    /// A migration exhausted its delivery retries (or its deadline).
    DeliveryFailed {
        node: usize,
        epoch: u64,
        task: TaskId,
    },
    /// A node's fault window opens: crash (permanent) or partition.
    NodeDown { node: usize, reason: DownReason },
    /// A partition heals.
    NodeUp { node: usize },
    /// A future-dated trace event (migration send/retry breadcrumbs):
    /// recorded only when its time arrives, keeping the event stream's
    /// per-unit timestamps monotone.
    Emit { pu: Option<usize>, kind: EventKind },
}

/// Backend-side record of the chunk currently on a node.
#[derive(Debug, Clone)]
struct InflightChunk {
    task: TaskId,
    items: u64,
    cost: u64,
}

/// Per-node backend state.
#[derive(Debug, Clone)]
struct NodeState {
    /// False after a crash — permanent.
    alive: bool,
    /// False while partitioned from the cluster.
    reachable: bool,
    /// Bumped whenever the node leaves the active set; scheduled
    /// outcomes carrying an older epoch are stale.
    epoch: u64,
    /// Completed chunks (the crash trigger's key).
    chunks_done: u64,
    inflight: Option<InflightChunk>,
    /// Size of the most recent failed delivery, kept so a quarantine
    /// that follows it can report the re-credited range.
    last_failed: Option<(u64, u64)>,
}

impl NodeState {
    fn fresh() -> NodeState {
        NodeState {
            alive: true,
            reachable: true,
            epoch: 0,
            chunks_done: 0,
            inflight: None,
            last_failed: None,
        }
    }
}

/// The cluster-tier backend: per-node chunk execution behind the
/// [`Backend`] trait, with node fault domains and inter-node migration.
/// Mechanics only — retry/quarantine/re-credit decisions stay in the
/// driving core.
struct ClusterBackend<'r> {
    runner: &'r mut dyn NodeRunner,
    nodes: Vec<NodeState>,
    /// Interior home-shard boundaries (see [`equal_cost_shards`]).
    shard_bounds: Vec<u64>,
    node_faults: NodeFaultPlan,
    migration: MigrationConfig,
    weights: Arc<Weights>,
    queue: EventQueue<Payload>,
    /// Migration payload + intra-node bytes per node.
    bytes_in: Vec<u64>,
    /// Pending `NodeUp` events still in the heap: only these can bring
    /// an all-down cluster back, so the core defers its stall verdict
    /// while any remain.
    heals_pending: usize,
    /// Core-initiated quarantines buffered for emission at the next
    /// poll (the quarantine hook has no event sink): node plus the
    /// re-credited range size, if one was in flight.
    pending_notes: Vec<(usize, u64, u64)>,
}

impl ClusterBackend<'_> {
    /// Which node owns the home shard containing `offset`.
    fn owner_of(&self, offset: u64) -> usize {
        self.shard_bounds.partition_point(|&b| b <= offset)
    }

    /// Can a payload move from `from` to `to` at time `t`? Partitioned
    /// endpoints are unreachable; degraded links still deliver, slower.
    fn deliverable(&self, from: usize, to: usize, t: f64) -> bool {
        !self.node_faults.partitioned(from, t) && !self.node_faults.partitioned(to, t)
    }

    /// A node at its crash threshold is already doomed: its `NodeDown`
    /// event sits in the heap at the current instant, but the driver
    /// may dispatch between the fatal completion and that pop. Refusing
    /// such launches keeps crashes exactly-once — no chunk is ever
    /// executed on a node past its crash point.
    fn crash_doomed(&self, pu: usize) -> bool {
        self.node_faults
            .crash_after(pu)
            .is_some_and(|after| self.nodes.get(pu).is_some_and(|n| n.chunks_done >= after))
    }
}

impl Backend for ClusterBackend<'_> {
    fn clock_kind(&self) -> ClockKind {
        ClockKind::Virtual
    }

    fn now(&self) -> f64 {
        self.queue.now()
    }

    fn unit_ready(&self, pu: usize) -> bool {
        !self.crash_doomed(pu) && self.nodes.get(pu).is_some_and(|n| n.alive && n.reachable)
    }

    fn launch(&mut self, spec: &LaunchSpec) -> Launch {
        let pu = spec.pu;
        if !self.nodes.get(pu).is_some_and(|n| n.alive) || self.crash_doomed(pu) {
            return Launch::UnitGone;
        }
        let send = self.queue.start_of(spec);
        let owner = self.owner_of(spec.offset);
        let cost = self.weights.cost(spec.offset, spec.items);
        let bytes = (spec.items as f64 * self.migration.bytes_per_item).max(0.0);

        // Resolve the delivery schedule deterministically against the
        // fault plan's windows: chunks on their home node are local
        // (no network); migrated chunks cross the link, retrying with
        // exponential backoff while either endpoint is partitioned.
        let mut delivered: Option<(f64, f64)> = None;
        let mut failed_at: Option<f64> = None;
        if owner == pu {
            delivered = Some((send, 0.0));
        } else {
            let nominal =
                self.migration.link.time(bytes) * self.node_faults.degrade_factor(owner, pu, send);
            self.queue.push(
                send,
                Payload::Emit {
                    pu: Some(pu),
                    kind: EventKind::MigrationSent {
                        task: spec.task.0,
                        from: owner,
                        items: spec.items,
                        cost,
                        bytes: bytes as u64,
                        xfer_s: nominal,
                    },
                },
            );
            let mut t = send;
            let mut attempt = 0u32;
            loop {
                if self.deliverable(owner, pu, t) {
                    let factor = self.node_faults.degrade_factor(owner, pu, t);
                    delivered = Some((t, self.migration.link.time(bytes) * factor));
                    break;
                }
                attempt += 1;
                if attempt >= self.migration.max_attempts.max(1) {
                    failed_at = Some(t);
                    break;
                }
                let backoff = self.migration.base_backoff_s
                    * f64::from(2u32.saturating_pow(attempt.saturating_sub(1)).min(1 << 16));
                t += backoff;
                if t - send > self.migration.deadline_s {
                    failed_at = Some(t);
                    break;
                }
                self.queue.push(
                    t,
                    Payload::Emit {
                        pu: Some(pu),
                        kind: EventKind::MigrationRetried {
                            task: spec.task.0,
                            attempt,
                            backoff_s: backoff,
                        },
                    },
                );
            }
        }

        match (delivered, failed_at) {
            (Some((arrival, xfer_s)), _) => {
                // Exactly-once execution: the runner sees the chunk
                // only on this, the successful delivery.
                let (proc_s, inner_bytes, doomed) = match spec.inject {
                    Some(FaultAction::Panic) => (0.0, 0, true),
                    other => match self.runner.run_chunk(pu, spec.offset, spec.items) {
                        Ok(out) => {
                            let extra = match other {
                                Some(FaultAction::Delay(s)) => s,
                                _ => 0.0,
                            };
                            (out.makespan_s * spec.drift + extra, out.bytes_in, false)
                        }
                        Err(_) => (0.0, 0, true),
                    },
                };
                if let Some(b) = self.bytes_in.get_mut(pu) {
                    *b += inner_bytes;
                    if owner != pu {
                        *b += bytes as u64;
                    }
                }
                let Some(st) = self.nodes.get_mut(pu) else {
                    return Launch::UnitGone;
                };
                st.inflight = Some(InflightChunk {
                    task: spec.task,
                    items: spec.items,
                    cost,
                });
                st.last_failed = None;
                let epoch = st.epoch;
                self.queue.push(
                    arrival + xfer_s + proc_s,
                    Payload::ChunkDone {
                        node: pu,
                        epoch,
                        task: spec.task,
                        start: arrival,
                        xfer_s,
                        proc_s,
                        doomed,
                    },
                );
                Launch::Started {
                    start: Some(arrival),
                }
            }
            (None, Some(t_fail)) => {
                let Some(st) = self.nodes.get_mut(pu) else {
                    return Launch::UnitGone;
                };
                st.inflight = Some(InflightChunk {
                    task: spec.task,
                    items: spec.items,
                    cost,
                });
                let epoch = st.epoch;
                self.queue.push(
                    t_fail,
                    Payload::DeliveryFailed {
                        node: pu,
                        epoch,
                        task: spec.task,
                    },
                );
                // The chunk never started; no start time to report.
                Launch::Started { start: None }
            }
            (None, None) => Launch::UnitGone,
        }
    }

    fn poll(&mut self, _wake: Option<f64>, events: &mut EventSink) -> Polled {
        // Flush core-initiated quarantines buffered by the hook below.
        while let Some((node, items, cost)) = self.pending_notes.pop() {
            events.record(
                self.queue.now(),
                Some(node),
                EventKind::NodeQuarantined {
                    reason: "migration-failures".to_string(),
                },
            );
            if items > 0 {
                events.record(
                    self.queue.now(),
                    Some(node),
                    EventKind::CoverRecredited { items, cost },
                );
            }
        }
        loop {
            let Some(payload) = self.queue.pop() else {
                return Polled::Drained;
            };
            match payload {
                Payload::Emit { pu, kind } => {
                    events.record(self.queue.now(), pu, kind);
                    continue;
                }
                Payload::ChunkDone {
                    node,
                    epoch,
                    task,
                    start,
                    xfer_s,
                    proc_s,
                    doomed,
                } => {
                    let crash_after = self.node_faults.crash_after(node);
                    let Some(st) = self.nodes.get_mut(node) else {
                        continue;
                    };
                    let current =
                        st.epoch == epoch && st.inflight.as_ref().is_some_and(|f| f.task == task);
                    if !current {
                        continue;
                    }
                    st.inflight = None;
                    if doomed {
                        return Polled::AttemptFailed {
                            pu: node,
                            task,
                            reason: FailureReason::Panicked,
                        };
                    }
                    st.chunks_done += 1;
                    if crash_after.is_some_and(|after| st.chunks_done >= after) && st.alive {
                        // The node dies right after reporting this
                        // chunk: the crash event lands at the same
                        // instant, after the completion below.
                        let at = self.queue.now();
                        self.queue.push(
                            at,
                            Payload::NodeDown {
                                node,
                                reason: DownReason::Crash,
                            },
                        );
                    }
                    return Polled::Completed {
                        pu: node,
                        task,
                        start,
                        xfer_s,
                        proc_s,
                        finish: self.queue.now(),
                    };
                }
                Payload::DeliveryFailed { node, epoch, task } => {
                    let Some(st) = self.nodes.get_mut(node) else {
                        continue;
                    };
                    let current =
                        st.epoch == epoch && st.inflight.as_ref().is_some_and(|f| f.task == task);
                    if !current {
                        continue;
                    }
                    let fl = st.inflight.take();
                    st.last_failed = fl.map(|f| (f.items, f.cost));
                    return Polled::AttemptFailed {
                        pu: node,
                        task,
                        reason: FailureReason::DeadlineExceeded,
                    };
                }
                Payload::NodeDown { node, reason } => {
                    let Some(st) = self.nodes.get_mut(node) else {
                        continue;
                    };
                    if !st.alive || (reason == DownReason::Partition && !st.reachable) {
                        continue;
                    }
                    match reason {
                        DownReason::Crash => st.alive = false,
                        DownReason::Partition => st.reachable = false,
                    }
                    st.epoch += 1;
                    let fl = st.inflight.take();
                    events.record(
                        self.queue.now(),
                        Some(node),
                        EventKind::NodeQuarantined {
                            reason: reason.name().to_string(),
                        },
                    );
                    if let Some(f) = fl {
                        // The unfinished range folds back into the
                        // pool (the core reclaims it on `UnitDown`).
                        events.record(
                            self.queue.now(),
                            Some(node),
                            EventKind::CoverRecredited {
                                items: f.items,
                                cost: f.cost,
                            },
                        );
                    }
                    return Polled::UnitDown { pu: node };
                }
                Payload::NodeUp { node } => {
                    self.heals_pending = self.heals_pending.saturating_sub(1);
                    let Some(st) = self.nodes.get_mut(node) else {
                        continue;
                    };
                    if !st.alive || st.reachable {
                        // Crashed while partitioned (or never cut):
                        // the heal changes nothing.
                        continue;
                    }
                    st.reachable = true;
                    return Polled::UnitRestored { pu: node };
                }
            }
        }
    }

    fn charge_overhead(&mut self, seconds: f64) {
        self.queue.charge_overhead(seconds);
    }

    fn on_unit_quarantined(&mut self, pu: usize) {
        let Some(st) = self.nodes.get_mut(pu) else {
            return;
        };
        st.epoch += 1;
        let fl = st.inflight.take().map(|f| (f.items, f.cost));
        let (items, cost) = fl.or(st.last_failed.take()).unwrap_or((0, 0));
        self.pending_notes.push((pu, items, cost));
    }

    fn forget_unit(&mut self, pu: usize) {
        if let Some(st) = self.nodes.get_mut(pu) {
            st.alive = false;
            st.epoch += 1;
            st.inflight = None;
        }
    }

    fn idle_progress_possible(&self) -> bool {
        self.heals_pending > 0
            || self.queue.pending().any(|p| {
                matches!(
                    p,
                    Payload::ChunkDone { .. } | Payload::DeliveryFailed { .. }
                )
            })
    }

    fn external_restore_possible(&self) -> bool {
        self.heals_pending > 0
    }

    fn bytes_into(&self, pu: usize) -> u64 {
        self.bytes_in.get(pu).copied().unwrap_or(0)
    }
}

/// The simulator node runner: one [`ClusterSim`] and one persistent
/// intra-node policy per node. Every chunk runs a nested discrete-event
/// engine over the node's devices, in global item coordinates: the
/// node owns `offset..offset + items` of the application's item space
/// and sees the application's own cost model and weight table there.
/// The policy object survives across chunks, so PLB-HeC's learning
/// carries over: a later chunk probes nothing, keeps every model whose
/// unit stayed inside the divergence band, re-fits the others from
/// their bounded profiles, and re-solves for its own window.
pub struct SimNodeRunner<'c> {
    cost: &'c dyn CostModel,
    names: Vec<String>,
    clusters: Vec<ClusterSim>,
    policies: Vec<Box<dyn Policy>>,
    weights: Arc<Weights>,
}

impl<'c> SimNodeRunner<'c> {
    /// Build a runner from per-node simulated machines and per-node
    /// intra-node policies. `clusters` and `policies` must have equal
    /// length; `cost` and `weights` are the *global* cost model and
    /// per-item cost table.
    pub fn new(
        cost: &'c dyn CostModel,
        names: Vec<String>,
        clusters: Vec<ClusterSim>,
        policies: Vec<Box<dyn Policy>>,
        weights: Arc<Weights>,
    ) -> SimNodeRunner<'c> {
        SimNodeRunner {
            cost,
            names,
            clusters,
            policies,
            weights,
        }
    }
}

impl NodeRunner for SimNodeRunner<'_> {
    fn node_count(&self) -> usize {
        self.clusters.len().min(self.policies.len())
    }

    fn node_name(&self, node: usize) -> String {
        self.names
            .get(node)
            .cloned()
            .unwrap_or_else(|| format!("node{node}"))
    }

    fn run_chunk(&mut self, node: usize, offset: u64, items: u64) -> Result<ChunkOutcome, String> {
        let Some(cluster) = self.clusters.get_mut(node) else {
            return Err(format!("unknown node {node}"));
        };
        let Some(policy) = self.policies.get_mut(node) else {
            return Err(format!("no policy for node {node}"));
        };
        let report = SimEngine::new(cluster, self.cost)
            .with_weights(Arc::clone(&self.weights))
            .run_range(policy.as_mut(), offset..offset.saturating_add(items))
            .map_err(|e| e.to_string())?;
        Ok(ChunkOutcome {
            makespan_s: report.makespan,
            bytes_in: report.pus.iter().map(|p| p.bytes_in).sum(),
        })
    }
}

/// The cluster engine: multi-node balancing over any [`NodeRunner`],
/// with node fault domains and inter-node migration. Mirrors the
/// single-node engines' builder style and delegates to the same
/// scheduling core, one tier up.
///
/// ```
/// use plb_hetsim::cluster::ClusterOptions;
/// use plb_hetsim::workload::LinearCost;
/// use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
/// use plb_runtime::{ClusterEngine, FixedBlockPolicy, Policy, SimNodeRunner, Weights};
///
/// let cost = LinearCost::generic();
/// let opts = ClusterOptions { noise_sigma: 0.0, ..Default::default() };
/// let clusters: Vec<ClusterSim> = (0..2)
///     .map(|_| ClusterSim::build(&cluster_scenario(Scenario::One, false), &opts))
///     .collect();
/// let policies: Vec<Box<dyn Policy>> = (0..2)
///     .map(|_| Box::new(FixedBlockPolicy { block: 4096 }) as Box<dyn Policy>)
///     .collect();
/// let names = vec!["n0".into(), "n1".into()];
/// let mut runner = SimNodeRunner::new(&cost, names, clusters, policies, Weights::uniform());
/// let mut outer = FixedBlockPolicy { block: 25_000 };
/// let report = ClusterEngine::new(&mut runner)
///     .run(&mut outer, 100_000)
///     .unwrap();
/// assert_eq!(report.total_items, 100_000);
/// assert_eq!(report.cover, vec![(0, 100_000)]);
/// ```
pub struct ClusterEngine<'r> {
    runner: &'r mut dyn NodeRunner,
    node_faults: NodeFaultPlan,
    migration: MigrationConfig,
    shard_bounds: Option<Vec<u64>>,
    cfg: RunConfig,
    last_trace: Option<Trace>,
    last_events: Option<EventSink>,
}

impl<'r> ClusterEngine<'r> {
    /// Create an engine over a node runner.
    pub fn new(runner: &'r mut dyn NodeRunner) -> ClusterEngine<'r> {
        ClusterEngine {
            runner,
            node_faults: NodeFaultPlan::none(),
            migration: MigrationConfig::default(),
            shard_bounds: None,
            cfg: RunConfig::default(),
            last_trace: None,
            last_events: None,
        }
    }

    /// Inject node-level faults: crashes, partitions, lossy links. See
    /// [`NodeFaultPlan`].
    pub fn with_node_faults(mut self, plan: NodeFaultPlan) -> ClusterEngine<'r> {
        self.node_faults = plan;
        self
    }

    /// Inject chunk-level faults (panics, delays, drift) by per-node
    /// attempt index — the same grammar single-node runs use, applied
    /// at node granularity. See [`FaultPlan`].
    pub fn with_faults(mut self, plan: FaultPlan) -> ClusterEngine<'r> {
        self.cfg.faults = plan;
        self
    }

    /// Override the fault-response tunables (chunk retry bound,
    /// backoff, node quarantine threshold).
    pub fn with_fault_tolerance(mut self, ft: FaultToleranceConfig) -> ClusterEngine<'r> {
        self.cfg.ft = ft;
        self
    }

    /// Override the migration tunables (link, payload size, delivery
    /// deadline and retries).
    pub fn with_migration(mut self, m: MigrationConfig) -> ClusterEngine<'r> {
        self.migration = m;
        self
    }

    /// Write periodic durability snapshots during `run` (plus one on
    /// clean shutdown). Cluster snapshots carry the node roster
    /// (checkpoint v3), so they resume only under the same roster.
    pub fn with_checkpoint(mut self, cfg: CheckpointConfig) -> ClusterEngine<'r> {
        self.cfg.checkpoint = Some(cfg);
        self
    }

    /// Resume the next `run` from `ckpt` instead of starting fresh.
    /// Consumed by that run. The snapshot must match the run's workload
    /// *and* node roster, or `run` fails with [`RunError::Checkpoint`].
    pub fn resume_from(mut self, ckpt: Checkpoint) -> ClusterEngine<'r> {
        self.cfg.resume = Some(ckpt);
        self
    }

    /// Use per-item work weights: home shards become equal-*cost* (not
    /// equal-count), and chunk claims are cost-budgeted.
    pub fn with_weights(mut self, weights: Arc<Weights>) -> ClusterEngine<'r> {
        self.cfg.weights = weights;
        self
    }

    /// Override the home-shard boundaries: interior bounds, strictly
    /// ascending inside `(0, total_items)`, at most one fewer than
    /// there are nodes (`run` rejects anything else). Defaults to
    /// [`equal_cost_shards`] over the run's weights.
    pub fn with_shard_bounds(mut self, bounds: Vec<u64>) -> ClusterEngine<'r> {
        self.shard_bounds = Some(bounds);
        self
    }

    /// Run `total_items` under the node-level `policy` (typically the
    /// diffusion policy from `plb-hec`). Delegates to the shared
    /// scheduling core over the cluster backend: each unit is a node,
    /// each task a chunk, and node faults surface through the same
    /// retry/quarantine/re-credit machinery single-node runs use.
    pub fn run(
        &mut self,
        policy: &mut dyn Policy,
        total_items: u64,
    ) -> Result<RunReport, RunError> {
        let n = self.runner.node_count();
        if n == 0 {
            return Err(RunError::NoUnits);
        }
        if let Err(e) = self.node_faults.validate(n) {
            return Err(RunError::Infrastructure {
                detail: format!("node fault plan: {e}"),
            });
        }
        let names: Vec<String> = (0..n).map(|i| self.runner.node_name(i)).collect();
        let handles: Vec<PuHandle> = names
            .iter()
            .enumerate()
            .map(|(i, name)| PuHandle {
                id: PuId(i),
                name: name.clone(),
                // Nodes are kind-less at this tier; CPU is the neutral
                // label (the diffusion policy never branches on kind).
                kind: PuKind::Cpu,
                machine: i,
                available: true,
            })
            .collect();
        let shard_bounds = match &self.shard_bounds {
            Some(b) => b.clone(),
            None => equal_cost_shards(total_items, n, &self.cfg.weights),
        };
        if !shard_bounds_usable(&shard_bounds, total_items, n) {
            return Err(RunError::Infrastructure {
                detail: format!(
                    "shard bounds: {shard_bounds:?} are not at most {} strictly ascending \
                     items inside (0, {total_items})",
                    n - 1
                ),
            });
        }
        // Cut the pool at the home-shard borders, so shard-scoped claims
        // never straddle an ownership boundary. (A resumed run replaces
        // the pool with the snapshot's holes, which split lazily inside
        // `take_within`.)
        let cfg = RunConfig {
            roster: names,
            ..self.cfg.for_run()
        };
        let mut pool = WorkPool::over(0..total_items, Arc::clone(&cfg.weights));
        pool.fragment(&shard_bounds);
        let mut backend = ClusterBackend {
            runner: self.runner,
            nodes: (0..n).map(|_| NodeState::fresh()).collect(),
            shard_bounds,
            node_faults: self.node_faults.clone(),
            migration: self.migration.clone(),
            weights: Arc::clone(&cfg.weights),
            queue: EventQueue::new(),
            bytes_in: vec![0; n],
            heals_pending: 0,
            pending_notes: Vec::new(),
        };
        // Pre-schedule every partition window: the cut opens as a
        // `NodeDown` and heals as a `NodeUp`, both at plan-fixed
        // virtual times.
        for node in 0..n {
            for (from_s, to_s) in backend.node_faults.partition_windows(node) {
                backend.queue.push(
                    from_s,
                    Payload::NodeDown {
                        node,
                        reason: DownReason::Partition,
                    },
                );
                backend.queue.push(to_s, Payload::NodeUp { node });
                backend.heals_pending += 1;
            }
        }
        let outcome = drive(&mut backend, handles, policy, pool, cfg);
        self.last_trace = Some(outcome.trace);
        self.last_events = Some(outcome.events);
        outcome.result
    }

    /// The node-level Gantt trace of the most recent `run`.
    pub fn last_trace(&self) -> Option<&Trace> {
        self.last_trace.as_ref()
    }

    /// The structured event stream of the most recent `run` — also
    /// populated on a stalled run, for post-mortems.
    pub fn last_events(&self) -> Option<&EventSink> {
        self.last_events.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedBlockPolicy;
    use crate::sync::Mutex;
    use plb_hetsim::cluster::ClusterOptions;
    use plb_hetsim::workload::LinearCost;
    use plb_hetsim::{cluster_scenario, Scenario};

    #[test]
    fn equal_cost_shards_split_uniform_items_evenly() {
        let b = equal_cost_shards(100, 4, &Weights::Uniform);
        assert_eq!(b, vec![25, 50, 75]);
        assert!(shard_bounds_usable(&b, 100, 4));
        assert!(equal_cost_shards(100, 1, &Weights::Uniform).is_empty());
        assert!(equal_cost_shards(0, 4, &Weights::Uniform).is_empty());
    }

    #[test]
    fn equal_cost_shards_balance_cost_not_count() {
        // Ten items; the first two carry 45 of 50 cost units. Two
        // shards of ~equal cost split inside the heavy head.
        let w = Weights::per_item([20, 25, 1, 1, 1, 1, 1, 0, 0, 0]);
        let b = equal_cost_shards(10, 2, &w);
        assert_eq!(b.len(), 1);
        assert!(shard_bounds_usable(&b, 10, 2));
        let cut = b[0];
        let left = w.cost(0, cut);
        let right = w.cost(cut, 10 - cut);
        assert!(left >= 25 && right <= 25, "left={left} right={right}");
    }

    #[test]
    fn owner_lookup_follows_shard_bounds() {
        let be_bounds = [25u64, 50, 75];
        let owner = |off: u64| be_bounds.partition_point(|&b| b <= off);
        assert_eq!(owner(0), 0);
        assert_eq!(owner(24), 0);
        assert_eq!(owner(25), 1);
        assert_eq!(owner(74), 2);
        assert_eq!(owner(75), 3);
        assert_eq!(owner(99), 3);
    }

    #[test]
    fn run_rejects_unusable_shard_bounds() {
        let cost = LinearCost::generic();
        let bad: [&[u64]; 5] = [
            &[60, 30],     // descending
            &[30, 30],     // not strictly ascending
            &[0, 50],      // 0 is not interior
            &[50, 100],    // the total is not interior
            &[20, 40, 60], // four shards, three nodes
        ];
        let sim =
            || ClusterSim::build(&cluster_scenario(Scenario::One, false), &Default::default());
        let inner = || Box::new(FixedBlockPolicy { block: 10 }) as Box<dyn Policy>;
        for bounds in bad {
            let mut runner = SimNodeRunner::new(
                &cost,
                Vec::new(),
                vec![sim(), sim(), sim()],
                vec![inner(), inner(), inner()],
                Weights::uniform(),
            );
            let err = ClusterEngine::new(&mut runner)
                .with_shard_bounds(bounds.to_vec())
                .run(&mut FixedBlockPolicy { block: 10 }, 100)
                .unwrap_err();
            assert!(
                matches!(&err, RunError::Infrastructure { detail } if detail.starts_with("shard bounds: ")),
                "{bounds:?}: {err}"
            );
        }
    }

    /// A per-row cost model over a vector of row weights that records
    /// every range it is asked about. The count-based methods ask about
    /// the head of the table, so a caller that dropped the offset shows
    /// up in the record.
    struct RowCost {
        rows: Vec<u64>,
        asked: Mutex<Vec<(u64, u64)>>,
    }

    impl RowCost {
        fn weight(&self, offset: u64, items: u64) -> f64 {
            self.asked.lock().push((offset, items));
            let rows = &self.rows[offset as usize..(offset + items) as usize];
            rows.iter().sum::<u64>() as f64
        }
    }

    impl CostModel for RowCost {
        fn name(&self) -> &str {
            "rows"
        }
        fn flops(&self, items: u64) -> f64 {
            self.flops_range(0, items)
        }
        fn bytes_in(&self, items: u64) -> f64 {
            self.bytes_in_range(0, items)
        }
        fn bytes_out(&self, items: u64) -> f64 {
            self.bytes_out_range(0, items)
        }
        fn flops_range(&self, offset: u64, items: u64) -> f64 {
            2e4 * self.weight(offset, items)
        }
        fn bytes_in_range(&self, offset: u64, items: u64) -> f64 {
            12.0 * self.weight(offset, items)
        }
        fn bytes_out_range(&self, offset: u64, items: u64) -> f64 {
            self.weight(offset, items)
        }
    }

    /// One chunk `off..off + len` on a one-node runner built over
    /// `rows`; returns the outcome and the ranges the cost model saw.
    fn run_one_chunk(rows: Vec<u64>, off: u64, len: u64) -> (ChunkOutcome, Vec<(u64, u64)>) {
        let weights = Arc::new(Weights::per_item(rows.iter().copied()));
        let cost = RowCost {
            rows,
            asked: Mutex::new(Vec::new()),
        };
        let opts = ClusterOptions {
            seed: 5,
            ..Default::default()
        };
        let sim = ClusterSim::build(&cluster_scenario(Scenario::Two, false), &opts);
        let policy: Box<dyn Policy> = Box::new(FixedBlockPolicy { block: 700 });
        let out = SimNodeRunner::new(&cost, Vec::new(), vec![sim], vec![policy], weights)
            .run_chunk(0, off, len)
            .unwrap();
        let asked = std::mem::take(&mut *cost.asked.lock());
        (out, asked)
    }

    #[test]
    fn nested_chunk_is_translation_invariant() {
        // Seeded row weights in 1..=64 (xorshift64).
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let rows: Vec<u64> = (0..6_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1 + x % 64
            })
            .collect();
        let (off, len) = (2_500u64, 3_000u64);
        // The oracle slices the *inputs*: the same rows as a whole item
        // space of their own, on an identically seeded node.
        let sliced = rows[off as usize..(off + len) as usize].to_vec();
        let (at_zero, _) = run_one_chunk(sliced, 0, len);
        let (global, asked) = run_one_chunk(rows, off, len);
        assert_eq!(global.makespan_s.to_bits(), at_zero.makespan_s.to_bits());
        assert_eq!(global.bytes_in, at_zero.bytes_in);
        assert!(global.makespan_s > 0.0 && global.bytes_in > 0);
        assert!(!asked.is_empty());
        for (o, n) in asked {
            assert!(
                o >= off && o + n <= off + len,
                "cost model asked about {o}..{} outside the chunk",
                o + n
            );
        }
    }
}
