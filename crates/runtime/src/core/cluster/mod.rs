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
//! A node holds one chunk queued behind the one it computes
//! ([`Backend::holds_one_ahead`]): the queued chunk's payload crosses
//! the link meanwhile, and only the part of the transfer that outlasts
//! the compute ahead is charged to the node (`task_finish.xfer_s`;
//! `migration_sent.xfer_s` keeps the full link time). A node's
//! outcomes surface in launch order.
//!
//! The tier emits the cluster events (`node_quarantined`,
//! `migration_sent`, `migration_retried`, `cover_recredited`; the
//! diffusion policy adds `node_joined`) and stamps the node roster into
//! the checkpoint's workload identity so a mid-partition run only
//! resumes under the same cluster shape. See `docs/FAULT_TOLERANCE.md`, "Node
//! fault domains".

use super::backend::{Backend, ClockKind, EventQueue, Launch, LaunchSpec, Polled};
use super::{drive, RunConfig, WorkPool};
use crate::engine::{Engine, RunError, SimEngine};
use crate::events::{EventKind, EventSink};
use crate::fault::FaultAction;
use crate::metrics::RunReport;
use crate::policy::{Policy, PuHandle};
use crate::sync::Arc;
use crate::task::{FailureReason, TaskId};
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

/// Backend-side record of a chunk a node holds.
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
    /// The chunk whose outcome surfaces next.
    inflight: Option<InflightChunk>,
    /// The chunk queued behind it, whose payload crosses the link while
    /// the one ahead computes. `Some` only while `inflight` is.
    queued: Option<InflightChunk>,
    /// When the last outcome scheduled on the node surfaces: the end of
    /// the last scheduled compute, or a failed delivery. No chunk
    /// launched later computes or fails before it, so outcomes surface
    /// in launch order. A node cut off by a partition keeps computing
    /// what it held, so it stays busy until then after the heal too.
    free_at: f64,
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
            queued: None,
            free_at: 0.0,
            last_failed: None,
        }
    }

    /// Chunks the node holds: 0, 1 or 2.
    fn held(&self) -> u64 {
        u64::from(self.inflight.is_some()) + u64::from(self.queued.is_some())
    }

    /// Take on `chunk`, whose outcome surfaces at `outcome_at`: it runs
    /// next, or queues behind the chunk ahead.
    fn hold(&mut self, chunk: InflightChunk, outcome_at: f64) {
        self.free_at = outcome_at;
        if self.inflight.is_none() {
            self.inflight = Some(chunk);
        } else {
            debug_assert!(self.queued.is_none(), "a third chunk on a node");
            self.queued = Some(chunk);
        }
    }

    /// Is `task`, scheduled in `epoch`, the chunk whose outcome is due?
    fn is_next(&self, epoch: u64, task: TaskId) -> bool {
        self.epoch == epoch && self.inflight.as_ref().is_some_and(|f| f.task == task)
    }

    /// The outcome of the chunk ahead surfaced: the one queued behind
    /// it is next.
    fn pop_next(&mut self) -> Option<InflightChunk> {
        let done = self.inflight.take();
        self.inflight = self.queued.take();
        done
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
    /// may dispatch between the fatal completion and that pop. A node
    /// whose held chunk is its last is doomed too: a chunk queued
    /// behind it would run its nested engine at launch and then again
    /// on a survivor. Refusing such launches keeps crashes
    /// exactly-once — no chunk is ever executed on a node past its
    /// crash point.
    fn crash_doomed(&self, pu: usize) -> bool {
        self.node_faults.crash_after(pu).is_some_and(|after| {
            (self.nodes.get(pu)).is_some_and(|n| n.chunks_done + n.held() >= after)
        })
    }
}

impl Backend for ClusterBackend<'_> {
    fn clock_kind(&self) -> ClockKind {
        ClockKind::Virtual
    }

    fn holds_one_ahead(&self) -> bool {
        true
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
        let chunk = InflightChunk {
            task: spec.task,
            items: spec.items,
            cost,
        };
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
                // The payload is on the link over [arrival, arrival +
                // xfer_s]. A chunk queued behind another occupies the
                // node from when the one ahead ends and computes once
                // its payload is in too: only the part of the transfer
                // that outlasts the compute ahead is charged to it.
                let start = arrival.max(st.free_at);
                let computes = (arrival + xfer_s).max(st.free_at);
                let finish = computes + proc_s;
                st.hold(chunk, finish);
                st.last_failed = None;
                let epoch = st.epoch;
                self.queue.push(
                    finish,
                    Payload::ChunkDone {
                        node: pu,
                        epoch,
                        task: spec.task,
                        start,
                        xfer_s: computes - start,
                        proc_s,
                        doomed,
                    },
                );
                Launch::Started { start: Some(start) }
            }
            (None, Some(t_fail)) => {
                let Some(st) = self.nodes.get_mut(pu) else {
                    return Launch::UnitGone;
                };
                // Outcomes surface in launch order, or the driver would
                // drop this one as stale.
                let at = t_fail.max(st.free_at);
                st.hold(chunk, at);
                let epoch = st.epoch;
                self.queue.push(
                    at,
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
                    if !st.is_next(epoch, task) {
                        continue;
                    }
                    st.pop_next();
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
                    if !st.is_next(epoch, task) {
                        continue;
                    }
                    st.last_failed = st.pop_next().map(|f| (f.items, f.cost));
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
                    let held = [st.inflight.take(), st.queued.take()];
                    events.record(
                        self.queue.now(),
                        Some(node),
                        EventKind::NodeQuarantined {
                            reason: reason.name().to_string(),
                        },
                    );
                    for f in held.into_iter().flatten() {
                        // The unfinished ranges fold back into the pool
                        // (the core reclaims them on `UnitDown`).
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

    /// The core quarantines a node on a failed attempt, whose outcome
    /// has already left the node (or while it replays a snapshot, when
    /// the node holds nothing). A chunk that was queued behind the
    /// failed one is the core's attempt in flight now and keeps
    /// running, so its outcome still surfaces; the note reports the
    /// failed delivery's range as re-credited.
    fn on_unit_quarantined(&mut self, pu: usize) {
        let Some(st) = self.nodes.get_mut(pu) else {
            return;
        };
        let (items, cost) = st.last_failed.take().unwrap_or((0, 0));
        self.pending_notes.push((pu, items, cost));
    }

    fn forget_unit(&mut self, pu: usize) {
        if let Some(st) = self.nodes.get_mut(pu) {
            st.alive = false;
            st.epoch += 1;
            st.inflight = None;
            st.queued = None;
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

/// The node machine: a [`NodeRunner`] with its node fault domains,
/// migration tunables and home-shard boundaries.
pub struct NodeMachine<'r> {
    runner: &'r mut dyn NodeRunner,
    node_faults: NodeFaultPlan,
    migration: MigrationConfig,
    shard_bounds: Option<Vec<u64>>,
}

/// The cluster engine: [`Engine`] over a [`NodeRunner`], with node
/// fault domains and inter-node migration. It delegates to the same
/// scheduling core as the single-node engines, one tier up: faults
/// apply per node, snapshots carry the node roster, and weights make
/// the home shards equal-cost.
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
pub type ClusterEngine<'r> = Engine<NodeMachine<'r>>;

impl<'r> ClusterEngine<'r> {
    /// Create an engine over a node runner.
    pub fn new(runner: &'r mut dyn NodeRunner) -> ClusterEngine<'r> {
        Engine::over(NodeMachine {
            runner,
            node_faults: NodeFaultPlan::none(),
            migration: MigrationConfig::default(),
            shard_bounds: None,
        })
    }

    /// Inject node-level faults: crashes, partitions, lossy links. See
    /// [`NodeFaultPlan`].
    pub fn with_node_faults(mut self, plan: NodeFaultPlan) -> ClusterEngine<'r> {
        self.machine.node_faults = plan;
        self
    }

    /// Override the migration tunables (link, payload size, delivery
    /// deadline and retries).
    pub fn with_migration(mut self, m: MigrationConfig) -> ClusterEngine<'r> {
        self.machine.migration = m;
        self
    }

    /// Override the home-shard boundaries: interior bounds, strictly
    /// ascending inside `(0, total_items)`, at most one fewer than
    /// there are nodes (`run` rejects anything else). Defaults to
    /// [`equal_cost_shards`] over the run's weights.
    pub fn with_shard_bounds(mut self, bounds: Vec<u64>) -> ClusterEngine<'r> {
        self.machine.shard_bounds = Some(bounds);
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
        let node = &mut self.machine;
        let n = node.runner.node_count();
        if n == 0 {
            return Err(RunError::NoUnits);
        }
        if let Err(e) = node.node_faults.validate(n) {
            return Err(RunError::Infrastructure {
                detail: format!("node fault plan: {e}"),
            });
        }
        let names: Vec<String> = (0..n).map(|i| node.runner.node_name(i)).collect();
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
        let shard_bounds = match &node.shard_bounds {
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
            runner: &mut *node.runner,
            nodes: (0..n).map(|_| NodeState::fresh()).collect(),
            shard_bounds,
            node_faults: node.node_faults.clone(),
            migration: node.migration.clone(),
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
        self.keep(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedBlockPolicy, SchedulerCtx};
    use crate::sync::Mutex;
    use crate::task::{TaskFailure, TaskInfo};
    use crate::trace::Trace;
    use plb_hetsim::cluster::ClusterOptions;
    use plb_hetsim::workload::LinearCost;
    use plb_hetsim::{cluster_scenario, NodeFault, NodeFaultKind, Scenario};

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

    /// Every chunk computes for `per_item_s` seconds per item; the
    /// chunks run are recorded.
    struct Timed {
        per_item_s: f64,
        runs: Vec<(usize, u64, u64)>,
    }

    impl NodeRunner for Timed {
        fn node_count(&self) -> usize {
            2
        }
        fn node_name(&self, node: usize) -> String {
            format!("n{node}")
        }
        fn run_chunk(
            &mut self,
            node: usize,
            offset: u64,
            items: u64,
        ) -> Result<ChunkOutcome, String> {
            self.runs.push((node, offset, items));
            Ok(ChunkOutcome {
                makespan_s: items as f64 * self.per_item_s,
                bytes_in: 0,
            })
        }
    }

    /// At start node 1 takes a chunk of its home shard (`2000..`) and
    /// queues a migrated one from node 0's behind it; node 0 takes a
    /// home chunk. Afterwards, whenever anything happens, every idle
    /// available node takes the next `BLOCK` items.
    struct Script;

    const BLOCK: u64 = 500;

    impl Script {
        fn refill(ctx: &mut dyn SchedulerCtx) {
            for i in 0..ctx.pus().len() {
                if ctx.pus()[i].available && !ctx.is_busy(PuId(i)) {
                    ctx.assign(PuId(i), BLOCK);
                }
            }
        }
    }

    impl Policy for Script {
        fn name(&self) -> &str {
            "script"
        }
        fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
            assert_eq!(ctx.assign_within(PuId(1), BLOCK, 2_000, 4_000), BLOCK);
            assert_eq!(ctx.assign_within(PuId(1), BLOCK, 0, 2_000), BLOCK);
            assert_eq!(
                ctx.assign_within(PuId(1), BLOCK, 0, 2_000),
                0,
                "node 1 is full"
            );
            assert_eq!(ctx.assign_within(PuId(0), BLOCK, 0, 2_000), BLOCK);
        }
        fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, _done: &TaskInfo) {
            Script::refill(ctx);
        }
        fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, _pu: PuId) {
            Script::refill(ctx);
        }
        fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, _failure: &TaskFailure) {
            Script::refill(ctx);
        }
        fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, _pu: PuId) {
            Script::refill(ctx);
        }
    }

    /// [`Script`] over 4 000 items on two [`Timed`] nodes, node 1 cut
    /// off from `cut` seconds (if any) to 20 ms.
    fn scripted(per_item_s: f64, cut: Option<f64>) -> (RunReport, EventSink, Trace, Timed) {
        let mut runner = Timed {
            per_item_s,
            runs: Vec::new(),
        };
        let faults = cut.map_or_else(NodeFaultPlan::none, |from_s| {
            NodeFaultPlan::new(vec![NodeFault {
                node: 1,
                kind: NodeFaultKind::Partition { from_s, to_s: 0.02 },
            }])
        });
        let mut engine = ClusterEngine::new(&mut runner).with_node_faults(faults);
        let report = engine.run(&mut Script, 4_000).expect("run completes");
        assert_eq!(report.cover, vec![(0, 4_000)]);
        assert_eq!(report.pus.iter().map(|p| p.items).sum::<u64>(), 4_000);
        let events = engine.last_events().cloned().expect("events");
        let trace = engine.last_trace().cloned().expect("trace");
        (report, events, trace, runner)
    }

    /// Node 1's migrated chunk (task 1) queues behind its home chunk
    /// (task 0), sent at 0 s.
    fn migrated_payload_s(events: &EventSink) -> f64 {
        let sent = events.iter().find_map(|e| match e.kind {
            EventKind::MigrationSent {
                task: 1, xfer_s, ..
            } => Some(xfer_s),
            _ => None,
        });
        sent.expect("task 1 migrated")
    }

    #[test]
    fn a_queued_migration_is_charged_only_the_transfer_that_outlasts_the_chunk_ahead() {
        // Node 1's home chunk computes 5 ms, then 0.5 ms: the payload
        // (1 ms of latency plus 32 kB) is hidden, then mostly exposed.
        for (per_item_s, hidden) in [(1e-5, true), (1e-6, false)] {
            let (_, events, trace, _) = scripted(per_item_s, None);
            let x = migrated_payload_s(&events);
            let finish = |task: u64| {
                let e = events
                    .iter()
                    .find(|e| matches!(e.kind, EventKind::TaskFinish { task: t, .. } if t == task));
                e.map(|e| (e.t, e.kind.clone())).expect("finished")
            };
            let (free_at, _) = finish(0);
            assert_eq!(free_at, 500.0 * per_item_s);
            let (_, done) = finish(1);
            let EventKind::TaskFinish { xfer_s, .. } = done else {
                unreachable!()
            };
            let expected = (0.0 + x - free_at).max(0.0);
            assert!((xfer_s - expected).abs() < 1e-15, "{xfer_s} vs {expected}");
            assert_eq!(xfer_s == 0.0, hidden, "{xfer_s}");
            // The queued chunk starts on the node when the one ahead ends.
            let start = events.iter().find(|e| {
                e.kind
                    == EventKind::TaskStart {
                        task: 1,
                        items: BLOCK,
                    }
            });
            assert_eq!(start.map(|e| e.t), Some(free_at));
            // No two segments on a node overlap.
            for pu in 0..2 {
                let mut on_pu: Vec<_> = trace.segments().iter().filter(|s| s.pu == pu).collect();
                on_pu.sort_by(|a, b| a.start.total_cmp(&b.start));
                for w in on_pu.windows(2) {
                    assert!(
                        w[0].end <= w[1].start + 1e-12,
                        "{:?} overlaps {:?}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    /// The ranges re-credited on node 1, in the order reported.
    fn recredited(events: &EventSink) -> Vec<u64> {
        let on_node_1 = events.iter().filter(|e| e.pu == Some(1));
        on_node_1
            .filter_map(|e| match e.kind {
                EventKind::CoverRecredited { items, .. } => Some(items),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_partition_during_a_queued_transfer_recredits_the_queued_chunk() {
        // The cut opens 0.5 ms into the migrated payload's 1 ms on the
        // link, while the home chunk ahead computes.
        let (_, events, _, runner) = scripted(1e-5, Some(5e-4));
        assert!(migrated_payload_s(&events) > 5e-4);
        assert_eq!(recredited(&events), [BLOCK, BLOCK]);
        // The queued chunk ran at its launch and once more elsewhere:
        // the re-credit pays for the repeat.
        let runs_of_0 = runner.runs.iter().filter(|r| r.1 == 0).count();
        assert_eq!(runs_of_0, 2, "{:?}", runner.runs);
        assert_eq!(runner.runs.first(), Some(&(1, 2_000, BLOCK)));
    }

    #[test]
    fn a_node_lost_holding_two_chunks_recredits_both() {
        // The cut opens at 3 ms: the migrated payload is in, queued
        // behind the home chunk that computes until 5 ms.
        let (_, events, _, _) = scripted(1e-5, Some(3e-3));
        let on_node_1: Vec<_> = events.iter().filter(|e| e.pu == Some(1)).collect();
        let cut = (on_node_1.iter())
            .position(|e| e.kind.name() == "node_quarantined")
            .expect("the cut quarantines node 1");
        let lost = &on_node_1[cut..cut + 6];
        // Stamped at the queued chunk's start, 5 ms, the node's latest
        // stamp when the cut opens: a unit's stamps never decrease.
        assert!(lost.iter().all(|e| e.t == BLOCK as f64 * 1e-5), "{lost:?}");
        let names: Vec<&str> = lost.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            [
                "node_quarantined",
                "cover_recredited",
                "cover_recredited",
                "task_failed",
                "task_failed",
                "device_failed"
            ]
        );
        assert_eq!(recredited(&events), [BLOCK, BLOCK]);
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
