//! Decorators over the library's three public plug-in traits. Each
//! forwards **every** method, the defaulted ones too, to the object it
//! wraps and records a span around the call; none changes an argument
//! or a result, so a decorated run schedules exactly as a plain one
//! (`tests::decorators_do_not_change_scheduling` holds them to that).

use crate::spans::{span_if, Shared};
use plb_hetsim::PuId;
use plb_runtime::events::EventKind;
use plb_runtime::{
    ChunkOutcome, NodeRunner, Policy, PuHandle, SchedulerCtx, TaskFailure, TaskInfo,
};
use std::path::PathBuf;

/// Copies the run's checkpoint file aside once `after_tasks` tasks have
/// finished, which is how the benchmark gets hold of a *mid-run*
/// snapshot (the engine overwrites the file with the final state).
pub struct CheckpointGrab {
    /// Task completions to wait for.
    pub after_tasks: u64,
    /// The file the engine writes.
    pub from: PathBuf,
    /// Where the copy goes.
    pub to: PathBuf,
}

/// A [`Policy`] that times each hook of the policy it wraps.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    layer: &'static str,
    rec: Shared,
    finished: u64,
    grab: Option<CheckpointGrab>,
}

impl TracedPolicy {
    /// Wrap `inner`; its hooks are recorded as `<layer>.<hook>`.
    pub fn new(inner: Box<dyn Policy>, layer: &'static str, rec: Shared) -> TracedPolicy {
        TracedPolicy {
            inner,
            layer,
            rec,
            finished: 0,
            grab: None,
        }
    }

    /// Also copy the checkpoint file aside mid-run.
    pub fn with_checkpoint_grab(mut self, grab: CheckpointGrab) -> TracedPolicy {
        self.grab = Some(grab);
        self
    }

    /// Run one hook of the wrapped policy inside a span, handing it a
    /// [`TracedCtx`] so its `assign` calls are recorded as children.
    fn hook(
        &mut self,
        op: &'static str,
        ctx: &mut dyn SchedulerCtx,
        f: impl FnOnce(&mut dyn Policy, &mut dyn SchedulerCtx),
    ) {
        let id = self.rec.open(self.layer, op);
        let mut traced = TracedCtx {
            inner: ctx,
            rec: &self.rec,
        };
        f(self.inner.as_mut(), &mut traced);
        self.rec.close(id);
    }
}

impl Policy for TracedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        self.hook("on_start", ctx, |p, c| p.on_start(c));
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        self.hook("on_task_finished", ctx, |p, c| p.on_task_finished(c, done));
        self.finished += 1;
        if self
            .grab
            .as_ref()
            .is_some_and(|g| self.finished >= g.after_tasks)
        {
            if let Some(g) = self.grab.take() {
                // A missing file only means no snapshot was due yet;
                // the checkpoint layer bench then reports nothing.
                let _ = std::fs::copy(&g.from, &g.to);
            }
        }
    }

    fn on_device_lost(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.hook("on_device_lost", ctx, |p, c| p.on_device_lost(c, pu));
    }

    fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.hook("on_device_restored", ctx, |p, c| {
            p.on_device_restored(c, pu)
        });
    }

    fn on_device_joined(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.hook("on_device_joined", ctx, |p, c| p.on_device_joined(c, pu));
    }

    fn on_task_failed(&mut self, ctx: &mut dyn SchedulerCtx, failure: &TaskFailure) {
        self.hook("on_task_failed", ctx, |p, c| p.on_task_failed(c, failure));
    }

    fn block_distribution(&self) -> Option<Vec<f64>> {
        self.inner.block_distribution()
    }

    fn snapshot(&self) -> Option<serde_json::Value> {
        self.rec
            .span(self.layer, "snapshot", || self.inner.snapshot())
    }

    fn restore(&mut self, state: &serde_json::Value) -> bool {
        let inner = &mut self.inner;
        self.rec
            .span(self.layer, "restore", || inner.restore(state))
    }
}

/// A [`SchedulerCtx`] that times the claims made through it.
pub struct TracedCtx<'c> {
    inner: &'c mut dyn SchedulerCtx,
    rec: &'c Shared,
}

impl SchedulerCtx for TracedCtx<'_> {
    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn pus(&self) -> &[PuHandle] {
        self.inner.pus()
    }

    fn remaining_items(&self) -> u64 {
        self.inner.remaining_items()
    }

    fn total_items(&self) -> u64 {
        self.inner.total_items()
    }

    fn remaining_cost(&self) -> u64 {
        self.inner.remaining_cost()
    }

    fn total_cost(&self) -> u64 {
        self.inner.total_cost()
    }

    fn assign(&mut self, pu: PuId, budget: u64) -> u64 {
        let inner = &mut self.inner;
        self.rec.span("ctx", "assign", || inner.assign(pu, budget))
    }

    fn assign_within(&mut self, pu: PuId, budget: u64, lo: u64, hi: u64) -> u64 {
        let inner = &mut self.inner;
        self.rec
            .span("ctx", "assign", || inner.assign_within(pu, budget, lo, hi))
    }

    fn is_busy(&self, pu: PuId) -> bool {
        self.inner.is_busy(pu)
    }

    fn any_busy(&self) -> bool {
        self.inner.any_busy()
    }

    fn charge_overhead(&mut self, seconds: f64) {
        self.inner.charge_overhead(seconds);
    }

    fn emit_event(&mut self, pu: Option<usize>, kind: EventKind) {
        self.inner.emit_event(pu, kind);
    }

    fn set_deadline_hint(&mut self, pu: PuId, seconds_per_cost_unit: f64) {
        self.inner.set_deadline_hint(pu, seconds_per_cost_unit);
    }
}

/// A [`NodeRunner`] that lists every chunk the runner it wraps is asked
/// to execute — the exactly-once oracle reads that list on every cluster
/// run — and, when given a recorder, times each chunk.
pub struct TracedNodeRunner<'r> {
    inner: &'r mut dyn NodeRunner,
    rec: Option<Shared>,
    /// `(offset, items)` of every chunk that executed to completion.
    pub executed: Vec<(u64, u64)>,
}

impl<'r> TracedNodeRunner<'r> {
    /// Wrap `inner`; spans are recorded when `rec` is given.
    pub fn new(inner: &'r mut dyn NodeRunner, rec: Option<Shared>) -> TracedNodeRunner<'r> {
        TracedNodeRunner {
            inner,
            rec,
            executed: Vec::new(),
        }
    }
}

impl NodeRunner for TracedNodeRunner<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn node_name(&self, node: usize) -> String {
        self.inner.node_name(node)
    }

    fn run_chunk(&mut self, node: usize, offset: u64, items: u64) -> Result<ChunkOutcome, String> {
        let inner = &mut self.inner;
        let out = span_if(self.rec.as_ref(), "node", "run_chunk", || {
            inner.run_chunk(node, offset, items)
        });
        if out.is_ok() {
            self.executed.push((offset, items));
        }
        out
    }
}
