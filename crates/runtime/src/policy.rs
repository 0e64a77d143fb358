//! The scheduling-policy plug-in interface.
//!
//! Mirrors the surface StarPU exposes to custom schedulers: a callback
//! when the application starts and one per completed task, plus a context
//! for inspecting units and pushing new work. All four algorithms of the
//! paper (PLB-HeC, Greedy, Acosta, HDSS) are implemented against this
//! trait in the `plb-hec` crate, and run unchanged on both the
//! discrete-event and the real-thread engines.

use crate::events::EventKind;
use crate::task::{TaskFailure, TaskInfo};
use plb_hetsim::{PuId, PuKind};

/// Static view of one processing unit given to policies.
#[derive(Debug, Clone)]
pub struct PuHandle {
    /// Unit id (index into the engine's unit list).
    pub id: PuId,
    /// Display name, e.g. `"B/gpu0"`.
    pub name: String,
    /// CPU or GPU.
    pub kind: PuKind,
    /// Machine index the unit belongs to.
    pub machine: usize,
    /// Whether the unit is currently accepting work.
    pub available: bool,
}

/// The context through which a policy observes and drives the run.
pub trait SchedulerCtx {
    /// Current time in seconds (virtual for the simulator, wall-clock
    /// for the host engine).
    fn now(&self) -> f64;

    /// All processing units (including failed ones, flagged
    /// unavailable).
    fn pus(&self) -> &[PuHandle];

    /// Items not yet assigned to any unit.
    fn remaining_items(&self) -> u64;

    /// Total items of the application.
    fn total_items(&self) -> u64;

    /// Cost units not yet assigned to any unit ([`crate::Weights`]).
    /// Defaults to the item count — correct for uniform weights, and
    /// what contexts without a weights table (tests, minimal
    /// embeddings) fall back to.
    fn remaining_cost(&self) -> u64 {
        self.remaining_items()
    }

    /// Total workload weight in cost units. Defaults to the item count
    /// (uniform weights).
    fn total_cost(&self) -> u64 {
        self.total_items()
    }

    /// Assign a block worth up to `budget` *cost units* to `pu`. The
    /// engine converts the budget to a contiguous item range via the
    /// workload's [`crate::Weights`] (under uniform weights the budget
    /// IS an item count, exactly the pre-weights behavior), clamps to
    /// the remaining work, and returns the *cost* actually claimed.
    /// Under uniform weights the returned cost equals the assigned item
    /// count.
    ///
    /// A unit on a wall clock (the host engine) holds one block running
    /// and accepts one more queued behind it, which its executor starts
    /// the moment the first ends, and so does a node of the cluster
    /// tier, whose queued chunk crosses the link meanwhile; a simulated
    /// device holds one. So `assign` returns 0 — and policies must
    /// tolerate that — when `budget` is 0, nothing remains, the unit is
    /// unavailable (failed, quarantined, lost or not yet joined), its
    /// executor is gone, or the unit is full: a block running on a
    /// simulated device, a block running and one queued on the others.
    /// A policy that never assigns to a unit for which
    /// [`is_busy`](Self::is_busy) holds keeps one block per unit on
    /// every engine.
    fn assign(&mut self, pu: PuId, budget: u64) -> u64;

    /// Like [`assign`](Self::assign), but only claims work lying inside
    /// the item range `[lo, hi)` — the shard-scoped claim used by the
    /// cluster tier's diffusion policy (a node prefers its home shard
    /// before pulling from neighbours). Returns 0 when no unclaimed
    /// work overlaps the range. Contexts without shard structure
    /// default to an unrestricted assign, which keeps single-node
    /// policies oblivious to sharding.
    fn assign_within(&mut self, pu: PuId, budget: u64, lo: u64, hi: u64) -> u64 {
        let _ = (lo, hi);
        self.assign(pu, budget)
    }

    /// Is an attempt in flight on `pu`? A block queued behind it does
    /// not change the answer.
    fn is_busy(&self, pu: PuId) -> bool;

    /// Is an attempt in flight on any unit?
    fn any_busy(&self) -> bool;

    /// Charge scheduler computation time (curve fitting, the
    /// block-size solve) to the run. The paper's reported execution
    /// times "include the time spent calculating the size of the task
    /// sizes ... using the interior point method"; on the simulator this
    /// delays subsequent assignments by `seconds` of virtual time, and on
    /// the host engine the time has already passed for real, so it is a
    /// no-op there.
    fn charge_overhead(&mut self, seconds: f64);

    /// Record a structured decision-level event at the current time,
    /// attributed to `pu` when one is involved. Policies use this to
    /// surface their internal decisions (probe issued, curve fit, solve,
    /// rebalance) in the run's event stream — see
    /// [`crate::events`]. The default discards the event, so contexts
    /// without a sink (tests, minimal embeddings) need no extra code.
    fn emit_event(&mut self, _pu: Option<usize>, _kind: EventKind) {}

    /// Tell the engine what the policy's performance model predicts for
    /// `pu`: seconds of wall time per *cost unit* (per item under
    /// uniform weights). The host engine multiplies this by a task's
    /// block cost (and the configured safety factor) to derive the
    /// watchdog deadline `k × E_p(x)`. Non-finite or non-positive hints
    /// clear a previous hint. The default ignores the hint — the
    /// simulator needs no watchdog, and the host engine falls back to
    /// its own observed per-cost-unit rate until a hint arrives.
    fn set_deadline_hint(&mut self, _pu: PuId, _seconds_per_cost_unit: f64) {}
}

/// A scheduling policy. Implementations live in the `plb-hec` crate; the
/// runtime ships only the interface plus trivial policies for tests.
pub trait Policy: Send {
    /// Short name used in reports ("plb-hec", "greedy", ...).
    fn name(&self) -> &str;

    /// Called once before any task runs. The policy makes its initial
    /// assignments here.
    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx);

    /// Called after every task completion with full timing information.
    /// The policy typically assigns the next block here.
    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo);

    /// Called when a unit fails. Items of its in-flight task have been
    /// re-credited to the remaining pool before this call, and nobody
    /// but the policy will assign them: the default does nothing, which
    /// is enough only while some other unit still has a completion to
    /// come on which the policy assigns again. If the survivors have
    /// already drained the rest of the pool, a policy that assigns only
    /// on completions leaves the re-credited items unassigned and the
    /// run ends `RunError::Stalled` with them as the remainder.
    fn on_device_lost(&mut self, _ctx: &mut dyn SchedulerCtx, _pu: PuId) {}

    /// Called when a previously quarantined unit re-enters the active
    /// set (the host engine's probation window elapsed, or a simulator
    /// `Restore` perturbation fired). The unit's handle is available
    /// again before this call.
    ///
    /// The default assigns no work — which is correct for policies that
    /// reassign on every completion, but silently strands the unit for
    /// model-driven policies. To make that visible in traces, the
    /// default emits a `device_restored_ignored` debug event whenever
    /// the policy carries state (implements [`Policy::snapshot`]) yet
    /// left this handler unimplemented: stateful policies are exactly
    /// the ones for which "do nothing" is usually a bug.
    fn on_device_restored(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        if self.snapshot().is_some() {
            ctx.emit_event(Some(pu.0), EventKind::DeviceRestoredIgnored);
        }
    }

    /// Called when a never-before-seen unit is admitted mid-run from
    /// the fault plan's join schedule (`docs/FAULT_TOLERANCE.md`,
    /// "Elastic capacity"). The unit's handle is available before this
    /// call, but the policy has no profile or model for it yet. The
    /// default treats a join like a restore — policies that pump work
    /// to any idle unit pick the newcomer up automatically, and
    /// stateful policies that ignore restores get the same
    /// `device_restored_ignored` breadcrumb.
    fn on_device_joined(&mut self, ctx: &mut dyn SchedulerCtx, pu: PuId) {
        self.on_device_restored(ctx, pu);
    }

    /// Called when a task attempt failed *and its items returned to the
    /// shared pool* — i.e. after in-place retries were exhausted or the
    /// unit was quarantined, not on every retried attempt. The items
    /// have been re-credited before this call, so policies that push
    /// work on completion can hand the block to a survivor here. The
    /// default does nothing, and the engines assign nothing on their
    /// own: re-credited items wait in the pool for the policy's next
    /// `assign`, from this hook or from a later completion. With no
    /// task left in flight and nothing assigned here, the run ends
    /// `RunError::Stalled` (see [`Policy::on_device_lost`]).
    fn on_task_failed(&mut self, _ctx: &mut dyn SchedulerCtx, _failure: &TaskFailure) {}

    /// The per-unit fraction of data the policy would currently assign
    /// in one round — the quantity plotted in the paper's Fig. 6. `None`
    /// for policies without an explicit distribution (greedy).
    fn block_distribution(&self) -> Option<Vec<f64>> {
        None
    }

    /// Serialize the policy's accumulated learning (for PLB-HeC: the
    /// per-unit performance profiles and fitted models) into an opaque
    /// value persisted in run checkpoints. `None` — the default — means
    /// the policy has nothing worth carrying across a crash; a resumed
    /// run then starts the policy fresh on the remaining items. See
    /// `docs/FAULT_TOLERANCE.md`.
    fn snapshot(&self) -> Option<serde_json::Value> {
        None
    }

    /// Restore state produced by [`Policy::snapshot`] before
    /// [`Policy::on_start`] runs on a resumed run. Returns `true` when
    /// the state was understood and adopted (PLB-HeC then re-fits and
    /// re-solves instead of re-probing); `false` — the default — falls
    /// back to a fresh start.
    fn restore(&mut self, _state: &serde_json::Value) -> bool {
        false
    }
}

/// A trivial policy for runtime tests: single fixed-size blocks handed
/// to whichever unit just became idle, seeded round-robin at start.
///
/// It keeps one block per unit on either clock: it assigns once to each
/// unit at start, and afterwards only to the unit whose block just
/// finished, which then has nothing else in flight or queued — so the
/// host engine runs it exactly as the simulator does, and it never
/// takes a block ahead.
pub struct FixedBlockPolicy {
    /// Block size in items.
    pub block: u64,
}

impl Policy for FixedBlockPolicy {
    fn name(&self) -> &str {
        "fixed-block"
    }

    fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
        let ids: Vec<PuId> = ctx
            .pus()
            .iter()
            .filter(|p| p.available)
            .map(|p| p.id)
            .collect();
        for id in ids {
            if ctx.remaining_items() == 0 {
                break;
            }
            ctx.assign(id, self.block);
        }
    }

    fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, done: &TaskInfo) {
        if ctx.remaining_items() > 0 {
            ctx.assign(done.pu, self.block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_block_policy_name() {
        let p = FixedBlockPolicy { block: 8 };
        assert_eq!(p.name(), "fixed-block");
        assert!(p.block_distribution().is_none());
    }

    /// A context that only records emitted events.
    struct EventProbe {
        emitted: Vec<EventKind>,
    }

    impl SchedulerCtx for EventProbe {
        fn now(&self) -> f64 {
            0.0
        }
        fn pus(&self) -> &[PuHandle] {
            &[]
        }
        fn remaining_items(&self) -> u64 {
            0
        }
        fn total_items(&self) -> u64 {
            0
        }
        fn assign(&mut self, _pu: PuId, _items: u64) -> u64 {
            0
        }
        fn is_busy(&self, _pu: PuId) -> bool {
            false
        }
        fn any_busy(&self) -> bool {
            false
        }
        fn charge_overhead(&mut self, _seconds: f64) {}
        fn emit_event(&mut self, _pu: Option<usize>, kind: EventKind) {
            self.emitted.push(kind);
        }
    }

    struct StatefulNoopPolicy;

    impl Policy for StatefulNoopPolicy {
        fn name(&self) -> &str {
            "stateful-noop"
        }
        fn on_start(&mut self, _ctx: &mut dyn SchedulerCtx) {}
        fn on_task_finished(&mut self, _ctx: &mut dyn SchedulerCtx, _done: &TaskInfo) {}
        fn snapshot(&self) -> Option<serde_json::Value> {
            Some(serde_json::Value::Null)
        }
    }

    #[test]
    fn unhandled_restore_on_stateful_policy_leaves_a_breadcrumb() {
        let mut ctx = EventProbe { emitted: vec![] };
        // A stateless policy ignoring a restore is normal operation:
        // no breadcrumb.
        let mut plain = FixedBlockPolicy { block: 8 };
        plain.on_device_restored(&mut ctx, PuId(0));
        assert!(ctx.emitted.is_empty());
        // A snapshot-carrying policy that never overrode the handler is
        // almost certainly stranding the unit: the default makes that
        // visible.
        let mut stateful = StatefulNoopPolicy;
        stateful.on_device_restored(&mut ctx, PuId(0));
        assert_eq!(ctx.emitted, vec![EventKind::DeviceRestoredIgnored]);
        // Joins delegate to the same default.
        stateful.on_device_joined(&mut ctx, PuId(1));
        assert_eq!(ctx.emitted.len(), 2);
    }
}
