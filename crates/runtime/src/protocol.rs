//! The host engine's concurrency protocols as explicit, loom-checkable
//! state machines.
//!
//! The host path is genuinely concurrent: worker threads race
//! the engine's watchdog, quarantined units race in-flight retries, and
//! probation restores race run completion. Each of those decisions is
//! a tiny linearizable state machine; this module gives each one a
//! name, a single atomic word, and an exhaustive loom model
//! (`crates/runtime/tests/loom_models.rs`, built under `--cfg loom` —
//! see `docs/SOUNDNESS.md` for how to run it). [`crate::host`] uses
//! these types directly, so the code the models verify is the code the
//! engine runs.
//!
//! * [`AttemptSlot`] — result-arrival vs. watchdog-deadline: exactly
//!   one of {completed, failed, timed-out} is claimed per started
//!   attempt, no matter how the worker and the watchdog interleave; and
//!   a block queued behind a running one is either started by its
//!   worker or revoked by the driver, never both.
//! * [`UnitGate`] — quarantine vs. in-flight retry vs. permanent loss:
//!   the per-unit availability lattice `Active → Quarantined → Active`
//!   with an absorbing `Lost` state a restore can never resurrect.
//! * [`CompletionLatch`] — probation-restore/reclaim vs. run
//!   completion: the undistributed-item pool with a closed bit packed
//!   into the same word, so "the run is over" and "a failed block
//!   re-credits its items" can never both win.

use crate::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Terminal outcome of one dispatched attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The worker finished the kernel and claimed the result.
    Completed,
    /// The worker caught a kernel panic and claimed the failure.
    Failed,
    /// The engine's watchdog claimed the attempt after its deadline.
    TimedOut,
    /// The driver wrote the unit off while the block still sat queued,
    /// and its worker never started it.
    Revoked,
}

const ATTEMPT_INFLIGHT: u8 = 0;
const ATTEMPT_COMPLETED: u8 = 1;
const ATTEMPT_FAILED: u8 = 2;
const ATTEMPT_TIMEDOUT: u8 = 3;
const ATTEMPT_QUEUED: u8 = 4;
const ATTEMPT_REVOKED: u8 = 5;

/// One dispatched attempt's claim word: the worker thread (completion
/// or caught panic) and the engine's watchdog (deadline blowout) race
/// to move it out of `InFlight`, and exactly one transition wins.
///
/// The loser drops its side entirely: a worker whose claim fails sends
/// nothing (the block was already re-dispatched elsewhere), a watchdog
/// whose claim fails leaves the unit alone (the result beat the
/// deadline and is already in the channel).
///
/// The host engine hands every block to its worker `Queued`: it may
/// wait in the channel behind the block the worker runs. The worker
/// must win `try_start` (`Queued → InFlight`) before it executes the
/// block; the driver, writing the unit off, revokes what is still
/// queued (`Queued → Revoked`), because a message already in a channel
/// outlives the channel's sender. The watchdog's `try_timeout` wins
/// from `Queued` as well as from `InFlight`.
///
/// Ordering: claims use `AcqRel` on success so the winner's claim
/// *happens-before* any engine-side read that observes it, and
/// `Acquire` on failure so the loser sees the winner's transition. The
/// uniqueness of the claim needs only atomicity, but the stronger
/// ordering makes the slot safe to hang payloads off in the future and
/// costs nothing on x86.
#[derive(Debug)]
pub struct AttemptSlot {
    state: AtomicU8,
}

impl Default for AttemptSlot {
    fn default() -> Self {
        AttemptSlot::new()
    }
}

impl AttemptSlot {
    /// A fresh in-flight attempt.
    pub fn new() -> AttemptSlot {
        AttemptSlot {
            state: AtomicU8::new(ATTEMPT_INFLIGHT),
        }
    }

    /// A fresh attempt its worker has not started yet.
    pub fn queued() -> AttemptSlot {
        AttemptSlot {
            state: AtomicU8::new(ATTEMPT_QUEUED),
        }
    }

    fn transition(&self, from: u8, to: u8) -> bool {
        self.state
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Worker side: start a queued attempt. `false` means the driver
    /// revoked it or the watchdog claimed it first, and the block must
    /// not run.
    pub fn try_start(&self) -> bool {
        self.transition(ATTEMPT_QUEUED, ATTEMPT_INFLIGHT)
    }

    /// Driver side: take back an attempt its worker has not started.
    /// `false` means the worker started it (its report will be stale)
    /// or it already ended.
    pub fn try_revoke(&self) -> bool {
        self.transition(ATTEMPT_QUEUED, ATTEMPT_REVOKED)
    }

    /// Worker side: claim successful completion. `false` means the
    /// watchdog (or a caught panic) already claimed the attempt and the
    /// result must be discarded.
    pub fn try_complete(&self) -> bool {
        self.transition(ATTEMPT_INFLIGHT, ATTEMPT_COMPLETED)
    }

    /// Worker side: claim a caught kernel panic. `false` means the
    /// watchdog already claimed the attempt.
    pub fn try_fail(&self) -> bool {
        self.transition(ATTEMPT_INFLIGHT, ATTEMPT_FAILED)
    }

    /// Watchdog side: claim a blown deadline, whether or not the worker
    /// has started the attempt. `false` means the worker delivered an
    /// outcome first and the unit must not be declared lost for this
    /// attempt.
    pub fn try_timeout(&self) -> bool {
        let mut cur = self.state.load(Ordering::Acquire);
        while cur == ATTEMPT_QUEUED || cur == ATTEMPT_INFLIGHT {
            match self.state.compare_exchange(
                cur,
                ATTEMPT_TIMEDOUT,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// The claimed outcome, if any thread has claimed one yet.
    pub fn outcome(&self) -> Option<AttemptOutcome> {
        match self.state.load(Ordering::Acquire) {
            ATTEMPT_COMPLETED => Some(AttemptOutcome::Completed),
            ATTEMPT_FAILED => Some(AttemptOutcome::Failed),
            ATTEMPT_TIMEDOUT => Some(AttemptOutcome::TimedOut),
            ATTEMPT_REVOKED => Some(AttemptOutcome::Revoked),
            _ => None,
        }
    }
}

const GATE_ACTIVE: u8 = 0;
const GATE_QUARANTINED: u8 = 1;
const GATE_LOST: u8 = 2;

/// Per-unit availability lattice: `Active ⇄ Quarantined`, with `Lost`
/// absorbing. A probation restore (`try_restore`) can only undo a
/// quarantine — once a unit is lost (dead or wedged worker) no
/// interleaving of restores brings it back, which is exactly the
/// invariant the probation-vs-loss loom model checks.
///
/// Ordering: all transitions are `AcqRel`/`Acquire` compare-exchanges;
/// the gate guards dispatch decisions made *after* observing it, so
/// acquire loads keep those decisions from floating above the
/// transition.
#[derive(Debug)]
pub struct UnitGate {
    state: AtomicU8,
}

impl Default for UnitGate {
    fn default() -> Self {
        UnitGate::new()
    }
}

impl UnitGate {
    /// A fresh, active unit.
    pub fn new() -> UnitGate {
        UnitGate {
            state: AtomicU8::new(GATE_ACTIVE),
        }
    }

    /// Quarantine an active unit. `false` when the unit is already
    /// quarantined or permanently lost.
    pub fn try_quarantine(&self) -> bool {
        self.state
            .compare_exchange(
                GATE_ACTIVE,
                GATE_QUARANTINED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// End a probation window: restore a quarantined unit. `false`
    /// when the unit is not quarantined — in particular when it was
    /// lost after the quarantine, which must win over the restore.
    pub fn try_restore(&self) -> bool {
        self.state
            .compare_exchange(
                GATE_QUARANTINED,
                GATE_ACTIVE,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Permanently remove the unit (dead or wedged worker). Returns
    /// `true` exactly once — the caller that wins performs the
    /// teardown (events, policy notification); later calls are no-ops.
    pub fn mark_lost(&self) -> bool {
        self.state.swap(GATE_LOST, Ordering::AcqRel) != GATE_LOST
    }

    /// Is the unit currently dispatchable?
    pub fn is_active(&self) -> bool {
        self.state.load(Ordering::Acquire) == GATE_ACTIVE
    }

    /// Has the unit been permanently lost?
    pub fn is_lost(&self) -> bool {
        self.state.load(Ordering::Acquire) == GATE_LOST
    }
}

/// High bit of the latch word: the run has completed distribution.
const LATCH_CLOSED: u64 = 1 << 63;

/// The undistributed-item pool with run-completion folded into the
/// same atomic word, so `take`, `recredit` (failed-block re-credit)
/// and `try_close` (run completion) are mutually linearizable: either
/// a re-credit lands before the close observes an empty pool (and the
/// close fails), or the close wins (and the re-credit reports `false`
/// so the caller knows the items were not returned).
///
/// The packed representation is the point: a separate `closed` flag
/// plus a counter admits the interleaving where a re-credit slips in
/// between "counter is zero" and "set closed", silently resurrecting a
/// completed run. One compare-exchange word cannot.
///
/// Item counts are bounded by the application's `total_items`, far
/// below 2⁶³, so the closed bit can never be reached by credit
/// arithmetic (debug-asserted in [`CompletionLatch::recredit`]).
#[derive(Debug)]
pub struct CompletionLatch {
    word: AtomicU64,
}

impl CompletionLatch {
    /// A latch holding `total` undistributed items.
    pub fn new(total: u64) -> CompletionLatch {
        debug_assert!(total < LATCH_CLOSED, "item count overflows the latch");
        CompletionLatch {
            word: AtomicU64::new(total),
        }
    }

    /// Items not yet distributed (0 after a close).
    pub fn remaining(&self) -> u64 {
        self.word.load(Ordering::Acquire) & !LATCH_CLOSED
    }

    /// Has the run been closed out?
    pub fn is_closed(&self) -> bool {
        self.word.load(Ordering::Acquire) & LATCH_CLOSED != 0
    }

    /// Debit up to `want` items for a dispatch. Returns the number
    /// actually taken: less when the pool is low, 0 when it is empty
    /// or the run already closed.
    pub fn take(&self, want: u64) -> u64 {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            if cur & LATCH_CLOSED != 0 {
                return 0;
            }
            let got = want.min(cur);
            if got == 0 {
                return 0;
            }
            match self.word.compare_exchange_weak(
                cur,
                cur - got,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return got,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return a failed block's items to the pool. `false` when the run
    /// already closed — the caller must treat the items as
    /// undeliverable instead of assuming they will be re-dispatched.
    pub fn recredit(&self, items: u64) -> bool {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            if cur & LATCH_CLOSED != 0 {
                return false;
            }
            let next = cur + items;
            debug_assert!(next < LATCH_CLOSED, "re-credit overflows the latch");
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Close the run. Succeeds only when the pool is empty and no one
    /// closed it before; a concurrent `recredit` that lands first makes
    /// this fail, and a close that lands first makes the re-credit
    /// fail. Exactly one of the two racers wins.
    pub fn try_close(&self) -> bool {
        self.word
            .compare_exchange(0, LATCH_CLOSED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

// The unit tests cover the sequential contract; the interleaving
// guarantees are checked by the loom models in
// `crates/runtime/tests/loom_models.rs`.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_slot_first_claim_wins() {
        let s = AttemptSlot::new();
        assert_eq!(s.outcome(), None);
        assert!(s.try_complete());
        assert!(!s.try_timeout());
        assert!(!s.try_fail());
        assert_eq!(s.outcome(), Some(AttemptOutcome::Completed));

        let s = AttemptSlot::new();
        assert!(s.try_timeout());
        assert!(!s.try_complete());
        assert_eq!(s.outcome(), Some(AttemptOutcome::TimedOut));

        let s = AttemptSlot::new();
        assert!(s.try_fail());
        assert!(!s.try_fail());
        assert_eq!(s.outcome(), Some(AttemptOutcome::Failed));
    }

    #[test]
    fn queued_slot_starts_or_is_revoked() {
        let s = AttemptSlot::queued();
        assert!(!s.try_complete(), "a queued block has not run");
        assert!(s.try_start());
        assert!(!s.try_start(), "a block starts once");
        assert!(!s.try_revoke(), "a started block cannot be revoked");
        assert_eq!(s.outcome(), None);
        assert!(s.try_complete());

        let s = AttemptSlot::queued();
        assert!(s.try_revoke());
        assert!(!s.try_start(), "a revoked block never runs");
        assert!(!s.try_timeout());
        assert_eq!(s.outcome(), Some(AttemptOutcome::Revoked));

        let s = AttemptSlot::queued();
        assert!(s.try_timeout(), "the watchdog wins from queued");
        assert!(!s.try_start());
        assert_eq!(s.outcome(), Some(AttemptOutcome::TimedOut));
    }

    #[test]
    fn unit_gate_lattice() {
        let g = UnitGate::new();
        assert!(g.is_active());
        assert!(!g.try_restore(), "restore needs a quarantine first");
        assert!(g.try_quarantine());
        assert!(!g.is_active());
        assert!(!g.try_quarantine(), "double quarantine rejected");
        assert!(g.try_restore());
        assert!(g.is_active());
    }

    #[test]
    fn unit_gate_lost_is_absorbing() {
        let g = UnitGate::new();
        assert!(g.try_quarantine());
        assert!(g.mark_lost(), "first loss reports true");
        assert!(!g.mark_lost(), "second loss is a no-op");
        assert!(!g.try_restore(), "a lost unit never restores");
        assert!(!g.try_quarantine());
        assert!(g.is_lost());
        assert!(!g.is_active());
    }

    #[test]
    fn latch_take_and_recredit() {
        let l = CompletionLatch::new(10);
        assert_eq!(l.remaining(), 10);
        assert_eq!(l.take(4), 4);
        assert_eq!(l.take(100), 6, "take clamps to the pool");
        assert_eq!(l.take(1), 0);
        assert!(l.recredit(3));
        assert_eq!(l.remaining(), 3);
        assert!(!l.is_closed());
    }

    #[test]
    fn latch_close_requires_empty_pool() {
        let l = CompletionLatch::new(2);
        assert!(!l.try_close(), "items still undistributed");
        assert_eq!(l.take(2), 2);
        assert!(l.try_close());
        assert!(l.is_closed());
        assert!(!l.try_close(), "single close");
        assert!(!l.recredit(1), "re-credit after close is refused");
        assert_eq!(l.remaining(), 0);
        assert_eq!(l.take(1), 0);
    }
}
