//! The one decision two threads race for, as an explicit, loom-checkable
//! state machine.
//!
//! The engine is StarPU-style: one driver thread makes every
//! scheduling decision, and the host engine's worker threads only run
//! kernels and report back. Everything the driver alone reads and
//! writes — a unit's availability, the work pool's item count and its
//! closed flag — is plain data in `core`. What crosses to a worker is
//! the block's assignment, the codelet behind an `Arc`, and the sender
//! of the completion channel; of those, only the attempt's claim word
//! is written on both sides, so it alone is atomic. [`AttemptSlot`]
//! gives it a name, a single atomic word, and exhaustive loom models
//! (`crates/runtime/tests/loom_models.rs`, built under `--cfg loom` —
//! see `docs/SOUNDNESS.md` for how to run them). [`crate::host`] uses
//! the type directly, so the code the models verify is the code the
//! engine runs.
//!
//! * [`AttemptSlot`] — result-arrival vs. watchdog-deadline: exactly
//!   one of {completed, failed, timed-out} is claimed per started
//!   attempt, no matter how the worker and the watchdog interleave; and
//!   a block queued behind a running one is either started by its
//!   worker or revoked by the driver, never both.
//!
//! `cargo xtask lint` (pass `sync-shim`) keeps atomics out of every
//! other module of the crate and requires a loom model for every type
//! declared here.

use crate::sync::atomic::{AtomicU8, Ordering};

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
}
