//! Exhaustive loom models of the host engine's concurrency protocols
//! (`plb_runtime::protocol`).
//!
//! This target only builds under `--cfg loom`, and `loom` itself is not
//! a manifest dependency (the container image and default builds stay
//! loom-free). To run the models:
//!
//! ```sh
//! cargo add loom@0.7 --dev -p plb-runtime
//! RUSTFLAGS="--cfg loom" cargo test -p plb-runtime --release --test loom_models
//! git checkout crates/runtime/Cargo.toml Cargo.lock   # drop the dep again
//! ```
//!
//! The CI `loom` job does exactly this (see `.github/workflows/ci.yml`
//! and `docs/SOUNDNESS.md`). Under `--cfg loom` the runtime's sync shim
//! re-exports loom's modeled primitives, so the `AttemptSlot`,
//! `UnitGate`, and `CompletionLatch` exercised here are built on the
//! same atomics the production engine uses — loom explores every
//! interleaving of the host engine's racy protocols:
//!
//! * result-arrival vs. watchdog-deadline (`AttemptSlot`),
//! * a queued block's start vs. its revoke and vs. the watchdog
//!   (`AttemptSlot`),
//! * quarantine / probation-restore vs. permanent loss (`UnitGate`),
//! * failed-block re-credit vs. run completion (`CompletionLatch`).
#![cfg(loom)]

use loom::thread;
use plb_runtime::protocol::{AttemptOutcome, AttemptSlot, CompletionLatch, UnitGate};
use plb_runtime::sync::Arc;

/// Result-arrival vs. watchdog-deadline: a completing worker and the
/// engine's watchdog race for the attempt's claim word; exactly one
/// wins, and the recorded outcome matches the winner.
#[test]
fn attempt_claim_has_exactly_one_winner() {
    loom::model(|| {
        let slot = Arc::new(AttemptSlot::new());
        let s2 = Arc::clone(&slot);
        let worker = thread::spawn(move || s2.try_complete());
        let watchdog_won = slot.try_timeout();
        let worker_won = worker.join().expect("worker thread");
        assert_ne!(worker_won, watchdog_won, "claims must be exclusive");
        let expect = if worker_won {
            AttemptOutcome::Completed
        } else {
            AttemptOutcome::TimedOut
        };
        assert_eq!(slot.outcome(), Some(expect));
    });
}

/// Same race, with the worker reporting a caught kernel panic instead
/// of a completion.
#[test]
fn failed_attempt_claim_has_exactly_one_winner() {
    loom::model(|| {
        let slot = Arc::new(AttemptSlot::new());
        let s2 = Arc::clone(&slot);
        let worker = thread::spawn(move || s2.try_fail());
        let watchdog_won = slot.try_timeout();
        let worker_won = worker.join().expect("worker thread");
        assert_ne!(worker_won, watchdog_won, "claims must be exclusive");
        let expect = if worker_won {
            AttemptOutcome::Failed
        } else {
            AttemptOutcome::TimedOut
        };
        assert_eq!(slot.outcome(), Some(expect));
    });
}

/// A queued block's start vs. its revoke: the worker picking the block
/// up and the driver writing its unit off race for the queued claim
/// word; exactly one wins, so a revoked block never runs.
#[test]
fn queued_block_starts_or_is_revoked_never_both() {
    loom::model(|| {
        let slot = Arc::new(AttemptSlot::queued());
        let s2 = Arc::clone(&slot);
        let worker = thread::spawn(move || s2.try_start());
        let revoked = slot.try_revoke();
        let started = worker.join().expect("worker thread");
        assert_ne!(started, revoked, "exactly one side wins");
        let expect = (!started).then_some(AttemptOutcome::Revoked);
        assert_eq!(slot.outcome(), expect);
    });
}

/// A queued block's start vs. the watchdog: the deadline may blow
/// before the worker picks the block up or while it runs. Either way
/// exactly one of the worker's report and the timeout claims the
/// attempt — a worker that lost the start never runs the block.
#[test]
fn queued_block_races_the_watchdog_with_one_winner() {
    loom::model(|| {
        let slot = Arc::new(AttemptSlot::queued());
        let s2 = Arc::clone(&slot);
        let worker = thread::spawn(move || {
            let started = s2.try_start();
            (started, started && s2.try_complete())
        });
        let timed_out = slot.try_timeout();
        let (started, reported) = worker.join().expect("worker thread");
        assert_ne!(reported, timed_out, "exactly one outcome is claimed");
        assert!(started || timed_out, "only the watchdog stops a start");
        let expect = if reported {
            AttemptOutcome::Completed
        } else {
            AttemptOutcome::TimedOut
        };
        assert_eq!(slot.outcome(), Some(expect));
    });
}

/// A queued block lost with its unit: the driver re-credits it whether
/// its revoke wins or the worker already started it (whose report is
/// then stale and dropped), so it is re-credited exactly once; and a
/// run completion racing that re-credit either sees the items back or
/// closes first and refuses them — never both, never neither.
#[test]
fn lost_queued_block_is_recredited_exactly_once() {
    loom::model(|| {
        let latch = Arc::new(CompletionLatch::new(2));
        assert_eq!(latch.take(2), 2);
        let slot = Arc::new(AttemptSlot::queued());
        let (s2, l2) = (Arc::clone(&slot), Arc::clone(&latch));
        let worker = thread::spawn(move || s2.try_start() && s2.try_complete());
        let closer = thread::spawn(move || l2.try_close());
        let revoked = slot.try_revoke();
        let recredited = latch.recredit(2);
        let stale_report = worker.join().expect("worker thread");
        let closed = closer.join().expect("closer thread");
        assert_ne!(revoked, stale_report, "revoked, or started and stale");
        assert_ne!(recredited, closed, "exactly one racer wins");
        if recredited {
            assert!(!latch.is_closed());
            assert_eq!(latch.remaining(), 2, "re-credited once, in full");
        } else {
            assert!(latch.is_closed());
            assert_eq!(latch.remaining(), 0);
        }
    });
}

/// Probation-restore vs. permanent loss: whatever the interleaving, a
/// unit marked lost ends lost — a restore can win the race only by
/// linearizing *before* the loss, never by resurrecting it after.
#[test]
fn lost_unit_is_never_resurrected_by_probation() {
    loom::model(|| {
        let gate = Arc::new(UnitGate::new());
        assert!(gate.try_quarantine());
        let g2 = Arc::clone(&gate);
        let loser = thread::spawn(move || g2.mark_lost());
        let restored = gate.try_restore();
        let newly_lost = loser.join().expect("loss thread");
        assert!(newly_lost, "first mark_lost always reports the transition");
        assert!(gate.is_lost(), "loss is absorbing");
        assert!(!gate.is_active());
        // If the restore won, it strictly preceded the loss; it can
        // never observe success while the gate reads Lost.
        let _ = restored;
    });
}

/// Quarantine (worker-failure path) vs. loss (watchdog path) racing on
/// a healthy unit: loss absorbs either way, and the newly-lost edge is
/// reported exactly once.
#[test]
fn quarantine_and_loss_race_resolves_to_loss() {
    loom::model(|| {
        let gate = Arc::new(UnitGate::new());
        let g2 = Arc::clone(&gate);
        let q = thread::spawn(move || g2.try_quarantine());
        let newly_lost = gate.mark_lost();
        let _quarantined = q.join().expect("quarantine thread");
        assert!(newly_lost);
        assert!(gate.is_lost());
        assert!(!gate.try_restore(), "no path back from lost");
    });
}

/// Failed-block re-credit vs. run completion: with the pool drained and
/// one block's fate undecided, a reclaiming watchdog and a closing
/// engine cannot both win — either the re-credit lands (close fails,
/// run continues) or the close lands (re-credit refused).
#[test]
fn recredit_and_close_cannot_both_win() {
    loom::model(|| {
        let latch = Arc::new(CompletionLatch::new(1));
        assert_eq!(latch.take(1), 1);
        let l2 = Arc::clone(&latch);
        let reclaimer = thread::spawn(move || l2.recredit(1));
        let closed = latch.try_close();
        let recredited = reclaimer.join().expect("reclaim thread");
        assert_ne!(closed, recredited, "exactly one racer wins");
        if closed {
            assert!(latch.is_closed());
            assert_eq!(latch.remaining(), 0);
        } else {
            assert!(!latch.is_closed());
            assert_eq!(latch.remaining(), 1);
        }
    });
}

/// Item conservation under concurrent take and re-credit: no
/// interleaving loses or double-counts items.
#[test]
fn concurrent_take_and_recredit_conserve_items() {
    loom::model(|| {
        let latch = Arc::new(CompletionLatch::new(4));
        let l2 = Arc::clone(&latch);
        let taker = thread::spawn(move || l2.take(3));
        let recredited = latch.recredit(2);
        let took = taker.join().expect("taker thread");
        assert!(recredited, "run is open: re-credit always lands");
        assert_eq!(took, 3, "pool never drops below the request here");
        assert_eq!(latch.remaining(), 4 + 2 - took);
    });
}

/// Composition of the two protocols on the full timeout path: the last
/// in-flight block either completes (worker wins the slot, the run
/// closes) or blows its deadline (watchdog wins, the items are
/// re-credited) — never both, never neither.
#[test]
fn timeout_reclaim_never_races_run_completion() {
    loom::model(|| {
        let latch = Arc::new(CompletionLatch::new(2));
        assert_eq!(latch.take(2), 2);
        let slot = Arc::new(AttemptSlot::new());
        let (s2, l2) = (Arc::clone(&slot), Arc::clone(&latch));
        let worker = thread::spawn(move || {
            // Engine-side handling of a delivered completion: the run
            // drains and closes.
            if s2.try_complete() {
                l2.try_close()
            } else {
                false
            }
        });
        // Watchdog side: deadline blown — reclaim the block's items.
        let reclaimed = if slot.try_timeout() {
            latch.recredit(2)
        } else {
            false
        };
        let closed = worker.join().expect("worker thread");
        assert_ne!(closed, reclaimed, "exactly one side of the race acts");
        if closed {
            assert!(latch.is_closed());
            assert_eq!(latch.remaining(), 0);
        } else {
            assert!(!latch.is_closed());
            assert_eq!(latch.remaining(), 2, "lost block fully re-credited");
        }
    });
}
