//! Exhaustive loom models of the one protocol the host engine's threads
//! race for (`plb_runtime::protocol::AttemptSlot`).
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
//! re-exports loom's modeled primitives, so the `AttemptSlot` exercised
//! here is built on the same atomics the production engine uses — loom
//! explores every interleaving of
//!
//! * result-arrival vs. watchdog-deadline, for a completion and for a
//!   caught panic,
//! * a queued block's start vs. its revoke, and vs. the watchdog.
//!
//! A unit's availability and the work pool are not modeled: only the
//! driver thread touches them, so their sequential tests (the
//! transition table in `core` and the pool's unit tests) cover them.
#![cfg(loom)]

use loom::thread;
use plb_runtime::protocol::{AttemptOutcome, AttemptSlot};
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
