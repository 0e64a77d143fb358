//! The execution-backend abstraction the scheduling core drives.
//!
//! A [`Backend`] owns the *mechanics* of running attempts — launching a
//! block on a unit, surfacing the next completion or failure, telling
//! time — while the core (`crate::core`) owns every *decision*: what to
//! assign, when to retry, when to quarantine, when the run is over.
//! The simulator backend advances a virtual clock through a binary-heap
//! event queue; the host backend blocks on a channel fed by real worker
//! threads. A future distributed backend would implement the same
//! trait.

use crate::events::EventSink;
use crate::fault::FaultAction;
use crate::task::{FailureReason, TaskId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// How a backend's `now()` behaves — the one semantic difference the
/// core must condition on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClockKind {
    /// Virtual time: `now()` advances only when [`Backend::poll`]
    /// consumes an event. Deterministic; watchdog deadlines and
    /// probation timers are meaningless (nothing can be "late").
    Virtual,
    /// Wall-clock time: `now()` advances on its own. The core arms
    /// watchdog deadlines and probation timers.
    Wall,
}

/// One attempt of one block, as handed to [`Backend::launch`]. The core
/// resolves the fault plan (it owns the per-unit attempt counters) so
/// the backend just applies `inject`.
#[derive(Debug, Clone)]
pub(crate) struct LaunchSpec {
    /// Unit index the attempt runs on.
    pub(crate) pu: usize,
    /// Task identity, stable across retries of the same block.
    pub(crate) task: TaskId,
    /// First item of the block.
    pub(crate) offset: u64,
    /// Item count of the block.
    pub(crate) items: u64,
    /// 0-based attempt number (0 = first dispatch).
    pub(crate) attempt: u32,
    /// Delay before the attempt executes (retry backoff), seconds.
    pub(crate) backoff_s: f64,
    /// Injected fault for this attempt, if any.
    pub(crate) inject: Option<FaultAction>,
    /// Kernel-speed drift multiplier from the fault plan's drift
    /// schedule (1.0 = nominal). The core resolves the schedule (it owns
    /// the per-unit attempt counters); the backend applies the factor to
    /// kernel time only, never transfers. Wall-clock backends cannot
    /// speed real hardware up, so they realize factors below 1.0 as 1.0.
    pub(crate) drift: f64,
}

/// Outcome of [`Backend::launch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Launch {
    /// The attempt is in flight. `start` is its start time when the
    /// backend knows it at launch, `None` when it does not: the backend
    /// then reports the start as [`Polled::Started`] when it comes
    /// (the cluster tier) or with the completion (wall clocks).
    Started {
        /// Start time, seconds, when known at launch.
        start: Option<f64>,
    },
    /// The unit's executor is gone; the attempt was not launched. The
    /// core reclaims the block and writes the unit off.
    UnitGone,
}

/// One observation surfaced by [`Backend::poll`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Polled {
    /// An attempt finished successfully.
    Completed {
        /// Unit index.
        pu: usize,
        /// Task identity.
        task: TaskId,
        /// Start time of the successful attempt, seconds.
        start: f64,
        /// Input-transfer time, seconds (0 for backends that don't
        /// model transfers).
        xfer_s: f64,
        /// Kernel time, seconds.
        proc_s: f64,
        /// Finish time, seconds.
        finish: f64,
    },
    /// An attempt whose launch reported no start has started, now.
    Started {
        /// Unit index.
        pu: usize,
        /// Task identity.
        task: TaskId,
    },
    /// An attempt failed (kernel panic, injected or real). The core
    /// decides retry / quarantine / re-credit.
    AttemptFailed {
        /// Unit index.
        pu: usize,
        /// Task identity.
        task: TaskId,
        /// Why the attempt failed.
        reason: FailureReason,
    },
    /// A unit went down for backend-external reasons (a simulated
    /// `Fail` perturbation). The backend has already marked its own
    /// device state; the core cancels the in-flight block and notifies
    /// the policy.
    UnitDown {
        /// Unit index.
        pu: usize,
    },
    /// A previously failed unit came back (a simulated `Restore`
    /// perturbation). The backend has already restored its own device
    /// state; the core re-admits the unit and notifies the policy.
    UnitRestored {
        /// Unit index.
        pu: usize,
    },
    /// The backend consumed an event with no scheduling consequence
    /// (e.g. a slowdown perturbation); the core just re-runs its loop
    /// checks.
    Nothing,
    /// The wake deadline passed with nothing to report; the core runs
    /// its watchdog scan.
    Timeout,
    /// The backend can never produce another observation (the event
    /// queue is empty). The core reports a stall.
    Drained,
    /// The backend's own machinery failed (worker channels gone).
    Infrastructure {
        /// Human-readable cause.
        detail: String,
    },
}

/// An execution substrate the scheduling core can drive. Implementors
/// supply mechanics only; all fault-response and assignment decisions
/// stay in the core (enforced by `cargo xtask lint`'s divergence
/// guard).
pub(crate) trait Backend {
    /// The backend's clock semantics (fixed for its lifetime).
    fn clock_kind(&self) -> ClockKind;

    /// Current time, seconds (virtual or wall per [`Self::clock_kind`]).
    fn now(&self) -> f64;

    /// Does a unit hold one block queued behind the one it runs? A
    /// property of the backend (fixed for its lifetime), not a setting:
    /// a wall-clock unit does, because every dispatch there pays a round
    /// trip through the driver; a simulated device does not, because on
    /// a virtual clock a dispatch costs nothing. The cluster tier does
    /// on its virtual clock: a queued chunk's payload crosses the link
    /// while the chunk ahead of it computes.
    fn holds_one_ahead(&self) -> bool {
        self.clock_kind() == ClockKind::Wall
    }

    /// Can `pu` accept a launch right now? (A host unit whose worker
    /// channel is gone is not ready.) Availability bookkeeping is the
    /// core's; this covers backend-private state only.
    fn unit_ready(&self, _pu: usize) -> bool {
        true
    }

    /// Launch one attempt of a block on a unit.
    fn launch(&mut self, spec: &LaunchSpec) -> Launch;

    /// Surface the next observation, blocking (wall clocks) or
    /// consuming the next event (virtual clocks). `wake` is an absolute
    /// time by which the core needs control back for its watchdog or
    /// probation timers; backends without real waiting ignore it.
    /// `events` lets the backend record backend-private occurrences
    /// (e.g. slowdown perturbations) into the run's stream.
    fn poll(&mut self, wake: Option<f64>, events: &mut EventSink) -> Polled;

    /// Charge scheduler computation time to the run. Virtual clocks
    /// delay subsequent launches; wall clocks already paid it.
    fn charge_overhead(&mut self, _seconds: f64) {}

    /// Watchdog arbitration: try to claim the in-flight attempt on `pu`
    /// as timed out. `false` means the attempt's real outcome already
    /// won the race (or the backend has no such race) and the unit must
    /// be left alone.
    fn try_claim_timeout(&mut self, _pu: usize) -> bool {
        false
    }

    /// The core quarantined `pu`; mirror it in backend-private state
    /// (the simulator marks the simulated device failed).
    fn on_unit_quarantined(&mut self, _pu: usize) {}

    /// The core admitted `pu` mid-run from the fault plan's join
    /// schedule; mirror it in backend-private state (the simulator
    /// restores the simulated device that was held latent). Backends
    /// whose units are always live need nothing.
    fn on_unit_joined(&mut self, _pu: usize) {}

    /// The core wrote `pu` off permanently; drop its executor (the host
    /// backend closes the worker channel).
    fn forget_unit(&mut self, _pu: usize) {}

    /// With no work in flight, could a future [`Self::poll`] still make
    /// progress? (The simulator answers yes while completions or
    /// restore perturbations are queued.) `false` lets the core report
    /// a stall instead of waiting forever.
    fn idle_progress_possible(&self) -> bool {
        false
    }

    /// Is a backend-external restore (a pending `Restore` perturbation)
    /// still queued? Only such a restore can bring an all-dead cluster
    /// back, so the core defers its stall verdict while one is pending.
    fn external_restore_possible(&self) -> bool {
        false
    }

    /// Bytes transferred into `pu`'s memory over the run, for the
    /// report's data-movement accounting. Backends that do not count
    /// transfers report 0.
    fn bytes_into(&self, _pu: usize) -> u64 {
        0
    }
}

/// The event queue and virtual clock both simulated backends run on:
/// future events pop in `(time, push order)` order — the tie-break is
/// what makes a run's event stream deterministic — and the clock
/// follows them, along with the scheduler overhead charged so far.
pub(crate) struct EventQueue<P> {
    now: f64,
    seq: u64,
    overhead_until: f64,
    heap: BinaryHeap<Reverse<Entry<P>>>,
}

struct Entry<P> {
    time: f64,
    seq: u64,
    payload: P,
}

impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Times are always finite here; total_cmp keeps the order total
        // without a panic path.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<P> Eq for Entry<P> {}

impl<P> EventQueue<P> {
    pub(crate) fn new() -> Self {
        EventQueue {
            now: 0.0,
            seq: 0,
            overhead_until: 0.0,
            heap: BinaryHeap::new(),
        }
    }

    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `payload` to pop at `time`.
    pub(crate) fn push(&mut self, time: f64, payload: P) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Pop the earliest event and advance the clock to it.
    pub(crate) fn pop(&mut self) -> Option<P> {
        let Reverse(ev) = self.heap.pop()?;
        debug_assert!(ev.time + 1e-12 >= self.now, "time went backwards");
        self.now = ev.time.max(self.now);
        Some(ev.payload)
    }

    /// The events still queued, in no particular order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &P> {
        self.heap.iter().map(|Reverse(e)| &e.payload)
    }

    /// When an attempt launched now begins: first attempts wait out any
    /// outstanding scheduler overhead, retries wait out their backoff.
    pub(crate) fn start_of(&self, spec: &LaunchSpec) -> f64 {
        if spec.attempt == 0 {
            self.now.max(self.overhead_until)
        } else {
            self.now + spec.backoff_s
        }
    }

    pub(crate) fn charge_overhead(&mut self, seconds: f64) {
        self.overhead_until = self.overhead_until.max(self.now) + seconds;
    }
}
