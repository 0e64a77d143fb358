//! Synchronization-primitive shim: the single place `plb-runtime` is
//! allowed to name `std::sync` (enforced by `cargo xtask lint`, pass
//! `sync-shim`).
//!
//! Normally the module re-exports the standard library's primitives;
//! under `--cfg loom` it re-exports [loom](https://docs.rs/loom)'s
//! modeled twins so the one protocol threads race for,
//! [`crate::protocol::AttemptSlot`], can be exhaustively model-checked.
//! Its `atomic` re-export is named only in [`crate::protocol`] (the same
//! lint pass): state only the driver thread touches is plain data. The loom crate is *not* a manifest
//! dependency — the loom CI job (and a local run, see
//! `docs/SOUNDNESS.md`) adds it with `cargo add loom --dev` before
//! building with `RUSTFLAGS="--cfg loom"`, which keeps the default
//! build graph identical to the seed.
//!
//! API notes:
//!
//! * [`Mutex`]'s `lock()` returns the guard directly, under both
//!   configurations: an adapter over the poisoning `lock()` of
//!   `std::sync::Mutex` (resp. loom's) enters a poisoned lock anyway.
//!   Nothing the runtime guards can be left half-updated by a panicking
//!   holder — kernels run under `catch_unwind`, outside every lock.
//! * `Arc` and `mpsc` are re-exported from `std` in **both**
//!   configurations: the modeled protocols never rely on `Arc`'s
//!   reference counting for ordering (loom's `Arc` exists to catch leaks
//!   and count-based races, which none of the models exercise), and
//!   `std::sync::Arc` supports unsized coercion (`Arc<dyn Codelet>`)
//!   which loom's wrapper cannot provide on stable Rust; the host
//!   backend's channels are likewise outside every model.

#[cfg(not(loom))]
mod imp {
    pub use std::sync::atomic;
    pub use std::sync::MutexGuard;
    pub use std::sync::{mpsc, Arc};
    pub use std::thread;

    /// `std::sync::Mutex` with a `lock()` that returns the guard.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Create the mutex.
        pub fn new(value: T) -> Mutex<T> {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Lock, returning the guard directly; a lock poisoned by a
        /// panicking holder is entered anyway.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            match self.0.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }
}

#[cfg(loom)]
mod imp {
    pub use loom::sync::atomic;
    pub use std::sync::{mpsc, Arc};

    /// `loom::thread`, plus a `sleep` that yields to the model (loom
    /// explores interleavings, not wall-clock time).
    pub mod thread {
        pub use loom::thread::*;

        /// In a loom model, sleeping is just another scheduling point.
        pub fn sleep(_dur: std::time::Duration) {
            loom::thread::yield_now();
        }
    }

    /// The same guard-returning adapter, over `loom::sync::Mutex`.
    pub struct Mutex<T>(loom::sync::Mutex<T>);

    /// Guard type matching the adapter.
    pub type MutexGuard<'a, T> = loom::sync::MutexGuard<'a, T>;

    impl<T> Mutex<T> {
        /// Create the mutex.
        pub fn new(value: T) -> Mutex<T> {
            Mutex(loom::sync::Mutex::new(value))
        }

        /// Lock, returning the guard directly (loom models have no
        /// panicking threads, so poisoning is unreachable; a poisoned
        /// lock falls through to the inner guard).
        pub fn lock(&self) -> MutexGuard<'_, T> {
            match self.0.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Mutex<T> {
            Mutex::new(T::default())
        }
    }

    impl<T> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Mutex").finish_non_exhaustive()
        }
    }
}

pub use imp::{atomic, mpsc, thread, Arc, Mutex, MutexGuard};
