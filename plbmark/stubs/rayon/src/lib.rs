//! Offline stand-in for `rayon` 1.
//!
//! Covers what the PLB-HeC library crates call: a sized
//! [`ThreadPool`] with `install`, and `(lo..hi).into_par_iter()
//! .for_each(f)` over integer ranges. A pool owns no threads of its
//! own: `install` runs the closure on the calling thread and records
//! the pool's width, and a parallel `for_each` inside it splits its
//! range over that many scoped threads (none when the width is 1), all
//! joined before `for_each` returns.

use std::cell::Cell;
use std::fmt;
use std::ops::Range;

thread_local! {
    /// Width of the pool whose `install` is running on this thread.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

fn current_width() -> usize {
    match WIDTH.with(Cell::get) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// Number of threads a parallel iterator started here would use.
pub fn current_num_threads() -> usize {
    current_width()
}

/// Error building a pool. The stand-in never fails to build one.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool could not be built")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default width (all cores).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Set the pool's width; 0 means all cores.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.threads = n;
        self
    }

    /// Accepted for source compatibility; scoped threads are unnamed.
    pub fn thread_name<F>(self, _name: F) -> ThreadPoolBuilder
    where
        F: FnMut(usize) -> String + 'static,
    {
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// A pool of a fixed width.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's width in force for parallel iterators.
    pub fn install<R, F: FnOnce() -> R>(&self, op: F) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                WIDTH.with(|w| w.set(self.0));
            }
        }
        let _restore = Restore(WIDTH.with(|w| w.replace(self.threads)));
        op()
    }

    /// The pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Parallel iteration over an integer range.
pub mod iter {
    use super::*;

    /// Conversion into a parallel iterator.
    pub trait IntoParallelIterator {
        /// The parallel iterator type.
        type Iter;
        /// Convert.
        fn into_par_iter(self) -> Self::Iter;
    }

    /// A range split over the current pool's width.
    pub struct ParRange<T>(pub(crate) Range<T>);

    macro_rules! par_range {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for Range<$t> {
                type Iter = ParRange<$t>;
                fn into_par_iter(self) -> ParRange<$t> {
                    ParRange(self)
                }
            }

            impl ParRange<$t> {
                /// Call `f` once per element, on up to the pool's width
                /// of threads; returns when every call has returned.
                pub fn for_each<F: Fn($t) + Sync>(self, f: F) {
                    let Range { start, end } = self.0;
                    if start >= end {
                        return;
                    }
                    let len = (end - start) as u128;
                    let parts = (current_width() as u128).min(len).max(1);
                    if parts == 1 {
                        (start..end).for_each(f);
                        return;
                    }
                    let cut = |k: u128| start + (len * k / parts) as $t;
                    let f = &f;
                    std::thread::scope(|scope| {
                        for k in 1..parts {
                            scope.spawn(move || (cut(k)..cut(k + 1)).for_each(f));
                        }
                        (cut(0)..cut(1)).for_each(f);
                    });
                }
            }
        )*};
    }
    par_range!(u32, u64, usize, i32, i64);
}

/// The usual glob import.
pub mod prelude {
    pub use crate::iter::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn for_each_visits_every_element_once_at_any_width() {
        for width in [1, 2, 3, 7] {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let sum = AtomicU64::new(0);
            let count = AtomicU64::new(0);
            pool.install(|| {
                (10u64..1010).into_par_iter().for_each(|i| {
                    sum.fetch_add(i, Ordering::Relaxed);
                    count.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(count.load(Ordering::Relaxed), 1000);
            assert_eq!(sum.load(Ordering::Relaxed), (10..1010).sum::<u64>());
        }
    }
}
