//! Codelets: StarPU's unit of application code.
//!
//! A StarPU codelet bundles per-architecture implementations of one
//! computation. On this workspace's host backend there is no physical
//! GPU, so heterogeneity comes from the *resources* a processing unit is
//! granted (its worker-thread count): a "big" unit runs the same kernel
//! over more cores. The kernel receives the item range it must process
//! and the resources of the unit executing it.

use plb_hetsim::PuKind;
use std::ops::Range;

/// Resources of the processing unit executing a codelet.
#[derive(Debug, Clone)]
pub struct PuResources {
    /// CPU threads granted to this unit.
    pub threads: usize,
    /// What the unit models (CPU or GPU).
    pub kind: PuKind,
}

impl PuResources {
    /// Call `f` once on each of up to `threads` contiguous, disjoint
    /// sub-ranges that together cover `range`, concurrently, and return
    /// when every call has. The split is static — equal shares, no work
    /// stealing — and `threads == 1` (or a one-item range) runs `f` on
    /// the calling thread without spawning; an empty range calls
    /// nothing. A panic in any sub-range is re-raised here once the
    /// others have finished, so it reaches the worker's codelet guard
    /// like a panic in a serial kernel does.
    pub fn for_each_chunk(&self, range: Range<u64>, f: impl Fn(Range<u64>) + Sync) {
        let len = range.end.saturating_sub(range.start);
        let parts = (self.threads as u64).min(len);
        if parts <= 1 {
            if len > 0 {
                f(range);
            }
            return;
        }
        let cut =
            |k: u64| range.start + (u128::from(len) * u128::from(k) / u128::from(parts)) as u64;
        let f = &f;
        std::thread::scope(|scope| {
            for k in 1..parts {
                scope.spawn(move || f(cut(k)..cut(k + 1)));
            }
            f(cut(0)..cut(1));
        });
    }
}

/// A data-parallel computation over a contiguous item range.
///
/// Implementations must be thread-safe: different units execute disjoint
/// ranges concurrently.
pub trait Codelet: Send + Sync {
    /// Codelet name for traces.
    fn name(&self) -> &str;

    /// Process `range` of the application's items using up to
    /// `res.threads` threads ([`PuResources::for_each_chunk`] splits a
    /// range over them). Called on the unit's worker thread.
    fn execute(&self, range: Range<u64>, res: &PuResources);
}

/// A codelet built from a closure (tests, small examples).
pub struct FnCodelet<F: Fn(Range<u64>, &PuResources) + Send + Sync> {
    name: String,
    f: F,
}

impl<F: Fn(Range<u64>, &PuResources) + Send + Sync> FnCodelet<F> {
    /// Wrap a closure as a codelet.
    pub fn new(name: &str, f: F) -> Self {
        FnCodelet {
            name: name.to_string(),
            f,
        }
    }
}

impl<F: Fn(Range<u64>, &PuResources) + Send + Sync> Codelet for FnCodelet<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&self, range: Range<u64>, res: &PuResources) {
        (self.f)(range, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fn_codelet_executes() {
        static COUNT: AtomicU64 = AtomicU64::new(0);
        let c = FnCodelet::new("count", |r, _| {
            COUNT.fetch_add(r.end - r.start, Ordering::Relaxed);
        });
        assert_eq!(c.name(), "count");
        c.execute(
            0..10,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        c.execute(
            10..15,
            &PuResources {
                threads: 2,
                kind: PuKind::Gpu,
            },
        );
        assert_eq!(COUNT.load(Ordering::Relaxed), 15);
    }

    /// How often `for_each_chunk` handed out each index of `0..len`,
    /// and the chunks it called `f` on.
    fn visits(threads: usize, range: Range<u64>, len: usize) -> (Vec<u64>, Vec<Range<u64>>) {
        let seen: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        let chunks = crate::sync::Mutex::new(Vec::new());
        let res = PuResources {
            threads,
            kind: PuKind::Cpu,
        };
        res.for_each_chunk(range, |sub| {
            for i in sub.clone() {
                seen[i as usize].fetch_add(1, Ordering::Relaxed);
            }
            chunks.lock().push(sub);
        });
        let mut chunks = chunks.lock().clone();
        chunks.sort_by_key(|c| c.start);
        let seen = seen.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (seen, chunks)
    }

    #[test]
    fn for_each_chunk_visits_every_index_once_at_any_width() {
        for threads in [1, 2, 3, 7] {
            let (seen, chunks) = visits(threads, 10..1_010, 1_020);
            assert!(seen[..10].iter().chain(&seen[1_010..]).all(|&n| n == 0));
            assert!(seen[10..1_010].iter().all(|&n| n == 1), "width {threads}");
            // `threads` contiguous chunks, sizes within one of each other.
            assert_eq!(chunks.len(), threads);
            assert_eq!(chunks[0].start, 10);
            assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
            let sizes: Vec<u64> = chunks.iter().map(|c| c.end - c.start).collect();
            let (min, max) = (sizes.iter().min(), sizes.iter().max());
            assert!(max.zip(min).is_some_and(|(max, min)| max - min <= 1));
        }
    }

    #[test]
    fn for_each_chunk_on_an_empty_range_calls_nothing() {
        for threads in [1, 3] {
            assert_eq!(visits(threads, 5..5, 10), (vec![0; 10], vec![]));
        }
    }

    #[test]
    fn for_each_chunk_on_a_range_shorter_than_the_width_has_no_empty_chunk() {
        let (seen, chunks) = visits(7, 2..5, 6);
        assert_eq!(seen, [0, 0, 1, 1, 1, 0]);
        assert_eq!(chunks, [2..3, 3..4, 4..5]);
    }

    #[test]
    fn for_each_chunk_reraises_a_chunk_panic_after_the_others_finish() {
        let done = AtomicU64::new(0);
        let res = PuResources {
            threads: 3,
            kind: PuKind::Cpu,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            res.for_each_chunk(0..30, |sub| {
                if sub.start == 10 {
                    panic!("chunk {sub:?} failed");
                }
                done.fetch_add(sub.end - sub.start, Ordering::Relaxed);
            });
        }));
        assert!(outcome.is_err(), "the scope re-raises on join");
        assert_eq!(done.load(Ordering::Relaxed), 20, "siblings ran to the end");
    }
}
