//! [`DisjointOutput`], the audited concurrent-output buffer the app
//! kernels assemble partial results into. (Transfer-byte accounting is
//! not here: each backend counts the bytes its units pull in and
//! reports them as [`PuReport::bytes_in`](crate::PuReport::bytes_in).)
//!
//! This module is the **only** place in the workspace outside the test
//! tree where `unsafe` is permitted (enforced by `cargo xtask lint`,
//! pass `unsafe-allowlist`); every `unsafe` block below carries a
//! `SAFETY:` argument and the whole abstraction is exercised under
//! Miri in CI.

use crate::sync::{thread, Mutex};
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut, Range};

/// Why a [`DisjointOutput`] view could not be handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisjointError {
    /// The requested range intersects a currently-claimed range.
    Overlap {
        /// Requested range start.
        start: usize,
        /// Requested range end (exclusive).
        end: usize,
        /// Start of the conflicting live claim.
        held_start: usize,
        /// End (exclusive) of the conflicting live claim.
        held_end: usize,
    },
    /// The requested range does not fit inside the buffer.
    OutOfBounds {
        /// Requested range start.
        start: usize,
        /// Requested range end (exclusive).
        end: usize,
        /// Buffer length.
        len: usize,
    },
}

impl fmt::Display for DisjointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DisjointError::Overlap {
                start,
                end,
                held_start,
                held_end,
            } => write!(
                f,
                "range {start}..{end} overlaps live claim {held_start}..{held_end}"
            ),
            DisjointError::OutOfBounds { start, end, len } => {
                write!(f, "range {start}..{end} out of bounds for length {len}")
            }
        }
    }
}

impl std::error::Error for DisjointError {}

/// A shared output buffer that hands out non-overlapping `&mut [T]`
/// views keyed by task range — the safe replacement for the hand-rolled
/// `UnsafeCell` wrappers the app kernels used to carry.
///
/// A data-parallel kernel executing block `offset..offset+items` asks
/// for [`DisjointOutput::writer`] over the element range it owns and
/// writes through the returned view. Claims are tracked in a mutex so
/// overlapping views are impossible to obtain: a duplicated attempt
/// (a wedged worker racing its own re-dispatch, see `docs/
/// FAULT_TOLERANCE.md`) *serializes* on the claim instead of racing on
/// the bytes. Claims are released when the view drops — including
/// during a panic unwind, so a failed block can be re-dispatched and
/// re-claimed.
///
/// When every block has completed, [`DisjointOutput::into_vec`]
/// recovers the assembled `Vec<T>` (or [`DisjointOutput::snapshot`]
/// copies it out from behind a shared reference).
///
/// # Soundness
///
/// The buffer is stored as raw parts (`ptr`/`len`/`cap` of the original
/// `Vec<T>`), never as a `Vec` or slice, so no Rust reference to the
/// whole buffer exists while views are live. Views derive their slices
/// from the raw pointer on each access, and the claim set guarantees
/// any two live views cover disjoint index ranges — so the `&mut [T]`s
/// handed out never alias. This is checked under Miri (Stacked
/// Borrows) in CI; see `docs/SOUNDNESS.md`.
pub struct DisjointOutput<T> {
    ptr: *mut T,
    len: usize,
    cap: usize,
    /// Live claims as half-open `(start, end)` ranges. Empty requested
    /// ranges are never recorded (they alias nothing).
    claims: Mutex<Vec<(usize, usize)>>,
}

// SAFETY: moving the container moves ownership of the raw buffer; `T`
// values themselves cross threads only via the writer views, so
// `T: Send` is required and sufficient.
unsafe impl<T: Send> Send for DisjointOutput<T> {}
// SAFETY: every `&self` entry point is synchronized — claim bookkeeping
// is behind a mutex, and the only data access from `&self`
// (`snapshot`) holds that mutex while claims are provably absent. The
// `&mut [T]` views themselves are non-overlapping by construction.
unsafe impl<T: Send> Sync for DisjointOutput<T> {}

impl<T> DisjointOutput<T> {
    /// Take ownership of `v` as the output buffer.
    pub fn from_vec(v: Vec<T>) -> DisjointOutput<T> {
        let mut v = ManuallyDrop::new(v);
        DisjointOutput {
            ptr: v.as_mut_ptr(),
            len: v.len(),
            cap: v.capacity(),
            claims: Mutex::new(Vec::new()),
        }
    }

    /// A buffer of `len` copies of `init`.
    pub fn new(init: T, len: usize) -> DisjointOutput<T>
    where
        T: Clone,
    {
        DisjointOutput::from_vec(vec![init; len])
    }

    /// Buffer length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Try to claim `range` and return a mutable view of it. Fails if
    /// the range is out of bounds or intersects a live claim.
    pub fn try_writer(&self, range: Range<usize>) -> Result<DisjointWriter<'_, T>, DisjointError> {
        if range.start > range.end || range.end > self.len {
            return Err(DisjointError::OutOfBounds {
                start: range.start,
                end: range.end,
                len: self.len,
            });
        }
        let mut claims = self.claims.lock();
        if !range.is_empty() {
            if let Some(&(s, e)) = claims
                .iter()
                .find(|&&(s, e)| s < range.end && range.start < e)
            {
                return Err(DisjointError::Overlap {
                    start: range.start,
                    end: range.end,
                    held_start: s,
                    held_end: e,
                });
            }
            claims.push((range.start, range.end));
        }
        Ok(DisjointWriter {
            owner: self,
            start: range.start,
            len: range.end - range.start,
        })
    }

    /// Claim `range`, waiting (yield-spinning) for any conflicting live
    /// claim to be released first. This is what kernels call: a stale
    /// duplicated attempt serializes behind the live one instead of
    /// racing it.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds. Deadlocks if the caller
    /// itself holds a view overlapping `range` on the same thread.
    pub fn writer(&self, range: Range<usize>) -> DisjointWriter<'_, T> {
        loop {
            match self.try_writer(range.clone()) {
                Ok(w) => return w,
                Err(e @ DisjointError::OutOfBounds { .. }) => panic!("DisjointOutput: {e}"),
                Err(DisjointError::Overlap { .. }) => thread::yield_now(),
            }
        }
    }

    /// Copy the buffer out from behind a shared reference, waiting for
    /// all live claims to drop first. Holding the claim lock during the
    /// copy blocks new claims, so the snapshot observes a quiescent
    /// buffer.
    pub fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        loop {
            let claims = self.claims.lock();
            if claims.is_empty() {
                // SAFETY: ptr/len describe the initialized buffer from
                // `from_vec`; no live claims exist and the held lock
                // prevents new ones, so no `&mut` view aliases this
                // shared view during the copy.
                let s = unsafe { std::slice::from_raw_parts(self.ptr, self.len) };
                return s.to_vec();
            }
            drop(claims);
            thread::yield_now();
        }
    }

    /// Recover the assembled buffer. Consuming `self` proves (via the
    /// borrow checker — views borrow the container) that no view is
    /// live.
    pub fn into_vec(self) -> Vec<T> {
        let me = ManuallyDrop::new(self);
        // SAFETY: `me` is never dropped, so each field is disposed of
        // exactly once: the claim list is read out and dropped here,
        // and ptr/len/cap are reassembled into the Vec they came from
        // in `from_vec` (same allocator, length ≤ capacity).
        unsafe {
            drop(std::ptr::read(&me.claims));
            Vec::from_raw_parts(me.ptr, me.len, me.cap)
        }
    }
}

impl<T> Drop for DisjointOutput<T> {
    fn drop(&mut self) {
        // SAFETY: ptr/len/cap came from the Vec decomposed in
        // `from_vec` and are reassembled exactly once (`into_vec` takes
        // `self` out of drop's reach via ManuallyDrop).
        drop(unsafe { Vec::from_raw_parts(self.ptr, self.len, self.cap) });
    }
}

impl<T> fmt::Debug for DisjointOutput<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DisjointOutput")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// An exclusive view of a claimed range of a [`DisjointOutput`].
/// Derefs to `&mut [T]` indexed relative to the claimed range; the
/// claim is released when the view drops (including on panic unwind).
pub struct DisjointWriter<'a, T> {
    owner: &'a DisjointOutput<T>,
    start: usize,
    len: usize,
}

impl<T> DisjointWriter<'_, T> {
    /// The absolute element range this view covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

impl<T> Deref for DisjointWriter<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: the claim set guarantees `start..start+len` is inside
        // the buffer and not covered by any other live view, so this
        // shared slice aliases no `&mut` view. The slice is derived
        // from the raw pointer (not from a reference to the whole
        // buffer), keeping provenance valid for concurrent disjoint
        // views.
        unsafe { std::slice::from_raw_parts(self.owner.ptr.add(self.start), self.len) }
    }
}

impl<T> DerefMut for DisjointWriter<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, plus exclusivity: the claim set admits
        // at most one live view over any index, so this `&mut` slice is
        // unique for its range.
        unsafe { std::slice::from_raw_parts_mut(self.owner.ptr.add(self.start), self.len) }
    }
}

impl<T> Drop for DisjointWriter<'_, T> {
    fn drop(&mut self) {
        let mut claims = self.owner.claims.lock();
        if let Some(i) = claims
            .iter()
            .position(|&(s, e)| s == self.start && e == self.start + self.len)
        {
            claims.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_output_roundtrips() {
        let out = DisjointOutput::new(0u32, 8);
        assert_eq!(out.len(), 8);
        assert!(!out.is_empty());
        {
            let mut w = out.writer(2..5);
            assert_eq!(w.range(), 2..5);
            w.copy_from_slice(&[20, 30, 40]);
        }
        assert_eq!(out.into_vec(), vec![0, 0, 20, 30, 40, 0, 0, 0]);
    }

    #[test]
    fn overlapping_claims_are_rejected_until_release() {
        let out = DisjointOutput::new(0u8, 10);
        let w = out.try_writer(2..6).unwrap();
        assert!(matches!(
            out.try_writer(5..8),
            Err(DisjointError::Overlap {
                held_start: 2,
                held_end: 6,
                ..
            })
        ));
        assert!(matches!(
            out.try_writer(0..3),
            Err(DisjointError::Overlap { .. })
        ));
        // Adjacent and disjoint ranges are fine.
        let w2 = out.try_writer(6..8).unwrap();
        let w0 = out.try_writer(0..2).unwrap();
        drop(w);
        // Released range can be re-claimed (retry / re-dispatch path).
        let _w = out.try_writer(2..6).unwrap();
        drop((w2, w0));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let out = DisjointOutput::new(0u8, 4);
        assert!(matches!(
            out.try_writer(2..6),
            Err(DisjointError::OutOfBounds { len: 4, .. })
        ));
        #[allow(clippy::reversed_empty_ranges)]
        let backwards = out.try_writer(3..1);
        assert!(matches!(backwards, Err(DisjointError::OutOfBounds { .. })));
    }

    #[test]
    fn empty_ranges_never_conflict() {
        let out = DisjointOutput::new(0u8, 4);
        let _a = out.try_writer(2..2).unwrap();
        let _b = out.try_writer(2..2).unwrap();
        let _c = out.try_writer(0..4).unwrap();
    }

    #[test]
    fn claim_released_on_panic_unwind() {
        let out = DisjointOutput::new(0u8, 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = out.writer(0..4);
            w[0] = 1;
            panic!("kernel fault");
        }));
        assert!(r.is_err());
        // The unwound writer released its claim: re-claim succeeds.
        let w = out.try_writer(0..4).unwrap();
        assert_eq!(w[0], 1, "partial write before the panic is visible");
        drop(w);
        assert_eq!(out.snapshot(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn concurrent_disjoint_writers_assemble_all_blocks() {
        let out = std::sync::Arc::new(DisjointOutput::new(0usize, 64));
        std::thread::scope(|s| {
            for block in 0..8 {
                let out = std::sync::Arc::clone(&out);
                s.spawn(move || {
                    let lo = block * 8;
                    let mut w = out.writer(lo..lo + 8);
                    for (i, slot) in w.iter_mut().enumerate() {
                        *slot = lo + i;
                    }
                });
            }
        });
        let v = std::sync::Arc::try_unwrap(out).unwrap().into_vec();
        assert_eq!(v, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn from_vec_preserves_contents() {
        let out = DisjointOutput::from_vec(vec![String::from("a"), String::from("b")]);
        {
            let mut w = out.writer(1..2);
            w[0] = String::from("z");
        }
        assert_eq!(out.into_vec(), vec!["a".to_string(), "z".to_string()]);
    }
}
