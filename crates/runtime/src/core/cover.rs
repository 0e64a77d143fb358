//! The completed cover: the item ranges a run has finished, kept sorted
//! and coalesced as it grows.
//!
//! The driver records one range per completed task. Held as a plain
//! list, that is one entry per task (146 844 of them in the largest
//! `sim-cluster` cell) until a checkpoint or the end of the run sorts
//! it. [`Cover`] keeps a sorted, coalesced head and an unsorted tail of
//! recent completions, and folds the tail into the head once it is as
//! long as the head: the list holds O(units + re-credited fragments)
//! ranges, and every completion pays O(log tail) amortised, never more
//! than the one sort at the end it replaces.
//!
//! Completed ranges are non-empty and disjoint (every item completes
//! under exactly one attempt), so the coalesced cover is the same
//! whatever the order ranges arrive and are folded in: a checkpoint or
//! a report built from it is bit-identical to one built by sorting
//! every range once.

/// Shortest tail worth a fold: below it a fold's pass over the head
/// would cost more than the ranges it saves.
const MIN_TAIL: usize = 64;

/// Completed item ranges, `(offset, items)`.
#[derive(Debug, Default)]
pub(crate) struct Cover {
    /// `ranges[..head]` is sorted and coalesced; `ranges[head..]` holds
    /// the completions since, in arrival order.
    ranges: Vec<(u64, u64)>,
    head: usize,
    /// Where a fold writes, kept between folds so they do not allocate.
    scratch: Vec<(u64, u64)>,
}

impl Cover {
    /// The cover a resumed run starts from: a checkpoint's ranges.
    pub(crate) fn resume(ranges: Vec<(u64, u64)>) -> Cover {
        let mut cover = Cover {
            ranges,
            ..Cover::default()
        };
        cover.fold();
        cover
    }

    /// Record the completed range `offset..offset + items`.
    pub(crate) fn push(&mut self, offset: u64, items: u64) {
        if self.head == self.ranges.len() {
            // Nothing pending: a range at or past the head's end keeps
            // the head sorted and coalesced as it stands.
            match self.ranges.last_mut() {
                Some(last) if last.0 + last.1 == offset => {
                    last.1 += items;
                    return;
                }
                Some(last) if last.0 + last.1 > offset => {}
                _ => {
                    self.ranges.push((offset, items));
                    self.head += 1;
                    return;
                }
            }
        }
        self.ranges.push((offset, items));
        if self.ranges.len() - self.head >= self.head.max(MIN_TAIL) {
            self.fold();
        }
    }

    /// The whole cover, sorted and coalesced.
    pub(crate) fn coalesced(&mut self) -> &[(u64, u64)] {
        if self.head < self.ranges.len() {
            self.fold();
        }
        &self.ranges
    }

    /// Ranges held, head and tail: what the list costs in memory.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Sort the tail and merge it into the head in one pass, joining
    /// adjacent ranges.
    fn fold(&mut self) {
        let (head, tail) = self.ranges.split_at_mut(self.head);
        tail.sort_unstable();
        self.scratch.clear();
        let (mut a, mut b) = (head.iter().peekable(), tail.iter().peekable());
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if y < x => b.next(),
                (Some(_), _) => a.next(),
                (None, _) => b.next(),
            };
            let Some(&(offset, items)) = next else {
                break;
            };
            match self.scratch.last_mut() {
                Some(last) if last.0 + last.1 == offset => last.1 += items,
                _ => self.scratch.push((offset, items)),
            }
        }
        std::mem::swap(&mut self.ranges, &mut self.scratch);
        self.head = self.ranges.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cover as the driver built it before: every range, sorted
    /// once, adjacent ones joined.
    fn sort_once(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        ranges.sort_unstable();
        ranges.dedup_by(|next, kept| {
            let adjacent = kept.0 + kept.1 == next.0;
            if adjacent {
                kept.1 += next.1;
            }
            adjacent
        });
        ranges
    }

    /// `0..total` cut into `pieces` ranges of pseudo-random lengths,
    /// listed in a pseudo-random order that stays near ascending, as
    /// units finishing claims from one cursor do.
    fn scattered(total: u64, pieces: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cuts: Vec<u64> = (1..pieces).map(|_| next() % total).collect();
        cuts.extend([0, total]);
        cuts.sort_unstable();
        cuts.dedup();
        let mut ranges: Vec<(u64, u64)> = cuts.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
        // Swap each range with one up to 8 places ahead.
        for i in 0..ranges.len() {
            let j = (i + (next() % 8) as usize).min(ranges.len() - 1);
            ranges.swap(i, j);
        }
        ranges
    }

    #[test]
    fn the_coalesced_cover_matches_one_sort_at_the_end() {
        for (total, pieces, seed) in [
            (1, 1, 1),
            (100, 7, 2),
            (10_000, 3_000, 3),
            (1 << 40, 20_000, 4),
        ] {
            let ranges = scattered(total, pieces, seed);
            let mut cover = Cover::default();
            for &(offset, items) in &ranges {
                cover.push(offset, items);
            }
            assert_eq!(
                cover.coalesced(),
                sort_once(ranges.clone()),
                "{total} in {pieces}"
            );
            assert_eq!(cover.coalesced(), [(0, total)]);
        }
    }

    #[test]
    fn holes_stay_open_and_only_adjacent_ranges_join() {
        let ranges = vec![(50, 10), (0, 10), (30, 5), (10, 5), (60, 40), (35, 5)];
        let mut cover = Cover::default();
        for &(offset, items) in &ranges {
            cover.push(offset, items);
        }
        assert_eq!(cover.coalesced(), [(0, 15), (30, 10), (50, 50)]);
        assert_eq!(cover.coalesced(), sort_once(ranges));
    }

    #[test]
    fn a_resumed_cover_grows_into_its_holes() {
        let mut cover = Cover::resume(vec![(10, 20), (50, 40)]);
        for (offset, items) in [(90, 10), (0, 10), (30, 20)] {
            cover.push(offset, items);
        }
        assert_eq!(cover.coalesced(), [(0, 100)]);
    }

    /// In-order completions never open a tail; scattered ones keep the
    /// list near the number of holes, not the number of ranges.
    #[test]
    fn the_list_stays_short_while_it_grows() {
        let mut ordered = Cover::default();
        for i in 0..10_000u64 {
            ordered.push(i * 3, 3);
        }
        assert_eq!(ordered.len(), 1);

        let ranges = scattered(1 << 30, 20_000, 9);
        let mut cover = Cover::default();
        let mut longest = 0;
        for &(offset, items) in &ranges {
            cover.push(offset, items);
            longest = longest.max(cover.len());
        }
        assert!(longest <= 4 * MIN_TAIL, "{longest} ranges held");
    }
}
