//! Disjoint-range bookkeeping over the application's item space.
//!
//! Both engines dispatch blocks as half-open ranges of the run's item
//! range (`0..total_items`, or one node chunk of it in global
//! coordinates) and must preserve the disjoint-cover invariant: every
//! item is processed by exactly one *successful* attempt, even when
//! failed blocks are re-credited and re-dispatched to other units. The
//! pool pairs a fresh-range cursor with a reclaimed-range free list on top
//! of the loom-checked [`CompletionLatch`] (the item count and the
//! run-closed bit share one atomic word, so a re-credit can never race
//! a run completion — see `docs/SOUNDNESS.md`).
//!
//! Claims are budgeted in **cost units**, not item counts: `take`
//! converts its budget into an item range through the pool's
//! [`Weights`] (binary search on the per-item prefix sums), so a claim
//! on an irregular workload returns a range whose *weight*, not
//! length, approximates the budget. Under [`Weights::Uniform`] —
//! the default — cost and item count coincide and every path below
//! behaves exactly as the pre-weights pool did. The completion latch
//! always counts *items*: the disjoint-cover invariant is exact in
//! item space, and weights are positional, so a re-credited fragment
//! keeps its original weight by construction.

use crate::protocol::CompletionLatch;
use crate::sync::Arc;
use crate::weights::Weights;
use std::ops::Range;

/// The undistributed-item pool: a cursor over fresh ranges plus a free
/// list of reclaimed (failed-block) ranges, with the item count and the
/// run-completion latch backed by [`CompletionLatch`], and claims
/// budgeted through the workload's [`Weights`].
#[derive(Debug)]
pub struct WorkPool {
    /// The range the pool was built over.
    items: Range<u64>,
    latch: CompletionLatch,
    cursor: u64,
    /// Ranges of failed blocks returned to the pool; served before
    /// fresh cursor ranges so the disjoint-cover invariant holds under
    /// re-dispatch.
    reclaimed: Vec<(u64, u64)>,
    /// Per-item cost of the workload; uniform unless the application
    /// declared an irregular cost vector.
    weights: Arc<Weights>,
}

impl WorkPool {
    /// A pool holding the full `0..total` item space under uniform
    /// weights (cost ≡ item count).
    pub fn new(total: u64) -> WorkPool {
        WorkPool::with_weights(total, Weights::uniform())
    }

    /// A pool holding the full `0..total` item space under the given
    /// per-item weights.
    pub fn with_weights(total: u64, weights: Arc<Weights>) -> WorkPool {
        WorkPool::over(0..total, weights)
    }

    /// A pool holding the contiguous range `items` of a larger item
    /// space (one node's chunk, in global coordinates): claims start at
    /// `items.start` and `weights` is the global table.
    pub(crate) fn over(items: Range<u64>, weights: Arc<Weights>) -> WorkPool {
        WorkPool {
            latch: CompletionLatch::new(items.end.saturating_sub(items.start)),
            cursor: items.start,
            items,
            reclaimed: Vec::new(),
            weights,
        }
    }

    /// A pool holding only the complement of `completed` within
    /// `0..total` — the resume path: the uncovered holes become
    /// reclaimed-style ranges (served lowest offset first) and the
    /// cursor starts exhausted, so a resumed run dispatches exactly the
    /// items the checkpointed run never finished. Uniform weights; see
    /// [`WorkPool::resume_with_weights`] for irregular workloads.
    ///
    /// `completed` must be sorted by offset, non-empty per range,
    /// disjoint and within `0..total` (what
    /// [`Checkpoint::validate`](crate::checkpoint::Checkpoint::validate)
    /// guarantees); otherwise an error describes the first violation.
    pub fn resume(total: u64, completed: &[(u64, u64)]) -> Result<WorkPool, String> {
        WorkPool::resume_with_weights(total, completed, Weights::uniform())
    }

    /// [`WorkPool::resume`] with per-item weights: the uncovered holes
    /// keep their positional cost, so a resumed weighted run budgets
    /// claims over exactly the weight the checkpointed run left behind.
    pub fn resume_with_weights(
        total: u64,
        completed: &[(u64, u64)],
        weights: Arc<Weights>,
    ) -> Result<WorkPool, String> {
        let mut holes: Vec<(u64, u64)> = Vec::new();
        let mut covered = 0u64;
        let mut prev_end = 0u64;
        for (i, &(off, len)) in completed.iter().enumerate() {
            if len == 0 {
                return Err(format!("completed range #{i} is empty"));
            }
            if off < prev_end {
                return Err(format!(
                    "completed range #{i} at {off} overlaps or precedes the range ending at {prev_end}"
                ));
            }
            let end = off
                .checked_add(len)
                .ok_or_else(|| format!("completed range #{i} overflows"))?;
            if end > total {
                return Err(format!(
                    "completed range #{i} ends at {end}, past total {total}"
                ));
            }
            if off > prev_end {
                holes.push((prev_end, off - prev_end));
            }
            covered += len;
            prev_end = end;
        }
        if prev_end < total {
            holes.push((prev_end, total - prev_end));
        }
        // `take` pops from the back, so store holes high-to-low to
        // serve them in ascending offset order.
        holes.reverse();
        Ok(WorkPool {
            items: 0..total,
            latch: CompletionLatch::new(total - covered),
            cursor: total,
            reclaimed: holes,
            weights,
        })
    }

    /// The range the pool was built over: `0..total` for a whole (or
    /// resumed) run, one node's chunk for a nested cluster-tier run.
    pub fn items(&self) -> Range<u64> {
        self.items.clone()
    }

    /// Items not yet distributed (0 after a close).
    pub fn remaining(&self) -> u64 {
        self.latch.remaining()
    }

    /// Total cost of the items not yet distributed: the reclaimed
    /// fragments' weight plus the fresh range's weight. Equal to
    /// [`remaining`](WorkPool::remaining) under uniform weights.
    pub fn remaining_cost(&self) -> u64 {
        let reclaimed_items: u64 = self.reclaimed.iter().map(|&(_, len)| len).sum();
        let fresh = self.latch.remaining().saturating_sub(reclaimed_items);
        self.reclaimed
            .iter()
            .map(|&(off, len)| self.weights.cost(off, len))
            .sum::<u64>()
            .saturating_add(self.weights.cost(self.cursor, fresh))
    }

    /// The workload's per-item weights.
    pub fn weights(&self) -> &Arc<Weights> {
        &self.weights
    }

    /// Take a contiguous range worth up to `budget_cost` cost units:
    /// reclaimed ranges first (splitting when heavier than the budget),
    /// then fresh items from the cursor. The budget is converted to an
    /// item count through the pool's [`Weights`] (under uniform weights
    /// the budget *is* an item count). Returns `(offset, items)`;
    /// `None` when the pool is empty or the run already closed. A
    /// nonzero budget always buys at least one item, and a reclaimed
    /// fragment may carry less weight than the budget — callers (and
    /// policies) must tolerate any return value.
    pub fn take(&mut self, budget_cost: u64) -> Option<(u64, u64)> {
        if budget_cost == 0 || self.latch.remaining() == 0 {
            return None;
        }
        let (offset, got) = if let Some((off, len)) = self.reclaimed.pop() {
            let n = self.weights.items_for_budget(off, len, budget_cost);
            if n < len {
                self.reclaimed.push((off + n, len - n));
            }
            (off, n)
        } else {
            let avail = self.latch.remaining();
            let off = self.cursor;
            let n = self.weights.items_for_budget(off, avail, budget_cost);
            self.cursor += n;
            (off, n)
        };
        if got == 0 {
            return None;
        }
        let debited = self.latch.take(got);
        debug_assert_eq!(debited, got, "latch and range pool out of sync");
        Some((offset, got))
    }

    /// Like [`take`](WorkPool::take), but only claims items inside
    /// `[lo, hi)` — the shard-scoped claim behind
    /// `SchedulerCtx::assign_within`. Serves the highest-offset
    /// reclaimed fragment overlapping the range (splitting off any
    /// out-of-range head/tail back onto the free list), and never
    /// touches fragments outside the range, so claims respect shard
    /// ownership borders. On a pre-[`fragment`](WorkPool::fragment)ed
    /// pool every fragment lies wholly inside one shard and the
    /// head/tail splits are no-ops. Returns `None` when no unclaimed
    /// work overlaps the range.
    pub fn take_within(&mut self, lo: u64, hi: u64, budget_cost: u64) -> Option<(u64, u64)> {
        if budget_cost == 0 || lo >= hi || self.latch.remaining() == 0 {
            return None;
        }
        // Highest-offset overlapping fragment, mirroring `take`'s
        // pop-from-the-back order within the shard.
        let idx = self
            .reclaimed
            .iter()
            .rposition(|&(off, len)| off < hi && off + len > lo)?;
        let (off, len) = self.reclaimed.remove(idx);
        let end = off + len;
        // Split off the parts outside [lo, hi); they stay reclaimed.
        if off < lo {
            self.reclaimed.push((off, lo - off));
        }
        if end > hi {
            self.reclaimed.push((hi, end - hi));
        }
        let (off, len) = (off.max(lo), end.min(hi) - off.max(lo));
        let n = self.weights.items_for_budget(off, len, budget_cost);
        if n < len {
            self.reclaimed.push((off + n, len - n));
        }
        if n == 0 {
            return None;
        }
        let debited = self.latch.take(n);
        debug_assert_eq!(debited, n, "latch and range pool out of sync");
        Some((off, n))
    }

    /// Pre-fragment a fresh pool at the given ascending shard bounds:
    /// the untouched cursor range becomes reclaimed-style fragments
    /// split at every bound, served in ascending offset order, and the
    /// cursor starts exhausted. After this, every fragment lies wholly
    /// inside one shard, so [`take_within`](WorkPool::take_within)
    /// claims never straddle an ownership border. Bounds outside
    /// `(cursor, total)` are ignored. A no-op when nothing remains.
    pub fn fragment(&mut self, bounds: &[u64]) {
        let reclaimed_items: u64 = self.reclaimed.iter().map(|&(_, len)| len).sum();
        let fresh = self.latch.remaining().saturating_sub(reclaimed_items);
        if fresh == 0 {
            return;
        }
        let (start, end) = (self.cursor, self.cursor + fresh);
        let mut cuts: Vec<u64> = bounds
            .iter()
            .copied()
            .filter(|&b| b > start && b < end)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(end);
        // `take`/`take_within` pop from the back; store high-to-low so
        // fresh work is still served in ascending offset order.
        let mut pieces: Vec<(u64, u64)> = Vec::with_capacity(cuts.len());
        let mut at = start;
        for cut in cuts {
            pieces.push((at, cut - at));
            at = cut;
        }
        pieces.reverse();
        // Existing reclaimed fragments (resume holes) must still be
        // served first: keep them at the back of the LIFO list.
        pieces.append(&mut self.reclaimed);
        self.reclaimed = pieces;
        self.cursor = end;
    }

    /// Return a failed block's range to the pool. Weights are
    /// positional, so the fragment re-enters with its original cost.
    pub fn reclaim(&mut self, offset: u64, items: u64) {
        // The driver only reclaims while work is in flight, and the
        // latch closes only when nothing is — so the re-credit cannot
        // race a close (the interleaving the loom model rules out).
        let credited = self.latch.recredit(items);
        debug_assert!(credited, "re-credit refused: run already closed");
        self.reclaimed.push((offset, items));
    }

    /// Close out the run. Succeeds exactly once, and only with an empty
    /// pool.
    pub fn try_close(&self) -> bool {
        self.latch.try_close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ranged case runs twice: over the whole space, and over one
    /// node chunk in the middle of a larger item space.
    const BASES: [u64; 2] = [0, 1_000];

    /// A pool over `base..base + total` of the global `weights`, which
    /// must start out holding exactly that range's items and cost.
    fn pool_at(base: u64, total: u64, weights: &Arc<Weights>) -> WorkPool {
        let p = WorkPool::over(base..base + total, Arc::clone(weights));
        assert_eq!(p.remaining(), total);
        assert_eq!(p.remaining_cost(), weights.cost(base, total));
        p
    }

    /// `costs` as the weights of items `base..`, behind `base` items of
    /// an unrelated weight that must not show up in any of its costs.
    fn weights_at(base: u64, costs: impl IntoIterator<Item = u64>) -> Arc<Weights> {
        Arc::new(Weights::per_item(
            std::iter::repeat_n(9, base as usize).chain(costs),
        ))
    }

    /// The successful claims tile `base..base + total` exactly: none
    /// outside it, no gap, no overlap.
    fn assert_exact_cover(mut claims: Vec<Option<(u64, u64)>>, base: u64, total: u64) {
        claims.sort_unstable();
        let mut expect = base;
        for (off, len) in claims.into_iter().flatten() {
            assert_eq!(off, expect, "gap, overlap or claim outside the range");
            expect = off + len;
        }
        assert_eq!(expect, base + total);
    }

    #[test]
    fn fresh_ranges_advance_the_cursor() {
        for b in BASES {
            let mut p = pool_at(b, 100, &Weights::uniform());
            let claims = vec![p.take(40), p.take(100)];
            assert_eq!(claims[0], Some((b, 40)));
            assert_eq!(claims[1], Some((b + 40, 60)), "clamped to the pool");
            assert_eq!(p.take(1), None);
            assert_eq!(p.remaining(), 0);
            assert_exact_cover(claims, b, 100);
            assert!(p.try_close());
        }
    }

    #[test]
    fn reclaimed_ranges_are_served_first_and_split() {
        let mut p = WorkPool::new(100);
        let (off, got) = p.take(50).unwrap();
        p.reclaim(off, got);
        assert_eq!(p.remaining(), 100);
        // The reclaimed range is re-served, splitting on demand.
        assert_eq!(p.take(20), Some((0, 20)));
        assert_eq!(p.take(100), Some((20, 30)), "fragment caps the grant");
        assert_eq!(p.take(100), Some((50, 50)), "then back to the cursor");
        assert!(p.try_close());
    }

    #[test]
    fn zero_want_takes_nothing() {
        let mut p = WorkPool::new(10);
        assert_eq!(p.take(0), None);
        assert_eq!(p.remaining(), 10);
    }

    #[test]
    fn resume_serves_exactly_the_holes_in_order() {
        // Completed: [10,30) and [50,90) of 0..100 — holes are [0,10),
        // [30,50), [90,100).
        let mut p = WorkPool::resume(100, &[(10, 20), (50, 40)]).unwrap();
        assert_eq!(p.remaining(), 40);
        assert_eq!(p.take(1000), Some((0, 10)));
        assert_eq!(p.take(5), Some((30, 5)), "holes split on demand");
        assert_eq!(p.take(1000), Some((35, 15)));
        assert_eq!(p.take(1000), Some((90, 10)));
        assert_eq!(p.take(1), None);
        assert!(p.try_close());
    }

    #[test]
    fn resume_with_full_or_empty_cover() {
        let mut full = WorkPool::resume(50, &[(0, 50)]).unwrap();
        assert_eq!(full.remaining(), 0);
        assert_eq!(full.take(1), None);
        assert!(full.try_close());

        let mut empty = WorkPool::resume(50, &[]).unwrap();
        assert_eq!(empty.remaining(), 50);
        assert_eq!(empty.take(1000), Some((0, 50)));
    }

    #[test]
    fn resume_rejects_malformed_covers() {
        assert!(WorkPool::resume(100, &[(0, 0)]).is_err(), "empty range");
        assert!(
            WorkPool::resume(100, &[(0, 50), (40, 10)]).is_err(),
            "overlap"
        );
        assert!(
            WorkPool::resume(100, &[(50, 10), (0, 10)]).is_err(),
            "unsorted"
        );
        assert!(WorkPool::resume(100, &[(90, 20)]).is_err(), "out of bounds");
    }

    #[test]
    fn resumed_pool_still_supports_reclaim() {
        let mut p = WorkPool::resume(100, &[(0, 60)]).unwrap();
        let (off, got) = p.take(25).unwrap();
        assert_eq!((off, got), (60, 25));
        p.reclaim(off, got);
        assert_eq!(p.remaining(), 40);
        assert_eq!(p.take(1000), Some((60, 25)), "re-credited hole reissued");
        assert_eq!(p.take(1000), Some((85, 15)));
        assert!(p.try_close());
    }

    #[test]
    fn disjoint_cover_holds_under_reclaim() {
        let mut p = WorkPool::new(1000);
        let mut done: Vec<(u64, u64)> = Vec::new();
        let mut flaky = 0;
        while let Some((off, got)) = p.take(97) {
            // Fail every third block once.
            flaky += 1;
            if flaky % 3 == 0 {
                p.reclaim(off, got);
                flaky += 1; // don't re-fail the same fragment forever
            } else {
                done.push((off, got));
            }
        }
        done.sort_unstable();
        let mut expect = 0;
        for (off, len) in done {
            assert_eq!(off, expect, "gap or overlap in completed ranges");
            expect = off + len;
        }
        assert_eq!(expect, 1000);
        assert!(p.try_close());
    }

    #[test]
    fn fragment_splits_the_fresh_range_at_shard_bounds() {
        for b in BASES {
            let mut p = pool_at(b, 100, &Weights::uniform());
            p.fragment(&[b + 30, b + 60]);
            assert_eq!(p.remaining(), 100);
            // Unrestricted takes still serve ascending, shard by shard.
            let claims = vec![p.take(1000), p.take(1000), p.take(1000)];
            assert_eq!(claims[0], Some((b, 30)));
            assert_eq!(claims[1], Some((b + 30, 30)));
            assert_eq!(claims[2], Some((b + 60, 40)));
            assert_eq!(p.take(1), None);
            assert_exact_cover(claims, b, 100);
            assert!(p.try_close());
        }
    }

    #[test]
    fn take_within_claims_only_inside_the_shard() {
        for b in BASES {
            let mut p = pool_at(b, 100, &Weights::uniform());
            p.fragment(&[b + 30, b + 60]);
            // Shard 1 is [b+30, b+60).
            let mut claims = vec![
                p.take_within(b + 30, b + 60, 10),
                p.take_within(b + 30, b + 60, 1000),
            ];
            assert_eq!(claims[0], Some((b + 30, 10)));
            assert_eq!(claims[1], Some((b + 40, 20)));
            assert_eq!(p.take_within(b + 30, b + 60, 1), None, "shard exhausted");
            // Other shards untouched.
            assert_eq!(p.remaining(), 70);
            claims.push(p.take_within(b, b + 30, 1000));
            claims.push(p.take_within(b + 60, b + 100, 1000));
            assert_eq!(claims[2], Some((b, 30)));
            assert_eq!(claims[3], Some((b + 60, 40)));
            assert_exact_cover(claims, b, 100);
            assert!(p.try_close());
        }
    }

    #[test]
    fn take_within_splits_straddling_fragments() {
        // An unfragmented pool: the single fresh range straddles any
        // shard border, and take_within must carve out only the
        // overlap.
        let mut p = WorkPool::new(100);
        p.fragment(&[]);
        assert_eq!(p.take_within(40, 70, 1000), Some((40, 30)));
        assert_eq!(p.remaining(), 70);
        // The head and tail remain claimable.
        assert_eq!(p.take_within(0, 40, 1000), Some((0, 40)));
        assert_eq!(p.take_within(70, 100, 1000), Some((70, 30)));
        assert!(p.try_close());
    }

    #[test]
    fn take_within_respects_cost_budgets_and_reclaim() {
        for b in BASES {
            let w = weights_at(b, [10, 10, 1, 1, 1, 1]);
            let mut p = pool_at(b, 6, &w);
            p.fragment(&[b + 2]);
            // Shard 0 = heavy items; a 10-unit budget buys one.
            assert_eq!(p.take_within(b, b + 2, 10), Some((b, 1)));
            p.reclaim(b, 1);
            let claims = vec![
                p.take_within(b, b + 2, 100),
                p.take_within(b, b + 2, 100),
                p.take_within(b, b + 2, 100),
                p.take_within(b + 2, b + 6, 100),
            ];
            assert_eq!(claims[0], Some((b, 1)), "re-credit reissued");
            assert_eq!(claims[1], Some((b + 1, 1)));
            assert_eq!(claims[2], None);
            assert_eq!(claims[3], Some((b + 2, 4)));
            assert_exact_cover(claims, b, 6);
            assert!(p.try_close());
        }
    }

    /// The cluster tier's re-credit storm in miniature: four home
    /// shards, two chunks in flight per node, one node cut off so its
    /// chunks come back and the other three drain its shard. However
    /// that interleaves, the list `take_within` scans and `remove`s from
    /// holds at most one fresh remainder per shard plus one fragment per
    /// chunk that was in flight — which is why it is a linear scan and
    /// not a tree (one whole `sim-cluster` process: 5 689 calls, at most
    /// 5 fragments, 3.0 on average).
    #[test]
    fn recredit_storm_keeps_the_fragment_list_short() {
        const SHARDS: usize = 4;
        const PER_NODE: usize = 2;
        for b in BASES {
            let w = weights_at(b, (0..400u64).map(|i| i % 7 + 1));
            let mut p = pool_at(b, 400, &w);
            let bounds = [b, b + 100, b + 200, b + 300, b + 400];
            p.fragment(&bounds[1..SHARDS]);
            let shard = |s: usize| (bounds[s], bounds[s + 1]);
            let short = |p: &WorkPool| {
                let fragments = p.reclaimed.len();
                assert!(fragments <= SHARDS + SHARDS * PER_NODE, "{fragments}");
            };
            short(&p);

            // Every node claims its chunks from its home shard.
            let mut in_flight = [[None; PER_NODE]; SHARDS];
            for round in 0..PER_NODE {
                for (s, chunks) in in_flight.iter_mut().enumerate() {
                    let (lo, hi) = shard(s);
                    chunks[round] = p.take_within(lo, hi, 60);
                    assert!(chunks[round].is_some_and(|(off, _)| lo <= off && off < hi));
                    short(&p);
                }
            }
            // Node 1 is cut off: everything it held returns to the pool.
            let (lost, mut done) = (in_flight[1], Vec::new());
            for (s, chunks) in in_flight.into_iter().enumerate() {
                for (off, items) in chunks.into_iter().flatten() {
                    if s == 1 {
                        p.reclaim(off, items);
                        short(&p);
                    } else {
                        done.push(Some((off, items)));
                    }
                }
            }
            // The other three drain shard 1, re-credits first, then the
            // rest of the pool shard by shard.
            let (lo, hi) = shard(1);
            assert_eq!(p.take_within(lo, hi, u64::MAX), lost[1], "newest first");
            done.push(lost[1]);
            for s in [1, 0, 2, 3] {
                let (lo, hi) = shard(s);
                while let Some(chunk) = p.take_within(lo, hi, 25) {
                    done.push(Some(chunk));
                    short(&p);
                }
            }
            assert_eq!(p.remaining(), 0);
            assert_exact_cover(done, b, 400);
            assert!(p.try_close());
        }
    }

    #[test]
    fn fragment_after_resume_keeps_holes_first() {
        // Resume holes are [0,10) and [90,100); fresh work is gone.
        let mut p = WorkPool::resume(100, &[(10, 80)]).unwrap();
        p.fragment(&[50]);
        assert_eq!(p.remaining(), 20);
        assert_eq!(p.take(1000), Some((0, 10)));
        assert_eq!(p.take(1000), Some((90, 10)));
        assert!(p.try_close());
    }

    #[test]
    fn weighted_claims_are_budgeted_by_cost_not_count() {
        for b in BASES {
            // Items b..b+4 cost 10 each, the other 96 cost 1 each.
            let w = weights_at(b, (0..100u64).map(|i| if i < 4 { 10 } else { 1 }));
            let mut p = pool_at(b, 100, &w);
            assert_eq!(p.remaining_cost(), 136);
            let mut claims = vec![p.take(20), p.take(3), p.take(30)];
            // A 20-unit budget buys two heavy items, not twenty.
            assert_eq!(claims[0], Some((b, 2)));
            // A budget below one item's cost still buys that item.
            assert_eq!(claims[1], Some((b + 2, 1)));
            // Across the heavy/light boundary the budget spans many items.
            assert_eq!(claims[2], Some((b + 3, 21)));
            assert_eq!(p.remaining(), 76);
            assert_eq!(p.remaining_cost(), 76);
            claims.push(p.take(u64::MAX));
            assert_exact_cover(claims, b, 100);
        }
    }

    #[test]
    fn weighted_reclaim_keeps_the_fragment_weight() {
        let w = Arc::new(Weights::per_item([10, 10, 1, 1, 1, 1]));
        let mut p = WorkPool::with_weights(6, Arc::clone(&w));
        let (off, got) = p.take(20).unwrap();
        assert_eq!((off, got), (0, 2));
        p.reclaim(off, got);
        assert_eq!(p.remaining_cost(), 24);
        // The re-credited fragment is re-served at its original weight:
        // a 10-unit budget now buys only the first heavy item back.
        assert_eq!(p.take(10), Some((0, 1)));
        assert_eq!(p.take(100), Some((1, 1)), "fragment caps the grant");
        assert_eq!(p.take(100), Some((2, 4)));
        assert!(p.try_close());
    }

    #[test]
    fn weighted_resume_budgets_over_the_holes() {
        let w = Arc::new(Weights::per_item([5, 5, 5, 5, 1, 1, 1, 1]));
        // Completed [2,6) — holes are [0,2) (cost 10) and [6,8) (cost 2).
        let mut p = WorkPool::resume_with_weights(8, &[(2, 4)], Arc::clone(&w)).unwrap();
        assert_eq!(p.remaining(), 4);
        assert_eq!(p.remaining_cost(), 12);
        assert_eq!(p.take(5), Some((0, 1)), "budget splits the weighted hole");
        assert_eq!(p.take(100), Some((1, 1)));
        assert_eq!(p.take(100), Some((6, 2)));
        assert!(p.try_close());
    }

    proptest::proptest! {
        /// Weighted cover invariant: however claims and re-credits
        /// interleave, the served ranges form a disjoint, complete
        /// cover of the item space, and the served weight sums to the
        /// total cost.
        #[test]
        fn weighted_cover_is_disjoint_and_complete(
            costs in proptest::collection::vec(0u64..50, 1..200),
            budgets in proptest::collection::vec(1u64..100, 1..64),
            fail_every in 2usize..6,
        ) {
            let total = costs.len() as u64;
            let w = Arc::new(Weights::per_item(costs));
            let mut p = WorkPool::with_weights(total, Arc::clone(&w));
            let mut done: Vec<(u64, u64)> = Vec::new();
            let mut served_cost = 0u64;
            let mut i = 0usize;
            let mut flaky = 0usize;
            while let Some((off, got)) = p.take(budgets[i % budgets.len()]) {
                i += 1;
                flaky += 1;
                if flaky.is_multiple_of(fail_every) {
                    p.reclaim(off, got);
                } else {
                    served_cost += w.cost(off, got);
                    done.push((off, got));
                }
            }
            done.sort_unstable();
            let mut expect = 0u64;
            for (off, len) in done {
                proptest::prop_assert_eq!(off, expect, "gap or overlap");
                expect = off + len;
            }
            proptest::prop_assert_eq!(expect, total);
            proptest::prop_assert_eq!(served_cost, w.total_cost(total));
            proptest::prop_assert!(p.try_close());
        }

        /// Resume round-trips weighted holes: whatever cover a run
        /// leaves behind, a resumed pool serves exactly the complement
        /// at exactly the complement's weight.
        #[test]
        fn weighted_resume_round_trips_holes(
            costs in proptest::collection::vec(0u64..50, 2..200),
            cuts in proptest::collection::vec(0.0f64..1.0, 1..8),
            budget in 1u64..60,
        ) {
            let total = costs.len() as u64;
            let w = Arc::new(Weights::per_item(costs));
            // Build a sorted disjoint cover from the random cuts.
            let mut bounds: Vec<u64> =
                cuts.iter().map(|f| (f * total as f64) as u64).collect();
            bounds.sort_unstable();
            bounds.dedup();
            let mut completed: Vec<(u64, u64)> = Vec::new();
            for pair in bounds.chunks(2) {
                if let [a, b] = pair {
                    if b > a {
                        completed.push((*a, b - a));
                    }
                }
            }
            let completed_cost: u64 =
                completed.iter().map(|&(o, l)| w.cost(o, l)).sum();
            let mut p =
                WorkPool::resume_with_weights(total, &completed, Arc::clone(&w)).unwrap();
            proptest::prop_assert_eq!(
                p.remaining_cost(),
                w.total_cost(total) - completed_cost
            );
            let mut served: Vec<(u64, u64)> = completed.clone();
            while let Some(r) = p.take(budget) {
                served.push(r);
            }
            served.sort_unstable();
            let mut expect = 0u64;
            for (off, len) in served {
                proptest::prop_assert_eq!(off, expect, "gap or overlap");
                expect = off + len;
            }
            proptest::prop_assert_eq!(expect, total);
            proptest::prop_assert!(p.try_close());
        }

        /// Re-credited fragments keep their original weight: reclaim
        /// and re-serve any claimed range and its cost is unchanged.
        #[test]
        fn reclaimed_fragments_keep_their_weight(
            costs in proptest::collection::vec(0u64..50, 1..200),
            budget in 1u64..100,
        ) {
            let total = costs.len() as u64;
            let w = Arc::new(Weights::per_item(costs));
            let mut p = WorkPool::with_weights(total, Arc::clone(&w));
            while let Some((off, got)) = p.take(budget) {
                let cost_before = w.cost(off, got);
                p.reclaim(off, got);
                // Re-serve the fragment with an unlimited budget: it
                // comes back whole, at the same offset and weight.
                let (off2, got2) = p.take(u64::MAX).unwrap();
                proptest::prop_assert_eq!((off2, got2), (off, got));
                proptest::prop_assert_eq!(w.cost(off2, got2), cost_before);
            }
            proptest::prop_assert!(p.try_close());
        }
    }
}
