//! Per-item work weights: the cost currency of the range model.
//!
//! Every layer of the stack used to treat "how many items" and "how
//! much work" as the same number, which only holds for regular
//! workloads. [`Weights`] separates the two: a claim against the
//! [`WorkPool`](crate::WorkPool) is budgeted in *cost units*, and the
//! pool answers with a contiguous item range whose total weight
//! approximates the budget. Uniform weights are a fast path in which
//! cost and item count coincide exactly, so regular workloads compile
//! to the pre-weights behavior bit for bit.
//!
//! Irregular workloads (sparse matrices, graphs) provide one cost per
//! item; the weights store the prefix sums, so range cost is two
//! lookups and budget→items conversion is a galloping search from the
//! claim's offset. Per-item costs are clamped to at least 1 cost unit:
//! a zero-cost item could satisfy no budget and would wedge
//! cost-budgeted claiming.
//!
//! The prefix sums are stored in two levels, at 4 bytes an item instead
//! of 8: one `u64` base every 2¹² item boundaries, and one `u32` offset
//! from its block's base per boundary. Every reader of the table (pool
//! claims, the driver's cost lookups, the SpMV cost model, the cluster
//! tier's shard split) reads half the bytes it would from a flat
//! `u64` prefix, and gets the same numbers. A block whose prefix spans
//! more than `u32::MAX` cost units is halved, down to one boundary a
//! block if need be, so every table `per_item` accepts reads back
//! exactly.

use crate::sync::Arc;
use std::fmt;

/// The widest block of a per-item table: 2¹² item boundaries share one
/// base.
const MAX_SHIFT: u32 = 12;

/// Per-item work costs over the application's item space `0..n`.
///
/// Shared as `Arc<Weights>` between the pool, the driver, and the
/// engines — the prefix table can be millions of entries and is
/// read-only for the whole run.
#[derive(Clone, Default, PartialEq, Eq)]
pub enum Weights {
    /// Every item costs exactly 1 unit: cost ≡ item count. The default,
    /// and the fast path all pre-weights callers land on.
    #[default]
    Uniform,
    /// Per-item costs, stored as prefix sums in two levels: the total
    /// cost of items `0..i` is `bases[i >> shift] + offsets[i]`. Built
    /// by [`Weights::per_item`], which keeps the prefix strictly
    /// increasing (costs are clamped ≥ 1) up to its saturation at
    /// `u64::MAX`.
    PerItem {
        /// The prefix at the first boundary of each block:
        /// `bases[b]` is the total cost of items `0..b << shift`.
        bases: Vec<u64>,
        /// Per item boundary `0..=n`, the prefix less its block's base,
        /// so `offsets.len()` is `n + 1` and `offsets[0] == 0`.
        offsets: Vec<u32>,
        /// Log₂ of the boundaries a block holds: 12, or less where a
        /// block's costs would overflow its `u32` offsets.
        shift: u32,
    },
}

/// Halve every block of a table with `shift + 1` as its shift, in
/// place: each block's upper half gets a base of its own, and its
/// offsets lose the part that base now carries. A block fit `u32`
/// offsets before, so its halves do too.
fn halve_blocks(bases: &mut Vec<u64>, offsets: &mut [u32], shift: u32) {
    let len = 1usize << shift;
    let mut halved = Vec::with_capacity(bases.len().saturating_mul(2));
    for (block, chunk) in offsets.chunks_mut(len).enumerate() {
        let base = bases.get(block / 2).copied().unwrap_or(0);
        let lift = if block % 2 == 1 {
            chunk.first().copied().unwrap_or(0)
        } else {
            0
        };
        halved.push(base + u64::from(lift));
        for off in chunk {
            *off -= lift;
        }
    }
    *bases = halved;
}

/// Open the block that boundary `i`, the next one to store (at prefix
/// `acc`), belongs in: push a base when `i` starts a block, and when
/// `acc` overflows a `u32` offset from its block's base, halve every
/// block until the one `i` is in fits. At a shift of 0 each boundary
/// is a base of its own, at offset 0. Returns the base of `i`'s block.
fn open_block(
    bases: &mut Vec<u64>,
    offsets: &mut [u32],
    shift: &mut u32,
    i: usize,
    acc: u64,
) -> u64 {
    loop {
        if i & ((1 << *shift) - 1) == 0 {
            bases.push(acc);
            return acc;
        }
        let base = bases.last().copied().unwrap_or(0);
        if acc - base <= u64::from(u32::MAX) {
            return base;
        }
        *shift -= 1;
        halve_blocks(bases, offsets, *shift);
    }
}

impl Weights {
    /// Build per-item weights from one cost per item. Costs are clamped
    /// to at least 1 unit so every range has positive weight and
    /// cost-budgeted claims always make progress.
    ///
    /// One pass over the costs, a block at a time: each block's prefixes
    /// are summed into a buffer of one block, then stored as offsets
    /// from the block's base, so no flat `u64` prefix is ever built.
    pub fn per_item(costs: impl IntoIterator<Item = u64>) -> Weights {
        let mut costs = costs.into_iter();
        let hint = costs.size_hint().0;
        let mut shift = MAX_SHIFT;
        let mut offsets: Vec<u32> = Vec::with_capacity(hint.saturating_add(1));
        let mut bases: Vec<u64> = Vec::with_capacity((hint >> shift) + 1);
        offsets.push(0);
        bases.push(0);
        let mut prefixes: Vec<u64> = Vec::with_capacity(1 << shift);
        let mut acc = 0u64;
        loop {
            // The boundaries from `next` to the end of its block.
            let next = offsets.len();
            let len = 1usize << shift;
            prefixes.clear();
            prefixes.extend(costs.by_ref().take(len - next % len).map(|c| {
                acc = acc.saturating_add(c.max(1));
                acc
            }));
            let (Some(&first), Some(&last)) = (prefixes.first(), prefixes.last()) else {
                break;
            };
            let starts = next.is_multiple_of(len);
            let base = if starts {
                first
            } else {
                bases.last().copied().unwrap_or(0)
            };
            if last - base <= u64::from(u32::MAX) {
                if starts {
                    bases.push(first);
                }
                // Fits: the prefix is monotone, so `p - base <= last - base`.
                offsets.extend(prefixes.iter().map(|&p| (p - base) as u32));
            } else {
                // Rare: this block's costs overflow a `u32` offset.
                for (k, &p) in prefixes.iter().enumerate() {
                    let base = open_block(&mut bases, &mut offsets, &mut shift, next + k, p);
                    offsets.push(u32::try_from(p - base).unwrap_or(u32::MAX));
                }
            }
        }
        Weights::PerItem {
            bases,
            offsets,
            shift,
        }
    }

    /// Uniform weights behind the shared handle every consumer takes.
    pub fn uniform() -> Arc<Weights> {
        Arc::new(Weights::Uniform)
    }

    /// Prefix value at item boundary `i`. Items past the end of the
    /// table cost 1 unit each — a workload larger than the cost vector
    /// degrades to uniform on the tail instead of panicking (the run
    /// path must not index out of bounds).
    fn at(bases: &[u64], offsets: &[u32], shift: u32, i: u64) -> u64 {
        let prefix = |j: usize, off: u32| {
            let base = bases.get(j.wrapping_shr(shift)).copied().unwrap_or(0);
            base.wrapping_add(u64::from(off))
        };
        let within = usize::try_from(i)
            .ok()
            .and_then(|j| Some((j, *offsets.get(j)?)));
        match within {
            Some((j, off)) => prefix(j, off),
            None => {
                let n = offsets.len().saturating_sub(1);
                let last = prefix(n, offsets.last().copied().unwrap_or(0));
                last.saturating_add(i - n as u64)
            }
        }
    }

    /// Total cost of the contiguous range `offset..offset + items`.
    /// Under uniform weights this is `items`.
    pub fn cost(&self, offset: u64, items: u64) -> u64 {
        match self {
            Weights::Uniform => items,
            Weights::PerItem {
                bases,
                offsets,
                shift,
            } => {
                let at = |i| Self::at(bases, offsets, *shift, i);
                at(offset.saturating_add(items)).saturating_sub(at(offset))
            }
        }
    }

    /// Total cost of the whole `0..total_items` space.
    pub fn total_cost(&self, total_items: u64) -> u64 {
        self.cost(0, total_items)
    }

    /// How many of the `avail` items starting at `offset` a claim of
    /// `budget` cost units buys: the largest `k ≤ avail` with
    /// `cost(offset, k) ≤ budget`, found by a galloping search on the
    /// prefix sums — except at least 1 when both `avail` and `budget` are
    /// positive, so a budget smaller than the next item's cost still
    /// makes progress (the paper's same-size re-dispatch must never
    /// stall on one expensive row). Under uniform weights this is
    /// `min(budget, avail)`.
    pub fn items_for_budget(&self, offset: u64, avail: u64, budget: u64) -> u64 {
        if avail == 0 || budget == 0 {
            return 0;
        }
        match self {
            Weights::Uniform => budget.min(avail),
            Weights::PerItem {
                bases,
                offsets,
                shift,
            } => {
                let at = |i| Self::at(bases, offsets, *shift, i);
                let cap = at(offset).saturating_add(budget);
                if at(offset.saturating_add(1)) > cap {
                    return 1;
                }
                // Gallop from the cursor: double the reach until the
                // prefix passes `cap` or the range ends, so the search
                // costs O(log claim length) and stays on the cache
                // lines next to `offset` instead of bisecting the whole
                // remaining table. `lo` items always fit and `hi` bounds
                // the answer; the bisection finishes inside `[lo, hi]`.
                let (mut lo, mut hi) = (1u64, avail);
                while lo < hi {
                    let reach = lo.saturating_mul(2).min(hi);
                    if at(offset.saturating_add(reach)) <= cap {
                        lo = reach;
                    } else {
                        hi = reach - 1;
                        break;
                    }
                }
                while lo < hi {
                    let mid = lo + (hi - lo).div_ceil(2);
                    if at(offset.saturating_add(mid)) <= cap {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                lo
            }
        }
    }
}

// Hand-written: the derived impl would format every entry of the table
// (4 M of them at the benchmark's size) into any `{:?}`, a `WorkPool`'s
// among them.
impl fmt::Debug for Weights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Weights::Uniform => f.write_str("Uniform"),
            Weights::PerItem { offsets, shift, .. } => {
                let items = offsets.len().saturating_sub(1) as u64;
                f.debug_struct("PerItem")
                    .field("items", &items)
                    .field("total_cost", &self.total_cost(items))
                    .field("block_shift", shift)
                    .finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cost_is_item_count() {
        let w = Weights::Uniform;
        assert_eq!(w.cost(0, 10), 10);
        assert_eq!(w.cost(99, 7), 7);
        assert_eq!(w.total_cost(1000), 1000);
        assert_eq!(w.items_for_budget(5, 100, 30), 30);
        assert_eq!(w.items_for_budget(5, 20, 30), 20, "clamped to avail");
        assert_eq!(w.items_for_budget(5, 20, 0), 0);
        assert_eq!(w.items_for_budget(5, 0, 30), 0);
    }

    #[test]
    fn per_item_prefix_sums_and_range_cost() {
        let w = Weights::per_item([3, 1, 4, 1, 5]);
        assert_eq!(w.total_cost(5), 14);
        assert_eq!(w.cost(0, 1), 3);
        assert_eq!(w.cost(0, 3), 8);
        assert_eq!(w.cost(2, 2), 5);
        assert_eq!(w.cost(4, 1), 5);
        assert_eq!(w.cost(5, 0), 0);
    }

    #[test]
    fn zero_costs_are_clamped_to_one() {
        let w = Weights::per_item([0, 0, 2]);
        assert_eq!(w.cost(0, 1), 1);
        assert_eq!(w.cost(1, 1), 1);
        assert_eq!(w.total_cost(3), 4);
    }

    #[test]
    fn budget_buys_the_largest_affordable_range() {
        let w = Weights::per_item([3, 1, 4, 1, 5]);
        // cost(0,1)=3, cost(0,2)=4, cost(0,3)=8.
        assert_eq!(w.items_for_budget(0, 5, 4), 2);
        assert_eq!(w.items_for_budget(0, 5, 7), 2);
        assert_eq!(w.items_for_budget(0, 5, 8), 3);
        assert_eq!(w.items_for_budget(0, 5, 1000), 5, "clamped to avail");
        // A budget below the first item's cost still buys that item.
        assert_eq!(w.items_for_budget(4, 1, 2), 1);
        assert_eq!(w.items_for_budget(0, 5, 1), 1);
    }

    #[test]
    fn budget_respects_the_offset() {
        let w = Weights::per_item([10, 1, 1, 1, 10]);
        assert_eq!(w.items_for_budget(1, 4, 3), 3);
        assert_eq!(w.items_for_budget(1, 4, 13), 4);
        assert_eq!(w.items_for_budget(1, 4, 12), 3);
    }

    #[test]
    fn tail_past_the_table_costs_one_per_item() {
        let w = Weights::per_item([2, 2]);
        // Items 2.. are uncosted: they degrade to 1 unit each.
        assert_eq!(w.cost(0, 4), 6);
        assert_eq!(w.cost(2, 3), 3);
        assert_eq!(w.items_for_budget(2, 10, 4), 4);
    }

    /// The definition, by linear scan: the largest `k ≤ avail` whose
    /// range fits the budget, but at least one item.
    fn items_for_budget_by_scan(w: &Weights, offset: u64, avail: u64, budget: u64) -> u64 {
        if avail == 0 || budget == 0 {
            return 0;
        }
        (1..=avail)
            .take_while(|&k| w.cost(offset, k) <= budget)
            .last()
            .unwrap_or(1)
    }

    #[test]
    fn budget_search_matches_a_linear_scan_exhaustively() {
        let tables: [&[u64]; 6] = [
            &[1],
            &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
            &[1, 1, 1, 1, 1, 1, 1, 1, 1],
            &[40, 1, 1, 1, 1, 1, 1, 40, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            &[0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0],
            &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
        ];
        for costs in tables {
            let w = Weights::per_item(costs.iter().copied());
            let n = costs.len() as u64;
            // Offsets and ranges run past the table: the uncosted tail
            // is one unit per item.
            let reach = n + 6;
            let top = w.total_cost(reach) + 2;
            for offset in 0..reach {
                for avail in 0..=reach - offset {
                    for budget in 0..=top {
                        assert_eq!(
                            w.items_for_budget(offset, avail, budget),
                            items_for_budget_by_scan(&w, offset, avail, budget),
                            "{costs:?}: offset {offset}, avail {avail}, budget {budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cover_of_fragments_sums_to_total_cost() {
        let w = Weights::per_item((0..97).map(|i| (i * 7) % 13 + 1));
        let total = w.total_cost(97);
        let mut sum = 0;
        let mut off = 0;
        while off < 97 {
            let n = w.items_for_budget(off, 97 - off, 11);
            assert!(n >= 1);
            sum += w.cost(off, n);
            off += n;
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn default_is_uniform() {
        assert_eq!(Weights::default(), Weights::Uniform);
        assert_eq!(*Weights::uniform(), Weights::Uniform);
    }

    /// Item boundaries a block holds at the widest.
    const BLOCK: u64 = 1 << MAX_SHIFT;

    /// The flat `u64` prefix the two-level table stands for.
    fn flat_prefix(costs: &[u64]) -> Vec<u64> {
        let mut acc = 0u64;
        let mut prefix = vec![0];
        prefix.extend(costs.iter().map(|&c| {
            acc = acc.saturating_add(c.max(1));
            acc
        }));
        prefix
    }

    /// [`Weights::cost`] read off a flat prefix: what the table held
    /// before it was split in two levels.
    fn flat_cost(prefix: &[u64], offset: u64, items: u64) -> u64 {
        let n = prefix.len() as u64 - 1;
        let at = |i: u64| match prefix.get(i as usize) {
            Some(&p) => p,
            None => prefix[n as usize].saturating_add(i - n),
        };
        at(offset.saturating_add(items)).saturating_sub(at(offset))
    }

    /// [`Weights::items_for_budget`] by a linear scan of a flat prefix.
    fn flat_items_for_budget(prefix: &[u64], offset: u64, avail: u64, budget: u64) -> u64 {
        if avail == 0 || budget == 0 {
            return 0;
        }
        (1..=avail)
            .take_while(|&k| flat_cost(prefix, offset, k) <= budget)
            .last()
            .unwrap_or(1)
    }

    fn block_shift(w: &Weights) -> u32 {
        match w {
            Weights::PerItem { shift, .. } => *shift,
            Weights::Uniform => unreachable!("a per-item table"),
        }
    }

    /// Every lookup of `costs`' table against the flat prefix: each
    /// item's cost, ranges starting on both sides of every block
    /// boundary, the uncosted tail past the table, and budgets bought at
    /// those offsets.
    fn check_against_the_flat_prefix(costs: &[u64]) -> Result<(), String> {
        let w = Weights::per_item(costs.iter().copied());
        let prefix = flat_prefix(costs);
        let n = costs.len() as u64;
        let fail = |what: String| Err(format!("shift {}: {what}", block_shift(&w)));
        for i in 0..n + 3 {
            if w.cost(i, 1) != flat_cost(&prefix, i, 1) {
                return fail(format!("cost({i}, 1)"));
            }
        }
        // The boundaries of the widest blocks and of the table's own.
        let step = 1u64 << block_shift(&w);
        let edges = (0..=n / BLOCK)
            .map(|b| b * BLOCK)
            .chain((0..=n).step_by(step as usize));
        for edge in edges {
            for offset in [edge.saturating_sub(1), edge, edge + 1] {
                for items in [
                    0,
                    1,
                    2,
                    step - 1,
                    step,
                    step + 1,
                    BLOCK + 1,
                    n,
                    n + 5,
                    u64::MAX,
                ] {
                    if w.cost(offset, items) != flat_cost(&prefix, offset, items) {
                        return fail(format!("cost({offset}, {items})"));
                    }
                }
            }
        }
        if w.total_cost(n) != prefix[n as usize] || w.cost(n + 3, 5) != flat_cost(&prefix, n + 3, 5)
        {
            return fail("the total or the tail".to_string());
        }
        // Budgets that buy up to a block and a half, at block edges.
        for edge in (0..=n / BLOCK).map(|b| b * BLOCK) {
            for offset in [edge.saturating_sub(1), edge, edge + 1] {
                let avail = (n + 4).saturating_sub(offset).min(BLOCK * 3 / 2);
                for k in [1, 2, 63, BLOCK / 2, BLOCK, avail] {
                    let exact = flat_cost(&prefix, offset, k.min(avail));
                    for budget in [exact.saturating_sub(1), exact, exact.saturating_add(1)] {
                        let got = w.items_for_budget(offset, avail, budget);
                        if got != flat_items_for_budget(&prefix, offset, avail, budget) {
                            return fail(format!("items_for_budget({offset}, {avail}, {budget})"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn small_costs_keep_the_widest_blocks_at_four_bytes_an_item() {
        let costs: Vec<u64> = (0..5 * BLOCK).map(|i| i % 97 * 1_000).collect();
        let w = Weights::per_item(costs.iter().copied());
        let Weights::PerItem {
            bases,
            offsets,
            shift,
        } = &w
        else {
            unreachable!("a per-item table");
        };
        assert_eq!(
            (*shift, bases.len(), offsets.len()),
            (MAX_SHIFT, 6, costs.len() + 1)
        );
        check_against_the_flat_prefix(&costs).unwrap();
    }

    #[test]
    fn a_block_spanning_more_than_u32_max_is_halved_and_reads_back_exactly() {
        let big = u64::from(u32::MAX);
        // One block's span lands exactly on `u32::MAX`, then one past.
        let mut costs = vec![1u64; 3 * BLOCK as usize];
        costs[BLOCK as usize] = big - (BLOCK - 2);
        check_against_the_flat_prefix(&costs).unwrap();
        assert_eq!(
            block_shift(&Weights::per_item(costs.iter().copied())),
            MAX_SHIFT
        );
        costs[BLOCK as usize] += 1;
        let w = Weights::per_item(costs.iter().copied());
        assert_eq!(block_shift(&w), MAX_SHIFT - 1);
        check_against_the_flat_prefix(&costs).unwrap();
        // Costs past `u32::MAX` each leave one boundary a block.
        let w = Weights::per_item([big + 1, big * 3, 7, big + 2]);
        assert_eq!(block_shift(&w), 0);
        check_against_the_flat_prefix(&[big + 1, big * 3, 7, big + 2]).unwrap();
    }

    #[test]
    fn the_prefix_saturates_at_u64_max() {
        let costs = [u64::MAX / 2, 5, u64::MAX / 2, 9, 1, u64::MAX];
        let w = Weights::per_item(costs);
        assert_eq!(w.total_cost(6), u64::MAX);
        assert_eq!(
            w.cost(2, 1),
            u64::MAX - (u64::MAX / 2 + 5),
            "cut at the top"
        );
        assert_eq!(w.cost(3, 3), 0, "nothing left above the saturated prefix");
        check_against_the_flat_prefix(&costs).unwrap();
    }

    #[test]
    fn debug_prints_a_summary_not_the_table() {
        let w = Weights::per_item((0..1_000_000u64).map(|i| i % 13));
        let text = format!("{w:?}");
        assert!(text.len() < 100, "{} bytes: {text}", text.len());
        assert_eq!(
            text,
            format!(
                "PerItem {{ items: 1000000, total_cost: {}, block_shift: 12 }}",
                w.total_cost(1_000_000)
            )
        );
        assert_eq!(format!("{:?}", Weights::Uniform), "Uniform");
        // A pool reaches the table through its `Arc`.
        let pool = crate::WorkPool::with_weights(1_000_000, Arc::new(w));
        let text = format!("{pool:?}");
        assert!(text.len() < 300, "{} bytes: {text}", text.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Tables of 3 to 5 widest blocks, light costs with a few spikes
        /// from 1 to `u64::MAX`: blocks that overflow a `u32` offset and
        /// prefixes that saturate read back what a flat prefix holds.
        #[test]
        fn lookups_match_the_flat_prefix_across_blocks(
            light in proptest::collection::vec(0u64..2_000, 3 * BLOCK as usize..5 * BLOCK as usize),
            spikes in proptest::collection::vec((proptest::any::<u64>(), 0u32..64), 0..4),
        ) {
            let mut costs = light;
            for (at, bits) in spikes {
                let i = (at % costs.len() as u64) as usize;
                costs[i] = u64::MAX >> bits;
            }
            let checked = check_against_the_flat_prefix(&costs);
            proptest::prop_assert!(checked.is_ok(), "{checked:?}");
        }
    }
}
