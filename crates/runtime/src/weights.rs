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

use crate::sync::Arc;

/// Per-item work costs over the application's item space `0..n`.
///
/// Shared as `Arc<Weights>` between the pool, the driver, and the
/// engines — the prefix table can be millions of entries and is
/// read-only for the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Weights {
    /// Every item costs exactly 1 unit: cost ≡ item count. The default,
    /// and the fast path all pre-weights callers land on.
    #[default]
    Uniform,
    /// Per-item costs, stored as prefix sums: `prefix[i]` is the total
    /// cost of items `0..i`, so `prefix.len()` is `n + 1` and
    /// `prefix[0] == 0`. Strictly increasing (costs are clamped ≥ 1).
    PerItem {
        /// The prefix-sum table.
        prefix: Vec<u64>,
    },
}

impl Weights {
    /// Build per-item weights from one cost per item. Costs are clamped
    /// to at least 1 unit so every range has positive weight and
    /// cost-budgeted claims always make progress.
    pub fn per_item(costs: impl IntoIterator<Item = u64>) -> Weights {
        let iter = costs.into_iter();
        let mut prefix = Vec::with_capacity(iter.size_hint().0 + 1);
        prefix.push(0u64);
        let mut acc = 0u64;
        for c in iter {
            acc = acc.saturating_add(c.max(1));
            prefix.push(acc);
        }
        Weights::PerItem { prefix }
    }

    /// Uniform weights behind the shared handle every consumer takes.
    pub fn uniform() -> Arc<Weights> {
        Arc::new(Weights::Uniform)
    }

    /// Prefix value at item boundary `i`. Items past the end of the
    /// table cost 1 unit each — a workload larger than the cost vector
    /// degrades to uniform on the tail instead of panicking (the run
    /// path must not index out of bounds).
    fn at(prefix: &[u64], i: u64) -> u64 {
        let n = prefix.len().saturating_sub(1) as u64;
        if i <= n {
            prefix.get(i as usize).copied().unwrap_or(0)
        } else {
            prefix.last().copied().unwrap_or(0).saturating_add(i - n)
        }
    }

    /// Total cost of the contiguous range `offset..offset + items`.
    /// Under uniform weights this is `items`.
    pub fn cost(&self, offset: u64, items: u64) -> u64 {
        match self {
            Weights::Uniform => items,
            Weights::PerItem { prefix } => {
                let end = Self::at(prefix, offset.saturating_add(items));
                end.saturating_sub(Self::at(prefix, offset))
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
            Weights::PerItem { prefix } => {
                let cap = Self::at(prefix, offset).saturating_add(budget);
                if Self::at(prefix, offset.saturating_add(1)) > cap {
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
                    if Self::at(prefix, offset.saturating_add(reach)) <= cap {
                        lo = reach;
                    } else {
                        hi = reach - 1;
                        break;
                    }
                }
                while lo < hi {
                    let mid = lo + (hi - lo).div_ceil(2);
                    if Self::at(prefix, offset.saturating_add(mid)) <= cap {
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
}
