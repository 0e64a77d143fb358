//! Sparse matrix–vector multiply: the suite's first *irregular*
//! workload.
//!
//! One item = one matrix row, but rows are not equal work: row `i`
//! costs one multiply–add per stored nonzero, and the row-length
//! distribution is a seeded power law (scale-free graphs, finite-element
//! meshes and web matrices all look like this). A count-uniform split
//! therefore balances *rows* while the heavy rows pile onto whichever
//! unit drew the skewed range — exactly the failure mode the weighted
//! range model exists to fix. [`Spmv::weights`] exports the per-row
//! nonzero counts as [`plb_runtime::Weights`], so cost-budgeted claims,
//! the fitted curves and the NLP all reason in nonzeros instead of rows.
//!
//! The generator is fully deterministic: the same `(rows, skew, seed)`
//! triple produces the same matrix on every platform, which is what the
//! cross-engine equivalence tests rely on.

use plb_hetsim::CostModel;
use plb_rng::ChaCha8Rng;
use plb_runtime::Weights;
use std::fmt;
use std::sync::Arc;

/// Lightest admissible row: the power law's scale parameter `x_min`.
const X_MIN_NNZ: f64 = 8.0;

/// Tail cap on a single row's nonzeros, so one extreme draw cannot
/// dwarf the rest of the matrix.
const MAX_ROW_NNZ: u64 = 65_536;

/// Most rows a matrix may have: [`SpmvData`] stores its column
/// indices as `u32`s.
const MAX_ROWS: u64 = 1 << 32;

/// Smallest draw the inverse CDF is evaluated at: it is infinite at 0.
const MIN_DRAW: f64 = 1e-12;

/// Equal cells of `[0, 1)` in a [`LengthCells`] table: 2¹³ `u32`s,
/// 32 KB, which keeps a 1 M-row build under 4.1 bytes a row at its peak.
const CELLS: usize = 1 << 13;

/// How far a cell's end values are widened, in ulps, before they are
/// compared: libm's `pow` is within 1 ulp of the true power.
const WIDEN_ULPS: i64 = 16;

/// FLOPs per stored nonzero (one multiply–add).
const FLOPS_PER_NNZ: f64 = 2.0;

/// Bytes per stored nonzero in CSR: a 4-byte column index plus an
/// 8-byte value.
const BYTES_PER_NNZ: f64 = 12.0;

/// Inclusive bounds on the power-law exponent `skew`. Below the lower
/// bound the tail is so heavy the cap dominates every row; above the
/// upper bound the matrix is effectively uniform and SpMV stops being
/// an irregularity test.
pub(crate) const SKEW_RANGE: (f64, f64) = (0.5, 4.0);

/// The inverse-CDF Pareto draw `x_min · u^exponent` at draw `u`, with
/// `exponent = -1 / skew`, before truncation.
fn pareto(u: f64, exponent: f64) -> f64 {
    X_MIN_NNZ * u.max(MIN_DRAW).powf(exponent)
}

/// The row length a [`pareto`] value stands for: truncated, capped.
fn row_length(raw: f64) -> u64 {
    (raw as u64).clamp(1, MAX_ROW_NNZ)
}

/// `x`, a positive finite value, moved `ulps` representable values up
/// (down when negative). Every [`pareto`] value is one: at least 8, and
/// at most 8 · 10²⁴ for draws of at least [`MIN_DRAW`] and skews in
/// [`SKEW_RANGE`].
fn widen(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// Row lengths by lookup: [`CELLS`] equal cells of `[0, 1)`, each
/// holding the one length every draw in it gets, or 0 when its draws
/// can get more than one.
///
/// A cell `[a, b)` holds a length only when [`pareto`] at `b` widened
/// [`WIDEN_ULPS`] down and at `a` widened as far up give the same
/// [`row_length`]. The true curve falls monotonically in `u` and the
/// computed one is within 1 ulp of it, so every draw in the cell
/// computes to a value between the two, and truncation and the cap are
/// monotone too: the draw's length is that one. A draw in an
/// undecided cell evaluates the expression itself. Either way the
/// length is bit for bit what [`pareto`] and [`row_length`] give.
struct LengthCells {
    exponent: f64,
    cells: Vec<u32>,
}

impl LengthCells {
    /// The cells for `skew`: none for fewer than two rows a cell, where
    /// the table would cost more evaluations than it saves.
    fn new(rows: u64, skew: f64) -> LengthCells {
        let exponent = -1.0 / skew;
        let count = if rows >= 2 * CELLS as u64 { CELLS } else { 0 };
        let end = |k: usize| pareto(k as f64 / CELLS as f64, exponent);
        let mut upper = end(0);
        let cells = (1..=count)
            .map(|k| {
                let lower = end(k);
                let hi = row_length(widen(upper, WIDEN_ULPS));
                let lo = row_length(widen(lower, -WIDEN_ULPS));
                upper = lower;
                if hi == lo {
                    hi as u32
                } else {
                    0
                }
            })
            .collect();
        LengthCells { exponent, cells }
    }

    /// The row length of draw `u`.
    fn length(&self, u: f64) -> u64 {
        match self.cells.get((u * CELLS as f64) as usize) {
            Some(&n) if n > 0 => u64::from(n),
            _ => row_length(pareto(u, self.exponent)),
        }
    }
}

/// Nonzeros of rows `offset..offset + items` of a `rows`-row matrix
/// whose row lengths are the costs in `table`. [`Weights`] charges items
/// past its table one unit each; a matrix has no rows there, so the
/// range is clamped to the matrix first and the part past the end costs
/// nothing.
fn range_nnz(table: &Weights, rows: u64, offset: u64, items: u64) -> u64 {
    let lo = offset.min(rows);
    let hi = offset.saturating_add(items).min(rows);
    table.cost(lo, hi - lo)
}

/// The synthetic SpMV application: a square `rows × rows` sparse matrix
/// with power-law row lengths.
///
/// The row lengths exist once, as the prefix sums of an
/// `Arc<`[`Weights`]`>` built by [`Spmv::new`]: [`Spmv::weights`],
/// [`Spmv::cost`] and every clone of the app hand out handles to that
/// one table (at the benchmark's size, 4 000 001 `u32` offsets and 977
/// `u64` block bases: 16 MB).
#[derive(Clone)]
pub struct Spmv {
    /// Matrix order (one item = one row).
    pub rows: u64,
    /// Power-law exponent of the row-length distribution (smaller =
    /// heavier tail = more skew).
    pub skew: f64,
    /// Generator seed.
    pub seed: u64,
    /// One cost unit per nonzero, one item per row.
    table: Arc<Weights>,
}

// Hand-written: the derived impl would format the whole table into any
// `{:?}` (a panic message, a failed assertion, a CLI error path).
impl fmt::Debug for Spmv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spmv")
            .field("rows", &self.rows)
            .field("skew", &self.skew)
            .field("seed", &self.seed)
            .field("total_nnz", &self.total_nnz())
            .finish()
    }
}

impl Spmv {
    /// What [`Spmv::new`] checks before it generates anything: a
    /// description of the problem when `rows` is 0 or past 2³² (column
    /// indices are 32-bit), or `skew` is outside `[0.5, 4.0]`. The CLI
    /// surfaces it as a usage error without paying for a matrix.
    pub fn validate(rows: u64, skew: f64) -> Result<(), String> {
        if rows == 0 {
            return Err("spmv needs at least one row".to_string());
        }
        if rows > MAX_ROWS {
            return Err(format!(
                "spmv takes at most 2^32 = {MAX_ROWS} rows (its column indices are 32-bit), not {rows}"
            ));
        }
        let (lo, hi) = SKEW_RANGE;
        if !skew.is_finite() || skew < lo || skew > hi {
            return Err(format!(
                "spmv skew {skew} outside supported range [{lo}, {hi}]"
            ));
        }
        Ok(())
    }

    /// Create the application, generating the row-length profile: one
    /// draw `u` per row, and row length `⌊x_min · u^(-1/skew)⌋` capped
    /// to `[1, 65 536]`.
    ///
    /// Most draws read their length off a table of 2¹³ equal cells of
    /// `[0, 1)`, built here for the call; a cell holds a length only
    /// where its two ends, widened 16 ulps, already agree on it, and a
    /// draw anywhere else evaluates the power. The lengths are bit for
    /// bit those of evaluating it for every row (see `LengthCells`).
    ///
    /// Returns [`Spmv::validate`]'s description of the problem instead
    /// of panicking on parameters it rejects.
    pub fn new(rows: u64, skew: f64, seed: u64) -> Result<Spmv, String> {
        Self::validate(rows, skew)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cells = LengthCells::new(rows, skew);
        // Every draw lands in [1, MAX_ROW_NNZ], so `per_item`'s own
        // clamp to at least one unit changes nothing: the table holds
        // the row lengths exactly.
        let table = Weights::per_item((0..rows).map(|_| cells.length(rng.gen::<f64>())));
        Ok(Spmv {
            rows,
            skew,
            seed,
            table: Arc::new(table),
        })
    }

    /// Total work items (rows).
    pub fn total_items(&self) -> u64 {
        self.rows
    }

    /// Nonzeros of row `i` (0 for out-of-range rows).
    pub(crate) fn row_nnz(&self, i: u64) -> u64 {
        range_nnz(&self.table, self.rows, i, 1)
    }

    /// Total stored nonzeros.
    pub(crate) fn total_nnz(&self) -> u64 {
        range_nnz(&self.table, self.rows, 0, self.rows)
    }

    /// The per-row cost table as runtime weights: one cost unit per
    /// nonzero. This is what makes claims, curves and the NLP reason in
    /// work instead of rows. A handle to the app's one table, not a
    /// copy.
    pub fn weights(&self) -> Arc<Weights> {
        Arc::clone(&self.table)
    }

    /// The simulator cost model (range-aware), reading the same table
    /// as [`Spmv::weights`].
    pub fn cost(&self) -> SpmvCost {
        let mean_nnz = if self.rows > 0 {
            self.total_nnz() as f64 / self.rows as f64
        } else {
            0.0
        };
        SpmvCost {
            table: Arc::clone(&self.table),
            rows: self.rows,
            mean_nnz,
        }
    }
}

/// Range-aware SpMV cost model: a block's work is its *nonzero* count,
/// read off the row-length prefix sums, not its row count. The
/// count-based [`CostModel`] methods fall back to the mean row length —
/// they are only reached by callers that have no offset to give, and
/// for those the average is the best unbiased answer.
#[derive(Clone)]
pub struct SpmvCost {
    /// The app's row-length table (see [`Spmv`]).
    table: Arc<Weights>,
    /// Matrix order: where the table's rows end.
    rows: u64,
    /// Mean nonzeros per row (the count-based fallback rate).
    mean_nnz: f64,
}

// As for `Spmv`: never the table.
impl fmt::Debug for SpmvCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpmvCost")
            .field("rows", &self.rows)
            .field("total_nnz", &self.range_nnz(0, self.rows))
            .finish()
    }
}

impl SpmvCost {
    /// Nonzeros in the row range `offset..offset + items`.
    pub(crate) fn range_nnz(&self, offset: u64, items: u64) -> u64 {
        range_nnz(&self.table, self.rows, offset, items)
    }
}

impl CostModel for SpmvCost {
    fn name(&self) -> &str {
        "spmv"
    }

    fn flops(&self, items: u64) -> f64 {
        FLOPS_PER_NNZ * self.mean_nnz * items as f64
    }

    fn bytes_in(&self, items: u64) -> f64 {
        (BYTES_PER_NNZ * self.mean_nnz + 8.0) * items as f64
    }

    fn bytes_out(&self, items: u64) -> f64 {
        8.0 * items as f64 // one f64 result per row
    }

    fn threads(&self, items: u64) -> f64 {
        self.mean_nnz * items as f64
    }

    fn flops_range(&self, offset: u64, items: u64) -> f64 {
        FLOPS_PER_NNZ * self.range_nnz(offset, items) as f64
    }

    fn bytes_in_range(&self, offset: u64, items: u64) -> f64 {
        // CSR slice: the block's nonzeros (index + value) plus its row
        // pointers.
        BYTES_PER_NNZ * self.range_nnz(offset, items) as f64 + 8.0 * items as f64
    }

    fn bytes_out_range(&self, _offset: u64, items: u64) -> f64 {
        8.0 * items as f64
    }

    fn threads_range(&self, offset: u64, items: u64) -> f64 {
        // One lane per nonzero: the fine-grained parallelism a GPU
        // spreads a block over scales with its work, not its row count.
        self.range_nnz(offset, items) as f64
    }
}

/// Host data: the CSR matrix and the dense input vector.
pub struct SpmvData {
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries.
    pub row_ptr: Vec<u64>,
    /// Column index per stored entry.
    pub cols: Vec<u32>,
    /// Value per stored entry.
    pub vals: Vec<f64>,
    /// The dense vector `x`.
    pub x: Vec<f64>,
}

impl SpmvData {
    /// Materialize the CSR matrix the app's row-length profile
    /// describes, deterministically from the app's seed.
    pub fn generate(app: &Spmv) -> SpmvData {
        let mut rng = ChaCha8Rng::seed_from_u64(app.seed.wrapping_add(1));
        let total = app.total_nnz() as usize;
        let mut row_ptr = Vec::with_capacity(app.rows as usize + 1);
        let mut cols = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        row_ptr.push(0u64);
        for row in 0..app.rows {
            for _ in 0..app.row_nnz(row) {
                cols.push(rng.gen_range(0..app.rows) as u32);
                vals.push(rng.gen_range(-1.0..1.0));
            }
            row_ptr.push(cols.len() as u64);
        }
        let x = (0..app.rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
        SpmvData {
            row_ptr,
            cols,
            vals,
            x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row's length, in row order.
    fn row_lengths(app: &Spmv) -> Vec<u64> {
        (0..app.rows).map(|i| app.row_nnz(i)).collect()
    }

    /// The oracle: the row length of draw `u`, evaluated as the
    /// generator did for every row before it had cells.
    fn reference_length(u: f64, skew: f64) -> u64 {
        let u = u.max(1e-12);
        let raw = X_MIN_NNZ * u.powf(-1.0 / skew);
        (raw as u64).clamp(1, MAX_ROW_NNZ)
    }

    /// The oracle's row lengths of a `(rows, skew, seed)` matrix.
    fn reference_lengths(rows: u64, skew: f64, seed: u64) -> Vec<u64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..rows)
            .map(|_| reference_length(rng.gen::<f64>(), skew))
            .collect()
    }

    /// The skews the cells are checked at: both ends of `SKEW_RANGE`,
    /// the benchmark's, and one between.
    const SKEWS: [f64; 4] = [SKEW_RANGE.0, 0.8, 1.5, SKEW_RANGE.1];

    #[test]
    fn every_cell_end_and_random_draw_gets_the_formula_s_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        for skew in SKEWS {
            let cells = LengthCells::new(2 * CELLS as u64, skew);
            assert_eq!(cells.cells.len(), CELLS);
            // Each cell end, and 8 ulps either side of it; what lands
            // outside `[0, 1)` (a NaN below 0, 1 and up) is no draw.
            let ends = (0..=CELLS).flat_map(|k| {
                let end = k as f64 / CELLS as f64;
                (-8..=8).map(move |ulps| widen(end, ulps))
            });
            let draws = (0..100_000).map(|_| rng.gen::<f64>());
            for u in ends.chain(draws).filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(
                    cells.length(u),
                    reference_length(u, skew),
                    "skew {skew}, draw {u:e}"
                );
            }
        }
    }

    #[test]
    fn some_cells_are_undecided_so_the_fallback_runs() {
        for skew in SKEWS {
            let cells = LengthCells::new(2 * CELLS as u64, skew);
            let undecided = cells.cells.iter().filter(|&&n| n == 0).count();
            assert!(
                (1..CELLS / 2).contains(&undecided),
                "skew {skew}: {undecided} of {CELLS} cells undecided"
            );
        }
        // Too few rows to pay for a table: every draw evaluates.
        assert!(LengthCells::new(2 * CELLS as u64 - 1, 0.8).cells.is_empty());
    }

    #[test]
    fn whole_tables_equal_the_reference_loop() {
        const ROWS: u64 = (1 << 20) + 1;
        for (skew, seed) in SKEWS.into_iter().zip([201_509, 1_931, 7, 42]) {
            let app = Spmv::new(ROWS, skew, seed).unwrap();
            assert!(
                row_lengths(&app) == reference_lengths(ROWS, skew, seed),
                "skew {skew}, seed {seed}"
            );
        }
        // Below the table's threshold, and just at it.
        for rows in [1, 500, 2 * CELLS as u64 - 1, 2 * CELLS as u64] {
            let app = Spmv::new(rows, 1.2, 3).unwrap();
            assert_eq!(row_lengths(&app), reference_lengths(rows, 1.2, 3));
        }
    }

    /// The two 4 M-row tables the benchmark's `sim-cluster` workload
    /// builds, at the seeds it derives from `--seed 201509` and
    /// `--seed 1931`, against the reference loop. Slow unoptimized:
    /// CI runs it in release with `--ignored`.
    #[test]
    #[ignore = "4 M rows twice; run in release"]
    fn benchmark_size_tables_equal_the_reference_loop() {
        const ROWS: u64 = 4_000_000;
        for seed in [16_661_506_818_128_106_374, 8_990_834_177_376_722_786] {
            let app = Spmv::new(ROWS, 0.8, seed).unwrap();
            assert!(
                row_lengths(&app) == reference_lengths(ROWS, 0.8, seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Spmv::new(500, 1.5, 42).unwrap();
        let b = Spmv::new(500, 1.5, 42).unwrap();
        assert_eq!(row_lengths(&a), row_lengths(&b));
        let c = Spmv::new(500, 1.5, 43).unwrap();
        assert_ne!(
            row_lengths(&a),
            row_lengths(&c),
            "different seed, different matrix"
        );
    }

    #[test]
    fn skew_validation_is_an_error_not_a_panic() {
        assert!(Spmv::new(0, 1.5, 1).is_err());
        // Past 2³² rows a column index does not fit a `u32`.
        let err = Spmv::validate((1 << 32) + 1, 0.8).unwrap_err();
        assert!(
            err.contains("at most 2^32") && err.contains("32-bit"),
            "{err}"
        );
        assert!(Spmv::validate(1 << 32, 0.8).is_ok());
        assert!(Spmv::validate(u64::MAX, 0.8).is_err());
        assert!(Spmv::new(100, 0.0, 1).is_err());
        assert!(Spmv::new(100, 99.0, 1).is_err());
        assert!(Spmv::new(100, f64::NAN, 1).is_err());
        assert!(Spmv::new(100, SKEW_RANGE.0, 1).is_ok(), "bounds inclusive");
        assert!(Spmv::new(100, SKEW_RANGE.1, 1).is_ok());
    }

    #[test]
    fn row_lengths_are_bounded_and_skewed() {
        let app = Spmv::new(10_000, 1.2, 7).unwrap();
        let mut sorted = row_lengths(&app);
        assert!(sorted.iter().all(|&n| (1..=MAX_ROW_NNZ).contains(&n)));
        // A heavy tail: the largest row dwarfs the median row.
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let max = *sorted.last().unwrap();
        assert!(max > 10 * median, "max {max} vs median {median}");
    }

    #[test]
    fn weights_match_row_nnz() {
        let app = Spmv::new(200, 1.5, 3).unwrap();
        let w = app.weights();
        assert_eq!(w.total_cost(app.rows), app.total_nnz());
        for i in 0..app.rows {
            assert_eq!(w.cost(i, 1), app.row_nnz(i));
        }
    }

    #[test]
    fn cost_model_range_matches_prefix() {
        let app = Spmv::new(300, 1.5, 9).unwrap();
        let cost = app.cost();
        let direct: u64 = (40..70).map(|i| app.row_nnz(i)).sum();
        assert_eq!(cost.range_nnz(40, 30), direct);
        assert_eq!(cost.flops_range(40, 30), FLOPS_PER_NNZ * direct as f64);
        // Whole-matrix range equals the count-based estimate at n rows.
        let whole = cost.flops_range(0, app.rows);
        assert!((whole - cost.flops(app.rows)).abs() < 1e-6 * whole);
        // Past-the-end ranges cost nothing.
        assert_eq!(cost.range_nnz(app.rows, 50), 0);
    }

    #[test]
    fn csr_shape_is_consistent() {
        let app = Spmv::new(128, 2.0, 21).unwrap();
        let data = SpmvData::generate(&app);
        assert_eq!(data.row_ptr.len() as u64, app.rows + 1);
        assert_eq!(data.cols.len() as u64, app.total_nnz());
        assert_eq!(data.vals.len(), data.cols.len());
        assert_eq!(data.x.len() as u64, app.rows);
        assert!(data.cols.iter().all(|&c| (c as u64) < app.rows));
    }

    #[test]
    fn weights_and_cost_are_handles_to_one_table() {
        let app = Spmv::new(300, 1.5, 9).unwrap();
        let table = app.weights();
        assert!(Arc::ptr_eq(&table, &app.weights()));
        // `app` and `table` hold it; each live cost model holds it once
        // more, and none of them built another.
        assert_eq!(Arc::strong_count(&table), 2);
        let costs: Vec<SpmvCost> = (0..3).map(|_| app.cost()).collect();
        assert_eq!(Arc::strong_count(&table), 2 + costs.len());
        drop(costs);
        assert_eq!(Arc::strong_count(&table), 2);
        let clone = app.clone();
        assert!(Arc::ptr_eq(&table, &clone.weights()));
        assert_eq!(Arc::strong_count(&table), 3);
    }

    #[test]
    fn debug_prints_a_summary_not_the_table() {
        let app = Spmv::new(5_000, 1.5, 9).unwrap();
        let total = app.total_nnz();
        assert_eq!(
            format!("{app:?}"),
            format!("Spmv {{ rows: 5000, skew: 1.5, seed: 9, total_nnz: {total} }}")
        );
        assert_eq!(
            format!("{:?}", app.cost()),
            format!("SpmvCost {{ rows: 5000, total_nnz: {total} }}")
        );
    }

    /// The cost model as it was before the app and its cost model
    /// shared one table, kept as the reference: the generator's draws
    /// in a `Vec<u32>`, and a `Vec<u64>` prefix of its own per model.
    struct ReferenceCost {
        nnz: Vec<u32>,
        prefix: Vec<u64>,
        mean_nnz: f64,
    }

    impl ReferenceCost {
        fn new(rows: u64, skew: f64, seed: u64) -> ReferenceCost {
            let nnz: Vec<u32> = reference_lengths(rows, skew, seed)
                .into_iter()
                .map(|c| c as u32)
                .collect();
            let mut prefix = Vec::with_capacity(nnz.len() + 1);
            prefix.push(0u64);
            let mut acc = 0u64;
            for &c in &nnz {
                acc = acc.saturating_add(c as u64);
                prefix.push(acc);
            }
            ReferenceCost {
                nnz,
                prefix,
                mean_nnz: acc as f64 / rows as f64,
            }
        }

        fn range_nnz(&self, offset: u64, items: u64) -> u64 {
            let at = |i: u64| -> u64 {
                let last = self.prefix.last().copied().unwrap_or(0);
                self.prefix.get(i as usize).copied().unwrap_or(last)
            };
            at(offset.saturating_add(items)).saturating_sub(at(offset))
        }
    }

    impl CostModel for ReferenceCost {
        fn name(&self) -> &str {
            "spmv-reference"
        }
        fn flops(&self, items: u64) -> f64 {
            FLOPS_PER_NNZ * self.mean_nnz * items as f64
        }
        fn bytes_in(&self, items: u64) -> f64 {
            (BYTES_PER_NNZ * self.mean_nnz + 8.0) * items as f64
        }
        fn bytes_out(&self, items: u64) -> f64 {
            8.0 * items as f64
        }
        fn threads(&self, items: u64) -> f64 {
            self.mean_nnz * items as f64
        }
        fn flops_range(&self, offset: u64, items: u64) -> f64 {
            FLOPS_PER_NNZ * self.range_nnz(offset, items) as f64
        }
        fn bytes_in_range(&self, offset: u64, items: u64) -> f64 {
            BYTES_PER_NNZ * self.range_nnz(offset, items) as f64 + 8.0 * items as f64
        }
        fn bytes_out_range(&self, _offset: u64, items: u64) -> f64 {
            8.0 * items as f64
        }
        fn threads_range(&self, offset: u64, items: u64) -> f64 {
            self.range_nnz(offset, items) as f64
        }
    }

    #[test]
    fn shared_table_cost_model_matches_the_per_call_prefix_bit_for_bit() {
        type Ranged = fn(&dyn CostModel, u64, u64) -> f64;
        type Counted = fn(&dyn CostModel, u64) -> f64;
        const ROWS: u64 = 3_000;
        let app = Spmv::new(ROWS, 0.8, 201_509).unwrap();
        let (cost, reference) = (app.cost(), ReferenceCost::new(ROWS, 0.8, 201_509));
        assert_eq!(
            row_lengths(&app),
            reference.nnz.iter().map(|&c| c as u64).collect::<Vec<_>>()
        );
        assert_eq!(app.total_nnz(), reference.range_nnz(0, ROWS));
        assert_eq!(app.row_nnz(ROWS), 0, "no row past the end");

        // Empty, single-row, whole-matrix, straddling the end, past the
        // end, and `offset + items` overflowing `u64`.
        let mut ranges = vec![
            (0, 0),
            (17, 0),
            (ROWS, 0),
            (0, 1),
            (ROWS - 1, 1),
            (0, ROWS),
            (ROWS - 1, 2),
            (ROWS - 40, 100),
            (0, ROWS + 1),
            (ROWS, 1),
            (ROWS, 50),
            (ROWS + 7, 3),
            (0, u64::MAX),
            (5, u64::MAX),
            (ROWS - 1, u64::MAX),
            (u64::MAX - 3, 10),
            (u64::MAX, u64::MAX),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        for _ in 0..4_000 {
            let offset = rng.gen_range(0..ROWS + 50);
            // Mostly claim-sized, sometimes most of the matrix.
            let span = if rng.gen_bool(0.8) { 64 } else { ROWS + 50 };
            ranges.push((offset, rng.gen_range(0..span)));
        }
        let ranged: [(&str, Ranged); 5] = [
            ("flops_range", |c, o, n| c.flops_range(o, n)),
            ("bytes_in_range", |c, o, n| c.bytes_in_range(o, n)),
            ("bytes_out_range", |c, o, n| c.bytes_out_range(o, n)),
            ("bytes_touched_range", |c, o, n| c.bytes_touched_range(o, n)),
            ("threads_range", |c, o, n| c.threads_range(o, n)),
        ];
        let counted: [(&str, Counted); 4] = [
            ("flops", |c, n| c.flops(n)),
            ("bytes_in", |c, n| c.bytes_in(n)),
            ("bytes_out", |c, n| c.bytes_out(n)),
            ("threads", |c, n| c.threads(n)),
        ];
        for (offset, items) in ranges {
            let at = format!("rows {offset}..+{items}");
            assert_eq!(
                cost.range_nnz(offset, items),
                reference.range_nnz(offset, items),
                "{at}"
            );
            for (name, f) in ranged {
                assert_eq!(
                    f(&cost, offset, items).to_bits(),
                    f(&reference, offset, items).to_bits(),
                    "{name}, {at}"
                );
            }
            for (name, f) in counted {
                assert_eq!(
                    f(&cost, items).to_bits(),
                    f(&reference, items).to_bits(),
                    "{name}, {items} items"
                );
            }
        }
    }
}
