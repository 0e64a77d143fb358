//! Edge cases of the block-size selection and modeling phases beyond
//! the unit tests: degenerate windows, granularity extremes, curve
//! pathologies, and solver-choice consistency.

use plb_hec::selection::apportion;
use plb_hec::{select_block_sizes, PerfProfile, SelectionMethod, SolverChoice, UnitModel};

fn affine_model(rate: f64, overhead: f64) -> UnitModel {
    let mut p = PerfProfile::new();
    for &x in &[100u64, 200, 400, 800, 1600, 3200] {
        p.record(x, overhead + x as f64 / rate, 0.0);
    }
    p.fit().unwrap()
}

#[test]
fn window_smaller_than_unit_count() {
    // 3 units, 2 items: someone gets nothing, the total is conserved.
    let models = vec![
        affine_model(1e3, 0.0),
        affine_model(2e3, 0.0),
        affine_model(4e3, 0.0),
    ];
    let sel = select_block_sizes(&models, &[true; 3], 2, 1, SolverChoice::Auto);
    assert_eq!(sel.blocks.iter().sum::<u64>(), 2);
}

#[test]
fn granularity_equal_to_window() {
    let models = vec![affine_model(1e3, 0.0), affine_model(2e3, 0.0)];
    let sel = select_block_sizes(&models, &[true, true], 128, 128, SolverChoice::Auto);
    assert_eq!(sel.blocks.iter().sum::<u64>(), 128);
    // Exactly one unit carries the single quantum.
    assert_eq!(sel.blocks.iter().filter(|&&b| b > 0).count(), 1);
}

#[test]
fn granularity_larger_than_window_still_conserves() {
    let models = vec![affine_model(1e3, 0.0), affine_model(2e3, 0.0)];
    let sel = select_block_sizes(&models, &[true, true], 100, 512, SolverChoice::Auto);
    assert_eq!(sel.blocks.iter().sum::<u64>(), 100);
}

#[test]
fn identical_units_split_evenly_under_every_solver() {
    let models: Vec<UnitModel> = (0..4).map(|_| affine_model(1e4, 1e-3)).collect();
    for solver in [SolverChoice::Auto, SolverChoice::RateProportionalOnly] {
        let sel = select_block_sizes(&models, &[true; 4], 100_000, 1, solver);
        for &b in &sel.blocks {
            assert!(
                (b as f64 - 25_000.0).abs() < 1500.0,
                "{solver:?}: uneven split {:?}",
                sel.blocks
            );
        }
    }
}

#[test]
fn solvers_agree_on_affine_devices() {
    // For affine zero-overhead devices every solver has the same exact
    // answer (rate-proportional); their results must agree closely.
    let models = vec![
        affine_model(1e3, 0.0),
        affine_model(3e3, 0.0),
        affine_model(6e3, 0.0),
    ];
    let auto = select_block_sizes(&models, &[true; 3], 1_000_000, 1, SolverChoice::Auto);
    let rp = select_block_sizes(
        &models,
        &[true; 3],
        1_000_000,
        1,
        SolverChoice::RateProportionalOnly,
    );
    for i in 0..3 {
        assert!((auto.fractions[i] - rp.fractions[i]).abs() < 5e-3);
    }
    assert_eq!(auto.method, SelectionMethod::WaterFill);
    assert_eq!(rp.method, SelectionMethod::RateProportional);
}

#[test]
fn per_task_constants_shift_work_to_fewer_task_units() {
    // Two equal-rate devices, one with a large per-task constant in its
    // transfer curve (a streaming GPU): the equal-time solution hands
    // the constant-free device more of the window.
    let free = affine_model(1e4, 0.0);
    let mut p = PerfProfile::new();
    for &x in &[100u64, 200, 400, 800, 1600, 3200] {
        p.record(x, x as f64 / 1e4, 0.5); // +0.5 s per task, any size
    }
    let taxed = p.fit().unwrap();
    let sel = select_block_sizes(&[free, taxed], &[true, true], 50_000, 1, SolverChoice::Auto);
    assert!(
        sel.blocks[0] > sel.blocks[1],
        "the unit without the per-task constant should get more: {:?}",
        sel.blocks
    );
}

#[test]
fn apportion_handles_extreme_skew() {
    let blocks = apportion(&[1e-9, 1.0 - 1e-9], 1_000_000, 1);
    assert_eq!(blocks.iter().sum::<u64>(), 1_000_000);
    assert!(blocks[1] >= 999_998);
}

#[test]
fn apportion_single_unit() {
    assert_eq!(apportion(&[1.0], 12345, 7), vec![12345]);
}

#[test]
fn constant_time_curves_fall_back_gracefully() {
    // All units report identical constant times regardless of block
    // size: equalization is degenerate; any partition is "equal-time".
    let mut models = Vec::new();
    for _ in 0..3 {
        let mut p = PerfProfile::new();
        for &x in &[100u64, 200, 400, 800] {
            p.record(x, 1.0, 0.0);
        }
        models.push(p.fit().unwrap());
    }
    let sel = select_block_sizes(&models, &[true; 3], 30_000, 1, SolverChoice::Auto);
    assert_eq!(sel.blocks.iter().sum::<u64>(), 30_000);
    assert!(sel.fractions.iter().all(|f| f.is_finite() && *f >= 0.0));
}

#[test]
fn unit_models_roundtrip_through_json() {
    // Model persistence: the CLI's `plb profile` flow depends on fitted
    // curves surviving serialization exactly.
    let model = affine_model(2.5e4, 3e-3);
    let json = serde_json::to_string(&model).expect("serializes");
    let back: UnitModel = serde_json::from_str(&json).expect("deserializes");
    // serde_json's float printing is shortest-roundtrip, so stored
    // coefficients survive exactly; evaluation should agree to within
    // an ULP or two (summation order through the deserialized Vec can
    // differ).
    for &x in &[50.0, 500.0, 5_000.0, 50_000.0] {
        let (a, b) = (model.total_time(x), back.total_time(x));
        assert!(
            ((a - b) / a).abs() < 1e-14,
            "prediction changed at {x}: {a} vs {b}"
        );
        let (da, db) = (model.total_d1(x), back.total_d1(x));
        assert!(((da - db) / da.abs().max(1e-300)).abs() < 1e-12);
    }
    assert!((model.min_r2() - back.min_r2()).abs() < 1e-14);
}
