//! Solve latency of the block-size selection as the cluster grows.
//!
//! Runs the interior-point solver, whose KKT step is the O(n)
//! arrow-structured Schur elimination, over synthetic heterogeneous
//! rosters of increasing size, then shows what warm-starting a drifted
//! re-solve saves. This is the scaling demonstration behind the table
//! in `docs/PERFORMANCE.md`.
//!
//! ```text
//! cargo run --release --example solver_scaling
//! ```

use plb_ipm::nlp::FnCurve;
use plb_ipm::{solve, solve_warm, BlockPartitionNlp, BoxedCurve, IpmOptions, WarmStart};
use std::time::Instant;

/// A heterogeneous roster cycling through 64 speed grades, each with a
/// convex finish-time curve (overhead + linear rate + contention),
/// expressed in the normalized share `s = x·n` so per-unit times stay
/// O(1 s) at every roster size (how real fitted curves behave).
fn curves(n: usize, drift: f64) -> Vec<BoxedCurve> {
    let k = n as f64;
    (0..n)
        .map(|i| {
            let rate = (1.0 + (i % 64) as f64 * 0.25) * drift;
            let overhead = 0.01 * (1 + i % 3) as f64;
            let quad = 0.05;
            Box::new(FnCurve::new(
                move |x: f64| overhead + x * k / rate + quad * (x * k) * (x * k),
                move |x: f64| k / rate + 2.0 * quad * k * (x * k),
                move |_x: f64| 2.0 * quad * k * k,
            )) as BoxedCurve
        })
        .collect()
}

fn main() {
    let opts = IpmOptions::default();
    println!(
        "{:>7} | {:>13} {:>6} {:>10} | {:>10} {:>10}",
        "n_pus", "solve", "iters", "status", "cold iters", "warm iters"
    );
    for &n in &[10usize, 100, 1000, 10000] {
        let nlp = BlockPartitionNlp::new(curves(n, 1.0));
        let t0 = Instant::now();
        let sol = solve(&nlp, &opts).expect("solve");
        let elapsed = t0.elapsed();

        // Rebalance scenario: 3% model drift, re-solved cold vs warm.
        let drifted = BlockPartitionNlp::new(curves(n, 1.03));
        let cold = solve(&drifted, &opts).expect("cold re-solve");
        let warm = solve_warm(&drifted, &opts, Some(&WarmStart::from_solution(&sol)))
            .expect("warm re-solve");

        println!(
            "{:>7} | {:>10.1} us {:>6} {:>10?} | {:>10} {:>10}",
            n,
            elapsed.as_secs_f64() * 1e6,
            sol.iterations,
            sol.status,
            cold.iterations,
            warm.iterations,
        );
    }
}
