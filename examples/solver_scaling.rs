//! Solve latency of the block-size selection as the cluster grows.
//!
//! Runs the interior-point solver over synthetic heterogeneous rosters
//! of increasing size on both KKT paths — the O(n) arrow-structured
//! Schur elimination the selection problem normally takes, and the
//! dense LU path it would need without the structure — then shows what
//! warm-starting a drifted re-solve saves. This is the standing
//! dense-vs-arrow demonstration behind the table in
//! `docs/PERFORMANCE.md`.
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
        "{:>7} | {:>13} {:>6} {:>10} | {:>13} {:>6} | {:>10} {:>10}",
        "n_pus", "structured", "iters", "status", "dense", "iters", "cold iters", "warm iters"
    );
    for &n in &[10usize, 100, 1000, 10000] {
        // Structured (arrow) path, cold.
        let nlp = BlockPartitionNlp::new(curves(n, 1.0));
        let t0 = Instant::now();
        let sol = solve(&nlp, &opts).expect("structured solve");
        let structured = t0.elapsed();

        // Dense oracle — skipped at n = 10000, where the KKT matrix
        // alone would need gigabytes.
        let dense = (n <= 1000).then(|| {
            let dense_opts = IpmOptions {
                force_dense_kkt: true,
                ..Default::default()
            };
            let nlp = BlockPartitionNlp::new(curves(n, 1.0));
            let t0 = Instant::now();
            let dsol = solve(&nlp, &dense_opts).expect("dense solve");
            (t0.elapsed(), dsol.iterations)
        });

        // Rebalance scenario: 3% model drift, re-solved cold vs warm.
        let drifted = BlockPartitionNlp::new(curves(n, 1.03));
        let cold = solve(&drifted, &opts).expect("cold re-solve");
        let warm = solve_warm(&drifted, &opts, Some(&WarmStart::from_solution(&sol)))
            .expect("warm re-solve");

        let (dense_str, dense_iters) = match dense {
            Some((d, it)) => (
                format!("{:>10.1} us", d.as_secs_f64() * 1e6),
                format!("{it}"),
            ),
            None => ("- (too big)".to_string(), "-".to_string()),
        };
        println!(
            "{:>7} | {:>10.1} us {:>6} {:>10?} | {:>13} {:>6} | {:>10} {:>10}",
            n,
            structured.as_secs_f64() * 1e6,
            sol.iterations,
            sol.status,
            dense_str,
            dense_iters,
            cold.iterations,
            warm.iterations,
        );
    }
}
