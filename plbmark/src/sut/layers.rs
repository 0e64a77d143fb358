//! One microbenchmark per layer, each through a public function of the
//! layer's crate and at the sizes the workloads use. They run only in
//! the traced run and feed no end-to-end number.

use super::{machines, run_sim, Checkpointing, PolicyKind, SimSetup, SimTrace, NOISE_SIGMA};
use crate::spans::Shared;
use crate::stats::{derive_seed, median, splitmix64};
use plb_apps::blackscholes::BsData;
use plb_apps::{BlackScholes, BsCodelet, Spmv};
use plb_hec::PerfProfile;
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::{ClusterSim, PuId, PuKind};
use plb_ipm::nlp::FnCurve;
use plb_ipm::{solve, solve_warm, BlockPartitionNlp, BoxedCurve, IpmOptions, WarmStart};
use plb_numerics::fit_best_model;
use plb_runtime::events::EventKind;
use plb_runtime::{
    checkpoint, equal_cost_shards, Codelet, EventSink, FixedBlockPolicy, PuResources, SimEngine,
    Weights, WorkPool,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One per-layer number: its name (`<crate>.<module>.<metric>`; the
/// unit is in `metrics::PER_LAYER`), the value (a median over timings,
/// or a count) and the number of timings or operations behind it.
pub type Layer = (&'static str, f64, usize);

/// Seconds `f` takes.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median seconds of `reps` calls of `f`.
fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).0).collect();
    median(&samples)
}

/// The selection problem at `n` units, as `crates/bench` poses it: 64
/// speed grades, a fixed overhead, a linear rate and a mild quadratic
/// term, in shares normalized so that times stay O(1 s) at any `n`.
fn selection_problem(n: usize, drift: f64) -> BlockPartitionNlp {
    let k = n as f64;
    let curves = (0..n)
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
        .collect();
    BlockPartitionNlp::new(curves)
}

fn ipm(out: &mut Vec<Layer>) {
    let opts = IpmOptions::default();
    for (name, n, reps) in [
        ("ipm.solve_us_n10", 10, 200),
        ("ipm.solve_us_n500", 500, 20),
    ] {
        let problem = selection_problem(n, 1.0);
        let s = median_s(reps, || solve(&problem, &opts).map(|s| s.iterations));
        out.push((name, s * 1e6, reps));
    }
    // The rebalance case: the models drift 3 % and the selection is
    // solved again, once from scratch and once from the old optimum.
    let drifted = selection_problem(10, 1.03);
    let cold = solve(&drifted, &opts).map_or(0, |s| s.iterations);
    let warm = solve(&selection_problem(10, 1.0), &opts)
        .ok()
        .map(|s| WarmStart::from_solution(&s))
        .and_then(|w| solve_warm(&drifted, &opts, Some(&w)).ok())
        .map_or(0, |s| s.iterations);
    for (name, value) in [("ipm.iters_cold", cold), ("ipm.iters_warm", warm)] {
        out.push((name, value as f64, 1));
    }
}

/// Curve fitting on the profiles the modeling phase would collect:
/// eight probe blocks of doubling size on every unit of the paper's
/// four machines, timed by the simulated devices themselves.
fn fits(seed: u64, out: &mut Vec<Layer>) {
    let cost = BlackScholes::new(500_000).cost();
    let mut cluster = ClusterSim::build(
        &machines(4),
        &ClusterOptions {
            seed,
            noise_sigma: NOISE_SIGMA,
            ..Default::default()
        },
    );
    let profiles: Vec<Vec<(u64, f64, f64)>> = (0..cluster.len())
        .map(|pu| {
            let dev = cluster.device_mut(PuId(pu));
            (0..8)
                .map(|k| {
                    let items = 782u64 << k;
                    (
                        items,
                        dev.proc_time(&cost, items),
                        dev.transfer_time(&cost, items),
                    )
                })
                .collect()
        })
        .collect();
    let reps = 40;
    let mut curve_s = Vec::new();
    let mut profile_s = Vec::new();
    for samples in &profiles {
        let points: Vec<(f64, f64)> = samples.iter().map(|&(x, p, _)| (x as f64, p)).collect();
        for _ in 0..reps {
            curve_s.push(timed(|| black_box(fit_best_model(&points).is_ok())).0);
            profile_s.push(
                timed(|| {
                    let mut profile = PerfProfile::new();
                    for &(items, proc, xfer) in samples {
                        profile.record(items, proc, xfer);
                    }
                    black_box(profile.fit().is_ok())
                })
                .0,
            );
        }
    }
    out.push((
        "numerics.curvefit.fit_us",
        median(&curve_s) * 1e6,
        curve_s.len(),
    ));
    out.push((
        "hec.profile.fit_us",
        median(&profile_s) * 1e6,
        profile_s.len(),
    ));
}

/// The driver and the simulator backend under a policy that costs
/// nothing: wall time per task at the two roster sizes. Their ratio
/// shows what the driver's per-poll scans over all units cost.
fn drive(seed: u64, out: &mut Vec<Layer>) {
    for (name, n_machines, options) in [
        ("runtime.core.drive_us_per_task_n10", 4, 500_000u64),
        ("runtime.core.drive_us_per_task_n500", 200, 5_000_000),
    ] {
        let cost = BlackScholes::new(options).cost();
        let specs = machines(n_machines);
        let mut tasks = 0;
        let reps = 5;
        let s = median_s(reps, || {
            let mut cluster = ClusterSim::build(
                &specs,
                &ClusterOptions {
                    seed,
                    noise_sigma: NOISE_SIGMA,
                    ..Default::default()
                },
            );
            let mut policy = FixedBlockPolicy { block: 100 };
            let report = SimEngine::new(&mut cluster, &cost).run(&mut policy, options);
            tasks = report.map_or(0, |r| r.tasks);
        });
        out.push((name, s * 1e6 / tasks.max(1) as f64, reps * tasks));
    }
}

/// Nanoseconds per call of `claim` until it returns `None`.
fn drain(mut claim: impl FnMut() -> Option<(u64, u64)>) -> (f64, usize) {
    let mut claims = 0usize;
    let (s, ()) = timed(|| {
        while let Some(range) = claim() {
            black_box(range);
            claims += 1;
        }
    });
    (s * 1e9 / claims.max(1) as f64, claims)
}

fn pool_and_weights(seed: u64, out: &mut Vec<Layer>) {
    const ROWS: u64 = 4_000_000;
    const CLAIMS: u64 = 65_536;

    // The weights of the cluster workload's own matrix.
    let (spmv_s, weights) = timed(|| Spmv::new(ROWS, 0.8, seed).map(|app| app.weights()));
    let Ok(weights) = weights else { return };
    out.push(("apps.spmv.weights_ms", spmv_s * 1e3, 1));
    let costs: Vec<u64> = (0..ROWS).map(|i| weights.cost(i, 1)).collect();
    let reps = 5;
    let build_s = median_s(reps, || Weights::per_item(costs.iter().copied()));
    out.push(("runtime.weights.build_ms", build_s * 1e3, reps));
    let total_cost = weights.total_cost(ROWS);
    let budget = total_cost / CLAIMS;

    let lookups = 1_000_000u64;
    let (s, ()) = timed(|| {
        let mut x = seed;
        for _ in 0..lookups {
            x = splitmix64(x);
            let offset = x % ROWS;
            black_box(weights.items_for_budget(offset, ROWS - offset, budget));
        }
    });
    out.push((
        "runtime.weights.items_for_budget_ns",
        s * 1e9 / lookups as f64,
        lookups as usize,
    ));

    // Uniform claims at sim-scale's pool size, weighted claims at
    // sim-cluster's, both with at least 65 536 claims per drain.
    let uniform_items = 50_000_000u64;
    let mut pool = WorkPool::new(uniform_items);
    let (ns, claims) = drain(|| pool.take(uniform_items / CLAIMS));
    out.push(("runtime.pool.claim_ns_uniform", ns, claims));
    let mut pool = WorkPool::with_weights(ROWS, Arc::clone(&weights));
    let (ns, claims) = drain(|| pool.take(budget));
    out.push(("runtime.pool.claim_ns_weighted", ns, claims));

    // Shard-scoped claims over a pool in the state a node crash leaves
    // it in: cut at the home-shard bounds, then a few hundred chunks of
    // one shard claimed and handed back.
    let bounds = equal_cost_shards(ROWS, 4, &weights);
    let mut pool = WorkPool::with_weights(ROWS, Arc::clone(&weights));
    pool.fragment(&bounds);
    let shard = |k: usize| {
        let lo = if k == 0 { 0 } else { bounds[k - 1] };
        (lo, bounds.get(k).copied().unwrap_or(ROWS))
    };
    let (lo, hi) = shard(1);
    let lost: Vec<(u64, u64)> = (0..256)
        .filter_map(|_| pool.take_within(lo, hi, budget))
        .collect();
    for (offset, items) in lost {
        pool.reclaim(offset, items);
    }
    let mut turn = 0usize;
    let (ns, claims) = drain(|| {
        // Round-robin over the shards, as four nodes would claim;
        // a drained shard yields `None` only when all four have.
        (0..4).find_map(|_| {
            turn += 1;
            let (lo, hi) = shard(turn % 4);
            pool.take_within(lo, hi, budget)
        })
    });
    out.push(("runtime.pool.take_within_ns", ns, claims));
}

fn events(out: &mut Vec<Layer>) {
    let records = 1_000_000u64;
    let mut sink = EventSink::default();
    let (s, ()) = timed(|| {
        for i in 0..records {
            sink.record(
                i as f64 * 1e-6,
                Some((i % 16) as usize),
                EventKind::TaskSubmit {
                    task: i,
                    items: 64,
                    cost: 64,
                },
            );
        }
    });
    black_box(sink.recorded());
    out.push((
        "runtime.events.record_ns",
        s * 1e9 / records as f64,
        records as usize,
    ));
}

/// Save and load a snapshot captured mid-run, at both roster sizes.
/// Every file stays under `dir`.
fn checkpoints(seed: u64, dir: &Path, out: &mut Vec<Layer>) {
    // (names, workload, snapshot interval, tasks before the grab): a
    // PLB-HeC run is about 90 tasks at 10 units and 6000 at 500.
    let cases: [([&'static str; 3], SimSetup, u64, u64); 2] = [
        (
            [
                "runtime.checkpoint.save_us_n10",
                "runtime.checkpoint.load_us_n10",
                "runtime.checkpoint.bytes_n10",
            ],
            SimSetup::scale(500_000, 4, 782),
            16,
            48,
        ),
        (
            [
                "runtime.checkpoint.save_us_n500",
                "runtime.checkpoint.load_us_n500",
                "runtime.checkpoint.bytes_n500",
            ],
            SimSetup::scale(50_000_000, 200, 1000),
            1000,
            2500,
        ),
    ];
    for ([save_name, load_name, bytes_name], setup, interval_tasks, grab_after_tasks) in cases {
        let file = dir.join("layers.ckpt");
        let copy = dir.join("layers-midrun.ckpt");
        let _ = std::fs::remove_file(&copy);
        let run = run_sim(
            &setup,
            PolicyKind::PlbHec,
            seed,
            &SimTrace {
                rec: Some(&Shared::new()),
                checkpoint: Some(Checkpointing {
                    file: &file,
                    interval_tasks,
                    grab_after_tasks,
                    copy: &copy,
                }),
            },
        );
        let reps = 20;
        let loaded = checkpoint::load(&copy);
        let (save_s, load_s, bytes) = match (&run.failure, &loaded) {
            (None, Ok(snapshot)) => (
                median_s(reps, || checkpoint::save(&file, snapshot).is_ok()),
                median_s(reps, || checkpoint::load(&file).is_ok()),
                std::fs::metadata(&file).map_or(0, |m| m.len()),
            ),
            // No mid-run snapshot: report zeros rather than a made-up
            // timing; the run's own failure is reported by its workload.
            _ => (0.0, 0.0, 0),
        };
        for path in [&file, &copy] {
            let _ = std::fs::remove_file(path);
        }
        out.push((save_name, save_s * 1e6, reps));
        out.push((load_name, load_s * 1e6, reps));
        out.push((bytes_name, bytes as f64, reps));
    }
}

fn simulator(seed: u64, out: &mut Vec<Layer>) {
    let opts = ClusterOptions {
        seed,
        noise_sigma: NOISE_SIGMA,
        ..Default::default()
    };
    for (name, n, reps) in [
        ("hetsim.cluster.build_us_m4", 4, 200),
        ("hetsim.cluster.build_us_m200", 200, 20),
    ] {
        let specs = machines(n);
        let s = median_s(reps, || ClusterSim::build(&specs, &opts).len());
        out.push((name, s * 1e6, reps));
    }
    let cost = BlackScholes::new(500_000).cost();
    let mut cluster = ClusterSim::build(&machines(4), &opts);
    let calls = 1_000_000u64;
    let units = cluster.len() as u64;
    let (s, ()) = timed(|| {
        for i in 0..calls {
            let dev = cluster.device_mut(PuId((i % units) as usize));
            black_box(dev.proc_time(&cost, 782 + i % 1024));
        }
    });
    out.push((
        "hetsim.cluster.proc_time_ns",
        s * 1e9 / calls as f64,
        calls as usize,
    ));
}

/// The Black-Scholes kernel as the host engine calls it, on this
/// thread alone: the plain single-threaded baseline of `host-bs`.
fn kernel(seed: u64, out: &mut Vec<Layer>) {
    let options = 1_000_000usize;
    let codelet = BsCodelet::new(Arc::new(BsData::generate(options, seed)));
    let res = PuResources {
        threads: 1,
        kind: PuKind::Cpu,
    };
    let reps = 5;
    let s = median_s(reps, || codelet.execute(0..options as u64, &res));
    out.push(("apps.blackscholes.items_per_s_1t", options as f64 / s, reps));
}

/// Every workload-independent per-layer number. `dir` is where the
/// checkpoint files go.
pub fn measure(seed: u64, dir: &Path) -> Vec<Layer> {
    let mut out = Vec::new();
    let seed = |stream: u64| derive_seed(seed, 0x4C41_5945, stream);
    fits(seed(0), &mut out);
    ipm(&mut out);
    drive(seed(1), &mut out);
    pool_and_weights(seed(2), &mut out);
    events(&mut out);
    checkpoints(seed(3), dir, &mut out);
    simulator(seed(4), &mut out);
    kernel(seed(5), &mut out);
    out
}
