//! Generators for every table and figure of the paper's evaluation.
//!
//! Each function returns the rendered markdown plus machine-readable
//! tables; the `repro` binary writes them under `results/`.

use crate::harness::{default_initial_block, run_many, run_once, App, PolicyKind};
use crate::report::fmt_secs;
use plb_hec::{FitMode, PlbHecPolicy, PolicyConfig, ProbeSchedule, SolverChoice};
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::{cluster_scenario, machine_a, ClusterSim, DevicePerf, PuId, Scenario};
use plb_numerics::fit_best_model;
use plb_runtime::{Perturbation, PerturbationKind, SimEngine, Table};

/// The sizes plotted per app family in Figs. 6 and 7 ("two different
/// input sizes for each").
const FIG67_APPS: [App; 6] = [
    App::MatMul(4096),
    App::MatMul(65536),
    App::Grn(60_000),
    App::Grn(140_000),
    App::BlackScholes(100_000),
    App::BlackScholes(500_000),
];

/// Table I: the machine configurations.
pub fn table1() -> (String, Vec<Table>) {
    let mut t = Table::new(
        "Table I — machine configurations",
        &[
            "Machine",
            "CPU",
            "Cores/Clock",
            "RAM",
            "GPU",
            "Cores/SMs",
            "Mem BW",
            "GPU Mem",
        ],
    );
    for m in cluster_scenario(Scenario::Four, false) {
        for (gi, g) in m.gpus.iter().enumerate() {
            t.push_row(vec![
                if gi == 0 {
                    m.name.clone()
                } else {
                    String::new()
                },
                if gi == 0 {
                    m.cpu.name.clone()
                } else {
                    String::new()
                },
                if gi == 0 {
                    format!("{} cores @ {} GHz", m.cpu.cores, m.cpu.clock_ghz)
                } else {
                    String::new()
                },
                if gi == 0 {
                    format!("{} GB", m.cpu.ram_gb)
                } else {
                    String::new()
                },
                g.name.clone(),
                format!("{} / {} SMs", g.cuda_cores, g.sms),
                format!("{} GB/s", g.mem_bandwidth_gbs),
                format!("{} GB", g.mem_gb),
            ]);
        }
    }
    (t.to_markdown(), vec![t])
}

/// Fig. 1: measured execution times and fitted performance models for
/// the Black-Scholes and MM kernels on machine A's CPU and GPU.
pub fn fig1() -> (String, Vec<Table>) {
    let mut md = String::from("## Fig. 1 — execution times and performance models\n\n");
    let mut tables = Vec::new();
    let machine = machine_a();
    let apps: [(&str, App, Vec<u64>); 2] = [
        (
            "Black-Scholes",
            App::BlackScholes(500_000),
            vec![
                1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
            ],
        ),
        (
            "Matrix multiplication (n=16384)",
            App::MatMul(16384),
            vec![64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192],
        ),
    ];
    for (label, app, sizes) in apps {
        let cost = app.inputs().cost;
        for (dev_label, perf) in [
            ("CPU", DevicePerf::for_cpu(&machine.cpu)),
            ("GPU", DevicePerf::for_gpu(&machine.gpus[0])),
        ] {
            let samples: Vec<(f64, f64)> = sizes
                .iter()
                .map(|&b| {
                    let t = perf.kernel_time(cost.flops(b), cost.bytes_touched(b), cost.threads(b));
                    (b as f64, t)
                })
                .collect();
            let fit = fit_best_model(&samples).expect("clean curves fit");
            let mut t = Table::new(
                &format!("{label} on {dev_label} ({})", fit.describe()),
                &["block size", "measured time", "model time"],
            );
            for &(x, y) in &samples {
                t.push_row(vec![format!("{x:.0}"), fmt_secs(y), fmt_secs(fit.eval(x))]);
            }
            md.push_str(&t.to_markdown());
            tables.push(t);
        }
    }
    md.push_str(
        "GPU curves are sub-linear at small blocks (occupancy ramp) and the \
         CPU curves near-affine, matching the paper's Fig. 1 shapes.\n",
    );
    (md, tables)
}

/// Fig. 3: the rebalancing Gantt chart. A mid-run slowdown on one unit
/// trips the 10 % threshold; the chart shows the synchronization and the
/// new block sizes afterward.
pub fn fig3() -> (String, Vec<Table>) {
    let app = App::MatMul(16384);
    let machines = cluster_scenario(Scenario::Two, true);
    let opts = ClusterOptions {
        seed: 0,
        noise_sigma: 0.01,
        ..Default::default()
    };
    let mut cluster = ClusterSim::build(&machines, &opts);
    let cost = app.inputs().cost;
    // Smaller execution rounds than the default: QoS drift is detected
    // when the slowed unit's current block completes, so finer blocks
    // give the demo a timely detection (the trade-off the paper's
    // threshold discussion describes).
    let cfg = PolicyConfig {
        initial_block: default_initial_block(app.total_items(), cost.as_ref()),
        ..Default::default()
    }
    .with_round_fraction(0.12);
    // Baseline run to size the drift time: the perturbation must land
    // mid-execution (inside modeling it is absorbed into the fits; near
    // the end nothing is left to redistribute).
    let baseline = {
        let mut c = ClusterSim::build(&machines, &opts);
        let mut p = PlbHecPolicy::new(&cfg);
        SimEngine::new(&mut c, cost.as_ref())
            .run(&mut p, app.total_items())
            .expect("baseline run completes")
            .makespan
    };
    let mut policy = PlbHecPolicy::new(&cfg);
    let mut engine =
        SimEngine::new(&mut cluster, cost.as_ref()).with_perturbations(vec![Perturbation {
            at: 0.45 * baseline,
            kind: PerturbationKind::SetSlowdown(PuId(1), 5.0),
        }]);
    let report = engine
        .run(&mut policy, app.total_items())
        .expect("fig3 run completes");
    let trace = engine.last_trace().expect("trace recorded");
    let names: Vec<String> = report.pus.iter().map(|p| p.name.clone()).collect();
    let gantt = trace.ascii_gantt(&names, 100);

    let mut md = String::from("## Fig. 3 — execution and rebalancing Gantt\n\n");
    md.push_str(&format!(
        "Machine scenario {{A, B}} (one GPU each), MM 16384. At t = {:.2} s \
         (mid-execution) the A/gpu0 unit slows 5x (QoS drift); its next \
         block overshoots the fitted model by far more than the 10% \
         threshold and PLB-HeC rebalances ({} rebalance(s) performed).\n\n\
         ```text\n{}```\n\n(`#` compute, `-` transfer, `.` idle)\n",
        0.45 * baseline,
        policy.rebalances(),
        gantt
    ));
    let mut t = Table::new("Fig. 3 run summary", &["metric", "value"]);
    t.push_row(vec!["makespan".into(), fmt_secs(report.makespan)]);
    t.push_row(vec!["rebalances".into(), policy.rebalances().to_string()]);
    t.push_row(vec![
        "selections".into(),
        policy.selections().len().to_string(),
    ]);
    md.push_str(&t.to_markdown());
    (md, vec![t])
}

/// Shared machinery for Figs. 4 and 5: execution time and speedup
/// tables over (sizes × scenarios × policies).
fn exec_time_figure(title: &str, apps: &[App], seeds: u64) -> (String, Vec<Table>) {
    let mut md = format!("## {title}\n\n");
    let mut tables = Vec::new();
    let mut time_table = Table::new(
        &format!("{title}: mean execution time over {seeds} runs"),
        &["app", "machines", "plb-hec", "acosta", "hdss", "greedy"],
    );
    let mut speedup_table = Table::new(
        &format!("{title}: speedup vs greedy"),
        &["app", "machines", "plb-hec", "acosta", "hdss"],
    );
    for &app in apps {
        for scenario in Scenario::ALL {
            let mut means = std::collections::HashMap::new();
            for kind in PolicyKind::ALL {
                let agg = run_many(app, scenario, false, kind, seeds);
                means.insert(kind.label(), agg.mean_makespan);
            }
            let greedy = means["greedy"];
            time_table.push_row(vec![
                app.label(),
                scenario.machines().to_string(),
                fmt_secs(means["plb-hec"]),
                fmt_secs(means["acosta"]),
                fmt_secs(means["hdss"]),
                fmt_secs(greedy),
            ]);
            speedup_table.push_row(vec![
                app.label(),
                scenario.machines().to_string(),
                format!("{:.2}", greedy / means["plb-hec"]),
                format!("{:.2}", greedy / means["acosta"]),
                format!("{:.2}", greedy / means["hdss"]),
            ]);
        }
    }
    md.push_str(&time_table.to_markdown());
    md.push_str(&speedup_table.to_markdown());
    tables.push(time_table);
    tables.push(speedup_table);
    (md, tables)
}

/// Fig. 4: MM and GRN execution times and speedups.
pub fn fig4(seeds: u64) -> (String, Vec<Table>) {
    let apps: Vec<App> = plb_apps::paper_inputs::MM_SIZES
        .iter()
        .map(|&n| App::MatMul(n))
        .chain(
            plb_apps::paper_inputs::GRN_SIZES
                .iter()
                .map(|&n| App::Grn(n)),
        )
        .collect();
    exec_time_figure("Fig. 4 — MM and GRN execution time / speedup", &apps, seeds)
}

/// Fig. 5: Black-Scholes execution times and speedups.
pub fn fig5(seeds: u64) -> (String, Vec<Table>) {
    let apps: Vec<App> = plb_apps::paper_inputs::BS_SIZES
        .iter()
        .map(|&n| App::BlackScholes(n))
        .collect();
    exec_time_figure(
        "Fig. 5 — Black-Scholes execution time / speedup",
        &apps,
        seeds,
    )
}

/// Fig. 6: block-size distribution across the 8 processing units
/// (4 machines × CPU+GPU) for Acosta, HDSS and PLB-HeC.
pub fn fig6(seeds: u64) -> (String, Vec<Table>) {
    let mut md = String::from(
        "## Fig. 6 — block size distribution per processing unit\n\n\
         Machines A-D, one GPU each; values are each unit's fraction of \
         one distribution step (mean ± sample σ over seeds).\n\n",
    );
    let mut tables = Vec::new();
    for &app in &FIG67_APPS {
        let mut t = Table::new(
            &format!("{} block distribution", app.label()),
            &[
                "policy", "A/cpu", "A/gpu", "B/cpu", "B/gpu", "C/cpu", "C/gpu", "D/cpu", "D/gpu",
            ],
        );
        for kind in [PolicyKind::Acosta, PolicyKind::Hdss, PolicyKind::PlbHec] {
            let agg = run_many(app, Scenario::Four, true, kind, seeds);
            let mean = agg
                .mean_block_distribution()
                .unwrap_or_else(|| agg.mean_item_shares());
            let std = agg
                .std_block_distribution()
                .unwrap_or_else(|| vec![0.0; mean.len()]);
            let mut row = vec![kind.label().to_string()];
            for i in 0..mean.len() {
                row.push(format!("{:.3} ± {:.3}", mean[i], std[i]));
            }
            t.push_row(row);
        }
        md.push_str(&t.to_markdown());
        tables.push(t);
    }
    (md, tables)
}

/// Fig. 7: per-unit idle time as a fraction of total execution, PLB-HeC
/// vs HDSS.
pub fn fig7(seeds: u64) -> (String, Vec<Table>) {
    let mut md = String::from("## Fig. 7 — processing unit idle time (fraction of makespan)\n\n");
    let mut tables = Vec::new();
    for &app in &FIG67_APPS {
        let mut t = Table::new(
            &format!("{} idle fractions", app.label()),
            &[
                "policy", "A/cpu", "A/gpu", "B/cpu", "B/gpu", "C/cpu", "C/gpu", "D/cpu", "D/gpu",
                "mean",
            ],
        );
        for kind in [PolicyKind::PlbHec, PolicyKind::Hdss] {
            let agg = run_many(app, Scenario::Four, true, kind, seeds);
            let idle = agg.mean_idle_fractions();
            let mean_idle: f64 = idle.iter().sum::<f64>() / idle.len() as f64;
            let mut row = vec![kind.label().to_string()];
            for v in &idle {
                row.push(format!("{:.1}%", v * 100.0));
            }
            row.push(format!("{:.1}%", mean_idle * 100.0));
            t.push_row(row);
        }
        md.push_str(&t.to_markdown());
        tables.push(t);
    }
    (md, tables)
}

/// The Section V statistic: cost of the block-size calculation (paper,
/// with IPOPT: 170 ms ± 32.3 ms, 4 machines, MM 65536).
pub fn ipmcost(seeds: u64) -> (String, Vec<Table>) {
    let mut solve_times = Vec::new();
    for seed in 0..seeds {
        let o = run_once(
            App::MatMul(65536),
            Scenario::Four,
            false,
            PolicyKind::PlbHec,
            seed,
            vec![],
        );
        solve_times.extend(o.solve_times);
    }
    let mean = plb_numerics::mean(&solve_times);
    let std = plb_numerics::stats::sample_stddev(&solve_times);
    let mut t = Table::new(
        "Block-size solve cost (4 machines, MM 65536)",
        &["metric", "this reproduction", "paper (IPOPT)"],
    );
    t.push_row(vec!["mean".into(), fmt_secs(mean), "170 ms".into()]);
    t.push_row(vec!["std".into(), fmt_secs(std), "32.3 ms".into()]);
    t.push_row(vec![
        "samples".into(),
        solve_times.len().to_string(),
        "-".into(),
    ]);
    let md = format!(
        "## Block-size solve cost\n\n{}The absolute numbers differ (one Newton root on the \
         common time vs IPOPT on the whole NLP), but both are orders of magnitude below the \
         multi-second application makespans, matching the paper's conclusion that the \
         better distribution amortizes the solver cost.\n",
        t.to_markdown()
    );
    (md, vec![t])
}

/// Ablation studies called out in DESIGN.md.
pub fn ablations(seeds: u64) -> (String, Vec<Table>) {
    let mut md = String::from(
        "## Ablations\n\nWorkload: a synthetic kernel whose execution blocks sit on the \
         GPU occupancy ramp — the regime where curve quality and solver \
         quality actually change the distribution (fully saturated \
         workloads linearize and are insensitive to both, which is \
         itself an ablation finding recorded here).\n\n",
    );
    let mut tables = Vec::new();
    // One thread per item and substantial per-item work: execution
    // blocks of ~10-20k items expose only 10-20k threads, well below
    // the big GPUs' ~40k-thread half-occupancy points.
    let ramp_cost = || plb_hetsim::workload::LinearCost {
        label: "ramp".into(),
        flops_per_item: 2e5,
        in_bytes_per_item: 64.0,
        out_bytes_per_item: 8.0,
        threads_per_item: 1.0,
    };
    let scenario = Scenario::Four;
    let total: u64 = 400_000;

    let run_cfg = |cfg: PolicyConfig, perturb: Vec<Perturbation>| -> (f64, usize) {
        let mut makespans = Vec::new();
        let mut rebalances = 0;
        for seed in 0..seeds {
            let machines = cluster_scenario(scenario, false);
            let opts = ClusterOptions {
                seed,
                noise_sigma: 0.02,
                ..Default::default()
            };
            let mut cluster = ClusterSim::build(&machines, &opts);
            let cost = ramp_cost();
            let mut policy = PlbHecPolicy::new(&cfg);
            let mut engine =
                SimEngine::new(&mut cluster, &cost).with_perturbations(perturb.clone());
            let r = engine
                .run(&mut policy, total)
                .expect("ablation run completes");
            makespans.push(r.makespan);
            rebalances += policy.rebalances();
        }
        (plb_numerics::mean(&makespans), rebalances)
    };

    // The thread-aware floor of `default_initial_block` would demand
    // 100k-item probes here (one thread per item); the ramp workload
    // deliberately underfills devices, so size probes by data instead.
    let base = PolicyConfig {
        initial_block: (total / 1000).max(1),
        ..Default::default()
    };

    // 1. Curve-family ablation.
    let mut t = Table::new(
        "Ablation: model curve family (occupancy-ramp workload, 4 machines)",
        &["fit mode", "mean makespan"],
    );
    for (label, mode) in [
        ("best-subset (paper)", FitMode::BestSubset),
        ("linear only", FitMode::LinearOnly),
        ("log only (HDSS-style)", FitMode::LogOnly),
    ] {
        let cfg = PolicyConfig {
            fit_mode: mode,
            ..base.clone()
        };
        let (m, _) = run_cfg(cfg, vec![]);
        t.push_row(vec![label.into(), fmt_secs(m)]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    // 2. Solver ablation.
    let mut t = Table::new(
        "Ablation: block-size solver (occupancy-ramp workload, 4 machines)",
        &["solver", "mean makespan"],
    );
    for (label, solver) in [
        ("equal-finish root (paper's split)", SolverChoice::Auto),
        (
            "rate-proportional (Acosta-style)",
            SolverChoice::RateProportionalOnly,
        ),
    ] {
        let cfg = PolicyConfig {
            solver,
            ..base.clone()
        };
        let (m, _) = run_cfg(cfg, vec![]);
        t.push_row(vec![label.into(), fmt_secs(m)]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    // 3. Probe-schedule ablation.
    let mut t = Table::new(
        "Ablation: probe schedule (occupancy-ramp workload, 4 machines)",
        &["schedule", "mean makespan"],
    );
    for (label, sched) in [
        (
            "exponential + t_f/t_k rescale (paper)",
            ProbeSchedule::ExponentialRescaled,
        ),
        ("exponential, equal sizes", ProbeSchedule::ExponentialEqual),
    ] {
        let cfg = PolicyConfig {
            probe_schedule: sched,
            ..base.clone()
        };
        let (m, _) = run_cfg(cfg, vec![]);
        t.push_row(vec![label.into(), fmt_secs(m)]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    // 4. Static (prior-profile) vs dynamic distribution under stale
    //    profiles — the paper's Section II argument against its own
    //    ancestor [17].
    {
        use plb_hec::{PerfProfile, StaticProfilePolicy, UnitModel};
        let machines = cluster_scenario(scenario, false);
        // A saturated workload: the static-vs-dynamic question is about
        // *staleness*, so both sides should have good curve shapes (on
        // the ramp workload PLB's own small probes are the bottleneck,
        // which is ablation 3's finding, not this one's).
        let saturated = || plb_hetsim::workload::LinearCost {
            label: "saturated".into(),
            flops_per_item: 1e5,
            in_bytes_per_item: 64.0,
            out_bytes_per_item: 16.0,
            threads_per_item: 64.0,
        };
        let static_cfg = PolicyConfig {
            initial_block: 1_000,
            ..Default::default()
        };
        let cost_for_profiles = saturated();
        let record = |cluster: &mut ClusterSim| -> Vec<UnitModel> {
            cluster
                .ids()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|id| {
                    let mut p = PerfProfile::new();
                    for &b in &[500u64, 1000, 2000, 4000, 8000, 16000] {
                        let d = cluster.device_mut(id);
                        let xfer = d.transfer_time(&cost_for_profiles, b);
                        let proc = d.proc_time(&cost_for_profiles, b);
                        p.record(b, proc, xfer);
                    }
                    p.fit().expect("offline profiles fit")
                })
                .collect()
        };
        let mut t = Table::new(
            "Ablation: static prior-profile distribution [17] vs dynamic PLB-HeC              (profiles recorded on a healthy cluster; the A GPU has since slowed 4x)",
            &["policy", "mean makespan"],
        );
        let mut static_means = Vec::new();
        let mut dynamic_means = Vec::new();
        for seed in 0..seeds {
            let opts = ClusterOptions {
                seed,
                noise_sigma: 0.02,
                ..Default::default()
            };
            let mut profile_cluster = ClusterSim::build(&machines, &opts);
            let models = record(&mut profile_cluster);

            let degraded = || {
                let mut c = ClusterSim::build(&machines, &opts);
                c.device_mut(PuId(1)).set_slowdown(4.0);
                c
            };
            let mut c = degraded();
            let cost = saturated();
            let mut sp = StaticProfilePolicy::from_profiles(&static_cfg, models);
            static_means.push(
                SimEngine::new(&mut c, &cost)
                    .run(&mut sp, total)
                    .expect("static run")
                    .makespan,
            );
            let mut c = degraded();
            let mut dp = PlbHecPolicy::new(&static_cfg);
            dynamic_means.push(
                SimEngine::new(&mut c, &cost)
                    .run(&mut dp, total)
                    .expect("dynamic run")
                    .makespan,
            );
        }
        t.push_row(vec![
            "static-profile [17]".into(),
            fmt_secs(plb_numerics::mean(&static_means)),
        ]);
        t.push_row(vec![
            "plb-hec (dynamic)".into(),
            fmt_secs(plb_numerics::mean(&dynamic_means)),
        ]);
        md.push_str(&t.to_markdown());
        tables.push(t);
    }

    // 5. Probing data budget (the paper's 20% cap) — how much data may
    //    the modeling phase consume before returns diminish?
    let mut t = Table::new(
        "Ablation: modeling data budget (occupancy-ramp workload, 4 machines)",
        &["modeling cap", "mean makespan"],
    );
    for cap in [0.05, 0.10, 0.20, 0.40] {
        let cfg = PolicyConfig {
            modeling_cap_fraction: cap,
            ..base.clone()
        };
        let (m, _) = run_cfg(cfg, vec![]);
        t.push_row(vec![format!("{:.0}%", cap * 100.0), fmt_secs(m)]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    // 6. Execution round granularity: one-shot distribution vs finer
    //    rounds (drift detectability traded against per-task constants).
    let mut t = Table::new(
        "Ablation: execution round fraction (occupancy-ramp workload, 4 machines)",
        &["round fraction", "mean makespan"],
    );
    for rf in [0.1, 0.2, 0.33, 0.5, 1.0] {
        let cfg = PolicyConfig {
            round_fraction: rf,
            ..base.clone()
        };
        let (m, _) = run_cfg(cfg, vec![]);
        t.push_row(vec![format!("{rf:.2}"), fmt_secs(m)]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    // 7. Rebalance-threshold sweep under QoS drift.
    // Size the drift to land mid-execution.
    let (baseline, _) = run_cfg(base.clone(), vec![]);
    let drift = vec![Perturbation {
        at: 0.4 * baseline,
        kind: PerturbationKind::SetSlowdown(PuId(1), 1.5),
    }];
    let mut t = Table::new(
        "Ablation: rebalance threshold under QoS drift (GPU slows 1.5x mid-run)",
        &["threshold", "mean makespan", "total rebalances"],
    );
    for thr in [0.02, 0.05, 0.10, 0.25, 0.50] {
        let cfg = PolicyConfig {
            rebalance_threshold: thr,
            ..base.clone()
        };
        let (m, reb) = run_cfg(cfg, drift.clone());
        t.push_row(vec![
            format!("{:.0}%", thr * 100.0),
            fmt_secs(m),
            reb.to_string(),
        ]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    (md, tables)
}

/// Generate SVG renderings of the reproduced figures (Gantt for Fig. 3,
/// line charts for Figs. 4/5, grouped bars for Figs. 6/7). Returns
/// `(file stem, svg body)` pairs.
pub fn svgs(seeds: u64) -> Vec<(String, String)> {
    use crate::viz::{gantt_svg, grouped_bars_svg, line_chart_svg, Series};
    let mut out = Vec::new();

    // Fig. 3 Gantt: reuse the same drifted scenario.
    {
        let app = App::MatMul(16384);
        let machines = cluster_scenario(Scenario::Two, true);
        let opts = ClusterOptions {
            seed: 0,
            noise_sigma: 0.01,
            ..Default::default()
        };
        let cost = app.inputs().cost;
        let cfg = PolicyConfig {
            initial_block: default_initial_block(app.total_items(), cost.as_ref()),
            ..Default::default()
        }
        .with_round_fraction(0.12);
        let baseline = {
            let mut c = ClusterSim::build(&machines, &opts);
            let mut p = PlbHecPolicy::new(&cfg);
            SimEngine::new(&mut c, cost.as_ref())
                .run(&mut p, app.total_items())
                .unwrap()
                .makespan
        };
        let mut cluster = ClusterSim::build(&machines, &opts);
        let mut policy = PlbHecPolicy::new(&cfg);
        let mut engine =
            SimEngine::new(&mut cluster, cost.as_ref()).with_perturbations(vec![Perturbation {
                at: 0.45 * baseline,
                kind: PerturbationKind::SetSlowdown(PuId(1), 5.0),
            }]);
        let report = engine.run(&mut policy, app.total_items()).unwrap();
        let names: Vec<String> = report.pus.iter().map(|p| p.name.clone()).collect();
        out.push((
            "fig3_gantt".to_string(),
            gantt_svg(
                engine.last_trace().unwrap(),
                &names,
                "Fig. 3 — PLB-HeC rebalancing after mid-run QoS drift (MM 16384, machines A+B)",
            ),
        ));
    }

    // Figs. 4/5 line charts: execution time vs input size, 4 machines.
    let line = |title: &str, apps: &[App], seeds: u64| -> String {
        let x_labels: Vec<String> = apps.iter().map(|a| a.total_items().to_string()).collect();
        let series: Vec<Series> = PolicyKind::ALL
            .iter()
            .map(|&kind| Series {
                label: kind.label().to_string(),
                values: apps
                    .iter()
                    .map(|&a| run_many(a, Scenario::Four, false, kind, seeds).mean_makespan)
                    .collect(),
            })
            .collect();
        line_chart_svg(title, &x_labels, &series, "execution time (s)")
    };
    let mm: Vec<App> = plb_apps::paper_inputs::MM_SIZES
        .iter()
        .map(|&n| App::MatMul(n))
        .collect();
    out.push((
        "fig4_mm".to_string(),
        line("Fig. 4 — MM execution time, 4 machines", &mm, seeds),
    ));
    let grn: Vec<App> = plb_apps::paper_inputs::GRN_SIZES
        .iter()
        .map(|&n| App::Grn(n))
        .collect();
    out.push((
        "fig4_grn".to_string(),
        line("Fig. 4 — GRN execution time, 4 machines", &grn, seeds),
    ));
    let bs: Vec<App> = plb_apps::paper_inputs::BS_SIZES
        .iter()
        .map(|&n| App::BlackScholes(n))
        .collect();
    out.push((
        "fig5_bs".to_string(),
        line(
            "Fig. 5 — Black-Scholes execution time, 4 machines",
            &bs,
            seeds,
        ),
    ));

    // Fig. 6: block-size distribution bars (MM 65536).
    {
        let cats: Vec<String> = [
            "A/cpu", "A/gpu", "B/cpu", "B/gpu", "C/cpu", "C/gpu", "D/cpu", "D/gpu",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let series: Vec<Series> = [PolicyKind::Acosta, PolicyKind::Hdss, PolicyKind::PlbHec]
            .iter()
            .map(|&kind| {
                let agg = run_many(App::MatMul(65536), Scenario::Four, true, kind, seeds);
                Series {
                    label: kind.label().to_string(),
                    values: agg
                        .mean_block_distribution()
                        .unwrap_or_else(|| agg.mean_item_shares()),
                }
            })
            .collect();
        out.push((
            "fig6_distribution".to_string(),
            grouped_bars_svg(
                "Fig. 6 — block size distribution (MM 65536, one GPU per machine)",
                &cats,
                &series,
                "fraction of one step",
            ),
        ));
    }

    // Fig. 7: idle-fraction bars (MM 65536).
    {
        let cats: Vec<String> = [
            "A/cpu", "A/gpu", "B/cpu", "B/gpu", "C/cpu", "C/gpu", "D/cpu", "D/gpu",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let series: Vec<Series> = [PolicyKind::PlbHec, PolicyKind::Hdss]
            .iter()
            .map(|&kind| {
                let agg = run_many(App::MatMul(65536), Scenario::Four, true, kind, seeds);
                Series {
                    label: kind.label().to_string(),
                    values: agg.mean_idle_fractions(),
                }
            })
            .collect();
        out.push((
            "fig7_idleness".to_string(),
            grouped_bars_svg(
                "Fig. 7 — processing unit idle fraction (MM 65536, one GPU per machine)",
                &cats,
                &series,
                "idle fraction of makespan",
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_machines() {
        let (md, tables) = table1();
        for m in ["A", "B", "C", "D"] {
            assert!(md.contains(&format!("| {m} |")), "missing machine {m}");
        }
        // 6 GPU rows: A(1) + B(2) + C(2) + D(1).
        assert_eq!(tables[0].rows.len(), 6);
    }

    #[test]
    fn fig1_produces_four_model_tables() {
        let (md, tables) = fig1();
        assert_eq!(tables.len(), 4);
        assert!(md.contains("R^2"));
    }

    #[test]
    fn fig3_shows_rebalance() {
        let (md, _) = fig3();
        assert!(md.contains("```text"));
        assert!(md.contains("rebalances"));
    }

    #[test]
    fn ipmcost_reports_statistics() {
        let (md, tables) = ipmcost(2);
        assert!(md.contains("170 ms"));
        assert_eq!(tables[0].rows.len(), 3);
    }
}

#[cfg(test)]
mod generator_tests {
    use super::*;

    #[test]
    fn fig4_and_fig5_tables_have_full_grids() {
        let (_, tables) = fig4(1);
        // 10 apps × 4 scenarios rows in each of the two tables.
        assert_eq!(tables[0].rows.len(), 40);
        assert_eq!(tables[1].rows.len(), 40);
        let (_, tables) = fig5(1);
        assert_eq!(tables[0].rows.len(), 20);
    }

    #[test]
    fn fig6_distributions_are_normalized() {
        let (_, tables) = fig6(1);
        assert_eq!(tables.len(), 6); // two sizes per app family
        for t in &tables {
            for row in &t.rows {
                // Columns 1.. hold "mean ± σ" strings; the means must sum
                // to ~1.
                let sum: f64 = row[1..]
                    .iter()
                    .map(|c| c.split('±').next().unwrap().trim().parse::<f64>().unwrap())
                    .sum();
                assert!((sum - 1.0).abs() < 0.02, "{}: sums to {sum}", row[0]);
            }
        }
    }

    #[test]
    fn fig7_idle_fractions_are_percentages() {
        let (_, tables) = fig7(1);
        for t in &tables {
            for row in &t.rows {
                for cell in &row[1..] {
                    let v: f64 = cell.trim_end_matches('%').parse().unwrap();
                    assert!((0.0..=100.0).contains(&v), "{cell}");
                }
            }
        }
    }

    #[test]
    fn svgs_are_wellformed() {
        for (stem, svg) in svgs(1) {
            assert!(svg.starts_with("<svg"), "{stem}");
            assert!(svg.ends_with("</svg>\n"), "{stem}");
        }
    }
}

/// A one-page summary of the headline reproduced results: the numbers
/// EXPERIMENTS.md discusses, regenerated in one call.
pub fn summary(seeds: u64) -> (String, Vec<Table>) {
    let mut md = String::from("# Reproduction summary\n\n");

    // Headline: MM 65536 on 4 machines, all four policies.
    let mut t = Table::new(
        "Headline case — MM 65536, 4 machines (paper: PLB-HeC 2.2x, HDSS 1.2x, Acosta 1.04x vs greedy)",
        &["policy", "mean makespan", "95% CI (±)", "speedup vs greedy"],
    );
    let mut greedy_mean = 0.0;
    let mut rows = Vec::new();
    for kind in [
        PolicyKind::Greedy,
        PolicyKind::Acosta,
        PolicyKind::Hdss,
        PolicyKind::PlbHec,
    ] {
        let agg = run_many(App::MatMul(65536), Scenario::Four, false, kind, seeds);
        if kind == PolicyKind::Greedy {
            greedy_mean = agg.mean_makespan;
        }
        rows.push((kind.label(), agg.mean_makespan, agg.makespan_ci95()));
    }
    for (label, mean, ci) in rows {
        t.push_row(vec![
            label.into(),
            fmt_secs(mean),
            fmt_secs(ci),
            format!("{:.2}x", greedy_mean / mean),
        ]);
    }
    md.push_str(&t.to_markdown());
    let mut tables = vec![t];

    // Crossover: PLB-HeC speedup across MM sizes (greedy wins small,
    // loses big).
    let mut t = Table::new(
        "Crossover — PLB-HeC speedup vs greedy across MM sizes, 4 machines",
        &["matrix order", "speedup"],
    );
    for &n in &plb_apps::paper_inputs::MM_SIZES {
        let plb = run_many(
            App::MatMul(n),
            Scenario::Four,
            false,
            PolicyKind::PlbHec,
            seeds,
        );
        let greedy = run_many(
            App::MatMul(n),
            Scenario::Four,
            false,
            PolicyKind::Greedy,
            seeds,
        );
        t.push_row(vec![
            n.to_string(),
            format!("{:.2}x", greedy.mean_makespan / plb.mean_makespan),
        ]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    // Scaling: PLB-HeC makespan by machine count (BS 500k).
    let mut t = Table::new(
        "Cluster scaling — PLB-HeC makespan, Black-Scholes 500k options",
        &["machines", "mean makespan"],
    );
    for s in Scenario::ALL {
        let agg = run_many(
            App::BlackScholes(500_000),
            s,
            false,
            PolicyKind::PlbHec,
            seeds,
        );
        t.push_row(vec![s.machines().to_string(), fmt_secs(agg.mean_makespan)]);
    }
    md.push_str(&t.to_markdown());
    tables.push(t);

    md.push_str(
        "See `EXPERIMENTS.md` for the full paper-vs-measured discussion and \
         `results/fig*.md` for every table and figure.\n",
    );
    (md, tables)
}
