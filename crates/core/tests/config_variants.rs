//! Behavioral coverage for the configuration variants: fit modes,
//! probe schedules, and the HDSS probe-rescale flag.

use plb_hec::{FitMode, PerfProfile, PlbHecPolicy, PolicyConfig, ProbeSchedule};
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
use plb_runtime::SimEngine;

fn heavy() -> LinearCost {
    LinearCost {
        label: "heavy".into(),
        flops_per_item: 1e5,
        in_bytes_per_item: 64.0,
        out_bytes_per_item: 16.0,
        threads_per_item: 64.0,
    }
}

#[test]
fn fit_modes_produce_the_requested_families() {
    let mut p = PerfProfile::new();
    // Mildly curved data (log-saturating flavour).
    for &x in &[100u64, 200, 400, 800, 1600, 3200] {
        let xf = x as f64;
        p.record(x, 0.01 + 2e-6 * xf + 0.003 * (xf / 100.0).ln(), 0.0);
    }
    let linear = p.fit_with(FitMode::LinearOnly).unwrap();
    assert_eq!(linear.f.basis().describe(), "a0*1 + a1*x");
    let log = p.fit_with(FitMode::LogOnly).unwrap();
    assert_eq!(log.f.basis().describe(), "a0*1 + a1*ln(x)");
    let best = p.fit_with(FitMode::BestSubset).unwrap();
    // The best-subset fit must be at least as good as either restricted
    // family.
    assert!(best.f.r2() >= linear.f.r2() - 1e-12);
    assert!(best.f.r2() >= log.f.r2() - 1e-12);
}

#[test]
fn every_fit_mode_completes_a_full_run() {
    for mode in [FitMode::BestSubset, FitMode::LinearOnly, FitMode::LogOnly] {
        let machines = cluster_scenario(Scenario::Two, false);
        let mut cluster = ClusterSim::build(
            &machines,
            &ClusterOptions {
                seed: 4,
                noise_sigma: 0.02,
                ..Default::default()
            },
        );
        let cost = heavy();
        let cfg = PolicyConfig {
            initial_block: 1_000,
            fit_mode: mode,
            ..Default::default()
        };
        let mut policy = PlbHecPolicy::new(&cfg);
        let report = SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 1_000_000)
            .unwrap();
        assert_eq!(report.total_items, 1_000_000, "{mode:?}");
    }
}

#[test]
fn equal_probe_schedule_costs_more_modeling_time_on_heterogeneous_units() {
    let run = |schedule: ProbeSchedule| {
        let machines = cluster_scenario(Scenario::Two, false);
        let mut cluster = ClusterSim::build(
            &machines,
            &ClusterOptions {
                seed: 7,
                noise_sigma: 0.0,
                ..Default::default()
            },
        );
        let cost = heavy();
        let cfg = PolicyConfig {
            initial_block: 2_000,
            probe_schedule: schedule,
            ..Default::default()
        };
        let mut policy = PlbHecPolicy::new(&cfg);
        SimEngine::new(&mut cluster, &cost)
            .run(&mut policy, 2_000_000)
            .unwrap()
            .makespan
    };
    let rescaled = run(ProbeSchedule::ExponentialRescaled);
    let equal = run(ProbeSchedule::ExponentialEqual);
    // Both complete; on this spread the rescaled schedule should not be
    // meaningfully slower (it was designed to cut the probing cost).
    assert!(
        rescaled <= equal * 1.1,
        "rescaled {rescaled:.4}s should not lose to equal {equal:.4}s"
    );
}
