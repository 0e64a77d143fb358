//! Cross-crate integration: the simulator is deterministic given a seed
//! — the property every experiment in EXPERIMENTS.md rests on — and
//! seeds actually matter.
//!
//! The virtual clock charges a *deterministic* model of the scheduler's
//! own computation cost (the measured block-size solve wall times are
//! recorded separately for reporting), so entire runs replay
//! bit-for-bit.

use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, Scenario};
use plb_hec_suite::plb::{PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{RunReport, SimEngine};

fn run_seeded(seed: u64) -> RunReport {
    let machines = cluster_scenario(Scenario::Three, false);
    let mut cluster = ClusterSim::build(
        &machines,
        &ClusterOptions {
            seed,
            noise_sigma: 0.05,
            ..Default::default()
        },
    );
    let cost = plb_hec_suite::apps::BlackScholes::new(150_000).cost();
    let cfg = PolicyConfig::default().with_initial_block(1_000);
    let mut policy = PlbHecPolicy::new(&cfg);
    SimEngine::new(&mut cluster, &cost)
        .run(&mut policy, 150_000)
        .unwrap()
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let a = run_seeded(17);
    let b = run_seeded(17);
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "makespan must be bit-identical"
    );
    assert_eq!(a.tasks, b.tasks);
    for (x, y) in a.pus.iter().zip(&b.pus) {
        assert_eq!(x.items, y.items, "work assignment must be deterministic");
        assert_eq!(
            x.busy_s.to_bits(),
            y.busy_s.to_bits(),
            "device timings must be bit-identical"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_seeded(1);
    let b = run_seeded(2);
    assert_ne!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "different noise seeds should perturb the timing"
    );
}

#[test]
fn ten_run_protocol_has_small_dispersion() {
    // The paper reports small standard deviations over its 10 runs on
    // dedicated machines; our 3% noise model must reproduce that.
    let makespans: Vec<f64> = (0..10).map(|s| run_seeded(s).makespan).collect();
    let mean = plb_hec_suite::numerics::mean(&makespans);
    let std = plb_hec_suite::numerics::stats::sample_stddev(&makespans);
    assert!(
        std / mean < 0.12,
        "relative dispersion {:.1}% too large for a dedicated cluster",
        100.0 * std / mean
    );
}
