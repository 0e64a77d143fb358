//! Property-based tests for the PLB-HeC core: the selection is always a
//! valid partition, apportionment conserves items exactly, and the full
//! policy conserves work over arbitrary cluster/workload shapes.

use plb_hec::selection::apportion;
use plb_hec::{
    select_block_sizes, PerfProfile, PlbHecPolicy, PolicyConfig, SolverChoice, UnitModel,
};
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
use plb_runtime::SimEngine;
use proptest::prelude::*;

/// Build a unit model for an affine device: t = overhead + items/rate.
fn affine_model(rate: f64, overhead: f64) -> UnitModel {
    let mut p = PerfProfile::new();
    for &x in &[500u64, 1000, 2000, 4000, 8000, 16000] {
        p.record(x, overhead + x as f64 / rate, 1e-5 + 1e-9 * x as f64);
    }
    p.fit().expect("clean affine data fits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apportion_conserves_exactly(
        fractions in proptest::collection::vec(0.0f64..1.0, 1..12),
        window in 1u64..5_000_000,
        granularity in 1u64..512,
    ) {
        // Normalize (apportion expects a distribution-ish input but must
        // conserve regardless).
        let sum: f64 = fractions.iter().sum();
        let f: Vec<f64> = if sum > 0.0 {
            fractions.iter().map(|v| v / sum).collect()
        } else {
            vec![1.0 / fractions.len() as f64; fractions.len()]
        };
        let blocks = apportion(&f, window, granularity);
        prop_assert_eq!(blocks.iter().sum::<u64>(), window);
    }

    #[test]
    fn selection_is_always_a_partition(
        rates in proptest::collection::vec(1e3f64..1e7, 2..8),
        window in 1_000u64..1_000_000,
    ) {
        let models: Vec<UnitModel> =
            rates.iter().map(|&r| affine_model(r, 1e-4)).collect();
        let active = vec![true; models.len()];
        let sel = select_block_sizes(&models, &active, window, 1, SolverChoice::Auto);
        prop_assert_eq!(sel.blocks.iter().sum::<u64>(), window);
        let fsum: f64 = sel.fractions.iter().sum();
        prop_assert!((fsum - 1.0).abs() < 1e-6, "fractions sum {fsum}");
        prop_assert!(sel.fractions.iter().all(|&f| (0.0..=1.0 + 1e-9).contains(&f)));
    }

    #[test]
    fn selection_respects_inactive_units(
        rates in proptest::collection::vec(1e3f64..1e6, 3..6),
        dead in 0usize..3,
        window in 10_000u64..500_000,
    ) {
        let models: Vec<UnitModel> =
            rates.iter().map(|&r| affine_model(r, 0.0)).collect();
        let mut active = vec![true; models.len()];
        active[dead % models.len()] = false;
        let sel = select_block_sizes(&models, &active, window, 1, SolverChoice::Auto);
        prop_assert_eq!(sel.blocks[dead % models.len()], 0);
        prop_assert_eq!(sel.blocks.iter().sum::<u64>(), window);
    }

    #[test]
    fn faster_units_get_at_least_as_much(
        base_rate in 1e4f64..1e6,
        ratio in 1.2f64..40.0,
        window in 50_000u64..500_000,
    ) {
        let models =
            vec![affine_model(base_rate, 0.0), affine_model(base_rate * ratio, 0.0)];
        let active = [true, true];
        let sel = select_block_sizes(&models, &active, window, 1, SolverChoice::Auto);
        prop_assert!(
            sel.blocks[1] >= sel.blocks[0],
            "faster unit got {} < {}",
            sel.blocks[1],
            sel.blocks[0]
        );
    }

    #[test]
    fn full_policy_conserves_work_on_random_scenarios(
        total in 5_000u64..150_000,
        seed in 0u64..30,
        scenario_idx in 0usize..4,
        single_gpu in any::<bool>(),
    ) {
        let scenario = Scenario::ALL[scenario_idx];
        let machines = cluster_scenario(scenario, single_gpu);
        let opts = ClusterOptions { seed, noise_sigma: 0.03, ..Default::default() };
        let mut cluster = ClusterSim::build(&machines, &opts);
        let cost = LinearCost {
            label: "prop".into(),
            flops_per_item: 2e5,
            in_bytes_per_item: 64.0,
            out_bytes_per_item: 16.0,
            threads_per_item: 32.0,
        };
        let cfg = PolicyConfig::default().with_initial_block((total / 200).max(16));
        let mut policy = PlbHecPolicy::new(&cfg);
        let report = SimEngine::new(&mut cluster, &cost).run(&mut policy, total).unwrap();
        prop_assert_eq!(report.total_items, total);
        prop_assert!(report.makespan > 0.0 && report.makespan.is_finite());
    }
}
