//! The benchmark's metric tables: every name it prints, with unit,
//! direction and, for the end-to-end metrics, the share by which a later
//! change may worsen it. `BENCHMARK.json` at the repository root lists
//! the same tables; `tests::benchmark_json_matches_these_tables` keeps
//! the two from drifting apart.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
    /// Repeats bit-for-bit for a fixed seed on the virtual-clock
    /// workloads (`sim-*`).
    pub exact_on_sim: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact_on_sim: exact,
    }
}

/// The end-to-end metrics, in print order. README.md defines each.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("wall_s", "s", Better::Lower, 0.25, false),
    e2e("makespan_s", "s", Better::Lower, 0.15, true),
    e2e("speedup_vs_greedy", "ratio", Better::Higher, 0.10, true),
    e2e("idle_frac", "fraction", Better::Lower, 0.25, true),
    e2e("overhead_frac", "fraction", Better::Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, false),
];

const fn layer(name: &'static str, unit: &'static str, exact: bool) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact_on_sim: exact,
    }
}

/// The per-layer metrics, in print order: first the ones taken from the
/// workload's own traced sweep, then the workload-independent layer
/// microbenchmarks. A metric whose layer a workload never enters reads
/// 0 there.
pub const PER_LAYER: [Metric; 47] = [
    layer("hec.policy.hook_us_per_task", "us", false),
    layer("hec.diffusion.hook_us_per_chunk", "us", false),
    layer("hec.selection.solve_us", "us", false),
    layer("hec.selection.solves_per_run", "count", true),
    layer("hec.policy.rebalances_per_run", "count", true),
    layer("hec.modeling.probe_cost_frac", "fraction", true),
    layer("hec.modeling.fit_reject_frac", "fraction", true),
    layer("runtime.core.assign_us", "us", false),
    layer("runtime.core.retries", "count", true),
    layer("runtime.core.quarantines", "count", true),
    layer("runtime.events.per_task", "count", true),
    layer("runtime.events.dropped", "count", true),
    layer("runtime.host.dispatch_us_p50", "us", false),
    layer("runtime.host.dispatch_us_p99", "us", false),
    layer("runtime.cluster.chunk_wall_us", "us", false),
    layer("runtime.cluster.chunks_per_run", "count", true),
    layer("runtime.cluster.migrations", "count", true),
    layer("runtime.cluster.migration_retries", "count", true),
    layer("runtime.cluster.recredits", "count", true),
    layer("runtime.cluster.xfer_ms_mean", "ms", true),
    layer("makespan_tail_ratio", "ratio", true),
    layer("trace_overhead_frac", "fraction", false),
    layer("numerics.curvefit.fit_us", "us", false),
    layer("hec.profile.fit_us", "us", false),
    layer("ipm.solve_us_n10", "us", false),
    layer("ipm.solve_us_n500", "us", false),
    layer("ipm.iters_cold", "count", true),
    layer("ipm.iters_warm", "count", true),
    layer("runtime.core.drive_us_per_task_n10", "us", false),
    layer("runtime.core.drive_us_per_task_n500", "us", false),
    layer("apps.spmv.weights_ms", "ms", false),
    layer("runtime.weights.build_ms", "ms", false),
    layer("runtime.weights.items_for_budget_ns", "ns", false),
    layer("runtime.pool.claim_ns_uniform", "ns", false),
    layer("runtime.pool.claim_ns_weighted", "ns", false),
    layer("runtime.pool.take_within_ns", "ns", false),
    layer("runtime.events.record_ns", "ns", false),
    layer("runtime.checkpoint.save_us_n10", "us", false),
    layer("runtime.checkpoint.load_us_n10", "us", false),
    layer("runtime.checkpoint.bytes_n10", "count", true),
    layer("runtime.checkpoint.save_us_n500", "us", false),
    layer("runtime.checkpoint.load_us_n500", "us", false),
    layer("runtime.checkpoint.bytes_n500", "count", true),
    layer("hetsim.cluster.build_us_m4", "us", false),
    layer("hetsim.cluster.build_us_m200", "us", false),
    layer("hetsim.cluster.proc_time_ns", "ns", false),
    Metric {
        name: "apps.blackscholes.items_per_s_1t",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.0,
        exact_on_sim: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn text(j: Option<&Json>) -> String {
        match j {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("expected a string, found {other:?}"),
        }
    }

    /// `BENCHMARK.json` is outside the package, so this test reads it at
    /// run time and is skipped where the package is built on its own.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(file) = std::fs::read_to_string(path) else {
            eprintln!("{path} not found; skipping");
            return;
        };
        let doc = Json::parse(&file).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        };
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| text(w.get("name")))
            .collect();
        assert_eq!(names, workloads::NAMES);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(text(entry.get("name")), m.name);
                assert_eq!(text(entry.get("unit")), m.unit, "{}", m.name);
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(text(entry.get("better")), better, "{}", m.name);
                if key == "end_to_end" {
                    assert_eq!(
                        entry.get("bound").and_then(Json::as_f64),
                        Some(m.bound),
                        "{}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
