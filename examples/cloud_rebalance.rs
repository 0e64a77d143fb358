//! The paper's future-work cloud scenario (Section VI): "the quality of
//! service may change during execution, and the addition of the
//! execution time difference threshold permits readjustments in data
//! distributions."
//!
//! A contended cloud node slows one GPU 5x mid-run; the finish-time
//! threshold fires, PLB-HeC re-fits and re-solves, and the new
//! distribution shifts work off the degraded unit. A greedy run on the
//! same drifting cluster is shown for contrast, plus a Gantt chart of
//! the rebalance.
//!
//! ```sh
//! cargo run --release --example cloud_rebalance
//! ```

use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, PuId, Scenario};
use plb_hec_suite::plb::{GreedyPolicy, PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{
    ascii_gantt, gantt_segments, write_jsonl, EventKind, Perturbation, PerturbationKind, SimEngine,
    TraceHeader, TRACE_FORMAT_VERSION,
};

fn main() {
    let app = plb_hec_suite::apps::MatMul::new(16384);
    let cost = app.cost();
    let total = app.total_items();
    let machines = cluster_scenario(Scenario::Two, true);
    let slowed = PuId(1); // A/gpu0

    let cfg = PolicyConfig::default()
        .with_initial_block(16)
        .with_round_fraction(0.12);

    // Baseline (no drift) to size the perturbation time.
    let baseline = {
        let mut cluster = ClusterSim::build(&machines, &ClusterOptions::default());
        let mut p = PlbHecPolicy::new(&cfg);
        SimEngine::new(&mut cluster, &cost)
            .run(&mut p, total)
            .expect("baseline")
            .makespan
    };
    let drift_at = 0.45 * baseline;
    let drift = vec![Perturbation {
        at: drift_at,
        kind: PerturbationKind::SetSlowdown(slowed, 5.0),
    }];
    println!("Stable-cluster makespan {baseline:.2}s; at t={drift_at:.2}s A/gpu0 slows 5x.\n");

    // PLB-HeC under drift.
    let mut cluster = ClusterSim::build(&machines, &ClusterOptions::default());
    let mut plb = PlbHecPolicy::new(&cfg);
    let mut engine = SimEngine::new(&mut cluster, &cost).with_perturbations(drift.clone());
    let report = engine.run(&mut plb, total).expect("plb run completes");
    let names: Vec<String> = report.pus.iter().map(|p| p.name.clone()).collect();
    println!(
        "PLB-HeC under drift: makespan {:.2}s, {} rebalance(s), {} selection(s)",
        report.makespan,
        plb.rebalances(),
        plb.selections().len()
    );
    for (i, sel) in plb.selections().iter().enumerate() {
        let shares: Vec<String> = sel
            .fractions
            .iter()
            .map(|f| format!("{:4.1}%", f * 100.0))
            .collect();
        println!("  selection {}: [{}]", i + 1, shares.join(", "));
    }
    // The Gantt chart is drawn from the run's event stream, which also
    // shows the decision trail behind it: when the threshold fired and
    // by how much the block ran over.
    let sink = engine.last_events().expect("events recorded");
    println!("\nGantt ('#' compute, '-' transfer, '.' idle):");
    print!("{}", ascii_gantt(&gantt_segments(sink.iter()), &names, 96));

    for e in sink.events() {
        if let EventKind::RebalanceTriggered {
            ref trigger,
            expected_s,
            observed_s,
            ..
        } = e.kind
        {
            println!(
                "\nrebalance at t={:.3}s on {}: {} (block expected {:.4}s, ran {:.4}s)",
                e.t,
                e.pu.map(|p| names[p].clone()).unwrap_or_else(|| "-".into()),
                trigger,
                expected_s,
                observed_s
            );
        }
    }

    // Export the full trace for `plb trace --input <file>` (the JSONL
    // schema is documented in docs/OBSERVABILITY.md).
    let header = TraceHeader {
        version: TRACE_FORMAT_VERSION,
        policy: report.policy.clone(),
        pu_names: names.clone(),
    };
    let jsonl = write_jsonl(&header, engine.last_ledger(), &sink.events());
    let out = std::env::temp_dir().join("cloud_rebalance.trace.jsonl");
    std::fs::write(&out, jsonl).expect("write event trace");
    println!(
        "\nwrote {} (inspect with `plb trace --input ...`)",
        out.display()
    );

    // Greedy under the same drift.
    let mut cluster = ClusterSim::build(&machines, &ClusterOptions::default());
    let mut greedy = GreedyPolicy::new(&cfg);
    let g = SimEngine::new(&mut cluster, &cost)
        .with_perturbations(drift)
        .run(&mut greedy, total)
        .expect("greedy run completes");
    println!(
        "\nGreedy under the same drift: {:.2}s -> PLB-HeC is {:.2}x faster",
        g.makespan,
        g.makespan / report.makespan
    );
    assert!(
        plb.rebalances() >= 1,
        "the drift must trigger at least one rebalance"
    );
}
