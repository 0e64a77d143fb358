//! Dense neural-network layer inference balanced by PLB-HeC — the
//! machine-learning workload class the paper's introduction motivates —
//! with a Chrome-trace export of the run.
//!
//! ```sh
//! cargo run --release --example nn_inference
//! # then open /tmp/nn_inference_trace.json in chrome://tracing
//! ```

use plb_hec_suite::apps::nnlayer::{NnLayer, NnLayerCodelet, NnLayerData};
use plb_hec_suite::hetsim::cluster::ClusterOptions;
use plb_hec_suite::hetsim::CostModel;
use plb_hec_suite::hetsim::{cluster_scenario, ClusterSim, PuKind, Scenario};
use plb_hec_suite::plb::{PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{chrome_trace, gantt_segments, HostEngine, HostPu, SimEngine};
use std::sync::Arc;

fn main() {
    // Part 1 — simulator: a big layer (1 GB of weights) across the
    // paper's four machines. The weight matrix no longer fits the small
    // GPUs, so their tasks re-stream it: the balancer discovers this
    // through its transfer curves and shifts their share accordingly.
    let app = NnLayer::new(200_000, 16384, 16384);
    let cost = app.cost();
    println!(
        "Simulated: batch of {} samples through a {}x{} layer ({} MB of weights)",
        app.samples,
        app.inputs,
        app.outputs,
        (cost.broadcast_bytes() / 1e6) as u64
    );
    let machines = cluster_scenario(Scenario::Four, false);
    let mut cluster = ClusterSim::build(&machines, &ClusterOptions::default());
    let cfg = PolicyConfig::default().with_initial_block(400);
    let mut policy = PlbHecPolicy::new(&cfg);
    let mut engine = SimEngine::new(&mut cluster, &cost);
    let report = engine.run(&mut policy, app.total_items()).expect("sim run");
    println!(
        "  makespan {:.3}s across {} units:",
        report.makespan,
        report.pus.len()
    );
    for pu in &report.pus {
        println!(
            "    {:8} {:>7} samples ({:>5.1}%)",
            pu.name,
            pu.items,
            pu.item_share * 100.0
        );
    }
    let names: Vec<String> = report.pus.iter().map(|p| p.name.clone()).collect();
    let events = engine.last_events().expect("events recorded");
    let trace_json = chrome_trace(&gantt_segments(events.iter()), &names);
    let path = "/tmp/nn_inference_trace.json";
    std::fs::write(path, trace_json).expect("write trace");
    println!("  wrote Chrome trace to {path} (open in chrome://tracing)\n");

    // Part 2 — host backend: a small layer for real, verified against
    // the reference forward pass.
    let samples = 4_000usize;
    let data = Arc::new(NnLayerData::generate(samples, 256, 128, 7));
    let codelet = Arc::new(NnLayerCodelet::new(Arc::clone(&data)));
    let mut host = HostEngine::new(vec![
        HostPu {
            name: "wide".into(),
            kind: PuKind::Gpu,
            threads: 4,
        },
        HostPu {
            name: "narrow".into(),
            kind: PuKind::Cpu,
            threads: 1,
        },
    ]);
    let cfg = PolicyConfig::default().with_initial_block(100);
    let mut policy = PlbHecPolicy::new(&cfg);
    let host_report = host
        .run(
            &mut policy,
            Arc::clone(&codelet) as Arc<dyn plb_hec_suite::runtime::Codelet>,
            samples as u64,
        )
        .expect("host run");
    println!(
        "Host backend: {} samples in {:.1} ms over {} tasks",
        host_report.total_items,
        host_report.makespan * 1e3,
        host_report.tasks
    );

    // Verify every sample against the reference forward pass.
    let acts = codelet.activations();
    let mut max_err = 0.0f32;
    for s in 0..samples {
        let expect = data.reference_forward(s);
        for (o, &e) in expect.iter().enumerate() {
            max_err = max_err.max((acts[s * data.outputs + o] - e).abs());
        }
    }
    println!("max |activation - reference| = {max_err:.2e}");
    assert!(max_err < 1e-4, "forward-pass verification failed");
    println!("verified: distributed inference matches the reference layer");
}
