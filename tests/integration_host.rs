//! Cross-crate integration: the real-thread host backend runs every
//! application codelet under every policy, with results verified against
//! references — the same policies that drive the simulator, on real
//! wall-clock measurements.

use plb_hec_suite::apps::blackscholes::{price, BsCodelet, BsData};
use plb_hec_suite::apps::grn::{GrnCodelet, GrnData};
use plb_hec_suite::apps::matmul::{MatMulCodelet, MatMulData};
use plb_hec_suite::hetsim::PuKind;
use plb_hec_suite::plb::{AcostaPolicy, GreedyPolicy, HdssPolicy, PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::{Codelet, HostEngine, HostPu, Policy};
use std::sync::Arc;

mod last_events;

fn pus() -> Vec<HostPu> {
    vec![
        HostPu {
            name: "wide".into(),
            kind: PuKind::Gpu,
            threads: 3,
        },
        HostPu {
            name: "narrow".into(),
            kind: PuKind::Cpu,
            threads: 1,
        },
    ]
}

fn policies(cfg: &PolicyConfig) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(PlbHecPolicy::new(cfg)),
        Box::new(GreedyPolicy::new(cfg)),
        Box::new(AcostaPolicy::new(cfg)),
        Box::new(HdssPolicy::new(cfg)),
    ]
}

#[test]
fn host_matmul_correct_under_every_policy() {
    let n = 96usize;
    let data = Arc::new(MatMulData::generate(n, 2));
    let cfg = PolicyConfig::default().with_initial_block(8);
    for mut policy in policies(&cfg) {
        let codelet = Arc::new(MatMulCodelet::new(Arc::clone(&data)));
        let mut engine = HostEngine::new(pus());
        let report = engine
            .run(
                policy.as_mut(),
                Arc::clone(&codelet) as Arc<dyn Codelet>,
                n as u64,
            )
            .expect("host run completes");
        assert_eq!(report.total_items, n as u64, "{}", report.policy);
        let c = codelet.result();
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += data.a[i * n + k] * data.b[j * n + k];
                }
                assert!(
                    (c[j * n + i] - acc).abs() < 1e-3,
                    "{}: C[{i},{j}] wrong",
                    report.policy
                );
            }
        }
    }
}

#[test]
fn host_blackscholes_prices_everything_once() {
    let n = 20_000usize;
    let data = Arc::new(BsData::generate(n, 9));
    let cfg = PolicyConfig::default().with_initial_block(512);
    for mut policy in policies(&cfg) {
        let codelet = Arc::new(BsCodelet::new(Arc::clone(&data)));
        let mut engine = HostEngine::new(pus());
        let report = engine
            .run(
                policy.as_mut(),
                Arc::clone(&codelet) as Arc<dyn Codelet>,
                n as u64,
            )
            .expect("host run completes");
        assert_eq!(report.total_items, n as u64);
        let results = codelet.results();
        for (o, &(call, put)) in data.options.iter().zip(&results) {
            let (rc, rp) = price(o);
            assert!(
                (call - rc).abs() < 1e-12 && (put - rp).abs() < 1e-12,
                "{}",
                report.policy
            );
        }
    }
}

#[test]
fn host_grn_recovers_planted_pairs() {
    let genes = 30usize;
    let data = Arc::new(GrnData::generate(genes, 40, 4));
    let cfg = PolicyConfig::default().with_initial_block(3);
    let codelet = Arc::new(GrnCodelet::new(Arc::clone(&data)));
    let mut engine = HostEngine::new(pus());
    let mut policy = PlbHecPolicy::new(&cfg);
    let _ = engine
        .run(
            &mut policy,
            Arc::clone(&codelet) as Arc<dyn Codelet>,
            genes as u64,
        )
        .expect("host run completes");
    let results = codelet.results();
    assert!(results.iter().all(Option::is_some));
    for g in (2..genes).step_by(3) {
        let r = results[g].unwrap();
        assert_eq!(
            r.score, 0.0,
            "planted target {g} must be perfectly predicted"
        );
    }
}

#[test]
fn host_wall_times_feed_plb_models() {
    // PLB-HeC on the host engine must go through the full pipeline:
    // probing with real timings, a successful selection, and a sane
    // distribution (the wide unit gets more work). Per-task work is
    // kept heavy (10k options per probe block) so the 3-vs-1-thread
    // speed difference dominates dispatch overhead and OS jitter even
    // in debug builds or on loaded machines; the assertion is on the
    // aggregate item split, the most averaged signal the run offers.
    let n = 400_000usize;
    let data = Arc::new(BsData::generate(n, 1));
    let cfg = PolicyConfig::default()
        .with_initial_block(10_000)
        .with_round_fraction(0.5);
    let codelet = Arc::new(BsCodelet::new(Arc::clone(&data)));
    let mut engine = HostEngine::new(pus());
    let mut policy = PlbHecPolicy::new(&cfg);
    let report = engine
        .run(
            &mut policy,
            Arc::clone(&codelet) as Arc<dyn Codelet>,
            n as u64,
        )
        .expect("host run completes");
    assert!(!policy.selections().is_empty());
    // The speed-dominance assertion only holds where a 3-thread pool
    // can actually outrun a 1-thread pool. On a single-core host (CI
    // containers!) the pools are genuinely equal and PLB-HeC correctly
    // measures a ~50/50 split — which is itself worth asserting.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let items: Vec<u64> = report.pus.iter().map(|p| p.items).collect();
    if cores >= 4 {
        assert!(
            report.pus[0].items > report.pus[1].items,
            "3-thread unit should process more than the 1-thread unit: {items:?}"
        );
    } else {
        // With fewer cores than pool threads, the OS scheduler decides
        // which pool runs when; the measured "speeds" — and hence the
        // split — are arbitrary. Completion, conservation and the
        // existence of selections (asserted above) are the only
        // hardware-independent invariants.
        let _ = (cores, items);
    }
}

#[test]
fn host_qos_drift_triggers_real_rebalance() {
    // The full PLB-HeC loop on real threads and wall-clock timings:
    // mid-run, the wide unit's kernel becomes 6x more expensive
    // (injected as idempotent re-execution); the per-block deviation
    // trips the 10% threshold, the models are refit from *measured*
    // times, and the run completes with every option priced once.
    //
    // Sized so the fit gate, not the data cap, closes the modeling
    // phase: every unit's model is fitted from a full ladder, so a
    // surprise calls the paper's rebalance instead of re-sizing its
    // unit alone. The drift starts on the wide unit's sixth task, one of
    // its first blocks, while most of the pool is left: a drifted block
    // lasts as long as six of the narrow unit's, and one that lands
    // after the pool has run dry has nothing left to rebalance.
    use plb_hec_suite::runtime::HostPerturbation;
    let n = 600_000usize;
    let data = Arc::new(BsData::generate(n, 3));
    let cfg = PolicyConfig::default()
        .with_initial_block(1_500)
        .with_round_fraction(0.15);
    let codelet = Arc::new(BsCodelet::new(Arc::clone(&data)));
    let mut engine = HostEngine::new(pus()).with_perturbations(vec![HostPerturbation {
        pu: 0,
        after_tasks: 5,
        repeat: 6,
    }]);
    let mut policy = PlbHecPolicy::new(&cfg);
    let run = engine.run(
        &mut policy,
        Arc::clone(&codelet) as Arc<dyn Codelet>,
        n as u64,
    );
    let report = match run {
        Ok(report) => report,
        Err(e) => panic!(
            "host run completes under drift: {e:?}\n{}",
            last_events::tail(engine.last_events())
        ),
    };
    assert_eq!(report.total_items, n as u64);
    assert!(
        policy.rebalances() >= 1,
        "a 6x drift on real measurements must trigger a rebalance\n{}",
        last_events::tail(engine.last_events())
    );
    // Results still correct despite re-execution.
    let results = codelet.results();
    for (o, &(call, put)) in data.options.iter().zip(&results) {
        let (rc, rp) = price(o);
        assert!((call - rc).abs() < 1e-12 && (put - rp).abs() < 1e-12);
    }
}
