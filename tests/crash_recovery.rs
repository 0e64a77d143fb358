//! Crash recovery end-to-end: a host run is SIGKILLed mid-execution and
//! resumed from its last durability snapshot in a fresh process. The
//! resumed run must (a) complete, (b) produce a provably disjoint,
//! complete cover together with the crashed run's checkpointed work —
//! enforced with live [`DisjointOutput`] claims over every checkpointed
//! range — and (c) never re-enter the modeling phase: the policy is
//! re-seeded from the snapshot's profiles, so zero probes are issued.
//!
//! Mechanics: the parent test re-invokes its own test binary with
//! `--ignored --exact crash_child_body` and a checkpoint path in the
//! environment. The child runs PLB-HeC on the host engine with a
//! sleep-calibrated codelet and per-task snapshots until the parent,
//! polling the snapshot file, sees fitted models plus enough completed
//! tasks and kills it (SIGKILL — no destructors, no final snapshot).

#![cfg(unix)]

use plb_hec_suite::hetsim::PuKind;
use plb_hec_suite::plb::{PlbHecPolicy, PolicyConfig};
use plb_hec_suite::runtime::checkpoint::load;
use plb_hec_suite::runtime::{
    Checkpoint, CheckpointConfig, DisjointOutput, FnCodelet, HostEngine, HostPu,
};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload shared by the child and the resumed parent run. The sleep
/// per item makes timings linear in the block size (ideal for the
/// curve fits) and the total long enough (~2.4 s of aggregate work)
/// that the kill always lands while work remains.
const TOTAL_ITEMS: u64 = 60_000;
const SLEEP_PER_ITEM: Duration = Duration::from_micros(40);
const CKPT_ENV: &str = "PLB_CRASH_CKPT";

fn pus() -> Vec<HostPu> {
    vec![
        HostPu {
            name: "wide".into(),
            kind: PuKind::Gpu,
            threads: 2,
        },
        HostPu {
            name: "narrow".into(),
            kind: PuKind::Cpu,
            threads: 1,
        },
    ]
}

fn config() -> PolicyConfig {
    PolicyConfig::default()
        .with_initial_block(512)
        .with_round_fraction(0.2)
}

/// Does the snapshot carry fitted models (the policy reached the
/// executing phase), so a resume can skip modeling entirely?
fn has_models(ckpt: &Checkpoint) -> bool {
    ckpt.policy_state
        .as_ref()
        .and_then(|v| v.get("models"))
        .and_then(|m| m.as_array())
        .is_some_and(|a| !a.is_empty())
}

/// Not a test: the workload the parent SIGKILLs. Only does anything
/// when invoked by `sigkilled_run_resumes_*` below with the checkpoint
/// path in the environment.
#[test]
#[ignore = "helper process body for the crash-recovery test"]
fn crash_child_body() {
    let Ok(path) = std::env::var(CKPT_ENV) else {
        return;
    };
    let codelet = Arc::new(FnCodelet::new("sleepy", |range, _res| {
        std::thread::sleep(SLEEP_PER_ITEM * (range.end - range.start) as u32);
    }));
    let mut engine =
        HostEngine::new(pus()).with_checkpoint(CheckpointConfig::new(&path).with_interval(1));
    let mut policy = PlbHecPolicy::new(&config());
    // The parent kills us mid-run; if we do finish, that's fine too —
    // the parent detects it and fails with a diagnostic.
    let _ = engine.run(&mut policy, codelet, TOTAL_ITEMS);
}

#[test]
fn sigkilled_run_resumes_with_disjoint_cover_and_no_reprobe() {
    let mut path = std::env::temp_dir();
    path.push(format!("plb-crash-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let ckpt = run_and_kill_child(&path);
    assert!(has_models(&ckpt), "kill condition guaranteed fitted models");
    let done_before_crash = ckpt.completed_items();
    assert!(
        done_before_crash < TOTAL_ITEMS,
        "child was killed mid-run, yet its snapshot covers everything"
    );

    // The resumed process writes through a disjoint-claims buffer. Every
    // range the crashed run checkpointed as completed is pre-claimed and
    // pre-filled here, and the claims are HELD for the whole resumed
    // run: if the resumed run dispatches any item the checkpoint already
    // covers, its claim fails and the flag trips. (Work finished after
    // the last snapshot is legitimately re-executed — the documented
    // at-least-once tail — and is not pre-claimed.)
    let out = Arc::new(DisjointOutput::new(0u8, TOTAL_ITEMS as usize));
    let mut held = Vec::new();
    for &(off, len) in &ckpt.completed {
        let mut w = out.writer(off as usize..(off + len) as usize);
        w.iter_mut().for_each(|b| *b = 1);
        held.push(w);
    }
    let double_write = Arc::new(AtomicBool::new(false));
    let codelet = {
        let out = Arc::clone(&out);
        let double_write = Arc::clone(&double_write);
        Arc::new(FnCodelet::new("sleepy", move |range, _res| {
            std::thread::sleep(SLEEP_PER_ITEM * (range.end - range.start) as u32 / 4);
            match out.try_writer(range.start as usize..range.end as usize) {
                Ok(mut w) => w.iter_mut().for_each(|b| *b = 1),
                Err(_) => double_write.store(true, Ordering::Relaxed),
            }
        }))
    };

    let mut engine = HostEngine::new(pus()).resume_from(ckpt);
    let mut policy = PlbHecPolicy::new(&config());
    let report = engine
        .run(&mut policy, codelet, TOTAL_ITEMS)
        .expect("resumed run completes");

    // In-process accounting: exactly the complement of the snapshot.
    assert_eq!(report.total_items, TOTAL_ITEMS - done_before_crash);
    assert!(
        !double_write.load(Ordering::Relaxed),
        "resumed run re-dispatched an item the checkpoint already covers"
    );
    // Zero re-probing: the snapshot's profiles re-seeded the models.
    // (`report.events` folds in the crashed run's carried counters,
    // which DO contain probes — the sink holds this process only.)
    let counters = engine.last_events().expect("event sink").counters();
    assert_eq!(counters.probes, 0, "resumed run re-entered modeling");
    assert_eq!(counters.resumes, 1);
    assert!(report.events.probes > 0, "carried modeling history lost");

    // Complete disjoint cover: every item written exactly once across
    // both processes (pre-crash ranges by the parent's pre-fill, the
    // rest by the resumed run).
    drop(held);
    let buf = Arc::try_unwrap(out)
        .unwrap_or_else(|_| panic!("codelet still holds the output"))
        .into_vec();
    let missing = buf.iter().filter(|&&b| b != 1).count();
    assert_eq!(missing, 0, "{missing} items never covered");

    let _ = std::fs::remove_file(&path);
}

/// Spawn the child workload, poll its snapshot until it has fitted
/// models and a few completed tasks, then SIGKILL it and return the
/// last snapshot.
fn run_and_kill_child(path: &Path) -> Checkpoint {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "crash_child_body",
            "--test-threads=1",
        ])
        .env(CKPT_ENV, path)
        .spawn()
        .expect("spawn child workload");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(ckpt) = load(path) {
            if has_models(&ckpt) && ckpt.tasks_done >= 6 {
                // SIGKILL: no unwinding, no final snapshot, no cleanup —
                // the hardest crash the durability layer must survive.
                child.kill().expect("SIGKILL child");
                let _ = child.wait();
                return load(path).expect("last snapshot is loadable");
            }
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!(
                "child finished (status {status}) before the kill condition; \
                 the workload is sized to make this impossible"
            );
        }
        assert!(
            Instant::now() < deadline,
            "child never reached the kill condition"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
