//! Integration tests for run-level durability on the simulator engine:
//! periodic snapshots, the resume path, and its rejection rules.
//!
//! Note on accounting: a resumed run's [`RunReport`] covers only the
//! items processed *in that process* (its trace starts at the resume),
//! while the checkpoint's `completed` cover and `tasks_done` are
//! lifetime totals across resumes. The assertions below are explicit
//! about which side of that line they sit on.

use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
use plb_runtime::checkpoint::{load, save};
use plb_runtime::policy::FixedBlockPolicy;
use plb_runtime::{
    Checkpoint, CheckpointConfig, EventCounters, PuState, RunError, SimEngine, WorkloadId,
    CHECKPOINT_FORMAT_VERSION,
};
use std::path::PathBuf;

fn cost() -> LinearCost {
    LinearCost {
        label: "ckpt-it".into(),
        flops_per_item: 5e4,
        in_bytes_per_item: 32.0,
        out_bytes_per_item: 8.0,
        threads_per_item: 16.0,
    }
}

fn cluster() -> ClusterSim {
    let machines = cluster_scenario(Scenario::One, false); // 2 units
    let opts = ClusterOptions {
        seed: 11,
        noise_sigma: 0.02,
        ..Default::default()
    };
    ClusterSim::build(&machines, &opts)
}

fn tmp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("plb-ckpt-it-{}-{name}", std::process::id()));
    p
}

/// A healthy unit record for hand-built snapshots.
fn healthy(name: &str) -> PuState {
    PuState {
        name: name.into(),
        dispatches: 0,
        consecutive_failures: 0,
        rate_ewma: None,
        quarantined: false,
        lost: false,
    }
}

/// A mid-run-style snapshot: 500 of 1000 items done in two ranges,
/// five snapshots already written, some carried event counts.
fn midrun_snapshot(total: u64) -> Checkpoint {
    let counters = EventCounters {
        checkpoints: 5,
        tasks_finished: 4,
        ..Default::default()
    };
    Checkpoint {
        version: CHECKPOINT_FORMAT_VERSION,
        workload: WorkloadId {
            policy: "fixed-block".into(),
            total_items: total,
            n_pus: 2,
            total_cost: total,
            nodes: Vec::new(),
        },
        seq: 4,
        at: 0.75,
        tasks_done: 4,
        next_task: 6,
        completed: vec![(0, 200), (500, 300)],
        units: vec![healthy("cpu"), healthy("gpu")],
        counters,
        policy_state: None,
    }
}

/// A checkpointed run leaves one final, loadable snapshot whose cover
/// is the entire workload, and counts its own snapshot writes.
#[test]
fn checkpointed_run_writes_a_complete_final_snapshot() {
    let path = tmp_file("final");
    let total = 20_000u64;
    let mut cl = cluster();
    let c = cost();
    let mut policy = FixedBlockPolicy { block: 1024 };
    let report = SimEngine::new(&mut cl, &c)
        .with_checkpoint(CheckpointConfig::new(&path).with_interval(1))
        .run(&mut policy, total)
        .unwrap();
    assert_eq!(report.total_items, total);
    assert!(report.events.checkpoints >= 1, "no snapshots recorded");
    assert_eq!(report.events.resumes, 0);

    let ckpt = load(&path).unwrap();
    assert_eq!(
        ckpt.completed,
        vec![(0, total)],
        "final cover must be total"
    );
    assert_eq!(ckpt.completed_items(), total);
    assert_eq!(ckpt.tasks_done, report.tasks as u64);
    assert_eq!(ckpt.workload.policy, "fixed-block");
    assert_eq!(ckpt.workload.total_items, total);
    assert_eq!(ckpt.workload.n_pus, 2);
    // Every snapshot before the final one logged a checkpoint_written
    // event, and the final one is stamped with the next sequence number.
    assert_eq!(ckpt.counters.checkpoints, ckpt.seq);
    assert_eq!(report.events.checkpoints, ckpt.seq + 1);
    std::fs::remove_file(&path).unwrap();
}

/// Resuming a mid-run snapshot processes exactly the complement of the
/// checkpointed cover, carries lifetime counters forward, and its own
/// final snapshot covers the full workload.
#[test]
fn resume_processes_the_complement_and_completes_the_cover() {
    let src = tmp_file("resume-src");
    let dst = tmp_file("resume-dst");
    let total = 1_000u64;
    let ckpt = midrun_snapshot(total);
    let carried_tasks = ckpt.tasks_done;
    let remaining = total - ckpt.completed_items();
    save(&src, &ckpt).unwrap();

    let mut cl = cluster();
    let c = cost();
    let mut policy = FixedBlockPolicy { block: 128 };
    let report = SimEngine::new(&mut cl, &c)
        .with_checkpoint(CheckpointConfig::new(&dst).with_interval(1))
        .resume_from(load(&src).unwrap())
        .run(&mut policy, total)
        .unwrap();

    // In-process accounting: only the uncovered items ran here.
    assert_eq!(report.total_items, remaining);
    let per_pu: u64 = report.pus.iter().map(|p| p.items).sum();
    assert_eq!(per_pu, remaining);
    assert_eq!(report.events.resumes, 1);
    // Carried counters folded into the lifetime totals.
    assert!(report.events.checkpoints > 5, "carried checkpoints lost");
    assert!(report.events.tasks_finished > 4, "carried tasks lost");

    // Lifetime accounting: the resumed run's own final snapshot.
    let fin = load(&dst).unwrap();
    assert_eq!(fin.completed, vec![(0, total)]);
    assert!(fin.seq > ckpt.seq, "sequence must continue, not restart");
    assert!(fin.tasks_done > carried_tasks);
    assert_eq!(fin.counters.resumes, 1);

    std::fs::remove_file(&src).unwrap();
    std::fs::remove_file(&dst).unwrap();
}

/// A snapshot from a different workload (policy name here) is rejected
/// with a typed error before any work is dispatched.
#[test]
fn resume_rejects_a_mismatched_workload() {
    let total = 1_000u64;
    let mut ckpt = midrun_snapshot(total);
    ckpt.workload.policy = "plb-hec".into();

    let mut cl = cluster();
    let c = cost();
    let mut policy = FixedBlockPolicy { block: 128 };
    let err = SimEngine::new(&mut cl, &c)
        .resume_from(ckpt)
        .run(&mut policy, total)
        .unwrap_err();
    match err {
        RunError::Checkpoint { detail } => {
            assert!(detail.contains("different workload"), "{detail}");
        }
        other => panic!("expected RunError::Checkpoint, got {other}"),
    }

    // Wrong item count is equally fatal.
    let mut cl = cluster();
    let err = SimEngine::new(&mut cl, &c)
        .resume_from(midrun_snapshot(total))
        .run(&mut policy, total + 1)
        .unwrap_err();
    assert!(matches!(err, RunError::Checkpoint { .. }), "{err}");
}

/// A unit recorded as lost stays written off after the resume: the
/// survivors finish the complement without it.
#[test]
fn resume_keeps_lost_units_out_of_the_run() {
    let total = 2_000u64;
    let mut ckpt = midrun_snapshot(total);
    ckpt.completed = vec![(0, 100)];
    ckpt.units[1].lost = true;

    let mut cl = cluster();
    let c = cost();
    let mut policy = FixedBlockPolicy { block: 256 };
    let report = SimEngine::new(&mut cl, &c)
        .resume_from(ckpt)
        .run(&mut policy, total)
        .unwrap();
    assert_eq!(report.total_items, total - 100);
    assert_eq!(report.pus[1].items, 0, "lost unit must not receive work");
    assert_eq!(report.pus[0].items, total - 100);
    assert_eq!(report.events.resumes, 1);
}
