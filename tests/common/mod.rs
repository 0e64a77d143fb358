//! The cross-commit stream hash the golden tests share
//! (`tests/policy_goldens.rs`, `tests/cluster.rs`).

use plb_hec_suite::runtime::{Event, EventKind, RunReport};

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over every event's `seq`, `t` bits, `pu` and payload, then
/// the makespan's bits, the task count and every unit's items.
/// `BlockSolve::solve_s` is wall time and is zeroed. The payload goes in
/// as its `Debug` text: std prints an `f64` as the shortest decimal that
/// reads back to the same bits, so the text pins them, and no serializer
/// (real or stand-in) takes part.
pub fn stream_hash<'a>(events: impl IntoIterator<Item = &'a Event>, report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for e in events {
        let mut kind = e.kind.clone();
        if let EventKind::BlockSolve { solve_s, .. } = &mut kind {
            *solve_s = 0.0;
        }
        h = fnv(h, &e.seq.to_le_bytes());
        h = fnv(h, &e.t.to_bits().to_le_bytes());
        h = fnv(h, &e.pu.map_or(u64::MAX, |p| p as u64).to_le_bytes());
        h = fnv(h, format!("{kind:?}").as_bytes());
    }
    h = fnv(h, &report.makespan.to_bits().to_le_bytes());
    h = fnv(h, &(report.tasks as u64).to_le_bytes());
    for pu in &report.pus {
        h = fnv(h, &pu.items.to_le_bytes());
    }
    h
}
