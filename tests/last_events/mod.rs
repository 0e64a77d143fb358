//! What a failing host test prints: its engine's last events, so the
//! message says which unit went down and why (`tests/integration_host.rs`,
//! `tests/integration_faults.rs`).

use plb_hec_suite::runtime::EventSink;

/// How many of the newest events [`tail`] prints.
const TAIL: usize = 40;

/// The newest [`TAIL`] events of `events`, one a line: `seq`, `t`, the
/// unit (`-` for a run-global event) and the payload.
pub fn tail(events: Option<&EventSink>) -> String {
    let Some(events) = events else {
        return "no events recorded".into();
    };
    let held = events.iter().count();
    let mut out = format!("last {} of {} events:\n", held.min(TAIL), events.recorded());
    for e in events.iter().skip(held.saturating_sub(TAIL)) {
        let unit = e.pu.map_or_else(|| "-".into(), |p| p.to_string());
        out.push_str(&format!(
            "  #{} t={:.6} unit {unit}: {:?}\n",
            e.seq, e.t, e.kind
        ));
    }
    out
}
