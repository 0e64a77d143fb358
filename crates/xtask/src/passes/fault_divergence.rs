//! Pass 6: fault-response decision logic (retry, backoff, quarantine,
//! probation, re-credit) lives only in the scheduling core; engine
//! backends must not grow their own copies (`docs/ARCHITECTURE.md`).

use super::{Context, Pass, SYNC_SHIM};
use crate::lexer::{line_of, word_occurrences};
use crate::report::Violation;

/// The vocabulary of fault-response decisions: config knobs, driver
/// state, and a unit's transitions. Any of these appearing in a
/// runtime file outside [`fault_response_home`] means a backend is
/// re-implementing core policy.
const FAULT_RESPONSE_TOKENS: &[&str] = &[
    "max_retries",
    "backoff_for",
    "quarantine_after",
    "consec_failures",
    "recredit",
    "reclaim",
    "take_range",
    "probation_s",
    "pending_lost",
    "set_state",
    "take_down",
    "bring_back",
    "write_off",
];

/// Files where fault-response logic legitimately lives: the scheduling
/// core (decisions and a unit's transitions), the fault config (knobs),
/// and the sync shim.
fn fault_response_home(rel: &str) -> bool {
    rel.starts_with("crates/runtime/src/core/")
        || rel == "crates/runtime/src/fault.rs"
        || rel == SYNC_SHIM
}

pub struct FaultDivergence;

impl Pass for FaultDivergence {
    fn name(&self) -> &'static str {
        "fault-divergence"
    }

    fn summary(&self) -> &'static str {
        "fault-response decisions live in the scheduling core only"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        for s in ctx.sources {
            if !s.rel.starts_with("crates/runtime/src/") || fault_response_home(&s.rel) {
                continue;
            }
            for token in FAULT_RESPONSE_TOKENS {
                for pos in word_occurrences(&s.code, token) {
                    out.push(Violation {
                        file: s.rel.clone(),
                        line: line_of(&s.code, pos),
                        pass: self.name(),
                        msg: format!(
                            "fault-response token `{token}` outside the scheduling core; \
                             retry/backoff/quarantine/re-credit decisions belong to \
                             `crates/runtime/src/core` (docs/ARCHITECTURE.md), not to \
                             engine backends"
                        ),
                    });
                }
            }
        }
    }
}
