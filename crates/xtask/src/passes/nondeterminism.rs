//! Pass 9: nondeterminism confinement — the determinism race-detector.
//!
//! The repo's central correctness claim is that `SimEngine` and
//! `HostEngine` make byte-identical balancing decisions under the same
//! `FaultPlan`, and that a persisted profile re-fits reproducibly.
//! That only holds if the decision-making crates contain no hidden
//! nondeterminism. Two families are banned outside an explicit,
//! audited allowlist (`allowlists/nondeterminism-confinement.txt`):
//!
//! * **wall-clock / entropy sources** — `Instant`, `SystemTime`,
//!   `thread_rng`, `from_entropy`, `OsRng`: time belongs to the
//!   `Backend` clock and randomness to seeded generators, so the same
//!   plan replays to the same decisions;
//! * **hashed collections** — `HashMap`, `HashSet`: their iteration
//!   order is randomized per process (SipHash keys), so any code that
//!   ever iterates one can silently diverge between two identical
//!   runs. The deterministic crates use `BTreeMap`/`BTreeSet` (or
//!   sorted vectors), making iteration order part of the type.
//!
//! The allowlist is intentionally tiny: the wall-clock *backend*
//! (`host.rs`, which is the one place wall time is the semantics) and
//! the solve-latency stopwatch (`crates/core/src/perf.rs`, which
//! reports how long a selection took without influencing what it
//! decided).

use super::{config_error, Context, Pass};
use crate::lexer::{line_of, word_occurrences};
use crate::report::{Allowlist, Violation};

/// The crates whose decisions must replay deterministically. The bench
/// harness (`crates/bench`) and this lint binary are out of scope: one
/// measures wall time for a living, the other reports it.
const DETERMINISTIC_SCOPE: &[&str] = &[
    "crates/runtime/src/",
    "crates/core/src/",
    "crates/hetsim/src/",
    "crates/ipm/src/",
    "crates/numerics/src/",
    "crates/apps/src/",
];

/// Banned wall-clock / entropy tokens, with the fix each suggests.
const CLOCK_ENTROPY_TOKENS: &[(&str, &str)] = &[
    (
        "Instant",
        "route time through the Backend clock or crates/core/src/perf.rs",
    ),
    (
        "SystemTime",
        "route time through the Backend clock or crates/core/src/perf.rs",
    ),
    (
        "thread_rng",
        "use the seeded generator (plb_rng::ChaCha8Rng) so runs replay",
    ),
    (
        "from_entropy",
        "use the seeded generator (plb_rng::ChaCha8Rng) so runs replay",
    ),
    (
        "OsRng",
        "use the seeded generator (plb_rng::ChaCha8Rng) so runs replay",
    ),
];

/// Banned hashed-collection tokens.
const HASH_ORDER_TOKENS: &[&str] = &["HashMap", "HashSet"];

pub struct NondeterminismConfinement;

impl Pass for NondeterminismConfinement {
    fn name(&self) -> &'static str {
        "nondeterminism-confinement"
    }

    fn summary(&self) -> &'static str {
        "no wall clock, entropy, or hash-order dependence in the deterministic crates"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        let allow = match Allowlist::load(ctx.root, self.name()) {
            Ok(a) => a,
            Err(e) => {
                out.push(config_error(self.name(), e));
                return;
            }
        };
        for s in ctx.sources {
            let scoped = DETERMINISTIC_SCOPE.iter().any(|p| s.rel.starts_with(p));
            if !scoped || allow.permits(&s.rel) {
                continue;
            }
            for (token, fix) in CLOCK_ENTROPY_TOKENS {
                for pos in word_occurrences(&s.code, token) {
                    out.push(Violation {
                        file: s.rel.clone(),
                        line: line_of(&s.code, pos),
                        pass: self.name(),
                        msg: format!(
                            "`{token}` in a deterministic crate: cross-engine equivalence \
                             and reproducible re-fits forbid ambient nondeterminism; {fix} \
                             (docs/SOUNDNESS.md, allowlist: {})",
                            allow.entries().join(", ")
                        ),
                    });
                }
            }
            for token in HASH_ORDER_TOKENS {
                for pos in word_occurrences(&s.code, token) {
                    out.push(Violation {
                        file: s.rel.clone(),
                        line: line_of(&s.code, pos),
                        pass: self.name(),
                        msg: format!(
                            "`{token}` in a deterministic crate: SipHash iteration order \
                             differs between processes, so any future iteration silently \
                             breaks run-to-run determinism; use `BTreeMap`/`BTreeSet` or a \
                             sorted vector instead (docs/SOUNDNESS.md)"
                        ),
                    });
                }
            }
        }
    }
}
