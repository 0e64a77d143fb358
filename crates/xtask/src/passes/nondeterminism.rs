//! Pass 9: nondeterminism confinement — the determinism race-detector.
//!
//! The repo's central correctness claim is that `SimEngine` and
//! `HostEngine` make byte-identical balancing decisions under the same
//! `FaultPlan`, and that a persisted profile re-fits reproducibly.
//! That only holds if the decision-making crates contain no hidden
//! nondeterminism. Two families are banned outside an explicit,
//! audited allowlist (`allowlists/nondeterminism-confinement.txt`), and
//! a third everywhere:
//!
//! * **wall-clock / entropy sources** — `Instant`, `SystemTime`,
//!   `thread_rng`, `from_entropy`, `OsRng`: time belongs to the
//!   `Backend` clock and randomness to seeded generators, so the same
//!   plan replays to the same decisions;
//! * **hashed collections** — `HashMap`, `HashSet`: their iteration
//!   order is randomized per process (SipHash keys), so any code that
//!   ever iterates one can silently diverge between two identical
//!   runs. The deterministic crates use `BTreeMap`/`BTreeSet` (or
//!   sorted vectors), making iteration order part of the type;
//! * **ambient configuration** — `env::var`, `env::var_os`: an
//!   environment variable is a knob no `RunConfig`, checkpoint or
//!   trace records, so a replay on another machine silently takes the
//!   other branch. No file is exempt, the allowlisted ones included:
//!   the rule had no hit when it was written.
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

/// Banned ambient-configuration tokens.
const AMBIENT_CONFIG_TOKENS: &[&str] = &["env::var", "env::var_os"];

pub struct NondeterminismConfinement;

impl Pass for NondeterminismConfinement {
    fn name(&self) -> &'static str {
        "nondeterminism-confinement"
    }

    fn summary(&self) -> &'static str {
        "no wall clock, entropy, hash-order or environment dependence in the deterministic crates"
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
            if !DETERMINISTIC_SCOPE.iter().any(|p| s.rel.starts_with(p)) {
                continue;
            }
            // One finding per standalone occurrence of `token`.
            let mut flag = |token: &str, why: String| {
                for pos in word_occurrences(&s.code, token) {
                    out.push(Violation {
                        file: s.rel.clone(),
                        line: line_of(&s.code, pos),
                        pass: self.name(),
                        msg: format!("`{token}` in a deterministic crate: {why}"),
                    });
                }
            };
            for token in AMBIENT_CONFIG_TOKENS {
                flag(
                    token,
                    "an environment variable is configuration that no checkpoint or trace \
                     records, so a replay elsewhere diverges; take the value through \
                     `RunConfig` or `PolicyConfig` (docs/SOUNDNESS.md; no allowlist applies)"
                        .to_string(),
                );
            }
            if allow.permits(&s.rel) {
                continue;
            }
            for (token, fix) in CLOCK_ENTROPY_TOKENS {
                flag(
                    token,
                    format!(
                        "cross-engine equivalence and reproducible re-fits forbid ambient \
                         nondeterminism; {fix} (docs/SOUNDNESS.md, allowlist: {})",
                        allow.entries().join(", ")
                    ),
                );
            }
            for token in HASH_ORDER_TOKENS {
                flag(
                    token,
                    "SipHash iteration order differs between processes, so any future \
                     iteration silently breaks run-to-run determinism; use \
                     `BTreeMap`/`BTreeSet` or a sorted vector instead (docs/SOUNDNESS.md)"
                        .to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Source;

    /// Findings for `code` planted at `rel`.
    fn planted(rel: &str, code: &str) -> usize {
        let root = crate::workspace_root();
        let sources = [Source {
            rel: rel.to_string(),
            code: code.to_string(),
        }];
        let ctx = Context {
            root: &root,
            sources: &sources,
            users: &[],
        };
        let mut out = Vec::new();
        NondeterminismConfinement.run(&ctx, &mut out);
        out.len()
    }

    #[test]
    fn a_clock_or_a_hashed_map_is_flagged_outside_the_allowlist_only() {
        let code = "use std::time::Instant;\nuse std::collections::HashMap;";
        assert_eq!(planted("crates/core/src/policy/mod.rs", code), 2);
        assert_eq!(planted("crates/runtime/src/host.rs", code), 0);
        assert_eq!(planted("crates/bench/src/harness.rs", code), 0);
    }

    #[test]
    fn an_environment_read_is_flagged_in_every_deterministic_file_allowlisted_or_not() {
        let code = "let w = std::env::var(\"PLB_WINDOW\");\nlet h = env::var_os(\"HOME\");";
        assert_eq!(planted("crates/core/src/profile.rs", code), 2);
        assert_eq!(planted("crates/runtime/src/host.rs", code), 2);
        assert_eq!(planted("crates/core/src/perf.rs", code), 2);
        assert_eq!(planted("crates/bench/src/bin/plb.rs", code), 0);
        // Not every use of `std::env` reads configuration.
        let tmp = "let mut p = std::env::temp_dir();";
        assert_eq!(planted("crates/runtime/src/checkpoint.rs", tmp), 0);
    }
}
