//! Pass 10: panic freedom on the run path.
//!
//! Scheduling and solving must degrade (fallback selection, typed
//! errors, skipped probes) rather than abort a run a fault-tolerant
//! engine could otherwise finish. This pass replaces the old per-crate
//! `#![deny(clippy::unwrap_used, clippy::expect_used)]` patchwork with
//! one audited, machine-checked policy:
//!
//! * **unwrap / expect / panic-family macros** are banned across the
//!   run-path crates (`plb-runtime`, `plb-hec`, `plb-ipm`) outside the
//!   audited allowlist (`allowlists/panic-freedom.txt`, each entry a
//!   file whose panics carry a local proof of unreachability);
//! * **slice-index expressions** (`xs[i]` — the third way safe Rust
//!   panics) are additionally flagged in the `drive()` hot path, the
//!   two backends whose `launch`/`poll` run once per task, and the
//!   policy hooks the driver calls — whatever the allowlist says of
//!   the file's other panics. There is no grandfathered site: one
//!   index expression in scope fails the lint.
//!
//! Tests are exempt (assertions are their job), as is `assert!` — an
//! invariant check is a *deliberate* abort, not an accidental one.

use super::{config_error, Context, Pass};
use crate::lexer::{is_word_byte, line_of, word_occurrences};
use crate::report::{Allowlist, Violation};

/// Crates whose run path must not panic (the old deny-lint scope).
const PANIC_SCOPE: &[&str] = &["crates/runtime/src/", "crates/core/src/", "crates/ipm/src/"];

/// The `drive()` hot path, the simulator and host backends it launches
/// and polls once per task, and the policy hooks it invokes every task
/// completion: here even indexing is a latent abort. The PLB-HeC hooks
/// are a directory, so a phase moved to a new file stays in scope, plus
/// the two modules that run inside them (the probe ladder and the
/// profile book).
const INDEX_SCOPE: &[&str] = &[
    "crates/runtime/src/core/",
    "crates/runtime/src/engine.rs",
    "crates/runtime/src/host.rs",
    "crates/core/src/policy/",
    "crates/core/src/modeling.rs",
    "crates/core/src/profile.rs",
    "crates/core/src/baselines/",
];

/// Macros that abort by design.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub struct PanicFreedom;

impl Pass for PanicFreedom {
    fn name(&self) -> &'static str {
        "panic-freedom"
    }

    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic!/slice-index on the run path"
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
            // The allowlist audits a file's unwraps and panics, never
            // its indexing.
            if INDEX_SCOPE.iter().any(|p| s.rel.starts_with(p)) {
                for pos in index_expressions(&s.code) {
                    out.push(Violation {
                        file: s.rel.clone(),
                        line: line_of(&s.code, pos),
                        pass: self.name(),
                        msg: "slice-index in the drive() hot path can panic on a logic \
                              slip; resolve the element once with `.get()`/`.get_mut()`, \
                              or iterate"
                            .to_string(),
                    });
                }
            }
            if !PANIC_SCOPE.iter().any(|p| s.rel.starts_with(p)) || allow.permits(&s.rel) {
                continue;
            }
            let b = s.code.as_bytes();
            for method in ["unwrap", "expect"] {
                for pos in word_occurrences(&s.code, method) {
                    if is_call(b, pos + method.len()) && is_method_recv(b, pos) {
                        out.push(Violation {
                            file: s.rel.clone(),
                            line: line_of(&s.code, pos),
                            pass: self.name(),
                            msg: format!(
                                "`.{method}()` on the run path can abort a run the \
                                 fault-tolerant engines could finish; return a typed error \
                                 or degrade (audited exceptions: allowlists/panic-freedom.txt)"
                            ),
                        });
                    }
                }
            }
            for mac in PANIC_MACROS {
                for pos in word_occurrences(&s.code, mac) {
                    if b.get(pos + mac.len()) == Some(&b'!') {
                        out.push(Violation {
                            file: s.rel.clone(),
                            line: line_of(&s.code, pos),
                            pass: self.name(),
                            msg: format!(
                                "`{mac}!` on the run path; scheduling and solving must \
                                 degrade into typed errors, not abort \
                                 (docs/FAULT_TOLERANCE.md)"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Does the occurrence at `pos` look like a method call receiver —
/// preceded (after whitespace) by `.`? Filters out `fn unwrap` items
/// and paths like `Option::unwrap` passed as fns (rare; those read as
/// deliberate).
fn is_method_recv(b: &[u8], pos: usize) -> bool {
    let mut k = pos;
    while k > 0 && b[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    k > 0 && b[k - 1] == b'.'
}

/// Is the token ending at `end` followed (after whitespace) by `(` or
/// a turbofish?
fn is_call(b: &[u8], mut end: usize) -> bool {
    while end < b.len() && b[end].is_ascii_whitespace() {
        end += 1;
    }
    b.get(end) == Some(&b'(') || (b.get(end) == Some(&b':') && b.get(end + 1) == Some(&b':'))
}

/// Byte offsets of `[` tokens that open an *index* expression: the
/// previous non-whitespace byte ends a place expression (identifier,
/// `)`, or `]`). Array literals (`[0; n]`), attribute brackets
/// (`#[...]`), macro brackets (`vec![...]`), and type brackets
/// (`: [u8; 4]`) are excluded by that rule. Operates on a code view,
/// so brackets inside strings or comments cannot appear.
fn index_expressions(code: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut hits = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' {
            continue;
        }
        let mut k = i;
        while k > 0 && b[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        let prev = b[k - 1];
        if prev == b')' || prev == b']' {
            hits.push(i);
        } else if is_word_byte(prev) {
            // An identifier ends a place expression; a keyword puts the
            // bracket in type or expression position (`&mut [f64]`,
            // `for x in [a, b]`, `return [0; 4]`).
            let start = b[..k].iter().rposition(|&c| !is_word_byte(c));
            let word = &code[start.map_or(0, |s| s + 1)..k];
            if !BEFORE_A_NON_INDEX_BRACKET.contains(&word) {
                hits.push(i);
            }
        }
    }
    hits
}

/// Keywords after which `[` opens a slice type or an array expression,
/// never an index.
const BEFORE_A_NON_INDEX_BRACKET: &[&str] = &[
    "mut", "const", "dyn", "in", "return", "break", "else", "match", "if", "while",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Source;

    #[test]
    fn an_index_in_the_driver_or_a_backend_is_flagged_whatever_the_allowlist_says() {
        // `host.rs` is on the allowlist for its injected panic.
        let root = crate::workspace_root();
        for rel in [
            "crates/runtime/src/core/mod.rs",
            "crates/runtime/src/engine.rs",
            "crates/runtime/src/host.rs",
        ] {
            let sources = [Source {
                rel: rel.to_string(),
                code: "fn planted(xs: &[u64]) -> u64 { xs[0] }".to_string(),
            }];
            let ctx = Context {
                root: &root,
                sources: &sources,
            };
            let mut out = Vec::new();
            PanicFreedom.run(&ctx, &mut out);
            assert_eq!(out.len(), 1, "{rel}: {out:?}");
        }
    }

    #[test]
    fn index_detection_distinguishes_index_from_literal_and_attr() {
        let code = "#[derive(Debug)] fn f(xs: &[u64], i: usize) -> u64 { \
                    let a = [0u64; 4]; let v = vec![1, 2]; xs[i] + a[0] + m()[1] }";
        let hits = index_expressions(code);
        // xs[i], a[0], m()[1] — not #[derive], not the literal, not vec![.
        assert_eq!(hits.len(), 3, "{hits:?}");
    }

    #[test]
    fn a_keyword_before_the_bracket_is_not_a_place() {
        let code = "fn f(xs: &mut [f64], p: *const [u8]) -> u8 { \
                    for x in [1, 2] { g(x) } if c { return [0; 4][0] } xs[0] = mut_[1]; in_[2] }";
        let hits = index_expressions(code);
        // `[0; 4][0]`, `xs[0]`, `mut_[1]`, `in_[2]` — not the slice
        // types, the `in [..]` array, or the `return [..]` array.
        assert_eq!(hits.len(), 4, "{hits:?}");
    }

    #[test]
    fn unwrap_detection_needs_dot_and_call() {
        let b = "x.unwrap(); y. unwrap (); unwrap(z); fn unwrap() {} let f = Option::unwrap;";
        let bytes = b.as_bytes();
        let hits: Vec<usize> = word_occurrences(b, "unwrap")
            .into_iter()
            .filter(|&p| is_call(bytes, p + "unwrap".len()) && is_method_recv(bytes, p))
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn unwrap_or_is_a_different_word() {
        let code = "x.unwrap_or(0); x.unwrap_or_else(f); x.unwrap_or_default();";
        assert!(word_occurrences(code, "unwrap").is_empty());
    }
}
