//! Pass 2: inside `crates/runtime/src`, concurrency primitives must
//! come from `crate::sync` (the loom-swappable shim), never directly
//! from `std::sync`; atomics are named only in `protocol.rs`, the home
//! of the state that threads really share; and every type declared
//! there is exercised by a loom model.

use super::{config_error, Context, Pass, SYNC_SHIM};
use crate::lexer::{line_of, match_delim, word_occurrences};
use crate::report::Violation;

/// The one runtime module allowed to name atomics.
const PROTOCOL: &str = "crates/runtime/src/protocol.rs";

/// The loom models of `PROTOCOL`'s types.
const LOOM_MODELS: &str = "crates/runtime/tests/loom_models.rs";

pub struct SyncShim;

impl SyncShim {
    fn violation(&self, file: &str, line: usize, msg: String) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            pass: self.name(),
            msg,
        }
    }

    /// Every `pub struct` / `pub enum` of `protocol` that no
    /// `loom::model(..)` body of `models` names.
    fn unmodeled(&self, protocol: &str, models: &str, out: &mut Vec<Violation>) {
        let b = models.as_bytes();
        let bodies: Vec<&str> = word_occurrences(models, "loom::model")
            .into_iter()
            .filter_map(|pos| {
                let open = pos + models[pos..].find('(')?;
                Some(&models[open..match_delim(b, open, b'(', b')')?])
            })
            .collect();
        for kw in ["pub struct", "pub enum"] {
            for pos in word_occurrences(protocol, kw) {
                let rest = protocol[pos + kw.len()..].trim_start();
                let end = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                let name = &rest[..end];
                if bodies
                    .iter()
                    .any(|body| !word_occurrences(body, name).is_empty())
                {
                    continue;
                }
                let msg = format!(
                    "`{name}` is shared between threads but no loom model in \
                     {LOOM_MODELS} exercises it"
                );
                out.push(self.violation(PROTOCOL, line_of(protocol, pos), msg));
            }
        }
    }
}

impl Pass for SyncShim {
    fn name(&self) -> &'static str {
        "sync-shim"
    }

    fn summary(&self) -> &'static str {
        "runtime concurrency primitives come from crate::sync only; atomics live in protocol.rs, \
         each type there loom-modeled"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        for s in ctx.sources {
            if !s.rel.starts_with("crates/runtime/src/") || s.rel == SYNC_SHIM {
                continue;
            }
            for pos in word_occurrences(&s.code, "std::sync") {
                let msg = "direct `std::sync` use in plb-runtime; import the primitive \
                           from `crate::sync` so the loom models stay faithful";
                out.push(self.violation(&s.rel, line_of(&s.code, pos), msg.to_string()));
            }
            if s.rel == PROTOCOL {
                continue;
            }
            for pos in word_occurrences(&s.code, "atomic") {
                let msg = format!(
                    "atomic named outside {PROTOCOL}: state only the driver thread touches \
                     is plain data, and state threads share is a protocol type with a loom model"
                );
                out.push(self.violation(&s.rel, line_of(&s.code, pos), msg));
            }
        }
        let Some(protocol) = ctx.source(PROTOCOL) else {
            return;
        };
        match ctx.users.iter().find(|u| u.rel == LOOM_MODELS) {
            Some(models) => self.unmodeled(&protocol.code, &models.code, out),
            None => out.push(config_error(
                self.name(),
                format!("{PROTOCOL} exists but {LOOM_MODELS} does not"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Source;

    fn violations(sources: &[Source], users: &[Source]) -> usize {
        let root = crate::workspace_root();
        let ctx = Context {
            root: &root,
            sources,
            users,
        };
        let mut out = Vec::new();
        SyncShim.run(&ctx, &mut out);
        out.len()
    }

    fn source(rel: &str, code: &str) -> Source {
        Source {
            rel: rel.to_string(),
            code: code.to_string(),
        }
    }

    #[test]
    fn a_channel_named_from_std_in_the_host_backend_is_flagged_and_the_shim_is_not() {
        let planted = |rel: &str| {
            let code = "use std::sync::mpsc::{channel, Sender};";
            violations(&[source(rel, code)], &[])
        };
        assert_eq!(planted("crates/runtime/src/host.rs"), 1);
        assert_eq!(planted(SYNC_SHIM), 0);
        assert_eq!(planted("crates/apps/src/matmul.rs"), 0);
    }

    #[test]
    fn an_atomic_outside_the_protocol_module_or_an_unmodeled_protocol_type_is_flagged() {
        let models = "use plb_runtime::protocol::{Gate, Slot};\n\
                      #[test]\nfn slot() { loom::model(|| { let s = Slot::new(); }); }";
        let planted = |rel: &str, code: &str| {
            violations(&[source(rel, code)], &[source(LOOM_MODELS, models)])
        };
        let atomic = "use crate::sync::atomic::{AtomicU8, Ordering};";
        assert_eq!(planted("crates/runtime/src/core/mod.rs", atomic), 1);
        assert_eq!(planted(SYNC_SHIM, atomic), 0);
        assert_eq!(planted("crates/apps/src/matmul.rs", atomic), 0);
        // `Gate` is imported by the models file, but no model runs it.
        assert_eq!(
            planted(PROTOCOL, &format!("{atomic} pub struct Slot {{}}")),
            0
        );
        let unmodeled = format!("{atomic} pub struct Slot {{}} pub enum Gate {{}}");
        assert_eq!(planted(PROTOCOL, &unmodeled), 1);
        assert_eq!(
            violations(&[source(PROTOCOL, "pub struct Slot {}")], &[]),
            1,
            "a protocol module without models"
        );
    }
}
