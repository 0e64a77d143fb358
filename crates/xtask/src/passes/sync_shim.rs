//! Pass 2: inside `crates/runtime/src`, concurrency primitives must
//! come from `crate::sync` (the loom-swappable shim), never directly
//! from `std::sync`.

use super::{Context, Pass, SYNC_SHIM};
use crate::lexer::{line_of, word_occurrences};
use crate::report::Violation;

pub struct SyncShim;

impl Pass for SyncShim {
    fn name(&self) -> &'static str {
        "sync-shim"
    }

    fn summary(&self) -> &'static str {
        "runtime concurrency primitives come from crate::sync only"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        for s in ctx.sources {
            if !s.rel.starts_with("crates/runtime/src/") || s.rel == SYNC_SHIM {
                continue;
            }
            for pos in word_occurrences(&s.code, "std::sync") {
                out.push(Violation {
                    file: s.rel.clone(),
                    line: line_of(&s.code, pos),
                    pass: self.name(),
                    msg: "direct `std::sync` use in plb-runtime; import the primitive \
                          from `crate::sync` so the loom models stay faithful"
                        .to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Source;

    #[test]
    fn a_channel_named_from_std_in_the_host_backend_is_flagged_and_the_shim_is_not() {
        let root = crate::workspace_root();
        let planted = |rel: &str| {
            let sources = [Source {
                rel: rel.to_string(),
                code: "use std::sync::mpsc::{channel, Sender};".to_string(),
            }];
            let ctx = Context {
                root: &root,
                sources: &sources,
                users: &[],
            };
            let mut out = Vec::new();
            SyncShim.run(&ctx, &mut out);
            out.len()
        };
        assert_eq!(planted("crates/runtime/src/host.rs"), 1);
        assert_eq!(planted(SYNC_SHIM), 0);
        assert_eq!(planted("crates/apps/src/matmul.rs"), 0);
    }
}
