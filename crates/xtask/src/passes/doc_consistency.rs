//! Pass 8: the prose tracks the code: every `EventKind` variant's
//! snake_case schema name is documented in `docs/OBSERVABILITY.md`;
//! the trace and checkpoint format versions the code writes (and
//! alone reads) are the ones `docs/OBSERVABILITY.md` and
//! `docs/FAULT_TOLERANCE.md` state as current; and
//! `docs/PERFORMANCE.md` exists and is linked from `README.md` and
//! `docs/ARCHITECTURE.md`.

use std::fs;

use super::{config_error, Context, Pass, EVENTS_MODULE};
use crate::lexer::enum_variants;
use crate::report::Violation;

/// CamelCase → snake_case (the `EventKind` serde tag convention).
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Each on-disk format: the source file and constant holding its one
/// version, the doc that must state it, and how the doc names it.
const FORMATS: [(&str, &str, &str, &str); 2] = [
    (
        EVENTS_MODULE,
        "TRACE_FORMAT_VERSION",
        "docs/OBSERVABILITY.md",
        "trace",
    ),
    (
        "crates/runtime/src/checkpoint.rs",
        "CHECKPOINT_FORMAT_VERSION",
        "docs/FAULT_TOLERANCE.md",
        "checkpoint",
    ),
];

/// The value of `pub const NAME: u32 = N;` in `code`.
fn const_u32(code: &str, name: &str) -> Option<u32> {
    let decl = format!("pub const {name}: u32 =");
    let rest = &code[code.find(&decl)? + decl.len()..];
    rest[..rest.find(';')?].trim().parse().ok()
}

/// The sentence a doc must carry to state `version` as the current
/// `label` format; `None` when `doc` carries it, wrapped anywhere.
fn missing_statement(doc: &str, label: &str, version: u32) -> Option<String> {
    let sentence = format!("The current {label} format version is **{version}**");
    let prose = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    (!prose.contains(&sentence)).then_some(sentence)
}

pub struct DocConsistency;

impl Pass for DocConsistency {
    fn name(&self) -> &'static str {
        "doc-consistency"
    }

    fn summary(&self) -> &'static str {
        "OBSERVABILITY.md / FAULT_TOLERANCE.md / PERFORMANCE.md stay in step with the code"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        // Every EventKind variant's schema name must be documented.
        let observability =
            fs::read_to_string(ctx.root.join("docs/OBSERVABILITY.md")).unwrap_or_default();
        if observability.is_empty() {
            out.push(Violation {
                file: "docs/OBSERVABILITY.md".to_string(),
                line: 1,
                pass: self.name(),
                msg: "missing or unreadable (the event-schema reference)".to_string(),
            });
        } else if let Some(events) = ctx.source(EVENTS_MODULE) {
            if let Some(variants) = enum_variants(&events.code, "pub enum EventKind") {
                for (name, line) in &variants {
                    let tag = snake_case(name);
                    if !observability.contains(&tag) {
                        out.push(Violation {
                            file: events.rel.clone(),
                            line: *line,
                            pass: self.name(),
                            msg: format!(
                                "event kind `{tag}` is not documented in docs/OBSERVABILITY.md \
                                 (the schema reference must cover every variant)"
                            ),
                        });
                    }
                }
            }
        }
        // The docs state the one format version each reader accepts.
        for (module, constant, doc, label) in FORMATS {
            let Some(version) = ctx
                .source(module)
                .and_then(|m| const_u32(&m.code, constant))
            else {
                out.push(config_error(
                    self.name(),
                    format!("no `pub const {constant}: u32` found in {module}"),
                ));
                continue;
            };
            let text = fs::read_to_string(ctx.root.join(doc)).unwrap_or_default();
            if let Some(sentence) = missing_statement(&text, label, version) {
                out.push(Violation {
                    file: doc.to_string(),
                    line: 1,
                    pass: self.name(),
                    msg: format!(
                        "does not say \"{sentence}\" ({constant} in {module}; readers accept \
                         only that version)"
                    ),
                });
            }
        }
        // The performance book must exist and be reachable.
        if !ctx.root.join("docs/PERFORMANCE.md").is_file() {
            out.push(Violation {
                file: "docs/PERFORMANCE.md".to_string(),
                line: 1,
                pass: self.name(),
                msg: "missing (the cost-model and bench-methodology reference)".to_string(),
            });
        } else {
            for linker in ["README.md", "docs/ARCHITECTURE.md"] {
                let text = fs::read_to_string(ctx.root.join(linker)).unwrap_or_default();
                if !text.contains("PERFORMANCE.md") {
                    out.push(Violation {
                        file: linker.to_string(),
                        line: 1,
                        pass: self.name(),
                        msg: "does not link docs/PERFORMANCE.md".to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{const_u32, missing_statement, snake_case};

    #[test]
    fn snake_case_matches_event_tags() {
        assert_eq!(snake_case("RunStart"), "run_start");
        assert_eq!(snake_case("BlockSolve"), "block_solve");
        assert_eq!(snake_case("PuQuarantined"), "pu_quarantined");
        assert_eq!(snake_case("DeviceFailed"), "device_failed");
    }

    #[test]
    fn format_version_read_from_source_and_held_in_docs() {
        let code = "/// doc\npub const TRACE_FORMAT_VERSION: u32 = 7;\n";
        assert_eq!(const_u32(code, "TRACE_FORMAT_VERSION"), Some(7));
        assert_eq!(const_u32(code, "CHECKPOINT_FORMAT_VERSION"), None);
        // A doc still stating the previous version is stale.
        let stale = "The current trace format version is **6**; readers accept only it.";
        assert_eq!(
            missing_statement(stale, "trace", 7).as_deref(),
            Some("The current trace format version is **7**")
        );
        assert_eq!(missing_statement(stale, "trace", 6), None);
        assert_eq!(
            missing_statement("The current trace\nformat version is **6**.", "trace", 6),
            None
        );
        assert!(missing_statement(stale, "checkpoint", 6).is_some());
    }
}
