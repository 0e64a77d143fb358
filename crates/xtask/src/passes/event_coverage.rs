//! Pass 3: every `EventKind` variant is constructed somewhere outside
//! `events.rs`, is matched explicitly in `EventCounters::tally`,
//! and that match has no `_ =>` wildcard (adding a variant must force
//! a counters decision).

use super::{Context, Pass, EVENTS_MODULE};
use crate::lexer::{enum_variants, fn_body, line_of, wildcard_arm, word_occurrences};
use crate::report::Violation;

pub struct EventCoverage;

impl Pass for EventCoverage {
    fn name(&self) -> &'static str {
        "event-coverage"
    }

    fn summary(&self) -> &'static str {
        "every EventKind variant is emitted and explicitly counted"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        let Some(events) = ctx.source(EVENTS_MODULE) else {
            out.push(Violation {
                file: EVENTS_MODULE.to_string(),
                line: 1,
                pass: self.name(),
                msg: "events module not found".to_string(),
            });
            return;
        };
        let Some(variants) = enum_variants(&events.code, "pub enum EventKind") else {
            out.push(Violation {
                file: events.rel.clone(),
                line: 1,
                pass: self.name(),
                msg: "could not locate `pub enum EventKind`".to_string(),
            });
            return;
        };
        let tally = fn_body(&events.code, "fn tally");
        if tally.is_none() {
            out.push(Violation {
                file: events.rel.clone(),
                line: 1,
                pass: self.name(),
                msg: "could not locate `EventCounters::tally`".to_string(),
            });
        }
        for (name, line) in &variants {
            let needle = format!("EventKind::{name}");
            let constructed = ctx
                .sources
                .iter()
                .any(|s| s.rel != EVENTS_MODULE && !word_occurrences(&s.code, &needle).is_empty());
            if !constructed {
                out.push(Violation {
                    file: events.rel.clone(),
                    line: *line,
                    pass: self.name(),
                    msg: format!(
                        "variant `{name}` is never constructed outside events.rs — \
                         dead schema entry or missing emission site"
                    ),
                });
            }
            if let Some((body, _)) = tally {
                if !body.contains(&needle) {
                    out.push(Violation {
                        file: events.rel.clone(),
                        line: *line,
                        pass: self.name(),
                        msg: format!(
                            "`EventCounters::tally` does not match \
                             `EventKind::{name}` explicitly"
                        ),
                    });
                }
            }
        }
        if let Some((body, body_pos)) = tally {
            if let Some(off) = wildcard_arm(body) {
                out.push(Violation {
                    file: events.rel.clone(),
                    line: line_of(&events.code, body_pos + off),
                    pass: self.name(),
                    msg: "wildcard `_ =>` arm in `EventCounters::tally`; every \
                          variant must make an explicit counting decision"
                        .to_string(),
                });
            }
        }
    }
}
