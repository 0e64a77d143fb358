//! In-memory span recording for the traced sweep.
//!
//! The benchmark's decorators (see `sut::traced`) open a span around
//! each call into a layer and close it on return; spans nest as the
//! calls do, so the open-span stack gives each span its parent. The
//! list is written to disk once, when the run ends. A layer's self
//! time is its spans' time minus the time of their direct children.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, for example `policy.on_task_finished`.
    pub name: (&'static str, &'static str),
    /// Nanoseconds from the recorder's creation to the call.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's creation to the return.
    pub end_ns: u64,
    /// Index of the span this call was made from.
    pub parent: Option<u32>,
    /// The benchmark run (one `run()` of an engine) the span belongs to.
    pub run_id: u32,
}

impl Span {
    /// Nanoseconds from call to return.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans. All calls come from the scheduler thread, so the
/// stack of open spans is the call stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run_id: u32,
}

/// A recorder shared between the decorators of one run. The lock is
/// never contended; it is there because `Policy` must be `Send`.
#[derive(Debug, Clone)]
pub struct Shared(Arc<Mutex<Recorder>>);

impl Shared {
    /// A fresh recorder.
    pub fn new() -> Shared {
        Shared(Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        })))
    }

    fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Spans opened from now on belong to run `run_id`.
    pub fn begin_run(&self, run_id: u32) {
        self.with(|r| r.run_id = run_id);
    }

    /// Open a span; close it with the returned index.
    pub fn open(&self, layer: &'static str, op: &'static str) -> u32 {
        self.with(|r| {
            let id = r.spans.len() as u32;
            let now = r.epoch.elapsed().as_nanos() as u64;
            r.spans.push(Span {
                name: (layer, op),
                start_ns: now,
                end_ns: now,
                parent: r.open.last().copied(),
                run_id: r.run_id,
            });
            r.open.push(id);
            id
        })
    }

    /// Close span `id` and any span left open inside it.
    pub fn close(&self, id: u32) {
        self.with(|r| {
            let now = r.epoch.elapsed().as_nanos() as u64;
            while let Some(top) = r.open.pop() {
                r.spans[top as usize].end_ns = now;
                if top == id {
                    break;
                }
            }
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, layer: &'static str, op: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer, op);
        let out = f();
        self.close(id);
        out
    }

    /// Take the spans recorded so far out of the recorder.
    pub fn take(&self) -> Vec<Span> {
        self.with(|r| {
            r.open.clear();
            std::mem::take(&mut r.spans)
        })
    }
}

/// Run `f`, inside a span when there is a recorder.
pub fn span_if<R>(
    rec: Option<&Shared>,
    layer: &'static str,
    op: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.span(layer, op, f),
        None => f(),
    }
}

/// Each span's duration minus that of its direct children, nanoseconds.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Their summed duration, nanoseconds.
    pub total_ns: u64,
    /// Their summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<String, NameTotal> {
    let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let t = out.entry(format!("{}.{}", s.name.0, s.name.1)).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::Str(format!("{}.{}", s.name.0, s.name.1))),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("run_id", Json::Num(f64::from(s.run_id))),
        ]);
        out.push_str(&line.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: (&'static str, &'static str), start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 1,
        }
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let rec = Shared::new();
        rec.begin_run(5);
        let run = rec.open("engine", "run");
        rec.span("policy", "on_start", || {
            rec.span("ctx", "assign", || {});
            rec.span("ctx", "assign", || {});
        });
        rec.close(run);
        rec.span("engine", "run", || {});
        let spans = rec.take();
        let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(1), None]);
        assert!(spans
            .iter()
            .all(|s| s.run_id == 5 && s.end_ns >= s.start_ns));
        // A child lies inside its parent.
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn self_time_is_a_span_minus_its_direct_children() {
        let spans = vec![
            span(("engine", "run"), 0, 100, None),
            span(("policy", "on_start"), 10, 60, Some(0)),
            span(("ctx", "assign"), 20, 30, Some(1)),
            span(("ctx", "assign"), 40, 55, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(t["engine.run"].self_ns, 50);
        assert_eq!(t["policy.on_start"].total_ns, 50);
        assert_eq!(t["policy.on_start"].self_ns, 25);
        assert_eq!(t["ctx.assign"].count, 2);
        // Self times add up to the root span.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
        assert_eq!(self_ns(&spans), vec![50, 25, 10, 15]);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let text = to_jsonl(&[
            span(("a", "b"), 1, 2, None),
            span(("c", "d"), 1, 2, Some(0)),
        ]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name"), Some(&Json::str("c.d")));
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
