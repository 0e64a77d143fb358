//! Human-readable reports: one [`Table`] type, its three renderers, and
//! the tables every report of a run is made of.
//!
//! Every text a person reads off a run is a list of tables:
//! [`RunReport::tables`] is what `plb run` prints, [`TraceData::summary`]
//! is what `plb trace` prints, and the [`EventCounters`] table is the
//! counter listing both share. The `repro` figures are tables too. One
//! module owns the layout, so a table renders the same way everywhere:
//! [`Table::to_text`] for a terminal, [`Table::to_markdown`] and
//! [`Table::to_csv`] for `results/`.

use std::collections::BTreeMap;

use crate::events::{EventCounters, EventKind, TraceData};
use crate::metrics::RunReport;

/// A simple column-oriented table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (markdown heading).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Panics if the arity differs from the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        out
    }

    /// Render as CSV (headers + rows; cells are escaped minimally).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self
            .headers
            .iter()
            .map(|h| esc(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Render as aligned text for a terminal: the title, then the header
    /// and each row indented by two spaces, columns two spaces apart,
    /// the first column left-aligned and the others right-aligned.
    pub fn to_text(&self) -> String {
        let lines = || std::iter::once(&self.headers).chain(&self.rows);
        let mut widths = vec![0; self.headers.len()];
        for row in lines() {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = format!("{}\n", self.title);
        for row in lines() {
            let mut line = String::from(" ");
            for (c, (cell, &w)) in row.iter().zip(&widths).enumerate() {
                line.push_str(&if c == 0 {
                    format!(" {cell:<w$}")
                } else {
                    format!("  {cell:>w$}")
                });
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Seconds as the summaries print them.
fn secs(s: f64) -> String {
    format!("{s:.6}s")
}

impl EventCounters {
    /// The nonzero counters, one row each, named by their serde field
    /// names (alphabetical), so a counter added to the struct shows up
    /// in every report without a renderer edit.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new("event counters", &["counter", "count"]);
        if let Ok(serde_json::Value::Object(fields)) = serde_json::to_value(self) {
            for (name, count) in fields {
                if let Some(n) = count.as_u64().filter(|&n| n > 0) {
                    table.push_row(vec![name, n.to_string()]);
                }
            }
        }
        table
    }
}

impl RunReport {
    /// What `plb run` prints: the run (policy, makespan, tasks, items),
    /// one row per unit (items, share, busy time, idle share and the
    /// unit's share of the policy's last declared split), and the event
    /// counters.
    pub fn tables(&self) -> Vec<Table> {
        let mut run = Table::new("run", &["policy", "makespan", "tasks", "items"]);
        run.push_row(vec![
            self.policy.clone(),
            secs(self.makespan),
            self.tasks.to_string(),
            self.total_items.to_string(),
        ]);
        let mut units = Table::new(
            "per unit",
            &["unit", "items", "share", "busy", "idle", "last split"],
        );
        for (i, pu) in self.pus.iter().enumerate() {
            let split = self.block_distribution.as_ref().and_then(|d| d.get(i));
            units.push_row(vec![
                pu.name.clone(),
                pu.items.to_string(),
                format!("{:.2}%", pu.item_share * 100.0),
                format!("{:.4}s", pu.busy_s),
                format!("{:.1}%", pu.idle_fraction * 100.0),
                split.map_or_else(|| "-".into(), |f| format!("{f:.3}")),
            ]);
        }
        vec![run, units, self.events.table()]
    }
}

impl TraceData {
    /// The run's makespan: what its `run_end` reports, or, for a run that
    /// did not end, its latest `task_finish` stamp.
    fn makespan(&self) -> f64 {
        let ended = self.events.iter().rev().find_map(|e| match e.kind {
            EventKind::RunEnd { makespan_s, .. } => Some(makespan_s),
            _ => None,
        });
        ended.unwrap_or_else(|| {
            let finishes = self.events.iter();
            let finishes = finishes.filter(|e| matches!(e.kind, EventKind::TaskFinish { .. }));
            finishes.fold(0.0, |m, e| m.max(e.t))
        })
    }

    /// What `plb trace` prints: the run, per-unit time accounting, the
    /// fit-quality timeline, every block-size selection, the rebalance
    /// history, elastic joins, cluster-node accounting, partitions and
    /// the event counters. Sections with no rows are left out.
    pub fn summary(&self) -> Vec<Table> {
        let names = &self.header.pu_names;
        let name_of = |p: Option<usize>| match p {
            Some(p) => names.get(p).cloned().unwrap_or_else(|| format!("PU{p}")),
            None => "-".into(),
        };
        let ms = self.makespan();
        let tasks: usize = self.units.iter().map(|u| u.tasks).sum();
        let counters = self.counters();
        let totals = counters.table();

        let mut run = Table::new("run", &["policy", "makespan", "tasks", "events", "dropped"]);
        run.push_row(vec![
            self.header.policy.clone(),
            secs(ms),
            tasks.to_string(),
            self.events.len().to_string(),
            counters.dropped.to_string(),
        ]);

        let mut units = Table::new(
            "per-unit time accounting",
            &["unit", "tasks", "compute", "transfer", "idle", "idle%"],
        );
        for (p, u) in self.units.iter().enumerate() {
            let idle = (ms - u.compute_s - u.transfer_s).max(0.0);
            let idle_pct = if ms > 0.0 { idle / ms * 100.0 } else { 0.0 };
            units.push_row(vec![
                name_of(Some(p)),
                u.tasks.to_string(),
                format!("{:.4}s", u.compute_s),
                format!("{:.4}s", u.transfer_s),
                format!("{idle:.4}s"),
                format!("{idle_pct:.1}%"),
            ]);
        }

        let mut fits = Table::new(
            "fit-quality timeline",
            &["t", "unit", "R²(F)", "R²(G)", "n", "verdict", "basis"],
        );
        let mut solves = Table::new(
            "block-size selections",
            &["t", "window", "method", "iters", "solve", "predicted"],
        );
        let mut rebalances = Table::new(
            "rebalances",
            &["t", "unit", "trigger", "expected", "observed", "divergence"],
        );
        let mut joins = Table::new(
            "elastic capacity",
            &["t", "unit", "after tasks", "restabilized in", "rebalances"],
        );
        let mut partitions = Table::new(
            "partitions",
            &["node", "cut off at", "re-admitted at", "restabilized in"],
        );
        let mut nodes: BTreeMap<Option<usize>, NodeTally> = BTreeMap::new();
        for e in &self.events {
            let t = secs(e.t);
            match &e.kind {
                EventKind::CurveFit {
                    r2_f,
                    r2_g,
                    basis_f,
                    samples,
                    accepted,
                } => fits.push_row(vec![
                    t,
                    name_of(e.pu),
                    format!("{r2_f:.3}"),
                    format!("{r2_g:.3}"),
                    samples.to_string(),
                    if *accepted { "accepted" } else { "REJECTED" }.into(),
                    basis_f.clone(),
                ]),
                EventKind::BlockSolve {
                    window,
                    method,
                    iterations,
                    solve_s,
                    predicted_s,
                } => solves.push_row(vec![
                    t,
                    window.to_string(),
                    method.clone(),
                    iterations.to_string(),
                    secs(*solve_s),
                    secs(*predicted_s),
                ]),
                EventKind::RebalanceTriggered {
                    trigger,
                    expected_s,
                    observed_s,
                    divergence,
                } => rebalances.push_row(vec![
                    t,
                    name_of(e.pu),
                    trigger.clone(),
                    secs(*expected_s),
                    secs(*observed_s),
                    format!("{:.1}%", divergence * 100.0),
                ]),
                // Each join with the time the split took to absorb the
                // newcomer (its next `restabilized`) and the rebalances
                // that cost.
                EventKind::PuJoined { after_tasks } => {
                    let settled = self.events.iter().find_map(|s| match s.kind {
                        EventKind::Restabilized { rebalances } if s.pu == e.pu && s.t >= e.t => {
                            Some((secs(s.t - e.t), rebalances.to_string()))
                        }
                        _ => None,
                    });
                    let (took, cost) = settled.unwrap_or_else(|| ("never".into(), "-".into()));
                    joins.push_row(vec![t, name_of(e.pu), after_tasks.to_string(), took, cost]);
                }
                EventKind::MigrationSent { from, .. } => {
                    nodes.entry(e.pu).or_default().mig_in += 1;
                    nodes.entry(Some(*from)).or_default().mig_out += 1;
                }
                EventKind::MigrationRetried { .. } => nodes.entry(e.pu).or_default().retries += 1,
                EventKind::CoverRecredited { cost, .. } => {
                    let tally = nodes.entry(e.pu).or_default();
                    tally.recredits += 1;
                    tally.recredited_cost += cost;
                }
                EventKind::NodeQuarantined { reason } => {
                    nodes
                        .entry(e.pu)
                        .or_default()
                        .quarantines
                        .push(reason.clone());
                    // A partition paired with the node's next
                    // re-admission through the acquisition gate.
                    if reason == "partition" {
                        let rejoin = self.events.iter().find(|r| {
                            r.pu == e.pu
                                && r.t >= e.t
                                && matches!(r.kind, EventKind::NodeJoined { .. })
                        });
                        partitions.push_row(vec![
                            node_name(e.pu),
                            t,
                            rejoin.map_or_else(|| "never".into(), |r| secs(r.t)),
                            rejoin.map_or_else(|| "never".into(), |r| secs(r.t - e.t)),
                        ]);
                    }
                }
                EventKind::NodeJoined { .. } => {
                    nodes.entry(e.pu).or_default();
                }
                _ => {}
            }
        }

        let mut cluster = Table::new(
            "cluster nodes",
            &[
                "node",
                "migrations in",
                "migrations out",
                "retries",
                "re-credits",
                "re-credited cost",
                "quarantined",
            ],
        );
        for (node, tally) in nodes {
            cluster.push_row(vec![
                node_name(node),
                tally.mig_in.to_string(),
                tally.mig_out.to_string(),
                tally.retries.to_string(),
                tally.recredits.to_string(),
                tally.recredited_cost.to_string(),
                if tally.quarantines.is_empty() {
                    "-".into()
                } else {
                    tally.quarantines.join(", ")
                },
            ]);
        }

        let mut sections = vec![
            run, units, fits, solves, rebalances, joins, cluster, partitions, totals,
        ];
        sections.retain(|t| !t.rows.is_empty());
        sections
    }
}

/// A cluster node's migration and fault-domain accounting (`pu` is the
/// node index in a cluster trace).
#[derive(Default)]
struct NodeTally {
    mig_in: u64,
    mig_out: u64,
    retries: u64,
    recredits: u64,
    recredited_cost: u64,
    quarantines: Vec<String>,
}

fn node_name(node: Option<usize>) -> String {
    node.map_or_else(|| "-".into(), |n| format!("node{n}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["x,y".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn text_aligns_the_first_column_left_and_the_rest_right() {
        let mut t = Table::new("demo", &["unit", "R²", "n"]);
        t.push_row(vec!["A/gpu0".into(), "0.5".into(), "12".into()]);
        t.push_row(vec!["cpu".into(), "1.000".into(), "3".into()]);
        assert_eq!(
            t.to_text(),
            "demo\n  \
             unit       R²   n\n  \
             A/gpu0    0.5  12\n  \
             cpu     1.000   3\n"
        );
    }

    #[test]
    fn counters_table_lists_nonzero_fields_by_name() {
        let c = EventCounters {
            tasks_finished: 3,
            probes: 2,
            dropped: 6,
            ..EventCounters::default()
        };
        let table = c.table();
        let rows: Vec<[&str; 2]> = table
            .rows
            .iter()
            .map(|r| [r[0].as_str(), r[1].as_str()])
            .collect();
        assert_eq!(
            rows,
            [["dropped", "6"], ["probes", "2"], ["tasks_finished", "3"]]
        );
    }
}
