//! Minimal SVG renderers for the reproduced figures: Gantt charts
//! (Fig. 3), grouped bar charts (Figs. 6 and 7), and line charts
//! (Figs. 4 and 5). Pure `std`; no drawing dependencies.

use plb_runtime::{gantt_span, Segment, SegmentKind};
use std::fmt::Write as _;

/// Categorical palette (colorblind-safe-ish).
const PALETTE: [&str; 6] = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#b07aa1",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn svg_header(w: u32, h: u32, title: &str) -> String {
    format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif">
<rect width="{w}" height="{h}" fill="white"/>
<text x="{x}" y="22" font-size="15" text-anchor="middle" font-weight="bold">{t}</text>
"#,
        x = w / 2,
        t = esc(title)
    )
}

/// Render Gantt segments ([`plb_runtime::gantt_segments`]) as a chart:
/// one row per unit of `names`, compute segments in the unit's colour,
/// transfer segments hatched grey.
pub fn gantt_svg(segments: &[Segment], names: &[String], title: &str) -> String {
    let makespan = gantt_span(segments).max(1e-12);
    let n = names.len().max(1);
    let label_w = 110.0;
    let plot_w = 760.0;
    let row_h = 26.0;
    let top = 40.0;
    let w = (label_w + plot_w + 20.0) as u32;
    let h = (top + n as f64 * row_h + 40.0) as u32;

    let mut out = svg_header(w, h, title);
    for (i, name) in names.iter().enumerate() {
        let y = top + i as f64 * row_h;
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end">{}</text>"#,
            label_w - 8.0,
            y + row_h * 0.65,
            esc(name)
        );
        let _ = writeln!(
            out,
            r##"<rect x="{label_w}" y="{y:.1}" width="{plot_w}" height="{:.1}" fill="#f4f4f4"/>"##,
            row_h - 4.0
        );
    }
    for seg in segments {
        let x = label_w + seg.start / makespan * plot_w;
        let width = ((seg.end - seg.start) / makespan * plot_w).max(0.5);
        let y = top + seg.pu as f64 * row_h;
        let (fill, opacity) = match seg.kind {
            SegmentKind::Compute => (PALETTE[seg.pu % PALETTE.len()], "1.0"),
            SegmentKind::Transfer => ("#999999", "0.8"),
        };
        let _ = writeln!(
            out,
            r#"<rect x="{x:.2}" y="{y:.1}" width="{width:.2}" height="{:.1}" fill="{fill}" fill-opacity="{opacity}"/>"#,
            row_h - 4.0
        );
    }
    // Time axis.
    let axis_y = top + n as f64 * row_h + 14.0;
    for k in 0..=4 {
        let frac = k as f64 / 4.0;
        let x = label_w + frac * plot_w;
        let _ = writeln!(
            out,
            r#"<text x="{x:.1}" y="{axis_y:.1}" font-size="10" text-anchor="middle">{:.2}s</text>"#,
            frac * makespan
        );
    }
    out.push_str("</svg>\n");
    out
}

/// One named series of a bar/line chart.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Legend label.
    pub label: String,
    /// One value per category / x-position.
    pub values: Vec<f64>,
}

/// Render grouped vertical bars: `categories` along the x axis, one bar
/// per series within each category (Figs. 6 and 7).
pub(crate) fn grouped_bars_svg(
    title: &str,
    categories: &[String],
    series: &[Series],
    y_label: &str,
) -> String {
    assert!(!categories.is_empty() && !series.is_empty());
    for s in series {
        assert_eq!(s.values.len(), categories.len(), "series arity mismatch");
    }
    let w = 900u32;
    let h = 360u32;
    let left = 60.0;
    let bottom = (h - 50) as f64;
    let top = 46.0;
    let plot_w = w as f64 - left - 30.0;
    let plot_h = bottom - top;

    let max_v = series
        .iter()
        .flat_map(|s| s.values.iter())
        .fold(0.0f64, |m, &v| m.max(v))
        .max(1e-12);

    let mut out = svg_header(w, h, title);
    // y axis with 4 gridlines.
    for k in 0..=4 {
        let frac = k as f64 / 4.0;
        let y = bottom - frac * plot_h;
        let _ = writeln!(
            out,
            r##"<line x1="{left}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#dddddd"/>"##,
            left + plot_w
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="end">{:.3}</text>"#,
            left - 6.0,
            y + 3.0,
            frac * max_v
        );
    }
    let _ = writeln!(
        out,
        r#"<text x="14" y="{:.1}" font-size="11" transform="rotate(-90 14 {:.1})" text-anchor="middle">{}</text>"#,
        top + plot_h / 2.0,
        top + plot_h / 2.0,
        esc(y_label)
    );

    let group_w = plot_w / categories.len() as f64;
    let bar_w = (group_w * 0.8) / series.len() as f64;
    for (ci, cat) in categories.iter().enumerate() {
        let gx = left + ci as f64 * group_w;
        for (si, s) in series.iter().enumerate() {
            let v = s.values[ci];
            let bh = (v / max_v * plot_h).max(0.0);
            let x = gx + group_w * 0.1 + si as f64 * bar_w;
            let y = bottom - bh;
            let _ = writeln!(
                out,
                r#"<rect x="{x:.2}" y="{y:.2}" width="{:.2}" height="{bh:.2}" fill="{}"/>"#,
                bar_w * 0.92,
                PALETTE[si % PALETTE.len()]
            );
        }
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="middle">{}</text>"#,
            gx + group_w / 2.0,
            bottom + 16.0,
            esc(cat)
        );
    }
    legend(&mut out, series, left, 30.0);
    out.push_str("</svg>\n");
    out
}

/// Render a line chart with a log-ish x axis given by explicit
/// positions (Figs. 4 and 5: execution time vs input size, one line per
/// policy).
pub(crate) fn line_chart_svg(
    title: &str,
    x_labels: &[String],
    series: &[Series],
    y_label: &str,
) -> String {
    assert!(x_labels.len() >= 2 && !series.is_empty());
    for s in series {
        assert_eq!(s.values.len(), x_labels.len(), "series arity mismatch");
    }
    let w = 900u32;
    let h = 380u32;
    let left = 70.0;
    let bottom = (h - 50) as f64;
    let top = 46.0;
    let plot_w = w as f64 - left - 30.0;
    let plot_h = bottom - top;

    let max_v = series
        .iter()
        .flat_map(|s| s.values.iter())
        .fold(0.0f64, |m, &v| m.max(v))
        .max(1e-12);

    let mut out = svg_header(w, h, title);
    for k in 0..=4 {
        let frac = k as f64 / 4.0;
        let y = bottom - frac * plot_h;
        let _ = writeln!(
            out,
            r##"<line x1="{left}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#dddddd"/>"##,
            left + plot_w
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="end">{:.3}</text>"#,
            left - 6.0,
            y + 3.0,
            frac * max_v
        );
    }
    let _ = writeln!(
        out,
        r#"<text x="16" y="{:.1}" font-size="11" transform="rotate(-90 16 {:.1})" text-anchor="middle">{}</text>"#,
        top + plot_h / 2.0,
        top + plot_h / 2.0,
        esc(y_label)
    );

    let step = plot_w / (x_labels.len() - 1) as f64;
    for (i, lbl) in x_labels.iter().enumerate() {
        let x = left + i as f64 * step;
        let _ = writeln!(
            out,
            r#"<text x="{x:.1}" y="{:.1}" font-size="10" text-anchor="middle">{}</text>"#,
            bottom + 16.0,
            esc(lbl)
        );
    }
    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        let pts: Vec<String> = s
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                format!(
                    "{:.2},{:.2}",
                    left + i as f64 * step,
                    bottom - v / max_v * plot_h
                )
            })
            .collect();
        let _ = writeln!(
            out,
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
            pts.join(" ")
        );
        for p in &pts {
            let mut it = p.split(',');
            let (x, y) = (it.next().unwrap(), it.next().unwrap());
            let _ = writeln!(out, r#"<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>"#);
        }
    }
    legend(&mut out, series, left, 30.0);
    out.push_str("</svg>\n");
    out
}

fn legend(out: &mut String, series: &[Series], x0: f64, y: f64) {
    let mut x = x0;
    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        let _ = writeln!(
            out,
            r#"<rect x="{x:.1}" y="{:.1}" width="12" height="12" fill="{color}"/>"#,
            y - 10.0
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{y:.1}" font-size="11">{}</text>"#,
            x + 16.0,
            esc(&s.label)
        );
        x += 22.0 + 7.5 * s.label.len() as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_runtime::{gantt_segments, EventKind, EventSink};

    /// A 0.2 s transfer then 1 s of compute on unit 0, 2 s of compute on
    /// unit 1.
    fn sample_segments() -> Vec<Segment> {
        let mut sink = EventSink::new(8);
        for (pu, xfer_s, proc_s) in [(0, 0.2, 1.0), (1, 0.0, 2.0)] {
            let task = pu as u64;
            sink.record(0.0, Some(pu), EventKind::TaskStart { task, items: 10 });
            let finish = EventKind::TaskFinish {
                task,
                items: 10,
                cost: 10,
                xfer_s,
                proc_s,
            };
            sink.record(xfer_s + proc_s, Some(pu), finish);
        }
        gantt_segments(sink.iter())
    }

    #[test]
    fn gantt_contains_rows_and_segments() {
        let names = vec!["cpu".to_string(), "gpu".to_string()];
        let svg = gantt_svg(&sample_segments(), &names, "demo");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains(">cpu<"));
        assert!(svg.contains(">gpu<"));
        // Compute + transfer + background rects present.
        assert!(svg.matches("<rect").count() >= 5);
    }

    #[test]
    fn bars_scale_to_max() {
        let cats = vec!["a".into(), "b".into()];
        let series = vec![
            Series {
                label: "p1".into(),
                values: vec![1.0, 2.0],
            },
            Series {
                label: "p2".into(),
                values: vec![0.5, 1.5],
            },
        ];
        let svg = grouped_bars_svg("demo", &cats, &series, "share");
        assert!(svg.contains("p1") && svg.contains("p2"));
        assert!(svg.matches("<rect").count() >= 4);
    }

    #[test]
    fn line_chart_has_polylines_per_series() {
        let xs = vec!["4096".into(), "8192".into(), "16384".into()];
        let series = vec![
            Series {
                label: "plb".into(),
                values: vec![3.0, 2.0, 1.0],
            },
            Series {
                label: "greedy".into(),
                values: vec![4.0, 4.0, 4.0],
            },
        ];
        let svg = line_chart_svg("demo", &xs, &series, "time");
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_series_rejected() {
        grouped_bars_svg(
            "demo",
            &["a".into()],
            &[Series {
                label: "s".into(),
                values: vec![1.0, 2.0],
            }],
            "y",
        );
    }

    #[test]
    fn titles_are_escaped() {
        let svg = grouped_bars_svg(
            "a < b & c",
            &["x".into()],
            &[Series {
                label: "s".into(),
                values: vec![1.0],
            }],
            "y",
        );
        assert!(svg.contains("a &lt; b &amp; c"));
    }
}
