//! `plbmark`: one benchmark for PLB-HeC's makespan, the balancer's own
//! overhead and every layer's cost, over four workloads. README.md has
//! the metric and workload tables and how to read the output.
//!
//! ```text
//! plbmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//!         [--sweeps <n>] [--selfcheck]
//! ```
//!
//! With `--workload` the process measures that workload and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Without it, each workload runs in a child process of
//! its own, one after the other, so that set-up time and peak memory
//! are per workload.

mod json;
mod metrics;
mod spans;
mod stats;
mod sut;
mod workloads;

use json::Json;
use metrics::{Metric, END_TO_END, PER_LAYER};
use stats::{median, quantile, Summary};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use sut::{PolicyKind, RunOutcome};
use workloads::{Ledger, Prepared, RunKey};

/// The seed of the recorded run (the year and month of the paper).
const DEFAULT_SEED: u64 = 201_509;

/// Seconds one run measures for unless told otherwise; `BENCHMARK.json`
/// passes the same number.
const DEFAULT_SECONDS: f64 = 20.0;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Traced sweeps per traced run; the spans kept are the last one's.
const TRACED_SWEEPS: usize = 3;

/// Spans kept in the span file (a sweep of `sim-cluster` records 2.5
/// million, 300 MB as text).
const MAX_SPANS_WRITTEN: usize = 200_000;

/// Where result files go, relative to the working directory.
const OUT_DIR: &str = "target/plbmark";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweeps: Option<usize>,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sweeps: None,
        selfcheck: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--sweeps" => {
                args.sweeps = Some(
                    value("a count")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or("--sweeps needs a positive count")?,
                );
            }
            "--selfcheck" => args.selfcheck = true,
            // `--trace 0|1` as the driver passes it; bare `--trace` is on.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process in MB, 0 where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn write_file(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Set the workload up [`SETUP_REPS`] times. One set-up is everything
/// that comes before the first timed run: building the inputs (weight
/// tables, cost models, reference outputs) and one checked warm-up run
/// of every cell under every policy, which fills caches and pays for
/// lazy initialisation. Each repetition is a `setup_s` sample, the
/// first counted from process start.
fn set_up(
    name: &str,
    seed: u64,
    started: Instant,
    ledger: &mut Ledger,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut t0 = started;
    let mut prepared = Prepared::new(name, seed)?;
    loop {
        ledger.warm_up(&prepared);
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= SETUP_REPS {
            return Ok((prepared, samples));
        }
        // Drop the inputs before building them again: two copies alive
        // at once would double the peak memory the run reports.
        drop(prepared);
        t0 = Instant::now();
        prepared = Prepared::new(name, seed)?;
    }
}

/// Sweep until the time or the sweep count is used up.
fn sweep_for(prepared: &Prepared, ledger: &mut Ledger, seconds: f64, sweeps: Option<usize>) {
    let t0 = Instant::now();
    loop {
        ledger.sweep(prepared, None);
        let done = ledger.sweep_wall_s.len();
        match sweeps {
            Some(n) if done >= n => break,
            None if done >= 3 && t0.elapsed().as_secs_f64() >= seconds => break,
            _ => {}
        }
    }
}

/// The line the driver reads.
fn result_line(ledger: &Ledger, table: &[Metric], values: &[f64]) -> Json {
    let usable = values.iter().all(|v| v.is_finite());
    Json::obj([
        ("correct", Json::Bool(ledger.failed == 0 && usable)),
        ("attempted", Json::Num(ledger.attempted as f64)),
        ("failed", Json::Num(ledger.failed as f64)),
        (
            "metrics",
            Json::obj(table.iter().zip(values).map(|(m, &v)| {
                let entry = [("value", Json::Num(v)), ("unit", Json::str(m.unit))];
                (m.name, Json::obj(entry))
            })),
        ),
    ])
}

fn print_failures(ledger: &Ledger) {
    println!(
        "  runs_attempted {}  runs_failed {}  failed_frac {}",
        ledger.attempted,
        ledger.failed,
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    for why in &ledger.failures {
        println!("    FAILED {why}");
    }
}

/// Measure one workload's end-to-end metrics (tracing off).
fn end_to_end(args: &Args, name: &str, started: Instant) -> Result<Json, String> {
    let mut ledger = Ledger::default();
    let (prepared, setup_samples) = set_up(name, args.seed, started, &mut ledger)?;
    sweep_for(&prepared, &mut ledger, args.seconds, args.sweeps);
    let e = ledger.end_to_end(&prepared);
    let wall = Summary::of(&ledger.sweep_wall_s);
    let setup = Summary::of(&setup_samples);
    let clock = if prepared.virtual_clock {
        "virtual"
    } else {
        "wall"
    };

    println!(
        "plbmark {name}  seed {}  engine clock: {clock} seconds",
        args.seed
    );
    println!(
        "  one sweep = {} runs, closed loop, one run at a time",
        prepared.keys().len()
    );
    println!("  setup_s              {setup} s");
    println!("  wall_s               {wall} s per sweep");
    println!(
        "  makespan_s           {:.9} s ({clock} clock)",
        e.makespan_s
    );
    println!("  speedup_vs_greedy    {:.6}", e.speedup_vs_greedy);
    println!("  idle_frac            {:.6}", e.idle_frac);
    println!("  overhead_frac        {:.6e}", e.overhead_frac);
    println!(
        "  makespan_tail_ratio  {:.6} (a per-layer metric)",
        e.makespan_tail_ratio
    );
    let rss = peak_rss_mb();
    println!("  peak_rss_mb          {rss:.1} MB");
    if let Some(s) = prepared.single_thread_baseline_s() {
        println!("  single-threaded baseline run: {s:.6} s (wall clock)");
    }
    for (label, plb, greedy) in ledger.per_cell(&prepared) {
        println!("    {label}: plb-hec {plb:.6} s, greedy {greedy:.6} s ({clock} clock)");
    }
    print_failures(&ledger);

    let values = [
        setup.median,
        wall.median,
        e.makespan_s,
        e.speedup_vs_greedy,
        e.idle_frac,
        e.overhead_frac,
        rss,
    ];
    let line = result_line(&ledger, &END_TO_END, &values);
    write_file(&format!("{name}.json"), &(line.to_line() + "\n"))?;
    Ok(line)
}

/// Shorthand for the sums below.
fn total(runs: &[&RunOutcome], f: impl Fn(&RunOutcome) -> u64) -> f64 {
    runs.iter().map(|r| f(r)).sum::<u64>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer numbers that come from the workload's own traced
/// sweep: counts off the runs' events and times off the spans.
fn layers_of_sweep(
    outcomes: &[(RunKey, RunOutcome)],
    spans: &[spans::Span],
    virtual_clock: bool,
) -> Vec<sut::layers::Layer> {
    let all: Vec<&RunOutcome> = outcomes.iter().map(|(_, o)| o).collect();
    let plb_ids: BTreeSet<u32> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, (k, _))| k.policy == PolicyKind::PlbHec)
        .map(|(i, _)| i as u32)
        .collect();
    let plb: Vec<&RunOutcome> = plb_ids.iter().map(|&i| &outcomes[i as usize].1).collect();
    let cluster: Vec<&RunOutcome> = all.iter().copied().filter(|o| o.seen.chunks > 0).collect();

    let own = spans::self_ns(spans);
    let in_layer = |layers: &[&str], plb_only: bool| {
        let (mut self_total, mut finished) = (0u64, 0usize);
        for (s, own) in spans.iter().zip(&own) {
            if layers.contains(&s.name.0) && (!plb_only || plb_ids.contains(&s.run_id)) {
                self_total += own;
                finished += usize::from(s.name.1 == "on_task_finished");
            }
        }
        (ratio(self_total as f64 / 1e3, finished as f64), finished)
    };
    let (hook_us, hook_n) = in_layer(&["policy", "node-policy"], true);
    let (diffusion_us, diffusion_n) = in_layer(&["diffusion"], false);
    let pick = |layer: &str, op: &str, own_time: bool| -> Vec<f64> {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == (layer, op))
            .map(|(s, own)| if own_time { *own } else { s.duration_ns() } as f64 / 1e3)
            .collect()
    };
    let assign_us = pick("ctx", "assign", true);
    let chunk_us = pick("node", "run_chunk", false);
    let solve_us: Vec<f64> = plb
        .iter()
        .flat_map(|o| o.seen.solve_s.iter().map(|s| s * 1e6))
        .collect();
    let gaps_us: Vec<f64> = if virtual_clock {
        Vec::new()
    } else {
        all.iter()
            .flat_map(|o| o.seen.dispatch_gap_s.iter().map(|s| s * 1e6))
            .collect()
    };
    let or_zero = |x: f64| if x.is_finite() { x } else { 0.0 };
    let migrations = total(&all, |o| o.seen.migrations);
    vec![
        ("hec.policy.hook_us_per_task", hook_us, hook_n),
        ("hec.diffusion.hook_us_per_chunk", diffusion_us, diffusion_n),
        (
            "hec.selection.solve_us",
            or_zero(median(&solve_us)),
            solve_us.len(),
        ),
        (
            "hec.selection.solves_per_run",
            ratio(total(&plb, |o| o.seen.solves), plb.len() as f64),
            plb.len(),
        ),
        (
            "hec.policy.rebalances_per_run",
            ratio(total(&plb, |o| o.seen.rebalances), plb.len() as f64),
            plb.len(),
        ),
        (
            "hec.modeling.probe_cost_frac",
            ratio(
                total(&plb, |o| o.seen.probe_cost),
                total(&plb, |o| o.seen.total_cost),
            ),
            plb.len(),
        ),
        (
            "hec.modeling.fit_reject_frac",
            ratio(
                total(&plb, |o| o.seen.fit_rejections),
                total(&plb, |o| o.seen.curve_fits),
            ),
            plb.len(),
        ),
        (
            "runtime.core.assign_us",
            or_zero(median(&assign_us)),
            assign_us.len(),
        ),
        (
            "runtime.core.retries",
            total(&all, |o| o.seen.retries),
            all.len(),
        ),
        (
            "runtime.core.quarantines",
            total(&all, |o| o.seen.quarantines),
            all.len(),
        ),
        (
            "runtime.events.per_task",
            ratio(
                total(&all, |o| o.seen.events_recorded),
                total(&all, |o| o.tasks),
            ),
            all.len(),
        ),
        (
            "runtime.events.dropped",
            total(&all, |o| o.seen.events_dropped),
            all.len(),
        ),
        (
            "runtime.host.dispatch_us_p50",
            or_zero(median(&gaps_us)),
            gaps_us.len(),
        ),
        (
            "runtime.host.dispatch_us_p99",
            or_zero(quantile(&gaps_us, 0.99)),
            gaps_us.len(),
        ),
        (
            "runtime.cluster.chunk_wall_us",
            or_zero(median(&chunk_us)),
            chunk_us.len(),
        ),
        (
            "runtime.cluster.chunks_per_run",
            ratio(total(&cluster, |o| o.seen.chunks), cluster.len() as f64),
            cluster.len(),
        ),
        ("runtime.cluster.migrations", migrations, all.len()),
        (
            "runtime.cluster.migration_retries",
            total(&all, |o| o.seen.migration_retries),
            all.len(),
        ),
        (
            "runtime.cluster.recredits",
            total(&all, |o| o.seen.recredits),
            all.len(),
        ),
        (
            "runtime.cluster.xfer_ms_mean",
            ratio(
                all.iter().map(|o| o.seen.migration_xfer_s).sum::<f64>() * 1e3,
                migrations,
            ),
            migrations as usize,
        ),
    ]
}

/// Measure one workload's per-layer metrics: untraced sweeps for the
/// baseline, traced sweeps for the spans, then the layer benchmarks.
fn per_layer(args: &Args, name: &str, started: Instant) -> Result<Json, String> {
    let mut ledger = Ledger::default();
    let (prepared, _) = set_up(name, args.seed, started, &mut ledger)?;
    sweep_for(&prepared, &mut ledger, args.seconds / 3.0, args.sweeps);
    let untraced_s = median(&ledger.sweep_wall_s);
    let tail_ratio = ledger.end_to_end(&prepared).makespan_tail_ratio;

    // The traced sweeps go into the same ledger, so on a virtual clock
    // every traced run is also held to reproducing its untraced twin.
    let untraced_sweeps = ledger.sweep_wall_s.len();
    let (mut outcomes, mut span_list) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_SWEEPS {
        let rec = spans::Shared::new();
        outcomes = ledger.sweep(&prepared, Some(&rec));
        span_list = rec.take();
    }
    let traced_s = median(&ledger.sweep_wall_s[untraced_sweeps..]);

    let mut found = layers_of_sweep(&outcomes, &span_list, prepared.virtual_clock);
    found.push(("makespan_tail_ratio", tail_ratio, untraced_sweeps));
    found.push((
        "trace_overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        TRACED_SWEEPS,
    ));
    let layer_seed = stats::derive_seed(args.seed, u64::MAX, 0);
    found.extend(sut::layers::measure(layer_seed, Path::new(OUT_DIR)));

    println!("plbmark {name}  seed {}  traced run", args.seed);
    println!(
        "  sweep wall: untraced {untraced_s:.6} s (n={untraced_sweeps}), traced {traced_s:.6} s (n={TRACED_SWEEPS})"
    );
    println!("  span                              count     total ms      self ms");
    let by_name = spans::totals(&span_list);
    for (span_name, t) in &by_name {
        println!(
            "  {span_name:<30} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let roots: u64 = span_list
        .iter()
        .filter(|s| s.parent.is_none())
        .map(spans::Span::duration_ns)
        .sum();
    let selfs: u64 = by_name.values().map(|t| t.self_ns).sum();
    println!(
        "  self times sum to {:.3} ms; the run spans to {:.3} ms",
        selfs as f64 / 1e6,
        roots as f64 / 1e6
    );
    let mut values = Vec::new();
    for m in &PER_LAYER {
        let (_, value, samples) = found
            .iter()
            .find(|(n, _, _)| *n == m.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
        println!("  {:<38} {value:>16.4} {:<8} (n={samples})", m.name, m.unit);
        values.push(*value);
    }
    print_failures(&ledger);

    let line = result_line(&ledger, &PER_LAYER, &values);
    write_file(&format!("{name}.layers.json"), &(line.to_line() + "\n"))?;
    // A parent always precedes its children, so a prefix of the list is
    // a valid span file; the table above covers every span.
    let written = &span_list[..span_list.len().min(MAX_SPANS_WRITTEN)];
    let path = write_file(&format!("{name}.spans.jsonl"), &spans::to_jsonl(written))?;
    println!(
        "  the first {} of {} spans written to {}",
        written.len(),
        span_list.len(),
        path.display()
    );
    Ok(line)
}

/// Run `workload` in a child process, pass its output through, and
/// return its result line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(n) = args.sweeps {
        cmd.args(["--sweeps", &n.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

/// One pass over all workloads: `(workload, traced, result line)`.
fn all_workloads(args: &Args) -> Result<Vec<(&'static str, bool, Json)>, String> {
    let mut lines = Vec::new();
    for name in workloads::NAMES {
        lines.push((name, false, child(args, name, false)?));
        if args.trace {
            lines.push((name, true, child(args, name, true)?));
        }
    }
    Ok(lines)
}

fn value_of(line: &Json, metric: &str) -> Option<f64> {
    line.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn all_correct(lines: &[(&str, bool, Json)]) -> bool {
    lines
        .iter()
        .all(|(_, _, l)| l.get("correct") == Some(&Json::Bool(true)))
}

/// Run everything twice with the same seed. Exact metrics must be
/// identical on the virtual-clock workloads; end-to-end timings must
/// agree within their bound; per-layer timings are printed only.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = all_workloads(args)?;
    let second = all_workloads(args)?;
    let mut ok = all_correct(&first) && all_correct(&second);
    println!("selfcheck: same seed twice, |a - b| / min(a, b) per metric");
    for ((name, traced, a), (_, _, b)) in first.iter().zip(&second) {
        let table: &[Metric] = if *traced { &PER_LAYER } else { &END_TO_END };
        let virtual_clock = *name != "host-bs";
        for m in table {
            let (Some(x), Some(y)) = (value_of(a, m.name), value_of(b, m.name)) else {
                println!("  {name} {}: missing", m.name);
                ok = false;
                continue;
            };
            let spread = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().min(y.abs())
            };
            let (verdict, pass) = if m.exact_on_sim && virtual_clock {
                if x.to_bits() == y.to_bits() {
                    ("exact", true)
                } else {
                    ("NOT EXACT", false)
                }
            } else if *traced {
                ("shown", true)
            } else if spread <= m.bound {
                ("within bound", true)
            } else {
                ("OUTSIDE BOUND", false)
            };
            ok &= pass;
            println!(
                "  {name:<12} {:<38} {x:>16.6} {y:>16.6} {spread:>9.4}  {verdict}",
                m.name
            );
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        _ if args.selfcheck => selfcheck(&args),
        Some(name) => {
            let line = if args.trace {
                per_layer(&args, name, started)
            } else {
                end_to_end(&args, name, started)
            }?;
            // The driver reads the last line of standard output; a run
            // that printed its result has done its job, whatever the
            // result says.
            println!("{}", line.to_line());
            Ok(true)
        }
        None => all_workloads(&args).map(|lines| all_correct(&lines)),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("plbmark: {msg}");
            ExitCode::from(2)
        }
    }
}
