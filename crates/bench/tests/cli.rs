//! End-to-end tests of the `plb` and `repro` binaries.

use std::process::Command;

fn plb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_plb"))
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Run `plb` with `args`, assert it succeeded, and return its stdout.
fn plb_ok(args: &[&str]) -> String {
    let out = plb().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The table titled `title` in `plb`'s text output, header row first.
/// Columns are at least two spaces apart and no cell holds two spaces
/// in a row, so that is where a line splits into cells.
fn table(text: &str, title: &str) -> Vec<Vec<String>> {
    let rows: Vec<Vec<String>> = text
        .lines()
        .skip_while(|line| *line != title)
        .skip(1)
        .take_while(|line| line.starts_with("  "))
        .map(|line| {
            line.split("  ")
                .map(str::trim)
                .filter(|cell| !cell.is_empty())
                .map(String::from)
                .collect()
        })
        .collect();
    assert!(!rows.is_empty(), "no `{title}` table in:\n{text}");
    rows
}

/// The cells under `header` in `table`, top to bottom.
fn column(table: &[Vec<String>], header: &str) -> Vec<String> {
    let c = table[0].iter().position(|h| h == header).unwrap();
    table[1..].iter().map(|row| row[c].clone()).collect()
}

/// The row of `table` whose first cell is `key`.
fn row<'a>(table: &'a [Vec<String>], key: &str) -> &'a [String] {
    let found = table[1..].iter().find(|row| row[0] == key);
    found.unwrap_or_else(|| panic!("no `{key}` row in {table:?}"))
}

#[test]
fn plb_cluster_lists_table1() {
    let out = plb().args(["cluster", "--machines", "4"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in ["Tesla K20c", "GTX 295", "GTX 680", "GTX Titan"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn plb_run_emits_report_and_artifacts() {
    let dir = std::env::temp_dir().join("plb_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("run.json");
    let svg = dir.join("run.svg");
    let out = plb()
        .args([
            "run",
            "--app",
            "bs",
            "--size",
            "50000",
            "--machines",
            "2",
            "--policy",
            "plb-hec",
            "--json",
        ])
        .arg(&json)
        .arg("--gantt")
        .arg(&svg)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("makespan"));
    assert!(text.contains("A/gpu0"));
    // Artifacts exist and parse.
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(parsed["total_items"].as_u64(), Some(50_000));
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg"));
}

#[test]
fn plb_profile_then_static_run_roundtrip() {
    let dir = std::env::temp_dir().join("plb_cli_profile_test");
    std::fs::create_dir_all(&dir).unwrap();
    let profiles = dir.join("profiles.json");
    let out = plb()
        .args([
            "profile",
            "--app",
            "grn",
            "--size",
            "80000",
            "--machines",
            "2",
            "--profiles",
        ])
        .arg(&profiles)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = plb()
        .args([
            "run",
            "--app",
            "grn",
            "--size",
            "80000",
            "--machines",
            "2",
            "--policy",
            "static",
            "--profiles",
        ])
        .arg(&profiles)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let run = table(&text, "run");
    assert_eq!(column(&run, "policy"), ["static-profile"]);
    assert_eq!(column(&run, "items"), ["80000"]);
}

#[test]
fn plb_trace_summarizes_a_run_it_recorded() {
    let dir = std::env::temp_dir().join("plb_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("bs.jsonl");
    let events = events.to_str().unwrap();
    let run = plb_ok(&[
        "run",
        "--app",
        "bs",
        "--size",
        "50000",
        "--machines",
        "2",
        "--events",
        events,
    ]);
    let trace = plb_ok(&["trace", "--input", events]);
    let units = column(&table(&run, "per unit"), "unit");
    assert_eq!(units.len(), 5, "{run}");
    assert_eq!(
        column(&table(&trace, "per-unit time accounting"), "unit"),
        units
    );
    let tasks = column(&table(&run, "run"), "tasks");
    let counters = table(&trace, "event counters");
    assert_eq!(row(&counters, "tasks_finished")[1], tasks[0]);
    assert_eq!(column(&table(&trace, "run"), "dropped"), ["0"]);
}

#[test]
fn plb_trace_shows_a_crash_and_a_partition_on_the_cluster_tier() {
    let dir = std::env::temp_dir().join("plb_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let events = dir.join("cluster.jsonl");
    let events = events.to_str().unwrap();
    plb_ok(&[
        "run",
        "--app",
        "mm",
        "--size",
        "8192",
        "--machines",
        "2",
        "--nodes",
        "3",
        "--topology",
        "ring",
        "--node-faults",
        "node-crash:1,2; partition:0+1|2,0.05,0.2",
        "--events",
        events,
    ]);
    let trace = plb_ok(&["trace", "--input", events]);
    // Node 2 is cut off at 0.05 s and re-admitted when the partition
    // heals at 0.20 s.
    let partitions = table(&trace, "partitions");
    assert_eq!(
        row(&partitions, "node2")[1..3],
        ["0.050000s", "0.200000s"],
        "{trace}"
    );
    // The last column names why a node was quarantined.
    let nodes = table(&trace, "cluster nodes");
    assert_eq!(nodes[0].last().unwrap(), "quarantined");
    assert!(row(&nodes, "node1").last().unwrap().contains("crash"));
}

#[test]
fn plb_rejects_bad_arguments() {
    let out = plb().args(["run", "--app", "nonsense"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--app must be"));
}

#[test]
fn plb_rejects_bad_fault_specs() {
    let run = ["run", "--app", "bs", "--size", "20000", "--machines", "2"];
    // Seed 3's elastic chaos plan on five units joins unit 1 after 32
    // tasks. The merged plan would join it twice, and the driver honours
    // a second join by reviving the unit if it was quarantined meanwhile.
    let chaos = ["--chaos", "3", "--chaos-elastic", "2"];
    for (args, needles) in [
        (
            [&run[..], &["--faults", "panic:pu=9,nth=0"]].concat(),
            &["pu 9 out of range for a 5-unit cluster"][..],
        ),
        (
            [
                &run[..],
                &[
                    "--nodes",
                    "3",
                    "--node-faults",
                    "node-crash:1,2; node-crash:1,5",
                ],
            ]
            .concat(),
            &["`node-crash:1,5`: node 1 already crashes earlier in the plan"],
        ),
        (
            [&run[..], &["--faults", "join:pu=1,after=5"], &chaos].concat(),
            &[
                "--faults and the --chaos 3 plan conflict",
                "Fault { pu: 1, kind: Join { after_tasks: 32 } }",
                "pu 1 already joins earlier in the plan",
                "try another --chaos seed",
            ],
        ),
    ] {
        let out = plb().args(&args).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        for needle in needles {
            assert!(err.contains(needle), "{args:?}: no `{needle}` in:\n{err}");
        }
    }
}

#[test]
fn plb_runs_inputs_smaller_than_the_initial_block_floor() {
    for args in [
        ["--app", "mm", "--size", "8", "--machines", "2"],
        ["--app", "bs", "--size", "1", "--machines", "4"],
        ["--app", "spmv", "--size", "1", "--machines", "1"],
    ] {
        let out = plb_ok(&[&["run", "--policy", "plb-hec"], &args[..]].concat());
        assert!(out.contains("tasks_finished"), "{args:?}: {out}");
    }
}

/// Run `cmd`, assert it exits with `code`, and that its stderr names
/// `needle` and reports no panic.
fn assert_refused(mut cmd: Command, args: &[&str], code: i32, needle: &str) {
    let out = cmd.args(args).output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
    assert!(err.contains(needle), "{args:?}: no `{needle}` in:\n{err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn plb_refuses_an_empty_input() {
    for app in ["bs", "mm", "nn"] {
        let needle = format!("--app {app} needs --size of at least 1");
        assert_refused(plb(), &["run", "--app", app, "--size", "0"], 2, &needle);
    }
    let profiles = std::env::temp_dir().join("plb_cli_empty_profiles.json");
    let profile = ["profile", "--app", "mm", "--size", "0", "--profiles"];
    let profile = [&profile[..], &[profiles.to_str().unwrap()]].concat();
    assert_refused(plb(), &profile, 2, "--app mm needs --size of at least 1");
    let diag = ["diag", "--app", "nn", "--size", "0"];
    assert_refused(plb(), &diag, 2, "--app nn needs --size of at least 1");
}

#[test]
fn plb_refuses_a_grn_of_fewer_than_three_genes() {
    let args = ["run", "--app", "grn", "--size", "1"];
    assert_refused(plb(), &args, 2, "--app grn needs --size of at least 3");
}

#[test]
fn plb_refuses_zero_nodes() {
    let args = ["run", "--app", "bs", "--size", "2000", "--nodes", "0"];
    assert_refused(plb(), &args, 2, "bad --nodes");
}

#[test]
fn plb_diag_deep_dive_reads_the_reported_run_in_real_durations() {
    let out = plb_ok(&["diag", "--app", "mm", "--size", "4096", "--machines", "2"]);
    for token in out.split_whitespace() {
        let bare = token.trim_matches(|c| matches!(c, '(' | ')' | ',' | '[' | ']'));
        assert_ne!(bare, "0.0s", "a duration printed as zero in:\n{out}");
    }
    let long = table(&out, "compute segments over 10% of the makespan");
    let durations = column(&long, "duration");
    assert!(!durations.is_empty(), "no long segment in:\n{out}");
    for d in durations {
        let secs: f64 = d.trim_end_matches('s').parse().unwrap();
        assert!(secs > 0.0, "{d}");
    }
    // The selection splits the units the per-unit table above reports.
    let title = out
        .lines()
        .find(|l| l.starts_with("block-size selection: "));
    let selection = table(&out, title.expect("a selection table"));
    let units = column(&table(&out, "per unit"), "unit");
    assert!(units.len() > 1);
    assert_eq!(column(&selection, "unit"), units);
}

#[test]
fn plb_refuses_a_negative_or_undefined_noise() {
    for sigma in ["-1", "nan"] {
        assert_refused(plb(), &["run", "--noise", sigma], 2, "bad --noise");
    }
}

#[test]
fn plb_and_repro_refuse_zero_seeds() {
    let args = ["compare", "--app", "bs", "--size", "1000", "--seeds", "0"];
    assert_refused(plb(), &args, 2, "bad --seeds");
    assert_refused(
        repro(),
        &["fig4", "--seeds", "0"],
        2,
        "--seeds needs a count",
    );
}

#[test]
fn plb_reports_an_output_it_cannot_write() {
    let missing = std::env::temp_dir().join("plb_cli_no_such_dir");
    assert!(!missing.exists(), "{} must not exist", missing.display());
    let path = missing.join("out");
    let path = path.to_str().unwrap();
    for flag in ["--json", "--gantt", "--trace", "--events"] {
        let args = ["run", "--app", "bs", "--size", "2000", flag, path];
        assert_refused(plb(), &args, 1, &format!("cannot write {path}: "));
    }
}

#[test]
fn repro_generates_table1() {
    let dir = std::env::temp_dir().join("plb_cli_repro_test");
    let out = repro()
        .args(["table1", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let md = std::fs::read_to_string(dir.join("table1.md")).unwrap();
    assert!(md.contains("Tesla K20c"));
    assert!(std::fs::metadata(dir.join("table1.csv")).is_ok());
}

#[test]
fn repro_fig5_quick_run_has_speedup_table() {
    let dir = std::env::temp_dir().join("plb_cli_repro_fig5");
    let out = repro()
        .args(["fig5", "--seeds", "1", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let md = std::fs::read_to_string(dir.join("fig5.md")).unwrap();
    assert!(md.contains("speedup vs greedy"));
    assert!(md.contains("BS 500000"));
}
