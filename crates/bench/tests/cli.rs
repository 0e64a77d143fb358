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

/// An SpMV matrix past 2³² rows has column indices no `u32` holds: the
/// size is a usage error, refused before anything is allocated for it.
#[test]
fn plb_refuses_an_spmv_matrix_past_two_to_the_32_rows() {
    for size in ["4294967297", "10000000000000"] {
        let args = ["run", "--app", "spmv", "--size", size];
        assert_refused(plb(), &args, 2, "spmv takes at most 2^32");
    }
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
fn repro_finishes_when_stdout_is_closed() {
    let dir = scratch("plb_cli_repro_closed_stdout");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = repro()
        .args(["table1", "--out"])
        .arg(&dir)
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    // The results are still written.
    assert!(std::fs::metadata(dir.join("table1.md")).is_ok());
    assert!(std::fs::metadata(dir.join("table1.csv")).is_ok());
}

#[test]
fn repro_reports_results_it_cannot_write() {
    // `--out` names a file, so no results directory can be made there.
    let file = scratch("plb_cli_repro_unwritable").join("a_file");
    std::fs::write(&file, "").unwrap();
    let path = file.to_str().unwrap();
    for figure in ["table1", "svgs"] {
        assert_refused(repro(), &[figure, "--seeds", "1", "--out", path], 1, path);
    }
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

/// The Table I alternative every `--cluster` case reads: two machines.
const CLUSTER_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../docs/cluster.example.json"
);

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `plb` with `args`: its exit code, stdout and stderr.
fn plb_out(args: &[&str]) -> (Option<i32>, String, String) {
    let out = plb().args(args).output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn plb_help_prints_the_synopsis_of_the_module_doc() {
    let source = include_str!("../src/bin/plb.rs");
    let doc: Vec<&str> = source
        .lines()
        .skip_while(|l| *l != "//! ```text")
        .skip(1)
        .take_while(|l| *l != "//! ```")
        .map(|l| l.trim_start_matches("//! "))
        .collect();
    let (code, _, help) = plb_out(&["--help"]);
    assert_eq!(code, Some(0));
    let synopsis: Vec<&str> = help
        .lines()
        .skip_while(|l| *l != "usage:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert!(synopsis.len() > 6, "{help}");
    assert_eq!(doc, synopsis);
}

/// Every `plb` subcommand, and every flag it reads. Any other pair is
/// a usage error.
const READS: [(&str, &[&str]); 6] = [
    (
        "run",
        &[
            "--app",
            "--size",
            "--skew",
            "--seed",
            "--machines",
            "--single-gpu",
            "--cluster",
            "--noise",
            "--policy",
            "--profiles",
            "--json",
            "--gantt",
            "--trace",
            "--events",
            "--faults",
            "--chaos",
            "--chaos-elastic",
            "--checkpoint",
            "--checkpoint-interval",
            "--resume",
            "--nodes",
            "--topology",
            "--node-faults",
        ],
    ),
    (
        "compare",
        &[
            "--app",
            "--size",
            "--skew",
            "--seed",
            "--seeds",
            "--machines",
            "--single-gpu",
            "--cluster",
            "--noise",
        ],
    ),
    (
        "diag",
        &[
            "--app",
            "--size",
            "--skew",
            "--seed",
            "--machines",
            "--single-gpu",
            "--cluster",
            "--noise",
        ],
    ),
    (
        "profile",
        &[
            "--app",
            "--size",
            "--skew",
            "--seed",
            "--machines",
            "--single-gpu",
            "--cluster",
            "--noise",
            "--profiles",
        ],
    ),
    ("cluster", &["--machines", "--single-gpu", "--cluster"]),
    ("trace", &["--input"]),
];

#[test]
fn plb_reads_each_flag_it_lists_and_refuses_every_other() {
    let dir = scratch("plb_cli_flags");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let events = [file("a.jsonl"), file("b.jsonl")];
    for (path, size) in events.iter().zip(["20000", "30000"]) {
        plb_ok(&["run", "--app", "bs", "--size", size, "--events", path]);
    }
    let profiles = file("profiles.json");
    plb_ok(&[
        "profile",
        "--app",
        "bs",
        "--size",
        "20000",
        "--profiles",
        &profiles,
    ]);
    let out = file("out.json");
    // What a command shows: its stdout, and for `profile` the models it
    // writes, which its stdout only names.
    let shows = |args: &[&str], stdout: String| -> String {
        let written = args.iter().rposition(|a| *a == "--profiles");
        match written.filter(|_| args[0] == "profile") {
            Some(i) => stdout + &std::fs::read_to_string(args[i + 1]).unwrap(),
            None => stdout,
        }
    };
    // Each flag: what it needs besides itself, then the flag with a
    // value other than the subcommand's base or default.
    let flags: Vec<(&str, Vec<String>, Vec<String>)> = [
        ("--app", &[][..], &["--app", "mm"][..]),
        ("--size", &[], &["--size", "1000000"]),
        ("--skew", &["--app", "spmv"], &["--skew", "3.0"]),
        ("--seed", &[], &["--seed", "3"]),
        ("--seeds", &[], &["--seeds", "2"]),
        ("--machines", &[], &["--machines", "2"]),
        ("--single-gpu", &[], &["--single-gpu"]),
        ("--cluster", &[], &["--cluster", CLUSTER_FILE]),
        ("--noise", &[], &["--noise", "0.3"]),
        ("--policy", &[], &["--policy", "greedy"]),
        (
            "--profiles",
            &["--policy", "static"],
            &["--profiles", &profiles],
        ),
        ("--json", &[], &["--json", &file("run.json")]),
        ("--gantt", &[], &["--gantt", &file("run.svg")]),
        ("--trace", &[], &["--trace", &file("run.trace.json")]),
        ("--events", &[], &["--events", &file("run.jsonl")]),
        ("--faults", &[], &["--faults", "flaky:pu=2,n=4"]),
        ("--chaos", &[], &["--chaos", "42"]),
        ("--chaos-elastic", &[], &["--chaos-elastic", "2"]),
        ("--checkpoint", &[], &["--checkpoint", &file("a.ckpt")]),
        (
            "--checkpoint-interval",
            &["--checkpoint", &file("b.ckpt")],
            &["--checkpoint-interval", "8"],
        ),
        (
            "--resume",
            &["--checkpoint", &file("c.ckpt")],
            &["--resume"],
        ),
        ("--nodes", &[], &["--nodes", "2"]),
        ("--topology", &["--nodes", "4"], &["--topology", "ring"]),
        (
            "--node-faults",
            &["--nodes", "3"],
            &["--node-faults", "node-crash:1,2"],
        ),
        ("--input", &[], &["--input", &events[1]]),
    ]
    .into_iter()
    .map(|(name, needs, set)| {
        let owned = |args: &[&str]| args.iter().map(|s| s.to_string()).collect();
        (name, owned(needs), owned(set))
    })
    .collect();
    let base = |cmd: &str| -> Vec<String> {
        let args: &[&str] = match cmd {
            "run" | "diag" => &["--app", "bs", "--size", "20000"],
            "compare" => &["--app", "bs", "--size", "20000", "--seeds", "1"],
            "profile" => &["--app", "bs", "--size", "20000", "--profiles", &out],
            "trace" => &["--input", &events[0]],
            _ => &[],
        };
        [cmd].iter().chain(args).map(|s| s.to_string()).collect()
    };
    let mut pairs = 0;
    for (cmd, reads) in READS {
        for (name, needs, set) in &flags {
            let with = |extra: &[String]| -> Vec<String> {
                let mut args = base(cmd);
                // `profile` writes the file `--profiles` names; only
                // `run` needs `--policy static` to read one.
                if reads.contains(name) && (cmd, *name) != ("profile", "--profiles") {
                    args.extend(needs.iter().cloned());
                }
                args.extend(extra.iter().cloned());
                args
            };
            let args = with(set);
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let (code, stdout, stderr) = plb_out(&args);
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            if reads.contains(name) {
                assert_eq!(code, Some(0), "{args:?}: {stderr}");
                let shown = shows(&args, stdout);
                // Read means it shows: without the flag the output differs.
                // (`--policy static` is refused without its profiles.)
                if !(*name == "--profiles" && cmd == "run") {
                    let without = with(&[]);
                    let without: Vec<&str> = without.iter().map(String::as_str).collect();
                    let before = shows(&without, plb_ok(&without));
                    assert_ne!(before, shown, "{args:?} ignores {name}");
                }
            } else {
                assert_eq!(code, Some(2), "{args:?}: {stderr}");
                let needle = format!("`plb {cmd}` does not read {name}");
                assert!(stderr.contains(&needle), "{args:?}: {stderr}");
            }
            pairs += 1;
        }
    }
    assert_eq!(pairs, 6 * 25);
}

#[test]
fn plb_refuses_flags_that_contradict_or_need_another() {
    let dir = scratch("plb_cli_combinations");
    let profiles = dir.join("profiles.json");
    let profiles = profiles.to_str().unwrap();
    let run = ["run", "--app", "bs", "--size", "20000"];
    // Each row: the arguments after `run`'s, and the flag the refusal
    // names.
    let rows: [(&[&str], &str); 14] = [
        (&["--topology", "ring"], "--topology needs --nodes"),
        (
            &["--nodes", "1", "--topology", "ring"],
            "--topology needs --nodes",
        ),
        (
            &["--node-faults", "node-crash:1,2"],
            "--node-faults needs --nodes",
        ),
        (&["--nodes", "3", "--chaos", "7"], "--chaos injects"),
        (
            &["--nodes", "3", "--chaos-elastic", "2"],
            "--chaos-elastic injects",
        ),
        (
            &[
                "--nodes",
                "3",
                "--topology",
                "ring",
                "--chaos",
                "7",
                "--chaos-elastic",
                "2",
            ],
            "--chaos injects",
        ),
        (
            &["--cluster", CLUSTER_FILE, "--machines", "3"],
            "--cluster replaces",
        ),
        (
            &["--cluster", CLUSTER_FILE, "--single-gpu"],
            "--cluster replaces",
        ),
        (&["--app", "mm", "--skew", "3.0"], "--skew needs --app spmv"),
        (&["--skew", "3.0"], "--skew needs --app spmv"),
        (
            &["--checkpoint-interval", "8"],
            "--checkpoint-interval needs --checkpoint",
        ),
        (&["--resume"], "--resume needs --checkpoint"),
        (
            &["--profiles", profiles],
            "--profiles on run needs --policy static",
        ),
        (
            &["--policy", "greedy", "--profiles", profiles],
            "--profiles on run needs --policy static",
        ),
    ];
    for (extra, needle) in rows {
        assert_refused(plb(), &[&run[..], extra].concat(), 2, needle);
    }
    let compare = ["compare", "--cluster", CLUSTER_FILE, "--machines", "2"];
    assert_refused(plb(), &compare, 2, "--cluster replaces");
    let diag = ["diag", "--app", "bs", "--skew", "2.0"];
    assert_refused(plb(), &diag, 2, "--skew needs --app spmv");
}

/// Each flag `plb` once accepted and silently ignored is now either read
/// (the command succeeds) or refused (exit 2, naming the flag).
#[test]
fn plb_no_longer_ignores_what_it_used_to() {
    let dir = scratch("plb_cli_ignored");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let bs = ["--app", "bs", "--size", "20000"];
    let read: [&[&str]; 5] = [
        &[
            "compare",
            "--noise",
            "0.3",
            "--cluster",
            CLUSTER_FILE,
            "--seeds",
            "1",
        ],
        &[
            "compare", "--app", "bs", "--size", "20000", "--seed", "9", "--seeds", "1",
        ],
        &["diag", "--noise", "0.3"],
        &["diag", "--cluster", CLUSTER_FILE],
        &["run", "--nodes", "3", "--topology", "ring"],
    ];
    for args in read {
        plb_ok(&[args, &bs].concat());
    }
    let refused: [(&[&str], &str); 17] = [
        (&["diag", "--faults", "flaky:pu=2,n=4"], "--faults"),
        (&["diag", "--nodes", "3"], "--nodes"),
        (&["diag", "--topology", "ring"], "--topology"),
        (&["diag", "--checkpoint", &file("ckpt")], "--checkpoint"),
        (&["diag", "--events", &file("e.jsonl")], "--events"),
        (&["diag", "--json", &file("r.json")], "--json"),
        (&["diag", "--gantt", &file("g.svg")], "--gantt"),
        (
            &["run", "--nodes", "3", "--topology", "ring", "--chaos", "7"],
            "--chaos",
        ),
        (
            &["run", "--nodes", "3", "--chaos-elastic", "2"],
            "--chaos-elastic",
        ),
        (&["run", "--topology", "ring"], "--topology"),
        (&["run", "--seeds", "3"], "--seeds"),
        (&["run", "--input", &file("e.jsonl")], "--input"),
        (
            &["run", "--cluster", CLUSTER_FILE, "--single-gpu"],
            "--single-gpu",
        ),
        (
            &["run", "--cluster", CLUSTER_FILE, "--machines", "3"],
            "--machines",
        ),
        (&["run", "--app", "mm", "--skew", "3.0"], "--skew"),
        (&["cluster", "--policy", "greedy"], "--policy"),
        (&["cluster", "--events", &file("e.jsonl")], "--events"),
    ];
    for (args, flag) in refused {
        let workload: &[&str] = if args[0] == "cluster" { &[] } else { &bs };
        let args = [&args[..1], workload, &args[1..]].concat();
        assert_refused(plb(), &args, 2, flag);
    }
}

#[test]
fn compare_and_diag_run_the_noise_and_machines_they_are_given() {
    for cmd in [&["compare", "--seeds", "1"][..], &["diag"][..]] {
        let base = [cmd, &["--app", "bs", "--size", "20000"]].concat();
        let quiet = plb_ok(&base);
        let noisy = plb_ok(&[&base[..], &["--noise", "0.3"]].concat());
        assert_ne!(quiet, noisy, "{cmd:?} ignores --noise");
        let file = plb_ok(&[&base[..], &["--cluster", CLUSTER_FILE]].concat());
        // The file's two machines: node-0 and node-1's units, not A-D's.
        assert!(file.contains("2 machine(s)"), "{file}");
        if cmd[0] == "diag" {
            let units = column(&table(&file, "per unit"), "unit");
            assert!(units.iter().all(|u| u.starts_with("node-")), "{units:?}");
        }
    }
}

#[test]
fn titles_count_the_machines_of_the_platform_run() {
    let dir = scratch("plb_cli_titles");
    let svg = dir.join("g.svg");
    let svg = svg.to_str().unwrap();
    let bs = ["run", "--app", "bs", "--size", "20000", "--gantt", svg];
    for (extra, title) in [
        (
            &["--cluster", CLUSTER_FILE][..],
            "BS 20000 on 2 machine(s) — plb-hec",
        ),
        (
            &["--machines", "3"][..],
            "BS 20000 on 3 machine(s) — plb-hec",
        ),
        (
            &["--cluster", CLUSTER_FILE, "--nodes", "2"][..],
            "BS 20000 on 2 node(s) x 2 machine(s) — plb-hec",
        ),
    ] {
        plb_ok(&[&bs[..], extra].concat());
        let text = std::fs::read_to_string(svg).unwrap();
        assert!(text.contains(title), "{extra:?}: no `{title}` in the Gantt");
    }
}

#[test]
fn plb_finishes_when_stdout_is_closed() {
    let dir = scratch("plb_cli_closed_stdout");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let events = file("e.jsonl");
    let bs = ["--app", "bs", "--size", "20000"];
    plb_ok(&[&["run"][..], &bs, &["--events", &events]].concat());
    let cases: [&[&str]; 6] = [
        &[
            "run",
            "--app",
            "bs",
            "--size",
            "20000",
            "--json",
            &file("r.json"),
        ],
        &["compare", "--app", "bs", "--size", "20000", "--seeds", "1"],
        &["diag", "--app", "mm", "--size", "4096", "--machines", "2"],
        &[
            "profile",
            "--app",
            "bs",
            "--size",
            "20000",
            "--profiles",
            &file("p.json"),
        ],
        &["cluster"],
        &["trace", "--input", &events],
    ];
    for args in cases {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = plb()
            .args(args)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    // The files a run writes are still written.
    assert!(std::fs::metadata(file("r.json")).is_ok());
    assert!(std::fs::metadata(file("p.json")).is_ok());
}
