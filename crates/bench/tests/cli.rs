//! End-to-end tests of the `plb` and `repro` binaries.

use std::process::Command;

fn plb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_plb"))
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
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
    assert!(text.contains("static-profile"));
    assert!(text.contains("items     : 80000"));
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
