//! `plb` — run heterogeneous load-balancing experiments from the
//! command line.
//!
//! ```text
//! plb run     [--app mm|grn|bs|nn|spmv] [--size N] [--skew A] [--seed N]
//!             [--machines 1-4] [--single-gpu] [--cluster FILE.json]
//!             [--noise SIGMA] [--policy plb-hec|greedy|acosta|hdss|static]
//!             [--profiles FILE.json] [--json FILE] [--gantt FILE.svg]
//!             [--trace FILE.json] [--events FILE.jsonl] [--faults SPEC]
//!             [--chaos SEED] [--chaos-elastic N] [--checkpoint FILE]
//!             [--checkpoint-interval N] [--resume] [--nodes N]
//!             [--topology full|ring|star] [--node-faults SPEC]
//! plb compare [--app mm|grn|bs|nn|spmv] [--size N] [--skew A] [--seed N]
//!             [--seeds N] [--machines 1-4] [--single-gpu] [--cluster FILE.json]
//!             [--noise SIGMA]
//! plb diag    [--app mm|grn|bs|nn|spmv] [--size N] [--skew A] [--seed N]
//!             [--machines 1-4] [--single-gpu] [--cluster FILE.json]
//!             [--noise SIGMA]
//! plb profile [--app mm|grn|bs|nn|spmv] [--size N] [--skew A] [--seed N]
//!             [--machines 1-4] [--single-gpu] [--cluster FILE.json]
//!             [--noise SIGMA] [--profiles FILE.json]
//! plb cluster [--machines 1-4] [--single-gpu] [--cluster FILE.json]
//! plb trace   [--input FILE.jsonl]
//! ```
//!
//! This synopsis is [`FLAGS`] printed by `plb --help`, and a test holds
//! the two equal. A flag that a subcommand does not list is a usage
//! error (exit 2), as is a combination [`check_combinations`] refuses.
//! argv becomes one [`RunSpec`], so every subcommand that runs reads its
//! flags the same way.
//!
//! `run` executes one simulated run and prints the report (optionally a
//! JSON dump, an SVG Gantt, and a structured JSONL event trace);
//! `compare` runs all four policies with seeds `--seed` … `--seed` +
//! `--seeds` − 1 and prints their makespans and speedups; `diag` runs
//! every policy once and prints each one's report (shares,
//! distributions, solve times) plus a PLB-HeC deep dive into its
//! block-size selection; `profile` probes each unit offline and saves
//! its fitted models for `run --policy static`; `cluster` shows the
//! platform's machines; `trace` loads a JSONL trace written by
//! `run --events` and prints per-PU time accounting, fit-quality
//! timelines, block-size selections and the rebalance history (see
//! docs/OBSERVABILITY.md for the file format). Every report is a list
//! of [`Table`]s printed by [`Table::to_text`].

use plb_bench::harness::{App, PolicyChoice, PolicyKind, RunOutcome, RunSpec};
use plb_bench::viz::gantt_svg;
use plb_hec::UnitModel;
use plb_hetsim::{cluster_scenario, MachineSpec, Scenario, Topology};
use plb_runtime::{
    chrome_trace, gantt_segments, write_jsonl, Checkpoint, CheckpointConfig, CheckpointError,
    FaultPlan, NodeFaultPlan, SegmentKind, Table, TraceData, TraceHeader,
};
use std::io::Write as _;

/// `println!` that tolerates a closed stdout (`plb run | head -1`):
/// everything `plb` prints goes through here or [`print_tables`].
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// The subcommands, in usage order.
const COMMANDS: [&str; 6] = ["run", "compare", "diag", "profile", "cluster", "trace"];

/// The subcommands that build a workload.
const WORKLOAD: &[&str] = &["run", "compare", "diag", "profile"];

/// The subcommands that read a platform: the workload ones and `cluster`.
const PLATFORM: &[&str] = &["run", "compare", "diag", "profile", "cluster"];

/// One flag: its name, the value it takes (empty for a switch), and the
/// subcommands that read it.
struct Flag {
    name: &'static str,
    value: &'static str,
    cmds: &'static [&'static str],
}

const fn flag(name: &'static str, value: &'static str, cmds: &'static [&'static str]) -> Flag {
    Flag { name, value, cmds }
}

/// Every flag, and who reads it. Any other (subcommand, flag) pair is a
/// usage error.
static FLAGS: [Flag; 25] = [
    flag("--app", "mm|grn|bs|nn|spmv", WORKLOAD),
    flag("--size", "N", WORKLOAD),
    flag("--skew", "A", WORKLOAD),
    flag("--seed", "N", WORKLOAD),
    flag("--seeds", "N", &["compare"]),
    flag("--machines", "1-4", PLATFORM),
    flag("--single-gpu", "", PLATFORM),
    flag("--cluster", "FILE.json", PLATFORM),
    flag("--noise", "SIGMA", WORKLOAD),
    flag("--policy", "plb-hec|greedy|acosta|hdss|static", &["run"]),
    flag("--profiles", "FILE.json", &["run", "profile"]),
    flag("--json", "FILE", &["run"]),
    flag("--gantt", "FILE.svg", &["run"]),
    flag("--trace", "FILE.json", &["run"]),
    flag("--events", "FILE.jsonl", &["run"]),
    flag("--faults", "SPEC", &["run"]),
    flag("--chaos", "SEED", &["run"]),
    flag("--chaos-elastic", "N", &["run"]),
    flag("--checkpoint", "FILE", &["run"]),
    flag("--checkpoint-interval", "N", &["run"]),
    flag("--resume", "", &["run"]),
    flag("--nodes", "N", &["run"]),
    flag("--topology", "full|ring|star", &["run"]),
    flag("--node-faults", "SPEC", &["run"]),
    flag("--input", "FILE.jsonl", &["trace"]),
];

/// What the synopsis leaves out.
const NOTES: &str = "\
Defaults: --app mm --size 16384 --machines 4 --noise 0.02 --seed 0 \
--policy plb-hec; `compare` runs --seeds 5. `trace` needs --input, and \
`profile` needs --profiles, the file it writes. \
`--app spmv` is the irregular workload: a sparse matrix whose power-law \
row lengths are generated from --seed, with tail exponent --skew \
(default 1.2, supported range [0.5, 4.0]) and at most 2^32 rows; the \
run balances nonzeros, not rows. A --cluster file is a JSON array of \
machine specs (see docs/cluster.example.json); it replaces the Table I \
presets. \
`plb profile` probes each unit offline and saves its fitted models; \
`plb run --policy static --profiles FILE` reuses them without any \
online probing. `plb run --events` captures the structured \
decision-event trace (docs/OBSERVABILITY.md) that `plb trace` \
summarizes offline. `plb run --faults` injects deterministic faults, \
listed in any order, e.g. 'panic:pu=1,nth=3; flaky:pu=2,n=4; \
delay:pu=0,from=2,n=5,s=0.1; join:pu=3,after=40; \
drift:pu=1,kind=sin,from=0,period=16,amp=0.5', and `--chaos SEED` adds \
a seeded random fault plan on top (a merge that breaks a plan rule, such \
as a second join of one unit, is refused); `--chaos-elastic N` extends \
it with N seeded hot-joins and drift schedules \
(docs/FAULT_TOLERANCE.md, Elastic capacity). `--checkpoint FILE` \
snapshots run state every N completed tasks (default 32) so `--resume` \
can continue a killed run (docs/FAULT_TOLERANCE.md). `--nodes N` runs \
the multi-node cluster tier: N simulated nodes (each a full copy of the \
platform running the intra-node --policy) balanced by node-level \
diffusion over --topology, with inter-node migration; `--node-faults` \
injects node fault domains, e.g. 'node-crash:1,2; \
partition:0+1|2,0.5,2.0; link-degrade:0-1,4.0,0.0,3.0' \
(docs/FAULT_TOLERANCE.md, Node fault domains); `--chaos` is for one \
node only. A flag a subcommand does not list above is refused.";

/// The synopsis: each subcommand and the flags it reads, wrapped at 80
/// columns.
fn synopsis() -> String {
    let mut text = String::new();
    for cmd in COMMANDS {
        let mut line = format!("plb {cmd:<7}");
        for f in FLAGS.iter().filter(|f| f.cmds.contains(&cmd)) {
            let item = if f.value.is_empty() {
                format!(" [{}]", f.name)
            } else {
                format!(" [{} {}]", f.name, f.value)
            };
            if line.len() + item.len() > 80 {
                text.push_str(&line);
                text.push('\n');
                line = " ".repeat(11);
            }
            line.push_str(&item);
        }
        text.push_str(&line);
        text.push('\n');
    }
    text
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage:\n{}\n{NOTES}", synopsis());
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// argv, checked against [`FLAGS`]: the subcommand and each flag given
/// to it, with its value (empty for a switch).
struct Args {
    cmd: &'static str,
    given: Vec<(&'static str, String)>,
}

impl Args {
    fn parse() -> Args {
        let mut cmd = None;
        let mut given = Vec::new();
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            if arg == "-h" || arg == "--help" {
                usage("");
            }
            if let Some(c) = COMMANDS.iter().find(|&&c| c == arg) {
                cmd = Some(*c);
                continue;
            }
            let Some(f) = FLAGS.iter().find(|f| f.name == arg) else {
                usage(&format!("unknown argument {arg}"));
            };
            let value = if f.value.is_empty() {
                String::new()
            } else {
                argv.next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
            };
            given.push((f, value));
        }
        let cmd = cmd.unwrap_or_else(|| usage("missing command"));
        let given = given
            .into_iter()
            .map(|(f, value)| {
                if !f.cmds.contains(&cmd) {
                    usage(&format!("`plb {cmd}` does not read {}", f.name));
                }
                (f.name, value)
            })
            .collect();
        let a = Args { cmd, given };
        check_combinations(&a);
        a
    }

    /// The value of `name`; the last one when it was given twice.
    fn value(&self, name: &str) -> Option<&str> {
        let last = self.given.iter().rev().find(|(n, _)| *n == name);
        last.map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of `name` parsed, or a usage error saying it `expects`
    /// something `ok` accepts.
    fn parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        expects: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .ok()
                .filter(|t| ok(t))
                .unwrap_or_else(|| usage(&format!("bad {name} {v} (expects {expects})")))
        })
    }

    fn nodes(&self) -> usize {
        self.parsed("--nodes", "a count of at least 1", |n| *n > 0)
            .unwrap_or(1)
    }
}

/// Flags that contradict one another, or mean nothing without another.
fn check_combinations(a: &Args) {
    let tier = a.nodes() > 1;
    let refused = [
        (
            !tier && a.has("--topology"),
            "--topology needs --nodes N with N > 1",
        ),
        (
            !tier && a.has("--node-faults"),
            "--node-faults needs --nodes N with N > 1",
        ),
        (
            tier && a.has("--chaos"),
            "--chaos injects unit faults on one node; it cannot go with --nodes N > 1",
        ),
        (
            tier && a.has("--chaos-elastic"),
            "--chaos-elastic injects unit faults on one node; it cannot go with --nodes N > 1",
        ),
        (
            a.has("--cluster") && a.has("--machines"),
            "--cluster replaces the Table I presets that --machines picks; give one",
        ),
        (
            a.has("--cluster") && a.has("--single-gpu"),
            "--cluster replaces the Table I presets that --single-gpu trims; give one",
        ),
        (
            a.has("--skew") && a.value("--app") != Some("spmv"),
            "--skew needs --app spmv",
        ),
        (
            a.has("--checkpoint-interval") && !a.has("--checkpoint"),
            "--checkpoint-interval needs --checkpoint FILE",
        ),
        (
            a.has("--resume") && !a.has("--checkpoint"),
            "--resume needs --checkpoint FILE",
        ),
        (
            a.cmd == "run" && a.has("--profiles") && a.value("--policy") != Some("static"),
            "--profiles on run needs --policy static",
        ),
    ];
    if let Some((_, why)) = refused.iter().find(|(broken, _)| *broken) {
        usage(why);
    }
}

/// The PLB-HeC deep dive of `diag`: the run's first block-size
/// selection, one row per unit, and every compute segment longer than a
/// tenth of the makespan.
fn deep_dive(o: &RunOutcome) -> [Table; 2] {
    let secs = |s: f64| format!("{s:.6}s");
    let names: Vec<&str> = o.report.pus.iter().map(|p| p.name.as_str()).collect();
    let mut selection = Table::new(
        "block-size selection: none recorded (run too small?)",
        &["unit", "fraction", "block"],
    );
    if let Some(sel) = &o.selection {
        selection.title = format!(
            "block-size selection: {:?}, predicted makespan {}",
            sel.method,
            secs(sel.predicted_time)
        );
        for ((name, frac), block) in names.iter().zip(&sel.fractions).zip(&sel.blocks) {
            let row = vec![name.to_string(), format!("{frac:.4}"), block.to_string()];
            selection.push_row(row);
        }
    }
    let threshold = o.report.makespan * 0.1;
    let mut long = Table::new(
        "compute segments over 10% of the makespan",
        &["unit", "task", "items", "start", "end", "duration"],
    );
    for seg in gantt_segments(o.events.iter()) {
        if seg.kind == SegmentKind::Compute && seg.end - seg.start > threshold {
            let name = names.get(seg.pu).copied().unwrap_or("?");
            long.push_row(vec![
                name.to_string(),
                seg.task.to_string(),
                seg.items.to_string(),
                secs(seg.start),
                secs(seg.end),
                secs(seg.end - seg.start),
            ]);
        }
    }
    [selection, long]
}

/// The one spec a subcommand's flags describe. On `run` this prints the
/// `--chaos` plan it merges, then what `--resume` found.
fn spec_of(a: &Args) -> RunSpec {
    let seed = a.parsed("--seed", "an integer", |_| true).unwrap_or(0);
    let noise = a
        .parsed("--noise", "a finite SIGMA >= 0", |s: &f64| {
            s.is_finite() && *s >= 0.0
        })
        .unwrap_or(0.02);
    let app = app_of(a, seed);
    let machines = machines_of(a);
    let policy = policy_of(a);
    let nodes = a.nodes();
    let units = machines.iter().map(|m| 1 + m.gpus.len()).sum();
    let faults = faults_of(a, seed, if nodes > 1 { nodes } else { units });
    let (checkpoint, resume) = durability_of(a);
    let topology = a.value("--topology").map_or(Topology::Full, |t| {
        Topology::parse(t).unwrap_or_else(|e| usage(&format!("bad --topology: {e}")))
    });
    let node_faults = a
        .value("--node-faults")
        .map_or_else(NodeFaultPlan::none, |s| {
            NodeFaultPlan::parse(s, nodes)
                .unwrap_or_else(|e| usage(&format!("bad --node-faults spec: {e}")))
        });
    RunSpec {
        app,
        machines,
        noise,
        seed,
        policy,
        faults,
        checkpoint,
        resume,
        nodes,
        topology,
        node_faults,
        ..RunSpec::default()
    }
}

fn app_of(a: &Args, seed: u64) -> App {
    let name = a.value("--app").unwrap_or("mm");
    let size = a.parsed("--size", "a count", |_| true).unwrap_or(16384);
    // Validate up front so bad parameters are a usage error, not a panic
    // deep inside the harness.
    let app = match name {
        "mm" | "matmul" => App::MatMul(size),
        "grn" => App::Grn(size),
        "bs" | "blackscholes" => App::BlackScholes(size),
        "nn" | "nnlayer" => App::NnLayer(size),
        "spmv" => {
            let skew = a
                .parsed("--skew", "a power-law exponent", |_| true)
                .unwrap_or(1.2);
            if let Err(e) = plb_apps::Spmv::validate(size, skew) {
                usage(&e);
            }
            App::Spmv {
                rows: size,
                skew,
                seed,
            }
        }
        _ => usage("--app must be mm, grn, bs, nn or spmv"),
    };
    let least = if let App::Grn(_) = app { 3 } else { 1 };
    if size < least {
        usage(&format!("--app {name} needs --size of at least {least}"));
    }
    app
}

/// Machines from a `--cluster` file, or the Table I presets.
fn machines_of(a: &Args) -> Vec<MachineSpec> {
    let Some(path) = a.value("--cluster") else {
        let scenario = match a.parsed("--machines", "1-4", |_: &usize| true).unwrap_or(4) {
            1 => Scenario::One,
            2 => Scenario::Two,
            3 => Scenario::Three,
            4 => Scenario::Four,
            _ => usage("--machines must be 1-4 (the paper's Table I)"),
        };
        return cluster_scenario(scenario, a.has("--single-gpu"));
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let machines: Vec<MachineSpec> = serde_json::from_str(&text)
        .unwrap_or_else(|e| usage(&format!("bad cluster JSON in {path}: {e}")));
    if machines.is_empty() {
        usage(&format!("{path} lists no machines"));
    }
    machines
}

fn policy_of(a: &Args) -> PolicyChoice {
    let kind = match a.value("--policy").unwrap_or("plb-hec") {
        "plb-hec" | "plb" => PolicyKind::PlbHec,
        "greedy" => PolicyKind::Greedy,
        "acosta" => PolicyKind::Acosta,
        "hdss" => PolicyKind::Hdss,
        "static" => {
            let path = a
                .value("--profiles")
                .unwrap_or_else(|| usage("--policy static requires --profiles FILE.json"));
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
            let models: Vec<UnitModel> = serde_json::from_str(&text)
                .unwrap_or_else(|e| usage(&format!("bad profile JSON in {path}: {e}")));
            return PolicyChoice::Static(models);
        }
        _ => usage("--policy must be plb-hec, greedy, acosta, hdss or static"),
    };
    PolicyChoice::Paper(kind)
}

/// `--faults` over `n` units (or nodes), plus the seeded `--chaos` /
/// `--chaos-elastic` plan, which only one node takes.
fn faults_of(a: &Args, seed: u64, n: usize) -> FaultPlan {
    let mut plan = match a.value("--faults") {
        Some(spec) => {
            FaultPlan::parse(spec, n).unwrap_or_else(|e| usage(&format!("bad --faults spec: {e}")))
        }
        None => FaultPlan::none(),
    };
    let chaos = a.parsed("--chaos", "a seed", |_| true);
    let elastic = a
        .parsed("--chaos-elastic", "an intensity", |_| true)
        .unwrap_or(0);
    if chaos.is_some() || elastic > 0 {
        // `--chaos-elastic N` grows the seeded plan with N join/drift
        // faults per unit dimension; without an explicit `--chaos` seed
        // it reuses the run seed.
        let seed = chaos.unwrap_or(seed);
        let chaos = FaultPlan::chaos_elastic(seed, n, 2 * n, elastic);
        say!(
            "chaos seed {seed}: injecting {} faults (elastic intensity {elastic})",
            chaos.faults.len()
        );
        plan.faults.extend(chaos.faults);
        // The merge can break a rule neither plan breaks alone, e.g. a
        // second join of one unit.
        plan.validate(n).unwrap_or_else(|e| {
            usage(&format!(
                "--faults and the --chaos {seed} plan conflict: {e}; try another --chaos seed"
            ))
        });
    }
    plan
}

/// `--checkpoint FILE [--checkpoint-interval N] [--resume]`: where to
/// snapshot, and the snapshot to resume from when `--resume` finds one
/// there.
fn durability_of(a: &Args) -> (Option<CheckpointConfig>, Option<Checkpoint>) {
    let Some(path) = a.value("--checkpoint") else {
        return (None, None);
    };
    let mut cfg = CheckpointConfig::new(path);
    if let Some(every) = a.parsed("--checkpoint-interval", "a task count", |_| true) {
        cfg = cfg.with_interval(every);
    }
    if !a.has("--resume") {
        return (Some(cfg), None);
    }
    match plb_runtime::checkpoint::load(std::path::Path::new(path)) {
        Ok(ckpt) => {
            say!(
                "resuming from {path}: snapshot #{}, {} of {} items already done",
                ckpt.seq,
                ckpt.completed_items(),
                ckpt.workload.total_items,
            );
            (Some(cfg), Some(ckpt))
        }
        // A missing file is the normal cold-start case for idempotent
        // invocations; anything else (corruption, wrong workload) is a
        // hard error.
        Err(CheckpointError::Io(_)) => {
            say!("no checkpoint at {path}; starting fresh");
            (Some(cfg), None)
        }
        Err(e) => usage(&format!("cannot resume from {path}: {e}")),
    }
}

/// Run `spec`, or report why it failed and exit 1.
fn run(spec: &RunSpec) -> RunOutcome {
    spec.run().unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        std::process::exit(1)
    })
}

/// Print tables as aligned text, a blank line apart.
fn print_tables(tables: &[Table]) {
    let text: Vec<String> = tables.iter().map(Table::to_text).collect();
    let _ = std::io::stdout().write_all(text.join("\n").as_bytes());
}

/// Write `contents` to `path`, or report why not and exit 1.
fn write_file(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `--json` / `--gantt` / `--trace` / `--events`.
fn write_outputs(a: &Args, o: &RunOutcome, title: &str) {
    if let Some(path) = a.value("--json") {
        let json = serde_json::to_string_pretty(&o.report).expect("report serializes");
        write_file(path, json);
        say!("wrote {path}");
    }
    let names: Vec<String> = o.report.pus.iter().map(|p| p.name.clone()).collect();
    let segments = || gantt_segments(o.events.iter());
    if let Some(path) = a.value("--gantt") {
        write_file(path, gantt_svg(&segments(), &names, title));
        say!("wrote {path}");
    }
    if let Some(path) = a.value("--trace") {
        write_file(path, chrome_trace(&segments(), &names));
        say!("wrote {path} (open in chrome://tracing)");
    }
    if let Some(path) = a.value("--events") {
        let header = TraceHeader {
            version: plb_runtime::TRACE_FORMAT_VERSION,
            policy: o.report.policy.clone(),
            pu_names: names,
        };
        let jsonl = write_jsonl(&header, &o.ledger, &o.events.events());
        write_file(path, jsonl);
        say!("wrote {path} (inspect with `plb trace --input {path}`)");
        let dropped = o.events.dropped();
        if dropped > 0 {
            eprintln!("warning: {path} is truncated: it lacks the {dropped} oldest events");
        }
    }
}

fn main() {
    let a = Args::parse();
    match a.cmd {
        "run" => {
            let spec = spec_of(&a);
            let o = run(&spec);
            print_tables(&o.report.tables());
            let (app, machines) = (spec.app.label(), spec.machines.len());
            let title = if spec.nodes > 1 {
                let policy = a.value("--policy").unwrap_or("plb-hec");
                format!(
                    "{app} on {} node(s) x {machines} machine(s) — {policy}",
                    spec.nodes
                )
            } else {
                format!("{app} on {machines} machine(s) — {}", o.report.policy)
            };
            write_outputs(&a, &o, &title);
        }
        "compare" => {
            let mut spec = spec_of(&a);
            let seeds = a
                .parsed("--seeds", "a count of at least 1", |n| *n > 0)
                .unwrap_or(5);
            let title = format!(
                "{} on {} machine(s), mean over {seeds} seeds",
                spec.app.label(),
                spec.machines.len(),
            );
            let mut table = Table::new(&title, &["policy", "makespan", "σ", "speedup"]);
            // Greedy runs first, so every speedup has its baseline.
            let mut greedy_mean = None;
            for kind in [
                PolicyKind::Greedy,
                PolicyKind::Acosta,
                PolicyKind::Hdss,
                PolicyKind::PlbHec,
            ] {
                spec.policy = PolicyChoice::Paper(kind);
                let agg = spec.run_many(seeds);
                let mean = agg.mean_makespan;
                let g = *greedy_mean.get_or_insert(mean);
                table.push_row(vec![
                    kind.label().to_string(),
                    format!("{mean:.6}s"),
                    format!("{:.6}", agg.std_makespan),
                    format!("{:.2}x", g / mean),
                ]);
            }
            print_tables(&[table]);
        }
        "diag" => {
            let mut spec = spec_of(&a);
            say!(
                "diagnostics: {} on {} machine(s), seed {}",
                spec.app.label(),
                spec.machines.len(),
                spec.seed
            );
            let mut plb_hec = None;
            for kind in PolicyKind::ALL {
                spec.policy = PolicyChoice::Paper(kind);
                let o = run(&spec);
                say!("== {} ({} rebalances)", o.report.policy, o.rebalances);
                print_tables(&o.report.tables());
                if !o.solve_times.is_empty() {
                    let pretty: Vec<String> = o
                        .solve_times
                        .iter()
                        .map(|s| format!("{:.2}ms", s * 1e3))
                        .collect();
                    say!("   solve times: [{}]", pretty.join(", "));
                }
                if kind == PolicyKind::PlbHec {
                    plb_hec = Some(o);
                }
            }
            // PLB-HeC deep dive, read off the run reported above: how the
            // block-size selection came out and whether any compute
            // segment dominates the run.
            if let Some(o) = plb_hec {
                say!(
                    "-- plb-hec deep dive (initial_block = {})",
                    o.config.initial_block
                );
                print_tables(&deep_dive(&o));
            }
        }
        "profile" => {
            let out = a
                .value("--profiles")
                .unwrap_or_else(|| usage("profile needs --profiles OUT.json"));
            let models = spec_of(&a).profile().unwrap_or_else(|e| {
                eprintln!("profiling fit failed: {e}");
                std::process::exit(1)
            });
            for (i, m) in models.iter().enumerate() {
                say!("unit {i}: F {}", m.f.describe());
            }
            let json = serde_json::to_string_pretty(&models).expect("models serialize");
            write_file(out, json);
            say!("wrote {} unit profiles to {out}", models.len());
        }
        "cluster" => {
            for m in machines_of(&a) {
                say!(
                    "{}: {} ({} cores @ {} GHz, {} GB RAM)",
                    m.name,
                    m.cpu.name,
                    m.cpu.cores,
                    m.cpu.clock_ghz,
                    m.cpu.ram_gb
                );
                for g in &m.gpus {
                    say!(
                        "   {} — {} cores / {} SMs, {} GB/s, {} GB",
                        g.name,
                        g.cuda_cores,
                        g.sms,
                        g.mem_bandwidth_gbs,
                        g.mem_gb
                    );
                }
            }
        }
        "trace" => {
            let path = a
                .value("--input")
                .unwrap_or_else(|| usage("trace needs --input FILE.jsonl"));
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
            let data = TraceData::parse_jsonl(&text)
                .unwrap_or_else(|e| usage(&format!("bad trace in {path}: {e}")));
            print_tables(&data.summary());
        }
        _ => unreachable!("Args::parse accepts only COMMANDS"),
    }
}
