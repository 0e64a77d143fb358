//! `plb` — run heterogeneous load-balancing experiments from the
//! command line.
//!
//! ```text
//! plb run     --app mm --size 32768 --machines 4 --policy plb-hec
//!             [--seed N] [--single-gpu] [--noise SIGMA]
//!             [--json FILE] [--gantt FILE.svg] [--events FILE.jsonl]
//! plb compare --app bs --size 250000 --machines 4 [--seeds N]
//! plb cluster [--machines 1..4]
//! plb trace   --input FILE.jsonl
//! plb diag    [--app mm --size 65536 --machines 4 --seed 0]
//! ```
//!
//! `run` executes one simulated run and prints the report (optionally a
//! JSON dump, an SVG Gantt, and a structured JSONL event trace);
//! `compare` runs all four policies and prints their makespans and
//! speedups; `cluster` shows the Table I machine presets; `trace` loads
//! a JSONL trace written by `run --events` and prints per-PU time
//! accounting, fit-quality timelines, block-size selections and the
//! rebalance history (see docs/OBSERVABILITY.md for the file format);
//! `diag` runs every policy once on the same workload and prints each
//! one's report (shares, distributions, solve times) plus a PLB-HeC
//! deep dive into its block-size selection. Every report is a list of
//! [`Table`]s printed by [`Table::to_text`].

use plb_bench::harness::{default_initial_block, run_once, App, AppInputs, PolicyKind, RunOutcome};
use plb_bench::viz::gantt_svg;
use plb_hec::NodeDiffusionPolicy;
use plb_hec::{
    AcostaPolicy, GreedyPolicy, HdssPolicy, PerfProfile, PlbHecPolicy, PolicyConfig,
    StaticProfilePolicy, UnitModel,
};
use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::{cluster_scenario, ClusterSim, Scenario, Topology};
use plb_runtime::{
    equal_cost_shards, write_jsonl, Checkpoint, CheckpointConfig, CheckpointError, ClusterEngine,
    EventSink, FaultPlan, NodeFaultPlan, Policy, RunReport, SegmentKind, SimEngine, SimNodeRunner,
    Table, Trace, TraceData, TraceHeader,
};

struct Args {
    cmd: String,
    app: String,
    size: u64,
    skew: f64,
    machines: usize,
    policy: String,
    seed: u64,
    seeds: u64,
    single_gpu: bool,
    noise: f64,
    json: Option<String>,
    gantt: Option<String>,
    cluster_file: Option<String>,
    profiles: Option<String>,
    trace: Option<String>,
    events: Option<String>,
    input: Option<String>,
    faults: Option<String>,
    chaos: Option<u64>,
    chaos_elastic: usize,
    checkpoint: Option<String>,
    checkpoint_interval: Option<u64>,
    resume: bool,
    nodes: usize,
    topology: String,
    node_faults: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        cmd: String::new(),
        app: "mm".into(),
        size: 16384,
        skew: 1.2,
        machines: 4,
        policy: "plb-hec".into(),
        seed: 0,
        seeds: 5,
        single_gpu: false,
        noise: 0.02,
        json: None,
        gantt: None,
        cluster_file: None,
        profiles: None,
        trace: None,
        events: None,
        input: None,
        faults: None,
        chaos: None,
        chaos_elastic: 0,
        checkpoint: None,
        checkpoint_interval: None,
        resume: false,
        nodes: 1,
        topology: "full".into(),
        node_faults: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut next = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "run" | "compare" | "cluster" | "profile" | "trace" | "diag" => a.cmd = arg.clone(),
            "--app" => a.app = next("--app"),
            "--size" => {
                a.size = next("--size")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --size"))
            }
            "--skew" => {
                a.skew = next("--skew")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --skew (expects a power-law exponent)"))
            }
            "--machines" => {
                a.machines = next("--machines")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --machines"))
            }
            "--policy" => a.policy = next("--policy"),
            "--seed" => {
                a.seed = next("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seeds" => {
                a.seeds = next("--seeds")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("bad --seeds (expects a count of at least 1)"))
            }
            "--single-gpu" => a.single_gpu = true,
            "--noise" => {
                a.noise = next("--noise")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --noise (expects a finite SIGMA >= 0)"))
            }
            "--json" => a.json = Some(next("--json")),
            "--gantt" => a.gantt = Some(next("--gantt")),
            "--cluster" => a.cluster_file = Some(next("--cluster")),
            "--profiles" => a.profiles = Some(next("--profiles")),
            "--trace" => a.trace = Some(next("--trace")),
            "--events" => a.events = Some(next("--events")),
            "--input" => a.input = Some(next("--input")),
            "--faults" => a.faults = Some(next("--faults")),
            "--chaos" => {
                a.chaos = Some(
                    next("--chaos")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --chaos seed")),
                )
            }
            "--chaos-elastic" => {
                a.chaos_elastic = next("--chaos-elastic")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --chaos-elastic intensity"))
            }
            "--checkpoint" => a.checkpoint = Some(next("--checkpoint")),
            "--checkpoint-interval" => {
                a.checkpoint_interval = Some(
                    next("--checkpoint-interval")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --checkpoint-interval")),
                )
            }
            "--resume" => a.resume = true,
            "--nodes" => {
                a.nodes = next("--nodes")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("bad --nodes: needs a count of at least 1"))
            }
            "--topology" => a.topology = next("--topology"),
            "--node-faults" => a.node_faults = Some(next("--node-faults")),
            "-h" | "--help" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if a.cmd.is_empty() {
        usage("missing command");
    }
    a
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage:\n  plb run     --app mm|grn|bs|nn|spmv --size N --machines 1-4 --policy \
         plb-hec|greedy|acosta|hdss\n              [--seed N] [--skew A] [--single-gpu] [--noise SIGMA] \
         [--json FILE] [--gantt FILE.svg] [--trace FILE.json]\n              [--events \
         FILE.jsonl] [--cluster FILE.json] [--faults SPEC] [--chaos SEED] [--chaos-elastic N]\n              \
         [--checkpoint FILE [--checkpoint-interval N] [--resume]]\n              [--nodes N \
         [--topology full|ring|star] [--node-faults SPEC]]\n  plb compare --app \
         mm|grn|bs|spmv --size N --machines 1-4 [--seeds N] [--single-gpu]\n  plb cluster \
         [--machines 1-4] [--cluster FILE.json]\n  plb profile --app mm|grn|bs|nn|spmv --size N \
         [--machines 1-4|--cluster FILE.json] --profiles OUT.json\n  plb trace   --input \
         FILE.jsonl\n  plb diag    [--app mm|grn|bs|nn|spmv] [--size N] [--machines 1-4] [--seed N] \
         [--single-gpu]\n\n`--app spmv` is the irregular workload: a sparse matrix whose \
         power-law row lengths are generated from --seed, with tail exponent --skew \
         (supported range [0.5, 4.0]); the run balances nonzeros, not rows. \
         A --cluster file is a \
         JSON array of machine specs (see docs/cluster.example.json); it replaces the Table I \
         presets. `plb profile` probes each unit offline and saves its fitted models; \
         `plb run --policy static --profiles FILE` reuses them without any online probing. \
         `plb run --events` captures the structured decision-event trace \
         (docs/OBSERVABILITY.md) that `plb trace` summarizes offline. \
         `plb run --faults` injects deterministic faults, listed in any order, e.g. \
         'panic:pu=1,nth=3; flaky:pu=2,n=4; delay:pu=0,from=2,n=5,s=0.1; \
         join:pu=3,after=40; drift:pu=1,kind=sin,from=0,period=16,amp=0.5', and \
         `--chaos SEED` adds a seeded random fault plan on top (a merge that \
         breaks a plan rule, such as a second join of one unit, is refused); \
         `--chaos-elastic N` extends it with N seeded hot-joins and \
         drift schedules (docs/FAULT_TOLERANCE.md, Elastic capacity). \
         `--checkpoint FILE` snapshots run state every N completed tasks \
         (default 32) so `--resume` can continue a killed run \
         (docs/FAULT_TOLERANCE.md). \
         `--nodes N` runs the multi-node cluster tier: N simulated nodes \
         (each a full --machines cluster running the intra-node --policy) \
         balanced by node-level diffusion over --topology, with \
         inter-node migration; `--node-faults` injects node fault \
         domains, e.g. 'node-crash:1,2; partition:0+1|2,0.5,2.0; \
         link-degrade:0-1,4.0,0.0,3.0' \
         (docs/FAULT_TOLERANCE.md, Node fault domains)."
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
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
    for seg in o.trace.segments() {
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

/// Machines from a user JSON file, or the Table I presets.
fn machines_of(a: &Args) -> Vec<plb_hetsim::MachineSpec> {
    match &a.cluster_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| usage(&format!("bad cluster JSON in {path}: {e}")))
        }
        None => cluster_scenario(scenario_of(a.machines), a.single_gpu),
    }
}

fn scenario_of(machines: usize) -> Scenario {
    match machines {
        1 => Scenario::One,
        2 => Scenario::Two,
        3 => Scenario::Three,
        4 => Scenario::Four,
        _ => usage("--machines must be 1-4 (the paper's Table I)"),
    }
}

fn app_of(name: &str, size: u64, skew: f64, seed: u64) -> App {
    // Validate up front so bad parameters are a usage error, not a panic
    // deep inside the harness.
    let app = match name {
        "mm" | "matmul" => App::MatMul(size),
        "grn" => App::Grn(size),
        "bs" | "blackscholes" => App::BlackScholes(size),
        "nn" | "nnlayer" => App::NnLayer(size),
        "spmv" => {
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

fn policy_of(name: &str, cfg: &PolicyConfig, profiles: &Option<String>) -> Box<dyn Policy> {
    match name {
        "plb-hec" | "plb" => Box::new(PlbHecPolicy::new(cfg)),
        "greedy" => Box::new(GreedyPolicy::new(cfg)),
        "acosta" => Box::new(AcostaPolicy::new(cfg)),
        "hdss" => Box::new(HdssPolicy::new(cfg)),
        "static" => {
            let path = profiles
                .as_ref()
                .unwrap_or_else(|| usage("--policy static requires --profiles FILE.json"));
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
            let models: Vec<UnitModel> = serde_json::from_str(&text)
                .unwrap_or_else(|e| usage(&format!("bad profile JSON in {path}: {e}")));
            Box::new(StaticProfilePolicy::from_profiles(cfg, models))
        }
        _ => usage("--policy must be plb-hec, greedy, acosta, hdss or static"),
    }
}

/// Print tables as aligned text, a blank line apart, in one write that
/// tolerates a closed pipe (e.g. `plb run | head`).
fn print_tables(tables: &[Table]) {
    use std::io::Write as _;
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

/// Shared `--json` / `--gantt` / `--trace` / `--events` emission for
/// the single-node and cluster run paths.
fn write_outputs(
    a: &Args,
    report: &RunReport,
    trace: Option<&Trace>,
    events: Option<&EventSink>,
    title: &str,
) {
    if let Some(path) = &a.json {
        let json = serde_json::to_string_pretty(report).expect("report serializes");
        write_file(path, json);
        println!("wrote {path}");
    }
    let names: Vec<String> = report.pus.iter().map(|p| p.name.clone()).collect();
    if let Some(path) = &a.gantt {
        let svg = gantt_svg(trace.expect("trace recorded"), &names, title);
        write_file(path, svg);
        println!("wrote {path}");
    }
    if let Some(path) = &a.trace {
        let json = trace.expect("trace recorded").to_chrome_trace(&names);
        write_file(path, json);
        println!("wrote {path} (open in chrome://tracing)");
    }
    if let Some(path) = &a.events {
        let header = TraceHeader {
            version: plb_runtime::TRACE_FORMAT_VERSION,
            policy: report.policy.clone(),
            pu_names: names,
        };
        let segments = trace.expect("trace recorded").segments();
        let sink = events.expect("events recorded");
        let jsonl = write_jsonl(&header, segments, &sink.events());
        write_file(path, jsonl);
        println!("wrote {path} (inspect with `plb trace --input {path}`)");
        let dropped = sink.dropped();
        if dropped > 0 {
            eprintln!("warning: {path} is truncated: it lacks the {dropped} oldest events");
        }
    }
}

/// `--checkpoint FILE [--checkpoint-interval N] [--resume]`, for either
/// engine: where to snapshot, and the snapshot to resume from when
/// `--resume` finds one there.
fn durability_of(a: &Args) -> (Option<CheckpointConfig>, Option<Checkpoint>) {
    if a.resume && a.checkpoint.is_none() {
        usage("--resume requires --checkpoint FILE");
    }
    let Some(path) = &a.checkpoint else {
        return (None, None);
    };
    let mut cfg = CheckpointConfig::new(path);
    if let Some(every) = a.checkpoint_interval {
        cfg = cfg.with_interval(every);
    }
    if !a.resume {
        return (Some(cfg), None);
    }
    match plb_runtime::checkpoint::load(std::path::Path::new(path)) {
        Ok(ckpt) => {
            println!(
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
            println!("no checkpoint at {path}; starting fresh");
            (Some(cfg), None)
        }
        Err(e) => usage(&format!("cannot resume from {path}: {e}")),
    }
}

/// `plb run --nodes N`: the multi-node cluster tier. Each node is a
/// full simulated machine cluster running the intra-node `--policy`;
/// the outer engine balances equal-cost home shards across the nodes by
/// diffusion over `--topology`, migrating chunks over the cluster link,
/// under the node fault domains of `--node-faults`.
fn run_cluster_tier(a: &Args) {
    let app = app_of(&a.app, a.size, a.skew, a.seed);
    let machines = machines_of(a);
    let n = a.nodes;
    let topology =
        Topology::parse(&a.topology).unwrap_or_else(|e| usage(&format!("bad --topology: {e}")));
    let node_plan = match &a.node_faults {
        Some(spec) => NodeFaultPlan::parse(spec, n)
            .unwrap_or_else(|e| usage(&format!("bad --node-faults spec: {e}"))),
        None => NodeFaultPlan::none(),
    };
    let chunk_plan = match &a.faults {
        Some(spec) => {
            FaultPlan::parse(spec, n).unwrap_or_else(|e| usage(&format!("bad --faults spec: {e}")))
        }
        None => FaultPlan::none(),
    };
    let AppInputs {
        cost,
        weights,
        total_items,
        total_cost,
    } = app.inputs();
    // Per-node seeds keep the nodes' noise streams independent while
    // the whole run stays reproducible from --seed.
    let clusters: Vec<ClusterSim> = (0..n)
        .map(|i| {
            let opts = ClusterOptions {
                seed: a.seed.wrapping_add(i as u64),
                noise_sigma: a.noise,
                ..Default::default()
            };
            ClusterSim::build(&machines, &opts)
        })
        .collect();
    // Intra-node chunks are shard-sized, not run-sized: scale the
    // probing block to the per-node share.
    let per_node_cost = (total_cost / (n as u64).max(1)).max(1);
    let cfg = PolicyConfig {
        initial_block: default_initial_block(per_node_cost, cost.as_ref()),
        seed: a.seed,
        ..Default::default()
    };
    let policies: Vec<Box<dyn Policy>> = (0..n)
        .map(|_| policy_of(&a.policy, &cfg, &a.profiles))
        .collect();
    let names: Vec<String> = (0..n).map(|i| format!("node{i}")).collect();
    let mut runner = SimNodeRunner::new(cost.as_ref(), names, clusters, policies, weights.clone());
    let bounds = equal_cost_shards(total_items, n, &weights);
    let mut outer = NodeDiffusionPolicy::new(topology, bounds.clone());
    let mut engine = ClusterEngine::new(&mut runner)
        .with_node_faults(node_plan)
        .with_weights(weights)
        .with_shard_bounds(bounds);
    if !chunk_plan.is_empty() {
        engine = engine.with_faults(chunk_plan);
    }
    let (checkpoint, resume) = durability_of(a);
    if let Some(cfg) = checkpoint {
        engine = engine.with_checkpoint(cfg);
    }
    if let Some(ckpt) = resume {
        engine = engine.resume_from(ckpt);
    }
    let report = engine.run(&mut outer, total_items).unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        std::process::exit(1)
    });
    print_tables(&report.tables());
    let title = format!(
        "{} on {} node(s) x {} machine(s) — {}",
        app.label(),
        n,
        a.machines,
        a.policy
    );
    write_outputs(
        a,
        &report,
        engine.last_trace(),
        engine.last_events(),
        &title,
    );
}

fn main() {
    let a = parse_args();
    match a.cmd.as_str() {
        "cluster" => {
            for m in machines_of(&a) {
                println!(
                    "{}: {} ({} cores @ {} GHz, {} GB RAM)",
                    m.name, m.cpu.name, m.cpu.cores, m.cpu.clock_ghz, m.cpu.ram_gb
                );
                for g in &m.gpus {
                    println!(
                        "   {} — {} cores / {} SMs, {} GB/s, {} GB",
                        g.name, g.cuda_cores, g.sms, g.mem_bandwidth_gbs, g.mem_gb
                    );
                }
            }
        }
        "run" => {
            if a.nodes > 1 {
                run_cluster_tier(&a);
                return;
            }
            if a.node_faults.is_some() {
                usage("--node-faults requires --nodes N (with N > 1)");
            }
            let app = app_of(&a.app, a.size, a.skew, a.seed);
            let machines = machines_of(&a);
            let opts = ClusterOptions {
                seed: a.seed,
                noise_sigma: a.noise,
                ..Default::default()
            };
            let mut cluster = ClusterSim::build(&machines, &opts);
            let n_units = cluster.ids().count();
            let inputs = app.inputs();
            let cost = inputs.cost.as_ref();
            let cfg = PolicyConfig {
                initial_block: default_initial_block(inputs.total_cost, cost),
                seed: a.seed,
                ..Default::default()
            };
            let mut policy = policy_of(&a.policy, &cfg, &a.profiles);
            let mut engine = SimEngine::new(&mut cluster, cost).with_weights(inputs.weights);
            let mut plan = match &a.faults {
                Some(spec) => FaultPlan::parse(spec, n_units)
                    .unwrap_or_else(|e| usage(&format!("bad --faults spec: {e}"))),
                None => FaultPlan::none(),
            };
            if a.chaos.is_some() || a.chaos_elastic > 0 {
                // `--chaos-elastic N` grows the seeded plan with N
                // join/drift faults per unit dimension; without an
                // explicit `--chaos` seed it reuses the run seed.
                let seed = a.chaos.unwrap_or(a.seed);
                let chaos = FaultPlan::chaos_elastic(seed, n_units, 2 * n_units, a.chaos_elastic);
                println!(
                    "chaos seed {seed}: injecting {} faults (elastic intensity {})",
                    chaos.faults.len(),
                    a.chaos_elastic
                );
                plan.faults.extend(chaos.faults);
                // The merge can break a rule neither plan breaks alone,
                // e.g. a second join of one unit.
                plan.validate(n_units).unwrap_or_else(|e| {
                    usage(&format!(
                        "--faults and the --chaos {seed} plan conflict: {e}; \
                         try another --chaos seed"
                    ))
                });
            }
            if !plan.is_empty() {
                engine = engine.with_faults(plan);
            }
            let (checkpoint, resume) = durability_of(&a);
            if let Some(cfg) = checkpoint {
                engine = engine.with_checkpoint(cfg);
            }
            if let Some(ckpt) = resume {
                engine = engine.resume_from(ckpt);
            }
            let report = engine
                .run(policy.as_mut(), inputs.total_items)
                .unwrap_or_else(|e| {
                    eprintln!("run failed: {e}");
                    std::process::exit(1)
                });
            print_tables(&report.tables());
            let title = format!(
                "{} on {} machine(s) — {}",
                app.label(),
                a.machines,
                report.policy
            );
            write_outputs(
                &a,
                &report,
                engine.last_trace(),
                engine.last_events(),
                &title,
            );
        }
        "trace" => {
            let path = a
                .input
                .as_ref()
                .unwrap_or_else(|| usage("trace needs --input FILE.jsonl"));
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
            let data = TraceData::parse_jsonl(&text)
                .unwrap_or_else(|e| usage(&format!("bad trace in {path}: {e}")));
            print_tables(&data.summary());
        }
        "profile" => {
            let out = a
                .profiles
                .as_ref()
                .unwrap_or_else(|| usage("profile needs --profiles OUT.json"));
            let app = app_of(&a.app, a.size, a.skew, a.seed);
            let machines = machines_of(&a);
            let opts = ClusterOptions {
                seed: a.seed,
                noise_sigma: a.noise,
                ..Default::default()
            };
            let mut cluster = ClusterSim::build(&machines, &opts);
            let inputs = app.inputs();
            let cost = inputs.cost.as_ref();
            // Probe each unit across a size sweep (offline profiling,
            // exactly what the static algorithm [17] requires).
            let base = default_initial_block(inputs.total_cost, cost).max(1);
            let ids: Vec<_> = cluster.ids().collect();
            let models: Vec<UnitModel> = ids
                .into_iter()
                .map(|id| {
                    let mut p = PerfProfile::new();
                    for mult in [1u64, 2, 4, 8, 16, 32] {
                        let b = base.saturating_mul(mult);
                        let d = cluster.device_mut(id);
                        let xfer = d.transfer_time(cost, b);
                        let proc = d.proc_time(cost, b);
                        p.record(b, proc, xfer);
                    }
                    p.fit().unwrap_or_else(|e| {
                        eprintln!("profiling fit failed: {e}");
                        std::process::exit(1)
                    })
                })
                .collect();
            for (i, m) in models.iter().enumerate() {
                println!("unit {i}: F {}", m.f.describe());
            }
            let json = serde_json::to_string_pretty(&models).expect("models serialize");
            write_file(out, json);
            println!("wrote {} unit profiles to {out}", models.len());
        }
        "compare" => {
            let app = app_of(&a.app, a.size, a.skew, a.seed);
            let scenario = scenario_of(a.machines);
            let title = format!(
                "{} on {} machine(s), mean over {} seeds",
                app.label(),
                a.machines,
                a.seeds
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
                let agg = plb_bench::harness::run_many(app, scenario, a.single_gpu, kind, a.seeds);
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
            let app = app_of(&a.app, a.size, a.skew, a.seed);
            let scenario = scenario_of(a.machines);
            println!(
                "diagnostics: {} on {} machine(s), seed {}",
                app.label(),
                a.machines,
                a.seed
            );
            let mut plb_hec = None;
            for kind in PolicyKind::ALL {
                let o = run_once(app, scenario, a.single_gpu, kind, a.seed, vec![]);
                println!("== {} ({} rebalances)", o.report.policy, o.rebalances);
                print_tables(&o.report.tables());
                if !o.solve_times.is_empty() {
                    let pretty: Vec<String> = o
                        .solve_times
                        .iter()
                        .map(|s| format!("{:.2}ms", s * 1e3))
                        .collect();
                    println!("   solve times: [{}]", pretty.join(", "));
                }
                if kind == PolicyKind::PlbHec {
                    plb_hec = Some(o);
                }
            }
            // PLB-HeC deep dive, read off the run reported above: how the
            // block-size selection came out and whether any compute
            // segment dominates the run.
            if let Some(o) = plb_hec {
                let inputs = app.inputs();
                let initial = default_initial_block(inputs.total_cost, inputs.cost.as_ref());
                println!("-- plb-hec deep dive (initial_block = {initial})");
                print_tables(&deep_dive(&o));
            }
        }
        _ => usage("unknown command"),
    }
}
