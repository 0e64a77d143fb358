//! Cross-commit goldens for the fault vocabulary: what the three chaos
//! generators produce and what both grammars parse every spec string
//! of the tests, the docs, the `plb` usage text and `ci.yml` to; and a
//! check that the docs' examples still parse.
//!
//! Each constant is an FNV-1a hash over `Debug` text (std prints an
//! `f64` as the shortest decimal that reads back to the same bits, so
//! the text pins them). They were printed by this file at eed7824, the
//! parent of the PR that gave both grammars one `validate` and one
//! error type (ISSUE 25), and that PR passed them unmodified. A parse
//! hashes `Option<plan>`, so a spec the parent rejected hashes as
//! `None` whatever its error says. The inputs the parent rejected and
//! the tree now accepts — a unit's faults listed out of attempt order,
//! the `plb` usage text's own `--faults` example among them — are not
//! in the table (`fault.rs`'s `listing_order_changes_nothing` covers
//! them).

use plb_hetsim::{FaultPlan, NodeFaultPlan};

fn fnv(h: u64, text: &str) -> u64 {
    text.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash(texts: impl IntoIterator<Item = String>) -> u64 {
    texts
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, t| fnv(h, &t))
}

/// Every `--faults` spec, with the unit count it is parsed against.
const UNIT_SPECS: &[(&str, usize)] = &[
    // crates/hetsim/src/fault.rs tests.
    (
        "panic:pu=1,nth=3; flaky:pu=2,n=4;delay:pu=0,from=2,n=5,s=0.1",
        4,
    ),
    ("", 4),
    ("explode:pu=0", 4),
    ("panic:pu=0", 4),
    ("panic:nth=0", 4),
    ("panic:pu=4,nth=0", 4),
    ("panic:pu=3,nth=0", 4),
    ("panic:pu=1,nth=3;panic:pu=1,nth=3", 4),
    ("panic:pu=1,nth=3;panic:pu=1,nth=5", 4),
    ("panic:pu=1,nth=3;panic:pu=2,nth=3", 4),
    ("panic:pu=1,nth=5;panic:pu=2,nth=2;panic:pu=1,nth=6", 4),
    ("delay:pu=1,from=2,n=3,s=0.1;panic:pu=1,nth=2", 4),
    ("flaky:pu=1,n=0", 4),
    ("delay:pu=1,from=2,n=0,s=0.1", 4),
    ("delay:pu=1,from=18446744073709551615,n=1,s=0.1", 4),
    ("delay:pu=1,from=0,n=1,s=0", 4),
    ("delay:pu=1,from=0,n=1,s=-1", 4),
    ("rdelay:pu=1,from=0,n=1,max=inf", 4),
    ("rdelay:pu=0,from=0,n=2,max=0.5,seed=9", 4),
    (
        "join:pu=3,after=40; drift:pu=1,kind=ramp,from=0,n=40,to=3.0; \
         drift:pu=2,kind=step,points=5:1.5/12:2.0; \
         drift:pu=2,kind=sin,from=12,period=16,amp=0.5",
        4,
    ),
    ("join:pu=2,after=10;join:pu=2,after=20", 4),
    ("join:pu=0,after=1;join:pu=1,after=2", 2),
    ("join:pu=4,after=1", 4),
    ("panic:pu=2,nth=3;join:pu=2,after=10", 4),
    ("join:pu=2,after=10;panic:pu=2,nth=3", 4),
    ("drift:pu=1,kind=step,points=5:1.5/5:2.0", 4),
    ("drift:pu=1,kind=step,points=9:1.5/3:2.0", 4),
    ("drift:pu=1,kind=ramp,from=0,n=4,to=0", 4),
    ("drift:pu=1,kind=ramp,from=0,n=4,to=-2", 4),
    ("drift:pu=1,kind=ramp,from=0,n=4,to=1e9", 4),
    ("drift:pu=1,kind=ramp,from=0,n=4,to=inf", 4),
    ("drift:pu=1,kind=step,points=3:200.0", 4),
    ("drift:pu=1,kind=ramp,from=0,n=0,to=2", 4),
    ("drift:pu=1,kind=step,points=", 4),
    ("drift:pu=1,kind=sin,from=0,period=1,amp=0.5", 4),
    ("drift:pu=1,kind=sin,from=0,period=8,amp=1.5", 4),
    ("drift:pu=1,kind=sin,from=0,period=8,amp=0", 4),
    ("drift:pu=1,kind=wobble,from=0", 4),
    (
        "join:pu=3,after=7;drift:pu=1,kind=step,points=2:1.5/9:0.8",
        4,
    ),
    ("node-crash:1,2", 4),
    ("partition:0|1,0,5", 4),
    ("link-degrade:0-1,2,0,5", 4),
    // The rustdoc of `FaultPlan::parse`.
    ("drift:pu=1,kind=step,points=5:1.5/12:2.0/20:1.0", 4),
    // tests/policy_goldens.rs, tests/elastic.rs, tests/integration_engines.rs,
    // crates/core/src/policy/mod.rs.
    ("flaky:pu=2,n=5", 4),
    ("panic:pu=3,nth=10; panic:pu=3,nth=11; panic:pu=3,nth=12", 4),
    ("flaky:pu=2,n=2", 4),
    ("panic:pu=3,nth=10; panic:pu=3,nth=11", 4),
    ("join:pu=2,after=3", 4),
    ("join:pu=2,after=30", 4),
    ("join:pu=2,after=60", 4),
    ("join:pu=2,after=62", 4),
    ("join:pu=2,after=30; flaky:pu=2,n=5", 4),
    ("drift:pu=1,kind=sin,from=0,period=6,amp=0.8", 4),
    ("join:pu=1,after=12", 3),
    ("drift:pu=1,kind=sin,from=0,period=8,amp=0.6", 2),
    ("drift:pu=1,kind=step,points=4:1.5/10:2.5", 3),
    (
        "join:pu=1,after=8; drift:pu=0,kind=ramp,from=0,n=10,to=2.0",
        2,
    ),
    (
        "flaky:pu=0,n=4; join:pu=1,after=8; drift:pu=0,kind=ramp,from=0,n=10,to=2.0",
        2,
    ),
    ("join:pu=1,after=30", 2),
    // docs/FAULT_TOLERANCE.md and the `plb` usage text.
    (
        "panic:pu=1,nth=3; flaky:pu=2,n=4; delay:pu=0,from=2,n=5,s=0.1",
        4,
    ),
    ("panic:pu=1,nth=3", 4),
    ("flaky:pu=2,n=4", 4),
    ("delay:pu=0,from=2,n=5,s=0.1", 4),
    ("rdelay:pu=0,from=0,n=9,max=0.2,seed=7", 4),
    ("join:pu=3,after=40", 4),
    ("drift:pu=1,kind=ramp,from=0,n=40,to=3.0", 4),
    ("drift:pu=2,kind=step,points=5:1.5/12:2.0", 4),
    ("drift:pu=1,kind=sin,from=0,period=16,amp=0.5", 4),
];

/// Every `--node-faults` spec, with the node count it is parsed against.
const NODE_SPECS: &[(&str, usize)] = &[
    // crates/hetsim/src/fault.rs tests.
    (
        "node-crash:2,6; partition:1|3,2.0,9.0; link-degrade:0-1,8,0,14",
        4,
    ),
    ("partition:0+1|2+3,1,2", 4),
    ("partition:2+3|0,1,2", 4),
    ("node-crash:4,2", 4),
    ("partition:1|4,0,5", 4),
    ("link-degrade:0-9,2,0,5", 4),
    ("partition:0|1,0,5; partition:0|1,4,8", 3),
    ("partition:0|1,0,5; partition:0|1,5,8", 3),
    ("partition:0|1,5,5", 3),
    ("partition:0|1,9,2", 3),
    ("partition:0|1,-1,2", 3),
    ("link-degrade:0-1,2,inf,20", 3),
    ("", 3),
    ("partition:|1,0,5", 3),
    ("partition:1|1+2,0,5", 3),
    ("link-degrade:1-1,2,0,5", 3),
    ("link-degrade:0-1,0.5,0,5", 3),
    ("node-crash:1,2; node-crash:1,5", 3),
    ("node-crash:0,1; node-crash:1,1", 2),
    ("meteor:1,2", 3),
    ("node-crash:1", 3),
    ("link-degrade:0-1,2,0,10; link-degrade:1-0,3,5,10", 2),
    // docs/FAULT_TOLERANCE.md, README.md, ci.yml and the `plb` usage text.
    ("node-crash:2,6", 4),
    ("partition:1|3,2.0,9.0", 4),
    ("link-degrade:0-1,8,0,14", 4),
    (
        "node-crash:1,2; partition:0+1|2,0.05,0.2; link-degrade:0-1,4.0,0.0,3.0",
        3,
    ),
    (
        "node-crash:1,2; partition:0+1|2,0.5,2.0; link-degrade:0-1,4.0,0.0,3.0",
        3,
    ),
];

#[test]
fn unit_specs_parse_to_the_parents_plans() {
    let got = hash(
        UNIT_SPECS
            .iter()
            .map(|&(spec, n)| format!("{:?}", FaultPlan::parse(spec, n).ok())),
    );
    assert_eq!(got, 0xac1b_b16b_3f03_1a0b, "got {got:#018x}");
}

#[test]
fn node_specs_parse_to_the_parents_plans() {
    let got = hash(
        NODE_SPECS
            .iter()
            .map(|&(spec, n)| format!("{:?}", NodeFaultPlan::parse(spec, n).ok())),
    );
    assert_eq!(got, 0x14da_0147_613e_9025, "got {got:#018x}");
}

#[test]
fn chaos_plans_keep_their_stream() {
    let mut texts = Vec::new();
    for seed in 0..32u64 {
        for n in [1usize, 2, 3, 4, 5, 8] {
            texts.push(format!("{:?}", FaultPlan::chaos(seed, n, 2 * n)));
            texts.push(format!("{:?}", FaultPlan::chaos(seed, n, 10)));
        }
    }
    let got = hash(texts);
    assert_eq!(got, 0xe899_0036_e0e7_884e, "got {got:#018x}");
}

#[test]
fn chaos_elastic_plans_keep_their_stream() {
    let mut texts = Vec::new();
    for seed in 0..32u64 {
        for n in [1usize, 2, 3, 4, 5, 6, 8] {
            for elastic in [0usize, 2, 5] {
                texts.push(format!(
                    "{:?}",
                    FaultPlan::chaos_elastic(seed, n, 2 * n, elastic)
                ));
            }
        }
    }
    let got = hash(texts);
    assert_eq!(got, 0x6eb9_25c6_953f_3a5f, "got {got:#018x}");
}

#[test]
fn chaos_cluster_plans_keep_their_stream() {
    let mut texts = Vec::new();
    for seed in 0..32u64 {
        for n in [1usize, 2, 3, 4, 5] {
            for intensity in [0usize, 1, 3, 6, 8] {
                texts.push(format!(
                    "{:?}",
                    NodeFaultPlan::chaos_cluster(seed, n, intensity)
                ));
            }
        }
    }
    let got = hash(texts);
    assert_eq!(got, 0xc265_ddaf_8243_47bd, "got {got:#018x}");
}

/// The docs' examples cannot rot: every spec line of
/// `docs/FAULT_TOLERANCE.md`'s two grammar blocks, its `--faults`
/// example and README's `--node-faults` example parse.
#[test]
fn documented_specs_parse() {
    let guide = include_str!("../../../docs/FAULT_TOLERANCE.md");
    let readme = include_str!("../../../README.md");
    let (mut units, mut nodes, mut in_text) = (0, 0, false);
    for line in guide.lines() {
        if line.starts_with("```") {
            in_text = line == "```text";
            continue;
        }
        let spec = line.split_whitespace().next().unwrap_or_default();
        let kind = spec.split_once(':').map(|(kind, _)| kind);
        match kind.filter(|_| in_text) {
            Some("panic" | "flaky" | "delay" | "rdelay" | "join" | "drift") => {
                FaultPlan::parse(spec, 4).unwrap_or_else(|e| panic!("{spec}: {e}"));
                units += 1;
            }
            Some("node-crash" | "partition" | "link-degrade") => {
                NodeFaultPlan::parse(spec, 4).unwrap_or_else(|e| panic!("{spec}: {e}"));
                nodes += 1;
            }
            _ => {}
        }
    }
    assert_eq!((units, nodes), (8, 3), "the two grammar blocks");
    let quoted = |doc: &'static str, flag: &str| {
        let after = doc.split(&format!("{flag} '")).nth(1);
        after
            .and_then(|rest| rest.split('\'').next())
            .expect("the doc quotes an example")
    };
    let example = quoted(guide, "--faults");
    FaultPlan::parse(example, 4).unwrap_or_else(|e| panic!("{example}: {e}"));
    // README's example runs on `--nodes 3`.
    let example = quoted(readme, "--node-faults");
    NodeFaultPlan::parse(example, 3).unwrap_or_else(|e| panic!("{example}: {e}"));
}
