//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [all|table1|fig1|fig3|fig4|fig5|fig6|fig7|ipmcost|ablations|svgs|summary]
//!       [--seeds N] [--out DIR]
//! ```
//!
//! Results land under `results/` as markdown plus CSV. A result that
//! cannot be written is an error (exit 1); a closed stdout is not.

use plb_bench::figures;
use plb_bench::report::write_results;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// `println!` that tolerates a closed stdout (`repro | head -1`): the
/// progress lines are a courtesy, the files are the results.
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = "all".to_string();
    let mut seeds = 10u64;
    let mut out = PathBuf::from("results");

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--seeds needs a count of at least 1"));
            }
            "--out" => {
                out = PathBuf::from(it.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            "-h" | "--help" => usage(""),
            other if !other.starts_with('-') => what = other.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let jobs: Vec<&str> = if what == "all" {
        vec![
            "table1",
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "ipmcost",
            "ablations",
            "svgs",
        ]
    } else {
        vec![what.as_str()]
    };

    for job in jobs {
        let t0 = Instant::now();
        if job == "svgs" {
            std::fs::create_dir_all(&out)
                .unwrap_or_else(|e| fail(&format!("create {}: {e}", out.display())));
            for (stem, svg) in figures::svgs(seeds.min(3)) {
                let path = out.join(format!("{stem}.svg"));
                std::fs::write(&path, svg)
                    .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
            }
            say!(
                "[svgs] done in {:.2}s -> {}/fig*.svg",
                t0.elapsed().as_secs_f64(),
                out.display()
            );
            continue;
        }
        let (md, tables) = match job {
            "table1" => figures::table1(),
            "fig1" => figures::fig1(),
            "fig3" => figures::fig3(),
            "fig4" => figures::fig4(seeds),
            "fig5" => figures::fig5(seeds),
            "fig6" => figures::fig6(seeds),
            "fig7" => figures::fig7(seeds),
            "ipmcost" => figures::ipmcost(seeds),
            "summary" => figures::summary(seeds),
            "ablations" => figures::ablations(seeds),
            other => usage(&format!("unknown figure {other}")),
        };
        write_results(&out, job, &md, &tables)
            .unwrap_or_else(|e| fail(&format!("write {job} results to {}: {e}", out.display())));
        say!(
            "[{job}] done in {:.2}s -> {}/{job}.md",
            t0.elapsed().as_secs_f64(),
            out.display()
        );
    }
}

/// A result that could not be written: say why and exit 1.
fn fail(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [all|table1|fig1|fig3|fig4|fig5|fig6|fig7|ipmcost|ablations|svgs|summary] \
         [--seeds N] [--out DIR]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
