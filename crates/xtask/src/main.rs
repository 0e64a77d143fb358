//! Repo-local automation (`cargo xtask <command>`), dependency-free by
//! design so it builds anywhere the workspace does.
//!
//! * `lint` — the determinism auditor: eleven token-accurate static
//!   passes over the workspace sources (policy table in
//!   `docs/SOUNDNESS.md`). Sources are lexed (`lexer.rs`) into a code
//!   view with comments, string/char literals, and `#[cfg(test)]`
//!   modules blanked in place, so a keyword inside a doc comment or a
//!   raw string can never produce a false positive, and line numbers
//!   always match the file on disk. Findings pass through per-pass
//!   allowlists (`report.rs`) — there is no baseline of accepted
//!   findings: one violation fails the lint — and render as human text
//!   or SARIF 2.1.0 for GitHub code scanning.

mod lexer;
mod passes;
mod report;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use passes::{registry, Context, Source};
use report::{sarif, timing_line, PassTiming, Violation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&root, &args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <command>\n\n\
                 commands:\n  \
                 lint [--format text|sarif] [--out PATH]\n      \
                 run the eleven soundness passes (docs/SOUNDNESS.md)"
            );
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

enum Format {
    Text,
    Sarif,
}

fn lint(root: &Path, args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!("lint: --format must be `text` or `sarif`, got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("lint: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("lint: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let (sources, users) = match load_sources(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Context {
        root,
        sources: &sources,
        users: &users,
    };

    let passes = registry();
    let mut violations: Vec<Violation> = Vec::new();
    let mut timings: Vec<PassTiming> = Vec::new();
    for pass in &passes {
        let t0 = Instant::now();
        pass.run(&ctx, &mut violations);
        timings.push(PassTiming {
            name: pass.name(),
            millis: t0.elapsed().as_secs_f64() * 1e3,
        });
    }
    violations.sort_by(|a, b| (a.pass, &a.file, a.line).cmp(&(b.pass, &b.file, b.line)));

    let rules: Vec<(&'static str, &'static str)> =
        passes.iter().map(|p| (p.name(), p.summary())).collect();
    match format {
        Format::Sarif => {
            let doc = sarif(&rules, &violations);
            match &out_path {
                Some(p) => {
                    if let Err(e) = fs::write(p, &doc) {
                        eprintln!("lint: writing {}: {e}", p.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "xtask lint: wrote SARIF {} ({} result(s))",
                        p.display(),
                        violations.len()
                    );
                }
                None => print!("{doc}"),
            }
        }
        Format::Text => {
            for v in &violations {
                println!("{}:{}: [{}] {}", v.file, v.line, v.pass, v.msg);
            }
        }
    }
    eprintln!("{}", timing_line(&timings));
    if violations.is_empty() {
        eprintln!(
            "xtask lint: OK ({} files, {} passes)",
            sources.len(),
            passes.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Load every `.rs` file that can name a library item, lexed into its
/// code view (comments and string/char literals blanked in place). The
/// first list is the workspace crates' and the root package's `src`
/// trees with `#[cfg(test)]` modules blanked too: what the passes
/// audit. The second is every file that compiles against those crates —
/// the same `src` trees with their test modules, the crates' `tests/`
/// and `benches/`, the root package's `tests/`, `examples/`, and
/// `plbmark/src` — for pass 11's users.
fn load_sources(root: &Path) -> Result<(Vec<Source>, Vec<Source>), String> {
    let crates_dir = root.join("crates");
    let mut audited: Vec<PathBuf> = Vec::new();
    let mut others: Vec<PathBuf> = Vec::new();
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in entries.flatten() {
        collect_rs(&entry.path().join("src"), &mut audited)?;
        collect_rs(&entry.path().join("tests"), &mut others)?;
        collect_rs(&entry.path().join("benches"), &mut others)?;
    }
    collect_rs(&root.join("src"), &mut audited)?;
    for dir in ["tests", "examples", "plbmark/src"] {
        collect_rs(&root.join(dir), &mut others)?;
    }
    audited.sort();
    others.sort();
    let lex = |path: &PathBuf| -> Result<Source, String> {
        let raw = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let code = lexer::code_view(&raw, &lexer::lex(&raw));
        Ok(Source { rel, code })
    };
    let mut sources = Vec::with_capacity(audited.len());
    let mut users = Vec::with_capacity(audited.len() + others.len());
    for path in &audited {
        let user = lex(path)?;
        sources.push(Source {
            rel: user.rel.clone(),
            code: lexer::strip_test_modules(&user.code),
        });
        users.push(user);
    }
    for path in &others {
        users.push(lex(path)?);
    }
    Ok((sources, users))
}

/// Every `.rs` file under `dir`, if it is a directory.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
