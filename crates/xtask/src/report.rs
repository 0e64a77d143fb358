//! Lint reporting: violations, per-pass allowlists, and the two output
//! formats (human text and SARIF 2.1.0 for GitHub code scanning).

use std::fs;
use std::path::Path;

/// One finding from one pass.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number in the file on disk.
    pub line: usize,
    /// Pass name (stable; doubles as the SARIF rule id).
    pub pass: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

/// Wall-clock cost of one pass, for the timing report.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// Pass name.
    pub name: &'static str,
    /// Elapsed milliseconds.
    pub millis: f64,
}

/// Render the per-pass timing line (slow passes must be visible in CI
/// logs, so this is printed on every run, clean or not).
pub fn timing_line(timings: &[PassTiming]) -> String {
    let cells: Vec<String> = timings
        .iter()
        .map(|t| format!("{} {:.1}ms", t.name, t.millis))
        .collect();
    format!("pass timings: {}", cells.join(" | "))
}

// ---------------------------------------------------------------------------
// Allowlists
// ---------------------------------------------------------------------------

/// A per-pass allowlist loaded from `crates/xtask/allowlists/<pass>.txt`.
///
/// Each entry is a workspace-relative path: an exact file (`a/b.rs`) or
/// a directory prefix (`a/dir/`). Blank lines and `#` comments are
/// ignored. The files are part of the audited surface: adding an entry
/// is a reviewed change, exactly like editing the pass itself.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<String>,
}

impl Allowlist {
    /// Parse allowlist text.
    pub fn parse(text: &str) -> Allowlist {
        Allowlist {
            entries: text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect(),
        }
    }

    /// Load the allowlist for `pass`, or an error message naming the
    /// missing file (a pass that declares an allowlist must ship one,
    /// even if empty — silence is not an audit).
    pub fn load(root: &Path, pass: &str) -> Result<Allowlist, String> {
        let path = root
            .join("crates/xtask/allowlists")
            .join(format!("{pass}.txt"));
        match fs::read_to_string(&path) {
            Ok(text) => Ok(Allowlist::parse(&text)),
            Err(e) => Err(format!("allowlist {} unreadable: {e}", path.display())),
        }
    }

    /// Is `rel` covered by an entry (exact file or directory prefix)?
    pub fn permits(&self, rel: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e == rel || (e.ends_with('/') && rel.starts_with(e.as_str())))
    }

    /// The raw entries (for violation messages).
    pub fn entries(&self) -> &[String] {
        &self.entries
    }
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0
// ---------------------------------------------------------------------------

/// Minimal JSON string escaping (the only JSON writer this
/// dependency-free binary needs).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render violations as a SARIF 2.1.0 log suitable for the GitHub
/// code-scanning upload action. `rules` is the full pass registry
/// (id + short description), so every finding's `ruleId` resolves.
pub fn sarif(rules: &[(&'static str, &'static str)], violations: &[Violation]) -> String {
    let mut out = String::new();
    out.push_str(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"plb-xtask-lint\",\n          \
         \"informationUri\": \"docs/SOUNDNESS.md\",\n          \"rules\": [\n",
    );
    for (i, (id, summary)) in rules.iter().enumerate() {
        let comma = if i + 1 < rules.len() { "," } else { "" };
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{comma}\n",
            esc(id),
            esc(summary)
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < violations.len() { "," } else { "" };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}{comma}\n",
            esc(v.pass),
            esc(&v.msg),
            esc(&v.file),
            v.line.max(1)
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pass: &'static str, file: &str, line: usize) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            pass,
            msg: format!("violation in {file}"),
        }
    }

    #[test]
    fn allowlist_matches_files_and_dir_prefixes() {
        let a = Allowlist::parse(
            "# comment\n\ncrates/runtime/src/host.rs\ncrates/core/src/baselines/\n",
        );
        assert!(a.permits("crates/runtime/src/host.rs"));
        assert!(a.permits("crates/core/src/baselines/hdss.rs"));
        assert!(!a.permits("crates/runtime/src/engine.rs"));
        assert!(!a.permits("crates/core/src/baselines.rs"));
        assert_eq!(a.entries().len(), 2);
    }

    #[test]
    fn sarif_is_well_shaped_and_escaped() {
        let rules = [("unsafe-allowlist", "no `unsafe` outside the audit")];
        let viols = [v("unsafe-allowlist", "crates/x/src/\"odd\".rs", 7)];
        let s = sarif(&rules, &viols);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"unsafe-allowlist\""));
        assert!(s.contains("\\\"odd\\\""), "quotes escaped: {s}");
        assert!(s.contains("\"startLine\": 7"));
        // Zero results must still be a valid (empty) array.
        let empty = sarif(&rules, &[]);
        assert!(empty.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn timing_line_lists_every_pass() {
        let line = timing_line(&[
            PassTiming {
                name: "unsafe-allowlist",
                millis: 0.25,
            },
            PassTiming {
                name: "doc-consistency",
                millis: 12.5,
            },
        ]);
        assert!(line.contains("unsafe-allowlist 0.2ms") || line.contains("unsafe-allowlist 0.3ms"));
        assert!(line.contains("doc-consistency 12.5ms"));
    }
}
