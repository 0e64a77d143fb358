//! The lint-pass framework: one [`Pass`] per enforced policy, all run
//! over the same lexed [`Source`] set (policy rationale in
//! `docs/SOUNDNESS.md`).

use std::path::Path;

use crate::report::Violation;

mod doc_consistency;
mod event_coverage;
mod fault_divergence;
mod fs_confinement;
mod lossy_cast;
mod must_use;
mod nondeterminism;
mod panic_freedom;
mod sync_shim;
mod unsafe_allowlist;

/// One lexed workspace source file.
pub struct Source {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The code view: comments, string/char literals, and
    /// `#[cfg(test)]` modules blanked in place (byte offsets — and
    /// therefore line numbers — match the file on disk).
    pub code: String,
}

/// Everything a pass may look at.
pub struct Context<'a> {
    /// Workspace root (for allowlists and the doc files).
    pub root: &'a Path,
    /// Every lexed `.rs` file under the workspace `src` trees.
    pub sources: &'a [Source],
}

impl Context<'_> {
    /// Find a source by its workspace-relative path.
    pub fn source(&self, rel: &str) -> Option<&Source> {
        self.sources.iter().find(|s| s.rel == rel)
    }
}

/// A lint pass: a name (stable — it is the SARIF rule id and the
/// allowlist key), a one-line summary, and the check itself.
pub trait Pass {
    /// Stable pass name, e.g. `"unsafe-allowlist"`.
    fn name(&self) -> &'static str;
    /// One-line policy summary (SARIF rule description).
    fn summary(&self) -> &'static str;
    /// Append findings for the whole workspace to `out`.
    fn run(&self, ctx: &Context, out: &mut Vec<Violation>);
}

/// The full registry, in documented order (pass 1 … pass 10).
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(unsafe_allowlist::UnsafeAllowlist),
        Box::new(sync_shim::SyncShim),
        Box::new(event_coverage::EventCoverage),
        Box::new(lossy_cast::LossyCast),
        Box::new(must_use::MustUse),
        Box::new(fault_divergence::FaultDivergence),
        Box::new(fs_confinement::FsConfinement),
        Box::new(doc_consistency::DocConsistency),
        Box::new(nondeterminism::NondeterminismConfinement),
        Box::new(panic_freedom::PanicFreedom),
    ]
}

// ---------------------------------------------------------------------------
// Shared architectural facts, referenced by more than one pass.
// ---------------------------------------------------------------------------

/// The one runtime module allowed to name `std::sync`.
pub const SYNC_SHIM: &str = "crates/runtime/src/sync.rs";

/// Where the event schema lives.
pub const EVENTS_MODULE: &str = "crates/runtime/src/events.rs";

/// Report a pass-configuration failure (unreadable allowlist, missing
/// anchor file) as a violation so it fails the build loudly instead of
/// silently weakening the pass.
pub fn config_error(pass: &'static str, msg: String) -> Violation {
    Violation {
        file: "crates/xtask".to_string(),
        line: 1,
        pass,
        msg,
    }
}
