//! Pass 11: public by evidence — every public item of the seven library
//! crates has a user outside its own crate's `src/`.
//!
//! A `pub` item that only its own crate names is surface nobody relies
//! on: it widens what a refactor must keep, and rustc's dead-code lint
//! cannot see it, because a public name counts as used by definition.
//! The pass does two things:
//!
//! * **Count.** Every `pub fn|struct|enum|trait|const|type` outside a
//!   test module, on the lexed code view. The count must equal
//!   [`PUBLIC_ITEMS`]; the change that removes items lowers the constant,
//!   so the surface is a ratchet, like `tests/alloc_budget.rs`' bound.
//! * **Users.** Each item goes to the first bucket of [`Bucket`] whose
//!   files name it: `plbmark`, the `plb` / `repro` binaries, another
//!   crate, the root package, an example, the crate's own `tests/`, or
//!   nothing. An item in the last bucket is a violation unless
//!   `allowlists/pub-surface.txt` lists it (`path:Name`) under a one-line
//!   reason. An entry that names no such item is a violation too, so the
//!   list cannot go stale.
//!
//! Matching is by name: a common name such as `new` always counts as
//! used. The pass can miss an unused item; it never flags a used one.
//! Test modules of other crates count as users, since they compile
//! against the public surface; this lint, which depends on no crate,
//! does not. Nor do rustdoc examples: they live in
//! comments, which the code view blanks, so a name that only a doc
//! example uses is allowlisted with that reason.

use std::collections::{BTreeMap, BTreeSet};

use super::{config_error, Context, Pass};
use crate::lexer::{is_word_byte, line_of, word_occurrences};
use crate::report::{Allowlist, Violation};

/// The committed public-item count. It may only fall.
const PUBLIC_ITEMS: usize = 424;

/// The library crates whose public surface is audited.
const LIBRARY_CRATES: &[&str] = &[
    "crates/apps/",
    "crates/bench/",
    "crates/core/",
    "crates/hetsim/",
    "crates/ipm/",
    "crates/numerics/",
    "crates/runtime/",
];

/// The binaries built from `plb-bench`: separate crates that link its
/// library, so what they name must stay public.
const BINARIES: &str = "crates/bench/src/bin/";

/// Who names an item outside its crate's `src/`, in precedence order:
/// an item belongs to the first bucket that names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Bucket {
    Plbmark,
    Binaries,
    OtherCrate,
    RootPackage,
    Examples,
    OwnTests,
    Nothing,
}

impl Bucket {
    const ALL: [Bucket; 7] = [
        Bucket::Plbmark,
        Bucket::Binaries,
        Bucket::OtherCrate,
        Bucket::RootPackage,
        Bucket::Examples,
        Bucket::OwnTests,
        Bucket::Nothing,
    ];

    fn label(self) -> &'static str {
        match self {
            Bucket::Plbmark => "plbmark",
            Bucket::Binaries => "plb/repro",
            Bucket::OtherCrate => "other crates",
            Bucket::RootPackage => "root package",
            Bucket::Examples => "examples",
            Bucket::OwnTests => "own tests",
            Bucket::Nothing => "nothing",
        }
    }

    /// The bucket a file at `rel` puts an item of `krate` in, or `None`
    /// for the crate's own library sources and for this lint, which
    /// depends on no crate.
    fn of(rel: &str, krate: &str) -> Option<Bucket> {
        if rel.starts_with("crates/xtask/") {
            None
        } else if rel.starts_with("plbmark/") {
            Some(Bucket::Plbmark)
        } else if rel.starts_with(BINARIES) {
            Some(Bucket::Binaries)
        } else if let Some(rest) = rel.strip_prefix(krate) {
            (!rest.starts_with("src/")).then_some(Bucket::OwnTests)
        } else if rel.starts_with("crates/") {
            Some(Bucket::OtherCrate)
        } else if rel.starts_with("examples/") {
            Some(Bucket::Examples)
        } else {
            Some(Bucket::RootPackage)
        }
    }
}

/// One public item.
#[derive(Debug, Clone)]
struct Item {
    /// Workspace-relative path of the defining file.
    file: String,
    /// 1-based line of the `pub` keyword.
    line: usize,
    /// The item's name.
    name: String,
    /// Who names it.
    bucket: Bucket,
}

/// Every public item of the library crates, with its bucket.
fn survey(ctx: &Context) -> Vec<Item> {
    let mut declared = Vec::new();
    for s in ctx.sources {
        let Some(krate) = LIBRARY_CRATES.iter().find(|c| s.rel.starts_with(*c)) else {
            continue;
        };
        for (pos, name) in public_items(&s.code) {
            declared.push((*krate, s, pos, name));
        }
    }
    // Which files name each declared name, each file listed once.
    let names: BTreeSet<&str> = declared.iter().map(|d| d.3).collect();
    let mut named_in: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for u in ctx.users {
        for word in identifiers(&u.code).filter(|w| names.contains(w)) {
            let files = named_in.entry(word).or_default();
            if files.last() != Some(&u.rel.as_str()) {
                files.push(&u.rel);
            }
        }
    }
    declared
        .into_iter()
        .map(|(krate, s, pos, name)| Item {
            file: s.rel.clone(),
            line: line_of(&s.code, pos),
            name: name.to_string(),
            bucket: named_in
                .get(name)
                .into_iter()
                .flatten()
                .filter_map(|rel| Bucket::of(rel, krate))
                .min()
                .unwrap_or(Bucket::Nothing),
        })
        .collect()
}

/// The one-line bucket table printed beside the timing line.
fn bucket_line(items: &[Item]) -> String {
    let cells: Vec<String> = Bucket::ALL
        .iter()
        .map(|&b| {
            let n = items.iter().filter(|i| i.bucket == b).count();
            format!("{} {n}", b.label())
        })
        .collect();
    format!(
        "pub-surface: {} public items: {}",
        items.len(),
        cells.join(" | ")
    )
}

/// `(offset of `pub`, name)` for every `pub` item declared at the start
/// of a line, the way the ROADMAP's grep counts them.
fn public_items(code: &str) -> Vec<(usize, &str)> {
    let b = code.as_bytes();
    let mut found = Vec::new();
    for pos in word_occurrences(code, "pub") {
        let line_start = code[..pos].rfind('\n').map_or(0, |p| p + 1);
        if !code[line_start..pos].trim().is_empty() || b.get(pos + 3) != Some(&b' ') {
            continue;
        }
        let mut words = code[pos + 3..].split_whitespace().peekable();
        let mut kind = words.next();
        // Skip qualifiers: `pub const fn` is a function, `pub const X` a
        // constant.
        while let Some(q @ ("const" | "unsafe" | "async" | "extern")) = kind {
            if q == "const" && !matches!(words.peek(), Some(&("fn" | "unsafe"))) {
                break;
            }
            kind = words.next();
        }
        if !matches!(
            kind,
            Some("fn" | "struct" | "enum" | "trait" | "const" | "type")
        ) {
            continue;
        }
        let Some(rest) = words.next() else { continue };
        let end = rest
            .bytes()
            .position(|c| !is_word_byte(c))
            .unwrap_or(rest.len());
        if end > 0 {
            found.push((pos, &rest[..end]));
        }
    }
    found
}

/// Every identifier in a code view, in order.
fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    let b = code.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < b.len() && !is_word_byte(b[i]) {
            i += 1;
        }
        let start = i;
        while i < b.len() && is_word_byte(b[i]) {
            i += 1;
        }
        (start < i).then(|| &code[start..i])
    })
}

pub struct PubSurface;

impl Pass for PubSurface {
    fn name(&self) -> &'static str {
        "pub-surface"
    }

    fn summary(&self) -> &'static str {
        "every public item of a library crate is named outside that crate's src/, and the count only falls"
    }

    fn run(&self, ctx: &Context, out: &mut Vec<Violation>) {
        let allow = match Allowlist::load(ctx.root, self.name()) {
            Ok(a) => a,
            Err(e) => {
                out.push(config_error(self.name(), e));
                return;
            }
        };
        let items = survey(ctx);
        eprintln!("{}", bucket_line(&items));
        if items.len() != PUBLIC_ITEMS {
            out.push(Violation {
                file: "crates/xtask/src/passes/pub_surface.rs".to_string(),
                line: 1,
                pass: self.name(),
                msg: format!(
                    "{n} public items, but `PUBLIC_ITEMS` is {PUBLIC_ITEMS}: the count may \
                     only fall, so a change that removes items lowers the constant to {n}, \
                     and one that adds items must demote as many",
                    n = items.len()
                ),
            });
        }
        let mut listed = BTreeSet::new();
        for item in items.iter().filter(|i| i.bucket == Bucket::Nothing) {
            let key = format!("{}:{}", item.file, item.name);
            if allow.permits(&key) {
                listed.insert(key);
                continue;
            }
            out.push(Violation {
                file: item.file.clone(),
                line: item.line,
                pass: self.name(),
                msg: format!(
                    "`{}` is public, but nothing outside its crate's src/ names it: make it \
                     `pub(crate)` or private, or list `{key}` in allowlists/pub-surface.txt \
                     with the reason it stays public",
                    item.name
                ),
            });
        }
        for stale in allow.entries().iter().filter(|e| !listed.contains(*e)) {
            out.push(config_error(
                self.name(),
                format!(
                    "allowlist entry `{stale}` names no public item that only its own crate \
                     uses: remove it"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Source;

    fn source(rel: &str, code: &str) -> Source {
        Source {
            rel: rel.to_string(),
            code: code.to_string(),
        }
    }

    #[test]
    fn items_are_counted_like_the_grep() {
        let code = "pub fn a() {}\n    pub struct B;\npub(crate) fn c() {}\n\
                    pub const D: u8 = 0;\npub const fn e() {}\npub mod f {}\n\
                    pub use g::H;\nlet x = pub_fn;\n    pub type I = u8;\n";
        let names: Vec<&str> = public_items(code).into_iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["a", "B", "D", "e", "I"]);
    }

    #[test]
    fn each_item_goes_to_the_first_bucket_that_names_it() {
        let sources = [source(
            "crates/numerics/src/lib.rs",
            "pub fn by_mark() {}\npub fn by_test() {}\npub fn orphan() { orphan() }\n\
             pub fn by_bin() {}\n",
        )];
        let users = [
            source("crates/numerics/src/lib.rs", "orphan by_mark"),
            source("crates/numerics/tests/t.rs", "by_test by_mark"),
            source("plbmark/src/main.rs", "by_mark"),
            source("crates/bench/src/bin/plb.rs", "by_bin"),
        ];
        let root = crate::workspace_root();
        let ctx = Context {
            root: &root,
            sources: &sources,
            users: &users,
        };
        let buckets: Vec<(String, Bucket)> = survey(&ctx)
            .into_iter()
            .map(|i| (i.name, i.bucket))
            .collect();
        assert_eq!(
            buckets,
            [
                ("by_mark".to_string(), Bucket::Plbmark),
                ("by_test".to_string(), Bucket::OwnTests),
                ("orphan".to_string(), Bucket::Nothing),
                ("by_bin".to_string(), Bucket::Binaries),
            ]
        );
    }

    #[test]
    fn own_sources_and_the_lint_are_no_users_but_the_binaries_are() {
        for rel in ["crates/bench/src/harness.rs", "crates/xtask/src/main.rs"] {
            assert_eq!(Bucket::of(rel, "crates/bench/"), None, "{rel}");
        }
        assert_eq!(
            Bucket::of("crates/bench/src/bin/repro.rs", "crates/bench/"),
            Some(Bucket::Binaries)
        );
        assert_eq!(
            Bucket::of("crates/bench/tests/cli.rs", "crates/runtime/"),
            Some(Bucket::OtherCrate)
        );
        assert_eq!(
            Bucket::of("tests/common/mod.rs", "crates/runtime/"),
            Some(Bucket::RootPackage)
        );
    }
}
