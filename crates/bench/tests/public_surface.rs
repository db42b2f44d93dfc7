//! The public-surface ratchet. `pub` hides an item from rustc's
//! `dead_code` lint, so `pub` that no caller needs is dead code the
//! compiler cannot report. This test reads every `.rs` file under
//! `crates/`, `shims/`, `tests/`, `examples/` and `benchmark/src/` and
//! holds the library crates under `crates/*/src` to two rules:
//!
//! 1. Every `pub mod`, and every name a `pub use` exports, is named by
//!    path from outside its crate: as `crate_ident::…::name`, inside a
//!    `use crate_ident::{…}` tree, or through a name such a `use` brought
//!    into scope (`use swdnn::plans; plans::…`).
//! 2. Every plainly-`pub` `fn`, `struct`, `enum`, `const`, `static`,
//!    `type` and `trait` is named in some other file that can reach it:
//!    a file of its own crate, or a file that names its crate or a crate
//!    that depends on it (and so may hand its items out).
//!
//! A `pub use` never counts as a caller, and comments and string
//! literals never name anything. The exceptions to rule 2 are listed in
//! [`ALLOWED`], each with the `pub` signature that exposes it; an entry
//! that no longer needs its place fails the test too.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Types that callers receive through a `pub` signature or field but never
/// name, each with that signature.
const ALLOWED: &[(&str, &str)] = &[
    ("AsmError", "error type of the pub `parse_program`"),
    ("BatchTrigger", "type of the pub field `Batch::trigger`"),
    (
        "BucketSpan",
        "element type of the pub field `CollectiveReport::spans`",
    ),
    (
        "Candidate",
        "element type of the pub field `TuneReport::candidates`",
    ),
    (
        "ChromeEvent",
        "element type of the pub field `ChromeTrace::events`",
    ),
    (
        "CollectiveCost",
        "return type of the pub `NetworkModel::execute`",
    ),
    (
        "CollectiveReport",
        "return type of the pub `cluster::run_collective`",
    ),
    (
        "CollectiveSummary",
        "type of the pub field `StepReport::collective`",
    ),
    (
        "ConvReport",
        "return type of the pub `Executor::run_config`",
    ),
    ("DropKind", "type of the pub field `DropRecord::kind`"),
    ("DropRecord", "element type of the pub `ServeEngine::drops`"),
    ("ExecReport", "return type of the pub `DualPipe::run`"),
    ("LinkUse", "element type of the pub `LinkOccupancy::links`"),
    ("Method", "type of the pub field `Optimizer::method`"),
    (
        "MultiCgConvReport",
        "return type of the pub `Executor::run_multi_cg`",
    ),
    ("MultiCgReport", "return type of the pub `run_multi_cg_on`"),
    (
        "RecoveryEvent",
        "element type of the pub field `ResilientReport::timeline`",
    ),
    (
        "RecoveryOutcome",
        "type of the pub field `RecoveryEvent::outcome`",
    ),
    (
        "ResilientReport",
        "return type of the pub `ResilientExecutor::run`",
    ),
    (
        "Round",
        "element type of the pub field `CollectiveSchedule::rounds`",
    ),
    ("Route", "return type of the pub `HealthBoard::route`"),
    ("ServePath", "type of the pub field `Completion::path`"),
    (
        "TileProfile",
        "return type of the pub `kernel_cost::block_profile`",
    ),
    (
        "Transfer",
        "element type of the pub field `Round::transfers`",
    ),
];

const KINDS: &[&str] = &["fn", "struct", "enum", "const", "static", "type", "trait"];
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern", "mut"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The item names a line declares as plainly `pub` (not `pub(crate)`).
fn pub_item(line: &str) -> Option<&str> {
    let mut words = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut word = words.next()?;
    while QUALIFIERS.contains(&word) || word.starts_with('"') {
        if word == "const" && !matches!(words.clone().next(), Some("fn" | "unsafe")) {
            break;
        }
        word = words.next()?;
    }
    if !KINDS.contains(&word) {
        return None;
    }
    let name = words.next()?;
    let end = name.find(|c: char| !is_ident(c)).unwrap_or(name.len());
    (end > 0).then(|| &name[..end])
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Path, // `::`
    Open,
    Close,
    Comma,
    Semi,
    Other(char),
}

/// The code tokens of a file: comments, string and char literals dropped.
fn tokens(text: &str) -> Vec<Tok> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let skip_string = |mut i: usize, hashes: usize| -> usize {
        // `i` is just past the opening quote.
        while i < chars.len() {
            if chars[i] == '\\' && hashes == 0 {
                i += 2;
            } else if chars[i] == '"' && chars[i + 1..].iter().take(hashes).all(|&c| c == '#') {
                return i + 1 + hashes;
            } else {
                i += 1;
            }
        }
        i
    };
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(i + 1, 0);
        } else if c == '\'' {
            if next == Some('\\') {
                i += 2;
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if chars.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                i += 1; // a lifetime; its name follows as an identifier
            }
        } else if is_ident(c) {
            let start = i;
            while i < chars.len() && is_ident(chars[i]) {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            let hashes = chars[i..].iter().take_while(|&&c| c == '#').count();
            if matches!(word.as_str(), "r" | "br") && chars.get(i + hashes) == Some(&'"') {
                i = skip_string(i + hashes + 1, hashes);
            } else if word == "b" && chars.get(i) == Some(&'"') {
                i = skip_string(i + 1, 0);
            } else if word == "b" && chars.get(i) == Some(&'\'') {
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    i += usize::from(chars[i] == '\\') + 1;
                }
                i += 1;
            } else {
                out.push(Tok::Ident(word));
            }
        } else {
            i += 1;
            out.push(match c {
                ':' if next == Some(':') => {
                    i += 1;
                    Tok::Path
                }
                '{' => Tok::Open,
                '}' => Tok::Close,
                ',' => Tok::Comma,
                ';' => Tok::Semi,
                c if c.is_whitespace() => continue,
                c => Tok::Other(c),
            });
        }
    }
    out
}

/// One leaf of a `use` tree: its full path and the name it binds.
struct UseLeaf {
    path: Vec<String>,
    name: String,
}

/// Parses the `use` tree at `toks[*at..]` below `prefix`, up to its `;`.
fn use_tree(toks: &[Tok], at: &mut usize, prefix: &[String], out: &mut Vec<UseLeaf>) {
    let mut path = prefix.to_vec();
    if toks.get(*at) == Some(&Tok::Path) {
        *at += 1;
    }
    loop {
        match toks.get(*at) {
            Some(Tok::Ident(seg)) => {
                *at += 1;
                if seg != "self" {
                    path.push(seg.clone());
                }
                if toks.get(*at) == Some(&Tok::Path) {
                    *at += 1;
                    continue;
                }
                let mut name = path.last().cloned().unwrap_or_default();
                if toks.get(*at) == Some(&Tok::Ident("as".into())) {
                    if let Some(Tok::Ident(alias)) = toks.get(*at + 1) {
                        name = alias.clone();
                    }
                    *at += 2;
                }
                out.push(UseLeaf { path, name });
                return;
            }
            Some(Tok::Open) => {
                *at += 1;
                while !matches!(toks.get(*at), Some(Tok::Close) | None) {
                    use_tree(toks, at, &path, out);
                    if toks.get(*at) == Some(&Tok::Comma) {
                        *at += 1;
                    }
                }
                *at += 1;
                return;
            }
            // A glob binds no name this test can follow.
            _ => {
                *at += 1;
                return;
            }
        }
    }
}

/// What one file declares and names.
#[derive(Default)]
struct Scan {
    /// Every path the file names outside a `pub use`, aliases resolved.
    paths: Vec<Vec<String>>,
    /// Every identifier of the file's code outside a `pub use`.
    words: BTreeSet<String>,
    /// Names this file's `pub use` lines export.
    exports: Vec<String>,
    /// Modules this file declares `pub mod`.
    pub_mods: Vec<String>,
}

fn scan(text: &str) -> Scan {
    let toks = tokens(text);
    let mut scan = Scan::default();
    let mut aliases: HashMap<String, Vec<String>> = HashMap::new();
    let mut plain: Vec<Vec<String>> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is = |k: usize, word: &str| toks.get(k) == Some(&Tok::Ident(word.into()));
        // Plain `pub`, not `pub(crate)` (whose `(` is the next token).
        let public = is(i, "pub");
        let item = i + usize::from(public);
        if is(item, "use") {
            let mut at = item + 1;
            let mut leaves = Vec::new();
            while !matches!(toks.get(at), Some(Tok::Semi) | None) {
                use_tree(&toks, &mut at, &[], &mut leaves);
            }
            for leaf in leaves {
                if public {
                    scan.exports.push(leaf.name);
                } else {
                    for seg in &leaf.path {
                        scan.words.insert(seg.clone());
                    }
                    aliases.insert(leaf.name, leaf.path.clone());
                    plain.push(leaf.path);
                }
            }
            i = at + 1;
            continue;
        }
        if public && is(item, "mod") {
            if let Some(Tok::Ident(name)) = toks.get(item + 1) {
                scan.pub_mods.push(name.clone());
            }
        }
        if let Tok::Ident(word) = &toks[i] {
            scan.words.insert(word.clone());
            let mut path = vec![word.clone()];
            while toks.get(i + 1) == Some(&Tok::Path) {
                let Some(Tok::Ident(seg)) = toks.get(i + 2) else {
                    break;
                };
                path.push(seg.clone());
                scan.words.insert(seg.clone());
                i += 2;
            }
            if path.len() > 1 {
                plain.push(path);
            }
        }
        i += 1;
    }
    scan.paths = plain
        .into_iter()
        .map(|path| match aliases.get(&path[0]) {
            Some(full) if full.len() > 1 && full != &path[..1] => {
                full.iter().chain(&path[1..]).cloned().collect()
            }
            _ => path,
        })
        .collect();
    scan
}

/// One library crate: its `src` directory, its identifier and the
/// identifiers of its `[dependencies]`.
struct Crate {
    src: PathBuf,
    ident: String,
    deps: Vec<String>,
}

fn library_crates(root: &Path) -> Vec<Crate> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        let dir = entry.path();
        if !dir.join("src/lib.rs").exists() {
            continue;
        }
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'))
            .expect("package name");
        let deps = manifest
            .split("[dependencies]")
            .nth(1)
            .unwrap_or_default()
            .lines()
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.split_once(" = "))
            .map(|(dep, _)| dep.trim().replace('-', "_"))
            .collect();
        out.push(Crate {
            src: dir.join("src"),
            ident: name.replace('-', "_"),
            deps,
        });
    }
    out
}

/// The module path a library file defines, below its crate identifier.
fn module_path(krate: &Crate, file: &Path) -> Vec<String> {
    let rel = file.strip_prefix(&krate.src).unwrap().with_extension("");
    let mut path = vec![krate.ident.clone()];
    path.extend(
        rel.components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .filter(|seg| seg != "lib" && seg != "mod"),
    );
    path
}

#[test]
fn every_pub_item_is_named_outside_its_file() {
    let root = root();
    let mut files = Vec::new();
    for tree in ["crates", "shims", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(tree), &mut files);
    }
    let crates = library_crates(&root);
    // The crate whose library a file belongs to; `src/bin` targets are
    // callers of their library, not part of it.
    let owner: Vec<Option<usize>> = files
        .iter()
        .map(|f| {
            crates.iter().position(|k| {
                f.starts_with(&k.src) && !f.strip_prefix(&k.src).unwrap().starts_with("bin")
            })
        })
        .collect();
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect();
    let scans: Vec<Scan> = texts.iter().map(|t| scan(t)).collect();
    // reaches[d][k]: crate `d`'s library can hand out crate `k`'s items.
    let mut reaches: Vec<Vec<bool>> = (0..crates.len())
        .map(|d| {
            (0..crates.len())
                .map(|k| d == k || crates[d].deps.contains(&crates[k].ident))
                .collect()
        })
        .collect();
    for mid in 0..crates.len() {
        for d in 0..crates.len() {
            for k in 0..crates.len() {
                reaches[d][k] |= reaches[d][mid] && reaches[mid][k];
            }
        }
    }
    // A file reaches an item of crate `k` when its own crate, or a crate it
    // names by path, is `k` or depends on `k`.
    let names_crate = |file: usize, krate: usize| {
        owner[file].is_some_and(|d| reaches[d][krate])
            || crates.iter().enumerate().any(|(d, named)| {
                reaches[d][krate] && scans[file].paths.iter().any(|p| p[0] == named.ident)
            })
    };
    let rel = |file: usize| {
        let f = &files[file];
        f.strip_prefix(&root).unwrap_or(f).display().to_string()
    };

    // Rule 1: `pub mod` and `pub use` are named by path from outside.
    let mut unnamed = Vec::new();
    for (file, scan) in scans.iter().enumerate() {
        let Some(krate) = owner[file] else {
            continue;
        };
        let module = module_path(&crates[krate], &files[file]);
        for name in scan.pub_mods.iter().chain(&scan.exports) {
            let mut full = module.clone();
            full.push(name.clone());
            let named = (0..files.len())
                .filter(|&f| owner[f] != Some(krate))
                .any(|f| scans[f].paths.iter().any(|p| p.starts_with(&full)));
            if !named {
                unnamed.push(format!("{} ({})", full.join("::"), rel(file)));
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "{} pub modules or re-exports are named by path from no file outside \
         their crate; make them private or drop the re-export:\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );

    // Rule 2: file-local `pub` items are named by a file that reaches them.
    let mut local: BTreeMap<&str, String> = BTreeMap::new();
    for (file, text) in texts.iter().enumerate() {
        let Some(krate) = crates.iter().position(|k| files[file].starts_with(&k.src)) else {
            continue;
        };
        for name in text.lines().filter_map(pub_item) {
            let named = (0..files.len())
                .any(|f| f != file && scans[f].words.contains(name) && names_crate(f, krate));
            if !named {
                local.insert(name, rel(file));
            }
        }
    }
    let allowed: BTreeMap<&str, &str> = ALLOWED.iter().copied().collect();
    let unlisted: Vec<String> = local
        .iter()
        .filter(|(name, _)| !allowed.contains_key(*name))
        .map(|(name, file)| format!("{name} ({file})"))
        .collect();
    let stale: Vec<&str> = allowed
        .keys()
        .filter(|name| !local.contains_key(*name))
        .copied()
        .collect();
    assert!(
        unlisted.is_empty(),
        "{} pub items are named by no other file that can reach them; make \
         them private, pub(crate) or #[cfg(test)], or list them in ALLOWED \
         with a reason:\n{}",
        unlisted.len(),
        unlisted.join("\n")
    );
    assert!(
        stale.is_empty(),
        "ALLOWED entries that are no longer file-local pub items: {stale:?}"
    );
}
