//! The public-surface ratchet. `pub` hides an item from rustc's
//! `dead_code` lint, so a `pub` item that nothing outside its own file
//! names is dead code the compiler cannot report. This test collects every
//! plainly-`pub` `fn`, `struct`, `enum`, `const`, `static`, `type` and
//! `trait` in `crates/*/src` and requires its name to appear as a whole
//! word in some other `.rs` file under `crates/`, `shims/`, `tests/`,
//! `examples/` or `benchmark/src/`. The exceptions are listed in
//! [`ALLOWED`], each with the reason it stays `pub`; an entry that no
//! longer needs its place fails the test too.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// File-local `pub` items that stay `pub`, each with its reason.
const ALLOWED: &[(&str, &str)] = &[
    ("AsmError", "error type of the pub `asm::parse_program`"),
    ("DepEdge", "element type of the pub field `DepGraph::edges`"),
    ("DepKind", "type of the pub field `DepEdge::kind`"),
    ("Method", "type of the pub field `Optimizer::method`"),
    (
        "MultiCgConvReport",
        "return type of `Executor::run_multi_cg`, which the benchmark probes",
    ),
    (
        "TileProfile",
        "return type of the pub `kernel_cost::block_profile`",
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

#[test]
fn every_pub_item_is_named_outside_its_file() {
    let root = root();
    let mut files = Vec::new();
    for tree in ["crates", "shims", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(tree), &mut files);
    }
    // This file names the allowed items; it must not count as a caller.
    files.retain(|f| !f.ends_with("bench/tests/public_surface.rs"));
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect();
    // word -> the files that contain it
    let mut seen: HashMap<&str, BTreeSet<usize>> = HashMap::new();
    for (i, text) in texts.iter().enumerate() {
        for word in text.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()) {
            seen.entry(word).or_default().insert(i);
        }
    }
    let crate_src = root.join("crates");
    let mut local: BTreeMap<&str, String> = BTreeMap::new();
    for (i, (file, text)) in files.iter().zip(&texts).enumerate() {
        let rel = file.strip_prefix(&crate_src).unwrap_or(file);
        if !file.starts_with(&crate_src)
            || rel
                .components()
                .nth(1)
                .is_none_or(|c| c.as_os_str() != "src")
        {
            continue;
        }
        for name in text.lines().filter_map(pub_item) {
            if seen[name].iter().all(|&j| j == i) {
                local.insert(name, rel.display().to_string());
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
        "{} pub items are named in no other file; make them private, \
         pub(crate) or #[cfg(test)], or list them in ALLOWED with a reason:\n{}",
        unlisted.len(),
        unlisted.join("\n")
    );
    assert!(
        stale.is_empty(),
        "ALLOWED entries that are no longer file-local pub items: {stale:?}"
    );
}
