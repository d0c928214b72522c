//! Every public item is reached. Each `pub fn`, `struct`, `enum`,
//! `trait`, `type`, `const` or `static` declared in a `crates/*/src`
//! file above its `#[cfg(test)] mod tests` must be named somewhere
//! other than its own declaration, either
//!
//! * in non-test code: crate sources above `mod tests`, the root
//!   `src/`, `examples/` or `perfbench/src/`, or
//! * in the test code of another file: a crate source below
//!   `mod tests`, or a `tests/` directory.
//!
//! `pub(crate)` items, `pub use` and `pub mod` are not collected, and
//! comments and `use`/`mod` lines name nothing. The check matches names
//! only, as whole words, so it cannot see an unused item whose name
//! another item shares (a method `new`, or a free `route_avoiding` in
//! two crates), nor one that only another unused item names; a name
//! inside a string literal counts.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Items tested only in their own file that stay, as (file, name,
/// why): each is an oracle or backs a documented claim.
const SELF_TESTED: &[(&str, &str, &str)] = &[
    (
        "crates/bench/src/embed_exp.rs",
        "cycle_rows",
        "Figure 1's cycles row",
    ),
    (
        "crates/butterfly/src/classic.rs",
        "to_signed",
        "the half of the isomorphism whose inverse the butterfly proptests use",
    ),
    (
        "crates/core/src/fault_routing.rs",
        "route_avoiding_exact",
        "the BFS referee for Remark 10",
    ),
    (
        "crates/core/src/graph.rs",
        "generator_kinds",
        "the expected order in edge_kind's test",
    ),
    (
        "crates/graphs/src/cycles.rs",
        "is_pancyclic",
        "HD's pancyclicity",
    ),
    (
        "crates/netsim/src/faults.rs",
        "adversarial_link_trials",
        "EXPERIMENTS.md E11's link-cut claim",
    ),
    (
        "crates/netsim/src/faults.rs",
        "exhaustive_fault_check",
        "Corollary 1 for at most 2 faults",
    ),
    (
        "crates/netsim/src/routes.rs",
        "is_live",
        "RouteCache's invalidation oracle",
    ),
    (
        "crates/netsim/src/workload.rs",
        "bit_complement",
        "a permutation workload kept for the input fuzzer",
    ),
    (
        "crates/netsim/src/workload.rs",
        "bit_reversal",
        "a permutation workload kept for the input fuzzer",
    ),
    (
        "crates/netsim/src/workload.rs",
        "shuffle",
        "a permutation workload kept for the input fuzzer",
    ),
];

/// One source file, as a path relative to the repository root, split
/// into the code above its `#[cfg(test)] mod tests` and the code below.
struct Source {
    path: String,
    code: String,
    tests: String,
}

/// One public declaration: its file, its 0-based line, its name, and
/// whether anything else names it.
struct Item {
    path: String,
    line: usize,
    name: String,
    reached: bool,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, in path order, skipping `skip`.
fn rust_files(dir: &Path, skip: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.starts_with(skip) {
            continue;
        } else if path.is_dir() {
            rust_files(&path, skip, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Reads `path`. A test file is all tests; a source splits at the
/// line pair `#[cfg(test)]` / `mod tests`, or is all code without one.
fn read(path: &Path, is_test: bool) -> Source {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let lines: Vec<&str> = text.lines().collect();
    let split = if is_test {
        0
    } else {
        lines
            .windows(2)
            .position(|w| {
                w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod tests")
            })
            .unwrap_or(lines.len())
    };
    let rel = path.strip_prefix(root()).expect("under the root");
    Source {
        path: rel.to_string_lossy().into_owned(),
        code: lines[..split].join("\n"),
        tests: lines[split..].join("\n"),
    }
}

/// The `crates/*/src` files, and every other file that can name one of
/// their items.
fn sources() -> (Vec<Source>, Vec<Source>) {
    let root = root();
    let fixtures = root.join("crates/analyze/tests/fixtures");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    let (mut crate_code, mut code, mut tests) = (Vec::new(), Vec::new(), Vec::new());
    for dir in &crate_dirs {
        rust_files(&dir.join("src"), &fixtures, &mut crate_code);
        rust_files(&dir.join("tests"), &fixtures, &mut tests);
    }
    for dir in ["src", "examples", "perfbench/src"] {
        rust_files(&root.join(dir), &fixtures, &mut code);
    }
    for dir in ["tests", "perfbench/tests"] {
        rust_files(&root.join(dir), &fixtures, &mut tests);
    }
    // This file names the items it lists.
    tests.retain(|p| !p.ends_with(file!()));
    let crates = crate_code.iter().map(|p| read(p, false)).collect();
    let others = code
        .iter()
        .map(|p| read(p, false))
        .chain(tests.iter().map(|p| read(p, true)))
        .collect();
    (crates, others)
}

/// `line` without its `//` comment. A `//` inside a string literal is
/// kept.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'/' if !in_string && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// The lines of `text` that can name an item, with their 0-based
/// numbers: comments are cut, and `use` statements (to their `;`) and
/// `mod` lines are dropped.
fn naming_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut in_use = false;
    for (number, line) in text.lines().enumerate() {
        let line = strip_comment(line);
        let head = line.trim_start();
        let head = head
            .strip_prefix("pub(crate) ")
            .or(head.strip_prefix("pub "))
            .unwrap_or(head);
        if in_use || head.starts_with("use ") {
            in_use = !line.contains(';');
            continue;
        }
        if head.starts_with("mod ") {
            continue;
        }
        out.push((number, line));
    }
    out
}

/// The words (identifier runs) of `line`.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name a line declares as a collected public item, if any.
fn declared(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    [
        "const fn ",
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
    ]
    .iter()
    .find_map(|keyword| rest.strip_prefix(keyword))
    .and_then(|after| words(after).next())
}

/// Every collected public item, in path order.
fn public_items() -> Vec<Item> {
    let (crates, others) = sources();
    let mut items = Vec::new();
    for source in &crates {
        for (line, text) in naming_lines(&source.code) {
            if let Some(name) = declared(text) {
                items.push(Item {
                    path: source.path.clone(),
                    line,
                    name: name.to_string(),
                    reached: false,
                });
            }
        }
    }
    // Where each word is named: in code at (file, line), or in a file's
    // tests.
    let mut in_code: HashMap<&str, Vec<(&str, usize)>> = HashMap::new();
    let mut in_tests: HashMap<&str, Vec<&str>> = HashMap::new();
    for source in crates.iter().chain(&others) {
        for (line, text) in naming_lines(&source.code) {
            for word in words(text) {
                in_code.entry(word).or_default().push((&source.path, line));
            }
        }
        for (_, text) in naming_lines(&source.tests) {
            for word in words(text) {
                in_tests.entry(word).or_default().push(&source.path);
            }
        }
    }
    for item in &mut items {
        let name = item.name.as_str();
        let mut code = in_code.get(name).into_iter().flatten();
        let mut tests = in_tests.get(name).into_iter().flatten();
        item.reached = code.any(|&(path, line)| (path, line) != (&item.path, item.line))
            || tests.any(|&path| path != item.path);
    }
    items
}

fn self_tested(item: &Item) -> bool {
    SELF_TESTED
        .iter()
        .any(|&(path, name, _)| path == item.path && name == item.name)
}

#[test]
fn every_public_item_is_reached() {
    let unused: Vec<String> = public_items()
        .iter()
        .filter(|item| !item.reached && !self_tested(item))
        .map(|item| {
            format!(
                "{}:{}: nothing names `{}`",
                item.path,
                item.line + 1,
                item.name
            )
        })
        .collect();
    assert!(unused.is_empty(), "{}", unused.join("\n"));
}

/// Each listed item must still be declared and still be named only in
/// its own file, so the list shrinks as the items go or gain a caller.
#[test]
fn self_tested_items_are_declared_and_unreached() {
    let items = public_items();
    for &(path, name, _) in SELF_TESTED {
        match items.iter().find(|i| i.path == path && i.name == name) {
            None => panic!("{path} no longer declares `{name}`: drop its entry"),
            Some(item) => assert!(
                !item.reached,
                "{path}: `{name}` is now named elsewhere: drop its entry"
            ),
        }
    }
}
