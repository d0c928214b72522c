//! Deterministic workspace walker: every `.rs` file under a root,
//! sorted by relative path, with build output and fixtures excluded.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into, wherever they appear.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "node_modules"];

/// Collects every `.rs` file under `root` as `(relative-path, absolute-path)`
/// pairs, `/`-separated and sorted for deterministic reports.
///
/// Skipped: build output (`SKIP_DIRS`) and any path under a
/// `tests/fixtures` directory — fixtures are deliberate rule violations
/// used by the linter's own tests, not code.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            if name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests") {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("invariant: walk never leaves the root it started from")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            files.push((rel, path));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_crate_sorted_and_skips_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = collect_rs_files(root).unwrap();
        let rels: Vec<&str> = files.iter().map(|(r, _)| r.as_str()).collect();
        assert!(rels.contains(&"src/lexer.rs"));
        assert!(rels.contains(&"src/lib.rs"));
        assert!(rels.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        assert!(
            rels.iter().all(|r| !r.contains("fixtures")),
            "fixtures excluded: {rels:?}"
        );
    }

    #[test]
    fn fixture_roots_themselves_are_walkable() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations");
        let files = collect_rs_files(&root).unwrap();
        assert!(
            !files.is_empty(),
            "a root inside tests/fixtures walks its own files"
        );
    }
}
