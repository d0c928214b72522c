//! Every declared dependency is used. Each `[dependencies]` and
//! `[dev-dependencies]` entry of the root package and of every
//! `crates/*` package must be named as a path or a macro (`ident::`,
//! `use ident` or `ident!`, with `-` read as `_`) somewhere in that
//! package's `src/`, `tests/`, `examples/` or `benches/`.

use std::path::{Path, PathBuf};

/// Declarations nothing imports that `perfbench/Cargo.lock` still pins,
/// as (package, dependency). They go with the benchmark change that
/// updates that lock file, which must empty this list.
const PINNED_BY_PERFBENCH: &[(&str, &str)] = &[
    ("hb-netsim", "crossbeam"),
    ("hb-netsim", "parking_lot"),
    ("hb-netsim", "rayon"),
    ("hb-graphs", "rayon"),
    ("hb-graphs", "serde"),
    ("hb-core", "rayon"),
    ("hb-core", "hb-telemetry"),
];

/// One declaration: the package, the dependency, and whether the
/// package's code names it.
struct Declared {
    package: String,
    dependency: String,
    used: bool,
}

/// The root package and every `crates/*` package, in path order.
fn package_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    std::iter::once(root.to_path_buf()).chain(crates).collect()
}

/// The package name and the dependency keys of a `Cargo.toml`.
fn read_manifest(dir: &Path) -> (String, Vec<String>) {
    let path = dir.join("Cargo.toml");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let mut section = "";
    let mut package = None;
    let mut dependencies = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap_or_default();
        match section {
            "[package]" if key == "name" => {
                let (_, value) = line.split_once('=').expect("name = value");
                package = Some(value.trim().trim_matches('"').to_string());
            }
            "[dependencies]" | "[dev-dependencies]" => dependencies.push(key.to_string()),
            _ => {}
        }
    }
    (package.expect("[package] name"), dependencies)
}

/// Appends every `.rs` file under `dir` to `out`.
fn read_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            read_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("source reads"));
            out.push('\n');
        }
    }
}

/// Whether `source` names the crate `ident` as `ident::`, `use ident`
/// or `ident!`.
fn names(source: &str, ident: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    source.match_indices(ident).any(|(at, _)| {
        let (before, after) = (&source[..at], &source[at + ident.len()..]);
        !before.ends_with(word)
            && (after.starts_with("::")
                || after.starts_with('!')
                || (before.ends_with("use ") && !after.starts_with(word)))
    })
}

fn declarations() -> Vec<Declared> {
    let mut all = Vec::new();
    for dir in package_dirs() {
        let (package, dependencies) = read_manifest(&dir);
        let mut source = String::new();
        for sub in ["src", "tests", "examples", "benches"] {
            read_sources(&dir.join(sub), &mut source);
        }
        for dependency in dependencies {
            let used = names(&source, &dependency.replace('-', "_"));
            all.push(Declared {
                package: package.clone(),
                dependency,
                used,
            });
        }
    }
    all
}

fn pinned(d: &Declared) -> bool {
    PINNED_BY_PERFBENCH.contains(&(d.package.as_str(), d.dependency.as_str()))
}

#[test]
fn every_declared_dependency_is_named() {
    let unused: Vec<String> = declarations()
        .iter()
        .filter(|d| !d.used && !pinned(d))
        .map(|d| format!("{} declares {} but never names it", d.package, d.dependency))
        .collect();
    assert!(unused.is_empty(), "{}", unused.join("\n"));
}

/// Each pin must still be declared and still be unused, so the list
/// shrinks as the declarations go.
#[test]
fn perfbench_pins_are_declared_and_unused() {
    let all = declarations();
    for &(package, dependency) in PINNED_BY_PERFBENCH {
        let found = all
            .iter()
            .find(|d| d.package == package && d.dependency == dependency);
        match found {
            None => panic!("{package} no longer declares {dependency}: drop its pin"),
            Some(d) => assert!(!d.used, "{package} now names {dependency}: drop its pin"),
        }
    }
}
