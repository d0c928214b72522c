//! Self-lint proof: the committed tree produces zero diagnostics beyond
//! the accepted baseline, so `hbnet analyze` is green on its own repo.
//!
//! This is the same gate CI runs (`hbnet analyze`), expressed as a plain
//! workspace test so `cargo test` catches new violations before a PR
//! ever reaches CI.

use hb_analyze::lexer::TokKind;
use hb_analyze::scan::parse_hot;
use std::path::Path;

#[test]
fn workspace_is_analyze_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = hb_analyze::analyze_root(root).expect("workspace walks");

    let baseline_path = root.join(hb_analyze::BASELINE_FILE);
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("{}: {e}", baseline_path.display()));
    let accepted = hb_analyze::baseline::parse(&text).expect("baseline parses");

    let diff = hb_analyze::baseline::diff(&findings, &accepted);
    let new: Vec<_> = diff.new.iter().map(|(f, _, _)| f.clone()).collect();
    assert!(
        new.is_empty(),
        "new analyze finding(s) beyond {}:\n{}\nfix, justify with \
         `// analyze: allow(<rule>, <why>)`, or accept with \
         `hbnet analyze --update-baseline`",
        baseline_path.display(),
        hb_analyze::render_human(&new)
    );
}

#[test]
fn baseline_has_no_stale_buckets() {
    // The ratchet only ratchets if paid-down debt leaves the file:
    // shrinking a bucket without updating the baseline would let new
    // debt hide in the slack.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = hb_analyze::analyze_root(root).expect("workspace walks");
    let text = std::fs::read_to_string(root.join(hb_analyze::BASELINE_FILE)).expect("baseline");
    let accepted = hb_analyze::baseline::parse(&text).expect("baseline parses");
    let diff = hb_analyze::baseline::diff(&findings, &accepted);
    assert!(
        diff.stale.is_empty(),
        "stale baseline bucket(s) {:?}: run `hbnet analyze --update-baseline`",
        diff.stale
    );
}

#[test]
fn every_hot_annotation_in_library_code_annotates_a_fn() {
    // A1 reads only the loops of the fns the scan resolves, so an
    // annotation that annotates no fn checks nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut found, mut orphaned) = (0, Vec::new());
    for (rel, path) in hb_analyze::walk::collect_rs_files(root).expect("workspace walks") {
        if !hb_analyze::classify(&rel).is_library {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("source reads");
        let toks = hb_analyze::lexer::lex(&src);
        let scopes = hb_analyze::scan::scan(&toks);
        let annotations: Vec<u32> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Comment && parse_hot(&t.text).is_some())
            .map(|t| t.line)
            .filter(|line| {
                !scopes
                    .test_spans
                    .iter()
                    .any(|(a, b)| (a..=b).contains(&line))
            })
            .collect();
        found += annotations.len();
        if annotations.len() != scopes.hot_fns.len() {
            let fns: Vec<&str> = scopes.hot_fns.iter().map(|h| h.name.as_str()).collect();
            orphaned.push(format!(
                "{rel}: annotations on lines {annotations:?}, hot fns {fns:?}"
            ));
        }
    }
    assert!(found > 0, "no hot annotation in library code");
    assert!(
        orphaned.is_empty(),
        "hot annotation(s) that annotate no fn:\n{}",
        orphaned.join("\n")
    );
}

#[test]
fn deliberate_violation_is_caught() {
    // End-to-end: a HashMap smuggled into netsim library code is a new
    // finding even with the committed baseline applied.
    let findings = hb_analyze::analyze_file(
        "crates/netsim/src/smuggled.rs",
        "use std::collections::HashMap;\npub fn f() { let _ = std::time::Instant::now(); }\n",
    );
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["D1", "D2"]);
}
