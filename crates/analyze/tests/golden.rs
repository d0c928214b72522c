//! Fixture coverage for every rule plus a byte-identical JSON-lines
//! golden, in the style of `crates/netsim/tests/chrome_golden.rs`.
//!
//! The fixtures under `tests/fixtures/` are three miniature workspace
//! roots — `violations/`, `clean/`, `allowed/` — each holding one file
//! per rule. The workspace walker skips `tests/fixtures` when analyzing
//! the real tree, so the deliberate violations here never leak into
//! `hbnet analyze`.

use hb_analyze::{analyze_root, baseline, render_jsonl, Finding};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture_findings(root: &str) -> Vec<Finding> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(root);
    analyze_root(&dir).expect("fixture root walks")
}

#[test]
fn violating_fixtures_match_golden_jsonl() {
    let rendered = render_jsonl(&fixture_findings("violations"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_violations.jsonl");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = include_str!("golden_violations.jsonl");
    assert_eq!(
        rendered, golden,
        "diagnostics drifted from the committed golden; if intentional, \
         rerun with REGEN_GOLDEN=1 and commit the result"
    );
}

#[test]
fn every_rule_fires_in_the_violations_root() {
    let findings = fixture_findings("violations");
    let rules: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules.into_iter().collect::<Vec<_>>(),
        ["A1", "C1", "D1", "D2", "D3", "D4", "D5", "H1", "P1", "S1"],
        "one violating fixture per rule"
    );
    // The panic-policy fixture exercises all three flagged forms.
    assert_eq!(findings.iter().filter(|f| f.rule == "P1").count(), 3);
    // The rule table covers exactly the rules the engine can emit.
    let registry: BTreeSet<&str> = hb_analyze::RULES.iter().map(|r| r.id).collect();
    let fired: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(fired.is_subset(&registry), "every finding has metadata");
    assert_eq!(registry.len(), hb_analyze::RULES.len(), "no duplicate ids");
}

#[test]
fn violating_fixtures_match_golden_sarif() {
    let findings = fixture_findings("violations");
    let rendered = hb_analyze::render_sarif(&findings, &baseline::Baseline::new());
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_violations.sarif");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = include_str!("golden_violations.sarif");
    assert_eq!(
        rendered, golden,
        "SARIF drifted from the committed golden; if intentional, \
         rerun with REGEN_GOLDEN=1 and commit the result"
    );
    // With an empty baseline every result is new debt.
    assert!(!golden.contains("\"baselineState\": \"unchanged\""));
    assert!(golden.contains("\"baselineState\": \"new\""));
}

#[test]
fn golden_jsonl_parses_line_by_line() {
    for line in include_str!("golden_violations.jsonl").lines() {
        assert!(
            line.starts_with("{\"rule\":\"") && line.ends_with('}'),
            "{line}"
        );
        for key in [
            "\"name\":",
            "\"severity\":",
            "\"file\":",
            "\"line\":",
            "\"message\":",
            "\"snippet\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}

#[test]
fn clean_fixtures_produce_no_findings() {
    let findings = fixture_findings("clean");
    assert!(
        findings.is_empty(),
        "clean fixtures must not lint:\n{}",
        hb_analyze::render_human(&findings)
    );
}

#[test]
fn allowlisted_fixtures_produce_no_findings() {
    let findings = fixture_findings("allowed");
    assert!(
        findings.is_empty(),
        "allow-comments must suppress every fixture violation:\n{}",
        hb_analyze::render_human(&findings)
    );
}

#[test]
fn violations_gate_against_an_empty_baseline() {
    let findings = fixture_findings("violations");
    let diff = baseline::diff(&findings, &baseline::Baseline::new());
    assert_eq!(diff.new.len(), findings.len(), "everything is new debt");
    assert!(diff.stale.is_empty());

    // Accepting the debt via a generated baseline silences the gate…
    let accepted = baseline::parse(&baseline::render(&findings)).unwrap();
    let diff = baseline::diff(&findings, &accepted);
    assert!(diff.new.is_empty());

    // …until one more finding lands in an accepted bucket.
    let mut grown = findings.clone();
    grown.push(findings[0].clone());
    let diff = baseline::diff(&grown, &accepted);
    assert!(!diff.new.is_empty());
}
