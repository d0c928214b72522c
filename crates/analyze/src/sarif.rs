//! SARIF 2.1.0 sink: the standard interchange format for static
//! analysis results, hand-rolled in the style of `BENCH_baseline.json`
//! (no serde in the offline container) and **byte-deterministic** —
//! fixed key order, fixed rule order, no timestamps — so it can be
//! golden-tested and diffed across CI runs.
//!
//! The report carries *all* findings, not just the ones beyond the
//! baseline ratchet: each result's `baselineState` says whether its
//! `(rule, file)` bucket is within the committed baseline
//! (`"unchanged"`) or exceeds it (`"new"` — the same bucket-level
//! granularity the gate itself uses). SARIF viewers (GitHub code
//! scanning, VS Code SARIF explorer) can then filter on exactly the
//! findings that made the gate fail.

use crate::baseline::{bucket, Baseline};
use crate::diag::{json_escape, Finding};
use crate::rules::RULES;
use std::fmt::Write as _;

/// Index of a finding's rule in [`RULES`], its SARIF `ruleIndex`.
fn rule_index(f: &Finding) -> usize {
    RULES
        .iter()
        .position(|r| r.id == f.rule)
        .expect("invariant: every finding comes from a rule in RULES")
}

/// Renders findings as a SARIF 2.1.0 document. `accepted` is the
/// committed baseline used to mark each result `"unchanged"` (its
/// bucket is within the ratchet) or `"new"` (its bucket exceeds it —
/// the findings that fail the gate). Output is byte-deterministic for
/// sorted findings.
#[must_use]
pub fn render_sarif(findings: &[Finding], accepted: &Baseline) -> String {
    let fresh = bucket(findings);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n");
    out.push_str("    {\n");
    out.push_str("      \"tool\": {\n");
    out.push_str("        \"driver\": {\n");
    out.push_str("          \"name\": \"hb-analyze\",\n");
    out.push_str("          \"informationUri\": \"https://example.org/hyper-butterfly\",\n");
    out.push_str("          \"version\": \"0.1.0\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        let _ = writeln!(
            out,
            "            {{\"id\": \"{}\", \"name\": \"{}\", \
             \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"{}\"}}}}{}",
            r.id,
            r.name,
            json_escape(r.short),
            r.level.label(),
            if i + 1 < RULES.len() { "," } else { "" }
        );
    }
    out.push_str("          ]\n");
    out.push_str("        }\n");
    out.push_str("      },\n");
    out.push_str("      \"columnKind\": \"utf16CodeUnits\",\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let over = fresh
            .get(&(f.rule.to_string(), f.file.clone()))
            .copied()
            .unwrap_or(0)
            > accepted
                .get(&(f.rule.to_string(), f.file.clone()))
                .copied()
                .unwrap_or(0);
        let state = if over { "new" } else { "unchanged" };
        out.push_str("        {\n");
        let _ = writeln!(out, "          \"ruleId\": \"{}\",", f.rule);
        let _ = writeln!(out, "          \"ruleIndex\": {},", rule_index(f));
        let _ = writeln!(out, "          \"level\": \"{}\",", f.severity.label());
        let _ = writeln!(
            out,
            "          \"message\": {{\"text\": \"{}\"}},",
            json_escape(&f.message)
        );
        let _ = writeln!(out, "          \"baselineState\": \"{state}\",");
        out.push_str("          \"locations\": [\n");
        out.push_str("            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        let _ = writeln!(
            out,
            "                \"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"SRCROOT\"}},",
            json_escape(&f.file)
        );
        let _ = writeln!(
            out,
            "                \"region\": {{\"startLine\": {}, \"snippet\": {{\"text\": \"{}\"}}}}",
            f.line,
            json_escape(&f.snippet)
        );
        out.push_str("              }\n");
        out.push_str("            }\n");
        out.push_str("          ]\n");
        let _ = writeln!(
            out,
            "        }}{}",
            if i + 1 < findings.len() { "," } else { "" }
        );
    }
    out.push_str("      ]\n");
    out.push_str("    }\n");
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::diag::Severity;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            name: "hash-order",
            severity: Severity::Error,
            file: file.into(),
            line,
            message: "msg with \"quotes\"".into(),
            snippet: "let x = 1;".into(),
        }
    }

    #[test]
    fn rules_table_is_id_sorted_and_unique() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "RULES must stay id-sorted and duplicate-free");
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let s = render_sarif(&[finding("D1", "a.rs", 3)], &Baseline::new());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"hb-analyze\""));
        assert!(s.contains("\"id\": \"A1\""));
        assert!(s.contains("\"ruleId\": \"D1\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(s.contains("\\\"quotes\\\""));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn baseline_state_marks_accepted_buckets_unchanged() {
        let fs = vec![finding("D1", "a.rs", 3), finding("D1", "b.rs", 7)];
        let accepted = baseline::parse("D1 a.rs 1\n").unwrap();
        let s = render_sarif(&fs, &accepted);
        let states: Vec<&str> = s
            .lines()
            .filter(|l| l.contains("baselineState"))
            .map(str::trim)
            .collect();
        assert_eq!(
            states,
            [
                "\"baselineState\": \"unchanged\",",
                "\"baselineState\": \"new\","
            ]
        );
    }

    #[test]
    fn empty_findings_render_an_empty_results_array() {
        let s = render_sarif(&[], &Baseline::new());
        assert!(s.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn deterministic_across_calls() {
        let fs = vec![finding("D1", "a.rs", 3)];
        assert_eq!(
            render_sarif(&fs, &Baseline::new()),
            render_sarif(&fs, &Baseline::new())
        );
    }
}
