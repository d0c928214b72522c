//! The rule engine: file classification, `#[cfg(test)]` masking and
//! hot fns from the scope scan ([`crate::scan`]), allow-comment parsing
//! with stale detection, and the shipped rules, each listed once in
//! [`RULES`].
//!
//! | id | name             | scope                                        | what |
//! |----|------------------|----------------------------------------------|------|
//! | A1 | `alloc-in-hot`   | loop bodies of `// analyze: hot(…)` fns; the whole body of one with no loop | allocation-capable calls (`collect`, `clone`, `to_vec`, `format!`, `vec!`, `Box::new`, `Vec::new`, `VecDeque::new`) |
//! | C1 | `narrowing-cast` | all library code                             | `as` casts to `u8`/`u16`/`u32`/`i8`/`i16`/`i32` (can truncate) |
//! | D1 | `hash-order`     | library code of the deterministic crates     | `HashMap`/`HashSet` (random iteration order) |
//! | D2 | `wall-clock`     | all library code                             | `Instant::now` / `SystemTime` |
//! | D3 | `rng`            | all library code                             | ambient randomness (`thread_rng`, …) |
//! | D4 | `float-determinism` | library code of netsim/distributed/telemetry | `f32`/`f64` types and float literals (order-dependent rounding) |
//! | D5 | `unstable-order` | library code of the deterministic crates     | keyed sorts with potentially-duplicate keys; hash-module paths that dodge D1 |
//! | H1 | `stale-allow`    | all library code                             | `// analyze: allow(…)` that suppresses zero findings |
//! | P1 | `panic-policy`   | library code of netsim/telemetry/distributed/analyze | `unwrap()`, undocumented `expect`, `panic!` |
//! | S1 | `unsafe-forbid`  | every crate root                             | missing `#![forbid(unsafe_code)]` |
//!
//! Any finding except H1 can be suppressed per line with
//! `// analyze: allow(<name>, <reason>)` — same line, or a comment
//! standing alone on the line above. An allow that suppresses nothing
//! is itself the H1 finding, so paid-down debt cannot leave dead
//! suppressions behind. `expect` calls whose message starts with
//! `invariant:` are self-documenting and never flagged.
//!
//! Hot functions are declared with `// analyze: hot(<reason>)` directly
//! above the `fn` item (doc comments and attributes may intervene); the
//! scan resolves the annotation, the function span, and its loop
//! bodies. A1 checks only those loop bodies, or the whole function when
//! it has no loop.

use crate::diag::{Finding, Severity};
use crate::lexer::{lex, Tok, TokKind};
use crate::scan::scan;

/// Static metadata for one rule: what every finding of it carries, and
/// its entry in the SARIF `tool.driver.rules` array.
pub struct RuleMeta {
    /// Short id (`A1`, `D4`, …) — `ruleId` in SARIF results.
    pub id: &'static str,
    /// Name as used in allow-comments (`alloc-in-hot`, …).
    pub name: &'static str,
    /// One-line description.
    pub short: &'static str,
    /// Default severity.
    pub level: Severity,
}

impl RuleMeta {
    /// A finding of this rule at `file:line`, quoting the line.
    fn finding(&self, file: &str, line: u32, message: String, lines: &[&str]) -> Finding {
        Finding {
            rule: self.id,
            name: self.name,
            severity: self.level,
            file: file.to_string(),
            line,
            message,
            snippet: snippet(lines, line),
        }
    }
}

/// Every shipped rule in fixed (id-sorted) order. SARIF results index
/// into this table, so the order is part of the byte-golden contract.
pub const RULES: &[RuleMeta] = &[A1, C1, D1, D2, D3, D4, D5, H1, P1, S1];

const A1: RuleMeta = RuleMeta {
    id: "A1",
    name: "alloc-in-hot",
    short: "allocation-capable call inside a loop of a `// analyze: hot(…)` function",
    level: Severity::Error,
};
const C1: RuleMeta = RuleMeta {
    id: "C1",
    name: "narrowing-cast",
    short: "`as` cast that can truncate between integer types in library code",
    level: Severity::Warning,
};
const D1: RuleMeta = RuleMeta {
    id: "D1",
    name: "hash-order",
    short: "HashMap/HashSet in a deterministic crate (randomized iteration order)",
    level: Severity::Error,
};
const D2: RuleMeta = RuleMeta {
    id: "D2",
    name: "wall-clock",
    short: "wall-clock read in library code (simulation time is logical)",
    level: Severity::Error,
};
const D3: RuleMeta = RuleMeta {
    id: "D3",
    name: "rng",
    short: "ambient randomness in library code (seed explicitly)",
    level: Severity::Error,
};
const D4: RuleMeta = RuleMeta {
    id: "D4",
    name: "float-determinism",
    short: "f32/f64 in float-free library code (order-dependent rounding)",
    level: Severity::Error,
};
const D5: RuleMeta = RuleMeta {
    id: "D5",
    name: "unstable-order",
    short: "keyed sort with potentially-duplicate keys, or hash machinery dodging D1",
    level: Severity::Error,
};
const H1: RuleMeta = RuleMeta {
    id: "H1",
    name: "stale-allow",
    short: "`// analyze: allow(…)` comment that suppresses zero findings",
    level: Severity::Warning,
};
const P1: RuleMeta = RuleMeta {
    id: "P1",
    name: "panic-policy",
    short: "unwrap()/undocumented expect()/panic! in library code under the panic policy",
    level: Severity::Warning,
};
const S1: RuleMeta = RuleMeta {
    id: "S1",
    name: "unsafe-forbid",
    short: "crate root missing #![forbid(unsafe_code)]",
    level: Severity::Error,
};

/// Crates whose library code must be iteration-order deterministic
/// (D1, D5). `analyze` is in the list because its own reports are
/// byte-golden.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["netsim", "distributed", "telemetry", "core", "analyze"];

/// Crates whose library code is under the panic policy (P1).
pub const PANIC_POLICY_CRATES: &[&str] = &["netsim", "telemetry", "distributed", "analyze"];

/// Crates whose library code must stay float-free (D4): order-dependent
/// float sums are a byte-identity hazard the sharded engine cannot
/// tolerate. Telemetry's quantile/mean math is in scope and carries
/// explicit allow-comments.
pub const FLOAT_FREE_CRATES: &[&str] = &["netsim", "distributed", "telemetry"];

/// Cast targets that can truncate (C1). `u64`/`i64`/`usize`/`isize`
/// are exempt: in this workspace they only ever widen from the dense
/// `u32` node/channel ids.
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Method names that allocate (A1) when called inside a hot loop.
const ALLOC_METHODS: &[&str] = &["collect", "clone", "to_vec"];

/// `Type::new` pairs that allocate or signal per-iteration container
/// churn (A1).
const ALLOC_CTORS: &[&str] = &["Box", "Vec", "VecDeque"];

/// Where a file sits in the workspace, derived purely from its
/// workspace-relative path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/<name>/…` → `Some(name)`; the root package → `None`.
    pub crate_name: Option<String>,
    /// Under a `src/` tree (as opposed to `tests/`, `examples/`,
    /// `benches/`).
    pub is_library: bool,
    /// A test, example, or bench target — exempt from every rule.
    pub is_test_target: bool,
    /// `src/lib.rs`, `src/main.rs`, or `src/bin/*.rs` — the files that
    /// must carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
}

/// Classifies a workspace-relative path (always `/`-separated).
#[must_use]
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (Option<String>, &[&str]) = if parts.len() >= 3 && parts[0] == "crates"
    {
        (Some(parts[1].to_string()), &parts[2..])
    } else {
        (None, &parts[..])
    };
    let in_src = rest.first() == Some(&"src");
    let is_test_target = matches!(
        rest.first(),
        Some(&"tests") | Some(&"examples") | Some(&"benches")
    );
    let is_crate_root = in_src
        && (rest == ["src", "lib.rs"]
            || rest == ["src", "main.rs"]
            || (rest.len() == 3 && rest[1] == "bin" && rest[2].ends_with(".rs")));
    FileClass {
        crate_name,
        is_library: in_src,
        is_test_target,
        is_crate_root,
    }
}

/// One `analyze: allow(<rule>, <reason>)` comment.
#[derive(Debug)]
struct AllowComment {
    /// Line the comment sits on.
    line: u32,
    /// Rule *name* it suppresses.
    rule: String,
    /// A comment standing alone on its line also covers the next line.
    standalone: bool,
}

impl AllowComment {
    fn covers(&self, line: u32, name: &str) -> bool {
        self.rule == name && (line == self.line || (self.standalone && line == self.line + 1))
    }
}

/// `true` for doc comments (`///`, `//!`, `/** */`, `/*! */`), which
/// never carry annotations — prose *describing* the grammar must not
/// activate it.
pub(crate) fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Parses `analyze: allow(<rule>, <reason>)` out of every plain
/// comment token (doc comments are prose, not annotations). A missing
/// or empty reason voids the allow — justifications are the point.
fn collect_allows(toks: &[Tok]) -> Vec<AllowComment> {
    let mut code_lines: Vec<u32> = toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .map(|t| t.line)
        .collect();
    code_lines.sort_unstable();
    code_lines.dedup();
    let mut allows = Vec::new();
    for t in toks {
        if t.kind != TokKind::Comment || is_doc_comment(&t.text) {
            continue;
        }
        let Some(at) = t.text.find("analyze: allow(") else {
            continue;
        };
        let args = &t.text[at + "analyze: allow(".len()..];
        let Some(close) = args.rfind(')') else {
            continue;
        };
        let args = &args[..close];
        let (rule, reason) = match args.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (args.trim(), ""),
        };
        if rule.is_empty() || reason.is_empty() {
            continue;
        }
        allows.push(AllowComment {
            line: t.line,
            rule: rule.to_string(),
            standalone: !code_lines.contains(&t.line),
        });
    }
    allows
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// The raw source line, trimmed and bounded, for diagnostics.
fn snippet(lines: &[&str], line: u32) -> String {
    let s = lines
        .get(line as usize - 1)
        .map_or("", |l| l.trim())
        .to_string();
    if s.len() > 160 {
        let mut end = 157;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &s[..end])
    } else {
        s
    }
}

/// `true` for a numeric token that is a float literal (`0.5`, `1e9`,
/// `2f64`) as opposed to an integer (`10`, `0x6A09_E667`, `1_000u64`).
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x")
        || text.starts_with("0X")
        || text.starts_with("0b")
        || text.starts_with("0o")
    {
        return false;
    }
    if text.contains('.') || text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    // Exponent form: the lexer folds `1e9` into one token (and `1e-3`
    // stops at the sign, leaving `1e` — still only valid as a float).
    text.contains('e')
        && text
            .chars()
            .all(|c| c.is_ascii_digit() || c == '_' || c == 'e')
}

/// Runs every rule over one file. `rel` is the workspace-relative path
/// (`/`-separated); `src` is the file contents.
#[must_use]
pub fn analyze_file(rel: &str, src: &str) -> Vec<Finding> {
    let class = classify(rel);
    if class.is_test_target {
        return Vec::new();
    }
    let toks = lex(src);
    let scopes = scan(&toks);
    let test_spans = &scopes.test_spans;
    let allows = collect_allows(&toks);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let lines: Vec<&str> = src.lines().collect();

    // Findings are collected *before* allow filtering so stale allows
    // (H1) can be detected afterwards.
    let mut findings = Vec::new();
    let mut push = |rule: &RuleMeta, line: u32, message: String| {
        if !in_spans(test_spans, line) {
            findings.push(rule.finding(rel, line, message, &lines));
        }
    };

    let crate_label = class.crate_name.as_deref().unwrap_or("the root package");

    // S1 unsafe-forbid: crate roots must carry #![forbid(unsafe_code)].
    if class.is_crate_root {
        let has_forbid = code
            .windows(3)
            .any(|w| w[0].is_ident("forbid") && w[1].is_punct('(') && w[2].is_ident("unsafe_code"));
        if !has_forbid {
            push(
                &S1,
                1,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }

    if class.is_library {
        let deterministic = class
            .crate_name
            .as_deref()
            .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
        let panic_scope = class
            .crate_name
            .as_deref()
            .is_some_and(|c| PANIC_POLICY_CRATES.contains(&c));
        let float_free = class
            .crate_name
            .as_deref()
            .is_some_and(|c| FLOAT_FREE_CRATES.contains(&c));
        // D4 fires at most once per source line: one `x as f64 / y as
        // f64` expression is one hazard, not four.
        let mut d4_last_line = 0u32;

        for (i, t) in code.iter().enumerate() {
            // D1 hash-order.
            if deterministic && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
                push(
                    &D1,
                    t.line,
                    format!(
                        "`{}` in deterministic crate `{crate_label}`: iteration order is \
                         randomized per process; use `BTreeMap`/`BTreeSet`, an index-keyed \
                         `Vec`, or justify with `// analyze: allow(hash-order, <why>)`",
                        t.text
                    ),
                );
            }

            // D2 wall-clock.
            let instant_now = t.is_ident("Instant")
                && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && code.get(i + 3).is_some_and(|t| t.is_ident("now"));
            if instant_now || t.is_ident("SystemTime") {
                push(
                    &D2,
                    t.line,
                    "wall-clock read in library code: simulation time is logical; \
                     wall-clock measurement lives in `perfbench/` and tests"
                        .to_string(),
                );
            }

            // D3 rng.
            if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng") {
                push(
                    &D3,
                    t.line,
                    format!(
                        "ambient randomness (`{}`) in library code: seed explicitly \
                         (`StdRng::seed_from_u64`) so every run is reproducible",
                        t.text
                    ),
                );
            }

            // D4 float-determinism.
            if float_free && t.line != d4_last_line {
                let float_type = t.is_ident("f32") || t.is_ident("f64");
                let float_lit = t.kind == TokKind::Num && is_float_literal(&t.text);
                if float_type || float_lit {
                    d4_last_line = t.line;
                    push(
                        &D4,
                        t.line,
                        format!(
                            "float ({}) in library code of `{crate_label}`: float sums are \
                             order-dependent, a byte-identity hazard for the sharded engine; \
                             keep state integral (counts, log-bucketed histograms) or justify \
                             with `// analyze: allow(float-determinism, <why>)`",
                            t.text
                        ),
                    );
                }
            }

            // D5 unstable-order.
            if deterministic {
                let dotted = i > 0 && code[i - 1].is_punct('.');
                if dotted && (t.is_ident("sort_unstable_by") || t.is_ident("sort_unstable_by_key"))
                {
                    push(
                        &D5,
                        t.line,
                        format!(
                            "`{}` in deterministic crate `{crate_label}`: equal keys end up \
                             in unspecified relative order; sort by the full element \
                             (`sort_unstable`) or use the stable `sort_by`/`sort_by_key` \
                             over a canonical prior order",
                            t.text
                        ),
                    );
                }
                if dotted && t.is_ident("sort_by_key") {
                    push(
                        &D5,
                        t.line,
                        "`sort_by_key` in a deterministic crate: ties keep their prior \
                         order, so on potentially-duplicate keys the result is only as \
                         deterministic as that order; sort by the full element, prove the \
                         key unique, or justify with \
                         `// analyze: allow(unstable-order, <why>)`"
                            .to_string(),
                    );
                }
                // Hash-module paths and hasher types dodge D1's
                // `HashMap`/`HashSet` identifier check.
                let hash_module = t.is_ident("collections")
                    && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && code
                        .get(i + 3)
                        .is_some_and(|t| t.is_ident("hash_map") || t.is_ident("hash_set"));
                if hash_module || t.is_ident("RandomState") || t.is_ident("DefaultHasher") {
                    push(
                        &D5,
                        t.line,
                        "hash-table machinery referenced by module path in a deterministic \
                         crate: randomized hashing reaches iteration order even when the \
                         `HashMap` identifier never appears; use ordered containers"
                            .to_string(),
                    );
                }
            }

            // C1 narrowing-cast.
            if t.is_ident("as")
                && code
                    .get(i + 1)
                    .is_some_and(|n| NARROWING_TARGETS.contains(&n.text.as_str()))
            {
                let target = &code[i + 1].text;
                push(
                    &C1,
                    t.line,
                    format!(
                        "`as {target}` can silently truncate: use \
                         `{target}::try_from(x).expect(\"invariant: …\")` (or `{target}::from` \
                         when lossless), or justify with \
                         `// analyze: allow(narrowing-cast, <why>)`",
                    ),
                );
            }

            // P1 panic-policy.
            if panic_scope {
                let dotted = i > 0 && code[i - 1].is_punct('.');
                if dotted
                    && t.is_ident("unwrap")
                    && code.get(i + 1).is_some_and(|t| t.is_punct('('))
                {
                    push(
                        &P1,
                        t.line,
                        "`unwrap()` in library code: return a typed error, or document \
                         the invariant with `expect(\"invariant: …\")`"
                            .to_string(),
                    );
                }
                if dotted
                    && t.is_ident("expect")
                    && code.get(i + 1).is_some_and(|t| t.is_punct('('))
                {
                    let documented = code
                        .get(i + 2)
                        .and_then(|t| t.str_content())
                        .is_some_and(|m| m.starts_with("invariant:"));
                    if !documented {
                        push(
                            &P1,
                            t.line,
                            "undocumented `expect()` in library code: state the invariant \
                             (`expect(\"invariant: …\")`) or return a typed error"
                                .to_string(),
                        );
                    }
                }
                if t.is_ident("panic") && code.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                    push(
                        &P1,
                        t.line,
                        "`panic!` in library code: return a typed error, or justify with \
                         `// analyze: allow(panic-policy, <why>)`"
                            .to_string(),
                    );
                }
            }
        }

        // A1 alloc-in-hot: allocation-capable calls inside the loop
        // bodies of functions annotated hot, or anywhere in a hot fn
        // that has no loop.
        for hot in &scopes.hot_fns {
            if in_spans(test_spans, hot.span.0) {
                continue;
            }
            let whole = [hot.span];
            let (region, place, unit) = if hot.loops.is_empty() {
                (&whole[..], "", "fn")
            } else {
                (&hot.loops[..], "a loop of ", "loop")
            };
            for (i, t) in code.iter().enumerate() {
                if !in_spans(region, t.line) {
                    continue;
                }
                let dotted = i > 0 && code[i - 1].is_punct('.');
                let method = dotted && ALLOC_METHODS.contains(&t.text.as_str());
                let bang = code.get(i + 1).is_some_and(|n| n.is_punct('!'));
                let mac = bang && (t.is_ident("format") || t.is_ident("vec"));
                let ctor = ALLOC_CTORS.contains(&t.text.as_str())
                    && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && code.get(i + 3).is_some_and(|n| n.is_ident("new"));
                if method || mac || ctor {
                    let what = if ctor {
                        format!("{}::new", t.text)
                    } else if mac {
                        format!("{}!", t.text)
                    } else {
                        t.text.clone()
                    };
                    push(
                        &A1,
                        t.line,
                        format!(
                            "`{what}` inside {place}hot fn `{}` (hot: {}): hot {unit}s \
                             must stay allocation-free at steady state (the counting-\
                             allocator test `crates/netsim/tests/alloc_free.rs` enforces \
                             this dynamically); hoist the allocation out of the {unit} or \
                             justify with `// analyze: allow(alloc-in-hot, <why>)`",
                            hot.name, hot.reason
                        ),
                    );
                }
            }
        }
    }

    // Apply allow-comments, tracking which ones actually suppressed
    // something.
    let mut used = vec![false; allows.len()];
    findings.retain(
        |f| match allows.iter().position(|a| a.covers(f.line, f.name)) {
            Some(idx) => {
                used[idx] = true;
                false
            }
            None => true,
        },
    );

    // H1 stale-allow: an allow that suppressed nothing is dead debt
    // paperwork. Only meaningful where rules actually ran (library
    // code, outside #[cfg(test)] subtrees). H1 itself cannot be
    // allow-suppressed — that would just recurse.
    if class.is_library {
        for (a, &was_used) in allows.iter().zip(&used) {
            if was_used || in_spans(test_spans, a.line) {
                continue;
            }
            let message = format!(
                "`allow({})` suppresses no finding: the debt it justified is gone; \
                 delete the comment so a future regression cannot hide behind it",
                a.rule
            );
            findings.push(H1.finding(rel, a.line, message, &lines));
        }
    }

    crate::diag::sort(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        analyze_file(rel, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_paths() {
        let c = classify("crates/netsim/src/sim.rs");
        assert_eq!(c.crate_name.as_deref(), Some("netsim"));
        assert!(c.is_library && !c.is_test_target && !c.is_crate_root);
        assert!(classify("crates/netsim/src/lib.rs").is_crate_root);
        assert!(classify("crates/cli/src/main.rs").is_crate_root);
        assert!(classify("crates/bench/src/bin/run_all.rs").is_crate_root);
        assert!(classify("src/lib.rs").is_crate_root);
        assert!(classify("crates/netsim/tests/par_equiv.rs").is_test_target);
        assert!(classify("examples/quickstart.rs").is_test_target);
        assert_eq!(classify("src/lib.rs").crate_name, None);
    }

    #[test]
    fn d1_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_hit("crates/netsim/src/x.rs", src), ["D1"]);
        assert_eq!(rules_hit("crates/graphs/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn d1_respects_allow_comment_same_line_and_above() {
        let same = "use std::collections::HashMap; // analyze: allow(hash-order, interned ids)\n";
        assert!(rules_hit("crates/core/src/x.rs", same).is_empty());
        let above = "// analyze: allow(hash-order, interned ids)\nuse std::collections::HashMap;\n";
        assert!(rules_hit("crates/core/src/x.rs", above).is_empty());
        let unjustified = "use std::collections::HashMap; // analyze: allow(hash-order)\n";
        assert_eq!(rules_hit("crates/core/src/x.rs", unjustified), ["D1"]);
        let wrong_rule = "use std::collections::HashMap; // analyze: allow(rng, why)\n";
        assert_eq!(rules_hit("crates/core/src/x.rs", wrong_rule), ["D1", "H1"]);
    }

    #[test]
    fn d2_flags_instant_now_everywhere_but_not_duration() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_hit("crates/graphs/src/x.rs", src), ["D2"]);
        // No library file is exempt, the bench crate's included.
        assert_eq!(rules_hit("crates/bench/src/perf.rs", src), ["D2"]);
        // An `Instant` that is merely named (no ::now) is a value being
        // passed around, not a clock read.
        let named = "fn f(t: Instant) -> Duration { t.elapsed() }\n";
        assert!(rules_hit("crates/graphs/src/x.rs", named).is_empty());
        let sys = "use std::time::SystemTime;\n";
        assert_eq!(rules_hit("crates/graphs/src/x.rs", sys), ["D2"]);
    }

    #[test]
    fn d3_flags_ambient_randomness() {
        assert_eq!(
            rules_hit(
                "crates/graphs/src/x.rs",
                "let mut r = rand::thread_rng();\n"
            ),
            ["D3"]
        );
        assert!(rules_hit(
            "crates/graphs/src/x.rs",
            "let mut r = StdRng::seed_from_u64(42);\n"
        )
        .is_empty());
    }

    #[test]
    fn s1_requires_forbid_in_crate_roots_only() {
        assert_eq!(
            rules_hit("crates/foo/src/lib.rs", "pub fn f() {}\n"),
            ["S1"]
        );
        assert!(rules_hit(
            "crates/foo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
        assert!(rules_hit("crates/foo/src/other.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn p1_flags_unwrap_expect_panic_in_scope() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_hit("crates/netsim/src/x.rs", src), ["P1"]);
        assert!(rules_hit("crates/graphs/src/x.rs", src).is_empty());
        let undocumented = "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }\n";
        assert_eq!(rules_hit("crates/telemetry/src/x.rs", undocumented), ["P1"]);
        let documented = "fn f(x: Option<u32>) -> u32 { x.expect(\"invariant: set by caller\") }\n";
        assert!(rules_hit("crates/telemetry/src/x.rs", documented).is_empty());
        let bang = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(rules_hit("crates/distributed/src/x.rs", bang), ["P1"]);
        let allowed = "fn f() { panic!(\"boom\"); } // analyze: allow(panic-policy, demo)\n";
        assert!(rules_hit("crates/distributed/src/x.rs", allowed).is_empty());
        // unwrap_or_else / unwrap_or are fine: they do not panic.
        let or_else = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", or_else).is_empty());
    }

    #[test]
    fn p1_covers_the_analyze_crate_itself() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_hit("crates/analyze/src/x.rs", src), ["P1"]);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "pub fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       #[test]\n\
                       fn t() { let x: Option<u32> = None; x.unwrap(); panic!(\"ok\"); }\n\
                   }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_cfg_test_mod_is_exempt() {
        // A test mod nested inside a live mod: the v1 line heuristic
        // got this right only when the test mod was last in the file.
        let src = "pub mod live {\n\
                       pub fn f() {}\n\
                       #[cfg(test)]\n\
                       mod tests {\n\
                           use std::collections::HashMap;\n\
                           fn t(x: Option<u32>) -> u32 { x.unwrap() }\n\
                       }\n\
                       pub fn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   }\n\
                   pub fn after(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_hit("crates/netsim/src/x.rs", src), ["P1"]);
    }

    #[test]
    fn code_after_cfg_test_module_is_still_checked() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn t() {}\n\
                   }\n\
                   pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_hit("crates/netsim/src/x.rs", src), ["P1"]);
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = "// HashMap Instant::now thread_rng unwrap()\n\
                   fn f() -> &'static str { \"HashMap.unwrap() panic! SystemTime\" }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn doc_comment_examples_never_trigger() {
        let src = "/// ```\n\
                   /// let hb = HyperButterfly::new(1, 3).unwrap();\n\
                   /// ```\n\
                   pub fn f() {}\n";
        assert!(rules_hit("crates/distributed/src/x.rs", src).is_empty());
    }

    // ---- analyzer v2 rules -------------------------------------------

    #[test]
    fn a1_flags_allocs_in_hot_loops_only() {
        let hot_loop = "// analyze: hot(per-cycle service loop)\n\
                        fn service(v: &[u32]) {\n\
                            for x in v {\n\
                                let _ = v.to_vec();\n\
                                let _ = x.clone();\n\
                            }\n\
                        }\n";
        assert_eq!(rules_hit("crates/netsim/src/x.rs", hot_loop), ["A1", "A1"]);
        // Same code, no annotation: silent.
        let cold = "fn service(v: &[u32]) { for _x in v { let _ = v.to_vec(); } }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", cold).is_empty());
        // Setup allocation *before* the loop in a hot fn is fine.
        let hoisted = "// analyze: hot(cycle loop)\n\
                       fn service(v: &[u32]) {\n\
                           let mut scratch = v.to_vec();\n\
                           for x in v {\n\
                               scratch.push(*x);\n\
                           }\n\
                       }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", hoisted).is_empty());
    }

    #[test]
    fn a1_checks_the_whole_body_of_a_hot_fn_without_a_loop() {
        let src = "// analyze: hot(per-packet lookup)\n\
                   fn get(v: &[u32]) -> Vec<u32> {\n\
                       v.to_vec()\n\
                   }\n";
        let findings = analyze_file("crates/netsim/src/x.rs", src);
        let a1: Vec<(u32, &str)> = findings
            .iter()
            .filter(|f| f.rule == "A1")
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        assert_eq!(a1.len(), 1);
        let (line, message) = a1[0];
        assert_eq!(line, 3);
        let lead = "`to_vec` inside hot fn `get` (hot: per-packet lookup): hot fns";
        assert!(message.starts_with(lead), "{message}");
    }

    #[test]
    fn a1_covers_ctors_and_macros() {
        let src = "// analyze: hot(drain loop)\n\
                   fn f(n: usize) {\n\
                       let mut i = 0;\n\
                       while i < n {\n\
                           let q: VecDeque<u32> = VecDeque::new();\n\
                           let b = Box::new(i);\n\
                           let v = vec![1, 2];\n\
                           let s = format!(\"{i}\");\n\
                           let _ = (q, b, v, s);\n\
                           i += 1;\n\
                       }\n\
                   }\n";
        let hits = rules_hit("crates/netsim/src/x.rs", src);
        assert_eq!(hits, ["A1", "A1", "A1", "A1"]);
    }

    #[test]
    fn a1_checks_a_hot_fn_that_opens_its_enclosing_body() {
        let drain = "// analyze: hot(per cycle)\n\
                     fn drain(&mut self) { for i in 0..4 { let v: Vec<u32> = vec![i]; let _ = v; } }\n";
        for open in ["impl Q {\n", "mod q {\n", "trait Q {\n", "fn outer() {\n"] {
            let src = format!("{open}{drain}}}\n");
            assert_eq!(rules_hit("crates/netsim/src/x.rs", &src), ["A1"], "{open}");
        }
    }

    #[test]
    fn cfg_test_item_after_inner_attributes_masks_from_its_own_line() {
        let src = "#![warn(missing_docs)]\n#[cfg(test)]\nmod tests {}\npub fn f() {}\n";
        assert_eq!(rules_hit("crates/netsim/src/lib.rs", src), ["S1"]);
    }

    #[test]
    fn a1_respects_allow_and_applies_anywhere_hot_is_annotated() {
        let src = "// analyze: hot(lookup)\n\
                   fn f(v: &[u32]) {\n\
                       for _x in v {\n\
                           let _ = v.to_vec(); // analyze: allow(alloc-in-hot, cold fault path)\n\
                       }\n\
                   }\n";
        assert!(rules_hit("crates/graphs/src/x.rs", src).is_empty());
    }

    #[test]
    fn d4_flags_floats_in_float_free_crates_once_per_line() {
        let src = "pub fn mean(a: u64, b: u64) -> f64 { a as f64 / b as f64 }\n";
        assert_eq!(rules_hit("crates/netsim/src/x.rs", src), ["D4"]);
        assert_eq!(rules_hit("crates/telemetry/src/x.rs", src), ["D4"]);
        assert!(rules_hit("crates/graphs/src/x.rs", src).is_empty());
        let lit = "const RATE: f64 = 0.25;\n";
        assert_eq!(rules_hit("crates/distributed/src/x.rs", lit), ["D4"]);
        let int_only = "pub fn sum(a: u64, b: u64) -> u64 { a + b }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", int_only).is_empty());
    }

    #[test]
    fn d4_float_literal_detection() {
        assert!(is_float_literal("0.5"));
        assert!(is_float_literal("1e9"));
        assert!(is_float_literal("1e"));
        assert!(is_float_literal("2f64"));
        assert!(is_float_literal("3f32"));
        assert!(!is_float_literal("10"));
        assert!(!is_float_literal("1_000"));
        assert!(!is_float_literal("0x6A09_E667"));
        assert!(!is_float_literal("0b1010"));
        assert!(!is_float_literal("2u64"));
    }

    #[test]
    fn d5_flags_keyed_sorts_and_hash_paths() {
        let unstable =
            "fn f(v: &mut Vec<(u32, u32)>) { v.sort_unstable_by(|a, b| a.0.cmp(&b.0)); }\n";
        assert_eq!(rules_hit("crates/netsim/src/x.rs", unstable), ["D5"]);
        let by_key = "fn f(v: &mut Vec<(u32, u32)>) { v.sort_by_key(|e| e.0); }\n";
        assert_eq!(rules_hit("crates/core/src/x.rs", by_key), ["D5"]);
        // Sorting by the full element is canonical and fine.
        let full = "fn f(v: &mut Vec<u32>) { v.sort_unstable(); v.sort(); }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", full).is_empty());
        // Out of the deterministic crates: no findings.
        assert!(rules_hit("crates/graphs/src/x.rs", unstable).is_empty());
        let path = "use std::collections::hash_map::Entry;\n";
        assert_eq!(rules_hit("crates/telemetry/src/x.rs", path), ["D5"]);
        let hasher = "use std::hash::RandomState;\n";
        assert_eq!(rules_hit("crates/core/src/x.rs", hasher), ["D5"]);
    }

    #[test]
    fn c1_flags_narrowing_casts_in_all_library_code() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(rules_hit("crates/graphs/src/x.rs", src), ["C1"]);
        assert_eq!(rules_hit("crates/netsim/src/x.rs", src), ["C1"]);
        // Widening and pointer-size casts are exempt.
        let widen = "fn f(x: u32) -> u64 { x as u64 }\nfn g(x: u32) -> usize { x as usize }\n";
        assert!(rules_hit("crates/graphs/src/x.rs", widen).is_empty());
        // try_from with a documented invariant is the sanctioned form.
        let tf = "fn f(x: u64) -> u32 { u32::try_from(x).expect(\"invariant: dense ids fit\") }\n";
        assert!(rules_hit("crates/graphs/src/x.rs", tf).is_empty());
        let allowed =
            "fn f(x: u64) -> u32 { x as u32 } // analyze: allow(narrowing-cast, checked above)\n";
        assert!(rules_hit("crates/graphs/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn h1_flags_stale_allows_but_not_working_or_test_ones() {
        // Working allow: no H1.
        let working = "use std::collections::HashMap; // analyze: allow(hash-order, interned)\n";
        assert!(rules_hit("crates/core/src/x.rs", working).is_empty());
        // Stale allow: the violation is gone, the comment remains.
        let stale = "use std::collections::BTreeMap; // analyze: allow(hash-order, interned)\n";
        assert_eq!(rules_hit("crates/core/src/x.rs", stale), ["H1"]);
        // Stale allows inside #[cfg(test)] are scaffolding, not debt.
        let in_test = "pub fn f() {}\n\
                       #[cfg(test)]\n\
                       mod tests {\n\
                           // analyze: allow(hash-order, test only)\n\
                           fn t() {}\n\
                       }\n";
        assert!(rules_hit("crates/core/src/x.rs", in_test).is_empty());
        // Non-library files never report H1 (no rules ran).
        let outside = "// analyze: allow(hash-order, nothing here)\nfn f() {}\n";
        assert!(rules_hit("crates/foo/build.rs", outside).is_empty());
    }

    #[test]
    fn doc_comments_describing_the_grammar_are_not_annotations() {
        // Prose like this module's own docs must neither create a hot
        // fn nor register a (stale) allow.
        let src = "/// Suppress with `// analyze: allow(hash-order, <why>)`.\n\
                   /// Mark hot with `// analyze: hot(<reason>)`.\n\
                   pub fn documented(v: &[u32]) { for _ in v { let _ = v.to_vec(); } }\n";
        assert!(rules_hit("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn h1_standalone_allow_covering_next_line_counts_as_used() {
        let src = "// analyze: allow(hash-order, interned ids)\nuse std::collections::HashMap;\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }
}
