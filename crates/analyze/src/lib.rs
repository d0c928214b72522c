//! # hb-analyze — determinism & safety linter for the workspace
//!
//! The sharded parallel engine (DESIGN.md §9) is byte-identical to the
//! serial engine only because the whole stack obeys invariants nothing
//! used to enforce: no iteration-order nondeterminism, no wall-clock
//! reads in simulation paths, canonical ordering everywhere, and a
//! panic discipline in library code. This crate machine-checks those
//! invariants with a **zero-dependency** static-analysis pass — a
//! hand-rolled, line-accurate Rust tokenizer ([`lexer`]), one scan over
//! its tokens for the scopes the rules need ([`scan`]: the line spans
//! of `#[cfg(test)]` items, and the hot fns with their loop bodies), a
//! rule engine ([`rules`]) and a baseline ratchet ([`baseline`]) —
//! because the build container cannot reach the crates registry, so
//! `syn`, `clippy_utils`, and friends are unavailable.
//!
//! The shipped rules ([`RULES`] holds each one's id, name and severity;
//! [`rules`] has their scopes):
//!
//! * **A1 `alloc-in-hot`** — allocation-capable calls inside the loop
//!   bodies of functions annotated `// analyze: hot(<reason>)`, the
//!   static mirror of the counting-allocator test
//!   `crates/netsim/tests/alloc_free.rs`;
//! * **C1 `narrowing-cast`** — `as` casts that can truncate between
//!   integer types in library code;
//! * **D1 `hash-order`** — no `HashMap`/`HashSet` in deterministic
//!   crates (netsim, distributed, telemetry, core, analyze);
//! * **D2 `wall-clock`** — no `Instant::now`/`SystemTime` in any
//!   library code (wall-clock measurement lives in `perfbench/` and
//!   tests);
//! * **D3 `rng`** — no ambient randomness in library code;
//! * **D4 `float-determinism`** — no `f32`/`f64` in netsim/distributed/
//!   telemetry library code (order-dependent float sums break byte
//!   identity) outside explicitly allowlisted quantile math;
//! * **D5 `unstable-order`** — no keyed sorts with potentially-
//!   duplicate keys, and no hash-table machinery reached by module
//!   path;
//! * **H1 `stale-allow`** — every `// analyze: allow(…)` must still
//!   suppress at least one finding;
//! * **S1 `unsafe-forbid`** — every crate root carries
//!   `#![forbid(unsafe_code)]`;
//! * **P1 `panic-policy`** — no `unwrap()`/undocumented `expect()`/
//!   `panic!` in netsim/telemetry/distributed/analyze library code.
//!
//! Violations are suppressed per line with
//! `// analyze: allow(<rule-name>, <reason>)`, and pre-existing debt is
//! accepted via the committed `analyze-baseline.txt` so the gate fails
//! only on *new* findings. Reports render as human text, JSON lines, or
//! SARIF 2.1.0 ([`sarif`]). Drive it as `hbnet analyze` (DESIGN.md §10,
//! §14).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod scan;
pub mod walk;

pub use diag::{render_human, render_jsonl, Finding, Severity};
pub use rules::{analyze_file, classify, RULES};
pub use sarif::render_sarif;

use std::io;
use std::path::Path;

/// File name of the committed ratchet, resolved relative to the
/// analysis root.
pub const BASELINE_FILE: &str = "analyze-baseline.txt";

/// Analyzes every `.rs` file under `root` (workspace layout assumed:
/// `crates/<name>/src`, root `src/`, …) and returns the findings in
/// canonical `(file, line, rule)` order.
pub fn analyze_root(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (rel, path) in walk::collect_rs_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        findings.extend(rules::analyze_file(&rel, &src));
    }
    diag::sort(&mut findings);
    Ok(findings)
}
