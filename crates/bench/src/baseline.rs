//! Bench regression gate: a committed performance baseline plus a
//! comparator with per-metric relative tolerances.
//!
//! [`Baseline::collect`] runs a fixed, seeded subset of the experiment
//! harness — the uniform-rate sweep and hotspot run from [`netsim_exp`],
//! the protocol table from [`distributed_exp`], and the engine counters
//! from [`perf`] — and records one `f64` per metric per experiment.
//! [`Baseline::to_json`] renders it as deterministic, diff-friendly JSON
//! (`BENCH_baseline.json` at the repo root is produced this way);
//! [`Baseline::parse`] reads that subset of JSON back without any
//! external parser dependency. A fresh run is gated against the stored
//! file with [`Baseline::compare`]: every metric whose relative drift
//! exceeds [`default_tolerance`] becomes a [`Drift`] row, and
//! `hbnet bench --check` exits non-zero when any exist.
//!
//! Everything here is deterministic — same `cycles` and `seed` produce
//! byte-identical JSON — so a freshly written baseline always passes its
//! own check exactly, and any reported drift reflects a real behavioural
//! change in the simulator or the protocols.
//!
//! [`netsim_exp`]: crate::netsim_exp
//! [`distributed_exp`]: crate::distributed_exp
//! [`perf`]: crate::perf

use crate::{distributed_exp, netsim_exp, perf};
use hb_graphs::Result;
use hb_telemetry::sink::json_escape;
use std::collections::BTreeMap;

/// Schema version stamped into the JSON; bump when keys change meaning.
pub const BASELINE_VERSION: u64 = 1;

/// Metrics of one experiment, keyed by metric name.
pub type Metrics = BTreeMap<String, f64>;

/// A collected (or parsed) performance baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Schema version (see [`BASELINE_VERSION`]).
    pub version: u64,
    /// Injection cycles the netsim experiments ran for.
    pub cycles: u64,
    /// Workload seed.
    pub seed: u64,
    /// Experiment key (e.g. `sim/uniform/HB(2, 4)/0.05`) to metrics.
    pub experiments: BTreeMap<String, Metrics>,
}

/// One metric whose fresh value drifted outside tolerance — or that is
/// missing on one side entirely (the absent side reads as NaN).
#[derive(Clone, Debug)]
pub struct Drift {
    /// Experiment key.
    pub experiment: String,
    /// Metric name.
    pub metric: String,
    /// Stored baseline value (NaN when the baseline lacks it).
    pub baseline: f64,
    /// Freshly measured value (NaN when the fresh run lacks it).
    pub fresh: f64,
    /// Relative drift `|fresh - baseline| / max(|fresh|, |baseline|)`.
    pub relative: f64,
    /// The tolerance that was exceeded.
    pub tolerance: f64,
}

/// Relative tolerance for a metric. Continuous load-dependent metrics
/// get slack (they wiggle under harmless scheduling changes); pure
/// counters from deterministic runs must match exactly.
#[must_use]
pub fn default_tolerance(metric: &str) -> f64 {
    match metric {
        "throughput" => 0.10,
        "avg_latency" | "avg_hops" | "p50" | "p95" | "p99" => 0.15,
        "peak_queue" => 0.50,
        // delivered, sim_cycles, rounds, messages, peak-rounds: exact.
        _ => 0.0,
    }
}

fn sim_metrics(r: &netsim_exp::SimRow) -> Metrics {
    let mut m = Metrics::new();
    let cycles = if r.cycles == 0 { 1 } else { r.cycles };
    #[allow(clippy::cast_precision_loss)]
    {
        m.insert("throughput".into(), r.delivered as f64 / cycles as f64);
        m.insert("delivered".into(), r.delivered as f64);
        m.insert("peak_queue".into(), r.peak_queue as f64);
        if let Some(q) = &r.latency {
            m.insert("p50".into(), q.p50 as f64);
            m.insert("p95".into(), q.p95 as f64);
            m.insert("p99".into(), q.p99 as f64);
        }
    }
    m.insert("avg_latency".into(), r.avg_latency);
    m.insert("avg_hops".into(), r.avg_hops);
    m
}

#[allow(clippy::cast_precision_loss)]
fn perf_metrics(r: &perf::PerfRow) -> Metrics {
    let mut m = Metrics::new();
    m.insert("delivered".into(), r.delivered as f64);
    m.insert("sim_cycles".into(), r.sim_cycles as f64);
    m
}

#[allow(clippy::cast_precision_loss)]
fn dist_metrics(r: &distributed_exp::DistributedRow) -> Metrics {
    let mut m = Metrics::new();
    m.insert("election_rounds".into(), f64::from(r.election.0));
    m.insert("election_messages".into(), r.election.1 as f64);
    m.insert("election_peak_round".into(), r.election_peak_round as f64);
    m.insert("tree_rounds".into(), f64::from(r.tree.0));
    m.insert("tree_messages".into(), r.tree.1 as f64);
    m.insert("gossip_rounds".into(), f64::from(r.gossip.0));
    m.insert("gossip_messages".into(), r.gossip.1 as f64);
    m.insert("gossip_peak_round".into(), r.gossip_peak_round as f64);
    m
}

impl Baseline {
    /// Runs the gated experiment subset and collects its metrics.
    ///
    /// # Errors
    /// Propagates topology construction or protocol validation failures.
    pub fn collect(cycles: u64, seed: u64) -> Result<Self> {
        Self::collect_with_threads(cycles, seed, 1)
    }

    /// Like [`Baseline::collect`] but runs the `sim/` experiments
    /// through the sharded engine at `threads` workers. Because the
    /// parallel engine is byte-identical to the serial one (DESIGN.md
    /// §9), the resulting baseline is **equal** to the serial collection
    /// — `hbnet bench --check --threads N` against the committed
    /// `BENCH_baseline.json` is itself an end-to-end determinism gate.
    /// The `perf/` rows run at their own fixed thread counts.
    ///
    /// # Errors
    /// Propagates topology construction or protocol validation failures.
    pub fn collect_with_threads(cycles: u64, seed: u64, threads: usize) -> Result<Self> {
        let mut experiments = BTreeMap::new();
        for r in netsim_exp::uniform_sweep_with_threads(&[0.05, 0.20], cycles, seed, threads)? {
            experiments.insert(
                format!("sim/{}/{}/{:.2}", r.pattern, r.name, r.rate),
                sim_metrics(&r),
            );
        }
        for r in netsim_exp::hotspot_run_with_threads(0.10, cycles, seed, threads)? {
            experiments.insert(
                format!("sim/{}/{}/{:.2}", r.pattern, r.name, r.rate),
                sim_metrics(&r),
            );
        }
        for r in distributed_exp::matched_rows()? {
            experiments.insert(format!("dist/{}", r.name), dist_metrics(&r));
        }
        for r in perf::perf_rows(cycles, seed)? {
            experiments.insert(format!("perf/{}/t{}", r.name, r.threads), perf_metrics(&r));
        }
        Ok(Self {
            version: BASELINE_VERSION,
            cycles,
            seed,
            experiments,
        })
    }

    /// Renders the baseline as deterministic, diff-friendly JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"version\": {},", self.version);
        let _ = writeln!(s, "  \"cycles\": {},", self.cycles);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"experiments\": {{");
        let n_exp = self.experiments.len();
        for (i, (key, metrics)) in self.experiments.iter().enumerate() {
            let _ = writeln!(s, "    \"{}\": {{", json_escape(key));
            let n_met = metrics.len();
            for (j, (name, value)) in metrics.iter().enumerate() {
                let comma = if j + 1 < n_met { "," } else { "" };
                // `{value:?}` is Rust's shortest round-trip float form.
                let _ = writeln!(s, "      \"{}\": {value:?}{comma}", json_escape(name));
            }
            let comma = if i + 1 < n_exp { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }

    /// Parses the JSON subset emitted by [`Baseline::to_json`].
    ///
    /// # Errors
    /// Returns a message describing the first malformed construct.
    pub fn parse(json: &str) -> std::result::Result<Self, String> {
        let value = JsonParser::new(json).parse_document()?;
        let top = value.as_object("top level")?;
        let num = |key: &str| -> std::result::Result<u64, String> {
            match top.iter().find(|(k, _)| k == key) {
                Some((_, JsonValue::Number(n))) if n.fract() == 0.0 && *n >= 0.0 =>
                {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    Ok(*n as u64)
                }
                Some(_) => Err(format!("\"{key}\" must be a non-negative integer")),
                None => Err(format!("missing \"{key}\"")),
            }
        };
        let version = num("version")?;
        if version != BASELINE_VERSION {
            return Err(format!(
                "baseline version {version} unsupported (expected {BASELINE_VERSION})"
            ));
        }
        let cycles = num("cycles")?;
        let seed = num("seed")?;
        let exps = top
            .iter()
            .find(|(k, _)| k == "experiments")
            .ok_or("missing \"experiments\"")?
            .1
            .as_object("experiments")?;
        let mut experiments = BTreeMap::new();
        for (key, metrics_value) in exps {
            let mut metrics = Metrics::new();
            for (name, v) in metrics_value.as_object(key)? {
                match v {
                    JsonValue::Number(n) => {
                        metrics.insert(name.clone(), *n);
                    }
                    _ => return Err(format!("metric {key}/{name} is not a number")),
                }
            }
            experiments.insert(key.clone(), metrics);
        }
        Ok(Self {
            version,
            cycles,
            seed,
            experiments,
        })
    }

    /// Compares a fresh run against this stored baseline. Every metric
    /// outside its [`default_tolerance`], plus every experiment or
    /// metric present on only one side, yields a [`Drift`] row (sorted
    /// by experiment then metric). Empty means the gate passes.
    #[must_use]
    pub fn compare(&self, fresh: &Self) -> Vec<Drift> {
        let mut drifts = Vec::new();
        let keys: std::collections::BTreeSet<&String> = self
            .experiments
            .keys()
            .chain(fresh.experiments.keys())
            .collect();
        for key in keys {
            let base = self.experiments.get(key);
            let new = fresh.experiments.get(key);
            let names: std::collections::BTreeSet<&String> = base
                .map(|m| m.keys().collect::<Vec<_>>())
                .unwrap_or_default()
                .into_iter()
                .chain(
                    new.map(|m| m.keys().collect::<Vec<_>>())
                        .unwrap_or_default(),
                )
                .collect();
            for name in names {
                let b = base.and_then(|m| m.get(name)).copied();
                let f = new.and_then(|m| m.get(name)).copied();
                let tolerance = default_tolerance(name);
                let (baseline, fresh_v, relative) = match (b, f) {
                    (Some(b), Some(f)) => {
                        let denom = b.abs().max(f.abs());
                        let rel = if denom == 0.0 {
                            0.0
                        } else {
                            (f - b).abs() / denom
                        };
                        if rel <= tolerance {
                            continue;
                        }
                        (b, f, rel)
                    }
                    (Some(b), None) => (b, f64::NAN, f64::INFINITY),
                    (None, Some(f)) => (f64::NAN, f, f64::INFINITY),
                    (None, None) => continue,
                };
                drifts.push(Drift {
                    experiment: key.clone(),
                    metric: name.clone(),
                    baseline,
                    fresh: fresh_v,
                    relative,
                    tolerance,
                });
            }
        }
        drifts
    }
}

/// Renders a drift report as an aligned table (empty string when clean).
#[must_use]
pub fn render_drifts(drifts: &[Drift]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    if drifts.is_empty() {
        return s;
    }
    let _ = writeln!(
        s,
        "{:<36} {:<20} {:>12} {:>12} {:>8} {:>6}",
        "Experiment", "Metric", "Baseline", "Fresh", "Drift", "Tol"
    );
    for d in drifts {
        let _ = writeln!(
            s,
            "{:<36} {:<20} {:>12.4} {:>12.4} {:>7.1}% {:>5.0}%",
            d.experiment,
            d.metric,
            d.baseline,
            d.fresh,
            d.relative * 100.0,
            d.tolerance * 100.0
        );
    }
    s
}

/// The JSON subset [`Baseline::to_json`] emits: objects, strings, and
/// numbers. Arrays/booleans/null are rejected — the baseline never
/// contains them, and a smaller grammar means a smaller parser.
#[derive(Clone, Debug)]
enum JsonValue {
    Number(f64),
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn as_object(&self, what: &str) -> std::result::Result<&[(String, JsonValue)], String> {
        match self {
            JsonValue::Object(fields) => Ok(fields),
            JsonValue::Number(_) => Err(format!("{what} must be an object")),
        }
    }
}

/// Deepest object nesting the format has: document → experiments →
/// metrics. Deeper input is an error, which also bounds the parser's
/// recursion on hostile files.
const MAX_DEPTH: usize = 3;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> std::result::Result<JsonValue, String> {
        let v = self.parse_value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> std::result::Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(ch),
                self.pos
            ))
        }
    }

    /// Parses the value at the cursor, inside `depth` enclosing objects.
    fn parse_value(&mut self, depth: usize) -> std::result::Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') if depth == MAX_DEPTH => Err(format!(
                "objects nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(format!("expected object or number at byte {}", self.pos)),
        }
    }

    fn parse_object(&mut self, depth: usize) -> std::result::Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> std::result::Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let at = self.pos + 1;
                    self.pos += 2;
                    out.push(match self.bytes.get(at) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.parse_unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {at}")),
                    });
                }
                Some(&b) => {
                    // Multi-byte UTF-8 passes through byte by byte; the
                    // input was a &str so sequences are always valid.
                    let start = self.pos;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >= 0xF0 => 4,
                        _ if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let end = (start + len).min(self.bytes.len());
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| format!("invalid utf-8 in string at byte {start}"))?,
                    );
                    self.pos = end;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape at the cursor, joining a
    /// UTF-16 surrogate pair.
    fn parse_unicode_escape(&mut self) -> std::result::Result<char, String> {
        let start = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&code)
            && self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u".as_slice())
        {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..=0xDFFF).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // A surrogate left unpaired is not a `char`.
        char::from_u32(code).ok_or_else(|| format!("lone surrogate in \\u escape at byte {start}"))
    }

    /// Reads four hex digits at the cursor.
    fn hex4(&mut self) -> std::result::Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .bytes
                .get(self.pos)
                .and_then(|&b| char::from(b).to_digit(16))
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> std::result::Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared collection: most tests only read or perturb it.
    fn small() -> Baseline {
        static SMALL: std::sync::OnceLock<Baseline> = std::sync::OnceLock::new();
        SMALL
            .get_or_init(|| Baseline::collect(20, 17).unwrap())
            .clone()
    }

    #[test]
    fn collect_is_deterministic() {
        let a = small();
        let b = Baseline::collect(20, 17).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        // Covers both sweeps (2 rates x 3 topologies + 3 hotspot), the
        // distributed table, and the 18 perf counter rows.
        assert_eq!(a.experiments.len(), 6 + 3 + 3 + 18);
    }

    #[test]
    fn threaded_collection_equals_serial_collection() {
        // The end-to-end determinism gate: the entire baseline suite run
        // through the sharded engine is byte-identical to the serial run.
        let serial = small();
        let par = Baseline::collect_with_threads(20, 17, 4).unwrap();
        assert_eq!(serial, par);
        assert_eq!(serial.to_json(), par.to_json());
    }

    #[test]
    fn collect_gates_the_perf_counters_exactly() {
        let a = small();
        let perf: Vec<&String> = a
            .experiments
            .keys()
            .filter(|k| k.starts_with("perf/"))
            .collect();
        // Three matched topologies at every engine thread count, the
        // uniform grid, three repair deltas, the adaptive run, and the
        // four implicit frontier shapes.
        assert_eq!(
            perf.len(),
            3 * perf::THREADS.len() + 1 + 3 + 1 + 4,
            "{perf:?}"
        );
        for key in [
            "perf/engine/HB(2, 4)/t4",
            "perf/grid/uniform/t1",
            "perf/repair/delta16/t1",
            "perf/adaptive/t1",
            "perf/frontier/HB(7, 10)/t1",
        ] {
            assert!(a.experiments.contains_key(key), "{key}");
        }
        // Both counters of every row are exact: a one-unit change trips
        // the gate.
        for key in perf {
            let metrics: Vec<&String> = a.experiments[key].keys().collect();
            assert_eq!(metrics, ["delivered", "sim_cycles"], "{key}");
            for metric in metrics {
                let mut b = a.clone();
                *b.experiments.get_mut(key).unwrap().get_mut(metric).unwrap() += 1.0;
                let drifts = a.compare(&b);
                assert_eq!(drifts.len(), 1, "{key}/{metric}");
                assert_eq!(drifts[0].tolerance, 0.0);
            }
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut a = small();
        // Every character the writer escapes, plus non-ASCII text.
        let hostile = "q\"b\\n\nr\rt\tc\u{1}é→😀";
        a.experiments.insert(
            format!("e{hostile}"),
            Metrics::from([(format!("m{hostile}"), 2.5)]),
        );
        let parsed = Baseline::parse(&a.to_json()).unwrap();
        assert_eq!(a, parsed);
        assert_eq!(a.to_json(), parsed.to_json());
    }

    #[test]
    fn self_comparison_is_clean() {
        let a = small();
        let drifts = a.compare(&Baseline::parse(&a.to_json()).unwrap());
        assert!(drifts.is_empty(), "{}", render_drifts(&drifts));
    }

    /// First `sim/` experiment key (the `dist/` rows carry no latency).
    fn sim_key(b: &Baseline) -> String {
        b.experiments
            .keys()
            .find(|k| k.starts_with("sim/"))
            .unwrap()
            .clone()
    }

    #[test]
    fn perturbation_beyond_tolerance_is_flagged() {
        let a = small();
        let mut b = a.clone();
        let key = sim_key(&b);
        let latency = b
            .experiments
            .get_mut(&key)
            .unwrap()
            .get_mut("avg_latency")
            .unwrap();
        *latency *= 1.5; // 33% relative drift > 15% tolerance
        let drifts = a.compare(&b);
        assert_eq!(drifts.len(), 1, "{}", render_drifts(&drifts));
        assert_eq!(drifts[0].experiment, key);
        assert_eq!(drifts[0].metric, "avg_latency");
        assert!(drifts[0].relative > 0.15);
        assert!(!render_drifts(&drifts).is_empty());
    }

    #[test]
    fn perturbation_within_tolerance_passes() {
        let a = small();
        let mut b = a.clone();
        let key = sim_key(&b);
        let latency = b
            .experiments
            .get_mut(&key)
            .unwrap()
            .get_mut("avg_latency")
            .unwrap();
        *latency *= 1.05; // 5% < 15% tolerance
        assert!(a.compare(&b).is_empty());
    }

    #[test]
    fn missing_experiments_and_metrics_count_as_drift() {
        let a = small();
        let mut b = a.clone();
        let removed_key = b.experiments.keys().next().unwrap().clone();
        let removed = b.experiments.remove(&removed_key).unwrap();
        let drifts = a.compare(&b);
        // Every metric of the removed experiment drifts (fresh = NaN).
        assert_eq!(drifts.len(), removed.len());
        assert!(drifts.iter().all(|d| d.experiment == removed_key));
        assert!(drifts.iter().all(|d| d.fresh.is_nan()));
        // Symmetric: an extra fresh experiment also flags.
        let extra = a.compare(&b).len();
        assert_eq!(b.compare(&a).len(), extra);
    }

    #[test]
    fn exact_counter_drift_is_never_tolerated() {
        let a = small();
        let mut b = a.clone();
        let key = sim_key(&b);
        let delivered = b
            .experiments
            .get_mut(&key)
            .unwrap()
            .get_mut("delivered")
            .unwrap();
        *delivered += 1.0;
        assert_eq!(a.compare(&b).len(), 1);
    }

    /// A valid one-experiment document whose key is the raw JSON text
    /// `key`, so a bad escape is the only thing wrong with it.
    fn doc_with_key(key: &str) -> String {
        format!(
            "{{\"version\": 1, \"cycles\": 1, \"seed\": 1, \"experiments\": {{\"{key}\": {{}}}}}}"
        )
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "[1, 2]",
            "{\"version\": 1",
            "{\"version\": true}",
            "{\"version\": 1} trailing",
            "{\"version\": 99, \"cycles\": 1, \"seed\": 1, \"experiments\": {}}",
            "{\"cycles\": 1, \"seed\": 1, \"experiments\": {}}",
            "{\"a\\",
        ] {
            assert!(Baseline::parse(bad).is_err(), "{bad:?} should not parse");
        }
        for bad in [
            "a\\q",
            "a\\u12",
            "a\\u+123",
            "a\\ud800",
            "a\\ud800\\u0041",
            "a\\ud800ZZdc00",
            "a\\udc00",
        ] {
            let doc = doc_with_key(bad);
            assert!(Baseline::parse(&doc).is_err(), "{doc:?} should not parse");
        }
    }

    #[test]
    fn parse_rejects_nesting_deeper_than_the_format() {
        // A hostile depth returns an error at the fourth object instead
        // of exhausting the stack.
        let deep = format!("{}1{}", "{\"a\":".repeat(200_000), "}".repeat(200_000));
        assert_eq!(
            Baseline::parse(&deep).unwrap_err(),
            "objects nested deeper than 3 levels at byte 15"
        );
    }

    #[test]
    fn parse_decodes_every_json_escape() {
        let doc = doc_with_key("a\\u0041\\/\\b\\f\\r\\ud83d\\ude00\\udbff\\udfff");
        let parsed = Baseline::parse(&doc).unwrap();
        let key = parsed.experiments.keys().next().unwrap();
        assert_eq!(key, "aA/\u{8}\u{c}\r\u{1F600}\u{10FFFF}");
    }
}
