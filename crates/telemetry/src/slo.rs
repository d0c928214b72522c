//! Declarative service-level objectives evaluated over a [`Snapshot`].
//!
//! An [`SloSpec`] names a small threshold set — p99 latency, delivered
//! fraction, peak queue depth, unroutable count — and
//! [`SloSpec::evaluate`] checks a finished run's snapshot against it,
//! producing one [`SloCheck`] per configured threshold. Everything is
//! logical-cycle data, so the verdicts are deterministic: same run,
//! same checks, same bytes. The CLI renders them as a pass/fail section
//! in `hbnet report` and exits non-zero from `simulate --slo` when a
//! gate fails; [`emit`] appends each verdict to the event trace.

use crate::sink::Snapshot;
use crate::trace::Event;
use crate::Telemetry;

/// Thresholds a run must satisfy. Every field is optional: `None`
/// means "not gated".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloSpec {
    /// Upper bound on the `sim.latency` p99 (cycles).
    pub max_p99_latency: Option<u64>,
    /// Lower bound on `sim.delivered / sim.offered` (a fraction in
    /// `0..=1`; an empty run counts as fully delivered).
    pub min_delivered_fraction: Option<f64>,
    /// Upper bound on the deepest per-link peak queue.
    pub max_queue_depth: Option<u64>,
    /// Upper bound on the `sim.unroutable` counter (refused injections
    /// under faults).
    pub max_unroutable: Option<u64>,
}

/// One evaluated threshold: what was required, what the run did.
///
/// `threshold` and `actual` are pre-formatted so a check renders the
/// same bytes everywhere (text report, trace events, JSON).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloCheck {
    /// Which objective this is (`p99_latency`, `delivered_fraction`,
    /// `queue_depth`, `unroutable`).
    pub name: &'static str,
    /// The configured bound, rendered.
    pub threshold: String,
    /// The run's observed value, rendered.
    pub actual: String,
    /// Whether the run satisfied the bound.
    pub pass: bool,
}

impl SloSpec {
    /// Parses a comma-separated `key=value` list:
    /// `p99=40,delivered=0.95,queue=32,unroutable=0`. Unknown keys and
    /// malformed values are errors; an empty string is an empty spec.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut spec = SloSpec::default();
        for part in raw.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("invalid SLO `{part}` (expected key=value)"))?;
            match key {
                "p99" => {
                    spec.max_p99_latency = Some(
                        value
                            .parse()
                            .map_err(|_| format!("invalid SLO p99 `{value}` (cycles)"))?,
                    );
                }
                "delivered" => {
                    let f: f64 = value
                        .parse()
                        .map_err(|_| format!("invalid SLO delivered `{value}` (fraction)"))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(format!("SLO delivered `{value}` must be in 0..=1"));
                    }
                    spec.min_delivered_fraction = Some(f);
                }
                "queue" => {
                    spec.max_queue_depth = Some(
                        value
                            .parse()
                            .map_err(|_| format!("invalid SLO queue `{value}` (packets)"))?,
                    );
                }
                "unroutable" => {
                    spec.max_unroutable = Some(
                        value
                            .parse()
                            .map_err(|_| format!("invalid SLO unroutable `{value}` (count)"))?,
                    );
                }
                other => {
                    return Err(format!(
                        "unknown SLO key `{other}` (p99 | delivered | queue | unroutable)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// `true` when no threshold is configured.
    pub fn is_empty(&self) -> bool {
        *self == SloSpec::default()
    }

    /// Evaluates every configured threshold against `s`, in a fixed
    /// order (p99, delivered, queue, unroutable).
    pub fn evaluate(&self, s: &Snapshot) -> Vec<SloCheck> {
        let counter = |name: &str| -> u64 {
            s.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        let mut checks = Vec::new();
        if let Some(bound) = self.max_p99_latency {
            let p99 = s
                .histograms
                .iter()
                .find(|(n, _)| n == "sim.latency")
                .map_or(0, |(_, h)| h.p99);
            checks.push(SloCheck {
                name: "p99_latency",
                threshold: format!("<= {bound}"),
                actual: p99.to_string(),
                pass: p99 <= bound,
            });
        }
        if let Some(bound) = self.min_delivered_fraction {
            let offered = counter("sim.offered");
            let fraction = if offered == 0 {
                1.0
            } else {
                counter("sim.delivered") as f64 / offered as f64
            };
            checks.push(SloCheck {
                name: "delivered_fraction",
                threshold: format!(">= {bound:.4}"),
                actual: format!("{fraction:.4}"),
                pass: fraction >= bound,
            });
        }
        if let Some(bound) = self.max_queue_depth {
            let peak = s
                .links
                .iter()
                .map(|(_, r)| r.peak_queue as u64)
                .max()
                .unwrap_or(0);
            checks.push(SloCheck {
                name: "queue_depth",
                threshold: format!("<= {bound}"),
                actual: peak.to_string(),
                pass: peak <= bound,
            });
        }
        if let Some(bound) = self.max_unroutable {
            let unroutable = counter("sim.unroutable");
            checks.push(SloCheck {
                name: "unroutable",
                threshold: format!("<= {bound}"),
                actual: unroutable.to_string(),
                pass: unroutable <= bound,
            });
        }
        checks
    }
}

/// `true` when every check passed (vacuously true for an empty list).
pub fn all_pass(checks: &[SloCheck]) -> bool {
    checks.iter().all(|c| c.pass)
}

/// Appends one [`Event::SloCheck`] per verdict to the event trace
/// (no-op below trace level, like every other event).
pub fn emit(tel: &Telemetry, checks: &[SloCheck]) {
    for c in checks {
        tel.event(|| Event::SloCheck {
            name: c.name.to_string(),
            threshold: c.threshold.clone(),
            actual: c.actual.clone(),
            pass: c.pass,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::{LinkRecord, LinkStats};

    fn snapshot_with_run() -> Snapshot {
        let t = Telemetry::summary();
        t.counter("sim.offered").add(100);
        t.counter("sim.delivered").add(97);
        t.counter("sim.unroutable").add(3);
        let mut latency = crate::Histogram::new();
        for v in [4u64, 6, 9, 30] {
            latency.record(v);
        }
        t.merge_histogram("sim.latency", &latency);
        let mut ls = LinkStats::new();
        for (from, to, peak_queue) in [(0, 1, 7), (1, 2, 3)] {
            let record = LinkRecord {
                peak_queue,
                ..LinkRecord::default()
            };
            ls.add(from, to, record);
        }
        t.merge_links(ls);
        t.snapshot()
    }

    #[test]
    fn parse_round_trips_every_key() {
        let spec = SloSpec::parse("p99=40,delivered=0.95,queue=8,unroutable=0").unwrap();
        assert_eq!(spec.max_p99_latency, Some(40));
        assert_eq!(spec.min_delivered_fraction, Some(0.95));
        assert_eq!(spec.max_queue_depth, Some(8));
        assert_eq!(spec.max_unroutable, Some(0));
        assert!(SloSpec::parse("").unwrap().is_empty());
        assert!(SloSpec::parse("p99").is_err());
        assert!(SloSpec::parse("p99=fast").is_err());
        assert!(SloSpec::parse("delivered=1.5").is_err());
        assert!(SloSpec::parse("latency=4").is_err());
    }

    #[test]
    fn evaluate_checks_each_threshold() {
        let s = snapshot_with_run();
        let spec = SloSpec {
            max_p99_latency: Some(64),
            min_delivered_fraction: Some(0.95),
            max_queue_depth: Some(4),
            max_unroutable: Some(0),
        };
        let checks = spec.evaluate(&s);
        assert_eq!(checks.len(), 4);
        assert!(checks[0].pass, "p99 within bound: {checks:?}");
        assert!(checks[1].pass, "delivered 0.97 >= 0.95: {checks:?}");
        assert!(!checks[2].pass, "peak queue 7 > 4: {checks:?}");
        assert!(!checks[3].pass, "unroutable 3 > 0: {checks:?}");
        assert!(!all_pass(&checks));
        assert_eq!(checks[1].actual, "0.9700");
    }

    #[test]
    fn empty_spec_evaluates_to_no_checks() {
        let checks = SloSpec::default().evaluate(&snapshot_with_run());
        assert!(checks.is_empty());
        assert!(all_pass(&checks));
    }

    #[test]
    fn missing_instruments_use_neutral_defaults() {
        let spec = SloSpec {
            max_p99_latency: Some(10),
            min_delivered_fraction: Some(0.9),
            max_queue_depth: Some(1),
            max_unroutable: Some(0),
        };
        let checks = spec.evaluate(&Snapshot::default());
        assert!(
            all_pass(&checks),
            "an empty run violates nothing: {checks:?}"
        );
    }

    #[test]
    fn emit_appends_trace_events() {
        let t = Telemetry::with_trace(8);
        let checks = vec![SloCheck {
            name: "p99_latency",
            threshold: "<= 40".into(),
            actual: "31".into(),
            pass: true,
        }];
        emit(&t, &checks);
        assert_eq!(t.snapshot().events.len(), 1);
        // Summary level stays event-free.
        let s = Telemetry::summary();
        emit(&s, &checks);
        assert!(s.snapshot().events.is_empty());
    }
}
