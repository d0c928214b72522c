//! Pluggable renderers for telemetry snapshots.
//!
//! A [`Snapshot`] is a point-in-time copy of every instrument; a
//! [`Sink`] turns it into text. Three formats ship here:
//!
//! * [`TextSink`] — fixed-width tables for terminals (the style of
//!   `hb-core::metrics::render_table`);
//! * [`JsonLinesSink`] — one JSON object per line, greppable and
//!   stream-appendable;
//! * [`CsvSink`] — RFC-4180 sections, one per instrument family (the
//!   quoting idiom of `hb-bench::csv`);
//! * [`ChromeTraceSink`] — Chrome trace-event JSON for
//!   `chrome://tracing` / Perfetto, with logical sim ticks as
//!   microsecond timestamps so output is fully deterministic;
//! * [`SpanTreeSink`] — indented causal span trees for terminals;
//! * [`ProfileSink`] — the work-attribution profile as an indented
//!   phase tree (slash-separated phase paths become nesting);
//! * [`ReportSink`] — a deterministic run report: metadata header,
//!   per-window phase timeline, top-k congested links with sparkline
//!   bars, detected anomalies, and optional SLO gate verdicts (the
//!   `hbnet report` renderer).

use crate::links::LinkUtilization;
use crate::profile::Profile;
use crate::slo::SloSpec;
use crate::span::{SpanId, SpanRecord};
use crate::timeseries::{CongestionEvent, Series};
use crate::trace::Event;
use std::collections::BTreeMap;

/// Summary statistics of one named histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Exact minimum.
    pub min: u64,
    /// Median (conservative upper bucket edge).
    pub p50: u64,
    /// 95th percentile (upper bucket edge).
    pub p95: u64,
    /// 99th percentile (upper bucket edge).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// A point-in-time copy of every instrument of a
/// [`crate::Telemetry`] handle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-link utilization rows, busiest first.
    pub links: Vec<LinkUtilization>,
    /// The run's cycle count (from the `sim.cycles` counter), if known.
    pub cycles: Option<u64>,
    /// Retained trace events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the bounded trace.
    pub events_dropped: u64,
    /// Recorded causal spans, in id order.
    pub spans: Vec<SpanRecord>,
    /// Spans refused because the bounded store was full.
    pub spans_dropped: u64,
    /// Windowed time-series, name-ordered (empty unless sampling was on).
    pub timeseries: BTreeMap<String, Series>,
    /// Congestion events found by the detector, in detection order.
    pub congestion: Vec<CongestionEvent>,
    /// Deterministic work-attribution profile (empty unless profiling
    /// was on — sinks render nothing for an empty profile).
    pub profile: Profile,
}

/// Renders a [`Snapshot`] to a string.
pub trait Sink {
    /// Produces the rendition.
    fn render(&self, snapshot: &Snapshot) -> String;
}

/// Fixed-width text tables for terminals.
#[derive(Clone, Copy, Debug)]
pub struct TextSink {
    /// Maximum link rows to print (0 = all).
    pub top_links: usize,
    /// Maximum trace events to print (0 = all retained).
    pub max_events: usize,
    /// Maximum time-series rows to print (0 = all).
    pub max_series: usize,
}

impl Default for TextSink {
    fn default() -> Self {
        Self {
            top_links: 16,
            max_events: 32,
            max_series: 16,
        }
    }
}

impl Sink for TextSink {
    fn render(&self, s: &Snapshot) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if !s.counters.is_empty() || !s.gauges.is_empty() {
            let _ = writeln!(out, "counters:");
            for (n, v) in &s.counters {
                let _ = writeln!(out, "  {n:<32} {v:>12}");
            }
            for (n, v) in &s.gauges {
                let _ = writeln!(out, "  {n:<32} {v:>12} (gauge)");
            }
        }
        if !s.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>8}",
                "histogram", "count", "mean", "min", "p50", "p95", "p99", "max"
            );
            for (n, h) in &s.histograms {
                let _ = writeln!(
                    out,
                    "{:<24} {:>9} {:>9.2} {:>6} {:>6} {:>6} {:>6} {:>8}",
                    n, h.count, h.mean, h.min, h.p50, h.p95, h.p99, h.max
                );
            }
        }
        if !s.profile.is_empty() {
            let _ = writeln!(
                out,
                "work profile ({} phases, {} work units):",
                s.profile.len(),
                s.profile.total_work()
            );
            let _ = writeln!(
                out,
                "  {:<30} {:>12} {:>14} {:>10}",
                "phase", "invocations", "work", "work/inv"
            );
            for (path, st) in s.profile.iter() {
                let _ = writeln!(
                    out,
                    "  {:<30} {:>12} {:>14} {:>10.2}",
                    path,
                    st.invocations,
                    st.work,
                    st.work_per_invocation()
                );
            }
        }
        if !s.links.is_empty() {
            let _ = writeln!(
                out,
                "per-link utilization ({} links{}):",
                s.links.len(),
                s.cycles.map_or(String::new(), |c| format!(", {c} cycles"))
            );
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>10} {:>10} {:>10} {:>8}",
                "From", "To", "Forwarded", "BusyCyc", "PeakQueue", "Util"
            );
            let shown = if self.top_links == 0 {
                s.links.len()
            } else {
                self.top_links
            };
            for r in s.links.iter().take(shown) {
                let _ = writeln!(
                    out,
                    "{:>8} {:>8} {:>10} {:>10} {:>10} {:>8.4}",
                    r.key.from,
                    r.key.to,
                    r.record.forwarded,
                    r.record.busy_cycles,
                    r.record.peak_queue,
                    r.utilization
                );
            }
            if s.links.len() > shown {
                let _ = writeln!(out, "({} more links not shown)", s.links.len() - shown);
            }
        }
        if !s.timeseries.is_empty() {
            let _ = writeln!(out, "time-series ({} series):", s.timeseries.len());
            let shown = if self.max_series == 0 {
                s.timeseries.len()
            } else {
                self.max_series
            };
            for (n, series) in s.timeseries.iter().take(shown) {
                let hwm = series
                    .high_watermark()
                    .map_or(String::new(), |(v, c)| format!(", hwm {v} @ cycle {c}"));
                let _ = writeln!(
                    out,
                    "  {:<32} {:>4} windows x{} cadence ({} dropped){hwm}",
                    n,
                    series.len(),
                    series.cadence(),
                    series.dropped_windows()
                );
            }
            if s.timeseries.len() > shown {
                let _ = writeln!(
                    out,
                    "  ({} more series not shown)",
                    s.timeseries.len() - shown
                );
            }
        }
        if !s.congestion.is_empty() {
            let _ = writeln!(out, "congestion ({} events):", s.congestion.len());
            for e in &s.congestion {
                let _ = writeln!(
                    out,
                    "  [{:>8}] {:<12} {:<32} windows {}..{} peak {}",
                    e.severity.label(),
                    e.kind.label(),
                    e.subject,
                    e.window_start,
                    e.window_end,
                    e.peak
                );
            }
        }
        if !s.events.is_empty() || s.events_dropped > 0 {
            let _ = writeln!(
                out,
                "trace ({} events retained, {} dropped):",
                s.events.len(),
                s.events_dropped
            );
            let shown = if self.max_events == 0 {
                s.events.len()
            } else {
                self.max_events
            };
            let skip = s.events.len().saturating_sub(shown);
            if skip > 0 {
                let _ = writeln!(out, "  ... {skip} earlier events omitted");
            }
            for e in s.events.iter().skip(skip) {
                let _ = writeln!(out, "  {}", event_text(e));
            }
        }
        if !s.spans.is_empty() || s.spans_dropped > 0 {
            let _ = writeln!(
                out,
                "spans: {} recorded, {} dropped",
                s.spans.len(),
                s.spans_dropped
            );
        }
        out
    }
}

fn event_text(e: &Event) -> String {
    match e {
        Event::PacketInjected {
            id,
            src,
            dst,
            cycle,
        } => {
            format!("[{cycle:>6}] inject  #{id} {src} -> {dst}")
        }
        Event::PacketHop {
            id,
            from,
            to,
            cycle,
        } => {
            format!("[{cycle:>6}] hop     #{id} {from} -> {to}")
        }
        Event::PacketDelivered {
            id,
            dst,
            latency,
            cycle,
        } => {
            format!("[{cycle:>6}] deliver #{id} at {dst} (latency {latency})")
        }
        Event::PacketDropped { id, at, cycle } => {
            format!("[{cycle:>6}] drop    #{id} at {at}")
        }
        Event::RoundStarted { protocol, round } => {
            format!("[round {round:>4}] {protocol} start")
        }
        Event::RoundEnded {
            protocol,
            round,
            messages,
        } => {
            format!("[round {round:>4}] {protocol} end ({messages} messages)")
        }
        Event::Congestion {
            kind,
            severity,
            subject,
            window_start,
            window_end,
            peak,
        } => {
            format!(
                "[w {window_start:>4}..{window_end:<4}] {} {} {subject} (peak {peak})",
                severity.label(),
                kind.label()
            )
        }
        Event::SloCheck {
            name,
            threshold,
            actual,
            pass,
        } => {
            format!(
                "[   slo] {} {name} {threshold} (actual {actual})",
                if *pass { "pass" } else { "FAIL" }
            )
        }
    }
}

/// Escapes a string for a JSON string literal (no surrounding quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

fn event_json(e: &Event) -> String {
    match e {
        Event::PacketInjected {
            id,
            src,
            dst,
            cycle,
        } => format!(
            "{{\"type\":\"event\",\"kind\":\"packet_injected\",\"id\":{id},\"src\":{src},\
             \"dst\":{dst},\"cycle\":{cycle}}}"
        ),
        Event::PacketHop {
            id,
            from,
            to,
            cycle,
        } => format!(
            "{{\"type\":\"event\",\"kind\":\"packet_hop\",\"id\":{id},\"from\":{from},\
             \"to\":{to},\"cycle\":{cycle}}}"
        ),
        Event::PacketDelivered {
            id,
            dst,
            latency,
            cycle,
        } => format!(
            "{{\"type\":\"event\",\"kind\":\"packet_delivered\",\"id\":{id},\"dst\":{dst},\
             \"latency\":{latency},\"cycle\":{cycle}}}"
        ),
        Event::PacketDropped { id, at, cycle } => format!(
            "{{\"type\":\"event\",\"kind\":\"packet_dropped\",\"id\":{id},\"at\":{at},\
             \"cycle\":{cycle}}}"
        ),
        Event::RoundStarted { protocol, round } => format!(
            "{{\"type\":\"event\",\"kind\":\"round_started\",\"protocol\":\"{}\",\
             \"round\":{round}}}",
            json_escape(protocol)
        ),
        Event::RoundEnded {
            protocol,
            round,
            messages,
        } => format!(
            "{{\"type\":\"event\",\"kind\":\"round_ended\",\"protocol\":\"{}\",\
             \"round\":{round},\"messages\":{messages}}}",
            json_escape(protocol)
        ),
        Event::Congestion {
            kind,
            severity,
            subject,
            window_start,
            window_end,
            peak,
        } => format!(
            "{{\"type\":\"event\",\"kind\":\"congestion\",\"congestion\":\"{}\",\
             \"severity\":\"{}\",\"subject\":\"{}\",\"window_start\":{window_start},\
             \"window_end\":{window_end},\"peak\":{peak}}}",
            kind.label(),
            severity.label(),
            json_escape(subject)
        ),
        Event::SloCheck {
            name,
            threshold,
            actual,
            pass,
        } => format!(
            "{{\"type\":\"event\",\"kind\":\"slo_check\",\"name\":\"{}\",\
             \"threshold\":\"{}\",\"actual\":\"{}\",\"pass\":{pass}}}",
            json_escape(name),
            json_escape(threshold),
            json_escape(actual)
        ),
    }
}

/// One JSON object per line: counters, gauges, histograms, links, then
/// events. Floats are printed with up to 6 decimal places.
#[derive(Clone, Copy, Debug, Default)]
pub struct JsonLinesSink;

impl Sink for JsonLinesSink {
    fn render(&self, s: &Snapshot) -> String {
        let mut out = String::new();
        for (n, v) in &s.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                json_escape(n)
            ));
        }
        for (n, v) in &s.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}\n",
                json_escape(n)
            ));
        }
        for (n, h) in &s.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"mean\":{:.6},\
                 \"min\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}\n",
                json_escape(n),
                h.count,
                h.mean,
                h.min,
                h.p50,
                h.p95,
                h.p99,
                h.max
            ));
        }
        for (path, st) in s.profile.iter() {
            out.push_str(&format!(
                "{{\"type\":\"profile\",\"phase\":\"{}\",\"invocations\":{},\"work\":{}}}\n",
                json_escape(path),
                st.invocations,
                st.work
            ));
        }
        for l in &s.links {
            out.push_str(&format!(
                "{{\"type\":\"link\",\"from\":{},\"to\":{},\"forwarded\":{},\
                 \"busy_cycles\":{},\"peak_queue\":{},\"utilization\":{:.6}}}\n",
                l.key.from,
                l.key.to,
                l.record.forwarded,
                l.record.busy_cycles,
                l.record.peak_queue,
                l.utilization
            ));
        }
        for (n, series) in &s.timeseries {
            let windows = series
                .windows()
                .map(|w| {
                    format!(
                        "{{\"index\":{},\"min\":{},\"max\":{},\"sum\":{},\
                         \"count\":{},\"last\":{}}}",
                        w.index, w.min, w.max, w.sum, w.count, w.last
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            let (hwm_v, hwm_c) = series.high_watermark().map_or_else(
                || ("null".to_string(), "null".to_string()),
                |(v, c)| (v.to_string(), c.to_string()),
            );
            out.push_str(&format!(
                "{{\"type\":\"series\",\"name\":\"{}\",\"cadence\":{},\
                 \"dropped_windows\":{},\"hwm_value\":{hwm_v},\"hwm_cycle\":{hwm_c},\
                 \"windows\":[{windows}]}}\n",
                json_escape(n),
                series.cadence(),
                series.dropped_windows(),
            ));
        }
        for e in &s.congestion {
            out.push_str(&format!(
                "{{\"type\":\"congestion\",\"kind\":\"{}\",\"severity\":\"{}\",\
                 \"subject\":\"{}\",\"window_start\":{},\"window_end\":{},\"peak\":{}}}\n",
                e.kind.label(),
                e.severity.label(),
                json_escape(&e.subject),
                e.window_start,
                e.window_end,
                e.peak
            ));
        }
        for e in &s.events {
            out.push_str(&event_json(e));
            out.push('\n');
        }
        for sp in &s.spans {
            let parent = sp
                .parent
                .map_or_else(|| "null".to_string(), |p| p.get().to_string());
            let end = sp.end.map_or_else(|| "null".to_string(), |e| e.to_string());
            let attrs = sp
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start\":{},\"end\":{end},\"attrs\":{{{attrs}}}}}\n",
                sp.id.get(),
                json_escape(&sp.name),
                sp.start,
            ));
        }
        out
    }
}

/// Chrome trace-event JSON — the format `chrome://tracing` and Perfetto
/// load directly.
///
/// Each span becomes one complete (`"ph":"X"`) event. Logical sim ticks
/// are written as microsecond timestamps (`ts`/`dur`), so the rendering
/// is deterministic: same seed, same bytes. All events share `pid` 0;
/// `tid` is the id of the span's root ancestor, so each packet or
/// protocol tree groups onto its own timeline row. Span attributes,
/// parent links, and an `open` marker for unclosed spans land in `args`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChromeTraceSink;

/// The id of `id`'s root ancestor within `spans` (itself when its
/// parent is absent — arbitrary snapshots may hold orphaned links).
fn root_ancestor(spans: &[SpanRecord], id: SpanId) -> SpanId {
    let parent_of = |id: SpanId| spans.iter().find(|sp| sp.id == id).and_then(|sp| sp.parent);
    let mut cur = id;
    let mut steps = 0;
    while let Some(p) = parent_of(cur) {
        steps += 1;
        if p >= cur || steps > spans.len() {
            break; // malformed link cycle in a hand-built snapshot
        }
        cur = p;
    }
    cur
}

impl Sink for ChromeTraceSink {
    fn render(&self, s: &Snapshot) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, sp) in s.spans.iter().enumerate() {
            let mut args = format!("\"span\":\"{}\"", sp.id);
            if let Some(p) = sp.parent {
                args.push_str(&format!(",\"parent\":\"{p}\""));
            }
            if sp.end.is_none() {
                args.push_str(",\"open\":\"true\"");
            }
            for (k, v) in &sp.attrs {
                args.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"hb\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                json_escape(&sp.name),
                sp.start,
                sp.duration(),
                root_ancestor(&s.spans, sp.id),
            ));
            if i + 1 < s.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Human-readable causal span trees: roots in id order, children
/// indented beneath their parents.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTreeSink;

fn render_span_line(out: &mut String, sp: &SpanRecord, depth: usize) {
    use std::fmt::Write;
    let end = sp.end.map_or_else(|| "open".to_string(), |e| e.to_string());
    let _ = write!(
        out,
        "{}[{}..{}] {}",
        "  ".repeat(depth),
        sp.start,
        end,
        sp.name
    );
    for (k, v) in &sp.attrs {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
}

fn render_span_subtree(out: &mut String, spans: &[SpanRecord], id: SpanId, depth: usize) {
    if let Some(sp) = spans.iter().find(|sp| sp.id == id) {
        render_span_line(out, sp, depth);
        for child in spans.iter().filter(|c| c.parent == Some(id)) {
            render_span_subtree(out, spans, child.id, depth + 1);
        }
    }
}

impl Sink for SpanTreeSink {
    fn render(&self, s: &Snapshot) -> String {
        let mut out = String::new();
        if s.spans.is_empty() && s.spans_dropped == 0 {
            return out;
        }
        out.push_str(&format!(
            "spans ({} recorded, {} dropped):\n",
            s.spans.len(),
            s.spans_dropped
        ));
        // A span whose parent is absent from the snapshot renders as a
        // root, so orphans stay visible instead of vanishing.
        for sp in &s.spans {
            let is_root = match sp.parent {
                None => true,
                Some(p) => !s.spans.iter().any(|o| o.id == p),
            };
            if is_root {
                render_span_subtree(&mut out, &s.spans, sp.id, 1);
            }
        }
        out
    }
}

/// The work-attribution profile as an indented phase tree: slash-
/// separated phase paths become nesting, shared prefixes render once,
/// leaves carry invocation and work-unit counts. Profiles are built
/// from deterministic work units (never wall clock), so this output is
/// byte-identical run to run and across thread counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfileSink;

impl Sink for ProfileSink {
    fn render(&self, s: &Snapshot) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if s.profile.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "work profile ({} phases, {} work units):",
            s.profile.len(),
            s.profile.total_work()
        );
        let mut prev: Vec<&str> = Vec::new();
        for (path, st) in s.profile.iter() {
            let segs: Vec<&str> = path.split('/').collect();
            let dirs = segs.len() - 1;
            let mut common = 0;
            while common < prev.len().min(dirs) && prev[common] == segs[common] {
                common += 1;
            }
            for (d, seg) in segs.iter().enumerate().take(dirs).skip(common) {
                let _ = writeln!(out, "{}{seg}/", "  ".repeat(d + 1));
            }
            let _ = writeln!(
                out,
                "{}{:<24} invocations {:>10}  work {:>12}  work/inv {:>8.2}",
                "  ".repeat(dirs + 1),
                segs[dirs],
                st.invocations,
                st.work,
                st.work_per_invocation()
            );
            prev = segs;
            prev.truncate(dirs);
        }
        out
    }
}

/// A deterministic run report for one simulation: metadata, per-window
/// phase timeline, top-k congested links as sparkline bars, the
/// detector's anomalies, and (when configured) SLO gate verdicts.
/// Output is pure logical-cycle data — same run, same bytes — so it can
/// be golden-pinned in CI.
#[derive(Clone, Debug)]
pub struct ReportSink {
    /// Report title (e.g. `HB(2, 3) hotspot`).
    pub title: String,
    /// Key/value header lines (topology, workload, fault plan, ...).
    pub meta: Vec<(String, String)>,
    /// Most-congested links to chart (0 = all).
    pub top_links: usize,
    /// SLO thresholds to evaluate and render as a gates section
    /// (`None` = no section, keeping existing reports byte-identical).
    pub slo: Option<SloSpec>,
}

impl Default for ReportSink {
    fn default() -> Self {
        ReportSink {
            title: String::new(),
            meta: Vec::new(),
            top_links: 8,
            slo: None,
        }
    }
}

/// One sparkline character per window: `max` scaled into eight levels.
fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let top = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if top == 0 {
                BARS[0]
            } else {
                BARS[((v as u128 * 7).div_ceil(top as u128)) as usize]
            }
        })
        .collect()
}

impl Sink for ReportSink {
    fn render(&self, s: &Snapshot) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "run report: {}", self.title);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "  {k:<14} {v}");
        }
        for (n, v) in &s.counters {
            let _ = writeln!(out, "  {n:<14} {v}");
        }

        // Phase timeline: the global series all sample once per cycle,
        // so they share window indices; drive rows off sim.in_flight.
        let at = |name: &str, index: u64| -> Option<&crate::timeseries::WindowAgg> {
            s.timeseries
                .get(name)
                .and_then(|sr| sr.windows().find(|w| w.index == index))
        };
        if let Some(fly) = s.timeseries.get("sim.in_flight") {
            let _ = writeln!(
                out,
                "phase timeline ({} windows x {} cycles, {} dropped):",
                fly.len(),
                fly.cadence(),
                fly.dropped_windows()
            );
            let _ = writeln!(
                out,
                "  {:>6} {:>9} {:>9} {:>9} {:>9}",
                "window", "injected", "delivered", "in-flight", "queue-max"
            );
            for w in fly.windows() {
                let inj = at("sim.injected", w.index).map_or(0, |x| x.sum);
                let dvr = at("sim.delivered", w.index).map_or(0, |x| x.sum);
                let qmx = at("sim.queue.max", w.index).map_or(0, |x| x.max);
                let _ = writeln!(
                    out,
                    "  {:>6} {:>9} {:>9} {:>9} {:>9}",
                    w.index, inj, dvr, w.max, qmx
                );
            }
        }

        // Top-k congested links, ranked by total queued-packet-cycles
        // (sum over retained windows), name as the tiebreak.
        let mut links: Vec<(u64, &String, &Series)> = s
            .timeseries
            .iter()
            .filter(|(n, _)| n.starts_with("link."))
            .map(|(n, series)| (series.total(), n, series))
            .collect();
        links.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        if !links.is_empty() {
            let shown = if self.top_links == 0 {
                links.len()
            } else {
                self.top_links.min(links.len())
            };
            let _ = writeln!(
                out,
                "top congested links ({} of {}, by queued packet-cycles):",
                shown,
                links.len()
            );
            for (total, n, series) in links.iter().take(shown) {
                let maxes: Vec<u64> = series.windows().map(|w| w.max).collect();
                let hwm = series
                    .high_watermark()
                    .map_or(String::new(), |(v, c)| format!("  hwm {v} @ cycle {c}"));
                let _ = writeln!(
                    out,
                    "  {:<28} {}  total {:>6}{hwm}",
                    n,
                    sparkline(&maxes),
                    total
                );
            }
        }

        let _ = writeln!(out, "anomalies ({}):", s.congestion.len());
        if s.congestion.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        for e in &s.congestion {
            let _ = writeln!(
                out,
                "  [{:>8}] {:<12} {:<28} windows {}..{} peak {}",
                e.severity.label(),
                e.kind.label(),
                e.subject,
                e.window_start,
                e.window_end,
                e.peak
            );
        }

        if let Some(spec) = &self.slo {
            let checks = spec.evaluate(s);
            let verdict = if crate::slo::all_pass(&checks) {
                "PASS"
            } else {
                "FAIL"
            };
            let _ = writeln!(out, "slo gates ({} checks): {verdict}", checks.len());
            for c in &checks {
                let _ = writeln!(
                    out,
                    "  [{}] {:<20} {:<10} actual {}",
                    if c.pass { "pass" } else { "FAIL" },
                    c.name,
                    c.threshold,
                    c.actual
                );
            }
        }
        out
    }
}

/// Quotes one CSV field per RFC 4180.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_record<I: IntoIterator<Item = String>>(fields: I) -> String {
    fields
        .into_iter()
        .map(|f| csv_field(&f))
        .collect::<Vec<_>>()
        .join(",")
}

/// RFC-4180 CSV, one headed section per instrument family, separated by
/// blank lines.
#[derive(Clone, Copy, Debug, Default)]
pub struct CsvSink;

impl Sink for CsvSink {
    fn render(&self, s: &Snapshot) -> String {
        let mut out = String::new();
        if !s.counters.is_empty() || !s.gauges.is_empty() {
            out.push_str("kind,name,value\n");
            for (n, v) in &s.counters {
                out.push_str(&csv_record(["counter".into(), n.clone(), v.to_string()]));
                out.push('\n');
            }
            for (n, v) in &s.gauges {
                out.push_str(&csv_record(["gauge".into(), n.clone(), v.to_string()]));
                out.push('\n');
            }
        }
        if !s.histograms.is_empty() {
            out.push_str("\nhistogram,count,mean,min,p50,p95,p99,max\n");
            for (n, h) in &s.histograms {
                out.push_str(&csv_record([
                    n.clone(),
                    h.count.to_string(),
                    format!("{:.6}", h.mean),
                    h.min.to_string(),
                    h.p50.to_string(),
                    h.p95.to_string(),
                    h.p99.to_string(),
                    h.max.to_string(),
                ]));
                out.push('\n');
            }
        }
        if !s.profile.is_empty() {
            out.push_str("\nphase,invocations,work\n");
            for (path, st) in s.profile.iter() {
                out.push_str(&csv_record([
                    path.to_string(),
                    st.invocations.to_string(),
                    st.work.to_string(),
                ]));
                out.push('\n');
            }
        }
        if !s.links.is_empty() {
            out.push_str("\nfrom,to,forwarded,busy_cycles,peak_queue,utilization\n");
            for l in &s.links {
                out.push_str(&csv_record([
                    l.key.from.to_string(),
                    l.key.to.to_string(),
                    l.record.forwarded.to_string(),
                    l.record.busy_cycles.to_string(),
                    l.record.peak_queue.to_string(),
                    format!("{:.6}", l.utilization),
                ]));
                out.push('\n');
            }
        }
        if !s.events.is_empty() {
            out.push_str("\nevent,id,src,dst,from,to,at,latency,protocol,round,messages,cycle\n");
            for e in &s.events {
                let empty = String::new;
                let row = match e {
                    Event::PacketInjected {
                        id,
                        src,
                        dst,
                        cycle,
                    } => [
                        "packet_injected".to_string(),
                        id.to_string(),
                        src.to_string(),
                        dst.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        cycle.to_string(),
                    ],
                    Event::PacketHop {
                        id,
                        from,
                        to,
                        cycle,
                    } => [
                        "packet_hop".to_string(),
                        id.to_string(),
                        empty(),
                        empty(),
                        from.to_string(),
                        to.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        cycle.to_string(),
                    ],
                    Event::PacketDelivered {
                        id,
                        dst,
                        latency,
                        cycle,
                    } => [
                        "packet_delivered".to_string(),
                        id.to_string(),
                        empty(),
                        dst.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        latency.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        cycle.to_string(),
                    ],
                    Event::PacketDropped { id, at, cycle } => [
                        "packet_dropped".to_string(),
                        id.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        at.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        cycle.to_string(),
                    ],
                    Event::RoundStarted { protocol, round } => [
                        "round_started".to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        protocol.clone(),
                        round.to_string(),
                        empty(),
                        empty(),
                    ],
                    Event::RoundEnded {
                        protocol,
                        round,
                        messages,
                    } => [
                        "round_ended".to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        protocol.clone(),
                        round.to_string(),
                        messages.to_string(),
                        empty(),
                    ],
                    // Congestion events reuse the shared columns:
                    // subject -> protocol, window span -> round/messages,
                    // flag cycle -> cycle; the dedicated congestion
                    // section below carries the full shape.
                    Event::Congestion {
                        kind,
                        severity,
                        subject,
                        window_start,
                        window_end,
                        peak,
                    } => [
                        format!("congestion_{}_{}", severity.label(), kind.label()),
                        peak.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        subject.clone(),
                        window_start.to_string(),
                        window_end.to_string(),
                        empty(),
                    ],
                    // SLO verdicts reuse the shared columns:
                    // objective name -> protocol, threshold -> round,
                    // observed value -> messages.
                    Event::SloCheck {
                        name,
                        threshold,
                        actual,
                        pass,
                    } => [
                        if *pass { "slo_pass" } else { "slo_fail" }.to_string(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        empty(),
                        name.clone(),
                        threshold.clone(),
                        actual.clone(),
                        empty(),
                    ],
                };
                out.push_str(&csv_record(row));
                out.push('\n');
            }
        }
        if !s.timeseries.is_empty() {
            out.push_str("\nseries,window,min,max,sum,count,last\n");
            for (n, series) in &s.timeseries {
                for w in series.windows() {
                    out.push_str(&csv_record([
                        n.clone(),
                        w.index.to_string(),
                        w.min.to_string(),
                        w.max.to_string(),
                        w.sum.to_string(),
                        w.count.to_string(),
                        w.last.to_string(),
                    ]));
                    out.push('\n');
                }
            }
        }
        if !s.congestion.is_empty() {
            out.push_str("\ncongestion,severity,subject,window_start,window_end,peak\n");
            for e in &s.congestion {
                out.push_str(&csv_record([
                    e.kind.label().to_string(),
                    e.severity.label().to_string(),
                    e.subject.clone(),
                    e.window_start.to_string(),
                    e.window_end.to_string(),
                    e.peak.to_string(),
                ]));
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkStats;
    use crate::Telemetry;

    /// A small deterministic snapshot exercising every instrument.
    fn sample_snapshot() -> Snapshot {
        let t = Telemetry::with_trace(8);
        t.counter("sim.cycles").add(100);
        t.counter("sim.delivered").add(2);
        t.gauge("in_flight").set(1);
        t.record("sim.latency", 4);
        t.record("sim.latency", 6);
        let mut ls = LinkStats::new();
        ls.record_forward(0, 1, 10);
        ls.record_busy(0, 1, 10);
        ls.observe_queue(0, 1, 2);
        t.merge_links(&ls);
        t.event(|| Event::PacketInjected {
            id: 0,
            src: 0,
            dst: 5,
            cycle: 0,
        });
        t.event(|| Event::PacketHop {
            id: 0,
            from: 0,
            to: 1,
            cycle: 1,
        });
        t.event(|| Event::PacketDelivered {
            id: 0,
            dst: 5,
            latency: 4,
            cycle: 4,
        });
        t.event(|| Event::RoundEnded {
            protocol: "election".into(),
            round: 3,
            messages: 12,
        });
        t.snapshot()
    }

    #[test]
    fn golden_json_lines() {
        let got = JsonLinesSink.render(&sample_snapshot());
        let want = "\
{\"type\":\"counter\",\"name\":\"sim.cycles\",\"value\":100}
{\"type\":\"counter\",\"name\":\"sim.delivered\",\"value\":2}
{\"type\":\"gauge\",\"name\":\"in_flight\",\"value\":1}
{\"type\":\"histogram\",\"name\":\"sim.latency\",\"count\":2,\"mean\":5.000000,\"min\":4,\"p50\":4,\"p95\":6,\"p99\":6,\"max\":6}
{\"type\":\"link\",\"from\":0,\"to\":1,\"forwarded\":10,\"busy_cycles\":10,\"peak_queue\":2,\"utilization\":0.100000}
{\"type\":\"event\",\"kind\":\"packet_injected\",\"id\":0,\"src\":0,\"dst\":5,\"cycle\":0}
{\"type\":\"event\",\"kind\":\"packet_hop\",\"id\":0,\"from\":0,\"to\":1,\"cycle\":1}
{\"type\":\"event\",\"kind\":\"packet_delivered\",\"id\":0,\"dst\":5,\"latency\":4,\"cycle\":4}
{\"type\":\"event\",\"kind\":\"round_ended\",\"protocol\":\"election\",\"round\":3,\"messages\":12}
";
        assert_eq!(got, want);
    }

    #[test]
    fn json_lines_are_individually_valid_objects() {
        // Sanity without a JSON parser dep: every line is brace-wrapped
        // and quotes balance.
        for line in JsonLinesSink.render(&sample_snapshot()).lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            let quotes = line.matches('"').count();
            assert_eq!(quotes % 2, 0, "{line}");
        }
    }

    #[test]
    fn json_escapes_names() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn text_sink_has_quantile_and_link_sections() {
        let s = TextSink::default().render(&sample_snapshot());
        assert!(s.contains("p50"));
        assert!(s.contains("p95"));
        assert!(s.contains("p99"));
        assert!(s.contains("per-link utilization"));
        assert!(s.contains("sim.latency"));
        assert!(s.contains("deliver #0"));
    }

    #[test]
    fn csv_sink_sections_have_headers() {
        let s = CsvSink.render(&sample_snapshot());
        assert!(s.contains("kind,name,value"));
        assert!(s.contains("histogram,count,mean,min,p50,p95,p99,max"));
        assert!(s.contains("from,to,forwarded,busy_cycles,peak_queue,utilization"));
        assert!(s.contains("counter,sim.cycles,100"));
        assert!(s.contains("0,1,10,10,2,0.100000"));
    }

    /// A snapshot with a small span forest (two roots, one nested tree).
    fn span_snapshot() -> Snapshot {
        let t = Telemetry::with_trace(8);
        let pkt = t.span_start("packet #0 0->5", None, 0);
        let hop = t.span_start("hop 0->1", pkt, 0);
        t.span_attr(hop, "queue", "2");
        t.span_attr(hop, "decision", "oblivious");
        t.span_end(hop, 2);
        t.span_end(pkt, 4);
        let open = t.span_start("round 1", None, 1);
        t.span_attr(open, "messages", "7");
        t.snapshot()
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let out = ChromeTraceSink.render(&span_snapshot());
        assert!(out.starts_with("{\"traceEvents\":[\n"));
        assert!(out.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        let body: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with('{') && l.contains("\"ph\":\"X\""))
            .collect();
        assert_eq!(body.len(), 3, "one complete event per span");
        for line in &body {
            for field in [
                "\"name\":",
                "\"ts\":",
                "\"dur\":",
                "\"pid\":",
                "\"tid\":",
                "\"args\":",
            ] {
                assert!(line.contains(field), "{line} missing {field}");
            }
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        }
        // The hop groups under its packet root (tid 1); the open span is
        // its own root and flagged open.
        assert!(body[1].contains("\"tid\":1"));
        assert!(body[1].contains("\"parent\":\"1\""));
        assert!(body[1].contains("\"queue\":\"2\""));
        assert!(body[2].contains("\"tid\":3"));
        assert!(body[2].contains("\"open\":\"true\""));
        assert!(body[2].contains("\"dur\":0"));
    }

    #[test]
    fn span_tree_renders_nesting_and_attrs() {
        let out = SpanTreeSink.render(&span_snapshot());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "spans (3 recorded, 0 dropped):");
        assert_eq!(lines[1], "  [0..4] packet #0 0->5");
        assert_eq!(lines[2], "    [0..2] hop 0->1 queue=2 decision=oblivious");
        assert_eq!(lines[3], "  [1..open] round 1 messages=7");
    }

    #[test]
    fn span_tree_empty_snapshot_renders_nothing() {
        assert_eq!(SpanTreeSink.render(&Snapshot::default()), "");
    }

    #[test]
    fn json_lines_include_spans() {
        let out = JsonLinesSink.render(&span_snapshot());
        assert!(out.contains(
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"hop 0->1\",\
             \"start\":0,\"end\":2,\"attrs\":{\"queue\":\"2\",\"decision\":\"oblivious\"}}"
        ));
        assert!(out.contains("\"id\":3,\"parent\":null"));
        assert!(out.contains("\"end\":null"));
    }

    #[test]
    fn csv_quoting_follows_rfc_4180() {
        assert_eq!(
            csv_record(["a,b".into(), "say \"hi\"".into()]),
            "\"a,b\",\"say \"\"hi\"\"\""
        );
    }

    #[test]
    fn csv_empty_snapshot_renders_nothing() {
        // No instruments -> no section headers, not even blank lines.
        assert_eq!(CsvSink.render(&Snapshot::default()), "");
    }

    #[test]
    fn csv_escapes_hostile_names() {
        let t = Telemetry::summary();
        t.counter("evil,name").inc();
        t.counter("say \"hi\"").add(2);
        let out = CsvSink.render(&t.snapshot());
        assert!(out.contains("counter,\"evil,name\",1"));
        assert!(out.contains("counter,\"say \"\"hi\"\"\",2"));
        // Every data row still splits into exactly three fields when
        // parsed with RFC-4180 quoting.
        for line in out.lines().skip(1) {
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        }
    }

    /// A snapshot with time-series and a detected congestion event.
    fn ts_snapshot() -> Snapshot {
        use crate::timeseries::{DetectorConfig, TsConfig};
        let t = Telemetry::with_trace(8);
        t.enable_timeseries(TsConfig::new(4).with_capacity(8));
        t.set_detector(DetectorConfig {
            hot_occupancy_pct: 100,
            sustain_windows: 2,
        });
        let cfg = TsConfig::new(4).with_capacity(8);
        let mut link = Series::new(cfg);
        let mut fly = Series::new(cfg);
        let mut inj = Series::new(cfg);
        for cycle in 0..12 {
            link.record(cycle, 1 + cycle / 4);
            fly.record(cycle, 3);
            inj.record(cycle, u64::from(cycle < 4));
        }
        t.merge_series("link.0->1.queue", link);
        t.merge_series("sim.in_flight", fly);
        t.merge_series("sim.injected", inj);
        t.detect_congestion();
        t.snapshot()
    }

    #[test]
    fn golden_json_lines_for_timeseries() {
        let s = ts_snapshot();
        let got: String = JsonLinesSink
            .render(&s)
            .lines()
            .filter(|l| {
                l.starts_with("{\"type\":\"series\"") || l.starts_with("{\"type\":\"congestion\"")
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let want = "\
{\"type\":\"series\",\"name\":\"link.0->1.queue\",\"cadence\":4,\"dropped_windows\":0,\"hwm_value\":3,\"hwm_cycle\":8,\"windows\":[{\"index\":0,\"min\":1,\"max\":1,\"sum\":4,\"count\":4,\"last\":1},{\"index\":1,\"min\":2,\"max\":2,\"sum\":8,\"count\":4,\"last\":2},{\"index\":2,\"min\":3,\"max\":3,\"sum\":12,\"count\":4,\"last\":3}]}
{\"type\":\"series\",\"name\":\"sim.in_flight\",\"cadence\":4,\"dropped_windows\":0,\"hwm_value\":3,\"hwm_cycle\":0,\"windows\":[{\"index\":0,\"min\":3,\"max\":3,\"sum\":12,\"count\":4,\"last\":3},{\"index\":1,\"min\":3,\"max\":3,\"sum\":12,\"count\":4,\"last\":3},{\"index\":2,\"min\":3,\"max\":3,\"sum\":12,\"count\":4,\"last\":3}]}
{\"type\":\"series\",\"name\":\"sim.injected\",\"cadence\":4,\"dropped_windows\":0,\"hwm_value\":1,\"hwm_cycle\":0,\"windows\":[{\"index\":0,\"min\":1,\"max\":1,\"sum\":4,\"count\":4,\"last\":1},{\"index\":1,\"min\":0,\"max\":0,\"sum\":0,\"count\":4,\"last\":0},{\"index\":2,\"min\":0,\"max\":0,\"sum\":0,\"count\":4,\"last\":0}]}
{\"type\":\"congestion\",\"kind\":\"hotspot-link\",\"severity\":\"warning\",\"subject\":\"link.0->1.queue\",\"window_start\":0,\"window_end\":2,\"peak\":3}
{\"type\":\"congestion\",\"kind\":\"queue-growth\",\"severity\":\"warning\",\"subject\":\"link.0->1.queue\",\"window_start\":1,\"window_end\":2,\"peak\":3}
{\"type\":\"congestion\",\"kind\":\"slow-drain\",\"severity\":\"warning\",\"subject\":\"sim.in_flight\",\"window_start\":1,\"window_end\":2,\"peak\":3}
";
        assert_eq!(got, want);
    }

    #[test]
    fn text_sink_surfaces_timeseries_congestion_and_span_drops() {
        let mut s = ts_snapshot();
        s.spans_dropped = 5;
        let out = TextSink::default().render(&s);
        assert!(out.contains("time-series (3 series):"));
        assert!(out.contains("link.0->1.queue"));
        assert!(out.contains("hwm 3 @ cycle 8"));
        assert!(out.contains("congestion (3 events):"));
        assert!(out.contains("hotspot-link"));
        assert!(out.contains("spans: 0 recorded, 5 dropped"));
        // The detector also appended severity-tagged trace events.
        assert!(out.contains("warning hotspot-link link.0->1.queue (peak 3)"));
    }

    #[test]
    fn report_sink_is_deterministic_with_sparklines() {
        let sink = ReportSink {
            title: "test run".into(),
            meta: vec![("topology".into(), "HB(1, 2)".into())],
            top_links: 4,
            slo: None,
        };
        let s = ts_snapshot();
        let a = sink.render(&s);
        assert_eq!(a, sink.render(&s), "same snapshot, same bytes");
        assert!(a.starts_with("run report: test run\n"));
        assert!(a.contains("  topology       HB(1, 2)"));
        assert!(a.contains("phase timeline (3 windows x 4 cycles, 0 dropped):"));
        assert!(a.contains("top congested links (1 of 1, by queued packet-cycles):"));
        // Window maxes 1,2,3 scale to low/mid/full bars.
        assert!(a.contains("▄▆█"));
        assert!(a.contains("anomalies (3):"));
        assert!(a.contains("[ warning] hotspot-link"));
    }

    #[test]
    fn report_sink_empty_snapshot_still_renders_headers() {
        let out = ReportSink::default().render(&Snapshot::default());
        assert!(out.starts_with("run report: \n"));
        assert!(out.contains("anomalies (0):"));
        assert!(out.contains("(none)"));
        assert!(!out.contains("slo gates"), "no SLO section unless asked");
    }

    /// A snapshot whose profile spans two top-level groups.
    fn profile_snapshot() -> Snapshot {
        let t = Telemetry::summary();
        let mut p = crate::profile::Profile::new();
        p.record("sim/route_lookup", 10, 40);
        p.record("sim/queue_service", 25, 25);
        p.record("shard/mailbox_merge", 4, 12);
        t.merge_profile(&p);
        t.snapshot()
    }

    #[test]
    fn golden_profile_tree() {
        let got = ProfileSink.render(&profile_snapshot());
        let want = "\
work profile (3 phases, 77 work units):
  shard/
    mailbox_merge            invocations          4  work           12  work/inv     3.00
  sim/
    queue_service            invocations         25  work           25  work/inv     1.00
    route_lookup             invocations         10  work           40  work/inv     4.00
";
        assert_eq!(got, want);
        assert_eq!(ProfileSink.render(&Snapshot::default()), "");
    }

    #[test]
    fn profile_reaches_every_format() {
        let s = profile_snapshot();
        let text = TextSink::default().render(&s);
        assert!(text.contains("work profile (3 phases, 77 work units):"));
        assert!(text.contains("sim/route_lookup"));
        let json = JsonLinesSink.render(&s);
        assert!(json.contains(
            "{\"type\":\"profile\",\"phase\":\"sim/route_lookup\",\
             \"invocations\":10,\"work\":40}"
        ));
        let csv = CsvSink.render(&s);
        assert!(csv.contains("phase,invocations,work"));
        assert!(csv.contains("sim/queue_service,25,25"));
        // Empty profiles stay invisible so existing goldens hold.
        let empty = Telemetry::summary().snapshot();
        assert!(!JsonLinesSink
            .render(&empty)
            .contains("\"type\":\"profile\""));
        assert!(!CsvSink.render(&empty).contains("phase,invocations,work"));
    }

    #[test]
    fn slo_check_events_render_in_every_format() {
        let t = Telemetry::with_trace(8);
        crate::slo::emit(
            &t,
            &[crate::slo::SloCheck {
                name: "p99_latency",
                threshold: "<= 40".into(),
                actual: "31".into(),
                pass: true,
            }],
        );
        let s = t.snapshot();
        assert!(TextSink::default()
            .render(&s)
            .contains("[   slo] pass p99_latency <= 40 (actual 31)"));
        assert!(JsonLinesSink.render(&s).contains(
            "{\"type\":\"event\",\"kind\":\"slo_check\",\"name\":\"p99_latency\",\
             \"threshold\":\"<= 40\",\"actual\":\"31\",\"pass\":true}"
        ));
        assert!(CsvSink
            .render(&s)
            .contains("slo_pass,,,,,,,,p99_latency,<= 40,31,"));
    }

    #[test]
    fn report_sink_renders_slo_gates_section() {
        let t = Telemetry::summary();
        t.counter("sim.offered").add(10);
        t.counter("sim.delivered").add(9);
        let s = t.snapshot();
        let sink = ReportSink {
            slo: Some(SloSpec {
                min_delivered_fraction: Some(0.95),
                max_unroutable: Some(0),
                ..SloSpec::default()
            }),
            ..ReportSink::default()
        };
        let out = sink.render(&s);
        assert!(out.contains("slo gates (2 checks): FAIL"));
        assert!(out.contains("[FAIL] delivered_fraction   >= 0.9500  actual 0.9000"));
        assert!(out.contains("[pass] unroutable"));
    }
}
