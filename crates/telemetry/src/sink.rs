//! Pluggable renderers for telemetry snapshots.
//!
//! A [`Snapshot`] is a point-in-time copy of every instrument; a
//! [`Sink`] writes it as text into any [`Write`]r, row by row, so no
//! sink holds its output: a JSON or CSV dump of a large run needs little
//! memory beyond the snapshot it reads. [`Sink::render`] collects the
//! same bytes into a `String` for tests and goldens. Seven sinks ship
//! here:
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
//!
//! The two span sinks resolve parent links through one id index built
//! per rendition, so they take O(n log n) time in the spans they print.

use crate::links::{keep_top, LinkStats};
use crate::profile::Profile;
use crate::slo::SloSpec;
use crate::span::{SpanId, SpanRecord};
use crate::timeseries::{CongestionEvent, SeriesStore};
use crate::trace::Event;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;

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
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-link statistics in key order, shared with the handle; sinks
    /// rank the rows they print ([`LinkStats::utilization_rows`]).
    pub links: Arc<LinkStats>,
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
    /// Windowed time-series, walked in name order (empty unless sampling
    /// was on); the link series are shared with the handle.
    pub timeseries: SeriesStore,
    /// Congestion events found by the detector, in detection order.
    pub congestion: Vec<CongestionEvent>,
    /// Deterministic work-attribution profile (empty unless profiling
    /// was on — sinks render nothing for an empty profile).
    pub profile: Profile,
}

/// Renders a [`Snapshot`] into a writer.
pub trait Sink {
    /// Writes the rendition to `w` as it goes, returning the first
    /// error `w` reports.
    fn write_to(&self, snapshot: &Snapshot, w: &mut dyn Write) -> io::Result<()>;

    /// The rendition as a string: the bytes [`Self::write_to`] writes.
    fn render(&self, snapshot: &Snapshot) -> String {
        let mut out = Vec::new();
        self.write_to(snapshot, &mut out)
            .expect("invariant: writing to a Vec never fails");
        String::from_utf8(out).expect("invariant: sinks write UTF-8")
    }
}

/// Fixed-width text tables for terminals: the 16 busiest links, the
/// first 16 time series and the last 32 retained trace events.
#[derive(Clone, Copy, Debug, Default)]
pub struct TextSink;

/// Link rows [`TextSink`] prints.
const TEXT_TOP_LINKS: usize = 16;
/// Trace events [`TextSink`] prints, the latest retained.
const TEXT_MAX_EVENTS: usize = 32;
/// Time-series rows [`TextSink`] prints.
const TEXT_MAX_SERIES: usize = 16;

impl Sink for TextSink {
    fn write_to(&self, s: &Snapshot, w: &mut dyn Write) -> io::Result<()> {
        if !s.counters.is_empty() {
            writeln!(w, "counters:")?;
            for (n, v) in &s.counters {
                writeln!(w, "  {n:<32} {v:>12}")?;
            }
        }
        if !s.histograms.is_empty() {
            writeln!(
                w,
                "{:<24} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>8}",
                "histogram", "count", "mean", "min", "p50", "p95", "p99", "max"
            )?;
            for (n, h) in &s.histograms {
                writeln!(
                    w,
                    "{:<24} {:>9} {:>9.2} {:>6} {:>6} {:>6} {:>6} {:>8}",
                    n, h.count, h.mean, h.min, h.p50, h.p95, h.p99, h.max
                )?;
            }
        }
        if !s.profile.is_empty() {
            writeln!(
                w,
                "work profile ({} phases, {} work units):",
                s.profile.len(),
                s.profile.total_work()
            )?;
            writeln!(
                w,
                "  {:<30} {:>12} {:>14} {:>10}",
                "phase", "invocations", "work", "work/inv"
            )?;
            for (path, st) in s.profile.iter() {
                writeln!(
                    w,
                    "  {:<30} {:>12} {:>14} {:>10.2}",
                    path,
                    st.invocations,
                    st.work,
                    st.work_per_invocation()
                )?;
            }
        }
        if !s.links.is_empty() {
            writeln!(
                w,
                "per-link utilization ({} links{}):",
                s.links.len(),
                s.cycles.map_or(String::new(), |c| format!(", {c} cycles"))
            )?;
            let table = s.links.render_table(s.cycles.unwrap_or(0), TEXT_TOP_LINKS);
            w.write_all(table.as_bytes())?;
        }
        if !s.timeseries.is_empty() {
            writeln!(w, "time-series ({} series):", s.timeseries.len())?;
            for (n, series) in s.timeseries.iter().take(TEXT_MAX_SERIES) {
                let hwm = series
                    .high_watermark()
                    .map_or(String::new(), |(v, c)| format!(", hwm {v} @ cycle {c}"));
                writeln!(
                    w,
                    "  {:<32} {:>4} windows x{} cadence ({} dropped){hwm}",
                    n,
                    series.len(),
                    series.cadence(),
                    series.dropped_windows()
                )?;
            }
            if s.timeseries.len() > TEXT_MAX_SERIES {
                writeln!(
                    w,
                    "  ({} more series not shown)",
                    s.timeseries.len() - TEXT_MAX_SERIES
                )?;
            }
        }
        if !s.congestion.is_empty() {
            writeln!(w, "congestion ({} events):", s.congestion.len())?;
            for e in &s.congestion {
                writeln!(
                    w,
                    "  [{:>8}] {:<12} {:<32} windows {}..{} peak {}",
                    e.severity.label(),
                    e.kind.label(),
                    e.subject,
                    e.window_start,
                    e.window_end,
                    e.peak
                )?;
            }
        }
        if !s.events.is_empty() || s.events_dropped > 0 {
            writeln!(
                w,
                "trace ({} events retained, {} dropped):",
                s.events.len(),
                s.events_dropped
            )?;
            let skip = s.events.len().saturating_sub(TEXT_MAX_EVENTS);
            if skip > 0 {
                writeln!(w, "  ... {skip} earlier events omitted")?;
            }
            for e in s.events.iter().skip(skip) {
                write_event_text(w, e)?;
            }
        }
        if !s.spans.is_empty() || s.spans_dropped > 0 {
            writeln!(
                w,
                "spans: {} recorded, {} dropped",
                s.spans.len(),
                s.spans_dropped
            )?;
        }
        Ok(())
    }
}

/// Writes `e` as one indented line of [`TextSink`]'s trace section.
fn write_event_text(w: &mut dyn Write, e: &Event) -> io::Result<()> {
    match e {
        Event::PacketInjected {
            id,
            src,
            dst,
            cycle,
        } => writeln!(w, "  [{cycle:>6}] inject  #{id} {src} -> {dst}"),
        Event::PacketHop {
            id,
            from,
            to,
            cycle,
        } => writeln!(w, "  [{cycle:>6}] hop     #{id} {from} -> {to}"),
        Event::PacketDelivered {
            id,
            dst,
            latency,
            cycle,
        } => writeln!(
            w,
            "  [{cycle:>6}] deliver #{id} at {dst} (latency {latency})"
        ),
        Event::PacketDropped { id, at, cycle } => {
            writeln!(w, "  [{cycle:>6}] drop    #{id} at {at}")
        }
        Event::Congestion {
            kind,
            severity,
            subject,
            window_start,
            window_end,
            peak,
        } => writeln!(
            w,
            "  [w {window_start:>4}..{window_end:<4}] {} {} {subject} (peak {peak})",
            severity.label(),
            kind.label()
        ),
        Event::SloCheck {
            name,
            threshold,
            actual,
            pass,
        } => writeln!(
            w,
            "  [   slo] {} {name} {threshold} (actual {actual})",
            if *pass { "pass" } else { "FAIL" }
        ),
    }
}

/// Escapes a string for a JSON string literal (no surrounding quotes).
#[must_use]
pub fn json_escape(s: &str) -> String {
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

/// Writes `e` as one line of [`JsonLinesSink`].
fn write_event_json(w: &mut dyn Write, e: &Event) -> io::Result<()> {
    match e {
        Event::PacketInjected {
            id,
            src,
            dst,
            cycle,
        } => writeln!(
            w,
            "{{\"type\":\"event\",\"kind\":\"packet_injected\",\"id\":{id},\"src\":{src},\
             \"dst\":{dst},\"cycle\":{cycle}}}"
        ),
        Event::PacketHop {
            id,
            from,
            to,
            cycle,
        } => writeln!(
            w,
            "{{\"type\":\"event\",\"kind\":\"packet_hop\",\"id\":{id},\"from\":{from},\
             \"to\":{to},\"cycle\":{cycle}}}"
        ),
        Event::PacketDelivered {
            id,
            dst,
            latency,
            cycle,
        } => writeln!(
            w,
            "{{\"type\":\"event\",\"kind\":\"packet_delivered\",\"id\":{id},\"dst\":{dst},\
             \"latency\":{latency},\"cycle\":{cycle}}}"
        ),
        Event::PacketDropped { id, at, cycle } => writeln!(
            w,
            "{{\"type\":\"event\",\"kind\":\"packet_dropped\",\"id\":{id},\"at\":{at},\
             \"cycle\":{cycle}}}"
        ),
        Event::Congestion {
            kind,
            severity,
            subject,
            window_start,
            window_end,
            peak,
        } => writeln!(
            w,
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
        } => writeln!(
            w,
            "{{\"type\":\"event\",\"kind\":\"slo_check\",\"name\":\"{}\",\
             \"threshold\":\"{}\",\"actual\":\"{}\",\"pass\":{pass}}}",
            json_escape(name),
            json_escape(threshold),
            json_escape(actual)
        ),
    }
}

/// Writes `v` as a JSON number, or `null` for `None`.
fn write_json_opt(w: &mut dyn Write, v: Option<u64>) -> io::Result<()> {
    match v {
        Some(v) => write!(w, "{v}"),
        None => w.write_all(b"null"),
    }
}

/// One JSON object per line: counters, histograms, links, then
/// events. Floats are printed with up to 6 decimal places.
#[derive(Clone, Copy, Debug, Default)]
pub struct JsonLinesSink;

impl Sink for JsonLinesSink {
    fn write_to(&self, s: &Snapshot, w: &mut dyn Write) -> io::Result<()> {
        for (n, v) in &s.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                json_escape(n)
            )?;
        }
        for (n, h) in &s.histograms {
            writeln!(
                w,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"mean\":{:.6},\
                 \"min\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                json_escape(n),
                h.count,
                h.mean,
                h.min,
                h.p50,
                h.p95,
                h.p99,
                h.max
            )?;
        }
        for (path, st) in s.profile.iter() {
            writeln!(
                w,
                "{{\"type\":\"profile\",\"phase\":\"{}\",\"invocations\":{},\"work\":{}}}",
                json_escape(path),
                st.invocations,
                st.work
            )?;
        }
        for l in s.links.utilization_rows(s.cycles.unwrap_or(0), 0) {
            writeln!(
                w,
                "{{\"type\":\"link\",\"from\":{},\"to\":{},\"forwarded\":{},\
                 \"busy_cycles\":{},\"peak_queue\":{},\"utilization\":{:.6}}}",
                l.key.from,
                l.key.to,
                l.record.forwarded,
                l.record.busy_cycles,
                l.record.peak_queue,
                l.utilization
            )?;
        }
        for (n, series) in s.timeseries.iter() {
            write!(
                w,
                "{{\"type\":\"series\",\"name\":\"{}\",\"cadence\":{},\
                 \"dropped_windows\":{},\"hwm_value\":",
                json_escape(&n.to_string()),
                series.cadence(),
                series.dropped_windows(),
            )?;
            let hwm = series.high_watermark();
            write_json_opt(w, hwm.map(|(v, _)| v))?;
            w.write_all(b",\"hwm_cycle\":")?;
            write_json_opt(w, hwm.map(|(_, c)| c))?;
            w.write_all(b",\"windows\":[")?;
            for (i, win) in series.windows().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                write!(
                    w,
                    "{{\"index\":{},\"min\":{},\"max\":{},\"sum\":{},\"count\":{},\"last\":{}}}",
                    win.index, win.min, win.max, win.sum, win.count, win.last
                )?;
            }
            writeln!(w, "]}}")?;
        }
        for e in &s.congestion {
            writeln!(
                w,
                "{{\"type\":\"congestion\",\"kind\":\"{}\",\"severity\":\"{}\",\
                 \"subject\":\"{}\",\"window_start\":{},\"window_end\":{},\"peak\":{}}}",
                e.kind.label(),
                e.severity.label(),
                json_escape(&e.subject),
                e.window_start,
                e.window_end,
                e.peak
            )?;
        }
        for e in &s.events {
            write_event_json(w, e)?;
        }
        for sp in &s.spans {
            write!(w, "{{\"type\":\"span\",\"id\":{},\"parent\":", sp.id)?;
            write_json_opt(w, sp.parent.map(SpanId::get))?;
            write!(
                w,
                ",\"name\":\"{}\",\"start\":{},\"end\":",
                json_escape(&sp.name),
                sp.start
            )?;
            write_json_opt(w, sp.end)?;
            w.write_all(b",\"attrs\":{")?;
            for (i, (k, v)) in sp.attrs.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                write!(w, "\"{}\":\"{}\"", json_escape(k), json_escape(v))?;
            }
            writeln!(w, "}}}}")?;
        }
        Ok(())
    }
}

/// Chrome trace-event JSON — the format `chrome://tracing` and Perfetto
/// load directly.
///
/// Each span becomes one complete (`"ph":"X"`) event. Logical sim ticks
/// are written as microsecond timestamps (`ts`/`dur`), so the rendering
/// is deterministic: same seed, same bytes. All events share `pid` 0;
/// `tid` is the id of the span's root ancestor, so each packet's tree
/// groups onto its own timeline row. Span attributes, parent links, and
/// an `open` marker for unclosed spans land in `args`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChromeTraceSink;

/// Each span id's position in `spans`, the first one where an id
/// repeats. A snapshot lists its spans in id order, but a filtered or
/// hand-built one may list a child before its parent or orphan a span.
fn span_index(spans: &[SpanRecord]) -> BTreeMap<SpanId, usize> {
    let mut index = BTreeMap::new();
    for (at, sp) in spans.iter().enumerate() {
        index.entry(sp.id).or_insert(at);
    }
    index
}

/// Each span id's root ancestor: its parent links followed while each
/// leads to a smaller id (a hand-built snapshot may link in cycles), up
/// to the first id absent from `spans`, which is the root. Ids ascend,
/// so a parent's root is known before its children ask for it.
fn root_ancestors(spans: &[SpanRecord]) -> BTreeMap<SpanId, SpanId> {
    let mut roots = BTreeMap::new();
    for (id, at) in span_index(spans) {
        let root = match spans[at].parent {
            Some(p) if p < id => roots.get(&p).copied().unwrap_or(p),
            _ => id,
        };
        roots.insert(id, root);
    }
    roots
}

impl Sink for ChromeTraceSink {
    fn write_to(&self, s: &Snapshot, w: &mut dyn Write) -> io::Result<()> {
        let roots = root_ancestors(&s.spans);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, sp) in s.spans.iter().enumerate() {
            write!(
                w,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"hb\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"span\":\"{}\"",
                json_escape(&sp.name),
                sp.start,
                sp.duration(),
                roots[&sp.id],
                sp.id
            )?;
            if let Some(p) = sp.parent {
                write!(w, ",\"parent\":\"{p}\"")?;
            }
            if sp.end.is_none() {
                w.write_all(b",\"open\":\"true\"")?;
            }
            for (k, v) in &sp.attrs {
                write!(w, ",\"{}\":\"{}\"", json_escape(k), json_escape(v))?;
            }
            let last = i + 1 == s.spans.len();
            w.write_all(if last { b"}}\n" } else { b"}},\n" })?;
        }
        w.write_all(b"],\"displayTimeUnit\":\"ms\"}\n")
    }
}

/// Human-readable causal span trees: roots, and each span's children
/// indented beneath it, in the order the snapshot lists them (id order
/// for a handle's snapshot).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTreeSink;

impl Sink for SpanTreeSink {
    fn write_to(&self, s: &Snapshot, w: &mut dyn Write) -> io::Result<()> {
        if s.spans.is_empty() && s.spans_dropped == 0 {
            return Ok(());
        }
        writeln!(
            w,
            "spans ({} recorded, {} dropped):",
            s.spans.len(),
            s.spans_dropped
        )?;
        // Each id renders its first record once; a later record of the
        // same id is skipped, so every span has one parent and the walk
        // ends. A span whose parent is absent from the snapshot renders
        // as a root, so orphans stay visible instead of vanishing.
        let index = span_index(&s.spans);
        let mut children = vec![Vec::new(); s.spans.len()];
        let mut roots = Vec::new();
        for (at, sp) in s.spans.iter().enumerate() {
            if index[&sp.id] == at {
                match sp.parent.and_then(|p| index.get(&p)) {
                    Some(&parent) => children[parent].push(at),
                    None => roots.push(at),
                }
            }
        }
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&at| (at, 1)).collect();
        while let Some((at, depth)) = stack.pop() {
            let sp = &s.spans[at];
            write!(w, "{:indent$}[{}..", "", sp.start, indent = 2 * depth)?;
            match sp.end {
                Some(end) => write!(w, "{end}] {}", sp.name)?,
                None => write!(w, "open] {}", sp.name)?,
            }
            for (k, v) in &sp.attrs {
                write!(w, " {k}={v}")?;
            }
            writeln!(w)?;
            stack.extend(children[at].iter().rev().map(|&c| (c, depth + 1)));
        }
        Ok(())
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
    fn write_to(&self, s: &Snapshot, w: &mut dyn Write) -> io::Result<()> {
        if s.profile.is_empty() {
            return Ok(());
        }
        writeln!(
            w,
            "work profile ({} phases, {} work units):",
            s.profile.len(),
            s.profile.total_work()
        )?;
        let mut prev: Vec<&str> = Vec::new();
        for (path, st) in s.profile.iter() {
            let segs: Vec<&str> = path.split('/').collect();
            let dirs = segs.len() - 1;
            let mut common = 0;
            while common < prev.len().min(dirs) && prev[common] == segs[common] {
                common += 1;
            }
            for (d, seg) in segs.iter().enumerate().take(dirs).skip(common) {
                writeln!(w, "{}{seg}/", "  ".repeat(d + 1))?;
            }
            writeln!(
                w,
                "{}{:<24} invocations {:>10}  work {:>12}  work/inv {:>8.2}",
                "  ".repeat(dirs + 1),
                segs[dirs],
                st.invocations,
                st.work,
                st.work_per_invocation()
            )?;
            prev = segs;
            prev.truncate(dirs);
        }
        Ok(())
    }
}

/// A deterministic run report for one simulation: metadata, per-window
/// phase timeline, the 8 most congested links as sparkline bars, the
/// detector's anomalies, and (when configured) SLO gate verdicts. Output
/// is pure logical-cycle data — same run, same bytes — so it can be
/// golden-pinned in CI.
#[derive(Clone, Debug, Default)]
pub struct ReportSink {
    /// Report title (e.g. `HB(2, 3) hotspot`).
    pub title: String,
    /// Key/value header lines (topology, workload, fault plan, ...).
    pub meta: Vec<(String, String)>,
    /// SLO thresholds to evaluate and render as a gates section
    /// (`None` = no section, keeping existing reports byte-identical).
    pub slo: Option<SloSpec>,
}

/// Most-congested links [`ReportSink`] charts.
const REPORT_TOP_LINKS: usize = 8;

/// Writes one sparkline character per window: `max` scaled into eight
/// levels.
fn write_sparkline(w: &mut dyn Write, values: &[u64]) -> io::Result<()> {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let top = values.iter().copied().max().unwrap_or(0);
    for &v in values {
        let level = if top == 0 {
            0
        } else {
            (v as u128 * 7).div_ceil(top as u128) as usize
        };
        write!(w, "{}", BARS[level])?;
    }
    Ok(())
}

impl Sink for ReportSink {
    fn write_to(&self, s: &Snapshot, w: &mut dyn Write) -> io::Result<()> {
        writeln!(w, "run report: {}", self.title)?;
        for (k, v) in &self.meta {
            writeln!(w, "  {k:<14} {v}")?;
        }
        for (n, v) in &s.counters {
            writeln!(w, "  {n:<14} {v}")?;
        }

        // Phase timeline: the global series all sample once per cycle,
        // so they share window indices; drive rows off sim.in_flight.
        let at = |name: &str, index: u64| -> Option<&crate::timeseries::WindowAgg> {
            s.timeseries
                .named(name)
                .and_then(|sr| sr.windows().find(|win| win.index == index))
        };
        if let Some(fly) = s.timeseries.named("sim.in_flight") {
            writeln!(
                w,
                "phase timeline ({} windows x {} cycles, {} dropped):",
                fly.len(),
                fly.cadence(),
                fly.dropped_windows()
            )?;
            writeln!(
                w,
                "  {:>6} {:>9} {:>9} {:>9} {:>9}",
                "window", "injected", "delivered", "in-flight", "queue-max"
            )?;
            for win in fly.windows() {
                let inj = at("sim.injected", win.index).map_or(0, |x| x.sum);
                let dvr = at("sim.delivered", win.index).map_or(0, |x| x.sum);
                let qmx = at("sim.queue.max", win.index).map_or(0, |x| x.max);
                writeln!(
                    w,
                    "  {:>6} {:>9} {:>9} {:>9} {:>9}",
                    win.index, inj, dvr, win.max, qmx
                )?;
            }
        }

        // Top-k congested links, ranked by total queued-packet-cycles
        // (sum over retained windows), name as the tiebreak: the walk is
        // in name order, so its position stands in for the name.
        let mut links: Vec<_> = s
            .timeseries
            .iter()
            .filter(|(n, _)| n.is_link())
            .enumerate()
            .map(|(at, (n, series))| (series.total(), at, n, series))
            .collect();
        let total_links = links.len();
        keep_top(&mut links, REPORT_TOP_LINKS, |a, b| {
            b.0.cmp(&a.0).then(a.1.cmp(&b.1))
        });
        if !links.is_empty() {
            writeln!(
                w,
                "top congested links ({} of {}, by queued packet-cycles):",
                links.len(),
                total_links
            )?;
            for (total, _, n, series) in &links {
                let maxes: Vec<u64> = series.windows().map(|win| win.max).collect();
                write!(w, "  {n:<28} ")?;
                write_sparkline(w, &maxes)?;
                write!(w, "  total {total:>6}")?;
                if let Some((v, c)) = series.high_watermark() {
                    write!(w, "  hwm {v} @ cycle {c}")?;
                }
                writeln!(w)?;
            }
        }

        writeln!(w, "anomalies ({}):", s.congestion.len())?;
        if s.congestion.is_empty() {
            writeln!(w, "  (none)")?;
        }
        for e in &s.congestion {
            writeln!(
                w,
                "  [{:>8}] {:<12} {:<28} windows {}..{} peak {}",
                e.severity.label(),
                e.kind.label(),
                e.subject,
                e.window_start,
                e.window_end,
                e.peak
            )?;
        }

        if let Some(spec) = &self.slo {
            let checks = spec.evaluate(s);
            let verdict = if crate::slo::all_pass(&checks) {
                "PASS"
            } else {
                "FAIL"
            };
            writeln!(w, "slo gates ({} checks): {verdict}", checks.len())?;
            for c in &checks {
                writeln!(
                    w,
                    "  [{}] {:<20} {:<10} actual {}",
                    if c.pass { "pass" } else { "FAIL" },
                    c.name,
                    c.threshold,
                    c.actual
                )?;
            }
        }
        Ok(())
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

/// Joins fields into one CSV record, quoting each per RFC 4180.
#[must_use]
pub fn csv_record<I: IntoIterator<Item = String>>(fields: I) -> String {
    fields
        .into_iter()
        .map(|f| csv_field(&f))
        .collect::<Vec<_>>()
        .join(",")
}

/// Writes `e` as one row under [`CsvSink`]'s event header; a row leaves
/// blank the columns its kind lacks.
fn write_event_csv(w: &mut dyn Write, e: &Event) -> io::Result<()> {
    match e {
        Event::PacketInjected {
            id,
            src,
            dst,
            cycle,
        } => writeln!(w, "packet_injected,{id},{src},{dst},,,,,,,,{cycle}"),
        Event::PacketHop {
            id,
            from,
            to,
            cycle,
        } => writeln!(w, "packet_hop,{id},,,{from},{to},,,,,,{cycle}"),
        Event::PacketDelivered {
            id,
            dst,
            latency,
            cycle,
        } => writeln!(w, "packet_delivered,{id},,{dst},,,,{latency},,,,{cycle}"),
        Event::PacketDropped { id, at, cycle } => {
            writeln!(w, "packet_dropped,{id},,,,,{at},,,,,{cycle}")
        }
        // Congestion events reuse the shared columns: peak -> id,
        // subject -> protocol, window span -> round/messages; the
        // dedicated congestion section carries the full shape.
        Event::Congestion {
            kind,
            severity,
            subject,
            window_start,
            window_end,
            peak,
        } => writeln!(
            w,
            "congestion_{}_{},{peak},,,,,,,{},{window_start},{window_end},",
            severity.label(),
            kind.label(),
            csv_field(subject)
        ),
        // SLO verdicts reuse the shared columns: objective name ->
        // protocol, threshold -> round, observed value -> messages.
        Event::SloCheck {
            name,
            threshold,
            actual,
            pass,
        } => writeln!(
            w,
            "{},,,,,,,,{},{},{},",
            if *pass { "slo_pass" } else { "slo_fail" },
            csv_field(name),
            csv_field(threshold),
            csv_field(actual)
        ),
    }
}

/// RFC-4180 CSV, one headed section per instrument family, separated by
/// blank lines.
#[derive(Clone, Copy, Debug, Default)]
pub struct CsvSink;

impl Sink for CsvSink {
    fn write_to(&self, s: &Snapshot, w: &mut dyn Write) -> io::Result<()> {
        if !s.counters.is_empty() {
            writeln!(w, "kind,name,value")?;
            for (n, v) in &s.counters {
                writeln!(w, "counter,{},{v}", csv_field(n))?;
            }
        }
        if !s.histograms.is_empty() {
            writeln!(w, "\nhistogram,count,mean,min,p50,p95,p99,max")?;
            for (n, h) in &s.histograms {
                writeln!(
                    w,
                    "{},{},{:.6},{},{},{},{},{}",
                    csv_field(n),
                    h.count,
                    h.mean,
                    h.min,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                )?;
            }
        }
        if !s.profile.is_empty() {
            writeln!(w, "\nphase,invocations,work")?;
            for (path, st) in s.profile.iter() {
                writeln!(w, "{},{},{}", csv_field(path), st.invocations, st.work)?;
            }
        }
        if !s.links.is_empty() {
            writeln!(w, "\nfrom,to,forwarded,busy_cycles,peak_queue,utilization")?;
            for l in s.links.utilization_rows(s.cycles.unwrap_or(0), 0) {
                writeln!(
                    w,
                    "{},{},{},{},{},{:.6}",
                    l.key.from,
                    l.key.to,
                    l.record.forwarded,
                    l.record.busy_cycles,
                    l.record.peak_queue,
                    l.utilization
                )?;
            }
        }
        if !s.events.is_empty() {
            writeln!(
                w,
                "\nevent,id,src,dst,from,to,at,latency,protocol,round,messages,cycle"
            )?;
            for e in &s.events {
                write_event_csv(w, e)?;
            }
        }
        if !s.timeseries.is_empty() {
            writeln!(w, "\nseries,window,min,max,sum,count,last")?;
            for (n, series) in s.timeseries.iter() {
                let n = csv_field(&n.to_string());
                for win in series.windows() {
                    writeln!(
                        w,
                        "{n},{},{},{},{},{},{}",
                        win.index, win.min, win.max, win.sum, win.count, win.last
                    )?;
                }
            }
        }
        if !s.congestion.is_empty() {
            writeln!(
                w,
                "\ncongestion,severity,subject,window_start,window_end,peak"
            )?;
            for e in &s.congestion {
                writeln!(
                    w,
                    "{},{},{},{},{},{}",
                    e.kind.label(),
                    e.severity.label(),
                    csv_field(&e.subject),
                    e.window_start,
                    e.window_end,
                    e.peak
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// A small deterministic snapshot exercising every instrument.
    fn sample_snapshot() -> Snapshot {
        let t = Telemetry::with_trace(8);
        t.counter("sim.cycles").add(100);
        t.counter("sim.delivered").add(2);
        let mut latency = crate::Histogram::new();
        latency.record(4);
        latency.record(6);
        t.merge_histogram("sim.latency", &latency);
        let mut ls = LinkStats::new();
        ls.add(
            0,
            1,
            crate::LinkRecord {
                forwarded: 10,
                busy_cycles: 10,
                peak_queue: 2,
            },
        );
        t.merge_links(ls);
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
        t.event(|| Event::PacketDropped {
            id: 1,
            at: 3,
            cycle: 5,
        });
        t.snapshot()
    }

    #[test]
    fn golden_json_lines() {
        let got = JsonLinesSink.render(&sample_snapshot());
        let want = "\
{\"type\":\"counter\",\"name\":\"sim.cycles\",\"value\":100}
{\"type\":\"counter\",\"name\":\"sim.delivered\",\"value\":2}
{\"type\":\"histogram\",\"name\":\"sim.latency\",\"count\":2,\"mean\":5.000000,\"min\":4,\"p50\":4,\"p95\":6,\"p99\":6,\"max\":6}
{\"type\":\"link\",\"from\":0,\"to\":1,\"forwarded\":10,\"busy_cycles\":10,\"peak_queue\":2,\"utilization\":0.100000}
{\"type\":\"event\",\"kind\":\"packet_injected\",\"id\":0,\"src\":0,\"dst\":5,\"cycle\":0}
{\"type\":\"event\",\"kind\":\"packet_hop\",\"id\":0,\"from\":0,\"to\":1,\"cycle\":1}
{\"type\":\"event\",\"kind\":\"packet_delivered\",\"id\":0,\"dst\":5,\"latency\":4,\"cycle\":4}
{\"type\":\"event\",\"kind\":\"packet_dropped\",\"id\":1,\"at\":3,\"cycle\":5}
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
        let s = TextSink.render(&sample_snapshot());
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

    /// Spans as a filtered or hand-edited snapshot may hold them: out of
    /// id order, a parent listed after its child, an orphan whose parent
    /// was filtered out (with a child of its own), and a link to a parent
    /// with a larger id.
    fn tangled_span_snapshot() -> Snapshot {
        let t = Telemetry::with_trace(16);
        let p0 = t.span_start("packet #0", None, 0);
        let h01 = t.span_start("hop 0->1", p0, 0);
        let h13 = t.span_start("hop 1->3", p0, 1);
        let p1 = t.span_start("packet #1", None, 2);
        let h23 = t.span_start("hop 2->3", p1, 2);
        let wait = t.span_start("wait", h23, 3);
        let p2 = t.span_start("packet #2", None, 4);
        let h45 = t.span_start("hop 4->5", p2, 4);
        let h57 = t.span_start("hop 5->7", h45, 5);
        t.span_attr(h45, "queue", "1");
        for (id, end) in [(h01, 1), (h13, 2), (p0, 2), (wait, 4), (h23, 4), (h57, 6)] {
            t.span_end(id, end);
        }
        let mut s = t.snapshot();
        let by_id = |id: Option<SpanId>| {
            s.spans
                .iter()
                .find(|sp| Some(sp.id) == id)
                .cloned()
                .expect("span recorded")
        };
        let mut h13 = by_id(h13);
        h13.parent = h45;
        s.spans = vec![
            by_id(h23),
            h13,
            by_id(h57),
            by_id(p0),
            by_id(h45),
            by_id(wait),
            by_id(h01),
            by_id(p1),
        ];
        s
    }

    #[test]
    fn span_sinks_pin_orphans_and_out_of_order_spans() {
        let s = tangled_span_snapshot();
        assert_eq!(
            SpanTreeSink.render(&s),
            "\
spans (8 recorded, 0 dropped):
  [0..2] packet #0
    [0..1] hop 0->1
  [4..open] hop 4->5 queue=1
    [1..2] hop 1->3
    [5..6] hop 5->7
  [2..open] packet #1
    [2..4] hop 2->3
      [3..4] wait
"
        );
        // A tid is the last ancestor reached through smaller ids, even
        // one filtered out of the snapshot (7).
        assert_eq!(
            ChromeTraceSink.render(&s),
            r#"{"traceEvents":[
{"ph":"X","name":"hop 2->3","cat":"hb","ts":2,"dur":2,"pid":0,"tid":4,"args":{"span":"5","parent":"4"}},
{"ph":"X","name":"hop 1->3","cat":"hb","ts":1,"dur":1,"pid":0,"tid":3,"args":{"span":"3","parent":"8"}},
{"ph":"X","name":"hop 5->7","cat":"hb","ts":5,"dur":1,"pid":0,"tid":7,"args":{"span":"9","parent":"8"}},
{"ph":"X","name":"packet #0","cat":"hb","ts":0,"dur":2,"pid":0,"tid":1,"args":{"span":"1"}},
{"ph":"X","name":"hop 4->5","cat":"hb","ts":4,"dur":0,"pid":0,"tid":7,"args":{"span":"8","parent":"7","open":"true","queue":"1"}},
{"ph":"X","name":"wait","cat":"hb","ts":3,"dur":1,"pid":0,"tid":4,"args":{"span":"6","parent":"5"}},
{"ph":"X","name":"hop 0->1","cat":"hb","ts":0,"dur":1,"pid":0,"tid":1,"args":{"span":"2","parent":"1"}},
{"ph":"X","name":"packet #1","cat":"hb","ts":2,"dur":0,"pid":0,"tid":4,"args":{"span":"4","open":"true"}}
],"displayTimeUnit":"ms"}
"#
        );
    }

    #[test]
    fn span_sinks_render_a_repeated_id_by_its_first_record() {
        // A later record of id 1 naming itself as parent: the tree
        // renders each id's first record once and ends, and the Chrome
        // tid comes from the first record too.
        let mut s = span_snapshot();
        let mut again = s.spans[0].clone();
        again.parent = Some(again.id);
        s.spans.push(again);
        let want = SpanTreeSink.render(&span_snapshot());
        assert_eq!(
            SpanTreeSink.render(&s),
            want.replace("3 recorded", "4 recorded")
        );
        assert!(ChromeTraceSink
            .render(&s)
            .contains("\"tid\":1,\"args\":{\"span\":\"1\",\"parent\":\"1\""));
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
        assert_eq!(csv_record(["plain".into()]), "plain");
        assert_eq!(
            csv_record(["a,b".into(), "say \"hi\"".into()]),
            "\"a,b\",\"say \"\"hi\"\"\""
        );
        assert_eq!(
            csv_record(["a".into(), "b,c".into(), "d".into()]),
            "a,\"b,c\",d"
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
        t.counter("evil,name").add(1);
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
        use crate::timeseries::{DetectorConfig, Series, TsConfig};
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
        let out = TextSink.render(&s);
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
        let text = TextSink.render(&s);
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
        assert!(TextSink
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

    /// A writer that takes `budget` bytes, then fails every write.
    struct FailAfter {
        budget: usize,
        written: Vec<u8>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("writer full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_sink_streams_its_rendition_and_returns_write_errors() {
        let report = ReportSink {
            title: "contract".into(),
            meta: vec![("topology".into(), "HB(1, 2)".into())],
            slo: Some(SloSpec {
                max_p99_latency: Some(5),
                ..SloSpec::default()
            }),
        };
        let sinks: [&dyn Sink; 7] = [
            &TextSink,
            &JsonLinesSink,
            &CsvSink,
            &ChromeTraceSink,
            &SpanTreeSink,
            &ProfileSink,
            &report,
        ];
        let snapshots = [
            sample_snapshot(),
            span_snapshot(),
            ts_snapshot(),
            profile_snapshot(),
        ];
        for (i, s) in snapshots.iter().enumerate() {
            for (j, sink) in sinks.iter().enumerate() {
                let want = sink.render(s);
                let mut got = Vec::new();
                sink.write_to(s, &mut got).expect("a Vec takes every byte");
                assert_eq!(got, want.as_bytes(), "snapshot {i}, sink {j}");
                let len = want.len();
                for k in [0, 1, len / 2, len.saturating_sub(1), len] {
                    let mut w = FailAfter {
                        budget: k,
                        written: Vec::new(),
                    };
                    let result = sink.write_to(s, &mut w);
                    let at = format!("snapshot {i}, sink {j}, failing after {k} of {len} bytes");
                    if k < len {
                        let e = result.expect_err(&at);
                        assert_eq!(e.to_string(), "writer full", "{at}");
                    } else {
                        result.expect(&at);
                    }
                    assert_eq!(w.written, want.as_bytes()[..k.min(len)], "{at}");
                }
            }
        }
    }
}
