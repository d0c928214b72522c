//! The [`Telemetry`] handle: one cheaply clonable object tying the
//! named counters, histograms, link stats, and event trace together.

use crate::histogram::Histogram;
use crate::links::LinkStats;
use crate::profile::Profile;
use crate::sink::{HistogramSummary, Snapshot};
use crate::span::{SpanId, SpanStore};
use crate::timeseries::{
    detect_congestion, CongestionEvent, DetectorConfig, LinkSeries, Series, SeriesStore, TsConfig,
};
use crate::trace::{Event, EventTrace};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Counter name the simulator stores its cycle count under; sinks use
/// it to derive per-link utilization.
pub const CYCLES_COUNTER: &str = "sim.cycles";

/// A monotonic counter (wrapping on `u64` overflow, which at one
/// increment per simulated cycle takes longer than the hardware lives).
///
/// A reference-counted atomic: cloning is cheap and increments are
/// lock-free. Lookup by name ([`Telemetry::counter`]) takes a lock, so
/// hot paths resolve their counter once, outside the loop.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Inner {
    /// Whether the bounded event trace and span store record.
    tracing: bool,
    state: Mutex<State>,
}

/// Every instrument, behind the handle's one lock. Runners record into
/// locals and merge here once at the end, so the lock is taken per
/// merge, not per packet; only the serial trace and the flight
/// recorder's spans take it per event.
#[derive(Default)]
struct State {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
    links: Arc<LinkStats>,
    trace: EventTrace,
    spans: SpanStore,
    /// Windowed-series sampling: off until
    /// [`Telemetry::enable_timeseries`] sets a config.
    ts_config: Option<TsConfig>,
    detector: DetectorConfig,
    series: SeriesStore,
    congestion: Vec<CongestionEvent>,
    profile: Profile,
}

/// A shared telemetry sink. Cloning is cheap (reference-counted); all
/// clones feed the same instruments.
///
/// Instrumented subsystems accept an `Option<Telemetry>`; `None` means
/// observability is off and must cost nothing on the hot path.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracing", &self.inner.tracing)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A summary-level handle: counters, histograms, link stats.
    pub fn summary() -> Self {
        Self::new(false, 0)
    }

    /// A trace-level handle retaining at most `trace_capacity` events.
    pub fn with_trace(trace_capacity: usize) -> Self {
        Self::new(true, trace_capacity)
    }

    fn new(tracing: bool, trace_capacity: usize) -> Self {
        let state = State {
            trace: EventTrace::new(trace_capacity),
            // Spans share the trace budget: the same capacity bounds
            // both, so a `with_trace(N)` handle holds O(N) memory.
            spans: SpanStore::new(trace_capacity),
            ..State::default()
        };
        Self {
            inner: Arc::new(Inner {
                tracing,
                state: Mutex::new(state),
            }),
        }
    }

    /// The one lock over every instrument. A method holding this guard
    /// must not call another handle method, nor run caller code that
    /// might: the lock is not reentrant, so that call would deadlock.
    /// [`Self::event`] therefore builds its event before it locks.
    fn state(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .expect("invariant: telemetry mutex unpoisoned (holders never panic)")
    }

    /// Whether per-event tracing is on. Producers should gate event
    /// construction on this — it is a single branch when off.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.inner.tracing
    }

    /// How many events the trace retains (0 on a summary handle). A
    /// producer that buffers events for [`Self::append_events`] needs to
    /// keep no more than this many.
    pub fn trace_capacity(&self) -> usize {
        self.state().trace.capacity()
    }

    /// The counter named `name` (created at zero if absent). Asking for
    /// the same name twice returns the same underlying cell, so
    /// independent producers can accumulate into one counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.state()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Merges a locally accumulated histogram into the one named `name`
    /// (hot loops accumulate privately, then merge once).
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        self.state()
            .histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// A clone of the histogram named `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.state().histograms.get(name).cloned()
    }

    /// Merges a run's link stats into the shared table: the first run's
    /// table is taken as it is, a later one summed in per link.
    pub fn merge_links(&self, ls: LinkStats) {
        let mut st = self.state();
        if st.links.is_empty() {
            st.links = Arc::new(ls);
        } else {
            Arc::make_mut(&mut st.links).merge(&ls);
        }
    }

    /// Pushes an event if tracing is on; `make` is not even called
    /// otherwise.
    #[inline]
    pub fn event(&self, make: impl FnOnce() -> Event) {
        if self.trace_enabled() {
            let e = make();
            self.state().trace.push(e);
        }
    }

    /// Appends events buffered away from the handle, oldest first, and
    /// counts `evicted` more as dropped: the events the producer's own
    /// bounded buffer already let go. Equivalent to pushing every
    /// buffered event in order whenever the retained ones include the
    /// newest [`Self::trace_capacity`] of them. `events` is drained
    /// under the handle's lock, so it must not reach the handle.
    pub fn append_events(&self, events: impl IntoIterator<Item = Event>, evicted: u64) {
        self.state().trace.append(events, evicted);
    }

    /// Starts a causal span at logical time `start`. Returns `None` when
    /// tracing is off or the bounded span store is full (the drop is
    /// counted); all other span operations accept `None` gracefully via
    /// `Option` chaining at the call site.
    #[inline]
    pub fn span_start(&self, name: &str, parent: Option<SpanId>, start: u64) -> Option<SpanId> {
        if !self.trace_enabled() {
            return None;
        }
        self.state().spans.start(name, parent, start)
    }

    /// Closes a span at logical time `end` (no-op for `None`).
    #[inline]
    pub fn span_end(&self, id: Option<SpanId>, end: u64) {
        if let Some(id) = id {
            self.state().spans.end(id, end);
        }
    }

    /// Attaches a `key=value` attribute to a span (no-op for `None`).
    /// `value` is only materialised when the span exists.
    #[inline]
    pub fn span_attr(&self, id: Option<SpanId>, key: &str, value: impl Into<String>) {
        if let Some(id) = id {
            self.state().spans.attr(id, key, value);
        }
    }

    /// Turns windowed time-series sampling on. Runners that see
    /// `Some(config)` from [`Self::timeseries_config`] record per-cycle
    /// series and merge them back via [`Self::merge_series`].
    pub fn enable_timeseries(&self, config: TsConfig) {
        self.state().ts_config = Some(config);
    }

    /// Overrides the congestion-detector thresholds.
    pub fn set_detector(&self, detector: DetectorConfig) {
        self.state().detector = detector;
    }

    /// The active time-series config, if sampling is on.
    pub fn timeseries_config(&self) -> Option<TsConfig> {
        self.state().ts_config
    }

    /// Merges a locally recorded series under `name`. Series names are
    /// unique per run (one producer each), so this inserts; merging the
    /// same name twice keeps the later series. Link series arrive as one
    /// store through [`Self::merge_link_series`] instead.
    pub fn merge_series(&self, name: &str, series: Series) {
        self.state().series.insert(name, series);
    }

    /// Merges a run's frozen link series: a link recorded again takes
    /// the later series, and a link only an earlier run touched keeps
    /// its own. The first run's store is taken without a copy.
    pub fn merge_link_series(&self, links: LinkSeries) {
        self.state().series.merge_links(links);
    }

    /// Runs congestion detection over every merged series, storing the
    /// events for [`Self::snapshot`] and appending them (severity-tagged)
    /// to the event trace. Call once, after all series are merged; the
    /// name-ordered walk makes the emitted order deterministic.
    pub fn detect_congestion(&self) {
        let mut st = self.state();
        if st.ts_config.is_none() {
            return;
        }
        let events = detect_congestion(&st.series, &st.detector);
        if self.trace_enabled() {
            for e in &events {
                st.trace.push(Event::Congestion {
                    kind: e.kind,
                    severity: e.severity,
                    subject: e.subject.clone(),
                    window_start: e.window_start,
                    window_end: e.window_end,
                    peak: e.peak,
                });
            }
        }
        st.congestion = events;
    }

    /// Owned copies of every merged series, name-ordered, link series
    /// named `link.U->V.queue`. This formats and copies every link
    /// series; a [`Self::snapshot`] shares them instead.
    pub fn series(&self) -> BTreeMap<String, Series> {
        self.state()
            .series
            .iter()
            .map(|(name, s)| (name.to_string(), s.to_series()))
            .collect()
    }

    /// Merges a locally accumulated work-attribution profile into the
    /// shared one (runners count work units in plain locals, build a
    /// [`Profile`] once at the end, and merge it here — the hot path
    /// never touches this lock).
    pub fn merge_profile(&self, p: &Profile) {
        self.state().profile.merge(p);
    }

    /// A clone of the accumulated work-attribution profile.
    pub fn profile(&self) -> Profile {
        self.state().profile.clone()
    }

    /// A point-in-time snapshot of every instrument, ready for a
    /// [`crate::Sink`], read under one acquisition of the lock.
    pub fn snapshot(&self) -> Snapshot {
        let st = self.state();
        let counters: Vec<(String, u64)> = st
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let cycles = counters
            .iter()
            .find(|(n, _)| n == CYCLES_COUNTER)
            .map(|&(_, v)| v);
        let histograms = st
            .histograms
            .iter()
            .filter_map(|(n, h)| {
                h.quantiles().map(|q| {
                    (
                        n.clone(),
                        HistogramSummary {
                            count: h.count(),
                            mean: h.mean(),
                            min: h.min().unwrap_or(0),
                            p50: q.p50,
                            p95: q.p95,
                            p99: q.p99,
                            max: q.max,
                        },
                    )
                })
            })
            .collect();
        Snapshot {
            counters,
            histograms,
            links: Arc::clone(&st.links),
            cycles,
            events: st.trace.to_vec(),
            events_dropped: st.trace.dropped(),
            spans: st.spans.spans().to_vec(),
            spans_dropped: st.spans.dropped(),
            timeseries: st.series.clone(),
            congestion: st.congestion.clone(),
            profile: st.profile.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_instruments() {
        let t = Telemetry::summary();
        let t2 = t.clone();
        t.counter("x").add(1);
        t2.counter("x").add(2);
        assert_eq!(t.counter("x").get(), 3);
        let mut h = Histogram::new();
        h.record(5);
        t.merge_histogram("lat", &h);
        t2.merge_histogram("lat", &h);
        assert_eq!(t.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn counter_accumulates_and_is_shared_by_name() {
        let t = Telemetry::summary();
        let a = t.counter("packets");
        let b = t.counter("packets");
        a.add(1);
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(t.snapshot().counters, vec![("packets".to_string(), 5)]);
    }

    #[test]
    fn counters_are_sorted_by_name() {
        let t = Telemetry::summary();
        t.counter("zeta").add(1);
        t.counter("alpha").add(1);
        let names: Vec<String> = t.snapshot().counters.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn events_are_gated_by_level() {
        let s = Telemetry::summary();
        let mut called = false;
        s.event(|| {
            called = true;
            Event::PacketDropped {
                id: 0,
                at: 1,
                cycle: 2,
            }
        });
        assert!(!called, "summary level must not build events");
        assert!(s.snapshot().events.is_empty());

        let t = Telemetry::with_trace(8);
        t.event(|| Event::PacketDropped {
            id: 0,
            at: 1,
            cycle: 2,
        });
        assert_eq!(t.snapshot().events.len(), 1);
    }

    #[test]
    fn spans_are_gated_by_level() {
        let s = Telemetry::summary();
        assert!(s.span_start("packet", None, 0).is_none());
        assert_eq!(s.snapshot().spans_dropped, 0, "disabled, not dropped");

        let t = Telemetry::with_trace(8);
        let root = t.span_start("packet #0", None, 0);
        assert!(root.is_some());
        let hop = t.span_start("hop", root, 1);
        t.span_attr(hop, "queue", "2");
        t.span_end(hop, 3);
        t.span_end(root, 5);
        let spans = t.snapshot().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].attr("queue"), Some("2"));
        assert_eq!(spans[0].end, Some(5));
        // `None` ids (dropped/disabled) are silently ignored.
        t.span_end(None, 9);
        t.span_attr(None, "k", "v");
    }

    #[test]
    fn snapshot_collects_everything() {
        let t = Telemetry::with_trace(4);
        t.counter(CYCLES_COUNTER).add(100);
        t.counter("sim.delivered").add(7);
        let mut latency = Histogram::new();
        latency.record(12);
        t.merge_histogram("sim.latency", &latency);
        let mut ls = LinkStats::new();
        ls.add(
            0,
            1,
            crate::LinkRecord {
                forwarded: 50,
                ..Default::default()
            },
        );
        t.merge_links(ls);
        t.event(|| Event::PacketHop {
            id: 0,
            from: 0,
            to: 1,
            cycle: 3,
        });
        let sp = t.span_start("packet #0", None, 0);
        t.span_end(sp, 4);
        let s = t.snapshot();
        assert_eq!(s.cycles, Some(100));
        assert_eq!(s.counters.len(), 2);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.links.len(), 1);
        assert!((s.links.utilization_rows(100, 0)[0].utilization - 0.5).abs() < 1e-12);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans_dropped, 0);
    }
}
