//! Windowed time-series metrics keyed by logical simulation cycle.
//!
//! A [`Series`] samples one quantity at a fixed cadence: every recorded
//! `(cycle, value)` pair lands in the window `cycle / cadence`, and each
//! window keeps min/max/sum/count/last. Windows live in a bounded
//! drop-oldest ring — long runs cost bounded memory and the *tail* of
//! the run stays inspectable, with evictions counted exactly (the same
//! contract as [`crate::EventTrace`]). A per-series high-watermark
//! `(value, cycle)` survives eviction.
//!
//! Everything here is keyed by **logical cycle**, never wall clock, so a
//! serial run and a sharded parallel run of the same simulation produce
//! byte-identical series (the `hb-netsim` `par_equiv` suite asserts
//! this). Hot loops record into thread-local series and merge once at
//! the end, like histograms and link stats. A [`SeriesSet`] records one
//! series per id of a dense range (one per channel) under the same
//! rules, without a ring per id.
//!
//! [`detect_congestion`] walks a finished store and flags sustained
//! hotspot links, head-of-line-style queue growth, and slow post-
//! injection drains as severity-tagged [`CongestionEvent`]s.

use std::collections::{BTreeMap, VecDeque};

/// Sampling parameters for every series of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TsConfig {
    /// Cycles per window (>= 1).
    pub cadence: u64,
    /// Windows retained per series before drop-oldest kicks in.
    pub capacity: usize,
}

impl TsConfig {
    /// A config sampling every `cadence` cycles with the default
    /// retention of 64 windows per series.
    pub fn new(cadence: u64) -> Self {
        TsConfig {
            cadence: cadence.max(1),
            capacity: 64,
        }
    }

    /// Overrides the per-series window retention.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

impl Default for TsConfig {
    fn default() -> Self {
        TsConfig::new(8)
    }
}

/// Aggregates of one window of samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowAgg {
    /// Window index: `cycle / cadence` of every sample inside.
    pub index: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Number of samples.
    pub count: u64,
    /// Most recent sample.
    pub last: u64,
}

impl WindowAgg {
    fn new(index: u64, value: u64) -> Self {
        WindowAgg {
            index,
            min: value,
            max: value,
            sum: value,
            count: 1,
            last: value,
        }
    }

    fn record(&mut self, value: u64) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.count += 1;
        self.last = value;
    }

    /// Mean of the window's samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One windowed series: a bounded ring of [`WindowAgg`]s plus an
/// eviction counter and an all-time high-watermark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Series {
    cadence: u64,
    capacity: usize,
    windows: VecDeque<WindowAgg>,
    dropped_windows: u64,
    high_watermark: Option<(u64, u64)>,
}

impl Series {
    /// An empty series sampled per `cfg`.
    pub fn new(cfg: TsConfig) -> Self {
        Series {
            cadence: cfg.cadence,
            capacity: cfg.capacity,
            windows: VecDeque::new(),
            dropped_windows: 0,
            high_watermark: None,
        }
    }

    /// Records `value` at logical `cycle`. Cycles must not decrease
    /// between calls (simulation time is monotonic); a sample for an
    /// already-evicted window is ignored rather than resurrected.
    pub fn record(&mut self, cycle: u64, value: u64) {
        let index = cycle / self.cadence;
        match self.high_watermark {
            Some((hwm, _)) if value <= hwm => {}
            _ => self.high_watermark = Some((value, cycle)),
        }
        if let Some(back) = self.windows.back_mut() {
            if back.index == index {
                back.record(value);
                return;
            }
            if back.index > index {
                return;
            }
        }
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.dropped_windows += 1;
        }
        self.windows.push_back(WindowAgg::new(index, value));
    }

    /// Cycles per window.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl DoubleEndedIterator<Item = &WindowAgg> {
        self.windows.iter()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether nothing was recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted by the capacity bound.
    pub fn dropped_windows(&self) -> u64 {
        self.dropped_windows
    }

    /// Largest value ever recorded and the cycle it occurred at,
    /// including samples whose windows have since been evicted.
    pub fn high_watermark(&self) -> Option<(u64, u64)> {
        self.high_watermark
    }

    /// Total of all retained window sums.
    pub fn total(&self) -> u64 {
        self.windows.iter().map(|w| w.sum).sum()
    }
}

/// Closed windows per chunk of a [`SeriesSet`] log (56 KiB). Chunks of
/// one fixed size are reused from the allocator's free lists run after
/// run; one growing log would be reallocated into ever larger blocks
/// and, once freed, leave the next run a fragmented heap.
const LOG_CHUNK: usize = 1024;

/// One id's open window, high-watermark and closed-window count in a
/// [`SeriesSet`].
#[derive(Clone, Copy)]
struct OpenWindow {
    /// The newest window; `count == 0` marks an id never recorded.
    window: WindowAgg,
    /// `(value, cycle)` of the first largest sample.
    high_watermark: (u64, u64),
    /// Windows closed so far, logged or compacted away.
    closed: u64,
}

/// Windowed series for every id of the dense range `0..len`, recorded
/// sample by sample under the window, high-watermark and drop-oldest
/// rules of [`Series::record`], and returned as one [`Series`] per
/// recorded id by [`Self::into_series`].
///
/// Each id costs one 72-byte open window in a dense array, recorded or
/// not. A window that closes moves to a log shared by all ids, kept in
/// fixed-size chunks; the retained windows of each id are picked out of
/// the log only when the series are built. Once the log holds more than
/// twice the windows the series can retain (plus a chunk), it is
/// compacted down to those, so memory stays bounded by the retention
/// however long the run.
pub struct SeriesSet {
    cfg: TsConfig,
    open: Vec<OpenWindow>,
    /// Closed `(id, window)` pairs in recording order.
    log: Vec<Vec<(usize, WindowAgg)>>,
    /// Entries in `log`.
    logged: usize,
    /// Closed windows one series retains: `capacity - 1`, as the open
    /// window takes the last slot.
    keep: u64,
    /// Closed windows all series together retain.
    retained: usize,
    /// The last recorded cycle and its window index.
    cycle: u64,
    index: u64,
}

impl SeriesSet {
    /// No recorded samples over the ids `0..len`, sampled per `cfg`.
    pub fn new(cfg: TsConfig, len: usize) -> Self {
        let unrecorded = OpenWindow {
            window: WindowAgg {
                count: 0,
                ..WindowAgg::new(0, 0)
            },
            high_watermark: (0, 0),
            closed: 0,
        };
        SeriesSet {
            cfg,
            open: vec![unrecorded; len],
            log: Vec::new(),
            logged: 0,
            keep: cfg.capacity.saturating_sub(1) as u64,
            retained: 0,
            cycle: 0,
            index: 0,
        }
    }

    /// Records `value` for `id` at logical `cycle`, exactly as
    /// [`Series::record`] does on that id's own series.
    ///
    /// # Panics
    /// Panics if `id` is outside `0..len`.
    #[inline]
    pub fn record(&mut self, id: usize, cycle: u64, value: u64) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.index = cycle / self.cfg.cadence;
        }
        let index = self.index;
        let open = &mut self.open[id];
        if open.window.count == 0 {
            open.window = WindowAgg::new(index, value);
            open.high_watermark = (value, cycle);
            return;
        }
        if value > open.high_watermark.0 {
            open.high_watermark = (value, cycle);
        }
        if open.window.index == index {
            open.window.record(value);
        } else if open.window.index < index {
            let closed = std::mem::replace(&mut open.window, WindowAgg::new(index, value));
            if open.closed < self.keep {
                self.retained += 1;
            }
            open.closed += 1;
            self.log_push(id, closed);
            if self.logged > 2 * self.retained + LOG_CHUNK {
                self.compact();
            }
        }
    }

    fn log_push(&mut self, id: usize, window: WindowAgg) {
        match self.log.last_mut() {
            Some(chunk) if chunk.len() < LOG_CHUNK => chunk.push((id, window)),
            _ => {
                let mut chunk = Vec::with_capacity(LOG_CHUNK);
                chunk.push((id, window));
                self.log.push(chunk);
            }
        }
        self.logged += 1;
    }

    /// Drops, in place, every logged window no series retains: each id
    /// keeps its newest `keep`. Survivors move towards the front; every
    /// chunk but the last stays full.
    fn compact(&mut self) {
        let mut skip = vec![0u64; self.open.len()];
        for &(id, _) in self.log.iter().flatten() {
            skip[id] += 1;
        }
        for s in &mut skip {
            *s = s.saturating_sub(self.keep);
        }
        let mut at = 0;
        for r in 0..self.logged {
            let entry = self.log[r / LOG_CHUNK][r % LOG_CHUNK];
            if skip[entry.0] > 0 {
                skip[entry.0] -= 1;
            } else {
                self.log[at / LOG_CHUNK][at % LOG_CHUNK] = entry;
                at += 1;
            }
        }
        let (full, rest) = (at / LOG_CHUNK, at % LOG_CHUNK);
        self.log.truncate(full + usize::from(rest > 0));
        if rest > 0 {
            self.log[full].truncate(rest);
        }
        self.logged = at;
    }

    /// The series of every recorded id, ascending by id. Each equals
    /// the [`Series`] that recording the id's samples one by one builds.
    pub fn into_series(mut self) -> impl Iterator<Item = (usize, Series)> {
        if self.logged > self.retained {
            self.compact();
        }
        let SeriesSet {
            cfg,
            open,
            log,
            keep,
            ..
        } = self;
        let mut series: Vec<Series> = open
            .iter()
            .map(|o| {
                let mut s = Series::new(cfg);
                if o.window.count > 0 {
                    let kept = o.closed.min(keep);
                    s.windows = VecDeque::with_capacity(kept as usize + 1);
                    s.dropped_windows = o.closed - kept;
                    s.high_watermark = Some(o.high_watermark);
                }
                s
            })
            .collect();
        for (id, w) in log.into_iter().flatten() {
            series[id].windows.push_back(w);
        }
        series
            .into_iter()
            .zip(open)
            .enumerate()
            .filter(|(_, (_, o))| o.window.count > 0)
            .map(|(id, (mut s, o))| {
                s.windows.push_back(o.window);
                (id, s)
            })
    }
}

/// What a [`CongestionEvent`] detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CongestionKind {
    /// A link whose queue stayed occupied every cycle of K+ consecutive
    /// full windows.
    HotspotLink,
    /// A link whose per-window peak queue depth grew strictly across
    /// K+ consecutive windows (head-of-line-style backlog build-up).
    QueueGrowth,
    /// The network kept draining for K+ windows after the last
    /// injection.
    SlowDrain,
}

impl CongestionKind {
    /// Stable lowercase label used by sinks.
    pub fn label(self) -> &'static str {
        match self {
            CongestionKind::HotspotLink => "hotspot-link",
            CongestionKind::QueueGrowth => "queue-growth",
            CongestionKind::SlowDrain => "slow-drain",
        }
    }
}

/// How bad a detected condition is. Ordered: `Warning < Critical`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Sustained for at least the detection threshold.
    Warning,
    /// Sustained for at least twice the detection threshold.
    Critical,
}

impl Severity {
    /// Stable lowercase label used by sinks.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One detected congestion condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CongestionEvent {
    /// What was detected.
    pub kind: CongestionKind,
    /// How bad it is.
    pub severity: Severity,
    /// The series it was detected on (e.g. `link.3->7.queue`).
    pub subject: String,
    /// First window index of the flagged span.
    pub window_start: u64,
    /// Last window index of the flagged span (inclusive).
    pub window_end: u64,
    /// Peak sample value inside the flagged span.
    pub peak: u64,
}

impl CongestionEvent {
    /// Number of windows the condition spanned.
    pub fn span_windows(&self) -> u64 {
        self.window_end - self.window_start + 1
    }
}

/// Thresholds for [`detect_congestion`]. Integer-only so detection is
/// exactly reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Minimum occupied-cycle percentage of a window (0..=100) for the
    /// window to count toward a hotspot run.
    pub hot_occupancy_pct: u64,
    /// Consecutive qualifying windows before a condition is flagged;
    /// `2 * sustain_windows` escalates it to [`Severity::Critical`].
    pub sustain_windows: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            hot_occupancy_pct: 90,
            sustain_windows: 3,
        }
    }
}

fn severity_for(span: u64, sustain: u64) -> Severity {
    if span >= 2 * sustain {
        Severity::Critical
    } else {
        Severity::Warning
    }
}

/// Flags maximal runs of `>= sustain` consecutive windows matching
/// `qualifies`, reporting each run's span and in-span peak.
fn flag_runs(
    series: &Series,
    subject: &str,
    kind: CongestionKind,
    sustain: u64,
    qualifies: impl Fn(&WindowAgg, Option<&WindowAgg>) -> bool,
    out: &mut Vec<CongestionEvent>,
) {
    let windows = &series.windows;
    let mut run_start: Option<usize> = None;
    for i in 0..=windows.len() {
        let ok = i < windows.len() && {
            let prev = if i == 0 { None } else { Some(&windows[i - 1]) };
            // Runs must be over consecutive window indices: a gap (idle
            // stretch with no samples) breaks the run.
            let contiguous = prev.is_none_or(|p| p.index + 1 == windows[i].index);
            qualifies(&windows[i], prev) && (contiguous || run_start.is_none())
        };
        match (run_start, ok) {
            (None, true) => run_start = Some(i),
            (Some(s), false) => {
                let len = (i - s) as u64;
                if len >= sustain {
                    out.push(CongestionEvent {
                        kind,
                        severity: severity_for(len, sustain),
                        subject: subject.to_string(),
                        window_start: windows[s].index,
                        window_end: windows[i - 1].index,
                        peak: windows.range(s..i).map(|w| w.max).max().unwrap_or(0),
                    });
                }
                run_start = None;
                // The window that broke the run may start a new one.
                if i < windows.len() {
                    let prev = if i == 0 { None } else { Some(&windows[i - 1]) };
                    if qualifies(&windows[i], prev) {
                        run_start = Some(i);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Walks a finished series store (name-ordered, so the emitted event
/// order is deterministic) and returns every detected condition.
///
/// Link series are the ones named `link.*`; a sample there is the
/// channel's queue depth on a cycle it held at least one packet, so a
/// window's `count` is its occupied-cycle count (the store-and-forward
/// engine services exactly one packet per occupied channel per cycle).
pub fn detect_congestion(
    store: &BTreeMap<String, Series>,
    det: &DetectorConfig,
) -> Vec<CongestionEvent> {
    let mut out = Vec::new();
    let sustain = det.sustain_windows.max(1);
    for (name, series) in store {
        if !name.starts_with("link.") {
            continue;
        }
        let cadence = series.cadence();
        let need = (det.hot_occupancy_pct * cadence).div_ceil(100).max(1);
        flag_runs(
            series,
            name,
            CongestionKind::HotspotLink,
            sustain,
            |w, _| w.count >= need,
            &mut out,
        );
        flag_runs(
            series,
            name,
            CongestionKind::QueueGrowth,
            sustain,
            |w, prev| prev.is_some_and(|p| w.max > p.max),
            &mut out,
        );
    }
    // Drain-time check: how long sim.in_flight stayed positive after the
    // last window that saw an injection (window granularity).
    if let (Some(inj), Some(fly)) = (store.get("sim.injected"), store.get("sim.in_flight")) {
        let last_inject = inj
            .windows()
            .filter(|w| w.sum > 0)
            .map(|w| w.index)
            .next_back();
        let last_busy = fly
            .windows()
            .filter(|w| w.max > 0)
            .map(|w| w.index)
            .next_back();
        if let (Some(li), Some(lb)) = (last_inject, last_busy) {
            if lb > li && lb - li >= sustain {
                let peak = fly
                    .windows()
                    .filter(|w| w.index > li)
                    .map(|w| w.max)
                    .max()
                    .unwrap_or(0);
                out.push(CongestionEvent {
                    kind: CongestionKind::SlowDrain,
                    severity: severity_for(lb - li, sustain),
                    subject: "sim.in_flight".to_string(),
                    window_start: li + 1,
                    window_end: lb,
                    peak,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cadence: u64, capacity: usize) -> TsConfig {
        TsConfig::new(cadence).with_capacity(capacity)
    }

    #[test]
    fn windows_aggregate_by_cadence() {
        let mut s = Series::new(cfg(4, 8));
        for (cycle, v) in [(0, 3), (1, 1), (3, 5), (4, 2), (7, 2), (9, 10)] {
            s.record(cycle, v);
        }
        let w: Vec<WindowAgg> = s.windows().copied().collect();
        assert_eq!(w.len(), 3);
        assert_eq!(
            (w[0].index, w[0].min, w[0].max, w[0].sum, w[0].count),
            (0, 1, 5, 9, 3)
        );
        assert_eq!(w[0].last, 5);
        assert_eq!((w[1].index, w[1].count), (1, 2));
        assert_eq!((w[2].index, w[2].sum), (2, 10));
        assert_eq!(s.high_watermark(), Some((10, 9)));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut s = Series::new(cfg(2, 3));
        for cycle in 0..12 {
            s.record(cycle, cycle);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped_windows(), 3);
        let first = s.windows().next().unwrap().index;
        assert_eq!(first, 3);
        // The high-watermark survives eviction.
        assert_eq!(s.high_watermark(), Some((11, 11)));
    }

    #[test]
    fn series_set_log_stays_within_twice_the_retention() {
        // Cadence 1 closes a window on every sample; capacity 4 retains
        // three closed windows per id, so the log compacts many times.
        let cfg = cfg(1, 4);
        let mut set = SeriesSet::new(cfg, 3);
        let (mut a, mut b) = (Series::new(cfg), Series::new(cfg));
        for cycle in 0..10_000 {
            set.record(0, cycle, cycle % 7);
            a.record(cycle, cycle % 7);
            set.record(2, cycle, cycle % 5);
            b.record(cycle, cycle % 5);
            assert!(set.logged <= 2 * set.retained + LOG_CHUNK);
            assert_eq!(set.logged, set.log.iter().map(Vec::len).sum::<usize>());
        }
        assert_eq!(set.retained, 6);
        let got: Vec<(usize, Series)> = set.into_series().collect();
        assert_eq!(got, vec![(0, a), (2, b)]);
    }

    #[test]
    fn hotspot_detection_requires_sustained_full_windows() {
        let det = DetectorConfig {
            hot_occupancy_pct: 100,
            sustain_windows: 3,
        };
        let mut store = BTreeMap::new();
        let mut s = Series::new(cfg(4, 64));
        // Occupied every cycle of windows 0..=3, then idle, then one
        // full window (too short to flag).
        for cycle in 0..16 {
            s.record(cycle, 2);
        }
        for cycle in 24..28 {
            s.record(cycle, 9);
        }
        store.insert("link.0->1.queue".to_string(), s);
        let events = detect_congestion(&store, &det);
        let hot: Vec<&CongestionEvent> = events
            .iter()
            .filter(|e| e.kind == CongestionKind::HotspotLink)
            .collect();
        assert_eq!(hot.len(), 1);
        assert_eq!((hot[0].window_start, hot[0].window_end), (0, 3));
        assert_eq!(hot[0].peak, 2);
        assert_eq!(hot[0].severity, Severity::Warning);
    }

    #[test]
    fn queue_growth_and_severity_escalation() {
        let det = DetectorConfig {
            hot_occupancy_pct: 100,
            sustain_windows: 2,
        };
        let mut store = BTreeMap::new();
        let mut s = Series::new(cfg(1, 64));
        // Strictly growing peaks across 5 windows: growth run of 4
        // qualifying windows >= 2*sustain -> critical.
        for (cycle, v) in [(0, 1), (1, 2), (2, 3), (3, 5), (4, 8)] {
            s.record(cycle, v);
        }
        store.insert("link.2->3.queue".to_string(), s);
        let events = detect_congestion(&store, &det);
        let grow: Vec<&CongestionEvent> = events
            .iter()
            .filter(|e| e.kind == CongestionKind::QueueGrowth)
            .collect();
        assert_eq!(grow.len(), 1);
        assert_eq!(grow[0].severity, Severity::Critical);
        assert_eq!(grow[0].peak, 8);
    }

    #[test]
    fn slow_drain_measures_windows_past_last_injection() {
        let det = DetectorConfig::default();
        let mut store = BTreeMap::new();
        let mut inj = Series::new(cfg(2, 64));
        let mut fly = Series::new(cfg(2, 64));
        // Injections stop after cycle 3 (window 1); traffic keeps
        // draining through cycle 13 (window 6): 5 windows past the
        // last injection window, >= default sustain of 3.
        for cycle in 0..4 {
            inj.record(cycle, 1);
        }
        for cycle in 4..14 {
            inj.record(cycle, 0);
        }
        for cycle in 0..14 {
            fly.record(cycle, 14 - cycle);
        }
        store.insert("sim.injected".to_string(), inj);
        store.insert("sim.in_flight".to_string(), fly);
        let events = detect_congestion(&store, &det);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, CongestionKind::SlowDrain);
        assert_eq!((events[0].window_start, events[0].window_end), (2, 6));
        assert_eq!(events[0].peak, 10);
    }

    #[test]
    fn detection_order_is_name_sorted_and_deterministic() {
        let det = DetectorConfig {
            hot_occupancy_pct: 100,
            sustain_windows: 1,
        };
        let mut store = BTreeMap::new();
        for name in ["link.9->0.queue", "link.1->2.queue"] {
            let mut s = Series::new(cfg(1, 8));
            s.record(0, 4);
            store.insert(name.to_string(), s);
        }
        let a = detect_congestion(&store, &det);
        let b = detect_congestion(&store, &det);
        assert_eq!(a, b);
        assert_eq!(a[0].subject, "link.1->2.queue");
    }
}
