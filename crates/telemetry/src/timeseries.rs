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
//! rules, without a ring per id, and freezes into a [`LinkSeries`]
//! store in place: the log it recorded in, each group of ids' windows
//! sorted by id over that group's own chunks.
//!
//! A [`SeriesStore`] holds a handle's named series beside its link
//! store and walks both in series-name order, naming a link
//! (`link.U->V.queue`) only when a caller prints it.
//! [`detect_congestion`] walks it and flags sustained hotspot links,
//! head-of-line-style queue growth, and slow post-injection drains as
//! severity-tagged [`CongestionEvent`]s.

use crate::links::LinkKey;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

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
    /// The window no sample reached: `count == 0` marks an id of a
    /// [`SeriesSet`] never recorded, and fills the buffer
    /// [`LinkSeries::freeze`] sorts windows into before they are placed.
    const EMPTY: WindowAgg = WindowAgg {
        index: 0,
        min: 0,
        max: 0,
        sum: 0,
        count: 0,
        last: 0,
    };

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

    /// The series as a [`SeriesView`].
    pub fn view(&self) -> SeriesView<'_> {
        SeriesView {
            cfg: TsConfig {
                cadence: self.cadence,
                capacity: self.capacity,
            },
            windows: self.windows.as_slices(),
            dropped_windows: self.dropped_windows,
            high_watermark: self.high_watermark,
        }
    }
}

/// One series read in place: its retained windows, oldest first, and
/// its counters, borrowed from a named [`Series`] or from one link of a
/// [`LinkSeries`] store.
#[derive(Clone, Copy, Debug)]
pub struct SeriesView<'a> {
    cfg: TsConfig,
    /// The retained windows, split in two where a ring wraps.
    windows: (&'a [WindowAgg], &'a [WindowAgg]),
    dropped_windows: u64,
    high_watermark: Option<(u64, u64)>,
}

impl<'a> SeriesView<'a> {
    /// Cycles per window.
    pub fn cadence(&self) -> u64 {
        self.cfg.cadence
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl DoubleEndedIterator<Item = &'a WindowAgg> + Clone {
        self.windows.0.iter().chain(self.windows.1)
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.0.len() + self.windows.1.len()
    }

    /// Whether no window is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Windows evicted by the capacity bound.
    pub fn dropped_windows(&self) -> u64 {
        self.dropped_windows
    }

    /// Largest value ever recorded and the cycle it occurred at.
    pub fn high_watermark(&self) -> Option<(u64, u64)> {
        self.high_watermark
    }

    /// Total of all retained window sums.
    pub fn total(&self) -> u64 {
        self.windows().map(|w| w.sum).sum()
    }

    /// An owned [`Series`] equal to the one viewed.
    pub fn to_series(&self) -> Series {
        Series {
            cadence: self.cfg.cadence,
            capacity: self.cfg.capacity,
            windows: self.windows().copied().collect(),
            dropped_windows: self.dropped_windows,
            high_watermark: self.high_watermark,
        }
    }
}

/// Two views are equal when their series are: the same config,
/// windows, evictions and high-watermark, wherever the windows split.
impl PartialEq for SeriesView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.dropped_windows == other.dropped_windows
            && self.high_watermark == other.high_watermark
            && self.windows().eq(other.windows())
    }
}

impl Eq for SeriesView<'_> {}

/// Closed windows per chunk of a [`SeriesSet`] log (48 KiB), which a
/// [`LinkSeries`] store keeps once frozen. Chunks of one fixed size are
/// reused from the allocator's free lists run after run; one growing log
/// would be reallocated into ever larger blocks and, once freed, leave
/// the next run a fragmented heap.
const LOG_CHUNK: usize = 1024;

/// Consecutive ids per log group of a [`SeriesSet`]. Freezing sorts one
/// group's windows at a time, so the sort's scratch holds one group's
/// windows, not the set's.
const GROUP: usize = 1024;

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

/// The closed windows of one group of [`GROUP`] ids, in recording order.
#[derive(Default)]
struct GroupLog {
    /// The windows, [`LOG_CHUNK`] per chunk; every chunk but the last is
    /// full.
    chunks: Vec<Vec<WindowAgg>>,
    /// Each window's id, less the group's first id.
    ids: Vec<u16>,
}

impl GroupLog {
    fn push(&mut self, id: u16, window: WindowAgg) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < LOG_CHUNK => chunk.push(window),
            _ => {
                let mut chunk = Vec::with_capacity(LOG_CHUNK);
                chunk.push(window);
                self.chunks.push(chunk);
            }
        }
        self.ids.push(id);
    }

    /// Keeps the first `len` windows.
    fn truncate(&mut self, len: usize) {
        let (full, rest) = (len / LOG_CHUNK, len % LOG_CHUNK);
        self.chunks.truncate(full + usize::from(rest > 0));
        if rest > 0 {
            self.chunks[full].truncate(rest);
        }
        self.ids.truncate(len);
    }
}

/// Windowed series for every id of the dense range `0..len`, recorded
/// sample by sample under the window, high-watermark and drop-oldest
/// rules of [`Series::record`], and frozen into a [`LinkSeries`] store
/// by [`LinkSeries::freeze`].
///
/// Each id costs one 72-byte open window in a dense array, recorded or
/// not. A window that closes moves to the log of its group of 1,024
/// consecutive ids, kept in fixed-size chunks; freezing sorts each
/// group's log by id in place, and the store keeps its chunks.
/// Once the logs hold more than twice the windows the series can retain
/// (plus a chunk), every group is compacted down to those, so memory
/// stays bounded by the retention however long the run.
pub struct SeriesSet {
    cfg: TsConfig,
    open: Vec<OpenWindow>,
    /// Group `g` logs the closed windows of ids `g * GROUP..`.
    groups: Vec<GroupLog>,
    /// Windows in all the groups' logs.
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
            window: WindowAgg::EMPTY,
            high_watermark: (0, 0),
            closed: 0,
        };
        SeriesSet {
            cfg,
            open: vec![unrecorded; len],
            groups: std::iter::repeat_with(GroupLog::default)
                .take(len.div_ceil(GROUP))
                .collect(),
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
            let offset = u16::try_from(id % GROUP).expect("invariant: a group has under 2^16 ids");
            self.groups[id / GROUP].push(offset, closed);
            self.logged += 1;
            if self.logged > 2 * self.retained + LOG_CHUNK {
                self.compact();
            }
        }
    }

    /// Drops, in place, every logged window no series retains: each id
    /// keeps its newest `keep`. In each group, survivors move towards
    /// the front.
    fn compact(&mut self) {
        let mut skip = [0u64; GROUP];
        self.logged = 0;
        for group in &mut self.groups {
            skip.fill(0);
            for &i in &group.ids {
                skip[usize::from(i)] += 1;
            }
            for s in &mut skip {
                *s = s.saturating_sub(self.keep);
            }
            let mut at = 0;
            for r in 0..group.ids.len() {
                let i = group.ids[r];
                if skip[usize::from(i)] > 0 {
                    skip[usize::from(i)] -= 1;
                } else {
                    group.chunks[at / LOG_CHUNK][at % LOG_CHUNK] =
                        group.chunks[r / LOG_CHUNK][r % LOG_CHUNK];
                    group.ids[at] = i;
                    at += 1;
                }
            }
            group.truncate(at);
            self.logged += at;
        }
    }
}

/// The frozen link series of one or more runs: for every recorded link,
/// in key order, its retained windows, its dropped-window count and its
/// high-watermark, plus the order of the links by series name.
///
/// The windows stay in the chunks their [`SeriesSet`] logged them in,
/// sorted by link: each link's run of windows starts in one chunk and
/// continues at most into the next, so it reads as two slices, like a
/// wrapped ring. Each link's series equals the [`Series`] that recording
/// its samples one by one builds, and two stores are equal when their
/// links' series are, however their chunks are laid out. A
/// [`SeriesStore`] shares one store between a [`crate::Telemetry`]
/// handle and its snapshots.
#[derive(Clone, Debug, Default)]
pub struct LinkSeries {
    links: Vec<LinkHead>,
    /// The windows of every link, and empty chunks no link reads.
    chunks: Vec<Vec<WindowAgg>>,
    /// Indices into `links`, ascending by `link.U->V.queue` name.
    by_name: Vec<u32>,
}

/// One link of a [`LinkSeries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LinkHead {
    key: LinkKey,
    /// The chunk and offset of the link's first window, and its window
    /// count. Windows past the chunk's end continue at the start of the
    /// next chunk.
    chunk: u32,
    start: u32,
    len: u32,
    cfg: TsConfig,
    dropped_windows: u64,
    high_watermark: (u64, u64),
}

impl LinkHead {
    fn view<'a>(&self, chunks: &'a [Vec<WindowAgg>]) -> SeriesView<'a> {
        let chunk = self.chunk as usize;
        let first = &chunks[chunk][self.start as usize..];
        let len = self.len as usize;
        let windows = if len <= first.len() {
            (&first[..len], &[][..])
        } else {
            (first, &chunks[chunk + 1][..len - first.len()])
        };
        SeriesView {
            cfg: self.cfg,
            windows,
            dropped_windows: self.dropped_windows,
            high_watermark: Some(self.high_watermark),
        }
    }
}

impl LinkSeries {
    /// Freezes the recorded ids of `parts` into one store. Each part is
    /// a set and the keys of its ids (`keys[i]` is id `i`'s link); across
    /// the parts, in order, the keys of the recorded ids must ascend, as
    /// the channels of a run do, shard after shard.
    ///
    /// # Panics
    /// Panics if a part's key count differs from its set's id count, or
    /// if the recorded keys do not ascend.
    pub fn freeze<'k>(parts: impl IntoIterator<Item = (SeriesSet, &'k [LinkKey])>) -> Self {
        let mut store = LinkSeries::default();
        // One group's windows in link order, reused group after group.
        let mut sorted = Vec::new();
        let mut at = Vec::with_capacity(GROUP);
        for (mut set, keys) in parts {
            assert_eq!(keys.len(), set.open.len(), "one key per id of the set");
            if set.logged > set.retained {
                set.compact();
            }
            let groups = std::mem::take(&mut set.groups);
            for ((group, open), keys) in groups
                .into_iter()
                .zip(set.open.chunks(GROUP))
                .zip(keys.chunks(GROUP))
            {
                // Every logged window is retained now: an id keeps its
                // newest `keep` closed windows, then its open one.
                let first = store.links.len();
                at.clear();
                let mut end = 0;
                for (o, &key) in open.iter().zip(keys) {
                    at.push(end);
                    if o.window.count == 0 {
                        continue;
                    }
                    assert!(
                        store.links.last().is_none_or(|l| l.key < key),
                        "link keys must ascend"
                    );
                    let kept = o.closed.min(set.keep);
                    end += kept as usize + 1;
                    store.links.push(LinkHead {
                        key,
                        chunk: 0,
                        start: 0,
                        len: u32::try_from(kept + 1)
                            .expect("invariant: a series keeps under 2^32 windows"),
                        cfg: set.cfg,
                        dropped_windows: o.closed - kept,
                        high_watermark: o.high_watermark,
                    });
                }
                sorted.clear();
                sorted.resize(end, WindowAgg::EMPTY);
                for (&w, &i) in group.chunks.iter().flatten().zip(&group.ids) {
                    let slot = &mut at[usize::from(i)];
                    sorted[*slot] = w;
                    *slot += 1;
                }
                for (o, &slot) in open.iter().zip(&at) {
                    if o.window.count > 0 {
                        sorted[slot] = o.window;
                    }
                }
                store.place(first, &sorted, group.chunks);
            }
        }
        store.by_name = name_order(&store.links);
        store
    }

    /// Appends `sorted`, the windows of `links[first..]` in order, to the
    /// store's windows: into the rest of its last chunk, then over the
    /// `spare` chunks, then into new ones. A link's windows fill the rest
    /// of one chunk and continue at the start of the next, which takes
    /// all that is left of them, past [`LOG_CHUNK`] if need be: a link
    /// never spans more than two chunks.
    fn place(&mut self, first: usize, sorted: &[WindowAgg], spare: Vec<Vec<WindowAgg>>) {
        let mut spare = spare.into_iter();
        let mut fresh = || match spare.next() {
            Some(mut chunk) => {
                chunk.clear();
                chunk
            }
            None => Vec::with_capacity(LOG_CHUNK),
        };
        let mut rest = sorted;
        for h in &mut self.links[first..] {
            let (windows, after) = rest.split_at(h.len as usize);
            rest = after;
            if self.chunks.last().is_none_or(|c| c.len() >= LOG_CHUNK) {
                self.chunks.push(fresh());
            }
            let at = self.chunks.len() - 1;
            let chunk = &mut self.chunks[at];
            h.chunk = u32::try_from(at).expect("invariant: a store has under 2^32 chunks");
            h.start = u32::try_from(chunk.len()).expect("invariant: a link starts inside a chunk");
            let (head, tail) = windows.split_at(windows.len().min(LOG_CHUNK - chunk.len()));
            chunk.extend_from_slice(head);
            if !tail.is_empty() {
                let mut next = fresh();
                next.extend_from_slice(tail);
                self.chunks.push(next);
            }
        }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no link was recorded.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Every link and its series, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkKey, SeriesView<'_>)> {
        self.links.iter().map(|h| (h.key, h.view(&self.chunks)))
    }

    /// Every link and its series, in series-name order.
    pub(crate) fn by_name(&self) -> impl Iterator<Item = (LinkKey, SeriesView<'_>)> {
        self.by_name.iter().map(|&i| {
            let h = &self.links[i as usize];
            (h.key, h.view(&self.chunks))
        })
    }

    /// Merges a later store into this one: a link both hold takes the
    /// later series, and every other link keeps its own. The later
    /// store's chunks move over; a chunk no link reads any more is freed.
    fn merge(&mut self, later: LinkSeries) {
        if self.is_empty() {
            *self = later;
            return;
        }
        let shift =
            u32::try_from(self.chunks.len()).expect("invariant: a store has under 2^32 chunks");
        self.chunks.extend(later.chunks);
        let mut a = std::mem::take(&mut self.links).into_iter().peekable();
        let mut b = later
            .links
            .into_iter()
            .map(|h| LinkHead {
                chunk: h.chunk + shift,
                ..h
            })
            .peekable();
        while let Some(next) = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.key <= x.key => {
                a.next_if(|x| x.key == y.key);
                b.next()
            }
            (Some(_), _) => a.next(),
            _ => b.next(),
        } {
            self.links.push(next);
        }
        let mut read = vec![false; self.chunks.len()];
        for h in &self.links {
            let chunk = h.chunk as usize;
            read[chunk] = true;
            if !h.view(&self.chunks).windows.1.is_empty() {
                read[chunk + 1] = true;
            }
        }
        for (chunk, read) in self.chunks.iter_mut().zip(read) {
            if !read {
                *chunk = Vec::new();
            }
        }
        self.by_name = name_order(&self.links);
    }
}

impl PartialEq for LinkSeries {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for LinkSeries {}

/// The order of `links` by their `link.{from}->{to}.queue` names, as
/// indices. Two such names compare as the decimal strings of `from`,
/// then of `to`, each read with a proper prefix first (`'-'` and `'.'`
/// sort below every digit), which [`name_key`] turns into integers.
fn name_order(links: &[LinkHead]) -> Vec<u32> {
    assert!(
        u32::try_from(links.len()).is_ok(),
        "link indices fit the name order's u32"
    );
    let mut from = None;
    let mut keyed: Vec<u128> = links
        .iter()
        .zip(0u128..)
        .map(|(h, i)| {
            // Links come in key order, so one `from` runs in a block.
            let kf = match from {
                Some((f, k)) if f == h.key.from => k,
                _ => {
                    let k = name_key(h.key.from);
                    from = Some((h.key.from, k));
                    k
                }
            };
            (u128::from(kf) << 67) | (u128::from(name_key(h.key.to)) << 32) | i
        })
        .collect();
    // The packed names are unique per link, so the unstable sort is
    // deterministic.
    keyed.sort_unstable();
    keyed
        .into_iter()
        .map(|k| u32::try_from(k & 0xFFFF_FFFF).expect("invariant: the low 32 bits hold an index"))
        .collect()
}

/// `x`'s decimal digits, each plus one, read in base 11 and
/// left-aligned over ten digits (a `u32` has at most ten). Two ids then
/// compare as their decimal strings do, a proper prefix first; the key
/// stays below `11^10 < 2^35`.
fn name_key(x: u32) -> u64 {
    let mut digits = [0u64; 10];
    let (mut n, mut v) = (0, x);
    loop {
        digits[n] = u64::from(v % 10) + 1;
        n += 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    digits[..n].reverse();
    digits.iter().fold(0, |key, &d| key * 11 + d)
}

/// A series' name as [`SeriesStore::iter`] yields it: a named series',
/// or a link's, formatted as `link.U->V.queue` only when displayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesName<'a> {
    /// A series merged under a name.
    Named(&'a str),
    /// The queue-depth series of a link.
    Link(LinkKey),
}

impl SeriesName<'_> {
    /// Whether the detector and the report treat it as a link series:
    /// every store link, and every named series called `link.*`.
    pub fn is_link(&self) -> bool {
        match self {
            SeriesName::Named(n) => n.starts_with("link."),
            SeriesName::Link(_) => true,
        }
    }
}

impl fmt::Display for SeriesName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesName::Named(n) => f.pad(n),
            SeriesName::Link(k) => f.pad(&format!("link.{}->{}.queue", k.from, k.to)),
        }
    }
}

/// How a named series' name compares with link `key`'s. Only a name
/// starting `link.` can fall among the link names; any other sorts
/// before or after all of them.
fn cmp_with_link(name: &str, key: LinkKey) -> Ordering {
    if name.starts_with("link.") {
        name.cmp(SeriesName::Link(key).to_string().as_str())
    } else {
        name.cmp("link.")
    }
}

/// Every windowed series of a [`crate::Telemetry`] handle: the series
/// merged under a name, and the link series in one [`LinkSeries`] store
/// that clones share instead of copying.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeriesStore {
    named: BTreeMap<String, Series>,
    links: Arc<LinkSeries>,
}

impl SeriesStore {
    /// Stores `series` under `name`, replacing any series of that name.
    pub fn insert(&mut self, name: &str, series: Series) {
        self.named.insert(name.to_string(), series);
    }

    /// Merges a run's link series: a link both hold takes the later
    /// series, and every other link keeps its own.
    pub fn merge_links(&mut self, later: LinkSeries) {
        Arc::make_mut(&mut self.links).merge(later);
    }

    /// The series stored under `name`, if any (link series excluded).
    pub fn named(&self, name: &str) -> Option<&Series> {
        self.named.get(name)
    }

    /// Number of series, named and link.
    pub fn len(&self) -> usize {
        self.named.len() + self.links.len()
    }

    /// Whether no series was stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every series in name order, as one map of names would list them.
    /// A named series whose name equals a link's comes first.
    pub fn iter(&self) -> impl Iterator<Item = (SeriesName<'_>, SeriesView<'_>)> {
        let mut named = self.named.iter().peekable();
        let mut links = self.links.by_name().peekable();
        std::iter::from_fn(move || {
            let named_first = match (named.peek(), links.peek()) {
                (Some((n, _)), Some(&(key, _))) => cmp_with_link(n, key) != Ordering::Greater,
                (named_left, _) => named_left.is_some(),
            };
            if named_first {
                named.next().map(|(n, s)| (SeriesName::Named(n), s.view()))
            } else {
                links.next().map(|(k, v)| (SeriesName::Link(k), v))
            }
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
/// `qualifies`, reporting each run's span and in-span peak. Runs must be
/// over consecutive window indices: a gap (an idle stretch with no
/// samples) breaks the run, and the window after it may start a new one.
fn flag_runs(
    series: &SeriesView<'_>,
    subject: &SeriesName<'_>,
    kind: CongestionKind,
    sustain: u64,
    qualifies: impl Fn(&WindowAgg, Option<&WindowAgg>) -> bool,
    out: &mut Vec<CongestionEvent>,
) {
    // (first index, last index, windows, peak) of the open run.
    let mut run: Option<(u64, u64, u64, u64)> = None;
    let mut close = |run: (u64, u64, u64, u64)| {
        let (start, end, len, peak) = run;
        if len >= sustain {
            out.push(CongestionEvent {
                kind,
                severity: severity_for(len, sustain),
                subject: subject.to_string(),
                window_start: start,
                window_end: end,
                peak,
            });
        }
    };
    let mut prev: Option<&WindowAgg> = None;
    for w in series.windows() {
        let ok = qualifies(w, prev);
        let contiguous = prev.is_none_or(|p| p.index + 1 == w.index);
        run = match run {
            Some((start, _, len, peak)) if ok && contiguous => {
                Some((start, w.index, len + 1, peak.max(w.max)))
            }
            open => {
                if let Some(r) = open {
                    close(r);
                }
                ok.then_some((w.index, w.index, 1, w.max))
            }
        };
        prev = Some(w);
    }
    if let Some(r) = run {
        close(r);
    }
}

/// Walks a finished series store in name order, so the emitted event
/// order is deterministic, and returns every detected condition.
///
/// Link series are the ones named `link.*`; a sample there is the
/// channel's queue depth on a cycle it held at least one packet, so a
/// window's `count` is its occupied-cycle count (the store-and-forward
/// engine services exactly one packet per occupied channel per cycle).
pub fn detect_congestion(store: &SeriesStore, det: &DetectorConfig) -> Vec<CongestionEvent> {
    let mut out = Vec::new();
    let sustain = det.sustain_windows.max(1);
    for (name, series) in store.iter().filter(|(n, _)| n.is_link()) {
        let need = (det.hot_occupancy_pct * series.cadence())
            .div_ceil(100)
            .max(1);
        flag_runs(
            &series,
            &name,
            CongestionKind::HotspotLink,
            sustain,
            |w, _| w.count >= need,
            &mut out,
        );
        flag_runs(
            &series,
            &name,
            CongestionKind::QueueGrowth,
            sustain,
            |w, prev| prev.is_some_and(|p| w.max > p.max),
            &mut out,
        );
    }
    // Drain-time check: how long sim.in_flight stayed positive after the
    // last window that saw an injection (window granularity).
    if let (Some(inj), Some(fly)) = (store.named("sim.injected"), store.named("sim.in_flight")) {
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
            let logged: usize = set.groups.iter().map(|g| g.ids.len()).sum();
            assert_eq!(set.logged, logged);
        }
        assert_eq!(set.retained, 6);
        let keys = [0, 1, 2].map(|to| LinkKey { from: 7, to });
        let store = LinkSeries::freeze([(set, &keys[..])]);
        let got: Vec<(LinkKey, Series)> = store.iter().map(|(k, v)| (k, v.to_series())).collect();
        assert_eq!(got, vec![(keys[0], a), (keys[2], b)]);
    }

    /// Records the samples `sample(cycle, id)` draws, cycle by cycle and
    /// in ascending id order, into one set over `0..len`, into two sets
    /// cut at `cut` as two shards are, and into one `Series` per id.
    /// Asserts that the frozen set holds exactly the oracles' series and
    /// that the two shards frozen together equal it. Returns the store
    /// and the number of groups whose log was compacted while recording.
    fn freeze_against_oracles(
        cfg: TsConfig,
        len: usize,
        cut: usize,
        cycles: u64,
        mut sample: impl FnMut(u64, usize) -> Option<u64>,
    ) -> (LinkSeries, usize) {
        let mut set = SeriesSet::new(cfg, len);
        let mut shards = [SeriesSet::new(cfg, cut), SeriesSet::new(cfg, len - cut)];
        let mut oracle: Vec<Option<Series>> = vec![None; len];
        for cycle in 0..cycles {
            for (id, series) in oracle.iter_mut().enumerate() {
                if let Some(value) = sample(cycle, id) {
                    set.record(id, cycle, value);
                    match id.checked_sub(cut) {
                        None => shards[0].record(id, cycle, value),
                        Some(local) => shards[1].record(local, cycle, value),
                    }
                    series
                        .get_or_insert_with(|| Series::new(cfg))
                        .record(cycle, value);
                }
            }
        }
        // A group whose log holds fewer windows than its ids closed lost
        // some to compaction.
        let compacted = (set.groups.iter().enumerate())
            .filter(|(g, group)| {
                let open = set.open.chunks(GROUP).nth(*g).unwrap();
                open.iter().map(|o| o.closed).sum::<u64>() > group.ids.len() as u64
            })
            .count();
        let keys: Vec<LinkKey> = (0..len)
            .map(|id| LinkKey {
                from: (id / 4) as u32,
                to: id as u32,
            })
            .collect();
        let store = LinkSeries::freeze([(set, &keys[..])]);
        let got: Vec<(LinkKey, Series)> = store.iter().map(|(k, v)| (k, v.to_series())).collect();
        let want: Vec<(LinkKey, Series)> = (oracle.into_iter().zip(&keys))
            .filter_map(|(s, &k)| s.map(|s| (k, s)))
            .collect();
        assert_eq!(got, want);
        let [a, b] = shards;
        let sharded = LinkSeries::freeze([(a, &keys[..cut]), (b, &keys[cut..])]);
        assert!(sharded == store, "the sharded freeze differs");
        (store, compacted)
    }

    /// A SplitMix64 step of `x`, reduced to `0..span`.
    fn draw(x: &mut u64, span: u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % span
    }

    #[test]
    fn grouped_logs_freeze_across_groups_and_a_shard_cut_inside_one() {
        // Four groups, the last one short, cut in the middle of the
        // second: each id keeps five closed windows of its ~33, so every
        // group's log compacts while recording, and each group's frozen
        // windows fill several chunks.
        let len = 3 * GROUP + 37;
        let mut x = 7;
        let (store, compacted) =
            freeze_against_oracles(cfg(2, 6), len, GROUP + GROUP / 2 + 3, 200, |_, _| {
                (draw(&mut x, 3) == 0).then(|| draw(&mut x, 5))
            });
        assert_eq!(compacted, 4);
        assert_eq!(store.len(), len);
        let crossing = store
            .iter()
            .filter(|(_, v)| !v.windows.1.is_empty())
            .count();
        assert!(crossing >= 4, "{crossing} links cross a chunk's end");
    }

    #[test]
    fn capacity_above_a_chunk_keeps_each_link_in_two_slices() {
        // Three links of two groups keep up to 2,148 windows each, more
        // than two chunks hold, and evict the oldest.
        let capacity = 2 * LOG_CHUNK + 100;
        let recorded = [0, 2, GROUP + 1];
        let (store, _) =
            freeze_against_oracles(cfg(1, capacity), GROUP + 5, 1, 5000, |cycle, id| {
                (recorded.contains(&id) && !(cycle + id as u64).is_multiple_of(7))
                    .then_some(cycle % 9)
            });
        assert_eq!(store.len(), 3);
        for (key, v) in store.iter() {
            assert_eq!(v.len(), capacity, "{key:?}");
            assert!(v.dropped_windows() > 0);
            assert!(v.windows.1.len() > LOG_CHUNK, "{key:?} ends in one chunk");
        }
    }

    #[test]
    fn name_keys_order_links_as_their_names_do() {
        let ids = [
            0,
            1,
            2,
            9,
            10,
            11,
            19,
            64,
            99,
            100,
            101,
            330,
            999,
            1000,
            1001,
            4095,
            65535,
            1_000_000,
            u32::MAX - 1,
            u32::MAX,
        ];
        let mut links: Vec<LinkHead> = Vec::new();
        for &from in &ids {
            for &to in &ids {
                links.push(LinkHead {
                    key: LinkKey { from, to },
                    chunk: 0,
                    start: 0,
                    len: 1,
                    cfg: TsConfig::default(),
                    dropped_windows: 0,
                    high_watermark: (0, 0),
                });
            }
        }
        let name = |h: &LinkHead| SeriesName::Link(h.key).to_string();
        let mut want: Vec<usize> = (0..links.len()).collect();
        want.sort_by_key(|&i| name(&links[i]));
        let got: Vec<usize> = name_order(&links).into_iter().map(|i| i as usize).collect();
        assert_eq!(got, want);
        assert_eq!(name(&links[0]), "link.0->0.queue");
    }

    /// A store of the given link series, for the detector and sink tests.
    fn store_of(series: impl IntoIterator<Item = (&'static str, Series)>) -> SeriesStore {
        let mut store = SeriesStore::default();
        for (name, s) in series {
            store.insert(name, s);
        }
        store
    }

    #[test]
    fn store_walks_named_and_link_series_in_one_name_order() {
        let cfg = cfg(1, 4);
        let mut set = SeriesSet::new(cfg, 3);
        for (id, cycle) in [(0, 0), (1, 1), (2, 2)] {
            set.record(id, cycle, 1);
        }
        let keys = [(1, 64), (10, 330), (100, 164)].map(|(from, to)| LinkKey { from, to });
        let mut s = Series::new(cfg);
        s.record(0, 5);
        let mut store = store_of([
            ("sim.in_flight", s.clone()),
            ("a.first", s.clone()),
            ("link.10->74.queue", s.clone()),
        ]);
        store.merge_links(LinkSeries::freeze([(set, &keys[..])]));
        let names: Vec<String> = store.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(
            names,
            [
                "a.first",
                "link.1->64.queue",
                "link.10->330.queue",
                "link.10->74.queue",
                "link.100->164.queue",
                "sim.in_flight",
            ]
        );
        assert_eq!(store.len(), 6);
        let links: Vec<bool> = store.iter().map(|(n, _)| n.is_link()).collect();
        assert_eq!(links, [false, true, true, true, true, false]);
    }

    #[test]
    fn merged_link_stores_keep_the_later_series_of_a_shared_link() {
        let cfg = cfg(1, 4);
        let keys = [0, 1, 2].map(|to| LinkKey { from: 0, to });
        // A link of a run takes `value`, `value + 1`, … over six cycles:
        // it keeps three closed windows and its open one.
        let series = |value: u64| {
            let mut s = Series::new(cfg);
            for cycle in 0..6 {
                s.record(cycle, value + cycle);
            }
            s
        };
        let run = |ids: &[usize], value: u64| {
            let mut set = SeriesSet::new(cfg, 3);
            for cycle in 0..6 {
                for &id in ids {
                    set.record(id, cycle, value + cycle);
                }
            }
            LinkSeries::freeze([(set, &keys[..])])
        };
        let read = |store: &SeriesStore| -> Vec<(String, Series)> {
            store
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_series()))
                .collect()
        };
        let mut store = SeriesStore::default();
        store.merge_links(run(&[0, 1], 5));
        let shared = store.clone();
        store.merge_links(run(&[1, 2], 9));
        let name = |to: u32| SeriesName::Link(keys[to as usize]).to_string();
        // The later run's windows read from its chunks after they moved.
        assert_eq!(
            read(&store),
            [
                (name(0), series(5)),
                (name(1), series(9)),
                (name(2), series(9))
            ]
        );
        // A clone taken before the merge still holds the earlier series.
        assert_eq!(read(&shared), [(name(0), series(5)), (name(1), series(5))]);
        // A run that records every link again frees the chunks before it.
        store.merge_links(run(&[0, 1, 2], 2));
        assert_eq!(
            read(&store),
            [
                (name(0), series(2)),
                (name(1), series(2)),
                (name(2), series(2))
            ]
        );
        let chunks: Vec<usize> = store.links.chunks.iter().map(Vec::len).collect();
        assert_eq!(chunks, [0, 0, 12]);
    }

    #[test]
    fn hotspot_detection_requires_sustained_full_windows() {
        let det = DetectorConfig {
            hot_occupancy_pct: 100,
            sustain_windows: 3,
        };
        let mut s = Series::new(cfg(4, 64));
        // Occupied every cycle of windows 0..=3, then idle, then one
        // full window (too short to flag).
        for cycle in 0..16 {
            s.record(cycle, 2);
        }
        for cycle in 24..28 {
            s.record(cycle, 9);
        }
        let events = detect_congestion(&store_of([("link.0->1.queue", s)]), &det);
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
        let mut s = Series::new(cfg(1, 64));
        // Strictly growing peaks across 5 windows: growth run of 4
        // qualifying windows >= 2*sustain -> critical.
        for (cycle, v) in [(0, 1), (1, 2), (2, 3), (3, 5), (4, 8)] {
            s.record(cycle, v);
        }
        let events = detect_congestion(&store_of([("link.2->3.queue", s)]), &det);
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
        let store = store_of([("sim.injected", inj), ("sim.in_flight", fly)]);
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
        let store = store_of(["link.9->0.queue", "link.1->2.queue"].map(|name| {
            let mut s = Series::new(cfg(1, 8));
            s.record(0, 4);
            (name, s)
        }));
        let a = detect_congestion(&store, &det);
        let b = detect_congestion(&store, &det);
        assert_eq!(a, b);
        assert_eq!(a[0].subject, "link.1->2.queue");
    }
}
