//! Per-directed-link statistics — the dynamic counterpart of the static
//! edge forwarding index (`hb-netsim::forwarding`).
//!
//! A *link* is a directed channel `(from, to)` of the network graph.
//! Three quantities capture its behaviour over a run:
//!
//! * `forwarded` — packets the channel actually transmitted;
//! * `busy_cycles` — cycles the channel had at least one packet queued
//!   (equals `forwarded` under unbounded queues, exceeds it when
//!   backpressure blocks the head packet);
//! * `peak_queue` — the deepest its queue ever got.
//!
//! `forwarded / cycles` is the link utilization; comparing the table
//! against the forwarding index shows how closely measured traffic
//! tracks the router's static load prediction.

use std::cmp::Ordering;

/// A directed channel key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkKey {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
}

/// Accumulated statistics of one directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkRecord {
    /// Packets transmitted over the link.
    pub forwarded: u64,
    /// Cycles with at least one packet queued at the link.
    pub busy_cycles: u64,
    /// Peak queue depth observed at the link.
    pub peak_queue: usize,
}

impl LinkRecord {
    /// Sums the counters and maxes the peak.
    fn absorb(&mut self, o: &LinkRecord) {
        self.forwarded += o.forwarded;
        self.busy_cycles += o.busy_cycles;
        self.peak_queue = self.peak_queue.max(o.peak_queue);
    }
}

/// One row of the utilization table: a link plus its derived utilization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkUtilization {
    /// The directed channel.
    pub key: LinkKey,
    /// Its accumulated record.
    pub record: LinkRecord,
    /// `forwarded / cycles` (0 when `cycles` is 0).
    pub utilization: f64,
}

/// Per-directed-link statistics: one row per link with recorded
/// activity, in key order.
///
/// Every channel layout of the simulator numbers channels by
/// `(from, to)` ascending, so a run fills the table in one pass, each
/// [`Self::add`] an append.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    rows: Vec<(LinkKey, LinkRecord)>,
}

impl LinkStats {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `record` to link `(from, to)`: sums the counters and maxes
    /// the peak. A link past every recorded one is appended; any other
    /// costs a binary search, and an insertion if it is new.
    pub fn add(&mut self, from: u32, to: u32, record: LinkRecord) {
        let key = LinkKey { from, to };
        if self.rows.last().is_none_or(|&(last, _)| last < key) {
            self.rows.push((key, record));
            return;
        }
        match self.rows.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.rows[i].1.absorb(&record),
            Err(i) => self.rows.insert(i, (key, record)),
        }
    }

    /// The record of link `(from, to)`, if any activity was recorded.
    pub fn get(&self, from: u32, to: u32) -> Option<&LinkRecord> {
        let key = LinkKey { from, to };
        self.rows
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Number of links with recorded activity.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no link recorded any activity.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates links in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&LinkKey, &LinkRecord)> {
        self.rows.iter().map(|(k, r)| (k, r))
    }

    /// Total packets forwarded over all links (= total hops taken).
    pub fn total_forwarded(&self) -> u64 {
        self.rows.iter().map(|(_, r)| r.forwarded).sum()
    }

    /// Merges another table into this one (sums counters, maxes peaks),
    /// in one pass over both.
    pub fn merge(&mut self, other: &LinkStats) {
        let mut merged = Vec::with_capacity(self.rows.len() + other.rows.len());
        let (mut a, mut b) = (self.rows.iter().peekable(), other.rows.iter().peekable());
        while let Some(&(key, mut record)) = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.0 < x.0 => b.next(),
            (Some(_), _) => a.next(),
            _ => b.next(),
        } {
            if let Some((_, r)) = b.next_if(|y| y.0 == key) {
                record.absorb(r);
            }
            merged.push((key, record));
        }
        self.rows = merged;
    }

    /// The `top` busiest utilization rows (all if `top` is 0), by
    /// forwarded count, busiest first, ties in key order. Only the rows
    /// returned are sorted.
    pub fn utilization_rows(&self, cycles: u64, top: usize) -> Vec<LinkUtilization> {
        let mut rows: Vec<&(LinkKey, LinkRecord)> = self.rows.iter().collect();
        keep_top(&mut rows, top, |a, b| {
            b.1.forwarded.cmp(&a.1.forwarded).then(a.0.cmp(&b.0))
        });
        rows.into_iter()
            .map(|&(key, record)| LinkUtilization {
                key,
                record,
                utilization: if cycles == 0 {
                    0.0
                } else {
                    record.forwarded as f64 / cycles as f64
                },
            })
            .collect()
    }

    /// Renders the top-`top` utilization rows as a fixed-width table
    /// (all rows if `top` is 0).
    pub fn render_table(&self, cycles: u64, top: usize) -> String {
        use std::fmt::Write;
        let rows = self.utilization_rows(cycles, top);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>8} {:>8} {:>10} {:>10} {:>10} {:>8}",
            "From", "To", "Forwarded", "BusyCyc", "PeakQueue", "Util"
        );
        for r in &rows {
            let _ = writeln!(
                s,
                "{:>8} {:>8} {:>10} {:>10} {:>10} {:>8.4}",
                r.key.from,
                r.key.to,
                r.record.forwarded,
                r.record.busy_cycles,
                r.record.peak_queue,
                r.utilization
            );
        }
        if rows.len() < self.len() {
            let _ = writeln!(s, "({} more links not shown)", self.len() - rows.len());
        }
        s
    }
}

/// Keeps the first `top` items of `items` under `order` (all if `top`
/// is 0), sorted by it. Selects before sorting, so a short top list of a
/// long table costs one linear pass. `order` must be total over the
/// items (no two compare equal) for the result to be deterministic.
pub(crate) fn keep_top<T>(items: &mut Vec<T>, top: usize, order: impl Fn(&T, &T) -> Ordering) {
    if top > 0 && top < items.len() {
        items.select_nth_unstable_by(top - 1, &order);
        items.truncate(top);
    }
    // analyze: allow(unstable-order, callers order by a unique key, so no two items tie)
    items.sort_unstable_by(order);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd(forwarded: u64) -> LinkRecord {
        LinkRecord {
            forwarded,
            ..LinkRecord::default()
        }
    }

    fn peak(peak_queue: usize) -> LinkRecord {
        LinkRecord {
            peak_queue,
            ..LinkRecord::default()
        }
    }

    #[test]
    fn accumulates_per_link() {
        let mut ls = LinkStats::new();
        ls.add(0, 1, fwd(3));
        ls.add(0, 1, fwd(2));
        ls.add(
            0,
            1,
            LinkRecord {
                busy_cycles: 7,
                ..LinkRecord::default()
            },
        );
        ls.add(0, 1, peak(4));
        ls.add(0, 1, peak(2)); // lower: peak stays 4
        let r = ls.get(0, 1).unwrap();
        assert_eq!(r.forwarded, 5);
        assert_eq!(r.busy_cycles, 7);
        assert_eq!(r.peak_queue, 4);
        assert!(ls.get(1, 0).is_none());
    }

    #[test]
    fn rows_stay_in_key_order_whatever_the_add_order() {
        let mut ls = LinkStats::new();
        for (from, to) in [(3, 1), (0, 9), (3, 0), (0, 9), (1, 2)] {
            ls.add(from, to, fwd(1));
        }
        let keys: Vec<(u32, u32)> = ls.iter().map(|(k, _)| (k.from, k.to)).collect();
        assert_eq!(keys, [(0, 9), (1, 2), (3, 0), (3, 1)]);
        assert_eq!(ls.get(0, 9).unwrap().forwarded, 2);
    }

    #[test]
    fn utilization_rows_sort_busiest_first() {
        let mut ls = LinkStats::new();
        ls.add(0, 1, fwd(2));
        ls.add(2, 3, fwd(9));
        let rows = ls.utilization_rows(10, 0);
        assert_eq!(rows[0].key, LinkKey { from: 2, to: 3 });
        assert!((rows[0].utilization - 0.9).abs() < 1e-12);
        assert!((rows[1].utilization - 0.2).abs() < 1e-12);
    }

    #[test]
    fn top_rows_equal_the_head_of_the_full_sort() {
        let mut ls = LinkStats::new();
        // Ties on the forwarded count break by key.
        for i in 0..50u32 {
            ls.add(i % 7, i, fwd(u64::from(i * 13 % 5)));
        }
        let all = ls.utilization_rows(100, 0);
        assert_eq!(all.len(), 50);
        for top in [1, 8, 49, 50, 51] {
            assert_eq!(ls.utilization_rows(100, top), all[..top.min(50)]);
        }
        assert!(LinkStats::new().utilization_rows(100, 8).is_empty());
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = LinkStats::new();
        a.add(0, 1, fwd(1));
        a.add(0, 1, peak(3));
        let mut b = LinkStats::new();
        b.add(0, 1, fwd(2));
        b.add(0, 1, peak(2));
        b.add(5, 6, fwd(1));
        a.merge(&b);
        assert_eq!(a.get(0, 1).unwrap().forwarded, 3);
        assert_eq!(a.get(0, 1).unwrap().peak_queue, 3);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_forwarded(), 4);
    }

    #[test]
    fn render_truncates_and_reports_remainder() {
        let mut ls = LinkStats::new();
        for i in 0..5u32 {
            ls.add(i, i + 1, fwd(u64::from(i + 1)));
        }
        let s = ls.render_table(100, 2);
        assert!(s.contains("Forwarded"));
        assert!(s.contains("3 more links not shown"));
    }
}
