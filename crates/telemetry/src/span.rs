//! Causal span tracing: parent-linked intervals in logical sim time.
//!
//! Aggregate instruments ([`crate::Histogram`], [`crate::LinkStats`])
//! answer *how much*; spans answer *why this one*. A [`SpanRecord`] is a
//! named interval of logical time (simulation cycles — never wall
//! clock, so traces are fully deterministic) with an optional parent,
//! forming trees: a packet's lifetime is a root span and each hop a
//! child.
//!
//! The [`SpanStore`] is bounded: once `capacity` spans exist, further
//! starts are refused and counted in [`SpanStore::dropped`] — existing
//! parent links always stay resolvable (drop-new, unlike the event
//! trace's drop-old ring, because evicting an ancestor would orphan its
//! surviving children).

use std::fmt;

/// Identifier of a span within one [`SpanStore`]. Ids are assigned
/// sequentially from 1; they are stable for the lifetime of the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw 1-based id.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One recorded span: a named logical-time interval with an optional
/// parent and key=value attributes.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span, if any (`None` = root).
    pub parent: Option<SpanId>,
    /// Human-readable name, e.g. `packet #7 3->41` or `hop 3->9`.
    pub name: String,
    /// Logical start time (simulation cycle).
    pub start: u64,
    /// Logical end time; `None` while the span is open.
    pub end: Option<u64>,
    /// Attributes in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// The attribute named `key`, if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Duration in logical ticks (0 while open).
    pub fn duration(&self) -> u64 {
        self.end.map_or(0, |e| e.saturating_sub(self.start))
    }
}

/// A bounded collection of spans. Lookup by id is O(1) because ids are
/// dense indices into the backing vector.
#[derive(Clone, Debug, Default)]
pub struct SpanStore {
    spans: Vec<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

impl SpanStore {
    /// Creates a store holding at most `capacity` spans (0 = record
    /// nothing, count every start as dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            spans: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Starts a span. Returns `None` (and counts a drop) once the store
    /// is full. A `parent` that was itself dropped simply yields a root.
    pub fn start(&mut self, name: &str, parent: Option<SpanId>, start: u64) -> Option<SpanId> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start,
            end: None,
            attrs: Vec::new(),
        });
        Some(id)
    }

    /// Closes span `id` at logical time `end`. Closing twice keeps the
    /// first end; unknown ids are ignored.
    pub fn end(&mut self, id: SpanId, end: u64) {
        if let Some(s) = self.get_mut(id) {
            s.end.get_or_insert(end);
        }
    }

    /// Appends attribute `key=value` to span `id` (unknown ids ignored).
    pub fn attr(&mut self, id: SpanId, key: &str, value: impl Into<String>) {
        if let Some(s) = self.get_mut(id) {
            s.attrs.push((key.to_string(), value.into()));
        }
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
        let idx = (id.0 as usize).checked_sub(1)?;
        self.spans.get_mut(idx)
    }

    /// The span with this id, if recorded.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.get((id.0 as usize).wrapping_sub(1))
    }

    /// All recorded spans in id (= start) order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Capacity the store was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans refused because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_attrs() {
        let mut st = SpanStore::new(16);
        let root = st.start("packet #0", None, 0).unwrap();
        let hop = st.start("hop 0->1", Some(root), 0).unwrap();
        st.attr(hop, "queue", "3");
        st.attr(hop, "wait", "2");
        st.end(hop, 3);
        st.end(root, 7);
        assert_eq!(st.len(), 2);
        let h = st.get(hop).unwrap();
        assert_eq!(h.parent, Some(root));
        assert_eq!(h.attr("queue"), Some("3"));
        assert_eq!(h.attr("wait"), Some("2"));
        assert_eq!(h.duration(), 3);
        assert_eq!(st.get(root).unwrap().end, Some(7));
    }

    #[test]
    fn capacity_bound_drops_new_spans_exactly() {
        let mut st = SpanStore::new(2);
        let a = st.start("a", None, 0);
        let b = st.start("b", a, 1);
        assert!(a.is_some() && b.is_some());
        for i in 0..5 {
            assert!(st.start("late", a, i).is_none());
        }
        assert_eq!(st.len(), 2);
        assert_eq!(st.dropped(), 5);
        // Existing spans stay addressable after drops.
        st.end(b.unwrap(), 9);
        assert_eq!(st.get(b.unwrap()).unwrap().end, Some(9));
    }

    #[test]
    fn zero_capacity_counts_every_start() {
        let mut st = SpanStore::new(0);
        assert!(st.start("x", None, 0).is_none());
        assert_eq!(st.dropped(), 1);
        assert!(st.is_empty());
    }

    #[test]
    fn double_end_keeps_first() {
        let mut st = SpanStore::new(4);
        let s = st.start("s", None, 1).unwrap();
        st.end(s, 5);
        st.end(s, 9);
        assert_eq!(st.get(s).unwrap().end, Some(5));
    }
}
