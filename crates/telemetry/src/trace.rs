//! Bounded event tracing: packet lifecycle, congestion flags and SLO
//! verdicts.
//!
//! The trace is a fixed-capacity ring buffer — when full, the oldest
//! events are dropped (and counted), so tracing a long run costs bounded
//! memory and the *tail* of the run stays inspectable. Producers gate
//! event construction on [`crate::Telemetry::trace_enabled`], which is a
//! single branch when tracing is off.

use crate::timeseries::{CongestionKind, Severity};
use std::collections::VecDeque;

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A packet entered its source queue.
    PacketInjected {
        /// Packet id (injection order).
        id: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Simulation cycle.
        cycle: u64,
    },
    /// A packet crossed one directed channel.
    PacketHop {
        /// Packet id.
        id: u64,
        /// Channel tail (sender).
        from: u32,
        /// Channel head (receiver).
        to: u32,
        /// Simulation cycle.
        cycle: u64,
    },
    /// A packet reached its destination.
    PacketDelivered {
        /// Packet id.
        id: u64,
        /// Destination node.
        dst: u32,
        /// End-to-end latency in cycles.
        latency: u64,
        /// Simulation cycle.
        cycle: u64,
    },
    /// A packet was refused (full source buffer under bounded queues).
    PacketDropped {
        /// Packet id.
        id: u64,
        /// Node where the drop happened.
        at: u32,
        /// Simulation cycle.
        cycle: u64,
    },
    /// One service-level objective was checked against a finished run
    /// (appended after the run by [`crate::slo::emit`]). Threshold and
    /// actual are pre-formatted so the event renders identical bytes in
    /// every sink.
    SloCheck {
        /// Objective name (`p99_latency`, `delivered_fraction`, ...).
        name: String,
        /// The configured bound, rendered (e.g. `<= 40`).
        threshold: String,
        /// The observed value, rendered.
        actual: String,
        /// Whether the run satisfied the bound.
        pass: bool,
    },
    /// The congestion detector flagged a sustained condition
    /// (appended after the run by [`crate::Telemetry::detect_congestion`]).
    Congestion {
        /// What was detected.
        kind: CongestionKind,
        /// How bad it is.
        severity: Severity,
        /// The series it was detected on.
        subject: String,
        /// First window index of the flagged span.
        window_start: u64,
        /// Last window index of the flagged span (inclusive).
        window_end: u64,
        /// Peak sample inside the flagged span.
        peak: u64,
    },
}

/// A bounded ring buffer of [`Event`]s.
#[derive(Clone, Debug, Default)]
pub struct EventTrace {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventTrace {
    /// Creates a trace holding at most `capacity` events (0 = record
    /// nothing, count everything as dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, e: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(e);
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Retained events as a vector, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        self.buf.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity the trace was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted (or refused) because of the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(id: u64) -> Event {
        Event::PacketHop {
            id,
            from: 0,
            to: 1,
            cycle: id,
        }
    }

    #[test]
    fn ring_keeps_the_tail() {
        let mut t = EventTrace::new(3);
        for i in 0..5 {
            t.push(hop(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let ids: Vec<u64> = t
            .iter()
            .map(|e| match e {
                Event::PacketHop { id, .. } => *id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn wraparound_evicts_oldest_first_with_exact_drop_count() {
        // Sweep fill levels around the capacity boundary: at every point
        // the retained window is exactly the newest `min(pushed, cap)`
        // events in order, and the drop counter is exactly
        // `pushed - retained`.
        for cap in [1usize, 2, 3, 7, 8] {
            let mut t = EventTrace::new(cap);
            for pushed in 1..=(3 * cap as u64 + 2) {
                t.push(hop(pushed - 1));
                let retained = (pushed as usize).min(cap);
                assert_eq!(t.len(), retained, "cap={cap} pushed={pushed}");
                assert_eq!(
                    t.dropped(),
                    pushed - retained as u64,
                    "cap={cap} pushed={pushed}"
                );
                let ids: Vec<u64> = t
                    .iter()
                    .map(|e| match e {
                        Event::PacketHop { id, .. } => *id,
                        _ => unreachable!(),
                    })
                    .collect();
                let want: Vec<u64> = (pushed - retained as u64..pushed).collect();
                assert_eq!(ids, want, "cap={cap} pushed={pushed}");
            }
        }
    }

    #[test]
    fn zero_capacity_counts_drops() {
        let mut t = EventTrace::new(0);
        t.push(hop(0));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
