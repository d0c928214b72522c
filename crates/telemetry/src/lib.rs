//! # hb-telemetry — observability substrate for the hyper-butterfly stack
//!
//! The paper's claims (Theorem 3 diameter, Corollary 1 fault tolerance,
//! §3 routing optimality) are *exercised* by `hb-netsim` and
//! `hb-distributed`, but aggregate numbers alone cannot show **where**
//! congestion forms, **which** links saturate, or **how** latency is
//! distributed. This crate is the measurement layer every simulator and
//! protocol run reports through:
//!
//! * [`registry`] — monotonic [`Counter`]s and [`Gauge`]s behind a cheap
//!   name-keyed [`Registry`];
//! * [`histogram`] — a log-bucketed latency [`Histogram`] whose quantile
//!   queries return values provably bracketed by the true order
//!   statistics of the recorded samples;
//! * [`links`] — [`LinkStats`], a map keyed by directed channel
//!   recording packets forwarded, busy cycles, and peak queue depth —
//!   the dynamic counterpart of the static edge forwarding index;
//! * [`trace`] — a bounded ring-buffer [`EventTrace`] of packet and
//!   protocol-round events with cheap `enabled` gating;
//! * [`span`] — causal [`SpanRecord`] trees in logical sim time
//!   (packet flights, protocol rounds) behind a bounded [`SpanStore`];
//! * [`timeseries`] — windowed per-cycle [`Series`] (bounded drop-oldest
//!   rings of min/max/mean/last aggregates keyed by logical cycle) plus
//!   a congestion detector flagging hotspot links, head-of-line queue
//!   growth, and slow drains as severity-tagged [`CongestionEvent`]s;
//! * [`profile`] — deterministic work-attribution [`Profile`]s counting
//!   invocations and work units per hierarchical phase (wall-clock
//!   profiling is banned in library code, so profiles are
//!   byte-reproducible and CI-gateable);
//! * [`slo`] — declarative [`SloSpec`] thresholds (p99 latency,
//!   delivered fraction, queue depth, unroutable count) evaluated over
//!   a finished run's snapshot;
//! * [`sink`] — pluggable renderers to fixed-width text tables, JSON
//!   lines, CSV, Chrome trace-event JSON, and span trees.
//!
//! The [`Telemetry`] handle ties these together. It is a cheap
//! reference-counted clone; every instrumented subsystem takes an
//! `Option<Telemetry>` and pays **zero** cost when it is `None` (the
//! simulator's `SimStats` are byte-identical with telemetry off — see
//! the `hb-netsim` tests).
//!
//! No external dependencies; `std` only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod links;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

mod handle;

pub use handle::{Telemetry, TelemetryLevel, CYCLES_COUNTER};
pub use histogram::{Histogram, Quantiles};
pub use links::{LinkKey, LinkRecord, LinkStats};
pub use profile::{PhaseStats, Profile};
pub use registry::{Counter, Gauge, Registry};
pub use sink::{
    ChromeTraceSink, CsvSink, JsonLinesSink, ProfileSink, ReportSink, Sink, Snapshot, SpanTreeSink,
    TextSink,
};
pub use slo::{SloCheck, SloSpec};
pub use span::{SpanId, SpanRecord, SpanStore};
pub use timeseries::{
    CongestionEvent, CongestionKind, DetectorConfig, Series, SeriesSet, Severity, TsConfig,
    WindowAgg,
};
pub use trace::{Event, EventTrace};
