//! # hb-telemetry — observability substrate for the hyper-butterfly stack
//!
//! The paper's claims (Theorem 3 diameter, Corollary 1 fault tolerance,
//! §3 routing optimality) are *exercised* by the `hb-netsim` simulator,
//! but aggregate numbers alone cannot show **where** congestion forms,
//! **which** links saturate, or **how** latency is distributed. This
//! crate is the measurement layer the simulator and its harnesses report
//! through (the protocol runs of `hb-distributed` report per-round
//! message counts in their own `RunOutcome` instead):
//!
//! * [`histogram`] — a log-bucketed latency [`Histogram`] whose quantile
//!   queries return values provably bracketed by the true order
//!   statistics of the recorded samples;
//! * [`links`] — [`LinkStats`], a table of directed channels in key
//!   order recording packets forwarded, busy cycles, and peak queue
//!   depth — the dynamic counterpart of the static edge forwarding
//!   index; a run fills it in one pass, and sinks rank only the rows
//!   they print;
//! * [`trace`] — a bounded ring-buffer [`EventTrace`] of packet,
//!   congestion and SLO events with cheap `enabled` gating;
//! * [`span`] — causal [`SpanRecord`] trees in logical sim time
//!   (packet flights) behind a bounded [`SpanStore`];
//! * [`timeseries`] — windowed per-cycle [`Series`] (bounded drop-oldest
//!   rings of min/max/mean/last aggregates keyed by logical cycle), the
//!   frozen per-link store [`LinkSeries`] that a handle and its
//!   snapshots share, plus a congestion detector flagging hotspot
//!   links, head-of-line queue growth, and slow drains as
//!   severity-tagged [`CongestionEvent`]s;
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
//! The [`Telemetry`] handle ties these together and keeps the
//! name-keyed monotonic [`Counter`]s itself. It is a cheap
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
pub mod sink;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

mod handle;

pub use handle::{Counter, Telemetry, CYCLES_COUNTER};
pub use histogram::{Histogram, Quantiles};
pub use links::{LinkKey, LinkRecord, LinkStats};
pub use profile::{PhaseStats, Profile};
pub use sink::{
    ChromeTraceSink, CsvSink, JsonLinesSink, ProfileSink, ReportSink, Sink, Snapshot, SpanTreeSink,
    TextSink,
};
pub use slo::{SloCheck, SloSpec};
pub use span::{SpanId, SpanRecord, SpanStore};
pub use timeseries::{
    CongestionEvent, CongestionKind, DetectorConfig, LinkSeries, Series, SeriesName, SeriesSet,
    SeriesStore, SeriesView, Severity, TsConfig, WindowAgg,
};
pub use trace::{Event, EventTrace};
