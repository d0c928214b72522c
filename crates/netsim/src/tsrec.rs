//! Local time-series recorders for the simulation runners.
//!
//! Mirrors the `crate::kernel::Scoreboard` pattern: hot loops record into
//! plain local structs (no locks, no name lookups per sample) and the
//! accumulated series merge into the shared [`Telemetry`] handle once at
//! the end of the run: the global series one by one under their names,
//! the link series as one frozen [`hb_telemetry::LinkSeries`] store
//! (`crate::kernel::RunCtx::finish` freezes every shard's recorder
//! together, sorting each recorder's log by channel in place, so the
//! store keeps the recorded windows instead of a copy), which names a
//! link only when a sink prints it. Both recorders key every sample by
//! **logical cycle**, so a serial run and a sharded parallel run
//! produce byte-identical series (the `par_equiv` suite asserts
//! snapshot equality, which covers the series store and the congestion
//! events).
//!
//! Canonical series names (DESIGN.md §12):
//!
//! | name                  | sample (once per cycle)                     |
//! |-----------------------|---------------------------------------------|
//! | `sim.in_flight`       | routed packets in the network, end of cycle |
//! | `sim.injected`        | injections consumed this cycle              |
//! | `sim.delivered`       | packets delivered this cycle                |
//! | `sim.queue.max`       | deepest channel queue, post-injection       |
//! | `sim.active_channels` | channels with a non-empty queue             |
//! | `link.U->V.queue`     | queue depth of channel U->V on every cycle  |
//! |                       | it held at least one packet                 |
//! | `sim.reroutes`        | detoured injections this cycle (faulted)    |
//! | `sim.unroutable`      | refused injections this cycle (faulted)     |

use crate::kernel::CycleSample;
use hb_telemetry::{LinkKey, Series, SeriesSet, Telemetry, TsConfig};

/// Whole-network per-cycle series, recorded once per simulated cycle.
pub(crate) struct GlobalTs {
    in_flight: Series,
    injected: Series,
    delivered: Series,
    queue_max: Series,
    active_channels: Series,
    /// Present only for fault-aware runs.
    faulted: Option<(Series, Series)>, // (reroutes, unroutable)
}

impl GlobalTs {
    pub(crate) fn new(cfg: TsConfig, faulted: bool) -> Self {
        GlobalTs {
            in_flight: Series::new(cfg),
            injected: Series::new(cfg),
            delivered: Series::new(cfg),
            queue_max: Series::new(cfg),
            active_channels: Series::new(cfg),
            faulted: faulted.then(|| (Series::new(cfg), Series::new(cfg))),
        }
    }

    /// Records one cycle's global samples (the fault series only for
    /// fault-aware runs).
    #[inline]
    pub(crate) fn record(&mut self, cycle: u64, s: &CycleSample) {
        self.in_flight.record(cycle, s.in_flight);
        self.injected.record(cycle, s.injected);
        self.delivered.record(cycle, s.delivered);
        self.queue_max.record(cycle, s.peak);
        self.active_channels.record(cycle, s.active);
        if let Some((r, u)) = self.faulted.as_mut() {
            r.record(cycle, s.reroutes);
            u.record(cycle, s.unroutable);
        }
    }

    /// Moves the accumulated series into the shared handle.
    pub(crate) fn merge_into(self, tel: &Telemetry) {
        tel.merge_series("sim.in_flight", self.in_flight);
        tel.merge_series("sim.injected", self.injected);
        tel.merge_series("sim.delivered", self.delivered);
        tel.merge_series("sim.queue.max", self.queue_max);
        tel.merge_series("sim.active_channels", self.active_channels);
        if let Some((r, u)) = self.faulted {
            tel.merge_series("sim.reroutes", r);
            tel.merge_series("sim.unroutable", u);
        }
    }
}

/// Per-channel queue-depth series over the channel range
/// `[lo, lo + len)` — the whole network for serial runs, one shard's
/// slice for parallel runs (channels are disjoint across shards, so
/// shard-local recording merges without conflicts). A dense
/// [`SeriesSet`] over the range holds the windows; this adds the
/// channel offset.
pub(crate) struct LinkTs {
    lo: usize,
    len: usize,
    set: SeriesSet,
}

impl LinkTs {
    pub(crate) fn new(cfg: TsConfig, lo: usize, len: usize) -> Self {
        LinkTs {
            lo,
            len,
            set: SeriesSet::new(cfg, len),
        }
    }

    /// Records channel `ch`'s queue depth on a cycle it held a packet.
    #[inline]
    pub(crate) fn observe(&mut self, ch: usize, cycle: u64, depth: u64) {
        self.set.record(ch - self.lo, cycle, depth);
    }

    /// The recorded set and the links of its channels, ready for
    /// [`hb_telemetry::LinkSeries::freeze`] (`ends` is indexed by global
    /// channel id).
    pub(crate) fn into_part(self, ends: &[LinkKey]) -> (SeriesSet, &[LinkKey]) {
        (self.set, &ends[self.lo..self.lo + self.len])
    }
}
