//! Cycle-accurate store-and-forward packet simulator.
//!
//! Model (the standard interconnection-network abstraction the paper's
//! VLSI motivation implies):
//!
//! * every undirected edge is two directed **channels**, each moving at
//!   most one packet per cycle (1 packet = 1 flit);
//! * each channel has a FIFO queue at its sending node (unbounded —
//!   latency-versus-load studies measure occupancy instead of dropping;
//!   [`run_bounded`] adds finite buffers with backpressure);
//! * packets are **source routed**: the topology's oblivious router fixes
//!   the path at injection (hop = 1 cycle) — or, in [`run_adaptive`],
//!   pick the least-loaded shortest-path hop at every step;
//! * a node's channels are served independently (all-port model), which
//!   matches the bounded-degree design point the paper argues for: a
//!   node never serves more than `degree` channels.
//!
//! Every entry point here, in [`crate::flight`], and in [`crate::churn`]
//! instantiates the one cycle kernel (`crate::kernel`, DESIGN.md §17)
//! with a route policy and a queue discipline; this module holds the
//! shared run types and the channel layout. The channel queues live in
//! [`crate::pool`], beside the packet pool whose keys they thread.
//!
//! # Observability
//!
//! Attach a [`hb_telemetry::Telemetry`] handle via
//! [`SimConfig::with_telemetry`] and the run populates latency/hop
//! histograms (`sim.latency`, `sim.hops`), counters (`sim.offered`,
//! `sim.delivered`, `sim.stranded`, `sim.cycles`, and `sim.dropped` for
//! bounded runs), per-directed-link forwarding/busy/peak statistics, and
//! — at trace level — per-packet lifecycle events. With `telemetry:
//! None` the kernel takes the same code paths and the returned
//! [`SimStats`] are identical (a unit test asserts this). The kernel
//! accumulates into dense local vectors and a private histogram,
//! merging into the shared handle once at the end, so the summary-level
//! overhead is O(channels) memory and one branch per served channel.

use crate::faults::{FaultPlan, FaultTimeline};
use crate::kernel::{drive_serial, Adaptive, Bounded, RunCtx, SourceRouted, Unbounded};
use crate::routes::RouteTable;
use crate::topology::{NetTopology, MAX_PRODUCTIVE};
use hb_graphs::NodeId;
use hb_telemetry::{LinkKey, Telemetry};

/// A packet to inject: source, destination, injection cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle at which the packet enters the source's queues.
    pub at: u64,
}

/// Test shorthand for an [`Injection`].
#[cfg(test)]
pub(crate) fn inj(src: NodeId, dst: NodeId, at: u64) -> Injection {
    Injection { src, dst, at }
}

/// Aggregate results of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Packets offered by the workload.
    pub offered: u64,
    /// Packets delivered before the cycle limit.
    pub delivered: u64,
    /// Packets not delivered when the simulation stopped: refused at
    /// admission (unroutable under faults or a fault timeline), dropped
    /// at a full source queue (bounded runs), still queued, or never
    /// injected (injection time past the cycle limit). Invariant:
    /// `delivered + stranded == offered`.
    pub stranded: u64,
    /// Mean delivered latency (cycles), 0 if nothing was delivered.
    // analyze: allow(float-determinism, derived summary statistic; engines compare on integer counters)
    pub avg_latency: f64,
    /// Largest delivered latency.
    pub max_latency: u64,
    /// Mean hop count of delivered packets.
    // analyze: allow(float-determinism, derived summary statistic; engines compare on integer counters)
    pub avg_hops: f64,
    /// Peak queue occupancy over all channels and cycles.
    pub peak_queue: usize,
    /// Cycles simulated.
    pub cycles: u64,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard stop, even if packets remain in flight. Every run also stops
    /// early once all offered packets are delivered.
    pub max_cycles: u64,
    /// Optional observability sink. `None` (the default) records nothing
    /// and costs nothing: the returned [`SimStats`] are identical with
    /// and without a handle attached. Histograms cover routed packets
    /// only, matching `avg_latency` (zero-hop self-deliveries are
    /// excluded).
    pub telemetry: Option<Telemetry>,
    /// Worker threads for the sharded parallel engine (`1` = one serial
    /// kernel). Results are **byte-identical** at every thread count:
    /// shards serve channels in the same canonical ascending channel
    /// order the serial kernel uses and merge cross-shard traffic in
    /// fixed shard-index order. Applies to [`run`],
    /// [`crate::flight::run_with_faults`], and
    /// [`crate::churn::run_with_timeline`] (the last two stay serial
    /// while span tracing is live); the bounded and adaptive runners
    /// have inherently sequential per-cycle dependences (head-of-line
    /// credit admission, least-queue choice), always run serially, and
    /// ignore this field.
    pub threads: usize,
    /// Emit per-shard `sim.shard.<i>.*` counters and one root span per
    /// shard (trace level) after a parallel run. Off by default so
    /// telemetry snapshots stay identical across thread counts.
    pub shard_telemetry: bool,
    /// Accumulate a deterministic work-attribution
    /// [`hb_telemetry::Profile`] (phases `sim/route_build`,
    /// `sim/route_lookup`, `sim/queue_service`, `sim/adaptive_scan`)
    /// into the telemetry handle. Work units are logical (nodes written,
    /// packets serviced, candidates scanned — never wall clock), so the
    /// profile is byte-identical run to run **and across thread
    /// counts**. No-op without a telemetry handle. Hot loops count into
    /// plain locals, so the steady state stays allocation-free.
    pub profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            max_cycles: 100_000,
            telemetry: None,
            threads: 1,
            shard_telemetry: false,
            profile: false,
        }
    }
}

impl SimConfig {
    /// A config with the given cycle cap and no telemetry.
    pub fn bounded(max_cycles: u64) -> Self {
        Self {
            max_cycles,
            ..Self::default()
        }
    }

    /// Attaches a telemetry handle.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Sets the worker-thread count (clamped to at least 1). Stats and
    /// telemetry snapshots do not depend on this value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables per-shard counters and root spans (parallel runs only).
    #[must_use]
    pub fn with_shard_telemetry(mut self, on: bool) -> Self {
        self.shard_telemetry = on;
        self
    }

    /// Enables the deterministic work-attribution profile (requires a
    /// telemetry handle to land anywhere).
    #[must_use]
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }
}

/// CSR channel offsets for `g`: channel of `(u, port)` is
/// `offsets[u] + port`.
pub(crate) fn channel_offsets(g: &hb_graphs::Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for v in 0..n {
        offsets.push(offsets[v] + g.degree(v));
    }
    offsets
}

/// How a runner maps `(node, port)` to dense channel ids. The two
/// variants produce the **same numbering**: CSR offsets over sorted
/// adjacency degenerate to `offsets[v] = v * degree` on a uniform-degree
/// graph, with ports in ascending neighbor order either way — so
/// switching layouts never renumbers a channel, which is what keeps
/// graph-free runs byte-identical to materialised ones.
pub(crate) enum ChanLayout<'a> {
    /// CSR over the materialised graph's sorted adjacency: node `u`'s
    /// channels are `offsets[u]..offsets[u + 1]`, and `heads[ch]` is the
    /// node channel `ch` leads to.
    Csr {
        offsets: Vec<usize>,
        heads: Vec<u32>,
    },
    /// Arithmetic layout for uniform-degree topologies: channel of
    /// `(v, port)` is `v * degree + port`, neighbors enumerated
    /// algebraically via [`NetTopology::neighbors_into`] (ascending).
    /// O(1) memory — no adjacency arrays.
    Uniform {
        topo: &'a dyn NetTopology,
        num_nodes: usize,
        degree: usize,
    },
}

impl<'a> ChanLayout<'a> {
    /// Picks the layout for `topo`: CSR over its materialised graph,
    /// arithmetic when it has none.
    pub(crate) fn new(topo: &'a dyn NetTopology) -> Self {
        match topo.explicit_graph() {
            Some(g) => ChanLayout::Csr {
                offsets: channel_offsets(g),
                heads: g.nodes().flat_map(|v| g.neighbors(v)).copied().collect(),
            },
            None => ChanLayout::Uniform {
                topo,
                num_nodes: topo.num_nodes(),
                degree: topo
                    .uniform_degree()
                    .expect("invariant: graph-free topologies have a uniform degree"),
            },
        }
    }

    /// Total directed channels.
    pub(crate) fn num_channels(&self) -> usize {
        match self {
            ChanLayout::Csr { heads, .. } => heads.len(),
            ChanLayout::Uniform {
                num_nodes, degree, ..
            } => num_nodes * degree,
        }
    }

    /// First channel id owned by node `v` (== CSR `offsets[v]`). Shard
    /// boundaries in the parallel engine are computed from this, so both
    /// layouts cut the channel space at identical node-aligned points;
    /// the adaptive router adds a productive port to it.
    #[inline]
    pub(crate) fn node_first_channel(&self, v: NodeId) -> usize {
        match self {
            ChanLayout::Csr { offsets, .. } => offsets[v],
            ChanLayout::Uniform { degree, .. } => v * degree,
        }
    }

    /// Channel id of the directed edge `(u, v)`.
    ///
    /// # Panics
    /// Panics if `(u, v)` is not an edge.
    #[inline]
    pub(crate) fn channel_of(&self, u: NodeId, v: NodeId) -> usize {
        match self {
            ChanLayout::Csr { offsets, heads } => {
                let port = heads[offsets[u]..offsets[u + 1]]
                    .binary_search(&(v as u32))
                    .unwrap_or_else(|_| panic!("route step ({u}, {v}) is not an edge")); // analyze: allow(panic-policy, internal invariant needs the offending ids; expect cannot format them)
                offsets[u] + port
            }
            ChanLayout::Uniform { topo, degree, .. } => {
                let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
                let k = topo.neighbors_into(u, &mut buf);
                let port = buf[..k]
                    .binary_search(&v)
                    .unwrap_or_else(|_| panic!("route step ({u}, {v}) is not an edge")); // analyze: allow(panic-policy, internal invariant needs the offending ids; expect cannot format them)
                u * degree + port
            }
        }
    }

    /// Channel id -> (tail, head) endpoints, dense over all channels and
    /// ascending: both layouts number a node's channels by ascending
    /// head. O(channels) — only materialised when a telemetry scoreboard
    /// needs it (the million-node perf path runs telemetry-off and never
    /// calls this).
    pub(crate) fn endpoints(&self) -> Vec<LinkKey> {
        match self {
            ChanLayout::Csr { offsets, heads } => offsets
                .windows(2)
                .enumerate()
                .flat_map(|(v, w)| {
                    heads[w[0]..w[1]]
                        .iter()
                        .map(move |&to| LinkKey { from: v as u32, to })
                })
                .collect(),
            ChanLayout::Uniform {
                topo,
                num_nodes,
                degree,
            } => {
                let mut ends = Vec::with_capacity(num_nodes * degree);
                let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
                for v in 0..*num_nodes {
                    let k = topo.neighbors_into(v, &mut buf);
                    debug_assert_eq!(k, *degree, "uniform_degree contract");
                    ends.extend(buf[..k].iter().map(|&w| LinkKey {
                        from: v as u32,
                        to: w as u32,
                    }));
                }
                ends
            }
        }
    }

    /// Head node of channel `ch` (the node a packet crossing it
    /// reaches): a table read under CSR, one neighbor enumeration under
    /// the uniform layout.
    #[inline]
    pub(crate) fn head_of(&self, ch: usize) -> NodeId {
        match self {
            ChanLayout::Csr { heads, .. } => heads[ch] as NodeId,
            ChanLayout::Uniform { topo, degree, .. } => {
                let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
                let k = topo.neighbors_into(ch / degree, &mut buf);
                debug_assert!(ch % degree < k, "uniform_degree contract");
                buf[ch % degree]
            }
        }
    }
}

/// Memory accounting for one serial oblivious run — the diagnostic
/// companion [`run_with_mem`] returns alongside the stats. Deliberately
/// **not** part of [`SimStats`] or the telemetry snapshot: storage mode
/// must never perturb results, so the accounting rides on a separate
/// channel that equivalence tests don't compare.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Peak concurrently materialised channel records. Under implicit
    /// (sparse) storage this is bounded by concurrently busy channels —
    /// O(active traffic) — never by topology size; dense storage reports
    /// the full channel count.
    pub peak_channel_records: usize,
    /// Total directed channels of the topology (what dense storage
    /// allocates up front).
    pub num_channels: usize,
    /// Heap bytes held by the channel store at run end: its records and
    /// the per-key queue links.
    pub channel_store_bytes: usize,
    /// Heap bytes held by the workload-keyed route table.
    pub route_table_bytes: usize,
}

/// Like [`run`], but also reports channel-storage memory accounting.
/// Serial only (memory attribution is per-store and the sharded engine
/// owns one store per shard).
///
/// # Panics
/// As [`run`]; additionally panics if `cfg.threads > 1`.
pub fn run_with_mem(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
) -> (SimStats, MemStats) {
    assert!(cfg.threads <= 1, "memory accounting is serial-only");
    let ctx = RunCtx::new(topo, injections, &cfg);
    let table = RouteTable::for_injections(topo, injections, &FaultPlan::new());
    let mut mem = MemStats {
        route_table_bytes: table.heap_bytes(),
        ..MemStats::default()
    };
    let route = SourceRouted {
        routes: &table,
        layout: &ctx.layout,
        faults: false,
    };
    let stats = drive_serial(&ctx, route, Unbounded, None, Some(&mut mem));
    (stats, mem)
}

/// Runs the simulation of `injections` (must be sorted by `at`) on
/// `topo`.
///
/// Routes are compiled once per distinct `(src, dst)` pair into a
/// [`RouteTable`] and packets live in a slab [`crate::pool::PacketPool`],
/// so the cycle kernel allocates nothing in steady state. Channels are
/// served in ascending channel-id order — the canonical order the
/// sharded parallel engine ([`SimConfig::with_threads`]) reproduces
/// exactly, so the returned stats (and telemetry snapshots) are
/// identical at every thread count.
///
/// # Panics
/// Panics if injections are not sorted by injection cycle, or reference
/// out-of-range nodes.
///
/// # Examples
/// ```
/// use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet};
/// use hb_netsim::{run, sim::SimConfig, workload};
/// let net = HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap();
/// let traffic = workload::uniform(48, 10, 0.2, 7);
/// let stats = run(&net, &traffic, SimConfig::default());
/// assert_eq!(stats.delivered, stats.offered);
/// ```
pub fn run(topo: &dyn NetTopology, injections: &[Injection], cfg: SimConfig) -> SimStats {
    let ctx = RunCtx::new(topo, injections, &cfg);
    let table = RouteTable::for_injections(topo, injections, &FaultPlan::new());
    let route = SourceRouted {
        routes: &table,
        layout: &ctx.layout,
        faults: false,
    };
    if cfg.threads > 1 {
        return crate::par::run_sharded(&ctx, route);
    }
    drive_serial(&ctx, route, Unbounded, None, None)
}

/// Runs the oblivious simulation with **bounded queues and
/// backpressure**: each channel queue holds at most `capacity` packets; a
/// packet advances only if its next queue has room (head-of-line
/// blocking, credit-style flow control). Injection fails when the first
/// queue is full — such packets are dropped and counted in `stranded`
/// (delivered + stranded == offered still holds).
///
/// This is the realistic finite-buffer router model; the unbounded
/// [`run`] measures latency-versus-load without loss, this one measures
/// loss and saturation onset.
///
/// **Deadlock**: finite buffers plus cyclic channel dependencies can
/// deadlock (the classic wormhole/store-and-forward hazard — the level
/// cycle of the butterfly makes such cycles possible). A deadlocked run
/// simply hits `max_cycles` with `stranded > 0`; detecting/avoiding
/// deadlock (virtual channels, bubble routing) is out of scope for this
/// reproduction and flagged as future work in DESIGN.md.
///
/// # Panics
/// As [`run`].
pub fn run_bounded(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
    capacity: usize,
) -> SimStats {
    let (no_faults, no_events) = (FaultPlan::new(), FaultTimeline::new());
    crate::run_bounded_with_timeline(topo, injections, cfg, capacity, &no_faults, &no_events)
}

/// Reference **full-sweep** implementation of [`run_bounded`]: the same
/// model, but each cycle scans every channel in ascending id order
/// instead of draining the active worklist — O(channels) per cycle
/// regardless of traffic. Retained as the differential-testing oracle
/// that pins the frontier worklist byte-identical (stats, counters,
/// histograms, link stats, profiles, traces); not intended for large
/// topologies.
///
/// # Panics
/// As [`run_bounded`].
pub fn run_bounded_sweep(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
    capacity: usize,
) -> SimStats {
    let table = RouteTable::for_injections(topo, injections, &FaultPlan::new());
    let queues = Bounded {
        capacity,
        sweep: true,
    };
    run_bounded_on(topo, injections, &cfg, queues, &table)
}

/// The bounded-queue run over compiled routes. Under a fault plan or
/// timeline ([`crate::run_bounded_with_timeline`]) an injection whose
/// compiled route is empty is **unroutable** under the plan in force
/// at its cycle: refused at admission, counted in `sim.unroutable` and
/// `stranded`. Detour *attribution* stays the flight runs' job — the
/// bounded model only accounts deliverability.
pub(crate) fn run_bounded_on(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: &SimConfig,
    queues: Bounded,
    routes: &RouteTable,
) -> SimStats {
    assert!(queues.capacity >= 1, "queues need capacity >= 1");
    let ctx = RunCtx::new(topo, injections, cfg);
    let route = SourceRouted {
        routes,
        layout: &ctx.layout,
        faults: false,
    };
    drive_serial(&ctx, route, queues, None, None)
}

/// Runs a **minimal adaptive** simulation: at every hop the packet picks,
/// among the topology's productive next hops (neighbors on some shortest
/// path, [`NetTopology::productive_hops`]), the one whose outgoing queue
/// is currently shortest. Hop counts stay minimal; only the *choice* of
/// shortest path adapts to congestion — the ablation partner of the
/// oblivious [`run`].
///
/// # Panics
/// As [`run`]; additionally panics if a topology reports no productive
/// hop for an undelivered packet (which would contradict shortest-path
/// reachability).
pub fn run_adaptive(topo: &dyn NetTopology, injections: &[Injection], cfg: SimConfig) -> SimStats {
    run_adaptive_on(topo, injections, &cfg, None)
}

/// The adaptive run. `admission`, set by
/// [`crate::run_adaptive_with_timeline`], gates injections on the
/// fault-timeline routes compiled for their cycle: a packet whose
/// compiled route is empty is unroutable and refused. In-transit
/// adaptivity stays **fault-blind** — the productive-hop scan does not
/// consult the plan (documented limitation; the oblivious churn runs
/// are the fault-aware ones).
pub(crate) fn run_adaptive_on(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: &SimConfig,
    admission: Option<&RouteTable>,
) -> SimStats {
    let ctx = RunCtx::new(topo, injections, cfg);
    let route = Adaptive {
        topo,
        layout: &ctx.layout,
        admission,
        ports: [0; MAX_PRODUCTIVE],
    };
    drive_serial(&ctx, route, Unbounded, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet};
    use hb_telemetry::Event;

    #[test]
    fn single_packet_latency_is_distance() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let s = run(&t, &inj, SimConfig::default());
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stranded, 0);
        assert_eq!(s.avg_latency, 4.0); // 4 hops, no contention
        assert_eq!(s.avg_hops, 4.0);
    }

    #[test]
    fn contention_serialises_on_shared_channel() {
        // Two packets injected the same cycle over the same first channel.
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 1, 0), inj(0, 1, 0)];
        let s = run(&t, &inj, SimConfig::default());
        assert_eq!(s.delivered, 2);
        // One arrives at cycle 1, the other queues one cycle: latencies 1, 2.
        assert_eq!(s.avg_latency, 1.5);
        assert_eq!(s.max_latency, 2);
        assert_eq!(s.peak_queue, 2);
    }

    #[test]
    fn self_addressed_packets_deliver_instantly() {
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(5, 5, 0)];
        let s = run(&t, &inj, SimConfig::default());
        assert_eq!(s.delivered, 1);
        assert_eq!(s.avg_latency, 0.0);
    }

    #[test]
    fn cycle_limit_strands_packets() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let s = run(&t, &inj, SimConfig::bounded(2));
        assert_eq!(s.delivered, 0);
        assert_eq!(s.stranded, 1);
        assert_eq!(s.cycles, 2);
    }

    #[test]
    fn conservation_holds_under_cycle_limit_in_all_simulators() {
        // Stop mid-flight at several cut points: delivered + stranded
        // must equal offered no matter where the limit lands (some
        // packets queued, some in flight, some never injected).
        let t = HypercubeNet::new(4).unwrap();
        let inj: Vec<Injection> = (0..24)
            .map(|i| inj(i % 16, (i * 5 + 3) % 16, (i / 8) as u64))
            .collect();
        for limit in [0, 1, 2, 3, 5, 8] {
            let s = run(&t, &inj, SimConfig::bounded(limit));
            assert_eq!(s.delivered + s.stranded, s.offered, "run, limit {limit}");
            let sa = run_adaptive(&t, &inj, SimConfig::bounded(limit));
            assert_eq!(
                sa.delivered + sa.stranded,
                sa.offered,
                "adaptive, limit {limit}"
            );
            let sb = run_bounded(&t, &inj, SimConfig::bounded(limit), 2);
            assert_eq!(
                sb.delivered + sb.stranded,
                sb.offered,
                "bounded, limit {limit}"
            );
        }
    }

    #[test]
    fn hb_topology_simulates_end_to_end() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let n = t.num_nodes();
        let inj: Vec<Injection> = (0..n).map(|v| inj(v, (v * 7 + 3) % n, 0)).collect();
        let s = run(&t, &inj, SimConfig::default());
        assert_eq!(s.delivered, n as u64);
        assert_eq!(s.stranded, 0);
        assert!(s.avg_latency >= s.avg_hops);
    }

    #[test]
    fn telemetry_off_and_on_produce_identical_stats() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let n = t.num_nodes();
        let inj: Vec<Injection> = (0..n).map(|v| inj(v, (v * 7 + 3) % n, 0)).collect();
        let off = run(&t, &inj, SimConfig::default());
        let tel = hb_telemetry::Telemetry::with_trace(64);
        let on = run(&t, &inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(off, on, "telemetry must not perturb the simulation");

        // And the instruments reflect the run faithfully.
        assert_eq!(tel.counter("sim.offered").get(), on.offered);
        assert_eq!(tel.counter("sim.delivered").get(), on.delivered);
        assert_eq!(tel.counter("sim.cycles").get(), on.cycles);
        let lat = tel.histogram("sim.latency").unwrap();
        assert_eq!(lat.count(), on.delivered);
        assert_eq!(lat.max(), Some(on.max_latency));
        let q = lat.quantiles().unwrap();
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.max);
        // Every hop of every delivered packet crossed exactly one link.
        let hops = tel.histogram("sim.hops").unwrap();
        assert_eq!(tel.links().total_forwarded(), hops.sum());
        assert!(!tel.events().is_empty());
        assert_eq!(tel.snapshot().cycles, Some(on.cycles));
    }

    #[test]
    fn telemetry_peak_queue_matches_stats() {
        let t = HypercubeNet::new(3).unwrap();
        let inj: Vec<Injection> = (0..6).map(|_| inj(0, 1, 0)).collect();
        let tel = hb_telemetry::Telemetry::summary();
        let s = run(&t, &inj, SimConfig::default().with_telemetry(tel.clone()));
        let links = tel.links();
        let per_link_peak = links.iter().map(|(_, r)| r.peak_queue).max().unwrap();
        assert_eq!(per_link_peak, s.peak_queue);
        assert_eq!(links.get(0, 1).unwrap().forwarded, 6);
        assert!(tel.events().is_empty(), "summary level records no trace");
    }

    #[test]
    fn bounded_queues_preserve_conservation_and_can_drop() {
        let t = HypercubeNet::new(3).unwrap();
        // Ten packets into one channel of capacity 2, same cycle.
        let inj: Vec<Injection> = (0..10).map(|_| inj(0, 1, 0)).collect();
        let s = run_bounded(&t, &inj, SimConfig::default(), 2);
        assert_eq!(s.delivered + s.stranded, s.offered);
        assert_eq!(s.delivered, 2); // only the buffered two survive
        assert_eq!(s.stranded, 8);
    }

    #[test]
    fn bounded_run_counts_and_traces_drops() {
        let t = HypercubeNet::new(3).unwrap();
        let inj: Vec<Injection> = (0..10).map(|_| inj(0, 1, 0)).collect();
        let tel = hb_telemetry::Telemetry::with_trace(64);
        let s = run_bounded(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            2,
        );
        assert_eq!(s.delivered, 2);
        assert_eq!(tel.counter("sim.dropped").get(), 8);
        let drops = tel
            .events()
            .iter()
            .filter(|e| matches!(e, hb_telemetry::Event::PacketDropped { .. }))
            .count();
        assert_eq!(drops, 8);
    }

    #[test]
    fn bounded_queues_match_unbounded_at_low_load() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let b = run_bounded(&t, &inj, SimConfig::default(), 4);
        assert_eq!(b.delivered, 1);
        assert_eq!(b.avg_latency, 4.0);
    }

    #[test]
    fn backpressure_blocks_but_eventually_drains() {
        let t = HypercubeNet::new(3).unwrap();
        // Two packets share the full route 0 -> 1 -> 3; capacity 1 forces
        // the second to wait at each stage but both must arrive.
        let inj = [inj(0, 3, 0), inj(0, 3, 1)];
        let s = run_bounded(&t, &inj, SimConfig::default(), 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.stranded, 0);
    }

    #[test]
    fn adaptive_matches_oblivious_hops_at_zero_load() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let s = run_adaptive(&t, &inj, SimConfig::default());
        assert_eq!(s.delivered, 1);
        assert_eq!(s.avg_hops, 4.0); // adaptive stays minimal
        assert_eq!(s.avg_latency, 4.0);
    }

    #[test]
    fn adaptive_spreads_contention() {
        // Many packets from node 0 to the antipode: oblivious serialises
        // on one fixed route; adaptive fans out over disjoint shortest
        // paths and must not be slower.
        let t = HypercubeNet::new(4).unwrap();
        let inj: Vec<Injection> = (0..8).map(|_| inj(0, 0b1111, 0)).collect();
        let obl = run(&t, &inj, SimConfig::default());
        let ada = run_adaptive(&t, &inj, SimConfig::default());
        assert_eq!(ada.delivered, 8);
        assert!(
            ada.avg_latency <= obl.avg_latency,
            "{} vs {}",
            ada.avg_latency,
            obl.avg_latency
        );
        assert_eq!(ada.avg_hops, 4.0, "minimality preserved");
    }

    #[test]
    fn adaptive_populates_link_stats() {
        let t = HypercubeNet::new(4).unwrap();
        let inj: Vec<Injection> = (0..8).map(|_| inj(0, 0b1111, 0)).collect();
        let tel = hb_telemetry::Telemetry::summary();
        let s = run_adaptive(&t, &inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 8);
        // Minimal adaptivity: every packet takes exactly 4 hops.
        assert_eq!(tel.links().total_forwarded(), 8 * 4);
    }

    /// HB(2, 3) node 29 lists its neighbors as `[5, 36, 37, 41, 45, 77]`.
    /// A packet for node 85 has two productive generators: the
    /// dimension-1 flip (to 77, port 5) and `g` (to 37, port 2). On empty
    /// queues the adaptive router takes the first in generator order, 77,
    /// not the lower channel toward 37.
    #[test]
    fn adaptive_ties_keep_generator_order_not_channel_order() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        assert_eq!(t.graph().neighbors(29), &[5, 36, 37, 41, 45, 77]);
        assert_eq!(t.productive_hops(29, 85), vec![77, 37]);
        let mut ports = [0; MAX_PRODUCTIVE];
        let k = t.productive_ports_into(29, 85, &mut ports);
        assert_eq!(&ports[..k], &[5, 2]);
        let tel = hb_telemetry::Telemetry::summary();
        let cfg = SimConfig::default().with_telemetry(tel.clone());
        let s = run_adaptive(&t, &[inj(29, 85, 0)], cfg);
        assert_eq!((s.delivered, s.avg_hops), (1, 2.0));
        let used: Vec<(u32, u32)> = tel
            .links()
            .iter()
            .filter(|(_, r)| r.forwarded > 0)
            .map(|(key, _)| (key.from, key.to))
            .collect();
        assert_eq!(used, vec![(29, 77), (77, 85)]);
    }

    #[test]
    fn adaptive_works_on_hyper_butterfly() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let n = t.num_nodes();
        let inj: Vec<Injection> = (0..n).map(|v| inj(v, (v * 31 + 5) % n, 0)).collect();
        let s = run_adaptive(&t, &inj, SimConfig::default());
        assert_eq!(s.delivered, n as u64);
        assert_eq!(s.stranded, 0);
    }

    #[test]
    fn timeseries_records_windowed_series() {
        let t = HypercubeNet::new(3).unwrap();
        // Six packets through one channel: occupied for six straight
        // cycles, queue draining 6, 5, ..., 1.
        let inj: Vec<Injection> = (0..6).map(|_| inj(0, 1, 0)).collect();
        let tel = hb_telemetry::Telemetry::summary();
        tel.enable_timeseries(hb_telemetry::TsConfig::new(2));
        let s = run(&t, &inj, SimConfig::default().with_telemetry(tel.clone()));
        let series = tel.series();
        assert_eq!(series["sim.injected"].total(), s.offered);
        assert_eq!(series["sim.delivered"].total(), s.delivered);
        let link = &series["link.0->1.queue"];
        assert_eq!(link.high_watermark(), Some((s.peak_queue as u64, 0)));
        // One sample per occupied cycle, windows of two cycles each.
        assert_eq!(link.windows().map(|w| w.count).sum::<u64>(), 6);
        assert_eq!(
            series["sim.queue.max"].high_watermark().map(|(v, _)| v),
            Some(s.peak_queue as u64)
        );
        // The network drains monotonically: in-flight ends at zero.
        let fly = &series["sim.in_flight"];
        assert_eq!(fly.windows().next_back().unwrap().last, 0);
    }

    #[test]
    fn timeseries_stays_empty_when_not_enabled() {
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 1, 0)];
        let tel = hb_telemetry::Telemetry::summary();
        run(&t, &inj, SimConfig::default().with_telemetry(tel.clone()));
        let snap = tel.snapshot();
        assert!(snap.timeseries.is_empty());
        assert!(snap.congestion.is_empty());
    }

    #[test]
    fn timeseries_covers_bounded_and_adaptive_runners() {
        let t = HypercubeNet::new(3).unwrap();
        let inj: Vec<Injection> = (0..8).map(|i| inj(0, 0b111, i / 4)).collect();
        for runner in 0..2u8 {
            let tel = hb_telemetry::Telemetry::summary();
            tel.enable_timeseries(hb_telemetry::TsConfig::new(1));
            let cfg = SimConfig::default().with_telemetry(tel.clone());
            let s = if runner == 0 {
                run_bounded(&t, &inj, cfg, 4)
            } else {
                run_adaptive(&t, &inj, cfg)
            };
            let series = tel.series();
            assert_eq!(series["sim.injected"].total(), s.offered, "runner {runner}");
            assert_eq!(
                series["sim.delivered"].total(),
                s.delivered,
                "runner {runner}"
            );
            assert!(
                series.keys().any(|k| k.starts_with("link.")),
                "runner {runner}"
            );
        }
    }

    #[test]
    fn sustained_hotspot_is_detected_and_traced() {
        let t = HypercubeNet::new(3).unwrap();
        // A long single-channel backlog: channel 0->1 stays occupied for
        // 32 cycles, far past the default sustain threshold.
        let inj: Vec<Injection> = (0..32).map(|_| inj(0, 1, 0)).collect();
        let tel = hb_telemetry::Telemetry::with_trace(4096);
        tel.enable_timeseries(hb_telemetry::TsConfig::new(4));
        run(&t, &inj, SimConfig::default().with_telemetry(tel.clone()));
        let events = tel.congestion();
        assert!(
            events
                .iter()
                .any(|e| e.kind == hb_telemetry::CongestionKind::HotspotLink
                    && e.subject == "link.0->1.queue"
                    && e.severity == hb_telemetry::Severity::Critical),
            "{events:?}"
        );
        // Detection also lands in the event trace.
        assert!(tel
            .events()
            .iter()
            .any(|e| matches!(e, Event::Congestion { .. })));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_injections_panic() {
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 1, 5), inj(0, 1, 0)];
        run(&t, &inj, SimConfig::default());
    }
}
