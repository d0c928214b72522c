//! Cycle-accurate store-and-forward packet simulator: the run types,
//! the channel layout, and [`Sim`], the one run entry point.
//!
//! Model (the standard interconnection-network abstraction the paper's
//! VLSI motivation implies):
//!
//! * every undirected edge is two directed **channels**, each moving at
//!   most one packet per cycle (1 packet = 1 flit);
//! * each channel has a FIFO queue at its sending node: unbounded
//!   (latency-versus-load studies measure occupancy instead of dropping)
//!   or, under [`Model::Bounded`], finite with backpressure;
//! * packets are **source routed**: the topology's oblivious router fixes
//!   the path at admission (hop = 1 cycle) — or, under
//!   [`Model::Adaptive`], pick the least-loaded shortest-path hop at
//!   every step;
//! * a node's channels are served independently (all-port model), which
//!   matches the bounded-degree design point the paper argues for: a
//!   node never serves more than `degree` channels.
//!
//! [`Sim::run`] picks the route policy, queue discipline and driver of
//! the one cycle kernel (`crate::kernel`, DESIGN.md §17). The channel
//! queues live in [`crate::pool`], beside the packet pool whose keys
//! they thread.
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
use crate::flight::{Spans, TraceSampling};
use crate::kernel::{drive_serial, Adaptive, Bounded, RunCtx, SourceRouted, Unbounded};
use crate::routes::RouteTable;
use crate::topology::{NetTopology, MAX_PRODUCTIVE};
use hb_graphs::NodeId;
use hb_telemetry::{LinkKey, Profile, Telemetry};

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
    /// fixed shard-index order. Only [`Model::Oblivious`] runs shard,
    /// and they stay serial while recording spans or filling
    /// [`MemStats`]; bounded and adaptive runs have inherently
    /// sequential per-cycle dependences (head-of-line credit admission,
    /// least-queue choice) and ignore this field.
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

/// Memory accounting of one serial run, filled by [`Sim::mem`].
/// Deliberately **not** part of [`SimStats`] or the telemetry snapshot:
/// storage mode must never perturb results, so the accounting rides on a
/// separate channel that equivalence tests don't compare.
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
    /// Heap bytes held by the workload-keyed route table (0 when the
    /// run compiles none).
    pub route_table_bytes: usize,
}

/// What a run routes with and how its queues admit packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Oblivious source routing over unbounded FIFOs; the flight
    /// recorder samples packets per the [`TraceSampling`].
    Oblivious(TraceSampling),
    /// Oblivious source routing over queues of this capacity (at least
    /// 1): a head moves only if its next queue has room (head-of-line
    /// blocking, credit flow control), and an injection into a full
    /// source queue is dropped and counted in `stranded`. Cyclic channel
    /// dependencies can deadlock such a run; it then hits `max_cycles`
    /// with `stranded > 0`.
    Bounded(usize),
    /// Minimal adaptive routing over unbounded FIFOs: each hop takes the
    /// least-loaded productive next hop
    /// ([`NetTopology::productive_hops`]), so hop counts stay minimal.
    Adaptive,
}

/// One simulation run: a topology and a [`Model`] (oblivious, sampling
/// off, by default), optionally a static [`FaultPlan`], a
/// [`FaultTimeline`] and a [`MemStats`] to fill.
///
/// **Routes.** Source-routed models compile their routes once, before
/// the cycle loop ([`RouteTable`]): the compile walks the injections,
/// applies each timeline event whose cycle has arrived (events at cycle
/// `c` are visible to injections at `c`), repairs the
/// [`crate::RouteCache`] incrementally once per event cycle, and records
/// each injection's route under the plan then in force. A static plan is
/// a timeline without events, and events after the last injection never
/// apply. Packets keep the route they were admitted with; an injection
/// whose route is empty (faulty endpoint, no survivor path) is refused
/// as unroutable and counted in `stranded`. The adaptive model compiles
/// routes only when a plan or timeline is attached, and only to refuse
/// admissions: in transit it stays fault-blind. A non-empty timeline
/// records the `sim.repair.*` counters and, under `cfg.profile`, the
/// `sim/route_repair` phase.
///
/// **Flight runs.** An oblivious run attached to a plan or a timeline,
/// even an empty one, or with sampling on, is a flight run
/// ([`crate::flight`]): it counts detours in `sim.reroutes`, registers
/// `sim.unroutable`, records the two fault series and, under a
/// trace-level handle, the sampled packets' spans. Other runs register
/// `sim.unroutable` only under a non-empty plan or timeline.
///
/// # Examples
/// ```
/// use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet};
/// use hb_netsim::{workload, FaultPlan, Model, Sim, SimConfig};
/// let net = HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap();
/// let traffic = workload::uniform(48, 10, 0.2, 7);
/// let stats = Sim::new(&net).run(&traffic, SimConfig::default());
/// assert_eq!(stats.delivered, stats.offered);
/// let mut plan = FaultPlan::new();
/// plan.add_node(5);
/// let stats = Sim::new(&net)
///     .model(Model::Bounded(4))
///     .faults(&plan)
///     .run(&traffic, SimConfig::default());
/// assert_eq!(stats.delivered + stats.stranded, stats.offered);
/// ```
pub struct Sim<'a> {
    topo: &'a dyn NetTopology,
    model: Model,
    plan: Option<&'a FaultPlan>,
    timeline: Option<&'a FaultTimeline>,
    mem: Option<&'a mut MemStats>,
}

impl<'a> Sim<'a> {
    /// An oblivious run on `topo` with sampling off.
    #[must_use]
    pub fn new(topo: &'a dyn NetTopology) -> Self {
        Sim {
            topo,
            model: Model::Oblivious(TraceSampling::Off),
            plan: None,
            timeline: None,
            mem: None,
        }
    }

    /// Sets the run model.
    #[must_use]
    pub fn model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Attaches a static fault plan.
    #[must_use]
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches a timeline of fault and repair events.
    #[must_use]
    pub fn timeline(mut self, timeline: &'a FaultTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Fills `mem` with the run's memory accounting; the run stays
    /// serial.
    #[must_use]
    pub fn mem(mut self, mem: &'a mut MemStats) -> Self {
        self.mem = Some(mem);
        self
    }

    /// Runs `injections` (sorted by `at`) under `cfg`.
    ///
    /// # Panics
    /// Panics if the injections are not sorted by cycle or reference
    /// out-of-range nodes, or if a bounded model has capacity 0.
    pub fn run(mut self, injections: &[Injection], cfg: SimConfig) -> SimStats {
        let (no_plan, no_events) = (FaultPlan::new(), FaultTimeline::new());
        let base = self.plan.unwrap_or(&no_plan);
        let timeline = self.timeline.unwrap_or(&no_events);
        let attached = self.plan.is_some() || self.timeline.is_some();
        let routes = (attached || self.model != Model::Adaptive)
            .then(|| compile(self.topo, injections, &cfg, base, timeline));
        if let Some(mem) = self.mem.as_deref_mut() {
            mem.route_table_bytes = routes.as_ref().map_or(0, RouteTable::heap_bytes);
        }
        let ctx = RunCtx::new(self.topo, injections, &cfg);
        let source_routed = |faults| SourceRouted {
            routes: routes
                .as_ref()
                .expect("invariant: source-routed models compile their routes"),
            layout: &ctx.layout,
            faults,
        };
        match self.model {
            Model::Oblivious(sampling) => {
                let flight = attached || sampling != TraceSampling::Off;
                let route = source_routed(flight);
                let spans = Spans::new(&ctx, route.routes, base, timeline, sampling);
                if cfg.threads > 1 && spans.is_none() && self.mem.is_none() {
                    return crate::par::run_sharded(&ctx, route);
                }
                drive_serial(&ctx, route, Unbounded, spans, self.mem)
            }
            Model::Bounded(capacity) => {
                assert!(capacity >= 1, "queues need capacity >= 1");
                let queues = Bounded {
                    capacity,
                    sweep: false,
                };
                drive_serial(&ctx, source_routed(false), queues, None, self.mem)
            }
            Model::Adaptive => {
                let route = Adaptive {
                    topo: self.topo,
                    layout: &ctx.layout,
                    admission: routes.as_ref(),
                    ports: [0; MAX_PRODUCTIVE],
                };
                drive_serial(&ctx, route, Unbounded, None, self.mem)
            }
        }
    }
}

/// Compiles the run's routes and records what the repairs cost in
/// `cfg`'s telemetry: the `sim.repair.*` counters and, under
/// `cfg.profile`, the `sim/route_repair` phase. An empty timeline
/// records neither, so it matches the static-plan run byte for byte.
fn compile(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: &SimConfig,
    base: &FaultPlan,
    timeline: &FaultTimeline,
) -> RouteTable {
    let (table, cost) = RouteTable::compile(topo, injections, base, timeline);
    let Some(t) = cfg.telemetry.as_ref().filter(|_| !timeline.is_empty()) else {
        return table;
    };
    t.counter("sim.repair.events").add(cost.events);
    t.counter("sim.repair.deltas").add(cost.deltas);
    t.counter("sim.repair.scanned").add(cost.repair.scanned);
    t.counter("sim.repair.kept").add(cost.repair.kept);
    t.counter("sim.repair.respliced").add(cost.repair.respliced);
    if cfg.profile {
        let mut p = Profile::new();
        p.record("sim/route_repair", cost.deltas, cost.repair.work);
        if !p.is_empty() {
            t.merge_profile(&p);
        }
    }
    table
}

/// `Sim::new(topo).run(..)`. Kept, like [`run_adaptive`] and
/// [`run_with_timeline`], because perfbench calls it; all three go when
/// perfbench moves to [`Sim`] (ROADMAP item A).
pub fn run(topo: &dyn NetTopology, injections: &[Injection], cfg: SimConfig) -> SimStats {
    Sim::new(topo).run(injections, cfg)
}

/// [`Sim`] with [`Model::Adaptive`]; kept for perfbench, as [`run`].
pub fn run_adaptive(topo: &dyn NetTopology, injections: &[Injection], cfg: SimConfig) -> SimStats {
    Sim::new(topo).model(Model::Adaptive).run(injections, cfg)
}

/// [`Sim`] with [`Model::Oblivious`], `base` and `timeline` attached;
/// kept for perfbench, as [`run`].
pub fn run_with_timeline(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
    base: &FaultPlan,
    timeline: &FaultTimeline,
    sampling: TraceSampling,
) -> SimStats {
    Sim::new(topo)
        .model(Model::Oblivious(sampling))
        .faults(base)
        .timeline(timeline)
        .run(injections, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEventKind, FaultTarget};
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet};
    use crate::workload;
    use hb_telemetry::Event;

    #[test]
    fn single_packet_latency_is_distance() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let s = Sim::new(&t).run(&inj, SimConfig::default());
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
        let s = Sim::new(&t).run(&inj, SimConfig::default());
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
        let s = Sim::new(&t).run(&inj, SimConfig::default());
        assert_eq!(s.delivered, 1);
        assert_eq!(s.avg_latency, 0.0);
    }

    #[test]
    fn cycle_limit_strands_packets() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let s = Sim::new(&t).run(&inj, SimConfig::bounded(2));
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
            let s = Sim::new(&t).run(&inj, SimConfig::bounded(limit));
            assert_eq!(s.delivered + s.stranded, s.offered, "run, limit {limit}");
            let sa = Sim::new(&t)
                .model(Model::Adaptive)
                .run(&inj, SimConfig::bounded(limit));
            assert_eq!(
                sa.delivered + sa.stranded,
                sa.offered,
                "adaptive, limit {limit}"
            );
            let sb = Sim::new(&t)
                .model(Model::Bounded(2))
                .run(&inj, SimConfig::bounded(limit));
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
        let s = Sim::new(&t).run(&inj, SimConfig::default());
        assert_eq!(s.delivered, n as u64);
        assert_eq!(s.stranded, 0);
        assert!(s.avg_latency >= s.avg_hops);
    }

    #[test]
    fn telemetry_off_and_on_produce_identical_stats() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let n = t.num_nodes();
        let inj: Vec<Injection> = (0..n).map(|v| inj(v, (v * 7 + 3) % n, 0)).collect();
        let off = Sim::new(&t).run(&inj, SimConfig::default());
        let tel = hb_telemetry::Telemetry::with_trace(64);
        let on = Sim::new(&t).run(&inj, SimConfig::default().with_telemetry(tel.clone()));
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
        assert_eq!(tel.snapshot().links.total_forwarded(), hops.sum());
        assert!(!tel.snapshot().events.is_empty());
        assert_eq!(tel.snapshot().cycles, Some(on.cycles));
    }

    #[test]
    fn telemetry_peak_queue_matches_stats() {
        let t = HypercubeNet::new(3).unwrap();
        let inj: Vec<Injection> = (0..6).map(|_| inj(0, 1, 0)).collect();
        let tel = hb_telemetry::Telemetry::summary();
        let s = Sim::new(&t).run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        let links = tel.snapshot().links;
        let per_link_peak = links.iter().map(|(_, r)| r.peak_queue).max().unwrap();
        assert_eq!(per_link_peak, s.peak_queue);
        assert_eq!(links.get(0, 1).unwrap().forwarded, 6);
        assert!(
            tel.snapshot().events.is_empty(),
            "summary level records no trace"
        );
    }

    #[test]
    fn bounded_queues_preserve_conservation_and_can_drop() {
        let t = HypercubeNet::new(3).unwrap();
        // Ten packets into one channel of capacity 2, same cycle.
        let inj: Vec<Injection> = (0..10).map(|_| inj(0, 1, 0)).collect();
        let s = Sim::new(&t)
            .model(Model::Bounded(2))
            .run(&inj, SimConfig::default());
        assert_eq!(s.delivered + s.stranded, s.offered);
        assert_eq!(s.delivered, 2); // only the buffered two survive
        assert_eq!(s.stranded, 8);
    }

    #[test]
    fn bounded_run_counts_and_traces_drops() {
        let t = HypercubeNet::new(3).unwrap();
        let inj: Vec<Injection> = (0..10).map(|_| inj(0, 1, 0)).collect();
        let tel = hb_telemetry::Telemetry::with_trace(64);
        let s = Sim::new(&t)
            .model(Model::Bounded(2))
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 2);
        assert_eq!(tel.counter("sim.dropped").get(), 8);
        let drops = tel
            .snapshot()
            .events
            .iter()
            .filter(|e| matches!(e, hb_telemetry::Event::PacketDropped { .. }))
            .count();
        assert_eq!(drops, 8);
    }

    #[test]
    fn bounded_queues_match_unbounded_at_low_load() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let b = Sim::new(&t)
            .model(Model::Bounded(4))
            .run(&inj, SimConfig::default());
        assert_eq!(b.delivered, 1);
        assert_eq!(b.avg_latency, 4.0);
    }

    #[test]
    fn backpressure_blocks_but_eventually_drains() {
        let t = HypercubeNet::new(3).unwrap();
        // Two packets share the full route 0 -> 1 -> 3; capacity 1 forces
        // the second to wait at each stage but both must arrive.
        let inj = [inj(0, 3, 0), inj(0, 3, 1)];
        let s = Sim::new(&t)
            .model(Model::Bounded(1))
            .run(&inj, SimConfig::default());
        assert_eq!(s.delivered, 2);
        assert_eq!(s.stranded, 0);
    }

    #[test]
    fn adaptive_matches_oblivious_hops_at_zero_load() {
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 0b1111, 0)];
        let s = Sim::new(&t)
            .model(Model::Adaptive)
            .run(&inj, SimConfig::default());
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
        let obl = Sim::new(&t).run(&inj, SimConfig::default());
        let ada = Sim::new(&t)
            .model(Model::Adaptive)
            .run(&inj, SimConfig::default());
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
        let s = Sim::new(&t)
            .model(Model::Adaptive)
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 8);
        // Minimal adaptivity: every packet takes exactly 4 hops.
        assert_eq!(tel.snapshot().links.total_forwarded(), 8 * 4);
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
        let s = Sim::new(&t)
            .model(Model::Adaptive)
            .run(&[inj(29, 85, 0)], cfg);
        assert_eq!((s.delivered, s.avg_hops), (1, 2.0));
        let used: Vec<(u32, u32)> = tel
            .snapshot()
            .links
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
        let s = Sim::new(&t)
            .model(Model::Adaptive)
            .run(&inj, SimConfig::default());
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
        let s = Sim::new(&t).run(&inj, SimConfig::default().with_telemetry(tel.clone()));
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
        Sim::new(&t).run(&inj, SimConfig::default().with_telemetry(tel.clone()));
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
                Sim::new(&t).model(Model::Bounded(4)).run(&inj, cfg)
            } else {
                Sim::new(&t).model(Model::Adaptive).run(&inj, cfg)
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
        Sim::new(&t).run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        let events = tel.snapshot().congestion;
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
            .snapshot()
            .events
            .iter()
            .any(|e| matches!(e, Event::Congestion { .. })));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_injections_panic() {
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 1, 5), inj(0, 1, 0)];
        Sim::new(&t).run(&inj, SimConfig::default());
    }

    fn hb() -> HyperButterflyNet {
        HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
    }

    fn cut_first_link_timeline(at: u64) -> FaultTimeline {
        let mut tl = FaultTimeline::new();
        tl.push(at, FaultEventKind::Fault, FaultTarget::Link(0, 1));
        tl
    }

    #[test]
    fn empty_timeline_matches_the_static_runners_exactly() {
        let t = hb();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.3, 7);
        let mut plan = FaultPlan::new();
        plan.add_node(5).add_link(0, 2);
        let tl = FaultTimeline::new();
        let baseline = Sim::new(&t)
            .faults(&plan)
            .run(&traffic, SimConfig::default());
        let churn = Sim::new(&t)
            .faults(&plan)
            .timeline(&tl)
            .run(&traffic, SimConfig::default());
        assert_eq!(baseline, churn);
        // Counters match too — and no `sim.repair.*` keys appear.
        let tel_a = Telemetry::summary();
        Sim::new(&t)
            .faults(&plan)
            .run(&traffic, SimConfig::default().with_telemetry(tel_a.clone()));
        let tel_b = Telemetry::summary();
        Sim::new(&t)
            .faults(&plan)
            .timeline(&tl)
            .run(&traffic, SimConfig::default().with_telemetry(tel_b.clone()));
        assert_eq!(tel_a.snapshot(), tel_b.snapshot());

        // Bounded and adaptive runs under an empty plan: same stats and
        // the same snapshot (no `sim.unroutable` where the static runner
        // has none).
        let cfg = |tel: &Telemetry| SimConfig::default().with_telemetry(tel.clone());
        let (tel_a, tel_b) = (Telemetry::summary(), Telemetry::summary());
        let b = Sim::new(&t)
            .model(Model::Bounded(4))
            .run(&traffic, cfg(&tel_a));
        let bt = Sim::new(&t)
            .model(Model::Bounded(4))
            .faults(&FaultPlan::new())
            .timeline(&tl)
            .run(&traffic, cfg(&tel_b));
        assert_eq!(b, bt);
        assert_eq!(tel_a.snapshot(), tel_b.snapshot());
        let (tel_a, tel_b) = (Telemetry::summary(), Telemetry::summary());
        let a = Sim::new(&t)
            .model(Model::Adaptive)
            .run(&traffic, cfg(&tel_a));
        let at = Sim::new(&t)
            .model(Model::Adaptive)
            .faults(&FaultPlan::new())
            .timeline(&tl)
            .run(&traffic, cfg(&tel_b));
        assert_eq!(a, at);
        assert_eq!(tel_a.snapshot(), tel_b.snapshot());
    }

    #[test]
    fn a_cycle_zero_fault_matches_the_equivalent_static_plan() {
        // Every admission happens under plan+event, so the run must
        // equal a static run with the fault baked in (stats; counters
        // differ only by the extra sim.repair.* keys).
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 50, 0.4, 9);
        let mut static_plan = FaultPlan::new();
        static_plan.add_link(0, 1);
        let expected = Sim::new(&t)
            .faults(&static_plan)
            .run(&traffic, SimConfig::default());
        let got = Sim::new(&t)
            .timeline(&cut_first_link_timeline(0))
            .run(&traffic, SimConfig::default());
        assert_eq!(expected, got);
    }

    #[test]
    fn mid_run_faults_spare_packets_already_in_flight() {
        // One packet admitted at cycle 0 on route 0,1,3,7,15; the link
        // 0-1 dies at cycle 2, well after the packet crossed it. The
        // packet flies its admitted route; a second packet admitted at
        // cycle 5 must detour.
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 15, 0), inj(0, 15, 5)];
        let tel = Telemetry::summary();
        let s = Sim::new(&t)
            .timeline(&cut_first_link_timeline(2))
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 2);
        assert_eq!(s.stranded, 0);
        // Only the second admission detours.
        assert_eq!(tel.counter("sim.reroutes").get(), 1);
        assert_eq!(tel.counter("sim.repair.events").get(), 1);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 1);
    }

    #[test]
    fn repair_events_restore_the_original_routes() {
        // Fault at cycle 1, repair at cycle 3: admissions at cycles 0
        // and 4 take the oblivious route, the one at cycle 2 detours.
        let t = HypercubeNet::new(4).unwrap();
        let inj: Vec<Injection> = [0u64, 2, 4]
            .iter()
            .map(|&at| Injection {
                src: 0,
                dst: 15,
                at,
            })
            .collect();
        let mut tl = cut_first_link_timeline(1);
        tl.push(3, FaultEventKind::Repair, FaultTarget::Link(0, 1));
        let tel = Telemetry::summary();
        let s = Sim::new(&t)
            .timeline(&tl)
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 3);
        assert_eq!(tel.counter("sim.reroutes").get(), 1);
        assert_eq!(tel.counter("sim.repair.events").get(), 2);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 2);
        // The second delta (the repair) rescans the memo and resplices
        // the detoured pair back to its oblivious route.
        assert!(tel.counter("sim.repair.respliced").get() >= 1);
    }

    #[test]
    fn events_after_the_last_injection_never_apply() {
        let t = hb();
        let traffic = workload::uniform(t.num_nodes(), 30, 0.5, 3);
        let last_at = traffic.last().unwrap().at;
        let tel = Telemetry::summary();
        Sim::new(&t)
            .timeline(&cut_first_link_timeline(last_at + 100))
            .run(&traffic, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(tel.counter("sim.repair.events").get(), 0);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 0);
    }

    #[test]
    fn profiled_timeline_runs_record_the_repair_phase() {
        let t = hb();
        let traffic = workload::uniform(t.num_nodes(), 40, 0.4, 5);
        let tel = Telemetry::summary();
        Sim::new(&t).timeline(&cut_first_link_timeline(2)).run(
            &traffic,
            SimConfig::default()
                .with_telemetry(tel.clone())
                .with_profile(true),
        );
        let prof = tel.profile();
        let phase = prof
            .get("sim/route_repair")
            .expect("timeline runs record the repair phase");
        assert_eq!(phase.invocations, 1, "one delta");
        assert!(prof.get("sim/route_build").is_some());
    }

    #[test]
    fn unroutable_admissions_strand_and_conserve_under_churn() {
        // Isolate node 7 of Q3 mid-run: admissions to it after the
        // events are refused.
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 7, 0), inj(0, 7, 10)];
        let mut tl = FaultTimeline::new();
        for (u, v) in [(7, 3), (7, 5), (7, 6)] {
            tl.push(4, FaultEventKind::Fault, FaultTarget::Link(u, v));
        }
        let tel = Telemetry::summary();
        let s = Sim::new(&t)
            .timeline(&tl)
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stranded, 1);
        assert_eq!(s.delivered + s.stranded, s.offered);
        assert_eq!(tel.counter("sim.unroutable").get(), 1);
        // Three events, one cycle group, one delta.
        assert_eq!(tel.counter("sim.repair.events").get(), 3);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 1);
    }

    #[test]
    fn bounded_and_adaptive_timeline_runs_refuse_unroutable_admissions() {
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 7, 0), inj(0, 7, 10)];
        let mut tl = FaultTimeline::new();
        for (u, v) in [(7, 3), (7, 5), (7, 6)] {
            tl.push(4, FaultEventKind::Fault, FaultTarget::Link(u, v));
        }
        let b = Sim::new(&t)
            .model(Model::Bounded(4))
            .timeline(&tl)
            .run(&inj, SimConfig::default());
        assert_eq!(b.delivered, 1);
        assert_eq!(b.stranded, 1);
        let a = Sim::new(&t)
            .model(Model::Adaptive)
            .timeline(&tl)
            .run(&inj, SimConfig::default());
        assert_eq!(a.delivered, 1);
        assert_eq!(a.stranded, 1);
    }

    /// An oblivious run is a flight run exactly when a plan or a timeline
    /// is attached, even an empty one: it then registers the fault
    /// counters and series, and returns the plain run's stats.
    #[test]
    fn an_empty_plan_or_timeline_makes_a_flight_run() {
        let t = hb();
        let traffic = workload::uniform(t.num_nodes(), 40, 0.3, 5);
        let (no_plan, no_events) = (FaultPlan::new(), FaultTimeline::new());
        let observe = |sim: Sim<'_>| {
            let tel = Telemetry::summary();
            tel.enable_timeseries(hb_telemetry::TsConfig::new(5));
            let stats = sim.run(&traffic, SimConfig::default().with_telemetry(tel.clone()));
            let counters: std::collections::BTreeMap<_, _> =
                tel.snapshot().counters.into_iter().collect();
            let series = tel.series();
            let fault = ["sim.reroutes", "sim.unroutable"]
                .map(|k| (counters.get(k).copied(), series.contains_key(k)));
            (stats, fault)
        };
        let (plain, fault) = observe(Sim::new(&t));
        assert_eq!(fault, [(None, false), (None, false)], "nothing attached");
        for (what, sim) in [
            ("empty plan", Sim::new(&t).faults(&no_plan)),
            ("empty timeline", Sim::new(&t).timeline(&no_events)),
        ] {
            let (stats, fault) = observe(sim);
            assert_eq!(stats, plain, "{what}");
            assert_eq!(fault, [(Some(0), true), (Some(0), true)], "{what}");
        }
    }

    /// A run filling `MemStats` stays serial at any thread count: the
    /// accounting covers the one channel store.
    #[test]
    fn memory_accounting_keeps_a_run_serial() {
        let t = HyperButterflyNet::implicit(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 30, 0.3, 9);
        let serial = Sim::new(&t).run(&traffic, SimConfig::default());
        let mut mem = MemStats::default();
        let stats = Sim::new(&t)
            .mem(&mut mem)
            .run(&traffic, SimConfig::default().with_threads(2));
        assert_eq!(stats, serial);
        assert_eq!(mem.num_channels, t.num_nodes() * 6);
        assert!(mem.peak_channel_records > 0 && mem.route_table_bytes > 0);
    }

    /// The full-sweep oracle of [`Model::Bounded`]: the same model, but
    /// each cycle rebuilds the service set by scanning every channel in
    /// ascending id order instead of trusting the active worklist.
    fn bounded_sweep(
        topo: &dyn NetTopology,
        injections: &[Injection],
        cfg: SimConfig,
        capacity: usize,
    ) -> SimStats {
        let table = RouteTable::for_injections(topo, injections, &FaultPlan::new());
        let ctx = RunCtx::new(topo, injections, &cfg);
        let route = SourceRouted {
            routes: &table,
            layout: &ctx.layout,
            faults: false,
        };
        let queues = Bounded {
            capacity,
            sweep: true,
        };
        drive_serial(&ctx, route, queues, None, None)
    }

    /// The engine golden's bounded run (`HB(2, 3)` hotspot, capacity 2,
    /// trace telemetry, a 5-cycle series, the profile on): the sweep
    /// returns the frontier's stats and renders the same bytes through
    /// every sink.
    #[test]
    fn bounded_sweep_matches_the_frontier_on_the_golden_workload() {
        use hb_telemetry::{CsvSink, JsonLinesSink, ReportSink, Sink, TextSink};
        let t = hb();
        let traffic = workload::hotspot(t.num_nodes(), 40, 0.1, 0, 0.3, 2024);
        let config = || {
            let tel = Telemetry::with_trace(1 << 16);
            tel.enable_timeseries(hb_telemetry::TsConfig::new(5));
            let cfg = SimConfig::bounded(400)
                .with_telemetry(tel.clone())
                .with_profile(true);
            (cfg, tel)
        };
        let (cfg, tel_f) = config();
        let frontier = Sim::new(&t).model(Model::Bounded(2)).run(&traffic, cfg);
        let (cfg, tel_s) = config();
        let sweep = bounded_sweep(&t, &traffic, cfg, 2);
        assert_eq!(frontier, sweep);
        assert!(frontier.stranded > 0, "the hot node's queues fill and drop");
        let (f, s) = (tel_f.snapshot(), tel_s.snapshot());
        let sinks: [&dyn Sink; 4] = [&JsonLinesSink, &ReportSink::default(), &TextSink, &CsvSink];
        for sink in sinks {
            assert_eq!(sink.render(&f), sink.render(&s));
        }
    }

    /// A trace-level handle with windowed time series on, at a cadence
    /// (and a deliberately small retention, to exercise drop-oldest
    /// eviction) derived from the seed.
    fn tel_with_ts(seed: u64) -> Telemetry {
        let tel = Telemetry::with_trace(2048);
        let ts = hb_telemetry::TsConfig::new(1 + seed % 7).with_capacity(8 + (seed % 9) as usize);
        tel.enable_timeseries(ts);
        tel
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Frontier vs sweep byte identity: the bounded engine's active
        /// worklist (sorted, drained ascending) must reproduce the full
        /// channel sweep exactly — stats, counters, quantiles, link
        /// stats, and profile — on every topology family with dense
        /// channel state, and on the graph-free `HB(1, 3)` with sparse
        /// channel state.
        #[test]
        fn bounded_frontier_matches_sweep(kind in 0u8..3, rate in 5u32..50,
                                          cycles in 1u64..24, seed in 0u64..300,
                                          capacity in 1usize..4) {
            let dense: Box<dyn NetTopology> = match kind {
                0 => Box::new(HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap()),
                1 => Box::new(crate::topology::ButterflyNet::new(3).unwrap()),
                _ => Box::new(HypercubeNet::new(4).unwrap()),
            };
            let graph_free = HyperButterflyNet::implicit(1, 3, HbRouteOrder::CubeFirst).unwrap();
            for t in [&*dense, &graph_free as &dyn NetTopology] {
                let inj = workload::uniform(t.num_nodes(), cycles, f64::from(rate) / 100.0, seed);
                let cfg = |tel: &Telemetry| {
                    SimConfig::default().with_telemetry(tel.clone()).with_profile(true)
                };
                let (tel_f, tel_s) = (tel_with_ts(seed), tel_with_ts(seed));
                let frontier = Sim::new(t).model(Model::Bounded(capacity)).run(&inj, cfg(&tel_f));
                let sweep = bounded_sweep(t, &inj, cfg(&tel_s), capacity);
                let sparse = t.explicit_graph().is_none();
                proptest::prop_assert_eq!(&frontier, &sweep, "stats drift (sparse {})", sparse);
                proptest::prop_assert_eq!(
                    tel_f.profile(),
                    tel_s.profile(),
                    "profile drift (sparse {})",
                    sparse
                );
                proptest::prop_assert_eq!(
                    tel_f.snapshot(),
                    tel_s.snapshot(),
                    "snapshot drift (sparse {})",
                    sparse
                );
            }
        }
    }
}
