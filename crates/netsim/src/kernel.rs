//! The one cycle kernel every simulator entry point drives.
//!
//! A [`Kernel`] owns the queues of a contiguous channel range — the
//! whole network in a serial run, one shard's slice in the sharded
//! engine — and advances them one cycle per [`Kernel::step`]:
//!
//! 1. **inject** the schedule entries due this cycle whose source it
//!    owns (admission may refuse them, deliver them in place, or drop
//!    them at a full source queue);
//! 2. **sample** queue depths (peak queue, link time series);
//! 3. **serve** one head packet per active channel;
//! 4. **land** the packets that moved on their next channel — or, in a
//!    shard, hand them to the driver's mailbox exchange.
//!
//! Two policies specialise it at compile time, so the per-hop path has
//! no dynamic dispatch beyond the topology's own neighbor enumeration:
//!
//! * a [`RoutePolicy`] — [`SourceRouted`] (routes from a `RouteSrc`
//!   table or churn snapshot, served in ascending channel order) or
//!   [`Adaptive`] (least-queue productive hop, served in activation
//!   order, with optional churn admission);
//! * a [`Discipline`] — [`Unbounded`] FIFOs, or [`Bounded`] queues with
//!   same-cycle credits and, for the `run_bounded_sweep` oracle, a
//!   full-channel sweep in place of the active worklist.
//!
//! Observers are runtime options: the [`Scoreboard`], link and global
//! time series, the [`ProfCounters`], the trace, and the flight
//! recorder's spans. [`drive_serial`] drives one kernel; the sharded
//! engine (`crate::par`) drives one per shard (DESIGN.md §9, §17).

use crate::flight::Spans;
use crate::par::ShardPort;
use crate::pool::PacketPool;
use crate::routes::RouteSrc;
use crate::sim::{ChanLayout, ChanQueues, Injection, MemStats, SimConfig, SimStats};
use crate::topology::{NetTopology, MAX_PRODUCTIVE};
use crate::tsrec::{GlobalTs, LinkTs};
use hb_graphs::NodeId;
use hb_telemetry::{Event, Histogram, LinkStats, Profile, Telemetry, TsConfig, CYCLES_COUNTER};
use std::ops::Range;

/// One packet in flight. Queues hold its 4-byte [`PacketPool`] key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Packet {
    /// Injection index, used as the trace id.
    pub(crate) id: u64,
    pub(crate) injected_at: u64,
    /// What the route policy steers by: the route slot of a
    /// source-routed packet, the destination node of an adaptive one.
    pub(crate) target: u32,
    /// Hops taken so far.
    pub(crate) hop: u32,
}

/// A route policy's verdict on one injection.
pub(crate) enum Admit {
    /// No route under the plan in force (faulty endpoint or no survivor
    /// path): refused and counted unroutable.
    Refused,
    /// Source is the destination: delivered in place, zero latency.
    Arrived,
    /// Enters the network steered by this target.
    Enter(u32),
}

/// Which run-end counters and profile phases a route policy implies.
#[derive(Clone, Copy)]
pub(crate) struct Accounting {
    /// Count detoured admissions and emit `sim.reroutes` plus the two
    /// fault series (flight runs).
    pub(crate) faults: bool,
    /// Emit `sim.unroutable`: flight runs, and runs whose admissions a
    /// fault timeline gates.
    pub(crate) unroutable: bool,
    /// The `sim/route_build` phase, `(pairs, route nodes)`; source
    /// routes only.
    pub(crate) route_build: Option<(u64, u64)>,
}

/// How packets pick channels.
pub(crate) trait RoutePolicy {
    /// Serve active channels in ascending id order (sorted each cycle)
    /// instead of activation order.
    const ASCENDING: bool;

    /// Where a packet is bound between crossing one channel and joining
    /// the next: the next channel itself for a source route (resolved
    /// while the path is hot in cache), the node reached for an adaptive
    /// packet (whose channel is chosen only as it joins).
    type Via: Copy;

    /// Admission of injection `idx`.
    fn admit(&self, idx: usize, inj: Injection, prof: &mut ProfCounters) -> Admit;

    /// Where an admitted packet starts from its source.
    fn enter(&self, src: NodeId, p: &Packet) -> Self::Via;

    /// Where a packet that just crossed `ch` (its hop count already
    /// advanced) goes next; `None` when it has arrived.
    fn advance(&self, p: &Packet, ch: usize) -> Option<Self::Via>;

    /// The channel a packet bound `via` joins. Called as it joins, so an
    /// adaptive choice sees the depths of every queue it could join.
    fn channel(
        &mut self,
        via: Self::Via,
        p: &Packet,
        queues: &ChanQueues<u32>,
        prof: &mut ProfCounters,
    ) -> usize;

    /// Whether an admitted route detours around a fault (counted only
    /// under fault accounting).
    fn detoured(&self, target: u32) -> bool;

    fn accounting(&self) -> Accounting;
}

/// Source routing from a route table or churn snapshot: the path is
/// fixed at admission and the packet carries its slot.
#[derive(Clone, Copy)]
pub(crate) struct SourceRouted<'a> {
    pub(crate) routes: RouteSrc<'a>,
    pub(crate) layout: &'a ChanLayout<'a>,
    /// Flight semantics: count detours, emit the fault counters and
    /// series.
    pub(crate) faults: bool,
}

impl RoutePolicy for SourceRouted<'_> {
    const ASCENDING: bool = true;
    type Via = usize;

    #[inline]
    fn admit(&self, idx: usize, inj: Injection, prof: &mut ProfCounters) -> Admit {
        let slot = self
            .routes
            .slot_for(idx, inj.src, inj.dst)
            .expect("invariant: route table was built from this exact workload");
        let len = self.routes.path(slot).len();
        prof.lookup_inv += 1;
        prof.lookup_work += len as u64;
        match len {
            0 => Admit::Refused,
            1 => Admit::Arrived,
            _ => Admit::Enter(slot),
        }
    }

    #[inline]
    fn enter(&self, src: NodeId, p: &Packet) -> usize {
        let next = self.routes.path(p.target)[1];
        self.layout.channel_of(src, next as NodeId)
    }

    #[inline]
    fn advance(&self, p: &Packet, _ch: usize) -> Option<usize> {
        let path = self.routes.path(p.target);
        let hop = p.hop as usize;
        (hop + 1 < path.len()).then(|| {
            self.layout
                .channel_of(path[hop] as NodeId, path[hop + 1] as NodeId)
        })
    }

    #[inline]
    fn channel(
        &mut self,
        via: usize,
        _p: &Packet,
        _queues: &ChanQueues<u32>,
        _prof: &mut ProfCounters,
    ) -> usize {
        via
    }

    #[inline]
    fn detoured(&self, target: u32) -> bool {
        self.faults && self.routes.detour(target).is_some()
    }

    fn accounting(&self) -> Accounting {
        Accounting {
            faults: self.faults,
            unroutable: self.faults || self.routes.is_churn(),
            route_build: Some((
                self.routes.num_pairs() as u64,
                self.routes.total_route_nodes() as u64,
            )),
        }
    }
}

/// Minimal adaptive routing: each hop takes the least-loaded productive
/// channel (ties keep the lowest channel in enumeration order).
/// `admission`, from a fault timeline, refuses injections whose
/// compiled route is empty; in transit the choice stays fault-blind.
pub(crate) struct Adaptive<'a> {
    pub(crate) topo: &'a dyn NetTopology,
    pub(crate) layout: &'a ChanLayout<'a>,
    pub(crate) admission: Option<RouteSrc<'a>>,
    /// Scratch for the productive-hop set, reused by every choice.
    pub(crate) hops: [NodeId; MAX_PRODUCTIVE],
}

impl RoutePolicy for Adaptive<'_> {
    const ASCENDING: bool = false;
    type Via = NodeId;

    #[inline]
    fn admit(&self, idx: usize, inj: Injection, _prof: &mut ProfCounters) -> Admit {
        if self.admission.is_some_and(|r| {
            let slot = r.slot_for(idx, inj.src, inj.dst);
            r.path(slot.expect("invariant: churn routes cover every injection"))
                .is_empty()
        }) {
            Admit::Refused
        } else if inj.src == inj.dst {
            Admit::Arrived
        } else {
            Admit::Enter(u32::try_from(inj.dst).expect("invariant: node ids fit in u32"))
        }
    }

    #[inline]
    fn enter(&self, src: NodeId, _p: &Packet) -> NodeId {
        src
    }

    #[inline]
    fn advance(&self, p: &Packet, ch: usize) -> Option<NodeId> {
        let here = self.layout.head_of(ch);
        (here != p.target as NodeId).then_some(here)
    }

    #[inline]
    fn channel(
        &mut self,
        at: NodeId,
        p: &Packet,
        queues: &ChanQueues<u32>,
        prof: &mut ProfCounters,
    ) -> usize {
        let k = self
            .topo
            .productive_hops_into(at, p.target as NodeId, &mut self.hops);
        prof.scan_inv += 1;
        prof.scan_work += k as u64;
        self.hops[..k]
            .iter()
            .map(|&w| self.layout.channel_of(at, w))
            .min_by_key(|&ch| queues.len(ch))
            .expect("invariant: a productive hop exists for any undelivered packet")
    }

    #[inline]
    fn detoured(&self, _target: u32) -> bool {
        false
    }

    fn accounting(&self) -> Accounting {
        Accounting {
            faults: false,
            unroutable: self.admission.is_some(),
            route_build: None,
        }
    }
}

/// How channel queues admit packets.
pub(crate) trait Discipline {
    /// Per-channel capacity; `None` for unbounded FIFOs.
    fn capacity(&self) -> Option<usize>;

    /// Rebuild the service set each cycle by scanning every channel
    /// (the frontier oracle) instead of keeping the active worklist.
    fn sweep(&self) -> bool {
        false
    }
}

/// Unbounded FIFOs: latency-versus-load without loss.
pub(crate) struct Unbounded;

impl Discipline for Unbounded {
    #[inline]
    fn capacity(&self) -> Option<usize> {
        None
    }
}

/// Bounded queues with credit flow control: a head moves only if its
/// next queue, counting packets admitted toward it this cycle, is below
/// `capacity`; an injection into a full source queue is dropped.
pub(crate) struct Bounded {
    pub(crate) capacity: usize,
    pub(crate) sweep: bool,
}

impl Discipline for Bounded {
    #[inline]
    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    #[inline]
    fn sweep(&self) -> bool {
        self.sweep
    }
}

/// Dense per-channel instruments over one kernel's channel range,
/// merged into the shared [`Telemetry`] handle once at run end (keeps
/// the hot loop free of locks and string lookups).
pub(crate) struct Scoreboard {
    latency: Histogram,
    hops: Histogram,
    /// First channel of the range; vectors are indexed `ch - base`.
    base: usize,
    fwd: Vec<u64>,
    busy: Vec<u64>,
    peak: Vec<usize>,
}

impl Scoreboard {
    fn new(channels: &Range<usize>) -> Self {
        let c = channels.len();
        Self {
            latency: Histogram::new(),
            hops: Histogram::new(),
            base: channels.start,
            fwd: vec![0; c],
            busy: vec![0; c],
            peak: vec![0; c],
        }
    }

    /// Packets forwarded over the range.
    pub(crate) fn forwarded(&self) -> u64 {
        self.fwd.iter().sum()
    }

    /// Merges the histograms into `tel` and the per-link rows into `ls`.
    fn merge_into(&self, tel: &Telemetry, ls: &mut LinkStats, ends: &[(u32, u32)]) {
        tel.merge_histogram("sim.latency", &self.latency);
        tel.merge_histogram("sim.hops", &self.hops);
        for (i, &(from, to)) in ends[self.base..self.base + self.fwd.len()]
            .iter()
            .enumerate()
        {
            if self.fwd[i] > 0 {
                ls.record_forward(from, to, self.fwd[i]);
            }
            if self.busy[i] > 0 {
                ls.record_busy(from, to, self.busy[i]);
            }
            if self.peak[i] > 0 {
                ls.observe_queue(from, to, self.peak[i]);
            }
        }
    }
}

/// Plain-local profiler counters for one kernel: the hot loop bumps
/// `u64` fields and the totals become a [`Profile`] once at run end, so
/// profiling adds no allocation to the steady state. Work units are
/// logical — route nodes looked up, queue depth held at service,
/// productive candidates scanned — never wall clock, which keeps
/// profiles byte-identical run to run and across thread counts.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ProfCounters {
    /// `sim/route_lookup`: one invocation per admission lookup; work =
    /// nodes on the resolved path.
    pub(crate) lookup_inv: u64,
    pub(crate) lookup_work: u64,
    /// `sim/queue_service`: one invocation per served channel; work =
    /// queue depth at service time (backlog held).
    pub(crate) service_inv: u64,
    pub(crate) service_work: u64,
    /// `sim/adaptive_scan`: one invocation per least-queue choice; work
    /// = productive candidates examined.
    pub(crate) scan_inv: u64,
    pub(crate) scan_work: u64,
    /// `shard/mailbox_merge` (sharded engine, `shard_telemetry` only):
    /// one invocation per phase-B drain; work = packets received.
    pub(crate) mailbox_inv: u64,
    pub(crate) mailbox_work: u64,
    /// `shard/barrier_epoch` (sharded engine, `shard_telemetry` only):
    /// one invocation and one work unit per barrier wait.
    pub(crate) barrier_inv: u64,
    pub(crate) barrier_work: u64,
}

impl ProfCounters {
    /// Sums another kernel's counters into this one (commutative, so
    /// merge order never matters).
    fn absorb(&mut self, o: &ProfCounters) {
        self.lookup_inv += o.lookup_inv;
        self.lookup_work += o.lookup_work;
        self.service_inv += o.service_inv;
        self.service_work += o.service_work;
        self.scan_inv += o.scan_inv;
        self.scan_work += o.scan_work;
        self.mailbox_inv += o.mailbox_inv;
        self.mailbox_work += o.mailbox_work;
        self.barrier_inv += o.barrier_inv;
        self.barrier_work += o.barrier_work;
    }

    /// Folds the counters — plus the one-shot `sim/route_build` phase
    /// when a route table was built — into a profile merged into `tel`.
    /// Zero phases are skipped, so a phase a run never touches stays
    /// absent.
    fn finish(&self, tel: &Telemetry, route_build: Option<(u64, u64)>) {
        let mut p = Profile::new();
        if let Some((pairs, nodes)) = route_build {
            p.record("sim/route_build", pairs, nodes);
        }
        p.record("sim/route_lookup", self.lookup_inv, self.lookup_work);
        p.record("sim/queue_service", self.service_inv, self.service_work);
        p.record("sim/adaptive_scan", self.scan_inv, self.scan_work);
        p.record("shard/mailbox_merge", self.mailbox_inv, self.mailbox_work);
        p.record("shard/barrier_epoch", self.barrier_inv, self.barrier_work);
        if !p.is_empty() {
            tel.merge_profile(&p);
        }
    }
}

/// A buffered trace event: (cycle, phase, order key, event). Phase 0 is
/// injection (key = injection id), phase 1 service (key = 2 * channel
/// for a hop, 2 * channel + 1 for a delivery). The key is unique across
/// shards, so a stable sort on it rebuilds the serial emission order.
pub(crate) type BufferedEvent = (u64, u8, u64, Event);

/// Where a kernel's trace events go.
enum Trace<'a> {
    Off,
    /// Straight into the handle, in emission order (serial runs).
    Direct(&'a Telemetry),
    /// Buffered for the in-order merge after a sharded run.
    Buffered(Vec<BufferedEvent>),
}

impl Trace<'_> {
    #[inline]
    fn emit(&mut self, cycle: u64, phase: u8, key: u64, make: impl FnOnce() -> Event) {
        match self {
            Trace::Off => {}
            Trace::Direct(t) => t.event(make),
            Trace::Buffered(v) => v.push((cycle, phase, key, make())),
        }
    }
}

/// Exact integer totals of one kernel (or, summed, of one run).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    /// Packets delivered, self-deliveries included.
    pub(crate) delivered: u64,
    /// Routed deliveries: the latency and hop sample count.
    arrived: u64,
    total_latency: u64,
    total_hops: u64,
    max_latency: u64,
    peak_queue: usize,
    /// Injections refused at admission.
    unroutable: u64,
    /// Injections dropped at a full source queue (bounded runs).
    dropped: u64,
    /// Admissions whose route detours (fault accounting only).
    reroutes: u64,
}

impl Tally {
    fn absorb(&mut self, o: &Tally) {
        self.delivered += o.delivered;
        self.arrived += o.arrived;
        self.total_latency += o.total_latency;
        self.total_hops += o.total_hops;
        self.max_latency = self.max_latency.max(o.max_latency);
        self.peak_queue = self.peak_queue.max(o.peak_queue);
        self.unroutable += o.unroutable;
        self.dropped += o.dropped;
        self.reroutes += o.reroutes;
    }
}

/// One cycle's whole-network samples (the time-series recording point:
/// every injection, delivery, and queue peak of the cycle is fixed).
/// A shard's sample covers its own range; the driver sums them.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CycleSample {
    /// Schedule entries consumed this cycle (the whole schedule, even
    /// in a shard: every kernel walks it).
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    /// Deepest queue, post-injection.
    pub(crate) peak: u64,
    /// Channels served.
    pub(crate) active: u64,
    pub(crate) reroutes: u64,
    pub(crate) unroutable: u64,
    /// Routed packets in the network at cycle end, including movers
    /// handed to other shards.
    pub(crate) in_flight: u64,
}

impl CycleSample {
    /// Adds another shard's range-local samples (`injected` is
    /// whole-network already and stays put).
    pub(crate) fn absorb(&mut self, o: &CycleSample) {
        self.delivered += o.delivered;
        self.peak = self.peak.max(o.peak);
        self.active += o.active;
        self.reroutes += o.reroutes;
        self.unroutable += o.unroutable;
        self.in_flight += o.in_flight;
    }
}

/// What one kernel hands back for the run-end merge. A shard builds it
/// on its own thread, so its queues and pool are freed where they were
/// allocated.
pub(crate) struct Part {
    pub(crate) tally: Tally,
    prof: ProfCounters,
    pub(crate) board: Option<Scoreboard>,
    links: Option<LinkTs>,
    events: Vec<BufferedEvent>,
    /// Routed packets still queued when the run stopped.
    in_flight: u64,
    /// How far the schedule was walked (identical in every shard).
    consumed: usize,
    acct: Accounting,
    bounded: bool,
}

/// What every kernel of one run shares.
pub(crate) struct RunCtx<'a> {
    pub(crate) topo: &'a dyn NetTopology,
    pub(crate) injections: &'a [Injection],
    pub(crate) cfg: &'a SimConfig,
    pub(crate) layout: ChanLayout<'a>,
    /// Sparse (lazily materialised) channel store, exactly when the
    /// topology has no materialised graph.
    pub(crate) sparse: bool,
    /// Channel id -> (tail, head); materialised only with telemetry on
    /// (the million-node perf path runs telemetry-off and never pays
    /// for it).
    ends: Vec<(u32, u32)>,
}

impl<'a> RunCtx<'a> {
    /// # Panics
    /// Panics if `injections` are not sorted by injection cycle.
    pub(crate) fn new(
        topo: &'a dyn NetTopology,
        injections: &'a [Injection],
        cfg: &'a SimConfig,
    ) -> Self {
        assert!(
            injections.windows(2).all(|w| w[0].at <= w[1].at),
            "injections must be sorted by cycle"
        );
        let layout = ChanLayout::new(topo);
        let ends = if cfg.telemetry.is_some() {
            layout.endpoints()
        } else {
            Vec::new()
        };
        RunCtx {
            topo,
            injections,
            cfg,
            sparse: topo.explicit_graph().is_none(),
            layout,
            ends,
        }
    }

    pub(crate) fn tel(&self) -> Option<&'a Telemetry> {
        self.cfg.telemetry.as_ref()
    }

    pub(crate) fn ts_config(&self) -> Option<TsConfig> {
        self.tel().and_then(Telemetry::timeseries_config)
    }

    /// Merges the run's kernels (one, or one per shard in shard order)
    /// into its stats and telemetry. `cycles` is the cycle count run.
    pub(crate) fn finish(
        &self,
        mut parts: Vec<Part>,
        globals: Option<GlobalTs>,
        cycles: u64,
    ) -> SimStats {
        let mut t = Tally::default();
        let mut prof = ProfCounters::default();
        let mut in_flight = 0u64;
        for p in &parts {
            t.absorb(&p.tally);
            prof.absorb(&p.prof);
            in_flight += p.in_flight;
        }
        let never_injected = (self.injections.len() - parts[0].consumed) as u64;
        let offered = self.injections.len() as u64;
        let mut stats = SimStats {
            offered,
            delivered: t.delivered,
            // Every offered packet not delivered was refused at
            // admission, dropped at a full source queue, is still
            // queued, or was never injected (its cycle lies past the
            // limit) — so delivered + stranded == offered.
            stranded: t.unroutable + t.dropped + in_flight + never_injected,
            max_latency: t.max_latency,
            peak_queue: t.peak_queue,
            cycles,
            ..SimStats::default()
        };
        debug_assert_eq!(
            stats.delivered + stats.stranded,
            stats.offered,
            "packet conservation"
        );
        if t.arrived > 0 {
            // analyze: allow(float-determinism, one division over exact integer totals at run end)
            let mean = |sum: u64| sum as f64 / t.arrived as f64;
            stats.avg_latency = mean(t.total_latency);
            stats.avg_hops = mean(t.total_hops);
        }
        let Some(tel) = self.tel() else {
            return stats;
        };
        let acct = parts[0].acct;
        if self.cfg.profile {
            prof.finish(tel, acct.route_build);
        }
        let mut events: Vec<BufferedEvent> = Vec::new();
        for p in &mut parts {
            events.append(&mut p.events);
        }
        // Stable sort on (cycle, phase, key): the key is unique across
        // shards, and equal keys only occur within one shard
        // (injected-then-delivered pairs), whose local order the stable
        // sort preserves — exactly the serial emission order.
        // analyze: allow(unstable-order, stable sort; ties share a shard and keep serial emission order)
        events.sort_by_key(|e| (e.0, e.1, e.2));
        for (_, _, _, ev) in events {
            tel.event(|| ev);
        }
        if acct.faults {
            tel.counter("sim.reroutes").add(t.reroutes);
        }
        if acct.unroutable {
            tel.counter("sim.unroutable").add(t.unroutable);
        }
        if parts[0].bounded {
            tel.counter("sim.dropped").add(t.dropped);
        }
        for p in &mut parts {
            if let Some(lt) = p.links.take() {
                lt.merge_into(tel, &self.ends);
            }
        }
        if let Some(gt) = globals {
            gt.merge_into(tel);
        }
        tel.counter("sim.offered").add(stats.offered);
        tel.counter("sim.delivered").add(stats.delivered);
        tel.counter("sim.stranded").add(stats.stranded);
        tel.counter(CYCLES_COUNTER).add(stats.cycles);
        let mut ls = LinkStats::new();
        for b in parts.iter().filter_map(|p| p.board.as_ref()) {
            b.merge_into(tel, &mut ls, &self.ends);
        }
        tel.merge_links(&ls);
        tel.detect_congestion();
        stats
    }
}

/// The per-cycle engine over one contiguous channel range.
pub(crate) struct Kernel<'a, R: RoutePolicy, D> {
    ctx: &'a RunCtx<'a>,
    route: R,
    disc: D,
    /// Sources whose injections this kernel admits.
    owns: Range<NodeId>,
    /// Channels this kernel serves.
    channels: Range<usize>,
    queues: ChanQueues<u32>,
    pool: PacketPool<Packet>,
    /// Channels with a queued packet: the service set.
    active: Vec<usize>,
    still_active: Vec<usize>,
    /// Packets that crossed a channel this cycle: (where bound, key).
    moved: Vec<(R::Via, u32)>,
    /// Channels holding same-cycle credits (bounded discipline).
    touched: Vec<usize>,
    /// Schedule cursor: entries before it are consumed.
    next: usize,
    tally: Tally,
    pub(crate) prof: ProfCounters,
    board: Option<Scoreboard>,
    links: Option<LinkTs>,
    trace: Trace<'a>,
    spans: Option<Spans<'a>>,
    /// Sharded runs: movers go to the mailbox exchange instead of
    /// landing in place.
    pub(crate) shard: Option<ShardPort<'a>>,
}

impl<'a, R: RoutePolicy, D: Discipline> Kernel<'a, R, D> {
    /// A kernel serving `channels` and admitting injections sourced in
    /// `owns`. With a shard port its trace is buffered for the in-order
    /// merge; otherwise events go straight to the handle.
    pub(crate) fn new(
        ctx: &'a RunCtx<'a>,
        route: R,
        disc: D,
        channels: Range<usize>,
        owns: Range<NodeId>,
        shard: Option<ShardPort<'a>>,
    ) -> Self {
        let tel = ctx.tel();
        let trace = match tel {
            Some(t) if t.trace_enabled() => {
                if shard.is_some() {
                    Trace::Buffered(Vec::new())
                } else {
                    Trace::Direct(t)
                }
            }
            _ => Trace::Off,
        };
        Kernel {
            ctx,
            route,
            queues: ChanQueues::new(channels.clone(), ctx.sparse, disc.capacity().is_some()),
            disc,
            owns,
            pool: PacketPool::new(),
            active: Vec::new(),
            still_active: Vec::new(),
            moved: Vec::new(),
            touched: Vec::new(),
            next: 0,
            tally: Tally::default(),
            prof: ProfCounters::default(),
            board: tel.map(|_| Scoreboard::new(&channels)),
            links: ctx
                .ts_config()
                .map(|c| LinkTs::new(c, channels.start, channels.len())),
            trace,
            spans: None,
            shard,
            channels,
        }
    }

    /// How far the schedule has been walked (identical in every shard).
    pub(crate) fn consumed(&self) -> usize {
        self.next
    }

    /// Advances one cycle: inject, sample, serve, land.
    // analyze: hot(the per-cycle kernel every engine runs; steady state must stay allocation-free, see alloc_free.rs)
    pub(crate) fn step(&mut self, cycle: u64) -> CycleSample {
        let before = self.tally;
        let first = self.next;

        // 1. Inject everything due this cycle from the owned sources.
        let injections = self.ctx.injections;
        while self.next < injections.len() && injections[self.next].at == cycle {
            let idx = self.next;
            let inj = injections[idx];
            self.next += 1;
            if !self.owns.contains(&inj.src) {
                continue;
            }
            let id = idx as u64;
            self.trace.emit(cycle, 0, id, || Event::PacketInjected {
                id,
                src: inj.src as u32,
                dst: inj.dst as u32,
                cycle,
            });
            let target = match self.route.admit(idx, inj, &mut self.prof) {
                Admit::Enter(target) => target,
                Admit::Arrived => {
                    self.tally.delivered += 1;
                    self.trace.emit(cycle, 0, id, || Event::PacketDelivered {
                        id,
                        dst: inj.dst as u32,
                        latency: 0,
                        cycle,
                    });
                    continue;
                }
                Admit::Refused => {
                    self.tally.unroutable += 1;
                    self.refuse(id, inj.src, cycle);
                    continue;
                }
            };
            let p = Packet {
                id,
                injected_at: cycle,
                target,
                hop: 0,
            };
            let via = self.route.enter(inj.src, &p);
            let ch = self.route.channel(via, &p, &self.queues, &mut self.prof);
            if self
                .disc
                .capacity()
                .is_some_and(|cap| self.queues.len(ch) >= cap)
            {
                self.tally.dropped += 1;
                self.refuse(id, inj.src, cycle);
                continue;
            }
            let detoured = self.route.detoured(target);
            if detoured {
                self.tally.reroutes += 1;
            }
            let key = self.pool.alloc(p);
            if let Some(sp) = self.spans.as_mut() {
                sp.open_root(key, id, inj, target, detoured, cycle);
            }
            self.enqueue(ch, key, cycle);
        }

        // 2. Sample depths right after injections and landings. Source
        // routes serve in ascending channel id: that fixes the FIFO order
        // in which same-cycle movers land on a shared channel, and is
        // what makes sharded runs byte-identical.
        if self.disc.sweep() {
            self.active.clear();
            let queues = &self.queues;
            self.active
                .extend(self.channels.clone().filter(|&ch| queues.len(ch) > 0));
        } else if R::ASCENDING {
            self.active.sort_unstable();
        }
        let mut peak = 0usize;
        for &ch in &self.active {
            let len = self.queues.len(ch);
            peak = peak.max(len);
            if let Some(b) = self.board.as_mut() {
                let i = ch - b.base;
                b.peak[i] = b.peak[i].max(len);
            }
            if let Some(lt) = self.links.as_mut() {
                lt.observe(ch, cycle, len as u64);
            }
        }
        self.tally.peak_queue = self.tally.peak_queue.max(peak);
        let served = self.active.len();

        // 3. Serve one head per active channel. Moves are collected and
        // land afterwards, so a packet crosses at most one hop a cycle.
        let bounded = self.disc.capacity().is_some();
        self.still_active.clear();
        self.moved.clear();
        for i in 0..self.active.len() {
            let ch = self.active[i];
            if let Some(b) = self.board.as_mut() {
                b.busy[ch - b.base] += 1;
            }
            let key = if bounded {
                self.queues.front(ch).copied()
            } else {
                self.queues.pop_front(ch)
            }
            .expect("invariant: active channels hold a packet");
            let mut p = *self.pool.get(key);
            p.hop += 1;
            let next = self.route.advance(&p, ch);
            let moves = next.is_none_or(|via| self.has_room(via, &p));
            if moves {
                if bounded {
                    self.queues.pop_front(ch);
                }
                *self.pool.get_mut(key) = p;
                if let Some(b) = self.board.as_mut() {
                    b.fwd[ch - b.base] += 1;
                }
                let ends = &self.ctx.ends;
                self.trace
                    .emit(cycle, 1, 2 * ch as u64, || Event::PacketHop {
                        id: p.id,
                        from: ends[ch].0,
                        to: ends[ch].1,
                        cycle: cycle + 1,
                    });
                if let Some(sp) = self.spans.as_mut() {
                    sp.close_hop(key, cycle);
                }
                match next {
                    Some(via) => self.moved.push((via, key)),
                    None => self.deliver(key, &p, ch, cycle),
                }
            }
            let left = self.queues.len(ch);
            self.prof.service_inv += 1;
            self.prof.service_work += left as u64 + u64::from(moves);
            if left == 0 {
                self.queues.deactivate(ch);
            } else {
                self.still_active.push(ch);
            }
        }
        std::mem::swap(&mut self.active, &mut self.still_active);

        // 4. Land each mover on its next channel, in service order.
        let mut sent = 0u64;
        for i in 0..self.moved.len() {
            let (via, key) = self.moved[i];
            let ch = self
                .route
                .channel(via, self.pool.get(key), &self.queues, &mut self.prof);
            match self.shard.as_mut() {
                Some(port) => sent += u64::from(port.hand_off(ch, key, &mut self.pool)),
                None => self.enqueue(ch, key, cycle + 1),
            }
        }
        for &ch in &self.touched {
            self.queues.clear_incoming(ch);
        }
        self.touched.clear();

        CycleSample {
            injected: (self.next - first) as u64,
            delivered: self.tally.delivered - before.delivered,
            peak: peak as u64,
            active: served as u64,
            reroutes: self.tally.reroutes - before.reroutes,
            unroutable: self.tally.unroutable - before.unroutable,
            in_flight: self.pool.live() as u64 + sent,
        }
    }

    /// Bounded discipline: whether a head bound for its next channel may
    /// move this cycle, taking a credit on that channel if so (always
    /// true when unbounded).
    #[inline]
    fn has_room(&mut self, via: R::Via, p: &Packet) -> bool {
        let Some(cap) = self.disc.capacity() else {
            return true;
        };
        let next = self.route.channel(via, p, &self.queues, &mut self.prof);
        if self.queues.len_plus_incoming(next) >= cap {
            return false; // head-of-line blocked; wait
        }
        if self.queues.add_incoming(next) {
            self.touched.push(next);
        }
        true
    }

    /// Joins packet `key` to channel `ch`'s queue at cycle `at`.
    #[inline]
    fn enqueue(&mut self, ch: usize, key: u32, at: u64) {
        if let Some(sp) = self.spans.as_mut() {
            sp.open_hop(key, self.pool.get(key), at, self.queues.len(ch));
        }
        self.queues.push_back(ch, key);
        if self.queues.activate(ch) {
            self.active.push(ch);
        }
    }

    /// Sharded phase B, at this shard's turn: lands the movers it kept.
    pub(crate) fn land_pending(&mut self, cycle: u64) {
        let Some(mut port) = self.shard.take() else {
            return;
        };
        for &(ch, key) in &port.pending {
            self.enqueue(ch, key, cycle + 1);
        }
        port.pending.clear();
        self.shard = Some(port);
    }

    /// Sharded phase B: lands a mover another shard posted.
    pub(crate) fn receive(&mut self, ch: usize, p: Packet, cycle: u64) {
        let key = self.pool.alloc(p);
        self.enqueue(ch, key, cycle + 1);
    }

    /// Ends the run for this kernel, keeping only what the merge needs.
    pub(crate) fn into_part(self) -> Part {
        Part {
            tally: self.tally,
            prof: self.prof,
            board: self.board,
            links: self.links,
            events: match self.trace {
                Trace::Buffered(v) => v,
                _ => Vec::new(),
            },
            in_flight: self.pool.live() as u64,
            consumed: self.next,
            acct: self.route.accounting(),
            bounded: self.disc.capacity().is_some(),
        }
    }

    /// Traces a refused or dropped injection.
    fn refuse(&mut self, id: u64, src: NodeId, cycle: u64) {
        self.trace.emit(cycle, 0, id, || Event::PacketDropped {
            id,
            at: src as u32,
            cycle,
        });
    }

    /// Records the arrival of packet `key` over channel `ch`.
    #[inline]
    fn deliver(&mut self, key: u32, p: &Packet, ch: usize, cycle: u64) {
        let latency = cycle + 1 - p.injected_at;
        let hops = u64::from(p.hop);
        let t = &mut self.tally;
        t.delivered += 1;
        t.arrived += 1;
        t.total_latency += latency;
        t.total_hops += hops;
        t.max_latency = t.max_latency.max(latency);
        if let Some(b) = self.board.as_mut() {
            b.latency.record(latency);
            b.hops.record(hops);
        }
        let ends = &self.ctx.ends;
        self.trace
            .emit(cycle, 1, 2 * ch as u64 + 1, || Event::PacketDelivered {
                id: p.id,
                dst: ends[ch].1,
                latency,
                cycle: cycle + 1,
            });
        if let Some(sp) = self.spans.as_mut() {
            sp.close_root(key, latency, p.hop, cycle);
        }
        self.pool.free(key);
    }
}

/// Runs one kernel over the whole network until the cycle limit (or
/// drain), then finishes the run. `spans` is the flight recorder, if
/// tracing; `mem` receives the channel-store accounting.
pub(crate) fn drive_serial<R: RoutePolicy, D: Discipline>(
    ctx: &RunCtx<'_>,
    route: R,
    disc: D,
    spans: Option<Spans<'_>>,
    mem: Option<&mut MemStats>,
) -> SimStats {
    let faults = route.accounting().faults;
    let channels = 0..ctx.layout.num_channels();
    let mut k = Kernel::new(ctx, route, disc, channels, 0..NodeId::MAX, None);
    k.spans = spans;
    let mut globals = ctx.ts_config().map(|c| GlobalTs::new(c, faults));
    let mut cycle = 0u64;
    while cycle < ctx.cfg.max_cycles {
        let sample = k.step(cycle);
        if let Some(g) = globals.as_mut() {
            g.record(cycle, &sample);
        }
        cycle += 1;
        if sample.in_flight == 0 && k.next == ctx.injections.len() {
            break;
        }
    }
    if let Some(m) = mem {
        m.peak_channel_records = k.queues.peak_records();
        m.num_channels = ctx.layout.num_channels();
        m.channel_store_bytes = k.queues.heap_bytes();
    }
    ctx.finish(vec![k.into_part()], globals, cycle)
}
