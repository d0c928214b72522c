//! Route tables: every distinct route of a run is computed **once**,
//! before its cycle loop, instead of once per packet.
//!
//! The simulators are oblivious: a packet's path depends only on its
//! endpoints and the fault plan in force when it is admitted, never on
//! network state. So every source-routed run compiles its routes up
//! front, through one function (`RouteTable::compile`): it walks the
//! injections in cycle order, repairs a [`RouteCache`] at each
//! event-cycle delta of the run's fault timeline (a static plan is an
//! empty timeline, so it has none), and records the slot each injection
//! is admitted with. The frozen [`RouteTable`] is the cache's flat CSR
//! arena (`offsets` + `nodes`), taken without a copy, plus one `u32`
//! slot per injection: admission is one array read, packets carry the
//! slot instead of a `Vec<NodeId>`, and detour attribution (where a
//! reroute begins and which fault caused it) is interned per route
//! rather than cloned per packet.
//!
//! [`RouteCache`] memoizes routes lazily per endpoint pair and is keyed
//! by a **fault epoch** — swapping in a different [`FaultPlan`] bumps
//! the epoch, but the memo is repaired *incrementally*: every memoized
//! route the plan delta cannot touch survives verbatim (same slot, same
//! bytes), and only the affected routes are invalidated
//! ([`RouteCache::set_plan`], lazily) or respliced in place
//! ([`RouteCache::repair`], eagerly — the compile's per-delta hot
//! path). The invalidation rule, proven equivalent to a
//! rebuild-from-scratch by the `repair_equiv` proptest:
//!
//! * a **clean oblivious** route (no detour) is kept unless an added
//!   fault lands on one of its nodes or links — no other plan change
//!   can alter what [`plan_route`] returns for it;
//! * a **detoured** route is respliced on *any* effective delta: its
//!   BFS tail is discovery-order sensitive to every fault in the plan
//!   (and its attribution may need re-stamping);
//! * an **unroutable** pair stays unroutable under pure-fault deltas
//!   and is only recomputed when the delta repairs something.
//!
//! Memory: the CSR arena costs `4 * (nodes_in_routes + routes + 1)`
//! bytes plus one slot per injection — see [`RouteTable::heap_bytes`]
//! (the same accounting convention as `hb_graphs::Graph::heap_bytes`,
//! quoted in DESIGN.md §9 and §11). The cache's pair index is keyed by
//! the sources seen (a sorted `(dst, slot)` row each), so it costs
//! O(pairs) even on million-node implicit shapes. Detour attribution is
//! a `Copy` [`FaultReason`] id rather than an interned `String`,
//! shrinking [`Detour`] to two words and making snapshots
//! allocation-free.

use crate::faults::{FaultPlan, FaultReason, FaultTimeline};
use crate::sim::Injection;
use crate::topology::{NetTopology, MAX_PRODUCTIVE};
use hb_graphs::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// Parent links of the survivor BFS: dense over a materialised graph,
/// a sparse map sized by the nodes reached otherwise (the channel
/// layout makes the same choice).
enum Parents {
    Dense(Vec<NodeId>),
    Sparse(BTreeMap<NodeId, NodeId>),
}

impl Parents {
    fn get(&self, v: NodeId) -> Option<NodeId> {
        match self {
            Parents::Dense(p) => Some(p[v]).filter(|&u| u != NodeId::MAX),
            Parents::Sparse(p) => p.get(&v).copied(),
        }
    }

    fn insert(&mut self, v: NodeId, parent: NodeId) {
        match self {
            Parents::Dense(p) => p[v] = parent,
            Parents::Sparse(p) => {
                p.insert(v, parent);
            }
        }
    }
}

/// Deterministic BFS route from `src` to `dst` over the survivor graph
/// (skipping faulty nodes and links). `None` when unreachable. With a
/// materialised graph the BFS reads its CSR adjacency and keeps dense
/// parents; a graph-free topology enumerates neighbors through
/// [`NetTopology::neighbors_into`] and keeps parents in a sparse map,
/// never sized by the topology's node count. Both neighbor orders are
/// ascending node id, so the result is the same canonical shortest
/// survivor path either way.
pub fn survivor_route(
    topo: &dyn NetTopology,
    src: NodeId,
    dst: NodeId,
    plan: &FaultPlan,
) -> Option<Vec<NodeId>> {
    if plan.is_node_faulty(src) || plan.is_node_faulty(dst) {
        return None;
    }
    if src == dst {
        return Some(vec![src]);
    }
    let graph = topo.explicit_graph();
    let mut parent = match graph {
        Some(g) => Parents::Dense(vec![NodeId::MAX; g.num_nodes()]),
        None => Parents::Sparse(BTreeMap::new()),
    };
    parent.insert(src, src);
    let mut q = VecDeque::from([src]);
    let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
    let mut ids = [0u32; MAX_PRODUCTIVE];
    while let Some(u) = q.pop_front() {
        // One `&[u32]` slice either way, so the scan stays a plain slice
        // loop: chaining the two sources cost route repair about a fifth.
        let nbrs: &[u32] = match graph {
            Some(g) => g.neighbors(u),
            None => {
                let k = topo.neighbors_into(u, &mut buf);
                for (id, &w) in ids.iter_mut().zip(&buf[..k]) {
                    *id = u32::try_from(w).expect("invariant: node ids fit u32");
                }
                &ids[..k]
            }
        };
        for &w in nbrs {
            let w = w as NodeId;
            if parent.get(w).is_some() || plan.is_link_faulty(u, w) {
                continue;
            }
            parent.insert(w, u);
            if w == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = parent
                        .get(cur)
                        .expect("invariant: every reached node has a parent");
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            q.push_back(w);
        }
    }
    None
}

/// Where a detour begins (hop index) and the attributed fault reason.
/// `FaultReason` is `Copy`, so a `Detour` is two machine words — cloned
/// freely, never heap-allocated. Render the reason with `Display` to get
/// the historical string form.
pub type Detour = Option<(u32, FaultReason)>;

/// The oblivious route with at most one fault detour spliced in: the
/// packet flies the healthy prefix of `topo.route`, then a BFS survivor
/// path from the node in front of the first faulty link (the detour
/// itself avoids every fault, so one splice suffices). Returns the route
/// plus the hop index where the detour begins and the attributed reason,
/// or `None` when the packet cannot be routed (faulty endpoint or no
/// survivor path).
pub fn plan_route(
    topo: &dyn NetTopology,
    src: NodeId,
    dst: NodeId,
    plan: &FaultPlan,
) -> Option<(Vec<NodeId>, Detour)> {
    if plan.is_node_faulty(src) || plan.is_node_faulty(dst) {
        return None;
    }
    let mut route = topo.route(src, dst);
    if plan.is_empty() {
        return Some((route, None));
    }
    for i in 0..route.len().saturating_sub(1) {
        let Some(reason) = plan.link_fault_id(route[i], route[i + 1]) else {
            continue;
        };
        let tail = survivor_route(topo, route[i], dst, plan)?;
        route.truncate(i + 1);
        route.extend_from_slice(&tail[1..]);
        return Some((route, Some((i as u32, reason))));
    }
    Some((route, None))
}

/// Detour sentinel in the packed per-slot arrays: no detour on this route.
const NO_DETOUR: u32 = u32::MAX;

/// Flat CSR arena of routes: filled by a [`RouteCache`], frozen into a
/// [`RouteTable`]. Slots are dense append-order ids; the pair -> slot
/// index lives in the cache, not here.
#[derive(Clone, Debug, Default)]
struct RouteArena {
    /// Slot `s` occupies `nodes[offsets[s] as usize .. offsets[s+1] as usize]`.
    /// An **empty** range means the pair is unroutable under the plan.
    offsets: Vec<u32>,
    /// Concatenated route nodes.
    nodes: Vec<u32>,
    /// Per slot: hop index where the detour begins, or [`NO_DETOUR`].
    detour_hop: Vec<u32>,
    /// Per slot: attributed fault, meaningful only with a detour
    /// (a placeholder value sits under [`NO_DETOUR`] hops).
    detour_reason: Vec<FaultReason>,
}

impl RouteArena {
    fn new() -> Self {
        Self {
            offsets: vec![0],
            ..Self::default()
        }
    }

    /// Number of slots stored.
    fn len(&self) -> usize {
        self.detour_hop.len()
    }

    /// Appends a computed route, returning its slot.
    fn push(&mut self, planned: Option<(Vec<NodeId>, Detour)>) -> u32 {
        let slot = u32::try_from(self.len()).expect("invariant: fewer than 2^32 route slots");
        let (mut hop, mut reason) = (NO_DETOUR, FaultReason::Node(0));
        if let Some((route, detour)) = planned {
            self.nodes.extend(
                route
                    .iter()
                    .map(|&v| u32::try_from(v).expect("invariant: node ids fit u32")),
            );
            if let Some((at, r)) = detour {
                hop = at;
                reason = r;
            }
        }
        self.offsets.push(
            u32::try_from(self.nodes.len()).expect("invariant: route arena stays under 2^32 nodes"),
        );
        self.detour_hop.push(hop);
        self.detour_reason.push(reason);
        slot
    }

    fn path(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        &self.nodes[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    fn detour(&self, slot: u32) -> Detour {
        let hop = self.detour_hop[slot as usize];
        (hop != NO_DETOUR).then(|| (hop, self.detour_reason[slot as usize]))
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>()
            + self.nodes.capacity() * size_of::<u32>()
            + self.detour_hop.capacity() * size_of::<u32>()
            + self.detour_reason.capacity() * size_of::<FaultReason>()
    }
}

/// The routes of one source-routed run, frozen before its cycle loop:
/// the arena its compile filled, and per injection the slot of the
/// route it was admitted with. Routes cover the run's injections only
/// — **not** all `n^2` pairs, so hotspot and permutation traffic pay
/// for their few distinct routes only — and a pair injected under one
/// plan shares one slot. Kernels only read the table, so the sharded
/// engine shares it across threads and no plan delta can invalidate a
/// slot a packet carries.
#[derive(Clone, Debug)]
pub struct RouteTable {
    arena: RouteArena,
    /// Per injection (by index into the compiled injection slice): the
    /// arena slot of the route it was admitted with.
    slots: Vec<u32>,
    /// Distinct slots the injections use. Arena routes no injection
    /// was admitted with (respliced after the pair's last admission,
    /// or invalidated before any) do not count.
    pairs: usize,
    /// Route nodes over those distinct slots.
    route_nodes: usize,
    /// Compiled under a non-empty plan or timeline: admissions may be
    /// refused, so runs account `sim.unroutable`.
    may_refuse: bool,
}

/// What compiling a run's routes cost: the `sim.repair.*` counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CompileStats {
    /// Summed incremental-repair cost over all deltas.
    pub(crate) repair: RepairStats,
    /// Timeline events applied (cycle ≤ last injection).
    pub(crate) events: u64,
    /// Effective deltas (event-cycle groups that changed the plan).
    pub(crate) deltas: u64,
}

impl RouteTable {
    /// Compiles the routes of `injections` (sorted by `at`) under `base`
    /// plus `timeline`, in one pass: every event whose cycle has arrived
    /// is applied *between* injections (events at cycle `c` are visible
    /// to injections at `c`); events sharing a cycle form one **delta**,
    /// and each effective delta repairs the cache incrementally
    /// ([`RouteCache::repair`]). Each injection then resolves its route
    /// under the plan in force at its cycle. Events after the last
    /// injection never apply: no admission can observe them. With an
    /// empty timeline this is one route per distinct pair under `base`.
    ///
    /// # Panics
    /// Panics if `injections` are not sorted by injection cycle.
    pub(crate) fn compile(
        topo: &dyn NetTopology,
        injections: &[Injection],
        base: &FaultPlan,
        timeline: &FaultTimeline,
    ) -> (Self, CompileStats) {
        assert!(
            injections.windows(2).all(|w| w[0].at <= w[1].at),
            "injections must be sorted by cycle"
        );
        let events = timeline.events();
        let mut plan = base.clone();
        let mut cache = RouteCache::new();
        cache.set_plan(&plan);
        let mut cost = CompileStats::default();
        let mut slots = Vec::with_capacity(injections.len());
        let mut next = 0;
        for inj in injections {
            while next < events.len() && events[next].cycle <= inj.at {
                // One delta per event cycle: all its events land together.
                let at = events[next].cycle;
                while next < events.len() && events[next].cycle == at {
                    plan.apply(next, &events[next]);
                    next += 1;
                    cost.events += 1;
                }
                if cache.plan() != &plan {
                    cost.deltas += 1;
                    cost.repair.absorb(cache.repair(topo, &plan));
                }
            }
            slots.push(cache.resolve(topo, inj.src, inj.dst));
        }
        let arena = cache.arena;
        let mut seen = vec![false; arena.len()];
        let (mut pairs, mut route_nodes) = (0, 0);
        for &s in &slots {
            if !std::mem::replace(&mut seen[s as usize], true) {
                pairs += 1;
                route_nodes += arena.path(s).len();
            }
        }
        let table = Self {
            arena,
            slots,
            pairs,
            route_nodes,
            may_refuse: !base.is_empty() || !timeline.is_empty(),
        };
        (table, cost)
    }

    /// Compiles the routes of `injections` (sorted by `at`) under the
    /// static `plan`: one route per distinct endpoint pair, in
    /// first-seen order. With an empty `plan` that is exactly
    /// `topo.route`; otherwise each route gets at most one survivor-BFS
    /// detour spliced in by [`plan_route`].
    ///
    /// # Panics
    /// Panics if `injections` are not sorted by injection cycle.
    #[must_use]
    pub fn for_injections(
        topo: &dyn NetTopology,
        injections: &[Injection],
        plan: &FaultPlan,
    ) -> Self {
        Self::compile(topo, injections, plan, &FaultTimeline::new()).0
    }

    /// Slot of the route that injection number `injection` (its index
    /// in the compiled injection slice) was admitted with.
    // analyze: hot(route lookup runs once per injected packet)
    #[inline]
    #[must_use]
    pub fn slot(&self, injection: usize) -> u32 {
        self.slots[injection]
    }

    /// The route stored in `slot` (node ids). **Empty** means the pair
    /// is unroutable under the plan; a single node means self-delivery.
    // analyze: hot(per-hop path fetch on the forwarding cycle path)
    #[inline]
    #[must_use]
    pub fn path(&self, slot: u32) -> &[u32] {
        self.arena.path(slot)
    }

    /// Hop index where the route's detour begins plus the attributed
    /// fault, `None` for purely oblivious routes.
    #[inline]
    #[must_use]
    pub fn detour(&self, slot: u32) -> Detour {
        self.arena.detour(slot)
    }

    /// Number of distinct routes the injections were admitted with —
    /// with a static plan, the number of distinct pairs.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.pairs
    }

    /// Total nodes across those routes — the deterministic work unit of
    /// the `sim/route_build` profiler phase (one unit per node written
    /// into the CSR arena).
    #[must_use]
    pub fn total_route_nodes(&self) -> usize {
        self.route_nodes
    }

    /// Whether the table was compiled under a non-empty plan or
    /// timeline, so admissions may be refused.
    pub(crate) fn may_refuse(&self) -> bool {
        self.may_refuse
    }

    /// Approximate heap footprint in bytes (same convention as
    /// `hb_graphs::Graph::heap_bytes`).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes() + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// Work done by one incremental [`RouteCache::repair`] delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Memoized pairs examined.
    pub scanned: u64,
    /// Pairs whose route survived the delta verbatim (same slot).
    pub kept: u64,
    /// Pairs respliced under the new plan (including ones that became
    /// or stopped being unroutable).
    pub respliced: u64,
    /// Route nodes written while resplicing — the deterministic work
    /// unit of the `sim/route_repair` profiler phase.
    pub work: u64,
}

impl RepairStats {
    /// Accumulates another delta's stats into this one.
    pub fn absorb(&mut self, other: RepairStats) {
        self.scanned += other.scanned;
        self.kept += other.kept;
        self.respliced += other.respliced;
        self.work += other.work;
    }
}

/// The structural difference between two [`FaultPlan`]s, in the form
/// the keep/invalidate rule consumes: which faults were *added* (they
/// can break clean routes) and whether anything was *repaired* (only
/// repairs can resurrect unroutable pairs).
struct PlanDelta {
    added_nodes: Vec<u32>,
    added_links: Vec<(u32, u32)>,
    has_repair: bool,
}

impl PlanDelta {
    fn between(old: &FaultPlan, new: &FaultPlan) -> Self {
        let id = |x: NodeId| u32::try_from(x).expect("invariant: node ids fit u32");
        let old_nodes: Vec<NodeId> = old.nodes().collect();
        let old_links: Vec<(NodeId, NodeId)> = old.links().collect();
        let added_nodes = new
            .nodes()
            .filter(|v| old_nodes.binary_search(v).is_err())
            .map(id)
            .collect();
        let added_links = new
            .links()
            .filter(|l| old_links.binary_search(l).is_err())
            .map(|(u, v)| (id(u), id(v)))
            .collect();
        let has_repair = old.nodes().any(|v| !new.is_node_faulty(v))
            || old
                .links()
                .any(|l| new.links().all(|m| m != l) && !new.is_link_faulty(l.0, l.1));
        Self {
            added_nodes,
            added_links,
            has_repair,
        }
    }

    /// Whether an added fault lands on the given (fault-free) path.
    fn touches(&self, path: &[u32]) -> bool {
        path.iter()
            .any(|v| self.added_nodes.binary_search(v).is_ok())
            || path.windows(2).any(|w| {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                self.added_links.binary_search(&key).is_ok()
            })
    }
}

/// The keep/invalidate rule from the module docs, applied to one
/// memoized slot. `true` means the stored route is byte-identical to
/// what a rebuild under the new plan would produce.
fn slot_survives(arena: &RouteArena, slot: u32, delta: &PlanDelta) -> bool {
    let path = arena.path(slot);
    if path.is_empty() {
        // Unroutable stays unroutable when the delta only adds faults.
        return !delta.has_repair;
    }
    if arena.detour(slot).is_some() {
        // Detoured tails are BFS discovery-order sensitive to every
        // fault in the plan; resplice on any effective delta.
        return false;
    }
    !delta.touches(path)
}

/// Lazily memoized route store keyed by a **fault epoch**: call
/// [`RouteCache::set_plan`] (or, eagerly, [`RouteCache::repair`]) when
/// the fault set changes. Either way the memo is repaired
/// *incrementally*: routes the delta cannot affect keep their slots —
/// and those slots stay valid across the epoch bump — while affected
/// routes are invalidated (their old slots are dead, rejected by a
/// `debug_assert` in [`RouteCache::path`]/[`RouteCache::detour`]).
///
/// Every [`RouteTable`] is compiled through one, and it is useful on
/// its own for fault campaigns that sweep many plans over one topology:
/// within an epoch repeated lookups of the same pair hit the memo, not
/// a fresh BFS — and across epochs only the routes a delta actually
/// touched are ever recomputed.
#[derive(Clone, Debug, Default)]
pub struct RouteCache {
    plan: FaultPlan,
    epoch: u64,
    arena: RouteArena,
    /// Sorted `(dst, slot)` rows keyed by the sources seen, so the index
    /// costs O(memoized pairs) however many nodes the topology has.
    rows: BTreeMap<u32, Vec<(u32, u32)>>,
    /// Per arena slot: still referenced by `rows`? Invalidated slots
    /// stay in the arena (append-only) but are dead to callers.
    live: Vec<bool>,
    /// Live slot count == memoized pair count.
    live_pairs: usize,
}

impl RouteCache {
    /// An empty cache with an empty fault plan at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            arena: RouteArena::new(),
            ..Self::default()
        }
    }

    /// Current fault epoch; bumped by every effective [`Self::set_plan`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The plan routes are currently computed under.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Installs a new fault plan. A plan equal to the current one is a
    /// no-op (epoch and memo untouched); otherwise the epoch is bumped
    /// and the memo repaired **lazily**: routes the delta cannot affect
    /// keep their slots, affected pairs are forgotten and recomputed by
    /// the next [`Self::resolve`]. Slots of affected routes are dead
    /// after this call ([`Self::path`] rejects them in debug builds).
    pub fn set_plan(&mut self, plan: &FaultPlan) {
        if *plan == self.plan {
            return;
        }
        let delta = PlanDelta::between(&self.plan, plan);
        self.plan = plan.clone();
        self.epoch += 1;
        let arena = &self.arena;
        let live = &mut self.live;
        let mut live_pairs = self.live_pairs;
        for row in self.rows.values_mut() {
            row.retain(|&(_, slot)| {
                let keep = slot_survives(arena, slot, &delta);
                if !keep {
                    live[slot as usize] = false;
                    live_pairs -= 1;
                }
                keep
            });
        }
        self.live_pairs = live_pairs;
    }

    /// Eagerly repairs the memo for a new fault plan: the in-place
    /// counterpart of [`Self::set_plan`] that the route compile runs
    /// once per timeline delta. Every memoized pair is classified in
    /// ascending `(src, dst)` order; survivors keep their slots,
    /// affected pairs are respliced immediately under the new plan (so
    /// the memo stays complete — no lazy holes). Returns what the delta
    /// cost: `O(affected pairs)` resplices instead of the
    /// `O(memoized pairs × BFS)` a full rebuild pays.
    // analyze: hot(repair: per-delta route resplice under fault churn)
    pub fn repair(&mut self, topo: &dyn NetTopology, plan: &FaultPlan) -> RepairStats {
        let mut stats = RepairStats::default();
        if *plan == self.plan {
            return stats;
        }
        let delta = PlanDelta::between(&self.plan, plan);
        self.plan = plan.clone();
        self.epoch += 1;
        for (&src, row) in &mut self.rows {
            for entry in row.iter_mut() {
                let (dst, slot) = *entry;
                stats.scanned += 1;
                if slot_survives(&self.arena, slot, &delta) {
                    stats.kept += 1;
                    continue;
                }
                self.live[slot as usize] = false;
                let planned = plan_route(topo, src as NodeId, dst as NodeId, &self.plan);
                if let Some((route, _)) = &planned {
                    stats.work += route.len() as u64;
                }
                entry.1 = self.arena.push(planned);
                self.live.push(true);
                stats.respliced += 1;
            }
        }
        stats
    }

    /// Slot of the route for `(src, dst)` under the current plan,
    /// computing and memoizing it on first use.
    pub fn resolve(&mut self, topo: &dyn NetTopology, src: NodeId, dst: NodeId) -> u32 {
        let src_key = u32::try_from(src).expect("invariant: node ids fit u32");
        let dst_key = u32::try_from(dst).expect("invariant: node ids fit u32");
        let row = self.rows.entry(src_key).or_default();
        let at = match row.binary_search_by_key(&dst_key, |&(d, _)| d) {
            Ok(i) => return row[i].1,
            Err(at) => at,
        };
        let slot = self.arena.push(plan_route(topo, src, dst, &self.plan));
        self.live.push(true);
        self.live_pairs += 1;
        row.insert(at, (dst_key, slot));
        slot
    }

    /// The memoized route in `slot` (empty = unroutable). Slots stay
    /// valid across plan deltas **iff** the route survived them; a
    /// handle to an invalidated route is a logic error, rejected here in
    /// debug builds.
    #[must_use]
    pub fn path(&self, slot: u32) -> &[u32] {
        debug_assert!(
            self.live[slot as usize],
            "stale route slot {slot}: invalidated by a plan delta (epoch {})",
            self.epoch
        );
        self.arena.path(slot)
    }

    /// Detour attribution of the route in `slot` (as [`RouteTable::detour`]).
    #[must_use]
    pub fn detour(&self, slot: u32) -> Detour {
        debug_assert!(
            self.live[slot as usize],
            "stale route slot {slot}: invalidated by a plan delta (epoch {})",
            self.epoch
        );
        self.arena.detour(slot)
    }

    /// Whether `slot` still backs a memoized route (`false` once a plan
    /// delta invalidates it).
    #[must_use]
    pub fn is_live(&self, slot: u32) -> bool {
        self.live[slot as usize]
    }

    /// Distinct pairs memoized under the current plan (live slots —
    /// routes invalidated by a delta no longer count).
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.live_pairs
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.heap_bytes()
            + self
                .rows
                .values()
                .map(|r| {
                    size_of::<(u32, Vec<(u32, u32)>)>() + r.capacity() * size_of::<(u32, u32)>()
                })
                .sum::<usize>()
            + self.live.capacity()
            + self.plan.nodes().count() * size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEventKind, FaultTarget};
    use crate::sim::inj;
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet};

    fn hb() -> HyperButterflyNet {
        HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
    }

    /// One injection per pair, all at cycle 0: injection `k` is pair `k`.
    fn at_cycle_zero(pairs: &[(NodeId, NodeId)]) -> Vec<Injection> {
        pairs.iter().map(|&(s, d)| inj(s, d, 0)).collect()
    }

    #[test]
    fn faultless_table_matches_topology_routes() {
        let t = hb();
        let n = t.num_nodes();
        let pairs: Vec<_> = (0..n).map(|v| (v, (v * 7 + 3) % n)).collect();
        let table = RouteTable::for_injections(&t, &at_cycle_zero(&pairs), &FaultPlan::new());
        assert_eq!(table.num_pairs(), pairs.len());
        for (k, &(src, dst)) in pairs.iter().enumerate() {
            let slot = table.slot(k);
            let expect: Vec<u32> = t.route(src, dst).iter().map(|&v| v as u32).collect();
            assert_eq!(table.path(slot), expect.as_slice());
            assert_eq!(table.detour(slot), None);
        }
        assert!(table.heap_bytes() > 0);
        let expect_nodes: usize = pairs.iter().map(|&(s, d)| t.route(s, d).len()).sum();
        assert_eq!(table.total_route_nodes(), expect_nodes);
    }

    #[test]
    fn duplicate_pairs_share_one_slot() {
        let t = HypercubeNet::new(4).unwrap();
        let inj: Vec<Injection> = (0..32).map(|i| inj(0, 15, i)).collect();
        let table = RouteTable::for_injections(&t, &inj, &FaultPlan::new());
        assert_eq!(table.num_pairs(), 1);
        assert_eq!(table.path(0), &[0, 1, 3, 7, 15]);
    }

    #[test]
    fn route_lengths_equal_core_distances_on_hb() {
        // Remark 6/8: the optimal HB route concatenates the hypercube
        // and butterfly legs, so table route length == hb-core distance.
        for (m, n) in [(1u32, 3u32), (2, 3), (2, 4)] {
            let t = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst).unwrap();
            let nn = t.num_nodes();
            let pairs: Vec<_> = (0..nn.min(40)).map(|v| (v, (v * 13 + 5) % nn)).collect();
            let table = RouteTable::for_injections(&t, &at_cycle_zero(&pairs), &FaultPlan::new());
            let hb = hb_core::HyperButterfly::new(m, n).unwrap();
            for (k, &(src, dst)) in pairs.iter().enumerate() {
                let hops = table.path(table.slot(k)).len() - 1;
                let d = hb_core::routing::distance(&hb, hb.node(src), hb.node(dst));
                assert_eq!(hops as u32, d, "HB({m},{n}) {src}->{dst}");
            }
        }
    }

    #[test]
    fn faulted_table_matches_plan_route_splices() {
        let t = hb();
        let g = t.graph();
        let mut plan = FaultPlan::new();
        plan.add_node(5).add_link(0, 2).add_link(1, 3);
        let n = t.num_nodes();
        let pairs: Vec<_> = (0..n).map(|v| (v, (v * 11 + 1) % n)).collect();
        let table = RouteTable::for_injections(&t, &at_cycle_zero(&pairs), &plan);
        for (k, &(src, dst)) in pairs.iter().enumerate() {
            let slot = table.slot(k);
            match plan_route(&t, src, dst, &plan) {
                None => assert!(table.path(slot).is_empty(), "{src}->{dst}"),
                Some((route, detour)) => {
                    let expect: Vec<u32> = route.iter().map(|&v| v as u32).collect();
                    assert_eq!(table.path(slot), expect.as_slice());
                    match (table.detour(slot), detour) {
                        (None, None) => {}
                        (Some((h, r)), Some((eh, er))) => {
                            assert_eq!(h, eh);
                            assert_eq!(r, er);
                        }
                        other => panic!("detour mismatch {other:?}"),
                    }
                    // The spliced route is fault-free end to end.
                    for w in table.path(slot).windows(2) {
                        assert!(g.has_edge(w[0] as usize, w[1] as usize));
                        assert!(!plan.is_link_faulty(w[0] as usize, w[1] as usize));
                    }
                }
            }
        }
    }

    #[test]
    fn unroutable_pair_has_an_empty_path() {
        let t = HypercubeNet::new(3).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(7, 3).add_link(7, 5).add_link(7, 6); // isolate 7
        let table = RouteTable::for_injections(&t, &at_cycle_zero(&[(0, 7), (0, 2)]), &plan);
        assert!(table.path(table.slot(0)).is_empty());
        assert!(!table.path(table.slot(1)).is_empty());
    }

    #[test]
    fn cache_epoch_invalidation_recomputes_under_new_plan() {
        let t = HypercubeNet::new(4).unwrap();
        let mut cache = RouteCache::new();
        assert_eq!(cache.epoch(), 0);
        let s0 = cache.resolve(&t, 0, 15);
        assert_eq!(cache.path(s0), &[0, 1, 3, 7, 15]);
        assert_eq!(cache.detour(s0), None);

        // Same plan: no-op, memo intact.
        cache.set_plan(&FaultPlan::new());
        assert_eq!(cache.epoch(), 0);
        assert_eq!(cache.num_pairs(), 1);

        // New plan: epoch bump, memo cleared, spliced route returned —
        // and it matches what the flight recorder's BFS would fly.
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        cache.set_plan(&plan);
        assert_eq!(cache.epoch(), 1);
        assert_eq!(cache.num_pairs(), 0);
        let s1 = cache.resolve(&t, 0, 15);
        let (expect, detour) = plan_route(&t, 0, 15, &plan).unwrap();
        let expect: Vec<u32> = expect.iter().map(|&v| v as u32).collect();
        assert_eq!(cache.path(s1), expect.as_slice());
        let (hop, reason) = cache.detour(s1).unwrap();
        assert_eq!((hop, reason), (0, FaultReason::Link(0, 1)));
        assert_eq!(reason.to_string(), "link 0-1 faulty");
        assert_eq!(detour, Some((0, FaultReason::Link(0, 1))));
        // Still 4 hops: the survivor graph keeps a shortest detour.
        assert_eq!(cache.path(s1).len() - 1, 4);

        // Memoized on second resolve (same slot back).
        assert_eq!(cache.resolve(&t, 0, 15), s1);
        assert_eq!(cache.num_pairs(), 1);
    }

    #[test]
    fn set_plan_keeps_routes_the_delta_cannot_touch() {
        let t = hb();
        let n = t.num_nodes();
        let pairs: Vec<_> = (0..n).map(|v| (v, (v * 7 + 3) % n)).collect();
        let mut cache = RouteCache::new();
        let slots: Vec<u32> = pairs
            .iter()
            .map(|&(s, d)| cache.resolve(&t, s, d))
            .collect();
        assert_eq!(cache.num_pairs(), pairs.len());

        // Cut the first link of pair 0's route: that route must die,
        // routes elsewhere must keep their slots byte-identically.
        let r0 = t.route(pairs[0].0, pairs[0].1);
        let mut plan = FaultPlan::new();
        plan.add_link(r0[0], r0[1]);
        cache.set_plan(&plan);
        assert_eq!(cache.epoch(), 1);
        assert!(!cache.is_live(slots[0]));
        assert!(cache.num_pairs() < pairs.len());

        let mut kept = 0;
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let survived = cache.is_live(slots[i]);
            let slot = cache.resolve(&t, s, d);
            if survived {
                assert_eq!(slot, slots[i], "{s}->{d} must keep its slot");
                kept += 1;
            }
            // Every route — kept or respliced — matches a fresh
            // computation under the new plan.
            let (route, detour) = plan_route(&t, s, d, &plan).unwrap();
            let expect: Vec<u32> = route.iter().map(|&v| v as u32).collect();
            assert_eq!(cache.path(slot), expect.as_slice(), "{s}->{d}");
            assert_eq!(cache.detour(slot), detour, "{s}->{d}");
        }
        assert!(kept > 0, "a single cut link cannot touch every route");
        assert!(kept < pairs.len());
        assert_eq!(cache.num_pairs(), pairs.len());
    }

    #[test]
    fn eager_repair_matches_fresh_rebuild_and_counts_work() {
        let t = hb();
        let n = t.num_nodes();
        let pairs: Vec<_> = (0..n).map(|v| (v, (v * 11 + 1) % n)).collect();
        let mut cache = RouteCache::new();
        for &(s, d) in &pairs {
            cache.resolve(&t, s, d);
        }
        let mut plan = FaultPlan::new();
        plan.add_node_at(5, 0);
        let stats = cache.repair(&t, &plan);
        assert_eq!(stats.scanned, pairs.len() as u64);
        assert_eq!(stats.kept + stats.respliced, stats.scanned);
        assert!(stats.kept > 0, "one faulty node cannot touch every route");
        assert!(stats.respliced > 0, "routes through node 5 must resplice");
        assert!(stats.work > 0);
        assert_eq!(cache.epoch(), 1);

        // Identical plan: strict no-op.
        assert_eq!(cache.repair(&t, &plan), RepairStats::default());
        assert_eq!(cache.epoch(), 1);

        // The memo stays complete (repair is eager) and byte-identical
        // to a rebuild from scratch, attribution included.
        assert_eq!(cache.num_pairs(), pairs.len());
        for &(s, d) in &pairs {
            let slot = cache.resolve(&t, s, d);
            match plan_route(&t, s, d, &plan) {
                None => assert!(cache.path(slot).is_empty(), "{s}->{d}"),
                Some((route, detour)) => {
                    let expect: Vec<u32> = route.iter().map(|&v| v as u32).collect();
                    assert_eq!(cache.path(slot), expect.as_slice(), "{s}->{d}");
                    assert_eq!(cache.detour(slot), detour, "{s}->{d}");
                }
            }
        }

        // Revert to the empty plan: unroutable pairs and detours heal.
        let back = cache.repair(&t, &FaultPlan::new());
        assert!(back.respliced > 0);
        assert_eq!(cache.epoch(), 2);
        assert_eq!(cache.num_pairs(), pairs.len());
        for &(s, d) in &pairs {
            let slot = cache.resolve(&t, s, d);
            let expect: Vec<u32> = t.route(s, d).iter().map(|&v| v as u32).collect();
            assert_eq!(cache.path(slot), expect.as_slice());
            assert_eq!(cache.detour(slot), None);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale route slot")]
    fn stale_slots_from_pre_delta_epochs_are_rejected() {
        let t = HypercubeNet::new(4).unwrap();
        let mut cache = RouteCache::new();
        let s = cache.resolve(&t, 0, 15); // flies 0-1-3-7-15
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        cache.set_plan(&plan);
        assert!(!cache.is_live(s));
        let _ = cache.path(s);
    }

    #[test]
    fn compiled_slots_follow_each_injection_across_a_delta() {
        // Q4: 0->15 flies 0,1,3,7,15 and 2->9 flies 2,3,1,9. Cutting
        // links 0-1 and 1-3 at cycle 5 resplices both pairs, but only
        // 0->15 is admitted again afterwards.
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 15, 0), inj(2, 9, 1), inj(0, 15, 2), inj(0, 15, 6)];
        let mut tl = FaultTimeline::new();
        tl.push(5, FaultEventKind::Fault, FaultTarget::Link(0, 1))
            .push(5, FaultEventKind::Fault, FaultTarget::Link(1, 3));
        let (table, cost) = RouteTable::compile(&t, &inj, &FaultPlan::new(), &tl);
        assert_eq!((cost.events, cost.deltas), (2, 1));
        assert_eq!((cost.repair.kept, cost.repair.respliced), (0, 2));

        // Same pair under one plan: one slot. After the delta: a fresh
        // detoured slot, while earlier admissions keep the route they
        // were admitted with.
        let slots: Vec<u32> = (0..inj.len()).map(|k| table.slot(k)).collect();
        assert_eq!(slots[0], slots[2]);
        assert_ne!(slots[3], slots[0]);
        assert_eq!(table.path(slots[0]), &[0, 1, 3, 7, 15]);
        assert_eq!(table.detour(slots[0]), None);
        assert_eq!(table.path(slots[1]), &[2, 3, 1, 9]);
        let (route, detour) = plan_route(&t, 0, 15, &{
            let mut plan = FaultPlan::new();
            plan.add_link_at(0, 1, 0).add_link_at(1, 3, 1);
            plan
        })
        .unwrap();
        let route: Vec<u32> = route.iter().map(|&v| v as u32).collect();
        assert_eq!(table.path(slots[3]), route.as_slice());
        assert_eq!(table.detour(slots[3]), detour);
        assert_eq!(detour, Some((0, FaultReason::LinkAt(0, 1, 0))));

        // 2->9's resplice sits in the arena but no injection took it,
        // so the counts cover the three admitted routes only.
        assert_eq!(table.num_pairs(), 3);
        assert_eq!(table.total_route_nodes(), 5 + 4 + route.len());
        assert!(table.may_refuse());
    }

    #[test]
    fn cache_reasons_are_interned_copy_ids() {
        let t = HypercubeNet::new(3).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        let mut cache = RouteCache::new();
        cache.set_plan(&plan);
        let a = cache.resolve(&t, 0, 1);
        let b = cache.resolve(&t, 0, 3);
        // 0->1 detours (direct link cut); 0->3 routes 0-1-3 so it also
        // detours at hop 0. Both carry the same Copy id — no owned
        // strings anywhere in the snapshot.
        assert_eq!(cache.detour(a).unwrap().1, FaultReason::Link(0, 1));
        assert_eq!(cache.detour(b).unwrap().1, FaultReason::Link(0, 1));
        assert_eq!(cache.detour(a).unwrap().1.to_string(), "link 0-1 faulty");
        // A Detour is two words, not a heap handle.
        assert!(std::mem::size_of::<Detour>() <= 2 * std::mem::size_of::<usize>());
    }
}
