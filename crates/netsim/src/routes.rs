//! Precomputed route tables: compute every distinct `(src, dst)` route
//! **once** per `(topology, [`FaultPlan`])` instead of once per packet.
//!
//! The simulators in [`crate::sim`] and [`crate::flight`] are oblivious:
//! a packet's path depends only on its endpoints and the static fault
//! plan, never on network state. Re-deriving the route at every
//! injection therefore repeats identical work — `topo.route` allocates a
//! fresh `Vec` per packet, and the fault-aware runner may re-run a BFS
//! over the survivor graph. [`RouteTable`] hoists all of that out of the
//! hot loop: routes for the distinct endpoint pairs of a workload are
//! computed once into a flat CSR arena (`offsets` + `nodes`), packets
//! carry a `u32` slot instead of a `Vec<NodeId>`, and detour attribution
//! (where a reroute begins and which fault caused it) is interned per
//! route rather than cloned per packet.
//!
//! [`RouteCache`] is the long-lived variant for fault campaigns: it
//! memoizes routes lazily and is keyed by a **fault epoch** — swapping
//! in a different [`FaultPlan`] bumps the epoch, but the memo is
//! repaired *incrementally*: every memoized route the plan delta cannot
//! touch survives verbatim (same slot, same bytes), and only the
//! affected routes are invalidated ([`RouteCache::set_plan`], lazily) or
//! respliced in place ([`RouteCache::repair`], eagerly — the churn
//! engines' per-delta hot path). The invalidation rule, proven
//! equivalent to a rebuild-from-scratch by the `repair_equiv` proptest:
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
//! Memory: the CSR arena costs `4 * (nodes_in_routes + pairs + 1)` bytes
//! plus the pair index — see [`RouteTable::heap_bytes`] (the same
//! accounting convention as `hb_graphs::Graph::heap_bytes`, quoted in
//! DESIGN.md §9 and §11).
//!
//! The pair index itself is flat too: a CSR keyed by dense source id
//! (`row_offsets[src] .. row_offsets[src + 1]` brackets a sorted run of
//! destinations), so [`RouteTable::slot`] is two array reads plus a
//! binary search over one source's destinations — no tree walk, no
//! per-lookup hashing. Detour attribution is a `Copy`
//! [`FaultReason`] id rather than an interned `String`, shrinking
//! [`Detour`] to two words and making snapshots allocation-free.

use crate::faults::{FaultPlan, FaultReason};
use crate::sim::Injection;
use crate::topology::{NetTopology, MAX_PRODUCTIVE};
use hb_graphs::{Graph, NodeId};
use std::collections::{BTreeMap, VecDeque};

/// Deterministic BFS route from `src` to `dst` over the survivor graph
/// (skipping faulty nodes and links). `None` when unreachable. Neighbor
/// order is the graph's sorted adjacency, so the result is a canonical
/// shortest survivor path.
pub fn survivor_route(
    g: &Graph,
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
    let n = g.num_nodes();
    let mut parent = vec![usize::MAX; n];
    parent[src] = src;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for &w in g.neighbors(u) {
            let w = w as usize;
            if parent[w] != usize::MAX || plan.is_link_faulty(u, w) {
                continue;
            }
            parent[w] = u;
            if w == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = parent[cur];
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

/// [`survivor_route`] for **implicit** topologies: the same
/// deterministic BFS over the survivor graph, but neighbors come from
/// [`NetTopology::neighbors_into`] (ascending node-id order — identical
/// to the sorted adjacency the explicit BFS walks, so the two functions
/// return identical canonical paths) and the visited/parent state lives
/// in a sparse map sized by nodes actually reached, never by the
/// topology's node count.
pub fn survivor_route_implicit(
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
    let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    parent.insert(src, src);
    let mut q = VecDeque::from([src]);
    let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
    while let Some(u) = q.pop_front() {
        let k = topo.neighbors_into(u, &mut buf);
        for &w in &buf[..k] {
            if parent.contains_key(&w) || plan.is_link_faulty(u, w) {
                continue;
            }
            parent.insert(w, u);
            if w == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = parent[&cur];
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
        // The two BFS variants walk neighbors in the same ascending
        // order, so the detour is the same canonical path either way;
        // the implicit one just never materialises per-node state.
        let tail = match topo.explicit_graph() {
            Some(g) => survivor_route(g, route[i], dst, plan)?,
            None => survivor_route_implicit(topo, route[i], dst, plan)?,
        };
        route.truncate(i + 1);
        route.extend_from_slice(&tail[1..]);
        return Some((route, Some((i as u32, reason))));
    }
    Some((route, None))
}

/// Detour sentinel in the packed per-slot arrays: no detour on this route.
const NO_DETOUR: u32 = u32::MAX;

/// Flat CSR arena of routes shared by [`RouteTable`] and [`RouteCache`].
/// Slots are dense append-order ids; the pair -> slot index lives in the
/// owning table/cache, not here.
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

    /// Appends a verbatim copy of an already-interned route (path in
    /// arena form plus detour), returning the new slot. Used by
    /// [`ChurnRoutes`] to freeze cache routes per epoch.
    fn push_copy(&mut self, path: &[u32], detour: Detour) -> u32 {
        let slot = u32::try_from(self.len()).expect("invariant: fewer than 2^32 route slots");
        self.nodes.extend_from_slice(path);
        self.offsets.push(
            u32::try_from(self.nodes.len()).expect("invariant: route arena stays under 2^32 nodes"),
        );
        let (hop, reason) = detour.unwrap_or((NO_DETOUR, FaultReason::Node(0)));
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

/// Immutable precomputed route table for one `(topology, FaultPlan)`
/// pair, covering a fixed set of endpoint pairs (typically the distinct
/// pairs of a workload — **not** all `n^2` pairs, so hotspot and
/// permutation traffic pay for their few distinct routes only).
///
/// Slots are dense `u32`s in first-seen pair order; packets store the
/// slot instead of an owned route.
///
/// The pair index is a CSR over the **distinct sources of the build
/// set** (not over all node ids, so the index costs O(pairs) even on
/// million-node implicit shapes): `srcs` is the sorted source list,
/// `row_offsets[i] .. row_offsets[i + 1]` brackets source `srcs[i]`'s
/// run of `(dst, slot)` entries in `cols`/`slots`, with `cols` sorted
/// per row. [`Self::slot`] is therefore two binary searches (source row,
/// then destination within the row).
#[derive(Clone, Debug)]
pub struct RouteTable {
    arena: RouteArena,
    /// Sorted distinct sources of the build set.
    srcs: Vec<u32>,
    /// CSR row starts into `cols`/`slots`; length `srcs.len() + 1`.
    row_offsets: Vec<u32>,
    /// Destination ids, ascending within each source row.
    cols: Vec<u32>,
    /// Slot of the route for the matching `cols` entry.
    slots: Vec<u32>,
    /// Pairs with no survivor route under the plan.
    unroutable_pairs: u64,
}

impl RouteTable {
    /// Builds the table for the given endpoint pairs (duplicates are
    /// deduplicated; slot order is first-seen order). With an empty
    /// `plan` this is exactly `topo.route` per distinct pair; otherwise
    /// each route gets at most one survivor-BFS detour spliced in by
    /// [`plan_route`].
    #[must_use]
    pub fn build(
        topo: &dyn NetTopology,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        plan: &FaultPlan,
    ) -> Self {
        let mut arena = RouteArena::new();
        // Per-source sorted (dst, slot) rows, keyed by the sources that
        // actually appear — O(distinct pairs) state, independent of the
        // topology's node count (implicit million-node shapes never pay
        // for a dense per-node index).
        let mut rows: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        let mut unroutable_pairs = 0u64;
        for (src, dst) in pairs {
            let key = (
                u32::try_from(src).expect("invariant: node ids fit u32"),
                u32::try_from(dst).expect("invariant: node ids fit u32"),
            );
            let row = rows.entry(key.0).or_default();
            let at = match row.binary_search_by_key(&key.1, |&(d, _)| d) {
                Ok(_) => continue, // duplicate pair, first slot wins
                Err(at) => at,
            };
            let planned = plan_route(topo, src, dst, plan);
            if planned.is_none() {
                unroutable_pairs += 1;
            }
            let slot = arena.push(planned);
            row.insert(at, (key.1, slot));
        }
        let mut srcs = Vec::with_capacity(rows.len());
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        let mut cols = Vec::with_capacity(arena.len());
        let mut slots = Vec::with_capacity(arena.len());
        row_offsets.push(0);
        for (src, row) in &rows {
            srcs.push(*src);
            for &(d, s) in row {
                cols.push(d);
                slots.push(s);
            }
            row_offsets.push(u32::try_from(cols.len()).expect("invariant: pair index fits u32"));
        }
        Self {
            arena,
            srcs,
            row_offsets,
            cols,
            slots,
            unroutable_pairs,
        }
    }

    /// Builds the table for the distinct endpoint pairs of a workload.
    #[must_use]
    pub fn for_injections(
        topo: &dyn NetTopology,
        injections: &[Injection],
        plan: &FaultPlan,
    ) -> Self {
        Self::build(topo, injections.iter().map(|i| (i.src, i.dst)), plan)
    }

    /// Slot of `(src, dst)`, if the pair was in the build set: a binary
    /// search over the distinct sources brackets the source's row, then
    /// a binary search over that row's sorted destinations.
    // analyze: hot(CSR route lookup runs once per injected packet)
    #[must_use]
    pub fn slot(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let Ok(src) = u32::try_from(src) else {
            return None;
        };
        let i = self.srcs.binary_search(&src).ok()?;
        let lo = self.row_offsets[i] as usize;
        let hi = self.row_offsets[i + 1] as usize;
        let row = &self.cols[lo..hi];
        // analyze: allow(narrowing-cast, node ids < 2^32 by the src try_from guard above; branch-free hot path)
        row.binary_search(&(dst as u32))
            .ok()
            .map(|i| self.slots[lo + i])
    }

    /// The route stored in `slot` (node ids). **Empty** means the pair
    /// is unroutable under the plan; a single node means self-delivery.
    // analyze: hot(per-hop path fetch on the forwarding cycle path)
    #[must_use]
    pub fn path(&self, slot: u32) -> &[u32] {
        self.arena.path(slot)
    }

    /// Hop index where the route's detour begins plus the attributed
    /// fault, `None` for purely oblivious routes.
    #[must_use]
    pub fn detour(&self, slot: u32) -> Detour {
        self.arena.detour(slot)
    }

    /// Number of distinct pairs in the table.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.arena.len()
    }

    /// Total nodes stored across every route — the deterministic work
    /// unit of the `sim/route_build` profiler phase (one unit per node
    /// written into the CSR arena).
    #[must_use]
    pub fn total_route_nodes(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Pairs with no survivor route under the plan.
    #[must_use]
    pub fn unroutable_pairs(&self) -> u64 {
        self.unroutable_pairs
    }

    /// Approximate heap footprint in bytes (same convention as
    /// `hb_graphs::Graph::heap_bytes`).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.heap_bytes()
            + self.srcs.capacity() * size_of::<u32>()
            + self.row_offsets.capacity() * size_of::<u32>()
            + self.cols.capacity() * size_of::<u32>()
            + self.slots.capacity() * size_of::<u32>()
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
/// Useful for fault campaigns that sweep many plans over one topology:
/// within an epoch repeated lookups of the same pair hit the table, not
/// a fresh BFS — and across epochs only the routes a delta actually
/// touched are ever recomputed.
#[derive(Clone, Debug, Default)]
pub struct RouteCache {
    plan: FaultPlan,
    epoch: u64,
    arena: RouteArena,
    /// Per-source sorted `(dst, slot)` rows, grown on demand — the lazy
    /// counterpart of [`RouteTable`]'s frozen CSR.
    rows: Vec<Vec<(u32, u32)>>,
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
        for row in &mut self.rows {
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
    /// counterpart of [`Self::set_plan`] used by the churn engines once
    /// per timeline delta. Every memoized pair is classified in
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
        for src in 0..self.rows.len() {
            for i in 0..self.rows[src].len() {
                let (dst_key, slot) = self.rows[src][i];
                stats.scanned += 1;
                if slot_survives(&self.arena, slot, &delta) {
                    stats.kept += 1;
                    continue;
                }
                self.live[slot as usize] = false;
                let planned = plan_route(topo, src, dst_key as usize, &self.plan);
                if let Some((route, _)) = &planned {
                    stats.work += route.len() as u64;
                }
                let fresh = self.arena.push(planned);
                self.live.push(true);
                self.rows[src][i].1 = fresh;
                stats.respliced += 1;
            }
        }
        stats
    }

    /// Slot of the route for `(src, dst)` under the current plan,
    /// computing and memoizing it on first use.
    pub fn resolve(&mut self, topo: &dyn NetTopology, src: NodeId, dst: NodeId) -> u32 {
        let dst_key = u32::try_from(dst).expect("invariant: node ids fit u32");
        if src >= self.rows.len() {
            self.rows.resize_with(src + 1, Vec::new);
        }
        let at = match self.rows[src].binary_search_by_key(&dst_key, |&(d, _)| d) {
            Ok(i) => return self.rows[src][i].1,
            Err(at) => at,
        };
        let slot = self.arena.push(plan_route(topo, src, dst, &self.plan));
        self.live.push(true);
        self.live_pairs += 1;
        self.rows[src].insert(at, (dst_key, slot));
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
            + self.rows.capacity() * size_of::<Vec<(u32, u32)>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * size_of::<(u32, u32)>())
                .sum::<usize>()
            + self.live.capacity()
            + self.plan.nodes().count() * size_of::<NodeId>()
    }
}

/// Frozen per-**injection** routes for one fault-timeline run, compiled
/// before the engines start (`crate::churn::compile`): each injection's
/// route is resolved under the plan in force at its injection cycle and
/// copied out of the [`RouteCache`] into an immutable arena, so engines
/// never read a slot the next delta could invalidate, and the sharded
/// engine shares the compile result read-only across threads.
#[derive(Clone, Debug)]
pub(crate) struct ChurnRoutes {
    arena: RouteArena,
    /// Per injection (by index into the run's injection slice): the
    /// arena slot of the route it was admitted with.
    slots: Vec<u32>,
    /// Cache slot -> arena slot, the dedup memo: cache slots are stable
    /// exactly as long as their route is live, so a kept route is
    /// interned once across every epoch that keeps it.
    interned: BTreeMap<u32, u32>,
}

impl ChurnRoutes {
    pub(crate) fn with_capacity(injections: usize) -> Self {
        Self {
            arena: RouteArena::new(),
            slots: Vec::with_capacity(injections),
            interned: BTreeMap::new(),
        }
    }

    /// Records the route for the next injection: the cache route in
    /// `cache_slot`, copied into the frozen arena on first sight.
    pub(crate) fn assign(&mut self, cache: &RouteCache, cache_slot: u32) {
        let slot = match self.interned.get(&cache_slot) {
            Some(&s) => s,
            None => {
                let s = self
                    .arena
                    .push_copy(cache.path(cache_slot), cache.detour(cache_slot));
                self.interned.insert(cache_slot, s);
                s
            }
        };
        self.slots.push(slot);
    }

    /// Drops dedup entries for cache slots a delta invalidated (their
    /// ids must not alias future cache slots' routes — cache arenas are
    /// append-only so ids are never reused, but the memo would otherwise
    /// grow without bound on long timelines).
    pub(crate) fn forget_dead(&mut self, cache: &RouteCache) {
        self.interned.retain(|&slot, _| cache.is_live(slot));
    }
}

/// Where a kernel reads routes from: a per-pair [`RouteTable`] (static
/// plan — one route per endpoint pair for the whole run) or per-
/// injection [`ChurnRoutes`] (fault timeline — the route each packet
/// was admitted with). Both keep their routes in a [`RouteArena`], which
/// kernels address by slot; only admission differs, via
/// [`RouteSrc::slot_for`].
#[derive(Clone, Copy)]
pub(crate) struct RouteSrc<'a> {
    arena: &'a RouteArena,
    slots: SlotIndex<'a>,
}

/// How an injection finds its route slot.
#[derive(Clone, Copy)]
enum SlotIndex<'a> {
    /// By endpoint pair in a static table.
    Pair(&'a RouteTable),
    /// By injection index in a churn snapshot.
    Injection(&'a [u32]),
}

impl<'a> RouteSrc<'a> {
    pub(crate) fn table(table: &'a RouteTable) -> Self {
        Self {
            arena: &table.arena,
            slots: SlotIndex::Pair(table),
        }
    }

    pub(crate) fn churn(churn: &'a ChurnRoutes) -> Self {
        Self {
            arena: &churn.arena,
            slots: SlotIndex::Injection(&churn.slots),
        }
    }

    /// Route slot for injection `inj` (its index in the run's sorted
    /// injection slice) from `src` to `dst`. `None` only for a table
    /// miss, which kernels treat as a build-set invariant violation.
    #[inline]
    pub(crate) fn slot_for(&self, inj: usize, src: NodeId, dst: NodeId) -> Option<u32> {
        match self.slots {
            SlotIndex::Pair(t) => t.slot(src, dst),
            SlotIndex::Injection(slots) => Some(slots[inj]),
        }
    }

    #[inline]
    pub(crate) fn path(&self, slot: u32) -> &'a [u32] {
        self.arena.path(slot)
    }

    #[inline]
    pub(crate) fn detour(&self, slot: u32) -> Detour {
        self.arena.detour(slot)
    }

    /// Distinct routes held — the `sim/route_build` profiler pair count.
    pub(crate) fn num_pairs(&self) -> usize {
        self.arena.len()
    }

    /// Total route nodes held — the `sim/route_build` work unit.
    pub(crate) fn total_route_nodes(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Whether routes came from a fault timeline (its admissions may be
    /// refused, so runs account `sim.unroutable`).
    pub(crate) fn is_churn(&self) -> bool {
        matches!(self.slots, SlotIndex::Injection(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::inj;
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet};

    fn hb() -> HyperButterflyNet {
        HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
    }

    #[test]
    fn faultless_table_matches_topology_routes() {
        let t = hb();
        let n = t.num_nodes();
        let pairs: Vec<_> = (0..n).map(|v| (v, (v * 7 + 3) % n)).collect();
        let table = RouteTable::build(&t, pairs.iter().copied(), &FaultPlan::new());
        assert_eq!(table.num_pairs(), pairs.len());
        assert_eq!(table.unroutable_pairs(), 0);
        for &(src, dst) in &pairs {
            let slot = table.slot(src, dst).unwrap();
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
            let table = RouteTable::build(&t, pairs.iter().copied(), &FaultPlan::new());
            let hb = hb_core::HyperButterfly::new(m, n).unwrap();
            for &(src, dst) in &pairs {
                let slot = table.slot(src, dst).unwrap();
                let hops = table.path(slot).len() - 1;
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
        let table = RouteTable::build(&t, pairs.iter().copied(), &plan);
        for &(src, dst) in &pairs {
            let slot = table.slot(src, dst).unwrap();
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
    fn unroutable_pairs_have_empty_paths() {
        let t = HypercubeNet::new(3).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(7, 3).add_link(7, 5).add_link(7, 6); // isolate 7
        let table = RouteTable::build(&t, [(0, 7), (0, 2)], &plan);
        assert_eq!(table.unroutable_pairs(), 1);
        assert!(table.path(table.slot(0, 7).unwrap()).is_empty());
        assert!(!table.path(table.slot(0, 2).unwrap()).is_empty());
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
    fn churn_routes_freeze_and_dedup_cache_slots() {
        let t = HypercubeNet::new(4).unwrap();
        let mut cache = RouteCache::new();
        let a = cache.resolve(&t, 0, 15);
        let b = cache.resolve(&t, 2, 9);
        let mut churn = ChurnRoutes::with_capacity(4);
        churn.assign(&cache, a);
        churn.assign(&cache, b);
        churn.assign(&cache, a); // same cache slot: interned once
        let src = RouteSrc::churn(&churn);
        let slot = |inj| src.slot_for(inj, 0, 0).unwrap();
        assert_eq!(src.num_pairs(), 2);
        assert_eq!(slot(0), slot(2));
        assert_eq!(src.path(slot(0)), cache.path(a));
        assert_eq!(src.detour(slot(1)), cache.detour(b));
        assert_eq!(
            src.total_route_nodes(),
            cache.path(a).len() + cache.path(b).len()
        );

        // After a delta kills `a`, the resolved replacement is a fresh
        // cache slot and interns as a fresh frozen route.
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        cache.set_plan(&plan);
        churn.forget_dead(&cache);
        let a2 = cache.resolve(&t, 0, 15);
        assert_ne!(a2, a);
        churn.assign(&cache, a2);
        // RouteSrc answers per-injection lookups from the frozen arena.
        let src = RouteSrc::churn(&churn);
        assert_eq!(src.num_pairs(), 3);
        assert_eq!(src.path(src.slot_for(3, 0, 15).unwrap()), cache.path(a2));
        assert!(src.is_churn());
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

    #[test]
    fn csr_slot_lookup_handles_misses_and_out_of_range() {
        let t = HypercubeNet::new(3).unwrap();
        let table = RouteTable::build(&t, [(1, 6), (1, 2), (0, 7)], &FaultPlan::new());
        assert_eq!(table.num_pairs(), 3);
        // First-seen slot order is preserved even though rows are sorted.
        assert_eq!(table.slot(1, 6), Some(0));
        assert_eq!(table.slot(1, 2), Some(1));
        assert_eq!(table.slot(0, 7), Some(2));
        // Misses: absent pair in a populated row, empty row, and a
        // source outside the topology.
        assert_eq!(table.slot(1, 3), None);
        assert_eq!(table.slot(5, 0), None);
        assert_eq!(table.slot(8, 0), None);
        assert_eq!(table.slot(10_000, 0), None);
    }
}
