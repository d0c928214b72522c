//! Fault-injection experiments (paper Corollary 1 / Remark 10, measured).
//!
//! The claims under test:
//!
//! * `HB(m, n)` stays connected under **any** fault set of size
//!   `<= m + 3` (it is `m + 4`-connected), while `HD(m, n)` can be
//!   disconnected by `m + 2` faults;
//! * under random faults, the probability of disconnection and of pair
//!   unreachability grows earlier for the less-connected topology;
//! * the Theorem-5 family router keeps delivering at the maximal
//!   allowable fault count.

use hb_graphs::{traverse, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Why a link is unusable — the interned, `Copy` form of detour
/// attribution. Route tables and snapshots store this 2-word value
/// instead of an owned `String`; rendering via `Display` produces the
/// trace attribute strings (`node 3 faulty`,
/// `link 2-7 faulty (event 1)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultReason {
    /// The named node is down (taking every incident link with it).
    Node(u32),
    /// The undirected link `{u, v}` is cut; stored normalized `u <= v`.
    Link(u32, u32),
    /// Like [`FaultReason::Node`], attributed to the [`FaultTimeline`]
    /// event (by index) that injected the fault mid-run. The index is
    /// `u16` so the whole enum still fits the 2-word detour budget.
    NodeAt(u32, u16),
    /// Like [`FaultReason::Link`], attributed to a timeline event.
    LinkAt(u32, u32, u16),
}

impl FaultReason {
    /// The timeline event index that caused this fault, when the fault
    /// was injected mid-run by a [`FaultTimeline`] (static-plan faults
    /// have no event).
    pub fn event(&self) -> Option<u16> {
        match *self {
            FaultReason::Node(_) | FaultReason::Link(_, _) => None,
            FaultReason::NodeAt(_, e) | FaultReason::LinkAt(_, _, e) => Some(e),
        }
    }
}

impl std::fmt::Display for FaultReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultReason::Node(v) => write!(f, "node {v} faulty"),
            FaultReason::Link(u, v) => write!(f, "link {u}-{v} faulty"),
            FaultReason::NodeAt(v, e) => write!(f, "node {v} faulty (event {e})"),
            FaultReason::LinkAt(u, v, e) => write!(f, "link {u}-{v} faulty (event {e})"),
        }
    }
}

/// A static set of failed nodes and links, the per-packet counterpart of
/// the campaign-level trials below: a [`crate::Sim`] run with the plan
/// attached routes individual packets *around* it while the flight
/// recorder attributes each detour to the fault that caused it.
///
/// Links are stored undirected (normalized to `(min, max)`); a faulty
/// node implies every incident link is faulty, so routing only ever needs
/// the link test plus the endpoint test.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    nodes: BTreeSet<NodeId>,
    links: BTreeSet<(NodeId, NodeId)>,
    /// Which [`FaultTimeline`] event (by index) faulted each node, for
    /// mid-run faults only — statically-planned faults carry no
    /// attribution. Part of plan equality: a plan whose faults were
    /// injected by events is *not* interchangeable with a static plan
    /// of the same sets, because detour attribution differs.
    node_events: BTreeMap<NodeId, u16>,
    /// Which timeline event faulted each link (normalized key).
    link_events: BTreeMap<(NodeId, NodeId), u16>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks node `v` (and implicitly all its links) as faulty.
    pub fn add_node(&mut self, v: NodeId) -> &mut Self {
        self.nodes.insert(v);
        self
    }

    /// Marks the undirected link `{u, v}` as faulty.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.links.insert((u.min(v), u.max(v)));
        self
    }

    /// Marks node `v` faulty and attributes the fault to timeline event
    /// `event`, so detours around it render as
    /// `node {v} faulty (event {event})`.
    pub fn add_node_at(&mut self, v: NodeId, event: u16) -> &mut Self {
        self.nodes.insert(v);
        self.node_events.insert(v, event);
        self
    }

    /// Marks the undirected link `{u, v}` faulty, attributed to
    /// timeline event `event`.
    pub fn add_link_at(&mut self, u: NodeId, v: NodeId, event: u16) -> &mut Self {
        let key = (u.min(v), u.max(v));
        self.links.insert(key);
        self.link_events.insert(key, event);
        self
    }

    /// Repairs node `v`: clears the fault and any event attribution.
    /// A no-op when `v` is healthy.
    pub fn remove_node(&mut self, v: NodeId) -> &mut Self {
        self.nodes.remove(&v);
        self.node_events.remove(&v);
        self
    }

    /// Repairs the undirected link `{u, v}`. A no-op when healthy.
    /// Does **not** resurrect links lost to a node fault — those come
    /// back only when the node itself is repaired.
    pub fn remove_link(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        let key = (u.min(v), u.max(v));
        self.links.remove(&key);
        self.link_events.remove(&key);
        self
    }

    /// Applies `ev`, the event at index `idx` of its [`FaultTimeline`].
    /// Faults carry the index so detour spans can name the event that
    /// caused them ([`FaultReason::event`]).
    pub(crate) fn apply(&mut self, idx: usize, ev: &FaultEvent) -> &mut Self {
        let tag = u16::try_from(idx).expect("invariant: timelines hold fewer than u16::MAX events");
        match (ev.kind, ev.target) {
            (FaultEventKind::Fault, FaultTarget::Node(v)) => self.add_node_at(v, tag),
            (FaultEventKind::Fault, FaultTarget::Link(u, v)) => self.add_link_at(u, v, tag),
            (FaultEventKind::Repair, FaultTarget::Node(v)) => self.remove_node(v),
            (FaultEventKind::Repair, FaultTarget::Link(u, v)) => self.remove_link(u, v),
        }
    }

    /// A plan from node and link lists.
    pub fn from_sets(
        nodes: impl IntoIterator<Item = NodeId>,
        links: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let mut p = Self::new();
        for v in nodes {
            p.add_node(v);
        }
        for (u, v) in links {
            p.add_link(u, v);
        }
        p
    }

    /// Whether nothing is faulty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }

    /// Faulty nodes, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Faulty links as normalized `(min, max)` pairs, ascending.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.links.iter().copied()
    }

    /// Whether node `v` is faulty.
    pub fn is_node_faulty(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// Whether the link `{u, v}` is unusable: explicitly cut, or an
    /// endpoint is down.
    pub fn is_link_faulty(&self, u: NodeId, v: NodeId) -> bool {
        self.links.contains(&(u.min(v), u.max(v)))
            || self.nodes.contains(&u)
            || self.nodes.contains(&v)
    }

    /// Why the link `{u, v}` is unusable, as an interned `Copy` id for
    /// detour attribution (`None` when it is healthy). Classification
    /// priority (head-node fault, then tail-node, then cut link) matches
    /// the historical string form exactly.
    pub fn link_fault_id(&self, u: NodeId, v: NodeId) -> Option<FaultReason> {
        let id = |x: NodeId| u32::try_from(x).expect("invariant: node ids fit u32");
        if self.nodes.contains(&v) {
            Some(match self.node_events.get(&v) {
                Some(&e) => FaultReason::NodeAt(id(v), e),
                None => FaultReason::Node(id(v)),
            })
        } else if self.nodes.contains(&u) {
            Some(match self.node_events.get(&u) {
                Some(&e) => FaultReason::NodeAt(id(u), e),
                None => FaultReason::Node(id(u)),
            })
        } else if self.links.contains(&(u.min(v), u.max(v))) {
            let key = (u.min(v), u.max(v));
            Some(match self.link_events.get(&key) {
                Some(&e) => FaultReason::LinkAt(id(key.0), id(key.1), e),
                None => FaultReason::Link(id(key.0), id(key.1)),
            })
        } else {
            None
        }
    }

    /// The *fault-adjacent* nodes of `topo`: a node is hot when it is
    /// faulty, neighbors a faulty node, or is an endpoint of a cut link.
    /// A link is **faulty-adjacent** iff either endpoint is hot — the
    /// sampling predicate of the flight recorder ("record every packet
    /// that flies near a fault"). The set holds **only** the hot node
    /// ids — O(faults × degree) memory, independent of topology size.
    /// Without a materialised graph, neighbor enumeration goes through
    /// [`crate::topology::NetTopology::neighbors_into`], so graph-free
    /// million-node topologies never materialise an adjacency array.
    pub fn hot_node_set(&self, topo: &dyn crate::topology::NetTopology) -> BTreeSet<NodeId> {
        let n = topo.num_nodes();
        let mut hot = BTreeSet::new();
        let mut buf = [0 as NodeId; crate::topology::MAX_PRODUCTIVE];
        for &v in &self.nodes {
            if v < n {
                hot.insert(v);
                match topo.explicit_graph() {
                    Some(g) => hot.extend(g.neighbors(v).iter().map(|&w| w as NodeId)),
                    None => {
                        let k = topo.neighbors_into(v, &mut buf);
                        hot.extend(buf[..k].iter().copied());
                    }
                }
            }
        }
        for &(u, v) in &self.links {
            if u < n {
                hot.insert(u);
            }
            if v < n {
                hot.insert(v);
            }
        }
        hot
    }
}

/// What one [`FaultTimeline`] event acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A node (faulting it takes every incident link down).
    Node(NodeId),
    /// An undirected link; stored normalized `(min, max)`.
    Link(NodeId, NodeId),
}

/// Whether a timeline event injects or heals a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The target becomes faulty at the event's cycle.
    Fault,
    /// The target is repaired at the event's cycle.
    Repair,
}

/// One scheduled fault or repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation cycle the event takes effect at. Events fire at the
    /// cycle *boundary*: injections at `cycle` already see the event.
    pub cycle: u64,
    /// Fault or repair.
    pub kind: FaultEventKind,
    /// The node or link acted on.
    pub target: FaultTarget,
}

/// A deterministic schedule of mid-run fault and repair events, the
/// dynamic counterpart of a static [`FaultPlan`]. Events are held in
/// nondecreasing cycle order; all events sharing a cycle apply
/// atomically as **one delta**, and a [`crate::Sim`] run with the
/// timeline attached repairs the route memo incrementally per delta
/// instead of rebuilding it (see `RouteCache::repair`).
///
/// The text form accepted by [`FaultTimeline::parse`] is line-oriented:
///
/// ```text
/// # comments run to end of line
/// @12 fault node 5
/// @12 fault link 0-3
/// @40 repair node 5
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// An empty timeline (equivalent to running with the base plan
    /// alone).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event; panics if `cycle` precedes the last event's
    /// cycle or the timeline is full (event indices are `u16`).
    pub fn push(&mut self, cycle: u64, kind: FaultEventKind, target: FaultTarget) -> &mut Self {
        self.try_push(cycle, kind, target)
            .expect("invariant: timeline events are pushed in nondecreasing cycle order");
        self
    }

    /// Appends an event, rejecting out-of-order cycles and overflow.
    pub fn try_push(
        &mut self,
        cycle: u64,
        kind: FaultEventKind,
        target: FaultTarget,
    ) -> Result<(), String> {
        if let Some(last) = self.events.last() {
            if cycle < last.cycle {
                return Err(format!(
                    "event at cycle {cycle} scheduled after cycle {}: timelines are \
                     nondecreasing",
                    last.cycle
                ));
            }
        }
        if self.events.len() + 1 >= usize::from(u16::MAX) {
            return Err("timeline full: event indices are u16".to_string());
        }
        let target = match target {
            FaultTarget::Link(u, v) => FaultTarget::Link(u.min(v), u.max(v)),
            node => node,
        };
        self.events.push(FaultEvent {
            cycle,
            kind,
            target,
        });
        Ok(())
    }

    /// The events, in schedule order. An event's index in this slice is
    /// the id detour attribution refers to (`… faulty (event {i})`).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses the line-oriented text form: one
    /// `@<cycle> <fault|repair> <node N | link U-V>` per line, `#`
    /// starting a comment, blank lines ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut tl = Self::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("timeline line {}: {msg}", idx + 1);
            let mut parts = line.split_whitespace();
            let cycle = parts
                .next()
                .and_then(|t| t.strip_prefix('@'))
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| at(format!("expected `@<cycle>`, got `{line}`")))?;
            let kind = match parts.next() {
                Some("fault") => FaultEventKind::Fault,
                Some("repair") => FaultEventKind::Repair,
                other => {
                    return Err(at(format!(
                        "expected `fault` or `repair`, got `{}`",
                        other.unwrap_or("")
                    )))
                }
            };
            let target = match (parts.next(), parts.next()) {
                (Some("node"), Some(v)) => {
                    let v = v
                        .parse::<NodeId>()
                        .map_err(|_| at(format!("bad node id `{v}`")))?;
                    FaultTarget::Node(v)
                }
                (Some("link"), Some(uv)) => {
                    let (u, v) = uv
                        .split_once('-')
                        .and_then(|(u, v)| Some((u.parse::<NodeId>().ok()?, v.parse().ok()?)))
                        .ok_or_else(|| at(format!("bad link `{uv}`, expected `U-V`")))?;
                    FaultTarget::Link(u, v)
                }
                _ => {
                    return Err(at(format!(
                        "expected `node <id>` or `link <u>-<v>`, got `{line}`"
                    )))
                }
            };
            if let Some(extra) = parts.next() {
                return Err(at(format!("trailing `{extra}`")));
            }
            tl.try_push(cycle, kind, target).map_err(at)?;
        }
        Ok(tl)
    }
}

/// Outcome of one fault-injection trial campaign at a fixed fault count.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultTrialStats {
    /// Number of injected faults per trial.
    pub faults: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials whose survivor graph stayed connected.
    pub connected: usize,
    /// Fraction of sampled survivor pairs that remained mutually
    /// reachable, averaged over trials.
    pub pair_reachability: f64,
}

/// Samples `trials` random fault sets of the given size and measures
/// survivor connectivity plus reachability of `pair_samples` random
/// survivor pairs per trial. Each trial seeds its own generator from
/// `seed` and its index, so trials are independent of one another, and
/// labels the survivor components once: a pair is reachable iff both
/// ends carry the same label.
pub fn random_fault_trials(
    g: &Graph,
    faults: usize,
    trials: usize,
    pair_samples: usize,
    seed: u64,
) -> FaultTrialStats {
    let n = g.num_nodes();
    assert!(faults < n, "cannot fault every node");
    let results: Vec<(bool, f64)> = (0..trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            let keep = place_random_faults(n, faults, &mut rng);
            let blocked: Vec<NodeId> = (0..n).filter(|&v| !keep[v]).collect();
            // One labelling answers the connectivity question and every
            // sampled pair (meaningful even when disconnected).
            let (label, components) = traverse::components_avoiding(g, &blocked);
            let survivors: Vec<NodeId> = (0..n).filter(|&v| keep[v]).collect();
            let connected = survivors.len() <= 1 || components == 1;
            let mut reachable = 0usize;
            let mut sampled = 0usize;
            for _ in 0..pair_samples {
                let a = survivors[rng.random_range(0..survivors.len())];
                let b = survivors[rng.random_range(0..survivors.len())];
                if a == b {
                    continue;
                }
                sampled += 1;
                if label[a] == label[b] {
                    reachable += 1;
                }
            }
            let ratio = if sampled == 0 {
                1.0
            } else {
                reachable as f64 / sampled as f64
            };
            (connected, ratio)
        })
        .collect();
    let connected = results.iter().filter(|r| r.0).count();
    let pair_reachability = results.iter().map(|r| r.1).sum::<f64>() / trials.max(1) as f64;
    FaultTrialStats {
        faults,
        trials,
        connected,
        pair_reachability,
    }
}

/// Adversarial (targeted) fault trials: each trial picks a random victim
/// node among those of **minimum degree** and faults `faults` of its
/// neighbors (all of them when `faults >= degree`). This is the natural
/// attack on an interconnect: the victim is isolated exactly when the
/// whole neighborhood is faulty, so the disconnection threshold under
/// this campaign *is* the minimum degree — `m + 2` for hyper-deBruijn
/// versus `m + 4` for the hyper-butterfly at the same `m`.
pub fn adversarial_fault_trials(
    g: &Graph,
    faults: usize,
    trials: usize,
    seed: u64,
) -> FaultTrialStats {
    targeted_trials(g, faults, trials, seed, 0x51ED_270B, |_, nbrs| {
        traverse::is_connected_avoiding(g, nbrs)
    })
}

/// Adversarial **link**-fault trials: cut `faults` random links incident
/// to a minimum-degree victim. The disconnection threshold is the edge
/// connectivity — which equals the minimum degree for every topology in
/// this workspace (`m + 4` for HB vs `m + 2` for HD), so links tell the
/// same story as nodes one level down the physical stack.
pub fn adversarial_link_trials(
    g: &Graph,
    faults: usize,
    trials: usize,
    seed: u64,
) -> FaultTrialStats {
    targeted_trials(g, faults, trials, seed, 0x6A09_E667, |victim, cut| {
        let removed: std::collections::BTreeSet<(usize, usize)> = cut
            .iter()
            .map(|&w| (victim.min(w), victim.max(w)))
            .collect();
        // Rebuild without the cut links and check connectivity.
        let edges = g.edges().filter(|&(u, v)| !removed.contains(&(u, v)));
        let h = Graph::from_edges(g.num_nodes(), edges)
            .expect("invariant: removing edges keeps the graph simple");
        traverse::is_connected(&h)
    })
}

/// The targeted campaigns' shared loop: each trial seeds its generator
/// from `seed` and its index times `stride`, picks a random victim of
/// minimum degree and a random `faults`-subset of its neighbours (all
/// of them when `faults >= degree`), and asks `connected(victim,
/// subset)` whether the graph survives.
fn targeted_trials(
    g: &Graph,
    faults: usize,
    trials: usize,
    seed: u64,
    stride: u64,
    connected: impl Fn(NodeId, &[NodeId]) -> bool,
) -> FaultTrialStats {
    let n = g.num_nodes();
    let min_deg = (0..n)
        .map(|v| g.degree(v))
        .min()
        .expect("invariant: topologies have at least one node");
    let victims: Vec<NodeId> = (0..n).filter(|&v| g.degree(v) == min_deg).collect();
    let connected = (0..trials)
        .filter(|&t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(stride));
            let victim = victims[rng.random_range(0..victims.len())];
            let mut nbrs: Vec<NodeId> = g.neighbors(victim).iter().map(|&w| w as usize).collect();
            for i in (1..nbrs.len()).rev() {
                let j = rng.random_range(0..=i);
                nbrs.swap(i, j);
            }
            nbrs.truncate(faults.min(nbrs.len()));
            connected(victim, &nbrs)
        })
        .count();
    FaultTrialStats {
        faults,
        trials,
        connected,
        pair_reachability: connected as f64 / trials.max(1) as f64,
    }
}

/// Survivor-graph fragility: after `faults` random faults, how many
/// **articulation points** (single points of failure) does the survivor
/// graph have, on average over `trials`? A fault-tolerant fabric should
/// stay at 0 well past the first faults; rising counts mean the next
/// single fault can already partition the machine.
pub fn survivor_fragility(g: &Graph, faults: usize, trials: usize, seed: u64) -> f64 {
    let n = g.num_nodes();
    assert!(faults < n);
    let total: usize = (0..trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0xA24B_AED4));
            let keep = place_random_faults(n, faults, &mut rng);
            let (sub, _) = g.induced_subgraph(&keep);
            hb_graphs::structure::articulation_points(&sub).len()
        })
        .sum();
    total as f64 / trials.max(1) as f64
}

/// Marks `faults` distinct random nodes of `0..n` faulty, drawing until
/// that many are distinct: `keep[v]` is false exactly for them.
fn place_random_faults(n: usize, faults: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut keep = vec![true; n];
    let mut placed = 0;
    while placed < faults {
        let f = rng.random_range(0..n);
        if keep[f] {
            keep[f] = false;
            placed += 1;
        }
    }
    keep
}

/// Exhaustively verifies that **no** fault set of the given size
/// disconnects `g` — feasible for `faults <= 2` on moderate graphs, and
/// the direct computational witness of "maximally fault tolerant" at
/// those sizes. Returns the number of fault sets tried.
pub fn exhaustive_fault_check(g: &Graph, faults: usize) -> Option<u64> {
    let n = g.num_nodes();
    match faults {
        1 => {
            let ok = (0..n).all(|f| traverse::is_connected_avoiding(g, &[f]));
            ok.then_some(n as u64)
        }
        2 => {
            let ok = (0..n)
                .all(|f1| (f1 + 1..n).all(|f2| traverse::is_connected_avoiding(g, &[f1, f2])));
            ok.then_some((n * (n - 1) / 2) as u64)
        }
        _ => None,
    }
}

/// Finds a *minimum-size disconnecting fault set witness*: the
/// neighborhood of a minimum-degree node always works once
/// `faults >= kappa`, demonstrating the tightness of Corollary 1.
pub fn tight_disconnection_witness(g: &Graph) -> Vec<NodeId> {
    let v = (0..g.num_nodes())
        .min_by_key(|&v| g.degree(v))
        .expect("invariant: topologies have at least one node");
    g.neighbors(v).iter().map(|&w| w as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::HyperButterfly;
    use hb_debruijn::HyperDeBruijn;

    #[test]
    fn hb_survives_all_single_and_double_faults() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        assert!(exhaustive_fault_check(&g, 1).is_some());
        assert!(exhaustive_fault_check(&g, 2).is_some());
        assert_eq!(exhaustive_fault_check(&g, 3), None); // not supported
    }

    #[test]
    fn neighborhood_witness_disconnects() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let witness = tight_disconnection_witness(&g);
        assert_eq!(witness.len(), 5); // m + 4
        assert!(!traverse::is_connected_avoiding(&g, &witness));
    }

    #[test]
    fn random_trials_below_kappa_always_connected() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let g = hb.build_graph().unwrap();
        // kappa = 6: any 5 faults leave it connected.
        let stats = random_fault_trials(&g, 5, 40, 10, 123);
        assert_eq!(stats.connected, stats.trials);
        assert!((stats.pair_reachability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hd_disconnects_at_lower_fault_count_than_hb() {
        // HD(1, 3): kappa = 3 — the witness has m + 2 = 3 nodes, fewer
        // than HB(1, 3)'s m + 4 = 5 at the same (m, n).
        let hd = HyperDeBruijn::new(1, 3).unwrap();
        let g = hd.build_graph().unwrap();
        let witness = tight_disconnection_witness(&g);
        assert_eq!(witness.len(), 3);
        assert!(!traverse::is_connected_avoiding(&g, &witness));
    }

    #[test]
    fn adversarial_trials_show_the_threshold() {
        // HB(1, 3): degree 5 everywhere. Below 5 targeted faults the
        // graph must stay connected; at 5 the victim is isolated.
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let below = adversarial_fault_trials(&g, 4, 20, 3);
        assert_eq!(below.connected, below.trials);
        let at = adversarial_fault_trials(&g, 5, 20, 3);
        assert_eq!(at.connected, 0);

        // HD(1, 3): threshold at the min degree m + 2 = 3.
        let hd = HyperDeBruijn::new(1, 3).unwrap();
        let g = hd.build_graph().unwrap();
        let below = adversarial_fault_trials(&g, 2, 20, 3);
        assert_eq!(below.connected, below.trials);
        let at = adversarial_fault_trials(&g, 3, 20, 3);
        assert_eq!(at.connected, 0);
    }

    #[test]
    fn adversarial_link_threshold_is_min_degree() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let below = adversarial_link_trials(&g, 4, 15, 5);
        assert_eq!(below.connected, below.trials);
        let at = adversarial_link_trials(&g, 5, 15, 5);
        assert_eq!(at.connected, 0);
    }

    #[test]
    fn fragility_is_zero_below_connectivity_margin() {
        // HB(2, 3) has kappa = 6: after 1 fault the survivor is still
        // 5-connected — no articulation points possible.
        let hb = HyperButterfly::new(2, 3).unwrap();
        let g = hb.build_graph().unwrap();
        assert_eq!(survivor_fragility(&g, 1, 10, 3), 0.0);
        // A cycle, by contrast, becomes a path after 1 fault: all
        // interior survivors are articulation points.
        let c = hb_graphs::generators::cycle(10).unwrap();
        assert_eq!(survivor_fragility(&c, 1, 5, 3), 7.0);
    }

    #[test]
    fn fault_plan_classifies_links_and_nodes() {
        let mut p = FaultPlan::new();
        p.add_node(3).add_link(7, 2);
        assert!(!p.is_empty());
        assert!(p.is_node_faulty(3));
        assert!(!p.is_node_faulty(2));
        // Link faulty by explicit cut (either direction) …
        assert!(p.is_link_faulty(2, 7));
        assert!(p.is_link_faulty(7, 2));
        // … or by a down endpoint.
        assert!(p.is_link_faulty(3, 9));
        assert!(!p.is_link_faulty(4, 5));
        assert_eq!(p.link_fault_id(4, 5), None);
        assert_eq!(
            p.link_fault_id(2, 7).unwrap().to_string(),
            "link 2-7 faulty"
        );
        assert_eq!(p.link_fault_id(9, 3).unwrap().to_string(), "node 3 faulty");
    }

    #[test]
    fn fault_reason_ids_render_the_historical_strings() {
        let mut p = FaultPlan::new();
        p.add_node(3).add_link(7, 2);
        // Normalized link, regardless of argument order.
        assert_eq!(p.link_fault_id(7, 2), Some(FaultReason::Link(2, 7)));
        assert_eq!(p.link_fault_id(2, 7), Some(FaultReason::Link(2, 7)));
        // Head-node fault wins over tail-node fault.
        p.add_node(9);
        assert_eq!(p.link_fault_id(3, 9), Some(FaultReason::Node(9)));
        assert_eq!(p.link_fault_id(9, 3), Some(FaultReason::Node(3)));
        assert_eq!(p.link_fault_id(4, 5), None);
        assert_eq!(FaultReason::Node(3).to_string(), "node 3 faulty");
        assert_eq!(FaultReason::Link(2, 7).to_string(), "link 2-7 faulty");
    }

    #[test]
    fn event_attributed_reasons_render_and_stay_two_words() {
        // The interned form must keep `Detour` (an
        // `Option<(u32, FaultReason)>`) within two machine words — the
        // route arena stores one per slot.
        assert!(std::mem::size_of::<FaultReason>() <= 12);
        assert_eq!(
            FaultReason::NodeAt(3, 7).to_string(),
            "node 3 faulty (event 7)"
        );
        assert_eq!(
            FaultReason::LinkAt(2, 7, 0).to_string(),
            "link 2-7 faulty (event 0)"
        );
        assert_eq!(FaultReason::Node(3).event(), None);
        assert_eq!(FaultReason::Link(2, 7).event(), None);
        assert_eq!(FaultReason::NodeAt(3, 7).event(), Some(7));
        assert_eq!(FaultReason::LinkAt(2, 7, 4).event(), Some(4));
    }

    #[test]
    fn attributed_plan_faults_carry_their_event() {
        let mut p = FaultPlan::new();
        p.add_node_at(3, 1).add_link_at(7, 2, 2);
        assert_eq!(p.link_fault_id(2, 7), Some(FaultReason::LinkAt(2, 7, 2)));
        assert_eq!(p.link_fault_id(9, 3), Some(FaultReason::NodeAt(3, 1)));
        assert_eq!(
            p.link_fault_id(9, 3).unwrap().to_string(),
            "node 3 faulty (event 1)"
        );
        // Attribution participates in plan equality: an event-injected
        // fault is not interchangeable with a static one.
        let statically = FaultPlan::from_sets([3], [(2, 7)]);
        assert_ne!(p, statically);
        // Re-faulting an already-static fault re-attributes it.
        let mut s = FaultPlan::from_sets([3], []);
        assert_eq!(s.link_fault_id(9, 3), Some(FaultReason::Node(3)));
        s.add_node_at(3, 5);
        assert_eq!(s.link_fault_id(9, 3), Some(FaultReason::NodeAt(3, 5)));
    }

    #[test]
    fn repairs_restore_equality_with_the_empty_plan() {
        let mut p = FaultPlan::new();
        p.add_node_at(3, 0).add_link_at(1, 0, 1).add_node(9);
        assert!(!p.is_empty());
        p.remove_node(3).remove_link(0, 1).remove_node(9);
        assert!(p.is_empty());
        assert_eq!(p, FaultPlan::new());
        // Repairing something healthy is a no-op.
        p.remove_node(42).remove_link(4, 5);
        assert_eq!(p, FaultPlan::new());
    }

    #[test]
    fn timeline_parse_accepts_the_documented_grammar() {
        let tl = FaultTimeline::parse(
            "# warm-up\n\
             @12 fault node 5   # mid-run outage\n\
             @12 fault link 3-0\n\
             \n\
             @40 repair node 5\n",
        )
        .unwrap();
        assert_eq!(tl.len(), 3);
        assert_eq!(
            tl.events()[0],
            FaultEvent {
                cycle: 12,
                kind: FaultEventKind::Fault,
                target: FaultTarget::Node(5),
            }
        );
        // Links normalize on push, exactly like `FaultPlan::add_link`.
        assert_eq!(tl.events()[1].target, FaultTarget::Link(0, 3));
        assert_eq!(tl.events()[2].kind, FaultEventKind::Repair);
        assert!(!tl.is_empty());
        assert!(FaultTimeline::new().is_empty());
    }

    #[test]
    fn timeline_rejects_malformed_lines_and_disorder() {
        for bad in [
            "fault node 5",        // missing @cycle
            "@3 break node 5",     // unknown verb
            "@3 fault node x",     // bad id
            "@3 fault link 5",     // not U-V
            "@3 fault node 5 now", // trailing token
        ] {
            assert!(FaultTimeline::parse(bad).is_err(), "accepted: {bad}");
        }
        let err = FaultTimeline::parse("@9 fault node 1\n@3 repair node 1").unwrap_err();
        assert!(err.contains("nondecreasing"), "got: {err}");
        let mut tl = FaultTimeline::new();
        tl.push(4, FaultEventKind::Fault, FaultTarget::Node(0));
        assert!(tl
            .try_push(3, FaultEventKind::Repair, FaultTarget::Node(0))
            .is_err());
    }

    #[test]
    fn hot_nodes_cover_fault_neighborhoods() {
        use crate::topology::{HbRouteOrder, HyperButterflyNet, NetTopology};
        let t = HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap();
        let g = t.graph();
        let p = FaultPlan::from_sets([0], [(5, 6)]);
        let hot = p.hot_node_set(&t);
        assert!(hot.contains(&0));
        for &w in g.neighbors(0) {
            assert!(hot.contains(&(w as usize)));
        }
        assert!(hot.contains(&5) && hot.contains(&6));
        assert!(hot.len() < g.num_nodes(), "faults must stay local");
        // The graph-free adapter enumerates the same neighborhoods.
        let imp = HyperButterflyNet::implicit(1, 3, HbRouteOrder::CubeFirst).unwrap();
        assert_eq!(p.hot_node_set(&imp), hot);
    }

    #[test]
    fn trials_are_deterministic_under_seed() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let a = random_fault_trials(&g, 6, 10, 5, 7);
        let b = random_fault_trials(&g, 6, 10, 5, 7);
        assert_eq!(a, b);
    }

    /// [`random_fault_trials`] answered one BFS at a time, on the same
    /// random draws in the same order: a trial is connected iff a BFS
    /// from its first survivor reaches every survivor, and a sampled
    /// pair is reachable iff a BFS from one end reaches the other.
    fn bfs_fault_trials(
        g: &Graph,
        faults: usize,
        trials: usize,
        pair_samples: usize,
        seed: u64,
    ) -> FaultTrialStats {
        let n = g.num_nodes();
        let mut connected = 0;
        let mut ratios = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            let mut keep = vec![true; n];
            let mut placed = 0;
            while placed < faults {
                let f = rng.random_range(0..n);
                if keep[f] {
                    keep[f] = false;
                    placed += 1;
                }
            }
            let blocked: Vec<NodeId> = (0..n).filter(|&v| !keep[v]).collect();
            let survivors: Vec<NodeId> = (0..n).filter(|&v| keep[v]).collect();
            let tree = traverse::bfs_avoiding(g, survivors[0], &blocked);
            if survivors
                .iter()
                .all(|&v| tree.dist[v] != traverse::UNREACHABLE)
            {
                connected += 1;
            }
            let (mut reachable, mut sampled) = (0usize, 0usize);
            for _ in 0..pair_samples {
                let a = survivors[rng.random_range(0..survivors.len())];
                let b = survivors[rng.random_range(0..survivors.len())];
                if a == b {
                    continue;
                }
                sampled += 1;
                let tree = traverse::bfs_avoiding(g, a, &blocked);
                if tree.dist[b] != traverse::UNREACHABLE {
                    reachable += 1;
                }
            }
            ratios += if sampled == 0 {
                1.0
            } else {
                reachable as f64 / sampled as f64
            };
        }
        FaultTrialStats {
            faults,
            trials,
            connected,
            pair_reachability: ratios / trials.max(1) as f64,
        }
    }

    /// Fault counts far above κ, where survivor graphs split and sampled
    /// pairs become unreachable: every statistic, the `f64` included,
    /// equals the BFS oracle's, and each shape reaches that regime.
    #[test]
    fn trials_past_kappa_match_a_bfs_oracle() {
        let hb = HyperButterfly::new(1, 3).unwrap().build_graph().unwrap();
        let torus = hb_graphs::generators::torus(4, 4).unwrap();
        for (name, g, faults) in [
            ("HB(1, 3)", &hb, 20),
            ("HB(1, 3)", &hb, 30),
            ("torus(4, 4)", &torus, 6),
            ("torus(4, 4)", &torus, 8),
        ] {
            let mut split = false;
            for seed in [1, 7, 99, 2024] {
                let got = random_fault_trials(g, faults, 40, 16, seed);
                let want = bfs_fault_trials(g, faults, 40, 16, seed);
                assert_eq!(got, want, "{name}, {faults} faults, seed {seed}");
                split |= got.connected < got.trials && got.pair_reachability < 1.0;
            }
            assert!(split, "{name} with {faults} faults never split");
        }
    }
}
