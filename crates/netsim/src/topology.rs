//! Topology adapters: a uniform interface over the four networks so the
//! simulator, workloads, and fault experiments are topology-agnostic.
//!
//! Every adapter owns whatever routing state its algorithmic router
//! needs, and all but the graph-free [`HyperButterflyNet::implicit`] own
//! their materialised CSR graph.
//!
//! Both routing questions are answered into caller buffers, so the hot
//! paths never allocate:
//!
//! * [`NetTopology::route_into`] appends the full node path (source
//!   routing — the packet carries its path), which is how the paper's
//!   oblivious routers operate. The hypercube, butterfly and
//!   hyper-butterfly adapters push node ids straight from their family's
//!   allocation-free walk (`hb_hypercube::routing::walk`,
//!   `hb_butterfly::routing::walk`, `hb_core::routing::walk` and
//!   `walk_butterfly_first`), so all-pairs callers such as the
//!   forwarding index reuse one cleared `Vec` for every pair.
//!   [`NetTopology::route`] is the one-`Vec` convenience wrapper.
//! * [`NetTopology::productive_hops_into`] writes the productive
//!   neighbor set for adaptive routing (a stack array of
//!   [`MAX_PRODUCTIVE`] suffices — degree is at most `m + 4` and
//!   `m <= 26`), and each adapter answers it with the closed-form
//!   distance kernels (`dist`) instead of materialising routes.

use hb_butterfly::{routing as brouting, Butterfly};
use hb_core::{routing as hbrouting, HbNode, HyperButterfly};
use hb_debruijn::HyperDeBruijn;
use hb_graphs::{Graph, NodeId, Result};
use hb_hypercube::{routing as hrouting, Hypercube};

/// Upper bound on the number of productive hops any adapter reports:
/// the maximum degree across the families (`m + 4` for `HB`, `m <= 26`),
/// rounded up. A `[NodeId; MAX_PRODUCTIVE]` stack buffer is always big
/// enough for [`NetTopology::productive_hops_into`].
pub const MAX_PRODUCTIVE: usize = 32;

/// A network topology as seen by the simulator.
pub trait NetTopology: Send + Sync {
    /// Display name, e.g. `HB(3, 8)`. Adapters cache this at
    /// construction — calling it is free.
    fn name(&self) -> &str;

    /// Number of nodes.
    fn num_nodes(&self) -> usize {
        self.explicit_graph()
            .expect("invariant: graph-free topologies override num_nodes")
            .num_nodes()
    }

    /// The materialised graph, if this adapter owns one. Graph-free
    /// (algebraic) topologies return `None`; the simulators then derive
    /// the channel layout from [`Self::uniform_degree`] and
    /// [`Self::neighbors_into`] instead of adjacency arrays, and keep
    /// channel state sparse. This answer alone decides the storage mode.
    fn explicit_graph(&self) -> Option<&Graph>;

    /// The materialised graph (used for channel layout and fault
    /// analysis). Callers that can run without a materialised graph
    /// should prefer [`Self::explicit_graph`] and the algebraic surface.
    fn graph(&self) -> &Graph {
        self.explicit_graph()
            .expect("invariant: graph() is only called on explicit topologies")
    }

    /// Uniform degree, if every node has exactly this many neighbors.
    /// Graph-free topologies must answer `Some`: it licenses the
    /// arithmetic channel layout `channel(u, port) = u * degree + port`
    /// (ports in ascending neighbor order), which matches the CSR layout
    /// of the materialised graph exactly. The default is `None`; the
    /// engines consult this only when [`Self::explicit_graph`] is `None`.
    fn uniform_degree(&self) -> Option<usize> {
        None
    }

    /// Writes the neighbors of `v` into `buf` in **ascending node-id
    /// order** (the same order as the materialised graph's sorted
    /// adjacency), returning how many were written. `buf` must hold at
    /// least [`MAX_PRODUCTIVE`] entries. The default reads the explicit
    /// graph; Cayley topologies override it with their generators.
    fn neighbors_into(&self, v: NodeId, buf: &mut [NodeId]) -> usize {
        let g = self
            .explicit_graph()
            .expect("invariant: graph-free topologies override neighbors_into");
        let adj = g.neighbors(v);
        for (k, &w) in adj.iter().enumerate() {
            buf[k] = w as NodeId;
        }
        adj.len()
    }

    /// Appends the topology's own shortest (or near-shortest oblivious)
    /// route to `buf`: the node sequence inclusive of both endpoints,
    /// `[src]` when `src == dst`. Prior contents are kept, so a caller
    /// that clears and reuses one buffer routes without allocating once
    /// the buffer has grown to the longest route.
    fn route_into(&self, src: NodeId, dst: NodeId, buf: &mut Vec<NodeId>);

    /// Allocating convenience wrapper over [`Self::route_into`], same
    /// route. Every adapter but [`GraphNet`] reserves room for the whole
    /// route up front, so the `Vec` is allocated once, never grown.
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.route_into(src, dst, &mut path);
        path
    }

    /// The single oblivious next hop from `cur` toward `dst`
    /// (`route(cur, dst)[1]`). Requires `cur != dst`. Adapters override
    /// this to derive the hop algebraically instead of materialising the
    /// whole path.
    fn next_hop(&self, cur: NodeId, dst: NodeId) -> NodeId {
        debug_assert_ne!(cur, dst, "next_hop requires cur != dst");
        self.route(cur, dst)[1]
    }

    /// Writes the productive next hops for minimal **adaptive** routing
    /// — neighbors of `cur` on *some* shortest path toward `dst` — into
    /// `buf`, returning how many were written. `buf` must hold at least
    /// [`MAX_PRODUCTIVE`] entries; prior contents are irrelevant. The
    /// default reports the single oblivious next hop; topologies with
    /// cheap distance functions override it with the full set.
    fn productive_hops_into(&self, cur: NodeId, dst: NodeId, buf: &mut [NodeId]) -> usize {
        if cur == dst {
            return 0;
        }
        buf[0] = self.next_hop(cur, dst);
        1
    }

    /// Allocating convenience wrapper over
    /// [`Self::productive_hops_into`], same set and order.
    fn productive_hops(&self, cur: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
        let k = self.productive_hops_into(cur, dst, &mut buf);
        buf[..k].to_vec()
    }
}

/// Hypercube `H_m` with dimension-ordered (bit-fixing) routing.
pub struct HypercubeNet {
    h: Hypercube,
    graph: Graph,
    name: String,
}

impl HypercubeNet {
    /// Builds the adapter.
    ///
    /// # Errors
    /// Propagates construction failures.
    pub fn new(m: u32) -> Result<Self> {
        let h = Hypercube::new(m)?;
        Ok(Self {
            graph: h.build_graph()?,
            name: format!("H({})", h.m()),
            h,
        })
    }
}

impl NetTopology for HypercubeNet {
    fn name(&self) -> &str {
        &self.name
    }
    fn explicit_graph(&self) -> Option<&Graph> {
        Some(&self.graph)
    }
    fn route_into(&self, src: NodeId, dst: NodeId, buf: &mut Vec<NodeId>) {
        let (s, d) = (src as u32, dst as u32);
        buf.reserve(hrouting::dist(s, d) as usize + 1);
        buf.push(src);
        hrouting::walk(s, d, |x| buf.push(x as NodeId));
    }
    fn next_hop(&self, cur: NodeId, dst: NodeId) -> NodeId {
        debug_assert_ne!(cur, dst, "next_hop requires cur != dst");
        // Ascending bit fixing corrects the lowest differing dimension
        // first — exactly `route(cur, dst)[1]`.
        cur ^ (1usize << (cur ^ dst).trailing_zeros())
    }
    fn productive_hops_into(&self, cur: NodeId, dst: NodeId, buf: &mut [NodeId]) -> usize {
        // Any differing dimension may be corrected next.
        let diff = cur ^ dst;
        let mut k = 0;
        for d in 0..self.h.m() {
            if diff >> d & 1 == 1 {
                buf[k] = cur ^ (1usize << d);
                k += 1;
            }
        }
        k
    }
}

/// Wrapped butterfly `B_n` with the optimal gap-covering-walk router.
pub struct ButterflyNet {
    b: Butterfly,
    graph: Graph,
    name: String,
}

impl ButterflyNet {
    /// Builds the adapter.
    ///
    /// # Errors
    /// Propagates construction failures.
    pub fn new(n: u32) -> Result<Self> {
        let b = Butterfly::new(n)?;
        Ok(Self {
            graph: b.build_graph()?,
            name: format!("B({})", b.n()),
            b,
        })
    }
}

impl NetTopology for ButterflyNet {
    fn name(&self) -> &str {
        &self.name
    }
    fn explicit_graph(&self) -> Option<&Graph> {
        Some(&self.graph)
    }
    fn route_into(&self, src: NodeId, dst: NodeId, buf: &mut Vec<NodeId>) {
        // A shortest route never exceeds the diameter.
        buf.reserve(self.b.diameter() as usize + 1);
        buf.push(src);
        brouting::walk(self.b.node(src), self.b.node(dst), |x| buf.push(x.index()));
    }
    fn productive_hops_into(&self, cur: NodeId, dst: NodeId, buf: &mut [NodeId]) -> usize {
        // The closed-form distance is O(n) arithmetic: test all 4
        // neighbors, in generator order (matching the graph layout).
        let u = self.b.node(cur);
        let v = self.b.node(dst);
        let d = brouting::dist(u, v);
        if d == 0 {
            return 0;
        }
        let mut k = 0;
        for w in u.neighbors() {
            if brouting::dist(w, v) < d {
                buf[k] = w.index();
                k += 1;
            }
        }
        k
    }
}

/// Which leg the hyper-butterfly router takes first — the routing-order
/// ablation of DESIGN.md (lengths are identical; congestion is not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HbRouteOrder {
    /// Hypercube leg first (the paper's presentation).
    CubeFirst,
    /// Butterfly leg first.
    ButterflyFirst,
}

/// Hyper-butterfly `HB(m, n)` with the paper's optimal two-leg router.
///
/// `HB(m, n)` is a Cayley graph (Theorem 1), so everything the simulator
/// asks of a node follows from its label: the neighbors are the images of
/// the `m + 4` generators (the `m` cube flips plus the four butterfly
/// generators), and routes and productive hops come from the closed-form
/// per-leg distance kernels (Remarks 6 and 8). The two constructors differ
/// only in whether the CSR graph is also materialised:
///
/// * [`Self::new`] builds it, for the structural analyses and the dense
///   engines (CSR channel layout, one queue per channel);
/// * [`Self::implicit`] does not. Construction is O(1) in the
///   `2^m · n · 2^n` nodes, and the engines then run on the arithmetic
///   channel layout `u * (m + 4) + port` with sparse channel state, so
///   million-node shapes cost memory proportional to the traffic actually
///   touched.
///
/// The neighbor enumeration is sorted ascending, so ports — and therefore
/// channel ids — agree exactly between the two layouts.
pub struct HyperButterflyNet {
    hb: HyperButterfly,
    order: HbRouteOrder,
    /// `None` for the graph-free adapter built by [`Self::implicit`].
    graph: Option<Graph>,
    name: String,
}

impl HyperButterflyNet {
    /// Builds the adapter with its materialised graph.
    ///
    /// # Errors
    /// Propagates construction failures.
    pub fn new(m: u32, n: u32, order: HbRouteOrder) -> Result<Self> {
        let t = Self::implicit(m, n, order)?;
        Ok(Self {
            graph: Some(t.hb.build_graph()?),
            ..t
        })
    }

    /// Builds the graph-free adapter: no adjacency arrays, so
    /// [`NetTopology::explicit_graph`] is `None` and the engines use the
    /// arithmetic channel layout over sparse channel state.
    ///
    /// # Errors
    /// Propagates core construction failures, and rejects shapes whose
    /// generators coincide at a node (degree below `m + 4` would break
    /// the arithmetic channel layout; all paper-relevant shapes with
    /// `n >= 3` have distinct generators).
    pub fn implicit(m: u32, n: u32, order: HbRouteOrder) -> Result<Self> {
        let hb = HyperButterfly::new(m, n)?;
        let t = Self {
            name: format!("HB({}, {})", hb.m(), hb.n()),
            hb,
            order,
            graph: None,
        };
        // Cayley graphs are vertex-transitive, so checking one node
        // suffices: if the m + 4 generator images are distinct at the
        // identity they are distinct everywhere.
        let degree = t.hb.degree() as usize;
        let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
        let k = t.neighbors_into(0, &mut buf);
        if k != degree || buf[..k].windows(2).any(|w| w[0] == w[1]) {
            return Err(hb_graphs::GraphError::InvalidParameter(format!(
                "HB({m}, {n}) needs {degree} distinct generator images, got {k}"
            )));
        }
        Ok(t)
    }

    /// The wrapped topology.
    pub fn topology(&self) -> &HyperButterfly {
        &self.hb
    }
}

impl NetTopology for HyperButterflyNet {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_nodes(&self) -> usize {
        self.hb.num_nodes()
    }
    fn explicit_graph(&self) -> Option<&Graph> {
        self.graph.as_ref()
    }
    fn uniform_degree(&self) -> Option<usize> {
        Some(self.hb.degree() as usize)
    }
    fn neighbors_into(&self, v: NodeId, buf: &mut [NodeId]) -> usize {
        let u = self.hb.node(v);
        let mut k = 0;
        for dim in 0..self.hb.m() {
            buf[k] = self.hb.index(HbNode::new(u.h ^ (1 << dim), u.b));
            k += 1;
        }
        for wb in u.b.neighbors() {
            buf[k] = self.hb.index(HbNode::new(u.h, wb));
            k += 1;
        }
        buf[..k].sort_unstable();
        k
    }
    fn route_into(&self, src: NodeId, dst: NodeId, buf: &mut Vec<NodeId>) {
        // Both orders are shortest, so a route never exceeds the diameter.
        buf.reserve(self.hb.diameter() as usize + 1);
        buf.push(src);
        let u = self.hb.node(src);
        let v = self.hb.node(dst);
        let push = |x: HbNode| buf.push(self.hb.index(x));
        match self.order {
            HbRouteOrder::CubeFirst => hbrouting::walk(u, v, push),
            HbRouteOrder::ButterflyFirst => hbrouting::walk_butterfly_first(u, v, push),
        }
    }
    fn productive_hops_into(&self, cur: NodeId, dst: NodeId, buf: &mut [NodeId]) -> usize {
        // Remark 8 splits the distance per factor, so productivity is
        // decided per leg: a cube neighbor is productive iff it fixes a
        // differing dimension, a butterfly neighbor iff it lowers the
        // butterfly closed-form distance. Enumeration order matches the
        // graph layout: dimensions ascending, then generator order.
        let u = self.hb.node(cur);
        let v = self.hb.node(dst);
        let mut k = 0;
        let diff = u.h ^ v.h;
        for dim in 0..self.hb.m() {
            if diff >> dim & 1 == 1 {
                buf[k] = self.hb.index(HbNode::new(u.h ^ (1 << dim), u.b));
                k += 1;
            }
        }
        let db = brouting::dist(u.b, v.b);
        if db > 0 {
            for wb in u.b.neighbors() {
                if brouting::dist(wb, v.b) < db {
                    buf[k] = self.hb.index(HbNode::new(u.h, wb));
                    k += 1;
                }
            }
        }
        k
    }
}

/// Hyper-deBruijn `HD(m, n)` with bit-fixing + shift routing.
pub struct HyperDeBruijnNet {
    hd: HyperDeBruijn,
    graph: Graph,
    name: String,
}

impl HyperDeBruijnNet {
    /// Builds the adapter.
    ///
    /// # Errors
    /// Propagates construction failures.
    pub fn new(m: u32, n: u32) -> Result<Self> {
        let hd = HyperDeBruijn::new(m, n)?;
        Ok(Self {
            graph: hd.build_graph()?,
            name: format!("HD({}, {})", hd.m(), hd.n()),
            hd,
        })
    }

    /// The wrapped topology.
    pub fn topology(&self) -> &HyperDeBruijn {
        &self.hd
    }
}

impl NetTopology for HyperDeBruijnNet {
    fn name(&self) -> &str {
        &self.name
    }
    fn explicit_graph(&self) -> Option<&Graph> {
        Some(&self.graph)
    }
    fn route_into(&self, src: NodeId, dst: NodeId, buf: &mut Vec<NodeId>) {
        // The oblivious HD route may briefly revisit a node when the
        // de Bruijn shift leg re-crosses the hypercube leg's endpoint;
        // routes are walks, which the simulator permits.
        let path = self.hd.route(self.hd.node(src), self.hd.node(dst));
        buf.extend(path.into_iter().map(|x| self.hd.index(x)));
    }
}

/// Adapter for an arbitrary [`Graph`]: BFS shortest-path routing with a
/// per-source route cache. Lets the simulator and congestion experiments
/// run on *any* graph — in particular the random-regular **null model**
/// — at the cost of table-driven rather than algebraic routing.
pub struct GraphNet {
    name: String,
    graph: Graph,
    /// `parents[s]` = BFS parent array rooted at `s`, built on demand.
    parents: Vec<std::sync::OnceLock<Vec<u32>>>,
}

impl GraphNet {
    /// Wraps a connected graph.
    pub fn new(name: impl Into<String>, graph: Graph) -> Self {
        let n = graph.num_nodes();
        Self {
            name: name.into(),
            graph,
            parents: (0..n).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }

    fn parents_from(&self, src: NodeId) -> &[u32] {
        self.parents[src].get_or_init(|| hb_graphs::traverse::bfs(&self.graph, src).parent)
    }
}

impl NetTopology for GraphNet {
    fn name(&self) -> &str {
        &self.name
    }
    fn explicit_graph(&self) -> Option<&Graph> {
        Some(&self.graph)
    }
    fn route_into(&self, src: NodeId, dst: NodeId, buf: &mut Vec<NodeId>) {
        buf.push(src);
        if src == dst {
            return;
        }
        // Shortest path via the dst-rooted BFS tree (so the path walks
        // parent pointers from src toward dst in forward order).
        let parents = self.parents_from(dst);
        let mut cur = src;
        while cur != dst {
            let p = parents[cur] as usize;
            assert_ne!(parents[cur], u32::MAX, "graph must be connected");
            buf.push(p);
            cur = p;
        }
    }
    fn next_hop(&self, cur: NodeId, dst: NodeId) -> NodeId {
        debug_assert_ne!(cur, dst, "next_hop requires cur != dst");
        // One parent-pointer read in the dst-rooted BFS tree — no path
        // materialisation.
        let p = self.parents_from(dst)[cur];
        assert_ne!(p, u32::MAX, "graph must be connected");
        p as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_routes(t: &dyn NetTopology, pairs: &[(usize, usize)]) {
        let g = t.graph();
        for &(s, d) in pairs {
            let p = t.route(s, d);
            assert_eq!(p[0], s);
            assert_eq!(*p.last().unwrap(), d);
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "{}: {s}->{d}", t.name());
            }
        }
    }

    #[test]
    fn all_adapters_produce_valid_routes() {
        let pairs = [(0usize, 1), (0, 30), (7, 22), (13, 13)];
        check_routes(&HypercubeNet::new(5).unwrap(), &pairs);
        check_routes(&ButterflyNet::new(3).unwrap(), &[(0, 1), (0, 20), (7, 19)]);
        check_routes(
            &HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap(),
            &pairs,
        );
        check_routes(
            &HyperButterflyNet::new(2, 3, HbRouteOrder::ButterflyFirst).unwrap(),
            &pairs,
        );
        check_routes(&HyperDeBruijnNet::new(2, 3).unwrap(), &pairs);
    }

    #[test]
    fn graphnet_routes_shortest_on_any_graph() {
        let g = hb_graphs::generators::random_regular(64, 5, 3).unwrap();
        let net = GraphNet::new("rr(64,5)", g);
        check_routes(&net, &[(0, 1), (0, 63), (17, 40), (5, 5)]);
        // Route length equals BFS distance.
        let d = hb_graphs::traverse::distance(net.graph(), 0, 63).unwrap();
        assert_eq!(net.route(0, 63).len() as u32, d + 1);
    }

    #[test]
    fn self_route_is_singleton() {
        let t = HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap();
        assert_eq!(t.route(5, 5), vec![5]);
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(HypercubeNet::new(3).unwrap().name(), "H(3)");
        assert_eq!(
            HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)
                .unwrap()
                .name(),
            "HB(2, 4)"
        );
        assert_eq!(
            HyperButterflyNet::implicit(2, 4, HbRouteOrder::CubeFirst)
                .unwrap()
                .name(),
            "HB(2, 4)"
        );
    }

    /// Every adapter's `next_hop` must agree with `route(cur, dst)[1]`.
    fn check_next_hop(t: &dyn NetTopology, pairs: &[(usize, usize)]) {
        for &(s, d) in pairs {
            if s == d {
                continue;
            }
            assert_eq!(t.next_hop(s, d), t.route(s, d)[1], "{}: {s}->{d}", t.name());
        }
    }

    #[test]
    fn next_hop_matches_route_second_node() {
        let pairs: Vec<(usize, usize)> = (0..32).map(|v| (v, (v * 7 + 3) % 32)).collect();
        check_next_hop(&HypercubeNet::new(5).unwrap(), &pairs);
        check_next_hop(
            &HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap(),
            &pairs,
        );
        check_next_hop(&HyperDeBruijnNet::new(2, 3).unwrap(), &pairs);
        let g = hb_graphs::generators::random_regular(64, 5, 3).unwrap();
        let net = GraphNet::new("rr(64,5)", g);
        let pairs: Vec<(usize, usize)> = (0..64).map(|v| (v, (v * 13 + 1) % 64)).collect();
        check_next_hop(&net, &pairs);
    }

    /// `productive_hops_into` must ignore prior buffer contents and
    /// report exactly the `productive_hops` set, in the same order.
    fn check_buffer_reuse(t: &dyn NetTopology, pairs: &[(usize, usize)]) {
        let mut buf = [usize::MAX; MAX_PRODUCTIVE];
        for &(s, d) in pairs {
            let expect = t.productive_hops(s, d);
            // First call on a poisoned buffer, second reusing whatever
            // the first left behind.
            let k1 = t.productive_hops_into(s, d, &mut buf);
            assert_eq!(&buf[..k1], expect.as_slice(), "{}: {s}->{d}", t.name());
            let k2 = t.productive_hops_into(s, d, &mut buf);
            assert_eq!(k1, k2);
            assert_eq!(&buf[..k2], expect.as_slice(), "{}: {s}->{d}", t.name());
        }
    }

    #[test]
    fn productive_hops_are_buffer_content_independent() {
        let nets: Vec<Box<dyn NetTopology>> = vec![
            Box::new(HypercubeNet::new(5).unwrap()),
            Box::new(ButterflyNet::new(3).unwrap()),
            Box::new(HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()),
            Box::new(HyperDeBruijnNet::new(2, 3).unwrap()),
        ];
        for t in &nets {
            let n = t.num_nodes();
            let pairs: Vec<(usize, usize)> = (0..n).map(|v| (v, (v * 11 + 5) % n)).collect();
            check_buffer_reuse(t.as_ref(), &pairs);
        }
    }

    /// Productive hops are exactly the distance-decreasing neighbors, by
    /// the BFS definition, for the algebraic adapters.
    #[test]
    fn productive_hops_equal_bfs_decreasing_neighbors() {
        let nets: Vec<Box<dyn NetTopology>> = vec![
            Box::new(HypercubeNet::new(4).unwrap()),
            Box::new(ButterflyNet::new(3).unwrap()),
            Box::new(HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()),
        ];
        for t in &nets {
            let g = t.graph();
            let n = t.num_nodes();
            for dst in [0usize, n / 3, n - 1] {
                let tree = hb_graphs::traverse::bfs(g, dst);
                for cur in 0..n {
                    let mut expect: Vec<NodeId> = g
                        .neighbors(cur)
                        .iter()
                        .map(|&w| w as usize)
                        .filter(|&w| tree.dist[w] < tree.dist[cur])
                        .collect();
                    let mut got = t.productive_hops(cur, dst);
                    expect.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, expect, "{}: {cur}->{dst}", t.name());
                }
            }
        }
    }
}
