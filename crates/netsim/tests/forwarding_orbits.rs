//! The forwarding index routes `HB(m, n)` from one source per
//! translation orbit. These tests hold that path to its contract: the
//! report equals the all-pairs loop's to the bit, and the translations
//! it rests on preserve adjacency and commute with both route orders.
//!
//! The larger shapes run in release builds only:
//!
//! ```text
//! cargo test --release -p hb-netsim --test forwarding_orbits -- --ignored
//! ```

use hb_core::{HbNode, HyperButterfly};
use hb_graphs::{Graph, NodeId};
use hb_netsim::forwarding::edge_forwarding_index;
use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, NetTopology, MAX_PRODUCTIVE};
use proptest::prelude::*;

/// `HB(m, n)` without its translations, so the forwarding index routes
/// every ordered pair: the reference the orbit path must reproduce.
struct AllPairs<'a>(&'a HyperButterflyNet);

impl NetTopology for AllPairs<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn explicit_graph(&self) -> Option<&Graph> {
        self.0.explicit_graph()
    }
    fn uniform_degree(&self) -> Option<usize> {
        self.0.uniform_degree()
    }
    fn neighbors_into(&self, v: NodeId, buf: &mut [NodeId]) -> usize {
        self.0.neighbors_into(v, buf)
    }
    fn route_into(&self, src: NodeId, dst: NodeId, buf: &mut Vec<NodeId>) {
        self.0.route_into(src, dst, buf);
    }
}

const ORDERS: [HbRouteOrder; 2] = [HbRouteOrder::CubeFirst, HbRouteOrder::ButterflyFirst];

/// The orbit path's report on the explicit and the implicit adapter,
/// against the all-pairs loop on the explicit one.
fn check_shape(m: u32, n: u32, order: HbRouteOrder) {
    let explicit = HyperButterflyNet::new(m, n, order).unwrap();
    let implicit = HyperButterflyNet::implicit(m, n, order).unwrap();
    let want = edge_forwarding_index(&AllPairs(&explicit));
    assert_eq!(
        edge_forwarding_index(&explicit),
        want,
        "HB({m}, {n}) {order:?} explicit"
    );
    assert_eq!(
        edge_forwarding_index(&implicit),
        want,
        "HB({m}, {n}) {order:?} implicit"
    );
}

#[test]
fn orbit_path_equals_all_pairs_on_small_shapes() {
    for (m, n) in [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5)] {
        for order in ORDERS {
            check_shape(m, n, order);
        }
    }
}

#[test]
#[ignore = "all-pairs reference on up to 2,560 nodes; run in release"]
fn orbit_path_equals_all_pairs_on_large_shapes() {
    for (m, n) in [(3, 4), (2, 5), (1, 6), (4, 4), (2, 6), (4, 5)] {
        for order in ORDERS {
            check_shape(m, n, order);
        }
    }
}

/// `τ_{c,a}`: `c` XORed into the cube label and `a` into the butterfly
/// label's complement mask, which is the low `n` bits of its dense index.
fn translate(hb: &HyperButterfly, x: NodeId, c: u32, a: u32) -> NodeId {
    let v = hb.node(x);
    let b = hb.butterfly().node(v.b.index() ^ a as usize);
    assert_eq!(b.permutation_index(), v.b.permutation_index());
    assert_eq!(b.symbol_mask(), v.b.symbol_mask() ^ a);
    hb.index(HbNode::new(v.h ^ c, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On implicit `HB(m, n)` up to `n = 12`, for a random pair and a
    /// random translation `τ`: `τ` maps neighbors onto neighbors, both
    /// orders route `(τu, τv)` along `τ` of the route of `(u, v)`, and
    /// `translate_home` moves the pair by the translation that clears
    /// `u`'s cube label and complement mask.
    #[test]
    fn translations_preserve_adjacency_and_commute_with_routes(
        m in 1u32..5,
        n in 3u32..13,
        draws in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        for order in ORDERS {
            let net = HyperButterflyNet::implicit(m, n, order).unwrap();
            let hb = net.topology();
            let nodes = hb.num_nodes() as u64;
            let (u, v) = ((draws.0 % nodes) as NodeId, (draws.1 % nodes) as NodeId);
            let (c, a) = ((draws.2 % (1 << m)) as u32, (draws.3 % (1 << n)) as u32);
            let tau = |x| translate(hb, x, c, a);

            let (mut nu, mut ntu) = ([0; MAX_PRODUCTIVE], [0; MAX_PRODUCTIVE]);
            let k = net.neighbors_into(u, &mut nu);
            prop_assert_eq!(net.neighbors_into(tau(u), &mut ntu), k);
            let mut moved: Vec<NodeId> = nu[..k].iter().map(|&w| tau(w)).collect();
            moved.sort_unstable();
            prop_assert_eq!(&moved[..], &ntu[..k]);

            let (mut route, mut image) = (Vec::new(), Vec::new());
            net.route_into(u, v, &mut route);
            net.route_into(tau(u), tau(v), &mut image);
            let moved: Vec<NodeId> = route.iter().map(|&x| tau(x)).collect();
            prop_assert_eq!(image, moved, "HB({}, {}) {:?}: {} -> {}", m, n, order, u, v);

            let label = hb.node(u);
            let (ch, ca) = (label.h, label.b.symbol_mask());
            let want = (translate(hb, u, ch, ca), translate(hb, v, ch, ca));
            prop_assert_eq!(net.translate_home(u, v), Some(want));
            let rep = hb.node(want.0);
            prop_assert_eq!((rep.h, rep.b.symbol_mask()), (0, 0));
            prop_assert_eq!(rep.b.permutation_index(), label.b.permutation_index());
        }
    }
}
