//! Optimal point-to-point routing in `HB(m, n)` (paper §3).
//!
//! The route from `(h, b)` to `(h', b')` goes
//!
//! 1. `(h, b) -> (h', b)` by hypercube shortest routing inside the slice
//!    `(H_m, b)`, then
//! 2. `(h', b) -> (h', b')` by butterfly shortest routing inside `(h', B_n)`.
//!
//! Remark 8: the distance is the *sum* of the factor distances (true in
//! any Cartesian product), so this simple composition is optimal; the
//! factor order is immaterial for length (the butterfly-first variant is
//! exposed for the congestion ablation). Theorem 3's diameter
//! `m + floor(3n/2)` follows, with the witness pair constructed by
//! [`diameter_witness`].

use crate::graph::HyperButterfly;
use crate::node::HbNode;
use hb_butterfly::routing as brouting;
use hb_group::signed::SignedCycle;
use hb_hypercube::routing as hrouting;

/// Exact hop distance (Remark 8): `d_H(h, h') + d_B(b, b')`.
pub fn distance(hb: &HyperButterfly, u: HbNode, v: HbNode) -> u32 {
    debug_assert_eq!(u.b.n(), hb.n());
    debug_assert_eq!(v.b.n(), hb.n());
    dist(u, v)
}

/// Exact hop distance computed purely from the node coordinates — no
/// `HyperButterfly` handle, no heap allocation. The Remark-8 closed form:
/// Hamming distance on the hypercube factor plus the butterfly closed-form
/// distance ([`hb_butterfly::routing::dist`]).
#[inline]
pub fn dist(u: HbNode, v: HbNode) -> u32 {
    hrouting::dist(u.h, v.h) + brouting::dist(u.b, v.b)
}

/// Optimal route, hypercube leg first (the paper's order). Returns the
/// node sequence including both endpoints; its length is
/// `distance(u, v) + 1`. Collects [`walk`].
///
/// # Examples
/// ```
/// use hb_core::{routing, HyperButterfly};
/// let hb = HyperButterfly::new(2, 3).unwrap();
/// let (u, v) = routing::diameter_witness(&hb);
/// let path = routing::route(&hb, u, v);
/// assert_eq!(path.len() as u32, hb.diameter() + 1); // witness pair is extremal
/// ```
pub fn route(hb: &HyperButterfly, u: HbNode, v: HbNode) -> Vec<HbNode> {
    let mut path = Vec::with_capacity(distance(hb, u, v) as usize + 1);
    path.push(u);
    walk(u, v, |x| path.push(x));
    path
}

/// Optimal route, butterfly leg first. Same length as [`route`]; the two
/// orders spread traffic differently, which the netsim ablation measures.
/// Collects [`walk_butterfly_first`].
pub fn route_butterfly_first(hb: &HyperButterfly, u: HbNode, v: HbNode) -> Vec<HbNode> {
    let mut path = Vec::with_capacity(distance(hb, u, v) as usize + 1);
    path.push(u);
    walk_butterfly_first(u, v, |x| path.push(x));
    path
}

/// Visits the nodes after `u` on the cube-first optimal route to `v`, in
/// route order: the hypercube leg inside the slice `(H_m, b)`, then the
/// butterfly leg inside `(h', B_n)`. No allocation.
#[inline]
pub fn walk(u: HbNode, v: HbNode, mut visit: impl FnMut(HbNode)) {
    hrouting::walk(u.h, v.h, |h| visit(HbNode::new(h, u.b)));
    brouting::walk(u.b, v.b, |b| visit(HbNode::new(v.h, b)));
}

/// Visits the nodes after `u` on the butterfly-first optimal route to
/// `v`, in route order. No allocation.
#[inline]
pub fn walk_butterfly_first(u: HbNode, v: HbNode, mut visit: impl FnMut(HbNode)) {
    brouting::walk(u.b, v.b, |b| visit(HbNode::new(u.h, b)));
    hrouting::walk(u.h, v.h, |h| visit(HbNode::new(h, v.b)));
}

/// A pair of nodes at distance exactly `diameter()` — the witness from the
/// proof of Theorem 3: the identity node against `(11..1; b*)`, where `b*`
/// maximises butterfly distance from the identity (full complement mask,
/// antipodal rotation).
pub fn diameter_witness(hb: &HyperButterfly) -> (HbNode, HbNode) {
    let n = hb.n();
    let u = hb.identity_node();
    let far_b = SignedCycle::from_word_level(n, (1 << n) - 1, n / 2);
    let v = HbNode::new((1 << hb.m()) - 1, far_b);
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_graphs::embedding::validate_path;
    use hb_graphs::traverse;

    /// Routing must be optimal for every pair: cross-check against BFS.
    fn check_all_pairs(m: u32, n: u32) {
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        for src in 0..hb.num_nodes() {
            let tree = traverse::bfs(&g, src);
            let u = hb.node(src);
            for dst in 0..hb.num_nodes() {
                let v = hb.node(dst);
                let d = distance(&hb, u, v);
                assert_eq!(d, tree.dist[dst], "HB({m},{n}) {u} -> {v}");
                let p = route(&hb, u, v);
                assert_eq!(p.len() as u32, d + 1);
                assert_eq!(p[0], u);
                assert_eq!(*p.last().unwrap(), v);
                let pu: Vec<usize> = p.iter().map(|x| hb.index(*x)).collect();
                validate_path(&g, &pu).unwrap_or_else(|e| panic!("{u} -> {v}: {e}"));
            }
        }
    }

    #[test]
    fn routing_is_optimal_hb_1_3() {
        check_all_pairs(1, 3);
    }

    #[test]
    fn routing_is_optimal_hb_2_3() {
        check_all_pairs(2, 3);
    }

    #[test]
    fn butterfly_first_route_has_same_length_and_is_valid() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let g = hb.build_graph().unwrap();
        for src in [0usize, 11, 57, 95] {
            let u = hb.node(src);
            for dst in 0..hb.num_nodes() {
                let v = hb.node(dst);
                let p = route_butterfly_first(&hb, u, v);
                assert_eq!(p.len() as u32, distance(&hb, u, v) + 1);
                let pu: Vec<usize> = p.iter().map(|x| hb.index(*x)).collect();
                validate_path(&g, &pu).unwrap();
            }
        }
    }

    #[test]
    fn diameter_witness_achieves_diameter() {
        for (m, n) in [(1, 3), (2, 3), (3, 3), (2, 4), (3, 5), (4, 6)] {
            let hb = HyperButterfly::new(m, n).unwrap();
            let (u, v) = diameter_witness(&hb);
            assert_eq!(distance(&hb, u, v), hb.diameter(), "HB({m},{n})");
        }
    }

    #[test]
    fn no_pair_exceeds_diameter_sampled() {
        let hb = HyperButterfly::new(3, 4).unwrap();
        let u = hb.identity_node();
        // Vertex transitivity (Remark 7): distances from the identity
        // cover the full distance spectrum.
        let max = hb.nodes().map(|v| distance(&hb, u, v)).max().unwrap();
        assert_eq!(max, hb.diameter());
    }

    #[test]
    fn distance_is_a_metric_sampled() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let pick = [0usize, 5, 23, 47, 71, 95];
        for &a in &pick {
            let va = hb.node(a);
            assert_eq!(distance(&hb, va, va), 0);
            for &b in &pick {
                let vb = hb.node(b);
                assert_eq!(distance(&hb, va, vb), distance(&hb, vb, va), "symmetry");
                for &c in &pick {
                    let vc = hb.node(c);
                    assert!(
                        distance(&hb, va, vc) <= distance(&hb, va, vb) + distance(&hb, vb, vc),
                        "triangle inequality"
                    );
                }
            }
        }
    }
}
