//! Cross-checks the algebraic distance kernels against BFS ground truth
//! on `HB(m, n)`: `hb_core::routing::dist` (Hamming + butterfly closed
//! form, paper Remark 8) must equal the graph distance for **every**
//! node pair of the small instances, and for property-sampled sources on
//! the larger ones.
//!
//! The second half cross-checks [`HyperButterflyNet::implicit`] — the
//! graph-free algebraic adapter — against the materialised
//! [`HyperButterflyNet::new`]:
//! neighbor lists, routes, next hops, and productive-hop sets must match
//! exactly, all-pairs on the small shapes and property-sampled up to
//! `HB(2, 4)`, including end-to-end routing under fault plans.

use hb_core::{routing as hbrouting, HyperButterfly};
use hb_graphs::traverse;
use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, NetTopology};
use hb_netsim::{workload, FaultPlan, Sim, SimConfig, MAX_PRODUCTIVE};
use proptest::prelude::*;

/// Exhaustive all-pairs check: algebraic `dist` == BFS distance.
fn check_all_pairs(m: u32, n: u32) {
    let hb = HyperButterfly::new(m, n).unwrap();
    let g = hb.build_graph().unwrap();
    for src in 0..hb.num_nodes() {
        let tree = traverse::bfs(&g, src);
        let u = hb.node(src);
        for dst in 0..hb.num_nodes() {
            let v = hb.node(dst);
            assert_eq!(
                hbrouting::dist(u, v),
                tree.dist[dst],
                "HB({m},{n}) {u} -> {v}"
            );
        }
    }
}

#[test]
fn algebraic_dist_equals_bfs_on_hb_1_3_exhaustive() {
    check_all_pairs(1, 3);
}

#[test]
fn algebraic_dist_equals_bfs_on_hb_2_3_exhaustive() {
    check_all_pairs(2, 3);
}

/// Exhaustive all-pairs check: the implicit (graph-free) topology
/// computes exactly what the materialised adapter reads out of its
/// adjacency arrays — neighbors, full routes, next hops, and the
/// productive-hop sets the adaptive router consumes.
fn check_implicit_matches_explicit(m: u32, n: u32) {
    let exp = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst).unwrap();
    let imp = HyperButterflyNet::implicit(m, n, HbRouteOrder::CubeFirst).unwrap();
    let nn = exp.num_nodes();
    assert_eq!(imp.num_nodes(), nn);
    assert_eq!(imp.uniform_degree(), exp.uniform_degree());
    assert!(imp.explicit_graph().is_none(), "implicit owns no graph");
    let g = exp.explicit_graph().unwrap();
    let mut bi = [0usize; MAX_PRODUCTIVE];
    let mut be = [0usize; MAX_PRODUCTIVE];
    for v in 0..nn {
        let k = imp.neighbors_into(v, &mut bi);
        let adj: Vec<usize> = g.neighbors(v).iter().map(|&w| w as usize).collect();
        assert_eq!(&bi[..k], &adj[..], "HB({m},{n}) neighbors of {v}");
        for dst in 0..nn {
            if dst == v {
                continue;
            }
            assert_eq!(
                imp.next_hop(v, dst),
                exp.next_hop(v, dst),
                "HB({m},{n}) next_hop {v} -> {dst}"
            );
            assert_eq!(
                imp.route(v, dst),
                exp.route(v, dst),
                "HB({m},{n}) route {v} -> {dst}"
            );
            let ki = imp.productive_hops_into(v, dst, &mut bi);
            let ke = exp.productive_hops_into(v, dst, &mut be);
            assert_eq!(
                &bi[..ki],
                &be[..ke],
                "HB({m},{n}) productive hops {v} -> {dst}"
            );
        }
    }
}

#[test]
fn implicit_topology_matches_explicit_on_hb_1_3_exhaustive() {
    check_implicit_matches_explicit(1, 3);
}

#[test]
fn implicit_topology_matches_explicit_on_hb_2_3_exhaustive() {
    check_implicit_matches_explicit(2, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For a random (m, n) instance and a random source, the algebraic
    /// distance to every destination equals the BFS distance, and the
    /// handle-free kernel agrees with the handle-taking `distance`.
    #[test]
    fn algebraic_dist_equals_bfs_from_any_source(
        shape_pick in 0usize..5,
        src_pick in 0usize..10_000,
    ) {
        const SHAPES: [(u32, u32); 5] = [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)];
        let (m, n) = SHAPES[shape_pick];
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        let src = src_pick % hb.num_nodes();
        let tree = traverse::bfs(&g, src);
        let u = hb.node(src);
        for dst in 0..hb.num_nodes() {
            let v = hb.node(dst);
            let d = hbrouting::dist(u, v);
            prop_assert_eq!(d, tree.dist[dst], "HB({},{}) {} -> {}", m, n, u, v);
            prop_assert_eq!(d, hbrouting::distance(&hb, u, v));
        }
    }

    /// For a random shape up to `HB(2, 4)` and a random source, the
    /// implicit topology's neighbor lists, next hops, routes, and
    /// productive-hop sets match the materialised adapter for every
    /// destination.
    #[test]
    fn implicit_kernels_match_explicit_from_any_source(
        shape_pick in 0usize..5,
        src_pick in 0usize..10_000,
    ) {
        const SHAPES: [(u32, u32); 5] = [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)];
        let (m, n) = SHAPES[shape_pick];
        let exp = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst).unwrap();
        let imp = HyperButterflyNet::implicit(m, n, HbRouteOrder::CubeFirst).unwrap();
        let nn = exp.num_nodes();
        let src = src_pick % nn;
        let g = exp.explicit_graph().unwrap();
        let mut bi = [0usize; MAX_PRODUCTIVE];
        let mut be = [0usize; MAX_PRODUCTIVE];
        let k = imp.neighbors_into(src, &mut bi);
        let adj: Vec<usize> = g.neighbors(src).iter().map(|&w| w as usize).collect();
        prop_assert_eq!(&bi[..k], &adj[..]);
        for dst in 0..nn {
            if dst == src {
                continue;
            }
            prop_assert_eq!(imp.next_hop(src, dst), exp.next_hop(src, dst));
            prop_assert_eq!(imp.route(src, dst), exp.route(src, dst));
            let ki = imp.productive_hops_into(src, dst, &mut bi);
            let ke = exp.productive_hops_into(src, dst, &mut be);
            prop_assert_eq!(&bi[..ki], &be[..ke]);
        }
    }

    /// Under a random fault plan, routing through the implicit topology
    /// (sparse survivor BFS over the algebraic neighbors) delivers the
    /// same packets with the same stats as the explicit adapter's
    /// graph-based survivor routing — end to end through the flight
    /// recorder.
    #[test]
    fn implicit_faulted_routing_matches_explicit(
        rate in 5u32..40, cycles in 1u64..16, seed in 0u64..200,
    ) {
        let exp = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let imp = HyperButterflyNet::implicit(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let nn = exp.num_nodes();
        let mut plan = FaultPlan::new();
        plan.add_node((seed as usize * 7 + 3) % nn);
        if seed.is_multiple_of(2) {
            let u = (seed as usize * 5) % nn;
            let nbrs = exp.graph().neighbors(u);
            plan.add_link(u, nbrs[seed as usize % nbrs.len()] as usize);
        }
        let inj = workload::uniform(nn, cycles, f64::from(rate) / 100.0, seed);
        let a = Sim::new(&exp).faults(&plan).run(&inj, SimConfig::default());
        let b = Sim::new(&imp).faults(&plan).run(&inj, SimConfig::default());
        prop_assert_eq!(&a, &b);
    }
}
