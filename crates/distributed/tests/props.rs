//! Property tests: the distributed protocols must work on *any* connected
//! graph, not just the nice topologies.

use hb_distributed::{election, gossip, spanning_tree};
use hb_graphs::{graph::Graph, shortest, traverse};
use proptest::prelude::*;

fn random_connected_graph(n: usize, extra_p: u32, seed: u64) -> Graph {
    // Random spanning tree (random parent) + extra random edges.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges = std::collections::BTreeSet::new();
    for v in 1..n {
        let p = (next() as usize) % v;
        edges.insert((p.min(v), p.max(v)));
    }
    for u in 0..n {
        for v in u + 1..n {
            if next() % 100 < extra_p as u64 {
                edges.insert((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).expect("simple by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn election_succeeds_on_random_connected_graphs(n in 2usize..40, p in 0u32..30, seed in 0u64..1000) {
        let g = random_connected_graph(n, p, seed);
        let d = shortest::diameter(&g).unwrap();
        let out = election::elect(&g, d.max(1));
        prop_assert_eq!(election::validate(&out).unwrap(), 0);
    }

    #[test]
    fn spanning_tree_succeeds_on_random_connected_graphs(n in 2usize..40, p in 0u32..30, seed in 0u64..1000) {
        let g = random_connected_graph(n, p, seed);
        let root = (seed as usize) % n;
        let out = spanning_tree::build_tree(&g, root);
        spanning_tree::validate(&g, root, &out).unwrap();
    }

    #[test]
    fn gossip_succeeds_and_is_diameter_bounded(n in 2usize..40, p in 0u32..30, seed in 0u64..1000) {
        let g = random_connected_graph(n, p, seed);
        prop_assume!(traverse::is_connected(&g));
        let out = gossip::gossip(&g);
        gossip::validate(&g, &out).unwrap();
        let d = shortest::diameter(&g).unwrap();
        prop_assert!(out.rounds <= d + 2, "{} vs diameter {}", out.rounds, d);
    }
}
