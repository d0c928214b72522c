//! Property-based verification of the graph substrate against brute
//! force on random small graphs. The substrate referees the paper's
//! claims, so it gets its own referee here.

use hb_graphs::{connectivity, embedding, graph::Graph, props, shortest, traverse};
use proptest::prelude::*;

/// Random simple graph on `n` nodes with edge probability ~`p/100`,
/// from a seed (deterministic, avoids proptest shrink explosions on
/// collection strategies).
fn random_graph(n: usize, p: u32, seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if next() % 100 < p as u64 {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).expect("simple by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bidirectional distance equals BFS distance on random graphs
    /// (including disconnected ones).
    #[test]
    fn bidirectional_distance_matches_bfs(n in 2usize..24, p in 8u32..60, seed in 0u64..1000) {
        let g = random_graph(n, p, seed);
        let tree = traverse::bfs(&g, 0);
        for v in 0..n {
            let expected = if tree.dist[v] == traverse::UNREACHABLE {
                None
            } else {
                Some(tree.dist[v])
            };
            prop_assert_eq!(traverse::distance(&g, 0, v), expected, "node {}", v);
        }
    }

    /// Girth agrees with the remove-edge method: girth = min over edges
    /// (u, v) of dist_{G-uv}(u, v) + 1.
    #[test]
    fn girth_matches_remove_edge_method(n in 3usize..14, p in 20u32..70, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        let by_girth = props::girth(&g);
        let mut best: Option<u32> = None;
        for (u, v) in g.edges() {
            // Rebuild without this edge.
            let edges: Vec<(usize, usize)> =
                g.edges().filter(|&(a, b)| (a, b) != (u, v)).collect();
            let h = Graph::from_edges(n, edges).unwrap();
            if let Some(d) = traverse::distance(&h, u, v) {
                best = Some(best.map_or(d + 1, |b| b.min(d + 1)));
            }
        }
        prop_assert_eq!(by_girth, best);
    }

    /// Flow-based max disjoint-path count equals the brute-force minimum
    /// vertex cut (Menger), for non-adjacent pairs on small graphs.
    #[test]
    fn menger_agrees_with_brute_force(n in 4usize..9, p in 25u32..75, seed in 0u64..300) {
        let g = random_graph(n, p, seed);
        let s = 0;
        let t = n - 1;
        prop_assume!(!g.has_edge(s, t));
        let flow = connectivity::max_disjoint_path_count(&g, s, t, u32::MAX);
        // Brute force: smallest subset of V \ {s, t} separating s from t.
        let others: Vec<usize> = (0..n).filter(|&v| v != s && v != t).collect();
        let mut min_cut = others.len() as u32;
        for mask in 0u32..(1 << others.len()) {
            let cut: Vec<usize> = others
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            if cut.len() as u32 >= min_cut {
                continue;
            }
            let tree = traverse::bfs_avoiding(&g, s, &cut);
            if tree.dist[t] == traverse::UNREACHABLE {
                min_cut = cut.len() as u32;
            }
        }
        prop_assert_eq!(flow, min_cut);
        // And the extracted family is valid with exactly that many paths.
        let paths = connectivity::max_disjoint_paths(&g, s, t);
        prop_assert_eq!(paths.len() as u32, flow);
        connectivity::verify_disjoint_paths(&g, s, t, &paths).unwrap();
    }

    /// Vertex connectivity from the flow algorithm equals brute force on
    /// small graphs.
    #[test]
    fn vertex_connectivity_matches_brute_force(n in 2usize..12, p in 25u32..85, seed in 0u64..300) {
        let g = random_graph(n, p, seed);
        let fast = connectivity::vertex_connectivity(&g).unwrap();
        let brute = brute_force_kappa(&g);
        prop_assert_eq!(fast, brute);
    }

    /// Edge connectivity from the flow algorithm equals brute force on
    /// small graphs.
    #[test]
    fn edge_connectivity_matches_brute_force(n in 2usize..12, p in 25u32..85, seed in 0u64..300) {
        let g = random_graph(n, p, seed);
        let fast = connectivity::edge_connectivity(&g).unwrap();
        prop_assert_eq!(fast, brute_force_lambda(&g));
    }

    /// Greedy broadcast verifies on every connected random graph.
    #[test]
    fn greedy_broadcast_always_verifies(n in 2usize..24, p in 25u32..80, seed in 0u64..500) {
        let g = random_graph(n, p, seed);
        prop_assume!(traverse::is_connected(&g));
        let s = hb_graphs::broadcast::greedy_broadcast(&g, 0);
        prop_assert!(s.verify_on_graph(&g, 0));
        prop_assert!(s.num_rounds() as u32 >= hb_graphs::broadcast::lower_bound_rounds(n));
    }

    /// Induced subgraphs keep exactly the surviving edges.
    #[test]
    fn induced_subgraph_edge_count(n in 2usize..20, p in 10u32..80, seed in 0u64..500, kill in 0usize..8) {
        let g = random_graph(n, p, seed);
        let mut keep = vec![true; n];
        let mut state = seed.wrapping_add(7) | 1;
        for _ in 0..kill.min(n - 1) {
            state ^= state << 13;
            state ^= state >> 7;
            keep[(state as usize) % n] = false;
        }
        let (h, map) = g.induced_subgraph(&keep);
        let expected = g
            .edges()
            .filter(|&(u, v)| keep[u] && keep[v])
            .count();
        prop_assert_eq!(h.num_edges(), expected);
        // Mapped adjacency matches.
        for (a, b) in h.edges() {
            prop_assert!(g.has_edge(map[a], map[b]));
        }
    }

    /// The cycle validator accepts exactly the rotations/reflections of a
    /// real cycle and rejects corrupted ones.
    #[test]
    fn cycle_validator_consistency(n in 4usize..16, rot in 0usize..16) {
        let g = hb_graphs::generators::cycle(n).unwrap();
        let mut cyc: Vec<usize> = (0..n).collect();
        cyc.rotate_left(rot % n);
        embedding::validate_cycle(&g, &cyc).unwrap();
        let mut rev = cyc.clone();
        rev.reverse();
        embedding::validate_cycle(&g, &rev).unwrap();
        // Corrupt: swap two non-adjacent entries.
        if n >= 6 {
            let mut bad = cyc.clone();
            bad.swap(0, 2);
            prop_assert!(embedding::validate_cycle(&g, &bad).is_err());
        }
    }

    /// Distance stats are internally consistent on connected graphs.
    #[test]
    fn distance_stats_consistency(n in 2usize..20, p in 30u32..90, seed in 0u64..300) {
        let g = random_graph(n, p, seed);
        prop_assume!(traverse::is_connected(&g));
        let st = shortest::distance_stats(&g).unwrap();
        prop_assert_eq!(st.diameter, shortest::diameter(&g).unwrap());
        prop_assert!(st.radius <= st.diameter);
        prop_assert!(st.diameter as f64 >= st.mean || n == 1);
        prop_assert_eq!(st.histogram.iter().sum::<u64>(), (n * (n - 1)) as u64);
    }
}

/// Brute-force vertex connectivity: exhaustive over cut bitmasks
/// (n < 12 keeps it cheap).
fn brute_force_kappa(g: &Graph) -> u32 {
    let n = g.num_nodes();
    if !traverse::is_connected(g) {
        return 0;
    }
    let mut best = n as u32 - 1;
    for mask in 0u32..(1 << n) {
        let cut: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        if cut.len() as u32 >= best || n - cut.len() < 2 {
            continue;
        }
        if !traverse::is_connected_avoiding(g, &cut) {
            best = cut.len() as u32;
        }
    }
    best
}

/// Brute-force edge connectivity: the fewest edges leaving any nonempty
/// proper vertex subset `S` (0 when the graph is disconnected).
fn brute_force_lambda(g: &Graph) -> u32 {
    let n = g.num_nodes();
    (1u32..(1 << n) - 1)
        .map(|mask| {
            let inside = |v: usize| mask >> v & 1 == 1;
            g.edges().filter(|&(u, v)| inside(u) != inside(v)).count() as u32
        })
        .min()
        .expect("n >= 2 leaves a proper subset")
}
