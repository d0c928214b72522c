//! Integration tests: every numbered claim of the paper, verified
//! end-to-end across crates on a spread of instances.

use hb_core::disjoint::DisjointEngine;
use hb_core::{embed, routing, HyperButterfly};
use hb_graphs::{connectivity, embedding, props, shortest, traverse};
use hb_group::cayley;

const INSTANCES: &[(u32, u32)] = &[(1, 3), (2, 3), (3, 3), (2, 4), (1, 5)];

/// The instances whose connectivity is max-flow certified: every entry of
/// [`INSTANCES`] plus the 512-node `HB(3, 4)` the benchmark's `structure`
/// workload measures.
fn certified() -> impl Iterator<Item = (u32, u32)> {
    INSTANCES.iter().copied().chain([(3, 4)])
}

/// Theorem 1 + Remark 3: `HB(m, n)` is a Cayley graph of degree `m + 4`
/// over an inverse-closed, fixed-point-free generator set.
#[test]
fn theorem_1_cayley_structure() {
    for &(m, n) in INSTANCES {
        let hb = HyperButterfly::new(m, n).unwrap();
        cayley::verify_cayley(&hb).unwrap_or_else(|e| panic!("HB({m},{n}): {e}"));
    }
}

/// Remark 7: `HB(m, n)` is vertex transitive — left translations are
/// adjacency-preserving bijections (sampled), so distances from the
/// identity describe every node.
#[test]
fn remark_7_vertex_transitivity() {
    for &(m, n) in &[(1u32, 3u32), (2, 3)] {
        let hb = HyperButterfly::new(m, n).unwrap();
        cayley::verify_vertex_transitive_sample(&hb, 4)
            .unwrap_or_else(|e| panic!("HB({m},{n}): {e}"));
    }
    // The butterfly factor alone, too (nonabelian — the interesting case).
    let b = hb_butterfly::Butterfly::new(3).unwrap();
    cayley::verify_vertex_transitive_sample(&b, 6).unwrap();
}

/// Theorem 2: regular of degree `m + 4`, `n * 2^(m+n)` nodes,
/// `(m+4) n 2^(m+n-1)` edges.
#[test]
fn theorem_2_counts_and_regularity() {
    for &(m, n) in INSTANCES {
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        assert_eq!(g.num_nodes(), (n as usize) << (m + n), "HB({m},{n}) nodes");
        assert_eq!(
            g.num_edges(),
            (m as usize + 4) * ((n as usize) << (m + n)) / 2,
            "HB({m},{n}) edges"
        );
        assert_eq!(
            props::regular_degree(&g),
            Some(m as usize + 4),
            "HB({m},{n}) degree"
        );
    }
}

/// Theorem 3: diameter `m + n + floor(n/2)`, measured by BFS (single
/// source suffices by vertex transitivity; checked against the full APSP
/// on one instance).
#[test]
fn theorem_3_diameter() {
    for &(m, n) in INSTANCES {
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        assert_eq!(
            shortest::diameter_vertex_transitive(&g).unwrap(),
            m + n + n / 2,
            "HB({m},{n})"
        );
    }
    let g = HyperButterfly::new(2, 3).unwrap().build_graph().unwrap();
    assert_eq!(shortest::diameter(&g).unwrap(), 2 + 3 + 1);
}

/// §3: the compositional router is optimal (equals BFS) — full check on
/// one instance, sampled on the rest.
#[test]
fn section_3_routing_optimality() {
    for &(m, n) in INSTANCES {
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        let tree = traverse::bfs(&g, 0);
        let u = hb.node(0);
        for idx in 0..hb.num_nodes() {
            let v = hb.node(idx);
            assert_eq!(
                routing::distance(&hb, u, v),
                tree.dist[idx],
                "HB({m},{n}) identity -> {v}"
            );
        }
    }
}

/// Theorem 5: `m + 4` internally vertex-disjoint paths exist and
/// validate; Corollary 1: the vertex connectivity equals `m + 4` exactly
/// (max-flow certified).
#[test]
fn theorem_5_and_corollary_1() {
    for (m, n) in certified() {
        let hb = HyperButterfly::new(m, n).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        // Family construction validates internally for sampled pairs.
        for t in (1..hb.num_nodes()).step_by(11) {
            let fam = eng.paths(hb.node(0), hb.node(t)).unwrap();
            assert_eq!(fam.len(), (m + 4) as usize, "HB({m},{n}) -> {t}");
        }
        // Exact connectivity.
        let g = hb.build_graph().unwrap();
        assert_eq!(
            connectivity::vertex_connectivity(&g).unwrap(),
            m + 4,
            "HB({m},{n}) kappa"
        );
    }
}

/// Edge-connectivity counterpart of Corollary 1: `lambda(HB) = m + 4`
/// (flow-certified) versus `lambda(HD) = m + 2`.
#[test]
fn corollary_1_edge_connectivity() {
    for (m, n) in certified() {
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        assert_eq!(
            connectivity::edge_connectivity(&g).unwrap(),
            m + 4,
            "HB({m},{n})"
        );
    }
    for &(m, n) in &[(1u32, 3u32), (2, 3)] {
        let hd = hb_debruijn::HyperDeBruijn::new(m, n).unwrap();
        let g = hd.build_graph().unwrap();
        assert_eq!(
            connectivity::edge_connectivity(&g).unwrap(),
            m + 2,
            "HD({m},{n})"
        );
    }
}

/// Lemma 1: a wrap-around mesh `M(n1, n2)` contains every even cycle
/// length `4 <= k <= n1 * n2` (and, being bipartite for even dims, no
/// odd ones) — verified by bounded-exact search on `M(4, 4)`.
#[test]
fn lemma_1_mesh_even_cycles() {
    let torus = hb_graphs::generators::torus(4, 4).unwrap();
    let (present, absent, exhausted) = hb_graphs::cycles::cycle_spectrum(&torus, 16, 50_000_000);
    assert!(exhausted.is_empty(), "raise the search budget");
    assert_eq!(present, vec![4, 6, 8, 10, 12, 14, 16]);
    assert_eq!(absent, vec![3, 5, 7, 9, 11, 13, 15]);
}

/// Lemma 2: even cycles of every admissible length (exhaustive on one
/// instance, extremes on the rest).
#[test]
fn lemma_2_even_cycles() {
    let hb = HyperButterfly::new(1, 3).unwrap();
    let g = hb.build_graph().unwrap();
    for k in (4..=hb.num_nodes()).step_by(2) {
        let cyc = embed::even_cycle(&hb, k).unwrap();
        embedding::validate_cycle(&g, &cyc).unwrap_or_else(|e| panic!("k = {k}: {e}"));
    }
    for &(m, n) in &[(2u32, 3u32), (2, 4)] {
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        for k in [4, hb.num_nodes() / 2, hb.num_nodes()] {
            let k = if k % 2 == 0 { k } else { k - 1 };
            let cyc = embed::even_cycle(&hb, k).unwrap();
            embedding::validate_cycle(&g, &cyc)
                .unwrap_or_else(|e| panic!("HB({m},{n}) k = {k}: {e}"));
        }
    }
}

/// Theorem 4 (+ Lemmas 3–4): binary trees and meshes of trees embed.
#[test]
fn theorem_4_trees_and_mesh_of_trees() {
    for &(m, n) in &[(2u32, 3u32), (2, 4), (4, 3)] {
        let hb = HyperButterfly::new(m, n).unwrap();
        let host = hb.build_graph().unwrap();
        let (parent, map) = embed::binary_tree(&hb);
        embedding::validate_tree_embedding(&host, &parent, &map)
            .unwrap_or_else(|e| panic!("HB({m},{n}) tree: {e}"));
        for p in 1..=m / 2 {
            for q in 1..=n.min(2) {
                let map = embed::mesh_of_trees(&hb, p, q).unwrap();
                let guest = hb_graphs::generators::mesh_of_trees(1 << p, 1 << q).unwrap();
                embedding::Embedding { map }
                    .validate(&guest, &host)
                    .unwrap_or_else(|e| panic!("HB({m},{n}) MT({p},{q}): {e}"));
            }
        }
    }
}

/// Remark 5: slice decomposition into hypercubes and butterflies.
#[test]
fn remark_5_decomposition() {
    for &(m, n) in &[(1u32, 3u32), (2, 3)] {
        let hb = HyperButterfly::new(m, n).unwrap();
        assert!(hb_core::decompose::verify_decomposition(&hb), "HB({m},{n})");
    }
}

/// Conclusion: broadcast verifies and stays within 2x of the single-port
/// lower bound.
#[test]
fn conclusion_broadcast() {
    for &(m, n) in INSTANCES {
        let hb = HyperButterfly::new(m, n).unwrap();
        let g = hb.build_graph().unwrap();
        let s = hb_core::broadcast::broadcast_schedule(&hb, hb.identity_node());
        assert!(s.verify_on_graph(&g, 0), "HB({m},{n})");
        let lb = hb_core::broadcast::lower_bound_rounds(&hb);
        assert!(
            s.num_rounds() as u32 <= 2 * lb,
            "HB({m},{n}): {} > 2*{lb}",
            s.num_rounds()
        );
    }
}
