//! Scale smoke tests — `#[ignore]`d by default (minutes of work in debug
//! builds); run with `cargo test --release -- --ignored`.

use hb_core::{routing, HyperButterfly};
use hb_graphs::shortest;

/// HB(4, 10): 163 840 nodes, 655 360 edges — build, measure the diameter
/// with one BFS, and spot-check routing optimality.
#[test]
#[ignore = "large instance; run with --release -- --ignored"]
fn hb_4_10_builds_and_measures() {
    let hb = HyperButterfly::new(4, 10).unwrap();
    assert_eq!(hb.num_nodes(), 163_840);
    let g = hb.build_graph().unwrap();
    assert_eq!(g.num_edges(), 8 * 163_840 / 2);
    assert_eq!(
        shortest::diameter_vertex_transitive(&g).unwrap(),
        hb.diameter()
    );
    let tree = hb_graphs::traverse::bfs(&g, 0);
    let u = hb.identity_node();
    for idx in (0..hb.num_nodes()).step_by(9973) {
        assert_eq!(routing::distance(&hb, u, hb.node(idx)), tree.dist[idx]);
    }
}

/// The Figure-2 flagship at full APSP scale: the distance distribution of
/// HB(3, 8), 16,384 sources in 256 batches of the 64-source BFS.
#[test]
#[ignore = "full APSP at 16384 nodes; run with --release -- --ignored"]
fn hb_3_8_full_distance_stats() {
    let hb = HyperButterfly::new(3, 8).unwrap();
    let g = hb.build_graph().unwrap();
    let stats = shortest::distance_stats(&g).unwrap();
    let n = g.num_nodes() as u64;
    assert_eq!(stats.histogram.iter().sum::<u64>(), n * (n - 1));
    assert_eq!(stats.diameter, hb.diameter());
    assert_eq!(stats.diameter, 15);
    assert!(stats.mean > 7.0 && stats.mean < 12.0, "{}", stats.mean);
}
