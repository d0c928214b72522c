//! All-pairs shortest-path utilities: eccentricities, diameter, average
//! distance, and distance histograms.
//!
//! Everything here is BFS-based (all topologies are unweighted) and runs
//! one BFS per source on the calling thread. Regenerating the paper's
//! comparison tables means computing diameters of graphs with up to
//! `16384` nodes, and verifying routing optimality means sweeping many
//! sources.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};
use crate::traverse::{bfs, UNREACHABLE};

/// Eccentricity of one node: its greatest BFS distance to any node.
///
/// # Errors
/// [`GraphError::Disconnected`] if some node is unreachable from `v`.
pub fn eccentricity(g: &Graph, v: NodeId) -> Result<u32> {
    let tree = bfs(g, v);
    let mut ecc = 0;
    for &d in &tree.dist {
        if d == UNREACHABLE {
            return Err(GraphError::Disconnected);
        }
        ecc = ecc.max(d);
    }
    Ok(ecc)
}

/// Exact diameter by BFS from every node.
///
/// # Errors
/// [`GraphError::Disconnected`] for disconnected input.
pub fn diameter(g: &Graph) -> Result<u32> {
    let mut diam = 0;
    for v in g.nodes() {
        diam = diam.max(eccentricity(g, v)?);
    }
    Ok(diam)
}

/// Diameter of a vertex-transitive graph: every node has the same
/// eccentricity, so one BFS suffices. The caller asserts transitivity
/// (all our Cayley-graph topologies qualify); the claim is spot-checked in
/// tests by comparing with [`diameter`].
pub fn diameter_vertex_transitive(g: &Graph) -> Result<u32> {
    if g.num_nodes() == 0 {
        return Ok(0);
    }
    eccentricity(g, 0)
}

/// Summary of the full distance distribution of a connected graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceStats {
    /// Exact diameter.
    pub diameter: u32,
    /// Exact radius (minimum eccentricity).
    pub radius: u32,
    /// Mean distance over ordered pairs of distinct nodes.
    pub mean: f64,
    /// `histogram[d]` counts ordered pairs of distinct nodes at distance `d`.
    pub histogram: Vec<u64>,
}

/// Computes the full distance distribution by BFS from all sources.
///
/// # Errors
/// [`GraphError::Disconnected`] for disconnected input.
pub fn distance_stats(g: &Graph) -> Result<DistanceStats> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(GraphError::InvalidParameter("empty graph".into()));
    }
    let (mut ecc_max, mut ecc_min) = (0u32, u32::MAX);
    let mut hist: Vec<u64> = Vec::new();
    for v in 0..n {
        let tree = bfs(g, v);
        let mut ecc = 0u32;
        for &d in &tree.dist {
            if d == UNREACHABLE {
                return Err(GraphError::Disconnected);
            }
            ecc = ecc.max(d);
            if hist.len() <= d as usize {
                hist.resize(d as usize + 1, 0);
            }
            hist[d as usize] += 1;
        }
        ecc_max = ecc_max.max(ecc);
        ecc_min = ecc_min.min(ecc);
    }
    hist[0] = 0; // drop the n self-pairs
    let pairs: u64 = hist.iter().sum();
    let weighted: u64 = hist.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
    Ok(DistanceStats {
        diameter: ecc_max,
        radius: ecc_min,
        mean: if pairs == 0 {
            0.0
        } else {
            weighted as f64 / pairs as f64
        },
        histogram: hist,
    })
}

/// Exact **single-fault diameter**: the worst diameter of `G - v` over
/// every single node fault `v` (infinite — reported as `None` — if some
/// fault disconnects the graph, i.e. `kappa(G) <= 1`).
///
/// This measures the paper's Theorem-5 promise in its sharpest form: the
/// fault diameter of a maximally fault tolerant network degrades
/// gracefully (for `HB(m, n)` the Theorem-5 path lengths bound it by
/// `max(m,2) + diam(B_n) + 2`). `O(V^2 (V + E))` — use on small/medium
/// instances.
pub fn single_fault_diameter(g: &Graph) -> Option<u32> {
    let n = g.num_nodes();
    if n <= 2 {
        return None;
    }
    let mut worst = 0;
    for f in 0..n {
        let mut keep = vec![true; n];
        keep[f] = false;
        let (sub, _) = g.induced_subgraph(&keep);
        worst = worst.max(diameter(&sub).ok()?);
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn eccentricity_on_path() {
        let g = generators::path(5).unwrap();
        assert_eq!(eccentricity(&g, 0).unwrap(), 4);
        assert_eq!(eccentricity(&g, 2).unwrap(), 2);
    }

    #[test]
    fn diameter_of_cycle_is_half() {
        assert_eq!(diameter(&generators::cycle(8).unwrap()).unwrap(), 4);
        assert_eq!(diameter(&generators::cycle(9).unwrap()).unwrap(), 4);
    }

    #[test]
    fn diameter_errors_on_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), Err(GraphError::Disconnected));
    }

    #[test]
    fn vertex_transitive_shortcut_matches_full_diameter_on_cycle() {
        let g = generators::cycle(10).unwrap();
        assert_eq!(
            diameter_vertex_transitive(&g).unwrap(),
            diameter(&g).unwrap()
        );
    }

    #[test]
    fn distance_stats_on_triangle() {
        let g = generators::cycle(3).unwrap();
        let s = distance_stats(&g).unwrap();
        assert_eq!(s.diameter, 1);
        assert_eq!(s.radius, 1);
        assert_eq!(s.histogram, vec![0, 6]);
        assert!((s.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_fault_diameter_on_cycle() {
        // Removing any node of C_n leaves a path of n-1 nodes: diameter
        // n-2.
        let g = generators::cycle(8).unwrap();
        assert_eq!(single_fault_diameter(&g), Some(6));
        // A path has cut vertices: fault diameter is unbounded.
        let p = generators::path(5).unwrap();
        assert_eq!(single_fault_diameter(&p), None);
        // Complete graph barely notices.
        let k = generators::complete(5).unwrap();
        assert_eq!(single_fault_diameter(&k), Some(1));
    }

    #[test]
    fn distance_stats_histogram_sums_to_ordered_pairs() {
        let g = generators::mesh(3, 4).unwrap();
        let s = distance_stats(&g).unwrap();
        let n = g.num_nodes() as u64;
        assert_eq!(s.histogram.iter().sum::<u64>(), n * (n - 1));
        assert_eq!(s.diameter, 5); // (3-1) + (4-1)
    }
}
