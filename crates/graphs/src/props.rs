//! Structural property extraction: degree statistics, regularity, girth,
//! bipartiteness.
//!
//! These feed the Figure 1 / Figure 2 comparison tables: "Regular", "Degree"
//! and the even-cycle-only embeddings row (bipartite graphs cannot contain
//! odd cycles, which is why the hypercube and hyper-butterfly columns say
//! "even cycles" while de Bruijn-based networks are pancyclic).

use crate::graph::Graph;

/// Degree summary of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// `histogram[(d - min)]` would be wasteful for spiky distributions;
    /// instead this maps degree -> count, sorted by degree.
    pub counts: Vec<(usize, usize)>,
}

/// Computes min/max degree and the degree histogram.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let mut map = std::collections::BTreeMap::new();
    for v in g.nodes() {
        *map.entry(g.degree(v)).or_insert(0usize) += 1;
    }
    let min = map.keys().next().copied().unwrap_or(0);
    let max = map.keys().next_back().copied().unwrap_or(0);
    DegreeStats {
        min,
        max,
        counts: map.into_iter().collect(),
    }
}

/// Whether every node has the same degree; returns it if so.
pub fn regular_degree(g: &Graph) -> Option<usize> {
    let stats = degree_stats(g);
    (stats.min == stats.max).then_some(stats.min)
}

/// Whether the graph is bipartite (2-colorable).
pub fn is_bipartite(g: &Graph) -> bool {
    let n = g.num_nodes();
    let mut color = vec![u8::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                let w = w as usize;
                if color[w] == u8::MAX {
                    color[w] = 1 - color[u];
                    queue.push_back(w);
                } else if color[w] == color[u] {
                    return false;
                }
            }
        }
    }
    true
}

/// Girth (length of the shortest cycle), or `None` for a forest.
///
/// BFS from every node; the first non-tree edge seen closes the shortest
/// cycle through that root. `O(V * E)` — only used on small instances and
/// in property tests.
pub fn girth(g: &Graph) -> Option<u32> {
    let n = g.num_nodes();
    let mut best: Option<u32> = None;
    let mut dist = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    for root in 0..n {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        let mut queue = std::collections::VecDeque::new();
        dist[root] = 0;
        parent[root] = u32::MAX;
        queue.push_back(root as u32);
        while let Some(u) = queue.pop_front() {
            // Cycles through `root` longer than the current best can't
            // improve it; prune the BFS.
            if let Some(b) = best {
                if 2 * dist[u as usize] + 1 >= b {
                    break;
                }
            }
            for &w in g.neighbors(u as usize) {
                let w = w as usize;
                if dist[w] == u32::MAX {
                    dist[w] = dist[u as usize] + 1;
                    parent[w] = u;
                    queue.push_back(w as u32);
                } else if parent[u as usize] != w as u32 {
                    // Non-tree edge: cycle of length dist[u] + dist[w] + 1
                    // through the root (an upper bound that is tight for
                    // the minimum over all roots).
                    let len = dist[u as usize] + dist[w] + 1;
                    best = Some(best.map_or(len, |b| b.min(len)));
                }
            }
        }
    }
    best
}

/// Checks that the degree sequence matches `expected` exactly on every node.
pub fn all_degrees_are(g: &Graph, expected: usize) -> bool {
    g.nodes().all(|v| g.degree(v) == expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degree_stats_on_star() {
        // Star K_{1,3}: center 0.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
        assert_eq!(s.counts, vec![(1, 3), (3, 1)]);
        assert_eq!(regular_degree(&g), None);
    }

    #[test]
    fn cycle_is_two_regular() {
        assert_eq!(regular_degree(&generators::cycle(5).unwrap()), Some(2));
    }

    #[test]
    fn bipartite_detection() {
        assert!(is_bipartite(&generators::cycle(6).unwrap()));
        assert!(!is_bipartite(&generators::cycle(5).unwrap()));
        assert!(is_bipartite(&generators::path(4).unwrap()));
        assert!(is_bipartite(&generators::mesh(3, 3).unwrap()));
    }

    #[test]
    fn girth_of_cycles_and_trees() {
        assert_eq!(girth(&generators::cycle(7).unwrap()), Some(7));
        assert_eq!(girth(&generators::path(6).unwrap()), None);
        assert_eq!(girth(&generators::complete(4).unwrap()), Some(3));
        assert_eq!(girth(&generators::mesh(2, 2).unwrap()), Some(4));
    }

    #[test]
    fn girth_of_complete_bipartite_is_four() {
        // K_{2,3}.
        let g = Graph::from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
        assert_eq!(girth(&g), Some(4));
    }
}
