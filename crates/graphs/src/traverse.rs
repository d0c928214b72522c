//! Breadth-first traversal primitives.
//!
//! These are the workhorses behind distance verification (routing optimality
//! is always cross-checked against BFS), connectivity, and component
//! analysis in the fault-injection experiments.

use crate::graph::{Graph, NodeId};

/// Distance value reserved for "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Result of a single-source BFS: distances and a BFS-tree parent array.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// `dist[v]` is the hop distance from the source, [`UNREACHABLE`] if none.
    pub dist: Vec<u32>,
    /// `parent[v]` is the predecessor of `v` on a shortest path from the
    /// source; `parent[source] == source`; unreachable nodes keep `u32::MAX`.
    pub parent: Vec<u32>,
}

impl BfsTree {
    /// Reconstructs a shortest path `source -> target`, or `None` if
    /// unreachable. The path includes both endpoints.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[target] == UNREACHABLE {
            return None;
        }
        let mut path = Vec::with_capacity(self.dist[target] as usize + 1);
        let mut cur = target;
        path.push(cur);
        while self.parent[cur] as usize != cur {
            cur = self.parent[cur] as usize;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Single-source BFS over the whole graph.
pub fn bfs(g: &Graph, source: NodeId) -> BfsTree {
    bfs_avoiding(g, source, &[])
}

/// Single-source BFS that treats every node in `blocked` as deleted
/// (the source itself must not be blocked).
///
/// Used for fault-tolerant-routing verification: routing around a fault set
/// `F` is routing in `G - F`.
pub fn bfs_avoiding(g: &Graph, source: NodeId, blocked: &[NodeId]) -> BfsTree {
    let n = g.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut parent = vec![u32::MAX; n];
    for &b in blocked {
        assert_ne!(b, source, "source node must not be blocked");
        dist[b] = UNREACHABLE - 1; // mark visited so BFS never enters it
    }
    let mut queue = std::collections::VecDeque::with_capacity(n.min(1024));
    dist[source] = 0;
    parent[source] = source as u32;
    queue.push_back(source as u32);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u as usize) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                parent[w as usize] = u;
                queue.push_back(w);
            }
        }
    }
    // Restore the sentinel for blocked nodes.
    for &b in blocked {
        dist[b] = UNREACHABLE;
    }
    BfsTree { dist, parent }
}

/// Hop distance between two nodes, or `None` if disconnected.
/// Runs a bidirectional BFS, which on the low-diameter expander-like
/// topologies in this workspace visits far fewer nodes than a full sweep.
pub fn distance(g: &Graph, s: NodeId, t: NodeId) -> Option<u32> {
    if s == t {
        return Some(0);
    }
    let n = g.num_nodes();
    // seen_*: 0 = unseen, otherwise dist + 1.
    let mut seen_s = vec![0u32; n];
    let mut seen_t = vec![0u32; n];
    seen_s[s] = 1;
    seen_t[t] = 1;
    let mut frontier_s = vec![s as u32];
    let mut frontier_t = vec![t as u32];
    let mut ds = 0u32;
    let mut dt = 0u32;
    loop {
        if frontier_s.is_empty() && frontier_t.is_empty() {
            return None;
        }
        // Expand the smaller frontier.
        let expand_source = !frontier_s.is_empty()
            && (frontier_t.is_empty() || frontier_s.len() <= frontier_t.len());
        let (frontier, seen_mine, seen_other, d_mine) = if expand_source {
            (&mut frontier_s, &mut seen_s, &seen_t, &mut ds)
        } else {
            (&mut frontier_t, &mut seen_t, &seen_s, &mut dt)
        };
        let mut next = Vec::new();
        let mut best: Option<u32> = None;
        for &u in frontier.iter() {
            for &w in g.neighbors(u as usize) {
                if seen_mine[w as usize] == 0 {
                    seen_mine[w as usize] = *d_mine + 2;
                    if seen_other[w as usize] != 0 {
                        let total = (*d_mine + 1) + (seen_other[w as usize] - 1);
                        best = Some(best.map_or(total, |b| b.min(total)));
                    }
                    next.push(w);
                }
            }
        }
        *d_mine += 1;
        *frontier = next;
        if let Some(b) = best {
            // One more relaxation round cannot produce a shorter meeting:
            // both frontiers advance by 1, so any later meeting is >= b.
            return Some(b);
        }
    }
}

/// Connected components; returns `(component_id_per_node, component_count)`.
pub fn components(g: &Graph) -> (Vec<usize>, usize) {
    components_avoiding(g, &[])
}

/// Connected components of `G - blocked`; returns
/// `(component_id_per_node, component_count)`. Survivors are labelled
/// `0..count` in order of their smallest node; every blocked node keeps
/// the sentinel `usize::MAX`. One labelling answers every reachability
/// question about the survivors: two of them are connected iff their
/// labels are equal.
pub fn components_avoiding(g: &Graph, blocked: &[NodeId]) -> (Vec<usize>, usize) {
    const UNSEEN: usize = usize::MAX;
    const BLOCKED: usize = usize::MAX - 1;
    let n = g.num_nodes();
    let mut comp = vec![UNSEEN; n];
    for &b in blocked {
        comp[b] = BLOCKED; // never a start, never entered
    }
    let mut count = 0;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != UNSEEN {
            continue;
        }
        comp[start] = count;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &w in g.neighbors(u) {
                if comp[w as usize] == UNSEEN {
                    comp[w as usize] = count;
                    stack.push(w as usize);
                }
            }
        }
        count += 1;
    }
    for &b in blocked {
        comp[b] = UNSEEN;
    }
    (comp, count)
}

/// Whether the graph is connected (vacuously true for the empty graph).
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() == 0 || components(g).1 == 1
}

/// Whether `G - blocked` leaves all non-blocked nodes in one component
/// (vacuously true for at most one survivor). Fewer than two survivors
/// make at most one component, so the survivors are connected iff their
/// labelling has at most one.
pub fn is_connected_avoiding(g: &Graph, blocked: &[NodeId]) -> bool {
    components_avoiding(g, blocked).1 <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path_graph() {
        let g = generators::path(5).unwrap();
        let t = bfs(&g, 0);
        assert_eq!(t.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.path_to(4).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable_in_disconnected_graph() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let t = bfs(&g, 0);
        assert_eq!(t.dist[2], UNREACHABLE);
        assert!(t.path_to(3).is_none());
    }

    #[test]
    fn bfs_avoiding_routes_around_blocked_node() {
        let g = generators::cycle(6).unwrap();
        // Block node 1: distance 0 -> 2 must go the long way around.
        let t = bfs_avoiding(&g, 0, &[1]);
        assert_eq!(t.dist[2], 4);
        assert_eq!(t.dist[1], UNREACHABLE);
        let p = t.path_to(2).unwrap();
        assert_eq!(p, vec![0, 5, 4, 3, 2]);
    }

    #[test]
    fn bidirectional_distance_agrees_with_bfs_on_cycle() {
        let g = generators::cycle(9).unwrap();
        let t = bfs(&g, 0);
        for v in 0..9 {
            assert_eq!(distance(&g, 0, v), Some(t.dist[v]), "node {v}");
        }
    }

    #[test]
    fn bidirectional_distance_none_when_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(distance(&g, 0, 3), None);
        assert_eq!(distance(&g, 0, 1), Some(1));
        assert_eq!(distance(&g, 2, 2), Some(0));
    }

    #[test]
    fn components_counts_and_labels() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let (comp, count) = components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        assert!(!is_connected(&g));
        assert!(is_connected(&generators::cycle(4).unwrap()));
    }

    #[test]
    fn is_connected_avoiding_cut_vertex() {
        // Path 0-1-2: removing 1 disconnects.
        let g = generators::path(3).unwrap();
        assert!(is_connected_avoiding(&g, &[]));
        assert!(!is_connected_avoiding(&g, &[1]));
        // Removing an endpoint leaves a connected path.
        assert!(is_connected_avoiding(&g, &[0]));
        // Removing all but one node is vacuously connected.
        assert!(is_connected_avoiding(&g, &[0, 1]));
    }

    #[test]
    fn components_avoiding_labels_survivors_as_the_induced_subgraph() {
        let graphs = [
            generators::cycle(8).unwrap(),
            generators::torus(4, 4).unwrap(),
            generators::random_regular(24, 3, 5).unwrap(),
            Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ];
        let every_third: Vec<NodeId> = (0..24).step_by(3).collect();
        let blocked_sets: [&[NodeId]; 5] = [
            &[],
            &[2, 5],
            &[1, 4, 5, 6, 9],
            &[0, 1, 2, 3, 4, 5],
            &every_third,
        ];
        for g in &graphs {
            let n = g.num_nodes();
            for blocked in blocked_sets.map(|b| &b[..b.partition_point(|&v| v < n)]) {
                let (comp, count) = components_avoiding(g, blocked);
                let keep: Vec<bool> = (0..n).map(|v| !blocked.contains(&v)).collect();
                let (sub, old_of_new) = g.induced_subgraph(&keep);
                let (want, want_count) = components(&sub);
                assert_eq!(count, want_count, "{blocked:?}");
                for &b in blocked {
                    assert_eq!(comp[b], usize::MAX, "blocked {b}");
                }
                for (new, &old) in old_of_new.iter().enumerate() {
                    assert_eq!(comp[old], want[new], "survivor {old} of {blocked:?}");
                }
                assert_eq!(is_connected_avoiding(g, blocked), want_count <= 1);
            }
        }
    }
}
