//! Structural resilience analysis: articulation points (Tarjan's
//! low-link algorithm) and Kernighan–Lin bisection.
//!
//! Uses in this reproduction:
//!
//! * **articulation points** quantify how gracefully a topology degrades
//!   under faults: a `kappa >= 2` network has none, but its *survivor*
//!   graphs after fault injection may — counting them is a resilience
//!   metric the fault experiments report;
//! * **bisection width** (upper-bounded by Kernighan–Lin) is the classic
//!   VLSI area driver (layout area grows with the square of the
//!   bisection) behind the paper's implementation motivation.

use crate::graph::{Graph, NodeId};

/// Articulation points (cut vertices) via Tarjan's low-link DFS,
/// iterative to survive deep graphs. Works on disconnected inputs
/// (per-component roots).
pub fn articulation_points(g: &Graph) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut disc = vec![0u32; n]; // 0 = unvisited; else discovery time + 1
    let mut low = vec![0u32; n];
    let mut parent = vec![usize::MAX; n];
    let mut is_cut = vec![false; n];
    let mut timer = 1u32;

    // Explicit stack: (node, neighbor cursor).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != 0 {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut root_children = 0usize;
        stack.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            if *cursor < g.degree(v) {
                let w = g.neighbors(v)[*cursor] as usize;
                *cursor += 1;
                if disc[w] == 0 {
                    parent[w] = v;
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((w, 0));
                } else if w != parent[v] {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[v]);
                    if p != root && low[v] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        if root_children >= 2 {
            is_cut[root] = true;
        }
    }
    (0..n).filter(|&v| is_cut[v]).collect()
}

/// One Kernighan–Lin bisection refinement run from a given starting
/// balanced partition; returns the cut size and the side-A membership.
fn kl_refine(g: &Graph, mut in_a: Vec<bool>) -> (usize, Vec<bool>) {
    let n = g.num_nodes();
    // D-values: external - internal cost per node.
    let d_of = |v: usize, in_a: &[bool]| -> i64 {
        let mut d = 0i64;
        for &w in g.neighbors(v) {
            if in_a[w as usize] == in_a[v] {
                d -= 1;
            } else {
                d += 1;
            }
        }
        d
    };
    loop {
        let mut locked = vec![false; n];
        let mut d: Vec<i64> = (0..n).map(|v| d_of(v, &in_a)).collect();
        let mut gains: Vec<i64> = Vec::new();
        let mut swaps: Vec<(usize, usize)> = Vec::new();
        // One KL pass: repeatedly pick the best unlocked (a, b) swap.
        for _ in 0..n / 2 {
            let mut best: Option<(i64, usize, usize)> = None;
            for a in 0..n {
                if locked[a] || !in_a[a] {
                    continue;
                }
                for b in 0..n {
                    if locked[b] || in_a[b] {
                        continue;
                    }
                    let w_ab = i64::from(g.has_edge(a, b));
                    let gain = d[a] + d[b] - 2 * w_ab;
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, a, b));
                    }
                }
            }
            let Some((gain, a, b)) = best else { break };
            locked[a] = true;
            locked[b] = true;
            gains.push(gain);
            swaps.push((a, b));
            // Update D-values as if (a, b) were swapped.
            for &x in g.neighbors(a) {
                let x = x as usize;
                if !locked[x] {
                    d[x] += if in_a[x] { 2 } else { -2 };
                }
            }
            for &x in g.neighbors(b) {
                let x = x as usize;
                if !locked[x] {
                    d[x] += if in_a[x] { -2 } else { 2 };
                }
            }
        }
        // Best prefix of the swap sequence.
        let mut best_k = 0;
        let mut best_sum = 0i64;
        let mut run = 0i64;
        for (k, &gain) in gains.iter().enumerate() {
            run += gain;
            if run > best_sum {
                best_sum = run;
                best_k = k + 1;
            }
        }
        if best_sum <= 0 {
            break;
        }
        for &(a, b) in &swaps[..best_k] {
            in_a[a] = false;
            in_a[b] = true;
        }
    }
    let cut = g.edges().filter(|&(u, v)| in_a[u] != in_a[v]).count();
    (cut, in_a)
}

/// Upper bound on the **bisection width** (minimum balanced cut) by
/// multi-start Kernighan–Lin refinement: `restarts` deterministic
/// starting partitions (id-split plus rotations), best cut kept.
///
/// # Panics
/// Panics if the graph has an odd number of nodes (bisection needs an
/// even split).
pub fn bisection_upper_bound(g: &Graph, restarts: u32) -> (usize, Vec<bool>) {
    let n = g.num_nodes();
    assert!(n.is_multiple_of(2), "bisection needs an even node count");
    let mut best: Option<(usize, Vec<bool>)> = None;
    for r in 0..restarts.max(1) {
        // Starting split: ids rotated by a deterministic stride.
        let stride = 1 + (r as usize * 7919) % n;
        let mut in_a = vec![false; n];
        for i in 0..n / 2 {
            in_a[(i * stride) % n] = true;
        }
        // Repair duplicates from the stride walk: ensure exactly n/2.
        let mut count = in_a.iter().filter(|&&x| x).count();
        let mut idx = 0;
        while count < n / 2 {
            if !in_a[idx] {
                in_a[idx] = true;
                count += 1;
            }
            idx += 1;
        }
        while count > n / 2 {
            if in_a[idx % n] {
                in_a[idx % n] = false;
                count -= 1;
            }
            idx += 1;
        }
        let (cut, part) = kl_refine(g, in_a);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, part));
        }
    }
    best.expect("restarts >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_graph_interior_nodes_are_cuts() {
        let g = generators::path(5).unwrap();
        assert_eq!(articulation_points(&g), vec![1, 2, 3]);
    }

    #[test]
    fn cycle_has_no_cuts() {
        let g = generators::cycle(6).unwrap();
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn barbell_cut_vertex_detected() {
        // Two triangles joined at vertex 2.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]).unwrap();
        assert_eq!(articulation_points(&g), vec![2]);
    }

    #[test]
    fn bridge_between_two_cycles() {
        // C3 - bridge - C3.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let cuts = articulation_points(&g);
        assert_eq!(cuts, vec![2, 3]);
    }

    #[test]
    fn brute_force_cut_vertex_agreement() {
        use crate::traverse;
        // Random-ish small graphs: compare with definition.
        for seed in 0..30u64 {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let n = 8;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if next() % 100 < 35 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges).unwrap();
            let (_, comps_before) = traverse::components(&g);
            let fast: std::collections::HashSet<usize> =
                articulation_points(&g).into_iter().collect();
            for v in 0..n {
                let mut keep = vec![true; n];
                keep[v] = false;
                let (sub, _) = g.induced_subgraph(&keep);
                let (_, comps_after) = traverse::components(&sub);
                // v is a cut vertex iff removing it increases the number
                // of components (accounting for v's own component leaving
                // if isolated).
                let isolated = g.degree(v) == 0;
                let expected_if_not_cut = comps_before - usize::from(isolated);
                let is_cut = comps_after > expected_if_not_cut;
                assert_eq!(fast.contains(&v), is_cut, "seed {seed} node {v}");
            }
        }
    }

    #[test]
    fn bisection_of_cycle_is_two() {
        let g = generators::cycle(8).unwrap();
        let (cut, part) = bisection_upper_bound(&g, 4);
        assert_eq!(part.iter().filter(|&&x| x).count(), 4, "balanced");
        assert_eq!(cut, 2);
    }

    #[test]
    fn bisection_of_two_cliques_with_bridge_is_one() {
        // K4 - bridge - K4: optimal bisection cuts just the bridge.
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in u + 1..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        let g = Graph::from_edges(8, edges).unwrap();
        let (cut, _) = bisection_upper_bound(&g, 6);
        assert_eq!(cut, 1);
    }

    #[test]
    fn hypercube_bisection_matches_theory() {
        // Bisection width of H_m is exactly 2^(m-1).
        let g = generators::hypercube(3).unwrap();
        let (cut, _) = bisection_upper_bound(&g, 8);
        assert_eq!(cut, 4);
    }
}
