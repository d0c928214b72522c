//! Vertex and edge connectivity via max-flow (Menger's theorem), plus
//! extraction of maximum families of internally vertex-disjoint paths.
//!
//! This module is the *independent referee* for the paper's headline claim
//! (Theorem 5 / Corollary 1): the constructive `m + 4` disjoint paths built
//! by `hb-core::disjoint` are cross-checked against the flow-based maximum
//! computed here, and the global vertex connectivity `kappa(HB(m,n)) = m+4`
//! is certified exactly on instances up to thousands of nodes.

use crate::error::{GraphError, Result};
use crate::flow::FlowNetwork;
use crate::graph::{Graph, NodeId};
use crate::traverse;

/// Builds the node-split flow network for internally vertex-disjoint
/// paths: every vertex `v` becomes `v_in = 2v` and `v_out = 2v + 1` joined
/// by a unit arc; every undirected edge becomes two unit arcs between the
/// split halves. Paths from `s` to `t` run from `s_out` to `t_in`, so no
/// augmenting path crosses the endpoints' own unit arcs and one network
/// serves every pair. `extra` spare nodes follow the split halves.
fn split_network(g: &Graph, extra: usize) -> FlowNetwork {
    let n = g.num_nodes();
    let mut f = FlowNetwork::new(2 * n + extra);
    for v in 0..n {
        f.add_edge(2 * v, 2 * v + 1, 1);
    }
    for (u, v) in g.edges() {
        f.add_edge(2 * u + 1, 2 * v, 1);
        f.add_edge(2 * v + 1, 2 * u, 1);
    }
    f
}

/// Maximum number of internally vertex-disjoint paths between two distinct
/// nodes, computed by max-flow. `limit` allows early exit (pass `u32::MAX`
/// for the exact value).
pub fn max_disjoint_path_count(g: &Graph, s: NodeId, t: NodeId, limit: u32) -> u32 {
    assert_ne!(s, t, "endpoints must differ");
    split_network(g, 0).max_flow(2 * s + 1, 2 * t, limit)
}

/// A maximum family of internally vertex-disjoint `s`–`t` paths, each path
/// listed from `s` to `t` inclusive, extracted from a max-flow.
pub fn max_disjoint_paths(g: &Graph, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    assert_ne!(s, t, "endpoints must differ");
    let mut f = split_network(g, 0);
    let value = f.max_flow(2 * s + 1, 2 * t, u32::MAX);

    // Decompose the integral flow into paths. Record, for every split node,
    // the flow-carrying outgoing arcs; then repeatedly walk from s_out.
    let n = g.num_nodes();
    // out[v] for split node id v: list of (target split node, edge id).
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
    // Reconstruct used arcs: iterate original arcs. Arc ids alternate
    // forward/backward; forward arcs have even id in insertion order.
    // We re-enumerate exactly as split_network inserted them.
    let mut edge_id = 0usize;
    let push_if_used =
        |f: &FlowNetwork, out: &mut Vec<Vec<u32>>, from: usize, to: usize, id: usize| {
            // Net flow matters: a unit arc with flow 1 is "used".
            if f.flow_on(id) > 0 {
                out[from].push(to as u32);
            }
        };
    for v in 0..n {
        push_if_used(&f, &mut out, 2 * v, 2 * v + 1, edge_id);
        edge_id += 2;
    }
    for (u, v) in g.edges() {
        // Opposite unit arcs over one undirected edge can both carry flow
        // only in degenerate cancelling pairs, which Dinic on unit networks
        // does not produce through distinct augmenting paths; still, cancel
        // them defensively so path walking never loops.
        let fw = f.flow_on(edge_id) > 0;
        let bw = f.flow_on(edge_id + 2) > 0;
        if fw && !bw {
            out[2 * u + 1].push((2 * v) as u32);
        } else if bw && !fw {
            out[2 * v + 1].push((2 * u) as u32);
        }
        edge_id += 4;
    }

    let mut paths = Vec::with_capacity(value as usize);
    for _ in 0..value {
        let mut path = vec![s];
        let mut cur = 2 * s + 1;
        loop {
            let next = out[cur]
                .pop()
                .expect("flow conservation yields an outgoing arc");
            cur = next as usize;
            if cur.is_multiple_of(2) {
                // arrived at some v_in
                let v = cur / 2;
                if v == t {
                    path.push(t);
                    break;
                }
                path.push(v);
            }
        }
        paths.push(path);
    }
    paths
}

/// Exact vertex connectivity `kappa(G)`.
///
/// Uses the Esfahanian–Hakimi reduction. Fix a minimum-degree vertex `v0`
/// and a minimum vertex cut `S`. If `S` avoids `v0`, it separates `v0`
/// from some non-neighbour `t`. If `S` contains `v0`, then `v0` has a
/// neighbour in every component of `G - S` (else `S - v0` would still
/// cut), so `S` separates two non-adjacent neighbours `x`, `y` of `v0`.
/// Hence `kappa` is the minimum local connectivity over the pairs
/// `(v0, t)` and `(x, y)`, at most `n - 1 - delta + delta(delta - 1)/2`
/// max-flows. The pairs are split over worker threads, each solving its
/// share on its own copy of one node-split network, reset between pairs,
/// and capping each flow at the best cut it has found so far; the answer
/// is the minimum over the workers, whatever the split (see
/// `min_flow`).
///
/// # Errors
/// [`GraphError::InvalidParameter`] for graphs with fewer than 2 nodes;
/// returns `Ok(0)` for disconnected graphs.
///
/// # Examples
/// ```
/// use hb_graphs::{connectivity, generators};
/// let torus = generators::torus(4, 4).unwrap();
/// assert_eq!(connectivity::vertex_connectivity(&torus).unwrap(), 4);
/// ```
pub fn vertex_connectivity(g: &Graph) -> Result<u32> {
    vertex_connectivity_on(g, None)
}

/// [`vertex_connectivity`] with the flows split over `workers` threads
/// (`None`: `min_flow`'s choice).
fn vertex_connectivity_on(g: &Graph, workers: Option<usize>) -> Result<u32> {
    let n = g.num_nodes();
    if n < 2 {
        return Err(GraphError::InvalidParameter(
            "vertex connectivity needs at least 2 nodes".into(),
        ));
    }
    if !traverse::is_connected(g) {
        return Ok(0);
    }
    // Complete graph: no non-adjacent pair exists anywhere.
    if g.num_edges() == n * (n - 1) / 2 {
        return Ok(n as u32 - 1);
    }
    let v0 = (0..n).min_by_key(|&v| g.degree(v)).expect("n >= 2");
    let nbrs = g.neighbors(v0);
    // Flows run from `s_out = 2s + 1` to `t_in = 2t`. Cuts avoiding v0
    // separate it from a non-neighbour.
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .filter(|&t| t != v0 && !g.has_edge(v0, t))
        .map(|t| (2 * v0 + 1, 2 * t))
        .collect();
    // Cuts containing v0 separate two non-adjacent neighbours of v0.
    for (i, &x) in nbrs.iter().enumerate() {
        for &y in &nbrs[i + 1..] {
            if !g.has_edge(x as usize, y as usize) {
                pairs.push((2 * x as usize + 1, 2 * y as usize));
            }
        }
    }
    let delta = nbrs.len() as u32;
    Ok(min_flow(split_network(g, 0), &pairs, delta, workers))
}

/// Exact edge connectivity `lambda(G)`: with a fixed source, every minimum
/// edge cut separates it from some other node, so `min_t maxflow(s, t)`
/// over all `t != s` is exact. The sinks are split over worker threads as
/// in [`vertex_connectivity`].
pub fn edge_connectivity(g: &Graph) -> Result<u32> {
    edge_connectivity_on(g, None)
}

/// [`edge_connectivity`] with the flows split over `workers` threads
/// (`None`: `min_flow`'s choice).
fn edge_connectivity_on(g: &Graph, workers: Option<usize>) -> Result<u32> {
    let n = g.num_nodes();
    if n < 2 {
        return Err(GraphError::InvalidParameter(
            "edge connectivity needs at least 2 nodes".into(),
        ));
    }
    if !traverse::is_connected(g) {
        return Ok(0);
    }
    let mut f = FlowNetwork::new(n);
    for (u, v) in g.edges() {
        f.add_edge(u, v, 1);
        f.add_edge(v, u, 1);
    }
    let delta = (0..n).map(|v| g.degree(v)).min().expect("n >= 2") as u32;
    let pairs: Vec<(usize, usize)> = (1..n).map(|t| (0, t)).collect();
    Ok(min_flow(f, &pairs, delta, workers))
}

/// Pairs per flow worker. On a 2-vCPU VM a second worker broke even at
/// 32–41 pairs and won on every graph measured from 44 pairs up
/// (DESIGN.md §16).
const MIN_PAIRS_PER_WORKER: usize = 48;

/// `min(cap, min over pairs of maxflow(s, t))` on `net`.
///
/// The pairs are split over `w` workers: `workers`, or by default one per
/// [`MIN_PAIRS_PER_WORKER`] pairs, at most one per available core. Worker
/// `k` solves pairs `k, k + w, …` on its own copy of `net` (cloned once
/// its index exists, so no worker allocates), capping each flow at the
/// best it has found so far, starting at `cap`. A capped flow returns
/// `min(its value, the cap)`, and every cap is at least the answer, so
/// each worker returns `min(cap, its pairs' minimum)` and the minimum over
/// workers is the same for any split. The calling thread is worker 0; a
/// worker's panic is resumed on the caller.
fn min_flow(
    mut net: FlowNetwork,
    pairs: &[(usize, usize)],
    cap: u32,
    workers: Option<usize>,
) -> u32 {
    let w = workers.unwrap_or_else(|| {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        pairs.len().div_ceil(MIN_PAIRS_PER_WORKER).clamp(1, cores)
    });
    net.index();
    let solve = |k: usize, mut f: FlowNetwork| {
        pairs.iter().skip(k).step_by(w).fold(cap, |best, &(s, t)| {
            f.reset();
            best.min(f.max_flow(s, t, best))
        })
    };
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..w)
            .map(|k| {
                let f = net.clone();
                scope.spawn(move || solve(k, f))
            })
            .collect();
        let mine = solve(0, net);
        others.into_iter().fold(mine, |best, worker| {
            let theirs = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            best.min(theirs)
        })
    })
}

/// A **fan**: internally vertex-disjoint paths from `center` to each node
/// of `targets` (pairwise distinct, none equal to `center`), sharing no
/// node but `center`. Exists whenever `kappa(G) >= |targets|` (Dirac's fan
/// lemma); computed by max-flow with unit node capacities.
///
/// Returns `paths[i]` running from `center` to `targets[i]`. A target that
/// is adjacent to (or at distance 0 from) the flow is handled naturally;
/// each path has length >= 1.
///
/// # Errors
/// [`GraphError::InvalidParameter`] if targets repeat / contain `center`,
/// or if no full fan exists (flow value below `targets.len()`).
pub fn fan_paths(g: &Graph, center: NodeId, targets: &[NodeId]) -> Result<Vec<Vec<NodeId>>> {
    let n = g.num_nodes();
    let k = targets.len();
    {
        let mut seen = std::collections::HashSet::new();
        for &t in targets {
            if t == center || !seen.insert(t) {
                return Err(GraphError::InvalidParameter(
                    "fan targets must be distinct and differ from the center".into(),
                ));
            }
        }
    }
    // Node-split network plus a super-sink; every target's out-half feeds
    // the sink. Targets keep capacity 1 so no path passes *through* a
    // target.
    let mut f = split_network(g, 1);
    let sink = 2 * n;
    for &t in targets {
        f.add_edge(2 * t + 1, sink, 1);
    }
    let value = f.max_flow(2 * center + 1, sink, k as u32);
    if value < k as u32 {
        return Err(GraphError::InvalidParameter(format!(
            "fan of size {k} from {center} does not exist (flow {value})"
        )));
    }

    // Used arcs per split node, reconstructed in insertion order.
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
    let mut edge_id = 0usize;
    for v in 0..n {
        if f.flow_on(edge_id) > 0 {
            out[2 * v].push(2 * v as u32 + 1);
        }
        edge_id += 2;
    }
    for (u, v) in g.edges() {
        let fw = f.flow_on(edge_id) > 0;
        let bw = f.flow_on(edge_id + 2) > 0;
        if fw && !bw {
            out[2 * u + 1].push(2 * v as u32);
        } else if bw && !fw {
            out[2 * v + 1].push(2 * u as u32);
        }
        edge_id += 4;
    }
    // Arcs into the sink mark path terminations.
    let mut terminates = vec![false; n];
    for &t in targets {
        if f.flow_on(edge_id) > 0 {
            terminates[t] = true;
        }
        edge_id += 2;
    }

    let mut by_target: std::collections::HashMap<NodeId, Vec<NodeId>> =
        std::collections::HashMap::new();
    for _ in 0..k {
        let mut path = vec![center];
        let mut cur = 2 * center + 1;
        let end = loop {
            // At an out-half: if this node terminates a path and we still
            // need it, stop here (its sink arc carried the unit).
            let node = cur / 2;
            if cur % 2 == 1 && terminates[node] && !by_target.contains_key(&node) && node != center
            {
                break node;
            }
            let next = out[cur].pop().expect("flow conservation yields an arc");
            cur = next as usize;
            if cur.is_multiple_of(2) {
                path.push(cur / 2);
            }
        };
        by_target.insert(end, path);
    }
    targets
        .iter()
        .map(|t| {
            by_target.remove(t).ok_or_else(|| {
                GraphError::InvalidParameter(format!("no fan path reached target {t}"))
            })
        })
        .collect()
}

/// Checks that `paths[i]` is a valid fan: starts at `center`, ends at
/// `targets[i]`, walks edges, and no two paths share any node but
/// `center`.
pub fn verify_fan(
    g: &Graph,
    center: NodeId,
    targets: &[NodeId],
    paths: &[Vec<NodeId>],
) -> Result<()> {
    if paths.len() != targets.len() {
        return Err(GraphError::InvalidParameter("fan size mismatch".into()));
    }
    let mut used = vec![false; g.num_nodes()];
    for (i, (p, &t)) in paths.iter().zip(targets).enumerate() {
        if p.first() != Some(&center) || p.last() != Some(&t) {
            return Err(GraphError::InvalidParameter(format!(
                "fan path {i} does not run from {center} to {t}"
            )));
        }
        for w in p.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                return Err(GraphError::InvalidParameter(format!(
                    "fan path {i} uses non-edge ({}, {})",
                    w[0], w[1]
                )));
            }
        }
        for &v in &p[1..] {
            if v == center || used[v] {
                return Err(GraphError::InvalidParameter(format!(
                    "fan path {i} reuses node {v}"
                )));
            }
            used[v] = true;
        }
    }
    Ok(())
}

/// Checks that the supplied paths form a valid family of internally
/// vertex-disjoint `s`–`t` paths in `g`: each starts at `s`, ends at `t`,
/// walks along edges, repeats no internal node within or across paths, and
/// no internal node equals `s` or `t`.
pub fn verify_disjoint_paths(g: &Graph, s: NodeId, t: NodeId, paths: &[Vec<NodeId>]) -> Result<()> {
    let mut used = vec![false; g.num_nodes()];
    for (i, p) in paths.iter().enumerate() {
        if p.len() < 2 || p[0] != s || *p.last().expect("len >= 2") != t {
            return Err(GraphError::InvalidParameter(format!(
                "path {i} does not run from {s} to {t}"
            )));
        }
        for w in p.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                return Err(GraphError::InvalidParameter(format!(
                    "path {i} uses non-edge ({}, {})",
                    w[0], w[1]
                )));
            }
        }
        for &v in &p[1..p.len() - 1] {
            if v == s || v == t {
                return Err(GraphError::InvalidParameter(format!(
                    "path {i} revisits an endpoint at {v}"
                )));
            }
            if used[v] {
                return Err(GraphError::InvalidParameter(format!(
                    "internal node {v} is shared (seen again in path {i})"
                )));
            }
            used[v] = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cycle_has_connectivity_two() {
        let g = generators::cycle(7).unwrap();
        assert_eq!(vertex_connectivity(&g).unwrap(), 2);
        assert_eq!(edge_connectivity(&g).unwrap(), 2);
    }

    #[test]
    fn path_has_connectivity_one() {
        let g = generators::path(5).unwrap();
        assert_eq!(vertex_connectivity(&g).unwrap(), 1);
        assert_eq!(edge_connectivity(&g).unwrap(), 1);
    }

    #[test]
    fn complete_graph_connectivity() {
        let g = generators::complete(5).unwrap();
        assert_eq!(vertex_connectivity(&g).unwrap(), 4);
        assert_eq!(edge_connectivity(&g).unwrap(), 4);
    }

    #[test]
    fn disconnected_graph_has_zero_connectivity() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(vertex_connectivity(&g).unwrap(), 0);
        assert_eq!(edge_connectivity(&g).unwrap(), 0);
    }

    #[test]
    fn torus_is_four_connected() {
        let g = generators::torus(4, 5).unwrap();
        assert_eq!(vertex_connectivity(&g).unwrap(), 4);
    }

    #[test]
    fn two_triangles_sharing_a_vertex_have_cut_vertex() {
        // 0-1-2-0 and 2-3-4-2: vertex 2 is a cut vertex.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]).unwrap();
        assert_eq!(vertex_connectivity(&g).unwrap(), 1);
    }

    /// Two K6 cliques {0..5} and {6..11} joined by the edge 5-11 and by
    /// node 12, adjacent to 0, 1, 6 and 7.
    fn two_cliques_and_a_hub() -> Graph {
        let mut edges = Vec::new();
        for base in [0, 6] {
            for u in base..base + 6 {
                edges.extend((u + 1..base + 6).map(|v| (u, v)));
            }
        }
        edges.extend([(5, 11), (0, 12), (1, 12), (6, 12), (7, 12)]);
        Graph::from_edges(13, edges).unwrap()
    }

    /// The 5-cube (kappa = delta = 5) plus two adjacent nodes `a` and `b`,
    /// each joined to the same four cube nodes. Those four cut `{a, b}`
    /// off, so kappa = 4, and only the flows from node 0 to `a` and to `b`
    /// find that cut. Cube node `q` keeps id `q` below `a = 4`, and the
    /// ids skip `a` and `b = 19`, so `a` and `b` come 2nd and 14th among
    /// node 0's non-neighbours: pairs 1 and 13 of the flow list.
    fn cut_in_one_stride() -> Graph {
        let (a, b) = (4, 19);
        let id = |q: usize| q + usize::from(q >= 4) + usize::from(q >= 18);
        let mut edges: Vec<(usize, usize)> = (0..32)
            .flat_map(|q| (0..5).map(move |bit| (q, q ^ 1 << bit)))
            .filter(|&(q, r)| q < r)
            .map(|(q, r)| (id(q), id(r)))
            .collect();
        edges.push((a, b));
        for q in [3, 5, 6, 7] {
            edges.extend([(a, id(q)), (b, id(q))]);
        }
        Graph::from_edges(34, edges).unwrap()
    }

    /// HB(2, 3), the product of the 2-cube and the wrapped butterfly
    /// B(3): node `(h, l, w)` has id `24h + 8l + w`, and level `l` joins
    /// `(l, w)` to `(l + 1 mod 3, w)` and `(l + 1 mod 3, w ^ 2^l)`.
    fn hb_2_3() -> Graph {
        let id = |h: usize, l: usize, w: usize| 24 * h + 8 * l + w;
        let mut edges = Vec::new();
        for h in 0..4 {
            for l in 0..3 {
                for w in 0..8 {
                    let u = id(h, l, w);
                    edges.push((u, id(h, (l + 1) % 3, w)));
                    edges.push((u, id(h, (l + 1) % 3, w ^ 1 << l)));
                    edges.extend(
                        (0..2)
                            .map(|bit| (u, id(h ^ 1 << bit, l, w)))
                            .filter(|&(u, v)| u < v),
                    );
                }
            }
        }
        Graph::from_edges(96, edges).unwrap()
    }

    #[test]
    fn cut_through_the_min_degree_vertex_needs_the_neighbour_pairs() {
        // Node 12 is the unique minimum-degree vertex and lies in both
        // minimum cuts, so every non-neighbour is 3-connected to it: only
        // the pairs of its neighbours find kappa = 2.
        let g = two_cliques_and_a_hub();
        assert_eq!(g.degree(12), 4);
        assert!((0..12).all(|v| g.degree(v) > 4));

        let two_cuts: Vec<(usize, usize)> = (0..13)
            .flat_map(|a| (a + 1..13).map(move |b| (a, b)))
            .filter(|&(a, b)| !traverse::is_connected_avoiding(&g, &[a, b]))
            .collect();
        assert_eq!(two_cuts, [(5, 12), (11, 12)]);
        assert!((0..13).all(|a| traverse::is_connected_avoiding(&g, &[a])));

        let non_neighbours = (0..12).filter(|&t| !g.has_edge(12, t));
        let from_v0 = non_neighbours.map(|t| max_disjoint_path_count(&g, 12, t, u32::MAX));
        assert_eq!(from_v0.min(), Some(3));
        assert_eq!(vertex_connectivity(&g).unwrap(), 2);
    }

    #[test]
    fn one_stride_graph_has_its_only_low_cut_at_pairs_1_and_13() {
        let g = cut_in_one_stride();
        let (a, b) = (4, 19);
        assert_eq!((0..34).min_by_key(|&v| g.degree(v)), Some(0));
        assert_eq!(g.degree(0), 5);
        let others: Vec<usize> = (1..34).filter(|&t| !g.has_edge(0, t)).collect();
        assert_eq!(others.len(), 28);
        assert_eq!((others[1], others[13]), (a, b));
        for t in others {
            let local = max_disjoint_path_count(&g, 0, t, u32::MAX);
            assert_eq!(local, if t == a || t == b { 4 } else { 5 }, "node {t}");
        }
        let nbrs = g.neighbors(0);
        for (i, &x) in nbrs.iter().enumerate() {
            for &y in &nbrs[i + 1..] {
                let (x, y) = (x as usize, y as usize);
                assert!(!g.has_edge(x, y));
                assert_eq!(max_disjoint_path_count(&g, x, y, u32::MAX), 5);
            }
        }
    }

    /// The flows split over any number of workers give the same kappa and
    /// lambda: 1 to 4 workers, and more workers than pairs (most of them
    /// idle), on the graphs above. The brute-force proptests use graphs
    /// too small to start a second worker.
    #[test]
    fn worker_count_cannot_change_the_answer() {
        for (name, g, kappa, lambda) in [
            ("two cliques", two_cliques_and_a_hub(), 2, 3),
            ("one stride", cut_in_one_stride(), 4, 5),
            ("HB(2, 3)", hb_2_3(), 6, 6),
        ] {
            let n = g.num_nodes();
            let delta = (0..n).map(|v| g.degree(v)).min().unwrap();
            // The flow lists hold at most n - 1 - delta + delta(delta - 1)/2
            // and n - 1 pairs.
            let more_than_pairs = n + delta * delta / 2;
            for w in [1, 2, 3, 4, more_than_pairs] {
                assert_eq!(
                    vertex_connectivity_on(&g, Some(w)).unwrap(),
                    kappa,
                    "{name}, {w} workers"
                );
                assert_eq!(
                    edge_connectivity_on(&g, Some(w)).unwrap(),
                    lambda,
                    "{name}, {w} workers"
                );
            }
            assert_eq!(vertex_connectivity(&g).unwrap(), kappa, "{name}");
            assert_eq!(edge_connectivity(&g).unwrap(), lambda, "{name}");
        }
    }

    #[test]
    fn disjoint_path_count_on_cycle_is_two() {
        let g = generators::cycle(6).unwrap();
        assert_eq!(max_disjoint_path_count(&g, 0, 3, u32::MAX), 2);
    }

    #[test]
    fn extracted_paths_verify_on_cycle() {
        let g = generators::cycle(6).unwrap();
        let paths = max_disjoint_paths(&g, 0, 3);
        assert_eq!(paths.len(), 2);
        verify_disjoint_paths(&g, 0, 3, &paths).unwrap();
    }

    #[test]
    fn extracted_paths_verify_on_torus() {
        let g = generators::torus(4, 4).unwrap();
        let paths = max_disjoint_paths(&g, 0, 10);
        assert_eq!(paths.len(), 4);
        verify_disjoint_paths(&g, 0, 10, &paths).unwrap();
    }

    #[test]
    fn extracted_paths_between_adjacent_nodes() {
        let g = generators::complete(4).unwrap();
        let paths = max_disjoint_paths(&g, 0, 1);
        assert_eq!(paths.len(), 3); // direct edge + two 2-hop paths
        verify_disjoint_paths(&g, 0, 1, &paths).unwrap();
    }

    #[test]
    fn verify_rejects_shared_internal_node() {
        let g = generators::complete(4).unwrap();
        let bad = vec![vec![0, 2, 1], vec![0, 2, 1]];
        assert!(verify_disjoint_paths(&g, 0, 1, &bad).is_err());
    }

    #[test]
    fn verify_rejects_non_edge() {
        let g = generators::cycle(5).unwrap();
        let bad = vec![vec![0, 2, 1]];
        assert!(verify_disjoint_paths(&g, 0, 1, &bad).is_err());
    }

    #[test]
    fn verify_rejects_wrong_endpoints() {
        let g = generators::cycle(5).unwrap();
        let bad = vec![vec![1, 2]];
        assert!(verify_disjoint_paths(&g, 0, 2, &bad).is_err());
    }

    #[test]
    fn fan_on_torus_to_four_targets() {
        let g = generators::torus(4, 4).unwrap();
        let targets = [5, 10, 15, 3];
        let paths = fan_paths(&g, 0, &targets).unwrap();
        verify_fan(&g, 0, &targets, &paths).unwrap();
    }

    #[test]
    fn fan_to_neighbor_set() {
        // Fan from a node to all neighbors of another node (the Theorem-5
        // use case).
        let g = generators::hypercube(4).unwrap();
        let targets: Vec<usize> = g.neighbors(0b1111).iter().map(|&w| w as usize).collect();
        let paths = fan_paths(&g, 0, &targets).unwrap();
        verify_fan(&g, 0, &targets, &paths).unwrap();
    }

    #[test]
    fn fan_with_adjacent_target() {
        let g = generators::cycle(6).unwrap();
        let targets = [1, 5];
        let paths = fan_paths(&g, 0, &targets).unwrap();
        assert_eq!(paths[0], vec![0, 1]);
        assert_eq!(paths[1], vec![0, 5]);
    }

    #[test]
    fn fan_rejects_impossible_size() {
        // Path graph: only one disjoint path can leave an endpoint.
        let g = generators::path(5).unwrap();
        assert!(fan_paths(&g, 0, &[2, 4]).is_err());
    }

    #[test]
    fn fan_rejects_bad_targets() {
        let g = generators::cycle(5).unwrap();
        assert!(fan_paths(&g, 0, &[0]).is_err());
        assert!(fan_paths(&g, 0, &[2, 2]).is_err());
    }

    #[test]
    fn verify_fan_rejects_shared_node() {
        let g = generators::complete(5).unwrap();
        let bad = vec![vec![0, 3, 1], vec![0, 3, 2]];
        assert!(verify_fan(&g, 0, &[1, 2], &bad).is_err());
    }
}
