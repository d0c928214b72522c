//! Dinic's maximum-flow algorithm.
//!
//! Used by the connectivity module to *certify* the paper's fault-tolerance
//! claims: Menger's theorem equates the maximum number of internally
//! vertex-disjoint `s`–`t` paths with the maximum flow in the node-split
//! graph, so the constructive `m + 4` disjoint paths of Theorem 5 can be
//! checked against an independent combinatorial bound.
//!
//! All our uses are unit-capacity, where Dinic runs in `O(E * sqrt(V))`;
//! the implementation nevertheless supports general integer capacities.
//!
//! A network is built once and solved many times: [`FlowNetwork::reset`]
//! restores the built capacities, and the BFS/DFS scratch belongs to the
//! network, so a solve allocates nothing. A clone of an indexed network
//! copies the index and reserves its scratch, so it solves without
//! allocating either. Arcs keep their insertion ids
//! and each node's arcs are explored in insertion order, so the flow a
//! solve finds depends only on the order arcs were added.
//!
//! Each phase labels residual distances *to* the sink (a BFS from `t`
//! over reversed arcs, stopped once `s` is labelled), so the DFS steps
//! only along arcs of shortest augmenting paths. It augments the same
//! paths, in the same order, as a DFS over source-side levels would, but
//! never explores a branch that cannot reach `t`.

/// A directed flow network under construction / after a max-flow run.
#[derive(Debug)]
pub struct FlowNetwork {
    /// Flat arc array by insertion id; arc `i ^ 1` is the reverse of arc `i`.
    edges: Vec<FlowEdge>,
    /// Capacity of every arc as built, restored by [`FlowNetwork::reset`].
    built: Vec<u32>,
    /// CSR arc index: node `v`'s arc ids are `arcs[first[v]..first[v + 1]]`,
    /// in insertion order. Rebuilt on the first solve after an `add_edge`.
    first: Vec<usize>,
    arcs: Vec<u32>,
    /// Per-solve scratch: BFS level, DFS cursor into `arcs`, BFS queue, and
    /// the arc ids of the current DFS path.
    level: Vec<u32>,
    cursor: Vec<usize>,
    queue: Vec<usize>,
    path: Vec<u32>,
}

#[derive(Clone, Copy, Debug)]
struct FlowEdge {
    to: u32,
    /// Remaining capacity.
    cap: u32,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        Self {
            edges: Vec::new(),
            built: Vec::new(),
            first: vec![0; n + 1],
            arcs: Vec::new(),
            level: vec![u32::MAX; n],
            cursor: vec![0; n],
            queue: Vec::with_capacity(n),
            path: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.level.len()
    }

    /// Adds a directed arc `from -> to` with capacity `cap` and returns its
    /// edge index (the paired reverse arc has capacity 0).
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u32) -> usize {
        assert!(
            from < self.num_nodes() && to < self.num_nodes(),
            "arc endpoint out of range"
        );
        let id = self.edges.len();
        self.edges.push(FlowEdge { to: to as u32, cap });
        self.edges.push(FlowEdge {
            to: from as u32,
            cap: 0,
        });
        self.built.extend([cap, 0]);
        id
    }

    /// Flow currently carried by arc `id` (used flow = reverse residual).
    pub fn flow_on(&self, id: usize) -> u32 {
        self.edges[id ^ 1].cap
    }

    /// Restores every arc to its built capacity, undoing all flow, so the
    /// network can be solved again for another source and sink.
    pub fn reset(&mut self) {
        for (e, &cap) in self.edges.iter_mut().zip(&self.built) {
            e.cap = cap;
        }
    }

    /// Runs Dinic's algorithm and returns the max-flow value from `s` to `t`.
    /// `limit` caps the search: once the flow reaches `limit` the algorithm
    /// stops early.  Connectivity certification only needs to know whether
    /// the flow reaches the best cut found so far, so the limit avoids
    /// wasted phases.
    pub fn max_flow(&mut self, s: usize, t: usize, limit: u32) -> u32 {
        assert_ne!(s, t, "source and sink must differ");
        if self.arcs.len() != self.edges.len() {
            self.index();
        }
        let n = self.num_nodes();
        let mut total = 0u32;
        while total < limit && self.label(s, t) {
            self.cursor.copy_from_slice(&self.first[..n]);
            // Blocking flow, one augmenting path at a time.
            while total < limit {
                let pushed = self.augment(s, t, limit - total);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
        total
    }

    /// Rebuilds the CSR arc index: a stable counting sort of the arc ids
    /// by tail node, so each node lists its arcs in insertion order.
    pub(crate) fn index(&mut self) {
        let n = self.num_nodes();
        self.first.fill(0);
        for e in &self.edges {
            // Arcs come in reverse pairs, so a node heads as many arcs as
            // it tails.
            self.first[e.to as usize + 1] += 1;
        }
        for v in 0..n {
            self.first[v + 1] += self.first[v];
        }
        self.cursor.copy_from_slice(&self.first[..n]);
        self.arcs.resize(self.edges.len(), 0);
        for id in 0..self.edges.len() {
            let tail = self.edges[id ^ 1].to as usize;
            self.arcs[self.cursor[tail]] = id as u32;
            self.cursor[tail] += 1;
        }
    }

    /// Sets `level[v]` to the residual distance from `v` to `t`, by BFS
    /// from `t` over arcs walked backwards. Stops as soon as `s` is
    /// labelled: nodes labelled later are at least as far from `t` as `s`,
    /// so no shortest augmenting path uses them. Returns whether `s`
    /// reaches `t`.
    fn label(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(u32::MAX);
        self.level[t] = 0;
        self.queue.clear();
        self.queue.push(t);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let next = self.level[v] + 1;
            for &eid in &self.arcs[self.first[v]..self.first[v + 1]] {
                // Arc `eid` runs v -> u, so its pair is the arc u -> v.
                let u = self.edges[eid as usize].to as usize;
                if self.edges[eid as usize ^ 1].cap > 0 && self.level[u] == u32::MAX {
                    self.level[u] = next;
                    if u == s {
                        return true;
                    }
                    self.queue.push(u);
                }
            }
        }
        false
    }

    /// Finds the first augmenting path, in arc order, whose every arc steps
    /// one level closer to `t`, and pushes flow along it; returns the
    /// amount pushed (0 once the phase is blocked).
    fn augment(&mut self, s: usize, t: usize, limit: u32) -> u32 {
        // Iterative DFS; `path` holds the arc ids from `s` to `cur`.
        self.path.clear();
        let mut cur = s;
        while cur != t {
            let end = self.first[cur + 1];
            let mut advanced = None;
            while self.cursor[cur] < end {
                let eid = self.arcs[self.cursor[cur]];
                let e = self.edges[eid as usize];
                if e.cap > 0 && self.level[e.to as usize] == self.level[cur] - 1 {
                    advanced = Some(eid);
                    break;
                }
                self.cursor[cur] += 1;
            }
            match advanced {
                Some(eid) => {
                    self.path.push(eid);
                    cur = self.edges[eid as usize].to as usize;
                }
                None => {
                    // Dead end: retreat. Levels fall along the path, so it
                    // is empty exactly when `cur` is the source.
                    let Some(eid) = self.path.pop() else {
                        return 0;
                    };
                    // The entering arc can't be used again this phase.
                    cur = self.edges[eid as usize ^ 1].to as usize;
                    self.cursor[cur] += 1;
                }
            }
        }
        let bottleneck = self
            .path
            .iter()
            .fold(limit, |b, &eid| b.min(self.edges[eid as usize].cap));
        for &eid in &self.path {
            self.edges[eid as usize].cap -= bottleneck;
            self.edges[eid as usize ^ 1].cap += bottleneck;
        }
        bottleneck
    }
}

impl Clone for FlowNetwork {
    /// Copies the arcs and the index, and gives the clone BFS-queue and
    /// DFS-path scratch of full capacity: each node enters the queue at
    /// most once, and a path's levels fall by one per arc.
    fn clone(&self) -> Self {
        let n = self.num_nodes();
        Self {
            edges: self.edges.clone(),
            built: self.built.clone(),
            first: self.first.clone(),
            arcs: self.arcs.clone(),
            level: self.level.clone(),
            cursor: self.cursor.clone(),
            queue: Vec::with_capacity(n),
            path: Vec::with_capacity(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 1, 3);
        assert_eq!(f.max_flow(0, 1, u32::MAX), 3);
    }

    #[test]
    fn parallel_paths_sum() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3, unit capacities.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 1);
        f.add_edge(1, 3, 1);
        f.add_edge(0, 2, 1);
        f.add_edge(2, 3, 1);
        assert_eq!(f.max_flow(0, 3, u32::MAX), 2);
    }

    #[test]
    fn bottleneck_limits_flow() {
        // 0 -> 1 (5), 1 -> 2 (2), 0 -> 2 (1).
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 5);
        f.add_edge(1, 2, 2);
        f.add_edge(0, 2, 1);
        assert_eq!(f.max_flow(0, 2, u32::MAX), 3);
    }

    #[test]
    fn limit_stops_early() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 1, 100);
        assert_eq!(f.max_flow(0, 1, 7), 7);
    }

    #[test]
    fn classic_augmenting_path_case() {
        // Diamond with a cross edge that tempts a greedy DFS into a
        // suboptimal first path; residual arcs must fix it.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 1);
        f.add_edge(0, 2, 1);
        f.add_edge(1, 2, 1);
        f.add_edge(1, 3, 1);
        f.add_edge(2, 3, 1);
        assert_eq!(f.max_flow(0, 3, u32::MAX), 2);
    }

    #[test]
    fn zero_flow_when_disconnected() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 4);
        assert_eq!(f.max_flow(0, 2, u32::MAX), 0);
    }

    #[test]
    fn flow_on_reports_used_flow() {
        let mut f = FlowNetwork::new(2);
        let e = f.add_edge(0, 1, 3);
        f.max_flow(0, 1, 2);
        assert_eq!(f.flow_on(e), 2);
    }

    #[test]
    fn reset_restores_built_capacities() {
        let mut f = FlowNetwork::new(4);
        let e = f.add_edge(0, 1, 2);
        f.add_edge(1, 3, 1);
        f.add_edge(1, 2, 1);
        f.add_edge(0, 2, 1);
        f.add_edge(2, 3, 1);
        assert_eq!(f.max_flow(0, 3, u32::MAX), 2);
        assert_eq!(f.max_flow(0, 3, u32::MAX), 0, "the residual stays spent");
        f.reset();
        assert_eq!(f.flow_on(e), 0);
        assert_eq!(f.max_flow(0, 3, u32::MAX), 2);
        f.reset();
        assert_eq!(f.max_flow(1, 3, u32::MAX), 2);
    }

    #[test]
    fn arcs_added_after_a_solve_join_the_index() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 1);
        assert_eq!(f.max_flow(0, 2, u32::MAX), 0);
        f.add_edge(1, 2, 1);
        assert_eq!(f.max_flow(0, 2, u32::MAX), 1);
    }
}
