//! Distributed BFS spanning-tree construction and convergecast.
//!
//! The building blocks the election/broadcast literature composes: the
//! root floods a `Grow` wave (each node adopts the first sender as its
//! parent — yielding a BFS tree, since the wave advances one hop per
//! round), children `Ack` their parents, and a convergecast folds an
//! aggregate (here: subtree size) up to the root. The root learning
//! `size == N` doubles as termination detection.

use crate::runtime::{execute, Envelope, Protocol, RunOutcome};
use hb_graphs::{Graph, NodeId};

/// Per-node spanning-tree state.
#[derive(Clone, Debug)]
pub struct TreeState {
    /// Parent in the tree (`usize::MAX` until joined; root points to
    /// itself).
    pub parent: NodeId,
    /// BFS depth (0 at the root).
    pub depth: u32,
    /// Confirmed children.
    pub children: Vec<NodeId>,
    /// Neighbors we still await a grow-reply from.
    pending: usize,
    /// Accumulated subtree size (self + reported children subtrees).
    pub subtree_size: usize,
    /// Convergecast reports received so far.
    reports_received: usize,
    /// Whether this node has reported to its parent (or, for the root,
    /// learned the total).
    pub reported: bool,
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeMsg {
    /// Join my subtree (carries sender depth).
    Grow(u32),
    /// Yes, you are my parent.
    Accept,
    /// No, I already have a parent.
    Reject,
    /// Convergecast: my subtree has this many nodes.
    Size(usize),
}

struct BfsTreeProtocol {
    root: NodeId,
}

impl Protocol for BfsTreeProtocol {
    type State = TreeState;
    type Msg = TreeMsg;

    fn init(&self, v: NodeId, neighbors: &[NodeId]) -> (TreeState, Vec<Envelope<TreeMsg>>) {
        let is_root = v == self.root;
        let state = TreeState {
            parent: if is_root { v } else { usize::MAX },
            depth: 0,
            children: Vec::new(),
            pending: if is_root { neighbors.len() } else { 0 },
            subtree_size: 1,
            reports_received: 0,
            reported: false,
        };
        let out = if is_root {
            neighbors
                .iter()
                .map(|&w| Envelope {
                    from: v,
                    to: w,
                    payload: TreeMsg::Grow(0),
                })
                .collect()
        } else {
            Vec::new()
        };
        (state, out)
    }

    fn step(
        &self,
        v: NodeId,
        st: &mut TreeState,
        inbox: &[Envelope<TreeMsg>],
        neighbors: &[NodeId],
    ) -> (Vec<Envelope<TreeMsg>>, bool) {
        let mut out = Vec::new();
        for env in inbox {
            match env.payload {
                TreeMsg::Grow(d) => {
                    if st.parent == usize::MAX {
                        // First wave to arrive: adopt (BFS property).
                        st.parent = env.from;
                        st.depth = d + 1;
                        out.push(Envelope {
                            from: v,
                            to: env.from,
                            payload: TreeMsg::Accept,
                        });
                        let others: Vec<NodeId> = neighbors
                            .iter()
                            .copied()
                            .filter(|&w| w != env.from)
                            .collect();
                        st.pending = others.len();
                        for w in others {
                            out.push(Envelope {
                                from: v,
                                to: w,
                                payload: TreeMsg::Grow(st.depth),
                            });
                        }
                    } else {
                        out.push(Envelope {
                            from: v,
                            to: env.from,
                            payload: TreeMsg::Reject,
                        });
                    }
                }
                TreeMsg::Accept => {
                    st.children.push(env.from);
                    st.pending -= 1;
                }
                TreeMsg::Reject => {
                    st.pending -= 1;
                }
                TreeMsg::Size(s) => {
                    st.subtree_size += s;
                }
            }
        }
        // Convergecast: once all grow-replies are in and every child's
        // Size report has arrived, report upward (leaves report as soon
        // as their replies are in).
        st.reports_received += inbox
            .iter()
            .filter(|e| matches!(e.payload, TreeMsg::Size(_)))
            .count();
        let joined = st.parent != usize::MAX;
        if joined && !st.reported && st.pending == 0 && st.reports_received == st.children.len() {
            st.reported = true;
            if v != self.root {
                out.push(Envelope {
                    from: v,
                    to: st.parent,
                    payload: TreeMsg::Size(st.subtree_size),
                });
            }
        }
        (out, st.reported)
    }
}

/// Runs distributed BFS-tree construction + convergecast from `root`.
pub fn build_tree(g: &Graph, root: NodeId) -> RunOutcome<TreeState> {
    execute(
        g,
        &BfsTreeProtocol { root },
        4 * u32::try_from(g.num_nodes()).expect("invariant: round budgets assume < 2^32 nodes")
            + 16,
    )
}

/// Validates the outcome: terminated; parents form a tree rooted at
/// `root` whose edges are graph edges; depths are BFS-exact; the root's
/// subtree size is `N`.
pub fn validate(g: &Graph, root: NodeId, out: &RunOutcome<TreeState>) -> Result<(), String> {
    if !out.terminated {
        return Err("tree construction did not terminate".into());
    }
    let bfs = hb_graphs::traverse::bfs(g, root);
    for (v, st) in out.states.iter().enumerate() {
        if v == root {
            if st.parent != root {
                return Err("root parent must be itself".into());
            }
            if st.subtree_size != g.num_nodes() {
                return Err(format!(
                    "root counted {} nodes, expected {}",
                    st.subtree_size,
                    g.num_nodes()
                ));
            }
            continue;
        }
        if st.parent == usize::MAX {
            return Err(format!("node {v} never joined"));
        }
        if !g.has_edge(v, st.parent) {
            return Err(format!(
                "tree edge ({v}, {}) is not a graph edge",
                st.parent
            ));
        }
        if st.depth != bfs.dist[v] {
            return Err(format!(
                "node {v} depth {} != BFS distance {}",
                st.depth, bfs.dist[v]
            ));
        }
        if out.states[st.parent].depth + 1 != st.depth {
            return Err(format!("depth of {v} inconsistent with parent"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::HyperButterfly;
    use hb_graphs::generators;

    #[test]
    fn tree_on_cycle() {
        let g = generators::cycle(8).unwrap();
        let out = build_tree(&g, 3);
        validate(&g, 3, &out).unwrap();
    }

    #[test]
    fn tree_on_hyper_butterfly() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let out = build_tree(&g, 0);
        validate(&g, 0, &out).unwrap();
        // Construction + convergecast completes in O(diameter) rounds.
        assert!(out.rounds <= 4 * hb.diameter() + 8, "{}", out.rounds);
    }

    #[test]
    fn tree_on_mesh_counts_everyone() {
        let g = generators::mesh(4, 5).unwrap();
        let out = build_tree(&g, 7);
        validate(&g, 7, &out).unwrap();
        assert_eq!(out.states[7].subtree_size, 20);
    }
}
