//! All-reduce: every node contributes a value; every node learns the
//! global aggregate (here: the sum).
//!
//! The canonical multiprocessor collective, composed from the two
//! primitives this crate already exercises: a BFS spanning tree grows
//! from the root, values **converge-cast** up it (each node reports its
//! subtree sum once all children reported), and the total **broadcasts**
//! back down. Round complexity `O(diameter)`, message complexity
//! `O(E + N)`.

use crate::runtime::{execute, Envelope, Protocol, RunOutcome};
use hb_graphs::{Graph, NodeId};

/// Per-node all-reduce state.
#[derive(Clone, Debug)]
pub struct AllReduceState {
    /// Parent in the tree (root points to itself; `usize::MAX` = not yet
    /// joined).
    pub parent: NodeId,
    /// Confirmed children.
    children: Vec<NodeId>,
    pending_replies: usize,
    reports_received: usize,
    /// Own value plus reported subtree sums.
    subtree_sum: i64,
    reported: bool,
    /// The global sum, once learned.
    pub total: Option<i64>,
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Msg {
    Grow,
    Accept,
    Reject,
    Up(i64),
    Down(i64),
}

struct AllReduce<'a> {
    root: NodeId,
    values: &'a [i64],
}

impl Protocol for AllReduce<'_> {
    type State = AllReduceState;
    type Msg = Msg;

    fn init(&self, v: NodeId, neighbors: &[NodeId]) -> (AllReduceState, Vec<Envelope<Msg>>) {
        let is_root = v == self.root;
        let st = AllReduceState {
            parent: if is_root { v } else { usize::MAX },
            children: Vec::new(),
            pending_replies: if is_root { neighbors.len() } else { 0 },
            reports_received: 0,
            subtree_sum: self.values[v],
            reported: false,
            total: None,
        };
        let out = if is_root {
            neighbors
                .iter()
                .map(|&w| Envelope {
                    from: v,
                    to: w,
                    payload: Msg::Grow,
                })
                .collect()
        } else {
            Vec::new()
        };
        (st, out)
    }

    fn step(
        &self,
        v: NodeId,
        st: &mut AllReduceState,
        inbox: &[Envelope<Msg>],
        neighbors: &[NodeId],
    ) -> (Vec<Envelope<Msg>>, bool) {
        let mut out = Vec::new();
        for env in inbox {
            match env.payload {
                Msg::Grow => {
                    if st.parent == usize::MAX {
                        st.parent = env.from;
                        out.push(Envelope {
                            from: v,
                            to: env.from,
                            payload: Msg::Accept,
                        });
                        let others: Vec<NodeId> = neighbors
                            .iter()
                            .copied()
                            .filter(|&w| w != env.from)
                            .collect();
                        st.pending_replies = others.len();
                        for w in others {
                            out.push(Envelope {
                                from: v,
                                to: w,
                                payload: Msg::Grow,
                            });
                        }
                    } else {
                        out.push(Envelope {
                            from: v,
                            to: env.from,
                            payload: Msg::Reject,
                        });
                    }
                }
                Msg::Accept => {
                    st.children.push(env.from);
                    st.pending_replies -= 1;
                }
                Msg::Reject => {
                    st.pending_replies -= 1;
                }
                Msg::Up(s) => {
                    st.subtree_sum += s;
                    st.reports_received += 1;
                }
                Msg::Down(total) => {
                    st.total = Some(total);
                    for &c in &st.children {
                        out.push(Envelope {
                            from: v,
                            to: c,
                            payload: Msg::Down(total),
                        });
                    }
                }
            }
        }
        // Converge-cast upward once the subtree is settled.
        let joined = st.parent != usize::MAX;
        if joined
            && !st.reported
            && st.pending_replies == 0
            && st.reports_received == st.children.len()
        {
            st.reported = true;
            if v == self.root {
                st.total = Some(st.subtree_sum);
                for &c in &st.children {
                    out.push(Envelope {
                        from: v,
                        to: c,
                        payload: Msg::Down(st.subtree_sum),
                    });
                }
            } else {
                out.push(Envelope {
                    from: v,
                    to: st.parent,
                    payload: Msg::Up(st.subtree_sum),
                });
            }
        }
        (out, st.total.is_some())
    }
}

/// Runs all-reduce (sum) of `values` rooted at `root`.
///
/// # Panics
/// Panics if `values.len() != g.num_nodes()`.
pub fn allreduce_sum(g: &Graph, root: NodeId, values: &[i64]) -> RunOutcome<AllReduceState> {
    assert_eq!(values.len(), g.num_nodes(), "one value per node");
    execute(
        g,
        &AllReduce { root, values },
        6 * u32::try_from(g.num_nodes()).expect("invariant: round budgets assume < 2^32 nodes")
            + 16,
    )
}

/// Validates: terminated and every node learned the exact global sum.
pub fn validate(values: &[i64], out: &RunOutcome<AllReduceState>) -> Result<i64, String> {
    if !out.terminated {
        return Err("all-reduce did not terminate".into());
    }
    let expected: i64 = values.iter().sum();
    for (v, st) in out.states.iter().enumerate() {
        match st.total {
            Some(t) if t == expected => {}
            Some(t) => return Err(format!("node {v} learned {t}, expected {expected}")),
            None => return Err(format!("node {v} never learned the total")),
        }
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::HyperButterfly;
    use hb_graphs::generators;

    #[test]
    fn allreduce_on_cycle() {
        let g = generators::cycle(9).unwrap();
        let values: Vec<i64> = (0..9).map(|v| v * v).collect();
        let out = allreduce_sum(&g, 4, &values);
        assert_eq!(
            validate(&values, &out).unwrap(),
            (0..9).map(|v| v * v).sum::<i64>()
        );
    }

    #[test]
    fn allreduce_on_hyper_butterfly() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let values: Vec<i64> = (0..g.num_nodes() as i64).collect();
        let out = allreduce_sum(&g, 0, &values);
        let total = validate(&values, &out).unwrap();
        assert_eq!(total, (96 * 95) / 2);
        // O(diameter) rounds.
        assert!(out.rounds <= 6 * hb.diameter() + 8, "{}", out.rounds);
    }

    #[test]
    fn allreduce_with_negative_values() {
        let g = generators::mesh(3, 4).unwrap();
        let values: Vec<i64> = (0..12).map(|v| if v % 2 == 0 { -v } else { v }).collect();
        let out = allreduce_sum(&g, 7, &values);
        validate(&values, &out).unwrap();
    }
}
