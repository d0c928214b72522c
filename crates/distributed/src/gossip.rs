//! All-to-all dissemination (gossip) by incremental flooding.
//!
//! Every node must learn the full id set (equivalently: every node's
//! token reaches every other node). Each round a node forwards only the
//! tokens it learned in the previous round, so a token crosses each edge
//! at most once per direction and the protocol finishes in eccentricity
//! rounds with `O(N * E)` worst-case messages. Gossip is the all-to-all
//! counterpart of the paper's one-to-all broadcast and the usual follower
//! of leader election (disseminating the leader's configuration).

use crate::runtime::{execute, Envelope, Protocol, RunOutcome};
use hb_graphs::{Graph, NodeId};

/// Per-node gossip state.
#[derive(Clone, Debug)]
pub struct GossipState {
    /// Which tokens this node has seen (`known[t]` = token of node `t`).
    pub known: Vec<bool>,
    /// Number of tokens seen.
    pub count: usize,
}

struct Flooding {
    population: usize,
}

impl Protocol for Flooding {
    type State = GossipState;
    type Msg = Vec<NodeId>; // batch of newly learned tokens

    fn init(&self, v: NodeId, neighbors: &[NodeId]) -> (GossipState, Vec<Envelope<Vec<NodeId>>>) {
        let mut known = vec![false; self.population];
        known[v] = true;
        (
            GossipState { known, count: 1 },
            neighbors
                .iter()
                .map(|&w| Envelope {
                    from: v,
                    to: w,
                    payload: vec![v],
                })
                .collect(),
        )
    }

    fn step(
        &self,
        v: NodeId,
        st: &mut GossipState,
        inbox: &[Envelope<Vec<NodeId>>],
        neighbors: &[NodeId],
    ) -> (Vec<Envelope<Vec<NodeId>>>, bool) {
        let mut fresh = Vec::new();
        for env in inbox {
            for &t in &env.payload {
                if !st.known[t] {
                    st.known[t] = true;
                    st.count += 1;
                    fresh.push(t);
                }
            }
        }
        let out = if fresh.is_empty() {
            Vec::new()
        } else {
            neighbors
                .iter()
                .map(|&w| Envelope {
                    from: v,
                    to: w,
                    payload: fresh.clone(),
                })
                .collect()
        };
        (out, st.count == self.population)
    }
}

/// Runs gossip on `g`; terminates once every node knows every token.
pub fn gossip(g: &Graph) -> RunOutcome<GossipState> {
    execute(
        g,
        &Flooding {
            population: g.num_nodes(),
        },
        4 * u32::try_from(g.num_nodes()).expect("invariant: round budgets assume < 2^32 nodes") + 8,
    )
}

/// Validates: terminated and every node knows all `N` tokens.
pub fn validate(g: &Graph, out: &RunOutcome<GossipState>) -> Result<(), String> {
    if !out.terminated {
        return Err("gossip did not terminate".into());
    }
    for (v, st) in out.states.iter().enumerate() {
        if st.count != g.num_nodes() || st.known.iter().any(|&k| !k) {
            return Err(format!("node {v} learned only {} tokens", st.count));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::HyperButterfly;
    use hb_graphs::{generators, shortest};

    #[test]
    fn gossip_on_cycle() {
        let g = generators::cycle(7).unwrap();
        let out = gossip(&g);
        validate(&g, &out).unwrap();
    }

    #[test]
    fn gossip_on_hyper_butterfly_finishes_in_diameter_plus_one_rounds() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let out = gossip(&g);
        validate(&g, &out).unwrap();
        // Tokens advance one hop per round: diameter rounds to spread,
        // one more for everyone to observe completion.
        let d = shortest::diameter(&g).unwrap();
        assert!(out.rounds <= d + 2, "{} vs diameter {d}", out.rounds);
    }

    #[test]
    fn gossip_exposes_per_round_message_counts() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let out = gossip(&g);
        validate(&g, &out).unwrap();
        assert_eq!(out.round_messages.len(), out.rounds as usize);
        assert_eq!(
            out.init_messages + out.round_messages.iter().sum::<u64>(),
            out.messages
        );
        // Token batches shrink as knowledge saturates; the final round
        // is silent (everyone already knows everything).
        assert_eq!(*out.round_messages.last().unwrap(), 0);
    }

    #[test]
    fn gossip_message_bound() {
        // Each token crosses each directed edge at most once.
        let g = generators::mesh(3, 3).unwrap();
        let out = gossip(&g);
        validate(&g, &out).unwrap();
        // Envelopes batch tokens, so envelope count <= token-crossings.
        let bound = (g.num_nodes() as u64) * 2 * g.num_edges() as u64;
        assert!(out.messages <= bound, "{} > {bound}", out.messages);
    }
}
