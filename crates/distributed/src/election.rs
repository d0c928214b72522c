//! Leader election by extrema flooding — the problem of Shi & Srimani's
//! follow-up paper *"Leader Election in Hyper-Butterfly Graphs"*.
//!
//! Every node floods the smallest id it has seen; a node forwards only
//! *improvements*, so each node's best-id value decreases at most
//! `log2 N`-ish times and the protocol stabilises after eccentricity
//! rounds. Termination detection uses the standard diameter-bound
//! technique: the network diameter is known (it is, for all topologies
//! here — e.g. `m + n + floor(n/2)` for `HB(m, n)`), and a node
//! terminates once its best value has been stable for `diameter` rounds.
//!
//! Complexity on `HB(m, n)`: `O(diameter)` rounds and `O(E * diameter)`
//! messages worst case, `O(E)`-ish in practice — the benches report the
//! measured counts next to the graph parameters.

use crate::runtime::{execute, Envelope, Protocol, RunOutcome};
use hb_graphs::{Graph, NodeId};

/// Per-node election state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionState {
    /// Smallest id seen so far (the eventual leader).
    pub leader: NodeId,
    /// Rounds since `leader` last changed.
    pub stable_rounds: u32,
    /// Whether this node considers the election decided.
    pub decided: bool,
}

struct MinIdFlood {
    diameter: u32,
}

impl Protocol for MinIdFlood {
    type State = ElectionState;
    type Msg = NodeId; // candidate leader id

    fn init(&self, v: NodeId, neighbors: &[NodeId]) -> (ElectionState, Vec<Envelope<NodeId>>) {
        (
            ElectionState {
                leader: v,
                stable_rounds: 0,
                decided: false,
            },
            neighbors
                .iter()
                .map(|&w| Envelope {
                    from: v,
                    to: w,
                    payload: v,
                })
                .collect(),
        )
    }

    fn step(
        &self,
        v: NodeId,
        state: &mut ElectionState,
        inbox: &[Envelope<NodeId>],
        neighbors: &[NodeId],
    ) -> (Vec<Envelope<NodeId>>, bool) {
        let best_incoming = inbox.iter().map(|e| e.payload).min();
        match best_incoming {
            Some(b) if b < state.leader => {
                state.leader = b;
                state.stable_rounds = 0;
                let fwd = neighbors
                    .iter()
                    .map(|&w| Envelope {
                        from: v,
                        to: w,
                        payload: b,
                    })
                    .collect();
                (fwd, false)
            }
            _ => {
                state.stable_rounds += 1;
                if state.stable_rounds >= self.diameter {
                    state.decided = true;
                }
                (Vec::new(), state.decided)
            }
        }
    }
}

/// Runs min-id flooding election on `g` with the known `diameter`.
/// Returns the runtime outcome; on success every node's state names the
/// same leader (the globally smallest id, i.e. 0 for our dense graphs).
///
/// # Examples
/// ```
/// use hb_core::HyperButterfly;
/// use hb_distributed::election;
/// let hb = HyperButterfly::new(1, 3).unwrap();
/// let g = hb.build_graph().unwrap();
/// let outcome = election::elect(&g, hb.diameter());
/// assert_eq!(election::validate(&outcome).unwrap(), 0);
/// ```
pub fn elect(g: &Graph, diameter: u32) -> RunOutcome<ElectionState> {
    // Worst case: the min value propagates one hop per round (diameter
    // rounds), then stability counting takes diameter more.
    execute(g, &MinIdFlood { diameter }, 4 * diameter + 8)
}

/// Validates an election outcome: terminated, unanimous, and the leader
/// is the smallest id.
pub fn validate(out: &RunOutcome<ElectionState>) -> Result<NodeId, String> {
    if !out.terminated {
        return Err("election did not terminate".into());
    }
    let leader = out.states[0].leader;
    if leader != 0 {
        return Err(format!("leader {leader} is not the minimum id"));
    }
    for (v, s) in out.states.iter().enumerate() {
        if !s.decided {
            return Err(format!("node {v} never decided"));
        }
        if s.leader != leader {
            return Err(format!("node {v} disagrees: {} != {leader}", s.leader));
        }
    }
    Ok(leader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::HyperButterfly;
    use hb_graphs::generators;

    #[test]
    fn election_on_cycle() {
        let g = generators::cycle(9).unwrap();
        let out = elect(&g, 4);
        assert_eq!(validate(&out).unwrap(), 0);
        // Rounds: propagation (<= 4) + stability window (4) + slack.
        assert!(out.rounds <= 16, "{}", out.rounds);
    }

    #[test]
    fn election_on_hyper_butterfly() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let out = elect(&g, hb.diameter());
        assert_eq!(validate(&out).unwrap(), 0);
        assert!(out.rounds <= 3 * hb.diameter() + 8);
    }

    #[test]
    fn election_message_count_is_bounded() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let out = elect(&g, hb.diameter());
        validate(&out).unwrap();
        // Each node forwards only improvements: <= (improvements + 1)
        // bursts of degree messages. Crude but meaningful global bound:
        let e2 = 2 * g.num_edges() as u64;
        assert!(
            out.messages <= e2 * (hb.diameter() as u64 + 1),
            "{}",
            out.messages
        );
    }

    #[test]
    fn election_exposes_per_round_message_counts() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        let out = elect(&g, hb.diameter());
        validate(&out).unwrap();
        assert_eq!(out.round_messages.len(), out.rounds as usize);
        assert_eq!(
            out.init_messages + out.round_messages.iter().sum::<u64>(),
            out.messages
        );
        // Every node floods its own id at init.
        assert_eq!(out.init_messages, 2 * g.num_edges() as u64);
        // The stability window at the end is silent.
        assert_eq!(*out.round_messages.last().unwrap(), 0);
    }

    #[test]
    fn validate_rejects_disagreement() {
        let g = generators::path(2).unwrap();
        let mut out = elect(&g, 1);
        validate(&out).unwrap();
        out.states[1].leader = 1;
        assert!(validate(&out).is_err());
    }
}
