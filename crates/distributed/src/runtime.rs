//! Synchronous message-passing runtime.
//!
//! The standard round-based distributed-computing model over a network
//! graph: in each round every node reads the messages delivered to it at
//! the end of the previous round, updates its state, and emits messages
//! to neighbors. The runtime tracks rounds and message counts — the two
//! complexity measures the leader-election literature (including Shi &
//! Srimani's follow-up paper on hyper-butterfly election) reports.
//!
//! Every [`RunOutcome`] carries the full per-round breakdown
//! ([`RunOutcome::init_messages`] + [`RunOutcome::round_messages`]),
//! which always sums to [`RunOutcome::messages`].

use hb_graphs::{Graph, NodeId};

/// A message in transit: sender, receiver, payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node (must be a neighbor of `from`).
    pub to: NodeId,
    /// Protocol payload.
    pub payload: M,
}

/// A distributed protocol: per-node state machine.
pub trait Protocol {
    /// Per-node state.
    type State;
    /// Message payload type.
    type Msg: Clone;

    /// Initial state and initial outgoing messages of node `v`.
    /// `neighbors` are `v`'s ports (the node may use ids — the model is
    /// an id-based network, matching the election literature).
    fn init(&self, v: NodeId, neighbors: &[NodeId]) -> (Self::State, Vec<Envelope<Self::Msg>>);

    /// One round: consume this round's inbox, update the state, emit
    /// messages. Returning `true` marks the node locally terminated
    /// (it still receives messages; the run ends when *all* nodes have
    /// terminated and no messages are in flight).
    fn step(
        &self,
        v: NodeId,
        state: &mut Self::State,
        inbox: &[Envelope<Self::Msg>],
        neighbors: &[NodeId],
    ) -> (Vec<Envelope<Self::Msg>>, bool);
}

/// Result of a protocol run.
#[derive(Clone, Debug)]
pub struct RunOutcome<S> {
    /// Final per-node states.
    pub states: Vec<S>,
    /// Rounds executed (init messages are delivered in round 1).
    pub rounds: u32,
    /// Total messages sent (including init messages).
    pub messages: u64,
    /// Whether the run terminated (vs hitting the round limit).
    pub terminated: bool,
    /// Messages sent during the init phase (delivered in round 1).
    pub init_messages: u64,
    /// Messages sent in each executed round; `round_messages[r]` is the
    /// count for round `r + 1`, so `round_messages.len() == rounds` and
    /// `init_messages + round_messages.iter().sum::<u64>() == messages`.
    pub round_messages: Vec<u64>,
}

/// Executes `proto` on `g` synchronously until global termination or
/// `max_rounds`.
///
/// # Panics
/// Panics if a protocol emits a message to a non-neighbor (model
/// violation).
pub fn execute<P: Protocol>(g: &Graph, proto: &P, max_rounds: u32) -> RunOutcome<P::State> {
    let n = g.num_nodes();
    let neighbor_lists: Vec<Vec<NodeId>> = (0..n)
        .map(|v| g.neighbors(v).iter().map(|&w| w as usize).collect())
        .collect();

    let mut states = Vec::with_capacity(n);
    let mut inboxes: Vec<Vec<Envelope<P::Msg>>> = vec![Vec::new(); n];
    let mut messages = 0u64;
    let mut done = vec![false; n];

    let deliver = |inboxes: &mut Vec<Vec<Envelope<P::Msg>>>,
                   out: Vec<Envelope<P::Msg>>,
                   from: NodeId,
                   messages: &mut u64| {
        for env in out {
            assert_eq!(env.from, from, "message must carry its true sender");
            assert!(
                g.has_edge(env.from, env.to),
                "protocol sent over non-edge ({}, {})",
                env.from,
                env.to
            );
            *messages += 1;
            inboxes[env.to].push(env);
        }
    };

    for (v, nb) in neighbor_lists.iter().enumerate() {
        let (st, out) = proto.init(v, nb);
        states.push(st);
        deliver(&mut inboxes, out, v, &mut messages);
    }
    let init_messages = messages;

    let mut rounds = 0u32;
    let mut round_messages: Vec<u64> = Vec::new();
    let mut terminated = false;
    while rounds < max_rounds {
        let in_flight: usize = inboxes.iter().map(Vec::len).sum();
        if in_flight == 0 && done.iter().all(|&d| d) {
            terminated = true;
            break;
        }
        rounds += 1;
        let sent_before = messages;
        let current: Vec<Vec<Envelope<P::Msg>>> =
            std::mem::replace(&mut inboxes, vec![Vec::new(); n]);
        for v in 0..n {
            let (out, fin) = proto.step(v, &mut states[v], &current[v], &neighbor_lists[v]);
            if fin {
                done[v] = true;
            }
            deliver(&mut inboxes, out, v, &mut messages);
        }
        round_messages.push(messages - sent_before);
    }
    if !terminated {
        let in_flight: usize = inboxes.iter().map(Vec::len).sum();
        terminated = in_flight == 0 && done.iter().all(|&d| d);
    }
    debug_assert_eq!(
        init_messages + round_messages.iter().sum::<u64>(),
        messages,
        "message conservation"
    );
    RunOutcome {
        states,
        rounds,
        messages,
        terminated,
        init_messages,
        round_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_graphs::generators;

    /// Trivial protocol: everyone pings every neighbor once, counts
    /// pongs, terminates after receiving one message per neighbor.
    struct PingAll;

    impl Protocol for PingAll {
        type State = usize; // pings received
        type Msg = ();

        fn init(&self, v: NodeId, neighbors: &[NodeId]) -> (usize, Vec<Envelope<()>>) {
            (
                0,
                neighbors
                    .iter()
                    .map(|&w| Envelope {
                        from: v,
                        to: w,
                        payload: (),
                    })
                    .collect(),
            )
        }

        fn step(
            &self,
            _v: NodeId,
            state: &mut usize,
            inbox: &[Envelope<()>],
            neighbors: &[NodeId],
        ) -> (Vec<Envelope<()>>, bool) {
            *state += inbox.len();
            (Vec::new(), *state >= neighbors.len())
        }
    }

    #[test]
    fn ping_all_terminates_in_one_round() {
        let g = generators::cycle(6).unwrap();
        let out = execute(&g, &PingAll, 10);
        assert!(out.terminated);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.messages, 12); // one per directed edge
        assert!(out.states.iter().all(|&s| s == 2));
        // Per-round breakdown: everything is sent at init, nothing after.
        assert_eq!(out.init_messages, 12);
        assert_eq!(out.round_messages, vec![0]);
    }

    #[test]
    fn per_round_counts_sum_to_total() {
        /// Fans a wave out and back: round counts vary, then hit zero.
        struct Wave;
        impl Protocol for Wave {
            type State = bool; // already echoed?
            type Msg = u8;
            fn init(&self, v: NodeId, nb: &[NodeId]) -> (bool, Vec<Envelope<u8>>) {
                if v == 0 {
                    (
                        true,
                        nb.iter()
                            .map(|&w| Envelope {
                                from: v,
                                to: w,
                                payload: 0,
                            })
                            .collect(),
                    )
                } else {
                    (false, Vec::new())
                }
            }
            fn step(
                &self,
                v: NodeId,
                echoed: &mut bool,
                inbox: &[Envelope<u8>],
                nb: &[NodeId],
            ) -> (Vec<Envelope<u8>>, bool) {
                if !inbox.is_empty() && !*echoed {
                    *echoed = true;
                    (
                        nb.iter()
                            .map(|&w| Envelope {
                                from: v,
                                to: w,
                                payload: 1,
                            })
                            .collect(),
                        true,
                    )
                } else {
                    (Vec::new(), true)
                }
            }
        }
        let g = generators::cycle(8).unwrap();
        let out = execute(&g, &Wave, 32);
        assert!(out.terminated);
        assert_eq!(out.round_messages.len(), out.rounds as usize);
        assert_eq!(
            out.init_messages + out.round_messages.iter().sum::<u64>(),
            out.messages,
            "per-round counts must sum to the total"
        );
        // The wave dies out: the final executed round sends nothing.
        assert_eq!(*out.round_messages.last().unwrap(), 0);
        assert!(out.round_messages.iter().any(|&m| m > 0));
    }

    #[test]
    fn round_limit_is_respected() {
        /// Never terminates: bounces a token forever.
        struct Bouncer;
        impl Protocol for Bouncer {
            type State = ();
            type Msg = ();
            fn init(&self, v: NodeId, nb: &[NodeId]) -> ((), Vec<Envelope<()>>) {
                (
                    (),
                    vec![Envelope {
                        from: v,
                        to: nb[0],
                        payload: (),
                    }],
                )
            }
            fn step(
                &self,
                v: NodeId,
                _s: &mut (),
                inbox: &[Envelope<()>],
                nb: &[NodeId],
            ) -> (Vec<Envelope<()>>, bool) {
                (
                    inbox
                        .iter()
                        .map(|_| Envelope {
                            from: v,
                            to: nb[0],
                            payload: (),
                        })
                        .collect(),
                    false,
                )
            }
        }
        let g = generators::cycle(4).unwrap();
        let out = execute(&g, &Bouncer, 7);
        assert!(!out.terminated);
        assert_eq!(out.rounds, 7);
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn sending_over_non_edge_panics() {
        struct Cheater;
        impl Protocol for Cheater {
            type State = ();
            type Msg = ();
            fn init(&self, v: NodeId, _nb: &[NodeId]) -> ((), Vec<Envelope<()>>) {
                (
                    (),
                    vec![Envelope {
                        from: v,
                        to: (v + 2) % 5,
                        payload: (),
                    }],
                )
            }
            fn step(
                &self,
                _v: NodeId,
                _s: &mut (),
                _i: &[Envelope<()>],
                _nb: &[NodeId],
            ) -> (Vec<Envelope<()>>, bool) {
                (Vec::new(), true)
            }
        }
        let g = generators::cycle(5).unwrap();
        execute(&g, &Cheater, 3);
    }
}
