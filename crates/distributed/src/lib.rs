//! # hb-distributed — distributed algorithms on hyper-butterfly networks
//!
//! The paper's conclusion and the authors' follow-up work ("Leader
//! Election in Hyper-Butterfly Graphs") treat `HB(m, n)` as a platform
//! for distributed computation. This crate provides the standard
//! synchronous message-passing model and the two primitives that work
//! builds on:
//!
//! * [`runtime`] — the round-based execution engine (per-node state
//!   machines, neighbor-only messaging, round/message accounting with
//!   the per-round breakdown in every [`RunOutcome`], the protocols'
//!   only report);
//! * [`election`] — min-id flooding leader election with diameter-based
//!   termination detection (`O(diameter)` rounds on `HB(m, n)`, whose
//!   diameter `m + n + floor(n/2)` every node can know a priori);
//! * [`allreduce`] — tree-based all-reduce (sum), the canonical
//!   multiprocessor collective;
//! * [`gossip`] — all-to-all token dissemination by incremental
//!   flooding (the all-to-all counterpart of the paper's broadcast);
//! * [`spanning_tree`] — distributed BFS spanning-tree construction with
//!   an accept/reject handshake and a subtree-size convergecast that
//!   doubles as termination detection at the root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allreduce;
pub mod election;
pub mod gossip;
pub mod runtime;
pub mod spanning_tree;

pub use runtime::{execute, Envelope, Protocol, RunOutcome};
