//! # hb-netsim — packet-level interconnection-network simulator
//!
//! The paper proposes `HB(m, n)` as a multiprocessor interconnect but,
//! being an analytical 1998 paper, reports no measurements. This crate is
//! the substitute testbed (see DESIGN.md §4): a cycle-accurate
//! store-and-forward simulator that *exercises* the claims —
//!
//! * [`topology`] — a uniform adapter over `H_m`, `B_n`, `HD(m, n)`, and
//!   `HB(m, n)` with each topology's own oblivious router (including the
//!   hyper-butterfly's two routing orders for the ablation). `HB(m, n)`
//!   comes materialised ([`HyperButterflyNet::new`]) or graph-free
//!   ([`HyperButterflyNet::implicit`], million-node shapes); whether a
//!   topology owns a graph is what picks dense or sparse channel state;
//! * [`sim`] — [`Sim`], the one run entry point: a [`Model`] (oblivious,
//!   bounded-queue, or adaptive routing over per-channel FIFOs, 1
//!   packet/channel/cycle), optionally a fault plan and a timeline of
//!   mid-run fault/repair events, all on one cycle kernel;
//! * [`workload`] — uniform / permutation / hotspot / bit-complement
//!   traffic, deterministic under seeds;
//! * [`faults`] — fault-injection campaigns measuring survivor
//!   connectivity and pair reachability (Corollary 1, measured), plus
//!   the static [`FaultPlan`] the fault-aware runner routes around;
//! * [`flight`] — the per-packet **flight recorder** of fault-aware
//!   runs: sampled packets leave causal span trees (one span per hop:
//!   queue depth, wait, forward decision, reroute attribution);
//! * [`routes`] — the one route compile every source-routed run goes
//!   through: the epoch-keyed [`RouteCache`] with **incremental
//!   repair** under the deltas of a [`FaultTimeline`], frozen into a
//!   per-injection [`RouteTable`] before the cycle loop, so the hot
//!   loops never recompute a route per packet; a static plan is the
//!   empty timeline;
//! * [`pool`] — the slab [`pool::PacketPool`] and the channel queues
//!   threaded through its 4-byte keys (one 16-byte record per channel,
//!   zero per-hop allocation in steady state);
//! * the sharded parallel engine behind [`SimConfig::with_threads`]:
//!   the same cycle kernel per shard plus ordered cross-shard mailboxes,
//!   byte-identical to a serial run at every thread count (DESIGN.md §9
//!   and §17, "One cycle kernel");
//! * [`forwarding`] — edge forwarding index (static routing congestion,
//!   the VLSI-quality metric).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod flight;
pub mod forwarding;
mod kernel;
mod par;
pub mod pool;
pub mod routes;
pub mod sim;
pub mod topology;
mod tsrec;
pub mod workload;

pub use faults::{FaultEvent, FaultEventKind, FaultPlan, FaultReason, FaultTarget, FaultTimeline};
pub use flight::TraceSampling;
pub use routes::{RepairStats, RouteCache, RouteTable};
pub use sim::{
    run, run_adaptive, run_with_timeline, Injection, MemStats, Model, Sim, SimConfig, SimStats,
};
pub use topology::{
    ButterflyNet, HbRouteOrder, HyperButterflyNet, HyperDeBruijnNet, HypercubeNet, NetTopology,
    MAX_PRODUCTIVE,
};
