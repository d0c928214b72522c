//! # hb-netsim — packet-level interconnection-network simulator
//!
//! The paper proposes `HB(m, n)` as a multiprocessor interconnect but,
//! being an analytical 1998 paper, reports no measurements. This crate is
//! the substitute testbed (see DESIGN.md §4): a cycle-accurate
//! store-and-forward simulator that *exercises* the claims —
//!
//! * [`topology`] — a uniform adapter over `H_m`, `B_n`, `HD(m, n)`, and
//!   `HB(m, n)` with each topology's own oblivious router (including the
//!   hyper-butterfly's two routing orders for the ablation);
//! * [`sim`] — the run entry points (source or adaptive routing, per-
//!   channel FIFOs, 1 packet/channel/cycle), all on one cycle kernel;
//! * [`workload`] — uniform / permutation / hotspot / bit-complement
//!   traffic, deterministic under seeds;
//! * [`faults`] — fault-injection campaigns measuring survivor
//!   connectivity and pair reachability (Corollary 1, measured), plus
//!   the static [`FaultPlan`] the fault-aware runner routes around;
//! * [`flight`] — the fault-aware simulator with a per-packet **flight
//!   recorder**: sampled packets leave causal span trees (one span per
//!   hop: queue depth, wait, forward decision, reroute attribution);
//! * [`routes`] — precomputed route tables ([`RouteTable`], built once
//!   per `(topology, FaultPlan)`) and the epoch-keyed [`RouteCache`]
//!   with **incremental repair** under plan deltas, so the hot loops
//!   never recompute a route per packet;
//! * [`churn`] — fault-timeline runs ([`FaultTimeline`]): scheduled
//!   mid-run fault/repair events compiled into per-injection routes by
//!   delta-splicing the cache, deterministic across engines and thread
//!   counts;
//! * [`pool`] — the slab [`pool::PacketPool`] backing the simulators'
//!   queues (4-byte keys, zero per-hop allocation in steady state);
//! * the sharded parallel engine behind [`SimConfig::with_threads`]:
//!   the same cycle kernel per shard plus ordered cross-shard mailboxes,
//!   byte-identical to a serial run at every thread count (DESIGN.md §9
//!   and §17, "One cycle kernel");
//! * [`forwarding`] — edge forwarding index (static routing congestion,
//!   the VLSI-quality metric).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
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

pub use churn::{run_adaptive_with_timeline, run_bounded_with_timeline, run_with_timeline};
pub use faults::{FaultEvent, FaultEventKind, FaultPlan, FaultReason, FaultTarget, FaultTimeline};
pub use flight::{run_with_faults, TraceSampling};
pub use routes::{RepairStats, RouteCache, RouteTable};
pub use sim::{
    run, run_adaptive, run_bounded, run_with_mem, Injection, MemStats, SimConfig, SimStats,
};
pub use topology::{
    ButterflyNet, HbRouteOrder, HyperButterflyNet, HyperDeBruijnNet, HypercubeNet,
    ImplicitTopology, NetTopology, MAX_PRODUCTIVE,
};
