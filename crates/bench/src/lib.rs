//! # hb-bench — experiment harness for every table and figure
//!
//! The paper's evaluation consists of two comparison tables (Figures 1
//! and 2); its theorems imply further measurable claims. Each module
//! regenerates one experiment (the DESIGN.md experiment index maps them):
//!
//! * [`fig1`] — Figure 1, the four-topology comparison (E: Figure 1);
//! * [`fig2`] — Figure 2, `HB(3,8)` vs `HD(3,11)` vs `HD(6,8)` (E: Figure 2);
//! * [`routing_exp`] — E3: routing optimality + distance profile;
//! * [`disjoint_exp`] — E4: Theorem-5 families, lengths, certification;
//! * [`fault_exp`] — E5: fault-injection sweeps + Remark-10 router;
//! * [`embed_exp`] — E6: the Section-4 embedding suite;
//! * [`broadcast_exp`] — E7: broadcast rounds vs the single-port bound;
//! * [`netsim_exp`] — E8: packet-level simulation + routing-order and
//!   adaptivity ablations;
//! * [`congestion_exp`] — E9 (extension): edge forwarding index;
//! * [`distributed_exp`] — E10 (extension): leader election, spanning
//!   tree, gossip (the authors' follow-up work);
//! * [`baseline`] — the bench regression gate: a committed seeded
//!   baseline (`BENCH_baseline.json`) plus a tolerance-based comparator
//!   behind `hbnet bench --check`;
//! * [`perf`] — the gate's exact engine counters: the sharded engine at
//!   a fixed thread ladder, route repair, the adaptive router and the
//!   million-node frontier.
//!
//! No module reads the wall clock; timing lives in `perfbench/`.
//!
//! The one binary, `run_all`, runs each experiment once and writes its
//! table (plus a CSV where the table has one) into `results/`; README.md
//! maps each table to its file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod broadcast_exp;
pub mod congestion_exp;
pub mod csv;
pub mod disjoint_exp;
pub mod distributed_exp;
pub mod embed_exp;
pub mod fault_exp;
pub mod fig1;
pub mod fig2;
pub mod netsim_exp;
pub mod perf;
pub mod routing_exp;
