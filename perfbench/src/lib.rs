//! # hb-perfbench — the repository benchmark
//!
//! One command times the simulator (`hb-netsim`, `hb-telemetry`) and the
//! structure layer (`hb-graphs`, `hb-core`) on four workloads, end to end
//! with tracing off and layer by layer in a separate traced run. Every
//! operation's output is checked against invariants; see `README.md`.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod machine;
pub mod probe;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
