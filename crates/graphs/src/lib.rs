//! # hb-graphs — graph substrate for the hyper-butterfly reproduction
//!
//! A from-scratch graph library providing exactly what the reproduction of
//! *Shi & Srimani, "Hyper-Butterfly Network: A Scalable Optimally Fault
//! Tolerant Architecture" (IPPS 1998)* needs:
//!
//! * [`graph::Graph`] — CSR simple undirected graphs with validated
//!   construction from edge lists or neighbor functions;
//! * [`traverse`] — BFS / DFS / components / fault-avoiding search;
//! * [`shortest`] — APSP, eccentricities, diameter, distance
//!   distribution statistics;
//! * [`flow`] — Dinic max-flow;
//! * [`connectivity`] — exact vertex/edge connectivity and maximum families
//!   of internally vertex-disjoint paths (Menger certificates);
//! * [`props`] — degree statistics, regularity, bipartiteness, girth;
//! * [`generators`] — guest graphs for the embedding theorems (cycles,
//!   meshes, tori, complete binary trees, meshes of trees);
//! * [`embedding`] — validation of dilation-1 (subgraph) embeddings.
//!
//! The crate is deliberately free of topology-specific knowledge: the
//! hypercube, butterfly, de Bruijn, and hyper-butterfly crates build on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod connectivity;
pub mod cycles;
pub mod embedding;
pub mod error;
pub mod flow;
pub mod generators;
pub mod graph;
pub mod props;
pub mod shortest;
pub mod structure;
pub mod traverse;

pub use error::{GraphError, Result};
pub use graph::{Graph, NodeId};
