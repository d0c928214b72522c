//! # hb-core — the hyper-butterfly network `HB(m, n)`
//!
//! Reproduction of *Shi & Srimani, "Hyper-Butterfly Network: A Scalable
//! Optimally Fault Tolerant Architecture" (IPPS 1998)*. `HB(m, n)` is the
//! Cartesian product of the hypercube `H_m` and the wrapped butterfly
//! `B_n`: a **regular** Cayley graph of degree `m + 4` on `n * 2^(m+n)`
//! nodes with logarithmic diameter, very simple optimal routing, and
//! **maximal fault tolerance** (`kappa = m + 4`).
//!
//! Module map (paper result -> module):
//!
//! | Paper | Module |
//! |---|---|
//! | Definition 3, Theorems 1–2, Remarks 3–4 | [`graph`], [`node`] |
//! | Remark 5 (slice decomposition) | [`decompose`] |
//! | §3 optimal routing, Theorem 3 (diameter), Remarks 6–8 | [`routing`] |
//! | Theorem 5, Corollary 1 (`m + 4` disjoint paths) | [`disjoint`] |
//! | Remark 10 (fault-tolerant routing) | [`fault_routing`] |
//! | §4 embeddings (Lemmas 1–4, Theorem 4) | [`embed`] |
//! | Theorem 4 applied (mesh-of-trees matvec) | [`emulate`] |
//! | Conclusion (optimal broadcasting) | [`broadcast`] |
//! | Figures 1–2 (comparison tables) | [`metrics`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod decompose;
pub mod disjoint;
pub mod embed;
pub mod emulate;
pub mod fault_routing;
pub mod graph;
pub mod metrics;
pub mod node;
pub mod routing;

pub use graph::{EdgeKind, HyperButterfly};
pub use node::HbNode;
