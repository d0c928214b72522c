//! # hb-hypercube — the binary hypercube `H_m`
//!
//! One of the two factors of the hyper-butterfly product `HB(m, n) =
//! H_m x B_n` (the other is `hb-butterfly`). Implements everything the
//! paper relies on from hypercube folklore:
//!
//! * [`cube`] — the topology itself (labels, neighbors, Cayley structure,
//!   counts, diameter `m`, connectivity `m`);
//! * [`routing`] — bit-fixing shortest routing with arbitrary correction
//!   orders (`d!` shortest paths);
//! * [`disjoint`] — the classic `m` internally vertex-disjoint paths
//!   (Saad & Schultz), reused verbatim by the paper's Theorem 5;
//! * [`embed`] — Gray-code Hamiltonian cycles, odd-length parity paths
//!   between adjacent nodes, and even cycles of every length `4..=2^m`
//!   (bipancyclicity, cited by the paper's Remark 9);
//! * [`broadcast`] — optimal `m`-round binomial-tree broadcast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod cube;
pub mod disjoint;
pub mod embed;
pub mod routing;

pub use cube::Hypercube;
