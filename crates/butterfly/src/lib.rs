//! # hb-butterfly — the wrapped butterfly `B_n`
//!
//! The second factor of the hyper-butterfly product `HB(m, n) = H_m x B_n`.
//! `B_n` is presented both ways the paper does (Remark 2):
//!
//! * [`cayley`] — the constant-degree-4 Cayley presentation over signed
//!   cyclic permutations with generators `g, f, g⁻¹, f⁻¹` (Vadapalli &
//!   Srimani, the paper's reference \[4\]);
//! * [`classic`] — the `(word, level)` presentation, plus the computed
//!   isomorphism between the two;
//! * [`routing`] — exact optimal routing via minimum gap-covering walks on
//!   the level cycle (verified exhaustively against BFS), realising the
//!   diameter `n + floor(n/2)` of Remark 1;
//! * [`disjoint`] — Menger-certified families of 4 vertex-disjoint paths
//!   and fans (consumed by the hyper-butterfly's Theorem-5 construction);
//! * [`embed`] — Hamiltonian cycles and `k*n + 2*k'` cycles by column
//!   merging, and the complete binary tree `T(n+1)` of Lemma 3;
//! * [`broadcast`] — asymptotically optimal one-to-all broadcast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod cayley;
pub mod classic;
pub mod disjoint;
pub mod embed;
pub mod emulate;
pub mod routing;

pub use cayley::Butterfly;
pub use classic::ClassicNode;
