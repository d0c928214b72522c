//! Signed cyclic sequences: the state algebra behind the Vadapalli–Srimani
//! Cayley representation of the wrapped butterfly (and therefore of the
//! butterfly part of every hyper-butterfly node).
//!
//! A node of `B_n` is a cyclic permutation of `n` distinct symbols
//! `t_1 .. t_n` *in lexicographic order*, each symbol carried either plain
//! or complemented. Because the cyclic order is fixed, a node is fully
//! described by:
//!
//! * its **rotation** `rot` — which symbol sits in position 1 (this equals
//!   the paper's *permutation index*, Definition 1), and
//! * its **complement mask** — one bit per *symbol* saying whether that
//!   symbol is complemented.
//!
//! The four butterfly generators act on this state as:
//!
//! | generator | action |
//! |---|---|
//! | `g`   | rotate left (first symbol wraps to the back unchanged) |
//! | `f`   | rotate left, complementing the wrapped symbol |
//! | `g⁻¹` | rotate right (last symbol wraps to the front unchanged) |
//! | `f⁻¹` | rotate right, complementing the wrapped symbol |

use std::fmt;

/// One of the four butterfly generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ButterflyGen {
    /// Left rotation, no complement (`g`).
    G,
    /// Left rotation complementing the wrapped symbol (`f`).
    F,
    /// Right rotation, no complement (`g⁻¹`).
    GInv,
    /// Right rotation complementing the wrapped symbol (`f⁻¹`).
    FInv,
}

impl ButterflyGen {
    /// All four generators, in the order used for dense generator indexing.
    pub const ALL: [ButterflyGen; 4] = [
        ButterflyGen::G,
        ButterflyGen::F,
        ButterflyGen::GInv,
        ButterflyGen::FInv,
    ];

    /// The generator inverting this one (`g <-> g⁻¹`, `f <-> f⁻¹`).
    pub fn inverse(self) -> Self {
        match self {
            ButterflyGen::G => ButterflyGen::GInv,
            ButterflyGen::F => ButterflyGen::FInv,
            ButterflyGen::GInv => ButterflyGen::G,
            ButterflyGen::FInv => ButterflyGen::F,
        }
    }
}

/// A signed cyclic sequence over `n` symbols: a butterfly-node label.
///
/// Invariants: `rot < n`, `mask < 2^n`, `3 <= n <= 26` (the paper requires
/// `n >= 3` for `B_n` to be simple; 26 keeps dense indices in `usize`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignedCycle {
    n: u32,
    rot: u32,
    mask: u32,
}

impl SignedCycle {
    /// Smallest supported symbol count (below 3 the butterfly degenerates).
    pub const MIN_N: u32 = 3;
    /// Largest supported symbol count.
    pub const MAX_N: u32 = 26;

    /// The identity node `t_1 t_2 ... t_n` (all plain, no rotation).
    ///
    /// # Panics
    /// Panics if `n` is outside `MIN_N..=MAX_N`.
    ///
    /// # Examples
    /// ```
    /// use hb_group::{ButterflyGen, SignedCycle};
    /// let id = SignedCycle::identity(3);
    /// assert_eq!(id.to_string(), "abc");
    /// // f rotates left and complements the wrapped symbol:
    /// assert_eq!(id.apply(ButterflyGen::F).to_string(), "bc~a");
    /// ```
    pub fn identity(n: u32) -> Self {
        assert!(
            (Self::MIN_N..=Self::MAX_N).contains(&n),
            "symbol count {n} outside {}..={}",
            Self::MIN_N,
            Self::MAX_N
        );
        Self { n, rot: 0, mask: 0 }
    }

    /// Builds a node from a rotation and a symbol-indexed complement mask.
    ///
    /// # Panics
    /// Panics on out-of-range `n`, `rot >= n`, or mask bits above `n`.
    pub fn new(n: u32, rot: u32, mask: u32) -> Self {
        let id = Self::identity(n); // validates n
        assert!(rot < n, "rotation {rot} out of range for n = {n}");
        assert!(
            mask < (1u32 << n),
            "mask {mask:#x} out of range for n = {n}"
        );
        Self { rot, mask, ..id }
    }

    /// Number of symbols `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The rotation — equivalently the paper's **permutation index**
    /// (Definition 1): how many left shifts take the identity's cyclic
    /// order to this node's.
    #[inline]
    pub fn permutation_index(&self) -> u32 {
        self.rot
    }

    /// The symbol-indexed complement mask (bit `s` = symbol `t_{s+1}`).
    #[inline]
    pub fn symbol_mask(&self) -> u32 {
        self.mask
    }

    /// The paper's **complementation index** (Definition 2):
    /// `CI = sum w_i 2^{i-1}` over positions `i = 1..n`, where `w_i` flags
    /// a complemented symbol *in position i*. Positions depend on the
    /// rotation, so `CI` is the mask re-indexed by position.
    pub fn complementation_index(&self) -> u32 {
        let mut ci = 0u32;
        for pos in 0..self.n {
            if self.is_complemented_at(pos) {
                ci |= 1 << pos;
            }
        }
        ci
    }

    /// Symbol (0-based: `s` means `t_{s+1}`) in 0-based position `pos`.
    #[inline]
    pub fn symbol_at(&self, pos: u32) -> u32 {
        debug_assert!(pos < self.n);
        let s = self.rot + pos;
        if s >= self.n {
            s - self.n
        } else {
            s
        }
    }

    /// Whether the symbol in 0-based position `pos` is complemented.
    #[inline]
    pub fn is_complemented_at(&self, pos: u32) -> bool {
        (self.mask >> self.symbol_at(pos)) & 1 == 1
    }

    /// Applies a butterfly generator.
    #[inline]
    pub fn apply(&self, gen: ButterflyGen) -> Self {
        let n = self.n;
        match gen {
            ButterflyGen::G => Self {
                rot: if self.rot + 1 == n { 0 } else { self.rot + 1 },
                ..*self
            },
            ButterflyGen::F => {
                // The symbol wrapping from front to back is the current
                // front symbol, i.e. symbol `rot`.
                let mask = self.mask ^ (1 << self.rot);
                Self {
                    rot: if self.rot + 1 == n { 0 } else { self.rot + 1 },
                    mask,
                    ..*self
                }
            }
            ButterflyGen::GInv => Self {
                rot: if self.rot == 0 { n - 1 } else { self.rot - 1 },
                ..*self
            },
            ButterflyGen::FInv => {
                // The symbol wrapping from back to front is the *new* front
                // symbol, i.e. symbol `rot - 1 (mod n)`.
                let rot = if self.rot == 0 { n - 1 } else { self.rot - 1 };
                Self {
                    rot,
                    mask: self.mask ^ (1 << rot),
                    ..*self
                }
            }
        }
    }

    /// All four neighbors, in [`ButterflyGen::ALL`] order.
    pub fn neighbors(&self) -> [Self; 4] {
        [
            self.apply(ButterflyGen::G),
            self.apply(ButterflyGen::F),
            self.apply(ButterflyGen::GInv),
            self.apply(ButterflyGen::FInv),
        ]
    }

    /// Dense index in `0 .. n * 2^n`: `rot * 2^n + mask`.
    #[inline]
    pub fn index(&self) -> usize {
        ((self.rot as usize) << self.n) | self.mask as usize
    }

    /// Inverse of [`Self::index`].
    ///
    /// # Panics
    /// Panics if `idx >= n * 2^n` or `n` out of range.
    pub fn from_index(n: u32, idx: usize) -> Self {
        let rot = (idx >> n) as u32;
        let mask = (idx & ((1usize << n) - 1)) as u32;
        Self::new(n, rot, mask)
    }

    /// Number of nodes of `B_n`: `n * 2^n`.
    pub fn population(n: u32) -> usize {
        assert!((Self::MIN_N..=Self::MAX_N).contains(&n));
        (n as usize) << n
    }

    /// Interprets the node in the classic wrapped-butterfly coordinates
    /// `(word, level)`: `level` is the rotation and bit `s` of `word` is
    /// the complement flag of symbol `s`. Under this map `g`/`f` are the
    /// straight/cross edges to the next level (see `hb-butterfly::iso`,
    /// where the correspondence is proven by exhaustive check).
    #[inline]
    pub fn to_word_level(&self) -> (u32, u32) {
        (self.mask, self.rot)
    }

    /// Inverse of [`Self::to_word_level`].
    pub fn from_word_level(n: u32, word: u32, level: u32) -> Self {
        Self::new(n, level, word)
    }
}

impl fmt::Debug for SignedCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignedCycle({self})")
    }
}

impl fmt::Display for SignedCycle {
    /// Renders like the paper's examples: `bca` with complemented symbols
    /// prefixed by `~`, e.g. `~b c ~a` is printed `~bc~a` (symbols `a..z`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in 0..self.n {
            if self.is_complemented_at(pos) {
                write!(f, "~")?;
            }
            let s = self.symbol_at(pos);
            write!(f, "{}", char::from(b'a' + s as u8))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_zero_indices() {
        let id = SignedCycle::identity(4);
        assert_eq!(id.permutation_index(), 0);
        assert_eq!(id.complementation_index(), 0);
        assert_eq!(id.index(), 0);
        assert_eq!(id.to_string(), "abcd");
    }

    #[test]
    fn paper_example_permutation_indices() {
        // Paper (Definition 1, n = 3): nodes abc (any complementation)
        // have PI 0; bca has PI 1; cab has PI 2.
        let abc = SignedCycle::new(3, 0, 0b101);
        assert_eq!(abc.permutation_index(), 0);
        let bca = SignedCycle::new(3, 1, 0);
        assert_eq!(bca.permutation_index(), 1);
        assert_eq!(bca.to_string(), "bca");
        let cab = SignedCycle::new(3, 2, 0);
        assert_eq!(cab.permutation_index(), 2);
        assert_eq!(cab.to_string(), "cab");
    }

    #[test]
    fn generator_g_rotates_left() {
        let id = SignedCycle::identity(3);
        let v = id.apply(ButterflyGen::G);
        assert_eq!(v.to_string(), "bca");
        assert_eq!(v.permutation_index(), 1);
        assert_eq!(v.complementation_index(), 0);
    }

    #[test]
    fn generator_f_complements_wrapped_symbol() {
        let id = SignedCycle::identity(3);
        let v = id.apply(ButterflyGen::F);
        // f(abc) = bc~a: 'a' wrapped to the back complemented.
        assert_eq!(v.to_string(), "bc~a");
        // position 3 (1-based) is complemented: CI = 2^{3-1} = 4.
        assert_eq!(v.complementation_index(), 0b100);
    }

    #[test]
    fn generator_f_inv_complements_new_front_symbol() {
        let id = SignedCycle::identity(3);
        let v = id.apply(ButterflyGen::FInv);
        // f⁻¹(abc) = ~cab.
        assert_eq!(v.to_string(), "~cab");
        assert_eq!(v.complementation_index(), 0b001);
    }

    #[test]
    fn generators_invert_each_other() {
        for idx in 0..SignedCycle::population(4) {
            let v = SignedCycle::from_index(4, idx);
            for g in ButterflyGen::ALL {
                assert_eq!(v.apply(g).apply(g.inverse()), v, "gen {g:?} at {v}");
            }
        }
    }

    #[test]
    fn neighbors_are_distinct_and_not_self() {
        for idx in 0..SignedCycle::population(3) {
            let v = SignedCycle::from_index(3, idx);
            let nb = v.neighbors();
            for (i, a) in nb.iter().enumerate() {
                assert_ne!(*a, v);
                for b in &nb[i + 1..] {
                    assert_ne!(a, b, "duplicate neighbor of {v}");
                }
            }
        }
    }

    #[test]
    fn index_roundtrip() {
        for idx in 0..SignedCycle::population(5) {
            assert_eq!(SignedCycle::from_index(5, idx).index(), idx);
        }
    }

    #[test]
    fn word_level_roundtrip() {
        for idx in 0..SignedCycle::population(4) {
            let v = SignedCycle::from_index(4, idx);
            let (w, l) = v.to_word_level();
            assert_eq!(SignedCycle::from_word_level(4, w, l), v);
        }
    }

    #[test]
    fn ci_depends_on_rotation() {
        // Same mask, different rotations give different CI in general.
        let a = SignedCycle::new(4, 0, 0b0001); // ~abcd -> CI bit at pos 1
        let b = SignedCycle::new(4, 1, 0b0001); // bcd~a -> CI bit at pos 4
        assert_eq!(a.complementation_index(), 0b0001);
        assert_eq!(b.complementation_index(), 0b1000);
    }

    #[test]
    #[should_panic(expected = "rotation")]
    fn new_rejects_bad_rotation() {
        SignedCycle::new(3, 3, 0);
    }

    #[test]
    #[should_panic(expected = "symbol count")]
    fn new_rejects_bad_n() {
        SignedCycle::identity(2);
    }
}
