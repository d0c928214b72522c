//! Cycle and path embeddings in `H_m`.
//!
//! The paper's Remark 9 cites the classical facts used by its Lemma 2: the
//! hypercube contains a cycle of every even length `4 <= k <= 2^m`
//! (bipancyclicity). This module constructs those cycles explicitly:
//!
//! * [`gray_cycle`] — the reflected-Gray-code Hamiltonian cycle;
//! * [`parity_path`] — a path of any odd edge-length `l <= 2^m - 1`
//!   between two *adjacent* nodes (a constructive Havel-style lemma);
//! * [`even_cycle`] — closes a parity path of length `k - 1` into a
//!   `k`-cycle.

use crate::cube::Hypercube;
use hb_graphs::{GraphError, Result};

/// The reflected Gray code on `m` bits: a Hamiltonian cycle of `H_m` for
/// `m >= 2` (returned as the vertex sequence; consecutive entries and the
/// wrap-around pair differ in exactly one bit).
///
/// # Errors
/// [`GraphError::InvalidParameter`] if `m < 2` (H_1 has no cycle).
pub fn gray_cycle(m: u32) -> Result<Vec<u32>> {
    if m < 2 {
        return Err(GraphError::InvalidParameter(
            "Hamiltonian cycle needs m >= 2".into(),
        ));
    }
    Ok((0u32..1 << m).map(|i| i ^ (i >> 1)).collect())
}

/// A simple path with exactly `len` edges (odd) from `src` to
/// `src ^ (1 << d0)`, using only dimensions in `dims` (which must contain
/// `d0`). Requires `1 <= len <= 2^|dims| - 1`, `len` odd.
///
/// Construction (induction on `|dims|`): split the cube along `d0` into the
/// side `A` of `src` and side `B` of the target. Either the whole remaining
/// length fits in `B` (`src -> cross -> B-path`), or recurse on both sides:
/// an odd-length path `src -> src^j` inside `A`, a cross edge, and an
/// odd-length path inside `B` ending at the target.
///
/// # Errors
/// [`GraphError::InvalidParameter`] on parity/range violations.
pub fn parity_path(src: u32, d0: u32, len: usize, dims: &[u32]) -> Result<Vec<u32>> {
    if len.is_multiple_of(2) || len == 0 {
        return Err(GraphError::InvalidParameter(format!(
            "parity path length {len} must be odd"
        )));
    }
    if dims.len() >= usize::BITS as usize - 1 || len > (1 << dims.len()) - 1 {
        return Err(GraphError::InvalidParameter(format!(
            "length {len} exceeds 2^{} - 1",
            dims.len()
        )));
    }
    if !dims.contains(&d0) {
        return Err(GraphError::InvalidParameter(format!(
            "dims must contain d0 = {d0}"
        )));
    }
    let mut out = Vec::with_capacity(len + 1);
    build_parity_path(src, d0, len, dims, &mut out);
    Ok(out)
}

/// Appends all `len + 1` path nodes — `src` through `src ^ (1 << d0)`
/// inclusive — to `out`. Preconditions (odd `len <= 2^|dims| - 1`,
/// `d0 in dims`) are established by `parity_path` and preserved
/// inductively.
fn build_parity_path(src: u32, d0: u32, len: usize, dims: &[u32], out: &mut Vec<u32>) {
    debug_assert!(len % 2 == 1);
    if len == 1 {
        out.push(src);
        out.push(src ^ (1 << d0));
        return;
    }
    // len >= 3 forces |dims| >= 2, so a second dimension exists.
    let j = *dims
        .iter()
        .find(|&&d| d != d0)
        .expect("len >= 3 implies >= 2 dims");
    let sub: Vec<u32> = dims.iter().copied().filter(|&d| d != d0).collect();
    let side_cap = (1usize << sub.len()) - 1;
    // Split the length: `la` odd edges on the src side (an A-path from src
    // to src^j over `sub`), one cross edge along d0, and `lb` odd edges on
    // the far side (a B-path from src^j^d0 to src^d0 over `sub`). The two
    // sides differ in bit d0, so they cannot collide; each side is simple
    // by induction. `side_cap = 2^(|dims|-1) - 1` is odd, and the clamp
    // below always leaves both halves odd, positive, and within capacity.
    let mut la = (len - 1).min(side_cap);
    if la.is_multiple_of(2) {
        la -= 1;
    }
    let lb = len - 1 - la;
    debug_assert!(la % 2 == 1 && lb % 2 == 1 && la <= side_cap && lb <= side_cap);
    build_parity_path(src, j, la, &sub, out);
    let x = src ^ (1 << j);
    build_parity_path(x ^ (1 << d0), j, lb, &sub, out);
}

/// A simple cycle of even length `k`, `4 <= k <= 2^m`, in `H_m`
/// (bipancyclicity of the hypercube). Returns the vertex sequence.
///
/// # Errors
/// [`GraphError::InvalidParameter`] for odd or out-of-range `k`.
pub fn even_cycle(h: &Hypercube, k: usize) -> Result<Vec<u32>> {
    if !k.is_multiple_of(2) || k < 4 || k > h.num_nodes() {
        return Err(GraphError::InvalidParameter(format!(
            "even cycle length {k} outside 4..=2^{}",
            h.m()
        )));
    }
    let dims: Vec<u32> = (0..h.m()).collect();
    // Path of k - 1 edges (odd) from 0 to 1 = 0 ^ (1 << 0), then the
    // closing edge (1, 0) completes a k-cycle.
    let path = parity_path(0, 0, k - 1, &dims)?;
    debug_assert_eq!(path.len(), k);
    Ok(path)
}

/// Dilation-1 embedding of the complete binary tree
/// `T(1 + floor(m/2))` into `H_m`, as `(parent, map)` heap arrays in the
/// format of [`hb_graphs::embedding::validate_tree_embedding`].
///
/// Construction: `T(k+1)` embeds in `G x H_2` whenever `T(k)` embeds in
/// `G` — place the two `T(k)` copies in the `00` and `11` quadrants and
/// the new root at `01` above the old root. Starting from the single-node
/// tree, each *pair* of hypercube dimensions buys one tree level.
///
/// (The paper's Figure 1 quotes the classical bound `T(m-1)` for `H_m`
/// via double-rooted trees; this constructive embedding matches it for
/// `m <= 4` and is one level short per extra dimension pair beyond that —
/// the gap is recorded in EXPERIMENTS.md.)
pub fn binary_tree(m: u32) -> (Vec<usize>, Vec<usize>) {
    let mut parent = vec![0usize];
    let mut map = vec![0usize];
    let mut levels = 1u32; // current tree is T(levels)
    let mut dim = 0u32;
    while dim + 1 < m {
        let old_total = map.len();
        let old_depth = levels - 1; // deepest old depth
        let mut new_map = vec![usize::MAX; 2 * old_total + 1];
        let mut new_parent = vec![0usize; 2 * old_total + 1];
        // New root above the old root, in the `01` quadrant (bit `dim`).
        new_map[0] = map[0] | (1usize << dim);
        for d in 0..=old_depth {
            let width = 1usize << d;
            for o in 0..width {
                let old_idx = (1usize << d) - 1 + o;
                // Left copy: `00` quadrant; right copy: `11` quadrant.
                let left = (1usize << (d + 1)) - 1 + o;
                let right = left + width;
                new_map[left] = map[old_idx];
                new_map[right] = map[old_idx] | (0b11 << dim);
                new_parent[left] = left.saturating_sub(1) / 2;
                new_parent[right] = (right - 1) / 2;
            }
        }
        parent = new_parent;
        map = new_map;
        levels += 1;
        dim += 2;
    }
    (parent, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_graphs::embedding::{validate_cycle, validate_path, validate_tree_embedding};

    #[test]
    fn gray_cycle_is_hamiltonian() {
        for m in 2..=6 {
            let h = Hypercube::new(m).unwrap();
            let g = h.build_graph().unwrap();
            let cyc = gray_cycle(m).unwrap();
            assert_eq!(cyc.len(), h.num_nodes());
            let cu: Vec<usize> = cyc.iter().map(|&v| v as usize).collect();
            validate_cycle(&g, &cu).unwrap();
        }
        assert!(gray_cycle(1).is_err());
    }

    #[test]
    fn parity_paths_of_every_odd_length() {
        let h = Hypercube::new(4).unwrap();
        let g = h.build_graph().unwrap();
        let dims: Vec<u32> = (0..4).collect();
        for len in (1..=15usize).step_by(2) {
            let p = parity_path(0b0101, 2, len, &dims).unwrap();
            assert_eq!(p.len(), len + 1, "len {len}");
            assert_eq!(p[0], 0b0101);
            assert_eq!(*p.last().unwrap(), 0b0001);
            let pu: Vec<usize> = p.iter().map(|&v| v as usize).collect();
            validate_path(&g, &pu).unwrap_or_else(|e| panic!("len {len}: {e}"));
        }
    }

    #[test]
    fn parity_path_rejects_bad_lengths() {
        let dims: Vec<u32> = (0..3).collect();
        assert!(parity_path(0, 0, 2, &dims).is_err()); // even
        assert!(parity_path(0, 0, 9, &dims).is_err()); // > 2^3 - 1
        assert!(parity_path(0, 5, 1, &dims).is_err()); // d0 not in dims
    }

    #[test]
    fn even_cycles_of_every_length() {
        for m in 2..=5 {
            let h = Hypercube::new(m).unwrap();
            let g = h.build_graph().unwrap();
            for k in (4..=h.num_nodes()).step_by(2) {
                let cyc = even_cycle(&h, k).unwrap();
                assert_eq!(cyc.len(), k, "m {m} k {k}");
                let cu: Vec<usize> = cyc.iter().map(|&v| v as usize).collect();
                validate_cycle(&g, &cu).unwrap_or_else(|e| panic!("m {m} k {k}: {e}"));
            }
        }
    }

    #[test]
    fn binary_tree_embeds_for_all_m() {
        for m in 1..=9 {
            let h = Hypercube::new(m).unwrap();
            let g = h.build_graph().unwrap();
            let (parent, map) = binary_tree(m);
            assert_eq!(map.len(), (1usize << (1 + m / 2)) - 1, "m = {m}");
            validate_tree_embedding(&g, &parent, &map).unwrap_or_else(|e| panic!("m = {m}: {e}"));
        }
    }

    #[test]
    fn binary_tree_single_node_for_m1() {
        let (parent, map) = binary_tree(1);
        assert_eq!(parent, vec![0]);
        assert_eq!(map, vec![0]);
    }

    #[test]
    fn even_cycle_rejects_invalid_lengths() {
        let h = Hypercube::new(3).unwrap();
        assert!(even_cycle(&h, 5).is_err());
        assert!(even_cycle(&h, 2).is_err());
        assert!(even_cycle(&h, 10).is_err());
    }
}
