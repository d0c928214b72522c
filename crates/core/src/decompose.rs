//! Remark 5: decomposing `HB(m, n)` into factor slices.
//!
//! All nodes sharing a butterfly-part label form a hypercube `H_m` (there
//! are `n * 2^n` of them, mutually disjoint); all nodes sharing a
//! hypercube-part label form a butterfly `B_n` (there are `2^m`). The
//! shortest-routing algorithm (§3) and the disjoint-path construction
//! (Theorem 5) both navigate these slices.

use crate::graph::HyperButterfly;
use crate::node::HbNode;
use hb_group::signed::SignedCycle;

/// The hypercube slice `(H_m, b)`: all nodes with butterfly part `b`.
/// Nodes are returned in hypercube-label order, so `slice[h]` has
/// hypercube part `h`.
pub fn hypercube_slice(hb: &HyperButterfly, b: SignedCycle) -> Vec<HbNode> {
    (0..hb.cube().num_nodes() as u32)
        .map(|h| HbNode::new(h, b))
        .collect()
}

/// The butterfly slice `(h, B_n)`: all nodes with hypercube part `h`,
/// in butterfly dense-index order.
pub fn butterfly_slice(hb: &HyperButterfly, h: u32) -> Vec<HbNode> {
    hb.butterfly().nodes().map(|b| HbNode::new(h, b)).collect()
}

/// Checks the decomposition claim of Remark 5 exhaustively: every
/// hypercube slice induces `H_m`, every butterfly slice induces `B_n`,
/// each family partitions the node set, and no edge joins two slices of
/// the same family except through the other family's generators.
pub fn verify_decomposition(hb: &HyperButterfly) -> bool {
    let total = hb.num_nodes();

    // Hypercube slices: one per butterfly label.
    let mut seen = vec![false; total];
    for b in hb.butterfly().nodes() {
        let slice = hypercube_slice(hb, b);
        if slice.len() != hb.cube().num_nodes() {
            return false;
        }
        for v in &slice {
            let idx = hb.index(*v);
            if seen[idx] {
                return false; // slices must be disjoint
            }
            seen[idx] = true;
        }
        // Induced subgraph on the slice is H_m: adjacency iff Hamming 1.
        for (i, u) in slice.iter().enumerate() {
            for v in &slice[i + 1..] {
                let adjacent = hb.edge_kind(*u, *v).is_some();
                let hamming1 = (u.h ^ v.h).count_ones() == 1;
                if adjacent != hamming1 {
                    return false;
                }
            }
        }
    }
    if seen.iter().any(|&s| !s) {
        return false; // slices must cover the graph
    }

    // Butterfly slices: one per hypercube label.
    let mut seen = vec![false; total];
    for h in 0..hb.cube().num_nodes() as u32 {
        let slice = butterfly_slice(hb, h);
        if slice.len() != hb.butterfly().num_nodes() {
            return false;
        }
        for v in &slice {
            let idx = hb.index(*v);
            if seen[idx] {
                return false;
            }
            seen[idx] = true;
        }
        // Induced adjacency matches B_n's: u.b adjacent to v.b.
        for (i, u) in slice.iter().enumerate() {
            for v in &slice[i + 1..] {
                let adjacent = hb.edge_kind(*u, *v).is_some();
                let bfly_adjacent = u.b.neighbors().contains(&v.b);
                if adjacent != bfly_adjacent {
                    return false;
                }
            }
        }
    }
    seen.iter().all(|&s| s)
}

/// Partitionability (paper abstract / §1): fixing hypercube bit `dim`
/// splits `HB(m, n)` into two node-disjoint copies of `HB(m-1, n)`.
/// Returns the two halves' node sets; the cross edges between them are
/// exactly the `h_dim` generator edges (a perfect matching).
///
/// Recursing on the halves partitions the machine into `2^k` sub-machines
/// `HB(m-k, n)` — the paper's scalability story: a partition can be
/// powered down or allocated to another job without touching the rest.
///
/// # Errors
/// [`hb_graphs::GraphError::InvalidParameter`] if `dim >= m` or `m == 1`
/// (a half with `m = 0` would not be a hyper-butterfly).
pub fn partition(hb: &HyperButterfly, dim: u32) -> hb_graphs::Result<(Vec<HbNode>, Vec<HbNode>)> {
    if dim >= hb.m() {
        return Err(hb_graphs::GraphError::InvalidParameter(format!(
            "dimension {dim} out of range for m = {}",
            hb.m()
        )));
    }
    if hb.m() < 2 {
        return Err(hb_graphs::GraphError::InvalidParameter(
            "partitioning needs m >= 2 (halves must be hyper-butterflies)".into(),
        ));
    }
    let mut zero = Vec::with_capacity(hb.num_nodes() / 2);
    let mut one = Vec::with_capacity(hb.num_nodes() / 2);
    for v in hb.nodes() {
        if v.h >> dim & 1 == 0 {
            zero.push(v);
        } else {
            one.push(v);
        }
    }
    Ok((zero, one))
}

/// Verifies that [`partition`]'s halves each induce a graph isomorphic to
/// `HB(m-1, n)` (via the explicit label map that deletes bit `dim`) and
/// that the cross edges form the `h_dim` perfect matching.
pub fn verify_partition(hb: &HyperButterfly, dim: u32) -> bool {
    let Ok((zero, one)) = partition(hb, dim) else {
        return false;
    };
    let Ok(small) = HyperButterfly::new(hb.m() - 1, hb.n()) else {
        return false;
    };
    // Label map: delete bit `dim` from the hypercube part.
    let squeeze = |h: u32| (h & ((1 << dim) - 1)) | ((h >> (dim + 1)) << dim);
    for half in [&zero, &one] {
        if half.len() != small.num_nodes() {
            return false;
        }
        // Adjacency within the half must match HB(m-1, n) adjacency
        // under the squeezed labels.
        for u in half.iter() {
            let su = HbNode::new(squeeze(u.h), u.b);
            let mapped: std::collections::BTreeSet<usize> = hb
                .neighbors(*u)
                .into_iter()
                .filter(|w| (w.h >> dim & 1) == (u.h >> dim & 1))
                .map(|w| small.index(HbNode::new(squeeze(w.h), w.b)))
                .collect();
            let expected: std::collections::BTreeSet<usize> = small
                .neighbors(su)
                .into_iter()
                .map(|w| small.index(w))
                .collect();
            if mapped != expected {
                return false;
            }
        }
    }
    // Cross edges: every node has exactly one neighbor in the other half,
    // its bit-dim mirror.
    for u in &zero {
        let cross: Vec<HbNode> = hb
            .neighbors(*u)
            .into_iter()
            .filter(|w| w.h >> dim & 1 == 1)
            .collect();
        if cross.len() != 1 || cross[0] != HbNode::new(u.h ^ (1 << dim), u.b) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_halves_are_hyper_butterflies() {
        let hb = HyperButterfly::new(3, 3).unwrap();
        for dim in 0..3 {
            assert!(verify_partition(&hb, dim), "dim {dim}");
        }
    }

    #[test]
    fn partition_rejects_bad_inputs() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        assert!(partition(&hb, 2).is_err());
        let hb1 = HyperButterfly::new(1, 3).unwrap();
        assert!(partition(&hb1, 0).is_err());
    }

    #[test]
    fn recursive_partition_reaches_2_pow_k_submachines() {
        // Partition HB(3, 3) twice: 4 sub-machines of HB(1, 3) size.
        let hb = HyperButterfly::new(3, 3).unwrap();
        let (a, b) = partition(&hb, 2).unwrap();
        assert_eq!(a.len(), hb.num_nodes() / 2);
        assert_eq!(b.len(), hb.num_nodes() / 2);
        // Split each half again on bit 1 (label-level split).
        let quarters: Vec<Vec<&HbNode>> = [&a, &b]
            .iter()
            .flat_map(|half| {
                let (x, y): (Vec<&HbNode>, Vec<&HbNode>) =
                    half.iter().partition(|v| v.h >> 1 & 1 == 0);
                [x, y]
            })
            .collect();
        assert_eq!(quarters.len(), 4);
        let quarter_size = HyperButterfly::new(1, 3).unwrap().num_nodes();
        for q in &quarters {
            assert_eq!(q.len(), quarter_size);
        }
    }

    #[test]
    fn decomposition_holds_on_small_instances() {
        for (m, n) in [(1, 3), (2, 3)] {
            let hb = HyperButterfly::new(m, n).unwrap();
            assert!(verify_decomposition(&hb), "HB({m},{n})");
        }
    }

    #[test]
    fn slice_sizes_match_remark_5() {
        let hb = HyperButterfly::new(3, 4).unwrap();
        let b = hb.butterfly().identity();
        assert_eq!(hypercube_slice(&hb, b).len(), 8); // 2^m
        assert_eq!(butterfly_slice(&hb, 5).len(), 64); // n 2^n
                                                       // Counts: n 2^n hypercube slices, 2^m butterfly slices.
        assert_eq!(hb.butterfly().num_nodes() * 8, hb.num_nodes());
        assert_eq!((1 << 3) * 64, hb.num_nodes());
    }

    #[test]
    fn slice_membership_is_by_shared_label() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let b = hb.butterfly().node(7);
        for (h, v) in hypercube_slice(&hb, b).iter().enumerate() {
            assert_eq!(v.h as usize, h);
            assert_eq!(v.b, b);
        }
        for v in butterfly_slice(&hb, 2) {
            assert_eq!(v.h, 2);
        }
    }
}
