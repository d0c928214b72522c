//! Shortest and fault-tolerant point-to-point routing in `H_m`.
//!
//! The hyper-butterfly's optimal routing (paper §3) composes this module's
//! bit-fixing route with the butterfly route, so correctness here is load
//! bearing for the headline routing theorem.

use crate::cube::Hypercube;
use hb_graphs::{traverse, Graph, GraphError, Result};

/// Shortest route from `src` to `dst` by ascending-dimension bit fixing;
/// returns the node sequence including both endpoints (length
/// `distance + 1`). Collects [`walk`].
pub fn route(h: &Hypercube, src: u32, dst: u32) -> Vec<u32> {
    debug_assert_eq!((src | dst) >> h.m(), 0, "labels must be nodes of H_m");
    let mut path = Vec::with_capacity(dist(src, dst) as usize + 1);
    path.push(src);
    walk(src, dst, |x| path.push(x));
    path
}

/// Visits the nodes after `src` on the ascending bit-fixing route to
/// `dst`, in route order: each step corrects the lowest dimension still
/// differing. No `Hypercube` handle, no allocation.
#[inline]
pub fn walk(src: u32, dst: u32, mut visit: impl FnMut(u32)) {
    let mut cur = src;
    let mut diff = src ^ dst;
    while diff != 0 {
        cur ^= diff & diff.wrapping_neg();
        diff &= diff - 1;
        visit(cur);
    }
}

/// Exact hop distance from the labels alone: the Hamming distance
/// `popcount(src ^ dst)`. No `Hypercube` handle, no allocation — the
/// bit-fixing kernel of the paper's §3 composition, suitable for per-hop
/// use in simulator hot paths.
#[inline]
pub fn dist(src: u32, dst: u32) -> u32 {
    (src ^ dst).count_ones()
}

/// The dimensions in which `src` and `dst` differ, ascending.
pub fn ascending_order(h: &Hypercube, src: u32, dst: u32) -> Vec<u32> {
    (0..h.m()).filter(|&d| (src ^ dst) >> d & 1 == 1).collect()
}

/// Shortest route correcting the differing dimensions in the given order.
/// `order` must be a permutation of the differing dimensions — every such
/// order yields a (distinct) shortest path, which is how the hypercube
/// family of Theorem 5's disjoint paths is generated.
///
/// # Panics
/// Panics (debug) if `order` is not exactly the set of differing dims.
pub fn route_with_order(h: &Hypercube, src: u32, dst: u32, order: &[u32]) -> Vec<u32> {
    debug_assert_eq!(
        order.iter().fold(0u32, |acc, &d| acc | 1 << d),
        src ^ dst,
        "order must cover exactly the differing dimensions"
    );
    debug_assert_eq!(order.len() as u32, h.distance(src, dst));
    let mut path = Vec::with_capacity(order.len() + 1);
    let mut cur = src;
    path.push(cur);
    for &d in order {
        cur ^= 1 << d;
        path.push(cur);
    }
    path
}

/// Number of distinct shortest `src`–`dst` paths: `d!` where
/// `d = distance(src, dst)` (one per correction order).
pub fn shortest_path_count(h: &Hypercube, src: u32, dst: u32) -> u128 {
    let d = h.distance(src, dst);
    (1..=d as u128).product()
}

/// Fault-tolerant route: a shortest path in `H_m` minus the `faults` set,
/// or `None` if `dst` is unreachable. Exact (BFS-based): succeeds whenever
/// the survivor graph still connects `src` to `dst`, in particular for any
/// fault set of size `< m` (hypercubes are maximally fault tolerant).
///
/// # Errors
/// [`GraphError::InvalidParameter`] if an endpoint is faulty.
pub fn route_avoiding(g: &Graph, src: u32, dst: u32, faults: &[u32]) -> Result<Option<Vec<u32>>> {
    if faults.contains(&src) || faults.contains(&dst) {
        return Err(GraphError::InvalidParameter("endpoint is faulty".into()));
    }
    let blocked: Vec<usize> = faults.iter().map(|&f| f as usize).collect();
    let tree = traverse::bfs_avoiding(g, src as usize, &blocked);
    Ok(tree
        .path_to(dst as usize)
        .map(|p| p.into_iter().map(|v| v as u32).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_graphs::embedding::validate_path;

    fn h4() -> Hypercube {
        Hypercube::new(4).unwrap()
    }

    #[test]
    fn route_has_distance_length_and_is_valid() {
        let h = h4();
        let g = h.build_graph().unwrap();
        for src in 0..16u32 {
            for dst in 0..16u32 {
                let p = route(&h, src, dst);
                assert_eq!(p.len() as u32, h.distance(src, dst) + 1);
                assert_eq!(p[0], src);
                assert_eq!(*p.last().unwrap(), dst);
                let pu: Vec<usize> = p.iter().map(|&v| v as usize).collect();
                validate_path(&g, &pu).unwrap();
                // `walk` fixes bits in the order Theorem 5's path
                // families start from.
                let order = ascending_order(&h, src, dst);
                assert_eq!(p, route_with_order(&h, src, dst, &order));
            }
        }
    }

    #[test]
    fn route_with_custom_order_reaches_destination() {
        let h = h4();
        let p = route_with_order(&h, 0b0000, 0b1011, &[3, 0, 1]);
        assert_eq!(p, vec![0b0000, 0b1000, 0b1001, 0b1011]);
    }

    #[test]
    fn shortest_path_count_is_factorial() {
        let h = h4();
        assert_eq!(shortest_path_count(&h, 0, 0b1111), 24);
        assert_eq!(shortest_path_count(&h, 0, 0), 1);
        assert_eq!(shortest_path_count(&h, 0, 0b1), 1);
    }

    #[test]
    fn route_avoiding_detours_around_faults() {
        let h = h4();
        let g = h.build_graph().unwrap();
        // All shortest 0 -> 3 paths go through 1 or 2; block both.
        let p = route_avoiding(&g, 0, 3, &[1, 2]).unwrap().unwrap();
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 3);
        assert!(p.len() > 3, "must be longer than the shortest path");
        assert!(!p.contains(&1) && !p.contains(&2));
        let pu: Vec<usize> = p.iter().map(|&v| v as usize).collect();
        validate_path(&g, &pu).unwrap();
    }

    #[test]
    fn route_avoiding_with_max_tolerable_faults_always_succeeds() {
        // m = 3: any 2 faults leave H_3 connected.
        let h = Hypercube::new(3).unwrap();
        let g = h.build_graph().unwrap();
        for f1 in 0..8u32 {
            for f2 in 0..8u32 {
                if f1 == f2 {
                    continue;
                }
                for src in 0..8u32 {
                    for dst in 0..8u32 {
                        if [f1, f2].contains(&src) || [f1, f2].contains(&dst) || src == dst {
                            continue;
                        }
                        assert!(
                            route_avoiding(&g, src, dst, &[f1, f2]).unwrap().is_some(),
                            "disconnected with faults {{{f1},{f2}}} from {src} to {dst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn route_avoiding_rejects_faulty_endpoint() {
        let h = h4();
        let g = h.build_graph().unwrap();
        assert!(route_avoiding(&g, 0, 3, &[0]).is_err());
        assert!(route_avoiding(&g, 0, 3, &[3]).is_err());
    }

    #[test]
    fn route_avoiding_reports_disconnection() {
        // m = 2: isolating node 0 with faults {1, 2}.
        let h = Hypercube::new(2).unwrap();
        let g = h.build_graph().unwrap();
        assert_eq!(route_avoiding(&g, 0, 3, &[1, 2]).unwrap(), None);
    }
}
