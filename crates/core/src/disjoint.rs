//! Theorem 5: `m + 4` internally vertex-disjoint paths between any two
//! hyper-butterfly nodes — the constructive heart of the paper's
//! "optimally fault tolerant" claim (Corollary 1: `kappa(HB(m,n)) = m+4`).
//!
//! The construction follows the paper's three cases:
//!
//! * **Case 1** (`h != h'`, `b == b'`): the classic `m` disjoint hypercube
//!   paths inside the slice `(H_m, b)`, plus 4 detours that hop to each
//!   butterfly neighbor `b_j`, cross the hypercube inside `(H_m, b_j)`,
//!   and hop back.
//! * **Case 2** (`h == h'`, `b != b'`): 4 disjoint butterfly paths inside
//!   `(h, B_n)` (Menger-certified), plus `m` detours through each
//!   hypercube neighbor's butterfly slice.
//! * **Case 3** (both parts differ): `m` "vertical" paths (butterfly leg
//!   in slice `h_i`, then a hypercube **fan** leg in slice `b'`) and 4
//!   "horizontal" paths (hypercube leg in slice `b_j`, then a butterfly
//!   fan leg in slice `h'`).
//!
//! The paper's Case-3 argument glosses over two genuine subtleties, both
//! handled here:
//!
//! 1. The `m` hypercube legs converging on `h'` (and the 4 butterfly legs
//!    converging on `b'`) must be *mutually* disjoint — plain shortest
//!    routes are not; we use max-flow **fans** (Dirac's fan lemma
//!    guarantees existence since `kappa(H_m) = m`, `kappa(B_n) = 4`).
//! 2. A vertical and a horizontal path can cross at a grid point
//!    `(h_i, b_j)`. With shortest legs, each route meets the source's
//!    neighborhood exactly once, and giving *one* vertical leg a detour
//!    route that avoids the butterfly route's first step (and one
//!    horizontal leg an alternative first dimension) provably removes
//!    every crossing — see the pair-by-pair analysis in the code.
//!
//! When the parts are adjacent (`d_H = 1` or `d_B = 1` in Case 3) the
//! pattern degenerates (the paper is silent here); those pairs fall back
//! to an exact Menger family computed by max-flow on the full graph. The
//! returned family is *always* validated before being handed out.

use std::sync::OnceLock;

use crate::graph::HyperButterfly;
use crate::node::HbNode;
use hb_butterfly::disjoint::DisjointEngine as BflyEngine;
use hb_butterfly::routing as brouting;
use hb_graphs::{connectivity, traverse, Graph, GraphError, Result};
use hb_group::signed::SignedCycle;
use hb_hypercube::{disjoint as hdisjoint, routing as hrouting};

/// Precomputed state for disjoint-path queries on one `HB(m, n)`:
/// the factor graphs are materialised eagerly, the full product graph
/// lazily (only degenerate Case-3 pairs need it).
pub struct DisjointEngine {
    hb: HyperButterfly,
    cube_graph: Graph,
    bfly: BflyEngine,
    full_graph: OnceLock<Graph>,
    /// Count of queries answered by the full-graph fallback (degenerate
    /// Case-3 adjacency); exposed for the benches.
    fallbacks: std::sync::atomic::AtomicU64,
}

impl DisjointEngine {
    /// Builds the engine (materialises `H_m` and `B_n`).
    ///
    /// # Errors
    /// Propagates factor-graph construction failures (none for valid
    /// dimensions).
    pub fn new(hb: HyperButterfly) -> Result<Self> {
        Ok(Self {
            cube_graph: hb.cube().build_graph()?,
            bfly: BflyEngine::new(*hb.butterfly())?,
            hb,
            full_graph: OnceLock::new(),
            fallbacks: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The topology this engine serves.
    pub fn topology(&self) -> &HyperButterfly {
        &self.hb
    }

    /// How many queries used the full-graph flow fallback so far.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Exactly `m + 4` internally vertex-disjoint paths from `u` to `v`
    /// (`u != v`), each listed from `u` to `v` inclusive. The family is
    /// validated before return.
    ///
    /// # Examples
    /// ```
    /// use hb_core::{disjoint::DisjointEngine, HyperButterfly};
    /// let hb = HyperButterfly::new(2, 3).unwrap();
    /// let engine = DisjointEngine::new(hb).unwrap();
    /// let family = engine.paths(hb.node(0), hb.node(50)).unwrap();
    /// assert_eq!(family.len(), 6); // m + 4 (Theorem 5)
    /// ```
    ///
    /// # Errors
    /// [`GraphError::InvalidParameter`] if `u == v`; internal errors
    /// propagate (none occur for valid topologies).
    pub fn paths(&self, u: HbNode, v: HbNode) -> Result<Vec<Vec<HbNode>>> {
        if u == v {
            return Err(GraphError::InvalidParameter("endpoints must differ".into()));
        }
        let paths = if u.b == v.b {
            self.case1(u, v)?
        } else if u.h == v.h {
            self.case2(u, v)?
        } else {
            let dh = self.hb.cube().distance(u.h, v.h);
            let db = brouting::distance(self.hb.butterfly(), u.b, v.b);
            if dh >= 2 && db >= 2 {
                self.case3(u, v)?
            } else {
                self.fallback(u, v)?
            }
        };
        verify_family(&self.hb, u, v, &paths)?;
        Ok(paths)
    }

    /// Case 1: same butterfly part.
    fn case1(&self, u: HbNode, v: HbNode) -> Result<Vec<Vec<HbNode>>> {
        let cube = self.hb.cube();
        let mut out: Vec<Vec<HbNode>> = hdisjoint::disjoint_paths(cube, u.h, v.h)
            .into_iter()
            .map(|p| p.into_iter().map(|h| HbNode::new(h, u.b)).collect())
            .collect();
        for bj in u.b.neighbors() {
            let mut path = vec![u];
            path.extend(
                hrouting::route(cube, u.h, v.h)
                    .into_iter()
                    .map(|h| HbNode::new(h, bj)),
            );
            path.push(v);
            out.push(path);
        }
        Ok(out)
    }

    /// Case 2: same hypercube part.
    fn case2(&self, u: HbNode, v: HbNode) -> Result<Vec<Vec<HbNode>>> {
        let bfly = self.hb.butterfly();
        let mut out: Vec<Vec<HbNode>> = self
            .bfly
            .paths(u.b, v.b)?
            .into_iter()
            .map(|p| p.into_iter().map(|b| HbNode::new(u.h, b)).collect())
            .collect();
        for d in 0..self.hb.m() {
            let hi = u.h ^ (1 << d);
            let mut path = vec![u];
            path.extend(
                brouting::route(bfly, u.b, v.b)
                    .into_iter()
                    .map(|b| HbNode::new(hi, b)),
            );
            path.push(v);
            out.push(path);
        }
        Ok(out)
    }

    /// Case 3: both parts differ, `d_H >= 2`, `d_B >= 2`.
    fn case3(&self, u: HbNode, v: HbNode) -> Result<Vec<Vec<HbNode>>> {
        let cube = self.hb.cube();
        let bfly = self.hb.butterfly();
        let m = self.hb.m();

        // Fans: hypercube fan from h' to N(h) in the slice (H_m, b');
        // butterfly fan from b' to N(b) in the slice (h', B_n).
        let cube_targets: Vec<usize> = (0..m).map(|d| (u.h ^ (1 << d)) as usize).collect();
        let cube_fan = connectivity::fan_paths(&self.cube_graph, v.h as usize, &cube_targets)?;
        let bfly_targets: Vec<SignedCycle> = u.b.neighbors().to_vec();
        let bfly_fan = self.bfly.fan(v.b, &bfly_targets)?;

        // Primary shortest legs. A shortest route meets the source's
        // neighborhood exactly once (at its second node), which the
        // crossing analysis below relies on.
        let diff = hrouting::ascending_order(cube, u.h, v.h);
        let r_h = hrouting::route_with_order(cube, u.h, v.h, &diff);
        let r_b = brouting::route(bfly, u.b, v.b);

        // Alternative legs. R'_H: rotate the correction order so the first
        // step differs (d_H >= 2 guarantees a second dimension). R'_B: a
        // shortest route in B_n - {R_B's first step} (exists since
        // kappa(B_n) = 4 > 1); it meets N(b) exactly once, at a neighbor
        // different from R_B's.
        let mut alt = Vec::with_capacity(diff.len());
        alt.extend_from_slice(&diff[1..]);
        alt.push(diff[0]);
        let r_h_alt = hrouting::route_with_order(cube, u.h, v.h, &alt);
        let b_c = r_b[1];
        let tree = traverse::bfs_avoiding(self.bfly.graph(), u.b.index(), &[b_c.index()]);
        let r_b_alt: Vec<SignedCycle> = tree
            .path_to(v.b.index())
            .ok_or_else(|| GraphError::InvalidParameter("B_n minus one node disconnected?".into()))?
            .into_iter()
            .map(|i| bfly.node(i))
            .collect();

        // Special indices: the vertical leg entered via R'_H's first step
        // takes the alternative butterfly route; the horizontal leg through
        // R_B's first step takes the alternative hypercube route. Pair
        // analysis (i = vertical slice, j = horizontal slice): a crossing
        // at (h_i, b_j) needs b_j on vertical i's butterfly route AND h_i
        // on horizontal j's hypercube route; with the assignment below no
        // pair satisfies both.
        let h_a_alt = r_h_alt[1];
        let mut out = Vec::with_capacity(m as usize + 4);

        // Vertical paths: u -> (h_i, b) -> butterfly leg -> (h_i, b')
        // -> cube fan leg -> v.
        for d in 0..m {
            let hi = u.h ^ (1 << d);
            let route_b = if hi == h_a_alt { &r_b_alt } else { &r_b };
            let mut path = vec![u];
            path.extend(route_b.iter().map(|&b| HbNode::new(hi, b)));
            let leg = &cube_fan[d as usize]; // from h' to h_i
            path.extend(
                leg.iter()
                    .rev()
                    .skip(1)
                    .map(|&x| HbNode::new(x as u32, v.b)),
            );
            out.push(path);
        }

        // Horizontal paths: u -> (h, b_j) -> hypercube leg -> (h', b_j)
        // -> butterfly fan leg -> v.
        for (j, &bj) in bfly_targets.iter().enumerate() {
            let route_h = if bj == b_c { &r_h_alt } else { &r_h };
            let mut path = vec![u];
            path.extend(route_h.iter().map(|&x| HbNode::new(x, bj)));
            let leg = &bfly_fan[j]; // from b' to b_j
            path.extend(leg.iter().rev().skip(1).map(|&y| HbNode::new(v.h, y)));
            out.push(path);
        }
        Ok(out)
    }

    /// Exact Menger family on the materialised product graph (used for the
    /// adjacent-part degeneracies of Case 3).
    fn fallback(&self, u: HbNode, v: HbNode) -> Result<Vec<Vec<HbNode>>> {
        self.fallbacks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let g = match self.full_graph.get() {
            Some(g) => g,
            None => {
                let built = self.hb.build_graph()?;
                self.full_graph.get_or_init(|| built)
            }
        };
        let raw = connectivity::max_disjoint_paths(g, self.hb.index(u), self.hb.index(v));
        if raw.len() != self.hb.degree() as usize {
            return Err(GraphError::InvalidParameter(format!(
                "flow found {} paths, expected {}",
                raw.len(),
                self.hb.degree()
            )));
        }
        Ok(raw
            .into_iter()
            .map(|p| p.into_iter().map(|i| self.hb.node(i)).collect())
            .collect())
    }
}

/// Validates a Theorem-5 family: `m + 4` paths from `u` to `v`, every
/// step an edge, all internal nodes distinct within and across paths.
///
/// # Errors
/// [`GraphError::InvalidParameter`] naming the first violation.
pub fn verify_family(
    hb: &HyperButterfly,
    u: HbNode,
    v: HbNode,
    paths: &[Vec<HbNode>],
) -> Result<()> {
    if paths.len() != hb.degree() as usize {
        return Err(GraphError::InvalidParameter(format!(
            "family has {} paths, expected m + 4 = {}",
            paths.len(),
            hb.degree()
        )));
    }
    let mut used = std::collections::BTreeSet::new();
    for (i, p) in paths.iter().enumerate() {
        if p.len() < 2 || p[0] != u || *p.last().expect("len >= 2") != v {
            return Err(GraphError::InvalidParameter(format!(
                "path {i} does not run from {u} to {v}"
            )));
        }
        for w in p.windows(2) {
            if hb.edge_kind(w[0], w[1]).is_none() {
                return Err(GraphError::InvalidParameter(format!(
                    "path {i} uses non-edge ({}, {})",
                    w[0], w[1]
                )));
            }
        }
        for &x in &p[1..p.len() - 1] {
            if x == u || x == v {
                return Err(GraphError::InvalidParameter(format!(
                    "path {i} revisits an endpoint at {x}"
                )));
            }
            if !used.insert(hb.index(x)) {
                return Err(GraphError::InvalidParameter(format!(
                    "internal node {x} shared (seen again in path {i})"
                )));
            }
        }
    }
    Ok(())
}

/// The paper's length bounds for the Theorem-5 family: every path in the
/// returned family is at most `max(m, 2) + butterfly_diameter + 2` edges
/// in the constructive cases (the flow fallback may exceed this; it is
/// exact in count, not length-bounded).
pub fn length_bound(hb: &HyperButterfly) -> u32 {
    hb.m().max(2) + hb.butterfly().diameter() + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All-pairs family construction + validation (validation also runs
    /// inside `paths`, so this mainly exercises every case).
    fn check_all_pairs(m: u32, n: u32) -> DisjointEngine {
        let hb = HyperButterfly::new(m, n).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        let total = hb.num_nodes();
        for s in 0..total {
            let u = hb.node(s);
            for t in 0..total {
                if s == t {
                    continue;
                }
                let v = hb.node(t);
                let fam = eng
                    .paths(u, v)
                    .unwrap_or_else(|e| panic!("{u} -> {v}: {e}"));
                assert_eq!(fam.len(), (m + 4) as usize);
            }
        }
        eng
    }

    #[test]
    fn theorem_5_all_pairs_hb_1_3() {
        check_all_pairs(1, 3);
    }

    #[test]
    fn theorem_5_all_pairs_hb_2_3() {
        check_all_pairs(2, 3);
    }

    #[test]
    fn case_3_generic_avoids_fallback() {
        // A pair with d_H >= 2 and d_B >= 2 must use the constructive
        // pattern, not the flow fallback.
        let hb = HyperButterfly::new(3, 4).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        let u = hb.identity_node();
        let far_b = SignedCycle::from_word_level(4, 0b0110, 2);
        let v = HbNode::new(0b111, far_b);
        assert!(hb.cube().distance(u.h, v.h) >= 2);
        assert!(brouting::distance(hb.butterfly(), u.b, v.b) >= 2);
        eng.paths(u, v).unwrap();
        assert_eq!(eng.fallback_count(), 0);
    }

    #[test]
    fn degenerate_case_3_uses_fallback_and_is_valid() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        let u = hb.identity_node();
        // d_H = 1, d_B >= 1: degenerate.
        let v = HbNode::new(1, u.b.neighbors()[0]);
        eng.paths(u, v).unwrap();
        assert!(eng.fallback_count() > 0);
    }

    #[test]
    fn constructive_lengths_respect_bound() {
        let hb = HyperButterfly::new(3, 3).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        let bound = length_bound(&hb) as usize;
        let u = hb.identity_node();
        for t in (0..hb.num_nodes()).step_by(7) {
            let v = hb.node(t);
            if u == v {
                continue;
            }
            let dh = hb.cube().distance(u.h, v.h);
            let db = brouting::distance(hb.butterfly(), u.b, v.b);
            // Only the constructive cases promise the bound.
            if (dh >= 2 && db >= 2) || dh == 0 || db == 0 {
                for p in eng.paths(u, v).unwrap() {
                    assert!(
                        p.len() - 1 <= bound,
                        "{u} -> {v}: length {} > bound {bound}",
                        p.len() - 1
                    );
                }
            }
        }
    }

    #[test]
    fn case_1_lengths_match_paper_bounds() {
        // Theorem 5 Case 1: the m hypercube-family paths are <= m + 2
        // edges, the 4 butterfly-detour paths are <= d_H + 2 <= m + 2.
        let hb = HyperButterfly::new(3, 3).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        let u = hb.identity_node();
        for h in 1..(1u32 << 3) {
            let v = HbNode::new(h, u.b);
            for p in eng.paths(u, v).unwrap() {
                assert!(p.len() - 1 <= 3 + 2, "h = {h}: {} hops", p.len() - 1);
            }
        }
    }

    #[test]
    fn case_2_butterfly_detours_bounded() {
        // Case 2's m detour paths are butterfly-route + 2 <= diam(B_n)+2.
        let hb = HyperButterfly::new(2, 3).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        let u = hb.identity_node();
        let bound = hb.butterfly().diameter() as usize + 2;
        for t in 1..hb.butterfly().num_nodes() {
            let v = HbNode::new(0, hb.butterfly().node(t));
            let fam = eng.paths(u, v).unwrap();
            // The m detours are the last m paths by construction.
            for p in &fam[4..] {
                assert!(p.len() - 1 <= bound, "t = {t}: {} hops", p.len() - 1);
            }
        }
    }

    #[test]
    fn family_size_matches_flow_maximum() {
        // Corollary 1: the constructive family is maximum (m + 4 = kappa).
        let hb = HyperButterfly::new(1, 3).unwrap();
        let g = hb.build_graph().unwrap();
        for t in [1usize, 7, 20, 47] {
            let flow = connectivity::max_disjoint_path_count(&g, 0, t, u32::MAX);
            assert_eq!(flow, hb.degree());
        }
    }

    #[test]
    fn rejects_equal_endpoints() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let eng = DisjointEngine::new(hb).unwrap();
        let u = hb.node(5);
        assert!(eng.paths(u, u).is_err());
    }

    #[test]
    fn verify_family_rejects_bad_families() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let u = hb.node(0);
        let v = hb.node(1);
        // Wrong count.
        assert!(verify_family(&hb, u, v, &[]).is_err());
        // Right count, nonsense paths.
        let bad = vec![vec![u, v]; 5];
        assert!(verify_family(&hb, u, v, &bad).is_err());
    }
}
