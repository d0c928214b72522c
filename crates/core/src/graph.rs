//! The hyper-butterfly topology `HB(m, n) = H_m x B_n`.
//!
//! Definition 3 of the paper: the Cartesian product of the hypercube `H_m`
//! with the wrapped butterfly `B_n`, generated by the `m + 4` generators
//! `{h_0 .. h_{m-1}, g, f, g⁻¹, f⁻¹}` acting on the two label parts
//! independently. Theorem 2's counts, Theorem 1's Cayley structure, and
//! Remark 4's edge classification are all realised (and tested) here.

use crate::node::HbNode;
use hb_butterfly::Butterfly;
use hb_graphs::{Graph, GraphError, Result};
use hb_group::cayley::CayleyTopology;
use hb_group::signed::ButterflyGen;
use hb_hypercube::Hypercube;

/// Which structural class an edge/generator belongs to (paper Def. 4):
/// hypercube edges change only the hypercube part, butterfly edges only
/// the butterfly part.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// One of the `m` hypercube generators `h_i`.
    Hypercube {
        /// The flipped dimension `i`.
        dim: u32,
    },
    /// One of the 4 butterfly generators.
    Butterfly {
        /// Which butterfly generator.
        gen: ButterflyGen,
    },
}

/// The hyper-butterfly topology `HB(m, n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HyperButterfly {
    cube: Hypercube,
    bfly: Butterfly,
}

impl HyperButterfly {
    /// Creates `HB(m, n)`.
    ///
    /// # Errors
    /// [`GraphError::InvalidParameter`] if a factor dimension is out of
    /// range (`m >= 1`, `3 <= n`) or `n * 2^(m+n)` overflows the CSR
    /// index budget.
    ///
    /// # Examples
    /// ```
    /// use hb_core::HyperButterfly;
    /// let hb = HyperButterfly::new(3, 8).unwrap(); // the paper's Figure-2 instance
    /// assert_eq!(hb.num_nodes(), 16384);
    /// assert_eq!(hb.degree(), 7);
    /// assert_eq!(hb.diameter(), 15);
    /// assert_eq!(hb.connectivity(), 7); // maximally fault tolerant
    /// ```
    pub fn new(m: u32, n: u32) -> Result<Self> {
        let cube = Hypercube::new(m)?;
        let bfly = Butterfly::new(n)?;
        let nodes = (1u128 << m) * (bfly.num_nodes() as u128);
        if nodes > u32::MAX as u128 {
            return Err(GraphError::InvalidParameter(format!(
                "HB({m}, {n}) has {nodes} nodes, beyond the index budget"
            )));
        }
        Ok(Self { cube, bfly })
    }

    /// Hypercube dimension `m`.
    #[inline]
    pub fn m(&self) -> u32 {
        self.cube.m()
    }

    /// Butterfly dimension `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.bfly.n()
    }

    /// The hypercube factor.
    #[inline]
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }

    /// The butterfly factor.
    #[inline]
    pub fn butterfly(&self) -> &Butterfly {
        &self.bfly
    }

    /// Number of nodes, `n * 2^(m+n)` (Theorem 2).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.cube.num_nodes() * self.bfly.num_nodes()
    }

    /// Number of edges, `(m + 4) * n * 2^(m+n-1)` (Theorem 2).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.degree() as usize * self.num_nodes() / 2
    }

    /// Degree of every node, `m + 4` (Theorems 1–2: the graph is regular).
    #[inline]
    pub fn degree(&self) -> u32 {
        self.m() + 4
    }

    /// Diameter, `m + n + floor(n/2)` (Theorem 3: hypercube diameter plus
    /// butterfly diameter; verified against BFS in the tests).
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.cube.diameter() + self.bfly.diameter()
    }

    /// Vertex connectivity, `m + 4` (Corollary 1): `HB(m, n)` is maximally
    /// fault tolerant.
    #[inline]
    pub fn connectivity(&self) -> u32 {
        self.m() + 4
    }

    /// The identity node `(0..0; t_1 .. t_n)`.
    #[inline]
    pub fn identity_node(&self) -> HbNode {
        HbNode::new(0, self.bfly.identity())
    }

    /// Dense index: `h * |B_n| + b.index()`.
    #[inline]
    pub fn index(&self, v: HbNode) -> usize {
        v.h as usize * self.bfly.num_nodes() + v.b.index()
    }

    /// Node from dense index.
    ///
    /// # Panics
    /// Panics if `idx >= num_nodes()`.
    #[inline]
    pub fn node(&self, idx: usize) -> HbNode {
        assert!(idx < self.num_nodes(), "index {idx} out of range");
        let pop = self.bfly.num_nodes();
        HbNode::new((idx / pop) as u32, self.bfly.node(idx % pop))
    }

    /// All nodes in dense-index order.
    pub fn nodes(&self) -> impl Iterator<Item = HbNode> + '_ {
        (0..self.num_nodes()).map(move |i| self.node(i))
    }

    /// The `m + 4` generators in dense order: `h_0 .. h_{m-1}` then
    /// `g, f, g⁻¹, f⁻¹`.
    pub fn generator_kinds(&self) -> Vec<EdgeKind> {
        (0..self.m())
            .map(|dim| EdgeKind::Hypercube { dim })
            .chain(
                ButterflyGen::ALL
                    .into_iter()
                    .map(|gen| EdgeKind::Butterfly { gen }),
            )
            .collect()
    }

    /// All `m + 4` neighbors of `v`, in generator order.
    pub fn neighbors(&self, v: HbNode) -> Vec<HbNode> {
        let mut out = Vec::with_capacity(self.degree() as usize);
        for dim in 0..self.m() {
            out.push(HbNode::new(v.h ^ (1 << dim), v.b));
        }
        for gen in ButterflyGen::ALL {
            out.push(HbNode::new(v.h, v.b.apply(gen)));
        }
        out
    }

    /// Classifies the edge between two adjacent nodes (Definition 4), or
    /// `None` if they are not adjacent.
    pub fn edge_kind(&self, u: HbNode, v: HbNode) -> Option<EdgeKind> {
        if u.b == v.b && u.h != v.h && (u.h ^ v.h).is_power_of_two() {
            return Some(EdgeKind::Hypercube {
                dim: (u.h ^ v.h).trailing_zeros(),
            });
        }
        if u.h == v.h {
            for gen in ButterflyGen::ALL {
                if u.b.apply(gen) == v.b {
                    return Some(EdgeKind::Butterfly { gen });
                }
            }
        }
        None
    }

    /// Materialises `HB(m, n)` as a CSR graph (ids are dense indices).
    ///
    /// # Errors
    /// Propagates graph-construction failures (none for valid dims).
    pub fn build_graph(&self) -> Result<Graph> {
        CayleyTopology::build_graph(self)
    }
}

impl CayleyTopology for HyperButterfly {
    fn num_nodes(&self) -> usize {
        HyperButterfly::num_nodes(self)
    }

    fn num_generators(&self) -> usize {
        self.degree() as usize
    }

    fn apply(&self, gen: usize, v: usize) -> usize {
        let node = self.node(v);
        let m = self.m() as usize;
        let img = if gen < m {
            HbNode::new(node.h ^ (1 << gen), node.b)
        } else {
            HbNode::new(node.h, node.b.apply(ButterflyGen::ALL[gen - m]))
        };
        self.index(img)
    }

    fn inverse_generator(&self, gen: usize) -> usize {
        let m = self.m() as usize;
        if gen < m {
            gen // h_i is its own inverse
        } else {
            m + [2, 3, 0, 1][gen - m]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_graphs::{props, shortest};
    use hb_group::cayley;

    #[test]
    fn theorem_2_counts() {
        for (m, n) in [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)] {
            let hb = HyperButterfly::new(m, n).unwrap();
            let g = hb.build_graph().unwrap();
            let expected_nodes = (n as usize) << (m + n);
            assert_eq!(g.num_nodes(), expected_nodes, "HB({m},{n})");
            assert_eq!(hb.num_nodes(), expected_nodes);
            let expected_edges = (m as usize + 4) * expected_nodes / 2;
            assert_eq!(g.num_edges(), expected_edges);
            assert_eq!(hb.num_edges(), expected_edges);
            assert!(
                props::all_degrees_are(&g, m as usize + 4),
                "regular of degree m+4"
            );
        }
    }

    #[test]
    fn theorem_1_cayley_graph() {
        for (m, n) in [(1, 3), (2, 3), (2, 4)] {
            cayley::verify_cayley(&HyperButterfly::new(m, n).unwrap()).unwrap();
        }
    }

    #[test]
    fn theorem_3_diameter_matches_bfs() {
        for (m, n) in [(1, 3), (2, 3), (3, 3), (2, 4), (1, 5)] {
            let hb = HyperButterfly::new(m, n).unwrap();
            let g = hb.build_graph().unwrap();
            // Vertex transitive (Cayley): one BFS gives the diameter.
            assert_eq!(
                shortest::diameter_vertex_transitive(&g).unwrap(),
                hb.diameter(),
                "HB({m},{n})"
            );
        }
        // Full APSP cross-check once.
        let hb = HyperButterfly::new(2, 3).unwrap();
        let g = hb.build_graph().unwrap();
        assert_eq!(shortest::diameter(&g).unwrap(), hb.diameter());
    }

    #[test]
    fn index_roundtrip() {
        let hb = HyperButterfly::new(3, 3).unwrap();
        for idx in 0..hb.num_nodes() {
            assert_eq!(hb.index(hb.node(idx)), idx);
        }
        assert_eq!(hb.index(hb.identity_node()), 0);
    }

    #[test]
    fn remark_4_edge_classification() {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let v = hb.node(37);
        for (kind, w) in hb.generator_kinds().into_iter().zip(hb.neighbors(v)) {
            assert_eq!(hb.edge_kind(v, w), Some(kind));
            match kind {
                EdgeKind::Hypercube { .. } => {
                    assert_eq!(v.b, w.b, "hypercube edge fixes butterfly part");
                    assert_ne!(v.h, w.h);
                }
                EdgeKind::Butterfly { .. } => {
                    assert_eq!(v.h, w.h, "butterfly edge fixes hypercube part");
                    assert_ne!(v.b, w.b);
                }
            }
        }
        // Non-adjacent pair.
        assert_eq!(hb.edge_kind(v, v), None);
        let far = HbNode::new(v.h ^ 0b11, v.b);
        assert_eq!(hb.edge_kind(v, far), None);
    }

    #[test]
    fn rejects_oversized_instances() {
        assert!(HyperButterfly::new(26, 20).is_err());
    }

    #[test]
    fn graph_is_bipartite_iff_n_even() {
        // Butterfly B_n contains odd cycles only via odd column length n.
        let even = HyperButterfly::new(1, 4).unwrap().build_graph().unwrap();
        assert!(props::is_bipartite(&even));
        let odd = HyperButterfly::new(1, 3).unwrap().build_graph().unwrap();
        assert!(!props::is_bipartite(&odd));
    }
}
