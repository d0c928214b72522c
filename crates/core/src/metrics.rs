//! Measured topology metrics backing the paper's comparison tables
//! (Figures 1 and 2).
//!
//! Each row of the paper's tables is regenerated from the
//! implementations: node/edge counts by construction, regularity and
//! degrees from the materialised graph, diameters by (transitivity-aware)
//! BFS, fault tolerance by max-flow vertex connectivity — with analytic
//! values cross-checked against the measured ones.

use crate::graph::HyperButterfly;
use hb_butterfly::Butterfly;
use hb_debruijn::HyperDeBruijn;
use hb_graphs::{connectivity, props, shortest, Graph, Result};
use hb_hypercube::Hypercube;

/// One table row: everything Figures 1–2 report about a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyMetrics {
    /// Display name, e.g. `HB(3, 8)`.
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// `Some(d)` when the graph is `d`-regular.
    pub regular: Option<usize>,
    /// Minimum node degree.
    pub degree_min: usize,
    /// Maximum node degree.
    pub degree_max: usize,
    /// Analytic diameter (from the topology's formula).
    pub diameter_analytic: u32,
    /// Measured diameter (BFS).
    pub diameter_measured: u32,
    /// Analytic vertex connectivity = fault tolerance.
    pub fault_tolerance_analytic: u32,
    /// Measured vertex connectivity (max-flow), when measured.
    pub fault_tolerance_measured: Option<u32>,
    /// Whether the graph is bipartite (only even cycles embeddable).
    pub bipartite: bool,
}

/// How much measurement to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureLevel {
    /// Degrees and BFS diameter (single-source when vertex transitive).
    Diameter,
    /// Plus exact vertex connectivity (max-flow; slowest).
    Full,
}

fn common(
    name: String,
    g: &Graph,
    diameter_analytic: u32,
    fault_tolerance_analytic: u32,
    vertex_transitive: bool,
    level: MeasureLevel,
) -> Result<TopologyMetrics> {
    let stats = props::degree_stats(g);
    let diameter_measured = if vertex_transitive {
        shortest::diameter_vertex_transitive(g)?
    } else {
        shortest::diameter(g)?
    };
    let fault_tolerance_measured = match level {
        MeasureLevel::Full => Some(connectivity::vertex_connectivity(g)?),
        _ => None,
    };
    Ok(TopologyMetrics {
        name,
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        regular: props::regular_degree(g),
        degree_min: stats.min,
        degree_max: stats.max,
        diameter_analytic,
        diameter_measured,
        fault_tolerance_analytic,
        fault_tolerance_measured,
        bipartite: props::is_bipartite(g),
    })
}

/// Metrics for a hypercube `H_m`.
///
/// # Errors
/// Propagates graph construction / measurement failures.
pub fn hypercube_metrics(m: u32, level: MeasureLevel) -> Result<TopologyMetrics> {
    let h = Hypercube::new(m)?;
    let g = h.build_graph()?;
    common(
        format!("H({m})"),
        &g,
        h.diameter(),
        h.connectivity(),
        true,
        level,
    )
}

/// Metrics for a wrapped butterfly `B_n`.
///
/// # Errors
/// Propagates graph construction / measurement failures.
pub fn butterfly_metrics(n: u32, level: MeasureLevel) -> Result<TopologyMetrics> {
    let b = Butterfly::new(n)?;
    let g = b.build_graph()?;
    common(
        format!("B({n})"),
        &g,
        b.diameter(),
        b.connectivity(),
        true,
        level,
    )
}

/// Metrics for a hyper-deBruijn `HD(m, n)`.
///
/// # Errors
/// Propagates graph construction / measurement failures.
pub fn hyper_debruijn_metrics(m: u32, n: u32, level: MeasureLevel) -> Result<TopologyMetrics> {
    let hd = HyperDeBruijn::new(m, n)?;
    let g = hd.build_graph()?;
    common(
        format!("HD({m}, {n})"),
        &g,
        hd.diameter(),
        hd.connectivity(),
        false, // HD is not vertex transitive (not even regular)
        level,
    )
}

/// Metrics for a hyper-butterfly `HB(m, n)`.
///
/// # Errors
/// Propagates graph construction / measurement failures.
pub fn hyper_butterfly_metrics(m: u32, n: u32, level: MeasureLevel) -> Result<TopologyMetrics> {
    let hb = HyperButterfly::new(m, n)?;
    let g = hb.build_graph()?;
    common(
        format!("HB({m}, {n})"),
        &g,
        hb.diameter(),
        hb.connectivity(),
        true,
        level,
    )
}

/// Renders rows as a fixed-width text table (one row per metrics entry),
/// in the spirit of the paper's Figures 1–2. A footnote explains the
/// star when some FaultTol cell is analytic rather than measured.
pub fn render_table(rows: &[TopologyMetrics]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>10} {:>8} {:>9} {:>10} {:>12} {:>10}",
        "Topology", "Nodes", "Edges", "Regular", "Degree", "Diameter", "FaultTol", "Bipartite"
    );
    for r in rows {
        let degree = if r.degree_min == r.degree_max {
            format!("{}", r.degree_min)
        } else {
            format!("{}..{}", r.degree_min, r.degree_max)
        };
        let d = r.diameter_measured;
        let diam = if d == r.diameter_analytic {
            format!("{d}")
        } else {
            format!("{d}(!{})", r.diameter_analytic)
        };
        let ft = match r.fault_tolerance_measured {
            Some(f) if f == r.fault_tolerance_analytic => format!("{f}"),
            Some(f) => format!("{f}(!{})", r.fault_tolerance_analytic),
            None => format!("{}*", r.fault_tolerance_analytic),
        };
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>10} {:>8} {:>9} {:>10} {:>12} {:>10}",
            r.name,
            r.nodes,
            r.edges,
            if r.regular.is_some() { "yes" } else { "no" },
            degree,
            diam,
            ft,
            if r.bipartite { "yes" } else { "no" },
        );
    }
    if rows.iter().any(|r| r.fault_tolerance_measured.is_none()) {
        out.push_str("(* = analytic value, not measured at this level)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_shape_holds_on_small_instance() {
        // The qualitative claims of Figure 1 at (m, n) = (2, 3):
        let h = hypercube_metrics(5, MeasureLevel::Diameter).unwrap();
        let b = butterfly_metrics(5, MeasureLevel::Diameter).unwrap();
        let hd = hyper_debruijn_metrics(2, 3, MeasureLevel::Full).unwrap();
        let hb = hyper_butterfly_metrics(2, 3, MeasureLevel::Full).unwrap();

        // Regularity: all but HD.
        assert!(h.regular.is_some());
        assert!(b.regular.is_some());
        assert!(hd.regular.is_none());
        assert_eq!(hb.regular, Some(6)); // m + 4

        // Fault tolerance: HB beats HD (m + 4 vs m + 2), both measured.
        assert_eq!(hb.fault_tolerance_measured, Some(6));
        assert_eq!(hd.fault_tolerance_measured, Some(4));

        // HB is maximally fault tolerant; HD is not.
        assert_eq!(hb.fault_tolerance_measured.unwrap() as usize, hb.degree_min);
        assert!((hd.fault_tolerance_measured.unwrap() as usize) < hd.degree_max);

        // Diameters match formulas.
        assert_eq!(h.diameter_measured, 5);
        assert_eq!(b.diameter_measured, 7); // 5 + floor(5/2)
        assert_eq!(hd.diameter_measured, 5); // m + n
        assert_eq!(hb.diameter_measured, 6); // m + n + floor(n/2)
    }

    #[test]
    fn node_counts_match_figure_1_formulas() {
        let m = 3u32;
        let n = 4u32;
        let hd = hyper_debruijn_metrics(m, n, MeasureLevel::Diameter).unwrap();
        let hb = hyper_butterfly_metrics(m, n, MeasureLevel::Diameter).unwrap();
        assert_eq!(hd.nodes, 1 << (m + n));
        assert_eq!(hb.nodes, (n as usize) << (m + n));
        assert_eq!(hb.edges, (m as usize + 4) * hb.nodes / 2);
    }

    #[test]
    fn render_table_mentions_every_row() {
        let rows = vec![
            hypercube_metrics(3, MeasureLevel::Diameter).unwrap(),
            butterfly_metrics(3, MeasureLevel::Diameter).unwrap(),
        ];
        let s = render_table(&rows);
        assert!(s.contains("H(3)"));
        assert!(s.contains("B(3)"));
    }

    #[test]
    fn footnote_only_under_a_starred_cell() {
        const NOTE: &str = "(* = analytic value";
        let full = vec![hypercube_metrics(3, MeasureLevel::Full).unwrap()];
        let s = render_table(&full);
        assert!(!s.contains('*') && !s.contains(NOTE), "{s}");
        let mixed = vec![
            full[0].clone(),
            butterfly_metrics(3, MeasureLevel::Diameter).unwrap(),
        ];
        let s = render_table(&mixed);
        assert!(s.contains("4*") && s.ends_with(&format!("{NOTE}, not measured at this level)\n")));
    }
}
