//! Figure 1: the four-way comparison table (hypercube, wrapped butterfly,
//! hyper-deBruijn, hyper-butterfly).
//!
//! The paper's Figure 1 is symbolic; this regenerates it with *measured*
//! values at matched `(m, n)` — the hypercube/butterfly columns use
//! dimension `m + n` as in the paper, so all four share the
//! `2^(m+n)`-ish scale.

use hb_core::metrics::{
    butterfly_metrics, hyper_butterfly_metrics, hyper_debruijn_metrics, hypercube_metrics,
    render_table, MeasureLevel, TopologyMetrics,
};
use hb_graphs::Result;

/// Symbolic expectations for one Figure-1 column, evaluated at `(m, n)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig1Expectation {
    /// Topology name.
    pub name: &'static str,
    /// Expected node count.
    pub nodes: usize,
    /// Expected degree (min..max as a pair).
    pub degree: (usize, usize),
    /// Expected diameter.
    pub diameter: u32,
    /// Expected fault tolerance (vertex connectivity).
    pub fault_tolerance: u32,
    /// Regular?
    pub regular: bool,
}

/// The paper's Figure-1 formulas evaluated at `(m, n)`.
pub fn expectations(m: u32, n: u32) -> Vec<Fig1Expectation> {
    let mn = (m + n) as usize;
    vec![
        Fig1Expectation {
            name: "Hypercube",
            nodes: 1 << mn,
            degree: (mn, mn),
            diameter: m + n,
            fault_tolerance: m + n,
            regular: true,
        },
        Fig1Expectation {
            name: "Butterfly",
            nodes: mn << mn,
            degree: (4, 4),
            diameter: (m + n) + (m + n) / 2,
            fault_tolerance: 4,
            regular: true,
        },
        Fig1Expectation {
            name: "Hyper-deBruijn",
            nodes: 1 << mn,
            degree: (m as usize + 2, m as usize + 4),
            diameter: m + n,
            fault_tolerance: m + 2,
            regular: false,
        },
        Fig1Expectation {
            name: "Hyper-Butterfly",
            nodes: (n as usize) << mn,
            degree: (m as usize + 4, m as usize + 4),
            diameter: m + n + n / 2,
            fault_tolerance: m + 4,
            regular: true,
        },
    ]
}

/// Measures all four topologies at `(m, n)`.
///
/// # Errors
/// Propagates construction/measurement failures.
pub fn measure(m: u32, n: u32, level: MeasureLevel) -> Result<Vec<TopologyMetrics>> {
    Ok(vec![
        hypercube_metrics(m + n, level)?,
        butterfly_metrics(m + n, level)?,
        hyper_debruijn_metrics(m, n, level)?,
        hyper_butterfly_metrics(m, n, level)?,
    ])
}

/// Checks every measured row against the paper's formulas; returns the
/// list of discrepancies (empty = full agreement).
pub fn discrepancies(m: u32, n: u32, rows: &[TopologyMetrics]) -> Vec<String> {
    let mut out = Vec::new();
    for (exp, row) in expectations(m, n).iter().zip(rows) {
        if row.nodes != exp.nodes {
            out.push(format!(
                "{}: nodes {} != {}",
                exp.name, row.nodes, exp.nodes
            ));
        }
        if (row.degree_min, row.degree_max) != exp.degree {
            out.push(format!(
                "{}: degree {}..{} != {}..{}",
                exp.name, row.degree_min, row.degree_max, exp.degree.0, exp.degree.1
            ));
        }
        if row.regular.is_some() != exp.regular {
            out.push(format!("{}: regularity mismatch", exp.name));
        }
        if let Some(d) = row.diameter_measured {
            if d != exp.diameter {
                out.push(format!("{}: diameter {d} != {}", exp.name, exp.diameter));
            }
        }
        if let Some(f) = row.fault_tolerance_measured {
            if f != exp.fault_tolerance {
                out.push(format!(
                    "{}: fault tolerance {f} != {}",
                    exp.name, exp.fault_tolerance
                ));
            }
        }
    }
    out
}

/// Renders Figure 1 at `(m, n)` from its measured rows: the table plus
/// any formula-vs-measurement discrepancies.
pub fn render(m: u32, n: u32, rows: &[TopologyMetrics]) -> String {
    let mut s = format!("Figure 1 at (m, n) = ({m}, {n})\n");
    s.push_str(&render_table(rows));
    let d = discrepancies(m, n, rows);
    if d.is_empty() {
        s.push_str("All measured values match the paper's formulas.\n");
    } else {
        for line in d {
            s.push_str(&format!("MISMATCH: {line}\n"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_fully_verified_at_2_3() {
        let rows = measure(2, 3, MeasureLevel::Full).unwrap();
        assert!(
            discrepancies(2, 3, &rows).is_empty(),
            "{:?}",
            discrepancies(2, 3, &rows)
        );
    }

    #[test]
    fn figure_1_diameters_verified_at_2_4() {
        let rows = measure(2, 4, MeasureLevel::Diameter).unwrap();
        assert!(
            discrepancies(2, 4, &rows).is_empty(),
            "{:?}",
            discrepancies(2, 4, &rows)
        );
    }

    #[test]
    fn report_renders() {
        let s = render(1, 3, &measure(1, 3, MeasureLevel::Structure).unwrap());
        assert!(s.contains("Hyper") || s.contains("HB(1, 3)"));
        assert!(s.contains("Topology"));
    }
}
