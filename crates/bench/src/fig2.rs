//! Figure 2: the paper's head-to-head at 16384 nodes —
//! `HB(3, 8)` vs `HD(3, 11)` vs `HD(6, 8)`.
//!
//! Paper values (Figure 2):
//!
//! | Parameter | HB(3,8) | HD(3,11) | HD(6,8) |
//! |---|---|---|---|
//! | Nodes | 16384 | 16384 | 16384 |
//! | Degree | 7 | 5..7 | 8..10 |
//! | Diameter | 15 | 14 | 14 |
//! | Fault tolerance | 7 | 5 | 8 |
//! | Binary tree | T(10) | T(13) | T(13) |
//! | Mesh of trees | MT(2,256) | MT(2,1024) | MT(16,64) |
//!
//! Node/edge/degree counts and diameters are measured exactly here.
//! Exact vertex connectivity by flow is infeasible at 16384 nodes within
//! a bench budget, so fault tolerance gets a three-part measurement:
//! (a) exact connectivity on scaled-down proxies, (b) a constructive
//! *disconnection witness* of size kappa (the min-degree neighborhood) on
//! the full instance, and (c) randomized trials at kappa - 1 faults that
//! never disconnect.

use hb_core::metrics::{
    hyper_butterfly_metrics, hyper_debruijn_metrics, render_table, MeasureLevel, TopologyMetrics,
};
use hb_core::HyperButterfly;
use hb_debruijn::HyperDeBruijn;
use hb_graphs::{traverse, Result};
use hb_netsim::faults;

/// Scale of the Figure-2 run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig2Scale {
    /// The paper's exact instances (16384 nodes each).
    Paper,
    /// Proportional small proxies (fast; used by tests):
    /// `HB(2, 3)` vs `HD(2, 4)` vs `HD(3, 3)` — 96 vs 64 vs 64 nodes.
    Proxy,
}

/// The three instances at a scale: `(HB(m, n), HD(m1, n1), HD(m2, n2))`.
pub fn instances(scale: Fig2Scale) -> ((u32, u32), (u32, u32), (u32, u32)) {
    match scale {
        Fig2Scale::Paper => ((3, 8), (3, 11), (6, 8)),
        Fig2Scale::Proxy => ((2, 3), (2, 4), (3, 3)),
    }
}

/// Fault-tolerance evidence for one instance at paper scale.
#[derive(Clone, Debug)]
pub struct FaultEvidence {
    /// Topology name.
    pub name: String,
    /// Claimed connectivity kappa.
    pub kappa: u32,
    /// The witness set of size kappa disconnected the graph.
    pub witness_disconnects: bool,
    /// Random trials at kappa - 1 faults: how many stayed connected
    /// (must be all).
    pub trials_connected: usize,
    /// Trials run.
    pub trials: usize,
}

/// Measures structure + diameter for the three instances.
///
/// # Errors
/// Propagates construction/measurement failures.
pub fn measure(scale: Fig2Scale) -> Result<Vec<TopologyMetrics>> {
    let ((m0, n0), (m1, n1), (m2, n2)) = instances(scale);
    let level = match scale {
        Fig2Scale::Paper => MeasureLevel::Diameter,
        Fig2Scale::Proxy => MeasureLevel::Full,
    };
    Ok(vec![
        hyper_butterfly_metrics(m0, n0, level)?,
        hyper_debruijn_metrics(m1, n1, level)?,
        hyper_debruijn_metrics(m2, n2, level)?,
    ])
}

/// Collects the fault-tolerance evidence (witness + randomized trials).
///
/// # Errors
/// Propagates construction failures.
pub fn fault_evidence(scale: Fig2Scale, trials: usize, seed: u64) -> Result<Vec<FaultEvidence>> {
    let ((m0, n0), (m1, n1), (m2, n2)) = instances(scale);
    let mut out = Vec::new();

    let hb = HyperButterfly::new(m0, n0)?;
    let g = hb.build_graph()?;
    out.push(evidence(
        format!("HB({m0}, {n0})"),
        &g,
        hb.connectivity(),
        trials,
        seed,
    ));

    for (m, n) in [(m1, n1), (m2, n2)] {
        let hd = HyperDeBruijn::new(m, n)?;
        let g = hd.build_graph()?;
        out.push(evidence(
            format!("HD({m}, {n})"),
            &g,
            hd.connectivity(),
            trials,
            seed,
        ));
    }
    Ok(out)
}

fn evidence(
    name: String,
    g: &hb_graphs::Graph,
    kappa: u32,
    trials: usize,
    seed: u64,
) -> FaultEvidence {
    let witness = faults::tight_disconnection_witness(g);
    debug_assert_eq!(witness.len(), kappa as usize);
    let witness_disconnects = !traverse::is_connected_avoiding(g, &witness);
    let below = faults::random_fault_trials(g, kappa as usize - 1, trials, 4, seed);
    FaultEvidence {
        name,
        kappa,
        witness_disconnects,
        trials_connected: below.connected,
        trials: below.trials,
    }
}

/// Renders the full Figure-2 report from the [`measure`] rows and the
/// [`fault_evidence`]: the measured table, the paper's quoted values, and
/// the fault-tolerance evidence.
pub fn render(scale: Fig2Scale, rows: &[TopologyMetrics], evidence: &[FaultEvidence]) -> String {
    let mut s = format!("Figure 2 ({scale:?} scale)\n");
    s.push_str(&render_table(rows));
    if scale == Fig2Scale::Paper {
        s.push_str(
            "\nPaper's quoted values: diameters 15 / 14 / 14, fault tolerance 7 / 5 / 8,\n\
             degrees 7 / 5..7 / 8..10, nodes 16384 each.\n",
        );
    }
    s.push_str("\nFault-tolerance evidence (witness of size kappa + trials at kappa-1):\n");
    for e in evidence {
        s.push_str(&format!(
            "  {:<12} kappa={:<2} witness disconnects: {:<5} trials connected: {}/{}\n",
            e.name, e.kappa, e.witness_disconnects, e.trials_connected, e.trials
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_scale_fully_verifies() {
        let rows = measure(Fig2Scale::Proxy).unwrap();
        // HB(2, 3): regular degree 6, kappa 6; HD proxies irregular with
        // kappa m + 2.
        assert_eq!(rows[0].regular, Some(6));
        assert_eq!(rows[0].fault_tolerance_measured, Some(6));
        assert_eq!(rows[1].regular, None);
        assert_eq!(rows[1].fault_tolerance_measured, Some(4));
        assert_eq!(rows[2].fault_tolerance_measured, Some(5));
        // HB is maximally fault tolerant, HD is not.
        assert_eq!(
            rows[0].fault_tolerance_measured.unwrap() as usize,
            rows[0].degree_min
        );
        assert!((rows[1].fault_tolerance_measured.unwrap() as usize) < rows[1].degree_max);
    }

    #[test]
    fn proxy_fault_evidence_witnesses_disconnect() {
        for e in fault_evidence(Fig2Scale::Proxy, 10, 42).unwrap() {
            assert!(e.witness_disconnects, "{}", e.name);
            assert_eq!(e.trials_connected, e.trials, "{}", e.name);
        }
    }

    #[test]
    fn paper_instances_have_equal_node_counts() {
        let ((m0, n0), (m1, n1), (m2, n2)) = instances(Fig2Scale::Paper);
        let hb_nodes = (n0 as usize) << (m0 + n0);
        assert_eq!(hb_nodes, 16384);
        assert_eq!(1usize << (m1 + n1), 16384);
        assert_eq!(1usize << (m2 + n2), 16384);
    }
}
