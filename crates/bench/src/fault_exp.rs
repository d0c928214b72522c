//! Experiment E5: fault injection — Corollary 1 and Remark 10, measured.
//!
//! Sweeps the fault count `f` from 0 past the connectivity threshold for
//! `HB(m, n)` and a node-count-matched `HD` baseline, reporting the
//! fraction of trials whose survivor graph stays connected and the pair
//! reachability. Shape expectation: HB holds at 100% through
//! `f = m + 3` (guaranteed), HD's guarantee ends at `f = m + 1`, and the
//! random-fault degradation curve for HD sits at or below HB's.
//! Additionally exercises the Remark-10 family router at the maximal
//! allowable fault count.

use hb_core::disjoint::DisjointEngine;
use hb_core::{fault_routing, HyperButterfly};
use hb_debruijn::HyperDeBruijn;
use hb_graphs::{Graph, Result};
use hb_netsim::faults::{adversarial_fault_trials, random_fault_trials, FaultTrialStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One topology's sweep.
#[derive(Clone, Debug)]
pub struct FaultSweep {
    /// Topology name.
    pub name: String,
    /// Connectivity (analytic).
    pub kappa: u32,
    /// Trials per fault count.
    pub per_level: Vec<FaultTrialStats>,
}

/// Where a sweep places its faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Campaign {
    /// Uniformly random nodes, with 8 sampled survivor pairs per trial.
    Random,
    /// Neighbours of a minimum-degree victim: the disconnection threshold
    /// equals the minimum degree (`m + 4` for HB, `m + 2` for HD at the
    /// same `m`).
    Targeted,
}

/// Sweeps `f = 0..=max_faults` over `g`, the graph of topology `name`
/// whose analytic connectivity is `kappa`; a targeted sweep's name says
/// so.
pub fn sweep(
    name: &str,
    g: &Graph,
    kappa: u32,
    campaign: Campaign,
    max_faults: usize,
    trials: usize,
    seed: u64,
) -> FaultSweep {
    let per_level = (0..=max_faults)
        .map(|f| match campaign {
            Campaign::Random => random_fault_trials(g, f, trials, 8, seed ^ f as u64),
            Campaign::Targeted => adversarial_fault_trials(g, f, trials, seed ^ f as u64),
        })
        .collect();
    let name = match campaign {
        Campaign::Random => name.to_string(),
        Campaign::Targeted => format!("{name} targeted"),
    };
    FaultSweep {
        name,
        kappa,
        per_level,
    }
}

/// Remark 10 exercised: random pairs with exactly `m + 3` random faults;
/// returns `(successes, trials)` — successes must equal trials.
///
/// # Errors
/// Propagates construction failures.
pub fn family_router_at_max_faults(
    m: u32,
    n: u32,
    trials: usize,
    seed: u64,
) -> Result<(usize, usize)> {
    let hb = HyperButterfly::new(m, n)?;
    let eng = DisjointEngine::new(hb)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let f = hb.degree() as usize - 1; // m + 3
    let mut ok = 0;
    for _ in 0..trials {
        let s = rng.random_range(0..hb.num_nodes());
        let mut t = rng.random_range(0..hb.num_nodes());
        if t == s {
            t = (t + 1) % hb.num_nodes();
        }
        let mut faults = Vec::new();
        while faults.len() < f {
            let x = rng.random_range(0..hb.num_nodes());
            if x != s && x != t && !faults.contains(&x) {
                faults.push(x);
            }
        }
        let fnodes: Vec<_> = faults.iter().map(|&x| hb.node(x)).collect();
        if fault_routing::route_avoiding(&eng, hb.node(s), hb.node(t), &fnodes)?.is_some() {
            ok += 1;
        }
    }
    Ok((ok, trials))
}

/// Single-fault diameter report: measured worst diameter of `G - v` vs
/// the fault-free diameter and (for HB) the Theorem-5 length bound.
#[derive(Clone, Debug)]
pub struct FaultDiameterRow {
    /// Topology name.
    pub name: String,
    /// Fault-free diameter.
    pub diameter: u32,
    /// Worst diameter over all single faults (`None` = disconnectable).
    pub single_fault_diameter: Option<u32>,
    /// The Theorem-5 constructive path-length bound (HB only, else 0).
    pub theorem5_bound: u32,
}

/// Measures single-fault diameters for `HB(m, n)` and `HD(m, n)`.
///
/// # Errors
/// Propagates construction failures.
pub fn fault_diameters(m: u32, n: u32) -> Result<Vec<FaultDiameterRow>> {
    use hb_graphs::shortest;
    let hb = HyperButterfly::new(m, n)?;
    let gb = hb.build_graph()?;
    let hd = HyperDeBruijn::new(m, n)?;
    let gd = hd.build_graph()?;
    Ok(vec![
        FaultDiameterRow {
            name: format!("HB({m}, {n})"),
            diameter: hb.diameter(),
            single_fault_diameter: shortest::single_fault_diameter(&gb),
            theorem5_bound: hb_core::disjoint::length_bound(&hb),
        },
        FaultDiameterRow {
            name: format!("HD({m}, {n})"),
            diameter: hd.diameter(),
            single_fault_diameter: shortest::single_fault_diameter(&gd),
            theorem5_bound: 0,
        },
    ])
}

/// Renders one sweep as a fault-count table.
pub fn render(sweeps: &[FaultSweep]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for sw in sweeps {
        let _ = writeln!(s, "{} (kappa = {}):", sw.name, sw.kappa);
        let _ = writeln!(
            s,
            "  {:>7} {:>12} {:>18}",
            "faults", "connected", "pair-reach"
        );
        for lvl in &sw.per_level {
            let _ = writeln!(
                s,
                "  {:>7} {:>9}/{:<3} {:>17.4}",
                lvl.faults, lvl.connected, lvl.trials, lvl.pair_reachability
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hb_sweep_holds_below_kappa() {
        let hb = HyperButterfly::new(1, 3).unwrap();
        let (g, kappa) = (hb.build_graph().unwrap(), hb.connectivity());
        let sw = sweep("HB(1, 3)", &g, kappa, Campaign::Random, 6, 20, 77);
        assert_eq!(sw.kappa, 5);
        for lvl in &sw.per_level[..5] {
            assert_eq!(lvl.connected, lvl.trials, "f = {}", lvl.faults);
        }
    }

    #[test]
    fn family_router_never_fails_at_m_plus_3() {
        let (ok, trials) = family_router_at_max_faults(1, 3, 60, 5).unwrap();
        assert_eq!(ok, trials);
    }

    #[test]
    fn fault_diameter_respects_theorem_5_bound() {
        let rows = fault_diameters(2, 3).unwrap();
        let hb = &rows[0];
        let sfd = hb
            .single_fault_diameter
            .expect("HB survives any single fault");
        assert!(sfd >= hb.diameter);
        assert!(sfd <= hb.theorem5_bound, "{sfd} > {}", hb.theorem5_bound);
        // HD also survives single faults (kappa = m + 2 >= 3 here).
        assert!(rows[1].single_fault_diameter.is_some());
    }

    #[test]
    fn render_lists_levels() {
        let hd = HyperDeBruijn::new(1, 3).unwrap();
        let (g, kappa) = (hd.build_graph().unwrap(), hd.connectivity());
        let sw = sweep("HD(1, 3)", &g, kappa, Campaign::Targeted, 3, 5, 1);
        let s = render(&[sw]);
        assert!(s.contains("kappa = 3"));
        assert!(s.contains("faults"));
    }
}
