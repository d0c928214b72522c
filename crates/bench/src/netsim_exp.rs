//! Experiment E8: packet-level simulation — HB versus HD versus the
//! hypercube at matched node counts, under uniform and hotspot traffic,
//! plus the routing-order ablation.
//!
//! Shape expectations: at equal node count HB's latency tracks its
//! slightly larger diameter (`floor(n/2)` extra butterfly levels) while
//! its bounded degree keeps per-node wiring constant — the design point
//! of the paper; HD's irregular low-degree nodes (around `00..0` /
//! `11..1`) congest first under hotspot load.

use hb_graphs::Result;
use hb_netsim::topology::{
    HbRouteOrder, HyperButterflyNet, HyperDeBruijnNet, HypercubeNet, NetTopology,
};
use hb_netsim::{sim::SimConfig, workload, Injection, Model, Sim};
use hb_telemetry::{Quantiles, Telemetry};

/// One simulated point.
#[derive(Clone, Debug)]
pub struct SimRow {
    /// Topology name.
    pub name: String,
    /// Traffic pattern name.
    pub pattern: String,
    /// Injection rate (packets/node/cycle) where applicable.
    pub rate: f64,
    /// Delivered packets.
    pub delivered: u64,
    /// Offered packets.
    pub offered: u64,
    /// Mean latency.
    pub avg_latency: f64,
    /// Mean hops.
    pub avg_hops: f64,
    /// Peak queue depth.
    pub peak_queue: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Latency quantiles (cycles) from the attached telemetry; `None`
    /// only when no packet was delivered over a multi-hop path.
    pub latency: Option<Quantiles>,
}

fn mk_row(
    name: &str,
    pattern: &str,
    rate: f64,
    stats: &hb_netsim::SimStats,
    tel: &Telemetry,
) -> SimRow {
    SimRow {
        name: name.to_string(),
        pattern: pattern.to_string(),
        rate,
        delivered: stats.delivered,
        offered: stats.offered,
        avg_latency: stats.avg_latency,
        avg_hops: stats.avg_hops,
        peak_queue: stats.peak_queue,
        cycles: stats.cycles,
        latency: tel.histogram("sim.latency").and_then(|h| h.quantiles()),
    }
}

fn simulate(
    topo: &dyn NetTopology,
    pattern: &str,
    rate: f64,
    inj: Vec<Injection>,
    cfg: SimConfig,
) -> SimRow {
    let tel = Telemetry::summary();
    let stats = Sim::new(topo).run(&inj, cfg.with_telemetry(tel.clone()));
    mk_row(topo.name(), pattern, rate, &stats, &tel)
}

/// Uniform-traffic sweep with the sharded engine at `threads` workers.
/// Results are byte-identical to [`uniform_sweep`] at every thread count
/// (the determinism contract of DESIGN.md §9); `threads` is purely a
/// wall-clock knob.
///
/// # Errors
/// Propagates construction failures.
pub fn uniform_sweep_with_threads(
    rates: &[f64],
    warm_cycles: u64,
    seed: u64,
    threads: usize,
) -> Result<Vec<SimRow>> {
    let topos = matched_topologies()?;
    let mut rows = Vec::new();
    for t in &topos {
        for &rate in rates {
            let inj = workload::uniform(t.num_nodes(), warm_cycles, rate, seed);
            let cfg = SimConfig::bounded(warm_cycles * 40 + 10_000).with_threads(threads);
            rows.push(simulate(t.as_ref(), "uniform", rate, inj, cfg));
        }
    }
    Ok(rows)
}

/// Hotspot traffic with the sharded engine at `threads` workers; same
/// determinism contract as [`uniform_sweep_with_threads`].
///
/// # Errors
/// Propagates construction failures.
pub fn hotspot_run_with_threads(
    rate: f64,
    cycles: u64,
    seed: u64,
    threads: usize,
) -> Result<Vec<SimRow>> {
    let topos = matched_topologies()?;
    let mut rows = Vec::new();
    for t in &topos {
        let inj = workload::hotspot(t.num_nodes(), cycles, rate, 0, 0.3, seed);
        let cfg = SimConfig::bounded(cycles * 60 + 20_000).with_threads(threads);
        rows.push(simulate(t.as_ref(), "hotspot", rate, inj, cfg));
    }
    Ok(rows)
}

/// The 256-node comparison set: `HB(2, 4)` (256), `HD(2, 6)` (256),
/// `H(8)` (256).
///
/// # Errors
/// Propagates construction failures.
pub fn matched_topologies() -> Result<Vec<Box<dyn NetTopology>>> {
    Ok(vec![
        Box::new(HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?),
        Box::new(HyperDeBruijnNet::new(2, 6)?),
        Box::new(HypercubeNet::new(8)?),
    ])
}

/// Uniform-traffic sweep over injection rates.
///
/// # Errors
/// Propagates construction failures.
pub fn uniform_sweep(rates: &[f64], warm_cycles: u64, seed: u64) -> Result<Vec<SimRow>> {
    uniform_sweep_with_threads(rates, warm_cycles, seed, 1)
}

/// Hotspot traffic at a fixed rate.
///
/// # Errors
/// Propagates construction failures.
pub fn hotspot_run(rate: f64, cycles: u64, seed: u64) -> Result<Vec<SimRow>> {
    hotspot_run_with_threads(rate, cycles, seed, 1)
}

/// Null-model simulation: `HB(2, 4)` vs a random 6-regular graph (same
/// node count and degree) under uniform traffic — isolates what HB's
/// *structure* costs/buys beyond regularity.
///
/// # Errors
/// Propagates construction failures.
pub fn null_model_sim(rate: f64, cycles: u64, seed: u64) -> Result<Vec<SimRow>> {
    use hb_netsim::topology::GraphNet;
    let hb = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?;
    let rr = GraphNet::new(
        "rr(256, 6)",
        hb_graphs::generators::random_regular(256, 6, seed)?,
    );
    let cfg = SimConfig::bounded(cycles * 60 + 20_000);
    let inj = workload::uniform(256, cycles, rate, seed);
    Ok(vec![
        simulate(&hb, "uniform/null-model", rate, inj.clone(), cfg.clone()),
        simulate(&rr, "uniform/null-model", rate, inj, cfg),
    ])
}

/// Ablation: hyper-butterfly routing order under permutation traffic.
///
/// # Errors
/// Propagates construction failures.
pub fn routing_order_ablation(m: u32, n: u32, rounds: u64, seed: u64) -> Result<Vec<SimRow>> {
    let cube_first = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst)?;
    let bfly_first = HyperButterflyNet::new(m, n, HbRouteOrder::ButterflyFirst)?;
    let nn = cube_first.num_nodes();
    let inj = workload::permutation(nn, rounds, 4, seed);
    let cfg = SimConfig::bounded(200_000);
    Ok(vec![
        simulate(
            &cube_first,
            "permutation/cube-first",
            0.0,
            inj.clone(),
            cfg.clone(),
        ),
        simulate(&bfly_first, "permutation/butterfly-first", 0.0, inj, cfg),
    ])
}

/// Ablation: oblivious source routing vs minimal adaptive routing on the
/// hyper-butterfly under hotspot traffic. Finding (recorded in
/// EXPERIMENTS.md): myopic least-queue adaptivity does **not** beat the
/// oblivious router here — all shortest paths funnel into the hot node's
/// four-to-seven links regardless, and the queue snapshot the adaptive
/// choice sees is one round stale.
///
/// # Errors
/// Propagates construction failures.
pub fn adaptivity_ablation(
    m: u32,
    n: u32,
    rate: f64,
    cycles: u64,
    seed: u64,
) -> Result<Vec<SimRow>> {
    let t = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst)?;
    let inj = workload::hotspot(t.num_nodes(), cycles, rate, 0, 0.4, seed);
    let cfg = SimConfig::bounded(cycles * 80 + 20_000);
    let tel_o = Telemetry::summary();
    let obl = Sim::new(&t).run(&inj, cfg.clone().with_telemetry(tel_o.clone()));
    let tel_a = Telemetry::summary();
    let ada = Sim::new(&t)
        .model(Model::Adaptive)
        .run(&inj, cfg.with_telemetry(tel_a.clone()));
    Ok(vec![
        mk_row(t.name(), "hotspot/oblivious", rate, &obl, &tel_o),
        mk_row(t.name(), "hotspot/adaptive", rate, &ada, &tel_a),
    ])
}

/// Finite-buffer saturation: delivered fraction under bounded queues of
/// the given capacity across injection rates — where each fabric starts
/// dropping. Uses the matched 256-node HB/HD pair.
///
/// # Errors
/// Propagates construction failures.
pub fn bounded_saturation(
    capacity: usize,
    rates: &[f64],
    cycles: u64,
    seed: u64,
) -> Result<Vec<SimRow>> {
    let topos: Vec<Box<dyn NetTopology>> = vec![
        Box::new(HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?),
        Box::new(HyperDeBruijnNet::new(2, 6)?),
    ];
    let mut rows = Vec::new();
    for t in &topos {
        for &rate in rates {
            let inj = workload::uniform(t.num_nodes(), cycles, rate, seed);
            let tel = Telemetry::summary();
            let cfg = SimConfig::bounded(cycles * 80 + 20_000).with_telemetry(tel.clone());
            let stats = Sim::new(t.as_ref())
                .model(Model::Bounded(capacity))
                .run(&inj, cfg);
            rows.push(mk_row(
                t.name(),
                &format!("bounded(cap={capacity})"),
                rate,
                &stats,
                &tel,
            ));
        }
    }
    Ok(rows)
}

/// Renders rows.
pub fn render(rows: &[SimRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:<28} {:>6} {:>10} {:>12} {:>9} {:>10} {:>8} {:>5} {:>5} {:>5}",
        "Topology",
        "Pattern",
        "Rate",
        "Delivered",
        "AvgLatency",
        "AvgHops",
        "PeakQueue",
        "Cycles",
        "P50",
        "P95",
        "P99"
    );
    for r in rows {
        let q = |f: fn(&Quantiles) -> u64| {
            r.latency
                .as_ref()
                .map_or_else(|| "-".into(), |q| f(q).to_string())
        };
        let _ = writeln!(
            s,
            "{:<12} {:<28} {:>6.3} {:>6}/{:<5} {:>12.2} {:>9.2} {:>10} {:>8} {:>5} {:>5} {:>5}",
            r.name,
            r.pattern,
            r.rate,
            r.delivered,
            r.offered,
            r.avg_latency,
            r.avg_hops,
            r.peak_queue,
            r.cycles,
            q(|q| q.p50),
            q(|q| q.p95),
            q(|q| q.p99)
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sweep_delivers_everything_at_low_load() {
        let rows = uniform_sweep(&[0.05], 30, 17).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.delivered, r.offered, "{}", r.name);
            assert!(r.avg_latency >= r.avg_hops, "{}", r.name);
            // Quantiles ride along on every row and are ordered.
            let q = r.latency.expect("telemetry quantiles attached");
            assert!(
                q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.max,
                "{}",
                r.name
            );
            assert!(q.max as f64 >= r.avg_latency, "{}", r.name);
        }
    }

    #[test]
    fn threaded_sweep_rows_match_serial_rows() {
        let serial = uniform_sweep(&[0.05, 0.2], 20, 11).unwrap();
        let par = uniform_sweep_with_threads(&[0.05, 0.2], 20, 11, 4).unwrap();
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.delivered, p.delivered, "{}", s.name);
            assert_eq!(s.cycles, p.cycles, "{}", s.name);
            assert_eq!(s.peak_queue, p.peak_queue, "{}", s.name);
            assert!((s.avg_latency - p.avg_latency).abs() < 1e-12, "{}", s.name);
            assert_eq!(s.latency, p.latency, "{}", s.name);
        }
    }

    #[test]
    fn routing_order_ablation_same_hops_different_queues() {
        let rows = routing_order_ablation(2, 3, 2, 3).unwrap();
        assert_eq!(rows.len(), 2);
        // Both orders are shortest: identical mean hops.
        assert!((rows[0].avg_hops - rows[1].avg_hops).abs() < 1e-9);
        assert_eq!(rows[0].delivered, rows[0].offered);
        assert_eq!(rows[1].delivered, rows[1].offered);
    }

    #[test]
    fn adaptivity_ablation_is_minimal_and_complete() {
        let rows = adaptivity_ablation(2, 3, 0.2, 60, 21).unwrap();
        assert_eq!(rows.len(), 2);
        // Both deliver everything and keep hop counts minimal (equal
        // mean hops); which one wins on latency is the measured finding,
        // not an assertion — see EXPERIMENTS.md.
        for r in &rows {
            assert_eq!(r.delivered, r.offered, "{}", r.pattern);
        }
        assert!(
            (rows[0].avg_hops - rows[1].avg_hops).abs() < 0.6,
            "{} vs {}",
            rows[0].avg_hops,
            rows[1].avg_hops
        );
        let ratio = rows[1].avg_latency / rows[0].avg_latency;
        assert!((0.5..=2.0).contains(&ratio), "latency ratio {ratio}");
    }

    #[test]
    fn null_model_sim_runs_and_delivers() {
        let rows = null_model_sim(0.1, 50, 4).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.delivered, r.offered, "{}", r.name);
        }
        // The random graph's shorter mean distance shows up as fewer hops.
        assert!(rows[1].avg_hops <= rows[0].avg_hops);
    }

    #[test]
    fn bounded_saturation_conserves_and_bounds_queues() {
        let rows = bounded_saturation(4, &[0.05, 0.5], 40, 8).unwrap();
        for r in &rows {
            assert!(r.delivered <= r.offered);
            assert!(r.peak_queue <= 4, "{}: {}", r.name, r.peak_queue);
        }
        // At very low load nothing is dropped.
        assert_eq!(rows[0].delivered, rows[0].offered);
    }

    #[test]
    fn hotspot_degrades_latency_vs_uniform() {
        let uni = uniform_sweep(&[0.05], 40, 9).unwrap();
        let hot = hotspot_run(0.05, 40, 9).unwrap();
        // Hotspot latency should be at least the uniform latency for the
        // same topology (congestion at the hot node).
        for (u, h) in uni.iter().zip(&hot) {
            assert_eq!(u.name, h.name);
            assert!(h.avg_latency >= u.avg_latency * 0.8, "{}", u.name);
        }
    }
}
