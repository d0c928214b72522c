//! Exact engine counters for the bench regression gate (DESIGN.md §8).
//!
//! Each row runs seeded workloads through one engine path and keeps two
//! deterministic counters:
//!
//! * `engine/*` — one uniform run per matched 256-node topology through
//!   the sharded engine at each thread count in [`THREADS`]. The
//!   counters are equal at every thread count (`tests/par_equiv.rs`);
//! * `grid/uniform` — the uniform-rate grid, summed into one row;
//! * `repair/delta{1,4,16}` — incremental route repair
//!   ([`RouteCache::repair`], DESIGN.md §15);
//! * `adaptive` — one `Model::Adaptive` hotspot run;
//! * `frontier/*` — the graph-free [`HyperButterflyNet::implicit`] from
//!   `HB(4, 4)` to the million-node `HB(7, 10)`.
//!
//! [`Baseline::collect`](crate::baseline::Baseline::collect) stores every
//! row under `perf/<name>/t<threads>`, where both counters are held
//! exact. Nothing here reads the wall clock: timing lives in
//! `perfbench/`.

use crate::netsim_exp::{matched_topologies, uniform_sweep};
use hb_graphs::Result;
use hb_netsim::{
    sim::SimConfig, workload, FaultPlan, HbRouteOrder, HyperButterflyNet, Injection, Model,
    NetTopology, RouteCache, Sim, SimStats,
};

/// Thread counts the `engine/*` rows run at.
pub const THREADS: [usize; 3] = [1, 2, 4];

/// One counter row of the gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerfRow {
    /// Experiment name, e.g. `engine/HB(2, 4)` or `repair/delta4`.
    pub name: String,
    /// Worker threads the run used.
    pub threads: usize,
    /// Packets delivered; routes respliced on the `repair/*` rows.
    pub delivered: u64,
    /// Simulated cycles; routes kept untouched on the `repair/*` rows.
    pub sim_cycles: u64,
}

fn sim_row(name: String, threads: usize, stats: &SimStats) -> PerfRow {
    PerfRow {
        name,
        threads,
        delivered: stats.delivered,
        sim_cycles: stats.cycles,
    }
}

/// One uniform-traffic run per matched 256-node topology, repeated at
/// each thread count in [`THREADS`].
fn engine_scaling(cycles: u64, rate: f64, seed: u64) -> Result<Vec<PerfRow>> {
    let mut rows = Vec::new();
    for t in &matched_topologies()? {
        let inj = workload::uniform(t.num_nodes(), cycles, rate, seed);
        for threads in THREADS {
            let cfg = SimConfig::bounded(cycles * 40 + 10_000).with_threads(threads);
            let stats = Sim::new(t.as_ref()).run(&inj, cfg);
            rows.push(sim_row(format!("engine/{}", t.name()), threads, &stats));
        }
    }
    Ok(rows)
}

/// The uniform-rate grid (every matched topology × every rate, each
/// point a full serial run), summed into one row.
fn grid_uniform(rates: &[f64], cycles: u64, seed: u64) -> Result<PerfRow> {
    let sweep = uniform_sweep(rates, cycles, seed)?;
    Ok(PerfRow {
        name: "grid/uniform".to_string(),
        threads: 1,
        delivered: sweep.iter().map(|r| r.delivered).sum(),
        sim_cycles: sweep.iter().map(|r| r.cycles).sum(),
    })
}

/// Incremental route repair on the matched `HB(2, 4)` with one memoized
/// pair per source node (256 pairs). Each row applies a fault delta of
/// 1, 4, or 16 cut links — every link the first hop of some memoized
/// route, so each delta really does invalidate routes — then reverts to
/// the empty plan, 25 times. `delivered` counts the routes respliced
/// across all deltas and `sim_cycles` the routes kept.
fn repair_perf(seed: u64) -> Result<Vec<PerfRow>> {
    const REPAIR_REPS: usize = 25;
    let t = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?;
    let n = t.num_nodes();
    let pairs: Vec<(usize, usize)> = (0..n).map(|v| (v, (v * 7 + 3) % n)).collect();
    let empty = FaultPlan::new();
    let mut rows = Vec::new();
    for delta in [1usize, 4, 16] {
        // `delta` distinct faulty links, each cutting the first hop of a
        // seed-selected memoized route.
        let mut plan = FaultPlan::new();
        let (mut cut, mut step) = (0, 0);
        while cut < delta {
            let (src, dst) = pairs[(seed as usize + step * 31) % pairs.len()];
            let r = t.route(src, dst);
            if !plan.is_link_faulty(r[0], r[1]) {
                plan.add_link(r[0], r[1]);
                cut += 1;
            }
            step += 1;
        }

        let mut cache = RouteCache::new();
        for &(src, dst) in &pairs {
            cache.resolve(&t, src, dst);
        }
        let (mut respliced, mut kept) = (0, 0);
        for _ in 0..REPAIR_REPS {
            for p in [&plan, &empty] {
                let s = cache.repair(&t, p);
                respliced += s.respliced;
                kept += s.kept;
            }
        }
        rows.push(PerfRow {
            name: format!("repair/delta{delta}"),
            threads: 1,
            delivered: respliced,
            sim_cycles: kept,
        });
    }
    Ok(rows)
}

/// One `Model::Adaptive` hotspot run on the matched `HB(2, 4)`.
fn adaptive_perf(cycles: u64, seed: u64) -> Result<PerfRow> {
    let t = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?;
    let inj = workload::hotspot(t.num_nodes(), cycles, 0.15, 0, 0.4, seed);
    let stats = Sim::new(&t)
        .model(Model::Adaptive)
        .run(&inj, SimConfig::bounded(cycles * 80 + 20_000));
    Ok(sim_row("adaptive".to_string(), 1, &stats))
}

/// A fixed-size deterministic workload whose packet count does **not**
/// grow with the topology: a Weyl-style arithmetic walk over the node
/// space (no RNG), so the frontier rows run constant traffic on node
/// counts three orders of magnitude apart.
fn frontier_workload(nn: usize, cycles: u64, packets: usize) -> Vec<Injection> {
    let per_cycle = (packets as u64).div_ceil(cycles.max(1)) as usize;
    let mut inj = Vec::with_capacity(packets);
    let mut i = 0u64;
    'fill: for at in 0..cycles {
        for _ in 0..per_cycle {
            let src = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as usize % nn;
            let dst = (i.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 13) as usize % nn;
            i += 1;
            if src != dst {
                inj.push(Injection { src, dst, at });
            }
            if inj.len() == packets {
                break 'fill;
            }
        }
    }
    inj
}

/// The same ~2048-packet arithmetic workload on the graph-free
/// [`HyperButterflyNet::implicit`] at node counts from 10^3 to over
/// 10^6 (`HB(4, 4)` through `HB(7, 10)`).
fn frontier_scaling(cycles: u64) -> Result<Vec<PerfRow>> {
    const SHAPES: [(u32, u32); 4] = [(4, 4), (5, 6), (6, 8), (7, 10)];
    const PACKETS: usize = 2048;
    let mut rows = Vec::new();
    for (m, n) in SHAPES {
        let t = HyperButterflyNet::implicit(m, n, HbRouteOrder::CubeFirst)?;
        let inj = frontier_workload(t.num_nodes(), cycles, PACKETS);
        let stats = Sim::new(&t).run(&inj, SimConfig::bounded(cycles * 40 + 10_000));
        rows.push(sim_row(format!("frontier/{}", t.name()), 1, &stats));
    }
    Ok(rows)
}

/// Every counter row of the gate, in a fixed order.
///
/// # Errors
/// Propagates topology construction failures.
pub fn perf_rows(cycles: u64, seed: u64) -> Result<Vec<PerfRow>> {
    let mut rows = engine_scaling(cycles, 0.15, seed)?;
    rows.push(grid_uniform(&[0.05, 0.10, 0.20], cycles, seed)?);
    rows.extend(repair_perf(seed)?);
    rows.push(adaptive_perf(cycles, seed)?);
    rows.extend(frontier_scaling(cycles)?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_scaling_counters_are_thread_invariant() {
        let rows = engine_scaling(15, 0.1, 7).unwrap();
        assert_eq!(rows.len(), 3 * THREADS.len());
        for group in rows.chunks(THREADS.len()) {
            for r in group {
                assert_eq!(r.delivered, group[0].delivered, "{}", r.name);
                assert_eq!(r.sim_cycles, group[0].sim_cycles, "{}", r.name);
            }
        }
    }

    #[test]
    fn repair_perf_counters_are_deterministic() {
        let a = repair_perf(7).unwrap();
        let b = repair_perf(7).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].name, "repair/delta1");
        assert_eq!(a[1].name, "repair/delta4");
        assert_eq!(a[2].name, "repair/delta16");
        assert_eq!(a, b);
        for x in &a {
            assert_eq!(x.threads, 1);
            // Every delta actually respliced something and kept most of
            // the memo untouched — the point of the incremental path.
            assert!(x.delivered > 0, "{}", x.name);
            assert!(x.sim_cycles > x.delivered, "{}", x.name);
        }
        // Bigger deltas invalidate at least as many routes.
        assert!(a[0].delivered <= a[1].delivered);
        assert!(a[1].delivered <= a[2].delivered);
    }

    #[test]
    fn frontier_workload_is_fixed_size_and_sorted() {
        for nn in [1024usize, 1 << 17] {
            let inj = frontier_workload(nn, 12, 500);
            assert_eq!(inj.len(), 500);
            assert!(inj.windows(2).all(|w| w[0].at <= w[1].at));
            assert!(inj
                .iter()
                .all(|i| i.src != i.dst && i.src < nn && i.dst < nn));
        }
    }

    #[test]
    fn frontier_scaling_counters_are_deterministic() {
        let a = frontier_scaling(10).unwrap();
        let b = frontier_scaling(10).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].name, "frontier/HB(4, 4)");
        assert_eq!(a[3].name, "frontier/HB(7, 10)");
        assert_eq!(a, b);
        for x in &a {
            assert_eq!(x.threads, 1);
            assert!(x.delivered > 0, "{}", x.name);
        }
    }

    #[test]
    fn adaptive_perf_counters_are_deterministic() {
        let a = adaptive_perf(15, 7).unwrap();
        assert_eq!(a, adaptive_perf(15, 7).unwrap());
        assert_eq!(a.name, "adaptive");
        assert!(a.delivered > 0);
    }
}
