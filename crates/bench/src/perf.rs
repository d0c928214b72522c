//! Wall-clock throughput of the simulation engine: the measured side of
//! the deterministic-parallelism work (DESIGN.md §9).
//!
//! Two scaling axes are measured, each at the thread counts in
//! [`THREADS`]:
//!
//! * [`engine_scaling`] — one large run through the sharded engine
//!   (`SimConfig::with_threads`), per matched 256-node topology. The
//!   delivered/cycle counters are byte-identical at every thread count
//!   (the equivalence property enforced by `tests/par_equiv.rs`); only
//!   the wall clock moves.
//! * [`grid_scaling`] — the uniform-rate experiment grid driven through
//!   [`parallel_map`], i.e. independent
//!   experiments running concurrently rather than one sharded run.
//!
//! Wall-clock numbers are machine-dependent by nature; the baseline
//! machinery stores them with **infinite** tolerance (see
//! [`default_tolerance`](crate::baseline::default_tolerance)) so the
//! committed `BENCH_parallel.json` documents measured throughput without
//! ever failing the gate on a slower machine, while the `delivered` and
//! `sim_cycles` counters riding along stay exact — the gate still
//! catches any behavioural drift in the parallel engine.

use crate::netsim_exp::matched_topologies;
use crate::parallel::parallel_map;
use hb_graphs::Result;
use hb_netsim::{
    run, run_adaptive, sim::SimConfig, workload, FaultPlan, HbRouteOrder, HyperButterflyNet,
    Injection, NetTopology, RouteCache, RouteTable,
};
use std::hint::black_box;
use std::time::Instant;

/// Thread counts every scaling experiment is measured at.
pub const THREADS: [usize; 3] = [1, 2, 4];

/// Detected hardware parallelism (1 when unknown). Perf reports carry
/// this so the "≥2x engine speedup" acceptance criterion can be
/// *skipped* — rather than silently failed — on single-core runners.
#[must_use]
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One wall-clock measurement point.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Experiment name, e.g. `engine/HB(2, 4)` or `grid/uniform`.
    pub name: String,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Packets delivered (deterministic, thread-count invariant).
    pub delivered: u64,
    /// Simulated cycles (deterministic, thread-count invariant).
    pub sim_cycles: u64,
    /// Delivered packets per wall-clock second.
    pub pkts_per_sec: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Wall-clock speedup relative to the 1-thread row of the same
    /// experiment (1.0 for the 1-thread row itself).
    pub speedup: f64,
}

#[allow(clippy::cast_precision_loss)]
fn mk_row(
    name: String,
    threads: usize,
    wall_secs: f64,
    delivered: u64,
    sim_cycles: u64,
    base_secs: f64,
) -> PerfRow {
    let secs = wall_secs.max(1e-9);
    PerfRow {
        name,
        threads,
        wall_ms: wall_secs * 1e3,
        delivered,
        sim_cycles,
        pkts_per_sec: delivered as f64 / secs,
        cycles_per_sec: sim_cycles as f64 / secs,
        speedup: base_secs.max(1e-9) / secs,
    }
}

/// Sharded-engine scaling: one uniform-traffic run per matched 256-node
/// topology, repeated at each thread count in [`THREADS`].
///
/// # Errors
/// Propagates topology construction failures.
pub fn engine_scaling(cycles: u64, rate: f64, seed: u64) -> Result<Vec<PerfRow>> {
    let topos = matched_topologies()?;
    let mut rows = Vec::new();
    for t in &topos {
        let inj = workload::uniform(t.num_nodes(), cycles, rate, seed);
        let mut base_secs = 0.0;
        for (i, &threads) in THREADS.iter().enumerate() {
            let cfg = SimConfig::bounded(cycles * 40 + 10_000).with_threads(threads);
            let start = Instant::now();
            let stats = run(t.as_ref(), &inj, cfg);
            let wall = start.elapsed().as_secs_f64();
            if i == 0 {
                base_secs = wall;
            }
            rows.push(mk_row(
                format!("engine/{}", t.name()),
                threads,
                wall,
                stats.delivered,
                stats.cycles,
                base_secs,
            ));
        }
    }
    Ok(rows)
}

/// Grid-level scaling: the uniform-rate experiment grid (every matched
/// topology × every rate, each point a full serial simulation) driven
/// through [`parallel_map`], at each thread count in [`THREADS`].
///
/// # Errors
/// Propagates topology construction failures.
pub fn grid_scaling(rates: &[f64], cycles: u64, seed: u64) -> Result<Vec<PerfRow>> {
    let topos = matched_topologies()?;
    let grid: Vec<(usize, f64)> = (0..topos.len())
        .flat_map(|t| rates.iter().map(move |&r| (t, r)))
        .collect();
    let mut rows = Vec::new();
    let mut base_secs = 0.0;
    for (i, &threads) in THREADS.iter().enumerate() {
        let start = Instant::now();
        let stats = parallel_map(&grid, threads, |&(t, rate)| {
            let topo = &topos[t];
            let inj = workload::uniform(topo.num_nodes(), cycles, rate, seed);
            run(
                topo.as_ref(),
                &inj,
                SimConfig::bounded(cycles * 40 + 10_000),
            )
        });
        let wall = start.elapsed().as_secs_f64();
        if i == 0 {
            base_secs = wall;
        }
        let delivered = stats.iter().map(|s| s.delivered).sum();
        let sim_cycles = stats.iter().map(|s| s.cycles).sum();
        rows.push(mk_row(
            "grid/uniform".to_string(),
            threads,
            wall,
            delivered,
            sim_cycles,
            base_secs,
        ));
    }
    Ok(rows)
}

/// Route-oracle lookup microbench: the per-injection slot read of
/// [`RouteTable::slot`] (what admission does) raced against a
/// `BTreeMap<(u32, u32), u32>` pair index, over the same workload's
/// lookups.
///
/// Field mapping (documented because this row reuses the [`PerfRow`]
/// shape): `wall_ms` is the slot-read pass, `pkts_per_sec` is slot
/// reads/s, `cycles_per_sec` is BTreeMap lookups/s, and `speedup` is
/// the slot read's throughput advantage (`btree_secs / slot_secs`). The
/// exact-gated counters stay deterministic: `delivered` = total lookups
/// performed, `sim_cycles` = distinct pairs in the table.
///
/// # Errors
/// Propagates topology construction failures.
pub fn route_lookup(cycles: u64, seed: u64) -> Result<Vec<PerfRow>> {
    use std::collections::BTreeMap;
    const PASSES: usize = 100;
    let t = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?;
    let inj = workload::uniform(t.num_nodes(), cycles, 0.15, seed);
    let table = RouteTable::for_injections(&t, &inj, &FaultPlan::new());
    // A pair index over the same slots.
    let mut btree: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for (k, i) in inj.iter().enumerate() {
        btree
            .entry((i.src as u32, i.dst as u32))
            .or_insert(table.slot(k));
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..PASSES {
        for k in 0..inj.len() {
            acc += u64::from(table.slot(k));
        }
    }
    let slot_secs = start.elapsed().as_secs_f64().max(1e-9);
    let slot_acc = black_box(acc);
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..PASSES {
        for i in &inj {
            if let Some(&slot) = btree.get(&(i.src as u32, i.dst as u32)) {
                acc += u64::from(slot);
            }
        }
    }
    let btree_secs = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(slot_acc, black_box(acc), "indexes must agree");
    let lookups = (PASSES * inj.len()) as u64;
    #[allow(clippy::cast_precision_loss)]
    Ok(vec![PerfRow {
        name: "route_lookup".to_string(),
        threads: 1,
        wall_ms: slot_secs * 1e3,
        delivered: lookups,
        sim_cycles: table.num_pairs() as u64,
        pkts_per_sec: lookups as f64 / slot_secs,
        cycles_per_sec: lookups as f64 / btree_secs,
        speedup: btree_secs / slot_secs,
    }])
}

/// Incremental route-repair microbench (DESIGN.md §15): delta-spliced
/// [`RouteCache::repair`] raced against rebuilding the whole
/// [`RouteTable`] from scratch, on the matched `HB(2, 4)` with one
/// memoized pair per source node (256 pairs). Each row applies a fault
/// delta of 1, 4, or 16 cut links — every link the first hop of some
/// memoized route, so each delta really does invalidate routes — then
/// reverts back to the empty plan, repeated `REPAIR_REPS` (25) times.
///
/// Field mapping (documented because these rows reuse the [`PerfRow`]
/// shape): `wall_ms` is the incremental pass, `pkts_per_sec` is
/// incremental deltas/s, `cycles_per_sec` is full-rebuild deltas/s, and
/// `speedup` is the incremental advantage (`rebuild_secs / incr_secs`)
/// — the ISSUE acceptance criterion is ≥5x on the single-fault row.
/// The exact-gated counters stay deterministic: `delivered` = routes
/// respliced across all deltas, `sim_cycles` = routes kept untouched.
///
/// # Errors
/// Propagates topology construction failures.
pub fn repair_perf(_cycles: u64, seed: u64) -> Result<Vec<PerfRow>> {
    const REPAIR_REPS: usize = 25;
    let t = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?;
    let n = t.num_nodes();
    let pairs: Vec<(usize, usize)> = (0..n).map(|v| (v, (v * 7 + 3) % n)).collect();
    // The same pairs as cycle-0 injections, for the rebuild side.
    let at_zero: Vec<Injection> = pairs
        .iter()
        .map(|&(src, dst)| Injection { src, dst, at: 0 })
        .collect();
    let empty = FaultPlan::new();
    let mut rows = Vec::new();
    for delta in [1usize, 4, 16] {
        // `delta` distinct faulty links, each cutting the first hop of a
        // seed-selected memoized route.
        let mut plan = FaultPlan::new();
        let mut cut = 0;
        for step in 0.. {
            if cut == delta {
                break;
            }
            let (src, dst) = pairs[(seed as usize + step * 31) % pairs.len()];
            let r = t.route(src, dst);
            if !plan.is_link_faulty(r[0], r[1]) {
                plan.add_link(r[0], r[1]);
                cut += 1;
            }
        }

        let mut cache = RouteCache::new();
        for &(src, dst) in &pairs {
            cache.resolve(&t, src, dst);
        }
        assert!(
            cache.num_pairs() >= 256,
            "acceptance floor: 256 memoized pairs"
        );

        let mut respliced = 0u64;
        let mut kept = 0u64;
        let start = Instant::now();
        for _ in 0..REPAIR_REPS {
            for p in [&plan, &empty] {
                let s = cache.repair(&t, p);
                respliced += s.respliced;
                kept += s.kept;
            }
        }
        let incr_secs = start.elapsed().as_secs_f64().max(1e-9);
        black_box(&cache);

        let mut rebuilt = 0usize;
        let start = Instant::now();
        for _ in 0..REPAIR_REPS {
            for p in [&plan, &empty] {
                rebuilt += black_box(RouteTable::for_injections(&t, &at_zero, p)).num_pairs();
            }
        }
        let rebuild_secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(
            rebuilt,
            pairs.len() * REPAIR_REPS * 2,
            "rebuilds cover every pair"
        );

        let deltas = (REPAIR_REPS * 2) as u64;
        #[allow(clippy::cast_precision_loss)]
        rows.push(PerfRow {
            name: format!("repair/delta{delta}"),
            threads: 1,
            wall_ms: incr_secs * 1e3,
            delivered: respliced,
            sim_cycles: kept,
            pkts_per_sec: deltas as f64 / incr_secs,
            cycles_per_sec: deltas as f64 / rebuild_secs,
            speedup: rebuild_secs / incr_secs,
        });
    }
    Ok(rows)
}

/// Adaptive-runner microbench: one `run_adaptive` hotspot run on the
/// matched `HB(2, 4)`, recording the wall clock of the allocation-free
/// hot path. Counters (`delivered`, `sim_cycles`) are deterministic and
/// exact-gated; `speedup` is 1.0 by construction (single row).
///
/// # Errors
/// Propagates topology construction failures.
pub fn adaptive_perf(cycles: u64, seed: u64) -> Result<Vec<PerfRow>> {
    let t = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst)?;
    let inj = workload::hotspot(t.num_nodes(), cycles, 0.15, 0, 0.4, seed);
    let cfg = SimConfig::bounded(cycles * 80 + 20_000);
    let start = Instant::now();
    let stats = run_adaptive(&t, &inj, cfg);
    let wall = start.elapsed().as_secs_f64();
    Ok(vec![mk_row(
        "adaptive".to_string(),
        1,
        wall,
        stats.delivered,
        stats.cycles,
        wall,
    )])
}

/// A fixed-size deterministic workload whose packet count does **not**
/// grow with the topology: a Weyl-style arithmetic walk over the node
/// space (no RNG), so the frontier rows below measure how throughput
/// scales with *node count* at constant traffic.
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

/// Frontier-engine scaling: the same ~2048-packet arithmetic workload
/// run on the graph-free [`HyperButterflyNet::implicit`] at node counts
/// from 10^3 to over 10^6 (`HB(4, 4)` through `HB(7, 10)`).
/// With the active-frontier worklist and sparse channel state, wall
/// clock per cycle tracks *active packets*, not node count — the four
/// rows document that cycles/sec stays in the same decade across three
/// orders of magnitude of topology size.
///
/// # Errors
/// Propagates topology construction failures.
pub fn frontier_scaling(cycles: u64, _seed: u64) -> Result<Vec<PerfRow>> {
    const SHAPES: [(u32, u32); 4] = [(4, 4), (5, 6), (6, 8), (7, 10)];
    const PACKETS: usize = 2048;
    let mut rows = Vec::new();
    for (m, n) in SHAPES {
        let t = HyperButterflyNet::implicit(m, n, HbRouteOrder::CubeFirst)?;
        let inj = frontier_workload(t.num_nodes(), cycles, PACKETS);
        let cfg = SimConfig::bounded(cycles * 40 + 10_000);
        let start = Instant::now();
        let stats = run(&t, &inj, cfg);
        let wall = start.elapsed().as_secs_f64();
        rows.push(mk_row(
            format!("frontier/{}", t.name()),
            1,
            wall,
            stats.delivered,
            stats.cycles,
            wall,
        ));
    }
    Ok(rows)
}

/// The full perf suite at modest sizes: engine scaling, grid scaling,
/// and the hot-path microbenches. This is what `hbnet bench --perf`
/// measures and what `BENCH_parallel.json` stores.
///
/// # Errors
/// Propagates topology construction failures.
pub fn perf_rows(cycles: u64, seed: u64) -> Result<Vec<PerfRow>> {
    let mut rows = engine_scaling(cycles, 0.15, seed)?;
    rows.extend(grid_scaling(&[0.05, 0.10, 0.20], cycles, seed)?);
    rows.extend(route_lookup(cycles, seed)?);
    rows.extend(repair_perf(cycles, seed)?);
    rows.extend(adaptive_perf(cycles, seed)?);
    rows.extend(frontier_scaling(cycles, seed)?);
    Ok(rows)
}

/// Renders perf rows as an aligned table, headed by the detected core
/// count (wall-clock speedups are only meaningful with real cores; on a
/// single-core runner the ≥2x criterion is explicitly skipped).
#[must_use]
pub fn render(rows: &[PerfRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let cores = detected_cores();
    let _ = writeln!(s, "detected cores: {cores}");
    if cores == 1 {
        let _ = writeln!(
            s,
            "note: single-core runner — the >=2x engine speedup criterion is \
             skipped (not failed); engine speedups <=1x are expected here"
        );
    }
    let _ = writeln!(
        s,
        "{:<20} {:>7} {:>10} {:>10} {:>9} {:>12} {:>13} {:>8}",
        "Experiment",
        "Threads",
        "WallMs",
        "Delivered",
        "SimCycles",
        "Pkts/s",
        "Cycles/s",
        "Speedup"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<20} {:>7} {:>10.2} {:>10} {:>9} {:>12.0} {:>13.0} {:>8.2}",
            r.name,
            r.threads,
            r.wall_ms,
            r.delivered,
            r.sim_cycles,
            r.pkts_per_sec,
            r.cycles_per_sec,
            r.speedup
        );
    }
    s
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
                assert!(r.wall_ms >= 0.0);
                assert!(r.pkts_per_sec > 0.0, "{}", r.name);
                assert!(r.speedup > 0.0);
            }
            assert!((group[0].speedup - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_scaling_counters_are_thread_invariant() {
        let rows = grid_scaling(&[0.05, 0.1], 12, 5).unwrap();
        assert_eq!(rows.len(), THREADS.len());
        for r in &rows {
            assert_eq!(r.delivered, rows[0].delivered);
            assert_eq!(r.sim_cycles, rows[0].sim_cycles);
        }
    }

    #[test]
    fn render_mentions_every_experiment() {
        let rows = grid_scaling(&[0.05], 8, 3).unwrap();
        let s = render(&rows);
        assert!(s.contains("grid/uniform"));
        assert!(s.contains("Speedup"));
    }

    #[test]
    fn render_reports_detected_cores() {
        let s = render(&[]);
        assert!(s.contains("detected cores:"));
        if detected_cores() == 1 {
            assert!(s.contains("skipped"));
        }
    }

    #[test]
    fn route_lookup_counters_are_deterministic() {
        let a = route_lookup(15, 7).unwrap();
        let b = route_lookup(15, 7).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].name, "route_lookup");
        assert_eq!(a[0].threads, 1);
        // Exact-gated counters must not depend on the wall clock.
        assert_eq!(a[0].delivered, b[0].delivered);
        assert_eq!(a[0].sim_cycles, b[0].sim_cycles);
        assert!(a[0].delivered > 0);
        assert!(a[0].speedup > 0.0);
        assert!(a[0].pkts_per_sec > 0.0);
        assert!(a[0].cycles_per_sec > 0.0);
    }

    #[test]
    fn repair_perf_counters_are_deterministic() {
        let a = repair_perf(10, 7).unwrap();
        let b = repair_perf(10, 7).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].name, "repair/delta1");
        assert_eq!(a[1].name, "repair/delta4");
        assert_eq!(a[2].name, "repair/delta16");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.threads, 1);
            // Exact-gated counters must not depend on the wall clock.
            assert_eq!(x.delivered, y.delivered, "{}", x.name);
            assert_eq!(x.sim_cycles, y.sim_cycles, "{}", x.name);
            // Every delta actually respliced something and kept most of
            // the memo untouched — the point of the incremental path.
            assert!(x.delivered > 0, "{}", x.name);
            assert!(x.sim_cycles > x.delivered, "{}", x.name);
            assert!(x.speedup > 0.0);
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
        let a = frontier_scaling(10, 7).unwrap();
        let b = frontier_scaling(10, 7).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].name, "frontier/HB(4, 4)");
        assert_eq!(a[3].name, "frontier/HB(7, 10)");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.threads, 1);
            assert_eq!(x.delivered, y.delivered);
            assert_eq!(x.sim_cycles, y.sim_cycles);
            assert!(x.delivered > 0, "{}", x.name);
        }
    }

    #[test]
    fn adaptive_perf_counters_are_deterministic() {
        let a = adaptive_perf(15, 7).unwrap();
        let b = adaptive_perf(15, 7).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].name, "adaptive");
        assert_eq!(a[0].delivered, b[0].delivered);
        assert_eq!(a[0].sim_cycles, b[0].sim_cycles);
        assert!(a[0].delivered > 0);
        assert!((a[0].speedup - 1.0).abs() < 1e-9);
    }
}
