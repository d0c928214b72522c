//! Serial-vs-parallel equivalence properties: for random topologies,
//! workloads, and fault plans, the sharded engine must return the same
//! `SimStats` **and** the same telemetry snapshot (counters, histograms,
//! link stats, trace events, time series, congestion verdicts) as the
//! serial runner at every thread count. This is the acceptance property
//! of the deterministic sharding design (DESIGN.md §9, §12): thread
//! count is a pure performance knob.

use hb_netsim::topology::{
    ButterflyNet, HbRouteOrder, HyperButterflyNet, HypercubeNet, NetTopology,
};
use hb_netsim::{
    run, run_bounded, run_with_faults, run_with_timeline,
    sim::{run_bounded_sweep, SimConfig},
    workload, FaultEventKind, FaultPlan, FaultTarget, FaultTimeline, TraceSampling,
};
use hb_telemetry::{Profile, Telemetry, TsConfig};
use proptest::prelude::*;

/// A trace-level handle with windowed time series on, at a cadence (and
/// a deliberately small retention, to exercise drop-oldest eviction)
/// derived from the seed — so the snapshot equality assertions below
/// also pin the series store and the congestion events byte-for-byte.
fn tel_with_ts(seed: u64) -> Telemetry {
    let tel = Telemetry::with_trace(2048);
    tel.enable_timeseries(TsConfig::new(1 + seed % 7).with_capacity(8 + (seed % 9) as usize));
    tel
}

/// One of the three simulated families, picked by `kind`.
fn make_topology(kind: u8) -> Box<dyn NetTopology> {
    match kind % 3 {
        0 => Box::new(HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap()),
        1 => Box::new(ButterflyNet::new(3).unwrap()),
        _ => Box::new(HypercubeNet::new(4).unwrap()),
    }
}

/// A small deterministic fault plan derived from `seed`: up to two link
/// faults and one node fault, all in range for every test topology.
fn make_plan(seed: u64, n: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if seed.is_multiple_of(3) {
        plan.add_node((seed as usize * 7 + 3) % n);
    }
    if seed.is_multiple_of(2) {
        let u = (seed as usize * 5) % n;
        plan.add_link(u, (u + 1) % n);
    }
    plan
}

/// A small fault/repair timeline derived from `seed`: a link fault, a
/// node fault, and a repair of the first link, spread over the first
/// `cycles` cycles in nondecreasing order.
fn make_timeline(seed: u64, n: usize, cycles: u64) -> FaultTimeline {
    let mut tl = FaultTimeline::new();
    let u = (seed as usize * 3) % n;
    let v = (u + 1) % n;
    tl.push(
        seed % (cycles + 1),
        FaultEventKind::Fault,
        FaultTarget::Link(u, v),
    );
    if seed.is_multiple_of(2) {
        tl.push(
            (seed + 2) % (cycles + 1) + seed % (cycles + 1),
            FaultEventKind::Fault,
            FaultTarget::Node((seed as usize * 11 + 5) % n),
        );
    }
    if seed.is_multiple_of(3) {
        let last = tl.events().last().map_or(0, |e| e.cycle);
        tl.push(
            last + 1 + seed % 4,
            FaultEventKind::Repair,
            FaultTarget::Link(u, v),
        );
    }
    tl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plain runs: stats and full snapshots — including the work
    /// profile, which is enabled on every config here — are thread-count
    /// invariant. The snapshot equality covers `Snapshot::profile`
    /// field-for-field; the explicit `Profile` comparison below makes
    /// the byte-identity of the profiler a named failure, not a generic
    /// snapshot drift.
    #[test]
    fn parallel_run_matches_serial(kind in 0u8..3, rate in 5u32..50,
                                   cycles in 1u64..30, seed in 0u64..300) {
        let t = make_topology(kind);
        let inj = workload::uniform(t.num_nodes(), cycles, rate as f64 / 100.0, seed);
        let tel_serial = tel_with_ts(seed);
        let serial = run(
            &*t,
            &inj,
            SimConfig::default()
                .with_telemetry(tel_serial.clone())
                .with_profile(true),
        );
        let prof_serial = tel_serial.profile();
        prop_assert!(!prof_serial.is_empty(), "profiling recorded phases");
        for threads in [1usize, 2, 4] {
            let tel_par = tel_with_ts(seed);
            let par = run(
                &*t,
                &inj,
                SimConfig::default()
                    .with_telemetry(tel_par.clone())
                    .with_profile(true)
                    .with_threads(threads),
            );
            prop_assert_eq!(&serial, &par, "stats drift at {} threads", threads);
            prop_assert_eq!(
                &prof_serial,
                &tel_par.profile(),
                "profile drift at {} threads",
                threads
            );
            prop_assert_eq!(
                tel_serial.snapshot(),
                tel_par.snapshot(),
                "snapshot drift at {} threads",
                threads
            );
        }
    }

    /// Profile merging is order-independent: merging per-shard profiles
    /// in any permutation yields the identical `Profile` (the merge is a
    /// commutative per-phase sum), so the sharded engine's in-order
    /// merge is a presentation choice, not a correctness requirement.
    #[test]
    fn profile_merge_is_order_independent(
        counts in proptest::collection::vec((0u64..1000, 0u64..100_000), 1..6),
        rot in 0usize..6,
    ) {
        let parts: Vec<Profile> = counts
            .iter()
            .enumerate()
            .map(|(i, &(inv, work))| {
                let mut p = Profile::new();
                p.record("sim/route_lookup", inv, work);
                p.record(&format!("shard/worker_{}", i % 3), inv / 2, work / 2);
                p
            })
            .collect();
        let mut fwd = Profile::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Profile::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        let mut rotated = Profile::new();
        let k = rot % parts.len();
        for p in parts[k..].iter().chain(parts[..k].iter()) {
            rotated.merge(p);
        }
        prop_assert_eq!(&fwd, &rev);
        prop_assert_eq!(&fwd, &rotated);
    }

    /// Fault-aware runs: reroute/unroutable accounting and all telemetry
    /// are thread-count invariant too.
    #[test]
    fn parallel_faulted_run_matches_serial(kind in 0u8..3, rate in 5u32..40,
                                           cycles in 1u64..20, seed in 0u64..300) {
        let t = make_topology(kind);
        let n = t.num_nodes();
        let plan = make_plan(seed, n);
        let inj = workload::uniform(n, cycles, rate as f64 / 100.0, seed);
        let tel_serial = tel_with_ts(seed);
        let serial = run_with_faults(
            &*t,
            &inj,
            SimConfig::default()
                .with_telemetry(tel_serial.clone())
                .with_profile(true),
            &plan,
            TraceSampling::Off,
        );
        for threads in [2usize, 4] {
            let tel_par = tel_with_ts(seed);
            let par = run_with_faults(
                &*t,
                &inj,
                SimConfig::default()
                    .with_telemetry(tel_par.clone())
                    .with_profile(true)
                    .with_threads(threads),
                &plan,
                TraceSampling::Off,
            );
            prop_assert_eq!(&serial, &par, "stats drift at {} threads", threads);
            prop_assert_eq!(
                tel_serial.snapshot(),
                tel_par.snapshot(),
                "snapshot drift at {} threads",
                threads
            );
        }
    }

    /// Fault-**timeline** runs (mid-run churn with incremental route
    /// repair): stats, `sim.repair.*` counters, and the full snapshot
    /// are thread-count invariant — the compile step is engine- and
    /// thread-independent, so churn preserves the `par_equiv` property.
    #[test]
    fn parallel_timeline_run_matches_serial(kind in 0u8..3, rate in 5u32..40,
                                            cycles in 2u64..20, seed in 0u64..300) {
        let t = make_topology(kind);
        let n = t.num_nodes();
        let plan = make_plan(seed, n);
        let tl = make_timeline(seed, n, cycles);
        let inj = workload::uniform(n, cycles, rate as f64 / 100.0, seed);
        let tel_serial = tel_with_ts(seed);
        let serial = run_with_timeline(
            &*t,
            &inj,
            SimConfig::default()
                .with_telemetry(tel_serial.clone())
                .with_profile(true),
            &plan,
            &tl,
            TraceSampling::Off,
        );
        for threads in [2usize, 4] {
            let tel_par = tel_with_ts(seed);
            let par = run_with_timeline(
                &*t,
                &inj,
                SimConfig::default()
                    .with_telemetry(tel_par.clone())
                    .with_profile(true)
                    .with_threads(threads),
                &plan,
                &tl,
                TraceSampling::Off,
            );
            prop_assert_eq!(&serial, &par, "stats drift at {} threads", threads);
            prop_assert_eq!(
                tel_serial.snapshot(),
                tel_par.snapshot(),
                "snapshot drift at {} threads",
                threads
            );
        }
    }

    /// Cycle caps (stranding mid-flight, packets parked in mailboxes or
    /// queues at the cut) conserve packets identically in parallel.
    #[test]
    fn parallel_conservation_under_cycle_limits(kind in 0u8..3, limit in 0u64..12,
                                                seed in 0u64..200) {
        let t = make_topology(kind);
        let inj = workload::uniform(t.num_nodes(), 8, 0.5, seed);
        let serial = run(&*t, &inj, SimConfig::bounded(limit));
        let par = run(&*t, &inj, SimConfig::bounded(limit).with_threads(4));
        prop_assert_eq!(par.delivered + par.stranded, par.offered);
        prop_assert_eq!(&serial, &par);
    }

    /// Implicit vs explicit byte identity: the same workload run on the
    /// graph-free [`HyperButterflyNet::implicit`] (sparse per-channel
    /// state, active frontier) produces the identical stats, work profile,
    /// and full telemetry snapshot as the materialised adapter's dense
    /// engine — serial and sharded.
    #[test]
    fn implicit_run_matches_explicit(rate in 5u32..50, cycles in 1u64..30,
                                     seed in 0u64..300) {
        let exp = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let imp = HyperButterflyNet::implicit(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let inj = workload::uniform(exp.num_nodes(), cycles, f64::from(rate) / 100.0, seed);
        for threads in [1usize, 2] {
            let tel_e = tel_with_ts(seed);
            let a = run(
                &exp,
                &inj,
                SimConfig::default()
                    .with_telemetry(tel_e.clone())
                    .with_profile(true)
                    .with_threads(threads),
            );
            let tel_i = tel_with_ts(seed);
            let b = run(
                &imp,
                &inj,
                SimConfig::default()
                    .with_telemetry(tel_i.clone())
                    .with_profile(true)
                    .with_threads(threads),
            );
            prop_assert_eq!(&a, &b, "stats drift at {} threads", threads);
            prop_assert_eq!(
                tel_e.profile(),
                tel_i.profile(),
                "profile drift at {} threads",
                threads
            );
            prop_assert_eq!(
                tel_e.snapshot(),
                tel_i.snapshot(),
                "snapshot drift at {} threads",
                threads
            );
        }
    }

    /// Frontier vs sweep byte identity: the bounded engine's active
    /// worklist (sorted, drained ascending) must reproduce the full
    /// channel sweep exactly — stats, counters, quantiles, link stats,
    /// and profile — on every topology family with dense channel state,
    /// and on the graph-free `HB(1, 3)` with sparse channel state.
    #[test]
    fn bounded_frontier_matches_sweep(kind in 0u8..3, rate in 5u32..50,
                                      cycles in 1u64..24, seed in 0u64..300,
                                      capacity in 1usize..4) {
        let dense = make_topology(kind);
        let graph_free = HyperButterflyNet::implicit(1, 3, HbRouteOrder::CubeFirst).unwrap();
        for t in [&*dense, &graph_free as &dyn NetTopology] {
            let inj = workload::uniform(t.num_nodes(), cycles, f64::from(rate) / 100.0, seed);
            let tel_f = tel_with_ts(seed);
            let frontier = run_bounded(
                t,
                &inj,
                SimConfig::default()
                    .with_telemetry(tel_f.clone())
                    .with_profile(true),
                capacity,
            );
            let tel_s = tel_with_ts(seed);
            let sweep = run_bounded_sweep(
                t,
                &inj,
                SimConfig::default()
                    .with_telemetry(tel_s.clone())
                    .with_profile(true),
                capacity,
            );
            let sparse = t.explicit_graph().is_none();
            prop_assert_eq!(&frontier, &sweep, "stats drift (sparse {})", sparse);
            prop_assert_eq!(
                tel_f.profile(),
                tel_s.profile(),
                "profile drift (sparse {})",
                sparse
            );
            prop_assert_eq!(
                tel_f.snapshot(),
                tel_s.snapshot(),
                "snapshot drift (sparse {})",
                sparse
            );
        }
    }
}
