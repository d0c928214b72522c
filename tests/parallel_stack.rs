//! Tier-1 coverage for the parallel simulation stack from the workspace
//! root, so a plain `cargo test` (which only builds the root package —
//! the footgun documented in CHANGES.md) still exercises the sharded
//! engine and the route-table layer end-to-end. `cargo test --workspace`
//! remains the canonical full run (see README).

use hyper_butterfly::hb_netsim::{
    sim::SimConfig, workload, FaultPlan, HbRouteOrder, HyperButterflyNet, NetTopology, RouteTable,
    Sim,
};
use hyper_butterfly::hb_telemetry::Telemetry;

/// The tentpole contract, end-to-end through the facade: the sharded
/// engine returns byte-identical stats and telemetry at every thread
/// count.
#[test]
fn sharded_engine_is_deterministic_through_the_facade() {
    let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
    let inj = workload::uniform(t.num_nodes(), 25, 0.2, 42);
    let tel_serial = Telemetry::with_trace(4096);
    let serial = Sim::new(&t).run(
        &inj,
        SimConfig::default().with_telemetry(tel_serial.clone()),
    );
    assert_eq!(serial.delivered, serial.offered);
    for threads in [2, 4, 8] {
        let tel_par = Telemetry::with_trace(4096);
        let par = Sim::new(&t).run(
            &inj,
            SimConfig::default()
                .with_telemetry(tel_par.clone())
                .with_threads(threads),
        );
        assert_eq!(serial, par, "stats drift at {threads} threads");
        assert_eq!(
            tel_serial.snapshot(),
            tel_par.snapshot(),
            "snapshot drift at {threads} threads"
        );
    }
}

/// Fault-aware parallel runs route around the plan identically to the
/// serial flight recorder.
#[test]
fn faulted_sharded_runs_match_serial() {
    let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
    let mut plan = FaultPlan::new();
    plan.add_node(5);
    plan.add_link(0, 1);
    let inj = workload::uniform(t.num_nodes(), 20, 0.15, 7);
    let cfg = SimConfig::default;
    let serial = Sim::new(&t).faults(&plan).run(&inj, cfg());
    let par = Sim::new(&t).faults(&plan).run(&inj, cfg().with_threads(4));
    assert_eq!(serial, par);
    assert_eq!(par.delivered + par.stranded, par.offered);
}

/// Route tables are exact: every precomputed path has the graph
/// distance's length (Remark 6/8: `d = d_H + d_B`).
#[test]
fn route_table_paths_are_shortest() {
    let t = HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap();
    let inj = workload::uniform(t.num_nodes(), 6, 0.3, 3);
    let table = RouteTable::for_injections(&t, &inj, &FaultPlan::new());
    assert!(table.num_pairs() > 0);
    let tree = hyper_butterfly::hb_graphs::traverse::bfs(t.graph(), 0);
    for (k, i) in inj.iter().enumerate() {
        if i.src == 0 {
            let path = table.path(table.slot(k));
            assert_eq!(path.len() as u64, u64::from(tree.dist[i.dst]) + 1);
        }
    }
}
