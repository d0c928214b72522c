//! Incremental-repair equivalence properties (ISSUE 10 acceptance):
//! after any sequence of random fault/repair deltas — including cycles
//! that revert all the way back to the empty plan — a delta-spliced
//! [`RouteCache`] holds routes **byte-identical** to a fresh
//! rebuild-from-scratch under the final plan, for both the eager
//! ([`RouteCache::repair`]) and lazy ([`RouteCache::set_plan`]) paths,
//! and timeline runs produce the same stats and counters as their
//! static-plan equivalents.

use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, NetTopology};
use hb_netsim::{
    sim::SimConfig, workload, FaultEventKind, FaultPlan, FaultTarget, FaultTimeline, Injection,
    RouteCache, RouteTable, Sim,
};
use hb_telemetry::Telemetry;
use proptest::prelude::*;

fn topo(kind: u8) -> HyperButterflyNet {
    if kind.is_multiple_of(2) {
        HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap()
    } else {
        HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
    }
}

/// A deterministic spread of endpoint pairs covering every source node.
fn pairs_of(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|v| [(v, (v * 7 + 3) % n), (v, (v * 13 + 5) % n)])
        .collect()
}

/// Applies one encoded op to `plan`, tracking applied faults in `hist`
/// so repair ops can target something actually faulty.
fn apply_op(
    t: &HyperButterflyNet,
    plan: &mut FaultPlan,
    hist: &mut Vec<FaultTarget>,
    op: (u8, u16, u16),
) {
    let n = t.graph().num_nodes();
    let (kind, a, b) = op;
    match kind % 3 {
        0 => {
            let v = a as usize % n;
            plan.add_node(v);
            hist.push(FaultTarget::Node(v));
        }
        1 => {
            let u = a as usize % n;
            let nbrs = t.graph().neighbors(u);
            let v = nbrs[b as usize % nbrs.len()] as usize;
            plan.add_link(u, v);
            hist.push(FaultTarget::Link(u.min(v), u.max(v)));
        }
        _ => {
            if hist.is_empty() {
                return;
            }
            match hist.swap_remove(b as usize % hist.len()) {
                FaultTarget::Node(v) => {
                    plan.remove_node(v);
                }
                FaultTarget::Link(u, v) => {
                    plan.remove_link(u, v);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core tentpole property: spliced routes ≡ rebuilt routes.
    /// Each delta is checked three ways — eagerly repaired cache, lazily
    /// invalidated cache, and a from-scratch [`RouteTable`] — and the
    /// final delta reverts to the empty plan, which must restore the
    /// pristine oblivious routes.
    #[test]
    fn incremental_repair_matches_fresh_rebuild(
        kind in 0u8..2,
        deltas in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u16..9999, 0u16..9999), 1..4),
            1..5,
        ),
    ) {
        let t = topo(kind);
        let n = t.graph().num_nodes();
        let pairs = pairs_of(n);
        let at_zero: Vec<Injection> =
            pairs.iter().map(|&(src, dst)| Injection { src, dst, at: 0 }).collect();

        let mut plan = FaultPlan::new();
        let mut hist: Vec<FaultTarget> = Vec::new();
        let mut eager = RouteCache::new();
        let mut lazy = RouteCache::new();
        for &(src, dst) in &pairs {
            eager.resolve(&t, src, dst);
            lazy.resolve(&t, src, dst);
        }

        let mut steps: Vec<FaultPlan> = Vec::new();
        for ops in &deltas {
            for &op in ops {
                apply_op(&t, &mut plan, &mut hist, op);
            }
            steps.push(plan.clone());
        }
        steps.push(FaultPlan::new()); // the revert-to-empty delta

        for step in &steps {
            let stats = eager.repair(&t, step);
            prop_assert_eq!(stats.kept + stats.respliced, stats.scanned);
            lazy.set_plan(step);
            let fresh = RouteTable::for_injections(&t, &at_zero, step);
            for (k, &(src, dst)) in pairs.iter().enumerate() {
                let f = fresh.slot(k);
                let e = eager.resolve(&t, src, dst);
                let l = lazy.resolve(&t, src, dst);
                prop_assert_eq!(fresh.path(f), eager.path(e), "eager path {}->{}", src, dst);
                prop_assert_eq!(fresh.detour(f), eager.detour(e), "eager detour {}->{}", src, dst);
                prop_assert_eq!(fresh.path(f), lazy.path(l), "lazy path {}->{}", src, dst);
                prop_assert_eq!(fresh.detour(f), lazy.detour(l), "lazy detour {}->{}", src, dst);
            }
            // Eager repair keeps the memo complete: every pair scanned.
            prop_assert_eq!(eager.num_pairs(), pairs.len());
        }

        // Back at the empty plan: pristine oblivious routes, no detours.
        prop_assert!(eager.plan().is_empty());
        for &(src, dst) in &pairs {
            let e = eager.resolve(&t, src, dst);
            let want: Vec<u32> = t.route(src, dst).iter().map(|&v| v as u32).collect();
            prop_assert_eq!(eager.path(e), &want[..]);
            prop_assert!(eager.detour(e).is_none());
        }
    }

    /// A timeline whose events all land at cycle 0 is indistinguishable
    /// from a static plan with the same faults: same stats, same
    /// delivery/reroute/unroutable counters.
    #[test]
    fn cycle_zero_timeline_matches_static_plan(
        kind in 0u8..2, rate in 5u32..40, cycles in 1u64..16, seed in 0u64..200,
        faults in proptest::collection::vec((0u8..2, 0u16..9999, 0u16..9999), 1..4),
    ) {
        let t = topo(kind);
        let n = t.graph().num_nodes();
        let inj = workload::uniform(n, cycles, f64::from(rate) / 100.0, seed);
        let mut static_plan = FaultPlan::new();
        let mut tl = FaultTimeline::new();
        for &(kind, a, b) in &faults {
            let target = if kind % 2 == 0 {
                FaultTarget::Node(a as usize % n)
            } else {
                let u = a as usize % n;
                let nbrs = t.graph().neighbors(u);
                let v = nbrs[b as usize % nbrs.len()] as usize;
                FaultTarget::Link(u.min(v), u.max(v))
            };
            match target {
                FaultTarget::Node(v) => {
                    static_plan.add_node(v);
                }
                FaultTarget::Link(u, v) => {
                    static_plan.add_link(u, v);
                }
            }
            tl.push(0, FaultEventKind::Fault, target);
        }
        let tel_s = Telemetry::summary();
        let want = Sim::new(&t).faults(&static_plan).run(&inj, SimConfig::default().with_telemetry(tel_s.clone()));
        let tel_c = Telemetry::summary();
        let got = Sim::new(&t).timeline(&tl).run(&inj, SimConfig::default().with_telemetry(tel_c.clone()));
        prop_assert_eq!(&want, &got);
        for key in ["sim.offered", "sim.delivered", "sim.stranded",
                    "sim.reroutes", "sim.unroutable"] {
            prop_assert_eq!(
                tel_s.counter(key).get(),
                tel_c.counter(key).get(),
                "counter {} drift",
                key
            );
        }
    }
}
