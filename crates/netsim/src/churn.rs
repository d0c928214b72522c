//! Fault **churn**: simulation under a [`FaultTimeline`] of scheduled
//! fault/repair events, with incremental route repair.
//!
//! A timeline run is compiled in two steps:
//!
//! 1. **Compile** — the one route compile every source-routed run goes
//!    through (`RouteTable::compile`, see [`crate::routes`]) walks the
//!    injection schedule once, applying every timeline event whose
//!    cycle has arrived *between* injections (events at cycle `c` are
//!    visible to injections at `c`). Events sharing a cycle form one
//!    **delta**; each delta is applied to the working [`FaultPlan`] and
//!    the [`crate::RouteCache`] is repaired **incrementally**
//!    ([`crate::RouteCache::repair`]): routes the delta cannot touch
//!    keep their slots, only affected pairs are respliced —
//!    `O(affected pairs)` per delta instead of the
//!    `O(memoized pairs × BFS)` of a rebuild. Each injection's slot is
//!    recorded under the plan in force at its cycle, and the cache's
//!    arena is frozen into the run's [`crate::RouteTable`].
//! 2. **Run** — the table drives the cycle kernel. The compile is
//!    engine-independent and fully deterministic, so serial, bounded,
//!    adaptive, flight, and sharded runs all see byte-identical routes
//!    — the sharded engine at any thread count included (`par_equiv`).
//!
//! A static plan is the empty timeline: [`crate::run_with_faults`] and
//! [`crate::run_bounded`] are the runners here with no events.
//!
//! Model semantics: packets are source-routed at **admission** — a
//! fault that lands mid-flight does not touch packets already in the
//! network (they fly the route they were admitted with), it only
//! affects later admissions. An injection whose compiled route is empty
//! (faulty endpoint or no survivor path under the plan at its cycle) is
//! refused and counted unroutable. Events scheduled after the last
//! injection are never applied: no admission can observe them.
//!
//! With a telemetry handle and a non-empty timeline the run also
//! records `sim.repair.*` counters (events applied, deltas, pairs
//! scanned/kept/respliced) and — under `cfg.profile` — a
//! `sim/route_repair` profiler phase (invocations = deltas, work =
//! nodes on respliced routes). An **empty** timeline emits none of
//! these, and `sim.unroutable` is emitted only for flight runs and
//! runs under a non-empty plan or timeline, so an empty timeline
//! matches the static-plan runners byte for byte.

use crate::faults::{FaultEventKind, FaultPlan, FaultTimeline};
use crate::flight::TraceSampling;
use crate::routes::RouteTable;
use crate::sim::{Injection, SimConfig, SimStats};
use crate::topology::NetTopology;
use hb_telemetry::Profile;

/// Compiles the run's routes (`RouteTable::compile`) and records what
/// the repairs cost in `cfg`'s telemetry: the `sim.repair.*` counters
/// and, under `cfg.profile`, the `sim/route_repair` phase. Both are
/// skipped for an empty timeline, so a churn run without events stays
/// byte-identical to its static-plan counterpart.
fn compile(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: &SimConfig,
    base: &FaultPlan,
    timeline: &FaultTimeline,
) -> RouteTable {
    let (table, cost) = RouteTable::compile(topo, injections, base, timeline);
    let Some(t) = cfg.telemetry.as_ref().filter(|_| !timeline.is_empty()) else {
        return table;
    };
    t.counter("sim.repair.events").add(cost.events);
    t.counter("sim.repair.deltas").add(cost.deltas);
    t.counter("sim.repair.scanned").add(cost.repair.scanned);
    t.counter("sim.repair.kept").add(cost.repair.kept);
    t.counter("sim.repair.respliced").add(cost.repair.respliced);
    if cfg.profile {
        let mut p = Profile::new();
        p.record("sim/route_repair", cost.deltas, cost.repair.work);
        if !p.is_empty() {
            t.merge_profile(&p);
        }
    }
    table
}

/// Runs the oblivious fault-aware simulation under a base [`FaultPlan`]
/// plus a [`FaultTimeline`] of mid-run fault/repair events, with
/// per-packet flight recording as [`crate::run_with_faults`]. Serial
/// when `cfg.threads == 1` (or span tracing is live), sharded —
/// byte-identical at every thread count — otherwise.
///
/// With an empty timeline this is exactly [`crate::run_with_faults`].
///
/// # Panics
/// As [`crate::run_with_faults`] (unsorted injections, out-of-range
/// nodes).
pub fn run_with_timeline(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
    base: &FaultPlan,
    timeline: &FaultTimeline,
    sampling: TraceSampling,
) -> SimStats {
    let routes = compile(topo, injections, &cfg, base, timeline);
    // Base plan ∪ every timeline fault target: the fault-adjacent
    // sampling mask, so packets near any fault epoch are eligible.
    let mut hot_plan = base.clone();
    for (idx, ev) in timeline.events().iter().enumerate() {
        if ev.kind == FaultEventKind::Fault {
            hot_plan.apply(idx, ev);
        }
    }
    crate::flight::run_flight(topo, injections, &cfg, &routes, &hot_plan, sampling)
}

/// [`crate::run_bounded`] under a base plan and a fault timeline:
/// bounded queues with backpressure, plus churn admission — injections
/// whose compiled route is empty are refused as unroutable.
///
/// # Panics
/// As [`crate::run_bounded`].
pub fn run_bounded_with_timeline(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
    capacity: usize,
    base: &FaultPlan,
    timeline: &FaultTimeline,
) -> SimStats {
    let routes = compile(topo, injections, &cfg, base, timeline);
    let queues = crate::kernel::Bounded {
        capacity,
        sweep: false,
    };
    crate::sim::run_bounded_on(topo, injections, &cfg, queues, &routes)
}

/// [`crate::run_adaptive`] under a fault timeline. Churn gates
/// **admission only**: an injection unroutable under the plan at its
/// cycle is refused; packets in transit keep their fault-blind
/// least-queue adaptivity (the adaptive model routes hop by hop, so
/// frozen source routes do not apply — documented limitation).
///
/// # Panics
/// As [`crate::run_adaptive`].
pub fn run_adaptive_with_timeline(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
    base: &FaultPlan,
    timeline: &FaultTimeline,
) -> SimStats {
    let admission = compile(topo, injections, &cfg, base, timeline);
    crate::sim::run_adaptive_on(topo, injections, &cfg, Some(&admission))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultTarget;
    use crate::flight::run_with_faults;
    use crate::sim::inj;
    use crate::sim::{run_adaptive, run_bounded};
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet};
    use crate::workload;
    use hb_telemetry::Telemetry;

    fn hb() -> HyperButterflyNet {
        HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
    }

    fn cut_first_link_timeline(at: u64) -> FaultTimeline {
        let mut tl = FaultTimeline::new();
        tl.push(at, FaultEventKind::Fault, FaultTarget::Link(0, 1));
        tl
    }

    #[test]
    fn empty_timeline_matches_the_static_runners_exactly() {
        let t = hb();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.3, 7);
        let mut plan = FaultPlan::new();
        plan.add_node(5).add_link(0, 2);
        let tl = FaultTimeline::new();
        let baseline = run_with_faults(
            &t,
            &traffic,
            SimConfig::default(),
            &plan,
            TraceSampling::Off,
        );
        let churn = run_with_timeline(
            &t,
            &traffic,
            SimConfig::default(),
            &plan,
            &tl,
            TraceSampling::Off,
        );
        assert_eq!(baseline, churn);
        // Counters match too — and no `sim.repair.*` keys appear.
        let tel_a = Telemetry::summary();
        run_with_faults(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel_a.clone()),
            &plan,
            TraceSampling::Off,
        );
        let tel_b = Telemetry::summary();
        run_with_timeline(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel_b.clone()),
            &plan,
            &tl,
            TraceSampling::Off,
        );
        assert_eq!(tel_a.snapshot(), tel_b.snapshot());

        // Bounded and adaptive runs under an empty plan: same stats and
        // the same snapshot (no `sim.unroutable` where the static runner
        // has none).
        let cfg = |tel: &Telemetry| SimConfig::default().with_telemetry(tel.clone());
        let (tel_a, tel_b) = (Telemetry::summary(), Telemetry::summary());
        let b = run_bounded(&t, &traffic, cfg(&tel_a), 4);
        let bt = run_bounded_with_timeline(&t, &traffic, cfg(&tel_b), 4, &FaultPlan::new(), &tl);
        assert_eq!(b, bt);
        assert_eq!(tel_a.snapshot(), tel_b.snapshot());
        let (tel_a, tel_b) = (Telemetry::summary(), Telemetry::summary());
        let a = run_adaptive(&t, &traffic, cfg(&tel_a));
        let at = run_adaptive_with_timeline(&t, &traffic, cfg(&tel_b), &FaultPlan::new(), &tl);
        assert_eq!(a, at);
        assert_eq!(tel_a.snapshot(), tel_b.snapshot());
    }

    #[test]
    fn a_cycle_zero_fault_matches_the_equivalent_static_plan() {
        // Every admission happens under plan+event, so the run must
        // equal a static run with the fault baked in (stats; counters
        // differ only by the extra sim.repair.* keys).
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 50, 0.4, 9);
        let mut static_plan = FaultPlan::new();
        static_plan.add_link(0, 1);
        let expected = run_with_faults(
            &t,
            &traffic,
            SimConfig::default(),
            &static_plan,
            TraceSampling::Off,
        );
        let got = run_with_timeline(
            &t,
            &traffic,
            SimConfig::default(),
            &FaultPlan::new(),
            &cut_first_link_timeline(0),
            TraceSampling::Off,
        );
        assert_eq!(expected, got);
    }

    #[test]
    fn mid_run_faults_spare_packets_already_in_flight() {
        // One packet admitted at cycle 0 on route 0,1,3,7,15; the link
        // 0-1 dies at cycle 2, well after the packet crossed it. The
        // packet flies its admitted route; a second packet admitted at
        // cycle 5 must detour.
        let t = HypercubeNet::new(4).unwrap();
        let inj = [inj(0, 15, 0), inj(0, 15, 5)];
        let tel = Telemetry::summary();
        let s = run_with_timeline(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &FaultPlan::new(),
            &cut_first_link_timeline(2),
            TraceSampling::Off,
        );
        assert_eq!(s.delivered, 2);
        assert_eq!(s.stranded, 0);
        // Only the second admission detours.
        assert_eq!(tel.counter("sim.reroutes").get(), 1);
        assert_eq!(tel.counter("sim.repair.events").get(), 1);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 1);
    }

    #[test]
    fn repair_events_restore_the_original_routes() {
        // Fault at cycle 1, repair at cycle 3: admissions at cycles 0
        // and 4 take the oblivious route, the one at cycle 2 detours.
        let t = HypercubeNet::new(4).unwrap();
        let inj: Vec<Injection> = [0u64, 2, 4]
            .iter()
            .map(|&at| Injection {
                src: 0,
                dst: 15,
                at,
            })
            .collect();
        let mut tl = cut_first_link_timeline(1);
        tl.push(3, FaultEventKind::Repair, FaultTarget::Link(0, 1));
        let tel = Telemetry::summary();
        let s = run_with_timeline(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &FaultPlan::new(),
            &tl,
            TraceSampling::Off,
        );
        assert_eq!(s.delivered, 3);
        assert_eq!(tel.counter("sim.reroutes").get(), 1);
        assert_eq!(tel.counter("sim.repair.events").get(), 2);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 2);
        // The second delta (the repair) rescans the memo and resplices
        // the detoured pair back to its oblivious route.
        assert!(tel.counter("sim.repair.respliced").get() >= 1);
    }

    #[test]
    fn events_after_the_last_injection_never_apply() {
        let t = hb();
        let traffic = workload::uniform(t.num_nodes(), 30, 0.5, 3);
        let last_at = traffic.last().unwrap().at;
        let tel = Telemetry::summary();
        run_with_timeline(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel.clone()),
            &FaultPlan::new(),
            &cut_first_link_timeline(last_at + 100),
            TraceSampling::Off,
        );
        assert_eq!(tel.counter("sim.repair.events").get(), 0);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 0);
    }

    #[test]
    fn profiled_timeline_runs_record_the_repair_phase() {
        let t = hb();
        let traffic = workload::uniform(t.num_nodes(), 40, 0.4, 5);
        let tel = Telemetry::summary();
        run_with_timeline(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel.clone())
                .with_profile(true),
            &FaultPlan::new(),
            &cut_first_link_timeline(2),
            TraceSampling::Off,
        );
        let prof = tel.profile();
        let phase = prof
            .get("sim/route_repair")
            .expect("timeline runs record the repair phase");
        assert_eq!(phase.invocations, 1, "one delta");
        assert!(prof.get("sim/route_build").is_some());
    }

    #[test]
    fn unroutable_admissions_strand_and_conserve_under_churn() {
        // Isolate node 7 of Q3 mid-run: admissions to it after the
        // events are refused.
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 7, 0), inj(0, 7, 10)];
        let mut tl = FaultTimeline::new();
        for (u, v) in [(7, 3), (7, 5), (7, 6)] {
            tl.push(4, FaultEventKind::Fault, FaultTarget::Link(u, v));
        }
        let tel = Telemetry::summary();
        let s = run_with_timeline(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &FaultPlan::new(),
            &tl,
            TraceSampling::Off,
        );
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stranded, 1);
        assert_eq!(s.delivered + s.stranded, s.offered);
        assert_eq!(tel.counter("sim.unroutable").get(), 1);
        // Three events, one cycle group, one delta.
        assert_eq!(tel.counter("sim.repair.events").get(), 3);
        assert_eq!(tel.counter("sim.repair.deltas").get(), 1);
    }

    #[test]
    fn bounded_and_adaptive_timeline_runs_refuse_unroutable_admissions() {
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 7, 0), inj(0, 7, 10)];
        let mut tl = FaultTimeline::new();
        for (u, v) in [(7, 3), (7, 5), (7, 6)] {
            tl.push(4, FaultEventKind::Fault, FaultTarget::Link(u, v));
        }
        let b =
            run_bounded_with_timeline(&t, &inj, SimConfig::default(), 4, &FaultPlan::new(), &tl);
        assert_eq!(b.delivered, 1);
        assert_eq!(b.stranded, 1);
        let a = run_adaptive_with_timeline(&t, &inj, SimConfig::default(), &FaultPlan::new(), &tl);
        assert_eq!(a.delivered, 1);
        assert_eq!(a.stranded, 1);
    }
}
