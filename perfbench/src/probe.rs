//! Layer probes for the traced run: calls that split a workload's
//! operation into the layers it runs internally, each under a span.
//!
//! `run()` builds its route table inside, so the loop's self time is the
//! run span minus a `routes.build` span timed on the same injections;
//! churn compile is private to the simulator, so the probe drives the
//! public `RouteCache` over the same injections and deltas.

use crate::trace::Recorder;
use crate::workload::{Kind, Outcome, Workload};
use hb_netsim::{
    run, run_adaptive, run_with_timeline, FaultEventKind, FaultPlan, FaultTarget, RepairStats,
    RouteCache, RouteTable, TraceSampling,
};
use std::hint::black_box;

/// Counts the probes found (identical on every pass).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// `uniform`: distinct pairs in the route table.
    pub pairs: u64,
    /// `uniform`: route nodes stored in the table.
    pub route_nodes: u64,
    /// `uniform`: heap bytes of the table.
    pub table_bytes: u64,
    /// `churn`: summed incremental-repair work over all deltas.
    pub repair: RepairStats,
}

/// Runs the probes of `w` under spans on `rec`, filling the fields of
/// `counts` that belong to `w`'s workload and checking every result:
/// simulator runs against the reference, the route-cache replay against
/// the repair counters of the operation `op` that just ran.
pub fn run_probes(
    w: &Workload,
    op: &Outcome,
    rec: &mut Recorder,
    counts: &mut ProbeCounts,
) -> Result<(), String> {
    let no_faults = FaultPlan::new();
    match w.kind {
        Kind::Uniform => {
            let table = rec.span("routes.build", |_| {
                RouteTable::for_injections(&*w.net, &w.injections, &no_faults)
            });
            counts.pairs = table.num_pairs() as u64;
            counts.route_nodes = table.total_route_nodes() as u64;
            counts.table_bytes = table.heap_bytes() as u64;
            drop(table);
            let stats = rec.span("sim.run", |_| run(&*w.net, &w.injections, w.config()));
            w.verify(&Outcome {
                stats,
                ..Outcome::default()
            })?;
        }
        Kind::Hotspot => {
            let stats = rec.span("sim.adaptive", |_| {
                run_adaptive(&*w.net, &w.injections, w.config())
            });
            w.verify(&Outcome {
                stats,
                ..Outcome::default()
            })?;
        }
        Kind::Churn => {
            counts.repair = rec.span("routes.compile", |r| replay_compile(w, r));
            let r = &counts.repair;
            if (r.scanned, r.kept, r.respliced) != op.repair {
                return Err(format!(
                    "route-cache replay (scanned, kept, respliced) = {:?}, the run counted {:?}",
                    (r.scanned, r.kept, r.respliced),
                    op.repair
                ));
            }
            let stats = rec.span("flight.run", |_| {
                run_with_timeline(
                    &*w.net,
                    &w.injections,
                    w.config(),
                    &no_faults,
                    &w.timeline,
                    TraceSampling::Off,
                )
            });
            w.verify(&Outcome {
                stats,
                unroutable: w.reference.as_ref().map_or(0, |r| r.unroutable),
                ..Outcome::default()
            })?;
        }
        Kind::Structure => {}
    }
    Ok(())
}

/// Churn compile, replayed on the public `RouteCache`: every event-cycle
/// delta is one `routes.repair` span, and each run of injections between
/// deltas one `routes.resolve` span.
fn replay_compile(w: &Workload, rec: &mut Recorder) -> RepairStats {
    let events = w.timeline.events();
    let inj = &w.injections;
    let mut plan = FaultPlan::new();
    let mut cache = RouteCache::new();
    cache.set_plan(&plan);
    let mut total = RepairStats::default();
    let mut next = 0;
    let mut i = 0;
    while i < inj.len() {
        while next < events.len() && events[next].cycle <= inj[i].at {
            let at = events[next].cycle;
            while next < events.len() && events[next].cycle == at {
                let tag = u16::try_from(next).expect("timelines hold fewer than u16::MAX events");
                match (events[next].kind, events[next].target) {
                    (FaultEventKind::Fault, FaultTarget::Node(v)) => plan.add_node_at(v, tag),
                    (FaultEventKind::Fault, FaultTarget::Link(u, v)) => plan.add_link_at(u, v, tag),
                    (FaultEventKind::Repair, FaultTarget::Node(v)) => plan.remove_node(v),
                    (FaultEventKind::Repair, FaultTarget::Link(u, v)) => plan.remove_link(u, v),
                };
                next += 1;
            }
            if cache.plan() != &plan {
                total.absorb(rec.span("routes.repair", |_| cache.repair(&*w.net, &plan)));
            }
        }
        // Injections before the next event cycle all resolve under the
        // plan now in force.
        let end = match events.get(next) {
            Some(ev) => i + inj[i..].partition_point(|x| x.at < ev.cycle),
            None => inj.len(),
        };
        rec.span("routes.resolve", |_| {
            for x in &inj[i..end] {
                black_box(cache.resolve(&*w.net, x.src, x.dst));
            }
        });
        i = end;
    }
    total
}
