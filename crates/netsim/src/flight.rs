//! The per-packet **flight recorder** of fault-aware runs.
//!
//! An oblivious [`crate::Sim`] run with a fault plan or timeline
//! attached, or with sampling on, is a flight run. Its routes are
//! compiled up front under the plan in force at each injection's cycle:
//! the first time a route would cross a faulty node or link, the
//! remainder is recomputed by deterministic BFS over the survivor graph
//! and spliced in ([`plan_route`]; one splice suffices, since the detour
//! avoids every fault). Packets carry a `u32` route slot, and reroute
//! attribution is read from the table, never recomputed. Packets whose
//! endpoints are down, or with no survivor path, are refused at
//! injection and counted as stranded, so packet conservation holds.
//!
//! Under a [`TraceSampling`] policy and a trace-level
//! [`hb_telemetry::Telemetry`] handle, selected packets get a root span
//! plus one child span per hop recording the node, link, queue depth on
//! arrival, wait cycles, and the forward decision (`oblivious`, or
//! `reroute` with the fault that caused it). Spans render via
//! `SpanTreeSink` or `ChromeTraceSink`. The recorder observes, it never
//! steers: with `telemetry: None` or sampling off the returned
//! [`crate::SimStats`] are byte-identical. Span ids are allocated in
//! program order, so a run that records spans stays serial at any
//! thread count.

use crate::faults::{FaultEventKind, FaultPlan, FaultTimeline};
use crate::kernel::{Packet, RunCtx};
use crate::routes::RouteTable;
use crate::sim::Injection;
use hb_graphs::NodeId;
use hb_telemetry::{SpanId, Telemetry};
use std::collections::BTreeSet;

pub use crate::routes::{plan_route, survivor_route};

/// Which packets the flight recorder samples (requires a trace-level
/// telemetry handle; with summary/no telemetry nothing is recorded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceSampling {
    /// Record no packets.
    #[default]
    Off,
    /// Record every packet.
    All,
    /// Record packets whose injection id is divisible by `N` (1/N of
    /// traffic, deterministic). `EveryNth(0)` records nothing.
    EveryNth(u64),
    /// Record every packet whose route traverses a **faulty-adjacent**
    /// link (either endpoint hot per [`FaultPlan::hot_node_set`]) — the
    /// packets that detour around faults or queue next to them.
    FaultAdjacent,
}

impl TraceSampling {
    fn samples(self, id: u64, route: &[u32], hot: &BTreeSet<NodeId>) -> bool {
        match self {
            TraceSampling::Off => false,
            TraceSampling::All => true,
            TraceSampling::EveryNth(n) => n > 0 && id.is_multiple_of(n),
            TraceSampling::FaultAdjacent => route
                .windows(2)
                .any(|w| hot.contains(&(w[0] as NodeId)) || hot.contains(&(w[1] as NodeId))),
        }
    }
}

/// One packet's recorder state, kept beside the packet pool by key.
#[derive(Clone, Copy, Debug, Default)]
struct SpanRec {
    /// Root span (`None` when unsampled or the span store filled up).
    root: Option<SpanId>,
    /// Open span of the hop currently being waited on / crossed.
    hop: Option<SpanId>,
    /// Cycle the packet joined its current channel queue.
    enqueued_at: u64,
}

/// The flight recorder the cycle kernel calls into on a traced run:
/// a root span per sampled packet and one child span per hop.
pub(crate) struct Spans<'a> {
    tel: &'a Telemetry,
    routes: &'a RouteTable,
    sampling: TraceSampling,
    /// Fault-adjacent nodes ([`TraceSampling::FaultAdjacent`] only): a
    /// sparse set, O(faults × degree) even at million-node scale.
    hot: BTreeSet<NodeId>,
    /// Indexed by packet-pool key.
    recs: Vec<SpanRec>,
}

impl<'a> Spans<'a> {
    /// The recorder for a run, or `None` unless the handle traces and
    /// sampling is on. The [`TraceSampling::FaultAdjacent`] mask covers
    /// `base` and every fault target of `timeline`, so a packet near any
    /// fault epoch is eligible.
    pub(crate) fn new(
        ctx: &RunCtx<'a>,
        routes: &'a RouteTable,
        base: &FaultPlan,
        timeline: &FaultTimeline,
        sampling: TraceSampling,
    ) -> Option<Self> {
        let tel = ctx.tel().filter(|t| t.trace_enabled())?;
        let hot = match sampling {
            TraceSampling::Off => return None,
            TraceSampling::FaultAdjacent => {
                let mut hot_plan = base.clone();
                for (idx, ev) in timeline.events().iter().enumerate() {
                    if ev.kind == FaultEventKind::Fault {
                        hot_plan.apply(idx, ev);
                    }
                }
                hot_plan.hot_node_set(ctx.topo)
            }
            _ => BTreeSet::new(),
        };
        Some(Spans {
            tel,
            routes,
            sampling,
            hot,
            recs: Vec::new(),
        })
    }

    /// A packet entered the network: opens its root span if sampled.
    pub(crate) fn open_root(
        &mut self,
        key: u32,
        id: u64,
        inj: Injection,
        slot: u32,
        detoured: bool,
        cycle: u64,
    ) {
        let root = if self.sampling.samples(id, self.routes.path(slot), &self.hot) {
            let label = format!("packet #{id} {}->{}", inj.src, inj.dst);
            let span = self.tel.span_start(&label, None, cycle);
            if detoured {
                self.tel.span_attr(span, "rerouted", "true");
            }
            span
        } else {
            None
        };
        let k = key as usize;
        if k >= self.recs.len() {
            self.recs.resize(k + 1, SpanRec::default());
        }
        self.recs[k] = SpanRec {
            root,
            hop: None,
            enqueued_at: cycle,
        };
    }

    /// Packet `key` joins its next channel with `depth` packets queued
    /// ahead of it: opens the hop span.
    pub(crate) fn open_hop(&mut self, key: u32, p: &Packet, cycle: u64, depth: usize) {
        let rec = &mut self.recs[key as usize];
        if rec.root.is_none() {
            return;
        }
        let t = self.tel;
        let path = self.routes.path(p.target);
        let (u, v) = (path[p.hop as usize], path[p.hop as usize + 1]);
        let span = t.span_start(&format!("hop {u}->{v}"), rec.root, cycle);
        t.span_attr(span, "node", u.to_string());
        t.span_attr(span, "link", format!("{u}->{v}"));
        t.span_attr(span, "queue", depth.to_string());
        match self.routes.detour(p.target) {
            Some((at, reason)) if at == p.hop => {
                t.span_attr(span, "decision", "reroute");
                t.span_attr(span, "reason", reason.to_string());
            }
            _ => t.span_attr(span, "decision", "oblivious"),
        }
        rec.hop = span;
        rec.enqueued_at = cycle;
    }

    /// Packet `key` crossed its channel in `cycle`: closes the hop span.
    pub(crate) fn close_hop(&mut self, key: u32, cycle: u64) {
        let rec = &mut self.recs[key as usize];
        if rec.hop.is_some() {
            // Cycles queued beyond the 1-cycle link transit.
            let wait = cycle - rec.enqueued_at;
            self.tel.span_attr(rec.hop, "wait", wait.to_string());
            self.tel.span_end(rec.hop, cycle + 1);
            rec.hop = None;
        }
    }

    /// Packet `key` arrived: closes the root span.
    pub(crate) fn close_root(&mut self, key: u32, latency: u64, hops: u32, cycle: u64) {
        let root = self.recs[key as usize].root;
        if root.is_some() {
            self.tel.span_attr(root, "latency", latency.to_string());
            self.tel.span_attr(root, "hops", hops.to_string());
            self.tel.span_end(root, cycle + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{inj, Model, Sim, SimConfig};
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet, NetTopology};
    use crate::workload;

    fn hb_net() -> HyperButterflyNet {
        HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let t = hb_net();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.2, 11);
        let base = Sim::new(&t).run(&traffic, SimConfig::default());
        let faulted = Sim::new(&t)
            .faults(&FaultPlan::new())
            .run(&traffic, SimConfig::default());
        assert_eq!(base, faulted);
    }

    #[test]
    fn timeseries_tracks_reroutes_in_faulted_runs() {
        let t = HypercubeNet::new(4).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1).add_node(7);
        let traffic = workload::uniform(t.num_nodes(), 40, 0.3, 9);
        let tel = Telemetry::summary();
        tel.enable_timeseries(hb_telemetry::TsConfig::new(5));
        let s = Sim::new(&t)
            .faults(&plan)
            .run(&traffic, SimConfig::default().with_telemetry(tel.clone()));
        let series = tel.series();
        assert_eq!(series["sim.injected"].total(), s.offered);
        assert_eq!(series["sim.delivered"].total(), s.delivered);
        // Windowed reroute/unroutable series reconcile with the run
        // counters exactly.
        assert_eq!(
            series["sim.reroutes"].total(),
            tel.counter("sim.reroutes").get()
        );
        assert_eq!(
            series["sim.unroutable"].total(),
            tel.counter("sim.unroutable").get()
        );
    }

    #[test]
    fn tracing_does_not_perturb_stats() {
        let t = hb_net();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.2, 11);
        let mut plan = FaultPlan::new();
        plan.add_node(5).add_link(0, 1);
        let off = Sim::new(&t)
            .faults(&plan)
            .run(&traffic, SimConfig::default());
        let tel = Telemetry::with_trace(65_536);
        let on = Sim::new(&t)
            .model(Model::Oblivious(TraceSampling::All))
            .faults(&plan)
            .run(&traffic, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(off, on, "the recorder observes, it never steers");
        assert!(!tel.snapshot().spans.is_empty());
        // Summary-level telemetry records counters but no spans.
        let sum = Telemetry::summary();
        let s = Sim::new(&t)
            .model(Model::Oblivious(TraceSampling::All))
            .faults(&plan)
            .run(&traffic, SimConfig::default().with_telemetry(sum.clone()));
        assert_eq!(off, s);
        assert!(sum.snapshot().spans.is_empty());
        assert_eq!(sum.counter("sim.delivered").get(), s.delivered);
    }

    #[test]
    fn packets_detour_around_a_cut_link() {
        // Hypercube 0 -> 15 routes dimension-ordered 0,1,3,7,15; cut the
        // first link and the packet must detour yet still arrive.
        let t = HypercubeNet::new(4).unwrap();
        let base_route = t.route(0, 15);
        assert_eq!(base_route, vec![0, 1, 3, 7, 15]);
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        let inj = [inj(0, 15, 0)];
        let tel = Telemetry::with_trace(256);
        let s = Sim::new(&t)
            .model(Model::Oblivious(TraceSampling::All))
            .faults(&plan)
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stranded, 0);
        assert_eq!(tel.counter("sim.reroutes").get(), 1);
        // The detour is minimal in the survivor graph: still 4 hops via
        // another dimension order.
        assert_eq!(s.avg_hops, 4.0);
        // The reroute hop span carries the attribution.
        let spans = tel.snapshot().spans;
        let reroute_hop = spans
            .iter()
            .find(|sp| sp.attr("decision") == Some("reroute"))
            .expect("a reroute hop span");
        assert_eq!(reroute_hop.attr("reason"), Some("link 0-1 faulty"));
        assert_eq!(reroute_hop.attr("node"), Some("0"));
    }

    #[test]
    fn detour_can_lengthen_mid_route() {
        // Cut a link in the middle of the dimension-ordered path: the
        // healthy prefix is flown, then the detour splices in.
        let t = HypercubeNet::new(4).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(3, 7); // third hop of 0,1,3,7,15
        let inj = [inj(0, 15, 0)];
        let tel = Telemetry::with_trace(256);
        let s = Sim::new(&t)
            .model(Model::Oblivious(TraceSampling::All))
            .faults(&plan)
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 1);
        let spans = tel.snapshot().spans;
        let root = &spans[0];
        assert_eq!(root.attr("rerouted"), Some("true"));
        let hops: Vec<_> = spans
            .iter()
            .filter(|sp| sp.parent == Some(root.id))
            .collect();
        // Prefix 0->1->3 is oblivious; the detour starts at node 3.
        assert_eq!(hops[0].attr("decision"), Some("oblivious"));
        assert_eq!(hops[1].attr("decision"), Some("oblivious"));
        assert_eq!(hops[2].attr("decision"), Some("reroute"));
        assert_eq!(hops[2].attr("reason"), Some("link 3-7 faulty"));
        assert_eq!(hops[2].attr("node"), Some("3"));
    }

    #[test]
    fn unroutable_packets_strand_and_conserve() {
        let t = HypercubeNet::new(3).unwrap();
        let mut plan = FaultPlan::new();
        // Isolate node 7 (neighbors 3, 5, 6): nothing can reach it.
        plan.add_link(7, 3).add_link(7, 5).add_link(7, 6);
        let inj = [inj(0, 7, 0), inj(0, 2, 0)];
        let tel = Telemetry::summary();
        let s = Sim::new(&t)
            .faults(&plan)
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stranded, 1);
        assert_eq!(s.delivered + s.stranded, s.offered);
        assert_eq!(tel.counter("sim.unroutable").get(), 1);

        // Faulty endpoints are refused outright.
        let mut p2 = FaultPlan::new();
        p2.add_node(0);
        let s2 = Sim::new(&t).faults(&p2).run(&inj, SimConfig::default());
        assert_eq!(s2.delivered, 0);
        assert_eq!(s2.stranded, 2);
    }

    #[test]
    fn every_nth_sampling_selects_exactly_one_in_n() {
        let t = hb_net();
        let n = t.num_nodes();
        let inj: Vec<Injection> = (0..20).map(|i| inj(i % n, (i * 7 + 3) % n, 0)).collect();
        let tel = Telemetry::with_trace(4096);
        Sim::new(&t)
            .model(Model::Oblivious(TraceSampling::EveryNth(5)))
            .faults(&FaultPlan::new())
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        let roots: Vec<_> = tel
            .snapshot()
            .spans
            .into_iter()
            .filter(|sp| sp.parent.is_none())
            .collect();
        // Ids 0, 5, 10, 15 — minus any self-deliveries, which never
        // enter a queue. Root names embed the id, so check the set.
        for r in &roots {
            let id: u64 = r
                .name
                .strip_prefix("packet #")
                .and_then(|rest| rest.split(' ').next())
                .and_then(|s| s.parse().ok())
                .expect("root span names carry the id");
            assert_eq!(id % 5, 0, "{}", r.name);
        }
        assert!(!roots.is_empty());
    }

    #[test]
    fn fault_adjacent_sampling_records_only_nearby_flights() {
        let t = HypercubeNet::new(4).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        // One packet detours around the cut; one flies far from it.
        let inj = [inj(0, 15, 0), inj(12, 14, 0)];
        let tel = Telemetry::with_trace(256);
        let s = Sim::new(&t)
            .model(Model::Oblivious(TraceSampling::FaultAdjacent))
            .faults(&plan)
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        assert_eq!(s.delivered, 2);
        let roots: Vec<_> = tel
            .snapshot()
            .spans
            .into_iter()
            .filter(|sp| sp.parent.is_none())
            .collect();
        assert_eq!(roots.len(), 1, "only the near-fault flight is sampled");
        assert!(roots[0].name.starts_with("packet #0 "));
        assert_eq!(roots[0].attr("rerouted"), Some("true"));
    }

    #[test]
    fn hop_spans_record_queue_depth_and_wait() {
        // Two packets on the same first channel: the second sees queue
        // depth 1 on arrival and waits one cycle.
        let t = HypercubeNet::new(3).unwrap();
        let inj = [inj(0, 1, 0), inj(0, 1, 0)];
        let tel = Telemetry::with_trace(64);
        Sim::new(&t)
            .model(Model::Oblivious(TraceSampling::All))
            .faults(&FaultPlan::new())
            .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
        let spans = tel.snapshot().spans;
        let second_hop = spans
            .iter()
            .find(|sp| sp.parent.is_some() && sp.attr("queue") == Some("1"))
            .expect("queued hop span");
        assert_eq!(second_hop.attr("wait"), Some("1"));
        assert_eq!(second_hop.duration(), 2); // 1 wait + 1 transit
        let first_hop = spans
            .iter()
            .find(|sp| sp.parent.is_some() && sp.attr("queue") == Some("0"))
            .expect("unqueued hop span");
        assert_eq!(first_hop.attr("wait"), Some("0"));
        assert_eq!(first_hop.duration(), 1);
    }

    #[test]
    fn survivor_route_avoids_all_faults() {
        let t = hb_net();
        let g = t.graph();
        let mut plan = FaultPlan::new();
        plan.add_node(1).add_link(0, 2);
        for dst in [3usize, 17, 40] {
            let r = survivor_route(&t, 0, dst, &plan).expect("still connected");
            assert_eq!(r[0], 0);
            assert_eq!(*r.last().unwrap(), dst);
            for w in r.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
                assert!(!plan.is_link_faulty(w[0], w[1]));
            }
        }
    }
}
