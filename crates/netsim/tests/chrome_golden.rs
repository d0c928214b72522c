//! Golden and structural tests for the Chrome trace-event export of the
//! packet flight recorder — the end-to-end observability acceptance
//! path: seeded simulation + faults -> sampled span trees -> Chrome
//! trace-event JSON that `chrome://tracing` / Perfetto can load.

use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet};
use hb_netsim::{
    workload, FaultEventKind, FaultPlan, FaultTarget, FaultTimeline, Injection, Model, NetTopology,
    Sim, SimConfig, TraceSampling,
};
use hb_telemetry::{ChromeTraceSink, Sink, Snapshot, SpanTreeSink, Telemetry};

/// A fixed 2-packet run on `H(2)`: packet #0 flies 0->1->3, packet #1
/// flies 2->3->1, no shared channels, both deliver at cycle 2. Every
/// value in the export is determined by the model, so the rendering is
/// byte-stable.
fn two_packet_snapshot() -> Snapshot {
    let t = HypercubeNet::new(2).unwrap();
    let inj = [
        Injection {
            src: 0,
            dst: 3,
            at: 0,
        },
        Injection {
            src: 2,
            dst: 1,
            at: 0,
        },
    ];
    let tel = Telemetry::with_trace(64);
    let s = Sim::new(&t)
        .model(Model::Oblivious(TraceSampling::All))
        .faults(&FaultPlan::new())
        .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
    assert_eq!(s.delivered, 2);
    tel.snapshot()
}

#[test]
fn golden_chrome_trace_is_byte_identical() {
    let got = ChromeTraceSink.render(&two_packet_snapshot());
    let want = r#"{"traceEvents":[
{"ph":"X","name":"packet #0 0->3","cat":"hb","ts":0,"dur":2,"pid":0,"tid":1,"args":{"span":"1","latency":"2","hops":"2"}},
{"ph":"X","name":"hop 0->1","cat":"hb","ts":0,"dur":1,"pid":0,"tid":1,"args":{"span":"2","parent":"1","node":"0","link":"0->1","queue":"0","decision":"oblivious","wait":"0"}},
{"ph":"X","name":"packet #1 2->1","cat":"hb","ts":0,"dur":2,"pid":0,"tid":3,"args":{"span":"3","latency":"2","hops":"2"}},
{"ph":"X","name":"hop 2->3","cat":"hb","ts":0,"dur":1,"pid":0,"tid":3,"args":{"span":"4","parent":"3","node":"2","link":"2->3","queue":"0","decision":"oblivious","wait":"0"}},
{"ph":"X","name":"hop 1->3","cat":"hb","ts":1,"dur":1,"pid":0,"tid":1,"args":{"span":"5","parent":"1","node":"1","link":"1->3","queue":"0","decision":"oblivious","wait":"0"}},
{"ph":"X","name":"hop 3->1","cat":"hb","ts":1,"dur":1,"pid":0,"tid":3,"args":{"span":"6","parent":"3","node":"3","link":"3->1","queue":"0","decision":"oblivious","wait":"0"}}
],"displayTimeUnit":"ms"}
"#;
    assert_eq!(got, want);
    // And the render is reproducible run-to-run.
    assert_eq!(got, ChromeTraceSink.render(&two_packet_snapshot()));
}

/// Minimal structural validation of the trace-event schema Perfetto
/// requires: a top-level `traceEvents` array of objects, each complete
/// event carrying `ph`/`name`/`ts`/`dur`/`pid`/`tid`, with balanced
/// quotes, braces, and brackets (no JSON parser dependency available).
fn assert_trace_event_schema(json: &str) -> usize {
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with('}'));
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            json.matches(open).count(),
            json.matches(close).count(),
            "unbalanced {open}{close}"
        );
    }
    assert_eq!(json.matches('"').count() % 2, 0, "unbalanced quotes");
    let events: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"ph\":\"X\""))
        .collect();
    for e in &events {
        for field in [
            "\"name\":\"",
            "\"ts\":",
            "\"dur\":",
            "\"pid\":",
            "\"tid\":",
            "\"args\":{",
        ] {
            assert!(e.contains(field), "{e} missing {field}");
        }
        let body = e.trim_end_matches(',');
        assert!(body.starts_with('{') && body.ends_with('}'), "{e}");
    }
    events.len()
}

/// The ISSUE acceptance path end-to-end: a seeded hyper-butterfly run
/// with injected faults and fault-adjacent sampling exports a valid
/// Chrome trace in which a sampled packet's span tree shows a reroute
/// hop attributed to the faulty link.
#[test]
fn faulted_run_exports_reroute_attribution() {
    let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
    let traffic = workload::uniform(t.num_nodes(), 40, 0.3, 42);
    // Cut the first link of some oblivious route so at least one packet
    // must detour: take packet 0's route.
    let (s0, d0) = (traffic[0].src, traffic[0].dst);
    let r0 = t.route(s0, d0);
    let plan = FaultPlan::from_sets([], [(r0[0], r0[1])]);
    let tel = Telemetry::with_trace(65_536);
    let stats = Sim::new(&t)
        .model(Model::Oblivious(TraceSampling::FaultAdjacent))
        .faults(&plan)
        .run(&traffic, SimConfig::default().with_telemetry(tel.clone()));
    assert!(stats.delivered > 0);
    assert!(tel.counter("sim.reroutes").get() >= 1);

    let snap = tel.snapshot();
    let json = ChromeTraceSink.render(&snap);
    let n_events = assert_trace_event_schema(&json);
    assert_eq!(n_events, snap.spans.len());

    // At least one sampled packet's tree contains a reroute hop
    // attributed to the cut link.
    let reason = format!("link {}-{} faulty", r0[0].min(r0[1]), r0[0].max(r0[1]));
    let reroute_hop = snap
        .spans
        .iter()
        .find(|sp| sp.attr("decision") == Some("reroute") && sp.attr("reason") == Some(&reason))
        .expect("a reroute hop attributed to the cut link");
    let root = snap
        .spans
        .iter()
        .find(|sp| Some(sp.id) == reroute_hop.parent)
        .expect("reroute hop has a packet root span");
    assert!(root.name.starts_with("packet #"));
    assert_eq!(root.attr("rerouted"), Some("true"));
    // The same attribution is visible in both export formats.
    assert!(json.contains(&format!("\"reason\":\"{reason}\"")));
    let tree = SpanTreeSink.render(&snap);
    assert!(tree.contains(&format!("decision=reroute reason={reason}")));
}

/// Fault-**timeline** attribution golden: a fixed 2-packet run on
/// `H(2)` where link 0-1 dies at cycle 1 (timeline event 0). Packet #0
/// is admitted before the event and flies obliviously; packet #1 is
/// admitted after and detours 0->2->3 — its reroute hop span names the
/// causing event (`FaultReason` event index), byte-pinned here.
#[test]
fn golden_timeline_trace_attributes_detours_to_their_event() {
    let t = HypercubeNet::new(2).unwrap();
    let inj = [
        Injection {
            src: 0,
            dst: 3,
            at: 0,
        },
        Injection {
            src: 0,
            dst: 3,
            at: 3,
        },
    ];
    let mut tl = FaultTimeline::new();
    tl.push(1, FaultEventKind::Fault, FaultTarget::Link(0, 1));
    let tel = Telemetry::with_trace(64);
    let s = Sim::new(&t)
        .model(Model::Oblivious(TraceSampling::All))
        .timeline(&tl)
        .run(&inj, SimConfig::default().with_telemetry(tel.clone()));
    assert_eq!(s.delivered, 2);
    assert_eq!(tel.counter("sim.reroutes").get(), 1);
    let got = ChromeTraceSink.render(&tel.snapshot());
    let want = r#"{"traceEvents":[
{"ph":"X","name":"packet #0 0->3","cat":"hb","ts":0,"dur":2,"pid":0,"tid":1,"args":{"span":"1","latency":"2","hops":"2"}},
{"ph":"X","name":"hop 0->1","cat":"hb","ts":0,"dur":1,"pid":0,"tid":1,"args":{"span":"2","parent":"1","node":"0","link":"0->1","queue":"0","decision":"oblivious","wait":"0"}},
{"ph":"X","name":"hop 1->3","cat":"hb","ts":1,"dur":1,"pid":0,"tid":1,"args":{"span":"3","parent":"1","node":"1","link":"1->3","queue":"0","decision":"oblivious","wait":"0"}},
{"ph":"X","name":"packet #1 0->3","cat":"hb","ts":3,"dur":2,"pid":0,"tid":4,"args":{"span":"4","rerouted":"true","latency":"2","hops":"2"}},
{"ph":"X","name":"hop 0->2","cat":"hb","ts":3,"dur":1,"pid":0,"tid":4,"args":{"span":"5","parent":"4","node":"0","link":"0->2","queue":"0","decision":"reroute","reason":"link 0-1 faulty (event 0)","wait":"0"}},
{"ph":"X","name":"hop 2->3","cat":"hb","ts":4,"dur":1,"pid":0,"tid":4,"args":{"span":"6","parent":"4","node":"2","link":"2->3","queue":"0","decision":"oblivious","wait":"0"}}
],"displayTimeUnit":"ms"}
"#;
    assert_eq!(got, want);
    assert_trace_event_schema(&got);
}

/// Tracing disabled leaves `SimStats` byte-identical to the
/// no-telemetry path (regression for the acceptance criterion).
#[test]
fn stats_identical_with_tracing_disabled() {
    let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
    let traffic = workload::uniform(t.num_nodes(), 40, 0.3, 42);
    let plan = FaultPlan::from_sets([3], [(0, 1)]);
    let bare = Sim::new(&t)
        .faults(&plan)
        .run(&traffic, SimConfig::default());
    let tel = Telemetry::with_trace(65_536);
    let traced = Sim::new(&t)
        .model(Model::Oblivious(TraceSampling::All))
        .faults(&plan)
        .run(&traffic, SimConfig::default().with_telemetry(tel));
    assert_eq!(bare, traced);
}
