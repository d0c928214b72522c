//! Pins the output of every simulator configuration byte for byte.
//!
//! Each run below drives one seeded `HB(2, 3)` hotspot workload through
//! one `Sim` configuration (model, fault plan, timeline, threads) with
//! trace telemetry, a windowed time series, and the work profile on.
//! Lines keep the names of the entry points that configuration replaced
//! (`run_bounded_with_timeline` is `Model::Bounded` with a timeline
//! attached). Each line in `engine_golden.txt` carries an FNV-1a
//! digest of the returned `SimStats` and one of each sink's render of
//! the telemetry snapshot: `JsonLinesSink` (counters, histograms,
//! profile, links, series, congestion, events, spans), `ReportSink`
//! (top congested links, anomalies), `TextSink` and `CsvSink`.
//! `run_with_mem` also pins the record counts of its `MemStats` (the
//! byte fields depend on allocator capacity, so they stay out). The
//! bounded sweep oracle is checked against the frontier in the crate's
//! unit tests (`sim::tests`).
//!
//! Three more lines pin what the `HB(2, 3)` runs do not reach: the run
//! behind `hbnet report 3 4 --workload hotspot --cycles 100` (three-digit
//! node ids, evicted windows, a tie in the report's top links), serial
//! and sharded, and two runs sharing one handle.
//!
//! Rerun with `REGEN_GOLDEN=1` to rewrite the file after an intended
//! model change. On a mismatch the current renders and golden text are
//! written under `target/engine_golden/` for diffing.

use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet};
use hb_netsim::{
    workload, FaultEventKind, FaultPlan, FaultTarget, FaultTimeline, Injection, MemStats, Model,
    NetTopology, Sim, SimConfig, SimStats, TraceSampling,
};
use hb_telemetry::{CsvSink, JsonLinesSink, ReportSink, Sink, Telemetry, TextSink, TsConfig};
use std::path::PathBuf;

const GOLDEN: &str = include_str!("engine_golden.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn net() -> HyperButterflyNet {
    HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
}

/// 40 cycles of hotspot traffic: a third of all packets head for node 0,
/// so queues back up and bounded runs block and drop.
fn traffic() -> Vec<Injection> {
    workload::hotspot(net().num_nodes(), 40, 0.1, 0, 0.3, 2024)
}

/// Trace-level telemetry with a 5-cycle time series and the profile on.
fn config() -> (SimConfig, Telemetry) {
    let tel = Telemetry::with_trace(1 << 16);
    tel.enable_timeseries(TsConfig::new(5));
    let cfg = SimConfig::bounded(400)
        .with_telemetry(tel.clone())
        .with_profile(true);
    (cfg, tel)
}

fn plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.add_node(17).add_link(0, 48);
    plan
}

/// Faults land mid-run and are repaired before the injections stop.
fn timeline() -> FaultTimeline {
    let mut tl = FaultTimeline::new();
    tl.push(5, FaultEventKind::Fault, FaultTarget::Link(0, 48))
        .push(8, FaultEventKind::Fault, FaultTarget::Node(17))
        .push(20, FaultEventKind::Repair, FaultTarget::Link(0, 48))
        .push(30, FaultEventKind::Repair, FaultTarget::Node(17));
    tl
}

/// One pinned run: its name, golden line, and full render.
struct Pinned {
    name: &'static str,
    line: String,
    render: String,
}

fn pin(name: &'static str, stats: &SimStats, tel: &Telemetry, extra: &str) -> Pinned {
    let snapshot = tel.snapshot();
    let render = JsonLinesSink.render(&snapshot);
    let digest = |s: String| fnv1a(s.as_bytes());
    let line = format!(
        "{name} delivered={} stranded={} cycles={} stats={:016x} render={:016x} \
         report={:016x} text={:016x} csv={:016x}{extra}",
        stats.delivered,
        stats.stranded,
        stats.cycles,
        fnv1a(format!("{stats:?}").as_bytes()),
        fnv1a(render.as_bytes()),
        digest(ReportSink::default().render(&snapshot)),
        digest(TextSink.render(&snapshot)),
        digest(CsvSink.render(&snapshot)),
    );
    Pinned { name, line, render }
}

fn all_runs() -> Vec<Pinned> {
    let t = net();
    let inj = traffic();
    let mut out = Vec::new();

    let (cfg, tel) = config();
    out.push(pin("run", &Sim::new(&t).run(&inj, cfg), &tel, ""));

    let (cfg, tel) = config();
    let mut mem = MemStats::default();
    let stats = Sim::new(&t).mem(&mut mem).run(&inj, cfg);
    let extra = format!(
        " peak_channel_records={} num_channels={}",
        mem.peak_channel_records, mem.num_channels
    );
    out.push(pin("run_with_mem", &stats, &tel, &extra));

    let (cfg, tel) = config();
    out.push(pin(
        "run_bounded",
        &Sim::new(&t).model(Model::Bounded(2)).run(&inj, cfg),
        &tel,
        "",
    ));

    let (cfg, tel) = config();
    out.push(pin(
        "run_adaptive",
        &Sim::new(&t).model(Model::Adaptive).run(&inj, cfg),
        &tel,
        "",
    ));

    let implicit = HyperButterflyNet::implicit(2, 3, HbRouteOrder::CubeFirst).unwrap();
    let (cfg, tel) = config();
    let stats = Sim::new(&implicit).model(Model::Adaptive).run(&inj, cfg);
    out.push(pin("run_adaptive_implicit", &stats, &tel, ""));

    // The adaptive router at the benchmark's butterfly size (`n = 6`),
    // on a butterfly word wider than one byte (`n = 9`), and with three
    // cube bits, so productive flips of several set and clear bits
    // compete with the butterfly hops (`m = 3`).
    for (name, m, n) in [
        ("run_adaptive_hb26", 2, 6),
        ("run_adaptive_hb19", 1, 9),
        ("run_adaptive_hb34", 3, 4),
    ] {
        let wide = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst).unwrap();
        let inj = workload::hotspot(wide.num_nodes(), 40, 0.1, 0, 0.3, 2024);
        let (cfg, tel) = config();
        out.push(pin(
            name,
            &Sim::new(&wide).model(Model::Adaptive).run(&inj, cfg),
            &tel,
            "",
        ));
    }

    let (cfg, tel) = config();
    let stats = Sim::new(&t)
        .model(Model::Oblivious(TraceSampling::All))
        .faults(&plan())
        .run(&inj, cfg);
    out.push(pin("run_with_faults", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = Sim::new(&t)
        .model(Model::Oblivious(TraceSampling::All))
        .timeline(&timeline())
        .run(&inj, cfg);
    out.push(pin("run_with_timeline", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = Sim::new(&t)
        .model(Model::Bounded(2))
        .timeline(&timeline())
        .run(&inj, cfg);
    out.push(pin("run_bounded_with_timeline", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = Sim::new(&t)
        .model(Model::Adaptive)
        .timeline(&timeline())
        .run(&inj, cfg);
    out.push(pin("run_adaptive_with_timeline", &stats, &tel, ""));

    // The sharded engine's own outputs: per-shard counters, spans,
    // mailbox series, and the shard profile phases.
    let (cfg, tel) = config();
    let cfg = cfg.with_threads(2).with_shard_telemetry(true);
    out.push(pin("run_sharded", &Sim::new(&t).run(&inj, cfg), &tel, ""));

    let (cfg, tel) = config();
    let stats = Sim::new(&t).faults(&plan()).run(&inj, cfg.with_threads(2));
    out.push(pin("run_with_faults_sharded", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = Sim::new(&t)
        .timeline(&timeline())
        .run(&inj, cfg.with_threads(2));
    out.push(pin("run_with_timeline_sharded", &stats, &tel, ""));

    // `hbnet report 3 4 --workload hotspot --cycles 100`, serial and at
    // two threads.
    let hb34 = HyperButterflyNet::new(3, 4, HbRouteOrder::CubeFirst).unwrap();
    let inj34 = workload::hotspot(hb34.num_nodes(), 100, 0.1, 0, 0.5, 42);
    for (name, threads) in [("report_hb34", 1), ("report_hb34_sharded", 2)] {
        let tel = Telemetry::with_trace(65_536);
        tel.enable_timeseries(TsConfig::new(5));
        let cfg = SimConfig::bounded(100 * 100 + 50_000)
            .with_threads(threads)
            .with_telemetry(tel.clone());
        out.push(pin(name, &Sim::new(&hb34).run(&inj34, cfg), &tel, ""));
    }

    // Two runs sharing one handle: link stats sum per link, a link
    // series the second run records replaces the first run's, and a link
    // only the first run touched keeps its series.
    let (cfg, tel) = config();
    Sim::new(&t).run(&inj, cfg.clone());
    out.push(pin(
        "shared_handle",
        &Sim::new(&t).model(Model::Adaptive).run(&second(), cfg),
        &tel,
        "",
    ));

    out
}

/// A light second workload, touching only some of the channels the
/// hotspot traffic does.
fn second() -> Vec<Injection> {
    workload::uniform(net().num_nodes(), 20, 0.05, 7)
}

#[test]
fn every_engine_output_matches_the_golden() {
    let runs = all_runs();
    let text: String = runs.iter().map(|p| format!("{}\n", p.line)).collect();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(dir.join("tests/engine_golden.txt"), &text).expect("write golden");
        return;
    }
    if text != GOLDEN {
        let out = dir.join("../../target/engine_golden");
        std::fs::create_dir_all(&out).expect("create the diff directory");
        std::fs::write(out.join("engine_golden.txt"), &text).expect("write current golden");
        for p in &runs {
            std::fs::write(out.join(format!("{}.jsonl", p.name)), &p.render)
                .expect("write current render");
        }
        panic!(
            "engine output drifted from tests/engine_golden.txt; current renders are in {}.\n\
             If the change is intended, rerun with REGEN_GOLDEN=1 and commit the result.\n\
             want:\n{GOLDEN}\ngot:\n{text}",
            out.display()
        );
    }
}

#[test]
fn the_pinned_runs_exercise_every_model_path() {
    let t = net();
    let inj = traffic();
    // Faults and churn refuse some admissions and detour others...
    let (cfg, tel) = config();
    Sim::new(&t)
        .model(Model::Oblivious(TraceSampling::All))
        .faults(&plan())
        .run(&inj, cfg);
    assert!(tel.counter("sim.unroutable").get() > 0);
    assert!(tel.counter("sim.reroutes").get() > 0);
    assert!(!tel.snapshot().spans.is_empty());
    // ...and bounded queues both drop at the source and block in transit.
    let (cfg, tel) = config();
    let b = Sim::new(&t).model(Model::Bounded(2)).run(&inj, cfg);
    assert!(tel.counter("sim.dropped").get() > 0);
    let links = tel.snapshot().links;
    let busy: u64 = links.iter().map(|(_, r)| r.busy_cycles).sum();
    assert!(busy > links.total_forwarded(), "some heads blocked");
    assert_eq!(b.delivered + b.stranded, b.offered);
    // The hot node congests enough for the detector to fire.
    let (cfg, tel) = config();
    Sim::new(&t).model(Model::Adaptive).run(&inj, cfg);
    assert!(!tel.snapshot().congestion.is_empty());
    // On a shared handle the second run's link series replace the
    // first's, and links only the first run touched keep theirs.
    let (cfg, first) = config();
    Sim::new(&t).run(&inj, cfg);
    let (cfg, later) = config();
    Sim::new(&t).model(Model::Adaptive).run(&second(), cfg);
    let (cfg, shared) = config();
    Sim::new(&t).run(&inj, cfg.clone());
    Sim::new(&t).model(Model::Adaptive).run(&second(), cfg);
    let (first, later, shared) = (first.series(), later.series(), shared.series());
    let (mut replaced, mut kept) = (0, 0);
    for (name, s) in shared.iter().filter(|(n, _)| n.starts_with("link.")) {
        if let Some(l) = later.get(name) {
            assert_eq!(s, l, "{name}");
            replaced += usize::from(first.get(name).is_some_and(|f| f != l));
        } else {
            assert_eq!(Some(s), first.get(name), "{name}");
            kept += 1;
        }
    }
    assert!(replaced > 0 && kept > 0, "replaced {replaced}, kept {kept}");
}

/// A run with no traffic still renders through every sink: the global
/// series hold one empty window, and no link has a row or a series.
#[test]
fn a_run_without_traffic_renders_through_every_sink() {
    let (cfg, tel) = config();
    let stats = Sim::new(&net()).run(&[], cfg);
    assert_eq!((stats.offered, stats.delivered), (0, 0));
    let s = tel.snapshot();
    assert_eq!(ReportSink::default().render(&s), EMPTY_REPORT);
    assert_eq!(TextSink.render(&s), EMPTY_TEXT);
    assert_eq!(JsonLinesSink.render(&s), EMPTY_JSON);
    assert_eq!(CsvSink.render(&s), EMPTY_CSV);
}

const EMPTY_REPORT: &str = r#"run report: 
  sim.cycles     1
  sim.delivered  0
  sim.offered    0
  sim.stranded   0
phase timeline (1 windows x 5 cycles, 0 dropped):
  window  injected delivered in-flight queue-max
       0         0         0         0         0
anomalies (0):
  (none)
"#;

const EMPTY_TEXT: &str = r#"counters:
  sim.cycles                                  1
  sim.delivered                               0
  sim.offered                                 0
  sim.stranded                                0
time-series (5 series):
  sim.active_channels                 1 windows x5 cadence (0 dropped), hwm 0 @ cycle 0
  sim.delivered                       1 windows x5 cadence (0 dropped), hwm 0 @ cycle 0
  sim.in_flight                       1 windows x5 cadence (0 dropped), hwm 0 @ cycle 0
  sim.injected                        1 windows x5 cadence (0 dropped), hwm 0 @ cycle 0
  sim.queue.max                       1 windows x5 cadence (0 dropped), hwm 0 @ cycle 0
"#;

const EMPTY_JSON: &str = r#"{"type":"counter","name":"sim.cycles","value":1}
{"type":"counter","name":"sim.delivered","value":0}
{"type":"counter","name":"sim.offered","value":0}
{"type":"counter","name":"sim.stranded","value":0}
{"type":"series","name":"sim.active_channels","cadence":5,"dropped_windows":0,"hwm_value":0,"hwm_cycle":0,"windows":[{"index":0,"min":0,"max":0,"sum":0,"count":1,"last":0}]}
{"type":"series","name":"sim.delivered","cadence":5,"dropped_windows":0,"hwm_value":0,"hwm_cycle":0,"windows":[{"index":0,"min":0,"max":0,"sum":0,"count":1,"last":0}]}
{"type":"series","name":"sim.in_flight","cadence":5,"dropped_windows":0,"hwm_value":0,"hwm_cycle":0,"windows":[{"index":0,"min":0,"max":0,"sum":0,"count":1,"last":0}]}
{"type":"series","name":"sim.injected","cadence":5,"dropped_windows":0,"hwm_value":0,"hwm_cycle":0,"windows":[{"index":0,"min":0,"max":0,"sum":0,"count":1,"last":0}]}
{"type":"series","name":"sim.queue.max","cadence":5,"dropped_windows":0,"hwm_value":0,"hwm_cycle":0,"windows":[{"index":0,"min":0,"max":0,"sum":0,"count":1,"last":0}]}
"#;

const EMPTY_CSV: &str = r#"kind,name,value
counter,sim.cycles,1
counter,sim.delivered,0
counter,sim.offered,0
counter,sim.stranded,0

series,window,min,max,sum,count,last
sim.active_channels,0,0,0,0,1,0
sim.delivered,0,0,0,0,1,0
sim.in_flight,0,0,0,0,1,0
sim.injected,0,0,0,0,1,0
sim.queue.max,0,0,0,0,1,0
"#;
