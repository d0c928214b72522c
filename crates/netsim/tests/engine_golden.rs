//! Pins every public simulator entry point's output byte for byte.
//!
//! Each run below drives one seeded `HB(2, 3)` hotspot workload through
//! one entry point with trace telemetry, a windowed time series, and the
//! work profile on. Its line in `engine_golden.txt` carries an FNV-1a
//! digest of the returned `SimStats` and one of the `JsonLinesSink`
//! render of the telemetry snapshot (counters, histograms, profile,
//! links, series, congestion, events, spans). `run_with_mem` also pins
//! the record counts of its `MemStats` (the byte fields depend on
//! allocator capacity, so they stay out).
//!
//! Rerun with `REGEN_GOLDEN=1` to rewrite the file after an intended
//! model change. On a mismatch the current renders and golden text are
//! written under `target/engine_golden/` for diffing.

use hb_netsim::sim::run_bounded_sweep;
use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, ImplicitTopology};
use hb_netsim::{
    run, run_adaptive, run_adaptive_with_timeline, run_bounded, run_bounded_with_timeline,
    run_with_faults, run_with_mem, run_with_timeline, workload, FaultEventKind, FaultPlan,
    FaultTarget, FaultTimeline, Injection, NetTopology, SimConfig, SimStats, TraceSampling,
};
use hb_telemetry::{JsonLinesSink, Sink, Telemetry, TsConfig};
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
    plan.add_node(17).add_link(0, 1);
    plan
}

/// Faults land mid-run and are repaired before the injections stop.
fn timeline() -> FaultTimeline {
    let mut tl = FaultTimeline::new();
    tl.push(5, FaultEventKind::Fault, FaultTarget::Link(0, 1))
        .push(8, FaultEventKind::Fault, FaultTarget::Node(17))
        .push(20, FaultEventKind::Repair, FaultTarget::Link(0, 1))
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
    let render = JsonLinesSink.render(&tel.snapshot());
    let line = format!(
        "{name} delivered={} stranded={} cycles={} stats={:016x} render={:016x}{extra}",
        stats.delivered,
        stats.stranded,
        stats.cycles,
        fnv1a(format!("{stats:?}").as_bytes()),
        fnv1a(render.as_bytes()),
    );
    Pinned { name, line, render }
}

fn all_runs() -> Vec<Pinned> {
    let t = net();
    let inj = traffic();
    let mut out = Vec::new();

    let (cfg, tel) = config();
    out.push(pin("run", &run(&t, &inj, cfg), &tel, ""));

    let (cfg, tel) = config();
    let (stats, mem) = run_with_mem(&t, &inj, cfg);
    let extra = format!(
        " peak_channel_records={} num_channels={}",
        mem.peak_channel_records, mem.num_channels
    );
    out.push(pin("run_with_mem", &stats, &tel, &extra));

    let (cfg, tel) = config();
    out.push(pin("run_bounded", &run_bounded(&t, &inj, cfg, 2), &tel, ""));

    let (cfg, tel) = config();
    let stats = run_bounded_sweep(&t, &inj, cfg, 2);
    out.push(pin("run_bounded_sweep", &stats, &tel, ""));

    let (cfg, tel) = config();
    out.push(pin("run_adaptive", &run_adaptive(&t, &inj, cfg), &tel, ""));

    let implicit = ImplicitTopology::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
    let (cfg, tel) = config();
    let stats = run_adaptive(&implicit, &inj, cfg);
    out.push(pin("run_adaptive_implicit", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = run_with_faults(&t, &inj, cfg, &plan(), TraceSampling::All);
    out.push(pin("run_with_faults", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = run_with_timeline(
        &t,
        &inj,
        cfg,
        &FaultPlan::new(),
        &timeline(),
        TraceSampling::All,
    );
    out.push(pin("run_with_timeline", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = run_bounded_with_timeline(&t, &inj, cfg, 2, &FaultPlan::new(), &timeline());
    out.push(pin("run_bounded_with_timeline", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = run_adaptive_with_timeline(&t, &inj, cfg, &FaultPlan::new(), &timeline());
    out.push(pin("run_adaptive_with_timeline", &stats, &tel, ""));

    // The sharded engine's own outputs: per-shard counters, spans,
    // mailbox series, and the shard profile phases.
    let (cfg, tel) = config();
    let cfg = cfg.with_threads(2).with_shard_telemetry(true);
    out.push(pin("run_sharded", &run(&t, &inj, cfg), &tel, ""));

    let (cfg, tel) = config();
    let stats = run_with_faults(&t, &inj, cfg.with_threads(2), &plan(), TraceSampling::Off);
    out.push(pin("run_with_faults_sharded", &stats, &tel, ""));

    let (cfg, tel) = config();
    let stats = run_with_timeline(
        &t,
        &inj,
        cfg.with_threads(2),
        &FaultPlan::new(),
        &timeline(),
        TraceSampling::Off,
    );
    out.push(pin("run_with_timeline_sharded", &stats, &tel, ""));

    out
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
    run_with_faults(&t, &inj, cfg, &plan(), TraceSampling::All);
    assert!(tel.counter("sim.unroutable").get() > 0);
    assert!(tel.counter("sim.reroutes").get() > 0);
    assert!(!tel.spans().is_empty());
    // ...and bounded queues both drop at the source and block in transit.
    let (cfg, tel) = config();
    let b = run_bounded(&t, &inj, cfg, 2);
    assert!(tel.counter("sim.dropped").get() > 0);
    let busy: u64 = tel.links().iter().map(|(_, r)| r.busy_cycles).sum();
    assert!(busy > tel.links().total_forwarded(), "some heads blocked");
    assert_eq!(b.delivered + b.stranded, b.offered);
    // The hot node congests enough for the detector to fire.
    let (cfg, tel) = config();
    run_adaptive(&t, &inj, cfg);
    assert!(!tel.congestion().is_empty());
}
