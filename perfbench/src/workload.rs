//! The four workloads: set-up (topology, inputs, validation), the timed
//! operation, an untimed reference, and the per-run verification.
//!
//! Every check compares against invariants, never pinned numbers, so a
//! change to the simulation model stays measurable.

use crate::trace::Recorder;
use hb_graphs::{connectivity, shortest};
use hb_netsim::faults::random_fault_trials;
use hb_netsim::forwarding::edge_forwarding_index;
use hb_netsim::{
    run, run_adaptive, run_with_timeline, workload, FaultEventKind, FaultPlan, FaultTarget,
    FaultTimeline, HbRouteOrder, HyperButterflyNet, Injection, NetTopology, SimConfig, SimStats,
    TraceSampling,
};
use hb_telemetry::{ChromeTraceSink, ReportSink, Sink, SpanTreeSink, Telemetry, TsConfig};
use std::rc::Rc;

/// Worker threads of the `uniform` run (the sharded engine).
pub const THREADS: usize = 2;
/// `hotspot`: the node that draws the hot traffic.
pub const HOT_NODE: usize = 0;
/// `hotspot`: share of packets sent to [`HOT_NODE`].
pub const HOT_FRACTION: f64 = 0.05;
/// `hotspot`: time-series window in cycles.
pub const CADENCE: u64 = 50;
/// `churn`: a fault wave starts every this many cycles...
pub const WAVE_PERIOD: u64 = 20;
/// ...at this offset...
pub const WAVE_START: u64 = 5;
/// ...and its nodes are repaired this many cycles later.
pub const REPAIR_AFTER: u64 = 10;
/// `churn`: span store capacity, as `hbnet simulate --telemetry trace`.
pub const TRACE_CAPACITY: usize = 65_536;
/// `churn`: the flight recorder samples every this-many-th packet.
pub const SAMPLE_EVERY: u64 = 64;
/// `structure`: survivor pairs sampled per fault trial.
pub const PAIR_SAMPLES: usize = 16;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Bare sharded forwarding: route-table build plus the cycle loop.
    Uniform,
    /// Serial adaptive routing under a hotspot, telemetry and report on.
    Hotspot,
    /// Fault waves with incremental route repair, flight-recorded.
    Churn,
    /// The paper's structural claims, computed on the graph.
    Structure,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [Kind::Uniform, Kind::Hotspot, Kind::Churn, Kind::Structure];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Uniform => "uniform",
            Kind::Hotspot => "hotspot",
            Kind::Churn => "churn",
            Kind::Structure => "structure",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input scale: `Full` is what the benchmark measures, `Tiny` keeps the
/// same pipeline on `HB(1, 3)` for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// A few milliseconds per operation.
    Tiny,
}

/// Sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Hypercube dimension of `HB(m, n)`.
    pub m: u32,
    /// Butterfly dimension of `HB(m, n)`.
    pub n: u32,
    /// Injection cycles (simulator workloads).
    pub cycles: u64,
    /// Packets per node per cycle (simulator workloads).
    pub rate: f64,
    /// Random `m + 3`-fault trials (`structure`).
    pub trials: usize,
}

impl Params {
    /// The sizes of `kind` at `size`.
    pub fn of(kind: Kind, size: Size) -> Params {
        let (m, n, cycles, rate, trials) = match (kind, size) {
            (Kind::Uniform, Size::Full) => (4, 6, 100, 0.6, 0),
            (Kind::Hotspot, Size::Full) => (4, 6, 800, 0.02, 0),
            (Kind::Churn, Size::Full) => (4, 6, 250, 0.05, 0),
            (Kind::Structure, Size::Full) => (3, 4, 0, 0.0, 64),
            (Kind::Hotspot, Size::Tiny) => (1, 3, 60, 0.1, 0),
            (Kind::Structure, Size::Tiny) => (1, 3, 0, 0.0, 8),
            (_, Size::Tiny) => (1, 3, 40, 0.1, 0),
        };
        Params {
            m,
            n,
            cycles,
            rate,
            trials,
        }
    }

    /// Cycle cap of a run, as `hbnet simulate` sets it.
    fn max_cycles(&self) -> u64 {
        self.cycles * 100 + 50_000
    }

    /// Faults per `churn` wave: `m + 3`, the most Corollary 1 tolerates.
    pub fn wave_faults(&self) -> usize {
        self.m as usize + 3
    }
}

/// What the untimed reference computed during set-up.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Stats of the reference run (simulator workloads).
    pub stats: SimStats,
    /// `uniform`: the serial run's profiler work units.
    pub work: Vec<(String, u64)>,
    /// `churn`: injections whose source or destination is faulty at
    /// admission — the exact unroutable count Corollary 1 predicts.
    pub unroutable: u64,
}

/// `structure`: what one analysis found.
#[derive(Clone, Debug, PartialEq)]
pub struct StructureOut {
    /// Vertex connectivity κ.
    pub kappa: u32,
    /// Diameter.
    pub diameter: u32,
    /// Fault trials run.
    pub trials: usize,
    /// Trials whose survivor graph stayed connected.
    pub connected: usize,
    /// Total route hops over all ordered pairs (the forwarding load).
    pub route_hops: u64,
    /// Edge forwarding index (max channel load).
    pub forwarding_max: u64,
}

/// The result of one timed operation.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Simulator stats (default for `structure`).
    pub stats: SimStats,
    /// `sim.unroutable` counter (`churn`).
    pub unroutable: u64,
    /// Profiler work units by phase (telemetry-on workloads).
    pub work: Vec<(String, u64)>,
    /// Spans the flight recorder kept (`churn`).
    pub spans: u64,
    /// Bytes rendered by the sinks.
    pub rendered_bytes: u64,
    /// `churn`: the run's `sim.repair.*` counters (scanned, kept,
    /// respliced).
    pub repair: (u64, u64, u64),
    /// `structure` results.
    pub structure: Option<StructureOut>,
}

impl Outcome {
    /// Simulated packet-hops (delivered packets × mean hops), or for
    /// `structure` the route hops of all ordered pairs.
    pub fn hops(&self) -> u64 {
        match &self.structure {
            Some(s) => s.route_hops,
            None => round_u64(self.stats.avg_hops * self.stats.delivered as f64),
        }
    }

    /// The deterministic statistics, as one line. A change that only
    /// speeds the program up must leave it identical.
    pub fn digest(&self) -> String {
        if let Some(s) = &self.structure {
            return format!(
                "kappa={} diameter={} connected={}/{} route_hops={} forwarding_max={}",
                s.kappa, s.diameter, s.connected, s.trials, s.route_hops, s.forwarding_max
            );
        }
        let s = &self.stats;
        let mut d = format!(
            "offered={} delivered={} stranded={} cycles={} hops={} peak_queue={} \
             max_latency={} unroutable={} spans={} rendered_bytes={}",
            s.offered,
            s.delivered,
            s.stranded,
            s.cycles,
            self.hops(),
            s.peak_queue,
            s.max_latency,
            self.unroutable,
            self.spans,
            self.rendered_bytes
        );
        for (phase, work) in &self.work {
            d.push_str(&format!(" work.{phase}={work}"));
        }
        d
    }
}

/// `x` rounded to the nearest integer (`x` is a finite, non-negative
/// product of a mean and its count, far below 2^53).
fn round_u64(x: f64) -> u64 {
    x.round() as u64
}

/// FNV-1a of `text`, printed beside the digest so runs compare at a
/// glance.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: the benchmark's own input generator for the fault waves.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("below n, which is a usize")
    }
}

/// Fault waves: every [`WAVE_PERIOD`] cycles `faults` distinct random
/// nodes fail together and are repaired [`REPAIR_AFTER`] cycles later,
/// so no more than `faults` nodes are ever down at once.
pub fn fault_waves(nodes: usize, faults: usize, cycles: u64, seed: u64) -> FaultTimeline {
    let mut rng = SplitMix(seed ^ 0xC4A5_E5EE_D000_0001);
    let mut tl = FaultTimeline::new();
    let mut at = WAVE_START;
    while at < cycles {
        let mut wave: Vec<usize> = Vec::with_capacity(faults);
        while wave.len() < faults {
            let v = rng.below(nodes);
            if !wave.contains(&v) {
                wave.push(v);
            }
        }
        for &v in &wave {
            tl.push(at, FaultEventKind::Fault, FaultTarget::Node(v));
        }
        for &v in &wave {
            tl.push(
                at + REPAIR_AFTER,
                FaultEventKind::Repair,
                FaultTarget::Node(v),
            );
        }
        at += WAVE_PERIOD;
    }
    tl
}

/// Replays `timeline` over `injections` the way churn admission does
/// (events at cycle `c` are visible to injections at `c`). Returns the
/// number of injections whose source or destination is down at
/// admission, and the most nodes down at once.
fn admission_faults(
    nodes: usize,
    injections: &[Injection],
    timeline: &FaultTimeline,
) -> (u64, usize) {
    let mut down = vec![false; nodes];
    let mut down_now = 0usize;
    let mut most = 0usize;
    let events = timeline.events();
    let mut next = 0;
    let mut refused = 0u64;
    for inj in injections {
        while next < events.len() && events[next].cycle <= inj.at {
            if let FaultTarget::Node(v) = events[next].target {
                let fault = events[next].kind == FaultEventKind::Fault;
                if down[v] != fault {
                    down[v] = fault;
                    down_now = if fault { down_now + 1 } else { down_now - 1 };
                }
            }
            most = most.max(down_now);
            next += 1;
        }
        if down[inj.src] || down[inj.dst] {
            refused += 1;
        }
    }
    (refused, most)
}

/// Checks generated injections: sorted by cycle, endpoints in range and
/// distinct.
fn validate_injections(nodes: usize, injections: &[Injection]) -> Result<(), String> {
    if !injections.windows(2).all(|w| w[0].at <= w[1].at) {
        return Err("injections are not sorted by cycle".into());
    }
    match injections
        .iter()
        .find(|i| i.src >= nodes || i.dst >= nodes || i.src == i.dst)
    {
        Some(bad) => Err(format!("bad injection {bad:?} for {nodes} nodes")),
        None => Ok(()),
    }
}

/// One workload after set-up.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Its sizes.
    pub params: Params,
    /// Input seed.
    pub seed: u64,
    /// The explicit `HB(m, n)`, shared by the input sets of one run.
    pub net: Rc<HyperButterflyNet>,
    /// Injections (empty for `structure`).
    pub injections: Vec<Injection>,
    /// Fault waves (`churn`; empty otherwise).
    pub timeline: FaultTimeline,
    /// Filled by [`Workload::compute_reference`].
    pub reference: Option<Reference>,
}

/// Builds the explicit `HB(m, n)` topology.
pub fn build_topology(p: &Params) -> Result<HyperButterflyNet, String> {
    HyperButterflyNet::new(p.m, p.n, HbRouteOrder::CubeFirst)
        .map_err(|e| format!("HB({}, {}): {e}", p.m, p.n))
}

impl Workload {
    /// Set-up: topology construction, input generation and validation,
    /// and for `churn` the fault timeline.
    pub fn setup(kind: Kind, size: Size, seed: u64) -> Result<Workload, String> {
        let net = build_topology(&Params::of(kind, size))?;
        Workload::on(Rc::new(net), kind, size, seed)
    }

    /// Set-up on a topology already built: input generation and
    /// validation, and for `churn` the fault timeline.
    pub fn on(
        net: Rc<HyperButterflyNet>,
        kind: Kind,
        size: Size,
        seed: u64,
    ) -> Result<Workload, String> {
        let params = Params::of(kind, size);
        let nodes = net.num_nodes();
        let injections = match kind {
            Kind::Uniform | Kind::Churn => {
                workload::uniform(nodes, params.cycles, params.rate, seed)
            }
            Kind::Hotspot => workload::hotspot(
                nodes,
                params.cycles,
                params.rate,
                HOT_NODE,
                HOT_FRACTION,
                seed,
            ),
            Kind::Structure => Vec::new(),
        };
        validate_injections(nodes, &injections)?;
        let timeline = if kind == Kind::Churn {
            let tl = fault_waves(nodes, params.wave_faults(), params.cycles, seed);
            let (_, most) = admission_faults(nodes, &injections, &tl);
            if most > params.wave_faults() {
                return Err(format!("{most} nodes down at once, more than m + 3"));
            }
            tl
        } else {
            FaultTimeline::new()
        };
        Ok(Workload {
            kind,
            params,
            seed,
            net,
            injections,
            timeline,
            reference: None,
        })
    }

    /// The run configuration every simulator call of this workload starts from.
    pub fn config(&self) -> SimConfig {
        SimConfig::bounded(self.params.max_cycles())
    }

    /// The untimed reference the timed operations are checked against.
    pub fn compute_reference(&mut self) -> Result<(), String> {
        let no_faults = FaultPlan::new();
        let reference = match self.kind {
            Kind::Uniform => {
                // Serial and profiled: the sharded timed run must match it.
                let tel = Telemetry::summary();
                let cfg = self.config().with_telemetry(tel.clone()).with_profile(true);
                Reference {
                    stats: run(&*self.net, &self.injections, cfg),
                    work: work_units(&tel),
                    unroutable: 0,
                }
            }
            Kind::Hotspot => Reference {
                stats: run_adaptive(&*self.net, &self.injections, self.config()),
                work: Vec::new(),
                unroutable: 0,
            },
            Kind::Churn => Reference {
                stats: run_with_timeline(
                    &*self.net,
                    &self.injections,
                    self.config(),
                    &no_faults,
                    &self.timeline,
                    TraceSampling::Off,
                ),
                work: Vec::new(),
                unroutable: admission_faults(
                    self.net.num_nodes(),
                    &self.injections,
                    &self.timeline,
                )
                .0,
            },
            Kind::Structure => Reference {
                stats: SimStats::default(),
                work: Vec::new(),
                unroutable: 0,
            },
        };
        if self.kind != Kind::Structure {
            conservation(&reference.stats, self.injections.len())?;
        }
        self.reference = Some(reference);
        Ok(())
    }

    /// One whole operation, as a user runs it. With a recorder, each
    /// layer call gets a span; without one the calls are identical.
    pub fn op(&self, mut rec: Option<&mut Recorder>) -> Outcome {
        let mut span = |name: &'static str, f: &mut dyn FnMut()| match rec.as_deref_mut() {
            Some(r) => r.span(name, |_| f()),
            None => f(),
        };
        let mut out = Outcome::default();
        match self.kind {
            Kind::Uniform => {
                let cfg = self.config().with_threads(THREADS);
                span("par.run", &mut || {
                    out.stats = run(&*self.net, &self.injections, cfg.clone())
                });
            }
            Kind::Hotspot => {
                let tel = Telemetry::summary();
                tel.enable_timeseries(TsConfig::new(CADENCE));
                let cfg = self.config().with_telemetry(tel.clone()).with_profile(true);
                span("sim.adaptive.tel_on", &mut || {
                    out.stats = run_adaptive(&*self.net, &self.injections, cfg.clone());
                });
                let mut snapshot = None;
                span("telemetry.snapshot", &mut || {
                    snapshot = Some(tel.snapshot())
                });
                let snapshot = snapshot.expect("the snapshot span ran");
                let sink = self.report_sink(&out.stats);
                span("render.report", &mut || {
                    out.rendered_bytes = sink.render(&snapshot).len() as u64;
                });
                out.work = work_units(&tel);
            }
            Kind::Churn => {
                let tel = Telemetry::with_trace(TRACE_CAPACITY);
                let cfg = self.config().with_telemetry(tel.clone()).with_profile(true);
                span("flight.run.tel_on", &mut || {
                    out.stats = run_with_timeline(
                        &*self.net,
                        &self.injections,
                        cfg.clone(),
                        &FaultPlan::new(),
                        &self.timeline,
                        TraceSampling::EveryNth(SAMPLE_EVERY),
                    );
                });
                let mut snapshot = None;
                span("telemetry.snapshot", &mut || {
                    snapshot = Some(tel.snapshot())
                });
                let snapshot = snapshot.expect("the snapshot span ran");
                let mut bytes = 0;
                span("render.span_tree", &mut || {
                    bytes += SpanTreeSink.render(&snapshot).len()
                });
                span("render.chrome", &mut || {
                    bytes += ChromeTraceSink.render(&snapshot).len()
                });
                out.rendered_bytes = bytes as u64;
                out.spans = snapshot.spans.len() as u64;
                out.unroutable = tel.counter("sim.unroutable").get();
                out.repair = (
                    tel.counter("sim.repair.scanned").get(),
                    tel.counter("sim.repair.kept").get(),
                    tel.counter("sim.repair.respliced").get(),
                );
                out.work = work_units(&tel);
            }
            Kind::Structure => {
                let g = self.net.graph();
                let p = &self.params;
                let mut s = StructureOut {
                    kappa: 0,
                    diameter: 0,
                    trials: 0,
                    connected: 0,
                    route_hops: 0,
                    forwarding_max: 0,
                };
                span("graphs.diameter", &mut || {
                    s.diameter = shortest::diameter(g).unwrap_or(0);
                });
                span("graphs.connectivity", &mut || {
                    s.kappa = connectivity::vertex_connectivity(g).unwrap_or(0);
                });
                span("faults.trials", &mut || {
                    let t =
                        random_fault_trials(g, p.wave_faults(), p.trials, PAIR_SAMPLES, self.seed);
                    s.trials = t.trials;
                    s.connected = t.connected;
                });
                span("forwarding.index", &mut || {
                    let f = edge_forwarding_index(&*self.net);
                    s.route_hops = round_u64(f.mean * f.channels as f64);
                    s.forwarding_max = f.max;
                });
                out.structure = Some(s);
            }
        }
        out
    }

    /// The run report `hbnet report` would print for this run.
    fn report_sink(&self, stats: &SimStats) -> ReportSink {
        let p = &self.params;
        ReportSink {
            title: format!("HB({}, {}) hotspot", p.m, p.n),
            meta: vec![
                (
                    "topology".into(),
                    format!("HB({}, {}), {} nodes", p.m, p.n, self.net.num_nodes()),
                ),
                (
                    "workload".into(),
                    format!(
                        "hotspot -> node {HOT_NODE} (fraction {HOT_FRACTION}), rate {}, seed {}",
                        p.rate, self.seed
                    ),
                ),
                (
                    "delivered".into(),
                    format!(
                        "{}/{} in {} cycles (avg latency {:.2})",
                        stats.delivered, stats.offered, stats.cycles, stats.avg_latency
                    ),
                ),
                ("cadence".into(), format!("{CADENCE} cycles/window")),
            ],
            ..ReportSink::default()
        }
    }

    /// Checks one operation's output against the invariants of its
    /// workload.
    pub fn verify(&self, out: &Outcome) -> Result<(), String> {
        let p = &self.params;
        if self.kind == Kind::Structure {
            let s = out.structure.as_ref().ok_or("no structure result")?;
            let hb = self.net.topology();
            let kappa = p.m + 4;
            let diameter = p.m + p.n + p.n / 2;
            if s.kappa != kappa || hb.connectivity() != kappa {
                return Err(format!(
                    "kappa {} (hb-core {}), want m + 4 = {kappa}",
                    s.kappa,
                    hb.connectivity()
                ));
            }
            if s.diameter != diameter || hb.diameter() != diameter {
                return Err(format!(
                    "diameter {} (hb-core {}), want m + n + n/2 = {diameter}",
                    s.diameter,
                    hb.diameter()
                ));
            }
            if s.trials != p.trials || s.connected != s.trials {
                return Err(format!(
                    "{}/{} trials with m + 3 faults stayed connected",
                    s.connected, s.trials
                ));
            }
            return Ok(());
        }
        conservation(&out.stats, self.injections.len())?;
        let reference = self.reference.as_ref().ok_or("no reference computed")?;
        if out.stats != reference.stats {
            return Err(format!(
                "stats differ from the reference run:\n  got  {:?}\n  want {:?}",
                out.stats, reference.stats
            ));
        }
        if self.kind == Kind::Churn && out.unroutable != reference.unroutable {
            return Err(format!(
                "sim.unroutable {} but {} injections had a faulty endpoint at admission",
                out.unroutable, reference.unroutable
            ));
        }
        Ok(())
    }
}

/// `delivered + stranded == offered`, and every injection was offered.
fn conservation(s: &SimStats, injections: usize) -> Result<(), String> {
    if s.delivered + s.stranded != s.offered || s.offered != injections as u64 {
        return Err(format!(
            "conservation broken: delivered {} + stranded {} vs offered {} of {injections}",
            s.delivered, s.stranded, s.offered
        ));
    }
    Ok(())
}

/// Profiler work units by phase.
fn work_units(tel: &Telemetry) -> Vec<(String, u64)> {
    tel.profile()
        .iter()
        .map(|(phase, st)| (phase.to_string(), st.work))
        .collect()
}
