//! The two kinds of run: the untraced closed loop that gives the
//! end-to-end metrics, and the traced run that gives the per-layer ones.

use crate::calibrate::{scale, Kernel, REFERENCE_S};
use crate::machine::peak_rss_mb;
use crate::probe::{run_probes, ProbeCounts};
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::workload::{build_topology, fnv1a, Kind, Outcome, Size, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Set-up repeats at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median repetition.
pub const SETUP_REPS: usize = 15;
/// See [`SETUP_REPS`].
pub const SETUP_SECONDS: f64 = 1.0;
/// Timed operations per run, at least, so the tail has ten samples
/// beyond it.
pub const MIN_SAMPLES: usize = 21;
/// The timed loop stops here even if `MIN_SAMPLES` was not reached.
pub const MAX_LOOP_SECONDS: f64 = 100.0;
/// Input sets of the untimed run: the loop takes its operations from
/// this many sets of inputs, derived from the seed, in turn. The time of
/// one `hotspot` operation depends on how its draw of traffic queues up
/// at the hot node (the per-run median moved by ±4% from seed to seed);
/// over several draws that averages out.
pub const INPUT_SETS: u64 = 6;

/// The seed of input set `set` of a run with `seed`; set 0 is the seed
/// itself, so the traced run and the first set see the same inputs.
pub fn input_seed(seed: u64, set: u64) -> u64 {
    seed.wrapping_add(set.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run found.
#[derive(Debug)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those, how many failed a check or changed the digest.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
}

impl Report {
    /// Everything checked passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (non-finite values, which JSON cannot hold, become 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Counts checked outcomes and keeps the first few failure messages.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(format!("FAILED {what}: {e}"));
            }
        }
    }

    /// Verifies `out` and also requires its digest to equal `digest`.
    fn outcome(&mut self, w: &Workload, out: &Outcome, digest: &str) {
        let result = w.verify(out).and_then(|()| {
            let d = out.digest();
            if d == digest {
                Ok(())
            } else {
                Err(format!(
                    "digest changed between runs:\n  got  {d}\n  want {digest}"
                ))
            }
        });
        self.record(w.kind.name(), result);
    }
}

/// Set-up plus the reference, which every later check relies on.
fn prepare(kind: Kind, size: Size, seed: u64) -> Result<Workload, String> {
    let mut w = Workload::setup(kind, size, seed)?;
    w.compute_reference()?;
    Ok(w)
}

/// The digest line: the operation's deterministic stats plus the
/// reference's work units.
fn digest_line(w: &Workload, out: &Outcome) -> String {
    let mut d = out.digest();
    if let Some(r) = &w.reference {
        for (phase, work) in &r.work {
            d.push_str(&format!(" work.{phase}={work}"));
        }
    }
    format!("digest {:016x} {d}", fnv1a(&d))
}

/// Each of `raw` (wall seconds) scaled by the mean of the calibration
/// kernel's times just before and just after it: `kernel_s` holds one
/// more time than `raw`, the kernel having run between every two.
fn calibrated(raw: &[f64], kernel_s: &[f64]) -> Vec<f64> {
    raw.iter()
        .zip(kernel_s.windows(2))
        .map(|(&s, k)| scale(s, (k[0] + k[1]) / 2.0))
        .collect()
}

/// The untraced run: set up repeatedly (see [`SETUP_REPS`]), then time
/// whole operations one after another (a closed loop with one caller)
/// for `seconds`, checking each one. The calibration kernel runs before
/// and after every timed set-up and operation, and every reported time
/// is calibrated by it (see [`crate::calibrate`]); the log keeps the
/// wall times.
pub fn measure(kind: Kind, size: Size, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut kernel = Kernel::new();
    let mut setup_raw = Vec::new();
    let mut setup_kernel = vec![kernel.time()];
    let mut w = None;
    let setup_start = Instant::now();
    while setup_raw.len() < SETUP_REPS || seconds_since(setup_start) < SETUP_SECONDS {
        // Drop the previous set-up first so repetitions start alike.
        drop(w.take());
        let t = Instant::now();
        w = Some(black_box(Workload::setup(kind, size, seed)?));
        setup_raw.push(seconds_since(t));
        setup_kernel.push(kernel.time());
    }
    let setup_s = calibrated(&setup_raw, &setup_kernel);
    let mut ws = vec![w.expect("set-up ran at least once")];
    for set in 1..INPUT_SETS {
        let net = Rc::clone(&ws[0].net);
        ws.push(Workload::on(net, kind, size, input_seed(seed, set))?);
    }
    let rss_setup = peak_rss_mb().unwrap_or(0.0);
    for w in &mut ws {
        w.compute_reference()?;
    }
    let rss_reference = peak_rss_mb().unwrap_or(0.0);

    let mut checks = Checks::default();
    let mut log = Vec::new();
    // Warm-up, once per input set: not timed, but checked, and it fixes
    // the set's digest and hop count.
    let mut digests = Vec::new();
    let mut hops = Vec::new();
    for w in &ws {
        let first = w.op(None);
        checks.record(kind.name(), w.verify(&first));
        log.push(format!("seed {} {}", w.seed, digest_line(w, &first)));
        digests.push(first.digest());
        hops.push(first.hops() as f64);
    }
    // The high-water mark of set-up, references and one operation per
    // set. Later operations repeat the same allocations; reading it here
    // keeps it independent of how many operations the run fits in.
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    log.push(format!(
        "peak_rss_mb after set-up {rss_setup:.1}, references {rss_reference:.1}, \
         first operations {peak_rss:.1}"
    ));

    let mut raw = Vec::new();
    let mut kernel_s = vec![kernel.time()];
    let start = Instant::now();
    loop {
        let elapsed = seconds_since(start);
        // Stop only after whole rounds of the input sets, so each set
        // weighs the same in the median.
        let enough = elapsed >= seconds && raw.len() >= MIN_SAMPLES && raw.len() % ws.len() == 0;
        if enough || (elapsed >= MAX_LOOP_SECONDS && !raw.is_empty()) {
            break;
        }
        let set = raw.len() % ws.len();
        let t = Instant::now();
        let out = black_box(ws[set].op(None));
        raw.push(seconds_since(t));
        kernel_s.push(kernel.time());
        checks.outcome(&ws[set], &out, &digests[set]);
    }
    let samples = calibrated(&raw, &kernel_s);
    // Every operation of a set simulates the same hops (the digest is
    // checked), so each operation's throughput is its set's hops over
    // its time.
    let rates: Vec<f64> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| hops[i % hops.len()] / s)
        .collect();

    let (pct, tail_s) = tail(&samples);
    let p50 = median(&samples);
    log.push(format!(
        "samples n={} run_s_p50={p50:.6} run_s_tail=p{pct:.1}:{tail_s:.6} \
         setup_s={:.6} (median of {})",
        samples.len(),
        median(&setup_s),
        setup_s.len()
    ));
    log.push(format!(
        "wall run_s_p50={:.6} setup_s={:.6}; calibration kernel median {:.6} s \
         in the loop, {:.6} s in set-up (reference {REFERENCE_S} s)",
        median(&raw),
        median(&setup_raw),
        median(&kernel_s),
        median(&setup_kernel)
    ));
    log.push(format!(
        "error_rate {} ({}/{})",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    ));
    let ms = |xs: &[f64]| -> Vec<f64> { xs.iter().map(|x| (x * 1e4).round() / 10.0).collect() };
    log.push(format!("samples_ms {:?}", ms(&samples)));
    log.push(format!("wall_ms {:?}", ms(&raw)));
    log.push(format!("kernel_ms {:?}", ms(&kernel_s)));
    log.extend(checks.messages);
    Ok(Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("run_s_p50", p50, "s"),
            ("run_s_tail", tail_s, "s"),
            ("hops_per_s", median(&rates), "1/s"),
            ("peak_rss_mb", peak_rss, "MB"),
        ],
        log,
    })
}

/// Everything the traced run counts once (counts repeat exactly).
struct Counts {
    probes: ProbeCounts,
    uniform_hops: u64,
    lookup_work: u64,
    service_work: u64,
    scan_work: u64,
    repair_work: u64,
    spans: u64,
    rendered_bytes: u64,
}

impl Counts {
    /// Counts from the probes and from one pass's outcomes, which are
    /// in [`Kind::ALL`] order, as `ws` is.
    fn new(ws: &[Workload], outs: &[Outcome], probes: ProbeCounts) -> Counts {
        let at = |k: Kind| {
            Kind::ALL
                .iter()
                .position(|&x| x == k)
                .expect("every kind ran")
        };
        let (hotspot, churn) = (&outs[at(Kind::Hotspot)], &outs[at(Kind::Churn)]);
        let uniform = ws[at(Kind::Uniform)]
            .reference
            .as_ref()
            .expect("references are computed first");
        Counts {
            probes,
            uniform_hops: Outcome {
                stats: uniform.stats.clone(),
                ..Outcome::default()
            }
            .hops(),
            lookup_work: work_of(&uniform.work, "sim/route_lookup"),
            service_work: work_of(&uniform.work, "sim/queue_service"),
            scan_work: work_of(&hotspot.work, "sim/adaptive_scan"),
            repair_work: work_of(&churn.work, "sim/route_repair"),
            spans: churn.spans,
            rendered_bytes: hotspot.rendered_bytes + churn.rendered_bytes,
        }
    }
}

fn work_of(work: &[(String, u64)], phase: &str) -> u64 {
    work.iter().find(|(p, _)| p == phase).map_or(0, |(_, w)| *w)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of one pass from its self times (ns by span
/// name) and the counts.
fn layer_metrics(t: &BTreeMap<&'static str, u64>, c: &Counts) -> Vec<Metric> {
    let ns = |name: &str| t.get(name).copied().unwrap_or(0) as f64;
    let ms = |name: &str| ns(name) / 1e6;
    let build = ns("routes.build");
    let sim_loop = ns("sim.run") - build;
    let par_loop = ns("par.run") - build;
    let compile = ns("routes.resolve") + ns("routes.repair");
    let summary_overhead = ns("sim.adaptive.tel_on") - ns("sim.adaptive");
    let trace_overhead = ns("flight.run.tel_on") - ns("flight.run");
    let p = &c.probes;
    let hops = c.uniform_hops as f64;
    vec![
        ("topology.build_ms", ms("topology.build"), "ms"),
        ("routes.build_ms", build / 1e6, "ms"),
        (
            "routes.build_ns_per_pair",
            ratio(build, p.pairs as f64),
            "ns",
        ),
        ("routes.pairs", p.pairs as f64, "count"),
        ("routes.route_nodes", p.route_nodes as f64, "count"),
        ("routes.table_bytes", p.table_bytes as f64, "bytes"),
        ("routes.resolve_ms", ms("routes.resolve"), "ms"),
        ("routes.repair_ms", ms("routes.repair"), "ms"),
        ("routes.respliced", p.repair.respliced as f64, "count"),
        ("routes.kept", p.repair.kept as f64, "count"),
        (
            "routes.repair_useful_ratio",
            ratio(p.repair.respliced as f64, p.repair.scanned as f64),
            "ratio",
        ),
        ("sim.loop_ms", sim_loop / 1e6, "ms"),
        ("sim.ns_per_hop", ratio(sim_loop, hops), "ns"),
        ("sim.adaptive_ms", ms("sim.adaptive"), "ms"),
        (
            "sim.adaptive_ns_per_scan",
            ratio(ns("sim.adaptive"), c.scan_work as f64),
            "ns",
        ),
        ("sim.route_lookup.work", c.lookup_work as f64, "count"),
        ("sim.queue_service.work", c.service_work as f64, "count"),
        ("sim.adaptive_scan.work", c.scan_work as f64, "count"),
        ("sim.route_repair.work", c.repair_work as f64, "count"),
        ("par.loop_ms", par_loop / 1e6, "ms"),
        ("par.ns_per_hop", ratio(par_loop, hops), "ns"),
        ("par.speedup_vs_t1", ratio(sim_loop, par_loop), "ratio"),
        ("flight.loop_ms", (ns("flight.run") - compile) / 1e6, "ms"),
        (
            "telemetry.overhead_ms",
            (summary_overhead + trace_overhead) / 1e6,
            "ms",
        ),
        (
            "telemetry.summary_overhead_ms",
            summary_overhead / 1e6,
            "ms",
        ),
        ("telemetry.trace_overhead_ms", trace_overhead / 1e6, "ms"),
        ("telemetry.snapshot_ms", ms("telemetry.snapshot"), "ms"),
        ("telemetry.spans", c.spans as f64, "count"),
        ("render.report_ms", ms("render.report"), "ms"),
        ("render.span_tree_ms", ms("render.span_tree"), "ms"),
        ("render.chrome_ms", ms("render.chrome"), "ms"),
        ("render.bytes", c.rendered_bytes as f64, "bytes"),
        ("graphs.diameter_ms", ms("graphs.diameter"), "ms"),
        ("graphs.connectivity_ms", ms("graphs.connectivity"), "ms"),
        ("faults.trials_ms", ms("faults.trials"), "ms"),
        ("forwarding.index_ms", ms("forwarding.index"), "ms"),
    ]
}

/// The traced run. Each pass is one root span that rebuilds the named
/// workload's topology, then runs every workload's operation and its
/// layer probes under spans, so every per-layer metric is measured on
/// every traced run: a layer on the inputs of the workload that runs
/// it. After each pass the named workload's operation runs once more
/// untraced; the gap between the two is the tracing overhead. Passes
/// repeat for `seconds` and every metric is the median over passes.
pub fn trace(
    kind: Kind,
    size: Size,
    seed: u64,
    seconds: f64,
) -> Result<(Report, Recorder), String> {
    let ws: Vec<Workload> = Kind::ALL
        .into_iter()
        .map(|k| prepare(k, size, seed))
        .collect::<Result<_, _>>()?;
    let named = Kind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("Kind::ALL holds every kind");
    let mut checks = Checks::default();
    let mut digests: Vec<String> = Vec::new();
    let mut counts = None;
    let mut log = Vec::new();
    let mut rec = Recorder::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let start = Instant::now();
    while traced_s.is_empty() || seconds_since(start) < seconds {
        let mut outs = Vec::with_capacity(ws.len());
        let mut probes = ProbeCounts::default();
        rec.span("pass", |r| {
            let _ = r.span("topology.build", |_| {
                black_box(build_topology(&ws[named].params))
            });
            for w in &ws {
                let t = Instant::now();
                let out = r.span(w.kind.name(), |r| w.op(Some(r)));
                if w.kind == kind {
                    traced_s.push(seconds_since(t));
                }
                checks.record("probe", run_probes(w, &out, r, &mut probes));
                outs.push(out);
            }
        });
        let t = Instant::now();
        let untraced = black_box(ws[named].op(None));
        untraced_s.push(seconds_since(t));

        if digests.is_empty() {
            digests = outs.iter().map(Outcome::digest).collect();
            log.push(digest_line(&ws[named], &outs[named]));
        }
        for ((w, out), digest) in ws.iter().zip(&outs).zip(&digests) {
            checks.outcome(w, out, digest);
        }
        checks.outcome(&ws[named], &untraced, &digests[named]);
        if counts.is_none() {
            counts = Some(Counts::new(&ws, &outs, probes));
        }
    }
    let counts = counts.expect("at least one pass ran");

    let passes: Vec<Vec<Metric>> = rec
        .self_ns_by_root()
        .iter()
        .map(|t| layer_metrics(t, &counts))
        .collect();
    let mut metrics: Vec<Metric> = passes[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            (name, median(&values), unit)
        })
        .collect();
    let traced_ms = median(&traced_s) * 1e3;
    let untraced_ms = median(&untraced_s) * 1e3;
    metrics.push(("trace.op_ms", traced_ms, "ms"));
    metrics.push(("trace.overhead_ms", traced_ms - untraced_ms, "ms"));
    log.push(format!(
        "traced passes={} {} op: traced {traced_ms:.3} ms, untraced {untraced_ms:.3} ms",
        passes.len(),
        kind.name()
    ));
    log.extend(checks.messages.iter().cloned());
    Ok((
        Report {
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
            log,
        },
        rec,
    ))
}
