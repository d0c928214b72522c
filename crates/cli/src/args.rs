//! Minimal dependency-free argument parsing for `hbnet`.

use hb_telemetry::SloSpec;
use std::fmt;

/// A parsed `hbnet` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `info <m> <n> [--full]`
    Info { m: u32, n: u32, full: bool },
    /// `route <m> <n> <src> <dst>`
    Route {
        m: u32,
        n: u32,
        src: usize,
        dst: usize,
    },
    /// `disjoint <m> <n> <src> <dst>`
    Disjoint {
        m: u32,
        n: u32,
        src: usize,
        dst: usize,
    },
    /// `fault-route <m> <n> <src> <dst> <f1,f2,...>`
    FaultRoute {
        m: u32,
        n: u32,
        src: usize,
        dst: usize,
        faults: Vec<usize>,
    },
    /// `embed <m> <n> (cycle <k> | hamiltonian | tree | mot <p> <q>)`
    Embed { m: u32, n: u32, what: EmbedKind },
    /// `simulate <m> <n> [--rate r] [--cycles c] [--adaptive] [--implicit]
    /// [--telemetry mode] [--faults f1,f2] [--fault-links a-b,c-d]
    /// [--fault-timeline file] [--sample mode] [--trace-out path]
    /// [--threads k] [--shard-stats] [--timeseries C|off] [--profile]
    /// [--slo spec]`
    Simulate {
        m: u32,
        n: u32,
        rate: f64,
        cycles: u64,
        adaptive: bool,
        /// Run on the implicit algebraic topology (no adjacency arrays,
        /// sparse per-channel state) — scales to million-node shapes.
        implicit: bool,
        telemetry: TelemetryMode,
        faults: Vec<usize>,
        fault_links: Vec<(usize, usize)>,
        /// Path to a fault-timeline file (`@<cycle> fault|repair node
        /// <v> | link <u>-<v>` lines): faults and repairs applied at
        /// cycle boundaries mid-run, with incremental route repair.
        /// `--faults`/`--fault-links` form the base plan underneath.
        fault_timeline: Option<String>,
        sample: SampleMode,
        trace_out: Option<String>,
        threads: usize,
        shard_stats: bool,
        /// Windowed time-series cadence in cycles (`None` = off).
        /// Setting it implies at least `--telemetry summary`.
        timeseries: Option<u64>,
        /// Record the deterministic work profile and print it as a
        /// phase tree. Implies at least `--telemetry summary`.
        profile: bool,
        /// SLO gate thresholds, evaluated after the run (exit 1 on any
        /// failure). Implies at least `--telemetry summary`.
        slo: Option<SloSpec>,
    },
    /// `report <m> <n> [--workload uniform|hotspot] [--rate r] [--cycles c]
    /// [--hot-node v] [--hot-fraction f] [--cadence C] [--seed S]
    /// [--faults f1,f2] [--fault-links a-b,c-d] [--threads k]
    /// [--format text|json|csv] [--slo spec]`
    Report {
        m: u32,
        n: u32,
        workload: ReportWorkload,
        rate: f64,
        cycles: u64,
        /// Target node for the hotspot workload.
        hot_node: usize,
        /// Probability a packet targets the hot node.
        hot_fraction: f64,
        /// Time-series window cadence in simulated cycles.
        cadence: u64,
        threads: usize,
        seed: u64,
        faults: Vec<usize>,
        fault_links: Vec<(usize, usize)>,
        format: DumpFormat,
        /// SLO gate thresholds rendered as a pass/fail section (exit 1
        /// on any failure).
        slo: Option<SloSpec>,
    },
    /// `telemetry <m> <n> [--rate r] [--cycles c] [--adaptive] [--format f]`
    Telemetry {
        m: u32,
        n: u32,
        rate: f64,
        cycles: u64,
        adaptive: bool,
        format: DumpFormat,
    },
    /// `bench (--write | --check) <path> [--cycles C] [--seed S]
    /// [--threads K]`
    Bench {
        /// `true` for `--check` (gate against a stored baseline),
        /// `false` for `--write` (collect and store a fresh one).
        check: bool,
        path: String,
        cycles: u64,
        seed: u64,
        /// Worker threads for the sharded engine (results are
        /// byte-identical at every value — a determinism gate).
        threads: usize,
    },
    /// `diff <a.json> <b.json>` — compare two stored benchmark/metric
    /// snapshots with per-metric tolerances (exit 1 on drift).
    Diff { a: String, b: String },
    /// `analyze [--json] [--update-baseline] [--sarif PATH] [--root DIR]`
    Analyze {
        /// Emit findings as JSON-lines instead of human-readable blocks.
        json: bool,
        /// Rewrite `analyze-baseline.txt` to accept the current findings.
        update_baseline: bool,
        /// Also write the full report (accepted + new) as SARIF 2.1.0
        /// to this path, for code-scanning UIs. Empty = off.
        sarif: String,
        /// Workspace root to analyze (default `.`).
        root: String,
    },
    /// `elect <m> <n>`
    Elect { m: u32, n: u32 },
    /// `broadcast <m> <n>`
    Broadcast { m: u32, n: u32 },
    /// `partition <m> <n> <dim>`
    Partition { m: u32, n: u32, dim: u32 },
    /// `sort <n>` — bitonic sort demo on B_n
    Sort { n: u32 },
    /// `help`
    Help,
}

/// Which embedding `hbnet embed` should build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbedKind {
    /// An even cycle of the given length.
    Cycle(usize),
    /// The Hamiltonian cycle.
    Hamiltonian,
    /// The complete binary tree.
    Tree,
    /// Mesh of trees `MT(2^p, 2^q)`.
    MeshOfTrees(u32, u32),
}

/// How much telemetry `hbnet simulate` collects and prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No telemetry: the raw simulator, zero overhead.
    Off,
    /// Counters, latency quantiles, per-link utilization.
    Summary,
    /// Summary plus the bounded event trace.
    Trace,
}

/// Traffic pattern for the `report` subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportWorkload {
    /// Uniformly random destinations.
    Uniform,
    /// Skewed traffic concentrating on one hot node.
    Hotspot,
}

/// Which packets the flight recorder samples (`simulate --sample`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleMode {
    /// Record no packets.
    Off,
    /// Record every packet.
    All,
    /// Record one packet in `N` (`--sample every=N`).
    EveryNth(u64),
    /// Record packets whose route crosses a faulty-adjacent link.
    FaultAdjacent,
}

/// Output format for the `telemetry` dump subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpFormat {
    /// Fixed-width text sections.
    Text,
    /// One JSON object per line.
    Json,
    /// RFC-4180 CSV sections.
    Csv,
}

/// A parse failure with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The usage text shown by `help` and on errors.
pub const USAGE: &str = "\
hbnet — hyper-butterfly network explorer (Shi & Srimani, IPPS 1998)

USAGE:
  hbnet info <m> <n> [--full]          measured comparison row (HB vs HD)
  hbnet route <m> <n> <src> <dst>      optimal route between node indices
  hbnet disjoint <m> <n> <src> <dst>   the m+4 vertex-disjoint paths (Thm 5)
  hbnet fault-route <m> <n> <src> <dst> <f1,f2,..>
                                       route around faulty node indices
  hbnet embed <m> <n> cycle <k>        even cycle of length k (Lemma 2)
  hbnet embed <m> <n> hamiltonian      Hamiltonian cycle
  hbnet embed <m> <n> tree             complete binary tree
  hbnet embed <m> <n> mot <p> <q>      mesh of trees MT(2^p, 2^q) (Thm 4)
  hbnet simulate <m> <n> [--rate R] [--cycles C] [--adaptive] [--implicit]
                 [--telemetry off|summary|trace]
                 [--faults f1,f2,..] [--fault-links a-b,c-d,..]
                 [--fault-timeline FILE]
                 [--sample off|all|every=N|fault-adjacent]
                 [--trace-out FILE] [--threads K] [--shard-stats]
                 [--timeseries C|off] [--profile]
                 [--slo p99=N,delivered=F,queue=N,unroutable=N]
                                       packet simulation, uniform traffic;
                                       summary adds latency quantiles and
                                       per-link utilization, trace adds events;
                                       with faults the flight recorder samples
                                       packet span trees and --trace-out writes
                                       them as Chrome trace-event JSON;
                                       --threads K (at most 256) runs the
                                       deterministic sharded engine (same
                                       results, faster) and --shard-stats
                                       adds per-shard counters;
                                       --timeseries C records windowed
                                       per-cycle series keyed by sim cycle
                                       (cadence C, implies at least
                                       --telemetry summary) and runs the
                                       congestion detector; --profile prints
                                       the deterministic work-attribution
                                       phase tree (byte-identical at every
                                       --threads value); --slo evaluates
                                       service-level gates after the run and
                                       exits 1 when any fails (keys are
                                       optional, in any order); --implicit
                                       computes the topology algebraically
                                       (no adjacency arrays, sparse
                                       per-channel state — scales to
                                       million-node shapes with identical
                                       results) and prints the peak live
                                       channel-record count;
                                       --fault-timeline FILE replays
                                       `@<cycle> fault|repair node V |
                                       link U-V` events at cycle
                                       boundaries mid-run with
                                       incremental (delta-spliced) route
                                       repair, printing the sim.repair.*
                                       counters; any --faults /
                                       --fault-links form the base plan
                                       underneath the timeline
  hbnet report <m> <n> [--workload uniform|hotspot] [--rate R] [--cycles C]
               [--hot-node V] [--hot-fraction F] [--cadence C] [--seed S]
               [--faults f1,f2,..] [--fault-links a-b,c-d,..] [--threads K]
               [--format text|json|csv]
               [--slo p99=N,delivered=F,queue=N,unroutable=N]
                                       deterministic run report: topology,
                                       fault plan, phase timeline, top
                                       congested links with sparklines, and
                                       congestion anomalies — byte-identical
                                       at every --threads value; --slo adds a
                                       pass/fail gate section and exits 1
                                       when any gate fails
  hbnet bench --write <FILE> [--cycles C] [--seed S] [--threads K]
                                       collect the seeded benchmark baseline:
                                       experiment metrics plus exact engine
                                       counters
  hbnet bench --check <FILE> [--threads K]
                                       re-run and gate against a stored
                                       baseline (exit 1 on metric drift);
                                       --threads K reruns through the sharded
                                       engine — an end-to-end determinism gate
  hbnet telemetry <m> <n> [--rate R] [--cycles C] [--adaptive]
                  [--format text|json|csv]
                                       run a traced simulation and dump the
                                       full telemetry snapshot
  hbnet diff <a.json> <b.json>         compare two stored snapshot files with
                                       per-metric relative tolerances and
                                       print a drift table (exit 1 on drift
                                       beyond tolerance, 0 when equivalent)
  hbnet analyze [--json] [--update-baseline] [--sarif PATH] [--root DIR]
                                       run the determinism & safety linter
                                       (D1 hash-order, D2 wall-clock, D3 rng,
                                       S1 unsafe-forbid, P1 panic-policy) over
                                       the workspace; exits 1 on findings not
                                       accepted by analyze-baseline.txt;
                                       --update-baseline ratchets the file
  hbnet elect <m> <n>                  distributed leader election
  hbnet broadcast <m> <n>              one-to-all broadcast schedule stats
  hbnet partition <m> <n> <dim>        split into two HB(m-1, n) halves
  hbnet sort <n>                       bitonic-sort 2^n keys on B_n (emulation)
  hbnet help                           this text
";

fn need<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, ParseError> {
    args.get(i)
        .ok_or_else(|| ParseError(format!("missing <{what}>")))?
        .parse()
        .map_err(|_| ParseError(format!("invalid <{what}>: {}", args[i])))
}

/// Parses a `--rate` value: a per-node injection probability, so it
/// must lie in `0..=1` (NaN and the infinities fail the range test).
fn need_rate(args: &[String], i: usize) -> Result<f64, ParseError> {
    let rate: f64 = need(args, i, "rate")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(ParseError(format!("--rate must be in 0..=1, got {rate}")));
    }
    Ok(rate)
}

/// The most worker threads `--threads` accepts. Results are identical
/// at every thread count, so the cap only bounds the scoped OS threads a
/// sharded run spawns (one per shard, up to one per node).
const MAX_THREADS: usize = 256;

/// Parses a `--threads` value: in `1..=MAX_THREADS`.
fn need_threads(args: &[String], i: usize) -> Result<usize, ParseError> {
    let threads: usize = need(args, i, "threads")?;
    if !(1..=MAX_THREADS).contains(&threads) {
        return Err(ParseError(format!(
            "--threads must be in 1..={MAX_THREADS}, got {threads}"
        )));
    }
    Ok(threads)
}

fn parse_index_list(raw: &str, what: &str) -> Result<Vec<usize>, ParseError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| ParseError(format!("invalid {what}: {s}")))
        })
        .collect()
}

fn parse_link_list(raw: &str) -> Result<Vec<(usize, usize)>, ParseError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            let bad = || ParseError(format!("invalid link {s} (expected a-b)"));
            let (a, b) = s.split_once('-').ok_or_else(bad)?;
            Ok((
                a.parse::<usize>().map_err(|_| bad())?,
                b.parse::<usize>().map_err(|_| bad())?,
            ))
        })
        .collect()
}

fn parse_sample(raw: Option<&str>) -> Result<SampleMode, ParseError> {
    match raw {
        Some("off") => Ok(SampleMode::Off),
        Some("all") => Ok(SampleMode::All),
        Some("fault-adjacent") => Ok(SampleMode::FaultAdjacent),
        Some(s) if s.starts_with("every=") => s["every=".len()..]
            .parse::<u64>()
            .map(SampleMode::EveryNth)
            .map_err(|_| ParseError(format!("invalid --sample {s} (every=N needs a number)"))),
        other => Err(ParseError(format!(
            "invalid --sample {:?} (off | all | every=N | fault-adjacent)",
            other.unwrap_or("<none>")
        ))),
    }
}

fn parse_slo(raw: Option<&str>) -> Result<SloSpec, ParseError> {
    let raw = raw.ok_or_else(|| ParseError("missing <slo>".into()))?;
    let spec = SloSpec::parse(raw).map_err(|e| ParseError(format!("invalid --slo: {e}")))?;
    if spec.is_empty() {
        return Err(ParseError(
            "empty --slo (give at least one of p99=, delivered=, queue=, unroutable=)".into(),
        ));
    }
    Ok(spec)
}

fn parse_timeseries(raw: Option<&str>) -> Result<Option<u64>, ParseError> {
    match raw {
        Some("off") => Ok(None),
        Some(s) => match s.parse::<u64>() {
            Ok(c) if c > 0 => Ok(Some(c)),
            _ => Err(ParseError(format!(
                "invalid --timeseries {s} (a cadence >= 1, or `off`)"
            ))),
        },
        None => Err(ParseError("missing <timeseries>".into())),
    }
}

/// Parses argv (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info {
            m: need(args, 1, "m")?,
            n: need(args, 2, "n")?,
            full: args.iter().any(|a| a == "--full"),
        }),
        "route" => Ok(Command::Route {
            m: need(args, 1, "m")?,
            n: need(args, 2, "n")?,
            src: need(args, 3, "src")?,
            dst: need(args, 4, "dst")?,
        }),
        "disjoint" => Ok(Command::Disjoint {
            m: need(args, 1, "m")?,
            n: need(args, 2, "n")?,
            src: need(args, 3, "src")?,
            dst: need(args, 4, "dst")?,
        }),
        "fault-route" => {
            let faults_raw: String = need(args, 5, "faults")?;
            let faults = faults_raw
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("invalid fault index: {s}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Command::FaultRoute {
                m: need(args, 1, "m")?,
                n: need(args, 2, "n")?,
                src: need(args, 3, "src")?,
                dst: need(args, 4, "dst")?,
                faults,
            })
        }
        "embed" => {
            let m = need(args, 1, "m")?;
            let n = need(args, 2, "n")?;
            let what = match args.get(3).map(String::as_str) {
                Some("cycle") => EmbedKind::Cycle(need(args, 4, "k")?),
                Some("hamiltonian") => EmbedKind::Hamiltonian,
                Some("tree") => EmbedKind::Tree,
                Some("mot") => EmbedKind::MeshOfTrees(need(args, 4, "p")?, need(args, 5, "q")?),
                other => {
                    return Err(ParseError(format!(
                        "unknown embedding {:?} (cycle | hamiltonian | tree | mot)",
                        other.unwrap_or("<none>")
                    )))
                }
            };
            Ok(Command::Embed { m, n, what })
        }
        "simulate" => {
            let m = need(args, 1, "m")?;
            let n = need(args, 2, "n")?;
            let mut rate = 0.1;
            let mut cycles = 200;
            let mut adaptive = false;
            let mut telemetry = TelemetryMode::Off;
            let mut faults = Vec::new();
            let mut implicit = false;
            let mut fault_links = Vec::new();
            let mut fault_timeline = None;
            let mut sample = SampleMode::Off;
            let mut trace_out = None;
            let mut threads = 1usize;
            let mut shard_stats = false;
            let mut timeseries = None;
            let mut profile = false;
            let mut slo = None;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--rate" => {
                        rate = need_rate(args, i + 1)?;
                        i += 2;
                    }
                    "--cycles" => {
                        cycles = need(args, i + 1, "cycles")?;
                        i += 2;
                    }
                    "--adaptive" => {
                        adaptive = true;
                        i += 1;
                    }
                    "--implicit" => {
                        implicit = true;
                        i += 1;
                    }
                    "--telemetry" => {
                        telemetry = match args.get(i + 1).map(String::as_str) {
                            Some("off") => TelemetryMode::Off,
                            Some("summary") => TelemetryMode::Summary,
                            Some("trace") => TelemetryMode::Trace,
                            other => {
                                return Err(ParseError(format!(
                                    "invalid --telemetry {:?} (off | summary | trace)",
                                    other.unwrap_or("<none>")
                                )))
                            }
                        };
                        i += 2;
                    }
                    "--faults" => {
                        let raw: String = need(args, i + 1, "faults")?;
                        faults = parse_index_list(&raw, "fault index")?;
                        i += 2;
                    }
                    "--fault-links" => {
                        let raw: String = need(args, i + 1, "fault-links")?;
                        fault_links = parse_link_list(&raw)?;
                        i += 2;
                    }
                    "--fault-timeline" => {
                        fault_timeline = Some(need::<String>(args, i + 1, "fault-timeline")?);
                        i += 2;
                    }
                    "--sample" => {
                        sample = parse_sample(args.get(i + 1).map(String::as_str))?;
                        i += 2;
                    }
                    "--trace-out" => {
                        trace_out = Some(need::<String>(args, i + 1, "trace-out")?);
                        i += 2;
                    }
                    "--threads" => {
                        threads = need_threads(args, i + 1)?;
                        i += 2;
                    }
                    "--shard-stats" => {
                        shard_stats = true;
                        i += 1;
                    }
                    "--timeseries" => {
                        timeseries = parse_timeseries(args.get(i + 1).map(String::as_str))?;
                        i += 2;
                    }
                    "--profile" => {
                        profile = true;
                        i += 1;
                    }
                    "--slo" => {
                        slo = Some(parse_slo(args.get(i + 1).map(String::as_str))?);
                        i += 2;
                    }
                    other => return Err(ParseError(format!("unknown flag {other}"))),
                }
            }
            if adaptive && threads > 1 {
                return Err(ParseError(
                    "--adaptive is a serial-only router (no --threads)".into(),
                ));
            }
            // The series, the work profile, and the SLO snapshot all
            // land in telemetry, so they need a handle: quietly raise
            // `off` to `summary`.
            if (timeseries.is_some() || profile || slo.is_some()) && telemetry == TelemetryMode::Off
            {
                telemetry = TelemetryMode::Summary;
            }
            if adaptive
                && (!faults.is_empty() || !fault_links.is_empty() || sample != SampleMode::Off)
            {
                return Err(ParseError(
                    "--adaptive cannot be combined with faults or sampling \
                     (the flight recorder drives the oblivious router)"
                        .into(),
                ));
            }
            if shard_stats && (telemetry == TelemetryMode::Off || threads <= 1) {
                return Err(ParseError(
                    "--shard-stats needs --threads > 1 and --telemetry summary|trace \
                     (the counters land in telemetry)"
                        .into(),
                ));
            }
            if trace_out.is_some() && telemetry != TelemetryMode::Trace {
                return Err(ParseError("--trace-out needs --telemetry trace".into()));
            }
            Ok(Command::Simulate {
                m,
                n,
                rate,
                cycles,
                adaptive,
                implicit,
                telemetry,
                faults,
                fault_links,
                fault_timeline,
                sample,
                trace_out,
                threads,
                shard_stats,
                timeseries,
                profile,
                slo,
            })
        }
        "report" => {
            let m = need(args, 1, "m")?;
            let n = need(args, 2, "n")?;
            let mut workload = ReportWorkload::Uniform;
            let mut rate = 0.1;
            let mut cycles = 200;
            let mut hot_node = 0usize;
            let mut hot_fraction = 0.5;
            let mut cadence = 5u64;
            let mut threads = 1usize;
            let mut seed = 42u64;
            let mut faults = Vec::new();
            let mut fault_links = Vec::new();
            let mut format = DumpFormat::Text;
            let mut slo = None;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--workload" => {
                        workload = match args.get(i + 1).map(String::as_str) {
                            Some("uniform") => ReportWorkload::Uniform,
                            Some("hotspot") => ReportWorkload::Hotspot,
                            other => {
                                return Err(ParseError(format!(
                                    "invalid --workload {:?} (uniform | hotspot)",
                                    other.unwrap_or("<none>")
                                )))
                            }
                        };
                        i += 2;
                    }
                    "--rate" => {
                        rate = need_rate(args, i + 1)?;
                        i += 2;
                    }
                    "--cycles" => {
                        cycles = need(args, i + 1, "cycles")?;
                        i += 2;
                    }
                    "--hot-node" => {
                        hot_node = need(args, i + 1, "hot-node")?;
                        i += 2;
                    }
                    "--hot-fraction" => {
                        hot_fraction = need(args, i + 1, "hot-fraction")?;
                        i += 2;
                    }
                    "--cadence" => {
                        cadence = need(args, i + 1, "cadence")?;
                        if cadence == 0 {
                            return Err(ParseError("--cadence must be at least 1".into()));
                        }
                        i += 2;
                    }
                    "--seed" => {
                        seed = need(args, i + 1, "seed")?;
                        i += 2;
                    }
                    "--faults" => {
                        let raw: String = need(args, i + 1, "faults")?;
                        faults = parse_index_list(&raw, "fault index")?;
                        i += 2;
                    }
                    "--fault-links" => {
                        let raw: String = need(args, i + 1, "fault-links")?;
                        fault_links = parse_link_list(&raw)?;
                        i += 2;
                    }
                    "--threads" => {
                        threads = need_threads(args, i + 1)?;
                        i += 2;
                    }
                    "--format" => {
                        format = match args.get(i + 1).map(String::as_str) {
                            Some("text") => DumpFormat::Text,
                            Some("json") => DumpFormat::Json,
                            Some("csv") => DumpFormat::Csv,
                            other => {
                                return Err(ParseError(format!(
                                    "invalid --format {:?} (text | json | csv)",
                                    other.unwrap_or("<none>")
                                )))
                            }
                        };
                        i += 2;
                    }
                    "--slo" => {
                        slo = Some(parse_slo(args.get(i + 1).map(String::as_str))?);
                        i += 2;
                    }
                    other => return Err(ParseError(format!("unknown flag {other}"))),
                }
            }
            if !(0.0..=1.0).contains(&hot_fraction) {
                return Err(ParseError("--hot-fraction must be in 0..=1".into()));
            }
            Ok(Command::Report {
                m,
                n,
                workload,
                rate,
                cycles,
                hot_node,
                hot_fraction,
                cadence,
                threads,
                seed,
                faults,
                fault_links,
                format,
                slo,
            })
        }
        "bench" => {
            let mut check = None;
            let mut path = None;
            let mut cycles = 40;
            let mut seed = 42;
            let mut threads = 1usize;
            let mut explicit_run = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--write" => {
                        check = Some(false);
                        path = Some(need::<String>(args, i + 1, "path")?);
                        i += 2;
                    }
                    "--check" => {
                        check = Some(true);
                        path = Some(need::<String>(args, i + 1, "path")?);
                        i += 2;
                    }
                    "--cycles" => {
                        cycles = need(args, i + 1, "cycles")?;
                        explicit_run = true;
                        i += 2;
                    }
                    "--seed" => {
                        seed = need(args, i + 1, "seed")?;
                        explicit_run = true;
                        i += 2;
                    }
                    "--threads" => {
                        threads = need_threads(args, i + 1)?;
                        i += 2;
                    }
                    other => return Err(ParseError(format!("unknown flag {other}"))),
                }
            }
            let check = check.ok_or_else(|| ParseError("bench needs --write or --check".into()))?;
            if check && explicit_run {
                return Err(ParseError(
                    "--cycles/--seed come from the baseline file with --check".into(),
                ));
            }
            Ok(Command::Bench {
                check,
                path: path.expect("path set whenever mode is set"),
                cycles,
                seed,
                threads,
            })
        }
        "telemetry" => {
            let m = need(args, 1, "m")?;
            let n = need(args, 2, "n")?;
            let mut rate = 0.1;
            let mut cycles = 200;
            let mut adaptive = false;
            let mut format = DumpFormat::Text;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--rate" => {
                        rate = need_rate(args, i + 1)?;
                        i += 2;
                    }
                    "--cycles" => {
                        cycles = need(args, i + 1, "cycles")?;
                        i += 2;
                    }
                    "--adaptive" => {
                        adaptive = true;
                        i += 1;
                    }
                    "--format" => {
                        format = match args.get(i + 1).map(String::as_str) {
                            Some("text") => DumpFormat::Text,
                            Some("json") => DumpFormat::Json,
                            Some("csv") => DumpFormat::Csv,
                            other => {
                                return Err(ParseError(format!(
                                    "invalid --format {:?} (text | json | csv)",
                                    other.unwrap_or("<none>")
                                )))
                            }
                        };
                        i += 2;
                    }
                    other => return Err(ParseError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Telemetry {
                m,
                n,
                rate,
                cycles,
                adaptive,
                format,
            })
        }
        "diff" => Ok(Command::Diff {
            a: need(args, 1, "a.json")?,
            b: need(args, 2, "b.json")?,
        }),
        "analyze" => {
            let mut json = false;
            let mut update_baseline = false;
            let mut sarif = String::new();
            let mut root = ".".to_string();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    "--update-baseline" => {
                        update_baseline = true;
                        i += 1;
                    }
                    "--sarif" => {
                        sarif = need(args, i + 1, "sarif path")?;
                        i += 2;
                    }
                    "--root" => {
                        root = need(args, i + 1, "root")?;
                        i += 2;
                    }
                    other => return Err(ParseError(format!("unknown flag {other}"))),
                }
            }
            if json && update_baseline {
                return Err(ParseError(
                    "--json reports findings; --update-baseline accepts them (pick one)".into(),
                ));
            }
            if update_baseline && !sarif.is_empty() {
                return Err(ParseError(
                    "--sarif reports findings; --update-baseline accepts them (pick one)".into(),
                ));
            }
            Ok(Command::Analyze {
                json,
                update_baseline,
                sarif,
                root,
            })
        }
        "elect" => Ok(Command::Elect {
            m: need(args, 1, "m")?,
            n: need(args, 2, "n")?,
        }),
        "broadcast" => Ok(Command::Broadcast {
            m: need(args, 1, "m")?,
            n: need(args, 2, "n")?,
        }),
        "sort" => Ok(Command::Sort {
            n: need(args, 1, "n")?,
        }),
        "partition" => Ok(Command::Partition {
            m: need(args, 1, "m")?,
            n: need(args, 2, "n")?,
            dim: need(args, 3, "dim")?,
        }),
        other => Err(ParseError(format!(
            "unknown command {other} (try `hbnet help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_info() {
        assert_eq!(
            parse(&argv("info 2 4 --full")).unwrap(),
            Command::Info {
                m: 2,
                n: 4,
                full: true
            }
        );
        assert_eq!(
            parse(&argv("info 3 5")).unwrap(),
            Command::Info {
                m: 3,
                n: 5,
                full: false
            }
        );
    }

    #[test]
    fn parses_route_and_disjoint() {
        assert_eq!(
            parse(&argv("route 2 3 0 95")).unwrap(),
            Command::Route {
                m: 2,
                n: 3,
                src: 0,
                dst: 95
            }
        );
        assert_eq!(
            parse(&argv("disjoint 2 3 1 17")).unwrap(),
            Command::Disjoint {
                m: 2,
                n: 3,
                src: 1,
                dst: 17
            }
        );
    }

    #[test]
    fn parses_fault_route_with_fault_list() {
        assert_eq!(
            parse(&argv("fault-route 2 3 0 95 4,9,23")).unwrap(),
            Command::FaultRoute {
                m: 2,
                n: 3,
                src: 0,
                dst: 95,
                faults: vec![4, 9, 23]
            }
        );
        assert!(parse(&argv("fault-route 2 3 0 95 4,x")).is_err());
    }

    #[test]
    fn parses_embeddings() {
        assert_eq!(
            parse(&argv("embed 2 3 cycle 10")).unwrap(),
            Command::Embed {
                m: 2,
                n: 3,
                what: EmbedKind::Cycle(10)
            }
        );
        assert_eq!(
            parse(&argv("embed 2 3 hamiltonian")).unwrap(),
            Command::Embed {
                m: 2,
                n: 3,
                what: EmbedKind::Hamiltonian
            }
        );
        assert_eq!(
            parse(&argv("embed 3 4 mot 1 2")).unwrap(),
            Command::Embed {
                m: 3,
                n: 4,
                what: EmbedKind::MeshOfTrees(1, 2)
            }
        );
        assert!(parse(&argv("embed 2 3 torus")).is_err());
    }

    /// A `Simulate` value with every post-`m n` field defaulted, so
    /// tests only spell out what their flag changes.
    struct Sim {
        rate: f64,
        cycles: u64,
        adaptive: bool,
        implicit: bool,
        telemetry: TelemetryMode,
        faults: Vec<usize>,
        fault_links: Vec<(usize, usize)>,
        fault_timeline: Option<String>,
        sample: SampleMode,
        trace_out: Option<String>,
        threads: usize,
        shard_stats: bool,
        timeseries: Option<u64>,
        profile: bool,
        slo: Option<SloSpec>,
    }

    impl Default for Sim {
        fn default() -> Self {
            Self {
                rate: 0.1,
                cycles: 200,
                adaptive: false,
                implicit: false,
                telemetry: TelemetryMode::Off,
                faults: vec![],
                fault_links: vec![],
                fault_timeline: None,
                sample: SampleMode::Off,
                trace_out: None,
                threads: 1,
                shard_stats: false,
                timeseries: None,
                profile: false,
                slo: None,
            }
        }
    }

    fn simulate(m: u32, n: u32, s: Sim) -> Command {
        Command::Simulate {
            m,
            n,
            rate: s.rate,
            cycles: s.cycles,
            adaptive: s.adaptive,
            implicit: s.implicit,
            telemetry: s.telemetry,
            faults: s.faults,
            fault_links: s.fault_links,
            fault_timeline: s.fault_timeline,
            sample: s.sample,
            trace_out: s.trace_out,
            threads: s.threads,
            shard_stats: s.shard_stats,
            timeseries: s.timeseries,
            profile: s.profile,
            slo: s.slo,
        }
    }

    #[test]
    fn parses_simulate_flags() {
        assert_eq!(
            parse(&argv("simulate 2 4 --rate 0.25 --cycles 100 --adaptive")).unwrap(),
            simulate(
                2,
                4,
                Sim {
                    rate: 0.25,
                    cycles: 100,
                    adaptive: true,
                    ..Sim::default()
                }
            )
        );
        assert_eq!(
            parse(&argv("simulate 2 4")).unwrap(),
            simulate(2, 4, Sim::default())
        );
        assert!(parse(&argv("simulate 2 4 --bogus")).is_err());
    }

    #[test]
    fn parses_simulate_telemetry_modes() {
        for (word, mode) in [
            ("off", TelemetryMode::Off),
            ("summary", TelemetryMode::Summary),
            ("trace", TelemetryMode::Trace),
        ] {
            assert_eq!(
                parse(&argv(&format!("simulate 2 3 --telemetry {word}"))).unwrap(),
                simulate(
                    2,
                    3,
                    Sim {
                        telemetry: mode,
                        ..Sim::default()
                    }
                )
            );
        }
        assert!(parse(&argv("simulate 2 3 --telemetry loud")).is_err());
        assert!(parse(&argv("simulate 2 3 --telemetry")).is_err());
    }

    #[test]
    fn parses_simulate_fault_and_sampling_flags() {
        assert_eq!(
            parse(&argv(
                "simulate 2 3 --telemetry trace --faults 3,9 --fault-links 0-1,4-12 \
                 --sample fault-adjacent --trace-out flight.json"
            ))
            .unwrap(),
            simulate(
                2,
                3,
                Sim {
                    telemetry: TelemetryMode::Trace,
                    faults: vec![3, 9],
                    fault_links: vec![(0, 1), (4, 12)],
                    sample: SampleMode::FaultAdjacent,
                    trace_out: Some("flight.json".into()),
                    ..Sim::default()
                }
            )
        );
        for (word, mode) in [
            ("off", SampleMode::Off),
            ("all", SampleMode::All),
            ("every=8", SampleMode::EveryNth(8)),
        ] {
            assert_eq!(
                parse(&argv(&format!("simulate 2 3 --sample {word}"))).unwrap(),
                simulate(
                    2,
                    3,
                    Sim {
                        sample: mode,
                        ..Sim::default()
                    }
                )
            );
        }
        assert!(parse(&argv("simulate 2 3 --sample sometimes")).is_err());
        assert!(parse(&argv("simulate 2 3 --sample every=x")).is_err());
        assert!(parse(&argv("simulate 2 3 --faults 1,x")).is_err());
        assert!(parse(&argv("simulate 2 3 --fault-links 1+2")).is_err());
    }

    #[test]
    fn parses_bench_modes() {
        assert_eq!(
            parse(&argv("bench --write out.json --cycles 30 --seed 7")).unwrap(),
            Command::Bench {
                check: false,
                path: "out.json".into(),
                cycles: 30,
                seed: 7,
                threads: 1,
            }
        );
        assert_eq!(
            parse(&argv("bench --check BENCH_baseline.json")).unwrap(),
            Command::Bench {
                check: true,
                path: "BENCH_baseline.json".into(),
                cycles: 40,
                seed: 42,
                threads: 1,
            }
        );
        assert!(parse(&argv("bench")).is_err());
        // --check takes cycles/seed from the stored file, not flags.
        assert!(parse(&argv("bench --check b.json --cycles 9")).is_err());
        assert!(parse(&argv("bench --write")).is_err());
    }

    #[test]
    fn parses_bench_threads_and_rejects_perf() {
        assert_eq!(
            parse(&argv("bench --check b.json --threads 4")).unwrap(),
            Command::Bench {
                check: true,
                path: "b.json".into(),
                cycles: 40,
                seed: 42,
                threads: 4,
            }
        );
        assert!(parse(&argv("bench --check b.json --threads 0")).is_err());
        assert!(parse(&argv("bench --check b.json --threads 257")).is_err());
        assert_eq!(
            parse(&argv("bench --check b.json --threads 256")).unwrap(),
            Command::Bench {
                check: true,
                path: "b.json".into(),
                cycles: 40,
                seed: 42,
                threads: 256,
            }
        );
        // The perf counters live in the one baseline; the flag is gone.
        assert!(parse(&argv("bench --perf --check b.json")).is_err());
    }

    #[test]
    fn parses_simulate_fault_timeline_flag() {
        assert_eq!(
            parse(&argv(
                "simulate 2 3 --fault-timeline examples/fault-timeline.txt --faults 3"
            ))
            .unwrap(),
            simulate(
                2,
                3,
                Sim {
                    fault_timeline: Some("examples/fault-timeline.txt".into()),
                    faults: vec![3],
                    ..Sim::default()
                }
            )
        );
        assert!(parse(&argv("simulate 2 3 --fault-timeline")).is_err());
        // Timelines run on graph-free topologies too.
        assert_eq!(
            parse(&argv("simulate 2 3 --fault-timeline f.txt --implicit")).unwrap(),
            simulate(
                2,
                3,
                Sim {
                    fault_timeline: Some("f.txt".into()),
                    implicit: true,
                    ..Sim::default()
                }
            )
        );
    }

    #[test]
    fn parses_simulate_threads_flags() {
        assert_eq!(
            parse(&argv(
                "simulate 2 4 --threads 4 --telemetry summary --shard-stats"
            ))
            .unwrap(),
            simulate(
                2,
                4,
                Sim {
                    threads: 4,
                    telemetry: TelemetryMode::Summary,
                    shard_stats: true,
                    ..Sim::default()
                }
            )
        );
        assert!(parse(&argv("simulate 2 4 --threads 0")).is_err());
        assert!(parse(&argv("simulate 2 4 --threads 257")).is_err());
        assert_eq!(
            parse(&argv("simulate 2 4 --threads 256")).unwrap(),
            simulate(
                2,
                4,
                Sim {
                    threads: 256,
                    ..Sim::default()
                }
            )
        );
        // The adaptive router is serial-only.
        assert!(parse(&argv("simulate 2 4 --adaptive --threads 2")).is_err());
    }

    /// Flag combinations that cannot run are usage errors, raised before
    /// anything runs.
    #[test]
    fn rejects_simulate_flag_combinations() {
        let err = |line: &str| parse(&argv(line)).unwrap_err().to_string();
        for flags in [
            "--faults 3",
            "--fault-links 0-1",
            "--sample all",
            "--sample every=4",
        ] {
            assert!(
                err(&format!("simulate 2 3 --adaptive {flags}")).starts_with("--adaptive cannot"),
                "{flags}"
            );
        }
        assert!(parse(&argv("simulate 2 3 --adaptive --sample off")).is_ok());
        for flags in [
            "--shard-stats",
            "--threads 4 --shard-stats",
            "--telemetry summary --shard-stats",
        ] {
            assert!(
                err(&format!("simulate 2 3 {flags}")).starts_with("--shard-stats needs"),
                "{flags}"
            );
        }
        // `--profile` raises the telemetry the counters land in.
        assert!(parse(&argv("simulate 2 3 --threads 2 --profile --shard-stats")).is_ok());
        for flags in ["", "--telemetry summary", "--timeseries 5"] {
            assert_eq!(
                err(&format!("simulate 2 3 {flags} --trace-out t.json")),
                "--trace-out needs --telemetry trace",
                "{flags}"
            );
        }
    }

    #[test]
    fn parses_simulate_timeseries_flag() {
        // A cadence implies at least summary telemetry.
        assert_eq!(
            parse(&argv("simulate 2 4 --timeseries 5")).unwrap(),
            simulate(
                2,
                4,
                Sim {
                    timeseries: Some(5),
                    telemetry: TelemetryMode::Summary,
                    ..Sim::default()
                }
            )
        );
        // An explicit richer mode is kept.
        assert_eq!(
            parse(&argv("simulate 2 4 --telemetry trace --timeseries 2")).unwrap(),
            simulate(
                2,
                4,
                Sim {
                    timeseries: Some(2),
                    telemetry: TelemetryMode::Trace,
                    ..Sim::default()
                }
            )
        );
        // `off` is the spelled-out default: no series, telemetry as asked.
        assert_eq!(
            parse(&argv("simulate 2 4 --timeseries off")).unwrap(),
            simulate(2, 4, Sim::default())
        );
        assert!(parse(&argv("simulate 2 4 --timeseries 0")).is_err());
        assert!(parse(&argv("simulate 2 4 --timeseries never")).is_err());
        assert!(parse(&argv("simulate 2 4 --timeseries")).is_err());
    }

    #[test]
    fn parses_simulate_profile_flag() {
        // --profile implies at least summary telemetry.
        assert_eq!(
            parse(&argv("simulate 2 4 --profile")).unwrap(),
            simulate(
                2,
                4,
                Sim {
                    profile: true,
                    telemetry: TelemetryMode::Summary,
                    ..Sim::default()
                }
            )
        );
        // An explicit richer mode is kept.
        assert_eq!(
            parse(&argv("simulate 2 4 --telemetry trace --profile")).unwrap(),
            simulate(
                2,
                4,
                Sim {
                    profile: true,
                    telemetry: TelemetryMode::Trace,
                    ..Sim::default()
                }
            )
        );
    }

    #[test]
    fn parses_simulate_slo_flag() {
        let spec = SloSpec::parse("p99=40,delivered=0.95").unwrap();
        assert_eq!(
            parse(&argv("simulate 2 4 --slo p99=40,delivered=0.95")).unwrap(),
            simulate(
                2,
                4,
                Sim {
                    slo: Some(spec),
                    telemetry: TelemetryMode::Summary,
                    ..Sim::default()
                }
            )
        );
        assert!(parse(&argv("simulate 2 4 --slo")).is_err());
        assert!(parse(&argv("simulate 2 4 --slo p99=fast")).is_err());
        assert!(parse(&argv("simulate 2 4 --slo latency=9")).is_err());
    }

    #[test]
    fn parses_diff() {
        assert_eq!(
            parse(&argv("diff a.json b.json")).unwrap(),
            Command::Diff {
                a: "a.json".into(),
                b: "b.json".into(),
            }
        );
        assert!(parse(&argv("diff a.json")).is_err());
        assert!(parse(&argv("diff")).is_err());
    }

    /// A `Report` value with every post-`m n` field defaulted, so tests
    /// only spell out what their flag changes.
    struct Rep {
        workload: ReportWorkload,
        cycles: u64,
        threads: usize,
    }

    impl Default for Rep {
        fn default() -> Self {
            Self {
                workload: ReportWorkload::Uniform,
                cycles: 200,
                threads: 1,
            }
        }
    }

    fn report(m: u32, n: u32, r: Rep) -> Command {
        Command::Report {
            m,
            n,
            workload: r.workload,
            rate: 0.1,
            cycles: r.cycles,
            hot_node: 0,
            hot_fraction: 0.5,
            cadence: 5,
            threads: r.threads,
            seed: 42,
            faults: vec![],
            fault_links: vec![],
            format: DumpFormat::Text,
            slo: None,
        }
    }

    #[test]
    fn parses_report_defaults_and_flags() {
        assert_eq!(
            parse(&argv("report 2 3")).unwrap(),
            report(2, 3, Rep::default())
        );
        assert_eq!(
            parse(&argv("report 2 3 --workload hotspot --cycles 60")).unwrap(),
            report(
                2,
                3,
                Rep {
                    workload: ReportWorkload::Hotspot,
                    cycles: 60,
                    ..Rep::default()
                }
            )
        );
        assert!(parse(&argv("report 2")).is_err());
        assert!(parse(&argv("report 2 3 --workload bursty")).is_err());
        assert!(parse(&argv("report 2 3 --cadence 0")).is_err());
        assert!(parse(&argv("report 2 3 --threads 0")).is_err());
        assert!(parse(&argv("report 2 3 --threads 257")).is_err());
        assert_eq!(
            parse(&argv("report 2 3 --threads 256")).unwrap(),
            report(
                2,
                3,
                Rep {
                    threads: 256,
                    ..Rep::default()
                }
            )
        );
        assert!(parse(&argv("report 2 3 --hot-fraction 1.5")).is_err());
        assert!(parse(&argv("report 2 3 --format yaml")).is_err());
    }

    #[test]
    fn rate_must_be_a_probability() {
        for cmd in ["simulate 2 3", "report 2 3", "telemetry 2 3"] {
            for bad in ["2", "1.5", "-1", "-0.1", "nan", "inf", "-inf"] {
                let line = format!("{cmd} --rate {bad}");
                assert!(parse(&argv(&line)).is_err(), "{line} must be rejected");
            }
            for good in ["0", "0.05", "1"] {
                let line = format!("{cmd} --rate {good}");
                assert!(parse(&argv(&line)).is_ok(), "{line} must parse");
            }
        }
    }

    #[test]
    fn parses_report_slo_flag() {
        match parse(&argv("report 2 3 --slo queue=8,unroutable=0")).unwrap() {
            Command::Report {
                slo: Some(spec), ..
            } => {
                assert_eq!(spec, SloSpec::parse("queue=8,unroutable=0").unwrap());
            }
            other => panic!("expected report with slo, got {other:?}"),
        }
        assert!(parse(&argv("report 2 3 --slo")).is_err());
        assert!(parse(&argv("report 2 3 --slo queue=")).is_err());
    }

    #[test]
    fn parses_report_fault_plan_and_format() {
        match parse(&argv(
            "report 2 3 --workload hotspot --hot-node 7 --hot-fraction 0.8 \
             --cadence 4 --seed 9 --faults 1,2 --fault-links 0-1 --threads 4 \
             --format json",
        ))
        .unwrap()
        {
            Command::Report {
                workload,
                hot_node,
                hot_fraction,
                cadence,
                seed,
                faults,
                fault_links,
                threads,
                format,
                ..
            } => {
                assert_eq!(workload, ReportWorkload::Hotspot);
                assert_eq!(hot_node, 7);
                assert_eq!(hot_fraction, 0.8);
                assert_eq!(cadence, 4);
                assert_eq!(seed, 9);
                assert_eq!(faults, vec![1, 2]);
                assert_eq!(fault_links, vec![(0, 1)]);
                assert_eq!(threads, 4);
                assert_eq!(format, DumpFormat::Json);
            }
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn parses_telemetry_dump() {
        assert_eq!(
            parse(&argv("telemetry 2 3")).unwrap(),
            Command::Telemetry {
                m: 2,
                n: 3,
                rate: 0.1,
                cycles: 200,
                adaptive: false,
                format: DumpFormat::Text,
            }
        );
        assert_eq!(
            parse(&argv("telemetry 2 3 --format json --cycles 50 --adaptive")).unwrap(),
            Command::Telemetry {
                m: 2,
                n: 3,
                rate: 0.1,
                cycles: 50,
                adaptive: true,
                format: DumpFormat::Json,
            }
        );
        assert!(parse(&argv("telemetry 2 3 --format yaml")).is_err());
        assert!(parse(&argv("telemetry 2")).is_err());
    }

    #[test]
    fn parses_analyze() {
        assert_eq!(
            parse(&argv("analyze")).unwrap(),
            Command::Analyze {
                json: false,
                update_baseline: false,
                sarif: String::new(),
                root: ".".into(),
            }
        );
        assert_eq!(
            parse(&argv(
                "analyze --json --root crates/analyze/tests/fixtures/violations"
            ))
            .unwrap(),
            Command::Analyze {
                json: true,
                update_baseline: false,
                sarif: String::new(),
                root: "crates/analyze/tests/fixtures/violations".into(),
            }
        );
        assert_eq!(
            parse(&argv("analyze --update-baseline")).unwrap(),
            Command::Analyze {
                json: false,
                update_baseline: true,
                sarif: String::new(),
                root: ".".into(),
            }
        );
        assert_eq!(
            parse(&argv("analyze --sarif out.sarif")).unwrap(),
            Command::Analyze {
                json: false,
                update_baseline: false,
                sarif: "out.sarif".into(),
                root: ".".into(),
            }
        );
        assert!(parse(&argv("analyze --json --update-baseline")).is_err());
        assert!(parse(&argv("analyze --update-baseline --sarif out.sarif")).is_err());
        assert!(parse(&argv("analyze --sarif")).is_err());
        assert!(parse(&argv("analyze --root")).is_err());
        assert!(parse(&argv("analyze --loud")).is_err());
    }

    #[test]
    fn parses_sort() {
        assert_eq!(parse(&argv("sort 5")).unwrap(), Command::Sort { n: 5 });
        assert!(parse(&argv("sort")).is_err());
    }

    #[test]
    fn help_and_errors() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("route 2")).is_err());
    }
}
