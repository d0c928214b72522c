//! Minimal dependency-free argument parsing for `hbnet`.

use hb_netsim::TraceSampling;
use hb_telemetry::SloSpec;
use std::fmt;
use std::str::FromStr;

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
        run: RunArgs,
        /// Run on the implicit algebraic topology (no adjacency arrays,
        /// sparse per-channel state) — scales to million-node shapes.
        implicit: bool,
        telemetry: TelemetryMode,
        /// Path to a fault-timeline file (`@<cycle> fault|repair node
        /// <v> | link <u>-<v>` lines): faults and repairs applied at
        /// cycle boundaries mid-run, with incremental route repair.
        /// `--faults`/`--fault-links` form the base plan underneath.
        fault_timeline: Option<String>,
        sample: TraceSampling,
        trace_out: Option<String>,
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
        run: RunArgs,
        workload: ReportWorkload,
        /// Time-series window cadence in simulated cycles.
        cadence: u64,
        format: DumpFormat,
        /// SLO gate thresholds rendered as a pass/fail section (exit 1
        /// on any failure).
        slo: Option<SloSpec>,
    },
    /// `telemetry <m> <n> [--rate r] [--cycles c] [--adaptive] [--format f]`
    Telemetry { run: RunArgs, format: DumpFormat },
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

/// The values `simulate`, `report` and `telemetry` share: the shape, the
/// uniform workload, the static fault plan and the engine. Each command
/// accepts the flags of a subset; the others keep their defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub m: u32,
    pub n: u32,
    /// Per-node injection probability per cycle (`--rate`, in `0..=1`).
    pub rate: f64,
    /// Cycles of traffic injection (`--cycles`).
    pub cycles: u64,
    /// Workload seed (`--seed`, on `report` only).
    pub seed: u64,
    /// Adaptive least-queue routing instead of oblivious routes
    /// (`--adaptive`, not on `report`).
    pub adaptive: bool,
    /// Faulty node indices (`--faults`, not on `telemetry`).
    pub faults: Vec<usize>,
    /// Cut links as node-index pairs (`--fault-links`, not on
    /// `telemetry`).
    pub fault_links: Vec<(usize, usize)>,
    /// Worker threads for the sharded engine (`--threads`, not on
    /// `telemetry`).
    pub threads: usize,
}

impl RunArgs {
    /// `HB(m, n)` with every flag at its default.
    fn new(m: u32, n: u32) -> Self {
        Self {
            m,
            n,
            rate: 0.1,
            cycles: 200,
            seed: 42,
            adaptive: false,
            faults: Vec::new(),
            fault_links: Vec::new(),
            threads: 1,
        }
    }

    /// Reads one of the shared flags and its value.
    fn read(&mut self, flag: &str, c: &mut Cursor) -> Result<(), ParseError> {
        match flag {
            "--rate" => self.rate = c.rate()?,
            "--cycles" => self.cycles = c.value("cycles")?,
            "--seed" => self.seed = c.value("seed")?,
            "--adaptive" => self.adaptive = true,
            "--faults" => self.faults = parse_faults(&c.value::<String>("faults")?)?,
            "--fault-links" => {
                self.fault_links = parse_link_list(&c.value::<String>("fault-links")?)?;
            }
            "--threads" => self.threads = c.threads()?,
            other => return Err(unknown(other)),
        }
        Ok(())
    }
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
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReportWorkload {
    /// Uniformly random destinations.
    Uniform,
    /// Skewed traffic concentrating on one hot node.
    Hotspot {
        /// The hot node (`--hot-node`, default 0).
        node: usize,
        /// Probability a packet targets it (`--hot-fraction`, default
        /// 0.5).
        fraction: f64,
    },
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

/// The `--format` names.
const FORMATS: &[(&str, DumpFormat)] = &[
    ("text", DumpFormat::Text),
    ("json", DumpFormat::Json),
    ("csv", DumpFormat::Csv),
];

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

/// Reads an invocation front to back: positionals first, then flags,
/// each value right after its flag.
struct Cursor<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The next argument parsed as a `T`, named `<what>` in errors.
    fn value<T: FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        let raw = self
            .next()
            .ok_or_else(|| ParseError(format!("missing <{what}>")))?;
        raw.parse()
            .map_err(|_| ParseError(format!("invalid <{what}>: {raw}")))
    }

    /// The value of `flag`: one of the `names`.
    fn choice<T: Copy>(&mut self, flag: &str, names: &[(&str, T)]) -> Result<T, ParseError> {
        let raw = self.next();
        match names.iter().find(|(name, _)| Some(*name) == raw) {
            Some(&(_, value)) => Ok(value),
            None => {
                let names: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
                Err(ParseError(format!(
                    "invalid {flag} {:?} ({})",
                    raw.unwrap_or("<none>"),
                    names.join(" | ")
                )))
            }
        }
    }

    /// A `--rate` value: a per-node injection probability, so it must lie
    /// in `0..=1` (NaN and the infinities fail the range test).
    fn rate(&mut self) -> Result<f64, ParseError> {
        let rate: f64 = self.value("rate")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(ParseError(format!("--rate must be in 0..=1, got {rate}")));
        }
        Ok(rate)
    }

    /// A `--threads` value: in `1..=MAX_THREADS`.
    fn threads(&mut self) -> Result<usize, ParseError> {
        let threads: usize = self.value("threads")?;
        if !(1..=MAX_THREADS).contains(&threads) {
            return Err(ParseError(format!(
                "--threads must be in 1..={MAX_THREADS}, got {threads}"
            )));
        }
        Ok(threads)
    }

    /// Rejects whatever the command did not read.
    fn end(mut self) -> Result<(), ParseError> {
        match self.next() {
            Some(arg) => Err(ParseError(format!("unexpected argument {arg}"))),
            None => Ok(()),
        }
    }
}

fn unknown(flag: &str) -> ParseError {
    ParseError(format!("unknown flag {flag}"))
}

/// The most worker threads `--threads` accepts. Results are identical
/// at every thread count, so the cap only bounds the scoped OS threads a
/// sharded run spawns (one per shard, up to one per node).
const MAX_THREADS: usize = 256;

fn parse_faults(raw: &str) -> Result<Vec<usize>, ParseError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| ParseError(format!("invalid fault index: {s}")))
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

fn parse_sample(raw: Option<&str>) -> Result<TraceSampling, ParseError> {
    match raw {
        Some("off") => Ok(TraceSampling::Off),
        Some("all") => Ok(TraceSampling::All),
        Some("fault-adjacent") => Ok(TraceSampling::FaultAdjacent),
        Some(s) if s.starts_with("every=") => s["every=".len()..]
            .parse::<u64>()
            .map(TraceSampling::EveryNth)
            .map_err(|_| ParseError(format!("invalid --sample {s} (every=N needs a number)"))),
        other => Err(ParseError(format!(
            "invalid --sample {:?} (off | all | every=N | fault-adjacent)",
            other.unwrap_or("<none>")
        ))),
    }
}

fn parse_slo(raw: &str) -> Result<SloSpec, ParseError> {
    let spec = SloSpec::parse(raw).map_err(|e| ParseError(format!("invalid --slo: {e}")))?;
    if spec.is_empty() {
        return Err(ParseError(
            "empty --slo (give at least one of p99=, delivered=, queue=, unroutable=)".into(),
        ));
    }
    Ok(spec)
}

fn parse_timeseries(raw: &str) -> Result<Option<u64>, ParseError> {
    if raw == "off" {
        return Ok(None);
    }
    match raw.parse::<u64>() {
        Ok(c) if c > 0 => Ok(Some(c)),
        _ => Err(ParseError(format!(
            "invalid --timeseries {raw} (a cadence >= 1, or `off`)"
        ))),
    }
}

/// Parses argv (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut c = Cursor { args: args.iter() };
    let cmd = match c.next().unwrap_or("help") {
        "help" | "--help" | "-h" => Command::Help,
        "info" => {
            let (m, n) = (c.value("m")?, c.value("n")?);
            let mut full = false;
            while let Some(flag) = c.next() {
                match flag {
                    "--full" => full = true,
                    other => return Err(unknown(other)),
                }
            }
            Command::Info { m, n, full }
        }
        "route" => Command::Route {
            m: c.value("m")?,
            n: c.value("n")?,
            src: c.value("src")?,
            dst: c.value("dst")?,
        },
        "disjoint" => Command::Disjoint {
            m: c.value("m")?,
            n: c.value("n")?,
            src: c.value("src")?,
            dst: c.value("dst")?,
        },
        "fault-route" => Command::FaultRoute {
            m: c.value("m")?,
            n: c.value("n")?,
            src: c.value("src")?,
            dst: c.value("dst")?,
            faults: parse_faults(&c.value::<String>("faults")?)?,
        },
        "embed" => {
            let (m, n) = (c.value("m")?, c.value("n")?);
            let what = match c.next() {
                Some("cycle") => EmbedKind::Cycle(c.value("k")?),
                Some("hamiltonian") => EmbedKind::Hamiltonian,
                Some("tree") => EmbedKind::Tree,
                Some("mot") => EmbedKind::MeshOfTrees(c.value("p")?, c.value("q")?),
                other => {
                    return Err(ParseError(format!(
                        "unknown embedding {:?} (cycle | hamiltonian | tree | mot)",
                        other.unwrap_or("<none>")
                    )))
                }
            };
            Command::Embed { m, n, what }
        }
        "simulate" => simulate(&mut c)?,
        "report" => report(&mut c)?,
        "bench" => bench(&mut c)?,
        "telemetry" => {
            let mut run = RunArgs::new(c.value("m")?, c.value("n")?);
            let mut format = DumpFormat::Text;
            while let Some(flag) = c.next() {
                match flag {
                    "--rate" | "--cycles" | "--adaptive" => run.read(flag, &mut c)?,
                    "--format" => format = c.choice(flag, FORMATS)?,
                    other => return Err(unknown(other)),
                }
            }
            Command::Telemetry { run, format }
        }
        "diff" => Command::Diff {
            a: c.value("a.json")?,
            b: c.value("b.json")?,
        },
        "analyze" => analyze(&mut c)?,
        "elect" => Command::Elect {
            m: c.value("m")?,
            n: c.value("n")?,
        },
        "broadcast" => Command::Broadcast {
            m: c.value("m")?,
            n: c.value("n")?,
        },
        "sort" => Command::Sort { n: c.value("n")? },
        "partition" => Command::Partition {
            m: c.value("m")?,
            n: c.value("n")?,
            dim: c.value("dim")?,
        },
        other => {
            return Err(ParseError(format!(
                "unknown command {other} (try `hbnet help`)"
            )))
        }
    };
    c.end()?;
    Ok(cmd)
}

fn simulate(c: &mut Cursor) -> Result<Command, ParseError> {
    let mut run = RunArgs::new(c.value("m")?, c.value("n")?);
    let mut implicit = false;
    let mut telemetry = TelemetryMode::Off;
    let mut fault_timeline = None;
    let mut sample = TraceSampling::Off;
    let mut trace_out = None;
    let mut shard_stats = false;
    let mut timeseries = None;
    let mut profile = false;
    let mut slo = None;
    while let Some(flag) = c.next() {
        match flag {
            "--rate" | "--cycles" | "--adaptive" | "--faults" | "--fault-links" | "--threads" => {
                run.read(flag, c)?;
            }
            "--implicit" => implicit = true,
            "--telemetry" => {
                telemetry = c.choice(
                    flag,
                    &[
                        ("off", TelemetryMode::Off),
                        ("summary", TelemetryMode::Summary),
                        ("trace", TelemetryMode::Trace),
                    ],
                )?;
            }
            "--fault-timeline" => fault_timeline = Some(c.value("fault-timeline")?),
            "--sample" => sample = parse_sample(c.next())?,
            "--trace-out" => trace_out = Some(c.value("trace-out")?),
            "--shard-stats" => shard_stats = true,
            "--timeseries" => timeseries = parse_timeseries(&c.value::<String>("timeseries")?)?,
            "--profile" => profile = true,
            "--slo" => slo = Some(parse_slo(&c.value::<String>("slo")?)?),
            other => return Err(unknown(other)),
        }
    }
    if run.adaptive && run.threads > 1 {
        return Err(ParseError(
            "--adaptive is a serial-only router (no --threads)".into(),
        ));
    }
    // The series, the work profile, and the SLO snapshot all land in
    // telemetry, so they need a handle: quietly raise `off` to `summary`.
    if (timeseries.is_some() || profile || slo.is_some()) && telemetry == TelemetryMode::Off {
        telemetry = TelemetryMode::Summary;
    }
    if run.adaptive
        && (!run.faults.is_empty() || !run.fault_links.is_empty() || sample != TraceSampling::Off)
    {
        return Err(ParseError(
            "--adaptive cannot be combined with faults or sampling \
             (the flight recorder drives the oblivious router)"
                .into(),
        ));
    }
    if shard_stats && (telemetry == TelemetryMode::Off || run.threads <= 1) {
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
        run,
        implicit,
        telemetry,
        fault_timeline,
        sample,
        trace_out,
        shard_stats,
        timeseries,
        profile,
        slo,
    })
}

fn report(c: &mut Cursor) -> Result<Command, ParseError> {
    let mut run = RunArgs::new(c.value("m")?, c.value("n")?);
    let mut hotspot = false;
    let mut hot_node = None;
    let mut hot_fraction = None;
    let mut cadence = 5;
    let mut format = DumpFormat::Text;
    let mut slo = None;
    while let Some(flag) = c.next() {
        match flag {
            "--rate" | "--cycles" | "--seed" | "--faults" | "--fault-links" | "--threads" => {
                run.read(flag, c)?;
            }
            "--workload" => hotspot = c.choice(flag, &[("uniform", false), ("hotspot", true)])?,
            "--hot-node" => hot_node = Some(c.value("hot-node")?),
            "--hot-fraction" => hot_fraction = Some(c.value("hot-fraction")?),
            "--cadence" => {
                cadence = c.value("cadence")?;
                if cadence == 0 {
                    return Err(ParseError("--cadence must be at least 1".into()));
                }
            }
            "--format" => format = c.choice(flag, FORMATS)?,
            "--slo" => slo = Some(parse_slo(&c.value::<String>("slo")?)?),
            other => return Err(unknown(other)),
        }
    }
    if hot_fraction.is_some_and(|f| !(0.0..=1.0).contains(&f)) {
        return Err(ParseError("--hot-fraction must be in 0..=1".into()));
    }
    let workload = if hotspot {
        ReportWorkload::Hotspot {
            node: hot_node.unwrap_or(0),
            fraction: hot_fraction.unwrap_or(0.5),
        }
    } else if hot_node.is_some() {
        return Err(ParseError("--hot-node needs --workload hotspot".into()));
    } else if hot_fraction.is_some() {
        return Err(ParseError("--hot-fraction needs --workload hotspot".into()));
    } else {
        ReportWorkload::Uniform
    };
    Ok(Command::Report {
        run,
        workload,
        cadence,
        format,
        slo,
    })
}

fn bench(c: &mut Cursor) -> Result<Command, ParseError> {
    let mut mode = None;
    let mut cycles = 40;
    let mut seed = 42;
    let mut threads = 1;
    let mut explicit_run = false;
    while let Some(flag) = c.next() {
        match flag {
            "--write" | "--check" => mode = Some((flag == "--check", c.value("path")?)),
            "--cycles" => {
                cycles = c.value("cycles")?;
                explicit_run = true;
            }
            "--seed" => {
                seed = c.value("seed")?;
                explicit_run = true;
            }
            "--threads" => threads = c.threads()?,
            other => return Err(unknown(other)),
        }
    }
    let (check, path) = mode.ok_or_else(|| ParseError("bench needs --write or --check".into()))?;
    if check && explicit_run {
        return Err(ParseError(
            "--cycles/--seed come from the baseline file with --check".into(),
        ));
    }
    Ok(Command::Bench {
        check,
        path,
        cycles,
        seed,
        threads,
    })
}

fn analyze(c: &mut Cursor) -> Result<Command, ParseError> {
    let mut json = false;
    let mut update_baseline = false;
    let mut sarif = String::new();
    let mut root = ".".to_string();
    while let Some(flag) = c.next() {
        match flag {
            "--json" => json = true,
            "--update-baseline" => update_baseline = true,
            "--sarif" => sarif = c.value("sarif path")?,
            "--root" => root = c.value("root")?,
            other => return Err(unknown(other)),
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

    /// `RunArgs` for `HB(m, n)` with every flag at its default.
    fn run(m: u32, n: u32) -> RunArgs {
        RunArgs {
            m,
            n,
            rate: 0.1,
            cycles: 200,
            seed: 42,
            adaptive: false,
            faults: vec![],
            fault_links: vec![],
            threads: 1,
        }
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
        sample: TraceSampling,
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
                sample: TraceSampling::Off,
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
            run: RunArgs {
                rate: s.rate,
                cycles: s.cycles,
                adaptive: s.adaptive,
                faults: s.faults,
                fault_links: s.fault_links,
                threads: s.threads,
                ..run(m, n)
            },
            implicit: s.implicit,
            telemetry: s.telemetry,
            fault_timeline: s.fault_timeline,
            sample: s.sample,
            trace_out: s.trace_out,
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
                    sample: TraceSampling::FaultAdjacent,
                    trace_out: Some("flight.json".into()),
                    ..Sim::default()
                }
            )
        );
        for (word, mode) in [
            ("off", TraceSampling::Off),
            ("all", TraceSampling::All),
            ("every=8", TraceSampling::EveryNth(8)),
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
            run: RunArgs {
                cycles: r.cycles,
                threads: r.threads,
                ..run(m, n)
            },
            workload: r.workload,
            cadence: 5,
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
                    workload: ReportWorkload::Hotspot {
                        node: 0,
                        fraction: 0.5,
                    },
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
    fn hot_flags_need_the_hotspot_workload() {
        let err = |line: &str| parse(&argv(line)).unwrap_err().to_string();
        assert_eq!(
            err("report 2 3 --hot-node 9"),
            "--hot-node needs --workload hotspot"
        );
        assert_eq!(
            err("report 2 3 --workload uniform --hot-fraction 0.9"),
            "--hot-fraction needs --workload hotspot"
        );
        assert_eq!(
            err("report 2 3 --cycles 20 --hot-node 999 --hot-fraction 0.9"),
            "--hot-node needs --workload hotspot"
        );
        // The per-value checks run first.
        assert_eq!(
            err("report 2 3 --hot-fraction 1.5"),
            "--hot-fraction must be in 0..=1"
        );
        assert!(parse(&argv("report 2 3 --hot-node 9 --workload hotspot")).is_ok());
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
                run,
                workload,
                cadence,
                format,
                ..
            } => {
                assert_eq!(
                    workload,
                    ReportWorkload::Hotspot {
                        node: 7,
                        fraction: 0.8
                    }
                );
                assert_eq!(cadence, 4);
                assert_eq!(run.seed, 9);
                assert_eq!(run.faults, vec![1, 2]);
                assert_eq!(run.fault_links, vec![(0, 1)]);
                assert_eq!(run.threads, 4);
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
                run: run(2, 3),
                format: DumpFormat::Text,
            }
        );
        assert_eq!(
            parse(&argv("telemetry 2 3 --format json --cycles 50 --adaptive")).unwrap(),
            Command::Telemetry {
                run: RunArgs {
                    cycles: 50,
                    adaptive: true,
                    ..run(2, 3)
                },
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

    /// Every command reads its arguments to the end: one it does not
    /// take is an error, not silently dropped.
    #[test]
    fn rejects_leftover_arguments() {
        for (line, err) in [
            ("help me", "unexpected argument me"),
            ("info 2 3 --ful", "unknown flag --ful"),
            ("info 2 3 --full 4", "unknown flag 4"),
            ("route 2 3 0 5 7", "unexpected argument 7"),
            ("disjoint 2 3 0 5 7", "unexpected argument 7"),
            ("fault-route 2 3 0 5 4,9 1", "unexpected argument 1"),
            ("embed 2 3 cycle 10 12", "unexpected argument 12"),
            ("embed 2 3 hamiltonian 4", "unexpected argument 4"),
            ("embed 2 3 tree --full", "unexpected argument --full"),
            ("embed 3 4 mot 1 2 3", "unexpected argument 3"),
            ("diff a.json b.json c.json", "unexpected argument c.json"),
            ("elect 2 3 4", "unexpected argument 4"),
            ("broadcast 2 3 4", "unexpected argument 4"),
            ("partition 2 3 1 0", "unexpected argument 0"),
            ("sort 5 6", "unexpected argument 6"),
        ] {
            assert_eq!(parse(&argv(line)), Err(ParseError(err.into())), "{line}");
        }
    }

    #[test]
    fn help_and_errors() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("route 2")).is_err());
    }
}
