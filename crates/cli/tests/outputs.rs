//! Pins what `hbnet` prints. Each run's stdout and exit code match a
//! golden under `tests/golden/`, and each way the argument parser
//! rejects an invocation exits 2 with its own first stderr line, the
//! usage after it and nothing on stdout.
//!
//! Regenerate the goldens after an intended output change:
//! `REGEN_GOLDEN=1 cargo test -p hb-cli --test outputs`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The workspace root, so `examples/...` paths resolve and appear in the
/// output verbatim.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn hbnet(line: &str, dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbnet"))
        .current_dir(dir)
        .args(line.split_whitespace())
        .output()
        .expect("hbnet runs")
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` with the golden `name`, or rewrites it under
/// `REGEN_GOLDEN`. Returns the drift message, if any.
fn drift(name: &str, got: &str) -> Option<String> {
    let path = golden_path(name);
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, got).expect("golden regenerated");
        return None;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (REGEN_GOLDEN=1 to create)", path.display()));
    (got != want).then(|| format!("byte drift against {}", path.display()))
}

/// Golden file, invocation and exit code. The HB(2, 3) summaries are a
/// few KB; the dumps run HB(1, 3) for a few cycles so each golden stays
/// under about 20 KB.
const RUNS: &[(&str, &str, i32)] = &[
    ("help.txt", "help", 0),
    ("simulate_plain.txt", "simulate 2 3", 0),
    (
        "simulate_summary.txt",
        "simulate 2 3 --telemetry summary",
        0,
    ),
    ("simulate_trace.txt", "simulate 2 3 --telemetry trace", 0),
    (
        "simulate_adaptive_profile.txt",
        "simulate 2 3 --adaptive --profile --timeseries 5",
        0,
    ),
    (
        "simulate_timeline.txt",
        "simulate 2 3 --fault-timeline examples/fault-timeline.txt --profile",
        0,
    ),
    (
        "simulate_shard_stats.txt",
        "simulate 2 3 --threads 2 --shard-stats --telemetry summary",
        0,
    ),
    (
        "simulate_slo_pass.txt",
        "simulate 2 3 --cycles 40 --slo queue=64,unroutable=0",
        0,
    ),
    (
        "simulate_slo_fail.txt",
        "simulate 2 3 --cycles 40 --slo p99=2",
        1,
    ),
    (
        "simulate_implicit.txt",
        "simulate 7 10 --implicit --cycles 20 --rate 0.00002",
        0,
    ),
    ("telemetry_text.txt", "telemetry 1 3 --cycles 4", 0),
    (
        "telemetry_json.txt",
        "telemetry 1 3 --cycles 4 --format json",
        0,
    ),
    (
        "telemetry_csv.txt",
        "telemetry 1 3 --cycles 4 --format csv",
        0,
    ),
    (
        "report_faults_json.txt",
        "report 1 3 --cycles 5 --rate 0.05 --faults 5 --format json",
        0,
    ),
    (
        "report_faults_csv.txt",
        "report 1 3 --cycles 5 --rate 0.05 --faults 5 --format csv",
        0,
    ),
];

#[test]
fn runs_print_their_goldens() {
    let mut drifts = Vec::new();
    for &(name, line, code) in RUNS {
        let out = hbnet(line, &root());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{line}: {stderr}");
        assert!(stderr.is_empty(), "{line}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        drifts.extend(drift(name, &stdout).map(|d| format!("{line}: {d}")));
    }
    assert!(drifts.is_empty(), "{}", drifts.join("\n"));
}

/// A sampled flight run over a static fault plan writes its spans as
/// Chrome trace-event JSON; the summary names the file by the path given.
#[test]
fn flight_run_prints_and_writes_its_goldens() {
    let dir = std::env::temp_dir().join(format!("hbnet-outputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = hbnet(
        "simulate 2 3 --cycles 8 --faults 5 --fault-links 0-48 --sample every=4 \
         --telemetry trace --trace-out flight.json",
        &dir,
    );
    let trace = std::fs::read_to_string(dir.join("flight.json"));
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let drifts: Vec<String> = [
        drift("simulate_flight.txt", &stdout),
        drift("simulate_flight_trace.json", &trace.expect("trace written")),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(drifts.is_empty(), "{}", drifts.join("\n"));
}

/// Every way the parser rejects an invocation, with the first line it
/// prints to stderr.
const REJECTIONS: &[(&str, &str)] = &[
    (
        "frobnicate",
        "unknown command frobnicate (try `hbnet help`)",
    ),
    ("help me", "unexpected argument me"),
    ("info 2", "missing <n>"),
    ("info x 3", "invalid <m>: x"),
    ("info 2 3 --ful", "unknown flag --ful"),
    ("route 2 3 0", "missing <dst>"),
    ("route 2 3 a 5", "invalid <src>: a"),
    ("route 2 3 0 5 7", "unexpected argument 7"),
    ("disjoint 2 3 0", "missing <dst>"),
    ("fault-route 2 3", "missing <src>"),
    ("fault-route 2 3 0 5", "missing <faults>"),
    ("fault-route 2 3 0 5 4,x", "invalid fault index: x"),
    (
        "embed 2 3",
        "unknown embedding \"<none>\" (cycle | hamiltonian | tree | mot)",
    ),
    (
        "embed 2 3 torus",
        "unknown embedding \"torus\" (cycle | hamiltonian | tree | mot)",
    ),
    ("embed 2 3 cycle", "missing <k>"),
    ("embed 2 3 cycle x", "invalid <k>: x"),
    ("embed 2 3 mot 1", "missing <q>"),
    ("simulate 2 3 --bogus", "unknown flag --bogus"),
    ("simulate 2 3 7", "unknown flag 7"),
    ("simulate 2 3 --rate", "missing <rate>"),
    ("simulate 2 3 --rate x", "invalid <rate>: x"),
    ("simulate 2 3 --rate 2", "--rate must be in 0..=1, got 2"),
    ("simulate 2 3 --cycles", "missing <cycles>"),
    (
        "simulate 2 3 --telemetry loud",
        "invalid --telemetry \"loud\" (off | summary | trace)",
    ),
    (
        "simulate 2 3 --telemetry",
        "invalid --telemetry \"<none>\" (off | summary | trace)",
    ),
    ("simulate 2 3 --faults", "missing <faults>"),
    ("simulate 2 3 --faults 1,x", "invalid fault index: x"),
    ("simulate 2 3 --fault-links", "missing <fault-links>"),
    (
        "simulate 2 3 --fault-links 1+2",
        "invalid link 1+2 (expected a-b)",
    ),
    ("simulate 2 3 --fault-timeline", "missing <fault-timeline>"),
    (
        "simulate 2 3 --sample sometimes",
        "invalid --sample \"sometimes\" (off | all | every=N | fault-adjacent)",
    ),
    (
        "simulate 2 3 --sample",
        "invalid --sample \"<none>\" (off | all | every=N | fault-adjacent)",
    ),
    (
        "simulate 2 3 --sample every=x",
        "invalid --sample every=x (every=N needs a number)",
    ),
    ("simulate 2 3 --trace-out", "missing <trace-out>"),
    ("simulate 2 3 --threads", "missing <threads>"),
    (
        "simulate 2 3 --threads 0",
        "--threads must be in 1..=256, got 0",
    ),
    (
        "simulate 2 3 --threads 257",
        "--threads must be in 1..=256, got 257",
    ),
    (
        "simulate 2 3 --timeseries 0",
        "invalid --timeseries 0 (a cadence >= 1, or `off`)",
    ),
    ("simulate 2 3 --timeseries", "missing <timeseries>"),
    ("simulate 2 3 --slo", "missing <slo>"),
    (
        "simulate 2 3 --slo p99=",
        "invalid --slo: invalid SLO p99 `` (cycles)",
    ),
    (
        "simulate 2 3 --slo ,",
        "empty --slo (give at least one of p99=, delivered=, queue=, unroutable=)",
    ),
    (
        "simulate 2 3 --adaptive --threads 2",
        "--adaptive is a serial-only router (no --threads)",
    ),
    (
        "simulate 2 3 --adaptive --faults 5",
        "--adaptive cannot be combined with faults or sampling \
         (the flight recorder drives the oblivious router)",
    ),
    (
        "simulate 2 3 --shard-stats",
        "--shard-stats needs --threads > 1 and --telemetry summary|trace \
         (the counters land in telemetry)",
    ),
    (
        "simulate 2 3 --trace-out t.json",
        "--trace-out needs --telemetry trace",
    ),
    ("report 2", "missing <n>"),
    (
        "report 2 3 --workload bursty",
        "invalid --workload \"bursty\" (uniform | hotspot)",
    ),
    (
        "report 2 3 --workload",
        "invalid --workload \"<none>\" (uniform | hotspot)",
    ),
    ("report 2 3 --rate -1", "--rate must be in 0..=1, got -1"),
    ("report 2 3 --cycles x", "invalid <cycles>: x"),
    ("report 2 3 --hot-node", "missing <hot-node>"),
    ("report 2 3 --hot-fraction x", "invalid <hot-fraction>: x"),
    (
        "report 2 3 --hot-fraction 1.5",
        "--hot-fraction must be in 0..=1",
    ),
    (
        "report 2 3 --hot-node 9",
        "--hot-node needs --workload hotspot",
    ),
    (
        "report 2 3 --workload uniform --hot-fraction 0.9",
        "--hot-fraction needs --workload hotspot",
    ),
    (
        "report 2 3 --cycles 20 --hot-node 999 --hot-fraction 0.9",
        "--hot-node needs --workload hotspot",
    ),
    ("report 2 3 --cadence", "missing <cadence>"),
    ("report 2 3 --cadence 0", "--cadence must be at least 1"),
    ("report 2 3 --seed x", "invalid <seed>: x"),
    ("report 2 3 --faults x", "invalid fault index: x"),
    (
        "report 2 3 --fault-links 0",
        "invalid link 0 (expected a-b)",
    ),
    (
        "report 2 3 --threads 257",
        "--threads must be in 1..=256, got 257",
    ),
    (
        "report 2 3 --format yaml",
        "invalid --format \"yaml\" (text | json | csv)",
    ),
    (
        "report 2 3 --slo latency=9",
        "invalid --slo: unknown SLO key `latency` (p99 | delivered | queue | unroutable)",
    ),
    ("report 2 3 --adaptive", "unknown flag --adaptive"),
    ("bench", "bench needs --write or --check"),
    ("bench --write", "missing <path>"),
    ("bench --check", "missing <path>"),
    ("bench --write b.json --cycles x", "invalid <cycles>: x"),
    (
        "bench --check b.json --cycles 9",
        "--cycles/--seed come from the baseline file with --check",
    ),
    (
        "bench --check b.json --seed 9",
        "--cycles/--seed come from the baseline file with --check",
    ),
    (
        "bench --check b.json --threads 0",
        "--threads must be in 1..=256, got 0",
    ),
    ("bench --perf --check b.json", "unknown flag --perf"),
    ("telemetry 2", "missing <n>"),
    (
        "telemetry 2 3 --rate nan",
        "--rate must be in 0..=1, got NaN",
    ),
    (
        "telemetry 2 3 --format yaml",
        "invalid --format \"yaml\" (text | json | csv)",
    ),
    ("telemetry 2 3 --faults 5", "unknown flag --faults"),
    ("telemetry 2 3 --threads 2", "unknown flag --threads"),
    ("diff", "missing <a.json>"),
    ("diff a.json", "missing <b.json>"),
    (
        "analyze --json --update-baseline",
        "--json reports findings; --update-baseline accepts them (pick one)",
    ),
    (
        "analyze --update-baseline --sarif out.sarif",
        "--sarif reports findings; --update-baseline accepts them (pick one)",
    ),
    ("analyze --sarif", "missing <sarif path>"),
    ("analyze --root", "missing <root>"),
    ("analyze --loud", "unknown flag --loud"),
    ("elect 2", "missing <n>"),
    ("broadcast x 3", "invalid <m>: x"),
    ("partition 2 3", "missing <dim>"),
    ("sort", "missing <n>"),
];

#[test]
fn rejections_exit_2_with_their_message_and_the_usage() {
    // `help` prints the usage; `runs_print_their_goldens` pins it.
    let usage = String::from_utf8(hbnet("help", &root()).stdout).expect("usage is UTF-8");
    for &(line, message) in REJECTIONS {
        let out = hbnet(line, &root());
        assert_eq!(out.status.code(), Some(2), "{line}");
        assert!(out.stdout.is_empty(), "{line}: nothing runs");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {message}\n\n{usage}\n"),
            "{line}"
        );
    }
}
