//! `hb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run log, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

use hb_perfbench::machine::Fingerprint;
use hb_perfbench::runner::{measure, trace};
use hb_perfbench::workload::{Kind, Size};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: hb-perfbench --workload <uniform|hotspot|churn|structure> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Where the traced run writes its spans: beside the benchmark binary,
/// i.e. inside the cargo target directory.
fn trace_path(kind: Kind, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_default();
    dir.join(format!("trace-{}-seed{seed}.json", kind.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "hb-perfbench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!("{}", Fingerprint::current().line());
    let result = if args.traced {
        trace(args.kind, Size::Full, args.seed, args.seconds).and_then(|(report, rec)| {
            let path = trace_path(args.kind, args.seed);
            std::fs::write(&path, rec.chrome_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("spans {} written to {}", rec.spans().len(), path.display());
            for (name, value, unit) in &report.metrics {
                println!("  {name:<32} {value:>16.4} {unit}");
            }
            Ok(report)
        })
    } else {
        measure(args.kind, Size::Full, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            for line in &report.log {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
