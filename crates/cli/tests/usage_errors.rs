//! `hbnet` rejects what it cannot run while it parses the arguments:
//! exit 2 with the usage, and nothing run or printed.

use std::process::Command;

#[test]
fn trace_out_without_trace_telemetry_is_a_usage_error() {
    let path = std::env::temp_dir().join(format!("hbnet-usage-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_hbnet"))
        .args(["simulate", "2", "3", "--trace-out"])
        .arg(&path)
        .output()
        .expect("hbnet runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "the run printed nothing");
    assert!(String::from_utf8_lossy(&out.stderr)
        .starts_with("error: --trace-out needs --telemetry trace"));
    assert!(!path.exists(), "no trace was written");
}

/// A mistyped flag must not fall back to a default: `info 2 3 --ful`
/// would print the analytic `6*` instead of the measured connectivity.
#[test]
fn leftover_arguments_are_usage_errors() {
    for (args, message) in [
        (["info", "2", "3", "--ful"].as_slice(), "unknown flag --ful"),
        (&["route", "2", "3", "0", "5", "7"], "unexpected argument 7"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hbnet"))
            .args(args)
            .output()
            .expect("hbnet runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with(&format!("error: {message}\n")),
            "{args:?}"
        );
    }
}
