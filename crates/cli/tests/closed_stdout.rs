//! A closed stdout is an error, not a panic: `report` and `telemetry`
//! stream their sink into stdout, and when nothing reads it any more
//! they print the write error and exit 1. The pipe's read end is dropped
//! before the spawn, so the first write fails whatever the timing.

use std::process::Command;

#[test]
fn streamed_commands_report_a_closed_stdout() {
    for args in [
        ["report", "2", "3", "--cycles", "20", "--format", "text"],
        ["report", "2", "3", "--cycles", "20", "--format", "json"],
        ["report", "2", "3", "--cycles", "20", "--format", "csv"],
        ["telemetry", "1", "3", "--cycles", "20", "--format", "text"],
        ["telemetry", "1", "3", "--cycles", "20", "--format", "json"],
        ["telemetry", "1", "3", "--cycles", "20", "--format", "csv"],
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_hbnet"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("hbnet runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, "error: Broken pipe (os error 32)\n", "{args:?}");
    }
}
