//! `hbnet report` on a run with no traffic: every format exits 0, and
//! the text report matches its golden (a phase timeline of one empty
//! window, no link section, no anomalies).

use std::process::Command;

#[test]
fn report_without_traffic_renders_every_format() {
    for format in ["text", "json", "csv"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hbnet"))
            .args(["report", "2", "3", "--cycles", "0", "--format", format])
            .output()
            .expect("hbnet runs");
        assert!(
            out.status.success(),
            "{format}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        if format == "text" {
            assert_eq!(
                String::from_utf8(out.stdout).expect("stdout is UTF-8"),
                include_str!("golden/report_empty.txt")
            );
        }
    }
}
