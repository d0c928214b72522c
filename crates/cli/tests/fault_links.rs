//! A link fault must name an edge of `HB(m, n)`: `--fault-links` on
//! `simulate` and `report`, and `link U-V` timeline events, reject pairs
//! that are not adjacent (or are one node twice) with exit code 1, with
//! and without `--implicit`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hbnet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbnet"))
        .args(args)
        .output()
        .expect("hbnet runs")
}

fn assert_rejected(args: &[&str]) {
    let out = hbnet(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains("is not an edge of HB(2, 3)"),
        "{args:?}: {stderr}"
    );
}

fn stdout_of_success(args: &[&str]) -> String {
    let out = hbnet(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

#[test]
fn non_adjacent_and_self_links_are_rejected() {
    // (0, 1) is at distance 2 in HB(2, 3); (3, 3) is no link at all.
    for link in ["0-1", "3-3"] {
        let run = [
            "simulate",
            "2",
            "3",
            "--fault-links",
            link,
            "--cycles",
            "10",
        ];
        assert_rejected(&run);
        assert_rejected(&[&run[..], &["--implicit"]].concat());
        assert_rejected(&["report", "2", "3", "--fault-links", link, "--cycles", "10"]);
    }
}

#[test]
fn non_adjacent_timeline_link_is_rejected() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bad-link-timeline.txt");
    std::fs::write(&path, "@5 fault link 0-1\n").expect("write the timeline");
    assert_rejected(&[
        "simulate",
        "2",
        "3",
        "--fault-timeline",
        path.to_str().expect("a UTF-8 path"),
        "--cycles",
        "10",
    ]);
}

#[test]
fn real_links_still_run() {
    let out = stdout_of_success(&[
        "simulate",
        "2",
        "3",
        "--fault-links",
        "0-48",
        "--cycles",
        "10",
    ]);
    assert!(out.contains("1 links cut"), "{out}");
    let timeline = examples_dir().join("fault-timeline.txt");
    stdout_of_success(&[
        "simulate",
        "2",
        "3",
        "--fault-timeline",
        timeline.to_str().expect("a UTF-8 path"),
        "--cycles",
        "10",
    ]);
}
