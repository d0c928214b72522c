//! `hbnet elect` prints the election's outcome and its per-round message
//! counts, the protocol runtime's only report of how traffic decays.

use std::process::Command;

#[test]
fn elect_prints_the_outcome_and_its_convergence() {
    let out = Command::new(env!("CARGO_BIN_EXE_hbnet"))
        .args(["elect", "1", "3"])
        .output()
        .expect("hbnet runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        [
            "leader 0 elected on HB(1, 3) in 10 rounds, 790 messages",
            "  convergence: 240 at init, then [200, 155, 125, 60, 10, 0, 0, 0, 0, 0]",
        ]
    );

    // Init plus the per-round counts is the message total.
    let (init, rounds) = lines[1]
        .trim_start()
        .strip_prefix("convergence: ")
        .and_then(|rest| rest.split_once(" at init, then "))
        .expect("a convergence line");
    let per_round: Vec<u64> = rounds
        .trim_matches(|c| c == '[' || c == ']')
        .split(", ")
        .map(|m| m.parse().expect("a message count"))
        .collect();
    let init: u64 = init.parse().expect("an init count");
    assert_eq!(per_round.len(), 10, "one count per round");
    assert_eq!(init + per_round.iter().sum::<u64>(), 790);
}
