//! `hbnet simulate --shard-stats` prints one row per shard the engine
//! ran. The sharded engine runs at most one shard per node, and a run
//! that stays serial (span tracing live) runs none, so `--threads` alone
//! does not say how many rows there are.

use std::process::Command;

fn simulate(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hbnet"))
        .arg("simulate")
        .args(args.split_whitespace())
        .output()
        .expect("hbnet runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn shard_rows(out: &str) -> Vec<&str> {
    out.lines().filter(|l| l.starts_with("  shard ")).collect()
}

/// The first number after `key` on `line`.
fn number_after(line: &str, key: &str) -> u64 {
    let rest = &line[line.find(key).expect(key) + key.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a number")
}

#[test]
fn more_threads_than_nodes_prints_one_row_per_node() {
    // HB(1, 3) has 48 nodes, so 64 threads run 48 shards.
    let out = simulate("1 3 --cycles 10 --rate 0.2 --threads 64 --telemetry summary --shard-stats");
    let rows = shard_rows(&out);
    assert_eq!(rows.len(), 48, "{out}");
    assert!(rows[47].starts_with("  shard 47 "), "{out}");
    let total = out
        .lines()
        .find(|l| l.starts_with("  delivered "))
        .map(|l| number_after(l, "delivered"))
        .expect("a delivered line");
    let per_shard: u64 = rows.iter().map(|r| number_after(r, "delivered")).sum();
    assert_eq!(per_shard, total, "every delivery lands in one shard: {out}");
}

#[test]
fn traced_run_stays_serial_and_prints_no_shard_rows() {
    let out = simulate(
        "1 3 --cycles 10 --rate 0.2 --threads 4 --telemetry trace --sample all --faults 5 --shard-stats",
    );
    assert!(out.contains("delivered"), "{out}");
    assert!(shard_rows(&out).is_empty(), "{out}");
}
