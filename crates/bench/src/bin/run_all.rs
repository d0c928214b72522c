//! Runs every experiment once and writes each table into a results
//! directory as one text file, plus a CSV of the rows where the table has
//! one. README.md maps each table to its file.
//!
//! Usage: `run_all [out_dir]` — default `results/`. Exits non-zero when a
//! check fails: a Figure-1 value off the paper's formula, a suboptimal
//! route, a Theorem-5 path-length bound violation, an embedding that does
//! not validate, or the Remark-10 router failing at `m + 3` faults.

#![forbid(unsafe_code)]

use hb_bench::fig2::Fig2Scale;
use hb_bench::{
    broadcast_exp, congestion_exp, csv, disjoint_exp, distributed_exp, embed_exp, fault_exp, fig1,
    fig2, netsim_exp, routing_exp,
};
use hb_core::metrics::MeasureLevel;
use hb_core::HyperButterfly;
use hb_debruijn::HyperDeBruijn;
use hb_netsim::faults::survivor_fragility;
use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

type Res = Result<(), Box<dyn Error>>;

/// One experiment: runs, writes its files into the directory, checks.
type Experiment = fn(&Path) -> Res;

fn write(dir: &Path, name: &str, contents: &str) -> Res {
    let path = dir.join(name);
    fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  wrote {}", path.display());
    Ok(())
}

/// Turns a failed check into the error `run_all` exits non-zero with.
fn check(ok: bool, failure: String) -> Res {
    if ok {
        Ok(())
    } else {
        Err(failure.into())
    }
}

/// Joins titled sections with a blank line between them.
fn sections(parts: &[(&str, String)]) -> String {
    parts
        .iter()
        .map(|(title, body)| format!("{title}\n{body}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn figure_1(dir: &Path) -> Res {
    let certified = fig1::measure(2, 3, MeasureLevel::Full)?;
    let larger = fig1::measure(3, 4, MeasureLevel::Diameter)?;
    write(dir, "fig1.txt", &fig1::render(2, 3, &certified))?;
    write(dir, "fig1.csv", &csv::metrics_csv(&certified))?;
    write(dir, "fig1_3_4.txt", &fig1::render(3, 4, &larger))?;
    for ((m, n), rows) in [((2, 3), &certified), ((3, 4), &larger)] {
        let d = fig1::discrepancies(m, n, rows);
        check(
            d.is_empty(),
            format!("Figure 1 at ({m}, {n}): {}", d.join("; ")),
        )?;
    }
    Ok(())
}

fn figure_2(dir: &Path) -> Res {
    for (scale, name) in [
        (Fig2Scale::Paper, "fig2_paper"),
        (Fig2Scale::Proxy, "fig2_proxy"),
    ] {
        let rows = fig2::measure(scale)?;
        let evidence = fig2::fault_evidence(scale, 50, 0xF162)?;
        write(
            dir,
            &format!("{name}.txt"),
            &fig2::render(scale, &rows, &evidence),
        )?;
        if scale == Fig2Scale::Paper {
            write(dir, "fig2.csv", &csv::metrics_csv(&rows))?;
        }
    }
    Ok(())
}

fn routing(dir: &Path) -> Res {
    let r = routing_exp::run(3, 5, 2000, 0xE3)?;
    write(dir, "routing.txt", &routing_exp::render(&r))?;
    write(dir, "routing.csv", &csv::routing_csv(&r))?;
    check(
        r.suboptimal == 0,
        format!("{} suboptimal routes", r.suboptimal),
    )
}

fn disjoint(dir: &Path) -> Res {
    for (m, n, pairs, certify, name) in [
        (3, 4, 500, false, "disjoint_3_4.txt"),
        (2, 3, 300, true, "disjoint_2_3_certified.txt"),
    ] {
        let r = disjoint_exp::run(m, n, pairs, certify, 0xE4)?;
        write(dir, name, &disjoint_exp::render(&r))?;
        check(
            r.bound_violations == 0,
            format!(
                "HB({m}, {n}): {} Theorem-5 bound violations",
                r.bound_violations
            ),
        )?;
    }
    Ok(())
}

fn faults(dir: &Path) -> Res {
    const TRIALS: usize = 100;
    // Random sweeps first, then the targeted (adversarial) ones.
    let sweeps = [
        fault_exp::sweep_hb(2, 4, 9, TRIALS, 0xE5)?,
        fault_exp::sweep_hd(2, 6, 9, TRIALS, 0xE5)?,
        fault_exp::adversarial_hb(2, 4, 7, TRIALS, 0xE5)?,
        fault_exp::adversarial_hd(2, 6, 7, TRIALS, 0xE5)?,
    ];
    let mut fragility = String::new();
    let ghb = HyperButterfly::new(2, 4)?.build_graph()?;
    let ghd = HyperDeBruijn::new(2, 6)?.build_graph()?;
    for (name, g) in [("HB(2, 4)", &ghb), ("HD(2, 6)", &ghd)] {
        write!(fragility, "  {name:<10}")?;
        for f in [0usize, 4, 8, 16, 32, 64] {
            write!(
                fragility,
                " f={f}:{:>6.2}",
                survivor_fragility(g, f, 30, 0xE5)
            )?;
        }
        writeln!(fragility)?;
    }
    let mut diameters = String::new();
    for r in fault_exp::fault_diameters(2, 4)? {
        let bound = if r.theorem5_bound > 0 {
            format!("  (Theorem-5 bound {})", r.theorem5_bound)
        } else {
            String::new()
        };
        match r.single_fault_diameter {
            Some(d) => writeln!(
                diameters,
                "  {:<10} diameter {} -> worst single-fault diameter {d}{bound}",
                r.name, r.diameter
            )?,
            None => writeln!(diameters, "  {:<10} a single fault can disconnect!", r.name)?,
        }
    }
    let (ok, trials) = fault_exp::family_router_at_max_faults(2, 4, TRIALS, 0xE5)?;
    writeln!(
        diameters,
        "Remark-10 family router at m+3 faults: {ok}/{trials} routed"
    )?;
    let text = sections(&[
        (
            "Targeted (adversarial) neighborhood faults — threshold = min degree:",
            fault_exp::render(&sweeps[2..]),
        ),
        (
            "Survivor fragility (mean articulation points after f random faults):",
            fragility,
        ),
        (
            "Single-fault diameters (exact, all faults tried):",
            diameters,
        ),
    ]);
    let text = format!("{}\n{text}", fault_exp::render(&sweeps[..2]));
    write(dir, "faults.txt", &text)?;
    write(dir, "faults.csv", &csv::fault_csv(&sweeps))?;
    check(
        ok == trials,
        format!("the Remark-10 router routed {ok}/{trials} pairs at m+3 faults"),
    )
}

fn embeddings(dir: &Path) -> Res {
    let r = embed_exp::run(2, 4, true)?;
    write(dir, "embeddings_2_4.txt", &embed_exp::render(&r))
}

fn broadcast(dir: &Path) -> Res {
    let rows = vec![
        broadcast_exp::hb_row(2, 4)?,
        broadcast_exp::hd_row(2, 6)?,
        broadcast_exp::hypercube_row(8)?,
        broadcast_exp::hb_row(3, 5)?,
        broadcast_exp::hd_row(3, 8)?,
    ];
    write(dir, "broadcast.txt", &broadcast_exp::render(&rows))?;
    write(dir, "broadcast.csv", &csv::broadcast_csv(&rows))
}

fn netsim(dir: &Path) -> Res {
    const CYCLES: u64 = 200;
    let uni = netsim_exp::uniform_sweep(&[0.02, 0.05, 0.1, 0.2, 0.4], CYCLES, 0xE8)?;
    let text = sections(&[
        ("Uniform traffic (rate sweep):", netsim_exp::render(&uni)),
        (
            "Hotspot traffic (30% to node 0):",
            netsim_exp::render(&netsim_exp::hotspot_run(0.1, CYCLES, 0xE8)?),
        ),
        (
            "Null model (uniform traffic, HB vs random 6-regular):",
            netsim_exp::render(&netsim_exp::null_model_sim(0.1, CYCLES, 0xE8)?),
        ),
        (
            "Routing-order ablation (permutation traffic):",
            netsim_exp::render(&netsim_exp::routing_order_ablation(2, 4, 20, 0xE8)?),
        ),
        (
            "Finite buffers (capacity 4): delivered fraction vs rate:",
            netsim_exp::render(&netsim_exp::bounded_saturation(
                4,
                &[0.1, 0.3, 0.6],
                CYCLES,
                0xE8,
            )?),
        ),
        (
            "Adaptivity ablation (hotspot traffic, oblivious vs minimal adaptive):",
            netsim_exp::render(&netsim_exp::adaptivity_ablation(2, 4, 0.25, CYCLES, 0xE8)?),
        ),
    ]);
    write(dir, "netsim.txt", &text)?;
    write(dir, "netsim_uniform.csv", &csv::sim_csv(&uni))
}

fn congestion(dir: &Path) -> Res {
    let matched = congestion_exp::matched_forwarding()?;
    let mut null_model = String::new();
    for (name, diam, mean, witness) in congestion_exp::null_model_rows(2, 4, 0xE9)? {
        writeln!(
            null_model,
            "  {name:<16} diameter {diam:>2}  mean distance {mean:>6.3}  min-degree witness {witness}"
        )?;
    }
    let mut bisection = String::new();
    for (name, nodes, cut) in congestion_exp::bisection_bounds(2, 3, 6)? {
        writeln!(bisection, "  {name:<10} {nodes:>5} nodes  cut <= {cut}")?;
    }
    let text = sections(&[
        (
            "Matched 256-node instances (all-pairs routes):",
            congestion_exp::render(&matched),
        ),
        (
            "Same-(m, n) pair at (2, 4):",
            congestion_exp::render(&congestion_exp::pair_forwarding(2, 4)?),
        ),
        (
            "Null model: HB(2, 4) vs a random 6-regular graph (256 nodes):",
            null_model,
        ),
        (
            "Bisection-width upper bounds (Kernighan-Lin, VLSI area driver):",
            bisection,
        ),
    ]);
    write(dir, "congestion.txt", &text)?;
    write(dir, "forwarding.csv", &csv::forwarding_csv(&matched))
}

fn distributed(dir: &Path) -> Res {
    let rows = distributed_exp::matched_rows()?;
    write(dir, "distributed.txt", &distributed_exp::render(&rows))?;
    write(dir, "distributed.csv", &csv::distributed_csv(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = match args.as_slice() {
        [] => Path::new("results"),
        [dir] if !dir.starts_with('-') => Path::new(dir),
        _ => {
            eprintln!("usage: run_all [out_dir]");
            return ExitCode::from(2);
        }
    };
    let experiments: [(&str, Experiment); 10] = [
        ("Figure 1", figure_1),
        ("Figure 2", figure_2),
        ("E3 routing", routing),
        ("E4 disjoint paths", disjoint),
        ("E5 faults", faults),
        ("E6 embeddings", embeddings),
        ("E7 broadcast", broadcast),
        ("E8 netsim", netsim),
        ("E9 congestion", congestion),
        ("E10 distributed", distributed),
    ];
    let run = || -> Res {
        fs::create_dir_all(dir)?;
        for (name, experiment) in experiments {
            println!("{name}:");
            experiment(dir).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    };
    match run() {
        Ok(()) => {
            println!("done: every table written to {}", dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run_all failed: {e}");
            ExitCode::FAILURE
        }
    }
}
