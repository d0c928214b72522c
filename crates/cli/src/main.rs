//! `hbnet` — command-line explorer for hyper-butterfly networks.
//!
//! Every subcommand drives the library end to end: construction, optimal
//! routing, Theorem-5 disjoint paths, fault-tolerant routing, embeddings,
//! packet simulation, leader election, broadcast, and partitioning.

#![forbid(unsafe_code)]

mod args;

use args::{
    parse, Command, DumpFormat, EmbedKind, ReportWorkload, SampleMode, TelemetryMode, USAGE,
};
use hb_bench::baseline::{render_drifts, Baseline};
use hb_core::disjoint::DisjointEngine;
use hb_core::{decompose, embed, fault_routing, metrics, routing, HyperButterfly};
use hb_distributed::election;
use hb_graphs::embedding::{validate_cycle, validate_tree_embedding, Embedding};
use hb_graphs::generators;
use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet};
use hb_netsim::{
    run, run_adaptive, run_adaptive_with_timeline, run_with_faults, run_with_mem,
    run_with_timeline, sim::SimConfig, workload, FaultPlan, FaultTarget, FaultTimeline,
    TraceSampling,
};
use hb_telemetry::{
    slo, ChromeTraceSink, CsvSink, JsonLinesSink, ProfileSink, ReportSink, Sink, SpanTreeSink,
    Telemetry, TextSink, TsConfig,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = dispatch(cmd) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn dispatch(cmd: Command) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => print!("{USAGE}"),
        Command::Info { m, n, full } => {
            let level = if full {
                metrics::MeasureLevel::Full
            } else {
                metrics::MeasureLevel::Diameter
            };
            let rows = vec![
                metrics::hyper_butterfly_metrics(m, n, level)?,
                metrics::hyper_debruijn_metrics(m, n, level)?,
            ];
            print!("{}", metrics::render_table(&rows));
        }
        Command::Route { m, n, src, dst } => {
            let hb = HyperButterfly::new(m, n)?;
            check_index(&hb, src)?;
            check_index(&hb, dst)?;
            let (u, v) = (hb.node(src), hb.node(dst));
            println!("distance {u} -> {v}: {}", routing::distance(&hb, u, v));
            for (i, x) in routing::route(&hb, u, v).iter().enumerate() {
                println!("  step {i:>3}: [{:>6}] {x}", hb.index(*x));
            }
        }
        Command::Disjoint { m, n, src, dst } => {
            let hb = HyperButterfly::new(m, n)?;
            check_index(&hb, src)?;
            check_index(&hb, dst)?;
            let eng = DisjointEngine::new(hb)?;
            let fam = eng.paths(hb.node(src), hb.node(dst))?;
            println!(
                "{} internally vertex-disjoint paths {} -> {} (Theorem 5):",
                fam.len(),
                hb.node(src),
                hb.node(dst)
            );
            for (i, p) in fam.iter().enumerate() {
                let s: Vec<String> = p.iter().map(|x| x.to_string()).collect();
                println!("  path {i} ({:>2} hops): {}", p.len() - 1, s.join(" -> "));
            }
        }
        Command::FaultRoute {
            m,
            n,
            src,
            dst,
            faults,
        } => {
            let hb = HyperButterfly::new(m, n)?;
            check_index(&hb, src)?;
            check_index(&hb, dst)?;
            for &f in &faults {
                check_index(&hb, f)?;
            }
            let eng = DisjointEngine::new(hb)?;
            let fnodes: Vec<_> = faults.iter().map(|&f| hb.node(f)).collect();
            match fault_routing::route_avoiding(&eng, hb.node(src), hb.node(dst), &fnodes)? {
                Some(p) => {
                    println!(
                        "route survives {} faults ({} hops):",
                        faults.len(),
                        p.len() - 1
                    );
                    for x in &p {
                        println!("  [{:>6}] {x}", hb.index(*x));
                    }
                }
                None => println!(
                    "no family member survives (> m + 3 = {} faults can do this)",
                    hb.degree() - 1
                ),
            }
        }
        Command::Embed { m, n, what } => {
            let hb = HyperButterfly::new(m, n)?;
            let host = hb.build_graph()?;
            match what {
                EmbedKind::Cycle(k) => {
                    let cyc = embed::even_cycle(&hb, k)?;
                    validate_cycle(&host, &cyc)?;
                    println!("validated C({k}) in HB({m}, {n}): {cyc:?}");
                }
                EmbedKind::Hamiltonian => {
                    let cyc = embed::hamiltonian_cycle(&hb)?;
                    validate_cycle(&host, &cyc)?;
                    println!(
                        "validated Hamiltonian cycle of length {} in HB({m}, {n})",
                        cyc.len()
                    );
                }
                EmbedKind::Tree => {
                    let (parent, map) = embed::binary_tree(&hb);
                    validate_tree_embedding(&host, &parent, &map)?;
                    println!(
                        "validated complete binary tree T({}) ({} nodes) in HB({m}, {n})",
                        embed::binary_tree_levels(&hb),
                        map.len()
                    );
                }
                EmbedKind::MeshOfTrees(p, q) => {
                    let map = embed::mesh_of_trees(&hb, p, q)?;
                    let guest = generators::mesh_of_trees(1 << p, 1 << q)?;
                    let count = guest.num_nodes();
                    Embedding { map }.validate(&guest, &host)?;
                    println!("validated MT(2^{p}, 2^{q}) ({count} guest nodes) in HB({m}, {n})");
                }
            }
        }
        Command::Simulate {
            m,
            n,
            rate,
            cycles,
            adaptive,
            implicit,
            telemetry,
            faults,
            fault_links,
            fault_timeline,
            sample,
            trace_out,
            threads,
            shard_stats,
            timeseries,
            profile,
            slo: slo_spec,
        } => {
            // `--implicit` computes adjacency and routes algebraically —
            // no graph arrays — so million-node shapes construct in O(1).
            let net = if implicit {
                HyperButterflyNet::implicit(m, n, HbRouteOrder::CubeFirst)?
            } else {
                HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst)?
            };
            let hb = net.topology();
            let nn = hb.num_nodes();
            for &f in &faults {
                check_index(hb, f)?;
            }
            for &(a, b) in &fault_links {
                check_index(hb, a)?;
                check_index(hb, b)?;
            }
            let plan = FaultPlan::from_sets(faults.iter().copied(), fault_links.iter().copied());
            let timeline = match &fault_timeline {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    let tl = FaultTimeline::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                    for ev in tl.events() {
                        match ev.target {
                            FaultTarget::Node(v) => check_index(hb, v)?,
                            FaultTarget::Link(u, v) => {
                                check_index(hb, u)?;
                                check_index(hb, v)?;
                            }
                        }
                    }
                    Some(tl)
                }
                None => None,
            };
            let sampling = match sample {
                SampleMode::Off => TraceSampling::Off,
                SampleMode::All => TraceSampling::All,
                SampleMode::EveryNth(k) => TraceSampling::EveryNth(k),
                SampleMode::FaultAdjacent => TraceSampling::FaultAdjacent,
            };
            let flight = !plan.is_empty() || sampling != TraceSampling::Off;
            if adaptive && flight {
                return Err("--adaptive cannot be combined with faults or sampling \
                            (the flight recorder drives the oblivious router)"
                    .into());
            }
            let inj = workload::uniform(nn, cycles, rate, 42);
            let tel = match telemetry {
                TelemetryMode::Off => None,
                TelemetryMode::Summary => Some(Telemetry::summary()),
                TelemetryMode::Trace => Some(Telemetry::with_trace(65_536)),
            };
            if let (Some(t), Some(cadence)) = (&tel, timeseries) {
                t.enable_timeseries(TsConfig::new(cadence));
            }
            if shard_stats && (telemetry == TelemetryMode::Off || threads <= 1) {
                return Err("--shard-stats needs --threads > 1 and --telemetry \
                            summary|trace (the counters land in telemetry)"
                    .into());
            }
            let mut cfg = SimConfig::bounded(cycles * 100 + 50_000)
                .with_threads(threads)
                .with_shard_telemetry(shard_stats)
                .with_profile(profile);
            if let Some(t) = &tel {
                cfg = cfg.with_telemetry(t.clone());
            }
            let mut mem = None;
            let stats = if let Some(tl) = &timeline {
                if adaptive {
                    run_adaptive_with_timeline(&net, &inj, cfg, &plan, tl)
                } else {
                    run_with_timeline(&net, &inj, cfg, &plan, tl, sampling)
                }
            } else if flight {
                run_with_faults(&net, &inj, cfg, &plan, sampling)
            } else if adaptive {
                run_adaptive(&net, &inj, cfg)
            } else if implicit && threads <= 1 {
                let (stats, m) = run_with_mem(&net, &inj, cfg);
                mem = Some(m);
                stats
            } else {
                run(&net, &inj, cfg)
            };
            println!(
                "HB({m}, {n}) uniform rate {rate} for {cycles} cycles ({}):",
                if adaptive { "adaptive" } else { "oblivious" }
            );
            println!("  delivered   {}/{}", stats.delivered, stats.offered);
            println!(
                "  avg latency {:.2} cycles ({:.2} hops)",
                stats.avg_latency, stats.avg_hops
            );
            println!("  peak queue  {}", stats.peak_queue);
            if let Some(mem) = &mem {
                println!(
                    "  channels    peak {} live records of {} total (sparse, implicit)",
                    mem.peak_channel_records, mem.num_channels
                );
            }
            if threads > 1 {
                println!("  threads     {threads} (sharded engine, deterministic)");
            }
            if shard_stats {
                if let Some(t) = &tel {
                    // Only the shards that ran registered counters: the
                    // engine runs at most one shard per node, and a run
                    // that stays serial (span tracing live) runs none.
                    let counters: std::collections::BTreeMap<String, u64> =
                        t.registry().counters().into_iter().collect();
                    let count = |k: usize, what: &str| {
                        counters.get(&format!("sim.shard.{k}.{what}")).copied()
                    };
                    for k in 0..threads {
                        let Some(delivered) = count(k, "delivered") else {
                            break;
                        };
                        let forwarded = count(k, "forwarded").unwrap_or(0);
                        println!("  shard {k:<5} delivered {delivered}, forwarded {forwarded}");
                    }
                }
            }
            if flight {
                println!(
                    "  faults      {} nodes, {} links cut",
                    plan.nodes().count(),
                    plan.links().count()
                );
            }
            if let Some(tl) = &timeline {
                println!(
                    "  timeline    {} fault/repair event(s) replayed mid-run",
                    tl.len()
                );
            }
            if let Some(t) = &tel {
                if flight || timeline.is_some() {
                    println!(
                        "  reroutes    {} (unroutable {})",
                        t.counter("sim.reroutes").get(),
                        t.counter("sim.unroutable").get()
                    );
                }
                if timeline.is_some() {
                    println!(
                        "  repair      {} event(s) in {} delta(s): kept {}, respliced {} \
                         of {} scanned routes",
                        t.counter("sim.repair.events").get(),
                        t.counter("sim.repair.deltas").get(),
                        t.counter("sim.repair.kept").get(),
                        t.counter("sim.repair.respliced").get(),
                        t.counter("sim.repair.scanned").get(),
                    );
                }
                if let Some(q) = t.histogram("sim.latency").and_then(|h| h.quantiles()) {
                    println!(
                        "  latency     p50 {} / p95 {} / p99 {} / max {} cycles",
                        q.p50, q.p95, q.p99, q.max
                    );
                }
                let sim_cycles = t.counter(hb_telemetry::CYCLES_COUNTER).get();
                print!("{}", t.links().render_table(sim_cycles, 16));
                if timeseries.is_some() {
                    println!(
                        "  timeseries  {} series, {} congestion event(s) \
                         (`hbnet report` renders the full run report)",
                        t.series().len(),
                        t.congestion().len()
                    );
                }
                if telemetry == TelemetryMode::Trace {
                    let snapshot = t.snapshot();
                    println!(
                        "  trace: {} events retained (use `hbnet telemetry` to dump)",
                        snapshot.events.len()
                    );
                    if !snapshot.spans.is_empty() {
                        print!("{}", SpanTreeSink.render(&snapshot));
                    }
                    if let Some(path) = &trace_out {
                        std::fs::write(path, ChromeTraceSink.render(&snapshot))?;
                        println!(
                            "  wrote {} spans as Chrome trace-event JSON to {path}",
                            snapshot.spans.len()
                        );
                    }
                } else if trace_out.is_some() {
                    return Err("--trace-out needs --telemetry trace".into());
                }
            } else if trace_out.is_some() {
                return Err("--trace-out needs --telemetry trace".into());
            }
            if profile {
                if let Some(t) = &tel {
                    print!("{}", ProfileSink.render(&t.snapshot()));
                }
            }
            if let (Some(spec), Some(t)) = (slo_spec, &tel) {
                let checks = spec.evaluate(&t.snapshot());
                slo::emit(t, &checks);
                let ok = slo::all_pass(&checks);
                println!(
                    "  slo gates   {} check(s): {}",
                    checks.len(),
                    if ok { "PASS" } else { "FAIL" }
                );
                for c in &checks {
                    println!(
                        "    [{}] {:<20} {:<10} actual {}",
                        if c.pass { "PASS" } else { "FAIL" },
                        c.name,
                        c.threshold,
                        c.actual
                    );
                }
                if !ok {
                    std::process::exit(1);
                }
            }
        }
        Command::Report {
            m,
            n,
            workload,
            rate,
            cycles,
            hot_node,
            hot_fraction,
            cadence,
            threads,
            seed,
            faults,
            fault_links,
            format,
            slo: slo_spec,
        } => {
            let t = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst)?;
            let nn = t.topology().num_nodes();
            for &f in &faults {
                check_index(t.topology(), f)?;
            }
            for &(a, b) in &fault_links {
                check_index(t.topology(), a)?;
                check_index(t.topology(), b)?;
            }
            let plan = FaultPlan::from_sets(faults.iter().copied(), fault_links.iter().copied());
            let (inj, workload_desc) = match workload {
                ReportWorkload::Uniform => (
                    workload::uniform(nn, cycles, rate, seed),
                    format!("uniform, rate {rate}, seed {seed}"),
                ),
                ReportWorkload::Hotspot => {
                    check_index(t.topology(), hot_node)?;
                    (
                        workload::hotspot(nn, cycles, rate, hot_node, hot_fraction, seed),
                        format!(
                            "hotspot -> node {hot_node} (fraction {hot_fraction}), \
                             rate {rate}, seed {seed}"
                        ),
                    )
                }
            };
            let tel = Telemetry::with_trace(65_536);
            tel.enable_timeseries(TsConfig::new(cadence));
            let cfg = SimConfig::bounded(cycles * 100 + 50_000)
                .with_threads(threads)
                .with_telemetry(tel.clone());
            let stats = if plan.is_empty() {
                run(&t, &inj, cfg)
            } else {
                run_with_faults(&t, &inj, cfg, &plan, TraceSampling::Off)
            };
            // Evaluate SLO gates before the final snapshot so the check
            // events reach the JSON/CSV event streams too.
            let slo_checks = slo_spec.map(|spec| {
                let checks = spec.evaluate(&tel.snapshot());
                slo::emit(&tel, &checks);
                checks
            });
            let snapshot = tel.snapshot();
            // The meta block deliberately omits --threads: the report must
            // be byte-identical at every thread count (DESIGN.md §9, §12).
            let fault_desc = if plan.is_empty() {
                "none".to_string()
            } else {
                format!(
                    "{} node(s), {} link(s) cut",
                    plan.nodes().count(),
                    plan.links().count()
                )
            };
            let sink = ReportSink {
                title: format!(
                    "HB({m}, {n}) {}",
                    match workload {
                        ReportWorkload::Uniform => "uniform",
                        ReportWorkload::Hotspot => "hotspot",
                    }
                ),
                meta: vec![
                    ("topology".into(), format!("HB({m}, {n}), {nn} nodes")),
                    ("workload".into(), workload_desc),
                    ("faults".into(), fault_desc),
                    (
                        "injected".into(),
                        format!("{} packets over {cycles} cycles", stats.offered),
                    ),
                    (
                        "delivered".into(),
                        format!(
                            "{}/{} in {} cycles (avg latency {:.2})",
                            stats.delivered, stats.offered, stats.cycles, stats.avg_latency
                        ),
                    ),
                    ("cadence".into(), format!("{cadence} cycles/window")),
                ],
                slo: slo_spec,
                ..ReportSink::default()
            };
            let rendered = match format {
                DumpFormat::Text => sink.render(&snapshot),
                DumpFormat::Json => JsonLinesSink.render(&snapshot),
                DumpFormat::Csv => CsvSink.render(&snapshot),
            };
            print!("{rendered}");
            if let Some(checks) = slo_checks {
                if !slo::all_pass(&checks) {
                    std::process::exit(1);
                }
            }
        }
        Command::Bench {
            check,
            path,
            cycles,
            seed,
            threads,
            perf,
        } => {
            let collect = |cycles: u64, seed: u64| {
                if perf {
                    Baseline::collect_perf(cycles, seed)
                } else {
                    Baseline::collect_with_threads(cycles, seed, threads)
                }
            };
            let suite = if perf { "perf suite" } else { "experiments" };
            if perf {
                // Wall-clock speedups need real cores; make the
                // single-core case visible so a <=1x engine speedup is
                // read as "criterion skipped", never as a regression.
                let cores = hb_bench::perf::detected_cores();
                println!("detected cores: {cores}");
                if cores == 1 {
                    println!(
                        "note: single-core runner — the >=2x engine speedup \
                         criterion is skipped (not failed)"
                    );
                }
            }
            if check {
                let stored = Baseline::parse(&std::fs::read_to_string(&path)?)
                    .map_err(|e| format!("{path}: {e}"))?;
                let fresh = collect(stored.cycles, stored.seed)?;
                let drifts = stored.compare(&fresh);
                if drifts.is_empty() {
                    println!(
                        "bench check OK: {} {suite} match {path} (cycles {}, seed {}, threads {threads})",
                        stored.experiments.len(),
                        stored.cycles,
                        stored.seed
                    );
                } else {
                    eprintln!(
                        "bench check FAILED: {} metric(s) drifted beyond tolerance\n\n{}",
                        drifts.len(),
                        render_drifts(&drifts)
                    );
                    std::process::exit(1);
                }
            } else {
                let baseline = collect(cycles, seed)?;
                std::fs::write(&path, baseline.to_json())?;
                println!(
                    "wrote {} {suite} (cycles {cycles}, seed {seed}) to {path}",
                    baseline.experiments.len()
                );
            }
        }
        Command::Telemetry {
            m,
            n,
            rate,
            cycles,
            adaptive,
            format,
        } => {
            let t = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst)?;
            let inj = workload::uniform(t.topology().num_nodes(), cycles, rate, 42);
            let tel = Telemetry::with_trace(4096);
            let cfg = SimConfig::bounded(cycles * 100 + 50_000).with_telemetry(tel.clone());
            if adaptive {
                run_adaptive(&t, &inj, cfg);
            } else {
                run(&t, &inj, cfg);
            }
            let snapshot = tel.snapshot();
            let rendered = match format {
                DumpFormat::Text => TextSink::default().render(&snapshot),
                DumpFormat::Json => JsonLinesSink.render(&snapshot),
                DumpFormat::Csv => CsvSink.render(&snapshot),
            };
            print!("{rendered}");
        }
        Command::Diff { a, b } => {
            let base =
                Baseline::parse(&std::fs::read_to_string(&a)?).map_err(|e| format!("{a}: {e}"))?;
            let other =
                Baseline::parse(&std::fs::read_to_string(&b)?).map_err(|e| format!("{b}: {e}"))?;
            if base.cycles != other.cycles || base.seed != other.seed {
                eprintln!(
                    "note: runs differ in shape (cycles {} vs {}, seed {} vs {}) — \
                     metric drift below may reflect the workload, not the code",
                    base.cycles, other.cycles, base.seed, other.seed
                );
            }
            let drifts = base.compare(&other);
            if drifts.is_empty() {
                println!(
                    "diff OK: {} experiment(s) in {a} and {b} agree within tolerance",
                    base.experiments.len()
                );
            } else {
                println!(
                    "diff: {} metric(s) drifted beyond tolerance ({a} -> {b})\n\n{}",
                    drifts.len(),
                    render_drifts(&drifts)
                );
                std::process::exit(1);
            }
        }
        Command::Analyze {
            json,
            update_baseline,
            sarif,
            root,
        } => {
            let root = std::path::PathBuf::from(root);
            let findings = hb_analyze::analyze_root(&root)
                .map_err(|e| format!("analyze {}: {e}", root.display()))?;
            let baseline_path = root.join(hb_analyze::BASELINE_FILE);
            if update_baseline {
                std::fs::write(&baseline_path, hb_analyze::baseline::render(&findings))?;
                println!(
                    "wrote {} accepted finding(s) in {} bucket(s) to {}",
                    findings.len(),
                    hb_analyze::baseline::bucket(&findings).len(),
                    baseline_path.display()
                );
                return Ok(());
            }
            let accepted = match std::fs::read_to_string(&baseline_path) {
                Ok(text) => hb_analyze::baseline::parse(&text)
                    .map_err(|e| format!("{}: {e}", baseline_path.display()))?,
                Err(_) => hb_analyze::baseline::Baseline::new(),
            };
            if !sarif.is_empty() {
                std::fs::write(&sarif, hb_analyze::render_sarif(&findings, &accepted))?;
                eprintln!("wrote SARIF report to {sarif}");
            }
            let diff = hb_analyze::baseline::diff(&findings, &accepted);
            for (rule, file, found, base) in &diff.stale {
                eprintln!(
                    "note: stale baseline bucket `{rule} {file}`: {found} found < {base} \
                     accepted (ratchet down with --update-baseline)"
                );
            }
            if diff.new.is_empty() {
                println!(
                    "analyze OK: {} file finding(s), all accepted by the baseline",
                    findings.len()
                );
                return Ok(());
            }
            let new: Vec<_> = diff.new.iter().map(|(f, _, _)| f.clone()).collect();
            if json {
                print!("{}", hb_analyze::render_jsonl(&new));
            } else {
                print!("{}", hb_analyze::render_human(&new));
            }
            eprintln!(
                "analyze FAILED: {} finding(s) beyond the baseline \
                 (fix, justify with `// analyze: allow(<rule>, <why>)`, or \
                 accept with --update-baseline)",
                new.len()
            );
            std::process::exit(1);
        }
        Command::Elect { m, n } => {
            let hb = HyperButterfly::new(m, n)?;
            let g = hb.build_graph()?;
            let out = election::elect(&g, hb.diameter());
            let leader =
                election::validate(&out).map_err(hb_graphs::GraphError::InvalidParameter)?;
            println!(
                "leader {} elected on HB({m}, {n}) in {} rounds, {} messages",
                leader, out.rounds, out.messages
            );
            let per_round: Vec<String> = out.round_messages.iter().map(|m| m.to_string()).collect();
            println!(
                "  convergence: {} at init, then [{}]",
                out.init_messages,
                per_round.join(", ")
            );
        }
        Command::Broadcast { m, n } => {
            let hb = HyperButterfly::new(m, n)?;
            let g = hb.build_graph()?;
            let s = hb_core::broadcast::broadcast_schedule(&hb, hb.identity_node());
            let ok = s.verify_on_graph(&g, 0);
            println!(
                "broadcast on HB({m}, {n}): {} rounds (lower bound {}), {} messages, verified: {ok}",
                s.num_rounds(),
                hb_core::broadcast::lower_bound_rounds(&hb),
                s.num_messages()
            );
        }
        Command::Sort { n } => {
            let b = hb_butterfly::Butterfly::new(n)?;
            let keys: Vec<i64> = (0..1i64 << n).map(|k| (k * 97 + 13) % 255).collect();
            let (sorted, steps) = hb_butterfly::emulate::bitonic_sort(&b, keys.clone());
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
            println!(
                "bitonic sort of {} keys emulated on B({n}) in {steps} butterfly steps",
                keys.len()
            );
            println!("  in : {:?}...", &keys[..keys.len().min(16)]);
            println!("  out: {:?}...", &sorted[..sorted.len().min(16)]);
        }
        Command::Partition { m, n, dim } => {
            let hb = HyperButterfly::new(m, n)?;
            let (a, b) = decompose::partition(&hb, dim)?;
            let ok = decompose::verify_partition(&hb, dim);
            println!(
                "HB({m}, {n}) splits on hypercube bit {dim} into two halves of {} nodes \
                 (each induces HB({}, {n}); verified: {ok})",
                a.len(),
                m - 1
            );
            println!("  half 0 sample: {} {} {}", a[0], a[1], a[2]);
            println!("  half 1 sample: {} {} {}", b[0], b[1], b[2]);
        }
    }
    Ok(())
}

fn check_index(hb: &HyperButterfly, idx: usize) -> Result<(), hb_graphs::GraphError> {
    if idx >= hb.num_nodes() {
        return Err(hb_graphs::GraphError::NodeOutOfRange {
            node: idx,
            len: hb.num_nodes(),
        });
    }
    Ok(())
}
