//! Deterministic sharded parallel simulation engine.
//!
//! [`run_sharded`] advances the oblivious store-and-forward model of
//! [`crate::sim::run`] on `cfg.threads` workers and produces **byte
//! identical** results — `SimStats`, counters, histograms, link stats,
//! and trace events all match the serial runner exactly, at every
//! thread count. The determinism argument (DESIGN.md §9) rests on three
//! invariants:
//!
//! 1. **Node-aligned contiguous shards.** Channels are laid out in CSR
//!    order (`offsets[u] + port`), and shard `k` owns the contiguous
//!    channel range `[chan_lo[k], chan_lo[k+1])` induced by a node range
//!    — so a packet's *current* channel always belongs to exactly one
//!    worker, and an injection's first channel belongs to the worker
//!    owning its source node.
//! 2. **Canonical service order.** Within a cycle, the serial loop
//!    services active channels in ascending channel id. Each shard does
//!    the same over its own (disjoint, ascending) range; since per
//!    channel effects are independent given queue contents, the union of
//!    shard-local services equals the serial pass.
//! 3. **Ordered cross-shard delivery.** The only inter-channel coupling
//!    is the FIFO order in which same-cycle movers land on a shared
//!    target queue — ascending *source* channel in the serial loop. Each
//!    worker collects its movers in service (= ascending source channel)
//!    order into one mailbox per receiver; receivers drain mailboxes in
//!    sender-shard order, and sender ranges are ascending, so the
//!    concatenation reproduces the serial enqueue order exactly.
//!
//! Each worker runs the shared cycle kernel ([`crate::kernel::Kernel`])
//! over its own channel range, admitting only injections sourced in its
//! node range. Cycle protocol (two barriers): *phase A* — each worker
//! runs one kernel step (inject, sample, serve), posts cross-shard
//! movers to per-(sender, receiver) mailboxes, and publishes its
//! cycle sample (deliveries, queue peak, active channels, fault counts,
//! packets in flight); *barrier*; every worker sums the published
//! samples and reaches the same drain decision, and shard 0 records the
//! whole-network time series from the same sums; *phase B* — each
//! worker lands its own movers and drains its incoming mailboxes in
//! sender order; *barrier*; everyone advances the cycle and stops
//! together. Samples only change in phase A, so the decision read
//! between the barriers is consistent across workers.
//!
//! Kernel results (tallies, scoreboards, buffered trace events) merge
//! in fixed shard-index order after the join: integer sums/maxes are
//! exact, and events are stable-sorted by `(cycle, phase,
//! channel-or-id)` — a key that is unique across shards —
//! reconstructing the serial emission order.

use crate::kernel::{CycleSample, Kernel, Packet, Part, RunCtx, SourceRouted, Unbounded};
use crate::pool::PacketPool;
use crate::sim::{ChanLayout, SimStats};
use crate::tsrec::GlobalTs;
use hb_telemetry::Series;
use std::sync::{Barrier, Mutex};

/// One (sender, receiver) mailbox cell: packets that crossed a shard
/// boundary this cycle, with their destination channel. Exactly one
/// writer (phase A) and one reader (phase B), separated by a barrier.
type Mailbox = Mutex<Vec<(usize, Packet)>>;

/// A shard kernel's side of the mailbox exchange.
pub(crate) struct ShardPort<'a> {
    k: usize,
    /// Shard boundaries over channels (last entry = total channels;
    /// repeated entries denote empty shards).
    chan_lo: &'a [usize],
    /// Movers staying in this shard, landed at its turn in phase B.
    pub(crate) pending: Vec<(usize, u32)>,
    /// Movers bound for each other shard, posted after phase A.
    outbox: Vec<Vec<(usize, Packet)>>,
}

impl ShardPort<'_> {
    /// Routes a mover bound for channel `ch`: kept for phase B when this
    /// shard owns `ch`, otherwise taken out of `pool` into the outbox
    /// (returns `true` then).
    #[inline]
    pub(crate) fn hand_off(&mut self, ch: usize, key: u32, pool: &mut PacketPool<Packet>) -> bool {
        let dst = shard_of(self.chan_lo, ch);
        if dst == self.k {
            self.pending.push((ch, key));
            return false;
        }
        self.outbox[dst].push((ch, *pool.get(key)));
        pool.free(key);
        true
    }

    /// Phase A: moves the outbox into this sender's mailbox row.
    fn post(&mut self, row: &[Mailbox]) {
        for (dst, out) in self.outbox.iter_mut().enumerate() {
            if !out.is_empty() {
                lock(&row[dst]).append(out);
            }
        }
    }
}

/// Shard owning channel `ch` under boundaries `chan_lo`.
fn shard_of(chan_lo: &[usize], ch: usize) -> usize {
    chan_lo.partition_point(|&c| c <= ch) - 1
}

/// Node-aligned shard boundaries balancing *channels* (not nodes) across
/// `s` workers: `node_lo[k]` is the first node whose first channel
/// reaches `k/s` of the channel total. Both layouts number channels
/// identically, so they cut at identical points — a prerequisite for
/// graph-free parallel runs matching materialised ones byte for byte.
fn shard_boundaries(layout: &ChanLayout<'_>, n: usize, s: usize) -> Vec<usize> {
    let num_channels = layout.num_channels();
    let mut node_lo = vec![0usize; s + 1];
    node_lo[s] = n;
    for (k, lo) in node_lo.iter_mut().enumerate().take(s).skip(1) {
        let target = k * num_channels / s;
        let (mut a, mut b) = (0, n);
        while a < b {
            let mid = a + (b - a) / 2;
            if layout.node_first_channel(mid) < target {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        *lo = a;
    }
    node_lo
}

/// What one worker hands back for the in-order merge.
struct ShardOut {
    part: Part,
    cycles: u64,
    /// Whole-network series; recorded by shard 0 only.
    globals: Option<GlobalTs>,
    /// Cross-shard packets received per cycle (`shard_telemetry` only).
    mailbox: Option<Series>,
}

/// Shared state of one sharded run.
struct Exchange<'a> {
    ctx: &'a RunCtx<'a>,
    route: SourceRouted<'a>,
    node_lo: &'a [usize],
    chan_lo: &'a [usize],
    barrier: Barrier,
    /// `mailboxes[sender][receiver]`.
    mailboxes: Vec<Vec<Mailbox>>,
    /// Each shard's cycle sample, written in phase A and read by every
    /// shard between the barriers.
    samples: Vec<Mutex<CycleSample>>,
    /// Per-shard counters, spans, mailbox series, and shard profile
    /// phases.
    shard_telemetry: bool,
}

/// The sharded parallel engine behind [`crate::SimConfig::with_threads`]:
/// one kernel per shard plus the mailbox exchange. `route` reads a
/// single shared table (static plan) or a per-injection churn snapshot
/// compiled ahead of the run — both read-only here, which keeps the
/// determinism argument untouched by fault churn.
pub(crate) fn run_sharded(ctx: &RunCtx<'_>, route: SourceRouted<'_>) -> SimStats {
    let n = ctx.topo.num_nodes();
    let s = ctx.cfg.threads.min(n.max(1)).max(1);
    let node_lo = shard_boundaries(&ctx.layout, n, s);
    let chan_lo: Vec<usize> = node_lo
        .iter()
        .map(|&v| ctx.layout.node_first_channel(v))
        .collect();
    let tel = ctx.tel();
    let ex = Exchange {
        ctx,
        route,
        node_lo: &node_lo,
        chan_lo: &chan_lo,
        barrier: Barrier::new(s),
        mailboxes: (0..s)
            .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        samples: (0..s).map(|_| Mutex::default()).collect(),
        shard_telemetry: ctx.cfg.shard_telemetry && tel.is_some(),
    };
    let mut results: Vec<ShardOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s)
            .map(|k| {
                let ex = &ex;
                scope.spawn(move || drive_shard(ex, k))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().expect(
                    "invariant: shard workers never panic (any panic here is a bug to surface)",
                )
            })
            .collect()
    });

    let cycles = results[0].cycles;
    if let Some(t) = tel {
        for (k, r) in results.iter_mut().enumerate() {
            if ex.shard_telemetry {
                let delivered = r.part.tally.delivered;
                let forwarded = r.part.board.as_ref().map_or(0, |b| b.forwarded());
                t.counter(&format!("sim.shard.{k}.delivered"))
                    .add(delivered);
                t.counter(&format!("sim.shard.{k}.forwarded"))
                    .add(forwarded);
                let span = t.span_start(&format!("shard {k}"), None, 0);
                t.span_attr(span, "nodes", format!("{}..{}", node_lo[k], node_lo[k + 1]));
                t.span_attr(
                    span,
                    "channels",
                    format!("{}..{}", chan_lo[k], chan_lo[k + 1]),
                );
                t.span_attr(span, "delivered", delivered.to_string());
                t.span_end(span, cycles);
            }
            if let Some(mb) = r.mailbox.take() {
                t.merge_series(&format!("sim.shard.{k}.mailbox"), mb);
            }
        }
    }
    let globals = results[0].globals.take();
    let parts = results.into_iter().map(|r| r.part).collect();
    ctx.finish(parts, globals, cycles)
}

fn drive_shard(ex: &Exchange<'_>, k: usize) -> ShardOut {
    let s = ex.chan_lo.len() - 1;
    let port = ShardPort {
        k,
        chan_lo: ex.chan_lo,
        pending: Vec::new(),
        outbox: vec![Vec::new(); s],
    };
    let mut kernel = Kernel::new(
        ex.ctx,
        ex.route,
        Unbounded,
        ex.chan_lo[k]..ex.chan_lo[k + 1],
        ex.node_lo[k]..ex.node_lo[k + 1],
        Some(port),
    );
    let ts = ex.ctx.ts_config();
    let mut globals = ts
        .filter(|_| k == 0)
        .map(|c| GlobalTs::new(c, ex.route.faults));
    let mut mailbox = ts.filter(|_| ex.shard_telemetry).map(Series::new);
    let mut cycle = 0u64;
    while cycle < ex.ctx.cfg.max_cycles {
        // ---- phase A: one kernel step, then post movers and samples ----
        let sample = kernel.step(cycle);
        kernel
            .shard
            .as_mut()
            .expect("invariant: shard kernels carry a port")
            .post(&ex.mailboxes[k]);
        *lock(&ex.samples[k]) = sample;
        wait(ex, &mut kernel);

        // Samples are stable until the next phase A, so every worker
        // reaches the same decision here, and shard 0 records exactly
        // what the serial loop sees at its own recording point.
        let mut total = CycleSample {
            injected: sample.injected,
            ..CycleSample::default()
        };
        for shard in &ex.samples {
            total.absorb(&lock(shard));
        }
        let drained = kernel.consumed() == ex.ctx.injections.len() && total.in_flight == 0;
        if let Some(gt) = globals.as_mut() {
            gt.record(cycle, &total);
        }

        // ---- phase B: land movers in ascending source-channel order ----
        let mut received = 0u64;
        for (src, row) in ex.mailboxes.iter().enumerate() {
            if src == k {
                kernel.land_pending(cycle);
            } else {
                let mut incoming = std::mem::take(&mut *lock(&row[k]));
                received += incoming.len() as u64;
                for (ch, p) in incoming.drain(..) {
                    kernel.receive(ch, p, cycle);
                }
            }
        }
        if ex.shard_telemetry {
            kernel.prof.mailbox_inv += 1;
            kernel.prof.mailbox_work += received;
        }
        if let Some(mb) = mailbox.as_mut() {
            mb.record(cycle, received);
        }
        wait(ex, &mut kernel);
        cycle += 1;
        if drained {
            break;
        }
    }
    ShardOut {
        part: kernel.into_part(),
        cycles: cycle,
        globals,
        mailbox,
    }
}

/// Locks an exchange cell (holders never panic, so it is never poisoned).
fn lock<T>(cell: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    cell.lock()
        .expect("invariant: exchange mutex unpoisoned (holders never panic)")
}

/// One barrier wait, counted in the shard profile phases.
fn wait(ex: &Exchange<'_>, kernel: &mut Kernel<'_, SourceRouted<'_>, Unbounded>) {
    ex.barrier.wait();
    if ex.shard_telemetry {
        kernel.prof.barrier_inv += 1;
        kernel.prof.barrier_work += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::flight::{run_with_faults, TraceSampling};
    use crate::sim::{channel_offsets, run, SimConfig};
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet, NetTopology};
    use crate::workload;
    use hb_telemetry::Telemetry;

    #[test]
    fn shard_boundaries_are_node_aligned_and_cover_all_channels() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let imp = HyperButterflyNet::implicit(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let g = t.graph();
        let offsets = channel_offsets(g);
        let n = g.num_nodes();
        let csr = ChanLayout::new(&t);
        let uniform = ChanLayout::new(&imp);
        for s in [1, 2, 3, 4, 7, 16] {
            let node_lo = shard_boundaries(&csr, n, s);
            assert_eq!(
                node_lo,
                shard_boundaries(&uniform, n, s),
                "layouts cut alike"
            );
            assert_eq!(node_lo[0], 0);
            assert_eq!(node_lo[s], n);
            assert!(node_lo.windows(2).all(|w| w[0] <= w[1]));
            let chan_lo: Vec<usize> = node_lo.iter().map(|&v| offsets[v]).collect();
            // Every channel belongs to exactly the shard that owns its
            // tail node.
            for ch in [0usize, 1, offsets[n] / 2, offsets[n] - 1] {
                let k = shard_of(&chan_lo, ch);
                assert!(chan_lo[k] <= ch && ch < chan_lo[k + 1]);
            }
        }
    }

    #[test]
    fn sharded_stats_match_serial_on_hb() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 80, 0.3, 13);
        let serial = run(&t, &traffic, SimConfig::default());
        for threads in [2, 3, 4, 8] {
            let par = run(&t, &traffic, SimConfig::default().with_threads(threads));
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn sharded_faulted_run_matches_serial_including_counters() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 40, 0.4, 5);
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1).add_node(9);
        let serial = run_with_faults(
            &t,
            &traffic,
            SimConfig::default(),
            &plan,
            TraceSampling::Off,
        );
        let tel_s = Telemetry::summary();
        run_with_faults(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel_s.clone()),
            &plan,
            TraceSampling::Off,
        );
        let tel_p = Telemetry::summary();
        let par = run_with_faults(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel_p.clone())
                .with_threads(4),
            &plan,
            TraceSampling::Off,
        );
        assert_eq!(serial, par);
        assert_eq!(
            tel_s.counter("sim.reroutes").get(),
            tel_p.counter("sim.reroutes").get()
        );
        assert_eq!(
            tel_s.counter("sim.unroutable").get(),
            tel_p.counter("sim.unroutable").get()
        );
        assert_eq!(tel_s.snapshot(), tel_p.snapshot());
    }

    #[test]
    fn sharded_trace_events_match_serial_byte_for_byte() {
        let t = HypercubeNet::new(3).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 30, 0.5, 21);
        let tel_s = Telemetry::with_trace(4096);
        let serial = run(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel_s.clone()),
        );
        let tel_p = Telemetry::with_trace(4096);
        let par = run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel_p.clone())
                .with_threads(3),
        );
        assert_eq!(serial, par);
        assert_eq!(tel_s.events(), tel_p.events(), "exact event order");
        assert_eq!(tel_s.snapshot(), tel_p.snapshot());
    }

    #[test]
    fn shard_telemetry_emits_per_shard_counters_and_spans() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 20, 0.3, 3);
        let tel = Telemetry::with_trace(4096);
        let stats = run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel.clone())
                .with_threads(2)
                .with_shard_telemetry(true),
        );
        let per_shard: u64 = (0..2)
            .map(|k| tel.counter(&format!("sim.shard.{k}.delivered")).get())
            .sum();
        assert_eq!(per_shard, stats.delivered);
        let shard_spans: Vec<_> = tel
            .spans()
            .into_iter()
            .filter(|sp| sp.name.starts_with("shard "))
            .collect();
        assert_eq!(shard_spans.len(), 2);
        assert!(shard_spans[0].attr("channels").is_some());
    }

    #[test]
    fn profile_is_identical_serial_vs_sharded() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.4, 11);
        let tel_s = Telemetry::summary();
        run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel_s.clone())
                .with_profile(true),
        );
        let prof_s = tel_s.profile();
        assert!(!prof_s.is_empty(), "profiling recorded phases");
        assert!(prof_s.get("sim/route_lookup").is_some());
        assert!(prof_s.get("sim/queue_service").is_some());
        assert!(prof_s.get("sim/route_build").is_some());
        assert!(
            prof_s.get("shard/mailbox_merge").is_none(),
            "shard phases require shard_telemetry"
        );
        for threads in [2, 3, 4] {
            let tel_p = Telemetry::summary();
            run(
                &t,
                &traffic,
                SimConfig::default()
                    .with_telemetry(tel_p.clone())
                    .with_profile(true)
                    .with_threads(threads),
            );
            assert_eq!(prof_s, tel_p.profile(), "threads={threads}");
            assert_eq!(tel_s.snapshot(), tel_p.snapshot(), "threads={threads}");
        }
    }

    #[test]
    fn shard_phases_appear_only_under_shard_telemetry() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 30, 0.4, 7);
        let tel = Telemetry::summary();
        run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel.clone())
                .with_profile(true)
                .with_shard_telemetry(true)
                .with_threads(2),
        );
        let prof = tel.profile();
        let barrier = prof
            .get("shard/barrier_epoch")
            .expect("barrier phase recorded under shard telemetry");
        // Two barriers per cycle per shard: invocations = 2 * shards * cycles.
        assert!(barrier.invocations > 0);
        assert!(prof.get("shard/mailbox_merge").is_some());
    }

    #[test]
    fn more_threads_than_nodes_degrades_gracefully() {
        let t = HypercubeNet::new(2).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 10, 0.8, 1);
        let serial = run(&t, &traffic, SimConfig::default());
        let par = run(&t, &traffic, SimConfig::default().with_threads(64));
        assert_eq!(serial, par);
    }

    #[test]
    fn cycle_limit_strands_identically_in_parallel() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 50, 0.6, 17);
        for limit in [0, 1, 3, 7] {
            let serial = run(&t, &traffic, SimConfig::bounded(limit));
            let par = run(&t, &traffic, SimConfig::bounded(limit).with_threads(4));
            assert_eq!(serial, par, "limit {limit}");
        }
    }
}
