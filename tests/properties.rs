//! Property-based tests (proptest) on the core invariants.

use hb_butterfly::{routing as brouting, Butterfly};
use hb_core::{routing, HbNode, HyperButterfly};
use hb_group::signed::{ButterflyGen, SignedCycle};
use hb_hypercube::{routing as hrouting, Hypercube};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = (u32, u32)> {
    (1u32..=3, 3u32..=5)
}

proptest! {
    /// Generator words and their inverses cancel on any node.
    #[test]
    fn signed_cycle_words_invert(n in 3u32..=10, rot in 0u32..10, mask in 0u32..1024,
                                 word in proptest::collection::vec(0usize..4, 0..20)) {
        let rot = rot % n;
        let mask = mask & ((1 << n) - 1);
        let v = SignedCycle::new(n, rot, mask);
        let mut cur = v;
        for &g in &word {
            cur = cur.apply(ButterflyGen::ALL[g]);
        }
        for &g in word.iter().rev() {
            cur = cur.apply(ButterflyGen::ALL[g].inverse());
        }
        prop_assert_eq!(cur, v);
    }

    /// PI/CI are consistent with the dense index round-trip.
    #[test]
    fn signed_cycle_index_roundtrip(n in 3u32..=10, idx in 0usize..10240) {
        let idx = idx % SignedCycle::population(n);
        let v = SignedCycle::from_index(n, idx);
        prop_assert_eq!(v.index(), idx);
        prop_assert!(v.permutation_index() < n);
        prop_assert!(v.complementation_index() < (1 << n));
    }

    /// Hypercube routing: length = Hamming distance; every step flips
    /// exactly one bit.
    #[test]
    fn hypercube_route_is_shortest(m in 1u32..=10, a in 0u32..1024, b in 0u32..1024) {
        let h = Hypercube::new(m).unwrap();
        let a = a & ((1 << m) - 1);
        let b = b & ((1 << m) - 1);
        let p = hrouting::route(&h, a, b);
        prop_assert_eq!(p.len() as u32, h.distance(a, b) + 1);
        for w in p.windows(2) {
            prop_assert_eq!((w[0] ^ w[1]).count_ones(), 1);
        }
    }

    /// Butterfly routing: the algorithmic distance satisfies metric
    /// axioms and the route realises it with valid generator steps.
    #[test]
    fn butterfly_route_realises_distance(n in 3u32..=6, s in 0usize..384, t in 0usize..384) {
        let bf = Butterfly::new(n).unwrap();
        let s = s % bf.num_nodes();
        let t = t % bf.num_nodes();
        let u = bf.node(s);
        let v = bf.node(t);
        let d = brouting::distance(&bf, u, v);
        prop_assert_eq!(d, brouting::distance(&bf, v, u)); // symmetry
        let p = brouting::route(&bf, u, v);
        prop_assert_eq!(p.len() as u32, d + 1);
        for w in p.windows(2) {
            prop_assert!(w[0].neighbors().contains(&w[1]), "invalid step");
        }
        prop_assert!(d <= bf.diameter());
    }

    /// Hyper-butterfly distance = hypercube distance + butterfly distance
    /// (Remark 8), and the route is a valid walk of that length.
    #[test]
    fn hb_distance_decomposes((m, n) in arb_dims(), s in 0usize..4096, t in 0usize..4096) {
        let hb = HyperButterfly::new(m, n).unwrap();
        let s = s % hb.num_nodes();
        let t = t % hb.num_nodes();
        let u = hb.node(s);
        let v = hb.node(t);
        let d = routing::distance(&hb, u, v);
        let dh = hb.cube().distance(u.h, v.h);
        let db = brouting::distance(hb.butterfly(), u.b, v.b);
        prop_assert_eq!(d, dh + db);
        let p = routing::route(&hb, u, v);
        prop_assert_eq!(p.len() as u32, d + 1);
        for w in p.windows(2) {
            prop_assert!(hb.edge_kind(w[0], w[1]).is_some());
        }
    }

    /// Neighbors are mutual and the degree is exactly m + 4.
    #[test]
    fn hb_neighbors_are_mutual((m, n) in arb_dims(), s in 0usize..4096) {
        let hb = HyperButterfly::new(m, n).unwrap();
        let v = hb.node(s % hb.num_nodes());
        let nbrs = hb.neighbors(v);
        prop_assert_eq!(nbrs.len() as u32, m + 4);
        for w in &nbrs {
            prop_assert!(hb.neighbors(*w).contains(&v), "symmetry");
            prop_assert!(hb.edge_kind(v, *w).is_some());
        }
        // All distinct.
        let set: std::collections::HashSet<usize> =
            nbrs.iter().map(|w| hb.index(*w)).collect();
        prop_assert_eq!(set.len(), nbrs.len());
    }

    /// Theorem-5 families validate for arbitrary pairs (validation is
    /// built into `paths`; this exercises random inputs across cases).
    #[test]
    fn hb_disjoint_families_hold(s in 0usize..96, t in 0usize..96) {
        let hb = HyperButterfly::new(2, 3).unwrap();
        let eng = hb_core::disjoint::DisjointEngine::new(hb).unwrap();
        prop_assume!(s != t);
        let fam = eng.paths(hb.node(s), hb.node(t)).unwrap();
        prop_assert_eq!(fam.len(), 6);
    }

    /// Even-cycle embedding works for arbitrary even lengths in range.
    #[test]
    fn hb_even_cycles_hold(k in 2usize..=24) {
        let hb = HyperButterfly::new(1, 3).unwrap(); // 48 nodes
        let k = 2 * k; // 4..=48, even
        let g = hb.build_graph().unwrap();
        let cyc = hb_core::embed::even_cycle(&hb, k).unwrap();
        prop_assert_eq!(cyc.len(), k);
        hb_graphs::embedding::validate_cycle(&g, &cyc).unwrap();
    }

    /// Display labels round-trip through the structural data they encode.
    #[test]
    fn hb_node_display_is_stable((m, n) in arb_dims(), s in 0usize..4096) {
        let hb = HyperButterfly::new(m, n).unwrap();
        let v = hb.node(s % hb.num_nodes());
        let shown = v.to_string();
        prop_assert!(shown.starts_with('('));
        prop_assert!(shown.contains(';'));
        // Same index, same label; different index, different label.
        let v2 = hb.node(hb.index(v));
        prop_assert_eq!(v2, v);
        prop_assert_eq!(v2.to_string(), shown);
    }
}

#[test]
fn hb_node_new_matches_parts() {
    let hb = HyperButterfly::new(2, 3).unwrap();
    let b = hb.butterfly().node(7);
    let v = HbNode::new(3, b);
    assert_eq!(v.h, 3);
    assert_eq!(v.b, b);
    assert_eq!(hb.node(hb.index(v)), v);
}

proptest! {
    /// Telemetry histogram quantiles are bracketed by the true order
    /// statistics of the recorded samples: for every requested quantile
    /// `q`, the exact rank-`ceil(q * count)` sample lies inside the
    /// interval returned by `quantile_bounds`, and `quantile` (the upper
    /// edge) never under-reports.
    #[test]
    fn telemetry_quantiles_bracket_order_statistics(
        mut samples in proptest::collection::vec(0u64..2_000_000, 1..200),
        q in 0.01f64..1.0,
    ) {
        let mut h = hb_telemetry::Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let truth = samples[rank - 1];
        let (lo, hi) = h.quantile_bounds(q).unwrap();
        prop_assert!(lo <= truth && truth <= hi, "q={}: {} not in [{}, {}]", q, truth, lo, hi);
        prop_assert!(h.quantile(q).unwrap() >= truth);
        // Exact extremes survive bucketing.
        prop_assert_eq!(h.min().unwrap(), samples[0]);
        prop_assert_eq!(h.max().unwrap(), *samples.last().unwrap());
    }
}

proptest! {
    /// A `SeriesSet` frozen into a `LinkSeries` store holds, for every
    /// recorded id, exactly the `Series` that recording the id's samples
    /// one by one builds: same windows, evictions and high-watermark
    /// (ties keep the first cycle). The ids are a shard's channels offset
    /// by `lo`, and long streams fill several log chunks. Two sets over
    /// adjacent channel ranges, frozen together as shards are, equal one
    /// set over the union.
    #[test]
    fn series_set_matches_per_sample_series(
        cadence in 1u64..=8,
        capacity in 0usize..5,
        lo in 0usize..1000,
        len in 1usize..40,
        cut in 0usize..40,
        cycles in 1u64..600,
        density in 1u64..=8,
        depth in 1u64..6,
        seed in 0u64..u64::MAX,
    ) {
        use hb_telemetry::{LinkKey, LinkSeries, Series, SeriesSet, TsConfig};
        // Capacity 0 stands for the default 64, which rarely evicts.
        let cfg = TsConfig::new(cadence).with_capacity(if capacity == 0 { 64 } else { capacity });
        let cut = cut.min(len);
        let mut set = SeriesSet::new(cfg, len);
        let mut shards = [SeriesSet::new(cfg, cut), SeriesSet::new(cfg, len - cut)];
        let mut oracle: Vec<Option<Series>> = vec![None; len];
        let mut x = seed;
        let mut draw = |span: u64| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % span
        };
        for cycle in 0..cycles {
            // Each cycle visits a random subset of the channels in
            // ascending order, as the kernel's sample step does.
            for ch in lo..lo + len {
                if draw(8) < density {
                    // Few distinct depths, so high-watermark ties repeat.
                    let value = draw(depth);
                    let id = ch - lo;
                    set.record(id, cycle, value);
                    if id < cut {
                        shards[0].record(id, cycle, value);
                    } else {
                        shards[1].record(id - cut, cycle, value);
                    }
                    oracle[id].get_or_insert_with(|| Series::new(cfg)).record(cycle, value);
                }
            }
        }
        // Channel `ch` runs from node `ch / 4`, so keys ascend with ids.
        let keys: Vec<LinkKey> = (lo..lo + len)
            .map(|ch| LinkKey { from: (ch / 4) as u32, to: ch as u32 })
            .collect();
        let store = LinkSeries::freeze([(set, &keys[..])]);
        let got: Vec<(LinkKey, Series)> =
            store.iter().map(|(k, v)| (k, v.to_series())).collect();
        let want: Vec<(LinkKey, Series)> = oracle
            .into_iter()
            .zip(&keys)
            .filter_map(|(s, &k)| s.map(|s| (k, s)))
            .collect();
        prop_assert_eq!(got, want);
        let [a, b] = shards;
        let sharded = LinkSeries::freeze([(a, &keys[..cut]), (b, &keys[cut..])]);
        prop_assert_eq!(sharded, store);
    }
}

/// The bytes the baseline reader's grammar is made of (plus a split
/// UTF-8 sequence), so generated text reaches escapes, surrogates,
/// numbers and nesting instead of failing at its first byte.
const BASELINE_JSON_BYTES: &[u8] = b"{}\":,\\/ubfnrt0123456789abcdefABCDEF.-+eE \n\xc3\xa9\xed";

/// The words and separators of the fault-timeline grammar
/// (`@<cycle> fault|repair node V|link U-V`, `#` comments), with numbers
/// at and past `u64::MAX`.
const TIMELINE_TOKENS: &[&str] = &[
    "@",
    "fault",
    "repair",
    "node",
    "link",
    "-",
    "#",
    " ",
    "\t",
    "\n",
    "\r\n",
    "0",
    "7",
    "42",
    "18446744073709551615",
    "18446744073709551616",
    "x",
];

/// The keys, values and separators of the `--slo` grammar
/// (`key=value` pairs joined by commas).
const SLO_TOKENS: &[&str] = &[
    "p99",
    "delivered",
    "queue",
    "unroutable",
    "=",
    ",",
    "0",
    "1",
    "0.5",
    "1.5",
    "-",
    "e",
    ".",
    "nan",
    "inf",
    "+",
    " ",
    "18446744073709551616",
];

/// Concatenates the picked tokens.
fn token_soup(tokens: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| tokens[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Baseline::parse` — the reader behind `hbnet diff` and
    /// `bench --check` — answers `Ok` or `Err` on any input and never
    /// panics: arbitrary bytes, text over its own alphabet, and that
    /// text under up to 50,000 nested objects.
    #[test]
    fn baseline_parse_never_panics(
        raw in proptest::collection::vec(0u8..=255, 0..64),
        picks in proptest::collection::vec(0usize..BASELINE_JSON_BYTES.len(), 0..96),
        depth in 0usize..50_000,
    ) {
        use hb_bench::baseline::Baseline;
        let _ = Baseline::parse(&String::from_utf8_lossy(&raw));
        let soup: Vec<u8> = picks.iter().map(|&i| BASELINE_JSON_BYTES[i]).collect();
        let soup = String::from_utf8_lossy(&soup);
        let _ = Baseline::parse(&soup);
        let _ = Baseline::parse(&format!("{}{soup}", "{\"k\":".repeat(depth)));
    }

    /// `FaultTimeline::parse` (the `--fault-timeline` file reader) and
    /// `SloSpec::parse` (the `--slo` reader) answer `Ok` or `Err` on
    /// arbitrary bytes and on text over their own grammars, and never
    /// panic.
    #[test]
    fn timeline_and_slo_parse_never_panic(
        raw in proptest::collection::vec(0u8..=255, 0..64),
        timeline_picks in proptest::collection::vec(0usize..TIMELINE_TOKENS.len(), 0..48),
        slo_picks in proptest::collection::vec(0usize..SLO_TOKENS.len(), 0..24),
    ) {
        use hb_netsim::FaultTimeline;
        use hb_telemetry::SloSpec;
        let raw = String::from_utf8_lossy(&raw);
        let _ = FaultTimeline::parse(&raw);
        let _ = SloSpec::parse(&raw);
        let _ = FaultTimeline::parse(&token_soup(TIMELINE_TOKENS, &timeline_picks));
        let _ = SloSpec::parse(&token_soup(SLO_TOKENS, &slo_picks));
    }

    /// A nondecreasing event list rendered in the documented grammar,
    /// with comments, blank lines and runs of spaces and tabs, parses
    /// back to the same events, links normalized to `(min, max)`.
    #[test]
    fn timeline_parse_round_trips(
        events in proptest::collection::vec(
            (0u64..4, 0u8..4, (0usize..5000, 0usize..5000), 0usize..16),
            0..24,
        ),
    ) {
        use hb_netsim::{FaultEventKind, FaultTarget, FaultTimeline};
        const GAPS: [&str; 4] = [" ", "  ", "\t", " \t "];
        let mut text = String::from("# generated timeline\n");
        let mut want = FaultTimeline::new();
        let mut cycle = 0u64;
        for &(step, what, (u, v), style) in &events {
            cycle += step;
            let (word, kind) = if what & 1 == 0 {
                ("fault", FaultEventKind::Fault)
            } else {
                ("repair", FaultEventKind::Repair)
            };
            let gap = GAPS[style % 4];
            let (target, noun) = if what & 2 == 0 {
                (FaultTarget::Node(u), format!("node{gap}{u}"))
            } else {
                (FaultTarget::Link(u, v), format!("link{gap}{u}-{v}"))
            };
            want.push(cycle, kind, target);
            if style & 4 != 0 {
                text.push_str("\n   \n# @0 fault node 1, a commented-out event\n");
            }
            text.push_str(&format!("{gap}@{cycle}{gap}{word}{gap}{noun}{gap}"));
            if style & 8 != 0 {
                text.push_str("# trailing comment");
            }
            text.push('\n');
        }
        prop_assert_eq!(FaultTimeline::parse(&text), Ok(want));
    }

    /// A random SLO spec rendered as `key=value` pairs in any order
    /// parses back equal.
    #[test]
    fn slo_parse_round_trips(
        p99 in (0u8..2, 0u64..=u64::MAX),
        delivered in (0u8..2, 0.0f64..1.0),
        queue in (0u8..2, 0u64..=u64::MAX),
        unroutable in (0u8..2, 0u64..=u64::MAX),
        order in proptest::collection::vec(0u64..1000, 4..5),
    ) {
        use hb_telemetry::SloSpec;
        let keep = |(on, value)| (on == 1).then_some(value);
        let want = SloSpec {
            max_p99_latency: keep(p99),
            min_delivered_fraction: (delivered.0 == 1).then_some(delivered.1),
            max_queue_depth: keep(queue),
            max_unroutable: keep(unroutable),
        };
        let mut pairs = vec![
            (order[0], want.max_p99_latency.map(|v| format!("p99={v}"))),
            (order[1], want.min_delivered_fraction.map(|v| format!("delivered={v}"))),
            (order[2], want.max_queue_depth.map(|v| format!("queue={v}"))),
            (order[3], want.max_unroutable.map(|v| format!("unroutable={v}"))),
        ];
        pairs.sort_by_key(|&(rank, _)| rank);
        let text: Vec<String> = pairs.into_iter().filter_map(|(_, pair)| pair).collect();
        prop_assert_eq!(SloSpec::parse(&text.join(",")), Ok(want));
    }
}
