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
    /// A `SeriesSet` returns, for every recorded id, exactly the `Series`
    /// that recording the id's samples one by one builds: same windows,
    /// evictions and high-watermark (ties keep the first cycle). The ids
    /// are a shard's channels offset by `lo`, and long streams fill
    /// several log chunks.
    #[test]
    fn series_set_matches_per_sample_series(
        cadence in 1u64..=8,
        capacity in 0usize..5,
        lo in 0usize..1000,
        len in 1usize..40,
        cycles in 1u64..600,
        density in 1u64..=8,
        depth in 1u64..6,
        seed in 0u64..u64::MAX,
    ) {
        use hb_telemetry::{Series, SeriesSet, TsConfig};
        // Capacity 0 stands for the default 64, which rarely evicts.
        let cfg = TsConfig::new(cadence).with_capacity(if capacity == 0 { 64 } else { capacity });
        let mut set = SeriesSet::new(cfg, len);
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
                    set.record(ch - lo, cycle, value);
                    oracle[ch - lo].get_or_insert_with(|| Series::new(cfg)).record(cycle, value);
                }
            }
        }
        let got: Vec<(usize, Series)> = set.into_series().collect();
        let want: Vec<(usize, Series)> = oracle
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s)))
            .collect();
        prop_assert_eq!(got, want);
    }
}
