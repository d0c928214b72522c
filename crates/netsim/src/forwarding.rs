//! Edge forwarding index — the static congestion of a routing scheme.
//!
//! The paper motivates `HB(m, n)` for VLSI multiprocessors; a key static
//! quality measure for such fabrics is the **edge forwarding index**: the
//! maximum, over directed channels, of the number of all-pairs routes
//! crossing that channel. Together with the mean it captures how evenly
//! the topology's oblivious router spreads traffic. On `HB(m, n)` a
//! channel's load is constant on its translation orbit
//! ([`NetTopology::translate_home`]): on `HB(3, 4)` cube-first that is 28
//! classes, one per generator and tail rotation, where every cube channel
//! carries 256 routes and the butterfly loads run from 232 to 672 by
//! rotation. The hyper-deBruijn's irregular nodes concentrate routes.

use crate::sim::ChanLayout;
use crate::topology::{NetTopology, MAX_PRODUCTIVE};
use hb_graphs::NodeId;

/// Forwarding-index statistics for one topology + router.
#[derive(Clone, Debug, PartialEq)]
pub struct ForwardingReport {
    /// Topology name.
    pub name: String,
    /// Maximum routes over any directed channel.
    pub max: u64,
    /// Mean routes per directed channel.
    pub mean: f64,
    /// Coefficient of variation (stddev / mean) — 0 for perfectly uniform.
    pub cv: f64,
    /// Number of directed channels.
    pub channels: usize,
    /// Routed pairs (all ordered pairs of distinct nodes).
    pub pairs: u64,
}

/// Computes the forwarding index under the topology's own router, over
/// all ordered pairs of distinct nodes, on the calling thread. Channels
/// are numbered as the simulator numbers them, so graph-free topologies
/// work too, and every route is written into one reused buffer.
///
/// A topology that declares translations
/// ([`NetTopology::translate_home`]) is routed from its orbit
/// representatives alone, with every channel given its orbit's total;
/// any other routes every ordered pair. Both fill the same per-channel
/// loads, so the report is the same to the bit.
///
/// # Panics
/// Panics if a route step is not an edge of the topology.
pub fn edge_forwarding_index(topo: &dyn NetTopology) -> ForwardingReport {
    let n = topo.num_nodes();
    let layout = ChanLayout::new(topo);
    let channels = layout.num_channels();
    let counts = if topo.translate_home(0, 0).is_some() {
        orbit_counts(topo, &layout)
    } else {
        all_pairs_counts(topo, &layout)
    };

    let total: u64 = counts.iter().sum();
    let mean = total as f64 / channels as f64;
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / channels as f64;
    ForwardingReport {
        name: topo.name().to_string(),
        max: counts.iter().copied().max().unwrap_or(0),
        mean,
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        channels,
        pairs: (n as u64) * (n as u64 - 1),
    }
}

/// Routes `src` to every other node into `route`, calling `hop` with
/// each step's tail and head.
fn for_each_hop_from(
    topo: &dyn NetTopology,
    src: NodeId,
    route: &mut Vec<NodeId>,
    mut hop: impl FnMut(NodeId, NodeId),
) {
    for dst in (0..topo.num_nodes()).filter(|&dst| dst != src) {
        route.clear();
        topo.route_into(src, dst, route);
        for w in route.windows(2) {
            hop(w[0], w[1]);
        }
    }
}

/// Per-channel loads from one route per ordered pair.
fn all_pairs_counts(topo: &dyn NetTopology, layout: &ChanLayout<'_>) -> Vec<u64> {
    let mut counts = vec![0u64; layout.num_channels()];
    let mut route = Vec::new();
    for src in 0..topo.num_nodes() {
        for_each_hop_from(topo, src, &mut route, |u, v| {
            counts[layout.channel_of(u, v)] += 1;
        });
    }
    counts
}

/// Per-channel loads from the orbit representatives' routes alone. A
/// pair's route is the translate of its representative's, so each hop
/// stands for its whole channel orbit: it is added to the orbit's
/// channel whose tail is a representative, and every channel then reads
/// its orbit's total from there.
fn orbit_counts(topo: &dyn NetTopology, layout: &ChanLayout<'_>) -> Vec<u64> {
    let home = |u, v| {
        topo.translate_home(u, v)
            .expect("invariant: a topology with translations answers every pair")
    };
    let n = topo.num_nodes();
    let mut counts = vec![0u64; layout.num_channels()];
    let mut route = Vec::new();
    for src in (0..n).filter(|&src| home(src, src).0 == src) {
        for_each_hop_from(topo, src, &mut route, |u, v| {
            let (u, v) = home(u, v);
            counts[layout.channel_of(u, v)] += 1;
        });
    }
    // A representative's channels map to themselves, so the orbit totals
    // are still in place when any other channel copies one.
    let mut nbrs = [0 as NodeId; MAX_PRODUCTIVE];
    for u in 0..n {
        let first = layout.node_first_channel(u);
        let degree = topo.neighbors_into(u, &mut nbrs);
        for (port, &v) in nbrs[..degree].iter().enumerate() {
            let (hu, hv) = home(u, v);
            counts[first + port] = counts[layout.channel_of(hu, hv)];
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HyperDeBruijnNet, HypercubeNet};
    use std::collections::BTreeMap;

    #[test]
    fn hypercube_forwarding_is_perfectly_uniform() {
        // Bit-fix routing on H_m is edge-symmetric: every channel carries
        // the same number of routes. The ordered pairs' distances sum to
        // 2^m * m * 2^(m-1) = 16 * 4 * 8 = 512 crossings over the
        // 2^m * m = 64 channels, so each carries exactly 8.
        let t = HypercubeNet::new(4).unwrap();
        let r = edge_forwarding_index(&t);
        assert_eq!(r.channels, 64);
        assert_eq!(r.pairs, 16 * 15);
        assert_eq!(r.max, 8);
        assert_eq!(r.mean, 8.0);
        assert_eq!(r.cv, 0.0);
    }

    #[test]
    fn butterfly_first_carries_the_same_total_load() {
        // Remark 8: both leg orders route every pair along a shortest
        // path, so the total hops agree; only their spread differs.
        let cube_net = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst).unwrap();
        let bfly_net = HyperButterflyNet::new(2, 4, HbRouteOrder::ButterflyFirst).unwrap();
        // The routes do differ: from the identity to the last node, the
        // cube-first route leaves the source's butterfly slice at once,
        // the butterfly-first one stays in it.
        let hb = cube_net.topology();
        let (s, d) = (0, hb.num_nodes() - 1);
        assert_ne!(hb.node(cube_net.route(s, d)[1]).h, 0);
        assert_eq!(hb.node(bfly_net.route(s, d)[1]).h, 0);
        let cube = edge_forwarding_index(&cube_net);
        let bfly = edge_forwarding_index(&bfly_net);
        let total = |r: &ForwardingReport| (r.mean * r.channels as f64).round() as u64;
        assert_eq!(total(&bfly), total(&cube));
        assert_eq!((bfly.channels, bfly.pairs), (cube.channels, cube.pairs));
        assert_eq!(total(&bfly), 286_720);
        assert_eq!(bfly.max, 336);
    }

    #[test]
    fn graph_free_adapter_matches_the_materialised_one() {
        for (m, n) in [(1, 3), (2, 3)] {
            let exp = HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst).unwrap();
            let imp = HyperButterflyNet::implicit(m, n, HbRouteOrder::CubeFirst).unwrap();
            assert_eq!(
                edge_forwarding_index(&imp),
                edge_forwarding_index(&exp),
                "HB({m}, {n})"
            );
        }
    }

    #[test]
    fn hb_forwarding_is_more_uniform_than_hd() {
        let hb = HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap();
        let hd = HyperDeBruijnNet::new(1, 4).unwrap();
        let rb = edge_forwarding_index(&hb);
        let rd = edge_forwarding_index(&hd);
        // The regular Cayley graph spreads routes more evenly than the
        // irregular baseline (its router also funnels through 0..0/1..1).
        assert!(rb.cv < rd.cv, "HB cv {} vs HD cv {}", rb.cv, rd.cv);
    }

    /// What the orbit path rests on, read off the all-pairs loop: every
    /// `HB(3, 4)` channel carries the load of its orbit's channel from a
    /// representative. Those are 4 × 7 channels, one per tail rotation
    /// and generator; cube channels carry 256 routes each, butterfly
    /// channels 232 to 672 by rotation.
    #[test]
    fn hb_loads_are_constant_on_translation_orbits() {
        let t = HyperButterflyNet::new(3, 4, HbRouteOrder::CubeFirst).unwrap();
        let layout = ChanLayout::new(&t);
        let counts = all_pairs_counts(&t, &layout);
        let hb = t.topology();
        let mut classes = BTreeMap::new();
        let mut nbrs = [0; MAX_PRODUCTIVE];
        for u in 0..t.num_nodes() {
            let k = t.neighbors_into(u, &mut nbrs);
            for &v in &nbrs[..k] {
                let (hu, hv) = t.translate_home(u, v).unwrap();
                let load = counts[layout.channel_of(hu, hv)];
                assert_eq!(counts[layout.channel_of(u, v)], load, "{u} -> {v}");
                classes.insert((hu, hv), (hb.node(u).h != hb.node(v).h, load));
            }
        }
        assert_eq!(classes.len(), 28);
        let loads = |cube| classes.values().filter(move |c| c.0 == cube).map(|c| c.1);
        assert!(loads(true).all(|load| load == 256));
        assert_eq!(loads(false).min(), Some(232));
        assert_eq!(loads(false).max(), Some(672));
    }

    #[test]
    fn forwarding_total_equals_total_route_length() {
        let t = HypercubeNet::new(3).unwrap();
        let r = edge_forwarding_index(&t);
        // Sum over channels of counts = sum over pairs of route length =
        // sum of Hamming distances = m * 2^(m-1) * 2^m ordered = 3*4*8=96.
        let total = (r.mean * r.channels as f64).round() as u64;
        assert_eq!(total, 96);
    }
}
