//! Edge forwarding index — the static congestion of a routing scheme.
//!
//! The paper motivates `HB(m, n)` for VLSI multiprocessors; a key static
//! quality measure for such fabrics is the **edge forwarding index**: the
//! maximum, over directed channels, of the number of all-pairs routes
//! crossing that channel. Together with the mean it captures how evenly
//! the topology's oblivious router spreads traffic — a regular Cayley
//! graph with a symmetric router should be nearly uniform, while the
//! hyper-deBruijn's irregular nodes concentrate routes.

use crate::sim::channel_offsets;
use crate::topology::NetTopology;

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
/// all ordered pairs of distinct nodes, one source at a time on the
/// calling thread.
pub fn edge_forwarding_index(topo: &dyn NetTopology) -> ForwardingReport {
    let g = topo.graph();
    let n = g.num_nodes();
    let offsets = channel_offsets(g);
    let channels = offsets[n];

    let mut counts = vec![0u64; channels];
    for src in 0..n {
        for dst in 0..n {
            if dst == src {
                continue;
            }
            let route = topo.route(src, dst);
            for w in route.windows(2) {
                let port = g
                    .neighbors(w[0])
                    .binary_search(&(w[1] as u32))
                    .expect("invariant: route steps are edges of the topology");
                counts[offsets[w[0]] + port] += 1;
            }
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HyperDeBruijnNet, HypercubeNet};

    #[test]
    fn hypercube_forwarding_is_perfectly_uniform() {
        // Bit-fix routing on H_m is edge-symmetric: every channel carries
        // the same number of routes.
        let t = HypercubeNet::new(4).unwrap();
        let r = edge_forwarding_index(&t);
        assert!(r.cv < 1e-9, "cv = {}", r.cv);
        // Total channel crossings = sum of all distances = mean * channels.
        // Mean distance on H_4 is 2 over ordered pairs... verify via sum:
        // sum_{pairs} d = n * m * 2^(m-1) ... spot-check the mean instead.
        assert!(r.mean > 0.0);
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
