//! The tentpole memory claim, asserted: simulating a **million-node**
//! `HB(7, 10)` (1,310,720 nodes, ~14.4M directed channels) under the
//! implicit topology materialises channel records proportional to the
//! *active traffic*, never to the topology — a thousand packets touch
//! on the order of a thousand channels, while dense storage would
//! allocate all fourteen million up front.

use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, NetTopology};
use hb_netsim::{run_with_mem, Injection, SimConfig};

/// A fixed-count deterministic workload (no RNG): `packets` arithmetic
/// src/dst pairs spread over `cycles` injection cycles.
fn arithmetic_workload(nn: usize, cycles: u64, packets: usize) -> Vec<Injection> {
    let per_cycle = (packets as u64).div_ceil(cycles.max(1)) as usize;
    let mut inj = Vec::with_capacity(packets);
    let mut i = 0u64;
    'fill: for at in 0..cycles {
        for _ in 0..per_cycle {
            let src = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as usize % nn;
            let dst = (i.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 13) as usize % nn;
            i += 1;
            if src != dst {
                inj.push(Injection { src, dst, at });
            }
            if inj.len() == packets {
                break 'fill;
            }
        }
    }
    inj
}

#[test]
fn million_node_memory_is_bounded_by_active_traffic() {
    const PACKETS: usize = 1000;
    let t = HyperButterflyNet::implicit(7, 10, HbRouteOrder::CubeFirst).unwrap();
    assert!(
        t.num_nodes() >= 1_000_000,
        "HB(7, 10) is the million-node shape"
    );
    let inj = arithmetic_workload(t.num_nodes(), 20, PACKETS);
    let cfg = SimConfig::bounded(10_000);
    let (stats, mem) = run_with_mem(&t, &inj, cfg);
    assert_eq!(stats.delivered, stats.offered, "all packets deliver");
    assert!(stats.offered >= 990, "workload is ~{PACKETS} packets");
    // The topology has ~14.4M channels; the run may touch only O(active
    // packets) of them. Each in-flight packet occupies one channel and
    // admits credit on at most one more, so 2x in-flight is a hard
    // ceiling — and in-flight never exceeds the offered packet count.
    assert!(
        mem.num_channels > 14_000_000,
        "dense storage would need {} records",
        mem.num_channels
    );
    assert!(
        mem.peak_channel_records <= 2 * PACKETS,
        "peak {} channel records exceeds the active-traffic bound {}",
        mem.peak_channel_records,
        2 * PACKETS
    );
    // And the store's heap footprint reflects the sparse bound, not the
    // channel count (dense u32 queues alone would spine >100 MB).
    assert!(
        mem.channel_store_bytes < 4 << 20,
        "channel store holds {} bytes",
        mem.channel_store_bytes
    );
}

#[test]
fn sparse_records_recycle_across_waves() {
    // Two well-separated waves re-use the same records: the peak is set
    // by one wave's concurrency, not by the union of channels touched.
    const PACKETS: usize = 200;
    let t = HyperButterflyNet::implicit(5, 6, HbRouteOrder::CubeFirst).unwrap();
    let nn = t.num_nodes();
    let mut inj = arithmetic_workload(nn, 1, PACKETS);
    let mut second: Vec<Injection> = arithmetic_workload(nn, 1, PACKETS)
        .into_iter()
        .map(|p| Injection {
            src: (p.src + nn / 2) % nn,
            dst: (p.dst + nn / 3) % nn,
            at: 200,
        })
        .filter(|p| p.src != p.dst)
        .collect();
    inj.append(&mut second);
    let (stats, mem) = run_with_mem(&t, &inj, SimConfig::bounded(10_000));
    assert_eq!(stats.delivered, stats.offered);
    assert!(
        mem.peak_channel_records <= 2 * PACKETS,
        "peak {} exceeds one wave's bound {} — records are not recycled",
        mem.peak_channel_records,
        2 * PACKETS
    );
}
