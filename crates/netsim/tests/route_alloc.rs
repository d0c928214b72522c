//! Proves the oblivious routers route without allocating: once a
//! caller's buffer has grown to the longest route, `route_into` over
//! every ordered pair allocates nothing, and the forwarding index — which
//! routes every ordered pair — allocates a fixed handful of times rather
//! than once or more per pair.
//!
//! This is the only test in this file: the global counting allocator
//! must not race with unrelated tests.

use hb_netsim::forwarding::edge_forwarding_index;
use hb_netsim::topology::{
    ButterflyNet, HbRouteOrder, HyperButterflyNet, HypercubeNet, NetTopology,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `f` alongside its result.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Routes every ordered pair (self-pairs included) into `buf`, clearing
/// it before each route; returns the total route length.
fn route_all_pairs(topo: &dyn NetTopology, buf: &mut Vec<usize>) -> usize {
    let n = topo.num_nodes();
    let mut nodes = 0;
    for src in 0..n {
        for dst in 0..n {
            buf.clear();
            topo.route_into(src, dst, buf);
            nodes += buf.len();
        }
    }
    nodes
}

#[test]
fn routers_route_into_a_reused_buffer_without_allocating() {
    let nets: Vec<Box<dyn NetTopology>> = vec![
        Box::new(HypercubeNet::new(5).unwrap()),
        Box::new(ButterflyNet::new(4).unwrap()),
        Box::new(HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()),
        Box::new(HyperButterflyNet::new(2, 3, HbRouteOrder::ButterflyFirst).unwrap()),
    ];
    let mut buf = Vec::new();
    for t in &nets {
        // The warm-up pass grows the buffer to the longest route.
        let want = route_all_pairs(t.as_ref(), &mut buf);
        let (allocs, nodes) = count_allocs(|| route_all_pairs(t.as_ref(), &mut buf));
        assert_eq!(nodes, want, "{}", t.name());
        assert_eq!(allocs, 0, "{}: route_into allocated", t.name());
    }

    // 65,280 routed pairs: per-pair allocation would cost tens of
    // thousands; the channel layout, the counters, one route buffer and
    // the report's name cost a few dozen at most.
    let hb = HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst).unwrap();
    let (allocs, report) = count_allocs(|| edge_forwarding_index(&hb));
    assert_eq!(report.pairs, 65_280);
    assert!(
        allocs < 64,
        "edge_forwarding_index allocated {allocs} times for {} pairs",
        report.pairs
    );
}
