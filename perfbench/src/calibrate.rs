//! Host-speed calibration.
//!
//! The benchmark runs on small VMs that share their cores with other
//! tenants. Their speed switches between a fast and a slow state every
//! few seconds (the slow one is about 1.5× slower, as when the core's
//! hyperthread sibling is busy on the host), and the share of time spent
//! in each drifts over minutes, far more than a regression bound can
//! absorb. So every timed set-up and operation is bracketed by a fixed
//! kernel of the benchmark's own — no code of the program under test, so
//! no change to the program moves it — and its time is scaled by the
//! kernel's reference time over the kernel's time around it. A change
//! that makes the program faster still shows in full; a host that is
//! slower for a while slows the kernel as much and cancels out.
//!
//! The kernel sorts random keys that fit in the core's private cache:
//! branchy compute, which the slow state slows by the same factor as the
//! simulator and the graph layer. A walk over main memory tracked them
//! worse (the slow state hardly slows memory latency).

use std::hint::black_box;
use std::time::Instant;

/// Keys per sort (1 MiB of `u64`, inside a 2 MiB private cache).
const SORT_LEN: usize = 1 << 17;
/// Sorts of a fresh copy per kernel run.
const ROUNDS: usize = 8;
/// The kernel's time on the reference machine, a 2-vCPU Xeon VM
/// (Sapphire Rapids, 2.0 GHz) in its fast state, release profile.
/// Calibrated times read as seconds on that machine in that state.
pub const REFERENCE_S: f64 = 0.020;

/// SplitMix64, seeded with a constant: the kernel's inputs never change.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The calibration kernel, its fixed input and its sort buffer (kept, so
/// a run allocates nothing and touches no fresh pages).
pub struct Kernel {
    keys: Vec<u64>,
    buf: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Builds the kernel's input (untimed).
    pub fn new() -> Kernel {
        let mut state = 0x5EED_CA11_B7A7_E000;
        let keys: Vec<u64> = (0..SORT_LEN).map(|_| splitmix(&mut state)).collect();
        Kernel {
            buf: keys.clone(),
            keys,
        }
    }

    /// One run of the kernel; returns a checksum so nothing is elided.
    pub fn run(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..ROUNDS {
            self.buf.copy_from_slice(&self.keys);
            self.buf.sort_unstable();
            sum = sum.wrapping_add(black_box(self.buf[SORT_LEN / 2]));
        }
        sum
    }

    /// Wall seconds of one kernel run.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64()
    }
}

/// `seconds` measured while the kernel took `kernel_s`, expressed in
/// seconds of the reference machine.
pub fn scale(seconds: f64, kernel_s: f64) -> f64 {
    seconds * REFERENCE_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let mut k = Kernel::new();
        let mut sorted = k.keys.clone();
        sorted.sort_unstable();
        let middle = sorted[SORT_LEN / 2];
        assert_eq!(k.run(), middle.wrapping_mul(ROUNDS as u64));
    }

    #[test]
    fn scale_is_relative_to_the_reference() {
        assert_eq!(scale(2.0, REFERENCE_S), 2.0);
        assert_eq!(scale(2.0, 2.0 * REFERENCE_S), 1.0);
    }
}
