//! Optimal point-to-point routing in the wrapped butterfly.
//!
//! In classic coordinates a node is `(word, level)`; a move changes the
//! level by `±1` (mod `n`) and *may* flip exactly the word bit indexed by
//! the gap it crosses — bit `i` can only change while moving between
//! levels `i` and `i + 1 (mod n)`. Routing from `(w_s, l_s)` to
//! `(w_t, l_t)` is therefore exactly the problem of finding a minimum
//! walk on the *level cycle* `Z_n` from `l_s` to `l_t` that traverses
//! every **marked gap** — the gaps indexed by set bits of `w_s ^ w_t` —
//! at least once (a gap crossed more than once simply flips its bit an
//! odd number of times in total, i.e. exactly once when we choose so).
//!
//! The minimum covering walk on a cycle has a closed combinatorial form:
//!
//! * either the walk omits at least one (necessarily unmarked) gap `e`,
//!   and is then confined to the path `Z_n - e`, where the optimum is the
//!   classic "sweep left then right (or vice versa)" excursion cost; or
//! * the walk traverses *all* `n` gaps, whose optimum is
//!   `n + cyclic_distance(l_s, l_t)` (a full loop plus the direct hop).
//!
//! Minimising over these candidates gives the exact distance in `O(n)`
//! (each cut candidate's frame is `O(1)` bit arithmetic) and an explicit
//! optimal route; both are verified exhaustively against BFS in the
//! tests, and the induced diameter `n + floor(n/2)` matches the paper's
//! Remark 1.

use crate::cayley::Butterfly;
use hb_group::signed::{ButterflyGen, SignedCycle};

/// A candidate walk plan on the level cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Plan {
    /// Stay on the path obtained by cutting gap `e`; sweep to the near
    /// extreme first (`left_first`), then to the far one, then to target.
    Cut { e: u32, left_first: bool },
    /// Traverse the whole cycle: walk `n + d` steps in one direction.
    FullLoop { clockwise: bool },
}

/// Exact hop distance between two butterfly nodes.
///
/// # Panics
/// Panics (debug) if the nodes come from different dimensions.
pub fn distance(b: &Butterfly, u: SignedCycle, v: SignedCycle) -> u32 {
    debug_assert_eq!(u.n(), b.n());
    debug_assert_eq!(v.n(), b.n());
    dist(u, v)
}

/// Exact hop distance computed purely from the node coordinates — no
/// `Butterfly` handle, no heap allocation, no plan materialisation.
///
/// This is the closed-form kernel of [`distance`]: `O(n)` bit arithmetic
/// on the `(word, level)` coordinates, suitable for per-hop use in
/// simulator hot paths.
///
/// # Panics
/// Panics (debug) if the nodes come from different dimensions.
#[inline]
pub fn dist(u: SignedCycle, v: SignedCycle) -> u32 {
    debug_assert_eq!(u.n(), v.n());
    let (wu, lu) = u.to_word_level();
    let (wv, lv) = v.to_word_level();
    dist_word_level(u.n(), wu, lu, wv, lv)
}

/// Closed-form butterfly distance in raw `(word, level)` coordinates
/// (`n <= SignedCycle::MAX_N`, levels below `n`, word bits at or above
/// `n` ignored).
///
/// Minimises over the same candidate set as [`best_plan`]: the two
/// full-loop walks (`n + cyclic_distance`) and, for every unmarked gap
/// `e`, the optimal sweep on the cut-open path `Z_n - e`.
pub fn dist_word_level(n: u32, wu: u32, lu: u32, wv: u32, lv: u32) -> u32 {
    let marks = (wu ^ wv) & low_bits(n);
    let cw = wrap(lv + n - lu, n);
    let ccw = wrap(lu + n - lv, n);
    let mut best = n + cw.min(ccw);
    for e in cut_gaps(n, marks) {
        let (s, t, lo, hi) = cut_frame(n, lu, lv, marks, e);
        let cost = (hi - lo) + ((s - lo) + (hi - t)).min((hi - s) + (t - lo));
        best = best.min(cost);
    }
    best
}

/// An optimal (shortest) route from `u` to `v`, as the full node sequence
/// including both endpoints.
pub fn route(b: &Butterfly, u: SignedCycle, v: SignedCycle) -> Vec<SignedCycle> {
    debug_assert_eq!(u.n(), b.n());
    let (cost, plan) = best_plan(u, v);
    let path = execute_plan(b, u, v, plan);
    debug_assert_eq!(path.len() as u32, cost + 1);
    path
}

/// Finds the cheapest plan; returns `(cost, plan)`. Ties keep the first
/// candidate: the full loop, then cuts by ascending gap.
fn best_plan(u: SignedCycle, v: SignedCycle) -> (u32, Plan) {
    debug_assert_eq!(u.n(), v.n());
    let n = u.n();
    let (wu, lu) = u.to_word_level();
    let (wv, lv) = v.to_word_level();
    let marks = wu ^ wv;

    // Full-loop candidates.
    let cw = wrap(lv + n - lu, n);
    let ccw = wrap(lu + n - lv, n);
    let mut best = if cw <= ccw {
        (n + cw, Plan::FullLoop { clockwise: true })
    } else {
        (n + ccw, Plan::FullLoop { clockwise: false })
    };

    // Cut candidates: omit each unmarked gap.
    for e in cut_gaps(n, marks) {
        let (s, t, lo, hi) = cut_frame(n, lu, lv, marks, e);
        let left_first = (s - lo) + (hi - t) <= (hi - s) + (t - lo);
        let cost = (hi - lo)
            + if left_first {
                (s - lo) + (hi - t)
            } else {
                (hi - s) + (t - lo)
            };
        if cost < best.0 {
            best = (cost, Plan::Cut { e, left_first });
        }
    }
    best
}

/// The low `n` bits set.
#[inline]
fn low_bits(n: u32) -> u32 {
    (1 << n) - 1
}

/// `x mod n` for `x < 2n`.
#[inline]
fn wrap(x: u32, n: u32) -> u32 {
    if x >= n {
        x - n
    } else {
        x
    }
}

/// The unmarked gaps of `Z_n` (the cut candidates), lowest first.
#[inline]
fn cut_gaps(n: u32, marks: u32) -> impl Iterator<Item = u32> {
    let mut free = !marks & low_bits(n);
    std::iter::from_fn(move || {
        (free != 0).then(|| {
            let e = free.trailing_zeros();
            free &= free - 1;
            e
        })
    })
}

/// Computes the path frame after cutting the unmarked gap `e`: positions
/// of source and target (`s`, `t`) and the required sweep interval
/// `[lo, hi]` covering both endpoints and every marked gap.
///
/// Position of level `x` on the cut-open path is `(x - (e + 1)) mod n`;
/// the gap between levels `i` and `i + 1` sits between positions `p` and
/// `p + 1` where `p = pos(i)`. Rotating `marks` right by `e + 1` puts
/// gap `i` at bit `pos(i)` and the cut gap at bit `n - 1`, so the lowest
/// marked gap starts at the trailing-zero count and the highest ends at
/// the bit length.
#[inline]
fn cut_frame(n: u32, lu: u32, lv: u32, marks: u32, e: u32) -> (u32, u32, u32, u32) {
    let r = wrap(e + 1, n);
    let s = wrap(lu + n - r, n);
    let t = wrap(lv + n - r, n);
    let rotated = ((marks >> r) | (marks << (n - r))) & low_bits(n);
    debug_assert!(rotated >> (n - 1) == 0, "gap {e} must be unmarked to cut");
    let lo = s.min(t).min(rotated.trailing_zeros());
    let hi = s.max(t).max(u32::BITS - rotated.leading_zeros());
    (s, t, lo, hi)
}

/// Materialises a plan into the actual node path, flipping each marked gap
/// exactly once (on its first crossing).
fn execute_plan(b: &Butterfly, u: SignedCycle, v: SignedCycle, plan: Plan) -> Vec<SignedCycle> {
    let n = b.n();
    let (wu, lu) = u.to_word_level();
    let (wv, lv) = v.to_word_level();
    let mut pending = wu ^ wv; // gaps still to flip
    let mut path = vec![u];
    let mut cur = u;

    // One step up (+1 level) or down (-1 level), flipping the crossed gap
    // if it is still pending.
    let step = |cur: &mut SignedCycle, pending: &mut u32, up: bool| {
        let level = cur.to_word_level().1;
        let gap = if up { level } else { (level + n - 1) % n };
        let flip = *pending >> gap & 1 == 1;
        if flip {
            *pending &= !(1 << gap);
        }
        *cur = cur.apply(match (up, flip) {
            (true, false) => ButterflyGen::G,
            (true, true) => ButterflyGen::F,
            (false, false) => ButterflyGen::GInv,
            (false, true) => ButterflyGen::FInv,
        });
    };

    match plan {
        Plan::FullLoop { clockwise } => {
            let d = if clockwise {
                (lv + n - lu) % n
            } else {
                (lu + n - lv) % n
            };
            for _ in 0..n + d {
                step(&mut cur, &mut pending, clockwise);
                path.push(cur);
            }
        }
        Plan::Cut { e, left_first } => {
            let marks = wu ^ wv;
            let (s, t, lo, hi) = cut_frame(n, lu, lv, marks, e);
            // Walk in position space; "up" in level space is "+1" in
            // position space (both are the same cyclic direction).
            let mut p = s;
            let mut go = |target: u32, p: &mut u32, path: &mut Vec<SignedCycle>| {
                while *p != target {
                    let up = target > *p;
                    step(&mut cur, &mut pending, up);
                    *p = if up { *p + 1 } else { *p - 1 };
                    path.push(cur);
                }
            };
            if left_first {
                go(lo, &mut p, &mut path);
                go(hi, &mut p, &mut path);
            } else {
                go(hi, &mut p, &mut path);
                go(lo, &mut p, &mut path);
            }
            go(t, &mut p, &mut path);
        }
    }
    debug_assert_eq!(*path.last().expect("path starts non-empty"), v);
    debug_assert_eq!(pending, 0);
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_graphs::embedding::validate_path;
    use hb_graphs::traverse;

    /// Exhaustive cross-check of `distance`/`route` against BFS for all
    /// source-target pairs.
    fn check_all_pairs(n: u32) {
        let b = Butterfly::new(n).unwrap();
        let g = b.build_graph().unwrap();
        for src in 0..b.num_nodes() {
            let tree = traverse::bfs(&g, src);
            let u = b.node(src);
            for dst in 0..b.num_nodes() {
                let v = b.node(dst);
                let d = distance(&b, u, v);
                assert_eq!(d, tree.dist[dst], "n={n} {u} -> {v}");
                let p = route(&b, u, v);
                assert_eq!(p.len() as u32, d + 1);
                assert_eq!(p[0], u);
                assert_eq!(*p.last().unwrap(), v);
                let pu: Vec<usize> = p.iter().map(|x| x.index()).collect();
                validate_path(&g, &pu).unwrap_or_else(|e| panic!("{u} -> {v}: {e}"));
            }
        }
    }

    #[test]
    fn routing_is_optimal_b3() {
        check_all_pairs(3);
    }

    #[test]
    fn routing_is_optimal_b4() {
        check_all_pairs(4);
    }

    #[test]
    fn routing_is_optimal_b5_sampled_sources() {
        let b = Butterfly::new(5).unwrap();
        let g = b.build_graph().unwrap();
        for src in [0usize, 17, 63, 100, 159] {
            let tree = traverse::bfs(&g, src);
            let u = b.node(src);
            for dst in 0..b.num_nodes() {
                let v = b.node(dst);
                assert_eq!(distance(&b, u, v), tree.dist[dst], "{u} -> {v}");
            }
        }
    }

    #[test]
    fn identity_distance_is_zero() {
        let b = Butterfly::new(4).unwrap();
        let id = b.identity();
        assert_eq!(distance(&b, id, id), 0);
        assert_eq!(route(&b, id, id), vec![id]);
    }

    #[test]
    fn max_distance_equals_diameter() {
        for n in 3..=6 {
            let b = Butterfly::new(n).unwrap();
            let id = b.identity();
            let max = b.nodes().map(|v| distance(&b, id, v)).max().unwrap();
            assert_eq!(max, b.diameter(), "n = {n}");
        }
    }

    #[test]
    fn handle_free_dist_matches_plan_cost() {
        // `dist` must agree with the plan search that `route` executes,
        // for every pair — it is the same candidate set, cost-only.
        for n in 3..=5 {
            let b = Butterfly::new(n).unwrap();
            for u in b.nodes() {
                for v in b.nodes() {
                    let (cost, _) = best_plan(u, v);
                    assert_eq!(dist(u, v), cost, "n={n} {u} -> {v}");
                    let (wu, lu) = u.to_word_level();
                    let (wv, lv) = v.to_word_level();
                    assert_eq!(dist_word_level(n, wu, lu, wv, lv), cost);
                }
            }
        }
    }

    /// The `O(n^2)` frame the rotation replaced: the oracle for
    /// [`cut_frame`], [`dist_word_level`] and [`best_plan`].
    fn cut_frame_scan(n: u32, lu: u32, lv: u32, marks: u32, e: u32) -> (u32, u32, u32, u32) {
        let pos = |x: u32| (x + n - (e + 1) % n) % n;
        let s = pos(lu);
        let t = pos(lv);
        let mut lo = s.min(t);
        let mut hi = s.max(t);
        for i in 0..n {
            if marks >> i & 1 == 1 {
                let p = pos(i);
                assert!(p + 1 < n, "marked gap {i} must not be the cut gap");
                lo = lo.min(p);
                hi = hi.max(p + 1);
            }
        }
        (s, t, lo, hi)
    }

    /// The plan search over every gap in ascending order, on the scan
    /// frame.
    fn best_plan_scan(n: u32, marks: u32, lu: u32, lv: u32) -> (u32, Plan) {
        let cw = (lv + n - lu) % n;
        let ccw = (lu + n - lv) % n;
        let mut best = if cw <= ccw {
            (n + cw, Plan::FullLoop { clockwise: true })
        } else {
            (n + ccw, Plan::FullLoop { clockwise: false })
        };
        for e in (0..n).filter(|e| marks >> e & 1 == 0) {
            let (s, t, lo, hi) = cut_frame_scan(n, lu, lv, marks, e);
            let left_first = (s - lo) + (hi - t) <= (hi - s) + (t - lo);
            let cost = (hi - lo) + ((s - lo) + (hi - t)).min((hi - s) + (t - lo));
            if cost < best.0 {
                best = (cost, Plan::Cut { e, left_first });
            }
        }
        best
    }

    /// Checks every cut frame, the distance, and the chosen plan of one
    /// `(marks, lu, lv)` against the scan.
    fn check_against_scan(n: u32, marks: u32, lu: u32, lv: u32) {
        for e in cut_gaps(n, marks) {
            assert_eq!(
                cut_frame(n, lu, lv, marks, e),
                cut_frame_scan(n, lu, lv, marks, e),
                "n={n} marks={marks:#b} lu={lu} lv={lv} e={e}"
            );
        }
        let want = best_plan_scan(n, marks, lu, lv);
        let u = SignedCycle::from_word_level(n, marks, lu);
        let v = SignedCycle::from_word_level(n, 0, lv);
        assert_eq!(
            best_plan(u, v),
            want,
            "n={n} marks={marks:#b} lu={lu} lv={lv}"
        );
        assert_eq!(dist_word_level(n, marks, lu, 0, lv), want.0);
        assert_eq!(dist_word_level(n, 0, lu, marks, lv), want.0);
    }

    #[test]
    fn rotated_frame_matches_the_scan_exhaustively() {
        for n in 3..=10 {
            for marks in 0..1u32 << n {
                for lu in 0..n {
                    for lv in 0..n {
                        check_against_scan(n, marks, lu, lv);
                    }
                }
            }
        }
    }

    #[test]
    fn rotated_frame_matches_the_scan_at_max_n() {
        // n = 26 rotates by up to 25 and shifts left by up to 26 bits.
        let n = SignedCycle::MAX_N;
        let full = (1u32 << n) - 1;
        let mut masks = vec![0, full, 0x2aa_aaaa, 0x155_5555];
        masks.extend((0..n).map(|i| 1 << i));
        masks.extend((0..n).map(|i| full & !(1 << i)));
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..16 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            masks.push(u32::try_from(x >> 38).unwrap() & full);
        }
        for &marks in &masks {
            for lu in 0..n {
                for lv in 0..n {
                    check_against_scan(n, marks, lu, lv);
                }
            }
        }
    }

    #[test]
    fn straight_loop_distance() {
        // Same word, opposite level: pure level walk, no marks.
        let b = Butterfly::new(6).unwrap();
        let u = SignedCycle::from_word_level(6, 0b1011, 0);
        let v = SignedCycle::from_word_level(6, 0b1011, 3);
        assert_eq!(distance(&b, u, v), 3);
    }

    #[test]
    fn antipodal_mask_forces_full_loop() {
        // All bits differ: every gap marked -> full loop required.
        let b = Butterfly::new(4).unwrap();
        let u = SignedCycle::from_word_level(4, 0b0000, 0);
        let v = SignedCycle::from_word_level(4, 0b1111, 0);
        assert_eq!(distance(&b, u, v), 4); // loop of n steps, d = 0
        let w = SignedCycle::from_word_level(4, 0b1111, 2);
        assert_eq!(distance(&b, u, w), 6); // n + cyclic distance 2
    }
}
