//! The packet pool and the channel queues threaded through its keys.
//!
//! Packets live in a slab [`PacketPool`]: stable `u32` keys into a
//! reusable arena, freed slots recycled in LIFO order. The simulators
//! allocate one slot per injected packet and free it at delivery; the
//! live high-water mark bounds the arena, so a drained run ends with
//! `live() == 0` and every slot on the free list.
//!
//! Every channel's FIFO is a list of those keys, linked through one
//! `next` entry per pool slot: a queue is one 16-byte record (head,
//! tail, length, same-cycle credits), a push writes one link and a pop
//! reads one, so the steady state performs **zero** per-hop
//! allocations. A cycle kernel's queue store keeps one record per
//! channel when its layout is CSR over a materialised graph, and records
//! of busy channels only on a graph-free layout, so a million-node run
//! holds records in proportion to its traffic. Each queue operation is
//! written once over the record; only the record lookup tells the two
//! stores apart.

use std::mem::size_of;
use std::ops::Range;

/// A slab allocator with stable `u32` keys and a LIFO free list.
#[derive(Clone, Debug, Default)]
pub struct PacketPool<T> {
    slots: Vec<T>,
    free: Vec<u32>,
    live: usize,
}

impl<T> PacketPool<T> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Stores `value`, reusing a freed slot when one exists.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` slots would be live at once.
    pub fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        if let Some(key) = self.free.pop() {
            self.slots[key as usize] = value;
            return key;
        }
        let key = u32::try_from(self.slots.len()).expect("invariant: fewer than 2^32 live packets");
        self.slots.push(value);
        key
    }

    /// Releases `key` for reuse. The slot's contents stay in place until
    /// overwritten by a later [`Self::alloc`]; reading a freed key is a
    /// logic error the pool does not detect (keys are not generational).
    /// Freeing a key twice *is* detected in debug builds — under fault
    /// churn the engines free at both delivery and admission refusal,
    /// and those paths must stay disjoint.
    pub fn free(&mut self, key: u32) {
        debug_assert!((key as usize) < self.slots.len(), "freeing unknown key");
        debug_assert!(
            !self.free.contains(&key),
            "double free of pool key {key}: already on the free list"
        );
        self.live -= 1;
        self.free.push(key);
    }

    /// Shared access to the packet behind `key`.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u32) -> &T {
        &self.slots[key as usize]
    }

    /// Exclusive access to the packet behind `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u32) -> &mut T {
        &mut self.slots[key as usize]
    }

    /// Live (allocated and not yet freed) packet count.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live high-water mark).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<T>() + self.free.capacity() * size_of::<u32>()
    }
}

/// One channel's queue: a FIFO of pool keys linked through
/// [`ChanQueues`]' `next`, plus the bounded discipline's same-cycle
/// credit count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Chan {
    /// Key at the front; stale while `len == 0`.
    head: u32,
    /// Key at the back; stale while `len == 0`.
    tail: u32,
    /// Queued packets.
    len: u32,
    /// Packets admitted toward this channel in the current cycle.
    incoming: u32,
}

impl Chan {
    /// No queued packet and no pending credit: a sparse record may go.
    fn is_idle(self) -> bool {
        self.len == 0 && self.incoming == 0
    }
}

/// The records of busy channels only, sorted by channel id
/// (binary-search lookup, memmove insert and remove). A record appears
/// when a packet or a credit first targets its channel and goes once the
/// channel is idle, so a run over `C` channels with `k` busy ones holds
/// `O(k)` records, never `O(C)`; the vector stops growing once the live
/// high-water mark is reached.
#[derive(Default)]
pub(crate) struct ChannelMap {
    recs: Vec<(usize, Chan)>,
    /// High-water mark of `recs.len()`.
    peak_live: usize,
}

impl ChannelMap {
    fn find(&self, ch: usize) -> Result<usize, usize> {
        self.recs.binary_search_by_key(&ch, |&(c, _)| c)
    }

    /// `ch`'s record, or an empty one when it has none.
    // analyze: hot(per-packet channel lookup on the frontier engine's cycle path)
    #[inline]
    fn get(&self, ch: usize) -> Chan {
        self.find(ch).map_or(Chan::default(), |i| self.recs[i].1)
    }

    /// `ch`'s record, inserting an empty one on first touch.
    // analyze: hot(per-packet materialise; the index grows only past its high-water mark)
    #[inline]
    fn ensure(&mut self, ch: usize) -> &mut Chan {
        let i = match self.find(ch) {
            Ok(i) => i,
            Err(at) => {
                self.recs.insert(at, (ch, Chan::default()));
                self.peak_live = self.peak_live.max(self.recs.len());
                at
            }
        };
        &mut self.recs[i].1
    }

    /// Drops `ch`'s record if it is idle.
    // analyze: hot(runs once per drained channel per cycle; must not allocate)
    #[inline]
    fn release_if_idle(&mut self, ch: usize) {
        if let Ok(i) = self.find(ch) {
            if self.recs[i].1.is_idle() {
                self.recs.remove(i);
            }
        }
    }
}

/// Where a kernel's channel records live.
enum Records {
    /// One record per channel of the range, indexed `ch - base`.
    Dense { base: usize, chans: Vec<Chan> },
    /// Records of busy channels only.
    Sparse(ChannelMap),
}

impl Records {
    #[inline]
    fn get(&self, ch: usize) -> Chan {
        match self {
            Records::Dense { base, chans } => chans[ch - base],
            Records::Sparse(map) => map.get(ch),
        }
    }

    /// `ch`'s record, materialised under sparse storage.
    #[inline]
    fn get_mut(&mut self, ch: usize) -> &mut Chan {
        match self {
            Records::Dense { base, chans } => &mut chans[ch - *base],
            Records::Sparse(map) => map.ensure(ch),
        }
    }

    /// Drops an idle sparse record; dense records always stay.
    #[inline]
    fn release_if_idle(&mut self, ch: usize) {
        if let Records::Sparse(map) = self {
            map.release_if_idle(ch);
        }
    }
}

/// The channel queues of one cycle kernel's channel range. Both stores
/// take global channel ids and keep each channel's FIFO order, so runs
/// are byte-identical across them. A channel belongs on the kernel's
/// worklist exactly while its queue is non-empty: [`Self::push_back`]
/// reports the empty-to-busy step, and a sparse record goes when
/// [`Self::pop_front`] or [`Self::clear_incoming`] leaves it with no
/// queued packet and no pending credit.
pub(crate) struct ChanQueues {
    recs: Records,
    /// `next[key]`: the key queued behind `key` on its channel; stale
    /// for a key at a tail or not queued.
    next: Vec<u32>,
}

impl ChanQueues {
    /// Queues for `channels`: one record per channel when `dense`,
    /// records of busy channels only otherwise.
    pub(crate) fn new(channels: Range<usize>, dense: bool) -> Self {
        let recs = if dense {
            Records::Dense {
                base: channels.start,
                chans: vec![Chan::default(); channels.len()],
            }
        } else {
            Records::Sparse(ChannelMap::default())
        };
        Self {
            recs,
            next: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn len(&self, ch: usize) -> usize {
        self.recs.get(ch).len as usize
    }

    #[inline]
    pub(crate) fn front(&self, ch: usize) -> Option<u32> {
        let c = self.recs.get(ch);
        (c.len > 0).then_some(c.head)
    }

    /// Appends `key` to `ch`'s queue; returns `true` when the queue was
    /// empty (the caller then puts `ch` on its worklist).
    #[inline]
    pub(crate) fn push_back(&mut self, ch: usize, key: u32) -> bool {
        if key as usize >= self.next.len() {
            self.next.resize(key as usize + 1, 0);
        }
        let c = self.recs.get_mut(ch);
        if c.len == 0 {
            c.head = key;
        } else {
            self.next[c.tail as usize] = key;
        }
        c.tail = key;
        c.len += 1;
        c.len == 1
    }

    /// Removes and returns `ch`'s front key; under sparse storage a
    /// record left with no packet and no pending credit goes.
    #[inline]
    pub(crate) fn pop_front(&mut self, ch: usize) -> Option<u32> {
        let key = self.front(ch)?;
        let c = self.recs.get_mut(ch);
        c.head = self.next[key as usize];
        c.len -= 1;
        if c.is_idle() {
            self.recs.release_if_idle(ch);
        }
        Some(key)
    }

    /// Queue depth plus same-cycle admitted credits (bounded runner's
    /// conservative flow-control test).
    #[inline]
    pub(crate) fn len_plus_incoming(&self, ch: usize) -> usize {
        let c = self.recs.get(ch);
        c.len as usize + c.incoming as usize
    }

    /// Counts one admitted packet toward `ch` this cycle; returns `true`
    /// on the first credit (the caller then remembers `ch` for the
    /// end-of-cycle reset).
    #[inline]
    pub(crate) fn add_incoming(&mut self, ch: usize) -> bool {
        let c = self.recs.get_mut(ch);
        c.incoming += 1;
        c.incoming == 1
    }

    /// Resets the credit count of a channel [`Self::add_incoming`]
    /// touched this cycle; under sparse storage an empty record goes.
    #[inline]
    pub(crate) fn clear_incoming(&mut self, ch: usize) {
        let c = self.recs.get_mut(ch);
        c.incoming = 0;
        if c.len == 0 {
            self.recs.release_if_idle(ch);
        }
    }

    /// Peak concurrently materialised channel records: the range's
    /// channel count under dense storage, the high-water mark of live
    /// records under sparse.
    pub(crate) fn peak_records(&self) -> usize {
        match &self.recs {
            Records::Dense { chans, .. } => chans.len(),
            Records::Sparse(map) => map.peak_live,
        }
    }

    /// Approximate heap footprint of the store in bytes, `next` included.
    pub(crate) fn heap_bytes(&self) -> usize {
        let recs = match &self.recs {
            Records::Dense { chans, .. } => chans.capacity() * size_of::<Chan>(),
            Records::Sparse(map) => map.recs.capacity() * size_of::<(usize, Chan)>(),
        };
        recs + self.next.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn alloc_free_recycles_slots() {
        let mut p = PacketPool::new();
        let a = p.alloc("a");
        let b = p.alloc("b");
        assert_eq!((*p.get(a), *p.get(b)), ("a", "b"));
        assert_eq!(p.live(), 2);
        p.free(a);
        assert_eq!(p.live(), 1);
        // LIFO reuse: the freed slot comes back, capacity stays put.
        let c = p.alloc("c");
        assert_eq!(c, a);
        assert_eq!(*p.get(c), "c");
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn capacity_tracks_high_water_mark_not_live() {
        let mut p = PacketPool::new();
        let keys: Vec<u32> = (0..10).map(|i| p.alloc(i)).collect();
        assert_eq!(p.capacity(), 10);
        for &k in &keys {
            p.free(k);
        }
        assert_eq!(p.live(), 0);
        assert_eq!(p.capacity(), 10);
        // Re-filling 10 packets allocates nothing new.
        for i in 0..10 {
            p.alloc(i);
        }
        assert_eq!(p.capacity(), 10);
        assert!(p.heap_bytes() >= 10 * size_of::<i32>());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free of pool key")]
    fn double_free_is_rejected_in_debug_builds() {
        let mut p = PacketPool::new();
        let a = p.alloc("a");
        p.free(a);
        p.free(a);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut p = PacketPool::new();
        let k = p.alloc(41);
        *p.get_mut(k) += 1;
        assert_eq!(*p.get(k), 42);
    }

    #[test]
    fn channel_map_materialises_and_releases_records() {
        let mut m = ChannelMap::default();
        assert_eq!(m.get(7), Chan::default());
        m.ensure(7).len = 1;
        m.ensure(3).incoming = 1;
        assert_eq!(m.recs.len(), 2);
        assert_eq!(m.get(7).len, 1);
        // A queued packet or a pending credit keeps a record.
        m.release_if_idle(7);
        m.release_if_idle(3);
        assert_eq!(m.recs.len(), 2);
        m.ensure(7).len = 0;
        m.release_if_idle(7);
        assert_eq!(m.recs.len(), 1);
        // The high-water mark tracks concurrency, not distinct channels.
        m.ensure(9);
        assert_eq!(m.recs.len(), 2);
        assert_eq!(m.peak_live, 2);
    }

    #[test]
    fn channel_map_index_stays_sorted_under_churn() {
        let mut m = ChannelMap::default();
        for ch in [90usize, 4, 57, 23, 88, 1] {
            m.ensure(ch).head = ch as u32;
        }
        for ch in [4usize, 88] {
            m.release_if_idle(ch);
        }
        for ch in [1usize, 23, 57, 90] {
            assert_eq!(m.get(ch).head, ch as u32);
        }
        assert_eq!(m.get(4), Chan::default());
        assert_eq!(m.get(88), Chan::default());
        let live: Vec<usize> = m.recs.iter().map(|&(c, _)| c).collect();
        assert_eq!(live, [1, 23, 57, 90]);
        assert_eq!(m.peak_live, 6);
    }

    /// Channels of a range that does not start at 0, as in a shard.
    const BASE: usize = 10;
    const CHANNELS: usize = 5;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both stores against the representation they replace, one
        /// `VecDeque` per channel plus a credit count: random pushes,
        /// pops, credits and end-of-cycle resets over a few channels.
        /// Keys come from a `PacketPool`, so a popped key is freed and
        /// comes back (LIFO) while other queues still thread through
        /// `next`. Under sparse storage the live records are exactly the
        /// channels with a queued packet or a pending credit.
        #[test]
        fn chan_queues_match_vecdeque_model(
            dense in 0u8..2,
            ops in proptest::collection::vec((0u8..16, 0usize..CHANNELS), 0..160),
        ) {
            let mut q = ChanQueues::new(BASE..BASE + CHANNELS, dense == 1);
            let mut pool = PacketPool::new();
            let mut model = vec![VecDeque::new(); CHANNELS];
            let mut credits = [0usize; CHANNELS];
            let mut touched = Vec::new();
            let mut peak = 0;
            for (op, i) in ops {
                let ch = BASE + i;
                match op {
                    0..=5 => {
                        let key = pool.alloc(());
                        prop_assert_eq!(q.push_back(ch, key), model[i].is_empty());
                        model[i].push_back(key);
                    }
                    6..=10 => {
                        let key = q.pop_front(ch);
                        prop_assert_eq!(key, model[i].pop_front());
                        if let Some(key) = key {
                            pool.free(key);
                        }
                    }
                    11..=13 => {
                        credits[i] += 1;
                        let first = q.add_incoming(ch);
                        prop_assert_eq!(first, credits[i] == 1);
                        if first {
                            touched.push(ch);
                        }
                    }
                    _ => {
                        for ch in touched.drain(..) {
                            q.clear_incoming(ch);
                            credits[ch - BASE] = 0;
                        }
                    }
                }
                for (i, want) in model.iter().enumerate() {
                    let ch = BASE + i;
                    prop_assert_eq!(q.len(ch), want.len());
                    prop_assert_eq!(q.front(ch), want.front().copied());
                    prop_assert_eq!(q.len_plus_incoming(ch), want.len() + credits[i]);
                }
                if let Records::Sparse(map) = &q.recs {
                    let live: Vec<usize> = map.recs.iter().map(|&(c, _)| c).collect();
                    let busy: Vec<usize> = (0..CHANNELS)
                        .filter(|&i| !model[i].is_empty() || credits[i] > 0)
                        .map(|i| BASE + i)
                        .collect();
                    prop_assert_eq!(&live, &busy);
                    peak = peak.max(busy.len());
                } else {
                    peak = CHANNELS;
                }
                prop_assert_eq!(q.peak_records(), peak);
            }
        }
    }
}
