//! The Node Prefetch Predictor (paper §5.4).

use ring_cache::LineAddr;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The per-node half of the prefetching optimization.
///
/// The NPP records "the line addresses of cache miss and invalidation
/// transactions recently seen in the ring". When the node issues a request
/// whose address is *not* in the table, the line is unlikely to be on chip
/// and a memory prefetch is issued in parallel with the ring transaction.
///
/// Modeled as an LRU table of the most recent *distinct* addresses
/// (paper configuration: 8K line addresses).
///
/// Observations are applied to the table in batches of `BATCH`: a node
/// observes far more ring traffic than it queries, and each observation
/// probes a table too large for the host's caches, so applying a batch
/// back to back lets its independent probes overlap their misses.
/// `should_prefetch` applies the pending observations first, and every
/// reader (`len`, `is_empty`, the digest and the snapshot) reports the
/// table as if they were applied, without applying them.
///
/// # Examples
///
/// ```
/// use ring_coherence::NodePrefetchPredictor;
/// use ring_cache::LineAddr;
///
/// let mut npp = NodePrefetchPredictor::new(1024);
/// let a = LineAddr::new(9);
/// assert!(npp.should_prefetch(a)); // unseen → likely in memory
/// npp.observe(a);
/// assert!(!npp.should_prefetch(a)); // seen in ring traffic → on chip
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodePrefetchPredictor {
    capacity: usize,
    /// Lazy LRU queue, oldest first. Every observation pushes one entry
    /// and every pop takes the front, so entry `i` was pushed at stamp
    /// `front + i`. The last `pending` entries are observations not yet
    /// applied to `present`; an applied entry is live iff `present` maps
    /// its address to its stamp, and stale (superseded by a refresh)
    /// otherwise.
    queue: VecDeque<LineAddr>,
    /// Stamp of `queue[0]` (of the next observation while the queue is
    /// empty).
    front: u64,
    /// addr -> stamp of its live queue entry.
    present: StampTable,
    /// Observations at the back of `queue` not yet applied to `present`:
    /// fewer than `BATCH`.
    pending: usize,
    observations: u64,
    prefetch_hits: u64,
    prefetch_suppressions: u64,
}

/// Observations a predictor applies to its table together.
const BATCH: usize = 32;

impl NodePrefetchPredictor {
    /// Creates a predictor remembering up to `capacity` distinct
    /// addresses. A capacity of 0 yields a predictor that always
    /// recommends prefetching.
    pub fn new(capacity: usize) -> Self {
        NodePrefetchPredictor {
            capacity,
            ..Self::default()
        }
    }

    /// Records a transaction address observed in ring traffic. Re-seen
    /// addresses are refreshed (moved to most-recently-used); distinct
    /// addresses beyond capacity evict the least recently observed.
    ///
    /// The address joins the pending batch at the back of the queue; a
    /// full batch is applied at once.
    pub fn observe(&mut self, addr: LineAddr) {
        if self.capacity == 0 {
            return;
        }
        self.observations += 1;
        self.queue.push_back(addr);
        self.pending += 1;
        if self.pending == BATCH {
            self.flush();
        }
    }

    /// Applies the pending observations to the table, oldest first.
    pub fn flush(&mut self) {
        while self.pending > 0 {
            let i = self.applied();
            self.pending -= 1;
            self.apply(self.queue[i], self.front + i as u64);
        }
    }

    /// Applies the observation of `addr` whose queue entry has stamp
    /// `stamp`: the oldest pending one.
    fn apply(&mut self, addr: LineAddr, stamp: u64) {
        self.present.insert(addr, stamp);
        // Evict least-recently-observed distinct addresses, skipping
        // stale queue entries superseded by a refresh.
        while self.present.len() > self.capacity {
            // Every present entry has a live queue entry, so the queue
            // cannot drain before the table shrinks below capacity.
            let Some(old) = self.queue.pop_front() else {
                break;
            };
            if self.present.get(old) == Some(self.front) {
                self.present.remove(old);
            }
            self.front += 1;
        }
        // Bound the applied queue by trimming leading stale entries only
        // (live entries stay in place to preserve LRU order).
        while self.applied() > self.capacity * 4 {
            match self.queue.front() {
                Some(&old) if self.present.get(old) != Some(self.front) => {
                    self.queue.pop_front();
                    self.front += 1;
                }
                _ => break,
            }
        }
    }

    /// Decides whether a miss on `addr` should send a prefetch to the
    /// memory controller: yes iff the address has not been seen recently.
    pub fn should_prefetch(&mut self, addr: LineAddr) -> bool {
        self.flush();
        let seen = self.present.get(addr).is_some();
        if seen {
            self.prefetch_suppressions += 1;
        } else {
            self.prefetch_hits += 1;
        }
        !seen
    }

    /// The most distinct addresses the table remembers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ring observations recorded.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Times the predictor recommended prefetching.
    pub fn prefetches_recommended(&self) -> u64 {
        self.prefetch_hits
    }

    /// Times the predictor suppressed a prefetch.
    pub fn prefetches_suppressed(&self) -> u64 {
        self.prefetch_suppressions
    }

    /// Distinct addresses currently remembered.
    pub fn len(&self) -> usize {
        let fresh = (self.applied()..self.queue.len())
            .filter(|&i| self.last_in_batch(i) && self.present.get(self.queue[i]).is_none())
            .count();
        (self.present.len() + fresh).min(self.capacity)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty() && self.pending == 0
    }

    /// Queue entries applied to the table: the pending batch is
    /// `queue[applied()..]`.
    fn applied(&self) -> usize {
        self.queue.len() - self.pending
    }

    /// Whether pending queue entry `i` is the batch's last observation
    /// of its address.
    fn last_in_batch(&self, i: usize) -> bool {
        let a = self.queue[i];
        !self.queue.range(i + 1..).any(|&b| b == a)
    }

    /// The remembered addresses, least recently observed first, as if the
    /// pending batch were applied: an exact LRU keeps the newest
    /// `capacity` distinct addresses in order of their last observation,
    /// so that is the applied live sequence without the addresses the
    /// batch observes again, then the batch's distinct addresses in order
    /// of their last observation, cut to the newest `capacity`.
    ///
    /// One pass over the table marks the queue position of every live
    /// stamp (every stamp in the table is that of an applied queue entry,
    /// so it lies in `front..front + applied`); each pending entry
    /// unmarks its address's applied entry and marks itself if it is its
    /// address's last in the batch; the queue walk keeps the marked
    /// entries. Sequential scans and one probe per pending entry, in
    /// place of one probe per queue entry.
    fn live(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let (applied, end) = (self.applied(), self.queue.len());
        let mut marked = vec![false; end];
        for stamp in self.present.stamps() {
            if let Some(m) = marked.get_mut((stamp - self.front) as usize) {
                *m = true;
            }
        }
        for i in applied..end {
            if let Some(stamp) = self.present.get(self.queue[i]) {
                marked[(stamp - self.front) as usize] = false;
            }
            marked[i] = self.last_in_batch(i);
        }
        let held = marked.iter().filter(|&&m| m).count();
        self.queue
            .iter()
            .zip(marked)
            .filter_map(|(&a, live)| live.then_some(a))
            .skip(held.saturating_sub(self.capacity))
    }

    /// Hashes the predictor's behavioral state into `h`: the capacity and
    /// the live LRU sequence, oldest first (stale queue entries and
    /// stamps are canonicalized away). Statistics counters are excluded.
    /// Used by the `ring-model` state-space explorer.
    pub fn digest(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.capacity.hash(h);
        self.live().collect::<Vec<LineAddr>>().hash(h);
    }
}

impl NodePrefetchPredictor {
    /// Serializes the predictor: the capacity, the live LRU sequence
    /// (oldest first) and the counters. Stale queue entries and stamps
    /// are not stored; they carry no behavior.
    pub fn snap_save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.capacity);
        w.put(&(self.len() as u64));
        for a in self.live() {
            w.put(&a);
        }
        w.put(&self.observations);
        w.put(&self.prefetch_hits);
        w.put(&self.prefetch_suppressions);
    }

    /// Rebuilds a predictor from a snapshot: the live sequence becomes a
    /// queue without stale entries.
    ///
    /// # Errors
    ///
    /// `Malformed` (naming the reader's section) if the sequence is longer
    /// than the capacity or lists an address twice: no LRU table holds
    /// either.
    pub fn snap_load(
        r: &mut ring_snapshot::SnapReader<'_>,
    ) -> Result<Self, ring_snapshot::SnapshotError> {
        let capacity: usize = r.get()?;
        let n = r.get_len()?;
        if n > capacity {
            return Err(r.malformed(format!(
                "NPP holds {n} addresses, more than its capacity {capacity}"
            )));
        }
        let mut queue = VecDeque::with_capacity(n);
        let mut present = StampTable::default();
        for stamp in 0..n as u64 {
            let a: LineAddr = r.get()?;
            if present.insert(a, stamp).is_some() {
                return Err(r.malformed(format!("NPP lists line {} twice", a.raw())));
            }
            queue.push_back(a);
        }
        Ok(NodePrefetchPredictor {
            capacity,
            queue,
            front: 0,
            present,
            pending: 0,
            observations: r.get()?,
            prefetch_hits: r.get()?,
            prefetch_suppressions: r.get()?,
        })
    }
}

/// The predictor's address → stamp map, built for its one access
/// pattern: every observation looks an address up, so each slot holds
/// the address and its stamp side by side and a probe reads one 16-byte
/// slot (one cache line), where a general-purpose hash map reads a
/// control group and then a bucket.
///
/// Open addressing over a power-of-two slot array: multiplicative
/// (Fibonacci) hashing takes the product's high bits as the home slot,
/// collisions probe linearly (wrapping at the end), and removal shifts
/// the rest of the probe chain back instead of leaving tombstones. The
/// array is allocated at the first insert and doubles whenever an insert
/// would lift the load past 3/4, so a predictor that never observes owns
/// no table and a full 8K predictor owns 16 384 slots.
///
/// The table is never saved: a snapshot stores the live sequence, from
/// which `snap_load` rebuilds it.
#[derive(Debug, Clone, Default)]
struct StampTable {
    /// The slots; empty until the first insert.
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(slots.len())`: shifts a hash down to a slot index.
    shift: u32,
}

/// One slot of a [`StampTable`], aligned so that it never straddles two
/// cache lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct Slot {
    addr: u64,
    stamp: u64,
}

impl Slot {
    /// An empty slot. No stamp reaches `u64::MAX`: one is taken per
    /// observation.
    const VACANT: Slot = Slot {
        addr: 0,
        stamp: u64::MAX,
    };

    fn is_vacant(self) -> bool {
        self.stamp == u64::MAX
    }
}

impl StampTable {
    /// Slots of the first allocation.
    const MIN_SLOTS: usize = 8;

    /// The slot `addr`'s probe chain starts at.
    fn home(&self, addr: u64) -> usize {
        (addr.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot holding `addr` (`Ok`), or the vacant slot that ends its
    /// probe chain (`Err`). The table must be allocated; its load bound
    /// guarantees a vacant slot.
    fn find(&self, addr: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(addr);
        loop {
            let s = self.slots[i];
            if s.is_vacant() {
                return Err(i);
            }
            if s.addr == addr {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The stamp `addr` maps to.
    fn get(&self, addr: LineAddr) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.find(addr.raw()).ok().map(|i| self.slots[i].stamp)
    }

    /// Maps `addr` to `stamp`; returns the stamp it replaced.
    fn insert(&mut self, addr: LineAddr, stamp: u64) -> Option<u64> {
        let addr = addr.raw();
        if self.slots.is_empty() {
            self.resize(Self::MIN_SLOTS);
        }
        match self.find(addr) {
            Ok(i) => return Some(std::mem::replace(&mut self.slots[i].stamp, stamp)),
            Err(i) if (self.len + 1) * 4 <= self.slots.len() * 3 => {
                self.slots[i] = Slot { addr, stamp };
            }
            Err(_) => {
                self.resize(self.slots.len() * 2);
                self.place(Slot { addr, stamp });
            }
        }
        self.len += 1;
        None
    }

    /// Removes `addr`; returns the stamp it mapped to.
    fn remove(&mut self, addr: LineAddr) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.find(addr.raw()).ok()?;
        let stamp = self.slots[hole].stamp;
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.slots[i];
            if s.is_vacant() {
                break;
            }
            // `s` may move back into the hole iff the hole lies on its
            // probe chain: it sits at least as far from its home as the
            // hole is behind it.
            if (i.wrapping_sub(self.home(s.addr)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = i;
            }
        }
        self.slots[hole] = Slot::VACANT;
        self.len -= 1;
        Some(stamp)
    }

    /// Writes `slot`, whose address is absent, into the first vacant
    /// slot of its probe chain.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot.addr);
        while !self.slots[i].is_vacant() {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Rehashes every entry into `n` (a power of two) slots.
    fn resize(&mut self, n: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::VACANT; n]);
        self.shift = 64 - n.trailing_zeros();
        for s in old {
            if !s.is_vacant() {
                self.place(s);
            }
        }
    }

    /// Every entry's stamp, in slot order.
    fn stamps(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .filter(|s| !s.is_vacant())
            .map(|s| s.stamp)
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entry.
    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_address_prefetches() {
        let mut npp = NodePrefetchPredictor::new(4);
        assert!(npp.should_prefetch(LineAddr::new(1)));
        assert_eq!(npp.prefetches_recommended(), 1);
    }

    #[test]
    fn observed_address_suppressed() {
        let mut npp = NodePrefetchPredictor::new(4);
        npp.observe(LineAddr::new(1));
        assert!(!npp.should_prefetch(LineAddr::new(1)));
        assert_eq!(npp.prefetches_suppressed(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut npp = NodePrefetchPredictor::new(2);
        npp.observe(LineAddr::new(1));
        npp.observe(LineAddr::new(2));
        npp.observe(LineAddr::new(3));
        assert!(npp.should_prefetch(LineAddr::new(1)), "1 evicted");
        assert!(!npp.should_prefetch(LineAddr::new(2)));
        assert!(!npp.should_prefetch(LineAddr::new(3)));
    }

    #[test]
    fn repeated_observation_keeps_address_resident() {
        let mut npp = NodePrefetchPredictor::new(2);
        npp.observe(LineAddr::new(1));
        npp.observe(LineAddr::new(1));
        npp.observe(LineAddr::new(2));
        // FIFO holds [1,1,2] trimmed to [1,2]: both still present.
        assert!(!npp.should_prefetch(LineAddr::new(1)));
        assert!(!npp.should_prefetch(LineAddr::new(2)));
    }

    #[test]
    fn zero_capacity_always_prefetches() {
        let mut npp = NodePrefetchPredictor::new(0);
        npp.observe(LineAddr::new(1));
        assert!(npp.should_prefetch(LineAddr::new(1)));
        assert!(npp.is_empty());
        assert_eq!(npp.observations(), 0);
    }

    fn saved(npp: &NodePrefetchPredictor) -> Vec<u8> {
        let mut w = ring_snapshot::SnapWriter::new();
        npp.snap_save(&mut w);
        w.into_bytes()
    }

    fn loaded(bytes: &[u8]) -> Result<NodePrefetchPredictor, ring_snapshot::SnapshotError> {
        let mut r = ring_snapshot::SnapReader::new("agents", bytes);
        let npp = NodePrefetchPredictor::snap_load(&mut r)?;
        r.finish()?;
        Ok(npp)
    }

    fn digest_of(npp: &NodePrefetchPredictor) -> u64 {
        use std::hash::Hasher;
        let mut h = ring_sim::FxHasher::default();
        npp.digest(&mut h);
        h.finish()
    }

    #[test]
    fn snapshot_stores_the_live_sequence_only() {
        let mut npp = NodePrefetchPredictor::new(3);
        // Refreshes and evictions leave stale queue entries behind.
        for a in [1, 2, 1, 3, 4, 1, 5, 5, 2, 6, 1, 1, 7, 3, 3, 3] {
            npp.observe(LineAddr::new(a));
        }
        assert!(npp.queue.len() > npp.len(), "the queue holds stale entries");
        let bytes = saved(&npp);
        let mut want = ring_snapshot::SnapWriter::new();
        want.put(&3usize);
        want.put(&[1u64, 7, 3].map(LineAddr::new).to_vec());
        for counter in [16u64, 0, 0] {
            want.put(&counter);
        }
        assert_eq!(bytes, want.into_bytes());
        let back = loaded(&bytes).unwrap();
        assert_eq!(back.queue, [1, 7, 3].map(LineAddr::new));
        assert_eq!(saved(&back), bytes);
        assert_eq!(digest_of(&back), digest_of(&npp));
    }

    /// An encoded predictor of `capacity` listing `live`.
    fn encoded(capacity: usize, live: &[u64]) -> Vec<u8> {
        let mut w = ring_snapshot::SnapWriter::new();
        w.put(&capacity);
        w.put(&live.iter().map(|&a| LineAddr::new(a)).collect::<Vec<_>>());
        for _ in 0..3 {
            w.put(&0u64);
        }
        w.into_bytes()
    }

    #[test]
    fn sequence_longer_than_capacity_is_malformed() {
        assert!(loaded(&encoded(2, &[1, 2])).is_ok());
        assert!(matches!(
            loaded(&encoded(2, &[1, 2, 3])),
            Err(ring_snapshot::SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn address_listed_twice_is_malformed() {
        assert!(matches!(
            loaded(&encoded(4, &[1, 2, 1])),
            Err(ring_snapshot::SnapshotError::Malformed { .. })
        ));
    }

    /// The specification: an exact LRU over distinct addresses, most
    /// recently observed at the back.
    struct NaiveLru {
        capacity: usize,
        order: VecDeque<LineAddr>,
        observations: u64,
    }

    impl NaiveLru {
        fn observe(&mut self, a: LineAddr) {
            if self.capacity == 0 {
                return;
            }
            self.observations += 1;
            if let Some(i) = self.order.iter().position(|&x| x == a) {
                self.order.remove(i);
            }
            self.order.push_back(a);
            if self.order.len() > self.capacity {
                self.order.pop_front();
            }
        }
    }

    proptest::proptest! {
        /// The lazy queue behaves as the naive LRU step for step, and a
        /// snapshot round trip anywhere in the stream is lossless. Runs
        /// of one address pile stale entries up behind a live front, so
        /// the queue's length bound is reached with a live front too.
        #[test]
        fn matches_a_naive_exact_lru(
            cap_ix in 0usize..6,
            steps in proptest::collection::vec((0u64..12, 1usize..10, 0u64..12, 0u32..8), 1..400),
        ) {
            let capacity = [0, 1, 2, 3, 7, 64][cap_ix];
            let mut npp = NodePrefetchPredictor::new(capacity);
            let mut lru = NaiveLru { capacity, order: VecDeque::new(), observations: 0 };
            for (seen, run, probe, roll) in steps {
                for _ in 0..run {
                    npp.observe(LineAddr::new(seen));
                    lru.observe(LineAddr::new(seen));
                }
                let probe = LineAddr::new(probe);
                proptest::prop_assert_eq!(npp.should_prefetch(probe), !lru.order.contains(&probe));
                proptest::prop_assert_eq!(npp.len(), lru.order.len());
                proptest::prop_assert_eq!(npp.observations(), lru.observations);
                proptest::prop_assert!(npp.live().eq(lru.order.iter().copied()));
                if roll == 0 {
                    let bytes = saved(&npp);
                    let back = loaded(&bytes).expect("a saved predictor loads");
                    proptest::prop_assert_eq!(saved(&back), bytes);
                    proptest::prop_assert_eq!(digest_of(&back), digest_of(&npp));
                    npp = back;
                }
            }
        }
    }

    /// The unbatched `observe`: each observation is applied to the table
    /// at once. Kept as the test oracle the batched predictor must match;
    /// a predictor fed only through it never holds a pending batch, so
    /// its readers report its table as it is.
    fn observe_unbatched(npp: &mut NodePrefetchPredictor, addr: LineAddr) {
        if npp.capacity == 0 {
            return;
        }
        npp.observations += 1;
        let stamp = npp.front + npp.queue.len() as u64;
        npp.present.insert(addr, stamp);
        npp.queue.push_back(addr);
        while npp.present.len() > npp.capacity {
            let Some(old) = npp.queue.pop_front() else {
                break;
            };
            if npp.present.get(old) == Some(npp.front) {
                npp.present.remove(old);
            }
            npp.front += 1;
        }
        while npp.queue.len() > npp.capacity * 4 {
            match npp.queue.front() {
                Some(&old) if npp.present.get(old) != Some(npp.front) => {
                    npp.queue.pop_front();
                    npp.front += 1;
                }
                _ => break,
            }
        }
    }

    proptest::proptest! {
        /// The batched predictor against the unbatched oracle, one
        /// observation at a time. A run of one address can outlast a
        /// batch, so flushes land mid-run; after every observation each
        /// reader (`len`, `is_empty`, `live`, `digest`, `snap_save`) is
        /// compared with no flush. Prefetch queries flush, after which
        /// the queues are equal entry for entry; clones and snapshot
        /// round trips (of both sides) carry a pending batch or its
        /// flushed view forward.
        #[test]
        fn batched_observations_match_the_unbatched_oracle(
            cap_ix in 0usize..5,
            steps in proptest::collection::vec((0u64..1000, 1usize..BATCH + 2, 0u64..1000, 0u32..6), 1..80),
        ) {
            let capacity = [0, 1, 3, 7, 64][cap_ix];
            // Twice as many addresses as the table holds, and then some:
            // both refreshes and evictions occur at every capacity.
            let addr = |x: u64| LineAddr::new(x % (2 * capacity as u64 + 4));
            let mut npp = NodePrefetchPredictor::new(capacity);
            let mut oracle = NodePrefetchPredictor::new(capacity);
            for (seen, run, probe, roll) in steps {
                for _ in 0..run {
                    npp.observe(addr(seen));
                    observe_unbatched(&mut oracle, addr(seen));
                    proptest::prop_assert!(npp.pending < BATCH);
                    proptest::prop_assert_eq!(npp.observations(), oracle.observations());
                    proptest::prop_assert_eq!(npp.len(), oracle.len());
                    proptest::prop_assert_eq!(npp.is_empty(), oracle.is_empty());
                    proptest::prop_assert!(npp.live().eq(oracle.live()));
                    proptest::prop_assert_eq!(digest_of(&npp), digest_of(&oracle));
                    proptest::prop_assert_eq!(saved(&npp), saved(&oracle));
                }
                match roll {
                    0 => {
                        let probe = addr(probe);
                        proptest::prop_assert_eq!(npp.should_prefetch(probe), oracle.should_prefetch(probe));
                        proptest::prop_assert_eq!(npp.pending, 0);
                        proptest::prop_assert_eq!(&npp.queue, &oracle.queue);
                        proptest::prop_assert_eq!(npp.front, oracle.front);
                        proptest::prop_assert_eq!(npp.present.len(), oracle.present.len());
                    }
                    1 => npp = npp.clone(),
                    2 => {
                        npp = loaded(&saved(&npp)).expect("a saved predictor loads");
                        oracle = loaded(&saved(&oracle)).expect("a saved predictor loads");
                        proptest::prop_assert_eq!(&npp.queue, &oracle.queue);
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(saved(&npp), saved(&oracle));
            }
        }
    }

    /// A flush applies the pending batch and changes no reader.
    #[test]
    fn flush_applies_the_batch_and_changes_no_reader() {
        let mut npp = NodePrefetchPredictor::new(3);
        for a in [4, 5, 4, 6, 7] {
            npp.observe(LineAddr::new(a));
        }
        assert_eq!(npp.pending, 5);
        assert!(npp.present.is_empty());
        let (bytes, digest) = (saved(&npp), digest_of(&npp));
        assert_eq!(npp.len(), 3);
        assert!(npp.live().eq([4, 6, 7].map(LineAddr::new)));
        npp.flush();
        assert_eq!(npp.pending, 0);
        assert_eq!(npp.present.len(), 3);
        assert_eq!((saved(&npp), digest_of(&npp)), (bytes, digest));
        assert!(!npp.should_prefetch(LineAddr::new(4)));
        assert!(npp.should_prefetch(LineAddr::new(5)));
    }

    /// `n` addresses whose probe chains start at the last slot of every
    /// table of 8, 16 or 32 slots (the top five hash bits all set).
    fn homed_at_the_end(n: usize) -> Vec<u64> {
        let t = StampTable {
            shift: 64 - 5,
            ..StampTable::default()
        };
        (0u64..).filter(|&a| t.home(a) == 31).take(n).collect()
    }

    /// A probe chain that wraps past the last slot, and a removal that
    /// shifts it back across the wrap.
    #[test]
    fn stamp_table_wraps_and_shifts_back() {
        let keys = homed_at_the_end(4);
        let mut t = StampTable::default();
        for (stamp, &a) in keys.iter().enumerate() {
            assert_eq!(t.insert(LineAddr::new(a), stamp as u64), None);
        }
        assert_eq!(t.slots.len(), 8);
        let at = |t: &StampTable, i: usize| t.slots[i].addr;
        assert_eq!(
            [at(&t, 7), at(&t, 0), at(&t, 1), at(&t, 2)],
            [keys[0], keys[1], keys[2], keys[3]]
        );
        assert_eq!(t.remove(LineAddr::new(keys[0])), Some(0));
        assert_eq!(
            [at(&t, 7), at(&t, 0), at(&t, 1)],
            [keys[1], keys[2], keys[3]]
        );
        assert!(t.slots[2].is_vacant());
        for (stamp, &a) in keys.iter().enumerate().skip(1) {
            assert_eq!(t.get(LineAddr::new(a)), Some(stamp as u64));
        }
        assert_eq!(t.get(LineAddr::new(keys[0])), None);
    }

    proptest::proptest! {
        /// The table alone against a `BTreeMap`: inserts, refreshes and
        /// removals over addresses half of which share the last home
        /// slot, so probe chains wrap at every table size the run
        /// reaches (8, 16 and 32 slots) and removals shift entries back
        /// across the wrap.
        #[test]
        fn stamp_table_matches_a_btreemap(
            ops in proptest::collection::vec((0u8..3, 0usize..24), 1..600),
        ) {
            let mut pool = homed_at_the_end(12);
            pool.extend(1000..1012);
            let mut t = StampTable::default();
            let mut model = std::collections::BTreeMap::new();
            for (stamp, (op, ix)) in ops.into_iter().enumerate() {
                let a = LineAddr::new(pool[ix]);
                if op == 0 {
                    proptest::prop_assert_eq!(t.remove(a), model.remove(&a));
                } else {
                    proptest::prop_assert_eq!(t.insert(a, stamp as u64), model.insert(a, stamp as u64));
                }
                proptest::prop_assert_eq!(t.len(), model.len());
                proptest::prop_assert!(t.len() * 4 <= t.slots.len() * 3);
                for &raw in &pool {
                    let a = LineAddr::new(raw);
                    proptest::prop_assert_eq!(t.get(a), model.get(&a).copied());
                }
            }
        }
    }

    #[test]
    fn len_counts_distinct() {
        let mut npp = NodePrefetchPredictor::new(8);
        npp.observe(LineAddr::new(1));
        npp.observe(LineAddr::new(1));
        npp.observe(LineAddr::new(2));
        assert_eq!(npp.len(), 2);
    }
}
