//! The Node Prefetch Predictor (paper §5.4).

use ring_cache::LineAddr;
use ring_sim::FxHashMap;
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
    /// Lazy LRU queue of (addr, stamp); stale entries are skipped.
    queue: VecDeque<(LineAddr, u64)>,
    /// addr -> latest observation stamp. Keyed by small integers whose
    /// iteration order is never observed, so the fast deterministic
    /// hasher applies.
    present: FxHashMap<LineAddr, u64>,
    tick: u64,
    observations: u64,
    prefetch_hits: u64,
    prefetch_suppressions: u64,
}

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
    pub fn observe(&mut self, addr: LineAddr) {
        if self.capacity == 0 {
            return;
        }
        self.observations += 1;
        self.tick += 1;
        self.present.insert(addr, self.tick);
        self.queue.push_back((addr, self.tick));
        // Evict least-recently-observed distinct addresses, skipping
        // stale queue entries superseded by a refresh.
        while self.present.len() > self.capacity {
            // Every present entry has a live queue entry, so the queue
            // cannot drain before the table shrinks below capacity.
            let Some((old, stamp)) = self.queue.pop_front() else {
                break;
            };
            if self.present.get(&old) == Some(&stamp) {
                self.present.remove(&old);
            }
        }
        // Bound the lazy queue by trimming leading stale entries only
        // (live entries stay in place to preserve LRU order).
        while self.queue.len() > self.capacity * 4 {
            match self.queue.front() {
                Some(&(old, stamp)) if self.present.get(&old) != Some(&stamp) => {
                    self.queue.pop_front();
                }
                _ => break,
            }
        }
    }

    /// Decides whether a miss on `addr` should send a prefetch to the
    /// memory controller: yes iff the address has not been seen recently.
    pub fn should_prefetch(&mut self, addr: LineAddr) -> bool {
        let seen = self.present.contains_key(&addr);
        if seen {
            self.prefetch_suppressions += 1;
        } else {
            self.prefetch_hits += 1;
        }
        !seen
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
        self.present.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Hashes the predictor's behavioral state into `h`: the live LRU
    /// sequence (stale queue entries and raw stamps are canonicalized
    /// away) and the capacity. Statistics counters are excluded. Used by
    /// the `ring-model` state-space explorer.
    pub fn digest(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.capacity.hash(h);
        let live: Vec<LineAddr> = self
            .queue
            .iter()
            .filter(|(a, stamp)| self.present.get(a) == Some(stamp))
            .map(|&(a, _)| a)
            .collect();
        live.hash(h);
    }
}

impl NodePrefetchPredictor {
    /// Serializes the predictor. The presence table is not stored: it is
    /// a function of the queue. Every queued address is present at its
    /// latest queued stamp, because the queue is stamp-ordered and
    /// eviction pops from the front, so an address leaves `present` only
    /// when its latest entry, and with it every older one, is popped.
    pub fn snap_save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.capacity);
        w.put(&self.queue);
        w.put(&self.tick);
        w.put(&self.observations);
        w.put(&self.prefetch_hits);
        w.put(&self.prefetch_suppressions);
    }

    /// Rebuilds a predictor from a snapshot, rebuilding the presence
    /// table from the queue.
    ///
    /// # Errors
    ///
    /// `Malformed` (naming the reader's section) if the queue's stamps
    /// are not strictly increasing, the order the rebuild relies on.
    pub fn snap_load(
        r: &mut ring_snapshot::SnapReader<'_>,
    ) -> Result<Self, ring_snapshot::SnapshotError> {
        let capacity: usize = r.get()?;
        let queue: VecDeque<(LineAddr, u64)> = r.get()?;
        if queue
            .iter()
            .zip(queue.iter().skip(1))
            .any(|(a, b)| a.1 >= b.1)
        {
            return Err(r.malformed("NPP queue stamps are not strictly increasing"));
        }
        let mut present = FxHashMap::default();
        for &(a, s) in &queue {
            present.insert(a, s);
        }
        Ok(NodePrefetchPredictor {
            capacity,
            queue,
            present,
            tick: r.get()?,
            observations: r.get()?,
            prefetch_hits: r.get()?,
            prefetch_suppressions: r.get()?,
        })
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

    #[test]
    fn snapshot_rebuilds_presence_from_the_queue() {
        let mut npp = NodePrefetchPredictor::new(3);
        // Refreshes, evictions and stale-entry trimming all leave stale
        // queue entries behind.
        for a in [
            1, 2, 1, 3, 4, 1, 5, 5, 2, 6, 1, 1, 7, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
        ] {
            npp.observe(LineAddr::new(a));
        }
        let bytes = saved(&npp);
        let mut r = ring_snapshot::SnapReader::new("agents", &bytes);
        let back = NodePrefetchPredictor::snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.present, npp.present);
        assert_eq!(back.queue, npp.queue);
        assert_eq!(saved(&back), bytes);
    }

    #[test]
    fn unordered_queue_stamps_are_malformed() {
        let mut w = ring_snapshot::SnapWriter::new();
        w.put(&4usize);
        w.put(&vec![(LineAddr::new(1), 5u64), (LineAddr::new(2), 5u64)]);
        for _ in 0..4 {
            w.put(&0u64);
        }
        let bytes = w.into_bytes();
        let mut r = ring_snapshot::SnapReader::new("agents", &bytes);
        assert!(matches!(
            NodePrefetchPredictor::snap_load(&mut r),
            Err(ring_snapshot::SnapshotError::Malformed { .. })
        ));
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
