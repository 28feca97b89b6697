//! Set-associative cache arrays with LRU replacement.

use serde::{Deserialize, Serialize};

use crate::line::LineAddr;
use crate::state::LineState;

/// Geometry and latency of a cache array (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Round-trip access latency, in processor cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's D-L1: 32 KB, 4-way, 64 B lines, 2-cycle round trip.
    pub fn l1_32k() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 2,
        }
    }

    /// The paper's unified L2: 512 KB, 8-way, 64 B lines, 7-cycle round
    /// trip.
    pub fn l2_512k() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 7,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Eviction {
    /// Address of the victim line.
    pub addr: LineAddr,
    /// State the victim was in; dirty victims must be written back.
    pub state: LineState,
}

/// A set-associative cache array with true-LRU replacement.
///
/// The array tracks only tags and coherence states — the simulator does
/// not model data values except where needed for verification (the
/// protocol test harness carries logical values in messages instead).
///
/// Ways are stored structure-of-arrays in flat per-field vectors with a
/// fixed stride of `cfg.ways` slots per set, so a state lookup — the
/// hottest operation in the simulator (every snoop probes the L2) —
/// scans one contiguous run of tags instead of chasing a per-set heap
/// allocation. Slots `[0, occ)` of a set are occupied in insertion
/// order, exactly mirroring the push-order of a grow-only vector:
/// invalidation marks a slot `Invalid` in place and insertion reuses
/// tag-matching or invalid slots before appending, so observable
/// ordering (and therefore LRU victim choice on ties) is identical to
/// the previous nested-vector layout.
///
/// # Examples
///
/// ```
/// use ring_cache::{CacheArray, CacheConfig, LineAddr, LineState};
///
/// let mut c = CacheArray::new(CacheConfig::l1_32k());
/// let a = LineAddr::new(42);
/// assert!(c.insert(a, LineState::Shared).is_none());
/// assert_eq!(c.state(a), LineState::Shared);
/// c.invalidate(a);
/// assert_eq!(c.state(a), LineState::Invalid);
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    cfg: CacheConfig,
    set_mask: usize,
    /// Line tags, `cfg.ways` slots per set; only `[0, occ)` are live.
    tags: Vec<u64>,
    /// Coherence state per slot, parallel to `tags`.
    states: Vec<LineState>,
    /// Last-touch tick per slot, parallel to `tags`.
    lrus: Vec<u64>,
    /// Occupied slot count per set.
    occ: Vec<u32>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl CacheArray {
    /// Creates an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set, or if the
    /// set count is not a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.ways >= 1, "cache must have at least one way");
        assert!(
            u32::try_from(cfg.ways).is_ok(),
            "associativity must fit the per-set occupancy counter"
        );
        let slots = sets * cfg.ways;
        CacheArray {
            cfg,
            set_mask: sets - 1,
            tags: vec![0; slots],
            states: vec![LineState::Invalid; slots],
            lrus: vec![0; slots],
            occ: vec![0; sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The array's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.raw() as usize) & self.set_mask
    }

    /// First slot of the set holding `addr` plus its occupied length.
    #[inline]
    fn set_span(&self, addr: LineAddr) -> (usize, usize) {
        let idx = self.set_index(addr);
        (idx * self.cfg.ways, self.occ[idx] as usize)
    }

    /// Slot holding `addr`'s tag within its set, if any.
    #[inline]
    fn find_slot(&self, addr: LineAddr) -> Option<usize> {
        let (base, n) = self.set_span(addr);
        let raw = addr.raw();
        self.tags[base..base + n]
            .iter()
            .position(|&t| t == raw)
            .map(|i| base + i)
    }

    /// Current state of `addr` ([`LineState::Invalid`] if absent). Does
    /// not update LRU and does not count as an access.
    pub fn state(&self, addr: LineAddr) -> LineState {
        match self.find_slot(addr) {
            Some(i) => self.states[i],
            None => LineState::Invalid,
        }
    }

    /// Looks up `addr` as a demand access: updates LRU and hit/miss
    /// counters, and returns the state (Invalid on miss).
    pub fn access(&mut self, addr: LineAddr) -> LineState {
        self.tick += 1;
        if let Some(i) = self.find_slot(addr) {
            if self.states[i].is_valid() {
                self.lrus[i] = self.tick;
                self.hits += 1;
                return self.states[i];
            }
        }
        self.misses += 1;
        LineState::Invalid
    }

    /// Inserts (or updates) `addr` with `state`, evicting the LRU valid
    /// line of the set if the set is full. Returns the eviction, if any.
    ///
    /// Inserting `Invalid` is equivalent to [`CacheArray::invalidate`].
    pub fn insert(&mut self, addr: LineAddr, state: LineState) -> Option<Eviction> {
        if state == LineState::Invalid {
            self.invalidate(addr);
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(addr);
        let base = idx * self.cfg.ways;
        let n = self.occ[idx] as usize;
        if let Some(i) = self.find_slot(addr) {
            self.states[i] = state;
            self.lrus[i] = tick;
            return None;
        }
        // Reuse an invalid way if present.
        if let Some(i) = self.states[base..base + n]
            .iter()
            .position(|&s| s == LineState::Invalid)
        {
            self.tags[base + i] = addr.raw();
            self.states[base + i] = state;
            self.lrus[base + i] = tick;
            return None;
        }
        if n < self.cfg.ways {
            self.tags[base + n] = addr.raw();
            self.states[base + n] = state;
            self.lrus[base + n] = tick;
            self.occ[idx] += 1;
            return None;
        }
        // Evict LRU. The set is non-empty here (the `< ways` branch above
        // handled partial sets and `ways >= 1` is asserted); ties break
        // to the lowest slot, same as the old push-order scan.
        let mut vi = base;
        for i in base + 1..base + n {
            if self.lrus[i] < self.lrus[vi] {
                vi = i;
            }
        }
        let victim = Eviction {
            addr: LineAddr::new(self.tags[vi]),
            state: self.states[vi],
        };
        self.tags[vi] = addr.raw();
        self.states[vi] = state;
        self.lrus[vi] = tick;
        Some(victim)
    }

    /// Changes the state of a resident line. Returns `false` if the line
    /// is not resident (the call is then a no-op).
    pub fn set_state(&mut self, addr: LineAddr, state: LineState) -> bool {
        if state == LineState::Invalid {
            return self.invalidate(addr);
        }
        match self.find_slot(addr) {
            Some(i) if self.states[i].is_valid() => {
                self.states[i] = state;
                true
            }
            _ => false,
        }
    }

    /// Invalidates `addr` if resident. Returns whether it was resident.
    pub fn invalidate(&mut self, addr: LineAddr) -> bool {
        match self.find_slot(addr) {
            Some(i) if self.states[i].is_valid() => {
                self.states[i] = LineState::Invalid;
                true
            }
            _ => false,
        }
    }

    /// Demand hits observed by [`CacheArray::access`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed by [`CacheArray::access`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of valid resident lines.
    pub fn resident_lines(&self) -> usize {
        self.occ
            .iter()
            .enumerate()
            .map(|(idx, &n)| {
                let base = idx * self.cfg.ways;
                self.states[base..base + n as usize]
                    .iter()
                    .filter(|s| s.is_valid())
                    .count()
            })
            .sum()
    }

    /// Iterates over all valid resident lines as `(addr, state)`.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, LineState)> + '_ {
        let ways = self.cfg.ways;
        self.occ.iter().enumerate().flat_map(move |(idx, &n)| {
            let base = idx * ways;
            (base..base + n as usize)
                .filter(|&i| self.states[i].is_valid())
                .map(|i| (LineAddr::new(self.tags[i]), self.states[i]))
        })
    }
}

impl CacheArray {
    /// Serializes the array contents (geometry excluded — it comes back
    /// from the machine configuration at restore): the set count, then
    /// per set its occupancy and the `(tag, state, lru)` of slots
    /// `[0, occ)` only. Slots past `occ` have never been written since
    /// construction, so restore reproduces them exactly as zeros.
    pub fn snap_save(&self, w: &mut ring_snapshot::SnapWriter) {
        let ways = self.cfg.ways;
        w.put(&(self.occ.len() as u64));
        for (idx, &n) in self.occ.iter().enumerate() {
            w.put(&n);
            let base = idx * ways;
            for i in base..base + n as usize {
                w.put(&self.tags[i]);
                w.put(&self.states[i]);
                w.put(&self.lrus[i]);
            }
        }
        w.put(&self.tick);
        w.put(&self.hits);
        w.put(&self.misses);
    }

    /// Rebuilds an array from a snapshot taken under the same geometry.
    ///
    /// # Errors
    ///
    /// `Malformed` (naming the reader's section) if the set count
    /// differs from `cfg` or a set claims more than `cfg.ways` occupied
    /// slots; decoding errors as they arise.
    pub fn snap_load(
        r: &mut ring_snapshot::SnapReader<'_>,
        cfg: CacheConfig,
    ) -> Result<Self, ring_snapshot::SnapshotError> {
        let mut a = CacheArray::new(cfg);
        if r.get::<u64>()? != a.occ.len() as u64 {
            return Err(r.malformed("cache geometry does not match the configuration"));
        }
        let ways = cfg.ways;
        for idx in 0..a.occ.len() {
            let n: u32 = r.get()?;
            if n as usize > ways {
                return Err(
                    r.malformed(format!("cache set {idx} occupancy {n} exceeds {ways} ways"))
                );
            }
            a.occ[idx] = n;
            let base = idx * ways;
            for i in base..base + n as usize {
                a.tags[i] = r.get()?;
                a.states[i] = r.get()?;
                a.lrus[i] = r.get()?;
            }
        }
        a.tick = r.get()?;
        a.hits = r.get()?;
        a.misses = r.get()?;
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways x 64B = 256B.
        CacheArray::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn insert_then_lookup() {
        let mut c = tiny();
        let a = LineAddr::new(4); // set 0
        c.insert(a, LineState::Dirty);
        assert_eq!(c.state(a), LineState::Dirty);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn lru_eviction_picks_oldest() {
        let mut c = tiny();
        let a = LineAddr::new(0);
        let b = LineAddr::new(2);
        let d = LineAddr::new(4); // all set 0
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.access(a); // make b the LRU
        let ev = c.insert(d, LineState::Exclusive).expect("must evict");
        assert_eq!(ev.addr, b);
        assert_eq!(c.state(a), LineState::Shared);
        assert_eq!(c.state(d), LineState::Exclusive);
    }

    #[test]
    fn access_counts_hits_and_misses() {
        let mut c = tiny();
        let a = LineAddr::new(8);
        assert_eq!(c.access(a), LineState::Invalid);
        c.insert(a, LineState::Exclusive);
        assert_eq!(c.access(a), LineState::Exclusive);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn invalidate_frees_way() {
        let mut c = tiny();
        let a = LineAddr::new(0);
        c.insert(a, LineState::Tagged);
        assert!(c.invalidate(a));
        assert!(!c.invalidate(a));
        assert_eq!(c.state(a), LineState::Invalid);
        assert_eq!(c.resident_lines(), 0);
        // Reinsert reuses the invalid way without eviction.
        let b = LineAddr::new(2);
        let d = LineAddr::new(4);
        c.insert(b, LineState::Shared);
        assert!(c.insert(d, LineState::Shared).is_none());
    }

    #[test]
    fn set_state_on_absent_line_is_noop() {
        let mut c = tiny();
        assert!(!c.set_state(LineAddr::new(0), LineState::Shared));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        let a = LineAddr::new(0);
        c.insert(a, LineState::Shared);
        assert!(c.insert(a, LineState::Dirty).is_none());
        assert_eq!(c.state(a), LineState::Dirty);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Odd lines land in set 1, even in set 0.
        c.insert(LineAddr::new(0), LineState::Shared);
        c.insert(LineAddr::new(2), LineState::Shared);
        assert!(c.insert(LineAddr::new(1), LineState::Shared).is_none());
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    fn paper_configs_have_expected_geometry() {
        assert_eq!(CacheConfig::l1_32k().sets(), 128);
        assert_eq!(CacheConfig::l2_512k().sets(), 1024);
    }

    #[test]
    fn iter_reports_resident_lines() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), LineState::Exclusive);
        c.insert(LineAddr::new(1), LineState::Shared);
        let mut v: Vec<_> = c.iter().collect();
        v.sort();
        assert_eq!(
            v,
            vec![
                (LineAddr::new(0), LineState::Exclusive),
                (LineAddr::new(1), LineState::Shared)
            ]
        );
    }

    fn saved(c: &CacheArray) -> Vec<u8> {
        let mut w = ring_snapshot::SnapWriter::new();
        c.snap_save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn compact_snapshot_restores_every_slot() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), LineState::Dirty);
        c.insert(LineAddr::new(2), LineState::Shared);
        c.invalidate(LineAddr::new(0)); // an Invalid slot below occ
        c.insert(LineAddr::new(1), LineState::Exclusive);
        c.access(LineAddr::new(1));
        let bytes = saved(&c);
        let mut r = ring_snapshot::SnapReader::new("agents", &bytes);
        let back = CacheArray::snap_load(&mut r, *c.config()).unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{back:?}"), format!("{c:?}"));
        assert_eq!(saved(&back), bytes);
    }

    #[test]
    fn occupancy_beyond_the_ways_is_malformed() {
        let c = tiny();
        let mut w = ring_snapshot::SnapWriter::new();
        w.put(&(c.occ.len() as u64));
        w.put(&3u32); // set 0 claims 3 slots of a 2-way array
        let bytes = w.into_bytes();
        let mut r = ring_snapshot::SnapReader::new("cores", &bytes);
        match CacheArray::snap_load(&mut r, *c.config()) {
            Err(ring_snapshot::SnapshotError::Malformed { section, detail }) => {
                assert_eq!(section, "cores");
                assert!(detail.contains("exceeds 2 ways"), "{detail}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn insert_invalid_is_invalidate() {
        let mut c = tiny();
        let a = LineAddr::new(0);
        c.insert(a, LineState::Shared);
        assert!(c.insert(a, LineState::Invalid).is_none());
        assert_eq!(c.state(a), LineState::Invalid);
    }
}
