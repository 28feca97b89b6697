//! The Controller Prefetch Predictor (paper §5.4).

use ring_cache::LineAddr;
use serde::{Deserialize, Serialize};

/// The memory-controller half of the paper's prefetching optimization.
///
/// The CPP is a direct-mapped table of page entries; each entry holds one
/// bit per line of the page. A set bit means "this line is (likely) on
/// chip": it was brought in by a miss or prefetch and has not been written
/// back. The controller drops prefetch requests whose bit is set, because
/// a cache will supply the line anyway.
///
/// Paper configuration: 16K entries × 64 bits (4 KB pages of 64 B lines).
///
/// # Examples
///
/// ```
/// use ring_mem::ControllerPrefetchPredictor;
/// use ring_cache::LineAddr;
///
/// let mut cpp = ControllerPrefetchPredictor::new(16 * 1024, 64, 4096);
/// let a = LineAddr::new(10);
/// assert!(!cpp.likely_on_chip(a));
/// cpp.mark_fetched(a);
/// assert!(cpp.likely_on_chip(a));
/// cpp.mark_written_back(a);
/// assert!(!cpp.likely_on_chip(a));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerPrefetchPredictor {
    entries: Vec<PageEntry>,
    line_bytes: u64,
    page_bytes: u64,
    lines_per_page: u64,
    suppressed: u64,
}

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct PageEntry {
    page: u64,
    valid: bool,
    bits: u64,
}

impl ControllerPrefetchPredictor {
    /// Creates a CPP with `entries` page entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two, or if the page
    /// holds more than 64 lines (one bit per line must fit in `u64`).
    pub fn new(entries: usize, line_bytes: u64, page_bytes: u64) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "entries must be a power of two"
        );
        let lines_per_page = page_bytes / line_bytes;
        assert!(
            (1..=64).contains(&lines_per_page),
            "page must hold 1..=64 lines"
        );
        ControllerPrefetchPredictor {
            entries: vec![PageEntry::default(); entries],
            line_bytes,
            page_bytes,
            lines_per_page,
            suppressed: 0,
        }
    }

    /// Number of cache lines tracked per page entry (one presence bit
    /// each).
    pub fn lines_per_page(&self) -> u64 {
        self.lines_per_page
    }

    fn slot(&self, page: u64) -> usize {
        (page as usize) & (self.entries.len() - 1)
    }

    fn locate(&self, addr: LineAddr) -> (usize, u64, u64) {
        let page = addr.page(self.line_bytes, self.page_bytes);
        let bit = addr.line_in_page(self.line_bytes, self.page_bytes);
        (self.slot(page), page, bit)
    }

    /// Records that `addr` was brought on chip (demand miss or prefetch).
    ///
    /// A conflicting page in the same direct-mapped slot is replaced,
    /// which can only make the predictor *less* likely to suppress — a
    /// safe direction (extra memory fetches, never missing data).
    pub fn mark_fetched(&mut self, addr: LineAddr) {
        let (slot, page, bit) = self.locate(addr);
        let e = &mut self.entries[slot];
        if !e.valid || e.page != page {
            *e = PageEntry {
                page,
                valid: true,
                bits: 0,
            };
        }
        e.bits |= 1 << bit;
    }

    /// Records that the dirty line `addr` was written back (cleared from
    /// the on-chip caches).
    pub fn mark_written_back(&mut self, addr: LineAddr) {
        let (slot, page, bit) = self.locate(addr);
        let e = &mut self.entries[slot];
        if e.valid && e.page == page {
            e.bits &= !(1 << bit);
        }
    }

    /// Whether the predictor believes `addr` is already on chip (its bit
    /// is set); such prefetch requests are suppressed.
    pub fn likely_on_chip(&self, addr: LineAddr) -> bool {
        let (slot, page, bit) = self.locate(addr);
        let e = &self.entries[slot];
        e.valid && e.page == page && (e.bits >> bit) & 1 == 1
    }

    /// Filters one prefetch request: returns `true` if the fetch should
    /// proceed, `false` if it is suppressed (and counts the suppression).
    pub fn admit_prefetch(&mut self, addr: LineAddr) -> bool {
        if self.likely_on_chip(addr) {
            self.suppressed += 1;
            false
        } else {
            true
        }
    }

    /// Number of suppressed prefetches.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

/// Largest table a snapshot may restore: 1024 times the paper's 16K
/// entries.
const MAX_SNAP_ENTRIES: usize = 1 << 24;

impl ControllerPrefetchPredictor {
    /// Serializes the CPP: geometry, the table's entry count, then
    /// `(index, page, bits)` of the valid entries only, so a restored
    /// predictor suppresses exactly the same prefetches. An invalid entry
    /// is always `PageEntry::default()` (entries are only ever replaced
    /// by valid ones), so restore reproduces the rest of the table.
    pub fn snap_save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.line_bytes);
        w.put(&self.page_bytes);
        w.put(&(self.entries.len() as u64));
        let valid = self.entries.iter().enumerate().filter(|(_, e)| e.valid);
        w.put(&(valid.clone().count() as u64));
        for (i, e) in valid {
            w.put(&(i as u64));
            w.put(&e.page);
            w.put(&e.bits);
        }
        w.put(&self.suppressed);
    }

    /// Rebuilds a CPP from snapshot state.
    ///
    /// # Errors
    ///
    /// `Malformed` (naming the reader's section) if the entry count is
    /// not a power of two or above 2^24, the page geometry is out of
    /// range, or a valid entry's index is outside the table.
    pub fn snap_load(
        r: &mut ring_snapshot::SnapReader<'_>,
    ) -> Result<Self, ring_snapshot::SnapshotError> {
        let line_bytes: u64 = r.get()?;
        let page_bytes: u64 = r.get()?;
        let count: u64 = r.get()?;
        if !count.is_power_of_two() {
            return Err(r.malformed(format!("CPP entry count {count} is not a power of two")));
        }
        // The table is allocated before any entry is read, so a damaged
        // count must not be allowed to ask for gigabytes.
        let count = usize::try_from(count)
            .ok()
            .filter(|&n| n <= MAX_SNAP_ENTRIES)
            .ok_or_else(|| r.malformed(format!("CPP entry count {count} is implausibly large")))?;
        let lines_per_page = page_bytes.checked_div(line_bytes).unwrap_or(0);
        if !(1..=64).contains(&lines_per_page) {
            return Err(r.malformed("CPP page must hold 1..=64 lines"));
        }
        let mut cpp = ControllerPrefetchPredictor::new(count, line_bytes, page_bytes);
        let n_valid = r.get_len()?;
        for _ in 0..n_valid {
            let index: u64 = r.get()?;
            let slot = usize::try_from(index)
                .ok()
                .filter(|&i| i < count)
                .ok_or_else(|| {
                    r.malformed(format!("CPP entry index {index} outside {count} entries"))
                })?;
            cpp.entries[slot] = PageEntry {
                page: r.get()?,
                valid: true,
                bits: r.get()?,
            };
        }
        cpp.suppressed = r.get()?;
        Ok(cpp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpp() -> ControllerPrefetchPredictor {
        ControllerPrefetchPredictor::new(16, 64, 4096)
    }

    #[test]
    fn fetch_sets_bit_writeback_clears() {
        let mut c = cpp();
        let a = LineAddr::new(5);
        c.mark_fetched(a);
        assert!(c.likely_on_chip(a));
        // A different line in the same page is not marked.
        assert!(!c.likely_on_chip(LineAddr::new(6)));
        c.mark_written_back(a);
        assert!(!c.likely_on_chip(a));
    }

    #[test]
    fn admit_suppresses_resident_lines() {
        let mut c = cpp();
        let a = LineAddr::new(100);
        assert!(c.admit_prefetch(a));
        c.mark_fetched(a);
        assert!(!c.admit_prefetch(a));
        assert_eq!(c.suppressed(), 1);
    }

    #[test]
    fn conflict_eviction_forgets_old_page() {
        let mut c = cpp();
        let a = LineAddr::new(0); // page 0, slot 0
        let b = LineAddr::new(16 * 64); // page 16, slot 0 (16 entries)
        c.mark_fetched(a);
        c.mark_fetched(b);
        assert!(!c.likely_on_chip(a), "conflicting page must evict");
        assert!(c.likely_on_chip(b));
    }

    #[test]
    fn writeback_of_unknown_page_is_noop() {
        let mut c = cpp();
        c.mark_written_back(LineAddr::new(42));
        assert!(!c.likely_on_chip(LineAddr::new(42)));
    }

    fn saved(c: &ControllerPrefetchPredictor) -> Vec<u8> {
        let mut w = ring_snapshot::SnapWriter::new();
        c.snap_save(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<ControllerPrefetchPredictor, ring_snapshot::SnapshotError> {
        let mut r = ring_snapshot::SnapReader::new("memory", bytes);
        let c = ControllerPrefetchPredictor::snap_load(&mut r)?;
        r.finish()?;
        Ok(c)
    }

    /// A hand-built section: geometry, `count`, then the given entries.
    fn section(count: u64, entries: &[(u64, u64, u64)]) -> Vec<u8> {
        let mut w = ring_snapshot::SnapWriter::new();
        w.put(&64u64);
        w.put(&4096u64);
        w.put(&count);
        w.put(&(entries.len() as u64));
        for e in entries {
            w.put(e);
        }
        w.put(&0u64);
        w.into_bytes()
    }

    fn malformed_detail(bytes: &[u8]) -> String {
        match load(bytes) {
            Err(ring_snapshot::SnapshotError::Malformed { section, detail }) => {
                assert_eq!(section, "memory");
                detail
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn compact_snapshot_keeps_valid_entries_only() {
        let mut c = cpp();
        c.mark_fetched(LineAddr::new(5));
        c.mark_fetched(LineAddr::new(16 * 64 * 3 + 9)); // page 48, slot 0
        c.mark_fetched(LineAddr::new(64 * 7));
        c.mark_written_back(LineAddr::new(64 * 7)); // valid with no bits
        c.admit_prefetch(LineAddr::new(9));
        let bytes = saved(&c);
        // Geometry (16) + count (8) + valid count (8) + 2 × 24 + counter.
        assert_eq!(bytes.len(), 16 + 8 + 8 + 2 * 24 + 8);
        let back = load(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{c:?}"));
        assert_eq!(saved(&back), bytes);
    }

    #[test]
    fn corrupt_compact_entries_are_malformed() {
        assert!(load(&section(16, &[(15, 3, 1)])).is_ok());
        assert!(malformed_detail(&section(16, &[(16, 3, 1)])).contains("index 16"));
        assert!(malformed_detail(&section(12, &[])).contains("power of two"));
        assert!(malformed_detail(&section(0, &[])).contains("power of two"));
        assert!(malformed_detail(&section(1 << 62, &[])).contains("implausibly large"));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_rejected() {
        let _ = ControllerPrefetchPredictor::new(12, 64, 4096);
    }

    #[test]
    #[should_panic(expected = "1..=64 lines")]
    fn oversized_page_rejected() {
        let _ = ControllerPrefetchPredictor::new(16, 32, 4096); // 128 lines/page
    }
}
