//! The Local Transaction Table (paper §5.1).

use ring_cache::LineAddr;
use ring_noc::NodeId;
use ring_sim::Cycle;
use serde::{Deserialize, Serialize};

use crate::msg::{RequestMsg, ResponseMsg};
use crate::txn::TxnId;

/// LTT geometry (paper Table 3: 512 entries, 64-way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LttConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl Default for LttConfig {
    fn default() -> Self {
        LttConfig {
            entries: 512,
            ways: 64,
        }
    }
}

impl LttConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.entries / self.ways).max(1)
    }
}

/// Per-transaction slot of an LTT entry: the SV bit (snoop done), the RV
/// bit (response received, with the buffered response itself), and the
/// request as observed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TxnSlot {
    /// The transaction.
    pub txn: TxnId,
    /// The request message, once seen (needed to snoop).
    pub request: Option<RequestMsg>,
    /// SV bit: local snoop completed.
    pub snoop_done: bool,
    /// Outcome of the completed snoop (meaningful when `snoop_done`).
    pub snoop_positive: bool,
    /// RV bit + buffered response.
    pub response: Option<ResponseMsg>,
    /// Arrival order of the response, for FIFO draining.
    response_order: u64,
}

impl TxnSlot {
    fn new(txn: TxnId) -> Self {
        TxnSlot {
            txn,
            request: None,
            snoop_done: false,
            snoop_positive: false,
            response: None,
            response_order: 0,
        }
    }
}

/// One LTT entry: all simultaneously in-flight transactions at this node
/// for one memory line, plus the Winning node ID (WID) field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LttEntry {
    /// The line this entry tracks.
    pub line: LineAddr,
    /// Winning Node ID: the node whose transaction holds the suppliership
    /// of this line. While set, responses of other transactions are
    /// stalled (Ordering-invariant mechanisms 1 and 2).
    pub wid: Option<NodeId>,
    /// A starving-node suppliership reservation (SNID forward progress,
    /// §5.2.2): `(starving node, expiry cycle)`. Unlike `wid`, a
    /// reservation never stalls response forwarding — it only makes the
    /// snoop path defer granting suppliership to other nodes.
    pub reservation: Option<(NodeId, Cycle)>,
    slots: Vec<TxnSlot>,
}

impl LttEntry {
    /// A fresh entry for `line` whose slots go into `slots` (empty, and
    /// possibly with capacity left by a deallocated entry).
    fn new(line: LineAddr, slots: Vec<TxnSlot>) -> Self {
        debug_assert!(slots.is_empty());
        LttEntry {
            line,
            wid: None,
            reservation: None,
            slots,
        }
    }

    fn slot_mut(&mut self, txn: TxnId) -> &mut TxnSlot {
        let i = match self.slots.iter().position(|s| s.txn == txn) {
            Some(i) => i,
            None => {
                self.slots.push(TxnSlot::new(txn));
                self.slots.len() - 1
            }
        };
        &mut self.slots[i]
    }

    /// The slot for `txn`, if tracked.
    pub fn slot(&self, txn: TxnId) -> Option<&TxnSlot> {
        self.slots.iter().find(|s| s.txn == txn)
    }

    /// All in-flight transaction slots of this entry.
    pub fn slots(&self) -> &[TxnSlot] {
        &self.slots
    }

    /// Whether any transaction is still in flight here (a slot exists).
    pub fn busy(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Number of tracked transactions.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Whether the entry can be deallocated: no slots, no WID, and no
    /// reservation.
    fn idle(&self) -> bool {
        self.slots.is_empty() && self.wid.is_none() && self.reservation.is_none()
    }

    /// Whether a transaction by `node` may forward its response now:
    /// WID clear, or WID equal to `node` (§5.1 condition 3).
    fn wid_allows(&self, node: NodeId) -> bool {
        self.wid.is_none() || self.wid == Some(node)
    }

    /// Transactions whose responses are ready to forward, in drain order:
    /// the WID-owning transaction first, then the rest in response arrival
    /// order.
    pub fn ready(&self) -> Vec<TxnId> {
        let mut ready: Vec<&TxnSlot> = self
            .slots
            .iter()
            .filter(|s| s.snoop_done && s.response.is_some() && self.wid_allows(s.txn.node))
            .collect();
        ready.sort_by_key(|s| s.response_order);
        // Winner (if ready) drains first.
        if let Some(wid) = self.wid {
            ready.sort_by_key(|s| if s.txn.node == wid { 0 } else { 1 });
        }
        ready.iter().map(|s| s.txn).collect()
    }

    /// First transaction [`ready`](Self::ready) would report, without
    /// building the full drain order. The drain loop pops one
    /// transaction at a time, so this is the hot-path form: the winner's
    /// slot if it is ready, else the ready slot whose response arrived
    /// earliest (`response_order` values are globally unique, so the
    /// order is strict and this matches the stable sorts exactly).
    pub fn first_ready(&self) -> Option<TxnId> {
        let mut best: Option<(u8, u64, TxnId)> = None;
        for s in &self.slots {
            if !(s.snoop_done && s.response.is_some() && self.wid_allows(s.txn.node)) {
                continue;
            }
            let rank = u8::from(self.wid != Some(s.txn.node));
            let key = (rank, s.response_order, s.txn);
            if best.is_none_or(|(r, o, _)| (rank, s.response_order) < (r, o)) {
                best = Some(key);
            }
        }
        best.map(|(.., txn)| txn)
    }

    /// Removes the slot for `txn` and returns it (buffered response,
    /// snoop outcome and observed request); clears WID if this
    /// transaction owned it. Called when the combined response is
    /// forwarded.
    pub fn take(&mut self, txn: TxnId) -> Option<TxnSlot> {
        let i = self.slots.iter().position(|s| s.txn == txn)?;
        let slot = self.slots.remove(i);
        if self.wid == Some(txn.node) {
            self.wid = None;
        }
        Some(slot)
    }
}

/// The Local Transaction Table: one per node.
///
/// Records every in-flight transaction the node has observed (an `R`
/// and/or `r` received whose combined response has not yet been forwarded)
/// and enforces the two Uncorq ordering mechanisms of §4.3:
///
/// 1. after the supplier processes a winning `R_i`, it forwards no `r_j`
///    (j ≠ i) before it forwards `r_i+`;
/// 2. a node that received `r_i+` forwards no later `r_j-` until it has
///    received `R_i` and forwarded `r_i+`.
///
/// Both reduce to the WID rule implemented by [`LttEntry::ready`].
///
/// # Examples
///
/// ```
/// use ring_coherence::{Ltt, LttConfig};
/// use ring_cache::LineAddr;
///
/// let mut ltt = Ltt::new(LttConfig::default());
/// let e = ltt.entry_mut(LineAddr::new(9));
/// assert!(!e.busy());
/// ```
#[derive(Debug)]
pub struct Ltt {
    cfg: LttConfig,
    /// The entries, filed by set: set `s` lives in bucket `s % BUCKETS`,
    /// its entries in allocation order (a stable subsequence of the
    /// bucket). Up to `BUCKETS` sets, each bucket holds one set (the
    /// explorer's single set uses bucket 0 alone); a larger table files
    /// sets `s`, `s + BUCKETS`, ... together. The buckets live inside the
    /// `Ltt`, so a lookup reaches its set's entries without first
    /// loading a heap array of set headers.
    buckets: [Vec<LttEntry>; BUCKETS],
    /// `sets - 1`: masks a line to its set.
    set_mask: usize,
    response_seq: u64,
    stalled_responses: u64,
    /// Live entry count across all sets (kept incrementally; allocation
    /// happens on every observed transaction, so a full scan there
    /// would be hot-path work).
    entries: usize,
    peak_entries: usize,
    overflows: u64,
    /// Emptied slot vectors of deallocated entries, handed to the next
    /// entries allocated so that a transaction costs no heap allocation
    /// at any node. Storage, not state: never saved or digested, and not
    /// copied by `Clone` (the model checker clones agents per explored
    /// state).
    spare: Vec<Vec<TxnSlot>>,
}

impl Clone for Ltt {
    fn clone(&self) -> Self {
        Ltt {
            cfg: self.cfg,
            buckets: self.buckets.clone(),
            set_mask: self.set_mask,
            response_seq: self.response_seq,
            stalled_responses: self.stalled_responses,
            entries: self.entries,
            peak_entries: self.peak_entries,
            overflows: self.overflows,
            spare: Vec::new(),
        }
    }
}

/// Buckets of an [`Ltt`] (a power of two): the paper geometry's set
/// count.
const BUCKETS: usize = 8;

impl Ltt {
    /// Creates an empty LTT.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields no sets or a non-power-of-two set
    /// count.
    pub fn new(cfg: LttConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "LTT set count must be a power of two"
        );
        Ltt {
            cfg,
            buckets: Default::default(),
            set_mask: sets - 1,
            response_seq: 0,
            stalled_responses: 0,
            entries: 0,
            peak_entries: 0,
            overflows: 0,
            spare: Vec::new(),
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & self.set_mask
    }

    /// The bucket `line`'s set is filed in.
    fn bucket_index(&self, line: LineAddr) -> usize {
        self.set_index(line) % BUCKETS
    }

    /// The entries of set `set`, in allocation order.
    fn set_entries(&self, set: usize) -> impl Iterator<Item = &LttEntry> + Clone {
        let mask = self.set_mask;
        self.buckets[set % BUCKETS]
            .iter()
            .filter(move |e| (e.line.raw() as usize) & mask == set)
    }

    /// The entry for `line`, if allocated.
    pub fn entry(&self, line: LineAddr) -> Option<&LttEntry> {
        self.buckets[self.bucket_index(line)]
            .iter()
            .find(|e| e.line == line)
    }

    /// The entry for `line`, allocating if needed.
    ///
    /// Following the paper's first sizing approach (§5.1), the table is
    /// provisioned for the maximum in-flight transactions; if a workload
    /// nevertheless exceeds a set's associativity, the allocation succeeds
    /// anyway and an overflow is counted (the NACK-and-retry alternative
    /// is explicitly not modeled, as in the paper).
    pub fn entry_mut(&mut self, line: LineAddr) -> &mut LttEntry {
        let ways = self.cfg.ways;
        let set = self.set_index(line);
        let b = set % BUCKETS;
        let pos = self.buckets[b].iter().position(|e| e.line == line);
        let i = match pos {
            Some(i) => i,
            None => {
                // A bucket holds at least its sets' entries, so only a
                // bucket of `ways` or more can hold a full set.
                if self.buckets[b].len() >= ways && self.set_entries(set).count() >= ways {
                    self.overflows += 1;
                }
                let slots = self.spare.pop().unwrap_or_default();
                self.buckets[b].push(LttEntry::new(line, slots));
                self.entries += 1;
                self.peak_entries = self.peak_entries.max(self.entries);
                self.buckets[b].len() - 1
            }
        };
        &mut self.buckets[b][i]
    }

    /// Records an observed request: allocates the slot and remembers the
    /// message (the SV bit is set later, by [`Ltt::snoop_complete`]).
    pub fn see_request(&mut self, req: RequestMsg) {
        let entry = self.entry_mut(req.line);
        let slot = entry.slot_mut(req.txn);
        slot.request = Some(req);
    }

    /// Records a completed local snoop for `txn`; a positive outcome sets
    /// WID to the requester (mechanism 1: this node is the supplier).
    pub fn snoop_complete(&mut self, txn: TxnId, line: LineAddr, positive: bool) {
        let entry = self.entry_mut(line);
        let slot = entry.slot_mut(txn);
        slot.snoop_done = true;
        slot.snoop_positive = positive;
        if positive {
            entry.wid = Some(txn.node);
            // A real winner supersedes any starving-node reservation for
            // the same node; a different node's win is only possible when
            // the reservation already lapsed or was force-cleared.
            if entry
                .reservation
                .map(|(n, _)| n == txn.node)
                .unwrap_or(false)
            {
                entry.reservation = None;
            }
        }
    }

    /// Records an arriving response; a positive response sets WID to the
    /// requester (mechanism 2). Returns whether the response had to be
    /// buffered behind a WID held by another transaction.
    pub fn see_response(&mut self, resp: ResponseMsg) -> bool {
        self.response_seq += 1;
        let seq = self.response_seq;
        let entry = self.entry_mut(resp.line);
        if resp.positive {
            entry.wid = Some(resp.requester());
        }
        let stalled = !entry.wid_allows(resp.requester());
        let slot = entry.slot_mut(resp.txn);
        slot.response = Some(resp);
        slot.response_order = seq;
        if stalled {
            self.stalled_responses += 1;
        }
        stalled
    }

    /// Places a starving-node reservation on `line` (SNID forward
    /// progress, §5.2.2): the snoop path defers granting suppliership to
    /// nodes other than `node` until the reservation is consumed or
    /// lapses at `until`. Response forwarding is unaffected.
    pub fn reserve(&mut self, line: LineAddr, node: NodeId, until: Cycle) {
        let entry = self.entry_mut(line);
        entry.reservation = Some((node, until));
    }

    /// The active reservation on `line`, if any.
    pub fn reservation(&self, line: LineAddr) -> Option<(NodeId, Cycle)> {
        self.entry(line).and_then(|e| e.reservation)
    }

    /// Clears the reservation on `line` if `now` is past its expiry (or
    /// unconditionally when `force`). Returns whether one was cleared.
    pub fn clear_reservation(&mut self, line: LineAddr, now: Cycle, force: bool) -> bool {
        let b = self.bucket_index(line);
        if let Some(i) = self.buckets[b].iter().position(|e| e.line == line) {
            let entry = &mut self.buckets[b][i];
            if let Some((_, t)) = entry.reservation {
                if force || now >= t {
                    entry.reservation = None;
                    if entry.idle() {
                        self.free(b, i);
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Removes the slot for `txn` on `line` and returns it; deallocates
    /// the entry if it becomes idle.
    pub fn take(&mut self, line: LineAddr, txn: TxnId) -> Option<TxnSlot> {
        let b = self.bucket_index(line);
        let i = self.buckets[b].iter().position(|e| e.line == line)?;
        let entry = &mut self.buckets[b][i];
        let slot = entry.take(txn);
        if entry.idle() {
            self.free(b, i);
        }
        slot
    }

    /// Deallocates entry `i` of bucket `b` (idle, so its slot vector is
    /// empty) and keeps the vector for the next entry. The bucket keeps
    /// its order, so every set keeps its own.
    fn free(&mut self, b: usize, i: usize) {
        let entry = self.buckets[b].remove(i);
        self.spare.push(entry.slots);
        self.entries -= 1;
    }

    /// Whether any transaction for `line` is in flight at this node —
    /// the In-Progress Transaction Restriction (§3.2) consults this.
    pub fn line_busy(&self, line: LineAddr) -> bool {
        self.entry(line).map(LttEntry::busy).unwrap_or(false)
    }

    /// Responses that were stalled by the WID rule so far.
    pub fn stalled_responses(&self) -> u64 {
        self.stalled_responses
    }

    /// Peak simultaneous entries across all sets.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Allocations beyond a set's nominal associativity.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Current number of allocated entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hashes the semantically relevant table contents into `h`, in a
    /// canonical order independent of allocation history.
    ///
    /// Entries are visited sorted by line and slots sorted by transaction
    /// id; each slot's raw `response_order` (a globally increasing
    /// sequence number) is canonicalized to its rank among the entry's
    /// buffered responses, which is the only aspect draining depends on.
    /// Statistics counters are excluded. Used by the `ring-model`
    /// state-space explorer to deduplicate protocol states.
    pub fn digest(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut entries: Vec<&LttEntry> = self.buckets.iter().flatten().collect();
        entries.sort_by_key(|e| e.line);
        entries.len().hash(h);
        for e in entries {
            e.line.hash(h);
            e.wid.hash(h);
            e.reservation.hash(h);
            let mut orders: Vec<u64> = e
                .slots
                .iter()
                .filter(|s| s.response.is_some())
                .map(|s| s.response_order)
                .collect();
            orders.sort_unstable();
            let mut slots: Vec<&TxnSlot> = e.slots.iter().collect();
            slots.sort_by_key(|s| s.txn);
            slots.len().hash(h);
            for s in slots {
                s.txn.hash(h);
                s.request.hash(h);
                s.snoop_done.hash(h);
                s.snoop_positive.hash(h);
                s.response.hash(h);
                if s.response.is_some() {
                    orders.binary_search(&s.response_order).ok().hash(h);
                }
            }
        }
    }
}

impl ring_snapshot::Snap for TxnSlot {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.txn);
        w.put(&self.request);
        w.put(&self.snoop_done);
        w.put(&self.snoop_positive);
        w.put(&self.response);
        w.put(&self.response_order);
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(TxnSlot {
            txn: r.get()?,
            request: r.get()?,
            snoop_done: r.get()?,
            snoop_positive: r.get()?,
            response: r.get()?,
            response_order: r.get()?,
        })
    }
}

impl ring_snapshot::Snap for LttEntry {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.line);
        w.put(&self.wid);
        w.put(&self.reservation);
        w.put(&self.slots);
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(LttEntry {
            line: r.get()?,
            wid: r.get()?,
            reservation: r.get()?,
            slots: r.get()?,
        })
    }
}

impl Ltt {
    /// Serializes the full table, preserving per-set entry order (which
    /// victim-free allocation order and drain order depend on) and the
    /// raw response sequence numbers. The sets are written as a
    /// `Vec<Vec<LttEntry>>` in set order; how sets share buckets is
    /// storage and is not saved.
    pub fn snap_save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&((self.set_mask + 1) as u64));
        for set in 0..=self.set_mask {
            let entries = self.set_entries(set);
            w.put(&(entries.clone().count() as u64));
            for e in entries {
                w.put(e);
            }
        }
        w.put(&self.response_seq);
        w.put(&self.stalled_responses);
        w.put(&self.entries);
        w.put(&self.peak_entries);
        w.put(&self.overflows);
    }

    /// Rebuilds a table from a snapshot taken under the same geometry.
    ///
    /// # Errors
    ///
    /// `Malformed` (naming the reader's section) if the set count differs
    /// from the configuration's, an entry sits in a set its line does not
    /// map to, a line is listed twice, or the stored entry count is not
    /// the number of entries in the sets: no table the simulator builds
    /// holds any of these.
    pub fn snap_load(
        r: &mut ring_snapshot::SnapReader<'_>,
        cfg: LttConfig,
    ) -> Result<Self, ring_snapshot::SnapshotError> {
        let mut ltt = Ltt::new(cfg);
        let sets: Vec<Vec<LttEntry>> = r.get()?;
        if sets.len() != ltt.set_mask + 1 {
            return Err(r.malformed("LTT set count does not match the configuration"));
        }
        for (idx, set) in sets.iter().enumerate() {
            for (i, e) in set.iter().enumerate() {
                let line = e.line.raw();
                if ltt.set_index(e.line) != idx {
                    return Err(r.malformed(format!("LTT files line {line} under set {idx}")));
                }
                if set[..i].iter().any(|p| p.line == e.line) {
                    return Err(r.malformed(format!("LTT lists line {line} twice")));
                }
            }
        }
        let held: usize = sets.iter().map(Vec::len).sum();
        for (idx, set) in sets.into_iter().enumerate() {
            ltt.buckets[idx % BUCKETS].extend(set);
        }
        ltt.response_seq = r.get()?;
        ltt.stalled_responses = r.get()?;
        ltt.entries = r.get()?;
        if ltt.entries != held {
            return Err(r.malformed(format!(
                "LTT counts {} entries but its sets hold {held}",
                ltt.entries
            )));
        }
        ltt.peak_entries = r.get()?;
        ltt.overflows = r.get()?;
        Ok(ltt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Priority, TxnKind};

    fn txn(node: usize, serial: u64) -> TxnId {
        TxnId {
            node: NodeId(node),
            serial,
        }
    }

    fn req(node: usize, serial: u64, line: u64, kind: TxnKind) -> RequestMsg {
        RequestMsg {
            txn: txn(node, serial),
            line: LineAddr::new(line),
            kind,
            priority: Priority::new(kind, 0, NodeId(node)),
        }
    }

    fn resp(node: usize, serial: u64, line: u64, positive: bool) -> ResponseMsg {
        let mut r = ResponseMsg::initial(&req(node, serial, line, TxnKind::Read));
        r.positive = positive;
        r
    }

    #[test]
    fn slot_lifecycle() {
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(5);
        ltt.see_request(req(1, 0, 5, TxnKind::Read));
        assert!(ltt.line_busy(line));
        ltt.snoop_complete(txn(1, 0), line, false);
        ltt.see_response(resp(1, 0, 5, false));
        let ready = ltt.entry(line).unwrap().ready();
        assert_eq!(ready, vec![txn(1, 0)]);
        let slot = ltt.take(line, txn(1, 0)).unwrap();
        assert!(!slot.response.unwrap().positive);
        assert!(slot.snoop_done);
        assert!(!ltt.line_busy(line));
        assert!(ltt.is_empty());
    }

    #[test]
    fn response_without_snoop_not_ready() {
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(5);
        ltt.see_request(req(1, 0, 5, TxnKind::Read));
        ltt.see_response(resp(1, 0, 5, false));
        assert!(ltt.entry(line).unwrap().ready().is_empty());
        ltt.snoop_complete(txn(1, 0), line, false);
        assert_eq!(ltt.entry(line).unwrap().ready(), vec![txn(1, 0)]);
    }

    #[test]
    fn positive_snoop_sets_wid_and_blocks_losers() {
        // Mechanism 1: after the supplier snoops the winner positively,
        // the loser's response stalls until the winner's is forwarded.
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(7);
        // Winner A's request snooped positive.
        ltt.see_request(req(1, 0, 7, TxnKind::Read));
        ltt.snoop_complete(txn(1, 0), line, true);
        // Loser B fully present (snooped + response) — but stalled.
        ltt.see_request(req(2, 0, 7, TxnKind::Read));
        ltt.snoop_complete(txn(2, 0), line, false);
        assert!(ltt.see_response(resp(2, 0, 7, false)));
        assert!(ltt.entry(line).unwrap().ready().is_empty());
        // Winner's response arrives → winner ready first.
        ltt.see_response(resp(1, 0, 7, false)); // will be combined to + by agent
        assert_eq!(ltt.entry(line).unwrap().ready(), vec![txn(1, 0)]);
        // Forward winner → loser drains.
        ltt.take(line, txn(1, 0));
        assert_eq!(ltt.entry(line).unwrap().ready(), vec![txn(2, 0)]);
        assert_eq!(ltt.stalled_responses(), 1);
    }

    #[test]
    fn positive_response_sets_wid_mechanism_two() {
        // Mechanism 2 (the Figure 7 scenario): r_A+ arrives before R_A;
        // a later r_B- must not overtake it.
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(9);
        // r_A+ arrives first (R_A delayed in the network).
        assert!(!ltt.see_response(resp(1, 0, 9, true)));
        // B's request + snoop + response all arrive.
        ltt.see_request(req(2, 0, 9, TxnKind::WriteHit));
        ltt.snoop_complete(txn(2, 0), line, false);
        assert!(ltt.see_response(resp(2, 0, 9, false)));
        // B is stalled: WID = A.
        assert!(ltt.entry(line).unwrap().ready().is_empty());
        // R_A finally arrives and is snooped (negatively — C is not the
        // supplier in Figure 7).
        ltt.see_request(req(1, 0, 9, TxnKind::Read));
        ltt.snoop_complete(txn(1, 0), line, false);
        // Now A drains first, then B.
        assert_eq!(ltt.entry(line).unwrap().ready(), vec![txn(1, 0)]);
        ltt.take(line, txn(1, 0));
        assert_eq!(ltt.entry(line).unwrap().ready(), vec![txn(2, 0)]);
    }

    #[test]
    fn two_negative_responses_can_reorder() {
        // "Two negative responses can always overtake each other."
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(11);
        ltt.see_request(req(1, 0, 11, TxnKind::Read));
        ltt.see_request(req(2, 0, 11, TxnKind::Read));
        ltt.see_response(resp(1, 0, 11, false));
        ltt.see_response(resp(2, 0, 11, false));
        // Only B's snoop is done: B may forward even though A's response
        // arrived first.
        ltt.snoop_complete(txn(2, 0), line, false);
        assert_eq!(ltt.entry(line).unwrap().ready(), vec![txn(2, 0)]);
    }

    #[test]
    fn reservation_tracks_and_expires() {
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(13);
        ltt.reserve(line, NodeId(5), 1000);
        assert_eq!(ltt.reservation(line), Some((NodeId(5), 1000)));
        assert!(!ltt.clear_reservation(line, 999, false));
        assert!(ltt.clear_reservation(line, 1000, false));
        assert_eq!(ltt.reservation(line), None);
    }

    #[test]
    fn reservation_does_not_stall_responses() {
        // Unlike the WID, a starving-node reservation must not delay
        // response forwarding -- it only gates suppliership grants.
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(13);
        ltt.reserve(line, NodeId(5), 1000);
        ltt.see_request(req(2, 0, 13, TxnKind::Read));
        ltt.snoop_complete(txn(2, 0), line, false);
        ltt.see_response(resp(2, 0, 13, false));
        assert_eq!(ltt.entry(line).unwrap().ready(), vec![txn(2, 0)]);
    }

    #[test]
    fn force_clear_reservation() {
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(14);
        ltt.reserve(line, NodeId(5), 1000);
        assert!(ltt.clear_reservation(line, 0, true));
        assert!(!ltt.clear_reservation(line, 0, true));
    }

    #[test]
    fn positive_snoop_consumes_matching_reservation() {
        let mut ltt = Ltt::new(LttConfig::default());
        let line = LineAddr::new(15);
        ltt.reserve(line, NodeId(5), 1000);
        ltt.see_request(req(5, 0, 15, TxnKind::Read));
        ltt.snoop_complete(txn(5, 0), line, true);
        assert_eq!(ltt.reservation(line), None);
        assert_eq!(ltt.entry(line).unwrap().wid, Some(NodeId(5)));
    }

    #[test]
    fn overflow_is_counted_not_fatal() {
        let mut ltt = Ltt::new(LttConfig {
            entries: 2,
            ways: 2,
        });
        // 1 set, 2 ways; third line overflows but still allocates.
        ltt.see_request(req(1, 0, 1, TxnKind::Read));
        ltt.see_request(req(1, 1, 2, TxnKind::Read));
        ltt.see_request(req(1, 2, 3, TxnKind::Read));
        assert_eq!(ltt.overflows(), 1);
        assert_eq!(ltt.len(), 3);
    }

    #[test]
    fn take_unknown_returns_none() {
        let mut ltt = Ltt::new(LttConfig::default());
        assert!(ltt.take(LineAddr::new(1), txn(1, 0)).is_none());
    }

    #[test]
    fn freed_slot_storage_is_reused_but_never_cloned() {
        let mut ltt = Ltt::new(LttConfig::default());
        ltt.see_request(req(1, 0, 1, TxnKind::Read));
        ltt.snoop_complete(txn(1, 0), LineAddr::new(1), false);
        ltt.see_response(resp(1, 0, 1, false));
        ltt.take(LineAddr::new(1), txn(1, 0));
        assert_eq!(ltt.spare.len(), 1);
        assert!(ltt.clone().spare.is_empty());
        // The next entry, on another line, takes the freed storage.
        ltt.see_request(req(2, 0, 2, TxnKind::Read));
        assert!(ltt.spare.is_empty());
        assert_eq!(ltt.entry(LineAddr::new(2)).unwrap().in_flight(), 1);
    }

    /// An encoded 2-set table whose sets list `sets` (lines of idle
    /// entries) and whose stored entry count is `entries`.
    fn encoded(sets: [&[u64]; 2], entries: usize) -> Vec<u8> {
        let sets: Vec<Vec<LttEntry>> = sets
            .iter()
            .map(|lines| {
                lines
                    .iter()
                    .map(|&l| LttEntry::new(LineAddr::new(l), Vec::new()))
                    .collect()
            })
            .collect();
        let mut w = ring_snapshot::SnapWriter::new();
        w.put(&sets);
        for counter in [0u64, 0] {
            w.put(&counter);
        }
        w.put(&entries);
        w.put(&entries);
        w.put(&0u64);
        w.into_bytes()
    }

    fn loaded(bytes: &[u8]) -> Result<Ltt, ring_snapshot::SnapshotError> {
        let cfg = LttConfig {
            entries: 4,
            ways: 2,
        };
        let mut r = ring_snapshot::SnapReader::new("agents", bytes);
        let ltt = Ltt::snap_load(&mut r, cfg)?;
        r.finish()?;
        Ok(ltt)
    }

    fn is_malformed(r: Result<Ltt, ring_snapshot::SnapshotError>) -> bool {
        matches!(r, Err(ring_snapshot::SnapshotError::Malformed { .. }))
    }

    #[test]
    fn consistent_table_loads_with_its_count() {
        let ltt = loaded(&encoded([&[2, 4], &[1]], 3)).unwrap();
        assert_eq!(ltt.len(), 3);
        assert_eq!(ltt.peak_entries(), 3);
        assert!(ltt.entry(LineAddr::new(4)).is_some());
    }

    #[test]
    fn entry_count_disagreeing_with_the_sets_is_malformed() {
        assert!(is_malformed(loaded(&encoded([&[2, 4], &[1]], 2))));
        assert!(is_malformed(loaded(&encoded([&[2, 4], &[1]], 4))));
    }

    #[test]
    fn entry_in_the_wrong_set_is_malformed() {
        assert!(is_malformed(loaded(&encoded([&[2, 3], &[1]], 3))));
    }

    #[test]
    fn line_listed_twice_is_malformed() {
        assert!(is_malformed(loaded(&encoded([&[2, 2], &[1]], 3))));
    }

    #[test]
    fn len_follows_allocation_and_release() {
        let mut ltt = Ltt::new(LttConfig::default());
        ltt.see_request(req(1, 0, 5, TxnKind::Read));
        ltt.see_request(req(2, 0, 6, TxnKind::Read));
        ltt.see_request(req(3, 0, 6, TxnKind::Read));
        assert_eq!(ltt.len(), 2);
        assert!(ltt.take(LineAddr::new(6), txn(2, 0)).is_some());
        assert_eq!(ltt.len(), 2);
        assert!(ltt.take(LineAddr::new(6), txn(3, 0)).is_some());
        assert!(ltt.take(LineAddr::new(5), txn(1, 0)).is_some());
        assert!(ltt.is_empty());
    }

    /// Drives an LTT of geometry `cfg` through 800 allocations, releases
    /// and reservations over lines that crowd a few sets (several of
    /// them sharing a bucket when the table has more than eight sets).
    /// After every step each pool line's lookup must agree with a model
    /// of which lines are allocated. Returns the overflow count and the
    /// length and FxHash of the final `snap_save` bytes, after checking
    /// that a reload saves the same bytes.
    fn layout_run(cfg: LttConfig) -> (u64, usize, u64) {
        use std::collections::BTreeMap;
        use std::hash::Hasher;
        // Sets 0, 8, 16, 1 and 9 of a 64-set table; two sets of 8.
        let pool: Vec<u64> = [0u64, 8, 16, 1, 9]
            .iter()
            .flat_map(|&s| (0..10).map(move |k| s + 64 * k))
            .collect();
        let mut ltt = Ltt::new(cfg);
        // Live transactions and reservation expiries per line.
        let mut live: Vec<(u64, TxnId)> = Vec::new();
        let mut reserved: BTreeMap<u64, Cycle> = BTreeMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..800u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = pool[(x >> 40) as usize % pool.len()];
            let node = (x >> 8) as usize % 16;
            match x % 8 {
                0..=3 => {
                    ltt.see_request(req(node, step, line, TxnKind::Read));
                    live.push((line, txn(node, step)));
                }
                4 | 5 if !live.is_empty() => {
                    let (l, t) = live.remove((x >> 20) as usize % live.len());
                    ltt.snoop_complete(t, LineAddr::new(l), false);
                    ltt.see_response(resp(t.node.0, t.serial, l, false));
                    assert!(ltt.take(LineAddr::new(l), t).is_some());
                }
                6 => {
                    ltt.reserve(LineAddr::new(line), NodeId(node), step + 50);
                    reserved.insert(line, step + 50);
                }
                _ => {
                    let due = reserved.get(&line).is_some_and(|&t| step >= t);
                    assert_eq!(ltt.clear_reservation(LineAddr::new(line), step, false), due);
                    if due {
                        reserved.remove(&line);
                    }
                }
            }
            for &l in &pool {
                let want = reserved.contains_key(&l) || live.iter().any(|&(m, _)| m == l);
                assert_eq!(ltt.entry(LineAddr::new(l)).is_some(), want, "line {l}");
            }
            assert_eq!(
                ltt.len(),
                pool.iter()
                    .filter(|&&l| ltt.entry(LineAddr::new(l)).is_some())
                    .count()
            );
        }
        let mut w = ring_snapshot::SnapWriter::new();
        ltt.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut r = ring_snapshot::SnapReader::new("agents", &bytes);
        let back = Ltt::snap_load(&mut r, cfg).expect("a saved table loads");
        r.finish().unwrap();
        let mut again = ring_snapshot::SnapWriter::new();
        back.snap_save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        let mut h = ring_sim::FxHasher::default();
        h.write(&bytes);
        (ltt.overflows(), bytes.len(), h.finish())
    }

    /// The set layout at the explorer's single set, the paper's eight
    /// and sixty-four sets: lookups follow the model, and the overflow
    /// counts and snapshot bytes are those of the table that kept each
    /// set in a heap vector of its own (pinned from that layout).
    #[test]
    fn every_set_count_keeps_lookups_overflows_and_bytes() {
        for (entries, ways, want) in [
            (16, 16, (66, 14_780, 0xd686_6dbf_b86d_1344)),
            (512, 64, (0, 14_836, 0x36eb_3117_a2ce_1b2d)),
            (512, 8, (22, 15_284, 0xa47f_cf98_ca50_b3fc)),
        ] {
            let got = layout_run(LttConfig { entries, ways });
            assert_eq!(got, want, "{entries}/{ways}");
        }
    }

    #[test]
    fn peak_entries_tracks_high_water() {
        let mut ltt = Ltt::new(LttConfig::default());
        ltt.see_request(req(1, 0, 1, TxnKind::Read));
        ltt.see_request(req(1, 1, 2, TxnKind::Read));
        ltt.snoop_complete(txn(1, 0), LineAddr::new(1), false);
        ltt.see_response(resp(1, 0, 1, false));
        ltt.take(LineAddr::new(1), txn(1, 0));
        assert_eq!(ltt.peak_entries(), 2);
        assert_eq!(ltt.len(), 1);
    }
}
