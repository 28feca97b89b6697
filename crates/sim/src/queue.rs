//! The event priority queue.
//!
//! Implemented as a calendar queue tuned for the delay profile of the
//! simulated machine: almost every event is scheduled a handful of
//! cycles out (ring hops are ~8 cycles, a DRAM round trip is a few
//! hundred), so events land in one-cycle-wide buckets indexed by
//! `time % BUCKETS` and are pushed/popped in O(1). The buckets are
//! linked lists threaded through one slab of event slots, so the
//! queue's storage follows the number of pending events, not the
//! number of buckets. The rare far-future event (watchdogs, cycle caps)
//! falls back to a binary heap. Pops merge the earliest bucketed event
//! with the heap top by `(time, seq)`, so the observable order —
//! nondecreasing time, FIFO within a cycle — is *identical* to the
//! previous pure-heap implementation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Number of one-cycle-wide calendar buckets. A power of two so the
/// bucket index is a mask, and wider than any hot-path delay (ring
/// hops, cache and DRAM latencies) so only watchdog-scale events hit
/// the heap.
const BUCKETS: usize = 4096;
const MASK: u64 = BUCKETS as u64 - 1;
/// Words in the bucket-occupancy bitmap.
const WORDS: usize = BUCKETS / 64;
/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// A deterministic discrete-event queue.
///
/// Events are popped in nondecreasing time order; events scheduled for the
/// same cycle are popped in the order they were scheduled (FIFO), which
/// makes simulations reproducible.
///
/// # Examples
///
/// ```
/// let mut q = ring_sim::EventQueue::new();
/// q.schedule(3, 'x');
/// assert_eq!(q.peek_time(), Some(3));
/// assert_eq!(q.pop(), Some((3, 'x')));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Calendar buckets for events within `[now, now + BUCKETS)`.
    ///
    /// Because pops always take the global minimum, `now` can never
    /// pass a pending bucketed event, and two in-window times that
    /// share a bucket index are equal — so at any moment a non-empty
    /// bucket holds entries of exactly one time (its `time`), in
    /// insertion (= FIFO) order. Entries carry no key of their own,
    /// which keeps the per-event copy to the payload itself.
    buckets: Vec<Bucket>,
    /// Storage for every bucketed event. A non-empty bucket is the list
    /// of slots from its `head` to its `tail` along `next`; the free
    /// slots form a second list from `free`. A pop pushes its slot onto
    /// the free list and a schedule takes the top one, so the event
    /// written next lands on the cache line the last pop read, and the
    /// slab never grows past the most events bucketed at once.
    slots: Vec<Slot<E>>,
    /// First free slot, or `NIL` when every slot holds an event.
    free: u32,
    /// Occupancy bitmap over buckets; the earliest bucketed time is
    /// found by a circular first-set-bit scan from `now & MASK`
    /// (bucketed times all lie within one window, so circular index
    /// order from `now` is time order). A bucket's fields mean
    /// something only while its bit is set.
    occ: [u64; WORDS],
    /// Number of events currently in `buckets`.
    in_buckets: usize,
    /// Fallback for events scheduled `BUCKETS` or more cycles out.
    /// Entries are never migrated to buckets; pops merge the heap top
    /// with the bucket front by time, ties to the heap — every heap
    /// entry at time `t` was scheduled while `now <= t - BUCKETS`,
    /// strictly before any bucket entry at `t` could be, so heap-first
    /// is exactly global FIFO order.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Tie-break for heap entries sharing a time (heap-internal FIFO).
    seq: u64,
    now: Cycle,
    popped: u64,
    peak: usize,
    /// Batch-drained events ([`EventQueue::drain_next_cycle`]) the
    /// engine has not yet begun processing. A pop-by-pop loop would
    /// still be holding them in the queue while processing earlier
    /// same-cycle events, so peak tracking counts them as pending —
    /// that keeps the high-water mark of a batched engine identical to
    /// the serial one. Always 0 outside a batch (and in snapshots,
    /// which are taken between batches).
    in_flight: usize,
}

/// One calendar bucket: the common time of its events and the first
/// and last slot of their list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    time: Cycle,
    head: u32,
    tail: u32,
}

/// One slab slot: an event (`None` while the slot is free) and the next
/// slot of its bucket or of the free list. A bucket's tail link is
/// stale and never read: the bucket's `tail` ends the walk.
#[derive(Debug, Clone)]
struct Slot<E> {
    event: Option<E>,
    next: u32,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Where the next event lives, with its `(time, seq)` key.
#[derive(Clone, Copy)]
struct NextKey {
    time: Cycle,
    from_bucket: bool,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![
                Bucket {
                    time: 0,
                    head: NIL,
                    tail: NIL,
                };
                BUCKETS
            ],
            slots: Vec::new(),
            free: NIL,
            occ: [0; WORDS],
            in_buckets: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            popped: 0,
            peak: 0,
            in_flight: 0,
        }
    }

    /// Schedules `event` to fire at absolute cycle `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before the last popped event's
    /// time); scheduling in the past would break causality.
    pub fn schedule(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule event at cycle {time} before current time {}",
            self.now
        );
        if time - self.now < BUCKETS as Cycle {
            let s = self.store(event);
            let idx = (time & MASK) as usize;
            let bucket = &mut self.buckets[idx];
            if self.occ[idx >> 6] & (1 << (idx & 63)) == 0 {
                self.occ[idx >> 6] |= 1 << (idx & 63);
                *bucket = Bucket {
                    time,
                    head: s,
                    tail: s,
                };
            } else {
                debug_assert_eq!(bucket.time, time);
                self.slots[bucket.tail as usize].next = s;
                bucket.tail = s;
            }
            self.in_buckets += 1;
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry { time, seq, event }));
        }
        self.peak = self.peak.max(self.len() + self.in_flight);
    }

    /// Writes `event` into the most recently freed slot, or into a new
    /// one when none is free, and returns the slot.
    fn store(&mut self, event: E) -> u32 {
        if self.free == NIL {
            let s = self.slots.len();
            assert!(s < NIL as usize, "u32 links address at most {NIL} slots");
            self.slots.push(Slot {
                event: Some(event),
                next: NIL,
            });
            return s as u32;
        }
        let s = self.free;
        let slot = &mut self.slots[s as usize];
        self.free = slot.next;
        slot.event = Some(event);
        s
    }

    /// Schedules `event` to fire `delay` cycles from the current time.
    pub fn schedule_in(&mut self, delay: Cycle, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Time of the earliest bucketed event: a circular first-set-bit
    /// scan over the occupancy bitmap starting at `now`'s bucket (at
    /// most `WORDS` word reads; typically the first is a hit because
    /// pending events cluster just past `now`).
    fn bucket_min(&self) -> Option<Cycle> {
        if self.in_buckets == 0 {
            return None;
        }
        let start = (self.now & MASK) as usize;
        let mut w = start >> 6;
        let mut word = self.occ[w] & (!0u64 << (start & 63));
        for _ in 0..=WORDS {
            if word != 0 {
                let idx = (w << 6) + word.trailing_zeros() as usize;
                return Some(self.buckets[idx].time);
            }
            w = (w + 1) & (WORDS - 1);
            word = self.occ[w];
        }
        unreachable!("in_buckets > 0 but the occupancy bitmap is empty")
    }

    /// Key of the next event to pop, merging bucket front and heap top.
    /// Time ties go to the heap (see the `heap` field docs: that is
    /// global FIFO order).
    fn next_key(&self) -> Option<NextKey> {
        let bucket = self.bucket_min();
        let heap = self.heap.peek().map(|Reverse(e)| e.time);
        let (time, from_bucket) = match (bucket, heap) {
            (Some(b), Some(h)) => {
                if b < h {
                    (b, true)
                } else {
                    (h, false)
                }
            }
            (Some(b), None) => (b, true),
            (None, Some(h)) => (h, false),
            (None, None) => return None,
        };
        Some(NextKey { time, from_bucket })
    }

    /// Removes the event described by `key`, advancing the clock.
    fn take(&mut self, key: NextKey) -> (Cycle, E) {
        let (time, event) = if key.from_bucket {
            self.in_buckets -= 1;
            let idx = (key.time & MASK) as usize;
            let bucket = &mut self.buckets[idx];
            let s = bucket.head;
            let slot = &mut self.slots[s as usize];
            let event = slot
                .event
                .take()
                .expect("next_key found this bucket non-empty");
            if s == bucket.tail {
                self.occ[idx >> 6] &= !(1 << (idx & 63));
            } else {
                bucket.head = slot.next;
            }
            slot.next = self.free;
            self.free = s;
            (key.time, event)
        } else {
            let Reverse(e) = self.heap.pop().expect("next_key found the heap non-empty");
            (e.time, e.event)
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.popped += 1;
        (time, event)
    }

    /// Removes and returns the next event as `(time, event)`, advancing
    /// the current time to the event's time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.next_key().map(|k| self.take(k))
    }

    /// Like [`pop`](Self::pop), but only if the next event's time is at
    /// most `cap`; otherwise leaves the queue (and the clock) untouched
    /// and returns `None`. Lets a bounded run stop *without discarding*
    /// the first event past the bound.
    pub fn pop_before(&mut self, cap: Cycle) -> Option<(Cycle, E)> {
        let key = self.next_key()?;
        if key.time > cap {
            return None;
        }
        Some(self.take(key))
    }

    /// Window-drain companion to [`pop_before`](Self::pop_before): pops
    /// *every* event scheduled for the earliest pending cycle (if that
    /// cycle is at most `cap`), appending them to `out` in exact pop
    /// order, and returns the drained cycle. The clock and the
    /// processed-event counter advance exactly as the equivalent
    /// sequence of `pop_before` calls would — this is the batch-drain
    /// primitive the parallel engine builds its per-cycle rounds on.
    /// Each drained event is counted as *in flight* for peak-length
    /// accounting until the caller marks it processed with
    /// [`release_in_flight`](Self::release_in_flight): a pop-by-pop
    /// engine still holds the later same-cycle events in the queue
    /// while processing the earlier ones, and the peak high-water mark
    /// must come out identical either way.
    pub fn drain_next_cycle(&mut self, cap: Cycle, out: &mut Vec<E>) -> Option<Cycle> {
        let first = self.next_key()?;
        if first.time > cap {
            return None;
        }
        let t = first.time;
        out.push(self.take(first).1);
        self.in_flight += 1;
        while let Some(key) = self.next_key() {
            if key.time != t {
                break;
            }
            out.push(self.take(key).1);
            self.in_flight += 1;
        }
        Some(t)
    }

    /// Marks one batch-drained event as processed: peak-length
    /// accounting stops treating it as pending. Call exactly once per
    /// event, immediately *before* processing it (a serial pop has
    /// already removed the event from the queue when its handler runs).
    pub fn release_in_flight(&mut self) {
        debug_assert!(self.in_flight > 0, "release without a drained event");
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Drops any remaining in-flight accounting, e.g. when a run aborts
    /// mid-batch and the drained tail will never be processed.
    pub fn clear_in_flight(&mut self) {
        self.in_flight = 0;
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.next_key().map(|k| k.time)
    }

    /// The time of the most recently popped event (0 before any pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_buckets + self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The largest number of events ever pending at once — the working
    /// set the queue data structure must handle efficiently.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Number of pending events held in the calendar buckets (events
    /// within the `BUCKETS`-cycle near-future window). A profiling tap:
    /// `bucket_len() + heap_len() == len()`.
    pub fn bucket_len(&self) -> usize {
        self.in_buckets
    }

    /// Number of pending events on the far-future heap fallback
    /// (watchdogs, cycle caps, retransmission timers scheduled far out).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }
}

impl<E: Clone> EventQueue<E> {
    /// Every pending event as `(time, event)` in exact pop order,
    /// without disturbing the queue — the serialization form for
    /// checkpointing.
    ///
    /// A non-destructive ordered walk: occupied calendar buckets are
    /// visited in circular index order from `now`'s slot (bucketed
    /// times all lie in one window, so that *is* time order), each
    /// along its slot list, and the far-future heap is drained through
    /// a sorted index of `(time, seq)` keys borrowed from the live heap
    /// — only the keys are copied, never the payloads or the queue
    /// structure. The merge follows the pop rule exactly: earlier time
    /// first, time ties to the heap (every heap entry at time `t` was
    /// scheduled strictly before any bucket entry at `t` could be).
    pub fn pending_in_order(&self) -> Vec<(Cycle, E)> {
        let mut out = Vec::with_capacity(self.len());
        let mut heap_keys: Vec<(Cycle, u64, &E)> = self
            .heap
            .iter()
            .map(|Reverse(e)| (e.time, e.seq, &e.event))
            .collect();
        heap_keys.sort_unstable_by_key(|&(t, s, _)| (t, s));
        let mut hi = 0;
        let start = (self.now & MASK) as usize;
        for off in 0..BUCKETS {
            let idx = (start + off) & (MASK as usize);
            if self.occ[idx >> 6] & (1 << (idx & 63)) == 0 {
                continue;
            }
            let bucket = self.buckets[idx];
            while hi < heap_keys.len() && heap_keys[hi].0 <= bucket.time {
                out.push((heap_keys[hi].0, heap_keys[hi].2.clone()));
                hi += 1;
            }
            let mut s = bucket.head;
            loop {
                let slot = &self.slots[s as usize];
                let event = slot.event.as_ref().expect("a bucket's slots hold events");
                out.push((bucket.time, event.clone()));
                if s == bucket.tail {
                    break;
                }
                s = slot.next;
            }
        }
        for &(t, _, e) in &heap_keys[hi..] {
            out.push((t, e.clone()));
        }
        out
    }
}

impl<E> EventQueue<E> {
    /// Rebuilds a queue from checkpoint parts: the clock, the pop
    /// counters, and the pending events in pop order (as produced by
    /// [`EventQueue::pending_in_order`]).
    ///
    /// Re-scheduling in pop order reproduces the exact observable
    /// behavior: within one cycle every structure (bucket FIFO, heap
    /// `(time, seq)` order) preserves insertion order, and across
    /// cycles pops are by time regardless of structure — so the rebuilt
    /// queue pops the identical sequence even though events that sat on
    /// the far-future heap may now land in calendar buckets.
    ///
    /// # Panics
    ///
    /// Panics if any event time is before `now`.
    pub fn restore_from_parts(
        now: Cycle,
        popped: u64,
        peak: usize,
        events: Vec<(Cycle, E)>,
    ) -> Self {
        let mut q = Self::new();
        q.now = now;
        for (t, e) in events {
            q.schedule(t, e);
        }
        q.popped = popped;
        q.peak = q.peak.max(peak);
        q
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10, "first");
        q.pop();
        q.schedule_in(5, "second");
        assert_eq!(q.pop(), Some((15, "second")));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(42, ());
        q.pop();
        assert_eq!(q.now(), 42);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_take_the_heap_path_and_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(2_000_000, "watchdog");
        q.schedule(5, "hop");
        q.schedule(2_000_000, "cap");
        q.schedule(200, "dram");
        assert_eq!(q.pop(), Some((5, "hop")));
        assert_eq!(q.pop(), Some((200, "dram")));
        // Same far-future cycle: FIFO by schedule order.
        assert_eq!(q.pop(), Some((2_000_000, "watchdog")));
        assert_eq!(q.pop(), Some((2_000_000, "cap")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_holds_across_the_heap_bucket_boundary() {
        // An event scheduled far in advance (heap) must still pop
        // before a later-scheduled event at the same cycle (bucket).
        let mut q = EventQueue::new();
        q.schedule(5000, "early-seq"); // beyond the window: heap
        q.schedule(4990, "advance");
        assert_eq!(q.pop(), Some((4990, "advance")));
        q.schedule(5000, "late-seq"); // now in the window: bucket
        assert_eq!(q.pop(), Some((5000, "early-seq")));
        assert_eq!(q.pop(), Some((5000, "late-seq")));
    }

    #[test]
    fn wrapped_bucket_indices_do_not_collide() {
        // Times that share a bucket index modulo the calendar size must
        // still pop in time order (the far one sits in the heap).
        let mut q = EventQueue::new();
        let far = BUCKETS as Cycle + 3;
        q.schedule(far, "far");
        q.schedule(3, "near"); // same bucket index as `far`
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.pop(), Some((far, "far")));
    }

    #[test]
    fn pop_before_respects_the_cap_without_discarding() {
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop_before(15), Some((10, "a")));
        // Next event is past the cap: untouched, clock unchanged.
        assert_eq!(q.pop_before(15), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), 10);
        // The cap is inclusive.
        assert_eq!(q.pop_before(20), Some((20, "b")));
        assert_eq!(q.pop_before(99), None);
    }

    #[test]
    fn peak_len_tracks_the_high_water_mark() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        q.schedule(10_000, ()); // heap path counts too
        q.pop();
        q.pop();
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn depth_taps_split_buckets_and_heap() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        q.schedule(10_000, ()); // far future: heap
        assert_eq!(q.bucket_len(), 2);
        assert_eq!(q.heap_len(), 1);
        assert_eq!(q.bucket_len() + q.heap_len(), q.len());
        q.pop();
        assert_eq!(q.bucket_len(), 1);
        assert_eq!(q.heap_len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_pop_order_and_counters() {
        let mut q = EventQueue::new();
        for i in 0..40u64 {
            q.schedule(i * 3, i);
            q.schedule(6000 + i, 1000 + i); // heap path
        }
        for _ in 0..10 {
            q.pop();
        }
        q.schedule_in(1, 777);
        let events = q.pending_in_order();
        let mut restored =
            EventQueue::restore_from_parts(q.now(), q.events_processed(), q.peak_len(), events);
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.events_processed(), q.events_processed());
        assert_eq!(restored.peak_len(), q.peak_len());
        loop {
            let (a, b) = (q.pop(), restored.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_of_heap_resident_in_window_event_keeps_fifo() {
        // An event scheduled far ahead stays on the heap even once its
        // time enters the bucket window; restore re-buckets it. FIFO
        // against later same-cycle events must survive that migration.
        let mut q = EventQueue::new();
        q.schedule(5000, "early-seq"); // heap
        q.schedule(4990, "advance");
        q.pop(); // now = 4990; 5000 is in-window but still on the heap
        q.schedule(5000, "late-seq"); // bucket
        let restored = EventQueue::restore_from_parts(
            q.now(),
            q.events_processed(),
            q.peak_len(),
            q.pending_in_order(),
        );
        let mut restored = restored;
        assert_eq!(restored.pop(), Some((5000, "early-seq")));
        assert_eq!(restored.pop(), Some((5000, "late-seq")));
    }

    /// The old implementation of `pending_in_order`: clone the whole
    /// queue and destructively pop it. Kept as the test oracle the
    /// non-destructive walk must match event for event.
    fn clone_and_pop<E: Clone>(q: &EventQueue<E>) -> Vec<(Cycle, E)> {
        let mut c = q.clone();
        let mut out = Vec::with_capacity(c.len());
        while let Some(te) = c.pop() {
            out.push(te);
        }
        out
    }

    #[test]
    fn pending_walk_matches_clone_and_pop_exactly() {
        // Adversarial mix: wrapped bucket indices, heap-resident events
        // whose time has entered the window, same-cycle FIFO runs, and
        // heap/bucket time ties.
        let mut q = EventQueue::new();
        q.schedule(5000, 900u64); // heap
        q.schedule(5000, 901); // heap, same cycle (seq tie-break)
        q.schedule(4990, 1);
        q.pop(); // now = 4990; the 5000s stay heap-resident in-window
        q.schedule(5000, 902); // bucket at the same cycle: ties to heap
        for i in 0..60 {
            q.schedule(4990 + i * 7, 100 + i);
            q.schedule(9000 + i * 111, 500 + i); // heap
        }
        for _ in 0..5 {
            q.pop();
        }
        assert_eq!(q.pending_in_order(), clone_and_pop(&q));
    }

    #[test]
    fn pending_walk_does_not_disturb_the_queue() {
        let mut q = EventQueue::new();
        for i in 0..30u64 {
            q.schedule(i * 3, i);
            q.schedule(7000 + i, 100 + i);
        }
        q.pop();
        let before = clone_and_pop(&q);
        let _ = q.pending_in_order();
        let _ = q.pending_in_order();
        assert_eq!(clone_and_pop(&q), before);
        assert_eq!(q.now(), 0);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn pending_walk_on_empty_queue() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(q.pending_in_order().is_empty());
    }

    #[test]
    fn drain_next_cycle_matches_pop_before_sequence() {
        let build = || {
            let mut q = EventQueue::new();
            q.schedule(5000, 900u64); // heap
            q.schedule(4990, 1);
            q.pop();
            q.schedule(5000, 901); // bucket: pops after the heap twin
            q.schedule(5000, 902);
            q.schedule(5003, 903);
            q
        };
        let mut a = build();
        let mut b = build();
        let mut batch = Vec::new();
        assert_eq!(a.drain_next_cycle(6000, &mut batch), Some(5000));
        let mut expect = Vec::new();
        while let Some((t, e)) = b.pop_before(6000) {
            if t != 5000 {
                break;
            }
            expect.push(e);
        }
        assert_eq!(batch, expect);
        assert_eq!(batch, vec![900, 901, 902]);
        assert_eq!(a.now(), 5000);
        assert_eq!(a.events_processed(), 1 + 3);
        assert_eq!(a.len(), 1);
        // Past the cap: untouched.
        batch.clear();
        assert_eq!(a.drain_next_cycle(5001, &mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(a.drain_next_cycle(5003, &mut batch), Some(5003));
        assert_eq!(batch, vec![903]);
        assert_eq!(a.drain_next_cycle(Cycle::MAX, &mut batch), None);
    }

    /// A batched drain+release engine must report the exact peak length
    /// a pop-by-pop engine would: drained-but-unprocessed events still
    /// count as pending until released. The workload reschedules from
    /// inside the "handler" so the peak is actually exercised mid-batch.
    #[test]
    fn in_flight_accounting_reproduces_serial_peak() {
        let seed = |q: &mut EventQueue<u64>| {
            for i in 0..8u64 {
                q.schedule(10, i); // one fat cycle
            }
            q.schedule(20, 100);
        };
        // Handler: events < 50 schedule two follow-ups.
        let fanout = |q: &mut EventQueue<u64>, t: Cycle, e: u64| {
            if e < 50 {
                q.schedule(t + 5, e + 50);
                q.schedule(t + 9, e + 60);
            }
        };

        let mut serial = EventQueue::new();
        seed(&mut serial);
        while let Some((t, e)) = serial.pop() {
            fanout(&mut serial, t, e);
        }

        let mut batched = EventQueue::new();
        seed(&mut batched);
        let mut batch = Vec::new();
        while let Some(t) = batched.drain_next_cycle(Cycle::MAX, &mut batch) {
            for e in batch.drain(..) {
                batched.release_in_flight();
                fanout(&mut batched, t, e);
            }
        }

        assert_eq!(batched.events_processed(), serial.events_processed());
        assert_eq!(batched.peak_len(), serial.peak_len());
    }

    #[test]
    fn interleaves_bucket_and_heap_events_by_time() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..50u64 {
            let near = i * 7;
            let far = 5000 + i * 111;
            q.schedule(near, near);
            q.schedule(far, far);
            expect.push(near);
            expect.push(far);
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t, e);
            got.push(e);
        }
        assert_eq!(got, expect);
    }

    /// The slab holds one slot per event bucketed at once, however many
    /// buckets the events pass through: churning 208 pending events
    /// (the 8×8 Eager peak) around the calendar ten times never grows it
    /// past the peak. A buffer per bucket that only grows keeps slots in
    /// every bucket ever used, all 4 096 of them here; on the 8×8 Eager
    /// `fmm` run such buffers ended up holding 131 328 slots.
    #[test]
    fn event_storage_never_exceeds_the_peak_pending_count() {
        let k = 208;
        let mut rng = crate::DetRng::seed(27);
        let mut q = EventQueue::new();
        for e in 0..k {
            q.schedule(rng.below(600), e);
        }
        let mut last = 0;
        while q.now() < 10 * BUCKETS as Cycle {
            let (t, e) = q.pop().expect("every pop reschedules its event");
            // A third of the events follow the previous one into its
            // cycle, so same-cycle bursts form.
            let at = if last >= t && rng.below(3) == 0 {
                last
            } else {
                t + 1 + rng.below(600)
            };
            q.schedule(at, e);
            last = at;
            assert!(
                q.slots.len() <= q.peak_len(),
                "{} slots for a peak of {} pending events",
                q.slots.len(),
                q.peak_len()
            );
        }
        assert_eq!(q.peak_len(), k);
        assert_eq!(q.len(), k);
    }
}
