//! Property tests for the simulation kernel: the event queue must behave
//! exactly like a stable sort by time.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ring_sim::{Cycle, DetRng, EventQueue};

/// One step of a queue script.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule `burst` events `delay` cycles from now.
    Schedule {
        delay: Cycle,
        burst: usize,
    },
    /// Schedule one event at the time of the `i`-th pending one (modulo
    /// the pending count), so heap-resident events gain same-cycle
    /// followers in the buckets.
    Join(usize),
    Pop,
    /// `pop_before(now + cap)`.
    PopBefore(Cycle),
    /// `drain_next_cycle(now + cap)`, then release each event; the
    /// first schedules `fanout` follow-ups `delay` cycles out while the
    /// rest of the batch is still in flight, which can set the peak.
    Drain {
        cap: Cycle,
        fanout: usize,
        delay: Cycle,
    },
    /// Replace the queue by one restored from its pending events.
    Checkpoint,
}

fn op() -> impl Strategy<Value = Op> {
    let schedule = |delay, burst| Op::Schedule { delay, burst };
    prop_oneof![
        // Same-cycle bursts, hot-path delays, both sides of the
        // 4 096-cycle bucket horizon, and far-future timers.
        (0u64..4, 1usize..6).prop_map(move |(d, b)| schedule(d, b)),
        (0u64..600, 1usize..3).prop_map(move |(d, b)| schedule(d, b)),
        (4_090u64..4_102, 1usize..3).prop_map(move |(d, b)| schedule(d, b)),
        (4_096u64..20_000, 1usize..3).prop_map(move |(d, b)| schedule(d, b)),
        (0usize..64).prop_map(Op::Join),
        Just(Op::Pop),
        Just(Op::Pop),
        (0u64..50).prop_map(Op::PopBefore),
        (0u64..50, 0usize..6, 0u64..8).prop_map(|(cap, fanout, delay)| Op::Drain {
            cap,
            fanout,
            delay,
        }),
        Just(Op::Checkpoint),
    ]
}

/// The reference queue: pending events keyed by `(time, schedule
/// order)`, the payload being the schedule order.
#[derive(Default)]
struct Model {
    pending: BTreeSet<(Cycle, u64)>,
    next: u64,
    now: Cycle,
    popped: u64,
    peak: usize,
    in_flight: usize,
}

impl Model {
    /// Schedules the next event at `time` on `q` and in the model.
    fn schedule(&mut self, q: &mut EventQueue<u64>, time: Cycle) {
        q.schedule(time, self.next);
        self.pending.insert((time, self.next));
        self.next += 1;
        self.peak = self.peak.max(self.pending.len() + self.in_flight);
    }

    /// The reference `pop_before`.
    fn pop_before(&mut self, cap: Cycle) -> Option<(Cycle, u64)> {
        let &first = self.pending.first().filter(|&&(t, _)| t <= cap)?;
        self.pending.remove(&first);
        self.now = first.0;
        self.popped += 1;
        Some(first)
    }
}

proptest! {
    /// Popping everything yields the events stably sorted by time.
    #[test]
    fn queue_is_stable_time_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut reference: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        reference.sort_by_key(|&(t, _)| t); // stable
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped, reference);
    }

    /// Interleaved schedule/pop never violates time order, and relative
    /// scheduling is consistent with `now`.
    #[test]
    fn interleaved_operations_preserve_order(
        script in proptest::collection::vec((any::<bool>(), 0u64..100), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut last_popped = 0u64;
        let mut pending = 0usize;
        for (pop, delay) in script {
            if pop && pending > 0 {
                let (t, _) = q.pop().unwrap();
                prop_assert!(t >= last_popped);
                last_popped = t;
                pending -= 1;
            } else {
                q.schedule_in(delay, ());
                pending += 1;
            }
        }
        prop_assert_eq!(q.len(), pending);
    }

    /// Random interleavings of every queue operation pop exactly the
    /// reference's sequence, ordered by (time, schedule order), and keep
    /// its length, split and peak.
    #[test]
    fn queue_matches_a_reference_model(script in proptest::collection::vec(op(), 1..300)) {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        for step in script {
            match step {
                Op::Schedule { delay, burst } => {
                    for _ in 0..burst {
                        m.schedule(&mut q, m.now + delay);
                    }
                }
                Op::Join(i) => {
                    if let Some(&(t, _)) = m.pending.iter().nth(i % m.pending.len().max(1)) {
                        m.schedule(&mut q, t);
                    }
                }
                Op::Pop => prop_assert_eq!(q.pop(), m.pop_before(Cycle::MAX)),
                Op::PopBefore(cap) => {
                    let cap = m.now + cap;
                    prop_assert_eq!(q.pop_before(cap), m.pop_before(cap));
                }
                Op::Drain { cap, fanout, delay } => {
                    let cap = m.now + cap;
                    let mut got = Vec::new();
                    let cycle = q.drain_next_cycle(cap, &mut got);
                    let first = m.pending.first().map(|&(t, _)| t).filter(|&t| t <= cap);
                    prop_assert_eq!(cycle, first);
                    let mut want = Vec::new();
                    // Every pending event is at or after the first, so
                    // this pops exactly the first cycle's events.
                    while let Some((_, e)) = first.and_then(|t| m.pop_before(t)) {
                        want.push(e);
                    }
                    prop_assert_eq!(&got, &want);
                    m.in_flight = got.len();
                    for i in 0..got.len() {
                        q.release_in_flight();
                        m.in_flight -= 1;
                        if i == 0 {
                            for _ in 0..fanout {
                                m.schedule(&mut q, m.now + delay);
                            }
                        }
                    }
                }
                Op::Checkpoint => {
                    let events = q.pending_in_order();
                    let want: Vec<(Cycle, u64)> = m.pending.iter().copied().collect();
                    prop_assert_eq!(&events, &want);
                    q = EventQueue::restore_from_parts(q.now(), q.events_processed(), q.peak_len(), events);
                }
            }
            prop_assert_eq!(q.len(), m.pending.len());
            prop_assert_eq!(q.bucket_len() + q.heap_len(), q.len());
            prop_assert_eq!(q.peak_len(), m.peak);
            prop_assert_eq!(q.now(), m.now);
            prop_assert_eq!(q.events_processed(), m.popped);
            prop_assert_eq!(q.peek_time(), m.pending.first().map(|&(t, _)| t));
        }
        let mut rest = Vec::new();
        while let Some(e) = q.pop() {
            rest.push(e);
        }
        prop_assert_eq!(rest, m.pending.into_iter().collect::<Vec<_>>());
    }

    /// Forked RNG streams are reproducible and independent of sibling
    /// consumption.
    #[test]
    fn forked_rngs_reproducible(seed in any::<u64>(), salt in 0u64..32) {
        let mut root1 = DetRng::seed(seed);
        let mut root2 = DetRng::seed(seed);
        let mut a = root1.fork(salt);
        let mut b = root2.fork(salt);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `below(n)` is always within range and `weighted` respects zeros.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1000) {
        let mut r = DetRng::seed(seed);
        for _ in 0..50 {
            prop_assert!(r.below(bound) < bound);
        }
        let w = [0.0, 2.5, 0.0, 1.0];
        for _ in 0..50 {
            let i = r.weighted(&w);
            prop_assert!(i == 1 || i == 3);
        }
    }
}
