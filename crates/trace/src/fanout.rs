//! Live trace fan-out: one producer (the machine), many bounded
//! subscribers (daemon clients), zero backpressure on the simulation.
//!
//! The load-bearing rule is that a slow or dead consumer must never
//! slow the run, because the run's byte-identical digest is the repo's
//! core guarantee and "subscriber attached" must not be observable in
//! it. [`FanoutSink::record`] therefore never blocks and never
//! allocates per subscriber beyond each subscriber's fixed-capacity
//! buffer: when a buffer is full the incoming event is *counted and
//! dropped*, and the next [`Subscription::drain`] ends with a
//! [`Delivery::Gap`] marker carrying the exact drop count, so consumers
//! always know precisely how much of the stream they missed and where —
//! including drops at the very end of a run, which no later event
//! would surface.
//!
//! Subscriptions detach automatically on [`Drop`], so a daemon client
//! thread that dies takes its buffer with it — the producer side reaps
//! the entry on its next `record`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// One item handed to a subscriber: either a trace event, or a marker
/// standing in for `dropped` events that overflowed the buffer between
/// the surrounding deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// A trace event, in emission order.
    Event(TraceEvent),
    /// `dropped` events were discarded at exactly this position in the
    /// stream (the subscriber's buffer was full).
    Gap {
        /// Number of consecutive events lost.
        dropped: u64,
    },
}

/// Per-subscriber state, owned by the fan-out's shared table.
#[derive(Debug)]
struct SubState {
    buf: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    /// Drops since the last drain; handed out as a [`Delivery::Gap`]
    /// after the buffered events by the next drain.
    pending_gap: u64,
    total_dropped: u64,
}

#[derive(Debug, Default)]
struct FanoutInner {
    next_id: u64,
    subs: BTreeMap<u64, SubState>,
}

/// A [`TraceSink`] that copies every event to any number of bounded
/// subscriber buffers without ever blocking the producer.
///
/// Clones share the subscriber table (the same pattern as
/// [`SharedBufferSink`](crate::SharedBufferSink)): install one clone
/// into the machine, keep another to accept subscriptions.
#[derive(Debug, Clone, Default)]
pub struct FanoutSink {
    inner: Arc<Mutex<FanoutInner>>,
}

impl FanoutSink {
    /// An empty fan-out with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber buffering at most `capacity` events
    /// between drains. The subscription detaches on drop.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — such a buffer could never deliver
    /// an event.
    pub fn subscribe(&self, capacity: usize) -> Subscription {
        assert!(capacity > 0, "subscriber capacity must be positive");
        let mut inner = lock(&self.inner);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subs.insert(
            id,
            SubState {
                buf: std::collections::VecDeque::with_capacity(capacity),
                capacity,
                pending_gap: 0,
                total_dropped: 0,
            },
        );
        Subscription {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Number of live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        lock(&self.inner).subs.len()
    }
}

impl TraceSink for FanoutSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut inner = lock(&self.inner);
        for sub in inner.subs.values_mut() {
            // Space only opens up in `drain`, which also takes the
            // pending gap, so an event that fits never follows a drop.
            if sub.buf.len() < sub.capacity {
                sub.buf.push_back(*ev);
            } else {
                sub.pending_gap += 1;
                sub.total_dropped += 1;
            }
        }
    }
}

/// A handle to one bounded subscriber buffer of a [`FanoutSink`].
///
/// Dropping the handle detaches the subscription; the producer stops
/// copying events for it immediately.
#[derive(Debug)]
pub struct Subscription {
    inner: Arc<Mutex<FanoutInner>>,
    id: u64,
}

impl Subscription {
    /// Takes every buffered delivery, oldest first, followed by a
    /// [`Delivery::Gap`] for the events dropped since the last drain (they
    /// were all dropped after the buffered ones arrived). An empty result
    /// means nothing arrived since the last drain, not end-of-stream.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut inner = lock(&self.inner);
        let Some(sub) = inner.subs.get_mut(&self.id) else {
            return Vec::new();
        };
        let mut out: Vec<Delivery> = sub.buf.drain(..).map(Delivery::Event).collect();
        if sub.pending_gap > 0 {
            out.push(Delivery::Gap {
                dropped: sub.pending_gap,
            });
            sub.pending_gap = 0;
        }
        out
    }

    /// Total events this subscriber has lost to overflow so far
    /// (including drops not yet drained as a gap marker).
    pub fn total_dropped(&self) -> u64 {
        let inner = lock(&self.inner);
        inner.subs.get(&self.id).map_or(0, |s| s.total_dropped)
    }

    /// Number of events currently buffered.
    pub fn buffered(&self) -> usize {
        let inner = lock(&self.inner);
        inner.subs.get(&self.id).map_or(0, |s| s.buf.len())
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        lock(&self.inner).subs.remove(&self.id);
    }
}

/// Locks the table, recovering from poison: a panicking client thread
/// must not wedge the producer (the table holds only plain data, every
/// state it can be observed in is valid).
fn lock(inner: &Mutex<FanoutInner>) -> std::sync::MutexGuard<'_, FanoutInner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, OpClass};

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            node: 0,
            txn_node: 0,
            txn_serial: cycle,
            line: 64,
            kind: EventKind::RequestIssue {
                op: OpClass::Read,
                retry: false,
            },
        }
    }

    fn cycles(ds: &[Delivery]) -> Vec<u64> {
        ds.iter()
            .map(|d| match d {
                Delivery::Event(e) => e.cycle,
                Delivery::Gap { dropped } => panic!("unexpected gap of {dropped}"),
            })
            .collect()
    }

    #[test]
    fn every_subscriber_sees_every_event_in_order() {
        let fan = FanoutSink::new();
        let a = fan.subscribe(16);
        let b = fan.subscribe(16);
        let mut sink = fan.clone();
        for c in 0..5 {
            sink.record(&ev(c));
        }
        assert_eq!(cycles(&a.drain()), vec![0, 1, 2, 3, 4]);
        assert_eq!(cycles(&b.drain()), vec![0, 1, 2, 3, 4]);
        assert_eq!(a.total_dropped(), 0);
    }

    #[test]
    fn overflow_is_counted_and_surfaced_as_one_gap() {
        let fan = FanoutSink::new();
        let sub = fan.subscribe(2);
        let mut sink = fan.clone();
        for c in 0..5 {
            sink.record(&ev(c)); // 0,1 buffered; 2,3,4 dropped
        }
        assert_eq!(sub.total_dropped(), 3);
        assert_eq!(
            sub.drain(),
            vec![
                Delivery::Event(ev(0)),
                Delivery::Event(ev(1)),
                Delivery::Gap { dropped: 3 }
            ]
        );
        sink.record(&ev(5)); // the drain freed the buffer
        assert_eq!(sub.drain(), vec![Delivery::Event(ev(5))]);
        assert_eq!(sub.total_dropped(), 3, "gap emission must not re-count");
    }

    #[test]
    fn each_drain_reports_its_own_gap() {
        let fan = FanoutSink::new();
        let sub = fan.subscribe(1);
        let mut sink = fan.clone();
        sink.record(&ev(0)); // fills the single slot
        sink.record(&ev(1)); // dropped
        assert_eq!(
            sub.drain(),
            vec![Delivery::Event(ev(0)), Delivery::Gap { dropped: 1 }]
        );
        sink.record(&ev(2));
        sink.record(&ev(3)); // dropped
        sink.record(&ev(4)); // dropped
        assert_eq!(
            sub.drain(),
            vec![Delivery::Event(ev(2)), Delivery::Gap { dropped: 2 }]
        );
        assert!(sub.drain().is_empty());
        assert_eq!(sub.total_dropped(), 3);
    }

    #[test]
    fn drops_at_the_end_of_a_run_are_reported() {
        let fan = FanoutSink::new();
        let sub = fan.subscribe(2);
        let mut sink = fan.clone();
        for c in 0..10 {
            sink.record(&ev(c));
        }
        drop(sink); // the run is over: no later event will arrive
        let got = sub.drain();
        assert_eq!(got.last(), Some(&Delivery::Gap { dropped: 8 }));
        let delivered = got
            .iter()
            .filter(|d| matches!(d, Delivery::Event(_)))
            .count() as u64;
        assert_eq!(delivered + 8, 10, "every event is delivered or counted");
    }

    #[test]
    fn dropping_the_handle_detaches() {
        let fan = FanoutSink::new();
        let sub = fan.subscribe(4);
        assert_eq!(fan.subscriber_count(), 1);
        drop(sub);
        assert_eq!(fan.subscriber_count(), 0);
        let mut sink = fan.clone();
        sink.record(&ev(0)); // must not panic or resurrect the entry
        assert_eq!(fan.subscriber_count(), 0);
    }

    #[test]
    fn drain_after_detach_is_empty_not_a_panic() {
        let fan = FanoutSink::new();
        let a = fan.subscribe(4);
        let mut sink = fan.clone();
        sink.record(&ev(0));
        let got = a.drain();
        assert_eq!(got.len(), 1);
        drop(fan); // producer side gone; handle still valid
        assert!(a.drain().is_empty());
        assert_eq!(a.buffered(), 0);
    }
}
