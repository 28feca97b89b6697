//! Windowed flight recorder: time-resolved snapshots of machine state.
//!
//! End-of-run totals cannot show *when* a queue peak builds or where
//! cycles go during a link outage. The [`FlightRecorder`] fixes that:
//! the machine feeds it a cumulative [`FlightProbe`] every time the
//! simulation clock crosses a window boundary (default every 10k
//! cycles), and the recorder differences consecutive probes into
//! [`WindowSnapshot`]s — per-window event/retry/retransmit rates,
//! per-node and per-link activity deltas, and instantaneous gauges
//! (queue depth split into calendar buckets vs heap fallback, LTT and
//! MSHR occupancy, reliable-transport unacked/queued frames).
//!
//! Snapshots are kept in a bounded ring (oldest dropped first) with an
//! optional JSONL spill for unbounded capture. Everything is a pure
//! function of the probe sequence, so two runs with the same seed
//! produce byte-identical snapshot streams — and a machine without a
//! recorder installed pays exactly one integer compare per popped
//! event.

use std::collections::VecDeque;
use std::io::Write;

/// Configuration for a [`FlightRecorder`].
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Window length in cycles. A probe is taken the first time the
    /// clock reaches each multiple of this interval.
    pub interval: u64,
    /// Maximum snapshots retained in memory (oldest dropped first).
    pub capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            interval: 10_000,
            capacity: 1024,
        }
    }
}

impl FlightConfig {
    /// The default configuration with a custom window interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_interval(interval: u64) -> Self {
        assert!(interval > 0, "flight window interval must be positive");
        FlightConfig {
            interval,
            ..Default::default()
        }
    }
}

/// A cumulative probe of machine state, taken at a window boundary.
///
/// Counter fields (`events`, `retries`, `retransmits`, per-node
/// activity, per-link messages/bytes) are *cumulative since cycle 0*;
/// the recorder differences consecutive probes. The remaining fields
/// are instantaneous gauges.
#[derive(Debug, Clone, Default)]
pub struct FlightProbe {
    /// Simulation cycle at which the probe was taken.
    pub cycle: u64,
    /// Events processed so far (cumulative).
    pub events: u64,
    /// Pending events in the event queue (gauge).
    pub queue_depth: usize,
    /// Pending events in the calendar buckets (gauge).
    pub queue_buckets: usize,
    /// Pending events on the far-future heap fallback (gauge).
    pub queue_heap: usize,
    /// Unacked frames held by the reliable transport (gauge; 0 when
    /// the sublayer is disabled).
    pub rel_unacked: usize,
    /// Frames queued behind send windows in the reliable transport
    /// (gauge; 0 when disabled).
    pub rel_queued: usize,
    /// Frame retransmissions so far (cumulative).
    pub retransmits: u64,
    /// Retries scheduled so far, all nodes (cumulative).
    pub retries: u64,
    /// Per-node protocol activity so far (cumulative; the sum of the
    /// node's request/supply/writeback/memory counters).
    pub node_activity: Vec<u64>,
    /// Per-node LTT occupancy (gauge).
    pub node_ltt: Vec<u32>,
    /// Per-node outstanding-miss (MSHR) occupancy (gauge).
    pub node_outstanding: Vec<u32>,
    /// Per-link messages so far (cumulative).
    pub link_messages: Vec<u64>,
    /// Per-link bytes so far (cumulative).
    pub link_bytes: Vec<u64>,
}

/// One completed observation window: deltas over the window plus
/// instantaneous gauges at its end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Cycle of the probe that closed this window. Windows where no
    /// event fired are skipped, so consecutive snapshots may span more
    /// than one interval — `cycles` carries the true span.
    pub window_end: u64,
    /// Cycles covered by this window (`window_end` minus the previous
    /// probe's cycle).
    pub cycles: u64,
    /// Events processed during the window.
    pub events: u64,
    /// Event-queue depth at window end (gauge).
    pub queue_depth: usize,
    /// Calendar-bucket share of the queue depth (gauge).
    pub queue_buckets: usize,
    /// Heap-fallback share of the queue depth (gauge).
    pub queue_heap: usize,
    /// Total LTT entries across all nodes at window end (gauge).
    pub ltt_total: u64,
    /// Total outstanding misses (MSHR) across all nodes (gauge).
    pub mshr_total: u64,
    /// Reliable-transport unacked frames at window end (gauge).
    pub rel_unacked: usize,
    /// Reliable-transport queued frames at window end (gauge).
    pub rel_queued: usize,
    /// Retries scheduled during the window.
    pub retries: u64,
    /// Frame retransmissions during the window.
    pub retransmits: u64,
    /// Per-node activity during the window.
    pub node_activity: Vec<u64>,
    /// Per-link messages during the window.
    pub link_messages: Vec<u64>,
    /// Per-link bytes during the window.
    pub link_bytes: Vec<u64>,
}

/// Sorts `(index, value)` pairs by value descending (index ascending on
/// ties, for determinism), dropping zero entries, keeping the top `k`.
fn top_k(values: &[u64], k: usize) -> Vec<(usize, u64)> {
    let mut v: Vec<(usize, u64)> = values
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, x)| x > 0)
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

fn json_array(out: &mut String, key: &str, values: &[u64]) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

impl WindowSnapshot {
    /// The `k` busiest nodes this window as `(node, activity)`, busiest
    /// first; zero-activity nodes are omitted.
    pub fn hottest_nodes(&self, k: usize) -> Vec<(usize, u64)> {
        top_k(&self.node_activity, k)
    }

    /// The `k` busiest links this window as `(link, messages)`,
    /// busiest first; idle links are omitted.
    pub fn hottest_links(&self, k: usize) -> Vec<(usize, u64)> {
        top_k(&self.link_messages, k)
    }

    /// Events per cycle over the window.
    pub fn event_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.events as f64 / self.cycles as f64
        }
    }

    /// Serializes the snapshot as one JSON object on one line, in
    /// stable field order — two identical runs spill byte-identical
    /// window streams.
    pub fn to_jsonl(&self) -> String {
        let mut s = format!(
            "{{\"w\":{},\"cyc\":{},\"ev\":{},\"q\":{},\"qb\":{},\"qh\":{},\"ltt\":{},\
             \"mshr\":{},\"ru\":{},\"rq\":{},\"rt\":{},\"rx\":{}",
            self.window_end,
            self.cycles,
            self.events,
            self.queue_depth,
            self.queue_buckets,
            self.queue_heap,
            self.ltt_total,
            self.mshr_total,
            self.rel_unacked,
            self.rel_queued,
            self.retries,
            self.retransmits,
        );
        json_array(&mut s, "na", &self.node_activity);
        json_array(&mut s, "lm", &self.link_messages);
        json_array(&mut s, "lb", &self.link_bytes);
        s.push('}');
        s
    }
}

/// Bounded ring of [`WindowSnapshot`]s with an optional JSONL spill.
///
/// Install on a machine (which probes it at window boundaries), then
/// read [`FlightRecorder::snapshots`] after the run.
pub struct FlightRecorder {
    interval: u64,
    capacity: usize,
    prev: Option<FlightProbe>,
    ring: VecDeque<WindowSnapshot>,
    recorded: u64,
    dropped: u64,
    spill: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("interval", &self.interval)
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded)
            .field("dropped", &self.dropped)
            .field("spill", &self.spill.is_some())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with the given window interval and ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if the interval or capacity is zero.
    pub fn new(cfg: FlightConfig) -> Self {
        assert!(cfg.interval > 0, "flight window interval must be positive");
        assert!(cfg.capacity > 0, "flight ring capacity must be positive");
        FlightRecorder {
            interval: cfg.interval,
            capacity: cfg.capacity,
            prev: None,
            ring: VecDeque::with_capacity(cfg.capacity.min(4096)),
            recorded: 0,
            dropped: 0,
            spill: None,
        }
    }

    /// Like [`new`](Self::new), but every snapshot is also written as a
    /// JSONL line to `spill` (so a long run is not limited by the
    /// ring's capacity).
    pub fn with_spill(cfg: FlightConfig, spill: Box<dyn Write + Send>) -> Self {
        let mut r = Self::new(cfg);
        r.spill = Some(spill);
        r
    }

    /// The configured window interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Folds a probe into the recorder, closing the window that ends at
    /// `probe.cycle`. Counter deltas are taken against the previous
    /// probe (or zero for the first), gauges are copied through.
    pub fn record(&mut self, probe: FlightProbe) {
        let zero = FlightProbe::default();
        let prev = self.prev.as_ref().unwrap_or(&zero);
        let d = |cur: u64, old: u64| cur.saturating_sub(old);
        let dv = |cur: &[u64], old: &[u64]| -> Vec<u64> {
            cur.iter()
                .enumerate()
                .map(|(i, &c)| c.saturating_sub(old.get(i).copied().unwrap_or(0)))
                .collect()
        };
        let snap = WindowSnapshot {
            window_end: probe.cycle,
            cycles: d(probe.cycle, prev.cycle),
            events: d(probe.events, prev.events),
            queue_depth: probe.queue_depth,
            queue_buckets: probe.queue_buckets,
            queue_heap: probe.queue_heap,
            ltt_total: probe.node_ltt.iter().map(|&x| u64::from(x)).sum(),
            mshr_total: probe.node_outstanding.iter().map(|&x| u64::from(x)).sum(),
            rel_unacked: probe.rel_unacked,
            rel_queued: probe.rel_queued,
            retries: d(probe.retries, prev.retries),
            retransmits: d(probe.retransmits, prev.retransmits),
            node_activity: dv(&probe.node_activity, &prev.node_activity),
            link_messages: dv(&probe.link_messages, &prev.link_messages),
            link_bytes: dv(&probe.link_bytes, &prev.link_bytes),
        };
        if let Some(w) = &mut self.spill {
            // A full disk must not abort the simulation; drop the line.
            let _ = writeln!(w, "{}", snap.to_jsonl());
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(snap);
        self.recorded += 1;
        self.prev = Some(probe);
    }

    /// Retained snapshots, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &WindowSnapshot> {
        self.ring.iter()
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no window has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total windows recorded, including any dropped from the ring.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Snapshots evicted from the ring (still in the spill, if any).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every retained snapshot as JSONL.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for s in &self.ring {
            writeln!(w, "{}", s.to_jsonl())?;
        }
        Ok(())
    }

    /// Flushes the spill writer, if any.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the spill writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if let Some(w) = &mut self.spill {
            w.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(cycle: u64, events: u64, activity: Vec<u64>) -> FlightProbe {
        FlightProbe {
            cycle,
            events,
            queue_depth: 5,
            queue_buckets: 4,
            queue_heap: 1,
            node_activity: activity,
            node_ltt: vec![2, 0],
            node_outstanding: vec![1, 3],
            link_messages: vec![10 * cycle, cycle],
            link_bytes: vec![80 * cycle, 8 * cycle],
            ..Default::default()
        }
    }

    #[test]
    fn windows_are_deltas_of_cumulative_probes() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        r.record(probe(10_000, 500, vec![100, 40]));
        r.record(probe(20_000, 900, vec![150, 90]));
        let snaps: Vec<&WindowSnapshot> = r.snapshots().collect();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].events, 500);
        assert_eq!(snaps[1].events, 400);
        assert_eq!(snaps[1].cycles, 10_000);
        assert_eq!(snaps[1].node_activity, vec![50, 50]);
        assert_eq!(snaps[0].ltt_total, 2);
        assert_eq!(snaps[0].mshr_total, 4);
        assert_eq!(snaps[0].queue_buckets + snaps[0].queue_heap, 5);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut r = FlightRecorder::new(FlightConfig {
            interval: 10,
            capacity: 2,
        });
        for i in 1..=5u64 {
            r.record(probe(i * 10, i * 100, vec![i]));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 3);
        let ends: Vec<u64> = r.snapshots().map(|s| s.window_end).collect();
        assert_eq!(ends, vec![40, 50]);
    }

    #[test]
    fn hottest_nodes_and_links_are_sorted_and_deterministic() {
        let s = WindowSnapshot {
            window_end: 10,
            cycles: 10,
            events: 1,
            queue_depth: 0,
            queue_buckets: 0,
            queue_heap: 0,
            ltt_total: 0,
            mshr_total: 0,
            rel_unacked: 0,
            rel_queued: 0,
            retries: 0,
            retransmits: 0,
            node_activity: vec![5, 0, 9, 5],
            link_messages: vec![0, 7],
            link_bytes: vec![0, 56],
        };
        // Ties broken by index; zeros omitted.
        assert_eq!(s.hottest_nodes(3), vec![(2, 9), (0, 5), (3, 5)]);
        assert_eq!(s.hottest_links(5), vec![(1, 7)]);
    }

    #[test]
    fn jsonl_is_stable_and_spill_matches_ring() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        r.record(probe(10_000, 500, vec![100, 40]));
        let mut via_ring = Vec::new();
        r.write_jsonl(&mut via_ring).unwrap();
        let line = String::from_utf8(via_ring).unwrap();
        assert!(line.starts_with("{\"w\":10000,\"cyc\":10000,\"ev\":500,"));
        assert!(line.contains("\"na\":[100,40]"));
        // Every field parses back to the snapshot's value.
        let snap = r.snapshots().next().unwrap();
        let j = crate::json::Json::parse(line.trim_end()).unwrap();
        let uint = |key: &str| j.get(key).and_then(crate::json::Json::as_u64);
        let list = |key: &str| -> Vec<u64> {
            match j.get(key) {
                Some(crate::json::Json::Arr(items)) => {
                    items.iter().map(|v| v.as_u64().unwrap()).collect()
                }
                other => panic!("`{key}` is not an array: {other:?}"),
            }
        };
        assert_eq!(uint("w"), Some(snap.window_end));
        assert_eq!(uint("cyc"), Some(snap.cycles));
        assert_eq!(uint("ev"), Some(snap.events));
        assert_eq!(uint("q"), Some(snap.queue_depth as u64));
        assert_eq!((uint("qb"), uint("qh")), (Some(4), Some(1)));
        assert_eq!((uint("ltt"), uint("mshr")), (Some(2), Some(4)));
        assert_eq!(
            (uint("ru"), uint("rq"), uint("rt"), uint("rx")),
            (Some(0), Some(0), Some(0), Some(0))
        );
        assert_eq!(list("na"), snap.node_activity);
        assert_eq!(list("lm"), snap.link_messages);
        assert_eq!(list("lb"), snap.link_bytes);
        // A second recorder fed the same probes spills the same bytes.
        let mut r2 = FlightRecorder::new(FlightConfig::default());
        r2.record(probe(10_000, 500, vec![100, 40]));
        let mut again = Vec::new();
        r2.write_jsonl(&mut again).unwrap();
        assert_eq!(line, String::from_utf8(again).unwrap());
    }
}
