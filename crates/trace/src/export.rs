//! Exporters for external observability tooling.
//!
//! [`perfetto_json`] renders a run as Chrome/Perfetto `trace_event`
//! JSON: one track (`tid`) per node carrying a complete-event slice for
//! every transaction lifetime (issue → complete/retry), plus counter
//! tracks built from [`WindowSnapshot`]s — event-queue depth split into
//! calendar buckets vs heap fallback, LTT/MSHR occupancy,
//! reliable-transport backlog, and per-window link utilization. Open
//! the result at `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Timestamps are raw simulation cycles written into the `ts`/`dur`
//! microsecond fields (1 cycle renders as 1 µs); all relative
//! comparisons in the UI remain correct.

use std::collections::BTreeMap;

use crate::event::{EventKind, OpClass, TraceEvent};
use crate::flight::WindowSnapshot;

fn op_name(op: OpClass) -> &'static str {
    match op {
        OpClass::Read => "read",
        OpClass::WriteMiss => "write",
        OpClass::WriteHit => "upgrade",
    }
}

fn push_event(out: &mut String, body: &str) {
    if !out.is_empty() {
        out.push_str(",\n");
    }
    out.push_str(body);
}

/// Renders trace events and flight-recorder windows as a Chrome/Perfetto
/// `trace_event` JSON document (returned as a `String`).
///
/// Transaction slices require a recorded event stream (e.g. from a
/// [`SharedBufferSink`](crate::SharedBufferSink)); counter tracks
/// require flight-recorder windows. Either input may be empty — the
/// output is always a valid trace.
pub fn perfetto_json(events: &[TraceEvent], windows: &[WindowSnapshot]) -> String {
    let mut body = String::new();
    // Track metadata: one named thread per node that appears.
    let mut nodes: Vec<u32> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        push_event(
            &mut body,
            &format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{n},\
                 \"args\":{{\"name\":\"node {n}\"}}}}"
            ),
        );
    }
    // Transaction lifetime slices: issue -> complete/retry, one per
    // attempt, on the requester's track.
    let mut open: BTreeMap<(u32, u64), (u64, OpClass)> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::RequestIssue { op, .. } => {
                open.insert((ev.txn_node, ev.txn_serial), (ev.cycle, op));
            }
            EventKind::Complete { op, c2c, .. } if ev.node == ev.txn_node => {
                if let Some((start, _)) = open.remove(&(ev.txn_node, ev.txn_serial)) {
                    let service = if c2c { "c2c" } else { "mem" };
                    push_event(
                        &mut body,
                        &format!(
                            "{{\"name\":\"{} {service}\",\"cat\":\"txn\",\"ph\":\"X\",\
                             \"ts\":{start},\"dur\":{},\"pid\":0,\"tid\":{},\
                             \"args\":{{\"line\":\"{:#x}\",\"serial\":{}}}}}",
                            op_name(op),
                            ev.cycle.saturating_sub(start),
                            ev.txn_node,
                            ev.line,
                            ev.txn_serial
                        ),
                    );
                }
            }
            EventKind::Retry { .. } if ev.node == ev.txn_node => {
                if let Some((start, op)) = open.remove(&(ev.txn_node, ev.txn_serial)) {
                    push_event(
                        &mut body,
                        &format!(
                            "{{\"name\":\"{} retry\",\"cat\":\"txn\",\"ph\":\"X\",\
                             \"ts\":{start},\"dur\":{},\"pid\":0,\"tid\":{},\
                             \"args\":{{\"line\":\"{:#x}\",\"serial\":{}}}}}",
                            op_name(op),
                            ev.cycle.saturating_sub(start),
                            ev.txn_node,
                            ev.line,
                            ev.txn_serial
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    // Counter tracks from the flight recorder.
    for w in windows {
        let t = w.window_end;
        push_event(
            &mut body,
            &format!(
                "{{\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":{t},\"pid\":0,\
                 \"args\":{{\"buckets\":{},\"heap\":{}}}}}",
                w.queue_buckets, w.queue_heap
            ),
        );
        push_event(
            &mut body,
            &format!(
                "{{\"name\":\"occupancy\",\"ph\":\"C\",\"ts\":{t},\"pid\":0,\
                 \"args\":{{\"ltt\":{},\"mshr\":{}}}}}",
                w.ltt_total, w.mshr_total
            ),
        );
        let max_msgs = w.link_messages.iter().copied().max().unwrap_or(0);
        let total_msgs: u64 = w.link_messages.iter().sum();
        push_event(
            &mut body,
            &format!(
                "{{\"name\":\"link utilization\",\"ph\":\"C\",\"ts\":{t},\"pid\":0,\
                 \"args\":{{\"max_link_msgs\":{max_msgs},\"total_msgs\":{total_msgs}}}}}"
            ),
        );
        if w.rel_unacked > 0 || w.rel_queued > 0 || w.retransmits > 0 {
            push_event(
                &mut body,
                &format!(
                    "{{\"name\":\"reliable transport\",\"ph\":\"C\",\"ts\":{t},\"pid\":0,\
                     \"args\":{{\"unacked\":{},\"queued\":{},\"retransmits\":{}}}}}",
                    w.rel_unacked, w.rel_queued, w.retransmits
                ),
            );
        }
    }
    format!("{{\"traceEvents\":[\n{body}\n],\"displayTimeUnit\":\"ns\"}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightConfig, FlightProbe, FlightRecorder};
    use crate::json::Json;

    fn ev(cycle: u64, node: u32, serial: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            node,
            txn_node: node,
            txn_serial: serial,
            line: 0x40,
            kind,
        }
    }

    /// The `traceEvents` array of a parsed Perfetto document.
    fn trace_events(json: &str) -> Vec<Json> {
        let doc = Json::parse(json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ns")
        );
        match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("traceEvents is not an array: {other:?}"),
        }
    }

    /// The one event called `name`.
    fn named<'a>(items: &'a [Json], name: &str) -> &'a Json {
        let mut found = items
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name));
        let e = found.next().unwrap_or_else(|| panic!("no `{name}` event"));
        assert!(found.next().is_none(), "two `{name}` events");
        e
    }

    fn uint(v: &Json, key: &str) -> Option<u64> {
        v.get(key).and_then(Json::as_u64)
    }

    #[test]
    fn emits_slices_for_transaction_lifetimes() {
        let events = vec![
            ev(
                10,
                1,
                7,
                EventKind::RequestIssue {
                    op: OpClass::Read,
                    retry: false,
                },
            ),
            ev(
                90,
                1,
                7,
                EventKind::Complete {
                    op: OpClass::Read,
                    c2c: true,
                    latency: 80,
                },
            ),
        ];
        let items = trace_events(&perfetto_json(&events, &[]));
        assert_eq!(items.len(), 2, "a thread name and a slice");
        let meta = named(&items, "thread_name");
        assert_eq!(meta.get("ph").and_then(Json::as_str), Some("M"));
        let name = meta.get("args").and_then(|a| a.get("name"));
        assert_eq!(name.and_then(Json::as_str), Some("node 1"));
        let slice = named(&items, "read c2c");
        assert_eq!(slice.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            (uint(slice, "ts"), uint(slice, "dur"), uint(slice, "tid")),
            (Some(10), Some(80), Some(1))
        );
        let args = slice.get("args").expect("args");
        assert_eq!(args.get("line").and_then(Json::as_str), Some("0x40"));
        assert_eq!(uint(args, "serial"), Some(7));
    }

    #[test]
    fn emits_counter_tracks_from_windows() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        r.record(FlightProbe {
            cycle: 10_000,
            events: 100,
            queue_depth: 7,
            queue_buckets: 6,
            queue_heap: 1,
            link_messages: vec![5, 50],
            link_bytes: vec![40, 400],
            rel_unacked: 2,
            ..Default::default()
        });
        let windows: Vec<WindowSnapshot> = r.snapshots().cloned().collect();
        let items = trace_events(&perfetto_json(&[], &windows));
        assert_eq!(items.len(), 4, "one event per counter track");
        let queue = named(&items, "queue depth");
        assert_eq!(queue.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(uint(queue, "ts"), Some(10_000));
        let args = queue.get("args").expect("args");
        assert_eq!(
            (uint(args, "buckets"), uint(args, "heap")),
            (Some(6), Some(1))
        );
        let links = named(&items, "link utilization").get("args").expect("args");
        assert_eq!(
            (uint(links, "max_link_msgs"), uint(links, "total_msgs")),
            (Some(50), Some(55))
        );
        let rel = named(&items, "reliable transport")
            .get("args")
            .expect("args");
        assert_eq!(uint(rel, "unacked"), Some(2));
        assert!(named(&items, "occupancy").get("args").is_some());
    }

    #[test]
    fn empty_inputs_still_produce_a_valid_shell() {
        assert!(trace_events(&perfetto_json(&[], &[])).is_empty());
    }

    #[test]
    fn retries_close_their_slice() {
        let events = vec![
            ev(
                10,
                2,
                3,
                EventKind::RequestIssue {
                    op: OpClass::WriteMiss,
                    retry: false,
                },
            ),
            ev(50, 2, 3, EventKind::Retry { delay: 20 }),
        ];
        let items = trace_events(&perfetto_json(&events, &[]));
        let slice = named(&items, "write retry");
        assert_eq!(
            (uint(slice, "ts"), uint(slice, "dur")),
            (Some(10), Some(40))
        );
    }
}
