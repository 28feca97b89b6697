//! Structured coherence-event tracing for the Uncorq simulator.
//!
//! This crate is the observability layer of the simulator:
//!
//! - [`TraceEvent`] — a typed record of one protocol event (request
//!   issue, ring hop, snoop, LTT activity, collision/winner selection,
//!   combined-response consumption, memory fetch, prefetch, retry,
//!   starvation), carrying the cycle, node, transaction identity, and
//!   line it concerns.
//! - [`TraceSink`] — where events go: [`NullSink`] (a no-op, the
//!   default), [`SharedBufferSink`] (every event in memory),
//!   [`DigestSink`] (an FNV-1a fingerprint of the JSONL stream), and
//!   [`JsonlSink`] (one JSON object per line, for the offline
//!   `tracecheck` pipeline).
//! - [`json`] — the workspace's one JSON parser, which reads trace lines
//!   back ([`TraceEvent::from_jsonl`]) as well as `ringd`'s wire frames.
//! - [`MetricsRegistry`] — per-node and per-link counters/histograms
//!   that accumulate during a run and roll up into the machine-level
//!   report, including the per-transaction latency anatomy
//!   (request-delivery vs data-transfer vs response-return, in the
//!   style of the paper's Figure 5).
//!
//! The crate is dependency-light on purpose: events identify nodes,
//! transactions, and lines by raw integers so that every simulator layer
//! can emit events without cyclic crate dependencies.
//!
//! # Examples
//!
//! ```
//! use ring_trace::{EventKind, OpClass, TraceEvent};
//!
//! let ev = TraceEvent {
//!     cycle: 120,
//!     node: 3,
//!     txn_node: 3,
//!     txn_serial: 7,
//!     line: 4096,
//!     kind: EventKind::MulticastRequest { op: OpClass::Read },
//! };
//! let line = ev.to_jsonl();
//! assert_eq!(TraceEvent::from_jsonl(&line).unwrap(), ev);
//! assert!(ev.to_string().contains("MCAST R"));
//! ```

#![warn(missing_docs)]

mod check;
mod event;
mod export;
mod fanout;
mod flight;
pub mod json;
mod metrics;
mod sink;

pub use check::{check_events, InvariantChecker};
pub use event::{ErrorClass, EventKind, FaultClass, OpClass, ParseError, Payload, TraceEvent};
pub use export::perfetto_json;
pub use fanout::{Delivery, FanoutSink, Subscription};
pub use flight::{FlightConfig, FlightProbe, FlightRecorder, WindowSnapshot};
pub use metrics::{
    ClassLatency, LatencyAnatomy, LinkMetrics, MetricsRegistry, NodeMetrics, TXN_CLASSES,
};
pub use sink::{DigestSink, JsonlSink, NullSink, SharedBufferSink, TraceSink};
