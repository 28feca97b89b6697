//! Pluggable destinations for trace events.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// Where trace events go.
///
/// The machine invokes [`TraceSink::record`] once per emitted event;
/// event construction itself is skipped entirely when no sink is
/// installed, so the disabled path costs one branch.
pub trait TraceSink: Send {
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every event. Installing `NullSink` is equivalent to
/// installing no sink at all — it exists so code can hold a
/// `Box<dyn TraceSink>` unconditionally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent) {}
}

/// Collects every event in memory, unbounded. Clones share the buffer
/// (install one clone, read from the other); used by tests that assert
/// on full event streams.
#[derive(Debug, Clone, Default)]
pub struct SharedBufferSink {
    buf: Arc<Mutex<Vec<TraceEvent>>>,
}

impl SharedBufferSink {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.lock().unwrap().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for SharedBufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.buf.lock().unwrap().push(*ev);
    }
}

/// Folds every event's JSONL line, newline included, into a 64-bit
/// FNV-1a digest: the digest equals [`ring_snapshot::fnv1a`] of the file
/// [`JsonlSink`] would write, so it fingerprints the complete trace
/// stream without keeping it. Clones share state: install one clone into
/// the machine and read the digest from the other.
#[derive(Debug, Clone)]
pub struct DigestSink {
    state: Arc<Mutex<(u64, u64)>>,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink {
            state: Arc::new(Mutex::new((ring_snapshot::fnv1a(b""), 0))),
        }
    }
}

impl DigestSink {
    /// A fresh digest (FNV offset basis, zero events).
    pub fn new() -> Self {
        Self::default()
    }

    /// `(digest, events recorded)` so far.
    pub fn digest(&self) -> (u64, u64) {
        *self.state.lock().expect(POISONED)
    }
}

const POISONED: &str = "digest sink poisoned: a thread panicked while recording";

impl TraceSink for DigestSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut st = self.state.lock().expect(POISONED);
        for &b in ev.to_jsonl().as_bytes().iter().chain(b"\n") {
            st.0 ^= u64::from(b);
            st.0 = st.0.wrapping_mul(0x100_0000_01b3);
        }
        st.1 += 1;
    }
}

/// Streams events as JSON Lines to a writer (one object per line, in
/// stable field order — two identical runs produce byte-identical
/// files). This is the input format of the `tracecheck` pipeline.
pub struct JsonlSink<W: Write + Send> {
    w: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink {
            w: BufWriter::new(File::create(path)?),
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }

    /// Unwraps the inner writer (flushing is the caller's concern).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        // A full disk is unrecoverable mid-run; drop the event rather
        // than aborting the simulation.
        let _ = writeln!(self.w, "{}", ev.to_jsonl());
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, OpClass};

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            node: 1,
            txn_node: 1,
            txn_serial: cycle,
            line: 64,
            kind: EventKind::RequestIssue {
                op: OpClass::Read,
                retry: false,
            },
        }
    }

    #[test]
    fn digest_is_fnv1a_of_the_jsonl_file() {
        let reader = DigestSink::new();
        let mut digest = reader.clone();
        let mut file = JsonlSink::new(Vec::new());
        assert_eq!(reader.digest(), (ring_snapshot::fnv1a(b""), 0));
        for c in 0..3 {
            digest.record(&ev(c));
            file.record(&ev(c));
        }
        let bytes = file.into_inner();
        assert_eq!(reader.digest(), (ring_snapshot::fnv1a(&bytes), 3));
    }

    #[test]
    fn shared_buffer_clones_share_storage() {
        let reader = SharedBufferSink::new();
        let mut writer = reader.clone();
        writer.record(&ev(9));
        assert_eq!(reader.len(), 1);
        assert_eq!(reader.snapshot()[0].cycle, 9);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1));
        sink.record(&ev(2));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_jsonl(l).unwrap())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].cycle, 2);
    }

    #[test]
    fn null_sink_is_a_noop() {
        let mut s = NullSink;
        s.record(&ev(1));
        assert!(s.flush().is_ok());
    }
}
