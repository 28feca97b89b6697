//! Spans recorded around every call the benchmark makes into a layer.
//!
//! A span holds its layer and name, start and end, the span that was
//! open when it began (its parent) and the id of the unit of work it
//! belongs to. Spans stay in memory and are written as JSONL when the
//! benchmark ends. A disabled tracer records nothing and reads no
//! clock, so the untraced pass pays nothing for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; tracers of different threads
    /// share one origin so their spans merge onto one time line.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, unit: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else {
            return;
        };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        // Spans close innermost first; anything left open above `id`
        // was abandoned by an early return and closes with it.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = self.spans[id].end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(layer, name, unit);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another tracer's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per layer: span count, total seconds and self seconds. A span's
    /// self time is its duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += (s.secs() - c).max(0.0);
        }
        out
    }

    /// The self-time table: one row per layer, largest self time first.
    pub fn self_time_table(&self) -> String {
        let rows = self.self_times();
        let all: f64 = rows.values().map(|r| r.2).sum();
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = format!(
            "{:<10} {:>8} {:>12} {:>12} {:>7}\n",
            "layer", "spans", "total_ms", "self_ms", "self%"
        );
        for (layer, (n, total, own)) in rows {
            out.push_str(&format!(
                "{:<10} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                layer,
                n,
                total * 1e3,
                own * 1e3,
                if all > 0.0 { own / all * 100.0 } else { 0.0 }
            ));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {id}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}, \"unit\": {}}}",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.unit
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("bench", "unit", 1);
        spin(4);
        t.span("system", "new", 1, || spin(6));
        t.end(outer);
        let rows = t.self_times();
        let (n, total, own) = rows["bench"];
        assert_eq!(n, 1);
        assert!(total >= 0.010);
        assert!(own >= 0.004 && own < total - 0.005, "{own} of {total}");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.self_time_table().contains("system"));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_merges() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin);
        off.span("system", "new", 0, || ());
        assert!(off.spans().is_empty());
        let mut a = Tracer::new(true, origin);
        a.span("server", "create", 0, || ());
        let mut b = Tracer::new(true, origin);
        let o = b.begin("bench", "session", 1);
        b.span("server", "create", 1, || ());
        b.end(o);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations("create").len(), 2);
    }
}
