//! Deterministic `(protocol × workload × seed)` sweep runner.
//!
//! Every cell of the grid is an independent simulation: it owns its
//! [`Machine`], its seeded RNG, and its workload streams, so cells can be
//! fanned across `std::thread` workers and the *simulation results*
//! (report digests, event counts, cycle counts) are byte-identical to a
//! serial sweep — only the wall-clock fields differ. The
//! `bench_sweep` binary drives this module and emits the machine-readable
//! `BENCH_machine.json` perf trajectory (see EXPERIMENTS.md for the
//! schema and recipe).

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use ring_coherence::ProtocolVariant;
use ring_system::{Machine, MachineConfig, Report};
use ring_trace::{TraceEvent, TraceSink};
use ring_workloads::AppProfile;

/// Schema identifier written into every `BENCH_machine.json`.
///
/// v2 adds per-row read-latency percentiles (`lat_p50`, `lat_p99`) and
/// a top-level `git_commit` stamp. [`parse_bench_json`] still reads v1
/// documents (the extra fields are simply absent), but [`gate`] refuses
/// to judge a run against a baseline of another schema.
pub const BENCH_SCHEMA: &str = "uncorq-bench-v2";

/// The previous schema identifier; its documents still parse.
pub const BENCH_SCHEMA_V1: &str = "uncorq-bench-v1";

/// The `"schema"` field of a `BENCH_machine.json` document, if present
/// (v0 prototypes had none).
pub fn parse_bench_schema(text: &str) -> Option<String> {
    text.lines()
        .find_map(|l| json_field(l.trim_start(), "schema"))
        .map(str::to_string)
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Protocol variant to run.
    pub variant: ProtocolVariant,
    /// Application profile name (see `AppProfile::by_name`).
    pub app: String,
    /// Torus width.
    pub width: usize,
    /// Torus height.
    pub height: usize,
    /// Machine seed.
    pub seed: u64,
    /// Per-core operation count the profile is scaled to.
    pub ops: u64,
}

impl SweepCell {
    /// The machine configuration this cell runs.
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::with_protocol(self.variant.config());
        cfg.width = self.width;
        cfg.height = self.height;
        cfg.seed = self.seed;
        cfg
    }

    /// Number of nodes in this cell's machine.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Human-readable cell label, e.g. `uncorq/64n/fmm@2007`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}n/{}@{}",
            self.variant.name(),
            self.nodes(),
            self.app,
            self.seed
        )
    }
}

/// The measurement of one completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Protocol variant name.
    pub protocol: String,
    /// Node count.
    pub nodes: usize,
    /// Application name.
    pub app: String,
    /// Machine seed.
    pub seed: u64,
    /// Per-core operation count.
    pub ops: u64,
    /// Total OS threads the *simulation engine* ran on (1 = serial
    /// engine; >1 = conservative-PDES parallel engine with `workers-1`
    /// phase-A workers). Orthogonal to the sweep-level thread fan-out:
    /// that parallelizes across cells, this parallelizes inside one.
    pub workers: usize,
    /// Whether every core ran to completion.
    pub finished: bool,
    /// Execution time of the simulated machine, in cycles.
    pub exec_cycles: u64,
    /// Events processed by the event queue.
    pub events: u64,
    /// Peak pending-event count (queue working set).
    pub peak_queue: usize,
    /// Wall-clock seconds spent inside `Machine::run`.
    pub wall_secs: f64,
    /// Simulation throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// FNV-1a digest of the full stats listing ([`report_digest`]).
    pub digest: u64,
    /// Median read-miss completion latency in cycles (p50 over both
    /// cache-to-cache and memory-serviced reads).
    pub lat_p50: u64,
    /// 99th-percentile read-miss completion latency in cycles.
    pub lat_p99: u64,
}

impl CellResult {
    /// Every deterministic field — everything except the wall-clock
    /// measurements *and the worker count*. Serial and parallel sweeps
    /// of the same grid must produce identical keys, in the same
    /// order, and the parallel engine's whole contract is that the
    /// worker count is unobservable.
    pub fn determinism_key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}/{}/{}/{:016x}",
            self.protocol,
            self.nodes,
            self.app,
            self.seed,
            self.ops,
            self.finished,
            self.exec_cycles,
            self.events,
            self.peak_queue,
            self.digest
        )
    }
}

/// Runs one cell: builds the machine, runs it to completion, and times
/// only the simulation loop (construction is excluded).
pub fn run_cell(cell: &SweepCell) -> CellResult {
    run_cell_repeat(cell, 1)
}

/// [`run_cell`] on the serial engine with best-of-`repeat` timing.
pub fn run_cell_repeat(cell: &SweepCell, repeat: usize) -> CellResult {
    run_cell_workers(cell, repeat, 1)
}

/// Runs the cell `repeat` times on `workers` total engine threads
/// (`<= 1` = serial engine, `> 1` = the conservative-PDES parallel
/// engine) and keeps the best (smallest) wall time — the standard
/// guard against scheduler noise on shared machines. Every repeat must
/// produce an identical report digest (they are the same deterministic
/// simulation), which doubles as a free determinism check — and
/// because the parallel engine is digest-identical to serial, the same
/// check catches any engine divergence.
///
/// # Panics
///
/// Panics if two repeats disagree on the report digest.
pub fn run_cell_workers(cell: &SweepCell, repeat: usize, workers: usize) -> CellResult {
    let profile = AppProfile::by_name(&cell.app)
        .unwrap_or_else(|| panic!("unknown app profile {}", cell.app))
        .scaled(cell.ops);
    let mut wall = f64::INFINITY;
    let mut best: Option<(Report, usize)> = None;
    for _ in 0..repeat.max(1) {
        let mut m = Machine::new(cell.config(), &profile);
        let start = Instant::now();
        let report = if workers > 1 {
            m.run_parallel(workers)
        } else {
            m.run()
        };
        let w = start.elapsed().as_secs_f64();
        if let Some((prev, _)) = &best {
            assert_eq!(
                report_digest(prev),
                report_digest(&report),
                "nondeterministic repeat of cell {}",
                cell.label()
            );
        }
        if w < wall || best.is_none() {
            wall = w;
            best = Some((report, m.queue_peak()));
        }
    }
    let (report, peak_queue) = best.expect("at least one repeat runs");
    let events = report.stats.events;
    let reads = report.stats.class_latency.reads();
    CellResult {
        protocol: cell.variant.name().to_string(),
        nodes: cell.nodes(),
        app: cell.app.clone(),
        seed: cell.seed,
        ops: cell.ops,
        workers: workers.max(1),
        finished: report.finished,
        exec_cycles: report.exec_cycles,
        events,
        peak_queue,
        wall_secs: wall,
        events_per_sec: if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
        digest: report_digest(&report),
        lat_p50: reads.p50(),
        lat_p99: reads.p99(),
    }
}

/// Runs the whole grid. `threads <= 1` runs serially in grid order;
/// otherwise cells are claimed from a shared counter by `threads`
/// workers and the results are re-assembled in grid order, so the
/// output order (and every deterministic field) is identical to the
/// serial run.
pub fn run_sweep(cells: &[SweepCell], threads: usize) -> Vec<CellResult> {
    run_sweep_repeat(cells, threads, 1)
}

/// [`run_sweep`] with per-cell best-of-`repeat` timing (see
/// [`run_cell_repeat`]).
pub fn run_sweep_repeat(cells: &[SweepCell], threads: usize, repeat: usize) -> Vec<CellResult> {
    run_sweep_workers(cells, threads, repeat, 1)
}

/// [`run_sweep_repeat`] with each cell itself running on `workers`
/// engine threads (see [`run_cell_workers`]). Cross-cell fan-out
/// (`threads`) and in-cell parallelism (`workers`) compose, but for
/// clean wall-clock numbers use one or the other, not both.
pub fn run_sweep_workers(
    cells: &[SweepCell],
    threads: usize,
    repeat: usize,
    workers: usize,
) -> Vec<CellResult> {
    if threads <= 1 || cells.len() <= 1 {
        return cells
            .iter()
            .map(|c| run_cell_workers(c, repeat, workers))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CellResult)>();
    std::thread::scope(|s| {
        for _ in 0..threads.min(cells.len()) {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                // A worker panicking (bad cell) drops `tx`; the
                // collector below then reports the missing cell.
                let _ = tx.send((i, run_cell_workers(&cells[i], repeat, workers)));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<CellResult>> = vec![None; cells.len()];
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("cell {} never completed", cells[i].label())))
            .collect()
    })
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a run's full plain-text stats listing: two runs with the
/// same digest produced identical reports, field for field.
pub fn report_digest(r: &Report) -> u64 {
    let mut buf = Vec::new();
    r.write_stats(&mut buf)
        .expect("writing to a Vec cannot fail");
    fnv1a(&buf)
}

/// A [`TraceSink`] that folds every event's canonical JSONL rendering
/// into an FNV-1a digest — a cheap fingerprint of the complete trace
/// stream. Clones share state: install one clone into the machine and
/// read the digest from the other.
#[derive(Debug, Clone, Default)]
pub struct DigestSink {
    state: std::sync::Arc<std::sync::Mutex<(u64, u64)>>,
}

impl DigestSink {
    /// A fresh digest (FNV offset basis, zero events).
    pub fn new() -> Self {
        DigestSink {
            state: std::sync::Arc::new(std::sync::Mutex::new((0xcbf2_9ce4_8422_2325, 0))),
        }
    }

    /// `(digest, events recorded)` so far.
    pub fn digest(&self) -> (u64, u64) {
        *self.state.lock().unwrap()
    }
}

impl TraceSink for DigestSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut st = self.state.lock().unwrap();
        for &b in ev.to_jsonl().as_bytes() {
            st.0 ^= b as u64;
            st.0 = st.0.wrapping_mul(0x100_0000_01b3);
        }
        st.0 ^= b'\n' as u64;
        st.0 = st.0.wrapping_mul(0x100_0000_01b3);
        st.1 += 1;
    }
}

/// One row of a previously recorded `BENCH_machine.json`, as needed for
/// regression comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Protocol variant name.
    pub protocol: String,
    /// Node count.
    pub nodes: usize,
    /// Application name.
    pub app: String,
    /// Machine seed.
    pub seed: u64,
    /// Per-core operation count.
    pub ops: u64,
    /// Engine thread count the row was recorded at (1 when the
    /// baseline predates the parallel engine and has no field).
    pub workers: usize,
    /// Recorded throughput.
    pub events_per_sec: f64,
}

/// The outcome of comparing a fresh sweep against a recorded baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Path the baseline was loaded from (for the JSON emission).
    pub baseline_path: String,
    /// `(row, baseline events/sec, ratio new/old)` per matched cell.
    pub matched: Vec<(String, f64, f64)>,
    /// Cells of the fresh sweep with no baseline row.
    pub unmatched: Vec<String>,
    /// Smallest new/old throughput ratio across matched cells.
    pub min_ratio: f64,
}

/// Matches fresh results against baseline rows by
/// `(protocol, nodes, app, seed, ops, workers)` and computes
/// throughput ratios. Worker counts must match because serial and
/// parallel-engine rows measure different things — a 4-worker row is
/// never a regression gate for a serial run or vice versa.
pub fn compare(results: &[CellResult], baseline: &[BaselineRow], path: &str) -> Comparison {
    let mut matched = Vec::new();
    let mut unmatched = Vec::new();
    let mut min_ratio = f64::INFINITY;
    for r in results {
        let hit = baseline.iter().find(|b| {
            b.protocol == r.protocol
                && b.nodes == r.nodes
                && b.app == r.app
                && b.seed == r.seed
                && b.ops == r.ops
                && b.workers == r.workers
        });
        let key = format!(
            "{}/{}n/{}@{}x{}w",
            r.protocol, r.nodes, r.app, r.seed, r.workers
        );
        match hit {
            Some(b) if b.events_per_sec > 0.0 => {
                let ratio = r.events_per_sec / b.events_per_sec;
                min_ratio = min_ratio.min(ratio);
                matched.push((key, b.events_per_sec, ratio));
            }
            _ => unmatched.push(key),
        }
    }
    if matched.is_empty() {
        min_ratio = 0.0;
    }
    Comparison {
        baseline_path: path.to_string(),
        matched,
        unmatched,
        min_ratio,
    }
}

/// The regression gate: `Ok` only when the baseline has the current
/// [`BENCH_SCHEMA`], at least one cell matched it, and no matched cell's
/// throughput fell below `1 - tolerance` of its baseline row. Each `Err`
/// says why the run fails.
pub fn gate(cmp: &Comparison, baseline_schema: Option<&str>, tolerance: f64) -> Result<(), String> {
    if baseline_schema != Some(BENCH_SCHEMA) {
        return Err(format!(
            "baseline {} has schema {}, not {BENCH_SCHEMA}: re-record it",
            cmp.baseline_path,
            baseline_schema.unwrap_or("<none>")
        ));
    }
    if cmp.matched.is_empty() {
        return Err(format!(
            "baseline {} has no row for any cell of this sweep",
            cmp.baseline_path
        ));
    }
    let floor = 1.0 - tolerance;
    if cmp.min_ratio < floor {
        return Err(format!(
            "PERF REGRESSION: min events/sec ratio {:.3} below tolerance floor {floor:.3} \
             (baseline {})",
            cmp.min_ratio, cmp.baseline_path
        ));
    }
    Ok(())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_row<W: Write>(w: &mut W, r: &CellResult, last: bool) -> io::Result<()> {
    writeln!(
        w,
        "    {{\"protocol\": \"{}\", \"nodes\": {}, \"app\": \"{}\", \"seed\": {}, \
         \"ops\": {}, \"workers\": {}, \"finished\": {}, \"exec_cycles\": {}, \"events\": {}, \
         \"peak_queue\": {}, \"wall_secs\": {:.4}, \"events_per_sec\": {:.0}, \
         \"lat_p50\": {}, \"lat_p99\": {}, \"digest\": \"{:016x}\"}}{}",
        json_escape(&r.protocol),
        r.nodes,
        json_escape(&r.app),
        r.seed,
        r.ops,
        r.workers,
        r.finished,
        r.exec_cycles,
        r.events,
        r.peak_queue,
        r.wall_secs,
        r.events_per_sec,
        r.lat_p50,
        r.lat_p99,
        r.digest,
        if last { "" } else { "," }
    )
}

/// Writes the `BENCH_machine.json` document: one row object per line
/// (which keeps [`parse_bench_json`] a line scanner), a `baseline`
/// section when a comparison was run, and a free-form `note`.
pub fn write_bench_json<W: Write>(
    w: &mut W,
    note: &str,
    threads: usize,
    rows: &[CellResult],
    cmp: Option<&Comparison>,
) -> io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"schema\": \"{BENCH_SCHEMA}\",")?;
    writeln!(
        w,
        "  \"git_commit\": \"{}\",",
        json_escape(&ring_snapshot::git_commit_short())
    )?;
    writeln!(w, "  \"note\": \"{}\",", json_escape(note))?;
    writeln!(w, "  \"threads\": {threads},")?;
    writeln!(w, "  \"rows\": [")?;
    for (i, r) in rows.iter().enumerate() {
        write_row(w, r, i + 1 == rows.len())?;
    }
    writeln!(w, "  ]{}", if cmp.is_some() { "," } else { "" })?;
    if let Some(c) = cmp {
        // parse_bench_json stops at this key, so the nested per-cell
        // ratios below are never mistaken for fresh measurement rows.
        writeln!(w, "  \"baseline\": {{")?;
        writeln!(w, "    \"path\": \"{}\",", json_escape(&c.baseline_path))?;
        writeln!(w, "    \"min_ratio\": {:.4},", c.min_ratio)?;
        writeln!(w, "    \"cells\": [")?;
        for (i, (key, old, ratio)) in c.matched.iter().enumerate() {
            writeln!(
                w,
                "      {{\"cell\": \"{}\", \"baseline_events_per_sec\": {:.0}, \
                 \"ratio\": {:.4}}}{}",
                json_escape(key),
                old,
                ratio,
                if i + 1 == c.matched.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "    ]")?;
        writeln!(w, "  }}")?;
    }
    writeln!(w, "}}")
}

/// Extracts `"key": <value>` from one JSON row line. Returns the raw
/// value token (string values without their quotes).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

/// Reads the measurement rows back out of a `BENCH_machine.json`
/// emitted by [`write_bench_json`]. The format is line-oriented by
/// construction: one row object per line, and parsing stops at the
/// `"baseline"` section so recorded comparison data is not re-read as
/// measurements. Malformed lines are skipped.
pub fn parse_bench_json(text: &str) -> Vec<BaselineRow> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let t = line.trim_start();
        if t.starts_with("\"baseline\"") {
            break;
        }
        let (Some(protocol), Some(nodes), Some(app), Some(seed), Some(ops), Some(eps)) = (
            json_field(t, "protocol"),
            json_field(t, "nodes"),
            json_field(t, "app"),
            json_field(t, "seed"),
            json_field(t, "ops"),
            json_field(t, "events_per_sec"),
        ) else {
            continue;
        };
        let (Ok(nodes), Ok(seed), Ok(ops), Ok(events_per_sec)) =
            (nodes.parse(), seed.parse(), ops.parse(), eps.parse())
        else {
            continue;
        };
        // Rows written before the parallel engine carry no "workers"
        // field; they were all serial-engine measurements.
        let workers = json_field(t, "workers")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        rows.push(BaselineRow {
            protocol: protocol.to_string(),
            nodes,
            app: app.to_string(),
            seed,
            ops,
            workers,
            events_per_sec,
        });
    }
    rows
}

/// The default sweep grid: every [`ProtocolVariant`] on 16- and 64-node
/// tori, one application, one seed.
pub fn default_grid(
    apps: &[String],
    seeds: &[u64],
    ops: u64,
    grids: &[(usize, usize)],
) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for &(width, height) in grids {
        for variant in ProtocolVariant::ALL {
            for app in apps {
                for &seed in seeds {
                    cells.push(SweepCell {
                        variant,
                        app: app.clone(),
                        width,
                        height,
                        seed,
                        ops,
                    });
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cells() -> Vec<SweepCell> {
        vec![
            SweepCell {
                variant: ProtocolVariant::Eager,
                app: "fmm".into(),
                width: 4,
                height: 4,
                seed: 7,
                ops: 60,
            },
            SweepCell {
                variant: ProtocolVariant::Uncorq,
                app: "fmm".into(),
                width: 4,
                height: 4,
                seed: 7,
                ops: 60,
            },
            SweepCell {
                variant: ProtocolVariant::UncorqPref,
                app: "fmm".into(),
                width: 4,
                height: 4,
                seed: 9,
                ops: 60,
            },
        ]
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn serial_and_parallel_sweeps_are_identical() {
        let cells = tiny_cells();
        let serial = run_sweep(&cells, 1);
        let parallel = run_sweep(&cells, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.determinism_key(), p.determinism_key());
        }
    }

    #[test]
    fn run_cell_measures_and_digests() {
        let r = run_cell(&tiny_cells()[0]);
        assert!(r.finished);
        assert!(r.events > 0);
        assert!(r.peak_queue > 0);
        assert!(r.events_per_sec > 0.0);
        // Same cell twice: identical digest, independent wall clock.
        let r2 = run_cell(&tiny_cells()[0]);
        assert_eq!(r.digest, r2.digest);
        assert_eq!(r.determinism_key(), r2.determinism_key());
    }

    #[test]
    fn bench_json_roundtrips_through_parser() {
        let rows = run_sweep(&tiny_cells()[..2], 1);
        let cmp = compare(&rows, &parse_bench_json(""), "none");
        assert_eq!(cmp.matched.len(), 0);
        let mut buf = Vec::new();
        write_bench_json(&mut buf, "test", 1, &rows, None).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_bench_json(&text);
        assert_eq!(parsed.len(), rows.len());
        for (b, r) in parsed.iter().zip(&rows) {
            assert_eq!(b.protocol, r.protocol);
            assert_eq!(b.nodes, r.nodes);
            assert_eq!(b.ops, r.ops);
            assert!((b.events_per_sec - r.events_per_sec).abs() <= 1.0);
        }
    }

    #[test]
    fn comparison_flags_regressions_via_min_ratio() {
        let rows = run_sweep(&tiny_cells()[..1], 1);
        let mut buf = Vec::new();
        write_bench_json(&mut buf, "base", 1, &rows, None).unwrap();
        let baseline = parse_bench_json(&String::from_utf8(buf).unwrap());
        let cmp = compare(&rows, &baseline, "mem");
        assert_eq!(cmp.matched.len(), 1);
        assert!(cmp.unmatched.is_empty());
        // Same measurement against itself: ratio ~1.
        assert!(
            cmp.min_ratio > 0.5 && cmp.min_ratio < 2.0,
            "{}",
            cmp.min_ratio
        );
        // A 10x-faster recorded baseline shows up as a regression.
        let mut fast = baseline.clone();
        fast[0].events_per_sec *= 10.0;
        let cmp = compare(&rows, &fast, "mem");
        assert!(cmp.min_ratio < 0.8);
    }

    #[test]
    fn gate_fails_a_slowdown_and_a_foreign_schema() {
        let rows = run_sweep(&tiny_cells()[..1], 1);
        let row = |events_per_sec: f64| BaselineRow {
            protocol: rows[0].protocol.clone(),
            nodes: rows[0].nodes,
            app: rows[0].app.clone(),
            seed: rows[0].seed,
            ops: rows[0].ops,
            workers: rows[0].workers,
            events_per_sec,
        };
        let same = compare(&rows, &[row(rows[0].events_per_sec)], "same.json");
        assert_eq!(gate(&same, Some(BENCH_SCHEMA), 0.20), Ok(()));
        // The fresh run is 30% slower than the recorded row.
        let slower = compare(&rows, &[row(rows[0].events_per_sec / 0.7)], "fast.json");
        let err = gate(&slower, Some(BENCH_SCHEMA), 0.20).unwrap_err();
        assert!(err.contains("PERF REGRESSION"), "{err}");
        // A v1 baseline fails outright, even at equal speed.
        let err = gate(&same, Some(BENCH_SCHEMA_V1), 0.20).unwrap_err();
        assert!(err.contains(BENCH_SCHEMA_V1), "{err}");
        assert!(gate(&same, None, 0.20).is_err());
        // A baseline that gates nothing is a failure, not a pass.
        let unmatched = compare(&rows, &[], "empty.json");
        assert!(gate(&unmatched, Some(BENCH_SCHEMA), 0.20).is_err());
    }

    #[test]
    fn baseline_section_is_not_reparsed_as_rows() {
        let rows = run_sweep(&tiny_cells()[..1], 1);
        let baseline = vec![BaselineRow {
            protocol: rows[0].protocol.clone(),
            nodes: rows[0].nodes,
            app: rows[0].app.clone(),
            seed: rows[0].seed,
            ops: rows[0].ops,
            workers: rows[0].workers,
            events_per_sec: rows[0].events_per_sec,
        }];
        let cmp = compare(&rows, &baseline, "b.json");
        let mut buf = Vec::new();
        write_bench_json(&mut buf, "with-baseline", 2, &rows, Some(&cmp)).unwrap();
        let parsed = parse_bench_json(&String::from_utf8(buf).unwrap());
        assert_eq!(parsed.len(), rows.len(), "baseline cells leaked into rows");
    }

    #[test]
    fn schema_commit_and_percentiles_are_stamped() {
        let rows = run_sweep(&tiny_cells()[..1], 1);
        assert!(rows[0].lat_p99 >= rows[0].lat_p50);
        assert!(rows[0].lat_p50 > 0);
        let mut buf = Vec::new();
        write_bench_json(&mut buf, "t", 1, &rows, None).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(parse_bench_schema(&text).as_deref(), Some(BENCH_SCHEMA));
        assert!(text.contains("\"git_commit\": \""));
        assert!(text.contains("\"lat_p50\": "));
        assert!(text.contains("\"lat_p99\": "));
    }

    #[test]
    fn v1_documents_still_parse_as_baselines() {
        let v1 = concat!(
            "{\n",
            "  \"schema\": \"uncorq-bench-v1\",\n",
            "  \"note\": \"old\",\n",
            "  \"threads\": 1,\n",
            "  \"rows\": [\n",
            "    {\"protocol\": \"uncorq\", \"nodes\": 16, \"app\": \"fmm\", ",
            "\"seed\": 7, \"ops\": 60, \"finished\": true, \"exec_cycles\": 100, ",
            "\"events\": 5, \"peak_queue\": 2, \"wall_secs\": 0.1, ",
            "\"events_per_sec\": 50, \"digest\": \"00000000000000aa\"}\n",
            "  ]\n",
            "}\n"
        );
        assert_eq!(parse_bench_schema(v1).as_deref(), Some(BENCH_SCHEMA_V1));
        let rows = parse_bench_json(v1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].protocol, "uncorq");
        assert!((rows[0].events_per_sec - 50.0).abs() < 1e-9);
        // Pre-parallel-engine rows were all serial measurements.
        assert_eq!(rows[0].workers, 1);
    }

    #[test]
    fn worker_count_is_unobservable_in_cell_digests() {
        let cell = &tiny_cells()[0];
        let serial = run_cell_workers(cell, 1, 1);
        let par = run_cell_workers(cell, 1, 3);
        assert_eq!(par.workers, 3);
        assert_eq!(par.digest, serial.digest);
        assert_eq!(par.determinism_key(), serial.determinism_key());
        // But workers *do* key baseline matching: a serial baseline
        // must not gate a parallel measurement.
        let mut buf = Vec::new();
        write_bench_json(&mut buf, "b", 1, &[serial], None).unwrap();
        let baseline = parse_bench_json(&String::from_utf8(buf).unwrap());
        let cmp = compare(&[par], &baseline, "b.json");
        assert!(cmp.matched.is_empty());
        assert_eq!(cmp.unmatched.len(), 1);
    }

    #[test]
    fn default_grid_covers_all_variants() {
        let cells = default_grid(&["fmm".into()], &[2007], 500, &[(4, 4), (8, 8)]);
        assert_eq!(cells.len(), ProtocolVariant::ALL.len() * 2);
        assert!(cells.iter().any(|c| c.nodes() == 64));
        assert_eq!(cells[0].label(), "eager/16n/fmm@2007");
    }
}
