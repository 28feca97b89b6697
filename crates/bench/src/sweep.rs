//! Deterministic `(protocol × workload × seed)` sweep runner.
//!
//! Every cell of the grid is an independent simulation: it owns its
//! [`Machine`], its seeded RNG, and its workload streams, so cells can be
//! fanned across `std::thread` workers and every field of a
//! [`CellResult`] is byte-identical to a serial sweep. The `bench_sweep`
//! binary drives this module as a determinism gate; host timing is
//! ringbench's job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use ring_coherence::ProtocolVariant;
use ring_system::{Machine, MachineConfig, Report};
use ring_trace::{TraceEvent, TraceSink};
use ring_workloads::AppProfile;

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
    /// Whether every core ran to completion.
    pub finished: bool,
    /// Execution time of the simulated machine, in cycles.
    pub exec_cycles: u64,
    /// Events processed by the event queue.
    pub events: u64,
    /// Peak pending-event count (queue working set).
    pub peak_queue: usize,
    /// FNV-1a digest of the full stats listing ([`report_digest`]).
    pub digest: u64,
    /// Median read-miss completion latency in cycles (p50 over both
    /// cache-to-cache and memory-serviced reads).
    pub lat_p50: u64,
    /// 99th-percentile read-miss completion latency in cycles.
    pub lat_p99: u64,
}

impl CellResult {
    /// The fields that identify the run and its outcome. Serial and
    /// parallel sweeps of the same grid must produce identical keys, in
    /// the same order, at any engine worker count: the parallel engine's
    /// whole contract is that the worker count is unobservable.
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

/// Runs one cell to completion on `workers` total engine threads
/// (`<= 1` = serial engine, `> 1` = the conservative-PDES parallel
/// engine, which must be digest-identical to serial).
pub fn run_cell(cell: &SweepCell, workers: usize) -> CellResult {
    let profile = AppProfile::by_name(&cell.app)
        .unwrap_or_else(|| panic!("unknown app profile {}", cell.app))
        .scaled(cell.ops);
    let mut m = Machine::new(cell.config(), &profile);
    let report = if workers > 1 {
        m.run_parallel(workers)
    } else {
        m.run()
    };
    let reads = report.stats.class_latency.reads();
    CellResult {
        protocol: cell.variant.name().to_string(),
        nodes: cell.nodes(),
        app: cell.app.clone(),
        seed: cell.seed,
        ops: cell.ops,
        finished: report.finished,
        exec_cycles: report.exec_cycles,
        events: report.stats.events,
        peak_queue: m.queue_peak(),
        digest: report_digest(&report),
        lat_p50: reads.p50(),
        lat_p99: reads.p99(),
    }
}

/// Runs the whole grid, each cell on `workers` engine threads (see
/// [`run_cell`]). `threads <= 1` runs serially in grid order; otherwise
/// cells are claimed from a shared counter by `threads` workers and the
/// results are re-assembled in grid order, so the output order (and
/// every field) is identical to the serial run.
pub fn run_sweep(cells: &[SweepCell], threads: usize, workers: usize) -> Vec<CellResult> {
    if threads <= 1 || cells.len() <= 1 {
        return cells.iter().map(|c| run_cell(c, workers)).collect();
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
                let _ = tx.send((i, run_cell(&cells[i], workers)));
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
        let serial = run_sweep(&cells, 1, 1);
        let parallel = run_sweep(&cells, 4, 1);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.determinism_key(), p.determinism_key());
        }
    }

    #[test]
    fn run_cell_measures_and_digests() {
        let r = run_cell(&tiny_cells()[0], 1);
        assert!(r.finished);
        assert!(r.events > 0);
        assert!(r.peak_queue > 0);
        assert!(r.lat_p99 >= r.lat_p50 && r.lat_p50 > 0);
        // Same cell twice: identical digest.
        let r2 = run_cell(&tiny_cells()[0], 1);
        assert_eq!(r.digest, r2.digest);
        assert_eq!(r.determinism_key(), r2.determinism_key());
    }

    #[test]
    fn worker_count_is_unobservable_in_cell_digests() {
        let cell = &tiny_cells()[0];
        let serial = run_cell(cell, 1);
        let par = run_cell(cell, 3);
        assert_eq!(par.digest, serial.digest);
        assert_eq!(par.determinism_key(), serial.determinism_key());
    }

    #[test]
    fn default_grid_covers_all_variants() {
        let cells = default_grid(&["fmm".into()], &[2007], 500, &[(4, 4), (8, 8)]);
        assert_eq!(cells.len(), ProtocolVariant::ALL.len() * 2);
        assert!(cells.iter().any(|c| c.nodes() == 64));
        assert_eq!(cells[0].label(), "eager/16n/fmm@2007");
    }
}
