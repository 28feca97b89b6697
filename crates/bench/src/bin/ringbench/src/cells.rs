//! The simulations the benchmark runs, and one timed run of each.
//!
//! A cell is one machine configuration over one workload profile. The
//! benchmark reaches the simulator only through the public API of the
//! library crates (`Machine`, `HtMachine`, `Report`), so edits inside
//! the simulator move its numbers but cannot change what it asks for.

use std::time::Instant;

use ring_coherence::ProtocolVariant;
use ring_system::{HtMachine, Machine, MachineConfig, Report};
use ring_workloads::AppProfile;

use crate::spans::Tracer;

/// Which event loop runs a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Machine::try_run`, the serial engine.
    Serial,
    /// `Machine::try_run_parallel(2)`, the conservative-PDES engine on
    /// two threads.
    Pdes2,
    /// `HtMachine::run`, the HyperTransport baseline's own event loop.
    Ht,
}

#[derive(Debug, Clone)]
pub struct Cell {
    /// Ring protocol variant. An HT cell keeps `Eager`: the baseline
    /// runs on `MachineConfig::paper(Eager)`, the paper's machine.
    pub variant: ProtocolVariant,
    pub engine: Engine,
    pub app: &'static str,
    pub width: usize,
    pub height: usize,
    /// Memory operations per core.
    pub ops: u64,
    pub seed: u64,
}

impl Cell {
    pub fn label(&self) -> String {
        let proto = match self.engine {
            Engine::Ht => "ht",
            _ => self.variant.name(),
        };
        let engine = if self.engine == Engine::Pdes2 {
            "@2w"
        } else {
            ""
        };
        format!(
            "{proto}{engine}/{}n/{}/{}ops",
            self.width * self.height,
            self.app,
            self.ops
        )
    }

    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::with_protocol(self.variant.config());
        cfg.width = self.width;
        cfg.height = self.height;
        cfg.seed = self.seed;
        cfg
    }

    pub fn profile(&self) -> AppProfile {
        AppProfile::by_name(self.app)
            .unwrap_or_else(|| panic!("workload profile {} is not in the catalogue", self.app))
            .scaled(self.ops)
    }

    /// The same cell on another engine.
    pub fn on(&self, engine: Engine) -> Cell {
        Cell {
            engine,
            ..self.clone()
        }
    }
}

/// One completed run of a cell.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Seconds spent constructing the machine.
    pub new_s: f64,
    /// Seconds spent in the event loop.
    pub run_s: f64,
    pub report: Report,
    /// FNV-1a over the report's full stats listing.
    pub digest: u64,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a report's plain-text stats listing: equal digests mean
/// identical reports, field for field. It is the digest the repository
/// pins in its golden tests and `results/BENCH_machine.json`, and the
/// digest of the `report.txt` a `ringd` session leaves behind.
pub fn digest(report: &Report) -> u64 {
    let mut text = Vec::new();
    report
        .write_stats(&mut text)
        .expect("writing to a Vec cannot fail");
    fnv1a(&text)
}

/// Builds and runs `cell` once. Spans (when tracing) cover the machine
/// construction, the run, and the report with its stats listing.
pub fn run(cell: &Cell, tr: &mut Tracer, unit: u64) -> Result<Outcome, String> {
    let (cfg, profile) = (cell.config(), cell.profile());
    let label = cell.label();
    let open = tr.begin("system", "new", unit);
    let t0 = Instant::now();
    let out = if cell.engine == Engine::Ht {
        let mut m = HtMachine::new(cfg, &profile);
        let new_s = t0.elapsed().as_secs_f64();
        tr.end(open);
        let open = tr.begin("system", "run", unit);
        let t1 = Instant::now();
        let report = m.run();
        let run_s = t1.elapsed().as_secs_f64();
        tr.end(open);
        let (report, digest) = report_digest(tr, unit, report, || m.report());
        Outcome {
            new_s,
            run_s,
            report,
            digest,
        }
    } else {
        let mut m = Machine::new(cfg, &profile);
        let new_s = t0.elapsed().as_secs_f64();
        tr.end(open);
        let (name, workers) = match cell.engine {
            Engine::Pdes2 => ("run_parallel", 2),
            _ => ("run", 1),
        };
        let open = tr.begin("system", name, unit);
        let t1 = Instant::now();
        let result = if workers > 1 {
            m.try_run_parallel(workers)
        } else {
            m.try_run()
        };
        let run_s = t1.elapsed().as_secs_f64();
        tr.end(open);
        let report = result.map_err(|stall| format!("{label} stalled: {stall}"))?;
        let (report, digest) = report_digest(tr, unit, report, || m.report());
        Outcome {
            new_s,
            run_s,
            report,
            digest,
        }
    };
    if !out.report.finished {
        return Err(format!("{label} hit its cycle cap before finishing"));
    }
    Ok(out)
}

/// The digest of a finished run. A traced run rebuilds the report
/// through the machine's public `report()` inside a `stats` span, so
/// the span measures report assembly plus the stats listing.
fn report_digest(
    tr: &mut Tracer,
    unit: u64,
    report: Report,
    rebuild: impl FnOnce() -> Report,
) -> (Report, u64) {
    if !tr.enabled() {
        let d = digest(&report);
        return (report, d);
    }
    let open = tr.begin("stats", "report", unit);
    let again = rebuild();
    let d = digest(&again);
    tr.end(open);
    (report, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(variant: ProtocolVariant, engine: Engine) -> Cell {
        Cell {
            variant,
            engine,
            app: "fmm",
            width: 4,
            height: 4,
            ops: 60,
            seed: 7,
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn engines_agree_and_tracing_is_neutral() {
        let origin = Instant::now();
        let mut off = Tracer::new(false, origin);
        let mut on = Tracer::new(true, origin);
        let cell = tiny(ProtocolVariant::UncorqPref, Engine::Serial);
        let serial = run(&cell, &mut off, 0).unwrap();
        let par = run(&cell.on(Engine::Pdes2), &mut on, 1).unwrap();
        assert_eq!(serial.digest, par.digest);
        assert!(serial.report.stats.events > 0);
        assert!(off.spans().is_empty());
        let names: Vec<&str> = on.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["new", "run_parallel", "report"]);
        let ht = run(&tiny(ProtocolVariant::Eager, Engine::Ht), &mut off, 2).unwrap();
        assert_ne!(ht.digest, serial.digest);
        assert!(ht.new_s > 0.0 && ht.run_s > 0.0);
        assert_eq!(cell.label(), "uncorq+pref/16n/fmm/60ops");
    }
}
