//! Output checks that feed the `failed` count of every run.
//!
//! For any seed each workload checks that its outputs agree across the
//! paths that must produce the same bytes: repeated runs of a cell, the
//! serial and the two-worker engine, an interrupted run resumed from a
//! snapshot, and a `ringd` session against the same cell in process.
//! At seed 2007 the digests are also pinned to recorded values: the
//! 64-node grid of `results/BENCH_machine.json`, the HT baseline, and
//! the `ringd16` session spec. None of these checks is timed.

use ring_coherence::ProtocolVariant;
use ring_system::{Machine, RunProgress};

use crate::cells::{digest, Cell};

/// The seed the pins were recorded at.
pub const PIN_SEED: u64 = 2007;

/// Per-core operations of the pinned 64-node cells (the
/// `BENCH_machine.json` grid).
pub const PIN_OPS_64: u64 = 20_000;

/// 8×8 `fmm` at 20 000 ops per core, serial engine: the 64-node rows of
/// `results/BENCH_machine.json`.
pub const RING64_PINS: [(ProtocolVariant, u64); 5] = [
    (ProtocolVariant::Eager, 0x796b_472c_83de_9cb4),
    (ProtocolVariant::SupersetCon, 0x2ca9_7d4b_bf32_df9b),
    (ProtocolVariant::SupersetAgg, 0xa3b4_c3d9_e33b_6e46),
    (ProtocolVariant::Uncorq, 0xe4b1_2a91_bfbb_c628),
    (ProtocolVariant::UncorqPref, 0xd356_7620_42d4_d929),
];

/// `HtMachine` on `MachineConfig::paper(Eager)`, 8×8 `fmm`, 20 000 ops,
/// keyed by the variant of the configuration it runs on.
pub const HT64_PINS: [(ProtocolVariant, u64); 1] =
    [(ProtocolVariant::Eager, 0x838f_7453_63ec_da60)];

/// The `ringd16` session spec: 4×4 `SPECweb` at scale 3000.
pub const RINGD16_PINS: [(ProtocolVariant, u64); 5] = [
    (ProtocolVariant::Eager, 0xcaaa_ddfa_c13e_439e),
    (ProtocolVariant::SupersetCon, 0xf6bf_e236_1990_65f8),
    (ProtocolVariant::SupersetAgg, 0x3e46_ae59_5a28_8b9a),
    (ProtocolVariant::Uncorq, 0xda8e_3656_61f9_f843),
    (ProtocolVariant::UncorqPref, 0x8869_9d06_20f1_8d99),
];

/// One check per observed digest: it must equal its variant's pin.
pub fn pin_checks(
    what: &str,
    pins: &[(ProtocolVariant, u64)],
    observed: &[(ProtocolVariant, u64)],
) -> Vec<Result<(), String>> {
    observed
        .iter()
        .map(|&(v, got)| match pins.iter().find(|(p, _)| *p == v) {
            Some(&(_, want)) if want == got => Ok(()),
            Some(&(_, want)) => Err(format!(
                "{what} {v} at seed {PIN_SEED}: digest {got:016x}, pinned {want:016x}"
            )),
            None => Err(format!("{what} {v} has no pinned digest")),
        })
        .collect()
}

/// Runs `cell` to half its events, snapshots it to `dir`, restores the
/// snapshot into a fresh machine and runs that to the end. Returns the
/// resumed digest, which must equal the uninterrupted one.
pub fn resumed_digest(cell: &Cell, events: u64, dir: &std::path::Path) -> Result<u64, String> {
    let label = cell.label();
    let (cfg, profile) = (cell.config(), cell.profile());
    let mut m = Machine::new(cfg.clone(), &profile);
    match m.try_run_slice((events / 2).max(1)) {
        Ok(RunProgress::Yielded { .. }) => {}
        Ok(RunProgress::Done(_)) => return Err(format!("{label} finished before its midpoint")),
        Err(stall) => return Err(format!("{label} stalled: {stall}")),
    }
    let path = dir.join("resume-check.ringsnap");
    m.snapshot()
        .write_atomic(&path)
        .map_err(|e| format!("{label} snapshot: {e}"))?;
    let mut resumed =
        Machine::restore(cfg, &profile, &path).map_err(|e| format!("{label} restore: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let report = resumed
        .try_run()
        .map_err(|stall| format!("{label} stalled after restore: {stall}"))?;
    Ok(digest(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{run, Engine};
    use crate::spans::Tracer;

    #[test]
    fn a_wrong_pin_fails_its_check() {
        let observed: Vec<_> = RING64_PINS.to_vec();
        let checks = pin_checks("ring64", &RING64_PINS, &observed);
        assert!(checks.iter().all(Result::is_ok));
        let mut bad = observed.clone();
        bad[3].1 ^= 1;
        let failed: Vec<String> = pin_checks("ring64", &RING64_PINS, &bad)
            .into_iter()
            .filter_map(Result::err)
            .collect();
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].contains("ring64 uncorq at seed 2007"),
            "{}",
            failed[0]
        );
    }

    #[test]
    fn snapshot_resume_reproduces_the_digest() {
        let cell = Cell {
            variant: ProtocolVariant::Uncorq,
            engine: Engine::Serial,
            app: "fmm",
            width: 4,
            height: 4,
            ops: 80,
            seed: 11,
        };
        let mut tr = Tracer::new(false, std::time::Instant::now());
        let whole = run(&cell, &mut tr, 0).unwrap();
        let dir = std::env::temp_dir().join(format!("ringbench-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let resumed = resumed_digest(&cell, whole.report.stats.events, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.unwrap(), whole.digest);
    }
}
