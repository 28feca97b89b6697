//! Property-based crash-recovery tests: a snapshot taken at an
//! *arbitrary* cycle — including cycle 0 and past completion — must
//! resume byte-identically, for every protocol variant, on clean,
//! chaotic, and heavily lossy networks; and any single bit flip
//! anywhere in an encoded snapshot must be detected (no corrupted
//! restore is ever silently accepted).

use proptest::prelude::*;
use uncorq::coherence::ProtocolVariant;
use uncorq::noc::{FaultPlan, FaultProfile, ReliabilityConfig};
use uncorq::snapshot::SnapshotFile;
use uncorq::system::{Machine, MachineConfig, Report, RunProgress};
use uncorq::workloads::AppProfile;

/// The three network conditions a checkpoint must survive: a clean
/// network, the full chaos profile (jitter + reorder + duplication +
/// congestion), and 20% frame loss recovered by the reliable sublayer.
const CONDITIONS: [&str; 3] = ["clean", "chaos", "drop20"];

fn cfg_for(variant: ProtocolVariant, condition: &str, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::with_protocol(variant.config());
    cfg.width = 4;
    cfg.height = 4;
    cfg.seed = seed;
    if condition != "clean" {
        let fault = FaultProfile::by_name(condition).expect("built-in fault profile");
        cfg.faults = Some(FaultPlan::new(fault, 1));
        if fault.needs_reliability() {
            cfg.reliability = ReliabilityConfig::on();
        }
    }
    cfg
}

fn app() -> AppProfile {
    MachineConfig::default_workload()
        .expect("default workload")
        .scaled(150)
}

fn report_bytes(r: &Report) -> Vec<u8> {
    let mut v = Vec::new();
    r.write_stats(&mut v).expect("Vec write");
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A snapshot at an arbitrary point of the run — pinned to include
    /// cycle 0 (`frac = 0`) and past completion (`frac >= 100`) — must
    /// resume to a byte-identical final report under every protocol
    /// variant and network condition.
    #[test]
    fn snapshot_at_arbitrary_cycle_resumes_byte_identically(
        variant_ix in 0usize..ProtocolVariant::ALL.len(),
        condition_ix in 0usize..CONDITIONS.len(),
        frac in 0u64..111,
    ) {
        let variant = ProtocolVariant::ALL[variant_ix];
        let condition = CONDITIONS[condition_ix];
        let cfg = cfg_for(variant, condition, 2007);
        let profile = app();

        let want = match Machine::new(cfg.clone(), &profile).try_run() {
            Ok(r) => r,
            Err(stall) => panic!("{variant} {condition}: reference stalled:\n{stall}"),
        };
        prop_assert!(want.finished, "{} {}: reference hit the cap", variant, condition);

        // frac = 0 snapshots before the first event; frac >= 100 lets
        // the capped run finish, snapshotting the completed machine.
        let kill_at = want.exec_cycles * frac / 100;
        let mut capped = cfg.clone();
        if kill_at > 0 {
            capped.max_cycles = kill_at;
        }
        let mut m = Machine::new(capped, &profile);
        if kill_at > 0 {
            let _ = m.try_run();
        }
        let bytes = m.snapshot().encode();

        let file = match SnapshotFile::decode(&bytes) {
            Ok(f) => f,
            Err(e) => panic!("{variant} {condition}: decode failed: {e}"),
        };
        let mut m = match Machine::restore_file(cfg, &profile, &file, "mem:prop") {
            Ok(m) => m,
            Err(e) => panic!("{variant} {condition}: restore failed: {e}"),
        };
        let got = match m.try_run() {
            Ok(r) => r,
            Err(stall) => panic!("{variant} {condition}: resume stalled:\n{stall}"),
        };
        prop_assert_eq!(
            report_bytes(&want),
            report_bytes(&got),
            "{} {} frac={}: resumed report diverged",
            variant,
            condition,
            frac
        );
    }
}

/// A mid-run uncorq snapshot, encoded once for the bit-flip fuzz below.
fn fuzz_snapshot() -> &'static (MachineConfig, AppProfile, Vec<u8>) {
    static SNAP: std::sync::OnceLock<(MachineConfig, AppProfile, Vec<u8>)> =
        std::sync::OnceLock::new();
    SNAP.get_or_init(|| {
        let cfg = cfg_for(ProtocolVariant::Uncorq, "clean", 2007);
        let profile = app();
        let mut capped = cfg.clone();
        capped.max_cycles = 3_000;
        let mut m = Machine::new(capped, &profile);
        let _ = m.try_run();
        let bytes = m.snapshot().encode();
        (cfg, profile, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 100% corruption detection: flipping any single bit anywhere in an
    /// encoded machine snapshot — magic, header, section table, or any
    /// payload byte — must make the restore fail with a typed error. A
    /// corrupted snapshot is never silently accepted.
    #[test]
    fn any_bit_flip_is_detected(pos_seed in 0u64..u64::MAX, bit in 0u32..8) {
        let (cfg, profile, bytes) = fuzz_snapshot();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1u8 << bit;
        let restored = SnapshotFile::decode(&corrupt)
            .and_then(|f| Machine::restore_file(cfg.clone(), profile, &f, "mem:fuzz"));
        prop_assert!(
            restored.is_err(),
            "bit {} of byte {}/{} flipped and the restore still succeeded",
            bit,
            pos,
            bytes.len()
        );
    }
}

/// The fuzz above samples positions; the container boundaries are the
/// spots a sampler is most likely to miss, so pin them explicitly:
/// every byte of the magic/length/header prefix and the last 64 payload
/// bytes, each with two different flip masks.
#[test]
fn bit_flips_at_container_boundaries_are_detected() {
    let (cfg, profile, bytes) = fuzz_snapshot();
    let n = bytes.len();
    let mut positions: Vec<usize> = (0..64.min(n)).collect();
    positions.extend(n.saturating_sub(64)..n);
    for pos in positions {
        for mask in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= mask;
            let restored = SnapshotFile::decode(&corrupt)
                .and_then(|f| Machine::restore_file(cfg.clone(), profile, &f, "mem:edge"));
            assert!(
                restored.is_err(),
                "byte {pos}/{n} ^ {mask:#04x} went undetected"
            );
        }
    }
}

/// The `ringd` session cell: 4×4 SPECweb at scale 3 000, seed 2007.
fn specweb() -> AppProfile {
    AppProfile::by_name("SPECweb")
        .expect("SPECweb profile")
        .scaled(3_000)
}

/// A machine of `cfg` paused at half the events of its full run.
fn paused_mid_run(cfg: &MachineConfig, profile: &AppProfile) -> Machine {
    let events = Machine::new(cfg.clone(), profile)
        .try_run()
        .expect("reference run")
        .stats
        .events;
    let mut m = Machine::new(cfg.clone(), profile);
    assert!(
        matches!(m.try_run_slice(events / 2), Ok(RunProgress::Yielded { .. })),
        "the run must pause at its midpoint"
    );
    m
}

/// Compact sections are lossless: restoring a mid-run snapshot and
/// snapshotting again reproduces the original image byte for byte, for
/// every variant, on a clean network and on drop20 with the reliable
/// sublayer.
#[test]
fn restore_then_snapshot_reproduces_the_image() {
    let profile = specweb();
    for condition in ["clean", "drop20"] {
        for variant in ProtocolVariant::ALL {
            let cfg = cfg_for(variant, condition, 2007);
            let bytes = paused_mid_run(&cfg, &profile).snapshot().encode();
            let file = SnapshotFile::decode(&bytes).expect("decode");
            let restored =
                Machine::restore_file(cfg, &profile, &file, "mem:image").expect("restore");
            assert!(
                restored.snapshot().encode() == bytes,
                "{variant} {condition}: re-snapshot differs from the restored image"
            );
        }
    }
}

/// A size pin: the mid-run snapshots of the uncorq and uncorq+pref
/// session cells store live state only. Dense cache and predictor
/// tables made uncorq's 2.8 MB; stale prefetch-predictor queue entries
/// and their stamps made uncorq+pref's 2.2 MB.
#[test]
fn mid_run_snapshot_stays_compact() {
    for (variant, bound) in [
        (ProtocolVariant::Uncorq, 512 * 1024),
        (ProtocolVariant::UncorqPref, 1280 * 1024),
    ] {
        let cfg = cfg_for(variant, "clean", 2007);
        let bytes = paused_mid_run(&cfg, &specweb()).snapshot().encode();
        assert!(
            bytes.len() < bound,
            "{variant} 4x4 SPECweb mid-run snapshot is {} bytes",
            bytes.len()
        );
    }
}

/// Retention bound (`--checkpoint-keep` / `set_checkpoint_retention`):
/// the directory holds at most K snapshots, the one pruning keeps is
/// always the **newest** (the only valid resume point after a crash at
/// the end of the run), and resuming from the pruned directory is still
/// byte-identical to the uninterrupted run.
#[test]
fn retention_prunes_oldest_but_never_the_newest() {
    use uncorq::system::{list_checkpoints, restore_latest};

    let dir = std::env::temp_dir().join(format!("uncorq-keep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let cfg = cfg_for(ProtocolVariant::Uncorq, "clean", 2007);
    let profile = app();
    let want = Machine::new(cfg.clone(), &profile)
        .try_run()
        .expect("reference run");

    const KEEP: usize = 3;
    let cadence = want.exec_cycles / 8; // ~8 checkpoints: pruning must engage
    let mut m = Machine::new(cfg.clone(), &profile);
    m.enable_checkpoints(cadence, &dir);
    m.set_checkpoint_retention(KEEP);
    let got = m.try_run().expect("checkpointed run");
    assert_eq!(
        report_bytes(&want),
        report_bytes(&got),
        "checkpointing perturbed the run"
    );

    let mut kept: Vec<String> = list_checkpoints(&dir)
        .iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
        .collect();
    kept.sort();
    assert!(
        kept.len() <= KEEP && !kept.is_empty(),
        "retention bound violated: {} snapshots with keep={KEEP}",
        kept.len()
    );

    // Determinism makes the unbounded run write the *same* snapshot
    // filenames, so the kept set must be exactly the newest KEEP of
    // them — pruning removed the oldest and never the newest.
    let unbounded = dir.join("unbounded");
    std::fs::create_dir_all(&unbounded).expect("mkdir unbounded");
    let mut m = Machine::new(cfg.clone(), &profile);
    m.enable_checkpoints(cadence, &unbounded);
    let _ = m.try_run().expect("unbounded checkpointed run");
    let mut all: Vec<String> = list_checkpoints(&unbounded)
        .iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
        .collect();
    all.sort();
    assert!(
        all.len() > KEEP,
        "cadence too coarse to exercise pruning ({} snapshots)",
        all.len()
    );
    assert_eq!(
        kept,
        all[all.len() - kept.len()..],
        "pruning must keep exactly the newest snapshots"
    );

    // The pruned directory is still a valid crash-recovery source.
    let (mut resumed, _) = restore_latest(&cfg, &profile, &dir).expect("restore from pruned dir");
    let rep = resumed.try_run().expect("resume");
    assert_eq!(
        report_bytes(&want),
        report_bytes(&rep),
        "resume from pruned dir diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uncorq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Every file name in `dir`, sorted.
fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Checkpoint images are written behind the run. "All written" means:
/// the directory holds exactly the `want` files (no `.tmp` among them),
/// at most `keep` of them, and the newest restores to a machine whose
/// own snapshot is that file byte for byte.
fn assert_durable(
    dir: &std::path::Path,
    want: &[String],
    cfg: &MachineConfig,
    profile: &AppProfile,
    keep: usize,
) {
    let names = file_names(dir);
    assert_eq!(names, want, "the checkpoint trail is incomplete");
    assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
    let trail = uncorq::system::list_checkpoints(dir);
    assert!(!trail.is_empty() && trail.len() <= keep, "{trail:?}");
    let bytes = std::fs::read(&trail[0]).expect("newest checkpoint");
    let restored = Machine::restore(cfg.clone(), profile, &trail[0]).expect("newest restores");
    assert!(
        restored.snapshot().encode() == bytes,
        "{} does not restore byte-identically",
        trail[0].display()
    );
}

/// Write-behind keeps the durability contract: when a run returns
/// `Done` or a stall, when `checkpoint_now` returns, and when a machine
/// is dropped mid-run, every periodic checkpoint it took is on disk.
///
/// Each case is checked the moment it returns, against the trail of a
/// second, identical run that was then made to wait for its writer
/// (`checkpoint_now` into another directory). Uncorq+Pref images are
/// megabytes, so a writer still busy at that moment would show.
#[test]
fn write_behind_checkpoints_are_durable_at_every_exit() {
    const KEEP: usize = 3;
    let profile = app();
    let base = scratch_dir("write-behind");
    let cfg = cfg_for(ProtocolVariant::UncorqPref, "clean", 2007);
    let full = Machine::new(cfg.clone(), &profile)
        .try_run()
        .expect("reference run");
    let mut stalling = cfg.clone();
    stalling.watchdog_cycles = 50;

    // (case, config, cadence, what the case does to a fresh machine)
    type Case = fn(&mut Machine, &std::path::Path, u64);
    let cases: [(&str, &MachineConfig, u64, Case); 4] = [
        ("done", &cfg, full.exec_cycles / 8, |m, _, _| {
            assert!(m.try_run().expect("no stall").finished);
        }),
        // A watchdog below the memory round trip trips on the first
        // cold read, after a few 10-cycle checkpoints.
        ("stall", &stalling, 10, |m, _, _| {
            assert!(m.try_run().is_err(), "the watchdog must trip");
        }),
        ("now", &cfg, full.exec_cycles / 8, |m, dir, events| {
            assert!(matches!(
                m.try_run_slice(events / 2),
                Ok(RunProgress::Yielded { .. })
            ));
            let path = m.checkpoint_now(dir).expect("on-demand snapshot");
            assert_eq!(uncorq::system::list_checkpoints(dir)[0], path);
        }),
        ("drop", &cfg, full.exec_cycles / 8, |m, _, events| {
            assert!(matches!(
                m.try_run_slice(events * 3 / 4),
                Ok(RunProgress::Yielded { .. })
            ));
        }),
    ];
    for (case, cfg, every, act) in cases {
        let checkpointed = |dir: &std::path::Path| {
            std::fs::create_dir_all(dir).expect("mkdir");
            let mut m = Machine::new(cfg.clone(), &profile);
            m.enable_checkpoints(every, dir);
            m.set_checkpoint_retention(KEEP);
            m
        };
        let (got, reference) = (base.join(case), base.join(format!("{case}-ref")));
        let mut m = checkpointed(&reference);
        act(&mut m, &reference, full.stats.events);
        let wait = base.join(format!("{case}-wait"));
        std::fs::create_dir_all(&wait).expect("mkdir");
        m.checkpoint_now(&wait).expect("waiting snapshot");
        let want = file_names(&reference);

        let mut m = checkpointed(&got);
        act(&mut m, &got, full.stats.events);
        if case == "drop" {
            drop(m);
            assert_durable(&got, &want, cfg, &profile, KEEP);
        } else {
            assert_durable(&got, &want, cfg, &profile, KEEP);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The body of [`failed_periodic_write_logs_and_prunes_nothing`], run
/// in a child process so its stderr can be read: mid-run, the
/// checkpoint directory is moved aside and a regular file put in its
/// place, so every later periodic write fails.
#[test]
#[ignore = "run in a child process by failed_periodic_write_logs_and_prunes_nothing"]
fn failed_periodic_write_scenario() {
    const KEEP: usize = 2;
    let profile = app();
    let cfg = cfg_for(ProtocolVariant::Uncorq, "clean", 2007);
    let want = Machine::new(cfg.clone(), &profile)
        .try_run()
        .expect("reference run");
    let base = scratch_dir("wb-fail");
    let (dir, aside) = (base.join("ckpts"), base.join("aside"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut m = Machine::new(cfg.clone(), &profile);
    m.enable_checkpoints(want.exec_cycles / 8, &dir);
    m.set_checkpoint_retention(KEEP);
    assert!(matches!(
        m.try_run_slice(want.stats.events / 2),
        Ok(RunProgress::Yielded { .. })
    ));
    m.checkpoint_now(&dir).expect("on-demand snapshot");
    let before = uncorq::system::list_checkpoints(&dir);
    assert_eq!(before.len(), KEEP);

    std::fs::rename(&dir, &aside).expect("move the directory aside");
    std::fs::write(&dir, b"not a directory").expect("regular file");
    let got = m.try_run().expect("failed writes never stop the run");
    assert_eq!(report_bytes(&want), report_bytes(&got));
    std::fs::remove_file(&dir).expect("remove the regular file");
    std::fs::rename(&aside, &dir).expect("move the directory back");
    let after = uncorq::system::list_checkpoints(&dir);
    assert_eq!(before, after, "a failed write pruned the trail");
    let names = file_names(&dir);
    assert_durable(&dir, &names, &cfg, &profile, KEEP);
    let _ = std::fs::remove_dir_all(&base);
}

/// A periodic write that fails is logged with its cycle and prunes
/// nothing; the run goes on.
#[test]
fn failed_periodic_write_logs_and_prunes_nothing() {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--ignored",
            "--exact",
            "failed_periodic_write_scenario",
            "--nocapture",
        ])
        .output()
        .expect("run the scenario");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "scenario failed:\n{}\n{stderr}",
        String::from_utf8_lossy(&out.stdout)
    );
    let failed = stderr
        .lines()
        .filter(|l| l.starts_with("checkpoint at cycle ") && l.contains(" failed: "))
        .count();
    assert!(failed > 0, "no failed write was logged:\n{stderr}");
}
