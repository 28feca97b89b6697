//! Checkpoint-directory management: discovery, newest-valid selection,
//! and automatic fallback past corrupted snapshots.
//!
//! A checkpointed run leaves a trail of `ckpt-<cycle>.ringsnap` files
//! (see [`crate::Machine::enable_checkpoints`]). After a crash,
//! [`restore_latest`] walks them newest-first and resumes from the first
//! one that passes full integrity verification — a torn or bit-flipped
//! newest checkpoint costs the work since the previous one, never
//! correctness.
//!
//! Periodic checkpoints are written behind the run by a [`Writer`]: the
//! simulation thread builds each image at its exact cycle and hands it
//! over; the writer thread writes, syncs, renames and prunes.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{SendError, SyncSender};
use std::thread::JoinHandle;

use ring_coherence::ProtocolKind;
use ring_snapshot::{FnvHasher, SnapshotBuilder, SnapshotError};
use ring_workloads::AppProfile;

use crate::config::MachineConfig;
use crate::machine::Machine;

/// Hash of the parts of the machine configuration that shape snapshot
/// state, bound into every snapshot header so a restore into a
/// differently configured machine is refused.
///
/// Every field is folded explicitly (see [`ring_snapshot::FnvHasher`])
/// instead of hashing `Debug` output, so the value cannot drift with a
/// `derive(Debug)` formatting change or a field rename, and a field
/// *reorder* changes it only if the reorder is mirrored here — where
/// review sees it next to the pinned-value regression test.
///
/// `max_cycles` is excluded: it caps a run without altering the machine,
/// and resuming a capped ("killed") run with the cap lifted is the whole
/// point of crash recovery.
pub fn config_hash(cfg: &MachineConfig) -> u64 {
    let mut h = FnvHasher::new();
    h.push_usize(cfg.width);
    h.push_usize(cfg.height);
    // ProtocolConfig, field by field.
    h.push_u64(match cfg.protocol.kind {
        ProtocolKind::Eager => 0,
        ProtocolKind::SupersetCon => 1,
        ProtocolKind::SupersetAgg => 2,
        ProtocolKind::Uncorq => 3,
    });
    h.push_bool(cfg.protocol.prefetch);
    h.push_u64(cfg.protocol.snoop_latency);
    h.push_u64(cfg.protocol.filter_latency);
    h.push_usize(cfg.protocol.ltt.entries);
    h.push_usize(cfg.protocol.ltt.ways);
    h.push_usize(cfg.protocol.max_outstanding);
    h.push_u64(cfg.protocol.retry_backoff);
    h.push_u64(u64::from(cfg.protocol.starvation_threshold));
    h.push_u64(cfg.protocol.reservation_cycles);
    h.push_usize(cfg.protocol.npp_entries);
    h.push_bool(cfg.protocol.winner_node_id_only);
    h.push_bool(cfg.protocol.reads_keep_supplier);
    // NetworkConfig.
    h.push_u64(cfg.net.hop_cycles);
    h.push_u64(cfg.net.link_bytes_per_cycle);
    h.push_bool(cfg.net.model_contention);
    // L1/L2 cache geometry.
    for cache in [&cfg.l1, &cfg.l2] {
        h.push_u64(cache.size_bytes);
        h.push_usize(cache.ways);
        h.push_u64(cache.line_bytes);
        h.push_u64(cache.latency);
    }
    // MemConfig.
    h.push_u64(cfg.mem.round_trip);
    h.push_u64(cfg.mem.page_bytes);
    h.push_u64(cfg.mem.line_bytes);
    h.push_usize(cfg.mem.max_in_flight);
    h.push_usize(cfg.store_buffer);
    h.push_u64(cfg.seed);
    h.push_bool(cfg.ring_row_major);
    h.push_bool(cfg.dual_rings);
    h.push_u64(cfg.core_slice);
    h.push_u64(cfg.prefetch_hold);
    // max_cycles deliberately not hashed.
    h.push_bool(cfg.check_invariants);
    h.push_usize(cfg.trace_lines.len());
    for &line in &cfg.trace_lines {
        h.push_u64(line);
    }
    match &cfg.faults {
        None => h.push_bool(false),
        Some(plan) => {
            h.push_bool(true);
            h.push_f64(plan.profile.jitter_prob);
            h.push_u64(plan.profile.jitter_max);
            h.push_f64(plan.profile.reorder_prob);
            h.push_u64(plan.profile.reorder_max);
            h.push_f64(plan.profile.duplicate_prob);
            h.push_u64(plan.profile.duplicate_delay_max);
            h.push_f64(plan.profile.congestion_prob);
            h.push_u64(plan.profile.congestion_cycles);
            h.push_f64(plan.profile.drop_prob);
            h.push_u64(plan.profile.outage_period);
            h.push_u64(plan.profile.outage_len);
            h.push_u64(plan.seed);
        }
    }
    h.push_u64(cfg.watchdog_cycles);
    // ReliabilityConfig.
    h.push_bool(cfg.reliability.enabled);
    h.push_usize(cfg.reliability.window);
    h.push_u64(cfg.reliability.base_rto);
    h.push_u64(cfg.reliability.max_rto);
    h.push_u64(cfg.reliability.rto_jitter);
    h.push_u64(cfg.reliability.ack_coalesce);
    h.push_u64(u64::from(cfg.reliability.max_retries));
    h.finish()
}

/// Fingerprint of a workload profile, bound into every snapshot so a
/// restore against a different workload fails with a typed error
/// instead of silently diverging (the op streams are rebuilt from the
/// profile at restore and fast-forwarded to their snapshotted
/// positions). Field-wise, like [`config_hash`].
pub fn workload_fingerprint(profile: &AppProfile) -> u64 {
    let mut h = FnvHasher::new();
    h.push_str(&profile.name);
    h.push_u64(profile.ops_per_core);
    h.push_f64(profile.compute_mean);
    h.push_f64(profile.shared_migratory);
    h.push_f64(profile.shared_read_mostly);
    h.push_f64(profile.shared_producer_consumer);
    h.push_u64(profile.pc_lines_per_core);
    h.push_u64(profile.shared_lines);
    h.push_f64(profile.private_miss_rate);
    h.push_f64(profile.private_write_fraction);
    h.push_u64(profile.private_lines);
    h.push_u64(profile.fence_every);
    h.push_f64(profile.read_mostly_write_fraction);
    h.finish()
}

/// Parses the cycle out of a `ckpt-<cycle>` checkpoint file stem.
/// Anything else — a stray `notes` stem, a multi-dash `ckpt-old-500`,
/// an empty or non-numeric cycle — is not a checkpoint name and yields
/// `None`.
fn checkpoint_cycle(stem: &str) -> Option<u64> {
    let digits = stem.strip_prefix("ckpt-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse::<u64>().ok()
}

/// Checkpoint files (`ckpt-<cycle>.ringsnap`) in `dir`, newest first —
/// ordered by the cycle embedded in the file name. Files that do not
/// match that shape (a stray `notes.ringsnap`, a multi-dash
/// `ckpt-old-500.ringsnap`) are not checkpoints and are skipped rather
/// than offered to [`restore_latest`] as doomed candidates. Missing or
/// unreadable directories yield an empty list.
pub fn list_checkpoints(dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(u64, PathBuf)> = rd
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|s| s.to_str()) == Some("ringsnap"))
        .filter_map(|p| {
            let cycle = p
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(checkpoint_cycle)?;
            Some((cycle, p))
        })
        .collect();
    found.sort();
    found.reverse();
    found.into_iter().map(|(_, p)| p).collect()
}

/// Prunes the checkpoint trail in `dir` down to its newest `keep`
/// snapshots, removing the oldest first. Only files matching the
/// `ckpt-<cycle>.ringsnap` shape are candidates — stray files are never
/// touched — and the newest checkpoint is never removed (`keep == 0` is
/// treated as `keep == 1` rather than deleting the only restore
/// candidate). Returns the paths removed; removal failures are reported
/// on stderr and skipped (a busy file must not kill the run the trail
/// protects).
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Vec<PathBuf> {
    let keep = keep.max(1);
    let mut removed = Vec::new();
    // `list_checkpoints` orders newest first, so everything past the
    // first `keep` entries is prunable, oldest last in the list.
    for path in list_checkpoints(dir).into_iter().skip(keep) {
        match std::fs::remove_file(&path) {
            Ok(()) => removed.push(path),
            Err(e) => eprintln!("checkpoint prune of {} failed: {e}", path.display()),
        }
    }
    removed
}

/// Restores from the newest valid checkpoint in `dir`, automatically
/// falling back to older ones when a candidate fails verification
/// (truncation, bit flips, config mismatch — each rejection is reported
/// on stderr with its typed [`SnapshotError`], naming the damaged
/// section where applicable). Returns the machine and the path it
/// resumed from, or [`SnapshotError::NoValidCheckpoint`] when every
/// candidate is unusable.
pub fn restore_latest(
    cfg: &MachineConfig,
    profile: &AppProfile,
    dir: &Path,
) -> Result<(Machine, PathBuf), SnapshotError> {
    for path in list_checkpoints(dir) {
        match Machine::restore(cfg.clone(), profile, &path) {
            Ok(m) => return Ok((m, path)),
            Err(e) => eprintln!(
                "checkpoint {} rejected ({e}); falling back to an older one",
                path.display()
            ),
        }
    }
    Err(SnapshotError::NoValidCheckpoint {
        dir: dir.display().to_string(),
    })
}

/// One periodic checkpoint: the image, built at its exact cycle, and
/// where it goes.
struct Job {
    image: SnapshotBuilder,
    path: PathBuf,
    keep: usize,
}

/// What the simulation thread sends the writer thread.
enum Msg {
    Write(Job),
    /// No work: received only once every earlier job is done.
    Barrier,
}

/// Writes one checkpoint atomically, then applies the retention bound.
/// Pruning follows only a *successful* write: a failed write must never
/// shrink the set of restore candidates.
fn write_job(job: Job) {
    match job.image.write_atomic(&job.path) {
        Ok(()) => {
            if job.keep > 0 {
                if let Some(dir) = job.path.parent() {
                    prune_checkpoints(dir, job.keep);
                }
            }
        }
        Err(e) => eprintln!(
            "checkpoint at cycle {} failed: {e}",
            job.image.header().cycle
        ),
    }
}

/// A machine's write-behind checkpoint writer: one thread, started by
/// the first image, that writes images in the order they were built.
///
/// Images travel over a zero-capacity (rendezvous) channel, and the
/// thread takes the next one only after finishing the previous, so at
/// most one image is in flight. [`Writer::wait_idle`] returns once
/// every image handed over is durable; dropping the writer does the
/// same and joins the thread, so a machine that is dropped — killed,
/// or unwinding from a panic — leaves its directory fully written.
#[derive(Default)]
pub(crate) struct Writer {
    tx: Option<SyncSender<Msg>>,
    thread: Option<JoinHandle<()>>,
}

impl Writer {
    /// Hands `image` over to be written to `path`, then pruned to the
    /// newest `keep` checkpoints (`0` = unbounded). Blocks while the
    /// previous image is still being written.
    pub(crate) fn submit(&mut self, image: SnapshotBuilder, path: PathBuf, keep: usize) {
        let tx = self.tx.get_or_insert_with(|| {
            let (tx, rx) = std::sync::mpsc::sync_channel(0);
            self.thread = Some(std::thread::spawn(move || {
                for msg in rx {
                    if let Msg::Write(job) = msg {
                        write_job(job);
                    }
                }
            }));
            tx
        });
        let job = Job { image, path, keep };
        // The writer thread is gone only if it panicked: write inline.
        if let Err(SendError(Msg::Write(job))) = tx.send(Msg::Write(job)) {
            write_job(job);
        }
    }

    /// Blocks until every image handed over so far is written, synced,
    /// renamed and pruned.
    pub(crate) fn wait_idle(&self) {
        if let Some(tx) = &self.tx {
            // The thread receives again only after finishing its job.
            let _ = tx.send(Msg::Barrier);
        }
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        // Closing the channel ends the thread after its last job.
        self.tx = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_coherence::ProtocolKind;

    fn profile() -> AppProfile {
        MachineConfig::default_workload().unwrap().scaled(50)
    }

    const PINNED_SMALL_UNCORQ: u64 = 0x4592_d5b6_cd7b_ea19;
    const PINNED_PAPER_UNCORQ_PREF: u64 = 0x4746_2c68_a6f2_3b28;
    const PINNED_FMM_FINGERPRINT: u64 = 0xd965_be1e_2a0f_c873;

    #[test]
    fn config_hash_ignores_max_cycles_only() {
        let a = MachineConfig::small_test(ProtocolKind::Uncorq);
        let mut b = a.clone();
        b.max_cycles = 12345;
        assert_eq!(config_hash(&a), config_hash(&b));
        let mut c = a.clone();
        c.seed ^= 1;
        assert_ne!(config_hash(&a), config_hash(&c));
    }

    #[test]
    fn workload_fingerprint_distinguishes_profiles() {
        let a = profile();
        let b = profile().scaled(51);
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&b));
        assert_eq!(workload_fingerprint(&a), workload_fingerprint(&profile()));
    }

    /// Pins the field-wise hash values. If a config or profile field is
    /// added, removed, or reordered, this fails in review — update the
    /// constants *deliberately*, knowing every existing snapshot becomes
    /// unrestorable against the new build.
    #[test]
    fn config_hash_values_are_pinned() {
        assert_eq!(
            config_hash(&MachineConfig::small_test(ProtocolKind::Uncorq)),
            PINNED_SMALL_UNCORQ
        );
        assert_eq!(
            config_hash(&MachineConfig::paper_uncorq_pref()),
            PINNED_PAPER_UNCORQ_PREF
        );
        assert_eq!(
            workload_fingerprint(&MachineConfig::default_workload().unwrap()),
            PINNED_FMM_FINGERPRINT
        );
    }

    #[test]
    fn config_hash_sees_every_subsystem() {
        let base = MachineConfig::small_test(ProtocolKind::Uncorq);
        let mutations: Vec<MachineConfig> = vec![
            {
                let mut c = base.clone();
                c.protocol.snoop_latency += 1;
                c
            },
            {
                let mut c = base.clone();
                c.net.model_contention = !c.net.model_contention;
                c
            },
            {
                let mut c = base.clone();
                c.l2.ways *= 2;
                c
            },
            {
                let mut c = base.clone();
                c.mem.round_trip += 1;
                c
            },
            {
                let mut c = base.clone();
                c.trace_lines = vec![7];
                c
            },
            {
                let mut c = base.clone();
                c.faults = Some(ring_noc::FaultPlan::new(ring_noc::FaultProfile::chaos(), 1));
                c
            },
            {
                let mut c = base.clone();
                c.reliability = ring_noc::ReliabilityConfig::on();
                c
            },
        ];
        let h0 = config_hash(&base);
        for m in &mutations {
            assert_ne!(config_hash(m), h0, "mutation not seen: {m:?}");
        }
    }

    #[test]
    fn checkpoint_cycle_requires_exact_shape() {
        assert_eq!(checkpoint_cycle("ckpt-000000000500"), Some(500));
        assert_eq!(checkpoint_cycle("ckpt-0"), Some(0));
        assert_eq!(checkpoint_cycle("notes"), None);
        assert_eq!(checkpoint_cycle("ckpt-"), None);
        assert_eq!(checkpoint_cycle("ckpt-old-500"), None);
        assert_eq!(checkpoint_cycle("ckpt-12x"), None);
        assert_eq!(checkpoint_cycle("backup-ckpt-12"), None);
    }

    #[test]
    fn stray_files_are_not_checkpoint_candidates() {
        let dir = std::env::temp_dir().join("ring-ckpt-stray-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A stray .ringsnap that is not a checkpoint, and a multi-dash
        // stem that the old rsplit('-') parse would have read as 500.
        std::fs::write(dir.join("notes.ringsnap"), b"junk").unwrap();
        std::fs::write(dir.join("ckpt-old-500.ringsnap"), b"junk").unwrap();
        std::fs::write(dir.join("ckpt-000000000042.ringsnap"), b"x").unwrap();
        let names: Vec<String> = list_checkpoints(&dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["ckpt-000000000042.ringsnap"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_checkpoints_orders_newest_first() {
        let dir = std::env::temp_dir().join("ring-ckpt-list-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for c in [5u64, 500, 50] {
            std::fs::write(dir.join(format!("ckpt-{c:012}.ringsnap")), b"x").unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let names: Vec<String> = list_checkpoints(&dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "ckpt-000000000500.ringsnap",
                "ckpt-000000000050.ringsnap",
                "ckpt-000000000005.ringsnap"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest_and_ignores_strays() {
        let dir = std::env::temp_dir().join("ring-ckpt-prune-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for c in [5u64, 50, 500, 5000] {
            std::fs::write(dir.join(format!("ckpt-{c:012}.ringsnap")), b"x").unwrap();
        }
        std::fs::write(dir.join("notes.ringsnap"), b"stray").unwrap();
        let removed = prune_checkpoints(&dir, 2);
        let names: Vec<String> = list_checkpoints(&dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["ckpt-000000005000.ringsnap", "ckpt-000000000500.ringsnap"]
        );
        assert_eq!(removed.len(), 2);
        assert!(dir.join("notes.ringsnap").exists(), "strays must survive");
        // keep == 0 must not delete the only restore candidate.
        let removed = prune_checkpoints(&dir, 0);
        assert_eq!(removed.len(), 1);
        assert!(dir.join("ckpt-000000005000.ringsnap").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The retention bound applied during a real checkpointed run never
    /// removes the newest snapshot, and that snapshot stays a valid
    /// restore candidate.
    #[test]
    fn retention_during_run_preserves_newest_valid_snapshot() {
        let dir = std::env::temp_dir().join("ring-ckpt-retention-run-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        let app = profile();
        let mut m = Machine::new(cfg.clone(), &app);
        m.enable_checkpoints(500, &dir);
        m.set_checkpoint_retention(2);
        let report = m.run();
        assert!(report.finished);
        let cks = list_checkpoints(&dir);
        assert!(
            !cks.is_empty() && cks.len() <= 2,
            "retention bound violated: {} checkpoints",
            cks.len()
        );
        // The newest survivor restores and resumes to the same report.
        let (mut resumed, used) = restore_latest(&cfg, &app, &dir).expect("newest must be valid");
        assert_eq!(&used, &cks[0], "restore must pick the newest");
        let r2 = resumed.run();
        assert!(r2.finished);
        assert_eq!(r2.exec_cycles, report.exec_cycles);
        assert_eq!(r2.stats.ops_retired, report.stats.ops_retired);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_reports_no_valid_checkpoint() {
        let dir = std::env::temp_dir().join("ring-ckpt-empty-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        let err = match restore_latest(&cfg, &profile(), &dir) {
            Ok(_) => panic!("empty dir must not restore"),
            Err(e) => e,
        };
        assert!(
            matches!(err, SnapshotError::NoValidCheckpoint { .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
