//! Determinism proof for the conservative-PDES parallel engine.
//!
//! The contract under test: for every protocol variant, fault scenario,
//! worker count, and node→LP partition shape, [`Machine::try_run_parallel`]
//! produces a run that is **byte-identical** to [`Machine::try_run`] —
//! same full stats listing, same complete trace-event stream, same queue
//! high-water mark — and checkpoints taken mid-run under the parallel
//! engine restore and resume to the same bytes.

use proptest::prelude::*;
use ring_coherence::ProtocolVariant;
use ring_noc::{FaultPlan, FaultProfile, ReliabilityConfig};
use ring_system::{restore_latest, Machine, MachineConfig, Partition};
use ring_trace::DigestSink;
use ring_workloads::AppProfile;

/// Fault scenarios the engines must agree under: a clean network, the
/// chaos fault profile, and 20% frame drops with the reliability
/// sublayer recovering them (the scenario with zero-delay feedback
/// events, the hardest case for round batching).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    Clean,
    Chaos,
    Drop20,
}

const SCENARIOS: [Scenario; 3] = [Scenario::Clean, Scenario::Chaos, Scenario::Drop20];

fn cell_cfg(variant: ProtocolVariant, scenario: Scenario, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::with_protocol(variant.config());
    cfg.width = 4;
    cfg.height = 4;
    cfg.max_cycles = 50_000_000;
    cfg.watchdog_cycles = 2_000_000;
    cfg.seed = seed;
    match scenario {
        Scenario::Clean => {}
        Scenario::Chaos => {
            cfg.faults = Some(FaultPlan::new(FaultProfile::chaos(), 42));
        }
        Scenario::Drop20 => {
            cfg.faults = Some(FaultPlan::new(FaultProfile::drop_rate(0.20), 42));
            cfg.reliability = ReliabilityConfig::on();
        }
    }
    cfg
}

fn profile(ops: u64) -> AppProfile {
    AppProfile::by_name("fmm").expect("fmm profile").scaled(ops)
}

/// Everything observable about one run: the full stats listing, the
/// trace-stream digest and event count, and the queue high-water mark.
#[derive(Debug, PartialEq)]
struct RunPrint {
    stats: Vec<u8>,
    trace: (u64, u64),
    peak_queue: usize,
}

/// Runs a machine to completion and fingerprints it. `threads <= 1`
/// uses the serial engine directly; otherwise the parallel engine with
/// the given partition (contiguous arcs if `None`).
fn fingerprint(
    cfg: MachineConfig,
    profile: &AppProfile,
    threads: usize,
    partition: Option<Partition>,
) -> RunPrint {
    let mut m = Machine::new(cfg, profile);
    if let Some(p) = partition {
        m.set_partition(p);
    }
    let sink = DigestSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let r = if threads <= 1 {
        m.try_run()
    } else {
        m.try_run_parallel(threads)
    }
    .unwrap_or_else(|stall| panic!("stalled at {threads} threads:\n{stall}"));
    assert!(r.finished, "hit the cycle cap at {threads} threads");
    let mut stats = Vec::new();
    r.write_stats(&mut stats).expect("Vec write cannot fail");
    RunPrint {
        stats,
        trace: sink.digest(),
        peak_queue: m.queue_peak(),
    }
}

/// Every protocol variant × every fault scenario, serial vs 2 and 4
/// total threads with the default contiguous partition.
#[test]
fn parallel_matches_serial_across_variants_and_scenarios() {
    let profile = profile(120);
    for variant in ProtocolVariant::ALL {
        for scenario in SCENARIOS {
            let cfg = cell_cfg(variant, scenario, 2007);
            let serial = fingerprint(cfg.clone(), &profile, 1, None);
            for threads in [2, 4] {
                let par = fingerprint(cfg.clone(), &profile, threads, None);
                assert_eq!(
                    par, serial,
                    "{variant} {scenario:?}: {threads}-thread run diverged from serial"
                );
            }
        }
    }
}

/// `try_run_parallel(1)` must *be* the serial engine (same code path,
/// zero cost), not merely agree with it.
#[test]
fn one_thread_is_the_serial_engine() {
    let profile = profile(120);
    let cfg = cell_cfg(ProtocolVariant::UncorqPref, Scenario::Drop20, 2007);
    let serial = fingerprint(cfg.clone(), &profile, 1, None);
    let one = fingerprint(cfg, &profile, 0, None); // threads=0 also delegates
    assert_eq!(one, serial);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adversarial partition shapes: random (dense) node→LP maps must
    /// not change a single observable byte, for any variant, scenario,
    /// or worker count. The first `lps` nodes are pinned `i % lps` to
    /// keep the map dense, the rest are random — scattered,
    /// unbalanced, non-contiguous.
    #[test]
    fn random_partitions_are_unobservable(
        variant_i in 0usize..5,
        scenario_i in 0usize..3,
        lps in 2usize..5,
        raw_map in proptest::collection::vec(0usize..4, 16),
        seed in 1u64..1000,
    ) {
        let variant = ProtocolVariant::ALL[variant_i];
        let scenario = SCENARIOS[scenario_i];
        let mut map = raw_map;
        for (i, lp) in map.iter_mut().enumerate() {
            if i < lps {
                *lp = i % lps;
            } else {
                *lp %= lps;
            }
        }
        let part = Partition::from_map(map);
        let threads = part.lps() + 1;
        let profile = profile(60);
        let cfg = cell_cfg(variant, scenario, seed);
        let serial = fingerprint(cfg.clone(), &profile, 1, None);
        let par = fingerprint(cfg, &profile, threads, Some(part.clone()));
        prop_assert_eq!(
            &par,
            &serial,
            "{} {:?} seed {} partition {:?} diverged",
            variant,
            scenario,
            seed,
            part
        );
    }
}

/// Throughput probe (run with `--release -- --ignored --nocapture`):
/// the paper-scale 64-node uncorq+pref cell, serial vs 2 and 4 total
/// threads.
#[test]
#[ignore = "release-mode throughput probe, run explicitly"]
fn speedup_probe() {
    let mut cfg = MachineConfig::paper_uncorq_pref();
    cfg.seed = 2007;
    let profile = profile(150);
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4] {
        let mut m = Machine::new(cfg.clone(), &profile);
        let start = std::time::Instant::now();
        let r = m.try_run_parallel(threads).expect("no stall");
        let dt = start.elapsed().as_secs_f64();
        assert!(r.finished);
        let evs = r.stats.events as f64;
        if threads == 1 {
            base = dt;
        }
        println!(
            "{threads} threads: {dt:.2}s  {:.2}M ev/s  speedup {:.2}x",
            evs / dt / 1e6,
            base / dt
        );
    }
}

/// Checkpoints written *by the parallel engine* mid-run must restore
/// and resume (again in parallel) to the same bytes as an
/// uninterrupted serial run — the parallel engine hits the same
/// checkpoint boundaries with the same quiescent state.
#[test]
fn parallel_checkpoint_restore_resumes_byte_identical() {
    let dir = std::env::temp_dir().join("ring-par-ckpt-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let profile = profile(120);
    let cfg = cell_cfg(ProtocolVariant::UncorqPref, Scenario::Drop20, 2007);

    let serial = fingerprint(cfg.clone(), &profile, 1, None);

    // Parallel run that checkpoints every 5k cycles but is killed at
    // 20k by the cycle cap.
    let mut capped = cfg.clone();
    capped.max_cycles = 20_000;
    let mut m = Machine::new(capped, &profile);
    m.enable_checkpoints(5_000, &dir);
    let r = m
        .try_run_parallel(4)
        .unwrap_or_else(|stall| panic!("capped parallel run stalled:\n{stall}"));
    assert!(!r.finished, "cap must bite before completion");
    drop(m);

    // Resume from the latest parallel-written checkpoint, again in
    // parallel, with the trace sink re-attached for the tail. The
    // resumed report must match the uninterrupted serial bytes.
    let (mut m2, path) =
        restore_latest(&cfg, &profile, &dir).expect("restore from parallel checkpoint");
    let (_, at) = m2
        .restored_from()
        .expect("restored machine knows its source");
    assert!(
        at > 0,
        "restored from {} at cycle 0 — checkpoint never fired",
        path.display()
    );
    let r2 = m2
        .try_run_parallel(4)
        .unwrap_or_else(|stall| panic!("resumed parallel run stalled:\n{stall}"));
    assert!(r2.finished);
    let mut stats = Vec::new();
    r2.write_stats(&mut stats).unwrap();
    assert_eq!(
        stats, serial.stats,
        "parallel checkpoint/restore diverged from the uninterrupted serial run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
