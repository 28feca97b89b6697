//! Golden determinism digests.
//!
//! Runs every [`ProtocolVariant`] at 16 and 64 nodes, hashes the full
//! `Report` stats listing and the complete trace-event stream, and
//! asserts the digests match the checked-in golden values. The goldens
//! were recorded on the pre-optimization simulator (BinaryHeap event
//! queue, allocating hot path), so this test proves the calendar-queue
//! rewrite and the allocation-free delivery paths are *byte-identical*
//! in observable behavior — same event order, same timing, same trace.
//!
//! A second test runs the same grid through the sweep runner serially
//! and in parallel and asserts the results agree field-for-field.
//!
//! To regenerate after an *intentional* behavior change:
//! `cargo test --release -p bench --test golden_digest -- --ignored --nocapture`
//! and paste the printed table over `GOLDEN`.

use bench::sweep::{run_sweep, SweepCell};
use ring_coherence::ProtocolVariant;
use ring_noc::{FaultPlan, FaultProfile, ReliabilityConfig};
use ring_system::{restore_latest, HtMachine, Machine, MachineConfig};
use ring_trace::{DigestSink, SharedBufferSink};
use ring_workloads::AppProfile;

/// Seed shared by every golden cell.
const SEED: u64 = 2007;

/// Per-core ops: small enough for debug-mode CI, large enough that every
/// protocol path (retries, squashes, starvation, prefetch) is exercised.
fn ops_for(nodes: usize) -> u64 {
    if nodes >= 64 {
        150
    } else {
        400
    }
}

/// `(report digest, trace digest, trace events)` of one run, with the
/// full trace stream enabled. `threads <= 1` runs the serial engine;
/// otherwise the conservative-PDES parallel engine.
fn digest_cell_at(
    variant: ProtocolVariant,
    width: usize,
    height: usize,
    threads: usize,
) -> (u64, u64, u64) {
    let mut cfg = MachineConfig::with_protocol(variant.config());
    cfg.width = width;
    cfg.height = height;
    cfg.seed = SEED;
    let profile = AppProfile::by_name("fmm")
        .expect("fmm")
        .scaled(ops_for(width * height));
    let mut m = Machine::new(cfg, &profile);
    let sink = DigestSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let run = if threads <= 1 {
        m.try_run()
    } else {
        m.try_run_parallel(threads)
    };
    let r = match run {
        Ok(r) => r,
        Err(stall) => panic!("{variant} {width}x{height} x{threads}t stalled:\n{stall}"),
    };
    assert!(
        r.finished,
        "{variant} {width}x{height} x{threads}t hit the cycle cap"
    );
    let (trace_digest, trace_events) = sink.digest();
    (r.digest(), trace_digest, trace_events)
}

fn digest_cell(variant: ProtocolVariant, width: usize, height: usize) -> (u64, u64, u64) {
    digest_cell_at(variant, width, height, 1)
}

/// `(variant, width, height, report digest, trace digest, trace events)`
/// recorded on the pre-optimization simulator.
const GOLDEN: &[(ProtocolVariant, usize, usize, u64, u64, u64)] = &[
    (
        ProtocolVariant::Eager,
        4,
        4,
        0x3fa1b4a9e9e29c08,
        0xaa08a3469269f925,
        37208,
    ),
    (
        ProtocolVariant::SupersetCon,
        4,
        4,
        0x5ba66fbb24b7d709,
        0xd60874c5164bce4f,
        37095,
    ),
    (
        ProtocolVariant::SupersetAgg,
        4,
        4,
        0xedca4e1640a73873,
        0x0db5cb39f4899c4a,
        37208,
    ),
    (
        ProtocolVariant::Uncorq,
        4,
        4,
        0x5d57397ca3c24e1f,
        0x1092ccdfe4e4dc57,
        25311,
    ),
    (
        ProtocolVariant::UncorqPref,
        4,
        4,
        0x588c53120d6f0366,
        0x63bb9258fd43f400,
        25399,
    ),
    (
        ProtocolVariant::Eager,
        8,
        8,
        0xe61de939eaa3811f,
        0x902337469924299b,
        231783,
    ),
    (
        ProtocolVariant::SupersetCon,
        8,
        8,
        0x0290037a569dbd1b,
        0xb042dd01e6061654,
        230890,
    ),
    (
        ProtocolVariant::SupersetAgg,
        8,
        8,
        0x1b9c8516a4717dfb,
        0x600c3f5b681ca010,
        231787,
    ),
    (
        ProtocolVariant::Uncorq,
        8,
        8,
        0x67e1a8037f522dcb,
        0xd24dc7edfb833ac3,
        164162,
    ),
    (
        ProtocolVariant::UncorqPref,
        8,
        8,
        0xa4dab23de0a6dc95,
        0x0f5c5e173756d94c,
        164704,
    ),
];

/// Cells off the square, laid out like `GOLDEN`. Every `GOLDEN` cell is
/// square with an even height, where each snake-ring hop is one link.
/// 5×3 has an odd height: its snake closes with a two-link hop, so ring
/// messages there also take multi-hop xy routes, and its x and y
/// extents differ.
const GOLDEN_OFF_SQUARE: &[(ProtocolVariant, usize, usize, u64, u64, u64)] = &[(
    ProtocolVariant::Uncorq,
    5,
    3,
    0x9cbcdc51ec772173,
    0x6262f1c19636ead1,
    22539,
)];

/// The HyperTransport baseline on the ring rows' seed, app and ops:
/// `(width, height, report digest, trace digest, trace events)`. The
/// 5×3 row is the HT half of `GOLDEN_OFF_SQUARE`.
const GOLDEN_HT: &[(usize, usize, u64, u64, u64)] = &[
    (4, 4, 0x2711a6e405eaa14c, 0x84b585a373eda930, 6103),
    (8, 8, 0x16a361bc082afaf0, 0x4a2e9ddd099e76b2, 33682),
    (5, 3, 0x8de681c380eb3ddf, 0xbaefe07c70b7a249, 5349),
];

/// The HT machine for one golden cell, with a digest sink installed.
fn ht_cell(width: usize, height: usize) -> (HtMachine, DigestSink) {
    let mut cfg = MachineConfig::with_protocol(ProtocolVariant::Eager.config());
    cfg.width = width;
    cfg.height = height;
    cfg.seed = SEED;
    let profile = AppProfile::by_name("fmm")
        .expect("fmm")
        .scaled(ops_for(width * height));
    let mut m = HtMachine::new(cfg, &profile);
    let sink = DigestSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    (m, sink)
}

#[test]
fn golden_digests_ht() {
    for &(w, h, report, trace, events) in GOLDEN_HT {
        let (mut m, sink) = ht_cell(w, h);
        let r = m.run();
        assert!(r.finished, "HT at {w}x{h} hit the cycle cap");
        let (t, n) = sink.digest();
        assert_eq!(
            (r.digest(), t, n),
            (report, trace, events),
            "HT at {w}x{h}: digests diverged from golden"
        );
    }
}

/// Runs one row's cell and asserts its pinned digests.
fn check_row(
    &(variant, w, h, report, trace, events): &(ProtocolVariant, usize, usize, u64, u64, u64),
) {
    let (r, t, n) = digest_cell(variant, w, h);
    assert_eq!(
        (r, t, n),
        (report, trace, events),
        "{variant} at {w}x{h}: digests diverged from golden \
         (report {r:#018x} vs {report:#018x}, trace {t:#018x} vs {trace:#018x}, \
         {n} vs {events} events)"
    );
}

fn check(nodes: usize) {
    let mut checked = 0;
    for row in GOLDEN.iter().filter(|&&(_, w, h, ..)| w * h == nodes) {
        check_row(row);
        checked += 1;
    }
    assert_eq!(
        checked,
        ProtocolVariant::ALL.len(),
        "golden table incomplete for {nodes} nodes"
    );
}

#[test]
fn golden_digests_16_nodes() {
    check(16);
}

#[test]
fn golden_digests_64_nodes() {
    check(64);
}

#[test]
fn golden_digests_off_the_square() {
    GOLDEN_OFF_SQUARE.iter().for_each(check_row);
}

/// A disabled reliability sublayer is provably zero-cost: with
/// `ReliabilityConfig::disabled()` set *explicitly*, every run still
/// reproduces the pre-reliability golden digests byte-for-byte — same
/// event order, same timing, same trace stream.
#[test]
fn disabled_reliability_reproduces_golden_digests() {
    for &(variant, w, h, report, trace, events) in GOLDEN {
        if w * h != 16 {
            continue; // 4x4 covers all variants; 8x8 runs in the check above
        }
        let mut cfg = MachineConfig::with_protocol(variant.config());
        cfg.width = w;
        cfg.height = h;
        cfg.seed = SEED;
        cfg.reliability = ReliabilityConfig::disabled();
        let profile = AppProfile::by_name("fmm")
            .expect("fmm")
            .scaled(ops_for(w * h));
        let mut m = Machine::new(cfg, &profile);
        let sink = DigestSink::new();
        m.set_trace_sink(Box::new(sink.clone()));
        let r = m.try_run().expect("no stall");
        let (t, n) = sink.digest();
        assert_eq!(
            (r.digest(), t, n),
            (report, trace, events),
            "{variant} at {w}x{h}: disabled reliability must be byte-identical to golden"
        );
    }
}

/// The flight recorder is pure observation: with a recorder installed
/// (and actively sampling every 1000 cycles), every run still
/// reproduces the golden digests byte-for-byte — same event order,
/// same timing, same trace stream, same report.
#[test]
fn flight_recorder_reproduces_golden_digests() {
    use ring_trace::{FlightConfig, FlightRecorder};
    for &(variant, w, h, report, trace, events) in GOLDEN {
        if w * h != 16 {
            continue; // 4x4 covers all variants; 8x8 runs in the check above
        }
        let mut cfg = MachineConfig::with_protocol(variant.config());
        cfg.width = w;
        cfg.height = h;
        cfg.seed = SEED;
        let profile = AppProfile::by_name("fmm")
            .expect("fmm")
            .scaled(ops_for(w * h));
        let mut m = Machine::new(cfg, &profile);
        m.enable_flight_recorder(FlightRecorder::new(FlightConfig::with_interval(1000)));
        let sink = DigestSink::new();
        m.set_trace_sink(Box::new(sink.clone()));
        let r = m.try_run().expect("no stall");
        let (t, n) = sink.digest();
        assert_eq!(
            (r.digest(), t, n),
            (report, trace, events),
            "{variant} at {w}x{h}: an installed flight recorder must be byte-identical to golden"
        );
        assert!(
            !m.flight().expect("recorder stays installed").is_empty(),
            "{variant} at {w}x{h}: the recorder should have captured windows"
        );
    }
    let &(w, h, report, trace, events) = &GOLDEN_HT[0];
    let (mut m, sink) = ht_cell(w, h);
    m.enable_flight_recorder(FlightRecorder::new(FlightConfig::with_interval(1000)));
    let r = m.try_run().expect("no stall");
    let (t, n) = sink.digest();
    assert_eq!(
        (r.digest(), t, n),
        (report, trace, events),
        "HT at {w}x{h}: an installed flight recorder must be byte-identical to golden"
    );
    assert!(!m.flight().expect("recorder stays installed").is_empty());
}

/// Active checkpointing is pure observation: with snapshots being
/// written every 2000 cycles, every run still reproduces the golden
/// digests byte-for-byte — same event order, same timing, same trace
/// stream, same report. (This is the `--checkpoint-every N` guarantee;
/// `--checkpoint-every 0` is the no-op construction the other golden
/// tests already pin down.)
#[test]
fn active_checkpointing_reproduces_golden_digests() {
    for &(variant, w, h, report, trace, events) in GOLDEN {
        if w * h != 16 {
            continue; // 4x4 covers all variants; 8x8 runs in the check above
        }
        let dir = std::env::temp_dir().join(format!("golden-ckpt-active-{variant:?}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("checkpoint dir");
        let mut cfg = MachineConfig::with_protocol(variant.config());
        cfg.width = w;
        cfg.height = h;
        cfg.seed = SEED;
        let profile = AppProfile::by_name("fmm")
            .expect("fmm")
            .scaled(ops_for(w * h));
        let mut m = Machine::new(cfg, &profile);
        m.enable_checkpoints(2000, &dir);
        let sink = DigestSink::new();
        m.set_trace_sink(Box::new(sink.clone()));
        let r = m.try_run().expect("no stall");
        let (t, n) = sink.digest();
        assert_eq!(
            (r.digest(), t, n),
            (report, trace, events),
            "{variant} at {w}x{h}: active checkpointing must be byte-identical to golden"
        );
        assert!(
            !ring_system::list_checkpoints(&dir).is_empty(),
            "{variant} at {w}x{h}: the run should have left checkpoints behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kills a checkpointing run mid-flight, restores from the newest
/// checkpoint, resumes, and asserts the final report is byte-identical
/// to `want` and the resumed trace stream is exactly the reference
/// trace's post-checkpoint suffix.
fn assert_crash_recovery_identical(cfg: MachineConfig, label: &str) {
    let profile = AppProfile::by_name("fmm")
        .expect("fmm")
        .scaled(ops_for(cfg.width * cfg.height));

    let mut m = Machine::new(cfg.clone(), &profile);
    let sink = SharedBufferSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let want = match m.try_run() {
        Ok(r) => r,
        Err(stall) => panic!("{label}: reference run stalled:\n{stall}"),
    };
    assert!(want.finished, "{label}: reference hit the cycle cap");
    let reference_events = sink.snapshot();

    let kill_at = want.exec_cycles / 2;
    let every = (kill_at / 3).max(1);
    let dir = std::env::temp_dir().join(format!("golden-ckpt-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let mut killed = cfg.clone();
    killed.max_cycles = kill_at;
    let mut m = Machine::new(killed, &profile);
    m.enable_checkpoints(every, &dir);
    let _ = m.try_run(); // dies at the kill cycle; only the trail matters

    let (mut m, _used) = restore_latest(&cfg, &profile, &dir)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    let (_, ckpt_cycle) = m.restored_from().expect("restored machine has provenance");
    let sink = SharedBufferSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let got = match m.try_run() {
        Ok(r) => r,
        Err(stall) => panic!("{label}: resumed run stalled:\n{stall}"),
    };

    let (mut a, mut b) = (Vec::new(), Vec::new());
    want.write_stats(&mut a).expect("Vec write");
    got.write_stats(&mut b).expect("Vec write");
    assert_eq!(
        a, b,
        "{label}: resumed report diverged from the uninterrupted run"
    );
    let resumed = sink.snapshot();
    let suffix: Vec<_> = reference_events
        .iter()
        .filter(|ev| ev.cycle >= ckpt_cycle)
        .cloned()
        .collect();
    assert!(
        suffix == resumed,
        "{label}: resumed trace diverged ({} events vs {} in the reference suffix, \
         checkpoint cycle {ckpt_cycle})",
        resumed.len(),
        suffix.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery is byte-identical for every protocol variant on a
/// clean network: kill at mid-run, restore from the newest checkpoint,
/// resume, and the final report and post-checkpoint trace stream match
/// the uninterrupted (golden) run exactly.
#[test]
fn crash_recovery_is_byte_identical_for_all_variants() {
    for &(variant, w, h, report, _, _) in GOLDEN {
        if w * h != 16 {
            continue;
        }
        let mut cfg = MachineConfig::with_protocol(variant.config());
        cfg.width = w;
        cfg.height = h;
        cfg.seed = SEED;
        // Cross-check against the golden table too: the reference run
        // inside the helper must itself be the golden run.
        let profile = AppProfile::by_name("fmm")
            .expect("fmm")
            .scaled(ops_for(w * h));
        let r = Machine::new(cfg.clone(), &profile).run();
        assert_eq!(
            r.digest(),
            report,
            "{variant}: reference diverged from golden before the drill even started"
        );
        assert_crash_recovery_identical(cfg, &format!("{variant:?}-clean"));
    }
}

/// Crash recovery is byte-identical for every protocol variant under
/// the `chaos` fault profile (jitter + reorder + duplication +
/// congestion) and under `drop20` (20% frame loss) with the reliable
/// sublayer recovering the losses.
#[test]
fn crash_recovery_is_byte_identical_under_chaos_and_loss() {
    for variant in ProtocolVariant::ALL {
        for profile_name in ["chaos", "drop20"] {
            let fault = FaultProfile::by_name(profile_name).expect("built-in fault profile");
            let mut cfg = MachineConfig::with_protocol(variant.config());
            cfg.width = 4;
            cfg.height = 4;
            cfg.seed = SEED;
            cfg.faults = Some(FaultPlan::new(fault, 1));
            if fault.needs_reliability() {
                cfg.reliability = ReliabilityConfig::on();
            }
            assert_crash_recovery_identical(cfg, &format!("{variant:?}-{profile_name}"));
        }
    }
}

/// The conservative-PDES parallel engine reproduces every golden cell
/// byte-for-byte at 2 and 4 total threads — all 10 `(variant, grid)`
/// cells, including the paper-scale 64-node grid, hit the *same*
/// digests as the serial (and pre-optimization) engine. Worker count
/// is unobservable.
#[test]
fn parallel_engine_reproduces_golden_digests() {
    for &(variant, w, h, report, trace, events) in GOLDEN {
        for threads in [2usize, 4] {
            let (r, t, n) = digest_cell_at(variant, w, h, threads);
            assert_eq!(
                (r, t, n),
                (report, trace, events),
                "{variant} at {w}x{h} with {threads} threads: parallel engine \
                 diverged from golden (report {r:#018x} vs {report:#018x}, \
                 trace {t:#018x} vs {trace:#018x}, {n} vs {events} events)"
            );
        }
    }
}

#[test]
fn sweep_serial_and_parallel_agree_on_golden_grid() {
    let cells: Vec<SweepCell> = ProtocolVariant::ALL
        .into_iter()
        .map(|variant| SweepCell {
            variant,
            app: "fmm".into(),
            width: 4,
            height: 4,
            seed: SEED,
            ops: ops_for(16),
        })
        .collect();
    let serial = run_sweep(&cells, 1, 1);
    let parallel = run_sweep(&cells, 4, 1);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.determinism_key(),
            p.determinism_key(),
            "parallel sweep diverged from serial"
        );
    }
}

/// Prints the golden table (run with `--ignored --nocapture` to
/// regenerate after an intentional behavior change).
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn print_golden_table() {
    for (w, h) in [(4usize, 4usize), (8, 8)] {
        for variant in ProtocolVariant::ALL {
            let (r, t, n) = digest_cell(variant, w, h);
            println!("    (ProtocolVariant::{variant:?}, {w}, {h}, {r:#018x}, {t:#018x}, {n}),");
        }
    }
    println!("GOLDEN_OFF_SQUARE:");
    for &(variant, w, h, ..) in GOLDEN_OFF_SQUARE {
        let (r, t, n) = digest_cell(variant, w, h);
        println!("    (ProtocolVariant::{variant:?}, {w}, {h}, {r:#018x}, {t:#018x}, {n}),");
    }
    println!("GOLDEN_HT:");
    for &(w, h, ..) in GOLDEN_HT {
        let (mut m, sink) = ht_cell(w, h);
        let r = m.run();
        let (t, n) = sink.digest();
        println!("    ({w}, {h}, {:#018x}, {t:#018x}, {n}),", r.digest());
    }
}
