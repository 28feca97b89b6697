//! Determinism proof for the pausable/steppable run loop.
//!
//! The contract under test: driving a machine through
//! [`Machine::try_run_slice`] in slices of *any* size — including one
//! event at a time — produces a run byte-identical to one uninterrupted
//! [`Machine::try_run`]: same full stats listing, same complete
//! trace-event stream, same queue high-water mark, and the same
//! checkpoint trail. This is what lets the `ringd` daemon pause, step,
//! and snapshot live sessions without perturbing them.

use ring_coherence::ProtocolVariant;
use ring_noc::{FaultPlan, FaultProfile};
use ring_system::{
    HtMachine, Machine, MachineConfig, NodeAgent, Protocol, RunProgress, RunSpec, Sim,
};
use ring_trace::{DigestSink, SharedBufferSink};
use ring_workloads::AppProfile;

fn cfg(variant: ProtocolVariant, chaos: bool) -> MachineConfig {
    let mut cfg = MachineConfig::with_protocol(variant.config());
    cfg.width = 4;
    cfg.height = 4;
    cfg.max_cycles = 50_000_000;
    cfg.watchdog_cycles = 2_000_000;
    cfg.seed = 2007;
    if chaos {
        cfg.faults = Some(FaultPlan::new(FaultProfile::chaos(), 42));
    }
    cfg
}

fn profile() -> AppProfile {
    AppProfile::by_name("fmm").expect("fmm profile").scaled(120)
}

fn uninterrupted<A: NodeAgent>(mut m: Sim<A>) -> (Vec<u8>, (u64, u64), usize) {
    let sink = DigestSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let r = m.try_run().expect("reference run must not stall");
    assert!(r.finished);
    let mut stats = Vec::new();
    r.write_stats(&mut stats).expect("Vec write cannot fail");
    (stats, sink.digest(), m.queue_peak())
}

fn sliced<A: NodeAgent>(mut m: Sim<A>, slice: u64) -> (Vec<u8>, (u64, u64), usize, u64) {
    let sink = DigestSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let mut slices = 0u64;
    let r = loop {
        match m.try_run_slice(slice).expect("sliced run must not stall") {
            RunProgress::Done(r) => break r,
            RunProgress::Yielded { events, cycle: _ } => {
                assert_eq!(events, slice, "a yield means the budget was exhausted");
                slices += 1;
            }
        }
    };
    assert!(r.finished);
    let mut stats = Vec::new();
    r.write_stats(&mut stats).expect("Vec write cannot fail");
    (stats, sink.digest(), m.queue_peak(), slices)
}

/// Slices of several sizes (including single-event stepping) against
/// the uninterrupted run of the machine `machine` builds.
fn assert_slicing_is_unobservable<A: NodeAgent>(label: &str, machine: impl Fn() -> Sim<A>) {
    let reference = uninterrupted(machine());
    for slice in [1u64, 97, 5000] {
        let (stats, trace, peak, slices) = sliced(machine(), slice);
        assert!(slices > 0, "slice {slice} never yielded (test is vacuous)");
        assert_eq!(
            (stats, trace, peak),
            reference.clone(),
            "{label}: slice size {slice} diverged"
        );
    }
}

/// A ring variant, the chaos case, and the HT baseline (same loop).
#[test]
fn sliced_runs_are_byte_identical() {
    for (variant, chaos) in [
        (ProtocolVariant::Uncorq, false),
        (ProtocolVariant::UncorqPref, true),
    ] {
        assert_slicing_is_unobservable(&format!("{variant} chaos={chaos}"), || {
            Machine::new(cfg(variant, chaos), &profile())
        });
    }
    assert_slicing_is_unobservable("HT", || {
        HtMachine::new(cfg(ProtocolVariant::Eager, false), &profile())
    });
}

/// A 4×4 Uncorq run (200 ops of `fmm`, seed 7) capped at `max_cycles`
/// and driven in slices of `slice` events: its stats listing, trace
/// digest and event count.
fn capped_run(max_cycles: u64, slice: u64) -> (String, (u64, u64), u64) {
    let mut spec = RunSpec::paper(Protocol::Ring(ProtocolVariant::Uncorq));
    spec.workload = "fmm".into();
    spec.ops = Some(200);
    (spec.width, spec.height) = (4, 4);
    spec.seed = 7;
    spec.max_cycles = max_cycles;
    let (cfg, profile) = spec.build().expect("a valid spec");
    let mut m = Machine::new(cfg, &profile);
    let sink = DigestSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let r = loop {
        if let RunProgress::Done(r) = m.try_run_slice(slice).expect("a capped run is no stall") {
            break r;
        }
    };
    assert!(!r.finished, "the cap must cut the run short");
    let mut stats = Vec::new();
    r.write_stats(&mut stats).expect("Vec write cannot fail");
    let stats = String::from_utf8(stats).expect("the listing is text");
    (stats, sink.digest(), r.stats.events)
}

/// The run loop also runs the events at exactly `max_cycles`, so a
/// slice whose budget runs out just before them must yield, not end the
/// run: stepping one event at a time, or one slice of exactly the
/// events before the cap, reports the uninterrupted run.
#[test]
fn a_slice_ending_just_before_the_cap_does_not_end_the_run() {
    for cap in [1_500, 3_000] {
        let reference = capped_run(cap, u64::MAX);
        // A run capped one cycle earlier runs exactly the events before
        // the cap.
        let before = capped_run(cap - 1, u64::MAX).2;
        assert!(
            before < reference.2,
            "cap {cap}: no event at the cap (test is vacuous)"
        );
        for slice in [1, before] {
            assert_eq!(
                capped_run(cap, slice),
                reference,
                "cap {cap}: slices of {slice} events diverged"
            );
        }
    }
}

/// A sink removed between slices saw exactly a prefix of the full trace
/// and sees nothing more, and the machine is then the one an untraced
/// run has at that point: same snapshot bytes, same final report.
#[test]
fn removing_the_sink_mid_run_leaves_an_untraced_machine() {
    let machine = || Machine::new(cfg(ProtocolVariant::Uncorq, false), &profile());
    let full = SharedBufferSink::new();
    let mut reference = machine();
    reference.set_trace_sink(Box::new(full.clone()));
    let want = reference.try_run().expect("reference run");
    let all = full.snapshot();

    let seen = SharedBufferSink::new();
    let mut traced = machine();
    traced.set_trace_sink(Box::new(seen.clone()));
    let mut plain = machine();
    for m in [&mut traced, &mut plain] {
        assert!(matches!(
            m.try_run_slice(5000),
            Ok(RunProgress::Yielded { .. })
        ));
    }
    traced.remove_trace_sink();
    let prefix = seen.snapshot();
    assert!(!prefix.is_empty() && prefix.len() < all.len());
    assert!(all.starts_with(&prefix), "the sink saw more than a prefix");
    assert!(
        traced.snapshot().encode() == plain.snapshot().encode(),
        "a machine whose sink was removed differs from an untraced one"
    );

    let report = |r: &ring_system::Report| {
        let mut v = Vec::new();
        r.write_stats(&mut v).expect("Vec write cannot fail");
        v
    };
    let got = traced.try_run().expect("traced run");
    assert_eq!(report(&got), report(&want));
    assert_eq!(report(&plain.try_run().expect("plain run")), report(&want));
    assert_eq!(
        seen.snapshot().len(),
        prefix.len(),
        "a removed sink recorded"
    );
}

/// Checkpoints written mid-run are identical whether the loop is sliced
/// or not: same file set, same bytes.
#[test]
fn sliced_checkpoint_trail_matches_uninterrupted() {
    let base = std::env::temp_dir().join("ring-slice-ckpt-test");
    let _ = std::fs::remove_dir_all(&base);
    let dir_a = base.join("uninterrupted");
    let dir_b = base.join("sliced");
    std::fs::create_dir_all(&dir_a).expect("temp dir");
    std::fs::create_dir_all(&dir_b).expect("temp dir");

    let mut a = Machine::new(cfg(ProtocolVariant::Uncorq, false), &profile());
    a.enable_checkpoints(2000, &dir_a);
    assert!(a.try_run().expect("run").finished);

    let mut b = Machine::new(cfg(ProtocolVariant::Uncorq, false), &profile());
    b.enable_checkpoints(2000, &dir_b);
    loop {
        match b.try_run_slice(313).expect("run") {
            RunProgress::Done(r) => {
                assert!(r.finished);
                break;
            }
            RunProgress::Yielded { .. } => {}
        }
    }

    let names = |d: &std::path::Path| {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    let (na, nb) = (names(&dir_a), names(&dir_b));
    assert!(!na.is_empty(), "reference run wrote no checkpoints");
    assert_eq!(na, nb, "checkpoint file sets diverged");
    for n in &na {
        let ba = std::fs::read(dir_a.join(n)).expect("read");
        let bb = std::fs::read(dir_b.join(n)).expect("read");
        assert_eq!(ba, bb, "checkpoint {n} bytes diverged");
    }
    let _ = std::fs::remove_dir_all(&base);
}
