//! `chaoscheck` — deterministic fault-injection sweep for the ring
//! protocols.
//!
//! Runs every ring protocol (Eager, SupersetCon, SupersetAgg, Uncorq,
//! Uncorq+Pref) across a grid of fault profiles × chaos seeds, and
//! asserts for each run that:
//!
//! 1. **Forward progress** — the machine finishes under the watchdog
//!    (no [`StallReport`], no cycle-cap spin);
//! 2. **Coherence invariants** — the full event trace passes the shared
//!    [`InvariantChecker`] (resolution, Ordering, LTT balance, winner
//!    uniqueness, zero protocol errors);
//! 3. **Determinism** — re-running one combo per protocol with the same
//!    chaos seed reproduces the trace byte-for-byte.
//!
//! It then runs a **crash-recovery drill** (uncorq under `chaos` and
//! under `drop20` + the reliable sublayer): kill the machine at a
//! deterministic random cycle while it checkpoints, corrupt the newest
//! snapshot (truncation and a bit flip), verify both corruptions are
//! rejected with typed errors naming the damaged section, fall back to
//! the previous checkpoint, resume, and assert the final report digest
//! and the post-checkpoint trace suffix are identical to an
//! uninterrupted run.
//!
//! ```text
//! chaoscheck [--nodes WxH] [--seeds N] [--ops N] [--profiles a,b,...]
//! ```
//!
//! Exits 0 when every run passes, 1 otherwise.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;

use uncorq::coherence::{ProtocolConfig, ProtocolVariant};
use uncorq::noc::{FaultPlan, FaultProfile, ReliabilityConfig};
use uncorq::sim::DetRng;
use uncorq::snapshot::{fnv1a, SnapshotError};
use uncorq::system::{list_checkpoints, parse_grid, restore_latest, Machine, MachineConfig};
use uncorq::trace::{check_events, SharedBufferSink};
use uncorq::workloads::AppProfile;

const USAGE: &str = "usage: chaoscheck [--nodes WxH] [--seeds N] [--ops N] [--profiles a,b,...]";

struct Args {
    nodes: (usize, usize),
    seeds: u64,
    ops: u64,
    profiles: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            nodes: (4, 4),
            seeds: 5,
            ops: 1200,
            profiles: [
                "jitter",
                "reorder",
                "duplicate",
                "congestion",
                "chaos",
                "drop1",
                "drop5",
                "drop20",
                "outage",
            ]
            .map(String::from)
            .to_vec(),
        }
    }
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let mut a = Args::default();
    argv.next();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--nodes" => a.nodes = parse_grid(&value("--nodes")?).map_err(|e| e.to_string())?,
            "--seeds" => {
                a.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--ops" => a.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--profiles" => {
                a.profiles = value("--profiles")?
                    .split(',')
                    .map(|s| s.trim().to_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if a.profiles.len() < 3 {
        return Err("need at least 3 fault profiles for a meaningful sweep".into());
    }
    if a.seeds < 5 {
        return Err("need at least 5 chaos seeds for a meaningful sweep".into());
    }
    Ok(a)
}

/// The five ring protocol variants of the paper's Figure 9.
fn protocols() -> Vec<(&'static str, ProtocolConfig)> {
    ProtocolVariant::ALL
        .iter()
        .map(|&v| (v.name(), v.config()))
        .collect()
}

/// Builds the machine configuration for one (protocol, profile, seed)
/// combo of the sweep.
fn combo_cfg(
    args: &Args,
    protocol: ProtocolConfig,
    profile: FaultProfile,
    chaos_seed: u64,
) -> MachineConfig {
    let mut cfg = MachineConfig::with_protocol(protocol);
    cfg.width = args.nodes.0;
    cfg.height = args.nodes.1;
    cfg.seed = 7;
    cfg.max_cycles = 200_000_000;
    cfg.watchdog_cycles = 2_000_000;
    cfg.check_invariants = true;
    cfg.faults = Some(FaultPlan::new(profile, chaos_seed));
    if profile.needs_reliability() {
        // Lossy profiles destroy frames; the reliable-delivery sublayer
        // is what turns that back into exactly-once, in-order delivery.
        cfg.reliability = ReliabilityConfig::on();
    }
    cfg
}

/// The sweep's workload profile scaled to the requested op count.
fn app(args: &Args) -> Result<AppProfile, String> {
    Ok(MachineConfig::default_workload()
        .map_err(|e| e.to_string())?
        .scaled(args.ops))
}

/// Runs one (protocol, profile, seed) combo and returns the serialized
/// JSONL trace, or a failure description.
fn run_combo(
    args: &Args,
    protocol: ProtocolConfig,
    profile: FaultProfile,
    chaos_seed: u64,
) -> Result<String, String> {
    let cfg = combo_cfg(args, protocol, profile, chaos_seed);
    let app = app(args)?;
    let mut m = Machine::new(cfg, &app);
    let sink = SharedBufferSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let report = match m.try_run() {
        Ok(r) => r,
        Err(stall) => return Err(format!("forward-progress stall:\n{stall}")),
    };
    if !report.finished {
        return Err("hit the cycle cap before completion".into());
    }
    let events = sink.snapshot();
    let checker = check_events(&events);
    if !checker.violations().is_empty() {
        return Err(format!(
            "{} invariant violation(s):\n{}",
            checker.violations().len(),
            checker.format_violations(10)
        ));
    }
    if !profile.is_nop() && m.fault_stats().total() == 0 {
        return Err("fault profile active but nothing was injected".into());
    }
    if !m.reliability_idle() {
        return Err("reliable transport still holds unacked frames after completion".into());
    }
    if profile.needs_reliability() {
        let Some(rs) = m.reliability_stats() else {
            return Err("lossy profile requires the reliable sublayer, but it is absent".into());
        };
        if rs.wire_drops == 0 {
            return Err("lossy profile active but no frame was ever destroyed".into());
        }
        if rs.retransmits == 0 {
            return Err("frames were destroyed but never retransmitted".into());
        }
    }
    let mut out = String::new();
    for ev in &events {
        out.push_str(&ev.to_jsonl());
        out.push('\n');
    }
    Ok(out)
}

/// The crash-recovery drill for one (protocol, fault profile) combo:
/// reference run, checkpointed run killed at a deterministic random
/// cycle, corruption of the newest checkpoint, typed rejection +
/// fallback, resume, digest comparison.
fn crash_recovery_check(
    args: &Args,
    protocol: ProtocolConfig,
    profile_name: &str,
    profile: FaultProfile,
) -> Result<(), String> {
    let cfg = combo_cfg(args, protocol, profile, 1);
    let app = app(args)?;

    // Uninterrupted reference: final report digest + full trace.
    let mut m = Machine::new(cfg.clone(), &app);
    let sink = SharedBufferSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let report = m
        .try_run()
        .map_err(|stall| format!("reference run stalled:\n{stall}"))?;
    if !report.finished {
        return Err("reference run hit the cycle cap".into());
    }
    let want_digest = report.digest();
    let reference_events = sink.snapshot();

    // Kill at a deterministic random cycle in the middle half of the
    // run, with a checkpoint cadence that leaves at least two snapshots
    // behind (so corrupting the newest still has a fallback).
    let span = report.exec_cycles;
    let kill_at = span / 4 + DetRng::seed(0xC4A5 ^ fnv1a(profile_name.as_bytes())).below(span / 2);
    let every = (kill_at / 3).max(1);
    let dir = std::env::temp_dir().join(format!("chaoscheck-crash-{profile_name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

    let mut killed_cfg = cfg.clone();
    killed_cfg.max_cycles = kill_at;
    let mut m = Machine::new(killed_cfg, &app);
    m.enable_checkpoints(every, &dir);
    let _ = m.try_run(); // stops at the kill cycle; the trail is what matters
    let cks = list_checkpoints(&dir);
    if cks.len() < 2 {
        return Err(format!(
            "expected >= 2 checkpoints before the kill cycle {kill_at}, found {}",
            cks.len()
        ));
    }

    // A truncated snapshot must be rejected with a typed error.
    let newest = &cks[0];
    let bytes = std::fs::read(newest).map_err(|e| format!("read {}: {e}", newest.display()))?;
    let torn = dir.join("torn.bin");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).map_err(|e| e.to_string())?;
    match Machine::restore(cfg.clone(), &app, &torn) {
        Ok(_) => return Err("truncated snapshot was accepted".into()),
        Err(SnapshotError::Truncated { .. } | SnapshotError::CorruptHeader) => {}
        Err(e) => return Err(format!("truncation detected but mistyped: {e}")),
    }
    let _ = std::fs::remove_file(&torn);

    // A bit flip in the newest checkpoint's payload must be rejected
    // with an error naming the damaged section...
    let mut flipped = bytes.clone();
    let n = flipped.len();
    flipped[n - 9] ^= 0x40;
    std::fs::write(newest, &flipped).map_err(|e| e.to_string())?;
    match Machine::restore(cfg.clone(), &app, newest) {
        Ok(_) => return Err("bit-flipped snapshot was accepted".into()),
        Err(e) if e.section().is_some() => {}
        Err(e) => return Err(format!("bit flip detected but no section named: {e}")),
    }

    // ...and the directory scan must fall back to the previous one.
    let (mut m, used) =
        restore_latest(&cfg, &app, &dir).map_err(|e| format!("fallback restore failed: {e}"))?;
    if used != cks[1] {
        return Err(format!(
            "fallback picked {} instead of {}",
            used.display(),
            cks[1].display()
        ));
    }
    let Some((_, ckpt_cycle)) = m.restored_from() else {
        return Err("restored machine reports no checkpoint provenance".into());
    };

    // Resume and compare against the uninterrupted run: identical final
    // report, and the resumed trace is exactly the reference trace's
    // post-checkpoint suffix.
    let sink = SharedBufferSink::new();
    m.set_trace_sink(Box::new(sink.clone()));
    let report = m
        .try_run()
        .map_err(|stall| format!("resumed run stalled:\n{stall}"))?;
    if !report.finished {
        return Err("resumed run hit the cycle cap".into());
    }
    if report.digest() != want_digest {
        return Err("resumed report digest diverged from the uninterrupted run".into());
    }
    let resumed = sink.snapshot();
    let suffix: Vec<_> = reference_events
        .iter()
        .filter(|ev| ev.cycle >= ckpt_cycle)
        .collect();
    if suffix.len() != resumed.len() || !suffix.iter().zip(&resumed).all(|(a, b)| **a == *b) {
        return Err(format!(
            "resumed trace diverged: {} events vs {} in the reference suffix (checkpoint cycle {ckpt_cycle})",
            resumed.len(),
            suffix.len()
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut profiles = Vec::new();
    for name in &args.profiles {
        match FaultProfile::by_name(name) {
            Some(p) => profiles.push((name.as_str(), p)),
            None => {
                eprintln!(
                    "unknown fault profile {name}; known: none jitter reorder duplicate \
                     congestion chaos drop1 drop5 drop20 outage lossy_chaos"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let mut failures = 0u32;
    let mut runs = 0u32;
    for (proto_name, protocol) in protocols() {
        let mut first_trace: Option<String> = None;
        let mut first_lossy: Option<(&str, FaultProfile, String)> = None;
        for &(profile_name, profile) in &profiles {
            for chaos_seed in 1..=args.seeds {
                runs += 1;
                match run_combo(&args, protocol, profile, chaos_seed) {
                    Ok(trace) => {
                        println!("ok   {proto_name:<12} {profile_name:<10} seed={chaos_seed}");
                        // Keep the grid's first combo for the replay check.
                        if profile_name == profiles[0].0 && chaos_seed == 1 {
                            first_trace = Some(trace);
                        } else if first_lossy.is_none()
                            && profile.needs_reliability()
                            && chaos_seed == 1
                        {
                            // And the first frame-destroying combo: its
                            // replay proves retransmission timing and
                            // backoff jitter are seed-reproducible too.
                            first_lossy = Some((profile_name, profile, trace));
                        }
                    }
                    Err(msg) => {
                        failures += 1;
                        println!(
                            "FAIL {proto_name:<12} {profile_name:<10} seed={chaos_seed}: {msg}"
                        );
                    }
                }
            }
        }
        // Determinism: the first passing combo must replay to a
        // byte-identical trace.
        if let Some(expected) = first_trace {
            runs += 1;
            match run_combo(&args, protocol, profiles[0].1, 1) {
                Ok(replay) if replay == expected => {
                    println!("ok   {proto_name:<12} replay is byte-identical");
                }
                Ok(_) => {
                    failures += 1;
                    println!("FAIL {proto_name:<12} replay diverged from the first run");
                }
                Err(msg) => {
                    failures += 1;
                    println!("FAIL {proto_name:<12} replay: {msg}");
                }
            }
        }
        if let Some((lossy_name, lossy_profile, expected)) = first_lossy {
            runs += 1;
            match run_combo(&args, protocol, lossy_profile, 1) {
                Ok(replay) if replay == expected => {
                    println!("ok   {proto_name:<12} lossy replay ({lossy_name}) is byte-identical");
                }
                Ok(_) => {
                    failures += 1;
                    println!(
                        "FAIL {proto_name:<12} lossy replay ({lossy_name}) diverged from the \
                         first run"
                    );
                }
                Err(msg) => {
                    failures += 1;
                    println!("FAIL {proto_name:<12} lossy replay ({lossy_name}): {msg}");
                }
            }
        }
    }
    // Crash-recovery drill: uncorq under pure chaos, and under heavy
    // frame loss with the reliable sublayer doing the recovery.
    let uncorq_cfg = ProtocolVariant::Uncorq.config();
    for profile_name in ["chaos", "drop20"] {
        let Some(profile) = FaultProfile::by_name(profile_name) else {
            failures += 1;
            println!("FAIL uncorq       crash-recovery drill ({profile_name}): unknown profile");
            continue;
        };
        runs += 1;
        match crash_recovery_check(&args, uncorq_cfg, profile_name, profile) {
            Ok(()) => println!("ok   uncorq       crash-recovery drill ({profile_name})"),
            Err(msg) => {
                failures += 1;
                println!("FAIL uncorq       crash-recovery drill ({profile_name}): {msg}");
            }
        }
    }

    println!("\n{runs} runs, {failures} failures");
    if failures == 0 {
        println!(
            "OK: forward progress + coherence invariants + crash recovery hold under all fault \
         profiles"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
