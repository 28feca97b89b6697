//! `uncorq` — command-line front end for the simulator.
//!
//! ```text
//! uncorq --app fmm --protocol uncorq [--ops 20000] [--seed 2007]
//!        [--prefetch] [--dual-rings] [--row-major-ring] [--nodes 8x8]
//!        [--workers N] [--check-invariants] [--histogram]
//!        [--trace-out FILE] [--metrics-out FILE] [--profile]
//!        [--profile-out BASE] [--chaos SEED] [--chaos-profile NAME]
//!        [--watchdog N] [--checkpoint-every N] [--checkpoint-dir D] [--checkpoint-keep K]
//!        [--restore PATH]
//! uncorq --list
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::Write;
use std::process::ExitCode;

use uncorq::coherence::ProtocolKind;
use uncorq::noc::{FaultPlan, FaultProfile, ReliabilityConfig};
use uncorq::system::{HtMachine, Machine, MachineConfig, NodeAgent, Report, Sim, StallReport};
use uncorq::trace::{perfetto_json, FlightConfig, FlightRecorder, SharedBufferSink};
use uncorq::workloads::AppProfile;

#[derive(Debug)]
struct Args {
    app: String,
    protocol: String,
    ops: Option<u64>,
    seed: u64,
    prefetch: bool,
    dual_rings: bool,
    row_major_ring: bool,
    nodes: (usize, usize),
    workers: usize,
    check_invariants: bool,
    histogram: bool,
    trace_line: Option<u64>,
    trace_out: Option<String>,
    stats_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    profile_out: Option<String>,
    chaos: Option<u64>,
    chaos_profile: String,
    reliable: bool,
    watchdog: Option<u64>,
    checkpoint_every: u64,
    checkpoint_dir: String,
    checkpoint_keep: usize,
    restore: Option<String>,
    list: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            app: "fmm".into(),
            protocol: "uncorq".into(),
            ops: None,
            seed: 2007,
            prefetch: false,
            dual_rings: false,
            row_major_ring: false,
            nodes: (8, 8),
            workers: 1,
            check_invariants: false,
            histogram: false,
            trace_line: None,
            trace_out: None,
            stats_out: None,
            metrics_out: None,
            profile: false,
            profile_out: None,
            chaos: None,
            chaos_profile: "chaos".into(),
            reliable: false,
            watchdog: None,
            checkpoint_every: 0,
            checkpoint_dir: "checkpoints".into(),
            checkpoint_keep: 0,
            restore: None,
            list: false,
        }
    }
}

const USAGE: &str =
    "usage: uncorq [--list] [--app NAME] [--protocol eager|supersetcon|supersetagg|uncorq|ht]
              [--ops N] [--seed N] [--prefetch] [--dual-rings] [--row-major-ring]
              [--nodes WxH] [--workers N] [--check-invariants] [--histogram] [--trace-line N]
              [--trace-out FILE] [--stats-out FILE] [--metrics-out FILE]
              [--profile] [--profile-out BASE]
              [--chaos SEED] [--chaos-profile none|jitter|reorder|duplicate|congestion|chaos|
                              drop1|drop5|drop20|outage|lossy_chaos]
              [--reliable] [--watchdog CYCLES]
              [--checkpoint-every N] [--checkpoint-dir D] [--checkpoint-keep K]
              [--restore PATH]

--checkpoint-every N writes an integrity-verified machine snapshot into
--checkpoint-dir (default ./checkpoints) at every N simulated cycles,
atomically; 0 disables. --checkpoint-keep K bounds the directory to the
newest K snapshots (oldest pruned after each write; the snapshot just
written is never pruned; 0 = keep all). --restore PATH resumes
byte-identically from a snapshot file, or from the newest valid
checkpoint when PATH is a directory (corrupted candidates are skipped
with a typed error).

--workers N runs the conservative-PDES parallel engine with N total
threads (1 = serial engine, the default). Every observable byte —
report, stats, trace stream, checkpoints — is identical at every
worker count; only wall-clock time changes. Not supported on the HT
baseline machine, and --check-invariants forces the serial engine.

--metrics-out writes the final machine statistics as JSON (including
phase and per-class latency percentiles). --profile installs the flight
recorder and prints the latency percentile tables; --profile-out BASE
additionally writes BASE.perfetto.json (Chrome/Perfetto trace),
BASE.prom (Prometheus text snapshot), and BASE.windows.jsonl (windowed
flight-recorder snapshots), and implies --profile.";

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let mut a = Args::default();
    argv.next(); // program name
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--list" => a.list = true,
            "--app" => a.app = value("--app")?,
            "--protocol" => a.protocol = value("--protocol")?.to_lowercase(),
            "--ops" => a.ops = Some(value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--prefetch" => a.prefetch = true,
            "--workers" => {
                a.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--dual-rings" => a.dual_rings = true,
            "--row-major-ring" => a.row_major_ring = true,
            "--check-invariants" => a.check_invariants = true,
            "--histogram" => a.histogram = true,
            "--stats-out" => a.stats_out = Some(value("--stats-out")?),
            "--metrics-out" => a.metrics_out = Some(value("--metrics-out")?),
            "--trace-out" => a.trace_out = Some(value("--trace-out")?),
            "--profile" => a.profile = true,
            "--profile-out" => {
                a.profile_out = Some(value("--profile-out")?);
                a.profile = true;
            }
            "--chaos" => {
                a.chaos = Some(
                    value("--chaos")?
                        .parse()
                        .map_err(|e| format!("--chaos: {e}"))?,
                )
            }
            "--chaos-profile" => a.chaos_profile = value("--chaos-profile")?.to_lowercase(),
            "--reliable" => a.reliable = true,
            "--checkpoint-every" => {
                a.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--checkpoint-dir" => a.checkpoint_dir = value("--checkpoint-dir")?,
            "--checkpoint-keep" => {
                a.checkpoint_keep = value("--checkpoint-keep")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-keep: {e}"))?
            }
            "--restore" => a.restore = Some(value("--restore")?),
            "--watchdog" => {
                a.watchdog = Some(
                    value("--watchdog")?
                        .parse()
                        .map_err(|e| format!("--watchdog: {e}"))?,
                )
            }
            "--trace-line" => {
                let v = value("--trace-line")?;
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                a.trace_line = Some(parsed.map_err(|e| format!("--trace-line: {e}"))?);
            }
            "--nodes" => {
                let v = value("--nodes")?;
                let (w, h) = v
                    .split_once(['x', 'X'])
                    .ok_or_else(|| format!("--nodes expects WxH, got {v}"))?;
                a.nodes = (
                    w.parse().map_err(|e| format!("--nodes width: {e}"))?,
                    h.parse().map_err(|e| format!("--nodes height: {e}"))?,
                );
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn protocol_kind(name: &str) -> Result<Option<ProtocolKind>, String> {
    Ok(Some(match name {
        "eager" => ProtocolKind::Eager,
        "supersetcon" => ProtocolKind::SupersetCon,
        "supersetagg" => ProtocolKind::SupersetAgg,
        "uncorq" => ProtocolKind::Uncorq,
        "ht" => return Ok(None),
        other => return Err(format!("unknown protocol {other}\n{USAGE}")),
    }))
}

fn print_report(args: &Args, report: &Report) {
    let s = &report.stats;
    println!(
        "machine    : {}x{} nodes, seed {}",
        args.nodes.0, args.nodes.1, args.seed
    );
    println!(
        "protocol   : {}{}{}",
        args.protocol,
        if args.prefetch { "+pref" } else { "" },
        if args.dual_rings { " (dual rings)" } else { "" }
    );
    println!("finished   : {}", report.finished);
    println!("exec       : {} cycles", report.exec_cycles);
    println!("ops retired: {}", s.ops_retired);
    println!(
        "read miss  : avg {:.0} cyc over {} misses ({:.1}% cache-to-cache)",
        s.read_latency.mean(),
        s.read_misses(),
        100.0 * s.c2c_fraction()
    );
    println!(
        "             c2c avg {:.0} cyc | memory avg {:.0} cyc",
        s.read_latency_c2c.mean(),
        s.read_latency_mem.mean()
    );
    println!(
        "traffic    : {:.2} MB-hops over {} messages",
        s.traffic.total_byte_hops() as f64 / 1e6,
        s.traffic.messages()
    );
    println!(
        "protocol   : {} txns, {} retries, {} snoops ({} skipped), {} LTT stalls",
        s.transactions, s.retries, s.snoops, s.snoops_skipped, s.ltt_stalls
    );
    if args.histogram {
        println!("\ncache-to-cache read miss latency histogram:");
        print!("{}", s.c2c_histogram.render_ascii(48));
    }
}

/// Writes the three `--profile-out` artifacts: `BASE.perfetto.json`,
/// `BASE.prom`, and `BASE.windows.jsonl`.
fn write_profile_files<A: NodeAgent>(
    base: &str,
    m: &Sim<A>,
    report: &Report,
    shared: Option<&SharedBufferSink>,
) -> std::io::Result<()> {
    let events = shared.map(|s| s.snapshot()).unwrap_or_default();
    let windows: Vec<uncorq::trace::WindowSnapshot> = m
        .flight()
        .map(|f| f.snapshots().cloned().collect())
        .unwrap_or_default();
    std::fs::write(
        format!("{base}.perfetto.json"),
        perfetto_json(&events, &windows),
    )?;
    let prom = std::fs::File::create(format!("{base}.prom"))?;
    report.write_prometheus(std::io::BufWriter::new(prom))?;
    let wjson = std::fs::File::create(format!("{base}.windows.jsonl"))?;
    let mut wjson = std::io::BufWriter::new(wjson);
    if let Some(f) = m.flight() {
        f.write_jsonl(&mut wjson)?;
    }
    wjson.flush()?;
    println!(
        "profile written to {base}.perfetto.json / {base}.prom / {base}.windows.jsonl \
         ({} windows, {} events)",
        windows.len(),
        events.len()
    );
    Ok(())
}

/// Writes the buffered trace-event stream as JSONL (used when
/// `--trace-out` and `--profile-out` are both given, since the profile
/// export needs the events in memory).
fn write_trace_from_buffer(path: &str, shared: &SharedBufferSink) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for ev in shared.snapshot() {
        writeln!(w, "{}", ev.to_jsonl())?;
    }
    w.flush()
}

/// Installs the observers `args` asks for on `m`, runs it with `run`
/// (a stall prints its report and yields the partial report), then
/// prints the per-line trace and writes the profile and trace files.
fn run_machine<A: NodeAgent>(
    args: &Args,
    m: &mut Sim<A>,
    run: impl FnOnce(&mut Sim<A>) -> Result<Report, Box<StallReport>>,
) -> Result<Report, ExitCode> {
    // With --profile-out the Perfetto export needs the full event
    // stream in memory, so a shared buffer replaces the direct-to-file
    // sink; --trace-out is then written from the buffer after the run.
    let shared = if args.profile && args.profile_out.is_some() {
        let s = SharedBufferSink::new();
        m.set_trace_sink(Box::new(s.clone()));
        Some(s)
    } else {
        if let Some(path) = &args.trace_out {
            match uncorq::trace::JsonlSink::create(path) {
                Ok(sink) => m.set_trace_sink(Box::new(sink)),
                Err(e) => {
                    eprintln!("--trace-out {path}: {e}");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        None
    };
    if args.profile {
        m.enable_flight_recorder(FlightRecorder::new(FlightConfig::default()));
    }
    let r = match run(m) {
        Ok(r) => r,
        Err(stall) => {
            eprintln!("{stall}");
            m.report()
        }
    };
    if let Some(l) = args.trace_line {
        let line = uncorq::cache::LineAddr::new(l);
        println!("protocol trace for {line}:");
        for e in m.line_trace(line) {
            println!("  {e}");
        }
        println!();
    }
    if let Some(base) = &args.profile_out {
        if let Err(e) = write_profile_files(base, m, &r, shared.as_ref()) {
            eprintln!("--profile-out {base}: {e}");
            return Err(ExitCode::FAILURE);
        }
    }
    if let (Some(path), Some(s)) = (&args.trace_out, &shared) {
        if let Err(e) = write_trace_from_buffer(path, s) {
            eprintln!("--trace-out {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        println!("applications (11 SPLASH-2 + 2 commercial, paper Figure 8(c)):");
        for p in AppProfile::all() {
            println!(
                "  {:<16} {:>6} ops/core, compute ~{:.0} cyc/ref",
                p.name, p.ops_per_core, p.compute_mean
            );
        }
        println!("protocols: eager supersetcon supersetagg uncorq ht");
        return ExitCode::SUCCESS;
    }
    let Some(mut profile) = AppProfile::by_name(&args.app) else {
        eprintln!("unknown application {}; try --list", args.app);
        return ExitCode::FAILURE;
    };
    if let Some(ops) = args.ops {
        profile = profile.scaled(ops);
    }
    let kind = match protocol_kind(&args.protocol) {
        Ok(k) => k,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = match kind {
        Some(k) if args.prefetch => {
            let mut c = MachineConfig::paper_uncorq_pref();
            c.protocol.kind = k;
            c
        }
        Some(k) => MachineConfig::paper(k),
        None => MachineConfig::paper(ProtocolKind::Eager), // HT machine
    };
    cfg.width = args.nodes.0;
    cfg.height = args.nodes.1;
    cfg.seed = args.seed;
    cfg.dual_rings = args.dual_rings;
    cfg.ring_row_major = args.row_major_ring;
    cfg.check_invariants = args.check_invariants;
    if let Some(l) = args.trace_line {
        cfg.trace_lines.push(l);
    }
    if let Some(chaos_seed) = args.chaos {
        if kind.is_none() {
            eprintln!("--chaos is not supported on the HT baseline machine");
            return ExitCode::FAILURE;
        }
        let Some(profile) = FaultProfile::by_name(&args.chaos_profile) else {
            eprintln!(
                "unknown chaos profile {}; known: none jitter reorder duplicate congestion \
                 chaos drop1 drop5 drop20 outage lossy_chaos",
                args.chaos_profile
            );
            return ExitCode::FAILURE;
        };
        cfg.faults = Some(FaultPlan::new(profile, chaos_seed));
        if profile.needs_reliability() && !args.reliable {
            eprintln!(
                "note: profile {} destroys frames; enabling the reliable-delivery sublayer \
                 (implied --reliable)",
                args.chaos_profile
            );
            cfg.reliability = ReliabilityConfig::on();
        }
    }
    if args.reliable {
        if kind.is_none() {
            eprintln!("--reliable is not supported on the HT baseline machine");
            return ExitCode::FAILURE;
        }
        cfg.reliability = ReliabilityConfig::on();
    }
    if let Some(w) = args.watchdog {
        cfg.watchdog_cycles = w;
    }
    if kind.is_none() && (args.restore.is_some() || args.checkpoint_every > 0) {
        eprintln!("--restore/--checkpoint-every are not supported on the HT baseline machine");
        return ExitCode::FAILURE;
    }
    let run = match kind {
        Some(_) => {
            let mut m = match &args.restore {
                None => Machine::new(cfg, &profile),
                Some(path) => {
                    let p = std::path::Path::new(path);
                    let restored = if p.is_dir() {
                        uncorq::system::restore_latest(&cfg, &profile, p).map(|(m, used)| {
                            println!("restoring from newest valid checkpoint {}", used.display());
                            m
                        })
                    } else {
                        Machine::restore(cfg.clone(), &profile, p)
                    };
                    match restored {
                        Ok(m) => {
                            if let Some((from, cycle)) = m.restored_from() {
                                println!("restored from {from} (cycle {cycle})");
                            }
                            m
                        }
                        Err(e) => {
                            eprintln!("--restore {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            if args.checkpoint_every > 0 {
                if let Err(e) = std::fs::create_dir_all(&args.checkpoint_dir) {
                    eprintln!("--checkpoint-dir {}: {e}", args.checkpoint_dir);
                    return ExitCode::FAILURE;
                }
                m.enable_checkpoints(args.checkpoint_every, &args.checkpoint_dir);
                m.set_checkpoint_retention(args.checkpoint_keep);
            }
            // One thread is the serial engine.
            run_machine(&args, &mut m, |m| m.try_run_parallel(args.workers))
        }
        None => {
            if args.workers > 1 {
                eprintln!("--workers is not supported on the HT baseline machine");
                return ExitCode::FAILURE;
            }
            run_machine(&args, &mut HtMachine::new(cfg, &profile), Sim::try_run)
        }
    };
    let report = match run {
        Ok(r) => r,
        Err(code) => return code,
    };
    print_report(&args, &report);
    if args.profile {
        println!();
        print!("{}", report.latency_table());
    }
    if let Some(path) = &args.metrics_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("--metrics-out {path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = report.write_json(std::io::BufWriter::new(file)) {
            eprintln!("--metrics-out {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path}");
    }
    if let Some(path) = &args.stats_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("--stats-out {path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = report.write_stats(std::io::BufWriter::new(file)) {
            eprintln!("--stats-out {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nstats written to {path}");
    }
    if let Some(path) = &args.trace_out {
        println!("trace written to {path} (validate with `tracecheck {path}`)");
    }
    if report.finished {
        ExitCode::SUCCESS
    } else {
        eprintln!("\nwarning: run did not complete (stall or cycle cap)");
        ExitCode::FAILURE
    }
}
