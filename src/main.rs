//! `uncorq` — command-line front end for the simulator.
//!
//! ```text
//! uncorq [RUN FLAGS] [--workers N] [--histogram] [--trace-out FILE]
//!        [--stats-out FILE] [--metrics-out FILE] [--profile]
//!        [--profile-out BASE] [--checkpoint-every N] [--checkpoint-dir D]
//!        [--checkpoint-keep K] [--restore PATH]
//! uncorq --list
//! ```
//!
//! The run flags (`--protocol --app --ops --nodes --seed --chaos …`)
//! are the field table of [`uncorq::system::RunSpec`], shared with
//! `ringctl create`; the base is the paper machine at seed 2007.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::Write;
use std::process::ExitCode;

use uncorq::coherence::ProtocolVariant;
use uncorq::stats::{Align, Table};
use uncorq::system::{
    HtMachine, Machine, NodeAgent, Protocol, Report, RunSpec, Sim, SpecFlags, StallReport,
    DEFAULT_CHAOS_PROFILE,
};
use uncorq::trace::{
    perfetto_json, FlightConfig, FlightRecorder, SharedBufferSink, WindowSnapshot,
};
use uncorq::workloads::AppProfile;

/// Hottest links and nodes listed per window by `--profile`.
const PROFILE_TOPK: usize = 3;

#[derive(Debug)]
struct Args {
    spec: RunSpec,
    workers: usize,
    histogram: bool,
    trace_out: Option<String>,
    stats_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    profile_out: Option<String>,
    checkpoint_every: u64,
    checkpoint_dir: String,
    checkpoint_keep: usize,
    restore: Option<String>,
    list: bool,
}

const USAGE: &str = "usage: uncorq [--list] [RUN FLAGS] [--workers N] [--histogram]
              [--trace-out FILE] [--stats-out FILE] [--metrics-out FILE]
              [--profile] [--profile-out BASE]
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
recorder and prints the window timeline (10 000-cycle windows, top 3
links and nodes), the latency percentile tables and the stall
attribution; --profile-out BASE additionally writes BASE.perfetto.json
(Chrome/Perfetto trace), BASE.prom (Prometheus text snapshot), and
BASE.windows.jsonl (windowed flight-recorder snapshots), and implies
--profile.

RUN FLAGS (the paper machine at seed 2007 unless given; shared with
`ringctl create`):
";

fn usage() -> String {
    format!("{USAGE}{}", SpecFlags::usage())
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let mut a = Args {
        spec: RunSpec::paper(Protocol::Ring(ProtocolVariant::Uncorq)),
        workers: 1,
        histogram: false,
        trace_out: None,
        stats_out: None,
        metrics_out: None,
        profile: false,
        profile_out: None,
        checkpoint_every: 0,
        checkpoint_dir: "checkpoints".into(),
        checkpoint_keep: 0,
        restore: None,
        list: false,
    };
    let mut run_flags = SpecFlags::default();
    argv.next(); // program name
    while let Some(flag) = argv.next() {
        if run_flags
            .take(&flag, || argv.next())
            .map_err(|e| e.to_string())?
        {
            continue;
        }
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--list" => a.list = true,
            "--workers" => {
                a.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--histogram" => a.histogram = true,
            "--stats-out" => a.stats_out = Some(value("--stats-out")?),
            "--metrics-out" => a.metrics_out = Some(value("--metrics-out")?),
            "--trace-out" => a.trace_out = Some(value("--trace-out")?),
            "--profile" => a.profile = true,
            "--profile-out" => {
                a.profile_out = Some(value("--profile-out")?);
                a.profile = true;
            }
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
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    a.spec = run_flags.finish(a.spec).map_err(|e| e.to_string())?;
    Ok(a)
}

fn print_report(spec: &RunSpec, histogram: bool, report: &Report) {
    let s = &report.stats;
    println!(
        "machine    : {}x{} nodes, seed {}",
        spec.width, spec.height, spec.seed
    );
    println!(
        "protocol   : {}{}",
        spec.protocol,
        if spec.dual_rings { " (dual rings)" } else { "" }
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
    if histogram {
        println!("\ncache-to-cache read miss latency histogram:");
        print!("{}", s.c2c_histogram.render_ascii(48));
    }
}

/// Renders `[(index, value)]` as `L7:123 L2:45`.
fn hot_list(prefix: &str, items: &[(usize, u64)]) -> String {
    if items.is_empty() {
        return "-".into();
    }
    items
        .iter()
        .map(|(i, v)| format!("{prefix}{i}:{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The `--profile` window timeline: one row per flight-recorder window
/// with its event rate, occupancies and hottest links and nodes.
fn window_table(windows: &[WindowSnapshot]) -> String {
    let columns = [
        ("Window end", Align::Right),
        ("Cycles", Align::Right),
        ("Events", Align::Right),
        ("Ev/cyc", Align::Right),
        ("Queue", Align::Right),
        ("LTT", Align::Right),
        ("MSHR", Align::Right),
        ("Retry", Align::Right),
        ("Hottest links", Align::Left),
        ("Hottest nodes", Align::Left),
    ];
    let mut t = Table::new(columns.iter().map(|(h, _)| h.to_string()).collect());
    t.align(columns.iter().map(|&(_, a)| a).collect());
    for w in windows {
        t.row(vec![
            format!("{}", w.window_end),
            format!("{}", w.cycles),
            format!("{}", w.events),
            format!("{:.2}", w.event_rate()),
            format!("{}", w.queue_depth),
            format!("{}", w.ltt_total),
            format!("{}", w.mshr_total),
            format!("{}", w.retries),
            hot_list("L", &w.hottest_links(PROFILE_TOPK)),
            hot_list("n", &w.hottest_nodes(PROFILE_TOPK)),
        ]);
    }
    t.render()
}

/// Aggregates the machine's per-node stall states into an attribution
/// breakdown. After a clean finish everything here is zero; after a cap
/// or stall it says which resource the unfinished nodes are stuck on.
fn stall_attribution<A: NodeAgent>(m: &Sim<A>) -> String {
    let states = m.node_stall_states();
    let unfinished: Vec<u32> = states
        .iter()
        .filter(|s| !s.finished)
        .map(|s| s.node)
        .collect();
    let ltt: usize = states.iter().map(|s| s.ltt_occupancy).sum();
    let outstanding: usize = states.iter().map(|s| s.outstanding).sum();
    let pending: usize = states.iter().map(|s| s.pending_core).sum();
    let retrying: usize = states.iter().map(|s| s.retrying.len()).sum();
    let starving: Vec<u32> = states
        .iter()
        .filter(|s| s.starving_on.is_some())
        .map(|s| s.node)
        .collect();
    let mut out = String::new();
    out.push_str("stall attribution (end of run):\n");
    if unfinished.is_empty() && ltt + outstanding + pending + retrying == 0 {
        out.push_str("  all nodes finished; no residual occupancy\n");
        return out;
    }
    out.push_str(&format!(
        "  unfinished nodes : {} {:?}\n",
        unfinished.len(),
        unfinished
    ));
    out.push_str(&format!("  LTT entries held : {ltt}\n"));
    out.push_str(&format!("  outstanding misses: {outstanding}\n"));
    out.push_str(&format!("  pending core ops : {pending}\n"));
    out.push_str(&format!("  lines in retry   : {retrying}\n"));
    if !starving.is_empty() {
        out.push_str(&format!("  starving nodes   : {starving:?}\n"));
    }
    out
}

/// The `--profile` text around the latency tables: the window
/// timeline before them, the stall attribution after.
struct ProfileText {
    windows: String,
    stalls: String,
}

impl ProfileText {
    fn of<A: NodeAgent>(m: &Sim<A>) -> ProfileText {
        let windows = m.flight().map_or_else(String::new, |f| {
            let snapshots: Vec<WindowSnapshot> = f.snapshots().cloned().collect();
            format!(
                "windows: {} recorded at {}-cycle intervals ({} evicted from ring)\n\n{}",
                f.recorded(),
                FlightConfig::default().interval,
                f.dropped(),
                window_table(&snapshots)
            )
        });
        ProfileText {
            windows,
            stalls: stall_attribution(m),
        }
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
    let windows: Vec<WindowSnapshot> = m
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
) -> Result<(Report, Option<ProfileText>), ExitCode> {
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
    if let Some(l) = args.spec.trace_line {
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
    let text = args.profile.then(|| ProfileText::of(m));
    Ok((r, text))
}

fn list() {
    println!("applications (11 SPLASH-2 + 2 commercial, paper Figure 8(c)):");
    for p in AppProfile::all() {
        println!(
            "  {:<16} {:>6} ops/core, compute ~{:.0} cyc/ref",
            p.name, p.ops_per_core, p.compute_mean
        );
    }
    println!("protocols (name, paper label):");
    for p in Protocol::ALL {
        println!("  {:<16} {}", p.name(), p.label());
    }
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
        list();
        return ExitCode::SUCCESS;
    }
    let (cfg, profile) = match args.spec.build() {
        Ok(built) => built,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.faults.is_some_and(|p| p.profile.needs_reliability()) && !args.spec.reliable {
        eprintln!(
            "note: profile {} destroys frames; enabling the reliable-delivery sublayer \
             (implied --reliable)",
            args.spec
                .chaos_profile
                .as_deref()
                .unwrap_or(DEFAULT_CHAOS_PROFILE)
        );
    }
    let run = match args.spec.protocol {
        Protocol::Ring(_) => {
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
        Protocol::Ht => {
            if args.restore.is_some() || args.checkpoint_every > 0 {
                eprintln!(
                    "--restore/--checkpoint-every are not supported on the HT baseline machine"
                );
                return ExitCode::FAILURE;
            }
            if args.workers > 1 {
                eprintln!("--workers is not supported on the HT baseline machine");
                return ExitCode::FAILURE;
            }
            run_machine(&args, &mut HtMachine::new(cfg, &profile), Sim::try_run)
        }
    };
    let (report, profile_text) = match run {
        Ok(r) => r,
        Err(code) => return code,
    };
    print_report(&args.spec, args.histogram, &report);
    if let Some(p) = profile_text {
        println!();
        println!("{}", p.windows);
        print!("{}", report.latency_table());
        println!();
        print!("{}", p.stalls);
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
