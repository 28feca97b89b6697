//! `bench_sweep` — parallel deterministic perf sweep, the recorder of
//! the repo's perf trajectory.
//!
//! Runs the `(protocol × workload × seed)` grid across worker threads
//! (each run owns its machine and RNG, so results are byte-identical to
//! a serial sweep), measures wall time / events per second / peak queue
//! depth per cell, and writes `BENCH_machine.json`. With `--baseline`,
//! compares throughput against a previously recorded file and fails on
//! regressions beyond the tolerance, on a baseline of another schema,
//! and on a baseline that matches no cell.
//!
//! ```text
//! bench_sweep [--apps fmm] [--seeds 2007] [--ops 20000] [--grids 4x4,8x8]
//!             [--threads N] [--serial] [--out BENCH_machine.json]
//!             [--note TEXT] [--baseline FILE] [--tolerance 0.20]
//!             [--check-determinism]
//! ```

use std::process::ExitCode;

use bench::sweep::{
    compare, default_grid, gate, parse_bench_json, parse_bench_schema, run_sweep_workers,
    write_bench_json, Comparison,
};
use ring_coherence::ProtocolVariant;
use ring_stats::{Align, Table};
use ring_system::Machine;
use ring_trace::{FlightConfig, FlightRecorder};
use ring_workloads::AppProfile;

struct Args {
    apps: Vec<String>,
    seeds: Vec<u64>,
    ops: u64,
    grids: Vec<(usize, usize)>,
    protocols: Vec<ProtocolVariant>,
    threads: usize,
    workers: usize,
    repeat: usize,
    out: String,
    note: String,
    baseline: Option<String>,
    tolerance: f64,
    check_determinism: bool,
    profile: bool,
    profile_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            apps: vec!["fmm".into()],
            seeds: vec![bench::SEED],
            ops: 20_000,
            grids: vec![(4, 4), (8, 8)],
            protocols: ProtocolVariant::ALL.to_vec(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            workers: 1,
            repeat: 1,
            out: "BENCH_machine.json".into(),
            note: "perf sweep".into(),
            baseline: None,
            tolerance: 0.20,
            check_determinism: false,
            profile: false,
            profile_out: None,
        }
    }
}

const USAGE: &str = "usage: bench_sweep [--apps A,B] [--seeds S1,S2] [--ops N] [--grids 4x4,8x8]
                   [--protocols eager,uncorq] [--threads N] [--serial]
                   [--workers N] [--repeat N] [--out FILE] [--note TEXT]
                   [--baseline FILE] [--tolerance FRACTION]
                   [--check-determinism] [--profile] [--profile-out PREFIX]

--threads fans independent cells out across OS threads; --workers runs
each machine on the in-engine conservative-PDES parallel engine with N
total threads (1 = serial engine). Both are digest-neutral; workers is
recorded per row and keys baseline matching.

--profile re-runs each cell serially after the timed sweep with a
flight recorder installed (so wall-clock numbers stay clean) and writes
one windowed-snapshot JSONL stream per cell to PREFIX.<cell>.jsonl
(default prefix BENCH_profile). --profile-out implies --profile.";

fn parse_grid(v: &str) -> Result<(usize, usize), String> {
    let (w, h) = v
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("grid expects WxH, got {v}"))?;
    Ok((
        w.parse().map_err(|e| format!("grid width: {e}"))?,
        h.parse().map_err(|e| format!("grid height: {e}"))?,
    ))
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
            "--apps" => a.apps = value("--apps")?.split(',').map(String::from).collect(),
            "--seeds" => {
                a.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--ops" => a.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--grids" => {
                a.grids = value("--grids")?
                    .split(',')
                    .map(parse_grid)
                    .collect::<Result<_, _>>()?
            }
            "--protocols" => {
                a.protocols = value("--protocols")?
                    .split(',')
                    .map(|s| {
                        ProtocolVariant::by_name(s).ok_or_else(|| format!("unknown protocol {s}"))
                    })
                    .collect::<Result<_, _>>()?
            }
            "--threads" => {
                a.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--serial" => a.threads = 1,
            "--workers" => {
                a.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--repeat" => {
                a.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => a.out = value("--out")?,
            "--note" => a.note = value("--note")?,
            "--baseline" => a.baseline = Some(value("--baseline")?),
            "--tolerance" => {
                a.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--check-determinism" => a.check_determinism = true,
            "--profile" => a.profile = true,
            "--profile-out" => {
                a.profile_out = Some(value("--profile-out")?);
                a.profile = true;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut cells = default_grid(&args.apps, &args.seeds, args.ops, &args.grids);
    cells.retain(|c| args.protocols.contains(&c.variant));
    eprintln!(
        "sweep: {} cells ({} apps x {} seeds x {} grids x {} protocols), \
         {} threads, {} engine workers",
        cells.len(),
        args.apps.len(),
        args.seeds.len(),
        args.grids.len(),
        args.protocols.len(),
        args.threads,
        args.workers.max(1)
    );
    let results = run_sweep_workers(&cells, args.threads, args.repeat, args.workers);

    if args.check_determinism {
        eprintln!("re-running serially to verify parallel determinism...");
        let serial = run_sweep_workers(&cells, 1, 1, 1);
        for (p, s) in results.iter().zip(&serial) {
            if p.determinism_key() != s.determinism_key() {
                eprintln!(
                    "DETERMINISM VIOLATION:\n  parallel: {}\n  serial:   {}",
                    p.determinism_key(),
                    s.determinism_key()
                );
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "determinism: parallel sweep identical to serial ({} cells)",
            cells.len()
        );
    }

    let mut t = Table::new(
        [
            "Cell",
            "Exec cycles",
            "Events",
            "Peak queue",
            "Lat p50",
            "Lat p99",
            "Wall s",
            "Events/s",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &results {
        t.row(vec![
            format!(
                "{}/{}n/{}@{}x{}w",
                r.protocol, r.nodes, r.app, r.seed, r.workers
            ),
            format!("{}", r.exec_cycles),
            format!("{}", r.events),
            format!("{}", r.peak_queue),
            format!("{}", r.lat_p50),
            format!("{}", r.lat_p99),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.events_per_sec),
        ]);
    }
    println!("{}", t.render());

    let mut baseline_schema: Option<String> = None;
    let cmp: Option<Comparison> = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                baseline_schema = parse_bench_schema(&text);
                let rows = parse_bench_json(&text);
                if rows.is_empty() {
                    eprintln!("baseline {path}: no parseable rows");
                    return ExitCode::FAILURE;
                }
                Some(compare(&results, &rows, path))
            }
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut buf = Vec::new();
    if write_bench_json(&mut buf, &args.note, args.threads, &results, cmp.as_ref()).is_err()
        || std::fs::write(&args.out, &buf).is_err()
    {
        eprintln!("cannot write {}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.out);

    if args.profile {
        let prefix = args
            .profile_out
            .clone()
            .unwrap_or_else(|| "BENCH_profile".into());
        if let Err(e) = write_profiles(&cells, &prefix) {
            eprintln!("profile pass failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(c) = &cmp {
        for (cell, old, ratio) in &c.matched {
            println!("vs baseline {cell}: {old:.0} -> x{ratio:.2}");
        }
        for cell in &c.unmatched {
            eprintln!("no baseline row for {cell}");
        }
        if let Err(why) = gate(c, baseline_schema.as_deref(), args.tolerance) {
            eprintln!("{why}");
            return ExitCode::FAILURE;
        }
        println!(
            "baseline check passed: min ratio x{:.2} (floor {:.2})",
            c.min_ratio,
            1.0 - args.tolerance
        );
    }
    ExitCode::SUCCESS
}

/// Re-runs each cell serially with a flight recorder installed and
/// writes its windowed snapshots to `PREFIX.<cell>.jsonl`. Kept out of
/// the timed sweep so profiling never pollutes the wall-clock rows.
fn write_profiles(cells: &[bench::sweep::SweepCell], prefix: &str) -> Result<(), String> {
    for cell in cells {
        let profile = AppProfile::by_name(&cell.app)
            .ok_or_else(|| format!("unknown app profile {}", cell.app))?
            .scaled(cell.ops);
        let mut m = Machine::new(cell.config(), &profile);
        m.enable_flight_recorder(FlightRecorder::new(FlightConfig::default()));
        let _ = m.run();
        let label = cell.label().replace('/', "_");
        let path = format!("{prefix}.{label}.jsonl");
        let file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        let mut file = std::io::BufWriter::new(file);
        let rec = m.flight().expect("recorder was installed");
        rec.write_jsonl(&mut file)
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "profiled {} -> {path} ({} windows)",
            cell.label(),
            rec.len()
        );
    }
    Ok(())
}
