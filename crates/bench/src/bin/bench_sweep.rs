//! `bench_sweep` — the determinism gate over the deterministic sweep.
//!
//! Runs the `(protocol × workload × seed)` grid across worker threads
//! (each run owns its machine and RNG) and, with `--workers`, on the
//! conservative-PDES engine inside each cell. It then re-runs the grid
//! serially on the serial engine and fails unless every cell's
//! deterministic key (cycles, events, peak queue, report digest) is
//! identical. stdout holds only deterministic columns, so two runs of
//! the same flags print the same bytes. Host timing is ringbench's job.
//!
//! ```text
//! bench_sweep [--apps fmm] [--seeds 2007] [--ops 20000] [--grids 4x4,8x8]
//!             [--protocols eager,uncorq] [--threads N] [--workers N]
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use bench::sweep::{default_grid, run_sweep};
use bench::table;
use ring_coherence::ProtocolVariant;
use ring_stats::Align::{Left, Right};

struct Args {
    apps: Vec<String>,
    seeds: Vec<u64>,
    ops: u64,
    grids: Vec<(usize, usize)>,
    protocols: Vec<ProtocolVariant>,
    threads: usize,
    workers: usize,
}

const USAGE: &str = "usage: bench_sweep [--apps A,B] [--seeds S1,S2] [--ops N] [--grids 4x4,8x8]
                   [--protocols eager,uncorq] [--threads N] [--workers N]

--threads fans independent cells out across OS threads; --workers runs
each machine on the in-engine conservative-PDES parallel engine with N
total threads (1 = serial engine). The grid is then re-run serially on
the serial engine, and any difference in a cell's deterministic key
fails the run.";

/// Parses one flag value, naming the flag in errors.
fn parsed<T: FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a comma-separated list with `item`.
fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(item).collect()
}

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
    let mut a = Args {
        apps: vec!["fmm".into()],
        seeds: vec![bench::SEED],
        ops: 20_000,
        grids: vec![(4, 4), (8, 8)],
        protocols: ProtocolVariant::ALL.to_vec(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers: 1,
    };
    argv.next();
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--apps" => a.apps = value()?.split(',').map(String::from).collect(),
            "--seeds" => a.seeds = list(&value()?, |s| parsed(&flag, s))?,
            "--ops" => a.ops = parsed(&flag, &value()?)?,
            "--grids" => a.grids = list(&value()?, parse_grid)?,
            "--protocols" => {
                a.protocols = list(&value()?, |s| {
                    ProtocolVariant::by_name(s).ok_or_else(|| format!("unknown protocol {s}"))
                })?
            }
            "--threads" => a.threads = parsed(&flag, &value()?)?,
            "--workers" => a.workers = parsed(&flag, &value()?)?,
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
        "sweep: {} cells, {} threads, {} engine workers; then again serially",
        cells.len(),
        args.threads,
        args.workers.max(1)
    );
    let results = run_sweep(&cells, args.threads, args.workers);
    let serial = run_sweep(&cells, 1, 1);
    for (r, s) in results.iter().zip(&serial) {
        if r.determinism_key() != s.determinism_key() {
            eprintln!(
                "DETERMINISM VIOLATION:\n  requested: {}\n  serial:    {}",
                r.determinism_key(),
                s.determinism_key()
            );
            return ExitCode::FAILURE;
        }
    }

    let mut t = table(&[
        ("Cell", Left),
        ("Exec cycles", Right),
        ("Events", Right),
        ("Peak queue", Right),
        ("Lat p50", Right),
        ("Lat p99", Right),
        ("Digest", Right),
    ]);
    for (c, r) in cells.iter().zip(&results) {
        t.row(vec![
            c.label(),
            r.exec_cycles.to_string(),
            r.events.to_string(),
            r.peak_queue.to_string(),
            r.lat_p50.to_string(),
            r.lat_p99.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }
    println!("{}", t.render());
    eprintln!(
        "determinism: sweep identical to the serial re-run ({} cells)",
        cells.len()
    );
    ExitCode::SUCCESS
}
