//! The library workloads: `ring64`, `ht64` and `pdes2`.
//!
//! The timed loop runs whole rounds over the workload's cells until
//! `--seconds` have passed; each repeat builds its machine (set-up) and
//! runs it. Throughput comes from each cell's best repeat, the guard
//! against the shared host's slow spells that `bench_sweep` also uses:
//! they last seconds and slow the simulator by up to half, so a median
//! over a run that overlaps one moves with it. Set-up is each cell's
//! median construction time, latency the median of its repeats. Every
//! cell weighs the same however many rounds fit, and every host time is
//! in reference seconds (see [`crate::host::Calibration`]).

use std::time::Instant;

use ring_coherence::ProtocolVariant;
use ring_stats::Summary;
use ring_system::Report;

use crate::cells::{self, Cell, Engine, Outcome};
use crate::host::Calibration;
use crate::oracle;
use crate::report::Run;
use crate::spans::Tracer;
use crate::stats::{best, median};
use crate::{Opts, Workload};

/// Per-core operations of the 8×8 `fmm` cells: about half a second of
/// host time per cell, so a run holds several rounds of the `ring64`
/// grid.
pub const OPS_64: u64 = 2_000;

/// Per-core operations of the `ht64` cells, sized like the ring cells.
pub const OPS_HT: u64 = 4_000;

/// Seeds of the single-protocol workloads `ht64` and `pdes2`: one
/// seed's machine can run 7% faster or slower on the host than another
/// seed's, so each run averages over several (`ring64` averages over its
/// five variants instead).
const SEEDS_PER_CELL: u64 = 4;

/// The cells a library workload cycles through. Sub-seed 0 is the seed
/// itself, the one the pins and cross-path checks use.
pub fn cells(opts: &Opts) -> Vec<Cell> {
    let (side, ops, ops_ht) = if opts.smoke {
        (4, 200, 200)
    } else {
        (8, OPS_64, OPS_HT)
    };
    let cell = |variant, engine, ops, k: u64| Cell {
        variant,
        engine,
        app: "fmm",
        width: side,
        height: side,
        ops,
        seed: opts.seed ^ (k << 32),
    };
    let seeds = 0..SEEDS_PER_CELL;
    match opts.workload {
        Workload::Ring64 => ProtocolVariant::ALL
            .iter()
            .map(|&v| cell(v, Engine::Serial, ops, 0))
            .collect(),
        Workload::Ht64 => seeds
            .map(|k| cell(ProtocolVariant::Eager, Engine::Ht, ops_ht, k))
            .collect(),
        Workload::Pdes2 => seeds
            .map(|k| cell(ProtocolVariant::UncorqPref, Engine::Pdes2, ops, k))
            .collect(),
        Workload::Ringd16 => unreachable!("ringd16 is a service workload"),
    }
}

/// The serial ring cell the traced pass probes layer by layer: the
/// uncorq cell of `ring64`, the ring machine on `ht64`'s configuration
/// (`HtMachine` exposes only `run`), and the serial twin of `pdes2`.
fn probe_cell(workload: Workload, cells: &[Cell]) -> Cell {
    let pick = match workload {
        Workload::Ring64 => ProtocolVariant::Uncorq,
        _ => cells[0].variant,
    };
    let cell = cells
        .iter()
        .find(|c| c.variant == pick)
        .unwrap_or(&cells[0]);
    cell.on(Engine::Serial)
}

pub fn run(opts: &Opts, tr: &mut Tracer, out: &mut Run) -> Calibration {
    let cells = cells(opts);
    let mut units: Vec<Vec<Outcome>> = vec![Vec::new(); cells.len()];
    let mut cal = Calibration::default();
    let mut unit = 0u64;
    let start = Instant::now();
    loop {
        for (i, cell) in cells.iter().enumerate() {
            cal.sample();
            let open = tr.begin("bench", "job", unit);
            let result = cells::run(cell, tr, unit);
            tr.end(open);
            unit += 1;
            out.attempt(result.and_then(|o| {
                // Every repeat of a cell must reproduce its first run.
                let first = units[i].first().map_or(o.digest, |f| f.digest);
                units[i].push(o);
                if first == units[i][units[i].len() - 1].digest {
                    Ok(())
                } else {
                    Err(format!("{}: repeated run changed its digest", cell.label()))
                }
            }));
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    // This process holds one machine at a time: its peak is the
    // footprint of the largest cell.
    let peak_mb = crate::host::memory_mb(None, "VmHWM");
    check(opts, &cells, &units, out);
    if units.iter().any(Vec::is_empty) {
        return cal; // a cell never finished: its failure is already counted
    }
    let round: Vec<&Report> = units.iter().map(|u| &u[0].report).collect();
    if opts.traced {
        layer_metrics(&units, &round, tr, out);
        let probe = probe_cell(opts.workload, &cells);
        if let Some(reference) = crate::layers::probe(&probe, tr, out, &opts.run_dir) {
            crate::service::probe(opts, &probe, reference, tr, out);
        }
        return cal;
    }
    // Summed over cells: each cell's best or median over its repeats,
    // in reference seconds.
    let scale = cal.scale();
    let per_cell = |f: &dyn Fn(&Outcome) -> f64, pick: fn(&[f64]) -> f64| -> f64 {
        units
            .iter()
            .map(|u| pick(&u.iter().map(f).collect::<Vec<_>>()))
            .sum::<f64>()
            * scale
    };
    let run_s = per_cell(&|o| o.run_s, best);
    let sum = |f: fn(&Report) -> u64| round.iter().map(|r| f(r) as f64).sum::<f64>();
    out.put("events_per_s", sum(|r| r.stats.events) / run_s);
    out.put("sim_ops_per_s", sum(|r| r.stats.ops_retired) / run_s);
    out.put(
        "job_p50_s",
        per_cell(&|o| o.new_s + o.run_s, median) / cells.len() as f64,
    );
    out.put("setup_s", per_cell(&|o| o.new_s, median));
    if let Some(mb) = peak_mb {
        out.put("peak_rss_mb", mb);
    }
    out.put("sim_cycles", sum(|r| r.exec_cycles));
    out.put("sim_read_latency_cycles", read_latency(&round));
    cal
}

/// Mean read-miss latency over all of `reports`, in simulated cycles.
/// (The HT machine keeps no latency histograms, only this summary.)
pub fn read_latency(reports: &[&Report]) -> f64 {
    let mut all = Summary::new();
    for r in reports {
        all.merge(&r.stats.read_latency);
    }
    all.mean()
}

/// The untimed output checks of a library workload.
fn check(opts: &Opts, cells: &[Cell], units: &[Vec<Outcome>], out: &mut Run) {
    let first = |i: usize| units[i].first().map(|o| (o.digest, o.report.stats.events));
    // Reruns the cells at the pinned size and checks each digest.
    let pin = |what: &str, pins: &[(ProtocolVariant, u64)], out: &mut Run| {
        let mut observed = Vec::new();
        for c in cells.iter().filter(|c| c.seed == opts.seed) {
            let big = Cell {
                ops: oracle::PIN_OPS_64,
                ..c.clone()
            };
            let mut quiet = Tracer::new(false, Instant::now());
            match cells::run(&big, &mut quiet, 0) {
                Ok(o) => observed.push((c.variant, o.digest)),
                Err(e) => out.attempt(Err(e)),
            }
        }
        for check in oracle::pin_checks(what, pins, &observed) {
            out.attempt(check);
        }
    };
    match opts.workload {
        Workload::Ring64 => {
            // Snapshot, restore and resume reproduce the uninterrupted run.
            if let Some(i) = cells
                .iter()
                .position(|c| c.variant == ProtocolVariant::Uncorq)
            {
                if let Some((want, events)) = first(i) {
                    out.attempt(
                        oracle::resumed_digest(&cells[i], events, &opts.run_dir).and_then(|got| {
                            (got == want).then_some(()).ok_or_else(|| {
                                format!("{}: resumed digest differs", cells[i].label())
                            })
                        }),
                    );
                }
            }
            if pinned(opts) {
                pin("ring64", &oracle::RING64_PINS, out);
            }
        }
        Workload::Ht64 => {
            if pinned(opts) {
                pin("ht64", &oracle::HT64_PINS, out);
            }
        }
        Workload::Pdes2 => {
            // The two-worker engine reproduces the serial engine, which
            // is the ring64 uncorq+pref cell.
            if let Some((want, _)) = first(0) {
                let mut quiet = Tracer::new(false, Instant::now());
                out.attempt(
                    cells::run(&cells[0].on(Engine::Serial), &mut quiet, 0).and_then(|o| {
                        (o.digest == want).then_some(()).ok_or_else(|| {
                            "pdes2: two-worker digest differs from serial".to_string()
                        })
                    }),
                );
            }
        }
        Workload::Ringd16 => unreachable!("ringd16 is a service workload"),
    }
}

/// Whether this run checks the pinned seed-2007 digests.
pub fn pinned(opts: &Opts) -> bool {
    opts.seed == oracle::PIN_SEED && !opts.smoke
}

/// Per-layer counts and costs measured by the timed loop itself.
pub fn layer_metrics(units: &[Vec<Outcome>], round: &[&Report], tr: &Tracer, out: &mut Run) {
    let all: Vec<&Outcome> = units.iter().flatten().collect();
    let run_s: f64 = all.iter().map(|o| o.run_s).sum();
    let events: u64 = all.iter().map(|o| o.report.stats.events).sum();
    out.put("system.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    out.put(
        "system.new_ms",
        median(&all.iter().map(|o| o.new_s).collect::<Vec<_>>()) * 1e3,
    );
    out.put("stats.report_ms", median(&tr.durations("report")) * 1e3);
    let sum = |f: &dyn Fn(&Report) -> u64| round.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let snoops = sum(&|r| r.stats.snoops);
    let skipped = sum(&|r| r.stats.snoops_skipped);
    let reads = sum(&|r| r.stats.read_misses());
    out.put("sim.events", sum(&|r| r.stats.events));
    out.put("noc.messages", sum(&|r| r.stats.traffic.messages()));
    out.put("noc.byte_hops", sum(&|r| r.stats.traffic.total_byte_hops()));
    out.put("core.snoops", snoops);
    out.put("core.snoop_skip_ratio", ratio(skipped, snoops + skipped));
    out.put(
        "core.retry_ratio",
        ratio(sum(&|r| r.stats.retries), sum(&|r| r.stats.transactions)),
    );
    out.put("core.ltt_stalls", sum(&|r| r.stats.ltt_stalls));
    out.put("mem.reads", reads);
    out.put(
        "mem.c2c_fraction",
        ratio(sum(&|r| r.stats.reads_c2c), reads),
    );
    out.put("cpu.ops_retired", sum(&|r| r.stats.ops_retired));
}
