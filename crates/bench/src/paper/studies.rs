//! Development studies beside the paper's figures: profile calibration,
//! directed latency probes and the node-count scaling study.

use ring_cache::{LineAddr, LineState};
use ring_coherence::ProtocolKind::{self, Eager, Uncorq};
use ring_cpu::Op;
use ring_noc::NodeId;
use ring_stats::{Align::Left, Align::Right};
use ring_system::{Machine, MachineConfig, Report};
use ring_workloads::AppProfile;

use crate::{app, app_arg, finished, maybe_fast, run_cell, run_cell_with, table, Proto};

/// Calibration sweep: per-app latency and c2c fraction for each
/// protocol, side by side with the paper's Figure 8(c) targets — the
/// tool used to tune the workload profiles. Takes app names; defaults to
/// all of them.
pub(super) fn calibrate(args: &[String]) -> Result<(), String> {
    let profiles: Vec<AppProfile> = if args.is_empty() {
        AppProfile::all().into_iter().map(maybe_fast).collect()
    } else {
        args.iter().map(|a| app(a)).collect::<Result<_, _>>()?
    };
    let mut columns = vec![("App", Left)];
    columns.extend(
        [
            "Eager", "Uncorq", "U+Pref", "HT", "c2c%", "tgt", "E c2c", "U c2c", "retries",
        ]
        .map(|h| (h, Right)),
    );
    let mut t = table(&columns);
    for p in profiles {
        let e = run_cell(Proto::Ring(Eager), &p)?;
        let u = run_cell(Proto::Ring(Uncorq), &p)?;
        let up = run_cell(Proto::UncorqPref, &p)?;
        let ht = run_cell(Proto::Ht, &p)?;
        let (es, us, ups, hts) = (&e.stats, &u.stats, &up.stats, &ht.stats);
        // Paper c2c targets are encoded in the profile shares.
        let shared = p.shared_migratory + p.shared_read_mostly + p.shared_producer_consumer;
        let tgt = shared / (shared + (1.0 - shared) * p.private_miss_rate);
        t.row(vec![
            p.name.clone(),
            format!("{:.0}", es.read_latency.mean()),
            format!("{:.0}", us.read_latency.mean()),
            format!("{:.0}", ups.read_latency.mean()),
            format!("{:.0}", hts.read_latency.mean()),
            format!("{:.0}", 100.0 * us.c2c_fraction()),
            format!("{:.0}", 100.0 * tgt),
            format!("{:.0}", es.read_latency_c2c.mean()),
            format!("{:.0}", us.read_latency_c2c.mean()),
            format!("{}", es.retries + us.retries),
        ]);
        eprintln!(
            "  mem lat: E={:.0} U={:.0} U+P={:.0} HT={:.0} | ltt stalls E={} U={} | retries E={} U={} | HT c2c={:.0}",
            es.read_latency_mem.mean(),
            us.read_latency_mem.mean(),
            ups.read_latency_mem.mean(),
            hts.read_latency_mem.mean(),
            es.ltt_stalls,
            us.ltt_stalls,
            es.retries,
            us.retries,
            hts.read_latency_c2c.mean(),
        );
        eprintln!(
            "{}: exec E={} U={} U+P={} HT={} (finished: {}{}{}{})",
            p.name,
            e.exec_cycles,
            u.exec_cycles,
            up.exec_cycles,
            ht.exec_cycles,
            e.finished,
            u.finished,
            up.finished,
            ht.finished
        );
    }
    println!("{}", t.render());
    Ok(())
}

/// Runs `kind` on the paper machine (default seed) with one finite op
/// stream per node, after `warm` has pre-installed lines.
fn probe(
    kind: ProtocolKind,
    per_node: impl Fn(usize) -> Vec<Op>,
    warm: impl FnOnce(&mut Machine),
) -> Result<Report, String> {
    let cfg = MachineConfig::paper(kind);
    let streams = (0..cfg.nodes())
        .map(|n| Box::new(per_node(n).into_iter()) as Box<dyn Iterator<Item = Op> + Send>)
        .collect();
    let mut m = Machine::with_streams(cfg, streams);
    warm(&mut m);
    finished(&format!("{kind} probe"), m.run())
}

/// Directed probes of transaction latency anatomy. Probe 1: one read
/// miss on an idle machine (pure r-lap + memory). Probe 2: all 64 nodes
/// miss distinct private lines simultaneously (worst-case burst
/// contention). Probe 3: one cache-to-cache transfer at ring distance 32.
pub(super) fn probe_single_miss(_: &[String]) -> Result<(), String> {
    let miss = LineAddr::new(0x999_000);
    println!("probe 1: single idle-machine read miss (memory)");
    for kind in [Eager, Uncorq] {
        let only_node0 = |n: usize| if n == 0 { vec![Op::Read(miss)] } else { vec![] };
        let r = probe(kind, only_node0, |_| {})?;
        println!("  {kind}: mem_lat={:.0}", r.stats.read_latency_mem.mean());
    }

    println!("probe 2: 64 simultaneous private read misses (burst)");
    for kind in [Eager, Uncorq] {
        let every_node = |n: usize| vec![Op::Read(LineAddr::new(0x999_000 + n as u64))];
        let r = probe(kind, every_node, |_| {})?;
        println!(
            "  {kind}: mem_lat avg={:.0} max={:.0}",
            r.stats.read_latency_mem.mean(),
            r.stats.read_latency_mem.max().unwrap_or(0.0)
        );
    }

    println!("probe 3: single c2c transfer, supplier at ring distance 32");
    let line = LineAddr::new(0x555_000);
    for kind in [Eager, Uncorq] {
        let only_node0 = |n: usize| if n == 0 { vec![Op::Read(line)] } else { vec![] };
        let r = probe(kind, only_node0, |m| {
            m.warm_line(NodeId(32), line, LineState::Exclusive)
        })?;
        println!("  {kind}: c2c_lat={:.0}", r.stats.read_latency_c2c.mean());
    }
    Ok(())
}

/// Scaling study: the paper's introduction motivates embedded-ring
/// snooping for "medium-scale shared-memory multiprocessors with 32-128
/// processor cores". This runs one profile on 16-, 32-, 64- and 128-node
/// tori and shows the asymmetry the design exploits: Eager's
/// cache-to-cache latency grows with the ring length (requests walk the
/// ring), while Uncorq's stays near-flat (requests go point-to-point);
/// the response lap — off the critical path for reads — grows linearly
/// for both.
pub(super) fn sweep_scale(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "fmm")?;
    let mut t = table(&[
        ("Nodes", Right),
        ("Eager c2c", Right),
        ("Uncorq c2c", Right),
        ("c2c speedup", Right),
        ("Eager mem", Right),
        ("Uncorq mem", Right),
        ("Exec ratio U/E", Right),
    ]);
    for (w, h) in [(4usize, 4usize), (8, 4), (8, 8), (16, 8)] {
        let run = |kind| {
            run_cell_with(Proto::Ring(kind), &profile, &format!(" at {w}x{h}"), |c| {
                (c.width, c.height) = (w, h)
            })
        };
        let (e, u) = (run(Eager)?, run(Uncorq)?);
        let (ec2c, uc2c) = (
            e.stats.read_latency_c2c.mean(),
            u.stats.read_latency_c2c.mean(),
        );
        t.row(vec![
            (w * h).to_string(),
            format!("{ec2c:.0}"),
            format!("{uc2c:.0}"),
            format!("{:.1}x", ec2c / uc2c),
            format!("{:.0}", e.stats.read_latency_mem.mean()),
            format!("{:.0}", u.stats.read_latency_mem.mean()),
            format!("{:.2}", u.exec_cycles as f64 / e.exec_cycles as f64),
        ]);
        eprintln!("  done: {w}x{h}");
    }
    println!(
        "Scaling study on `{}` (paper motivation: 32-128 cores)\n",
        profile.name
    );
    println!("{}", t.render());
    println!("Eager's c2c latency grows with node count (the request walks the");
    println!("ring); Uncorq's grows only with network diameter. The memory path");
    println!("(the full response lap) grows linearly for both — the cost the");
    println!("§5.4 prefetching optimization targets.");
    Ok(())
}
