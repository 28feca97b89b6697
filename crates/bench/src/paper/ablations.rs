//! Ablations of the design choices the paper argues for but does not
//! (or cannot) switch off in its own evaluation.

use ring_cache::LineAddr;
use ring_coherence::ProtocolVariant::{Eager, Uncorq, UncorqPref};
use ring_cpu::Op;
use ring_stats::{Align::Left, Align::Right, Summary, Table};
use ring_system::{Machine, MachineConfig, Protocol, RunSpec};
use ring_workloads::AppProfile;

use super::each_app;
use crate::{app_arg, finished, run_cell, run_cell_with, table};

/// One setting of a ring knob: its row label and the change it makes.
type Setting = (&'static str, fn(&mut MachineConfig));

/// Eager and Uncorq on `profile` under each setting of one ring knob:
/// the shared shape of the embedding and dual-ring ablations.
fn ring_knob(header: &str, profile: &AppProfile, settings: [Setting; 2]) -> Result<Table, String> {
    let mut t = table(&[
        (header, Left),
        ("Protocol", Left),
        ("Exec (cyc)", Right),
        ("Read miss lat", Right),
        ("Mem-path lat", Right),
    ]);
    for proto in [Protocol::Ring(Eager), Protocol::Ring(Uncorq)] {
        for (label, tweak) in settings {
            let r = run_cell_with(proto, profile, &format!(", {label}"), tweak)?;
            t.row(vec![
                label.into(),
                proto.label().to_string(),
                r.exec_cycles.to_string(),
                format!("{:.0}", r.stats.read_latency.mean()),
                format!("{:.0}", r.stats.read_latency_mem.mean()),
            ]);
        }
    }
    Ok(t)
}

/// §2.1 load balancing — "messages to different line addresses can use
/// ... the same ring with different directions". Odd lines lap the snake
/// in reverse, splitting response traffic across both directed link sets.
pub(super) fn dual_ring(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "ocean")?;
    let t = ring_knob(
        "Rings",
        &profile,
        [
            ("single", |_| {}),
            ("dual (split by parity)", |c| c.dual_rings = true),
        ],
    )?;
    println!(
        "Ablation — dual-direction ring load balancing on `{}`\n",
        profile.name
    );
    println!("{}", t.render());
    Ok(())
}

/// Ring embedding. The boustrophedon (snake) embedding gives every
/// logical ring hop exactly one physical link; naive row-major order
/// pays extra links on row wrap, lengthening every response lap.
pub(super) fn embedding(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "fmm")?;
    let t = ring_knob(
        "Embedding",
        &profile,
        [
            ("snake", |_| {}),
            ("row-major", |c| c.ring_row_major = true),
        ],
    )?;
    println!("Ablation — ring embedding on `{}`\n", profile.name);
    println!("{}", t.render());
    println!("The snake's single-link hops keep the response lap at 64 links;");
    println!("row-major pays ~7 extra links per lap on the row wraps.");
    Ok(())
}

/// The cost of enforcing the Ordering invariant. The LTT cannot be
/// turned off (it is the correctness mechanism), so this reports what
/// enforcement costs in practice: how many responses were stalled by the
/// WID rule, the peak table occupancy, and how both scale with collision
/// pressure.
pub(super) fn ltt(_: &[String]) -> Result<(), String> {
    let mut t = table(&[
        ("Application", Left),
        ("Transactions", Right),
        ("LTT-stalled r's", Right),
        ("per 1k txns", Right),
        ("Peak LTT entries", Right),
    ]);
    each_app(|profile| {
        let s = run_cell(Protocol::Ring(Uncorq), profile)?.stats;
        t.row(vec![
            profile.name.clone(),
            s.transactions.to_string(),
            s.ltt_stalls.to_string(),
            format!(
                "{:.2}",
                1000.0 * s.ltt_stalls as f64 / s.transactions.max(1) as f64
            ),
            s.ltt_peak.to_string(),
        ]);
        Ok(())
    })?;
    println!("Ablation — Ordering-invariant enforcement cost (Uncorq, LTT)\n");
    println!("{}", t.render());
    println!("Stalls are rare (collisions are rare) and the peak occupancy sits");
    println!("far below the provisioned 512 entries — matching the paper's sizing");
    println!("discussion in §5.1.");
    Ok(())
}

/// Memory-controller concurrency. The paper models memory as a flat
/// 224-cycle round trip; this sweep shows what controller queueing would
/// do to each protocol (HT suffers most — its home nodes fetch
/// speculatively on every transaction).
pub(super) fn mem(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "fft")?;
    let mut t = table(&[
        ("Controller slots", Right),
        ("Uncorq mem lat", Right),
        ("Uncorq exec", Right),
        ("HT mem lat", Right),
        ("HT exec", Right),
    ]);
    for slots in [1usize, 4, 16, 64] {
        let mut row = vec![slots.to_string()];
        for proto in [Protocol::Ring(Uncorq), Protocol::Ht] {
            let variant = format!(" with {slots} controller slots");
            let r = run_cell_with(proto, &profile, &variant, |c| c.mem.max_in_flight = slots)?;
            row.push(format!("{:.0}", r.stats.read_latency_mem.mean()));
            row.push(r.exec_cycles.to_string());
        }
        t.row(row);
    }
    println!(
        "Ablation — memory controller concurrency on `{}`\n",
        profile.name
    );
    println!("{}", t.render());
    Ok(())
}

/// Node Prefetch Predictor capacity (the paper uses 8K line addresses).
/// Capacity 0 degenerates to "prefetch every miss" — the wasteful design
/// §5.4 warns against; small tables forget hot lines and prefetch them
/// uselessly (Pref,Cache grows).
pub(super) fn npp(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "fmm")?;
    let mut t = table(&[
        ("NPP entries", Right),
        ("Read miss lat", Right),
        ("Pref,Cache %", Right),
        ("Pref coverage %", Right),
        ("Exec (cyc)", Right),
    ]);
    for entries in [0usize, 512, 2048, 8192, 32768] {
        let variant = format!(" with {entries} NPP entries");
        let r = run_cell_with(Protocol::Ring(UncorqPref), &profile, &variant, |c| {
            c.protocol.npp_entries = entries
        })?;
        let s = &r.stats;
        let total = (s.pref_cache + s.nopref_cache + s.nopref_mem + s.pref_mem).max(1) as f64;
        let coverage = s.pref_mem as f64 / (s.pref_mem + s.nopref_mem).max(1) as f64;
        t.row(vec![
            if entries == 0 {
                "0 (always prefetch)".into()
            } else {
                entries.to_string()
            },
            format!("{:.0}", s.read_latency.mean()),
            format!("{:.1}", 100.0 * s.pref_cache as f64 / total),
            format!("{:.0}", 100.0 * coverage),
            r.exec_cycles.to_string(),
        ]);
    }
    println!(
        "Ablation — Node Prefetch Predictor capacity on `{}` (Uncorq+Pref)\n",
        profile.name
    );
    println!("{}", t.render());
    Ok(())
}

/// The §5.5 supplier-status-transfer extension. By default, every
/// successful transaction transfers supplier status to the requester, so
/// two colliding cache-to-cache *reads* squash one of the pair. The
/// extension keeps the designation at the old supplier and hands out
/// Shared copies, eliminating read-read squashes — the paper describes
/// it but does not evaluate it. The default app, radiosity, is
/// read-mostly: it stresses exactly the colliding-read case.
pub(super) fn read_transfer(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "radiosity")?;
    let mut t = table(&[
        ("Read suppliership", Left),
        ("Exec (cyc)", Right),
        ("Retries", Right),
        ("c2c lat", Right),
        ("Mem misses", Right),
    ]);
    for (label, keep) in [
        ("transferred (default)", false),
        ("kept at supplier (§5.5)", true),
    ] {
        let r = run_cell_with(
            Protocol::Ring(Uncorq),
            &profile,
            &format!(", {label}"),
            |c| c.protocol.reads_keep_supplier = keep,
        )?;
        t.row(vec![
            label.into(),
            r.exec_cycles.to_string(),
            r.stats.retries.to_string(),
            format!("{:.0}", r.stats.read_latency_c2c.mean()),
            r.stats.reads_mem.to_string(),
        ]);
    }
    println!(
        "Ablation — §5.5 read suppliership transfer on `{}` (Uncorq)\n",
        profile.name
    );
    println!("{}", t.render());
    println!("Keeping the designation removes read-read squashes (fewer retries);");
    println!("the trade-off is a more static supplier placement.");
    Ok(())
}

/// Per-node op streams of a hot-lock workload: every node takes one of
/// 8 lock lines per round, so collisions are constant.
fn lock_streams(nodes: usize, rounds: usize) -> Vec<Box<dyn Iterator<Item = Op> + Send>> {
    (0..nodes)
        .map(|n| {
            let mut ops = Vec::new();
            for r in 0..rounds {
                ops.push(Op::Compute((n as u32 * 5) % 13 + 2));
                let lock = LineAddr::new(((r + n) % 8) as u64);
                ops.push(Op::Read(lock));
                ops.push(Op::Write(lock));
                ops.push(Op::Fence);
            }
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect()
}

/// Winner-selection policy (paper §3.3.2). The paper's hierarchy
/// (transaction type > random tiebreak > node id) is compared against
/// the node-id-only strawman ("unfair, but it never ties") on a hot-lock
/// workload where collisions are constant.
pub(super) fn winner(_: &[String]) -> Result<(), String> {
    let mut t = table(&[
        ("Policy", Left),
        ("Exec (cyc)", Right),
        ("Retries", Right),
        ("Starvation events", Right),
        ("Retry fairness (stddev)", Right),
    ]);
    for (label, node_id_only) in [("type > random > id", false), ("node-id only", true)] {
        let (mut cfg, _) = RunSpec::paper(Protocol::Ring(Uncorq))
            .build()
            .map_err(|e| e.to_string())?;
        cfg.protocol.winner_node_id_only = node_id_only;
        let nodes = cfg.nodes();
        let mut m = Machine::with_streams(cfg, lock_streams(nodes, 120));
        let r = finished(&format!("Uncorq on hot locks, {label}"), m.run())?;
        // Per-node retry spread as a fairness measure.
        let mut spread = Summary::new();
        for a in m.agents() {
            spread.record(a.stats().retries as f64);
        }
        t.row(vec![
            label.into(),
            r.exec_cycles.to_string(),
            r.stats.retries.to_string(),
            r.stats.starvation_events.to_string(),
            format!("{:.1}", spread.stddev()),
        ]);
    }
    println!("Ablation — winner-selection policy (64 cores, 8 hot lock lines)\n");
    println!("{}", t.render());
    println!("Both policies sustain forward progress; the paper prefers the");
    println!("hierarchy because the type rank minimizes memory accesses and the");
    println!("random tiebreak removes systematic bias, at identical hardware cost.");
    Ok(())
}
