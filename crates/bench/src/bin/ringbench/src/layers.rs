//! Per-layer probes for the traced pass.
//!
//! Each probe measures one layer on the workload's probe cell, from
//! outside, through the layer's public API: the sliced and the
//! two-worker event loop (`system`), the event queue under a hold model
//! at the cell's peak occupancy (`sim`), the cell's own network
//! messages replayed into a fresh `Network` (`noc`), the protocol agent
//! and its LTT (`core`), the op streams replayed through cache arrays
//! (`cache`), a memory controller (`mem`) and a core model (`cpu`), the
//! op generator (`workloads`), a run with a trace sink installed
//! (`trace`), and a mid-run snapshot (`snapshot`).

use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ring_cache::{CacheArray, LineAddr, LineState};
use ring_coherence::{
    AgentInput, Ltt, Priority, ProtocolKind, RequestMsg, ResponseMsg, RingAgent, RingMsg, TxnId,
    TxnKind, CONTROL_BYTES, DATA_BYTES,
};
use ring_cpu::{Core, L2View, NextStep};
use ring_mem::MemoryController;
use ring_noc::{Channel, Network, NodeId, Torus};
use ring_sim::{DetRng, EventQueue};
use ring_system::{Machine, RunProgress};
use ring_trace::{EventKind, Payload, TraceEvent, TraceSink};
use ring_workloads::WorkloadGen;

use crate::cells::{digest, Cell};
use crate::report::Run;
use crate::spans::Tracer;
use crate::stats::percentile;

/// Events per `try_run_slice` call: the `ringd` worker's slice.
const SLICE_EVENTS: u64 = 4096;

/// Network messages captured per cell for the replay.
const CAPTURE_CAP: usize = 1 << 20;

/// Pop-and-reschedule operations of the queue hold model.
const HOLD_OPS: usize = 1 << 20;

/// Read transactions driven through the probe agent.
const AGENT_READS: u64 = 200_000;

/// Slot lifecycles driven through the probe LTT.
const LTT_CYCLES: u64 = 500_000;

/// Nodes whose op streams feed the cache, memory, core and generator
/// probes.
const REPLAY_NODES: usize = 4;

/// What the server probe needs from the in-process reference run.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub digest: u64,
    pub run_s: f64,
}

/// A network message seen in the trace stream.
#[derive(Debug, Clone, Copy)]
struct Msg {
    cycle: u64,
    from: u32,
    to: u32,
    data: bool,
    channel: Channel,
}

/// A sink that counts every trace event and keeps the first
/// [`CAPTURE_CAP`] unicasts and multicasts for the network replay.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Captured>>);

#[derive(Default)]
struct Captured {
    events: u64,
    unicasts: Vec<Msg>,
    multicasts: Vec<(u64, u32)>,
}

impl TraceSink for Capture {
    fn record(&mut self, ev: &TraceEvent) {
        let mut c = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        c.events += 1;
        let msg = |to, data, channel| Msg {
            cycle: ev.cycle,
            from: ev.node,
            to,
            data,
            channel,
        };
        match ev.kind {
            EventKind::RingSend { to, payload } if c.unicasts.len() < CAPTURE_CAP => {
                let ch = match payload {
                    Payload::Request { .. } => Channel::Request,
                    Payload::Response { .. } => Channel::Response,
                };
                c.unicasts.push(msg(to, false, ch));
            }
            EventKind::Suppliership { to, with_data } if c.unicasts.len() < CAPTURE_CAP => {
                let ch = if with_data {
                    Channel::Data
                } else {
                    Channel::Response
                };
                c.unicasts.push(msg(to, with_data, ch));
            }
            EventKind::MulticastRequest { .. } if c.multicasts.len() < CAPTURE_CAP => {
                c.multicasts.push((ev.cycle, ev.node));
            }
            _ => {}
        }
    }
}

/// Runs every library-layer probe on `cell` (a serial ring cell) and
/// records its metrics. Returns the in-process reference for the
/// server probe, or `None` if the cell could not be run.
pub fn probe(
    cell: &Cell,
    tr: &mut Tracer,
    run: &mut Run,
    dir: &std::path::Path,
) -> Option<Reference> {
    let label = cell.label();
    let unit = u64::MAX; // probe spans share one unit id
    let (cfg, profile) = (cell.config(), cell.profile());

    // system: the serial loop in ringd-sized slices.
    let open = tr.begin("system", "new", unit);
    let mut m = Machine::new(cfg.clone(), &profile);
    tr.end(open);
    let mut slices = Vec::new();
    let report = loop {
        let open = tr.begin("system", "slice", unit);
        let t = Instant::now();
        let step = m.try_run_slice(SLICE_EVENTS);
        slices.push(t.elapsed().as_secs_f64());
        tr.end(open);
        match step {
            Ok(RunProgress::Yielded { .. }) => {}
            Ok(RunProgress::Done(report)) => break *report,
            Err(stall) => {
                run.attempt(Err(format!("{label} stalled in slices: {stall}")));
                return None;
            }
        }
    };
    let serial_s: f64 = slices.iter().sum();
    let serial_digest = digest(&report);
    let events = report.stats.events;
    run.put("system.slice_p50_us", percentile(&slices, 50.0) * 1e6);
    run.put("system.slice_p99_us", percentile(&slices, 99.0) * 1e6);
    run.put("sim.peak_queue", m.queue_peak() as f64);
    drop(m);

    // system: the same cell on the two-worker engine.
    let mut m = Machine::new(cfg.clone(), &profile);
    let cpu0 = crate::host::cpu_seconds(None).unwrap_or(f64::NAN);
    let open = tr.begin("system", "run_parallel", unit);
    let t = Instant::now();
    let par = m.try_run_parallel(2);
    let par_s = t.elapsed().as_secs_f64();
    tr.end(open);
    let cpu = crate::host::cpu_seconds(None).unwrap_or(f64::NAN) - cpu0;
    drop(m);
    run.attempt(match par {
        Ok(r) if digest(&r) == serial_digest => Ok(()),
        Ok(_) => Err(format!("{label}: two-worker digest differs from serial")),
        Err(stall) => Err(format!("{label} stalled on two workers: {stall}")),
    });
    run.put("system.pdes_speedup", serial_s / par_s);
    run.put("system.pdes_cpu_util", cpu / (2.0 * par_s));

    // trace: the same run with a sink installed, which also captures
    // the network messages for the noc replay.
    let capture = Capture::default();
    let mut m = Machine::new(cfg.clone(), &profile);
    m.set_trace_sink(Box::new(capture.clone()));
    let open = tr.begin("trace", "traced_run", unit);
    let t = Instant::now();
    let traced = m.try_run();
    let traced_s = t.elapsed().as_secs_f64();
    tr.end(open);
    drop(m);
    run.attempt(match traced {
        Ok(r) if digest(&r) == serial_digest => Ok(()),
        Ok(_) => Err(format!(
            "{label}: digest changes with a trace sink installed"
        )),
        Err(stall) => Err(format!("{label} stalled with a trace sink: {stall}")),
    });
    let captured = std::mem::take(&mut *capture.0.lock().unwrap_or_else(PoisonError::into_inner));
    run.put("trace.events", captured.events as f64);
    run.put("trace.overhead_ratio", traced_s / serial_s);

    snapshot(cell, events, serial_digest, tr, run, dir);
    let delays = noc_replay(cell, &captured, tr, run);
    let peak = run.value("sim.peak_queue").unwrap_or(1.0) as usize;
    tr.span("sim", "queue_hold", unit, || {
        run.put("sim.queue_hold_ns", queue_hold(peak.max(1), &delays));
    });
    tr.span("core", "agent_reads", unit, || {
        run.put("core.agent_read_ns", agent_reads(cell));
    });
    tr.span("core", "ltt_cycles", unit, || {
        run.put("core.ltt_cycle_ns", ltt_cycles(cell));
    });
    tr.span("cache", "replay", unit, || cache_replay(cell, run));
    tr.span("mem", "requests", unit, || {
        run.put("mem.request_ns", mem_requests(cell));
    });
    tr.span("cpu", "ops", unit, || {
        run.put("cpu.op_ns", core_ops(cell));
    });
    tr.span("workloads", "generate", unit, || {
        run.put("workloads.gen_ns_per_op", generate(cell));
    });
    Some(Reference {
        digest: serial_digest,
        run_s: serial_s,
    })
}

/// Snapshot of the cell at half its events: build, encode, write and
/// restore, each in its own span; the restored machine must finish
/// with the uninterrupted digest.
fn snapshot(
    cell: &Cell,
    events: u64,
    want: u64,
    tr: &mut Tracer,
    run: &mut Run,
    dir: &std::path::Path,
) {
    let label = cell.label();
    let unit = u64::MAX;
    let (cfg, profile) = (cell.config(), cell.profile());
    let mut m = Machine::new(cfg.clone(), &profile);
    if !matches!(
        m.try_run_slice((events / 2).max(1)),
        Ok(RunProgress::Yielded { .. })
    ) {
        run.attempt(Err(format!("{label} did not pause at its midpoint")));
        return;
    }
    let path = dir.join("probe.ringsnap");
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let open = tr.begin("snapshot", "build", unit);
    let t = Instant::now();
    let snap = m.snapshot();
    run.put("snapshot.build_ms", ms(t));
    tr.end(open);
    let open = tr.begin("snapshot", "encode", unit);
    let t = Instant::now();
    let bytes = black_box(snap.encode()).len();
    run.put("snapshot.encode_ms", ms(t));
    tr.end(open);
    run.put("snapshot.bytes", bytes as f64);
    // `write_atomic` encodes again, then writes, fsyncs and renames.
    let open = tr.begin("snapshot", "write", unit);
    let t = Instant::now();
    let written = snap.write_atomic(&path);
    run.put("snapshot.write_ms", ms(t));
    tr.end(open);
    drop(m);
    if let Err(e) = written {
        run.attempt(Err(format!("{label} snapshot write: {e}")));
        return;
    }
    let open = tr.begin("snapshot", "restore", unit);
    let t = Instant::now();
    let restored = Machine::restore(cfg, &profile, &path);
    run.put("snapshot.restore_ms", ms(t));
    tr.end(open);
    let _ = std::fs::remove_file(&path);
    run.attempt(match restored.map(|mut m| m.try_run()) {
        Ok(Ok(r)) if digest(&r) == want => Ok(()),
        Ok(Ok(_)) => Err(format!(
            "{label}: resumed digest differs from uninterrupted"
        )),
        Ok(Err(stall)) => Err(format!("{label} stalled after restore: {stall}")),
        Err(e) => Err(format!("{label} restore: {e}")),
    });
}

/// Replays the captured messages into fresh networks: all unicasts in
/// order, then the multicasts (the cell's own, or — for protocols that
/// never multicast — one from each unicast's sender at its cycle).
/// Returns the unicast delivery latencies, the delays of the queue
/// hold model.
fn noc_replay(cell: &Cell, captured: &Captured, tr: &mut Tracer, run: &mut Run) -> Vec<u64> {
    let unit = u64::MAX;
    let cfg = cell.config();
    let fresh = || Network::new(Torus::new(cfg.width, cfg.height), cfg.net);
    let mut net = fresh();
    let mut delays = Vec::with_capacity(captured.unicasts.len());
    let open = tr.begin("noc", "unicast_replay", unit);
    let t = Instant::now();
    for m in &captured.unicasts {
        let bytes = if m.data { DATA_BYTES } else { CONTROL_BYTES };
        let d = net.unicast(
            m.cycle,
            NodeId(m.from as usize),
            NodeId(m.to as usize),
            bytes,
            m.channel,
        );
        delays.push(d.arrival - m.cycle);
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end(open);
    run.put(
        "noc.unicast_ns",
        secs * 1e9 / captured.unicasts.len().max(1) as f64,
    );

    let roots: Vec<(u64, u32)> = if captured.multicasts.is_empty() {
        captured
            .unicasts
            .iter()
            .map(|m| (m.cycle, m.from))
            .collect()
    } else {
        captured.multicasts.clone()
    };
    let mut net = fresh();
    let mut out = Vec::new();
    let open = tr.begin("noc", "multicast_replay", unit);
    let t = Instant::now();
    for &(cycle, root) in &roots {
        // A tree built by the network itself is always well-ordered.
        let _ = net.multicast_into(
            cycle,
            NodeId(root as usize),
            CONTROL_BYTES,
            Channel::Request,
            &mut out,
        );
        black_box(&out);
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end(open);
    run.put("noc.multicast_ns", secs * 1e9 / roots.len().max(1) as f64);
    delays
}

/// Nanoseconds per pop-and-reschedule with `occupancy` events pending,
/// each rescheduled by the next measured delivery delay.
fn queue_hold(occupancy: usize, delays: &[u64]) -> f64 {
    let delays: Vec<u64> = if delays.is_empty() {
        vec![9]
    } else {
        delays.iter().map(|&d| d.max(1)).collect()
    };
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..occupancy {
        q.schedule(delays[i % delays.len()], i as u32);
    }
    let t = Instant::now();
    for k in 0..HOLD_OPS {
        let (at, ev) = q.pop().expect("the hold model keeps the queue occupied");
        q.schedule(at + delays[k % delays.len()], ev);
    }
    t.elapsed().as_secs_f64() * 1e9 / HOLD_OPS as f64
}

fn request(node: usize, serial: u64, line: u64) -> RequestMsg {
    RequestMsg {
        txn: TxnId {
            node: NodeId(node),
            serial,
        },
        line: LineAddr::new(line),
        kind: TxnKind::Read,
        priority: Priority::new(TxnKind::Read, serial as u32, NodeId(node)),
    }
}

/// Nanoseconds per foreign read handled by one agent of the cell's
/// protocol: request delivery (multicast under Uncorq, ring hop
/// otherwise), snoop completion, and the combined response.
fn agent_reads(cell: &Cell) -> f64 {
    let cfg = cell.config();
    let mut agent = RingAgent::new(NodeId(5), cfg.protocol, cfg.l2, DetRng::seed(1));
    let direct = cfg.protocol.kind == ProtocolKind::Uncorq;
    let mut fx = Vec::new();
    let t = Instant::now();
    for serial in 1..=AGENT_READS {
        let r = request(1, serial, serial % 1024);
        let arrive = if direct {
            AgentInput::DirectRequest(r)
        } else {
            AgentInput::RingArrival(RingMsg::Request(r))
        };
        for (dt, input) in [
            (0, arrive),
            (
                7,
                AgentInput::SnoopDone {
                    txn: r.txn,
                    line: r.line,
                },
            ),
            (
                9,
                AgentInput::RingArrival(RingMsg::Response(ResponseMsg::initial(&r))),
            ),
        ] {
            fx.clear();
            agent.handle_into(serial * 10 + dt, input, &mut fx);
            black_box(&fx);
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / AGENT_READS as f64
}

/// Nanoseconds per LTT slot lifecycle: request seen, snoop done,
/// response seen, slot taken.
fn ltt_cycles(cell: &Cell) -> f64 {
    let mut ltt = Ltt::new(cell.config().protocol.ltt);
    let t = Instant::now();
    for serial in 1..=LTT_CYCLES {
        let r = request(1, serial, serial % 512);
        ltt.see_request(r);
        ltt.snoop_complete(r.txn, r.line, false);
        ltt.see_response(ResponseMsg::initial(&r));
        let ready = ltt.entry(r.line).map(|e| e.ready()).unwrap_or_default();
        for txn in ready {
            black_box(ltt.take(r.line, txn));
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / LTT_CYCLES as f64
}

/// The memory references of the first nodes' op streams.
fn lines(cell: &Cell) -> Vec<Vec<LineAddr>> {
    let (cfg, profile) = (cell.config(), cell.profile());
    let nodes = cfg.nodes();
    (0..nodes.min(REPLAY_NODES))
        .map(|n| {
            WorkloadGen::new(&profile, n, nodes, cfg.seed)
                .filter_map(|op| op.line())
                .collect()
        })
        .collect()
}

/// Replays each stream through a private L1/L2 pair of the cell's
/// geometry, the L2 warmed with the shared lines the node owns at the
/// start of a run (no coherence traffic): access cost and hit ratios.
fn cache_replay(cell: &Cell, run: &mut Run) {
    let (cfg, profile) = (cell.config(), cell.profile());
    let warm = profile.warm_lines(cfg.nodes());
    let streams = lines(cell);
    let (mut l1_hits, mut l1_all, mut l2_hits, mut l2_all) = (0u64, 0u64, 0u64, 0u64);
    let mut secs = 0.0;
    for (node, stream) in streams.iter().enumerate() {
        let mut l1 = CacheArray::new(cfg.l1);
        let mut l2 = CacheArray::new(cfg.l2);
        for &(line, owner) in &warm {
            if owner == node {
                l2.insert(LineAddr::new(line), LineState::Exclusive);
            }
        }
        let t = Instant::now();
        for &line in stream {
            if !l1.access(line).is_valid() {
                if !l2.access(line).is_valid() {
                    l2.insert(line, LineState::Exclusive);
                }
                l1.insert(line, LineState::Shared);
            }
        }
        secs += t.elapsed().as_secs_f64();
        l1_hits += l1.hits();
        l1_all += l1.hits() + l1.misses();
        l2_hits += l2.hits();
        l2_all += l2.hits() + l2.misses();
    }
    let ratio = |h: u64, n: u64| if n == 0 { 0.0 } else { h as f64 / n as f64 };
    run.put(
        "cache.access_ns",
        secs * 1e9 / (l1_all + l2_all).max(1) as f64,
    );
    run.put("cache.l1_hit_ratio", ratio(l1_hits, l1_all));
    run.put("cache.l2_hit_ratio", ratio(l2_hits, l2_all));
}

/// Nanoseconds per `MemoryController::request`: one fetch of each
/// reference of the first nodes' op streams, a cycle apart.
fn mem_requests(cell: &Cell) -> f64 {
    let fetches: Vec<LineAddr> = lines(cell).into_iter().flatten().collect();
    let mut mc = MemoryController::new(cell.config().mem);
    let t = Instant::now();
    for (cycle, &line) in fetches.iter().enumerate() {
        black_box(mc.request(cycle as u64, line));
    }
    t.elapsed().as_secs_f64() * 1e9 / fetches.len().max(1) as f64
}

/// Nanoseconds per op a core model retires when every L1 miss hits its
/// L2, over the first nodes' op streams (generating each op included).
fn core_ops(cell: &Cell) -> f64 {
    let (cfg, profile) = (cell.config(), cell.profile());
    let nodes = cfg.nodes();
    let mut retired = 0;
    let t = Instant::now();
    for n in 0..nodes.min(REPLAY_NODES) {
        let ops = Box::new(WorkloadGen::new(&profile, n, nodes, cfg.seed));
        let mut core = Core::new(ops, cfg.l1, cfg.l2.latency, cfg.store_buffer);
        while core.next(u64::MAX, |_| L2View::HitSilent) != NextStep::Finished {}
        retired += core.stats().retired;
    }
    t.elapsed().as_secs_f64() * 1e9 / retired.max(1) as f64
}

/// Nanoseconds per op the workload generator emits.
fn generate(cell: &Cell) -> f64 {
    let (cfg, profile) = (cell.config(), cell.profile());
    let nodes = cfg.nodes();
    let t = Instant::now();
    let mut ops = 0usize;
    for n in 0..nodes.min(REPLAY_NODES) {
        ops += black_box(WorkloadGen::new(&profile, n, nodes, cfg.seed).count());
    }
    t.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Engine;
    use ring_coherence::ProtocolVariant;

    #[test]
    fn probes_measure_every_library_layer() {
        let mut run = Run::new("ring64", 3, true);
        let mut tr = Tracer::new(true, Instant::now());
        let dir = std::env::temp_dir().join(format!("ringbench-layers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for variant in [ProtocolVariant::Eager, ProtocolVariant::Uncorq] {
            let cell = Cell {
                variant,
                engine: Engine::Serial,
                app: "fmm",
                width: 4,
                height: 4,
                ops: 80,
                seed: 3,
            };
            assert!(probe(&cell, &mut tr, &mut run, &dir).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(run.correct(), "{:?}", run.failures());
        for name in [
            "system.slice_p50_us",
            "system.pdes_speedup",
            "sim.queue_hold_ns",
            "noc.unicast_ns",
            "noc.multicast_ns",
            "core.agent_read_ns",
            "core.ltt_cycle_ns",
            "cache.l1_hit_ratio",
            "mem.request_ns",
            "cpu.op_ns",
            "workloads.gen_ns_per_op",
            "trace.events",
            "snapshot.bytes",
            "snapshot.restore_ms",
        ] {
            assert!(run.value(name).is_some_and(|v| v > 0.0), "{name}");
        }
        let layers = tr.self_times();
        for layer in [
            "system",
            "trace",
            "snapshot",
            "noc",
            "sim",
            "core",
            "cache",
            "workloads",
        ] {
            assert!(layers.contains_key(layer), "{layer} has no spans");
        }
    }
}
