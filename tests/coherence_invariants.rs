//! Machine-level coherence invariant tests: every protocol, run over
//! adversarial (hot-line) workloads with the single-supplier invariant
//! asserted at every transaction completion.

use uncorq::cache::{LineAddr, LineState};
use uncorq::coherence::ProtocolKind;
use uncorq::cpu::Op;
use uncorq::noc::NodeId;
use uncorq::system::{Machine, MachineConfig};
use uncorq::trace::json::Json;
use uncorq::workloads::AppProfile;

fn checked_cfg(kind: ProtocolKind) -> MachineConfig {
    let mut cfg = MachineConfig::small_test(kind);
    cfg.check_invariants = true;
    cfg.seed = 11;
    cfg
}

/// All nodes hammer a tiny set of lines with reads and writes — maximal
/// collision pressure. The run must finish (forward progress) and never
/// trip the single-supplier assertion.
fn hot_line_streams(
    nodes: usize,
    rounds: usize,
    lines: u64,
) -> Vec<Box<dyn Iterator<Item = Op> + Send>> {
    (0..nodes)
        .map(|n| {
            let mut ops = Vec::new();
            for r in 0..rounds {
                let line = LineAddr::new(((n + r) as u64 * 7) % lines);
                ops.push(Op::Compute((n as u32 * 3) % 11 + 1));
                ops.push(Op::Read(line));
                ops.push(Op::Write(line));
                if r % 8 == 7 {
                    ops.push(Op::Fence);
                }
            }
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect()
}

fn stress(kind: ProtocolKind, lines: u64) {
    let cfg = checked_cfg(kind);
    let nodes = cfg.nodes();
    let mut m = Machine::with_streams(cfg, hot_line_streams(nodes, 60, lines));
    let report = match m.try_run() {
        Ok(r) => r,
        Err(stall) => panic!("{kind}: machine stalled under contention:\n{stall}"),
    };
    assert!(
        report.finished,
        "{kind}: hit the cycle cap under contention"
    );
    // Quiescent check over the whole hot set.
    for l in 0..lines {
        let line = LineAddr::new(l);
        assert!(
            m.supplier_count(line) <= 1,
            "{kind}: line {line} has multiple suppliers at quiescence"
        );
    }
}

#[test]
fn eager_single_supplier_under_extreme_contention() {
    stress(ProtocolKind::Eager, 4);
}

#[test]
fn uncorq_single_supplier_under_extreme_contention() {
    stress(ProtocolKind::Uncorq, 4);
}

#[test]
fn superset_con_single_supplier_under_extreme_contention() {
    stress(ProtocolKind::SupersetCon, 4);
}

#[test]
fn superset_agg_single_supplier_under_extreme_contention() {
    stress(ProtocolKind::SupersetAgg, 4);
}

#[test]
fn uncorq_single_line_all_writers() {
    // The absolute worst case: one line, every node writing it in a loop.
    let cfg = checked_cfg(ProtocolKind::Uncorq);
    let nodes = cfg.nodes();
    let mut m = Machine::with_streams(cfg, hot_line_streams(nodes, 40, 1));
    let report = match m.try_run() {
        Ok(r) => r,
        Err(stall) => panic!("single-line writer storm stalled:\n{stall}"),
    };
    assert!(report.finished, "single-line writer storm must complete");
    assert!(m.supplier_count(LineAddr::new(0)) <= 1);
    // This workload collides constantly; retries must have occurred
    // (otherwise the collision paths were never exercised).
    assert!(
        report.stats.retries > 0,
        "writer storm should exercise squash/retry paths"
    );
}

#[test]
fn forward_progress_with_starvation_pressure() {
    // A single victim line, long runs: exercises the §5.2 forward
    // progress machinery. Completion is the assertion; a forward-progress
    // failure surfaces as a structured StallReport with per-node LTT,
    // retry, and starvation state rather than a bare boolean.
    for kind in [ProtocolKind::Eager, ProtocolKind::Uncorq] {
        let cfg = checked_cfg(kind);
        let nodes = cfg.nodes();
        let mut m = Machine::with_streams(cfg, hot_line_streams(nodes, 120, 1));
        let report = match m.try_run() {
            Ok(r) => r,
            Err(stall) => panic!("{kind}: starvation pressure stalled the machine:\n{stall}"),
        };
        assert!(report.finished, "{kind}: hit the cycle cap");
    }
}

#[test]
fn workload_run_preserves_invariants_and_counts() {
    for kind in [ProtocolKind::Eager, ProtocolKind::Uncorq] {
        let cfg = checked_cfg(kind);
        let profile = AppProfile::by_name("radix").unwrap().scaled(300);
        let mut m = Machine::new(cfg, &profile);
        let report = m.run();
        assert!(report.finished);
        // Conservation: every read miss was serviced exactly once.
        assert_eq!(
            report.stats.read_misses(),
            report.stats.reads_c2c + report.stats.reads_mem
        );
        // Every node retired its whole stream.
        assert!(report.stats.ops_retired > 0);
    }
}

#[test]
fn warm_lines_make_first_read_cache_to_cache() {
    let cfg = checked_cfg(ProtocolKind::Uncorq);
    let nodes = cfg.nodes();
    let line = LineAddr::new(0x77);
    let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..nodes)
        .map(|n| {
            let ops = if n == 3 { vec![Op::Read(line)] } else { vec![] };
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect();
    let mut m = Machine::with_streams(cfg, streams);
    m.warm_line(NodeId(9), line, LineState::Dirty);
    let report = m.run();
    assert!(report.finished);
    assert_eq!(report.stats.reads_c2c, 1, "warmed line must supply c2c");
    assert_eq!(report.stats.reads_mem, 0);
    // Dirty data read: requester becomes Tagged, old supplier Shared.
    assert_eq!(m.agents()[3].l2().state(line), LineState::Tagged);
    assert_eq!(m.agents()[9].l2().state(line), LineState::Shared);
}

#[test]
fn write_invalidates_all_sharers() {
    let cfg = checked_cfg(ProtocolKind::Uncorq);
    let nodes = cfg.nodes();
    let line = LineAddr::new(0x88);
    // Node 0 writes the line; everyone else had a Shared copy.
    let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..nodes)
        .map(|n| {
            let ops = if n == 0 {
                vec![Op::Write(line)]
            } else {
                vec![]
            };
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect();
    let mut m = Machine::with_streams(cfg, streams);
    m.warm_line(NodeId(5), line, LineState::MasterShared);
    for n in [1usize, 2, 7, 11] {
        m.warm_line(NodeId(n), line, LineState::Shared);
    }
    let report = m.run();
    assert!(report.finished);
    assert_eq!(m.agents()[0].l2().state(line), LineState::Dirty);
    for n in [1usize, 2, 5, 7, 11] {
        assert_eq!(
            m.agents()[n].l2().state(line),
            LineState::Invalid,
            "node {n} must be invalidated"
        );
    }
    assert_eq!(m.supplier_count(line), 1);
}

#[test]
fn reads_keep_supplier_extension_avoids_read_squashes() {
    // §5.5 extension: colliding cache-to-cache reads are serviced without
    // squashes — the supplier stays designated and hands out Shared
    // copies.
    let mut cfg = checked_cfg(ProtocolKind::Uncorq);
    cfg.protocol.reads_keep_supplier = true;
    let nodes = cfg.nodes();
    let line = LineAddr::new(0x99);
    // Every node (except the supplier) reads the same line at once.
    let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..nodes)
        .map(|n| {
            let ops = if n == 5 { vec![] } else { vec![Op::Read(line)] };
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect();
    let mut m = Machine::with_streams(cfg, streams);
    m.warm_line(NodeId(5), line, LineState::Dirty);
    let report = m.run();
    assert!(report.finished);
    assert_eq!(report.stats.reads_c2c, (nodes - 1) as u64);
    assert_eq!(report.stats.reads_mem, 0);
    assert_eq!(
        report.stats.retries, 0,
        "read-read collisions must not squash under the extension"
    );
    // The old supplier kept the designation (dirty-shared: Tagged);
    // everyone else holds Shared.
    assert_eq!(m.agents()[5].l2().state(line), LineState::Tagged);
    assert_eq!(m.supplier_count(line), 1);
    for n in (0..nodes).filter(|&n| n != 5) {
        assert_eq!(
            m.agents()[n].l2().state(line),
            LineState::Shared,
            "node {n}"
        );
    }
}

#[test]
fn default_read_transfer_squashes_colliding_reads() {
    // The paper's default (supplier status transfers on reads) squashes
    // one of two colliding reads — the behavior §5.5 calls unintuitive.
    let cfg = checked_cfg(ProtocolKind::Uncorq);
    let nodes = cfg.nodes();
    let line = LineAddr::new(0x99);
    let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..nodes)
        .map(|n| {
            let ops = if n == 5 { vec![] } else { vec![Op::Read(line)] };
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect();
    let mut m = Machine::with_streams(cfg, streams);
    m.warm_line(NodeId(5), line, LineState::Dirty);
    let report = m.run();
    assert!(report.finished);
    assert!(
        report.stats.retries > 0,
        "default read transfer should squash overlapping reads"
    );
    assert_eq!(m.supplier_count(line), 1);
}

#[test]
fn dual_rings_preserve_correctness() {
    // §2.1 load balancing: odd lines lap the ring in the opposite
    // direction. All invariants and completion must hold unchanged.
    let mut cfg = checked_cfg(ProtocolKind::Uncorq);
    cfg.dual_rings = true;
    let nodes = cfg.nodes();
    let mut m = Machine::with_streams(cfg, hot_line_streams(nodes, 60, 4));
    let report = match m.try_run() {
        Ok(r) => r,
        Err(stall) => panic!("dual-ring machine stalled:\n{stall}"),
    };
    assert!(report.finished, "dual-ring machine hit the cycle cap");
    for l in 0..4u64 {
        assert!(m.supplier_count(LineAddr::new(l)) <= 1);
    }
}

#[test]
fn dual_rings_match_single_ring_results_architecturally() {
    // Timing differs, but the same work retires and the same misses get
    // serviced.
    let profile = AppProfile::by_name("fmm").unwrap().scaled(300);
    let mut single = Machine::new(checked_cfg(ProtocolKind::Uncorq), &profile);
    let mut cfg = checked_cfg(ProtocolKind::Uncorq);
    cfg.dual_rings = true;
    let mut dual = Machine::new(cfg, &profile);
    let a = single.run();
    let b = dual.run();
    assert!(a.finished && b.finished);
    assert_eq!(a.stats.ops_retired, b.stats.ops_retired);
}

#[test]
fn ht_home_serialization_orders_colliding_writes() {
    use uncorq::system::HtMachine;
    // Every node writes the same line simultaneously; the home's per-line
    // queue serializes them with no squash/retry machinery at all.
    let cfg = checked_cfg(ProtocolKind::Eager);
    let nodes = cfg.nodes();
    let line = LineAddr::new(0x55);
    let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..nodes)
        .map(|_| {
            Box::new(vec![Op::Write(line), Op::Fence].into_iter())
                as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect();
    let mut m = HtMachine::with_streams(cfg, streams);
    let report = m.run();
    assert!(report.finished, "HT write storm stalled");
    assert_eq!(m.supplier_count(line), 1);
    // The last write in home-queue order owns the line Dirty.
    let owners: Vec<usize> = (0..nodes)
        .filter(|&n| m.agents()[n].l2().state(line).is_supplier())
        .collect();
    assert_eq!(owners.len(), 1);
}

#[test]
fn line_trace_records_protocol_conversation() {
    let mut cfg = checked_cfg(ProtocolKind::Uncorq);
    cfg.check_invariants = false;
    cfg.trace_lines = vec![0x77];
    let nodes = cfg.nodes();
    let line = LineAddr::new(0x77);
    let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..nodes)
        .map(|n| {
            let ops = if n == 3 { vec![Op::Read(line)] } else { vec![] };
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect();
    let mut m = Machine::with_streams(cfg, streams);
    m.warm_line(NodeId(9), line, LineState::Dirty);
    m.run();
    let trace = m.line_trace(line);
    assert!(!trace.is_empty(), "traced line must record events");
    let rendered: Vec<String> = trace.iter().map(|e| e.to_string()).collect();
    assert!(
        rendered.iter().any(|e| e.contains("MCAST R")),
        "{rendered:?}"
    );
    assert!(
        rendered.iter().any(|e| e.contains("SUPPLIERSHIP")),
        "{rendered:?}"
    );
    assert!(
        rendered.iter().any(|e| e.contains("COMPLETE")),
        "{rendered:?}"
    );
    // The structured form is queryable without string matching, and the
    // events stay in chronological order.
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, uncorq::trace::EventKind::Suppliership { .. })));
    assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    // Untraced lines record nothing.
    assert!(m.line_trace(LineAddr::new(0x78)).is_empty());
}

#[test]
fn reports_serialize_roundtrip() {
    // `--metrics-out` archives a run as `Report::write_json`; parsing the
    // document back must give the report's own measurements.
    let cfg = checked_cfg(ProtocolKind::Uncorq);
    let profile = AppProfile::by_name("lu").unwrap().scaled(100);
    let mut m = Machine::new(cfg, &profile);
    let report = m.run();
    let mut buf = Vec::new();
    report.write_json(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let uint = |key: &str| json.get(key).and_then(Json::as_u64);
    assert_eq!(uint("exec_cycles"), Some(report.exec_cycles));
    assert_eq!(uint("ops_retired"), Some(report.stats.ops_retired));
    assert_eq!(uint("read_misses"), Some(report.stats.read_misses()));
    assert!(report.stats.read_misses() > 0);
    assert_eq!(
        json.get("finished").and_then(Json::as_bool),
        Some(report.finished)
    );
}
