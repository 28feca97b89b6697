//! The HyperTransport baseline's agent on the shared machine (paper
//! §7.4): what [`HtMachine`](crate::HtMachine) does with an [`HtAgent`]'s
//! effects. The event loop, cores, memory, network, watchdog, tracing
//! and report are shared with the ring machine ([`crate::Sim`]).

use ring_cache::{CacheArray, LineAddr, LineState};
use ring_coherence::ht::{HtAgent, HtEffect, HtInput};
use ring_coherence::{CONTROL_BYTES, DATA_BYTES};
use ring_noc::{Channel, NodeId};
use ring_sim::{Cycle, DetRng};
use ring_trace::{MetricsRegistry, TraceEvent};

use crate::config::MachineConfig;
use crate::effects::Ctx;
use crate::machine::{Ev, HtMachine, NodeAgent};
use crate::stall::NodeStallState;
use crate::stats::MachineStats;

impl NodeAgent for HtAgent {
    type Input = HtInput;
    type Effect = HtEffect;
    const MODELS_FAULTS: bool = false;

    fn build(node: NodeId, cfg: &MachineConfig, _rng: &mut DetRng) -> Self {
        HtAgent::new(node, cfg.nodes(), cfg.protocol.snoop_latency, cfg.l2)
    }

    fn warm(m: &mut HtMachine, lines: &[(LineAddr, usize)]) {
        for &(line, owner) in lines {
            m.agents[owner].install_line(line, LineState::Exclusive);
        }
    }

    fn handle_into(&mut self, now: Cycle, input: HtInput, fx: &mut Vec<HtEffect>) {
        HtAgent::handle_into(self, now, input, fx);
    }

    fn apply_effects(cx: &mut Ctx<'_, Self>, t: Cycle, n: usize, fx: &mut Vec<HtEffect>) {
        cx.apply_effects(t, n, fx);
    }

    fn mem_data(line: LineAddr) -> HtInput {
        HtInput::MemData { line }
    }

    fn read_request(line: LineAddr) -> HtInput {
        HtInput::CoreRequest { line, write: false }
    }

    fn write_request(&self, line: LineAddr) -> Option<HtInput> {
        self.classify_store(line)
            .map(|write| HtInput::CoreRequest { line, write })
    }

    fn l2(&self) -> &CacheArray {
        HtAgent::l2(self)
    }

    fn has_outstanding(&self, line: LineAddr) -> bool {
        HtAgent::has_outstanding(self, line)
    }

    fn is_line_engaged(&self, line: LineAddr) -> bool {
        HtAgent::is_line_engaged(self, line)
    }

    fn set_tracing(&mut self, on: bool) {
        HtAgent::set_tracing(self, on);
    }

    fn drain_trace(&mut self) -> Vec<TraceEvent> {
        HtAgent::drain_trace(self)
    }

    fn stall_state(&self) -> NodeStallState {
        NodeStallState {
            outstanding: self.outstanding_count(),
            pending_core: self.pending_core_len(),
            ..NodeStallState::default()
        }
    }

    fn roll_up(m: &HtMachine, _reg: &mut MetricsRegistry, stats: &mut MachineStats) {
        // No link loads: HT's listing has always printed
        // `link_messages_*` as 0, and its digests pin that.
        for agent in &m.agents {
            stats.transactions += agent.stats().completed;
            stats.snoops += agent.stats().snoops;
        }
    }
}

impl Ctx<'_, HtAgent> {
    /// Applies an HT agent's effects in `fx`, draining it. The network
    /// is clean (HT refuses fault plans), so deliveries are never
    /// perturbed.
    pub(crate) fn apply_effects(&mut self, t: Cycle, n: usize, fx: &mut Vec<HtEffect>) {
        for e in fx.drain(..) {
            match e {
                HtEffect::SendRequest { home, req } => {
                    self.registry.node_mut(n).requests += 1;
                    self.send(t, n, home, Channel::Request, HtInput::Request(req));
                }
                HtEffect::Broadcast(probe) => {
                    let requester = probe.req.txn.node;
                    // The home snoops its own cache too (local probe).
                    if n != requester.0 {
                        self.queue.schedule(t, Ev::Agent(n, HtInput::Probe(probe)));
                    }
                    let mut ds = std::mem::take(self.mc_buf);
                    match self.net.multicast_into(
                        t,
                        NodeId(n),
                        CONTROL_BYTES,
                        Channel::Request,
                        &mut ds,
                    ) {
                        Ok(()) => {
                            for d in ds.drain(..) {
                                self.stats.traffic.add_control(CONTROL_BYTES, d.hops);
                                if d.to != requester {
                                    self.queue.schedule(
                                        d.arrival,
                                        Ev::Agent(d.to.0, HtInput::Probe(probe)),
                                    );
                                }
                            }
                        }
                        Err(noc_err) => {
                            ds.clear();
                            self.multicast_failed(t, n, probe.req.txn, probe.req.line, noc_err);
                        }
                    }
                    *self.mc_buf = ds;
                }
                HtEffect::StartSnoop { probe, delay } => {
                    self.queue
                        .schedule(t + delay, Ev::Agent(n, HtInput::ProbeSnoopDone(probe)));
                }
                HtEffect::SendResponse { to, resp } => {
                    self.send(t, n, to, Channel::Response, HtInput::Response(resp));
                }
                HtEffect::SendData { to, data } => {
                    if !data.from_memory {
                        self.registry.node_mut(n).supplies += 1;
                    }
                    self.send(t, n, to, Channel::Data, HtInput::Data(data));
                }
                HtEffect::MemFetch { line } => {
                    self.registry.node_mut(n).mem_demand += 1;
                    let done = self.mem.request(t, line);
                    self.schedule_mem_done(t, n, line, done);
                }
                HtEffect::SendDone { home, done } => {
                    self.send(t, n, home, Channel::Response, HtInput::Done(done));
                }
                HtEffect::L1Invalidate { line } => {
                    self.nodes.core_mut(n).l1_invalidate(line);
                }
                HtEffect::Bound {
                    line,
                    write,
                    latency,
                    c2c,
                } => {
                    self.watchdog.progress(t);
                    if !write {
                        self.registry
                            .node_mut(n)
                            .record_read_bound(latency + self.cfg.l1.latency, c2c);
                        if self.nodes.core_mut(n).read_done(line) {
                            self.queue.schedule(t, Ev::Resume(n));
                        }
                    }
                }
                HtEffect::Complete { line, write, c2c } => {
                    self.watchdog.progress(t);
                    if self.cfg.check_invariants {
                        self.check_line_invariants(t, line);
                    }
                    if write {
                        self.write_completed(t, n, line);
                    } else if c2c {
                        self.registry.node_mut(n).nopref_cache += 1;
                    } else {
                        self.registry.node_mut(n).nopref_mem += 1;
                    }
                }
            }
        }
    }

    /// Sends `input` from node `n` to `to` over channel `ch`: a data
    /// message on the data channel, a control message otherwise.
    fn send(&mut self, t: Cycle, n: usize, to: NodeId, ch: Channel, input: HtInput) {
        let bytes = if ch == Channel::Data {
            DATA_BYTES
        } else {
            CONTROL_BYTES
        };
        let d = self.net.unicast(t, NodeId(n), to, bytes, ch);
        if ch == Channel::Data {
            self.stats.traffic.add_data(bytes, d.hops);
        } else {
            self.stats.traffic.add_control(bytes, d.hops);
        }
        self.queue.schedule(d.arrival, Ev::Agent(to.0, input));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Report;
    use ring_coherence::ProtocolKind;
    use ring_cpu::Op;

    fn tiny_profile() -> ring_workloads::AppProfile {
        MachineConfig::default_workload()
            .expect("default workload profile must exist")
            .scaled(200)
    }

    fn cfg() -> MachineConfig {
        let mut cfg = MachineConfig::small_test(ProtocolKind::Eager);
        cfg.seed = 7;
        cfg
    }

    /// A run with the single-supplier check at every completion.
    fn run_ht() -> (Report, HtMachine) {
        let mut cfg = cfg();
        cfg.check_invariants = true;
        let mut m = HtMachine::new(cfg, &tiny_profile());
        let r = match m.try_run() {
            Ok(r) => r,
            Err(stall) => panic!("HT machine stalled:\n{stall}"),
        };
        (r, m)
    }

    #[test]
    fn ht_runs_to_completion() {
        let (r, _) = run_ht();
        assert!(r.finished, "HT machine stalled");
        assert!(r.stats.read_misses() > 0);
        assert!(r.stats.traffic.total_byte_hops() > 0);
    }

    #[test]
    fn ht_deterministic() {
        let (a, _) = run_ht();
        let (b, _) = run_ht();
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.stats.read_misses(), b.stats.read_misses());
    }

    #[test]
    fn ht_quiescent_single_supplier() {
        let (r, m) = run_ht();
        assert!(r.finished);
        // The home serialization makes the invariant easy for HT, but it
        // must still hold across the shared pools at quiescence.
        for raw in 0..4096u64 {
            assert!(
                m.supplier_count(LineAddr::new(raw)) <= 1,
                "line {raw} has multiple suppliers"
            );
        }
    }

    #[test]
    fn ht_records_traced_lines() {
        let line = LineAddr::new(0x77);
        let mut cfg = cfg();
        cfg.trace_lines = vec![line.raw()];
        let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..cfg.nodes())
            .map(|n| {
                let ops = match n {
                    3 => vec![Op::Write(line), Op::Fence],
                    9 => vec![Op::Read(line)],
                    _ => vec![],
                };
                Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
            })
            .collect();
        let mut m = HtMachine::with_streams(cfg, streams);
        assert!(m.try_run().expect("no stall").finished);
        assert!(
            !m.line_trace(line).is_empty(),
            "traced line must record events"
        );
        assert!(m.line_trace(LineAddr::new(0x78)).is_empty());
    }

    #[test]
    #[should_panic(expected = "neither fault injection nor the reliability sublayer")]
    fn ht_refuses_a_fault_plan() {
        let mut cfg = cfg();
        cfg.faults = Some(ring_noc::FaultPlan::new(ring_noc::FaultProfile::chaos(), 1));
        let _ = HtMachine::new(cfg, &tiny_profile());
    }

    #[test]
    #[should_panic(expected = "neither fault injection nor the reliability sublayer")]
    fn ht_refuses_the_reliability_sublayer() {
        let mut cfg = cfg();
        cfg.reliability = ring_noc::ReliabilityConfig::on();
        let _ = HtMachine::new(cfg, &tiny_profile());
    }
}
