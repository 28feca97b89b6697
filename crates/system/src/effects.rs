//! Effect execution, factored out of the event loop.
//!
//! The serial loop ([`crate::Sim::try_run`]) and the parallel
//! driver ([`crate::Machine::try_run_parallel`]) commit events through
//! the exact same code: a [`Ctx`] borrows every piece of machine state
//! an event handler can touch, with the per-node shards (cores and
//! protocol agents) behind a [`NodeAccess`] that is either an exclusive
//! borrow (serial) or a pointer-based shard view (parallel, where
//! phase-A workers mutate *other* nodes concurrently under the round
//! protocol of [`crate::par`]). One code path means the observable
//! event order, trace stream, statistics, and digests cannot diverge
//! between the two engines.
//!
//! A [`Ctx`] is generic over the machine's [`NodeAgent`]: core
//! scheduling, tracing, memory completions, reliable transport and the
//! invariant check are shared, and only effect application is
//! protocol-specific (the ring's below, HT's in `ht_machine.rs`).

use ring_cache::LineAddr;
use ring_coherence::{AgentInput, Effect, RingAgent, TxnId, TxnKind, CONTROL_BYTES};
use ring_cpu::{Core, L2View, NextStep};
use ring_mem::{ControllerPrefetchPredictor, MemoryController, PrefetchBuffer};
use ring_noc::{
    Channel, Delivery, DeliveryClass, FaultKind, InjectedFault, Network, NocError, OutageEvent,
    RelAction, ReliableTransport, RingEmbedding,
};
use ring_sim::{Cycle, EventQueue, FxHashMap, Watchdog};
use ring_trace::{
    ErrorClass, EventKind as TraceKind, MetricsRegistry, Payload, TraceEvent, TraceSink,
};

use crate::config::MachineConfig;
use crate::machine::{fault_class, op_class, AnatomyMark, Ev, NodeAgent, RECENT_EVENTS};

/// Raw per-node shard pointers into the machine's core and agent
/// arrays, for the parallel engine.
///
/// # Safety protocol
///
/// A `ShardPtrs` is only ever dereferenced under the round protocol of
/// [`crate::par`]: at any instant, each node's core/agent pair is
/// accessed by exactly one thread — the phase-A worker that owns the
/// node's LP *or* the driver committing that node's event — with the
/// hand-off ordered by Release/Acquire on the done flags and the
/// applied cursor. The pointers are derived from live `&mut` borrows
/// that outlast every dereference (the thread scope ends first).
pub(crate) struct ShardPtrs<A> {
    cores: *mut Core,
    agents: *mut A,
    len: usize,
}

// Safety: see the struct-level protocol — all concurrent access is to
// disjoint nodes, with cross-thread hand-offs fenced by the round
// protocol's atomics. `A: Send` because phase-A workers mutate agents
// on their own threads.
unsafe impl<A: Send> Send for ShardPtrs<A> {}
unsafe impl<A: Send> Sync for ShardPtrs<A> {}

impl<A> ShardPtrs<A> {
    /// Captures shard pointers over the machine's node arrays. The
    /// borrows this is called with must outlive every dereference (in
    /// practice: the worker thread scope).
    pub(crate) fn new(cores: &mut [Core], agents: &mut [A]) -> Self {
        assert_eq!(cores.len(), agents.len());
        ShardPtrs {
            len: cores.len(),
            cores: cores.as_mut_ptr(),
            agents: agents.as_mut_ptr(),
        }
    }

    /// Exclusive access to node `n`'s core and shared access to its
    /// agent (the shape [`resume_compute`] needs).
    ///
    /// # Safety
    ///
    /// The caller must hold the round protocol's exclusive right to
    /// node `n` (no other thread touches node `n` until released).
    // The `&self -> &mut` projection is the whole point of the type:
    // exclusivity comes from the round protocol, not the borrow checker.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn core_agent(&self, n: usize) -> (&mut Core, &A) {
        assert!(n < self.len);
        (&mut *self.cores.add(n), &*self.agents.add(n))
    }

    /// Exclusive access to node `n`'s agent.
    ///
    /// # Safety
    ///
    /// Same exclusive-right obligation as [`ShardPtrs::core_agent`].
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn agent_mut(&self, n: usize) -> &mut A {
        assert!(n < self.len);
        &mut *self.agents.add(n)
    }
}

/// How a [`Ctx`] reaches per-node state: exclusively (serial engine,
/// whole-machine borrows) or through shard pointers (parallel driver,
/// which only ever touches the node whose event it is committing).
pub(crate) enum NodeAccess<'a, A> {
    /// The serial engine: plain exclusive borrows of both arrays.
    Excl {
        /// All cores.
        cores: &'a mut [Core],
        /// All agents.
        agents: &'a mut [A],
    },
    /// The parallel driver's shard view. Only the node named in each
    /// accessor call is touched, under the round protocol.
    Shard(&'a ShardPtrs<A>),
}

impl<A> NodeAccess<'_, A> {
    pub(crate) fn core_mut(&mut self, n: usize) -> &mut Core {
        match self {
            NodeAccess::Excl { cores, .. } => &mut cores[n],
            // Safety: the driver holds node `n` exclusively while
            // committing its event (workers on the same node wait for
            // the applied cursor to pass it).
            NodeAccess::Shard(p) => unsafe { &mut *(p.cores.add(n)) },
        }
    }

    fn agent_mut(&mut self, n: usize) -> &mut A {
        match self {
            NodeAccess::Excl { agents, .. } => &mut agents[n],
            // Safety: as in `core_mut`.
            NodeAccess::Shard(p) => unsafe { p.agent_mut(n) },
        }
    }

    fn agent(&self, n: usize) -> &A {
        match self {
            NodeAccess::Excl { agents, .. } => &agents[n],
            // Safety: as in `core_mut` (exclusive right implies shared
            // access is safe too).
            NodeAccess::Shard(p) => unsafe { &*(p.agents.add(n)) },
        }
    }

    fn core_agent(&mut self, n: usize) -> (&mut Core, &A) {
        match self {
            NodeAccess::Excl { cores, agents } => (&mut cores[n], &agents[n]),
            // Safety: as in `core_mut`; core and agent of one node are
            // covered by the same exclusive right.
            NodeAccess::Shard(p) => unsafe { p.core_agent(n) },
        }
    }

    /// Whole-machine agent scan — only the serial engine may do this
    /// (the parallel engine falls back to serial when invariant
    /// checking, the one consumer, is enabled).
    fn all_agents(&self) -> &[A] {
        match self {
            NodeAccess::Excl { agents, .. } => agents,
            NodeAccess::Shard(_) => {
                unreachable!("whole-machine agent scans run on the serial engine only")
            }
        }
    }
}

/// Phase-A result of a `Resume` event: the node-local core step,
/// computed without touching any shared machine state. Committing it
/// ([`Ctx::resume_commit`]) is where scheduling and bookkeeping happen.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResumeStep {
    /// The core had already finished (drained its last stores).
    Done,
    /// The core is blocked; nothing to do.
    Blocked,
    /// The core advanced and asks for this next step.
    Step(NextStep),
}

/// Advances node `n`'s core by one scheduling step. Touches only that
/// node's core (mutably) and agent (read-only): safe for a phase-A
/// worker that owns the node's LP.
pub(crate) fn resume_compute<A: NodeAgent>(core: &mut Core, agent: &A, slice: u64) -> ResumeStep {
    if core.is_finished() {
        // A core that drained its last stores finishes here rather
        // than through a Finished step.
        return ResumeStep::Done;
    }
    if core.is_blocked() {
        return ResumeStep::Blocked;
    }
    let step = core.next(slice, |line| {
        if agent.is_line_engaged(line) {
            L2View::Outstanding
        } else {
            let state = agent.l2().state(line);
            if state.can_write_silently() {
                L2View::HitSilent
            } else if state.is_valid() {
                L2View::HitNeedsOwnership
            } else {
                L2View::Miss
            }
        }
    });
    ResumeStep::Step(step)
}

/// Everything an event handler can touch, borrowed out of the machine.
/// See the module docs for why this exists.
pub struct Ctx<'a, A: NodeAgent> {
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) queue: &'a mut EventQueue<Ev<A::Input>>,
    pub(crate) net: &'a mut Network,
    pub(crate) rings: &'a [RingEmbedding],
    pub(crate) nodes: NodeAccess<'a, A>,
    pub(crate) mem: &'a mut MemoryController,
    pub(crate) cpp: &'a mut ControllerPrefetchPredictor,
    pub(crate) pbufs: &'a mut [PrefetchBuffer],
    pub(crate) finish_time: &'a mut [Option<Cycle>],
    pub(crate) stats: &'a mut crate::stats::MachineStats,
    pub(crate) registry: &'a mut MetricsRegistry,
    pub(crate) anatomy_marks: &'a mut FxHashMap<(usize, u64), AnatomyMark>,
    pub(crate) mc_buf: &'a mut Vec<Delivery>,
    pub(crate) trace: &'a mut std::collections::BTreeMap<LineAddr, Vec<TraceEvent>>,
    pub(crate) sink: &'a mut Option<Box<dyn TraceSink>>,
    pub(crate) trace_enabled: bool,
    pub(crate) watchdog: &'a mut Watchdog,
    pub(crate) recent: &'a mut std::collections::VecDeque<TraceEvent>,
    pub(crate) rel: &'a mut Option<ReliableTransport<A::Input>>,
    pub(crate) rel_buf: &'a mut Vec<RelAction<A::Input>>,
    pub(crate) outage_buf: &'a mut Vec<OutageEvent>,
}

impl<A: NodeAgent> Ctx<'_, A> {
    fn node(&self, n: usize) -> ring_noc::NodeId {
        ring_noc::NodeId(n)
    }

    /// Whether protocol events for `line` are being recorded.
    fn tracing(&self, line: LineAddr) -> bool {
        self.cfg.check_invariants || self.cfg.trace_lines.contains(&line.raw())
    }

    /// Moves the events the agent emitted during its last `handle` into
    /// the sink and the per-line traces. The event queue pops in time
    /// order, so emission order is chronological.
    pub(crate) fn drain_agent_trace(&mut self, n: usize) {
        if !self.trace_enabled {
            return;
        }
        for ev in self.nodes.agent_mut(n).drain_trace() {
            self.emit(ev);
        }
    }

    /// Routes one trace event to the sink, the stall-report ring buffer,
    /// and, for selected lines, the per-line trace.
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(s) = self.sink.as_mut() {
            s.record(&ev);
        }
        if self.recent.len() == RECENT_EVENTS {
            self.recent.pop_front();
        }
        self.recent.push_back(ev);
        let line = LineAddr::new(ev.line);
        if self.tracing(line) {
            self.trace.entry(line).or_default().push(ev);
        }
    }

    /// Emits a [`TraceKind::FaultInjected`] event for an injected fault
    /// affecting a delivery of `txn` / `line` departing node `n`.
    fn emit_fault(&mut self, t: Cycle, n: usize, txn: TxnId, line: u64, fault: InjectedFault) {
        if !self.trace_enabled {
            return;
        }
        self.emit(TraceEvent {
            cycle: t,
            node: n as u32,
            txn_node: txn.node.0 as u32,
            txn_serial: txn.serial,
            line,
            kind: TraceKind::FaultInjected {
                fault: fault_class(fault.kind),
                delay: fault.delay,
            },
        });
    }

    /// A corrupted multicast tree: the broadcast node `n` sent for `txn`
    /// is dropped and the error traced (recorded even without a sink,
    /// so stall reports show it) instead of panicking.
    pub(crate) fn multicast_failed(
        &mut self,
        t: Cycle,
        n: usize,
        txn: TxnId,
        line: LineAddr,
        err: NocError,
    ) {
        eprintln!("multicast from node {n} at cycle {t} failed: {err}");
        self.emit(TraceEvent {
            cycle: t,
            node: n as u32,
            txn_node: txn.node.0 as u32,
            txn_serial: txn.serial,
            line: line.raw(),
            kind: TraceKind::ProtocolError {
                error: ErrorClass::MulticastTreeDisorder,
            },
        });
    }

    /// Runs one reliable-transport callback with the transport
    /// temporarily moved out (it needs `&mut Network` at the same
    /// time), then applies the resulting actions.
    pub(crate) fn rel_event(
        &mut self,
        t: Cycle,
        f: impl FnOnce(&mut ReliableTransport<A::Input>, &mut Network, &mut Vec<RelAction<A::Input>>),
    ) {
        let Some(mut rel) = self.rel.take() else {
            return;
        };
        let mut acts = std::mem::take(self.rel_buf);
        acts.clear();
        f(&mut rel, self.net, &mut acts);
        *self.rel = Some(rel);
        self.process_rel_actions(t, &mut acts);
        *self.rel_buf = acts;
    }

    /// Applies the actions a reliable-transport call produced:
    /// schedules wire/timer events, hands payloads to agents at the
    /// exactly-once boundary, accounts traffic, traces recovery, and
    /// feeds the watchdog's reliability-progress channel.
    fn process_rel_actions(&mut self, t: Cycle, acts: &mut Vec<RelAction<A::Input>>) {
        self.drain_outages(t);
        for a in acts.drain(..) {
            match a {
                RelAction::Deliver {
                    to,
                    from,
                    channel,
                    seq,
                    payload,
                } => {
                    self.watchdog.net_progress(t);
                    if self.trace_enabled {
                        let (txn, line) = A::input_ids(&payload).unwrap_or_default();
                        self.emit(TraceEvent {
                            cycle: t,
                            node: to.0 as u32,
                            txn_node: txn.node.0 as u32,
                            txn_serial: txn.serial,
                            line,
                            kind: TraceKind::ReliableDeliver {
                                from: from.0 as u32,
                                channel: channel.index() as u8,
                                seq,
                            },
                        });
                    }
                    self.queue.schedule(t, Ev::Agent(to.0, payload));
                }
                RelAction::Wire { at, frame } => self.queue.schedule(at, Ev::RelWire(frame)),
                RelAction::Timer { at, flow } => self.queue.schedule(at, Ev::RelTimer(flow)),
                RelAction::AckTimer { at, flow } => self.queue.schedule(at, Ev::RelAck(flow)),
                RelAction::Sent {
                    channel,
                    bytes,
                    hops,
                } => {
                    if channel == Channel::Data {
                        self.stats.traffic.add_data(bytes, hops);
                    } else {
                        self.stats.traffic.add_control(bytes, hops);
                    }
                }
                RelAction::Retransmitted {
                    flow,
                    seq,
                    attempt,
                    degraded,
                } => {
                    // Retransmission is the sublayer fighting loss — it
                    // holds the watchdog off *until* the flow degrades;
                    // a permanently dead path then still trips it, with
                    // attribution.
                    if !degraded {
                        self.watchdog.net_progress(t);
                    }
                    if self.trace_enabled {
                        self.emit(TraceEvent {
                            cycle: t,
                            node: flow.src.0 as u32,
                            txn_node: flow.src.0 as u32,
                            txn_serial: 0,
                            line: 0,
                            kind: TraceKind::Retransmit {
                                to: flow.dst.0 as u32,
                                channel: flow.channel.index() as u8,
                                seq,
                                attempt,
                            },
                        });
                    }
                }
                RelAction::Dropped { flow, fault } => {
                    if self.trace_enabled {
                        self.emit(TraceEvent {
                            cycle: t,
                            node: flow.src.0 as u32,
                            txn_node: flow.src.0 as u32,
                            txn_serial: 0,
                            line: 0,
                            kind: TraceKind::FaultInjected {
                                fault: fault_class(fault.kind),
                                delay: fault.delay,
                            },
                        });
                    }
                }
            }
        }
    }

    /// Surfaces link outage transitions the network observed since the
    /// last reliable-transport call as `LinkDown`/`LinkUp` trace events.
    fn drain_outages(&mut self, t: Cycle) {
        let mut buf = std::mem::take(self.outage_buf);
        self.net.take_outage_events(&mut buf);
        if self.trace_enabled {
            for oe in buf.drain(..) {
                let kind = if oe.down {
                    TraceKind::LinkDown {
                        link: oe.link.0 as u32,
                        up_at: oe.up_at,
                    }
                } else {
                    TraceKind::LinkUp {
                        link: oe.link.0 as u32,
                    }
                };
                self.emit(TraceEvent {
                    cycle: t,
                    node: 0,
                    txn_node: 0,
                    txn_serial: 0,
                    line: 0,
                    kind,
                });
            }
        } else {
            buf.clear();
        }
        *self.outage_buf = buf;
    }

    /// Serial-engine `Resume` handling: compute the core step in place,
    /// then commit it.
    pub(crate) fn resume(&mut self, t: Cycle, n: usize) {
        let slice = self.cfg.core_slice;
        let step = {
            let (core, agent) = self.nodes.core_agent(n);
            resume_compute(core, agent, slice)
        };
        self.resume_commit(t, n, step);
    }

    /// Commits a computed [`ResumeStep`]: scheduling, watchdog feeding,
    /// finish-time recording, and write issue — everything that touches
    /// shared machine state.
    pub(crate) fn resume_commit(&mut self, t: Cycle, n: usize, step: ResumeStep) {
        let step = match step {
            ResumeStep::Done => {
                if self.finish_time[n].is_none() {
                    self.finish_time[n] = Some(t);
                    self.watchdog.progress(t);
                }
                return;
            }
            ResumeStep::Blocked => return,
            ResumeStep::Step(s) => s,
        };
        match step {
            NextStep::Advance { cycles } => {
                self.watchdog.progress(t);
                self.queue.schedule(t + cycles.max(1), Ev::Resume(n));
            }
            NextStep::BlockedRead { cycles, line } => {
                self.queue
                    .schedule(t + cycles, Ev::Agent(n, A::read_request(line)));
            }
            NextStep::IssueWrite { cycles, line } => {
                self.issue_write(t + cycles, n, line);
                self.queue.schedule(t + cycles.max(1), Ev::Resume(n));
            }
            NextStep::BlockedStores { .. } => {
                // Resumed by write_complete.
            }
            NextStep::Finished => {
                if self.finish_time[n].is_none() {
                    self.finish_time[n] = Some(t);
                    self.watchdog.progress(t);
                }
            }
        }
    }

    /// Issues (or locally absorbs) a write transaction for `line`.
    fn issue_write(&mut self, t: Cycle, n: usize, line: LineAddr) {
        match self.nodes.agent(n).write_request(line) {
            Some(input) => self.queue.schedule(t, Ev::Agent(n, input)),
            None => {
                // Became silently writable since classification (e.g. a
                // racing completion): complete instantly.
                self.write_completed(t, n, line);
            }
        }
    }

    pub(crate) fn write_completed(&mut self, t: Cycle, n: usize, line: LineAddr) {
        let (pending, unblocked) = self.nodes.core_mut(n).write_complete(line);
        if let Some(pl) = pending {
            self.issue_write(t, n, pl);
        }
        if unblocked {
            self.queue.schedule(t, Ev::Resume(n));
        }
    }

    /// Schedules a memory-data delivery at `at`, possibly duplicated
    /// under fault injection — in-spec because the agent's `MemData`
    /// handling is idempotent (data for a line with no waiting
    /// transaction is dropped).
    pub(crate) fn schedule_mem_done(&mut self, t: Cycle, n: usize, line: LineAddr, at: Cycle) {
        let duplicate = self
            .net
            .faults_mut()
            .and_then(|fi| fi.duplicate(DeliveryClass::Direct));
        if let Some(extra) = duplicate {
            let txn = TxnId {
                node: ring_noc::NodeId(n),
                serial: 0,
            };
            self.emit_fault(
                t,
                n,
                txn,
                line.raw(),
                InjectedFault {
                    kind: FaultKind::Duplicate,
                    delay: extra,
                },
            );
            self.queue.schedule(at + extra, Ev::MemDone(n, line));
        }
        self.queue.schedule(at, Ev::MemDone(n, line));
    }

    /// Asserts the coherence invariants for one line (enabled with
    /// [`MachineConfig::check_invariants`]): at most one supplier, and no
    /// valid non-supplier copies without *some* designated supplier having
    /// existed (Shared copies may transiently outlive a supplier eviction,
    /// which the protocol handles via the memory path, so only the
    /// single-supplier half is asserted).
    ///
    /// Scans every agent, so it only runs on the serial engine (the
    /// parallel engine falls back to serial under `check_invariants`).
    ///
    /// # Panics
    ///
    /// Panics if two nodes simultaneously hold `line` in supplier states.
    pub(crate) fn check_line_invariants(&self, t: Cycle, line: LineAddr) {
        // A node with an outstanding transaction on the line may hold a
        // logically dead supplier-state copy (the paper defers its
        // invalidation until the transaction loses), and it snoops
        // negative meanwhile -- so only settled copies count.
        let agents = self.nodes.all_agents();
        let suppliers: Vec<usize> = agents
            .iter()
            .enumerate()
            .filter(|(_, a)| a.l2().state(line).is_supplier() && !a.has_outstanding(line))
            .map(|(n, _)| n)
            .collect();
        if suppliers.len() > 1 {
            for (n, a) in agents.iter().enumerate() {
                let st = a.l2().state(line);
                if st.is_valid() || a.is_line_engaged(line) {
                    eprintln!(
                        "  node {n}: state={st} outstanding={} engaged={}",
                        a.has_outstanding(line),
                        a.is_line_engaged(line)
                    );
                }
            }
            if let Some(events) = self.trace.get(&line) {
                for e in events
                    .iter()
                    .rev()
                    .take(200)
                    .collect::<Vec<_>>()
                    .iter()
                    .rev()
                {
                    eprintln!("  {e}");
                }
            }
            panic!(
                "single-supplier invariant violated at cycle {t}: line {line} \
                 held in supplier state by settled nodes {suppliers:?}"
            );
        }
    }

    /// Dispatches one popped event exactly as the serial engine always
    /// has. `fx` is the machine's reusable effect buffer.
    pub(crate) fn dispatch(&mut self, t: Cycle, ev: Ev<A::Input>, fx: &mut Vec<A::Effect>) {
        match ev {
            Ev::Resume(n) => self.resume(t, n),
            Ev::RelWire(frame) => {
                self.rel_event(t, |rel, net, acts| rel.on_wire(net, t, frame, acts));
            }
            Ev::RelTimer(flow) => {
                self.rel_event(t, |rel, net, acts| rel.on_timer(net, t, flow, acts));
            }
            Ev::RelAck(flow) => {
                self.rel_event(t, |rel, net, acts| rel.on_ack_timer(net, t, flow, acts));
            }
            Ev::Agent(n, input) => self.handle_agent_event(t, n, input, fx),
            Ev::MemDone(n, line) => {
                self.handle_agent_event(t, n, A::mem_data(line), fx);
            }
        }
    }

    /// Handles one agent-input event end to end on the serial engine:
    /// agent handling, trace drain, effect application. `fx` is the
    /// machine's reusable effect buffer, passed in to avoid aliasing.
    pub(crate) fn handle_agent_event(
        &mut self,
        t: Cycle,
        n: usize,
        input: A::Input,
        fx: &mut Vec<A::Effect>,
    ) {
        fx.clear();
        self.nodes.agent_mut(n).handle_into(t, input, fx);
        if self.trace_enabled {
            self.drain_agent_trace(n);
        }
        A::apply_effects(self, t, n, fx);
    }
}

impl Ctx<'_, RingAgent> {
    /// Applies a ring agent's effects in `fx`, draining it (the buffer
    /// is reused across events). Never calls back into agent handling.
    pub(crate) fn apply_effects(&mut self, t: Cycle, n: usize, fx: &mut Vec<Effect>) {
        for e in fx.drain(..) {
            match e {
                Effect::RingSend { msg, delay } => {
                    let from = self.node(n);
                    let succ =
                        self.rings[(msg.line().raw() as usize) % self.rings.len()].successor(from);
                    if self.trace_enabled {
                        let payload = match &msg {
                            ring_coherence::RingMsg::Request(r) => Payload::Request {
                                op: op_class(r.kind),
                            },
                            ring_coherence::RingMsg::Response(r) => Payload::Response {
                                positive: r.positive,
                                squashed: r.squashed,
                                loser_hint: r.loser_hint,
                                outcomes: r.outcomes,
                            },
                        };
                        let txn = msg.txn();
                        self.emit(TraceEvent {
                            cycle: t,
                            node: n as u32,
                            txn_node: txn.node.0 as u32,
                            txn_serial: txn.serial,
                            line: msg.line().raw(),
                            kind: TraceKind::RingSend {
                                to: succ.0 as u32,
                                payload,
                            },
                        });
                    }
                    if let ring_coherence::RingMsg::Request(r) = &msg {
                        if r.requester().0 == n {
                            self.registry.node_mut(n).requests += 1;
                            self.anatomy_marks.insert(
                                (n, msg.line().raw()),
                                AnatomyMark {
                                    issued: Some(t),
                                    ..AnatomyMark::default()
                                },
                            );
                        }
                    }
                    let ch = match msg {
                        ring_coherence::RingMsg::Request(_) => Channel::Request,
                        ring_coherence::RingMsg::Response(_) => Channel::Response,
                    };
                    if self.rel.is_some() {
                        // Ring FIFO survives loss because the flow
                        // (from, succ, ch) delivers strictly in
                        // sequence order at the far end.
                        let bytes = msg.bytes();
                        self.rel_event(t, |rel, net, acts| {
                            rel.send(
                                net,
                                t + delay,
                                from,
                                succ,
                                ch,
                                bytes,
                                0,
                                AgentInput::RingArrival(msg),
                                acts,
                            );
                        });
                    } else {
                        let d = self.net.unicast(t + delay, from, succ, msg.bytes(), ch);
                        // Ring messages are only ever perturbed inside the
                        // network model (jitter/congestion through the link
                        // occupancy chain, which preserves per-link FIFO);
                        // they are never reordered or duplicated here.
                        if let Some(fault) = d.fault {
                            self.emit_fault(t, n, msg.txn(), msg.line().raw(), fault);
                        }
                        self.stats.traffic.add_control(msg.bytes(), d.hops);
                        self.queue
                            .schedule(d.arrival, Ev::Agent(succ.0, AgentInput::RingArrival(msg)));
                    }
                }
                Effect::MulticastRequest(req) => {
                    if self.trace_enabled {
                        self.emit(TraceEvent {
                            cycle: t,
                            node: n as u32,
                            txn_node: req.txn.node.0 as u32,
                            txn_serial: req.txn.serial,
                            line: req.line.raw(),
                            kind: TraceKind::MulticastRequest {
                                op: op_class(req.kind),
                            },
                        });
                    }
                    self.registry.node_mut(n).requests += 1;
                    self.anatomy_marks.insert(
                        (n, req.line.raw()),
                        AnatomyMark {
                            issued: Some(t),
                            ..AnatomyMark::default()
                        },
                    );
                    if self.rel.is_some() {
                        let mut ds = std::mem::take(self.mc_buf);
                        let root = self.node(n);
                        let mut tree_err = None;
                        self.rel_event(t, |rel, net, acts| {
                            if let Err(e) = rel.send_multicast(
                                net,
                                t,
                                root,
                                Channel::Request,
                                CONTROL_BYTES,
                                AgentInput::DirectRequest(req),
                                &mut ds,
                                acts,
                            ) {
                                tree_err = Some(e);
                            }
                        });
                        ds.clear();
                        *self.mc_buf = ds;
                        if let Some(noc_err) = tree_err {
                            self.multicast_failed(t, n, req.txn, req.line, noc_err);
                        }
                        continue;
                    }
                    let mut ds = std::mem::take(self.mc_buf);
                    match self.net.multicast_into(
                        t,
                        self.node(n),
                        CONTROL_BYTES,
                        Channel::Request,
                        &mut ds,
                    ) {
                        Ok(()) => {
                            for d in ds.drain(..) {
                                self.stats.traffic.add_control(CONTROL_BYTES, d.hops);
                                if let Some(fault) = d.fault {
                                    self.emit_fault(t, n, req.txn, req.line.raw(), fault);
                                }
                                // Multicast requests travel the unconstrained
                                // path, which guarantees no ordering — a bounded
                                // reordering delay is in-spec.
                                let mut arrival = d.arrival;
                                let reorder = self.net.faults_mut().and_then(|fi| fi.reorder());
                                if let Some(extra) = reorder {
                                    arrival += extra;
                                    self.emit_fault(
                                        t,
                                        n,
                                        req.txn,
                                        req.line.raw(),
                                        InjectedFault {
                                            kind: FaultKind::Reorder,
                                            delay: extra,
                                        },
                                    );
                                }
                                self.queue.schedule(
                                    arrival,
                                    Ev::Agent(d.to.0, AgentInput::DirectRequest(req)),
                                );
                            }
                        }
                        Err(noc_err) => {
                            ds.clear();
                            self.multicast_failed(t, n, req.txn, req.line, noc_err);
                        }
                    }
                    *self.mc_buf = ds;
                }
                Effect::SendSupplier { to, msg } => {
                    self.registry.node_mut(n).supplies += 1;
                    if let Some(m) = self
                        .anatomy_marks
                        .get_mut(&(msg.txn.node.0, msg.line.raw()))
                    {
                        if m.supplied.is_none() {
                            m.supplied = Some(t);
                        }
                    }
                    let ch = if msg.with_data {
                        Channel::Data
                    } else {
                        Channel::Response
                    };
                    if self.rel.is_some() {
                        let from = self.node(n);
                        let bytes = msg.bytes();
                        self.rel_event(t, |rel, net, acts| {
                            rel.send(
                                net,
                                t,
                                from,
                                to,
                                ch,
                                bytes,
                                0,
                                AgentInput::Supplier(msg),
                                acts,
                            );
                        });
                        continue;
                    }
                    let d = self.net.unicast(t, self.node(n), to, msg.bytes(), ch);
                    if msg.with_data {
                        self.stats.traffic.add_data(msg.bytes(), d.hops);
                    } else {
                        self.stats.traffic.add_control(msg.bytes(), d.hops);
                    }
                    if let Some(fault) = d.fault {
                        self.emit_fault(t, n, msg.txn, msg.line.raw(), fault);
                    }
                    // Suppliership messages are point-to-point and
                    // unordered, and their consumption is idempotent
                    // (the agent ignores a suppliership for a
                    // transaction it already holds one for) — so both
                    // reordering and duplication are in-spec.
                    let mut arrival = d.arrival;
                    let reorder = self.net.faults_mut().and_then(|fi| fi.reorder());
                    if let Some(extra) = reorder {
                        arrival += extra;
                        self.emit_fault(
                            t,
                            n,
                            msg.txn,
                            msg.line.raw(),
                            InjectedFault {
                                kind: FaultKind::Reorder,
                                delay: extra,
                            },
                        );
                    }
                    let duplicate = self
                        .net
                        .faults_mut()
                        .and_then(|fi| fi.duplicate(DeliveryClass::Direct));
                    if let Some(extra) = duplicate {
                        self.emit_fault(
                            t,
                            n,
                            msg.txn,
                            msg.line.raw(),
                            InjectedFault {
                                kind: FaultKind::Duplicate,
                                delay: extra,
                            },
                        );
                        self.queue
                            .schedule(arrival + extra, Ev::Agent(to.0, AgentInput::Supplier(msg)));
                    }
                    self.queue
                        .schedule(arrival, Ev::Agent(to.0, AgentInput::Supplier(msg)));
                }
                Effect::StartSnoop { txn, line, delay }
                | Effect::DelaySnoop { txn, line, delay } => {
                    self.queue
                        .schedule(t + delay, Ev::Agent(n, AgentInput::SnoopDone { txn, line }));
                }
                Effect::MemFetch { line, prefetch } => {
                    if prefetch {
                        if self.cpp.admit_prefetch(line) {
                            self.registry.node_mut(n).mem_prefetch += 1;
                            let done = self.mem.request(t, line);
                            self.cpp.mark_fetched(line);
                            self.pbufs[n].fill(t, line, done);
                        }
                    } else if let Some(avail) = self.pbufs[n].claim(t, line) {
                        self.registry.node_mut(n).prefetch_hits += 1;
                        if self.trace_enabled {
                            self.emit(TraceEvent {
                                cycle: t,
                                node: n as u32,
                                txn_node: n as u32,
                                txn_serial: 0,
                                line: line.raw(),
                                kind: TraceKind::PrefetchHit,
                            });
                        }
                        self.schedule_mem_done(t, n, line, avail);
                    } else {
                        self.registry.node_mut(n).mem_demand += 1;
                        let done = self.mem.request(t, line);
                        self.cpp.mark_fetched(line);
                        self.schedule_mem_done(t, n, line, done);
                    }
                }
                Effect::Writeback { line } => {
                    self.registry.node_mut(n).writebacks += 1;
                    self.cpp.mark_written_back(line);
                }
                Effect::L1Invalidate { line } => {
                    self.nodes.core_mut(n).l1_invalidate(line);
                }
                Effect::Bound {
                    line,
                    kind,
                    latency,
                    c2c,
                } => {
                    self.watchdog.progress(t);
                    if let Some(m) = self.anatomy_marks.get_mut(&(n, line.raw())) {
                        if m.bound.is_none() {
                            m.bound = Some(t);
                        }
                    }
                    if kind == TxnKind::Read {
                        // Add the L1 fill on top of the L2-to-L2 path, per
                        // the paper's "until the data arrives at the
                        // requester's L1".
                        self.registry
                            .node_mut(n)
                            .record_read_bound(latency + self.cfg.l1.latency, c2c);
                        if self.nodes.core_mut(n).read_done(line) {
                            self.queue.schedule(t, Ev::Resume(n));
                        }
                    }
                }
                Effect::Complete {
                    line,
                    kind,
                    c2c,
                    retries: _,
                    prefetch_issued,
                    latency,
                } => {
                    self.watchdog.progress(t);
                    let mark = self.anatomy_marks.remove(&(n, line.raw()));
                    self.registry.classes.record(op_class(kind), c2c, latency);
                    if kind == TxnKind::Read {
                        self.registry.node_mut(n).record_read_complete(
                            latency,
                            c2c,
                            prefetch_issued,
                        );
                        if c2c {
                            if let Some(AnatomyMark {
                                issued: Some(i),
                                supplied: Some(s),
                                bound: Some(b),
                            }) = mark
                            {
                                if i <= s && s <= b && b <= t {
                                    self.registry.anatomy.record(s - i, b - s, t - b);
                                }
                            }
                        }
                    }
                    if self.cfg.check_invariants {
                        self.check_line_invariants(t, line);
                    }
                    if kind != TxnKind::Read {
                        self.write_completed(t, n, line);
                    }
                }
                Effect::Retry { line, delay } => {
                    self.registry.node_mut(n).retries += 1;
                    self.anatomy_marks.remove(&(n, line.raw()));
                    self.queue
                        .schedule(t + delay, Ev::Agent(n, AgentInput::RetryNow { line }));
                }
            }
        }
    }
}
