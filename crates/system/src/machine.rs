//! The machine: one event loop over a per-node protocol agent.
//!
//! [`Sim`] owns everything the protocols share — cores, caches, memory,
//! network, event queue, watchdog, tracing, flight recorder and the
//! report — and drives one [`NodeAgent`] per node. [`Machine`] runs the
//! embedded-ring agents, [`HtMachine`] the HyperTransport baseline's.

use ring_cache::{CacheArray, LineAddr};
use ring_coherence::ht::HtAgent;
use ring_coherence::{AgentInput, NodePrefetchPredictor, ProtocolKind, RingAgent, TxnId, TxnKind};
use ring_cpu::Core;
use ring_mem::{ControllerPrefetchPredictor, MemoryController, PrefetchBuffer};
use ring_noc::{
    Delivery, FaultKind, FlowKey, FrameId, Network, NodeId, OutageEvent, RelAction,
    ReliableTransport, RingEmbedding, Torus,
};
use ring_sim::{Cycle, DetRng, EventQueue, FxHashMap, Watchdog};
use ring_trace::{
    FaultClass, FlightProbe, FlightRecorder, LinkMetrics, MetricsRegistry, OpClass, TraceEvent,
    TraceSink,
};
use ring_workloads::{AppProfile, WorkloadGen};

use ring_snapshot::{SnapReader, SnapWriter, SnapshotBuilder, SnapshotError, SnapshotFile};

use crate::checkpoint;
use crate::config::MachineConfig;
use crate::effects::Ctx;
use crate::stall::{NodeStallState, ReliabilityStall, RestoredFrom, StallCause, StallReport};
use crate::stats::{MachineStats, Report};

/// Maps a protocol transaction kind onto the trace-layer operation
/// class.
pub(crate) fn op_class(kind: TxnKind) -> OpClass {
    match kind {
        TxnKind::Read => OpClass::Read,
        TxnKind::WriteMiss => OpClass::WriteMiss,
        TxnKind::WriteHit => OpClass::WriteHit,
    }
}

/// Maps a network-layer fault kind onto the trace-layer fault class.
pub(crate) fn fault_class(kind: FaultKind) -> FaultClass {
    match kind {
        FaultKind::Jitter => FaultClass::Jitter,
        FaultKind::Reorder => FaultClass::Reorder,
        FaultKind::Duplicate => FaultClass::Duplicate,
        FaultKind::Congestion => FaultClass::Congestion,
        FaultKind::Drop => FaultClass::Drop,
        FaultKind::Outage => FaultClass::Outage,
    }
}

/// Trace events kept for post-mortem stall reports.
pub(crate) const RECENT_EVENTS: usize = 64;

/// Timestamps of one in-flight read attempt, keyed by
/// `(requester node, line)`, from which the Figure-5 latency anatomy is
/// assembled at completion.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AnatomyMark {
    pub(crate) issued: Option<Cycle>,
    pub(crate) supplied: Option<Cycle>,
    pub(crate) bound: Option<Cycle>,
}

/// Machine-level events; `I` is the agents' input type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ev<I> {
    /// Resume the core of a node.
    Resume(usize),
    /// Deliver a protocol input to a node's agent.
    Agent(usize, I),
    /// A demand memory fetch completed for a node.
    MemDone(usize, LineAddr),
    /// A reliable-transport frame arrives at the far end of its route.
    RelWire(FrameId),
    /// A retransmission deadline check for one flow.
    RelTimer(FlowKey),
    /// An ack-coalescing deadline for one flow.
    RelAck(FlowKey),
}

/// The per-node protocol agent a [`Sim`] drives — the only part of the
/// machine that differs between the ring protocols ([`RingAgent`]) and
/// the HyperTransport baseline ([`HtAgent`]).
///
/// Events deliver [`NodeAgent::Input`]s; the agent answers with
/// [`NodeAgent::Effect`]s, which [`NodeAgent::apply_effects`] carries
/// out against the shared machine. The remaining methods are the
/// agent's view for core scheduling, tracing, stall reports and the
/// report roll-up.
pub trait NodeAgent: Sized {
    /// A protocol input an event delivers to an agent.
    type Input: Copy + std::fmt::Debug + PartialEq;
    /// An effect the agent asks the machine to carry out.
    type Effect;
    /// Whether this agent's effects model fault injection and the
    /// reliability sublayer; a machine over an agent that does not
    /// refuses a configuration asking for either.
    const MODELS_FAULTS: bool;

    /// The agent for `node` of a machine configured by `cfg`; `rng` is
    /// the machine's root generator, for agents that fork their own.
    fn build(node: NodeId, cfg: &MachineConfig, rng: &mut DetRng) -> Self;
    /// Pre-installs each shared line at its owner, in order, plus
    /// whatever warm-up the protocol's predictors need (the paper skips
    /// initialization).
    fn warm(m: &mut Sim<Self>, lines: &[(LineAddr, usize)]);
    /// Handles one input at cycle `now`, appending its effects to `fx`.
    fn handle_into(&mut self, now: Cycle, input: Self::Input, fx: &mut Vec<Self::Effect>);
    /// Carries out, and drains, the effects node `n` asked for at `t`.
    fn apply_effects(cx: &mut Ctx<'_, Self>, t: Cycle, n: usize, fx: &mut Vec<Self::Effect>);
    /// The input delivering demand memory data for `line`.
    fn mem_data(line: LineAddr) -> Self::Input;
    /// The input a core's blocked read of `line` issues.
    fn read_request(line: LineAddr) -> Self::Input;
    /// The input a store to `line` issues, or `None` when the line is
    /// writable silently.
    fn write_request(&self, line: LineAddr) -> Option<Self::Input>;
    /// The node's L2.
    fn l2(&self) -> &CacheArray;
    /// Whether an own transaction on `line` is outstanding.
    fn has_outstanding(&self, line: LineAddr) -> bool;
    /// Whether `line` has an outstanding or deferred own transaction.
    fn is_line_engaged(&self, line: LineAddr) -> bool;
    /// Switches structured event collection on or off.
    fn set_tracing(&mut self, on: bool);
    /// Takes the events collected since the last drain.
    fn drain_trace(&mut self) -> Vec<TraceEvent>;
    /// The agent's part of a stall report (the machine fills in the
    /// node id and whether its core finished).
    fn stall_state(&self) -> NodeStallState;
    /// Adds the agents' counters to the report's statistics and installs
    /// the link loads the protocol reports into `reg`, the registry the
    /// report is rolled up from.
    fn roll_up(m: &Sim<Self>, reg: &mut MetricsRegistry, stats: &mut MachineStats);
    /// Transaction and line of a reliably delivered input, for trace
    /// attribution (`None` for inputs that belong to neither, and for
    /// agents without the reliability sublayer).
    fn input_ids(_input: &Self::Input) -> Option<(TxnId, u64)> {
        None
    }
    /// The checkpoint image of `m` at `cycle`, or `None` for agents
    /// without a snapshot codec (which can never enable checkpoints).
    fn snapshot(_m: &Sim<Self>, _cycle: Cycle) -> Option<SnapshotBuilder> {
        None
    }
}

/// A 64-node (configurable) CMP running one protocol agent per node
/// over a synthetic workload. Every protocol runs on this one event
/// loop, over the same cores, caches, memory and network — "all
/// algorithms use exactly the same network" (paper §6).
///
/// Construction wires every node with an identical, independently seeded
/// workload stream; [`Sim::run`] executes to completion and returns a
/// [`Report`].
pub struct Sim<A: NodeAgent> {
    pub(crate) cfg: MachineConfig,
    pub(crate) queue: EventQueue<Ev<A::Input>>,
    pub(crate) net: Network,
    /// Logical rings; one by default, two (opposite directions) when
    /// `dual_rings` is on. Lines map to rings by parity.
    pub(crate) rings: Vec<RingEmbedding>,
    pub(crate) cores: Vec<Core>,
    pub(crate) agents: Vec<A>,
    pub(crate) mem: MemoryController,
    pub(crate) cpp: ControllerPrefetchPredictor,
    pub(crate) pbufs: Vec<PrefetchBuffer>,
    pub(crate) finish_time: Vec<Option<Cycle>>,
    pub(crate) stats: MachineStats,
    /// Per-node/per-link counters, merged into [`MachineStats`] at
    /// report time.
    pub(crate) registry: MetricsRegistry,
    /// Latency-anatomy timestamps of in-flight transactions. Iteration
    /// order is never observed, so the fast deterministic hasher is
    /// safe here.
    pub(crate) anatomy_marks: FxHashMap<(usize, u64), AnatomyMark>,
    /// Reusable effect buffer for agent handling (one allocation for
    /// the whole run instead of one per event).
    pub(crate) fx_buf: Vec<A::Effect>,
    /// Reusable multicast delivery buffer.
    pub(crate) mc_buf: Vec<Delivery>,
    /// Per-line protocol event trace, kept only for lines selected by
    /// `check_invariants` or `trace_lines`.
    pub(crate) trace: std::collections::BTreeMap<LineAddr, Vec<TraceEvent>>,
    /// Structured event sink; every trace event of every line goes here.
    pub(crate) sink: Option<Box<dyn TraceSink>>,
    /// Whether any consumer (sink or per-line trace) wants events.
    pub(crate) trace_enabled: bool,
    /// Forward-progress watchdog (disabled when the threshold is 0).
    pub(crate) watchdog: Watchdog,
    /// Last [`RECENT_EVENTS`] trace events, for stall reports.
    pub(crate) recent: std::collections::VecDeque<TraceEvent>,
    /// Reliable-delivery sublayer (`None` when disabled — the send
    /// paths then run the exact pre-reliability code, so timing and RNG
    /// draw sequences are untouched).
    pub(crate) rel: Option<ReliableTransport<A::Input>>,
    /// Reusable action buffer for reliable-transport calls.
    pub(crate) rel_buf: Vec<RelAction<A::Input>>,
    /// Reusable buffer for link outage transitions observed by the
    /// network.
    pub(crate) outage_buf: Vec<OutageEvent>,
    /// Windowed flight recorder (`None` when profiling is off — the
    /// event loop then pays exactly one integer compare per event).
    pub(crate) flight: Option<FlightRecorder>,
    /// Next window boundary at which to probe the flight recorder
    /// (`Cycle::MAX` when no recorder is installed).
    pub(crate) next_window: Cycle,
    /// Checkpoint cadence in cycles (0 = checkpointing off).
    pub(crate) ckpt_every: Cycle,
    /// Directory checkpoint files are written into.
    pub(crate) ckpt_dir: std::path::PathBuf,
    /// Checkpoint retention bound: keep only the newest `ckpt_keep`
    /// snapshots in `ckpt_dir` (0 = unbounded, the historical default).
    pub(crate) ckpt_keep: usize,
    /// Next cycle boundary at which to write a checkpoint
    /// (`Cycle::MAX` when checkpointing is off — the event loop then
    /// pays exactly one integer compare per event).
    pub(crate) next_ckpt: Cycle,
    /// Writes periodic checkpoints behind the run.
    pub(crate) ckpt_writer: checkpoint::Writer,
    /// Provenance of the checkpoint this machine was restored from
    /// (`None` for a machine built from scratch).
    pub(crate) restored_from: Option<(String, Cycle)>,
    /// Fingerprint of the workload profile the op streams were built
    /// from; 0 for explicit streams ([`Sim::with_streams`]), whose
    /// snapshots cannot be restored (the streams are opaque).
    pub(crate) workload_fp: u64,
    /// Node→LP assignment for the parallel engine (`None` = contiguous
    /// arcs, derived from the worker count at run time). Purely an
    /// execution-strategy knob: digests are identical for every
    /// partition, so it is not part of any snapshot.
    pub(crate) partition: Option<ring_sim::pdes::Partition>,
}

/// The embedded-ring protocols' machine: Eager, SupersetCon,
/// SupersetAgg, Uncorq and Uncorq+Pref.
pub type Machine = Sim<RingAgent>;

/// The HyperTransport baseline's machine (paper §7.4), for the Figure 11
/// comparison.
pub type HtMachine = Sim<HtAgent>;

/// Outcome of one bounded slice of the event loop
/// ([`Sim::try_run_slice`]).
#[derive(Debug)]
pub enum RunProgress {
    /// The run completed (or hit the cycle cap): the final [`Report`].
    Done(Box<Report>),
    /// The event budget was exhausted with runnable events still
    /// queued; call [`Sim::try_run_slice`] again to continue.
    Yielded {
        /// Events processed in this slice.
        events: u64,
        /// Simulated cycle the machine paused at.
        cycle: Cycle,
    },
}

/// Serializes one machine event. The tags are part of the snapshot
/// schema: renumbering them requires a [`ring_snapshot::SCHEMA_VERSION`]
/// bump.
fn ev_save(w: &mut SnapWriter, ev: &Ev<AgentInput>) {
    match ev {
        Ev::Resume(n) => {
            w.put(&0u8);
            w.put(&(*n as u64));
        }
        Ev::Agent(n, input) => {
            w.put(&1u8);
            w.put(&(*n as u64));
            w.put(input);
        }
        Ev::MemDone(n, line) => {
            w.put(&2u8);
            w.put(&(*n as u64));
            w.put(line);
        }
        Ev::RelWire(frame) => {
            w.put(&3u8);
            w.put(&frame.0);
        }
        Ev::RelTimer(flow) => {
            w.put(&4u8);
            w.put(flow);
        }
        Ev::RelAck(flow) => {
            w.put(&5u8);
            w.put(flow);
        }
    }
}

/// Decodes one machine event, validating node indices against the
/// machine size.
fn ev_load(r: &mut SnapReader<'_>, nodes: usize) -> Result<Ev<AgentInput>, SnapshotError> {
    let node = |r: &mut SnapReader<'_>| -> Result<usize, SnapshotError> {
        let n = r.get::<u64>()? as usize;
        if n >= nodes {
            return Err(r.malformed(format!("event node {n} out of range (machine has {nodes})")));
        }
        Ok(n)
    };
    Ok(match r.get::<u8>()? {
        0 => Ev::Resume(node(r)?),
        1 => {
            let n = node(r)?;
            Ev::Agent(n, r.get()?)
        }
        2 => {
            let n = node(r)?;
            Ev::MemDone(n, r.get()?)
        }
        3 => Ev::RelWire(FrameId(r.get()?)),
        4 => Ev::RelTimer(r.get()?),
        5 => Ev::RelAck(r.get()?),
        other => return Err(r.malformed(format!("unknown event tag {other}"))),
    })
}

impl<A: NodeAgent> Sim<A> {
    /// Builds a machine in which every core runs `profile`'s op stream,
    /// with the shared pools pre-warmed (the paper skips initialization).
    pub fn new(cfg: MachineConfig, profile: &AppProfile) -> Self {
        let nodes = cfg.nodes();
        let streams: Vec<Box<dyn Iterator<Item = ring_cpu::Op> + Send>> = (0..nodes)
            .map(|n| {
                Box::new(WorkloadGen::new(profile, n, nodes, cfg.seed))
                    as Box<dyn Iterator<Item = ring_cpu::Op> + Send>
            })
            .collect();
        let mut m = Self::with_streams(cfg, streams);
        m.workload_fp = checkpoint::workload_fingerprint(profile);
        // Warm the shared regions: pool lines interleave round-robin and
        // producer-consumer buffers start at their producing core, all in
        // a supplier state.
        let lines: Vec<(LineAddr, usize)> = profile
            .warm_lines(nodes)
            .into_iter()
            .map(|(raw, owner)| (LineAddr::new(raw), owner))
            .collect();
        A::warm(&mut m, &lines);
        m
    }

    /// Builds a machine over explicit per-core op streams (one per node),
    /// with cold caches. Useful for directed experiments and tests.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != cfg.nodes()`, if `cfg` is invalid, or
    /// if it asks for fault injection or the reliability sublayer on an
    /// agent that models neither ([`NodeAgent::MODELS_FAULTS`]).
    pub fn with_streams(
        cfg: MachineConfig,
        streams: Vec<Box<dyn Iterator<Item = ring_cpu::Op> + Send>>,
    ) -> Self {
        let nodes = cfg.nodes();
        assert_eq!(streams.len(), nodes, "one op stream per node required");
        if let Err(e) = cfg.validate() {
            panic!("invalid machine config: {e}");
        }
        // Recovery machinery the agents do not model would silently
        // measure a clean run, so refuse it loudly.
        assert!(
            A::MODELS_FAULTS || (cfg.faults.is_none() && !cfg.reliability.enabled),
            "this machine models neither fault injection nor the reliability sublayer; \
             disable both for the HT baseline"
        );
        let torus = Torus::new(cfg.width, cfg.height);
        let ring = if cfg.ring_row_major {
            RingEmbedding::row_major(&torus)
        } else {
            RingEmbedding::boustrophedon(&torus)
        };
        let mut rings = vec![ring];
        if cfg.dual_rings {
            let rev = rings[0].reversed();
            rings.push(rev);
        }
        let mut net = Network::new(torus, cfg.net);
        if let Some(plan) = cfg.faults {
            net.set_fault_plan(plan);
        }
        let mut root_rng = DetRng::seed(cfg.seed ^ 0x5EED);
        let mut cores = Vec::with_capacity(nodes);
        let mut agents = Vec::with_capacity(nodes);
        let mut pbufs = Vec::with_capacity(nodes);
        for (n, stream) in streams.into_iter().enumerate() {
            cores.push(Core::new(stream, cfg.l1, cfg.l2.latency, cfg.store_buffer));
            agents.push(A::build(NodeId(n), &cfg, &mut root_rng));
            pbufs.push(PrefetchBuffer::new(32, cfg.prefetch_hold));
        }
        let cpp =
            ControllerPrefetchPredictor::new(16 * 1024, cfg.mem.line_bytes, cfg.mem.page_bytes);
        let mut queue = EventQueue::new();
        for n in 0..nodes {
            queue.schedule(0, Ev::Resume(n));
        }
        let trace_enabled = cfg.check_invariants || !cfg.trace_lines.is_empty();
        if trace_enabled {
            for a in &mut agents {
                a.set_tracing(true);
            }
        }
        let watchdog = Watchdog::new(cfg.watchdog_cycles);
        let rel = cfg
            .reliability
            .enabled
            .then(|| ReliableTransport::new(cfg.reliability, cfg.seed ^ 0x0AC4));
        Sim {
            rel,
            mem: MemoryController::new(cfg.mem),
            cpp,
            cfg,
            queue,
            net,
            rings,
            cores,
            agents,
            pbufs,
            finish_time: vec![None; nodes],
            stats: MachineStats::default(),
            registry: MetricsRegistry::new(nodes, 16, 96),
            anatomy_marks: FxHashMap::default(),
            fx_buf: Vec::new(),
            mc_buf: Vec::new(),
            trace: std::collections::BTreeMap::new(),
            sink: None,
            trace_enabled,
            watchdog,
            recent: std::collections::VecDeque::new(),
            rel_buf: Vec::new(),
            outage_buf: Vec::new(),
            flight: None,
            next_window: Cycle::MAX,
            ckpt_every: 0,
            ckpt_dir: std::path::PathBuf::new(),
            ckpt_keep: 0,
            next_ckpt: Cycle::MAX,
            ckpt_writer: checkpoint::Writer::default(),
            restored_from: None,
            workload_fp: 0,
            partition: None,
        }
    }

    /// Builds the effect-execution context the serial engine commits
    /// events through (exclusive access to every shard).
    pub(crate) fn ctx(&mut self) -> Ctx<'_, A> {
        Ctx {
            cfg: &self.cfg,
            queue: &mut self.queue,
            net: &mut self.net,
            rings: &self.rings,
            nodes: crate::effects::NodeAccess::Excl {
                cores: &mut self.cores,
                agents: &mut self.agents,
            },
            mem: &mut self.mem,
            cpp: &mut self.cpp,
            pbufs: &mut self.pbufs,
            finish_time: &mut self.finish_time,
            stats: &mut self.stats,
            registry: &mut self.registry,
            anatomy_marks: &mut self.anatomy_marks,
            mc_buf: &mut self.mc_buf,
            trace: &mut self.trace,
            sink: &mut self.sink,
            trace_enabled: self.trace_enabled,
            watchdog: &mut self.watchdog,
            recent: &mut self.recent,
            rel: &mut self.rel,
            rel_buf: &mut self.rel_buf,
            outage_buf: &mut self.outage_buf,
        }
    }

    /// Installs a flight recorder: from now on the machine probes it the
    /// first time the clock reaches each multiple of the recorder's
    /// window interval, plus once at end of run for the final partial
    /// window. Recording observes state only — event timing, RNG draws,
    /// and all reported statistics are identical with or without it.
    pub fn enable_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.next_window = recorder.interval();
        self.flight = Some(recorder);
    }

    /// The installed flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Mutable access to the installed flight recorder (e.g. to flush
    /// its spill writer after a run).
    pub fn flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_mut()
    }

    /// Takes a checkpoint if the next pending event crosses the
    /// checkpoint boundary (and is still under the run's cycle cap),
    /// then advances the boundary. Called between events, so the image
    /// captures a consistent machine with the queue intact; the
    /// checkpoint writer makes it durable behind the run.
    pub(crate) fn maybe_checkpoint(&mut self, cap: Cycle) {
        let every = self.ckpt_every;
        if every == 0 {
            return;
        }
        let Some(pt) = self.queue.peek_time() else {
            return;
        };
        if pt < self.next_ckpt || pt >= cap {
            return;
        }
        let Some(image) = A::snapshot(self, pt) else {
            return;
        };
        let path = self.ckpt_dir.join(format!("ckpt-{pt:012}.ringsnap"));
        self.ckpt_writer.submit(image, path, self.ckpt_keep);
        self.next_ckpt = (pt / every + 1) * every;
    }

    /// Installs a structured trace sink: from now on every protocol
    /// trace event (all lines, all nodes) is recorded into it in
    /// chronological order. Enables agent-side event collection.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
        self.trace_enabled = true;
        for a in &mut self.agents {
            a.set_tracing(true);
        }
    }

    /// Flushes and removes the trace sink. Event collection falls back
    /// to what the configuration asks for
    /// ([`MachineConfig::check_invariants`], [`MachineConfig::trace_lines`]);
    /// when that is nothing, the stall-report ring of recent events is
    /// cleared too, so from here on the machine is one that was never
    /// traced. Like installing a sink, this never changes simulated
    /// behavior.
    pub fn remove_trace_sink(&mut self) {
        if let Some(mut s) = self.sink.take() {
            let _ = s.flush();
        }
        self.trace_enabled = self.cfg.check_invariants || !self.cfg.trace_lines.is_empty();
        if !self.trace_enabled {
            self.recent.clear();
        }
        for a in &mut self.agents {
            a.set_tracing(self.trace_enabled);
        }
    }

    /// The per-node/per-link metrics registry accumulated so far (link
    /// loads are only installed at [`Sim::report`] time).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Runs to completion (or the configured cycle cap) and reports.
    /// The machine can be inspected afterwards (e.g. cache states, agent
    /// counters).
    ///
    /// Forward-progress failures (see [`Sim::try_run`]) print their
    /// [`StallReport`] to stderr and yield a report with
    /// `finished = false`.
    pub fn run(&mut self) -> Report {
        match self.try_run() {
            Ok(r) => r,
            Err(stall) => {
                eprintln!("{stall}");
                self.report()
            }
        }
    }

    /// Runs to completion (or the configured cycle cap), terminating
    /// with a structured [`StallReport`] when the forward-progress
    /// watchdog expires ([`MachineConfig::watchdog_cycles`] without a
    /// completion, binding, or core step) or the event queue drains
    /// while cores are still unfinished (a protocol deadlock: nothing
    /// scheduled can ever unblock them).
    ///
    /// Hitting the `max_cycles` cap is not a stall: like before, the run
    /// stops and reports with `finished = false`.
    pub fn try_run(&mut self) -> Result<Report, Box<StallReport>> {
        match self.try_run_slice(u64::MAX)? {
            RunProgress::Done(r) => Ok(*r),
            RunProgress::Yielded { .. } => {
                // A u64::MAX event budget cannot be exhausted before the
                // queue drains or the cap is reached.
                unreachable!("unbounded slice yielded")
            }
        }
    }

    /// Runs at most `max_events` events, then yields — the pausable/
    /// steppable hook the `ringd` daemon's session workers are built
    /// on. Event processing is *identical* to [`Sim::try_run`]
    /// (same checkpoint probes, flight windows, watchdog checks, and
    /// dispatch); slicing changes only where control returns to the
    /// caller, so a run driven in slices of any size produces
    /// byte-identical reports, traces, and checkpoints to one
    /// uninterrupted [`Sim::try_run`].
    ///
    /// Returns [`RunProgress::Yielded`] when the budget was exhausted
    /// with runnable events still queued (the trace sink is flushed at
    /// each yield so live subscribers observe progress), or
    /// [`RunProgress::Done`] once the run completes or reaches the
    /// cycle cap. `Done` and a stall are returned only once every
    /// periodic checkpoint the run took is durable.
    ///
    /// # Errors
    ///
    /// Terminates with a [`StallReport`] exactly like
    /// [`Sim::try_run`]: watchdog expiry or a drained queue with
    /// unfinished cores.
    pub fn try_run_slice(&mut self, max_events: u64) -> Result<RunProgress, Box<StallReport>> {
        let progress = self.run_slice(max_events);
        if !matches!(progress, Ok(RunProgress::Yielded { .. })) {
            self.ckpt_writer.wait_idle();
        }
        progress
    }

    /// The event loop of [`Sim::try_run_slice`].
    fn run_slice(&mut self, max_events: u64) -> Result<RunProgress, Box<StallReport>> {
        let cap = if self.cfg.max_cycles == 0 {
            Cycle::MAX
        } else {
            self.cfg.max_cycles
        };
        let mut budget = max_events;
        // `pop_before` leaves the first event past the cap *in* the
        // queue (the old pop-then-check discarded it, losing an event
        // and advancing the clock past the cap). The checkpoint probe
        // runs *before* the pop so a snapshot always lands on an event
        // boundary with the queue fully intact. A checkpoint is due only
        // at a boundary below the cap, so that compare comes first: with
        // checkpointing off (`next_ckpt == Cycle::MAX`) each event costs
        // one integer compare and one queue probe, the pop.
        while let Some((t, ev)) = {
            if budget == 0 {
                None
            } else {
                if self.next_ckpt < cap
                    && self
                        .queue
                        .peek_time()
                        .is_some_and(|pt| pt >= self.next_ckpt)
                {
                    self.maybe_checkpoint(cap);
                }
                self.queue.pop_before(cap)
            }
        } {
            budget -= 1;
            if t >= self.next_window {
                self.flight_sample(t);
            }
            if self.watchdog.expired(t) {
                if let Some(s) = self.sink.as_mut() {
                    let _ = s.flush();
                }
                return Err(Box::new(self.stall_report(StallCause::WatchdogExpired, t)));
            }
            // Reuse one effect buffer across all events; `apply_effects`
            // drains it and never re-enters `handle`, so taking the
            // buffer out of `self` is safe.
            let mut fx = std::mem::take(&mut self.fx_buf);
            self.ctx().dispatch(t, ev, &mut fx);
            self.fx_buf = fx;
        }
        if budget == 0 && self.queue.peek_time().is_some_and(|pt| pt <= cap) {
            // Budget exhausted with runnable work left (`pop_before`
            // runs events *at* the cap too): yield without running the
            // end-of-run epilogue. Flushing the sink is observable on
            // the trace *file/stream* only, never in simulated state.
            if let Some(s) = self.sink.as_mut() {
                let _ = s.flush();
            }
            return Ok(RunProgress::Yielded {
                events: max_events,
                cycle: self.queue.now(),
            });
        }
        let capped = !self.queue.is_empty();
        if self.flight.is_some() {
            // Close the final (usually partial) window and flush the
            // spill so post-run readers see every snapshot.
            self.flight_sample(self.queue.now());
            if let Some(f) = self.flight.as_mut() {
                let _ = f.flush();
            }
        }
        if let Some(s) = self.sink.as_mut() {
            let _ = s.flush();
        }
        let report = self.report();
        if !capped && !report.finished {
            let now = self.queue.now();
            return Err(Box::new(self.stall_report(StallCause::QueueDrained, now)));
        }
        Ok(RunProgress::Done(Box::new(report)))
    }

    /// Probes machine state and folds it into the flight recorder,
    /// advancing the next window boundary past `t`. No-op without a
    /// recorder.
    pub(crate) fn flight_sample(&mut self, t: Cycle) {
        let interval = match &self.flight {
            Some(f) => f.interval(),
            None => return,
        };
        let probe = self.flight_probe(t);
        if let Some(f) = self.flight.as_mut() {
            f.record(probe);
        }
        self.next_window = (t / interval + 1) * interval;
    }

    /// Assembles a cumulative [`FlightProbe`] of the machine at `t`.
    fn flight_probe(&self, t: Cycle) -> FlightProbe {
        let nodes = self.agents.len();
        let mut node_activity = Vec::with_capacity(nodes);
        let mut node_ltt = Vec::with_capacity(nodes);
        let mut node_outstanding = Vec::with_capacity(nodes);
        let mut retries = 0u64;
        for (n, a) in self.agents.iter().enumerate() {
            let m = &self.registry.nodes()[n];
            let s = a.stall_state();
            node_activity.push(
                m.requests
                    + m.retries
                    + m.supplies
                    + m.mem_demand
                    + m.mem_prefetch
                    + m.prefetch_hits
                    + m.writebacks,
            );
            retries += m.retries;
            node_ltt.push(s.ltt_occupancy as u32);
            node_outstanding.push(s.outstanding as u32);
        }
        let (rel_unacked, rel_queued, retransmits) = match &self.rel {
            Some(rel) => {
                let s = rel.snapshot();
                (s.unacked_frames, s.queued_frames, s.retransmits)
            }
            None => (0, 0, 0),
        };
        let traffic = self.net.link_traffic();
        FlightProbe {
            cycle: t,
            events: self.queue.events_processed(),
            queue_depth: self.queue.len(),
            queue_buckets: self.queue.bucket_len(),
            queue_heap: self.queue.heap_len(),
            rel_unacked,
            rel_queued,
            retransmits,
            retries,
            node_activity,
            node_ltt,
            node_outstanding,
            link_messages: traffic.iter().map(|l| l.messages).collect(),
            link_bytes: traffic.iter().map(|l| l.bytes).collect(),
        }
    }

    /// Per-node forward-progress state (LTT/MSHR occupancy, pending
    /// core operations, lines being retried or starving) — the raw
    /// material for stall reports and for the stall attribution
    /// `uncorq --profile` prints.
    pub fn node_stall_states(&self) -> Vec<NodeStallState> {
        self.agents
            .iter()
            .enumerate()
            .map(|(n, a)| NodeStallState {
                node: n as u32,
                finished: self.finish_time[n].is_some(),
                ..a.stall_state()
            })
            .collect()
    }

    /// Snapshots the machine for a forward-progress failure at `now`.
    pub(crate) fn stall_report(&self, cause: StallCause, now: Cycle) -> StallReport {
        let nodes = self.node_stall_states();
        let reliability = self.rel.as_ref().map(|rel| {
            let fs = self.net.fault_stats();
            ReliabilityStall {
                transport: rel.snapshot(),
                drops: fs.drops,
                outage_drops: fs.outage_drops,
                link_drops: self
                    .net
                    .link_drops()
                    .iter()
                    .enumerate()
                    .filter(|(_, &d)| d > 0)
                    .map(|(l, &d)| (l as u32, d))
                    .collect(),
            }
        });
        StallReport {
            cause,
            detected_at: now,
            last_progress: self.watchdog.last_progress(),
            last_net_progress: self.watchdog.last_net_progress(),
            threshold: self.watchdog.threshold(),
            reliability,
            unfinished_nodes: self
                .finish_time
                .iter()
                .enumerate()
                .filter(|(_, f)| f.is_none())
                .map(|(n, _)| n as u32)
                .collect(),
            completed_transactions: self.report().stats.transactions,
            nodes,
            recent_events: self.recent.iter().cloned().collect(),
            restored_from: self
                .restored_from
                .as_ref()
                .map(|(path, cycle)| RestoredFrom {
                    path: path.clone(),
                    cycle: *cycle,
                }),
        }
    }

    /// Reliable-transport counters (`None` when the sublayer is
    /// disabled).
    pub fn reliability_stats(&self) -> Option<&ring_noc::RelStats> {
        self.rel.as_ref().map(|r| r.stats())
    }

    /// Whether the reliable transport has fully drained (no unacked or
    /// queued frames). Trivially true when the sublayer is disabled.
    pub fn reliability_idle(&self) -> bool {
        self.rel.as_ref().is_none_or(|r| r.idle())
    }

    /// Builds the report for the run so far without consuming the
    /// machine.
    pub fn report(&self) -> Report {
        let finished = self.finish_time.iter().all(Option::is_some);
        let exec_cycles = self
            .finish_time
            .iter()
            .map(|f| f.unwrap_or(self.queue.now()))
            .max()
            .unwrap_or(0);
        let mut stats = self.stats.clone();
        // Roll the per-node/per-link registry up into the machine stats.
        let mut reg = self.registry.clone();
        A::roll_up(self, &mut reg, &mut stats);
        stats.read_latency = reg.merged(|m| &m.read_latency);
        stats.read_latency_c2c = reg.merged(|m| &m.read_latency_c2c);
        stats.read_latency_mem = reg.merged(|m| &m.read_latency_mem);
        stats.read_completion = reg.merged(|m| &m.read_completion);
        if let Some(h) = reg.merged_c2c_histogram() {
            stats.c2c_histogram = h;
        }
        stats.reads_c2c = reg.total(|m| m.reads_c2c);
        stats.reads_mem = reg.total(|m| m.reads_mem);
        stats.pref_cache = reg.total(|m| m.pref_cache);
        stats.nopref_cache = reg.total(|m| m.nopref_cache);
        stats.nopref_mem = reg.total(|m| m.nopref_mem);
        stats.pref_mem = reg.total(|m| m.pref_mem);
        stats.anat_delivery = reg.anatomy.delivery;
        stats.anat_transfer = reg.anatomy.transfer;
        stats.anat_response = reg.anatomy.response;
        stats.phase_delivery = reg.anatomy.delivery_hist.clone();
        stats.phase_transfer = reg.anatomy.transfer_hist.clone();
        stats.phase_response = reg.anatomy.response_hist.clone();
        stats.class_latency = reg.classes.clone();
        stats.link_msgs = reg.link_message_summary();
        for core in &self.cores {
            stats.ops_retired += core.stats().retired;
        }
        stats.events = self.queue.events_processed();
        Report {
            exec_cycles,
            finished,
            stats,
        }
    }

    /// Read access to the per-node protocol agents (post-run inspection).
    pub fn agents(&self) -> &[A] {
        &self.agents
    }

    /// Counts the nodes currently holding `line` in a supplier state —
    /// the single-supplier invariant requires this to be at most 1 in
    /// quiescence.
    pub fn supplier_count(&self, line: LineAddr) -> usize {
        self.agents
            .iter()
            .filter(|a| a.l2().state(line).is_supplier())
            .count()
    }

    /// The recorded protocol event trace for `line`, in chronological
    /// order (request issue/forwarding, snoops, LTT activity, response
    /// forwarding with its marks, suppliership transfers, memory
    /// fetches, retries, and completions). The events render the legacy
    /// human-readable lines through their `Display` impl. Empty unless
    /// the line was traced via [`MachineConfig::check_invariants`] or
    /// [`MachineConfig::trace_lines`].
    pub fn line_trace(&self, line: LineAddr) -> &[TraceEvent] {
        self.trace.get(&line).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Peak number of simultaneously pending events observed so far —
    /// the event-queue working set (reported by the bench sweep).
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// Fault-injection statistics accumulated by the network layer's
    /// injector (all zeros when faults are off).
    pub fn fault_stats(&self) -> ring_noc::FaultStats {
        self.net.fault_stats()
    }
}

impl Machine {
    /// Enables periodic checkpointing: approximately every `every`
    /// cycles (at the first event boundary on or after each multiple)
    /// the machine writes an integrity-verified snapshot into `dir` as
    /// `ckpt-<cycle>.ringsnap`, atomically. `every == 0` disables
    /// checkpointing again.
    ///
    /// Checkpointing observes state only — event timing, RNG draws, and
    /// every reported statistic are byte-identical with or without it.
    /// Write failures are reported on stderr and the run continues (a
    /// full disk must not kill the simulation it is meant to protect).
    ///
    /// Each image is built at its cycle on the calling thread and
    /// written behind the run by the machine's writer thread, one image
    /// at a time, in order. Every image is durable once a run returns
    /// [`RunProgress::Done`] or a stall, once [`Machine::checkpoint_now`]
    /// returns, and once the machine is dropped; a crash before that
    /// loses at most the one image in flight, whose `.tmp` file is never
    /// a checkpoint candidate.
    pub fn enable_checkpoints(&mut self, every: Cycle, dir: impl Into<std::path::PathBuf>) {
        self.ckpt_dir = dir.into();
        self.ckpt_every = every;
        self.next_ckpt = match self.queue.now().checked_div(every) {
            None => Cycle::MAX, // every == 0: disabled
            Some(periods) => (periods + 1) * every,
        };
    }

    /// Bounds checkpoint retention: after every successful checkpoint
    /// write, only the newest `keep` snapshots are left in the
    /// checkpoint directory (oldest pruned first). `0` restores the
    /// unbounded historical behavior. The newest snapshot — the one
    /// just written — is never pruned.
    pub fn set_checkpoint_retention(&mut self, keep: usize) {
        self.ckpt_keep = keep;
    }

    /// Writes a snapshot of the current machine state into the
    /// checkpoint directory right now (named `ckpt-<cycle>.ringsnap`
    /// like the periodic ones, at the resume-point cycle), returning
    /// the path written. Used by the daemon's on-demand `snapshot`
    /// command and its graceful drain; requires a checkpoint directory
    /// (set via [`Machine::enable_checkpoints`] — a cadence of 0 with a
    /// directory is valid for on-demand-only use).
    ///
    /// # Errors
    ///
    /// Propagates the snapshot write failure.
    pub fn checkpoint_now(
        &mut self,
        dir: &std::path::Path,
    ) -> Result<std::path::PathBuf, ring_snapshot::SnapshotError> {
        // Written after every periodic image, so the trail stays in
        // cycle order and the returned file is durable.
        self.ckpt_writer.wait_idle();
        let b = self.snapshot();
        let path = dir.join(format!("ckpt-{:012}.ringsnap", b.header().cycle));
        b.write_atomic(&path)?;
        if self.ckpt_keep > 0 {
            checkpoint::prune_checkpoints(dir, self.ckpt_keep);
        }
        Ok(path)
    }

    /// Provenance of the checkpoint this machine was restored from:
    /// `(path, cycle)`, or `None` for a machine built from scratch.
    pub fn restored_from(&self) -> Option<(&str, Cycle)> {
        self.restored_from.as_ref().map(|(p, c)| (p.as_str(), *c))
    }

    /// Serializes the complete machine state into a snapshot builder.
    /// The header cycle is the resume point: the time of the earliest
    /// unprocessed event (every event before it has been applied, none
    /// at or after it has).
    ///
    /// The snapshot covers everything the event loop can observe:
    /// event queue, cores (op-stream positions, L1s, store buffers),
    /// protocol agents (L2s, LTTs, filters, MSHRs, RNGs), memory
    /// controller, prefetch machinery, network (link occupancy, fault
    /// cursor, outages), reliable transport, watchdog, metrics, and the
    /// trace/stall buffers. Scratch buffers, the flight recorder, and
    /// the trace sink are excluded: they are caches or attachments with
    /// no effect on simulated behavior.
    pub fn snapshot(&self) -> SnapshotBuilder {
        let cycle = self.queue.peek_time().unwrap_or_else(|| self.queue.now());
        self.snapshot_at(cycle)
    }

    fn snapshot_at(&self, cycle: Cycle) -> SnapshotBuilder {
        let header = ring_snapshot::SnapshotHeader {
            git_commit: ring_snapshot::git_commit_short(),
            config_hash: checkpoint::config_hash(&self.cfg),
            cycle,
        };
        let mut b = SnapshotBuilder::new(header);
        b.section("machine", |w| {
            w.put(&self.workload_fp);
            w.put(&self.finish_time);
            // Hashed marks in sorted key order: canonical encoding.
            let mut marks: Vec<(&(usize, u64), &AnatomyMark)> = self.anatomy_marks.iter().collect();
            marks.sort_by_key(|(k, _)| **k);
            w.put(&(marks.len() as u64));
            for (&(n, line), m) in marks {
                w.put(&(n as u64));
                w.put(&line);
                w.put(&m.issued);
                w.put(&m.supplied);
                w.put(&m.bound);
            }
            w.put(
                &self
                    .recent
                    .iter()
                    .map(TraceEvent::to_jsonl)
                    .collect::<Vec<String>>(),
            );
            w.put(&(self.trace.len() as u64));
            for (line, evs) in &self.trace {
                w.put(&line.raw());
                w.put(
                    &evs.iter()
                        .map(TraceEvent::to_jsonl)
                        .collect::<Vec<String>>(),
                );
            }
            w.put(&self.stats.traffic);
        });
        b.section("queue", |w| {
            w.put(&self.queue.now());
            w.put(&self.queue.events_processed());
            w.put(&(self.queue.peak_len() as u64));
            let pending = self.queue.pending_in_order();
            w.put(&(pending.len() as u64));
            for (t, ev) in &pending {
                w.put(t);
                ev_save(w, ev);
            }
        });
        b.section("cores", |w| {
            w.put(&(self.cores.len() as u64));
            for c in &self.cores {
                c.snap_save(w);
            }
        });
        b.section("agents", |w| {
            w.put(&(self.agents.len() as u64));
            for a in &self.agents {
                a.snap_save(w);
            }
        });
        b.section("memory", |w| {
            self.mem.snap_save(w);
            self.cpp.snap_save(w);
            w.put(&(self.pbufs.len() as u64));
            for p in &self.pbufs {
                p.snap_save(w);
            }
        });
        b.section("network", |w| self.net.snap_save(w));
        b.section("transport", |w| match &self.rel {
            None => w.put(&false),
            Some(rel) => {
                w.put(&true);
                rel.snap_save_with(w, |w, p| w.put(p));
            }
        });
        b.section("watchdog", |w| {
            w.put(&self.watchdog.last_progress());
            w.put(&self.watchdog.last_net_progress());
        });
        b.section("metrics", |w| w.put(&self.registry));
        b
    }

    /// Restores a machine from a snapshot file on disk, resuming
    /// byte-identically: the continued run produces the same event
    /// sequence, trace stream, and final [`Report`] as the original run
    /// would have uninterrupted.
    ///
    /// `cfg` and `profile` must match the snapshotted run (checked via
    /// the header's config hash and the workload fingerprint;
    /// `max_cycles` is exempt so a capped run can resume uncapped).
    pub fn restore(
        cfg: MachineConfig,
        profile: &AppProfile,
        path: &std::path::Path,
    ) -> Result<Machine, SnapshotError> {
        let file = SnapshotFile::read(path)?;
        Machine::restore_file(cfg, profile, &file, &path.display().to_string())
    }

    /// Restores a machine from an already decoded (CRC-verified)
    /// snapshot; `origin` labels the snapshot in provenance reporting
    /// (normally its path).
    pub fn restore_file(
        cfg: MachineConfig,
        profile: &AppProfile,
        file: &SnapshotFile,
        origin: &str,
    ) -> Result<Machine, SnapshotError> {
        let expected = checkpoint::config_hash(&cfg);
        if file.header.config_hash != expected {
            return Err(SnapshotError::ConfigMismatch {
                found: file.header.config_hash,
                expected,
            });
        }
        let nodes = cfg.nodes();
        // Build the structural skeleton (topology, rings, config-derived
        // wiring) without op streams or warm-up, then overwrite every
        // piece of dynamic state from the snapshot.
        let idle = (0..nodes)
            .map(|_| Box::new(std::iter::empty()) as Box<dyn Iterator<Item = ring_cpu::Op> + Send>)
            .collect();
        let mut m = Machine::with_streams(cfg, idle);
        m.workload_fp = checkpoint::workload_fingerprint(profile);

        let mut r = file.section("machine")?;
        let fp: u64 = r.get()?;
        if fp != m.workload_fp {
            return Err(SnapshotError::ConfigMismatch {
                found: fp,
                expected: m.workload_fp,
            });
        }
        let finish_time: Vec<Option<Cycle>> = r.get()?;
        if finish_time.len() != nodes {
            return Err(r.malformed(format!(
                "finish-time length {} does not match {nodes} nodes",
                finish_time.len()
            )));
        }
        m.finish_time = finish_time;
        let n_marks = r.get_len()?;
        let mut marks = FxHashMap::default();
        for _ in 0..n_marks {
            let n = r.get::<u64>()? as usize;
            let line: u64 = r.get()?;
            let issued: Option<Cycle> = r.get()?;
            let supplied: Option<Cycle> = r.get()?;
            let bound: Option<Cycle> = r.get()?;
            marks.insert(
                (n, line),
                AnatomyMark {
                    issued,
                    supplied,
                    bound,
                },
            );
        }
        m.anatomy_marks = marks;
        let parse_ev = |r: &SnapReader<'_>, l: &str| {
            TraceEvent::from_jsonl(l).map_err(|e| r.malformed(format!("trace event: {e}")))
        };
        let recent: Vec<String> = r.get()?;
        m.recent = recent
            .iter()
            .map(|l| parse_ev(&r, l))
            .collect::<Result<_, _>>()?;
        let n_lines = r.get_len()?;
        let mut trace = std::collections::BTreeMap::new();
        for _ in 0..n_lines {
            let raw: u64 = r.get()?;
            let lines: Vec<String> = r.get()?;
            let evs = lines
                .iter()
                .map(|l| parse_ev(&r, l))
                .collect::<Result<Vec<TraceEvent>, _>>()?;
            trace.insert(LineAddr::new(raw), evs);
        }
        m.trace = trace;
        let traffic = r.get()?;
        r.finish()?;
        m.stats = MachineStats::default();
        m.stats.traffic = traffic;

        let mut r = file.section("queue")?;
        let now: Cycle = r.get()?;
        let popped: u64 = r.get()?;
        let peak = r.get::<u64>()? as usize;
        let n_ev = r.get_len()?;
        let mut events = Vec::with_capacity(n_ev);
        for _ in 0..n_ev {
            let t: Cycle = r.get()?;
            if t < now {
                return Err(r.malformed(format!(
                    "pending event at cycle {t} is before the restored clock {now}"
                )));
            }
            events.push((t, ev_load(&mut r, nodes)?));
        }
        r.finish()?;
        m.queue = EventQueue::restore_from_parts(now, popped, peak, events);

        let mut r = file.section("cores")?;
        if r.get_len()? != nodes {
            return Err(r.malformed(format!("core count does not match {nodes} nodes")));
        }
        let mut cores = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let ops = Box::new(WorkloadGen::new(profile, n, nodes, m.cfg.seed))
                as Box<dyn Iterator<Item = ring_cpu::Op> + Send>;
            cores.push(Core::snap_load(
                &mut r,
                ops,
                m.cfg.l1,
                m.cfg.l2.latency,
                m.cfg.store_buffer,
            )?);
        }
        r.finish()?;
        m.cores = cores;

        let mut r = file.section("agents")?;
        if r.get_len()? != nodes {
            return Err(r.malformed(format!("agent count does not match {nodes} nodes")));
        }
        // Decode into the skeleton's agents: each was built for its node
        // under this configuration, tracing switch included.
        for a in &mut m.agents {
            a.snap_load(&mut r)?;
        }
        r.finish()?;

        let mut r = file.section("memory")?;
        m.mem = MemoryController::snap_load(&mut r, m.cfg.mem)?;
        m.cpp = ControllerPrefetchPredictor::snap_load(&mut r)?;
        if r.get_len()? != nodes {
            return Err(r.malformed(format!(
                "prefetch-buffer count does not match {nodes} nodes"
            )));
        }
        let mut pbufs = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            pbufs.push(PrefetchBuffer::snap_load(&mut r)?);
        }
        r.finish()?;
        m.pbufs = pbufs;

        let mut r = file.section("network")?;
        m.net = Network::snap_load(
            &mut r,
            Torus::new(m.cfg.width, m.cfg.height),
            m.cfg.net,
            m.cfg.faults,
        )?;
        r.finish()?;

        let mut r = file.section("transport")?;
        let has_rel: bool = r.get()?;
        if has_rel != m.cfg.reliability.enabled {
            return Err(r.malformed(
                "reliability-sublayer presence does not match the machine configuration",
            ));
        }
        m.rel = if has_rel {
            Some(ReliableTransport::snap_load_with(
                &mut r,
                m.cfg.reliability,
                m.cfg.seed ^ 0x0AC4,
                |r| r.get(),
            )?)
        } else {
            None
        };
        r.finish()?;

        let mut r = file.section("watchdog")?;
        let last_progress: Cycle = r.get()?;
        let last_net_progress: Cycle = r.get()?;
        r.finish()?;
        m.watchdog = Watchdog::new(m.cfg.watchdog_cycles);
        m.watchdog.progress(last_progress);
        m.watchdog.net_progress(last_net_progress);

        let mut r = file.section("metrics")?;
        let registry: MetricsRegistry = r.get()?;
        if registry.nodes().len() != nodes {
            return Err(r.malformed(format!(
                "metrics registry has {} nodes, machine has {nodes}",
                registry.nodes().len()
            )));
        }
        r.finish()?;
        m.registry = registry;

        m.restored_from = Some((origin.to_string(), file.header.cycle));
        Ok(m)
    }

    /// Pre-installs a line at a node in the given state (warm-up for
    /// directed experiments).
    pub fn warm_line(&mut self, node: NodeId, line: LineAddr, state: ring_cache::LineState) {
        self.agents[node.0].install_line(line, state);
        self.cpp.mark_fetched(line);
    }

    /// Read access to the protocol kind this machine runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol.kind
    }
}

impl NodeAgent for RingAgent {
    type Input = AgentInput;
    type Effect = ring_coherence::Effect;
    const MODELS_FAULTS: bool = true;

    fn build(node: NodeId, cfg: &MachineConfig, rng: &mut DetRng) -> Self {
        RingAgent::new(node, cfg.protocol, cfg.l2, rng.fork(node.0 as u64))
    }

    fn warm(m: &mut Machine, lines: &[(LineAddr, usize)]) {
        for &(line, owner) in lines {
            m.agents[owner].install_line(line, ring_cache::LineState::Exclusive);
            m.cpp.mark_fetched(line);
        }
        // Every node's prefetch predictor has seen the warm lines: they
        // were coherence traffic during the skipped initialization. Each
        // would observe the same lines in the same order, so one
        // predictor observes them and every agent gets its own copy,
        // with the last observations already applied, so that no agent
        // applies them again on its own.
        let mut npp = NodePrefetchPredictor::new(m.cfg.protocol.npp_capacity());
        for &(line, _) in lines {
            npp.observe(line);
        }
        npp.flush();
        for agent in &mut m.agents {
            agent.warm_prefetch_predictor(&npp);
        }
    }

    fn handle_into(&mut self, now: Cycle, input: AgentInput, fx: &mut Vec<Self::Effect>) {
        RingAgent::handle_into(self, now, input, fx);
    }

    fn apply_effects(cx: &mut Ctx<'_, Self>, t: Cycle, n: usize, fx: &mut Vec<Self::Effect>) {
        cx.apply_effects(t, n, fx);
    }

    fn mem_data(line: LineAddr) -> AgentInput {
        AgentInput::MemData { line }
    }

    fn read_request(line: LineAddr) -> AgentInput {
        AgentInput::CoreRequest {
            line,
            kind: TxnKind::Read,
        }
    }

    fn write_request(&self, line: LineAddr) -> Option<AgentInput> {
        self.classify_store(line)
            .map(|kind| AgentInput::CoreRequest { line, kind })
    }

    fn l2(&self) -> &CacheArray {
        RingAgent::l2(self)
    }

    fn has_outstanding(&self, line: LineAddr) -> bool {
        RingAgent::has_outstanding(self, line)
    }

    fn is_line_engaged(&self, line: LineAddr) -> bool {
        RingAgent::is_line_engaged(self, line)
    }

    fn set_tracing(&mut self, on: bool) {
        RingAgent::set_tracing(self, on);
    }

    fn drain_trace(&mut self) -> Vec<TraceEvent> {
        RingAgent::drain_trace(self)
    }

    fn stall_state(&self) -> NodeStallState {
        NodeStallState {
            ltt_occupancy: self.ltt().len(),
            outstanding: self.outstanding_count(),
            pending_core: self.pending_core_len(),
            retrying: self
                .retry_lines()
                .into_iter()
                .map(|(l, c)| (l.raw(), c))
                .collect(),
            starving_on: self.starving_line().map(|l| l.raw()),
            ..NodeStallState::default()
        }
    }

    fn roll_up(m: &Machine, reg: &mut MetricsRegistry, stats: &mut MachineStats) {
        reg.set_link_loads(
            m.net
                .link_traffic()
                .iter()
                .map(|l| LinkMetrics {
                    messages: l.messages,
                    bytes: l.bytes,
                })
                .collect(),
        );
        for agent in &m.agents {
            let a = agent.stats();
            stats.retries += a.retries;
            stats.transactions += a.completed;
            stats.snoops += a.snoops;
            stats.snoops_skipped += a.snoops_skipped;
            stats.starvation_events += a.starvation_events;
            stats.ltt_stalls += agent.ltt().stalled_responses();
            stats.ltt_peak = stats.ltt_peak.max(agent.ltt().peak_entries());
        }
    }

    fn input_ids(input: &AgentInput) -> Option<(TxnId, u64)> {
        match input {
            AgentInput::RingArrival(msg) => Some((msg.txn(), msg.line().raw())),
            AgentInput::DirectRequest(req) => Some((req.txn, req.line.raw())),
            AgentInput::Supplier(msg) => Some((msg.txn, msg.line.raw())),
            _ => None,
        }
    }

    fn snapshot(m: &Machine, cycle: Cycle) -> Option<SnapshotBuilder> {
        // Build only once the previous image is written: one image at a
        // time is alive, not one in flight and one waiting.
        m.ckpt_writer.wait_idle();
        Some(m.snapshot_at(cycle))
    }
}

/// Convenience: run one `(protocol, profile)` pair on the paper machine.
pub fn run_paper(kind: ProtocolKind, profile: &AppProfile, seed: u64) -> Report {
    let mut cfg = MachineConfig::paper(kind);
    cfg.seed = seed;
    Machine::new(cfg, profile).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_coherence::ProtocolKind;

    fn tiny_profile() -> AppProfile {
        MachineConfig::default_workload()
            .expect("default workload profile must exist")
            .scaled(200)
    }

    fn run(kind: ProtocolKind) -> Report {
        let mut cfg = MachineConfig::small_test(kind);
        cfg.seed = 7;
        cfg.check_invariants = true;
        match Machine::new(cfg, &tiny_profile()).try_run() {
            Ok(r) => r,
            Err(stall) => panic!("machine stalled:\n{stall}"),
        }
    }

    #[test]
    fn eager_runs_to_completion() {
        let r = run(ProtocolKind::Eager);
        assert!(r.finished, "machine stalled: {:?}", r.stats);
        assert!(r.stats.read_misses() > 0);
        assert!(r.exec_cycles > 0);
    }

    #[test]
    fn uncorq_runs_to_completion() {
        let r = run(ProtocolKind::Uncorq);
        assert!(r.finished);
        assert!(r.stats.read_misses() > 0);
    }

    #[test]
    fn superset_protocols_run() {
        assert!(run(ProtocolKind::SupersetCon).finished);
        assert!(run(ProtocolKind::SupersetAgg).finished);
    }

    #[test]
    fn uncorq_is_faster_than_eager_on_c2c() {
        let e = run(ProtocolKind::Eager);
        let u = run(ProtocolKind::Uncorq);
        assert!(
            u.stats.read_latency_c2c.mean() < e.stats.read_latency_c2c.mean(),
            "uncorq c2c {} !< eager c2c {}",
            u.stats.read_latency_c2c.mean(),
            e.stats.read_latency_c2c.mean()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(ProtocolKind::Uncorq);
        let b = run(ProtocolKind::Uncorq);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.stats.read_misses(), b.stats.read_misses());
        assert_eq!(a.stats.traffic, b.stats.traffic);
    }

    /// Copying one warm predictor to every agent is exact: each agent's
    /// prefetch predictor encodes to the bytes of a fresh predictor that
    /// observed the warm lines in order, as every agent once did itself.
    #[test]
    fn every_agent_starts_from_the_warm_prefetch_image() {
        let profile = AppProfile::by_name("fmm").expect("fmm profile");
        for side in [4, 8] {
            let mut cfg =
                MachineConfig::with_protocol(ring_coherence::ProtocolVariant::UncorqPref.config());
            (cfg.width, cfg.height) = (side, side);
            let m = Machine::new(cfg.clone(), &profile);
            let encode = |npp: &NodePrefetchPredictor| {
                let mut w = SnapWriter::new();
                npp.snap_save(&mut w);
                w.into_bytes()
            };
            let mut fresh = NodePrefetchPredictor::new(cfg.protocol.npp_entries);
            let warm = profile.warm_lines(cfg.nodes());
            for &(raw, _) in &warm {
                fresh.observe(LineAddr::new(raw));
            }
            assert_eq!(fresh.observations(), warm.len() as u64);
            assert!(!fresh.is_empty());
            let want = encode(&fresh);
            for (n, agent) in m.agents().iter().enumerate() {
                assert!(
                    encode(agent.prefetch_predictor()) == want,
                    "{side}x{side} node {n}: warm prefetch predictor differs"
                );
            }
        }
    }

    #[test]
    fn prefetch_machine_runs() {
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.protocol.prefetch = true;
        cfg.seed = 7;
        let r = Machine::new(cfg, &tiny_profile()).run();
        assert!(r.finished);
    }

    fn chaos_cfg(kind: ProtocolKind, profile: ring_noc::FaultProfile, seed: u64) -> MachineConfig {
        let mut cfg = MachineConfig::small_test(kind);
        cfg.seed = 7;
        cfg.check_invariants = true;
        cfg.faults = Some(ring_noc::FaultPlan::new(profile, seed));
        cfg
    }

    #[test]
    fn chaos_profile_runs_to_completion_on_all_protocols() {
        for kind in ProtocolKind::ALL {
            let cfg = chaos_cfg(kind, ring_noc::FaultProfile::chaos(), 42);
            let mut m = Machine::new(cfg, &tiny_profile());
            match m.try_run() {
                Ok(r) => assert!(r.finished, "{kind} not finished under chaos"),
                Err(stall) => panic!("{kind} stalled under chaos:\n{stall}"),
            }
            assert!(
                m.fault_stats().total() > 0,
                "{kind}: chaos profile injected nothing"
            );
            for a in m.agents() {
                assert_eq!(a.stats().protocol_errors, 0, "{kind}: protocol errors");
            }
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run_once = || {
            let cfg = chaos_cfg(ProtocolKind::Uncorq, ring_noc::FaultProfile::chaos(), 9);
            let mut m = Machine::new(cfg, &tiny_profile());
            let r = m.try_run().expect("no stall");
            (r.exec_cycles, r.stats.traffic, m.fault_stats())
        };
        assert_eq!(run_once(), run_once());
    }

    fn lossy_cfg(kind: ProtocolKind, profile: ring_noc::FaultProfile, seed: u64) -> MachineConfig {
        let mut cfg = chaos_cfg(kind, profile, seed);
        cfg.reliability = ring_noc::ReliabilityConfig::on();
        cfg
    }

    #[test]
    fn heavy_drop_rate_runs_to_completion_on_all_protocols() {
        for kind in ProtocolKind::ALL {
            let cfg = lossy_cfg(kind, ring_noc::FaultProfile::drop_rate(0.20), 42);
            let mut m = Machine::new(cfg, &tiny_profile());
            match m.try_run() {
                Ok(r) => assert!(r.finished, "{kind} not finished at 20% drop"),
                Err(stall) => panic!("{kind} stalled at 20% drop:\n{stall}"),
            }
            let rs = m.reliability_stats().expect("sublayer on");
            assert!(rs.wire_drops > 0, "{kind}: nothing was ever dropped");
            assert!(rs.retransmits > 0, "{kind}: drops but no retransmits");
            assert!(
                m.reliability_idle(),
                "{kind}: unacked frames left after completion"
            );
            for a in m.agents() {
                assert_eq!(a.stats().protocol_errors, 0, "{kind}: protocol errors");
            }
        }
    }

    #[test]
    fn outage_windows_run_to_completion() {
        let cfg = lossy_cfg(ProtocolKind::Uncorq, ring_noc::FaultProfile::outage(), 11);
        let mut m = Machine::new(cfg, &tiny_profile());
        match m.try_run() {
            Ok(r) => assert!(r.finished),
            Err(stall) => panic!("stalled under outages:\n{stall}"),
        }
        assert!(m.fault_stats().outage_drops > 0, "no outage ever bit");
    }

    #[test]
    fn lossy_runs_are_deterministic() {
        let run_once = || {
            let cfg = lossy_cfg(
                ProtocolKind::Uncorq,
                ring_noc::FaultProfile::lossy_chaos(),
                9,
            );
            let mut m = Machine::new(cfg, &tiny_profile());
            let r = m.try_run().expect("no stall");
            (
                r.exec_cycles,
                r.stats.traffic,
                m.fault_stats(),
                *m.reliability_stats().expect("sublayer on"),
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn reliable_delivery_passes_the_exactly_once_checker() {
        use ring_trace::{InvariantChecker, SharedBufferSink};
        let cfg = lossy_cfg(
            ProtocolKind::Uncorq,
            ring_noc::FaultProfile::drop_rate(0.2),
            5,
        );
        let mut m = Machine::new(cfg, &tiny_profile());
        let sink = SharedBufferSink::new();
        m.set_trace_sink(Box::new(sink.clone()));
        m.try_run().expect("no stall");
        let mut checker = InvariantChecker::new();
        for ev in sink.snapshot() {
            checker.observe(&ev);
        }
        checker.finish();
        assert_eq!(
            checker.violations(),
            &[] as &[String],
            "invariant violations under 20% drop"
        );
        assert!(
            checker.reliable_deliveries() > 0,
            "no reliable deliveries traced"
        );
        assert!(checker.retransmits() > 0, "no retransmits traced");
    }

    #[test]
    #[should_panic(expected = "invalid machine config")]
    fn lossy_faults_without_reliability_are_rejected() {
        let cfg = chaos_cfg(
            ProtocolKind::Uncorq,
            ring_noc::FaultProfile::drop_rate(0.05),
            1,
        );
        let _ = Machine::new(cfg, &tiny_profile());
    }

    fn assert_watchdog_trips<A: NodeAgent>(mut m: Sim<A>) {
        let stall = m.try_run().expect_err("tiny watchdog must trip");
        assert_eq!(stall.cause, StallCause::WatchdogExpired);
        assert!(stall.detected_at > stall.last_progress);
        assert!(!stall.unfinished_nodes.is_empty());
        assert!(stall.interesting_nodes().count() > 0);
        let text = stall.to_string();
        assert!(text.contains("FORWARD-PROGRESS STALL"), "{text}");
    }

    #[test]
    fn watchdog_reports_stall_instead_of_spinning() {
        // A watchdog threshold far below the memory round trip (224
        // cycles) makes the very first cold read look like a stall —
        // a deterministic way to exercise the report path, on the ring
        // machine and the HT baseline alike.
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.seed = 7;
        cfg.watchdog_cycles = 50;
        assert_watchdog_trips(Machine::new(cfg.clone(), &tiny_profile()));
        assert_watchdog_trips(HtMachine::new(cfg, &tiny_profile()));
    }

    #[test]
    fn run_survives_watchdog_stall_with_unfinished_report() {
        let mut cfg = MachineConfig::small_test(ProtocolKind::Eager);
        cfg.seed = 7;
        cfg.watchdog_cycles = 50;
        let r = Machine::new(cfg, &tiny_profile()).run();
        assert!(!r.finished);
    }

    /// The report's full serialized form — byte equality here is the
    /// "same final Report" proof for checkpoint/restore.
    fn report_bytes(r: &Report) -> Vec<u8> {
        let mut v = Vec::new();
        r.write_stats(&mut v).unwrap();
        v
    }

    /// Runs `cfg` uninterrupted, then again killed at `kill_at` cycles,
    /// snapshotted, restored, and resumed — and asserts the resumed
    /// run's report is byte-identical to the uninterrupted one.
    fn assert_kill_restore_identical(cfg: MachineConfig, kill_at: Cycle) {
        let profile = tiny_profile();
        let full = {
            let mut m = Machine::new(cfg.clone(), &profile);
            let r = m.try_run().expect("uninterrupted run stalled");
            assert!(r.finished, "reference run must finish");
            report_bytes(&r)
        };
        let mut capped = cfg.clone();
        capped.max_cycles = kill_at;
        let mut m = Machine::new(capped, &profile);
        let _ = m.try_run().expect("capped run stalled");
        let bytes = m.snapshot().encode();
        let file = ring_snapshot::SnapshotFile::decode(&bytes).expect("snapshot must verify");
        let mut m2 =
            Machine::restore_file(cfg, &profile, &file, "mem").expect("restore must succeed");
        let r2 = m2.try_run().expect("resumed run stalled");
        assert!(r2.finished);
        assert_eq!(
            report_bytes(&r2),
            full,
            "resumed run diverged from the uninterrupted one"
        );
    }

    #[test]
    fn restore_mid_run_is_byte_identical() {
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.seed = 7;
        assert_kill_restore_identical(cfg, 5_000);
    }

    #[test]
    fn restore_under_chaos_is_byte_identical() {
        let cfg = chaos_cfg(ProtocolKind::Uncorq, ring_noc::FaultProfile::chaos(), 42);
        assert_kill_restore_identical(cfg, 5_000);
    }

    #[test]
    fn restore_under_heavy_drop_is_byte_identical() {
        let cfg = lossy_cfg(
            ProtocolKind::Uncorq,
            ring_noc::FaultProfile::drop_rate(0.20),
            42,
        );
        assert_kill_restore_identical(cfg, 5_000);
    }

    #[test]
    fn restore_at_cycle_zero_is_byte_identical() {
        let profile = tiny_profile();
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.seed = 7;
        let full = {
            let mut m = Machine::new(cfg.clone(), &profile);
            report_bytes(&m.try_run().expect("no stall"))
        };
        let m = Machine::new(cfg.clone(), &profile);
        let file = ring_snapshot::SnapshotFile::decode(&m.snapshot().encode()).unwrap();
        assert_eq!(file.header.cycle, 0, "nothing has run yet");
        let mut m2 = Machine::restore_file(cfg, &profile, &file, "mem").unwrap();
        let r2 = m2.try_run().expect("no stall");
        assert_eq!(report_bytes(&r2), full);
    }

    #[test]
    fn restore_after_completion_reproduces_the_final_report() {
        let profile = tiny_profile();
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.seed = 7;
        let mut m = Machine::new(cfg.clone(), &profile);
        let r = m.try_run().expect("no stall");
        assert!(r.finished);
        let file = ring_snapshot::SnapshotFile::decode(&m.snapshot().encode()).unwrap();
        let mut m2 = Machine::restore_file(cfg, &profile, &file, "mem").unwrap();
        let r2 = m2.try_run().expect("no stall");
        assert_eq!(report_bytes(&r2), report_bytes(&r));
    }

    #[test]
    fn restore_refuses_config_and_workload_mismatches() {
        let profile = tiny_profile();
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.seed = 7;
        let m = Machine::new(cfg.clone(), &profile);
        let file = ring_snapshot::SnapshotFile::decode(&m.snapshot().encode()).unwrap();
        let mut other = cfg.clone();
        other.seed = 8;
        let err = match Machine::restore_file(other, &profile, &file, "mem") {
            Ok(_) => panic!("config mismatch must be rejected"),
            Err(e) => e,
        };
        assert!(
            matches!(err, ring_snapshot::SnapshotError::ConfigMismatch { .. }),
            "{err}"
        );
        let other_profile = tiny_profile().scaled(50);
        let err = match Machine::restore_file(cfg, &other_profile, &file, "mem") {
            Ok(_) => panic!("workload mismatch must be rejected"),
            Err(e) => e,
        };
        assert!(
            matches!(err, ring_snapshot::SnapshotError::ConfigMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn restored_machine_stall_report_carries_provenance() {
        // Watchdog far below the memory round trip: the first cold read
        // after the restore deterministically trips it.
        let profile = tiny_profile();
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.seed = 7;
        cfg.watchdog_cycles = 50;
        let m = Machine::new(cfg.clone(), &profile);
        let file = ring_snapshot::SnapshotFile::decode(&m.snapshot().encode()).unwrap();
        let mut m2 = Machine::restore_file(cfg, &profile, &file, "mem:ckpt").unwrap();
        assert_eq!(m2.restored_from(), Some(("mem:ckpt", 0)));
        let stall = m2.try_run().expect_err("tiny watchdog must trip");
        let rf = stall
            .restored_from
            .clone()
            .expect("provenance must be attached");
        assert_eq!(rf.path, "mem:ckpt");
        assert!(
            stall
                .to_string()
                .contains("restored from checkpoint mem:ckpt (cycle 0)"),
            "{stall}"
        );
    }

    #[test]
    fn checkpointing_run_falls_back_past_a_corrupted_newest() {
        let dir = std::env::temp_dir().join("ring-machine-ckpt-fallback-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let profile = tiny_profile();
        let mut cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
        cfg.seed = 7;
        let full = {
            let mut m = Machine::new(cfg.clone(), &profile);
            report_bytes(&m.try_run().expect("no stall"))
        };
        let mut capped = cfg.clone();
        capped.max_cycles = 20_000;
        let mut m = Machine::new(capped, &profile);
        m.enable_checkpoints(1_000, &dir);
        let _ = m.try_run().expect("no stall");
        let cks = crate::checkpoint::list_checkpoints(&dir);
        assert!(cks.len() >= 2, "expected several checkpoints, got {cks:?}");
        // Damage the newest checkpoint's last section payload.
        let mut bytes = std::fs::read(&cks[0]).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0x40;
        std::fs::write(&cks[0], &bytes).unwrap();
        let err = match Machine::restore(cfg.clone(), &profile, &cks[0]) {
            Ok(_) => panic!("corrupted checkpoint must be rejected"),
            Err(e) => e,
        };
        assert!(
            err.section().is_some(),
            "corruption must name the damaged section, got: {err}"
        );
        let (mut m2, used) =
            crate::checkpoint::restore_latest(&cfg, &profile, &dir).expect("fallback must work");
        assert_eq!(used, cks[1], "must fall back to the previous checkpoint");
        let r2 = m2.try_run().expect("no stall after fallback restore");
        assert_eq!(report_bytes(&r2), full);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
