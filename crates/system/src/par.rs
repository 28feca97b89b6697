//! Conservative-PDES parallel engine.
//!
//! The machine's event loop is parallelized with a per-cycle, two-phase
//! round protocol built on the primitives in [`ring_sim::pdes`]:
//!
//! 1. The driver drains every event scheduled for the earliest pending
//!    cycle, in exact serial pop order
//!    ([`ring_sim::EventQueue::drain_next_cycle`]), and publishes the
//!    batch to the phase-A workers through a generation-stamped gate.
//! 2. **Phase A** — each worker computes the *node-local* part of its
//!    LP's events in parallel: agent input handling (which only mutates
//!    that node's protocol agent and fills a private effect buffer) and
//!    core scheduling steps. Per-node event order is preserved by
//!    `prev` chains: a worker holds an event back until the driver's
//!    applied cursor passes the node's previous event in the batch.
//! 3. **Phase B** — the driver commits results in exact serial order:
//!    effect application, scheduling, tracing, statistics — the same
//!    [`Ctx`] code the serial engine runs. Reliable-transport events
//!    stay driver-only (they touch global transport/network state).
//!
//! Because every observable mutation (queue scheduling, RNG draws on
//! shared state, trace emission, statistics) happens on the driver in
//! serial order, and each agent sees its own inputs in serial order,
//! the observable event order, trace stream, stats rollup, and final
//! digest are **byte-identical** to the serial engine at every worker
//! count and for every partition shape. The golden-digest and
//! proptest suites enforce this.
//!
//! The lookahead justifying per-cycle rounds comes from the network:
//! any cross-node delivery takes at least
//! [`ring_noc::NetworkConfig::min_cross_node_latency`] cycles, so
//! same-cycle events can only interact through driver-committed state,
//! never through another node's phase-A state. Zero-delay feedback
//! (reliable-transport deliveries, duplicate suppliership inputs)
//! lands back in the *same* cycle's queue and is picked up by a
//! follow-up round at the same timestamp — exactly where the serial
//! engine would pop it.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use ring_cache::LineAddr;
use ring_coherence::{AgentInput, RingAgent};
use ring_sim::pdes::{backoff, AppliedCursor, DoneFlags, Gate, Partition, Round};
use ring_sim::Cycle;

use crate::effects::{resume_compute, Ctx, NodeAccess, ResumeStep, ShardPtrs};
use crate::machine::{Ev, Machine};
use crate::stall::{StallCause, StallReport};
use crate::stats::Report;

/// LP id marking a driver-only batch item (reliable-transport events).
const DRIVER_LP: u32 = u32::MAX;

/// Sentinel for "no previous same-node event in this batch".
const NO_PREV: u32 = u32::MAX;

/// What a batch item asks of its owner.
enum Work {
    /// Advance the node's core ([`resume_compute`]).
    Resume,
    /// Feed the node's agent a protocol input.
    Agent(AgentInput),
    /// Feed the node's agent completed memory data.
    Mem(LineAddr),
    /// Driver-only: reliable-transport machinery (global state).
    Driver(Ev<AgentInput>),
}

/// One batch item, written by the driver between rounds, read by every
/// worker during a round.
struct Meta {
    /// Owning node, or `u32::MAX` for driver items.
    node: u32,
    /// LP the node belongs to (`DRIVER_LP` for driver items).
    lp: u32,
    /// Batch index of the previous same-node item ([`NO_PREV`] if
    /// first): phase A must wait for the driver to commit it.
    prev: u32,
    work: Work,
}

/// Phase-A output for one batch item: the effect buffer an agent filled
/// or the core step a resume computed. Written by exactly one worker,
/// read by the driver after the item's done flag is set.
#[derive(Default)]
struct Slot {
    fx: Vec<ring_coherence::Effect>,
    step: Option<ResumeStep>,
}

/// Interior-mutable cell that is shareable across the worker scope.
/// All access follows the round protocol (see module docs), which
/// provides the required happens-before edges.
struct SyncCell<T>(UnsafeCell<T>);

// Safety: every access to the inner value is ordered by the gate /
// done-flag / cursor / scan-counter atomics per the round protocol.
unsafe impl<T> Sync for SyncCell<T> {}

impl<T> SyncCell<T> {
    fn new(v: T) -> Self {
        SyncCell(UnsafeCell::new(v))
    }
    fn get(&self) -> *mut T {
        self.0.get()
    }
}

/// Depth of the round-buffer ring: how many rounds a worker may lag
/// behind the driver before the driver has to wait for it. Rounds are
/// tiny (one simulated cycle), so on an oversubscribed host the driver
/// routinely laps descheduled workers — help-first claims let it
/// finish their rounds alone, and the ring amortizes the
/// worker-progress rendezvous over `RING` rounds instead of paying a
/// context switch per round.
const RING: usize = 64;

/// One round's publication: the batch, per-item outputs, and the
/// generation-stamped flag/claim boards. Buffer `g % RING` belongs to
/// round `g`; the driver reuses it for round `g + RING` only after
/// every worker's watermark proves no one can still be reading it.
struct RoundBuf {
    /// The batch, rebuilt by the driver when the buffer is recycled.
    meta: SyncCell<Vec<Meta>>,
    /// Phase-A outputs, one per batch item.
    slots: SyncCell<Vec<UnsafeCell<Slot>>>,
    /// Per-item done flags (computer → driver hand-off).
    flags: SyncCell<DoneFlags>,
    /// Work-stealing claim board: the owning worker and the committing
    /// driver race to claim each item, and the winner computes it. The
    /// driver "helping" bounds the cost of a slow or descheduled
    /// worker — without it, an oversubscribed host makes the driver
    /// spin on flags a worker cannot set because the driver holds the
    /// CPU. Claims are generation-stamped, so a worker that wakes up
    /// on a long-finished round finds every claim taken and falls
    /// through without touching anything.
    claims: SyncCell<DoneFlags>,
    /// The round's timestamp.
    round_t: SyncCell<Cycle>,
}

impl Default for RoundBuf {
    fn default() -> Self {
        RoundBuf {
            meta: SyncCell::new(Vec::new()),
            slots: SyncCell::new(Vec::new()),
            flags: SyncCell::new(DoneFlags::new(0)),
            claims: SyncCell::new(DoneFlags::new(0)),
            round_t: SyncCell::new(0),
        }
    }
}

/// Everything the driver and workers share for one span.
struct Shared {
    /// Round gate: generation-stamped open/shutdown.
    gate: Gate,
    /// Commit progress of the *current* round (driver → worker hand-off
    /// for same-node chains). Only consulted after a successful claim,
    /// which can only happen on the current round.
    cursor: AppliedCursor,
    /// The round-buffer ring.
    bufs: [RoundBuf; RING],
    /// Per-worker watermark: the last round generation the worker
    /// finished scanning (Release). The driver recycles round
    /// `g - RING`'s buffer for round `g` only once every watermark is
    /// `> g - RING`, proving no worker still reads it — a worker's
    /// in-flight scan is always of a generation strictly above its
    /// watermark.
    done_upto: Vec<AtomicUsize>,
}

/// Phase-A compute for one sharded batch item, run by whichever thread
/// won the item's claim.
///
/// # Safety
///
/// The caller must hold the claim for this item's `(index, gen)` pair
/// and the exclusive right to its node: either the cursor has passed
/// the item's same-node predecessor (worker), or the caller is the
/// driver at the item's commit position (everything earlier is already
/// committed).
unsafe fn compute_item(
    shard: &ShardPtrs<RingAgent>,
    meta: &Meta,
    slot: &mut Slot,
    t: Cycle,
    slice: u64,
) {
    let n = meta.node as usize;
    match &meta.work {
        Work::Resume => {
            let (core, agent) = shard.core_agent(n);
            slot.step = Some(resume_compute(core, agent, slice));
        }
        Work::Agent(input) => {
            slot.fx.clear();
            shard.agent_mut(n).handle_into(t, *input, &mut slot.fx);
        }
        Work::Mem(line) => {
            slot.fx.clear();
            shard
                .agent_mut(n)
                .handle_into(t, AgentInput::MemData { line: *line }, &mut slot.fx);
        }
        Work::Driver(_) => unreachable!("driver items are dispatched inline, never computed"),
    }
}

/// Phase-A worker: processes its LP's share of each round's batch until
/// the gate shuts down. A worker that gets descheduled simply misses
/// rounds — the driver helps the missed items through, and when the
/// worker wakes it jumps straight to the newest round (every claim on
/// an already-finished round fails, so stale scans touch nothing).
fn worker_loop(my_lp: u32, shared: &Shared, shard: &ShardPtrs<RingAgent>, slice: u64) {
    let mut seen = 0usize;
    loop {
        match shared.gate.wait_open(seen) {
            Round::Shutdown => return,
            Round::Open(gen) => {
                seen = gen;
                let buf = &shared.bufs[gen % RING];
                // Safety: the driver published this buffer with the
                // gate's Release store for `gen`, and cannot recycle it
                // (round `gen + RING`) until this worker's watermark
                // below proves the scan is over.
                let t = unsafe { *buf.round_t.get() };
                let metas = unsafe { &*buf.meta.get() };
                let slots = unsafe { &*buf.slots.get() };
                let flags = unsafe { &*buf.flags.get() };
                let claims = unsafe { &*buf.claims.get() };
                for (i, m) in metas.iter().enumerate() {
                    if m.lp != my_lp {
                        continue;
                    }
                    if !claims.try_claim(i, gen) {
                        // The driver already helped this item through.
                        continue;
                    }
                    if m.prev != NO_PREV {
                        // Per-node order: the driver must finish
                        // committing the node's previous event first.
                        // Only reachable on the driver's current round
                        // (claims on finished rounds always fail), so
                        // the shared cursor is the right frontier.
                        shared.cursor.wait_past(m.prev as usize);
                    }
                    // Safety: the claim makes this thread the item's
                    // only computer, and the driver only reads the
                    // slot after the done flag below. The cursor wait
                    // above grants the exclusive right to the node
                    // until the driver commits item `i`.
                    unsafe {
                        let slot = &mut *slots[i].get();
                        compute_item(shard, m, slot, t, slice);
                    }
                    flags.set(i, gen);
                }
                shared.done_upto[my_lp as usize].store(gen, Ordering::Release);
            }
        }
    }
}

/// Runs rounds until the span must end (boundary, cap, drained queue,
/// or watchdog stall). Returns the stall cycle if the watchdog expired.
#[allow(clippy::too_many_arguments)]
fn driver_rounds(
    cx: &mut Ctx<'_, RingAgent>,
    part: &Partition,
    shared: &Shared,
    shard: &ShardPtrs<RingAgent>,
    workers: usize,
    slice: u64,
    cap: Cycle,
    stop: Cycle,
) -> Option<Cycle> {
    let nodes = part.nodes();
    let mut batch: Vec<Ev<AgentInput>> = Vec::new();
    let mut last: Vec<u32> = vec![NO_PREV; nodes];
    let mut scratch_fx = Vec::new();
    let mut gen = 0usize;
    loop {
        let pt = cx.queue.peek_time()?;
        if pt > cap || pt >= stop {
            return None;
        }
        if cx.watchdog.expired(pt) {
            // Serial detects the stall at the first event of this
            // cycle, before any of it is processed; detecting it before
            // the drain leaves the queue intact and every observable
            // stall-report field identical.
            return Some(pt);
        }
        let t = cx
            .queue
            .drain_next_cycle(cap, &mut batch)
            .expect("peek_time returned an event within the cap");
        debug_assert_eq!(t, pt);
        let m = batch.len();

        gen += 1;
        let buf = &shared.bufs[gen % RING];

        // Recycle the RING-rounds-old buffer only once every worker's
        // watermark proves it can no longer be reading it (an in-flight
        // scan is always of a generation strictly above the watermark).
        if gen > RING {
            let floor = gen - RING;
            for w in shared.done_upto.iter().take(workers) {
                let mut spins = 0u32;
                while w.load(Ordering::Acquire) < floor {
                    backoff(&mut spins);
                }
            }
        }

        // Safety: the watermark wait above proves no worker still reads
        // this buffer; workers cannot read it again until the gate
        // publishes generation `gen`.
        unsafe {
            let metas = &mut *buf.meta.get();
            let slots = &mut *buf.slots.get();
            let flags = &mut *buf.flags.get();
            *buf.round_t.get() = t;
            metas.clear();
            last[..nodes].fill(NO_PREV);
            for ev in batch.drain(..) {
                let (node, lp, work) = match ev {
                    Ev::Resume(n) => (n as u32, part.lp_of(n) as u32, Work::Resume),
                    Ev::Agent(n, input) => (n as u32, part.lp_of(n) as u32, Work::Agent(input)),
                    Ev::MemDone(n, line) => (n as u32, part.lp_of(n) as u32, Work::Mem(line)),
                    other => (u32::MAX, DRIVER_LP, Work::Driver(other)),
                };
                let i = metas.len() as u32;
                let prev = if node != u32::MAX {
                    std::mem::replace(&mut last[node as usize], i)
                } else {
                    NO_PREV
                };
                metas.push(Meta {
                    node,
                    lp,
                    prev,
                    work,
                });
            }
            while slots.len() < m {
                slots.push(UnsafeCell::new(Slot::default()));
            }
            flags.ensure(m);
            (*buf.claims.get()).ensure(m);
        }
        shared.cursor.reset();
        shared.gate.open(gen);

        // Phase B: commit in exact serial pop order.
        for i in 0..m {
            cx.queue.release_in_flight();
            // Safety: metas are read-only during the round (driver and
            // workers both only read).
            let meta_i = unsafe { &(&*buf.meta.get())[i] };
            match &meta_i.work {
                Work::Driver(ev) => {
                    let ev = *ev;
                    cx.dispatch(t, ev, &mut scratch_fx);
                }
                _ => {
                    // Help-first: if the owning worker hasn't claimed
                    // this item yet, compute it here — everything
                    // before `i` is committed, so the driver holds the
                    // node's exclusive right by construction.
                    if unsafe { &*buf.claims.get() }.try_claim(i, gen) {
                        unsafe {
                            let slot = &mut *(&*buf.slots.get())[i].get();
                            compute_item(shard, meta_i, slot, t, slice);
                        }
                    } else {
                        // Safety: flag `i` (Acquire) orders every
                        // phase-A write to slot `i` and node state
                        // before this read.
                        unsafe { &*buf.flags.get() }.wait(i, gen);
                    }
                    let slot = unsafe { &mut *(&*buf.slots.get())[i].get() };
                    let n = meta_i.node as usize;
                    match &meta_i.work {
                        Work::Resume => {
                            let step = slot.step.take().expect("phase A filled the step");
                            cx.resume_commit(t, n, step);
                        }
                        Work::Agent(_) | Work::Mem(_) => {
                            cx.drain_agent_trace(n);
                            cx.apply_effects(t, n, &mut slot.fx);
                        }
                        Work::Driver(_) => unreachable!(),
                    }
                }
            }
            shared.cursor.advance_past(i);
        }
    }
}

impl Machine {
    /// Pins the node→LP assignment the parallel engine uses
    /// ([`Machine::try_run_parallel`]). Purely an execution-strategy
    /// knob: every partition produces byte-identical results, so this
    /// mainly exists for load-balancing experiments and adversarial
    /// determinism tests.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly this machine's
    /// node count.
    pub fn set_partition(&mut self, part: Partition) {
        assert_eq!(
            part.nodes(),
            self.cfg.nodes(),
            "partition covers {} nodes, machine has {}",
            part.nodes(),
            self.cfg.nodes()
        );
        self.partition = Some(part);
    }

    /// Like [`Machine::run`], but on the parallel engine with `threads`
    /// total OS threads. Stalls print their report to stderr.
    pub fn run_parallel(&mut self, threads: usize) -> Report {
        match self.try_run_parallel(threads) {
            Ok(r) => r,
            Err(stall) => {
                eprintln!("{stall}");
                self.report()
            }
        }
    }

    /// Runs to completion (or the configured cycle cap) on the
    /// conservative-PDES parallel engine with `threads` total OS
    /// threads: one driver plus `threads - 1` phase-A workers. Nodes
    /// are split across workers by the installed partition
    /// ([`Machine::set_partition`]) or contiguous ring arcs by default.
    ///
    /// The observable run — event order, trace stream, statistics,
    /// checkpoints, final report, and digests — is byte-identical to
    /// [`Sim::try_run`](crate::Sim::try_run) for every thread count and partition.
    /// `threads <= 1` *is* the serial engine (same code path), as is
    /// [`MachineConfig::check_invariants`] mode (whole-machine
    /// invariant scans are inherently serial).
    ///
    /// [`MachineConfig::check_invariants`]: crate::MachineConfig::check_invariants
    pub fn try_run_parallel(&mut self, threads: usize) -> Result<Report, Box<StallReport>> {
        let workers = threads.saturating_sub(1);
        if workers == 0 || self.cfg.check_invariants {
            return self.try_run();
        }
        let outcome = self.par_run(workers);
        // As in the serial engine, the run ends once its checkpoints
        // are durable.
        self.ckpt_writer.wait_idle();
        outcome
    }

    /// The parallel engine's run: spans between observation boundaries,
    /// then the serial engine's tail.
    fn par_run(&mut self, workers: usize) -> Result<Report, Box<StallReport>> {
        let nodes = self.cfg.nodes();
        let part = match self.partition.clone() {
            Some(p) => p,
            None => Partition::contiguous(nodes, workers),
        };
        assert_eq!(part.nodes(), nodes, "partition does not match machine");
        let cap = if self.cfg.max_cycles == 0 {
            Cycle::MAX
        } else {
            self.cfg.max_cycles
        };
        // Spans run between observation boundaries (checkpoints, flight
        // windows): the probes need a quiescent whole machine, so they
        // happen here, exactly where the serial loop would run them.
        while let Some(pt) = self.queue.peek_time() {
            if pt >= self.next_ckpt {
                self.maybe_checkpoint(cap);
            }
            if pt > cap {
                break;
            }
            if pt >= self.next_window {
                self.flight_sample(pt);
            }
            if self.watchdog.expired(pt) {
                if let Some(s) = self.sink.as_mut() {
                    let _ = s.flush();
                }
                return Err(Box::new(self.stall_report(StallCause::WatchdogExpired, pt)));
            }
            let stop = self.next_ckpt.min(self.next_window);
            debug_assert!(stop > pt);
            if let Some(at) = self.par_span(cap, stop, &part) {
                if let Some(s) = self.sink.as_mut() {
                    let _ = s.flush();
                }
                return Err(Box::new(self.stall_report(StallCause::WatchdogExpired, at)));
            }
        }
        // Tail: identical to the serial engine.
        let capped = !self.queue.is_empty();
        if self.flight.is_some() {
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
        Ok(report)
    }

    /// Runs one worker scope: rounds until the next boundary (`stop`),
    /// the cap, a drained queue, or a stall. Returns the stall cycle if
    /// the watchdog expired.
    fn par_span(&mut self, cap: Cycle, stop: Cycle, part: &Partition) -> Option<Cycle> {
        let lps = part.lps();
        let slice = self.cfg.core_slice;
        let shared = Shared {
            gate: Gate::new(),
            cursor: AppliedCursor::new(),
            bufs: std::array::from_fn(|_| RoundBuf::default()),
            done_upto: (0..lps).map(|_| AtomicUsize::new(0)).collect(),
        };
        // Split the machine: cores/agents become shard pointers shared
        // with the workers; everything else stays exclusively with the
        // driver through the Ctx. No `&mut Machine` is formed again
        // until the scope ends, so the shard pointers stay valid.
        let Machine {
            cfg,
            queue,
            net,
            rings,
            cores,
            agents,
            mem,
            cpp,
            pbufs,
            finish_time,
            stats,
            registry,
            anatomy_marks,
            mc_buf,
            trace,
            sink,
            trace_enabled,
            watchdog,
            recent,
            rel,
            rel_buf,
            outage_buf,
            ..
        } = self;
        let shard = ShardPtrs::new(cores, agents);
        let mut cx = Ctx {
            cfg,
            queue,
            net,
            rings,
            nodes: NodeAccess::Shard(&shard),
            mem,
            cpp,
            pbufs,
            finish_time,
            stats,
            registry,
            anatomy_marks,
            mc_buf,
            trace,
            sink,
            trace_enabled: *trace_enabled,
            watchdog,
            recent,
            rel,
            rel_buf,
            outage_buf,
        };
        std::thread::scope(|s| {
            let shared = &shared;
            let shard = &shard;
            for lp in 0..lps {
                s.spawn(move || worker_loop(lp as u32, shared, shard, slice));
            }
            let out = driver_rounds(&mut cx, part, shared, shard, lps, slice, cap, stop);
            shared.gate.shutdown();
            out
        })
    }
}
