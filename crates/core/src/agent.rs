//! The per-node embedded-ring protocol engine.
//!
//! [`RingAgent`] implements Eager, SupersetCon, SupersetAgg and Uncorq as
//! one message-driven state machine: the machine simulator feeds it
//! [`AgentInput`]s (with the current cycle) and executes the returned
//! [`Effect`]s — sending ring messages to the ring successor, multicasting
//! requests, starting snoops, fetching memory, and recording statistics.
//!
//! The agent owns the node's L2 array, its [`Ltt`], its presence filter
//! (Flexible Snooping), its [`NodePrefetchPredictor`], and the MSHRs for
//! its own outstanding transactions. All collision handling of the
//! paper's Tables 1 and 2 lives here.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

use ring_cache::{CacheArray, CacheConfig, LineAddr, LineState, Mshr};
use ring_noc::NodeId;
use ring_sim::{Cycle, DetRng};
use ring_trace::{ErrorClass, EventKind as TraceKind, OpClass, Payload, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::config::{ProtocolConfig, ProtocolKind};
use crate::table::{SnoopState, SupplierTable};

/// Maps a protocol transaction kind onto the trace-layer operation
/// class.
fn op_class(kind: TxnKind) -> OpClass {
    match kind {
        TxnKind::Read => OpClass::Read,
        TxnKind::WriteMiss => OpClass::WriteMiss,
        TxnKind::WriteHit => OpClass::WriteHit,
    }
}

/// Pushes a [`TraceEvent`] onto the agent's buffer when tracing is on.
///
/// A macro rather than a method so it can be used while a disjoint
/// field of the agent (e.g. an MSHR entry) is mutably borrowed.
macro_rules! tev {
    ($self:ident, $now:expr, $txn:expr, $line:expr, $kind:expr) => {
        if $self.trace_on {
            let txn: TxnId = $txn;
            $self.trace_buf.push(TraceEvent {
                cycle: $now,
                node: $self.node.0 as u32,
                txn_node: txn.node.0 as u32,
                txn_serial: txn.serial,
                line: $line.raw(),
                kind: $kind,
            });
        }
    };
}
use crate::filter::PresenceFilter;
use crate::ltt::{Ltt, LttEntry};
use crate::msg::{RequestMsg, ResponseMsg, RingMsg, SupplierMsg};
use crate::npp::NodePrefetchPredictor;
use crate::txn::{Priority, TxnId, TxnKind};

/// An input delivered to a protocol agent at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgentInput {
    /// The local core needs a coherence transaction for `line`.
    CoreRequest {
        /// Line to transact on.
        line: LineAddr,
        /// Kind of transaction (classified against the L2 by the caller).
        kind: TxnKind,
    },
    /// A ring message arrived from the ring predecessor.
    RingArrival(RingMsg),
    /// A multicast request arrived over the unconstrained path (Uncorq).
    DirectRequest(RequestMsg),
    /// A previously started local snoop finished.
    SnoopDone {
        /// Transaction the snoop serves.
        txn: TxnId,
        /// Line snooped.
        line: LineAddr,
    },
    /// A suppliership message arrived (directly from the supplier).
    Supplier(SupplierMsg),
    /// A demand memory fetch (or claimed prefetch) completed.
    MemData {
        /// Line whose data arrived.
        line: LineAddr,
    },
    /// A scheduled retry fired.
    RetryNow {
        /// Line to retry.
        line: LineAddr,
    },
}

/// A side effect the machine simulator must carry out for the agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Send a ring message to the ring successor after `delay` extra
    /// cycles (filter lookup, stall-and-snoop forwarding).
    RingSend {
        /// The message.
        msg: RingMsg,
        /// Extra cycles before injection.
        delay: Cycle,
    },
    /// Multicast a request to every other node over any network path.
    MulticastRequest(RequestMsg),
    /// Send a suppliership message directly to `to`.
    SendSupplier {
        /// Destination (the requester).
        to: NodeId,
        /// The suppliership.
        msg: SupplierMsg,
    },
    /// Schedule `SnoopDone { txn, line }` after `delay` cycles.
    StartSnoop {
        /// Transaction being snooped.
        txn: TxnId,
        /// Line being snooped.
        line: LineAddr,
        /// Snoop latency (includes filter lookup where applicable).
        delay: Cycle,
    },
    /// Re-deliver `SnoopDone` after `delay` (SNID reservation stall).
    DelaySnoop {
        /// Transaction stalled.
        txn: TxnId,
        /// Line stalled.
        line: LineAddr,
        /// Stall length in cycles.
        delay: Cycle,
    },
    /// Fetch `line` from memory; `prefetch` distinguishes the §5.4
    /// speculative prefetch from a demand fetch after `r-`.
    MemFetch {
        /// Line to fetch.
        line: LineAddr,
        /// Whether this is a speculative prefetch.
        prefetch: bool,
    },
    /// Write a dirty victim back to memory.
    Writeback {
        /// Victim line.
        line: LineAddr,
    },
    /// The requested data (or ownership) became usable — the load/store
    /// binds. Read-miss latency is measured here.
    Bound {
        /// Line bound.
        line: LineAddr,
        /// Transaction kind.
        kind: TxnKind,
        /// Cycles from first issue (including retries) to binding.
        latency: Cycle,
        /// Serviced by a cache-to-cache transfer?
        c2c: bool,
    },
    /// The transaction completed (own `r` consumed; all copies
    /// invalidated for writes).
    Complete {
        /// Line completed.
        line: LineAddr,
        /// Transaction kind.
        kind: TxnKind,
        /// Serviced cache-to-cache?
        c2c: bool,
        /// Times the transaction was squashed and retried.
        retries: u32,
        /// Whether a §5.4 prefetch was issued for it.
        prefetch_issued: bool,
        /// Cycles from first issue to completion — the "time to response
        /// reception" of the paper's Figure 5(b).
        latency: Cycle,
    },
    /// Schedule `RetryNow { line }` after `delay` cycles.
    Retry {
        /// Line to retry.
        line: LineAddr,
        /// Backoff delay.
        delay: Cycle,
    },
    /// The node's L2 lost this line (invalidation or eviction); the
    /// machine must invalidate the core's L1 copy to preserve inclusion.
    L1Invalidate {
        /// Line to drop from the L1.
        line: LineAddr,
    },
}

/// Counters the agent maintains about its own operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentStats {
    /// Transactions issued (first attempts).
    pub issued: u64,
    /// Transactions completed.
    pub completed: u64,
    /// Completions serviced cache-to-cache.
    pub completed_c2c: u64,
    /// Squash/loser retries.
    pub retries: u64,
    /// Collisions observed (foreign transaction overlapping an own one).
    pub collisions: u64,
    /// Local snoop operations performed.
    pub snoops: u64,
    /// Snoops skipped thanks to the presence filter.
    pub snoops_skipped: u64,
    /// Suppliership messages sent.
    pub supplierships_sent: u64,
    /// Responses this node marked as squashed.
    pub squash_marks: u64,
    /// Responses this node marked with the Loser Hint.
    pub loser_hint_marks: u64,
    /// Starvation episodes (forward-progress mechanism engaged).
    pub starvation_events: u64,
    /// §5.4 prefetches issued.
    pub prefetches_issued: u64,
    /// Protocol-state errors detected and recovered from (e.g. an MSHR
    /// or LTT slot missing where the protocol required one). Always 0 in
    /// a correct run, including runs under in-spec fault injection.
    pub protocol_errors: u64,
}

/// Per-collider bookkeeping inside an own transaction.
#[derive(Debug, Clone, Copy)]
struct Collider {
    priority: Priority,
    kind: TxnKind,
    response_seen: bool,
}

/// State of one own outstanding transaction (an MSHR payload).
#[derive(Debug, Clone)]
struct OwnTx {
    txn: TxnId,
    kind: TxnKind,
    priority: Priority,
    first_issued_at: Cycle,
    retries: u32,
    suppliership: Option<SupplierMsg>,
    own_resp: Option<ResponseMsg>,
    /// Point of no return: own `r` consumed and this transaction won
    /// (committed to suppliership wait or memory).
    committed: bool,
    lost: bool,
    colliders: BTreeMap<TxnId, Collider>,
    must_invalidate: bool,
    /// A squashed positive was consumed before the suppliership landed:
    /// the attempt must fail over, but a transfer is already in flight
    /// to us (the positive proves a supplier serviced this attempt), so
    /// the abort is parked until it arrives — failing immediately would
    /// let the retry bind stale memory while the only current copy is
    /// still on the wire.
    doomed: bool,
    /// Our resident copy was evicted out from under a WriteHit.
    copy_lost: bool,
    /// Sharers observed by our own combined response.
    sharers_seen: bool,
    prefetch_issued: bool,
    mem_waiting: bool,
}

impl OwnTx {
    fn all_collider_responses_seen(&self) -> bool {
        self.colliders.values().all(|c| c.response_seen)
    }

    fn beats_all_colliders(&self) -> bool {
        self.colliders
            .values()
            .all(|c| self.priority.beats(c.priority))
    }
}

/// The process-wide canonical supplier table, shared by every agent that
/// has not been handed a replacement.
fn canonical_supplier_table() -> Arc<SupplierTable> {
    static CANONICAL: OnceLock<Arc<SupplierTable>> = OnceLock::new();
    Arc::clone(CANONICAL.get_or_init(|| Arc::new(SupplierTable::canonical())))
}

/// A read-only snapshot of one own outstanding transaction, exposing the
/// requester-side decision inputs the `ring-model` conformance checker
/// replays against [`crate::DecisionTable`].
#[derive(Debug, Clone)]
pub struct OwnTxView {
    /// The transaction's identity.
    pub txn: TxnId,
    /// Current kind (a WriteHit degrades to WriteMiss on copy loss).
    pub kind: TxnKind,
    /// Winner-selection priority.
    pub priority: Priority,
    /// Own `r` consumed and won (point of no return).
    pub committed: bool,
    /// A passing `r+` proved this transaction lost.
    pub lost: bool,
    /// Committed to a memory fill that has not arrived yet.
    pub mem_waiting: bool,
    /// The suppliership message has arrived.
    pub has_suppliership: bool,
    /// Whether the bound suppliership carries data (`None` until one
    /// arrives).
    pub suppliership_with_data: Option<bool>,
    /// Whether the own combined response has been consumed, and if so
    /// whether it was positive.
    pub own_resp_positive: Option<bool>,
    /// A colliding write obligates invalidation of the local copy.
    pub must_invalidate: bool,
    /// A squashed positive parked this attempt until its in-flight
    /// suppliership lands (it then flushes and fails over).
    pub doomed: bool,
    /// The resident copy was evicted out from under a WriteHit.
    pub copy_lost: bool,
    /// Known colliders as `(txn, priority, response_seen)`.
    pub colliders: Vec<(TxnId, Priority, bool)>,
}

impl OwnTxView {
    /// Whether every known collider's response has been observed.
    pub fn colliders_seen(&self) -> bool {
        self.colliders.iter().all(|&(_, _, seen)| seen)
    }

    /// Whether this transaction's priority beats every known collider's.
    pub fn beats_all(&self) -> bool {
        self.colliders
            .iter()
            .all(|&(_, p, _)| self.priority.beats(p))
    }
}

/// Retry bookkeeping that survives across attempts on a line.
#[derive(Debug, Clone, Copy)]
struct RetryInfo {
    kind: TxnKind,
    count: u32,
    first_issued_at: Cycle,
}

/// The per-node protocol engine. See the crate docs for the protocol
/// family and the module docs for the interaction model.
#[derive(Debug, Clone)]
pub struct RingAgent {
    node: NodeId,
    cfg: ProtocolConfig,
    l2: CacheArray,
    ltt: Ltt,
    filter: Option<PresenceFilter>,
    npp: NodePrefetchPredictor,
    outstanding: Mshr<OwnTx>,
    pending_core: VecDeque<(LineAddr, TxnKind)>,
    retry_info: BTreeMap<LineAddr, RetryInfo>,
    squash_set: BTreeMap<LineAddr, BTreeSet<TxnId>>,
    /// Foreign requests intercepted while starving (Eager §5.2.1).
    held_requests: Vec<RequestMsg>,
    /// SupersetCon: requests to forward once their snoop completes.
    forward_on_snoop: BTreeSet<TxnId>,
    /// Remaining SNID-stall re-deliveries per snoop (bounded).
    snoop_delay_budget: BTreeMap<TxnId, u32>,
    starving: Option<LineAddr>,
    serial: u64,
    rng: DetRng,
    /// The declarative supplier-side snoop table this agent consults on
    /// every [`AgentInput::SnoopDone`]. Shared (the canonical table by
    /// default); replaceable for the model-checker's mutation harness.
    table: Arc<SupplierTable>,
    stats: AgentStats,
    /// Whether trace events are collected (off by default: the hot path
    /// then only tests one bool per site).
    trace_on: bool,
    trace_buf: Vec<TraceEvent>,
}

impl RingAgent {
    /// Creates the agent for `node` with an empty L2 of geometry
    /// `l2_cfg`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`ProtocolConfig::validate`] — agents no
    /// longer clamp degenerate values at use sites, so construction is
    /// the last line of defense. Callers wanting a recoverable error
    /// should validate first.
    pub fn new(node: NodeId, cfg: ProtocolConfig, l2_cfg: CacheConfig, rng: DetRng) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid protocol config for node {}: {e}", node.0);
        }
        let filter = cfg.kind.uses_filter().then(|| PresenceFilter::new(8192, 2));
        RingAgent {
            node,
            l2: CacheArray::new(l2_cfg),
            ltt: Ltt::new(cfg.ltt),
            filter,
            npp: NodePrefetchPredictor::new(cfg.npp_capacity()),
            outstanding: Mshr::new(cfg.max_outstanding),
            pending_core: VecDeque::new(),
            retry_info: BTreeMap::new(),
            squash_set: BTreeMap::new(),
            held_requests: Vec::new(),
            forward_on_snoop: BTreeSet::new(),
            snoop_delay_budget: BTreeMap::new(),
            starving: None,
            serial: 0,
            rng,
            table: canonical_supplier_table(),
            cfg,
            stats: AgentStats::default(),
            trace_on: false,
            trace_buf: Vec::new(),
        }
    }

    /// Turns trace-event collection on or off. While off (the default)
    /// the agent never constructs a [`TraceEvent`].
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_on = on;
    }

    /// Takes the trace events accumulated since the last drain, in
    /// emission (chronological) order.
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace_buf)
    }

    /// This agent's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Read access to the node's L2 array.
    pub fn l2(&self) -> &CacheArray {
        &self.l2
    }

    /// Read access to the LTT.
    pub fn ltt(&self) -> &Ltt {
        &self.ltt
    }

    /// The agent's counters.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// The supplier-side snoop table this agent consults.
    pub fn supplier_table(&self) -> &SupplierTable {
        &self.table
    }

    /// Replaces the supplier table (the model checker's mutation harness
    /// injects deliberately broken tables here; production code keeps the
    /// canonical default).
    pub fn set_supplier_table(&mut self, table: Arc<SupplierTable>) {
        self.table = table;
    }

    /// A snapshot of the own outstanding transaction on `line`, exposing
    /// the requester-side decision inputs for differential conformance
    /// checking. `None` when no transaction is outstanding there.
    pub fn own_txn_view(&self, line: LineAddr) -> Option<OwnTxView> {
        let tx = self.outstanding.get(line)?;
        Some(OwnTxView {
            txn: tx.txn,
            kind: tx.kind,
            priority: tx.priority,
            committed: tx.committed,
            lost: tx.lost,
            mem_waiting: tx.mem_waiting,
            has_suppliership: tx.suppliership.is_some(),
            suppliership_with_data: tx.suppliership.map(|s| s.with_data),
            own_resp_positive: tx.own_resp.map(|r| r.positive),
            must_invalidate: tx.must_invalidate,
            doomed: tx.doomed,
            copy_lost: tx.copy_lost,
            colliders: tx
                .colliders
                .iter()
                .map(|(id, c)| (*id, c.priority, c.response_seen))
                .collect(),
        })
    }

    /// Hashes the agent's complete protocol-relevant state into `h`, so
    /// the `ring-model` explorer can deduplicate global states. Includes
    /// everything future behavior depends on (L2 contents, LTT, MSHR
    /// payloads, retry/squash/starvation bookkeeping, filter and NPP
    /// state, the RNG) and excludes pure statistics and the trace buffer.
    pub fn digest(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.node.hash(h);
        // L2 resident lines: CacheArray::iter walks sets in index order
        // and ways in physical order; sort for canonical form (way order
        // within a set is allocation history, not behavior — LRU ranks
        // would matter for evictions, but model configs are sized so the
        // working set fits, and the tiebreak is deterministic anyway).
        let mut lines: Vec<(LineAddr, LineState)> = self.l2.iter().collect();
        lines.sort_unstable();
        lines.hash(h);
        self.ltt.digest(h);
        if let Some(f) = self.filter.as_ref() {
            f.digest(h);
        }
        self.npp.digest(h);
        self.outstanding.len().hash(h);
        for (line, tx) in self.outstanding.iter() {
            line.hash(h);
            tx.txn.hash(h);
            tx.kind.hash(h);
            tx.priority.hash(h);
            tx.first_issued_at.hash(h);
            tx.retries.hash(h);
            tx.suppliership.hash(h);
            tx.own_resp.hash(h);
            tx.committed.hash(h);
            tx.lost.hash(h);
            tx.colliders.len().hash(h);
            for (id, c) in &tx.colliders {
                id.hash(h);
                c.priority.hash(h);
                c.response_seen.hash(h);
            }
            tx.must_invalidate.hash(h);
            tx.doomed.hash(h);
            tx.copy_lost.hash(h);
            tx.sharers_seen.hash(h);
            tx.prefetch_issued.hash(h);
            tx.mem_waiting.hash(h);
        }
        self.pending_core.hash(h);
        self.retry_info.len().hash(h);
        for (line, info) in &self.retry_info {
            line.hash(h);
            info.kind.hash(h);
            info.count.hash(h);
            info.first_issued_at.hash(h);
        }
        self.squash_set.hash(h);
        self.held_requests.hash(h);
        self.forward_on_snoop.hash(h);
        self.snoop_delay_budget.hash(h);
        self.starving.hash(h);
        self.serial.hash(h);
        self.rng.state().hash(h);
    }

    /// Whether a transaction for `line` is outstanding at this node.
    pub fn has_outstanding(&self, line: LineAddr) -> bool {
        self.outstanding.contains(line)
    }

    /// Whether `line` is engaged by this node in any form: an outstanding
    /// transaction, a deferred core request, or a retry in backoff. The
    /// machine treats engaged lines as store-to-load-forwardable so cores
    /// do not issue duplicate transactions.
    pub fn is_line_engaged(&self, line: LineAddr) -> bool {
        self.outstanding.contains(line)
            || self.retry_info.contains_key(&line)
            || self.pending_core.iter().any(|&(l, _)| l == line)
    }

    /// Number of own outstanding transactions.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Lines currently in retry backoff, with their retry counts
    /// (stall-report introspection).
    pub fn retry_lines(&self) -> Vec<(LineAddr, u32)> {
        self.retry_info.iter().map(|(l, i)| (*l, i.count)).collect()
    }

    /// The line this node is starving on, if the §5.2 forward-progress
    /// mechanism is engaged.
    pub fn starving_line(&self) -> Option<LineAddr> {
        self.starving
    }

    /// Core requests deferred behind the MSHR/IPTR limits.
    pub fn pending_core_len(&self) -> usize {
        self.pending_core.len()
    }

    /// Classifies a store against the current L2 state: `None` if it can
    /// proceed silently, otherwise the transaction kind needed.
    pub fn classify_store(&self, line: LineAddr) -> Option<TxnKind> {
        match self.l2.state(line) {
            s if s.can_write_silently() => None,
            LineState::Shared | LineState::MasterShared | LineState::Tagged => {
                Some(TxnKind::WriteHit)
            }
            LineState::Invalid => Some(TxnKind::WriteMiss),
            _ => unreachable!("can_write_silently covers E and D"),
        }
    }

    /// The node's Node Prefetch Predictor.
    pub fn prefetch_predictor(&self) -> &NodePrefetchPredictor {
        &self.npp
    }

    /// Replaces the Node Prefetch Predictor with a copy of `warm` (warm-up
    /// hook: the paper's runs skip initialization, during which every
    /// node would have observed the same ring traffic, so the machine
    /// builds that state once and each agent takes its own copy).
    ///
    /// # Panics
    ///
    /// Panics if `warm`'s capacity is not this agent's.
    pub fn warm_prefetch_predictor(&mut self, warm: &NodePrefetchPredictor) {
        assert_eq!(
            warm.capacity(),
            self.npp.capacity(),
            "warm prefetch predictor capacity differs from node {}'s",
            self.node.0
        );
        self.npp.clone_from(warm);
    }

    /// Directly installs a line (test setup / warm-up), updating the
    /// filter. Returns a dirty victim to write back, if any.
    pub fn install_line(&mut self, line: LineAddr, state: LineState) -> Option<LineAddr> {
        let evicted = self.l2.insert(line, state);
        if let Some(f) = self.filter.as_mut() {
            f.insert(line);
            if let Some(ev) = evicted {
                f.remove(ev.addr);
            }
        }
        evicted.and_then(|ev| ev.state.is_dirty().then_some(ev.addr))
    }

    /// Handles one input at cycle `now`, returning the effects to apply.
    pub fn handle(&mut self, now: Cycle, input: AgentInput) -> Vec<Effect> {
        let mut fx = Vec::new();
        self.handle_into(now, input, &mut fx);
        fx
    }

    /// [`RingAgent::handle`] into a caller-owned effect buffer, so the
    /// event loop can reuse one allocation across all events. Effects
    /// are appended; the caller clears the buffer between events.
    pub fn handle_into(&mut self, now: Cycle, input: AgentInput, fx: &mut Vec<Effect>) {
        match input {
            AgentInput::CoreRequest { line, kind } => {
                self.core_request(now, line, kind, fx);
            }
            AgentInput::RingArrival(RingMsg::Request(req)) => {
                self.ring_request(now, req, fx);
            }
            AgentInput::RingArrival(RingMsg::Response(resp)) => {
                self.response_arrival(now, resp, fx);
            }
            AgentInput::DirectRequest(req) => {
                self.direct_request(now, req, fx);
            }
            AgentInput::SnoopDone { txn, line } => {
                self.snoop_done(now, txn, line, fx);
            }
            AgentInput::Supplier(msg) => {
                self.supplier_arrival(now, msg, fx);
            }
            AgentInput::MemData { line } => {
                self.mem_data(now, line, fx);
            }
            AgentInput::RetryNow { line } => {
                self.retry_now(now, line, fx);
            }
        }
        self.drain_pending_core(now, fx);
    }

    // ------------------------------------------------------------------
    // Issue path
    // ------------------------------------------------------------------

    fn core_request(&mut self, now: Cycle, line: LineAddr, kind: TxnKind, fx: &mut Vec<Effect>) {
        if !self.can_issue(line) {
            if !self.pending_core.iter().any(|&(l, _)| l == line) {
                self.pending_core.push_back((line, kind));
            }
            return;
        }
        self.issue(now, line, kind, fx);
    }

    /// The In-Progress Transaction Restriction (§3.2) plus MSHR limits.
    /// A starving node bypasses the IPTR for its starved line (§5.2).
    fn can_issue(&self, line: LineAddr) -> bool {
        if self.outstanding.contains(line) {
            return false;
        }
        if self.outstanding.is_full() {
            return false;
        }
        if self.ltt.line_busy(line) && self.starving != Some(line) {
            return false;
        }
        true
    }

    fn issue(&mut self, now: Cycle, line: LineAddr, kind: TxnKind, fx: &mut Vec<Effect>) {
        let info = self.retry_info.get(&line).copied();
        let (kind, retries, first_issued_at) = match info {
            Some(i) => (i.kind, i.count, i.first_issued_at),
            None => (kind, 0, now),
        };
        // A store's kind freezes when it is parked (`pending_core`,
        // `retry_info`): a snoop can invalidate the copy before the
        // request finally issues. A WriteHit without a valid copy would
        // ride the ring claiming it needs no data, so suppliers would
        // answer ownership-only — re-derive the honest kind here.
        let kind = if kind == TxnKind::WriteHit && !self.l2.state(line).is_valid() {
            TxnKind::WriteMiss
        } else {
            kind
        };
        self.serial += 1;
        let txn = TxnId {
            node: self.node,
            serial: self.serial,
        };
        let priority = if self.cfg.winner_node_id_only {
            // Ablation: node-id-only priority (paper §3.3.2's "unfair,
            // but it never ties" strawman).
            Priority::new(TxnKind::Read, 0, self.node)
        } else {
            Priority::new(kind, self.rng.next_u64() as u32, self.node)
        };
        let req = RequestMsg {
            txn,
            line,
            kind,
            priority,
        };
        tev!(
            self,
            now,
            txn,
            line,
            TraceKind::RequestIssue {
                op: op_class(kind),
                retry: retries > 0,
            }
        );
        let mut tx = OwnTx {
            txn,
            kind,
            priority,
            first_issued_at,
            retries,
            suppliership: None,
            own_resp: None,
            committed: false,
            lost: false,
            colliders: BTreeMap::new(),
            must_invalidate: false,
            doomed: false,
            copy_lost: false,
            sharers_seen: false,
            prefetch_issued: false,
            mem_waiting: false,
        };
        // Adopt every foreign transaction already in flight at this node
        // as a collider. The In-Progress Transaction Restriction normally
        // prevents issuing while one is pending, but the §5.2 starvation
        // path legitimately bypasses it — and the new transaction must
        // still serialize against (and, if it wins, squash) those
        // transactions.
        if let Some(entry) = self.ltt.entry(line) {
            for slot in entry.slots() {
                if slot.txn.node == self.node {
                    continue;
                }
                let info = slot
                    .request
                    .map(|r| (r.priority, r.kind))
                    .or_else(|| slot.response.map(|r| (r.priority, r.kind)));
                if let Some((priority, fkind)) = info {
                    tx.colliders.insert(
                        slot.txn,
                        Collider {
                            priority,
                            kind: fkind,
                            response_seen: slot.response.is_some(),
                        },
                    );
                    if fkind.is_write() {
                        tx.must_invalidate = true;
                    }
                }
            }
        }
        // §5.4 prefetch: reads only, Uncorq+Pref only.
        if self.cfg.prefetch && kind == TxnKind::Read && self.npp.should_prefetch(line) {
            tx.prefetch_issued = true;
            self.stats.prefetches_issued += 1;
            tev!(self, now, txn, line, TraceKind::MemFetch { prefetch: true });
            fx.push(Effect::MemFetch {
                line,
                prefetch: true,
            });
        }
        if self.outstanding.allocate(line, tx).is_err() {
            // can_issue() already checked capacity and the IPTR, so an
            // allocation failure here means the agent's own bookkeeping
            // is corrupt (e.g. a duplicated delivery re-entered issue).
            // Surface it through the trace layer instead of crashing.
            self.protocol_error(now, txn, line, ErrorClass::MshrOverflow);
            return;
        }
        if retries == 0 {
            self.stats.issued += 1;
        }
        // Request delivery: multicast for Uncorq reads, ring otherwise.
        if kind == TxnKind::Read && self.cfg.kind.multicast_reads() {
            fx.push(Effect::MulticastRequest(req));
        } else {
            fx.push(Effect::RingSend {
                msg: RingMsg::Request(req),
                delay: 0,
            });
        }
        // The response follows on the ring.
        fx.push(Effect::RingSend {
            msg: RingMsg::Response(ResponseMsg::initial(&req)),
            delay: 0,
        });
        // A starving Eager node releases held foreign requests behind its
        // own (§5.2.1).
        if self.starving == Some(line) && !self.held_requests.is_empty() {
            for held in std::mem::take(&mut self.held_requests) {
                fx.push(Effect::RingSend {
                    msg: RingMsg::Request(held),
                    delay: 0,
                });
            }
        }
    }

    fn retry_now(&mut self, now: Cycle, line: LineAddr, fx: &mut Vec<Effect>) {
        if self.outstanding.contains(line) {
            // Already re-issued (starvation interception fast path).
            return;
        }
        let Some(info) = self.retry_info.get(&line).copied() else {
            return; // completed meanwhile
        };
        if self.can_issue(line) {
            self.issue(now, line, info.kind, fx);
        } else if !self.pending_core.iter().any(|&(l, _)| l == line) {
            self.pending_core.push_back((line, info.kind));
        }
    }

    /// Issues every parked core request that may issue now, in order;
    /// the rest stay parked in their order. Rotates the queue in place
    /// (`issue` never parks a request), so draining allocates nothing.
    fn drain_pending_core(&mut self, now: Cycle, fx: &mut Vec<Effect>) {
        for _ in 0..self.pending_core.len() {
            let Some((line, kind)) = self.pending_core.pop_front() else {
                break;
            };
            if self.can_issue(line) {
                self.issue(now, line, kind, fx);
            } else {
                self.pending_core.push_back((line, kind));
            }
        }
    }

    // ------------------------------------------------------------------
    // Request arrival
    // ------------------------------------------------------------------

    fn ring_request(&mut self, now: Cycle, req: RequestMsg, fx: &mut Vec<Effect>) {
        tev!(
            self,
            now,
            req.txn,
            req.line,
            TraceKind::RingRecv {
                payload: Payload::Request {
                    op: op_class(req.kind),
                },
            }
        );
        if req.requester() == self.node {
            // Own request completed its lap; consumed silently.
            return;
        }
        self.npp.observe(req.line);
        // Starvation interception (Eager/ring delivery, §5.2.1): hold the
        // forwarding of conflicting requests; the snoop still proceeds.
        let mut forward = true;
        if self.starving == Some(req.line)
            && !self.outstanding.contains(req.line)
            && self.retry_info.contains_key(&req.line)
        {
            self.held_requests.push(req);
            forward = false;
            // Issue our own request ahead of the held one right now.
            if self.can_issue(req.line) {
                let info = self.retry_info[&req.line];
                self.issue(now, req.line, info.kind, fx);
            }
        }
        match self.cfg.kind {
            ProtocolKind::Eager | ProtocolKind::Uncorq => {
                if forward {
                    fx.push(Effect::RingSend {
                        msg: RingMsg::Request(req),
                        delay: 0,
                    });
                }
                self.accept_request(now, req, fx);
                fx.push(Effect::StartSnoop {
                    txn: req.txn,
                    line: req.line,
                    delay: self.cfg.snoop_latency,
                });
            }
            ProtocolKind::SupersetCon => {
                let hit = self
                    .filter
                    .as_mut()
                    .map(|f| f.query(req.line))
                    .unwrap_or(true);
                self.accept_request(now, req, fx);
                if hit {
                    // Stall the request behind the snoop.
                    if forward {
                        self.forward_on_snoop.insert(req.txn);
                    }
                    fx.push(Effect::StartSnoop {
                        txn: req.txn,
                        line: req.line,
                        delay: self.cfg.filter_latency + self.cfg.snoop_latency,
                    });
                } else {
                    if forward {
                        fx.push(Effect::RingSend {
                            msg: RingMsg::Request(req),
                            delay: self.cfg.filter_latency,
                        });
                    }
                    self.skip_snoop(now, req, fx);
                }
            }
            ProtocolKind::SupersetAgg => {
                let hit = self
                    .filter
                    .as_mut()
                    .map(|f| f.query(req.line))
                    .unwrap_or(true);
                if forward {
                    fx.push(Effect::RingSend {
                        msg: RingMsg::Request(req),
                        delay: self.cfg.filter_latency,
                    });
                }
                self.accept_request(now, req, fx);
                if hit {
                    fx.push(Effect::StartSnoop {
                        txn: req.txn,
                        line: req.line,
                        delay: self.cfg.filter_latency + self.cfg.snoop_latency,
                    });
                } else {
                    self.skip_snoop(now, req, fx);
                }
            }
        }
    }

    fn direct_request(&mut self, now: Cycle, req: RequestMsg, fx: &mut Vec<Effect>) {
        debug_assert_ne!(req.requester(), self.node, "multicast excludes the root");
        self.npp.observe(req.line);
        self.accept_request(now, req, fx);
        fx.push(Effect::StartSnoop {
            txn: req.txn,
            line: req.line,
            delay: self.cfg.snoop_latency,
        });
    }

    /// Common per-request bookkeeping: LTT slot and collision detection.
    fn accept_request(&mut self, now: Cycle, req: RequestMsg, _fx: &mut [Effect]) {
        let fresh = self
            .ltt
            .entry(req.line)
            .and_then(|e| e.slot(req.txn))
            .is_none();
        self.ltt.see_request(req);
        if fresh {
            tev!(
                self,
                now,
                req.txn,
                req.line,
                TraceKind::LttInsert {
                    occupancy: self.ltt.len() as u32,
                }
            );
        }
        if let Some(tx) = self.outstanding.get_mut(req.line) {
            self.stats.collisions += 1;
            tev!(
                self,
                now,
                tx.txn,
                req.line,
                TraceKind::Collision {
                    other_node: req.txn.node.0 as u32,
                    other_serial: req.txn.serial,
                }
            );
            tx.colliders.entry(req.txn).or_insert(Collider {
                priority: req.priority,
                kind: req.kind,
                response_seen: false,
            });
            if req.kind.is_write() {
                tx.must_invalidate = true;
            }
        }
    }

    /// The filter proved absence: complete the "snoop" instantly with a
    /// negative outcome (no tag access, no invalidation needed).
    fn skip_snoop(&mut self, now: Cycle, req: RequestMsg, fx: &mut Vec<Effect>) {
        self.stats.snoops_skipped += 1;
        tev!(self, now, req.txn, req.line, TraceKind::SnoopSkip);
        self.ltt.snoop_complete(req.txn, req.line, false);
        self.drain_responses(now, req.line, fx);
    }

    // ------------------------------------------------------------------
    // Snoop completion
    // ------------------------------------------------------------------

    fn snoop_done(&mut self, now: Cycle, txn: TxnId, line: LineAddr, fx: &mut Vec<Effect>) {
        // SNID reservation (§5.2.2): the new supplier briefly refuses to
        // service nodes other than the reserved starving node.
        if let Some((holder, _)) = self.ltt.reservation(line) {
            if holder != txn.node && !self.ltt.clear_reservation(line, now, false) {
                let budget = self.snoop_delay_budget.entry(txn).or_insert(8);
                if *budget > 0 {
                    *budget -= 1;
                    fx.push(Effect::DelaySnoop {
                        txn,
                        line,
                        delay: 64,
                    });
                    return;
                }
                // Budget exhausted: break the reservation to preserve
                // liveness.
                self.ltt.clear_reservation(line, now, true);
            }
        }
        self.snoop_delay_budget.remove(&txn);
        self.stats.snoops += 1;
        let Some(req) = self
            .ltt
            .entry(line)
            .and_then(|e| e.slot(txn))
            .and_then(|s| s.request)
        else {
            return; // slot vanished (defensive)
        };
        let state = self.l2.state(line);
        let transient = self.outstanding.contains(line);
        // Consult the declarative supplier table — the same artifact the
        // `ring-model` checker proves complete and deterministic — for
        // the snoop outcome, the suppliership, and our copy's next state.
        let snoop_state = SnoopState::classify(state, transient);
        let row = match self.table.lookup(snoop_state, req.kind, &self.cfg) {
            Ok(row) => *row,
            Err(_) => {
                // A hole or ambiguity (only possible with a mutated
                // table): record the error and degrade to a negative
                // snoop so the protocol stays live for the checker.
                self.protocol_error(now, txn, line, ErrorClass::TableMiss);
                tev!(
                    self,
                    now,
                    txn,
                    line,
                    TraceKind::SnoopPerform { positive: false }
                );
                self.ltt.snoop_complete(txn, line, false);
                if self.forward_on_snoop.remove(&txn) {
                    fx.push(Effect::RingSend {
                        msg: RingMsg::Request(req),
                        delay: 0,
                    });
                }
                self.drain_responses(now, line, fx);
                return;
            }
        };
        let positive = row.positive;
        tev!(self, now, txn, line, TraceKind::SnoopPerform { positive });
        if let Some(supply) = row.supply {
            tev!(
                self,
                now,
                txn,
                line,
                TraceKind::Suppliership {
                    to: req.requester().0 as u32,
                    with_data: supply.with_data,
                }
            );
            fx.push(Effect::SendSupplier {
                to: req.requester(),
                msg: SupplierMsg {
                    txn,
                    line,
                    with_data: supply.with_data,
                    new_state: supply.requester_state,
                },
            });
            self.stats.supplierships_sent += 1;
        }
        match row.next_state {
            Some(LineState::Invalid) => {
                self.l2.invalidate(line);
                if let Some(f) = self.filter.as_mut() {
                    f.remove(line);
                }
                fx.push(Effect::L1Invalidate { line });
            }
            Some(next) => {
                self.l2.set_state(line, next);
            }
            None => {}
        }
        self.ltt.snoop_complete(txn, line, positive);
        if self.forward_on_snoop.remove(&txn) {
            fx.push(Effect::RingSend {
                msg: RingMsg::Request(req),
                delay: 0,
            });
        }
        self.drain_responses(now, line, fx);
    }

    // ------------------------------------------------------------------
    // Response arrival and forwarding
    // ------------------------------------------------------------------

    fn response_arrival(&mut self, now: Cycle, resp: ResponseMsg, fx: &mut Vec<Effect>) {
        tev!(
            self,
            now,
            resp.txn,
            resp.line,
            TraceKind::RingRecv {
                payload: Payload::Response {
                    positive: resp.positive,
                    squashed: resp.squashed,
                    loser_hint: resp.loser_hint,
                    outcomes: resp.outcomes,
                },
            }
        );
        self.npp.observe(resp.line);
        if resp.requester() == self.node {
            self.own_response(now, resp, fx);
            return;
        }
        // Collision bookkeeping against an own outstanding transaction.
        let mut cancel_memory_path = false;
        if let Some(tx) = self.outstanding.get_mut(resp.line) {
            let fresh_collider = !tx.colliders.contains_key(&resp.txn);
            if fresh_collider {
                self.stats.collisions += 1;
                tev!(
                    self,
                    now,
                    tx.txn,
                    resp.line,
                    TraceKind::Collision {
                        other_node: resp.txn.node.0 as u32,
                        other_serial: resp.txn.serial,
                    }
                );
            }
            let collider = tx.colliders.entry(resp.txn).or_insert(Collider {
                priority: resp.priority,
                kind: resp.kind,
                response_seen: false,
            });
            collider.response_seen = true;
            if resp.positive {
                tx.lost = true;
                // A passing positive response proves a live supplier epoch
                // this transaction's own lap missed (a suppliership chain
                // in motion). If we have committed to a memory fill but
                // the data has not arrived, nothing is bound yet (§5.3),
                // so the commit is revocable: cancel and retry rather than
                // install a second supplier copy from stale memory.
                if tx.mem_waiting {
                    cancel_memory_path = true;
                }
            }
        }
        if cancel_memory_path {
            self.fail_txn(now, resp.line, fx);
        }
        let fresh_slot = self
            .ltt
            .entry(resp.line)
            .and_then(|e| e.slot(resp.txn))
            .is_none();
        let stalled = self.ltt.see_response(resp);
        if fresh_slot {
            tev!(
                self,
                now,
                resp.txn,
                resp.line,
                TraceKind::LttInsert {
                    occupancy: self.ltt.len() as u32,
                }
            );
        }
        if stalled {
            tev!(self, now, resp.txn, resp.line, TraceKind::LttStall);
        }
        // An own transaction deferring its decision may now be decidable.
        // Deciding BEFORE draining is essential: if this response was the
        // last unseen collider and our transaction wins, completing first
        // places the loser in the squash set while its response is still
        // buffered — so the very response that decided us carries the
        // squash mark back to its owner (Table 1's natural-serialization
        // squash). Draining first would forward it clean and let the
        // loser double-commit from memory.
        self.try_decide(now, resp.line, fx);
        self.drain_responses(now, resp.line, fx);
    }

    /// Forwards every response the LTT says is ready, combining outcomes
    /// and applying serialization marks.
    fn drain_responses(&mut self, now: Cycle, line: LineAddr, fx: &mut Vec<Effect>) {
        // Nothing in the drain loop changes the L2, so one probe (taken
        // lazily — most calls drain nothing) serves every response.
        let mut shared_copy = None;
        loop {
            let Some(txn) = self.ltt.entry(line).and_then(LttEntry::first_ready) else {
                return;
            };
            let Some(slot) = self.ltt.take(line, txn) else {
                // entry().ready() just reported this slot; its absence
                // means LTT state was corrupted mid-drain.
                self.protocol_error(now, txn, line, ErrorClass::LttSlotMissing);
                return;
            };
            tev!(
                self,
                now,
                txn,
                line,
                TraceKind::LttRemove {
                    occupancy: self.ltt.len() as u32,
                }
            );
            let Some(mut combined) = slot.response else {
                // ready() requires a buffered response; drop the slot and
                // surface the inconsistency rather than crash.
                self.protocol_error(now, txn, line, ErrorClass::LttResponseMissing);
                return;
            };
            // Combine the local snoop outcome.
            combined.outcomes += 1;
            if slot.snoop_done && slot.snoop_positive {
                combined.positive = true;
            }
            let shared =
                *shared_copy.get_or_insert_with(|| self.l2.state(line) == LineState::Shared);
            if shared {
                combined.sharers = true;
            }
            self.apply_marks(line, &mut combined);
            // SNID stamping by a starving node (§5.2.2).
            if self.starving == Some(line) && combined.requester() != self.node {
                combined.snid = Some(self.node);
            }
            fx.push(Effect::RingSend {
                msg: RingMsg::Response(combined),
                delay: 0,
            });
        }
    }

    /// Applies squash and Loser Hint marks to a combined response about
    /// to be forwarded.
    fn apply_marks(&mut self, line: LineAddr, resp: &mut ResponseMsg) {
        if resp.positive {
            return; // positives are never marked
        }
        // Squash set: transactions our completed transaction overlapped.
        if let Some(set) = self.squash_set.get_mut(&line) {
            if set.remove(&resp.txn) {
                resp.squashed = true;
                self.stats.squash_marks += 1;
                if set.is_empty() {
                    self.squash_set.remove(&line);
                }
                return;
            }
        }
        let keep_supplier_reads = self.cfg.reads_keep_supplier;
        let Some(tx) = self.outstanding.get_mut(line) else {
            return;
        };
        if tx.doomed {
            // A doomed attempt is the serialization point of in-flight
            // current data: a supplier has already demoted itself and
            // shipped us the line (the positive proves it), but nothing is
            // bound and memory may be stale until the transfer lands and
            // is flushed. Any response passing now combined its outcomes
            // after that demotion — a clean negative here could send a
            // third party to stale memory — so every passer retries.
            resp.squashed = true;
            self.stats.squash_marks += 1;
            return;
        }
        if tx.committed || tx.suppliership.is_some() {
            // We are the already-committed winner — either our own positive
            // response arrived, or the suppliership did (the transaction is
            // bound and cannot be undone, §5.3). Our win is serialized
            // before the passing transaction at the supplier, so the
            // passing loser must retry (the natural-serialization squash of
            // Tables 1/2) — but only when the win actually staled the
            // passing response's collected outcomes. A squash now dominates
            // even a downstream positive, so it must be precise:
            //  * our win is an invalidating write — every outcome collected
            //    before our completion is stale;
            //  * the passer is a write — it must come back to invalidate
            //    the copy our win installs (complete_txn defers
            //    must_invalidate to exactly this squash-retry);
            //  * our read win moved the suppliership to us — the passing
            //    response may have crossed the ring during the
            //    no-supplier window and combined a false clean negative.
            // A read win that leaves the designation in place (§5.5
            // keep-supplier) perturbs nothing a passing read relies on:
            // the still-designated supplier services it, so it rides
            // unmarked. Everything else — a bound supplier-class
            // transfer, a memory fill (installs Exclusive/MasterShared),
            // or an unbound base-protocol transfer — makes this node the
            // supplier and opens the moving-supplier window.
            let wins_supplier_state = match tx.suppliership {
                Some(s) => s.new_state.is_supplier(),
                None => tx.mem_waiting || !keep_supplier_reads,
            };
            if tx.kind.is_write() || resp.kind.is_write() || wins_supplier_state {
                resp.squashed = true;
                self.stats.squash_marks += 1;
            }
        } else if !tx.lost && tx.priority.beats(resp.priority) {
            // No winner known yet: pairwise winner selection; hint the
            // loser (the §4.4 Loser Hint). The paper introduces the bit
            // for Uncorq's response reorderings; we apply it in the Eager
            // family too, because with three or more overlapping
            // transactions (plus retries) the paper's symmetric-knowledge
            // argument breaks: a transaction issued in the gap after a
            // collider's messages passed is blind to it, and without the
            // hint both sides can commit to memory. The hint rides an
            // existing message and is ignored when the response later
            // combines positive, so it is always safe.
            resp.loser_hint = true;
            self.stats.loser_hint_marks += 1;
        }
    }

    fn own_response(&mut self, now: Cycle, resp: ResponseMsg, fx: &mut Vec<Effect>) {
        // SNID reservation on suppliership arrival at the new supplier.
        // A squashed positive fails over below, so no reservation: the
        // transfer is being declined, not accepted.
        if resp.positive && !resp.must_retry() {
            if let Some(snid) = resp.snid {
                if snid != self.node {
                    self.ltt
                        .reserve(resp.line, snid, now + self.cfg.reservation_cycles);
                }
            }
        }
        let Some(tx) = self.outstanding.get_mut(resp.line) else {
            return; // stale (transaction already failed over)
        };
        if tx.txn != resp.txn {
            return; // response of a previous, already-retried attempt
        }
        tev!(
            self,
            now,
            resp.txn,
            resp.line,
            TraceKind::ResponseConsume {
                positive: resp.positive,
                squashed: resp.squashed,
                loser_hint: resp.loser_hint,
                outcomes: resp.outcomes,
            }
        );
        tx.own_resp = Some(resp);
        tx.sharers_seen = resp.sharers;
        if resp.must_retry() || (!resp.positive && tx.lost) {
            if resp.positive && tx.suppliership.is_none() {
                // A squashed positive: the positive proves a supplier
                // already sent us a transfer that has not landed yet.
                // Failing over now would let the retry reissue and bind
                // stale memory while the only current copy is still on
                // the wire — park the abort until the transfer arrives
                // (`supplier_arrival` then flushes it and fails over).
                tx.doomed = true;
                return;
            }
            self.fail_txn(now, resp.line, fx);
            return;
        }
        if resp.positive {
            // An ownership-only suppliership is usable only while the
            // local copy still holds current data. If a colliding write
            // compromised the copy (`must_invalidate`/`copy_lost`),
            // completing now would commit the write against stale data —
            // fail instead; the retry invalidates and reissues as a
            // WriteMiss, fetching current data.
            if let Some(sup) = tx.suppliership {
                if !sup.with_data && (tx.must_invalidate || tx.copy_lost) {
                    self.fail_txn(now, resp.line, fx);
                    return;
                }
            }
            tx.committed = true;
            tev!(
                self,
                now,
                resp.txn,
                resp.line,
                TraceKind::WinnerSelected {
                    winner_node: resp.txn.node.0 as u32,
                    winner_serial: resp.txn.serial,
                }
            );
            if tx.suppliership.is_some() {
                self.complete_txn(now, resp.line, true, fx);
            }
            // else: wait for the suppliership already in flight.
            return;
        }
        // Clean negative: no supplier on chip.
        self.try_decide(now, resp.line, fx);
    }

    /// Acts on a clean negative own response once every known collider's
    /// response has been observed (Uncorq defers across the two §4.4
    /// reorderings; with no collision this fires immediately).
    fn try_decide(&mut self, now: Cycle, line: LineAddr, fx: &mut Vec<Effect>) {
        let Some(tx) = self.outstanding.get_mut(line) else {
            return;
        };
        let Some(own) = tx.own_resp else {
            return;
        };
        if own.positive || tx.committed || tx.mem_waiting {
            return;
        }
        if tx.lost {
            self.fail_txn(now, line, fx);
            return;
        }
        if !tx.all_collider_responses_seen() {
            return; // decision deferred
        }
        if !tx.beats_all_colliders() {
            self.fail_txn(now, line, fx);
            return;
        }
        // Winner (or no collision): commit.
        tx.committed = true;
        tev!(
            self,
            now,
            tx.txn,
            line,
            TraceKind::WinnerSelected {
                winner_node: tx.txn.node.0 as u32,
                winner_serial: tx.txn.serial,
            }
        );
        if tx.kind == TxnKind::WriteHit && !tx.copy_lost && self.l2.state(line).is_valid() {
            // Locally cached data + all remote copies invalidated by the
            // completed lap: the store completes without memory.
            self.complete_txn(now, line, true, fx);
            return;
        }
        if tx.kind == TxnKind::WriteHit {
            // Copy lost under us: degrade to a miss-style memory fill.
            tx.kind = TxnKind::WriteMiss;
        }
        tx.mem_waiting = true;
        tev!(
            self,
            now,
            tx.txn,
            line,
            TraceKind::MemFetch { prefetch: false }
        );
        fx.push(Effect::MemFetch {
            line,
            prefetch: false,
        });
    }

    fn mem_data(&mut self, now: Cycle, line: LineAddr, fx: &mut Vec<Effect>) {
        let Some(tx) = self.outstanding.get_mut(line) else {
            return; // prefetch completion for a line no longer waited on
        };
        if !tx.mem_waiting {
            return;
        }
        let state = match tx.kind {
            TxnKind::Read => {
                if tx.sharers_seen {
                    LineState::MasterShared
                } else {
                    LineState::Exclusive
                }
            }
            TxnKind::WriteMiss | TxnKind::WriteHit => LineState::Dirty,
        };
        let kind = tx.kind;
        let txn = tx.txn;
        let latency = now - tx.first_issued_at;
        self.install(now, line, state, fx);
        tev!(
            self,
            now,
            txn,
            line,
            TraceKind::Bound {
                latency,
                c2c: false,
            }
        );
        fx.push(Effect::Bound {
            line,
            kind,
            latency,
            c2c: false,
        });
        self.complete_txn(now, line, false, fx);
    }

    fn supplier_arrival(&mut self, now: Cycle, msg: SupplierMsg, fx: &mut Vec<Effect>) {
        let matched = self
            .outstanding
            .get_mut(msg.line)
            .filter(|tx| tx.txn == msg.txn && tx.suppliership.is_none());
        let Some(tx) = matched else {
            // Suppliership for a transaction that already failed over (a
            // squash consumed before the supply landed, or a previous
            // attempt's supply reaching its retry). The old supplier
            // demoted itself when it sent this message, so a with-data
            // transfer is now the only current copy in the system: flush
            // it to memory so the retry — and every other requester —
            // finds current data there. The line itself is not
            // installed; the retry re-acquires it through the protocol.
            if msg.with_data {
                tev!(self, now, msg.txn, msg.line, TraceKind::Writeback);
                fx.push(Effect::Writeback { line: msg.line });
            }
            return;
        };
        if tx.doomed {
            // The parked abort of a squashed positive: the in-flight
            // transfer has landed. Bind it so `fail_txn` flushes a
            // with-data payload to memory, then fail over.
            tx.suppliership = Some(msg);
            self.fail_txn(now, msg.line, fx);
            return;
        }
        // Same stale-upgrade guard as `own_response`: a committed
        // transaction must not complete an ownership-only transfer onto a
        // compromised copy.
        if !msg.with_data
            && (tx.must_invalidate || tx.copy_lost)
            && tx.own_resp.map(|r| r.positive).unwrap_or(false)
        {
            self.fail_txn(now, msg.line, fx);
            return;
        }
        tx.suppliership = Some(msg);
        let latency = now - tx.first_issued_at;
        tev!(
            self,
            now,
            msg.txn,
            msg.line,
            TraceKind::Bound { latency, c2c: true }
        );
        fx.push(Effect::Bound {
            line: msg.line,
            kind: tx.kind,
            latency,
            c2c: true,
        });
        if tx.own_resp.map(|r| r.positive).unwrap_or(false) {
            self.complete_txn(now, msg.line, true, fx);
        }
    }

    /// Installs a line into the L2, handling filter updates, dirty
    /// writebacks, and eviction of lines with outstanding WriteHits.
    fn install(&mut self, now: Cycle, line: LineAddr, state: LineState, fx: &mut Vec<Effect>) {
        let evicted = self.l2.insert(line, state);
        if let Some(f) = self.filter.as_mut() {
            f.insert(line);
        }
        if let Some(ev) = evicted {
            if let Some(f) = self.filter.as_mut() {
                f.remove(ev.addr);
            }
            fx.push(Effect::L1Invalidate { line: ev.addr });
            if ev.state.is_dirty() {
                // Evictions are not part of any transaction; serial 0 is
                // reserved (real transactions start at 1).
                tev!(
                    self,
                    now,
                    TxnId {
                        node: self.node,
                        serial: 0,
                    },
                    ev.addr,
                    TraceKind::Writeback
                );
                fx.push(Effect::Writeback { line: ev.addr });
            }
            if let Some(victim_tx) = self.outstanding.get_mut(ev.addr) {
                victim_tx.copy_lost = true;
            }
        }
    }

    fn complete_txn(&mut self, now: Cycle, line: LineAddr, c2c: bool, fx: &mut Vec<Effect>) {
        let Some(tx) = self.outstanding.release(line) else {
            return;
        };
        // Install the supplied state (memory fills install in mem_data).
        if let Some(sup) = tx.suppliership {
            self.install(now, line, sup.new_state, fx);
        } else if tx.kind == TxnKind::WriteHit && c2c {
            // Local completion of an invalidating write hit.
            self.l2.set_state(line, LineState::Dirty);
        }
        // Foreign transactions that overlapped ours and whose responses we
        // have not yet forwarded must be squashed when they pass (the
        // natural-serialization squash of Tables 1 and 2) — under the same
        // precision as `apply_marks`: only when our completion staled their
        // collected outcomes (we wrote, or took the suppliership), or the
        // collider is a write that must come back to invalidate the copy
        // we just installed.
        let win_stales_outcomes =
            tx.kind.is_write() || tx.suppliership.is_none_or(|s| s.new_state.is_supplier());
        let unserviced: BTreeSet<TxnId> = tx
            .colliders
            .iter()
            .filter(|(id, c)| {
                !c.response_seen || self.ltt.entry(line).and_then(|e| e.slot(**id)).is_some()
            })
            .filter(|(_, c)| win_stales_outcomes || c.kind.is_write())
            .map(|(id, _)| *id)
            .collect();
        if !unserviced.is_empty() {
            self.squash_set.entry(line).or_default().extend(unserviced);
        }
        self.retry_info.remove(&line);
        if self.starving == Some(line) {
            self.starving = None;
        }
        self.stats.completed += 1;
        if c2c {
            self.stats.completed_c2c += 1;
        }
        let latency = now - tx.first_issued_at;
        tev!(
            self,
            now,
            tx.txn,
            line,
            TraceKind::Complete {
                op: op_class(tx.kind),
                c2c,
                latency,
            }
        );
        fx.push(Effect::Complete {
            line,
            kind: tx.kind,
            c2c,
            retries: tx.retries,
            prefetch_issued: tx.prefetch_issued,
            latency,
        });
    }

    /// Records a recovered protocol-state error: counted in
    /// [`AgentStats::protocol_errors`] and surfaced as a
    /// [`TraceKind::ProtocolError`] event so `tracecheck`/`chaoscheck`
    /// flag the run. These paths replace `expect()`s that a duplicated
    /// or reordered delivery could otherwise have turned into a crash.
    fn protocol_error(&mut self, now: Cycle, txn: TxnId, line: LineAddr, error: ErrorClass) {
        self.stats.protocol_errors += 1;
        tev!(self, now, txn, line, TraceKind::ProtocolError { error });
    }

    fn fail_txn(&mut self, now: Cycle, line: LineAddr, fx: &mut Vec<Effect>) {
        let Some(tx) = self.outstanding.release(line) else {
            return;
        };
        self.stats.retries += 1;
        // A with-data suppliership already bound to the failing attempt
        // is the only current copy (the supplier demoted itself when it
        // sent it): flush it to memory before abandoning the attempt so
        // no write is lost and subsequent memory fills are current.
        if tx.suppliership.is_some_and(|s| s.with_data) {
            tev!(self, now, tx.txn, line, TraceKind::Writeback);
            fx.push(Effect::Writeback { line });
        }
        let mut kind = tx.kind;
        if tx.must_invalidate || tx.copy_lost {
            if self.l2.invalidate(line) {
                if let Some(f) = self.filter.as_mut() {
                    f.remove(line);
                }
                fx.push(Effect::L1Invalidate { line });
            }
            if kind == TxnKind::WriteHit {
                kind = TxnKind::WriteMiss;
            }
        }
        let count = tx.retries + 1;
        self.retry_info.insert(
            line,
            RetryInfo {
                kind,
                count,
                first_issued_at: tx.first_issued_at,
            },
        );
        if count >= self.cfg.starvation_threshold && self.starving.is_none() {
            self.starving = Some(line);
            self.stats.starvation_events += 1;
            tev!(
                self,
                now,
                tx.txn,
                line,
                TraceKind::Starvation {
                    snid: self.node.0 as u32,
                }
            );
        }
        // retry_backoff >= 1 is guaranteed by ProtocolConfig::validate.
        let jitter = self.rng.below(self.cfg.retry_backoff);
        let delay = self.cfg.retry_backoff + jitter;
        tev!(self, now, tx.txn, line, TraceKind::Retry { delay });
        fx.push(Effect::Retry { line, delay });
    }
}

impl ring_snapshot::Snap for AgentStats {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.issued);
        w.put(&self.completed);
        w.put(&self.completed_c2c);
        w.put(&self.retries);
        w.put(&self.collisions);
        w.put(&self.snoops);
        w.put(&self.snoops_skipped);
        w.put(&self.supplierships_sent);
        w.put(&self.squash_marks);
        w.put(&self.loser_hint_marks);
        w.put(&self.starvation_events);
        w.put(&self.prefetches_issued);
        w.put(&self.protocol_errors);
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(AgentStats {
            issued: r.get()?,
            completed: r.get()?,
            completed_c2c: r.get()?,
            retries: r.get()?,
            collisions: r.get()?,
            snoops: r.get()?,
            snoops_skipped: r.get()?,
            supplierships_sent: r.get()?,
            squash_marks: r.get()?,
            loser_hint_marks: r.get()?,
            starvation_events: r.get()?,
            prefetches_issued: r.get()?,
            protocol_errors: r.get()?,
        })
    }
}

impl ring_snapshot::Snap for AgentInput {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        match self {
            AgentInput::CoreRequest { line, kind } => {
                w.put(&0u8);
                w.put(line);
                w.put(kind);
            }
            AgentInput::RingArrival(m) => {
                w.put(&1u8);
                w.put(m);
            }
            AgentInput::DirectRequest(m) => {
                w.put(&2u8);
                w.put(m);
            }
            AgentInput::SnoopDone { txn, line } => {
                w.put(&3u8);
                w.put(txn);
                w.put(line);
            }
            AgentInput::Supplier(m) => {
                w.put(&4u8);
                w.put(m);
            }
            AgentInput::MemData { line } => {
                w.put(&5u8);
                w.put(line);
            }
            AgentInput::RetryNow { line } => {
                w.put(&6u8);
                w.put(line);
            }
        }
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(match r.get::<u8>()? {
            0 => AgentInput::CoreRequest {
                line: r.get()?,
                kind: r.get()?,
            },
            1 => AgentInput::RingArrival(r.get()?),
            2 => AgentInput::DirectRequest(r.get()?),
            3 => AgentInput::SnoopDone {
                txn: r.get()?,
                line: r.get()?,
            },
            4 => AgentInput::Supplier(r.get()?),
            5 => AgentInput::MemData { line: r.get()? },
            6 => AgentInput::RetryNow { line: r.get()? },
            other => return Err(r.malformed(format!("AgentInput tag {other}"))),
        })
    }
}

impl ring_snapshot::Snap for Collider {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.priority);
        w.put(&self.kind);
        w.put(&self.response_seen);
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(Collider {
            priority: r.get()?,
            kind: r.get()?,
            response_seen: r.get()?,
        })
    }
}

impl ring_snapshot::Snap for OwnTx {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.txn);
        w.put(&self.kind);
        w.put(&self.priority);
        w.put(&self.first_issued_at);
        w.put(&self.retries);
        w.put(&self.suppliership);
        w.put(&self.own_resp);
        w.put(&self.committed);
        w.put(&self.lost);
        w.put(&self.colliders);
        w.put(&self.must_invalidate);
        w.put(&self.doomed);
        w.put(&self.copy_lost);
        w.put(&self.sharers_seen);
        w.put(&self.prefetch_issued);
        w.put(&self.mem_waiting);
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(OwnTx {
            txn: r.get()?,
            kind: r.get()?,
            priority: r.get()?,
            first_issued_at: r.get()?,
            retries: r.get()?,
            suppliership: r.get()?,
            own_resp: r.get()?,
            committed: r.get()?,
            lost: r.get()?,
            colliders: r.get()?,
            must_invalidate: r.get()?,
            doomed: r.get()?,
            copy_lost: r.get()?,
            sharers_seen: r.get()?,
            prefetch_issued: r.get()?,
            mem_waiting: r.get()?,
        })
    }
}

impl ring_snapshot::Snap for RetryInfo {
    fn save(&self, w: &mut ring_snapshot::SnapWriter) {
        w.put(&self.kind);
        w.put(&self.count);
        w.put(&self.first_issued_at);
    }
    fn load(r: &mut ring_snapshot::SnapReader<'_>) -> Result<Self, ring_snapshot::SnapshotError> {
        Ok(RetryInfo {
            kind: r.get()?,
            count: r.get()?,
            first_issued_at: r.get()?,
        })
    }
}

impl RingAgent {
    /// Serializes the agent's complete protocol state: L2 array, LTT,
    /// presence filter, prefetch predictor, outstanding transactions,
    /// queues, retry/squash bookkeeping, the RNG mid-stream, and the
    /// statistics counters. The supplier table is not stored — every
    /// production agent consults the shared canonical table.
    pub fn snap_save(&self, w: &mut ring_snapshot::SnapWriter) {
        self.l2.snap_save(w);
        self.ltt.snap_save(w);
        match &self.filter {
            None => w.put(&false),
            Some(f) => {
                w.put(&true);
                f.snap_save(w);
            }
        }
        self.npp.snap_save(w);
        self.outstanding.snap_save_with(w, |w, tx| w.put(tx));
        w.put(&self.pending_core);
        w.put(&self.retry_info);
        w.put(&self.squash_set);
        w.put(&self.held_requests);
        w.put(&self.forward_on_snoop);
        w.put(&self.snoop_delay_budget);
        w.put(&self.starving);
        w.put(&self.serial);
        w.put(&self.rng.state());
        w.put(&self.stats);
        w.put(
            &self
                .trace_buf
                .iter()
                .map(|ev| ev.to_jsonl())
                .collect::<Vec<String>>(),
        );
    }

    /// Decodes snapshot state into this agent, which was built for the
    /// snapshotted node and configuration (a restore skeleton's agent):
    /// every piece of dynamic state is overwritten, while the node, the
    /// configuration, the supplier table and the tracing switch stay as
    /// built.
    ///
    /// # Errors
    ///
    /// `Malformed` when the snapshot's presence filter or prefetch
    /// predictor does not fit the configuration; decoding errors as they
    /// arise.
    pub fn snap_load(
        &mut self,
        r: &mut ring_snapshot::SnapReader<'_>,
    ) -> Result<(), ring_snapshot::SnapshotError> {
        let cfg = self.cfg;
        self.l2 = CacheArray::snap_load(r, *self.l2.config())?;
        self.ltt = Ltt::snap_load(r, cfg.ltt)?;
        let has_filter: bool = r.get()?;
        if has_filter != self.filter.is_some() {
            return Err(
                r.malformed("presence-filter presence does not match the protocol configuration")
            );
        }
        if has_filter {
            self.filter = Some(PresenceFilter::snap_load(r)?);
        }
        self.npp = NodePrefetchPredictor::snap_load(r)?;
        if self.npp.capacity() != cfg.npp_capacity() {
            return Err(r.malformed(format!(
                "prefetch predictor capacity {} does not match the configured {}",
                self.npp.capacity(),
                cfg.npp_capacity()
            )));
        }
        self.outstanding = Mshr::snap_load_with(r, |r| r.get::<OwnTx>())?;
        self.pending_core = r.get()?;
        self.retry_info = r.get()?;
        self.squash_set = r.get()?;
        self.held_requests = r.get()?;
        self.forward_on_snoop = r.get()?;
        self.snoop_delay_budget = r.get()?;
        self.starving = r.get()?;
        self.serial = r.get()?;
        self.rng = DetRng::from_state(r.get()?);
        self.stats = r.get()?;
        let trace: Vec<String> = r.get()?;
        self.trace_buf = trace
            .iter()
            .map(|line| {
                TraceEvent::from_jsonl(line).map_err(|e| r.malformed(format!("trace event: {e}")))
            })
            .collect::<Result<Vec<TraceEvent>, _>>()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RingMsg;

    const LINE: u64 = 0x40;

    fn line() -> LineAddr {
        LineAddr::new(LINE)
    }

    fn agent(kind: ProtocolKind) -> RingAgent {
        RingAgent::new(
            NodeId(3),
            ProtocolConfig::paper(kind),
            CacheConfig::l2_512k(),
            DetRng::seed(9),
        )
    }

    fn foreign_req(node: usize, serial: u64, kind: TxnKind) -> RequestMsg {
        RequestMsg {
            txn: TxnId {
                node: NodeId(node),
                serial,
            },
            line: line(),
            kind,
            priority: Priority::new(kind, 1, NodeId(node)),
        }
    }

    fn own_request(fx: &[Effect]) -> RequestMsg {
        fx.iter()
            .find_map(|e| match e {
                Effect::RingSend {
                    msg: RingMsg::Request(r),
                    ..
                } => Some(*r),
                Effect::MulticastRequest(r) => Some(*r),
                _ => None,
            })
            .expect("request issued")
    }

    #[test]
    fn read_issue_effects_eager_vs_uncorq() {
        // Eager: R and r- both ride the ring.
        let mut e = agent(ProtocolKind::Eager);
        let fx = e.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::Read,
            },
        );
        assert!(fx.iter().any(|x| matches!(
            x,
            Effect::RingSend {
                msg: RingMsg::Request(_),
                ..
            }
        )));
        assert!(!fx.iter().any(|x| matches!(x, Effect::MulticastRequest(_))));
        // Uncorq: the read R is multicast.
        let mut u = agent(ProtocolKind::Uncorq);
        let fx = u.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::Read,
            },
        );
        assert!(fx.iter().any(|x| matches!(x, Effect::MulticastRequest(_))));
        // Both put the initial r- on the ring.
        assert!(fx.iter().any(|x| matches!(
            x,
            Effect::RingSend { msg: RingMsg::Response(r), .. } if !r.positive
        )));
    }

    #[test]
    fn uncorq_write_requests_still_use_the_ring() {
        // Paper §6: the improvement applies to reads only.
        let mut u = agent(ProtocolKind::Uncorq);
        u.install_line(line(), LineState::Shared);
        let fx = u.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::WriteHit,
            },
        );
        assert!(!fx.iter().any(|x| matches!(x, Effect::MulticastRequest(_))));
        assert!(fx.iter().any(|x| matches!(
            x,
            Effect::RingSend { msg: RingMsg::Request(r), .. } if r.kind == TxnKind::WriteHit
        )));
    }

    #[test]
    fn supplier_snoop_ships_data_and_demotes() {
        let mut a = agent(ProtocolKind::Eager);
        a.install_line(line(), LineState::Exclusive);
        let r = foreign_req(1, 1, TxnKind::Read);
        a.handle(0, AgentInput::RingArrival(RingMsg::Request(r)));
        let fx = a.handle(
            7,
            AgentInput::SnoopDone {
                txn: r.txn,
                line: line(),
            },
        );
        let sup = fx
            .iter()
            .find_map(|e| match e {
                Effect::SendSupplier { to, msg } => Some((*to, *msg)),
                _ => None,
            })
            .expect("suppliership sent");
        assert_eq!(sup.0, NodeId(1));
        assert!(sup.1.with_data);
        assert_eq!(sup.1.new_state, LineState::MasterShared);
        assert_eq!(a.l2().state(line()), LineState::Shared);
        assert_eq!(a.stats().supplierships_sent, 1);
    }

    #[test]
    fn write_snoop_invalidates_and_notifies_l1() {
        let mut a = agent(ProtocolKind::Eager);
        a.install_line(line(), LineState::Shared);
        let r = foreign_req(1, 1, TxnKind::WriteMiss);
        a.handle(0, AgentInput::RingArrival(RingMsg::Request(r)));
        let fx = a.handle(
            7,
            AgentInput::SnoopDone {
                txn: r.txn,
                line: line(),
            },
        );
        assert_eq!(a.l2().state(line()), LineState::Invalid);
        assert!(fx.iter().any(|e| matches!(e, Effect::L1Invalidate { .. })));
        assert!(!fx.iter().any(|e| matches!(e, Effect::SendSupplier { .. })));
    }

    #[test]
    fn prefetch_issued_only_for_unseen_reads() {
        let mut cfg = ProtocolConfig::uncorq_pref();
        cfg.npp_entries = 16;
        let mut a = RingAgent::new(NodeId(3), cfg, CacheConfig::l2_512k(), DetRng::seed(9));
        // Unseen address: prefetch fires.
        let fx = a.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::Read,
            },
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::MemFetch { prefetch: true, .. })));
        // An address observed in ring traffic: no prefetch.
        let other = LineAddr::new(0x80);
        let r = RequestMsg {
            txn: TxnId {
                node: NodeId(1),
                serial: 1,
            },
            line: other,
            kind: TxnKind::Read,
            priority: Priority::new(TxnKind::Read, 0, NodeId(1)),
        };
        a.handle(5, AgentInput::DirectRequest(r));
        let fx = a.handle(
            10,
            AgentInput::CoreRequest {
                line: other,
                kind: TxnKind::Read,
            },
        );
        assert!(!fx
            .iter()
            .any(|e| matches!(e, Effect::MemFetch { prefetch: true, .. })));
        assert_eq!(a.stats().prefetches_issued, 1);
    }

    #[test]
    fn restore_refuses_a_prefetch_predictor_of_another_capacity() {
        let mut cfg = ProtocolConfig::uncorq_pref();
        cfg.npp_entries = 16;
        let mut a = RingAgent::new(NodeId(3), cfg, CacheConfig::l2_512k(), DetRng::seed(9));
        let mut warm = NodePrefetchPredictor::new(16);
        warm.observe(line());
        a.warm_prefetch_predictor(&warm);
        let mut w = ring_snapshot::SnapWriter::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        let load = |cfg: ProtocolConfig| {
            let mut r = ring_snapshot::SnapReader::new("agents", &bytes);
            let mut b = RingAgent::new(NodeId(3), cfg, CacheConfig::l2_512k(), DetRng::seed(0));
            b.snap_load(&mut r).map(|()| b)
        };
        let back = load(cfg).expect("the configured capacity loads");
        assert_eq!(back.prefetch_predictor().len(), 1);
        let mut larger = cfg;
        larger.npp_entries = 32;
        let mut off = cfg;
        off.prefetch = false;
        for other in [larger, off] {
            assert!(matches!(
                load(other),
                Err(ring_snapshot::SnapshotError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn filter_negative_skips_snoop_superset_con() {
        let mut a = agent(ProtocolKind::SupersetCon);
        // Empty cache -> filter negative -> no StartSnoop, R forwarded
        // after the filter latency, and the snoop is logged as skipped.
        let r = foreign_req(1, 1, TxnKind::Read);
        let fx = a.handle(0, AgentInput::RingArrival(RingMsg::Request(r)));
        assert!(!fx.iter().any(|e| matches!(e, Effect::StartSnoop { .. })));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::RingSend { msg: RingMsg::Request(_), delay } if *delay == a.config().filter_latency
        )));
        assert_eq!(a.stats().snoops_skipped, 1);
    }

    #[test]
    fn filter_positive_stalls_request_behind_snoop_superset_con() {
        let mut a = agent(ProtocolKind::SupersetCon);
        a.install_line(line(), LineState::Exclusive);
        let r = foreign_req(1, 1, TxnKind::Read);
        let fx = a.handle(0, AgentInput::RingArrival(RingMsg::Request(r)));
        // Not forwarded yet: stalled behind the snoop.
        assert!(!fx.iter().any(|e| matches!(
            e,
            Effect::RingSend {
                msg: RingMsg::Request(_),
                ..
            }
        )));
        let delay = fx
            .iter()
            .find_map(|e| match e {
                Effect::StartSnoop { delay, .. } => Some(*delay),
                _ => None,
            })
            .expect("snoop scheduled");
        assert_eq!(delay, a.config().filter_latency + a.config().snoop_latency);
        // The request forwards when the snoop completes.
        let fx = a.handle(
            delay,
            AgentInput::SnoopDone {
                txn: r.txn,
                line: line(),
            },
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::RingSend {
                msg: RingMsg::Request(_),
                ..
            }
        )));
    }

    #[test]
    fn superset_agg_forwards_and_snoops_in_parallel() {
        let mut a = agent(ProtocolKind::SupersetAgg);
        a.install_line(line(), LineState::Exclusive);
        let r = foreign_req(1, 1, TxnKind::Read);
        let fx = a.handle(0, AgentInput::RingArrival(RingMsg::Request(r)));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::RingSend { msg: RingMsg::Request(_), delay } if *delay == a.config().filter_latency
        )));
        assert!(fx.iter().any(|e| matches!(e, Effect::StartSnoop { .. })));
    }

    #[test]
    fn snid_reservation_defers_other_suppliership() {
        let mut a = agent(ProtocolKind::Uncorq);
        a.install_line(line(), LineState::Shared);
        // A's own WriteHit wins; its returning r+ carries an SNID.
        let fx = a.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::WriteHit,
            },
        );
        let own = own_request(&fx);
        a.handle(
            10,
            AgentInput::Supplier(SupplierMsg {
                txn: own.txn,
                line: line(),
                with_data: false,
                new_state: LineState::Dirty,
            }),
        );
        let mut rplus = ResponseMsg::initial(&own);
        rplus.positive = true;
        rplus.snid = Some(NodeId(9)); // node 9 is starving
        a.handle(600, AgentInput::RingArrival(RingMsg::Response(rplus)));
        assert_eq!(a.ltt().reservation(line()).map(|(n, _)| n), Some(NodeId(9)));
        // A request from a non-starving node is deferred...
        let other = foreign_req(1, 1, TxnKind::Read);
        a.handle(610, AgentInput::DirectRequest(other));
        let fx = a.handle(
            617,
            AgentInput::SnoopDone {
                txn: other.txn,
                line: line(),
            },
        );
        assert!(fx.iter().any(|e| matches!(e, Effect::DelaySnoop { .. })));
        assert!(!fx.iter().any(|e| matches!(e, Effect::SendSupplier { .. })));
        // ...while the starving node is serviced immediately.
        let starved = foreign_req(9, 1, TxnKind::Read);
        a.handle(620, AgentInput::DirectRequest(starved));
        let fx = a.handle(
            627,
            AgentInput::SnoopDone {
                txn: starved.txn,
                line: line(),
            },
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::SendSupplier { to, .. } if *to == NodeId(9)
        )));
        assert_eq!(a.ltt().reservation(line()), None, "reservation consumed");
    }

    #[test]
    fn starving_node_stamps_snid_on_passing_responses() {
        let mut a = agent(ProtocolKind::Uncorq);
        // Drive the agent into starvation via repeated squashes: issue
        // once, then squash each reissued attempt.
        let mut retries = 0;
        let mut fx = a.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::Read,
            },
        );
        for i in 1..=5u64 {
            let own = own_request(&fx);
            let mut squashed = ResponseMsg::initial(&own);
            squashed.squashed = true;
            let out = a.handle(
                i * 1000 + 500,
                AgentInput::RingArrival(RingMsg::Response(squashed)),
            );
            if out.iter().any(|e| matches!(e, Effect::Retry { .. })) {
                retries += 1;
            }
            fx = a.handle(i * 1000 + 600, AgentInput::RetryNow { line: line() });
        }
        assert!(retries >= 4);
        assert!(
            a.stats().starvation_events >= 1,
            "agent must declare starvation"
        );
        // A foreign response passing through now gets stamped.
        let foreign = foreign_req(1, 7, TxnKind::Read);
        a.handle(10_000, AgentInput::DirectRequest(foreign));
        a.handle(
            10_007,
            AgentInput::SnoopDone {
                txn: foreign.txn,
                line: line(),
            },
        );
        let fx = a.handle(
            10_010,
            AgentInput::RingArrival(RingMsg::Response(ResponseMsg::initial(&foreign))),
        );
        let stamped = fx
            .iter()
            .find_map(|e| match e {
                Effect::RingSend {
                    msg: RingMsg::Response(r),
                    ..
                } => Some(*r),
                _ => None,
            })
            .expect("response forwarded");
        assert_eq!(stamped.snid, Some(NodeId(3)), "starving node stamps its id");
    }

    #[test]
    fn retry_backoff_grows_from_config() {
        let mut a = agent(ProtocolKind::Eager);
        let fx = a.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::Read,
            },
        );
        let own = own_request(&fx);
        let mut squashed = ResponseMsg::initial(&own);
        squashed.squashed = true;
        let fx = a.handle(500, AgentInput::RingArrival(RingMsg::Response(squashed)));
        let delay = fx
            .iter()
            .find_map(|e| match e {
                Effect::Retry { delay, .. } => Some(*delay),
                _ => None,
            })
            .expect("retry scheduled");
        let base = a.config().retry_backoff;
        assert!(delay >= base && delay < base * 2);
    }

    #[test]
    fn mshr_full_defers_core_requests() {
        let mut cfg = ProtocolConfig::paper(ProtocolKind::Eager);
        cfg.max_outstanding = 1;
        let mut a = RingAgent::new(NodeId(3), cfg, CacheConfig::l2_512k(), DetRng::seed(9));
        a.handle(
            0,
            AgentInput::CoreRequest {
                line: line(),
                kind: TxnKind::Read,
            },
        );
        let other = LineAddr::new(0x80);
        let fx = a.handle(
            1,
            AgentInput::CoreRequest {
                line: other,
                kind: TxnKind::Read,
            },
        );
        assert!(
            !fx.iter().any(|e| matches!(
                e,
                Effect::RingSend {
                    msg: RingMsg::Request(_),
                    ..
                }
            )),
            "second request must wait for an MSHR"
        );
        assert!(a.is_line_engaged(other), "deferred line counts as engaged");
    }

    #[test]
    fn sharers_flag_set_when_forwarding_past_shared_copy() {
        let mut a = agent(ProtocolKind::Eager);
        a.install_line(line(), LineState::Shared);
        let r = foreign_req(1, 1, TxnKind::Read);
        a.handle(0, AgentInput::RingArrival(RingMsg::Request(r)));
        a.handle(
            7,
            AgentInput::SnoopDone {
                txn: r.txn,
                line: line(),
            },
        );
        let fx = a.handle(
            10,
            AgentInput::RingArrival(RingMsg::Response(ResponseMsg::initial(&r))),
        );
        let fwd = fx
            .iter()
            .find_map(|e| match e {
                Effect::RingSend {
                    msg: RingMsg::Response(resp),
                    ..
                } => Some(*resp),
                _ => None,
            })
            .expect("forwarded");
        assert!(fwd.sharers, "Shared copy must set the sharers flag");
        assert!(!fwd.positive, "Shared is not a supplier");
        assert_eq!(fwd.outcomes, 1);
    }

    #[test]
    fn memory_fill_state_depends_on_sharers() {
        for (sharers, expect) in [
            (false, LineState::Exclusive),
            (true, LineState::MasterShared),
        ] {
            let mut a = agent(ProtocolKind::Eager);
            let fx = a.handle(
                0,
                AgentInput::CoreRequest {
                    line: line(),
                    kind: TxnKind::Read,
                },
            );
            let own = own_request(&fx);
            let mut rminus = ResponseMsg::initial(&own);
            rminus.sharers = sharers;
            a.handle(600, AgentInput::RingArrival(RingMsg::Response(rminus)));
            let fx = a.handle(830, AgentInput::MemData { line: line() });
            assert!(fx
                .iter()
                .any(|e| matches!(e, Effect::Complete { c2c: false, .. })));
            assert_eq!(a.l2().state(line()), expect);
        }
    }
}
