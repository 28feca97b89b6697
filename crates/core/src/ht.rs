//! A cache-coherent HyperTransport-style broadcast baseline (paper §7.4).
//!
//! In HT, every address has a *serialization point* (home node) in the
//! network. A miss sends a request to the home; the home broadcasts probes
//! to all other nodes; every probed node responds *directly to the
//! requester* (responses are not combined); the supplier ships the data.
//! The home also fetches the line from memory speculatively, which makes
//! memory-to-cache transfers faster than in ring protocols — at the price
//! of one extra "node hop" on cache-to-cache transfers and much more
//! response traffic (Figure 11).
//!
//! Collisions are resolved by construction: the home activates one
//! transaction per line at a time and queues the rest, releasing the next
//! when the requester's completion (`Done`) message arrives.

use std::collections::{BTreeMap, VecDeque};

use ring_cache::{CacheArray, CacheConfig, LineAddr, LineState, Mshr};
use ring_noc::NodeId;
use ring_sim::Cycle;
use ring_trace::{EventKind as TraceKind, OpClass, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::txn::TxnId;

fn ht_op(write: bool) -> OpClass {
    if write {
        OpClass::WriteMiss
    } else {
        OpClass::Read
    }
}

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

/// A request from a missing node to the line's home.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtReq {
    /// Transaction identity (requester + serial).
    pub txn: TxnId,
    /// Line requested.
    pub line: LineAddr,
    /// Whether the transaction is a write (needs exclusive ownership).
    pub write: bool,
}

/// A probe broadcast by the home to every node except the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtProbe {
    /// The transaction being serviced.
    pub req: HtReq,
}

/// A probed node's response, sent directly to the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtResp {
    /// The transaction.
    pub txn: TxnId,
    /// Line concerned.
    pub line: LineAddr,
    /// Whether this node supplied the data (a data message follows).
    pub supplied: bool,
    /// Whether this node keeps a Shared copy.
    pub sharer: bool,
}

/// A data message to the requester, either from the supplier cache or
/// from the home's speculative memory fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtData {
    /// The transaction.
    pub txn: TxnId,
    /// Line carried.
    pub line: LineAddr,
    /// `true` when the data came from memory via the home.
    pub from_memory: bool,
    /// State the requester installs (supplier-sourced data only; memory
    /// fills decide from sharer responses).
    pub new_state: LineState,
}

/// The requester's completion notification releasing the home's
/// serialization queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtDone {
    /// The completed transaction.
    pub txn: TxnId,
    /// Its line.
    pub line: LineAddr,
}

/// Inputs delivered to an [`HtAgent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HtInput {
    /// The local core needs a transaction.
    CoreRequest {
        /// Line to transact on.
        line: LineAddr,
        /// Whether it is a store.
        write: bool,
    },
    /// A request arrived at this node in its role as home.
    Request(HtReq),
    /// A probe arrived.
    Probe(HtProbe),
    /// A probe's snoop completed locally.
    ProbeSnoopDone(HtProbe),
    /// A response arrived at this node in its role as requester.
    Response(HtResp),
    /// A data message arrived at the requester.
    Data(HtData),
    /// The home's speculative memory fetch completed.
    MemData {
        /// Line fetched.
        line: LineAddr,
    },
    /// A completion notification arrived at the home.
    Done(HtDone),
}

/// Effects an [`HtAgent`] asks the machine to carry out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HtEffect {
    /// Send a request to the line's home node.
    SendRequest {
        /// Home node.
        home: NodeId,
        /// The request.
        req: HtReq,
    },
    /// Broadcast a probe to every node except the requester.
    Broadcast(HtProbe),
    /// Schedule `ProbeSnoopDone` after `delay` cycles.
    StartSnoop {
        /// The probe to finish.
        probe: HtProbe,
        /// Snoop latency.
        delay: Cycle,
    },
    /// Send a response to the requester.
    SendResponse {
        /// Requester node.
        to: NodeId,
        /// The response.
        resp: HtResp,
    },
    /// Send a data message to the requester.
    SendData {
        /// Requester node.
        to: NodeId,
        /// The data.
        data: HtData,
    },
    /// Fetch the line from memory (home's speculative fetch).
    MemFetch {
        /// Line to fetch.
        line: LineAddr,
    },
    /// Notify the home that the transaction completed.
    SendDone {
        /// Home node.
        home: NodeId,
        /// The notification.
        done: HtDone,
    },
    /// Data became usable at the requester.
    Bound {
        /// Line bound.
        line: LineAddr,
        /// Store?
        write: bool,
        /// Cycles from issue to binding.
        latency: Cycle,
        /// Supplied by a cache?
        c2c: bool,
    },
    /// The transaction completed (all responses collected).
    Complete {
        /// Line completed.
        line: LineAddr,
        /// Store?
        write: bool,
        /// Supplied by a cache?
        c2c: bool,
    },
    /// The node's L2 lost this line; the machine must invalidate the
    /// core's L1 copy to preserve inclusion.
    L1Invalidate {
        /// Line to drop from the L1.
        line: LineAddr,
    },
}

/// HT statistics counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HtStats {
    /// Transactions issued.
    pub issued: u64,
    /// Transactions completed.
    pub completed: u64,
    /// Cache-to-cache completions.
    pub completed_c2c: u64,
    /// Probes snooped.
    pub snoops: u64,
    /// Requests that waited in a home serialization queue.
    pub serialized: u64,
    /// Speculative memory fetches issued by the home role.
    pub mem_fetches: u64,
}

/// One node of the HT machine: requester, snooper and home in one.
#[derive(Debug, Clone)]
pub struct HtAgent {
    node: NodeId,
    nodes: usize,
    snoop_latency: Cycle,
    l2: CacheArray,
    outstanding: Mshr<HtTx>,
    /// Core requests deferred on a full MSHR or a same-line transaction.
    pending: Vec<(LineAddr, bool)>,
    /// Home role: per-line serialization state.
    home_lines: BTreeMap<LineAddr, HomeLine>,
    serial: u64,
    stats: HtStats,
    trace_on: bool,
    trace_buf: Vec<TraceEvent>,
}

#[derive(Debug, Clone)]
struct HtTx {
    txn: TxnId,
    write: bool,
    issued_at: Cycle,
    responses: u32,
    supplied: bool,
    sharers: bool,
    data_at: Option<Cycle>,
    data_c2c: bool,
    mem_data: Option<HtData>,
    bound_emitted: bool,
}

#[derive(Debug, Clone, Default)]
struct HomeLine {
    active: Option<HtReq>,
    /// Memory data fetched for the active transaction, pending forward.
    mem_ready: bool,
    waiting: VecDeque<HtReq>,
}

impl HtAgent {
    /// Creates the HT agent for `node` in a machine of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn new(node: NodeId, nodes: usize, snoop_latency: Cycle, l2_cfg: CacheConfig) -> Self {
        assert!(nodes >= 2, "HT machine needs at least two nodes");
        HtAgent {
            node,
            nodes,
            snoop_latency,
            l2: CacheArray::new(l2_cfg),
            outstanding: Mshr::new(32),
            pending: Vec::new(),
            home_lines: BTreeMap::new(),
            serial: 0,
            stats: HtStats::default(),
            trace_on: false,
            trace_buf: Vec::new(),
        }
    }

    /// Switches structured event tracing on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_on = on;
    }

    /// Takes the events accumulated since the last drain.
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace_buf)
    }

    /// The home (serialization point) of a line: address-interleaved
    /// across all nodes.
    pub fn home_of(line: LineAddr, nodes: usize) -> NodeId {
        NodeId((line.raw() as usize) % nodes)
    }

    /// This agent's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Read access to the node's L2.
    pub fn l2(&self) -> &CacheArray {
        &self.l2
    }

    /// The agent's counters.
    pub fn stats(&self) -> &HtStats {
        &self.stats
    }

    /// Whether a transaction for `line` is outstanding here.
    pub fn has_outstanding(&self, line: LineAddr) -> bool {
        self.outstanding.contains(line)
    }

    /// Whether `line` has an outstanding or deferred transaction here.
    pub fn is_line_engaged(&self, line: LineAddr) -> bool {
        self.outstanding.contains(line) || self.pending.iter().any(|&(l, _)| l == line)
    }

    /// Classifies a store: `None` if it can proceed silently.
    pub fn classify_store(&self, line: LineAddr) -> Option<bool> {
        if self.l2.state(line).can_write_silently() {
            None
        } else {
            Some(true)
        }
    }

    /// Directly installs a line (warm-up).
    pub fn install_line(&mut self, line: LineAddr, state: LineState) {
        self.l2.insert(line, state);
    }

    /// Own transactions outstanding (MSHR entries in use).
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Core requests deferred on a full MSHR or a same-line transaction.
    pub fn pending_core_len(&self) -> usize {
        self.pending.len()
    }

    /// Handles one input at cycle `now` (allocating wrapper around
    /// [`HtAgent::handle_into`]).
    pub fn handle(&mut self, now: Cycle, input: HtInput) -> Vec<HtEffect> {
        let mut fx = Vec::new();
        self.handle_into(now, input, &mut fx);
        fx
    }

    /// Handles one input at cycle `now`, appending its effects to `fx`
    /// (the machine reuses one buffer for the whole run).
    pub fn handle_into(&mut self, now: Cycle, input: HtInput, fx: &mut Vec<HtEffect>) {
        match input {
            HtInput::CoreRequest { line, write } => self.core_request(now, line, write, fx),
            HtInput::Request(req) => self.home_request(now, req, fx),
            HtInput::Probe(p) => fx.push(HtEffect::StartSnoop {
                probe: p,
                delay: self.snoop_latency,
            }),
            HtInput::ProbeSnoopDone(p) => self.probe_snoop(now, p, fx),
            HtInput::Response(r) => self.response(now, r, fx),
            HtInput::Data(d) => self.data(now, d, fx),
            HtInput::MemData { line } => self.home_mem_data(line, fx),
            HtInput::Done(d) => self.home_done(now, d, fx),
        }
    }

    fn core_request(&mut self, now: Cycle, line: LineAddr, write: bool, fx: &mut Vec<HtEffect>) {
        if self.outstanding.contains(line) || self.outstanding.is_full() {
            if !self.pending.iter().any(|&(l, _)| l == line) {
                self.pending.push((line, write));
            }
            return;
        }
        self.serial += 1;
        let txn = TxnId {
            node: self.node,
            serial: self.serial,
        };
        let alloc = self.outstanding.allocate(
            line,
            HtTx {
                txn,
                write,
                issued_at: now,
                responses: 0,
                supplied: false,
                sharers: false,
                data_at: None,
                data_c2c: false,
                mem_data: None,
                bound_emitted: false,
            },
        );
        if alloc.is_err() {
            // The caller vetted capacity and uniqueness, so a failure here
            // means a duplicated input re-entered issue; drop the request
            // rather than crash.
            return;
        }
        self.stats.issued += 1;
        tev!(
            self,
            now,
            txn,
            line,
            TraceKind::RequestIssue {
                op: ht_op(write),
                retry: false,
            }
        );
        fx.push(HtEffect::SendRequest {
            home: Self::home_of(line, self.nodes),
            req: HtReq { txn, line, write },
        });
    }

    fn home_request(&mut self, now: Cycle, req: HtReq, fx: &mut Vec<HtEffect>) {
        debug_assert_eq!(Self::home_of(req.line, self.nodes), self.node);
        let entry = self.home_lines.entry(req.line).or_default();
        if entry.active.is_some() {
            self.stats.serialized += 1;
            entry.waiting.push_back(req);
        } else {
            entry.active = Some(req);
            entry.mem_ready = false;
            fx.push(HtEffect::Broadcast(HtProbe { req }));
            fx.push(HtEffect::MemFetch { line: req.line });
            self.stats.mem_fetches += 1;
            tev!(
                self,
                now,
                req.txn,
                req.line,
                TraceKind::MemFetch { prefetch: false }
            );
        }
    }

    fn probe_snoop(&mut self, now: Cycle, p: HtProbe, fx: &mut Vec<HtEffect>) {
        self.stats.snoops += 1;
        let line = p.req.line;
        let requester = p.req.txn.node;
        let state = self.l2.state(line);
        // A node with its own (queued) transaction outstanding still
        // answers from its current stable state; the home's serialization
        // guarantees the states are not in transition here.
        let supplies = state.is_supplier();
        tev!(
            self,
            now,
            p.req.txn,
            line,
            TraceKind::SnoopPerform { positive: supplies }
        );
        if supplies {
            tev!(
                self,
                now,
                p.req.txn,
                line,
                TraceKind::Suppliership {
                    to: requester.0 as u32,
                    with_data: true,
                }
            );
        }
        let sharer;
        if supplies {
            let new_state = if p.req.write {
                LineState::Dirty
            } else {
                state.read_requester_state()
            };
            if p.req.write {
                self.l2.invalidate(line);
                fx.push(HtEffect::L1Invalidate { line });
                sharer = false;
            } else {
                self.l2.set_state(line, state.read_supplier_demotion());
                sharer = true;
            }
            fx.push(HtEffect::SendData {
                to: requester,
                data: HtData {
                    txn: p.req.txn,
                    line,
                    from_memory: false,
                    new_state,
                },
            });
        } else if state.is_valid() {
            if p.req.write {
                self.l2.invalidate(line);
                fx.push(HtEffect::L1Invalidate { line });
                sharer = false;
            } else {
                sharer = true;
            }
        } else {
            sharer = false;
        }
        fx.push(HtEffect::SendResponse {
            to: requester,
            resp: HtResp {
                txn: p.req.txn,
                line,
                supplied: supplies,
                sharer,
            },
        });
    }

    fn response(&mut self, now: Cycle, r: HtResp, fx: &mut Vec<HtEffect>) {
        let Some(tx) = self.outstanding.get_mut(r.line) else {
            return;
        };
        if tx.txn != r.txn {
            return; // stale
        }
        tx.responses += 1;
        tx.supplied |= r.supplied;
        tx.sharers |= r.sharer;
        self.try_complete(now, r.line, fx);
    }

    fn data(&mut self, now: Cycle, d: HtData, fx: &mut Vec<HtEffect>) {
        let Some(tx) = self.outstanding.get_mut(d.line) else {
            return;
        };
        if tx.txn != d.txn {
            return;
        }
        if d.from_memory {
            tx.mem_data = Some(d);
        } else {
            tx.data_at = Some(now);
            tx.data_c2c = true;
            let (line, write, latency, txn) = (d.line, tx.write, now - tx.issued_at, tx.txn);
            let emitted = std::mem::replace(&mut tx.bound_emitted, true);
            // Install the supplied state immediately; completion (for
            // write ordering) still waits for all responses.
            if let Some(ev) = self.l2.insert(d.line, d.new_state) {
                fx.push(HtEffect::L1Invalidate { line: ev.addr });
            }
            if !emitted {
                tev!(
                    self,
                    now,
                    txn,
                    line,
                    TraceKind::Bound { latency, c2c: true }
                );
                fx.push(HtEffect::Bound {
                    line,
                    write,
                    latency,
                    c2c: true,
                });
            }
        }
        self.try_complete(now, d.line, fx);
    }

    fn try_complete(&mut self, now: Cycle, line: LineAddr, fx: &mut Vec<HtEffect>) {
        let expected = (self.nodes - 1) as u32;
        let Some(tx) = self.outstanding.get_mut(line) else {
            return;
        };
        if tx.responses < expected {
            return;
        }
        // All responses in. Cache-supplied data?
        if tx.supplied && tx.data_at.is_none() {
            return; // data still in flight
        }
        if !tx.supplied {
            // Memory fill: wait for the home's speculative data.
            let Some(md) = tx.mem_data else {
                return;
            };
            let state = if tx.write {
                LineState::Dirty
            } else if tx.sharers {
                LineState::MasterShared
            } else {
                LineState::Exclusive
            };
            let (write, latency, txn) = (tx.write, now - tx.issued_at, tx.txn);
            let emitted = std::mem::replace(&mut tx.bound_emitted, true);
            if let Some(ev) = self.l2.insert(md.line, state) {
                fx.push(HtEffect::L1Invalidate { line: ev.addr });
            }
            if !emitted {
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
                fx.push(HtEffect::Bound {
                    line,
                    write,
                    latency,
                    c2c: false,
                });
            }
        }
        // The entry was just inspected via get_mut, so release can only
        // fail if the table was corrupted mid-call; bail out rather than
        // crash.
        let Some(tx) = self.outstanding.release(line) else {
            return;
        };
        self.stats.completed += 1;
        if tx.data_c2c {
            self.stats.completed_c2c += 1;
        }
        tev!(
            self,
            now,
            tx.txn,
            line,
            TraceKind::Complete {
                op: ht_op(tx.write),
                c2c: tx.data_c2c,
                latency: now - tx.issued_at,
            }
        );
        fx.push(HtEffect::Complete {
            line,
            write: tx.write,
            c2c: tx.data_c2c,
        });
        fx.push(HtEffect::SendDone {
            home: Self::home_of(line, self.nodes),
            done: HtDone { txn: tx.txn, line },
        });
        // Re-issue any deferred core requests that can now proceed.
        let deferred = std::mem::take(&mut self.pending);
        for (l, w) in deferred {
            self.core_request(now, l, w, fx);
        }
    }

    fn home_mem_data(&mut self, line: LineAddr, fx: &mut Vec<HtEffect>) {
        let Some(entry) = self.home_lines.get_mut(&line) else {
            return;
        };
        let Some(active) = entry.active else {
            return; // transaction already done; data discarded
        };
        entry.mem_ready = true;
        fx.push(HtEffect::SendData {
            to: active.txn.node,
            data: HtData {
                txn: active.txn,
                line,
                from_memory: true,
                new_state: LineState::Exclusive,
            },
        });
    }

    fn home_done(&mut self, now: Cycle, d: HtDone, fx: &mut Vec<HtEffect>) {
        let Some(entry) = self.home_lines.get_mut(&d.line) else {
            return;
        };
        if entry.active.map(|a| a.txn) != Some(d.txn) {
            return; // stale
        }
        entry.active = None;
        entry.mem_ready = false;
        if let Some(next) = entry.waiting.pop_front() {
            entry.active = Some(next);
            fx.push(HtEffect::Broadcast(HtProbe { req: next }));
            fx.push(HtEffect::MemFetch { line: next.line });
            self.stats.mem_fetches += 1;
            tev!(
                self,
                now,
                next.txn,
                next.line,
                TraceKind::MemFetch { prefetch: false }
            );
        } else {
            self.home_lines.remove(&d.line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent(node: usize) -> HtAgent {
        HtAgent::new(NodeId(node), 4, 7, CacheConfig::l2_512k())
    }

    fn line() -> LineAddr {
        LineAddr::new(100)
    }

    #[test]
    fn home_mapping_is_interleaved() {
        assert_eq!(HtAgent::home_of(LineAddr::new(0), 4), NodeId(0));
        assert_eq!(HtAgent::home_of(LineAddr::new(5), 4), NodeId(1));
        assert_eq!(HtAgent::home_of(LineAddr::new(7), 4), NodeId(3));
    }

    #[test]
    fn miss_sends_request_to_home() {
        let mut a = agent(2);
        let fx = a.handle(
            0,
            HtInput::CoreRequest {
                line: line(),
                write: false,
            },
        );
        assert!(matches!(fx[0], HtEffect::SendRequest { home, .. } if home == NodeId(0)));
        assert!(a.has_outstanding(line()));
    }

    #[test]
    fn home_broadcasts_and_fetches() {
        let mut h = agent(0);
        let req = HtReq {
            txn: TxnId {
                node: NodeId(2),
                serial: 1,
            },
            line: line(),
            write: false,
        };
        let fx = h.handle(0, HtInput::Request(req));
        assert!(fx.iter().any(|e| matches!(e, HtEffect::Broadcast(_))));
        assert!(fx.iter().any(|e| matches!(e, HtEffect::MemFetch { .. })));
    }

    #[test]
    fn home_serializes_same_line() {
        let mut h = agent(0);
        let mk = |node: usize| HtReq {
            txn: TxnId {
                node: NodeId(node),
                serial: 1,
            },
            line: line(),
            write: true,
        };
        h.handle(0, HtInput::Request(mk(1)));
        let fx2 = h.handle(0, HtInput::Request(mk(2)));
        assert!(fx2.is_empty(), "second request must queue");
        assert_eq!(h.stats().serialized, 1);
        // Done releases the next.
        let fx3 = h.handle(
            10,
            HtInput::Done(HtDone {
                txn: TxnId {
                    node: NodeId(1),
                    serial: 1,
                },
                line: line(),
            }),
        );
        assert!(fx3
            .iter()
            .any(|e| matches!(e, HtEffect::Broadcast(p) if p.req.txn.node == NodeId(2))));
    }

    #[test]
    fn supplier_probe_ships_data_and_demotes() {
        let mut a = agent(1);
        a.install_line(line(), LineState::Dirty);
        let probe = HtProbe {
            req: HtReq {
                txn: TxnId {
                    node: NodeId(3),
                    serial: 1,
                },
                line: line(),
                write: false,
            },
        };
        let fx = a.handle(0, HtInput::ProbeSnoopDone(probe));
        assert!(fx.iter().any(
            |e| matches!(e, HtEffect::SendData { to, data } if *to == NodeId(3) && data.new_state == LineState::Tagged)
        ));
        assert_eq!(a.l2().state(line()), LineState::Shared);
    }

    #[test]
    fn write_probe_invalidates_sharers() {
        let mut a = agent(1);
        a.install_line(line(), LineState::Shared);
        let probe = HtProbe {
            req: HtReq {
                txn: TxnId {
                    node: NodeId(3),
                    serial: 1,
                },
                line: line(),
                write: true,
            },
        };
        let fx = a.handle(0, HtInput::ProbeSnoopDone(probe));
        assert_eq!(a.l2().state(line()), LineState::Invalid);
        assert!(fx.iter().any(
            |e| matches!(e, HtEffect::SendResponse { resp, .. } if !resp.supplied && !resp.sharer)
        ));
    }

    #[test]
    fn requester_completes_after_data_and_all_responses() {
        let mut a = agent(2); // 4-node machine: expects 3 responses
        let l = line();
        let fx = a.handle(
            0,
            HtInput::CoreRequest {
                line: l,
                write: false,
            },
        );
        let txn = match fx[0] {
            HtEffect::SendRequest { req, .. } => req.txn,
            _ => panic!("expected request"),
        };
        // Two negative responses.
        for _ in 0..2 {
            let fx = a.handle(
                10,
                HtInput::Response(HtResp {
                    txn,
                    line: l,
                    supplied: false,
                    sharer: false,
                }),
            );
            assert!(fx.is_empty());
        }
        // Supplier responds and ships data.
        a.handle(
            20,
            HtInput::Response(HtResp {
                txn,
                line: l,
                supplied: true,
                sharer: true,
            }),
        );
        let fx = a.handle(
            30,
            HtInput::Data(HtData {
                txn,
                line: l,
                from_memory: false,
                new_state: LineState::MasterShared,
            }),
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            HtEffect::Bound {
                c2c: true,
                latency: 30,
                ..
            }
        )));
        assert!(fx
            .iter()
            .any(|e| matches!(e, HtEffect::Complete { c2c: true, .. })));
        assert!(fx.iter().any(|e| matches!(e, HtEffect::SendDone { .. })));
        assert_eq!(a.l2().state(l), LineState::MasterShared);
    }

    #[test]
    fn memory_fill_when_no_supplier() {
        let mut a = agent(2);
        let l = line();
        let fx = a.handle(
            0,
            HtInput::CoreRequest {
                line: l,
                write: false,
            },
        );
        let txn = match fx[0] {
            HtEffect::SendRequest { req, .. } => req.txn,
            _ => panic!(),
        };
        for _ in 0..3 {
            a.handle(
                10,
                HtInput::Response(HtResp {
                    txn,
                    line: l,
                    supplied: false,
                    sharer: false,
                }),
            );
        }
        // All negative: waits for home's memory data.
        assert!(a.has_outstanding(l));
        let fx = a.handle(
            250,
            HtInput::Data(HtData {
                txn,
                line: l,
                from_memory: true,
                new_state: LineState::Exclusive,
            }),
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, HtEffect::Bound { c2c: false, .. })));
        assert_eq!(a.l2().state(l), LineState::Exclusive);
    }

    #[test]
    fn home_forwards_memory_data_for_active_txn() {
        let mut h = agent(0);
        let req = HtReq {
            txn: TxnId {
                node: NodeId(2),
                serial: 1,
            },
            line: line(),
            write: false,
        };
        h.handle(0, HtInput::Request(req));
        let fx = h.handle(224, HtInput::MemData { line: line() });
        assert!(fx.iter().any(
            |e| matches!(e, HtEffect::SendData { to, data } if *to == NodeId(2) && data.from_memory)
        ));
    }

    #[test]
    fn stale_done_ignored() {
        let mut h = agent(0);
        let fx = h.handle(
            0,
            HtInput::Done(HtDone {
                txn: TxnId {
                    node: NodeId(1),
                    serial: 9,
                },
                line: line(),
            }),
        );
        assert!(fx.is_empty());
    }
}
