//! Structured forward-progress stall reports.
//!
//! When the watchdog trips (no completion, binding, or core progress for
//! the configured number of cycles) or the event queue drains with
//! unfinished cores, [`crate::Sim::try_run`] terminates with a
//! [`StallReport`] instead of panicking or spinning to the cycle cap —
//! on the ring machines and the HT baseline alike, since they share the
//! loop. The report captures enough machine state to diagnose the
//! livelock or deadlock post-mortem: per-node LTT occupancy (always 0
//! on HT), in-flight transactions, retry backoff and starvation state,
//! and the last few trace events.

use ring_noc::RelSnapshot;
use ring_sim::Cycle;
use ring_trace::TraceEvent;
use serde::{Deserialize, Serialize};

/// Why the machine stopped making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallCause {
    /// The watchdog saw no progress milestone for its threshold.
    WatchdogExpired,
    /// The event queue drained while cores were still unfinished — a
    /// protocol deadlock (nothing scheduled can ever unblock them).
    QueueDrained,
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallCause::WatchdogExpired => write!(f, "watchdog expired (livelock suspected)"),
            StallCause::QueueDrained => {
                write!(f, "event queue drained with unfinished cores (deadlock)")
            }
        }
    }
}

/// One node's snapshot at stall time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStallState {
    /// Node id.
    pub node: u32,
    /// Whether this node's core had finished its stream.
    pub finished: bool,
    /// Occupied LTT slots.
    pub ltt_occupancy: usize,
    /// Own outstanding transactions (MSHR entries in use).
    pub outstanding: usize,
    /// Core requests deferred behind MSHR/IPTR limits.
    pub pending_core: usize,
    /// Lines in retry backoff with their retry counts.
    pub retrying: Vec<(u64, u32)>,
    /// Line this node is starving on, if the §5.2 mechanism is engaged.
    pub starving_on: Option<u64>,
}

impl NodeStallState {
    /// Whether this node holds any protocol state worth printing.
    pub fn is_interesting(&self) -> bool {
        !self.finished
            || self.ltt_occupancy > 0
            || self.outstanding > 0
            || self.pending_core > 0
            || !self.retrying.is_empty()
            || self.starving_on.is_some()
    }
}

/// Loss and recovery attribution when the reliability sublayer was
/// active at stall time: which links ate frames, which flows are stuck,
/// and how hard retransmission was working.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReliabilityStall {
    /// Transport-level view: unacked/queued frames and the worst flows
    /// (most retransmission attempts first).
    pub transport: RelSnapshot,
    /// Frames destroyed by probabilistic per-link drops.
    pub drops: u64,
    /// Frames destroyed by scheduled link-outage windows.
    pub outage_drops: u64,
    /// Per-link destroyed-frame counts, `(link, frames)`, links with
    /// zero drops omitted, ascending link id.
    pub link_drops: Vec<(u32, u64)>,
}

/// Provenance of a machine that resumed from a checkpoint: where the
/// snapshot file lived and the cycle it was taken at. Attached to stall
/// reports so a post-restore failure is never confused with one from an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestoredFrom {
    /// Path of the snapshot file the machine was restored from.
    pub path: String,
    /// Simulated cycle the snapshot was taken at.
    pub cycle: Cycle,
}

/// A structured description of a forward-progress failure, returned by
/// [`crate::Sim::try_run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallReport {
    /// Why the run was terminated.
    pub cause: StallCause,
    /// Cycle at which the stall was declared.
    pub detected_at: Cycle,
    /// Cycle of the last progress milestone the watchdog saw.
    pub last_progress: Cycle,
    /// Cycle of the last reliability-layer milestone (delivery or
    /// non-degraded retransmission) the watchdog saw; 0 when the
    /// sublayer is off or never acted.
    pub last_net_progress: Cycle,
    /// The watchdog threshold in force (0 when the cause is
    /// [`StallCause::QueueDrained`] with the watchdog disabled).
    pub threshold: Cycle,
    /// Nodes whose cores had not finished.
    pub unfinished_nodes: Vec<u32>,
    /// Total transactions completed before the stall.
    pub completed_transactions: u64,
    /// Per-node snapshots (all nodes, in node order).
    pub nodes: Vec<NodeStallState>,
    /// The last few trace events before the stall, chronological (empty
    /// unless tracing was enabled).
    pub recent_events: Vec<TraceEvent>,
    /// Loss/recovery attribution (`None` when the reliability sublayer
    /// is disabled).
    pub reliability: Option<ReliabilityStall>,
    /// Checkpoint provenance (`None` unless this machine was restored
    /// via [`crate::Machine::restore`] or a checkpoint-directory scan).
    pub restored_from: Option<RestoredFrom>,
}

impl StallReport {
    /// Nodes holding protocol state worth examining.
    pub fn interesting_nodes(&self) -> impl Iterator<Item = &NodeStallState> {
        self.nodes.iter().filter(|n| n.is_interesting())
    }
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FORWARD-PROGRESS STALL at cycle {}: {}",
            self.detected_at, self.cause
        )?;
        writeln!(
            f,
            "  last progress at cycle {} (threshold {} cycles)",
            self.last_progress, self.threshold
        )?;
        if let Some(rf) = &self.restored_from {
            writeln!(
                f,
                "  machine was restored from checkpoint {} (cycle {})",
                rf.path, rf.cycle
            )?;
        }
        if self.last_net_progress > 0 {
            writeln!(
                f,
                "  last reliability-layer progress at cycle {}",
                self.last_net_progress
            )?;
        }
        writeln!(
            f,
            "  {} transactions completed; {} unfinished node(s): {:?}",
            self.completed_transactions,
            self.unfinished_nodes.len(),
            self.unfinished_nodes
        )?;
        for n in self.interesting_nodes() {
            write!(
                f,
                "  node {:>3}: ltt={} outstanding={} pending_core={}",
                n.node, n.ltt_occupancy, n.outstanding, n.pending_core
            )?;
            if let Some(l) = n.starving_on {
                write!(f, " STARVING on {l:#x}")?;
            }
            for (line, count) in &n.retrying {
                write!(f, " retry[{line:#x}]={count}")?;
            }
            if n.finished {
                write!(f, " (core finished)")?;
            }
            writeln!(f)?;
        }
        if let Some(rel) = &self.reliability {
            writeln!(
                f,
                "  reliability: {} unacked / {} queued frames, {} retransmits, \
                 {} drops ({} from outages), {} degraded flow(s)",
                rel.transport.unacked_frames,
                rel.transport.queued_frames,
                rel.transport.retransmits,
                rel.drops,
                rel.outage_drops,
                rel.transport.degraded_flows
            )?;
            for fl in &rel.transport.worst_flows {
                writeln!(
                    f,
                    "    flow n{}->n{} ch{}: {} unacked (oldest seq {} after {} attempts){}{}",
                    fl.src,
                    fl.dst,
                    fl.channel,
                    fl.unacked,
                    fl.oldest_seq,
                    fl.attempts,
                    if fl.queued > 0 {
                        format!(", {} queued", fl.queued)
                    } else {
                        String::new()
                    },
                    if fl.degraded { " DEGRADED" } else { "" }
                )?;
            }
            if !rel.link_drops.is_empty() {
                write!(f, "    frames destroyed per link:")?;
                for (link, n) in &rel.link_drops {
                    write!(f, " l{link}={n}")?;
                }
                writeln!(f)?;
            }
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "  last {} trace events:", self.recent_events.len())?;
            for ev in &self.recent_events {
                writeln!(f, "    {ev}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StallReport {
        StallReport {
            cause: StallCause::WatchdogExpired,
            detected_at: 1000,
            last_progress: 100,
            last_net_progress: 0,
            threshold: 800,
            unfinished_nodes: vec![3],
            completed_transactions: 42,
            nodes: vec![
                NodeStallState {
                    node: 0,
                    finished: true,
                    ltt_occupancy: 0,
                    outstanding: 0,
                    pending_core: 0,
                    retrying: vec![],
                    starving_on: None,
                },
                NodeStallState {
                    node: 3,
                    finished: false,
                    ltt_occupancy: 2,
                    outstanding: 1,
                    pending_core: 1,
                    retrying: vec![(0x40, 5)],
                    starving_on: Some(0x40),
                },
            ],
            recent_events: vec![],
            reliability: None,
            restored_from: None,
        }
    }

    #[test]
    fn interesting_nodes_filters_idle_finished() {
        let r = report();
        let interesting: Vec<u32> = r.interesting_nodes().map(|n| n.node).collect();
        assert_eq!(interesting, vec![3]);
    }

    #[test]
    fn display_mentions_cause_and_starver() {
        let s = report().to_string();
        assert!(s.contains("livelock suspected"));
        assert!(s.contains("STARVING on 0x40"));
        assert!(s.contains("retry[0x40]=5"));
        assert!(!s.contains("reliability:"), "no section when sublayer off");
    }

    #[test]
    fn display_names_the_checkpoint_after_a_restore() {
        let mut r = report();
        r.restored_from = Some(RestoredFrom {
            path: "/tmp/ckpt/ckpt-000000004096.ringsnap".into(),
            cycle: 4096,
        });
        let s = r.to_string();
        assert!(
            s.contains(
                "restored from checkpoint /tmp/ckpt/ckpt-000000004096.ringsnap (cycle 4096)"
            ),
            "{s}"
        );
    }

    #[test]
    fn display_attributes_losses_when_reliability_active() {
        let mut r = report();
        r.last_net_progress = 900;
        r.reliability = Some(ReliabilityStall {
            transport: RelSnapshot {
                unacked_frames: 4,
                queued_frames: 2,
                retransmits: 17,
                degraded_flows: 1,
                worst_flows: vec![ring_noc::FlowSnapshot {
                    src: 3,
                    dst: 9,
                    channel: 0,
                    unacked: 4,
                    queued: 2,
                    oldest_seq: 11,
                    attempts: 6,
                    degraded: true,
                }],
            },
            drops: 20,
            outage_drops: 5,
            link_drops: vec![(7, 18), (12, 2)],
        });
        let s = r.to_string();
        assert!(s.contains("last reliability-layer progress at cycle 900"));
        assert!(s.contains("17 retransmits"));
        assert!(s.contains("20 drops (5 from outages)"));
        assert!(s.contains("flow n3->n9 ch0: 4 unacked (oldest seq 11 after 6 attempts)"));
        assert!(s.contains("DEGRADED"));
        assert!(s.contains("l7=18 l12=2"));
    }
}
