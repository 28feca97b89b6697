//! Full-machine assembly for the Uncorq reproduction: the 64-node CMP of
//! the paper's Table 3.
//!
//! A [`Sim`] wires together, per node, a core model (`ring-cpu`), a
//! private L1 and L2 (`ring-cache`), and a protocol agent
//! (`ring-coherence`), over a shared on-chip network (`ring-noc`) and
//! memory system (`ring-mem`). It is generic over the agent, a
//! [`NodeAgent`]: the ring protocols (Eager, SupersetCon, SupersetAgg,
//! Uncorq, Uncorq+Pref) run on [`Machine`], the HyperTransport baseline
//! on [`HtMachine`]. Both run one event loop — watchdog, stall reports,
//! sliced runs, flight recorder, traces and invariant checks included —
//! over the same deterministic workload streams (`ring-workloads`), so
//! protocol comparisons are apples-to-apples: "all algorithms use
//! exactly the same network" (paper §6). Checkpoints, the parallel
//! engine, fault injection and the reliability sublayer are ring-only.
//!
//! # Examples
//!
//! ```
//! use ring_system::{Machine, MachineConfig};
//! use ring_coherence::ProtocolKind;
//! use ring_workloads::AppProfile;
//!
//! // A small machine for a quick smoke run.
//! let cfg = MachineConfig::small_test(ProtocolKind::Uncorq);
//! let profile = AppProfile::by_name("fmm").unwrap().scaled(50);
//! let report = Machine::new(cfg, &profile).run();
//! assert!(report.finished);
//! assert!(report.stats.ops_retired > 0);
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod config;
mod effects;
mod ht_machine;
mod machine;
mod par;
mod spec;
mod stall;
mod stats;

pub use checkpoint::{
    config_hash, list_checkpoints, prune_checkpoints, restore_latest, workload_fingerprint,
};
pub use config::{MachineConfig, MachineConfigError, DEFAULT_WORKLOAD};
pub use machine::{run_paper, HtMachine, Machine, NodeAgent, RunProgress, Sim};
pub use ring_sim::pdes::Partition;
pub use spec::{
    field, parse_grid, Field, FieldKind, FieldValue, Protocol, RunSpec, SpecError, SpecFlags,
    DEFAULT_CHAOS_PROFILE, FIELDS, PAPER_SEED,
};
pub use stall::{NodeStallState, RestoredFrom, StallCause, StallReport};
pub use stats::{MachineStats, Report};
