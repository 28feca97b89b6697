//! `ring-server`: a long-running simulation service over the Uncorq
//! machine — the `ringd` daemon and the `ringctl` client library.
//!
//! `ringd` listens on a Unix socket and speaks a versioned
//! line-delimited JSON protocol ([`proto`]): `create` / `start` /
//! `pause` / `step` / `status` / `snapshot` / `restore` / `subscribe` /
//! `kill` / `shutdown`. Each session runs a [`ring_system::Machine`] on
//! a supervised worker thread ([`worker`]) with periodic
//! integrity-verified checkpoints in a per-session state directory.
//!
//! The crate exists to make the simulator *survivable*, and every
//! robustness claim is load-bearing tested:
//!
//! - **Supervision** ([`supervisor`]): panicked or watchdog-stalled
//!   workers restart from the newest valid snapshot, falling back past
//!   corrupted candidates; restart attempts are capped and every fate
//!   is surfaced as typed state, never a hang.
//! - **Admission** ([`supervisor`]): bounded concurrent sessions with a
//!   FIFO wait queue; overload is typed `busy` / `queue-full`.
//! - **Backpressure** ([`ring_trace::FanoutSink`]): trace subscribers
//!   get bounded buffers with counted-drop gap markers; a slow consumer
//!   never blocks — or perturbs — the simulation.
//! - **Crash safety** ([`daemon`]): SIGTERM drains via checkpoints;
//!   `kill -9` at any point loses only the work since the last
//!   durable periodic checkpoint (checkpoints are written behind the
//!   run, at most one in flight), and a restarted daemon rediscovers
//!   every session from its manifest and resumes byte-identically.
//!
//! Determinism is inherited, not re-proven here: `ring-system`'s slice
//! tests show any [`ring_system::Machine::try_run_slice`] slicing is
//! byte-identical to an uninterrupted run, so pausing, stepping,
//! snapshotting, and subscriber fan-out cannot change results.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod daemon;
pub mod proto;
pub mod session;
pub mod supervisor;
pub mod worker;

pub use client::{Client, RetryPolicy};
pub use proto::{session_base, Command, ErrorKind, Reply, Request, WireError, PROTO_VERSION};
pub use supervisor::{ServerConfig, Supervisor};
