//! The per-session worker thread: owns the [`Machine`], executes it in
//! bounded event slices, and obeys a control channel between slices.
//!
//! Everything the daemon promises about live sessions reduces to one
//! property proved in `ring-system`'s slice tests: driving a machine
//! through [`Machine::try_run_slice`] in any slicing is byte-identical
//! to an uninterrupted run. The worker is therefore free to interleave
//! pauses, steps, snapshots, and subscriber fan-out at slice
//! boundaries without perturbing the simulation.
//!
//! The worker communicates outward only through its [`Shared`] cell
//! (cycle, state, final report, stall report) and inward only through
//! [`Ctl`] messages. Whenever its thread ends — finished, stalled,
//! killed, or unwinding from a panic — a drop guard sends an [`Exited`]
//! notice, so supervision reacts at once: it joins the thread, learns
//! of a panic from the join, and restarts from the newest valid
//! snapshot.
//!
//! The session's trace fan-out is installed on the machine only while
//! someone subscribes: the worker checks the subscriber count before
//! every slice, so an unobserved session runs untraced, and a
//! subscriber that attaches mid-run sees events from the next slice
//! boundary on.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, ThreadId};

use ring_system::{Machine, RunProgress};
use ring_trace::FanoutSink;

use crate::session::SessionState;

/// Events per slice between control polls. Small enough that pause and
/// kill react promptly, large enough that the poll is noise.
pub const DEFAULT_SLICE: u64 = 4096;

/// Marker file that makes `inject_panic_at` fire once per session
/// directory (not once per worker — a restarted worker must run
/// through the same cycle without re-panicking).
pub const PANIC_MARKER: &str = "panic-injected.marker";

/// Final-report file names the worker leaves in the session directory,
/// so results survive the daemon itself dying after a run finishes.
pub const REPORT_TEXT: &str = "report.txt";
/// JSON rendering of the final report.
pub const REPORT_JSON: &str = "report.json";

/// Control messages, handled between slices.
#[derive(Debug)]
pub enum Ctl {
    /// Begin (or resume) free running.
    Resume,
    /// Stop executing at the next slice boundary.
    Pause,
    /// Execute exactly this many events, then hold.
    Step(u64),
    /// Write a checkpoint now; replies with the path or the typed
    /// snapshot error.
    Snapshot(Sender<Result<PathBuf, ring_snapshot::SnapshotError>>),
    /// Exit the worker loop.
    Kill,
}

/// Live view of one session, shared between its worker, the
/// supervisor, and status queries.
#[derive(Debug)]
pub struct Shared {
    /// Lifecycle state (see [`crate::session`]).
    pub state: SessionState,
    /// Simulated cycle reached.
    pub cycle: u64,
    /// Events executed so far.
    pub events: u64,
    /// Final stats rendering, once finished.
    pub report_text: Option<String>,
    /// Final JSON report, once finished.
    pub report_json: Option<String>,
    /// Stall report rendering, once stalled.
    pub stall: Option<String>,
    /// Last supervision note (restart reasons, snapshot errors).
    pub note: Option<String>,
    /// Times supervision restarted this session.
    pub restarts: u32,
    /// Path of the most recent explicit snapshot.
    pub last_snapshot: Option<String>,
}

impl Shared {
    /// Fresh state for a just-admitted session.
    pub fn new() -> Self {
        Shared {
            state: SessionState::Created,
            cycle: 0,
            events: 0,
            report_text: None,
            report_json: None,
            stall: None,
            note: None,
            restarts: 0,
            last_snapshot: None,
        }
    }
}

impl Default for Shared {
    fn default() -> Self {
        Self::new()
    }
}

/// Locks a shared cell, recovering from poison: the cell holds plain
/// data, every observable state is valid, and a panicked worker must
/// not wedge status queries.
pub fn lock(shared: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running worker: its control endpoint and join handle.
#[derive(Debug)]
pub struct Worker {
    /// Control channel into the worker loop.
    pub ctl: Sender<Ctl>,
    /// Thread handle; `join` returns `Err` if the worker panicked.
    pub handle: JoinHandle<()>,
}

/// Sent by a worker thread as it ends, however it ends. By then its
/// machine is dropped, so every checkpoint it took is on disk.
#[derive(Debug)]
pub struct Exited {
    /// The session the worker ran.
    pub session: String,
    /// The worker's thread, to tell its notice from that of a worker
    /// the supervisor has since replaced.
    pub thread: ThreadId,
}

/// The drop guard that sends [`Exited`]; dropped after the machine.
struct ExitNotice {
    session: String,
    exits: Sender<Exited>,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        let _ = self.exits.send(Exited {
            session: std::mem::take(&mut self.session),
            thread: std::thread::current().id(),
        });
    }
}

/// Everything a worker thread is handed besides its machine.
#[derive(Debug)]
pub struct Setup {
    /// Session name, echoed in the [`Exited`] notice.
    pub session: String,
    /// Session directory: checkpoints, reports, the panic marker.
    pub dir: PathBuf,
    /// The live view shared with the supervisor.
    pub shared: Arc<Mutex<Shared>>,
    /// The session's trace fan-out, installed on the machine only while
    /// it has subscribers.
    pub fanout: FanoutSink,
    /// Events per slice.
    pub slice: u64,
    /// The deterministic supervision-drill knob: panic once on reaching
    /// this cycle.
    pub panic_at: Option<u64>,
    /// Where the worker reports its exit.
    pub exits: Sender<Exited>,
}

/// Spawns the worker thread for `machine`. The caller has already
/// installed the checkpoint policy on the machine and set
/// `setup.shared`'s state (`Running` to start hot, anything else to
/// start held).
pub fn spawn(machine: Machine, setup: Setup) -> Worker {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        // Declared before the machine is moved in, so dropped after it.
        let _notice = ExitNotice {
            session: setup.session.clone(),
            exits: setup.exits.clone(),
        };
        run_loop(machine, &setup, &rx);
    });
    Worker { ctl: tx, handle }
}

fn run_loop(mut machine: Machine, setup: &Setup, ctl: &Receiver<Ctl>) {
    let Setup {
        dir,
        shared,
        fanout,
        panic_at,
        ..
    } = setup;
    let slice = setup.slice.max(1);
    let mut running = lock(shared).state == SessionState::Running;
    let mut step_budget: u64 = 0;
    let mut traced = false;
    loop {
        let executing = running || step_budget > 0;
        let msg = if executing {
            match ctl.try_recv() {
                Ok(m) => Some(m),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => return, // supervisor gone
            }
        } else {
            match ctl.recv() {
                Ok(m) => Some(m),
                Err(_) => return,
            }
        };
        if let Some(msg) = msg {
            match msg {
                Ctl::Resume => {
                    running = true;
                    step_budget = 0;
                    lock(shared).state = SessionState::Running;
                }
                Ctl::Pause => {
                    running = false;
                    step_budget = 0;
                    lock(shared).state = SessionState::Paused;
                }
                Ctl::Step(n) => {
                    if !running {
                        step_budget = step_budget.saturating_add(n);
                    }
                }
                Ctl::Snapshot(reply) => {
                    let result = machine.checkpoint_now(dir);
                    if let Ok(path) = &result {
                        lock(shared).last_snapshot = Some(path.display().to_string());
                    }
                    let _ = reply.send(result);
                }
                Ctl::Kill => return,
            }
            continue; // drain further control before simulating
        }

        // Trace only while someone listens; checked once per slice.
        let observed = fanout.subscriber_count() > 0;
        if observed != traced {
            if observed {
                machine.set_trace_sink(Box::new(fanout.clone()));
            } else {
                machine.remove_trace_sink();
            }
            traced = observed;
        }

        // Execute one slice.
        let budget = if running {
            slice
        } else {
            step_budget.min(slice)
        };
        match machine.try_run_slice(budget) {
            Ok(RunProgress::Done(report)) => {
                let mut text = Vec::new();
                let mut json = Vec::new();
                // Vec writes cannot fail; fall back to empty renderings
                // rather than dying on the last step of a finished run.
                let text = match report.write_stats(&mut text) {
                    Ok(()) => String::from_utf8_lossy(&text).into_owned(),
                    Err(_) => String::new(),
                };
                let json = match report.write_json(&mut json) {
                    Ok(()) => String::from_utf8_lossy(&json).into_owned(),
                    Err(_) => String::new(),
                };
                // Publish before persisting: a client that sees the
                // report files must find the session `finished`.
                {
                    let mut sh = lock(shared);
                    sh.cycle = report.exec_cycles;
                    sh.report_text = Some(text.clone());
                    sh.report_json = Some(json.clone());
                    sh.state = SessionState::Finished;
                }
                persist_report(dir, &text, &json);
                return;
            }
            Ok(RunProgress::Yielded { events, cycle }) => {
                {
                    let mut sh = lock(shared);
                    sh.cycle = cycle;
                    sh.events = sh.events.saturating_add(events);
                }
                if step_budget > 0 {
                    step_budget = step_budget.saturating_sub(events);
                }
                if let Some(at) = *panic_at {
                    maybe_inject_panic(dir, cycle, at);
                }
            }
            Err(stall) => {
                let mut sh = lock(shared);
                sh.cycle = stall.detected_at;
                sh.stall = Some(stall.to_string());
                sh.state = SessionState::Stalled;
                return;
            }
        }
    }
}

/// Fires the deterministic supervision drill: the first worker to carry
/// the session past `at` cycles writes a marker file and panics. The
/// marker makes the injection once per *session*, so the restarted
/// worker sails through the same cycle.
fn maybe_inject_panic(dir: &Path, cycle: u64, at: u64) {
    if cycle < at {
        return;
    }
    let marker = dir.join(PANIC_MARKER);
    if marker.exists() {
        return;
    }
    let _ = std::fs::write(&marker, format!("injected at cycle {cycle}\n"));
    panic!("injected worker panic at cycle {cycle} (supervision drill)");
}

/// Best-effort persistence of the final report next to the checkpoint
/// trail, so results survive the daemon process itself.
fn persist_report(dir: &Path, text: &str, json: &str) {
    for (name, body) in [(REPORT_TEXT, text), (REPORT_JSON, json)] {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("writing {} failed: {e}", path.display());
        }
    }
}
