//! Session supervision: admission control, restart-from-snapshot, the
//! run-slot FIFO, graceful drain, and post-crash rediscovery.
//!
//! The supervisor owns every session's worker and is the only writer
//! of the session table. Its policies:
//!
//! - **Admission**: at most `max_sessions` concurrent sessions
//!   (`create` past the cap is a typed `busy`); at most `max_running`
//!   executing at once — further `start`s wait in a FIFO, and a full
//!   FIFO is a typed `queue-full`, never a hang.
//! - **Supervision**: a worker that panics or hits the machine's
//!   forward-progress watchdog is restarted from the newest valid
//!   snapshot (falling back past corrupted candidates), at most
//!   `restart_cap` times; after that the session is `dead` with the
//!   failure retained. Restore failures surface the typed
//!   [`SnapshotError`] to clients. Workers report their exit over a
//!   channel ([`worker::Exited`]); the daemon's supervision thread
//!   handles each exit as it arrives ([`Supervisor::on_exit`]), and
//!   embedders without one call [`Supervisor::poll`].
//! - **Drain**: on shutdown every live session is checkpointed and its
//!   worker stopped, so a daemon restart resumes each one
//!   byte-identically; `kill -9` merely costs the work since each
//!   session's last periodic checkpoint.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ring_snapshot::{SessionManifest, SnapshotError};
use ring_system::{
    config_hash, list_checkpoints, restore_latest, workload_fingerprint, Machine, MachineConfig,
    Protocol, RunSpec,
};
use ring_trace::{FanoutSink, Subscription};
use ring_workloads::AppProfile;

use crate::proto::{session_spec, spec_fields, ErrorKind, WireError};
use crate::session::{check, SessionCmd, SessionState};
use crate::worker::{self, lock, Ctl, Exited, Shared, Worker};
use ring_trace::json::{obj, Json};

/// File name of the per-session manifest.
pub const MANIFEST_FILE: &str = "session.ringmeta";

/// Daemon-side policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root directory holding one subdirectory per session.
    pub state_root: PathBuf,
    /// Concurrent-session admission cap (`busy` past it).
    pub max_sessions: usize,
    /// Concurrent run slots (`start` past it queues).
    pub max_running: usize,
    /// FIFO wait-queue cap (`queue-full` past it).
    pub queue_cap: usize,
    /// Periodic checkpoint interval in simulated cycles (0 = off).
    pub checkpoint_every: u64,
    /// Snapshot retention per session (keep newest K; 0 = unbounded).
    pub checkpoint_keep: usize,
    /// Restarts per session before supervision gives up.
    pub restart_cap: u32,
    /// Worker slice granularity in events.
    pub slice_events: u64,
}

impl ServerConfig {
    /// Defaults rooted at `state_root`.
    pub fn new(state_root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            state_root: state_root.into(),
            max_sessions: 8,
            max_running: 2,
            queue_cap: 4,
            checkpoint_every: 10_000,
            checkpoint_keep: 3,
            restart_cap: 3,
            slice_events: worker::DEFAULT_SLICE,
        }
    }
}

/// One admitted session.
#[derive(Debug)]
struct Entry {
    spec: RunSpec,
    inject_panic_at: Option<u64>,
    dir: PathBuf,
    shared: Arc<Mutex<Shared>>,
    fanout: FanoutSink,
    worker: Option<Worker>,
}

/// The session table and its policies. Wrap in a `Mutex` to share
/// between client-connection threads.
#[derive(Debug)]
pub struct Supervisor {
    cfg: ServerConfig,
    sessions: BTreeMap<String, Entry>,
    run_queue: VecDeque<String>,
    /// Every worker's exit notices arrive here.
    exits_tx: Sender<Exited>,
    /// The receiving end, until a supervision thread takes it.
    exits_rx: Option<Receiver<Exited>>,
}

/// Result payload fields of a successful command.
pub type Fields = Vec<(&'static str, Json)>;

impl Supervisor {
    /// An empty supervisor.
    pub fn new(cfg: ServerConfig) -> Self {
        let (exits_tx, exits_rx) = std::sync::mpsc::channel();
        Supervisor {
            cfg,
            sessions: BTreeMap::new(),
            run_queue: VecDeque::new(),
            exits_tx,
            exits_rx: Some(exits_rx),
        }
    }

    /// Hands the worker-exit channel to a supervision thread, which
    /// then calls [`Supervisor::on_exit`] for each notice; `None` once
    /// taken.
    pub fn take_exits(&mut self) -> Option<Receiver<Exited>> {
        self.exits_rx.take()
    }

    /// The configured state root.
    pub fn state_root(&self) -> &std::path::Path {
        &self.cfg.state_root
    }

    fn entry(&self, name: &str) -> Result<&Entry, WireError> {
        self.sessions.get(name).ok_or_else(|| {
            WireError::new(ErrorKind::UnknownSession, format!("no session `{name}`"))
        })
    }

    fn state_of(&self, name: &str) -> Result<SessionState, WireError> {
        Ok(lock(&self.entry(name)?.shared).state)
    }

    fn gate(&self, name: &str, cmd: SessionCmd) -> Result<SessionState, WireError> {
        let state = self.state_of(name)?;
        check(state, cmd).map_err(|(kind, msg)| WireError::new(kind, msg))
    }

    fn running_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|e| lock(&e.shared).state == SessionState::Running)
            .count()
    }

    /// Starts the worker of session `name` on `machine`, after wiring
    /// the checkpoint policy. The worker installs the session's trace
    /// fan-out itself, while it has subscribers.
    fn launch(&self, name: &str, entry: &Entry, mut machine: Machine) -> Worker {
        // Cadence 0 still sets the directory for on-demand snapshots.
        machine.enable_checkpoints(self.cfg.checkpoint_every, &entry.dir);
        machine.set_checkpoint_retention(self.cfg.checkpoint_keep);
        worker::spawn(
            machine,
            worker::Setup {
                session: name.to_string(),
                dir: entry.dir.clone(),
                shared: Arc::clone(&entry.shared),
                fanout: entry.fanout.clone(),
                slice: self.cfg.slice_events,
                panic_at: entry.inject_panic_at,
                exits: self.exits_tx.clone(),
            },
        )
    }

    /// Admits a new session; `inject_panic_at` arms the panic drill.
    pub fn create(
        &mut self,
        name: &str,
        spec: RunSpec,
        inject_panic_at: Option<u64>,
    ) -> Result<Fields, WireError> {
        validate_name(name)?;
        if self.sessions.contains_key(name) {
            return Err(WireError::new(
                ErrorKind::InvalidState,
                format!("session `{name}` already exists"),
            ));
        }
        if self.sessions.len() >= self.cfg.max_sessions {
            return Err(WireError::new(
                ErrorKind::Busy,
                format!(
                    "at the concurrent-session cap ({}); kill a session first",
                    self.cfg.max_sessions
                ),
            ));
        }
        let (cfg, profile) = build(&spec)?;
        let dir = self.cfg.state_root.join(name);
        std::fs::create_dir_all(&dir)
            .map_err(|e| WireError::new(ErrorKind::Internal, format!("mkdir failed: {e}")))?;
        let manifest = SessionManifest {
            session: name.to_string(),
            config_hash: config_hash(&cfg),
            workload_fingerprint: workload_fingerprint(&profile),
            fields: spec_fields(&spec, inject_panic_at),
        };
        manifest
            .write_atomic(&dir.join(MANIFEST_FILE))
            .map_err(|e| WireError::new(ErrorKind::Snapshot, e.to_string()))?;
        let mut entry = Entry {
            spec,
            inject_panic_at,
            dir,
            shared: Arc::new(Mutex::new(Shared::new())),
            fanout: FanoutSink::new(),
            worker: None,
        };
        entry.worker = Some(self.launch(name, &entry, Machine::new(cfg, &profile)));
        self.sessions.insert(name.to_string(), entry);
        Ok(vec![
            ("session", Json::Str(name.to_string())),
            ("state", Json::Str("created".into())),
        ])
    }

    /// Starts or queues a session, subject to run-slot admission.
    pub fn start(&mut self, name: &str) -> Result<Fields, WireError> {
        self.gate(name, SessionCmd::Start)?;
        if self.running_count() < self.cfg.max_running {
            let entry = self.entry(name)?;
            lock(&entry.shared).state = SessionState::Running;
            send_ctl(entry, Ctl::Resume)?;
            Ok(vec![("state", Json::Str("running".into()))])
        } else if self.run_queue.len() >= self.cfg.queue_cap {
            Err(WireError::new(
                ErrorKind::QueueFull,
                format!(
                    "all {} run slots busy and the wait queue is at its cap ({})",
                    self.cfg.max_running, self.cfg.queue_cap
                ),
            ))
        } else {
            self.run_queue.push_back(name.to_string());
            let entry = self.entry(name)?;
            lock(&entry.shared).state = SessionState::Queued;
            Ok(vec![
                ("state", Json::Str("queued".into())),
                ("queue_position", Json::Num(self.run_queue.len() as f64)),
            ])
        }
    }

    /// Pauses a running or queued session.
    pub fn pause(&mut self, name: &str) -> Result<Fields, WireError> {
        self.gate(name, SessionCmd::Pause)?;
        let was = self.state_of(name)?;
        if was == SessionState::Queued {
            self.run_queue.retain(|n| n != name);
        }
        let entry = self.entry(name)?;
        lock(&entry.shared).state = SessionState::Paused;
        if was == SessionState::Running {
            send_ctl(entry, Ctl::Pause)?;
        }
        self.pump();
        Ok(vec![("state", Json::Str("paused".into()))])
    }

    /// Steps a held session by exactly `events` events.
    pub fn step(&mut self, name: &str, events: u64) -> Result<Fields, WireError> {
        self.gate(name, SessionCmd::Step)?;
        let entry = self.entry(name)?;
        send_ctl(entry, Ctl::Step(events))?;
        Ok(vec![("stepping", Json::Uint(events))])
    }

    /// Writes an integrity-verified snapshot of a live session now.
    pub fn snapshot(&mut self, name: &str) -> Result<Fields, WireError> {
        self.gate(name, SessionCmd::Snapshot)?;
        let entry = self.entry(name)?;
        let (tx, rx) = std::sync::mpsc::channel();
        send_ctl(entry, Ctl::Snapshot(tx))?;
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Ok(path)) => Ok(vec![("snapshot", Json::Str(path.display().to_string()))]),
            Ok(Err(e)) => Err(WireError::new(ErrorKind::Snapshot, e.to_string())),
            Err(RecvTimeoutError::Timeout) => Err(WireError::new(
                ErrorKind::Internal,
                "worker did not reach a slice boundary in time",
            )),
            Err(RecvTimeoutError::Disconnected) => Err(WireError::new(
                ErrorKind::Internal,
                "worker exited before snapshotting; poll status",
            )),
        }
    }

    /// Rebuilds a session from its newest valid snapshot (time-travel
    /// restore). The worker comes back held (`paused`).
    pub fn restore(&mut self, name: &str) -> Result<Fields, WireError> {
        self.gate(name, SessionCmd::Restore)?;
        self.run_queue.retain(|n| n != name);
        let old = self
            .sessions
            .get_mut(name)
            .and_then(|entry| entry.worker.take());
        if let Some(w) = old {
            let _ = w.ctl.send(Ctl::Kill);
            let _ = w.handle.join();
        }
        let entry = self.entry(name)?;
        let (cfg, profile) = build(&entry.spec)?;
        let (machine, from) = restore_latest(&cfg, &profile, &entry.dir)
            .map_err(|e| WireError::new(ErrorKind::Snapshot, e.to_string()))?;
        let cycle = machine.restored_from().map_or(0, |(_, c)| c);
        {
            let mut sh = lock(&entry.shared);
            sh.state = SessionState::Paused;
            sh.cycle = cycle;
            sh.report_text = None;
            sh.report_json = None;
            sh.stall = None;
            sh.note = Some(format!("restored from {}", from.display()));
        }
        // Same fanout, so subscriptions survive the restore.
        let w = self.launch(name, entry, machine);
        if let Some(entry) = self.sessions.get_mut(name) {
            entry.worker = Some(w);
        }
        Ok(vec![
            ("restored_from", Json::Str(from.display().to_string())),
            ("cycle", Json::Uint(cycle)),
            ("state", Json::Str("paused".into())),
        ])
    }

    /// Attaches a bounded trace subscription (drained by the caller's
    /// connection thread, never by the simulation).
    pub fn subscribe(
        &mut self,
        name: &str,
        buffer: u64,
    ) -> Result<(Subscription, Arc<Mutex<Shared>>), WireError> {
        self.gate(name, SessionCmd::Subscribe)?;
        let entry = self.entry(name)?;
        let sub = entry.fanout.subscribe(buffer.clamp(1, 1 << 20) as usize);
        Ok((sub, Arc::clone(&entry.shared)))
    }

    /// Stops a session and forgets it (its state directory survives).
    pub fn kill(&mut self, name: &str) -> Result<Fields, WireError> {
        self.gate(name, SessionCmd::Kill)?;
        self.run_queue.retain(|n| n != name);
        if let Some(mut entry) = self.sessions.remove(name) {
            if let Some(w) = entry.worker.take() {
                let _ = w.ctl.send(Ctl::Kill);
                let _ = w.handle.join();
            }
        }
        self.pump();
        Ok(vec![("killed", Json::Str(name.to_string()))])
    }

    /// Status of one session or of the whole daemon.
    pub fn status(&self, name: Option<&str>) -> Result<Fields, WireError> {
        match name {
            Some(n) => {
                let entry = self.entry(n)?;
                let mut fields = session_fields(n, entry, &self.run_queue);
                let sh = lock(&entry.shared);
                if let Some(r) = &sh.report_text {
                    fields.push(("report", Json::Str(r.clone())));
                }
                if let Some(r) = &sh.report_json {
                    fields.push(("report_json", Json::Str(r.clone())));
                }
                Ok(fields)
            }
            None => {
                let sessions: Vec<Json> = self
                    .sessions
                    .iter()
                    .map(|(n, e)| obj(session_fields(n, e, &self.run_queue)))
                    .collect();
                Ok(vec![
                    ("sessions", Json::Arr(sessions)),
                    ("running", Json::Num(self.running_count() as f64)),
                    ("queued", Json::Num(self.run_queue.len() as f64)),
                    (
                        "capacity",
                        obj(vec![
                            ("max_sessions", Json::Num(self.cfg.max_sessions as f64)),
                            ("max_running", Json::Num(self.cfg.max_running as f64)),
                            ("queue_cap", Json::Num(self.cfg.queue_cap as f64)),
                        ]),
                    ),
                ])
            }
        }
    }

    /// Handles every worker exit reported so far (see
    /// [`Supervisor::on_exit`]), then grants freed run slots. For
    /// embedders without a supervision thread; a no-op after
    /// [`Supervisor::take_exits`].
    pub fn poll(&mut self) {
        let exits: Vec<Exited> = self
            .exits_rx
            .as_ref()
            .map(|rx| rx.try_iter().collect())
            .unwrap_or_default();
        for exit in &exits {
            self.on_exit(exit);
        }
        self.pump();
    }

    /// Reaps the worker that sent `exit`, applies the restart policy,
    /// and grants freed run slots to the FIFO. A notice from a worker
    /// the supervisor already joined (killed, restored, drained) is
    /// stale and changes nothing.
    pub fn on_exit(&mut self, exit: &Exited) {
        let Some(entry) = self.sessions.get_mut(&exit.session) else {
            return;
        };
        let Some(w) = entry
            .worker
            .take_if(|w| w.handle.thread().id() == exit.thread)
        else {
            return;
        };
        // The notice is the thread's last act, so this join is brief.
        match w.handle.join() {
            Ok(()) => {
                // Clean exit: finished, stalled, or killed. A stall
                // gets the restart policy; the report stays visible.
                let state = lock(&entry.shared).state;
                if state == SessionState::Stalled {
                    self.restart(&exit.session, "watchdog stall");
                }
            }
            Err(payload) => {
                let what = panic_text(payload.as_ref());
                self.restart(&exit.session, &format!("worker panic: {what}"));
            }
        }
        self.pump();
    }

    /// Restart policy: restore from the newest valid snapshot, resume
    /// if the session was executing, give up past the cap.
    fn restart(&mut self, name: &str, why: &str) {
        let Some(entry) = self.sessions.get(name) else {
            return;
        };
        let restarts = lock(&entry.shared).restarts;
        if restarts >= self.cfg.restart_cap {
            let mut sh = lock(&entry.shared);
            sh.state = SessionState::Dead;
            sh.note = Some(format!(
                "{why}; restart cap ({}) exhausted — supervision gave up",
                self.cfg.restart_cap
            ));
            return;
        }
        let (cfg, profile) = match build(&entry.spec) {
            Ok(v) => v,
            Err(e) => {
                let mut sh = lock(&entry.shared);
                sh.state = SessionState::Dead;
                sh.note = Some(format!("{why}; rebuild failed: {e}"));
                return;
            }
        };
        // A session that dies before its first checkpoint restarts from
        // scratch — determinism makes a fresh machine exactly
        // equivalent to a cycle-0 snapshot.
        let restored = match restore_latest(&cfg, &profile, &entry.dir) {
            Ok((m, from)) => Ok((m, Some(from))),
            Err(SnapshotError::NoValidCheckpoint { .. })
                if list_checkpoints(&entry.dir).is_empty() =>
            {
                Ok((Machine::new(cfg, &profile), None))
            }
            Err(e) => Err(e),
        };
        match restored {
            Ok((machine, from)) => {
                let cycle = machine.restored_from().map_or(0, |(_, c)| c);
                let resume = {
                    let mut sh = lock(&entry.shared);
                    sh.restarts = restarts + 1;
                    sh.cycle = cycle;
                    let origin = from.as_ref().map_or_else(
                        || "scratch (no checkpoint yet)".to_string(),
                        |p| p.display().to_string(),
                    );
                    sh.note = Some(format!(
                        "{why}; restarted from {origin} (restart {} of {})",
                        restarts + 1,
                        self.cfg.restart_cap
                    ));
                    // A stall is surfaced, not silently re-run: the
                    // session comes back held with the report attached.
                    let resume = sh.stall.is_none();
                    sh.state = if resume {
                        SessionState::Running
                    } else {
                        SessionState::Paused
                    };
                    resume
                };
                let w = self.launch(name, entry, machine);
                if resume {
                    let _ = w.ctl.send(Ctl::Resume);
                }
                if let Some(entry) = self.sessions.get_mut(name) {
                    entry.worker = Some(w);
                }
            }
            Err(e) => {
                let mut sh = lock(&entry.shared);
                sh.state = SessionState::Dead;
                sh.note = Some(format!("{why}; restore failed: {e}"));
            }
        }
    }

    /// Grants freed run slots to the FIFO, oldest `start` first.
    fn pump(&mut self) {
        while self.running_count() < self.cfg.max_running {
            let Some(name) = self.run_queue.pop_front() else {
                return;
            };
            let Some(entry) = self.sessions.get(&name) else {
                continue; // killed while queued
            };
            {
                let mut sh = lock(&entry.shared);
                if sh.state != SessionState::Queued {
                    continue; // paused/killed while queued
                }
                sh.state = SessionState::Running;
            }
            if let Some(w) = &entry.worker {
                let _ = w.ctl.send(Ctl::Resume);
            }
        }
    }

    /// Graceful drain: checkpoint every live session, stop every
    /// worker. After this the daemon can exit and a restart resumes
    /// each session from exactly this point.
    pub fn drain(&mut self) {
        let names: Vec<String> = self.sessions.keys().cloned().collect();
        for name in names {
            let Some(entry) = self.sessions.get_mut(&name) else {
                continue;
            };
            let Some(w) = entry.worker.take() else {
                continue;
            };
            let state = lock(&entry.shared).state;
            if state.has_worker() {
                let _ = w.ctl.send(Ctl::Pause);
                let (tx, rx) = std::sync::mpsc::channel();
                let _ = w.ctl.send(Ctl::Snapshot(tx));
                match rx.recv_timeout(Duration::from_secs(30)) {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => eprintln!("drain: snapshot of `{name}` failed: {e}"),
                    Err(_) => eprintln!("drain: snapshot of `{name}` timed out"),
                }
            }
            let _ = w.ctl.send(Ctl::Kill);
            let _ = w.handle.join();
            lock(&entry.shared).state = SessionState::Paused;
        }
        self.run_queue.clear();
    }

    /// Rediscovers sessions from the state root after a daemon restart:
    /// every subdirectory with a valid manifest is re-admitted, restored
    /// from its newest valid snapshot when one exists, held (`paused`)
    /// otherwise fresh (`created`). Corrupt directories are reported and
    /// skipped — one damaged session must not take the daemon down.
    pub fn rediscover(&mut self) -> usize {
        let Ok(rd) = std::fs::read_dir(&self.cfg.state_root) else {
            return 0;
        };
        let mut dirs: Vec<PathBuf> = rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        let mut admitted = 0;
        for dir in dirs {
            let manifest_path = dir.join(MANIFEST_FILE);
            let manifest = match SessionManifest::read(&manifest_path) {
                Ok(m) => m,
                Err(SnapshotError::Io { .. }) => continue, // not a session dir
                Err(e) => {
                    eprintln!("skipping {}: manifest invalid: {e}", dir.display());
                    continue;
                }
            };
            let name = manifest.session.clone();
            if self.sessions.contains_key(&name) || self.sessions.len() >= self.cfg.max_sessions {
                continue;
            }
            let (spec, inject_panic_at) = match session_spec(manifest.fields) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("skipping {name}: manifest spec invalid: {e}");
                    continue;
                }
            };
            let (cfg, profile) = match build(&spec) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("skipping {name}: spec no longer builds: {e}");
                    continue;
                }
            };
            let has_trail = !list_checkpoints(&dir).is_empty();
            let (machine, state, cycle, note) = if has_trail {
                match restore_latest(&cfg, &profile, &dir) {
                    Ok((m, from)) => {
                        let cycle = m.restored_from().map_or(0, |(_, c)| c);
                        (
                            m,
                            SessionState::Paused,
                            cycle,
                            Some(format!("rediscovered; restored from {}", from.display())),
                        )
                    }
                    Err(e) => {
                        eprintln!("skipping {name}: no valid checkpoint: {e}");
                        continue;
                    }
                }
            } else {
                (
                    Machine::new(cfg, &profile),
                    SessionState::Created,
                    0,
                    Some("rediscovered; no checkpoint trail, starting fresh".to_string()),
                )
            };
            let mut entry = Entry {
                spec,
                inject_panic_at,
                dir,
                shared: Arc::new(Mutex::new(Shared {
                    state,
                    cycle,
                    note,
                    ..Shared::new()
                })),
                fanout: FanoutSink::new(),
                worker: None,
            };
            entry.worker = Some(self.launch(&name, &entry, machine));
            self.sessions.insert(name, entry);
            admitted += 1;
        }
        admitted
    }

    /// Session names currently admitted (status order).
    pub fn session_names(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }
}

/// Derives a session's machine from its spec. HT is refused: sessions
/// restart and resume from snapshots, and the HT machine has no
/// snapshot codec.
fn build(spec: &RunSpec) -> Result<(MachineConfig, AppProfile), WireError> {
    if spec.protocol == Protocol::Ht {
        return Err(WireError::new(
            ErrorKind::BadSpec,
            "ringd cannot host ht sessions: the HT machine has no snapshot codec",
        ));
    }
    spec.build()
        .map_err(|e| WireError::new(ErrorKind::BadSpec, e.to_string()))
}

fn send_ctl(entry: &Entry, msg: Ctl) -> Result<(), WireError> {
    match &entry.worker {
        Some(w) => w.ctl.send(msg).map_err(|_| {
            WireError::new(
                ErrorKind::Internal,
                "worker exited mid-command; poll status for its fate",
            )
        }),
        None => Err(WireError::new(
            ErrorKind::InvalidState,
            "session has no live worker",
        )),
    }
}

fn session_fields(name: &str, entry: &Entry, queue: &VecDeque<String>) -> Fields {
    let sh = lock(&entry.shared);
    let mut fields: Fields = vec![
        ("session", Json::Str(name.to_string())),
        ("state", Json::Str(sh.state.name().to_string())),
        ("cycle", Json::Uint(sh.cycle)),
        ("events", Json::Uint(sh.events)),
        ("restarts", Json::Num(f64::from(sh.restarts))),
        (
            "subscribers",
            Json::Num(entry.fanout.subscriber_count() as f64),
        ),
    ];
    if let Some(pos) = queue.iter().position(|n| n == name) {
        fields.push(("queue_position", Json::Num((pos + 1) as f64)));
    }
    if let Some(s) = &sh.stall {
        fields.push(("stall", Json::Str(s.clone())));
    }
    if let Some(n) = &sh.note {
        fields.push(("note", Json::Str(n.clone())));
    }
    if let Some(p) = &sh.last_snapshot {
        fields.push(("last_snapshot", Json::Str(p.clone())));
    }
    fields
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Session names become directory names; keep them boring.
fn validate_name(name: &str) -> Result<(), WireError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(WireError::new(
            ErrorKind::BadFrame,
            "session names are 1-64 chars of [A-Za-z0-9._-], not starting with `.`",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::session_base;

    fn tiny_spec() -> RunSpec {
        RunSpec {
            ops: Some(40),
            ..session_base()
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ring-supervisor-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wait_for<F: Fn(&Supervisor) -> bool>(sup: &mut Supervisor, pred: F) {
        for _ in 0..2000 {
            sup.poll();
            if pred(sup) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not reached in 10s");
    }

    fn state(sup: &Supervisor, name: &str) -> SessionState {
        lock(&sup.sessions.get(name).unwrap().shared).state
    }

    #[test]
    fn session_cap_is_typed_busy() {
        let root = temp_root("busy");
        let mut cfg = ServerConfig::new(&root);
        cfg.max_sessions = 1;
        let mut sup = Supervisor::new(cfg);
        sup.create("a", tiny_spec(), None).unwrap();
        let err = sup.create("b", tiny_spec(), None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Busy);
        sup.kill("a").unwrap();
        sup.create("b", tiny_spec(), None).unwrap();
        sup.kill("b").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A session that runs until stopped: no cycle cap and more work
    /// than any test waits for.
    fn endless_spec() -> RunSpec {
        RunSpec {
            ops: Some(1 << 40),
            max_cycles: 0,
            ..session_base()
        }
    }

    #[test]
    fn run_slots_queue_fifo_and_overflow_is_queue_full() {
        let root = temp_root("queue");
        let mut cfg = ServerConfig::new(&root);
        cfg.max_running = 1;
        cfg.queue_cap = 1;
        cfg.checkpoint_every = 0;
        let mut sup = Supervisor::new(cfg);
        for n in ["a", "b", "c"] {
            sup.create(n, endless_spec(), None).unwrap();
        }
        sup.start("a").unwrap();
        let fields = sup.start("b").unwrap();
        assert!(fields
            .iter()
            .any(|(k, v)| *k == "state" && v.as_str() == Some("queued")));
        let err = sup.start("c").unwrap_err();
        assert_eq!(err.kind, ErrorKind::QueueFull);
        // Pausing `a` frees its slot, which goes to `b` at once.
        sup.pause("a").unwrap();
        assert_eq!(state(&sup, "b"), SessionState::Running);
        // `c` now queues behind `b`; killing `b` hands it the slot.
        let fields = sup.start("c").unwrap();
        assert!(fields
            .iter()
            .any(|(k, v)| *k == "state" && v.as_str() == Some("queued")));
        sup.kill("b").unwrap();
        assert_eq!(state(&sup, "c"), SessionState::Running);
        for n in ["a", "c"] {
            sup.kill(n).unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A finished worker publishes its state before it writes the
    /// report files, so a client that sees the files reads `finished`:
    /// while the state is held locked, no report file appears.
    #[test]
    fn report_files_follow_the_published_state() {
        let root = temp_root("order");
        let mut cfg = ServerConfig::new(&root);
        cfg.slice_events = u64::MAX; // the whole run is one slice
        cfg.checkpoint_every = 0;
        let mut sup = Supervisor::new(cfg);
        let spec = RunSpec {
            ops: Some(400),
            ..session_base()
        };
        sup.create("a", spec, None).unwrap();
        // A snapshot's reply shows the worker is in its loop, past its
        // start-up read of the state.
        sup.snapshot("a").unwrap();
        sup.step("a", u64::MAX).unwrap();
        let shared = Arc::clone(&sup.sessions.get("a").unwrap().shared);
        let dir = root.join("a");
        {
            let _held = lock(&shared);
            // The run ends within milliseconds; give files written
            // ahead of the state ample time to show.
            std::thread::sleep(Duration::from_millis(300));
            for name in [worker::REPORT_TEXT, worker::REPORT_JSON] {
                assert!(!dir.join(name).exists(), "{name} precedes the state");
            }
        }
        wait_for(&mut sup, |s| state(s, "a") == SessionState::Finished);
        sup.kill("a").unwrap();
        assert!(dir.join(worker::REPORT_JSON).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn double_start_and_restore_into_running_are_invalid_state() {
        let root = temp_root("invalid");
        let mut sup = Supervisor::new(ServerConfig::new(&root));
        sup.create("a", session_base(), None).unwrap();
        sup.start("a").unwrap();
        assert_eq!(sup.start("a").unwrap_err().kind, ErrorKind::InvalidState);
        assert_eq!(sup.restore("a").unwrap_err().kind, ErrorKind::InvalidState);
        sup.kill("a").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_panic_is_restarted_from_snapshot_and_finishes() {
        // A scale-40 run lasts ~1800 simulated cycles, so checkpoint
        // every 200 and panic around 800; the small slice makes the
        // worker yield (and check the injection point) often.
        let root = temp_root("panic");
        let mut cfg = ServerConfig::new(&root);
        cfg.checkpoint_every = 200;
        cfg.slice_events = 256;
        let mut sup = Supervisor::new(cfg);
        sup.create("a", tiny_spec(), Some(800)).unwrap();
        sup.start("a").unwrap();
        wait_for(&mut sup, |s| state(s, "a") == SessionState::Finished);
        let sh = sup.sessions.get("a").unwrap();
        let sh = lock(&sh.shared);
        assert_eq!(sh.restarts, 1, "exactly one supervised restart");
        assert!(sh.note.as_deref().is_some_and(|n| n.contains("panic")));
        assert!(sh.report_text.is_some());
        drop(sh);
        sup.kill("a").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ht_and_invalid_machines_are_bad_spec() {
        let root = temp_root("badspec");
        let mut sup = Supervisor::new(ServerConfig::new(&root));
        let ht = RunSpec {
            protocol: Protocol::Ht,
            ..tiny_spec()
        };
        let err = sup.create("h", ht, None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadSpec);
        assert!(err.detail.contains("ht"), "{}", err.detail);
        let thin = RunSpec {
            width: 1,
            ..tiny_spec()
        };
        let err = sup.create("t", thin, None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadSpec);
        assert!(
            err.detail.contains("torus must be at least 2x2"),
            "{}",
            err.detail
        );
        assert!(sup.session_names().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A manifest with the field map daemons wrote before sessions were
    /// run descriptions, `chaos=true` included (the chaos profile,
    /// seeded with the machine seed), is rediscovered and resumes from
    /// its checkpoint trail byte-identically.
    #[test]
    fn legacy_manifest_is_rediscovered_and_resumes_byte_identically() {
        use ring_coherence::ProtocolVariant;
        use ring_noc::{FaultPlan, FaultProfile};

        let root = temp_root("legacy");
        let dir = root.join("old");
        std::fs::create_dir_all(&dir).unwrap();
        // The machine that field map described, derived as it was then.
        let mut cfg = MachineConfig::with_protocol(ProtocolVariant::Uncorq.config());
        (cfg.width, cfg.height, cfg.seed) = (4, 4, 2007);
        (cfg.max_cycles, cfg.watchdog_cycles) = (50_000_000, 2_000_000);
        cfg.faults = Some(FaultPlan::new(FaultProfile::chaos(), 2007));
        let profile = AppProfile::by_name("fmm").unwrap().scaled(40);
        let mut machine = Machine::new(cfg.clone(), &profile);
        machine.enable_checkpoints(500, &dir);
        let mut want = Vec::new();
        machine.run().write_stats(&mut want).unwrap();
        drop(machine);
        assert!(!list_checkpoints(&dir).is_empty());
        let fields = [
            ("variant", "uncorq"),
            ("workload", "fmm"),
            ("scale", "40"),
            ("width", "4"),
            ("height", "4"),
            ("seed", "2007"),
            ("max_cycles", "50000000"),
            ("watchdog_cycles", "2000000"),
            ("chaos", "true"),
        ];
        SessionManifest {
            session: "old".into(),
            config_hash: config_hash(&cfg),
            workload_fingerprint: workload_fingerprint(&profile),
            fields: fields.map(|(k, v)| (k.to_string(), v.to_string())).into(),
        }
        .write_atomic(&dir.join(MANIFEST_FILE))
        .unwrap();

        let mut server = ServerConfig::new(&root);
        server.checkpoint_every = 0;
        let mut sup = Supervisor::new(server);
        assert_eq!(sup.rediscover(), 1);
        assert_eq!(state(&sup, "old"), SessionState::Paused);
        sup.start("old").unwrap();
        wait_for(&mut sup, |s| state(s, "old") == SessionState::Finished);
        let got = lock(&sup.sessions.get("old").unwrap().shared)
            .report_text
            .clone()
            .unwrap();
        assert_eq!(got.as_bytes(), want.as_slice());
        sup.kill("old").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Snapshot schemas have no migration path. A session whose trail
    /// holds only files of the previous schema (re-stamped here, CRC
    /// fixed) has nothing to resume from, so rediscovery skips it, as it
    /// skips any trail it cannot verify; the same trail at the current
    /// schema is rediscovered.
    #[test]
    fn trail_of_the_previous_snapshot_schema_is_skipped() {
        let root = temp_root("schema");
        let mut cfg = ServerConfig::new(&root);
        cfg.checkpoint_every = 200;
        let mut sup = Supervisor::new(cfg.clone());
        sup.create("a", tiny_spec(), None).unwrap();
        sup.start("a").unwrap();
        wait_for(&mut sup, |s| state(s, "a") == SessionState::Finished);
        sup.kill("a").unwrap();
        drop(sup);
        let trail = list_checkpoints(&root.join("a"));
        assert!(!trail.is_empty());
        let current: Vec<Vec<u8>> = trail.iter().map(|p| std::fs::read(p).unwrap()).collect();
        for (path, bytes) in trail.iter().zip(&current) {
            let mut old = bytes.clone();
            // The schema is the first header field, at offset 16; the
            // header CRC follows the header.
            let header_len = u64::from_le_bytes(old[8..16].try_into().unwrap()) as usize;
            old[16..20].copy_from_slice(&(ring_snapshot::SCHEMA_VERSION - 1).to_le_bytes());
            let crc = ring_snapshot::crc32(&old[16..16 + header_len]);
            old[16 + header_len..20 + header_len].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                ring_snapshot::SnapshotFile::decode(&old),
                Err(SnapshotError::BadVersion { .. })
            ));
            std::fs::write(path, old).unwrap();
        }
        assert_eq!(Supervisor::new(cfg.clone()).rediscover(), 0);
        for (path, bytes) in trail.iter().zip(&current) {
            std::fs::write(path, bytes).unwrap();
        }
        let mut sup = Supervisor::new(cfg);
        assert_eq!(sup.rediscover(), 1);
        sup.kill("a").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_session_is_typed() {
        let root = temp_root("unknown");
        let mut sup = Supervisor::new(ServerConfig::new(&root));
        assert_eq!(
            sup.start("ghost").unwrap_err().kind,
            ErrorKind::UnknownSession
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_session_names_are_refused() {
        let root = temp_root("names");
        let mut sup = Supervisor::new(ServerConfig::new(&root));
        for bad in ["", ".hidden", "a/b", "a b", &"x".repeat(65)] {
            assert_eq!(
                sup.create(bad, tiny_spec(), None).unwrap_err().kind,
                ErrorKind::BadFrame,
                "accepted {bad:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
