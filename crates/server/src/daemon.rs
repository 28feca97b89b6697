//! The `ringd` daemon: a Unix-socket accept loop over the supervisor.
//!
//! This module (with [`crate::client`]) is the repo's one audited
//! blocking-I/O boundary — sockets exist here and nowhere else, and the
//! in-tree ringlint gate enforces exactly that. Simulation never runs
//! on a connection thread: client threads only parse frames, call
//! supervisor methods, and stream subscription buffers; the machines
//! live on worker threads.
//!
//! Robustness properties of the loop:
//!
//! - **No client input panics the daemon**: every line is parsed into a
//!   typed frame or answered with a typed `bad-frame`/`bad-version`.
//! - **No client input grows the daemon without bound**: a request line
//!   longer than [`MAX_FRAME_BYTES`] gets a typed `bad-frame` naming the
//!   limit, and the connection closes.
//! - **Idle and dead clients are reaped by deadline**: reads carry an
//!   idle timeout, subscription writes carry a write timeout, and a
//!   failed write drops the subscription (its buffer detaches on drop).
//! - **Graceful drain**: SIGTERM (or a `shutdown` frame) checkpoints
//!   every live session and stops its worker before the process exits,
//!   so a restarted daemon rediscovers and resumes byte-identically.
//!   `kill -9` is also survivable — resume falls back to each session's
//!   newest valid periodic checkpoint.
//!
//! Nothing here polls on a session's behalf: the main thread blocks in
//! `accept`, and a supervision thread blocks on the workers' exit
//! notices. On shutdown the supervision thread wakes the accept by
//! connecting to the socket itself.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use ring_trace::json::Json;
use ring_trace::Delivery;

use crate::proto::{err_frame, ok_frame, Command, ErrorKind, Request, WireError};
use crate::supervisor::{ServerConfig, Supervisor};
use crate::worker::{self, Exited};

/// The longest request line the daemon reads (its newline excluded).
/// A create frame is under 1 KiB.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;
/// Idle clients are disconnected after this long without a frame.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(120);
/// A subscriber that cannot absorb a write for this long is dropped.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// How often the supervision thread looks at the shutdown flag between
/// worker exits: a signal handler can only set the flag, so shutdown
/// starts at most this long after it.
const SHUTDOWN_CHECK: Duration = Duration::from_millis(10);
/// Pause after a failed `accept` (say, out of descriptors) before the
/// next one.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Set by SIGTERM/SIGINT (and the `shutdown` frame); the supervision
/// thread wakes the accept loop, which drains and exits.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    // Installing a handler needs no libc crate: `signal` is in every
    // libc this repo targets, and the handler is just a fn pointer.
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the graceful-drain signal handlers (SIGTERM, SIGINT).
pub fn install_signal_handlers() {
    // SAFETY: `on_signal` only stores an atomic flag, which is
    // async-signal-safe; `signal` itself cannot violate memory safety.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// Asks the accept loop to drain and exit (test hook; the signal
/// handler and the `shutdown` frame do the same).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn lock_sup(sup: &Mutex<Supervisor>) -> MutexGuard<'_, Supervisor> {
    sup.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Binds the socket and runs the daemon until shutdown. Rediscovers
/// sessions left in the state root by a previous daemon first. Joins
/// its supervision thread before returning.
///
/// # Errors
///
/// Socket binding failures (including another live daemon on the same
/// path, detected by probing a stale socket file before removing it).
pub fn serve(socket: &Path, cfg: ServerConfig) -> std::io::Result<()> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    std::fs::create_dir_all(&cfg.state_root)?;
    // Bind first: clients treat the socket file as "daemon up".
    let listener = bind(socket)?;
    let mut sup = Supervisor::new(cfg);
    let exits = sup.take_exits();
    let sup = Arc::new(Mutex::new(sup));
    let found = lock_sup(&sup).rediscover();
    if found > 0 {
        eprintln!("ringd: rediscovered {found} session(s) from the state root");
    }
    let supervision = {
        let sup = Arc::clone(&sup);
        let socket = socket.to_path_buf();
        std::thread::spawn(move || {
            if let Some(exits) = exits {
                supervise(&sup, &exits);
            }
            // Wake the accept below; the connection itself is dropped.
            if let Err(e) = UnixStream::connect(&socket) {
                eprintln!("ringd: waking the accept loop failed: {e}");
            }
        })
    };
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(_) if SHUTDOWN.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                let sup = Arc::clone(&sup);
                std::thread::spawn(move || handle_client(stream, &sup));
            }
            Err(e) => {
                eprintln!("ringd: accept failed: {e}");
                std::thread::sleep(ACCEPT_RETRY);
            }
        }
    }
    let _ = supervision.join();
    eprintln!("ringd: draining (checkpointing every live session)");
    lock_sup(&sup).drain();
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// The supervision thread: handles each worker exit as it arrives
/// until shutdown is requested.
fn supervise(sup: &Mutex<Supervisor>, exits: &Receiver<Exited>) {
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match exits.recv_timeout(SHUTDOWN_CHECK) {
            Ok(exit) => lock_sup(sup).on_exit(&exit),
            Err(RecvTimeoutError::Timeout) => {}
            // The supervisor holds a sender, so this cannot happen;
            // keep watching the flag regardless.
            Err(RecvTimeoutError::Disconnected) => std::thread::sleep(SHUTDOWN_CHECK),
        }
    }
}

/// Binds the listener, clearing a *stale* socket file (one no daemon
/// answers on) but refusing to steal a live daemon's socket.
fn bind(socket: &Path) -> std::io::Result<UnixListener> {
    match UnixListener::bind(socket) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("another ringd is live on {}", socket.display()),
                ));
            }
            std::fs::remove_file(socket)?;
            UnixListener::bind(socket)
        }
        Err(e) => Err(e),
    }
}

fn handle_client(stream: UnixStream, sup: &Mutex<Supervisor>) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = BufReader::new(stream);
    let mut raw = Vec::new();
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            return;
        }
        raw.clear();
        // read_until, not read_line: even non-UTF-8 byte soup must get
        // a typed `bad-frame` reply, not a dropped connection. One byte
        // past the bound is enough to tell an over-long line.
        let bound = MAX_FRAME_BYTES as u64 + 1;
        match reader.by_ref().take(bound).read_until(b'\n', &mut raw) {
            Ok(0) => return, // EOF: client left
            Ok(_) => {}
            // Timeout: reap the idle client. Anything else: reap too.
            Err(_) => return,
        }
        if raw.len() > MAX_FRAME_BYTES && raw.last() != Some(&b'\n') {
            let err = WireError::new(
                ErrorKind::BadFrame,
                format!("request line exceeds {MAX_FRAME_BYTES} bytes"),
            );
            let _ = write_line(&mut writer, &err_frame("", &err));
            return;
        }
        let line = String::from_utf8_lossy(&raw);
        if line.trim().is_empty() {
            continue;
        }
        let reply = match Request::parse(line.trim_end()) {
            Err((id, err)) => err_frame(&id, &err),
            Ok(req) => match req.cmd {
                Command::Subscribe { session, buffer } => {
                    // Subscribe converts the connection into a stream.
                    let grant = lock_sup(sup).subscribe(&session, buffer);
                    match grant {
                        Ok((sub, shared)) => {
                            let head =
                                ok_frame(&req.id, vec![("subscribed", Json::Str(session.clone()))]);
                            if write_line(&mut writer, &head).is_err() {
                                return;
                            }
                            stream_subscription(&mut writer, sub, &shared);
                            return;
                        }
                        Err(e) => err_frame(&req.id, &e),
                    }
                }
                Command::Shutdown => {
                    let frame = ok_frame(&req.id, vec![("draining", Json::Bool(true))]);
                    let _ = write_line(&mut writer, &frame);
                    request_shutdown();
                    return;
                }
                cmd => {
                    let result = dispatch(sup, cmd);
                    match result {
                        Ok(fields) => ok_frame(&req.id, fields),
                        Err(e) => err_frame(&req.id, &e),
                    }
                }
            },
        };
        if write_line(&mut writer, &reply).is_err() {
            return; // dead client
        }
    }
}

/// Routes one non-streaming command to the supervisor.
fn dispatch(sup: &Mutex<Supervisor>, cmd: Command) -> Result<Vec<(&'static str, Json)>, WireError> {
    let mut sup = lock_sup(sup);
    match cmd {
        Command::Create {
            session,
            spec,
            inject_panic_at,
        } => sup.create(&session, spec, inject_panic_at),
        Command::Start { session } => sup.start(&session),
        Command::Pause { session } => sup.pause(&session),
        Command::Step { session, events } => sup.step(&session, events),
        Command::Status { session } => sup.status(session.as_deref()),
        Command::Snapshot { session } => sup.snapshot(&session),
        Command::Restore { session } => sup.restore(&session),
        Command::Kill { session } => sup.kill(&session),
        Command::Subscribe { .. } | Command::Shutdown => Err(WireError::new(
            ErrorKind::Internal,
            "handled before dispatch",
        )),
    }
}

/// Streams a subscription: one line per delivery — `{"ev":{...}}` for
/// events, `{"gap":N}` for counted drops — until the session's worker
/// is gone and the buffer is dry, the client dies, or the daemon
/// drains. The simulation never blocks on this loop: the fan-out buffer
/// is bounded and drops (counted) when this client lags.
fn stream_subscription(
    writer: &mut UnixStream,
    sub: ring_trace::Subscription,
    shared: &Arc<Mutex<worker::Shared>>,
) {
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            return;
        }
        let deliveries = sub.drain();
        if deliveries.is_empty() {
            let state = worker::lock(shared).state;
            if !state.has_worker() {
                let tail = format!("{{\"end\":\"{}\"}}", state.name());
                let _ = write_line(writer, &tail);
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        for d in deliveries {
            let line = match d {
                Delivery::Event(ev) => format!("{{\"ev\":{}}}", ev.to_jsonl()),
                Delivery::Gap { dropped } => format!("{{\"gap\":{dropped}}}"),
            };
            if write_line(writer, &line).is_err() {
                return; // slow/dead subscriber reaped; buffer detaches
            }
        }
    }
}

fn write_line(w: &mut UnixStream, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}
