//! The service workload `ringd16`, and the server probe of the traced
//! pass.
//!
//! The benchmark drives `ringd` only through the `ringd` and `ringctl`
//! binaries: it never opens the socket itself. A session is `ringctl
//! create`, `start`, a 1 ms poll for the session's `report.json` (the
//! daemon writes `report.txt` just before it), `status` and `kill`;
//! `ringctl wait` polls every 200 ms, which would quantise latency.
//! Each session directory is deleted after `kill`, since its
//! checkpoints would otherwise pile up by the megabyte.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ring_coherence::ProtocolVariant;

use crate::cells::{self, fnv1a, Cell, Engine, Outcome};
use crate::host::Calibration;
use crate::json::Json;
use crate::layers::Reference;
use crate::oracle;
use crate::report::Run;
use crate::spans::Tracer;
use crate::stats::{best, median};
use crate::Opts;

/// Per-core operations of the `ringd16` sessions: about 20 ms of
/// simulation in process; checkpoints make a session ten times longer.
pub const SCALE_16: u64 = 3_000;

/// Clients of the closed loop: one per run slot of a default `ringd`.
pub const CLIENTS: usize = 2;

/// Daemon start-ups timed per run to measure set-up; each takes about a
/// millisecond.
pub const SPAWN_REPS: usize = 25;

/// Sessions the `--smoke` run completes.
const SMOKE_SESSIONS: u64 = 6;

/// Span unit ids of the in-process reference runs, clear of the
/// session ids the closed loop hands out from 0.
const REFERENCE_UNITS: u64 = 1 << 32;

/// Longest a session may take before it counts as failed: a run must
/// end within three minutes even when a session hangs.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `ringd`, stopped when dropped.
pub struct Daemon {
    child: Child,
    bin_dir: PathBuf,
    socket: PathBuf,
    root: PathBuf,
}

impl Daemon {
    /// Starts `ringd` with its defaults in `dir` and waits until its
    /// socket is up. Returns the daemon and the seconds that took.
    pub fn spawn(bin_dir: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("ringd.sock");
        let root = dir.join("state");
        let log = std::fs::File::create(dir.join("ringd.log"))
            .map_err(|e| format!("ringd log in {}: {e}", dir.display()))?;
        let t = Instant::now();
        let child = Command::new(bin_dir.join("ringd"))
            .arg("--socket")
            .arg(&socket)
            .arg("--state-root")
            .arg(&root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin_dir.join("ringd").display()))?;
        let mut d = Daemon {
            child,
            bin_dir: bin_dir.to_path_buf(),
            socket,
            root,
        };
        while !d.socket.exists() {
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("ringd exited before its socket was up: {status}"));
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("ringd socket not up after 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok((d, t.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Runs one `ringctl` command; its standard output, or its error.
    pub fn ctl(&self, args: &[&str]) -> Result<String, String> {
        let out = Command::new(self.bin_dir.join("ringctl"))
            .arg("--socket")
            .arg(&self.socket)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("running ringctl: {e}"))?;
        if out.status.success() {
            Ok(String::from_utf8_lossy(&out.stdout).into_owned())
        } else {
            Err(format!(
                "ringctl {}: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ))
        }
    }

    /// Drains the daemon and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.ctl(&["shutdown"]);
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(e),
                    (_, false) => Err(format!("ringd exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("ringd did not drain within 30 s".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one finished session measured.
#[derive(Debug, Clone)]
struct Session {
    variant: ProtocolVariant,
    /// `create` sent until `report.json` present.
    latency_s: f64,
    create_s: f64,
    start_s: f64,
    /// `start` answered until `report.json` present.
    run_s: f64,
    status_s: f64,
    kill_s: f64,
    /// FNV-1a of the session's `report.txt`: the report digest.
    digest: u64,
    restarts: u64,
    /// Distinct checkpoint files seen while polling (traced pass only).
    ckpts: usize,
    /// Bytes in the session directory when its report appeared (traced
    /// pass only).
    state_bytes: u64,
}

/// Files in a session directory: checkpoint names and total bytes.
fn scan(dir: &Path, ckpts: &mut BTreeSet<String>) -> u64 {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".ringsnap") {
            ckpts.insert(name);
        }
        bytes += entry.metadata().map_or(0, |m| m.len());
    }
    bytes
}

fn session(d: &Daemon, cell: &Cell, id: u64, tr: &mut Tracer) -> Result<Session, String> {
    let name = format!("s{id}_{}", cell.variant.name().replace('+', "_"));
    let dir = d.root.join(&name);
    let num = |v: u64| v.to_string();
    let (ops, width, height, seed) = (
        num(cell.ops),
        num(cell.width as u64),
        num(cell.height as u64),
        num(cell.seed),
    );
    let timed = |tr: &mut Tracer, span: &'static str, args: &[&str]| {
        let open = tr.begin("server", span, id);
        let t = Instant::now();
        let r = d.ctl(args);
        let secs = t.elapsed().as_secs_f64();
        tr.end(open);
        r.map(|out| (out, secs))
    };
    let t0 = Instant::now();
    let (_, create_s) = timed(
        tr,
        "create",
        &[
            "create",
            &name,
            "--variant",
            cell.variant.name(),
            "--workload",
            cell.app,
            "--scale",
            &ops,
            "--width",
            &width,
            "--height",
            &height,
            "--seed",
            &seed,
        ],
    )?;
    let (_, start_s) = timed(tr, "start", &["start", &name])?;
    let open = tr.begin("server", "wait", id);
    let t1 = Instant::now();
    let mut ckpts = BTreeSet::new();
    while !dir.join("report.json").exists() {
        if t1.elapsed() > SESSION_TIMEOUT {
            tr.end(open);
            return Err(format!(
                "session {name} produced no report in {SESSION_TIMEOUT:?}"
            ));
        }
        if tr.enabled() {
            scan(&dir, &mut ckpts);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (run_s, latency_s) = (t1.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64());
    tr.end(open);
    let state_bytes = if tr.enabled() {
        scan(&dir, &mut ckpts)
    } else {
        0
    };
    let (status, status_s) = timed(tr, "status", &["status", &name])?;
    let (_, kill_s) = timed(tr, "kill", &["kill", &name])?;
    let text = std::fs::read_to_string(dir.join("report.txt"))
        .map_err(|e| format!("session {name} report: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    let status = Json::parse(status.trim()).map_err(|e| format!("status of {name}: {e}"))?;
    let state = status.get("state").and_then(Json::as_str).unwrap_or("?");
    if state != "finished" {
        return Err(format!("session {name} ended {state}"));
    }
    Ok(Session {
        variant: cell.variant,
        latency_s,
        create_s,
        start_s,
        run_s,
        status_s,
        kill_s,
        digest: fnv1a(text.as_bytes()),
        restarts: status.get("restarts").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        ckpts: ckpts.len(),
        state_bytes,
    })
}

/// When a closed loop stops starting sessions.
#[derive(Debug, Clone, Copy)]
enum Stop {
    After(Instant),
    Sessions(u64),
}

/// Runs sessions of `cells` (round-robin) from `clients` threads until
/// `stop`; each client calibrates before each of its sessions. Each
/// result carries the cell index it ran.
fn closed_loop(
    d: &Daemon,
    cells: &[Cell],
    clients: usize,
    stop: Stop,
    tr: &mut Tracer,
    cal: &mut Calibration,
) -> Vec<(usize, Result<Session, String>)> {
    let next = AtomicU64::new(0);
    let origin = tr.origin();
    let traced = tr.enabled();
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, origin);
                    let mut cal = Calibration::default();
                    let mut done = Vec::new();
                    loop {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let go = match stop {
                            Stop::After(t) => Instant::now() < t,
                            Stop::Sessions(n) => id < n,
                        };
                        if !go {
                            break;
                        }
                        cal.sample();
                        let i = id as usize % cells.len();
                        let open = tr.begin("bench", "session", id);
                        done.push((i, session(d, &cells[i], id, &mut tr)));
                        tr.end(open);
                    }
                    (done, tr, cal)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session clients do not panic"))
            .collect()
    });
    let mut all = Vec::new();
    for (done, client_tr, client_cal) in per_client {
        all.extend(done);
        tr.absorb(client_tr);
        cal.absorb(client_cal);
    }
    all
}

/// Checks each session against its in-process reference and keeps the
/// successful ones.
fn checked(
    results: Vec<(usize, Result<Session, String>)>,
    refs: &[u64],
    out: &mut Run,
) -> (Vec<(usize, Session)>, u64) {
    let mut ok = Vec::new();
    let mut rejects = 0;
    for (i, r) in results {
        match r {
            Ok(s) if s.digest == refs[i] => ok.push((i, s)),
            Ok(s) => out.attempt(Err(format!(
                "ringd {} session digest {:016x} differs from in-process {:016x}",
                s.variant, s.digest, refs[i]
            ))),
            Err(e) => {
                if e.contains("busy") || e.contains("queue-full") {
                    rejects += 1;
                }
                out.attempt(Err(e));
            }
        }
    }
    for _ in &ok {
        out.attempt(Ok(()));
    }
    (ok, rejects)
}

/// The `server.*` metrics of a set of sessions. `inproc_s[i]` is the
/// in-process run time of cell `i`; `cpu_s` the daemon's CPU time.
fn server_metrics(
    sessions: &[(usize, Session)],
    inproc_s: &[f64],
    cpu_s: f64,
    rejects: u64,
    out: &mut Run,
) {
    let col =
        |f: &dyn Fn(&Session) -> f64| -> Vec<f64> { sessions.iter().map(|(_, s)| f(s)).collect() };
    let ms = |f: &dyn Fn(&Session) -> f64| median(&col(f)) * 1e3;
    out.put("server.create_ms", ms(&|s| s.create_s));
    out.put("server.start_ms", ms(&|s| s.start_s));
    out.put("server.status_ms", ms(&|s| s.status_s));
    out.put("server.kill_ms", ms(&|s| s.kill_s));
    out.put("server.run_ms", ms(&|s| s.run_s));
    let ratios: Vec<f64> = sessions
        .iter()
        .map(|(i, s)| s.run_s / inproc_s[*i])
        .collect();
    out.put("server.overhead_ratio", median(&ratios));
    out.put(
        "server.ckpts_per_session",
        median(&col(&|s| s.ckpts as f64)),
    );
    out.put(
        "server.state_mb_per_session",
        median(&col(&|s| s.state_bytes as f64)) / (1024.0 * 1024.0),
    );
    out.put(
        "server.cpu_ms_per_session",
        cpu_s * 1e3 / sessions.len().max(1) as f64,
    );
    out.put("server.restarts", col(&|s| s.restarts as f64).iter().sum());
    out.put("server.rejects", rejects as f64);
}

fn cells(opts: &Opts) -> Vec<Cell> {
    let scale = if opts.smoke { 300 } else { SCALE_16 };
    ProtocolVariant::ALL
        .iter()
        .map(|&variant| Cell {
            variant,
            engine: Engine::Serial,
            app: "SPECweb",
            width: 4,
            height: 4,
            ops: scale,
            seed: opts.seed,
        })
        .collect()
}

/// The `ringd16` workload.
pub fn run(opts: &Opts, tr: &mut Tracer, out: &mut Run) -> Calibration {
    let mut cal = Calibration::default();
    let cells = cells(opts);
    // In-process references (untimed): the digests every session must
    // reproduce, and the simulated-machine metrics.
    let mut refs: Vec<Outcome> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match cells::run(cell, tr, REFERENCE_UNITS + i as u64) {
            Ok(o) => refs.push(o),
            Err(e) => {
                out.attempt(Err(e));
                return cal;
            }
        }
    }
    let digests: Vec<u64> = refs.iter().map(|o| o.digest).collect();
    if crate::library::pinned(opts) {
        let observed: Vec<_> = cells
            .iter()
            .map(|c| c.variant)
            .zip(digests.iter().copied())
            .collect();
        for check in oracle::pin_checks("ringd16", &oracle::RINGD16_PINS, &observed) {
            out.attempt(check);
        }
    }
    let uncorq = ProtocolVariant::ALL
        .iter()
        .position(|&v| v == ProtocolVariant::Uncorq)
        .expect("uncorq is a variant");
    let (want, events) = (refs[uncorq].digest, refs[uncorq].report.stats.events);
    out.attempt(
        oracle::resumed_digest(&cells[uncorq], events, &opts.run_dir).and_then(|got| {
            (got == want)
                .then_some(())
                .ok_or_else(|| format!("{}: resumed digest differs", cells[uncorq].label()))
        }),
    );

    // Set-up: daemon start until its socket is up; the last start is
    // the daemon the loop runs against.
    let reps = if opts.smoke { 3 } else { SPAWN_REPS };
    let mut spawn_s = Vec::new();
    let mut daemon = None;
    for k in 0..reps {
        cal.sample();
        match Daemon::spawn(&opts.bin_dir, &opts.run_dir.join(format!("d{k}"))) {
            Ok((d, secs)) => {
                spawn_s.push(secs);
                if k + 1 == reps {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                out.attempt(Err(e));
                return cal;
            }
        }
    }
    let Some(d) = daemon else { return cal };

    let stop = if opts.smoke {
        Stop::Sessions(SMOKE_SESSIONS)
    } else {
        Stop::After(Instant::now() + Duration::from_secs_f64(opts.seconds))
    };
    let cpu0 = crate::host::cpu_seconds(Some(d.pid())).unwrap_or(f64::NAN);
    let results = closed_loop(&d, &cells, CLIENTS, stop, tr, &mut cal);
    let cpu_s = crate::host::cpu_seconds(Some(d.pid())).unwrap_or(f64::NAN) - cpu0;
    let peak_mb = crate::host::memory_mb(Some(d.pid()), "VmHWM");
    out.attempt(d.shutdown());
    let (sessions, rejects) = checked(results, &digests, out);
    if sessions.is_empty() {
        out.attempt(Err("no ringd session finished".to_string()));
        return cal;
    }

    let round: Vec<&ring_system::Report> = refs.iter().map(|o| &o.report).collect();
    if opts.traced {
        let units: Vec<Vec<Outcome>> = refs.iter().map(|o| vec![o.clone()]).collect();
        crate::library::layer_metrics(&units, &round, tr, out);
        let inproc: Vec<f64> = refs.iter().map(|o| o.run_s).collect();
        server_metrics(&sessions, &inproc, cpu_s, rejects, out);
        crate::layers::probe(&cells[uncorq], tr, out, &opts.run_dir);
        return cal;
    }
    // Per spec: the latencies of its sessions, in reference seconds.
    // Throughput comes from each spec's best session, as the library
    // workloads take it from each cell's best run.
    let scale = cal.scale();
    let latency = |i: usize| -> Vec<f64> {
        sessions
            .iter()
            .filter(|(j, _)| *j == i)
            .map(|(_, s)| s.latency_s * scale)
            .collect()
    };
    let specs: Vec<usize> = (0..cells.len())
        .filter(|&i| !latency(i).is_empty())
        .collect();
    let best_s: f64 = specs.iter().map(|&i| best(&latency(i))).sum();
    let per_spec = |f: fn(&ring_system::Report) -> u64| -> f64 {
        specs.iter().map(|&i| f(&refs[i].report) as f64).sum()
    };
    out.put("events_per_s", per_spec(|r| r.stats.events) / best_s);
    out.put("sim_ops_per_s", per_spec(|r| r.stats.ops_retired) / best_s);
    out.put(
        "job_p50_s",
        specs.iter().map(|&i| median(&latency(i))).sum::<f64>() / specs.len() as f64,
    );
    out.put("setup_s", median(&spawn_s) * scale);
    if let Some(mb) = peak_mb {
        out.put("peak_rss_mb", mb);
    }
    out.put(
        "sim_cycles",
        round.iter().map(|r| r.exec_cycles as f64).sum(),
    );
    out.put(
        "sim_read_latency_cycles",
        crate::library::read_latency(&round),
    );
    cal
}

/// The server probe of a library workload's traced pass: two sessions
/// of the probe cell through a fresh daemon, one after the other.
pub fn probe(opts: &Opts, cell: &Cell, reference: Reference, tr: &mut Tracer, out: &mut Run) {
    let d = match Daemon::spawn(&opts.bin_dir, &opts.run_dir.join("probe")) {
        Ok((d, _)) => d,
        Err(e) => return out.attempt(Err(e)),
    };
    let cpu0 = crate::host::cpu_seconds(Some(d.pid())).unwrap_or(f64::NAN);
    let mut cal = Calibration::default();
    let results = closed_loop(
        &d,
        std::slice::from_ref(cell),
        1,
        Stop::Sessions(2),
        tr,
        &mut cal,
    );
    let cpu_s = crate::host::cpu_seconds(Some(d.pid())).unwrap_or(f64::NAN) - cpu0;
    out.attempt(d.shutdown());
    let (sessions, rejects) = checked(results, &[reference.digest], out);
    if !sessions.is_empty() {
        server_metrics(&sessions, &[reference.run_s], cpu_s, rejects, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(digest: u64) -> Session {
        Session {
            variant: ProtocolVariant::Uncorq,
            latency_s: 0.3,
            create_s: 0.01,
            start_s: 0.01,
            run_s: 0.25,
            status_s: 0.01,
            kill_s: 0.01,
            digest,
            restarts: 0,
            ckpts: 0,
            state_bytes: 0,
        }
    }

    #[test]
    fn sessions_must_reproduce_the_in_process_digest() {
        let mut out = Run::new("ringd16", 1, false);
        let results = vec![
            (0, Ok(session(7))),
            (1, Ok(session(8))),
            (
                0,
                Err("ringctl start s2: busy: at the concurrent-session cap".to_string()),
            ),
        ];
        let (ok, rejects) = checked(results, &[7, 9], &mut out);
        assert_eq!(ok.len(), 1);
        assert_eq!(rejects, 1);
        assert_eq!(out.failures().len(), 2, "{:?}", out.failures());
        assert!(out.failures()[0].contains("differs from in-process"));
    }
}
