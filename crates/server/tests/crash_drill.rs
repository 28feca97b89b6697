//! The crash drill: `kill -9` the real `ringd` binary mid-run with two
//! concurrent sessions, corrupt the newest snapshot of one of them,
//! restart the daemon, and prove both sessions resume and finish with
//! **byte-identical** reports — the corrupted candidate is fallen past
//! (typed, logged), never trusted.
//!
//! The drill is deterministic: sessions are advanced to a known point
//! with `step` (so checkpoints exist at known cadence) rather than by
//! racing wall-clock against the simulator.

use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::time::Duration;

use ring_trace::json::Json;

fn bin(var: &str) -> &'static str {
    match var {
        "ringd" => env!("CARGO_BIN_EXE_ringd"),
        "ringctl" => env!("CARGO_BIN_EXE_ringctl"),
        _ => unreachable!(),
    }
}

struct Drill {
    base: PathBuf,
    socket: PathBuf,
    root: PathBuf,
}

impl Drill {
    fn new(tag: &str) -> Drill {
        let base = std::env::temp_dir().join(format!("ring-drill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        Drill {
            socket: base.join("ringd.sock"),
            root: base.join("state"),
            base,
        }
    }

    fn spawn_daemon(&self) -> Child {
        let mut child = Proc::new(bin("ringd"))
            .args([
                "--socket",
                &self.socket.display().to_string(),
                "--state-root",
                &self.root.display().to_string(),
                "--max-running",
                "2",
                "--checkpoint-every",
                "200",
                "--checkpoint-keep",
                "3",
                "--slice",
                "256",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ringd");
        // Wait until the socket answers.
        for _ in 0..500 {
            if std::os::unix::net::UnixStream::connect(&self.socket).is_ok() {
                return child;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = child.kill();
        let _ = child.wait();
        panic!("ringd never bound its socket");
    }

    /// Runs `ringctl` and returns stdout; panics on nonzero exit unless
    /// `may_fail`.
    fn ctl(&self, args: &[&str]) -> String {
        let out = Proc::new(bin("ringctl"))
            .args(["--socket", &self.socket.display().to_string()])
            .args(args)
            .output()
            .expect("run ringctl");
        assert!(
            out.status.success(),
            "ringctl {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    }

    /// The session's `status` reply body, as `ringctl` prints it.
    fn status(&self, session: &str) -> Json {
        let out = self.ctl(&["status", session]);
        Json::parse(out.trim()).unwrap_or_else(|e| panic!("status is not JSON ({e}): {out}"))
    }

    /// Polls `status` until the session's reported cycle reaches `at`.
    fn wait_cycle(&self, session: &str, at: u64) {
        for _ in 0..600 {
            let cycle = self.status(session).get("cycle").and_then(Json::as_u64);
            if cycle.is_some_and(|c| c >= at) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("session `{session}` never reached cycle {at}");
    }
}

impl Drop for Drill {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// The uninterrupted baseline: the same spec run in-process. The worker
/// writes `report.txt` with `Report::write_stats`, so these bytes are
/// the ground truth any daemon path must reproduce exactly.
fn baseline_report(scale: u64, seed: u64) -> Vec<u8> {
    let spec = ring_system::RunSpec {
        ops: Some(scale),
        seed,
        ..ring_server::session_base()
    };
    let (cfg, profile) = spec.build().expect("baseline spec builds");
    let mut machine = ring_system::Machine::new(cfg, &profile);
    let report = machine.run();
    let mut bytes = Vec::new();
    report.write_stats(&mut bytes).expect("render baseline");
    bytes
}

/// Flips one byte in the middle of the newest checkpoint so restore
/// must detect the corruption (CRC) and fall back to an older one.
fn corrupt_newest_snapshot(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("session dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "ringsnap"))
        .collect();
    snaps.sort();
    let newest = snaps.pop().expect("at least one snapshot");
    let mut bytes = std::fs::read(&newest).expect("read snapshot");
    assert!(bytes.len() > 64, "snapshot too small to corrupt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&newest, &bytes).expect("write corrupted snapshot");
    newest
}

#[test]
fn sigkill_with_two_sessions_resumes_byte_identically_past_corruption() {
    let drill = Drill::new("sigkill");
    let mut daemon = drill.spawn_daemon();

    // Two concurrent sessions with different seeds (distinct truths).
    drill.ctl(&["create", "s1", "--scale", "40", "--seed", "2007"]);
    drill.ctl(&["create", "s2", "--scale", "40", "--seed", "4011"]);

    // Advance both mid-run deterministically; a scale-40 run lasts
    // ~1800 cycles, so cycle 700 is mid-flight with checkpoints at
    // 200/400/600 already on disk.
    drill.ctl(&["step", "s1", "100000"]);
    drill.ctl(&["step", "s2", "100000"]);
    drill.wait_cycle("s1", 700);
    drill.wait_cycle("s2", 700);

    // kill -9: no drain, no goodbye.
    daemon.kill().expect("SIGKILL ringd");
    let _ = daemon.wait();

    // Sabotage s2's newest snapshot; restore must fall back.
    let corrupted = corrupt_newest_snapshot(&drill.root.join("s2"));

    // Restart: the daemon rediscovers both sessions from manifests.
    let mut daemon = drill.spawn_daemon();
    let status = drill.status("s1");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("paused"));
    let status = drill.status("s2");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("paused"));
    let note = status.get("note").and_then(Json::as_str).unwrap_or("");
    assert!(
        note.contains("restored from"),
        "s2 should report its restore provenance, got {note:?}"
    );
    assert!(
        !note.contains(
            corrupted
                .file_name()
                .and_then(|n| n.to_str())
                .expect("snapshot name")
        ),
        "s2 must not have been restored from the corrupted snapshot: {note:?}"
    );

    // Resume both to completion and compare bytes with the
    // uninterrupted in-process baselines.
    drill.ctl(&["start", "s1"]);
    drill.ctl(&["start", "s2"]);
    drill.ctl(&["wait", "s1"]);
    drill.ctl(&["wait", "s2"]);
    let r1 = std::fs::read(drill.root.join("s1").join("report.txt")).expect("s1 report");
    let r2 = std::fs::read(drill.root.join("s2").join("report.txt")).expect("s2 report");
    assert!(!r1.is_empty() && !r2.is_empty());
    assert_eq!(
        r1,
        baseline_report(40, 2007),
        "s1 diverged after SIGKILL resume"
    );
    assert_eq!(
        r2,
        baseline_report(40, 4011),
        "s2 diverged after corrupted-fallback resume"
    );
    assert_ne!(r1, r2, "distinct seeds must yield distinct reports");

    // Graceful exit this time.
    drill.ctl(&["shutdown"]);
    let _ = daemon.wait();
}

#[test]
fn sigterm_drains_and_a_restart_resumes_exactly() {
    let drill = Drill::new("sigterm");
    let mut daemon = drill.spawn_daemon();

    drill.ctl(&["create", "s1", "--scale", "40", "--seed", "2007"]);
    drill.ctl(&["step", "s1", "100000"]);
    drill.wait_cycle("s1", 700);

    // SIGTERM: the daemon checkpoints everything and exits 0.
    let pid = daemon.id();
    let status = Proc::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let exit = daemon.wait().expect("ringd exits");
    assert!(exit.success(), "drain exit should be clean, got {exit:?}");

    // The drain checkpoint preserves the *exact* stepped-to cycle, so
    // the restarted session resumes from it (not an older periodic one).
    let mut daemon = drill.spawn_daemon();
    let status = drill.status("s1");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("paused"));
    let resumed_cycle = status
        .get("cycle")
        .and_then(Json::as_u64)
        .expect("cycle in status");
    assert!(
        resumed_cycle >= 700,
        "drain should checkpoint at the stepped-to cycle, got {resumed_cycle}"
    );

    drill.ctl(&["start", "s1"]);
    drill.ctl(&["wait", "s1"]);
    let r1 = std::fs::read(drill.root.join("s1").join("report.txt")).expect("s1 report");
    assert_eq!(
        r1,
        baseline_report(40, 2007),
        "s1 diverged after drain+resume"
    );

    drill.ctl(&["shutdown"]);
    let _ = daemon.wait();
}
