//! End-to-end tests over a real Unix socket: a `ringd` accept loop in a
//! background thread, driven through the `ringctl` client library.
//!
//! Proves the wire-level robustness promises:
//!
//! - overload is typed (`busy` at the session cap, `queue-full` past
//!   the run-slot FIFO), never a hang;
//! - a slow subscriber gets counted-drop gap markers and the
//!   simulation's results are byte-identical to an unsubscribed run
//!   (observation never perturbs the machine);
//! - a subscriber that attaches before `start` gets the in-process
//!   run's exact event sequence, and one that attaches while the
//!   session is held gets a contiguous suffix of it;
//! - a session's report files never appear before its state says
//!   `finished`;
//! - the daemon hosts what the CLI runs: a drop20 + reliable session
//!   writes the report of an in-process run of the same `RunSpec`, and
//!   a spec it cannot host (HT, an invalid machine) is a typed
//!   `bad-spec`;
//! - a request line past `MAX_FRAME_BYTES` gets a typed `bad-frame`
//!   and a closed connection, while other clients are served;
//! - a `shutdown` frame drains gracefully.
//!
//! The daemon's shutdown flag is process-global, so every test
//! serializes on [`TEST_LOCK`].

use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

use ring_server::{daemon, session_base, Client, Command, ErrorKind, ServerConfig};
use ring_system::{Machine, Protocol, RunSpec};
use ring_trace::json::Json;
use ring_trace::SharedBufferSink;

static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

struct Harness {
    socket: PathBuf,
    root: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Harness {
    fn launch(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> Harness {
        let base = std::env::temp_dir().join(format!("ring-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let socket = base.join("ringd.sock");
        let root = base.join("state");
        let mut cfg = ServerConfig::new(&root);
        cfg.checkpoint_every = 500;
        cfg.slice_events = 512;
        tweak(&mut cfg);
        let thread = {
            let socket = socket.clone();
            std::thread::spawn(move || daemon::serve(&socket, cfg))
        };
        // The daemon binds promptly; retry until the socket answers.
        for _ in 0..200 {
            if Client::connect(&socket).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Harness {
            socket,
            root,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("daemon reachable")
    }

    fn status(&self, session: &str) -> Json {
        self.client()
            .request(Command::Status {
                session: Some(session.to_string()),
            })
            .expect("status")
            .body
    }

    fn wait_state(&self, session: &str, want: &[&str]) -> String {
        let mut client = self.client();
        for _ in 0..600 {
            let reply = client
                .request(Command::Status {
                    session: Some(session.to_string()),
                })
                .expect("status");
            let state = reply
                .body
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            if want.contains(&state.as_str()) {
                return state;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("session `{session}` never reached {want:?}");
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        daemon::request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(base) = self.root.parent() {
            let _ = std::fs::remove_dir_all(base);
        }
    }
}

fn tiny_spec() -> RunSpec {
    RunSpec {
        ops: Some(40),
        ..session_base()
    }
}

/// The trace events of an in-process run of `spec`, as the lines a
/// subscription streams them.
fn in_process_stream(spec: &RunSpec) -> Vec<String> {
    let (cfg, profile) = spec.build().expect("spec builds");
    let sink = SharedBufferSink::new();
    let mut m = Machine::new(cfg, &profile);
    m.set_trace_sink(Box::new(sink.clone()));
    m.try_run().expect("reference run");
    sink.snapshot()
        .iter()
        .map(|ev| format!("{{\"ev\":{}}}", ev.to_jsonl()))
        .collect()
}

/// Reads a subscription to its end: the event lines, then the end line.
/// Any gap marker fails the test.
fn read_stream(sub: BufReader<UnixStream>) -> (Vec<String>, String) {
    let mut events = Vec::new();
    for line in sub.lines() {
        let line = line.expect("stream line");
        if line.starts_with("{\"ev\":") {
            events.push(line);
        } else {
            assert!(line.starts_with("{\"end\":"), "unexpected line {line}");
            return (events, line);
        }
    }
    panic!("the stream closed without an end line");
}

#[test]
fn lifecycle_overload_and_graceful_shutdown() {
    let _guard = serialized();
    let h = Harness::launch("lifecycle", |cfg| {
        cfg.max_sessions = 2;
        cfg.max_running = 1;
        cfg.queue_cap = 1;
    });
    let mut c = h.client();

    // Create up to the cap; one more is a typed `busy`.
    for name in ["a", "b"] {
        c.request(Command::Create {
            session: name.into(),
            spec: tiny_spec(),
            inject_panic_at: None,
        })
        .expect("create");
    }
    let err = c
        .request(Command::Create {
            session: "c".into(),
            spec: tiny_spec(),
            inject_panic_at: None,
        })
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::Busy);

    // One run slot: the second start queues; with the queue full a
    // fresh session (after killing one) gets `queue-full`.
    c.request(Command::Start {
        session: "a".into(),
    })
    .expect("start a");
    let reply = c
        .request(Command::Start {
            session: "b".into(),
        })
        .expect("start b");
    let state_b = reply
        .body
        .get("state")
        .and_then(Json::as_str)
        .map(str::to_string);
    // `a` may already have finished (tiny run) — then `b` runs instead
    // of queueing. Both are legal; only the typed overload matters.
    assert!(
        matches!(state_b.as_deref(), Some("queued") | Some("running")),
        "unexpected start reply {state_b:?}"
    );

    // Double-start is typed invalid-state.
    let err = c
        .request(Command::Start {
            session: "b".into(),
        })
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::InvalidState);

    // Unknown session is typed.
    let err = c
        .request(Command::Status {
            session: Some("ghost".into()),
        })
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::UnknownSession);

    // Both finish; the final report is served in status.
    h.wait_state("a", &["finished"]);
    h.wait_state("b", &["finished"]);
    let reply = c
        .request(Command::Status {
            session: Some("a".into()),
        })
        .expect("status a");
    let report = reply
        .body
        .get("report")
        .and_then(Json::as_str)
        .unwrap_or("");
    assert!(
        report.contains("cycles"),
        "report should render stats, got {report:?}"
    );

    // Malformed frames over the real socket are typed, not fatal.
    let err = c
        .request(Command::Step {
            session: "a".into(),
            events: 1,
        })
        .unwrap_err();
    assert_eq!(err.kind, ErrorKind::InvalidState);

    // Graceful shutdown via the wire.
    let reply = c.request(Command::Shutdown).expect("shutdown");
    assert_eq!(
        reply.body.get("draining").and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn slow_subscriber_gets_gaps_and_never_perturbs_results() {
    let _guard = serialized();
    let h = Harness::launch("fanout", |cfg| {
        cfg.max_sessions = 4;
        cfg.max_running = 2;
    });
    let mut c = h.client();

    // Session 1: unsubscribed baseline.
    c.request(Command::Create {
        session: "solo".into(),
        spec: tiny_spec(),
        inject_panic_at: None,
    })
    .expect("create solo");
    c.request(Command::Start {
        session: "solo".into(),
    })
    .expect("start solo");
    h.wait_state("solo", &["finished"]);

    // Session 2: same spec, with a deliberately tiny subscriber buffer.
    c.request(Command::Create {
        session: "subbed".into(),
        spec: tiny_spec(),
        inject_panic_at: None,
    })
    .expect("create subbed");
    let sub = h
        .client()
        .subscribe("subbed", 2)
        .expect("subscribe before start");
    c.request(Command::Start {
        session: "subbed".into(),
    })
    .expect("start subbed");

    // Drain the stream slowly enough that the 2-slot buffer overflows.
    let mut events = 0u64;
    let mut gap_total = 0u64;
    let mut ended = false;
    for line in sub.lines() {
        let Ok(line) = line else { break };
        let v = Json::parse(&line).expect("stream lines are JSON");
        if v.get("ev").is_some() {
            events += 1;
        } else if let Some(n) = v.get("gap").and_then(Json::as_u64) {
            gap_total += n;
        } else if v.get("end").is_some() {
            ended = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(ended, "stream should end with the session");
    assert!(events > 0, "some events must get through");
    assert!(
        gap_total > 0,
        "a 2-slot buffer on a full run must drop (and count) events"
    );

    // The observed session's results are byte-identical to the
    // unsubscribed baseline: observation never perturbs simulation.
    h.wait_state("subbed", &["finished"]);
    let solo = std::fs::read(h.root.join("solo").join("report.txt")).expect("solo report");
    let subbed = std::fs::read(h.root.join("subbed").join("report.txt")).expect("subbed report");
    assert!(!solo.is_empty());
    assert_eq!(
        solo, subbed,
        "subscriber backpressure changed the simulation"
    );
}

#[test]
fn raw_socket_garbage_is_typed_and_nonfatal() {
    let _guard = serialized();
    let h = Harness::launch("garbage", |_| {});
    // Write garbage straight onto the socket.
    use std::io::Write;
    let mut s = std::os::unix::net::UnixStream::connect(&h.socket).expect("connect");
    s.write_all(b"\x00\xffnot json at all\n{\"v\":99,\"cmd\":\"status\"}\n")
        .expect("write");
    let mut reader = std::io::BufReader::new(s.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply 1");
    assert!(line.contains("bad-frame"), "got {line:?}");
    line.clear();
    reader.read_line(&mut line).expect("reply 2");
    assert!(line.contains("bad-version"), "got {line:?}");
    // The daemon survived: a real client still works.
    let mut c = h.client();
    c.request(Command::Status { session: None })
        .expect("status after garbage");
}

#[test]
fn an_overlong_request_line_is_refused_and_closed() {
    use std::io::Write;
    let _guard = serialized();
    let h = Harness::launch("overlong", |_| {});
    let mut s = UnixStream::connect(&h.socket).expect("connect");
    // Open a line without ending it: that connection is mid-frame while
    // another client is served.
    s.write_all(&[b'x'; 1024]).expect("start a line");
    let reply = h
        .client()
        .request(Command::Status { session: None })
        .expect("status beside an unterminated line");
    assert!(reply.body.get("sessions").is_some());
    // 2 MiB more and still no newline. The daemon stops reading past the
    // bound and hangs up, so this write fails partway; the reply is what
    // counts.
    let mut w = s.try_clone().expect("clone");
    let writer = std::thread::spawn(move || w.write_all(&vec![b'x'; 2 << 20]).is_ok());
    let mut reader = BufReader::new(s);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("reply to the over-long line");
    assert!(line.contains("bad-frame"), "got {line:?}");
    assert!(
        line.contains(&daemon::MAX_FRAME_BYTES.to_string()),
        "the reply names the limit: {line:?}"
    );
    // Then the daemon hangs up: end of stream (or a reset, since it left
    // the rest of the line unread).
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "got {line:?}");
    assert!(
        !writer.join().expect("writer thread"),
        "the daemon must not take all 2 MiB"
    );
}

#[test]
fn subscriber_before_start_gets_the_in_process_event_sequence() {
    let _guard = serialized();
    let h = Harness::launch("complete", |_| {});
    let want = in_process_stream(&tiny_spec());
    let mut c = h.client();
    c.request(Command::Create {
        session: "obs".into(),
        spec: tiny_spec(),
        inject_panic_at: None,
    })
    .expect("create");
    let sub = h.client().subscribe("obs", 1 << 20).expect("subscribe");
    c.request(Command::Start {
        session: "obs".into(),
    })
    .expect("start");
    let (got, end) = read_stream(sub);
    assert_eq!(end, r#"{"end":"finished"}"#);
    assert_eq!(got.len(), want.len(), "event count differs");
    assert!(got == want, "the stream differs from the in-process trace");
}

#[test]
fn subscriber_of_a_held_session_gets_a_contiguous_suffix() {
    let _guard = serialized();
    let h = Harness::launch("suffix", |_| {});
    let want = in_process_stream(&tiny_spec());
    let mut c = h.client();
    c.request(Command::Create {
        session: "held".into(),
        spec: tiny_spec(),
        inject_panic_at: None,
    })
    .expect("create");
    // Run 2000 events unobserved, and wait until the worker holds.
    c.request(Command::Step {
        session: "held".into(),
        events: 2000,
    })
    .expect("step");
    for _ in 0..1000 {
        if h.status("held").get("events").and_then(Json::as_u64) == Some(2000) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        h.status("held").get("events").and_then(Json::as_u64),
        Some(2000),
        "the step never completed"
    );
    let sub = h.client().subscribe("held", 1 << 20).expect("subscribe");
    c.request(Command::Start {
        session: "held".into(),
    })
    .expect("start");
    let (got, end) = read_stream(sub);
    assert_eq!(end, r#"{"end":"finished"}"#);
    assert!(
        !got.is_empty() && got.len() < want.len(),
        "expected a proper suffix: {} of {} events",
        got.len(),
        want.len()
    );
    assert!(
        want.ends_with(&got),
        "the stream is not a contiguous suffix of the in-process trace"
    );
}

#[test]
fn report_files_never_precede_the_finished_state() {
    let _guard = serialized();
    let h = Harness::launch("report", |_| {});
    let mut c = h.client();
    for i in 0..16 {
        let name = format!("r{i}");
        c.request(Command::Create {
            session: name.clone(),
            spec: tiny_spec(),
            inject_panic_at: None,
        })
        .expect("create");
        c.request(Command::Start {
            session: name.clone(),
        })
        .expect("start");
        let report = h.root.join(&name).join("report.json");
        for _ in 0..30_000 {
            if report.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(report.exists(), "{name} wrote no report");
        let reply = c
            .request(Command::Status {
                session: Some(name.clone()),
            })
            .expect("status");
        assert_eq!(
            reply.body.get("state").and_then(Json::as_str),
            Some("finished"),
            "{name}: report.json exists but the state is not finished"
        );
        c.request(Command::Kill { session: name }).expect("kill");
    }
}

/// The daemon hosts the lossy runs the CLI can: a drop20 session over
/// the reliable-delivery sublayer writes exactly the report of an
/// in-process run built from the same run description.
#[test]
fn lossy_reliable_session_matches_the_in_process_run() {
    let _guard = serialized();
    let h = Harness::launch("lossy", |_| {});
    let spec = RunSpec {
        chaos: Some(42),
        chaos_profile: Some("drop20".into()),
        reliable: true,
        ..tiny_spec()
    };
    let (cfg, profile) = spec.build().expect("spec builds");
    assert!(cfg.faults.is_some() && cfg.reliability.enabled);
    let mut want = Vec::new();
    Machine::new(cfg, &profile)
        .run()
        .write_stats(&mut want)
        .expect("render the reference report");
    let mut c = h.client();
    c.request(Command::Create {
        session: "lossy".into(),
        spec,
        inject_panic_at: None,
    })
    .expect("create");
    c.request(Command::Start {
        session: "lossy".into(),
    })
    .expect("start");
    // report.json is written after report.txt.
    let dir = h.root.join("lossy");
    for _ in 0..30_000 {
        if dir.join("report.json").exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let got = std::fs::read(dir.join("report.txt")).expect("lossy report");
    assert!(
        got == want,
        "the session's report differs from the in-process run"
    );
}

/// `create` refuses what the daemon cannot host with a typed
/// `bad-spec`: the HT machine, and a machine that fails validation.
#[test]
fn unhostable_specs_are_typed_bad_spec() {
    let _guard = serialized();
    let h = Harness::launch("badspec", |_| {});
    let mut c = h.client();
    for (name, spec) in [
        (
            "h",
            RunSpec {
                protocol: Protocol::Ht,
                ..tiny_spec()
            },
        ),
        (
            "thin",
            RunSpec {
                width: 1,
                ..tiny_spec()
            },
        ),
    ] {
        let err = c
            .request(Command::Create {
                session: name.into(),
                spec,
                inject_panic_at: None,
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadSpec, "{name}: {}", err.detail);
    }
}
