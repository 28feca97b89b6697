//! Property tests for the daemon's robustness promise: *no input a
//! client can produce panics the server*.
//!
//! Two layers are driven independently:
//!
//! - the frame parser, with arbitrary byte soup (malformed frames are
//!   always typed `bad-frame`/`bad-version` errors), and
//! - the supervisor, with arbitrary command sequences over a small
//!   session namespace (double-start, restore-into-running,
//!   subscribe-then-kill, stepping ghosts, … are all typed errors, and
//!   every error kind observed is one the protocol names).

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use ring_server::{session_base, ErrorKind, Request, ServerConfig, Supervisor};
use ring_system::RunSpec;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_root() -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ring-proptest-sup-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_spec() -> RunSpec {
    RunSpec {
        ops: Some(40),
        ..session_base()
    }
}

/// The supervisor commands the generator can issue, by opcode.
const OPS: usize = 10;
/// The tiny session namespace: two real names plus a ghost that is
/// never created successfully (exercising unknown-session paths).
const NAMES: [&str; 3] = ["a", "b", "ghost-#"];

fn apply(sup: &mut Supervisor, op: u8, name: &str) -> Option<ErrorKind> {
    let err = match op as usize % OPS {
        0 => sup.create(name, tiny_spec(), None).err(),
        1 => sup.start(name).err(),
        2 => sup.pause(name).err(),
        3 => sup.step(name, 64).err(),
        4 => sup.snapshot(name).err(),
        5 => sup.restore(name).err(),
        6 => sup.subscribe(name, 4).map(|_| ()).err(),
        7 => sup.kill(name).err(),
        8 => sup.status(Some(name)).err(),
        _ => {
            sup.poll();
            None
        }
    };
    err.map(|e| e.kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary command sequences never panic the supervisor, and
    /// every refusal is one of the protocol's typed kinds.
    #[test]
    fn arbitrary_command_sequences_never_panic(
        ops in collection::vec((0u8..10, 0u8..3), 1..32),
    ) {
        let root = fresh_root();
        let mut cfg = ServerConfig::new(&root);
        cfg.max_sessions = 2;
        cfg.max_running = 1;
        cfg.queue_cap = 1;
        cfg.checkpoint_every = 500;
        cfg.slice_events = 512;
        let mut sup = Supervisor::new(cfg);
        for (op, which) in ops {
            // "ghost-#" is an illegal directory name, so `create` on it
            // fails and it stays a permanent unknown-session probe.
            let name = NAMES[which as usize % NAMES.len()];
            if let Some(kind) = apply(&mut sup, op, name) {
                prop_assert!(
                    ErrorKind::ALL.contains(&kind),
                    "untyped error kind {kind:?}"
                );
            }
        }
        sup.poll();
        for name in sup.session_names() {
            let _ = sup.kill(&name);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Arbitrary byte soup never panics the frame parser; whatever
    /// comes back is a typed error or a legal request.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in collection::vec(0u16..256, 0..160),
    ) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let line = String::from_utf8_lossy(&raw);
        match Request::parse(&line) {
            Ok(_) => {}
            Err((_, err)) => prop_assert!(ErrorKind::ALL.contains(&err.kind)),
        }
    }

    /// JSON-shaped soup (balanced braces, random keys) exercises the
    /// deeper parse paths: still no panic, still typed.
    #[test]
    fn json_shaped_soup_never_panics(
        v in 0u64..9,
        cmd_tag in 0u8..12,
        session_tag in 0u8..4,
        depth in 0u8..40,
    ) {
        let cmds = [
            "create", "start", "pause", "step", "status", "snapshot",
            "restore", "subscribe", "kill", "shutdown", "warp", "",
        ];
        let sessions = ["a", "", "x/../y", "\u{1F980}"];
        let cmd = cmds[cmd_tag as usize % cmds.len()];
        let session = sessions[session_tag as usize % sessions.len()];
        let nest = "[".repeat(depth as usize);
        let line = format!(
            r#"{{"v":{v},"id":"p","cmd":"{cmd}","session":"{session}","spec":{{"scale":{nest}1}}}}"#
        );
        match Request::parse(&line) {
            Ok(req) => prop_assert!(!req.cmd.name().is_empty()),
            Err((id, err)) => {
                prop_assert!(ErrorKind::ALL.contains(&err.kind));
                prop_assert!(id == "p" || id.is_empty());
            }
        }
    }
}
