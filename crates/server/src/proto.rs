//! The versioned line-delimited JSON protocol `ringd` speaks.
//!
//! One request per line, one response per line. Every frame carries the
//! protocol version (`"v":1`) and a client-chosen correlation id; a
//! version the daemon does not speak is refused with a typed
//! `bad-version` error rather than guessed at. Malformed bytes — not
//! JSON, missing fields, wrong types — are *always* a typed `bad-frame`
//! error; no input a client can write may panic the daemon (the
//! proptest suite drives this promise with arbitrary byte soup).
//!
//! ```text
//! → {"v":1,"id":"1","cmd":"create","session":"a","spec":{...}}
//! ← {"v":1,"id":"1","ok":true,"session":"a"}
//! → {"v":1,"id":"2","cmd":"start","session":"a"}
//! ← {"v":1,"id":"2","ok":false,"error":{"kind":"queue-full","detail":"..."}}
//! ```

use std::collections::BTreeMap;
use std::fmt;

use ring_coherence::ProtocolVariant;
use ring_system::{field, FieldKind, FieldValue, Protocol, RunSpec, SpecError, FIELDS};

use ring_trace::json::{obj, Json};

/// The one protocol version this build speaks.
pub const PROTO_VERSION: u64 = 1;

/// The daemon-only drill key of a session spec: the worker panics once
/// when the session first reaches this cycle, so supervision drills are
/// deterministic. It describes the daemon's test, not the machine, so
/// it is no [`RunSpec`] field.
pub const INJECT_PANIC_AT: &str = "inject_panic_at";

/// The base every session spec is read on: uncorq on `fmm`, a 4×4
/// machine, 120 ops per core, a 50 M-cycle cap and a 2 M-cycle
/// watchdog, at seed 2007.
pub fn session_base() -> RunSpec {
    RunSpec {
        ops: Some(120),
        width: 4,
        height: 4,
        max_cycles: 50_000_000,
        watchdog: 2_000_000,
        ..RunSpec::paper(Protocol::Ring(ProtocolVariant::Uncorq))
    }
}

/// Reads a session spec's key → text map (a manifest's fields, or a
/// create frame's members as text) on [`session_base`], taking the
/// drill key out first.
///
/// # Errors
///
/// The typed [`SpecError`] of the first key that does not read.
pub(crate) fn session_spec(
    mut fields: BTreeMap<String, String>,
) -> Result<(RunSpec, Option<u64>), SpecError> {
    let panic_at = fields
        .remove(INJECT_PANIC_AT)
        .map(|text| {
            text.parse().map_err(|_| SpecError::BadValue {
                key: INJECT_PANIC_AT,
                value: text,
                expected: "a cycle count",
            })
        })
        .transpose()?;
    Ok((RunSpec::from_fields(session_base(), &fields)?, panic_at))
}

/// The inverse of [`session_spec`]: the fields a manifest records.
pub(crate) fn spec_fields(
    spec: &RunSpec,
    inject_panic_at: Option<u64>,
) -> BTreeMap<String, String> {
    let mut fields = spec.to_fields();
    if let Some(cycle) = inject_panic_at {
        fields.insert(INJECT_PANIC_AT.to_string(), cycle.to_string());
    }
    fields
}

/// A create frame's `spec` object: one member per field-table row,
/// typed by the row's kind, plus the drill key.
fn spec_json(spec: &RunSpec, inject_panic_at: Option<u64>) -> Json {
    let mut members: BTreeMap<String, Json> = FIELDS
        .iter()
        .filter_map(|f| {
            let v = match (f.write)(spec)? {
                FieldValue::Uint(n) => Json::Uint(n),
                FieldValue::Bool(b) => Json::Bool(b),
                FieldValue::Text(t) => Json::Str(t),
            };
            Some((f.key.to_string(), v))
        })
        .collect();
    if let Some(cycle) = inject_panic_at {
        members.insert(INJECT_PANIC_AT.to_string(), Json::Uint(cycle));
    }
    Json::Obj(members)
}

/// Reads a create frame's `spec` object: a string for a text row, an
/// integer or a boolean for any other key; then as [`session_spec`].
fn spec_from_json(v: &Json) -> Result<(RunSpec, Option<u64>), SpecError> {
    let Json::Obj(members) = v else {
        return Err(SpecError::BadValue {
            key: "spec",
            value: v.render(),
            expected: "an object",
        });
    };
    let mut fields = BTreeMap::new();
    for (key, value) in members {
        let (key, kind) = match field(key) {
            Some(f) => (f.key, f.kind),
            None if key == INJECT_PANIC_AT => (INJECT_PANIC_AT, FieldKind::Uint),
            None => return Err(SpecError::UnknownKey(key.clone())),
        };
        let text = match (value, kind) {
            (Json::Str(s), FieldKind::Text) => s.clone(),
            (Json::Uint(n), FieldKind::Uint | FieldKind::Bool) => n.to_string(),
            (Json::Bool(b), FieldKind::Uint | FieldKind::Bool) => b.to_string(),
            (other, _) => {
                return Err(SpecError::BadValue {
                    key,
                    value: other.render(),
                    expected: if kind == FieldKind::Text {
                        "a string"
                    } else {
                        "a non-negative integer or a boolean"
                    },
                })
            }
        };
        fields.insert(key.to_string(), text);
    }
    session_spec(fields)
}

/// Typed failure classes a response can carry. The wire name is the
/// kebab-case form ([`ErrorKind::name`]); clients branch on it, never
/// on the human-readable detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The daemon is at its concurrent-session cap.
    Busy,
    /// The run-slot wait queue is full.
    QueueFull,
    /// No such session.
    UnknownSession,
    /// The request line is not a well-formed frame.
    BadFrame,
    /// The frame's protocol version is not spoken here.
    BadVersion,
    /// The command is legal but not in the session's current state
    /// (double-start, restore-into-running, …).
    InvalidState,
    /// A snapshot operation failed (the detail carries the typed
    /// [`ring_snapshot::SnapshotError`] rendering).
    Snapshot,
    /// The session hit its forward-progress watchdog; the detail
    /// carries the stall report.
    Stalled,
    /// The session spec is invalid.
    BadSpec,
    /// Anything else (the catch-all the daemon uses instead of dying).
    Internal,
}

impl ErrorKind {
    /// Every kind, for table-driven tests.
    pub const ALL: [ErrorKind; 10] = [
        ErrorKind::Busy,
        ErrorKind::QueueFull,
        ErrorKind::UnknownSession,
        ErrorKind::BadFrame,
        ErrorKind::BadVersion,
        ErrorKind::InvalidState,
        ErrorKind::Snapshot,
        ErrorKind::Stalled,
        ErrorKind::BadSpec,
        ErrorKind::Internal,
    ];

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::QueueFull => "queue-full",
            ErrorKind::UnknownSession => "unknown-session",
            ErrorKind::BadFrame => "bad-frame",
            ErrorKind::BadVersion => "bad-version",
            ErrorKind::InvalidState => "invalid-state",
            ErrorKind::Snapshot => "snapshot",
            ErrorKind::Stalled => "stalled",
            ErrorKind::BadSpec => "bad-spec",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name.
    pub fn by_name(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed protocol error: the kind clients branch on plus a
/// human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable class.
    pub kind: ErrorKind,
    /// Human-readable context.
    pub detail: String,
}

impl WireError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        WireError {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for WireError {}

/// One command a client can issue.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Admit a new session built from `spec`.
    Create {
        /// Session name (also its state-directory name).
        session: String,
        /// What to simulate.
        spec: RunSpec,
        /// Drill: the cycle at which the worker panics once.
        inject_panic_at: Option<u64>,
    },
    /// Start (or resume) a session, subject to run-slot admission.
    Start {
        /// Target session.
        session: String,
    },
    /// Pause a running (or queued) session at the next event boundary.
    Pause {
        /// Target session.
        session: String,
    },
    /// Execute exactly `events` events while otherwise paused.
    Step {
        /// Target session.
        session: String,
        /// Event budget.
        events: u64,
    },
    /// Report daemon or per-session status.
    Status {
        /// Restrict to one session (`None` = all).
        session: Option<String>,
    },
    /// Write an integrity-verified snapshot now.
    Snapshot {
        /// Target session.
        session: String,
    },
    /// Rebuild the session from its newest valid snapshot.
    Restore {
        /// Target session.
        session: String,
    },
    /// Stream trace events (bounded buffer, counted-drop gap markers).
    Subscribe {
        /// Target session.
        session: String,
        /// Subscriber buffer capacity in deliveries.
        buffer: u64,
    },
    /// Stop a session and forget it (its state directory survives).
    Kill {
        /// Target session.
        session: String,
    },
    /// Gracefully drain and stop the daemon.
    Shutdown,
}

impl Command {
    /// Wire name of the command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Create { .. } => "create",
            Command::Start { .. } => "start",
            Command::Pause { .. } => "pause",
            Command::Step { .. } => "step",
            Command::Status { .. } => "status",
            Command::Snapshot { .. } => "snapshot",
            Command::Restore { .. } => "restore",
            Command::Subscribe { .. } => "subscribe",
            Command::Kill { .. } => "kill",
            Command::Shutdown => "shutdown",
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed into the response.
    pub id: String,
    /// The command.
    pub cmd: Command,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::BadFrame`] for anything that is not a well-formed
    /// frame, [`ErrorKind::BadVersion`] for a version this build does
    /// not speak. The returned error is safe to send as a response
    /// (with id `""` when no id could be recovered).
    pub fn parse(line: &str) -> Result<Request, (String, WireError)> {
        let v = Json::parse(line).map_err(|e| {
            (
                String::new(),
                WireError::new(ErrorKind::BadFrame, format!("not JSON: {e}")),
            )
        })?;
        // Recover the id early so even version errors correlate.
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let fail = |kind, detail: String| (id.clone(), WireError::new(kind, detail));
        let version = v
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| fail(ErrorKind::BadFrame, "missing protocol version `v`".into()))?;
        if version != PROTO_VERSION {
            return Err(fail(
                ErrorKind::BadVersion,
                format!("version {version} not spoken; this daemon speaks {PROTO_VERSION}"),
            ));
        }
        let cmd_name = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(ErrorKind::BadFrame, "missing `cmd`".into()))?;
        let session = || -> Result<String, (String, WireError)> {
            v.get("session")
                .and_then(Json::as_str)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .ok_or_else(|| fail(ErrorKind::BadFrame, "missing `session`".into()))
        };
        let cmd = match cmd_name {
            "create" => {
                let spec_json = v
                    .get("spec")
                    .ok_or_else(|| fail(ErrorKind::BadFrame, "missing `spec`".into()))?;
                let (spec, inject_panic_at) = spec_from_json(spec_json)
                    .map_err(|e| fail(ErrorKind::BadSpec, e.to_string()))?;
                Command::Create {
                    session: session()?,
                    spec,
                    inject_panic_at,
                }
            }
            "start" => Command::Start {
                session: session()?,
            },
            "pause" => Command::Pause {
                session: session()?,
            },
            "step" => Command::Step {
                session: session()?,
                events: v
                    .get("events")
                    .and_then(Json::as_u64)
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        fail(
                            ErrorKind::BadFrame,
                            "`events` must be a positive count".into(),
                        )
                    })?,
            },
            "status" => Command::Status {
                session: v.get("session").and_then(Json::as_str).map(str::to_string),
            },
            "snapshot" => Command::Snapshot {
                session: session()?,
            },
            "restore" => Command::Restore {
                session: session()?,
            },
            "subscribe" => Command::Subscribe {
                session: session()?,
                buffer: v.get("buffer").and_then(Json::as_u64).unwrap_or(256).max(1),
            },
            "kill" => Command::Kill {
                session: session()?,
            },
            "shutdown" => Command::Shutdown,
            other => {
                return Err(fail(
                    ErrorKind::BadFrame,
                    format!("unknown command `{other}`"),
                ))
            }
        };
        Ok(Request { id, cmd })
    }

    /// Renders the request as one frame line (the client side).
    pub fn render(&self) -> String {
        let mut fields: Vec<(&str, Json)> = vec![
            ("v", Json::Uint(PROTO_VERSION)),
            ("id", Json::Str(self.id.clone())),
            ("cmd", Json::Str(self.cmd.name().to_string())),
        ];
        match &self.cmd {
            Command::Create {
                session,
                spec,
                inject_panic_at,
            } => {
                fields.push(("session", Json::Str(session.clone())));
                fields.push(("spec", spec_json(spec, *inject_panic_at)));
            }
            Command::Start { session }
            | Command::Pause { session }
            | Command::Snapshot { session }
            | Command::Restore { session }
            | Command::Kill { session } => {
                fields.push(("session", Json::Str(session.clone())));
            }
            Command::Step { session, events } => {
                fields.push(("session", Json::Str(session.clone())));
                fields.push(("events", Json::Uint(*events)));
            }
            Command::Status { session } => {
                if let Some(s) = session {
                    fields.push(("session", Json::Str(s.clone())));
                }
            }
            Command::Subscribe { session, buffer } => {
                fields.push(("session", Json::Str(session.clone())));
                fields.push(("buffer", Json::Uint(*buffer)));
            }
            Command::Shutdown => {}
        }
        obj(fields).render()
    }
}

/// Renders a success response with extra payload fields.
pub fn ok_frame(id: &str, mut fields: Vec<(&str, Json)>) -> String {
    let mut all: Vec<(&str, Json)> = vec![
        ("v", Json::Uint(PROTO_VERSION)),
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(true)),
    ];
    all.append(&mut fields);
    obj(all).render()
}

/// Renders an error response.
pub fn err_frame(id: &str, err: &WireError) -> String {
    obj(vec![
        ("v", Json::Uint(PROTO_VERSION)),
        ("id", Json::Str(id.to_string())),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(err.kind.name().to_string())),
                ("detail", Json::Str(err.detail.clone())),
            ]),
        ),
    ])
    .render()
}

/// A parsed response frame (the client side).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echoed correlation id.
    pub id: String,
    /// `None` on success; the typed error otherwise.
    pub error: Option<WireError>,
    /// The whole response object, for payload field access.
    pub body: Json,
}

impl Reply {
    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// A [`WireError`] of kind [`ErrorKind::BadFrame`] when the line is
    /// not a well-formed response.
    pub fn parse(line: &str) -> Result<Reply, WireError> {
        let body = Json::parse(line)
            .map_err(|e| WireError::new(ErrorKind::BadFrame, format!("bad response: {e}")))?;
        let id = body
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let ok = body
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::new(ErrorKind::BadFrame, "response missing `ok`"))?;
        let error = if ok {
            None
        } else {
            let e = body
                .get("error")
                .ok_or_else(|| WireError::new(ErrorKind::BadFrame, "error response sans error"))?;
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .and_then(ErrorKind::by_name)
                .ok_or_else(|| WireError::new(ErrorKind::BadFrame, "unknown error kind"))?;
            let detail = e
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            Some(WireError::new(kind, detail))
        };
        Ok(Reply { id, error, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_system::{config_hash, workload_fingerprint, MachineConfigError, SpecFlags};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// `ringctl create` flags on the session base.
    fn ctl(line: &str) -> RunSpec {
        SpecFlags::parse(session_base(), &args(line)).unwrap()
    }

    /// A create frame with `spec` as its members.
    fn create_line(spec: &str) -> String {
        format!(r#"{{"v":1,"id":"1","cmd":"create","session":"a","spec":{spec}}}"#)
    }

    /// Every row of the field table set away from the session base
    /// (`u64::MAX` for the seed, past 2^53 for the chaos seed).
    const EVERY_ROW: &str = "--protocol eager --app fft --ops 77 --width 3 --height 5 \
        --seed 18446744073709551615 --max-cycles 123456 --watchdog 999 \
        --chaos 9007199254740993 --chaos-profile drop5 --reliable --dual-rings \
        --row-major-ring --check-invariants --trace-line 0x2a";

    #[test]
    fn every_row_round_trips_flags_json_and_manifest_fields() {
        let flags = args(EVERY_ROW);
        for f in FIELDS {
            assert!(
                f.flags.iter().any(|fl| flags.iter().any(|a| a == fl)),
                "row {} has no sample flag",
                f.key
            );
        }
        let spec = ctl(EVERY_ROW);
        // Naming every field (no `..`) makes a new RunSpec field fail to
        // compile here; setting it away from the base needs a table row.
        let base = session_base();
        let RunSpec {
            protocol,
            workload,
            ops,
            width,
            height,
            seed,
            max_cycles,
            watchdog,
            chaos,
            chaos_profile,
            reliable,
            dual_rings,
            row_major_ring,
            check_invariants,
            trace_line,
        } = &spec;
        assert_ne!(*protocol, base.protocol);
        assert_ne!(*workload, base.workload);
        assert_ne!(*ops, base.ops);
        assert_ne!(*width, base.width);
        assert_ne!(*height, base.height);
        assert_eq!(*seed, u64::MAX);
        assert_ne!(*max_cycles, base.max_cycles);
        assert_ne!(*watchdog, base.watchdog);
        assert_eq!(*chaos, Some((1 << 53) + 1));
        assert_ne!(*chaos_profile, base.chaos_profile);
        assert_ne!(*reliable, base.reliable);
        assert_ne!(*dual_rings, base.dual_rings);
        assert_ne!(*row_major_ring, base.row_major_ring);
        assert_ne!(*check_invariants, base.check_invariants);
        assert_ne!(*trace_line, base.trace_line);

        let req = Request {
            id: "1".into(),
            cmd: Command::Create {
                session: "a".into(),
                spec: spec.clone(),
                inject_panic_at: Some(u64::MAX),
            },
        };
        let Command::Create {
            spec: from_json,
            inject_panic_at,
            ..
        } = Request::parse(&req.render()).unwrap().cmd
        else {
            panic!("a create frame parses as a create");
        };
        assert_eq!((&from_json, inject_panic_at), (&spec, Some(u64::MAX)));
        let fields = spec_fields(&from_json, inject_panic_at);
        assert_eq!(session_spec(fields), Ok((spec, Some(u64::MAX))));
    }

    /// `(config_hash, workload_fingerprint, max_cycles)` as the daemon
    /// derived them from these `ringctl create` flags before sessions
    /// were run descriptions: CI's ringd-smoke sessions, ringbench's
    /// `ringd16` sessions (full and smoke scale), and the old bare
    /// `--chaos` (now `--chaos SEED`, the seed the switch implied).
    #[rustfmt::skip]
    const RINGD_PINS: &[(&str, u64, u64, u64)] = &[
        ("--scale 120 --seed 2007", 0x1b28_c496_ae0d_52ea, 0x5782_d403_3de4_1135, 50_000_000),
        ("--variant eager --workload SPECweb --scale 3000 --width 4 --height 4 --seed 2007", 0x386a_c089_ff35_7bdb, 0x4cd7_d58c_f9ef_07fa, 50_000_000),
        ("--variant supersetcon --workload SPECweb --scale 3000 --width 4 --height 4 --seed 2007", 0xc688_b21a_5321_b130, 0x4cd7_d58c_f9ef_07fa, 50_000_000),
        ("--variant supersetagg --workload SPECweb --scale 3000 --width 4 --height 4 --seed 2007", 0x41d6_06d2_866a_b14d, 0x4cd7_d58c_f9ef_07fa, 50_000_000),
        ("--variant uncorq --workload SPECweb --scale 3000 --width 4 --height 4 --seed 2007", 0x1b28_c496_ae0d_52ea, 0x4cd7_d58c_f9ef_07fa, 50_000_000),
        ("--variant uncorq+pref --workload SPECweb --scale 3000 --width 4 --height 4 --seed 2007", 0xcf40_14f9_c5e1_e54d, 0x4cd7_d58c_f9ef_07fa, 50_000_000),
        ("--variant uncorq+pref --workload SPECweb --scale 300 --width 4 --height 4 --seed 2007", 0xcf40_14f9_c5e1_e54d, 0x700f_be0a_cc84_d450, 50_000_000),
        ("--variant eager --workload SPECweb --scale 300 --width 4 --height 4 --seed 2007", 0x386a_c089_ff35_7bdb, 0x700f_be0a_cc84_d450, 50_000_000),
        ("--scale 40", 0x1b28_c496_ae0d_52ea, 0xfc22_f4b0_5c13_98a5, 50_000_000),
        ("--chaos 2007 --scale 40", 0x5b0a_d84a_168f_55a7, 0xfc22_f4b0_5c13_98a5, 50_000_000),
    ];

    #[test]
    fn ringctl_specs_derive_the_pinned_machines() {
        for &(line, hash, fingerprint, max_cycles) in RINGD_PINS {
            // Through the wire, as the daemon receives them.
            let req = Request {
                id: "1".into(),
                cmd: Command::Create {
                    session: "a".into(),
                    spec: ctl(line),
                    inject_panic_at: None,
                },
            };
            let Command::Create { spec, .. } = Request::parse(&req.render()).unwrap().cmd else {
                panic!("a create frame parses as a create");
            };
            let (cfg, profile) = spec.build().unwrap();
            assert_eq!(
                (
                    config_hash(&cfg),
                    workload_fingerprint(&profile),
                    cfg.max_cycles
                ),
                (hash, fingerprint, max_cycles),
                "{line}"
            );
        }
    }

    #[test]
    fn default_spec_builds_a_16_node_machine() {
        let (cfg, profile) = session_base().build().unwrap();
        assert_eq!(cfg.nodes(), 16);
        assert_eq!(profile.ops_per_core, 120);
        assert_eq!(cfg.watchdog_cycles, 2_000_000);
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let spec = RunSpec {
            protocol: Protocol::Ring(ProtocolVariant::UncorqPref),
            chaos: Some(2007),
            ops: Some(99),
            ..session_base()
        };
        let back = spec_from_json(&spec_json(&spec, Some(40_000))).unwrap();
        assert_eq!(back, (spec, Some(40_000)));
    }

    #[test]
    fn manifest_fields_roundtrip() {
        let spec = RunSpec {
            protocol: Protocol::Ring(ProtocolVariant::Eager),
            seed: 7,
            ..session_base()
        };
        let back = session_spec(spec_fields(&spec, Some(1))).unwrap();
        assert_eq!(back, (spec, Some(1)));
    }

    #[test]
    fn unknown_names_are_typed() {
        let err = |spec: &str| Request::parse(&create_line(spec)).unwrap_err().1;
        let e = err(r#"{"variant":"warp"}"#);
        assert_eq!(e.kind, ErrorKind::BadSpec);
        assert_eq!(
            e.detail,
            SpecError::UnknownProtocol("warp".into()).to_string()
        );
        let e = err(r#"{"workload":"nosuchapp"}"#);
        assert_eq!(
            e.detail,
            SpecError::UnknownWorkload("nosuchapp".into()).to_string()
        );
    }

    #[test]
    fn unknown_keys_are_bad_spec_naming_the_key() {
        let (_, e) = Request::parse(&create_line(r#"{"sed":7}"#)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadSpec);
        assert!(e.detail.contains("`sed`"), "{}", e.detail);
        let mut fields = spec_fields(&session_base(), None);
        fields.insert("sed".into(), "7".into());
        assert_eq!(
            session_spec(fields),
            Err(SpecError::UnknownKey("sed".into()))
        );
    }

    #[test]
    fn invalid_geometry_is_a_machine_error() {
        let bad = RunSpec {
            width: 1,
            ..session_base()
        };
        assert_eq!(
            bad.build().unwrap_err(),
            SpecError::Machine(MachineConfigError::TorusTooSmall)
        );
    }

    #[test]
    fn malformed_json_fields_are_typed() {
        let v = Json::parse(r#"{"scale":"lots"}"#).unwrap();
        assert!(matches!(
            spec_from_json(&v),
            Err(SpecError::BadValue { key: "scale", .. })
        ));
        let v = Json::parse(r#"{"scale":1.5}"#).unwrap();
        assert!(matches!(
            spec_from_json(&v),
            Err(SpecError::BadValue { key: "scale", .. })
        ));
        let v = Json::parse(r#"{"variant":3}"#).unwrap();
        assert!(matches!(
            spec_from_json(&v),
            Err(SpecError::BadValue { key: "variant", .. })
        ));
    }

    #[test]
    fn legacy_create_frames_still_parse() {
        // Every member an older ringctl sent, `chaos` as a switch.
        let line = create_line(
            r#"{"variant":"uncorq","workload":"fmm","scale":40,"width":4,"height":4,
                "seed":7,"max_cycles":50000000,"watchdog_cycles":2000000,"chaos":true}"#,
        );
        let Command::Create { spec, .. } = Request::parse(&line).unwrap().cmd else {
            panic!("a create frame parses as a create");
        };
        assert_eq!(spec.chaos, Some(7));
        assert_eq!(spec.chaos_profile, None);
    }

    #[test]
    fn every_command_roundtrips_through_the_wire() {
        let cmds = vec![
            Command::Create {
                session: "a".into(),
                spec: session_base(),
                inject_panic_at: None,
            },
            Command::Start {
                session: "a".into(),
            },
            Command::Pause {
                session: "a".into(),
            },
            Command::Step {
                session: "a".into(),
                events: 1000,
            },
            Command::Status { session: None },
            Command::Status {
                session: Some("a".into()),
            },
            Command::Snapshot {
                session: "a".into(),
            },
            Command::Restore {
                session: "a".into(),
            },
            Command::Subscribe {
                session: "a".into(),
                buffer: 64,
            },
            Command::Kill {
                session: "a".into(),
            },
            Command::Shutdown,
        ];
        for cmd in cmds {
            let req = Request {
                id: "42".into(),
                cmd,
            };
            let parsed = Request::parse(&req.render()).unwrap();
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn version_mismatch_is_typed_and_keeps_the_id() {
        let (id, err) = Request::parse(r#"{"v":2,"id":"9","cmd":"status"}"#).unwrap_err();
        assert_eq!(id, "9");
        assert_eq!(err.kind, ErrorKind::BadVersion);
    }

    #[test]
    fn malformed_frames_are_bad_frame_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"v":1}"#,
            r#"{"v":1,"cmd":"warp"}"#,
            r#"{"v":1,"cmd":"start"}"#,
            r#"{"v":1,"cmd":"start","session":""}"#,
            r#"{"v":1,"cmd":"step","session":"a"}"#,
            r#"{"v":1,"cmd":"step","session":"a","events":0}"#,
            r#"{"v":"1","cmd":"status"}"#,
        ] {
            let (_, err) = Request::parse(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadFrame, "input: {bad:?}");
        }
    }

    #[test]
    fn bad_spec_is_its_own_kind() {
        let line = r#"{"v":1,"id":"1","cmd":"create","session":"a","spec":{"variant":"warp"}}"#;
        let (_, err) = Request::parse(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadSpec);
    }

    #[test]
    fn responses_roundtrip() {
        let ok = ok_frame("7", vec![("cycle", Json::Num(123.0))]);
        let r = Reply::parse(&ok).unwrap();
        assert!(r.is_ok());
        assert_eq!(r.id, "7");
        assert_eq!(r.body.get("cycle").and_then(Json::as_u64), Some(123));

        let err = err_frame("8", &WireError::new(ErrorKind::QueueFull, "queue at cap 4"));
        let r = Reply::parse(&err).unwrap();
        assert_eq!(r.error.as_ref().map(|e| e.kind), Some(ErrorKind::QueueFull));
        assert!(r.error.unwrap().detail.contains("cap 4"));
    }

    #[test]
    fn error_kind_names_roundtrip() {
        for k in ErrorKind::ALL {
            assert_eq!(ErrorKind::by_name(k.name()), Some(k));
        }
        assert_eq!(ErrorKind::by_name("bogus"), None);
    }
}
