//! `ringctl` — line-JSON client for `ringd`.
//!
//! ```text
//! ringctl --socket /tmp/ringd.sock create smoke --variant uncorq --scale 120
//! ringctl --socket /tmp/ringd.sock start smoke
//! ringctl --socket /tmp/ringd.sock wait smoke
//! ringctl --socket /tmp/ringd.sock status smoke
//! ```
//!
//! Connects with capped, deterministically jittered exponential
//! backoff; every daemon refusal is a typed `kind: detail` line on
//! stderr and a nonzero exit, never a panic or a hang.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ring_server::{session_base, Client, Command, ErrorKind, RetryPolicy, WireError};
use ring_system::{RunSpec, SpecFlags};
use ring_trace::json::Json;

const USAGE: &str = "\
ringctl — client for the ringd simulation daemon

USAGE:
  ringctl --socket PATH [--retries N] [--seed N] COMMAND

COMMANDS:
  create NAME [RUN FLAGS] [--inject-panic-at N]
  start NAME                 run (or queue) the session
  pause NAME                 hold at the next event boundary
  step NAME EVENTS           execute exactly EVENTS events
  status [NAME]              daemon or per-session status (JSON)
  snapshot NAME              write an integrity-verified snapshot now
  restore NAME               rebuild from the newest valid snapshot
  subscribe NAME [--buffer N] stream trace events to stdout
  kill NAME                  stop and forget the session
  wait NAME                  block until the session is terminal
  shutdown                   drain and stop the daemon
";

fn usage() -> String {
    let b = session_base();
    format!(
        "{USAGE}\nRUN FLAGS (the session base is {} on {}, {}x{}, --ops {}, --max-cycles {},\n\
         --watchdog {}, --seed {}):\n{}",
        b.protocol,
        b.workload,
        b.width,
        b.height,
        b.ops.unwrap_or_default(),
        b.max_cycles,
        b.watchdog,
        b.seed,
        SpecFlags::usage()
    )
}

fn parse_u64(raw: &str, what: &str) -> Result<u64, String> {
    raw.parse()
        .map_err(|_| format!("{what} needs a number, got `{raw}`"))
}

/// `create`'s options: the run flags on the session base, plus the
/// panic drill's `--inject-panic-at`.
fn create_spec(args: &[String]) -> Result<(RunSpec, Option<u64>), WireError> {
    let usage_err = |msg: String| WireError::new(ErrorKind::BadFrame, msg);
    let spec_err = |e: ring_system::SpecError| WireError::new(ErrorKind::BadSpec, e.to_string());
    let mut flags = SpecFlags::default();
    let mut panic_at = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--inject-panic-at" {
            let raw = it
                .next()
                .ok_or_else(|| usage_err("--inject-panic-at needs a value".into()))?;
            panic_at = Some(parse_u64(raw, "--inject-panic-at").map_err(usage_err)?);
        } else if !flags.take(arg, || it.next().cloned()).map_err(spec_err)? {
            return Err(usage_err(format!("unknown create option `{arg}`")));
        }
    }
    Ok((flags.finish(session_base()).map_err(spec_err)?, panic_at))
}

struct Invocation {
    socket: PathBuf,
    policy: RetryPolicy,
    verb: String,
    rest: Vec<String>,
}

fn parse_args() -> Result<Invocation, String> {
    let mut socket: Option<PathBuf> = None;
    let mut policy = RetryPolicy::default();
    let mut verb: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if verb.is_some() {
            rest.push(arg);
            continue;
        }
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--socket" => {
                socket = Some(PathBuf::from(it.next().ok_or("--socket needs a path")?));
            }
            "--retries" => {
                let raw = it.next().ok_or("--retries needs a number")?;
                policy.attempts = u32::try_from(parse_u64(&raw, "--retries")?).unwrap_or(u32::MAX);
            }
            "--seed" => {
                let raw = it.next().ok_or("--seed needs a number")?;
                policy.seed = parse_u64(&raw, "--seed")?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown argument `{other}`"));
            }
            other => verb = Some(other.to_string()),
        }
    }
    Ok(Invocation {
        socket: socket.ok_or("--socket is required")?,
        policy,
        verb: verb.ok_or("a command is required")?,
        rest,
    })
}

fn session_arg(rest: &[String], verb: &str) -> Result<String, String> {
    rest.first()
        .cloned()
        .ok_or_else(|| format!("`{verb}` needs a session name"))
}

fn run(inv: &Invocation) -> Result<(), WireError> {
    let connect = || Client::connect_with_retry(&inv.socket, &inv.policy);
    let usage_err = |msg: String| WireError::new(ErrorKind::BadFrame, msg);
    match inv.verb.as_str() {
        "subscribe" => {
            let session = session_arg(&inv.rest, "subscribe").map_err(usage_err)?;
            let mut buffer = 256;
            let mut it = inv.rest[1..].iter();
            while let Some(arg) = it.next() {
                if arg == "--buffer" {
                    let raw = it
                        .next()
                        .ok_or_else(|| usage_err("--buffer needs a number".into()))?;
                    buffer = parse_u64(raw, "--buffer").map_err(usage_err)?;
                } else {
                    return Err(usage_err(format!("unknown subscribe option `{arg}`")));
                }
            }
            let reader = connect()?.subscribe(&session, buffer)?;
            for line in reader.lines() {
                match line {
                    Ok(l) => println!("{l}"),
                    Err(_) => break, // daemon gone; stream over
                }
            }
            Ok(())
        }
        "wait" => {
            let session = session_arg(&inv.rest, "wait").map_err(usage_err)?;
            loop {
                let mut client = connect()?;
                let reply = client.request(Command::Status {
                    session: Some(session.clone()),
                })?;
                let state = reply
                    .body
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                match state.as_str() {
                    "finished" | "stalled" | "dead" => {
                        println!("{}", reply.body.render());
                        if state == "finished" {
                            return Ok(());
                        }
                        return Err(WireError::new(
                            if state == "stalled" {
                                ErrorKind::Stalled
                            } else {
                                ErrorKind::Internal
                            },
                            format!("session `{session}` ended {state}"),
                        ));
                    }
                    _ => std::thread::sleep(Duration::from_millis(200)),
                }
            }
        }
        verb => {
            let cmd = match verb {
                "create" => {
                    let session = session_arg(&inv.rest, "create").map_err(usage_err)?;
                    let (spec, inject_panic_at) = create_spec(&inv.rest[1..])?;
                    Command::Create {
                        session,
                        spec,
                        inject_panic_at,
                    }
                }
                "start" => Command::Start {
                    session: session_arg(&inv.rest, verb).map_err(usage_err)?,
                },
                "pause" => Command::Pause {
                    session: session_arg(&inv.rest, verb).map_err(usage_err)?,
                },
                "step" => {
                    let session = session_arg(&inv.rest, verb).map_err(usage_err)?;
                    let raw = inv
                        .rest
                        .get(1)
                        .ok_or_else(|| usage_err("`step` needs an event count".into()))?;
                    Command::Step {
                        session,
                        events: parse_u64(raw, "step count").map_err(usage_err)?,
                    }
                }
                "status" => Command::Status {
                    session: inv.rest.first().cloned(),
                },
                "snapshot" => Command::Snapshot {
                    session: session_arg(&inv.rest, verb).map_err(usage_err)?,
                },
                "restore" => Command::Restore {
                    session: session_arg(&inv.rest, verb).map_err(usage_err)?,
                },
                "kill" => Command::Kill {
                    session: session_arg(&inv.rest, verb).map_err(usage_err)?,
                },
                "shutdown" => Command::Shutdown,
                other => return Err(usage_err(format!("unknown command `{other}`"))),
            };
            let reply = connect()?.request(cmd)?;
            println!("{}", reply.body.render());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let inv = match parse_args() {
        Ok(i) => i,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("ringctl: {msg}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&inv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ringctl: {}: {}", e.kind, e.detail);
            ExitCode::FAILURE
        }
    }
}
