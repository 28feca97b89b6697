//! The `uncorq` binary's run-description surface: every refusal is a
//! typed message and exit status 1, never a panic, and `--profile`
//! prints the window timeline and stall attribution on either machine.

use std::process::{Command, Output};

fn uncorq(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uncorq"))
        .args(args.split_whitespace())
        .output()
        .expect("the uncorq binary runs")
}

/// Runs `args`, expecting a refusal whose stderr contains `why`.
fn refused(args: &str, why: &str) {
    let out = uncorq(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
    assert!(stderr.contains(why), "{args}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    assert!(out.stdout.is_empty(), "{args} ran anyway");
}

#[test]
fn invalid_machines_exit_1_with_the_typed_error() {
    refused(
        "--nodes 1x4 --ops 10",
        "invalid machine configuration: torus must be at least 2x2",
    );
}

#[test]
fn accepted_then_ignored_inputs_are_refused() {
    refused(
        "--nodes 4x4 --ops 10 --chaos-profile drop20",
        "needs a chaos seed",
    );
    refused("--protocol ht --prefetch --ops 10", "--prefetch");
    refused("--protocol eager --prefetch --ops 10", "--prefetch");
    refused(
        "--protocol ht --chaos 1 --ops 10",
        "--chaos is not supported on the HT baseline machine",
    );
    refused("--protocol warp", "unknown protocol `warp`");
    refused("--nodes 4", "nodes: `4` is not WxH");
}

#[test]
fn list_prints_the_protocol_table() {
    let out = uncorq("--list");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for p in uncorq::system::Protocol::ALL {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().collect::<Vec<_>>() == [p.name(), p.label()]),
            "{p} missing from --list:\n{stdout}"
        );
    }
}

#[test]
fn profile_prints_windows_and_stall_attribution_on_both_machines() {
    for protocol in ["uncorq", "ht"] {
        let out = uncorq(&format!(
            "--protocol {protocol} --nodes 4x4 --ops 40 --profile"
        ));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{protocol}: {stdout}");
        assert!(
            stdout.contains("-cycle intervals") && stdout.contains("Hottest links"),
            "{protocol}: no window table in\n{stdout}"
        );
        assert!(
            stdout.contains("stall attribution (end of run):\n  all nodes finished"),
            "{protocol}: no stall attribution in\n{stdout}"
        );
    }
}
