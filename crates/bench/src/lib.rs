//! Shared harness code for regenerating the paper's figures and tables.
//!
//! The `paper` binary runs one experiment of the [`paper::EXPERIMENTS`]
//! registry by name; this library holds the common machinery: running
//! one `(protocol, application)` cell, rejecting unfinished runs, and
//! formatting results. See EXPERIMENTS.md at the workspace root for the
//! experiment index and recorded paper-vs-measured results.

pub mod paper;
pub mod sweep;

use ring_stats::{Align, Table};
use ring_system::{HtMachine, Machine, MachineConfig, Protocol, Report, RunSpec};
use ring_workloads::AppProfile;

/// Runs one cell on the paper's 64-node machine; a run that does not
/// finish is an error naming the cell.
pub fn run_cell(proto: Protocol, profile: &AppProfile) -> Result<Report, String> {
    run_cell_with(proto, profile, "", |_| {})
}

/// [`run_cell`] on the paper machine ([`RunSpec::paper`]) as changed by
/// `tweak`; `variant` describes the change in the cell's name (e.g.
/// `" at 4x4"`).
pub(crate) fn run_cell_with(
    proto: Protocol,
    profile: &AppProfile,
    variant: &str,
    tweak: impl FnOnce(&mut MachineConfig),
) -> Result<Report, String> {
    let (mut cfg, _) = RunSpec::paper(proto).build().map_err(|e| e.to_string())?;
    tweak(&mut cfg);
    let report = match proto {
        Protocol::Ht => HtMachine::new(cfg, profile).run(),
        Protocol::Ring(_) => Machine::new(cfg, profile).run(),
    };
    finished(
        &format!("{} on {}{variant}", proto.label(), profile.name),
        report,
    )
}

/// Every experiment's cells pass through here: a run cut short by the
/// cycle cap or the watchdog is an error naming `cell`, never a row of
/// numbers.
pub(crate) fn finished(cell: &str, report: Report) -> Result<Report, String> {
    if report.finished {
        Ok(report)
    } else {
        Err(format!(
            "cell {cell} did not finish (stopped at cycle {})",
            report.exec_cycles
        ))
    }
}

/// Scales an application profile down when the `UNCORQ_FAST` environment
/// variable is set (useful for smoke-testing every experiment).
pub fn maybe_fast(profile: AppProfile) -> AppProfile {
    if std::env::var_os("UNCORQ_FAST").is_some() {
        profile.scaled(1_000)
    } else {
        profile
    }
}

/// The application an experiment runs: the first argument, else
/// `default`, scaled by [`maybe_fast`].
pub(crate) fn app_arg(args: &[String], default: &str) -> Result<AppProfile, String> {
    let name = args.first().map_or(default, String::as_str);
    app(name)
}

/// Looks an application profile up by name, scaled by [`maybe_fast`].
pub(crate) fn app(name: &str) -> Result<AppProfile, String> {
    AppProfile::by_name(name)
        .map(maybe_fast)
        .ok_or_else(|| format!("unknown app {name}"))
}

/// A table with one `(header, alignment)` pair per column.
pub fn table(columns: &[(&str, Align)]) -> Table {
    let mut t = Table::new(columns.iter().map(|(h, _)| h.to_string()).collect());
    t.align(columns.iter().map(|&(_, a)| a).collect());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_coherence::ProtocolVariant;

    #[test]
    fn paper_cells_run_at_the_paper_seed_and_only_uncorq_pref_prefetches() {
        for proto in Protocol::ALL {
            let (cfg, _) = RunSpec::paper(proto).build().unwrap();
            assert_eq!(cfg.seed, ring_system::PAPER_SEED);
            assert_eq!(
                cfg.protocol.prefetch,
                proto == Protocol::Ring(ProtocolVariant::UncorqPref),
                "{proto}"
            );
        }
    }

    #[test]
    fn unfinished_cell_fails_naming_it() {
        let profile = AppProfile::by_name("fmm").unwrap().scaled(100);
        let small = |c: &mut MachineConfig| (c.width, c.height) = (4, 4);
        for proto in [Protocol::Ring(ProtocolVariant::Uncorq), Protocol::Ht] {
            let err = run_cell_with(proto, &profile, " capped", |c| {
                small(c);
                c.max_cycles = 200;
            })
            .unwrap_err();
            let cell = format!("cell {} on fmm capped did not finish", proto.label());
            assert!(err.starts_with(&cell), "{err}");
            assert!(run_cell_with(proto, &profile, "", small).is_ok());
        }
    }

    #[test]
    fn unknown_app_is_an_error() {
        assert_eq!(app_arg(&[], "fmm").unwrap().name, "fmm");
        assert_eq!(app_arg(&["fft".into()], "fmm").unwrap().name, "fft");
        assert_eq!(app("nope").unwrap_err(), "unknown app nope");
    }
}
