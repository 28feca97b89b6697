//! Shared harness code for regenerating the paper's figures and tables.
//!
//! The `paper` binary runs one experiment of the [`paper::EXPERIMENTS`]
//! registry by name; this library holds the common machinery: running
//! one `(protocol, application)` cell, rejecting unfinished runs, and
//! formatting results. See EXPERIMENTS.md at the workspace root for the
//! experiment index and recorded paper-vs-measured results.

pub mod paper;
pub mod sweep;

use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_system::{HtMachine, Machine, MachineConfig, Report};
use ring_workloads::AppProfile;

/// Which machine/protocol a harness cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// One of the embedded-ring protocols.
    Ring(ProtocolKind),
    /// Uncorq plus the §5.4 prefetching optimization.
    UncorqPref,
    /// The HyperTransport-style baseline.
    Ht,
}

impl Proto {
    /// The five protocols Figure 9 plots, in order.
    pub const FIG9: [Proto; 5] = [
        Proto::Ring(ProtocolKind::Eager),
        Proto::Ring(ProtocolKind::SupersetCon),
        Proto::Ring(ProtocolKind::SupersetAgg),
        Proto::Ring(ProtocolKind::Uncorq),
        Proto::UncorqPref,
    ];

    /// Display name used in table headers.
    pub fn name(&self) -> &'static str {
        match self {
            Proto::Ring(ProtocolKind::Eager) => "Eager",
            Proto::Ring(ProtocolKind::SupersetCon) => "SupersetCon",
            Proto::Ring(ProtocolKind::SupersetAgg) => "SupersetAgg",
            Proto::Ring(ProtocolKind::Uncorq) => "Uncorq",
            Proto::UncorqPref => "Uncorq+Pref",
            Proto::Ht => "HT",
        }
    }
}

/// Runs one cell on the paper's 64-node machine; a run that does not
/// finish is an error naming the cell.
pub fn run_cell(proto: Proto, profile: &AppProfile) -> Result<Report, String> {
    run_cell_with(proto, profile, "", |_| {})
}

/// [`run_cell`] on the paper configuration as changed by `tweak`;
/// `variant` describes the change in the cell's name (e.g. `" at 4x4"`).
pub(crate) fn run_cell_with(
    proto: Proto,
    profile: &AppProfile,
    variant: &str,
    tweak: impl FnOnce(&mut MachineConfig),
) -> Result<Report, String> {
    let mut cfg = config_for(proto);
    tweak(&mut cfg);
    let report = match proto {
        Proto::Ht => HtMachine::new(cfg, profile).run(),
        _ => Machine::new(cfg, profile).run(),
    };
    finished(
        &format!("{} on {}{variant}", proto.name(), profile.name),
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

/// The paper-machine configuration for a protocol selection, seeded
/// with [`SEED`].
pub fn config_for(proto: Proto) -> MachineConfig {
    let mut cfg = match proto {
        Proto::Ring(kind) => MachineConfig::paper(kind),
        Proto::UncorqPref => MachineConfig::paper_uncorq_pref(),
        // The HT machine reads only cache/net/mem parameters.
        Proto::Ht => MachineConfig::paper(ProtocolKind::Eager),
    };
    cfg.seed = SEED;
    cfg
}

/// The default seed used by all published tables.
pub const SEED: u64 = 2007;

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

    #[test]
    fn proto_names_unique() {
        let mut names: Vec<_> = Proto::FIG9.iter().map(|p| p.name()).collect();
        names.push(Proto::Ht.name());
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn config_for_prefetch_sets_flag() {
        assert!(config_for(Proto::UncorqPref).protocol.prefetch);
        assert!(
            !config_for(Proto::Ring(ProtocolKind::Uncorq))
                .protocol
                .prefetch
        );
    }

    #[test]
    fn unfinished_cell_fails_naming_it() {
        let profile = AppProfile::by_name("fmm").unwrap().scaled(100);
        let small = |c: &mut MachineConfig| (c.width, c.height) = (4, 4);
        for proto in [Proto::Ring(ProtocolKind::Uncorq), Proto::Ht] {
            let err = run_cell_with(proto, &profile, " capped", |c| {
                small(c);
                c.max_cycles = 200;
            })
            .unwrap_err();
            let cell = format!("cell {} on fmm capped did not finish", proto.name());
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
