//! One run description for every front end.
//!
//! A [`RunSpec`] says what one run simulates: the protocol, the
//! workload, the torus, the seed, the cycle limits, fault injection,
//! the ring options and the debug switches. [`RunSpec::build`] is the
//! one place that turns it into a validated [`MachineConfig`] and
//! workload profile. The `uncorq` CLI, `ringctl`, the `ringd` daemon
//! (create frames and post-crash rediscovery), the `paper` harness and
//! `bench_sweep` all go through it.
//!
//! Every conversion is derived from one field table, [`FIELDS`]. A row
//! holds the field's key (its JSON member and session-manifest name),
//! its command-line spellings, its kind, and how to read and write it.
//! Command-line flags ([`SpecFlags`]), the daemon's JSON and the
//! manifest's string map ([`RunSpec::from_fields`],
//! [`RunSpec::to_fields`]) are loops over that table. Rows are applied
//! in table order, so `seed` is known when the legacy `chaos=true`
//! (fault seed = machine seed) is read.
//!
//! Defaults stay with each front end: a parser starts from the front
//! end's own base spec (the CLI's is [`RunSpec::paper`]), and absent
//! keys keep the base value.

use std::collections::BTreeMap;
use std::fmt;

use ring_coherence::{ProtocolKind, ProtocolVariant};
use ring_noc::{FaultPlan, FaultProfile, ReliabilityConfig};
use ring_workloads::AppProfile;

use crate::config::{MachineConfig, MachineConfigError, DEFAULT_WORKLOAD};

/// The seed of every published table, and of the CLI's base spec.
pub const PAPER_SEED: u64 = 2007;

/// The fault profile `--chaos SEED` injects when no `--chaos-profile`
/// names one.
pub const DEFAULT_CHAOS_PROFILE: &str = "chaos";

/// A protocol a run can name: one of the five ring variants, or the
/// HyperTransport-style baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// An embedded-ring variant, run on [`crate::Machine`].
    Ring(ProtocolVariant),
    /// The HT baseline, run on [`crate::HtMachine`].
    Ht,
}

impl Protocol {
    /// The protocol name table: the five ring variants in the order
    /// Figure 9 plots them, then HT. Ring names are
    /// [`ProtocolVariant::name`]; [`Protocol::by_name`] also takes the
    /// `uncorq-pref` alias.
    pub const ALL: [Protocol; 6] = [
        Protocol::Ring(ProtocolVariant::Eager),
        Protocol::Ring(ProtocolVariant::SupersetCon),
        Protocol::Ring(ProtocolVariant::SupersetAgg),
        Protocol::Ring(ProtocolVariant::Uncorq),
        Protocol::Ring(ProtocolVariant::UncorqPref),
        Protocol::Ht,
    ];

    /// The name a run description uses (`uncorq+pref`, `ht`, …).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Ring(v) => v.name(),
            Protocol::Ht => "ht",
        }
    }

    /// The label the paper's tables print (`Eager` … `Uncorq+Pref`,
    /// `HT`).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Ring(ProtocolVariant::Eager) => "Eager",
            Protocol::Ring(ProtocolVariant::SupersetCon) => "SupersetCon",
            Protocol::Ring(ProtocolVariant::SupersetAgg) => "SupersetAgg",
            Protocol::Ring(ProtocolVariant::Uncorq) => "Uncorq",
            Protocol::Ring(ProtocolVariant::UncorqPref) => "Uncorq+Pref",
            Protocol::Ht => "HT",
        }
    }

    /// Parses a name, case-insensitively.
    pub fn by_name(name: &str) -> Option<Protocol> {
        if name.eq_ignore_ascii_case(Protocol::Ht.name()) {
            Some(Protocol::Ht)
        } else {
            ProtocolVariant::by_name(name).map(Protocol::Ring)
        }
    }

    /// What `--prefetch` makes of this protocol: only `uncorq` has a
    /// prefetching variant.
    fn with_prefetch(self) -> Option<Protocol> {
        (self == Protocol::Ring(ProtocolVariant::Uncorq))
            .then_some(Protocol::Ring(ProtocolVariant::UncorqPref))
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a run description cannot be read or built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A protocol name outside [`Protocol::ALL`].
    UnknownProtocol(String),
    /// A workload that names no application profile.
    UnknownWorkload(String),
    /// A fault profile outside [`FaultProfile::named`].
    UnknownChaosProfile(String),
    /// A key that is no row of [`FIELDS`].
    UnknownKey(String),
    /// A value its field cannot read.
    BadValue {
        /// The field's key.
        key: &'static str,
        /// The text as given.
        value: String,
        /// What the field reads.
        expected: &'static str,
    },
    /// A flag that takes a value came last.
    MissingValue(String),
    /// `--prefetch` on a protocol other than `uncorq`.
    PrefetchNeedsUncorq(Protocol),
    /// A chaos profile without a chaos seed: nothing would be injected.
    ChaosProfileWithoutSeed,
    /// A ring-only field (its key) on the HT baseline.
    RingOnly(&'static str),
    /// The derived machine configuration fails validation.
    Machine(MachineConfigError),
}

/// `a, b, c`: the names an error message offers instead.
fn one_of<'a>(names: impl Iterator<Item = &'a str>) -> String {
    names.collect::<Vec<_>>().join(", ")
}

/// A key with its flag spellings, as error messages name a field.
fn spelled(key: &str) -> String {
    match field(key) {
        Some(f) => format!("{key} ({})", f.flags.join("/")),
        None => key.to_string(),
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownProtocol(p) => write!(
                f,
                "unknown protocol `{p}` (expected one of {})",
                one_of(Protocol::ALL.iter().map(|p| p.name()))
            ),
            SpecError::UnknownWorkload(w) => write!(
                f,
                "unknown workload `{w}` (expected one of {})",
                one_of(AppProfile::all().iter().map(|p| p.name.as_str()))
            ),
            SpecError::UnknownChaosProfile(c) => write!(
                f,
                "unknown chaos profile `{c}` (expected one of {})",
                one_of(FaultProfile::named().iter().map(|(n, _)| *n))
            ),
            SpecError::UnknownKey(k) => write!(
                f,
                "unknown spec key `{k}` (expected one of {})",
                one_of(FIELDS.iter().map(|f| f.key))
            ),
            SpecError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "{}: `{value}` is not {expected}", spelled(key)),
            SpecError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            SpecError::PrefetchNeedsUncorq(p) => write!(
                f,
                "--prefetch turns uncorq into uncorq+pref; it does not apply to {p}"
            ),
            SpecError::ChaosProfileWithoutSeed => write!(
                f,
                "a chaos profile needs a chaos seed (--chaos SEED); without one nothing is injected"
            ),
            SpecError::RingOnly(key) => write!(
                f,
                "{} is not supported on the HT baseline machine",
                field(key).map_or(*key, |f| f.flags[0])
            ),
            SpecError::Machine(e) => write!(f, "invalid machine configuration: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// What a field holds, which decides how a JSON member or a flag
/// carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A non-negative integer; the flag takes a value.
    Uint,
    /// A switch; the flag is bare.
    Bool,
    /// A name; the flag takes a value.
    Text,
}

/// One field's value, typed by its row's kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A [`FieldKind::Uint`] value.
    Uint(u64),
    /// A [`FieldKind::Bool`] value.
    Bool(bool),
    /// A [`FieldKind::Text`] value.
    Text(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Uint(n) => write!(f, "{n}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
            FieldValue::Text(s) => f.write_str(s),
        }
    }
}

/// One row of the field table.
#[derive(Debug)]
pub struct Field {
    /// The JSON member and manifest name.
    pub key: &'static str,
    /// Command-line spellings; the first is the canonical one.
    pub flags: &'static [&'static str],
    /// What the field holds.
    pub kind: FieldKind,
    /// One line for usage text.
    pub help: &'static str,
    /// Reads the field's text form into a spec; a typed error when the
    /// text is no value of this field.
    pub read: fn(&mut RunSpec, &str) -> Result<(), SpecError>,
    /// The field's value in a spec; `None` for an unset optional field.
    pub write: fn(&RunSpec) -> Option<FieldValue>,
}

/// Parses `text` as the value of field `key`.
fn parse<T: std::str::FromStr>(
    key: &'static str,
    text: &str,
    expected: &'static str,
) -> Result<T, SpecError> {
    text.parse().map_err(|_| SpecError::BadValue {
        key,
        value: text.to_string(),
        expected,
    })
}

const UINT: &str = "a non-negative integer";

/// A row whose field reads with `FromStr` and writes as its kind:
/// `row!(key, [flags], help, field: type)`.
macro_rules! row {
    ($key:literal, [$($flag:literal),+], $help:literal, $field:ident: u64) => {
        Field {
            key: $key,
            flags: &[$($flag),+],
            kind: FieldKind::Uint,
            help: $help,
            read: |s, v| {
                s.$field = parse($key, v, UINT)?;
                Ok(())
            },
            write: |s| Some(FieldValue::Uint(s.$field)),
        }
    };
    ($key:literal, [$($flag:literal),+], $help:literal, $field:ident: usize) => {
        Field {
            key: $key,
            flags: &[$($flag),+],
            kind: FieldKind::Uint,
            help: $help,
            read: |s, v| {
                s.$field = parse($key, v, UINT)?;
                Ok(())
            },
            write: |s| Some(FieldValue::Uint(s.$field as u64)),
        }
    };
    ($key:literal, [$($flag:literal),+], $help:literal, $field:ident: bool) => {
        Field {
            key: $key,
            flags: &[$($flag),+],
            kind: FieldKind::Bool,
            help: $help,
            read: |s, v| {
                s.$field = parse($key, v, "true or false")?;
                Ok(())
            },
            write: |s| Some(FieldValue::Bool(s.$field)),
        }
    };
}

/// The field table. Row order is application order: `seed` precedes
/// `chaos`, whose legacy `true` means "the machine seed".
pub const FIELDS: &[Field] = &[
    Field {
        key: "variant",
        flags: &["--protocol", "--variant"],
        kind: FieldKind::Text,
        help: "protocol (uncorq --list prints the names)",
        read: |s, v| {
            s.protocol =
                Protocol::by_name(v).ok_or_else(|| SpecError::UnknownProtocol(v.to_string()))?;
            Ok(())
        },
        write: |s| Some(FieldValue::Text(s.protocol.name().to_string())),
    },
    Field {
        key: "workload",
        flags: &["--app", "--workload"],
        kind: FieldKind::Text,
        help: "application profile (uncorq --list)",
        read: |s, v| {
            if AppProfile::by_name(v).is_none() {
                return Err(SpecError::UnknownWorkload(v.to_string()));
            }
            s.workload = v.to_string();
            Ok(())
        },
        write: |s| Some(FieldValue::Text(s.workload.clone())),
    },
    Field {
        key: "scale",
        flags: &["--ops", "--scale"],
        kind: FieldKind::Uint,
        help: "memory operations per core (default: the profile's own)",
        read: |s, v| {
            s.ops = Some(parse("scale", v, UINT)?);
            Ok(())
        },
        write: |s| s.ops.map(FieldValue::Uint),
    },
    row!("width", ["--width"], "torus width (--nodes WxH sets both)", width: usize),
    row!("height", ["--height"], "torus height", height: usize),
    row!("seed", ["--seed"], "machine seed", seed: u64),
    row!("max_cycles", ["--max-cycles"], "simulated-cycle cap (0 = none)", max_cycles: u64),
    row!("watchdog_cycles", ["--watchdog"], "progress watchdog, cycles (0 = off)", watchdog: u64),
    Field {
        key: "chaos",
        flags: &["--chaos"],
        kind: FieldKind::Uint,
        help: "fault-injection seed (faults off without it)",
        read: |s, v| {
            // Manifests and create frames written before the seed took
            // a value carry `true` (the machine seed) or `false`.
            s.chaos = match v {
                "true" => Some(s.seed),
                "false" => None,
                _ => Some(parse("chaos", v, UINT)?),
            };
            Ok(())
        },
        write: |s| s.chaos.map(FieldValue::Uint),
    },
    Field {
        key: "chaos_profile",
        flags: &["--chaos-profile"],
        kind: FieldKind::Text,
        help: "fault profile (default chaos)",
        read: |s, v| {
            let name = v.to_lowercase();
            if FaultProfile::by_name(&name).is_none() {
                return Err(SpecError::UnknownChaosProfile(v.to_string()));
            }
            s.chaos_profile = Some(name);
            Ok(())
        },
        write: |s| s.chaos_profile.clone().map(FieldValue::Text),
    },
    row!("reliable", ["--reliable"], "reliable delivery (lossy chaos implies it)", reliable: bool),
    row!("dual_rings", ["--dual-rings"], "odd lines use the reverse ring", dual_rings: bool),
    row!("row_major_ring", ["--row-major-ring"], "row-major ring embedding", row_major_ring: bool),
    row!("check_invariants", ["--check-invariants"], "assert invariants", check_invariants: bool),
    Field {
        key: "trace_line",
        flags: &["--trace-line"],
        kind: FieldKind::Uint,
        help: "record the protocol conversation of this line (decimal or 0x hex)",
        read: |s, v| {
            let line = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            };
            s.trace_line = Some(line.ok_or_else(|| SpecError::BadValue {
                key: "trace_line",
                value: v.to_string(),
                expected: "a line number",
            })?);
            Ok(())
        },
        write: |s| s.trace_line.map(FieldValue::Uint),
    },
];

/// The row whose key is `key`.
pub fn field(key: &str) -> Option<&'static Field> {
    FIELDS.iter().find(|f| f.key == key)
}

/// Parses `WxH` (or `WXH`) into torus width and height. The one parser
/// behind `--nodes`, `chaoscheck --nodes` and `bench_sweep --grids`.
///
/// # Errors
///
/// A typed error naming the text when it is not two counts around `x`.
pub fn parse_grid(text: &str) -> Result<(usize, usize), SpecError> {
    let bad = || SpecError::BadValue {
        key: "nodes",
        value: text.to_string(),
        expected: "WxH, e.g. 8x8",
    };
    let (w, h) = text.split_once(['x', 'X']).ok_or_else(bad)?;
    Ok((w.parse().map_err(|_| bad())?, h.parse().map_err(|_| bad())?))
}

/// A description of one run; see the module documentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Protocol (`variant`).
    pub protocol: Protocol,
    /// Application profile name (`workload`).
    pub workload: String,
    /// Memory operations per core; `None` keeps the profile's own
    /// count (`scale`).
    pub ops: Option<u64>,
    /// Torus width.
    pub width: usize,
    /// Torus height.
    pub height: usize,
    /// Machine seed.
    pub seed: u64,
    /// Simulated-cycle cap (0 = none).
    pub max_cycles: u64,
    /// Forward-progress watchdog in cycles (0 = off; `watchdog_cycles`).
    pub watchdog: u64,
    /// Fault-injection seed; `None` runs fault-free.
    pub chaos: Option<u64>,
    /// Fault profile; `None` is [`DEFAULT_CHAOS_PROFILE`].
    pub chaos_profile: Option<String>,
    /// Force the reliable-delivery sublayer on.
    pub reliable: bool,
    /// §2.1 dual-direction rings.
    pub dual_rings: bool,
    /// Row-major ring embedding (ablation).
    pub row_major_ring: bool,
    /// Assert coherence invariants at every completion.
    pub check_invariants: bool,
    /// Record this line's protocol conversation.
    pub trace_line: Option<u64>,
}

impl RunSpec {
    /// The paper's machine (Table 3, 8×8 torus) running `protocol` on
    /// the default workload at [`PAPER_SEED`], with the profile's own
    /// op count: the CLI's base spec and every `paper` table's cell.
    pub fn paper(protocol: Protocol) -> RunSpec {
        let m = MachineConfig::paper(ProtocolKind::Eager);
        RunSpec {
            protocol,
            workload: DEFAULT_WORKLOAD.to_string(),
            ops: None,
            width: m.width,
            height: m.height,
            seed: PAPER_SEED,
            max_cycles: m.max_cycles,
            watchdog: m.watchdog_cycles,
            chaos: None,
            chaos_profile: None,
            reliable: false,
            dual_rings: false,
            row_major_ring: false,
            check_invariants: false,
            trace_line: None,
        }
    }

    /// Reads `fields` (key → text) on top of `base`, row by row in
    /// table order; absent keys keep the base value.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] for a key that is no row, else the
    /// first row that cannot read its text.
    pub fn from_fields(
        base: RunSpec,
        fields: &BTreeMap<String, String>,
    ) -> Result<RunSpec, SpecError> {
        if let Some(key) = fields.keys().find(|k| field(k).is_none()) {
            return Err(SpecError::UnknownKey(key.clone()));
        }
        let mut spec = base;
        for f in FIELDS {
            if let Some(text) = fields.get(f.key) {
                (f.read)(&mut spec, text)?;
            }
        }
        Ok(spec)
    }

    /// Every set field as key → text, the inverse of
    /// [`RunSpec::from_fields`].
    pub fn to_fields(&self) -> BTreeMap<String, String> {
        FIELDS
            .iter()
            .filter_map(|f| Some((f.key.to_string(), (f.write)(self)?.to_string())))
            .collect()
    }

    /// Derives the validated machine configuration and workload
    /// profile. A lossy chaos profile turns the reliable-delivery
    /// sublayer on.
    ///
    /// # Errors
    ///
    /// Unknown names, a chaos profile without a seed, ring-only fields
    /// on HT, and configurations that [`MachineConfig::validate`]
    /// rejects, each typed.
    pub fn build(&self) -> Result<(MachineConfig, AppProfile), SpecError> {
        let mut profile = AppProfile::by_name(&self.workload)
            .ok_or_else(|| SpecError::UnknownWorkload(self.workload.clone()))?;
        if let Some(ops) = self.ops {
            profile = profile.scaled(ops);
        }
        let ring = match self.protocol {
            Protocol::Ring(v) => Some(v),
            Protocol::Ht => None,
        };
        let mut cfg = match ring {
            Some(v) => MachineConfig::with_protocol(v.config()),
            // The HT machine reads only cache, network and memory
            // parameters, which every paper machine shares.
            None => MachineConfig::paper(ProtocolKind::Eager),
        };
        cfg.width = self.width;
        cfg.height = self.height;
        cfg.seed = self.seed;
        cfg.max_cycles = self.max_cycles;
        cfg.watchdog_cycles = self.watchdog;
        cfg.dual_rings = self.dual_rings;
        cfg.ring_row_major = self.row_major_ring;
        cfg.check_invariants = self.check_invariants;
        cfg.trace_lines.extend(self.trace_line);
        match (self.chaos, &self.chaos_profile) {
            (None, None) => {}
            (None, Some(_)) => return Err(SpecError::ChaosProfileWithoutSeed),
            (Some(_), _) if ring.is_none() => return Err(SpecError::RingOnly("chaos")),
            (Some(seed), name) => {
                let name = name.as_deref().unwrap_or(DEFAULT_CHAOS_PROFILE);
                let fp = FaultProfile::by_name(name)
                    .ok_or_else(|| SpecError::UnknownChaosProfile(name.to_string()))?;
                cfg.faults = Some(FaultPlan::new(fp, seed));
                if fp.needs_reliability() {
                    cfg.reliability = ReliabilityConfig::on();
                }
            }
        }
        if self.reliable {
            if ring.is_none() {
                return Err(SpecError::RingOnly("reliable"));
            }
            cfg.reliability = ReliabilityConfig::on();
        }
        cfg.validate().map_err(SpecError::Machine)?;
        Ok((cfg, profile))
    }
}

/// Run-description flags, collected while a front end walks its
/// arguments, then applied on its base spec by [`SpecFlags::finish`].
/// Besides the rows' spellings it takes two shorthands: `--nodes WxH`
/// sets width and height, and `--prefetch` turns `uncorq` into
/// `uncorq+pref`. A repeated flag keeps its last value.
#[derive(Debug, Default)]
pub struct SpecFlags {
    fields: BTreeMap<String, String>,
    prefetch: bool,
}

impl SpecFlags {
    /// Takes `flag` if it is a run-description flag, pulling its value
    /// from `next` when it has one; `Ok(false)` leaves the flag to the
    /// caller.
    ///
    /// # Errors
    ///
    /// A missing value, or a `--nodes` value that is not `WxH`.
    pub fn take(
        &mut self,
        flag: &str,
        next: impl FnOnce() -> Option<String>,
    ) -> Result<bool, SpecError> {
        let value = || next().ok_or_else(|| SpecError::MissingValue(flag.to_string()));
        if flag == "--prefetch" {
            self.prefetch = true;
        } else if flag == "--nodes" {
            let (w, h) = parse_grid(&value()?)?;
            self.fields.insert("width".into(), w.to_string());
            self.fields.insert("height".into(), h.to_string());
        } else if let Some(f) = FIELDS.iter().find(|f| f.flags.contains(&flag)) {
            let text = match f.kind {
                FieldKind::Bool => "true".to_string(),
                FieldKind::Uint | FieldKind::Text => value()?,
            };
            self.fields.insert(f.key.to_string(), text);
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// Applies the collected flags on `base`.
    ///
    /// # Errors
    ///
    /// The first value a row cannot read, or `--prefetch` on a protocol
    /// other than `uncorq`.
    pub fn finish(self, base: RunSpec) -> Result<RunSpec, SpecError> {
        let mut spec = RunSpec::from_fields(base, &self.fields)?;
        if self.prefetch {
            spec.protocol = spec
                .protocol
                .with_prefetch()
                .ok_or(SpecError::PrefetchNeedsUncorq(spec.protocol))?;
        }
        Ok(spec)
    }

    /// Parses an argument list made only of run-description flags.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] names the first argument that is not
    /// one; otherwise as [`SpecFlags::take`] and [`SpecFlags::finish`].
    pub fn parse(base: RunSpec, args: &[String]) -> Result<RunSpec, SpecError> {
        let mut flags = SpecFlags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !flags.take(arg, || it.next().cloned())? {
                return Err(SpecError::UnknownKey(arg.clone()));
            }
        }
        flags.finish(base)
    }

    /// Usage lines for every run-description flag.
    pub fn usage() -> String {
        let mut rows: Vec<(String, &str)> = FIELDS
            .iter()
            .map(|f| {
                let arg = match f.kind {
                    FieldKind::Uint => " N",
                    FieldKind::Text => " NAME",
                    FieldKind::Bool => "",
                };
                (format!("{}{arg}", f.flags.join("|")), f.help)
            })
            .collect();
        rows.push(("--nodes WxH".into(), "sets --width and --height"));
        rows.push(("--prefetch".into(), "turns uncorq into uncorq+pref"));
        let width = rows.iter().map(|(flags, _)| flags.len()).max().unwrap_or(0);
        rows.iter()
            .map(|(flags, help)| format!("  {flags:<width$}  {help}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{config_hash, workload_fingerprint};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn cli(line: &str) -> Result<RunSpec, SpecError> {
        SpecFlags::parse(
            RunSpec::paper(Protocol::Ring(ProtocolVariant::Uncorq)),
            &args(line),
        )
    }

    /// `(config_hash, workload_fingerprint, max_cycles)` as the CLI
    /// derived them before it parsed through this table, for every
    /// documented and CI invocation (machine flags only).
    #[rustfmt::skip]
    const CLI_PINS: &[(&str, u64, u64, u64)] = &[
        ("--app fmm --protocol uncorq --ops 2000", 0xc505_42e6_5b1a_c694, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--protocol ht --ops 2000", 0xad27_1b9e_d7be_eff1, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--app fmm --protocol uncorq --nodes 4x4 --ops 2000000 --seed 2007", 0xb497_e4b3_4e05_3394, 0xe3df_2cde_0614_8e6b, 2_000_000_000),
        ("--app fmm --protocol uncorq --prefetch --nodes 4x4", 0x8836_ae04_75e5_86df, 0xd965_be1e_2a0f_c873, 2_000_000_000),
        ("--app fmm --protocol uncorq --nodes 4x4 --ops 2000", 0xb497_e4b3_4e05_3394, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--app fmm --protocol uncorq --prefetch --nodes 4x4 --ops 2000", 0x8836_ae04_75e5_86df, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--app radix --protocol uncorq", 0xc505_42e6_5b1a_c694, 0x9d76_d3cd_12d6_5493, 2_000_000_000),
        ("--app fmm --protocol eager --nodes 16x8 --seed 1", 0x2846_5487_619d_4e54, 0xd965_be1e_2a0f_c873, 2_000_000_000),
        ("--app fmm --protocol uncorq --ops 300 --trace-line 5", 0x2b3b_e039_0175_8488, 0xac6c_a596_b284_ac4a, 2_000_000_000),
        ("--app fmm --protocol uncorq --ops 2000 --chaos 42 --chaos-profile chaos --watchdog 2000000 --check-invariants", 0xe2f9_24a8_b8f3_b7e0, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--app fmm --protocol uncorq --ops 2000 --watchdog 50", 0x0f4f_84ec_fb1f_7fea, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--app fmm --protocol uncorq --ops 2000 --chaos 42 --chaos-profile drop20 --watchdog 2000000 --check-invariants", 0x6e74_c156_8f2b_f432, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--app fmm --protocol uncorq --prefetch --nodes 8x8", 0x98a4_0c37_82fb_19df, 0xd965_be1e_2a0f_c873, 2_000_000_000),
        ("--app fmm --protocol uncorq --prefetch --nodes 8x8 --seed 2007", 0x98a4_0c37_82fb_19df, 0xd965_be1e_2a0f_c873, 2_000_000_000),
        ("--app fmm --protocol uncorq --ops 300 --trace-line 1681", 0xe9ff_92f3_13bb_5752, 0xac6c_a596_b284_ac4a, 2_000_000_000),
        ("--app fmm --protocol uncorq --ops 300", 0xc505_42e6_5b1a_c694, 0xac6c_a596_b284_ac4a, 2_000_000_000),
        ("--app fmm --protocol uncorq --ops 2000 --chaos 42 --chaos-profile chaos --check-invariants", 0x3617_e645_5f16_35b6, 0x3c46_0d6a_a9b8_f0c4, 2_000_000_000),
        ("--protocol ht --ops 500 --watchdog 50", 0x0144_52b0_c8b1_67db, 0x14ea_8051_0c50_4702, 2_000_000_000),
    ];

    #[test]
    fn cli_invocations_derive_the_pinned_machines() {
        for &(line, hash, fingerprint, max_cycles) in CLI_PINS {
            let (cfg, profile) = cli(line).and_then(|s| s.build()).unwrap();
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
    fn every_protocol_name_parses_and_labels_are_unique() {
        let mut labels = Vec::new();
        for p in Protocol::ALL {
            assert_eq!(Protocol::by_name(p.name()), Some(p));
            assert_eq!(Protocol::by_name(&p.name().to_uppercase()), Some(p));
            labels.push(p.label());
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Protocol::ALL.len());
        assert_eq!(
            Protocol::by_name("uncorq-pref"),
            Some(Protocol::Ring(ProtocolVariant::UncorqPref))
        );
        assert_eq!(Protocol::by_name("superset-con"), None);
        // The ring variants are ProtocolVariant::ALL, in its order.
        let ring: Vec<_> = Protocol::ALL[..5].to_vec();
        let variants: Vec<_> = ProtocolVariant::ALL.map(Protocol::Ring).to_vec();
        assert_eq!(ring, variants);
    }

    #[test]
    fn unknown_protocol_lists_only_names_that_parse() {
        let msg = SpecError::UnknownProtocol("warp".into()).to_string();
        let list = msg
            .split_once("expected one of ")
            .and_then(|(_, l)| l.strip_suffix(')'))
            .unwrap();
        let names: Vec<&str> = list.split(", ").collect();
        assert_eq!(names.len(), Protocol::ALL.len());
        for name in names {
            assert!(Protocol::by_name(name).is_some(), "{name} does not parse");
        }
    }

    #[test]
    fn rows_are_unique_and_write_their_kind() {
        let mut keys: Vec<&str> = FIELDS.iter().map(|f| f.key).collect();
        let mut flags: Vec<&str> = FIELDS
            .iter()
            .flat_map(|f| f.flags.iter().copied())
            .collect();
        flags.extend(["--nodes", "--prefetch"]);
        let (nkeys, nflags) = (keys.len(), flags.len());
        keys.sort_unstable();
        keys.dedup();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!((keys.len(), flags.len()), (nkeys, nflags));
        let all_set = RunSpec {
            ops: Some(1),
            chaos: Some(1),
            chaos_profile: Some("drop5".into()),
            trace_line: Some(1),
            ..RunSpec::paper(Protocol::Ht)
        };
        for f in FIELDS {
            let kind = match (f.write)(&all_set) {
                Some(FieldValue::Uint(_)) => FieldKind::Uint,
                Some(FieldValue::Bool(_)) => FieldKind::Bool,
                Some(FieldValue::Text(_)) => FieldKind::Text,
                None => panic!("{} is unset", f.key),
            };
            assert_eq!(kind, f.kind, "{}", f.key);
        }
        let back = RunSpec::from_fields(RunSpec::paper(Protocol::Ht), &all_set.to_fields());
        assert_eq!(back, Ok(all_set));
    }

    #[test]
    fn flags_keep_every_spelling_and_the_last_value() {
        let a = cli("--variant eager --workload fft --scale 7 --width 4 --height 2").unwrap();
        let b = cli("--protocol eager --app fft --ops 7 --nodes 4x2").unwrap();
        assert_eq!(a, b);
        assert_eq!(cli("--seed 1 --seed 9").unwrap().seed, 9);
        assert_eq!(cli("--trace-line 0x10").unwrap().trace_line, Some(16));
        assert_eq!(
            cli("--prefetch").unwrap().protocol,
            Protocol::Ring(ProtocolVariant::UncorqPref)
        );
        assert_eq!(
            cli("--protocol uncorq-pref").unwrap().protocol,
            Protocol::Ring(ProtocolVariant::UncorqPref)
        );
    }

    #[test]
    fn accepted_then_ignored_inputs_are_errors() {
        assert_eq!(
            cli("--protocol ht --prefetch").unwrap_err(),
            SpecError::PrefetchNeedsUncorq(Protocol::Ht)
        );
        assert_eq!(
            cli("--protocol eager --prefetch").unwrap_err(),
            SpecError::PrefetchNeedsUncorq(Protocol::Ring(ProtocolVariant::Eager))
        );
        assert_eq!(
            cli("--chaos-profile drop20").unwrap().build().unwrap_err(),
            SpecError::ChaosProfileWithoutSeed
        );
        let mut fields = BTreeMap::new();
        fields.insert("sed".to_string(), "7".to_string());
        assert_eq!(
            RunSpec::from_fields(RunSpec::paper(Protocol::Ht), &fields).unwrap_err(),
            SpecError::UnknownKey("sed".into())
        );
    }

    #[test]
    fn malformed_values_are_typed() {
        assert!(matches!(
            cli("--ops lots").unwrap_err(),
            SpecError::BadValue { key: "scale", .. }
        ));
        assert_eq!(
            cli("--ops").unwrap_err(),
            SpecError::MissingValue("--ops".into())
        );
        assert!(matches!(
            cli("--nodes 4y4").unwrap_err(),
            SpecError::BadValue { key: "nodes", .. }
        ));
        assert_eq!(
            cli("--protocol warp").unwrap_err(),
            SpecError::UnknownProtocol("warp".into())
        );
        assert_eq!(
            cli("--app nosuchapp").unwrap_err(),
            SpecError::UnknownWorkload("nosuchapp".into())
        );
        assert_eq!(
            cli("--chaos-profile nope").unwrap_err(),
            SpecError::UnknownChaosProfile("nope".into())
        );
        assert_eq!(
            cli("--bogus").unwrap_err(),
            SpecError::UnknownKey("--bogus".into())
        );
        assert_eq!(parse_grid("16X8"), Ok((16, 8)));
    }

    #[test]
    fn invalid_geometry_is_the_typed_machine_error() {
        let err = cli("--nodes 1x4").unwrap().build().unwrap_err();
        assert_eq!(err, SpecError::Machine(MachineConfigError::TorusTooSmall));
        assert!(
            err.to_string().contains("torus must be at least 2x2"),
            "{err}"
        );
    }

    #[test]
    fn ring_only_fields_are_refused_on_ht() {
        assert_eq!(
            cli("--protocol ht --chaos 1").unwrap().build().unwrap_err(),
            SpecError::RingOnly("chaos")
        );
        let err = cli("--protocol ht --reliable")
            .unwrap()
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::RingOnly("reliable"));
        assert_eq!(
            err.to_string(),
            "--reliable is not supported on the HT baseline machine"
        );
    }

    #[test]
    fn lossy_chaos_implies_reliability() {
        let (cfg, _) = cli("--chaos 42 --chaos-profile DROP20")
            .unwrap()
            .build()
            .unwrap();
        assert!(cfg.reliability.enabled);
        let (cfg, _) = cli("--chaos 42").unwrap().build().unwrap();
        assert!(!cfg.reliability.enabled);
        assert_eq!(cfg.faults.map(|p| p.seed), Some(42));
    }

    #[test]
    fn legacy_chaos_switch_means_the_machine_seed() {
        let base = RunSpec::paper(Protocol::Ring(ProtocolVariant::Uncorq));
        let fields: BTreeMap<String, String> = [("chaos", "true"), ("seed", "9")]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into();
        let spec = RunSpec::from_fields(base.clone(), &fields).unwrap();
        assert_eq!(spec.chaos, Some(9));
        let (cfg, _) = spec.build().unwrap();
        assert_eq!(cfg.faults, Some(FaultPlan::new(FaultProfile::chaos(), 9)));
        let off: BTreeMap<String, String> = [("chaos".to_string(), "false".to_string())].into();
        assert_eq!(RunSpec::from_fields(base, &off).unwrap().chaos, None);
    }
}
