//! Protocol selection and timing knobs.

use ring_sim::Cycle;
use serde::{Deserialize, Serialize};

use crate::ltt::LttConfig;

/// Which embedded-ring snoop algorithm a machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Eager Forwarding (paper §2.1): `R` uses the ring, forwarded at each
    /// node before the local snoop starts.
    Eager,
    /// Flexible Snooping, *Superset Conservative*: a per-node presence
    /// filter; filter-positive nodes stall `R` behind the snoop,
    /// filter-negative nodes forward without snooping.
    SupersetCon,
    /// Flexible Snooping, *Superset Aggressive*: filter-positive nodes
    /// snoop in parallel with forwarding; filter-negative nodes forward
    /// without snooping. Forwarding always pays the filter lookup.
    SupersetAgg,
    /// Uncorq (paper §4): read `R`s are multicast over any network path;
    /// write `R`s still use the ring (§6); `r` always uses the ring; the
    /// LTT enforces the Ordering invariant.
    Uncorq,
}

impl ProtocolKind {
    /// All ring-based protocols, in the order Figure 9 plots them.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Eager,
        ProtocolKind::SupersetCon,
        ProtocolKind::SupersetAgg,
        ProtocolKind::Uncorq,
    ];

    /// Whether this protocol uses a snoop presence filter.
    pub fn uses_filter(self) -> bool {
        matches!(self, ProtocolKind::SupersetCon | ProtocolKind::SupersetAgg)
    }

    /// Whether read requests are delivered off-ring (multicast).
    pub fn multicast_reads(self) -> bool {
        matches!(self, ProtocolKind::Uncorq)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtocolKind::Eager => "Eager",
            ProtocolKind::SupersetCon => "SupersetCon",
            ProtocolKind::SupersetAgg => "SupersetAgg",
            ProtocolKind::Uncorq => "Uncorq",
        };
        f.write_str(s)
    }
}

/// One of the five evaluated protocol variants (the paper's Figure 9
/// lines): the four [`ProtocolKind`]s in their paper configuration plus
/// Uncorq with the §5.4 prefetching optimization.
///
/// This is the single source of truth for "run every protocol" sweeps
/// (`chaoscheck`, `chaos_sweep`, `modelcheck`); binaries should iterate
/// [`ProtocolVariant::ALL`] rather than re-deriving the list by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolVariant {
    /// Eager Forwarding, paper configuration.
    Eager,
    /// Flexible Snooping, Superset Conservative, paper configuration.
    SupersetCon,
    /// Flexible Snooping, Superset Aggressive, paper configuration.
    SupersetAgg,
    /// Uncorq, paper configuration.
    Uncorq,
    /// Uncorq with §5.4 prefetching ("Uncorq+Pref").
    UncorqPref,
}

impl ProtocolVariant {
    /// The five variants, in the order Figure 9 plots them.
    pub const ALL: [ProtocolVariant; 5] = [
        ProtocolVariant::Eager,
        ProtocolVariant::SupersetCon,
        ProtocolVariant::SupersetAgg,
        ProtocolVariant::Uncorq,
        ProtocolVariant::UncorqPref,
    ];

    /// The underlying protocol kind.
    pub fn kind(self) -> ProtocolKind {
        match self {
            ProtocolVariant::Eager => ProtocolKind::Eager,
            ProtocolVariant::SupersetCon => ProtocolKind::SupersetCon,
            ProtocolVariant::SupersetAgg => ProtocolKind::SupersetAgg,
            ProtocolVariant::Uncorq | ProtocolVariant::UncorqPref => ProtocolKind::Uncorq,
        }
    }

    /// The paper configuration for this variant.
    pub fn config(self) -> ProtocolConfig {
        match self {
            ProtocolVariant::UncorqPref => ProtocolConfig::uncorq_pref(),
            other => ProtocolConfig::paper(other.kind()),
        }
    }

    /// The CLI-facing lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolVariant::Eager => "eager",
            ProtocolVariant::SupersetCon => "supersetcon",
            ProtocolVariant::SupersetAgg => "supersetagg",
            ProtocolVariant::Uncorq => "uncorq",
            ProtocolVariant::UncorqPref => "uncorq+pref",
        }
    }

    /// Parses a CLI name (case-insensitive; accepts `uncorq+pref` and
    /// `uncorq-pref`).
    pub fn by_name(name: &str) -> Option<Self> {
        let n = name.to_lowercase();
        ProtocolVariant::ALL
            .into_iter()
            .find(|v| v.name() == n || (n == "uncorq-pref" && *v == ProtocolVariant::UncorqPref))
    }
}

impl std::fmt::Display for ProtocolVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-node protocol agent configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// The algorithm.
    pub kind: ProtocolKind,
    /// Enable the §5.4 prefetching optimization (meaningful with
    /// [`ProtocolKind::Uncorq`]: "Uncorq+Pref"; reads only).
    pub prefetch: bool,
    /// L2 snoop (tag access) latency in cycles.
    pub snoop_latency: Cycle,
    /// Snoop-filter lookup latency (SupersetCon/Agg only).
    pub filter_latency: Cycle,
    /// LTT geometry.
    pub ltt: LttConfig,
    /// Maximum outstanding transactions per node (MSHR entries).
    pub max_outstanding: usize,
    /// Base retry backoff after a squashed transaction, in cycles.
    pub retry_backoff: Cycle,
    /// Retries after which a node declares itself starving and engages
    /// the forward-progress mechanism (§5.2).
    pub starvation_threshold: u32,
    /// How long an SNID suppliership reservation is held (§5.2.2).
    pub reservation_cycles: Cycle,
    /// Node Prefetch Predictor capacity in line addresses (8K in the
    /// paper); 0 disables the NPP even when `prefetch` is on.
    pub npp_entries: usize,
    /// Ablation: replace the §3.3.2 winner-selection hierarchy
    /// (type > random > node id) with bare node-id priority — "unfair,
    /// but it never ties".
    pub winner_node_id_only: bool,
    /// The §5.5 extension (described but not evaluated in the paper):
    /// cache-to-cache *read* misses do not transfer supplier status. The
    /// old supplier keeps the designation (E→MS, D→T) and the requester
    /// installs a plain Shared copy, so colliding cache-to-cache reads
    /// are always serviced without squashes.
    pub reads_keep_supplier: bool,
}

impl ProtocolConfig {
    /// The paper's configuration for a given protocol kind.
    pub fn paper(kind: ProtocolKind) -> Self {
        ProtocolConfig {
            kind,
            prefetch: false,
            snoop_latency: 7,
            filter_latency: 3,
            ltt: LttConfig::default(),
            max_outstanding: 16,
            retry_backoff: 32,
            starvation_threshold: 4,
            reservation_cycles: 1024,
            npp_entries: 8 * 1024,
            winner_node_id_only: false,
            reads_keep_supplier: false,
        }
    }

    /// Capacity of each node's Node Prefetch Predictor: `npp_entries`
    /// with prefetching on, 0 (a predictor that records nothing)
    /// otherwise.
    pub fn npp_capacity(&self) -> usize {
        if self.prefetch {
            self.npp_entries
        } else {
            0
        }
    }

    /// Uncorq+Pref: Uncorq with the §5.4 prefetching optimization.
    pub fn uncorq_pref() -> Self {
        ProtocolConfig {
            prefetch: true,
            ..Self::paper(ProtocolKind::Uncorq)
        }
    }

    /// Rejects degenerate configurations that would silently break the
    /// forward-progress machinery (§5.2) or the agent's bookkeeping.
    ///
    /// The agent used to clamp some of these at use sites (e.g.
    /// `retry_backoff.max(1)`), which hid misconfiguration; callers now
    /// validate up front and get a typed error instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_outstanding == 0 {
            return Err(ConfigError::ZeroMaxOutstanding);
        }
        if self.retry_backoff == 0 {
            return Err(ConfigError::ZeroRetryBackoff);
        }
        if self.starvation_threshold == 0 {
            return Err(ConfigError::ZeroStarvationThreshold);
        }
        if self.reservation_cycles == 0 {
            return Err(ConfigError::ZeroReservationCycles);
        }
        if self.snoop_latency == 0 {
            return Err(ConfigError::ZeroSnoopLatency);
        }
        if self.kind.uses_filter() && self.filter_latency == 0 {
            return Err(ConfigError::ZeroFilterLatency);
        }
        if self.ltt.entries == 0 || self.ltt.ways == 0 {
            return Err(ConfigError::EmptyLtt {
                entries: self.ltt.entries,
                ways: self.ltt.ways,
            });
        }
        if self.ltt.ways > self.ltt.entries || !self.ltt.entries.is_multiple_of(self.ltt.ways) {
            return Err(ConfigError::LttGeometry {
                entries: self.ltt.entries,
                ways: self.ltt.ways,
            });
        }
        Ok(())
    }
}

/// A degenerate [`ProtocolConfig`] value, detected by
/// [`ProtocolConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_outstanding == 0`: the node could never issue a request.
    ZeroMaxOutstanding,
    /// `retry_backoff == 0`: squashed transactions would retry with no
    /// jitter window, so colliding requesters can livelock in lockstep.
    ZeroRetryBackoff,
    /// `starvation_threshold == 0`: every first attempt would claim the
    /// starvation escape hatch, defeating the §5.2 fairness mechanism.
    ZeroStarvationThreshold,
    /// `reservation_cycles == 0`: a starving node's SNID reservation
    /// would expire immediately, so starvation could never resolve.
    ZeroReservationCycles,
    /// `snoop_latency == 0`: an L2 tag access takes at least a cycle.
    ZeroSnoopLatency,
    /// `filter_latency == 0` on a filter-based protocol: the filter
    /// lookup takes at least a cycle.
    ZeroFilterLatency,
    /// LTT with zero entries or zero ways can hold no transactions.
    EmptyLtt {
        /// Configured total entry count.
        entries: usize,
        /// Configured associativity.
        ways: usize,
    },
    /// LTT entry count must be a positive multiple of the way count.
    LttGeometry {
        /// Configured total entry count.
        entries: usize,
        /// Configured associativity.
        ways: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMaxOutstanding => {
                write!(f, "max_outstanding must be >= 1 (node could never issue)")
            }
            ConfigError::ZeroRetryBackoff => write!(
                f,
                "retry_backoff must be >= 1 (zero jitter window can livelock colliding retries)"
            ),
            ConfigError::ZeroStarvationThreshold => write!(
                f,
                "starvation_threshold must be >= 1 (zero would engage the escape hatch on \
                 every first attempt)"
            ),
            ConfigError::ZeroReservationCycles => write!(
                f,
                "reservation_cycles must be >= 1 (a reservation expiring immediately cannot \
                 resolve starvation)"
            ),
            ConfigError::ZeroSnoopLatency => {
                write!(f, "snoop_latency must be >= 1 cycle")
            }
            ConfigError::ZeroFilterLatency => {
                write!(
                    f,
                    "filter_latency must be >= 1 cycle on filter-based protocols"
                )
            }
            ConfigError::EmptyLtt { entries, ways } => write!(
                f,
                "LTT geometry {entries} entries x {ways} ways holds no transactions"
            ),
            ConfigError::LttGeometry { entries, ways } => write!(
                f,
                "LTT entries ({entries}) must be a positive multiple of ways ({ways})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(!ProtocolKind::Eager.uses_filter());
        assert!(ProtocolKind::SupersetCon.uses_filter());
        assert!(ProtocolKind::SupersetAgg.uses_filter());
        assert!(!ProtocolKind::Uncorq.uses_filter());
        assert!(ProtocolKind::Uncorq.multicast_reads());
        assert!(!ProtocolKind::Eager.multicast_reads());
    }

    #[test]
    fn paper_config_defaults() {
        let c = ProtocolConfig::paper(ProtocolKind::Eager);
        assert_eq!(c.snoop_latency, 7);
        assert_eq!(c.ltt.entries, 512);
        assert_eq!(c.ltt.ways, 64);
        assert!(!c.prefetch);
    }

    #[test]
    fn uncorq_pref_enables_prefetch() {
        let c = ProtocolConfig::uncorq_pref();
        assert_eq!(c.kind, ProtocolKind::Uncorq);
        assert!(c.prefetch);
    }

    #[test]
    fn display_names() {
        assert_eq!(ProtocolKind::Uncorq.to_string(), "Uncorq");
        assert_eq!(ProtocolKind::SupersetAgg.to_string(), "SupersetAgg");
    }

    #[test]
    fn variant_list_covers_figure_9() {
        assert_eq!(ProtocolVariant::ALL.len(), 5);
        for v in ProtocolVariant::ALL {
            assert_eq!(ProtocolVariant::by_name(v.name()), Some(v));
            v.config().validate().unwrap();
        }
        assert_eq!(
            ProtocolVariant::by_name("UNCORQ-PREF"),
            Some(ProtocolVariant::UncorqPref)
        );
        assert!(ProtocolVariant::UncorqPref.config().prefetch);
        assert_eq!(ProtocolVariant::UncorqPref.kind(), ProtocolKind::Uncorq);
        assert!(ProtocolVariant::by_name("bogus").is_none());
    }

    #[test]
    fn paper_configs_validate() {
        for kind in ProtocolKind::ALL {
            ProtocolConfig::paper(kind).validate().unwrap();
        }
        ProtocolConfig::uncorq_pref().validate().unwrap();
    }

    #[test]
    fn degenerate_values_are_rejected() {
        let base = ProtocolConfig::paper(ProtocolKind::Uncorq);
        let cases = [
            (
                ProtocolConfig {
                    retry_backoff: 0,
                    ..base
                },
                ConfigError::ZeroRetryBackoff,
            ),
            (
                ProtocolConfig {
                    starvation_threshold: 0,
                    ..base
                },
                ConfigError::ZeroStarvationThreshold,
            ),
            (
                ProtocolConfig {
                    max_outstanding: 0,
                    ..base
                },
                ConfigError::ZeroMaxOutstanding,
            ),
            (
                ProtocolConfig {
                    reservation_cycles: 0,
                    ..base
                },
                ConfigError::ZeroReservationCycles,
            ),
            (
                ProtocolConfig {
                    snoop_latency: 0,
                    ..base
                },
                ConfigError::ZeroSnoopLatency,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
    }

    #[test]
    fn filter_latency_only_checked_for_filter_protocols() {
        let mut c = ProtocolConfig::paper(ProtocolKind::Uncorq);
        c.filter_latency = 0;
        c.validate().unwrap();
        let mut c = ProtocolConfig::paper(ProtocolKind::SupersetCon);
        c.filter_latency = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroFilterLatency));
    }

    #[test]
    fn ltt_geometry_is_checked() {
        let mut c = ProtocolConfig::paper(ProtocolKind::Eager);
        c.ltt.entries = 0;
        assert!(matches!(c.validate(), Err(ConfigError::EmptyLtt { .. })));
        let mut c = ProtocolConfig::paper(ProtocolKind::Eager);
        c.ltt.entries = 100;
        c.ltt.ways = 64;
        assert!(matches!(c.validate(), Err(ConfigError::LttGeometry { .. })));
    }

    #[test]
    fn config_error_display_is_actionable() {
        assert!(ConfigError::ZeroRetryBackoff
            .to_string()
            .contains("retry_backoff"));
        assert!(ConfigError::ZeroStarvationThreshold
            .to_string()
            .contains("starvation_threshold"));
    }
}
