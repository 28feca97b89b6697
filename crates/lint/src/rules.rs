//! Source-level determinism and safety lint rules.
//!
//! The repo's load-bearing guarantee is byte-identical determinism —
//! golden digests, checkpoint resume, lossy replays all assume that no
//! code in a deterministic path reads the wall clock, draws OS entropy,
//! or observes the iteration order of a randomly-seeded hash map. Until
//! now only convention enforced that. These rules make it static:
//!
//! | rule | what it catches |
//! |---|---|
//! | `no-std-hashmap-in-sim-paths` | `std::collections::HashMap`/`HashSet` (SipHash with random keys — iteration order varies *per process*) in deterministic paths; use `FxHashMap` (deterministic hash) or `BTreeMap` (deterministic iteration) |
//! | `no-wallclock` | `Instant`/`SystemTime` outside the perf harness and CLI frontends |
//! | `no-thread-rng` | OS entropy (`thread_rng`, `OsRng`, `getrandom`, `from_entropy`) anywhere outside tests |
//! | `no-unordered-iteration-feeding-events` | iterating a hash map without an order-restoring sort or an order-independent reduction — the one way even a deterministic-hash map can leak insertion-history into event order |
//! | `no-unchecked-unwrap-in-protocol-crates` | `.unwrap()`/`.expect(` in non-test code of the audited protocol crates |
//! | `missing-clippy-deny` | an audited crate whose `lib.rs` — or any binary frontend — lost its `deny(clippy::unwrap_used, clippy::expect_used)` attribute |
//! | `no-blocking-net-in-sim-paths` | socket types (`std::net`, Unix sockets) anywhere but the daemon's audited I/O boundary — simulation code must never block on a network |
//!
//! Each finding carries file/line diagnostics and a severity; audited
//! exceptions live in the workspace allowlist file ([`crate::allow`]),
//! never in the rules.

use crate::source::{Origin, SourceFile};
use std::collections::BTreeSet;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the build unless allowlisted.
    Deny,
    /// Reported, never fatal (advice and hygiene findings).
    Warn,
}

impl Severity {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Severity of the rule.
    pub severity: Severity,
    /// Workspace-relative path.
    pub rel_path: String,
    /// 1-based line number (0 for whole-crate findings).
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// `Some(reason)` when an allowlist entry covers this finding.
    pub allowed: Option<String>,
}

/// Static description of one rule, for `--list-rules` and the report.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier.
    pub id: &'static str,
    /// Severity.
    pub severity: Severity,
    /// One-line description.
    pub description: &'static str,
}

/// The crates whose non-test code must be free of unchecked unwraps
/// (and must carry the clippy deny attribute that enforces it at
/// compile time too).
pub const UNWRAP_AUDITED_CRATES: &[&str] =
    &["cache", "core", "model", "noc", "mem", "stats", "server"];

/// Every source-level rule, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-std-hashmap-in-sim-paths",
        severity: Severity::Deny,
        description: "std HashMap/HashSet (random SipHash keys) in a deterministic path; \
                      use FxHashMap/FxHashSet or BTreeMap/BTreeSet",
    },
    RuleInfo {
        id: "no-wallclock",
        severity: Severity::Deny,
        description: "Instant/SystemTime outside the perf harness and CLI frontends; \
                      simulated time must come from the event queue",
    },
    RuleInfo {
        id: "no-thread-rng",
        severity: Severity::Deny,
        description: "OS entropy (thread_rng/OsRng/getrandom/from_entropy) outside tests; \
                      all randomness must flow from a seeded DetRng",
    },
    RuleInfo {
        id: "no-unordered-iteration-feeding-events",
        severity: Severity::Deny,
        description: "hash-map iteration without a sort or an order-independent reduction; \
                      iteration order must never feed event or output order",
    },
    RuleInfo {
        id: "no-unchecked-unwrap-in-protocol-crates",
        severity: Severity::Deny,
        description: "unwrap()/expect() in non-test code of an audited protocol crate; \
                      return a typed error or prove the invariant with unreachable!",
    },
    RuleInfo {
        id: "missing-clippy-deny",
        severity: Severity::Deny,
        description: "audited crate lib.rs (or a binary frontend) lost its \
                      deny(clippy::unwrap_used, clippy::expect_used) attribute",
    },
    RuleInfo {
        id: "no-blocking-net-in-sim-paths",
        severity: Severity::Deny,
        description: "socket types outside the daemon's audited I/O boundary; simulation \
                      code must never block on a network",
    },
];

fn rule(id: &str) -> &'static RuleInfo {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unknown rule id {id}"))
}

fn finding(f: &SourceFile, id: &str, line: usize, message: String) -> Finding {
    let info = rule(id);
    Finding {
        rule: info.id,
        severity: info.severity,
        rel_path: f.rel.clone(),
        line,
        message,
        snippet: f.line_text(line).trim().to_string(),
        allowed: None,
    }
}

/// Identifiers that mark a nondeterministic std collection.
const HASH_IDENTS: &[&str] = &["HashMap", "HashSet", "RandomState", "DefaultHasher"];
/// Identifiers that read the wall clock.
const WALLCLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];
/// Identifiers that draw OS entropy.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "getrandom",
    "from_entropy",
];
/// Blocking socket types. A simulator must never block on a network:
/// any of these outside the daemon's audited boundary modules
/// (`crates/server/src/daemon.rs`, `crates/server/src/client.rs`,
/// carried in the allowlist) is a determinism and availability bug.
const NET_IDENTS: &[&str] = &[
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "UnixListener",
    "UnixStream",
];

/// Map-iteration methods whose order is the hasher's.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];
/// Reductions whose result does not depend on iteration order; their
/// presence on the same line discharges an iteration finding.
const ORDER_FREE: &[&str] = &[
    ".sum()",
    ".sum::",
    ".count()",
    ".len()",
    ".min(",
    ".max(",
    ".min_by",
    ".max_by",
    ".all(",
    ".any(",
    ".is_empty()",
];

/// Runs every per-file rule over one file.
pub fn scan_file(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if f.origin == Origin::Test {
        return out;
    }
    let idents = crate::lexer::identifiers(&f.masked);

    // Identifier-keyed rules.
    for id in &idents {
        if f.is_test_line(id.line) {
            continue;
        }
        if matches!(f.origin, Origin::SimPath | Origin::Cli | Origin::Service)
            && HASH_IDENTS.contains(&id.text)
        {
            out.push(finding(
                f,
                "no-std-hashmap-in-sim-paths",
                id.line,
                format!(
                    "`{}` hashes with per-process random SipHash keys; use FxHashMap/FxHashSet \
                     (ring-sim) for lookup tables or BTreeMap/BTreeSet where iteration order \
                     is observed",
                    id.text
                ),
            ));
        }
        if f.origin == Origin::SimPath && WALLCLOCK_IDENTS.contains(&id.text) {
            out.push(finding(
                f,
                "no-wallclock",
                id.line,
                format!(
                    "`{}` reads the wall clock inside a deterministic path; simulated time \
                     must come from the event queue (Cycle)",
                    id.text
                ),
            ));
        }
        if ENTROPY_IDENTS.contains(&id.text) {
            out.push(finding(
                f,
                "no-thread-rng",
                id.line,
                format!(
                    "`{}` draws OS entropy; all randomness must flow from a seeded DetRng \
                     so every run replays byte-identically",
                    id.text
                ),
            ));
        }
        if NET_IDENTS.contains(&id.text) {
            out.push(finding(
                f,
                "no-blocking-net-in-sim-paths",
                id.line,
                format!(
                    "`{}` is a blocking socket type; only the daemon's audited I/O boundary \
                     (allowlisted modules of crates/server) may touch the network — \
                     simulation, harness, and CLI code must not",
                    id.text
                ),
            ));
        }
    }

    if matches!(f.origin, Origin::SimPath | Origin::Service) {
        unordered_iteration(f, &idents, &mut out);
    }

    if matches!(f.origin, Origin::SimPath | Origin::Service)
        && UNWRAP_AUDITED_CRATES.contains(&f.crate_name.as_str())
    {
        unchecked_unwraps(f, &mut out);
    }
    out
}

/// Collects identifiers declared (or assigned) with a hash-map/set type
/// in this file: `name: FxHashMap<..>`, `name: HashMap<..>`, and
/// `name = FxHashMap::default()` / `HashMap::new()` forms.
fn collect_map_names(masked: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ty in ["FxHashMap", "FxHashSet", "HashMap", "HashSet"] {
        for (pos, _) in masked.match_indices(ty) {
            // Whole-identifier check: `FxHashMap` must not match inside
            // a longer identifier, and `HashMap` must not match the
            // suffix of `FxHashMap`.
            let bytes = masked.as_bytes();
            let before_ok =
                pos == 0 || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_');
            let after = pos + ty.len();
            let after_ok = after >= bytes.len()
                || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
            if !before_ok || !after_ok {
                continue;
            }
            // `name : Ty<` (declaration) or `name = Ty::` (binding).
            let rest = &masked[after..];
            let is_type_pos = rest.trim_start().starts_with('<');
            let is_ctor = rest.starts_with("::");
            if !is_type_pos && !is_ctor {
                continue;
            }
            let prefix = &masked[..pos];
            let trimmed = prefix.trim_end();
            let sep = if is_type_pos { ':' } else { '=' };
            if !trimmed.ends_with(sep) {
                continue;
            }
            let decl = trimmed[..trimmed.len() - 1].trim_end();
            // Generic bound edges (`T: HashMap<` never happens; `::<` is
            // excluded because `:` would be doubled).
            if is_type_pos && decl.ends_with(':') {
                continue;
            }
            let name: String = decl
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                names.insert(name);
            }
        }
    }
    names
}

/// Flags iteration over identifiers known to be hash maps/sets, unless
/// the use is order-free (reduction on the same line) or order-restored
/// (a `.sort` within the next three lines).
fn unordered_iteration(f: &SourceFile, idents: &[crate::lexer::Ident<'_>], out: &mut Vec<Finding>) {
    let names = collect_map_names(&f.masked);
    if names.is_empty() {
        return;
    }
    let lines: Vec<&str> = f.masked.lines().collect();
    let mut flag = |line: usize, name: &str, how: &str| {
        if f.is_test_line(line) {
            return;
        }
        let here = lines.get(line - 1).copied().unwrap_or("");
        if ORDER_FREE.iter().any(|p| here.contains(p)) {
            return;
        }
        // Order restored within three lines either way: a sort after
        // collecting, or — the `collect()`-then-iterate shape — a sort
        // just before the loop.
        let lo = line.saturating_sub(4);
        let sorted_nearby = (lo..(line + 3).min(lines.len())).any(|i| lines[i].contains(".sort"));
        if sorted_nearby {
            return;
        }
        out.push(finding(
            f,
            "no-unordered-iteration-feeding-events",
            line,
            format!(
                "{how} over hash map/set `{name}`: iteration order is the hasher's, not the \
                 program's — sort the items, reduce order-independently, or switch to a BTree \
                 collection (audited exceptions go in the allowlist)"
            ),
        ));
    };

    // `recv.iter()`-style method calls.
    for m in ITER_METHODS {
        for (pos, _) in f.masked.match_indices(m) {
            let prefix = &f.masked[..pos];
            let name: String = prefix
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if names.contains(&name) {
                let line = 1 + f.masked[..pos].matches('\n').count();
                flag(line, &name, &format!("`{}`", m.trim_matches(['.', '('])));
            }
        }
    }

    // `for x in &map` loops: map-name identifier whose nearest preceding
    // identifier is `in` (possibly through `self.`).
    for (i, id) in idents.iter().enumerate() {
        if !names.contains(id.text) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| idents[j].text);
        let prev2 = i.checked_sub(2).map(|j| idents[j].text);
        if prev == Some("in") || (prev == Some("self") && prev2 == Some("in")) {
            flag(id.line, id.text, "`for` loop");
        }
    }
}

/// Flags `.unwrap()` / `.expect(` outside `#[cfg(test)]` regions.
fn unchecked_unwraps(f: &SourceFile, out: &mut Vec<Finding>) {
    for pat in [".unwrap()", ".expect("] {
        for (pos, _) in f.masked.match_indices(pat) {
            let line = 1 + f.masked[..pos].matches('\n').count();
            if f.is_test_line(line) {
                continue;
            }
            out.push(finding(
                f,
                "no-unchecked-unwrap-in-protocol-crates",
                line,
                format!(
                    "`{}` in non-test code of audited crate `{}`: return a typed error, or \
                     prove the invariant with a match + unreachable!",
                    pat.trim_matches(['.', '(']),
                    f.crate_name
                ),
            ));
        }
    }
}

/// Cross-file rules plus every per-file rule, sorted for stable output.
pub fn scan_workspace(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        out.extend(scan_file(f));
    }
    // Audited crates must carry the compile-time deny attribute.
    for c in UNWRAP_AUDITED_CRATES {
        let lib = format!("crates/{c}/src/lib.rs");
        match files.iter().find(|f| f.rel == lib) {
            Some(f)
                if f.masked.contains("clippy::unwrap_used")
                    && f.masked.contains("clippy::expect_used") => {}
            Some(f) => {
                out.push(finding(
                    f,
                    "missing-clippy-deny",
                    1,
                    format!(
                        "crate `{c}` is unwrap-audited but its lib.rs does not deny \
                         clippy::unwrap_used/clippy::expect_used"
                    ),
                ));
            }
            None => {} // crate not in the scanned set (partial scan)
        }
    }
    // Binary frontends are entry paths: a panic there is a user-facing
    // crash with no typed exit, so every binary root carries the same
    // compile-time deny as the audited crates.
    for f in files {
        let is_binary_root =
            f.origin == Origin::Cli || (f.origin == Origin::Service && f.rel.contains("/src/bin/"));
        if is_binary_root
            && !(f.masked.contains("clippy::unwrap_used")
                && f.masked.contains("clippy::expect_used"))
        {
            out.push(finding(
                f,
                "missing-clippy-deny",
                1,
                format!(
                    "binary `{}` does not deny clippy::unwrap_used/clippy::expect_used; \
                     entry paths must exit with typed errors, not panics",
                    f.rel
                ),
            ));
        }
    }
    out.sort_by(|a, b| {
        (a.rel_path.as_str(), a.line, a.rule).cmp(&(b.rel_path.as_str(), b.line, b.rule))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile::from_text(rel, text.to_string()).expect("scannable path")
    }

    #[test]
    fn std_hashmap_in_sim_path_is_flagged() {
        let f = file(
            "crates/system/src/x.rs",
            "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n",
        );
        let hits = scan_file(&f);
        assert_eq!(
            hits.iter()
                .filter(|h| h.rule == "no-std-hashmap-in-sim-paths")
                .count(),
            2
        );
    }

    #[test]
    fn fx_map_is_not_flagged_as_std() {
        let f = file(
            "crates/system/src/x.rs",
            "use ring_sim::FxHashMap;\nstruct S { m: FxHashMap<u32, u32> }\n",
        );
        assert!(scan_file(&f)
            .iter()
            .all(|h| h.rule != "no-std-hashmap-in-sim-paths"));
    }

    #[test]
    fn wallclock_allowed_in_harness_and_cli_only() {
        let body = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }\n";
        assert!(scan_file(&file("crates/sim/src/x.rs", body))
            .iter()
            .any(|h| h.rule == "no-wallclock"));
        assert!(scan_file(&file("crates/bench/src/sweep.rs", body))
            .iter()
            .all(|h| h.rule != "no-wallclock"));
        assert!(scan_file(&file("src/bin/chaoscheck.rs", body))
            .iter()
            .all(|h| h.rule != "no-wallclock"));
    }

    #[test]
    fn entropy_is_flagged_even_in_cli() {
        let f = file("src/bin/x.rs", "fn f() { let mut r = thread_rng(); }\n");
        assert!(scan_file(&f).iter().any(|h| h.rule == "no-thread-rng"));
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let f = file(
            "crates/sim/src/x.rs",
            "// HashMap and Instant in a comment\nconst S: &str = \"SystemTime\";\n",
        );
        assert!(scan_file(&f).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let f = file(
            "crates/core/src/x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    \
             fn t() { Some(1).unwrap(); }\n}\n",
        );
        assert!(scan_file(&f).is_empty(), "{:?}", scan_file(&f));
    }

    #[test]
    fn unordered_iteration_flagged_and_discharged() {
        // Raw iteration feeding calls: flagged.
        let f = file(
            "crates/system/src/x.rs",
            "struct S { m: FxHashMap<u32, u32> }\nimpl S {\n  fn go(&self) { for (k, v) in \
             &self.m { emit(*k, *v); } }\n}\n",
        );
        assert!(scan_file(&f)
            .iter()
            .any(|h| h.rule == "no-unordered-iteration-feeding-events"));

        // Sorted within three lines: discharged.
        let f = file(
            "crates/system/src/x.rs",
            "struct S { m: FxHashMap<u32, u32> }\nimpl S {\n  fn go(&self) -> Vec<u32> {\n    \
             let mut ks: Vec<u32> = self.m.keys().copied().collect();\n    \
             ks.sort_unstable();\n    ks\n  }\n}\n",
        );
        assert!(
            scan_file(&f)
                .iter()
                .all(|h| h.rule != "no-unordered-iteration-feeding-events"),
            "{:?}",
            scan_file(&f)
        );

        // Order-independent reduction: discharged.
        let f = file(
            "crates/system/src/x.rs",
            "struct S { m: FxHashMap<u32, u64> }\nimpl S {\n  fn total(&self) -> u64 { \
             self.m.values().sum() }\n}\n",
        );
        assert!(scan_file(&f)
            .iter()
            .all(|h| h.rule != "no-unordered-iteration-feeding-events"));
    }

    #[test]
    fn unwrap_flagged_only_in_audited_crates() {
        let body = "fn f() { Some(1).unwrap(); }\n";
        assert!(scan_file(&file("crates/core/src/x.rs", body))
            .iter()
            .any(|h| h.rule == "no-unchecked-unwrap-in-protocol-crates"));
        assert!(scan_file(&file("crates/system/src/x.rs", body))
            .iter()
            .all(|h| h.rule != "no-unchecked-unwrap-in-protocol-crates"));
    }

    #[test]
    fn blocking_net_flagged_everywhere_outside_tests() {
        let body = "use std::os::unix::net::UnixListener;\nfn f() { \
                    let _l = UnixListener::bind(\"/tmp/x\"); }\n";
        for rel in [
            "crates/system/src/x.rs",
            "crates/bench/src/sweep.rs",
            "src/bin/chaoscheck.rs",
            "crates/server/src/supervisor.rs",
        ] {
            assert!(
                scan_file(&file(rel, body))
                    .iter()
                    .any(|h| h.rule == "no-blocking-net-in-sim-paths"),
                "{rel} should flag blocking net"
            );
        }
        // Tests may spin up sockets freely.
        assert!(scan_file(&file("crates/server/tests/e2e.rs", body)).is_empty());
        // Socket names in comments/strings never fire.
        let f = file(
            "crates/system/src/x.rs",
            "// TcpStream in a comment\nconst S: &str = \"UnixListener\";\n",
        );
        assert!(scan_file(&f).is_empty());
    }

    #[test]
    fn service_origin_is_hashmap_and_unwrap_audited_but_wallclock_free() {
        let f = file(
            "crates/server/src/supervisor.rs",
            "use std::collections::HashMap;\nuse std::time::Instant;\n\
             fn f() { Some(1).unwrap(); }\n",
        );
        let hits = scan_file(&f);
        assert!(hits.iter().any(|h| h.rule == "no-std-hashmap-in-sim-paths"));
        assert!(hits
            .iter()
            .any(|h| h.rule == "no-unchecked-unwrap-in-protocol-crates"));
        // Socket deadlines are the daemon's job: wall clock is allowed.
        assert!(hits.iter().all(|h| h.rule != "no-wallclock"));
    }

    #[test]
    fn binaries_without_deny_attr_are_workspace_findings() {
        let bare = file("src/bin/chaoscheck.rs", "fn main() {}\n");
        let armed = file(
            "crates/server/src/bin/ringd.rs",
            "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n\
             fn main() {}\n",
        );
        let hits = scan_workspace(&[bare, armed]);
        let denies: Vec<_> = hits
            .iter()
            .filter(|h| h.rule == "missing-clippy-deny")
            .collect();
        assert_eq!(denies.len(), 1, "{denies:?}");
        assert_eq!(denies[0].rel_path, "src/bin/chaoscheck.rs");
    }

    #[test]
    fn missing_deny_attr_is_a_workspace_finding() {
        let with = file(
            "crates/core/src/lib.rs",
            "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n",
        );
        let without = file("crates/noc/src/lib.rs", "//! noc\n");
        let hits = scan_workspace(&[with, without]);
        let denies: Vec<_> = hits
            .iter()
            .filter(|h| h.rule == "missing-clippy-deny")
            .collect();
        assert_eq!(denies.len(), 1);
        assert_eq!(denies[0].rel_path, "crates/noc/src/lib.rs");
    }
}
