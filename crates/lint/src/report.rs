//! The combined ringlint report: one struct, one JSON document, one
//! human summary, one gate verdict.
//!
//! The JSON is hand-rolled (the workspace vendors no real serde
//! runtime) against a stable `ringlint-v1` schema so CI can archive and
//! diff reports across commits. Everything the gate decides on is in
//! the document — a reviewer can reconstruct the pass/fail from the
//! artifact alone.

use std::fmt::Write as _;

use crate::allow::AllowEntry;
use crate::bounds::{BoundCheck, BoundStatus};
use crate::proto::TableAudit;
use crate::rules::{Finding, Severity, RULES};
use crate::waitfor::DeadlockProof;
use ring_model::VariantAnalysis;
use ring_trace::json::quote;

/// Everything one ringlint run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// All source findings, allowlist already applied.
    pub findings: Vec<Finding>,
    /// Malformed allowlist lines: `(line, problem)`.
    pub allow_errors: Vec<(usize, String)>,
    /// Allowlist entries that discharged nothing.
    pub stale_allows: Vec<AllowEntry>,
    /// Supplier-table row audit.
    pub supplier_audit: Option<TableAudit>,
    /// Decision-table row audit.
    pub decision_audit: Option<TableAudit>,
    /// Per-variant completeness/determinism (the PR-3 analysis).
    pub variants: Vec<VariantAnalysis>,
    /// Per-variant deadlock-freedom proofs.
    pub proofs: Vec<DeadlockProof>,
    /// Static capacity bounds.
    pub bounds: Vec<BoundCheck>,
}

impl Report {
    /// Deny-severity findings not covered by the allowlist.
    pub fn open_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny && f.allowed.is_none())
    }

    /// The CI gate: fails on any open deny finding, allowlist rot
    /// (parse errors or stale entries), table audit problems, a
    /// non-acyclic wait-for graph, or a failed capacity bound.
    pub fn gate_ok(&self) -> bool {
        self.open_findings().next().is_none()
            && self.allow_errors.is_empty()
            && self.stale_allows.is_empty()
            && self
                .supplier_audit
                .as_ref()
                .is_none_or(TableAudit::is_clean)
            && self
                .decision_audit
                .as_ref()
                .is_none_or(TableAudit::is_clean)
            && self.variants.iter().all(VariantAnalysis::is_sound)
            && self.proofs.iter().all(|p| p.acyclic)
            && self.bounds.iter().all(|b| b.status != BoundStatus::Fail)
    }

    /// Renders the stable `ringlint-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(16 * 1024);
        s.push_str("{\n  \"schema\": \"ringlint-v1\",\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);

        s.push_str("  \"rules\": [\n");
        for (i, r) in RULES.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"id\": {}, \"severity\": {}, \"description\": {}}}",
                quote(r.id),
                quote(r.severity.name()),
                quote(r.description)
            );
            s.push_str(if i + 1 < RULES.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");

        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \
                 \"message\": {}, \"snippet\": {}, \"allowed\": {}}}",
                quote(f.rule),
                quote(f.severity.name()),
                quote(&f.rel_path),
                f.line,
                quote(&f.message),
                quote(&f.snippet),
                f.allowed.as_deref().map_or("null".to_string(), quote),
            );
            s.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");

        s.push_str("  \"allowlist\": {\"errors\": [");
        for (i, (line, msg)) in self.allow_errors.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{{\"line\": {line}, \"problem\": {}}}", quote(msg));
        }
        s.push_str("], \"stale\": [");
        for (i, e) in self.stale_allows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"rule\": {}, \"path\": {}, \"line\": {}}}",
                quote(&e.rule),
                quote(&e.rel_path),
                e.line
            );
        }
        s.push_str("]},\n");

        s.push_str("  \"tables\": {");
        for (key, audit) in [
            ("supplier", &self.supplier_audit),
            ("decision", &self.decision_audit),
        ] {
            if key == "decision" {
                s.push_str(", ");
            }
            match audit {
                Some(a) => {
                    let _ = write!(
                        s,
                        "\"{key}\": {{\"clean\": {}, \"dead_rows\": {}, \"overlaps\": {}, \
                         \"rows\": {}}}",
                        a.is_clean(),
                        str_list(a.dead_rows.iter().map(String::as_str)),
                        str_list(a.overlaps.iter().map(String::as_str)),
                        a.unique_matches.len()
                    );
                }
                None => {
                    let _ = write!(s, "\"{key}\": null");
                }
            }
        }
        s.push_str("},\n");

        s.push_str("  \"variants\": [\n");
        for (i, v) in self.variants.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"variant\": {}, \"sound\": {}, \"supplier_holes\": {}, \
                 \"supplier_ambiguities\": {}, \"decision_holes\": {}, \
                 \"decision_ambiguities\": {}}}",
                quote(v.variant.name()),
                v.is_sound(),
                v.supplier.holes.len() + v.supplier_keep.holes.len(),
                v.supplier.ambiguities.len() + v.supplier_keep.ambiguities.len(),
                v.decision.holes.len(),
                v.decision.ambiguities.len()
            );
            s.push_str(if i + 1 < self.variants.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");

        s.push_str("  \"deadlock\": [\n");
        for (i, p) in self.proofs.iter().enumerate() {
            let cycle = match &p.cycle {
                Some(c) => str_list(c.iter().map(|r| r.name())),
                None => "null".to_string(),
            };
            let _ = write!(
                s,
                "    {{\"variant\": {}, \"acyclic\": {}, \"live_edges\": {}, \
                 \"topological_order\": {}, \"cycle\": {}, \"discharged\": [",
                quote(p.variant.name()),
                p.acyclic,
                p.live_edges,
                str_list(p.topo_order.iter().map(|r| r.name())),
                cycle
            );
            for (j, e) in p.discharged.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(
                    s,
                    "{{\"from\": {}, \"to\": {}, \"wait\": {}, \"rank_argument\": {}}}",
                    quote(e.from.name()),
                    quote(e.to.name()),
                    quote(&e.reason),
                    quote(e.discharged.as_deref().unwrap_or(""))
                );
            }
            s.push_str("]}");
            s.push_str(if i + 1 < self.proofs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");

        s.push_str("  \"bounds\": [\n");
        for (i, b) in self.bounds.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"id\": {}, \"config\": {}, \"status\": {}, \"formula\": {}, \
                 \"detail\": {}}}",
                quote(b.id),
                quote(&b.config),
                quote(b.status.name()),
                quote(&b.formula),
                quote(&b.detail)
            );
            s.push_str(if i + 1 < self.bounds.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");

        let _ = write!(
            s,
            "  \"gate\": {{\"ok\": {}, \"open_findings\": {}, \"allowed_findings\": {}}}\n}}\n",
            self.gate_ok(),
            self.open_findings().count(),
            self.findings.iter().filter(|f| f.allowed.is_some()).count()
        );
        s
    }

    /// Renders the terminal summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "ringlint: scanned {} source files", self.files_scanned);
        for f in &self.findings {
            let status = match &f.allowed {
                Some(reason) => format!("allowed: {reason}"),
                None => f.severity.name().to_string(),
            };
            let _ = writeln!(
                s,
                "  [{status}] {}:{} {} — {}",
                f.rel_path, f.line, f.rule, f.message
            );
        }
        for (line, msg) in &self.allow_errors {
            let _ = writeln!(s, "  [deny] ringlint.allow:{line} malformed entry: {msg}");
        }
        for e in &self.stale_allows {
            let _ = writeln!(
                s,
                "  [deny] ringlint.allow:{} stale entry ({} {}) discharges nothing — delete it",
                e.line, e.rule, e.rel_path
            );
        }
        for (name, audit) in [
            ("supplier", &self.supplier_audit),
            ("decision", &self.decision_audit),
        ] {
            if let Some(a) = audit {
                for d in a.dead_rows.iter().chain(&a.overlaps) {
                    let _ = writeln!(s, "  [deny] {name} table: {d}");
                }
            }
        }
        for v in &self.variants {
            if !v.is_sound() {
                let _ = writeln!(
                    s,
                    "  [deny] {}: table holes/ambiguities (see modelcheck)",
                    v.variant.name()
                );
            }
        }
        for p in &self.proofs {
            if p.acyclic {
                let order: Vec<&str> = p.topo_order.iter().map(|r| r.name()).collect();
                let _ = writeln!(
                    s,
                    "  deadlock-free [{:<11}] {} live edges, {} discharged; rank: {}",
                    p.variant.name(),
                    p.live_edges,
                    p.discharged.len(),
                    order.join(" < ")
                );
            } else {
                let cyc: Vec<&str> = p
                    .cycle
                    .as_deref()
                    .unwrap_or_default()
                    .iter()
                    .map(|r| r.name())
                    .collect();
                let _ = writeln!(
                    s,
                    "  [deny] {}: wait-for CYCLE {}",
                    p.variant.name(),
                    cyc.join(" -> ")
                );
            }
        }
        let fails = self
            .bounds
            .iter()
            .filter(|b| b.status == BoundStatus::Fail)
            .count();
        let warns = self
            .bounds
            .iter()
            .filter(|b| b.status == BoundStatus::Warn)
            .count();
        let _ = writeln!(
            s,
            "  bounds: {} checked, {} warn, {} fail",
            self.bounds.len(),
            warns,
            fails
        );
        for b in self.bounds.iter().filter(|b| b.status != BoundStatus::Pass) {
            let _ = writeln!(
                s,
                "    [{}] {} ({}): {}",
                b.status.name(),
                b.id,
                b.config,
                b.formula
            );
        }
        let _ = writeln!(
            s,
            "ringlint: {} ({} open findings, {} allowed)",
            if self.gate_ok() { "PASS" } else { "FAIL" },
            self.open_findings().count(),
            self.findings.iter().filter(|f| f.allowed.is_some()).count()
        );
        s
    }
}

/// A JSON array of strings, with the `", "` separators of the
/// `ringlint-v1` layout.
fn str_list<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    let quoted: Vec<String> = items.into_iter().map(quote).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    use ring_trace::json::Json;

    fn count(v: &Json, key: &str) -> usize {
        match v.get(key) {
            Some(Json::Arr(items)) => items.len(),
            other => panic!("`{key}` is not an array: {other:?}"),
        }
    }

    #[test]
    fn empty_report_gates_ok_and_renders() {
        let r = Report::default();
        assert!(r.gate_ok());
        let j = Json::parse(&r.to_json()).expect("ringlint-v1 is JSON");
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("ringlint-v1"));
        assert_eq!(j.get("files_scanned").and_then(Json::as_u64), Some(0));
        assert_eq!(count(&j, "rules"), RULES.len());
        assert_eq!(count(&j, "findings"), 0);
        let gate = j.get("gate").expect("gate");
        assert_eq!(gate.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(gate.get("open_findings").and_then(Json::as_u64), Some(0));
        let tables = j.get("tables").expect("tables");
        assert_eq!(tables.get("supplier"), Some(&Json::Null));
    }

    #[test]
    fn open_deny_finding_fails_the_gate() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "no-wallclock",
            severity: Severity::Deny,
            rel_path: "crates/sim/src/x.rs".to_string(),
            line: 3,
            message: "m".to_string(),
            snippet: "s".to_string(),
            allowed: None,
        });
        assert!(!r.gate_ok());
        r.findings[0].allowed = Some("audited".to_string());
        assert!(r.gate_ok());
    }

    #[test]
    fn full_report_json_parses_and_carries_every_verdict() {
        let mut r = Report {
            files_scanned: 3,
            variants: ring_model::analyze_all(),
            proofs: crate::waitfor::prove_all(true),
            bounds: crate::bounds::check_all(),
            supplier_audit: Some(crate::proto::audit_supplier_table(
                &ring_coherence::SupplierTable::canonical(),
            )),
            decision_audit: Some(crate::proto::audit_decision_table(
                &ring_coherence::DecisionTable::canonical(),
            )),
            ..Report::default()
        };
        // A finding whose text needs every kind of escape.
        r.findings.push(Finding {
            rule: "no-wallclock",
            severity: Severity::Deny,
            rel_path: "crates/sim/src/x.rs".to_string(),
            line: 7,
            message: "a \"quoted\" \\ path\n".to_string(),
            snippet: "\tlet t = Instant::now();\u{1}".to_string(),
            allowed: Some("audited".to_string()),
        });
        assert!(r.gate_ok());
        let text = r.to_json();
        let j = Json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(j.get("files_scanned").and_then(Json::as_u64), Some(3));
        let Some(Json::Arr(findings)) = j.get("findings") else {
            panic!("findings");
        };
        let f = &findings[0];
        assert_eq!(
            f.get("message").and_then(Json::as_str),
            Some(r.findings[0].message.as_str())
        );
        assert_eq!(
            f.get("snippet").and_then(Json::as_str),
            Some(r.findings[0].snippet.as_str())
        );
        assert_eq!(f.get("line").and_then(Json::as_u64), Some(7));
        assert_eq!(f.get("allowed").and_then(Json::as_str), Some("audited"));
        assert_eq!(count(&j, "variants"), r.variants.len());
        assert_eq!(count(&j, "bounds"), r.bounds.len());
        let Some(Json::Arr(proofs)) = j.get("deadlock") else {
            panic!("deadlock");
        };
        assert_eq!(proofs.len(), r.proofs.len());
        for (p, want) in proofs.iter().zip(&r.proofs) {
            assert_eq!(p.get("acyclic").and_then(Json::as_bool), Some(true));
            assert_eq!(p.get("cycle"), Some(&Json::Null));
            assert_eq!(count(p, "topological_order"), want.topo_order.len());
            assert_eq!(count(p, "discharged"), want.discharged.len());
        }
        let supplier = j.get("tables").and_then(|t| t.get("supplier"));
        assert_eq!(
            supplier
                .and_then(|s| s.get("clean"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let gate = j.get("gate").expect("gate");
        assert_eq!(gate.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(gate.get("allowed_findings").and_then(Json::as_u64), Some(1));
        let human = r.summary();
        assert!(human.contains("deadlock-free"));
        assert!(human.contains("PASS"));
    }
}
