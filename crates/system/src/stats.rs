//! Machine-level statistics and run reports.

use ring_sim::Cycle;
use ring_stats::{Histogram, LogHistogram, Summary, TrafficMeter};
use ring_trace::ClassLatency;
use serde::{Deserialize, Serialize};

/// Everything a machine run measures — the raw material for every figure
/// and table of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineStats {
    /// Read-miss latency over all read misses (Figure 8(c) column 2/3).
    pub read_latency: Summary,
    /// Read-miss latency, cache-to-cache transfers only.
    pub read_latency_c2c: Summary,
    /// Read-miss latency, memory transfers only.
    pub read_latency_mem: Summary,
    /// Histogram of cache-to-cache read-miss latencies (Figures 8(a)/(b)
    /// and 11(a)/(b)).
    pub c2c_histogram: Histogram,
    /// Time from issue to *completion* (own combined response consumed)
    /// for read transactions — the "time to response reception" of the
    /// paper's Figure 5(b), as opposed to the binding latency above.
    pub read_completion: Summary,
    /// Read misses serviced cache-to-cache.
    pub reads_c2c: u64,
    /// Read misses serviced from memory.
    pub reads_mem: u64,
    /// Figure 10(a) categories (read misses under Uncorq+Pref):
    /// prefetch issued, serviced from a cache.
    pub pref_cache: u64,
    /// No prefetch issued, serviced from a cache.
    pub nopref_cache: u64,
    /// No prefetch issued, serviced from memory.
    pub nopref_mem: u64,
    /// Prefetch issued and serviced from memory.
    pub pref_mem: u64,
    /// Coherence traffic in byte-hops (Figure 11(c) traffic column).
    pub traffic: TrafficMeter,
    /// Total squash/loser retries across nodes.
    pub retries: u64,
    /// Transactions completed.
    pub transactions: u64,
    /// Snoop operations performed across nodes.
    pub snoops: u64,
    /// Snoops skipped by presence filters (Flexible Snooping).
    pub snoops_skipped: u64,
    /// Responses stalled by LTT WID rules (Ordering invariant at work).
    pub ltt_stalls: u64,
    /// Peak LTT occupancy across nodes.
    pub ltt_peak: usize,
    /// Starvation episodes.
    pub starvation_events: u64,
    /// Operations retired by all cores.
    pub ops_retired: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Figure 5(a) anatomy, segment 1: issue until the supplier grants
    /// suppliership (request delivery plus the supplier's snoop).
    pub anat_delivery: Summary,
    /// Anatomy segment 2: suppliership grant until the data binds at the
    /// requester.
    pub anat_transfer: Summary,
    /// Anatomy segment 3: data bound until the combined response lets the
    /// transaction complete.
    pub anat_response: Summary,
    /// Distribution of per-physical-link message counts (hotspot view:
    /// the embedded ring concentrates load on ring links).
    pub link_msgs: Summary,
    /// Anatomy segment 1 as a full log-bucketed distribution
    /// (percentiles of the request-delivery phase, not just its mean).
    pub phase_delivery: LogHistogram,
    /// Anatomy segment 2 as a full distribution (data transfer).
    pub phase_transfer: LogHistogram,
    /// Anatomy segment 3 as a full distribution (response return).
    pub phase_response: LogHistogram,
    /// Issue-to-completion latency distributions per transaction class
    /// (read/write/upgrade × cache-to-cache/memory).
    pub class_latency: ClassLatency,
}

impl Default for MachineStats {
    fn default() -> Self {
        MachineStats {
            read_latency: Summary::new(),
            read_latency_c2c: Summary::new(),
            read_latency_mem: Summary::new(),
            c2c_histogram: Histogram::new(16, 96),
            read_completion: Summary::new(),
            reads_c2c: 0,
            reads_mem: 0,
            pref_cache: 0,
            nopref_cache: 0,
            nopref_mem: 0,
            pref_mem: 0,
            traffic: TrafficMeter::new(),
            retries: 0,
            transactions: 0,
            snoops: 0,
            snoops_skipped: 0,
            ltt_stalls: 0,
            ltt_peak: 0,
            starvation_events: 0,
            ops_retired: 0,
            events: 0,
            anat_delivery: Summary::new(),
            anat_transfer: Summary::new(),
            anat_response: Summary::new(),
            link_msgs: Summary::new(),
            phase_delivery: LogHistogram::new(),
            phase_transfer: LogHistogram::new(),
            phase_response: LogHistogram::new(),
            class_latency: ClassLatency::new(),
        }
    }
}

impl MachineStats {
    /// Fraction of read misses serviced cache-to-cache (Figure 8(c) last
    /// column), or 0 with no misses.
    pub fn c2c_fraction(&self) -> f64 {
        let total = self.reads_c2c + self.reads_mem;
        if total == 0 {
            0.0
        } else {
            self.reads_c2c as f64 / total as f64
        }
    }

    /// Total read misses observed.
    pub fn read_misses(&self) -> u64 {
        self.reads_c2c + self.reads_mem
    }
}

/// The result of one machine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Cycle at which the last core finished (the execution time of
    /// Figure 9).
    pub exec_cycles: Cycle,
    /// Whether all cores ran to completion (false = hit the cycle cap).
    pub finished: bool,
    /// All measurements.
    pub stats: MachineStats,
}

impl Report {
    /// Writes a gem5-style plain-text statistics listing, one
    /// `name value` pair per line, suitable for archiving runs and
    /// diffing protocols.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_stats<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let s = &self.stats;
        writeln!(w, "finished {}", self.finished)?;
        writeln!(w, "exec_cycles {}", self.exec_cycles)?;
        writeln!(w, "ops_retired {}", s.ops_retired)?;
        writeln!(w, "read_misses {}", s.read_misses())?;
        writeln!(w, "read_misses_c2c {}", s.reads_c2c)?;
        writeln!(w, "read_misses_mem {}", s.reads_mem)?;
        writeln!(w, "read_latency_avg {:.2}", s.read_latency.mean())?;
        writeln!(w, "read_latency_c2c_avg {:.2}", s.read_latency_c2c.mean())?;
        writeln!(w, "read_latency_mem_avg {:.2}", s.read_latency_mem.mean())?;
        writeln!(w, "read_completion_avg {:.2}", s.read_completion.mean())?;
        writeln!(w, "c2c_fraction {:.4}", s.c2c_fraction())?;
        writeln!(w, "transactions {}", s.transactions)?;
        writeln!(w, "retries {}", s.retries)?;
        writeln!(w, "snoops {}", s.snoops)?;
        writeln!(w, "snoops_skipped {}", s.snoops_skipped)?;
        writeln!(w, "ltt_stalled_responses {}", s.ltt_stalls)?;
        writeln!(w, "ltt_peak_entries {}", s.ltt_peak)?;
        writeln!(w, "starvation_events {}", s.starvation_events)?;
        writeln!(w, "traffic_byte_hops {}", s.traffic.total_byte_hops())?;
        writeln!(w, "traffic_messages {}", s.traffic.messages())?;
        writeln!(w, "pref_cache {}", s.pref_cache)?;
        writeln!(w, "nopref_cache {}", s.nopref_cache)?;
        writeln!(w, "nopref_mem {}", s.nopref_mem)?;
        writeln!(w, "pref_mem {}", s.pref_mem)?;
        writeln!(w, "anatomy_delivery_avg {:.2}", s.anat_delivery.mean())?;
        writeln!(w, "anatomy_transfer_avg {:.2}", s.anat_transfer.mean())?;
        writeln!(w, "anatomy_response_avg {:.2}", s.anat_response.mean())?;
        writeln!(
            w,
            "link_messages_max {:.0}",
            s.link_msgs.max().unwrap_or(0.0)
        )?;
        writeln!(w, "link_messages_avg {:.2}", s.link_msgs.mean())?;
        writeln!(w, "events {}", s.events)?;
        Ok(())
    }

    /// Writes the full report as a single JSON object — every counter
    /// of [`write_stats`](Report::write_stats) plus the phase and
    /// per-class latency distributions with their percentiles. This is
    /// the machine-readable companion of the plain-text listing, written
    /// by the main CLI's `--metrics-out`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_json<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let s = &self.stats;
        writeln!(w, "{{")?;
        writeln!(w, "  \"finished\": {},", self.finished)?;
        writeln!(w, "  \"exec_cycles\": {},", self.exec_cycles)?;
        writeln!(w, "  \"ops_retired\": {},", s.ops_retired)?;
        writeln!(w, "  \"read_misses\": {},", s.read_misses())?;
        writeln!(w, "  \"read_misses_c2c\": {},", s.reads_c2c)?;
        writeln!(w, "  \"read_misses_mem\": {},", s.reads_mem)?;
        writeln!(w, "  \"c2c_fraction\": {:.4},", s.c2c_fraction())?;
        writeln!(w, "  \"read_latency\": {},", json_summary(&s.read_latency))?;
        writeln!(
            w,
            "  \"read_latency_c2c\": {},",
            json_summary(&s.read_latency_c2c)
        )?;
        writeln!(
            w,
            "  \"read_latency_mem\": {},",
            json_summary(&s.read_latency_mem)
        )?;
        writeln!(
            w,
            "  \"read_completion\": {},",
            json_summary(&s.read_completion)
        )?;
        writeln!(w, "  \"transactions\": {},", s.transactions)?;
        writeln!(w, "  \"retries\": {},", s.retries)?;
        writeln!(w, "  \"snoops\": {},", s.snoops)?;
        writeln!(w, "  \"snoops_skipped\": {},", s.snoops_skipped)?;
        writeln!(w, "  \"ltt_stalled_responses\": {},", s.ltt_stalls)?;
        writeln!(w, "  \"ltt_peak_entries\": {},", s.ltt_peak)?;
        writeln!(w, "  \"starvation_events\": {},", s.starvation_events)?;
        writeln!(
            w,
            "  \"traffic_byte_hops\": {},",
            s.traffic.total_byte_hops()
        )?;
        writeln!(w, "  \"traffic_messages\": {},", s.traffic.messages())?;
        writeln!(w, "  \"pref_cache\": {},", s.pref_cache)?;
        writeln!(w, "  \"nopref_cache\": {},", s.nopref_cache)?;
        writeln!(w, "  \"nopref_mem\": {},", s.nopref_mem)?;
        writeln!(w, "  \"pref_mem\": {},", s.pref_mem)?;
        writeln!(w, "  \"link_messages\": {},", json_summary(&s.link_msgs))?;
        writeln!(w, "  \"events\": {},", s.events)?;
        writeln!(w, "  \"phases\": {{")?;
        let phases = [
            ("delivery", &s.phase_delivery),
            ("transfer", &s.phase_transfer),
            ("response", &s.phase_response),
        ];
        for (i, (name, h)) in phases.iter().enumerate() {
            let comma = if i + 1 < phases.len() { "," } else { "" };
            writeln!(w, "    \"{name}\": {}{comma}", json_histogram(h))?;
        }
        writeln!(w, "  }},")?;
        writeln!(w, "  \"classes\": {{")?;
        let classes = s.class_latency.classes();
        for (i, (name, h)) in classes.iter().enumerate() {
            let comma = if i + 1 < classes.len() { "," } else { "" };
            writeln!(w, "    \"{name}\": {}{comma}", json_histogram(h))?;
        }
        writeln!(w, "  }}")?;
        writeln!(w, "}}")?;
        Ok(())
    }

    /// FNV-1a digest of the full [`Report::write_stats`] listing: two runs
    /// with the same digest produced identical reports, field for field.
    /// The golden-digest suite and `chaoscheck` compare runs by it.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::new();
        self.write_stats(&mut buf)
            .expect("writing into a Vec cannot fail");
        ring_snapshot::fnv1a(&buf)
    }

    /// Writes a Prometheus text-format snapshot of the run: headline
    /// counters plus the phase and per-class latency distributions as
    /// summary metrics with `quantile` labels.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_prometheus<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let s = &self.stats;
        writeln!(w, "# TYPE uncorq_finished gauge")?;
        writeln!(w, "uncorq_finished {}", u8::from(self.finished))?;
        writeln!(w, "# TYPE uncorq_exec_cycles gauge")?;
        writeln!(w, "uncorq_exec_cycles {}", self.exec_cycles)?;
        let counters: [(&str, u64); 12] = [
            ("ops_retired", s.ops_retired),
            ("read_misses", s.read_misses()),
            ("read_misses_c2c", s.reads_c2c),
            ("read_misses_mem", s.reads_mem),
            ("transactions", s.transactions),
            ("retries", s.retries),
            ("snoops", s.snoops),
            ("snoops_skipped", s.snoops_skipped),
            ("ltt_stalled_responses", s.ltt_stalls),
            ("starvation_events", s.starvation_events),
            ("traffic_byte_hops", s.traffic.total_byte_hops()),
            ("sim_events", s.events),
        ];
        for (name, v) in counters {
            writeln!(w, "# TYPE uncorq_{name} counter")?;
            writeln!(w, "uncorq_{name} {v}")?;
        }
        writeln!(w, "# TYPE uncorq_phase_latency_cycles summary")?;
        for (name, h) in [
            ("delivery", &s.phase_delivery),
            ("transfer", &s.phase_transfer),
            ("response", &s.phase_response),
        ] {
            write_prom_summary(&mut w, "uncorq_phase_latency_cycles", "phase", name, h)?;
        }
        writeln!(w, "# TYPE uncorq_class_latency_cycles summary")?;
        for (name, h) in s.class_latency.classes() {
            write_prom_summary(&mut w, "uncorq_class_latency_cycles", "class", name, h)?;
        }
        Ok(())
    }

    /// Renders the phase and per-class latency percentile tables as
    /// plain text — the human-readable view of the distributions that
    /// [`write_json`](Report::write_json) serializes. Classes and
    /// phases with no samples are skipped.
    pub fn latency_table(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let header = format!(
            "{:<16} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "", "count", "p50", "p90", "p99", "p99.9", "max"
        );
        out.push_str("phase latency (cycles)\n");
        out.push_str(&header);
        for (name, h) in [
            ("delivery", &s.phase_delivery),
            ("transfer", &s.phase_transfer),
            ("response", &s.phase_response),
        ] {
            push_table_row(&mut out, name, h);
        }
        out.push_str("class latency (cycles)\n");
        out.push_str(&header);
        for (name, h) in s.class_latency.classes() {
            push_table_row(&mut out, name, h);
        }
        out
    }
}

fn push_table_row(out: &mut String, name: &str, h: &LogHistogram) {
    if h.is_empty() {
        return;
    }
    out.push_str(&format!(
        "  {:<14} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        name,
        h.total(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999(),
        h.max().unwrap_or(0)
    ));
}

fn json_summary(s: &Summary) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:.2}, \"min\": {:.0}, \"max\": {:.0}}}",
        s.count(),
        s.mean(),
        s.min().unwrap_or(0.0),
        s.max().unwrap_or(0.0)
    )
}

fn json_histogram(h: &LogHistogram) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:.2}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"saturated\": {}}}",
        h.total(),
        h.mean(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999(),
        h.saturated()
    )
}

fn write_prom_summary<W: std::io::Write>(
    w: &mut W,
    metric: &str,
    label: &str,
    value: &str,
    h: &LogHistogram,
) -> std::io::Result<()> {
    for (q, v) in [
        ("0.5", h.p50()),
        ("0.9", h.p90()),
        ("0.99", h.p99()),
        ("0.999", h.p999()),
    ] {
        writeln!(w, "{metric}{{{label}=\"{value}\",quantile=\"{q}\"}} {v}")?;
    }
    writeln!(
        w,
        "{metric}_sum{{{label}=\"{value}\"}} {:.0}",
        h.mean() * h.total() as f64
    )?;
    writeln!(w, "{metric}_count{{{label}=\"{value}\"}} {}", h.total())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_trace::json::Json;

    #[test]
    fn c2c_fraction_handles_empty() {
        let s = MachineStats::default();
        assert_eq!(s.c2c_fraction(), 0.0);
    }

    #[test]
    fn stats_listing_contains_every_headline_counter() {
        let r = Report {
            exec_cycles: 123,
            finished: true,
            stats: MachineStats::default(),
        };
        let mut buf = Vec::new();
        r.write_stats(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        for key in [
            "exec_cycles 123",
            "read_latency_avg",
            "c2c_fraction",
            "traffic_byte_hops",
            "ltt_stalled_responses",
        ] {
            assert!(
                s.contains(key),
                "missing {key} in
{s}"
            );
        }
    }

    #[test]
    fn json_report_is_parseable_and_carries_percentiles() {
        let mut stats = MachineStats {
            transactions: 5,
            ..MachineStats::default()
        };
        for v in [10, 20, 30, 40, 50] {
            stats.phase_delivery.record(v);
            stats
                .class_latency
                .record(ring_trace::OpClass::Read, true, v * 2);
        }
        let r = Report {
            exec_cycles: 99,
            finished: true,
            stats,
        };
        let mut buf = Vec::new();
        r.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let j = Json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let uint = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64);
        assert_eq!(j.get("finished").and_then(Json::as_bool), Some(true));
        assert_eq!(uint(&j, "exec_cycles"), Some(99));
        assert_eq!(uint(&j, "transactions"), Some(5));
        let delivery = j.get("phases").and_then(|p| p.get("delivery")).unwrap();
        assert_eq!(uint(delivery, "count"), Some(5));
        assert_eq!(uint(delivery, "min"), Some(10));
        assert_eq!(uint(delivery, "p99"), Some(50));
        assert_eq!(delivery.get("mean"), Some(&Json::Num(30.0)));
        let read_c2c = j.get("classes").and_then(|c| c.get("read_c2c")).unwrap();
        assert_eq!(uint(read_c2c, "count"), Some(5));
        assert_eq!(uint(read_c2c, "max"), Some(100));
    }

    #[test]
    fn prometheus_snapshot_has_types_and_quantiles() {
        let mut stats = MachineStats::default();
        stats.phase_response.record(100);
        stats
            .class_latency
            .record(ring_trace::OpClass::WriteMiss, false, 64);
        let r = Report {
            exec_cycles: 7,
            finished: false,
            stats,
        };
        let mut buf = Vec::new();
        r.write_prometheus(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("# TYPE uncorq_exec_cycles gauge"));
        assert!(s.contains("uncorq_finished 0"));
        assert!(s.contains("uncorq_phase_latency_cycles{phase=\"response\",quantile=\"0.99\"} 100"));
        assert!(s.contains("uncorq_class_latency_cycles{class=\"write_mem\",quantile=\"0.5\"} 64"));
        assert!(s.contains("uncorq_class_latency_cycles_count{class=\"write_mem\"} 1"));
    }

    #[test]
    fn latency_table_skips_empty_rows() {
        let mut stats = MachineStats::default();
        stats.phase_delivery.record(40);
        let r = Report {
            exec_cycles: 1,
            finished: true,
            stats,
        };
        let table = r.latency_table();
        assert!(table.contains("delivery"));
        assert!(!table.contains("transfer"));
        assert!(!table.contains("read_c2c"));
    }

    #[test]
    fn c2c_fraction_computes() {
        let s = MachineStats {
            reads_c2c: 90,
            reads_mem: 10,
            ..MachineStats::default()
        };
        assert!((s.c2c_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(s.read_misses(), 100);
    }
}
