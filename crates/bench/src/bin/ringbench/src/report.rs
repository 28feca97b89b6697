//! The metric catalogue and one run's result: its checks, its metrics,
//! and how they are printed.

use crate::json::{number, quote};

/// A metric the benchmark reports, by name and unit. `BENCHMARK.json`
/// declares the same names and units (a unit test holds them equal).
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Printed by every untraced run, for every workload.
pub const END_TO_END: [Def; 7] = [
    def("events_per_s", "events/s"),
    def("sim_ops_per_s", "ops/s"),
    def("job_p50_s", "s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("sim_cycles", "cycles"),
    def("sim_read_latency_cycles", "cycles"),
];

/// Printed by every traced run, for every workload. Layers are named
/// after the repository's crates.
pub const PER_LAYER: [Def; 47] = [
    def("system.ns_per_event", "ns"),
    def("system.new_ms", "ms"),
    def("system.slice_p50_us", "us"),
    def("system.slice_p99_us", "us"),
    def("system.pdes_speedup", "x"),
    def("system.pdes_cpu_util", "ratio"),
    def("sim.events", "count"),
    def("sim.peak_queue", "count"),
    def("sim.queue_hold_ns", "ns"),
    def("noc.messages", "count"),
    def("noc.byte_hops", "count"),
    def("noc.unicast_ns", "ns"),
    def("noc.multicast_ns", "ns"),
    def("core.snoops", "count"),
    def("core.snoop_skip_ratio", "ratio"),
    def("core.retry_ratio", "ratio"),
    def("core.ltt_stalls", "count"),
    def("core.agent_read_ns", "ns"),
    def("core.ltt_cycle_ns", "ns"),
    def("cache.access_ns", "ns"),
    def("cache.l1_hit_ratio", "ratio"),
    def("cache.l2_hit_ratio", "ratio"),
    def("mem.reads", "count"),
    def("mem.c2c_fraction", "ratio"),
    def("mem.request_ns", "ns"),
    def("cpu.ops_retired", "count"),
    def("cpu.op_ns", "ns"),
    def("workloads.gen_ns_per_op", "ns"),
    def("trace.events", "count"),
    def("trace.overhead_ratio", "ratio"),
    def("stats.report_ms", "ms"),
    def("snapshot.bytes", "bytes"),
    def("snapshot.build_ms", "ms"),
    def("snapshot.encode_ms", "ms"),
    def("snapshot.write_ms", "ms"),
    def("snapshot.restore_ms", "ms"),
    def("server.create_ms", "ms"),
    def("server.start_ms", "ms"),
    def("server.status_ms", "ms"),
    def("server.kill_ms", "ms"),
    def("server.run_ms", "ms"),
    def("server.overhead_ratio", "ratio"),
    def("server.ckpts_per_session", "count"),
    def("server.state_mb_per_session", "MB"),
    def("server.cpu_ms_per_session", "ms"),
    def("server.restarts", "count"),
    def("server.rejects", "count"),
];

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    attempted: u64,
    failures: Vec<String>,
    values: Vec<(Def, f64)>,
}

impl Run {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Run {
        Run {
            workload,
            seed,
            traced,
            attempted: 0,
            failures: Vec::new(),
            values: Vec::new(),
        }
    }

    fn catalogue(&self) -> &'static [Def] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Counts one attempted unit of work or check; an `Err` fails it.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failures.push(msg);
        }
    }

    /// Records a metric of this pass.
    ///
    /// # Panics
    ///
    /// On a name outside this pass's catalogue: the benchmark reports
    /// exactly the metrics `BENCHMARK.json` declares.
    pub fn put(&mut self, name: &str, value: f64) {
        let def = *self
            .catalogue()
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric of this pass"));
        self.values.retain(|(d, _)| d.name != name);
        self.values.push((def, value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// Fails the run for every declared metric it did not measure.
    pub fn finish(&mut self) {
        for def in self.catalogue() {
            let v = self.value(def.name);
            self.attempt(if v.is_some_and(f64::is_finite) {
                Ok(())
            } else {
                Err(format!("metric {} was not measured (got {v:?})", def.name))
            });
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .catalogue()
            .iter()
            .filter_map(|d| {
                self.value(d.name).map(|v| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        quote(d.name),
                        number(v),
                        quote(d.unit)
                    )
                })
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            self.metrics_json()
        )
    }

    /// The result with its workload and stamp, as one JSONL record for
    /// `--out` files and `compare`.
    pub fn record(&self, stamp_json: &str) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"stamp\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            quote(self.workload),
            self.seed,
            u8::from(self.traced),
            stamp_json,
            self.correct(),
            self.attempted,
            self.failures.len(),
            self.metrics_json()
        )
    }

    /// One line per metric: name, value, unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for d in self.catalogue() {
            if let Some(v) = self.value(d.name) {
                out.push_str(&format!("{:<28} {:>18.6} {}\n", d.name, v, d.unit));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = bench
                .get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn unmeasured_or_failed_work_makes_the_run_incorrect() {
        let mut run = Run::new("ring64", 1, false);
        run.attempt(Ok(()));
        for d in END_TO_END {
            run.put(d.name, 1.5);
        }
        run.finish();
        assert!(run.correct());
        let line = Json::parse(&run.result_line()).unwrap();
        let keys: Vec<&str> = line.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let mut partial = Run::new("ring64", 1, false);
        partial.attempt(Ok(()));
        partial.put("setup_s", 0.1);
        partial.finish();
        assert!(!partial.correct());
        assert_eq!(partial.failures().len(), END_TO_END.len() - 1);

        let mut failed = Run::new("ring64", 1, true);
        failed.attempt(Err("digest mismatch".into()));
        assert!(!failed.correct());
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_metrics_are_refused() {
        Run::new("ring64", 1, true).put("events_per_s", 1.0);
    }
}
