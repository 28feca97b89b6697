//! What the benchmark reads about the host and its processes: the
//! stamp every result carries, the host's speed, peak memory and CPU
//! time.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Steps of one calibration pass: under a millisecond.
const CAL_STEPS: u64 = 500_000;

/// Passes per calibration sample: the fastest of many short passes is
/// the one no interrupt or neighbour cut into.
const CAL_PASSES: usize = 5;

/// Seconds the calibration kernel takes on the reference host (2 vCPUs
/// of an Intel Xeon at 2.1 GHz nominal, `rustc` 1.95) at its fastest:
/// the unit every reported host time is scaled to.
pub const CAL_REF_S: f64 = 0.00059;

/// Times one pass of the calibration kernel: a chain of dependent
/// multiply-adds, so its time follows the core's clock and nothing else.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 1;
    for i in 0..CAL_STEPS {
        x = black_box(x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i));
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// The host's speed over one run, sampled between units of work.
///
/// The shared host's clock drifts by a fifth over tens of seconds, more
/// than a run lasts, and a run's fastest unit drifts with it. The
/// fastest calibration pass of the run drifts the same way, so host
/// times scaled by [`Calibration::scale`] (reference seconds) compare
/// across runs where raw seconds do not.
#[derive(Debug, Clone, Default)]
pub struct Calibration(Vec<f64>);

impl Calibration {
    pub fn sample(&mut self) {
        for _ in 0..CAL_PASSES {
            self.0.push(calibrate());
        }
    }

    pub fn absorb(&mut self, other: Calibration) {
        self.0.extend(other.0);
    }

    /// The fastest pass, in seconds; NaN before any sample.
    pub fn best_s(&self) -> f64 {
        self.0.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
    }

    /// Reference seconds per host second.
    pub fn scale(&self) -> f64 {
        CAL_REF_S / self.best_s()
    }
}

/// Provenance of one result: which code, on which host, under which
/// load, and how fast the host ran (`calibration_s`, the fastest
/// calibration pass: raw host seconds are reported ones times
/// `calibration_s / CAL_REF_S`).
#[derive(Debug, Clone)]
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub rustc: String,
    pub seed: u64,
    pub loadavg_before: String,
    pub loadavg_after: String,
    pub calibration_s: f64,
}

impl Stamp {
    /// Stamps a run that is about to start.
    pub fn begin(seed: u64) -> Stamp {
        Stamp {
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["-V"]),
            seed,
            loadavg_before: loadavg(),
            loadavg_after: String::new(),
            calibration_s: f64::NAN,
        }
    }

    /// Completes the stamp once the run is over.
    pub fn end(&mut self, cal: &Calibration) {
        self.loadavg_after = loadavg();
        self.calibration_s = cal.best_s();
    }

    pub fn to_json(&self) -> String {
        use crate::json::{number, quote};
        format!(
            "{{\"commit\": {}, \"nproc\": {}, \"rustc\": {}, \"seed\": {}, \
             \"loadavg_before\": {}, \"loadavg_after\": {}, \"calibration_s\": {}}}",
            quote(&self.commit),
            self.nproc,
            quote(&self.rustc),
            self.seed,
            quote(&self.loadavg_before),
            quote(&self.loadavg_after),
            number(self.calibration_s)
        )
    }
}

/// First line of a command's standard output, or `unknown` (outside a
/// git checkout, or without the tool on `PATH`).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

fn proc_file(pid: Option<u32>, name: &str) -> std::io::Result<String> {
    match pid {
        Some(p) => std::fs::read_to_string(format!("/proc/{p}/{name}")),
        None => std::fs::read_to_string(format!("/proc/self/{name}")),
    }
}

/// A memory field of a process's `status` in MiB: `VmHWM` (peak
/// resident set) or `VmRSS` (resident set now). `None` for this
/// process.
pub fn memory_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let status = proc_file(pid, "status").ok()?;
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds a process has used so far; `None` for
/// this process. Linux reports them in `USER_HZ` ticks, which is 100
/// on every Linux ABI.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat").ok()?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let (peak, now) = (memory_mb(None, "VmHWM"), memory_mb(None, "VmRSS"));
        assert!(peak.is_some_and(|mb| mb > 0.0) && now.is_some_and(|mb| mb > 0.0));
        assert!(memory_mb(None, "VmNope").is_none());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds(None).is_some_and(|s| s >= 0.0));
        let mut cal = Calibration::default();
        assert!(cal.best_s().is_nan());
        cal.sample();
        cal.sample();
        assert!(cal.best_s() > 0.0 && cal.scale() > 0.0);
        let mut stamp = Stamp::begin(7);
        stamp.end(&cal);
        assert!(stamp.nproc >= 1);
        let json = crate::json::Json::parse(&stamp.to_json()).unwrap();
        assert_eq!(
            json.get("calibration_s")
                .and_then(crate::json::Json::as_f64),
            Some(cal.best_s())
        );
    }
}
