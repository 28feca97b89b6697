//! The paper's experiments, by name, and its published per-application
//! numbers for side-by-side comparison in every regenerated table (and
//! in EXPERIMENTS.md).
//!
//! `cargo run --release -p bench --bin paper -- <name> [args]` runs one
//! entry of [`EXPERIMENTS`]; each prints its table to stdout.

mod ablations;
mod figures;
mod studies;

use ring_stats::{Histogram, Table};
use ring_system::Protocol;
use ring_workloads::AppProfile;

use crate::{maybe_fast, run_cell};

/// One experiment of the registry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `paper` takes.
    pub name: &'static str,
    /// What it regenerates, one line.
    pub about: &'static str,
    /// Runs it with the arguments that follow the name.
    pub run: fn(&[String]) -> Result<(), String>,
}

/// Every experiment: the §7 figures, the ablations and the studies.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 16] = [
    exp("fig5_anatomy", "Figure 5(b) latency anatomy [app]", figures::fig5_anatomy),
    exp("fig8_hist", "Figures 8(a)/(b) c2c latency histograms [app]", figures::fig8_hist),
    exp("fig8_table", "Figure 8(c) read-miss latency table", figures::fig8_table),
    exp("fig9_exec_time", "Figure 9 normalized execution time", figures::fig9_exec_time),
    exp("fig10_prefetch", "Figure 10 prefetching impact", figures::fig10_prefetch),
    exp("fig11_ht", "Figure 11 Uncorq vs HyperTransport", figures::fig11_ht),
    exp("ablate_dual_ring", "dual-direction ring load balancing [app]", ablations::dual_ring),
    exp("ablate_embedding", "snake vs row-major ring embedding [app]", ablations::embedding),
    exp("ablate_ltt", "Ordering-invariant (LTT) enforcement cost", ablations::ltt),
    exp("ablate_mem", "memory-controller concurrency [app]", ablations::mem),
    exp("ablate_npp", "Node Prefetch Predictor capacity [app]", ablations::npp),
    exp("ablate_read_transfer", "§5.5 read suppliership transfer [app]", ablations::read_transfer),
    exp("ablate_winner", "winner-selection policy on hot locks", ablations::winner),
    exp("calibrate", "per-app calibration against Figure 8(c) [app ...]", studies::calibrate),
    exp("probe_single_miss", "directed latency-anatomy probes", studies::probe_single_miss),
    exp("sweep_scale", "16- to 128-node scaling study [app]", studies::sweep_scale),
];

const fn exp(
    name: &'static str,
    about: &'static str,
    run: fn(&[String]) -> Result<(), String>,
) -> Experiment {
    Experiment { name, about, run }
}

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Whether `app` is one of the 11 SPLASH-2 applications.
fn is_splash(app: &str) -> bool {
    AppProfile::splash2().iter().any(|p| p.name == app)
}

/// Runs `f` on every application in the paper's order, scaled by
/// [`maybe_fast`], reporting progress on stderr.
fn each_app(mut f: impl FnMut(&AppProfile) -> Result<(), String>) -> Result<(), String> {
    for profile in AppProfile::all() {
        let profile = maybe_fast(profile);
        f(&profile)?;
        eprintln!("  done: {}", profile.name);
    }
    Ok(())
}

/// Fills a per-application table in the paper's layout: one row per
/// application and, between separators after `water-spatial`, the
/// SPLASH-2 average row. `measure` returns an application's measured
/// columns; `cells` formats measured columns beside the published row
/// (for the average row: the column means beside [`SPLASH2_AVERAGE`]).
fn per_app_table(
    t: &mut Table,
    mut measure: impl FnMut(&AppProfile) -> Result<Vec<f64>, String>,
    cells: impl Fn(&[f64], &PaperRow) -> Vec<String>,
) -> Result<(), String> {
    let mut sums: Vec<f64> = Vec::new();
    let splash_n = AppProfile::splash2().len() as f64;
    let row = |name: &str, measured: &[f64], published: &PaperRow| {
        [vec![name.to_string()], cells(measured, published)].concat()
    };
    each_app(|profile| {
        let measured = measure(profile)?;
        let published = paper_row(&profile.name).expect("paper row");
        t.row(row(&profile.name, &measured, published));
        if is_splash(&profile.name) {
            sums.resize(measured.len(), 0.0);
            for (s, m) in sums.iter_mut().zip(&measured) {
                *s += m;
            }
        }
        if profile.name == "water-spatial" {
            let means: Vec<f64> = sums.iter().map(|s| s / splash_n).collect();
            t.separator();
            t.row(row("SPLASH-2 avg.", &means, &SPLASH2_AVERAGE));
            t.separator();
        }
        Ok(())
    })
}

/// A measured value beside its published one: `"123 (120)"`.
fn vs(measured: f64, published: impl std::fmt::Display) -> String {
    format!("{measured:.0} ({published})")
}

/// Runs `proto` on `profile` and prints its cache-to-cache read-miss
/// latency histogram (Figures 8(a)/(b) and 11(a)/(b)); only Figure 8
/// prints the maximum.
fn c2c_histogram(
    fig: &str,
    proto: Protocol,
    profile: &AppProfile,
    with_max: bool,
) -> Result<Histogram, String> {
    let h = run_cell(proto, profile)?.stats.c2c_histogram;
    let max = if with_max {
        format!(" max={}", h.max().unwrap_or(0))
    } else {
        String::new()
    };
    println!(
        "Figure {fig} — cache-to-cache read miss latency in {} with {}\n\
         samples={} mean={:.0} p50={} p90={}{max}\n",
        profile.name,
        proto.label(),
        h.total(),
        h.mean(),
        h.percentile(50.0),
        h.percentile(90.0),
    );
    println!("{}", h.render_ascii(48));
    Ok(h)
}

/// One application row across the paper's Figures 8(c), 10(b) and 11(c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Application name.
    pub name: &'static str,
    /// Figure 8(c): average read-miss latency under Eager (cycles).
    pub eager_lat: u64,
    /// Figure 8(c): average read-miss latency under Uncorq (cycles).
    pub uncorq_lat: u64,
    /// Figure 8(c): latency reduction (Eager-Uncorq)/Eager, percent.
    pub reduction_pct: i64,
    /// Figure 8(c): fraction of misses serviced cache-to-cache, percent.
    pub c2c_pct: u64,
    /// Figure 10(b): read-miss latency under Uncorq+Pref (cycles).
    pub pref_lat: u64,
    /// Figure 10(b): (Uncorq - Uncorq+Pref)/Uncorq, percent.
    pub pref_reduction_pct: i64,
    /// Figure 11(c): read-miss latency under HT (cycles).
    pub ht_lat: u64,
    /// Figure 11(c): (HT - Uncorq)/HT latency saving, percent.
    pub ht_latency_saving_pct: i64,
    /// Figure 11(c): (HT - Uncorq)/HT traffic saving, percent.
    pub ht_traffic_saving_pct: i64,
}

/// All 13 application rows in the paper's order, plus the stated SPLASH-2
/// averages accessible via [`SPLASH2_AVERAGE`].
pub const PAPER_ROWS: [PaperRow; 13] = [
    row("barnes", 319, 107, 66, 97, 99, 7, 172, 38, 56),
    row("cholesky", 354, 145, 59, 90, 126, 13, 273, 47, 55),
    row("fft", 517, 391, 24, 54, 294, 25, 431, 9, 52),
    row("fmm", 345, 144, 58, 90, 134, 7, 190, 24, 55),
    row("lu", 385, 195, 49, 82, 174, 11, 197, 1, 55),
    row("ocean", 454, 330, 27, 99, 236, 28, 460, 28, 56),
    row("radiosity", 301, 80, 74, 99, 78, 2, 144, 44, 56),
    row("radix", 316, 95, 70, 99, 94, 1, 213, 55, 56),
    row("raytrace", 320, 106, 67, 95, 101, 4, 153, 31, 56),
    row("water-nsquared", 365, 158, 57, 90, 148, 6, 277, 43, 55),
    row("water-spatial", 312, 92, 70, 98, 88, 5, 149, 38, 56),
    row("SPECjbb", 416, 252, 39, 72, 219, 13, 205, -23, 54),
    row("SPECweb", 598, 522, 13, 32, 427, 18, 268, -95, 48),
];

#[allow(clippy::too_many_arguments)] // mirrors the table's column order
const fn row(
    name: &'static str,
    eager_lat: u64,
    uncorq_lat: u64,
    reduction_pct: i64,
    c2c_pct: u64,
    pref_lat: u64,
    pref_reduction_pct: i64,
    ht_lat: u64,
    ht_latency_saving_pct: i64,
    ht_traffic_saving_pct: i64,
) -> PaperRow {
    PaperRow {
        name,
        eager_lat,
        uncorq_lat,
        reduction_pct,
        c2c_pct,
        pref_lat,
        pref_reduction_pct,
        ht_lat,
        ht_latency_saving_pct,
        ht_traffic_saving_pct,
    }
}

/// The paper's SPLASH-2 average row (Figures 8(c)/10(b)/11(c)).
pub const SPLASH2_AVERAGE: PaperRow = row("SPLASH-2 avg.", 363, 168, 56, 90, 143, 10, 242, 33, 55);

/// The paper's headline execution-time improvements over Eager, percent
/// (abstract / §7.2): `(uncorq, uncorq_pref)` for each workload class.
pub const EXEC_IMPROVEMENT_SPLASH: (i64, i64) = (23, 26);
/// SPECjbb execution-time improvements (Uncorq, Uncorq+Pref).
pub const EXEC_IMPROVEMENT_SPECJBB: (i64, i64) = (15, 22);
/// SPECweb execution-time improvements (Uncorq, Uncorq+Pref).
pub const EXEC_IMPROVEMENT_SPECWEB: (i64, i64) = (5, 13);

/// Looks up a paper row by application name.
pub fn paper_row(name: &str) -> Option<&'static PaperRow> {
    PAPER_ROWS.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_rows_matching_profiles() {
        assert_eq!(PAPER_ROWS.len(), 13);
        for r in &PAPER_ROWS {
            assert!(
                ring_workloads::AppProfile::by_name(r.name).is_some(),
                "no profile for paper app {}",
                r.name
            );
        }
    }

    #[test]
    fn reductions_consistent_with_latencies() {
        for r in &PAPER_ROWS {
            let red = 100.0 * (r.eager_lat as f64 - r.uncorq_lat as f64) / r.eager_lat as f64;
            assert!(
                (red - r.reduction_pct as f64).abs() < 1.5,
                "{}: computed {red:.1} vs published {}",
                r.name,
                r.reduction_pct
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(paper_row("fmm").unwrap().eager_lat, 345);
        assert!(paper_row("nope").is_none());
    }

    #[test]
    fn registry_names_are_unique_and_documented() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
                .expect("EXPERIMENTS.md at the workspace root");
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "duplicate experiment {}",
                e.name
            );
            assert!(
                doc.contains(&format!("paper -- {}", e.name)),
                "EXPERIMENTS.md does not show how to run {}",
                e.name
            );
            assert_eq!(find(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(find("fig12").is_none());
    }
}
