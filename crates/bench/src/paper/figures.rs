//! The §7 evaluation: Figures 5(b) and 8–11 on the Table 3 machine.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use ring_coherence::ProtocolKind::{Eager, Uncorq};
use ring_stats::{reduction_pct, Align::Left, Align::Right};
use ring_workloads::AppProfile;

use super::{
    c2c_histogram, each_app, is_splash, per_app_table, vs, EXEC_IMPROVEMENT_SPECJBB,
    EXEC_IMPROVEMENT_SPECWEB, EXEC_IMPROVEMENT_SPLASH,
};
use crate::{app, app_arg, run_cell, table, Proto};

/// **Figure 5(b)**: for a cache-to-cache transfer, the *time to
/// suppliership reception* (request propagation + snoop + suppliership
/// back) drops sharply from Eager to Uncorq, while the *time to response
/// reception* (the `r` lap) is the same in both algorithms.
pub(super) fn fig5_anatomy(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "fmm")?;
    let mut t = table(&[
        ("Algorithm", Left),
        ("Time to suppliership (c2c reads)", Right),
        ("Time to response (all reads)", Right),
    ]);
    let mut rows = Vec::new();
    for proto in [Proto::Ring(Eager), Proto::Ring(Uncorq)] {
        let s = run_cell(proto, &profile)?.stats;
        let (supp, resp) = (s.read_latency_c2c.mean(), s.read_completion.mean());
        t.row(vec![
            proto.name().to_string(),
            format!("{supp:.0} cyc"),
            format!("{resp:.0} cyc"),
        ]);
        rows.push((supp, resp));
    }
    println!("Figure 5(b) anatomy on `{}` (measured)\n", profile.name);
    println!("{}", t.render());
    let supp_cut = 100.0 * (rows[0].0 - rows[1].0) / rows[0].0;
    let resp_delta = 100.0 * (rows[1].1 - rows[0].1) / rows[0].1;
    println!(
        "Suppliership time cut by {supp_cut:.0}% (the paper's (1) in Fig 5(b));\n\
         response-reception time differs by only {resp_delta:.0}% — \"such time is\n\
         the same in both algorithms\"."
    );
    Ok(())
}

/// **Figures 8(a) and 8(b)**: histograms of cache-to-cache read-miss
/// latency under Eager and Uncorq, with cumulative distributions. Set
/// `UNCORQ_CSV_DIR=<dir>` to also write plottable CSVs
/// (`fig8a_<app>.csv`, `fig8b_<app>.csv`).
pub(super) fn fig8_hist(args: &[String]) -> Result<(), String> {
    let profile = app_arg(args, "fmm")?;
    let csv_dir = std::env::var_os("UNCORQ_CSV_DIR");
    for (proto, fig, tag) in [
        (Proto::Ring(Eager), "8(a)", "fig8a"),
        (Proto::Ring(Uncorq), "8(b)", "fig8b"),
    ] {
        let h = c2c_histogram(fig, proto, &profile, true)?;
        if let Some(dir) = &csv_dir {
            let path = Path::new(dir).join(format!("{tag}_{}.csv", profile.name));
            File::create(&path)
                .map(BufWriter::new)
                .and_then(|mut w| {
                    h.write_csv(&mut w)?;
                    w.flush()
                })
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// **Figure 8(c)**: average read-miss latency under Eager and Uncorq,
/// the relative reduction, and the fraction of misses serviced
/// cache-to-cache — measured and, in parentheses, as published.
pub(super) fn fig8_table(_: &[String]) -> Result<(), String> {
    let mut t = table(&[
        ("Application", Left),
        ("Eager", Right),
        ("Uncorq", Right),
        ("(E-U)/E %", Right),
        ("c2c %", Right),
    ]);
    per_app_table(
        &mut t,
        |profile| {
            let e = run_cell(Proto::Ring(Eager), profile)?.stats;
            let u = run_cell(Proto::Ring(Uncorq), profile)?.stats;
            Ok(vec![
                e.read_latency.mean(),
                u.read_latency.mean(),
                100.0 * u.c2c_fraction(),
            ])
        },
        |m, p| {
            vec![
                vs(m[0], p.eager_lat),
                vs(m[1], p.uncorq_lat),
                vs(reduction_pct(m[0], m[1]), p.reduction_pct),
                vs(m[2], p.c2c_pct),
            ]
        },
    )?;
    println!("Figure 8(c) — read miss latency; measured (paper)\n");
    println!("{}", t.render());
    Ok(())
}

/// **Figure 9**: execution time of every application under Eager,
/// SupersetCon, SupersetAgg, Uncorq and Uncorq+Pref, normalized to
/// Eager. The paper's stated averages: Uncorq improves execution time by
/// 23% (SPLASH-2), 15% (SPECjbb) and 5% (SPECweb); Uncorq+Pref by 26%,
/// 22% and 13%; SupersetCon/Agg are slower than Eager on a single CMP.
pub(super) fn fig9_exec_time(_: &[String]) -> Result<(), String> {
    let mut columns = vec![("Application", Left)];
    columns.extend(Proto::FIG9.iter().map(|p| (p.name(), Right)));
    let mut t = table(&columns);
    let mut norm_sums = [0.0f64; Proto::FIG9.len()];
    let mut splash_norms = [0.0f64; Proto::FIG9.len()];
    each_app(|profile| {
        let mut cells = vec![profile.name.clone()];
        let mut base = 0.0;
        for (i, &proto) in Proto::FIG9.iter().enumerate() {
            let exec = run_cell(proto, profile)?.exec_cycles as f64;
            if i == 0 {
                base = exec;
            }
            let norm = exec / base;
            norm_sums[i] += norm;
            if is_splash(&profile.name) {
                splash_norms[i] += norm;
            }
            cells.push(format!("{norm:.2}"));
        }
        t.row(cells);
        Ok(())
    })?;
    let napps = AppProfile::all().len() as f64;
    let nsplash = AppProfile::splash2().len() as f64;
    t.separator();
    let mut avg = vec!["average".to_string()];
    avg.extend(norm_sums.iter().map(|s| format!("{:.2}", s / napps)));
    t.row(avg);
    println!("Figure 9 — execution time normalized to Eager (measured)\n");
    println!("{}", t.render());
    println!(
        "SPLASH-2 average improvement: Uncorq {:.0}% (paper {}%), Uncorq+Pref {:.0}% (paper {}%)",
        100.0 * (1.0 - splash_norms[3] / nsplash),
        EXEC_IMPROVEMENT_SPLASH.0,
        100.0 * (1.0 - splash_norms[4] / nsplash),
        EXEC_IMPROVEMENT_SPLASH.1,
    );
    println!(
        "(paper per-class: SPECjbb {}/{}%, SPECweb {}/{}% — see the SPECjbb/SPECweb rows)",
        EXEC_IMPROVEMENT_SPECJBB.0,
        EXEC_IMPROVEMENT_SPECJBB.1,
        EXEC_IMPROVEMENT_SPECWEB.0,
        EXEC_IMPROVEMENT_SPECWEB.1,
    );
    Ok(())
}

/// **Figure 10**: impact of the §5.4 prefetching optimization. Part (a):
/// breakdown of read misses into {Pref,NoPref} × {Cache,Memory} under
/// Uncorq+Pref. Part (b): average read-miss latency under Uncorq+Pref
/// and the reduction relative to plain Uncorq, measured and (in
/// parentheses) as published.
pub(super) fn fig10_prefetch(_: &[String]) -> Result<(), String> {
    let mut ta = table(&[
        ("Application", Left),
        ("Pref,Cache %", Right),
        ("NoPref,Cache %", Right),
        ("NoPref,Mem %", Right),
        ("Pref,Mem %", Right),
    ]);
    let mut tb = table(&[
        ("Application", Left),
        ("Uncorq+Pref lat", Right),
        ("(U - U+P)/U %", Right),
    ]);
    per_app_table(
        &mut tb,
        |profile| {
            let ul = run_cell(Proto::Ring(Uncorq), profile)?
                .stats
                .read_latency
                .mean();
            let s = run_cell(Proto::UncorqPref, profile)?.stats;
            let total = (s.pref_cache + s.nopref_cache + s.nopref_mem + s.pref_mem).max(1) as f64;
            let pct = |n: u64| format!("{:.1}", 100.0 * n as f64 / total);
            ta.row(vec![
                profile.name.clone(),
                pct(s.pref_cache),
                pct(s.nopref_cache),
                pct(s.nopref_mem),
                pct(s.pref_mem),
            ]);
            let upl = s.read_latency.mean();
            Ok(vec![upl, reduction_pct(ul, upl)])
        },
        |m, p| vec![vs(m[0], p.pref_lat), vs(m[1], p.pref_reduction_pct)],
    )?;
    println!("Figure 10(a) — breakdown of read misses under Uncorq+Pref (measured)\n");
    println!("{}", ta.render());
    println!("Figure 10(b) — read miss latency; measured (paper)\n");
    println!("{}", tb.render());
    Ok(())
}

/// **Figure 11**: Uncorq against the HyperTransport-style baseline.
/// Parts (a)/(b): cache-to-cache read-miss latency histograms in `fmm`
/// under Uncorq and HT. Part (c): HT read-miss latency per application
/// plus the latency and traffic (byte-hops) saved by Uncorq, measured
/// and (in parentheses) as published.
pub(super) fn fig11_ht(_: &[String]) -> Result<(), String> {
    let fmm = app("fmm")?;
    c2c_histogram("11(a)", Proto::Ring(Uncorq), &fmm, false)?;
    c2c_histogram("11(b)", Proto::Ht, &fmm, false)?;
    let mut t = table(&[
        ("Application", Left),
        ("HT lat", Right),
        ("(HT-U)/HT lat %", Right),
        ("(HT-U)/HT traffic %", Right),
    ]);
    per_app_table(
        &mut t,
        |profile| {
            let u = run_cell(Proto::Ring(Uncorq), profile)?.stats;
            let ht = run_cell(Proto::Ht, profile)?.stats;
            let (htl, ul) = (ht.read_latency.mean(), u.read_latency.mean());
            let ht_traf = ht.traffic.total_byte_hops() as f64;
            let u_traf = u.traffic.total_byte_hops() as f64;
            Ok(vec![
                htl,
                100.0 * (htl - ul) / htl,
                100.0 * (ht_traf - u_traf) / ht_traf,
            ])
        },
        |m, p| {
            vec![
                vs(m[0], p.ht_lat),
                vs(m[1], p.ht_latency_saving_pct),
                vs(m[2], p.ht_traffic_saving_pct),
            ]
        },
    )?;
    println!("Figure 11(c) — read miss latency and traffic vs HT; measured (paper)\n");
    println!("{}", t.render());
    Ok(())
}
