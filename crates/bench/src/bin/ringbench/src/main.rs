//! `ringbench` — the benchmark of the Uncorq simulator library and of
//! the `ringd` service, end to end and per layer.
//!
//! ```text
//! ringbench [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--runs N] [--out FILE]
//! ringbench compare BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! One workload per run prints its metrics, the self-time table when
//! traced, and last a JSON result line. Without `--workload` it runs
//! every workload (`--runs` times each, seeds counting up from
//! `--seed`), each in its own child process so peak memory is per
//! workload. See README.md for the catalogue.

mod cells;
mod compare;
mod host;
mod json;
mod layers;
mod library;
mod oracle;
mod report;
mod service;
mod spans;
mod stats;

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::Run;
use spans::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ring64,
    Ht64,
    Pdes2,
    Ringd16,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ring64,
        Workload::Ht64,
        Workload::Pdes2,
        Workload::Ringd16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ring64 => "ring64",
            Workload::Ht64 => "ht64",
            Workload::Pdes2 => "pdes2",
            Workload::Ringd16 => "ringd16",
        }
    }

    fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one workload run needs to know.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// The traced pass: spans and per-layer metrics.
    pub traced: bool,
    /// Tiny 4×4 cells and six sessions: a check that everything runs.
    pub smoke: bool,
    /// Scratch directory of this run (snapshots, daemon state).
    pub run_dir: PathBuf,
    /// Where `ringd` and `ringctl` were built: next to this binary.
    pub bin_dir: PathBuf,
}

/// Output root, inside the checkout the benchmark runs from.
const OUT_ROOT: &str = "target/ringbench";

const USAGE: &str = "\
usage: ringbench [run] [--workload ring64|ht64|pdes2|ringd16] [--seed N] [--seconds S]
                       [--trace 0|1] [--smoke] [--runs N] [--out FILE]
       ringbench compare BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]
";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
}

#[derive(Debug)]
enum Cli {
    Run(Args),
    Compare {
        base: String,
        new: String,
        bench: String,
    },
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let mut files = Vec::new();
        let mut bench = "BENCHMARK.json".to_string();
        let mut it = argv[1..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--bench" => bench = it.next().ok_or("--bench needs a file")?.clone(),
                _ => files.push(a.clone()),
            }
        }
        let [base, new] = <[String; 2]>::try_from(files)
            .map_err(|_| "compare needs exactly two result files".to_string())?;
        return Ok(Cli::Compare { base, new, bench });
    }
    let mut args = Args {
        workload: None,
        seed: oracle::PIN_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = argv
        .iter()
        .skip(usize::from(argv.first().is_some_and(|a| a == "run")));
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::by_name(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value()?.parse().map_err(|_| "--runs needs a number")?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Cli::Run(args))
}

/// The exit status of a finished run: nonzero unless it was correct.
fn exit_status(run: &Run) -> u8 {
    u8::from(!run.correct())
}

fn run_one(workload: Workload, args: &Args) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("this binary has no directory")?
        .to_path_buf();
    let run_dir = PathBuf::from(OUT_ROOT).join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { 20.0 }),
        traced: args.traced,
        smoke: args.smoke,
        run_dir,
        bin_dir,
    };
    let mut stamp = host::Stamp::begin(opts.seed);
    let mut tr = Tracer::new(opts.traced, Instant::now());
    let mut run = Run::new(workload.name(), opts.seed, opts.traced);
    let cal = match workload {
        Workload::Ringd16 => service::run(&opts, &mut tr, &mut run),
        _ => library::run(&opts, &mut tr, &mut run),
    };
    run.finish();
    stamp.end(&cal);
    let _ = std::fs::remove_dir_all(&opts.run_dir);

    if opts.traced {
        let path =
            PathBuf::from(OUT_ROOT).join(format!("spans-{}-{}.jsonl", workload.name(), opts.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "self time by layer, {} spans in {}:",
            tr.spans().len(),
            path.display()
        );
        print!("{}", tr.self_time_table());
    }
    print!("{}", run.table());
    println!("stamp: {}", stamp.to_json());
    for f in run.failures() {
        eprintln!("ringbench: FAILED: {f}");
    }
    if let Some(out) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(f, "{}", run.record(&stamp.to_json()))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", run.result_line());
    Ok(exit_status(&run))
}

/// Runs every workload `--runs` times, each run in a child process.
fn run_all(args: &Args) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut status = 0;
    let mut summary = Vec::new();
    for w in Workload::ALL {
        for r in 0..args.runs {
            let seed = args.seed + r;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(out) = &args.out {
                cmd.arg("--out").arg(out);
            }
            println!("== {} seed {seed}", w.name());
            let out = cmd
                .output()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let ok = out.status.success()
                && text
                    .lines()
                    .last()
                    .and_then(|l| json::Json::parse(l).ok())
                    .and_then(|v| v.get("correct").and_then(json::Json::as_bool))
                    == Some(true);
            summary.push(format!(
                "{} seed {seed}: {}",
                w.name(),
                if ok { "correct" } else { "FAILED" }
            ));
            if !ok {
                status = 1;
            }
        }
    }
    println!("== summary");
    for line in summary {
        println!("{line}");
    }
    Ok(status)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match parse_args(&argv) {
        Err(msg) => {
            eprint!("ringbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Cli::Compare { base, new, bench }) => {
            compare::run(&base, &new, &bench).map(|pass| u8::from(!pass))
        }
        Ok(Cli::Run(args)) => match args.workload {
            Some(w) => run_one(w, &args),
            None => run_all(&args),
        },
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("ringbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let Ok(Cli::Run(a)) =
            parse_args(&argv("--workload ringd16 --seed 9 --seconds 10 --trace 1"))
        else {
            panic!("not a run")
        };
        assert_eq!(a.workload, Some(Workload::Ringd16));
        assert_eq!((a.seed, a.seconds, a.traced), (9, Some(10.0), true));
        let Ok(Cli::Run(a)) = parse_args(&argv("run --smoke")) else {
            panic!("not a run")
        };
        assert!(a.smoke && a.workload.is_none() && a.seed == oracle::PIN_SEED);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(matches!(
            parse_args(&argv("compare a.jsonl b.jsonl")),
            Ok(Cli::Compare { .. })
        ));
        assert!(parse_args(&argv("compare a.jsonl")).is_err());
    }

    #[test]
    fn a_wrong_pinned_digest_fails_the_run_and_its_exit() {
        let mut run = Run::new("ring64", oracle::PIN_SEED, false);
        let mut observed = oracle::RING64_PINS.to_vec();
        for check in oracle::pin_checks("ring64", &oracle::RING64_PINS, &observed) {
            run.attempt(check);
        }
        for d in report::END_TO_END {
            run.put(d.name, 1.0);
        }
        run.finish();
        assert_eq!(exit_status(&run), 0);

        let mut wrong = Run::new("ring64", oracle::PIN_SEED, false);
        observed[0].1 = 0xdead_beef;
        for check in oracle::pin_checks("ring64", &oracle::RING64_PINS, &observed) {
            wrong.attempt(check);
        }
        for d in report::END_TO_END {
            wrong.put(d.name, 1.0);
        }
        wrong.finish();
        assert_eq!(wrong.failures().len(), 1);
        assert_eq!(exit_status(&wrong), 1);
        let line = json::Json::parse(&wrong.result_line()).unwrap();
        assert_eq!(line.get("failed").and_then(json::Json::as_f64), Some(1.0));
        assert_eq!(
            line.get("correct").and_then(json::Json::as_bool),
            Some(false)
        );
    }
}
