//! `paper <name> [args]` — runs one experiment of the paper's evaluation
//! (a figure, a table, an ablation or a study) and prints its table.
//!
//! ```text
//! cargo run --release -p bench --bin paper -- fig8_table
//! UNCORQ_FAST=1 cargo run --release -p bench --bin paper -- fig5_anatomy fft
//! ```
//!
//! With no name, or an unknown one, it lists the experiments and exits
//! 2. A cell that does not finish fails the run (exit 1) with the
//! experiment and the cell named on stderr.

use std::process::ExitCode;

use bench::paper::{find, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = args.first().and_then(|name| find(name)) else {
        eprintln!("usage: paper <name> [args]\n\nexperiments:");
        for e in &EXPERIMENTS {
            eprintln!("  {:<22}{}", e.name, e.about);
        }
        return ExitCode::from(2);
    };
    match (exp.run)(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paper {}: {e}", exp.name);
            ExitCode::FAILURE
        }
    }
}
