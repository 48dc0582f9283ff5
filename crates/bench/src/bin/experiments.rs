//! Run the paper's experiments by name, or write `EXPERIMENTS.md` from
//! the same sections:
//!
//! ```text
//! cargo run --release -p cme-bench --bin experiments -- table2 fig8 …
//! cargo run --release -p cme-bench --bin experiments -- report [PATH]
//! ```
//!
//! The report goes to `EXPERIMENTS.md` unless a path is given. With no
//! arguments or an unknown name, the binary prints the experiment names
//! and exits 2.

use cme_bench::{experiment, report, Sweeps, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sweeps = Sweeps::default();
    if let [command, path @ ..] = args.as_slice() {
        if command == "report" && path.len() <= 1 {
            let path = path.first().map_or("EXPERIMENTS.md", String::as_str);
            std::fs::write(path, report(&sweeps)).expect("write the report");
            println!("wrote {path}");
            return ExitCode::SUCCESS;
        }
    }
    match args.iter().map(|name| experiment(name)).collect::<Option<Vec<_>>>() {
        Some(runs) if !runs.is_empty() => {
            for run in runs {
                println!("{}", run(&sweeps).console());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: experiments NAME... | experiments report [PATH]\n\nexperiments:");
            for (name, _) in EXPERIMENTS {
                eprintln!("  {name}");
            }
            ExitCode::from(2)
        }
    }
}
