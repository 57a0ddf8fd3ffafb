//! `teco-bench`: the command line over [`teco_bench::EXPERIMENTS`] (usage
//! in the crate docs). Run it from the repository root, so results land
//! in `bench_results/`.

use std::process::ExitCode;
use teco_bench::{perf_smoke, run, EXPERIMENTS};

const REPORT: &str = "bench_results/REPORT.md";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let summary = match args.as_slice() {
        ["perf-smoke"] => return exit_code(perf_smoke::check()),
        ["perf-smoke", "--record"] => {
            perf_smoke::record();
            return ExitCode::SUCCESS;
        }
        [] => {
            let summary = run(EXPERIMENTS);
            std::fs::write(REPORT, &summary.report)
                .unwrap_or_else(|e| panic!("cannot write {REPORT}: {e}"));
            println!("\nwritten to {REPORT}");
            summary
        }
        names => {
            let unknown: Vec<&&str> =
                names.iter().filter(|n| !EXPERIMENTS.iter().any(|e| e.name == **n)).collect();
            if !unknown.is_empty() {
                for name in unknown {
                    eprintln!("teco-bench: unknown experiment `{name}`");
                }
                eprintln!("valid names (or `perf-smoke [--record]`):");
                for e in EXPERIMENTS {
                    eprintln!("  {}", e.name);
                }
                return ExitCode::from(2);
            }
            run(names.iter().flat_map(|n| EXPERIMENTS.iter().filter(move |e| e.name == *n)))
        }
    };
    for (name, why) in &summary.failed {
        eprintln!("teco-bench: {name} gate FAILED: {why}");
    }
    exit_code(summary.failed.is_empty())
}

fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
