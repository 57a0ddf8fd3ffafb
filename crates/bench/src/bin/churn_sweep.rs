//! Churn sweep: fault domains under device loss and pool-media RAS,
//! N ∈ {2, 4} × kill mode ∈ {none, lose, readmit} × media-fault rate
//! ∈ {0, 1 per tick}.
//!
//! Each cell runs the fixed churn workload — a device killed mid-run is
//! declared down by the fence-deadline watchdog, its host account is
//! quarantined, its gradient shard reroutes through the survivors
//! round-robin (the wrapping-sum reduce makes the pool bytes identical
//! to the never-failed run's), and in readmit mode it is rebuilt from
//! nothing but the pooled optimizer state. Persistent media faults are
//! patrol-scrubbed, retired to spares, and rebuilt from the clean pooled
//! copy before any poisoned byte reaches a parameter.
//!
//! The row computation lives in [`teco_bench::sweeps`]; stdout is the
//! REPORT.md churn section rendered from the same rows, and the binary
//! exits nonzero if any cell failed to converge. Everything is seeded and
//! formulaic: running this binary twice produces byte-identical
//! `bench_results/churn_sweep.json` (the CI sweep-smoke job diffs exactly
//! that). There is no paper baseline — the paper evaluates a single
//! fault-free accelerator; this sweep is the model's prediction for the
//! elastic-recovery regime (see EXPERIMENTS.md).

use teco_bench::dump_json;
use teco_bench::report::churn_section;
use teco_bench::sweeps::churn_rows;

fn main() {
    let rows = churn_rows();
    print!("{}", churn_section(&rows));
    dump_json("churn_sweep", &rows);
    if rows.iter().any(|r| !r.converged) {
        eprintln!("churn_sweep: a cell diverged from its never-failed baseline");
        std::process::exit(1);
    }
}
