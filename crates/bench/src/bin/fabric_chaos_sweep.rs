//! Fabric chaos sweep: host loss and staging-media faults
//! mid-all-reduce, H ∈ {2, 4} × kill phase ∈ {none, reduce-scatter,
//! all-gather} × media-fault rate ∈ {0, 1 per tick}.
//!
//! Each cell runs the fixed chaos workload — a host killed at a chunk
//! boundary of the fused all-reduce is declared lost by the collective
//! deadline watchdog, its arbiter account is quarantined, the survivors
//! regroup H→H−1 and re-run the step's collective bit-identically to a
//! never-failed H−1 fabric, and one full step later the host is
//! hot-readmitted from the pooled parameter state (its device replicas
//! end byte-identical to hosts that never died). Staging-media faults
//! are patrol-scrubbed and caught on access; no poisoned byte ever
//! reaches a reduction.
//!
//! The row computation lives in [`teco_bench::sweeps`]; stdout is the
//! REPORT.md chaos section rendered from the same rows, and the binary
//! exits nonzero if its gate fails. Everything is seeded and formulaic:
//! running this binary twice produces byte-identical
//! `bench_results/fabric_chaos_sweep.json` (the CI sweep-smoke job diffs
//! exactly that). There is no paper baseline — the paper evaluates a single
//! fault-free host; this sweep is the model's prediction for the
//! degraded-collective regime (see EXPERIMENTS.md).

use teco_bench::dump_json;
use teco_bench::report::chaos_section;
use teco_bench::sweeps::{chaos_divergences, chaos_rows};

fn main() {
    let rows = chaos_rows();
    print!("{}", chaos_section(&rows));
    dump_json("fabric_chaos_sweep", &rows);
    if !chaos_divergences(&rows).is_empty() {
        std::process::exit(1);
    }
}
