//! Scaling sweep: N accelerators data-parallel over a shared CXL pool,
//! N ∈ {1, 2, 4, 8} × per-device batch ∈ {4, 8, 16}.
//!
//! Each cell runs the fixed-seed cluster workload — per step: per-device
//! gradient shards flush and fence, the shards reduce into the pooled CPU
//! optimizer through the round-robin host-budget arbiter, and the updated
//! parameters broadcast back through update-mode coherence (one host read
//! fanned out to every giant cache). Speedup counts shards processed per
//! unit time versus the cell's own one-device baseline; efficiency decay
//! is host-DRAM contention, which starts once aggregate link bandwidth
//! (N × 15.088 GB/s) exceeds the 38.4 GB/s pool budget.
//!
//! The row computation lives in [`teco_bench::sweeps`], where the
//! determinism test matrix pins serial against parallel execution; stdout
//! is the REPORT.md scaling section rendered from the same rows.
//! Everything is seeded: running this binary twice produces byte-identical
//! `bench_results/scaling_sweep.json` (the CI sweep-smoke job diffs
//! exactly that). There is no paper baseline for these numbers — the paper
//! evaluates one accelerator per coherence domain; this sweep is the
//! model's prediction for the multi-device regime (see EXPERIMENTS.md).

use teco_bench::dump_json;
use teco_bench::report::scaling_section;
use teco_bench::sweeps::scaling_rows;

fn main() {
    let rows = scaling_rows();
    print!("{}", scaling_section(&rows));
    dump_json("scaling_sweep", &rows);
}
