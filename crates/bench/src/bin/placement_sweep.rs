//! Placement sweep: every Table III model under the explicit single-tier
//! policy instance and the non-default tiered policy.
//!
//! Each cell runs the fixed scaled-down workload — per step: gradient
//! lines flush and fence, DBA activates mid-run, parameters and optimizer
//! moments push back — under one placement policy, then serializes the
//! end state. Single-tier cells must be byte-identical to a session whose
//! config never mentions placement (the legacy layout is one policy
//! instance); tiered cells pin small hot tensors device-resident, stage
//! params/grads in the CXL giant cache, and spill optimizer moments to
//! plain host DRAM, migrating only at step boundaries. Each row also
//! carries the BO-autotuned giant-cache size next to the published
//! Table III setting.
//!
//! The row computation lives in [`teco_bench::sweeps`]; stdout is the
//! REPORT.md placement section rendered from the same rows. Everything is
//! seeded: running this binary twice produces byte-identical
//! `bench_results/placement_sweep.json` (the CI sweep-smoke job diffs
//! exactly that), and the binary exits nonzero if its gate fails.

use teco_bench::dump_json;
use teco_bench::report::placement_section;
use teco_bench::sweeps::{placement_divergences, placement_rows};

fn main() {
    let rows = placement_rows();
    print!("{}", placement_section(&rows));
    dump_json("placement_sweep", &rows);
    if !placement_divergences(&rows).is_empty() {
        std::process::exit(1);
    }
}
