//! Fault sweep: the recovery cost of the link fault model across fault
//! rates × `dirty_bytes`. Each cell runs the same fixed-seed functional
//! workload (gradient stream out, DBA-conformant parameter updates back,
//! two fences per step) and records simulated time, recovery counters, and
//! whether the giant-cache end state stayed bit-identical to a fault-free
//! run — the recoverability criterion, measured rather than assumed.
//!
//! The row computation lives in [`teco_bench::sweeps`], where the
//! determinism test matrix pins serial against parallel execution.
//! Everything is seeded: running this binary twice produces byte-identical
//! `bench_results/fault_sweep.json` (the CI sweep-smoke job diffs exactly
//! that).

use teco_bench::sweeps::fault_rows;
use teco_bench::{dump_json, f, header, row};

fn main() {
    header("Fault sweep", "recovery cost across fault rates × dirty_bytes");
    row(&[
        "rate".into(),
        "dirty".into(),
        "sim ms".into(),
        "slowdown".into(),
        "retries".into(),
        "mismatch".into(),
        "quarantine".into(),
        "degraded".into(),
        "state ok".into(),
    ]);
    let out = fault_rows();
    for r in &out {
        row(&[
            format!("{}", r.fault_rate),
            r.dirty_bytes.to_string(),
            f(r.sim_time_ns as f64 / 1e6),
            f(r.slowdown_vs_clean),
            r.link_retries.to_string(),
            r.checksum_mismatches.to_string(),
            r.quarantined_lines.to_string(),
            r.degraded_regions.to_string(),
            r.state_matches_clean.to_string(),
        ]);
    }
    println!("\nrate 0 rows are byte-identical to the fault-model-off baseline; nonzero");
    println!("rates pay recovery time (retries, stalls, full-line resends) but the");
    println!("giant-cache end state stays bit-identical to the clean run.");
    dump_json("fault_sweep", &out);
}
