//! Datapath sweep: one fixed-seed session workload (bulk parameter runs,
//! a gradient stream back, two fences per round) with the fault model off
//! and on, under both protocol modes — recording the end state down to an
//! FNV-1a digest of the serialized session snapshot.
//!
//! Stdout is the REPORT.md datapath section rendered from the same rows.
//! Everything is seeded, so two invocations produce byte-identical
//! `bench_results/datapath_sweep.json` — the CI sweep-smoke job diffs
//! exactly that.

use teco_bench::dump_json;
use teco_bench::report::datapath_section;
use teco_bench::sweeps::datapath_rows;

fn main() {
    let rows = datapath_rows();
    print!("{}", datapath_section(&rows));
    dump_json("datapath_sweep", &rows);
}
