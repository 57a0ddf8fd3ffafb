//! Datapath sweep: one fixed-seed session workload (bulk parameter runs,
//! a gradient stream back, two fences per round) with the fault model off
//! and on, under both protocol modes — recording the end state down to an
//! FNV-1a digest of the serialized session snapshot.
//!
//! Everything is seeded, so two invocations produce byte-identical
//! `bench_results/datapath_sweep.json` — the CI datapath-smoke job diffs
//! exactly that.

use teco_bench::sweeps::datapath_rows;
use teco_bench::{dump_json, header, row};

fn main() {
    header("Datapath sweep", "session end states across faults × protocol");
    row(&[
        "faulty".into(),
        "inval".into(),
        "sim ms".into(),
        "to-dev MB".into(),
        "retries".into(),
        "mismatch".into(),
        "snoop peak".into(),
        "digest".into(),
    ]);
    let out = datapath_rows();
    for r in &out {
        row(&[
            r.faulty.to_string(),
            r.invalidation.to_string(),
            format!("{:.3}", r.sim_time_ns as f64 / 1e6),
            format!("{:.2}", r.bytes_to_device as f64 / 1e6),
            r.link_retries.to_string(),
            r.checksum_mismatches.to_string(),
            r.snoop_peak.to_string(),
            r.snapshot_digest.clone(),
        ]);
    }
    dump_json("datapath_sweep", &out);
}
