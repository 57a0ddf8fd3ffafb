//! Collective sweep: pool-staged inter-host all-reduce vs the NCCL-style
//! point-to-point ring, H ∈ {2, 4, 8} × gradient ∈ {1, 16, 64} MiB, plus
//! the fabric anchor rows (H ∈ {1, 2, 4, 8} training fabrics over the
//! shared pool).
//!
//! The pool path stages each host's gradient once and reads the peers'
//! regions directly from the shared pool — (2H−1)·G host↔pool port bytes
//! with the reduced-shard writeback overlapped on the full-duplex port —
//! while the ring moves 4(H−1)·G endpoint-port bytes over 2(H−1)
//! bulk-synchronous hops. Both reduce with the same wrapping-add kernel,
//! so the sweep asserts bit-identical results cell by cell.
//!
//! The row computation lives in [`teco_bench::sweeps`], where the
//! determinism test matrix pins serial against parallel execution; stdout
//! is the REPORT.md collective section rendered from the same rows (the
//! fabric anchor rows and byte ratios are in the JSON). Everything is
//! seeded: running this binary twice produces byte-identical
//! `bench_results/collective_sweep.json` (the CI sweep-smoke job diffs
//! exactly that). The binary is also the acceptance gate: it exits nonzero
//! if any cell fails to beat the ring on time *or* bytes, if any cell's
//! bits diverge, or if any fabric row perturbs host 0 away from the
//! standalone single-host path.

use teco_bench::dump_json;
use teco_bench::report::collective_section;
use teco_bench::sweeps::{collective_divergences, collective_sweep};

fn main() {
    let sweep = collective_sweep();
    print!("{}", collective_section(&sweep));
    dump_json("collective_sweep", &sweep);
    if !collective_divergences(&sweep).is_empty() {
        std::process::exit(1);
    }
}
