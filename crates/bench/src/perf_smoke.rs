//! Perf regression smoke gate: `teco-bench perf-smoke [--record]`.
//!
//! Compares the Criterion medians of the current run
//! (`bench_results/criterion_medians.json`, written by `cargo bench`)
//! against the committed baseline (`bench_results/BENCH.json`: the arena
//! rewrites, the session's parameter and gradient paths, the link run,
//! the datapath kernels and the snapshot codec) and fails on a >25 %
//! regression of any tracked key. It also re-checks the speedup claims
//! *within the current run* — fast path vs the retained reference
//! measured on the same machine moments apart — so the speedup bounds
//! never depend on cross-machine comparisons. Finally it holds the bulk
//! aggregator to the modeled link bandwidth: the wire feeding a
//! PCIe-3.0×16-class CXL link is ~15 GB/s, and a datapath that can't
//! outrun the link it feeds is the bottleneck the fused kernels exist to
//! remove. `--record` rewrites `BENCH.json` from the current medians
//! instead.

use serde::Value;
use teco_core::{PlacementPolicy, TecoConfig, TecoSession, TieredPolicy};
use teco_cxl::FaultConfig;
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{SimRng, SimTime};

const MEDIANS: &str = "bench_results/criterion_medians.json";
const BASELINE: &str = "bench_results/BENCH.json";

/// Keys gated against the committed baseline (median_ns, lower is
/// better).
const TRACKED: &[&str] = &[
    "coherence_event/dense_update",
    "coherence_event/dense_invalidation",
    "giant_cache_merge/dense_bulk_dba",
    "step_throughput/push_fence_dba",
    "step_throughput/push_fence_full",
    "step_throughput/push_grads",
    "link/transfer_run",
    "aggregator_bulk/dirty_bytes_2",
    "disaggregator_bulk/merge_dirty2",
    "datapath/checksummed_kernel_2",
    "snapshot_codec/encode",
    "snapshot_codec/decode",
    "snapshot_codec/round_trip",
];

/// (fast, slow, minimum required slow/fast ratio) asserted on the current
/// run's medians.
const SPEEDUPS: &[(&str, &str, f64)] = &[
    ("coherence_event/dense_update", "coherence_event/hashref_update", 2.0),
    ("coherence_event/dense_invalidation", "coherence_event/hashref_invalidation", 2.0),
    ("giant_cache_merge/dense_bulk_dba", "giant_cache_merge/hashref_bulk_dba", 2.0),
    // Fused chunk-wise pack+Fletcher vs the pre-fusion scalar pack plus
    // per-byte checksum second pass (both measured this run; measured
    // headroom ~6× and ~5×).
    ("datapath/checksummed_kernel_2", "datapath/checksummed_scalar_2", 2.0),
    ("datapath/checksummed_kernel_3", "datapath/checksummed_scalar_3", 2.0),
    // A closed-form link run vs the same lines one `transfer` at a time.
    ("link/transfer_run", "link/transfer_single", 10.0),
];

/// (key, bytes processed per iteration, minimum GB/s) asserted on the
/// current run's medians: `bytes / median_ns` is exactly GB/s.
const BANDWIDTH: &[(&str, u64, f64)] = &[
    // 1024 whole lines through the bulk aggregator at dirty_bytes=2 must
    // saturate the modeled PCIe-3.0×16 link (~15 GB/s).
    ("aggregator_bulk/dirty_bytes_2", 1024 * 64, 15.0),
];

/// Regression threshold: fail when current > baseline × 1.25.
const MAX_REGRESSION: f64 = 1.25;

fn median_ns(doc: &Value, key: &str) -> Option<f64> {
    doc.get(key)?.get("median_ns")?.as_f64()
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} — run `cargo bench` first"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// Rewrite the baseline from the current run's medians: every tracked key
/// and every speedup-pair key.
pub fn record() {
    let current = &load(MEDIANS);
    let mut keys: Vec<&str> = TRACKED.to_vec();
    for &(fast, slow, _) in SPEEDUPS {
        for k in [fast, slow] {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    let mut fields = Vec::new();
    for &key in &keys {
        let ns = median_ns(current, key)
            .unwrap_or_else(|| panic!("{MEDIANS} is missing {key} — run the benches first"));
        fields.push((
            key.to_string(),
            Value::Object(vec![("median_ns".to_string(), Value::Float(ns))]),
        ));
    }
    let doc = Value::Object(fields);
    std::fs::write(BASELINE, serde_json::to_string_pretty(&doc).expect("serialize baseline"))
        .unwrap_or_else(|e| panic!("cannot write {BASELINE}: {e}"));
    println!("recorded {} keys to {BASELINE}", keys.len());
}

/// Gate the current run's medians, printing one verdict line per check
/// and every failure. Returns whether all checks passed.
pub fn check() -> bool {
    let current = load(MEDIANS);
    let mut failures = Vec::new();
    let baseline = load(BASELINE);
    for &key in TRACKED {
        match (median_ns(&current, key), median_ns(&baseline, key)) {
            (Some(now), Some(then)) => {
                let ratio = now / then;
                let verdict = if ratio > MAX_REGRESSION { "REGRESSED" } else { "ok" };
                println!("{key}: {now:.0} ns vs baseline {then:.0} ns ({ratio:.2}x) {verdict}");
                if ratio > MAX_REGRESSION {
                    failures.push(format!("{key} regressed {ratio:.2}x (> {MAX_REGRESSION}x)"));
                }
            }
            (None, _) => failures.push(format!("{key} missing from {MEDIANS}")),
            (_, None) => failures.push(format!("{key} missing from {BASELINE}")),
        }
    }

    for &(fast, slow, min_ratio) in SPEEDUPS {
        match (median_ns(&current, fast), median_ns(&current, slow)) {
            (Some(f), Some(s)) => {
                let ratio = s / f;
                let verdict = if ratio < min_ratio { "TOO SLOW" } else { "ok" };
                println!(
                    "{fast} is {ratio:.2}x faster than {slow} (need {min_ratio:.1}x) {verdict}"
                );
                if ratio < min_ratio {
                    failures.push(format!(
                        "{fast} only {ratio:.2}x faster than {slow} (need {min_ratio:.1}x)"
                    ));
                }
            }
            _ => failures.push(format!("{fast} / {slow} missing from {MEDIANS}")),
        }
    }

    for &(key, bytes, min_gbps) in BANDWIDTH {
        match median_ns(&current, key) {
            Some(ns) if ns > 0.0 => {
                let gbps = bytes as f64 / ns;
                let verdict = if gbps < min_gbps { "BELOW LINK RATE" } else { "ok" };
                println!("{key}: {gbps:.2} GB/s (need {min_gbps:.1} GB/s) {verdict}");
                if gbps < min_gbps {
                    failures.push(format!(
                        "{key} sustains only {gbps:.2} GB/s (need {min_gbps:.1} GB/s)"
                    ));
                }
            }
            _ => failures.push(format!("{key} missing from {MEDIANS}")),
        }
    }
    for f in &failures {
        eprintln!("perf smoke FAILURE: {f}");
    }
    if failures.is_empty() {
        println!("perf smoke: all checks passed");
    }
    failures.is_empty()
}

/// A session shaped like the `tiered_ckpt` benchmark workload's at its
/// checkpoints, the `snapshot_codec` benches' input: 16384 parameter,
/// 4096 gradient and 2 × 4096 optimizer-moment lines plus a 16-line hot
/// tensor under the tiered policy, with seeded link faults, after four
/// steps of gradient, parameter, moment and hot-tensor pushes (DBA active
/// from step 2).
pub fn tiered_ckpt_session() -> TecoSession {
    const PARAM_LINES: usize = 16384;
    const GRAD_LINES: usize = 4096;
    const MOMENT_LINES: usize = 4096;
    const HOT_LINES: usize = 16;
    let bytes = |lines: usize| (lines * LINE_BYTES) as u64;
    let policy = TieredPolicy {
        device_capacity_bytes: 64 << 10,
        device_size_threshold: bytes(HOT_LINES),
        host_dram_capacity_bytes: 64 << 20,
        ..TieredPolicy::default()
    };
    let fault = FaultConfig {
        crc_error_rate: 1e-3,
        dba_checksum_error_rate: 1e-4,
        seed: 7,
        ..FaultConfig::off()
    };
    let cfg = TecoConfig::default()
        .with_act_aft_steps(2)
        .with_giant_cache_bytes(bytes(PARAM_LINES + GRAD_LINES + MOMENT_LINES))
        .with_fault(fault)
        .with_placement(PlacementPolicy::Tiered(policy));
    let mut s = TecoSession::new(cfg).expect("the shape's config validates");
    let mut alloc = |name: &str, lines: usize| {
        s.alloc_tensor(name, bytes(lines)).expect("the shape's tensors fit").1
    };
    let tensors = [
        (alloc("params", PARAM_LINES), PARAM_LINES),
        (alloc("moment_m", MOMENT_LINES), MOMENT_LINES),
        (alloc("moment_v", MOMENT_LINES), MOMENT_LINES),
        (alloc("hot_scale", HOT_LINES), HOT_LINES),
    ];
    let grads = alloc("grads", GRAD_LINES);
    let mut rng = SimRng::seed_from_u64(7);
    let mut random_lines = |n: usize| {
        let mut lines = vec![LineData::zeroed(); n];
        for l in &mut lines {
            for chunk in l.bytes_mut().chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
        lines
    };
    let mut now = SimTime::ZERO;
    for step in 0..4 {
        for (i, line) in random_lines(GRAD_LINES).into_iter().enumerate() {
            s.push_grad_line(Addr(grads.0 + bytes(i)), line, now).expect("grad push");
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        for &(base, lines) in &tensors {
            s.push_param_lines(base, &random_lines(lines), now).expect("param push");
        }
        now = s.cxlfence_params(now);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Snapshot format 2 at least halves the 6.28 MB version-1 checkpoint
    /// of this shape (≈2.1 MB: its 1.57 MB of written line bytes in
    /// base64, plus ≈22 KB of the rest).
    #[test]
    fn tiered_ckpt_snapshot_encodes_to_at_most_half_of_version_1() {
        let bytes = teco_sim::encode_snapshot(&tiered_ckpt_session().snapshot());
        assert!(bytes.len() <= 3_140_000, "{} bytes", bytes.len());
    }
}
