//! Perf regression smoke gate: `teco-bench perf-smoke [--record]`.
//!
//! Compares the Criterion medians of the current run
//! (`bench_results/criterion_medians.json`, written by `cargo bench`)
//! against the committed baseline (`bench_results/BENCH.json`: the arena
//! rewrites, the datapath kernels and the snapshot codec) and fails on
//! a >25 % regression of any tracked key. It also re-checks the speedup
//! claims *within the current run* — fast path vs the retained reference
//! measured on the same machine moments apart — so the ≥2× bounds never
//! depend on cross-machine comparisons. Finally it holds the bulk
//! aggregator to the modeled link bandwidth: the wire feeding a
//! PCIe-3.0×16-class CXL link is ~15 GB/s, and a datapath that can't
//! outrun the link it feeds is the bottleneck the fused kernels exist to
//! remove. `--record` rewrites `BENCH.json` from the current medians
//! instead.

use serde::Value;

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
    "aggregator_bulk/dirty_bytes_2",
    "disaggregator_bulk/merge_dirty2",
    "datapath/checksummed_kernel_2",
    "snapshot_codec/encode",
    "snapshot_codec/decode",
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
