//! Perf regression smoke gate.
//!
//! Compares the Criterion medians of the current run
//! (`bench_results/criterion_medians.json`, written by `cargo bench`)
//! against the committed baseline (`bench_results/BENCH.json`: the arena
//! rewrites and the datapath kernels) and fails on a >25 % regression of
//! any tracked key. It also re-checks the speedup claims *within the
//! current run* — fast path vs the retained reference measured on the same
//! machine moments apart — so the ≥2× bounds never depend on cross-machine
//! comparisons. Finally it holds the bulk aggregator to the modeled link
//! bandwidth: the wire feeding a PCIe-3.0×16-class CXL link is ~15 GB/s,
//! and a datapath that can't outrun the link it feeds is the bottleneck the
//! fused kernels exist to remove.
//!
//! Usage:
//!   perf_smoke           # gate current medians vs the baseline
//!   perf_smoke --record  # (re)write BENCH.json from current medians

use serde::Value;
use teco_bench::sweeps::run_placement_workload;
use teco_core::{
    run_fabric_chaos, FabricChaosWorkload, HostKillSpec, PlacementPolicy, TecoConfig, TieredPolicy,
};
use teco_cxl::{ring_all_reduce, CollectiveConfig, CollectivePhase, PoolCollective};
use teco_dl::ModelSpec;
use teco_sim::SimTime;

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

/// Rewrite the baseline with every tracked key and every speedup-pair key.
fn record(current: &Value) {
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

fn main() {
    let current = load(MEDIANS);
    if std::env::args().any(|a| a == "--record") {
        record(&current);
        return;
    }

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

    // Collective gate: at H >= 4 the pool-staged all-reduce must move
    // fewer bytes than the ring and finish sooner. A pure model check
    // (no Criterion medians involved), so it holds on any machine.
    for hosts in [4usize, 8] {
        let cfg = CollectiveConfig::for_hosts(hosts);
        let ready = vec![SimTime::ZERO; hosts];
        let mut bufs = vec![vec![0u8; 1 << 20]; hosts];
        let pool = PoolCollective::new(cfg)
            .and_then(|mut p| p.all_reduce(&mut bufs, &ready))
            .expect("pool all-reduce completes");
        let ring = ring_all_reduce(&cfg, &mut bufs, &ready).expect("ring all-reduce completes");
        let byte_verdict = if pool.port_bytes < ring.link_bytes { "ok" } else { "TOO MANY" };
        let time_verdict = if pool.completion < ring.completion { "ok" } else { "TOO SLOW" };
        println!(
            "collective H={hosts}: pool {} vs ring {} link-bytes {byte_verdict}, \
             pool {} vs ring {} ns {time_verdict}",
            pool.port_bytes,
            ring.link_bytes,
            pool.completion.as_ns(),
            ring.completion.as_ns()
        );
        if pool.port_bytes >= ring.link_bytes {
            failures.push(format!(
                "collective H={hosts}: pool moved {} bytes, ring {}",
                pool.port_bytes, ring.link_bytes
            ));
        }
        if pool.completion >= ring.completion {
            failures.push(format!(
                "collective H={hosts}: pool {} ns not faster than ring {} ns",
                pool.completion.as_ns(),
                ring.completion.as_ns()
            ));
        }
    }

    // Chaos gate: a host killed mid reduce-scatter must be detected by
    // the watchdog, the survivors must regroup, and the degraded fabric
    // must end with the never-failed golden's parameters and zero
    // poisoned bytes. A pure model check, like the collective gate.
    {
        let mut w = FabricChaosWorkload::small(4, 2, 42);
        w.fabric.base.steps = 4;
        w.fabric.collective.chunk_bytes = 64;
        let golden = run_fabric_chaos(&w).expect("golden chaos run completes").outcome;
        let chaos = run_fabric_chaos(
            &w.clone()
                .with_kill(HostKillSpec {
                    host: 3,
                    step: 1,
                    phase: CollectivePhase::ReduceScatter,
                    chunk: 1,
                })
                .with_readmit_after(1),
        )
        .expect("chaos run completes")
        .outcome;
        let detect_verdict = if chaos.detections.len() == 1 { "ok" } else { "MISSED" };
        let param_verdict =
            if chaos.param_checksum == golden.param_checksum { "ok" } else { "DIVERGED" };
        println!(
            "chaos H=4: {} detections, {} regroups, {} readmissions {detect_verdict}, \
             {} poisoned bytes, params vs golden {param_verdict}",
            chaos.detections.len(),
            chaos.regroups,
            chaos.readmissions,
            chaos.poisoned_admitted
        );
        if chaos.detections.len() != 1 || chaos.regroups != 1 || chaos.readmissions != 1 {
            failures.push(format!(
                "chaos H=4: detections={} regroups={} readmissions={} (want 1 each)",
                chaos.detections.len(),
                chaos.regroups,
                chaos.readmissions
            ));
        }
        if chaos.poisoned_admitted > 0 {
            failures
                .push(format!("chaos H=4: {} poisoned bytes admitted", chaos.poisoned_admitted));
        }
        if chaos.param_checksum != golden.param_checksum {
            failures.push("chaos H=4: final parameters diverged from the golden".to_string());
        }
    }

    // Placement gate: the default tiered policy must not be slower than
    // the single-tier baseline on the fixed placement workload (spilling
    // write-mostly optimizer moments to plain host DRAM rides the faster
    // pool link; it must never cost step time). A pure model check, like
    // the collective gate.
    {
        let spec = ModelSpec::gpt2();
        let (_, single) = run_placement_workload(&spec, TecoConfig::default());
        let (_, tiered) = run_placement_workload(
            &spec,
            TecoConfig::default().with_placement(PlacementPolicy::Tiered(TieredPolicy::default())),
        );
        let verdict = if tiered <= single { "ok" } else { "TOO SLOW" };
        println!(
            "placement GPT-2: tiered default {} ns vs single-tier {} ns {verdict}",
            tiered.as_ns(),
            single.as_ns()
        );
        if tiered > single {
            failures.push(format!(
                "placement: tiered default {} ns slower than single-tier {} ns",
                tiered.as_ns(),
                single.as_ns()
            ));
        }
    }

    if failures.is_empty() {
        println!("perf smoke: all checks passed");
    } else {
        for f in &failures {
            eprintln!("perf smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
