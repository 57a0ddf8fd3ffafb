//! Render the timing-experiment suite into a single markdown report at
//! `bench_results/REPORT.md` — the mechanical counterpart of
//! EXPERIMENTS.md — and distill the Criterion medians that `cargo bench`
//! persisted into a machine-readable `bench_results/perf_summary.json`
//! (the dba / event_engine / coherence numbers future PRs diff against).

use serde::Value;
use teco_bench::report::{
    chaos_section, churn_section, collective_section, datapath_section, fault_section,
    placement_section, resume_section, scaling_section, snoop_section,
};
use teco_offload::{timing_report, Calibration};

/// Which `criterion_medians.json` groups feed each perf-summary section.
const SECTIONS: &[(&str, &[&str])] = &[
    ("dba", &["aggregator", "disaggregator", "aggregator_bulk", "disaggregator_bulk"]),
    ("event_engine", &["event_engine"]),
    ("coherence", &["coherence"]),
    ("coherence_event", &["coherence_event"]),
    ("giant_cache_merge", &["giant_cache_merge"]),
    ("step_throughput", &["step_throughput"]),
    ("datapath", &["datapath"]),
];

/// Build `perf_summary.json` from the medians `cargo bench` left behind.
/// Returns `None` (gracefully) when no benches have been run yet.
fn perf_summary() -> Option<Value> {
    let text = std::fs::read_to_string("bench_results/criterion_medians.json").ok()?;
    let medians: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("warning: criterion_medians.json unreadable: {e}");
            return None;
        }
    };
    let Value::Object(entries) = medians else {
        eprintln!("warning: criterion_medians.json is not an object");
        return None;
    };
    let mut sections = Vec::new();
    for &(section, groups) in SECTIONS {
        let mut items: Vec<(String, Value)> = entries
            .iter()
            .filter(|(key, _)| key.split('/').next().is_some_and(|g| groups.contains(&g)))
            .cloned()
            .collect();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        sections.push((section.to_string(), Value::Object(items)));
    }
    Some(Value::Object(sections))
}

fn main() {
    let report = format!(
        "{}\n{}{}{}{}{}{}{}{}{}",
        timing_report(&Calibration::paper()),
        fault_section(),
        snoop_section(),
        resume_section(),
        scaling_section(),
        datapath_section(),
        churn_section(),
        collective_section(),
        chaos_section(),
        placement_section()
    );
    std::fs::create_dir_all("bench_results").expect("create bench_results/");
    let path = "bench_results/REPORT.md";
    std::fs::write(path, &report).expect("write report");
    println!("{report}");
    println!("\nwritten to {path}");

    match perf_summary() {
        Some(summary) => {
            let out = "bench_results/perf_summary.json";
            let text = serde_json::to_string_pretty(&summary).expect("serialize summary");
            std::fs::write(out, text).expect("write perf summary");
            println!("perf medians written to {out}");
        }
        None => {
            println!(
                "no Criterion medians found — run `cargo bench` first to seed perf_summary.json"
            );
        }
    }
}
