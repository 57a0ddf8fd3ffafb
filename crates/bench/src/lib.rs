//! # teco-bench — experiment harness
//!
//! Every table and figure of the paper's evaluation and every extension
//! experiment is one entry of [`EXPERIMENTS`], a static registry that
//! the `teco-bench` binary runs:
//!
//! ```text
//! teco-bench                        # every entry, then bench_results/REPORT.md
//! teco-bench <name>...              # only the named entries
//! teco-bench perf-smoke [--record]  # the Criterion-median regression gate
//! ```
//!
//! An entry prints its tables, writes its rows under `bench_results/`,
//! and returns an [`Outcome`]: its REPORT.md section, if it owns one, and
//! its gate's verdict, if it has one. The experiments live in [`paper`],
//! [`ablations`] and [`extensions`]; the sweep rows in [`sweeps`]; the
//! REPORT.md sections rendered from them in [`report`]. Criterion
//! micro-benchmarks live in `benches/`, and [`perf_smoke`] gates their
//! medians.

pub mod ablations;
pub mod extensions;
pub mod paper;
pub mod perf_smoke;
pub mod report;
pub mod sweeps;

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Print a section header for an experiment.
pub fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Print one aligned table row.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Format a float cell.
pub fn f(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percent cell.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Write an experiment's rows as JSON under `bench_results/<name>.json`
/// and return the path written. Panics with the path and the error when
/// the file cannot be written, so an experiment that fails to record its
/// result aborts the run.
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("bench_results");
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| panic!("cannot serialize {name}: {e}"));
    fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// What one experiment hands back to the runner.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The experiment's REPORT.md section, when it owns one.
    pub section: Option<String>,
    /// Why its gate failed; `None` when the gate held or it has none.
    pub failed: Option<String>,
}

impl Outcome {
    /// An outcome that contributes `md` to REPORT.md.
    pub fn section(md: String) -> Self {
        Outcome { section: Some(md), failed: None }
    }

    /// This outcome with its gate failed by `divergences`, joined with
    /// `; `, or unchanged when there are none.
    pub fn gate(self, divergences: &[String]) -> Self {
        Outcome { failed: (!divergences.is_empty()).then(|| divergences.join("; ")), ..self }
    }
}

/// One registry entry: an experiment's name and the function that runs it.
#[derive(Debug)]
pub struct Experiment {
    /// The name `teco-bench <name>` runs it by.
    pub name: &'static str,
    /// Prints the experiment's tables, writes its JSON, and returns its
    /// outcome.
    pub run: fn() -> Outcome,
}

/// Registry entries named after their functions.
macro_rules! registry {
    ($($module:ident::$name:ident),* $(,)?) => {
        &[$(Experiment { name: stringify!($name), run: $module::$name }),*]
    };
}

/// Every experiment, in REPORT.md order: an entry that returns a section
/// puts it in the report where the entry stands here.
pub const EXPERIMENTS: &[Experiment] = registry![
    paper::table1_comm_overhead,
    paper::fig2_value_changes,
    paper::fig10_loss_curves,
    paper::fig11_speedup,
    paper::fig12_breakdown,
    paper::fig13_dba_activation,
    paper::table5_accuracy,
    paper::table6_model_size,
    paper::table7_zeroquant,
    paper::table8_lz4,
    paper::ablation_inval_vs_update,
    paper::volume_and_overhead,
    paper::cost_savings,
    paper::sec7_lammps,
    paper::overhead_analysis,
    ablations::ablation_cpu_speed,
    ablations::ablation_dirty_bytes,
    ablations::ablation_granularity,
    ablations::ablation_pcie_gen,
    ablations::autotune_act_steps,
    ablations::baselines_comparison,
    ablations::trace_replay_validation,
    extensions::fault_sweep,
    paper::api_overhead,
    extensions::soak_resume,
    extensions::scaling_sweep,
    extensions::datapath_sweep,
    extensions::churn_sweep,
    extensions::collective_sweep,
    extensions::fabric_chaos_sweep,
    extensions::placement_sweep,
];

/// What a run of registry entries produced.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// The entries' REPORT.md sections, in run order.
    pub report: String,
    /// `(entry, why)` for every gate that failed, in run order.
    pub failed: Vec<(&'static str, String)>,
}

/// Run `entries` one after another. A failed gate does not stop the run:
/// every entry runs, and the summary names each failure. A panic aborts
/// the run.
pub fn run<'a>(entries: impl IntoIterator<Item = &'a Experiment>) -> RunSummary {
    let mut summary = RunSummary::default();
    for entry in entries {
        let outcome = (entry.run)();
        summary.report.extend(outcome.section);
        if let Some(why) = outcome.failed {
            summary.failed.push((entry.name, why));
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(f(1.234), "1.23");
        assert_eq!(pct(12.345), "12.3%");
    }

    #[test]
    fn dump_json_roundtrips() {
        let rows = vec![("a", 1.5f64), ("b", 2.5)];
        let path = dump_json("unit_test_rows", &rows);
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<(String, f64)> = serde_json::from_str(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "a");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_failed_gate_names_its_entry_and_the_run_goes_on() {
        let entries = [
            Experiment {
                name: "first",
                run: || Outcome::section("a".into()).gate(&["x".into(), "y".into()]),
            },
            Experiment { name: "second", run: || Outcome::section("b".into()) },
        ];
        let summary = run(&entries);
        assert_eq!(summary.report, "ab", "the second entry must still run");
        assert_eq!(summary.failed, vec![("first", "x; y".to_string())]);
    }

    #[test]
    #[should_panic(expected = "cannot write bench_results/no_such_dir/rows.json")]
    fn dump_json_panics_when_it_cannot_write() {
        dump_json("no_such_dir/rows", &[1u8]);
    }
}
