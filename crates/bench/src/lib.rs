//! # teco-bench — experiment harness
//!
//! One binary per paper table/figure and extension sweep (see `src/bin/`)
//! plus Criterion micro-benchmarks (`benches/`). This library holds the
//! sweep rows ([`sweeps`]), the REPORT.md sections rendered from them
//! ([`report`]), and the shared output helpers: aligned-table printing and
//! JSON result dumps into `bench_results/`.

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
/// the file cannot be written, so a binary that fails to record its
/// result exits nonzero.
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("bench_results");
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| panic!("cannot serialize {name}: {e}"));
    fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
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
    #[should_panic(expected = "cannot write bench_results/no_such_dir/rows.json")]
    fn dump_json_panics_when_it_cannot_write() {
        dump_json("no_such_dir/rows", &[1u8]);
    }
}
