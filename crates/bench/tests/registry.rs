//! The experiment registry against its documentation and its CLI.

use std::process::Command;
use teco_bench::EXPERIMENTS;

/// How EXPERIMENTS.md spells the command that runs one experiment.
const RUN: &str = "cargo run --release -p teco-bench -- ";

/// EXPERIMENTS.md gives a run command for every registry entry and for
/// nothing else, and no name is registered twice.
#[test]
fn experiments_md_documents_exactly_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let mut documented: Vec<String> = text
        .split(RUN)
        .skip(1)
        .map(|rest| rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect())
        .collect();
    documented.sort_unstable();
    documented.dedup();
    let mut registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    registered.sort_unstable();
    assert_eq!(documented, registered, "EXPERIMENTS.md `{RUN}<name>` commands vs the registry");
}

#[test]
fn an_unknown_name_runs_nothing_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_teco-bench"))
        .args(["fig11_speedup", "no_such_name"])
        .output()
        .expect("run teco-bench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a known name must not run before the unknown one is caught");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `no_such_name`"), "{stderr}");
    assert!(EXPERIMENTS.iter().all(|e| stderr.contains(e.name)), "valid names listed: {stderr}");
}
