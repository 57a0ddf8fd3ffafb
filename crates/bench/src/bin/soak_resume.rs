//! Soak the crash/resume path: run fixed-seed workloads uninterrupted,
//! then kill and resume each one at every step boundary of several steps,
//! and assert the resumed run's JSON report is *byte-identical* to the
//! uninterrupted run's. Covers a zero-fault configuration, a heavily
//! faulty one (CRC retries, stalls, DBA checksum errors, poison — so the
//! fault injector's RNG is mid-schedule at the kill), and an audit-enabled
//! one whose final invariant walk must come back clean.
//!
//! Everything is seeded: running this binary twice produces byte-identical
//! `bench_results/soak_resume.json` (the CI sweep-smoke job diffs exactly
//! that), and the binary exits nonzero on any divergence.

use serde::Serialize;
use teco_bench::{dump_json, header, row};
use teco_core::{
    run_resumed, run_uninterrupted, KillPoint, ResumeWorkload, RunOutcome, StepBoundary,
};
use teco_cxl::FaultConfig;

#[derive(Serialize)]
struct SoakRow {
    workload: String,
    kill_step: u64,
    boundary: String,
    report_bytes: u64,
    snapshot_bytes: u64,
    snapshots_taken: u64,
    restores: u64,
    byte_identical: bool,
    audit_enabled: bool,
    audit_clean: bool,
}

fn boundary_name(b: StepBoundary) -> &'static str {
    match b {
        StepBoundary::AfterGradFence => "after-grad-fence",
        StepBoundary::AfterActivation => "after-activation",
        StepBoundary::AfterParamFence => "after-param-fence",
    }
}

fn zero_fault_workload(seed: u64) -> ResumeWorkload {
    ResumeWorkload::small(seed)
}

fn faulty_workload(seed: u64) -> ResumeWorkload {
    let mut w = ResumeWorkload::small(seed);
    w.cfg = w.cfg.with_fault(FaultConfig {
        crc_error_rate: 0.25,
        stall_rate: 0.1,
        stall_ns: 40,
        dba_checksum_error_rate: 0.2,
        poison_rate: 0.02,
        retry_limit: 64,
        seed: 1234,
        ..FaultConfig::off()
    });
    w
}

fn audited_workload(seed: u64) -> ResumeWorkload {
    let mut w = ResumeWorkload::small(seed);
    w.cfg = w.cfg.clone().with_audit(true);
    w
}

fn soak(
    name: &str,
    w: &ResumeWorkload,
    baseline: &RunOutcome,
    out: &mut Vec<SoakRow>,
    failures: &mut u64,
) {
    let base_json = serde_json::to_string(&baseline.report).expect("serialize baseline report");
    // Kill at every boundary of the first, a middle, and the last step.
    for step in [0, w.steps / 2, w.steps - 1] {
        for boundary in [
            StepBoundary::AfterGradFence,
            StepBoundary::AfterActivation,
            StepBoundary::AfterParamFence,
        ] {
            let kill = KillPoint { step, boundary };
            let resumed = run_resumed(w, kill).expect("resumed run completes");
            let resumed_json =
                serde_json::to_string(&resumed.report).expect("serialize resumed report");
            let identical = resumed_json == base_json;
            let audit_clean = resumed.last_audit_error.is_none();
            if !identical || !audit_clean {
                *failures += 1;
            }
            row(&[
                name.into(),
                step.to_string(),
                boundary_name(boundary).into(),
                resumed.snapshot_bytes.to_string(),
                identical.to_string(),
                audit_clean.to_string(),
            ]);
            out.push(SoakRow {
                workload: name.into(),
                kill_step: step,
                boundary: boundary_name(boundary).into(),
                report_bytes: resumed_json.len() as u64,
                snapshot_bytes: resumed.snapshot_bytes,
                snapshots_taken: resumed.snapshots_taken,
                restores: resumed.restores,
                byte_identical: identical,
                audit_enabled: resumed.report.audit_enabled,
                audit_clean,
            });
        }
    }
}

fn main() {
    header("Soak resume", "kill+resume at 3 boundaries × 3 steps, diff vs uninterrupted");
    row(&[
        "workload".into(),
        "kill step".into(),
        "boundary".into(),
        "snap bytes".into(),
        "identical".into(),
        "audit ok".into(),
    ]);
    let mut out = Vec::new();
    let mut failures = 0u64;
    for (name, w) in [
        ("zero-fault", zero_fault_workload(7)),
        ("faulty", faulty_workload(7)),
        ("audited", audited_workload(7)),
    ] {
        let baseline = run_uninterrupted(&w).expect("uninterrupted run completes");
        assert!(
            baseline.last_audit_error.is_none(),
            "{name}: uninterrupted audit failed: {:?}",
            baseline.last_audit_error
        );
        soak(name, &w, &baseline, &mut out, &mut failures);
    }
    dump_json("soak_resume", &out);
    if failures > 0 {
        eprintln!("soak_resume: {failures} kill point(s) diverged from the uninterrupted run");
        std::process::exit(1);
    }
    println!("\nall kill points resumed byte-identically; audits clean");
}
