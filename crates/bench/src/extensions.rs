//! The extension experiments: the link fault model, crash/resume, and
//! the six seeded sweeps over clusters, fabrics, and tiered placement.
//! Each sweep prints exactly its REPORT.md section and returns it; the
//! gated ones also return their gate's verdict.

use crate::report::{
    chaos_section, churn_section, collective_section, datapath_section, fault_section,
    placement_section, resume_section, scaling_section,
};
use crate::sweeps::{
    self, chaos_divergences, chaos_rows, churn_rows, collective_divergences, datapath_rows,
    fault_rows, placement_divergences, placement_rows, scaling_rows,
};
use crate::{dump_json, f, header, row, Outcome};
use serde::Serialize;
use teco_core::{
    run_resumed, run_uninterrupted, KillPoint, ResumeReport, ResumeWorkload, RunOutcome,
    StepBoundary,
};
use teco_cxl::FaultConfig;

/// Fault sweep: the recovery cost of the link fault model across fault
/// rates × `dirty_bytes`. Each cell runs the same fixed-seed functional
/// workload (gradient stream out, DBA-conformant parameter updates back,
/// two fences per step) and records simulated time, recovery counters, and
/// whether the giant-cache end state stayed bit-identical to a fault-free
/// run — the recoverability criterion, measured rather than assumed.
///
/// Returns REPORT.md's fault/recovery section: one small fixed-seed
/// faulty session's counters.
pub fn fault_sweep() -> Outcome {
    header("Fault sweep", "recovery cost across fault rates × dirty_bytes");
    row(&[
        "rate".into(),
        "dirty".into(),
        "sim ms".into(),
        "slowdown".into(),
        "retries".into(),
        "mismatch".into(),
        "quarantine".into(),
        "degraded".into(),
        "state ok".into(),
    ]);
    let out = fault_rows();
    for r in &out {
        row(&[
            format!("{}", r.fault_rate),
            r.dirty_bytes.to_string(),
            f(r.sim_time_ns as f64 / 1e6),
            f(r.slowdown_vs_clean),
            r.link_retries.to_string(),
            r.checksum_mismatches.to_string(),
            r.quarantined_lines.to_string(),
            r.degraded_regions.to_string(),
            r.state_matches_clean.to_string(),
        ]);
    }
    println!("\nrate 0 rows are byte-identical to the fault-model-off baseline; nonzero");
    println!("rates pay recovery time (retries, stalls, full-line resends) but the");
    println!("giant-cache end state stays bit-identical to the clean run.");
    dump_json("fault_sweep", &out);
    Outcome::section(fault_section())
}

/// Soak the crash/resume path: run fixed-seed workloads uninterrupted,
/// then kill and resume each one at every step boundary of several steps,
/// and check that the resumed run's JSON report is *byte-identical* to
/// the uninterrupted run's. Covers a zero-fault configuration, a heavily
/// faulty one (CRC retries, stalls, DBA checksum errors, poison — so the
/// fault injector's RNG is mid-schedule at the kill), and an audit-enabled
/// one whose final invariant walk must come back clean.
///
/// Gate: every kill point resumes byte-identically with a clean audit.
/// Returns REPORT.md's snapshot/resume section.
pub fn soak_resume() -> Outcome {
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
    let mut failures = Vec::new();
    for (name, w) in [
        ("zero-fault", ResumeWorkload::small(7)),
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
    if failures.is_empty() {
        println!("\nall kill points resumed byte-identically; audits clean");
    }
    Outcome::section(resume_section()).gate(&failures)
}

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

/// Kill and resume `w` at every boundary of its first, a middle, and its
/// last step, recording one row per kill point and naming in `failures`
/// each one that diverged or failed its audit.
fn soak(
    name: &str,
    w: &ResumeWorkload,
    baseline: &RunOutcome<ResumeReport>,
    out: &mut Vec<SoakRow>,
    failures: &mut Vec<String>,
) {
    let base_json = serde_json::to_string(&baseline.report).expect("serialize baseline report");
    for step in [0, w.steps / 2, w.steps - 1] {
        for boundary in StepBoundary::ALL {
            let kill = KillPoint { step, boundary };
            let resumed = run_resumed(w, kill).expect("resumed run completes");
            let resumed_json =
                serde_json::to_string(&resumed.report).expect("serialize resumed report");
            let identical = resumed_json == base_json;
            let audit_clean = resumed.last_audit_error.is_none();
            if !identical || !audit_clean {
                failures.push(format!(
                    "{name} killed at step {step} {} diverged from the uninterrupted run",
                    boundary_name(boundary)
                ));
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

/// Scaling sweep: N accelerators data-parallel over a shared CXL pool,
/// N ∈ {1, 2, 4, 8} × per-device batch ∈ {4, 8, 16}.
///
/// Each cell runs the fixed-seed cluster workload — per step: per-device
/// gradient shards flush and fence, the shards reduce into the pooled CPU
/// optimizer through the round-robin host-budget arbiter, and the updated
/// parameters broadcast back through update-mode coherence (one host read
/// fanned out to every giant cache). Speedup counts shards processed per
/// unit time versus the cell's own one-device baseline; efficiency decay
/// is host-DRAM contention, which starts once aggregate link bandwidth
/// (N × 15.088 GB/s) exceeds the 38.4 GB/s pool budget. There is no paper
/// baseline for these numbers — the paper evaluates one accelerator per
/// coherence domain; this sweep is the model's prediction for the
/// multi-device regime (see EXPERIMENTS.md).
pub fn scaling_sweep() -> Outcome {
    let rows = scaling_rows();
    publish("scaling_sweep", &rows, scaling_section(&rows))
}

/// Datapath sweep: one fixed-seed session workload (bulk parameter runs,
/// a gradient stream back, two fences per round) with the fault model off
/// and on, under both protocol modes — recording the end state down to an
/// FNV-1a digest of the serialized session snapshot.
pub fn datapath_sweep() -> Outcome {
    let rows = datapath_rows();
    publish("datapath_sweep", &rows, datapath_section(&rows))
}

/// Churn sweep: fault domains under device loss and pool-media RAS,
/// N ∈ {2, 4} × kill mode ∈ {none, lose, readmit} × media-fault rate
/// ∈ {0, 1 per tick}.
///
/// Each cell runs the fixed churn workload — a device killed mid-run is
/// declared down by the fence-deadline watchdog, its host account is
/// quarantined, its gradient shard reroutes through the survivors
/// round-robin (the wrapping-sum reduce makes the pool bytes identical
/// to the never-failed run's), and in readmit mode it is rebuilt from
/// nothing but the pooled optimizer state. Persistent media faults are
/// patrol-scrubbed, retired to spares, and rebuilt from the clean pooled
/// copy before any poisoned byte reaches a parameter.
///
/// Gate: every cell converges. There is no paper baseline — the paper
/// evaluates a single fault-free accelerator; this sweep is the model's
/// prediction for the elastic-recovery regime (see EXPERIMENTS.md).
pub fn churn_sweep() -> Outcome {
    let rows = churn_rows();
    let diverged: Vec<String> = rows
        .iter()
        .filter(|r| !r.converged)
        .map(|r| {
            format!(
                "N={} kill={} media rate {:.2}: diverged from its never-failed baseline",
                r.devices, r.kill_mode, r.media_rate
            )
        })
        .collect();
    publish("churn_sweep", &rows, churn_section(&rows)).gate(&diverged)
}

/// Collective sweep: pool-staged inter-host all-reduce vs the NCCL-style
/// point-to-point ring, H ∈ {2, 4, 8} × gradient ∈ {1, 16, 64} MiB, plus
/// the fabric anchor rows (H ∈ {1, 2, 4, 8} training fabrics over the
/// shared pool).
///
/// The pool path stages each host's gradient once and reads the peers'
/// regions directly from the shared pool — (2H−1)·G host↔pool port bytes
/// with the reduced-shard writeback overlapped on the full-duplex port —
/// while the ring moves 4(H−1)·G endpoint-port bytes over 2(H−1)
/// bulk-synchronous hops. Both reduce with the same wrapping-add kernel,
/// so the sweep checks bit-identical results cell by cell.
///
/// Gate: every cell beats the ring on time *and* bytes with matching
/// bits, and no fabric row perturbs host 0 away from the standalone
/// single-host path. The fabric anchor rows and byte ratios are in the
/// JSON only.
pub fn collective_sweep() -> Outcome {
    let sweep = sweeps::collective_sweep();
    publish("collective_sweep", &sweep, collective_section(&sweep))
        .gate(&collective_divergences(&sweep))
}

/// Fabric chaos sweep: host loss and staging-media faults
/// mid-all-reduce, H ∈ {2, 4} × kill phase ∈ {none, reduce-scatter,
/// all-gather} × media-fault rate ∈ {0, 1 per tick}.
///
/// Each cell runs the fixed chaos workload — a host killed at a chunk
/// boundary of the fused all-reduce is declared lost by the collective
/// deadline watchdog, its arbiter account is quarantined, the survivors
/// regroup H→H−1 and re-run the step's collective bit-identically to a
/// never-failed H−1 fabric, and one full step later the host is
/// hot-readmitted from the pooled parameter state (its device replicas
/// end byte-identical to hosts that never died). Staging-media faults
/// are patrol-scrubbed and caught on access; no poisoned byte ever
/// reaches a reduction.
///
/// Gate: every cell converges with zero poisoned bytes. There is no
/// paper baseline — the paper evaluates a single fault-free host; this
/// sweep is the model's prediction for the degraded-collective regime
/// (see EXPERIMENTS.md).
pub fn fabric_chaos_sweep() -> Outcome {
    let rows = chaos_rows();
    publish("fabric_chaos_sweep", &rows, chaos_section(&rows)).gate(&chaos_divergences(&rows))
}

/// Placement sweep: every Table III model under the explicit single-tier
/// policy instance and the non-default tiered policy.
///
/// Each cell runs the fixed scaled-down workload — per step: gradient
/// lines flush and fence, DBA activates mid-run, parameters and optimizer
/// moments push back — under one placement policy, then serializes the
/// end state. Single-tier cells must be byte-identical to a session whose
/// config never mentions placement (the legacy layout is one policy
/// instance); tiered cells pin small hot tensors device-resident, stage
/// params/grads in the CXL giant cache, and spill optimizer moments to
/// plain host DRAM, migrating only at step boundaries. Each row also
/// carries the BO-autotuned giant-cache size next to the published
/// Table III setting.
///
/// Gate: single-tier stays byte-identical to the legacy default, every
/// tiered cell re-places tensors, and the autotuned cache tracks
/// Table III.
pub fn placement_sweep() -> Outcome {
    let rows = placement_rows();
    publish("placement_sweep", &rows, placement_section(&rows)).gate(&placement_divergences(&rows))
}

/// A sweep's output: print its REPORT.md section `md` (its whole
/// stdout), write `rows` to `bench_results/<name>.json`, and return `md`.
fn publish<T: Serialize>(name: &str, rows: &T, md: String) -> Outcome {
    print!("{md}");
    dump_json(name, rows);
    Outcome::section(md)
}
