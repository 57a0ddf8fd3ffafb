//! The REPORT.md section renderers.
//!
//! These used to live inline in the `generate_report` binary; they are
//! library functions so the golden-file tests (`tests/report_golden.rs`)
//! can render each section against its checked-in fixture byte-for-byte.
//! Every section is deterministic: fixed seeds, fixed workloads, no
//! wall-clock or environment inputs.

use crate::sweeps;
use teco_core::{
    run_resumed, run_uninterrupted, KillPoint, ResumeWorkload, StepBoundary, TecoConfig,
    TecoSession,
};
use teco_cxl::FaultConfig;
use teco_mem::LineData;
use teco_offload::{
    chaos_report_md, churn_report_md, collective_report_md, fault_report_md, placement_report_md,
    scaling_report_md,
};
use teco_sim::SimTime;

/// A small fixed-seed faulty run so the report always carries a populated
/// fault/recovery section (deterministic: same counters every invocation).
pub fn fault_section() -> String {
    let fault = FaultConfig {
        crc_error_rate: 0.05,
        stall_rate: 0.05,
        stall_ns: 100,
        poison_rate: 0.01,
        dba_checksum_error_rate: 0.05,
        retry_limit: 8,
        seed: 7,
        ..FaultConfig::off()
    };
    let cfg = TecoConfig::default()
        .with_giant_cache_bytes(1 << 20)
        .with_act_aft_steps(1)
        .with_fault(fault);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, base) = s.alloc_tensor("params", 256 * 64).expect("alloc params");
    let mut now = SimTime::ZERO;
    for step in 0..3u64 {
        s.check_activation(step);
        let lines: Vec<LineData> = (0..256u64)
            .map(|i| {
                let mut l = LineData::zeroed();
                for w in 0..16usize {
                    // High halves fixed across steps (the DBA premise).
                    l.set_word(w, ((i as u32) << 16) | (0x100 + step as u32 * 3 + w as u32));
                }
                l
            })
            .collect();
        s.push_param_lines(base, &lines, now).expect("param push");
        now = s.cxlfence_params(now);
    }
    fault_report_md(&s.fault_report(), s.degraded_regions())
}

/// A deterministic invalidation-mode run that populates the snoop filter,
/// reported so the directory's occupancy (and where its entries live —
/// dense arena vs spillover) is visible next to the fault section.
pub fn snoop_section() -> String {
    let cfg = TecoConfig::default()
        .with_giant_cache_bytes(1 << 20)
        .with_protocol(teco_cxl::ProtocolMode::Invalidation);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, base) = s.alloc_tensor("params", 512 * 64).expect("alloc params");
    let lines: Vec<LineData> = (0..512u64)
        .map(|i| {
            let mut l = LineData::zeroed();
            for w in 0..16usize {
                l.set_word(w, ((i as u32) << 8) | w as u32);
            }
            l
        })
        .collect();
    s.push_param_lines(base, &lines, SimTime::ZERO).expect("param push");
    let st = s.coherence().snoop_filter().stats();
    format!(
        "\n## Snoop-filter occupancy (invalidation mode, 512-line push)\n\n\
         | metric | value |\n|---|---|\n\
         | tracked lines | {} |\n\
         | dense-arena entries | {} |\n\
         | spillover entries | {} |\n\
         | dense slots available | {} |\n\
         | peak tracked lines | {} |\n\
         | peak directory bytes | {} |\n",
        st.entries,
        st.dense_entries,
        st.spill_entries,
        st.dense_slots,
        st.peak_entries,
        st.peak_bytes
    )
}

/// A fixed-seed kill+resume exercise so the report always carries the
/// crash-consistency counters: snapshots taken, restores performed,
/// snapshot image size, byte-identity of the resumed run, and the paranoid
/// auditor's final verdict. Deterministic: same numbers every invocation.
pub fn resume_section() -> String {
    let mut w = ResumeWorkload::small(7);
    w.cfg = w.cfg.clone().with_audit(true);
    let baseline = run_uninterrupted(&w).expect("uninterrupted run completes");
    let kill = KillPoint { step: w.steps / 2, boundary: StepBoundary::AfterActivation };
    let resumed = run_resumed(&w, kill).expect("resumed run completes");
    let identical = serde_json::to_string(&resumed.report).expect("serialize resumed")
        == serde_json::to_string(&baseline.report).expect("serialize baseline");
    let audit = |e: &Option<String>| match e {
        None => "clean".to_string(),
        Some(msg) => format!("FAILED: {msg}"),
    };
    format!(
        "\n## Crash-consistent snapshot/resume (audited, kill at step {} {})\n\n\
         | metric | uninterrupted | killed+resumed |\n|---|---|---|\n\
         | snapshots taken | {} | {} |\n\
         | restores performed | {} | {} |\n\
         | snapshot image bytes | {} | {} |\n\
         | device checksum | {:#018x} | {:#018x} |\n\
         | last audit walk | {} | {} |\n\
         | report byte-identical to uninterrupted | — | {} |\n",
        kill.step,
        "after-activation",
        baseline.snapshots_taken,
        resumed.snapshots_taken,
        baseline.restores,
        resumed.restores,
        baseline.snapshot_bytes,
        resumed.snapshot_bytes,
        baseline.report.device_checksum,
        resumed.report.device_checksum,
        audit(&baseline.last_audit_error),
        audit(&resumed.last_audit_error),
        identical,
    )
}

/// The datapath section: the session end state of every (protocol, fault)
/// cell as a table. The digest column is FNV-1a over the serialized
/// session snapshot, so any change to the end state shows up there.
/// Serial render for the same reason as [`scaling_section`].
pub fn datapath_section() -> String {
    let rows = sweeps::datapath_rows_with_workers(1);
    let mut out = String::from(
        "\n## Datapath end states (protocol \u{d7} faults)\n\n\
         | faults | protocol | sim \u{b5}s | to-device bytes | retries | \
         checksum mismatches | snoop peak | snapshot digest |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {} | {} | {} | {} | `{}` |\n",
            if r.faulty { "on" } else { "off" },
            if r.invalidation { "invalidation" } else { "update" },
            r.sim_time_ns as f64 / 1e3,
            r.bytes_to_device,
            r.link_retries,
            r.checksum_mismatches,
            r.snoop_peak,
            r.snapshot_digest,
        ));
    }
    out
}

/// The multi-device scaling section: renders the full scaling sweep
/// (N ∈ {1, 2, 4, 8} × batch ∈ {4, 8, 16}) through the shared markdown
/// renderer. Serial on purpose — a report render must not depend on core
/// count even transiently (the rows are worker-independent anyway; this
/// just keeps the render path trivially single-threaded).
pub fn scaling_section() -> String {
    let rows = sweeps::scaling_rows_with_workers(1);
    format!("\n{}", scaling_report_md(&sweeps::scaling_points(&rows)))
}

/// The fault-domain churn section: device loss, watchdog detection,
/// shard redistribution, hot readmission, and pool-media RAS, rendered
/// from the full churn sweep. Serial for the same reason as
/// [`scaling_section`].
pub fn churn_section() -> String {
    let rows = sweeps::churn_rows_with_workers(1);
    format!("\n{}", churn_report_md(&sweeps::churn_points(&rows)))
}

/// The fabric chaos section: host loss at a chunk boundary of the fused
/// all-reduce, watchdog detection, survivor regroup, hot readmission,
/// and staging-media RAS, rendered from the full chaos sweep with its
/// acceptance gate summarized underneath. Serial for the same reason as
/// [`scaling_section`].
pub fn chaos_section() -> String {
    let rows = sweeps::chaos_rows_with_workers(1);
    let bad = sweeps::chaos_divergences(&rows);
    let mut out = format!("\n{}", chaos_report_md(&sweeps::chaos_points(&rows)));
    out.push_str(&format!(
        "\ngate: {}\n",
        if bad.is_empty() {
            "every degraded and readmitted fabric ended byte-identical to its \
             never-failed golden, with zero poisoned bytes admitted"
                .to_string()
        } else {
            format!("FAILED — {}", bad.join("; "))
        }
    ));
    out
}

/// The tiered-placement section: every Table III model under the
/// explicit single-tier policy instance and the tiered policy, with the
/// sweep's acceptance gate (single-tier byte-identical to the legacy
/// default, tiered demonstrably re-placed, autotuned cache tracking
/// Table III) summarized underneath. Serial for the same reason as
/// [`scaling_section`].
pub fn placement_section() -> String {
    let rows = sweeps::placement_rows_with_workers(1);
    let bad = sweeps::placement_divergences(&rows);
    let mut out = format!("\n{}", placement_report_md(&sweeps::placement_points(&rows)));
    out.push_str(&format!(
        "\ngate: {}\n",
        if bad.is_empty() {
            "explicit single-tier stayed byte-identical to the legacy default on \
             every model, every tiered cell re-placed tensors off the giant cache, \
             and the autotuned cache tracked Table III"
                .to_string()
        } else {
            format!("FAILED — {}", bad.join("; "))
        }
    ));
    out
}

/// The inter-host collective section: the pool-vs-ring comparison grid
/// rendered through the shared markdown renderer, with the sweep's
/// acceptance gate (pool beats ring on time and bytes, bits match,
/// host 0 unperturbed) summarized underneath. Serial for the same reason
/// as [`scaling_section`].
pub fn collective_section() -> String {
    let sweep = sweeps::collective_sweep_with_workers(1);
    let bad = sweeps::collective_divergences(&sweep);
    let mut out =
        format!("\n{}", collective_report_md(&sweeps::collective_points(&sweep.collective)));
    out.push_str(&format!(
        "\ngate: {}\n",
        if bad.is_empty() {
            "pool beat the ring on time and bytes in every cell, bit-identically, \
             with host 0 of every fabric byte-identical to the single-host path"
                .to_string()
        } else {
            format!("FAILED — {}", bad.join("; "))
        }
    ));
    out
}
