//! The REPORT.md section renderers.
//!
//! The fault, snoop, and resume sections run their own small fixed-seed
//! workloads. The six sweep sections are functions of their sweep's rows
//! ([`crate::sweeps`]): each sweep's registry entry prints its section
//! from the rows it writes to JSON and returns it for REPORT.md, so its
//! stdout is the table REPORT.md shows. The golden-file
//! tests (`tests/report_golden.rs`) render every section against its
//! checked-in fixture byte-for-byte. Every section is deterministic: fixed
//! seeds, fixed workloads, no wall-clock or environment inputs.

use crate::sweeps::{
    chaos_divergences, collective_divergences, placement_divergences, ChaosRow, ChurnRow,
    CollectiveRow, CollectiveSweep, DatapathRow, PlacementRow, ScalingRow,
};
use teco_core::{
    run_resumed, run_uninterrupted, KillPoint, ResumeWorkload, StepBoundary, TecoConfig,
    TecoSession,
};
use teco_cxl::FaultConfig;
use teco_mem::LineData;
use teco_offload::{fault_report_md, md_table};
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

/// A table column: its header and how one row renders in it.
type Column<R> = (&'static str, fn(&R) -> String);

/// One sweep section: a blank line, the `##` heading, a table with one
/// line per row, and the prose under it (none when `prose` is empty).
fn table_section<R>(title: &str, columns: &[Column<R>], rows: &[R], prose: &str) -> String {
    let header: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let cells: Vec<Vec<String>> =
        rows.iter().map(|r| columns.iter().map(|c| (c.1)(r)).collect()).collect();
    let mut out = format!("\n## {title}\n\n{}", md_table(&header, &cells));
    if !prose.is_empty() {
        out.push_str(&format!("\n{prose}\n"));
    }
    out
}

/// A gated sweep's verdict line: what held, or every divergence.
fn gate_line(bad: &[String], held: &str) -> String {
    if bad.is_empty() {
        format!("\ngate: {held}\n")
    } else {
        format!("\ngate: FAILED \u{2014} {}\n", bad.join("; "))
    }
}

fn yes_no(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

/// Simulated nanoseconds as milliseconds, three decimals.
fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// The multi-device scaling section: one row per (devices, batch) cell.
pub fn scaling_section(rows: &[ScalingRow]) -> String {
    let columns: &[Column<ScalingRow>] = &[
        ("devices", |r| r.devices.to_string()),
        ("batch", |r| r.batch.to_string()),
        ("cluster ms", |r| ms(r.cluster_time_ns)),
        ("speedup", |r| format!("{:.2}", r.speedup_vs_one)),
        ("efficiency", |r| format!("{:.1}%", r.efficiency_pct)),
        ("host wait ms", |r| ms(r.host_wait_ns)),
        ("host drain ms", |r| ms(r.host_drained_ns)),
        ("fan-out saved MB", |r| format!("{:.2}", r.fanout_saved_bytes as f64 / 1e6)),
    ];
    table_section(
        "Multi-device scaling over a shared CXL pool",
        columns,
        rows,
        "Speedup counts shards processed per unit time versus the one-device run;\n\
         efficiency below 100% is host-budget contention (the shared DRAM pool\n\
         serializes gradient reduction once aggregate link bandwidth exceeds it).\n\
         Fan-out savings are the host reads the update-mode broadcast avoided.",
    )
}

/// The datapath section: the session end state of every (protocol, fault)
/// cell. The digest column is FNV-1a over the serialized session snapshot,
/// so any change to the end state shows up there.
pub fn datapath_section(rows: &[DatapathRow]) -> String {
    let columns: &[Column<DatapathRow>] = &[
        ("faults", |r| if r.faulty { "on" } else { "off" }.to_string()),
        ("protocol", |r| if r.invalidation { "invalidation" } else { "update" }.to_string()),
        ("sim \u{b5}s", |r| format!("{:.3}", r.sim_time_ns as f64 / 1e3)),
        ("to-device bytes", |r| r.bytes_to_device.to_string()),
        ("retries", |r| r.link_retries.to_string()),
        ("checksum mismatches", |r| r.checksum_mismatches.to_string()),
        ("snoop peak", |r| r.snoop_peak.to_string()),
        ("snapshot digest", |r| format!("`{}`", r.snapshot_digest)),
    ];
    table_section("Datapath end states (protocol \u{d7} faults)", columns, rows, "")
}

/// The fault-domain churn section: device loss, watchdog detection, shard
/// redistribution, hot readmission, and pool-media RAS, one row per
/// (devices, kill mode, media rate) cell.
pub fn churn_section(rows: &[ChurnRow]) -> String {
    let columns: &[Column<ChurnRow>] = &[
        ("devices", |r| r.devices.to_string()),
        ("kill", |r| r.kill_mode.clone()),
        ("media rate", |r| format!("{:.2}", r.media_rate)),
        ("down", |r| r.down_events.to_string()),
        ("readmits", |r| r.readmits.to_string()),
        ("rerouted lines", |r| r.redistributed_lines.to_string()),
        ("faults", |r| r.ras_faults_injected.to_string()),
        ("retired", |r| r.ras_lines_retired.to_string()),
        ("rebuilds", |r| r.ras_rebuilds.to_string()),
        ("cluster ms", |r| ms(r.cluster_time_ns)),
        ("converged", |r| yes_no(r.converged)),
    ];
    table_section(
        "Fault domains: device loss and pool-media RAS under churn",
        columns,
        rows,
        "Each cell kills a device mid-run (watchdog-detected at the gradient\n\
         fence), reroutes its shard through the survivors, and optionally\n\
         hot-readmits it from the pooled optimizer state, while persistent\n\
         media faults are scrubbed, retired to spares, and rebuilt from the\n\
         clean pooled copy. \"converged\" means the pooled optimizer and every\n\
         live replica ended byte-identical to the never-failed, fault-free run.",
    )
}

/// The inter-host collective section: the pool-vs-ring comparison grid,
/// with the sweep's acceptance gate (pool beats ring on time and bytes,
/// bits match, host 0 of every fabric anchor row unperturbed) underneath.
/// The fabric anchor rows and the byte ratio live in the sweep's JSON.
pub fn collective_section(sweep: &CollectiveSweep) -> String {
    let columns: &[Column<CollectiveRow>] = &[
        ("hosts", |r| r.hosts.to_string()),
        ("grad MB", |r| format!("{:.0}", r.grad_bytes as f64 / (1 << 20) as f64)),
        ("pool ms", |r| ms(r.pool_ns)),
        ("ring ms", |r| ms(r.ring_ns)),
        ("speedup", |r| format!("{:.2}", r.speedup)),
        ("pool port MB", |r| format!("{:.1}", r.pool_port_bytes as f64 / 1e6)),
        ("ring link MB", |r| format!("{:.1}", r.ring_link_bytes as f64 / 1e6)),
        ("fan-in saved MB", |r| format!("{:.1}", r.fanin_saved_bytes as f64 / 1e6)),
        ("bits match", |r| yes_no(r.results_match)),
    ];
    table_section(
        "Inter-host all-reduce: pool-staged vs point-to-point ring",
        columns,
        &sweep.collective,
        "The pool path stages each host's gradient once and reads peers\n\
         directly from the shared pool ((2H\u{2212}1)\u{b7}G port bytes, one staged\n\
         write plus direct reads); the ring moves 4(H\u{2212}1)\u{b7}G endpoint-port\n\
         bytes over 2(H\u{2212}1) bulk-synchronous hops. Both reduce with the same\n\
         wrapping-add kernel, so \"bits match\" is exact equality of the\n\
         reduced gradients. Fan-in savings are the pool-DRAM reads the\n\
         switched multicast avoided during the gather phase.",
    ) + &gate_line(
        &collective_divergences(sweep),
        "pool beat the ring on time and bytes in every cell, bit-identically, \
         with host 0 of every fabric byte-identical to the single-host path",
    )
}

/// The fabric chaos section: host loss at a chunk boundary of the fused
/// all-reduce, watchdog detection, survivor regroup, hot readmission, and
/// staging-media RAS, with the sweep's acceptance gate underneath.
pub fn chaos_section(rows: &[ChaosRow]) -> String {
    let columns: &[Column<ChaosRow>] = &[
        ("hosts", |r| r.hosts.to_string()),
        ("kill phase", |r| r.kill_phase.clone()),
        ("media rate", |r| format!("{:.2}", r.media_rate)),
        ("detected", |r| r.detections.to_string()),
        ("regroups", |r| r.regroups.to_string()),
        ("readmits", |r| r.readmissions.to_string()),
        ("retries", |r| r.chunk_retries.to_string()),
        ("media det", |r| r.media_detections.to_string()),
        ("ring falls", |r| r.ring_fallbacks.to_string()),
        ("poisoned", |r| r.poisoned_admitted.to_string()),
        ("fabric ms", |r| ms(r.fabric_time_ns)),
        ("converged", |r| yes_no(r.converged)),
    ];
    table_section(
        "Fabric chaos: host loss and media faults mid-all-reduce",
        columns,
        rows,
        "Each cell kills a host at a chunk boundary of one step's all-reduce\n\
         and/or injects persistent staging-media faults. The collective\n\
         deadline watchdog detects the loss, the fabric walks the degradation\n\
         ladder (per-chunk checksummed retry \u{2192} survivor regroup \u{2192} ring\n\
         fallback under retirement pressure), and the lost host hot-readmits\n\
         from pooled state. \"converged\" means the regrouped reduces and the\n\
         final parameters stayed byte-identical to the matching never-failed\n\
         fabric; \"poisoned\" counts corrupt bytes admitted to a reduction and\n\
         must be zero in every cell.",
    ) + &gate_line(
        &chaos_divergences(rows),
        "every degraded and readmitted fabric ended byte-identical to its \
         never-failed golden, with zero poisoned bytes admitted",
    )
}

/// The tiered-placement section: every Table III model under the explicit
/// single-tier policy instance and the tiered policy, with the sweep's
/// acceptance gate (single-tier byte-identical to the legacy default,
/// tiered demonstrably re-placed, autotuned cache tracking Table III)
/// underneath.
pub fn placement_section(rows: &[PlacementRow]) -> String {
    let columns: &[Column<PlacementRow>] = &[
        ("model", |r| r.model.clone()),
        ("policy", |r| r.policy.clone()),
        ("tuned MB", |r| r.autotuned_mb.to_string()),
        ("Table III MB", |r| r.table3_mb.to_string()),
        ("device B", |r| r.device_bytes.to_string()),
        ("cache B", |r| r.giant_cache_bytes.to_string()),
        ("host B", |r| r.host_dram_bytes.to_string()),
        ("migrations", |r| r.migrations.to_string()),
        ("migrated B", |r| r.migrated_bytes.to_string()),
        ("param link B", |r| r.bytes_to_device.to_string()),
        ("grad link B", |r| r.bytes_to_host.to_string()),
        ("snapshot", |r| r.snapshot_digest.clone()),
    ];
    table_section(
        "Tiered tensor placement: device / giant cache / host DRAM",
        columns,
        rows,
        "Each row trains one scaled-down model under one placement policy.\n\
         Single-tier is the legacy layout (everything in the giant cache, no\n\
         placement engine constructed); tiered splits tensors by class \u{2014}\n\
         small hot tensors pin device-resident, params and grads stage in\n\
         the CXL giant cache, optimizer moments spill to plain host DRAM \u{2014}\n\
         and migrates across tiers only at step boundaries. \"tuned MB\" is\n\
         the BO-sized giant cache next to the published Table III setting;\n\
         the snapshot digest proves run-to-run byte reproducibility.",
    ) + &gate_line(
        &placement_divergences(rows),
        "explicit single-tier stayed byte-identical to the legacy default on \
         every model, every tiered cell re-placed tensors off the giant cache, \
         and the autotuned cache tracked Table III",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps;

    #[test]
    fn failing_cells_render_no_and_a_failed_gate() {
        let mut churn = sweeps::churn_row(&sweeps::churn_grid()[0]);
        churn.converged = false;
        assert!(churn_section(&[churn]).contains("| NO |"));
        let mut cell = sweeps::collective_row(&sweeps::collective_grid()[0]);
        cell.results_match = false;
        let md =
            collective_section(&CollectiveSweep { fabric: Vec::new(), collective: vec![cell] });
        assert!(md.contains("| NO |"), "{md}");
        assert!(
            md.ends_with("\ngate: FAILED \u{2014} H=2 G=1MB: pool and ring bits diverge\n"),
            "{md}"
        );
    }
}
