//! Markdown report generation: renders the timing-experiment suite into
//! one document (the mechanical core behind EXPERIMENTS.md) and the link
//! fault/recovery table. Each timing section carries the paper's reference
//! values next to the measured ones so drift is visible at a glance. The
//! extension-sweep sections of REPORT.md live in `teco_bench::report`,
//! which renders them through [`md_table`].

use crate::experiments;
use crate::timing::Calibration;
use std::fmt::Write as _;
use teco_cxl::FaultStats;

/// Render a markdown table from a header and rows.
pub fn md_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "| {} |", header.join(" | "));
    let _ = writeln!(s, "|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for r in rows {
        let _ = writeln!(s, "| {} |", r.join(" | "));
    }
    s
}

/// Generate the timing-experiment sections of the report (the convergence
/// experiments are long-running and live in their bench binaries).
pub fn timing_report(cal: &Calibration) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TECO reproduction — timing experiment report\n");

    // Table I.
    let _ = writeln!(out, "## Table I — exposed communication share (ZeRO-Offload, Bert-large)\n");
    let rows: Vec<Vec<String>> = experiments::table1(cal)
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                format!("{:.2}%", r.measured_pct),
                format!("{:.2}%", r.paper_pct),
            ]
        })
        .collect();
    out += &md_table(&["batch", "measured", "paper"], &rows);

    // Table IV / Fig 11.
    let _ = writeln!(out, "\n## Fig. 11 / Table IV — speedup over ZeRO-Offload\n");
    let rows: Vec<Vec<String>> = experiments::fig11_table4(cal)
        .iter()
        .map(|c| {
            vec![
                c.model.clone(),
                c.batch.to_string(),
                if c.oom { "OOM".into() } else { format!("{:.2}", c.teco_cxl) },
                if c.oom { "OOM".into() } else { format!("{:.2}", c.teco_reduction) },
                c.paper_reduction.map(|p| format!("{p:.2}")).unwrap_or_else(|| "—".into()),
            ]
        })
        .collect();
    out += &md_table(&["model", "batch", "TECO-CXL", "TECO-Red", "paper"], &rows);

    // Fig 12.
    let _ = writeln!(out, "\n## Fig. 12 — time breakdown, T5-large (ms)\n");
    let rows: Vec<Vec<String>> = experiments::fig12_breakdown(cal)
        .iter()
        .map(|r| {
            vec![
                r.system.to_string(),
                r.batch.to_string(),
                format!("{:.1}", r.fwd_bwd_ms),
                format!("{:.1}", r.grad_xfer_ms),
                format!("{:.1}", r.clip_ms),
                format!("{:.1}", r.adam_ms),
                format!("{:.1}", r.param_xfer_ms),
                format!("{:.1}", r.total_ms),
            ]
        })
        .collect();
    out += &md_table(
        &["system", "batch", "fwd+bwd", "grad xfer", "clip", "adam", "param xfer", "total"],
        &rows,
    );

    // Table VI.
    let _ = writeln!(out, "\n## Table VI — model-size sensitivity (batch 4)\n");
    let rows: Vec<Vec<String>> = experiments::table6(cal)
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                format!("{:.2}", r.teco_cxl),
                format!("{:.2}", r.paper.0),
                format!("{:.2}", r.teco_reduction),
                format!("{:.2}", r.paper.1),
            ]
        })
        .collect();
    out += &md_table(&["model", "TECO-CXL", "paper", "TECO-Red", "paper"], &rows);

    // Ablation.
    let _ = writeln!(out, "\n## §IV-A2 — invalidation vs update protocol\n");
    let ab = experiments::ablation_inval_vs_update(cal);
    let avg = ab.iter().map(|r| r.penalty_pct).sum::<f64>() / ab.len() as f64;
    let rows: Vec<Vec<String>> =
        ab.iter().map(|r| vec![r.model.clone(), format!("+{:.1}%", r.penalty_pct)]).collect();
    out += &md_table(&["model", "penalty"], &rows);
    let _ = writeln!(out, "\naverage: +{avg:.1}% (paper: +56.6%)");

    // Volume.
    let _ = writeln!(out, "\n## §VIII-C — communication volume & overhead\n");
    let vol = experiments::volume_summary(cal);
    let avg = vol.iter().map(|r| r.overhead_reduction_pct).sum::<f64>() / vol.len() as f64;
    let rows: Vec<Vec<String>> = vol
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.batch.to_string(),
                format!("{:.0}", r.param_bytes_zero as f64 / 1e6),
                format!("{:.0}", r.param_bytes_red as f64 / 1e6),
                format!("{:.1}%", r.overhead_reduction_pct),
            ]
        })
        .collect();
    out +=
        &md_table(&["model", "batch", "param MB (zero)", "param MB (red)", "overhead cut"], &rows);
    let _ = writeln!(out, "\naverage exposed-overhead reduction: {avg:.1}% (paper: 93.7%)");
    out
}

/// Render a merged fault/recovery report (link-side error counters plus
/// session-side recovery counters) as one markdown section. The shape is
/// fixed — every counter always appears, zero or not — so reports from
/// different runs diff cleanly line-by-line.
pub fn fault_report_md(stats: &FaultStats, degraded: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Link fault & recovery report\n");
    if !stats.any() && degraded.is_empty() {
        let _ = writeln!(out, "No faults injected or observed (fault model off or clean run).\n");
    }
    let rows: Vec<Vec<String>> = [
        ("CRC errors (link)", stats.crc_errors),
        ("link retries", stats.retries),
        ("replay exhaustions", stats.replay_exhausted),
        ("transient stalls", stats.stalls),
        ("stall time (ns)", stats.stall_ns),
        ("replay time (ns)", stats.replay_ns),
        ("poisoned deliveries", stats.poisoned_lines),
        ("lines quarantined", stats.quarantined_lines),
        ("DBA checksum mismatches", stats.checksum_mismatches),
        ("full-line retries", stats.full_line_retries),
        ("regions degraded to baseline", stats.degraded_regions),
        ("fence timeouts", stats.fence_timeouts),
    ]
    .iter()
    .map(|(name, v)| vec![(*name).to_string(), v.to_string()])
    .collect();
    out += &md_table(&["counter", "count"], &rows);
    if !degraded.is_empty() {
        let _ = writeln!(out, "\ndegraded regions (in order): {}", degraded.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_table_shapes() {
        let t =
            md_table(&["a", "b"], &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
    }

    #[test]
    fn timing_report_contains_all_sections() {
        let rep = timing_report(&Calibration::paper());
        for needle in [
            "Table I",
            "Table IV",
            "Fig. 12",
            "Table VI",
            "invalidation vs update",
            "communication volume",
            "Bert-large-cased",
            "GPT2-11B",
            "OOM", // the T5@16 cell
        ] {
            assert!(rep.contains(needle), "report missing {needle:?}");
        }
        // Every markdown table is well-formed (same cell count per row).
        for block in rep.split("\n\n") {
            let rows: Vec<&str> = block.lines().filter(|l| l.starts_with('|')).collect();
            if rows.len() >= 2 {
                let cols = rows[0].matches('|').count();
                for r in &rows {
                    assert_eq!(r.matches('|').count(), cols, "ragged table: {r}");
                }
            }
        }
    }

    #[test]
    fn report_is_deterministic() {
        let cal = Calibration::paper();
        assert_eq!(timing_report(&cal), timing_report(&cal));
    }

    #[test]
    fn fault_report_fixed_shape() {
        // Zero and nonzero reports render the same table rows, so run
        // outputs diff cleanly; degraded regions append when present.
        let clean = fault_report_md(&FaultStats::default(), &[]);
        assert!(clean.contains("No faults injected"));
        let mut s = FaultStats { crc_errors: 3, retries: 7, ..FaultStats::default() };
        s.quarantined_lines = 1;
        let dirty = fault_report_md(&s, &["params".into(), "grads".into()]);
        assert!(!dirty.contains("No faults injected"));
        assert!(dirty.contains("| CRC errors (link) | 3 |"));
        assert!(dirty.contains("degraded regions (in order): params, grads"));
        let count = |r: &str| r.lines().filter(|l| l.starts_with('|')).count();
        assert_eq!(count(&clean), count(&dirty), "same table shape");
    }
}
