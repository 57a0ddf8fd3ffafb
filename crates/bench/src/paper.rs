//! The paper's tables and figures, one entry function each.
//!
//! Each prints its table to stdout and writes its rows under
//! `bench_results/`. `table1_comm_overhead` also returns the REPORT.md
//! timing report, and `api_overhead` the snoop-filter section.

use crate::report::snoop_section;
use crate::{dump_json, f, header, pct, row, Outcome};
use teco_compress::{compress, compression_ratio, Lz4Throughput, ZeroQuantCost};
use teco_cxl::{full_directory_bytes, CxlConfig};
use teco_dl::{ModelKind, ModelSpec};
use teco_md::{position_dba_applicability, sec7_experiment, LjSystem, MdTiming};
use teco_mem::dram::{read_modify_write_trace, write_only_trace, Dram, DramConfig};
use teco_mem::Addr;
use teco_offload::convergence::{run, ConvergenceConfig, DbaSchedule, Task};
use teco_offload::{
    experiments, simulate_step, timing_report, Calibration, DatacenterModel, System,
};
use teco_sim::SimRng;

/// Table I: percentage of ZeRO-Offload training time spent in exposed
/// communication, Bert-large, batch sizes {4, 8, 16, 20}.
///
/// Returns REPORT.md's timing report (Table I, Fig. 11 / Table IV,
/// Fig. 12, Table VI and the §IV-A2 ablation) and the blank line that
/// separates it from the sections after it.
pub fn table1_comm_overhead() -> Outcome {
    let cal = Calibration::paper();
    let rows = experiments::table1(&cal);
    header("Table I", "Communication share of ZeRO-Offload training time (Bert-large)");
    row(&["batch".into(), "measured".into(), "paper".into(), "abs err".into()]);
    for r in &rows {
        row(&[
            r.batch.to_string(),
            pct(r.measured_pct),
            pct(r.paper_pct),
            f((r.measured_pct - r.paper_pct).abs()),
        ]);
    }
    dump_json("table1_comm_overhead", &rows);
    Outcome::section(timing_report(&cal) + "\n")
}

/// Fig. 2: distribution of value-changed bytes in parameters (a) and
/// gradients (b) across consecutive training steps, measured on a *real*
/// fine-tuning run of the small LM.
pub fn fig2_value_changes() -> Outcome {
    // Fine-tuning regime: converge first, then profile *consecutive*
    // steps late in training under a decayed learning rate — the setting
    // of §III (a pre-trained Bert fine-tuned to convergence).
    let cfg = ConvergenceConfig {
        task: Task::LanguageModel,
        steps: 600,
        profile_every: 1,
        profile_after: 450,
        lr: 2e-3,
        lr_end: Some(3e-6),
        ..Default::default()
    };
    let r = run(&cfg);
    header("Fig 2(a)", "Value-changed bytes in PARAMETERS across consecutive steps");
    row(&[
        "step".into(),
        "last byte".into(),
        "last 2 bytes".into(),
        "other".into(),
        "unchanged".into(),
    ]);
    for (i, s) in r.param_profile.iter().enumerate().step_by(10) {
        let ch = s.changed().max(1) as f64;
        row(&[
            (451 + i).to_string(),
            pct(100.0 * s.last_byte as f64 / ch),
            pct(100.0 * s.last_two as f64 / ch),
            pct(100.0 * s.other as f64 / ch),
            pct(100.0 * s.frac_unchanged()),
        ]);
    }
    let mut agg = teco_dl::ByteChangeStats::default();
    for s in &r.param_profile {
        agg.merge(s);
    }
    let last = r.param_profile.last().unwrap();
    println!(
        "\nparams (aggregate over the profiled window): {:.1}% of changed words fit the",
        100.0 * agg.frac_low_two_of_changed()
    );
    println!(
        "low TWO bytes (the dirty_bytes=2 target); {:.1}% near convergence — the paper's",
        100.0 * last.frac_low_two_of_changed()
    );
    println!("~80% (case 1) + case 2 union. The trend matches §III: 'the first two cases");
    println!("become more common when the training is close to converge'.");
    println!(
        "split note: our case-1 ({:.1}%) vs case-2 share differs from the paper's because",
        100.0 * agg.frac_last_byte_of_changed()
    );
    println!(
        "the proxy model's parameter magnitudes are smaller than Bert's (see EXPERIMENTS.md)."
    );

    header("Fig 2(b)", "Value-changed bytes in GRADIENTS across consecutive steps");
    let mut gagg = teco_dl::ByteChangeStats::default();
    for s in &r.grad_profile {
        gagg.merge(s);
    }
    println!(
        "grads: only {:.1}% of changed words fit the low two bytes — 'all bytes in gradients frequently change' → DBA not applied to gradients.",
        100.0 * gagg.frac_low_two_of_changed()
    );
    dump_json("fig2_value_changes", &(&r.param_profile, &r.grad_profile));
    Outcome::default()
}

/// Fig. 10: training-loss curves with and without TECO-Reduction (DBA).
/// The paper shows GPT-2 and ALBERT; we train the LM proxy and the
/// classification proxy.
pub fn fig10_loss_curves() -> Outcome {
    let steps = 400u64;
    for (label, task, lr) in [
        ("GPT-2 proxy (LM)", Task::LanguageModel, 2e-3f32),
        ("Albert proxy (classification)", Task::Classification, 5e-3),
    ] {
        let base = run(&ConvergenceConfig { task, steps, lr, ..Default::default() });
        let teco = run(&ConvergenceConfig {
            task,
            steps,
            lr,
            dba: Some(DbaSchedule { act_aft_steps: steps / 3, dirty_bytes: 2 }),
            ..Default::default()
        });
        header("Fig 10", &format!("Training loss, {label} (every 25th step)"));
        println!("{:>6} {:>12} {:>16}", "step", "original", "TECO-Reduction");
        for i in (0..steps as usize).step_by(25) {
            println!("{:>6} {:>12.4} {:>16.4}", i, base.losses[i], teco.losses[i]);
        }
        println!(
            "final {}: original {:.3} vs TECO-Reduction {:.3}",
            base.metric_name, base.final_metric, teco.final_metric
        );
        dump_json(
            &format!("fig10_loss_{}", if task == Task::LanguageModel { "lm" } else { "cls" }),
            &(&base.losses, &teco.losses),
        );
    }
    println!("\npaper: 'the training loss curves show the similar trend and we use the");
    println!("same number of steps to reach convergence. The impact on the convergence is minor.'");
    Outcome::default()
}

/// Fig. 11 + Table IV: training-step speedup of TECO-CXL and
/// TECO-Reduction over ZeRO-Offload for every Table III model and batch
/// size (T5-large at batch 16 OOMs, as in the paper).
pub fn fig11_speedup() -> Outcome {
    let cal = Calibration::paper();
    let cells = experiments::fig11_table4(&cal);
    header("Fig 11 / Table IV", "Speedup over ZeRO-Offload");
    row(&[
        "model".into(),
        "batch".into(),
        "TECO-CXL".into(),
        "TECO-Red".into(),
        "paper(Red)".into(),
    ]);
    for c in &cells {
        row(&[
            c.model.clone(),
            c.batch.to_string(),
            if c.oom { "OOM".into() } else { f(c.teco_cxl) },
            if c.oom { "OOM".into() } else { f(c.teco_reduction) },
            c.paper_reduction.map(f).unwrap_or_else(|| "-".into()),
        ]);
    }
    let measured: Vec<f64> = cells.iter().filter(|c| !c.oom).map(|c| c.teco_reduction).collect();
    let avg_saving =
        100.0 * (1.0 - measured.iter().map(|s| 1.0 / s).sum::<f64>() / measured.len() as f64);
    println!("\naverage training-time reduction: {avg_saving:.1}% (paper: 33.7%, up to 55.4%)");
    let max_saving = 100.0 * (1.0 - 1.0 / measured.iter().fold(0.0f64, |a, &b| a.max(b)));
    println!("maximum training-time reduction: {max_saving:.1}%");
    dump_json("fig11_table4_speedup", &cells);
    Outcome::default()
}

/// Fig. 12: per-phase time breakdown (T5-large) across ZeRO-Offload,
/// TECO-CXL, and TECO-Reduction for several batch sizes.
pub fn fig12_breakdown() -> Outcome {
    let cal = Calibration::paper();
    let rows = experiments::fig12_breakdown(&cal);
    header("Fig 12", "Time breakdown, T5-large (ms)");
    row(&[
        "system".into(),
        "batch".into(),
        "fwd+bwd".into(),
        "grad xfer".into(),
        "grad opt".into(),
        "adam".into(),
        "param xfer".into(),
        "fence".into(),
        "total".into(),
    ]);
    for r in &rows {
        row(&[
            r.system.into(),
            r.batch.to_string(),
            f(r.fwd_bwd_ms),
            f(r.grad_xfer_ms),
            f(r.clip_ms),
            f(r.adam_ms),
            f(r.param_xfer_ms),
            f(r.fence_ms),
            f(r.total_ms),
        ]);
    }
    println!("\npaper shape: TECO hides >=69% of exposed gradient transfer at batch<8,");
    println!("all of it at batch 8; TECO-CXL cuts exposed param transfer ~76% at batch 4;");
    println!("with DBA the parameter transfer is completely hidden.");
    dump_json("fig12_breakdown", &rows);
    Outcome::default()
}

/// Fig. 13: sweeping `act_aft_steps` — accuracy (perplexity proxy) vs.
/// speedup. Early activation wins more time but costs accuracy; the paper
/// picks step 500 of 1775 as the balance point.
pub fn fig13_dba_activation() -> Outcome {
    let steps = 500u64;
    let cal = Calibration::paper();
    let gpt2 = ModelSpec::gpt2();
    // Per-step times: before DBA activation a step runs TECO-CXL, after it
    // TECO-Reduction; the baseline is ZeRO-Offload throughout.
    let t_zero = simulate_step(&cal, &gpt2, 4, System::ZeroOffload).total.as_secs_f64();
    let t_cxl = simulate_step(&cal, &gpt2, 4, System::TecoCxl).total.as_secs_f64();
    let t_red = simulate_step(&cal, &gpt2, 4, System::TecoReduction).total.as_secs_f64();

    header("Fig 13", "DBA activation-point sweep (GPT-2 proxy; paper knee at 500/1775 steps)");
    row(&["act_after".into(), "perplexity".into(), "speedup".into()]);
    // Fine-tune from a "pre-trained checkpoint" (120 exact warmup steps).
    let baseline = run(&ConvergenceConfig { steps, pretrain_steps: 120, ..Default::default() });
    let mut rows = Vec::new();
    for act in [0u64, 50, 125, 250, 375, 500] {
        let r = if act >= steps {
            None
        } else {
            Some(run(&ConvergenceConfig {
                steps,
                pretrain_steps: 120,
                dba: Some(DbaSchedule { act_aft_steps: act, dirty_bytes: 2 }),
                ..Default::default()
            }))
        };
        let ppl = r.as_ref().map(|r| r.final_metric).unwrap_or(baseline.final_metric);
        let time = act as f64 * t_cxl + (steps - act.min(steps)) as f64 * t_red;
        let speedup = steps as f64 * t_zero / time;
        row(&[act.to_string(), f(ppl as f64), f(speedup)]);
        rows.push((act, ppl, speedup));
    }
    println!("\nno-DBA perplexity: {:.2}", baseline.final_metric);
    println!("paper: accuracy 22.50→21.21 across activation points, speedup 1.63→1.15;");
    println!("activating at the default point balances both.");
    dump_json("fig13_dba_activation", &rows);
    Outcome::default()
}

/// Table V: final model accuracy, original vs. TECO-Reduction, across the
/// proxy tasks (real training with the bit-exact DBA merge applied after
/// act_aft_steps).
pub fn table5_accuracy() -> Outcome {
    header("Table V", "Final model metric: original vs TECO-Reduction");
    row(&["task".into(), "metric".into(), "original".into(), "TECO-Red".into()]);
    let mut out = Vec::new();
    for (label, task, steps, lr) in [
        ("GPT-2 proxy", Task::LanguageModel, 450u64, 2e-3f32),
        ("T5 proxy", Task::Seq2Seq, 350, 3e-3),
        ("Bert proxy", Task::Classification, 300, 5e-3),
        ("GCNII node-cls proxy", Task::Gcn, 300, 5e-3),
        ("GCNII link-pred proxy", Task::LinkPrediction, 300, 5e-3),
    ] {
        let base =
            run(&ConvergenceConfig { task, steps, lr, pretrain_steps: 60, ..Default::default() });
        let teco = run(&ConvergenceConfig {
            task,
            steps,
            lr,
            pretrain_steps: 60,
            dba: Some(DbaSchedule { act_aft_steps: steps / 3, dirty_bytes: 2 }),
            ..Default::default()
        });
        row(&[
            label.into(),
            base.metric_name.into(),
            format!("{:.3}", base.final_metric),
            format!("{:.3}", teco.final_metric),
        ]);
        out.push((label, base.metric_name, base.final_metric, teco.final_metric));
    }
    println!("\npaper (Table V): GPT-2 perplexity 21.05→21.54; Albert F1 84.38→83.69;");
    println!("Bert accuracy 93.13→91.99; T5 gen-len 22.95→21.11 — 'small impact on accuracy'.");
    dump_json("table5_accuracy", &out);
    Outcome::default()
}

/// Table VI: impact of model size (GPT-2 → 11B) on TECO effectiveness.
pub fn table6_model_size() -> Outcome {
    let cal = Calibration::paper();
    let rows = experiments::table6(&cal);
    header("Table VI", "Model-size sensitivity (batch 4, speedup over ZeRO-Offload)");
    row(&["model".into(), "TECO-CXL".into(), "paper".into(), "TECO-Red".into(), "paper".into()]);
    for r in &rows {
        row(&[r.model.clone(), f(r.teco_cxl), f(r.paper.0), f(r.teco_reduction), f(r.paper.1)]);
    }
    dump_json("table6_model_size", &rows);
    Outcome::default()
}

/// Table VII: training time of ZeRO-Quant (lossy INT8 compression with a
/// full-precision teacher) vs TECO-Reduction on a Bert-base-sized model.
/// Paper: 5.8 h vs 2.03 h (≈2.86×).
pub fn table7_zeroquant() -> Outcome {
    let cal = Calibration::paper();
    // Bert-base-uncased: 110M parameters, 12 layers, hidden 768.
    let bert_base = ModelSpec {
        name: "Bert-base-uncased",
        kind: ModelKind::TransformerEncoder,
        params: 110_000_000,
        layers: 12,
        hidden: 768,
        heads: 12,
        giant_cache_mb: 270,
        seq_len: 128,
        attention_intensity: 1.0,
        act_bytes_per_token: 2_500_000,
    };
    let steps_to_converge = 36_800u64; // ~3 epochs of GLUE-MNLI at batch 32

    let teco = simulate_step(&cal, &bert_base, 8, System::TecoReduction);
    // ZeRO-Quant: a ZeRO-Offload-style schedule (its INT8 weights shrink
    // the transfer 4x, but the teacher forward + distillation + quant
    // kernels inflate compute).
    let zero = simulate_step(&cal, &bert_base, 8, System::ZeroOffload);
    let zq_cost = ZeroQuantCost::default();
    let mut zq_step = zero.total.as_secs_f64();
    // INT8 weights: parameter transfer shrinks to about a quarter.
    zq_step -= zero.breakdown.param_transfer_exposed.as_secs_f64() * 0.75;
    zq_step *= zq_cost.step_multiplier();

    let teco_hours = teco.total.as_secs_f64() * steps_to_converge as f64 / 3600.0;
    let zq_hours = zq_step * steps_to_converge as f64 / 3600.0;

    header("Table VII", "Training time, GLUE-MNLI-scale fine-tune of Bert-base");
    row(&["system".into(), "hours".into(), "paper".into()]);
    row(&["Zero-Quant".into(), f(zq_hours), f(5.8)]);
    row(&["TECO-Reduction".into(), f(teco_hours), f(2.03)]);
    println!(
        "\nratio: {:.2}x (paper: 2.86x) — the teacher model makes lossy compression far slower than DBA",
        zq_hours / teco_hours
    );
    dump_json("table7_zeroquant", &[("Zero-Quant", zq_hours), ("TECO-Reduction", teco_hours)]);
    Outcome::default()
}

/// Table VIII: lossless compression (LZ4) of parameter transfers —
/// measured compression ratios on model-like parameter streams using the
/// real from-scratch codec, and the resulting normalized training time.
/// Paper ratios: GPT2 5%, Albert 0%, Bert 0%, T5 36%; normalized times
/// 4.51 / 1.95 / 3.03 / 2.04 (≥ ~2× TECO).
pub fn table8_lz4() -> Outcome {
    let cal = Calibration::paper();
    let codec = Lz4Throughput::default();
    let mut rng = SimRng::seed_from_u64(8);
    // Exact-zero fractions matching each model's measured compressibility.
    let cases = [
        ("GPT2", ModelSpec::gpt2(), 0.065, 0.05, 4.51),
        ("Albert-xxlarge-v1", ModelSpec::albert_xxlarge(), 0.0, 0.0, 1.95),
        ("Bert-large", ModelSpec::bert_large(), 0.0, 0.0, 3.03),
        ("T5-large", ModelSpec::t5_large(), 0.42, 0.36, 2.04),
    ];
    header("Table VIII", "Lossless LZ4 on parameter transfers");
    row(&[
        "model".into(),
        "ratio".into(),
        "paper ratio".into(),
        "norm time".into(),
        "paper".into(),
    ]);
    let mut out = Vec::new();
    for (name, spec, zero_frac, paper_ratio, paper_norm) in cases {
        // Measure the ratio with the real codec on a 2M-param sample.
        let sample = param_stream(zero_frac, 2_000_000, &mut rng);
        let ratio = compression_ratio(sample.len(), compress(&sample).len());

        // Normalized training time: a ZeRO-Offload step whose parameter
        // transfer goes through compress→link→decompress, vs TECO-Reduction.
        let zero = simulate_step(&cal, &spec, 4, System::ZeroOffload);
        let red = simulate_step(&cal, &spec, 4, System::TecoReduction);
        let pipeline =
            codec.pipeline_seconds(spec.param_bytes(), ratio, cal.pcie_bw().bytes_per_sec());
        let lz4_total = zero.total.as_secs_f64()
            - zero.breakdown.param_transfer_exposed.as_secs_f64()
            + pipeline;
        let norm = lz4_total / red.total.as_secs_f64();
        row(&[name.into(), pct(100.0 * ratio), pct(100.0 * paper_ratio), f(norm), f(paper_norm)]);
        out.push((name, ratio, norm));
    }
    println!("\npaper conclusion: 'compression and decompression incur large performance");
    println!("overhead (at least 2x)' — replacing DBA with lossless compression is impractical.");
    dump_json("table8_lz4", &out);
    Outcome::default()
}

/// §IV-A2 ablation: cost of stock invalidation-based MESI vs. TECO's
/// update protocol (paper: +56.6% average, up to +99.7%).
pub fn ablation_inval_vs_update() -> Outcome {
    let cal = Calibration::paper();
    let rows = experiments::ablation_inval_vs_update(&cal);
    header("Ablation", "Invalidation protocol vs update protocol (step-time increase)");
    row(&["model".into(), "penalty".into()]);
    for r in &rows {
        row(&[r.model.clone(), pct(r.penalty_pct)]);
    }
    let avg = rows.iter().map(|r| r.penalty_pct).sum::<f64>() / rows.len() as f64;
    println!("\naverage: +{avg:.1}% (paper: +56.6% average, up to +99.7%)");
    dump_json("ablation_inval_vs_update", &rows);
    Outcome::default()
}

/// §VIII-C: communication volume (DBA halves parameter bytes, never
/// touches gradients) and exposed-communication-overhead reduction
/// (paper: 93.7% on average, up to 100%).
pub fn volume_and_overhead() -> Outcome {
    let cal = Calibration::paper();
    let rows = experiments::volume_summary(&cal);
    header("§VIII-C", "Communication volume & exposed-overhead reduction");
    row(&[
        "model".into(),
        "batch".into(),
        "param MB (zero)".into(),
        "param MB (red)".into(),
        "grad MB".into(),
        "overhead cut".into(),
    ]);
    for r in &rows {
        row(&[
            r.model.clone(),
            r.batch.to_string(),
            format!("{:.0}", r.param_bytes_zero as f64 / 1e6),
            format!("{:.0}", r.param_bytes_red as f64 / 1e6),
            format!("{:.0}", r.grad_bytes as f64 / 1e6),
            pct(r.overhead_reduction_pct),
        ]);
    }
    let avg = rows.iter().map(|r| r.overhead_reduction_pct).sum::<f64>() / rows.len() as f64;
    println!("\naverage exposed-overhead reduction: {avg:.1}% (paper: 93.7% avg, up to 100%)");
    dump_json("volume_and_overhead", &rows);
    Outcome::default()
}

/// §VIII-C cost analysis: the "$900K per year" datacenter arithmetic,
/// re-derived from the measured speedups.
pub fn cost_savings() -> Outcome {
    let cal = Calibration::paper();
    let dc = DatacenterModel::paper();
    header("§VIII-C", "Datacenter cost savings (256 A100s, p4de.24xlarge pricing)");
    println!("annual fleet bill: ${:.2}M", dc.annual_fleet_bill() / 1e6);
    println!(
        "paper's arithmetic: 7% training-time saving → ${:.0}K/yr (paper: ~$900K)\n",
        dc.annual_savings(0.07) / 1e3
    );

    // Re-derive from measured per-model savings.
    let cells = experiments::fig11_table4(&cal);
    row(&["model".into(), "batch".into(), "time saved".into(), "$K/yr (fleet)".into()]);
    let mut out = Vec::new();
    for c in cells.iter().filter(|c| !c.oom) {
        let saving = 1.0 - 1.0 / c.teco_reduction;
        let dollars = dc.annual_savings(saving) / 1e3;
        row(&[c.model.clone(), c.batch.to_string(), format!("{:.1}%", 100.0 * saving), f(dollars)]);
        out.push((c.model.clone(), c.batch, saving, dollars));
    }
    let avg = out.iter().map(|o| o.2).sum::<f64>() / out.len() as f64;
    println!(
        "\nat the measured average saving ({:.1}%), the fleet-bill interpretation",
        100.0 * avg
    );
    println!(
        "yields ${:.2}M/yr; the conservative utilization-weighted figure is ${:.0}K/yr.",
        dc.annual_savings(avg) / 1e6,
        dc.annual_savings_training_only(avg) / 1e3
    );
    dump_json("cost_savings", &out);
    Outcome::default()
}

/// §VII generality: TECO applied to the Lennard-Jones melt (LAMMPS
/// substitute). Paper: transfers 27% of app time; TECO +21.5%; volume
/// −17%; CXL:DBA contribution ≈ 78:22. Also validates, on the *real*
/// trajectory, that per-step position changes fit DBA's low-two-bytes.
pub fn sec7_lammps() -> Outcome {
    let t = MdTiming::paper();
    let r = sec7_experiment(&t, 32_000);
    header("§VII", "TECO on the 3D Lennard-Jones melt (32k atoms)");
    row(&["metric".into(), "measured".into(), "paper".into()]);
    row(&["transfer share".into(), pct(r.baseline_transfer_pct), pct(27.0)]);
    row(&["improvement".into(), pct(r.improvement_pct), pct(21.5)]);
    row(&["volume cut (DBA)".into(), pct(r.volume_reduction_pct), pct(17.0)]);
    row(&["CXL contribution".into(), pct(r.cxl_contribution_pct), pct(78.0)]);
    row(&["DBA contribution".into(), pct(r.dba_contribution_pct), pct(22.0)]);

    // Real-trajectory DBA applicability.
    let mut rng = SimRng::seed_from_u64(3);
    let mut sys = LjSystem::fcc_melt(4, 0.8442, 1.44, 0.001, &mut rng);
    for _ in 0..30 {
        sys.step(); // pass the violent initial melt
    }
    let frac = position_dba_applicability(&mut sys, 20);
    println!(
        "\nmeasured on the live trajectory ({} atoms): {:.1}% of per-step position\nword-changes fit in the low two bytes → positions are DBA-friendly, forces are not.",
        sys.n(),
        100.0 * frac
    );
    dump_json("sec7_lammps", &r);
    Outcome::default()
}

/// §VIII-D: Aggregator/Disaggregator hardware overhead and the
/// Disaggregator's extra DRAM read. The ns-scale logic latency amortizes
/// behind the ~4 ns/line link; the read-modify-write traffic inflates DRAM
/// cycles (paper: 2.48× sequential, 1.9× shuffled) yet stays invisible
/// because GDDR bandwidth dwarfs PCIe.
pub fn overhead_analysis() -> Outcome {
    let cfg = CxlConfig::paper();
    header("§VIII-D", "DBA hardware overhead");
    let line_time = cfg.cxl_bandwidth().transfer_time(64);
    println!("CXL line time: {line_time} (paper: ~4 ns/line)");
    println!("Aggregator latency: {} (synthesized 1.28 ns, modeled 1 ns)", cfg.aggregator_latency);
    println!("Disaggregator latency: {} (synthesized 1.126 ns)", cfg.disaggregator_latency);
    println!("→ pipelined behind the link: per-line overhead amortized to ~0.\n");

    let n = 65_536u64;
    let seq: Vec<Addr> = (0..n).map(|i| Addr(i * 64)).collect();
    let mut rng = SimRng::seed_from_u64(5);
    let mut shuf = seq.clone();
    rng.shuffle(&mut shuf);
    let gddr = DramConfig::gddr5();

    row(&[
        "access order".into(),
        "W-only cyc".into(),
        "R+W cyc".into(),
        "inflation".into(),
        "paper".into(),
    ]);
    let mut results = Vec::new();
    for (label, addrs, paper) in [("sequential", &seq, 2.48), ("shuffled", &shuf, 1.9)] {
        let w = Dram::replay(gddr, write_only_trace(addrs));
        let rmw = Dram::replay(gddr, read_modify_write_trace(addrs));
        let infl = rmw.cycles as f64 / w.cycles as f64;
        row(&[label.into(), w.cycles.to_string(), rmw.cycles.to_string(), f(infl), f(paper)]);
        results.push((label, infl));
    }
    println!("\nGDDR5 total ~900 GB/s vs PCIe 3.0 16 GB/s: the extra read stream uses");
    println!("<4% of DRAM bandwidth → no perceivable end-to-end overhead (paper's conclusion).");
    dump_json("overhead_analysis", &results);
    Outcome::default()
}

/// §VI: the user-facing API costs. CXLFENCE is called exactly twice per
/// step and takes <1% of step time; the snoop filter the giant cache would
/// have needed (and update mode avoids) is quantified.
///
/// Returns REPORT.md's snoop-filter section: the directory's occupancy
/// after an invalidation-mode push, the mode that needs it.
pub fn api_overhead() -> Outcome {
    let cal = Calibration::paper();
    header("§VI / §IV-A2", "API and fence overhead");
    row(&["model".into(), "batch".into(), "fence".into(), "step".into(), "share".into()]);
    let mut out = Vec::new();
    for spec in ModelSpec::table3() {
        let batch = if spec.name == "GCNII" { 1 } else { 4 };
        let r = simulate_step(&cal, &spec, batch, System::TecoReduction);
        let share = 100.0 * r.breakdown.fence.as_secs_f64() / r.total.as_secs_f64();
        row(&[
            spec.name.into(),
            batch.to_string(),
            r.breakdown.fence.to_string(),
            r.total.to_string(),
            pct(share),
        ]);
        out.push((spec.name, share));
    }
    println!("\npaper: CXLFENCE (built on cudaDeviceSynchronize) takes <1% of training time.");

    println!("\nSnoop-filter savings of the update protocol (directory the giant cache avoids):");
    row(&["model".into(), "giant cache MB".into(), "directory MB".into()]);
    for spec in ModelSpec::table3() {
        let dir = full_directory_bytes(spec.giant_cache_bytes());
        row(&[spec.name.into(), spec.giant_cache_mb.to_string(), f(dir as f64 / (1 << 20) as f64)]);
    }
    dump_json("api_overhead", &out);
    Outcome::section(snoop_section())
}

/// Synthesize a parameter byte stream with a model-specific exact-zero
/// fraction (pruned/padding weights compress; live mantissas don't).
fn param_stream(zero_frac: f64, n_params: usize, rng: &mut SimRng) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(n_params * 4);
    for _ in 0..n_params {
        let v = if rng.bernoulli(zero_frac) { 0f32 } else { rng.normal(0.0, 0.02) as f32 };
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}
