//! Design ablations and methodology checks: what TECO's choices buy as
//! the platform changes, the software baselines it competes with, and
//! whether the chunk-granular timing path matches a per-line replay.

use crate::{dump_json, f, header, row, Outcome};
use teco_cxl::{CxlConfig, CxlLink, Direction, PcieGen};
use teco_dl::ModelSpec;
use teco_mem::{Addr, ChunkedSweep, Hierarchy, SweepGen, LINE_BYTES};
use teco_offload::convergence::{run, ConvergenceConfig, DbaSchedule};
use teco_offload::{
    autotune, dpu_hiding_fraction, simulate_prefetch_step, simulate_step, simulate_teco_dba,
    simulate_zero_offload_dpu, sweep, Calibration, System,
};
use teco_sim::{Bandwidth, SerialServer, SimTime};

/// Design ablation: CPU optimizer speed vs DBA's value. TECO hides the
/// parameter stream behind the ADAM sweep; the faster the CPU, the less
/// there is to hide behind — and the more DBA's payload halving matters.
/// (This is the §V motivation seen from the other side: DBA is what keeps
/// TECO effective as CPU optimizers get faster.)
pub fn ablation_cpu_speed() -> Outcome {
    let bert = ModelSpec::bert_large();
    header("Ablation", "CPU optimizer speed vs DBA contribution (Bert-large, batch 4)");
    row(&[
        "CPU GB/s".into(),
        "adam ms".into(),
        "CXL exposed".into(),
        "Red exposed".into(),
        "DBA gain".into(),
    ]);
    let mut out = Vec::new();
    for gbps in [60.0f64, 120.0, 240.0, 480.0, 960.0] {
        let mut cal = Calibration::paper();
        cal.cpu_mem_bw = Bandwidth::from_gb_per_sec(gbps);
        let zero = simulate_step(&cal, &bert, 4, System::ZeroOffload);
        let cxl = simulate_step(&cal, &bert, 4, System::TecoCxl);
        let red = simulate_step(&cal, &bert, 4, System::TecoReduction);
        let dba_gain = 100.0 * (red.speedup_over(&zero) / cxl.speedup_over(&zero) - 1.0);
        row(&[
            f(gbps),
            f(cal.adam_time(&bert).as_millis_f64()),
            f(cxl.breakdown.param_transfer_exposed.as_millis_f64()),
            f(red.breakdown.param_transfer_exposed.as_millis_f64()),
            format!("{dba_gain:.1}%"),
        ]);
        out.push((gbps, dba_gain));
    }
    println!("\nas the CPU sweep accelerates, the update stream loses its overlap window");
    println!("and TECO-CXL's exposure grows — DBA's halved payload becomes the difference");
    println!("between hidden and exposed. The paper's 'up to 21%' DBA gain lives at the");
    println!("fast-CPU end of this curve.");
    dump_json("ablation_cpu_speed", &out);
    Outcome::default()
}

/// Design ablation: the `dirty_bytes` setting (§V-A fixes it at 2 for DL).
/// Sweeps 1–4 bytes, measuring both sides: the step-time speedup from the
/// smaller payload and the accuracy cost of the coarser truncation, on
/// real training.
pub fn ablation_dirty_bytes() -> Outcome {
    let cal = Calibration::paper();
    let t5 = ModelSpec::t5_large();
    let zero = simulate_step(&cal, &t5, 4, System::ZeroOffload);

    header("Ablation", "dirty_bytes sweep (T5-large timing + LM-proxy accuracy)");
    row(&["dirty".into(), "payload".into(), "speedup".into(), "perplexity".into()]);
    let steps = 300u64;
    let base = run(&ConvergenceConfig { steps, pretrain_steps: 100, ..Default::default() });
    // Each dirty-bytes setting is an independent (timing, convergence) run;
    // fan them across cores, results back in 1..=4 order.
    let settings: Vec<u8> = (1..=4).collect();
    let out = sweep(&settings, |_, &n| {
        let r = simulate_teco_dba(&cal, &t5, 4, n);
        let speedup = r.speedup_over(&zero);
        let conv = run(&ConvergenceConfig {
            steps,
            pretrain_steps: 100,
            dba: Some(DbaSchedule { act_aft_steps: 100, dirty_bytes: n }),
            ..Default::default()
        });
        (n, speedup, conv.final_metric)
    });
    for &(n, speedup, metric) in &out {
        row(&[n.to_string(), format!("{} B/line", 16 * n as u32), f(speedup), f(metric as f64)]);
    }
    println!("\nno-DBA perplexity: {:.2}", base.final_metric);
    println!("dirty_bytes=2 is the knee: near-max speedup at near-baseline accuracy,");
    println!("matching §V-A's choice ('the parameter-value change happens mostly in");
    println!("the least significant two bytes').");
    dump_json("ablation_dirty_bytes", &out);
    Outcome::default()
}

/// Design ablation: transfer granularity. §I identifies *coarse-grained
/// tensor transfer* as a root problem; this sweep varies how finely the
/// parameter stream is chunked (1 chunk = the bulk software copy ... many
/// chunks = cache-line-like streaming) and shows the exposed time shrink.
pub fn ablation_granularity() -> Outcome {
    let cal = Calibration::paper();
    let bert = ModelSpec::bert_large();
    let adam = cal.adam_time(&bert);
    let bytes = bert.param_bytes();

    header("Ablation", "Parameter-transfer granularity (Bert-large, CXL link)");
    row(&["chunks".into(), "exposed ms".into(), "hidden %".into()]);
    let bulk_exposed = cal.cxl_bw().transfer_time(bytes);
    // Each granularity point replays an independent link simulation.
    let points = [1usize, 2, 4, 8, 24, 96, 384];
    let results = sweep(&points, |_, &chunks| {
        let stream = ChunkedSweep {
            total_bytes: bytes,
            chunks,
            update_rate: cal.adam_param_production_rate(&bert),
            start: SimTime::ZERO,
        };
        let mut link = SerialServer::new(cal.cxl_bw());
        for c in stream.chunks() {
            link.submit(c.ready, c.bytes);
        }
        let exposed = link.next_free().saturating_sub(adam);
        let hidden = 100.0 * (1.0 - exposed.as_secs_f64() / bulk_exposed.as_secs_f64());
        (chunks, exposed.as_millis_f64(), hidden)
    });
    let mut out = Vec::new();
    for &(chunks, exposed_ms, hidden) in &results {
        row(&[chunks.to_string(), f(exposed_ms), f(hidden)]);
        out.push((chunks, exposed_ms));
    }
    println!("\nchunks=1 is the software bulk copy (fully exposed after ADAM);");
    println!("fine-grained streaming overlaps the ADAM sweep — the §IV-A2 point of");
    println!("decomposing transfers to cache-line granularity.");

    let zero = simulate_step(&cal, &bert, 4, System::ZeroOffload);
    let red = simulate_step(&cal, &bert, 4, System::TecoReduction);
    println!(
        "end-to-end: exposed param transfer {} (bulk) → {} (TECO-Reduction).",
        zero.breakdown.param_transfer_exposed, red.breakdown.param_transfer_exposed
    );
    dump_json("ablation_granularity", &out);
    Outcome::default()
}

/// Design ablation: does TECO still matter on faster links? Sweeps PCIe
/// 3.0/4.0/5.0 (§I notes even PCIe 5.0 transfers take ~10 ms per layer
/// group). The win shrinks with bandwidth but persists while CPU-side
/// optimizer time can hide streamed transfers.
pub fn ablation_pcie_gen() -> Outcome {
    header("Ablation", "PCIe generation sweep (Bert-large, batch 4)");
    row(&["link".into(), "GB/s".into(), "ZeRO ms".into(), "TECO-Red ms".into(), "speedup".into()]);
    let bert = ModelSpec::bert_large();
    let mut out = Vec::new();
    for (name, gen) in
        [("PCIe 3.0", PcieGen::Gen3), ("PCIe 4.0", PcieGen::Gen4), ("PCIe 5.0", PcieGen::Gen5)]
    {
        let mut cal = Calibration::paper();
        cal.cxl = CxlConfig { gen, ..CxlConfig::paper() };
        let zero = simulate_step(&cal, &bert, 4, System::ZeroOffload);
        let red = simulate_step(&cal, &bert, 4, System::TecoReduction);
        let s = red.speedup_over(&zero);
        row(&[
            name.into(),
            f(cal.pcie_bw().gb_per_sec()),
            f(zero.total.as_millis_f64()),
            f(red.total.as_millis_f64()),
            f(s),
        ]);
        out.push((name, s));
    }
    println!("\nTECO's advantage shrinks as raw bandwidth grows but does not vanish:");
    println!("the update protocol converts *any* exposed bulk copy into an overlapped");
    println!("stream, and DBA halves whatever remains.");
    dump_json("ablation_pcie_gen", &out);
    Outcome::default()
}

/// §V-A extension: Bayesian optimization of `act_aft_steps` ("can be tuned
/// using the Bayesian optimization"), implemented with a real GP+EI stack.
/// The objective balances the Fig. 13 trade-off: final perplexity plus a
/// time penalty proportional to the un-accelerated prefix of training.
pub fn autotune_act_steps() -> Outcome {
    let steps = 400u64;
    let cal = Calibration::paper();
    let gpt2 = ModelSpec::gpt2();
    let t_cxl = simulate_step(&cal, &gpt2, 4, System::TecoCxl).total.as_secs_f64();
    let t_red = simulate_step(&cal, &gpt2, 4, System::TecoReduction).total.as_secs_f64();

    // Objective: perplexity + λ · normalized training time.
    let lambda = 4.0;
    let domain: Vec<f64> = (0..=8).map(|i| (i * 50) as f64).collect();
    // The convergence run is the expensive part and BO only ever samples
    // domain points, so pre-evaluate the whole domain in parallel and let
    // the (sequential, deterministic) BO loop consult the memo — its
    // decisions and the recorded evaluations are unchanged.
    let memo = sweep(&domain, |_, &x| {
        let act = x.round() as u64;
        let r = run(&ConvergenceConfig {
            steps,
            pretrain_steps: 100,
            dba: Some(DbaSchedule { act_aft_steps: act, dirty_bytes: 2 }),
            ..Default::default()
        });
        (act, r.final_metric)
    });
    let mut evals = Vec::new();
    let mut objective = |x: f64| -> f64 {
        let act = x.round() as u64;
        let metric = memo
            .iter()
            .find(|(a, _)| *a == act)
            .map(|&(_, m)| m)
            .expect("BO samples only domain points");
        let time = act as f64 * t_cxl + (steps - act.min(steps)) as f64 * t_red;
        let norm_time = time / (steps as f64 * t_red);
        let score = metric as f64 + lambda * norm_time;
        evals.push((act, metric, norm_time, score));
        score
    };

    let result = autotune::minimize(&mut objective, &domain, 3, 5, 2024);

    header("Autotune", "Bayesian optimization of act_aft_steps (GPT-2 proxy)");
    row(&["act_after".into(), "perplexity".into(), "norm time".into(), "objective".into()]);
    evals.sort_by_key(|e| e.0);
    for (act, ppl, nt, score) in &evals {
        row(&[act.to_string(), f(*ppl as f64), f(*nt), f(*score)]);
    }
    println!(
        "\nBO chose act_aft_steps = {} (objective {:.3}) in {} evaluations of a {}-point domain.",
        result.best_x as u64,
        result.best_y,
        result.history.len(),
        domain.len()
    );
    println!("paper (§V-A): the default 500 'strikes a balance'; BO finds the knee automatically.");
    dump_json("autotune_act_steps", &evals);
    Outcome::default()
}

/// Extended baseline comparison: the §I/§II software alternatives —
/// layer-wise prefetching (SwapAdvisor/Sentinel class) and ZeRO-Offload's
/// own DPU — against TECO, across batch sizes.
pub fn baselines_comparison() -> Outcome {
    let cal = Calibration::paper();
    let bert = ModelSpec::bert_large();
    header("Baselines", "Step time (ms), Bert-large — software vs hardware hiding");
    row(&[
        "batch".into(),
        "ZeRO".into(),
        "+DPU".into(),
        "prefetch".into(),
        "TECO-CXL".into(),
        "TECO-Red".into(),
    ]);
    let mut out = Vec::new();
    for batch in [4u32, 8, 16, 20] {
        let zero = simulate_step(&cal, &bert, batch, System::ZeroOffload);
        let dpu = simulate_zero_offload_dpu(&cal, &bert, batch);
        let pre = simulate_prefetch_step(&cal, &bert, batch);
        let cxl = simulate_step(&cal, &bert, batch, System::TecoCxl);
        let red = simulate_step(&cal, &bert, batch, System::TecoReduction);
        row(&[
            batch.to_string(),
            f(zero.total.as_millis_f64()),
            f(dpu.total.as_millis_f64()),
            f(pre.total.as_millis_f64()),
            f(cxl.total.as_millis_f64()),
            f(red.total.as_millis_f64()),
        ]);
        out.push((
            batch,
            zero.total.as_millis_f64(),
            dpu.total.as_millis_f64(),
            pre.total.as_millis_f64(),
            red.total.as_millis_f64(),
        ));
    }
    println!(
        "\nDPU hides {:.0}% of the parameter transfer at batch 4 but {:.0}% at batch 20",
        100.0 * dpu_hiding_fraction(&cal, &bert, 4),
        100.0 * dpu_hiding_fraction(&cal, &bert, 20)
    );
    println!("(§II-A: 'requires significantly large batch sizes'); prefetching is bounded");
    println!("by per-layer transfer:compute ratios; TECO needs neither large batches nor");
    println!("convergence-affecting staleness.");
    dump_json("baselines_comparison", &out);
    Outcome::default()
}

/// Methodology validation: the paper's gem5 flow collects a cache-hierarchy
/// *writeback trace* and replays it through the CXL emulator. We do the
/// same at reduced scale — drive a real vectorized-ADAM access sweep
/// through the Table II cache hierarchy, replay the resulting per-line
/// writebacks one transfer each through the [`CxlLink`] every session
/// charges (serial wire behind the 128-entry pending queue) — and compare
/// the exposed transfer time against the chunk-granular fast path the big
/// simulations use.
pub fn trace_replay_validation() -> Outcome {
    let cal = Calibration::paper();
    let cfg = CxlConfig::paper();
    header("Validation", "Per-line trace replay vs chunked fast path");
    row(&[
        "region MB".into(),
        "lines".into(),
        "trace drain ms".into(),
        "chunk drain ms".into(),
        "err %".into(),
    ]);
    let mut out = Vec::new();
    for mb in [8u64, 32, 128, 256] {
        let bytes = mb << 20;
        // Per-line path: ADAM sweep through the gem5 hierarchy → writeback
        // trace → one link transfer per line.
        let mut h = Hierarchy::gem5();
        // ADAM touches `adam_bytes_per_param` per 4-byte parameter; the
        // sweep's line-store rate is cpu_mem_bw scaled to the parameter-byte
        // share.
        let rate = cal.cpu_mem_bw.scaled(4.0 / cal.adam_bytes_per_param as f64);
        let sweep = SweepGen { base: Addr(0), bytes, update_rate: rate, start: SimTime::ZERO };
        let trace = sweep.writeback_trace(&mut h);
        let mut replay = CxlLink::new(cfg);
        for w in &trace.events {
            replay.transfer_simple(Direction::ToDevice, w.time, LINE_BYTES as u64);
        }
        let drain = replay.drained_at(Direction::ToDevice);

        // Chunked fast path at the same production rate.
        let chunked = ChunkedSweep {
            total_bytes: bytes,
            chunks: 48,
            update_rate: rate,
            start: SimTime::ZERO,
        };
        let mut link = SerialServer::new(cfg.cxl_bandwidth());
        for c in chunked.chunks() {
            link.submit(c.ready, c.bytes);
        }
        let fast = link.next_free();
        let err = 100.0 * (drain.as_secs_f64() - fast.as_secs_f64()).abs() / fast.as_secs_f64();
        row(&[
            mb.to_string(),
            trace.len().to_string(),
            f(drain.as_millis_f64()),
            f(fast.as_millis_f64()),
            f(err),
        ]);
        out.push((mb, drain.as_millis_f64(), fast.as_millis_f64(), err));
    }
    println!("\nthe error is the end-of-iteration flush tail: lines still resident in the");
    println!("16 MB L3 when the sweep ends can only drain afterwards (the paper's");
    println!("once-per-iteration flush, §IV-A2). For tensor regions >> L3 — every Table III");
    println!("model — the tail vanishes and the chunk-granular fast path matches the");
    println!("per-line DES replay, justifying its use at billion-parameter scale");
    println!("(a 737M-parameter sweep is ~46M lines).");
    dump_json("trace_replay_validation", &out);
    Outcome::default()
}
