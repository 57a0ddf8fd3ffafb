//! The repository's end-to-end benchmark: three training-step workloads
//! driven through the public `teco-core`, `teco-cxl` and `teco-sim` calls,
//! timed on the host clock, measured on the simulated clock, and checked
//! against independent oracles. `README.md` beside this crate says why
//! each workload exists and which layer metric should move which
//! end-to-end metric.

pub mod gen;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{build, Checks, Totals, Workload, NAMES};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// The fixed window of timed steps the simulated metrics and per-layer
/// counts cover, so they repeat exactly for a seed whatever the host does.
pub const SIM_STEPS: u64 = 100;
/// Steps per block of the block-median `steps_per_s`.
pub const BLOCK_STEPS: usize = 50;
/// Spans written to the trace file at most.
const MAX_TRACE_EVENTS: usize = 50_000;

/// End-to-end metrics (trace off), in output order: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("sim_step_us", "sim_us"),
    ("wire_mb_per_step", "MB"),
    ("peak_rss_mb", "MB"),
    ("op_success_rate", "ratio"),
];

/// Per-layer metrics (trace on), in output order: name and unit. Host
/// times are per step (snapshot times per checkpoint); counts and
/// simulated times (`sim_us`) are per step over the fixed window.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.session.push_grads_ms", "ms"),
    ("core.session.push_params_ms", "ms"),
    ("core.session.fence_us", "us"),
    ("core.session.activation_us", "us"),
    ("core.session.lines", "count"),
    ("core.placement.side_write_ms", "ms"),
    ("core.placement.migrations", "count"),
    ("core.placement.migrated_mb", "MB"),
    ("core.placement.pool_mb", "MB"),
    ("core.placement.migration_us", "sim_us"),
    ("core.cluster.grad_phase_ms", "ms"),
    ("core.cluster.stage_us", "us"),
    ("core.cluster.activation_us", "us"),
    ("core.cluster.draw_us", "us"),
    ("core.cluster.broadcast_ms", "ms"),
    ("cxl.link.bytes", "B"),
    ("cxl.link.busy_us", "sim_us"),
    ("cxl.dba.payload_ratio", "ratio"),
    ("cxl.dba.param_wire_bytes", "B"),
    ("cxl.dba.param_raw_bytes", "B"),
    ("cxl.coherence.msgs", "count"),
    ("cxl.fence.wait_us", "sim_us"),
    ("cxl.fault.transfers", "count"),
    ("cxl.fault.retries", "count"),
    ("cxl.fault.full_line_retries", "count"),
    ("cxl.fault.replay_us", "sim_us"),
    ("cxl.fault.replay_exhausted", "count"),
    ("cxl.arbiter.wait_us", "sim_us"),
    ("cxl.arbiter.fanout_saved_mb", "MB"),
    ("cxl.collective.all_reduce_ms", "ms"),
    ("cxl.collective.exchange_us", "sim_us"),
    ("cxl.collective.port_mb", "MB"),
    ("cxl.collective.media_mb", "MB"),
    ("sim.snapshot.capture_ms", "ms"),
    ("sim.snapshot.encode_ms", "ms"),
    ("sim.snapshot.decode_ms", "ms"),
    ("sim.snapshot.restore_ms", "ms"),
    ("sim.snapshot.mb", "MB"),
    ("sim.snapshot.checkpoints", "count"),
    ("bench.gen_ms", "ms"),
    ("bench.traced_steps_per_s", "steps/s"),
    ("bench.untraced_steps_per_s", "steps/s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Host-time layer metrics from span self time: span, metric, ns per
/// unit, and whether the figure is per checkpoint rather than per step.
const SPAN_METRICS: &[(&str, &str, f64, bool)] = &[
    ("core.session.push_grads", "core.session.push_grads_ms", 1e6, false),
    ("core.session.push_params", "core.session.push_params_ms", 1e6, false),
    ("core.session.fence", "core.session.fence_us", 1e3, false),
    ("core.session.activation", "core.session.activation_us", 1e3, false),
    ("core.placement.side_write", "core.placement.side_write_ms", 1e6, false),
    ("core.cluster.grad_phase", "core.cluster.grad_phase_ms", 1e6, false),
    ("core.cluster.stage", "core.cluster.stage_us", 1e3, false),
    ("core.cluster.activation", "core.cluster.activation_us", 1e3, false),
    ("core.cluster.draw_params", "core.cluster.draw_us", 1e3, false),
    ("core.cluster.broadcast", "core.cluster.broadcast_ms", 1e6, false),
    ("cxl.collective.all_reduce", "cxl.collective.all_reduce_ms", 1e6, false),
    ("sim.snapshot.capture", "sim.snapshot.capture_ms", 1e6, true),
    ("sim.snapshot.encode", "sim.snapshot.encode_ms", 1e6, true),
    ("sim.snapshot.decode", "sim.snapshot.decode_ms", 1e6, true),
    ("sim.snapshot.restore", "sim.snapshot.restore_ms", 1e6, true),
    ("bench.gen", "bench.gen_ms", 1e6, false),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`NAMES`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Host seconds the timed phase lasts (at least [`SIM_STEPS`] steps).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Options {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Options { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(0.0..=3600.0).contains(&opts.seconds) {
                        return Err(bad(&"must be within 0..=3600"));
                    }
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !NAMES.contains(&opts.workload.as_str()) {
            return Err(format!("--workload must be one of {NAMES:?}"));
        }
        Ok(opts)
    }
}

/// A finished run: human-readable lines and the metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Lines to print before the JSON result.
    pub lines: Vec<String>,
    /// Metrics in output order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// API calls plus output checks attempted.
    pub attempted: u64,
    /// API calls plus output checks that failed.
    pub failed: u64,
}

impl Outcome {
    fn new(opts: &Options) -> Self {
        let head = format!(
            "stepbench workload={} seed={} seconds={} trace={}",
            opts.workload, opts.seed, opts.seconds, opts.trace as u8
        );
        Outcome { lines: vec![head], metrics: Vec::new(), attempted: 0, failed: 0 }
    }

    fn put(
        &mut self,
        table: &'static [(&'static str, &'static str)],
        name: &str,
        value: f64,
        note: &str,
    ) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        let value = if value.is_finite() { value } else { 0.0 };
        let note = if note.is_empty() { String::new() } else { format!("  ({note})") };
        self.lines.push(format!("{name:<30} {value:>14.4} {unit}{note}"));
        self.metrics.push((name, value, unit));
    }

    fn tally(&mut self, calls: u64, step_error: Option<String>, checks: Checks) {
        self.attempted += calls + checks.run;
        self.failed += step_error.is_some() as u64 + checks.failures.len() as u64;
        for f in step_error.into_iter().chain(checks.failures) {
            self.lines.push(format!("FAILED: {f}"));
        }
    }

    /// Did every API call and output check succeed?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One timed phase: per-step host times and the fixed-window counters.
struct Phase {
    base: Totals,
    calls_before: u64,
    step_ns: Vec<u64>,
    window: Option<Totals>,
    error: Option<String>,
}

impl Phase {
    fn new(w: &dyn Workload) -> Self {
        Phase {
            base: w.totals(),
            calls_before: w.calls(),
            step_ns: Vec::new(),
            window: None,
            error: None,
        }
    }

    /// Step `w` for `seconds` more, and on until at least [`SIM_STEPS`]
    /// steps ran. Inputs are generated before each step, outside its timing.
    fn run(&mut self, w: &mut dyn Workload, tr: &mut Tracer, seconds: f64) {
        let start = Instant::now();
        while self.error.is_none()
            && (self.window.is_none() || start.elapsed().as_secs_f64() < seconds)
        {
            tr.set_step(self.step_ns.len() as u64);
            tr.span("bench.gen", "bench", |_| w.gen());
            let t = Instant::now();
            let r = tr.span("bench.step", "bench", |tr| w.step(tr));
            self.step_ns.push(t.elapsed().as_nanos() as u64);
            self.error = r.err();
            if self.step_ns.len() as u64 == SIM_STEPS {
                self.window = Some(w.totals().since(&self.base));
            }
        }
    }

    /// Counters over the fixed window (shorter only if a step failed),
    /// with its length in steps.
    fn window(&self, w: &dyn Workload) -> (Totals, u64) {
        match self.window {
            Some(d) => (d, SIM_STEPS),
            None => (w.totals().since(&self.base), self.step_ns.len() as u64),
        }
    }

    /// Host-time statistics over the fastest quarter of the
    /// [`BLOCK_STEPS`]-step blocks: the median block's steps per second,
    /// and the samples of those blocks, sorted. The shared cores this runs
    /// on spend stretches of seconds at about half speed while other
    /// tenants load them; a change to the code slows every block, but a
    /// stretch of contention only the slower ones.
    fn host(&self) -> HostTimes {
        let mut blocks: Vec<&[u64]> = self.step_ns.chunks_exact(BLOCK_STEPS).collect();
        if blocks.is_empty() {
            blocks.push(&self.step_ns);
        }
        blocks.sort_by_key(|b| b.iter().sum::<u64>());
        let kept = &blocks[..blocks.len().div_ceil(4)];
        let mut rates: Vec<f64> = kept
            .iter()
            .map(|b| b.len() as f64 / (b.iter().sum::<u64>().max(1) as f64 / 1e9))
            .collect();
        let mut samples: Vec<u64> = kept.concat();
        samples.sort_unstable();
        HostTimes { rate: median(&mut rates), blocks: blocks.len(), kept: kept.len(), samples }
    }
}

struct HostTimes {
    rate: f64,
    blocks: usize,
    kept: usize,
    samples: Vec<u64>,
}

impl HostTimes {
    fn note(&self) -> String {
        format!("fastest {} of {} blocks of {BLOCK_STEPS} steps", self.kept, self.blocks)
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples, and the samples beyond it.
fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn set_up(opts: &Options, split: bool, times: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let t = Instant::now();
    let w = build(&opts.workload, opts.seed, split)?;
    times.push(t.elapsed().as_secs_f64());
    Ok(w)
}

/// Run the benchmark as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    // Set-ups are timed between stretches of the timed phase, so they
    // sample the machine's load across the run rather than in one burst.
    let mut setups = Vec::new();
    let mut w = set_up(opts, false, &mut setups)?;
    let mut phase = Phase::new(w.as_ref());
    for _ in 1..SETUPS {
        phase.run(w.as_mut(), &mut Tracer::off(), opts.seconds / (SETUPS - 1) as f64);
        drop(set_up(opts, false, &mut setups)?);
    }
    let checks = w.check();

    let mut out = Outcome::new(opts);
    let e2e =
        |out: &mut Outcome, name: &str, v: f64, note: &str| out.put(END_TO_END, name, v, note);
    e2e(&mut out, "setup_s", median(&mut setups), &format!("median of {SETUPS} set-ups"));
    let host = phase.host();
    e2e(&mut out, "steps_per_s", host.rate, &host.note());
    let n = host.samples.len();
    let (p50, _) = percentile(&host.samples, 0.5);
    let (p90, beyond) = percentile(&host.samples, 0.9);
    e2e(&mut out, "step_ms_p50", p50 as f64 / 1e6, &format!("n={n}, {}", host.note()));
    e2e(&mut out, "step_ms_p90", p90 as f64 / 1e6, &format!("n={n}, {beyond} samples beyond p90"));
    let (d, window_steps) = phase.window(w.as_ref());
    let ws = window_steps.max(1) as f64;
    let window = format!("first {window_steps} timed steps");
    e2e(&mut out, "sim_step_us", d.sim_ps as f64 / 1e6 / ws, &window);
    e2e(&mut out, "wire_mb_per_step", d.wire_bytes() as f64 / 1e6 / ws, &window);
    e2e(&mut out, "peak_rss_mb", peak_rss_mb(), "VmHWM");
    out.tally(w.calls() - phase.calls_before, phase.error.clone(), checks);
    let (failed, attempted) = (out.failed, out.attempted.max(1));
    e2e(
        &mut out,
        "op_success_rate",
        1.0 - failed as f64 / attempted as f64,
        &format!("{failed} failed of {attempted} API calls and output checks"),
    );
    Ok(out)
}

fn run_traced(opts: &Options) -> Result<Outcome, String> {
    // Two fresh set-ups cover the same simulated steps: an untraced phase
    // as the overhead reference, then the traced phase.
    let half = opts.seconds / 2.0;
    let mut setups = Vec::new();
    let mut plain = set_up(opts, false, &mut setups)?;
    let mut plain_phase = Phase::new(plain.as_ref());
    plain_phase.run(plain.as_mut(), &mut Tracer::off(), half);
    let mut checks = plain.check();
    let plain_calls = plain.calls() - plain_phase.calls_before;
    drop(plain);
    let mut w = set_up(opts, true, &mut setups)?;
    let mut tr = Tracer::on();
    let mut phase = Phase::new(w.as_ref());
    phase.run(w.as_mut(), &mut tr, half);
    checks.merge(w.check());
    let calls = w.calls() - phase.calls_before;
    let (d, window_steps) = phase.window(w.as_ref());

    let mut layer: BTreeMap<&str, (f64, String)> = BTreeMap::new();
    let self_time = tr.self_time();
    let steps = phase.step_ns.len() as f64;
    let checkpoints = self_time.get("sim.snapshot.capture").map_or(0, |s| s.1);
    for &(span, metric, ns_per_unit, per_checkpoint) in SPAN_METRICS {
        if let Some(&(ns, _)) = self_time.get(span) {
            let per = if per_checkpoint { checkpoints as f64 } else { steps };
            layer.insert(metric, (ns as f64 / ns_per_unit / per, String::new()));
        }
    }
    let ws = window_steps.max(1) as f64;
    let mut count = |metric, v: u64, scale: f64, note: String| {
        layer.insert(metric, (v as f64 / ws / scale, note));
    };
    count("core.session.lines", d.lines, 1.0, String::new());
    count("cxl.link.bytes", d.link_bytes, 1.0, String::new());
    count("cxl.link.busy_us", d.link_busy_ps, 1e6, String::new());
    count("cxl.dba.param_wire_bytes", d.param_wire_bytes, 1.0, String::new());
    count("cxl.dba.param_raw_bytes", d.param_raw_bytes, 1.0, String::new());
    count("cxl.coherence.msgs", d.coherence_msgs, 1.0, String::new());
    count("cxl.fence.wait_us", d.fence_wait_ps, 1e6, String::new());
    count("cxl.fault.transfers", d.transfers, 1.0, "base of the fault counts".into());
    let of_transfers = |v: u64| format!("{v} of {} transfers", d.transfers);
    count("cxl.fault.retries", d.retries, 1.0, of_transfers(d.retries));
    count(
        "cxl.fault.full_line_retries",
        d.full_line_retries,
        1.0,
        of_transfers(d.full_line_retries),
    );
    count("cxl.fault.replay_us", d.replay_ns, 1e3, String::new());
    count("cxl.fault.replay_exhausted", d.replay_exhausted, 1.0, of_transfers(d.replay_exhausted));
    count("cxl.arbiter.wait_us", d.arbiter_wait_ns, 1e3, String::new());
    count("cxl.arbiter.fanout_saved_mb", d.fanout_saved_bytes, 1e6, String::new());
    count("cxl.collective.exchange_us", d.exchange_ns, 1e3, String::new());
    count("cxl.collective.port_mb", d.port_bytes, 1e6, String::new());
    count("cxl.collective.media_mb", d.media_bytes, 1e6, String::new());
    count("core.placement.migrations", d.migrations, 1.0, String::new());
    count("core.placement.migrated_mb", d.migrated_bytes, 1e6, String::new());
    count("core.placement.pool_mb", d.pool_bytes, 1e6, String::new());
    count("core.placement.migration_us", d.migration_ns, 1e3, String::new());
    let ratio = if d.param_raw_bytes > 0 {
        d.param_wire_bytes as f64 / d.param_raw_bytes as f64
    } else {
        0.0
    };
    let base = format!("{} wire B / {} raw B", d.param_wire_bytes, d.param_raw_bytes);
    layer.insert("cxl.dba.payload_ratio", (ratio, base));
    let per_ckpt = d.snapshot_bytes as f64 / d.checkpoints.max(1) as f64 / 1e6;
    layer.insert("sim.snapshot.mb", (per_ckpt, "per checkpoint".into()));
    let window = format!("in the first {window_steps} steps");
    layer.insert("sim.snapshot.checkpoints", (d.checkpoints as f64, window));
    let (traced, untraced) = (phase.host(), plain_phase.host());
    layer.insert("bench.traced_steps_per_s", (traced.rate, traced.note()));
    layer.insert("bench.untraced_steps_per_s", (untraced.rate, untraced.note()));
    let (traced, untraced) = (traced.rate, untraced.rate);
    let overhead = (untraced - traced) / untraced * 100.0;
    layer.insert("bench.trace_overhead_pct", (overhead, "traced vs untraced steps_per_s".into()));

    let mut out = Outcome::new(opts);
    for &(name, _) in PER_LAYER {
        let (v, note) =
            layer.remove(name).unwrap_or((0.0, "not exercised by this workload".into()));
        out.put(PER_LAYER, name, v, &note);
    }
    assert!(layer.is_empty(), "undeclared per-layer metrics: {:?}", layer.keys());

    out.lines.push(format!(
        "self time per span over {} traced steps ({checkpoints} checkpoints):",
        phase.step_ns.len()
    ));
    let total: u64 = self_time.values().map(|s| s.0).sum();
    let mut by_time: Vec<_> = self_time.iter().collect();
    by_time.sort_by_key(|(_, s)| std::cmp::Reverse(s.0));
    for (name, (ns, calls)) in by_time {
        let share = *ns as f64 / total.max(1) as f64 * 100.0;
        out.lines.push(format!(
            "  {name:<30} {:>10.3} ms {share:>5.1}%  {calls} spans",
            *ns as f64 / 1e6
        ));
    }
    let path = write_trace(opts, &tr)?;
    out.lines.push(format!(
        "trace: {} spans -> {}",
        tr.spans().len().min(MAX_TRACE_EVENTS),
        path.display()
    ));
    out.tally(plain_calls, plain_phase.error.clone(), Checks::default());
    out.tally(calls, phase.error.clone(), checks);
    Ok(out)
}

/// Write the Chrome trace beside the benchmark, under `out/`.
fn write_trace(opts: &Options, tr: &Tracer) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    std::fs::write(&path, tr.chrome_json(MAX_TRACE_EVENTS))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
