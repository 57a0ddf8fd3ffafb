//! Sweep-row computation shared between the bench binaries, the report,
//! and the test suite.
//!
//! Each sweep is a grid of independent cells and one row type: the sweep
//! binary writes its rows to `bench_results/<bin>.json`, and
//! [`crate::report`] renders the same rows as the binary's stdout and as
//! its REPORT.md section. The fault, scaling, and collective sweeps also
//! take an explicit worker count, so the determinism matrix
//! (`tests/determinism.rs`) can run the *same* row computation under both
//! serial and parallel [`teco_offload::sweep_with_workers`] execution and
//! require byte-identical JSON. Every cell is computed independently —
//! including its own clean/one-device baseline — so cells can run on any
//! worker in any order without sharing state.

use serde::{Deserialize, Serialize};
use teco_core::{
    run_churn, run_fabric_chaos, run_uninterrupted, ChurnWorkload, ClusterConfig, ClusterReport,
    ClusterWorkload, FabricChaosWorkload, FabricWorkload, HostKillSpec, PlacementPolicy,
    TecoConfig, TecoSession, TieredPolicy,
};
use teco_cxl::{
    ring_all_reduce, CollectiveConfig, CollectivePhase, FaultConfig, PoolCollective, RasConfig,
};
use teco_dl::ModelSpec;
use teco_mem::{Addr, LineData};
use teco_offload::{autotune_giant_cache, sweep, sweep_with_workers};
use teco_sim::{SimRng, SimTime, FNV_SEED};

// ---------------------------------------------------------------------------
// Fault sweep
// ---------------------------------------------------------------------------

/// Lines per region in the fault workload.
pub const FAULT_LINES: u64 = 512;
/// Training steps in the fault workload.
pub const FAULT_ROUNDS: u64 = 4;
/// The fault injector's fixed seed.
pub const FAULT_SEED: u64 = 42;

/// One cell of the fault sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultCell {
    /// DBA dirty-byte setting.
    pub dirty_bytes: u8,
    /// The rate fed to every fault class.
    pub fault_rate: f64,
}

/// The grid: dirty ∈ {2, 4} × rate ∈ {0, 0.001, 0.01, 0.05}, in the
/// order the sweep's JSON has always carried.
pub fn fault_grid() -> Vec<FaultCell> {
    let mut cells = Vec::new();
    for &dirty_bytes in &[2u8, 4] {
        for &fault_rate in &[0.0f64, 0.001, 0.01, 0.05] {
            cells.push(FaultCell { dirty_bytes, fault_rate });
        }
    }
    cells
}

/// One row of `bench_results/fault_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// The rate fed to every fault class.
    pub fault_rate: f64,
    /// DBA dirty-byte setting.
    pub dirty_bytes: u8,
    /// End-of-run simulated time.
    pub sim_time_ns: u64,
    /// Simulated-time ratio versus the fault-model-off run.
    pub slowdown_vs_clean: f64,
    /// Payload bytes CPU→device.
    pub bytes_to_device: u64,
    /// Link CRC errors.
    pub crc_errors: u64,
    /// Link retries.
    pub link_retries: u64,
    /// Transient stalls.
    pub stalls: u64,
    /// DBA checksum mismatches caught receiver-side.
    pub checksum_mismatches: u64,
    /// Lines quarantined by poison containment.
    pub quarantined_lines: u64,
    /// Full-line retries (ladder step 2).
    pub full_line_retries: u64,
    /// Regions degraded to the software baseline (ladder step 3).
    pub degraded_regions: u64,
    /// Did the giant-cache end state stay bit-identical to the clean run?
    pub state_matches_clean: bool,
}

/// Parameter line for (step, i): the high halves of every word are fixed
/// across steps (the §III DBA premise), only the low two bytes change.
fn param_line(step: u64, i: u64) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..16usize {
        let hi = ((i as u32) << 16) ^ ((w as u32) << 26);
        let lo = (0x1000u32.wrapping_add(step as u32 * 257).wrapping_add(w as u32)) & 0xFFFF;
        l.set_word(w, (hi & 0xFFFF_0000) | lo);
    }
    l
}

fn grad_line(step: u64, i: u64) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..16usize {
        l.set_word(w, (step as u32) << 24 ^ (i as u32) << 8 ^ w as u32);
    }
    l
}

/// Run the fixed fault workload; returns the session, the end-of-run
/// simulated time, and the parameter region base.
pub fn run_fault_workload(dirty_bytes: u8, fault: FaultConfig) -> (TecoSession, SimTime, Addr) {
    let cfg = TecoConfig::default()
        .with_giant_cache_bytes(1 << 22)
        .with_dirty_bytes(dirty_bytes)
        .with_act_aft_steps(1) // step 0 establishes resident copies
        .with_fault(fault);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, pbase) = s.alloc_tensor("params", FAULT_LINES * 64).expect("alloc params");
    let (_, gbase) = s.alloc_tensor("grads", FAULT_LINES * 64).expect("alloc grads");
    let mut now = SimTime::ZERO;
    for step in 0..FAULT_ROUNDS {
        for i in 0..FAULT_LINES {
            // A gradient line lost to retry exhaustion is recorded in the
            // fault stats; the sweep keeps going.
            let _ = s.push_grad_line(Addr(gbase.0 + i * 64), grad_line(step, i), now);
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        let lines: Vec<LineData> = (0..FAULT_LINES).map(|i| param_line(step, i)).collect();
        s.push_param_lines(pbase, &lines, now).expect("param push");
        now = s.cxlfence_params(now);
    }
    (s, now, pbase)
}

fn state_matches(a: &TecoSession, ab: Addr, b: &TecoSession, bb: Addr) -> bool {
    (0..FAULT_LINES).all(|i| {
        a.device_read_line(Addr(ab.0 + i * 64)).ok() == b.device_read_line(Addr(bb.0 + i * 64)).ok()
    })
}

/// Compute one fault-sweep row. Self-contained: the cell runs its own
/// clean baseline, so rows are identical whether computed serially or on
/// any parallel worker.
pub fn fault_row(cell: &FaultCell) -> FaultSweepRow {
    let (clean_s, clean_t, clean_b) = run_fault_workload(cell.dirty_bytes, FaultConfig::off());
    let fault = FaultConfig {
        crc_error_rate: cell.fault_rate,
        stall_rate: cell.fault_rate,
        stall_ns: 100,
        poison_rate: cell.fault_rate / 4.0,
        dba_checksum_error_rate: cell.fault_rate,
        retry_limit: 8,
        seed: FAULT_SEED,
        ..FaultConfig::off()
    };
    let (s, t, b) = run_fault_workload(cell.dirty_bytes, fault);
    let r = s.fault_report();
    FaultSweepRow {
        fault_rate: cell.fault_rate,
        dirty_bytes: cell.dirty_bytes,
        sim_time_ns: t.as_ns(),
        slowdown_vs_clean: t.as_ns() as f64 / clean_t.as_ns() as f64,
        bytes_to_device: s.stats().bytes_to_device,
        crc_errors: r.crc_errors,
        link_retries: r.retries,
        stalls: r.stalls,
        checksum_mismatches: r.checksum_mismatches,
        quarantined_lines: r.quarantined_lines,
        full_line_retries: r.full_line_retries,
        degraded_regions: r.degraded_regions,
        state_matches_clean: state_matches(&s, b, &clean_s, clean_b),
    }
}

/// The full fault sweep at an explicit worker count.
pub fn fault_rows_with_workers(workers: usize) -> Vec<FaultSweepRow> {
    let grid = fault_grid();
    sweep_with_workers(&grid, workers, |_, cell| fault_row(cell))
}

/// The full fault sweep across all cores.
pub fn fault_rows() -> Vec<FaultSweepRow> {
    fault_rows_with_workers(teco_dl::num_cores())
}

// ---------------------------------------------------------------------------
// Scaling sweep
// ---------------------------------------------------------------------------

/// Device counts the scaling sweep covers.
pub const SCALING_DEVICES: [usize; 4] = [1, 2, 4, 8];
/// Per-device batch sizes the scaling sweep covers.
pub const SCALING_BATCHES: [u64; 3] = [4, 8, 16];
/// Steps per scaling run.
pub const SCALING_STEPS: u64 = 6;
/// Model size, in parameter cache lines (gradients match).
pub const SCALING_LINES: u64 = 512;
/// The content-stream seed.
pub const SCALING_SEED: u64 = 42;
/// Simulated compute per sample (forward+backward), in nanoseconds;
/// multiplied by the batch size. Kept small so the wire time is a visible
/// fraction of the step: per-device host waits then grow superlinearly
/// with N (round-robin serialization inside each gradient round) and
/// efficiency at N=8 recovers as the batch grows — compute hiding the
/// same contention — which is the weak-scaling trend the sweep exists to
/// show.
pub const SCALING_COMPUTE_NS_PER_SAMPLE: u64 = 500;

/// One cell of the scaling sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScalingCell {
    /// Devices sharing the pool.
    pub devices: usize,
    /// Per-device batch size.
    pub batch: u64,
}

/// The grid: N ∈ {1, 2, 4, 8} × batch ∈ {4, 8, 16}, devices-major.
pub fn scaling_grid() -> Vec<ScalingCell> {
    let mut cells = Vec::new();
    for &devices in &SCALING_DEVICES {
        for &batch in &SCALING_BATCHES {
            cells.push(ScalingCell { devices, batch });
        }
    }
    cells
}

/// The fixed-seed cluster workload for one cell.
pub fn scaling_workload(devices: usize, batch: u64) -> ClusterWorkload {
    ClusterWorkload {
        cfg: ClusterConfig::new(
            TecoConfig::default().with_act_aft_steps(1).with_giant_cache_bytes(1 << 22),
            devices,
        ),
        steps: SCALING_STEPS,
        param_lines: SCALING_LINES,
        grad_lines: SCALING_LINES,
        compute_ns_per_step: batch * SCALING_COMPUTE_NS_PER_SAMPLE,
        seed: SCALING_SEED,
    }
}

/// One row of `bench_results/scaling_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Devices sharing the pool.
    pub devices: u64,
    /// Per-device batch size.
    pub batch: u64,
    /// Steps simulated.
    pub steps: u64,
    /// Model size in cache lines.
    pub model_lines: u64,
    /// End-to-end cluster time.
    pub cluster_time_ns: u64,
    /// The same workload on one device (each cell computes its own
    /// baseline, so rows are worker-independent).
    pub one_device_time_ns: u64,
    /// Throughput speedup versus one device: `N · t₁ / t_N`.
    pub speedup_vs_one: f64,
    /// Parallel efficiency: `speedup / N × 100`.
    pub efficiency_pct: f64,
    /// Total time devices waited on the shared host budget.
    pub host_wait_ns: u64,
    /// When the shared host budget drained.
    pub host_drained_ns: u64,
    /// Gradient bytes the devices pushed through the budget.
    pub host_bytes: u64,
    /// Bytes read from the pool for parameter broadcasts.
    pub broadcast_bytes: u64,
    /// Bytes the update-mode fan-out avoided reading.
    pub fanout_saved_bytes: u64,
    /// Device 0's end-state checksum (identical on every replica).
    pub device_checksum: u64,
    /// The pooled optimizer's end-state checksum.
    pub pool_checksum: u64,
}

fn cluster_report(devices: usize, batch: u64) -> ClusterReport {
    run_uninterrupted(&scaling_workload(devices, batch)).expect("scaling workload completes").report
}

/// Compute one scaling row, including its own one-device baseline.
pub fn scaling_row(cell: &ScalingCell) -> ScalingRow {
    let r = cluster_report(cell.devices, cell.batch);
    let one = if cell.devices == 1 { r.clone() } else { cluster_report(1, cell.batch) };
    let t1 = one.cluster_time_ns as f64;
    let tn = r.cluster_time_ns as f64;
    let speedup = cell.devices as f64 * t1 / tn;
    ScalingRow {
        devices: r.n_devices,
        batch: cell.batch,
        steps: r.steps,
        model_lines: SCALING_LINES,
        cluster_time_ns: r.cluster_time_ns,
        one_device_time_ns: one.cluster_time_ns,
        speedup_vs_one: speedup,
        efficiency_pct: speedup / cell.devices as f64 * 100.0,
        host_wait_ns: r.host.total_wait_ns,
        host_drained_ns: r.host.drained_ns,
        host_bytes: r.host.per_device.iter().map(|a| a.bytes).sum(),
        broadcast_bytes: r.host.broadcast_bytes,
        fanout_saved_bytes: r.host.fanout_saved_bytes,
        device_checksum: r.devices[0].device_checksum,
        pool_checksum: r.pool_checksum,
    }
}

/// The full scaling sweep at an explicit worker count.
pub fn scaling_rows_with_workers(workers: usize) -> Vec<ScalingRow> {
    let grid = scaling_grid();
    sweep_with_workers(&grid, workers, |_, cell| scaling_row(cell))
}

/// The full scaling sweep across all cores.
pub fn scaling_rows() -> Vec<ScalingRow> {
    scaling_rows_with_workers(teco_dl::num_cores())
}

// ---------------------------------------------------------------------------
// Datapath sweep
// ---------------------------------------------------------------------------

/// Lines in the datapath sweep's parameter region.
pub const DATAPATH_LINES: u64 = 5000;
/// Gradient lines per round (device→CPU direction).
pub const DATAPATH_GRAD_LINES: u64 = 256;
/// Training rounds per cell.
pub const DATAPATH_ROUNDS: u64 = 2;
/// The fault injector's fixed seed.
pub const DATAPATH_SEED: u64 = 1234;

/// One cell of the datapath sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatapathCell {
    /// Fault model on?
    pub faulty: bool,
    /// Invalidation mode instead of the update protocol?
    pub invalidation: bool,
}

/// The grid: protocol-major, then fault.
pub fn datapath_grid() -> Vec<DatapathCell> {
    let mut cells = Vec::new();
    for &invalidation in &[false, true] {
        for &faulty in &[false, true] {
            cells.push(DatapathCell { faulty, invalidation });
        }
    }
    cells
}

/// One row of `bench_results/datapath_sweep.json`: a session's end state
/// after the fixed workload. Seeded throughout, so the CI sweep-smoke
/// job can diff two runs byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatapathRow {
    /// Fault model on?
    pub faulty: bool,
    /// Invalidation mode?
    pub invalidation: bool,
    /// End-of-run simulated time.
    pub sim_time_ns: u64,
    /// Payload bytes CPU→device.
    pub bytes_to_device: u64,
    /// Payload bytes device→CPU.
    pub bytes_to_host: u64,
    /// Coherence control bytes CPU→device.
    pub coherence_control_bytes: u64,
    /// Snoop-filter occupancy at end of run.
    pub snoop_entries: usize,
    /// Snoop-filter high-water mark.
    pub snoop_peak: usize,
    /// Link retries (0 when the fault model is off).
    pub link_retries: u64,
    /// DBA checksum mismatches caught receiver-side.
    pub checksum_mismatches: u64,
    /// FNV-1a 64 over the serialized session snapshot — the byte-identity
    /// witness, cheap enough to commit in JSON.
    pub snapshot_digest: String,
}

/// FNV-1a 64 in hex over arbitrary bytes. Unlike [`teco_sim::fnv_fold`],
/// this multiplies by the true FNV-64 prime; committed digests depend on
/// each.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(FNV_SEED, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    format!("{h:016x}")
}

/// Run the fixed datapath workload in one cell and serialize the end
/// state.
pub fn datapath_row(cell: &DatapathCell) -> DatapathRow {
    let fault = if cell.faulty {
        FaultConfig {
            crc_error_rate: 0.01,
            stall_rate: 0.005,
            stall_ns: 60,
            poison_rate: 0.002,
            dba_checksum_error_rate: 0.01,
            retry_limit: 16,
            seed: DATAPATH_SEED,
            ..FaultConfig::off()
        }
    } else {
        FaultConfig::off()
    };
    let mut cfg = TecoConfig::default()
        .with_giant_cache_bytes(1 << 22)
        .with_dirty_bytes(2)
        .with_act_aft_steps(1)
        .with_fault(fault);
    if cell.invalidation {
        cfg = cfg.with_protocol(teco_cxl::ProtocolMode::Invalidation);
    }
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, pbase) = s.alloc_tensor("params", DATAPATH_LINES * 64).expect("alloc params");
    let (_, gbase) = s.alloc_tensor("grads", DATAPATH_GRAD_LINES * 64).expect("alloc grads");
    let mut now = SimTime::ZERO;
    for step in 0..DATAPATH_ROUNDS {
        for i in 0..DATAPATH_GRAD_LINES {
            let _ = s.push_grad_line(Addr(gbase.0 + i * 64), grad_line(step, i), now);
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        let lines: Vec<LineData> = (0..DATAPATH_LINES).map(|i| param_line(step, i)).collect();
        s.push_param_lines(pbase, &lines, now).expect("param push");
        now = s.cxlfence_params(now);
    }
    let snap_json = serde_json::to_string(&s.snapshot()).expect("serialize snapshot");
    let r = s.fault_report();
    let snoop = s.coherence().snoop_filter().stats();
    DatapathRow {
        faulty: cell.faulty,
        invalidation: cell.invalidation,
        sim_time_ns: now.as_ns(),
        bytes_to_device: s.stats().bytes_to_device,
        bytes_to_host: s.stats().bytes_to_host,
        coherence_control_bytes: s.coherence().to_device.control_bytes,
        snoop_entries: snoop.entries,
        snoop_peak: snoop.peak_entries,
        link_retries: r.retries,
        checksum_mismatches: r.checksum_mismatches,
        snapshot_digest: fnv1a_hex(snap_json.as_bytes()),
    }
}

/// The full datapath sweep across all cores.
pub fn datapath_rows() -> Vec<DatapathRow> {
    sweep(&datapath_grid(), |_, cell| datapath_row(cell))
}

// ---------------------------------------------------------------------------
// Churn sweep (fault domains: device loss × media faults × N)
// ---------------------------------------------------------------------------

/// Device counts the churn sweep covers (≥ 2: a device must be losable).
pub const CHURN_DEVICES: [usize; 2] = [2, 4];
/// Media-fault rates (persistent uncorrectable faults per scrub tick).
pub const CHURN_MEDIA_RATES: [f64; 2] = [0.0, 1.0];
/// Steps per churn run.
pub const CHURN_STEPS: u64 = 10;
/// Parameter lines per replica.
pub const CHURN_PARAM_LINES: u64 = 128;
/// Gradient lines per device shard.
pub const CHURN_GRAD_LINES: u64 = 32;
/// Step at whose start the kill fires (kill modes only).
pub const CHURN_KILL_STEP: u64 = 3;
/// Steps between watchdog detection and hot readmission (readmit mode).
pub const CHURN_READMIT_AFTER: u64 = 2;
/// The RAS fault injector's fixed seed.
pub const CHURN_RAS_SEED: u64 = 42;

/// Failure schedule of one churn cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillMode {
    /// Never-failed run (the convergence baseline's shape).
    None,
    /// Kill one device; the cluster finishes at N−1.
    Lose,
    /// Kill one device, then hot-readmit it from the pooled state.
    Readmit,
}

impl KillMode {
    fn label(self) -> &'static str {
        match self {
            KillMode::None => "none",
            KillMode::Lose => "lose",
            KillMode::Readmit => "readmit",
        }
    }
}

/// One cell of the churn sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnCell {
    /// Devices sharing the pool.
    pub devices: usize,
    /// Failure schedule.
    pub kill: KillMode,
    /// Persistent media faults per scrub tick (0 = RAS off).
    pub media_rate: f64,
}

/// The grid: N ∈ {2, 4} × kill ∈ {none, lose, readmit} × media rate
/// ∈ {0, 1}, devices-major.
pub fn churn_grid() -> Vec<ChurnCell> {
    let mut cells = Vec::new();
    for &devices in &CHURN_DEVICES {
        for &kill in &[KillMode::None, KillMode::Lose, KillMode::Readmit] {
            for &media_rate in &CHURN_MEDIA_RATES {
                cells.push(ChurnCell { devices, kill, media_rate });
            }
        }
    }
    cells
}

/// The fixed churn workload for one cell. Content is formulaic (see
/// [`teco_core::churn`]), so a kill cell's end state is comparable by
/// checksum to its clean baseline.
pub fn churn_cell_workload(cell: &ChurnCell) -> ChurnWorkload {
    let mut base = TecoConfig::default().with_act_aft_steps(2).with_giant_cache_bytes(1 << 22);
    if cell.media_rate > 0.0 {
        base = base.with_ras(RasConfig {
            media_faults_per_tick: cell.media_rate,
            scrub_lines_per_tick: 16,
            spare_lines: 128,
            seed: CHURN_RAS_SEED,
        });
    }
    let mut w = ChurnWorkload {
        cfg: ClusterConfig::new(base, cell.devices),
        steps: CHURN_STEPS,
        param_lines: CHURN_PARAM_LINES,
        grad_lines: CHURN_GRAD_LINES,
        kills: Vec::new(),
        readmit_after: None,
    };
    match cell.kill {
        KillMode::None => {}
        KillMode::Lose => w = w.with_kill(cell.devices as u64 - 1, CHURN_KILL_STEP),
        KillMode::Readmit => {
            w = w
                .with_kill(cell.devices as u64 - 1, CHURN_KILL_STEP)
                .with_readmit_after(CHURN_READMIT_AFTER)
        }
    }
    w
}

/// One row of `bench_results/churn_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnRow {
    /// Devices sharing the pool.
    pub devices: u64,
    /// Failure schedule: `none`, `lose`, or `readmit`.
    pub kill_mode: String,
    /// Persistent media faults per scrub tick.
    pub media_rate: f64,
    /// Steps simulated.
    pub steps: u64,
    /// Watchdog detections.
    pub down_events: u64,
    /// Host-account quarantines.
    pub quarantines: u64,
    /// Hot readmissions performed.
    pub readmits: u64,
    /// Gradient-line pushes rerouted through survivors.
    pub redistributed_lines: u64,
    /// Typed `DeviceDown` errors the driver absorbed (never a panic).
    pub typed_errors: u64,
    /// Media faults injected (device + pool streams).
    pub ras_faults_injected: u64,
    /// Faults found by the patrol scrubber.
    pub ras_detected_by_scrub: u64,
    /// Faults found at access time.
    pub ras_detected_on_access: u64,
    /// Lines retired to spares.
    pub ras_lines_retired: u64,
    /// Quarantined lines rebuilt from the clean pooled copy.
    pub ras_rebuilds: u64,
    /// End-to-end cluster time.
    pub cluster_time_ns: u64,
    /// The pooled optimizer's end-state checksum.
    pub pool_checksum: u64,
    /// The clean (no-kill, no-RAS) baseline's pool checksum — must equal
    /// `pool_checksum` in every cell: redistribution preserves the reduce
    /// and chipkill-mirrored retirement preserves the pool bytes.
    pub clean_pool_checksum: u64,
    /// Did the pool and every live replica end byte-identical to the
    /// clean baseline? (In `lose` mode the dead replica is excluded —
    /// its last broadcasts never reached it.)
    pub converged: bool,
}

/// Compute one churn row, including its own clean baseline (kill = none,
/// RAS off), so rows are worker-independent.
pub fn churn_row(cell: &ChurnCell) -> ChurnRow {
    let clean_cell = ChurnCell { devices: cell.devices, kill: KillMode::None, media_rate: 0.0 };
    let clean = run_churn(&churn_cell_workload(&clean_cell)).expect("clean churn run completes");
    let out = run_churn(&churn_cell_workload(cell)).expect("churn run completes");
    // Every device must match the clean run except a dead, never-readmitted
    // one (the broadcasts after its death never reached it).
    let dead = match cell.kill {
        KillMode::Lose => Some(cell.devices - 1),
        _ => None,
    };
    let converged = out.pool_checksum == clean.pool_checksum
        && (0..cell.devices)
            .filter(|&d| Some(d) != dead)
            .all(|d| out.device_checksums[d] == clean.device_checksums[d]);
    ChurnRow {
        devices: cell.devices as u64,
        kill_mode: cell.kill.label().to_string(),
        media_rate: cell.media_rate,
        steps: out.report.steps,
        down_events: out.report.down_events,
        quarantines: out.report.quarantines,
        readmits: out.report.readmits,
        redistributed_lines: out.redistributed_lines,
        typed_errors: out.typed_errors,
        ras_faults_injected: out.report.ras.faults_injected,
        ras_detected_by_scrub: out.report.ras.detected_by_scrub,
        ras_detected_on_access: out.report.ras.detected_on_access,
        ras_lines_retired: out.report.ras.lines_retired,
        ras_rebuilds: out.report.ras.rebuilds,
        cluster_time_ns: out.report.cluster_time_ns,
        pool_checksum: out.pool_checksum,
        clean_pool_checksum: clean.pool_checksum,
        converged,
    }
}

/// The full churn sweep across all cores.
pub fn churn_rows() -> Vec<ChurnRow> {
    sweep(&churn_grid(), |_, cell| churn_row(cell))
}

// ---------------------------------------------------------------------------
// Collective sweep (pool-staged all-reduce vs the point-to-point ring)
// ---------------------------------------------------------------------------

/// Host counts the collective comparison covers (H ≥ 2: an inter-host
/// exchange must exist).
pub const COLLECTIVE_HOSTS: [usize; 3] = [2, 4, 8];
/// Per-host gradient sizes in MiB. 64 MiB is the acceptance cell: a
/// Bert-large-class gradient per step.
pub const COLLECTIVE_MB: [u64; 3] = [1, 16, 64];
/// The gradient content-stream seed.
pub const COLLECTIVE_SEED: u64 = 42;
/// Host counts the fabric anchor rows cover (H = 1 is the anchor that
/// must collapse to the single-host `scaling_sweep` path).
pub const FABRIC_HOSTS: [usize; 4] = [1, 2, 4, 8];
/// Devices per host in the fabric anchor rows.
pub const FABRIC_DEVICES: usize = 2;
/// The fabric workload seed.
pub const FABRIC_SEED: u64 = 42;

/// One cell of the collective comparison grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveCell {
    /// Hosts sharing the pool.
    pub hosts: usize,
    /// Per-host gradient size in MiB.
    pub grad_mb: u64,
}

/// The grid: H ∈ {2, 4, 8} × G ∈ {1, 16, 64} MiB, hosts-major.
pub fn collective_grid() -> Vec<CollectiveCell> {
    let mut cells = Vec::new();
    for &hosts in &COLLECTIVE_HOSTS {
        for &grad_mb in &COLLECTIVE_MB {
            cells.push(CollectiveCell { hosts, grad_mb });
        }
    }
    cells
}

/// The per-host gradient buffers of one cell, drawn from per-host forks
/// of the fixed content stream (regenerable, so a cell never needs pool
/// and ring inputs alive at once).
fn collective_inputs(hosts: usize, bytes: usize) -> Vec<Vec<u8>> {
    (0..hosts)
        .map(|h| {
            let mut rng = SimRng::seed_from_u64(COLLECTIVE_SEED).fork(&format!("grad-h{h}"));
            let mut buf = vec![0u8; bytes];
            for chunk in buf.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            buf
        })
        .collect()
}

/// One row of the collective comparison in
/// `bench_results/collective_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveRow {
    /// Hosts sharing the pool.
    pub hosts: u64,
    /// Gradient bytes contributed per host.
    pub grad_bytes: u64,
    /// Pool-staged all-reduce completion (barrier → last host done).
    pub pool_ns: u64,
    /// Ring all-reduce completion over the same barrier.
    pub ring_ns: u64,
    /// `ring_ns / pool_ns` — must exceed 1 in every cell.
    pub speedup: f64,
    /// Host↔pool port bytes the pool path moved ((2H−1)·G).
    pub pool_port_bytes: u64,
    /// Pool-DRAM bytes served after fan-in dedup ((H+1)·G).
    pub pool_media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading ((H−2)·G).
    pub fanin_saved_bytes: u64,
    /// Endpoint-port bytes the ring moved (4(H−1)·G).
    pub ring_link_bytes: u64,
    /// `ring_link_bytes / pool_port_bytes` — must exceed 1 in every cell.
    pub byte_ratio: f64,
    /// Did pool and ring produce bit-identical reduced gradients?
    pub results_match: bool,
    /// FNV-1a-64 over host 0's reduced gradient, hex (identical for both
    /// paths whenever `results_match`).
    pub grad_checksum: String,
}

/// Compute one collective comparison row. The pool and ring runs never
/// hold their input sets concurrently: each path regenerates the
/// formulaic gradients, reduces in place, and is summarized by checksum
/// before the other starts — the 64 MiB × 8-host cell peaks at one input
/// set, not two.
pub fn collective_row(cell: &CollectiveCell) -> CollectiveRow {
    let bytes = (cell.grad_mb << 20) as usize;
    let cfg = CollectiveConfig::for_hosts(cell.hosts);
    let ready = vec![SimTime::ZERO; cell.hosts];

    let mut bufs = collective_inputs(cell.hosts, bytes);
    let pool = PoolCollective::new(cfg)
        .and_then(|mut p| p.all_reduce(&mut bufs, &ready))
        .expect("pool all-reduce completes");
    let pool_sum = fnv1a_hex(&bufs[0]);
    let all_equal = bufs.windows(2).all(|w| w[0] == w[1]);
    drop(bufs);

    let mut bufs = collective_inputs(cell.hosts, bytes);
    let ring = ring_all_reduce(&cfg, &mut bufs, &ready).expect("ring all-reduce completes");
    let ring_sum = fnv1a_hex(&bufs[0]);
    drop(bufs);

    let pool_ns = (pool.completion - pool.start).as_ns();
    let ring_ns = (ring.completion - ring.start).as_ns();
    CollectiveRow {
        hosts: cell.hosts as u64,
        grad_bytes: bytes as u64,
        pool_ns,
        ring_ns,
        speedup: ring_ns as f64 / pool_ns as f64,
        pool_port_bytes: pool.port_bytes,
        pool_media_bytes: pool.media_bytes,
        fanin_saved_bytes: pool.fanin_saved_bytes,
        ring_link_bytes: ring.link_bytes,
        byte_ratio: ring.link_bytes as f64 / pool.port_bytes as f64,
        results_match: all_equal && pool_sum == ring_sum,
        grad_checksum: pool_sum,
    }
}

/// One fabric anchor row in `bench_results/collective_sweep.json`: an
/// H-host training fabric over the shared pool, with the structural
/// anchor asserted per row — host 0's cluster report is byte-identical
/// to the standalone single-host path (`scaling_sweep`'s cluster run) at
/// every H, and at H = 1 the whole fabric collapses to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricRow {
    /// Hosts in the fabric.
    pub hosts: u64,
    /// Devices per host.
    pub devices_per_host: u64,
    /// Steps simulated.
    pub steps: u64,
    /// The fabric clock at the end of the run.
    pub fabric_time_ns: u64,
    /// Time spent in inter-host exchanges.
    pub exchange_ns: u64,
    /// Host↔pool port bytes the collectives moved.
    pub pool_port_bytes: u64,
    /// Pool-DRAM bytes served (fan-in deduplicated).
    pub pool_media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading.
    pub fanin_saved_bytes: u64,
    /// Running checksum of every step's globally reduced gradient.
    pub global_grad_checksum: u64,
    /// FNV-1a-64 over host 0's serialized cluster report.
    pub host0_digest: String,
    /// Does `host0_digest` equal the standalone cluster path's digest?
    pub host0_matches_cluster: bool,
}

/// The fixed fabric workload for an anchor row.
pub fn fabric_workload(hosts: usize) -> FabricWorkload {
    FabricWorkload::small(hosts, FABRIC_DEVICES, FABRIC_SEED)
}

/// Compute one fabric anchor row, including the standalone-cluster
/// digest comparison (each row runs its own baseline, so rows are
/// worker-independent).
pub fn fabric_row(hosts: usize) -> FabricRow {
    let w = fabric_workload(hosts);
    let fabric = run_uninterrupted(&w).expect("fabric run completes").report;
    let cluster = run_uninterrupted(&w.base).expect("cluster run completes").report;
    let host0 = serde_json::to_string(&fabric.host_reports[0]).expect("serialize host 0");
    let standalone = serde_json::to_string(&cluster).expect("serialize cluster");
    FabricRow {
        hosts: fabric.hosts,
        devices_per_host: FABRIC_DEVICES as u64,
        steps: fabric.steps,
        fabric_time_ns: fabric.fabric_time_ns,
        exchange_ns: fabric.exchange_ns,
        pool_port_bytes: fabric.pool_port_bytes,
        pool_media_bytes: fabric.pool_media_bytes,
        fanin_saved_bytes: fabric.fanin_saved_bytes,
        global_grad_checksum: fabric.global_grad_checksum,
        host0_digest: fnv1a_hex(host0.as_bytes()),
        host0_matches_cluster: host0 == standalone,
    }
}

/// Everything `collective_sweep` writes, as one JSON document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveSweep {
    /// The fabric anchor rows, H ∈ {1, 2, 4, 8}.
    pub fabric: Vec<FabricRow>,
    /// The pool-vs-ring comparison grid.
    pub collective: Vec<CollectiveRow>,
}

/// The full collective sweep at an explicit worker count.
pub fn collective_sweep_with_workers(workers: usize) -> CollectiveSweep {
    let fabric = sweep_with_workers(&FABRIC_HOSTS, workers, |_, &hosts| fabric_row(hosts));
    let grid = collective_grid();
    let collective = sweep_with_workers(&grid, workers, |_, cell| collective_row(cell));
    CollectiveSweep { fabric, collective }
}

/// The full collective sweep across all cores.
pub fn collective_sweep() -> CollectiveSweep {
    collective_sweep_with_workers(teco_dl::num_cores())
}

/// The sweep's acceptance gate: every comparison cell must beat the ring
/// on completion time *and* moved bytes with bit-identical results, and
/// every fabric row must keep host 0 byte-identical to the standalone
/// cluster path. Returns the offending descriptions (empty = pass).
pub fn collective_divergences(sweep: &CollectiveSweep) -> Vec<String> {
    let mut bad = Vec::new();
    for r in &sweep.collective {
        if !r.results_match {
            bad.push(format!(
                "H={} G={}MB: pool and ring bits diverge",
                r.hosts,
                r.grad_bytes >> 20
            ));
        }
        if r.pool_ns >= r.ring_ns {
            bad.push(format!(
                "H={} G={}MB: pool {}ns not faster than ring {}ns",
                r.hosts,
                r.grad_bytes >> 20,
                r.pool_ns,
                r.ring_ns
            ));
        }
        if r.pool_port_bytes >= r.ring_link_bytes {
            bad.push(format!(
                "H={} G={}MB: pool moved {} bytes, ring {}",
                r.hosts,
                r.grad_bytes >> 20,
                r.pool_port_bytes,
                r.ring_link_bytes
            ));
        }
    }
    for r in &sweep.fabric {
        if !r.host0_matches_cluster {
            bad.push(format!("H={}: host 0 diverged from the standalone cluster path", r.hosts));
        }
    }
    bad
}

// ---------------------------------------------------------------------------
// Fabric chaos sweep
// ---------------------------------------------------------------------------

/// Host counts swept by the chaos grid.
pub const CHAOS_HOSTS: [usize; 2] = [2, 4];
/// Devices per host in the chaos workload.
pub const CHAOS_DEVICES: usize = 2;
/// Training steps in the chaos workload — long enough that the DBA
/// activates (step 4) *after* the kill and the readmission, so the
/// readmitted host must reproduce the dirty-byte merge history too.
pub const CHAOS_STEPS: u64 = 6;
/// The chaos workload's fixed seed.
pub const CHAOS_SEED: u64 = 42;
/// Step whose collective the scheduled kill fires in.
pub const CHAOS_KILL_STEP: u64 = 1;
/// Flat chunk index (within the kill phase) the host goes silent at.
pub const CHAOS_KILL_CHUNK: u64 = 1;
/// Full steps between the watchdog detection and hot readmission.
pub const CHAOS_READMIT_AFTER: u64 = 1;
/// Chunk size forcing multi-chunk shards on the small workload.
pub const CHAOS_CHUNK_BYTES: u64 = 64;
/// Staging-media fault rates swept (faults per RAS tick).
pub const CHAOS_MEDIA_RATES: [f64; 2] = [0.0, 1.0];

/// Where (if anywhere) the scheduled host kill fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosKill {
    /// Never-failed cell (the golden for its host count).
    None,
    /// Kill mid reduce-scatter.
    ReduceScatter,
    /// Kill mid all-gather.
    AllGather,
}

impl ChaosKill {
    /// The label carried in rows and the report table.
    pub fn label(self) -> &'static str {
        match self {
            ChaosKill::None => "none",
            ChaosKill::ReduceScatter => "reduce-scatter",
            ChaosKill::AllGather => "all-gather",
        }
    }

    fn phase(self) -> Option<CollectivePhase> {
        match self {
            ChaosKill::None => None,
            ChaosKill::ReduceScatter => Some(CollectivePhase::ReduceScatter),
            ChaosKill::AllGather => Some(CollectivePhase::AllGather),
        }
    }
}

/// One cell of the chaos grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Hosts in the fabric.
    pub hosts: usize,
    /// Kill schedule.
    pub kill: ChaosKill,
    /// Staging-media faults per RAS tick.
    pub media_rate: f64,
}

/// The chaos grid, hosts-major: H ∈ {2, 4} × kill ∈ {none,
/// reduce-scatter, all-gather} × media rate ∈ {0, 1}.
pub fn chaos_grid() -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for &hosts in &CHAOS_HOSTS {
        for &kill in &[ChaosKill::None, ChaosKill::ReduceScatter, ChaosKill::AllGather] {
            for &media_rate in &CHAOS_MEDIA_RATES {
                cells.push(ChaosCell { hosts, kill, media_rate });
            }
        }
    }
    cells
}

/// The fixed chaos workload for one cell. Kill cells lose their
/// highest-numbered host at step 1 and hot-readmit it one full step
/// after detection; media cells arm staging-media RAS.
pub fn chaos_cell_workload(cell: &ChaosCell) -> FabricChaosWorkload {
    let mut w = FabricChaosWorkload::small(cell.hosts, CHAOS_DEVICES, CHAOS_SEED);
    w.fabric.base.steps = CHAOS_STEPS;
    w.fabric.collective.chunk_bytes = CHAOS_CHUNK_BYTES;
    if cell.media_rate > 0.0 {
        w = w.with_media_faults(cell.media_rate);
    }
    if let Some(phase) = cell.kill.phase() {
        w = w
            .with_kill(HostKillSpec {
                host: cell.hosts as u64 - 1,
                step: CHAOS_KILL_STEP,
                phase,
                chunk: CHAOS_KILL_CHUNK,
            })
            .with_readmit_after(CHAOS_READMIT_AFTER);
    }
    w
}

/// One row of the chaos sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Hosts in the fabric.
    pub hosts: usize,
    /// Kill schedule label (`none` / `reduce-scatter` / `all-gather`).
    pub kill_phase: String,
    /// Staging-media faults per RAS tick.
    pub media_rate: f64,
    /// Steps the fabric completed.
    pub steps: u64,
    /// Watchdog host-loss detections.
    pub detections: u64,
    /// Survivor regroups (ladder rung 2).
    pub regroups: u64,
    /// Hot host readmissions.
    pub readmissions: u64,
    /// Per-chunk checksummed retries on transient port faults.
    pub chunk_retries: u64,
    /// Staging-media faults detected (scrub + on-access) before any
    /// poisoned byte reached a reduction.
    pub media_detections: u64,
    /// Collectives rerouted over the ring fallback (ladder rung 3).
    pub ring_fallbacks: u64,
    /// Watchdog deadline expiries.
    pub watchdog_timeouts: u64,
    /// Persistent media faults injected.
    pub ras_faults_injected: u64,
    /// Staging lines retired to spares.
    pub ras_lines_retired: u64,
    /// Corrupted bytes admitted to a reduction — must be zero.
    pub poisoned_admitted: u64,
    /// End-of-run fabric time in nanoseconds.
    pub fabric_time_ns: u64,
    /// FNV-1a-64 over every broadcast parameter line.
    pub param_checksum: u64,
    /// The never-failed same-H golden's parameter checksum.
    pub golden_param_checksum: u64,
    /// Byte-identity verdict against the golden (see [`chaos_row`]).
    pub converged: bool,
}

/// Compute one chaos row. Self-contained: the cell recomputes its own
/// never-failed, fault-free same-H golden, so rows can run on any
/// worker in any order.
///
/// `converged` requires zero poisoned bytes, the golden's parameter
/// checksum, the golden's per-device content checksums (the readmitted
/// host included), and golden per-step global-gradient checksums — the
/// full run for fault-only cells, the pre-kill prefix for kill cells
/// (the survivor accumulator restarts at the regroup; the post-kill
/// tail is asserted against the never-failed H−1 fabric by the
/// `fabric_chaos` acceptance suite, not re-derived here).
pub fn chaos_row(cell: &ChaosCell) -> ChaosRow {
    let golden_cell = ChaosCell { hosts: cell.hosts, kill: ChaosKill::None, media_rate: 0.0 };
    let golden =
        run_fabric_chaos(&chaos_cell_workload(&golden_cell)).expect("golden chaos run completes");
    let out = run_fabric_chaos(&chaos_cell_workload(cell)).expect("chaos run completes");
    let k = CHAOS_KILL_STEP as usize;
    let grads_ok = match cell.kill {
        ChaosKill::None => out.step_grad_checksums == golden.step_grad_checksums,
        _ => out.step_grad_checksums[..k] == golden.step_grad_checksums[..k],
    };
    let converged = out.poisoned_admitted == 0
        && grads_ok
        && out.param_checksum == golden.param_checksum
        && out.device_checksums == golden.device_checksums;
    ChaosRow {
        hosts: cell.hosts,
        kill_phase: cell.kill.label().to_string(),
        media_rate: cell.media_rate,
        steps: out.report.steps,
        detections: out.detections.len() as u64,
        regroups: out.regroups,
        readmissions: out.readmissions,
        chunk_retries: out.fstats.chunk_retries,
        media_detections: out.ras.detected_by_scrub + out.ras.detected_on_access,
        ring_fallbacks: out.fstats.ring_fallbacks,
        watchdog_timeouts: out.fstats.watchdog_timeouts,
        ras_faults_injected: out.ras.faults_injected,
        ras_lines_retired: out.ras.lines_retired,
        poisoned_admitted: out.poisoned_admitted,
        fabric_time_ns: out.report.fabric_time_ns,
        param_checksum: out.param_checksum,
        golden_param_checksum: golden.param_checksum,
        converged,
    }
}

/// All chaos rows across all cores.
pub fn chaos_rows() -> Vec<ChaosRow> {
    sweep(&chaos_grid(), |_, cell| chaos_row(cell))
}

/// The chaos sweep's acceptance gate: every cell byte-converged, zero
/// poisoned bytes anywhere, kill cells saw exactly one detection, one
/// regroup, and one readmission, never-failed cells saw none. Returns
/// the offending descriptions (empty = pass).
pub fn chaos_divergences(rows: &[ChaosRow]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in rows {
        let cell = format!("H={} kill={} rate={}", r.hosts, r.kill_phase, r.media_rate);
        if !r.converged {
            bad.push(format!("{cell}: diverged from the never-failed golden"));
        }
        if r.poisoned_admitted > 0 {
            bad.push(format!("{cell}: {} poisoned bytes admitted", r.poisoned_admitted));
        }
        if r.kill_phase == "none" {
            if r.detections != 0 || r.regroups != 0 || r.readmissions != 0 {
                bad.push(format!("{cell}: spurious loss events on a kill-free cell"));
            }
        } else if r.detections != 1 || r.regroups != 1 || r.readmissions != 1 {
            bad.push(format!(
                "{cell}: detections={} regroups={} readmissions={} (want 1 each)",
                r.detections, r.regroups, r.readmissions
            ));
        }
    }
    bad
}

// ---------------------------------------------------------------------------
// Placement sweep (tiered tensor placement × Table III models)
// ---------------------------------------------------------------------------

/// Training steps per placement cell.
pub const PLACEMENT_STEPS: u64 = 4;
/// DBA activation step for placement cells (activates mid-run).
pub const PLACEMENT_ACT_AFT: u64 = 2;
/// Giant-cache capacity for the scaled-down placement workloads.
pub const PLACEMENT_CACHE_BYTES: u64 = 1 << 20;
/// The BO autotuner's fixed seed.
pub const PLACEMENT_SEED: u64 = 11;

/// One cell of the placement grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementCell {
    /// Table III model name (resolved via [`ModelSpec::by_name`]).
    pub model: String,
    /// Tiered policy instead of the explicit single-tier instance?
    pub tiered: bool,
}

/// The placement grid, model-major: each Table III model under the
/// explicit single-tier policy instance, then the tiered policy.
pub fn placement_grid() -> Vec<PlacementCell> {
    let mut cells = Vec::new();
    for spec in ModelSpec::table3() {
        for &tiered in &[false, true] {
            cells.push(PlacementCell { model: spec.name.to_string(), tiered });
        }
    }
    cells
}

/// The non-default tiering policy every tiered cell runs: a small
/// device-resident tier for compact hot tensors, optimizer moments
/// spilled to plain host DRAM, params/grads staged in the giant cache.
pub fn placement_tiered_policy() -> TieredPolicy {
    TieredPolicy {
        device_capacity_bytes: 1 << 14,
        device_size_threshold: 2048,
        ..TieredPolicy::default()
    }
}

/// Scaled-down tensor shapes for one model: line counts derived from the
/// parameter count so every model lands on distinct, cache-fitting sizes.
pub fn placement_shapes(spec: &ModelSpec) -> (u64, u64, u64) {
    let param_lines = 64 + spec.params / 10_000_000;
    let grad_lines = param_lines / 4;
    let moment_bytes = 2 * grad_lines * 64;
    (param_lines, grad_lines, moment_bytes)
}

/// One row of `bench_results/placement_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementRow {
    /// Model display name.
    pub model: String,
    /// Policy label: `single-tier` or `tiered`.
    pub policy: String,
    /// BO-autotuned giant-cache size in MB.
    pub autotuned_mb: u64,
    /// Published Table III giant-cache size in MB.
    pub table3_mb: u64,
    /// End-of-run simulated time.
    pub sim_time_ns: u64,
    /// Bytes resident in the device tier at end of run.
    pub device_bytes: u64,
    /// Bytes resident in the giant cache at end of run.
    pub giant_cache_bytes: u64,
    /// Bytes resident in plain host DRAM at end of run.
    pub host_dram_bytes: u64,
    /// Step-boundary migrations executed.
    pub migrations: u64,
    /// Bytes moved by those migrations.
    pub migrated_bytes: u64,
    /// Link bytes CPU→device (parameter direction).
    pub bytes_to_device: u64,
    /// Link bytes device→CPU (gradient direction).
    pub bytes_to_host: u64,
    /// FNV-1a 64 over the serialized session snapshot — the byte-identity
    /// witness the CI sweep-smoke job diffs run-to-run.
    pub snapshot_digest: String,
}

/// Run one model's scaled workload under one explicit placement policy
/// and serialize the end state. Self-contained like every other sweep
/// row: the cell derives its own shapes and policy from the grid cell.
pub fn placement_row(cell: &PlacementCell) -> PlacementRow {
    let spec = ModelSpec::by_name(&cell.model).expect("placement cell names a known model");
    let policy = if cell.tiered {
        PlacementPolicy::Tiered(placement_tiered_policy())
    } else {
        PlacementPolicy::SingleTier
    };
    let (s, now) = run_placement_workload(&spec, TecoConfig::default().with_placement(policy));
    let tune = autotune_giant_cache(&spec, PLACEMENT_SEED);
    let (device_bytes, giant_cache_bytes, host_dram_bytes, migrations, migrated_bytes) =
        match s.placement() {
            Some(engine) => {
                let map = engine.map();
                let st = engine.stats();
                (
                    map.used(teco_mem::Tier::Device),
                    map.used(teco_mem::Tier::GiantCache),
                    map.used(teco_mem::Tier::HostDram),
                    st.migrations,
                    st.migrated_bytes,
                )
            }
            None => (0, s.giant_cache().allocated(), 0, 0, 0),
        };
    let snap_json = serde_json::to_string(&s.snapshot()).expect("serialize snapshot");
    PlacementRow {
        model: cell.model.clone(),
        policy: if cell.tiered { "tiered" } else { "single-tier" }.to_string(),
        autotuned_mb: tune.tuned_mb,
        table3_mb: tune.table3_mb,
        sim_time_ns: now.as_ns(),
        device_bytes,
        giant_cache_bytes,
        host_dram_bytes,
        migrations,
        migrated_bytes,
        bytes_to_device: s.stats().bytes_to_device,
        bytes_to_host: s.stats().bytes_to_host,
        snapshot_digest: fnv1a_hex(snap_json.as_bytes()),
    }
}

/// The fixed placement workload: params (broadcast-mostly), grads
/// (write-once per step), and optimizer moments (write-mostly) pushed for
/// [`PLACEMENT_STEPS`] steps with DBA activating mid-run.
pub fn run_placement_workload(spec: &ModelSpec, cfg: TecoConfig) -> (TecoSession, SimTime) {
    let (param_lines, grad_lines, moment_bytes) = placement_shapes(spec);
    let cfg = cfg
        .with_giant_cache_bytes(PLACEMENT_CACHE_BYTES)
        .with_act_aft_steps(PLACEMENT_ACT_AFT)
        .with_dirty_bytes(2);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, pbase) = s.alloc_tensor("params", param_lines * 64).expect("alloc params");
    let (_, gbase) = s.alloc_tensor("grads", grad_lines * 64).expect("alloc grads");
    let (_, mbase) = s.alloc_tensor("moment_m", moment_bytes).expect("alloc moments");
    let mut now = SimTime::ZERO;
    for step in 0..PLACEMENT_STEPS {
        for i in 0..grad_lines {
            let _ = s.push_grad_line(Addr(gbase.0 + i * 64), grad_line(step, i), now);
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        let lines: Vec<LineData> = (0..param_lines).map(|i| param_line(step, i)).collect();
        s.push_param_lines(pbase, &lines, now).expect("param push");
        let moments: Vec<LineData> =
            (0..moment_bytes / 64).map(|i| param_line(step.wrapping_add(17), i)).collect();
        s.push_param_lines(mbase, &moments, now).expect("moment push");
        now = s.cxlfence_params(now);
    }
    (s, now)
}

/// All placement rows across all cores.
pub fn placement_rows() -> Vec<PlacementRow> {
    sweep(&placement_grid(), |_, cell| placement_row(cell))
}

/// The placement sweep's acceptance gate:
///
/// 1. every single-tier row is byte-identical to a freshly-run session
///    whose config never mentions placement at all (the explicit
///    `SingleTier` policy instance *is* the legacy layout);
/// 2. every tiered row demonstrably changes placement — bytes resident
///    outside the giant cache, and a snapshot digest different from its
///    single-tier sibling;
/// 3. the autotuned giant-cache size tracks Table III within ratio
///    [0.7, 1.4] on every row.
///
/// Returns the offending descriptions (empty = pass).
pub fn placement_divergences(rows: &[PlacementRow]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in rows {
        let cell = format!("model={} policy={}", r.model, r.policy);
        let ratio = r.autotuned_mb as f64 / r.table3_mb as f64;
        if !(0.7..=1.4).contains(&ratio) {
            bad.push(format!(
                "{cell}: autotuned {} MB strays from Table III {} MB",
                r.autotuned_mb, r.table3_mb
            ));
        }
        if r.policy == "single-tier" {
            let spec = ModelSpec::by_name(&r.model).expect("known model");
            let (s, _) = run_placement_workload(&spec, TecoConfig::default());
            let legacy =
                fnv1a_hex(serde_json::to_string(&s.snapshot()).expect("serialize").as_bytes());
            if r.snapshot_digest != legacy {
                bad.push(format!(
                    "{cell}: explicit single-tier digest {} != legacy default {legacy}",
                    r.snapshot_digest
                ));
            }
            if r.device_bytes != 0 || r.host_dram_bytes != 0 || r.migrations != 0 {
                bad.push(format!("{cell}: single-tier row placed bytes outside the giant cache"));
            }
        } else {
            if r.device_bytes + r.host_dram_bytes == 0 {
                bad.push(format!("{cell}: tiered row placed nothing outside the giant cache"));
            }
            if let Some(single) =
                rows.iter().find(|s| s.model == r.model && s.policy == "single-tier")
            {
                if single.snapshot_digest == r.snapshot_digest {
                    bad.push(format!("{cell}: tiered digest equals the single-tier digest"));
                }
            } else {
                bad.push(format!("{cell}: no single-tier sibling row"));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_expected_shape() {
        assert_eq!(fault_grid().len(), 8);
        assert_eq!(scaling_grid().len(), 12);
        // Devices-major order, the order the JSON has always carried.
        assert_eq!(scaling_grid()[0], ScalingCell { devices: 1, batch: 4 });
        assert_eq!(scaling_grid()[3], ScalingCell { devices: 2, batch: 4 });
    }

    #[test]
    fn one_device_cell_is_its_own_baseline() {
        let row = scaling_row(&ScalingCell { devices: 1, batch: 4 });
        assert_eq!(row.cluster_time_ns, row.one_device_time_ns);
        assert_eq!(row.speedup_vs_one, 1.0);
        assert_eq!(row.efficiency_pct, 100.0);
        assert_eq!(row.host_wait_ns, 0);
    }

    #[test]
    fn datapath_grid_is_protocol_major() {
        let grid = datapath_grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0], DatapathCell { faulty: false, invalidation: false });
        assert_eq!(grid[1], DatapathCell { faulty: true, invalidation: false });
        assert_eq!(grid[2], DatapathCell { faulty: false, invalidation: true });
    }

    #[test]
    fn churn_grid_shape_and_none_cell_is_clean() {
        let grid = churn_grid();
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0], ChurnCell { devices: 2, kill: KillMode::None, media_rate: 0.0 });
        let row = churn_row(&grid[0]);
        assert_eq!(row.down_events, 0);
        assert_eq!(row.redistributed_lines, 0);
        assert_eq!(row.pool_checksum, row.clean_pool_checksum);
        assert!(row.converged);
    }

    #[test]
    fn churn_readmit_cell_converges_under_media_faults() {
        let row = churn_row(&ChurnCell { devices: 2, kill: KillMode::Readmit, media_rate: 1.0 });
        assert_eq!(row.down_events, 1);
        assert_eq!(row.readmits, 1);
        assert!(row.typed_errors >= 1, "kill must surface typed");
        assert!(row.redistributed_lines > 0);
        assert!(row.ras_faults_injected > 0, "media faults must fire");
        assert!(row.converged, "readmitted cell must converge to clean baseline");
    }

    #[test]
    fn collective_grid_shape_and_small_cell_beats_ring() {
        let grid = collective_grid();
        assert_eq!(grid.len(), 9);
        assert_eq!(grid[0], CollectiveCell { hosts: 2, grad_mb: 1 });
        let row = collective_row(&grid[0]);
        assert!(row.results_match, "pool and ring must agree bit for bit");
        assert!(row.speedup > 1.0, "pool must beat the ring: {row:?}");
        assert!(row.byte_ratio > 1.0, "pool must move fewer bytes: {row:?}");
        assert_eq!(row.pool_port_bytes, 3 << 20);
        assert_eq!(row.ring_link_bytes, 4 << 20);
    }

    #[test]
    fn fabric_anchor_holds_at_one_host_and_four() {
        let one = fabric_row(1);
        assert!(one.host0_matches_cluster, "H=1 must collapse to the cluster path");
        assert_eq!(one.exchange_ns, 0);
        assert_eq!(one.pool_port_bytes, 0);
        let four = fabric_row(4);
        assert!(four.host0_matches_cluster, "host 0 must stay unperturbed at H=4");
        assert!(four.exchange_ns > 0);
        assert!(four.fanin_saved_bytes > 0);
        let sweep = CollectiveSweep { fabric: vec![one, four], collective: Vec::new() };
        assert_eq!(collective_divergences(&sweep), Vec::<String>::new());
    }

    #[test]
    fn chaos_grid_shape_and_kill_cell_converges() {
        let grid = chaos_grid();
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0], ChaosCell { hosts: 2, kill: ChaosKill::None, media_rate: 0.0 });
        // One kill cell end to end — the full grid runs in the
        // fabric_chaos_sweep binary and the CI sweep-smoke job.
        let row =
            chaos_row(&ChaosCell { hosts: 2, kill: ChaosKill::ReduceScatter, media_rate: 1.0 });
        assert_eq!(row.detections, 1);
        assert_eq!(row.regroups, 1);
        assert_eq!(row.readmissions, 1);
        assert!(row.ras_faults_injected > 0, "media faults must fire");
        assert_eq!(row.poisoned_admitted, 0);
        assert!(row.converged, "kill cell must converge to the never-failed golden");
        assert_eq!(chaos_divergences(&[row]), Vec::<String>::new());
    }

    #[test]
    fn placement_grid_shape_and_tiered_cell_changes_placement() {
        let grid = placement_grid();
        assert_eq!(grid.len(), 10);
        assert_eq!(grid[0], PlacementCell { model: "GPT-2".into(), tiered: false });
        // One model's (single-tier, tiered) pair end to end — the full grid
        // runs in the placement_sweep binary and the CI sweep-smoke job.
        let single = placement_row(&grid[0]);
        let tiered = placement_row(&grid[1]);
        assert_eq!(single.device_bytes, 0);
        assert_eq!(single.host_dram_bytes, 0);
        assert!(tiered.host_dram_bytes > 0, "moments must spill to host DRAM: {tiered:?}");
        assert!(tiered.device_bytes > 0, "small grads must pin device-resident: {tiered:?}");
        assert_ne!(single.snapshot_digest, tiered.snapshot_digest);
        assert_eq!(placement_divergences(&[single, tiered]), Vec::<String>::new());
    }

    #[test]
    fn placement_rows_reproduce_run_to_run() {
        let cell = PlacementCell { model: "GCNII".into(), tiered: true };
        let a = placement_row(&cell);
        let b = placement_row(&cell);
        assert_eq!(a, b, "tiered placement row must be byte-reproducible");
    }

    #[test]
    fn zero_rate_fault_cell_matches_clean() {
        let row = fault_row(&FaultCell { dirty_bytes: 2, fault_rate: 0.0 });
        assert!(row.state_matches_clean);
        assert_eq!(row.slowdown_vs_clean, 1.0);
        assert_eq!(row.crc_errors, 0);
    }
}
