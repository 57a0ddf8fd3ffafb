//! The fabric chaos harness: host loss, staging-media faults, and
//! deadline-driven degradation injected into the multi-host training
//! fabric of [`crate::fabric`].
//!
//! PR 8's fabric assumes every host survives every all-reduce. This
//! module drops that assumption the same way [`crate::churn`] did for
//! devices inside one host: a deterministic kill schedule fires at a
//! chosen chunk boundary of a chosen step's collective, the collective
//! deadline watchdog converts the silence into a typed
//! [`CollectiveError::HostDown`], and the harness walks the degradation
//! ladder — per-chunk checksummed retry (inside
//! [`ChunkedCollective`]), survivor regroup (quarantine + H→H−1
//! re-begin, bit-identical to a never-failed H−1 fabric), and the ring
//! fallback under RAS retirement pressure. Hot readmission rebuilds the
//! lost host from the workload seed, fast-forwards its content streams
//! ([`ClusterDriver::fast_forward_steps`]), and catches it up from the
//! pooled parameter state so it converges byte-identically.
//!
//! Two structural anchors keep the harness honest:
//!
//! - a zero-fault, no-kill chaos workload routes through the plain
//!   [`FabricDriver`] loop, so its report is **byte-identical** to the
//!   PR 8 fault-free path;
//! - the chunk-granular path ([`ChaosDriver`]) is a
//!   [`crate::resume::Driver`] whose kill points are chunk boundaries
//!   ([`ChunkPoint`]): [`crate::resume::run_resumed`] round-trips the
//!   whole fabric — hosts, engine, and the in-flight op — through the
//!   serialized snapshot envelope, drops all live state, and finishes
//!   bit-identically.

use crate::cluster::{ClusterDriver, ClusterWorkloadSnapshot};
use crate::fabric::{FabricDriver, FabricError, FabricReport, FabricWorkload};
use crate::resume::{run_uninterrupted, Driver, StepBoundary, StepPoint, Workload};
use crate::session::SessionError;
use serde::{Deserialize, Serialize};
use teco_cxl::{
    ChunkedCollective, ChunkedCollectiveSnapshot, ChunkedOp, CollectiveError,
    CollectiveFaultConfig, CollectiveFaultStats, CollectivePhase, HostKill, RasConfig, RasStats,
};
use teco_mem::{lines_as_bytes, lines_from_bytes, LineData};
use teco_sim::{fnv_fold, Bytes, SimTime, FNV_SEED};

/// A scheduled host kill: the host stops responding at chunk boundary
/// `chunk` of phase `phase` of step `step`'s all-reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostKillSpec {
    /// Host to kill.
    pub host: u64,
    /// Training step whose collective the kill fires in.
    pub step: u64,
    /// Collective phase the kill fires in.
    pub phase: CollectivePhase,
    /// Flat chunk index (within the phase) at which the host goes
    /// silent; clamped to the phase's last item if out of range.
    pub chunk: u64,
}

/// A chunk boundary of one step's collective — where
/// [`crate::resume::run_resumed`] suspends, serializes, and restores the
/// whole fabric mid-all-reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkPoint {
    /// Training step of the targeted collective.
    pub step: u64,
    /// Phase within the collective.
    pub phase: CollectivePhase,
    /// Flat chunk index within the phase.
    pub chunk: u64,
}

impl StepPoint for ChunkPoint {
    fn step(&self) -> u64 {
        self.step
    }
}

/// A deterministic fabric chaos workload: fixed kill schedule, fixed
/// fault posture, byte-reproducible outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricChaosWorkload {
    /// The fabric under test.
    pub fabric: FabricWorkload,
    /// Collective fault posture (port faults, retry budget, watchdog
    /// deadline, staging-media RAS, ring-fallback threshold).
    pub faults: CollectiveFaultConfig,
    /// Scheduled host kill. `None` = the never-failed golden run.
    pub kill: Option<HostKillSpec>,
    /// Steps between a watchdog detection and hot readmission: the host
    /// readmits at the start of step `detection + 1 + readmit_after`.
    /// `None` leaves the fabric at H−1 for the rest of the run.
    pub readmit_after: Option<u64>,
}

impl FabricChaosWorkload {
    /// A small chaos workload over [`FabricWorkload::small`], fault
    /// machinery armed but quiet (no kill, no port faults, no RAS).
    pub fn small(hosts: usize, devices: usize, seed: u64) -> Self {
        FabricChaosWorkload {
            fabric: FabricWorkload::small(hosts, devices, seed),
            faults: CollectiveFaultConfig { seed, ..CollectiveFaultConfig::off() },
            kill: None,
            readmit_after: None,
        }
    }

    /// Schedule a host kill.
    pub fn with_kill(mut self, kill: HostKillSpec) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Readmit the killed host `after` full steps past its detection.
    pub fn with_readmit_after(mut self, after: u64) -> Self {
        self.readmit_after = Some(after);
        self
    }

    /// Arm transient pool-port faults at the given per-chunk rate.
    pub fn with_port_fault_rate(mut self, rate: f64) -> Self {
        self.faults.port_fault_rate = rate;
        self
    }

    /// Arm staging-media RAS with the given fault arrival rate.
    pub fn with_media_faults(mut self, per_tick: f64) -> Self {
        self.faults.ras = RasConfig {
            media_faults_per_tick: per_tick,
            scrub_lines_per_tick: 8,
            spare_lines: 32,
            seed: self.faults.seed,
        };
        self
    }

    /// Arm the ring fallback at the given retired-line threshold.
    pub fn with_ring_fallback(mut self, retired_lines: u64) -> Self {
        self.faults.ring_fallback_retired_lines = retired_lines;
        self
    }

    /// Does this workload need the chunk-granular fault path? A `false`
    /// here routes [`run_fabric_chaos`] through the plain [`FabricDriver`]
    /// loop, byte-identical to the fault-free fabric path.
    pub fn chunked(&self) -> bool {
        self.kill.is_some() || self.faults.engaged()
    }

    fn validate(&self) -> Result<(), FabricError> {
        if let Some(k) = &self.kill {
            if k.host as usize >= self.fabric.hosts {
                return Err(FabricError::Config(format!(
                    "kill targets host {} of {}",
                    k.host, self.fabric.hosts
                )));
            }
            if k.step >= self.fabric.base.steps {
                return Err(FabricError::Config(format!(
                    "kill step {} out of range {}",
                    k.step, self.fabric.base.steps
                )));
            }
        }
        Ok(())
    }
}

/// A watchdog detection observed by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosDetection {
    /// Host the watchdog declared lost.
    pub host: u64,
    /// Training step the loss surfaced in.
    pub step: u64,
    /// Collective phase detection fired in.
    pub phase: CollectivePhase,
    /// Flat chunk index at detection.
    pub chunk: u64,
    /// Simulated time of the declaration, in nanoseconds.
    pub time_ns: u64,
}

/// The chaos run's observable result. Serializing this to JSON is the
/// byte-identity oracle for the mid-collective resume path, and the
/// per-step gradient checksums are the regroup oracle: after a kill at
/// step `s`, `step_grad_checksums[s..]` of an H-host run equal the
/// never-failed (H−1)-host run's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricChaosOutcome {
    /// The fabric report (dead hosts report their last pre-kill state).
    pub report: FabricReport,
    /// Watchdog detections, in order.
    pub detections: Vec<ChaosDetection>,
    /// [`fnv_fold`] of each step's globally reduced gradient.
    pub step_grad_checksums: Vec<u64>,
    /// [`fnv_fold`] over every broadcast parameter line, in step order —
    /// the "final parameters" identity anchor.
    pub param_checksum: u64,
    /// Per-host, per-device giant-cache content checksums — the
    /// readmission convergence anchor.
    pub device_checksums: Vec<Vec<u64>>,
    /// Hosts alive at the end of the run.
    pub live_hosts: u64,
    /// Survivor regroups performed (ladder rung 2).
    pub regroups: u64,
    /// Hot host readmissions performed.
    pub readmissions: u64,
    /// Typed collective errors the harness absorbed.
    pub typed_errors: u64,
    /// Collective fault/recovery counters.
    pub fstats: CollectiveFaultStats,
    /// Staging-media RAS counters.
    pub ras: RasStats,
    /// Corrupted bytes that reached a reduction — structurally zero;
    /// measured, not assumed.
    pub poisoned_admitted: u64,
}

/// A readmission scheduled by a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PendingReadmit {
    host: u64,
    step: u64,
}

/// The chaos driver's plain state: serialized as is into its snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChaosState {
    /// The workload: kill plan, readmission delay, and the per-host
    /// workload a readmitted host is rebuilt from.
    w: FabricChaosWorkload,
    alive: Vec<bool>,
    /// This step's staged accumulators and ready times; a regroup
    /// re-begins the all-reduce from them.
    staged: Vec<Bytes>,
    ready: Vec<SimTime>,
    /// The all-reduce in flight between the grad fences and the
    /// broadcast of the current step.
    op: Option<ChunkedOp>,
    lag: SimTime,
    exchange_time: SimTime,
    grad_checksum: u64,
    param_checksum: u64,
    step_sums: Vec<u64>,
    global_grads: Bytes,
    detections: Vec<ChaosDetection>,
    regroups: u64,
    typed_errors: u64,
    steps_done: u64,
    readmit: Option<PendingReadmit>,
}

/// Everything the chaos driver holds, captured whole — including the
/// in-flight collective op when suspended mid-all-reduce.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosSnapshot {
    hosts: Vec<ClusterWorkloadSnapshot>,
    collective: ChunkedCollectiveSnapshot,
    /// The retained broadcast lines' bytes.
    last_params: Bytes,
    state: ChaosState,
}

/// The chunk-granular fabric driver: [`FabricDriver`]'s step shape with
/// the collective driven one chunk at a time through
/// [`ChunkedCollective`], so kills, faults, and snapshots land at chunk
/// boundaries. Its step runs in three parts: begin (readmission, grad
/// fences, staging), drive the all-reduce chunk by chunk, end (fold the
/// result, activation checks, broadcast).
#[derive(Debug)]
pub struct ChaosDriver {
    hosts: Vec<ClusterDriver>,
    cc: ChunkedCollective,
    last_params: Vec<LineData>,
    st: ChaosState,
}

impl ChaosDriver {
    fn max_live_time(&self) -> SimTime {
        self.hosts
            .iter()
            .zip(&self.st.alive)
            .filter(|&(_, &a)| a)
            .map(|(d, _)| d.cluster().cluster_time())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Hot readmission: rebuild the lost host from the workload seed,
    /// fast-forward its content streams past every step it missed, and
    /// catch its replicas up from the pooled parameter state. From here
    /// on it pushes exactly the lines it would have pushed had it never
    /// died — byte-identical convergence.
    fn maybe_readmit(&mut self) -> Result<(), FabricError> {
        let Some(p) = self.st.readmit else { return Ok(()) };
        if p.step != self.st.steps_done {
            return Ok(());
        }
        let host = p.host as usize;
        let mut fresh = ClusterDriver::for_host(&self.st.w.fabric.base, host)?;
        fresh.fast_forward_steps(self.st.steps_done);
        if !self.last_params.is_empty() {
            fresh.broadcast_lines(&self.last_params)?;
        }
        // After the catch-up broadcast: the next activation check must
        // see the same step index a never-failed host's would, so the
        // DBA schedule (and the stale bytes its dirty-byte merge leaves
        // behind) lines up byte-for-byte.
        fresh.align_step(self.st.steps_done);
        self.hosts[host] = fresh;
        self.st.alive[host] = true;
        self.cc.readmit_host(host);
        self.st.readmit = None;
        Ok(())
    }

    /// Begin a step: pending readmission, per-host grad fences, then
    /// stage the live hosts' accumulators and begin the all-reduce.
    fn begin_step(&mut self) -> Result<(), FabricError> {
        self.maybe_readmit()?;
        let n = self.hosts.len();
        self.st.staged = vec![Bytes::default(); n];
        self.st.ready = vec![SimTime::ZERO; n];
        for h in 0..n {
            if self.st.alive[h] {
                let host = &mut self.hosts[h];
                host.run_step_until(StepBoundary::AfterGradFence)?;
                host.cluster().pool().copy_grad_bytes_into(&mut self.st.staged[h]);
                self.st.ready[h] = host.cluster().cluster_time() + self.st.lag;
            }
        }
        self.st.op = Some(self.cc.begin_all_reduce(&self.st.staged, &self.st.ready)?);
        Ok(())
    }

    /// Drive the in-flight all-reduce one chunk at a time until it
    /// completes (`false`) or sits at chunk boundary `to` (`true`). A
    /// watchdog [`CollectiveError::HostDown`] is absorbed here:
    /// quarantine, regroup over the survivors, re-begin.
    fn drive(&mut self, to: Option<ChunkPoint>) -> Result<bool, FabricError> {
        let mut op = self.st.op.take().ok_or_else(|| Self::invalid("no step in flight".into()))?;
        let kill = self.st.w.kill.filter(|k| k.step == self.st.steps_done);
        let kill = kill.map(|k| HostKill { host: k.host, phase: k.phase, chunk: k.chunk });
        let at_point = loop {
            if to.is_some_and(|at| !op.done && at.phase == op.phase && at.chunk == op.flat) {
                break true;
            }
            match self.cc.step_chunk(&mut op, kill.as_ref()) {
                Ok(true) => break false,
                Ok(false) => {}
                Err(CollectiveError::HostDown { host, phase, chunk, time_ns }) => {
                    let step = self.st.steps_done;
                    self.st.detections.push(ChaosDetection { host, step, phase, chunk, time_ns });
                    self.st.typed_errors += 1;
                    self.cc.quarantine_host(host as usize);
                    self.st.alive[host as usize] = false;
                    self.st.regroups += 1;
                    if let Some(after) = self.st.w.readmit_after {
                        self.st.readmit = Some(PendingReadmit { host, step: step + 1 + after });
                    }
                    op = self.cc.begin_all_reduce(&self.st.staged, &self.st.ready)?;
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.st.op = Some(op);
        Ok(at_point)
    }

    /// End a step: fold the reduced gradient, run the activation checks,
    /// and broadcast one shared parameter update drawn from the lowest
    /// live host's pool stream.
    fn end_step(&mut self) -> Result<(), FabricError> {
        let op = self.st.op.take().ok_or_else(|| Self::invalid("no step in flight".into()))?;
        let (result, outcome) = op.into_result()?;
        self.st.lag = outcome.completion.saturating_sub(self.max_live_time());
        self.st.exchange_time += outcome.completion - outcome.start;
        self.st.grad_checksum = fnv_fold(self.st.grad_checksum, &result);
        self.st.step_sums.push(fnv_fold(FNV_SEED, &result));
        self.st.global_grads = Bytes(result);
        for h in 0..self.hosts.len() {
            if self.st.alive[h] {
                self.hosts[h].check_activation();
            }
        }
        let drawer =
            self.st.alive.iter().position(|&a| a).ok_or_else(|| {
                FabricError::Config("no live hosts left to draw parameters".into())
            })?;
        let mut lines = std::mem::take(&mut self.last_params);
        self.hosts[drawer].draw_param_lines(&mut lines);
        for line in &lines {
            self.st.param_checksum = fnv_fold(self.st.param_checksum, line.bytes());
        }
        for h in 0..self.hosts.len() {
            if self.st.alive[h] {
                self.hosts[h].broadcast_lines(&lines)?;
            }
        }
        self.last_params = lines;
        self.st.steps_done += 1;
        Ok(())
    }
}

impl Driver for ChaosDriver {
    type Workload = FabricChaosWorkload;
    type Point = ChunkPoint;
    type Snapshot = ChaosSnapshot;
    type Report = FabricChaosOutcome;
    type Error = FabricError;

    fn new(w: &FabricChaosWorkload) -> Result<Self, FabricError> {
        w.validate()?;
        let hosts = (0..w.fabric.hosts)
            .map(|h| ClusterDriver::for_host(&w.fabric.base, h))
            .collect::<Result<Vec<_>, SessionError>>()?;
        Ok(ChaosDriver {
            cc: ChunkedCollective::new(w.fabric.collective, w.faults)?,
            last_params: Vec::new(),
            st: ChaosState {
                w: w.clone(),
                alive: vec![true; hosts.len()],
                staged: Vec::new(),
                ready: Vec::new(),
                op: None,
                lag: SimTime::ZERO,
                exchange_time: SimTime::ZERO,
                grad_checksum: FNV_SEED,
                param_checksum: FNV_SEED,
                step_sums: Vec::new(),
                global_grads: Bytes::default(),
                detections: Vec::new(),
                regroups: 0,
                typed_errors: 0,
                steps_done: 0,
                readmit: None,
            },
            hosts,
        })
    }

    fn step(&self) -> u64 {
        self.st.steps_done
    }

    fn advance(
        &mut self,
        from: Option<ChunkPoint>,
        to: Option<ChunkPoint>,
    ) -> Result<(), FabricError> {
        if from.is_none() {
            self.begin_step()?;
        }
        match (self.drive(to)?, to) {
            (true, _) => Ok(()),
            (false, None) => self.end_step(),
            (false, Some(at)) => {
                Err(Self::invalid(format!("{at:?} is past its phase's last chunk")))
            }
        }
    }

    fn capture(&self) -> ChaosSnapshot {
        ChaosSnapshot {
            hosts: self.hosts.iter().map(|d| d.capture()).collect(),
            collective: self.cc.snapshot(),
            last_params: Bytes(lines_as_bytes(&self.last_params).to_vec()),
            state: self.st.clone(),
        }
    }

    fn restore(s: &ChaosSnapshot) -> Result<Self, FabricError> {
        let last_params = lines_from_bytes(&s.last_params)
            .map_err(|e| Self::invalid(format!("retained params have {e}")))?;
        Ok(ChaosDriver {
            hosts: s
                .hosts
                .iter()
                .map(ClusterDriver::restore)
                .collect::<Result<Vec<_>, SessionError>>()?,
            cc: ChunkedCollective::restore(&s.collective)?,
            last_params,
            st: s.state.clone(),
        })
    }

    fn report(&self) -> FabricChaosOutcome {
        let stats = self.cc.pool().stats();
        let report = FabricReport {
            hosts: self.hosts.len() as u64,
            steps: self.st.steps_done,
            fabric_time_ns: (self.max_live_time() + self.st.lag).as_ns(),
            exchange_ns: self.st.exchange_time.as_ns(),
            all_reduces: stats.all_reduces,
            pool_port_bytes: stats.port_bytes,
            pool_media_bytes: stats.media_bytes,
            fanin_saved_bytes: self.cc.pool().media().fanin_saved_bytes(),
            global_grad_checksum: self.st.grad_checksum,
            host_reports: self.hosts.iter().map(|d| d.report()).collect(),
        };
        let fstats = self.cc.fault_stats();
        FabricChaosOutcome {
            device_checksums: device_checksums(&report),
            live_hosts: self.st.alive.iter().filter(|&&a| a).count() as u64,
            regroups: self.st.regroups,
            readmissions: fstats.readmissions,
            typed_errors: self.st.typed_errors,
            ras: self.cc.ras_stats(),
            poisoned_admitted: fstats.poisoned_admitted,
            fstats,
            detections: self.st.detections.clone(),
            step_grad_checksums: self.st.step_sums.clone(),
            param_checksum: self.st.param_checksum,
            report,
        }
    }

    /// The first failing device audit, walking hosts in order.
    fn audit_error(&self) -> Option<String> {
        self.hosts.iter().find_map(|h| h.cluster().audit_status())
    }

    fn invalid(msg: String) -> FabricError {
        FabricError::Config(msg)
    }
}

impl Workload for FabricChaosWorkload {
    type Driver = ChaosDriver;
    fn steps(&self) -> u64 {
        self.fabric.base.steps
    }
}

/// Per-host, per-device giant-cache checksums of a fabric report.
fn device_checksums(report: &FabricReport) -> Vec<Vec<u64>> {
    report
        .host_reports
        .iter()
        .map(|hr| hr.devices.iter().map(|d| d.device_checksum).collect())
        .collect()
}

/// Run the chaos workload start to finish. Zero-fault, no-kill
/// workloads route through the plain [`FabricDriver`] loop (byte-identical
/// to the fault-free fabric); anything armed routes through
/// [`ChaosDriver`], the chunk-granular fault path that
/// [`crate::resume::run_uninterrupted`] runs unconditionally.
pub fn run_fabric_chaos(w: &FabricChaosWorkload) -> Result<FabricChaosOutcome, FabricError> {
    if w.chunked() {
        return Ok(run_uninterrupted(w)?.report);
    }
    // The fault-free anchor: with nothing armed, the chaos harness IS the
    // plain fabric loop — same driver, same report bytes.
    let mut d = FabricDriver::new(&w.fabric)?;
    let mut step_sums = Vec::new();
    let mut param_checksum = FNV_SEED;
    for _ in 0..w.fabric.base.steps {
        d.run_step()?;
        step_sums.push(fnv_fold(FNV_SEED, d.global_grads()));
        for line in d.last_params() {
            param_checksum = fnv_fold(param_checksum, line.bytes());
        }
    }
    let report = d.report();
    Ok(FabricChaosOutcome {
        device_checksums: device_checksums(&report),
        live_hosts: report.hosts,
        regroups: 0,
        readmissions: 0,
        typed_errors: 0,
        fstats: CollectiveFaultStats::default(),
        ras: RasStats::default(),
        poisoned_admitted: 0,
        detections: Vec::new(),
        step_grad_checksums: step_sums,
        param_checksum,
        report,
    })
}
