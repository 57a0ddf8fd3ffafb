//! Kill-injection harness: crash-consistent snapshots with bit-identical
//! resume, shared by every layer.
//!
//! Each layer replays the same training step (Listing 1: gradient flush +
//! `CXLFENCE`, `check_activation`, parameter push + `CXLFENCE`) through a
//! [`Driver`]: the single session ([`SessionDriver`]), the N-device
//! cluster ([`crate::cluster::ClusterDriver`]), the H-host fabric
//! ([`crate::fabric::FabricDriver`]) and fabric chaos
//! ([`crate::fabric_chaos::ChaosDriver`], whose kills land between two
//! chunks of a collective). [`run_uninterrupted`] runs a [`Workload`]
//! start to finish; [`run_resumed`] **kills** it at a point: it captures
//! the driver's snapshot, serializes it through the versioned+checksummed
//! envelope ([`teco_sim::snapshot`]), *drops every piece of live state*,
//! then restores from nothing but the serialized bytes and runs the
//! remainder. The contract — enforced by `tests/snapshot_resume.rs` and
//! the `soak_resume` experiment's gate — is that the resumed run's report serializes
//! to JSON **byte-identical** to an uninterrupted run of the same
//! workload, including with nonzero fault rates where the kill lands
//! between two retries of the link's replay schedule.
//!
//! Snapshot/restore occurrence counts live in [`RunOutcome`], *outside* the
//! report: the report must not know whether its run was interrupted, or
//! byte-identity would be unachievable by construction.

use crate::config::TecoConfig;
use crate::session::{SessionError, SessionSnapshot, SessionStats, TecoSession};
use serde::{Deserialize, Serialize};
use teco_cxl::{FaultStats, FenceStats};
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{decode_snapshot, encode_snapshot, fnv_fold, SimRng, SimTime, FNV_SEED};

/// A point a kill can land at: a step plus a position inside it.
pub trait StepPoint: Copy {
    /// The 0-based step the point sits in.
    fn step(&self) -> u64;
}

/// One layer's live state, as the kill/resume harness drives it.
pub trait Driver: Sized {
    /// What the driver is built from.
    type Workload;
    /// Where a kill may land.
    type Point: StepPoint;
    /// Everything the driver holds at a kill point, captured whole.
    type Snapshot: Serialize + Deserialize;
    /// The byte-identity-comparable result.
    type Report;
    /// The layer's typed error.
    type Error;

    /// Build the driver before its first step.
    fn new(w: &Self::Workload) -> Result<Self, Self::Error>;
    /// Completed steps.
    fn step(&self) -> u64;
    /// Run the current step from `from` (exclusive; `None`: the step's
    /// start) to `to` (inclusive; `None`: the step's end).
    fn advance(
        &mut self,
        from: Option<Self::Point>,
        to: Option<Self::Point>,
    ) -> Result<(), Self::Error>;
    /// Capture the driver whole.
    fn capture(&self) -> Self::Snapshot;
    /// Rebuild a driver from a captured state.
    fn restore(s: &Self::Snapshot) -> Result<Self, Self::Error>;
    /// The report at the current step.
    fn report(&self) -> Self::Report;
    /// The final audit walk's failure message; `None` when auditing is off
    /// or every walk passed.
    fn audit_error(&self) -> Option<String>;
    /// The layer's configuration error, carrying `msg`.
    fn invalid(msg: String) -> Self::Error;
}

/// A fixed-seed workload the harness can run, kill, and resume.
pub trait Workload {
    /// The driver that runs it.
    type Driver: Driver<Workload = Self>;
    /// Training steps to simulate.
    fn steps(&self) -> u64;
}

/// A report plus the harness-side bookkeeping that must stay *out* of it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome<R> {
    /// The byte-identity-comparable report.
    pub report: R,
    /// Snapshots the harness took (0 for an uninterrupted run).
    pub snapshots_taken: u64,
    /// Restores the harness performed (0 for an uninterrupted run).
    pub restores: u64,
    /// Serialized snapshot size in bytes (0 for an uninterrupted run).
    pub snapshot_bytes: u64,
    /// The final audit walk's failure message; `None` when auditing is off
    /// or the walk passed.
    pub last_audit_error: Option<String>,
}

/// Run the workload start to finish with no interruption.
pub fn run_uninterrupted<W, D>(w: &W) -> Result<RunOutcome<D::Report>, D::Error>
where
    W: Workload<Driver = D>,
    D: Driver<Workload = W>,
{
    let mut d = D::new(w)?;
    run_until(&mut d, w.steps())?;
    Ok(outcome(&d, None))
}

/// Run the workload, kill it at `at`, restore from serialized bytes, and
/// finish. The returned outcome's `report` must serialize byte-identical
/// to [`run_uninterrupted`]'s. A kill point the run never reaches is the
/// layer's configuration error.
pub fn run_resumed<W, D>(w: &W, at: D::Point) -> Result<RunOutcome<D::Report>, D::Error>
where
    W: Workload<Driver = D>,
    D: Driver<Workload = W>,
{
    if at.step() >= w.steps() {
        return Err(D::invalid(format!("kill step {} out of range {}", at.step(), w.steps())));
    }
    let mut d = D::new(w)?;
    run_until(&mut d, at.step())?;
    d.advance(None, Some(at))?;

    // The kill: serialize, destroy every piece of live state, restore from
    // nothing but the bytes.
    let bytes = encode_snapshot(&d.capture());
    drop(d);
    let snap: D::Snapshot = decode_snapshot(&bytes).map_err(|e| D::invalid(e.to_string()))?;
    let mut d = D::restore(&snap)?;

    d.advance(Some(at), None)?;
    run_until(&mut d, w.steps())?;
    Ok(outcome(&d, Some(bytes.len() as u64)))
}

/// Run whole steps until `steps` are complete.
fn run_until<D: Driver>(d: &mut D, steps: u64) -> Result<(), D::Error> {
    while d.step() < steps {
        d.advance(None, None)?;
    }
    Ok(())
}

fn outcome<D: Driver>(d: &D, snapshot_bytes: Option<u64>) -> RunOutcome<D::Report> {
    let kills = snapshot_bytes.is_some() as u64;
    RunOutcome {
        report: d.report(),
        snapshots_taken: kills,
        restores: kills,
        snapshot_bytes: snapshot_bytes.unwrap_or(0),
        last_audit_error: d.audit_error(),
    }
}

/// A fixed-seed session workload the harness can run, kill, and resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResumeWorkload {
    /// Session configuration (protocol, DBA schedule, fault model, audit).
    pub cfg: TecoConfig,
    /// Training steps to simulate.
    pub steps: u64,
    /// Parameter lines pushed (bulk) per step.
    pub param_lines: u64,
    /// Gradient lines pushed per step.
    pub grad_lines: u64,
    /// Seed for the synthetic line-content stream.
    pub seed: u64,
}

impl ResumeWorkload {
    /// A small default workload: 12 steps, 32 param + 8 grad lines per
    /// step, DBA activating at step 4.
    pub fn small(seed: u64) -> Self {
        ResumeWorkload {
            cfg: TecoConfig::default().with_act_aft_steps(4).with_giant_cache_bytes(1 << 20),
            steps: 12,
            param_lines: 32,
            grad_lines: 8,
            seed,
        }
    }
}

/// Where inside a step the harness may snapshot (and a kill may land).
/// Each boundary names the end of one phase of the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepBoundary {
    /// After the gradient flush and its `CXLFENCE`.
    AfterGradFence,
    /// After `check_activation` (mid-step: gradients fenced, parameters
    /// not yet pushed).
    AfterActivation,
    /// After the parameter push and its `CXLFENCE` (end of step).
    AfterParamFence,
}

impl StepBoundary {
    /// Every boundary, in step order.
    pub const ALL: [StepBoundary; 3] = [
        StepBoundary::AfterGradFence,
        StepBoundary::AfterActivation,
        StepBoundary::AfterParamFence,
    ];

    /// The phases a driver runs going from `from` (exclusive; `None`: the
    /// step's start) to `to` (inclusive; `None`: the step's end), each
    /// named by the boundary it ends at.
    pub fn span(from: Option<Self>, to: Option<Self>) -> impl Iterator<Item = Self> {
        let lo = from.map_or(0, |b| b as usize + 1);
        let hi = to.map_or(Self::ALL.len(), |b| b as usize + 1);
        Self::ALL.into_iter().take(hi).skip(lo)
    }
}

/// A kill instruction: snapshot at this boundary of this step, drop all
/// live state, restore from bytes, continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillPoint {
    /// 0-based step index at which to kill.
    pub step: u64,
    /// Boundary within that step.
    pub boundary: StepBoundary,
}

impl StepPoint for KillPoint {
    fn step(&self) -> u64 {
        self.step
    }
}

/// The run's observable result. Serializing this to JSON is the
/// byte-identity oracle: interrupted and uninterrupted runs of the same
/// workload must produce the same bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResumeReport {
    /// Steps completed.
    pub steps: u64,
    /// Session statistics.
    pub stats: SessionStats,
    /// Merged fault/recovery counters.
    pub fault: FaultStats,
    /// Fence counters.
    pub fence: FenceStats,
    /// Final simulated time in nanoseconds.
    pub sim_time_ns: u64,
    /// Regions degraded to the baseline path, in degradation order.
    pub degraded: Vec<String>,
    /// [`fnv_fold`] over every written giant-cache line, in address order
    /// — the device-memory end state, compressed to one word.
    pub device_checksum: u64,
    /// Was the paranoid auditor enabled for this run?
    pub audit_enabled: bool,
}

/// Everything the workload driver holds between steps, captured whole.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSnapshot {
    /// The session's checkpoint image.
    pub session: SessionSnapshot,
    /// The content-stream RNG state.
    pub rng: [u64; 4],
    /// Simulated clock in picoseconds (the clock's native precision —
    /// nanoseconds would truncate and break bit-identity).
    pub now_ps: u64,
    /// Next step to run.
    pub step: u64,
    /// Parameter region base address.
    pub param_base: u64,
    /// Gradient region base address.
    pub grad_base: u64,
}

/// Live driver state for a [`ResumeWorkload`] (what a kill destroys).
pub struct SessionDriver {
    session: TecoSession,
    rng: SimRng,
    now: SimTime,
    step: u64,
    param_base: Addr,
    grad_base: Addr,
    /// The parameter push's line buffer, reused every step (not part of
    /// the snapshot).
    param_buf: Vec<LineData>,
}

impl SessionDriver {
    fn random_line(&mut self) -> LineData {
        let mut l = LineData::zeroed();
        for w in 0..(LINE_BYTES / 4) {
            l.set_word(w, self.rng.next_u64() as u32);
        }
        l
    }

    /// Lines of the region at `base`, recovered from the region registry so
    /// a restored driver needs nothing beyond the snapshot.
    fn region_lines(&self, base: Addr) -> u64 {
        (self.session.giant_cache().regions().lookup(base))
            .map(|r| r.size / LINE_BYTES as u64)
            .expect("regions were allocated at driver construction")
    }

    /// Run the phase of the current step that ends at `b`.
    fn phase(&mut self, b: StepBoundary) -> Result<(), SessionError> {
        match b {
            // Gradient flush + fence (inside loss.backward()).
            StepBoundary::AfterGradFence => {
                for i in 0..self.region_lines(self.grad_base) {
                    let line = self.random_line();
                    let addr = Addr(self.grad_base.0 + i * LINE_BYTES as u64);
                    self.session.push_grad_line(addr, line, self.now)?;
                }
                self.now = self.session.cxlfence_grads(self.now);
            }
            // Listing 1's one TECO line.
            StepBoundary::AfterActivation => {
                self.session.check_activation(self.step);
            }
            // Bulk parameter push + fence (inside optimizer.step()).
            StepBoundary::AfterParamFence => {
                let n = self.region_lines(self.param_base);
                let mut lines = std::mem::take(&mut self.param_buf);
                lines.clear();
                lines.extend((0..n).map(|_| self.random_line()));
                let r = self.session.push_param_lines(self.param_base, &lines, self.now);
                self.param_buf = lines;
                r?;
                self.now = self.session.cxlfence_params(self.now);
                self.step += 1;
            }
        }
        Ok(())
    }
}

impl Driver for SessionDriver {
    type Workload = ResumeWorkload;
    type Point = KillPoint;
    type Snapshot = WorkloadSnapshot;
    type Report = ResumeReport;
    type Error = SessionError;

    fn new(w: &ResumeWorkload) -> Result<Self, SessionError> {
        let mut session = TecoSession::new(w.cfg.clone())?;
        let (_, param_base) = session.alloc_tensor("params", w.param_lines * LINE_BYTES as u64)?;
        let (_, grad_base) = session.alloc_tensor("grads", w.grad_lines * LINE_BYTES as u64)?;
        Ok(SessionDriver {
            session,
            rng: SimRng::seed_from_u64(w.seed),
            now: SimTime::ZERO,
            step: 0,
            param_base,
            grad_base,
            param_buf: Vec::new(),
        })
    }

    fn step(&self) -> u64 {
        self.step
    }

    fn advance(
        &mut self,
        from: Option<KillPoint>,
        to: Option<KillPoint>,
    ) -> Result<(), SessionError> {
        StepBoundary::span(from.map(|k| k.boundary), to.map(|k| k.boundary))
            .try_for_each(|b| self.phase(b))
    }

    fn capture(&self) -> WorkloadSnapshot {
        WorkloadSnapshot {
            session: self.session.snapshot(),
            rng: self.rng.state(),
            now_ps: self.now.as_ps(),
            step: self.step,
            param_base: self.param_base.0,
            grad_base: self.grad_base.0,
        }
    }

    fn restore(s: &WorkloadSnapshot) -> Result<Self, SessionError> {
        Ok(SessionDriver {
            session: TecoSession::from_snapshot(&s.session)?,
            rng: SimRng::from_state(s.rng),
            now: SimTime::from_ps(s.now_ps),
            step: s.step,
            param_base: Addr(s.param_base),
            grad_base: Addr(s.grad_base),
            param_buf: Vec::new(),
        })
    }

    fn report(&self) -> ResumeReport {
        device_report(&self.session, self.step, self.now)
    }

    fn audit_error(&self) -> Option<String> {
        audit_status(&self.session)
    }

    fn invalid(msg: String) -> SessionError {
        SessionError::Config(msg)
    }
}

impl Workload for ResumeWorkload {
    type Driver = SessionDriver;
    fn steps(&self) -> u64 {
        self.steps
    }
}

/// Build the per-device [`ResumeReport`] for a session at `now`. Shared
/// between this harness and the cluster layer so an N=1 cluster's device
/// report is byte-identical to the single-device path *by construction* —
/// both run through this exact function.
pub(crate) fn device_report(session: &TecoSession, steps: u64, now: SimTime) -> ResumeReport {
    // Written lines in address order; quarantined lines (unreadable by
    // design) hash as a zero line.
    let gc = session.giant_cache();
    let device_checksum = gc.written_line_indices().fold(FNV_SEED, |h, idx| {
        let line = gc
            .read_line(Addr(idx as u64 * LINE_BYTES as u64))
            .map(|l| *l.bytes())
            .unwrap_or([0u8; LINE_BYTES]);
        fnv_fold(h, &line)
    });
    ResumeReport {
        steps,
        stats: session.stats(),
        fault: session.fault_report(),
        fence: session.fence_stats(),
        sim_time_ns: now.as_ns(),
        degraded: session.degraded_regions().to_vec(),
        device_checksum,
        audit_enabled: session.audit_enabled(),
    }
}

/// The final audit walk's status: `None` when auditing is off or the walk
/// passed; the violation message otherwise.
pub(crate) fn audit_status(session: &TecoSession) -> Option<String> {
    session.run_audit().err().map(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric_chaos::{ChunkPoint, FabricChaosWorkload};
    use crate::{ClusterWorkload, FabricError, FabricWorkload};
    use teco_cxl::{CollectivePhase, FaultConfig};

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

    fn all_kill_points(w: &ResumeWorkload) -> Vec<KillPoint> {
        let mut pts = Vec::new();
        for step in [0, w.steps / 2, w.steps - 1] {
            for boundary in StepBoundary::ALL {
                pts.push(KillPoint { step, boundary });
            }
        }
        pts
    }

    #[test]
    fn zero_fault_resume_is_byte_identical_at_every_boundary() {
        let w = ResumeWorkload::small(42);
        let base = run_uninterrupted(&w).unwrap();
        let base_json = serde_json::to_string(&base.report).unwrap();
        for kill in all_kill_points(&w) {
            let resumed = run_resumed(&w, kill).unwrap();
            assert_eq!(resumed.snapshots_taken, 1);
            assert_eq!(resumed.restores, 1);
            assert!(resumed.snapshot_bytes > 0);
            let json = serde_json::to_string(&resumed.report).unwrap();
            assert_eq!(json, base_json, "kill at {kill:?} diverged");
        }
    }

    #[test]
    fn faulty_resume_is_byte_identical_mid_retry_schedule() {
        let w = faulty_workload(7);
        let base = run_uninterrupted(&w).unwrap();
        assert!(base.report.fault.any(), "fault model must actually fire");
        let base_json = serde_json::to_string(&base.report).unwrap();
        for kill in all_kill_points(&w) {
            let resumed = run_resumed(&w, kill).unwrap();
            let json = serde_json::to_string(&resumed.report).unwrap();
            assert_eq!(json, base_json, "kill at {kill:?} diverged");
        }
    }

    #[test]
    fn audited_run_passes_and_matches_unaudited_physics() {
        let mut audited = ResumeWorkload::small(3);
        audited.cfg = audited.cfg.with_audit(true);
        let plain = ResumeWorkload::small(3);
        let a = run_uninterrupted(&audited).unwrap();
        let p = run_uninterrupted(&plain).unwrap();
        assert!(a.report.audit_enabled);
        assert_eq!(a.last_audit_error, None, "auditor must pass");
        // Auditing changes observation, never physics.
        assert_eq!(a.report.stats, p.report.stats);
        assert_eq!(a.report.sim_time_ns, p.report.sim_time_ns);
        assert_eq!(a.report.device_checksum, p.report.device_checksum);
    }

    #[test]
    fn audited_faulty_resume_round_trips_the_shadow() {
        let mut w = faulty_workload(19);
        w.cfg = w.cfg.with_audit(true);
        let base = run_uninterrupted(&w).unwrap();
        assert_eq!(base.last_audit_error, None);
        let kill = KillPoint { step: w.steps / 2, boundary: StepBoundary::AfterActivation };
        let resumed = run_resumed(&w, kill).unwrap();
        assert_eq!(resumed.last_audit_error, None, "restored shadow must still audit clean");
        assert_eq!(
            serde_json::to_string(&resumed.report).unwrap(),
            serde_json::to_string(&base.report).unwrap(),
        );
    }

    #[test]
    fn kill_points_outside_the_run_are_config_errors() {
        let past = |steps| KillPoint { step: steps, boundary: StepBoundary::AfterGradFence };
        let w = ResumeWorkload::small(1);
        assert!(matches!(run_resumed(&w, past(w.steps)), Err(SessionError::Config(_))));
        let w = ClusterWorkload::small(2, 1);
        assert!(matches!(run_resumed(&w, past(w.steps)), Err(SessionError::Config(_))));
        let w = FabricWorkload::small(2, 2, 1);
        assert!(matches!(run_resumed(&w, past(w.base.steps)), Err(FabricError::Config(_))));
        // A chunk past the phase's last one is never reached.
        let w = FabricChaosWorkload::small(2, 2, 1).with_port_fault_rate(0.25);
        for (step, chunk) in [(w.fabric.base.steps, 0), (1, 1 << 20)] {
            let at = ChunkPoint { step, phase: CollectivePhase::AllGather, chunk };
            assert!(matches!(run_resumed(&w, at), Err(FabricError::Config(_))), "{at:?}");
        }
    }
}
