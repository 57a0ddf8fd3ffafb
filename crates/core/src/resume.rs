//! Kill-injection harness: crash-consistent snapshots with bit-identical
//! resume.
//!
//! The harness drives a fixed-seed session workload (the same shape as the
//! offload crate's fault sweeps: per step, a gradient flush + fence, the
//! `check_activation` call, a bulk parameter push + fence) and can **kill**
//! the run at any configured step boundary: it captures a
//! [`WorkloadSnapshot`], serializes it through the versioned+checksummed
//! envelope ([`teco_sim::snapshot`]), *drops every piece of live state*,
//! then restores from nothing but the serialized bytes and runs the
//! remainder. The contract — enforced by `tests/snapshot_resume.rs` and the
//! CI `sweep-smoke` job — is that the resumed run's [`ResumeReport`]
//! serializes to JSON **byte-identical** to an uninterrupted run of the
//! same workload, including with nonzero fault rates where the kill lands
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
use teco_sim::{decode_snapshot, encode_snapshot, SimRng, SimTime, SnapshotError};

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

/// A kill instruction: snapshot at this boundary of this step, drop all
/// live state, restore from bytes, continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillPoint {
    /// 0-based step index at which to kill.
    pub step: u64,
    /// Boundary within that step.
    pub boundary: StepBoundary,
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
    /// FNV-1a-64 over every written giant-cache line, in address order —
    /// the device-memory end state, compressed to one word.
    pub device_checksum: u64,
    /// Was the paranoid auditor enabled for this run?
    pub audit_enabled: bool,
}

/// A report plus the harness-side bookkeeping that must stay *out* of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// The byte-identity-comparable report.
    pub report: ResumeReport,
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

/// Live driver state (what a kill destroys).
struct Driver {
    session: TecoSession,
    rng: SimRng,
    now: SimTime,
    step: u64,
    param_base: Addr,
    grad_base: Addr,
}

impl Driver {
    fn new(w: &ResumeWorkload) -> Result<Self, SessionError> {
        let mut session = TecoSession::new(w.cfg.clone())?;
        let (_, param_base) = session.alloc_tensor("params", w.param_lines * LINE_BYTES as u64)?;
        let (_, grad_base) = session.alloc_tensor("grads", w.grad_lines * LINE_BYTES as u64)?;
        Ok(Driver {
            session,
            rng: SimRng::seed_from_u64(w.seed),
            now: SimTime::ZERO,
            step: 0,
            param_base,
            grad_base,
        })
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
        Ok(Driver {
            session: TecoSession::from_snapshot(&s.session)?,
            rng: SimRng::from_state(s.rng),
            now: SimTime::from_ps(s.now_ps),
            step: s.step,
            param_base: Addr(s.param_base),
            grad_base: Addr(s.grad_base),
        })
    }

    fn random_line(&mut self) -> LineData {
        let mut l = LineData::zeroed();
        for w in 0..(LINE_BYTES / 4) {
            l.set_word(w, self.rng.next_u64() as u32);
        }
        l
    }

    /// Per-step line counts, recovered from the region registry so a
    /// restored driver needs nothing beyond the snapshot.
    fn grad_lines(&self) -> u64 {
        (self.session.giant_cache().regions().lookup(self.grad_base))
            .map(|r| r.size / LINE_BYTES as u64)
            .expect("grad region was allocated at driver construction")
    }

    fn param_lines(&self) -> u64 {
        (self.session.giant_cache().regions().lookup(self.param_base))
            .map(|r| r.size / LINE_BYTES as u64)
            .expect("param region was allocated at driver construction")
    }

    /// Run the current step from its start up to (and including) `until`.
    fn run_step_until(&mut self, until: StepBoundary) -> Result<(), SessionError> {
        // Gradient flush + fence (inside loss.backward()).
        for i in 0..self.grad_lines() {
            let line = self.random_line();
            self.session.push_grad_line(
                Addr(self.grad_base.0 + i * LINE_BYTES as u64),
                line,
                self.now,
            )?;
        }
        self.now = self.session.cxlfence_grads(self.now);
        if until == StepBoundary::AfterGradFence {
            return Ok(());
        }
        // Listing 1's one TECO line.
        self.session.check_activation(self.step);
        if until == StepBoundary::AfterActivation {
            return Ok(());
        }
        self.push_params_and_fence()?;
        self.step += 1;
        Ok(())
    }

    /// Finish the current step from `after` (exclusive) to its end.
    fn finish_step_from(&mut self, after: StepBoundary) -> Result<(), SessionError> {
        match after {
            StepBoundary::AfterParamFence => Ok(()), // step completed pre-kill
            StepBoundary::AfterGradFence => {
                self.session.check_activation(self.step);
                self.push_params_and_fence()?;
                self.step += 1;
                Ok(())
            }
            StepBoundary::AfterActivation => {
                self.push_params_and_fence()?;
                self.step += 1;
                Ok(())
            }
        }
    }

    /// Bulk parameter push + fence (inside optimizer.step()).
    fn push_params_and_fence(&mut self) -> Result<(), SessionError> {
        let n = self.param_lines();
        let lines: Vec<LineData> = (0..n).map(|_| self.random_line()).collect();
        self.session.push_param_lines(self.param_base, &lines, self.now)?;
        self.now = self.session.cxlfence_params(self.now);
        Ok(())
    }

    fn report(&self, steps: u64) -> ResumeReport {
        device_report(&self.session, steps, self.now)
    }
}

/// Build the per-device [`ResumeReport`] for a session at `now`. Shared
/// between this harness and the cluster layer so an N=1 cluster's device
/// report is byte-identical to the single-device path *by construction* —
/// both run through this exact function.
pub(crate) fn device_report(session: &TecoSession, steps: u64, now: SimTime) -> ResumeReport {
    // FNV-1a-64 over written lines, in address order; quarantined lines
    // (unreadable by design) hash as a zero line.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let gc = session.giant_cache();
    for idx in gc.written_line_indices() {
        let line = gc
            .read_line(Addr(idx as u64 * LINE_BYTES as u64))
            .map(|l| *l.bytes())
            .unwrap_or([0u8; LINE_BYTES]);
        for b in line {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    ResumeReport {
        steps,
        stats: session.stats(),
        fault: session.fault_report(),
        fence: session.fence_stats(),
        sim_time_ns: now.as_ns(),
        degraded: session.degraded_regions().to_vec(),
        device_checksum: h,
        audit_enabled: session.audit_enabled(),
    }
}

/// Run the workload start to finish with no interruption.
pub fn run_uninterrupted(w: &ResumeWorkload) -> Result<RunOutcome, SessionError> {
    let mut d = Driver::new(w)?;
    for _ in 0..w.steps {
        d.run_step_until(StepBoundary::AfterParamFence)?;
    }
    let last_audit_error = audit_status(&d.session);
    Ok(RunOutcome {
        report: d.report(w.steps),
        snapshots_taken: 0,
        restores: 0,
        snapshot_bytes: 0,
        last_audit_error,
    })
}

/// Run the workload, kill it at `kill`, restore from serialized bytes, and
/// finish. The returned outcome's `report` must serialize byte-identical
/// to [`run_uninterrupted`]'s.
pub fn run_resumed(w: &ResumeWorkload, kill: KillPoint) -> Result<RunOutcome, SessionError> {
    assert!(kill.step < w.steps, "kill step {} out of range {}", kill.step, w.steps);
    let mut d = Driver::new(w)?;
    for _ in 0..kill.step {
        d.run_step_until(StepBoundary::AfterParamFence)?;
    }
    d.run_step_until(kill.boundary)?;

    // The kill: serialize, destroy every piece of live state, restore from
    // nothing but the bytes.
    let bytes = encode_snapshot(&d.capture());
    let snapshot_bytes = bytes.len() as u64;
    drop(d);
    let snap: WorkloadSnapshot =
        decode_snapshot(&bytes).map_err(|e: SnapshotError| SessionError::Config(e.to_string()))?;
    let mut d = Driver::restore(&snap)?;

    d.finish_step_from(kill.boundary)?;
    while d.step < w.steps {
        d.run_step_until(StepBoundary::AfterParamFence)?;
    }
    let last_audit_error = audit_status(&d.session);
    Ok(RunOutcome {
        report: d.report(w.steps),
        snapshots_taken: 1,
        restores: 1,
        snapshot_bytes,
        last_audit_error,
    })
}

/// The final audit walk's status: `None` when auditing is off or the walk
/// passed; the violation message otherwise.
pub(crate) fn audit_status(session: &TecoSession) -> Option<String> {
    session.run_audit().err().map(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use teco_cxl::FaultConfig;

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
            for boundary in [
                StepBoundary::AfterGradFence,
                StepBoundary::AfterActivation,
                StepBoundary::AfterParamFence,
            ] {
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
}
