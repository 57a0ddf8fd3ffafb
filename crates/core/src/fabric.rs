//! The multi-host training fabric: H hosts, each bringing its own
//! [`ClusterSession`](crate::cluster::ClusterSession) device cluster to
//! one shared CXL memory pool.
//!
//! Scaling out from [`crate::cluster`]'s "one box" takes exactly one new
//! mechanism: after every host's intra-host gradient fence, the per-host
//! pooled accumulators must agree globally. The fabric stages each host's
//! accumulator bytes through the pool and runs the pool-staged
//! [`PoolCollective::all_reduce`] (one staged write + H−1 direct reads,
//! CCCL-style) — no ring of point-to-point hops. The globally reduced
//! gradient and its running checksum live at the **fabric** level; no
//! per-host cluster state changes shape, which buys two anchors
//! structurally:
//!
//! - an H=1 fabric never touches the collective datapath, so its single
//!   host report is **byte-identical** to a standalone cluster run of the
//!   same [`ClusterWorkload`] (the `scaling_sweep` path);
//! - host 0 of *any* fabric is seeded exactly like a standalone cluster
//!   ([`ClusterDriver::for_host`]), so its report stays byte-identical at
//!   every H — the collective sits beside the hosts' physics, never
//!   inside it, just as the intra-host arbiter sits beside the device
//!   sessions.
//!
//! Each step: per-host grad fence → inter-host all-reduce (the fabric's
//! `AfterGradFence` boundary, collective state included in snapshots) →
//! per-host activation check → one parameter update drawn from host 0's
//! pool stream and broadcast to every host. [`FabricDriver`] is a
//! [`crate::resume::Driver`]: the whole fabric kills and resumes at any
//! [`StepBoundary`] through the same harness and versioned snapshot
//! envelope as a single cluster, byte-identically.

use crate::cluster::{ClusterDriver, ClusterReport, ClusterWorkload, ClusterWorkloadSnapshot};
use crate::resume::{Driver, KillPoint, StepBoundary, Workload};
use crate::session::SessionError;
use serde::{Deserialize, Serialize};
use std::fmt;
use teco_cxl::{CollectiveConfig, CollectiveError, PoolCollective, PoolCollectiveSnapshot};
use teco_mem::LineData;
use teco_sim::{fnv_fold, Bytes, SimTime, FNV_SEED};

/// Typed failure of the multi-host fabric, carrying host/step/time
/// context. Wraps the per-host session errors and the collective
/// layer's typed errors so nothing on the fabric path panics on a
/// non-boundary kill point.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// A per-host cluster operation failed.
    Session(SessionError),
    /// The inter-host collective failed.
    Collective(CollectiveError),
    /// A host was declared lost and nobody recovered it.
    HostLost {
        /// The lost host.
        host: u64,
        /// The training step the loss surfaced in.
        step: u64,
        /// Simulated time of the declaration, in nanoseconds.
        time_ns: u64,
    },
    /// The workload or harness parameters are unusable.
    Config(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Session(e) => write!(f, "fabric host session error: {e}"),
            FabricError::Collective(e) => write!(f, "fabric collective error: {e}"),
            FabricError::HostLost { host, step, time_ns } => {
                write!(f, "host {host} lost at step {step} ({time_ns} ns) with no recovery")
            }
            FabricError::Config(msg) => write!(f, "fabric config error: {msg}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Session(e) => Some(e),
            FabricError::Collective(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for FabricError {
    fn from(e: SessionError) -> Self {
        FabricError::Session(e)
    }
}

impl From<CollectiveError> for FabricError {
    fn from(e: CollectiveError) -> Self {
        FabricError::Collective(e)
    }
}

/// A fixed-seed multi-host workload the harness can run, kill, and
/// resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricWorkload {
    /// The per-host cluster workload, replicated across hosts (host 0
    /// keeps the standalone seeding; hosts 1.. fork their content
    /// streams by host label).
    pub base: ClusterWorkload,
    /// Hosts sharing the pool.
    pub hosts: usize,
    /// Collective-layer tuning; `collective.hosts` must equal `hosts`.
    pub collective: CollectiveConfig,
}

impl FabricWorkload {
    /// A small default workload: `hosts` hosts of
    /// [`ClusterWorkload::small`] clusters.
    pub fn small(hosts: usize, devices: usize, seed: u64) -> Self {
        FabricWorkload {
            base: ClusterWorkload::small(devices, seed),
            hosts,
            collective: CollectiveConfig::for_hosts(hosts),
        }
    }

    fn validate(&self) -> Result<(), FabricError> {
        if self.hosts == 0 {
            return Err(FabricError::Config("fabric needs at least one host".into()));
        }
        if self.collective.hosts != self.hosts {
            return Err(FabricError::Config(format!(
                "collective config models {} hosts but the fabric has {}",
                self.collective.hosts, self.hosts
            )));
        }
        Ok(())
    }
}

/// Live driver state for a [`FabricWorkload`] (what a kill destroys).
#[derive(Debug)]
pub struct FabricDriver {
    hosts: Vec<ClusterDriver>,
    collective: PoolCollective,
    /// Fabric-clock excess over the host clusters' clocks: how far the
    /// inter-host exchanges have pushed the global timeline past the
    /// slowest host's own physics.
    lag: SimTime,
    /// Total time spent in inter-host exchanges (barrier to completion).
    exchange_time: SimTime,
    /// The latest globally reduced gradient accumulator.
    global_grads: Vec<u8>,
    /// [`fnv_fold`] over every step's reduced gradient bytes.
    grad_checksum: u64,
    /// Per-host staging scratch (capacity reused across steps).
    staged: Vec<Vec<u8>>,
    ready_buf: Vec<SimTime>,
    param_buf: Vec<LineData>,
}

impl FabricDriver {
    /// Build every host's cluster and the pool collective engine.
    pub fn new(w: &FabricWorkload) -> Result<Self, FabricError> {
        w.validate()?;
        let hosts = (0..w.hosts)
            .map(|h| ClusterDriver::for_host(&w.base, h))
            .collect::<Result<Vec<_>, SessionError>>()?;
        Ok(FabricDriver {
            hosts,
            collective: PoolCollective::new(w.collective)?,
            lag: SimTime::ZERO,
            exchange_time: SimTime::ZERO,
            global_grads: Vec::new(),
            grad_checksum: FNV_SEED,
            staged: Vec::new(),
            ready_buf: Vec::new(),
            param_buf: Vec::new(),
        })
    }

    /// The per-host cluster drivers.
    pub fn hosts(&self) -> &[ClusterDriver] {
        &self.hosts
    }
    /// The pool collective engine.
    pub fn collective(&self) -> &PoolCollective {
        &self.collective
    }
    /// The latest globally reduced gradient bytes.
    pub fn global_grads(&self) -> &[u8] {
        &self.global_grads
    }
    /// The parameter lines broadcast by the most recent step (empty
    /// before the first broadcast). The chaos harness folds these into
    /// its parameter checksum without re-deriving the draw stream.
    pub fn last_params(&self) -> &[LineData] {
        &self.param_buf
    }

    /// The fabric clock: the slowest host's own physics plus the
    /// accumulated inter-host exchange excess.
    pub fn fabric_time(&self) -> SimTime {
        self.max_cluster_time() + self.lag
    }

    fn max_cluster_time(&self) -> SimTime {
        self.hosts.iter().map(|d| d.cluster().cluster_time()).fold(SimTime::ZERO, SimTime::max)
    }

    /// Stage every host's pooled accumulator and all-reduce them through
    /// the pool. At H = 1 the collective is a structural no-op (no data
    /// movement, no arbiter state) and the "global" gradient is host 0's
    /// accumulator verbatim.
    fn exchange(&mut self) -> Result<(), FabricError> {
        let h = self.hosts.len();
        self.staged.resize_with(h, Vec::new);
        self.ready_buf.clear();
        for (host, buf) in self.hosts.iter().zip(self.staged.iter_mut()) {
            host.cluster().pool().copy_grad_bytes_into(buf);
            self.ready_buf.push(host.cluster().cluster_time() + self.lag);
        }
        let outcome = self.collective.all_reduce(&mut self.staged, &self.ready_buf)?;
        self.lag = outcome.completion.saturating_sub(self.max_cluster_time());
        self.exchange_time += outcome.completion - outcome.start;
        self.grad_checksum = fnv_fold(self.grad_checksum, &self.staged[0]);
        self.global_grads.clear();
        self.global_grads.extend_from_slice(&self.staged[0]);
        Ok(())
    }

    /// One globally shared parameter update: drawn from host 0's pool
    /// stream, broadcast to every host's giant caches.
    fn broadcast(&mut self) -> Result<(), FabricError> {
        let mut lines = std::mem::take(&mut self.param_buf);
        self.hosts[0].draw_param_lines(&mut lines);
        for host in &mut self.hosts {
            host.broadcast_lines(&lines)?;
        }
        self.param_buf = lines;
        Ok(())
    }

    /// Run the phase of the current step that ends at `b`. The fabric's
    /// `AfterGradFence` phase includes the inter-host exchange.
    fn phase(&mut self, b: StepBoundary) -> Result<(), FabricError> {
        match b {
            StepBoundary::AfterGradFence => {
                for host in &mut self.hosts {
                    host.run_step_until(StepBoundary::AfterGradFence)?;
                }
                self.exchange()
            }
            StepBoundary::AfterActivation => {
                self.hosts.iter_mut().for_each(ClusterDriver::check_activation);
                Ok(())
            }
            StepBoundary::AfterParamFence => self.broadcast(),
        }
    }

    /// Run one full step.
    pub fn run_step(&mut self) -> Result<(), FabricError> {
        self.advance(None, None)
    }

    /// The fabric report at the current step.
    pub fn report(&self) -> FabricReport {
        let stats = self.collective.stats();
        FabricReport {
            hosts: self.hosts.len() as u64,
            steps: self.step(),
            fabric_time_ns: self.fabric_time().as_ns(),
            exchange_ns: self.exchange_time.as_ns(),
            all_reduces: stats.all_reduces,
            pool_port_bytes: stats.port_bytes,
            pool_media_bytes: stats.media_bytes,
            fanin_saved_bytes: self.collective.media().fanin_saved_bytes(),
            global_grad_checksum: self.grad_checksum,
            host_reports: self.hosts.iter().map(|d| d.report()).collect(),
        }
    }
}

/// Everything the fabric holds between steps, captured whole.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricSnapshot {
    /// Every host cluster's checkpoint image.
    pub hosts: Vec<ClusterWorkloadSnapshot>,
    /// The collective engine's state (media arbiter, counters).
    pub collective: PoolCollectiveSnapshot,
    /// Fabric-clock excess over the host clocks.
    pub lag: SimTime,
    /// Accumulated exchange time.
    pub exchange_time: SimTime,
    /// The latest globally reduced gradient.
    pub global_grads: Bytes,
    /// Running [`fnv_fold`] over every step's reduced gradient.
    pub grad_checksum: u64,
}

/// The fabric run's observable result: serializing this to JSON is the
/// byte-identity oracle for fabric snapshot/resume, and `host_reports[0]`
/// is byte-identical to the standalone cluster path at **every** H (H=1
/// additionally makes the whole fabric equivalent to that path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricReport {
    /// Hosts in the fabric.
    pub hosts: u64,
    /// Steps completed.
    pub steps: u64,
    /// The fabric clock in nanoseconds.
    pub fabric_time_ns: u64,
    /// Time spent in inter-host exchanges.
    pub exchange_ns: u64,
    /// Pool-staged all-reduces executed.
    pub all_reduces: u64,
    /// Host↔pool port bytes the collectives moved.
    pub pool_port_bytes: u64,
    /// Pool-DRAM bytes served (fan-in deduplicated).
    pub pool_media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading.
    pub fanin_saved_bytes: u64,
    /// Running checksum of every step's globally reduced gradient.
    pub global_grad_checksum: u64,
    /// Per-host cluster reports.
    pub host_reports: Vec<ClusterReport>,
}

impl Driver for FabricDriver {
    type Workload = FabricWorkload;
    type Point = KillPoint;
    type Snapshot = FabricSnapshot;
    type Report = FabricReport;
    type Error = FabricError;

    fn new(w: &FabricWorkload) -> Result<Self, FabricError> {
        FabricDriver::new(w)
    }

    /// Completed steps (every host advances in lockstep).
    fn step(&self) -> u64 {
        self.hosts[0].step()
    }

    fn advance(
        &mut self,
        from: Option<KillPoint>,
        to: Option<KillPoint>,
    ) -> Result<(), FabricError> {
        StepBoundary::span(from.map(|k| k.boundary), to.map(|k| k.boundary))
            .try_for_each(|b| self.phase(b))
    }

    fn capture(&self) -> FabricSnapshot {
        FabricSnapshot {
            hosts: self.hosts.iter().map(|d| d.capture()).collect(),
            collective: self.collective.snapshot(),
            lag: self.lag,
            exchange_time: self.exchange_time,
            global_grads: Bytes(self.global_grads.clone()),
            grad_checksum: self.grad_checksum,
        }
    }

    fn restore(s: &FabricSnapshot) -> Result<Self, FabricError> {
        if s.hosts.is_empty() {
            return Err(FabricError::Config("fabric snapshot has no hosts".into()));
        }
        Ok(FabricDriver {
            hosts: s
                .hosts
                .iter()
                .map(ClusterDriver::restore)
                .collect::<Result<Vec<_>, SessionError>>()?,
            collective: PoolCollective::restore(&s.collective)?,
            lag: s.lag,
            exchange_time: s.exchange_time,
            global_grads: s.global_grads.0.clone(),
            grad_checksum: s.grad_checksum,
            staged: Vec::new(),
            ready_buf: Vec::new(),
            param_buf: Vec::new(),
        })
    }

    fn report(&self) -> FabricReport {
        FabricDriver::report(self)
    }

    /// The first failing device audit, walking hosts in order.
    fn audit_error(&self) -> Option<String> {
        self.hosts.iter().find_map(|h| h.cluster().audit_status())
    }

    fn invalid(msg: String) -> FabricError {
        FabricError::Config(msg)
    }
}

impl Workload for FabricWorkload {
    type Driver = FabricDriver;
    fn steps(&self) -> u64 {
        self.base.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::run_uninterrupted;
    use teco_cxl::dba::scalar;

    #[test]
    fn h1_fabric_report_is_byte_identical_to_the_cluster_path() {
        let w = FabricWorkload::small(1, 2, 42);
        let fabric = run_uninterrupted(&w).unwrap();
        let cluster = run_uninterrupted(&w.base).unwrap();
        assert_eq!(
            serde_json::to_string(&fabric.report.host_reports[0]).unwrap(),
            serde_json::to_string(&cluster.report).unwrap()
        );
        assert_eq!(fabric.report.pool_port_bytes, 0, "H = 1 moves nothing inter-host");
        assert_eq!(fabric.report.exchange_ns, 0);
        assert_eq!(
            fabric.report.fabric_time_ns, cluster.report.cluster_time_ns,
            "H = 1 fabric clock is the cluster clock"
        );
    }

    #[test]
    fn host0_stays_unperturbed_at_every_host_count() {
        for hosts in [2usize, 4] {
            let w = FabricWorkload::small(hosts, 2, 7);
            let fabric = run_uninterrupted(&w).unwrap().report;
            let cluster = run_uninterrupted(&w.base).unwrap().report;
            assert_eq!(
                serde_json::to_string(&fabric.host_reports[0]).unwrap(),
                serde_json::to_string(&cluster).unwrap(),
                "host 0 of an H={hosts} fabric must match the standalone cluster"
            );
        }
    }

    #[test]
    fn peer_hosts_train_distinct_shards_but_share_parameters() {
        let w = FabricWorkload::small(3, 2, 5);
        let r = run_uninterrupted(&w).unwrap().report;
        // Different gradient content per host → different pool checksums…
        assert_ne!(r.host_reports[0].pool_checksum, r.host_reports[1].pool_checksum);
        assert_ne!(r.host_reports[1].pool_checksum, r.host_reports[2].pool_checksum);
        // …but the same physics shape: identical step counts and volumes.
        for hr in &r.host_reports {
            assert_eq!(hr.steps, r.host_reports[0].steps);
            assert_eq!(hr.reduced_lines, r.host_reports[0].reduced_lines);
            assert_eq!(hr.cluster_time_ns, r.host_reports[0].cluster_time_ns);
        }
        assert_eq!(r.all_reduces, r.steps);
        assert!(r.exchange_ns > 0);
    }

    #[test]
    fn global_gradient_is_the_wrapping_sum_of_every_hosts_accumulator() {
        let w = FabricWorkload::small(4, 2, 11);
        let mut d = FabricDriver::new(&w).unwrap();
        for _ in 0..w.base.steps {
            d.run_step().unwrap();
        }
        let mut want: Option<Vec<u8>> = None;
        for host in d.hosts() {
            let mut bytes = Vec::new();
            host.cluster().pool().copy_grad_bytes_into(&mut bytes);
            match &mut want {
                None => want = Some(bytes),
                Some(acc) => scalar::reduce_sum_words(&bytes, acc),
            }
        }
        assert_eq!(d.global_grads(), want.unwrap().as_slice());
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let w = FabricWorkload::small(2, 2, 9);
        assert_eq!(run_uninterrupted(&w).unwrap(), run_uninterrupted(&w).unwrap());
    }
}
