//! Multi-device data-parallel TECO over a shared CXL memory pool.
//!
//! The paper evaluates one accelerator per coherence domain; this module
//! models the obvious next step toward a production deployment: N
//! accelerators, each with its **own** giant cache, CXL link, and
//! coherence engine, all sharing one CPU-side memory pool and one host
//! DRAM bandwidth budget. The data-parallel step is ZeRO-style:
//!
//! 1. every device trains a replica on its own shard and flushes its
//!    gradient lines device→CPU (full lines — gradients never use DBA,
//!    §V) followed by a `CXLFENCE`;
//! 2. the gradient shards **reduce** into the pooled CPU optimizer
//!    ([`CpuPool`]), contending for the shared host budget through the
//!    round-robin [`teco_cxl::HostLinkArbiter`];
//! 3. the pooled optimizer produces one updated parameter set, which
//!    **broadcasts** back through update-mode coherence: every device's
//!    giant cache receives the same writeback, but the pool is read from
//!    host DRAM only once ([`HostLinkArbiter::charge_broadcast`]) — the
//!    fan-out saving the update protocol buys at N > 1.
//!
//! The correctness anchor is structural: each device's physics runs
//! through an unmodified [`TecoSession`], and its report through the same
//! `device_report` function the single-device resume harness uses, so an
//! N=1 cluster produces a device report **byte-identical** to the plain
//! [`crate::resume`] path (enforced by the unit test
//! `n1_device_report_matches_single_device_path`).
//! The arbiter observes per-device wire volumes without feeding back into
//! device clocks; host contention surfaces in the cluster-level clock
//! ([`ClusterReport::cluster_time_ns`]) and the per-device wait accounts.
//!
//! The whole cluster snapshots and resumes through the same versioned
//! envelope as a single session: [`ClusterDriver`] is a
//! [`crate::resume::Driver`], so [`crate::resume::run_resumed`] kills a
//! [`ClusterWorkload`] at any [`StepBoundary`], restores from nothing but
//! the serialized bytes, and must reproduce
//! [`crate::resume::run_uninterrupted`]'s report bit-for-bit.

use crate::config::TecoConfig;
use crate::resume::{
    audit_status, device_report, Driver, KillPoint, ResumeReport, StepBoundary, Workload,
};
use crate::session::{SessionError, SessionSnapshot, TecoSession};
use serde::{Deserialize, Reader, Serialize, Writer};
use teco_cxl::{
    FenceDeadline, HostAccount, HostLinkArbiter, HostLinkArbiterSnapshot, MediaRas,
    MediaRasSnapshot, RasStats,
};
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{fnv_fold, Bandwidth, SimRng, SimTime, FNV_SEED};

/// Configuration for an N-accelerator cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The per-device TECO configuration, replicated across devices.
    pub base: TecoConfig,
    /// Number of accelerators sharing the pool.
    pub devices: usize,
    /// The shared host DRAM bandwidth budget in GB/s. The default (38.4,
    /// two DDR4-2400 channels) sits between two and three paper links
    /// (15.088 GB/s each), so contention appears from N=3 up.
    pub host_dram_gb_per_sec: f64,
    /// Device-loss watchdog deadline in nanoseconds: a device whose fence
    /// acknowledgment is further away than this at a cluster fence point
    /// is declared down and its host account quarantined. `0` disables
    /// the watchdog (a dead device then hangs the fence forever, exactly
    /// the failure mode the watchdog exists to bound). Default 1 ms.
    pub watchdog_deadline_ns: u64,
}

impl ClusterConfig {
    /// A cluster of `devices` replicas of `base`.
    pub fn new(base: TecoConfig, devices: usize) -> Self {
        ClusterConfig { base, devices, host_dram_gb_per_sec: 38.4, watchdog_deadline_ns: 1_000_000 }
    }

    /// Builder-style: set the shared host DRAM budget.
    pub fn with_host_dram_gb_per_sec(mut self, gb: f64) -> Self {
        self.host_dram_gb_per_sec = gb;
        self
    }

    /// Builder-style: set the device-loss watchdog deadline (0 disables).
    pub fn with_watchdog_deadline_ns(mut self, ns: u64) -> Self {
        self.watchdog_deadline_ns = ns;
        self
    }

    /// Validate the configuration; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.devices == 0 {
            return Err("cluster needs at least one device".into());
        }
        // NaN must fail too, so compare on the accepting side only.
        if self.host_dram_gb_per_sec.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("host DRAM bandwidth must be positive".into());
        }
        Ok(())
    }

    fn host_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.host_dram_gb_per_sec)
    }

    /// The per-device session configuration: device `d` forks its media-
    /// RAS fault stream by offsetting the seed (device 0 keeps the base
    /// seed, so an N=1 cluster stays bit-identical to a lone session).
    fn device_config(&self, d: usize) -> TecoConfig {
        let mut c = self.base.clone();
        if c.ras.enabled() {
            c.ras.seed = c.ras.seed.wrapping_add(d as u64);
        }
        c
    }
}

// Hand-written (de)serialization: the vendored derive has no field
// attributes, and `watchdog_deadline_ns` must be omitted at its default
// so pre-fault-domain config bytes are unchanged.
impl Serialize for ClusterConfig {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.field("base", &self.base);
        w.field("devices", &self.devices);
        w.field("host_dram_gb_per_sec", &self.host_dram_gb_per_sec);
        if self.watchdog_deadline_ns != 1_000_000 {
            w.field("watchdog_deadline_ns", &self.watchdog_deadline_ns);
        }
        w.end_object();
    }
}

impl Deserialize for ClusterConfig {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let (mut base, mut devices, mut host_dram_gb_per_sec, mut watchdog_deadline_ns) =
            (None, None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "base" => r.field(&mut base)?,
                "devices" => r.field(&mut devices)?,
                "host_dram_gb_per_sec" => r.field(&mut host_dram_gb_per_sec)?,
                "watchdog_deadline_ns" => r.field(&mut watchdog_deadline_ns)?,
                _ => r.skip_value()?,
            }
        }
        const TY: &str = "ClusterConfig";
        Ok(ClusterConfig {
            base: Reader::required(base, "base", TY)?,
            devices: Reader::required(devices, "devices", TY)?,
            host_dram_gb_per_sec: Reader::required(
                host_dram_gb_per_sec,
                "host_dram_gb_per_sec",
                TY,
            )?,
            watchdog_deadline_ns: watchdog_deadline_ns.unwrap_or(1_000_000),
        })
    }
}

/// The pooled CPU-side optimizer state: one master parameter copy and one
/// gradient accumulator every device's shard reduces into.
#[derive(Debug, Clone)]
pub struct CpuPool {
    params: Vec<LineData>,
    grads: Vec<LineData>,
    reduced_lines: u64,
    updates: u64,
}

impl CpuPool {
    fn new() -> Self {
        CpuPool { params: Vec::new(), grads: Vec::new(), reduced_lines: 0, updates: 0 }
    }

    /// Reduce one gradient line into the accumulator (per-word wrapping
    /// add — the integer stand-in for the optimizer's sum-reduce), through
    /// the same chunked kernel the inter-host collectives fold with
    /// (bit-identical to the original word-at-a-time loop).
    fn reduce(&mut self, i: usize, line: &LineData) {
        teco_cxl::dba::kernels::reduce_sum_run(line.bytes(), self.grads[i].bytes_mut());
        self.reduced_lines += 1;
    }

    /// Store the optimizer's updated master parameters.
    fn store_params(&mut self, lines: &[LineData]) {
        debug_assert_eq!(lines.len(), self.params.len());
        self.params.copy_from_slice(lines);
        self.updates += 1;
    }

    /// Gradient lines reduced so far (shards × lines).
    pub fn reduced_lines(&self) -> u64 {
        self.reduced_lines
    }
    /// Optimizer updates (parameter broadcasts) so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Copy the gradient accumulator's raw bytes into `out` (cleared
    /// first, capacity reused) — the pool-resident staging region the
    /// inter-host collective layer reads this host's contribution from.
    pub fn copy_grad_bytes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        for line in &self.grads {
            out.extend_from_slice(line.bytes());
        }
    }

    /// [`fnv_fold`] over the master parameters then the gradient
    /// accumulator — the pooled CPU end state, compressed to one word.
    pub fn checksum(&self) -> u64 {
        self.params.iter().chain(&self.grads).fold(FNV_SEED, |h, l| fnv_fold(h, l.bytes()))
    }

    fn snapshot(&self) -> CpuPoolSnapshot {
        CpuPoolSnapshot {
            params: self.params.iter().map(|l| l.bytes().to_vec()).collect(),
            grads: self.grads.iter().map(|l| l.bytes().to_vec()).collect(),
            reduced_lines: self.reduced_lines,
            updates: self.updates,
        }
    }

    fn restore(s: &CpuPoolSnapshot) -> Self {
        let revive = |bytes: &Vec<u8>| {
            let mut l = LineData::zeroed();
            l.bytes_mut().copy_from_slice(bytes);
            l
        };
        CpuPool {
            params: s.params.iter().map(revive).collect(),
            grads: s.grads.iter().map(revive).collect(),
            reduced_lines: s.reduced_lines,
            updates: s.updates,
        }
    }
}

/// Serialized image of a [`CpuPool`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuPoolSnapshot {
    /// Master parameter lines, in address order.
    pub params: Vec<Vec<u8>>,
    /// Gradient-accumulator lines, in address order.
    pub grads: Vec<Vec<u8>>,
    /// Lines reduced so far.
    pub reduced_lines: u64,
    /// Optimizer updates so far.
    pub updates: u64,
}

/// An N-accelerator data-parallel cluster sharing one CPU memory pool.
///
/// # Example
///
/// One ZeRO-style step across two devices: shard gradients in, fence and
/// arbitrate, then broadcast the pooled update to every giant cache.
///
/// ```
/// use teco_core::{ClusterConfig, ClusterSession, TecoConfig};
/// use teco_mem::LineData;
///
/// let base = TecoConfig::default().with_act_aft_steps(0).with_giant_cache_bytes(1 << 20);
/// let mut cluster = ClusterSession::new(ClusterConfig::new(base, 2))?;
/// cluster.alloc_params(4)?;
/// cluster.alloc_grads(2)?;
/// for dev in 0..2 {
///     for i in 0..2 {
///         cluster.push_grad_shard(dev, i, LineData::zeroed())?;
///     }
/// }
/// cluster.fence_grads_all();
/// cluster.check_activation_all();
/// cluster.broadcast_params(&vec![LineData::zeroed(); 4])?;
/// let report = cluster.report();
/// assert_eq!(report.steps, 1);
/// assert_eq!(report.reduced_lines, 4); // 2 devices × 2-line shards
/// assert_eq!(report.devices.len(), 2);
/// # Ok::<(), teco_core::SessionError>(())
/// ```
#[derive(Debug)]
pub struct ClusterSession {
    cfg: ClusterConfig,
    devices: Vec<TecoSession>,
    /// Per-device simulated clock (each device's link drains on its own
    /// time axis, exactly as a lone session's would).
    now: Vec<SimTime>,
    arbiter: HostLinkArbiter,
    pool: CpuPool,
    step: u64,
    param_base: Addr,
    grad_base: Addr,
    /// Per-device `bytes_to_host` watermark: the delta since the previous
    /// gradient round is what contends for the host budget this round.
    host_seen: Vec<u64>,
    /// Per-device `bytes_to_device` watermarks: the broadcast's wire cost
    /// is read off the first *alive* device (identical on every alive
    /// device), and a readmitted device restarts its own watermark.
    bcast_seen: Vec<u64>,
    /// Scratch for arbitration rounds; reused so the steady state
    /// allocates nothing.
    ready_buf: Vec<SimTime>,
    req_buf: Vec<u64>,
    /// Per-device liveness: `false` after [`ClusterSession::kill_device`].
    alive: Vec<bool>,
    /// Per-device watchdog verdicts: a dead device becomes *detected* at
    /// the first cluster fence whose deadline it blows.
    detected_down: Vec<bool>,
    /// Device-loss events the watchdog declared.
    down_events: u64,
    /// Hot readmissions performed.
    readmits: u64,
    /// Pool-media RAS over the pooled master-parameter pages; `None` when
    /// `cfg.base.ras` is off. Pool pages are chipkill-mirrored, so
    /// retirement re-homes them without content loss — the observable
    /// cost is spare consumption and scrub/retire accounting.
    pool_ras: Option<MediaRas>,
    /// Spare pool pages left for retirement remaps.
    pool_spares_left: u64,
    /// Reused scratch for the pool patrol scrubber.
    pool_scrub_buf: Vec<u64>,
}

impl ClusterSession {
    /// Create a cluster of `cfg.devices` identical sessions.
    pub fn new(cfg: ClusterConfig) -> Result<Self, SessionError> {
        cfg.validate().map_err(SessionError::Config)?;
        let n = cfg.devices;
        let devices = (0..n)
            .map(|d| TecoSession::new(cfg.device_config(d)))
            .collect::<Result<Vec<_>, _>>()?;
        let pool_ras = if cfg.base.ras.enabled() {
            Some(MediaRas::with_label(cfg.base.ras, "pool"))
        } else {
            None
        };
        Ok(ClusterSession {
            arbiter: HostLinkArbiter::new(cfg.host_bandwidth(), n),
            devices,
            now: vec![SimTime::ZERO; n],
            pool: CpuPool::new(),
            step: 0,
            param_base: Addr(0),
            grad_base: Addr(0),
            host_seen: vec![0; n],
            bcast_seen: vec![0; n],
            ready_buf: vec![SimTime::ZERO; n],
            req_buf: vec![0; n],
            alive: vec![true; n],
            detected_down: vec![false; n],
            down_events: 0,
            readmits: 0,
            pool_spares_left: cfg.base.ras.spare_lines,
            pool_ras,
            pool_scrub_buf: Vec::new(),
            cfg,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
    /// The per-device sessions (read access for assertions/tests).
    pub fn devices(&self) -> &[TecoSession] {
        &self.devices
    }
    /// Per-device clocks.
    pub fn device_clocks(&self) -> &[SimTime] {
        &self.now
    }
    /// The shared-budget arbiter.
    pub fn arbiter(&self) -> &HostLinkArbiter {
        &self.arbiter
    }
    /// The pooled CPU optimizer state.
    pub fn pool(&self) -> &CpuPool {
        &self.pool
    }
    /// Completed training steps.
    pub fn step(&self) -> u64 {
        self.step
    }
    /// Align the step counter with an external timeline — the hot host
    /// readmission hook. Step-scheduled behavior (DBA activation after
    /// `act_aft_steps`) must resume exactly where a never-failed host's
    /// would, or the dirty-byte merge leaves different stale bytes in
    /// the replicas and byte-identical convergence breaks.
    pub fn align_step(&mut self, step: u64) {
        self.step = step;
    }
    /// Parameter region base (identical on every device).
    pub fn param_base(&self) -> Addr {
        self.param_base
    }
    /// Gradient region base (identical on every device).
    pub fn grad_base(&self) -> Addr {
        self.grad_base
    }
    /// Is device `dev` alive (not killed)?
    pub fn is_alive(&self, dev: usize) -> bool {
        self.alive[dev]
    }
    /// Has the watchdog declared device `dev` down?
    pub fn is_detected_down(&self, dev: usize) -> bool {
        self.detected_down[dev]
    }
    /// Alive devices right now.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
    /// Device-loss events the watchdog declared.
    pub fn down_events(&self) -> u64 {
        self.down_events
    }
    /// Hot readmissions performed.
    pub fn readmits(&self) -> u64 {
        self.readmits
    }

    /// Kill injection: device `dev` stops responding *now*. Nothing is
    /// detected yet — every subsequent operation addressed to it fails
    /// typed, and the watchdog declares it at the next cluster fence.
    pub fn kill_device(&mut self, dev: usize) {
        assert!(dev < self.devices.len(), "device {dev} out of range");
        self.alive[dev] = false;
    }

    /// The cluster-level clock: the slowest device clock or the shared
    /// host budget's drain, whichever is later.
    pub fn cluster_time(&self) -> SimTime {
        let dev = self.now.iter().copied().max().unwrap_or(SimTime::ZERO);
        dev.max(self.arbiter.drained_at())
    }

    /// Map the replicated parameter tensor on every device and size the
    /// pool's master copy. Bases are identical across devices because
    /// every giant cache allocates from the same empty state.
    pub fn alloc_params(&mut self, lines: u64) -> Result<Addr, SessionError> {
        let base = self.alloc_replicated("params", lines)?;
        self.param_base = base;
        self.pool.params = vec![LineData::zeroed(); lines as usize];
        Ok(base)
    }

    /// Map the replicated gradient tensor and size the pool accumulator.
    pub fn alloc_grads(&mut self, lines: u64) -> Result<Addr, SessionError> {
        let base = self.alloc_replicated("grads", lines)?;
        self.grad_base = base;
        self.pool.grads = vec![LineData::zeroed(); lines as usize];
        Ok(base)
    }

    fn alloc_replicated(&mut self, name: &str, lines: u64) -> Result<Addr, SessionError> {
        let bytes = lines * LINE_BYTES as u64;
        let mut base = None;
        for dev in &mut self.devices {
            let (_, b) = dev.alloc_tensor(name, bytes)?;
            match base {
                None => base = Some(b),
                Some(prev) => assert_eq!(prev, b, "replicated regions must share a base"),
            }
        }
        Ok(base.expect("cluster has at least one device"))
    }

    /// Advance every device's clock by the same compute interval (the
    /// per-step forward+backward the simulation abstracts away).
    pub fn advance_compute(&mut self, dt: SimTime) {
        for t in &mut self.now {
            *t += dt;
        }
    }

    /// Push gradient line `i` of device `dev`'s shard device→CPU and
    /// reduce it into the pool accumulator. A dead device fails typed —
    /// the shard must be redistributed to survivors instead.
    pub fn push_grad_shard(
        &mut self,
        dev: usize,
        i: u64,
        line: LineData,
    ) -> Result<(), SessionError> {
        if !self.alive[dev] {
            return Err(SessionError::DeviceDown {
                device: dev as u64,
                time_ns: self.now[dev].as_ns(),
            });
        }
        let addr = Addr(self.grad_base.0 + i * LINE_BYTES as u64);
        self.devices[dev]
            .push_grad_line(addr, line, self.now[dev])
            .map_err(|e| e.in_context(dev as u64, Some("grads".to_string()), self.now[dev]))?;
        self.pool.reduce(i as usize, &line);
        Ok(())
    }

    /// Fence every device's gradient flush, then arbitrate the shards'
    /// landing in the pooled memory on the shared host budget (one
    /// round-robin round; each device's request is its wire volume since
    /// the previous round, ready when its own fence completed).
    ///
    /// This fence point doubles as the device-loss watchdog: a dead
    /// device's fence acknowledgment never arrives, so the shared
    /// [`FenceDeadline`] expires against an infinitely-late completion,
    /// the device is declared down, and its host account is quarantined.
    /// Returns the devices *newly* detected down (empty in the steady
    /// state — no allocation).
    pub fn fence_grads_all(&mut self) -> Vec<usize> {
        let n = self.devices.len();
        let mut newly_down = Vec::new();
        let deadline = FenceDeadline::from_ns(self.cfg.watchdog_deadline_ns);
        for d in 0..n {
            if self.alive[d] {
                self.now[d] = self.devices[d].cxlfence_grads(self.now[d]);
            } else if !self.detected_down[d] && deadline.expired(self.now[d], SimTime::MAX) {
                // The watchdog waits out its full deadline before giving
                // up on the fence — that wait is real simulated time.
                self.now[d] += deadline.timeout();
                self.detected_down[d] = true;
                self.down_events += 1;
                self.arbiter.quarantine_device(d);
                newly_down.push(d);
            }
        }
        self.pool_ras_maintenance();
        for d in 0..n {
            if self.alive[d] {
                let b = self.devices[d].stats().bytes_to_host;
                self.req_buf[d] = b - self.host_seen[d];
                self.host_seen[d] = b;
            } else {
                self.req_buf[d] = 0;
            }
            self.ready_buf[d] = self.now[d];
        }
        self.arbiter.arbitrate_round(&self.ready_buf, &self.req_buf);
        newly_down
    }

    /// One patrol-scrub window over the pooled master-parameter pages.
    /// Pool pages are chipkill-mirrored: a detected fault retires the
    /// page to a spare with no content loss, so the training data is
    /// never perturbed — only the RAS accounting moves.
    fn pool_ras_maintenance(&mut self) {
        let Some(ras) = self.pool_ras.as_mut() else { return };
        let lines = self.pool.params.len() as u64;
        if lines == 0 {
            return;
        }
        ras.tick(lines);
        let mut buf = std::mem::take(&mut self.pool_scrub_buf);
        buf.clear();
        ras.scrub(lines, &mut buf);
        for _ in 0..buf.len() {
            let remapped = self.pool_spares_left > 0;
            if remapped {
                self.pool_spares_left -= 1;
            }
            ras.note_retired(remapped);
        }
        self.pool_scrub_buf = buf;
    }

    /// Listing 1's `check_activation` on every device at the current
    /// step. Dead devices are skipped — there is nobody to run it.
    pub fn check_activation_all(&mut self) -> bool {
        let step = self.step;
        let mut active = true;
        for (d, dev) in self.devices.iter_mut().enumerate() {
            if self.alive[d] {
                active &= dev.check_activation(step);
            }
        }
        active
    }

    /// Broadcast the pooled optimizer's updated parameters: store the
    /// master copy, push the same lines through every alive device's
    /// update-mode coherence path (each on its own clock), fence each
    /// device, and charge the host budget **once** for the pool read —
    /// the fan-out is the coherence fabric's, not the DRAM's. Completes
    /// the step.
    ///
    /// A dead device the watchdog has not yet declared hangs the
    /// broadcast: that surfaces as a typed [`SessionError::DeviceDown`]
    /// (mid-broadcast kill injection), never a panic. Declared-down
    /// devices are skipped and the fan-out shrinks to the survivors.
    pub fn broadcast_params(&mut self, lines: &[LineData]) -> Result<(), SessionError> {
        let n = self.devices.len();
        for d in 0..n {
            if !self.alive[d] && !self.detected_down[d] {
                return Err(SessionError::DeviceDown {
                    device: d as u64,
                    time_ns: self.now[d].as_ns(),
                }
                .in_context(d as u64, Some("params".to_string()), self.now[d]));
            }
        }
        self.pool.store_params(lines);
        let mut fanout = 0usize;
        let mut wire = 0u64;
        for d in 0..n {
            if !self.alive[d] {
                continue;
            }
            self.devices[d]
                .push_param_lines(self.param_base, lines, self.now[d])
                .map_err(|e| e.in_context(d as u64, Some("params".to_string()), self.now[d]))?;
            self.now[d] = self.devices[d].cxlfence_params(self.now[d]);
            let b = self.devices[d].stats().bytes_to_device;
            if fanout == 0 {
                // The wire cost is identical on every alive device; read
                // it off the first one.
                wire = b - self.bcast_seen[d];
            }
            self.bcast_seen[d] = b;
            fanout += 1;
        }
        // The pool read queues on the host budget right after the gradient
        // round it depends on.
        if fanout > 0 {
            let ready = self.arbiter.drained_at();
            self.arbiter.charge_broadcast(ready, wire, fanout);
        }
        self.step += 1;
        Ok(())
    }

    /// Hot readmission: rebuild device `dev` from nothing but the pooled
    /// CPU optimizer state. A fresh session is constructed from the
    /// per-device config, the replicated tensors are re-mapped at their
    /// original bases, the master parameters are pushed (one pool read on
    /// the host budget) and fenced, and the device rejoins arbitration.
    /// Subsequent broadcasts reconverge it with the never-failed replicas.
    pub fn readmit_device(&mut self, dev: usize) -> Result<(), SessionError> {
        assert!(dev < self.devices.len(), "device {dev} out of range");
        assert!(
            !self.alive[dev] && self.detected_down[dev],
            "readmit needs a watchdog-declared dead device"
        );
        let mut session = TecoSession::new(self.cfg.device_config(dev))?;
        let param_bytes = self.pool.params.len() as u64 * LINE_BYTES as u64;
        let grad_bytes = self.pool.grads.len() as u64 * LINE_BYTES as u64;
        let (_, pb) = session.alloc_tensor("params", param_bytes)?;
        let (_, gb) = session.alloc_tensor("grads", grad_bytes)?;
        assert_eq!(pb, self.param_base, "readmitted device must re-map the same bases");
        assert_eq!(gb, self.grad_base, "readmitted device must re-map the same bases");
        // The rebuild starts at the cluster's current horizon: the pool
        // read cannot begin before the state it copies exists.
        let start = self.cluster_time();
        session
            .push_param_lines(self.param_base, &self.pool.params, start)
            .map_err(|e| e.in_context(dev as u64, Some("params".to_string()), start))?;
        let done = session.cxlfence_params(start);
        // One pool read for the rebuild, fanned out to one device.
        let wire = session.stats().bytes_to_device;
        let ready = self.arbiter.drained_at();
        self.arbiter.charge_broadcast(ready, wire, 1);
        self.arbiter.readmit_device(dev);
        self.host_seen[dev] = session.stats().bytes_to_host;
        self.bcast_seen[dev] = session.stats().bytes_to_device;
        self.now[dev] = done;
        self.devices[dev] = session;
        self.alive[dev] = true;
        self.detected_down[dev] = false;
        self.readmits += 1;
        Ok(())
    }

    /// Aggregated media-RAS statistics: every device's plus the pool's.
    pub fn ras_report(&self) -> RasStats {
        let mut total = self.pool_ras.as_ref().map(|r| *r.stats()).unwrap_or_default();
        for d in &self.devices {
            total.merge(&d.ras_report());
        }
        total
    }

    /// Per-device reports (shared `device_report` path) plus the
    /// cluster-level accounting.
    pub fn report(&self) -> ClusterReport {
        let devices: Vec<ResumeReport> = self
            .devices
            .iter()
            .zip(&self.now)
            .map(|(dev, &now)| device_report(dev, self.step, now))
            .collect();
        let total_wait_ns = self.arbiter.accounts().iter().map(|a| a.wait_ns).sum();
        ClusterReport {
            down_events: self.down_events,
            readmits: self.readmits,
            quarantines: self.arbiter.quarantine_events(),
            ras: self.ras_report(),
            n_devices: self.devices.len() as u64,
            steps: self.step,
            cluster_time_ns: self.cluster_time().as_ns(),
            host: HostLinkReport {
                host_gb_per_sec: self.cfg.host_dram_gb_per_sec,
                rounds: self.arbiter.rounds(),
                drained_ns: self.arbiter.drained_at().as_ns(),
                total_wait_ns,
                per_device: self.arbiter.accounts().to_vec(),
                broadcast_grants: self.arbiter.broadcast_grants(),
                broadcast_bytes: self.arbiter.broadcast_bytes(),
                fanout_deliveries: self.arbiter.fanout_deliveries(),
                fanout_saved_bytes: self.arbiter.fanout_saved_bytes(),
            },
            reduced_lines: self.pool.reduced_lines(),
            pool_updates: self.pool.updates(),
            pool_checksum: self.pool.checksum(),
            devices,
        }
    }

    /// Capture the complete cluster state: every device's checkpoint image
    /// plus the arbiter, pool, clocks, and watermarks.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            cfg: self.cfg.clone(),
            devices: self.devices.iter().map(|d| d.snapshot()).collect(),
            now_ps: self.now.iter().map(|t| t.as_ps()).collect(),
            arbiter: self.arbiter.snapshot(),
            pool: self.pool.snapshot(),
            step: self.step,
            param_base: self.param_base.0,
            grad_base: self.grad_base.0,
            host_seen: self.host_seen.clone(),
            bcast_seen: self.bcast_seen.clone(),
            alive: self.alive.clone(),
            detected_down: self.detected_down.clone(),
            down_events: self.down_events,
            readmits: self.readmits,
            pool_ras: self.pool_ras.as_ref().map(|r| r.snapshot()),
            pool_spares_left: self.pool_spares_left,
        }
    }

    /// Rebuild a cluster from a captured state; every subsequent push,
    /// fence, arbitration round, and report is bit-identical to the
    /// original's.
    pub fn from_snapshot(s: &ClusterSnapshot) -> Result<Self, SessionError> {
        s.cfg.validate().map_err(SessionError::Config)?;
        let n = s.cfg.devices;
        let per_device = [
            ("devices", s.devices.len()),
            ("now_ps", s.now_ps.len()),
            ("host_seen", s.host_seen.len()),
            ("bcast_seen", s.bcast_seen.len()),
            ("alive", s.alive.len()),
            ("detected_down", s.detected_down.len()),
            ("arbiter.n", s.arbiter.n as usize),
        ];
        if let Some((name, len)) = per_device.into_iter().find(|&(_, len)| len != n) {
            return Err(SessionError::Config(format!(
                "snapshot has {len} {name} entries for {n} devices"
            )));
        }
        let devices =
            s.devices.iter().map(TecoSession::from_snapshot).collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterSession {
            cfg: s.cfg.clone(),
            devices,
            now: s.now_ps.iter().map(|&ps| SimTime::from_ps(ps)).collect(),
            arbiter: HostLinkArbiter::restore(&s.arbiter).map_err(SessionError::Config)?,
            pool: CpuPool::restore(&s.pool),
            step: s.step,
            param_base: Addr(s.param_base),
            grad_base: Addr(s.grad_base),
            host_seen: s.host_seen.clone(),
            bcast_seen: s.bcast_seen.clone(),
            ready_buf: vec![SimTime::ZERO; n],
            req_buf: vec![0; n],
            alive: s.alive.clone(),
            detected_down: s.detected_down.clone(),
            down_events: s.down_events,
            readmits: s.readmits,
            pool_ras: s.pool_ras.as_ref().map(MediaRas::from_snapshot),
            pool_spares_left: s.pool_spares_left,
            pool_scrub_buf: Vec::new(),
        })
    }

    /// The first failing device audit, if any (walks devices in order).
    pub fn audit_status(&self) -> Option<String> {
        self.devices.iter().find_map(audit_status)
    }
}

/// Serialized image of a [`ClusterSession`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// The cluster configuration.
    pub cfg: ClusterConfig,
    /// Per-device checkpoint images, in device order.
    pub devices: Vec<SessionSnapshot>,
    /// Per-device clocks in picoseconds (native precision).
    pub now_ps: Vec<u64>,
    /// The shared-budget arbiter.
    pub arbiter: HostLinkArbiterSnapshot,
    /// The pooled optimizer state.
    pub pool: CpuPoolSnapshot,
    /// Completed steps.
    pub step: u64,
    /// Parameter region base.
    pub param_base: u64,
    /// Gradient region base.
    pub grad_base: u64,
    /// Per-device `bytes_to_host` watermarks.
    pub host_seen: Vec<u64>,
    /// Per-device broadcast wire watermarks (`bytes_to_device`).
    pub bcast_seen: Vec<u64>,
    /// Per-device liveness flags.
    pub alive: Vec<bool>,
    /// Per-device watchdog verdicts.
    pub detected_down: Vec<bool>,
    /// Device-loss events declared so far.
    pub down_events: u64,
    /// Hot readmissions performed so far.
    pub readmits: u64,
    /// Pool-media RAS state; `None` when RAS is off.
    pub pool_ras: Option<MediaRasSnapshot>,
    /// Spare pool pages left for retirement remaps.
    pub pool_spares_left: u64,
}

/// Host-side accounting in a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostLinkReport {
    /// The shared budget in GB/s.
    pub host_gb_per_sec: f64,
    /// Arbitration rounds (one per gradient reduction).
    pub rounds: u64,
    /// When the budget drained, in nanoseconds.
    pub drained_ns: u64,
    /// Total time devices spent waiting on the shared budget.
    pub total_wait_ns: u64,
    /// Per-device accounts.
    pub per_device: Vec<HostAccount>,
    /// Broadcast (pool-read) grants.
    pub broadcast_grants: u64,
    /// Bytes read from the pool for broadcasts.
    pub broadcast_bytes: u64,
    /// Device deliveries fanned out from those reads.
    pub fanout_deliveries: u64,
    /// Bytes the update-mode fan-out avoided reading versus one host read
    /// per device.
    pub fanout_saved_bytes: u64,
}

/// The cluster run's observable result. Serializing this to JSON is the
/// byte-identity oracle for cluster snapshot/resume, and `devices[0]` of
/// an N=1 cluster is the single-device [`ResumeReport`] verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Device-loss events the watchdog declared.
    pub down_events: u64,
    /// Hot readmissions performed.
    pub readmits: u64,
    /// Arbiter quarantine transitions.
    pub quarantines: u64,
    /// Aggregated media-RAS statistics (pool + every device).
    pub ras: RasStats,
    /// Devices in the cluster.
    pub n_devices: u64,
    /// Steps completed.
    pub steps: u64,
    /// The cluster clock: slowest device or host-budget drain.
    pub cluster_time_ns: u64,
    /// Shared host-budget accounting.
    pub host: HostLinkReport,
    /// Gradient lines reduced into the pool (shards × lines).
    pub reduced_lines: u64,
    /// Pooled optimizer updates.
    pub pool_updates: u64,
    /// [`CpuPool::checksum`] of the pool's end state.
    pub pool_checksum: u64,
    /// Per-device reports, built by the same function as the
    /// single-device resume harness's.
    pub devices: Vec<ResumeReport>,
}

/// A fixed-seed cluster workload the harness can run, kill, and resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterWorkload {
    /// Cluster configuration.
    pub cfg: ClusterConfig,
    /// Training steps to simulate.
    pub steps: u64,
    /// Parameter lines broadcast per step.
    pub param_lines: u64,
    /// Gradient lines per device shard per step.
    pub grad_lines: u64,
    /// Simulated compute time per step (forward+backward) in nanoseconds;
    /// 0 makes an N=1 run line up exactly with [`crate::resume`]'s shape.
    pub compute_ns_per_step: u64,
    /// Seed for the synthetic line-content streams. Device 0's stream is
    /// seeded exactly like the single-device harness's (it doubles as the
    /// pooled optimizer's parameter stream); devices 1.. fork off it by
    /// label.
    pub seed: u64,
}

impl ClusterWorkload {
    /// A small default workload mirroring [`crate::resume::ResumeWorkload::small`]
    /// across `devices` accelerators.
    pub fn small(devices: usize, seed: u64) -> Self {
        ClusterWorkload {
            cfg: ClusterConfig::new(
                TecoConfig::default().with_act_aft_steps(4).with_giant_cache_bytes(1 << 20),
                devices,
            ),
            steps: 12,
            param_lines: 32,
            grad_lines: 8,
            compute_ns_per_step: 0,
            seed,
        }
    }

    /// The equivalent single-device workload — meaningful when
    /// `cfg.devices == 1` and `compute_ns_per_step == 0`, where the
    /// cluster's device report must be byte-identical to this workload's
    /// [`crate::resume::run_uninterrupted`] report.
    pub fn to_single(&self) -> crate::resume::ResumeWorkload {
        crate::resume::ResumeWorkload {
            cfg: self.cfg.base.clone(),
            steps: self.steps,
            param_lines: self.param_lines,
            grad_lines: self.grad_lines,
            seed: self.seed,
        }
    }
}

/// Everything the cluster driver holds between steps, captured whole.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterWorkloadSnapshot {
    /// The cluster's checkpoint image.
    pub cluster: ClusterSnapshot,
    /// Per-device content-stream RNG states.
    pub rngs: Vec<[u64; 4]>,
    /// Compute time per step, in nanoseconds.
    pub compute_ns_per_step: u64,
}

/// Live driver state for a [`ClusterWorkload`] (what a kill destroys).
/// Public so the fabric drivers and the `stepbench` benchmark can drive
/// one cluster per host, phase by phase.
#[derive(Debug)]
pub struct ClusterDriver {
    cluster: ClusterSession,
    rngs: Vec<SimRng>,
    compute_ns_per_step: u64,
    /// Reused parameter-broadcast buffer; retains capacity across steps so
    /// the steady state allocates nothing.
    param_buf: Vec<LineData>,
}

impl ClusterDriver {
    /// A driver for host `host` of a multi-host fabric. Host 0 is seeded
    /// exactly like [`Driver::new`] — its cluster must stay byte-identical
    /// to a standalone run (the fabric's correctness anchor) — while hosts
    /// 1.. fork every device stream by a host-qualified label so replicas
    /// train on distinct shards.
    pub fn for_host(w: &ClusterWorkload, host: usize) -> Result<Self, SessionError> {
        if host == 0 {
            return Self::new(w);
        }
        let mut d = Self::new(w)?;
        d.rngs = (0..w.cfg.devices)
            .map(|dev| SimRng::seed_from_u64(w.seed).fork(&format!("fabric-h{host}-dev-{dev}")))
            .collect();
        Ok(d)
    }

    /// The cluster under the driver.
    pub fn cluster(&self) -> &ClusterSession {
        &self.cluster
    }

    fn random_line(rng: &mut SimRng) -> LineData {
        let mut l = LineData::zeroed();
        for w in 0..(LINE_BYTES / 4) {
            l.set_word(w, rng.next_u64() as u32);
        }
        l
    }

    /// Per-step line counts, recovered from device 0's region registry
    /// (giant-cache or side-tier) so a restored driver needs nothing
    /// beyond the snapshot.
    fn grad_lines(&self) -> u64 {
        let dev = &self.cluster.devices()[0];
        (dev.region_bytes(self.cluster.grad_base()))
            .map(|bytes| bytes / LINE_BYTES as u64)
            .expect("grad region was allocated at driver construction")
    }

    fn param_lines(&self) -> u64 {
        let dev = &self.cluster.devices()[0];
        (dev.region_bytes(self.cluster.param_base()))
            .map(|bytes| bytes / LINE_BYTES as u64)
            .expect("param region was allocated at driver construction")
    }

    /// Run the phase of the current step that ends at `b`.
    fn phase(&mut self, b: StepBoundary) -> Result<(), SessionError> {
        match b {
            // Per-device gradient shards flush + fence, then the shards
            // arbitrate for the pool (inside loss.backward()).
            StepBoundary::AfterGradFence => {
                if self.compute_ns_per_step > 0 {
                    self.cluster.advance_compute(SimTime::from_ns(self.compute_ns_per_step));
                }
                let gl = self.grad_lines();
                for d in 0..self.rngs.len() {
                    for i in 0..gl {
                        let line = Self::random_line(&mut self.rngs[d]);
                        self.cluster.push_grad_shard(d, i, line)?;
                    }
                }
                self.cluster.fence_grads_all();
            }
            StepBoundary::AfterActivation => self.check_activation(),
            // The pooled optimizer's update: fresh parameters from device
            // 0's stream (the pool stream), broadcast to every giant cache.
            StepBoundary::AfterParamFence => {
                let mut lines = std::mem::take(&mut self.param_buf);
                self.draw_param_lines(&mut lines);
                let r = self.cluster.broadcast_params(&lines);
                self.param_buf = lines;
                r?;
            }
        }
        Ok(())
    }

    /// Run the current step from its start up to (and including) `until`.
    pub fn run_step_until(&mut self, until: StepBoundary) -> Result<(), SessionError> {
        StepBoundary::span(None, Some(until)).try_for_each(|b| self.phase(b))
    }

    /// Draw this step's updated parameter lines from the driver's pool
    /// stream (device 0's) into `out` (cleared first). Public so the
    /// fabric layer can draw the globally shared update on host 0 and
    /// broadcast the *same* lines to every host.
    pub fn draw_param_lines(&mut self, out: &mut Vec<LineData>) {
        let n = self.param_lines() as usize;
        out.clear();
        for _ in 0..n {
            out.push(Self::random_line(&mut self.rngs[0]));
        }
    }

    /// Advance every device content stream past `steps` full steps of
    /// gradient draws without running them — the hot-readmission
    /// primitive. A host rebuilt mid-run must rejoin with its streams
    /// positioned where the surviving fabric's timeline expects them, so
    /// the lines it pushes from the readmission step onward are
    /// byte-identical to the ones it would have pushed had it never
    /// died. Parameter draws are not skipped here: on the fabric path
    /// only the draw host consumes its param stream, and a dead draw
    /// host hands that role to the next live one.
    pub fn fast_forward_steps(&mut self, steps: u64) {
        let gl = self.grad_lines();
        for rng in &mut self.rngs {
            for _ in 0..steps * gl {
                Self::random_line(rng);
            }
        }
    }

    /// Align the cluster's step counter with the fabric's timeline (see
    /// [`ClusterSession::align_step`]) — called after the readmission
    /// catch-up broadcast so the next activation check sees the same
    /// step a never-failed host would.
    pub fn align_step(&mut self, step: u64) {
        self.cluster.align_step(step);
    }

    /// Run this step's activation check on every device (Listing 1's one
    /// TECO line) — the fabric layer's handle between the inter-host
    /// exchange and the parameter broadcast.
    pub fn check_activation(&mut self) {
        self.cluster.check_activation_all();
    }

    /// Broadcast externally supplied parameter lines (the fabric's
    /// globally reduced update) to every giant cache.
    pub fn broadcast_lines(&mut self, lines: &[LineData]) -> Result<(), SessionError> {
        self.cluster.broadcast_params(lines)
    }

    /// The cluster report at the current step.
    pub fn report(&self) -> ClusterReport {
        self.cluster.report()
    }
}

impl Driver for ClusterDriver {
    type Workload = ClusterWorkload;
    type Point = KillPoint;
    type Snapshot = ClusterWorkloadSnapshot;
    type Report = ClusterReport;
    type Error = SessionError;

    /// Build the cluster, map the replicated tensors, and seed the
    /// per-device content streams.
    fn new(w: &ClusterWorkload) -> Result<Self, SessionError> {
        let mut cluster = ClusterSession::new(w.cfg.clone())?;
        cluster.alloc_params(w.param_lines)?;
        cluster.alloc_grads(w.grad_lines)?;
        let rngs = (0..w.cfg.devices)
            .map(|d| {
                if d == 0 {
                    // Identical to the single-device harness's stream.
                    SimRng::seed_from_u64(w.seed)
                } else {
                    SimRng::seed_from_u64(w.seed).fork(&format!("cluster-dev-{d}"))
                }
            })
            .collect();
        Ok(ClusterDriver {
            cluster,
            rngs,
            compute_ns_per_step: w.compute_ns_per_step,
            param_buf: Vec::new(),
        })
    }

    fn step(&self) -> u64 {
        self.cluster.step()
    }

    fn advance(
        &mut self,
        from: Option<KillPoint>,
        to: Option<KillPoint>,
    ) -> Result<(), SessionError> {
        StepBoundary::span(from.map(|k| k.boundary), to.map(|k| k.boundary))
            .try_for_each(|b| self.phase(b))
    }

    fn capture(&self) -> ClusterWorkloadSnapshot {
        ClusterWorkloadSnapshot {
            cluster: self.cluster.snapshot(),
            rngs: self.rngs.iter().map(|r| r.state()).collect(),
            compute_ns_per_step: self.compute_ns_per_step,
        }
    }

    fn restore(s: &ClusterWorkloadSnapshot) -> Result<Self, SessionError> {
        Ok(ClusterDriver {
            cluster: ClusterSession::from_snapshot(&s.cluster)?,
            rngs: s.rngs.iter().map(|&st| SimRng::from_state(st)).collect(),
            compute_ns_per_step: s.compute_ns_per_step,
            param_buf: Vec::new(),
        })
    }

    fn report(&self) -> ClusterReport {
        self.cluster.report()
    }

    fn audit_error(&self) -> Option<String> {
        self.cluster.audit_status()
    }

    fn invalid(msg: String) -> SessionError {
        SessionError::Config(msg)
    }
}

impl Workload for ClusterWorkload {
    type Driver = ClusterDriver;
    fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::{run_resumed, run_uninterrupted};

    #[test]
    fn config_validates() {
        assert!(ClusterConfig::new(TecoConfig::default(), 0).validate().is_err());
        assert!(ClusterConfig::new(TecoConfig::default(), 2)
            .with_host_dram_gb_per_sec(0.0)
            .validate()
            .is_err());
        assert!(ClusterConfig::new(TecoConfig::default(), 4).validate().is_ok());
    }

    #[test]
    fn n1_device_report_matches_single_device_path() {
        let w = ClusterWorkload::small(1, 42);
        let cluster = run_uninterrupted(&w).unwrap();
        let single = run_uninterrupted(&w.to_single()).unwrap();
        assert_eq!(
            serde_json::to_string(&cluster.report.devices[0]).unwrap(),
            serde_json::to_string(&single.report).unwrap(),
        );
    }

    #[test]
    fn replicas_evolve_identical_device_state() {
        // Same broadcast on every device: device memories end identical
        // even though gradient shards differ per device.
        let w = ClusterWorkload::small(4, 9);
        let out = run_uninterrupted(&w).unwrap();
        let d0 = out.report.devices[0].device_checksum;
        for (i, dev) in out.report.devices.iter().enumerate() {
            assert_eq!(dev.device_checksum, d0, "device {i} memory diverged");
            assert_eq!(dev.stats.param_lines, w.steps * w.param_lines);
            assert_eq!(dev.stats.grad_lines, w.steps * w.grad_lines);
        }
        assert_eq!(out.report.reduced_lines, 4 * w.steps * w.grad_lines);
        assert_eq!(out.report.pool_updates, w.steps);
    }

    #[test]
    fn tiered_placement_propagates_to_every_device() {
        use crate::placement::{PlacementPolicy, TieredPolicy};
        // Grad shards (8 lines = 512 B) fall under the device-size
        // threshold and become device-resident on every device; the
        // params broadcast (32 lines) stays in the giant cache.
        let mut w = ClusterWorkload::small(2, 7);
        w.cfg.base = w.cfg.base.clone().with_placement(PlacementPolicy::Tiered(TieredPolicy {
            device_capacity_bytes: 1 << 16,
            device_size_threshold: 512,
            ..Default::default()
        }));
        let a = run_uninterrupted(&w).expect("tiered cluster run completes");
        let b = run_uninterrupted(&w).expect("second run completes");
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap(),
            "tiered cluster runs are byte-reproducible"
        );
        for (i, dev) in a.report.devices.iter().enumerate() {
            assert_eq!(
                dev.stats.bytes_to_host, 0,
                "device {i}: device-resident grads cross no link"
            );
            assert_eq!(dev.stats.grad_lines, w.steps * w.grad_lines, "grads still counted");
        }
        // The non-default policy demonstrably changes behavior vs the
        // default single-tier layout.
        let default_run = run_uninterrupted(&ClusterWorkload::small(2, 7)).unwrap();
        assert_ne!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&default_run.report).unwrap(),
            "tiered placement changes the cluster report"
        );
    }

    #[test]
    fn gradient_shards_differ_across_devices() {
        // Each device forks its own content stream; the pool must see
        // genuinely different shards (otherwise "data parallel" is a lie).
        let w = ClusterWorkload::small(2, 5);
        let mut d = ClusterDriver::new(&w).unwrap();
        let a = ClusterDriver::random_line(&mut d.rngs[0]);
        let b = ClusterDriver::random_line(&mut d.rngs[1]);
        assert_ne!(a.bytes(), b.bytes());
    }

    #[test]
    fn fanout_accounting_scales_with_devices() {
        let w1 = ClusterWorkload::small(1, 7);
        let w4 = ClusterWorkload::small(4, 7);
        let r1 = run_uninterrupted(&w1).unwrap().report;
        let r4 = run_uninterrupted(&w4).unwrap().report;
        // Same broadcast bytes regardless of N; savings only at N > 1.
        assert_eq!(r1.host.broadcast_bytes, r4.host.broadcast_bytes);
        assert_eq!(r1.host.fanout_saved_bytes, 0);
        assert_eq!(r4.host.fanout_saved_bytes, 3 * r4.host.broadcast_bytes);
        assert_eq!(r4.host.fanout_deliveries, 4 * r4.host.broadcast_grants);
    }

    #[test]
    fn deterministic_across_runs() {
        let w = ClusterWorkload::small(4, 11);
        let a = run_uninterrupted(&w).unwrap();
        let b = run_uninterrupted(&w).unwrap();
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap(),
        );
    }

    #[test]
    fn contention_appears_beyond_the_budget() {
        // 4 links × 15.088 GB/s into a 38.4 GB/s pool: gradient rounds
        // must queue; with one device they never do.
        let w1 = ClusterWorkload::small(1, 3);
        let w4 = ClusterWorkload::small(4, 3);
        let r1 = run_uninterrupted(&w1).unwrap().report;
        let r4 = run_uninterrupted(&w4).unwrap().report;
        assert_eq!(r1.host.total_wait_ns, 0, "one device never contends");
        assert!(r4.host.total_wait_ns > 0, "four devices must contend");
    }

    #[test]
    fn snapshot_resume_is_byte_identical_at_every_boundary() {
        for devices in [1usize, 2, 4] {
            let w = ClusterWorkload::small(devices, 23);
            let base = run_uninterrupted(&w).unwrap();
            let base_json = serde_json::to_string(&base.report).unwrap();
            for step in [0, w.steps / 2, w.steps - 1] {
                for boundary in StepBoundary::ALL {
                    let kill = KillPoint { step, boundary };
                    let resumed = run_resumed(&w, kill).unwrap();
                    assert_eq!(resumed.snapshots_taken, 1);
                    assert!(resumed.snapshot_bytes > 0);
                    let json = serde_json::to_string(&resumed.report).unwrap();
                    assert_eq!(json, base_json, "N={devices} kill at {kill:?} diverged");
                }
            }
        }
    }

    #[test]
    fn from_snapshot_rejects_per_device_length_mismatches() {
        let cfg = ClusterConfig::new(TecoConfig::default().with_giant_cache_bytes(1 << 20), 2);
        let clean = ClusterSession::new(cfg).unwrap().snapshot();
        assert!(ClusterSession::from_snapshot(&clean).is_ok());
        let edits: [fn(&mut ClusterSnapshot); 9] = [
            |s| s.devices.push(s.devices[0].clone()),
            |s| s.now_ps.push(0),
            |s| s.host_seen.push(0),
            |s| s.bcast_seen.push(0),
            |s| s.alive.push(true),
            |s| s.detected_down.push(false),
            |s| s.arbiter.n = 3,
            |s| s.arbiter.accounts.push(HostAccount::default()),
            |s| s.arbiter.quarantined.push(false),
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut s = clean.clone();
            edit(&mut s);
            assert!(
                matches!(ClusterSession::from_snapshot(&s), Err(SessionError::Config(_))),
                "edit {i} was not a typed Config error"
            );
        }
    }

    #[test]
    fn compute_time_shifts_device_clocks_not_physics() {
        let mut w = ClusterWorkload::small(2, 13);
        let fast = run_uninterrupted(&w).unwrap().report;
        w.compute_ns_per_step = 10_000;
        let slow = run_uninterrupted(&w).unwrap().report;
        assert!(slow.cluster_time_ns > fast.cluster_time_ns);
        assert_eq!(slow.devices[0].device_checksum, fast.devices[0].device_checksum);
        assert_eq!(slow.pool_checksum, fast.pool_checksum);
    }
}
