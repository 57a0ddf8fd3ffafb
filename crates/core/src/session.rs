//! The TECO session: the runtime object behind Listing 1's two-line
//! integration.
//!
//! A session owns the whole hardware stack — coherence engine, CPU-side
//! Aggregator, device-side giant cache with its Disaggregator, the CXL
//! link, and `CXLFENCE` — and exposes the paper's user API:
//! `check_activation(step)` after `loss.backward()`, with tensor mapping
//! and fences hidden inside. It also provides the *functional* end-to-end
//! data path (CPU writes a parameter line → update protocol → aggregation
//! → link → merge into the giant cache) used by the examples and
//! integration tests.

use crate::config::TecoConfig;
use crate::placement::{PlacementEngine, PlacementEngineSnapshot, PlacementPolicy};
use serde::{Deserialize, Reader, Serialize, Writer};
use std::collections::{HashMap, HashSet};
use teco_cxl::{
    audit_all, line_checksum, merged_reference, Agent, Aggregator, AggregatorSnapshot, AuditError,
    CoherenceEngine, CoherenceSnapshot, CxlFence, CxlLink, CxlLinkSnapshot, CxlPacket, DbaRegister,
    Direction, FaultStats, FenceDeadline, FenceStats, FenceTimeout, GiantCache, GiantCacheError,
    GiantCacheSnapshot, LinkError, MediaRas, MediaRasSnapshot, Opcode, ProtocolMode, RasStats,
    TransferFault, PAYLOAD_FLIP,
};
use teco_mem::tier::Tier;
use teco_mem::{line_runs, lines_from_runs, Addr, LineData, RegionId, LINE_BYTES};
use teco_sim::{Bytes, Interval, SimTime};

/// Statistics a session accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Parameter lines pushed CPU→device.
    pub param_lines: u64,
    /// Gradient lines pushed device→CPU.
    pub grad_lines: u64,
    /// Payload bytes CPU→device.
    pub bytes_to_device: u64,
    /// Payload bytes device→CPU.
    pub bytes_to_host: u64,
    /// Training steps seen by `check_activation`.
    pub steps: u64,
}

/// Typed session errors — every fallible step of the data path surfaces
/// here instead of panicking, so fault reporting can attribute failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The configuration failed validation.
    Config(String),
    /// A giant-cache operation failed (unmapped address, capacity,
    /// quarantined line).
    GiantCache(GiantCacheError),
    /// The link gave up on a transfer (replay buffer exhausted).
    Link(LinkError),
    /// A `CXLFENCE` did not complete within its configured timeout.
    Fence(FenceTimeout),
    /// The paranoid auditor found a cross-module invariant violation.
    Audit(AuditError),
    /// A cluster device stopped responding: its fence never reaches the
    /// watchdog deadline's horizon and every operation on it fails typed.
    DeviceDown {
        /// The dead device's index.
        device: u64,
        /// Simulation time the operation observed the loss, ns.
        time_ns: u64,
    },
    /// An inner error wrapped with attribution context, so a failure in
    /// an N-device cluster names the device, region, and sim time that
    /// produced it from the error alone.
    Context {
        /// Device the failing operation ran on.
        device: u64,
        /// Giant-cache region involved, when known.
        region: Option<String>,
        /// Simulation time of the failure, ns.
        time_ns: u64,
        /// The underlying error.
        source: Box<SessionError>,
    },
}

impl SessionError {
    /// Wrap this error with cluster attribution context.
    pub fn in_context(self, device: u64, region: Option<String>, now: SimTime) -> SessionError {
        SessionError::Context { device, region, time_ns: now.as_ns(), source: Box::new(self) }
    }

    /// The innermost (context-free) error, for `matches!`-style dispatch.
    pub fn root(&self) -> &SessionError {
        match self {
            SessionError::Context { source, .. } => source.root(),
            other => other,
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Config(msg) => write!(f, "invalid config: {msg}"),
            SessionError::GiantCache(e) => write!(f, "giant cache: {e}"),
            SessionError::Link(e) => write!(f, "link: {e}"),
            SessionError::Fence(e) => write!(f, "fence: {e}"),
            SessionError::Audit(e) => write!(f, "audit: {e}"),
            SessionError::DeviceDown { device, time_ns } => {
                write!(f, "device {device} down at t={time_ns} ns: link unresponsive")
            }
            SessionError::Context { device, region, time_ns, source } => {
                write!(f, "device {device}")?;
                if let Some(r) = region {
                    write!(f, " region `{r}`")?;
                }
                write!(f, " at t={time_ns} ns: {source}")
            }
        }
    }
}
impl std::error::Error for SessionError {}

impl From<GiantCacheError> for SessionError {
    fn from(e: GiantCacheError) -> Self {
        SessionError::GiantCache(e)
    }
}
impl From<LinkError> for SessionError {
    fn from(e: LinkError) -> Self {
        SessionError::Link(e)
    }
}
impl From<FenceTimeout> for SessionError {
    fn from(e: FenceTimeout) -> Self {
        SessionError::Fence(e)
    }
}

/// Parameter lines aggregated into the wire buffer per run. A session's
/// buffer lives as long as the session, and a checkpoint restore builds a
/// new one, so it stays small: 64 KB of DBA payload, 128 KB of full lines.
const WIRE_RUN_LINES: usize = 2048;

/// The fault outcome drawn for one line before it goes: the payload byte
/// an aggregation-pipeline fault flips, if any, and the link transfer's
/// fault.
#[derive(Debug, Clone, Copy)]
struct LineFault {
    flip: Option<usize>,
    transfer: TransferFault,
}

/// Widen `span` to cover `iv`.
fn cover(span: &mut Option<Interval>, iv: Interval) {
    *span = Some(match *span {
        None => iv,
        Some(s) => Interval::new(s.start.min(iv.start), s.end.max(iv.end)),
    });
}

/// The TECO runtime session.
#[derive(Debug)]
pub struct TecoSession {
    cfg: TecoConfig,
    /// CPU-side CXL module.
    aggregator: Aggregator,
    /// Accelerator memory mapped into the coherence domain (owns the
    /// Disaggregator).
    giant_cache: GiantCache,
    /// The MESI(+update) engine.
    coherence: CoherenceEngine,
    /// The physical link.
    link: CxlLink,
    /// CXLFENCE bookkeeping.
    fence: CxlFence,
    dba_active: bool,
    stats: SessionStats,
    /// Reused wire buffer for the bulk aggregation path; retains its
    /// capacity across pushes so the steady state allocates nothing.
    wire_buf: Vec<u8>,
    /// Session-side recovery counters (quarantines, checksum mismatches,
    /// full-line retries, degradations, fence timeouts). Disjoint from the
    /// link's counters; [`TecoSession::fault_report`] merges both.
    fstats: FaultStats,
    /// Base addresses of regions downgraded to the software-memcpy
    /// baseline after the recovery ladder gave up on them.
    degraded: HashSet<u64>,
    /// Names of the degraded regions, in degradation order.
    degraded_names: Vec<String>,
    /// The paranoid auditor's shadow: an independently maintained copy of
    /// every giant-cache line this session wrote, evolved CPU-side by the
    /// same DBA-merge semantics the device applies. `None` when auditing is
    /// off — the legacy path then never touches it (no allocations, no
    /// hashing, no walks).
    shadow: Option<HashMap<u64, LineData>>,
    /// Pool-media RAS for this device's giant-cache pages: persistent
    /// fault arrivals, the patrol scrubber, and retirement accounting.
    /// `None` when `cfg.ras` is off — the legacy path then pays nothing.
    media: Option<MediaRas>,
    /// Reused scratch for patrol-scrub results; retains capacity across
    /// steps so the RAS steady state allocates nothing.
    scrub_buf: Vec<u64>,
    /// The tiered placement engine. `None` under the default single-tier
    /// policy — the legacy path then pays nothing: no placement map, no
    /// heat taps, no boundary planning, no new snapshot fields.
    placement: Option<PlacementEngine>,
}

impl TecoSession {
    /// Create a session; the giant cache is sized by the config's BAR
    /// setting.
    pub fn new(cfg: TecoConfig) -> Result<Self, SessionError> {
        cfg.validate().map_err(SessionError::Config)?;
        let mut giant_cache = GiantCache::new(cfg.giant_cache_bytes);
        if cfg.ras.enabled() {
            giant_cache.configure_spares(cfg.ras.spare_lines);
        }
        Ok(TecoSession {
            aggregator: Aggregator::new(),
            giant_cache,
            coherence: CoherenceEngine::new(cfg.protocol),
            link: CxlLink::new(cfg.cxl),
            fence: CxlFence::new(),
            dba_active: false,
            stats: SessionStats::default(),
            wire_buf: Vec::new(),
            fstats: FaultStats::default(),
            degraded: HashSet::new(),
            degraded_names: Vec::new(),
            shadow: if cfg.audit { Some(HashMap::new()) } else { None },
            media: if cfg.ras.enabled() { Some(MediaRas::new(cfg.ras)) } else { None },
            scrub_buf: Vec::new(),
            placement: match &cfg.placement {
                PlacementPolicy::SingleTier => None,
                PlacementPolicy::Tiered(p) => {
                    Some(PlacementEngine::new(p.clone(), cfg.giant_cache_bytes))
                }
            },
            cfg,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TecoConfig {
        &self.cfg
    }
    /// Is DBA currently active?
    pub fn dba_active(&self) -> bool {
        self.dba_active
    }
    /// Session statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
    /// The giant cache (read access for assertions/tests).
    pub fn giant_cache(&self) -> &GiantCache {
        &self.giant_cache
    }
    /// The coherence engine.
    pub fn coherence(&self) -> &CoherenceEngine {
        &self.coherence
    }
    /// The link.
    pub fn link(&self) -> &CxlLink {
        &self.link
    }
    /// Fence statistics.
    pub fn fence_stats(&self) -> teco_cxl::FenceStats {
        self.fence.stats()
    }

    /// Map a tensor into the giant-cache coherence domain (hidden from the
    /// user in §VI — called by the framework at allocation time). Returns
    /// the region id and device base address.
    pub fn alloc_tensor(
        &mut self,
        name: impl Into<String>,
        bytes: u64,
    ) -> Result<(RegionId, Addr), GiantCacheError> {
        let name = name.into();
        let rounded = bytes.div_ceil(LINE_BYTES as u64) * LINE_BYTES as u64;
        if let Some(engine) = &mut self.placement {
            // The placement engine decides the tier. Giant-cache tensors
            // take the classic path below; device-resident and host-DRAM
            // tensors get engine-backed side storage instead.
            let (handle, tier) = engine.place(&name, bytes).map_err(|e| match e {
                teco_mem::tier::TierError::CapacityExceeded { requested, available, .. } => {
                    GiantCacheError::CapacityExceeded { requested, available }
                }
                other => panic!("placement failed unexpectedly: {other}"),
            })?;
            if tier != Tier::GiantCache {
                let base = engine.bind_side(handle);
                // Side regions never collide with giant-cache ids; offset
                // well past any BAR-allocated index.
                return Ok((RegionId(1_000_000 + handle), base));
            }
            let (id, base) = self.giant_cache.alloc_region(name, bytes)?;
            self.coherence.register_region(base, rounded);
            self.placement.as_mut().expect("engine checked above").bind(handle, base.0, rounded);
            return Ok((id, base));
        }
        let (id, base) = self.giant_cache.alloc_region(name, bytes)?;
        // Register the line-rounded span with the coherence engine so its
        // per-line state (and the snoop directory behind it) lives in the
        // dense arena instead of the spillover map.
        self.coherence.register_region(base, rounded);
        Ok((id, base))
    }

    /// Listing 1's `check_activation(i)`: called once per training step
    /// after `loss.backward()`. Activates DBA once `act_aft_steps` have
    /// elapsed, programming the DBA register in the CPU CXL module and
    /// propagating it to the accelerator's module via a `DbaConfig`
    /// message. Returns whether DBA is active.
    pub fn check_activation(&mut self, step: u64) -> bool {
        self.ras_maintenance();
        self.stats.steps = self.stats.steps.max(step + 1);
        let should = step >= self.cfg.act_aft_steps
            && self.cfg.dirty_bytes < 4
            && self.cfg.protocol == ProtocolMode::Update;
        if should && !self.dba_active {
            let reg = DbaRegister::new(true, self.cfg.dirty_bytes);
            self.aggregator.set_register(reg);
            // Host agent forwards the register value to the device module.
            self.giant_cache.disaggregator.set_register(reg);
            self.dba_active = true;
        }
        // The step boundary is the only point tensors may migrate between
        // tiers; a replayed step is a no-op inside the engine.
        if let Some(engine) = &mut self.placement {
            engine.step_boundary(step);
        }
        self.dba_active
    }

    /// Per-step pool-media RAS events, run as part of the training-step
    /// schedule: persistent-fault arrivals land in the latent set, then
    /// one budgeted patrol-scrub window walks its region slice and every
    /// latent fault it finds is retired on the spot. A no-op when RAS is
    /// off.
    fn ras_maintenance(&mut self) {
        if self.media.is_none() {
            return;
        }
        let mapped = self.giant_cache.mapped_lines() as u64;
        let mut buf = std::mem::take(&mut self.scrub_buf);
        buf.clear();
        {
            let media = self.media.as_mut().expect("checked above");
            media.tick(mapped);
            media.scrub(mapped, &mut buf);
        }
        for &line in &buf {
            self.retire_media_line(line);
        }
        self.scrub_buf = buf;
    }

    /// Retire one faulted giant-cache line: quarantine it so no read can
    /// return the corrupt media (the PR 2 containment front end), and
    /// re-home its storage to a spare slot when one is available. The
    /// next parameter push to the line rebuilds it from the authoritative
    /// CPU copy via the full-line heal path.
    fn retire_media_line(&mut self, line: u64) {
        let addr = Addr(line * LINE_BYTES as u64);
        let remapped = self.giant_cache.retire_line(addr).unwrap_or(false);
        let _ = self.giant_cache.quarantine_line(addr);
        if let Some(m) = self.media.as_mut() {
            m.note_retired(remapped);
        }
    }

    /// Is the pool-media RAS model enabled?
    pub fn ras_enabled(&self) -> bool {
        self.media.is_some()
    }

    /// The tiered placement engine, when a non-default policy is active.
    pub fn placement(&self) -> Option<&PlacementEngine> {
        self.placement.as_ref()
    }

    /// Size in bytes of the allocated tensor region containing `addr`,
    /// whether it lives in the giant cache or an engine-backed side tier.
    pub fn region_bytes(&self, addr: Addr) -> Option<u64> {
        if let Some(engine) = &self.placement {
            if addr.0 >= crate::placement::SIDE_BASE {
                return engine.locate(addr).map(|(h, _)| engine.map().tensors()[h].bytes);
            }
        }
        self.giant_cache.regions().lookup(addr).map(|r| r.size)
    }

    /// Is the tiered placement engine active?
    pub fn placement_enabled(&self) -> bool {
        self.placement.is_some()
    }

    /// Pool-media RAS statistics (all-zero when RAS is off).
    pub fn ras_report(&self) -> RasStats {
        self.media.as_ref().map(|m| *m.stats()).unwrap_or_default()
    }

    /// Latent (injected, not yet detected) media faults right now.
    pub fn ras_latent(&self) -> u64 {
        self.media.as_ref().map_or(0, |m| m.latent_count())
    }

    /// Push one *parameter* cache line CPU→device through the full TECO
    /// path: coherence transaction, (possible) aggregation, link transfer,
    /// and device-side merge into the giant cache. Returns the wire
    /// interval. The one-line case of [`TecoSession::push_param_lines`].
    ///
    /// `fresh` is the updated line as the CPU optimizer produced it.
    pub fn push_param_line(
        &mut self,
        addr: Addr,
        fresh: LineData,
        now: SimTime,
    ) -> Result<Interval, SessionError> {
        self.push_param_lines(addr, std::slice::from_ref(&fresh), now)
    }

    /// Push a run of consecutive *parameter* lines CPU→device. Lines go as
    /// runs: every stretch of lines that draws no fault (the whole push,
    /// with the fault model off) goes in runs of up to 2048 lines, each one
    /// Aggregator pass into a reused wire buffer, one coherence run, one
    /// closed-form link run and one Disaggregator pass on the device. Only
    /// a line that draws a fault takes the recovery ladder, and RAS-on
    /// sessions and sessions with a degraded region go one line at a time,
    /// because each line is checked before it goes. The result is
    /// observationally identical to one
    /// [`TecoSession::push_param_line`] call per line, fault draws
    /// included; an unmapped line rejects the whole run up front.
    ///
    /// `lines[i]` maps to line address `base + 64·i`. Returns the span of
    /// the lines' wire intervals.
    pub fn push_param_lines(
        &mut self,
        base: Addr,
        lines: &[LineData],
        now: SimTime,
    ) -> Result<Interval, SessionError> {
        let n = lines.len();
        if n == 0 {
            return Ok(Interval::new(now, now));
        }
        if self.placement.as_ref().is_some_and(|e| e.owns(base)) {
            return self.push_side_lines(base, lines, now, true);
        }
        if let Some(engine) = &mut self.placement {
            // Heat tap on the coherence-transaction stream for giant-cache
            // tensors; informational for pinned regions, decisive for
            // promoted ones.
            engine.note_write(base, (n * LINE_BYTES) as u64);
        }
        let addr_of = |i: usize| Addr(base.0 + (i * LINE_BYTES) as u64);
        for i in 0..n {
            if !self.giant_cache.is_mapped(addr_of(i)) {
                return Err(GiantCacheError::NotMapped(addr_of(i)).into());
            }
        }
        let per = self.aggregator.register().payload_bytes();
        let mut span = None;
        let mut i = 0;
        while i < n {
            let (addr, line) = (addr_of(i), &lines[i]);
            if self.region_degraded(addr) {
                cover(&mut span, self.push_baseline_line(addr, line, now)?);
                i += 1;
                continue;
            }
            if self.media_rebuilds(addr) {
                cover(&mut span, self.retry_full_line(addr, line, now)?);
                i += 1;
                continue;
            }
            let most = if self.media.is_some() || !self.degraded.is_empty() { 1 } else { n - i };
            let (clean, fault) = self.clean_stretch(most, Direction::ToDevice, Some(per));
            for run in lines[i..i + clean].chunks(WIRE_RUN_LINES) {
                cover(&mut span, self.push_clean_params(addr_of(i), run, now)?);
                i += run.len();
            }
            if let Some(fault) = fault {
                cover(&mut span, self.param_line_ladder(addr_of(i), &lines[i], now, fault)?);
                i += 1;
            }
        }
        Ok(span.expect("a non-empty push covers a span"))
    }

    /// Draw the fault outcomes of up to `most` lines in line order and
    /// count how many lead clean; the first faulted line's outcome comes
    /// back too, for the recovery ladder to apply. `payload_len` is the
    /// DBA payload size for parameter lines (`None` for gradients, which
    /// skip the aggregation pipeline). Draws nothing with the fault model
    /// off.
    fn clean_stretch(
        &mut self,
        most: usize,
        d: Direction,
        payload_len: Option<usize>,
    ) -> (usize, Option<LineFault>) {
        if !self.link.faults_enabled() {
            return (most, None);
        }
        for k in 0..most {
            let flip = payload_len.and_then(|len| self.link.draw_payload_fault(len));
            let transfer = self.link.draw_fault(d);
            if flip.is_some() || !transfer.is_clean() {
                return (k, Some(LineFault { flip, transfer }));
            }
        }
        (most, None)
    }

    /// Push a stretch of parameter lines that drew no fault as one run.
    fn push_clean_params(
        &mut self,
        base: Addr,
        lines: &[LineData],
        now: SimTime,
    ) -> Result<Interval, SessionError> {
        let n = lines.len();
        let mut payload = std::mem::take(&mut self.wire_buf);
        let total = self.aggregator.aggregate_lines(lines, &mut payload);
        let per = total / n;
        let aggregated = per < LINE_BYTES;
        let latency = if aggregated { self.cfg.cxl.aggregator_latency } else { SimTime::ZERO };
        let pushed = self.coherence.write_run_accounted(Agent::Cpu, base, n, per);
        debug_assert!(pushed || self.cfg.protocol == ProtocolMode::Invalidation);
        let iv = self.link.transfer_run(Direction::ToDevice, now, n as u64, per as u64, latency);
        // Device side: merge (DBA) or overwrite (full lines), one pass.
        let merged = self.giant_cache.apply_dba_payloads(base, n, &payload);
        self.wire_buf = payload;
        merged?;
        if self.shadow.is_some() {
            let dirty = if aggregated { self.aggregator.register().dirty_bytes() } else { 4 };
            for (i, line) in lines.iter().enumerate() {
                self.shadow_merge(Addr(base.0 + (i * LINE_BYTES) as u64), line, dirty);
            }
        }
        self.stats.param_lines += n as u64;
        self.stats.bytes_to_device += total as u64;
        Ok(iv)
    }

    /// The on-access media check that precedes each line of a RAS-on
    /// session: a latent media fault on the line is found (and retired) by
    /// the access itself, without waiting for the patrol scrubber. Returns
    /// whether the resident copy is gone (retired or still poisoned), so
    /// the line must be rebuilt from the fresh CPU copy.
    fn media_rebuilds(&mut self, addr: Addr) -> bool {
        let Some(media) = self.media.as_mut() else {
            return false;
        };
        let line_idx = addr.0 / LINE_BYTES as u64;
        if media.check_access(line_idx) {
            self.retire_media_line(line_idx);
        }
        if !self.giant_cache.is_quarantined(addr) {
            return false;
        }
        self.media.as_mut().expect("checked above").note_rebuild();
        true
    }

    /// One parameter line that drew `fault`, through the recovery ladder:
    ///
    /// 1. DBA payload with a Fletcher-16 checksum. A checksum mismatch
    ///    (payload corrupted in the aggregation pipeline) or a poisoned
    ///    delivery (line quarantined on the device) falls to step 2.
    /// 2. Retry as an uncompacted full 64-byte line — self-describing, no
    ///    resident-copy merge, so it both avoids the DBA pipeline and heals
    ///    a quarantine.
    /// 3. If the link's replay buffer exhausts (either step), the whole
    ///    region downgrades to the software-memcpy baseline: plain copies
    ///    outside the coherent fault path, recorded in the fault report.
    fn param_line_ladder(
        &mut self,
        addr: Addr,
        line: &LineData,
        now: SimTime,
        fault: LineFault,
    ) -> Result<Interval, SessionError> {
        let mut buf = [0u8; LINE_BYTES];
        // Sender-side checksum, computed in the same pass that packs the
        // payload; the receiver recomputes after the wire (and the
        // aggregation pipeline) had their chance to corrupt it.
        let (per, expect) = self.aggregator.aggregate_into_checksummed(line, &mut buf);
        let clean = buf;
        let payload = &mut buf[..per];
        let aggregated = per < LINE_BYTES;
        let latency = if aggregated { self.cfg.cxl.aggregator_latency } else { SimTime::ZERO };
        if let Some(at) = fault.flip {
            payload[at] ^= PAYLOAD_FLIP;
        }
        let pushed = self.coherence.write_accounted(Agent::Cpu, addr, per);
        debug_assert!(pushed || self.cfg.protocol == ProtocolMode::Invalidation);
        let out = match self.link.transfer_faulted(
            Direction::ToDevice,
            now,
            per as u64,
            latency,
            fault.transfer,
        ) {
            Ok(out) => out,
            Err(LinkError::RetryExhausted { .. }) => {
                self.degrade_region(addr);
                return self.push_baseline_line(addr, line, now);
            }
        };
        // The payload crossed the wire even if it is discarded below —
        // stats mirror the link's delivered-volume accounting.
        self.stats.bytes_to_device += per as u64;
        if out.poisoned || line_checksum(payload) != expect {
            // The effective line: what the clean DBA merge would have
            // produced on the device. The full-line retry delivers exactly
            // this — not the raw fresh line — so recovery stays
            // bit-identical to a fault-free run even where DBA truncation
            // is lossy. (Read before quarantining: a quarantined line
            // refuses reads.)
            let mut effective = self.giant_cache.read_line(addr)?;
            self.giant_cache.disaggregator.merge(&clean[..per], &mut effective);
            if out.poisoned {
                // Poison containment: the home agent refuses the payload
                // and the target line is quarantined, never merged.
                let pkt = CxlPacket::data(Opcode::FlushData, addr, payload.to_vec(), aggregated)
                    .with_poison(true);
                let admitted = self.coherence.admit_data(&pkt);
                debug_assert!(!admitted);
                self.giant_cache.quarantine_line(addr)?;
                self.fstats.quarantined_lines += 1;
            } else {
                self.fstats.checksum_mismatches += 1;
            }
            return self.retry_full_line(addr, &effective, now);
        }
        self.giant_cache.apply_dba_payload(addr, payload)?;
        if self.shadow.is_some() {
            let dirty = if aggregated { self.aggregator.register().dirty_bytes() } else { 4 };
            self.shadow_merge(addr, line, dirty);
        }
        self.stats.param_lines += 1;
        Ok(out.interval)
    }

    /// Step 2 of the ladder: resend as a full, uncompacted 64-byte line.
    fn retry_full_line(
        &mut self,
        addr: Addr,
        line: &LineData,
        now: SimTime,
    ) -> Result<Interval, SessionError> {
        self.fstats.full_line_retries += 1;
        let pushed = self.coherence.write_accounted(Agent::Cpu, addr, LINE_BYTES);
        debug_assert!(pushed || self.cfg.protocol == ProtocolMode::Invalidation);
        let out = match self.link.transfer_checked(
            Direction::ToDevice,
            now,
            LINE_BYTES as u64,
            SimTime::ZERO,
        ) {
            Ok(out) => out,
            Err(LinkError::RetryExhausted { .. }) => {
                self.degrade_region(addr);
                return self.push_baseline_line(addr, line, now);
            }
        };
        self.stats.bytes_to_device += LINE_BYTES as u64;
        if out.poisoned {
            // The retry itself arrived poisoned: contain it and stop
            // trusting the coherent path for this region.
            self.giant_cache.quarantine_line(addr)?;
            self.fstats.quarantined_lines += 1;
            self.degrade_region(addr);
            return self.push_baseline_line(addr, line, now);
        }
        // A clean full-line write both delivers the data and heals any
        // quarantine left by step 1.
        self.giant_cache.write_line(addr, *line)?;
        if let Some(shadow) = &mut self.shadow {
            shadow.insert(addr.0, *line);
        }
        self.stats.param_lines += 1;
        Ok(out.interval)
    }

    /// Step 3 of the ladder: the software-memcpy baseline. A plain full-
    /// line copy outside the coherence machinery — no DBA, no update
    /// protocol, no fault injection (the paper's non-TECO offload path).
    fn push_baseline_line(
        &mut self,
        addr: Addr,
        line: &LineData,
        now: SimTime,
    ) -> Result<Interval, SessionError> {
        let iv = self.link.transfer(Direction::ToDevice, now, LINE_BYTES as u64, SimTime::ZERO);
        self.giant_cache.write_line(addr, *line)?;
        if let Some(shadow) = &mut self.shadow {
            shadow.insert(addr.0, *line);
        }
        self.stats.param_lines += 1;
        self.stats.bytes_to_device += LINE_BYTES as u64;
        Ok(iv)
    }

    /// Record a region as permanently downgraded to the baseline path.
    fn degrade_region(&mut self, addr: Addr) {
        let hit = self.giant_cache.regions().lookup(addr).map(|r| (r.base.0, r.name.clone()));
        if let Some((base, name)) = hit {
            if self.degraded.insert(base) {
                self.fstats.degraded_regions += 1;
                self.degraded_names.push(name);
            }
        }
    }

    /// Is the region containing `addr` downgraded to the baseline?
    fn region_degraded(&self, addr: Addr) -> bool {
        !self.degraded.is_empty()
            && self
                .giant_cache
                .regions()
                .lookup(addr)
                .is_some_and(|r| self.degraded.contains(&r.base.0))
    }

    /// Push one *gradient* cache line device→CPU. The one-line case of
    /// [`TecoSession::push_grad_lines`].
    pub fn push_grad_line(
        &mut self,
        addr: Addr,
        line: LineData,
        now: SimTime,
    ) -> Result<Interval, SessionError> {
        self.push_grad_lines(addr, std::slice::from_ref(&line), now)
    }

    /// Push a run of consecutive *gradient* lines device→CPU, `lines[i]`
    /// from line address `base + 64·i`. Gradients never use DBA (§V: "The
    /// gradients transfers from the accelerator to CPU cannot apply
    /// DBA"); they are full lines, so recovery needs no checksum — a
    /// poisoned delivery gets one bounded resend, and link-retry exhaustion
    /// is a typed error. Each stretch of lines that draws no fault goes as
    /// one coherence run and one closed-form link run; under tiered
    /// placement, whose side tiers and heat taps count per line, the lines
    /// go one at a time. A run that fails at line k leaves the state k+1
    /// [`TecoSession::push_grad_line`] calls leave, the last one failing.
    /// Returns the span of the lines' wire intervals.
    pub fn push_grad_lines(
        &mut self,
        base: Addr,
        lines: &[LineData],
        now: SimTime,
    ) -> Result<Interval, SessionError> {
        let n = lines.len();
        if n == 0 {
            return Ok(Interval::new(now, now));
        }
        let addr_of = |i: usize| Addr(base.0 + (i * LINE_BYTES) as u64);
        let mut span = None;
        if let Some(engine) = &mut self.placement {
            if n > 1 {
                for (i, line) in lines.iter().enumerate() {
                    let one = std::slice::from_ref(line);
                    cover(&mut span, self.push_grad_lines(addr_of(i), one, now)?);
                }
                return Ok(span.expect("a non-empty push covers a span"));
            }
            if engine.owns(base) {
                return self.push_side_lines(base, lines, now, false);
            }
            engine.note_write(base, LINE_BYTES as u64);
        }
        let mut i = 0;
        while i < n {
            let (clean, fault) = self.clean_stretch(n - i, Direction::ToHost, None);
            if clean > 0 {
                self.coherence.write_run_accounted(Agent::Device, addr_of(i), clean, LINE_BYTES);
                let line = LINE_BYTES as u64;
                let iv = self.link.transfer_run(
                    Direction::ToHost,
                    now,
                    clean as u64,
                    line,
                    SimTime::ZERO,
                );
                cover(&mut span, iv);
                self.stats.grad_lines += clean as u64;
                self.stats.bytes_to_host += clean as u64 * line;
                i += clean;
            }
            if let Some(fault) = fault {
                cover(
                    &mut span,
                    self.grad_line_ladder(addr_of(i), &lines[i], now, fault.transfer)?,
                );
                i += 1;
            }
        }
        Ok(span.expect("a non-empty push covers a span"))
    }

    /// One gradient line whose first transfer drew `fault`. Gradient lines
    /// land in host memory, not the giant cache; poison containment is the
    /// home agent's admission check, and the bounded resend is the
    /// recovery.
    fn grad_line_ladder(
        &mut self,
        addr: Addr,
        line: &LineData,
        now: SimTime,
        mut fault: TransferFault,
    ) -> Result<Interval, SessionError> {
        self.coherence.write_accounted(Agent::Device, addr, LINE_BYTES);
        let mut resent = false;
        loop {
            let bytes = LINE_BYTES as u64;
            let out =
                self.link.transfer_faulted(Direction::ToHost, now, bytes, SimTime::ZERO, fault)?;
            if out.poisoned && !resent {
                let pkt = CxlPacket::data(Opcode::FlushData, addr, line.bytes().to_vec(), false)
                    .with_poison(true);
                let admitted = self.coherence.admit_data(&pkt);
                debug_assert!(!admitted);
                self.fstats.full_line_retries += 1;
                resent = true;
                fault = self.link.draw_fault(Direction::ToHost);
                continue;
            }
            // Either clean, or the bounded resend also arrived poisoned —
            // deliver what we have and let the stats carry the poison
            // record.
            self.stats.grad_lines += 1;
            self.stats.bytes_to_host += bytes;
            return Ok(out.interval);
        }
    }

    /// The engine-backed push path for side-tier tensors (device-resident
    /// and host-DRAM placements, plus tensors later promoted into the
    /// giant-cache tier). Device-resident lines cross no link at all;
    /// host-DRAM lines cross the pool budget as full 64-byte lines (no
    /// DBA — plain coherent host memory); promoted giant-cache lines pay
    /// the DBA-aggregated wire size. All pool traffic is charged through
    /// the engine's `HostLinkArbiter`.
    fn push_side_lines(
        &mut self,
        base: Addr,
        lines: &[LineData],
        now: SimTime,
        to_device: bool,
    ) -> Result<Interval, SessionError> {
        let n = lines.len() as u64;
        let per_wire = self.aggregator.register().payload_bytes() as u64;
        let engine = self.placement.as_mut().expect("side address implies an engine");
        let (_, tier) = engine.locate(base).ok_or(GiantCacheError::NotMapped(base))?;
        engine.write_lines(base, lines)?;
        engine.note_write(base, n * LINE_BYTES as u64);
        let (charged, iv) = match tier {
            Tier::Device => (0, Interval::new(now, now)),
            Tier::GiantCache => {
                let bytes = if to_device { per_wire * n } else { LINE_BYTES as u64 * n };
                (bytes, engine.charge_pool(now, bytes))
            }
            Tier::HostDram => {
                let bytes = LINE_BYTES as u64 * n;
                (bytes, engine.charge_pool(now, bytes))
            }
        };
        if to_device {
            self.stats.param_lines += n;
            self.stats.bytes_to_device += charged;
        } else {
            self.stats.grad_lines += n;
            self.stats.bytes_to_host += charged;
        }
        Ok(iv)
    }

    /// Evolve the shadow copy of `addr` by the device's merge semantics.
    fn shadow_merge(&mut self, addr: Addr, fresh: &LineData, dirty: u8) {
        let shadow = self.shadow.as_mut().expect("caller checked shadow is on");
        let prev = shadow.get(&addr.0).copied().unwrap_or_else(LineData::zeroed);
        shadow.insert(addr.0, merged_reference(&prev, fresh, dirty));
    }

    /// Is the paranoid auditor enabled?
    pub fn audit_enabled(&self) -> bool {
        self.shadow.is_some()
    }

    /// Run the paranoid auditor now. A no-op returning `Ok` when auditing
    /// is off; otherwise walks every cross-module invariant (see
    /// [`teco_cxl::audit`]) including the shadow-data comparison.
    pub fn run_audit(&self) -> Result<(), SessionError> {
        match &self.shadow {
            None => Ok(()),
            Some(shadow) => audit_all(&self.coherence, &self.giant_cache, &self.link, shadow)
                .map_err(SessionError::Audit),
        }
    }

    /// The fence-point audit: paranoid mode is fail-stop, so an enabled
    /// auditor that finds a violation panics with the typed error rather
    /// than letting the run continue on corrupt state. (The `try_*` fence
    /// variants surface it as `Err` instead.)
    fn audit_at_fence(&self) {
        if let Err(e) = self.run_audit() {
            panic!("TECO audit failed at fence: {e}");
        }
    }

    /// `CXLFENCE()` for the CPU→device direction (end of parameter
    /// updates, called inside `optimizer.step()` per Listing 1).
    pub fn cxlfence_params(&mut self, now: SimTime) -> SimTime {
        let t = self.fence.fence(&self.link, Direction::ToDevice, now);
        self.audit_at_fence();
        t
    }

    /// `CXLFENCE()` for the device→CPU direction (end of the gradient
    /// flush, called inside `loss.backward()`).
    pub fn cxlfence_grads(&mut self, now: SimTime) -> SimTime {
        let t = self.fence.fence(&self.link, Direction::ToHost, now);
        self.audit_at_fence();
        t
    }

    /// The fence deadline from the fault config (`0` means unbounded).
    /// One [`FenceDeadline`] value backs every deadline consumer — the
    /// session's `try_*` fences, the cluster's per-device fences, and the
    /// device-loss watchdog — so their expiry semantics cannot drift.
    pub fn fence_deadline(&self) -> FenceDeadline {
        FenceDeadline::from_ns(self.cfg.cxl.fault.fence_timeout_ns)
    }

    /// The shared deadline-checked fence: both directions funnel through
    /// this one helper (the former per-direction copies had duplicated
    /// the timeout translation and bookkeeping).
    fn try_cxlfence(&mut self, dir: Direction, now: SimTime) -> Result<SimTime, SessionError> {
        let deadline = self.fence_deadline();
        let t = self.fence.try_fence(&self.link, dir, now, deadline.timeout()).map_err(|e| {
            self.fstats.fence_timeouts += 1;
            SessionError::Fence(e)
        })?;
        self.run_audit()?;
        Ok(t)
    }

    /// [`TecoSession::cxlfence_params`] with the configured timeout: a
    /// drain that would outlast it surfaces as a typed error instead of
    /// blocking unboundedly.
    pub fn try_cxlfence_params(&mut self, now: SimTime) -> Result<SimTime, SessionError> {
        self.try_cxlfence(Direction::ToDevice, now)
    }

    /// [`TecoSession::cxlfence_grads`] with the configured timeout.
    pub fn try_cxlfence_grads(&mut self, now: SimTime) -> Result<SimTime, SessionError> {
        self.try_cxlfence(Direction::ToHost, now)
    }

    /// Read a line from the device's giant cache (what the GPU kernels
    /// see), or from the placement engine's store for side-tier tensors.
    pub fn device_read_line(&self, addr: Addr) -> Result<LineData, GiantCacheError> {
        if let Some(engine) = &self.placement {
            if engine.owns(addr) {
                return engine.read_line(addr);
            }
        }
        self.giant_cache.read_line(addr)
    }

    /// The DBA payload bytes one 64-byte line currently costs on the wire.
    pub fn wire_bytes_per_line(&self) -> usize {
        self.aggregator.register().payload_bytes()
    }

    /// The merged fault/recovery report: link-side counters (CRC errors,
    /// replays, stalls, poison) plus session-side recovery counters
    /// (quarantines, checksum mismatches, full-line retries, degraded
    /// regions, fence timeouts). All-zero when the fault model is off.
    pub fn fault_report(&self) -> FaultStats {
        let mut merged = *self.link.fault_stats();
        merged.merge(&self.fstats);
        merged
    }

    /// Names of regions downgraded to the software-memcpy baseline, in
    /// degradation order. Empty unless the recovery ladder gave up.
    pub fn degraded_regions(&self) -> &[String] {
        &self.degraded_names
    }

    /// Capture the complete session state: every component's checkpoint
    /// image plus the session-level bookkeeping. `HashMap`/`HashSet`-backed
    /// state is sorted before capture so the serialized form is
    /// deterministic; the reused wire buffer is capacity-only scratch and
    /// is deliberately not captured (a restored session re-grows it on the
    /// first bulk push with no behavioral difference).
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut degraded: Vec<u64> = self.degraded.iter().copied().collect();
        degraded.sort_unstable();
        let shadow = self.shadow.as_ref().map(line_runs);
        SessionSnapshot {
            cfg: self.cfg.clone(),
            aggregator: self.aggregator.snapshot(),
            giant_cache: self.giant_cache.snapshot(),
            coherence: self.coherence.snapshot(),
            link: self.link.snapshot(),
            fence: self.fence.stats(),
            dba_active: self.dba_active,
            stats: self.stats,
            fstats: self.fstats,
            degraded,
            degraded_names: self.degraded_names.clone(),
            shadow,
            media: self.media.as_ref().map(|m| m.snapshot()),
            placement: self.placement.as_ref().map(|e| e.snapshot()),
        }
    }

    /// Rebuild a session from a captured state. The restored session is
    /// observationally identical to the original at the capture point:
    /// every subsequent push, fence, fault draw, and audit walk produces
    /// bit-identical results.
    pub fn from_snapshot(s: &SessionSnapshot) -> Result<Self, SessionError> {
        s.cfg.validate().map_err(SessionError::Config)?;
        let shadow = s
            .shadow
            .as_deref()
            .map(|runs| lines_from_runs("audit shadow line", runs))
            .transpose()
            .map_err(SessionError::Config)?;
        Ok(TecoSession {
            cfg: s.cfg.clone(),
            aggregator: Aggregator::restore(&s.aggregator),
            giant_cache: GiantCache::restore(&s.giant_cache).map_err(SessionError::Config)?,
            coherence: CoherenceEngine::restore(&s.coherence).map_err(SessionError::Config)?,
            link: CxlLink::restore(&s.link).map_err(SessionError::Config)?,
            fence: CxlFence::from_stats(s.fence),
            dba_active: s.dba_active,
            stats: s.stats,
            wire_buf: Vec::new(),
            fstats: s.fstats,
            degraded: s.degraded.iter().copied().collect(),
            degraded_names: s.degraded_names.clone(),
            shadow,
            media: s.media.as_ref().map(MediaRas::from_snapshot),
            scrub_buf: Vec::new(),
            placement: s
                .placement
                .as_ref()
                .map(PlacementEngine::from_snapshot)
                .transpose()
                .map_err(SessionError::Config)?,
        })
    }
}

/// Serialized form of a [`TecoSession`] — the per-crate checkpoint images
/// plus session-level bookkeeping, all in deterministic order.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The configuration the session was built with.
    pub cfg: TecoConfig,
    /// CPU-side CXL module (DBA register + counters).
    pub aggregator: AggregatorSnapshot,
    /// Device memory: resident lines, written/quarantined bitmaps, regions,
    /// and the Disaggregator.
    pub giant_cache: GiantCacheSnapshot,
    /// Coherence engine: per-line MESI states, snoop filter, traffic.
    pub coherence: CoherenceSnapshot,
    /// The link: per-channel server state and counters, and the fault
    /// injector's RNG streams (mid-retry kills resume the identical fault
    /// schedule).
    pub link: CxlLinkSnapshot,
    /// Fence counters.
    pub fence: FenceStats,
    /// Has DBA activated?
    pub dba_active: bool,
    /// Session statistics.
    pub stats: SessionStats,
    /// Session-side recovery counters.
    pub fstats: FaultStats,
    /// Degraded region bases, sorted.
    pub degraded: Vec<u64>,
    /// Degraded region names, in degradation order.
    pub degraded_names: Vec<String>,
    /// The auditor's shadow lines as `(first address, bytes)` runs,
    /// ascending; `None` when auditing is off.
    pub shadow: Option<Vec<(u64, Bytes)>>,
    /// Pool-media RAS state (latent faults, RNG stream, scrub cursor);
    /// `None` when RAS is off.
    pub media: Option<MediaRasSnapshot>,
    /// Tiered placement engine state; `None` under the default
    /// single-tier policy.
    pub placement: Option<PlacementEngineSnapshot>,
}

// Hand-written (de)serialization: the vendored derive has no field
// attributes, and `media`/`placement` are omitted when `None`, so a
// RAS-off, single-tier snapshot carries no key for either feature.
impl Serialize for SessionSnapshot {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.field("cfg", &self.cfg);
        w.field("aggregator", &self.aggregator);
        w.field("giant_cache", &self.giant_cache);
        w.field("coherence", &self.coherence);
        w.field("link", &self.link);
        w.field("fence", &self.fence);
        w.field("dba_active", &self.dba_active);
        w.field("stats", &self.stats);
        w.field("fstats", &self.fstats);
        w.field("degraded", &self.degraded);
        w.field("degraded_names", &self.degraded_names);
        w.field("shadow", &self.shadow);
        if let Some(m) = &self.media {
            w.field("media", m);
        }
        if let Some(p) = &self.placement {
            w.field("placement", p);
        }
        w.end_object();
    }
}

impl Deserialize for SessionSnapshot {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let (mut cfg, mut aggregator, mut giant_cache, mut coherence) = (None, None, None, None);
        let (mut link, mut fence, mut dba_active, mut stats) = (None, None, None, None);
        let (mut fstats, mut degraded, mut degraded_names, mut shadow) = (None, None, None, None);
        // A present `media` / `placement` key may itself hold `null`.
        let (mut media, mut placement) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "cfg" => r.field(&mut cfg)?,
                "aggregator" => r.field(&mut aggregator)?,
                "giant_cache" => r.field(&mut giant_cache)?,
                "coherence" => r.field(&mut coherence)?,
                "link" => r.field(&mut link)?,
                "fence" => r.field(&mut fence)?,
                "dba_active" => r.field(&mut dba_active)?,
                "stats" => r.field(&mut stats)?,
                "fstats" => r.field(&mut fstats)?,
                "degraded" => r.field(&mut degraded)?,
                "degraded_names" => r.field(&mut degraded_names)?,
                "shadow" => r.field(&mut shadow)?,
                "media" => r.field(&mut media)?,
                "placement" => r.field(&mut placement)?,
                _ => r.skip_value()?,
            }
        }
        const TY: &str = "SessionSnapshot";
        Ok(SessionSnapshot {
            cfg: Reader::required(cfg, "cfg", TY)?,
            aggregator: Reader::required(aggregator, "aggregator", TY)?,
            giant_cache: Reader::required(giant_cache, "giant_cache", TY)?,
            coherence: Reader::required(coherence, "coherence", TY)?,
            link: Reader::required(link, "link", TY)?,
            fence: Reader::required(fence, "fence", TY)?,
            dba_active: Reader::required(dba_active, "dba_active", TY)?,
            stats: Reader::required(stats, "stats", TY)?,
            fstats: Reader::required(fstats, "fstats", TY)?,
            degraded: Reader::required(degraded, "degraded", TY)?,
            degraded_names: Reader::required(degraded_names, "degraded_names", TY)?,
            shadow: Reader::required(shadow, "shadow", TY)?,
            media: media.flatten(),
            placement: placement.flatten(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teco_cxl::MesiState;

    fn session() -> TecoSession {
        TecoSession::new(TecoConfig::default().with_giant_cache_bytes(1 << 20)).unwrap()
    }

    fn line_with(v: u32) -> LineData {
        let mut l = LineData::zeroed();
        for w in 0..16 {
            l.set_word(w, v.wrapping_add(w as u32));
        }
        l
    }

    #[test]
    fn activation_follows_schedule() {
        let mut s = session();
        assert!(!s.check_activation(0));
        assert!(!s.check_activation(499));
        assert!(s.check_activation(500));
        assert!(s.dba_active());
        assert_eq!(s.wire_bytes_per_line(), 32);
        // Device-side register mirrored.
        assert!(s.giant_cache().disaggregator.register().active());
    }

    #[test]
    fn no_activation_under_invalidation_protocol() {
        let cfg = TecoConfig::default().with_protocol(ProtocolMode::Invalidation);
        let mut s = TecoSession::new(cfg).unwrap();
        assert!(!s.check_activation(10_000));
        assert_eq!(s.wire_bytes_per_line(), 64);
    }

    #[test]
    fn param_line_roundtrip_before_dba() {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        let fresh = line_with(0xABCD_0000);
        s.push_param_line(base, fresh, SimTime::ZERO).unwrap();
        assert_eq!(s.device_read_line(base).unwrap(), fresh);
        assert_eq!(s.stats().bytes_to_device, 64);
        // Coherent state after push: both S.
        let st = s.coherence().line_state(base);
        assert_eq!(st.cs, MesiState::S);
        assert_eq!(st.gs, MesiState::S);
    }

    #[test]
    fn param_line_dba_merges_on_device() {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        // Step 0: full-line push establishes the resident copy.
        let v0 = line_with(0x4111_2222);
        s.push_param_line(base, v0, SimTime::ZERO).unwrap();
        // Activate DBA and push an update that only changes low 2 bytes.
        s.check_activation(500);
        let mut v1 = v0;
        for w in 0..16 {
            v1.set_word(w, (v0.word(w) & 0xFFFF_0000) | 0x0000_7777);
        }
        s.push_param_line(base, v1, SimTime::from_us(1)).unwrap();
        assert_eq!(s.device_read_line(base).unwrap(), v1, "exact reconstruction");
        // Only 32 payload bytes crossed for the second line.
        assert_eq!(s.stats().bytes_to_device, 64 + 32);
    }

    #[test]
    fn dba_is_lossy_on_high_byte_changes() {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        let v0 = line_with(0x1111_0000);
        s.push_param_line(base, v0, SimTime::ZERO).unwrap();
        s.check_activation(999);
        let v1 = line_with(0x2222_0000); // high bytes changed too
        s.push_param_line(base, v1, SimTime::from_us(1)).unwrap();
        let got = s.device_read_line(base).unwrap();
        for w in 0..16 {
            let expect = (v0.word(w) & 0xFFFF_0000) | (v1.word(w) & 0x0000_FFFF);
            assert_eq!(got.word(w), expect, "word {w}");
        }
    }

    #[test]
    fn bulk_push_matches_per_line_loop() {
        // One push_param_lines call must be observationally identical to a
        // loop of push_param_line: device contents, stats, coherence
        // traffic, link volume, and wire interval.
        for activate in [false, true] {
            let mut a = session();
            let mut b = session();
            let (_, base_a) = a.alloc_tensor("params", 4096).unwrap();
            let (_, base_b) = b.alloc_tensor("params", 4096).unwrap();
            if activate {
                a.check_activation(500);
                b.check_activation(500);
            }
            let lines: Vec<LineData> = (0..8).map(|i| line_with(0x4200_0000 + i)).collect();
            let mut iv_a: Option<Interval> = None;
            for (i, &l) in lines.iter().enumerate() {
                let iv =
                    a.push_param_line(Addr(base_a.0 + i as u64 * 64), l, SimTime::ZERO).unwrap();
                iv_a = Some(match iv_a {
                    None => iv,
                    Some(p) => Interval::new(p.start.min(iv.start), p.end.max(iv.end)),
                });
            }
            let iv_b = b.push_param_lines(base_b, &lines, SimTime::ZERO).unwrap();
            assert_eq!(iv_a.unwrap(), iv_b);
            assert_eq!(a.stats().param_lines, b.stats().param_lines);
            assert_eq!(a.stats().bytes_to_device, b.stats().bytes_to_device);
            assert_eq!(a.coherence().to_device, b.coherence().to_device);
            assert_eq!(a.coherence().to_host, b.coherence().to_host);
            assert_eq!(a.link().volume(Direction::ToDevice), b.link().volume(Direction::ToDevice));
            for i in 0..8u64 {
                assert_eq!(
                    a.device_read_line(Addr(base_a.0 + i * 64)).unwrap(),
                    b.device_read_line(Addr(base_b.0 + i * 64)).unwrap(),
                    "line {i} (dba={activate})"
                );
            }
        }
    }

    #[test]
    fn bulk_push_rejects_unmapped_run() {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 128).unwrap(); // two lines
        let lines = vec![line_with(1); 3];
        assert!(s.push_param_lines(base, &lines, SimTime::ZERO).is_err());
        assert_eq!(s.stats().param_lines, 0, "failed push leaves stats untouched");
    }

    #[test]
    fn fence_drains_link() {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 1 << 16).unwrap();
        let mut last_end = SimTime::ZERO;
        for i in 0..100u64 {
            let iv = s
                .push_param_line(Addr(base.0 + i * 64), line_with(i as u32), SimTime::ZERO)
                .unwrap();
            last_end = last_end.max(iv.end);
        }
        let fence_done = s.cxlfence_params(SimTime::ZERO);
        assert!(fence_done >= last_end);
        assert_eq!(s.fence_stats().calls, 1);
    }

    #[test]
    fn gradient_lines_never_aggregate() {
        let mut s = session();
        let (_, gbase) = s.alloc_tensor("grads", 4096).unwrap();
        s.check_activation(1_000); // DBA on for params
        s.push_grad_line(gbase, line_with(7), SimTime::ZERO).unwrap();
        assert_eq!(s.stats().bytes_to_host, 64, "gradients go as full lines");
        assert_eq!(s.link().volume(Direction::ToHost), 64);
    }

    #[test]
    fn unmapped_param_push_fails() {
        let mut s = session();
        let err = s.push_param_line(Addr(0xDEAD_0000), line_with(1), SimTime::ZERO);
        assert!(err.is_err());
    }

    #[test]
    fn listing1_training_loop_shape() {
        // The §VI integration: per step, gradients flush + fence, then
        // params push + fence — exactly two fences per step.
        let mut s = session();
        let (_, pbase) = s.alloc_tensor("params", 1 << 12).unwrap();
        let (_, gbase) = s.alloc_tensor("grads", 1 << 12).unwrap();
        let mut now = SimTime::ZERO;
        for step in 0..3u64 {
            // backward: gradient lines stream out, then CXLFENCE (inside
            // loss.backward()).
            for i in 0..8u64 {
                s.push_grad_line(Addr(gbase.0 + i * 64), line_with(i as u32), now).unwrap();
            }
            now = s.cxlfence_grads(now);
            s.check_activation(step);
            // optimizer.step(): param pushes, then CXLFENCE.
            for i in 0..8u64 {
                s.push_param_line(Addr(pbase.0 + i * 64), line_with(100 + i as u32), now).unwrap();
            }
            now = s.cxlfence_params(now);
        }
        assert_eq!(s.fence_stats().calls, 6);
        assert_eq!(s.stats().param_lines, 24);
        assert_eq!(s.stats().grad_lines, 24);
    }

    fn faulty_session(fault: teco_cxl::FaultConfig) -> TecoSession {
        let cfg = TecoConfig::default().with_giant_cache_bytes(1 << 20).with_fault(fault);
        TecoSession::new(cfg).unwrap()
    }

    #[test]
    fn fault_model_off_reports_all_zero() {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        s.push_param_line(base, line_with(1), SimTime::ZERO).unwrap();
        assert!(!s.fault_report().any());
        assert!(s.degraded_regions().is_empty());
    }

    #[test]
    fn checksum_mismatch_retries_as_full_line() {
        // Corrupt every DBA payload: each push detects the mismatch and
        // resends the full 64-byte line, converging to exactly what a
        // fault-free DBA merge would have produced.
        let mut s = faulty_session(teco_cxl::FaultConfig {
            dba_checksum_error_rate: 1.0,
            seed: 11,
            ..teco_cxl::FaultConfig::off()
        });
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        // Establish the resident copy (full line; also corrupted+retried).
        let v0 = line_with(0x6000_0000);
        s.push_param_line(base, v0, SimTime::ZERO).unwrap();
        assert_eq!(s.device_read_line(base).unwrap(), v0);
        s.check_activation(500);
        assert!(s.dba_active());
        // A DBA-conformant update: only the low two bytes change.
        let mut v1 = v0;
        for w in 0..16 {
            v1.set_word(w, (v0.word(w) & 0xFFFF_0000) | 0x0000_5151);
        }
        s.push_param_line(base, v1, SimTime::from_us(1)).unwrap();
        assert_eq!(s.device_read_line(base).unwrap(), v1, "full-line retry is exact");
        let r = s.fault_report();
        assert_eq!(r.checksum_mismatches, 2);
        assert_eq!(r.full_line_retries, 2);
        assert_eq!(r.degraded_regions, 0);
        // (64 corrupt + 64 retry) then (32 corrupt + 64 retry) crossed.
        assert_eq!(s.stats().bytes_to_device, 64 + 64 + 32 + 64);
        assert_eq!(s.stats().bytes_to_device, s.link().volume(Direction::ToDevice));
    }

    #[test]
    fn poison_quarantines_then_full_line_heals() {
        // First transfer of the to-device stream is poisoned under seed 5
        // (rate 1.0 → every transfer); the line is quarantined, and the
        // full-line retry is also poisoned → region degrades to baseline,
        // which delivers the exact data anyway.
        let mut s = faulty_session(teco_cxl::FaultConfig {
            poison_rate: 1.0,
            seed: 5,
            ..teco_cxl::FaultConfig::off()
        });
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        let fresh = line_with(0x7000_0000);
        s.push_param_line(base, fresh, SimTime::ZERO).unwrap();
        assert_eq!(s.device_read_line(base).unwrap(), fresh, "baseline still delivers");
        let r = s.fault_report();
        assert!(r.quarantined_lines >= 1);
        assert_eq!(r.degraded_regions, 1);
        assert_eq!(s.degraded_regions(), ["params"]);
        assert!(!s.giant_cache().is_quarantined(base), "baseline write healed it");
        assert!(s.coherence().poisoned_rejects() >= 1, "home agent refused the payload");
    }

    #[test]
    fn retry_exhaustion_degrades_region_once() {
        let mut s = faulty_session(teco_cxl::FaultConfig {
            crc_error_rate: 1.0,
            retry_limit: 2,
            seed: 9,
            ..teco_cxl::FaultConfig::off()
        });
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        for i in 0..4u64 {
            let fresh = line_with(0x100 + i as u32);
            s.push_param_line(Addr(base.0 + i * 64), fresh, SimTime::ZERO).unwrap();
            assert_eq!(s.device_read_line(Addr(base.0 + i * 64)).unwrap(), fresh);
        }
        let r = s.fault_report();
        assert_eq!(r.degraded_regions, 1, "one region, degraded once");
        assert_eq!(s.degraded_regions().len(), 1);
        // After degradation the baseline path draws no faults: exactly one
        // replay-exhaustion event ever happened.
        assert_eq!(r.replay_exhausted, 1);
        assert_eq!(s.stats().param_lines, 4);
    }

    #[test]
    fn recoverable_faults_converge_to_fault_free_state() {
        // The acceptance criterion: with recoverable fault rates, the
        // giant-cache end state is bit-identical to a fault-free run; only
        // time and FaultStats differ.
        let fault = teco_cxl::FaultConfig {
            crc_error_rate: 0.3,
            stall_rate: 0.2,
            stall_ns: 50,
            dba_checksum_error_rate: 0.3,
            retry_limit: 64, // high enough that nothing exhausts
            seed: 77,
            ..teco_cxl::FaultConfig::off()
        };
        let mut faulty = faulty_session(fault);
        let mut clean = session();
        let (_, bf) = faulty.alloc_tensor("params", 1 << 14).unwrap();
        let (_, bc) = clean.alloc_tensor("params", 1 << 14).unwrap();
        // Establish resident copies with full-line pushes, then ship a
        // DBA-conformant update (low two bytes change) through the
        // activated aggregation path.
        let base_lines: Vec<LineData> = (0..64).map(|i| line_with(0x4400_0000 + i)).collect();
        faulty.push_param_lines(bf, &base_lines, SimTime::ZERO).unwrap();
        clean.push_param_lines(bc, &base_lines, SimTime::ZERO).unwrap();
        faulty.check_activation(500);
        clean.check_activation(500);
        let lines: Vec<LineData> = base_lines
            .iter()
            .map(|l| {
                let mut u = *l;
                for w in 0..16 {
                    u.set_word(w, (l.word(w) & 0xFFFF_0000) | 0x0000_9A3C);
                }
                u
            })
            .collect();
        let iv_f = faulty.push_param_lines(bf, &lines, SimTime::from_us(1)).unwrap();
        let iv_c = clean.push_param_lines(bc, &lines, SimTime::from_us(1)).unwrap();
        for i in 0..64u64 {
            assert_eq!(
                faulty.device_read_line(Addr(bf.0 + i * 64)).unwrap(),
                clean.device_read_line(Addr(bc.0 + i * 64)).unwrap(),
                "line {i}"
            );
        }
        assert!(faulty.fault_report().any(), "faults actually fired");
        assert_eq!(faulty.fault_report().degraded_regions, 0, "all recoverable");
        assert!(iv_f.end > iv_c.end, "recovery costs time");
    }

    #[test]
    fn grad_retry_exhaustion_is_typed_error() {
        let mut s = faulty_session(teco_cxl::FaultConfig {
            crc_error_rate: 1.0,
            retry_limit: 3,
            seed: 21,
            ..teco_cxl::FaultConfig::off()
        });
        let (_, gbase) = s.alloc_tensor("grads", 4096).unwrap();
        let err = s.push_grad_line(gbase, line_with(1), SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Link(LinkError::RetryExhausted { direction: Direction::ToHost, .. })
        ));
        assert_eq!(s.stats().grad_lines, 0, "failed push not counted");
    }

    #[test]
    fn fence_timeout_surfaces_and_counts() {
        // Timeout of 10 µs: an idle direction costs only the 5 µs check
        // overhead and passes; 2048 in-flight lines (~8.7 µs of drain at
        // 15 GB/s) push the loaded direction past it.
        let mut s = faulty_session(teco_cxl::FaultConfig {
            fence_timeout_ns: 10_000,
            stall_rate: 1.0, // any nonzero rate arms the injector
            stall_ns: 1,
            seed: 2,
            ..teco_cxl::FaultConfig::off()
        });
        let (_, base) = s.alloc_tensor("params", 1 << 17).unwrap();
        let lines: Vec<LineData> = (0..2048).map(line_with).collect();
        s.push_param_lines(base, &lines, SimTime::ZERO).unwrap();
        let err = s.try_cxlfence_params(SimTime::ZERO).unwrap_err();
        assert!(matches!(err, SessionError::Fence(_)));
        assert_eq!(s.fault_report().fence_timeouts, 1);
        assert_eq!(s.fence_stats().timeouts, 1);
        // An unbounded timeout succeeds on the untouched direction.
        assert!(s.try_cxlfence_grads(SimTime::ZERO).is_ok());
    }

    fn ras_session(rate: f64, scrub: u64, spares: u64, seed: u64) -> TecoSession {
        let cfg = TecoConfig::default()
            .with_giant_cache_bytes(1 << 20)
            .with_act_aft_steps(10)
            .with_ras(teco_cxl::RasConfig {
                media_faults_per_tick: rate,
                scrub_lines_per_tick: scrub,
                spare_lines: spares,
                seed,
            });
        TecoSession::new(cfg).unwrap()
    }

    /// DBA-conformant update for line `i` at `step`: fixed high halves,
    /// step-varying low halves.
    fn conformant_line(step: u64, i: u64) -> LineData {
        let mut l = LineData::zeroed();
        for w in 0..16u32 {
            let hi = (0x5500_0000u32 | (i as u32) << 8 | w) & 0xFFFF_0000;
            l.set_word(w as usize, hi | (step as u32 & 0xFFFF));
        }
        l
    }

    #[test]
    fn media_faults_retire_and_rebuild_to_clean_content() {
        // Persistent media faults at a high rate, detected by patrol scrub
        // and on-access checks, retired to spares, and rebuilt from the
        // authoritative CPU lines: the final device content is
        // bit-identical to a fault-free run.
        let mut r = ras_session(1.5, 8, 64, 42);
        let mut c = TecoSession::new(
            TecoConfig::default().with_giant_cache_bytes(1 << 20).with_act_aft_steps(10),
        )
        .unwrap();
        let (_, br) = r.alloc_tensor("params", 1 << 12).unwrap(); // 64 lines
        let (_, bc) = c.alloc_tensor("params", 1 << 12).unwrap();
        for step in 0..40u64 {
            r.check_activation(step);
            c.check_activation(step);
            let lines: Vec<LineData> = (0..64).map(|i| conformant_line(step, i)).collect();
            r.push_param_lines(br, &lines, SimTime::ZERO).unwrap();
            c.push_param_lines(bc, &lines, SimTime::ZERO).unwrap();
        }
        let stats = r.ras_report();
        assert!(stats.faults_injected > 0, "faults actually arrived");
        assert!(stats.lines_retired > 0, "retirement fired");
        assert!(stats.rebuilds > 0, "rebuild path fired");
        assert!(stats.detected_by_scrub + stats.detected_on_access > 0);
        for i in 0..64u64 {
            assert_eq!(
                r.device_read_line(Addr(br.0 + i * 64)).unwrap(),
                c.device_read_line(Addr(bc.0 + i * 64)).unwrap(),
                "line {i}"
            );
        }
        assert!(!c.ras_enabled() && r.ras_enabled());
    }

    #[test]
    fn ras_snapshot_roundtrip_resumes_identically() {
        let mut a = ras_session(0.7, 4, 16, 9);
        let (_, base) = a.alloc_tensor("params", 1 << 12).unwrap();
        for step in 0..10u64 {
            a.check_activation(step);
            let lines: Vec<LineData> = (0..64).map(|i| conformant_line(step, i)).collect();
            a.push_param_lines(base, &lines, SimTime::ZERO).unwrap();
        }
        let json = serde_json::to_string(&a.snapshot()).unwrap();
        assert!(json.contains("\"media\""), "RAS-on snapshot carries the media image");
        let mut b = TecoSession::from_snapshot(&serde_json::from_str(&json).unwrap()).unwrap();
        for step in 10..25u64 {
            a.check_activation(step);
            b.check_activation(step);
            let lines: Vec<LineData> = (0..64).map(|i| conformant_line(step, i)).collect();
            a.push_param_lines(base, &lines, SimTime::ZERO).unwrap();
            b.push_param_lines(base, &lines, SimTime::ZERO).unwrap();
        }
        assert_eq!(a.ras_report(), b.ras_report());
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap(),
            "resumed run is byte-identical"
        );
    }

    #[test]
    fn ras_off_snapshot_keeps_pre_ras_bytes() {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        s.push_param_line(base, line_with(3), SimTime::ZERO).unwrap();
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        assert!(!json.contains("\"media\""), "no media image when RAS is off");
        assert!(!json.contains("\"ras\""), "no ras config when off");
        assert!(!json.contains("\"remap\""), "no remap table without spares");
    }

    #[test]
    fn error_context_attributes_device_region_time() {
        let root = SessionError::DeviceDown { device: 3, time_ns: 777 };
        let wrapped = root.clone().in_context(3, Some("grads".to_string()), SimTime::from_ns(1234));
        let msg = wrapped.to_string();
        assert!(msg.contains("device 3"), "{msg}");
        assert!(msg.contains("`grads`"), "{msg}");
        assert!(msg.contains("t=1234 ns"), "{msg}");
        assert!(matches!(wrapped.root(), SessionError::DeviceDown { device: 3, .. }));
        assert_eq!(*wrapped.root(), root);
    }

    fn tiered_cfg() -> TecoConfig {
        TecoConfig::default().with_giant_cache_bytes(1 << 20).with_placement(
            crate::placement::PlacementPolicy::Tiered(crate::placement::TieredPolicy {
                device_capacity_bytes: 1 << 16,
                device_size_threshold: 4096,
                ..Default::default()
            }),
        )
    }

    #[test]
    fn tiered_policy_changes_placement_but_default_builds_no_engine() {
        let d = session();
        assert!(!d.placement_enabled(), "default policy constructs no engine");
        let mut s = TecoSession::new(tiered_cfg()).unwrap();
        assert!(s.placement_enabled());
        let (_, pbase) = s.alloc_tensor("params", 8192).unwrap();
        let (_, mbase) = s.alloc_tensor("moment_m", 8192).unwrap();
        let (_, ebase) = s.alloc_tensor("embed", 4096).unwrap();
        let engine = s.placement().unwrap();
        assert!(pbase.0 < crate::placement::SIDE_BASE, "params stay in the giant cache");
        assert!(mbase.0 >= crate::placement::SIDE_BASE, "moments offloaded to host DRAM");
        assert!(ebase.0 >= crate::placement::SIDE_BASE, "small tensor is device-resident");
        use teco_mem::tier::Tier;
        assert_eq!(engine.map().used(Tier::GiantCache), 8192);
        assert_eq!(engine.map().used(Tier::HostDram), 8192);
        assert_eq!(engine.map().used(Tier::Device), 4096);

        // Device-resident pushes cross no link; host-DRAM pushes cross the
        // pool as full lines; the giant-cache path is untouched.
        let before = s.link().volume(Direction::ToDevice);
        s.push_param_line(ebase, line_with(1), SimTime::ZERO).unwrap();
        assert_eq!(s.link().volume(Direction::ToDevice), before, "device tier: no link bytes");
        assert_eq!(s.device_read_line(ebase).unwrap(), line_with(1));
        let iv = s.push_param_line(mbase, line_with(2), SimTime::ZERO).unwrap();
        assert!(iv.end > iv.start, "host-DRAM push pays pool time");
        assert_eq!(s.device_read_line(mbase).unwrap(), line_with(2));
        assert_eq!(s.placement().unwrap().arbiter().broadcast_bytes(), 64);
        s.push_param_line(pbase, line_with(3), SimTime::ZERO).unwrap();
        assert_eq!(s.link().volume(Direction::ToDevice), before + 64, "giant cache uses the link");
    }

    #[test]
    fn tiered_session_snapshot_roundtrip_replays_identically() {
        let mut a = TecoSession::new(tiered_cfg()).unwrap();
        let (_, pbase) = a.alloc_tensor("params", 8192).unwrap();
        let (_, mbase) = a.alloc_tensor("moment_m", 8192).unwrap();
        for step in 0..4u64 {
            for i in 0..8u64 {
                a.push_param_line(Addr(pbase.0 + i * 64), line_with(i as u32), SimTime::ZERO)
                    .unwrap();
                a.push_param_line(Addr(mbase.0 + i * 64), line_with(90 + i as u32), SimTime::ZERO)
                    .unwrap();
            }
            a.check_activation(step);
        }
        let json = serde_json::to_string(&a.snapshot()).unwrap();
        assert!(json.contains("\"placement\""), "tiered snapshot carries the engine image");
        let mut b = TecoSession::from_snapshot(&serde_json::from_str(&json).unwrap()).unwrap();
        for step in 4..8u64 {
            for i in 0..8u64 {
                let l = line_with(1000 + step as u32 * 8 + i as u32);
                let ia = a.push_param_line(Addr(mbase.0 + i * 64), l, SimTime::ZERO).unwrap();
                let ib = b.push_param_line(Addr(mbase.0 + i * 64), l, SimTime::ZERO).unwrap();
                assert_eq!(ia, ib);
            }
            a.check_activation(step);
            b.check_activation(step);
        }
        assert_eq!(a.placement().unwrap().stats(), b.placement().unwrap().stats());
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap(),
            "resumed tiered run is byte-identical"
        );
    }

    /// A tiered session's snapshot with one line in the placement store.
    fn tiered_snapshot() -> SessionSnapshot {
        let mut s = TecoSession::new(tiered_cfg()).unwrap();
        let (_, mbase) = s.alloc_tensor("moment_m", 8192).unwrap();
        s.push_param_line(mbase, line_with(5), SimTime::ZERO).unwrap();
        s.snapshot()
    }

    #[test]
    fn from_snapshot_rejects_a_placement_arbiter_without_devices() {
        let mut snap = tiered_snapshot();
        snap.placement.as_mut().unwrap().arbiter.n = 0;
        assert!(matches!(TecoSession::from_snapshot(&snap), Err(SessionError::Config(_))));
    }

    #[test]
    fn new_rejects_a_link_without_pending_queue_entries() {
        let mut cfg = TecoConfig::default().with_giant_cache_bytes(1 << 20);
        cfg.cxl.pending_queue_entries = 0;
        let err = TecoSession::new(cfg).expect_err("a queue without entries is rejected");
        assert!(matches!(&err, SessionError::Config(m) if m.contains("pending queue")), "{err}");
    }

    #[test]
    fn from_snapshot_rejects_a_link_queue_without_entries() {
        let cfg = TecoConfig::default().with_giant_cache_bytes(1 << 20);
        let mut snap = TecoSession::new(cfg).unwrap().snapshot();
        snap.link.to_device.server.capacity = 0;
        let err = TecoSession::from_snapshot(&snap).expect_err("a queue without entries");
        assert!(matches!(&err, SessionError::Config(m) if m.contains("no entries")), "{err}");
    }

    #[test]
    fn from_snapshot_rejects_a_short_placement_store_line() {
        let mut snap = tiered_snapshot();
        snap.placement.as_mut().unwrap().store[0].1.truncate(63);
        assert!(matches!(TecoSession::from_snapshot(&snap), Err(SessionError::Config(_))));
    }

    /// `snap` encoded and decoded: a hostile image with a valid checksum.
    fn through_envelope(snap: &SessionSnapshot) -> SessionSnapshot {
        let bytes = teco_sim::encode_snapshot(snap);
        teco_sim::decode_snapshot(&bytes).expect("a checksum-valid envelope decodes")
    }

    fn written_session() -> TecoSession {
        let mut s = session();
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        s.push_param_line(base, line_with(4), SimTime::ZERO).unwrap();
        s
    }

    #[test]
    fn from_snapshot_rejects_a_giant_cache_run_one_byte_short() {
        let mut snap = written_session().snapshot();
        snap.giant_cache.lines[0].1.pop();
        let err = TecoSession::from_snapshot(&through_envelope(&snap)).unwrap_err();
        assert!(matches!(&err, SessionError::Config(m) if m.contains("63 bytes")), "{err}");
    }

    #[test]
    fn from_snapshot_rejects_coherence_msg_counts_one_entry_short() {
        let mut snap = written_session().snapshot();
        snap.coherence.msg_counts.pop();
        let err = TecoSession::from_snapshot(&through_envelope(&snap)).unwrap_err();
        assert!(matches!(&err, SessionError::Config(m) if m.contains("msg_counts")), "{err}");
    }

    #[test]
    fn from_snapshot_rejects_line_runs_past_the_mapped_lines() {
        let clean = written_session().snapshot();
        let mapped = clean.giant_cache.next_base / 64;
        let edits: [fn(&mut SessionSnapshot, u64); 4] = [
            |s, n| s.giant_cache.quarantined.push((n - 1, 2)),
            |s, n| s.giant_cache.lines[0].0 = n,
            |s, n| s.coherence.states.push((n, 1, s.coherence.initial)),
            |s, n| s.coherence.snoop.sharers.push((n, 1, 1)),
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut snap = clean.clone();
            edit(&mut snap, mapped);
            let err = TecoSession::from_snapshot(&through_envelope(&snap)).unwrap_err();
            assert!(matches!(&err, SessionError::Config(m) if m.contains("past")), "{i}: {err}");
        }
    }

    #[test]
    fn zero_dirty_bytes_push_of_256_lines_queues_in_order() {
        // DBA with 0 dirty bytes sends 0-byte payloads behind the 1 ns
        // Aggregator latency: they all complete on one instant, so the
        // 128-entry pending queue must keep them in admission order.
        let cfg = TecoConfig::default()
            .with_giant_cache_bytes(1 << 20)
            .with_dirty_bytes(0)
            .with_act_aft_steps(0);
        let mut s = TecoSession::new(cfg).unwrap();
        let (_, base) = s.alloc_tensor("params", 256 * 64).unwrap();
        assert!(s.check_activation(0), "DBA active");
        let iv = s.push_param_lines(base, &vec![LineData::zeroed(); 256], SimTime::ZERO).unwrap();
        assert!(iv.end >= iv.start);
        assert_eq!(s.stats().param_lines, 256);
    }

    #[test]
    fn from_snapshot_rejects_a_short_audit_shadow_line() {
        let cfg = TecoConfig::default().with_giant_cache_bytes(1 << 20).with_audit(true);
        let mut s = TecoSession::new(cfg).unwrap();
        let (_, base) = s.alloc_tensor("params", 4096).unwrap();
        s.push_param_line(base, line_with(6), SimTime::ZERO).unwrap();
        let mut snap = s.snapshot();
        snap.shadow.as_mut().unwrap()[0].1.truncate(63);
        let err = TecoSession::from_snapshot(&snap).unwrap_err();
        assert!(
            matches!(&err, SessionError::Config(m) if m.contains("has 63 bytes, not a whole")),
            "{err}"
        );
    }

    #[test]
    fn hot_host_dram_tensor_promotes_at_boundary_only() {
        let mut s = TecoSession::new(tiered_cfg()).unwrap();
        // Above the device-size threshold, so the class rule (moments →
        // host DRAM) decides the initial tier.
        let (_, mbase) = s.alloc_tensor("moment_m", 8192).unwrap();
        use teco_mem::tier::Tier;
        for i in 0..8u64 {
            s.push_param_line(Addr(mbase.0 + (i % 4) * 64), line_with(i as u32), SimTime::ZERO)
                .unwrap();
            // Mid-step: still host-DRAM no matter how hot.
            assert_eq!(s.placement().unwrap().map().tensors()[0].tier, Tier::HostDram);
        }
        s.check_activation(0);
        assert_eq!(
            s.placement().unwrap().map().tensors()[0].tier,
            Tier::GiantCache,
            "promotion lands exactly at the step boundary"
        );
        assert_eq!(s.placement().unwrap().stats().promotions, 1);
        // The data survived the tier change (address is stable).
        assert_eq!(s.device_read_line(Addr(mbase.0 + 3 * 64)).unwrap(), line_with(7));
    }

    #[test]
    fn try_fence_unbounded_matches_legacy_fence() {
        // fence_timeout_ns = 0 → unbounded: try_* agrees with fence.
        let mut a = session();
        let mut b = session();
        let (_, ba) = a.alloc_tensor("params", 4096).unwrap();
        let (_, bb) = b.alloc_tensor("params", 4096).unwrap();
        a.push_param_line(ba, line_with(4), SimTime::ZERO).unwrap();
        b.push_param_line(bb, line_with(4), SimTime::ZERO).unwrap();
        let t_legacy = a.cxlfence_params(SimTime::ZERO);
        let t_try = b.try_cxlfence_params(SimTime::ZERO).unwrap();
        assert_eq!(t_legacy, t_try);
    }
}
