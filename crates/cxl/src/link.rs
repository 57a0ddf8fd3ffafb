//! The CXL serial link: two independent directions (host→device and
//! device→host, as PCIe is full duplex per direction), each a FIFO serial
//! server at 94.3 % of PCIe bandwidth fronted by the controller's 128-entry
//! pending queue. Transfers are cache-line streams: "the updated cache
//! lines ... are going through the link one after another in a stream
//! manner" (§VIII-A).

use crate::config::CxlConfig;
use crate::fault::{FaultInjector, FaultInjectorSnapshot, FaultStats, TransferFault};
use serde::{Deserialize, Serialize};
use teco_sim::{BoundedServer, BoundedServerSnapshot, Interval, SimTime};

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host (CPU) to device (accelerator): parameter pushes.
    ToDevice,
    /// Device to host: gradient pushes.
    ToHost,
}

/// One direction of the link. It keeps counters, not history: its busy
/// time is the server's cumulative service time.
#[derive(Debug)]
struct Channel {
    server: BoundedServer,
    payload_bytes: u64,
    /// Wire bytes consumed by ack/nak replays — kept out of
    /// `payload_bytes` so fault-free traffic accounting is untouched.
    replay_bytes: u64,
}

impl Channel {
    fn new(cfg: &CxlConfig) -> Self {
        Channel {
            server: BoundedServer::new(cfg.cxl_bandwidth(), cfg.pending_queue_entries),
            payload_bytes: 0,
            replay_bytes: 0,
        }
    }

    fn snapshot(&self) -> ChannelSnapshot {
        ChannelSnapshot {
            server: self.server.snapshot(),
            payload_bytes: self.payload_bytes,
            replay_bytes: self.replay_bytes,
        }
    }

    fn restore(s: &ChannelSnapshot) -> Result<Self, String> {
        Ok(Channel {
            server: BoundedServer::restore(&s.server)?,
            payload_bytes: s.payload_bytes,
            replay_bytes: s.replay_bytes,
        })
    }
}

/// Serializable image of one link direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSnapshot {
    /// The bounded serial server (wire occupancy + pending queue).
    pub server: BoundedServerSnapshot,
    /// Payload bytes moved (replays excluded).
    pub payload_bytes: u64,
    /// Wire bytes burned on ack/nak replays.
    pub replay_bytes: u64,
}

/// A transfer failed at the link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The replay buffer gave up: `attempts` replays all took CRC errors.
    RetryExhausted {
        /// Direction of the failed transfer.
        direction: Direction,
        /// Replay attempts consumed.
        attempts: u32,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::RetryExhausted { direction, attempts } => {
                write!(f, "link retry exhausted after {attempts} replays ({direction:?})")
            }
        }
    }
}
impl std::error::Error for LinkError {}

/// Outcome of a fault-aware transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOutcome {
    /// Service interval of the (final, successful) transfer on the wire.
    pub interval: Interval,
    /// Replay attempts the transfer needed before succeeding.
    pub retries: u32,
    /// The payload arrived poisoned (delivered, but flagged corrupt).
    pub poisoned: bool,
}

/// Busy time of one link direction. A FIFO server's service intervals
/// never overlap, so the wire's cumulative service time is exactly the
/// measure of the union of every interval it served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyTime(SimTime);

impl BusyTime {
    /// Total time the direction's wire was busy.
    pub fn total(self) -> SimTime {
        self.0
    }
}

/// The full-duplex CXL link with per-direction accounting.
#[derive(Debug)]
pub struct CxlLink {
    cfg: CxlConfig,
    to_device: Channel,
    to_host: Channel,
    /// Present only when `cfg.fault.enabled()` — a disabled fault model
    /// takes the exact legacy code path (no RNG draws, no extra state).
    injector: Option<FaultInjector>,
    fstats: FaultStats,
}

impl CxlLink {
    /// Build from a configuration.
    pub fn new(cfg: CxlConfig) -> Self {
        let injector = cfg.fault.enabled().then(|| FaultInjector::new(cfg.fault));
        CxlLink {
            to_device: Channel::new(&cfg),
            to_host: Channel::new(&cfg),
            injector,
            fstats: FaultStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CxlConfig {
        &self.cfg
    }

    fn channel_mut(&mut self, d: Direction) -> &mut Channel {
        match d {
            Direction::ToDevice => &mut self.to_device,
            Direction::ToHost => &mut self.to_host,
        }
    }
    fn channel(&self, d: Direction) -> &Channel {
        match d {
            Direction::ToDevice => &self.to_device,
            Direction::ToHost => &self.to_host,
        }
    }

    /// Submit a transfer of `bytes` ready at `ready` in direction `d`, with
    /// an optional fixed pipeline latency (Aggregator/Disaggregator delay).
    /// Returns the service interval on the wire. The one-line case of
    /// [`CxlLink::transfer_run`].
    pub fn transfer(
        &mut self,
        d: Direction,
        ready: SimTime,
        bytes: u64,
        latency: SimTime,
    ) -> Interval {
        self.transfer_run(d, ready, 1, bytes, latency)
    }

    /// Stream `n` equal transfers of `bytes`, all ready at `ready`, through
    /// direction `d`: the cache lines of one push going "through the link
    /// one after another" (§VIII-A). Leaves the link exactly as `n` calls
    /// of [`CxlLink::transfer`] do, in O(min(n, queue entries)), and
    /// returns the run's wire span, from the first line's start to the
    /// last line's end (empty at `ready` when `n == 0`).
    pub fn transfer_run(
        &mut self,
        d: Direction,
        ready: SimTime,
        n: u64,
        bytes: u64,
        latency: SimTime,
    ) -> Interval {
        self.submit(d, ready, n, bytes, latency, true)
    }

    /// Convenience: transfer with no extra latency.
    pub fn transfer_simple(&mut self, d: Direction, ready: SimTime, bytes: u64) -> Interval {
        self.transfer(d, ready, bytes, SimTime::ZERO)
    }

    /// Put a run of `n` services on the wire. `payload` distinguishes real
    /// traffic (counted in `volume`) from ack/nak replays (counted
    /// separately so fault-free accounting stays identical to the legacy
    /// path).
    fn submit(
        &mut self,
        d: Direction,
        ready: SimTime,
        n: u64,
        bytes: u64,
        latency: SimTime,
        payload: bool,
    ) -> Interval {
        let ch = self.channel_mut(d);
        let iv = ch.server.submit_run(ready, n, bytes, latency);
        if payload {
            ch.payload_bytes += n * bytes;
        } else {
            ch.replay_bytes += n * bytes;
        }
        iv.unwrap_or(Interval { start: ready, end: ready })
    }

    /// Fault-aware transfer: the link-retry state machine. With the fault
    /// model off this is exactly [`CxlLink::transfer`]. With it on, a CRC
    /// error naks the transfer and the replay buffer re-sends it (each
    /// attempt occupies the wire and pays the ack/nak round trip); a
    /// transient stall adds latency; exhausting `retry_limit` abandons the
    /// transfer with [`LinkError::RetryExhausted`]. A delivered payload may
    /// arrive `poisoned` — flagged for the receiver to contain.
    pub fn transfer_checked(
        &mut self,
        d: Direction,
        ready: SimTime,
        bytes: u64,
        latency: SimTime,
    ) -> Result<TransferOutcome, LinkError> {
        let fault = self.draw_fault(d);
        self.transfer_faulted(d, ready, bytes, latency, fault)
    }

    /// Draw the fault outcome of the next transfer in direction `d` from
    /// that direction's stream ([`TransferFault::CLEAN`], with no draw,
    /// when the fault model is off). A caller that looks ahead for a clean
    /// stretch draws here and hands the outcome to
    /// [`CxlLink::transfer_faulted`] or, for clean ones, to
    /// [`CxlLink::transfer_run`].
    pub fn draw_fault(&mut self, d: Direction) -> TransferFault {
        match &mut self.injector {
            Some(inj) => inj.transfer_fault(d == Direction::ToDevice),
            None => TransferFault::CLEAN,
        }
    }

    /// Draw whether the next DBA payload of `len` bytes is corrupted in the
    /// aggregation pipeline: the byte to flip, if any (always `None` with
    /// the fault model off).
    pub fn draw_payload_fault(&mut self, len: usize) -> Option<usize> {
        self.injector.as_mut().and_then(|inj| inj.payload_fault(len))
    }

    /// [`CxlLink::transfer_checked`] with its fault outcome already drawn.
    pub fn transfer_faulted(
        &mut self,
        d: Direction,
        ready: SimTime,
        bytes: u64,
        latency: SimTime,
        fault: TransferFault,
    ) -> Result<TransferOutcome, LinkError> {
        let retry_latency = SimTime::from_ns(self.cfg.fault.retry_latency_ns);
        if fault.retries > 0 {
            self.fstats.crc_errors += 1;
            self.fstats.retries += fault.retries as u64;
        }
        // Each nak'd attempt is replayed from the link-layer buffer: it
        // occupies the wire like the real transfer, plus the ack/nak round
        // trip before the next attempt starts.
        for _ in 0..fault.retries {
            let iv = self.submit(d, ready, 1, bytes, retry_latency, false);
            self.fstats.replay_ns += iv.len().as_ns() + self.cfg.fault.retry_latency_ns;
        }
        if fault.exhausted {
            self.fstats.replay_exhausted += 1;
            return Err(LinkError::RetryExhausted { direction: d, attempts: fault.retries });
        }
        if fault.stall > SimTime::ZERO {
            self.fstats.stalls += 1;
            self.fstats.stall_ns += fault.stall.as_ns();
        }
        let interval = self.submit(d, ready, 1, bytes, latency + fault.stall, true);
        if fault.poisoned {
            self.fstats.poisoned_lines += 1;
        }
        Ok(TransferOutcome { interval, retries: fault.retries, poisoned: fault.poisoned })
    }

    /// Is the fault model active on this link?
    pub fn faults_enabled(&self) -> bool {
        self.injector.is_some()
    }

    /// Link-side fault counters (all zero with the model off).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fstats
    }

    /// When the direction's wire drains completely — the `CXLFENCE`
    /// completion point for traffic in that direction.
    pub fn drained_at(&self, d: Direction) -> SimTime {
        self.channel(d).server.server().next_free()
    }

    /// Total payload bytes moved in a direction (replays excluded).
    pub fn volume(&self, d: Direction) -> u64 {
        self.channel(d).payload_bytes
    }

    /// Wire bytes burned on ack/nak replays in a direction.
    pub fn replay_volume(&self, d: Direction) -> u64 {
        self.channel(d).replay_bytes
    }

    /// Busy time of a direction: payloads and replays on the wire.
    pub fn busy(&self, d: Direction) -> BusyTime {
        BusyTime(self.channel(d).server.server().busy_time())
    }

    /// Producer stall time from pending-queue back-pressure.
    pub fn stall_time(&self, d: Direction) -> SimTime {
        self.channel(d).server.stall_time()
    }

    /// Peak pending-queue occupancy.
    pub fn max_queue_occupancy(&self, d: Direction) -> usize {
        self.channel(d).server.max_occupancy()
    }

    /// Total bytes the wire actually served in a direction — payloads plus
    /// replays. The invariant auditor checks this against
    /// `volume(d) + replay_volume(d)`.
    pub fn bytes_served(&self, d: Direction) -> u64 {
        self.channel(d).server.server().bytes_served()
    }

    /// Checkpoint image of the whole link: both channels, the fault
    /// injector mid-stream (if enabled), and the fault counters. A link
    /// restored mid-retry continues the same fault schedule.
    pub fn snapshot(&self) -> CxlLinkSnapshot {
        CxlLinkSnapshot {
            cfg: self.cfg,
            to_device: self.to_device.snapshot(),
            to_host: self.to_host.snapshot(),
            injector: self.injector.as_ref().map(FaultInjector::snapshot),
            fstats: self.fstats,
        }
    }

    /// Rebuild a link from a snapshot. A channel whose pending queue has no
    /// entries is an error.
    pub fn restore(s: &CxlLinkSnapshot) -> Result<Self, String> {
        Ok(CxlLink {
            cfg: s.cfg,
            to_device: Channel::restore(&s.to_device)?,
            to_host: Channel::restore(&s.to_host)?,
            injector: s.injector.as_ref().map(FaultInjector::restore),
            fstats: s.fstats,
        })
    }
}

/// Serializable image of a [`CxlLink`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CxlLinkSnapshot {
    /// The interconnect configuration.
    pub cfg: CxlConfig,
    /// Host→device channel.
    pub to_device: ChannelSnapshot,
    /// Device→host channel.
    pub to_host: ChannelSnapshot,
    /// Fault injector state (`None` when the fault model is off).
    pub injector: Option<FaultInjectorSnapshot>,
    /// Link-side fault counters.
    pub fstats: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CxlConfig;

    #[test]
    fn directions_are_independent() {
        let mut link = CxlLink::new(CxlConfig::paper());
        let down = link.transfer_simple(Direction::ToDevice, SimTime::ZERO, 1 << 20);
        let up = link.transfer_simple(Direction::ToHost, SimTime::ZERO, 1 << 20);
        // Full duplex: both start immediately.
        assert_eq!(down.start, SimTime::ZERO);
        assert_eq!(up.start, SimTime::ZERO);
        assert_eq!(link.volume(Direction::ToDevice), 1 << 20);
        assert_eq!(link.volume(Direction::ToHost), 1 << 20);
    }

    #[test]
    fn line_stream_is_serialized() {
        let mut link = CxlLink::new(CxlConfig::paper());
        let a = link.transfer_simple(Direction::ToDevice, SimTime::ZERO, 64);
        let b = link.transfer_simple(Direction::ToDevice, SimTime::ZERO, 64);
        assert!(b.start >= a.end);
        assert_eq!(link.busy(Direction::ToDevice).total(), a.len() + b.len());
    }

    #[test]
    fn transfer_rate_matches_cxl_bandwidth() {
        let cfg = CxlConfig::paper();
        let mut link = CxlLink::new(cfg);
        let gb = 1u64 << 30;
        let iv = link.transfer_simple(Direction::ToDevice, SimTime::ZERO, gb);
        let secs = iv.len().as_secs_f64();
        let gbps = gb as f64 / 1e9 / secs;
        assert!((gbps - 15.088).abs() < 0.01, "measured {gbps} GB/s");
    }

    #[test]
    fn aggregator_latency_applies() {
        let cfg = CxlConfig::paper();
        let mut link = CxlLink::new(cfg);
        let iv = link.transfer(Direction::ToDevice, SimTime::ZERO, 64, cfg.aggregator_latency);
        assert_eq!(iv.start, SimTime::from_ns(1));
    }

    #[test]
    fn drained_at_tracks_last_completion() {
        let mut link = CxlLink::new(CxlConfig::paper());
        assert_eq!(link.drained_at(Direction::ToHost), SimTime::ZERO);
        let iv = link.transfer_simple(Direction::ToHost, SimTime::from_us(5), 4096);
        assert_eq!(link.drained_at(Direction::ToHost), iv.end);
        assert_eq!(link.drained_at(Direction::ToDevice), SimTime::ZERO);
    }

    #[test]
    fn checked_transfer_without_faults_is_legacy_transfer() {
        let mut a = CxlLink::new(CxlConfig::paper());
        let mut b = CxlLink::new(CxlConfig::paper());
        for i in 0..50u64 {
            let iv = a.transfer(Direction::ToDevice, SimTime::ZERO, 64, SimTime::ZERO);
            let out = b.transfer_checked(Direction::ToDevice, SimTime::ZERO, 64, SimTime::ZERO);
            let out = out.unwrap();
            assert_eq!(out.interval, iv, "transfer {i}");
            assert_eq!(out.retries, 0);
            assert!(!out.poisoned);
        }
        assert!(!b.faults_enabled());
        assert!(!b.fault_stats().any());
        assert_eq!(a.volume(Direction::ToDevice), b.volume(Direction::ToDevice));
        assert_eq!(b.replay_volume(Direction::ToDevice), 0);
        assert_eq!(a.drained_at(Direction::ToDevice), b.drained_at(Direction::ToDevice));
    }

    #[test]
    fn crc_errors_cost_replay_time_not_volume() {
        let cfg = CxlConfig::paper().with_fault(crate::fault::FaultConfig {
            crc_error_rate: 1.0,
            retry_limit: 2,
            retry_latency_ns: 100,
            seed: 3,
            ..crate::fault::FaultConfig::off()
        });
        let mut link = CxlLink::new(cfg);
        assert!(link.faults_enabled());
        // With rate 1.0 every transfer hits the limit and fails.
        let err = link.transfer_checked(Direction::ToDevice, SimTime::ZERO, 64, SimTime::ZERO);
        assert_eq!(
            err.unwrap_err(),
            LinkError::RetryExhausted { direction: Direction::ToDevice, attempts: 2 }
        );
        assert_eq!(link.fault_stats().replay_exhausted, 1);
        assert_eq!(link.fault_stats().retries, 2);
        // Replays occupied the wire but moved no accounted payload.
        assert_eq!(link.volume(Direction::ToDevice), 0);
        assert_eq!(link.replay_volume(Direction::ToDevice), 2 * 64);
        assert!(link.drained_at(Direction::ToDevice) > SimTime::ZERO);
    }

    #[test]
    fn transient_stall_delays_the_transfer() {
        let cfg = CxlConfig::paper().with_fault(crate::fault::FaultConfig {
            stall_rate: 1.0,
            stall_ns: 500,
            seed: 4,
            ..crate::fault::FaultConfig::off()
        });
        let mut faulty = CxlLink::new(cfg);
        let mut clean = CxlLink::new(CxlConfig::paper());
        let f = faulty.transfer_checked(Direction::ToHost, SimTime::ZERO, 64, SimTime::ZERO);
        let c = clean.transfer_checked(Direction::ToHost, SimTime::ZERO, 64, SimTime::ZERO);
        let (f, c) = (f.unwrap(), c.unwrap());
        assert_eq!(f.interval.start, c.interval.start + SimTime::from_ns(500));
        assert_eq!(faulty.fault_stats().stalls, 1);
        assert_eq!(faulty.fault_stats().stall_ns, 500);
        // Stalls do not change accounted volume.
        assert_eq!(faulty.volume(Direction::ToHost), clean.volume(Direction::ToHost));
    }

    #[test]
    fn poison_is_flagged_and_counted() {
        let cfg = CxlConfig::paper().with_fault(crate::fault::FaultConfig {
            poison_rate: 1.0,
            seed: 5,
            ..crate::fault::FaultConfig::off()
        });
        let mut link = CxlLink::new(cfg);
        let out =
            link.transfer_checked(Direction::ToDevice, SimTime::ZERO, 64, SimTime::ZERO).unwrap();
        assert!(out.poisoned);
        assert_eq!(link.fault_stats().poisoned_lines, 1);
    }

    #[test]
    fn fault_schedule_reproducible_across_links() {
        let cfg = CxlConfig::paper().with_fault(crate::fault::FaultConfig {
            crc_error_rate: 0.2,
            stall_rate: 0.1,
            stall_ns: 40,
            poison_rate: 0.05,
            seed: 1234,
            ..crate::fault::FaultConfig::off()
        });
        let mut a = CxlLink::new(cfg);
        let mut b = CxlLink::new(cfg);
        for i in 0..300u64 {
            let d = if i % 3 == 0 { Direction::ToHost } else { Direction::ToDevice };
            let ra = a.transfer_checked(d, SimTime::ZERO, 64, SimTime::ZERO);
            let rb = b.transfer_checked(d, SimTime::ZERO, 64, SimTime::ZERO);
            assert_eq!(ra, rb, "transfer {i}");
        }
        assert_eq!(a.fault_stats(), b.fault_stats());
    }

    #[test]
    fn pending_queue_backpressure_surfaces() {
        let mut cfg = CxlConfig::paper();
        cfg.pending_queue_entries = 4;
        let mut link = CxlLink::new(cfg);
        for _ in 0..100 {
            link.transfer_simple(Direction::ToDevice, SimTime::ZERO, 64);
        }
        assert!(link.stall_time(Direction::ToDevice) > SimTime::ZERO);
        assert!(link.max_queue_occupancy(Direction::ToDevice) <= 4);
    }
}
