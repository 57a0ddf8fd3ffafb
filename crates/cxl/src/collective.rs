//! Pool-staged inter-host collectives and the point-to-point ring baseline.
//!
//! When H hosts share one switched CXL memory pool, the pool itself can be
//! the collective fabric (CCCL, PAPERS.md): every host's gradient already
//! lands in its pool-resident staging region as part of the training step,
//! so an all-reduce needs only **one staged write plus direct reads of the
//! peers' regions** — no per-hop store-and-forward. [`PoolCollective`]
//! models that datapath:
//!
//! - `reduce_scatter`: host `h` reads shard `h` of every peer's staged
//!   gradient ((H−1)·G/H port-bytes) and folds them with the chunked
//!   wrapping-add kernel ([`crate::dba::kernels::reduce_sum_run`]);
//! - `all_gather`: host `h` writes its owned chunk once and reads the
//!   H−1 others directly;
//! - `all_reduce`: the fused pipeline — the reduced-shard writeback
//!   overlaps the read stream on the full-duplex port (chunk-granular,
//!   so the store of reduced chunk *k* issues while chunk *k+1* of the
//!   peers is in flight), and the gather reads continue on the same
//!   read stream. Total port traffic is (2H−1)·G versus the ring's
//!   4(H−1)·G endpoint-port bytes.
//!
//! The pool media (its DRAM channels) is a shared resource behind the
//! per-host ports, arbitrated by a [`HostLinkArbiter`] with one account
//! per host port. Gather-phase reads of the same reduced shard by H−1
//! hosts are charged to the media **once** ([`HostLinkArbiter::charge_fanin`]):
//! the switched pool multicasts one DRAM read to every requesting port,
//! the dual of the update-mode broadcast fan-out inside one host.
//!
//! [`ring_all_reduce`] is the baseline: an NCCL-style ring over modeled
//! point-to-point links, 2(H−1) bulk-synchronous steps each moving G/H
//! bytes per link with a per-hop latency. Link-bytes use endpoint-port
//! accounting — every hop consumes the sender's egress *and* the
//! receiver's ingress port, whereas a pool access traverses exactly one
//! host↔pool port (the pool is switched memory, not a peer NIC).
//!
//! Both paths reduce with wrapping `u32` addition, which is commutative
//! and associative — pool shard order and ring hop order produce
//! bit-identical sums, and the tests assert exactly that.

use crate::arbiter::{HostLinkArbiter, HostLinkArbiterSnapshot};
use crate::dba::kernels;
use crate::fault::line_checksum;
use crate::fence::FenceDeadline;
use crate::ras::{MediaRas, MediaRasSnapshot, RasConfig, RasStats};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use teco_sim::{Bandwidth, Bytes, SimRng, SimTime};

/// Typed failure of a collective operation. Carries host/chunk/time
/// context so the fabric layer can log, quarantine, and regroup without
/// string-parsing — and so no kill point inside an operation ever
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// A configuration is unusable (non-positive bandwidth, zero hosts,
    /// sub-line chunks, mismatched snapshot shapes, ...).
    Config(String),
    /// Operand shape mismatch: the caller handed the wrong number of
    /// buffers/ready times, unequal buffer lengths, or a non-word size.
    Shape {
        /// What was being checked.
        what: &'static str,
        /// Expected count/size.
        expect: u64,
        /// Observed count/size.
        got: u64,
    },
    /// A host stopped responding mid-collective; the deadline watchdog
    /// declared it dead at a chunk boundary.
    HostDown {
        /// The host the watchdog declared lost.
        host: u64,
        /// Phase the loss was detected in.
        phase: CollectivePhase,
        /// Flat chunk index (within the phase) at which detection fired.
        chunk: u64,
        /// Simulated time of the declaration, in nanoseconds.
        time_ns: u64,
    },
    /// A chunk transfer kept failing its checksum past the retry budget.
    RetryExhausted {
        /// Host whose port kept faulting.
        host: u64,
        /// Flat chunk index of the failing transfer.
        chunk: u64,
        /// Replay attempts consumed.
        attempts: u32,
        /// Simulated time the budget ran out, in nanoseconds.
        time_ns: u64,
    },
    /// Every host is quarantined — there is nobody left to reduce.
    NoSurvivors {
        /// Simulated time of the attempt, in nanoseconds.
        time_ns: u64,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Config(msg) => write!(f, "collective config error: {msg}"),
            CollectiveError::Shape { what, expect, got } => {
                write!(f, "collective operand mismatch: {what} expected {expect}, got {got}")
            }
            CollectiveError::HostDown { host, phase, chunk, time_ns } => write!(
                f,
                "host {host} lost in {phase:?} at chunk {chunk} (declared at {time_ns} ns)"
            ),
            CollectiveError::RetryExhausted { host, chunk, attempts, time_ns } => write!(
                f,
                "host {host} chunk {chunk}: checksum retry budget exhausted \
                 after {attempts} attempts at {time_ns} ns"
            ),
            CollectiveError::NoSurvivors { time_ns } => {
                write!(f, "no surviving hosts to run the collective at {time_ns} ns")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Tuning knobs for both the pool-staged collectives and the ring
/// baseline. Defaults model the paper's platform: the host↔pool port is
/// the 15.088 GB/s effective CXL link, the ring NIC is 100 GbE
/// (12.5 GB/s), and the pool media is a multi-channel DDR5 box that can
/// feed all eight ports at once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveConfig {
    /// Hosts sharing the pool (H ≥ 1; H = 1 collectives are no-ops).
    pub hosts: usize,
    /// Per-host host↔pool port bandwidth (full duplex).
    pub pool_port_gb_per_sec: f64,
    /// Aggregate pool DRAM bandwidth shared by all ports.
    pub pool_media_gb_per_sec: f64,
    /// Per-link bandwidth of the ring baseline's point-to-point NICs.
    pub ring_link_gb_per_sec: f64,
    /// Pool phase-barrier latency (doorbell + visibility ordering).
    pub pool_phase_latency_ns: u64,
    /// Per-hop latency of a ring step (NIC + switch traversal).
    pub ring_hop_latency_ns: u64,
    /// Pipelining granule of the fused all-reduce: the reduced-shard
    /// writeback trails the read stream by one chunk.
    pub chunk_bytes: u64,
}

impl CollectiveConfig {
    /// The default platform model for `hosts` hosts.
    pub fn for_hosts(hosts: usize) -> Self {
        CollectiveConfig {
            hosts,
            pool_port_gb_per_sec: 15.088,
            pool_media_gb_per_sec: 256.0,
            ring_link_gb_per_sec: 12.5,
            pool_phase_latency_ns: 500,
            ring_hop_latency_ns: 1_500,
            chunk_bytes: 256 * 1024,
        }
    }

    /// Reject unusable configurations with a typed error instead of a
    /// panic, so snapshot decoding and harness plumbing stay
    /// kill-safe.
    pub fn validate(&self) -> Result<(), CollectiveError> {
        if self.hosts < 1 {
            return Err(CollectiveError::Config("collective needs at least one host".into()));
        }
        for (name, v) in [
            ("pool_port_gb_per_sec", self.pool_port_gb_per_sec),
            ("pool_media_gb_per_sec", self.pool_media_gb_per_sec),
            ("ring_link_gb_per_sec", self.ring_link_gb_per_sec),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(CollectiveError::Config(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        if self.chunk_bytes < 64 {
            return Err(CollectiveError::Config(format!(
                "chunk_bytes must be at least one line, got {}",
                self.chunk_bytes
            )));
        }
        Ok(())
    }

    fn port(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.pool_port_gb_per_sec)
    }
    fn media(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.pool_media_gb_per_sec)
    }
    fn ring(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.ring_link_gb_per_sec)
    }
    fn phase_latency(&self) -> SimTime {
        SimTime::from_ns(self.pool_phase_latency_ns)
    }
    fn hop_latency(&self) -> SimTime {
        SimTime::from_ns(self.ring_hop_latency_ns)
    }
}

/// Byte range of host `h`'s shard of a `total_bytes` gradient split
/// across `hosts` hosts at FP32-word granularity: the first
/// `total_words % hosts` shards take one extra word. Both the pool
/// collectives and the ring baseline partition with this, so their
/// reduction segments line up exactly.
pub fn shard_range(total_bytes: usize, hosts: usize, h: usize) -> Range<usize> {
    assert!(h < hosts, "shard index out of range");
    assert_eq!(total_bytes % 4, 0, "gradients are whole FP32 words");
    let words = total_bytes / 4;
    let base = words / hosts;
    let rem = words % hosts;
    let start = h * base + h.min(rem);
    let len = base + usize::from(h < rem);
    4 * start..4 * (start + len)
}

/// Cumulative operation counters of a [`PoolCollective`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveStats {
    /// `reduce_scatter` operations completed.
    pub reduce_scatters: u64,
    /// `all_gather` operations completed.
    pub all_gathers: u64,
    /// Fused `all_reduce` operations completed.
    pub all_reduces: u64,
    /// Total host↔pool port bytes moved (both directions, all hosts).
    pub port_bytes: u64,
    /// Total pool-DRAM bytes served (after fan-in dedup).
    pub media_bytes: u64,
}

/// Modeled result of one pool-staged collective operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveOutcome {
    /// Participating hosts.
    pub hosts: u64,
    /// Gradient bytes contributed per host.
    pub bytes_per_host: u64,
    /// When the operation's entry barrier passed (latest host ready).
    pub start: SimTime,
    /// When the last host held its full result.
    pub completion: SimTime,
    /// Per-host completion times.
    pub per_host_done: Vec<SimTime>,
    /// Host↔pool port bytes this operation moved (all hosts, both
    /// directions).
    pub port_bytes: u64,
    /// Pool-DRAM bytes served (gather fan-in deduplicated).
    pub media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading.
    pub fanin_saved_bytes: u64,
}

impl CollectiveOutcome {
    fn noop(hosts: u64, bytes: u64, at: SimTime) -> Self {
        CollectiveOutcome {
            hosts,
            bytes_per_host: bytes,
            start: at,
            completion: at,
            per_host_done: vec![at; hosts as usize],
            port_bytes: 0,
            media_bytes: 0,
            fanin_saved_bytes: 0,
        }
    }
}

/// The pool-staged collective engine: per-host port timelines over a
/// media budget arbitrated by a [`HostLinkArbiter`] (one account per
/// host port).
#[derive(Debug, Clone)]
pub struct PoolCollective {
    cfg: CollectiveConfig,
    media: HostLinkArbiter,
    stats: CollectiveStats,
}

impl PoolCollective {
    /// A collective engine over `cfg.hosts` pool ports.
    pub fn new(cfg: CollectiveConfig) -> Result<Self, CollectiveError> {
        cfg.validate()?;
        Ok(PoolCollective {
            media: HostLinkArbiter::new(cfg.media(), cfg.hosts),
            cfg,
            stats: CollectiveStats::default(),
        })
    }

    /// The configuration this engine models.
    pub fn config(&self) -> &CollectiveConfig {
        &self.cfg
    }
    /// Cumulative operation counters.
    pub fn stats(&self) -> CollectiveStats {
        self.stats
    }
    /// The pool-media arbiter (per-host-port accounts, fan-in counters).
    pub fn media(&self) -> &HostLinkArbiter {
        &self.media
    }

    /// Quarantine a lost host's media account: it takes no arbitration
    /// grants until readmitted.
    pub fn quarantine_host(&mut self, host: usize) {
        self.media.quarantine_device(host);
    }

    /// Readmit a quarantined host's media account.
    pub fn readmit_host(&mut self, host: usize) {
        self.media.readmit_device(host);
    }

    /// Is this host's media account quarantined?
    pub fn is_host_quarantined(&self, host: usize) -> bool {
        self.media.is_quarantined(host)
    }

    fn check_operands(&self, bufs: &[Vec<u8>], ready: &[SimTime]) -> Result<u64, CollectiveError> {
        check_shapes(self.cfg.hosts, bufs, ready)
    }

    /// Reduce-scatter over gradients already staged in the pool: host `h`
    /// reads shard `h` of every peer's region and folds them locally,
    /// returning each host's owned reduced shard. One phase: (H−1)·G/H
    /// port read-bytes per host, no writes (the inputs are the staged
    /// gradients the training step already flushed).
    pub fn reduce_scatter(
        &mut self,
        shards: &[Vec<u8>],
        ready: &[SimTime],
    ) -> Result<(Vec<Vec<u8>>, CollectiveOutcome), CollectiveError> {
        let g = self.check_operands(shards, ready)?;
        let h = self.cfg.hosts;
        self.stats.reduce_scatters += 1;
        let owned: Vec<Vec<u8>> = (0..h).map(|d| reduce_shard(shards, d)).collect();
        if h == 1 {
            return Ok((owned, CollectiveOutcome::noop(1, g, ready[0])));
        }

        let start = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
        let t0 = start + self.cfg.phase_latency();
        let port = self.cfg.port();
        let reads: Vec<u64> = (0..h).map(|d| (h as u64 - 1) * range_len(g, h, d)).collect();
        let mut media_ends = vec![SimTime::ZERO; h];
        self.media.arbitrate_round_into(&vec![t0; h], &reads, &mut media_ends);
        let per_host_done: Vec<SimTime> =
            (0..h).map(|d| (t0 + port.transfer_time(reads[d])).max(media_ends[d])).collect();
        let port_bytes: u64 = reads.iter().sum();
        self.stats.port_bytes += port_bytes;
        self.stats.media_bytes += port_bytes;
        let outcome = CollectiveOutcome {
            hosts: h as u64,
            bytes_per_host: g,
            start,
            completion: per_host_done.iter().copied().fold(SimTime::ZERO, SimTime::max),
            per_host_done,
            port_bytes,
            media_bytes: port_bytes,
            fanin_saved_bytes: 0,
        };
        Ok((owned, outcome))
    }

    /// All-gather: host `h` writes its owned chunk into its staging
    /// region **once**, then every host reads the H−1 peer chunks
    /// directly. The media serves each chunk one time and multicasts it
    /// to all reading ports ([`HostLinkArbiter::charge_fanin`]).
    pub fn all_gather(
        &mut self,
        owned: &[Vec<u8>],
        ready: &[SimTime],
    ) -> Result<(Vec<Vec<u8>>, CollectiveOutcome), CollectiveError> {
        let h = self.cfg.hosts;
        if owned.len() != h {
            return Err(CollectiveError::Shape {
                what: "owned chunks",
                expect: h as u64,
                got: owned.len() as u64,
            });
        }
        if ready.len() != h {
            return Err(CollectiveError::Shape {
                what: "ready times",
                expect: h as u64,
                got: ready.len() as u64,
            });
        }
        self.stats.all_gathers += 1;
        let full: Vec<u8> = owned.iter().flat_map(|c| c.iter().copied()).collect();
        let g = full.len() as u64;
        let result: Vec<Vec<u8>> = vec![full; h];
        if h == 1 {
            return Ok((result, CollectiveOutcome::noop(1, g, ready[0])));
        }

        let start = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
        let t0 = start + self.cfg.phase_latency();
        let port = self.cfg.port();
        let writes: Vec<u64> = owned.iter().map(|c| c.len() as u64).collect();
        let mut media_w = vec![SimTime::ZERO; h];
        self.media.arbitrate_round_into(&vec![t0; h], &writes, &mut media_w);
        // Barrier: every chunk staged and visible before the reads start.
        let t1 = (0..h)
            .map(|d| (t0 + port.transfer_time(writes[d])).max(media_w[d]))
            .fold(SimTime::ZERO, SimTime::max);
        let mut fanin_saved = 0u64;
        for (d, &bytes) in writes.iter().enumerate() {
            if bytes > 0 {
                let before = self.media.fanin_saved_bytes();
                self.media.charge_fanin(t1.max(media_w[d]), bytes, h - 1);
                fanin_saved += self.media.fanin_saved_bytes() - before;
            }
        }
        let drain = self.media.drained_at();
        let per_host_done: Vec<SimTime> =
            (0..h).map(|d| (t1 + port.transfer_time(g - writes[d])).max(drain)).collect();
        let port_bytes: u64 = writes.iter().map(|&w| w + (g - w)).sum();
        let media_bytes = 2 * g; // each chunk written once + served once
        self.stats.port_bytes += port_bytes;
        self.stats.media_bytes += media_bytes;
        let outcome = CollectiveOutcome {
            hosts: h as u64,
            bytes_per_host: g,
            start,
            completion: per_host_done.iter().copied().fold(SimTime::ZERO, SimTime::max),
            per_host_done,
            port_bytes,
            media_bytes,
            fanin_saved_bytes: fanin_saved,
        };
        Ok((result, outcome))
    }

    /// The fused all-reduce: reduce-scatter and all-gather share one
    /// continuous per-host read stream (2(H−1)·G/H bytes), with the
    /// reduced-shard writeback overlapped on the full-duplex port's write
    /// direction at chunk granularity. Gradients land reduced in place in
    /// every host's buffer.
    ///
    /// Port traffic totals (2H−1)·G across hosts; the gather fan-in costs
    /// the media only G. Data-wise this is exactly
    /// `reduce_scatter` + `all_gather` (the tests pin that), but the
    /// fused timeline is what makes the pool beat the ring at H = 2.
    pub fn all_reduce(
        &mut self,
        shards: &mut [Vec<u8>],
        ready: &[SimTime],
    ) -> Result<CollectiveOutcome, CollectiveError> {
        let g = self.check_operands(shards, ready)?;
        let h = self.cfg.hosts;
        self.stats.all_reduces += 1;
        if h == 1 {
            return Ok(CollectiveOutcome::noop(1, g, ready[0]));
        }

        // Data: fold every peer's shard, then scatter the reduced shards
        // back into all hosts' buffers.
        let reduced: Vec<Vec<u8>> = (0..h).map(|d| reduce_shard(shards, d)).collect();
        for buf in shards.iter_mut() {
            for (d, red) in reduced.iter().enumerate() {
                buf[shard_range(g as usize, h, d)].copy_from_slice(red);
            }
        }

        // Time: per-host port timelines.
        let start = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
        let t0 = start + self.cfg.phase_latency();
        let port = self.cfg.port();
        let shard_bytes: Vec<u64> = (0..h).map(|d| range_len(g, h, d)).collect();
        let r1: Vec<u64> = shard_bytes.iter().map(|&s| (h as u64 - 1) * s).collect();
        let chunk: Vec<u64> = shard_bytes.iter().map(|&s| s.min(self.cfg.chunk_bytes)).collect();

        // Reduced-shard store trails the peer-read stream by one chunk on
        // the write direction of the full-duplex port.
        let write_end: Vec<SimTime> =
            (0..h).map(|d| t0 + port.transfer_time(r1[d]) + port.transfer_time(chunk[d])).collect();
        let w_last = write_end.iter().copied().fold(SimTime::ZERO, SimTime::max);
        // The read stream continues straight into the gather reads; the
        // final chunk of the slowest peer's reduced shard gates the tail.
        let port_done: Vec<SimTime> = (0..h)
            .map(|d| {
                let stream = t0 + port.transfer_time(r1[d] + (g - shard_bytes[d]));
                stream.max(w_last + port.transfer_time(chunk[d]))
            })
            .collect();

        // Media: the reduce reads, the reduced-shard writes, then one
        // fan-in read per shard serving all H−1 gathering ports.
        let mut media_r = vec![SimTime::ZERO; h];
        self.media.arbitrate_round_into(&vec![t0; h], &r1, &mut media_r);
        let mut media_w = vec![SimTime::ZERO; h];
        self.media.arbitrate_round_into(&media_r, &shard_bytes, &mut media_w);
        let mut fanin_saved = 0u64;
        for (d, &s) in shard_bytes.iter().enumerate() {
            if s > 0 {
                let before = self.media.fanin_saved_bytes();
                self.media.charge_fanin(media_w[d], s, h - 1);
                fanin_saved += self.media.fanin_saved_bytes() - before;
            }
        }
        let drain = self.media.drained_at();

        let per_host_done: Vec<SimTime> = port_done.iter().map(|&t| t.max(drain)).collect();
        let port_bytes = (2 * h as u64 - 1) * g;
        let media_bytes = (h as u64 + 1) * g; // (H−1)·G reads + G writes + G fan-in
        self.stats.port_bytes += port_bytes;
        self.stats.media_bytes += media_bytes;
        Ok(CollectiveOutcome {
            hosts: h as u64,
            bytes_per_host: g,
            start,
            completion: per_host_done.iter().copied().fold(SimTime::ZERO, SimTime::max),
            per_host_done,
            port_bytes,
            media_bytes,
            fanin_saved_bytes: fanin_saved,
        })
    }

    /// Checkpoint image of the engine.
    pub fn snapshot(&self) -> PoolCollectiveSnapshot {
        PoolCollectiveSnapshot { cfg: self.cfg, media: self.media.snapshot(), stats: self.stats }
    }

    /// Rebuild an engine from a snapshot; subsequent operations time and
    /// account identically to the original. A media arbiter that does not
    /// serve exactly `cfg.hosts` hosts is a `Config` error.
    pub fn restore(s: &PoolCollectiveSnapshot) -> Result<Self, CollectiveError> {
        s.cfg.validate()?;
        if s.media.n != s.cfg.hosts as u64 {
            return Err(CollectiveError::Config(format!(
                "snapshot's media arbiter serves {} hosts, not {}",
                s.media.n, s.cfg.hosts
            )));
        }
        let media = HostLinkArbiter::restore(&s.media).map_err(CollectiveError::Config)?;
        Ok(PoolCollective { cfg: s.cfg, media, stats: s.stats })
    }
}

/// Serializable image of a [`PoolCollective`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolCollectiveSnapshot {
    /// Engine configuration.
    pub cfg: CollectiveConfig,
    /// Media-arbiter state.
    pub media: HostLinkArbiterSnapshot,
    /// Operation counters.
    pub stats: CollectiveStats,
}

fn range_len(total: u64, hosts: usize, h: usize) -> u64 {
    let r = shard_range(total as usize, hosts, h);
    (r.end - r.start) as u64
}

/// Shared operand validation: one equal-size whole-word buffer and one
/// ready time per host.
fn check_shapes(hosts: usize, bufs: &[Vec<u8>], ready: &[SimTime]) -> Result<u64, CollectiveError> {
    if bufs.len() != hosts {
        return Err(CollectiveError::Shape {
            what: "host buffers",
            expect: hosts as u64,
            got: bufs.len() as u64,
        });
    }
    if ready.len() != hosts {
        return Err(CollectiveError::Shape {
            what: "ready times",
            expect: hosts as u64,
            got: ready.len() as u64,
        });
    }
    let g = bufs[0].len() as u64;
    for b in bufs {
        if b.len() as u64 != g {
            return Err(CollectiveError::Shape {
                what: "buffer bytes",
                expect: g,
                got: b.len() as u64,
            });
        }
    }
    if !g.is_multiple_of(4) {
        return Err(CollectiveError::Shape { what: "whole FP32 words", expect: g / 4 * 4, got: g });
    }
    Ok(g)
}

/// Fold shard `d` of every host's buffer with the chunked wrapping-add
/// kernel, starting from host `d`'s own contribution.
fn reduce_shard(shards: &[Vec<u8>], d: usize) -> Vec<u8> {
    let g = shards[0].len();
    let range = shard_range(g, shards.len(), d);
    let mut acc = shards[d][range.clone()].to_vec();
    for (p, buf) in shards.iter().enumerate() {
        if p != d {
            kernels::reduce_sum_run(&buf[range.clone()], &mut acc);
        }
    }
    acc
}

/// Modeled result of one ring all-reduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingOutcome {
    /// Participating hosts.
    pub hosts: u64,
    /// Gradient bytes per host.
    pub bytes_per_host: u64,
    /// When the ring's entry barrier passed (latest host ready).
    pub start: SimTime,
    /// When the last step's transfers landed.
    pub completion: SimTime,
    /// Bulk-synchronous steps executed (2(H−1)).
    pub steps: u64,
    /// Endpoint-port bytes moved: every hop consumes the sender's egress
    /// and the receiver's ingress port.
    pub link_bytes: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
}

/// The NCCL-style ring all-reduce baseline: H−1 reduce-scatter steps then
/// H−1 all-gather steps, each a bulk-synchronous round in which host `h`
/// sends one segment to host `(h+1) % H` over its point-to-point link
/// (full duplex, so every host sends and receives concurrently). The
/// reduction segments are the same word-granular [`shard_range`] split
/// the pool path uses, and the additions are the same wrapping kernel —
/// the result is bit-identical to [`PoolCollective::all_reduce`].
pub fn ring_all_reduce(
    cfg: &CollectiveConfig,
    shards: &mut [Vec<u8>],
    ready: &[SimTime],
) -> Result<RingOutcome, CollectiveError> {
    cfg.validate()?;
    let h = shards.len();
    if h != cfg.hosts {
        return Err(CollectiveError::Shape {
            what: "host buffers",
            expect: cfg.hosts as u64,
            got: h as u64,
        });
    }
    let g = check_shapes(h, shards, ready)? as usize;

    let start = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
    if h == 1 {
        return Ok(RingOutcome {
            hosts: 1,
            bytes_per_host: g as u64,
            start: ready[0],
            completion: ready[0],
            steps: 0,
            link_bytes: 0,
            messages: 0,
        });
    }

    let link = cfg.ring();
    let hop = cfg.hop_latency();
    let mut now = start;
    let mut link_bytes = 0u64;
    let mut messages = 0u64;
    let mut outgoing: Vec<Vec<u8>> = vec![Vec::new(); h];

    // Phase 1 — reduce-scatter: at step k, host `h` sends segment
    // (h − k) mod H and folds the segment arriving from its predecessor.
    // Phase 2 — all-gather: host `h` sends segment (h + 1 − k) mod H and
    // copies the arriving one. After both, every buffer holds the sum.
    for (phase, reduce) in [(0usize, true), (1, false)] {
        for k in 0..h - 1 {
            let mut in_flight_max = 0u64;
            for (src, out) in outgoing.iter_mut().enumerate() {
                let idx =
                    if phase == 0 { (src + h - k % h) % h } else { (src + 1 + h - k % h) % h };
                let seg = shard_range(g, h, idx);
                out.clear();
                out.extend_from_slice(&shards[src][seg]);
                in_flight_max = in_flight_max.max(out.len() as u64);
                link_bytes += 2 * out.len() as u64; // sender egress + receiver ingress
                messages += 1;
            }
            for (dst, shard) in shards.iter_mut().enumerate() {
                let src = (dst + h - 1) % h;
                let idx =
                    if phase == 0 { (src + h - k % h) % h } else { (src + 1 + h - k % h) % h };
                let seg = shard_range(g, h, idx);
                if reduce {
                    kernels::reduce_sum_run(&outgoing[src], &mut shard[seg]);
                } else {
                    shard[seg].copy_from_slice(&outgoing[src]);
                }
            }
            now = now + hop + link.transfer_time(in_flight_max);
        }
    }

    Ok(RingOutcome {
        hosts: h as u64,
        bytes_per_host: g as u64,
        start,
        completion: now,
        steps: 2 * (h as u64 - 1),
        link_bytes,
        messages,
    })
}

/// Which half of the fused all-reduce a chunk boundary sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectivePhase {
    /// Peer-shard reads + local folds.
    ReduceScatter,
    /// Reduced-shard write + peer gather reads.
    AllGather,
}

/// Kill injection point for a chunked collective: host `host` stops
/// responding at flat chunk index `chunk` of `phase`. Indices past the
/// end of the phase clamp to its last chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostKill {
    /// Host that dies.
    pub host: u64,
    /// Phase the death lands in.
    pub phase: CollectivePhase,
    /// Flat chunk index within the phase.
    pub chunk: u64,
}

/// Fault posture of a [`ChunkedCollective`]: transient pool-port faults
/// (per-chunk Bernoulli, checksummed retry with seeded backoff), a
/// deadline watchdog for host loss, pool-media RAS over the staging
/// regions, and the retirement-pressure threshold that trips the
/// ring-fallback rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveFaultConfig {
    /// Probability a chunk read arrives corrupted (checksum-detected,
    /// replayed after backoff). `0.0` disables port-fault injection.
    pub port_fault_rate: f64,
    /// Replay attempts per chunk before [`CollectiveError::RetryExhausted`].
    pub retry_limit: u32,
    /// Base backoff per replay, in nanoseconds; attempt `k` waits
    /// `k·base + jitter(base)`.
    pub retry_backoff_ns: u64,
    /// Watchdog deadline for declaring a silent host dead at a chunk
    /// boundary; `0` means unbounded (detection still yields a typed
    /// error, without the modeled wait).
    pub deadline_ns: u64,
    /// Pool-media RAS posture over the collective staging regions.
    pub ras: RasConfig,
    /// Degradation-ladder rung 3: once the staging RAS has retired this
    /// many lines, route all-reduces over the point-to-point ring
    /// instead of the pool. `0` disables the fallback.
    pub ring_fallback_retired_lines: u64,
    /// Seed of the port-fault injection stream.
    pub seed: u64,
}

impl CollectiveFaultConfig {
    /// No injected faults; watchdog armed at 1 ms.
    pub fn off() -> Self {
        CollectiveFaultConfig {
            port_fault_rate: 0.0,
            retry_limit: 8,
            retry_backoff_ns: 200,
            deadline_ns: 1_000_000,
            ras: RasConfig::off(),
            ring_fallback_retired_lines: 0,
            seed: 0,
        }
    }

    /// Does any fault mechanism actually fire? (Zero-fault configs route
    /// the fabric through the fast closed-form path.)
    pub fn engaged(&self) -> bool {
        self.port_fault_rate > 0.0 || !self.ras.is_off() || self.ring_fallback_retired_lines > 0
    }

    /// Reject unusable fault postures.
    pub fn validate(&self) -> Result<(), CollectiveError> {
        if !self.port_fault_rate.is_finite() || !(0.0..=1.0).contains(&self.port_fault_rate) {
            return Err(CollectiveError::Config(format!(
                "port_fault_rate must be in [0, 1], got {}",
                self.port_fault_rate
            )));
        }
        self.ras.validate().map_err(CollectiveError::Config)
    }
}

/// Fault/recovery counters of a [`ChunkedCollective`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveFaultStats {
    /// Chunk deliveries that arrived corrupted.
    pub port_faults: u64,
    /// Chunk replays performed.
    pub chunk_retries: u64,
    /// Total modeled backoff across replays, in nanoseconds.
    pub backoff_ns: u64,
    /// Corruptions caught by the per-chunk Fletcher-16 checksum.
    pub checksum_detects: u64,
    /// Staging-media faults caught on access by RAS.
    pub media_detections: u64,
    /// Chunks re-served from the source replica after a media detection.
    pub media_chunk_rereads: u64,
    /// Watchdog deadline expiries (bounded deadlines only).
    pub watchdog_timeouts: u64,
    /// Hosts quarantined after a watchdog declaration.
    pub hosts_lost: u64,
    /// All-reduces routed over the ring fallback (ladder rung 3).
    pub ring_fallbacks: u64,
    /// Hosts readmitted after quarantine.
    pub readmissions: u64,
    /// Corrupted chunks that slipped past the checksum — structurally
    /// zero (Fletcher-16 detects every single-byte flip); counted so the
    /// zero-poison acceptance gate measures something real.
    pub poisoned_admitted: u64,
}

/// In-flight state of one chunk-granular fused all-reduce. The op is a
/// plain serializable value: the fabric can snapshot it at any chunk
/// boundary and a restored engine finishes it bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkedOp {
    /// Gradient bytes per host.
    pub g: u64,
    /// Live host ids (ascending) this op reduces across.
    pub live: Vec<u64>,
    /// Source replicas: each live host's staged gradient, pristine.
    pub inputs: Vec<Bytes>,
    /// Per-live-shard reduction accumulators.
    pub reduced: Vec<Bytes>,
    /// The assembled global sum (filled during the gather phase).
    pub result: Bytes,
    /// Current phase.
    pub phase: CollectivePhase,
    /// Flat chunk index within the current phase.
    pub flat: u64,
    /// Current shard (live index) being walked.
    pub cur_shard: u64,
    /// Current chunk within the shard.
    pub cur_chunk: u64,
    /// Per-live-host port timelines.
    pub clocks: Vec<SimTime>,
    /// Entry-barrier time.
    pub start: SimTime,
    /// Port bytes moved so far.
    pub port_bytes: u64,
    /// Media bytes accounted so far.
    pub media_bytes: u64,
    /// Media read-bytes per live host, charged in bulk at phase end.
    pub pending_reads: Vec<u64>,
    /// Media write-bytes per live host, charged in bulk at gather end.
    pub pending_writes: Vec<u64>,
    /// Media bytes the gather fan-in deduplicated.
    pub fanin_saved: u64,
    /// Routed over the ring fallback instead of the pool.
    pub via_ring: bool,
    /// Completed.
    pub done: bool,
    /// Final accounting (set once `done`).
    pub outcome: Option<CollectiveOutcome>,
}

impl ChunkedOp {
    /// Chunks in live shard `i`.
    fn shard_chunks(&self, i: usize, chunk_bytes: u64) -> u64 {
        let len = range_len(self.g, self.live.len(), i);
        len.div_ceil(chunk_bytes)
    }

    /// Total chunk items in one phase.
    fn items_per_phase(&self, chunk_bytes: u64) -> u64 {
        (0..self.live.len()).map(|i| self.shard_chunks(i, chunk_bytes)).sum()
    }

    /// Consume a completed op, yielding the reduced bytes (identical on
    /// every live host) and the accounting.
    pub fn into_result(self) -> Result<(Vec<u8>, CollectiveOutcome), CollectiveError> {
        match (self.done, self.outcome) {
            (true, Some(outcome)) => Ok((self.result.0, outcome)),
            _ => Err(CollectiveError::Config("collective op is not complete".into())),
        }
    }
}

/// Serializable image of a [`ChunkedCollective`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkedCollectiveSnapshot {
    /// Pool engine state (config, media arbiter, op counters).
    pub pool: PoolCollectiveSnapshot,
    /// Fault posture.
    pub fcfg: CollectiveFaultConfig,
    /// Port-fault injection stream state.
    pub port_rng: [u64; 4],
    /// Staging-media RAS state.
    pub ras: MediaRasSnapshot,
    /// Spare lines left for retirement remaps.
    pub spares_left: u64,
    /// Per-host quarantine flags.
    pub down: Vec<bool>,
    /// Fault/recovery counters.
    pub fstats: CollectiveFaultStats,
}

/// The fault-tolerant chunk-granular collective engine: a
/// [`PoolCollective`] datapath driven one chunk at a time, with
/// kill-injectable host loss at every chunk boundary, per-chunk
/// checksummed retry with seeded backoff on transient port faults,
/// pool-media RAS over the staging regions (detected faults are
/// re-served from the source replica — poison never reaches the sum),
/// and the three-rung degradation ladder: chunk retry → survivor
/// regroup (the caller quarantines the lost host and re-begins over
/// H−1, bit-identical to a never-failed H−1 run) → ring fallback once
/// RAS retirement pressure crosses the configured threshold.
#[derive(Debug, Clone)]
pub struct ChunkedCollective {
    pool: PoolCollective,
    fcfg: CollectiveFaultConfig,
    port_rng: SimRng,
    ras: MediaRas,
    spares_left: u64,
    down: Vec<bool>,
    fstats: CollectiveFaultStats,
}

impl ChunkedCollective {
    /// An engine over `cfg.hosts` ports with fault posture `fcfg`.
    pub fn new(
        cfg: CollectiveConfig,
        fcfg: CollectiveFaultConfig,
    ) -> Result<Self, CollectiveError> {
        fcfg.validate()?;
        let pool = PoolCollective::new(cfg)?;
        Ok(ChunkedCollective {
            down: vec![false; cfg.hosts],
            port_rng: SimRng::seed_from_u64(fcfg.seed).fork("collective.port-faults"),
            ras: MediaRas::with_label(fcfg.ras, "collective.staging"),
            spares_left: fcfg.ras.spare_lines,
            pool,
            fcfg,
            fstats: CollectiveFaultStats::default(),
        })
    }

    /// The underlying pool engine (config, stats, media arbiter).
    pub fn pool(&self) -> &PoolCollective {
        &self.pool
    }
    /// Fault posture.
    pub fn fault_config(&self) -> &CollectiveFaultConfig {
        &self.fcfg
    }
    /// Fault/recovery counters.
    pub fn fault_stats(&self) -> CollectiveFaultStats {
        self.fstats
    }
    /// Staging-media RAS counters.
    pub fn ras_stats(&self) -> RasStats {
        *self.ras.stats()
    }
    /// Hosts not currently quarantined.
    pub fn live_hosts(&self) -> usize {
        self.down.iter().filter(|&&d| !d).count()
    }
    /// Is this host quarantined?
    pub fn is_down(&self, host: usize) -> bool {
        self.down[host]
    }

    /// Quarantine a lost host: drop it from future ops and park its
    /// media-arbiter account.
    pub fn quarantine_host(&mut self, host: usize) {
        if !self.down[host] {
            self.down[host] = true;
            self.pool.quarantine_host(host);
            self.fstats.hosts_lost += 1;
        }
    }

    /// Readmit a quarantined host into future ops.
    pub fn readmit_host(&mut self, host: usize) {
        if self.down[host] {
            self.down[host] = false;
            self.pool.readmit_host(host);
            self.fstats.readmissions += 1;
        }
    }

    /// Start a fused all-reduce over the currently-live hosts. `staged`
    /// and `ready` are full-length (one slot per configured host);
    /// quarantined hosts' entries are ignored. Runs RAS maintenance
    /// (fault arrival + patrol scrub) over the staging regions and
    /// decides the ring-fallback rung before any chunk moves.
    pub fn begin_all_reduce(
        &mut self,
        staged: &[impl AsRef<[u8]>],
        ready: &[SimTime],
    ) -> Result<ChunkedOp, CollectiveError> {
        let hosts = self.pool.cfg.hosts;
        if staged.len() != hosts {
            return Err(CollectiveError::Shape {
                what: "host buffers",
                expect: hosts as u64,
                got: staged.len() as u64,
            });
        }
        if ready.len() != hosts {
            return Err(CollectiveError::Shape {
                what: "ready times",
                expect: hosts as u64,
                got: ready.len() as u64,
            });
        }
        let live: Vec<u64> =
            (0..hosts).filter(|&hst| !self.down[hst]).map(|hst| hst as u64).collect();
        if live.is_empty() {
            let at = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
            return Err(CollectiveError::NoSurvivors { time_ns: at.as_ns() });
        }
        let g =
            live.iter().map(|&hst| staged[hst as usize].as_ref().len() as u64).max().unwrap_or(0);
        for &hst in &live {
            let len = staged[hst as usize].as_ref().len() as u64;
            if len != g {
                return Err(CollectiveError::Shape { what: "buffer bytes", expect: g, got: len });
            }
        }
        if !g.is_multiple_of(4) {
            return Err(CollectiveError::Shape {
                what: "whole FP32 words",
                expect: g / 4 * 4,
                got: g,
            });
        }

        self.ras_maintenance(g);
        let via_ring = self.fcfg.ring_fallback_retired_lines > 0
            && self.ras.stats().lines_retired >= self.fcfg.ring_fallback_retired_lines;

        let n = live.len();
        let inputs: Vec<Bytes> =
            live.iter().map(|&hst| Bytes(staged[hst as usize].as_ref().to_vec())).collect();
        let start = live.iter().map(|&hst| ready[hst as usize]).fold(SimTime::ZERO, SimTime::max);

        if n == 1 {
            self.pool.stats.all_reduces += 1;
            let at = ready[live[0] as usize];
            let result = inputs[0].clone();
            return Ok(ChunkedOp {
                g,
                live,
                inputs: Vec::new(),
                reduced: Vec::new(),
                result,
                phase: CollectivePhase::ReduceScatter,
                flat: 0,
                cur_shard: 0,
                cur_chunk: 0,
                clocks: vec![at],
                start: at,
                port_bytes: 0,
                media_bytes: 0,
                pending_reads: Vec::new(),
                pending_writes: Vec::new(),
                fanin_saved: 0,
                via_ring: false,
                done: true,
                outcome: Some(CollectiveOutcome::noop(1, g, at)),
            });
        }

        let t0 = start + self.pool.cfg.phase_latency();
        let reduced: Vec<Bytes> =
            (0..n).map(|i| Bytes(reduce_init(&inputs, g as usize, n, i))).collect();
        Ok(ChunkedOp {
            g,
            live,
            inputs,
            reduced,
            result: Bytes(vec![0u8; g as usize]),
            phase: CollectivePhase::ReduceScatter,
            flat: 0,
            cur_shard: 0,
            cur_chunk: 0,
            clocks: vec![t0; n],
            start,
            port_bytes: 0,
            media_bytes: 0,
            pending_reads: vec![0; n],
            pending_writes: vec![0; n],
            fanin_saved: 0,
            via_ring,
            done: false,
            outcome: None,
        })
    }

    /// Advance the op by one chunk item (or one phase transition).
    /// Returns `Ok(true)` when the op is complete. A kill injected at
    /// the current chunk boundary surfaces as
    /// [`CollectiveError::HostDown`] after the watchdog's modeled wait —
    /// the caller quarantines the host and re-begins over the survivors
    /// (ladder rung 2).
    pub fn step_chunk(
        &mut self,
        op: &mut ChunkedOp,
        kill: Option<&HostKill>,
    ) -> Result<bool, CollectiveError> {
        if op.done {
            return Ok(true);
        }
        let chunk_bytes = self.pool.cfg.chunk_bytes;

        if let Some(k) = kill {
            if op.live.contains(&k.host) {
                let fires = if op.via_ring {
                    true
                } else if k.phase == op.phase {
                    let items = op.items_per_phase(chunk_bytes);
                    items > 0 && op.flat >= k.chunk.min(items - 1)
                } else {
                    false
                };
                if fires {
                    return Err(self.declare_host_down(op, k.host));
                }
            }
        }

        if op.via_ring {
            return self.run_ring_fallback(op);
        }

        let n = op.live.len();
        // Skip zero-length shards (more hosts than words).
        while (op.cur_shard as usize) < n
            && op.shard_chunks(op.cur_shard as usize, chunk_bytes) == 0
        {
            op.cur_shard += 1;
        }
        if op.cur_shard as usize == n {
            match op.phase {
                CollectivePhase::ReduceScatter => {
                    self.finish_reduce_phase(op);
                    return Ok(false);
                }
                CollectivePhase::AllGather => {
                    self.finish_gather_phase(op);
                    return Ok(true);
                }
            }
        }

        match op.phase {
            CollectivePhase::ReduceScatter => self.reduce_chunk(op)?,
            CollectivePhase::AllGather => self.gather_chunk(op)?,
        }

        op.cur_chunk += 1;
        if op.cur_chunk >= op.shard_chunks(op.cur_shard as usize, chunk_bytes) {
            op.cur_shard += 1;
            op.cur_chunk = 0;
        }
        op.flat += 1;
        Ok(false)
    }

    /// Run one fused all-reduce to completion (no kill injection): the
    /// chunk loop as a convenience, returning the reduced bytes and the
    /// accounting.
    pub fn all_reduce(
        &mut self,
        staged: &[Vec<u8>],
        ready: &[SimTime],
    ) -> Result<(Vec<u8>, CollectiveOutcome), CollectiveError> {
        let mut op = self.begin_all_reduce(staged, ready)?;
        while !self.step_chunk(&mut op, None)? {}
        op.into_result()
    }

    /// Checkpoint image of the engine (not of any in-flight op — the op
    /// itself is serializable and travels separately).
    pub fn snapshot(&self) -> ChunkedCollectiveSnapshot {
        ChunkedCollectiveSnapshot {
            pool: self.pool.snapshot(),
            fcfg: self.fcfg,
            port_rng: self.port_rng.state(),
            ras: self.ras.snapshot(),
            spares_left: self.spares_left,
            down: self.down.clone(),
            fstats: self.fstats,
        }
    }

    /// Rebuild from a snapshot; subsequent chunks fault, time, and
    /// account identically to the original.
    pub fn restore(s: &ChunkedCollectiveSnapshot) -> Result<Self, CollectiveError> {
        s.fcfg.validate()?;
        let pool = PoolCollective::restore(&s.pool)?;
        if s.down.len() != pool.cfg.hosts {
            return Err(CollectiveError::Config(format!(
                "quarantine flags for {} hosts, config has {}",
                s.down.len(),
                pool.cfg.hosts
            )));
        }
        Ok(ChunkedCollective {
            pool,
            fcfg: s.fcfg,
            port_rng: SimRng::from_state(s.port_rng),
            ras: MediaRas::from_snapshot(&s.ras),
            spares_left: s.spares_left,
            down: s.down.clone(),
            fstats: s.fstats,
        })
    }

    /// Lines one host's staging region occupies.
    fn lines_per_host(&self, g: u64) -> u64 {
        g.div_ceil(64)
    }

    /// RAS fault arrival + patrol scrub over all staging regions, with
    /// retirement against the spare-line budget.
    fn ras_maintenance(&mut self, g: u64) {
        if self.fcfg.ras.is_off() {
            return;
        }
        let mapped = self.pool.cfg.hosts as u64 * self.lines_per_host(g);
        if mapped == 0 {
            return;
        }
        self.ras.tick(mapped);
        let mut found = Vec::new();
        self.ras.scrub(mapped, &mut found);
        for _line in found {
            self.retire_line();
        }
    }

    fn retire_line(&mut self) {
        if self.spares_left > 0 {
            self.spares_left -= 1;
            self.ras.note_retired(true);
        } else {
            self.ras.note_retired(false);
        }
    }

    /// RAS check over the staged lines a chunk read touches. Returns
    /// true when any line faulted: the chunk is re-served from the
    /// source replica (the fault never reaches the data path).
    fn media_check_chunk(&mut self, host: u64, g: u64, range: &Range<usize>) -> bool {
        if self.fcfg.ras.is_off() || range.is_empty() {
            return false;
        }
        let base = host * self.lines_per_host(g);
        let first = base + range.start as u64 / 64;
        let last = base + (range.end as u64 - 1) / 64;
        let mut faulted = false;
        for line in first..=last {
            if self.ras.check_access(line) {
                self.fstats.media_detections += 1;
                self.retire_line();
                faulted = true;
            }
        }
        faulted
    }

    /// A chunk read over a fault-prone port: Bernoulli corruption per
    /// delivery, caught by the Fletcher-16 chunk checksum, replayed
    /// after seeded backoff up to the retry budget.
    fn faulted_read(
        &mut self,
        chunk: &[u8],
        host: u64,
        flat: u64,
        clock: &mut SimTime,
    ) -> Result<(), CollectiveError> {
        if self.fcfg.port_fault_rate <= 0.0 || chunk.is_empty() {
            return Ok(());
        }
        let posted = line_checksum(chunk);
        let mut attempts = 0u32;
        while self.port_rng.bernoulli(self.fcfg.port_fault_rate) {
            self.fstats.port_faults += 1;
            let mut delivered = chunk.to_vec();
            let idx = self.port_rng.index(delivered.len());
            delivered[idx] ^= 0x5A;
            if line_checksum(&delivered) == posted {
                // Structurally unreachable: Fletcher-16 catches every
                // single-byte flip. Counted so the zero-poison gate is a
                // measurement, not an assumption.
                self.fstats.poisoned_admitted += 1;
            } else {
                self.fstats.checksum_detects += 1;
            }
            attempts += 1;
            if attempts > self.fcfg.retry_limit {
                return Err(CollectiveError::RetryExhausted {
                    host,
                    chunk: flat,
                    attempts,
                    time_ns: clock.as_ns(),
                });
            }
            let base = self.fcfg.retry_backoff_ns.max(1);
            let delay = base * attempts as u64 + self.port_rng.next_u64() % base;
            *clock += SimTime::from_ns(delay);
            self.fstats.backoff_ns += delay;
            self.fstats.chunk_retries += 1;
        }
        Ok(())
    }

    /// Watchdog declaration: wait out the deadline (bounded) and return
    /// the typed loss.
    fn declare_host_down(&mut self, op: &ChunkedOp, host: u64) -> CollectiveError {
        let now = op.clocks.iter().copied().fold(SimTime::ZERO, SimTime::max);
        let deadline = FenceDeadline::from_ns(self.fcfg.deadline_ns);
        let declared_at = if deadline.expired(now, SimTime::MAX) {
            self.fstats.watchdog_timeouts += 1;
            now + deadline.timeout()
        } else {
            now
        };
        CollectiveError::HostDown {
            host,
            phase: op.phase,
            chunk: op.flat,
            time_ns: declared_at.as_ns(),
        }
    }

    /// One reduce-scatter item: the shard owner reads this chunk from
    /// every peer's staging region and folds it into its accumulator.
    fn reduce_chunk(&mut self, op: &mut ChunkedOp) -> Result<(), CollectiveError> {
        let n = op.live.len();
        let g = op.g as usize;
        let i = op.cur_shard as usize;
        let shard = shard_range(g, n, i);
        let chunk_bytes = self.pool.cfg.chunk_bytes as usize;
        let lo = shard.start + op.cur_chunk as usize * chunk_bytes;
        let hi = (lo + chunk_bytes).min(shard.end);
        let len = (hi - lo) as u64;
        let owner = op.live[i];
        let port = self.pool.cfg.port();

        for j in 0..n {
            if j == i {
                continue;
            }
            let mut clock = op.clocks[i];
            self.faulted_read(&op.inputs[j][lo..hi], owner, op.flat, &mut clock)?;
            if self.media_check_chunk(op.live[j], op.g, &(lo..hi)) {
                // Detected staging-media fault: re-serve the chunk from
                // the peer's source replica instead of the poisoned line.
                self.fstats.media_chunk_rereads += 1;
                clock += port.transfer_time(len);
                op.pending_reads[i] += len;
            }
            op.clocks[i] = clock;
            let local = lo - shard.start..hi - shard.start;
            kernels::reduce_sum_run(&op.inputs[j][lo..hi], &mut op.reduced[i][local]);
        }
        op.clocks[i] += port.transfer_time((n as u64 - 1) * len);
        op.port_bytes += (n as u64 - 1) * len;
        op.pending_reads[i] += (n as u64 - 1) * len;
        Ok(())
    }

    /// Reduce phase done: charge the media reads, barrier, enter gather.
    fn finish_reduce_phase(&mut self, op: &mut ChunkedOp) {
        let ends = self.media_round(op, false);
        let t1 = op
            .live
            .iter()
            .enumerate()
            .map(|(i, &hst)| op.clocks[i].max(ends[hst as usize]))
            .fold(SimTime::ZERO, SimTime::max)
            + self.pool.cfg.phase_latency();
        for c in op.clocks.iter_mut() {
            *c = t1;
        }
        op.media_bytes += op.pending_reads.iter().sum::<u64>();
        for p in op.pending_reads.iter_mut() {
            *p = 0;
        }
        op.phase = CollectivePhase::AllGather;
        op.cur_shard = 0;
        op.cur_chunk = 0;
        op.flat = 0;
    }

    /// One all-gather item: the owner writes its reduced chunk once,
    /// every peer reads it directly.
    fn gather_chunk(&mut self, op: &mut ChunkedOp) -> Result<(), CollectiveError> {
        let n = op.live.len();
        let g = op.g as usize;
        let i = op.cur_shard as usize;
        let shard = shard_range(g, n, i);
        let chunk_bytes = self.pool.cfg.chunk_bytes as usize;
        let lo = shard.start + op.cur_chunk as usize * chunk_bytes;
        let hi = (lo + chunk_bytes).min(shard.end);
        let len = (hi - lo) as u64;
        let owner = op.live[i];
        let port = self.pool.cfg.port();

        // Owner stages the reduced chunk.
        op.clocks[i] += port.transfer_time(len);
        op.pending_writes[i] += len;
        op.port_bytes += len;
        let staged_at = op.clocks[i];

        let local = lo - shard.start..hi - shard.start;
        op.result[lo..hi].copy_from_slice(&op.reduced[i][local.clone()]);

        for j in 0..n {
            if j == i {
                continue;
            }
            let mut clock = op.clocks[j].max(staged_at);
            self.faulted_read(&op.reduced[i][local.clone()], op.live[j], op.flat, &mut clock)?;
            if self.media_check_chunk(owner, op.g, &(lo..hi)) {
                self.fstats.media_chunk_rereads += 1;
                clock += port.transfer_time(len);
                op.pending_reads[j] += len;
            }
            clock += port.transfer_time(len);
            op.clocks[j] = clock;
            op.port_bytes += len;
        }
        Ok(())
    }

    /// Gather phase done: charge the staged writes, the deduplicated
    /// fan-in reads, and close the outcome.
    fn finish_gather_phase(&mut self, op: &mut ChunkedOp) {
        let n = op.live.len();
        let write_bytes: u64 = op.pending_writes.iter().sum();
        let ends = self.media_round(op, true);
        let mut fanin_saved = 0u64;
        let mut fanin_bytes = 0u64;
        for i in 0..n {
            let len = range_len(op.g, n, i);
            if len > 0 && n >= 2 {
                let before = self.pool.media.fanin_saved_bytes();
                self.pool.media.charge_fanin(ends[op.live[i] as usize], len, n - 1);
                fanin_saved += self.pool.media.fanin_saved_bytes() - before;
                fanin_bytes += len;
            }
        }
        op.fanin_saved = fanin_saved;
        op.media_bytes += write_bytes + op.pending_reads.iter().sum::<u64>() + fanin_bytes;
        let drain = self.pool.media.drained_at();
        let per_host_done: Vec<SimTime> = op.clocks.iter().map(|&t| t.max(drain)).collect();
        let completion = per_host_done.iter().copied().fold(SimTime::ZERO, SimTime::max);
        self.pool.stats.all_reduces += 1;
        self.pool.stats.port_bytes += op.port_bytes;
        self.pool.stats.media_bytes += op.media_bytes;
        op.outcome = Some(CollectiveOutcome {
            hosts: n as u64,
            bytes_per_host: op.g,
            start: op.start,
            completion,
            per_host_done,
            port_bytes: op.port_bytes,
            media_bytes: op.media_bytes,
            fanin_saved_bytes: fanin_saved,
        });
        op.done = true;
    }

    /// One media arbitration round over the op's pending bytes
    /// (reads or writes), mapped onto the full host-account vector.
    fn media_round(&mut self, op: &mut ChunkedOp, writes: bool) -> Vec<SimTime> {
        let hosts = self.pool.cfg.hosts;
        let mut ready = vec![SimTime::ZERO; hosts];
        let mut req = vec![0u64; hosts];
        for (i, &hst) in op.live.iter().enumerate() {
            ready[hst as usize] = op.clocks[i];
            req[hst as usize] = if writes { op.pending_writes[i] } else { op.pending_reads[i] };
        }
        let mut ends = vec![SimTime::ZERO; hosts];
        self.pool.media.arbitrate_round_into(&ready, &req, &mut ends);
        if writes {
            for p in op.pending_writes.iter_mut() {
                *p = 0;
            }
        }
        ends
    }

    /// Ladder rung 3: retirement pressure tripped the threshold — run
    /// the whole op over the point-to-point ring, off the pool media.
    fn run_ring_fallback(&mut self, op: &mut ChunkedOp) -> Result<bool, CollectiveError> {
        let n = op.live.len();
        let ring_cfg = CollectiveConfig { hosts: n, ..self.pool.cfg };
        let mut bufs: Vec<Vec<u8>> = op.inputs.iter().map(|b| b.0.clone()).collect();
        let ready = op.clocks.clone();
        let out = ring_all_reduce(&ring_cfg, &mut bufs, &ready)?;
        op.result = Bytes(bufs.swap_remove(0));
        self.fstats.ring_fallbacks += 1;
        self.pool.stats.all_reduces += 1;
        op.outcome = Some(CollectiveOutcome {
            hosts: n as u64,
            bytes_per_host: op.g,
            start: out.start,
            completion: out.completion,
            per_host_done: vec![out.completion; n],
            port_bytes: out.link_bytes,
            media_bytes: 0,
            fanin_saved_bytes: 0,
        });
        op.done = true;
        Ok(true)
    }
}

/// Initialize live shard `i`'s accumulator from its owner's own chunk.
fn reduce_init(inputs: &[Bytes], g: usize, n: usize, i: usize) -> Vec<u8> {
    inputs[i][shard_range(g, n, i)].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dba::scalar;
    use teco_sim::SimRng;

    fn gradients(hosts: usize, bytes: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..hosts)
            .map(|hst| {
                let mut rng = SimRng::seed_from_u64(seed).fork(&format!("grad-h{hst}"));
                let mut buf = vec![0u8; bytes];
                for chunk in buf.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                buf
            })
            .collect()
    }

    /// The element-wise wrapping sum every path must land on.
    fn expected_sum(inputs: &[Vec<u8>]) -> Vec<u8> {
        let mut acc = inputs[0].clone();
        for other in &inputs[1..] {
            scalar::reduce_sum_words(other, &mut acc);
        }
        acc
    }

    #[test]
    fn shard_ranges_partition_the_buffer() {
        for (bytes, hosts) in [(1024usize, 4usize), (100, 3), (64, 8), (8, 3)] {
            let mut covered = 0;
            for hst in 0..hosts {
                let r = shard_range(bytes, hosts, hst);
                assert_eq!(r.start, covered, "shards must tile in order");
                assert_eq!(r.len() % 4, 0);
                covered = r.end;
            }
            assert_eq!(covered, bytes);
        }
    }

    #[test]
    fn pool_all_reduce_computes_the_global_sum_on_every_host() {
        for hosts in [2usize, 3, 4, 8] {
            let inputs = gradients(hosts, 4096, 7);
            let want = expected_sum(&inputs);
            let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(hosts)).unwrap();
            let mut bufs = inputs.clone();
            let out = pool.all_reduce(&mut bufs, &vec![SimTime::ZERO; hosts]).unwrap();
            for buf in &bufs {
                assert_eq!(buf, &want, "every host must hold the global sum");
            }
            assert_eq!(out.port_bytes, (2 * hosts as u64 - 1) * 4096);
            assert_eq!(out.media_bytes, (hosts as u64 + 1) * 4096);
            assert!(out.completion > out.start);
        }
    }

    #[test]
    fn ring_matches_pool_bit_for_bit() {
        for hosts in [2usize, 3, 4, 8] {
            let inputs = gradients(hosts, 2048, 21);
            let cfg = CollectiveConfig::for_hosts(hosts);
            let mut pool_bufs = inputs.clone();
            PoolCollective::new(cfg)
                .unwrap()
                .all_reduce(&mut pool_bufs, &vec![SimTime::ZERO; hosts])
                .unwrap();
            let mut ring_bufs = inputs.clone();
            let out = ring_all_reduce(&cfg, &mut ring_bufs, &vec![SimTime::ZERO; hosts]).unwrap();
            assert_eq!(pool_bufs, ring_bufs, "hop order must not change the sum");
            assert_eq!(out.steps, 2 * (hosts as u64 - 1));
            // Endpoint-port accounting with evenly divisible segments:
            // 2(H−1) steps × H messages × 2 ports × G/H bytes.
            assert_eq!(out.link_bytes, 4 * (hosts as u64 - 1) * 2048);
        }
    }

    #[test]
    fn fused_all_reduce_equals_scatter_then_gather_data() {
        let hosts = 4;
        let inputs = gradients(hosts, 1024, 3);
        let cfg = CollectiveConfig::for_hosts(hosts);
        let mut fused = inputs.clone();
        PoolCollective::new(cfg)
            .unwrap()
            .all_reduce(&mut fused, &vec![SimTime::ZERO; hosts])
            .unwrap();

        let mut staged = PoolCollective::new(cfg).unwrap();
        let ready = vec![SimTime::ZERO; hosts];
        let (owned, rs) = staged.reduce_scatter(&inputs, &ready).unwrap();
        let (full, _) = staged.all_gather(&owned, &rs.per_host_done).unwrap();
        assert_eq!(fused, full);
    }

    #[test]
    fn single_host_collectives_are_noops() {
        let inputs = gradients(1, 512, 9);
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(1)).unwrap();
        let mut bufs = inputs.clone();
        let ready = [SimTime::from_ns(42)];
        let out = pool.all_reduce(&mut bufs, &ready).unwrap();
        assert_eq!(bufs, inputs, "H = 1 must not touch the data");
        assert_eq!(out.completion, SimTime::from_ns(42));
        assert_eq!(out.port_bytes, 0);
        assert_eq!(pool.media().rounds(), 0, "H = 1 must not touch the arbiter");
        let ring = ring_all_reduce(pool.config(), &mut bufs, &ready).unwrap();
        assert_eq!(ring.steps, 0);
        assert_eq!(ring.link_bytes, 0);
        assert_eq!(ring.completion, SimTime::from_ns(42));
    }

    #[test]
    fn pool_beats_ring_on_time_and_port_bytes() {
        for hosts in [2usize, 4, 8] {
            let bytes = 1 << 20;
            let inputs = gradients(hosts, bytes, 11);
            let cfg = CollectiveConfig::for_hosts(hosts);
            let ready = vec![SimTime::ZERO; hosts];
            let mut pool_bufs = inputs.clone();
            let pool =
                PoolCollective::new(cfg).unwrap().all_reduce(&mut pool_bufs, &ready).unwrap();
            let mut ring_bufs = inputs.clone();
            let ring = ring_all_reduce(&cfg, &mut ring_bufs, &ready).unwrap();
            assert!(
                pool.completion < ring.completion,
                "H={hosts}: pool {:?} must beat ring {:?}",
                pool.completion,
                ring.completion
            );
            assert!(pool.port_bytes < ring.link_bytes, "H={hosts}: pool must move fewer bytes");
        }
    }

    #[test]
    fn outcomes_are_deterministic_and_snapshot_compatible() {
        let hosts = 3;
        let cfg = CollectiveConfig::for_hosts(hosts);
        let inputs = gradients(hosts, 1536, 5);
        let ready = vec![SimTime::from_ns(10); hosts];

        let run = || {
            let mut pool = PoolCollective::new(cfg).unwrap();
            let mut bufs = inputs.clone();
            let a = pool.all_reduce(&mut bufs, &ready).unwrap();
            (a, pool.snapshot())
        };
        let (o1, s1) = run();
        let (o2, s2) = run();
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        assert_eq!(serde_json::to_string(&s1).unwrap(), serde_json::to_string(&s2).unwrap());

        // Restore mid-sequence: the second op must come out identical.
        let mut orig = PoolCollective::new(cfg).unwrap();
        let mut bufs = inputs.clone();
        orig.all_reduce(&mut bufs, &ready).unwrap();
        let snap_json = serde_json::to_string(&orig.snapshot()).unwrap();
        let snap: PoolCollectiveSnapshot = serde_json::from_str(&snap_json).unwrap();
        let mut restored = PoolCollective::restore(&snap).unwrap();
        let later = vec![SimTime::from_us(2); hosts];
        let mut b1 = inputs.clone();
        let mut b2 = inputs.clone();
        let a = orig.all_reduce(&mut b1, &later).unwrap();
        let b = restored.all_reduce(&mut b2, &later).unwrap();
        assert_eq!(a, b);
        assert_eq!(orig.snapshot(), restored.snapshot());
    }

    #[test]
    fn restore_rejects_a_malformed_media_arbiter_as_config() {
        let mut snap = PoolCollective::new(CollectiveConfig::for_hosts(2)).unwrap().snapshot();
        snap.media.quarantined = vec![false];
        assert!(matches!(PoolCollective::restore(&snap), Err(CollectiveError::Config(_))));
    }

    #[test]
    fn restore_rejects_a_media_arbiter_for_another_host_count() {
        // Accepted, it would panic in the next all-reduce, whose media
        // rounds have one slot per configured host.
        let mut snap = PoolCollective::new(CollectiveConfig::for_hosts(2)).unwrap().snapshot();
        snap.media = PoolCollective::new(CollectiveConfig::for_hosts(3)).unwrap().snapshot().media;
        assert!(matches!(PoolCollective::restore(&snap), Err(CollectiveError::Config(_))));
    }

    #[test]
    fn gather_fanin_is_charged_once_per_shard() {
        let hosts = 4;
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(hosts)).unwrap();
        let mut bufs = gradients(hosts, 4096, 13);
        let out = pool.all_reduce(&mut bufs, &vec![SimTime::ZERO; hosts]).unwrap();
        // Each of the four reduced shards is read by three ports but
        // served from media once: saved = G × (H − 2).
        assert_eq!(out.fanin_saved_bytes, 4096 * (hosts as u64 - 2));
        assert_eq!(pool.media().fanin_grants(), hosts as u64);
        assert_eq!(pool.media().fanin_deliveries(), (hosts * (hosts - 1)) as u64);
    }

    #[test]
    fn operand_mismatches_are_typed_errors_not_panics() {
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(2)).unwrap();
        let err = pool.all_reduce(&mut [vec![0u8; 64]], &[SimTime::ZERO, SimTime::ZERO]);
        assert_eq!(
            err.unwrap_err(),
            CollectiveError::Shape { what: "host buffers", expect: 2, got: 1 }
        );
        let err = pool.all_reduce(&mut [vec![0u8; 64], vec![0u8; 32]], &[SimTime::ZERO; 2]);
        assert_eq!(
            err.unwrap_err(),
            CollectiveError::Shape { what: "buffer bytes", expect: 64, got: 32 }
        );
        let err = pool.all_reduce(&mut [vec![0u8; 6], vec![0u8; 6]], &[SimTime::ZERO; 2]);
        assert!(matches!(
            err.unwrap_err(),
            CollectiveError::Shape { what: "whole FP32 words", .. }
        ));
        let bad = CollectiveConfig { chunk_bytes: 1, ..CollectiveConfig::for_hosts(2) };
        assert!(matches!(PoolCollective::new(bad), Err(CollectiveError::Config(_))));
        let mut bufs = vec![vec![0u8; 64]; 3];
        let err = ring_all_reduce(&CollectiveConfig::for_hosts(2), &mut bufs, &[SimTime::ZERO; 3]);
        assert!(matches!(err.unwrap_err(), CollectiveError::Shape { what: "host buffers", .. }));
    }

    #[test]
    fn two_host_gather_fanin_saves_zero_and_snapshot_round_trips() {
        // H = 2: each reduced shard has exactly one reader, so the
        // fan-in grant saves nothing — and must record exactly zero, not
        // underflow. The accounting must survive a JSON round trip.
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(2)).unwrap();
        let mut bufs = gradients(2, 4096, 13);
        let out = pool.all_reduce(&mut bufs, &[SimTime::ZERO; 2]).unwrap();
        assert_eq!(out.fanin_saved_bytes, 0);
        assert_eq!(pool.media().fanin_saved_bytes(), 0);
        assert_eq!(pool.media().fanin_grants(), 2);
        assert_eq!(pool.media().fanin_deliveries(), 2);
        let snap = pool.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: PoolCollectiveSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(PoolCollective::restore(&back).unwrap().snapshot(), snap);
    }

    /// A small chunked engine: 512-byte gradients, 64-byte chunks.
    fn small_chunked(hosts: usize, fcfg: CollectiveFaultConfig) -> ChunkedCollective {
        let cfg = CollectiveConfig { chunk_bytes: 64, ..CollectiveConfig::for_hosts(hosts) };
        ChunkedCollective::new(cfg, fcfg).unwrap()
    }

    #[test]
    fn chunked_zero_fault_data_matches_closed_form() {
        for hosts in [2usize, 3, 4] {
            let inputs = gradients(hosts, 512, 17);
            let ready = vec![SimTime::ZERO; hosts];
            let mut cc = small_chunked(hosts, CollectiveFaultConfig::off());
            let (result, out) = cc.all_reduce(&inputs, &ready).unwrap();
            assert_eq!(result, expected_sum(&inputs), "H={hosts}");
            assert_eq!(out.port_bytes, (2 * hosts as u64 - 1) * 512);
            assert_eq!(out.media_bytes, (hosts as u64 + 1) * 512);
            assert_eq!(cc.fault_stats(), CollectiveFaultStats::default());
        }
    }

    #[test]
    fn kill_at_every_chunk_boundary_regroups_bit_identically() {
        // Kill the last host at every chunk boundary of both phases of
        // an H=4 all-reduce. The watchdog declares it, the survivors
        // regroup to H=3, and the reduced bytes are bit-identical to a
        // never-failed H=3 run over the survivors.
        let hosts = 4;
        let inputs = gradients(hosts, 512, 23);
        let ready = vec![SimTime::ZERO; hosts];

        // The never-failed H−1 oracle: host 3 quarantined from the start.
        let mut oracle = small_chunked(hosts, CollectiveFaultConfig::off());
        oracle.quarantine_host(3);
        let (want, _) = oracle.all_reduce(&inputs, &ready).unwrap();
        assert_eq!(want, expected_sum(&inputs[..3]));

        for phase in [CollectivePhase::ReduceScatter, CollectivePhase::AllGather] {
            for chunk in 0..8u64 {
                let kill = HostKill { host: 3, phase, chunk };
                let mut cc = small_chunked(hosts, CollectiveFaultConfig::off());
                let mut op = cc.begin_all_reduce(&inputs, &ready).unwrap();
                let lost = loop {
                    match cc.step_chunk(&mut op, Some(&kill)) {
                        Ok(true) => panic!("{phase:?} chunk {chunk}: kill must interrupt the op"),
                        Ok(false) => {}
                        Err(CollectiveError::HostDown { host, phase: p, chunk: c, time_ns }) => {
                            assert_eq!(host, 3);
                            assert_eq!(p, phase);
                            assert_eq!(c, chunk);
                            assert!(time_ns > 0, "bounded watchdog waits out its deadline");
                            break host;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                };
                cc.quarantine_host(lost as usize);
                assert_eq!(cc.fault_stats().watchdog_timeouts, 1);
                assert_eq!(cc.fault_stats().hosts_lost, 1);
                assert!(cc.pool().media().is_quarantined(3), "arbiter account quarantined");
                let mut regroup = cc.begin_all_reduce(&inputs, &ready).unwrap();
                while !cc.step_chunk(&mut regroup, None).unwrap() {}
                let (got, out) = regroup.into_result().unwrap();
                assert_eq!(got, want, "{phase:?} chunk {chunk}: regroup must match H−1 oracle");
                assert_eq!(out.hosts, 3);
            }
        }
    }

    #[test]
    fn transient_port_faults_retry_and_converge_deterministically() {
        let hosts = 3;
        let inputs = gradients(hosts, 512, 29);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            port_fault_rate: 0.3,
            seed: 11,
            ..CollectiveFaultConfig::off()
        };
        let run = || {
            let mut cc = small_chunked(hosts, fcfg);
            let (result, out) = cc.all_reduce(&inputs, &ready).unwrap();
            (result, out, cc.fault_stats())
        };
        let (r1, o1, s1) = run();
        let (r2, o2, s2) = run();
        assert_eq!(r1, expected_sum(&inputs), "faulted chunks must be replayed, not admitted");
        assert_eq!((r1, o1, s1), (r2, o2, s2), "seeded faults must replay identically");
        assert!(s1.port_faults > 0 && s1.chunk_retries > 0 && s1.checksum_detects > 0);
        assert!(s1.backoff_ns > 0, "replays must cost modeled backoff");
        assert_eq!(s1.poisoned_admitted, 0, "Fletcher-16 must catch every corruption");
    }

    #[test]
    fn retry_exhaustion_is_a_typed_error() {
        let hosts = 2;
        let inputs = gradients(hosts, 512, 31);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            port_fault_rate: 1.0,
            retry_limit: 2,
            seed: 3,
            ..CollectiveFaultConfig::off()
        };
        let mut cc = small_chunked(hosts, fcfg);
        let err = cc.all_reduce(&inputs, &ready).unwrap_err();
        assert!(matches!(err, CollectiveError::RetryExhausted { attempts: 3, .. }), "got {err:?}");
    }

    #[test]
    fn retirement_pressure_trips_the_ring_fallback() {
        let hosts = 3;
        let inputs = gradients(hosts, 512, 37);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            ras: RasConfig {
                media_faults_per_tick: 4.0,
                scrub_lines_per_tick: 64,
                spare_lines: 16,
                seed: 5,
            },
            ring_fallback_retired_lines: 2,
            ..CollectiveFaultConfig::off()
        };
        let mut cc = small_chunked(hosts, fcfg);
        let mut fell_back = false;
        for _ in 0..8 {
            let (result, _) = cc.all_reduce(&inputs, &ready).unwrap();
            assert_eq!(result, expected_sum(&inputs), "fallback must not change the sum");
            if cc.fault_stats().ring_fallbacks > 0 {
                fell_back = true;
                break;
            }
        }
        assert!(fell_back, "retirement pressure must trip rung 3");
        assert!(cc.ras_stats().lines_retired >= 2);
    }

    #[test]
    fn mid_op_snapshot_resumes_bit_identically() {
        let hosts = 4;
        let inputs = gradients(hosts, 512, 41);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            port_fault_rate: 0.25,
            seed: 7,
            ..CollectiveFaultConfig::off()
        };

        let mut golden = small_chunked(hosts, fcfg);
        let (want, want_out) = golden.all_reduce(&inputs, &ready).unwrap();

        for cut in [1u64, 5, 9, 13] {
            let mut cc = small_chunked(hosts, fcfg);
            let mut op = cc.begin_all_reduce(&inputs, &ready).unwrap();
            for _ in 0..cut {
                assert!(!cc.step_chunk(&mut op, None).unwrap());
            }
            // Serialize engine + in-flight op, drop both, rebuild.
            let engine_json = serde_json::to_string(&cc.snapshot()).unwrap();
            let op_json = serde_json::to_string(&op).unwrap();
            drop((cc, op));
            let snap: ChunkedCollectiveSnapshot = serde_json::from_str(&engine_json).unwrap();
            let mut cc = ChunkedCollective::restore(&snap).unwrap();
            let mut op: ChunkedOp = serde_json::from_str(&op_json).unwrap();
            while !cc.step_chunk(&mut op, None).unwrap() {}
            let (got, out) = op.into_result().unwrap();
            assert_eq!(got, want, "cut at chunk {cut}");
            assert_eq!(out, want_out, "cut at chunk {cut}");
            assert_eq!(cc.fault_stats(), golden.fault_stats(), "cut at chunk {cut}");
        }
    }
}
