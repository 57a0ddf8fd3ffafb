//! Deterministic link-level fault injection (CRC errors, transient stalls,
//! poisoned data) and the statistics the recovery machinery reports.
//!
//! Real CXL links are not perfect: every 68-byte flit carries a CRC, the
//! link layer keeps a bounded replay buffer and retransmits on nak, and
//! data known to be corrupt is delivered *poisoned* so the receiver can
//! contain it instead of consuming garbage. This module models those
//! mechanisms as a seeded, reproducible perturbation source: a
//! [`FaultInjector`] forks one [`teco_sim::SimRng`] stream per injection
//! point (each link direction, plus the DBA payload path), so the fault
//! schedule is a pure function of `(FaultConfig, traffic order)` — adding
//! draws at one injection point never perturbs another, and identical
//! seed + config reproduce the schedule byte for byte.
//!
//! The model is **off by default**: `FaultConfig::off()` has every rate at
//! zero, [`FaultConfig::enabled`] is false, and the link skips the injector
//! entirely — zero RNG draws, zero timing or traffic difference from a
//! build without this module.

use serde::{Deserialize, Serialize};
use teco_sim::{SimRng, SimTime};

/// Fault-injection configuration, carried inside
/// [`crate::config::CxlConfig`]. All rates are per-transfer (or per-line
/// for the DBA payload path) Bernoulli probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a transfer's flit stream takes a CRC error (triggering
    /// the ack/nak replay machinery). Each replay re-fails independently
    /// with the same probability, up to `retry_limit`.
    pub crc_error_rate: f64,
    /// Probability a transfer hits a transient link stall (e.g. a credit
    /// starvation or retrain window) of `stall_ns`.
    pub stall_rate: f64,
    /// Duration of one transient stall, in nanoseconds.
    pub stall_ns: u64,
    /// Probability a delivered data payload arrives poisoned (corrupt but
    /// flagged, per the CXL poison semantics).
    pub poison_rate: f64,
    /// Probability one DBA per-line payload is silently corrupted in the
    /// aggregation pipeline — caught by the per-line checksum, not the
    /// link CRC.
    pub dba_checksum_error_rate: f64,
    /// Ack/nak round-trip latency charged per replay attempt, in
    /// nanoseconds.
    pub retry_latency_ns: u64,
    /// Maximum replay attempts before the link gives up on a transfer
    /// (`LinkError::RetryExhausted`).
    pub retry_limit: u32,
    /// `CXLFENCE` timeout in nanoseconds; 0 disables the timeout (legacy
    /// unbounded drain).
    pub fence_timeout_ns: u64,
    /// Seed for the injector's RNG streams.
    pub seed: u64,
}

impl FaultConfig {
    /// The fault model fully off: every rate zero, no timeout. This is the
    /// default inside `CxlConfig::paper()`, so existing configurations are
    /// bit-identical to pre-fault-model behavior.
    pub fn off() -> Self {
        FaultConfig {
            crc_error_rate: 0.0,
            stall_rate: 0.0,
            stall_ns: 0,
            poison_rate: 0.0,
            dba_checksum_error_rate: 0.0,
            retry_latency_ns: 100,
            retry_limit: 8,
            fence_timeout_ns: 0,
            seed: 0,
        }
    }

    /// Is any injection rate nonzero? When false the link never constructs
    /// an injector and never draws from the RNG.
    pub fn enabled(&self) -> bool {
        self.crc_error_rate > 0.0
            || self.stall_rate > 0.0
            || self.poison_rate > 0.0
            || self.dba_checksum_error_rate > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The XOR mask an aggregation-pipeline fault flips into one payload byte.
pub const PAYLOAD_FLIP: u8 = 0x5A;

/// The fault decision for one link transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferFault {
    /// Replay attempts consumed by CRC errors (0 = clean first try).
    pub retries: u32,
    /// The retry limit was hit; the transfer fails.
    pub exhausted: bool,
    /// Transient-stall delay added to the transfer (ZERO = none).
    pub stall: SimTime,
    /// The delivered payload is poisoned.
    pub poisoned: bool,
}

impl TransferFault {
    /// No fault: the transfer goes through on its first try.
    pub const CLEAN: TransferFault =
        TransferFault { retries: 0, exhausted: false, stall: SimTime::ZERO, poisoned: false };

    /// Does the transfer go through untouched?
    pub fn is_clean(&self) -> bool {
        *self == Self::CLEAN
    }
}

/// Seeded per-injection-point fault source. One forked RNG stream per
/// link direction plus one for the DBA payload path keeps the schedules
/// decorrelated and independently reproducible.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    to_device: SimRng,
    to_host: SimRng,
    payload: SimRng,
}

impl FaultInjector {
    /// Build from a configuration (streams are forked from `cfg.seed`).
    pub fn new(cfg: FaultConfig) -> Self {
        let mut root = SimRng::seed_from_u64(cfg.seed);
        FaultInjector {
            to_device: root.fork("fault.link.to_device"),
            to_host: root.fork("fault.link.to_host"),
            payload: root.fork("fault.dba.payload"),
            cfg,
        }
    }

    /// The configuration this injector runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decide the fault outcome for one transfer in direction `d`
    /// (`to_device = true` for host→device).
    pub fn transfer_fault(&mut self, to_device: bool) -> TransferFault {
        let cfg = self.cfg;
        let rng = if to_device { &mut self.to_device } else { &mut self.to_host };
        let mut retries = 0u32;
        let mut exhausted = false;
        if cfg.crc_error_rate > 0.0 {
            while rng.bernoulli(cfg.crc_error_rate) {
                retries += 1;
                if retries >= cfg.retry_limit.max(1) {
                    exhausted = true;
                    break;
                }
            }
        }
        let stall = if cfg.stall_rate > 0.0 && rng.bernoulli(cfg.stall_rate) {
            SimTime::from_ns(cfg.stall_ns)
        } else {
            SimTime::ZERO
        };
        let poisoned = cfg.poison_rate > 0.0 && rng.bernoulli(cfg.poison_rate);
        TransferFault { retries, exhausted, stall, poisoned }
    }

    /// Decide whether the next DBA per-line payload, `len` bytes long, is
    /// silently corrupted in the aggregation pipeline: the index of the
    /// byte a fault flips by XOR with [`PAYLOAD_FLIP`], if any. A flipped
    /// byte is always detected by the Fletcher-16 [`line_checksum`].
    pub fn payload_fault(&mut self, len: usize) -> Option<usize> {
        if self.cfg.dba_checksum_error_rate <= 0.0 || len == 0 {
            return None;
        }
        if !self.payload.bernoulli(self.cfg.dba_checksum_error_rate) {
            return None;
        }
        Some(self.payload.index(len))
    }

    /// Checkpoint image: the config plus the raw state of every forked
    /// stream. Restoring resumes each fault schedule mid-stream, so a run
    /// killed between two CRC retries replays the remaining faults exactly.
    pub fn snapshot(&self) -> FaultInjectorSnapshot {
        FaultInjectorSnapshot {
            cfg: self.cfg,
            to_device: self.to_device.state(),
            to_host: self.to_host.state(),
            payload: self.payload.state(),
        }
    }

    /// Rebuild an injector from a snapshot (streams resume, not restart).
    pub fn restore(s: &FaultInjectorSnapshot) -> Self {
        FaultInjector {
            cfg: s.cfg,
            to_device: SimRng::from_state(s.to_device),
            to_host: SimRng::from_state(s.to_host),
            payload: SimRng::from_state(s.payload),
        }
    }
}

/// Serializable image of a [`FaultInjector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjectorSnapshot {
    /// The fault configuration.
    pub cfg: FaultConfig,
    /// xoshiro256++ state of the host→device stream.
    pub to_device: [u64; 4],
    /// xoshiro256++ state of the device→host stream.
    pub to_host: [u64; 4],
    /// xoshiro256++ state of the DBA-payload stream.
    pub payload: [u64; 4],
}

/// Fletcher-16 over a payload — the per-line DBA checksum carried beside
/// each aggregated payload. Detects all single-byte corruptions (which is
/// exactly what [`FaultInjector::payload_fault`] injects).
///
/// This is the one shared implementation: the Aggregator's fused
/// checksum path (`Aggregator::aggregate_into_checksummed`) and the link's
/// verification both call it. The `% 255` folds are deferred across a
/// block instead of paid twice per byte: with both sums entering a block
/// below 255, after `m` bytes `a ≤ 254 + 255·m` and
/// `b ≤ 254 + 254·m + 255·m·(m+1)/2`, which stays under `u32::MAX` for
/// `m = 4096`.
pub fn line_checksum(payload: &[u8]) -> u16 {
    const BLOCK: usize = 4096;
    let (mut a, mut b) = (0u32, 0u32);
    for block in payload.chunks(BLOCK) {
        for &x in block {
            a += x as u32;
            b += a;
        }
        a %= 255;
        b %= 255;
    }
    ((b << 8) | a) as u16
}

/// Fault and recovery statistics, split across the layers that observe
/// them: the link counts injection/replay events; the session counts the
/// degradation-ladder rungs. [`FaultStats::merge`] combines the two views
/// (the field sets are disjoint) into the run's recovery report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transfers that took at least one CRC error.
    pub crc_errors: u64,
    /// Total replay attempts across all transfers.
    pub retries: u64,
    /// Transfers abandoned after `retry_limit` replays.
    pub replay_exhausted: u64,
    /// Transient link stalls injected.
    pub stalls: u64,
    /// Total stall time injected, in nanoseconds.
    pub stall_ns: u64,
    /// Extra wire + ack/nak time spent on replays, in nanoseconds.
    pub replay_ns: u64,
    /// Data payloads delivered poisoned.
    pub poisoned_lines: u64,
    /// Lines quarantined in the giant cache on poison arrival.
    pub quarantined_lines: u64,
    /// DBA per-line checksum mismatches detected.
    pub checksum_mismatches: u64,
    /// Rung-2 recoveries: payloads re-sent as full 64-byte lines.
    pub full_line_retries: u64,
    /// Rung-3 events: regions downgraded to the software-memcpy baseline.
    pub degraded_regions: u64,
    /// `CXLFENCE` calls that hit the configured timeout.
    pub fence_timeouts: u64,
}

impl FaultStats {
    /// Field-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.crc_errors += other.crc_errors;
        self.retries += other.retries;
        self.replay_exhausted += other.replay_exhausted;
        self.stalls += other.stalls;
        self.stall_ns += other.stall_ns;
        self.replay_ns += other.replay_ns;
        self.poisoned_lines += other.poisoned_lines;
        self.quarantined_lines += other.quarantined_lines;
        self.checksum_mismatches += other.checksum_mismatches;
        self.full_line_retries += other.full_line_retries;
        self.degraded_regions += other.degraded_regions;
        self.fence_timeouts += other.fence_timeouts;
    }

    /// Any fault event recorded at all?
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_is_disabled_and_default() {
        let c = FaultConfig::off();
        assert!(!c.enabled());
        assert_eq!(c, FaultConfig::default());
        assert_eq!(c.retry_limit, 8);
    }

    #[test]
    fn any_rate_enables() {
        for f in [
            FaultConfig { crc_error_rate: 0.1, ..FaultConfig::off() },
            FaultConfig { stall_rate: 0.1, ..FaultConfig::off() },
            FaultConfig { poison_rate: 0.1, ..FaultConfig::off() },
            FaultConfig { dba_checksum_error_rate: 0.1, ..FaultConfig::off() },
        ] {
            assert!(f.enabled());
        }
        // A fence timeout alone does not need the injector.
        let f = FaultConfig { fence_timeout_ns: 1000, ..FaultConfig::off() };
        assert!(!f.enabled());
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let cfg = FaultConfig {
            crc_error_rate: 0.3,
            stall_rate: 0.2,
            stall_ns: 50,
            poison_rate: 0.1,
            seed: 42,
            ..FaultConfig::off()
        };
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        for i in 0..500 {
            assert_eq!(a.transfer_fault(i % 2 == 0), b.transfer_fault(i % 2 == 0), "draw {i}");
        }
    }

    #[test]
    fn directions_draw_from_independent_streams() {
        let cfg = FaultConfig { crc_error_rate: 0.5, seed: 7, ..FaultConfig::off() };
        // Interleaving order must not matter per-direction.
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        let down_a: Vec<_> = (0..50).map(|_| a.transfer_fault(true)).collect();
        let _up_a: Vec<_> = (0..50).map(|_| a.transfer_fault(false)).collect();
        let mut down_b = Vec::new();
        for _ in 0..50 {
            down_b.push(b.transfer_fault(true));
            b.transfer_fault(false);
        }
        assert_eq!(down_a, down_b);
    }

    #[test]
    fn retry_limit_bounds_replays() {
        let cfg =
            FaultConfig { crc_error_rate: 1.0, retry_limit: 3, seed: 1, ..FaultConfig::off() };
        let mut inj = FaultInjector::new(cfg);
        let f = inj.transfer_fault(true);
        assert_eq!(f.retries, 3);
        assert!(f.exhausted);
    }

    #[test]
    fn corrupt_payload_is_detected_by_checksum() {
        let cfg = FaultConfig { dba_checksum_error_rate: 1.0, seed: 9, ..FaultConfig::off() };
        let mut inj = FaultInjector::new(cfg);
        for len in [1usize, 16, 32, 64] {
            let mut p = vec![0xA5u8; len];
            let before = line_checksum(&p);
            let at = inj.payload_fault(len).expect("rate 1.0 always corrupts");
            p[at] ^= PAYLOAD_FLIP;
            assert_ne!(line_checksum(&p), before, "len {len}");
        }
        // Zero rate never draws or flips.
        let mut off = FaultInjector::new(FaultConfig::off());
        assert_eq!(off.payload_fault(32), None);
        assert_eq!(off.snapshot(), FaultInjector::new(FaultConfig::off()).snapshot());
    }

    #[test]
    fn fletcher16_known_vector() {
        // Classic test vector: "abcde" → 0xC8F0.
        assert_eq!(line_checksum(b"abcde"), 0xC8F0);
        assert_eq!(line_checksum(&[]), 0);
    }

    #[test]
    fn fletcher16_deferred_fold_matches_per_byte_reference() {
        // The shipped implementation defers `% 255` across 4096-byte
        // blocks; it must agree with the textbook per-byte form at every
        // length around the block boundary (and well past it).
        let naive = |p: &[u8]| -> u16 {
            let (mut a, mut b) = (0u32, 0u32);
            for &x in p {
                a = (a + x as u32) % 255;
                b = (b + a) % 255;
            }
            ((b << 8) | a) as u16
        };
        let mut buf = Vec::new();
        let mut state = 0x243F_6A88u32;
        for _ in 0..3 * 4096 + 7 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            buf.push((state >> 24) as u8);
        }
        for len in [0usize, 1, 5, 32, 64, 4095, 4096, 4097, 8192, buf.len()] {
            assert_eq!(line_checksum(&buf[..len]), naive(&buf[..len]), "len {len}");
        }
        // Worst-case bytes (all 0xFF) cannot overflow the deferred sums.
        let ff = vec![0xFFu8; 2 * 4096 + 1];
        assert_eq!(line_checksum(&ff), naive(&ff));
    }

    #[test]
    fn stats_merge_is_fieldwise_sum() {
        let mut a = FaultStats { crc_errors: 1, retries: 2, ..FaultStats::default() };
        let b = FaultStats { crc_errors: 3, fence_timeouts: 4, ..FaultStats::default() };
        a.merge(&b);
        assert_eq!(a.crc_errors, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.fence_timeouts, 4);
        assert!(a.any());
        assert!(!FaultStats::default().any());
    }
}
