//! Shared host-link arbiter for multi-device clusters.
//!
//! When N accelerators share one CPU-side memory pool, the per-device CXL
//! links stop being the only bottleneck: every gradient shard written into
//! the pool and every parameter writeback read out of it consumes the same
//! host DRAM bandwidth budget. [`HostLinkArbiter`] models that budget as a
//! single serial resource with **fair round-robin** grant ordering and
//! per-device accounting, plus a broadcast path for update-mode fan-out:
//! one CPU writeback read is charged *once* no matter how many giant
//! caches the coherence fabric replicates it into — the bandwidth the
//! update protocol saves over N independent `memcpy`s.
//!
//! The arbiter deliberately sits *beside* the per-device sessions, not
//! inside them: it never perturbs a device's own link/coherence timing, so
//! a one-device cluster stays bit-identical to the plain single-session
//! path (the correctness anchor of the cluster layer), while the shared
//! budget becomes the binding constraint as N grows.

use serde::{Deserialize, Reader, Serialize, Writer};
use teco_sim::{Bandwidth, Interval, SimTime};

/// Per-device host-link accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostAccount {
    /// Bytes this device moved through the host budget.
    pub bytes: u64,
    /// Grants this device received.
    pub grants: u64,
    /// Time the device's requests waited on the shared budget (start minus
    /// ready), i.e. contention visible only at N > 1.
    pub wait_ns: u64,
    /// Time the host budget spent serving this device.
    pub busy_ns: u64,
}

/// The shared host DRAM budget, arbitrated round-robin across devices.
#[derive(Debug, Clone)]
pub struct HostLinkArbiter {
    bw: Bandwidth,
    n: usize,
    /// Earliest time the budget can start the next grant.
    next_free: SimTime,
    /// Round-robin pointer: the device granted first in the next round.
    rr: usize,
    accounts: Vec<HostAccount>,
    /// Rounds arbitrated (one per cluster-step direction).
    rounds: u64,
    /// Broadcast (fan-out) charges: one host read serving every device.
    broadcast_grants: u64,
    /// Bytes read from the pool for broadcasts (charged once per round).
    broadcast_bytes: u64,
    /// Bytes the update-mode fan-out avoided reading, versus one
    /// independent host read per device.
    fanout_saved_bytes: u64,
    /// Device deliveries fanned out from broadcast reads.
    fanout_deliveries: u64,
    /// Per-device quarantine: a dead device's account takes no further
    /// grants until it is readmitted (device-loss fault domain).
    quarantined: Vec<bool>,
    /// Quarantine declarations so far (readmissions do not decrement).
    quarantine_events: u64,
    /// Fan-in charges: one pool-media read serving every reading host.
    fanin_grants: u64,
    /// Bytes the pool media served to fan-in reads (charged once).
    fanin_bytes: u64,
    /// Bytes the pool-read fan-in avoided re-reading from media, versus
    /// one independent media read per reading host.
    fanin_saved_bytes: u64,
    /// Host deliveries served from fan-in reads.
    fanin_deliveries: u64,
}

impl HostLinkArbiter {
    /// An arbiter over `n` devices sharing `bw` of host DRAM bandwidth.
    pub fn new(bw: Bandwidth, n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one device");
        HostLinkArbiter {
            bw,
            n,
            next_free: SimTime::ZERO,
            rr: 0,
            accounts: vec![HostAccount::default(); n],
            rounds: 0,
            broadcast_grants: 0,
            broadcast_bytes: 0,
            fanout_saved_bytes: 0,
            fanout_deliveries: 0,
            quarantined: vec![false; n],
            quarantine_events: 0,
            fanin_grants: 0,
            fanin_bytes: 0,
            fanin_saved_bytes: 0,
            fanin_deliveries: 0,
        }
    }

    /// Quarantine a dead device's account: its requests are skipped in
    /// every subsequent round until [`HostLinkArbiter::readmit_device`].
    /// Idempotent — re-quarantining a quarantined device records nothing.
    pub fn quarantine_device(&mut self, dev: usize) {
        assert!(dev < self.n, "device index out of range");
        if !self.quarantined[dev] {
            self.quarantined[dev] = true;
            self.quarantine_events += 1;
        }
    }

    /// Readmit a quarantined device: its account takes grants again.
    pub fn readmit_device(&mut self, dev: usize) {
        assert!(dev < self.n, "device index out of range");
        self.quarantined[dev] = false;
    }

    /// Is this device's account quarantined?
    pub fn is_quarantined(&self, dev: usize) -> bool {
        self.quarantined[dev]
    }

    /// Quarantine declarations so far.
    pub fn quarantine_events(&self) -> u64 {
        self.quarantine_events
    }

    /// Number of devices sharing the budget.
    pub fn devices(&self) -> usize {
        self.n
    }
    /// The shared bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bw
    }
    /// Per-device accounts.
    pub fn accounts(&self) -> &[HostAccount] {
        &self.accounts
    }
    /// When the budget drains completely.
    pub fn drained_at(&self) -> SimTime {
        self.next_free
    }
    /// Rounds arbitrated so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
    /// Broadcast charges so far.
    pub fn broadcast_grants(&self) -> u64 {
        self.broadcast_grants
    }
    /// Bytes the pool served to broadcasts.
    pub fn broadcast_bytes(&self) -> u64 {
        self.broadcast_bytes
    }
    /// Bytes fan-out saved versus per-device host reads.
    pub fn fanout_saved_bytes(&self) -> u64 {
        self.fanout_saved_bytes
    }
    /// Device deliveries produced by broadcast reads.
    pub fn fanout_deliveries(&self) -> u64 {
        self.fanout_deliveries
    }
    /// Fan-in charges so far.
    pub fn fanin_grants(&self) -> u64 {
        self.fanin_grants
    }
    /// Bytes the pool media served to fan-in reads.
    pub fn fanin_bytes(&self) -> u64 {
        self.fanin_bytes
    }
    /// Bytes pool-read fan-in saved versus per-reader media reads.
    pub fn fanin_saved_bytes(&self) -> u64 {
        self.fanin_saved_bytes
    }
    /// Host deliveries produced by fan-in reads.
    pub fn fanin_deliveries(&self) -> u64 {
        self.fanin_deliveries
    }

    /// Serve one grant on the shared budget. Unlike the per-device links,
    /// ready times across devices are not globally ordered, so the budget
    /// keeps its own `next_free` horizon instead of a monotonic server.
    fn grant(&mut self, dev: usize, ready: SimTime, bytes: u64) -> Interval {
        let start = ready.max(self.next_free);
        let end = start + self.bw.transfer_time(bytes);
        self.next_free = end;
        let acct = &mut self.accounts[dev];
        acct.bytes += bytes;
        acct.grants += 1;
        acct.wait_ns += (start - ready).as_ns();
        acct.busy_ns += (end - start).as_ns();
        Interval::new(start, end)
    }

    /// Arbitrate one round: every device submits its pending host-bound
    /// bytes (`requests[d]`, zero meaning no request) with its own ready
    /// time. Grants are issued in round-robin order starting at the
    /// rotating pointer, so no device can starve the others over repeated
    /// rounds. Returns the time the round's last grant completes
    /// (`drained_at` if the round was empty); callers needing per-device
    /// completion read it back from [`HostLinkArbiter::accounts`].
    ///
    /// Allocation-free: the round walks device indices in place.
    pub fn arbitrate_round(&mut self, ready: &[SimTime], requests: &[u64]) -> SimTime {
        self.round_impl(ready, requests, None)
    }

    /// [`HostLinkArbiter::arbitrate_round`], but additionally writes each
    /// device's grant completion time into `ends[d]` (its own ready time
    /// when it requested nothing or is quarantined). Cross-host collectives
    /// need the per-port completion, not just the round drain, to overlap
    /// the next phase per host.
    pub fn arbitrate_round_into(
        &mut self,
        ready: &[SimTime],
        requests: &[u64],
        ends: &mut [SimTime],
    ) -> SimTime {
        assert_eq!(ends.len(), self.n, "one end slot per device");
        self.round_impl(ready, requests, Some(ends))
    }

    fn round_impl(
        &mut self,
        ready: &[SimTime],
        requests: &[u64],
        mut ends: Option<&mut [SimTime]>,
    ) -> SimTime {
        assert_eq!(ready.len(), self.n, "one ready time per device");
        assert_eq!(requests.len(), self.n, "one request per device");
        self.rounds += 1;
        let first = self.rr;
        self.rr = (self.rr + 1) % self.n;
        let mut end = self.next_free;
        if let Some(ends) = ends.as_deref_mut() {
            ends.copy_from_slice(ready);
        }
        for k in 0..self.n {
            let dev = (first + k) % self.n;
            if requests[dev] == 0 || self.quarantined[dev] {
                continue;
            }
            let iv = self.grant(dev, ready[dev], requests[dev]);
            if let Some(ends) = ends.as_deref_mut() {
                ends[dev] = iv.end;
            }
            end = end.max(iv.end);
        }
        end
    }

    /// Charge a broadcast: the pooled CPU writeback is read from host DRAM
    /// **once** and the update-mode coherence fabric fans it out to
    /// `fanout` giant caches. Accounts the single read against the budget
    /// and records the bytes saved versus `fanout` independent reads.
    pub fn charge_broadcast(&mut self, ready: SimTime, bytes: u64, fanout: usize) -> Interval {
        assert!(fanout >= 1 && fanout <= self.n, "fanout must cover 1..=n devices");
        let start = ready.max(self.next_free);
        let end = start + self.bw.transfer_time(bytes);
        self.next_free = end;
        self.broadcast_grants += 1;
        self.broadcast_bytes += bytes;
        self.fanout_deliveries += fanout as u64;
        self.fanout_saved_bytes += bytes * (fanout as u64 - 1);
        Interval::new(start, end)
    }

    /// Charge a pool-read fan-in: one staged region is read by `readers`
    /// hosts, but the pool media serves it **once** — the switched pool
    /// multicasts the same DRAM read to every requesting port. The dual of
    /// [`HostLinkArbiter::charge_broadcast`]: fan-out pushes one write to
    /// many devices, fan-in satisfies many reads from one media access.
    pub fn charge_fanin(&mut self, ready: SimTime, bytes: u64, readers: usize) -> Interval {
        assert!(readers >= 1, "fan-in needs at least one reader");
        let start = ready.max(self.next_free);
        let end = start + self.bw.transfer_time(bytes);
        self.next_free = end;
        self.fanin_grants += 1;
        self.fanin_bytes += bytes;
        self.fanin_deliveries += readers as u64;
        // A single reader (H = 2 collectives) saves exactly zero bytes —
        // saturating so the accounting can never wrap however the caller
        // computes `readers`.
        self.fanin_saved_bytes += bytes * (readers as u64).saturating_sub(1);
        Interval::new(start, end)
    }

    /// Checkpoint image of the arbiter.
    pub fn snapshot(&self) -> HostLinkArbiterSnapshot {
        HostLinkArbiterSnapshot {
            bw: self.bw,
            n: self.n as u64,
            next_free: self.next_free,
            rr: self.rr as u64,
            accounts: self.accounts.clone(),
            rounds: self.rounds,
            broadcast_grants: self.broadcast_grants,
            broadcast_bytes: self.broadcast_bytes,
            fanout_saved_bytes: self.fanout_saved_bytes,
            fanout_deliveries: self.fanout_deliveries,
            quarantined: self.quarantined.clone(),
            quarantine_events: self.quarantine_events,
            fanin_grants: self.fanin_grants,
            fanin_bytes: self.fanin_bytes,
            fanin_saved_bytes: self.fanin_saved_bytes,
            fanin_deliveries: self.fanin_deliveries,
        }
    }

    /// Rebuild an arbiter from a snapshot; subsequent rounds grant
    /// identically to the original.
    pub fn restore(s: &HostLinkArbiterSnapshot) -> Self {
        assert!(s.n > 0, "arbiter needs at least one device");
        let quarantined = if s.quarantined.is_empty() {
            vec![false; s.n as usize]
        } else {
            assert_eq!(s.quarantined.len(), s.n as usize, "one quarantine flag per device");
            s.quarantined.clone()
        };
        HostLinkArbiter {
            bw: s.bw,
            n: s.n as usize,
            next_free: s.next_free,
            rr: s.rr as usize,
            accounts: s.accounts.clone(),
            rounds: s.rounds,
            broadcast_grants: s.broadcast_grants,
            broadcast_bytes: s.broadcast_bytes,
            fanout_saved_bytes: s.fanout_saved_bytes,
            fanout_deliveries: s.fanout_deliveries,
            quarantined,
            quarantine_events: s.quarantine_events,
            fanin_grants: s.fanin_grants,
            fanin_bytes: s.fanin_bytes,
            fanin_saved_bytes: s.fanin_saved_bytes,
            fanin_deliveries: s.fanin_deliveries,
        }
    }
}

/// Serializable image of a [`HostLinkArbiter`].
#[derive(Debug, Clone, PartialEq)]
pub struct HostLinkArbiterSnapshot {
    /// Shared bandwidth.
    pub bw: Bandwidth,
    /// Device count.
    pub n: u64,
    /// Earliest start for the next grant.
    pub next_free: SimTime,
    /// Round-robin pointer.
    pub rr: u64,
    /// Per-device accounts.
    pub accounts: Vec<HostAccount>,
    /// Rounds arbitrated.
    pub rounds: u64,
    /// Broadcast charges.
    pub broadcast_grants: u64,
    /// Broadcast bytes served.
    pub broadcast_bytes: u64,
    /// Bytes fan-out saved.
    pub fanout_saved_bytes: u64,
    /// Fan-out deliveries.
    pub fanout_deliveries: u64,
    /// Per-device quarantine flags (all-clear in pre-fault-domain
    /// snapshots).
    pub quarantined: Vec<bool>,
    /// Quarantine declarations.
    pub quarantine_events: u64,
    /// Fan-in charges (zero in pre-collective snapshots).
    pub fanin_grants: u64,
    /// Fan-in bytes served by the pool media.
    pub fanin_bytes: u64,
    /// Bytes fan-in saved versus per-reader media reads.
    pub fanin_saved_bytes: u64,
    /// Fan-in deliveries.
    pub fanin_deliveries: u64,
}

// Hand-written (de)serialization: the vendored derive has no field
// attributes, and the quarantine/fan-in fields must be omitted while
// all-clear/zero so pre-fault-domain and pre-collective snapshot bytes
// are unchanged.
impl Serialize for HostLinkArbiterSnapshot {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.field("bw", &self.bw);
        w.field("n", &self.n);
        w.field("next_free", &self.next_free);
        w.field("rr", &self.rr);
        w.field("accounts", &self.accounts);
        w.field("rounds", &self.rounds);
        w.field("broadcast_grants", &self.broadcast_grants);
        w.field("broadcast_bytes", &self.broadcast_bytes);
        w.field("fanout_saved_bytes", &self.fanout_saved_bytes);
        w.field("fanout_deliveries", &self.fanout_deliveries);
        if self.quarantine_events != 0 || self.quarantined.iter().any(|&q| q) {
            w.field("quarantined", &self.quarantined);
            w.field("quarantine_events", &self.quarantine_events);
        }
        if self.fanin_grants != 0 {
            w.field("fanin_grants", &self.fanin_grants);
            w.field("fanin_bytes", &self.fanin_bytes);
            w.field("fanin_saved_bytes", &self.fanin_saved_bytes);
            w.field("fanin_deliveries", &self.fanin_deliveries);
        }
        w.end_object();
    }
}

impl Deserialize for HostLinkArbiterSnapshot {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let (mut bw, mut n, mut next_free, mut rr, mut accounts) = (None, None, None, None, None);
        let (mut rounds, mut broadcast_grants, mut broadcast_bytes) = (None, None, None);
        let (mut fanout_saved_bytes, mut fanout_deliveries) = (None, None);
        let (mut quarantined, mut quarantine_events) = (None, None);
        let (mut fanin_grants, mut fanin_bytes) = (None, None);
        let (mut fanin_saved_bytes, mut fanin_deliveries) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "bw" => r.field(&mut bw)?,
                "n" => r.field(&mut n)?,
                "next_free" => r.field(&mut next_free)?,
                "rr" => r.field(&mut rr)?,
                "accounts" => r.field(&mut accounts)?,
                "rounds" => r.field(&mut rounds)?,
                "broadcast_grants" => r.field(&mut broadcast_grants)?,
                "broadcast_bytes" => r.field(&mut broadcast_bytes)?,
                "fanout_saved_bytes" => r.field(&mut fanout_saved_bytes)?,
                "fanout_deliveries" => r.field(&mut fanout_deliveries)?,
                "quarantined" => r.field(&mut quarantined)?,
                "quarantine_events" => r.field(&mut quarantine_events)?,
                "fanin_grants" => r.field(&mut fanin_grants)?,
                "fanin_bytes" => r.field(&mut fanin_bytes)?,
                "fanin_saved_bytes" => r.field(&mut fanin_saved_bytes)?,
                "fanin_deliveries" => r.field(&mut fanin_deliveries)?,
                _ => r.skip_value()?,
            }
        }
        const TY: &str = "HostLinkArbiterSnapshot";
        let n: u64 = Reader::required(n, "n", TY)?;
        let accounts: Vec<HostAccount> = Reader::required(accounts, "accounts", TY)?;
        // An absent flag list is all-clear, one flag per device. The
        // device count is checked against the accounts read, so hostile
        // input cannot size the default.
        let quarantined = match quarantined {
            Some(q) => q,
            None if accounts.len() as u64 == n => vec![false; accounts.len()],
            None => {
                return Err(serde::Error::custom(format!(
                    "{TY}: n = {n} but {} accounts",
                    accounts.len()
                )))
            }
        };
        Ok(HostLinkArbiterSnapshot {
            bw: Reader::required(bw, "bw", TY)?,
            n,
            next_free: Reader::required(next_free, "next_free", TY)?,
            rr: Reader::required(rr, "rr", TY)?,
            accounts,
            rounds: Reader::required(rounds, "rounds", TY)?,
            broadcast_grants: Reader::required(broadcast_grants, "broadcast_grants", TY)?,
            broadcast_bytes: Reader::required(broadcast_bytes, "broadcast_bytes", TY)?,
            fanout_saved_bytes: Reader::required(fanout_saved_bytes, "fanout_saved_bytes", TY)?,
            fanout_deliveries: Reader::required(fanout_deliveries, "fanout_deliveries", TY)?,
            quarantined,
            quarantine_events: quarantine_events.unwrap_or(0),
            fanin_grants: fanin_grants.unwrap_or(0),
            fanin_bytes: fanin_bytes.unwrap_or(0),
            fanin_saved_bytes: fanin_saved_bytes.unwrap_or(0),
            fanin_deliveries: fanin_deliveries.unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(n: usize) -> HostLinkArbiter {
        // 64 GB/s → a 64-byte line takes 1 ns; clean numbers below.
        HostLinkArbiter::new(Bandwidth::from_gb_per_sec(64.0), n)
    }

    #[test]
    fn single_device_round_serves_at_ready() {
        let mut a = arb(1);
        let end = a.arbitrate_round(&[SimTime::from_ns(10)], &[64]);
        assert_eq!(end, SimTime::from_ns(11));
        assert_eq!(a.accounts()[0].wait_ns, 0);
        assert_eq!(a.accounts()[0].bytes, 64);
    }

    #[test]
    fn contending_round_serializes_and_charges_wait() {
        let mut a = arb(2);
        let ready = [SimTime::ZERO, SimTime::ZERO];
        let end = a.arbitrate_round(&ready, &[64, 64]);
        // First round starts at device 0: it waits nothing, device 1 waits
        // behind it.
        assert_eq!(end, SimTime::from_ns(2));
        assert_eq!(a.accounts()[0].wait_ns, 0);
        assert_eq!(a.accounts()[1].wait_ns, 1);
    }

    #[test]
    fn round_robin_rotates_first_grant() {
        let mut a = arb(2);
        a.arbitrate_round(&[SimTime::ZERO; 2], &[64, 64]);
        let w0_round1 = a.accounts()[0].wait_ns;
        // Second round starts at device 1; with both ready at the drained
        // horizon, device 0 now waits.
        let t = a.drained_at();
        a.arbitrate_round(&[t, t], &[64, 64]);
        assert_eq!(w0_round1, 0);
        assert_eq!(a.accounts()[0].wait_ns, 1, "device 0 waits in round 2");
        assert_eq!(a.accounts()[1].wait_ns, 1, "device 1 waited only in round 1");
        assert_eq!(a.rounds(), 2);
    }

    #[test]
    fn zero_byte_requests_are_skipped() {
        let mut a = arb(3);
        let end = a.arbitrate_round(&[SimTime::ZERO; 3], &[0, 64, 0]);
        assert_eq!(end, SimTime::from_ns(1));
        assert_eq!(a.accounts()[0].grants, 0);
        assert_eq!(a.accounts()[1].grants, 1);
        assert_eq!(a.accounts()[2].grants, 0);
    }

    #[test]
    fn broadcast_charges_once_and_records_savings() {
        let mut a = arb(4);
        let iv = a.charge_broadcast(SimTime::ZERO, 128, 4);
        assert_eq!(iv.end, SimTime::from_ns(2));
        assert_eq!(a.broadcast_bytes(), 128);
        assert_eq!(a.fanout_deliveries(), 4);
        assert_eq!(a.fanout_saved_bytes(), 128 * 3);
        // Per-device accounts untouched: the read is the pool's, not any
        // one device's.
        assert!(a.accounts().iter().all(|acct| acct.bytes == 0));
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let mut a = arb(3);
        a.arbitrate_round(&[SimTime::ZERO; 3], &[64, 128, 64]);
        a.charge_broadcast(a.drained_at(), 256, 3);
        let snap = a.snapshot();
        let mut b = HostLinkArbiter::restore(&snap);
        let t = a.drained_at();
        let ea = a.arbitrate_round(&[t, t, t], &[32, 32, 32]);
        let eb = b.arbitrate_round(&[t, t, t], &[32, 32, 32]);
        assert_eq!(ea, eb);
        assert_eq!(a.accounts(), b.accounts());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn quarantined_account_takes_no_grants_until_readmitted() {
        let mut a = arb(3);
        a.quarantine_device(1);
        a.quarantine_device(1); // idempotent
        assert!(a.is_quarantined(1));
        assert_eq!(a.quarantine_events(), 1);
        // A stale request from the dead device is skipped even if nonzero.
        let end = a.arbitrate_round(&[SimTime::ZERO; 3], &[64, 64, 64]);
        assert_eq!(end, SimTime::from_ns(2), "only two grants served");
        assert_eq!(a.accounts()[1].grants, 0);
        assert_eq!(a.accounts()[0].grants, 1);
        assert_eq!(a.accounts()[2].grants, 1);
        // Readmission restores service.
        a.readmit_device(1);
        assert!(!a.is_quarantined(1));
        let t = a.drained_at();
        a.arbitrate_round(&[t; 3], &[0, 64, 0]);
        assert_eq!(a.accounts()[1].grants, 1);
        // Quarantine state survives a snapshot roundtrip.
        a.quarantine_device(2);
        let b = HostLinkArbiter::restore(&a.snapshot());
        assert!(b.is_quarantined(2) && !b.is_quarantined(1));
        assert_eq!(b.quarantine_events(), 2);
    }

    #[test]
    fn single_reader_fanin_saves_exactly_zero_and_round_trips() {
        // The H = 2 collective edge case: one reader per staged shard.
        // The grant must be recorded, the saved-bytes must be exactly
        // zero (not wrapped), and the counters must survive the
        // conditional-field JSON round trip.
        let mut a = arb(2);
        a.charge_fanin(SimTime::ZERO, 128, 1);
        a.charge_fanin(a.drained_at(), 128, 1);
        assert_eq!(a.fanin_grants(), 2);
        assert_eq!(a.fanin_bytes(), 256);
        assert_eq!(a.fanin_deliveries(), 2);
        assert_eq!(a.fanin_saved_bytes(), 0, "one reader saves nothing");
        let snap = a.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("fanin_grants"), "grants>0 must keep the fan-in fields");
        let back: HostLinkArbiterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let b = HostLinkArbiter::restore(&back);
        assert_eq!(b.fanin_saved_bytes(), 0);
        assert_eq!(b.fanin_grants(), 2);
        assert_eq!(b.snapshot(), snap);
    }

    #[test]
    fn round_into_reports_per_device_ends() {
        let mut a = arb(3);
        let ready = [SimTime::ZERO, SimTime::from_ns(5), SimTime::ZERO];
        let mut ends = [SimTime::MAX; 3];
        let end = a.arbitrate_round_into(&ready, &[64, 64, 0], &mut ends);
        // Device 0 granted first (1 ns), device 1 not ready until 5 ns so
        // it runs 5..6; the idle device keeps its own ready time.
        assert_eq!(ends[0], SimTime::from_ns(1));
        assert_eq!(ends[1], SimTime::from_ns(6));
        assert_eq!(ends[2], SimTime::ZERO);
        assert_eq!(end, SimTime::from_ns(6));
        // The `_into` variant must arbitrate exactly like the plain round.
        let mut b = arb(3);
        let plain = b.arbitrate_round(&ready, &[64, 64, 0]);
        assert_eq!(end, plain);
        assert_eq!(a.accounts(), b.accounts());
    }

    #[test]
    fn fanin_charges_media_once_and_records_savings() {
        let mut a = arb(4);
        let iv = a.charge_fanin(SimTime::ZERO, 128, 3);
        assert_eq!(iv.end, SimTime::from_ns(2));
        assert_eq!(a.fanin_grants(), 1);
        assert_eq!(a.fanin_bytes(), 128);
        assert_eq!(a.fanin_deliveries(), 3);
        assert_eq!(a.fanin_saved_bytes(), 128 * 2);
        // Like broadcasts, the media read belongs to the pool, not to any
        // one host's account.
        assert!(a.accounts().iter().all(|acct| acct.bytes == 0));
        // Fan-in state survives a snapshot roundtrip.
        let b = HostLinkArbiter::restore(&a.snapshot());
        assert_eq!(b.fanin_saved_bytes(), 256);
        assert_eq!(b.fanin_deliveries(), 3);
    }

    #[test]
    fn fanin_free_snapshot_bytes_match_pre_collective_layout() {
        // An arbiter that never served a fan-in must serialize without the
        // fan-in fields, so pre-collective snapshot bytes are unchanged.
        let mut a = arb(2);
        a.arbitrate_round(&[SimTime::ZERO; 2], &[64, 64]);
        let json = serde_json::to_string(&a.snapshot()).unwrap();
        assert!(!json.contains("fanin"), "fan-in fields leaked: {json}");
        a.charge_fanin(SimTime::ZERO, 64, 2);
        let json = serde_json::to_string(&a.snapshot()).unwrap();
        assert!(json.contains("fanin_saved_bytes"));
        let back: HostLinkArbiterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a.snapshot());
    }

    #[test]
    fn unused_devices_never_starve_active_ones() {
        // A device that never requests must not delay grants.
        let mut a = arb(4);
        for r in 0..8u64 {
            let t = a.drained_at();
            a.arbitrate_round(&[t; 4], &[64, 0, 0, 0]);
            assert_eq!(a.accounts()[0].grants, r + 1);
            assert_eq!(a.accounts()[0].wait_ns, 0);
        }
    }
}
