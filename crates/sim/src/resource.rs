//! Queueing-theory building blocks used by the interconnect and compute
//! models: a FIFO serial server (a link is a serial bus — the paper's CXL
//! emulator streams cache lines "one after another") and a bounded pending
//! queue (the 128-entry CXL controller queue) that can take a whole run of
//! equal jobs in closed form.

use crate::time::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A half-open busy interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: SimTime,
    pub end: SimTime,
}

impl Interval {
    /// Construct, asserting `start <= end`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "inverted interval {start}..{end}");
        Interval { start, end }
    }
    /// Interval length.
    #[inline]
    pub fn len(&self) -> SimTime {
        self.end - self.start
    }
    /// True when the interval is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A work-conserving FIFO server with a fixed byte rate.
///
/// Jobs are submitted in nondecreasing ready-time order (the simulation is
/// causal) and each occupies the server for `bytes / rate`, starting no
/// earlier than both its ready time and the completion of the previous job.
#[derive(Debug, Clone)]
pub struct SerialServer {
    rate: Bandwidth,
    next_free: SimTime,
    busy: SimTime,
    bytes_served: u64,
    jobs: u64,
    last_ready: SimTime,
    /// The last `(bytes, service time)` pair priced: a stream of equal
    /// jobs pays the floating-point division in [`Bandwidth::transfer_time`]
    /// once. Derived from `rate` alone, so it is never captured.
    priced: (u64, SimTime),
}

impl SerialServer {
    /// A server draining at `rate`.
    pub fn new(rate: Bandwidth) -> Self {
        SerialServer {
            rate,
            next_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            bytes_served: 0,
            jobs: 0,
            last_ready: SimTime::ZERO,
            priced: (0, SimTime::ZERO),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Submit a job of `bytes` that becomes ready at `ready`; returns the
    /// service interval. An extra fixed `latency` (e.g. the 1 ns Aggregator
    /// delay) can be folded in by the caller via [`SerialServer::submit_with_latency`].
    pub fn submit(&mut self, ready: SimTime, bytes: u64) -> Interval {
        self.submit_with_latency(ready, bytes, SimTime::ZERO)
    }

    /// Like [`submit`](Self::submit) but the job additionally pays a fixed
    /// pipeline `latency` before its bytes start flowing. Because service is
    /// FIFO and pipelined, the latency delays only this job's start, not the
    /// server's availability for subsequent bytes.
    pub fn submit_with_latency(
        &mut self,
        ready: SimTime,
        bytes: u64,
        latency: SimTime,
    ) -> Interval {
        let service = self.service_time(bytes);
        self.serve(ready, bytes, service, latency)
    }

    /// Service time of a `bytes` job at this server's rate.
    fn service_time(&mut self, bytes: u64) -> SimTime {
        if self.priced.0 != bytes {
            self.priced = (bytes, self.rate.transfer_time(bytes));
        }
        self.priced.1
    }

    /// Serve one job whose service time the caller already priced.
    fn serve(
        &mut self,
        ready: SimTime,
        bytes: u64,
        service: SimTime,
        latency: SimTime,
    ) -> Interval {
        assert!(
            ready >= self.last_ready,
            "SerialServer requires nondecreasing ready times ({ready} < {})",
            self.last_ready
        );
        self.last_ready = ready;
        let start = (ready + latency).max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        self.bytes_served += bytes;
        self.jobs += 1;
        Interval { start, end }
    }

    /// Earliest time the server could start a new job.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
    /// Cumulative service (busy) time.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }
    /// Total bytes served.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
    /// Total jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }
    /// Utilization over `[0, horizon)`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.busy.fraction_of(horizon)
    }

    /// Capture the full server state for a checkpoint.
    pub fn snapshot(&self) -> SerialServerSnapshot {
        SerialServerSnapshot {
            rate: self.rate,
            next_free: self.next_free,
            busy: self.busy,
            bytes_served: self.bytes_served,
            jobs: self.jobs,
            last_ready: self.last_ready,
        }
    }

    /// Rebuild a server from a snapshot; subsequent submissions behave
    /// exactly as they would have on the original.
    pub fn restore(s: &SerialServerSnapshot) -> Self {
        SerialServer {
            rate: s.rate,
            next_free: s.next_free,
            busy: s.busy,
            bytes_served: s.bytes_served,
            jobs: s.jobs,
            last_ready: s.last_ready,
            priced: (0, SimTime::ZERO),
        }
    }
}

/// Serializable image of a [`SerialServer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SerialServerSnapshot {
    /// Configured drain rate.
    pub rate: Bandwidth,
    /// Earliest start time for the next job.
    pub next_free: SimTime,
    /// Cumulative busy time.
    pub busy: SimTime,
    /// Total bytes served.
    pub bytes_served: u64,
    /// Total jobs served.
    pub jobs: u64,
    /// Ready time of the most recent submission (monotonicity guard).
    pub last_ready: SimTime,
}

/// A bounded FIFO admission queue in front of a serial server, modeling the
/// CXL controller's pending queue ("a pending queue of 128 entries",
/// §VIII-A). When the queue is full the producer stalls: the entry is
/// admitted only once an older entry has completed service. The returned
/// admission time therefore back-pressures the producer model.
#[derive(Debug, Clone)]
pub struct BoundedServer {
    server: SerialServer,
    capacity: usize,
    /// Completion times of admitted-but-possibly-unfinished entries, FIFO.
    completions: VecDeque<SimTime>,
    stall: SimTime,
    max_occupancy: usize,
}

impl BoundedServer {
    /// A serial server fronted by a queue of `capacity` entries.
    pub fn new(rate: Bandwidth, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedServer {
            server: SerialServer::new(rate),
            capacity,
            completions: VecDeque::with_capacity(capacity),
            stall: SimTime::ZERO,
            max_occupancy: 0,
        }
    }

    /// Submit a job; returns `(admitted, service_interval)` where `admitted`
    /// is when the producer could hand the entry to the queue (≥ `ready` when
    /// the queue was full) and the interval is the link service window.
    pub fn submit(&mut self, ready: SimTime, bytes: u64) -> (SimTime, Interval) {
        self.submit_with_latency(ready, bytes, SimTime::ZERO)
    }

    /// [`submit`](Self::submit) with a fixed per-entry pipeline latency.
    pub fn submit_with_latency(
        &mut self,
        ready: SimTime,
        bytes: u64,
        latency: SimTime,
    ) -> (SimTime, Interval) {
        let service = self.server.service_time(bytes);
        self.admit(ready, bytes, service, latency)
    }

    /// Submit a run of `n` equal jobs of `bytes`, all ready at `ready` with
    /// the same pipeline `latency`. The queue, server and counters end
    /// exactly as `n` calls of [`submit_with_latency`](Self::submit_with_latency)
    /// leave them; the return value is the run's wire span, from the first
    /// job's start to the last job's end (`None` for an empty run).
    ///
    /// Jobs go one at a time until the queue is full of completions at
    /// least one service time apart and in steady state: at once when an
    /// earlier run of the same jobs left it so, else within about two
    /// queue lengths. The rest is closed form, so a run costs
    /// O(min(n, capacity)). In steady state every job waits for the oldest
    /// entry, and the window of in-flight completions repeats one period
    /// `P` later every `capacity` jobs: `P = capacity · service` when the
    /// wire is the bottleneck (jobs go back to back), `P = latency +
    /// service` when the pipeline latency is. Zero-byte jobs never reach
    /// steady state and go one at a time.
    pub fn submit_run(
        &mut self,
        ready: SimTime,
        n: u64,
        bytes: u64,
        latency: SimTime,
    ) -> Option<Interval> {
        if n == 0 {
            return None;
        }
        let service = self.server.service_time(bytes);
        let (_, first) = self.admit(ready, bytes, service, latency);
        let mut last = first;
        let cap = self.capacity as u64;
        for done in 1..n {
            // Completions this run pushed are a service time apart; once a
            // full queue holds only those, or a scan finds the ones an
            // earlier run left spaced the same, steadiness is decidable
            // from the span alone.
            let spaced = done >= cap || (done == 1 && n - done > cap && self.spaced(service));
            if spaced && self.steady(service, latency) {
                last = self.close_run(ready, n - done, bytes, service, latency);
                break;
            }
            last = self.admit(ready, bytes, service, latency).1;
        }
        Some(Interval { start: first.start, end: last.end })
    }

    /// Are the in-flight completions at least `service` apart?
    fn spaced(&self, service: SimTime) -> bool {
        let (a, b) = self.completions.as_slices();
        let mut prev: Option<SimTime> = None;
        a.iter().chain(b).all(|&t| {
            let ok = prev.is_none_or(|p| t >= p + service);
            prev = Some(t);
            ok
        })
    }

    /// The window period of a steady run: how far the in-flight
    /// completions move every `capacity` jobs.
    fn period(&self, service: SimTime, latency: SimTime) -> SimTime {
        (service * self.capacity as u64).max(latency + service)
    }

    /// Is a full queue of the current run's completions in steady state?
    /// Completions of one run are at least `service` apart, so in the
    /// wire-bound regime a span of exactly `(capacity − 1) · service`
    /// means back to back; in the latency-bound regime a span within the
    /// latency means every next job starts `latency` after the entry it
    /// waited for.
    fn steady(&self, service: SimTime, latency: SimTime) -> bool {
        let (Some(&front), Some(&back)) = (self.completions.front(), self.completions.back())
        else {
            return false;
        };
        if service == SimTime::ZERO || self.completions.len() != self.capacity {
            return false;
        }
        let span = back - front;
        if latency + service <= service * self.capacity as u64 {
            span == service * (self.capacity as u64 - 1)
        } else {
            span <= latency
        }
    }

    /// Charge the last `m` jobs of a steady run in closed form. With the
    /// window `w` and period `P`, job `j` waits for `w[j % cap] + (j / cap)·P`
    /// and ends one period later. Returns the last job's service interval.
    fn close_run(
        &mut self,
        ready: SimTime,
        m: u64,
        bytes: u64,
        service: SimTime,
        latency: SimTime,
    ) -> Interval {
        let cap = self.capacity as u64;
        let period = self.period(service, latency);
        let (cycles, rem) = (m / cap, (m % cap) as usize);
        // Producer stall: Σ_j (w[j % cap] + (j / cap)·P − ready).
        let window: u128 = self.completions.iter().map(|t| t.as_ps() as u128).sum();
        let head: u128 = self.completions.iter().take(rem).map(|t| t.as_ps() as u128).sum();
        let (c, p) = (cycles as u128, period.as_ps() as u128);
        let waits =
            c * window + head + p * (cap as u128 * c * c.saturating_sub(1) / 2 + rem as u128 * c);
        self.stall += SimTime::from_ps((waits - m as u128 * ready.as_ps() as u128) as u64);
        // The window after the run: entry `i` is `w[(m + i) % cap]` moved
        // `(m + i) / cap` periods on.
        self.completions.rotate_left(rem);
        let wrap = self.capacity - rem;
        for (i, t) in self.completions.iter_mut().enumerate() {
            *t += period * (cycles + u64::from(i >= wrap));
        }
        let end = *self.completions.back().expect("a steady queue is full");
        let s = &mut self.server;
        s.last_ready = end - period;
        s.next_free = end;
        s.busy += service * m;
        s.bytes_served += bytes * m;
        s.jobs += m;
        Interval { start: end - service, end }
    }

    /// Admit one priced job through the pending queue and serve it.
    fn admit(
        &mut self,
        ready: SimTime,
        bytes: u64,
        service: SimTime,
        latency: SimTime,
    ) -> (SimTime, Interval) {
        // Drop entries that have certainly drained by `ready`.
        while let Some(&front) = self.completions.front() {
            if front <= ready {
                self.completions.pop_front();
            } else {
                break;
            }
        }
        // If still full, the producer must wait for the oldest in-flight
        // entry to finish.
        let admitted = if self.completions.len() >= self.capacity {
            let idx = self.completions.len() - self.capacity;
            let unblock = self.completions[idx];
            self.stall += unblock - ready;
            unblock
        } else {
            ready
        };
        // Entries that drained while the producer was stalled have left the
        // queue by the admission instant.
        while let Some(&front) = self.completions.front() {
            if front <= admitted {
                self.completions.pop_front();
            } else {
                break;
            }
        }
        let iv = self.server.serve(admitted, bytes, service, latency);
        self.completions.push_back(iv.end);
        self.max_occupancy = self.max_occupancy.max(self.completions.len());
        (admitted, iv)
    }

    /// Total producer stall time caused by a full queue.
    pub fn stall_time(&self) -> SimTime {
        self.stall
    }
    /// High-water mark of queue occupancy observed.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
    /// The underlying serial server.
    pub fn server(&self) -> &SerialServer {
        &self.server
    }

    /// Capture the queue state (including in-flight completion times) for a
    /// checkpoint.
    pub fn snapshot(&self) -> BoundedServerSnapshot {
        BoundedServerSnapshot {
            server: self.server.snapshot(),
            capacity: self.capacity as u64,
            completions: self.completions.iter().copied().collect(),
            stall: self.stall,
            max_occupancy: self.max_occupancy as u64,
        }
    }

    /// Rebuild a bounded server from a snapshot. A snapshot of a queue
    /// without entries is an error.
    pub fn restore(s: &BoundedServerSnapshot) -> Result<Self, String> {
        if s.capacity == 0 {
            return Err("pending queue snapshot has no entries".into());
        }
        Ok(BoundedServer {
            server: SerialServer::restore(&s.server),
            capacity: s.capacity as usize,
            completions: s.completions.iter().copied().collect(),
            stall: s.stall,
            max_occupancy: s.max_occupancy as usize,
        })
    }
}

/// Serializable image of a [`BoundedServer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundedServerSnapshot {
    /// The fronted serial server.
    pub server: SerialServerSnapshot,
    /// Queue capacity.
    pub capacity: u64,
    /// FIFO completion times of admitted-but-possibly-unfinished entries.
    pub completions: Vec<SimTime>,
    /// Accumulated producer stall time.
    pub stall: SimTime,
    /// Occupancy high-water mark.
    pub max_occupancy: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_server_fifo_backlog() {
        // 16 GB/s → 64 B lines take 4 ns each.
        let mut s = SerialServer::new(Bandwidth::from_gb_per_sec(16.0));
        let a = s.submit(SimTime::ZERO, 64);
        assert_eq!((a.start, a.end), (SimTime::ZERO, SimTime::from_ns(4)));
        // Second job ready at 1 ns queues behind the first.
        let b = s.submit(SimTime::from_ns(1), 64);
        assert_eq!((b.start, b.end), (SimTime::from_ns(4), SimTime::from_ns(8)));
        // Third job ready after the backlog drains starts immediately.
        let c = s.submit(SimTime::from_ns(20), 64);
        assert_eq!(c.start, SimTime::from_ns(20));
        assert_eq!(s.bytes_served(), 192);
        assert_eq!(s.jobs(), 3);
        assert_eq!(s.busy_time(), SimTime::from_ns(12));
    }

    #[test]
    fn serial_server_latency_delays_start_only() {
        let mut s = SerialServer::new(Bandwidth::from_gb_per_sec(16.0));
        // 1 ns aggregator latency on a lightly-loaded link.
        let a = s.submit_with_latency(SimTime::ZERO, 64, SimTime::from_ns(1));
        assert_eq!((a.start, a.end), (SimTime::from_ns(1), SimTime::from_ns(5)));
        // Pipelined: a back-to-back job's latency is hidden behind the busy link.
        let b = s.submit_with_latency(SimTime::ZERO, 64, SimTime::from_ns(1));
        assert_eq!(b.start, SimTime::from_ns(5));
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn serial_server_rejects_time_travel() {
        let mut s = SerialServer::new(Bandwidth::from_gb_per_sec(1.0));
        s.submit(SimTime::from_ns(10), 1);
        s.submit(SimTime::from_ns(5), 1);
    }

    #[test]
    fn bounded_server_backpressure() {
        // Capacity 2, 4 ns per 64B line, all ready at t=0.
        let mut q = BoundedServer::new(Bandwidth::from_gb_per_sec(16.0), 2);
        let (a0, _) = q.submit(SimTime::ZERO, 64);
        let (a1, _) = q.submit(SimTime::ZERO, 64);
        assert_eq!(a0, SimTime::ZERO);
        assert_eq!(a1, SimTime::ZERO);
        // Third entry must wait for the first to complete at 4 ns.
        let (a2, iv2) = q.submit(SimTime::ZERO, 64);
        assert_eq!(a2, SimTime::from_ns(4));
        assert_eq!(iv2.end, SimTime::from_ns(12));
        assert_eq!(q.stall_time(), SimTime::from_ns(4));
        assert_eq!(q.max_occupancy(), 2);
    }

    #[test]
    fn bounded_server_no_stall_when_spaced() {
        let mut q = BoundedServer::new(Bandwidth::from_gb_per_sec(16.0), 2);
        for i in 0..10 {
            let (adm, _) = q.submit(SimTime::from_ns(i * 10), 64);
            assert_eq!(adm, SimTime::from_ns(i * 10));
        }
        assert_eq!(q.stall_time(), SimTime::ZERO);
    }

    /// `n` single submissions of one run, with the span they cover.
    fn singles(
        q: &mut BoundedServer,
        ready: SimTime,
        n: u64,
        bytes: u64,
        lat: SimTime,
    ) -> Interval {
        let ivs: Vec<Interval> =
            (0..n).map(|_| q.submit_with_latency(ready, bytes, lat).1).collect();
        Interval { start: ivs[0].start, end: ivs[n as usize - 1].end }
    }

    #[test]
    fn bounded_run_matches_single_submissions_in_both_regimes() {
        // Wire-bound (latency hidden behind the queue) and latency-bound
        // (a 1-entry queue waits out the pipeline latency every job), from
        // an empty queue and from one a previous burst left half full.
        let rate = Bandwidth::from_gb_per_sec(16.0);
        for cap in [1usize, 2, 3, 8] {
            for lat_ns in [0u64, 1, 7, 40] {
                for prefill in [0u64, 5] {
                    for n in [1u64, 2, 9, 40, 333] {
                        let lat = SimTime::from_ns(lat_ns);
                        let mut a = BoundedServer::new(rate, cap);
                        for _ in 0..prefill {
                            a.submit_with_latency(SimTime::ZERO, 48, lat);
                        }
                        let mut b = a.clone();
                        let ready = SimTime::from_ns(3);
                        let want = singles(&mut a, ready, n, 64, lat);
                        let got = b.submit_run(ready, n, 64, lat).expect("non-empty run");
                        let at = format!("cap {cap} lat {lat_ns} prefill {prefill} n {n}");
                        assert_eq!(got, want, "{at}");
                        assert_eq!(b.snapshot(), a.snapshot(), "{at}");
                        // A second run picks up the window the first left.
                        let want = singles(&mut a, ready, n, 64, lat);
                        let got = b.submit_run(ready, n, 64, lat).expect("non-empty run");
                        assert_eq!(got, want, "{at}, second run");
                        assert_eq!(b.snapshot(), a.snapshot(), "{at}, second run");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_run_checks_the_spacing_of_a_window_it_did_not_fill() {
        // Two short jobs queued behind a pipeline latency leave completions
        // 1 ns apart and within the run's latency of its first end: the
        // span test passes, but only jobs a service time apart repeat.
        let rate = Bandwidth::from_gb_per_sec(16.0);
        let lat = SimTime::from_ns(100);
        let mut a = BoundedServer::new(rate, 3);
        for _ in 0..2 {
            a.submit_with_latency(SimTime::ZERO, 16, SimTime::from_ns(50));
        }
        let mut b = a.clone();
        let want = singles(&mut a, SimTime::ZERO, 10, 64, lat);
        assert_eq!(b.submit_run(SimTime::ZERO, 10, 64, lat), Some(want));
        assert_eq!(b.snapshot(), a.snapshot());
    }

    #[test]
    fn empty_run_changes_nothing() {
        let mut q = BoundedServer::new(Bandwidth::from_gb_per_sec(16.0), 4);
        q.submit(SimTime::from_ns(9), 64);
        let before = q.snapshot();
        assert_eq!(q.submit_run(SimTime::ZERO, 0, 64, SimTime::ZERO), None);
        assert_eq!(q.snapshot(), before);
    }
}
