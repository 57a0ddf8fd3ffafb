//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use teco_sim::{Bandwidth, BoundedServer, SerialServer, SimTime};

/// The paper's link rate: 16 GB/s at 94.3 % CXL efficiency.
fn paper_rate() -> Bandwidth {
    Bandwidth::from_gb_per_sec(16.0 * 0.943)
}

/// What the event-driven queue reports: per job, its admission time and
/// wire window `(admitted, start, end)`, then the total producer stall and
/// the occupancy high-water mark.
type QueueTrace = (Vec<(SimTime, SimTime, SimTime)>, SimTime, usize);

/// Events of the reference queue, in the order they run at one instant: a
/// line leaving the wire goes first, so a slot that frees at `t` is free
/// for an arrival at `t`. Events of one kind run in job order, which is
/// the order they were scheduled in, so the job index is their sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Job `i` finishes on the wire and frees its slot.
    LinkDone(usize),
    /// Job `i` clears its pipeline latency and may take the wire.
    WireReady(usize),
    /// Job `i`'s producer hands it to the queue.
    Arrive(usize),
}

/// A pending queue of `capacity` slots in front of a serial link, written
/// as an event loop from its description rather than from `BoundedServer`:
/// events pop in `(time, event)` order from a heap; a job takes a free
/// slot when it arrives or its producer blocks; when a slot frees, the
/// oldest blocked producer takes it; an admitted job waits out `latency`,
/// then the link serves waiting jobs one at a time in admission order; a
/// job holds its slot until it leaves the wire. `jobs` are `(ready, bytes)`
/// in ready order, each of a positive service time.
fn event_driven_queue(
    rate: Bandwidth,
    capacity: usize,
    jobs: &[(SimTime, u64)],
    latency: SimTime,
) -> QueueTrace {
    let mut heap: BinaryHeap<_> =
        jobs.iter().enumerate().map(|(i, &(ready, _))| Reverse((ready, Ev::Arrive(i)))).collect();
    let mut out = vec![(SimTime::MAX, SimTime::MAX, SimTime::MAX); jobs.len()];
    let (mut occupied, mut max_occupancy, mut stall) = (0usize, 0usize, SimTime::ZERO);
    let mut blocked = VecDeque::new();
    let mut waiting = VecDeque::new();
    let mut link_busy = false;
    while let Some(Reverse((now, ev))) = heap.pop() {
        let admit = match ev {
            Ev::Arrive(i) if occupied < capacity && blocked.is_empty() => Some(i),
            Ev::Arrive(i) => {
                blocked.push_back(i);
                None
            }
            Ev::WireReady(i) => {
                waiting.push_back(i);
                None
            }
            Ev::LinkDone(_) => {
                link_busy = false;
                occupied -= 1;
                blocked.pop_front()
            }
        };
        if let Some(i) = admit {
            out[i].0 = now;
            stall += now - jobs[i].0;
            occupied += 1;
            max_occupancy = max_occupancy.max(occupied);
            heap.push(Reverse((now + latency, Ev::WireReady(i))));
        }
        if !link_busy {
            if let Some(i) = waiting.pop_front() {
                let end = now + rate.transfer_time(jobs[i].1);
                out[i].1 = now;
                out[i].2 = end;
                link_busy = true;
                heap.push(Reverse((end, Ev::LinkDone(i))));
            }
        }
    }
    (out, stall, max_occupancy)
}

/// Submit `jobs` one by one to a `BoundedServer` and require each job's
/// admission and service window, then the stall and occupancy totals, to
/// equal the event-driven queue's. Returns the server.
fn check_against_event_queue(
    capacity: usize,
    jobs: &[(SimTime, u64)],
    latency: SimTime,
) -> BoundedServer {
    let (want, stall, max_occupancy) = event_driven_queue(paper_rate(), capacity, jobs, latency);
    let mut q = BoundedServer::new(paper_rate(), capacity);
    for (i, &(ready, bytes)) in jobs.iter().enumerate() {
        let (admitted, iv) = q.submit_with_latency(ready, bytes, latency);
        assert_eq!(
            (admitted, iv.start, iv.end),
            want[i],
            "job {i} of {} (capacity {capacity})",
            jobs.len()
        );
    }
    assert_eq!(q.stall_time(), stall, "stall (capacity {capacity})");
    assert_eq!(q.max_occupancy(), max_occupancy, "occupancy (capacity {capacity})");
    q
}

/// With the paper's 128-entry queue and 64-byte lines every 4 ns, a
/// producer slightly faster than the link, lines queue up but the queue
/// never fills: occupancy stays above 1 and at most 128.
#[test]
fn pending_queue_128_never_binds_at_paper_rates() {
    let jobs: Vec<(SimTime, u64)> = (0..2000).map(|i| (SimTime::from_ns(i * 4), 64)).collect();
    let q = check_against_event_queue(128, &jobs, SimTime::ZERO);
    assert!(q.max_occupancy() > 1, "some queueing expected (producer > link rate)");
    assert!(q.max_occupancy() <= 128);
}

proptest! {
    /// Transfer time is monotone in payload size and additive under FIFO
    /// serial service (pipelining never creates or destroys service time).
    #[test]
    fn serial_server_busy_equals_sum_of_services(
        sizes in prop::collection::vec(1u64..100_000, 1..50),
        gaps in prop::collection::vec(0u64..1_000, 1..50),
    ) {
        let rate = Bandwidth::from_gb_per_sec(16.0);
        let mut s = SerialServer::new(rate);
        let mut t = SimTime::ZERO;
        let mut expect_busy = SimTime::ZERO;
        for (i, &b) in sizes.iter().enumerate() {
            t += SimTime::from_ns(gaps[i % gaps.len()]);
            let iv = s.submit(t, b);
            prop_assert!(iv.start >= t);
            prop_assert_eq!(iv.len(), rate.transfer_time(b));
            expect_busy += rate.transfer_time(b);
        }
        prop_assert_eq!(s.busy_time(), expect_busy);
        // The link never finishes before the pure-bandwidth lower bound.
        let total: u64 = sizes.iter().sum();
        prop_assert!(s.next_free() >= rate.transfer_time(total));
    }

    /// Service intervals from a FIFO server never overlap and are ordered.
    #[test]
    fn serial_server_intervals_disjoint(
        sizes in prop::collection::vec(1u64..10_000, 1..40),
    ) {
        let mut s = SerialServer::new(Bandwidth::from_gb_per_sec(8.0));
        let mut prev_end = SimTime::ZERO;
        for &b in &sizes {
            let iv = s.submit(SimTime::ZERO, b);
            prop_assert!(iv.start >= prev_end);
            prev_end = iv.end;
        }
    }

    /// The pending queue admits, serves and stalls every job exactly as an
    /// event-driven queue built from its description does, over bursty
    /// arrivals, every capacity up to the paper's 128 entries and pipeline
    /// latencies of zero or a few service times.
    #[test]
    fn bounded_server_matches_an_event_driven_queue(
        capacity in 1usize..=128,
        jobs in prop::collection::vec(
            (prop_oneof![Just(0u64), 0u64..8, 0u64..400], any::<bool>()),
            1..400,
        ),
        latency_ps in prop_oneof![Just(0u64), 1u64..=17_000],
    ) {
        let mut t = SimTime::ZERO;
        let jobs: Vec<(SimTime, u64)> = jobs
            .iter()
            .map(|&(gap_ns, short)| {
                t += SimTime::from_ns(gap_ns);
                (t, if short { 32 } else { 64 })
            })
            .collect();
        check_against_event_queue(capacity, &jobs, SimTime::from_ps(latency_ps));
    }

    /// Bandwidth transfer-time round trip: bytes_in(transfer_time(n)) ≈ n.
    #[test]
    fn bandwidth_roundtrip(bytes in 1u64..1_000_000_000, gb in 1u32..64) {
        let bw = Bandwidth::from_gb_per_sec(gb as f64);
        let t = bw.transfer_time(bytes);
        let back = bw.bytes_in(t);
        // Rounding to a picosecond loses at most rate·1ps bytes.
        let slack = (bw.bytes_per_sec() * 1e-12).ceil() as u64 + 1;
        prop_assert!(back + slack >= bytes && back <= bytes + slack,
            "bytes={bytes} back={back} slack={slack}");
    }
}
