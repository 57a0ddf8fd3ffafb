//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use teco_sim::{Bandwidth, Engine, Model, Scheduler, SerialServer, SimTime};

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

    /// The event engine delivers every scheduled event exactly once, in
    /// nondecreasing time order.
    #[test]
    fn engine_delivers_all_events_in_order(
        times in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        struct Collect {
            seen: Vec<SimTime>,
        }
        impl Model for Collect {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), _: &mut Scheduler<()>) {
                self.seen.push(now);
            }
        }
        let mut eng = Engine::new(Collect { seen: vec![] });
        for &t in &times {
            eng.prime(SimTime::from_ns(t), ());
        }
        eng.run();
        prop_assert_eq!(eng.model().seen.len(), times.len());
        for w in eng.model().seen.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let mut expect: Vec<u64> = times.clone();
        expect.sort_unstable();
        let got: Vec<u64> = eng.model().seen.iter().map(|t| t.as_ns()).collect();
        prop_assert_eq!(got, expect);
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
