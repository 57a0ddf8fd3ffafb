//! A run is its lines: the closed-form link run and the bulk coherence
//! run leave exactly the state one call per line leaves.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use teco_cxl::{Agent, CoherenceEngine, CxlConfig, CxlLink, Direction, ProtocolMode};
use teco_mem::{Addr, LINE_BYTES};
use teco_sim::{Interval, SimTime};

fn link(capacity: usize) -> CxlLink {
    let mut cfg = CxlConfig::paper();
    cfg.pending_queue_entries = capacity;
    CxlLink::new(cfg)
}

/// Ready time of the most recent admission toward the device: the
/// earliest a new submission there may be ready.
fn last_ready(link: &CxlLink) -> SimTime {
    link.snapshot().to_device.server.server.last_ready
}

/// Replay `(gap_ns, bytes, latency_ns)` transfers, each ready `gap_ns`
/// after the previous admission.
fn replay(link: &mut CxlLink, history: &[(u64, u64, u64)]) {
    for &(gap, bytes, lat) in history {
        let ready = last_ready(link) + SimTime::from_ns(gap);
        link.transfer(Direction::ToDevice, ready, bytes, SimTime::from_ns(lat));
    }
}

fn hull(a: Interval, b: Interval) -> Interval {
    Interval::new(a.start.min(b.start), a.end.max(b.end))
}

proptest! {
    /// `transfer_run` ≡ n `transfer` calls: the same bounded-server image
    /// (queue, stall, occupancy, server clock and counters), payload bytes
    /// and wire span, for any queue capacity and pre-fill, run length
    /// (0 and 1 included), ready time, latency (wire- and latency-bound
    /// regimes) and byte size — and again for a second run that picks up
    /// the window the first one left.
    #[test]
    fn link_run_matches_single_transfers(
        capacity in prop_oneof![1usize..=8, 1usize..=128],
        history in prop::collection::vec(
            (prop_oneof![0u64..1, 0u64..300], 0u64..=200, prop_oneof![0u64..6, 0u64..200]),
            0..300,
        ),
        n in 0u64..700,
        gap in prop_oneof![0u64..3, 0u64..5_000],
        bytes in prop_oneof![0u64..=64, 1u64..=4096],
        lat in prop_oneof![0u64..3, 0u64..3_000],
    ) {
        let mut single = link(capacity);
        replay(&mut single, &history);
        let mut run = link(capacity);
        replay(&mut run, &history);
        for _ in 0..2 {
            let ready = last_ready(&single) + SimTime::from_ns(gap);
            let lat = SimTime::from_ns(lat);
            let want = catch_unwind(AssertUnwindSafe(|| {
                (0..n)
                    .map(|_| single.transfer(Direction::ToDevice, ready, bytes, lat))
                    .reduce(hull)
                    .unwrap_or(Interval::new(ready, ready))
            }));
            let got =
                catch_unwind(AssertUnwindSafe(|| run.transfer_run(Direction::ToDevice, ready, n, bytes, lat)));
            match (want, got) {
                (Ok(want), Ok(got)) => prop_assert_eq!(got, want),
                // Zero-byte jobs can break the server's ready-time order;
                // both paths must then trip the same assertion.
                (Err(_), Err(_)) => return,
                (want, got) => panic!("single calls panicked: {}, run panicked: {}", want.is_err(), got.is_err()),
            }
            prop_assert_eq!(run.snapshot(), single.snapshot());
            prop_assert_eq!(run.volume(Direction::ToDevice), single.volume(Direction::ToDevice));
        }
    }

    /// A direction's busy time is the measure of the union of the service
    /// intervals it returned: FIFO service never overlaps, so the link
    /// keeps a sum instead of the intervals.
    #[test]
    fn link_busy_equals_union_of_service_intervals(
        history in prop::collection::vec((0u64..2_000, 0u64..=4096, 0u64..50), 0..200),
    ) {
        let mut l = link(128);
        let mut ivs = Vec::new();
        for &(gap, bytes, lat) in &history {
            let ready = last_ready(&l) + SimTime::from_ns(gap);
            ivs.push(l.transfer(Direction::ToDevice, ready, bytes, SimTime::from_ns(lat)));
        }
        ivs.sort_by_key(|iv| iv.start);
        let mut union = SimTime::ZERO;
        let mut covered_to = SimTime::ZERO;
        for iv in ivs {
            let from = iv.start.max(covered_to);
            if iv.end > from {
                union += iv.end - from;
            }
            covered_to = covered_to.max(iv.end);
        }
        prop_assert_eq!(l.busy(Direction::ToDevice).total(), union);
        prop_assert_eq!(l.busy(Direction::ToHost).total(), SimTime::ZERO);
    }

    /// `write_run_accounted` ≡ n `write_accounted` calls over any mix of
    /// line states (touched and untouched, dense and spilled, either
    /// writer), in both protocols: the same engine image — states, touched
    /// bitmap, spillover, message counts, traffic and snoop filter.
    #[test]
    fn coherence_run_matches_single_writes(
        update in any::<bool>(),
        script in prop::collection::vec((0u8..5, 0u64..100), 0..200),
        device_writes in any::<bool>(),
        start in 0u64..100,
        n in 0usize..90,
        len in prop::sample::select(vec![0usize, 16, 32, 48, 64]),
    ) {
        let mode = if update { ProtocolMode::Update } else { ProtocolMode::Invalidation };
        let mut single = CoherenceEngine::new(mode);
        // Lines 16..80 are dense; the rest spill.
        single.register_region(Addr(16 * LINE_BYTES as u64), 64 * LINE_BYTES as u64);
        for &(op, line) in &script {
            let a = Addr(line * LINE_BYTES as u64);
            match op {
                0 => { single.write_accounted(Agent::Cpu, a, 64); }
                1 => { single.write_accounted(Agent::Device, a, 32); }
                2 => { single.read(Agent::Device, a, LINE_BYTES); }
                3 => { single.read(Agent::Cpu, a, LINE_BYTES); }
                _ => { single.flush(Agent::Cpu, &[a], LINE_BYTES); }
            }
        }
        let mut run = single.clone();
        let writer = if device_writes { Agent::Device } else { Agent::Cpu };
        let base = Addr(start * LINE_BYTES as u64);
        let mut pushed = true;
        for i in 0..n {
            pushed &= single.write_accounted(writer, Addr(base.0 + (i * LINE_BYTES) as u64), len);
        }
        let run_pushed = run.write_run_accounted(writer, base, n, len);
        prop_assert_eq!(run_pushed, if n == 0 { update } else { pushed });
        prop_assert_eq!(run.snapshot(), single.snapshot());
    }
}
