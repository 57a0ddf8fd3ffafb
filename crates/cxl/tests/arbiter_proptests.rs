//! Property-based snapshot/restore round-trips for [`HostLinkArbiter`]:
//! cut an arbitrary arbitration history at an arbitrary point — with
//! devices quarantined mid-run and broadcast/fan-in accounting in flight
//! — serialize the arbiter through JSON, restore it, replay the tail, and
//! require the restored run's final state to be **byte-identical** to the
//! uninterrupted run's.

use proptest::prelude::*;
use teco_cxl::{HostLinkArbiter, HostLinkArbiterSnapshot};
use teco_sim::{Bandwidth, SimTime};

/// One step of an arbitration history.
#[derive(Debug, Clone)]
enum Op {
    /// A round with per-device byte requests (zeros are skipped grants).
    Round(Vec<u64>),
    /// A broadcast read fanned out to `fanout` devices.
    Broadcast { bytes: u64, fanout: usize },
    /// A fan-in read serving `readers` hosts from one media access.
    Fanin { bytes: u64, readers: usize },
    /// Quarantine a device's account mid-run.
    Quarantine(usize),
    /// Readmit a quarantined device.
    Readmit(usize),
}

/// Widest device count an op stream is generated for; each case clamps
/// down to its drawn `n` inside [`apply`]. (The vendored proptest has no
/// `prop_flat_map`, so ops cannot depend on `n` at generation time.)
const MAX_DEVICES: usize = 5;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(0u64..4096, MAX_DEVICES).prop_map(Op::Round),
        prop::collection::vec(1u64..4096, MAX_DEVICES).prop_map(Op::Round),
        (1u64..8192, 1..=MAX_DEVICES).prop_map(|(bytes, fanout)| Op::Broadcast { bytes, fanout }),
        (1u64..8192, 1..=MAX_DEVICES).prop_map(|(bytes, readers)| Op::Fanin { bytes, readers }),
        (0..MAX_DEVICES).prop_map(Op::Quarantine),
        (0..MAX_DEVICES).prop_map(Op::Readmit),
    ]
}

fn apply(arb: &mut HostLinkArbiter, n: usize, i: usize, op: &Op) {
    // Deterministic, history-independent ready times: earlier than the
    // drain horizon as often as later, so grants both queue and idle.
    let t = SimTime::from_ns(10 * i as u64);
    match op {
        Op::Round(requests) => {
            let requests = &requests[..n];
            let ready: Vec<SimTime> =
                (0..requests.len()).map(|d| t + SimTime::from_ns(d as u64)).collect();
            arb.arbitrate_round(&ready, requests);
        }
        Op::Broadcast { bytes, fanout } => {
            arb.charge_broadcast(t, *bytes, (*fanout).min(n));
        }
        Op::Fanin { bytes, readers } => {
            arb.charge_fanin(t, *bytes, (*readers).min(n));
        }
        Op::Quarantine(dev) => arb.quarantine_device(*dev % n),
        Op::Readmit(dev) => arb.readmit_device(*dev % n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Snapshot anywhere, restore from JSON bytes, replay the tail:
    /// byte-identical to never having been interrupted. Rounds,
    /// broadcasts, fan-ins, and quarantine flips are all clamped to the
    /// per-case device count, so every op targets valid devices.
    #[test]
    fn snapshot_cut_replay_matches_uninterrupted(
        n in 2usize..=MAX_DEVICES,
        ops in prop::collection::vec(op_strategy(), 1..24),
        cut_frac in 0.0f64..1.0,
        gb in 1u8..=64,
    ) {
        let bw = Bandwidth::from_gb_per_sec(gb as f64);
        let cut = ((ops.len() as f64) * cut_frac) as usize;

        // Uninterrupted run.
        let mut whole = HostLinkArbiter::new(bw, n);
        for (i, op) in ops.iter().enumerate() {
            apply(&mut whole, n, i, op);
        }

        // Cut run: serialize through JSON at the cut, restore, replay.
        let mut head = HostLinkArbiter::new(bw, n);
        for (i, op) in ops[..cut].iter().enumerate() {
            apply(&mut head, n, i, op);
        }
        let json = serde_json::to_string(&head.snapshot()).unwrap();
        drop(head);
        let snap: HostLinkArbiterSnapshot = serde_json::from_str(&json).unwrap();
        let mut tail = HostLinkArbiter::restore(&snap).unwrap();
        for (i, op) in ops[cut..].iter().enumerate() {
            apply(&mut tail, n, cut + i, op);
        }

        prop_assert_eq!(whole.accounts(), tail.accounts());
        prop_assert_eq!(whole.drained_at(), tail.drained_at());
        prop_assert_eq!(
            serde_json::to_string(&whole.snapshot()).unwrap(),
            serde_json::to_string(&tail.snapshot()).unwrap(),
            "restored arbitration diverged from the uninterrupted run"
        );
    }
}
