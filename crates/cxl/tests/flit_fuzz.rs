//! Property-based tests for the flit layer: packing must round-trip
//! arbitrary packet streams, and the unpacker must never panic on
//! corrupted or truncated wire images (errors are acceptable, UB isn't).

use proptest::prelude::*;
use teco_cxl::{unpack, CxlPacket, Flit, FlitError, FlitPacker, Opcode, Slot, SLOTS_PER_FLIT};
use teco_mem::Addr;

fn packet_strategy() -> impl Strategy<Value = CxlPacket> {
    let control = (0u64..1 << 20).prop_map(|a| CxlPacket::control(Opcode::ReadOwn, Addr(a * 64)));
    let goflush = (0u64..1 << 20).prop_map(|a| CxlPacket::control(Opcode::GoFlush, Addr(a * 64)));
    let data =
        (0u64..1 << 20, prop::collection::vec(any::<u8>(), 1..=64), any::<bool>(), any::<bool>())
            .prop_map(|(a, payload, agg, poison)| {
                CxlPacket::data(Opcode::FlushData, Addr(a * 64), payload, agg).with_poison(poison)
            });
    prop_oneof![control, goflush, data]
}

/// Every `FlitError` must name a wire location that exists in the stream
/// it was reported against.
fn assert_error_location_valid(err: &FlitError, flits: &[Flit]) {
    let (fi, si) = match *err {
        FlitError::OrphanData { flit, slot } => (flit, slot),
        FlitError::HeaderWhilePayloadPending { flit, slot } => (flit, slot),
        FlitError::TruncatedPayload { header_flit, header_slot, .. } => (header_flit, header_slot),
    };
    assert!(fi < flits.len(), "flit index {fi} out of range ({} flits)", flits.len());
    assert!(si < SLOTS_PER_FLIT, "slot index {si} out of range");
}

proptest! {
    /// Pack → unpack is the identity on arbitrary packet streams.
    #[test]
    fn flit_roundtrip(pkts in prop::collection::vec(packet_strategy(), 0..50)) {
        let mut p = FlitPacker::new();
        for pkt in &pkts {
            p.push_packet(pkt);
        }
        let flits = p.finish();
        let back = unpack(&flits).unwrap();
        prop_assert_eq!(back, pkts);
    }

    /// Unpacking a truncated wire image fails cleanly (never panics) and
    /// the recovered prefix is a prefix of the original stream.
    #[test]
    fn truncation_is_detected_or_prefix(
        pkts in prop::collection::vec(packet_strategy(), 1..30),
        cut in 0usize..30,
    ) {
        let mut p = FlitPacker::new();
        for pkt in &pkts {
            p.push_packet(pkt);
        }
        let mut flits = p.finish();
        let keep = cut.min(flits.len());
        flits.truncate(keep);
        // An Err means the unpacker detected the truncation — that's fine,
        // as long as it names a wire location inside the stream.
        match unpack(&flits) {
            Ok(prefix) => {
                prop_assert!(prefix.len() <= pkts.len());
                for (a, b) in prefix.iter().zip(&pkts) {
                    prop_assert_eq!(a, b);
                }
            }
            Err(err) => assert_error_location_valid(&err, &flits),
        }
    }

    /// Corrupting one slot of a valid wire image (overwriting it with an
    /// arbitrary other slot kind) never panics the unpacker, and any error
    /// points at a real flit/slot position.
    #[test]
    fn corrupted_slot_never_panics(
        pkts in prop::collection::vec(packet_strategy(), 1..20),
        victim in 0usize..10_000,
        kind in 0u8..3,
        lens in 1u16..=64,
    ) {
        let mut p = FlitPacker::new();
        for pkt in &pkts {
            p.push_packet(pkt);
        }
        let mut flits = p.finish();
        let n_slots = flits.len() * SLOTS_PER_FLIT;
        let pos = victim % n_slots;
        flits[pos / SLOTS_PER_FLIT].slots[pos % SLOTS_PER_FLIT] = match kind {
            0 => Slot::Empty,
            1 => Slot::Data([0xEE; 16]),
            _ => Slot::Header {
                opcode: Opcode::Data,
                addr: 0x1000,
                dba_aggregated: false,
                poisoned: true,
                payload_len: lens,
            },
        };
        if let Err(err) = unpack(&flits) {
            assert_error_location_valid(&err, &flits);
        }
    }

    /// Arbitrary slot soup never panics the unpacker.
    #[test]
    fn garbage_slots_never_panic(
        raw in prop::collection::vec(
            prop_oneof![
                Just(0u8), // empty
                Just(1),   // data
                Just(2),   // header-control
                Just(3),   // header-data
            ],
            0..40,
        ),
        bytes in prop::collection::vec(any::<u8>(), 16),
        lens in prop::collection::vec(0u16..100, 1..40),
    ) {
        let mut data = [0u8; 16];
        data.copy_from_slice(&bytes);
        let slots: Vec<Slot> = raw
            .iter()
            .enumerate()
            .map(|(i, &k)| match k {
                0 => Slot::Empty,
                1 => Slot::Data(data),
                2 => Slot::Header {
                    opcode: Opcode::Evict,
                    addr: 64,
                    dba_aggregated: false,
                    poisoned: false,
                    payload_len: 0,
                },
                _ => Slot::Header {
                    opcode: Opcode::Data,
                    addr: 128,
                    dba_aggregated: true,
                    poisoned: i % 7 == 0,
                    payload_len: lens[i % lens.len()].clamp(1, 64),
                },
            })
            .collect();
        let flits: Vec<Flit> = slots
            .chunks(4)
            .map(|c| {
                let mut f = [Slot::Empty, Slot::Empty, Slot::Empty, Slot::Empty];
                for (i, s) in c.iter().enumerate() {
                    f[i] = s.clone();
                }
                Flit { slots: f }
            })
            .collect();
        // Must not panic; any error must carry an in-range wire location.
        if let Err(err) = unpack(&flits) {
            assert_error_location_valid(&err, &flits);
        }
    }
}
