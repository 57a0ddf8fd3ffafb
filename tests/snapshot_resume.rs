//! Crash-consistency integration tests: snapshot → serialize → restore
//! must be observationally invisible at every layer, and corrupted
//! snapshot bytes must fail with a typed [`SnapshotError`], never a panic.
//!
//! The per-crate invariants live next to their subsystems (`crates/sim`
//! unit-tests the envelope, `crates/core` kills the session harness at
//! every boundary); these tests exercise the same machinery through the
//! umbrella crate's public surface, the way a user embedding TECO would.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use teco::core::{
    run_resumed, run_uninterrupted, ClusterConfig, KillPoint, PlacementPolicy, ResumeWorkload,
    SessionSnapshot, StepBoundary, TecoConfig, TecoSession, TecoTrainer, TieredPolicy,
};
use teco::cxl::{FaultConfig, HostLinkArbiter, HostLinkArbiterSnapshot, ProtocolMode, RasConfig};
use teco::dl::data::MarkovTextGen;
use teco::dl::{
    capture_params, restore_params, AdamConfig, OffloadedAdam, TinyGpt, TinyGptConfig, Visitable,
};
use teco::mem::{Addr, LineData};
use teco::sim::{
    decode_snapshot, encode_snapshot, snapshot_checksum, Bandwidth, SimRng, SimTime, SnapshotError,
    SNAPSHOT_HEADER_BYTES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

proptest! {
    /// Corrupted snapshot bytes — truncations, bit flips, raw garbage —
    /// must yield a typed [`SnapshotError`] with a usable message; decoding
    /// must never panic and never silently accept damaged state.
    #[test]
    fn corrupt_snapshot_bytes_fail_typed(
        payload in prop::collection::vec(any::<u64>(), 0..32),
        cut_frac in any::<u16>(),
        flip_frac in any::<u16>(),
    ) {
        let bytes = encode_snapshot(&payload);

        // Truncate at a strictly-shorter length.
        let cut = cut_frac as usize % bytes.len();
        let err = decode_snapshot::<Vec<u64>>(&bytes[..cut])
            .expect_err("truncated envelope must not decode");
        prop_assert!(!err.to_string().is_empty());

        // Flip one bit anywhere in the envelope.
        let mut flipped = bytes.clone();
        let bit = flip_frac as usize % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let err = decode_snapshot::<Vec<u64>>(&flipped)
            .expect_err("bit-flipped envelope must not decode");
        match err {
            SnapshotError::BadMagic
            | SnapshotError::UnsupportedVersion(_)
            | SnapshotError::Truncated { .. }
            | SnapshotError::ChecksumMismatch { .. }
            | SnapshotError::Corrupt(_) => {}
        }

        // Raw garbage (the payload's own bytes, headerless).
        let junk: Vec<u8> = payload.iter().flat_map(|v| v.to_le_bytes()).collect();
        prop_assert!(decode_snapshot::<Vec<u64>>(&junk).is_err());
    }
}

fn faulty_workload(seed: u64) -> ResumeWorkload {
    let mut w = ResumeWorkload::small(seed);
    w.cfg = w.cfg.with_fault(FaultConfig {
        crc_error_rate: 0.25,
        stall_rate: 0.1,
        stall_ns: 40,
        dba_checksum_error_rate: 0.2,
        poison_rate: 0.02,
        retry_limit: 64,
        seed: 1234,
        ..FaultConfig::off()
    });
    w
}

/// [`faulty_workload`] under the invalidation fallback, so the snoop
/// directory is populated when the snapshot is taken.
fn faulty_invalidation_workload(seed: u64) -> ResumeWorkload {
    let mut w = faulty_workload(seed);
    w.cfg = w.cfg.with_protocol(ProtocolMode::Invalidation);
    w
}

fn random_line(rng: &mut SimRng) -> LineData {
    let mut l = LineData::zeroed();
    (0..16).for_each(|w| l.set_word(w, rng.next_u64() as u32));
    l
}

/// Drive a session under `cfg` for a few steps — gradients, then
/// parameters and an optimizer moment (which the tiered policy places in
/// host DRAM) — and capture it.
fn driven_session(cfg: TecoConfig, seed: u64) -> SessionSnapshot {
    let cfg = cfg.with_act_aft_steps(2).with_giant_cache_bytes(1 << 20);
    let mut s = TecoSession::new(cfg).expect("config validates");
    let [params, grads, moment] = ["params", "grads", "moment_m"]
        .map(|name| s.alloc_tensor(name, 64 * 64).expect("tensor fits").1);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    for step in 0..6 {
        let lines: Vec<LineData> = (0..64).map(|_| random_line(&mut rng)).collect();
        for (i, &line) in lines.iter().enumerate() {
            s.push_grad_line(Addr(grads.0 + 64 * i as u64), line, now).expect("grad push");
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        for base in [params, moment] {
            s.push_param_lines(base, &lines, now).expect("param push");
        }
        now = s.cxlfence_params(now);
    }
    s.snapshot()
}

/// Link faults, tiered placement, the audit shadow, and media RAS with
/// spares: every optional section of a session snapshot present.
fn everything_on() -> TecoConfig {
    faulty_workload(0)
        .cfg
        .with_placement(PlacementPolicy::Tiered(TieredPolicy::default()))
        .with_audit(true)
        .with_ras(RasConfig {
            media_faults_per_tick: 0.5,
            scrub_lines_per_tick: 8,
            spare_lines: 64,
            seed: 11,
        })
}

/// `encode(decode(encode(x))) == encode(x)`, whichever optional fields
/// `x` omits or writes.
fn assert_reencodes<T: Serialize + Deserialize>(x: &T, what: &str) {
    let bytes = encode_snapshot(x);
    let back: T = decode_snapshot(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(encode_snapshot(&back) == bytes, "{what}: re-encoding changed the bytes");
}

/// Every omit-when-default field of the hand-written snapshot impls, in
/// both states, survives a decode/re-encode byte for byte.
#[test]
fn snapshots_reencode_byte_identically() {
    let cases = [
        ("plain", TecoConfig::default()),
        ("link faults", faulty_workload(0).cfg),
        (
            "tiered",
            TecoConfig::default().with_placement(PlacementPolicy::Tiered(Default::default())),
        ),
        ("audit", TecoConfig::default().with_audit(true)),
        ("everything on", everything_on()),
    ];
    for (what, cfg) in cases {
        assert_reencodes(&driven_session(cfg, 3), what);
    }
    let all = driven_session(everything_on(), 3);
    assert!(all.shadow.is_some() && all.media.is_some() && all.placement.is_some());
    assert!(all.giant_cache.remap.is_some() && !all.cfg.ras.is_off());
    let store = &all.placement.as_ref().expect("tiered").store;
    assert!(!store.is_empty(), "the moment lives in host DRAM");

    let cluster = ClusterConfig::new(TecoConfig::default(), 2);
    assert_reencodes(&cluster, "cluster config");
    assert_reencodes(&cluster.with_watchdog_deadline_ns(5_000), "cluster watchdog");
    let arbiter = HostLinkArbiter::new(Bandwidth::from_gb_per_sec(32.0), 3).snapshot();
    assert_reencodes(&arbiter, "arbiter");
    let busy = HostLinkArbiterSnapshot {
        quarantined: vec![false, true, false],
        quarantine_events: 1,
        fanin_grants: 2,
        fanin_bytes: 4096,
        fanin_saved_bytes: 2048,
        fanin_deliveries: 6,
        ..arbiter
    };
    assert_reencodes(&busy, "quarantine and fan-in");
}

/// Frame `payload` with a header whose checksum matches, so decoding
/// reaches the JSON reader.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut bytes = SNAPSHOT_MAGIC.to_vec();
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&snapshot_checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The checksum gate stops every corruption before the JSON reader, so
/// this drives the reader directly: byte flips, truncations inside the
/// JSON, and spliced fragments of a real session payload, each re-framed
/// with a valid header. Every one decodes or is `Corrupt`; none panics.
#[test]
fn mutated_payloads_behind_a_valid_checksum_fail_typed() {
    const FRAGMENTS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "null",
        "true",
        "-",
        "1.5e3",
        "1e999",
        "-0",
        "18446744073709551616",
        "-9223372036854775809",
        "\"\\u12",
        "\"\\ud800\"",
        "\"\\q\"",
        "{\"k\":[[[[[[[[",
        "]]]]}}}}",
        "\"Unknown\"",
        "{\"Tiered\":1}",
    ];
    let clean = encode_snapshot(&driven_session(everything_on(), 5));
    let payload = &clean[SNAPSHOT_HEADER_BYTES..];
    assert!(decode_snapshot::<SessionSnapshot>(&framed(payload)).is_ok());
    let mut rng = SimRng::seed_from_u64(0xF022);
    let mut corrupt = 0;
    for case in 0..48 {
        let mut p = payload.to_vec();
        let at = rng.next_u64() as usize % p.len();
        match case % 3 {
            0 => p[at] ^= 1 << (rng.next_u64() % 8),
            1 => p.truncate(at),
            _ => {
                let fragment = FRAGMENTS[rng.next_u64() as usize % FRAGMENTS.len()];
                let end = (at + rng.next_u64() as usize % 4).min(p.len());
                p.splice(at..end, fragment.bytes());
            }
        }
        match decode_snapshot::<SessionSnapshot>(&framed(&p)) {
            Ok(_) => {}
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(!msg.is_empty());
                corrupt += 1;
            }
            Err(e) => panic!("case {case}: a re-framed payload failed framing: {e:?}"),
        }
    }
    assert!(corrupt >= 16, "every truncation is corrupt; got {corrupt}");
}

/// Kill+resume equivalence through the umbrella crate: the resumed run's
/// JSON report is byte-identical to the uninterrupted run's, for both a
/// zero-fault and a heavily faulty configuration (the latter snapshots the
/// fault injector's RNG mid-schedule, under both protocol modes), and
/// resuming is itself deterministic: two resumed runs produce equal
/// outcomes.
#[test]
fn resume_equivalence_zero_fault_and_faulty() {
    for (name, w) in [
        ("zero-fault", ResumeWorkload::small(3)),
        ("faulty", faulty_workload(3)),
        ("faulty invalidation", faulty_invalidation_workload(3)),
    ] {
        let base = run_uninterrupted(&w).expect("uninterrupted run completes");
        let base_json = serde_json::to_string(&base.report).expect("serialize baseline");
        for boundary in StepBoundary::ALL {
            let kill = KillPoint { step: w.steps / 2, boundary };
            let resumed = run_resumed(&w, kill).expect("resumed run completes");
            let resumed_json = serde_json::to_string(&resumed.report).expect("serialize resumed");
            assert_eq!(resumed_json, base_json, "{name} diverged at {boundary:?}");
            assert_eq!(resumed.snapshots_taken, 1);
            assert_eq!(resumed.restores, 1);
            let again = run_resumed(&w, kill).expect("second resumed run completes");
            assert_eq!(again, resumed, "{name}: resuming must be deterministic");
        }
    }
}

/// Audit-enabled runs pass cleanly on the stock workload configs — with
/// and without the fault model, under both protocol modes, interrupted
/// and not.
#[test]
fn audited_runs_stay_clean() {
    for w in [ResumeWorkload::small(9), faulty_workload(9), faulty_invalidation_workload(9)] {
        let mut w = w;
        w.cfg = w.cfg.with_audit(true);
        let base = run_uninterrupted(&w).expect("audited run completes");
        assert!(base.report.audit_enabled);
        assert!(base.last_audit_error.is_none(), "audit: {:?}", base.last_audit_error);
        let kill = KillPoint { step: 2, boundary: StepBoundary::AfterParamFence };
        let resumed = run_resumed(&w, kill).expect("audited resume completes");
        assert!(resumed.last_audit_error.is_none(), "audit: {:?}", resumed.last_audit_error);
        assert_eq!(
            serde_json::to_string(&resumed.report).expect("serialize resumed"),
            serde_json::to_string(&base.report).expect("serialize baseline"),
        );
    }
}

/// Whole-trainer resume: kill a real TinyGpt training loop mid-run,
/// serialize trainer + optimizer + model parameters + data RNG through the
/// snapshot envelope, restore into fresh objects, and require the
/// continuation to match an uninterrupted run bit for bit — losses, step
/// reports, and every final parameter.
#[test]
fn trainer_and_model_resume_bit_identically() {
    #[derive(Serialize, Deserialize)]
    struct FullCheckpoint {
        trainer: teco::core::TrainerSnapshot,
        params: Vec<teco::dl::ParamSnapshot>,
        data_rng: [u64; 4],
    }

    let build = || {
        let mut rng = SimRng::seed_from_u64(77);
        let gen = MarkovTextGen::new(16, 2, &mut rng);
        let cfg = TinyGptConfig { vocab: 16, dim: 16, heads: 2, layers: 1, max_seq: 12 };
        let model = TinyGpt::new(cfg, &mut rng);
        let data_rng = rng.fork("data");
        let tcfg =
            teco::core::TecoConfig::default().with_act_aft_steps(4).with_giant_cache_bytes(1 << 20);
        let trainer = TecoTrainer::new(
            tcfg,
            OffloadedAdam::new(AdamConfig { lr: 2e-3, ..Default::default() }),
        )
        .expect("default config with a 1 MiB giant cache validates");
        (gen, model, data_rng, trainer)
    };
    let step = |t: &mut TecoTrainer, m: &mut TinyGpt, gen: &MarkovTextGen, rng: &mut SimRng| {
        let seq = gen.sample(10, rng);
        t.train_step(m, &mut |m: &mut TinyGpt| {
            m.zero_grads();
            m.train_sequence(&seq, 1.0)
        })
    };
    let param_bits = |m: &mut TinyGpt| -> Vec<Vec<u32>> {
        capture_params(m).into_iter().map(|p| p.value_bits).collect()
    };

    // Uninterrupted reference: 12 steps straight through.
    let (gen, mut model, mut data_rng, mut trainer) = build();
    for _ in 0..12 {
        step(&mut trainer, &mut model, &gen, &mut data_rng);
    }
    let ref_reports = trainer.reports().to_vec();
    let ref_bits = param_bits(&mut model);

    // Killed run: 6 steps, snapshot everything, drop it all, restore from
    // bytes, finish.
    let (gen, mut model, mut data_rng, mut trainer) = build();
    for _ in 0..6 {
        step(&mut trainer, &mut model, &gen, &mut data_rng);
    }
    let bytes = encode_snapshot(&FullCheckpoint {
        trainer: trainer.snapshot(),
        params: capture_params(&mut model),
        data_rng: data_rng.state(),
    });
    drop((trainer, model, data_rng));

    let ckpt: FullCheckpoint = decode_snapshot(&bytes).expect("clean checkpoint decodes");
    let mut trainer = TecoTrainer::from_snapshot(&ckpt.trainer).expect("trainer restores");
    let mut rng = SimRng::seed_from_u64(77);
    let gen = MarkovTextGen::new(16, 2, &mut rng);
    let cfg = TinyGptConfig { vocab: 16, dim: 16, heads: 2, layers: 1, max_seq: 12 };
    let mut model = TinyGpt::new(cfg, &mut rng);
    restore_params(&mut model, &ckpt.params);
    let mut data_rng = SimRng::from_state(ckpt.data_rng);
    assert_eq!(trainer.steps(), 6);
    for _ in 0..6 {
        step(&mut trainer, &mut model, &gen, &mut data_rng);
    }

    assert_eq!(trainer.reports(), &ref_reports[..], "step reports diverged after resume");
    assert_eq!(param_bits(&mut model), ref_bits, "final parameters diverged after resume");
}
