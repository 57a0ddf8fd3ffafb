//! The snapshot codec on one checkpoint shaped like the `tiered_ckpt`
//! benchmark workload's: 16384 parameter, 4096 gradient and 2 × 4096
//! optimizer-moment lines plus a 16-line hot tensor under the tiered
//! policy, with seeded link faults, captured after DBA activates. Most of
//! its ~6 MB of JSON is device and host-DRAM bytes, one integer each.
//!
//! `encode` is `encode_snapshot` of the captured `SessionSnapshot`;
//! `decode` is `decode_snapshot` of those bytes back into one.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use teco_core::{PlacementPolicy, SessionSnapshot, TecoConfig, TecoSession, TieredPolicy};
use teco_cxl::FaultConfig;
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{decode_snapshot, encode_snapshot, SimRng, SimTime};

const PARAM_LINES: usize = 16384;
const GRAD_LINES: usize = 4096;
const MOMENT_LINES: usize = 4096;
const HOT_LINES: usize = 16;

fn bytes(lines: usize) -> u64 {
    (lines * LINE_BYTES) as u64
}

fn random_lines(rng: &mut SimRng, n: usize) -> Vec<LineData> {
    let mut lines = vec![LineData::zeroed(); n];
    for l in &mut lines {
        for chunk in l.bytes_mut().chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
    }
    lines
}

/// The session after warm-up: four steps of gradient, parameter, moment
/// and hot-tensor pushes, DBA active from step 2.
fn tiered_snapshot() -> SessionSnapshot {
    let policy = TieredPolicy {
        device_capacity_bytes: 64 << 10,
        device_size_threshold: bytes(HOT_LINES),
        host_dram_capacity_bytes: 64 << 20,
        ..TieredPolicy::default()
    };
    let fault = FaultConfig {
        crc_error_rate: 1e-3,
        dba_checksum_error_rate: 1e-4,
        seed: 7,
        ..FaultConfig::off()
    };
    let cfg = TecoConfig::default()
        .with_act_aft_steps(2)
        .with_giant_cache_bytes(bytes(PARAM_LINES + GRAD_LINES + MOMENT_LINES))
        .with_fault(fault)
        .with_placement(PlacementPolicy::Tiered(policy));
    let mut s = TecoSession::new(cfg).unwrap();
    let mut alloc = |name: &str, lines: usize| s.alloc_tensor(name, bytes(lines)).unwrap().1;
    let tensors = [
        (alloc("params", PARAM_LINES), PARAM_LINES),
        (alloc("moment_m", MOMENT_LINES), MOMENT_LINES),
        (alloc("moment_v", MOMENT_LINES), MOMENT_LINES),
        (alloc("hot_scale", HOT_LINES), HOT_LINES),
    ];
    let grads = alloc("grads", GRAD_LINES);
    let mut rng = SimRng::seed_from_u64(7);
    let mut now = SimTime::ZERO;
    for step in 0..4 {
        for (i, line) in random_lines(&mut rng, GRAD_LINES).into_iter().enumerate() {
            s.push_grad_line(Addr(grads.0 + bytes(i)), line, now).unwrap();
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        for &(base, lines) in &tensors {
            s.push_param_lines(base, &random_lines(&mut rng, lines), now).unwrap();
        }
        now = s.cxlfence_params(now);
    }
    s.snapshot()
}

fn bench_codec(c: &mut Criterion) {
    let snap = tiered_snapshot();
    let encoded = encode_snapshot(&snap);
    let mut g = c.benchmark_group("snapshot_codec");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode", |b| b.iter(|| encode_snapshot(black_box(&snap))));
    g.bench_function("decode", |b| {
        b.iter(|| decode_snapshot::<SessionSnapshot>(black_box(&encoded)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
