//! The snapshot codec on one checkpoint shaped like the `tiered_ckpt`
//! benchmark workload's ([`tiered_ckpt_session`]). Most of its ≈2.1 MB of
//! JSON is device and host-DRAM bytes, one base64 string per run of
//! written lines.
//!
//! `encode` is `encode_snapshot` of the captured `SessionSnapshot`;
//! `decode` is `decode_snapshot` of those bytes back into one;
//! `round_trip` is capture, encode, decode and `TecoSession::from_snapshot`
//! together, the checkpoint the `tiered_ckpt` workload takes every 50
//! steps.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use teco_bench::perf_smoke::tiered_ckpt_session;
use teco_core::{SessionSnapshot, TecoSession};
use teco_sim::{decode_snapshot, encode_snapshot};

fn bench_codec(c: &mut Criterion) {
    let session = tiered_ckpt_session();
    let snap = session.snapshot();
    let encoded = encode_snapshot(&snap);
    let mut g = c.benchmark_group("snapshot_codec");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode", |b| b.iter(|| encode_snapshot(black_box(&snap))));
    g.bench_function("decode", |b| {
        b.iter(|| decode_snapshot::<SessionSnapshot>(black_box(&encoded)).unwrap())
    });
    g.bench_function("round_trip", |b| {
        b.iter(|| {
            let bytes = encode_snapshot(&black_box(&session).snapshot());
            let back = decode_snapshot::<SessionSnapshot>(&bytes).unwrap();
            TecoSession::from_snapshot(&back).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
