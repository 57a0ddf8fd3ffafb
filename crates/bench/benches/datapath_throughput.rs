//! Criterion benchmarks for the link-saturating datapath: the chunked
//! u64 pack/merge kernels against their byte-at-a-time scalar oracles
//! (same run, same machine — the ≥2× gate in `perf_smoke` reads these).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use teco_cxl::dba::{kernels, scalar};
use teco_cxl::{Aggregator, DbaRegister};
use teco_mem::{LineData, LINE_BYTES, WORDS_PER_LINE};

const RUN_LINES: usize = 1024;

fn lines(n: usize) -> Vec<LineData> {
    (0..n)
        .map(|i| {
            let mut l = LineData::zeroed();
            for w in 0..16 {
                l.set_word(w, (i as u32).wrapping_mul(2654435761).wrapping_add(w as u32));
            }
            l
        })
        .collect()
}

fn flat_bytes(ls: &[LineData]) -> Vec<u8> {
    ls.iter().flat_map(|l| l.bytes().iter().copied()).collect()
}

/// Kernel vs scalar-oracle pack of the same whole-line run, one pair per
/// dirty-byte width.
fn bench_pack_pairs(c: &mut Criterion) {
    let data = lines(RUN_LINES);
    let src = flat_bytes(&data);
    let mut g = c.benchmark_group("datapath");
    g.throughput(Throughput::Bytes((RUN_LINES * LINE_BYTES) as u64));
    for n in 1usize..=3 {
        let per = WORDS_PER_LINE * n;
        g.bench_function(format!("pack_kernel_{n}"), |b| {
            let mut dst = vec![0u8; RUN_LINES * per];
            b.iter(|| kernels::pack_run(black_box(&src), n, &mut dst))
        });
        g.bench_function(format!("pack_scalar_{n}"), |b| {
            let mut dst = vec![0u8; RUN_LINES * per];
            b.iter(|| {
                for (l, d) in data.iter().zip(dst.chunks_exact_mut(per)) {
                    scalar::pack_line(black_box(l), n, d);
                }
            })
        });
    }
    g.finish();
}

/// Kernel vs scalar-oracle reset-shift-OR merge of a packed payload back
/// into resident lines.
fn bench_merge_pairs(c: &mut Criterion) {
    let data = lines(RUN_LINES);
    let src = flat_bytes(&data);
    let mut g = c.benchmark_group("datapath");
    g.throughput(Throughput::Bytes((RUN_LINES * LINE_BYTES) as u64));
    for n in 1usize..=3 {
        let per = WORDS_PER_LINE * n;
        let mut payload = vec![0u8; RUN_LINES * per];
        kernels::pack_run(&src, n, &mut payload);
        g.bench_function(format!("merge_kernel_{n}"), |b| {
            let mut resident = flat_bytes(&data);
            b.iter(|| kernels::merge_run(black_box(&payload), n, &mut resident))
        });
        g.bench_function(format!("merge_scalar_{n}"), |b| {
            let mut resident = flat_bytes(&data);
            b.iter(|| {
                for (p, r) in payload.chunks_exact(per).zip(resident.chunks_exact_mut(LINE_BYTES)) {
                    scalar::unpack_merge_bytes(black_box(p), n, r);
                }
            })
        });
    }
    g.finish();
}

/// The checksummed aggregate path — chunked pack with the chunk-wise
/// deferred-fold Fletcher-16 fused in — against the pre-fusion reference:
/// scalar pack followed by the per-byte Fletcher second pass. This is the
/// pair the tentpole's checksum fusion replaced, and the one `perf_smoke`
/// holds to the ≥2× same-run bound.
fn bench_checksummed_pairs(c: &mut Criterion) {
    let data = lines(RUN_LINES);
    let mut g = c.benchmark_group("datapath");
    g.throughput(Throughput::Bytes((RUN_LINES * LINE_BYTES) as u64));
    for n in 1u8..=3 {
        let reg = DbaRegister::new(true, n);
        g.bench_function(format!("checksummed_kernel_{n}"), |b| {
            let mut agg = Aggregator::new();
            agg.set_register(reg);
            let mut out = vec![0u8; reg.payload_bytes()];
            b.iter(|| {
                let mut acc = 0u32;
                for l in &data {
                    let (_, csum) = agg.aggregate_into_checksummed(black_box(l), &mut out);
                    acc = acc.wrapping_add(csum as u32);
                }
                acc
            })
        });
        g.bench_function(format!("checksummed_scalar_{n}"), |b| {
            let mut out = vec![0u8; reg.payload_bytes()];
            b.iter(|| {
                let mut acc = 0u32;
                for l in &data {
                    scalar::pack_line(black_box(l), n as usize, &mut out);
                    acc = acc.wrapping_add(scalar::line_checksum_bytewise(&out) as u32);
                }
                acc
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pack_pairs, bench_merge_pairs, bench_checksummed_pairs);
criterion_main!(benches);
