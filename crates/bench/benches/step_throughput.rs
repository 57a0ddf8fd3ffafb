//! End-to-end training-step throughput: the session's full parameter path
//! (aggregate → coherence accounting → link → device merge → fence) and
//! its gradient path (one call per line → coherence accounting → link →
//! fence) in steady state, lines/second.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use teco_core::{TecoConfig, TecoSession};
use teco_mem::{Addr, LineData};
use teco_sim::SimTime;

const LINES: usize = 4096;

fn lines_with(tag: u32) -> Vec<LineData> {
    (0..LINES)
        .map(|i| {
            let mut l = LineData::zeroed();
            for w in 0..16 {
                l.set_word(w, ((i as u32) << 16) | tag.wrapping_add(w as u32));
            }
            l
        })
        .collect()
}

fn bench_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("step_throughput");
    g.throughput(Throughput::Elements(LINES as u64));

    // DBA active: 32-byte payloads, device-side merge into resident lines.
    g.bench_function("push_fence_dba", |b| {
        let mut s =
            TecoSession::new(TecoConfig::default().with_giant_cache_bytes(1 << 20)).unwrap();
        let (_, base) = s.alloc_tensor("params", (LINES * 64) as u64).unwrap();
        let warm = lines_with(0x4000);
        s.push_param_lines(base, &warm, SimTime::ZERO).unwrap();
        s.check_activation(500);
        let update = lines_with(0x5000);
        let mut now = s.cxlfence_params(SimTime::ZERO);
        b.iter(|| {
            s.push_param_lines(base, black_box(&update), now).unwrap();
            now = s.cxlfence_params(now);
            now
        });
    });

    // DBA off: full 64-byte lines, device-side overwrite.
    g.bench_function("push_fence_full", |b| {
        let mut s =
            TecoSession::new(TecoConfig::default().with_giant_cache_bytes(1 << 20)).unwrap();
        let (_, base) = s.alloc_tensor("params", (LINES * 64) as u64).unwrap();
        let update = lines_with(0x6000);
        let mut now = SimTime::ZERO;
        b.iter(|| {
            s.push_param_lines(base, black_box(&update), now).unwrap();
            now = s.cxlfence_params(now);
            now
        });
    });

    // Gradients, one `push_grad_line` call per line as a training loop's
    // backward hook issues them, then the gradient fence.
    g.bench_function("push_grads", |b| {
        let mut s =
            TecoSession::new(TecoConfig::default().with_giant_cache_bytes(1 << 20)).unwrap();
        let (_, base) = s.alloc_tensor("grads", (LINES * 64) as u64).unwrap();
        let grads = lines_with(0x7000);
        let mut now = SimTime::ZERO;
        b.iter(|| {
            for (i, line) in grads.iter().enumerate() {
                let at = Addr(base.0 + (i * 64) as u64);
                s.push_grad_line(at, *black_box(line), now).unwrap();
            }
            now = s.cxlfence_grads(now);
            now
        });
    });
    g.finish();
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
