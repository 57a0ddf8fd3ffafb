//! The link's run arithmetic: one 16,384-line `transfer_run` against
//! 16,384 single `transfer` calls, both ending in the same link state.
//! The run does the bounded-queue and serial-server bookkeeping in closed
//! form after at most a queue's worth of single steps; the singles pay it
//! per line.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use teco_cxl::{CxlConfig, CxlLink, Direction};
use teco_sim::SimTime;

const LINES: u64 = 16_384;

fn bench_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("link");
    g.throughput(Throughput::Elements(LINES));
    let cfg = CxlConfig::paper();
    let latency = cfg.aggregator_latency;

    // 32-byte DBA payloads, each push ready once the previous one drained.
    g.bench_function("transfer_run", |b| {
        let mut link = CxlLink::new(cfg);
        b.iter(|| {
            let ready = link.drained_at(Direction::ToDevice);
            link.transfer_run(Direction::ToDevice, ready, black_box(LINES), 32, latency)
        });
    });

    g.bench_function("transfer_single", |b| {
        let mut link = CxlLink::new(cfg);
        b.iter(|| {
            let ready = link.drained_at(Direction::ToDevice);
            let mut last = SimTime::ZERO;
            for _ in 0..black_box(LINES) {
                last = link.transfer(Direction::ToDevice, ready, 32, latency).end;
            }
            last
        });
    });
    g.finish();
}

criterion_group!(benches, bench_link);
criterion_main!(benches);
