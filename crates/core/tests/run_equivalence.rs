//! A push is its lines: one `push_param_lines` / `push_grad_lines` call
//! leaves a session byte-identical (as `encode_snapshot` bytes) to one
//! `push_param_line` / `push_grad_line` call per line, fault draws, the
//! recovery ladder and errors included; and a cluster's batched gradient
//! shards equal a `push_grad_shard` loop.

use proptest::prelude::*;
use teco_core::resume::Driver;
use teco_core::{
    ClusterConfig, ClusterDriver, ClusterSession, ClusterWorkload, KillPoint, SessionError,
    StepBoundary, TecoConfig, TecoSession,
};
use teco_cxl::{FaultConfig, RasConfig};
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{encode_snapshot, Interval, SimRng, SimTime};

/// Lines of each mapped tensor.
const LINES: usize = 320;

/// The fault regimes: off, `tiered_ckpt`'s rates, 100× them, and a harsh
/// one whose replay limit exhausts often enough to degrade regions and
/// fail gradient pushes.
fn fault(level: usize, seed: u64) -> FaultConfig {
    let on = FaultConfig { seed, ..FaultConfig::off() };
    match level {
        0 => FaultConfig::off(),
        1 => FaultConfig { crc_error_rate: 1e-3, dba_checksum_error_rate: 1e-4, ..on },
        2 => FaultConfig { crc_error_rate: 0.1, dba_checksum_error_rate: 0.01, ..on },
        _ => FaultConfig {
            crc_error_rate: 0.45,
            stall_rate: 0.1,
            stall_ns: 30,
            poison_rate: 0.05,
            dba_checksum_error_rate: 0.2,
            retry_limit: 3,
            ..on
        },
    }
}

fn line(rng: &mut SimRng) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..16 {
        l.set_word(w, rng.next_u64() as u32);
    }
    l
}

fn at(base: Addr, i: usize) -> Addr {
    Addr(base.0 + (i * LINE_BYTES) as u64)
}

fn hull(a: Interval, b: Interval) -> Interval {
    Interval::new(a.start.min(b.start), a.end.max(b.end))
}

/// `n` one-line calls from `base`, stopping at the first error as a
/// caller's `?` would; the span of their intervals.
fn one_line_calls(
    n: usize,
    now: SimTime,
    mut push: impl FnMut(usize) -> Result<Interval, SessionError>,
) -> Result<Interval, SessionError> {
    (0..n).try_fold(Interval::new(now, now), |span, i| {
        push(i).map(|iv| if i == 0 { iv } else { hull(span, iv) })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn session_run_matches_one_line_calls(
        faults in 0usize..4,
        seed in any::<u64>(),
        dba in any::<bool>(),
        audit in any::<bool>(),
        ras in any::<bool>(),
        steps in 1u64..4,
        grad_n in 0usize..200,
        param_n in 0usize..300,
        offset in 0usize..20,
    ) {
        let mut cfg = TecoConfig::default()
            .with_giant_cache_bytes(1 << 20)
            .with_dirty_bytes(2)
            .with_act_aft_steps(if dba { 0 } else { 1_000 })
            .with_fault(fault(faults, seed))
            .with_audit(audit);
        if ras {
            cfg = cfg.with_ras(RasConfig {
                media_faults_per_tick: 2.0,
                scrub_lines_per_tick: 64,
                spare_lines: 16,
                seed,
            });
        }
        let mut run = TecoSession::new(cfg).unwrap();
        let bytes = (LINES * LINE_BYTES) as u64;
        let (_, params) = run.alloc_tensor("params", bytes).unwrap();
        let (_, grads) = run.alloc_tensor("grads", bytes).unwrap();
        let mut single = TecoSession::from_snapshot(&run.snapshot()).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut now = SimTime::ZERO;
        for step in 0..steps {
            let g: Vec<LineData> = (0..grad_n).map(|_| line(&mut rng)).collect();
            let p: Vec<LineData> = (0..param_n).map(|_| line(&mut rng)).collect();
            let (gb, pb) = (at(grads, offset), at(params, offset));
            let want = one_line_calls(grad_n, now, |i| single.push_grad_line(at(gb, i), g[i], now));
            prop_assert_eq!(run.push_grad_lines(gb, &g, now), want);
            let t = run.cxlfence_grads(now);
            prop_assert_eq!(single.cxlfence_grads(now), t);
            run.check_activation(step);
            single.check_activation(step);
            let want = one_line_calls(param_n, t, |i| single.push_param_line(at(pb, i), p[i], t));
            prop_assert_eq!(run.push_param_lines(pb, &p, t), want);
            now = run.cxlfence_params(t);
            prop_assert_eq!(single.cxlfence_params(t), now);
            prop_assert!(
                encode_snapshot(&run.snapshot()) == encode_snapshot(&single.snapshot()),
                "step {step}: snapshots differ"
            );
        }
    }

    #[test]
    fn cluster_shard_runs_match_a_push_grad_shard_loop(
        faults in prop::sample::select(vec![0usize, 3]),
        seed in any::<u64>(),
        devices in 1usize..4,
        grad_lines in 0u64..1_200,
    ) {
        let base = TecoConfig::default()
            .with_act_aft_steps(0)
            .with_giant_cache_bytes(1 << 20)
            .with_fault(fault(faults, seed));
        let w = ClusterWorkload {
            cfg: ClusterConfig::new(base, devices),
            steps: 0,
            param_lines: 16,
            grad_lines,
            compute_ns_per_step: 0,
            seed,
        };
        let mut driver = ClusterDriver::for_host(&w, 0).unwrap();
        // The oracle: the same cluster, fed one drawn line per call from
        // the same content streams.
        let mut cluster = ClusterSession::new(w.cfg.clone()).unwrap();
        cluster.alloc_params(w.param_lines).unwrap();
        cluster.alloc_grads(w.grad_lines).unwrap();
        let mut rngs: Vec<SimRng> = (0..devices)
            .map(|d| {
                let root = SimRng::seed_from_u64(seed);
                if d == 0 { root } else { SimRng::seed_from_u64(seed).fork(&format!("cluster-dev-{d}")) }
            })
            .collect();
        for step in 0..2 {
            let got = driver.run_step_until(StepBoundary::AfterGradFence);
            let want = (0..devices).try_for_each(|d| {
                (0..grad_lines).try_for_each(|i| {
                    let l = line(&mut rngs[d]);
                    cluster.push_grad_shard(d, i, l)
                })
            });
            prop_assert_eq!(got.clone(), want);
            let snap = driver.capture();
            let states: Vec<[u64; 4]> = rngs.iter().map(SimRng::state).collect();
            prop_assert_eq!(&snap.rngs, &states);
            if got.is_err() {
                prop_assert!(encode_snapshot(&snap.cluster) == encode_snapshot(&cluster.snapshot()));
                return;
            }
            cluster.fence_grads_all();
            prop_assert!(encode_snapshot(&snap.cluster) == encode_snapshot(&cluster.snapshot()));
            let fenced = KillPoint { step, boundary: StepBoundary::AfterGradFence };
            driver.advance(Some(fenced), None).unwrap();
            cluster.check_activation_all();
            let p: Vec<LineData> = (0..w.param_lines).map(|_| line(&mut rngs[0])).collect();
            cluster.broadcast_params(&p).unwrap();
        }
    }
}
