//! The benchmark's own guarantees: simulated figures repeat exactly for a
//! seed, tracing and the spelled-out fabric step change nothing the
//! simulator computes, another seed passes the output checks too, and a
//! run reports exactly the declared metrics.

use stepbench::trace::Tracer;
use stepbench::workloads::fabric::FabricH4;
use stepbench::workloads::{build, Checks, Totals, Workload, NAMES};
use stepbench::{Options, END_TO_END, PER_LAYER, SIM_STEPS};

/// The counters over the first `SIM_STEPS` steps after set-up, and the
/// output checks at the end of them.
fn window(name: &str, seed: u64, traced: bool) -> (Totals, Checks) {
    let mut w = build(name, seed, traced).expect("set-up");
    let mut tr = if traced { Tracer::on() } else { Tracer::off() };
    let base = w.totals();
    for _ in 0..SIM_STEPS {
        w.gen();
        w.step(&mut tr).expect("step");
    }
    (w.totals().since(&base), w.check())
}

#[test]
fn same_seed_repeats_every_simulated_figure_and_tracing_changes_none() {
    for name in NAMES {
        let (a, checks) = window(name, 7, false);
        assert!(checks.failures.is_empty(), "{name}: {:?}", checks.failures);
        assert_eq!(a, window(name, 7, false).0, "{name}: rerun");
        assert_eq!(a, window(name, 7, true).0, "{name}: traced");
    }
}

#[test]
fn a_second_seed_passes_the_output_checks() {
    for name in NAMES {
        let (t, checks) = window(name, 1234, false);
        assert!(checks.run > 0 && checks.failures.is_empty(), "{name}: {:?}", checks.failures);
        assert!(t.sim_ps > 0 && t.wire_bytes() > 0, "{name}: {t:?}");
    }
    let (t, _) = window("tiered_ckpt", 1234, false);
    assert_eq!(t.checkpoints, SIM_STEPS / 50, "a checkpoint every 50 steps");
    assert!(t.retries > 0 && t.full_line_retries > 0, "the fault ladder runs: {t:?}");
}

#[test]
fn split_fabric_step_matches_fabric_driver() {
    let mut whole = FabricH4::new(11, false).expect("set-up");
    let mut split = FabricH4::new(11, true).expect("set-up");
    let mut tr = Tracer::on();
    for _ in 0..20 {
        whole.step(&mut Tracer::off()).expect("step");
        split.step(&mut tr).expect("step");
    }
    assert_eq!(whole.grad_checksum(), split.grad_checksum());
    assert_eq!(whole.host_reports(), split.host_reports());
    assert_eq!(whole.totals(), split.totals());
}

#[test]
fn a_run_reports_exactly_the_declared_metrics() {
    for trace in [false, true] {
        let opts = Options { workload: "dev_dba".into(), seed: 3, seconds: 0.0, trace };
        let out = stepbench::run(&opts).expect("run");
        assert!(out.correct(), "{:?}", out.lines);
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, declared.iter().map(|m| m.0).collect::<Vec<_>>());
        let last = out.json();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    }
}
