//! Zero-cost-when-off audit for the cluster's hot path.
//!
//! The shared counting allocator from `teco-testsupport` wraps the system
//! allocator. After a warm-up step has sized every device's wire buffer,
//! the driver's parameter buffer and the arbiter scratch, a full cluster
//! step must not allocate at all with auditing off: every device's
//! gradient shard drawn, pushed in runs and reduced into the pool, the
//! gradient fences and their arbitration round, activation, and the
//! pooled parameter broadcast fanned out to every device. The same step
//! with auditing ON is then allowed (and expected) to allocate for the
//! per-device shadow maps, proving the counter observes this path.
//!
//! One `#[test]` only: the counter is global and the default harness runs
//! tests on multiple threads.

use teco_core::{ClusterConfig, ClusterDriver, ClusterWorkload, StepBoundary, TecoConfig};
use teco_testsupport::{allocations, min_allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DEVICES: usize = 4;

fn driver(audit: bool) -> ClusterDriver {
    let base = TecoConfig::default()
        .with_act_aft_steps(0)
        .with_giant_cache_bytes(1 << 20)
        .with_audit(audit);
    let w = ClusterWorkload {
        cfg: ClusterConfig::new(base, DEVICES),
        steps: 0,
        param_lines: 128,
        // More than one shard run per device.
        grad_lines: 1300,
        compute_ns_per_step: 1_000,
        seed: 5,
    };
    ClusterDriver::for_host(&w, 0).expect("config validates")
}

fn step(d: &mut ClusterDriver) {
    d.run_step_until(StepBoundary::AfterParamFence).expect("step runs");
}

#[test]
fn cluster_steady_state_allocates_nothing_with_audit_off() {
    assert!(!TecoConfig::default().audit, "audit must default off");
    let mut d = driver(false);
    // Warm-up sizes every device's wire buffer and the driver's scratch.
    step(&mut d);
    let off_allocs = min_allocations(5, || {
        for _ in 0..10 {
            step(&mut d);
        }
    });
    assert_eq!(off_allocs, 0, "audit-off cluster steady state must not allocate");

    // Control: the same step with the auditor ON does allocate (every
    // device's shadow map populates on the first broadcast) — proving the
    // counter watches this path and the zero above is meaningful.
    let mut audited = driver(true);
    let on_allocs = allocations(|| step(&mut audited));
    assert!(on_allocs > 0, "audited first step must populate the shadows");
    assert!(audited.cluster().audit_status().is_none(), "every device shadow must match");
}
