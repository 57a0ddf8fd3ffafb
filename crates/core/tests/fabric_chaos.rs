//! Acceptance suite for the fabric chaos harness (ISSUE 9):
//!
//! - zero-fault chaos is byte-identical to the PR 8 fault-free fabric;
//! - a kill at **every** chunk boundary of an H=4 all-reduce is
//!   detected by the watchdog and the regrouped fabric reduces
//!   bit-identically to a never-failed H=3 fabric, with byte-identical
//!   final parameters;
//! - a readmitted host converges byte-identically;
//! - zero poisoned bytes are admitted under any swept media-fault rate;
//! - a mid-collective snapshot at a chunk boundary resumes
//!   bit-identically for H ∈ {2, 4} (satellite: fabric snapshot/resume
//!   inside the all-reduce).

use teco_core::fabric_chaos::{run_fabric_chaos, ChunkPoint, FabricChaosWorkload, HostKillSpec};
use teco_core::{run_resumed, run_uninterrupted};
use teco_cxl::CollectivePhase;

const PHASES: [CollectivePhase; 2] = [CollectivePhase::ReduceScatter, CollectivePhase::AllGather];

/// A small chaos workload with fine chunking (64-byte chunks over the
/// 512-byte pooled accumulator) so every phase has H chunk boundaries
/// per shard, and few steps so the boundary sweep stays fast.
fn small_chaos(hosts: usize, seed: u64) -> FabricChaosWorkload {
    let mut w = FabricChaosWorkload::small(hosts, 2, seed);
    w.fabric.base.steps = 4;
    w.fabric.collective.chunk_bytes = 64;
    w
}

#[test]
fn zero_fault_chaos_is_byte_identical_to_the_fabric_path() {
    for hosts in [1usize, 2, 4] {
        let w = small_chaos(hosts, 21);
        assert!(!w.chunked(), "nothing armed must route through the plain fabric loop");
        let chaos = run_fabric_chaos(&w).unwrap();
        let fabric = run_uninterrupted(&w.fabric).unwrap();
        assert_eq!(
            serde_json::to_string(&chaos.report).unwrap(),
            serde_json::to_string(&fabric.report).unwrap(),
            "H={hosts}: zero-fault chaos report must be byte-identical to PR 8's"
        );
        assert!(chaos.detections.is_empty());
    }
}

#[test]
fn kill_at_every_chunk_boundary_regroups_bit_identically_to_h3() {
    let golden = run_fabric_chaos(&small_chaos(3, 33)).unwrap();
    let kill_step = 1u64;
    // 512 B / 4 shards = 128 B per shard = 2 chunks of 64 B → 8 flat
    // items per phase at H=4.
    for phase in PHASES {
        for chunk in 0..8u64 {
            let w = small_chaos(4, 33).with_kill(HostKillSpec {
                host: 3,
                step: kill_step,
                phase,
                chunk,
            });
            let out = run_fabric_chaos(&w).unwrap();
            assert_eq!(out.detections.len(), 1, "{phase:?} chunk {chunk}");
            let d = out.detections[0];
            assert_eq!((d.host, d.step, d.phase), (3, kill_step, phase));
            assert!(d.time_ns > 0);
            assert_eq!(out.fstats.watchdog_timeouts, 1);
            assert_eq!(out.fstats.hosts_lost, 1);
            assert_eq!(out.regroups, 1);
            assert_eq!(out.live_hosts, 3);
            assert_eq!(out.poisoned_admitted, 0);
            // Rung 2: from the kill step on, every reduced gradient is
            // bit-identical to the never-failed H=3 fabric's…
            assert_eq!(
                out.step_grad_checksums[kill_step as usize..],
                golden.step_grad_checksums[kill_step as usize..],
                "{phase:?} chunk {chunk}: regrouped reduce diverged from the H=3 run"
            );
            // …and the final parameters are byte-identical outright
            // (the shared draw stream never depended on the dead host).
            assert_eq!(out.param_checksum, golden.param_checksum, "{phase:?} chunk {chunk}");
        }
    }
}

#[test]
fn readmitted_host_converges_byte_identically() {
    let mut w = small_chaos(4, 44);
    w.fabric.base.steps = 6;
    let mut golden_w = small_chaos(4, 44);
    golden_w.fabric.base.steps = 6;
    let golden = run_uninterrupted(&golden_w).unwrap().report;

    let w = w
        .with_kill(HostKillSpec {
            host: 3,
            step: 1,
            phase: CollectivePhase::ReduceScatter,
            chunk: 2,
        })
        .with_readmit_after(1);
    let out = run_fabric_chaos(&w).unwrap();
    assert_eq!(out.readmissions, 1);
    assert_eq!(out.live_hosts, 4, "the lost host must be back in the live set");
    // The readmitted host's replicas hold exactly the bytes they would
    // hold had it never died: same params (caught up from pooled
    // state), same last-step gradient lines (fast-forwarded streams).
    assert_eq!(
        out.device_checksums, golden.device_checksums,
        "readmitted host's giant-cache content diverged from the never-failed run"
    );
    assert_eq!(out.param_checksum, golden.param_checksum);
    // Post-readmission reduces include the returned host again.
    assert_eq!(out.report.host_reports.len(), 4);
}

#[test]
fn no_poison_admitted_under_any_swept_media_rate() {
    let golden = run_fabric_chaos(&small_chaos(4, 55)).unwrap();
    for rate in [0.25, 1.0, 4.0] {
        let w = small_chaos(4, 55).with_media_faults(rate);
        let out = run_fabric_chaos(&w).unwrap();
        assert_eq!(out.poisoned_admitted, 0, "rate {rate}: poison reached a reduction");
        // Detected staging faults are re-served from the pristine source
        // replica, so the reduced data never moves.
        assert_eq!(
            out.step_grad_checksums, golden.step_grad_checksums,
            "rate {rate}: media faults changed the reduced bytes"
        );
        assert_eq!(out.param_checksum, golden.param_checksum);
        if rate >= 1.0 {
            assert!(out.ras.faults_injected > 0, "rate {rate} injected nothing");
        }
    }
}

#[test]
fn retirement_pressure_trips_the_ring_fallback_at_the_fabric_level() {
    let golden = run_fabric_chaos(&small_chaos(4, 66)).unwrap();
    let w = small_chaos(4, 66).with_media_faults(8.0).with_ring_fallback(1);
    let out = run_fabric_chaos(&w).unwrap();
    assert!(out.fstats.ring_fallbacks > 0, "retirement pressure never tripped rung 3");
    assert_eq!(out.poisoned_admitted, 0);
    // The ring fallback reduces the same data, just over a different
    // topology.
    assert_eq!(out.step_grad_checksums, golden.step_grad_checksums);
    assert_eq!(out.param_checksum, golden.param_checksum);
}

#[test]
fn mid_collective_resume_is_bit_identical_for_h2_and_h4() {
    for hosts in [2usize, 4] {
        let w = small_chaos(hosts, 77).with_port_fault_rate(0.25);
        let baseline = run_uninterrupted(&w).unwrap();
        for phase in PHASES {
            for chunk in [0u64, 1, 3] {
                let at = ChunkPoint { step: 1, phase, chunk };
                let resumed = run_resumed(&w, at).unwrap();
                assert_eq!(resumed.snapshots_taken, 1, "H={hosts} {phase:?} chunk {chunk}");
                assert_eq!(resumed.restores, 1);
                assert!(resumed.snapshot_bytes > 0);
                assert_eq!(
                    serde_json::to_string(&resumed.report).unwrap(),
                    serde_json::to_string(&baseline.report).unwrap(),
                    "H={hosts} {phase:?} chunk {chunk}: mid-collective resume diverged"
                );
            }
        }
    }
}

#[test]
fn zero_fault_chunked_data_matches_the_plain_path() {
    // The chunk-granular engine and the closed-form collective must
    // agree on every piece of training data (timing models differ).
    for hosts in [2usize, 3, 4] {
        let w = small_chaos(hosts, 88);
        let plain = run_fabric_chaos(&w).unwrap();
        let chunked = run_uninterrupted(&w).unwrap().report;
        assert_eq!(chunked.step_grad_checksums, plain.step_grad_checksums);
        assert_eq!(chunked.param_checksum, plain.param_checksum);
        assert_eq!(chunked.device_checksums, plain.device_checksums);
        assert_eq!(chunked.report.global_grad_checksum, plain.report.global_grad_checksum);
        assert_eq!(chunked.report.pool_port_bytes, plain.report.pool_port_bytes);
        assert_eq!(chunked.report.pool_media_bytes, plain.report.pool_media_bytes);
    }
}
