//! Golden-file tests for this crate's markdown renderers.
//!
//! Each renderer's output is diffed byte-for-byte against a fixture under
//! `tests/golden/`. The renderers promise a fixed shape (every counter
//! always present, fixed column sets) precisely so reports diff cleanly;
//! these tests pin that promise. Regenerate with
//! `TECO_BLESS=1 cargo test -p teco-offload --test report_golden` and
//! review the fixture diff.

use std::path::PathBuf;

use teco_cxl::FaultStats;
use teco_offload::{fault_report_md, timing_report, Calibration};
use teco_testsupport::golden::assert_golden;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

#[test]
fn timing_report_matches_fixture() {
    assert_golden(fixture("timing_report.md"), &timing_report(&Calibration::paper()));
}

#[test]
fn fault_report_clean_matches_fixture() {
    assert_golden(fixture("fault_report_clean.md"), &fault_report_md(&FaultStats::default(), &[]));
}

#[test]
fn fault_report_dirty_matches_fixture() {
    let stats = FaultStats {
        crc_errors: 12,
        retries: 17,
        replay_exhausted: 1,
        stalls: 4,
        stall_ns: 400,
        replay_ns: 2_310,
        poisoned_lines: 3,
        quarantined_lines: 3,
        checksum_mismatches: 9,
        full_line_retries: 9,
        degraded_regions: 1,
        fence_timeouts: 0,
    };
    let degraded = vec!["params".to_string(), "activations".to_string()];
    assert_golden(fixture("fault_report_dirty.md"), &fault_report_md(&stats, &degraded));
}
