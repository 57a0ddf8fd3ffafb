//! # teco-offload — ZeRO-Offload and TECO training-step simulation
//!
//! The evaluation engine of the reproduction: steady-state training-step
//! schedules for ZeRO-Offload, TECO-CXL, TECO-Reduction, and the
//! invalidation-protocol ablation ([`schedule`]); the calibrated platform
//! timing model ([`timing`]); the live-training DBA convergence coupling
//! ([`convergence`]); and the experiment drivers that regenerate every
//! table and figure ([`experiments`]).

pub mod autotune;
pub mod baselines;
pub mod convergence;
pub mod cost;
pub mod doublebuffer;
pub mod experiments;
pub mod memory;
pub mod multistep;
pub mod report;
pub mod schedule;
pub mod sweep;
pub mod timing;

pub use autotune::{
    autotune_giant_cache, expected_improvement, giant_cache_working_set, minimize, BoResult,
    GaussianProcess, GiantCacheTune,
};
pub use baselines::{dpu_hiding_fraction, simulate_prefetch_step, simulate_zero_offload_dpu};
pub use convergence::{dba_merge_bits, ConvergenceConfig, ConvergenceResult, DbaSchedule, Task};
pub use cost::DatacenterModel;
pub use doublebuffer::{double_buffer, DoubleBufferResult};
pub use memory::{cpu_layout, gpu_layout, CpuLayout, GpuLayout};
pub use multistep::{simulate_dpu_run, simulate_run, RunResult};
pub use report::{fault_report_md, md_table, timing_report};
pub use schedule::{
    dba_payload_fraction, simulate_step, simulate_teco_dba, Breakdown, StepResult, System,
};
pub use sweep::{sweep, sweep_with_workers};
pub use timing::Calibration;
