//! # teco-core — the public TECO API
//!
//! The paper's user-visible surface (§VI): a [`TecoConfig`] carrying the
//! two DBA hyperparameters (`act_aft_steps`, `dirty_bytes`) plus platform
//! settings, and a [`TecoSession`] that owns the full hardware stack
//! (coherence engine, Aggregator, giant cache + Disaggregator, CXL link,
//! `CXLFENCE`) and exposes:
//!
//! - [`TecoSession::check_activation`] — Listing 1's one user-facing call,
//!   made once per training step after `loss.backward()`;
//! - tensor mapping into the giant-cache domain
//!   ([`TecoSession::alloc_tensor`]);
//! - the functional parameter/gradient line paths
//!   ([`TecoSession::push_param_line`], [`TecoSession::push_grad_line`])
//!   used by examples and integration tests — byte-exact aggregation and
//!   device-side merge included;
//! - the two per-step fences ([`TecoSession::cxlfence_params`],
//!   [`TecoSession::cxlfence_grads`]) and their timeout-aware variants
//!   ([`TecoSession::try_cxlfence_params`],
//!   [`TecoSession::try_cxlfence_grads`]);
//! - the fault/recovery report ([`TecoSession::fault_report`],
//!   [`TecoSession::degraded_regions`]) when the link fault model is on.
//!
//! For whole-training-run *timing* simulation use `teco-offload`; for live
//! convergence-with-DBA training use `teco_offload::convergence`.

pub mod churn;
pub mod cluster;
pub mod config;
pub mod fabric;
pub mod fabric_chaos;
pub mod placement;
pub mod resume;
pub mod session;
pub mod trainer;

pub use churn::{
    churn_grad_line, churn_param_line, run_churn, ChurnDetection, ChurnOutcome, ChurnWorkload,
    KillSpec,
};
pub use cluster::{
    ClusterConfig, ClusterDriver, ClusterReport, ClusterSession, ClusterSnapshot, ClusterWorkload,
    ClusterWorkloadSnapshot, CpuPool, CpuPoolSnapshot, HostLinkReport,
};
pub use config::TecoConfig;
pub use fabric::{FabricDriver, FabricError, FabricReport, FabricSnapshot, FabricWorkload};
pub use fabric_chaos::{
    run_fabric_chaos, ChaosDetection, ChunkPoint, FabricChaosOutcome, FabricChaosWorkload,
    HostKillSpec,
};
pub use placement::{
    PlacementEngine, PlacementEngineSnapshot, PlacementPolicy, PlacementStats, TensorClass,
    TieredPolicy,
};
pub use resume::{
    run_resumed, run_uninterrupted, KillPoint, ResumeReport, ResumeWorkload, RunOutcome,
    StepBoundary, WorkloadSnapshot,
};
pub use session::{SessionError, SessionSnapshot, SessionStats, TecoSession};
pub use trainer::{TecoTrainer, TrainStepReport, TrainerSnapshot};
