//! # teco-mem — memory-subsystem models
//!
//! Substrate crate for the TECO (SC'24) reproduction:
//!
//! - [`mod@line`]: 64-byte cache-line payloads, addresses, and the Fig. 2
//!   byte-change taxonomy ([`ByteChange`], [`classify_change`]);
//! - [`region`]: BAR-style address-region registry (the Aggregator's
//!   per-region address registers);
//! - [`cache`]: set-associative write-back caches and the Table II gem5-avx
//!   L1/L2/L3 hierarchy, producing the main-memory writeback stream the CXL
//!   home agent inspects;
//! - [`trace`]: vectorized-optimizer sweep generators that convert a
//!   parameter-update kernel into a timestamped writeback trace (the gem5
//!   trace-collection substitute), plus chunk-granular schedules for
//!   billion-parameter regions;
//! - [`dram`]: a bank/row-state DRAM model (Ramulator substitute) for the
//!   §VIII-D Disaggregator read-modify-write overhead study;
//! - [`remap`]: the page-retirement remap table — logical lines re-homed
//!   to spare physical slots after persistent media faults;
//! - [`tier`]: tiered-placement mechanism — device / giant-cache /
//!   host-DRAM capacities, per-region heat tracking, and the deterministic
//!   step-boundary migration planner.

pub mod arena;
pub mod cache;
pub mod dram;
pub mod line;
pub mod region;
pub mod remap;
pub mod tier;
pub mod trace;

pub use arena::{LineBitmap, LineIndexer, LineSlab, LineSlot, CHUNK_LINES};
pub use cache::{AccessResult, Cache, CacheConfig, CacheStats, Hierarchy, MemWriteback};
pub use dram::{Dir, Dram, DramAccess, DramConfig, DramResult};
pub use line::{
    classify_change, line_runs, lines_as_bytes, lines_as_bytes_mut, lines_for_bytes,
    lines_from_bytes, lines_from_runs, Addr, ByteChange, LineData, LineLenError, LINE_BYTES,
    WORDS_PER_LINE, WORD_BYTES,
};
pub use region::{Region, RegionId, RegionMap};
pub use remap::{RemapError, RemapSnapshot, RemapTable};
pub use tier::{
    HeatTracker, MigrationMove, MigrationPlan, MigrationPlanner, PlacedTensor, PlacementMap,
    PlannerConfig, RegionHeat, Tier, TierCapacities, TierError,
};
pub use trace::{Chunk, ChunkedSweep, MemAccess, SweepGen, Writeback, WritebackTrace};
