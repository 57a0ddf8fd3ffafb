//! # teco-cxl — the CXL interconnect with TECO's extensions
//!
//! This crate implements the hardware side of the paper's contribution:
//!
//! - [`config`]: the evaluation platform's link parameters (PCIe 3.0 ×16,
//!   94.3 % CXL efficiency, 128-entry pending queue);
//! - [`packet`]: CXL packets, opcodes, and the link layer's payload packing
//!   (including the reserved header bit flagging DBA-aggregated payloads);
//! - [`coherence`]: the MESI engine with the **update-protocol extension**
//!   (Fig. 4/5) and its invalidation-mode fallback;
//! - [`snoop`]: the sharer directory the invalidation fallback needs — and
//!   the memory cost the update mode avoids;
//! - [`dba`]: **Dirty-Byte Aggregation** — the Aggregator and Disaggregator
//!   of §V, bit-exact;
//! - [`giant_cache`]: the BAR-configured giant-cache region of accelerator
//!   memory with the device-side merge path;
//! - [`link`]: the full-duplex serial link with per-direction volume and
//!   busy-time accounting, charging a stream of equal lines as one
//!   closed-form run;
//! - [`fence`] — `CXLFENCE()` (with an optional timeout);
//! - [`fault`]: deterministic link-level fault injection (CRC/replay,
//!   transient stalls, poison) and the recovery statistics;
//! - [`ras`]: pool-media RAS — seeded *persistent* uncorrectable faults,
//!   a budgeted patrol scrubber, and page-retirement accounting;
//! - [`audit`]: the paranoid invariant auditor — cross-module consistency
//!   checks walked at fence points when a session opts in;
//! - [`arbiter`]: the shared host-DRAM budget arbitrated round-robin across
//!   the devices of a multi-accelerator cluster, with update-mode broadcast
//!   fan-out accounting;
//! - [`collective`]: pool-staged inter-host collectives (reduce-scatter /
//!   all-gather / fused all-reduce through the shared pool, one write +
//!   N−1 reads) and the NCCL-style ring all-reduce baseline they are
//!   measured against.

pub mod arbiter;
pub mod audit;
pub mod coherence;
pub mod collective;
pub mod config;
pub mod controller;
pub mod dba;
pub mod fault;
pub mod fence;
pub mod flit;
pub mod flow;
pub mod giant_cache;
pub mod link;
pub mod packet;
pub mod ras;
pub mod refmaps;
pub mod snoop;

pub use arbiter::{HostAccount, HostLinkArbiter, HostLinkArbiterSnapshot};
pub use audit::{
    audit_all, audit_cache, audit_cache_coherence, audit_coherence, audit_link, audit_shadow,
    AuditError,
};
pub use coherence::{
    Agent, CoherenceEngine, CoherenceSnapshot, LineState, MesiState, ProtocolMode, TrafficStats,
};
pub use collective::{
    ring_all_reduce, shard_range, ChunkedCollective, ChunkedCollectiveSnapshot, ChunkedOp,
    CollectiveConfig, CollectiveError, CollectiveFaultConfig, CollectiveFaultStats,
    CollectiveOutcome, CollectivePhase, CollectiveStats, HostKill, PoolCollective,
    PoolCollectiveSnapshot, RingOutcome,
};
pub use config::{CxlConfig, PcieGen};
pub use controller::{
    run_controller, ControllerError, ControllerResult, LineCompletion, LineRequest,
};
pub use dba::{
    merged_reference, Aggregator, AggregatorSnapshot, DbaRegister, Disaggregator,
    DisaggregatorSnapshot,
};
pub use fault::{
    line_checksum, FaultConfig, FaultInjector, FaultInjectorSnapshot, FaultStats, TransferFault,
    PAYLOAD_FLIP,
};
pub use fence::{CxlFence, FenceDeadline, FenceStats, FenceTimeout, FENCE_CHECK_OVERHEAD};
pub use flit::{
    unpack, unpack_with, wire_bytes_for_packets, Flit, FlitError, FlitPacker, PacketView, Slot,
    FLIT_BYTES, SLOTS_PER_FLIT, SLOT_BYTES,
};
pub use flow::{CreditLoop, FlowConfig};
pub use giant_cache::{GiantCache, GiantCacheError, GiantCacheSnapshot};
pub use link::{BusyTime, CxlLink, CxlLinkSnapshot, Direction, LinkError, TransferOutcome};
pub use packet::{wire_bytes_for_lines, CxlPacket, Opcode, HEADER_BYTES, MAX_PAYLOAD_BYTES};
pub use ras::{MediaRas, MediaRasSnapshot, RasConfig, RasStats};
pub use refmaps::{HashCoherenceEngine, HashGiantCache, HashSnoopFilter};
pub use snoop::{
    full_directory_bytes, SnoopFilter, SnoopFilterSnapshot, SnoopStats, BYTES_PER_ENTRY,
};
