//! # teco-sim — simulation kernel
//!
//! Foundation crate for the TECO (SC'24) reproduction. Provides:
//!
//! - [`SimTime`] / [`Bandwidth`]: exact integer-picosecond time and link-rate
//!   arithmetic shared by every model in the workspace;
//! - [`SerialServer`] / [`BoundedServer`]: queueing primitives for serial
//!   buses (CXL is a serial link) and bounded pending queues (the
//!   128-entry CXL controller queue), which take a run of equal jobs in
//!   closed form;
//! - [`SimRng`]: explicitly-seeded, forkable randomness so every experiment
//!   is reproducible;
//! - [`encode_snapshot`] / [`decode_snapshot`]: the checksummed checkpoint
//!   envelope every layer's snapshot travels in, with [`Bytes`] for the
//!   byte payloads inside it.
//!
//! Nothing in this crate knows about CXL or deep learning; it is the generic
//! substrate the higher crates (`teco-mem`, `teco-cxl`, `teco-offload`)
//! build on.

pub mod hash;
pub mod resource;
pub mod rng;
pub mod snapshot;
pub mod time;

pub use hash::{fnv_fold, FNV_SEED};
pub use resource::{
    BoundedServer, BoundedServerSnapshot, Interval, SerialServer, SerialServerSnapshot,
};
pub use rng::SimRng;
pub use snapshot::{
    check_runs, decode_snapshot, encode_snapshot, snapshot_checksum, Base64Error, Bytes,
    SnapshotError, SNAPSHOT_HEADER_BYTES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use time::{Bandwidth, SimTime};
