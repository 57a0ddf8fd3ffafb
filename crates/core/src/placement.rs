//! Per-tensor-class tiered placement policies and the session-side
//! placement engine.
//!
//! The mechanism (tiers, capacities, heat, the step-boundary migration
//! planner) lives in [`teco_mem::tier`]; this module is the policy layer:
//! which tensor class prefers which tier, and the [`PlacementEngine`] a
//! [`TecoSession`](crate::TecoSession) consults when the configured
//! [`PlacementPolicy`] is not the default.
//!
//! The default policy is [`PlacementPolicy::SingleTier`]: every tensor in
//! the CXL giant cache, exactly today's layout. A session under the
//! default constructs **no** engine — no extra allocations, no heat taps,
//! no new snapshot fields — so the default is byte-identical to the
//! pre-engine build (locked down by `tests/placement_anchor.rs`).
//!
//! A [`TieredPolicy`] splits tensors CostEfficientUSL-style into separate
//! per-class managers with a size threshold:
//!
//! - **params** (broadcast-mostly) and **grads** (write-once) stay in the
//!   giant cache, where DBA aggregation and update-mode fan-out pay off;
//! - **optimizer moments** (write-mostly, never read by the device
//!   forward/backward pass) go to plain host DRAM — coherent but
//!   uncached, full 64-byte lines, charged through the engine's
//!   [`HostLinkArbiter`] pool budget;
//! - tensors at or under the **size threshold** become device-resident
//!   (no link traffic at all), capacity permitting.
//!
//! Unpinned tensors then migrate between the giant cache and host DRAM by
//! observed heat, only at step boundaries, with every moved byte charged
//! through the arbiter.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use teco_cxl::{GiantCacheError, HostLinkArbiter, HostLinkArbiterSnapshot};
use teco_mem::tier::{
    HeatTracker, MigrationPlan, MigrationPlanner, PlacementMap, PlannerConfig, Tier,
    TierCapacities, TierError,
};
use teco_mem::{line_runs, lines_from_runs, Addr, LineData, LINE_BYTES};
use teco_sim::{Bandwidth, Bytes, Interval, SimTime};

/// Tensor classes the policy distinguishes (classified from the region
/// name the framework allocates with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorClass {
    /// Model parameters: broadcast-mostly (CPU optimizer writes, every
    /// device reads).
    Param,
    /// Gradients: write-once per step, device → CPU.
    Grad,
    /// Optimizer moments (ADAM m/v): write-mostly, CPU-only.
    OptimizerMoment,
    /// Anything else (activations, embeddings, scratch).
    Other,
}

impl TensorClass {
    /// Classify a tensor by its allocation name, prefix-matched the way
    /// the repo's workloads name regions (`"params"`, `"grads_dev3"`,
    /// `"moment_m"`, `"opt_v"`, …).
    pub fn classify(name: &str) -> TensorClass {
        let lower = name.to_ascii_lowercase();
        if lower.starts_with("param") {
            TensorClass::Param
        } else if lower.starts_with("grad") {
            TensorClass::Grad
        } else if lower.starts_with("moment") || lower.starts_with("opt") {
            TensorClass::OptimizerMoment
        } else {
            TensorClass::Other
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TensorClass::Param => "param",
            TensorClass::Grad => "grad",
            TensorClass::OptimizerMoment => "moment",
            TensorClass::Other => "other",
        }
    }
}

/// The non-default, three-tier policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieredPolicy {
    /// Accelerator-resident bytes the engine may claim (0 disables the
    /// device tier entirely).
    pub device_capacity_bytes: u64,
    /// Plain host-DRAM bytes offered to offloaded tensors.
    pub host_dram_capacity_bytes: u64,
    /// Tensors of at most this many bytes become device-resident,
    /// capacity permitting (0 turns the size rule off).
    pub device_size_threshold: u64,
    /// Send optimizer moments to plain host DRAM (the CostEfficientUSL
    /// split); `false` keeps them in the giant cache like everything else.
    pub moments_to_host_dram: bool,
    /// Heat score promoting a host-DRAM tensor into the giant cache.
    pub promote_score: u64,
    /// Heat score (at or below) demoting a giant-cache tensor to host
    /// DRAM.
    pub demote_score: u64,
    /// Host-DRAM pool bandwidth backing the engine's arbiter, GB/s.
    pub pool_bandwidth_gbps: f64,
}

impl Default for TieredPolicy {
    fn default() -> Self {
        TieredPolicy {
            device_capacity_bytes: 0,
            host_dram_capacity_bytes: 4 << 30,
            device_size_threshold: 0,
            moments_to_host_dram: true,
            promote_score: 4,
            demote_score: 0,
            pool_bandwidth_gbps: 64.0,
        }
    }
}

impl TieredPolicy {
    /// Validate the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.host_dram_capacity_bytes == 0 {
            return Err("tiered policy needs a nonzero host-DRAM capacity".into());
        }
        if self.pool_bandwidth_gbps <= 0.0 || self.pool_bandwidth_gbps.is_nan() {
            return Err("pool bandwidth must be positive".into());
        }
        self.planner_config().validate()
    }

    /// The planner thresholds this policy configures.
    pub fn planner_config(&self) -> PlannerConfig {
        PlannerConfig { promote_score: self.promote_score, demote_score: self.demote_score }
    }

    /// Tier preference order for a tensor of `class` and `bytes` size:
    /// the first tier with capacity wins.
    pub fn preference(&self, class: TensorClass, bytes: u64) -> &'static [Tier] {
        if self.device_size_threshold > 0 && bytes <= self.device_size_threshold {
            return &[Tier::Device, Tier::GiantCache, Tier::HostDram];
        }
        match class {
            TensorClass::OptimizerMoment if self.moments_to_host_dram => {
                &[Tier::HostDram, Tier::GiantCache]
            }
            _ => &[Tier::GiantCache, Tier::HostDram],
        }
    }
}

/// The user-facing placement knob on [`TecoConfig`](crate::TecoConfig).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Everything in the CXL giant cache — today's layout, and byte-for-
    /// byte today's behavior (no engine is constructed).
    #[default]
    SingleTier,
    /// The three-tier, per-class, heat-migrating policy.
    Tiered(TieredPolicy),
}

impl PlacementPolicy {
    /// Is this the default (engine-free) policy?
    pub fn is_single_tier(&self) -> bool {
        matches!(self, PlacementPolicy::SingleTier)
    }

    /// Validate the policy.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PlacementPolicy::SingleTier => Ok(()),
            PlacementPolicy::Tiered(p) => p.validate(),
        }
    }
}

/// Counters the engine accumulates (kept out of `SessionStats`, whose
/// derived encoding is digested inside committed snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementStats {
    /// Step boundaries the planner ran at.
    pub boundaries: u64,
    /// Tensors migrated (one per move).
    pub migrations: u64,
    /// Bytes moved between tiers.
    pub migrated_bytes: u64,
    /// Host-DRAM → giant-cache moves.
    pub promotions: u64,
    /// Giant-cache → host-DRAM moves.
    pub demotions: u64,
    /// Nanoseconds the pool budget spent serving migrations.
    pub migration_ns: u64,
    /// Lines written to engine-backed tiers (device + host DRAM).
    pub side_lines: u64,
    /// Bytes charged to the pool budget for host-DRAM traffic.
    pub pool_bytes: u64,
}

/// Side-tier tensors live in their own address space, far above any
/// giant-cache BAR, so an address alone identifies its owner.
pub const SIDE_BASE: u64 = 1 << 40;

/// The session-side placement engine: policy + placement map + heat +
/// planner + the pool arbiter migrations and host-DRAM traffic are
/// charged through. Constructed only for non-default policies.
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    policy: TieredPolicy,
    map: PlacementMap,
    heat: HeatTracker,
    planner: MigrationPlanner,
    arbiter: HostLinkArbiter,
    /// Per-handle span: `(base, rounded_bytes)`. Giant-cache tensors carry
    /// their real BAR base; side tensors a base in [`SIDE_BASE`] space.
    spans: Vec<(u64, u64)>,
    /// Next free side address.
    next_side: u64,
    /// Line store backing the device and host-DRAM tiers.
    store: HashMap<u64, LineData>,
    /// The engine's clock: the latest pool-grant end it has produced,
    /// used as the ready time for boundary migrations.
    clock: SimTime,
    stats: PlacementStats,
}

impl PlacementEngine {
    /// An engine for `policy` over a giant cache of `giant_cache_bytes`.
    pub fn new(policy: TieredPolicy, giant_cache_bytes: u64) -> Self {
        let caps = TierCapacities {
            device_bytes: policy.device_capacity_bytes,
            giant_cache_bytes,
            host_dram_bytes: policy.host_dram_capacity_bytes,
        };
        let planner = MigrationPlanner::new(policy.planner_config());
        let arbiter =
            HostLinkArbiter::new(Bandwidth::from_gb_per_sec(policy.pool_bandwidth_gbps), 1);
        PlacementEngine {
            policy,
            map: PlacementMap::new(caps),
            heat: HeatTracker::new(),
            planner,
            arbiter,
            spans: Vec::new(),
            next_side: SIDE_BASE,
            store: HashMap::new(),
            clock: SimTime::ZERO,
            stats: PlacementStats::default(),
        }
    }

    /// The policy.
    pub fn policy(&self) -> &TieredPolicy {
        &self.policy
    }
    /// The placement map (tier occupancy, per-tensor tiers).
    pub fn map(&self) -> &PlacementMap {
        &self.map
    }
    /// Engine counters.
    pub fn stats(&self) -> PlacementStats {
        self.stats
    }
    /// The pool arbiter (read access for reports).
    pub fn arbiter(&self) -> &HostLinkArbiter {
        &self.arbiter
    }
    /// The heat of tensor `handle` right now.
    pub fn heat_of(&self, handle: usize) -> teco_mem::tier::RegionHeat {
        self.heat.heat(handle)
    }

    /// Decide a tier for a new tensor. Walks the policy's preference
    /// order; the first tier with room wins. Giant-cache and device
    /// tensors are pinned (their backing cannot relocate); host-DRAM
    /// tensors are migration candidates.
    pub fn place(&mut self, name: &str, bytes: u64) -> Result<(usize, Tier), TierError> {
        let rounded = bytes.div_ceil(LINE_BYTES as u64) * LINE_BYTES as u64;
        let class = TensorClass::classify(name);
        let mut last = None;
        for &tier in self.policy.preference(class, rounded) {
            let pinned = tier != Tier::HostDram;
            match self.map.place(name, rounded, tier, pinned) {
                Ok(h) => return Ok((h, tier)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("preference order is never empty"))
    }

    /// Record the giant-cache BAR base of a just-placed tensor.
    pub fn bind(&mut self, handle: usize, base: u64, rounded: u64) {
        debug_assert_eq!(self.spans.len(), handle, "bind must follow place immediately");
        self.spans.push((base, rounded));
    }

    /// Allocate side-tier storage for a just-placed tensor and return its
    /// base address in [`SIDE_BASE`] space.
    pub fn bind_side(&mut self, handle: usize) -> Addr {
        debug_assert_eq!(self.spans.len(), handle, "bind must follow place immediately");
        let rounded = self.map.tensors()[handle].bytes;
        let base = self.next_side;
        self.next_side += rounded;
        self.spans.push((base, rounded));
        Addr(base)
    }

    /// Does this address belong to an engine-backed (side) tensor?
    pub fn owns(&self, a: Addr) -> bool {
        a.0 >= SIDE_BASE && self.locate(a).is_some()
    }

    /// The handle and current tier of the tensor containing `a`, if any.
    pub fn locate(&self, a: Addr) -> Option<(usize, Tier)> {
        self.spans
            .iter()
            .position(|&(base, len)| a.0 >= base && a.0 < base + len)
            .map(|h| (h, self.map.tensors()[h].tier))
    }

    /// Record write heat against the tensor containing `a` (the session's
    /// tap on its coherence-transaction stream).
    pub fn note_write(&mut self, a: Addr, bytes: u64) {
        if let Some((h, _)) = self.locate(a) {
            self.heat.record_write(h, bytes);
        }
    }

    /// Record read heat against the tensor containing `a`.
    pub fn note_read(&mut self, a: Addr, bytes: u64) {
        if let Some((h, _)) = self.locate(a) {
            self.heat.record_read(h, bytes);
        }
    }

    /// Store a run of side-tier lines starting at `base`.
    pub fn write_lines(&mut self, base: Addr, lines: &[LineData]) -> Result<(), GiantCacheError> {
        let last = Addr(base.0 + ((lines.len().max(1) - 1) * LINE_BYTES) as u64);
        let (h0, _) = self.locate(base).ok_or(GiantCacheError::NotMapped(base))?;
        let (h1, _) = self.locate(last).ok_or(GiantCacheError::NotMapped(last))?;
        if h0 != h1 {
            return Err(GiantCacheError::NotMapped(last));
        }
        for (i, l) in lines.iter().enumerate() {
            self.store.insert(base.0 + (i * LINE_BYTES) as u64, *l);
        }
        self.stats.side_lines += lines.len() as u64;
        Ok(())
    }

    /// Read a side-tier line.
    pub fn read_line(&self, a: Addr) -> Result<LineData, GiantCacheError> {
        if self.locate(a).is_none() {
            return Err(GiantCacheError::NotMapped(a));
        }
        Ok(self.store.get(&a.0).copied().unwrap_or_else(LineData::zeroed))
    }

    /// Charge `bytes` of side-tier traffic to the pool budget.
    pub fn charge_pool(&mut self, ready: SimTime, bytes: u64) -> Interval {
        let iv = self.arbiter.charge_broadcast(ready, bytes, 1);
        self.stats.pool_bytes += bytes;
        self.clock = self.clock.max(iv.end);
        iv
    }

    /// Run the step-boundary pipeline: plan migrations for the window
    /// that just finished, apply them, charge the moved bytes through the
    /// arbiter, and decay heat. A replayed boundary is a no-op (`None`) —
    /// the planner structurally refuses to plan a step twice, so the
    /// engine can never migrate mid-step or double-charge a boundary.
    pub fn step_boundary(&mut self, step: u64) -> Option<MigrationPlan> {
        let plan = match self.planner.plan(step, &self.heat, &self.map) {
            Ok(p) => p,
            Err(TierError::NotAtBoundary { .. }) => return None,
            Err(e) => unreachable!("planner only fails on boundary replay: {e}"),
        };
        self.stats.boundaries += 1;
        if !plan.moves.is_empty() {
            self.map.apply(&plan).expect("plan was built against this map");
            for mv in &plan.moves {
                self.stats.migrations += 1;
                self.stats.migrated_bytes += mv.bytes;
                match mv.to {
                    Tier::GiantCache => self.stats.promotions += 1,
                    Tier::HostDram => self.stats.demotions += 1,
                    Tier::Device => {}
                }
            }
            let iv = self.arbiter.charge_broadcast(self.clock, plan.bytes(), 1);
            self.stats.migration_ns += (iv.end - iv.start).as_ns();
            self.clock = iv.end;
        }
        self.heat.end_step();
        Some(plan)
    }

    /// Checkpoint image; the store is sorted so the encoding is
    /// deterministic.
    pub fn snapshot(&self) -> PlacementEngineSnapshot {
        PlacementEngineSnapshot {
            policy: self.policy.clone(),
            map: self.map.clone(),
            heat: self.heat.clone(),
            planner: self.planner.clone(),
            arbiter: self.arbiter.snapshot(),
            spans: self.spans.clone(),
            next_side: self.next_side,
            store: line_runs(&self.store),
            clock: self.clock,
            stats: self.stats,
        }
    }

    /// Rebuild an engine from a snapshot; every subsequent placement,
    /// plan, and pool grant reproduces the original bit-for-bit. A store
    /// line that is not one cache line long, or an arbiter image
    /// [`HostLinkArbiter::restore`] rejects, is an error.
    pub fn from_snapshot(s: &PlacementEngineSnapshot) -> Result<Self, String> {
        let store = lines_from_runs("placement store line", &s.store)?;
        Ok(PlacementEngine {
            policy: s.policy.clone(),
            map: s.map.clone(),
            heat: s.heat.clone(),
            planner: s.planner.clone(),
            arbiter: HostLinkArbiter::restore(&s.arbiter)?,
            spans: s.spans.clone(),
            next_side: s.next_side,
            store,
            clock: s.clock,
            stats: s.stats,
        })
    }
}

/// Serialized form of a [`PlacementEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementEngineSnapshot {
    /// The policy the engine was built with.
    pub policy: TieredPolicy,
    /// Tensor→tier accounting.
    pub map: PlacementMap,
    /// Per-region heat.
    pub heat: HeatTracker,
    /// The migration planner (thresholds + last planned boundary).
    pub planner: MigrationPlanner,
    /// The pool arbiter.
    pub arbiter: HostLinkArbiterSnapshot,
    /// Per-handle `(base, rounded_bytes)` spans.
    pub spans: Vec<(u64, u64)>,
    /// Next free side address.
    pub next_side: u64,
    /// Side-tier lines as `(first address, bytes)` runs, ascending.
    pub store: Vec<(u64, Bytes)>,
    /// The engine clock.
    pub clock: SimTime,
    /// Engine counters.
    pub stats: PlacementStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_name_prefix() {
        assert_eq!(TensorClass::classify("params"), TensorClass::Param);
        assert_eq!(TensorClass::classify("param_dev3"), TensorClass::Param);
        assert_eq!(TensorClass::classify("grads"), TensorClass::Grad);
        assert_eq!(TensorClass::classify("moment_m"), TensorClass::OptimizerMoment);
        assert_eq!(TensorClass::classify("opt_v"), TensorClass::OptimizerMoment);
        assert_eq!(TensorClass::classify("embeddings"), TensorClass::Other);
    }

    #[test]
    fn default_policy_is_single_tier_and_serializes_as_such() {
        let p = PlacementPolicy::default();
        assert!(p.is_single_tier());
        let json = serde_json::to_string(&p).unwrap();
        let back: PlacementPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let t = PlacementPolicy::Tiered(TieredPolicy::default());
        let json = serde_json::to_string(&t).unwrap();
        let back: PlacementPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn preference_splits_classes() {
        let p = TieredPolicy::default();
        assert_eq!(p.preference(TensorClass::Param, 1 << 20)[0], Tier::GiantCache);
        assert_eq!(p.preference(TensorClass::Grad, 1 << 20)[0], Tier::GiantCache);
        assert_eq!(p.preference(TensorClass::OptimizerMoment, 1 << 20)[0], Tier::HostDram);
        let keep = TieredPolicy { moments_to_host_dram: false, ..TieredPolicy::default() };
        assert_eq!(keep.preference(TensorClass::OptimizerMoment, 1 << 20)[0], Tier::GiantCache);
        let dev = TieredPolicy {
            device_capacity_bytes: 1 << 20,
            device_size_threshold: 4096,
            ..TieredPolicy::default()
        };
        assert_eq!(dev.preference(TensorClass::Other, 4096)[0], Tier::Device);
        assert_eq!(dev.preference(TensorClass::Other, 8192)[0], Tier::GiantCache);
    }

    #[test]
    fn engine_places_binds_and_stores() {
        let policy = TieredPolicy {
            device_capacity_bytes: 1 << 16,
            device_size_threshold: 4096,
            ..TieredPolicy::default()
        };
        let mut e = PlacementEngine::new(policy, 1 << 20);
        let (hp, tp) = e.place("params", 8192).unwrap();
        e.bind(hp, 0, 8192);
        assert_eq!(tp, Tier::GiantCache);
        let (hm, tm) = e.place("moment_m", 8192).unwrap();
        let base_m = e.bind_side(hm);
        assert_eq!(tm, Tier::HostDram);
        let (he, te) = e.place("embed", 4096).unwrap();
        let base_e = e.bind_side(he);
        assert_eq!(te, Tier::Device);
        assert!(e.owns(base_m) && e.owns(base_e));
        assert!(!e.owns(Addr(0)), "giant-cache addresses are not engine-backed");

        let mut l = LineData::zeroed();
        l.set_word(0, 7);
        e.write_lines(base_m, std::slice::from_ref(&l)).unwrap();
        assert_eq!(e.read_line(base_m).unwrap(), l);
        assert_eq!(e.read_line(Addr(base_m.0 + 64)).unwrap(), LineData::zeroed());
        assert!(e.read_line(Addr(SIDE_BASE + (1 << 30))).is_err());
    }

    #[test]
    fn boundary_migrates_and_charges_pool_once() {
        let mut e = PlacementEngine::new(TieredPolicy::default(), 1 << 20);
        let (hm, _) = e.place("moment_m", 4096).unwrap();
        let base = e.bind_side(hm);
        for _ in 0..8 {
            e.note_write(base, 64);
        }
        let plan = e.step_boundary(0).expect("fresh boundary plans");
        assert_eq!(plan.moves.len(), 1, "hot moment promoted");
        assert_eq!(e.map().tensors()[hm].tier, Tier::GiantCache);
        let s = e.stats();
        assert_eq!((s.promotions, s.migrations, s.migrated_bytes), (1, 1, 4096));
        assert!(s.migration_ns > 0, "migration crossed the pool budget");
        assert!(e.step_boundary(0).is_none(), "replayed boundary is a no-op");
        assert_eq!(e.stats().migrations, 1, "no double charge");
        // Cold again after decay: demoted at a later boundary.
        for step in 1..8 {
            e.step_boundary(step);
        }
        assert_eq!(e.map().tensors()[hm].tier, Tier::HostDram, "cold tensor demoted");
        assert_eq!(e.stats().demotions, 1);
    }

    #[test]
    fn snapshot_roundtrip_replays_identically() {
        let mut a = PlacementEngine::new(TieredPolicy::default(), 1 << 20);
        let (hm, _) = a.place("moment_m", 4096).unwrap();
        let base = a.bind_side(hm);
        let mut l = LineData::zeroed();
        l.set_word(3, 0xAB);
        a.write_lines(base, std::slice::from_ref(&l)).unwrap();
        a.charge_pool(SimTime::ZERO, 4096);
        for _ in 0..8 {
            a.note_write(base, 64);
        }
        a.step_boundary(0);
        let json = serde_json::to_string(&a.snapshot()).unwrap();
        let mut b = PlacementEngine::from_snapshot(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(b.read_line(base).unwrap(), l);
        for step in 1..6 {
            let pa = a.step_boundary(step);
            let pb = b.step_boundary(step);
            assert_eq!(pa, pb, "step {step}");
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    #[test]
    fn from_snapshot_rejects_a_store_line_that_is_not_one_line_long() {
        let mut e = PlacementEngine::new(TieredPolicy::default(), 1 << 20);
        let (hm, _) = e.place("moment_m", 4096).unwrap();
        let base = e.bind_side(hm);
        e.write_lines(base, &[LineData::zeroed()]).unwrap();
        let mut s = e.snapshot();
        s.store[0].1.pop();
        let err = PlacementEngine::from_snapshot(&s).unwrap_err();
        assert!(err.contains("has 63 bytes, not a whole number"), "{err}");
    }

    #[test]
    fn policy_validation() {
        assert!(PlacementPolicy::SingleTier.validate().is_ok());
        assert!(PlacementPolicy::Tiered(TieredPolicy::default()).validate().is_ok());
        let bad = TieredPolicy { demote_score: 9, promote_score: 4, ..TieredPolicy::default() };
        assert!(PlacementPolicy::Tiered(bad).validate().is_err());
        let bad = TieredPolicy { host_dram_capacity_bytes: 0, ..TieredPolicy::default() };
        assert!(bad.validate().is_err());
    }
}
