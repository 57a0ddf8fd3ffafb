//! Snoop filter (coherence directory) for the invalidation protocol.
//!
//! §IV-A2: "One challenge to designing a giant cache is the large size of
//! snoop filter (or coherence directory) as the sharer information of
//! individual cache lines should be maintained in the filter. TECO does not
//! have the snoop filter design problem" — in update mode the clear
//! producer-consumer relationship makes sharer tracking unnecessary. This
//! module provides the directory the invalidation fallback needs, plus the
//! memory-overhead accounting that quantifies what update mode saves.
//!
//! Sharer bytes for lines inside registered regions live in a dense,
//! lazily chunked slab addressed by [`LineSlot::Dense`] arithmetic; lines
//! outside every region (standalone uses with arbitrary addresses) fall
//! back to a hash-map spillover.

use crate::coherence::Agent;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use teco_mem::{Addr, LineBitmap, LineIndexer, LineSlab, LineSlot};

/// Bit flags for the two possible sharers.
const CPU_BIT: u8 = 0b01;
const DEV_BIT: u8 = 0b10;

/// Per-entry storage cost in a realistic directory: tag + sharer vector +
/// state ≈ 8 bytes per tracked line.
pub const BYTES_PER_ENTRY: u64 = 8;

/// Occupancy snapshot of a [`SnoopFilter`] — the §IV-A2 directory-cost
/// accounting, split by storage class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopStats {
    /// Lines currently tracked (dense + spillover).
    pub entries: usize,
    /// Tracked lines held in the dense region slab.
    pub dense_entries: usize,
    /// Tracked lines held in the hash-map spillover.
    pub spill_entries: usize,
    /// Dense slots available (lines covered by registered regions).
    pub dense_slots: usize,
    /// High-water mark of tracked lines.
    pub peak_entries: usize,
    /// Directory storage at the peak, in bytes.
    pub peak_bytes: u64,
}

/// A sharer directory: dense slab over registered regions plus a keyed
/// spillover for everything else.
#[derive(Debug, Clone)]
pub struct SnoopFilter {
    indexer: LineIndexer,
    dense: LineSlab<u8>,
    /// Dense lines with a nonzero sharer byte (maintains the occupancy
    /// count the hash map used to give us via `len()`).
    dense_occupied: LineBitmap,
    spill: HashMap<u64, u8>,
    peak_entries: usize,
}

impl Default for SnoopFilter {
    fn default() -> Self {
        SnoopFilter {
            indexer: LineIndexer::new(),
            dense: LineSlab::new(1, 0),
            dense_occupied: LineBitmap::new(),
            spill: HashMap::new(),
            peak_entries: 0,
        }
    }
}

impl SnoopFilter {
    /// Empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a region so its lines use the dense slab. Overlapping or
    /// duplicate registrations are ignored (those lines keep spilling).
    pub fn register_region(&mut self, base: Addr, bytes: u64) {
        if self.indexer.add_span(base, bytes) {
            self.dense.grow_lines(self.indexer.slots());
            self.dense_occupied.grow(self.indexer.slots());
        }
    }

    /// Resolve the line containing `addr` to its storage slot.
    #[inline]
    pub fn slot_of(&self, addr: Addr) -> LineSlot {
        self.indexer.resolve(addr)
    }

    fn bit(a: Agent) -> u8 {
        match a {
            Agent::Cpu => CPU_BIT,
            Agent::Device => DEV_BIT,
        }
    }

    #[inline]
    fn bump_peak(&mut self) {
        self.peak_entries = self.peak_entries.max(self.entries());
    }

    /// Record `a` as a sharer of the line at a pre-resolved slot.
    pub fn add_sharer_at(&mut self, slot: LineSlot, a: Agent) {
        match slot {
            LineSlot::Dense(i) => {
                let e = self.dense.get_mut(i);
                *e |= Self::bit(a);
                self.dense_occupied.set(i);
            }
            LineSlot::Spill(line) => {
                *self.spill.entry(line).or_insert(0) |= Self::bit(a);
            }
        }
        self.bump_peak();
    }

    /// Record `a` as the sole owner (others dropped) — a ReadOwn result.
    pub fn set_exclusive_at(&mut self, slot: LineSlot, a: Agent) {
        match slot {
            LineSlot::Dense(i) => {
                *self.dense.get_mut(i) = Self::bit(a);
                self.dense_occupied.set(i);
            }
            LineSlot::Spill(line) => {
                self.spill.insert(line, Self::bit(a));
            }
        }
        self.bump_peak();
    }

    /// Remove `a` from the sharers; drops the entry when no sharers remain.
    pub fn remove_sharer_at(&mut self, slot: LineSlot, a: Agent) {
        match slot {
            LineSlot::Dense(i) => {
                if self.dense_occupied.get(i) {
                    let e = self.dense.get_mut(i);
                    *e &= !Self::bit(a);
                    if *e == 0 {
                        self.dense_occupied.clear(i);
                    }
                }
            }
            LineSlot::Spill(line) => {
                if let Some(e) = self.spill.get_mut(&line) {
                    *e &= !Self::bit(a);
                    if *e == 0 {
                        self.spill.remove(&line);
                    }
                }
            }
        }
    }

    /// Sharers at a pre-resolved slot, as (cpu, device) booleans.
    pub fn sharers_at(&self, slot: LineSlot) -> (bool, bool) {
        let e = match slot {
            LineSlot::Dense(i) => self.dense.get(i),
            LineSlot::Spill(line) => self.spill.get(&line).copied().unwrap_or(0),
        };
        (e & CPU_BIT != 0, e & DEV_BIT != 0)
    }

    /// Record `a` as a sharer of the line.
    pub fn add_sharer(&mut self, addr: Addr, a: Agent) {
        self.add_sharer_at(self.slot_of(addr), a);
    }

    /// Record `a` as the sole owner (others dropped) — a ReadOwn result.
    pub fn set_exclusive(&mut self, addr: Addr, a: Agent) {
        self.set_exclusive_at(self.slot_of(addr), a);
    }

    /// Remove `a` from the sharers; drops the entry when no sharers remain.
    pub fn remove_sharer(&mut self, addr: Addr, a: Agent) {
        self.remove_sharer_at(self.slot_of(addr), a);
    }

    /// Is `a` recorded as sharing the line?
    pub fn is_sharer(&self, addr: Addr, a: Agent) -> bool {
        let (cpu, dev) = self.sharers_at(self.slot_of(addr));
        match a {
            Agent::Cpu => cpu,
            Agent::Device => dev,
        }
    }

    /// Sharers of the line, as (cpu, device) booleans.
    pub fn sharers(&self, addr: Addr) -> (bool, bool) {
        self.sharers_at(self.slot_of(addr))
    }

    /// Number of tracked lines right now.
    pub fn entries(&self) -> usize {
        self.dense_occupied.count() + self.spill.len()
    }
    /// High-water mark of tracked lines.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }
    /// Directory storage at the peak, in bytes. For a Bert-large giant
    /// cache (817 MB = ~12.8 M lines) a full directory costs ~102 MB —
    /// the cost update mode avoids.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_entries as u64 * BYTES_PER_ENTRY
    }

    /// Occupancy/stats snapshot (dense vs spillover split included).
    pub fn stats(&self) -> SnoopStats {
        SnoopStats {
            entries: self.entries(),
            dense_entries: self.dense_occupied.count(),
            spill_entries: self.spill.len(),
            dense_slots: self.dense.len(),
            peak_entries: self.peak_entries,
            peak_bytes: self.peak_bytes(),
        }
    }

    /// Checkpoint image of the directory: registered spans, the occupied
    /// dense lines' sharer bytes as `(first, count, sharers)` runs,
    /// spillover (sorted for deterministic serialization), and the
    /// high-water mark.
    pub fn snapshot(&self) -> SnoopFilterSnapshot {
        let mut spill: Vec<(u64, u8)> = self.spill.iter().map(|(&k, &v)| (k, v)).collect();
        spill.sort_unstable();
        SnoopFilterSnapshot {
            spans: self.indexer.span_parts(),
            lines: self.dense.len() as u64,
            sharers: self.dense.runs(&self.dense_occupied),
            spill,
            peak_entries: self.peak_entries as u64,
        }
    }

    /// Rebuild a directory from a snapshot; malformed sharer runs are an
    /// error.
    pub fn restore(s: &SnoopFilterSnapshot) -> Result<Self, String> {
        let (dense, dense_occupied) = LineSlab::from_runs(0, s.lines as usize, &s.sharers)
            .map_err(|e| format!("snoop-filter {e}"))?;
        Ok(SnoopFilter {
            indexer: LineIndexer::from_span_parts(&s.spans),
            dense,
            dense_occupied,
            spill: s.spill.iter().copied().collect(),
            peak_entries: s.peak_entries as usize,
        })
    }
}

/// Serializable image of a [`SnoopFilter`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnoopFilterSnapshot {
    /// Registered spans as `(first_line, n_lines, slot_base)` triples.
    pub spans: Vec<(u64, u64, u64)>,
    /// Dense lines covered.
    pub lines: u64,
    /// Sharer bytes of the occupied dense lines as `(first, count,
    /// sharers)` runs, ascending.
    pub sharers: Vec<(u64, u64, u8)>,
    /// Spillover entries, sorted by line index.
    pub spill: Vec<(u64, u8)>,
    /// High-water mark of tracked lines.
    pub peak_entries: u64,
}

/// Directory size needed to track every line of a giant cache of
/// `giant_cache_bytes` — the hypothetical full-directory cost.
pub fn full_directory_bytes(giant_cache_bytes: u64) -> u64 {
    teco_mem::lines_for_bytes(giant_cache_bytes) * BYTES_PER_ENTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = Addr(0x100);

    #[test]
    fn add_and_query_sharers() {
        let mut f = SnoopFilter::new();
        f.add_sharer(A, Agent::Cpu);
        assert!(f.is_sharer(A, Agent::Cpu));
        assert!(!f.is_sharer(A, Agent::Device));
        f.add_sharer(A, Agent::Device);
        assert_eq!(f.sharers(A), (true, true));
        assert_eq!(f.entries(), 1);
    }

    #[test]
    fn set_exclusive_drops_peer() {
        let mut f = SnoopFilter::new();
        f.add_sharer(A, Agent::Cpu);
        f.add_sharer(A, Agent::Device);
        f.set_exclusive(A, Agent::Cpu);
        assert_eq!(f.sharers(A), (true, false));
    }

    #[test]
    fn remove_last_sharer_frees_entry() {
        let mut f = SnoopFilter::new();
        f.add_sharer(A, Agent::Cpu);
        f.remove_sharer(A, Agent::Cpu);
        assert_eq!(f.entries(), 0);
        assert_eq!(f.sharers(A), (false, false));
        // Removing from an untracked line is a no-op.
        f.remove_sharer(A, Agent::Device);
    }

    #[test]
    fn peak_tracking() {
        let mut f = SnoopFilter::new();
        for i in 0..1000u64 {
            f.add_sharer(Addr(i * 64), Agent::Device);
        }
        for i in 0..1000u64 {
            f.remove_sharer(Addr(i * 64), Agent::Device);
        }
        assert_eq!(f.entries(), 0);
        assert_eq!(f.peak_entries(), 1000);
        assert_eq!(f.peak_bytes(), 8000);
    }

    #[test]
    fn dense_and_spill_behave_identically() {
        // Same operation sequence against a region-registered filter (dense
        // path) and a bare one (spill path): observable state must agree.
        let mut dense = SnoopFilter::new();
        dense.register_region(Addr(0), 64 * 64);
        let mut spill = SnoopFilter::new();
        for i in 0..64u64 {
            let a = Addr(i * 64);
            dense.add_sharer(a, Agent::Cpu);
            spill.add_sharer(a, Agent::Cpu);
            if i % 3 == 0 {
                dense.set_exclusive(a, Agent::Device);
                spill.set_exclusive(a, Agent::Device);
            }
            if i % 5 == 0 {
                dense.remove_sharer(a, Agent::Device);
                spill.remove_sharer(a, Agent::Device);
            }
        }
        for i in 0..64u64 {
            let a = Addr(i * 64);
            assert_eq!(dense.sharers(a), spill.sharers(a), "line {i}");
        }
        assert_eq!(dense.entries(), spill.entries());
        assert_eq!(dense.peak_entries(), spill.peak_entries());
        // The registered filter kept everything dense; the bare one spilled.
        assert_eq!(dense.stats().spill_entries, 0);
        assert_eq!(spill.stats().dense_entries, 0);
    }

    #[test]
    fn stats_snapshot() {
        let mut f = SnoopFilter::new();
        f.register_region(Addr(0), 4 * 64);
        f.add_sharer(Addr(0), Agent::Cpu); // dense
        f.add_sharer(Addr(0x4000), Agent::Cpu); // outside the region → spill
        let st = f.stats();
        assert_eq!(st.entries, 2);
        assert_eq!(st.dense_entries, 1);
        assert_eq!(st.spill_entries, 1);
        assert_eq!(st.dense_slots, 4);
        assert_eq!(st.peak_entries, 2);
        assert_eq!(st.peak_bytes, 16);
    }

    #[test]
    fn full_directory_cost_for_bert_giant_cache() {
        // 817 MB giant cache → ~12.8M lines → ~102 MB of directory.
        let bytes = full_directory_bytes(817 << 20);
        assert!(bytes > 100 << 20 && bytes < 110 << 20, "{bytes}");
    }
}
