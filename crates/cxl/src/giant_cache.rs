//! The giant-cache model (§II-B, §IV-A1).
//!
//! A part of the accelerator's global memory is mapped into the CXL
//! coherence domain as a *giant cache* of CPU memory. Its size is fixed
//! before training (via resizable BARs): for ZeRO-Offload, "the size of the
//! parameters in the accelerator plus the size of the gradient buffer". It
//! is configured "large enough to accommodate tensors transferred between
//! accelerator and CPU, and there is no cache capacity (or conflict) miss
//! during accelerator computation" — so the model enforces capacity at
//! allocation time and thereafter treats residency as guaranteed.
//!
//! Storage layout: the bump allocator packs regions contiguously from
//! address 0, so a line's dense slot is simply its line index — no
//! per-access hashing or span search. Line payloads live in one lazily
//! chunked byte arena with 64-byte strides ([`LineSlab`]); written and
//! quarantined lines are tracked in [`LineBitmap`]s with incremental
//! popcounts. Large timing-only regions stay cheap: untouched chunks are
//! never materialized.

use crate::dba::{Disaggregator, DisaggregatorSnapshot};
use serde::{Deserialize, Reader, Serialize, Writer};
use teco_mem::{
    Addr, LineBitmap, LineData, LineLenError, LineSlab, Region, RegionId, RegionMap, RemapSnapshot,
    RemapTable, LINE_BYTES,
};
use teco_sim::{check_runs, Bytes};

/// Errors from giant-cache configuration and use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiantCacheError {
    /// Allocation would exceed the BAR-configured capacity.
    CapacityExceeded {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        available: u64,
    },
    /// Address not inside any giant-cache region.
    NotMapped(Addr),
    /// The line is quarantined: a poisoned payload reached it and no clean
    /// full-line write has healed it yet.
    Poisoned(Addr),
}

impl std::fmt::Display for GiantCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GiantCacheError::CapacityExceeded { requested, available } => write!(
                f,
                "giant cache capacity exceeded: requested {requested} B, {available} B available"
            ),
            GiantCacheError::NotMapped(a) => write!(f, "address {a} not mapped in giant cache"),
            GiantCacheError::Poisoned(a) => {
                write!(f, "line {a} is quarantined (poisoned payload received)")
            }
        }
    }
}
impl std::error::Error for GiantCacheError {}

/// The giant cache: a BAR-sized slice of accelerator memory holding
/// coherent copies of CPU-memory tensors, plus the device-side
/// Disaggregator that merges DBA payloads into resident lines.
#[derive(Debug, Clone)]
pub struct GiantCache {
    capacity: u64,
    allocated: u64,
    regions: RegionMap,
    /// Line payload arena, 64 bytes per line, slot = line index (the bump
    /// allocator packs regions from address 0). Chunks materialize on first
    /// write, so large timing-only simulations cost no payload memory.
    data: LineSlab<u8>,
    /// Lines holding explicit data (the old map's key set).
    written: LineBitmap,
    /// Lines whose resident copy is untrusted: a poisoned payload targeted
    /// them. CXL poison containment (§8.2.4 of the spec) requires the
    /// receiver to *not* consume the data; quarantined lines reject reads
    /// and merges until a clean full-line write heals them.
    quarantined: LineBitmap,
    /// Device-side CXL module's disaggregator.
    pub disaggregator: Disaggregator,
    next_base: u64,
    /// Page-retirement indirection (media RAS). Present only when spares
    /// are configured; everything logical — regions, bitmaps, `is_mapped`,
    /// the auditor — never sees it, only data-slot resolution does.
    remap: Option<RemapTable>,
}

impl GiantCache {
    /// Configure a giant cache of `capacity` bytes (the resizable-BAR step;
    /// fixed for the duration of training).
    pub fn new(capacity: u64) -> Self {
        GiantCache {
            capacity,
            allocated: 0,
            regions: RegionMap::new(),
            data: LineSlab::new(LINE_BYTES, 0),
            written: LineBitmap::new(),
            quarantined: LineBitmap::new(),
            disaggregator: Disaggregator::new(),
            next_base: 0,
            remap: None,
        }
    }

    /// Reserve `spare_lines` physical slots for page retirement (media
    /// RAS). Spares live beyond the BAR capacity, so no mappable region
    /// can ever collide with them and the bump-allocator accounting is
    /// untouched. Idempotent: a second call keeps the existing table.
    pub fn configure_spares(&mut self, spare_lines: u64) {
        if self.remap.is_none() && spare_lines > 0 {
            let spare_base = self.capacity.div_ceil(LINE_BYTES as u64);
            self.remap = Some(RemapTable::new(spare_base, spare_lines));
        }
    }

    /// Retire the line containing `a`: re-home its physical backing to a
    /// spare slot. Returns `Ok(true)` if re-homed, `Ok(false)` if no
    /// spare slot was left (the caller should still quarantine — the line
    /// stays contained, just not re-homed). The caller owns quarantining
    /// and the eventual full-line rebuild.
    pub fn retire_line(&mut self, a: Addr) -> Result<bool, GiantCacheError> {
        if !self.is_mapped(a) {
            return Err(GiantCacheError::NotMapped(a));
        }
        let Some(remap) = self.remap.as_mut() else {
            return Ok(false);
        };
        match remap.retire(a.line_index()) {
            Ok(slot) => {
                self.data.grow_lines(slot as usize + 1);
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Number of logical lines retired to spare slots.
    pub fn retired_lines(&self) -> u64 {
        self.remap.as_ref().map_or(0, |r| r.retired_count())
    }

    /// Spare slots not yet consumed (0 when no spares are configured).
    pub fn spares_left(&self) -> u64 {
        self.remap.as_ref().map_or(0, |r| r.spares_left())
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
    /// Bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
    /// The region registry (the Aggregator's address registers mirror it).
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Allocate a named tensor region; returns its base address. Regions
    /// are line-aligned and packed by a bump allocator.
    pub fn alloc_region(
        &mut self,
        name: impl Into<String>,
        bytes: u64,
    ) -> Result<(RegionId, Addr), GiantCacheError> {
        let rounded = bytes.div_ceil(LINE_BYTES as u64) * LINE_BYTES as u64;
        if self.allocated + rounded > self.capacity {
            return Err(GiantCacheError::CapacityExceeded {
                requested: rounded,
                available: self.capacity - self.allocated,
            });
        }
        let base = Addr(self.next_base);
        let id = self.regions.register(name, base, rounded).expect("bump allocator cannot overlap");
        self.next_base += rounded;
        self.allocated += rounded;
        let lines = (self.next_base / LINE_BYTES as u64) as usize;
        self.data.grow_lines(lines);
        self.written.grow(lines);
        self.quarantined.grow(lines);
        Ok((id, base))
    }

    /// Dense slot (== line index) of the line containing `a`.
    #[inline]
    fn slot(a: Addr) -> usize {
        a.line_index() as usize
    }

    /// Physical data slot of the line containing `a`: the line index,
    /// unless the line has been retired and re-homed to a spare slot.
    /// Only payload storage resolves through this — the written and
    /// quarantine bitmaps stay logical.
    #[inline]
    fn data_slot(&self, a: Addr) -> usize {
        match &self.remap {
            Some(r) => r.resolve(a.line_index()) as usize,
            None => Self::slot(a),
        }
    }

    /// Is the line containing `a` mapped into the giant-cache domain? This
    /// is the home agent's Fig. 8 check on every CPU writeback. The bump
    /// allocator keeps the mapped range contiguous from 0, so this is one
    /// bound compare.
    #[inline]
    pub fn is_mapped(&self, a: Addr) -> bool {
        a.0 < self.next_base
    }

    /// Quarantine the line containing `a`: an inbound payload for it was
    /// poisoned. Its resident copy stays untouched but becomes unreadable
    /// and unmergeable until a clean [`GiantCache::write_line`] heals it.
    pub fn quarantine_line(&mut self, a: Addr) -> Result<(), GiantCacheError> {
        if !self.is_mapped(a) {
            return Err(GiantCacheError::NotMapped(a));
        }
        self.quarantined.set(Self::slot(a));
        Ok(())
    }

    /// Is the line containing `a` quarantined?
    pub fn is_quarantined(&self, a: Addr) -> bool {
        self.is_mapped(a) && self.quarantined.get(Self::slot(a))
    }

    /// Number of lines currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.count()
    }

    /// Read a resident line (zero-filled if never written — the model's
    /// stand-in for the initial tensor copy).
    pub fn read_line(&self, a: Addr) -> Result<LineData, GiantCacheError> {
        if !self.is_mapped(a) {
            return Err(GiantCacheError::NotMapped(a));
        }
        if self.is_quarantined(a) {
            return Err(GiantCacheError::Poisoned(a.line_base()));
        }
        let mut out = LineData::zeroed();
        self.data.copy_to(self.data_slot(a) * LINE_BYTES, out.bytes_mut());
        Ok(out)
    }

    /// Store a full line (unaggregated FlushData path). A clean full-line
    /// write overwrites the whole line, so it heals any quarantine on it.
    pub fn write_line(&mut self, a: Addr, line: LineData) -> Result<(), GiantCacheError> {
        if !self.is_mapped(a) {
            return Err(GiantCacheError::NotMapped(a));
        }
        let slot = Self::slot(a);
        self.quarantined.clear(slot);
        self.written.set(slot);
        let data_slot = self.data_slot(a);
        self.data.for_segments_mut(data_slot * LINE_BYTES, LINE_BYTES, |_, seg| {
            seg.copy_from_slice(line.bytes());
        });
        Ok(())
    }

    /// Apply an inbound aggregated payload: merge it into the stale
    /// resident line in place via the Disaggregator. Returns the merged
    /// line. A quarantined line rejects the merge — partial payloads read
    /// the resident copy, which is exactly what poison containment forbids.
    pub fn apply_dba_payload(
        &mut self,
        a: Addr,
        payload: &[u8],
    ) -> Result<LineData, GiantCacheError> {
        if !self.is_mapped(a) {
            return Err(GiantCacheError::NotMapped(a));
        }
        if self.is_quarantined(a) {
            return Err(GiantCacheError::Poisoned(a.line_base()));
        }
        self.written.set(Self::slot(a));
        let data_slot = self.data_slot(a);
        let dis = &mut self.disaggregator;
        let mut out = LineData::zeroed();
        // One line never crosses a chunk boundary (chunks hold whole
        // lines), so exactly one segment is visited.
        self.data.for_segments_mut(data_slot * LINE_BYTES, LINE_BYTES, |_, seg| {
            dis.disaggregate_slab(payload, seg);
            out.bytes_mut().copy_from_slice(seg);
        });
        Ok(out)
    }

    /// Bulk variant of [`GiantCache::apply_dba_payload`]:
    /// merge `n_lines` consecutive lines starting at `base` from
    /// one packed payload (as produced by `Aggregator::aggregate_lines`)
    /// directly into the data arena — one validation scan, then one merge
    /// pass per resident chunk segment, no staging copies at all.
    pub fn apply_dba_payloads(
        &mut self,
        base: Addr,
        n_lines: usize,
        payload: &[u8],
    ) -> Result<(), GiantCacheError> {
        let base = base.line_base();
        let start = Self::slot(base);
        // Validate the whole run before mutating anything (atomic reject).
        // The mapped range is contiguous from 0, so unmapped lines form a
        // suffix; a quarantined line inside the mapped prefix faults first
        // when it precedes the mapping edge, matching the old per-line
        // check order.
        let mapped = (self.next_base / LINE_BYTES as u64) as usize;
        let checkable = n_lines.min(mapped.saturating_sub(start));
        if checkable > 0 {
            if let Some(q) = self.quarantined.first_set_in(start, checkable) {
                return Err(GiantCacheError::Poisoned(Addr((q * LINE_BYTES) as u64)));
            }
        }
        if checkable < n_lines {
            let first_bad = start + checkable;
            return Err(GiantCacheError::NotMapped(Addr((first_bad * LINE_BYTES) as u64)));
        }
        let per = self.disaggregator.register().payload_bytes();
        assert_eq!(
            payload.len(),
            per * n_lines,
            "bulk payload size mismatch: {} bytes for {n_lines} lines of {per}",
            payload.len(),
        );
        self.written.set_range(start, n_lines);
        // Retired lines break the run's physical contiguity: fall back to
        // the per-line merge so each line resolves its own data slot. The
        // result is byte-identical to the bulk pass (covered by tests).
        if self.retired_lines() > 0 {
            for i in 0..n_lines {
                let a = Addr(((start + i) * LINE_BYTES) as u64);
                let data_slot = self.data_slot(a);
                let dis = &mut self.disaggregator;
                let chunk = &payload[i * per..(i + 1) * per];
                self.data.for_segments_mut(data_slot * LINE_BYTES, LINE_BYTES, |_, seg| {
                    dis.disaggregate_slab(chunk, seg);
                });
            }
            return Ok(());
        }
        let dis = &mut self.disaggregator;
        self.data.for_segments_mut(start * LINE_BYTES, n_lines * LINE_BYTES, |off, seg| {
            // `off` and segment lengths are whole lines (chunk boundaries
            // are line-aligned), so the payload window is exact.
            let lo = off / LINE_BYTES * per;
            let hi = lo + seg.len() / LINE_BYTES * per;
            dis.disaggregate_slab(&payload[lo..hi], seg);
        });
        Ok(())
    }

    /// Number of lines holding explicit data.
    pub fn lines_written(&self) -> usize {
        self.written.count()
    }

    /// Total lines mapped by the bump allocator (the length of the
    /// written/quarantined bitmaps) — used by the invariant auditor.
    pub fn mapped_lines(&self) -> usize {
        (self.next_base / LINE_BYTES as u64) as usize
    }

    /// Iterate the line indices holding explicit data, ascending — the
    /// auditor walks these to cross-check resident payloads.
    pub fn written_line_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.written.iter_ones()
    }

    /// Checkpoint image of the cache: capacity/allocation accounting, the
    /// region registry, the written lines as `(first_line, bytes)` runs
    /// (each line read through its data slot, so a retired line's bytes
    /// come from its spare slot; unwritten lines read as zero and are not
    /// captured), quarantined-line runs (quarantine state survives a
    /// restore: a line poisoned before the kill is still quarantined after
    /// resume), and the disaggregator.
    pub fn snapshot(&self) -> GiantCacheSnapshot {
        let lines = self
            .written
            .runs()
            .map(|(first, n)| {
                let mut bytes = vec![0u8; n * LINE_BYTES];
                // Retired lines break a run's physical contiguity; then
                // each line resolves its own data slot.
                if self.retired_lines() == 0 {
                    self.data.copy_to(first * LINE_BYTES, &mut bytes);
                } else {
                    for (k, line) in bytes.chunks_exact_mut(LINE_BYTES).enumerate() {
                        let slot = self.data_slot(Addr(((first + k) * LINE_BYTES) as u64));
                        self.data.copy_to(slot * LINE_BYTES, line);
                    }
                }
                (first as u64, Bytes(bytes))
            })
            .collect();
        GiantCacheSnapshot {
            capacity: self.capacity,
            allocated: self.allocated,
            regions: self.regions.regions().to_vec(),
            data_lines: (self.data.len() / LINE_BYTES) as u64,
            lines,
            quarantined: self.quarantined.runs().map(|(s, n)| (s as u64, n as u64)).collect(),
            disaggregator: self.disaggregator.snapshot(),
            next_base: self.next_base,
            remap: self.remap.as_ref().map(|r| r.snapshot()),
        }
    }

    /// Rebuild a cache from a snapshot. Line runs that are not whole
    /// lines, or that are empty, unsorted, overlapping, outside the mapped
    /// lines or resolve past the data arena, are an error.
    pub fn restore(s: &GiantCacheSnapshot) -> Result<Self, String> {
        let mapped = s.next_base / LINE_BYTES as u64;
        if let Some((i, (_, bytes))) =
            s.lines.iter().enumerate().find(|(_, (_, b))| !b.len().is_multiple_of(LINE_BYTES))
        {
            let e = LineLenError { len: bytes.len() };
            return Err(format!("giant-cache line run {i} has {e}"));
        }
        let runs = s.lines.iter().map(|(first, bytes)| (*first, (bytes.len() / LINE_BYTES) as u64));
        check_runs("giant-cache line", runs, mapped)?;
        let mut gc = GiantCache {
            capacity: s.capacity,
            allocated: s.allocated,
            regions: RegionMap::from_regions(s.regions.clone()),
            data: LineSlab::new(LINE_BYTES, 0),
            written: LineBitmap::new(),
            quarantined: LineBitmap::from_runs(mapped as usize, &s.quarantined)?,
            disaggregator: Disaggregator::restore(&s.disaggregator),
            next_base: s.next_base,
            remap: s.remap.as_ref().map(RemapTable::from_snapshot),
        };
        gc.data.grow_lines(s.data_lines as usize);
        gc.written.grow(mapped as usize);
        for (first, bytes) in &s.lines {
            let (first, n) = (*first as usize, bytes.len() / LINE_BYTES);
            let mut slots = (first..first + n).map(|l| gc.data_slot(Addr((l * LINE_BYTES) as u64)));
            if let Some(slot) = slots.find(|&slot| slot as u64 >= s.data_lines) {
                return Err(format!("giant-cache line run at {first} reaches data slot {slot}"));
            }
            if gc.retired_lines() == 0 {
                gc.data.for_segments_mut(first * LINE_BYTES, bytes.len(), |off, seg| {
                    seg.copy_from_slice(&bytes[off..off + seg.len()]);
                });
            } else {
                for (k, line) in bytes.chunks_exact(LINE_BYTES).enumerate() {
                    let slot = gc.data_slot(Addr(((first + k) * LINE_BYTES) as u64));
                    gc.data.for_segments_mut(slot * LINE_BYTES, LINE_BYTES, |_, seg| {
                        seg.copy_from_slice(line);
                    });
                }
            }
            gc.written.set_range(first, n);
        }
        Ok(gc)
    }
}

/// Serializable image of a [`GiantCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct GiantCacheSnapshot {
    /// BAR-configured capacity.
    pub capacity: u64,
    /// Bytes allocated so far.
    pub allocated: u64,
    /// Registered tensor regions.
    pub regions: Vec<Region>,
    /// Lines the data arena covers: the mapped lines, plus the spare
    /// slots retired lines were re-homed to.
    pub data_lines: u64,
    /// The written lines as `(first_line, bytes)` runs, ascending.
    pub lines: Vec<(u64, Bytes)>,
    /// The quarantined lines as `(first_line, count)` runs, ascending.
    pub quarantined: Vec<(u64, u64)>,
    /// The device-side disaggregator.
    pub disaggregator: DisaggregatorSnapshot,
    /// Bump-allocator frontier.
    pub next_base: u64,
    /// Page-retirement remap table (absent when no spares are configured).
    pub remap: Option<RemapSnapshot>,
}

// Hand-written (de)serialization: the vendored derive has no field
// attributes, and `remap` is omitted when `None`, so a cache without
// spares carries no RAS key.
impl Serialize for GiantCacheSnapshot {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.field("capacity", &self.capacity);
        w.field("allocated", &self.allocated);
        w.field("regions", &self.regions);
        w.field("data_lines", &self.data_lines);
        w.field("lines", &self.lines);
        w.field("quarantined", &self.quarantined);
        w.field("disaggregator", &self.disaggregator);
        w.field("next_base", &self.next_base);
        if let Some(r) = &self.remap {
            w.field("remap", r);
        }
        w.end_object();
    }
}

impl Deserialize for GiantCacheSnapshot {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let (mut capacity, mut allocated, mut regions, mut data_lines) = (None, None, None, None);
        let (mut lines, mut quarantined, mut disaggregator) = (None, None, None);
        // A present `remap` key may itself hold `null`.
        let (mut next_base, mut remap) = (None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "capacity" => r.field(&mut capacity)?,
                "allocated" => r.field(&mut allocated)?,
                "regions" => r.field(&mut regions)?,
                "data_lines" => r.field(&mut data_lines)?,
                "lines" => r.field(&mut lines)?,
                "quarantined" => r.field(&mut quarantined)?,
                "disaggregator" => r.field(&mut disaggregator)?,
                "next_base" => r.field(&mut next_base)?,
                "remap" => r.field(&mut remap)?,
                _ => r.skip_value()?,
            }
        }
        const TY: &str = "GiantCacheSnapshot";
        Ok(GiantCacheSnapshot {
            capacity: Reader::required(capacity, "capacity", TY)?,
            allocated: Reader::required(allocated, "allocated", TY)?,
            regions: Reader::required(regions, "regions", TY)?,
            data_lines: Reader::required(data_lines, "data_lines", TY)?,
            lines: Reader::required(lines, "lines", TY)?,
            quarantined: Reader::required(quarantined, "quarantined", TY)?,
            disaggregator: Reader::required(disaggregator, "disaggregator", TY)?,
            next_base: Reader::required(next_base, "next_base", TY)?,
            remap: remap.flatten(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dba::{Aggregator, DbaRegister};

    #[test]
    fn alloc_within_capacity() {
        let mut gc = GiantCache::new(1 << 20);
        let (_, base_p) = gc.alloc_region("params", 1000).unwrap();
        let (_, base_g) = gc.alloc_region("grads", 2000).unwrap();
        assert_eq!(base_p, Addr(0));
        // 1000 B rounds to 1024 B of lines.
        assert_eq!(base_g, Addr(1024));
        assert_eq!(gc.allocated(), 1024 + 2048);
        assert!(gc.is_mapped(Addr(0)));
        assert!(gc.is_mapped(Addr(1023))); // rounded tail is mapped
        assert!(gc.is_mapped(Addr(1024)));
        assert!(!gc.is_mapped(Addr(4000)));
    }

    #[test]
    fn alloc_over_capacity_fails() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("a", 4096).unwrap();
        let err = gc.alloc_region("b", 64).unwrap_err();
        assert!(matches!(err, GiantCacheError::CapacityExceeded { .. }));
    }

    #[test]
    fn read_write_lines() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("t", 4096).unwrap();
        let addr = Addr(128);
        // Unwritten lines read as zero.
        assert_eq!(gc.read_line(addr).unwrap(), LineData::zeroed());
        let mut line = LineData::zeroed();
        line.set_word(3, 0xCAFE_F00D);
        gc.write_line(addr, line).unwrap();
        assert_eq!(gc.read_line(addr).unwrap().word(3), 0xCAFE_F00D);
        assert_eq!(gc.lines_written(), 1);
    }

    #[test]
    fn unmapped_access_errors() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("t", 64).unwrap();
        assert!(matches!(gc.read_line(Addr(9999)), Err(GiantCacheError::NotMapped(_))));
        assert!(gc.write_line(Addr(9999), LineData::zeroed()).is_err());
    }

    #[test]
    fn mapped_region_stays_lazily_materialized() {
        // A big region costs no payload memory until lines are written.
        let mut gc = GiantCache::new(1 << 30);
        gc.alloc_region("params", 1 << 30).unwrap();
        assert_eq!(gc.lines_written(), 0);
        assert_eq!(gc.read_line(Addr(512 << 20)).unwrap(), LineData::zeroed());
        gc.write_line(Addr(512 << 20), LineData::zeroed()).unwrap();
        assert_eq!(gc.lines_written(), 1);
    }

    #[test]
    fn dba_payload_merges_into_resident_line() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("params", 4096).unwrap();
        let reg = DbaRegister::new(true, 2);
        gc.disaggregator.set_register(reg);

        // Resident stale line.
        let mut stale = LineData::zeroed();
        for w in 0..16 {
            stale.set_word(w, 0x4100_0000 + w as u32);
        }
        gc.write_line(Addr(0), stale).unwrap();

        // CPU-side fresh line differing in low 2 bytes.
        let mut fresh = stale;
        for w in 0..16 {
            fresh.set_word(w, (stale.word(w) & 0xFFFF_0000) | 0x5A5A);
        }
        let mut agg = Aggregator::new();
        agg.set_register(reg);
        let payload = agg.aggregate(&fresh);

        let merged = gc.apply_dba_payload(Addr(0), &payload).unwrap();
        assert_eq!(merged, fresh);
        assert_eq!(gc.read_line(Addr(0)).unwrap(), fresh);
        assert_eq!(gc.disaggregator.extra_reads(), 1);
    }

    #[test]
    fn bulk_payload_merge_matches_per_line() {
        let reg = DbaRegister::new(true, 2);
        let mut agg = Aggregator::new();
        agg.set_register(reg);

        let mut per = GiantCache::new(4096);
        per.alloc_region("params", 4096).unwrap();
        per.disaggregator.set_register(reg);
        let mut bulk = per.clone();

        // Establish distinct resident lines, then DBA-update all of them.
        let n = 8usize;
        let mut fresh = Vec::new();
        for i in 0..n {
            let mut stale = LineData::zeroed();
            let mut f = LineData::zeroed();
            for w in 0..16 {
                stale.set_word(w, 0x4000_0000 + (i * 16 + w) as u32);
                f.set_word(w, (stale.word(w) & 0xFFFF_0000) | (0x1000 + i as u32));
            }
            let a = Addr((i * LINE_BYTES) as u64);
            per.write_line(a, stale).unwrap();
            bulk.write_line(a, stale).unwrap();
            fresh.push(f);
        }

        let mut packed = Vec::new();
        agg.aggregate_lines(&fresh, &mut packed);
        bulk.apply_dba_payloads(Addr(0), n, &packed).unwrap();

        let per_line = agg.register().payload_bytes();
        for (i, chunk) in packed.chunks(per_line).enumerate() {
            per.apply_dba_payload(Addr((i * LINE_BYTES) as u64), chunk).unwrap();
        }
        for (i, want) in fresh.iter().enumerate() {
            let a = Addr((i * LINE_BYTES) as u64);
            assert_eq!(bulk.read_line(a).unwrap(), per.read_line(a).unwrap(), "line {i}");
            assert_eq!(bulk.read_line(a).unwrap(), *want);
        }
        assert_eq!(bulk.disaggregator.extra_reads(), per.disaggregator.extra_reads());
    }

    #[test]
    fn bulk_payload_merge_rejects_unmapped_tail() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("t", 128).unwrap(); // two lines mapped
        let err = gc.apply_dba_payloads(Addr(0), 3, &[0u8; 192]).unwrap_err();
        assert!(matches!(err, GiantCacheError::NotMapped(a) if a == Addr(128)));
    }

    #[test]
    fn quarantine_contains_poison_without_touching_neighbors() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("params", 4096).unwrap();
        let reg = DbaRegister::new(true, 2);
        gc.disaggregator.set_register(reg);

        let mut left = LineData::zeroed();
        let mut mid = LineData::zeroed();
        let mut right = LineData::zeroed();
        for w in 0..16 {
            left.set_word(w, 0x1111_0000 + w as u32);
            mid.set_word(w, 0x2222_0000 + w as u32);
            right.set_word(w, 0x3333_0000 + w as u32);
        }
        gc.write_line(Addr(0), left).unwrap();
        gc.write_line(Addr(64), mid).unwrap();
        gc.write_line(Addr(128), right).unwrap();

        // A poisoned payload targeted the middle line.
        gc.quarantine_line(Addr(64)).unwrap();
        assert!(gc.is_quarantined(Addr(64)));
        assert!(gc.is_quarantined(Addr(64 + 13)), "any byte of the line is quarantined");
        assert_eq!(gc.quarantined_count(), 1);

        // The quarantined line neither reads nor merges.
        assert_eq!(gc.read_line(Addr(64)), Err(GiantCacheError::Poisoned(Addr(64))));
        let payload = vec![0xAA; reg.payload_bytes()];
        assert_eq!(
            gc.apply_dba_payload(Addr(64), &payload),
            Err(GiantCacheError::Poisoned(Addr(64)))
        );

        // Neighbors are untouched and fully usable.
        assert_eq!(gc.read_line(Addr(0)).unwrap(), left);
        assert_eq!(gc.read_line(Addr(128)).unwrap(), right);
        gc.apply_dba_payload(Addr(0), &payload).unwrap();

        // A clean full-line write heals the quarantine.
        let mut fresh = LineData::zeroed();
        fresh.set_word(0, 0xFEED_FACE);
        gc.write_line(Addr(64), fresh).unwrap();
        assert!(!gc.is_quarantined(Addr(64)));
        assert_eq!(gc.read_line(Addr(64)).unwrap(), fresh);
        assert_eq!(gc.quarantined_count(), 0);
    }

    #[test]
    fn bulk_merge_rejects_quarantined_line_in_range() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("t", 256).unwrap();
        let reg = DbaRegister::new(true, 2);
        gc.disaggregator.set_register(reg);
        gc.quarantine_line(Addr(128)).unwrap();
        let payload = vec![0u8; 4 * reg.payload_bytes()];
        let err = gc.apply_dba_payloads(Addr(0), 4, &payload).unwrap_err();
        assert_eq!(err, GiantCacheError::Poisoned(Addr(128)));
        // The rejection is atomic: no earlier lines were merged either.
        assert_eq!(gc.read_line(Addr(0)).unwrap(), LineData::zeroed());
    }

    #[test]
    fn bulk_merge_quarantine_beats_unmapped_tail_when_earlier() {
        // Line 1 quarantined, run extends past the mapped range: the
        // quarantined line is hit first in address order, as a per-line
        // scan would report.
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("t", 192).unwrap(); // three lines mapped
        let reg = DbaRegister::new(true, 2);
        gc.disaggregator.set_register(reg);
        gc.quarantine_line(Addr(64)).unwrap();
        let payload = vec![0u8; 5 * reg.payload_bytes()];
        let err = gc.apply_dba_payloads(Addr(0), 5, &payload).unwrap_err();
        assert_eq!(err, GiantCacheError::Poisoned(Addr(64)));
    }

    #[test]
    fn quarantine_unmapped_address_errors() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("t", 64).unwrap();
        assert!(matches!(gc.quarantine_line(Addr(9999)), Err(GiantCacheError::NotMapped(_))));
    }

    #[test]
    fn retirement_re_homes_transparently() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("params", 4096).unwrap();
        gc.configure_spares(4);
        let mut line = LineData::zeroed();
        line.set_word(0, 0x1111_2222);
        gc.write_line(Addr(64), line).unwrap();

        // Retire + quarantine (the media-RAS detection sequence).
        assert!(gc.retire_line(Addr(64)).unwrap(), "spare available");
        gc.quarantine_line(Addr(64)).unwrap();
        assert_eq!(gc.retired_lines(), 1);
        assert_eq!(gc.spares_left(), 3);
        assert!(gc.is_quarantined(Addr(64)));
        assert_eq!(gc.read_line(Addr(64)), Err(GiantCacheError::Poisoned(Addr(64))));

        // A clean full-line write heals the quarantine and lands in the
        // spare slot; reads resolve through the remap transparently.
        let mut fresh = LineData::zeroed();
        fresh.set_word(0, 0x3333_4444);
        gc.write_line(Addr(64), fresh).unwrap();
        assert!(!gc.is_quarantined(Addr(64)));
        assert_eq!(gc.read_line(Addr(64)).unwrap(), fresh);
        // Logical accounting is untouched by retirement.
        assert_eq!(gc.mapped_lines(), 64);
        assert!(gc.is_mapped(Addr(64)));
    }

    #[test]
    fn retirement_without_spares_is_contained_not_rehomed() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("params", 4096).unwrap();
        gc.configure_spares(1);
        assert!(gc.retire_line(Addr(0)).unwrap());
        assert!(!gc.retire_line(Addr(64)).unwrap(), "spares exhausted");
        assert_eq!(gc.retired_lines(), 1);
        // No remap configured at all: retire reports un-homed too.
        let mut bare = GiantCache::new(4096);
        bare.alloc_region("p", 4096).unwrap();
        assert!(!bare.retire_line(Addr(0)).unwrap());
        assert!(matches!(bare.retire_line(Addr(9999)), Err(GiantCacheError::NotMapped(_))));
    }

    #[test]
    fn bulk_merge_with_retired_line_matches_per_line() {
        let reg = DbaRegister::new(true, 2);
        let mut agg = Aggregator::new();
        agg.set_register(reg);

        let mut bulk = GiantCache::new(4096);
        bulk.alloc_region("params", 4096).unwrap();
        bulk.disaggregator.set_register(reg);
        bulk.configure_spares(4);
        let mut per = bulk.clone();

        let n = 8usize;
        let mut fresh = Vec::new();
        for i in 0..n {
            let mut stale = LineData::zeroed();
            let mut f = LineData::zeroed();
            for w in 0..16 {
                stale.set_word(w, 0x4000_0000 + (i * 16 + w) as u32);
                f.set_word(w, (stale.word(w) & 0xFFFF_0000) | (0x2000 + i as u32));
            }
            let a = Addr((i * LINE_BYTES) as u64);
            bulk.write_line(a, stale).unwrap();
            per.write_line(a, stale).unwrap();
            fresh.push(f);
        }
        // Retire and heal line 3 in both, so the run is remapped but clean.
        for gc in [&mut bulk, &mut per] {
            assert!(gc.retire_line(Addr(192)).unwrap());
            gc.quarantine_line(Addr(192)).unwrap();
            gc.write_line(Addr(192), fresh[3]).unwrap();
        }

        let mut packed = Vec::new();
        agg.aggregate_lines(&fresh, &mut packed);
        bulk.apply_dba_payloads(Addr(0), n, &packed).unwrap();
        let per_line = agg.register().payload_bytes();
        for (i, chunk) in packed.chunks(per_line).enumerate() {
            per.apply_dba_payload(Addr((i * LINE_BYTES) as u64), chunk).unwrap();
        }
        for (i, want) in fresh.iter().enumerate() {
            let a = Addr((i * LINE_BYTES) as u64);
            assert_eq!(bulk.read_line(a).unwrap(), per.read_line(a).unwrap(), "line {i}");
            assert_eq!(bulk.read_line(a).unwrap(), *want);
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_retirement() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("params", 4096).unwrap();
        gc.configure_spares(2);
        let mut line = LineData::zeroed();
        line.set_word(5, 0xD00D);
        gc.write_line(Addr(128), line).unwrap();
        gc.retire_line(Addr(128)).unwrap();
        gc.quarantine_line(Addr(128)).unwrap();
        let mut fresh = LineData::zeroed();
        fresh.set_word(5, 0xBEEF);
        gc.write_line(Addr(128), fresh).unwrap();

        let snap = gc.snapshot();
        // The retired line's bytes come from its spare slot.
        assert_eq!(snap.lines, vec![(2, Bytes(fresh.bytes().to_vec()))]);
        let json = serde_json::to_string(&snap).unwrap();
        let back = GiantCache::restore(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back.retired_lines(), 1);
        assert_eq!(back.spares_left(), gc.spares_left());
        assert_eq!(back.read_line(Addr(128)).unwrap(), fresh);
        assert_eq!(back.snapshot(), snap);
    }

    #[test]
    fn snapshot_captures_written_lines_only_and_restores_them() {
        let mut gc = GiantCache::new(1 << 20);
        gc.alloc_region("t", 1 << 20).unwrap();
        let mut line = LineData::zeroed();
        line.set_word(0, 9);
        for i in [3u64, 4, 5, 9000] {
            gc.write_line(Addr(i * 64), line).unwrap();
        }
        gc.quarantine_line(Addr(64)).unwrap();
        let snap = gc.snapshot();
        let runs: Vec<(u64, usize)> = snap.lines.iter().map(|(f, b)| (*f, b.len())).collect();
        assert_eq!(runs, vec![(3, 192), (9000, 64)]);
        assert_eq!(snap.quarantined, vec![(1, 1)]);
        let back = GiantCache::restore(&snap).unwrap();
        assert_eq!(back.snapshot(), snap);
        for i in 0..(1u64 << 14) {
            let a = Addr(i * 64);
            assert_eq!(back.read_line(a), gc.read_line(a), "line {i}");
        }
    }

    #[test]
    fn restore_rejects_malformed_line_runs() {
        let mut gc = GiantCache::new(4096);
        gc.alloc_region("t", 4096).unwrap();
        gc.write_line(Addr(0), LineData::zeroed()).unwrap();
        let good = gc.snapshot();
        let run = |first: u64, len: usize| (first, Bytes(vec![0; len]));
        let bad_lines = [
            vec![run(0, 63)],              // one byte short
            vec![run(0, 0)],               // empty
            vec![run(2, 64), run(1, 64)],  // unsorted
            vec![run(0, 128), run(1, 64)], // overlapping
            vec![run(63, 128)],            // past the mapped lines
            vec![run(u64::MAX, 64)],       // past the mapped lines, overflowing
        ];
        for lines in bad_lines {
            let s = GiantCacheSnapshot { lines, ..good.clone() };
            assert!(GiantCache::restore(&s).is_err(), "{:?}", s.lines);
        }
        let s = GiantCacheSnapshot { quarantined: vec![(60, 5)], ..good.clone() };
        assert!(GiantCache::restore(&s).is_err());
        let s = GiantCacheSnapshot { data_lines: 0, ..good };
        assert!(GiantCache::restore(&s).is_err(), "a line beyond the data arena");
    }

    #[test]
    fn zero_offload_sizing_example() {
        // Table III: Bert-large giant cache is 817 MB — parameters
        // (334M × 4 B ≈ 1.3 GB would not fit; the giant cache holds the
        // FP16 copy + gradient buffer in the paper's setup). Here we just
        // verify the sizing arithmetic is enforced.
        let mut gc = GiantCache::new(817 << 20);
        let params_fp16 = 334_000_000u64 * 2;
        gc.alloc_region("params_fp16", params_fp16).unwrap();
        let grad_buffer = 64u64 << 20;
        gc.alloc_region("grad_buffer", grad_buffer).unwrap();
        assert!(gc.allocated() <= gc.capacity());
        assert!(gc.capacity() - gc.allocated() < 120 << 20);
    }
}
