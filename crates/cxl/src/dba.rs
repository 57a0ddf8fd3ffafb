//! Dirty-Byte Aggregation (DBA): the Aggregator and Disaggregator of §V.
//!
//! For each FP32 word in a 64-byte cache line, the Aggregator in the
//! CPU-side CXL module extracts the least-significant `N = dirty_bytes`
//! bytes and concatenates them into a compact payload (`N = 2` → a 32-byte
//! payload per line). The Disaggregator in the accelerator-side CXL module
//! reconstructs the updated line by merging the payload with the stale
//! resident copy, implemented exactly as §V-C describes: *reset* the low
//! `N` bytes of each word, *shift* each payload fragment to its word slot,
//! and *OR* it in.
//!
//! The DBA register layout follows §V-B: a 4-bit register whose MSB is the
//! activation flag and whose low 3 bits encode the dirty-byte length
//! (0–4). `dirty_bytes = 2` with activation on is `0b1010`.

use serde::{Deserialize, Serialize};
use teco_mem::line::{lines_as_bytes, lines_as_bytes_mut, LineData, LINE_BYTES, WORDS_PER_LINE};

/// The 4-bit DBA configuration register in the CPU CXL module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbaRegister(u8);

impl DbaRegister {
    /// An inactive register (Aggregator bypassed).
    pub const INACTIVE: DbaRegister = DbaRegister(0);

    /// Build a register value. `dirty_bytes` must be 0..=4.
    pub fn new(active: bool, dirty_bytes: u8) -> Self {
        assert!(dirty_bytes <= 4, "dirty_bytes out of range: {dirty_bytes}");
        // 3 low bits encode the length; bit 3 is the activation flag.
        DbaRegister(((active as u8) << 3) | (dirty_bytes & 0b111))
    }

    /// Decode from the raw 4-bit value (as sent to the accelerator's CXL
    /// module when activating disaggregation).
    pub fn from_bits(bits: u8) -> Self {
        assert!(bits <= 0b1111, "DBA register is 4 bits");
        let r = DbaRegister(bits);
        assert!(r.dirty_bytes() <= 4, "invalid dirty-byte length");
        r
    }

    /// Raw 4-bit value. The paper's canonical example: active with 2 dirty
    /// bytes is `1010₂`.
    pub fn bits(self) -> u8 {
        self.0
    }
    /// Is the Aggregator active?
    pub fn active(self) -> bool {
        self.0 & 0b1000 != 0
    }
    /// Dirty-byte length (0..=4).
    pub fn dirty_bytes(self) -> u8 {
        self.0 & 0b111
    }

    /// Aggregated payload size for one 64-byte line under this register.
    /// With the register inactive (or `dirty_bytes == 4`, i.e. all bytes
    /// dirty) the full line is sent.
    pub fn payload_bytes(self) -> usize {
        if !self.active() || self.dirty_bytes() == 4 {
            LINE_BYTES
        } else {
            WORDS_PER_LINE * self.dirty_bytes() as usize
        }
    }

    /// Compression ratio of the aggregated payload vs. a full line
    /// (1.0 = no reduction; 0.5 for `dirty_bytes = 2`).
    pub fn compression(self) -> f64 {
        self.payload_bytes() as f64 / LINE_BYTES as f64
    }
}

/// The CPU-side Aggregator (§V-B). Stateless combinational logic plus the
/// DBA register; the struct also counts lines and bytes for the
/// communication-volume experiments (§VIII-C).
#[derive(Debug, Clone, Default)]
pub struct Aggregator {
    reg: DbaRegister,
    lines_aggregated: u64,
    lines_bypassed: u64,
    payload_bytes_out: u64,
}

impl Default for DbaRegister {
    fn default() -> Self {
        DbaRegister::INACTIVE
    }
}

impl Aggregator {
    /// New aggregator with the register inactive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Program the DBA register (done by the DL framework "through a CXL
    /// configuration interface").
    pub fn set_register(&mut self, reg: DbaRegister) {
        self.reg = reg;
    }
    /// Current register value.
    pub fn register(&self) -> DbaRegister {
        self.reg
    }

    /// Process one outbound 64-byte line. Returns the on-wire payload: the
    /// aggregated dirty bytes when active, or the full line when bypassed.
    ///
    /// Thin allocating wrapper over [`Aggregator::aggregate_into`]; hot
    /// paths should use the streaming APIs instead.
    pub fn aggregate(&mut self, line: &LineData) -> Vec<u8> {
        let mut payload = vec![0u8; self.reg.payload_bytes()];
        let written = self.aggregate_into(line, &mut payload);
        debug_assert_eq!(written, payload.len());
        payload
    }

    /// Allocation-free variant: write one line's payload into the front of
    /// `out` and return the number of bytes written (`reg.payload_bytes()`).
    ///
    /// Panics if `out` is shorter than the payload for the current register.
    pub fn aggregate_into(&mut self, line: &LineData, out: &mut [u8]) -> usize {
        let n = self.reg.dirty_bytes() as usize;
        if !self.reg.active() || n == 4 {
            out[..LINE_BYTES].copy_from_slice(line.bytes());
            self.lines_bypassed += 1;
            self.payload_bytes_out += LINE_BYTES as u64;
            return LINE_BYTES;
        }
        let per = WORDS_PER_LINE * n;
        if n > 0 {
            kernels::pack_run(line.bytes(), n, &mut out[..per]);
        }
        self.lines_aggregated += 1;
        self.payload_bytes_out += per as u64;
        per
    }

    /// [`Aggregator::aggregate_into`] fused with the Fletcher-16 payload
    /// checksum: the checksum is folded over the packed bytes while they
    /// are still hot in cache, so the guarded fault path needs no second
    /// traversal. Returns `(bytes_written, checksum)`; the checksum equals
    /// `crate::fault::line_checksum` over the written payload.
    pub fn aggregate_into_checksummed(&mut self, line: &LineData, out: &mut [u8]) -> (usize, u16) {
        let per = self.aggregate_into(line, out);
        // The shared overflow-deferred Fletcher-16 folds over the payload
        // while it is still hot in L1 — one implementation for the
        // Aggregator, the link's verification, and the auditor alike.
        (per, crate::fault::line_checksum(&out[..per]))
    }

    /// Bulk streaming entry point: aggregate a contiguous run of lines into
    /// a reusable wire buffer. `out` is cleared and filled with the
    /// concatenated payloads (all lines share the one DBA register, so each
    /// occupies exactly `reg.payload_bytes()` bytes). Returns the total
    /// bytes written. Counters advance exactly as if [`Self::aggregate`]
    /// had been called per line.
    pub fn aggregate_lines(&mut self, lines: &[LineData], out: &mut Vec<u8>) -> usize {
        let per = self.reg.payload_bytes();
        let total = per * lines.len();
        let n = self.reg.dirty_bytes() as usize;
        out.clear();
        out.reserve(total);
        {
            // Pack straight into the vector's spare capacity: the bypass
            // arm copies whole lines and the kernel arm writes `per` bytes
            // per line, so every byte of `dst` is written before `set_len`
            // exposes it (when `n == 0`, `total` is 0 and `dst` is empty).
            // Skipping the `resize(total, 0)` zero-fill keeps the bulk
            // path a single pass over the wire buffer.
            let spare = &mut out.spare_capacity_mut()[..total];
            // SAFETY: `MaybeUninit<u8>` and `u8` have identical layout;
            // creating a `&mut [u8]` over uninitialized bytes is sound
            // here because `u8` has no invalid bit patterns and nothing
            // reads `dst` before the writes below fill it.
            let dst = unsafe { &mut *(spare as *mut [std::mem::MaybeUninit<u8>] as *mut [u8]) };
            let src = lines_as_bytes(lines);
            if !self.reg.active() || n == 4 {
                dst.copy_from_slice(src);
                self.lines_bypassed += lines.len() as u64;
            } else {
                if n > 0 {
                    kernels::pack_run(src, n, dst);
                }
                self.lines_aggregated += lines.len() as u64;
            }
        }
        // SAFETY: all `total` bytes were initialized above.
        unsafe { out.set_len(total) };
        self.payload_bytes_out += total as u64;
        total
    }

    /// Lines that went through aggregation.
    pub fn lines_aggregated(&self) -> u64 {
        self.lines_aggregated
    }
    /// Lines that bypassed aggregation.
    pub fn lines_bypassed(&self) -> u64 {
        self.lines_bypassed
    }
    /// Total payload bytes emitted on the wire.
    pub fn payload_bytes_out(&self) -> u64 {
        self.payload_bytes_out
    }

    /// Checkpoint image (register + counters; the logic is stateless).
    pub fn snapshot(&self) -> AggregatorSnapshot {
        AggregatorSnapshot {
            reg: self.reg,
            lines_aggregated: self.lines_aggregated,
            lines_bypassed: self.lines_bypassed,
            payload_bytes_out: self.payload_bytes_out,
        }
    }

    /// Rebuild from a snapshot.
    pub fn restore(s: &AggregatorSnapshot) -> Self {
        Aggregator {
            reg: s.reg,
            lines_aggregated: s.lines_aggregated,
            lines_bypassed: s.lines_bypassed,
            payload_bytes_out: s.payload_bytes_out,
        }
    }
}

/// Serializable image of an [`Aggregator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatorSnapshot {
    /// The DBA register.
    pub reg: DbaRegister,
    /// Lines that went through aggregation.
    pub lines_aggregated: u64,
    /// Lines that bypassed aggregation.
    pub lines_bypassed: u64,
    /// Total payload bytes emitted.
    pub payload_bytes_out: u64,
}

/// The accelerator-side Disaggregator (§V-C). Holds the mirrored DBA
/// register value received from the host agent.
#[derive(Debug, Clone, Default)]
pub struct Disaggregator {
    reg: DbaRegister,
    lines_merged: u64,
    extra_reads: u64,
}

impl Disaggregator {
    /// New disaggregator with the register inactive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receive the DBA-register value from the CXL host agent.
    pub fn set_register(&mut self, reg: DbaRegister) {
        self.reg = reg;
    }
    /// Current register value.
    pub fn register(&self) -> DbaRegister {
        self.reg
    }

    /// Merge an inbound payload into the stale resident line, reconstructing
    /// the updated line. Implements §V-C's reset-shift-OR procedure.
    ///
    /// Panics if the payload length does not match the register.
    pub fn merge(&mut self, payload: &[u8], resident: &mut LineData) {
        let n = self.reg.dirty_bytes() as usize;
        if !self.reg.active() || n == 4 {
            assert_eq!(payload.len(), LINE_BYTES, "expected full line");
            resident.bytes_mut().copy_from_slice(payload);
            self.lines_merged += 1;
            return;
        }
        assert_eq!(payload.len(), WORDS_PER_LINE * n, "payload size mismatch for dirty_bytes={n}");
        // One extra DRAM read per update: the resident line must be fetched
        // to merge (§V-C); counted for the §VIII-D overhead study.
        self.extra_reads += 1;
        if n > 0 {
            unpack_merge_line(payload, n, resident);
        }
        self.lines_merged += 1;
    }

    /// Bulk streaming counterpart of [`Aggregator::aggregate_lines`]: merge
    /// a concatenated payload buffer into a contiguous run of resident
    /// lines. `payload.len()` must equal
    /// `residents.len() * reg.payload_bytes()`. Counters advance exactly as
    /// if [`Self::merge`] had been called per line.
    pub fn disaggregate_lines(&mut self, payload: &[u8], residents: &mut [LineData]) {
        let per = self.reg.payload_bytes();
        assert_eq!(
            payload.len(),
            per * residents.len(),
            "bulk payload size mismatch: {} bytes for {} lines of {per}",
            payload.len(),
            residents.len()
        );
        let n = self.reg.dirty_bytes() as usize;
        let slab = lines_as_bytes_mut(residents);
        if !self.reg.active() || n == 4 {
            slab.copy_from_slice(payload);
        } else {
            if n > 0 {
                kernels::merge_run(payload, n, slab);
            }
            self.extra_reads += residents.len() as u64;
        }
        self.lines_merged += residents.len() as u64;
    }

    /// Arena counterpart of [`Disaggregator::disaggregate_lines`]: merge a
    /// concatenated payload buffer directly into raw line bytes (a
    /// contiguous `n × 64 B` slice of the giant cache's data slab), with
    /// no staging copies. `slab.len()` must be a whole number of lines and
    /// `payload.len()` must equal `lines × reg.payload_bytes()`. Counters
    /// advance exactly as if [`Self::merge`] had been called per line.
    pub fn disaggregate_slab(&mut self, payload: &[u8], slab: &mut [u8]) {
        assert_eq!(slab.len() % LINE_BYTES, 0, "slab must be whole lines");
        let lines = slab.len() / LINE_BYTES;
        let per = self.reg.payload_bytes();
        assert_eq!(
            payload.len(),
            per * lines,
            "bulk payload size mismatch: {} bytes for {lines} lines of {per}",
            payload.len(),
        );
        let n = self.reg.dirty_bytes() as usize;
        if !self.reg.active() || n == 4 {
            slab.copy_from_slice(payload);
        } else {
            if n > 0 {
                kernels::merge_run(payload, n, slab);
            }
            self.extra_reads += lines as u64;
        }
        self.lines_merged += lines as u64;
    }

    /// Lines merged so far.
    pub fn lines_merged(&self) -> u64 {
        self.lines_merged
    }
    /// Extra resident-line reads incurred by merging.
    pub fn extra_reads(&self) -> u64 {
        self.extra_reads
    }

    /// Checkpoint image (register + counters).
    pub fn snapshot(&self) -> DisaggregatorSnapshot {
        DisaggregatorSnapshot {
            reg: self.reg,
            lines_merged: self.lines_merged,
            extra_reads: self.extra_reads,
        }
    }

    /// Rebuild from a snapshot.
    pub fn restore(s: &DisaggregatorSnapshot) -> Self {
        Disaggregator { reg: s.reg, lines_merged: s.lines_merged, extra_reads: s.extra_reads }
    }
}

/// Serializable image of a [`Disaggregator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggregatorSnapshot {
    /// The mirrored DBA register.
    pub reg: DbaRegister,
    /// Lines merged so far.
    pub lines_merged: u64,
    /// Extra resident-line reads incurred by merging.
    pub extra_reads: u64,
}

/// Reset-shift-OR merge of one packed payload into a resident line, the
/// word-level inverse of the pack kernel.
#[inline]
fn unpack_merge_line(payload: &[u8], n: usize, resident: &mut LineData) {
    kernels::merge_run(payload, n, resident.bytes_mut());
}

/// The 64-byte-chunked pack/merge kernels.
///
/// Each kernel consumes and produces whole `u64` lanes: a 64-byte line is
/// eight `u64` loads, and every output `u64` is assembled with shift/OR
/// swizzles from those lanes. The loop bodies are branch-free with
/// independent lanes, which LLVM autovectorizes on any SSE2+/NEON target.
/// The pre-vectorization word-at-a-time kernels are kept verbatim in
/// [`super::scalar`] as the proptest oracle, exactly as `refmaps` keeps
/// the hash-map arenas.
///
/// All loads/stores go through `u64::{from,to}_le_bytes` on byte slices,
/// so neither the payload nor the resident region needs any alignment —
/// wire buffers slice at arbitrary offsets.
pub mod kernels {
    use teco_mem::line::{LINE_BYTES, WORDS_PER_LINE};

    #[inline(always)]
    fn ld(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
    }
    #[inline(always)]
    fn st(b: &mut [u8], v: u64) {
        b.copy_from_slice(&v.to_le_bytes());
    }

    /// Pack the low `n` (1..=3) bytes of each FP32 word of a run of whole
    /// lines into a dense payload. `src.len()` must be a multiple of 64
    /// and `dst.len()` exactly `lines * 16 * n`.
    pub fn pack_run(src: &[u8], n: usize, dst: &mut [u8]) {
        assert!((1..=3).contains(&n), "pack kernel handles n in 1..=3, got {n}");
        assert_eq!(src.len() % LINE_BYTES, 0, "source must be whole lines");
        let per = WORDS_PER_LINE * n;
        assert_eq!(dst.len(), (src.len() / LINE_BYTES) * per, "payload size mismatch");
        match n {
            1 => {
                for (s, d) in src.chunks_exact(LINE_BYTES).zip(dst.chunks_exact_mut(per)) {
                    pack1(s, d);
                }
            }
            2 => {
                for (s, d) in src.chunks_exact(LINE_BYTES).zip(dst.chunks_exact_mut(per)) {
                    pack2(s, d);
                }
            }
            _ => {
                for (s, d) in src.chunks_exact(LINE_BYTES).zip(dst.chunks_exact_mut(per)) {
                    pack3(s, d);
                }
            }
        }
    }

    /// Reset-shift-OR merge of a packed payload into a run of whole
    /// resident lines (§V-C), the exact inverse placement of
    /// [`pack_run`]. `resident.len()` must be a multiple of 64 and
    /// `payload.len()` exactly `lines * 16 * n`.
    pub fn merge_run(payload: &[u8], n: usize, resident: &mut [u8]) {
        assert!((1..=3).contains(&n), "merge kernel handles n in 1..=3, got {n}");
        assert_eq!(resident.len() % LINE_BYTES, 0, "resident must be whole lines");
        let per = WORDS_PER_LINE * n;
        assert_eq!(payload.len(), (resident.len() / LINE_BYTES) * per, "payload size mismatch");
        match n {
            1 => {
                for (p, r) in payload.chunks_exact(per).zip(resident.chunks_exact_mut(LINE_BYTES)) {
                    merge1(p, r);
                }
            }
            2 => {
                for (p, r) in payload.chunks_exact(per).zip(resident.chunks_exact_mut(LINE_BYTES)) {
                    merge2(p, r);
                }
            }
            _ => {
                for (p, r) in payload.chunks_exact(per).zip(resident.chunks_exact_mut(LINE_BYTES)) {
                    merge3(p, r);
                }
            }
        }
    }

    // Each source u64 holds two adjacent FP32 words (2j, 2j+1); the lane
    // helpers below gather the low 1/2/3 bytes of both words into the low
    // bits of one u64, and the per-line kernels concatenate those lanes.

    /// One line, n = 1: 64 B → 16 B (two output u64s of sixteen LSBs).
    #[inline(always)]
    fn pack1(line: &[u8], out: &mut [u8]) {
        let lsb2 = |j: usize| {
            let x = ld(&line[8 * j..8 * j + 8]);
            (x & 0xFF) | ((x >> 24) & 0xFF00)
        };
        st(&mut out[..8], lsb2(0) | (lsb2(1) << 16) | (lsb2(2) << 32) | (lsb2(3) << 48));
        st(&mut out[8..], lsb2(4) | (lsb2(5) << 16) | (lsb2(6) << 32) | (lsb2(7) << 48));
    }

    /// One line, n = 2: 64 B → 32 B (four output u64s of low half-words).
    #[inline(always)]
    fn pack2(line: &[u8], out: &mut [u8]) {
        let half2 = |j: usize| {
            let x = ld(&line[8 * j..8 * j + 8]);
            (x & 0xFFFF) | ((x >> 16) & 0xFFFF_0000)
        };
        for j in 0..4 {
            st(&mut out[8 * j..8 * j + 8], half2(2 * j) | (half2(2 * j + 1) << 32));
        }
    }

    /// One line, n = 3: 64 B → 48 B. Each source u64 yields one 48-bit
    /// lane (low 3 bytes of both words); four lanes pack into three
    /// output u64s, done twice per line.
    #[inline(always)]
    fn pack3(line: &[u8], out: &mut [u8]) {
        let t = |j: usize| {
            let x = ld(&line[8 * j..8 * j + 8]);
            (x & 0x00FF_FFFF) | ((x >> 8) & 0x0000_FFFF_FF00_0000)
        };
        for h in 0..2 {
            let (t0, t1, t2, t3) = (t(4 * h), t(4 * h + 1), t(4 * h + 2), t(4 * h + 3));
            let base = 24 * h;
            st(&mut out[base..base + 8], t0 | (t1 << 48));
            st(&mut out[base + 8..base + 16], (t1 >> 16) | (t2 << 32));
            st(&mut out[base + 16..base + 24], (t2 >> 32) | (t3 << 16));
        }
    }

    /// One line, n = 1: keep the high 3 bytes of every resident word, OR
    /// in one payload byte per word.
    #[inline(always)]
    fn merge1(payload: &[u8], resident: &mut [u8]) {
        const KEEP: u64 = 0xFFFF_FF00_FFFF_FF00;
        for h in 0..2 {
            let p = ld(&payload[8 * h..8 * h + 8]);
            for i in 0..4 {
                let ins = ((p >> (16 * i)) & 0xFF) | (((p >> (16 * i + 8)) & 0xFF) << 32);
                let off = 32 * h + 8 * i;
                let r = ld(&resident[off..off + 8]);
                st(&mut resident[off..off + 8], (r & KEEP) | ins);
            }
        }
    }

    /// One line, n = 2: keep the high half of every resident word, OR in
    /// one payload half-word per word.
    #[inline(always)]
    fn merge2(payload: &[u8], resident: &mut [u8]) {
        const KEEP: u64 = 0xFFFF_0000_FFFF_0000;
        for j in 0..4 {
            let p = ld(&payload[8 * j..8 * j + 8]);
            let lo = (p & 0xFFFF) | ((p & 0xFFFF_0000) << 16);
            let hi = ((p >> 32) & 0xFFFF) | ((p >> 16) & 0x0000_FFFF_0000_0000);
            let off = 16 * j;
            let r0 = ld(&resident[off..off + 8]);
            let r1 = ld(&resident[off + 8..off + 16]);
            st(&mut resident[off..off + 8], (r0 & KEEP) | lo);
            st(&mut resident[off + 8..off + 16], (r1 & KEEP) | hi);
        }
    }

    /// Element-wise wrapping FP32-word accumulate: `acc[w] += src[w]` for
    /// every 4-byte word, eight bytes at a time. Each `u64` chunk is two
    /// independent `u32` lanes added with `wrapping_add` and repacked —
    /// branch-free, so LLVM autovectorizes it like the pack/merge swizzles
    /// above. Wrapping `u32` addition is commutative **and** associative,
    /// so any reduction order (pool-staged shard order, ring hop order)
    /// produces bit-identical sums — the property the collective layer's
    /// pool-vs-ring data-equality checks lean on. `src` and `acc` must be
    /// the same length, a multiple of 4 bytes; no alignment is required.
    pub fn reduce_sum_run(src: &[u8], acc: &mut [u8]) {
        assert_eq!(src.len(), acc.len(), "reduce operands must be the same length");
        assert_eq!(src.len() % 4, 0, "reduce operates on whole FP32 words");
        let full = src.len() & !7;
        let (s8, s_tail) = src.split_at(full);
        let (a8, a_tail) = acc.split_at_mut(full);
        for (sc, ac) in s8.chunks_exact(8).zip(a8.chunks_exact_mut(8)) {
            let x = ld(sc);
            let y = ld(ac);
            let lo = (y as u32).wrapping_add(x as u32) as u64;
            let hi = ((y >> 32) as u32).wrapping_add((x >> 32) as u32) as u64;
            st(ac, lo | (hi << 32));
        }
        // A lone trailing word when the run has an odd word count.
        for (sc, ac) in s_tail.chunks_exact(4).zip(a_tail.chunks_exact_mut(4)) {
            let v = u32::from_le_bytes(ac.try_into().expect("4-byte word"))
                .wrapping_add(u32::from_le_bytes(sc.try_into().expect("4-byte word")));
            ac.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// One line, n = 3: reassemble the four 48-bit lanes of each
    /// payload-u64 triple, keep the top byte of every resident word, OR
    /// in the low 3 bytes.
    #[inline(always)]
    fn merge3(payload: &[u8], resident: &mut [u8]) {
        const KEEP: u64 = 0xFF00_0000_FF00_0000;
        const M48: u64 = 0xFFFF_FFFF_FFFF;
        for h in 0..2 {
            let base = 24 * h;
            let o0 = ld(&payload[base..base + 8]);
            let o1 = ld(&payload[base + 8..base + 16]);
            let o2 = ld(&payload[base + 16..base + 24]);
            let lanes = [
                o0 & M48,
                ((o0 >> 48) | (o1 << 16)) & M48,
                ((o1 >> 32) | (o2 << 32)) & M48,
                o2 >> 16,
            ];
            for (j, t) in lanes.into_iter().enumerate() {
                let ins = (t & 0xFF_FFFF) | ((t >> 24) << 32);
                let off = 32 * h + 8 * j;
                let r = ld(&resident[off..off + 8]);
                st(&mut resident[off..off + 8], (r & KEEP) | ins);
            }
        }
    }
}

/// The pre-vectorization scalar kernels, kept **verbatim** as the oracle
/// the proptest equivalence suite (and the same-run `teco-bench
/// perf-smoke` speedup gate) measures [`kernels`] against — the same pattern [`crate::refmaps`]
/// uses for the arena rewrites. Nothing in the product path calls these.
pub mod scalar {
    use teco_mem::line::{LineData, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};

    /// Pack the low `n` (1..=3) bytes of each FP32 word into a dense payload
    /// using whole-`u32` loads and shift/OR combining — four payload bytes are
    /// produced per store instead of one.
    #[inline]
    pub fn pack_line(line: &LineData, n: usize, out: &mut [u8]) {
        debug_assert!((1..=3).contains(&n));
        debug_assert_eq!(out.len(), WORDS_PER_LINE * n);
        match n {
            1 => {
                // 4 words -> 1 output u32 (one LSB each).
                for (j, dst) in out.chunks_exact_mut(WORD_BYTES).enumerate() {
                    let w = j * 4;
                    let v = (line.word(w) & 0xFF)
                        | ((line.word(w + 1) & 0xFF) << 8)
                        | ((line.word(w + 2) & 0xFF) << 16)
                        | (line.word(w + 3) << 24);
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            2 => {
                // 2 words -> 1 output u32 (low half-word each).
                for (j, dst) in out.chunks_exact_mut(WORD_BYTES).enumerate() {
                    let w = j * 2;
                    let v = (line.word(w) & 0xFFFF) | (line.word(w + 1) << 16);
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            _ => {
                // 4 words -> 3 output u32s (low 3 bytes each, densely packed).
                for (j, dst) in out.chunks_exact_mut(3 * WORD_BYTES).enumerate() {
                    let w = j * 4;
                    let (w0, w1, w2, w3) =
                        (line.word(w), line.word(w + 1), line.word(w + 2), line.word(w + 3));
                    let v0 = (w0 & 0x00FF_FFFF) | (w1 << 24);
                    let v1 = ((w1 >> 8) & 0xFFFF) | (w2 << 16);
                    let v2 = ((w2 >> 16) & 0xFF) | (w3 << 8);
                    dst[0..4].copy_from_slice(&v0.to_le_bytes());
                    dst[4..8].copy_from_slice(&v1.to_le_bytes());
                    dst[8..12].copy_from_slice(&v2.to_le_bytes());
                }
            }
        }
    }

    /// The pre-fusion Fletcher-16: the second-pass byte loop that
    /// [`super::Aggregator::aggregate_into_checksummed`] used to run over
    /// the packed payload, with both `% 255` folds paid on every byte.
    /// [`crate::fault::line_checksum`] defers the folds across 4 KiB
    /// blocks; this oracle pins the reference semantics the fused path
    /// must match.
    pub fn line_checksum_bytewise(payload: &[u8]) -> u16 {
        let (mut a, mut b) = (0u16, 0u16);
        for &x in payload {
            a = (a + x as u16) % 255;
            b = (b + a) % 255;
        }
        (b << 8) | a
    }

    /// Word-at-a-time wrapping accumulate, the reference semantics for
    /// [`super::kernels::reduce_sum_run`]: one `u32` load, add, store per
    /// FP32 word.
    pub fn reduce_sum_words(src: &[u8], acc: &mut [u8]) {
        debug_assert_eq!(src.len(), acc.len());
        debug_assert_eq!(src.len() % WORD_BYTES, 0);
        for (s, a) in src.chunks_exact(WORD_BYTES).zip(acc.chunks_exact_mut(WORD_BYTES)) {
            let v = u32::from_le_bytes(a.try_into().expect("4-byte word"))
                .wrapping_add(u32::from_le_bytes(s.try_into().expect("4-byte word")));
            a.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Byte-slice reset-shift-OR merge, so the merge can target raw
    /// arena memory (a 64-byte stride of the giant-cache data slab) without a
    /// `LineData` round trip.
    #[inline]
    pub fn unpack_merge_bytes(payload: &[u8], n: usize, resident: &mut [u8]) {
        debug_assert!((1..=3).contains(&n));
        debug_assert_eq!(payload.len(), WORDS_PER_LINE * n);
        debug_assert_eq!(resident.len(), LINE_BYTES);
        let load = |chunk: &[u8]| u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        let word = |res: &[u8], w: usize| load(&res[w * WORD_BYTES..(w + 1) * WORD_BYTES]);
        let set = |res: &mut [u8], w: usize, v: u32| {
            res[w * WORD_BYTES..(w + 1) * WORD_BYTES].copy_from_slice(&v.to_le_bytes())
        };
        match n {
            1 => {
                for (j, src) in payload.chunks_exact(WORD_BYTES).enumerate() {
                    let v = load(src);
                    let w = j * 4;
                    for b in 0..4 {
                        let old = word(resident, w + b) & !0xFF;
                        set(resident, w + b, old | ((v >> (8 * b)) & 0xFF));
                    }
                }
            }
            2 => {
                for (j, src) in payload.chunks_exact(WORD_BYTES).enumerate() {
                    let v = load(src);
                    let w = j * 2;
                    set(resident, w, (word(resident, w) & !0xFFFF) | (v & 0xFFFF));
                    set(resident, w + 1, (word(resident, w + 1) & !0xFFFF) | (v >> 16));
                }
            }
            _ => {
                for (j, src) in payload.chunks_exact(3 * WORD_BYTES).enumerate() {
                    let (v0, v1, v2) = (load(&src[0..4]), load(&src[4..8]), load(&src[8..12]));
                    let w = j * 4;
                    let keep = 0xFF00_0000u32;
                    set(resident, w, (word(resident, w) & keep) | (v0 & 0x00FF_FFFF));
                    set(
                        resident,
                        w + 1,
                        (word(resident, w + 1) & keep) | (v0 >> 24) | ((v1 & 0xFFFF) << 8),
                    );
                    set(
                        resident,
                        w + 2,
                        (word(resident, w + 2) & keep) | (v1 >> 16) | ((v2 & 0xFF) << 16),
                    );
                    set(resident, w + 3, (word(resident, w + 3) & keep) | (v2 >> 8));
                }
            }
        }
    }
}

/// Reference model: what the merged line *should* be — each word keeps the
/// high `4-N` bytes of the stale resident word and takes the low `N` bytes
/// from the freshly-updated source word. Used by tests to validate the
/// reset-shift-OR implementation.
pub fn merged_reference(stale: &LineData, fresh: &LineData, dirty_bytes: u8) -> LineData {
    let n = dirty_bytes as usize;
    assert!(n <= 4);
    let mut out = *stale;
    for w in 0..WORDS_PER_LINE {
        if n == 4 {
            out.set_word(w, fresh.word(w));
        } else if n > 0 {
            let low_mask: u32 = (1u32 << (8 * n)) - 1;
            let merged = (stale.word(w) & !low_mask) | (fresh.word(w) & low_mask);
            out.set_word(w, merged);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of_words(f: impl Fn(usize) -> u32) -> LineData {
        let mut l = LineData::zeroed();
        for w in 0..WORDS_PER_LINE {
            l.set_word(w, f(w));
        }
        l
    }

    #[test]
    fn register_encoding_matches_paper() {
        // "the DBA register is set to 1010₂" for active + 2 dirty bytes.
        let r = DbaRegister::new(true, 2);
        assert_eq!(r.bits(), 0b1010);
        assert!(r.active());
        assert_eq!(r.dirty_bytes(), 2);
        assert_eq!(r.payload_bytes(), 32);
        assert!((r.compression() - 0.5).abs() < 1e-12);

        let off = DbaRegister::new(false, 2);
        assert!(!off.active());
        assert_eq!(off.payload_bytes(), 64);

        assert_eq!(DbaRegister::from_bits(0b1010), r);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_rejects_bad_length() {
        DbaRegister::new(true, 5);
    }

    #[test]
    fn aggregate_two_dirty_bytes() {
        // Words 0xAABBCCDD (LE bytes DD CC BB AA): low 2 bytes are DD CC.
        let line = line_of_words(|w| 0xAABB_CC00 | w as u32);
        let mut agg = Aggregator::new();
        agg.set_register(DbaRegister::new(true, 2));
        let p = agg.aggregate(&line);
        assert_eq!(p.len(), 32);
        for w in 0..WORDS_PER_LINE {
            assert_eq!(p[w * 2], w as u8); // LSB
            assert_eq!(p[w * 2 + 1], 0xCC); // second byte
        }
        assert_eq!(agg.lines_aggregated(), 1);
        assert_eq!(agg.payload_bytes_out(), 32);
    }

    #[test]
    fn aggregate_bypass_when_inactive() {
        let line = line_of_words(|w| w as u32 * 17);
        let mut agg = Aggregator::new();
        let p = agg.aggregate(&line);
        assert_eq!(p, line.bytes().to_vec());
        assert_eq!(agg.lines_bypassed(), 1);
        assert_eq!(agg.lines_aggregated(), 0);
    }

    #[test]
    fn aggregate_one_and_three_dirty_bytes() {
        let line = line_of_words(|w| 0x1122_3344 + w as u32);
        for n in [1u8, 3] {
            let mut agg = Aggregator::new();
            agg.set_register(DbaRegister::new(true, n));
            let p = agg.aggregate(&line);
            assert_eq!(p.len(), 16 * n as usize);
        }
    }

    #[test]
    fn merge_reconstructs_update() {
        // Stale resident line vs freshly updated CPU line differing only in
        // low 2 bytes of each word — DBA with N=2 must reconstruct exactly.
        let stale = line_of_words(|w| 0x4000_1234 + (w as u32) * 0x0001_0000);
        let fresh = line_of_words(|w| (stale_word(&stale, w) & 0xFFFF_0000) | (0xBEEF ^ w as u32));
        let mut agg = Aggregator::new();
        let mut dis = Disaggregator::new();
        let reg = DbaRegister::new(true, 2);
        agg.set_register(reg);
        dis.set_register(reg);

        let payload = agg.aggregate(&fresh);
        let mut resident = stale;
        dis.merge(&payload, &mut resident);
        assert_eq!(resident, fresh);
        assert_eq!(dis.extra_reads(), 1);
    }

    fn stale_word(l: &LineData, w: usize) -> u32 {
        l.word(w)
    }

    #[test]
    fn merge_is_lossy_when_high_bytes_changed() {
        // If the fresh value changed its top bytes too, N=2 DBA produces an
        // approximation: high bytes stay stale. This is the accuracy trade
        // studied in Table V / Fig 13.
        let stale = line_of_words(|_| 0x11111111);
        let fresh = line_of_words(|_| 0x2222_3333); // top bytes changed
        let reg = DbaRegister::new(true, 2);
        let mut agg = Aggregator::new();
        let mut dis = Disaggregator::new();
        agg.set_register(reg);
        dis.set_register(reg);
        let mut resident = stale;
        dis.merge(&agg.aggregate(&fresh), &mut resident);
        // Merged word: stale high half, fresh low half.
        for w in 0..WORDS_PER_LINE {
            assert_eq!(resident.word(w), 0x1111_3333);
        }
        assert_eq!(resident, merged_reference(&stale, &fresh, 2));
    }

    #[test]
    fn merge_matches_reference_for_all_lengths() {
        let stale = line_of_words(|w| 0x90AB_CDEF ^ (w as u32 * 0x0101_0101));
        let fresh = line_of_words(|w| 0x1234_5678 ^ (w as u32 * 0x1111_1111));
        for n in 0..=4u8 {
            let reg = DbaRegister::new(true, n);
            let mut agg = Aggregator::new();
            let mut dis = Disaggregator::new();
            agg.set_register(reg);
            dis.set_register(reg);
            let mut resident = stale;
            dis.merge(&agg.aggregate(&fresh), &mut resident);
            assert_eq!(resident, merged_reference(&stale, &fresh, n), "n={n}");
        }
    }

    #[test]
    fn merge_full_line_when_inactive() {
        let stale = line_of_words(|_| 0);
        let fresh = line_of_words(|w| w as u32 + 1);
        let mut agg = Aggregator::new();
        let mut dis = Disaggregator::new();
        let mut resident = stale;
        dis.merge(&agg.aggregate(&fresh), &mut resident);
        assert_eq!(resident, fresh);
        assert_eq!(dis.extra_reads(), 0); // full-line write needs no merge read
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn merge_rejects_wrong_payload_size() {
        let mut dis = Disaggregator::new();
        dis.set_register(DbaRegister::new(true, 2));
        let mut resident = LineData::zeroed();
        dis.merge(&[0u8; 16], &mut resident);
    }

    #[test]
    fn bulk_aggregate_matches_per_line_for_all_lengths() {
        let lines: Vec<LineData> = (0..7)
            .map(|i| line_of_words(|w| (i as u32 * 0x0DDB_1A5E) ^ (w as u32 * 0x0101_0011)))
            .collect();
        for active in [false, true] {
            for n in 0..=4u8 {
                let reg = DbaRegister::new(active, n);
                let mut bulk = Aggregator::new();
                let mut legacy = Aggregator::new();
                bulk.set_register(reg);
                legacy.set_register(reg);

                let mut wire = Vec::new();
                let total = bulk.aggregate_lines(&lines, &mut wire);
                assert_eq!(total, wire.len());
                assert_eq!(total, reg.payload_bytes() * lines.len());

                let per_line: Vec<u8> = lines.iter().flat_map(|l| legacy.aggregate(l)).collect();
                assert_eq!(wire, per_line, "active={active} n={n}");
                assert_eq!(bulk.lines_aggregated(), legacy.lines_aggregated());
                assert_eq!(bulk.lines_bypassed(), legacy.lines_bypassed());
                assert_eq!(bulk.payload_bytes_out(), legacy.payload_bytes_out());
            }
        }
    }

    #[test]
    fn bulk_roundtrip_matches_reference_and_counters() {
        let stale: Vec<LineData> = (0..5)
            .map(|i| line_of_words(|w| 0x90AB_CDEF ^ ((i * 16 + w) as u32 * 0x0101_0101)))
            .collect();
        let fresh: Vec<LineData> = (0..5)
            .map(|i| {
                line_of_words(|w| 0x1234_5678 ^ ((i * 16 + w) as u32).wrapping_mul(0x1111_1111))
            })
            .collect();
        for n in 0..=4u8 {
            let reg = DbaRegister::new(true, n);
            let mut agg = Aggregator::new();
            let mut bulk_dis = Disaggregator::new();
            let mut legacy_dis = Disaggregator::new();
            agg.set_register(reg);
            bulk_dis.set_register(reg);
            legacy_dis.set_register(reg);

            let mut wire = Vec::new();
            agg.aggregate_lines(&fresh, &mut wire);

            let mut bulk_res = stale.clone();
            bulk_dis.disaggregate_lines(&wire, &mut bulk_res);

            let per = reg.payload_bytes();
            let mut legacy_res = stale.clone();
            for (i, r) in legacy_res.iter_mut().enumerate() {
                legacy_dis.merge(&wire[i * per..(i + 1) * per], r);
            }

            for (i, (b, l)) in bulk_res.iter().zip(&legacy_res).enumerate() {
                assert_eq!(b, l, "n={n} line={i}");
                assert_eq!(*b, merged_reference(&stale[i], &fresh[i], n), "n={n} line={i}");
            }
            assert_eq!(bulk_dis.lines_merged(), legacy_dis.lines_merged());
            assert_eq!(bulk_dis.extra_reads(), legacy_dis.extra_reads());
        }
    }

    #[test]
    fn aggregate_into_writes_prefix_only() {
        let line = line_of_words(|w| 0xCAFE_0000 | w as u32);
        let mut agg = Aggregator::new();
        agg.set_register(DbaRegister::new(true, 2));
        let mut buf = [0xEEu8; LINE_BYTES];
        let written = agg.aggregate_into(&line, &mut buf);
        assert_eq!(written, 32);
        assert_eq!(&buf[..32], agg.aggregate(&line).as_slice());
        assert!(buf[32..].iter().all(|&b| b == 0xEE), "suffix must be untouched");
    }

    #[test]
    fn slab_merge_matches_line_merge_and_counters() {
        let stale: Vec<LineData> = (0..5)
            .map(|i| line_of_words(|w| 0x5EED_BEEF ^ ((i * 16 + w) as u32 * 0x0101_0101)))
            .collect();
        let fresh: Vec<LineData> = (0..5)
            .map(|i| line_of_words(|w| ((i * 16 + w) as u32).wrapping_mul(0x2222_1111)))
            .collect();
        for active in [false, true] {
            for n in 0..=4u8 {
                let reg = DbaRegister::new(active, n);
                let mut agg = Aggregator::new();
                let mut slab_dis = Disaggregator::new();
                let mut line_dis = Disaggregator::new();
                agg.set_register(reg);
                slab_dis.set_register(reg);
                line_dis.set_register(reg);

                let mut wire = Vec::new();
                agg.aggregate_lines(&fresh, &mut wire);

                let mut slab: Vec<u8> = stale.iter().flat_map(|l| l.bytes().to_vec()).collect();
                slab_dis.disaggregate_slab(&wire, &mut slab);

                let mut lines = stale.clone();
                line_dis.disaggregate_lines(&wire, &mut lines);

                let want: Vec<u8> = lines.iter().flat_map(|l| l.bytes().to_vec()).collect();
                assert_eq!(slab, want, "active={active} n={n}");
                assert_eq!(slab_dis.lines_merged(), line_dis.lines_merged());
                assert_eq!(slab_dis.extra_reads(), line_dis.extra_reads());
            }
        }
    }

    #[test]
    fn checksummed_aggregation_matches_separate_passes() {
        let line = line_of_words(|w| 0xFACE_0000 | (w as u32 * 31));
        for active in [false, true] {
            for n in 0..=4u8 {
                let reg = DbaRegister::new(active, n);
                let mut fused = Aggregator::new();
                let mut plain = Aggregator::new();
                fused.set_register(reg);
                plain.set_register(reg);
                let mut a = [0u8; LINE_BYTES];
                let mut b = [0u8; LINE_BYTES];
                let (wa, ck) = fused.aggregate_into_checksummed(&line, &mut a);
                let wb = plain.aggregate_into(&line, &mut b);
                assert_eq!(wa, wb);
                assert_eq!(a[..wa], b[..wb]);
                assert_eq!(ck, crate::fault::line_checksum(&a[..wa]), "active={active} n={n}");
                assert_eq!(fused.payload_bytes_out(), plain.payload_bytes_out());
                assert_eq!(fused.lines_aggregated(), plain.lines_aggregated());
                assert_eq!(fused.lines_bypassed(), plain.lines_bypassed());
            }
        }
    }

    #[test]
    fn bulk_aggregate_n0_pins_empty_output() {
        // With the register active and dirty_bytes == 0 the per-line
        // payload is zero bytes: the wire buffer must come back empty
        // (cleared), the lines still count as aggregated, and a dirty
        // prior buffer must not leak through.
        let lines: Vec<LineData> = (0..4).map(|i| line_of_words(|w| (i * 16 + w) as u32)).collect();
        let mut agg = Aggregator::new();
        agg.set_register(DbaRegister::new(true, 0));
        let mut wire = vec![0xAB; 99];
        let total = agg.aggregate_lines(&lines, &mut wire);
        assert_eq!(total, 0);
        assert!(wire.is_empty());
        assert_eq!(agg.lines_aggregated(), 4);
        assert_eq!(agg.lines_bypassed(), 0);
        assert_eq!(agg.payload_bytes_out(), 0);
    }

    #[test]
    fn bulk_aggregate_reuses_dirty_buffers_without_zero_fill_artifacts() {
        // The bulk path writes into spare capacity instead of zero-filling;
        // a previously larger, non-zero buffer must still come back holding
        // exactly the packed payload.
        let lines: Vec<LineData> =
            (0..3).map(|i| line_of_words(|w| 0xA5A5_0000 | (i * 16 + w) as u32)).collect();
        for n in 0..=4u8 {
            let reg = DbaRegister::new(true, n);
            let mut agg = Aggregator::new();
            let mut clean = Aggregator::new();
            agg.set_register(reg);
            clean.set_register(reg);
            let mut dirty = vec![0xEE; 1024];
            agg.aggregate_lines(&lines, &mut dirty);
            let mut fresh = Vec::new();
            clean.aggregate_lines(&lines, &mut fresh);
            assert_eq!(dirty, fresh, "n={n}");
        }
    }

    #[test]
    fn chunked_kernels_match_scalar_oracle_on_fixed_vectors() {
        // Spot-check the u64 kernels against the verbatim scalar oracle on
        // a handful of adversarial byte patterns; the proptest equivalence
        // suite (tests/dba_kernel_equivalence.rs) covers the random space.
        let patterns: Vec<LineData> = vec![
            line_of_words(|_| 0),
            line_of_words(|_| u32::MAX),
            line_of_words(|w| 1u32 << (w % 32)),
            line_of_words(|w| 0x8040_2010u32.rotate_left(w as u32)),
            line_of_words(|w| (w as u32).wrapping_mul(0x9E37_79B9)),
        ];
        for line in &patterns {
            for n in 1..=3usize {
                let per = WORDS_PER_LINE * n;
                let mut fast = vec![0u8; per];
                let mut slow = vec![0u8; per];
                kernels::pack_run(line.bytes(), n, &mut fast);
                scalar::pack_line(line, n, &mut slow);
                assert_eq!(fast, slow, "pack n={n} line={line:?}");

                for stale in &patterns {
                    let mut fast_res = *stale.bytes();
                    let mut slow_res = *stale.bytes();
                    kernels::merge_run(&fast, n, &mut fast_res);
                    scalar::unpack_merge_bytes(&slow, n, &mut slow_res);
                    assert_eq!(fast_res, slow_res, "merge n={n}");
                }
            }
        }
    }

    #[test]
    fn float_parameters_roundtrip_when_only_mantissa_changes() {
        // The motivating case from §III: FP32 params whose low 16 mantissa
        // bits change between steps are transferred exactly with N=2.
        let mut stale_words = [0f32; WORDS_PER_LINE];
        let mut fresh_words = [0f32; WORDS_PER_LINE];
        for i in 0..WORDS_PER_LINE {
            let base = 0.7311f32 + i as f32 * 0.001;
            stale_words[i] = base;
            // Perturb only low mantissa bits.
            fresh_words[i] = f32::from_bits((base.to_bits() & 0xFFFF_0000) | 0x0000_1A2B);
        }
        let stale = LineData::from_f32(stale_words);
        let fresh = LineData::from_f32(fresh_words);
        let reg = DbaRegister::new(true, 2);
        let mut agg = Aggregator::new();
        let mut dis = Disaggregator::new();
        agg.set_register(reg);
        dis.set_register(reg);
        let mut resident = stale;
        dis.merge(&agg.aggregate(&fresh), &mut resident);
        assert_eq!(resident.to_f32().map(f32::to_bits), fresh.to_f32().map(f32::to_bits));
    }
}
