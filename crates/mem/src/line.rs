//! Cache-line primitives: physical addresses, 64-byte line payloads, and
//! word-level accessors. The dirty-byte aggregation logic in `teco-cxl`
//! operates on these payloads bit-exactly.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use teco_sim::{check_runs, Bytes};

/// Cache-line size in bytes. The paper (and gem5 Table II) uses 64-byte
/// lines throughout; DBA packs "the last N bytes of each 4-byte parameter"
/// out of a 64-byte line.
pub const LINE_BYTES: usize = 64;
/// 4-byte word size — one FP32 parameter.
pub const WORD_BYTES: usize = 4;
/// Words per cache line (16 FP32 parameters).
pub const WORDS_PER_LINE: usize = LINE_BYTES / WORD_BYTES;

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(pub u64);

impl Addr {
    /// The address of the cache line containing this byte.
    #[inline]
    pub const fn line_base(self) -> Addr {
        Addr(self.0 & !(LINE_BYTES as u64 - 1))
    }
    /// Byte offset within the cache line.
    #[inline]
    pub const fn line_offset(self) -> usize {
        (self.0 & (LINE_BYTES as u64 - 1)) as usize
    }
    /// True when line-aligned.
    #[inline]
    pub const fn is_line_aligned(self) -> bool {
        self.0.is_multiple_of(LINE_BYTES as u64)
    }
    /// Line index (address / 64).
    #[inline]
    pub const fn line_index(self) -> u64 {
        self.0 / LINE_BYTES as u64
    }
    /// Add a byte offset.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

/// Number of 64-byte lines needed to hold `bytes` (ceiling division).
#[inline]
pub const fn lines_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(LINE_BYTES as u64)
}

/// The payload of one 64-byte cache line.
///
/// `repr(transparent)` over the byte array so a run of lines is one
/// contiguous byte region — [`lines_as_bytes`] hands that region to the
/// bulk pack/merge kernels without per-line staging.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct LineData(pub [u8; LINE_BYTES]);

/// View a run of lines as one contiguous byte slice (`len * 64` bytes).
#[inline]
pub fn lines_as_bytes(lines: &[LineData]) -> &[u8] {
    // SAFETY: `LineData` is `repr(transparent)` over `[u8; LINE_BYTES]`,
    // so a slice of lines is exactly `lines.len() * LINE_BYTES` contiguous
    // initialized bytes with alignment 1.
    unsafe { std::slice::from_raw_parts(lines.as_ptr().cast(), lines.len() * LINE_BYTES) }
}

/// Mutable counterpart of [`lines_as_bytes`]. Every byte pattern is a
/// valid `LineData`, so arbitrary writes through the view are sound.
#[inline]
pub fn lines_as_bytes_mut(lines: &mut [LineData]) -> &mut [u8] {
    // SAFETY: as in `lines_as_bytes`; `LineData` has no invalid bit
    // patterns, so mutation through the byte view cannot break it.
    unsafe { std::slice::from_raw_parts_mut(lines.as_mut_ptr().cast(), lines.len() * LINE_BYTES) }
}

/// Decoded bytes that are not a whole number of cache lines, refused by
/// [`lines_from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineLenError {
    /// The byte count.
    pub len: usize,
}

impl fmt::Display for LineLenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bytes, not a whole number of {LINE_BYTES}-byte lines", self.len)
    }
}

impl std::error::Error for LineLenError {}

/// The one checked way from decoded bytes to lines: snapshot decoders
/// turn a ragged length into a typed error instead of a panic.
pub fn lines_from_bytes(bytes: &[u8]) -> Result<Vec<LineData>, LineLenError> {
    if !bytes.len().is_multiple_of(LINE_BYTES) {
        return Err(LineLenError { len: bytes.len() });
    }
    let mut lines = vec![LineData::zeroed(); bytes.len() / LINE_BYTES];
    lines_as_bytes_mut(&mut lines).copy_from_slice(bytes);
    Ok(lines)
}

/// Address-keyed lines as runs of consecutive lines, each `(first
/// address, bytes)`, ascending: the snapshot image of a sparse line store.
pub fn line_runs(lines: &HashMap<u64, LineData>) -> Vec<(u64, Bytes)> {
    let mut sorted: Vec<(u64, &LineData)> = lines.iter().map(|(&a, l)| (a, l)).collect();
    sorted.sort_unstable_by_key(|&(a, _)| a);
    let mut runs: Vec<(u64, Bytes)> = Vec::new();
    for (a, line) in sorted {
        match runs.last_mut() {
            Some((first, run)) if *first + run.len() as u64 == a => {
                run.extend_from_slice(line.bytes())
            }
            _ => runs.push((a, Bytes(line.bytes().to_vec()))),
        }
    }
    runs
}

/// Rebuild a sparse line store from [`line_runs`] output. A run that is
/// not whole lines, or that is empty, unsorted or overlapping, is an
/// error naming `what`.
pub fn lines_from_runs(
    what: &str,
    runs: &[(u64, Bytes)],
) -> Result<HashMap<u64, LineData>, String> {
    check_runs(what, runs.iter().map(|(a, b)| (*a, b.len() as u64)), u64::MAX)?;
    let mut out = HashMap::new();
    for (i, (first, bytes)) in runs.iter().enumerate() {
        let lines = lines_from_bytes(bytes).map_err(|e| format!("{what} run {i} has {e}"))?;
        let addr = |k: usize| first + (k * LINE_BYTES) as u64;
        out.extend(lines.into_iter().enumerate().map(|(k, l)| (addr(k), l)));
    }
    Ok(out)
}

impl Default for LineData {
    fn default() -> Self {
        LineData([0u8; LINE_BYTES])
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData[")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 && i % 4 == 0 {
                write!(f, " ")?;
            }
            write!(f, "{b:02x}")?;
        }
        write!(f, "]")
    }
}

impl LineData {
    /// A zero-filled line.
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// Build a line from 16 FP32 values (little-endian, the layout PyTorch
    /// tensors have on x86).
    pub fn from_f32(words: [f32; WORDS_PER_LINE]) -> Self {
        let mut data = [0u8; LINE_BYTES];
        for (i, w) in words.iter().enumerate() {
            data[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bits_bytes());
        }
        LineData(data)
    }

    /// Decode the 16 FP32 values in the line.
    pub fn to_f32(&self) -> [f32; WORDS_PER_LINE] {
        let mut out = [0f32; WORDS_PER_LINE];
        for (i, o) in out.iter_mut().enumerate() {
            let mut b = [0u8; 4];
            b.copy_from_slice(&self.0[i * 4..i * 4 + 4]);
            *o = f32::from_le_bytes(b);
        }
        out
    }

    /// Read word `w` (0..16) as raw little-endian u32.
    #[inline]
    pub fn word(&self, w: usize) -> u32 {
        assert!(w < WORDS_PER_LINE);
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.0[w * 4..w * 4 + 4]);
        u32::from_le_bytes(b)
    }

    /// Write word `w` (0..16) as raw little-endian u32.
    #[inline]
    pub fn set_word(&mut self, w: usize, v: u32) {
        assert!(w < WORDS_PER_LINE);
        self.0[w * 4..w * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Bytes of the line.
    #[inline]
    pub fn bytes(&self) -> &[u8; LINE_BYTES] {
        &self.0
    }
    /// Mutable bytes of the line.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; LINE_BYTES] {
        &mut self.0
    }
}

/// Helper trait: `f32::to_le_bits_bytes` without going through `u32` at every
/// call site.
trait F32Ext {
    fn to_le_bits_bytes(self) -> [u8; 4];
}
impl F32Ext for f32 {
    #[inline]
    fn to_le_bits_bytes(self) -> [u8; 4] {
        self.to_le_bytes()
    }
}

/// Classification of *which bytes changed* between two observations of the
/// same 4-byte word across consecutive training steps — the paper's Fig. 2
/// taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ByteChange {
    /// All four bytes identical (the word did not change value).
    Unchanged,
    /// Only the least-significant byte changed (Fig 2 "case 1").
    LastByte,
    /// Only the least-significant two bytes changed (Fig 2 "case 2").
    LastTwoBytes,
    /// Any other distribution of changed bytes (Fig 2 "case 3").
    Other,
}

/// Classify the byte-level difference between `old` and `new` 32-bit words.
///
/// FP32 is stored little-endian, so "least significant two bytes" are the low
/// two bytes of the `u32` representation — the low 16 mantissa bits of the
/// float, matching §III's observation that value changes concentrate in the
/// mantissa.
pub fn classify_change(old: u32, new: u32) -> ByteChange {
    let diff = old ^ new;
    if diff == 0 {
        ByteChange::Unchanged
    } else if diff & 0xFFFF_FF00 == 0 {
        ByteChange::LastByte
    } else if diff & 0xFFFF_0000 == 0 {
        ByteChange::LastTwoBytes
    } else {
        ByteChange::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_alignment() {
        let a = Addr(0x1234);
        assert_eq!(a.line_base(), Addr(0x1200));
        assert_eq!(a.line_offset(), 0x34);
        assert!(!a.is_line_aligned());
        assert!(Addr(0x1240).is_line_aligned());
        assert_eq!(Addr(128).line_index(), 2);
        assert_eq!(a.offset(0x10), Addr(0x1244));
    }

    #[test]
    fn lines_for_bytes_ceiling() {
        assert_eq!(lines_for_bytes(0), 0);
        assert_eq!(lines_for_bytes(1), 1);
        assert_eq!(lines_for_bytes(64), 1);
        assert_eq!(lines_for_bytes(65), 2);
        // Bert-large: 334M params × 4 B = 1.336 GB → ~20.9 M lines.
        assert_eq!(lines_for_bytes(334_000_000 * 4), 20_875_000);
    }

    #[test]
    fn line_f32_roundtrip() {
        let mut words = [0f32; WORDS_PER_LINE];
        for (i, w) in words.iter_mut().enumerate() {
            *w = (i as f32) * 1.5 - 3.25;
        }
        let line = LineData::from_f32(words);
        assert_eq!(line.to_f32(), words);
    }

    #[test]
    fn lines_as_bytes_views_are_contiguous_and_writable() {
        let mut lines: Vec<LineData> = (0..3u8)
            .map(|i| {
                let mut l = LineData::zeroed();
                l.bytes_mut().fill(i + 1);
                l
            })
            .collect();
        let flat = lines_as_bytes(&lines);
        assert_eq!(flat.len(), 3 * LINE_BYTES);
        for (i, chunk) in flat.chunks_exact(LINE_BYTES).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8 + 1), "line {i}");
        }
        assert_eq!(lines_as_bytes(&lines[..0]), &[] as &[u8]);

        lines_as_bytes_mut(&mut lines)[LINE_BYTES] = 0xEE;
        assert_eq!(lines[1].bytes()[0], 0xEE);
        assert_eq!(lines[0].bytes()[LINE_BYTES - 1], 1);
    }

    #[test]
    fn line_word_accessors() {
        let mut line = LineData::zeroed();
        line.set_word(0, 0xDEAD_BEEF);
        line.set_word(15, 0x0102_0304);
        assert_eq!(line.word(0), 0xDEAD_BEEF);
        assert_eq!(line.word(15), 0x0102_0304);
        assert_eq!(line.bytes()[0], 0xEF); // little-endian
        assert_eq!(line.word(7), 0);
    }

    #[test]
    #[should_panic]
    fn word_out_of_range_panics() {
        LineData::zeroed().word(16);
    }

    #[test]
    fn classify_change_cases() {
        assert_eq!(classify_change(0x11223344, 0x11223344), ByteChange::Unchanged);
        assert_eq!(classify_change(0x11223344, 0x11223345), ByteChange::LastByte);
        assert_eq!(classify_change(0x11223344, 0x1122FF44), ByteChange::LastTwoBytes);
        assert_eq!(classify_change(0x11223344, 0x11FF3344), ByteChange::Other);
        assert_eq!(classify_change(0x11223344, 0xFF223344), ByteChange::Other);
        // Change in byte 1 only still counts as "last two bytes" per the
        // paper's taxonomy (the low TWO bytes are where the change lives).
        assert_eq!(classify_change(0x11223344, 0x11223444), ByteChange::LastTwoBytes);
    }

    #[test]
    fn classify_change_on_floats() {
        // A small additive update to a float typically flips low mantissa
        // bits only.
        let old = 1.000000f32.to_bits();
        let new = 1.0000001f32.to_bits();
        assert_eq!(classify_change(old, new), ByteChange::LastByte);
        // A sign flip touches the top byte.
        let neg = (-1.0f32).to_bits();
        assert_eq!(classify_change(old, neg), ByteChange::Other);
    }
}
