//! Dense, region-indexed line arenas.
//!
//! Tensor regions give every cache line a stable `(region, line_index)`
//! coordinate, so per-line bookkeeping that the hot paths used to keep in
//! `HashMap<u64, …>`s can live in flat slabs addressed by O(1) arithmetic:
//! a [`LineIndexer`] maps a line address to a dense slot (binary search
//! over the handful of registered region spans — far cheaper than hashing
//! a SipHash key per event), a [`LineSlab`] stores per-line values in
//! lazily materialized fixed-size chunks (so a multi-GB timing-only region
//! costs no memory until a line is actually touched), and a [`LineBitmap`]
//! keeps one bit per line with a popcount maintained incrementally.
//!
//! Addresses outside every registered region resolve to
//! [`LineSlot::Spill`]: callers keep a small hash-map spillover for those,
//! preserving the old "any address works" behavior for standalone use
//! while the region-registered steady state never hashes.

use crate::line::{Addr, LINE_BYTES};
use teco_sim::check_runs;

/// Resolved coordinate of one cache line.
///
/// `Dense` carries the slot in the flat slabs; `Spill` carries the global
/// line index (address / 64) for the hash-map spillover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineSlot {
    /// Inside a registered region: index into the dense slabs.
    Dense(usize),
    /// Outside every registered region: global line index, for the
    /// spillover map.
    Spill(u64),
}

/// One registered span of lines.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// First line index (base address / 64).
    first_line: u64,
    /// Lines in the span.
    n_lines: usize,
    /// Dense slot of `first_line`.
    slot_base: usize,
}

/// Maps line addresses to dense slots across registered region spans.
///
/// Spans are assigned slots in registration order (append-only, so already
/// handed-out slots never move) and kept sorted by base line for binary
/// search on resolve.
#[derive(Debug, Clone, Default)]
pub struct LineIndexer {
    spans: Vec<Span>,
    slots: usize,
}

impl LineIndexer {
    /// Empty indexer: every address resolves to `Spill`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `bytes` (rounded up to whole lines) starting at `base`.
    /// Returns `false` (and registers nothing) if the span would overlap an
    /// existing one — callers treat those addresses as spillover.
    pub fn add_span(&mut self, base: Addr, bytes: u64) -> bool {
        let first_line = base.line_index();
        let n_lines = bytes.div_ceil(LINE_BYTES as u64) as usize;
        if n_lines == 0 {
            return true;
        }
        let overlaps = self.spans.iter().any(|s| {
            first_line < s.first_line + s.n_lines as u64
                && s.first_line < first_line + n_lines as u64
        });
        if overlaps {
            return false;
        }
        self.spans.push(Span { first_line, n_lines, slot_base: self.slots });
        self.slots += n_lines;
        self.spans.sort_by_key(|s| s.first_line);
        true
    }

    /// Total dense slots (lines) registered.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of registered spans.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// Resolve the line containing `a`.
    #[inline]
    pub fn resolve(&self, a: Addr) -> LineSlot {
        self.resolve_line(a.line_index())
    }

    /// Resolve a global line index.
    #[inline]
    pub fn resolve_line(&self, line: u64) -> LineSlot {
        let idx = self.spans.partition_point(|s| s.first_line <= line);
        if idx > 0 {
            let s = &self.spans[idx - 1];
            let off = line - s.first_line;
            if off < s.n_lines as u64 {
                return LineSlot::Dense(s.slot_base + off as usize);
            }
        }
        LineSlot::Spill(line)
    }

    /// Resolve a run of `n` consecutive lines starting at `a`. Returns the
    /// dense slot of the first line only when the *whole* run lies inside
    /// one span (so slot arithmetic `start + i` is valid for every line).
    pub fn resolve_run(&self, a: Addr, n: usize) -> Option<usize> {
        let line = a.line_index();
        let idx = self.spans.partition_point(|s| s.first_line <= line);
        if idx == 0 {
            return None;
        }
        let s = &self.spans[idx - 1];
        let off = line - s.first_line;
        (off + n as u64 <= s.n_lines as u64).then(|| s.slot_base + off as usize)
    }

    /// The registered spans as plain `(first_line, n_lines, slot_base)`
    /// triples, sorted by first line — the checkpoint image of the indexer.
    pub fn span_parts(&self) -> Vec<(u64, u64, u64)> {
        self.spans.iter().map(|s| (s.first_line, s.n_lines as u64, s.slot_base as u64)).collect()
    }

    /// Rebuild an indexer from [`LineIndexer::span_parts`] output. Slot
    /// assignments are restored verbatim, so dense slots handed out before
    /// the checkpoint stay valid after it.
    pub fn from_span_parts(parts: &[(u64, u64, u64)]) -> Self {
        let mut spans: Vec<Span> = parts
            .iter()
            .map(|&(first_line, n_lines, slot_base)| Span {
                first_line,
                n_lines: n_lines as usize,
                slot_base: slot_base as usize,
            })
            .collect();
        spans.sort_by_key(|s| s.first_line);
        let slots = parts.iter().map(|&(_, n, base)| (base + n) as usize).max().unwrap_or(0);
        LineIndexer { spans, slots }
    }
}

/// Lines per [`LineSlab`] chunk. 8192 lines = 512 KB of line data: big
/// enough that chunk crossings are rare in bulk runs, small enough that a
/// barely-touched multi-GB region stays cheap.
pub const CHUNK_LINES: usize = 8192;

/// A dense per-line value store with lazily materialized chunks.
///
/// Slots are allocated in whole chunks of `CHUNK_LINES × stride` entries;
/// a chunk materializes (filled with the default value) on first mutable
/// access, so untouched stretches of a huge region cost only one pointer.
/// `stride` is the entries-per-line factor: 1 for per-line state, 64
/// (`LINE_BYTES`) for line data; a power of two, so a chunk holds a power
/// of two entries and locating an entry is a shift and a mask.
#[derive(Debug, Clone)]
pub struct LineSlab<T: Copy> {
    chunks: Vec<Option<Box<[T]>>>,
    /// Entries per line.
    stride: usize,
    /// log2 of the entries per chunk.
    chunk_shift: u32,
    /// Total entries (lines × stride).
    len: usize,
    fill: T,
}

impl<T: Copy> LineSlab<T> {
    /// Empty slab holding `stride` entries per line.
    pub fn new(stride: usize, fill: T) -> Self {
        assert!(stride.is_power_of_two(), "stride must be a power of two, got {stride}");
        let chunk_shift = (CHUNK_LINES * stride).trailing_zeros();
        LineSlab { chunks: Vec::new(), stride, chunk_shift, len: 0, fill }
    }

    /// Entries per chunk.
    #[inline]
    fn chunk_len(&self) -> usize {
        1 << self.chunk_shift
    }

    /// The chunk holding entry `i` and the entry's offset within it.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        (i >> self.chunk_shift, i & (self.chunk_len() - 1))
    }

    /// Grow to cover `lines` lines (no-op if already that large).
    pub fn grow_lines(&mut self, lines: usize) {
        let want = lines * self.stride;
        if want > self.len {
            self.len = want;
            let chunks = want.div_ceil(self.chunk_len());
            self.chunks.resize_with(chunks, || None);
        }
    }

    /// Total entries covered.
    pub fn len(&self) -> usize {
        self.len
    }
    /// True when no lines are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// Number of chunks actually materialized.
    pub fn chunks_resident(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Read entry `i`, returning the fill value while the chunk is
    /// unmaterialized.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        let (chunk, within) = self.locate(i);
        match &self.chunks[chunk] {
            Some(c) => c[within],
            None => self.fill,
        }
    }

    /// Mutable access to entry `i`, materializing its chunk.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let cl = self.chunk_len();
        let (chunk, within) = self.locate(i);
        let (fill, chunk) = (self.fill, &mut self.chunks[chunk]);
        let c = chunk.get_or_insert_with(|| vec![fill; cl].into_boxed_slice());
        &mut c[within]
    }

    /// Copy entries `[start, start + out.len())` into `out`, reading the
    /// fill value from unmaterialized chunks (no materialization).
    pub fn copy_to(&self, start: usize, out: &mut [T]) {
        debug_assert!(start + out.len() <= self.len);
        let cl = self.chunk_len();
        let mut done = 0;
        while done < out.len() {
            let (chunk, within) = self.locate(start + done);
            let take = (cl - within).min(out.len() - done);
            match &self.chunks[chunk] {
                Some(c) => out[done..done + take].copy_from_slice(&c[within..within + take]),
                None => out[done..done + take].fill(self.fill),
            }
            done += take;
        }
    }

    /// The entries of the lines `marked` selects (stride 1), as maximal
    /// `(first, count, value)` runs of one value, ascending — with `len()`
    /// and the construction-time fill, the checkpoint image of a per-line
    /// state slab whose unmarked lines do not matter.
    pub fn runs(&self, marked: &LineBitmap) -> Vec<(u64, u64, T)>
    where
        T: PartialEq,
    {
        debug_assert_eq!(self.stride, 1, "state runs are per line");
        let mut out: Vec<(u64, u64, T)> = Vec::new();
        for (start, len) in marked.runs() {
            for i in start..start + len {
                let v = self.get(i);
                match out.last_mut() {
                    Some((first, count, last)) if *first + *count == i as u64 && *last == v => {
                        *count += 1
                    }
                    _ => out.push((i as u64, 1, v)),
                }
            }
        }
        out
    }

    /// Rebuild a per-line (stride 1) slab of `lines` lines and the bitmap
    /// of the lines it holds from [`LineSlab::runs`] output. Runs that are
    /// empty, unsorted, overlapping or past `lines` are an error.
    pub fn from_runs(
        fill: T,
        lines: usize,
        runs: &[(u64, u64, T)],
    ) -> Result<(Self, LineBitmap), String> {
        check_runs("state", runs.iter().map(|&(first, count, _)| (first, count)), lines as u64)?;
        let (mut slab, mut marked) = (LineSlab::new(1, fill), LineBitmap::new());
        slab.grow_lines(lines);
        marked.grow(lines);
        for &(first, count, v) in runs {
            let (first, count) = (first as usize, count as usize);
            slab.for_segments_mut(first, count, |_, seg| seg.fill(v));
            marked.set_range(first, count);
        }
        Ok((slab, marked))
    }

    /// Visit each materialized contiguous segment of entries
    /// `[start, start + len)` mutably, materializing chunks on the way.
    /// Segments are passed in order as `(offset_within_range, &mut [T])`.
    pub fn for_segments_mut(
        &mut self,
        start: usize,
        len: usize,
        mut f: impl FnMut(usize, &mut [T]),
    ) {
        debug_assert!(start + len <= self.len);
        let cl = self.chunk_len();
        let fill = self.fill;
        let mut done = 0;
        while done < len {
            let (chunk, within) = self.locate(start + done);
            let take = (cl - within).min(len - done);
            let chunk = self.chunks[chunk].get_or_insert_with(|| vec![fill; cl].into_boxed_slice());
            f(done, &mut chunk[within..within + take]);
            done += take;
        }
    }
}

/// One bit per line with an incrementally maintained popcount.
#[derive(Debug, Clone, Default)]
pub struct LineBitmap {
    words: Vec<u64>,
    lines: usize,
    ones: usize,
}

impl LineBitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow to cover `lines` lines (new bits are 0).
    pub fn grow(&mut self, lines: usize) {
        if lines > self.lines {
            self.lines = lines;
            self.words.resize(lines.div_ceil(64), 0);
        }
    }

    /// Lines covered.
    pub fn len(&self) -> usize {
        self.lines
    }
    /// True when no lines are covered.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }
    /// Bits currently set.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.lines);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`; returns the previous value.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.lines);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m != 0;
        if !was {
            self.words[w] |= m;
            self.ones += 1;
        }
        was
    }

    /// Clear bit `i`; returns the previous value.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        debug_assert!(i < self.lines);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m != 0;
        if was {
            self.words[w] &= !m;
            self.ones -= 1;
        }
        was
    }

    /// First set bit in `[start, start + len)`, if any — word-at-a-time, so
    /// the all-clear common case costs `len / 64` tests.
    pub fn first_set_in(&self, start: usize, len: usize) -> Option<usize> {
        debug_assert!(start + len <= self.lines);
        if self.ones == 0 || len == 0 {
            return None;
        }
        let end = start + len;
        let mut i = start;
        while i < end {
            let w = i / 64;
            let lo = i % 64;
            let hi = (end - w * 64).min(64);
            let mask = if hi == 64 { !0u64 << lo } else { ((1u64 << hi) - 1) & (!0u64 << lo) };
            let bits = self.words[w] & mask;
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            i = (w + 1) * 64;
        }
        None
    }

    /// Set every bit in `[start, start + len)`, a word at a time.
    pub fn set_range(&mut self, start: usize, len: usize) {
        debug_assert!(start + len <= self.lines);
        let end = start + len;
        let mut i = start;
        while i < end {
            let w = i / 64;
            let lo = i % 64;
            let hi = (end - w * 64).min(64);
            let mask = if hi == 64 { !0u64 << lo } else { ((1u64 << hi) - 1) & (!0u64 << lo) };
            self.ones += (mask & !self.words[w]).count_ones() as usize;
            self.words[w] |= mask;
            i = (w + 1) * 64;
        }
    }

    /// The set bits as maximal `(start, len)` runs, ascending, found a
    /// word at a time.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            let start = self.first_set_in(i, self.lines - i)?;
            // The run ends at the first clear bit after `start`.
            let mut end = start;
            loop {
                let (w, b) = (end / 64, end % 64);
                let ones = (self.words[w] >> b).trailing_ones() as usize;
                end += ones.min(64 - b);
                if ones < 64 - b || end >= self.lines {
                    break;
                }
            }
            i = end.min(self.lines);
            Some((start, i - start))
        })
    }

    /// A bitmap of `lines` lines with the bits of `runs` set, as
    /// [`LineBitmap::runs`] yields them. Runs that are empty, unsorted,
    /// overlapping or past `lines` are an error.
    pub fn from_runs(lines: usize, runs: &[(u64, u64)]) -> Result<Self, String> {
        check_runs("line", runs.iter().copied(), lines as u64)?;
        let mut b = LineBitmap::new();
        b.grow(lines);
        for &(start, len) in runs {
            b.set_range(start as usize, len as usize);
        }
        Ok(b)
    }

    /// Iterate the indices of all set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let base = w * 64;
            (0..64).filter(move |b| word & (1u64 << b) != 0).map(move |b| base + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexer_resolves_dense_and_spill() {
        let mut ix = LineIndexer::new();
        assert_eq!(ix.resolve(Addr(0)), LineSlot::Spill(0));
        assert!(ix.add_span(Addr(0), 256)); // 4 lines, slots 0..4
        assert!(ix.add_span(Addr(1024), 128)); // 2 lines, slots 4..6
        assert_eq!(ix.slots(), 6);
        assert_eq!(ix.resolve(Addr(0)), LineSlot::Dense(0));
        assert_eq!(ix.resolve(Addr(255)), LineSlot::Dense(3));
        assert_eq!(ix.resolve(Addr(256)), LineSlot::Spill(4));
        assert_eq!(ix.resolve(Addr(1024)), LineSlot::Dense(4));
        assert_eq!(ix.resolve(Addr(1089)), LineSlot::Dense(5));
        assert_eq!(ix.resolve(Addr(1152)), LineSlot::Spill(18));
    }

    #[test]
    fn indexer_slots_stable_under_out_of_order_registration() {
        let mut ix = LineIndexer::new();
        assert!(ix.add_span(Addr(4096), 64)); // slot 0
        assert!(ix.add_span(Addr(0), 64)); // slot 1, though lower address
        assert_eq!(ix.resolve(Addr(4096)), LineSlot::Dense(0));
        assert_eq!(ix.resolve(Addr(0)), LineSlot::Dense(1));
    }

    #[test]
    fn indexer_rejects_overlap() {
        let mut ix = LineIndexer::new();
        assert!(ix.add_span(Addr(0), 256));
        assert!(!ix.add_span(Addr(128), 256));
        assert_eq!(ix.slots(), 4);
    }

    #[test]
    fn indexer_resolve_run_requires_one_span() {
        let mut ix = LineIndexer::new();
        ix.add_span(Addr(0), 256); // 4 lines
        assert_eq!(ix.resolve_run(Addr(0), 4), Some(0));
        assert_eq!(ix.resolve_run(Addr(64), 3), Some(1));
        assert_eq!(ix.resolve_run(Addr(64), 4), None, "run leaves the span");
        assert_eq!(ix.resolve_run(Addr(512), 1), None);
    }

    #[test]
    fn slab_lazy_chunks_and_fill() {
        let mut s: LineSlab<u8> = LineSlab::new(1, 0xEE);
        s.grow_lines(3 * CHUNK_LINES);
        assert_eq!(s.chunks_resident(), 0);
        assert_eq!(s.get(5), 0xEE);
        *s.get_mut(CHUNK_LINES + 7) = 0x42;
        assert_eq!(s.chunks_resident(), 1, "only the touched chunk materialized");
        assert_eq!(s.get(CHUNK_LINES + 7), 0x42);
        assert_eq!(s.get(CHUNK_LINES + 8), 0xEE, "rest of chunk holds the fill");
    }

    #[test]
    fn slab_segments_cross_chunks() {
        let mut s: LineSlab<u32> = LineSlab::new(1, 0);
        s.grow_lines(2 * CHUNK_LINES);
        let start = CHUNK_LINES - 2;
        let mut offsets = Vec::new();
        s.for_segments_mut(start, 5, |off, seg| {
            offsets.push((off, seg.len()));
            for v in seg.iter_mut() {
                *v = 9;
            }
        });
        assert_eq!(offsets, vec![(0, 2), (2, 3)]);
        for i in 0..5 {
            assert_eq!(s.get(start + i), 9);
        }
    }

    #[test]
    fn slab_copy_to_mixes_resident_and_fill() {
        let mut s: LineSlab<u8> = LineSlab::new(1, 0x11);
        s.grow_lines(2 * CHUNK_LINES);
        *s.get_mut(CHUNK_LINES) = 0x77; // second chunk resident, first absent
        let mut out = [0u8; 4];
        s.copy_to(CHUNK_LINES - 2, &mut out);
        assert_eq!(out, [0x11, 0x11, 0x77, 0x11]);
    }

    #[test]
    fn bitmap_counts_and_scans() {
        let mut b = LineBitmap::new();
        b.grow(200);
        assert_eq!(b.count(), 0);
        assert!(!b.set(3));
        assert!(b.set(3), "second set reports already-set");
        b.set(130);
        assert_eq!(b.count(), 2);
        assert!(b.get(3) && b.get(130));
        assert_eq!(b.first_set_in(0, 200), Some(3));
        assert_eq!(b.first_set_in(4, 196), Some(130));
        assert_eq!(b.first_set_in(4, 100), None);
        assert!(b.clear(3));
        assert!(!b.clear(3));
        assert_eq!(b.count(), 1);
        b.set_range(60, 10);
        assert_eq!(b.count(), 11);
        assert_eq!(b.first_set_in(0, 200), Some(60));
    }

    #[test]
    fn bitmap_runs_span_words_and_round_trip() {
        let mut b = LineBitmap::new();
        b.grow(300);
        assert_eq!(b.runs().count(), 0);
        b.set_range(0, 3);
        b.set_range(60, 140); // words 0..=3, ending at 199
        b.set(250);
        b.set_range(290, 10); // up to the last line
        let runs: Vec<(usize, usize)> = b.runs().collect();
        assert_eq!(runs, vec![(0, 3), (60, 140), (250, 1), (290, 10)]);
        let parts: Vec<(u64, u64)> = runs.iter().map(|&(s, n)| (s as u64, n as u64)).collect();
        let back = LineBitmap::from_runs(300, &parts).unwrap();
        assert_eq!((back.words.clone(), back.count()), (b.words.clone(), b.count()));
        for bad in [vec![(0, 0)], vec![(5, 1), (4, 1)], vec![(0, 3), (2, 1)], vec![(299, 2)]] {
            assert!(LineBitmap::from_runs(300, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn slab_runs_split_on_value_changes_and_skip_unmarked_lines() {
        let mut s: LineSlab<u8> = LineSlab::new(1, 0);
        let mut marked = LineBitmap::new();
        s.grow_lines(2 * CHUNK_LINES);
        marked.grow(2 * CHUNK_LINES);
        for i in CHUNK_LINES - 2..CHUNK_LINES + 3 {
            *s.get_mut(i) = if i < CHUNK_LINES + 1 { 7 } else { 0 };
            marked.set(i);
        }
        *s.get_mut(9) = 5; // materialized but unmarked: not captured
        let runs = s.runs(&marked);
        let at = CHUNK_LINES as u64;
        assert_eq!(runs, vec![(at - 2, 3, 7), (at + 1, 2, 0)]);
        let (back, back_marked) = LineSlab::from_runs(0, 2 * CHUNK_LINES, &runs).unwrap();
        assert_eq!(back.runs(&back_marked), runs);
        assert_eq!(back_marked.count(), 5);
        assert_eq!(back.chunks_resident(), 2);
        assert!(LineSlab::from_runs(0u8, 4, &[(3, 2, 1)]).is_err());
    }

    #[test]
    fn bitmap_scan_word_boundaries() {
        let mut b = LineBitmap::new();
        b.grow(256);
        b.set(63);
        b.set(64);
        b.set(191);
        assert_eq!(b.first_set_in(0, 63), None);
        assert_eq!(b.first_set_in(0, 64), Some(63));
        assert_eq!(b.first_set_in(64, 64), Some(64));
        assert_eq!(b.first_set_in(65, 127), Some(191), "191 is the last line in range");
        assert_eq!(b.first_set_in(65, 126), None, "range ends just before 191");
        assert_eq!(b.first_set_in(192, 64), None);
    }
}
