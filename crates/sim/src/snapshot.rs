//! Crash-consistent snapshot framing.
//!
//! Every checkpoint in the workspace is one self-validating byte envelope:
//!
//! ```text
//! magic "TECOSNAP" (8 B) ‖ version u32 LE ‖ payload_len u64 LE ‖
//! snapshot_checksum(payload) u64 LE ‖ JSON payload
//! ```
//!
//! The JSON payload renders a per-component snapshot struct, written and
//! read straight by its serde impls (no intermediate tree), so the format
//! is self-describing and diffable; the header makes restore *total*: a
//! truncated, bit-flipped, or version-skewed blob comes back as a typed
//! [`SnapshotError`], never a panic. Encoding is deterministic (struct
//! fields serialize in declaration order, maps sort their keys), which is
//! what lets the kill/resume harness compare a resumed run's report
//! byte-for-byte against an uninterrupted one.
//!
//! Version 2 keeps device memory compact. Every byte payload (cache lines,
//! pooled optimizer state, collective buffers) is a [`Bytes`]: one base64
//! string per run of consecutive lines, never one JSON token per byte.
//! Sparse per-line state is stored as sorted `(first, count, …)` runs, and
//! restores check them with [`check_runs`]. The envelope checksum
//! ([`snapshot_checksum`]) folds the payload a 64-bit word at a time. A
//! version-1 envelope decodes to [`SnapshotError::UnsupportedVersion`].

use serde::{Deserialize, Serialize};

/// Magic prefix of every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TECOSNAP";
/// Current envelope version. Bump on any incompatible payload change.
pub const SNAPSHOT_VERSION: u32 = 2;
/// Fixed header size: magic + version + payload_len + checksum.
pub const SNAPSHOT_HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// Typed decode failures. Restore never panics on hostile bytes: every
/// malformed envelope maps to exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The first 8 bytes are not `TECOSNAP`.
    BadMagic,
    /// The envelope declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The byte stream is shorter (or longer) than the header promises.
    Truncated {
        /// Total envelope length the header implies.
        expected: u64,
        /// Length actually supplied.
        actual: u64,
    },
    /// The payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
    /// The payload passed framing checks but is not a valid snapshot of
    /// the requested type (bad UTF-8, bad JSON, or a shape mismatch).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot missing TECOSNAP magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated { expected, actual } => {
                write!(f, "snapshot truncated: header implies {expected} bytes, got {actual}")
            }
            SnapshotError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
                )
            }
            SnapshotError::Corrupt(msg) => write!(f, "snapshot payload corrupt: {msg}"),
        }
    }
}
impl std::error::Error for SnapshotError {}

/// The envelope checksum: the payload folded one little-endian 64-bit word
/// at a time (the tail zero-padded), starting from its length. Each step
/// xors a word in, multiplies by an odd constant and rotates, all
/// bijections of the running state, so changing any bits of one word —
/// every single-bit flip — always changes the result.
pub fn snapshot_checksum(payload: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let mut words = payload.chunks_exact(8);
    let mut h = crate::FNV_SEED ^ payload.len() as u64;
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    fold(h, u64::from_le_bytes(tail))
}

/// Serialize `value` into a framed snapshot envelope. The payload streams
/// into the same buffer right behind the header, which is filled in last.
pub fn encode_snapshot<T: Serialize>(value: &T) -> Vec<u8> {
    let mut w = serde::Writer::new(vec![0; SNAPSHOT_HEADER_BYTES], false);
    value.serialize(&mut w);
    let mut out = w.into_bytes();
    let (header, payload) = out.split_at_mut(SNAPSHOT_HEADER_BYTES);
    header[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    header[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..].copy_from_slice(&snapshot_checksum(payload).to_le_bytes());
    out
}

/// Decode a framed snapshot envelope back into a `T`.
///
/// Validation order: length → magic → version → declared payload length →
/// checksum → UTF-8/JSON/shape. Arbitrary bytes therefore always produce a
/// typed error; the checksum gate means a bit flip anywhere in the payload
/// is caught before the JSON reader ever sees it. The reader streams
/// straight into `T` and refuses nesting deeper than [`serde::MAX_DEPTH`],
/// so even a checksum-valid hostile payload is a `Corrupt`, never a stack
/// overflow.
pub fn decode_snapshot<T: Deserialize>(bytes: &[u8]) -> Result<T, SnapshotError> {
    if bytes.len() < SNAPSHOT_HEADER_BYTES {
        return Err(SnapshotError::Truncated {
            expected: SNAPSHOT_HEADER_BYTES as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let declared = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload = &bytes[SNAPSHOT_HEADER_BYTES..];
    if payload.len() as u64 != declared {
        return Err(SnapshotError::Truncated {
            expected: SNAPSHOT_HEADER_BYTES as u64 + declared,
            actual: bytes.len() as u64,
        });
    }
    let expected = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let actual = snapshot_checksum(payload);
    if expected != actual {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| SnapshotError::Corrupt(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

/// A byte payload inside a snapshot struct, serialized as one standard,
/// padded base64 string. It dereferences to its `Vec<u8>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes(pub Vec<u8>);

impl From<Vec<u8>> for Bytes {
    fn from(bytes: Vec<u8>) -> Self {
        Bytes(bytes)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::Deref for Bytes {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.0
    }
}

impl std::ops::DerefMut for Bytes {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.0
    }
}

impl Serialize for Bytes {
    fn serialize(&self, w: &mut serde::Writer) {
        w.write_raw_str(|out| encode_base64(&self.0, out));
    }
}

impl Deserialize for Bytes {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let text = r.read_str()?;
        decode_base64(text.as_bytes()).map(Bytes).map_err(serde::Error::custom)
    }
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Sextet of each base64 character; `INVALID` for every other byte.
const INVALID: u8 = 0xff;
const SEXTET: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        t[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Append the padded base64 text of `bytes` to `out`.
fn encode_base64(bytes: &[u8], out: &mut Vec<u8>) {
    let char_of = |n: u32, shift: u32| BASE64[(n >> shift & 63) as usize];
    let start = out.len();
    out.resize(start + bytes.len().div_ceil(3) * 4, b'=');
    let text = &mut out[start..];
    let mut groups = bytes.chunks_exact(3);
    for (g, t) in (&mut groups).zip(text.chunks_exact_mut(4)) {
        let n = u32::from(g[0]) << 16 | u32::from(g[1]) << 8 | u32::from(g[2]);
        t.copy_from_slice(&[char_of(n, 18), char_of(n, 12), char_of(n, 6), char_of(n, 0)]);
    }
    // A one- or two-byte tail fills the last group's leading characters;
    // the rest of the group stays `=`.
    let tail = groups.remainder();
    if !tail.is_empty() {
        let at = text.len() - 4;
        let n = tail.iter().enumerate().fold(0, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
        for (i, c) in text[at..=at + tail.len()].iter_mut().enumerate() {
            *c = char_of(n, 18 - 6 * i as u32);
        }
    }
}

/// Why a base64 string did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Base64Error {
    /// The text length is not a multiple of 4.
    Length(usize),
    /// A byte outside the base64 alphabet, at this offset.
    Char(usize),
    /// Padding other than one or two `=` closing the last group, or
    /// padded-out bits that are not zero (so every byte string has exactly
    /// one encoding).
    Padding,
}

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Base64Error::Length(n) => write!(f, "base64 length {n} is not a multiple of 4"),
            Base64Error::Char(at) => write!(f, "invalid base64 character at offset {at}"),
            Base64Error::Padding => write!(f, "invalid base64 padding"),
        }
    }
}

/// Decode padded base64 text, strictly: the inverse of [`encode_base64`].
fn decode_base64(text: &[u8]) -> Result<Vec<u8>, Base64Error> {
    if !text.len().is_multiple_of(4) {
        return Err(Base64Error::Length(text.len()));
    }
    let Some((body, last)) = text.split_last_chunk::<4>() else {
        return Ok(Vec::new());
    };
    let mut out = vec![0; body.len() / 4 * 3];
    for (k, (g, o)) in body.chunks_exact(4).zip(out.chunks_exact_mut(3)).enumerate() {
        let [a, b, c, d] = [g[0], g[1], g[2], g[3]].map(|ch| SEXTET[ch as usize]);
        if (a | b | c | d) > 63 {
            let at = g.iter().position(|&ch| SEXTET[ch as usize] == INVALID).expect("one is bad");
            return Err(Base64Error::Char(4 * k + at));
        }
        let n = u32::from(a) << 18 | u32::from(b) << 12 | u32::from(c) << 6 | u32::from(d);
        o.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    let pad = last.iter().rev().take_while(|&&ch| ch == b'=').count();
    if pad > 2 {
        return Err(Base64Error::Padding);
    }
    let mut n = 0u32;
    for (i, &ch) in last[..4 - pad].iter().enumerate() {
        let v = SEXTET[ch as usize];
        if v == INVALID {
            return Err(match ch {
                b'=' => Base64Error::Padding,
                _ => Base64Error::Char(body.len() + i),
            });
        }
        n |= u32::from(v) << (18 - 6 * i);
    }
    let kept = 3 - pad;
    if n << (8 * kept) & 0xff_ffff != 0 {
        return Err(Base64Error::Padding);
    }
    out.extend_from_slice(&n.to_be_bytes()[1..1 + kept]);
    Ok(out)
}

/// Check that `(first, count)` runs are nonempty, sorted, non-overlapping
/// and end by `limit` — the shape every run list in a snapshot must have
/// before a restore writes through it. `what` names the list in the error.
pub fn check_runs(
    what: &str,
    runs: impl IntoIterator<Item = (u64, u64)>,
    limit: u64,
) -> Result<(), String> {
    let mut next = 0;
    for (i, (first, count)) in runs.into_iter().enumerate() {
        let end = first.checked_add(count).filter(|&end| end <= limit);
        match end {
            _ if count == 0 => return Err(format!("{what} run {i} is empty")),
            _ if first < next => {
                return Err(format!("{what} run {i} at {first} overlaps or precedes run {}", i - 1))
            }
            None => return Err(format!("{what} run {i} at {first} runs past {limit}")),
            Some(end) => next = end,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Demo {
        label: String,
        counters: Vec<u64>,
        flag: bool,
    }

    fn demo() -> Demo {
        Demo { label: "scheduler".into(), counters: vec![1, 2, 3, u64::MAX], flag: true }
    }

    #[test]
    fn roundtrip_is_identity() {
        let bytes = encode_snapshot(&demo());
        let back: Demo = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, demo());
        // Re-encoding the decoded value is byte-identical (deterministic
        // serialization, the property the resume harness depends on).
        assert_eq!(encode_snapshot(&back), bytes);
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = encode_snapshot(&demo());
        for len in 0..bytes.len() {
            let err = decode_snapshot::<Demo>(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_detected() {
        let mut bytes = encode_snapshot(&demo());
        bytes[0] ^= 0xFF;
        assert_eq!(decode_snapshot::<Demo>(&bytes).unwrap_err(), SnapshotError::BadMagic);
        let mut bytes = encode_snapshot(&demo());
        bytes[8] = 0x7F;
        assert!(matches!(
            decode_snapshot::<Demo>(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn payload_flip_is_checksum_mismatch() {
        let clean = encode_snapshot(&demo());
        for pos in SNAPSHOT_HEADER_BYTES..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            assert!(matches!(
                decode_snapshot::<Demo>(&bytes).unwrap_err(),
                SnapshotError::ChecksumMismatch { .. }
            ));
        }
    }

    /// Wrap `payload` in a header with a matching checksum, so decoding
    /// gets past every framing check to the JSON reader.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&snapshot_checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn deep_nesting_is_corrupt_not_stack_overflow() {
        // 100,000 unclosed brackets behind a valid checksum, as the whole
        // payload and under an unknown key the reader has to skip.
        let deep = vec![b'['; 100_000];
        for payload in [deep.clone(), [&br#"{"extra":"#[..], &deep].concat()] {
            let err = decode_snapshot::<Demo>(&framed(&payload)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
        }
        // Well-formed nesting under an unknown key: `levels` containers
        // inside Demo's own object reach depth `levels + 1`.
        for (open, close) in [(&b"["[..], &b"]"[..]), (br#"{"k":"#, b"}")] {
            let extra = |levels: usize| {
                let nest = [open.repeat(levels), b"0".to_vec(), close.repeat(levels)].concat();
                let head = br#"{"label":"x","counters":[],"flag":false,"extra":"#;
                decode_snapshot::<Demo>(&framed(&[&head[..], &nest, b"}"].concat()))
            };
            let want = Demo { label: "x".into(), counters: vec![], flag: false };
            assert_eq!(extra(serde::MAX_DEPTH - 1), Ok(want));
            assert!(matches!(extra(serde::MAX_DEPTH), Err(SnapshotError::Corrupt(_))));
        }
    }

    #[test]
    fn every_single_bit_flip_is_checksum_mismatch() {
        let clean = encode_snapshot(&demo());
        for pos in SNAPSHOT_HEADER_BYTES..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << bit;
                assert!(matches!(
                    decode_snapshot::<Demo>(&bytes).unwrap_err(),
                    SnapshotError::ChecksumMismatch { .. }
                ));
            }
        }
    }

    #[test]
    fn a_version_1_envelope_is_unsupported() {
        let mut bytes = framed(br#"{"label":"x","counters":[],"flag":false}"#);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_snapshot::<Demo>(&bytes), Err(SnapshotError::UnsupportedVersion(1)));
    }

    #[test]
    fn base64_matches_the_rfc_4648_vectors_and_round_trips() {
        let vectors = ["", "Zg==", "Zm8=", "Zm9v", "Zm9vYg==", "Zm9vYmE=", "Zm9vYmFy"];
        for (n, want) in vectors.iter().enumerate() {
            let bytes = Bytes(b"foobar"[..n].to_vec());
            let json = serde_json::to_string(&bytes).unwrap();
            assert_eq!(json, format!("\"{want}\""));
            assert_eq!(serde_json::from_str::<Bytes>(&json).unwrap(), bytes);
        }
        let all: Vec<u8> = (0..=255).chain((0..=255).rev()).collect();
        for len in 0..all.len() {
            let mut text = Vec::new();
            encode_base64(&all[..len], &mut text);
            assert_eq!(decode_base64(&text).unwrap(), &all[..len]);
        }
    }

    #[test]
    fn malformed_base64_is_a_typed_error() {
        let cases: [(&str, Base64Error); 8] = [
            ("Zm9", Base64Error::Length(3)),
            ("Zm9vY", Base64Error::Length(5)),
            ("Zm-v", Base64Error::Char(2)),
            ("Zm9vYm\nF", Base64Error::Char(6)),
            ("Zm9vYm=y", Base64Error::Padding),
            ("Z===", Base64Error::Padding),
            ("====", Base64Error::Padding),
            // Padded-out bits must be zero: "Zh==" would decode as "f".
            ("Zh==", Base64Error::Padding),
        ];
        for (text, want) in cases {
            assert_eq!(decode_base64(text.as_bytes()), Err(want), "{text:?}");
        }
        assert_eq!(decode_base64(b"Zm9=Zm9v"), Err(Base64Error::Char(3)));
        assert!(serde_json::from_str::<Bytes>("\"Zm9\"").is_err());
        assert!(serde_json::from_str::<Bytes>("[1,2]").is_err());
    }

    #[test]
    fn check_runs_rejects_empty_unsorted_overlapping_and_out_of_range_runs() {
        assert_eq!(check_runs("x", [(0, 2), (2, 1), (9, 1)], 10), Ok(()));
        assert_eq!(check_runs("x", [], 0), Ok(()));
        for runs in [
            vec![(0, 0)],
            vec![(4, 1), (2, 1)],
            vec![(0, 3), (2, 1)],
            vec![(9, 2)],
            vec![(u64::MAX, 2)],
        ] {
            assert!(check_runs("x", runs.iter().copied(), 10).is_err(), "{runs:?}");
        }
    }

    #[test]
    fn shape_mismatch_is_corrupt_not_panic() {
        // Valid envelope of one type, decoded as another.
        let bytes = encode_snapshot(&vec![1u64, 2, 3]);
        let err = decode_snapshot::<Demo>(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }
}
