//! Crash-consistent snapshot framing.
//!
//! Every checkpoint in the workspace is one self-validating byte envelope:
//!
//! ```text
//! magic "TECOSNAP" (8 B) ‖ version u32 LE ‖ payload_len u64 LE ‖
//! fnv_fold(payload) u64 LE ‖ JSON payload
//! ```
//!
//! The JSON payload renders a per-component snapshot struct, written and
//! read straight by its serde impls (no intermediate tree), so the format
//! is self-describing and diffable; the header makes
//! restore *total*: a truncated, bit-flipped, or version-skewed blob comes
//! back as a typed [`SnapshotError`], never a panic. Encoding is
//! deterministic (struct fields serialize in declaration order, maps sort
//! their keys), which is what lets the kill/resume harness compare a
//! resumed run's report byte-for-byte against an uninterrupted one.

use serde::{Deserialize, Serialize};

/// Magic prefix of every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TECOSNAP";
/// Current envelope version. Bump on any incompatible payload change.
pub const SNAPSHOT_VERSION: u32 = 1;
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

/// [`crate::fnv_fold`] over the payload — cheap, dependency-free, and
/// sensitive to every single-bit flip the fuzz tests inject.
pub fn snapshot_checksum(payload: &[u8]) -> u64 {
    crate::fnv_fold(crate::FNV_SEED, payload)
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
    fn shape_mismatch_is_corrupt_not_panic() {
        // Valid envelope of one type, decoded as another.
        let bytes = encode_snapshot(&vec![1u64, 2, 3]);
        let err = decode_snapshot::<Demo>(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }
}
