//! The workspace's byte-hash fold, behind report checksums, digests and
//! RNG fork labels. The snapshot envelope checksums its payload a word at
//! a time instead ([`crate::snapshot_checksum`]).

/// Start state of [`fnv_fold`]: the FNV-1a 64-bit offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the running hash `h`, FNV-1a style: xor each byte in,
/// then multiply by `0x1000_0000_01b3`. That multiplier is *not* the
/// FNV-64 prime `0x100_0000_01b3`; every committed checksum and digest was
/// computed with it, so it stays.
#[inline]
pub fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}
