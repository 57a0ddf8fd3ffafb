//! Seeded input generation, independent of the simulator's own RNG.

use teco_mem::LineData;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A stream for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Overwrite every byte of `line`.
    pub fn fill(&mut self, line: &mut LineData) {
        for chunk in line.bytes_mut().chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
    }

    /// Redraw the low two bytes of every little-endian 32-bit word and keep
    /// the high two: the value change §III of the paper measures, which
    /// `dirty_bytes = 2` carries losslessly.
    pub fn perturb_low_halves(&mut self, line: &mut LineData) {
        for quad in line.bytes_mut().chunks_exact_mut(16) {
            let v = self.next_u64().to_le_bytes();
            for (w, word) in quad.chunks_exact_mut(4).enumerate() {
                word[..2].copy_from_slice(&v[2 * w..2 * w + 2]);
            }
        }
    }
}
