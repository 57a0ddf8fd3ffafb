//! Deterministic random-number support.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`] seeded
//! explicitly, so experiments are reproducible run-to-run and the bench
//! harness can report stable numbers. Streams can be forked per component so
//! adding draws in one module does not perturb another.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64, so the workspace carries no
//! external RNG dependency and the stream is stable across toolchains.

/// A small, fast, explicitly-seeded RNG for simulation use.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed from a 64-bit value.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng { state: std::array::from_fn(|_| splitmix64(&mut sm)) }
    }

    /// The raw xoshiro256++ state, for checkpoint/restore. Restoring via
    /// [`SimRng::from_state`] resumes the stream exactly where it was,
    /// including the fork lineage (forks consume one `next_u64` draw, so
    /// the captured state encodes how many children were forked).
    pub fn state(&self) -> [u64; 4] {
        self.state
    }

    /// Rebuild a generator from a state captured with [`SimRng::state`].
    pub fn from_state(state: [u64; 4]) -> Self {
        SimRng { state }
    }

    /// Derive an independent child stream for a named component. The label
    /// is hashed ([`crate::fnv_fold`]) into the child seed, so streams with
    /// different labels are decorrelated while remaining reproducible.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let h = crate::fnv_fold(crate::FNV_SEED, label.as_bytes());
        let salt = self.next_u64();
        SimRng::seed_from_u64(h ^ salt)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi > lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (Lemire widening-multiply reduction).
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid u1 == 0 to keep ln finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Bernoulli draw with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.uniform() < p
    }

    /// Exponential draw with the given rate (events per unit).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0);
        -(1.0 - self.uniform()).ln() / rate
    }

    /// A raw u64 (xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_decorrelated_and_deterministic() {
        let mut root1 = SimRng::seed_from_u64(7);
        let mut root2 = SimRng::seed_from_u64(7);
        let mut c1 = root1.fork("link");
        let mut c2 = root2.fork("link");
        assert_eq!(c1.next_u64(), c2.next_u64()); // reproducible
        let mut root3 = SimRng::seed_from_u64(7);
        let mut other = root3.fork("cache");
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
            let y = r.uniform_range(5.0, 6.0);
            assert!((5.0..6.0).contains(&y));
        }
    }

    #[test]
    fn index_covers_domain() {
        let mut r = SimRng::seed_from_u64(17);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = SimRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from_u64(9);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(13);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }
}
