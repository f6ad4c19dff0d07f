//! Deterministic case RNG (splitmix64, seeded from the property's name).

use vecmem_simcore::rng::SmallRng;

/// Deterministic RNG handed to strategies during generation.
///
/// The simulator's splitmix64 generator, seeded from an FNV-1a hash of the
/// property name so each test gets an independent and reproducible stream
/// without a stored regression file.
#[derive(Debug, Clone)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// An RNG seeded directly.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self(SmallRng::seed_from_u64(seed))
    }

    /// An RNG seeded from `name` (FNV-1a).
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::seed_from_u64(hash)
    }

    /// Next raw 64-bit output (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `[0, bound)` via Lemire's debiased multiply-shift.
    /// `bound` must be non-zero.
    pub fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bounded(0) is meaningless");
        loop {
            let x = self.next_u64();
            let hi = ((u128::from(x) * u128::from(bound)) >> 64) as u64;
            let lo = x.wrapping_mul(bound);
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_seeding_is_stable_and_distinct() {
        let a: Vec<u64> = {
            let mut r = TestRng::from_name("alpha");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = TestRng::from_name("alpha");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::from_name("beta");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn name_seeded_outputs_are_pinned() {
        // FNV-1a of the name seeds splitmix64; pinned so every property's
        // generated cases stay the same.
        let mut r = TestRng::from_name("alpha");
        assert_eq!(
            [r.next_u64(), r.next_u64(), r.next_u64()],
            [
                1_320_619_409_127_077_649,
                10_475_257_336_574_687_358,
                15_723_740_891_041_973_097
            ]
        );
        let mut r = TestRng::from_name("pattern_bit_identity");
        assert_eq!(
            [r.next_u64(), r.next_u64(), r.next_u64()],
            [
                8_295_332_813_432_073_866,
                12_504_490_635_714_149_919,
                10_047_258_527_261_962_292
            ]
        );
    }

    #[test]
    fn bounded_covers_small_ranges() {
        let mut r = TestRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.bounded(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }
}
