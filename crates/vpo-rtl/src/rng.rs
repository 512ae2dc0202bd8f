//! Minimal, dependency-free pseudo-random number generation.
//!
//! The hermetic build policy of this workspace (see `DESIGN.md`) forbids
//! registry crates, so the heuristic searches, fuzz tests and benches use
//! this small generator instead of `rand`. It is a textbook
//! **xoshiro256++** (Blackman & Vigna) seeded through **SplitMix64**,
//! which is the exact seeding procedure the xoshiro authors recommend:
//! SplitMix64 diffuses a 64-bit seed into the 256-bit state so that
//! nearby seeds (0, 1, 2, ...) produce uncorrelated streams.
//!
//! The generator is deliberately *not* cryptographic. It is deterministic
//! per seed — the property every consumer in this workspace actually
//! needs (reproducible searches, reproducible fuzz corpora).

/// SplitMix64: a tiny 64-bit generator used to expand seeds.
///
/// Passes BigCrush on its own; here it only stretches one `u64` into the
/// xoshiro state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seedable xoshiro256++ generator with uniform range sampling.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is derived from `seed` via
    /// SplitMix64 (the seeding procedure recommended by the xoshiro
    /// authors). Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng { s }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    ///
    /// Uses Lemire's widening-multiply method with rejection, so the
    /// distribution is exactly uniform.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sampling range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            // Rejection zone for exact uniformity.
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        let _ = x;
        (m >> 64) as u64
    }

    /// Uniform `usize` in `range` (half-open, as `rand::gen_range`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.next_below((range.end - range.start) as u64) as usize
    }

    /// Uniform `i32` in `range` (half-open). Handles negative bounds.
    pub fn gen_range_i32(&mut self, range: std::ops::Range<i32>) -> i32 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = (range.end as i64 - range.start as i64) as u64;
        (range.start as i64 + self.next_below(span) as i64) as i32
    }

    /// A uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `num/den`.
    pub fn gen_ratio(&mut self, num: u64, den: u64) -> bool {
        self.next_below(den) < num
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256++ with state seeded from SplitMix64(0): the first
        // SplitMix64 outputs are fixed by its reference implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range_i32(-50..-10);
            assert!((-50..-10).contains(&w));
        }
        // Degenerate single-value range.
        assert_eq!(rng.gen_range(5..6), 5);
        assert_eq!(rng.gen_range_i32(i32::MIN..i32::MIN + 1), i32::MIN);
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(99);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(1);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = Rng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
