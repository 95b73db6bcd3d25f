//! Seeded input generation: a SplitMix64 stream for buffer lengths,
//! payload bases and corpus order, and an FNV-1a hash that fingerprints
//! the generated inputs so two runs can be shown to have measured the
//! same thing. The seed never reaches the program under test; only the
//! generated inputs do.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough value in `lo..=hi` (the modulo bias over a 64-bit
    /// draw is far below anything a workload could notice).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over a stream of words and strings.
pub struct InputHash(u64);

impl InputHash {
    pub fn new() -> Self {
        InputHash(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            let x = a.range(64, 1024);
            assert_eq!(x, b.range(64, 1024));
            assert!((64..=1024).contains(&x));
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn hash_matches_fnv1a_reference() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        let mut h = InputHash::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }
}
