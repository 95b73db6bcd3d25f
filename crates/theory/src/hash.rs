//! The workspace's word hasher, for hash maps keyed by small integers
//! the program made up itself (state indices, arena ids, name ids): one
//! rotate-xor-multiply per word, the FxHash step.
//!
//! None of those keys is attacker-chosen, so SipHash's flood resistance
//! buys nothing, and it cost the subtyping visitor's path map 8 % of
//! `verify_amr`'s passes per second.
//!
//! ```
//! use std::collections::HashMap;
//! use theory::hash::BuildWordHasher;
//!
//! let mut map: HashMap<(usize, usize), u32, BuildWordHasher> = HashMap::default();
//! map.insert((3, 4), 7);
//! assert_eq!(map.get(&(3, 4)), Some(&7));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the FxHash step.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A [`Hasher`] that folds each written word into its state with one
/// rotate, xor and multiply. Byte slices, and integers it has no word
/// method for, are folded a byte at a time.
#[derive(Default)]
pub struct WordHasher(u64);

/// Builds [`WordHasher`]s: the `S` parameter of a `HashMap` or `HashSet`.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

impl WordHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.fold(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.fold(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.fold(word as u64);
    }
}
