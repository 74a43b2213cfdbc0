//! One fast, deterministic hasher for the per-packet maps.
//!
//! The gateway's flow, address and binding maps and the farm's VM maps are
//! probed several times per event with small fixed-size keys (addresses,
//! flow 5-tuples, VM ids). std's default SipHash-1-3 is keyed per process
//! to resist hash flooding; here that costs more than the probe itself.
//! [`FastHasher`] mixes each written word with one rotate/xor/multiply
//! step and finishes with a 64×64→128-bit folded multiply, so the low bits
//! a table indexes by depend on every input bit (addresses that differ
//! only in their last octets still spread).
//!
//! The trade-off is an unkeyed hash: an adversary who can choose keys can
//! force collisions. The maps it serves are keyed by simulation state
//! (telescope addresses, flows of simulated traffic), and hash order is
//! never observable: nothing that feeds a report or digest iterates these
//! maps without sorting first — `RandomState` already made that order
//! differ from process to process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiplicative hasher with a folded-multiply finish.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let full = u128::from(self.state) * u128::from(FOLD);
        (full as u64) ^ ((full >> 64) as u64)
    }
}

/// [`std::hash::BuildHasher`] for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use std::net::Ipv4Addr;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_across_builders() {
        let a = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(hash_of(&a), hash_of(&Ipv4Addr::new(10, 1, 2, 3)));
        assert_eq!(hash_of(&(1u64, 2u16)), hash_of(&(1u64, 2u16)));
    }

    #[test]
    fn addresses_in_one_prefix_spread_over_low_bits() {
        // A /19 differs only in its last 13 bits; a table of 1,024 buckets
        // indexes by the hash's low 10 bits. A multiplicative hash without
        // the folded finish would put all of them in one bucket.
        let mut buckets = vec![0u32; 1024];
        for i in 0..8_192u32 {
            let addr = Ipv4Addr::from(0x0a01_0000 + i);
            buckets[(hash_of(&addr) & 1023) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max <= 24, "worst bucket holds {max} of 8,192 keys (mean 8)");
    }

    #[test]
    fn fast_map_behaves_as_a_map() {
        let mut map: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.len(), 10_000);
        assert!((0..10_000).all(|i| map.get(&i) == Some(&(i * 2))));
    }
}
