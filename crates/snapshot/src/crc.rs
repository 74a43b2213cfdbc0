//! Integrity primitives: CRC-32 (IEEE) per section, FNV-1a 64 whole-file.
//!
//! CRC-32 catches the bit flips and short burst errors that commodity disks
//! and filesystems occasionally deliver; the independent FNV-1a 64 digest
//! over the entire body catches section-table tampering and cross-section
//! splices that per-section CRCs cannot see. Both are implemented here rather
//! than pulled in as dependencies because the build environment is offline.

const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC32_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// Computes the IEEE CRC-32 (reflected, polynomial `0xEDB88320`) of `data`,
/// eight bytes per step (slicing-by-8).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Streaming FNV-1a 64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: Self::OFFSET }
    }

    /// Folds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The current digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a 64 of `data`.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise definition the table-driven [`crc32`] must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_any_length_and_alignment() {
        // xorshift64: deterministic bytes without a dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..4_200).map(|_| next() as u8).collect();
        for _ in 0..500 {
            let start = (next() % 64) as usize;
            let len = (next() % 4_096) as usize;
            let slice = &buf[start..start + len];
            assert_eq!(crc32(slice), crc32_bitwise(slice), "start {start} len {len}");
        }
        for len in 0..=24 {
            assert_eq!(crc32(&buf[3..3 + len]), crc32_bitwise(&buf[3..3 + len]), "len {len}");
        }
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn single_bit_flip_changes_both() {
        let a = b"the quick brown fox".to_vec();
        let mut b = a.clone();
        b[7] ^= 0x10;
        assert_ne!(crc32(&a), crc32(&b));
        assert_ne!(fnv1a64(&a), fnv1a64(&b));
    }
}
