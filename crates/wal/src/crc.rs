//! Hand-rolled CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! The workspace carries zero third-party dependencies (see
//! `vendor/README.md`), so the frame checksum is implemented here from
//! first principles: a compile-time 256-entry lookup table and a
//! streaming update loop. This is the same CRC32 used by zlib and
//! Ethernet — any single-bit error in a checked span is detected, as are
//! all burst errors up to 32 bits.

/// Lookup table for the reflected polynomial, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Streaming CRC32 state; feed spans with [`Crc32::update`] and read the
/// final checksum with [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh state (all-ones preset, per the IEEE definition).
    pub(crate) fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the running checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final (bit-inverted) checksum.
    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32(data);
        for i in 0..data.len() * 8 {
            let mut m = data.to_vec();
            m[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&m), base, "bit {i} undetected");
        }
    }
}
