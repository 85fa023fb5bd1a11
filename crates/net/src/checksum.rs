//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header variant.

use crate::ipv4::Ipv4Addr4;

/// Incremental one's-complement sum. Feed it byte slices, then [`Sum16::finish`].
///
/// The accumulator is 32 bits wide and folded at the end, which is enough
/// for any packet shorter than ~64 KiB fed in any number of chunks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum16 {
    acc: u32,
    /// True when an odd byte is pending from the previous chunk.
    pending: Option<u8>,
}

impl Sum16 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a chunk of bytes. Chunks may have odd lengths; byte alignment
    /// is tracked across chunks exactly as if they were contiguous.
    pub fn add(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = data.split_first() {
                self.acc += u32::from(u16::from_be_bytes([hi, lo]));
                data = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            self.acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Add a 16-bit word in host order (it is summed as big-endian).
    pub(crate) fn add_u16(&mut self, w: u16) {
        self.add(&w.to_be_bytes());
    }

    /// Fold and complement, producing the value to place in a checksum field.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.acc += u32::from(u16::from_be_bytes([hi, 0]));
        }
        let mut acc = self.acc;
        while acc >> 16 != 0 {
            acc = (acc & 0xffff) + (acc >> 16);
        }
        !(acc as u16)
    }
}

/// Checksum of a single contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut s = Sum16::new();
    s.add(data);
    s.finish()
}

/// Verify a buffer whose checksum field is already in place: the sum over
/// the whole buffer must be zero (i.e. `finish()` returns 0).
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

/// Pseudo-header sum used by TCP and UDP over IPv4 (RFC 793 / RFC 768).
pub(crate) fn pseudo_header(src: Ipv4Addr4, dst: Ipv4Addr4, protocol: u8, l4_len: u16) -> Sum16 {
    let mut s = Sum16::new();
    s.add(&src.octets());
    s.add(&dst.octets());
    s.add(&[0, protocol]);
    s.add_u16(l4_len);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1071 worked example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2
    // before complement.
    #[test]
    fn rfc1071_example() {
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn end_around_carry_folds_into_low_word() {
        // 0xffff + 0x0001 overflows into bit 16; RFC 1071 folds the
        // carry back around: acc 0x10000 -> 0x0001, complement 0xfffe.
        assert_eq!(checksum(&[0xff, 0xff, 0x00, 0x01]), 0xfffe);
        // Double all-ones word: acc 0x1fffe folds to 0xffff, complement 0.
        assert_eq!(checksum(&[0xff, 0xff, 0xff, 0xff]), 0x0000);
    }

    #[test]
    fn odd_length_is_zero_padded() {
        // Checksum of [ab] equals checksum of [ab 00].
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn chunking_does_not_change_result() {
        let data: Vec<u8> = (0u16..999).map(|i| (i % 251) as u8).collect();
        let whole = checksum(&data);
        // Feed in pathological chunk sizes, including odd splits.
        for step in [1usize, 2, 3, 7, 13, 64] {
            let mut s = Sum16::new();
            for c in data.chunks(step) {
                s.add(c);
            }
            assert_eq!(s.finish(), whole, "chunk size {step}");
        }
    }

    #[test]
    fn verify_detects_single_bit_flip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06];
        // Place a correct checksum in the last two bytes.
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[3] ^= 0x01;
        assert!(!verify(&data));
    }

    /// The one failure a proptest harness ever saved for
    /// `checksum_verifies_any_buffer`: a 149-byte, odd-length buffer.
    #[test]
    fn saved_odd_length_buffer_verifies_once_padded() {
        #[rustfmt::skip]
        let mut data = vec![
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 35, 119, 79, 134,
            56, 88, 202, 58, 60, 17, 128, 250, 25, 55, 55, 253, 43, 27, 89, 17, 131, 230, 207,
            183, 134, 84, 179, 110, 186, 19, 240, 4, 141, 177, 201, 248, 61, 14, 134, 68, 198,
        ];
        data.push(0);
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
    }

    #[test]
    fn all_zero_has_ffff_checksum() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn pseudo_header_matches_manual_sum() {
        let src = Ipv4Addr4::new(10, 0, 0, 1);
        let dst = Ipv4Addr4::new(10, 0, 0, 2);
        let mut s = pseudo_header(src, dst, 6, 20);
        s.add(&[0u8; 20]);
        let via_helper = s.finish();

        let mut manual = Vec::new();
        manual.extend_from_slice(&src.octets());
        manual.extend_from_slice(&dst.octets());
        manual.extend_from_slice(&[0, 6]);
        manual.extend_from_slice(&20u16.to_be_bytes());
        manual.extend_from_slice(&[0u8; 20]);
        assert_eq!(via_helper, checksum(&manual));
    }
}
