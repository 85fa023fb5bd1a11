//! Length-prefixed CRC-framed log entries.
//!
//! Every record in a segment is one frame:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------------
//!       0     4  len   (u32 LE) — payload length in bytes, 1..=1 MiB
//!       4     8  seq   (u64 LE) — monotonic frame sequence number
//!      12     4  crc   (u32 LE) — CRC32 over len ‖ seq ‖ payload
//!      16   len  payload         — record kind byte + record body
//! ```
//!
//! The CRC covers the length and sequence fields as well as the payload,
//! so a flip anywhere in the frame is detected; a length flip that points
//! past the end of the file reads short and is classified as *torn*
//! instead. Frames never span segment files.

use crate::crc::Crc32;

/// Fixed bytes before the payload: len (4) + seq (8) + crc (4).
pub const FRAME_HEADER_BYTES: usize = 16;

/// Upper bound on one frame's payload; anything larger in a length field
/// is treated as corruption rather than attempted as an allocation.
pub(crate) const MAX_FRAME_PAYLOAD: u32 = 1 << 20;

/// Append one encoded frame carrying `payload` to `out`.
pub fn append_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let len = payload.len() as u32;
    debug_assert!((1..=MAX_FRAME_PAYLOAD).contains(&len));
    let len_le = len.to_le_bytes();
    let seq_le = seq.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&len_le);
    crc.update(&seq_le);
    crc.update(payload);
    out.extend_from_slice(&len_le);
    out.extend_from_slice(&seq_le);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
}

/// Outcome of validating the frame at the start of `buf`.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameCheck<'a> {
    /// A whole, checksum-valid frame with the expected sequence number.
    Frame {
        /// The frame's payload (kind byte + body).
        payload: &'a [u8],
        /// Total encoded size, header included.
        consumed: usize,
    },
    /// The buffer ends before the frame does — a torn final write.
    Torn,
    /// The frame is structurally complete but fails validation
    /// (checksum mismatch, impossible length, or wrong sequence number).
    Corrupt,
}

/// Validate the frame at the start of `buf`, expecting sequence number
/// `expect_seq`. Never panics and never reads past `buf`.
pub fn check_frame(buf: &[u8], expect_seq: u64) -> FrameCheck<'_> {
    if buf.len() < FRAME_HEADER_BYTES {
        return FrameCheck::Torn;
    }
    #[expect(
        clippy::expect_used,
        reason = "slice bounds proven by the length check above; try_into on a 4/8-byte slice of a checked prefix cannot fail"
    )]
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4-byte slice"));
    #[expect(clippy::expect_used, reason = "same bounds argument as above")]
    let seq = u64::from_le_bytes(buf[4..12].try_into().expect("8-byte slice"));
    #[expect(clippy::expect_used, reason = "same bounds argument as above")]
    let stored_crc = u32::from_le_bytes(buf[12..16].try_into().expect("4-byte slice"));
    if len == 0 || len > MAX_FRAME_PAYLOAD {
        return FrameCheck::Corrupt;
    }
    let total = FRAME_HEADER_BYTES + len as usize;
    if buf.len() < total {
        return FrameCheck::Torn;
    }
    let payload = &buf[FRAME_HEADER_BYTES..total];
    let mut crc = Crc32::new();
    crc.update(&buf[0..4]);
    crc.update(&buf[4..12]);
    crc.update(payload);
    if crc.finish() != stored_crc || seq != expect_seq {
        return FrameCheck::Corrupt;
    }
    FrameCheck::Frame { payload, consumed: total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 7, b"hello");
        match check_frame(&buf, 7) {
            FrameCheck::Frame { payload, consumed } => {
                assert_eq!(payload, b"hello");
                assert_eq!(consumed, buf.len());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn wrong_seq_is_corrupt() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 7, b"hello");
        assert_eq!(check_frame(&buf, 8), FrameCheck::Corrupt);
    }

    #[test]
    fn short_buffer_is_torn() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 0, b"payload");
        for cut in 0..buf.len() {
            match check_frame(&buf[..cut], 0) {
                FrameCheck::Torn => {}
                other => panic!("cut at {cut}: expected torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 3, b"some record payload");
        for bit in 0..buf.len() * 8 {
            let mut m = buf.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            match check_frame(&m, 3) {
                FrameCheck::Frame { .. } => panic!("bit {bit} flip accepted"),
                FrameCheck::Torn | FrameCheck::Corrupt => {}
            }
        }
    }
}
