//! On-disk segment layout.
//!
//! A WAL directory is its data segments and nothing else:
//! `<base_seq:016x>.seg`, each starting with a 24-byte header
//! (`magic ‖ version ‖ base_seq ‖ crc`) followed by frames whose
//! sequence numbers run `base_seq, base_seq+1, …` contiguously. Frame
//! counts, sizes and the sealed state are read off the segments by the
//! recovery scan; any other file in the directory is ignored.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::crc::{crc32, Crc32};

/// Magic bytes opening every data segment.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"AHWALSG1";
/// Fixed size of the segment header.
pub(crate) const SEGMENT_HEADER_BYTES: usize = 24;
/// Current on-disk format version.
pub(crate) const FORMAT_VERSION: u32 = 3;

/// Encode a segment header for a segment whose first frame is `base_seq`.
pub(crate) fn encode_segment_header(base_seq: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut out = [0u8; SEGMENT_HEADER_BYTES];
    out[0..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&base_seq.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[0..20]);
    out[20..24].copy_from_slice(&crc.finish().to_le_bytes());
    out
}

/// Decode a segment header: the `(version, base_seq)` of an intact one
/// (magic and CRC good, whatever the version); `None` for anything damaged.
pub(crate) fn decode_segment_header(buf: &[u8]) -> Option<(u32, u64)> {
    if buf.len() < SEGMENT_HEADER_BYTES || buf[0..8] != SEGMENT_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().ok()?);
    let base_seq = u64::from_le_bytes(buf[12..20].try_into().ok()?);
    let stored = u32::from_le_bytes(buf[20..24].try_into().ok()?);
    (crc32(&buf[0..20]) == stored).then_some((version, base_seq))
}

/// File name of the segment whose first frame is `base_seq`.
pub(crate) fn segment_file_name(base_seq: u64) -> String {
    format!("{base_seq:016x}.seg")
}

/// Parse a `<base_seq:016x>.seg` file name back to its base sequence.
pub(crate) fn parse_segment_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".seg")?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// All data segments in `dir`, sorted by base sequence.
pub fn segment_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                if let Some(base) = name.to_str().and_then(parse_segment_file_name) {
                    out.push((base, entry.path()));
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    out.sort_by_key(|(base, _)| *base);
    Ok(out)
}

/// Make a file creation or removal inside `dir` durable. Best-effort on
/// platforms where directories cannot be opened.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = encode_segment_header(42);
        assert_eq!(decode_segment_header(&h), Some((FORMAT_VERSION, 42)));
        for bit in 0..SEGMENT_HEADER_BYTES * 8 {
            let mut m = h;
            m[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(decode_segment_header(&m), None, "bit {bit} accepted");
        }
    }

    #[test]
    fn file_name_round_trip() {
        for base in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(parse_segment_file_name(&segment_file_name(base)), Some(base));
        }
        assert_eq!(parse_segment_file_name("0000000000000000.tmp"), None);
        assert_eq!(parse_segment_file_name("zz.seg"), None);
    }
}
