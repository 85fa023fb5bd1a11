//! Property-based tests for the WAL frame codec, the record codec, and
//! the recovery scanner.
//!
//! The durability contract rests on three totality claims, each checked
//! here against adversarial inputs rather than hand-picked fixtures:
//!
//! 1. framing is a bijection on (seq, payload) — every encode parses
//!    back to exactly what went in;
//! 2. no single-bit flip and no truncation of a valid frame is ever
//!    accepted as that frame (CRC32 detects all single-bit errors);
//! 3. recovery is idempotent — after one repair pass over a damaged
//!    log, a second pass finds nothing to do and rewrites nothing.
//!
//! This file is the WAL's third of the decoder-totality gate
//! (`scripts/ci.sh` runs it by name beside `ah-net`'s pcap and
//! `ah-flow`'s NetFlow v9 proptests): `record_decoder_is_total` is the
//! arbitrary-bytes case, `recovery_truncation_is_idempotent` and
//! `recovery_bitflip_is_idempotent` the mutated-valid-input cases, so
//! nothing is duplicated for it elsewhere.

use ah_net::ipv4::Ipv4Addr4;
use ah_net::packet::PacketMeta;
use ah_net::time::Ts;
use ah_obs::Recorder;
use ah_wal::frame::{append_frame, check_frame, FrameCheck, FRAME_HEADER_BYTES};
use ah_wal::record::WalRecord;
use ah_wal::{recover, RunSeal, WalWriter, WalWriterConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_addr() -> impl Strategy<Value = Ipv4Addr4> {
    any::<u32>().prop_map(Ipv4Addr4::from_u32)
}

/// An arbitrary delivered packet of each transport shape.
fn arb_packet() -> impl Strategy<Value = PacketMeta> {
    (arb_addr(), arb_addr(), any::<u16>(), any::<u16>(), any::<u16>(), any::<u64>(), 0u8..3)
        .prop_map(|(src, dst, sp, dp, ip_id, ts, kind)| {
            let ts = Ts::from_micros(ts >> 16);
            let mut m = match kind {
                0 => PacketMeta::tcp_syn(ts, src, dst, sp, dp),
                1 => PacketMeta::udp_probe(ts, src, dst, sp, dp),
                _ => PacketMeta::icmp_echo(ts, src, dst),
            };
            m.ip_id = ip_id;
            m
        })
}

/// A fresh on-disk log directory, unique across cases and processes.
fn case_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ah-wal-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file in the log directory as (name, bytes), for byte-level comparison.
fn dir_snapshot(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("wal dir readable")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read"))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

/// Build a committed log of `packets` and return its single segment path.
fn write_log(dir: &Path, packets: &[PacketMeta], sealed: bool) -> PathBuf {
    let rec = Recorder::new();
    let mut w = WalWriter::create(dir, WalWriterConfig::default(), &rec).expect("create");
    for p in packets {
        w.append(&WalRecord::Packet(*p)).expect("append");
    }
    if sealed {
        w.seal(RunSeal { generated: packets.len() as u64, packet_hash: 0 }).expect("seal");
    } else {
        w.commit().expect("commit");
    }
    let segs = ah_wal::segment_paths(dir).expect("list");
    assert_eq!(segs.len(), 1, "small log stays in one segment");
    segs[0].1.clone()
}

proptest! {
    /// Framing round-trips any (seq, payload) pair, byte-exactly.
    #[test]
    fn frame_roundtrip_identity(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..1024),
    ) {
        let mut buf = Vec::new();
        append_frame(&mut buf, seq, &payload);
        prop_assert_eq!(buf.len(), FRAME_HEADER_BYTES + payload.len());
        match check_frame(&buf, seq) {
            FrameCheck::Frame { payload: got, consumed } => {
                prop_assert_eq!(got, &payload[..]);
                prop_assert_eq!(consumed, buf.len());
            }
            other => prop_assert!(false, "valid frame rejected as {other:?}"),
        }
        // The same bytes under any other expected sequence number are
        // corrupt — frames cannot be replayed at a different position.
        match check_frame(&buf, seq.wrapping_add(1)) {
            FrameCheck::Corrupt => {}
            other => prop_assert!(false, "mis-sequenced frame accepted as {other:?}"),
        }
    }

    /// Flipping ANY single bit of a valid frame makes it unacceptable.
    #[test]
    fn any_single_bit_flip_is_rejected(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        append_frame(&mut buf, seq, &payload);
        let at = idx.index(buf.len());
        buf[at] ^= 1 << bit;
        match check_frame(&buf, seq) {
            FrameCheck::Frame { .. } => {
                prop_assert!(false, "single-bit flip at byte {at} bit {bit} accepted")
            }
            // A flip in the length field may make the frame look longer
            // than the buffer (Torn) or impossibly sized / checksum-bad
            // (Corrupt); either way it is not accepted.
            FrameCheck::Torn | FrameCheck::Corrupt => {}
        }
    }

    /// Every strict prefix of a valid frame is Torn, never accepted and
    /// never Corrupt — so a crashed append is always retryable.
    #[test]
    fn any_truncation_is_torn(
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        append_frame(&mut buf, seq, &payload);
        let at = cut.index(buf.len()); // 0..len, strictly short of the end
        prop_assert_eq!(check_frame(&buf[..at], seq), FrameCheck::Torn);
    }

    /// The record codec round-trips every kind — any delivered packet,
    /// any run description, any seal — and the decoder rejects any
    /// trailing garbage.
    #[test]
    fn packet_record_roundtrip(
        m in arb_packet(),
        description in proptest::collection::vec(any::<u8>(), 0..2048),
        seal in (any::<u64>(), any::<u64>()),
        kind in 0u8..3,
        junk in any::<u8>(),
    ) {
        let rec = match kind {
            0 => WalRecord::Packet(m),
            1 => WalRecord::Meta(description),
            _ => WalRecord::Seal(RunSeal { generated: seal.0, packet_hash: seal.1 }),
        };
        let mut payload = Vec::new();
        rec.encode_payload(&mut payload);
        prop_assert_eq!(WalRecord::decode_payload(&payload), Some(rec));
        payload.push(junk);
        prop_assert_eq!(WalRecord::decode_payload(&payload), None);
    }

    /// The record decoder is total: arbitrary bytes never panic it.
    #[test]
    fn record_decoder_is_total(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = WalRecord::decode_payload(&payload);
    }

    /// Recovery after an arbitrary tail truncation lands on a durable
    /// prefix, and a second recovery pass is a byte-level no-op.
    #[test]
    fn recovery_truncation_is_idempotent(
        packets in proptest::collection::vec(arb_packet(), 1..24),
        cut in any::<prop::sample::Index>(),
    ) {
        let dir = case_dir();
        let seg = write_log(&dir, &packets, false);
        let full = std::fs::metadata(&seg).expect("stat").len();
        // Cut anywhere from the bare file header to one byte short.
        let header = 24u64;
        let keep = header + (cut.index((full - header) as usize) as u64);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).expect("open");
        f.set_len(keep).expect("truncate");
        drop(f);

        let first = recover(&dir, &Recorder::new(), |_, _, _| {}).expect("first recovery");
        prop_assert!(first.next_seq <= packets.len() as u64, "no invented frames");
        let snapshot = dir_snapshot(&dir);
        let second = recover(&dir, &Recorder::new(), |_, _, _| {}).expect("second recovery");
        prop_assert_eq!(second.next_seq, first.next_seq, "watermark is stable");
        prop_assert_eq!(second.stats.bytes_truncated, 0, "nothing left to repair");
        prop_assert_eq!(dir_snapshot(&dir), snapshot, "second pass rewrites nothing");
        // Everything recovery kept decodes back to the original packets.
        let mut got = Vec::new();
        recover(&dir, &Recorder::new(), |_, _, r| got.push(r)).expect("third recovery");
        for (i, r) in got.iter().enumerate() {
            prop_assert_eq!(r, &WalRecord::Packet(packets[i]), "frame {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in a sealed log's frames never
    /// survives recovery silently: either the flipped frame (and its
    /// tail) is cut, or the seal is dropped — and the pass stays
    /// idempotent.
    #[test]
    fn recovery_bitflip_is_idempotent(
        packets in proptest::collection::vec(arb_packet(), 1..16),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let dir = case_dir();
        let seg = write_log(&dir, &packets, true);
        let mut raw = std::fs::read(&seg).expect("read segment");
        let header = 24usize;
        let at = header + idx.index(raw.len() - header);
        raw[at] ^= 1 << bit;
        std::fs::write(&seg, &raw).expect("write damaged segment");

        let sealed_frames = packets.len() as u64 + 1;
        let first = recover(&dir, &Recorder::new(), |_, _, _| {}).expect("first recovery");
        prop_assert!(first.next_seq < sealed_frames, "flipped frame must be cut");
        prop_assert!(!first.is_sealed(), "a damaged log is never sealed");
        let snapshot = dir_snapshot(&dir);
        let second = recover(&dir, &Recorder::new(), |_, _, _| {}).expect("second recovery");
        prop_assert_eq!(second.next_seq, first.next_seq);
        prop_assert_eq!(dir_snapshot(&dir), snapshot, "second pass rewrites nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
