//! Crash recovery: scan, validate, truncate.
//!
//! [`recover`] walks every segment in sequence order, validates each
//! frame (CRC, length, monotonic sequence number) and hands decoded
//! records to the caller. At the **first** torn or corrupt frame it
//! stops, physically truncates the damaged segment back to its last
//! valid frame, and deletes any later segments (their sequence numbers
//! can no longer be contiguous). The result is a log identical to one
//! where the writer had cleanly committed exactly `next_seq` frames —
//! which is what makes recovery idempotent: running it twice yields
//! byte-identical state. The segments are the only thing recovery reads
//! or writes; any other file in the directory is left alone.
//!
//! A log this build merely cannot read is not damage: an intact segment
//! header (magic and CRC good) of another format version fails recovery
//! with `InvalidData` before anything on disk is touched.

use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use ah_obs::Recorder;

use crate::frame::{check_frame, FrameCheck};
use crate::record::{RunSeal, WalRecord};
use crate::segment::{
    decode_segment_header, segment_paths, sync_dir, FORMAT_VERSION, SEGMENT_HEADER_BYTES,
};

/// What the recovery scanner found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Segments visited (including any later dropped).
    segments_scanned: u64,
    /// Frames that validated and were delivered to the callback.
    pub frames_valid: u64,
    /// Torn (short) trailing writes discarded — 0 or 1.
    pub torn_frames: u64,
    /// Structurally complete frames rejected by checksum/sequence.
    pub corrupt_frames: u64,
    /// Bytes physically truncated from the damaged segment.
    pub bytes_truncated: u64,
    /// Whole segments deleted because they followed the damage point or
    /// had an unreadable header.
    pub segments_dropped: u64,
}

/// A recovered log, ready for replay or resumption.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredLog {
    /// The seal, when the log captured a completed run.
    pub seal: Option<RunSeal>,
    /// Durable watermark: sequence number the next append would get.
    pub next_seq: u64,
    /// Scanner report.
    pub stats: RecoveryStats,
}

impl RecoveredLog {
    /// True when the log ends with a [`RunSeal`] — the run it captured
    /// ran to completion and the log is read-only from here on.
    pub fn is_sealed(&self) -> bool {
        self.seal.is_some()
    }
}

/// Scan `dir`, repair it, and stream every valid record (in sequence
/// order) to `on_record(seq, raw_payload, record)`. Returns the durable
/// watermark and what the scanner had to do to get there. An absent or
/// empty directory recovers to an empty log (`next_seq == 0`).
///
/// # Examples
///
/// A torn trailing write (the bytes a crash left behind after the last
/// group commit) is discarded and physically truncated; every committed
/// frame survives:
///
/// ```
/// use ah_net::{ipv4::Ipv4Addr4, packet::PacketMeta, time::Ts};
/// use ah_obs::Recorder;
/// use ah_wal::record::WalRecord;
/// use ah_wal::{WalWriter, WalWriterConfig};
///
/// let dir = std::env::temp_dir().join(format!("wal-doc-recover-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let rec = Recorder::noop();
/// let mut w = WalWriter::create(&dir, WalWriterConfig::default(), &rec)?;
/// for i in 0..4u64 {
///     let pkt = PacketMeta::tcp_syn(
///         Ts::from_secs(i),
///         Ipv4Addr4(0x0a00_0001),
///         Ipv4Addr4(0xc000_0202),
///         40_000,
///         443,
///     );
///     w.append(&WalRecord::Packet(pkt))?;
/// }
/// w.commit()?;
/// drop(w);
///
/// // Simulate a crash mid-append: garbage after the committed tail.
/// use std::io::Write;
/// let seg = dir.join(format!("{:016x}.seg", 0));
/// std::fs::OpenOptions::new().append(true).open(&seg)?.write_all(&[0xAB; 7])?;
///
/// let log = ah_wal::recover::recover(&dir, &rec, |_seq, _raw, _record| {})?;
/// assert_eq!(log.next_seq, 4, "all committed frames survive");
/// assert_eq!(log.stats.torn_frames, 1, "the torn tail is counted once");
/// assert_eq!(log.stats.bytes_truncated, 7, "and physically removed");
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn recover(
    dir: &Path,
    rec: &Recorder,
    mut on_record: impl FnMut(u64, &[u8], WalRecord),
) -> io::Result<RecoveredLog> {
    // The scan buffers are recovery's own memory traffic; `on_record`
    // consumers re-tag via their own scopes.
    let _mem = ah_mem::MemScope::enter(ah_mem::Tag::Wal);
    let segs = segment_paths(dir)?;
    refuse_other_versions(&segs)?;
    let mut out = RecoveredLog { seal: None, next_seq: 0, stats: RecoveryStats::default() };
    let mut damaged = false;
    let mut seal_at: Option<u64> = None;

    for (base, path) in segs.iter() {
        out.stats.segments_scanned += 1;
        if damaged || *base != out.next_seq {
            // Everything after the damage point (or a sequence gap) is
            // unreachable: drop it.
            fs::remove_file(path)?;
            out.stats.segments_dropped += 1;
            continue;
        }
        let mut raw = Vec::new();
        fs::File::open(path)?.read_to_end(&mut raw)?;
        if decode_segment_header(&raw) != Some((FORMAT_VERSION, *base)) {
            fs::remove_file(path)?;
            out.stats.segments_dropped += 1;
            damaged = true;
            continue;
        }
        let mut off = SEGMENT_HEADER_BYTES;
        while off < raw.len() {
            match check_frame(&raw[off..], out.next_seq) {
                FrameCheck::Frame { payload, consumed } => {
                    match WalRecord::decode_payload(payload) {
                        Some(record) => {
                            if let WalRecord::Seal(s) = &record {
                                out.seal = Some(*s);
                                seal_at = Some(out.next_seq);
                            }
                            on_record(out.next_seq, payload, record);
                            out.stats.frames_valid += 1;
                            out.next_seq += 1;
                            off += consumed;
                        }
                        None => {
                            // Framed correctly but not a record: same
                            // contract as a checksum failure.
                            out.stats.corrupt_frames += 1;
                            damaged = true;
                            break;
                        }
                    }
                }
                FrameCheck::Torn => {
                    out.stats.torn_frames += 1;
                    damaged = true;
                    break;
                }
                FrameCheck::Corrupt => {
                    out.stats.corrupt_frames += 1;
                    damaged = true;
                    break;
                }
            }
        }
        if damaged {
            // Physical truncation: cut the file back to its last valid
            // frame and make the cut durable.
            out.stats.bytes_truncated += (raw.len() - off) as u64;
            let f = fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(off as u64)?;
            f.sync_data()?;
        }
    }

    if out.stats.segments_dropped > 0 {
        // A dropped segment that reappeared after a crash could line up
        // with the regrown tail of the log: make the removals durable.
        sync_dir(dir);
    }

    // A seal only counts when it is the very last surviving frame; a
    // seal followed by more frames (or lost to truncation) leaves the
    // log unsealed.
    if seal_at != out.next_seq.checked_sub(1) {
        out.seal = None;
    }

    let m = RecoverMetrics::new(rec);
    m.apply(&out.stats, out.next_seq);
    Ok(out)
}

/// Fail, before the scan repairs anything, if any segment is an intact
/// log of another format version.
fn refuse_other_versions(segs: &[(u64, PathBuf)]) -> io::Result<()> {
    for (_, path) in segs {
        let mut head = Vec::with_capacity(SEGMENT_HEADER_BYTES);
        fs::File::open(path)?.take(SEGMENT_HEADER_BYTES as u64).read_to_end(&mut head)?;
        if let Some((version, _)) = decode_segment_header(&head).filter(|h| h.0 != FORMAT_VERSION) {
            let msg = format!(
                "{} is a format-version {version} WAL segment; this build reads version {FORMAT_VERSION}",
                path.display()
            );
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
    }
    Ok(())
}

/// Recovery metrics (`ah_wal_recover_*`).
struct RecoverMetrics<'a> {
    rec: &'a Recorder,
}

impl<'a> RecoverMetrics<'a> {
    fn new(rec: &'a Recorder) -> RecoverMetrics<'a> {
        RecoverMetrics { rec }
    }

    fn apply(&self, s: &RecoveryStats, next_seq: u64) {
        // Instruments live in the recorder, which outlives the run.
        let _mem = ah_mem::MemScope::enter(ah_mem::Tag::Obs);
        self.rec.counter("ah_wal_recover_runs_total").inc();
        self.rec.counter("ah_wal_recover_frames_valid_total").add(s.frames_valid);
        self.rec.counter("ah_wal_recover_frames_torn_total").add(s.torn_frames);
        self.rec.counter("ah_wal_recover_frames_corrupt_total").add(s.corrupt_frames);
        self.rec.counter("ah_wal_recover_bytes_truncated_total").add(s.bytes_truncated);
        self.rec.counter("ah_wal_recover_segments_dropped_total").add(s.segments_dropped);
        self.rec.gauge("ah_wal_recover_watermark_seq").set(next_seq as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{WalWriter, WalWriterConfig};
    use ah_net::ipv4::Ipv4Addr4;
    use ah_net::packet::{PacketMeta, Transport};
    use ah_net::time::Ts;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ah-wal-recover-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> WalWriterConfig {
        WalWriterConfig { group_commit_frames: 4, segment_bytes: 200 }
    }

    fn pkt(i: u64) -> WalRecord {
        WalRecord::Packet(PacketMeta {
            ts: Ts(i),
            src: Ipv4Addr4(0x0a00_0001),
            dst: Ipv4Addr4(0xc000_0200),
            ip_id: i as u16,
            ttl: 64,
            wire_len: 60,
            transport: Transport::Udp { src_port: 53, dst_port: 443 },
        })
    }

    fn pkt_payload(i: u64) -> Vec<u8> {
        let mut out = Vec::new();
        pkt(i).encode_payload(&mut out);
        out
    }

    #[test]
    fn empty_dir_recovers_empty() {
        let dir = tmp("empty");
        let rec = Recorder::new();
        let out = recover(&dir, &rec, |_, _, _| {}).unwrap();
        assert_eq!(out.next_seq, 0);
        assert!(!out.is_sealed());
    }

    #[test]
    fn clean_log_replays_every_frame() {
        let dir = tmp("clean");
        let rec = Recorder::new();
        let mut w = WalWriter::create(&dir, small_cfg(), &rec).unwrap();
        for i in 0..20 {
            w.append(&pkt(i)).unwrap();
        }
        w.commit().unwrap();
        let mut seen = 0u64;
        let out = recover(&dir, &rec, |seq, _, _| {
            assert_eq!(seq, seen);
            seen += 1;
        })
        .unwrap();
        assert_eq!(out.next_seq, 20);
        assert_eq!(seen, 20);
        assert_eq!(out.stats.torn_frames + out.stats.corrupt_frames, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = tmp("torn");
        let rec = Recorder::new();
        let mut w = WalWriter::create(&dir, small_cfg(), &rec).unwrap();
        for i in 0..6 {
            w.append(&pkt(i)).unwrap();
        }
        w.commit().unwrap();
        // Tear the final frame by hand: append half a frame to the last
        // segment.
        let segs = segment_paths(&dir).unwrap();
        let (_, last) = segs.last().unwrap();
        let mut raw = fs::read(last).unwrap();
        let mut frame = Vec::new();
        crate::frame::append_frame(&mut frame, 6, &pkt_payload(6));
        raw.extend_from_slice(&frame[..frame.len() / 2]);
        fs::write(last, &raw).unwrap();

        let out1 = recover(&dir, &rec, |_, _, _| {}).unwrap();
        assert_eq!(out1.next_seq, 6);
        assert_eq!(out1.stats.torn_frames, 1);
        assert!(out1.stats.bytes_truncated > 0);

        // Second pass sees a clean log and changes nothing.
        let before: Vec<Vec<u8>> =
            segment_paths(&dir).unwrap().iter().map(|(_, p)| fs::read(p).unwrap()).collect();
        let out2 = recover(&dir, &rec, |_, _, _| {}).unwrap();
        assert_eq!(out2.next_seq, 6);
        assert_eq!(out2.stats.torn_frames, 0);
        assert_eq!(out2.stats.bytes_truncated, 0);
        let after: Vec<Vec<u8>> =
            segment_paths(&dir).unwrap().iter().map(|(_, p)| fs::read(p).unwrap()).collect();
        assert_eq!(before, after, "recovery must be idempotent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_segment_drops_later_segments() {
        let dir = tmp("corrupt");
        let rec = Recorder::new();
        let mut w = WalWriter::create(&dir, small_cfg(), &rec).unwrap();
        for i in 0..40 {
            w.append(&pkt(i)).unwrap();
        }
        w.commit().unwrap();
        let segs = segment_paths(&dir).unwrap();
        assert!(segs.len() >= 2, "need rotation for this test");
        // Flip a payload byte in the middle of the first segment.
        let (_, first) = &segs[0];
        let mut raw = fs::read(first).unwrap();
        let mid = SEGMENT_HEADER_BYTES + (raw.len() - SEGMENT_HEADER_BYTES) / 2;
        raw[mid] ^= 0x01;
        fs::write(first, &raw).unwrap();

        let out = recover(&dir, &rec, |_, _, _| {}).unwrap();
        assert_eq!(out.stats.corrupt_frames, 1);
        assert!(out.stats.segments_dropped >= 1, "later segments must be dropped");
        assert!(out.next_seq < 40);
        // All surviving state is contiguous from zero.
        let survivors = segment_paths(&dir).unwrap();
        assert_eq!(survivors.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_record_kind_is_a_corrupt_frame() {
        for kind in [0u8, 4] {
            let dir = tmp(&format!("kind-{kind}"));
            let rec = Recorder::new();
            let mut w = WalWriter::create(&dir, WalWriterConfig::default(), &rec).unwrap();
            for i in 0..5 {
                w.append(&pkt(i)).unwrap();
            }
            // Well framed and CRC-valid, but the kind byte names no record.
            w.append_payload(&[kind, 0xAA, 0xBB]).unwrap();
            w.append(&pkt(6)).unwrap();
            w.commit().unwrap();
            drop(w);

            let out = recover(&dir, &rec, |_, _, _| {}).unwrap();
            assert_eq!(out.next_seq, 5, "kind {kind}: the log ends before the unknown frame");
            assert_eq!((out.stats.corrupt_frames, out.stats.torn_frames), (1, 0), "kind {kind}");
            assert!(out.stats.bytes_truncated > 0, "kind {kind}: the tail is cut off");
            let again = recover(&dir, &rec, |_, _, _| {}).unwrap();
            assert_eq!(
                again.stats,
                RecoveryStats { segments_scanned: 1, frames_valid: 5, ..Default::default() }
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn seal_counts_only_as_the_very_last_frame() {
        let dir = tmp("seal-last");
        let rec = Recorder::new();
        let mut w = WalWriter::create(&dir, small_cfg(), &rec).unwrap();
        for i in 0..3 {
            w.append(&pkt(i)).unwrap();
        }
        w.seal(RunSeal { generated: 3, packet_hash: 7 }).unwrap();
        drop(w);

        // A seal sitting at the tail must survive recovery…
        let sealed = recover(&dir, &rec, |_, _, _| {}).unwrap();
        assert!(sealed.is_sealed(), "tail seal must recover as sealed");
        assert_eq!(sealed.next_seq, 4);

        // …but the identical seal followed by one more valid frame is a
        // lie (the run kept going), and recovery must refuse it.
        let (_, last_seg) = segment_paths(&dir).unwrap().pop().unwrap();
        let mut extra = Vec::new();
        crate::frame::append_frame(&mut extra, sealed.next_seq, &pkt_payload(99));
        use std::io::Write;
        fs::OpenOptions::new().append(true).open(&last_seg).unwrap().write_all(&extra).unwrap();
        let unsealed = recover(&dir, &rec, |_, _, _| {}).unwrap();
        assert!(!unsealed.is_sealed(), "a mid-log seal is not a seal");
        assert_eq!(unsealed.next_seq, 5, "the post-seal frame itself is valid");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn intact_log_of_another_version_is_refused_untouched() {
        let dir = tmp("older-version");
        fs::create_dir_all(&dir).unwrap();
        // A segment of the previous version written by hand: good magic,
        // good CRC, and frames this build would otherwise scan.
        let old = FORMAT_VERSION - 1;
        let mut raw = crate::segment::encode_segment_header(0).to_vec();
        raw[8..12].copy_from_slice(&old.to_le_bytes());
        let crc = crate::crc::crc32(&raw[0..20]);
        raw[20..24].copy_from_slice(&crc.to_le_bytes());
        for i in 0..3 {
            crate::frame::append_frame(&mut raw, i, &pkt_payload(i));
        }
        let seg = dir.join(format!("{:016x}.seg", 0));
        fs::write(&seg, &raw).unwrap();

        let err = recover(&dir, &Recorder::new(), |_, _, _| panic!("no frame may be delivered"))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {old}"))
                && msg.contains(&format!("version {FORMAT_VERSION}")),
            "{msg}"
        );
        assert_eq!(fs::read(&seg).unwrap(), raw, "the unreadable log must survive byte for byte");

        // A *damaged* header is still dropped, as before.
        raw[3] ^= 0x40;
        fs::write(&seg, &raw).unwrap();
        let out = recover(&dir, &Recorder::new(), |_, _, _| {}).unwrap();
        assert_eq!((out.next_seq, out.stats.segments_dropped), (0, 1));
        assert!(!seg.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
