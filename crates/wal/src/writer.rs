//! Append path: batched group-commit writer with segment rotation.
//!
//! [`WalWriter`] owns one WAL directory. Appends are encoded into an
//! in-memory pending buffer and made durable in batches: when
//! [`WalWriterConfig::group_commit_frames`] frames accumulate (or on an
//! explicit [`WalWriter::commit`]), the buffer is written and
//! `fdatasync`'d in one call — one syscall pair per batch instead of per
//! record. [`WalWriter::durable_seq`] is the watermark: everything below
//! it survives a crash, everything above it is best-effort and will be
//! truncated away by recovery.
//!
//! Segments rotate once the current file crosses
//! [`WalWriterConfig::segment_bytes`]; rotation happens on a commit
//! boundary and opens the next `<base_seq:016x>.seg` with a fresh
//! header. Frames never span segments. The writer touches no file other
//! than its segments.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ah_mem::{MemScope, Tag};
use ah_obs::{Counter, Gauge, Recorder};

use crate::frame::{append_frame, FRAME_HEADER_BYTES};
use crate::record::WalRecord;
use crate::segment::{
    encode_segment_header, segment_file_name, segment_paths, sync_dir, SEGMENT_HEADER_BYTES,
};

/// Tunables for the append path.
#[derive(Debug, Clone, Copy)]
pub struct WalWriterConfig {
    /// Frames per group commit: the pending buffer is flushed and synced
    /// once this many appends accumulate.
    pub group_commit_frames: usize,
    /// Rotate to a new segment once the current file reaches this size.
    pub segment_bytes: u64,
}

impl Default for WalWriterConfig {
    fn default() -> Self {
        // 4096 small frames is a few hundred KB of pending data — large
        // enough that fsync cost amortizes to noise against simulation
        // (a darknet day delivers millions of packets), small enough
        // that a crash loses at most a fraction of a second of stream.
        WalWriterConfig { group_commit_frames: 4096, segment_bytes: 8 << 20 }
    }
}

/// Writer-side metrics (`ah_wal_writer_*`).
#[derive(Debug, Clone, Default)]
struct WriterMetrics {
    frames: Counter,
    bytes: Counter,
    commits: Counter,
    rotations: Counter,
    seals: Counter,
    pending: Gauge,
    durable: Gauge,
}

impl WriterMetrics {
    fn new(rec: &Recorder) -> WriterMetrics {
        // Instruments are interned in the recorder, which outlives any
        // run — charge them to Obs, not the run-scoped Wal tag.
        let _mem = MemScope::enter(Tag::Obs);
        WriterMetrics {
            frames: rec.counter("ah_wal_writer_frames_total"),
            bytes: rec.counter("ah_wal_writer_bytes_total"),
            commits: rec.counter("ah_wal_writer_commits_total"),
            rotations: rec.counter("ah_wal_writer_rotations_total"),
            seals: rec.counter("ah_wal_writer_seals_total"),
            pending: rec.gauge("ah_wal_writer_pending_frames"),
            durable: rec.gauge("ah_wal_writer_durable_seq"),
        }
    }
}

/// Append handle over one WAL directory.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    cfg: WalWriterConfig,
    file: fs::File,
    seg_bytes: u64,
    next_seq: u64,
    durable_seq: u64,
    pending: Vec<u8>,
    pending_frames: usize,
    last_frame_start: usize,
    sealed: bool,
    scratch: Vec<u8>,
    metrics: WriterMetrics,
    tracer: ah_trace::Tracer,
}

impl WalWriter {
    /// Create a fresh log in `dir` (created if absent). Fails with
    /// [`io::ErrorKind::AlreadyExists`] if the directory already holds
    /// segments — recovery + [`WalWriter::resume`] is the path for that.
    ///
    /// # Examples
    ///
    /// Append a few packet records, group-commit them durable, and
    /// stream them back through recovery:
    ///
    /// ```
    /// use ah_net::{ipv4::Ipv4Addr4, packet::PacketMeta, time::Ts};
    /// use ah_obs::Recorder;
    /// use ah_wal::record::WalRecord;
    /// use ah_wal::{WalWriter, WalWriterConfig};
    ///
    /// let dir = std::env::temp_dir().join(format!("wal-doc-create-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let rec = Recorder::noop();
    /// let mut w = WalWriter::create(&dir, WalWriterConfig::default(), &rec)?;
    /// for i in 0..3u16 {
    ///     let pkt = PacketMeta::tcp_syn(
    ///         Ts::from_secs(u64::from(i)),
    ///         Ipv4Addr4(0x0a00_0001),
    ///         Ipv4Addr4(0xc000_0202),
    ///         40_000 + i,
    ///         443,
    ///     );
    ///     w.append(&WalRecord::Packet(pkt))?;
    /// }
    /// assert_eq!(w.durable_seq(), 0, "appends buffer until the group commit");
    /// w.commit()?;
    /// assert_eq!(w.durable_seq(), 3);
    /// drop(w);
    ///
    /// let mut packets = 0;
    /// let log = ah_wal::recover::recover(&dir, &rec, |_seq, _raw, record| {
    ///     if matches!(record, WalRecord::Packet(_)) {
    ///         packets += 1;
    ///     }
    /// })?;
    /// assert_eq!((packets, log.next_seq, log.is_sealed()), (3, 3, false));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn create(dir: &Path, cfg: WalWriterConfig, rec: &Recorder) -> io::Result<WalWriter> {
        let _mem = MemScope::enter(Tag::Wal);
        fs::create_dir_all(dir)?;
        if !segment_paths(dir)?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds WAL segments", dir.display()),
            ));
        }
        let file = open_segment(dir, 0, true)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            cfg,
            file,
            seg_bytes: SEGMENT_HEADER_BYTES as u64,
            next_seq: 0,
            durable_seq: 0,
            pending: Vec::new(),
            pending_frames: 0,
            last_frame_start: 0,
            sealed: false,
            scratch: Vec::new(),
            metrics: WriterMetrics::new(rec),
            tracer: ah_trace::Tracer::noop(),
        })
    }

    /// Reopen an existing, recovered, unsealed log for appending.
    /// `next_seq` must be the recovery scanner's watermark: the sequence
    /// number the next append will get. The last segment on disk is
    /// opened in append mode; a fresh directory behaves like
    /// [`WalWriter::create`].
    pub fn resume(
        dir: &Path,
        cfg: WalWriterConfig,
        next_seq: u64,
        rec: &Recorder,
    ) -> io::Result<WalWriter> {
        let _mem = MemScope::enter(Tag::Wal);
        let segs = segment_paths(dir)?;
        let Some(&(seg_base, ref path)) = segs.last() else {
            return WalWriter::create(dir, cfg, rec);
        };
        if next_seq < seg_base {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("resume watermark {next_seq} precedes last segment base {seg_base}"),
            ));
        }
        let seg_bytes = fs::metadata(path)?.len();
        let file = fs::OpenOptions::new().append(true).open(path)?;
        let w = WalWriter {
            dir: dir.to_path_buf(),
            cfg,
            file,
            seg_bytes,
            next_seq,
            durable_seq: next_seq,
            pending: Vec::new(),
            pending_frames: 0,
            last_frame_start: 0,
            sealed: false,
            scratch: Vec::new(),
            metrics: WriterMetrics::new(rec),
            tracer: ah_trace::Tracer::noop(),
        };
        w.metrics.durable.set(w.durable_seq as i64);
        Ok(w)
    }

    /// Attach a tracer: group commits, fsyncs, segment rotations and the
    /// final seal each get spans (`ah_wal_writer_commit`,
    /// `ah_wal_writer_fsync`, `ah_wal_writer_rotate`,
    /// `ah_wal_writer_seal`). Observation-only: the bytes on disk and
    /// the durability watermark are unchanged.
    pub fn set_tracer(&mut self, tracer: &ah_trace::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Durability watermark: all frames with `seq < durable_seq` have
    /// been written and fsync'd.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Append one record; returns its sequence number. Durable only
    /// after the enclosing group commit (automatic every
    /// `group_commit_frames` appends, or via [`WalWriter::commit`]).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        let _mem = MemScope::enter(Tag::Wal);
        self.scratch.clear();
        rec.encode_payload(&mut self.scratch);
        let payload = std::mem::take(&mut self.scratch);
        let seq = self.append_payload(&payload)?;
        self.scratch = payload;
        Ok(seq)
    }

    /// Append one pre-encoded frame payload; returns its sequence number.
    pub fn append_payload(&mut self, payload: &[u8]) -> io::Result<u64> {
        let _mem = MemScope::enter(Tag::Wal);
        if self.sealed {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "append to sealed WAL"));
        }
        let seq = self.next_seq;
        self.last_frame_start = self.pending.len();
        append_frame(&mut self.pending, seq, payload);
        self.next_seq += 1;
        self.pending_frames += 1;
        self.metrics.frames.inc();
        self.metrics.bytes.add((FRAME_HEADER_BYTES + payload.len()) as u64);
        self.metrics.pending.set(self.pending_frames as i64);
        if self.pending_frames >= self.cfg.group_commit_frames {
            self.commit()?;
        }
        Ok(seq)
    }

    /// Group commit: write the pending buffer, `fdatasync`, advance the
    /// durable watermark, then rotate if the segment crossed its size
    /// budget. A no-op when nothing is pending.
    pub fn commit(&mut self) -> io::Result<()> {
        let _mem = MemScope::enter(Tag::Wal);
        if !self.pending.is_empty() {
            let _commit = self.tracer.span("ah_wal_writer_commit");
            self.file.write_all(&self.pending)?;
            {
                let _fsync = self.tracer.span("ah_wal_writer_fsync");
                self.file.sync_data()?;
            }
            self.seg_bytes += self.pending.len() as u64;
            self.durable_seq = self.next_seq;
            self.pending.clear();
            self.pending_frames = 0;
            self.last_frame_start = 0;
            self.metrics.commits.inc();
            self.metrics.pending.set(0);
            self.metrics.durable.set(self.durable_seq as i64);
        }
        if self.seg_bytes >= self.cfg.segment_bytes && !self.sealed {
            self.rotate()?;
        }
        Ok(())
    }

    /// Append the run's seal record and force a final commit. Further
    /// appends fail.
    pub fn seal(&mut self, seal: crate::record::RunSeal) -> io::Result<()> {
        let _mem = MemScope::enter(Tag::Wal);
        let _trace = self.tracer.span("ah_wal_writer_seal");
        self.append(&WalRecord::Seal(seal))?;
        self.commit()?;
        self.sealed = true;
        self.metrics.seals.inc();
        Ok(())
    }

    /// Simulate a crash mid-group-commit: write the pending buffer up to
    /// a point strictly inside its final frame (earlier pending frames
    /// land whole; the last is torn), skip the fsync, and abort the
    /// process. Used by the CI crash-recovery gate and chaos tests;
    /// recovery must truncate the torn frame and report
    /// `durable_seq` as the watermark.
    pub fn crash_with_torn_tail(&mut self) -> ! {
        if self.pending.is_empty() {
            // Nothing buffered: tear a bare header so the tail is still
            // a torn write rather than a clean end.
            self.pending.extend_from_slice(&[0x5A; FRAME_HEADER_BYTES]);
            self.last_frame_start = 0;
        }
        let tail = self.pending.len() - self.last_frame_start;
        let cut = self.last_frame_start + (tail / 2).max(1);
        let cut = cut.min(self.pending.len().saturating_sub(1)).max(1);
        let _ = self.file.write_all(&self.pending[..cut]);
        let _ = self.file.flush();
        // Deliberately no sync_data(): the torn bytes may or may not
        // reach disk, exactly like a real crash. abort() skips all
        // destructors and exit handlers.
        std::process::abort()
    }

    fn rotate(&mut self) -> io::Result<()> {
        let _trace = self.tracer.span("ah_wal_writer_rotate");
        self.file.sync_data()?;
        self.seg_bytes = SEGMENT_HEADER_BYTES as u64;
        self.file = open_segment(&self.dir, self.next_seq, false)?;
        self.metrics.rotations.inc();
        Ok(())
    }
}

/// Create segment `base_seq` in `dir`, write and sync its header, and
/// durably record the new file in the directory.
fn open_segment(dir: &Path, base_seq: u64, first: bool) -> io::Result<fs::File> {
    let path = dir.join(segment_file_name(base_seq));
    let mut opts = fs::OpenOptions::new();
    opts.write(true).create_new(true);
    let mut file = match opts.open(&path) {
        Ok(f) => f,
        Err(e) if first && e.kind() == io::ErrorKind::AlreadyExists => {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already exists", path.display()),
            ));
        }
        Err(e) => return Err(e),
    };
    file.write_all(&encode_segment_header(base_seq))?;
    file.sync_data()?;
    sync_dir(dir);
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunSeal;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ah-wal-writer-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seal_rec() -> RunSeal {
        RunSeal { generated: 1, packet_hash: 2 }
    }

    #[test]
    fn create_append_commit() {
        let dir = tmp("basic");
        let rec = Recorder::new();
        let mut w = WalWriter::create(&dir, WalWriterConfig::default(), &rec).unwrap();
        assert_eq!(w.next_seq, 0);
        for _ in 0..10 {
            w.append_payload(b"\x02payload").unwrap();
        }
        assert_eq!(w.next_seq, 10);
        assert_eq!(w.durable_seq(), 0, "group commit threshold not reached");
        w.commit().unwrap();
        assert_eq!(w.durable_seq(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_log() {
        let dir = tmp("exists");
        let rec = Recorder::new();
        let w = WalWriter::create(&dir, WalWriterConfig::default(), &rec).unwrap();
        drop(w);
        let err = WalWriter::create(&dir, WalWriterConfig::default(), &rec).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_produces_multiple_segments() {
        let dir = tmp("rotate");
        let rec = Recorder::new();
        let cfg = WalWriterConfig { group_commit_frames: 4, segment_bytes: 256 };
        let mut w = WalWriter::create(&dir, cfg, &rec).unwrap();
        for _ in 0..64 {
            w.append_payload(&[2u8; 32]).unwrap();
        }
        w.commit().unwrap();
        let segs = segment_paths(&dir).unwrap();
        assert!(segs.len() > 1, "expected rotation, got {} segment(s)", segs.len());
        for pair in segs.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_log_rejects_appends() {
        let dir = tmp("sealed");
        let rec = Recorder::new();
        let mut w = WalWriter::create(&dir, WalWriterConfig::default(), &rec).unwrap();
        w.append_payload(b"\x02payload").unwrap();
        w.seal(seal_rec()).unwrap();
        assert!(w.sealed);
        assert!(w.append_payload(b"\x02x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
