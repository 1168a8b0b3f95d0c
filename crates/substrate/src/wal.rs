//! A generic crash-safe append-only journal (write-ahead log).
//!
//! [`Wal`] knows nothing about what it stores: every record is an
//! opaque payload framed as
//!
//! ```text
//! record := len u32 (LE) | crc u32 (LE) | payload (len bytes)
//! crc    := CRC-32 (IEEE 802.3) over the payload
//! ```
//!
//! so any codec built on [`crate::buf`] can journal itself. The three
//! durability levers a long-running service needs are here:
//!
//! * **fsync policy** ([`SyncPolicy`]) — `Always` fsyncs after every
//!   append (an acked write survives power loss), `EveryN` amortises
//!   the fsync over batches, `Never` leaves flushing to the OS.
//! * **torn-tail repair** ([`scan`] / [`Wal::open`]) — a crash can tear
//!   the final record mid-write; the reader stops at the first record
//!   whose length or CRC does not check out and reports the byte offset
//!   of the valid prefix, and opening for append truncates the file to
//!   that prefix so the tear can never corrupt later records.
//! * **reset** ([`Wal::reset`]) — after a checkpoint makes the log's
//!   contents redundant, the log is truncated so replay time stays
//!   bounded by the checkpoint interval, not by total history.
//!
//! Corruption *before* the tail (a flipped bit in the middle of the
//! log) also stops the scan at the last good record; the scan reports
//! how many bytes were dropped so the caller can warn. This is the
//! deliberate trade of a single-file log: everything before the first
//! bad frame is trusted (CRC-checked), everything after it is not.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::fault::FaultHook;
use crate::metrics::{Counter, HistogramMetric};

/// Optional instrumentation hooks for a [`Wal`]; see
/// [`Wal::set_metrics`]. Detached handles (from a disabled
/// [`crate::metrics::Registry`]) make every hook a no-op.
#[derive(Clone, Default)]
pub struct WalMetrics {
    /// Duration of each [`Wal::append`] in nanoseconds (framing,
    /// write, and any policy-triggered fsync included).
    pub append_duration: HistogramMetric,
    /// Duration of each explicit or policy-triggered fsync in
    /// nanoseconds.
    pub sync_duration: HistogramMetric,
    /// Total journal bytes appended (framing included).
    pub appended_bytes: Counter,
}

/// Deterministic disk-fault hooks for a [`Wal`]; see
/// [`Wal::set_faults`]. Default is inert; a hook is inert unless the
/// plan names its site.
#[derive(Debug, Clone, Default)]
pub struct WalFaults {
    /// Fires *before* a record is written: the append fails cleanly
    /// with an out-of-space style error and the journal is unchanged,
    /// like a full disk rejecting the write.
    pub enospc: FaultHook,
    /// Fires *during* a record write: only a prefix of the record
    /// reaches the file, then the journal is repaired back to the last
    /// whole-record boundary and the append fails — byte-for-byte what
    /// a crash mid-write plus [`Wal::open`]'s torn-tail repair leaves
    /// behind, without restarting the process.
    pub short_write: FaultHook,
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed with
/// a table-free bitwise loop so the substrate stays dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Bytes of framing around every record (length prefix + CRC).
pub const RECORD_OVERHEAD: u64 = 8;

/// When the journal fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append — an acked append survives power loss.
    Always,
    /// fsync after every N appends (and on explicit [`Wal::sync`]).
    EveryN(u32),
    /// Never fsync implicitly; flushing is left to the OS page cache.
    Never,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    /// Parse `always`, `never`, or `every:<n>` (CLI form).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            other => match other.strip_prefix("every:") {
                Some(n) => n
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(SyncPolicy::EveryN)
                    .ok_or_else(|| format!("every:<n> needs a positive integer, got {n:?}")),
                None => Err(format!(
                    "unknown sync policy {other:?} (use always, never, or every:<n>)"
                )),
            },
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            SyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// What a [`scan`] found in a journal file.
#[derive(Debug, Clone, Default)]
pub struct Scan {
    /// Every valid record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (where appends must resume).
    pub valid_len: u64,
    /// Bytes after the valid prefix that did not parse (torn tail or
    /// corruption) and will be dropped by [`Wal::open`].
    pub dropped_bytes: u64,
}

impl Scan {
    /// Whether the file ended with a torn or corrupt region.
    pub fn damaged(&self) -> bool {
        self.dropped_bytes > 0
    }
}

/// Split a byte run into its leading whole, CRC-valid records. Returns
/// the payload slices in append order plus the number of bytes they
/// framed (always a record boundary). The walk stops at the first
/// record whose header overruns the slice, whose length is absurd, or
/// whose CRC mismatches — the remainder (`bytes.len() - consumed`) is a
/// torn tail or corruption from the caller's point of view.
///
/// This is the single framing walk the crate trusts: [`scan`] uses it
/// for crash recovery, and replication uses it to cut a shipping batch
/// at a record boundary on the leader and to verify shipped bytes
/// before applying them on a follower.
pub fn split_records(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset + RECORD_OVERHEAD as usize <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc =
            u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let payload_start = offset + RECORD_OVERHEAD as usize;
        let Some(payload_end) = payload_start.checked_add(len) else {
            break; // length overflows — corrupt header
        };
        if payload_end > bytes.len() {
            break; // torn tail: payload promised but not delivered
        }
        let payload = &bytes[payload_start..payload_end];
        if crc32(payload) != stored_crc {
            break; // bit flip (or a tear that landed inside the CRC)
        }
        records.push(payload);
        offset = payload_end;
    }
    (records, offset)
}

/// Read every valid record of a journal. A missing file is an empty
/// journal, not an error (a fresh shard has simply never logged).
/// The scan stops at the first record whose header overruns the file,
/// whose length is absurd, or whose CRC mismatches — everything before
/// that point is returned, everything after is counted as dropped.
pub fn scan(path: &Path) -> std::io::Result<Scan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Scan::default()),
        Err(e) => return Err(e),
    }
    let mut out = Scan::default();
    let (records, consumed) = split_records(&bytes);
    out.records = records.into_iter().map(<[u8]>::to_vec).collect();
    out.valid_len = consumed as u64;
    out.dropped_bytes = (bytes.len() - consumed) as u64;
    Ok(out)
}

/// Read up to `max` bytes of framed records from the journal file at
/// `path` starting at byte `offset`, trimmed back to the last whole
/// record boundary. This is the leader side of WAL shipping: the
/// caller hands a follower's resume offset (always a boundary, since
/// followers only advance by whole records) and gets a batch that a
/// follower can append verbatim. A missing file yields an empty batch.
pub fn read_records_range(path: &Path, offset: u64, max: usize) -> std::io::Result<Vec<u8>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; max];
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = file.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    buf.truncate(filled);
    let (_, whole) = split_records(&buf);
    buf.truncate(whole);
    Ok(buf)
}

/// An open journal, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    writer: BufWriter<File>,
    path: PathBuf,
    policy: SyncPolicy,
    len: u64,
    appends_since_sync: u32,
    metrics: WalMetrics,
    faults: WalFaults,
}

impl std::fmt::Debug for WalMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalMetrics").finish_non_exhaustive()
    }
}

impl Wal {
    /// Open (creating if absent) a journal for appending, first
    /// truncating any torn or corrupt tail found by [`scan`]. Returns
    /// the repaired journal and what the scan recovered.
    pub fn open(path: &Path, policy: SyncPolicy) -> std::io::Result<(Wal, Scan)> {
        let scanned = scan(path)?;
        // truncate(false): the valid prefix must survive reopening; the
        // torn tail (if any) is cut explicitly via set_len below.
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(false)
            .open(path)?;
        if scanned.damaged() {
            file.set_len(scanned.valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(scanned.valid_len))?;
        Ok((
            Wal {
                writer: BufWriter::new(file),
                path: path.to_path_buf(),
                policy,
                len: scanned.valid_len,
                appends_since_sync: 0,
                metrics: WalMetrics::default(),
                faults: WalFaults::default(),
            },
            scanned,
        ))
    }

    /// Attach instrumentation hooks (default: detached no-ops).
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = metrics;
    }

    /// Attach deterministic disk-fault hooks (default: inert).
    pub fn set_faults(&mut self, faults: WalFaults) {
        self.faults = faults;
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of valid journal (framing included) after the last append.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one record and apply the sync policy. Returns the journal
    /// length after the append.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let timer = self.metrics.append_duration.start();
        let mut header = [0u8; RECORD_OVERHEAD as usize];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        if self.faults.enospc.fire() {
            // Full-disk style rejection: nothing reaches the file, the
            // journal is exactly as it was, the caller sees a clean error.
            drop(timer);
            return Err(std::io::Error::other(
                "injected fault: no space left on journal device",
            ));
        }
        if self.faults.short_write.fire() {
            // Torn write: a prefix of the record lands on disk, then the
            // journal is repaired back to the last whole-record boundary —
            // the state a crash mid-write plus reopen repair would leave.
            self.writer.write_all(&header)?;
            self.writer.write_all(&payload[..payload.len() / 2])?;
            self.writer.flush()?;
            let file = self.writer.get_mut();
            file.set_len(self.len)?;
            file.sync_all()?;
            file.seek(SeekFrom::Start(self.len))?;
            drop(timer);
            return Err(std::io::Error::other(
                "injected fault: short write tore the record (repaired)",
            ));
        }
        self.writer.write_all(&header)?;
        self.writer.write_all(payload)?;
        self.len += RECORD_OVERHEAD + payload.len() as u64;
        self.appends_since_sync += 1;
        self.metrics
            .appended_bytes
            .add(RECORD_OVERHEAD + payload.len() as u64);
        // Every append is handed to the OS immediately (so an in-process
        // rebuild or a post-kill scan sees it); the policy only decides
        // when the kernel is forced to put it on the platter.
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                self.writer.flush()?;
                if self.appends_since_sync >= n {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => self.writer.flush()?,
        }
        drop(timer);
        Ok(self.len)
    }

    /// Flush buffered records and fsync to disk.
    pub fn sync(&mut self) -> std::io::Result<()> {
        let timer = self.metrics.sync_duration.start();
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        self.appends_since_sync = 0;
        drop(timer);
        Ok(())
    }

    /// Truncate the journal to zero length (call after a checkpoint has
    /// made its contents redundant). The truncation is fsynced: a crash
    /// right after a reset must not resurrect pre-checkpoint records.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        let file = self.writer.get_ref();
        file.set_len(0)?;
        file.sync_all()?;
        self.writer.get_mut().seek(SeekFrom::Start(0))?;
        self.len = 0;
        self.appends_since_sync = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("storypivot-subwal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_round_trips_in_order() {
        let path = tmp("roundtrip");
        {
            let (mut wal, scanned) = Wal::open(&path, SyncPolicy::Always).unwrap();
            assert!(scanned.records.is_empty());
            wal.append(b"alpha").unwrap();
            wal.append(b"").unwrap();
            wal.append(&[0xFF; 300]).unwrap();
        }
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 3);
        assert_eq!(scanned.records[0], b"alpha");
        assert_eq!(scanned.records[1], b"");
        assert_eq!(scanned.records[2], vec![0xFF; 300]);
        assert!(!scanned.damaged());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.append(b"keep me").unwrap();
            wal.append(b"torn away").unwrap();
            wal.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut wal, scanned) = Wal::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert!(scanned.damaged());
        // Appending after the repair lands cleanly at the cut point.
        wal.append(b"after repair").unwrap();
        drop(wal);
        let rescanned = scan(&path).unwrap();
        assert_eq!(rescanned.records.len(), 2);
        assert_eq!(rescanned.records[1], b"after repair");
        assert!(!rescanned.damaged());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_last_good_record() {
        let path = tmp("flip");
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"good one").unwrap();
            wal.append(b"bad one").unwrap();
            wal.append(b"unreachable").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside the second record.
        let second_payload = RECORD_OVERHEAD as usize + b"good one".len() + RECORD_OVERHEAD as usize;
        bytes[second_payload] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.records[0], b"good one");
        assert!(scanned.damaged());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_truncates_and_reuses_the_file() {
        let path = tmp("reset");
        let (mut wal, _) = Wal::open(&path, SyncPolicy::EveryN(2)).unwrap();
        wal.append(b"pre-checkpoint").unwrap();
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert_eq!(wal.len(), 0);
        wal.append(b"post-checkpoint").unwrap();
        wal.sync().unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.records[0], b"post-checkpoint");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn split_records_cuts_at_the_last_whole_boundary() {
        let path = tmp("split");
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
            wal.append(b"three").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let (records, consumed) = split_records(&bytes);
        assert_eq!(records, vec![&b"one"[..], b"two", b"three"]);
        assert_eq!(consumed, bytes.len());
        // Any mid-record cut keeps exactly the records before the cut.
        let second_start = RECORD_OVERHEAD as usize + 3;
        for cut in second_start..second_start + RECORD_OVERHEAD as usize + 3 {
            let (records, consumed) = split_records(&bytes[..cut]);
            assert_eq!(records, vec![&b"one"[..]], "cut {cut}");
            assert_eq!(consumed, second_start, "cut {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_records_range_resumes_and_trims() {
        let path = tmp("range");
        {
            let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
            wal.append(b"gamma").unwrap();
        }
        let first_len = RECORD_OVERHEAD as usize + 5;
        // Resume past the first record: the batch holds the rest.
        let batch = read_records_range(&path, first_len as u64, 1 << 20).unwrap();
        let (records, consumed) = split_records(&batch);
        assert_eq!(records, vec![&b"beta"[..], b"gamma"]);
        assert_eq!(consumed, batch.len());
        // A cap that lands mid-record is trimmed to the boundary.
        let tight = read_records_range(&path, 0, first_len + 3).unwrap();
        assert_eq!(tight.len(), first_len);
        // Past the end and missing files both yield empty batches.
        assert!(read_records_range(&path, 1 << 30, 64).unwrap().is_empty());
        assert!(read_records_range(Path::new("/nonexistent/x.wal"), 0, 64).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_scans_as_empty() {
        let scanned = scan(Path::new("/nonexistent/storypivot.wal")).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.valid_len, 0);
    }

    #[test]
    fn metrics_hooks_observe_appends_and_syncs() {
        use crate::metrics::Registry;
        let path = tmp("metrics");
        let registry = Registry::new();
        let metrics = WalMetrics {
            append_duration: registry.histogram("storypivot_wal_append_duration_ns", "append ns"),
            sync_duration: registry.histogram("storypivot_wal_sync_duration_ns", "sync ns"),
            appended_bytes: registry.counter("storypivot_wal_appended_bytes_total", "bytes"),
        };
        let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
        wal.set_metrics(metrics.clone());
        wal.append(b"abcd").unwrap();
        wal.append(b"").unwrap();
        assert_eq!(metrics.append_duration.count(), 2);
        // Always-policy appends fsync inline, plus nothing extra.
        assert_eq!(metrics.sync_duration.count(), 2);
        assert_eq!(
            metrics.appended_bytes.get(),
            2 * RECORD_OVERHEAD + b"abcd".len() as u64
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_faults_fail_the_append_but_never_corrupt_the_journal() {
        use crate::fault::FaultPlan;
        let path = tmp("faults");
        let plan = FaultPlan::parse("seed=3,wal_enospc=250,wal_short=250").unwrap();
        let (mut wal, _) = Wal::open(&path, SyncPolicy::Always).unwrap();
        wal.set_faults(WalFaults {
            enospc: plan.hook("wal_enospc", 0),
            short_write: plan.hook("wal_short", 0),
        });
        let mut landed: Vec<Vec<u8>> = Vec::new();
        let mut failures = 0u32;
        for i in 0..200u32 {
            let payload = format!("record-{i}").into_bytes();
            // Retry until the record lands, like a caller would.
            loop {
                match wal.append(&payload) {
                    Ok(_) => break,
                    Err(_) => failures += 1,
                }
            }
            landed.push(payload);
        }
        assert!(failures > 0, "a 25%+25% plan must fire within 200 appends");
        drop(wal);
        // Every acked record survives, in order, with nothing torn: the
        // scan sees exactly the landed set and no damage.
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records, landed);
        assert!(!scanned.damaged(), "short-write repair must leave whole records");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_policy_parses_from_cli_strings() {
        assert_eq!("always".parse::<SyncPolicy>().unwrap(), SyncPolicy::Always);
        assert_eq!("never".parse::<SyncPolicy>().unwrap(), SyncPolicy::Never);
        assert_eq!("every:64".parse::<SyncPolicy>().unwrap(), SyncPolicy::EveryN(64));
        assert!("every:0".parse::<SyncPolicy>().is_err());
        assert!("sometimes".parse::<SyncPolicy>().is_err());
        assert_eq!(SyncPolicy::EveryN(8).to_string(), "every:8");
    }
}
