//! Write-ahead log: checksummed record framing, group commit and
//! torn-tail truncation.
//!
//! The WAL is a single append-only file (`wal.log`) in the engine's
//! durability directory. Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [kind: u8] [body: len-1 bytes]
//! ```
//!
//! where `len` counts the kind byte plus the body and `crc` is the CRC-32
//! (IEEE) of exactly those bytes. A record is *valid* only if the frame is
//! complete, the checksum matches and the kind byte is known; the first
//! invalid record ends the log — everything after a torn write is
//! unreachable, and [`Wal::open`] truncates the file back to the valid
//! prefix so new appends never land behind garbage.
//!
//! Three record kinds exist: `Commit` carries the serialized per-table
//! write sets of one transaction commit (encoded by `scanshare-pdt`),
//! `CheckpointBegin`/`CheckpointEnd` bracket a checkpoint's segment
//! materialization so recovery can tell a completed checkpoint from a torn
//! one (the atomically-renamed manifest is the real commit point; the
//! markers make the WAL self-describing and are validated by the
//! failure-injection tests).
//!
//! # Pre-extended file
//!
//! The file is grown ahead of the log in extents of `EXTENT` zero bytes,
//! each written out and synced before a frame lands in it, and every frame
//! is a positional write at the log's end. A commit's `fdatasync` thus
//! overwrites blocks the file already owns and never has to make a new
//! file size or block map durable, which costs a journal commit on most
//! file systems. The extent is written rather than sized with `set_len`,
//! which would leave holes that the first write must still allocate. A
//! zero length word cannot start a frame, so the zero tail reads as the
//! end of the log, exactly as a torn tail does; [`Wal::open`] truncates it
//! away with the torn tail, and a rotated log starts unextended.
//!
//! # Group commit
//!
//! [`Wal::commit_sync`] amortizes `fsync` over a window of `group_commit`
//! commits: the sync is skipped while fewer than `group_commit` records
//! have accumulated since the last durable point. A crash can therefore
//! lose up to `group_commit - 1` of the most recent commits — always a
//! *consistent prefix*, never a torn state. With the default window of 1
//! every commit is individually durable before it is acknowledged. When
//! several threads reach the sync point together a single leader performs
//! the `fsync` while the others wait on a condvar and piggyback on its
//! durable point.

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use scanshare_common::{Error, Result, TableId};

/// File name of the write-ahead log inside the durability directory.
pub const WAL_FILE_NAME: &str = "wal.log";

/// Frame header bytes: 4-byte length + 4-byte checksum.
const FRAME_HEADER: usize = 8;

/// Zero bytes the file grows by when a frame would cross its end.
const EXTENT: u64 = 1 << 20;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) of `bytes` —
/// the checksum guarding every WAL frame. Hand-rolled so the workspace
/// stays dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What one WAL record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordKind {
    /// A transaction commit: the body holds the serialized per-table
    /// write sets (see `scanshare-pdt`'s WAL codec).
    Commit,
    /// A checkpoint started materializing a new durable image for one
    /// table; the body names the table and the commit sequence the image
    /// will cover.
    CheckpointBegin,
    /// The checkpoint's new image is durable (manifest renamed) and
    /// installed.
    CheckpointEnd,
}

/// The kind byte of the rotation marker: the first frame of a rotated log,
/// whose body holds the cumulative count of records dropped by all
/// rotations so far. Never returned by [`Wal::read_records`]: the parser
/// folds it into the sequence-number base so global record numbering stays
/// monotonic across rotations.
const ROTATE: u8 = 4;

impl WalRecordKind {
    fn to_byte(self) -> u8 {
        match self {
            WalRecordKind::Commit => 1,
            WalRecordKind::CheckpointBegin => 2,
            WalRecordKind::CheckpointEnd => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(WalRecordKind::Commit),
            2 => Some(WalRecordKind::CheckpointBegin),
            3 => Some(WalRecordKind::CheckpointEnd),
            _ => None,
        }
    }
}

/// One verified record read back from the log.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The record kind.
    pub kind: WalRecordKind,
    /// The record body (kind-specific encoding).
    pub body: Vec<u8>,
}

/// Encodes the body of a checkpoint begin/end marker.
pub fn encode_marker(table: TableId, seq: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    body.extend_from_slice(&(table.raw() as u64).to_le_bytes());
    body.extend_from_slice(&seq.to_le_bytes());
    body
}

/// Decodes the body of a checkpoint begin/end marker.
pub fn decode_marker(body: &[u8]) -> Result<(TableId, u64)> {
    if body.len() != 16 {
        return Err(Error::WalCorrupt(format!(
            "checkpoint marker body is {} bytes, expected 16",
            body.len()
        )));
    }
    let raw = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let table = u32::try_from(raw)
        .map_err(|_| Error::WalCorrupt(format!("checkpoint marker table id {raw} overflows")))?;
    let seq = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    Ok((TableId::new(table), seq))
}

#[derive(Debug)]
struct SyncState {
    /// Bytes of complete frames written so far: where the next frame goes
    /// (and where a failed partial append is rolled back to).
    len: u64,
    /// Bytes the file holds, `len` plus a synced zero tail.
    allocated: u64,
    /// Records appended so far.
    appended: u64,
    /// Records covered by the last successful fsync.
    synced: u64,
    /// Whether a leader is currently inside `fsync`.
    syncing: bool,
}

fn lock(m: &Mutex<SyncState>) -> MutexGuard<'_, SyncState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_file(f: &RwLock<File>) -> RwLockReadGuard<'_, File> {
    f.read().unwrap_or_else(|e| e.into_inner())
}

/// The append side of the write-ahead log (see the module docs for the
/// format and durability semantics).
#[derive(Debug)]
pub struct Wal {
    /// Behind a read-write lock so [`Wal::rotate`] can atomically swap the
    /// handle for the rewritten file; appends and syncs take read access.
    file: RwLock<File>,
    dir: PathBuf,
    path: PathBuf,
    group_commit: usize,
    /// Rotations performed by this handle.
    rotated: AtomicU64,
    state: Mutex<SyncState>,
    cond: Condvar,
}

impl Wal {
    /// Opens (creating if needed) the WAL in `dir`, truncating any torn
    /// tail left by a crash so new appends extend the valid prefix.
    /// `group_commit` is the fsync window (see [`Wal::commit_sync`]).
    pub fn open(dir: &Path, group_commit: usize) -> Result<Self> {
        if group_commit == 0 {
            return Err(Error::config("wal group_commit must be at least 1"));
        }
        fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, base, valid_len) = parse_records(&bytes);
        if (valid_len as u64) < bytes.len() as u64 {
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        // Make the file's directory entry durable (first open creates it).
        fsync_dir_best_effort(dir);
        let appended = base + records.len() as u64;
        Ok(Self {
            file: RwLock::new(file),
            dir: dir.to_path_buf(),
            path,
            group_commit,
            rotated: AtomicU64::new(0),
            state: Mutex::new(SyncState {
                len: valid_len as u64,
                allocated: valid_len as u64,
                appended,
                synced: appended,
                syncing: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Reads every verified record of the WAL in `dir`, silently ignoring
    /// a torn tail. An absent file reads as an empty log.
    pub fn read_records(dir: &Path) -> Result<Vec<WalRecord>> {
        let path: PathBuf = dir.join(WAL_FILE_NAME);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let (records, _, _) = parse_records(&bytes);
        Ok(records)
    }

    /// Appends one record without syncing, returning its (1-based) global
    /// sequence number. A frame that would cross the file's end first grows
    /// the file by a synced zero extent. A failed partial write is rolled
    /// back so later appends never land behind garbage.
    fn append(&self, kind: WalRecordKind, body: &[u8]) -> Result<u64> {
        let frame = encode_frame(kind.to_byte(), body);
        let mut st = lock(&self.state);
        let file = read_file(&self.file);
        if let Err(e) = write_frame(&file, &mut st, &frame) {
            // Roll the file back to the last complete frame.
            let _ = file.set_len(st.len);
            st.allocated = st.len;
            return Err(e.into());
        }
        st.len += frame.len() as u64;
        st.appended += 1;
        Ok(st.appended)
    }

    /// Appends a commit record (no fsync; pair with [`Wal::commit_sync`]).
    /// Callers serialize their appends in commit order — the engine holds
    /// the per-table commit locks across this call so the log order always
    /// matches the per-table commit-sequence order.
    pub fn append_commit(&self, body: &[u8]) -> Result<u64> {
        self.append(WalRecordKind::Commit, body)
    }

    /// Makes the commit record `seq` durable subject to group commit: the
    /// fsync is skipped while fewer than `group_commit` records have
    /// accumulated since the last durable point (delayed durability — a
    /// crash loses at most `group_commit - 1` trailing commits).
    pub fn commit_sync(&self, seq: u64) -> Result<()> {
        {
            let st = lock(&self.state);
            if st.synced >= seq || (st.appended - st.synced) < self.group_commit as u64 {
                return Ok(());
            }
        }
        self.sync_to(seq)
    }

    /// Appends a checkpoint begin/end marker and makes it (and everything
    /// before it) durable immediately — markers never participate in group
    /// commit.
    pub fn append_marker(&self, kind: WalRecordKind, table: TableId, seq: u64) -> Result<()> {
        let at = self.append(kind, &encode_marker(table, seq))?;
        self.sync_to(at)
    }

    /// Fsyncs everything appended so far (engine shutdown, tests).
    pub fn sync_all(&self) -> Result<()> {
        let target = lock(&self.state).appended;
        self.sync_to(target)
    }

    /// Rotates the log: drops every record for which `covered` returns
    /// `true` (it is folded into a durable image and no longer needed for
    /// recovery) and rewrites the file crash-atomically — surviving records
    /// land in a temp file behind a `Rotate` marker carrying the cumulative
    /// dropped count, the temp file is fsynced and renamed over the log, and
    /// the directory fsynced. A crash at any point leaves either the old or
    /// the new file intact, never a mix. Returns the number of records
    /// dropped (0 means the file was left untouched).
    ///
    /// Global sequence numbers are preserved: the `Rotate` marker's base
    /// keeps [`Wal::appended`] monotonic across the rewrite, so group-commit
    /// accounting and callers holding sequence numbers are unaffected.
    pub fn rotate(&self, mut covered: impl FnMut(&WalRecord) -> bool) -> Result<u64> {
        // Hold the state lock for the whole rewrite so no append or sync
        // interleaves; wait out any in-flight fsync leader first.
        let mut st = lock(&self.state);
        while st.syncing {
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let bytes = fs::read(&self.path)?;
        let (records, base, _) = parse_records(&bytes);
        let (dropped, kept): (Vec<_>, Vec<_>) = records.into_iter().partition(&mut covered);
        if dropped.is_empty() {
            return Ok(0);
        }
        let new_base = base + dropped.len() as u64;
        let mut out = encode_frame(ROTATE, &new_base.to_le_bytes());
        for record in &kept {
            out.extend_from_slice(&encode_frame(record.kind.to_byte(), &record.body));
        }
        let tmp_path = self.dir.join(format!("{WAL_FILE_NAME}.tmp"));
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&out)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &self.path)?;
        fsync_dir_best_effort(&self.dir);
        // Swap the append handle onto the new file, which holds no extent
        // yet: the next append grows it.
        let fresh = OpenOptions::new().read(true).write(true).open(&self.path)?;
        *self.file.write().unwrap_or_else(|e| e.into_inner()) = fresh;
        st.len = out.len() as u64;
        st.allocated = st.len;
        st.appended = new_base + kept.len() as u64;
        st.synced = st.appended;
        self.rotated.fetch_add(1, Ordering::Relaxed);
        Ok(dropped.len() as u64)
    }

    /// Number of rotations this handle has performed.
    pub fn wal_rotated(&self) -> u64 {
        self.rotated.load(Ordering::Relaxed)
    }

    /// Records appended so far.
    pub fn appended(&self) -> u64 {
        lock(&self.state).appended
    }

    /// Records covered by the last successful fsync.
    pub fn synced(&self) -> u64 {
        lock(&self.state).synced
    }

    /// Leader/follower sync: one thread performs the fsync for everything
    /// appended so far while concurrent callers wait and piggyback.
    fn sync_to(&self, target: u64) -> Result<()> {
        let mut st = lock(&self.state);
        loop {
            if st.synced >= target {
                return Ok(());
            }
            if st.syncing {
                st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            st.syncing = true;
            let upto = st.appended;
            drop(st);
            let res = read_file(&self.file).sync_data();
            st = lock(&self.state);
            st.syncing = false;
            if res.is_ok() {
                st.synced = st.synced.max(upto);
            }
            self.cond.notify_all();
            res?;
        }
    }
}

/// Writes `frame` at the log's end, first growing the file by a synced
/// extent of zeros when the frame would cross the file's end.
fn write_frame(file: &File, st: &mut SyncState, frame: &[u8]) -> std::io::Result<()> {
    let end = st.len + frame.len() as u64;
    if end > st.allocated {
        let grow = (end - st.allocated).max(EXTENT);
        pwrite_all(file, &vec![0; grow as usize], st.allocated)?;
        file.sync_data()?;
        st.allocated += grow;
    }
    pwrite_all(file, frame, st.len)
}

/// Writes all of `buf` at `offset` without moving the file cursor.
fn pwrite_all(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        let _ = (file, buf, offset);
        Err(std::io::Error::other(
            "positional log writes require a unix platform",
        ))
    }
}

/// Splits `bytes` into verified records, the sequence-number base (records
/// dropped by earlier rotations, from a leading `Rotate` record) and the
/// length of the valid prefix; parsing stops at the first incomplete or
/// corrupt frame. `Rotate` records are folded into the base, never returned.
fn parse_records(bytes: &[u8]) -> (Vec<WalRecord>, u64, usize) {
    let mut records = Vec::new();
    let mut base = 0u64;
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len == 0 {
            break;
        }
        let Some(payload) = bytes.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        if payload[0] == ROTATE {
            if payload.len() == 9 {
                base = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
            }
        } else {
            let Some(kind) = WalRecordKind::from_byte(payload[0]) else {
                break;
            };
            records.push(WalRecord {
                kind,
                body: payload[1..].to_vec(),
            });
        }
        pos += FRAME_HEADER + len;
    }
    (records, base, pos)
}

/// Encodes one record frame (length, checksum, kind byte, body).
fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(kind);
    payload.extend_from_slice(body);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn fsync_dir_best_effort(dir: &Path) {
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let seq = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("scanshare-wal-{tag}-{}-{seq}", std::process::id()));
            fs::create_dir_all(&path).unwrap();
            Self(path)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let dir = TestDir::new("roundtrip");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"first").unwrap();
        wal.commit_sync(1).unwrap();
        wal.append_marker(WalRecordKind::CheckpointBegin, TableId::new(3), 7)
            .unwrap();
        wal.append_marker(WalRecordKind::CheckpointEnd, TableId::new(3), 7)
            .unwrap();
        drop(wal);

        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, WalRecordKind::Commit);
        assert_eq!(records[0].body, b"first");
        assert_eq!(records[1].kind, WalRecordKind::CheckpointBegin);
        assert_eq!(
            decode_marker(&records[1].body).unwrap(),
            (TableId::new(3), 7)
        );
        assert_eq!(records[2].kind, WalRecordKind::CheckpointEnd);

        // Reopening appends after the existing records.
        let wal = Wal::open(&dir.0, 1).unwrap();
        assert_eq!(wal.appended(), 3);
        wal.append_commit(b"second").unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3].body, b"second");
    }

    /// End of the last frame of the log in `dir`, summed from the records
    /// read back (a header, a kind byte and the body each): the file runs on
    /// past it in zeros. A log that was never rotated holds no other frame.
    fn log_end(dir: &Path) -> usize {
        Wal::read_records(dir)
            .unwrap()
            .iter()
            .map(|r| FRAME_HEADER + 1 + r.body.len())
            .sum()
    }

    fn file_len(dir: &Path) -> u64 {
        fs::metadata(dir.join(WAL_FILE_NAME)).unwrap().len()
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated() {
        let dir = TestDir::new("torn");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"keep me").unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let path = dir.0.join(WAL_FILE_NAME);
        let kept = log_end(&dir.0);
        let full = fs::read(&path).unwrap()[..kept].to_vec();

        // A torn write: append a record then chop off its last byte.
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"torn").unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let long = fs::read(&path).unwrap();
        let cut = log_end(&dir.0) - 1;
        assert!(cut > kept, "the cut lands inside the last frame");
        fs::write(&path, &long[..cut]).unwrap();

        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 1, "torn final record is discarded");
        assert_eq!(records[0].body, b"keep me");

        // Open truncates the file back to the valid prefix...
        let wal = Wal::open(&dir.0, 1).unwrap();
        assert_eq!(wal.appended(), 1);
        assert_eq!(fs::read(&path).unwrap(), full);
        // ...and new appends extend it cleanly.
        wal.append_commit(b"after").unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].body, b"after");
    }

    #[test]
    fn reopening_over_a_zero_tail_appends_after_the_last_frame() {
        let dir = TestDir::new("zero-tail");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"first").unwrap();
        drop(wal);
        let first = log_end(&dir.0);
        assert_eq!(
            file_len(&dir.0),
            EXTENT,
            "one extent: the frame, then zeros"
        );

        let wal = Wal::open(&dir.0, 1).unwrap();
        assert_eq!(wal.appended(), 1);
        wal.append_commit(b"second").unwrap();
        drop(wal);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].body, b"second");
        let bytes = fs::read(dir.0.join(WAL_FILE_NAME)).unwrap();
        assert_eq!(
            bytes[first + FRAME_HEADER..log_end(&dir.0)],
            *b"\x01second",
            "the second frame starts where the first ends"
        );
    }

    #[test]
    fn a_frame_torn_inside_the_extent_ends_the_log_at_the_previous_frame() {
        let dir = TestDir::new("torn-extent");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"keep me").unwrap();
        let kept = log_end(&dir.0);
        wal.append_commit(b"torn").unwrap();
        drop(wal);
        // A write that reached the disk only partly: the frame's last bytes
        // are still the extent's zeros, and the file keeps its length.
        let path = dir.0.join(WAL_FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        let end = log_end(&dir.0);
        bytes[end - 3..end].fill(0);
        fs::write(&path, &bytes).unwrap();

        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].body, b"keep me");
        let wal = Wal::open(&dir.0, 1).unwrap();
        assert_eq!(wal.appended(), 1);
        assert_eq!(file_len(&dir.0), kept as u64, "open truncates to the frame");
        wal.append_commit(b"after").unwrap();
        drop(wal);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].body, b"after");
    }

    #[test]
    fn frames_past_one_extent_round_trip() {
        let dir = TestDir::new("extents");
        let wal = Wal::open(&dir.0, 4).unwrap();
        // Small frames across an extent boundary, then one frame larger
        // than an extent.
        let mut bodies: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 64 << 10]).collect();
        bodies.push(vec![0xab; EXTENT as usize + 4096]);
        for body in &bodies {
            wal.append_commit(body).unwrap();
        }
        wal.sync_all().unwrap();
        drop(wal);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), bodies.len());
        assert!(records.iter().zip(&bodies).all(|(r, b)| r.body == *b));
        assert!(log_end(&dir.0) as u64 > 2 * EXTENT);
        assert!(file_len(&dir.0) >= log_end(&dir.0) as u64);
    }

    #[test]
    fn rotation_leaves_no_extent_and_the_next_append_extends_again() {
        let dir = TestDir::new("rotate-extent");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"old").unwrap();
        wal.append_commit(b"new").unwrap();
        assert_eq!(wal.rotate(|r| r.body == b"old").unwrap(), 1);
        // The Rotate marker (a header, a kind byte and an 8-byte base) and
        // the kept frame, no zeros.
        let rotated = (FRAME_HEADER + 9 + log_end(&dir.0)) as u64;
        assert_eq!(file_len(&dir.0), rotated);
        wal.append_commit(b"newer").unwrap();
        assert_eq!(file_len(&dir.0), rotated + EXTENT);
        drop(wal);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].body, b"newer");
    }

    #[test]
    fn corrupt_checksum_ends_the_log() {
        let dir = TestDir::new("crc");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"one").unwrap();
        wal.append_commit(b"two").unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        let path = dir.0.join(WAL_FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the first record's body.
        let idx = FRAME_HEADER + 1;
        bytes[idx] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let records = Wal::read_records(&dir.0).unwrap();
        assert!(
            records.is_empty(),
            "a corrupt record hides everything after it"
        );
    }

    #[test]
    fn group_commit_defers_the_fsync() {
        let dir = TestDir::new("group");
        let wal = Wal::open(&dir.0, 3).unwrap();
        let s1 = wal.append_commit(b"a").unwrap();
        wal.commit_sync(s1).unwrap();
        assert_eq!(wal.synced(), 0, "below the window: no fsync yet");
        let s2 = wal.append_commit(b"b").unwrap();
        wal.commit_sync(s2).unwrap();
        assert_eq!(wal.synced(), 0);
        let s3 = wal.append_commit(b"c").unwrap();
        wal.commit_sync(s3).unwrap();
        assert_eq!(wal.synced(), 3, "window filled: one fsync covers all");
        // Markers always sync immediately.
        let s4 = wal.append_commit(b"d").unwrap();
        wal.commit_sync(s4).unwrap();
        assert_eq!(wal.synced(), 3);
        wal.append_marker(WalRecordKind::CheckpointBegin, TableId::new(1), 0)
            .unwrap();
        assert_eq!(wal.synced(), 5);
    }

    #[test]
    fn marker_decode_rejects_malformed_bodies() {
        assert!(decode_marker(b"short").is_err());
        let mut body = encode_marker(TableId::new(1), 2);
        body.push(0);
        assert!(decode_marker(&body).is_err());
        let huge = (u32::MAX as u64 + 1).to_le_bytes();
        let mut body = huge.to_vec();
        body.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_marker(&body).is_err());
    }

    #[test]
    fn zero_group_commit_is_rejected() {
        let dir = TestDir::new("zero");
        assert!(Wal::open(&dir.0, 0).is_err());
    }

    #[test]
    fn missing_wal_reads_as_empty() {
        let dir = TestDir::new("missing");
        assert!(Wal::read_records(&dir.0).unwrap().is_empty());
    }

    #[test]
    fn rotation_drops_covered_records_and_preserves_sequence_numbers() {
        let dir = TestDir::new("rotate");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"old-1").unwrap();
        wal.append_commit(b"old-2").unwrap();
        wal.append_marker(WalRecordKind::CheckpointEnd, TableId::new(1), 2)
            .unwrap();
        wal.append_commit(b"new-1").unwrap();
        wal.sync_all().unwrap();
        assert_eq!(wal.appended(), 4);

        let dropped = wal
            .rotate(|r| r.kind != WalRecordKind::Commit || r.body.starts_with(b"old"))
            .unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(wal.wal_rotated(), 1);
        assert_eq!(wal.appended(), 4, "sequence numbers survive rotation");
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].body, b"new-1");

        // Appends continue with the pre-rotation numbering, and a reopen
        // reconstructs the same counts from the Rotate marker's base.
        assert_eq!(wal.append_commit(b"new-2").unwrap(), 5);
        wal.sync_all().unwrap();
        drop(wal);
        let reopened = Wal::open(&dir.0, 1).unwrap();
        assert_eq!(reopened.appended(), 5);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].body, b"new-2");

        // A second rotation stacks its base on top of the first.
        reopened.rotate(|r| r.body == b"new-1").unwrap();
        drop(reopened);
        let again = Wal::open(&dir.0, 1).unwrap();
        assert_eq!(again.appended(), 5);
        assert_eq!(Wal::read_records(&dir.0).unwrap().len(), 1);
    }

    #[test]
    fn rotation_with_nothing_covered_leaves_the_file_untouched() {
        let dir = TestDir::new("rotate-noop");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"keep").unwrap();
        wal.sync_all().unwrap();
        let before = fs::read(dir.0.join(WAL_FILE_NAME)).unwrap();
        assert_eq!(wal.rotate(|_| false).unwrap(), 0);
        assert_eq!(wal.wal_rotated(), 0);
        assert_eq!(fs::read(dir.0.join(WAL_FILE_NAME)).unwrap(), before);
    }

    #[test]
    fn leftover_rotation_tmp_is_harmless() {
        let dir = TestDir::new("rotate-tmp");
        let wal = Wal::open(&dir.0, 1).unwrap();
        wal.append_commit(b"a").unwrap();
        wal.sync_all().unwrap();
        // A crash between the tmp write and the rename leaves a .tmp file;
        // it must not shadow the real log.
        fs::write(dir.0.join(format!("{WAL_FILE_NAME}.tmp")), b"garbage").unwrap();
        drop(wal);
        let records = Wal::read_records(&dir.0).unwrap();
        assert_eq!(records.len(), 1);
        let wal = Wal::open(&dir.0, 1).unwrap();
        assert_eq!(wal.appended(), 1);
    }
}
