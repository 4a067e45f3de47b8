//! On-disk column segments: materialized snapshots and cold reopen.
//!
//! [`Storage::materialize_table`](crate::Storage::materialize_table) writes
//! the current master snapshot of a table to a directory as one *segment
//! file per column* plus a small text manifest, and registers the result in
//! a [`FileStore`] so the real-file I/O device
//! ([`scanshare_iosim::FileIoDevice`]) can serve page reads off disk.
//!
//! # Segment layout
//!
//! Every page of a column occupies one fixed-size *slot* of
//! `align_up(tuples_per_page * 8, 4096)` bytes at offset
//! `page_index * slot_bytes`: values are stored as 8-byte little-endian
//! `i64`s (the engine's universal value representation) with zero padding up
//! to the slot boundary. Slots are 4096-byte (block) aligned, and
//! `Snapshot::page` maps to a `(file, offset)` pair by simple arithmetic. A
//! 4096-byte footer block after the last slot records a magic number, the
//! page count and the slot size so a cold open can sanity-check the file
//! against the manifest.
//!
//! # Manifest
//!
//! The manifest (`<table>.manifest`) is a whitespace-separated text file
//! listing the table spec (page size, chunk granularity, stable tuples,
//! column names/types/widths) and, per column, the ordered [`PageId`]s the
//! snapshot was materialized with. Recording the page ids verbatim is what
//! makes a cold reopen ([`crate::Storage::open_directory`]) transparent: the
//! reopened snapshot references the *same* page ids, so buffer-manager state
//! and I/O traces are comparable across the round trip.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use scanshare_common::sync::{Mutex, RwLock};
use scanshare_common::{Error, PageId, Result};
use scanshare_iosim::PageReader;

use crate::column::{ColumnSpec, ColumnType};
use crate::datagen::Value;
use crate::layout::TableLayout;
use crate::snapshot::Snapshot;
use crate::storage::Storage;
use crate::zone::ZoneEntry;

/// Slot (and footer) alignment in bytes: one filesystem block.
pub const SEGMENT_ALIGN: u64 = 4096;

/// Magic bytes opening every segment footer block.
const FOOTER_MAGIC: &[u8; 8] = b"SSEGv1\0\0";

/// First line of every table manifest.
const MANIFEST_HEADER: &str = "scanshare-table-manifest v1";

/// Default capacity (in pages) of the decoded-page cache a [`FileStore`]
/// keeps so a page read by the I/O device is decoded once, not once per
/// consumer or per re-read: a device read of a cached page moves its bytes
/// but skips the decode.
const DEFAULT_CACHE_PAGES: usize = 1024;

fn align_up(n: u64, align: u64) -> u64 {
    n.div_ceil(align) * align
}

/// Bytes of one page slot of column `col`: the full 8-byte value payload of
/// a page, rounded up to [`SEGMENT_ALIGN`].
pub fn slot_bytes(layout: &TableLayout, col: usize) -> u64 {
    align_up(layout.tuples_per_page(col) * 8, SEGMENT_ALIGN)
}

fn segment_file_name(table: &str, col: usize, version: u64) -> String {
    format!("{table}_col{col}.v{version}.seg")
}

pub(crate) fn manifest_file_name(table: &str) -> String {
    format!("{table}.manifest")
}

/// Fsyncs a directory so a just-renamed file inside it is durable.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

fn validate_name(kind: &str, name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(Error::config(format!(
            "{kind} name {name:?} cannot be materialized: segment file names allow only \
             ASCII alphanumerics, '_' and '-'"
        )))
    }
}

fn type_token(t: &ColumnType) -> String {
    match t {
        ColumnType::Int64 => "int64".to_string(),
        ColumnType::Decimal => "decimal".to_string(),
        ColumnType::Date => "date".to_string(),
        ColumnType::Dict { cardinality } => format!("dict:{cardinality}"),
        ColumnType::Varchar { avg_len } => format!("varchar:{avg_len}"),
    }
}

fn parse_type_token(token: &str) -> Result<ColumnType> {
    let bad = || Error::io(format!("manifest: unknown column type {token:?}"));
    match token {
        "int64" => Ok(ColumnType::Int64),
        "decimal" => Ok(ColumnType::Decimal),
        "date" => Ok(ColumnType::Date),
        other => {
            let (kind, arg) = other.split_once(':').ok_or_else(bad)?;
            match kind {
                "dict" => Ok(ColumnType::Dict {
                    cardinality: arg.parse().map_err(|_| bad())?,
                }),
                "varchar" => Ok(ColumnType::Varchar {
                    avg_len: arg.parse().map_err(|_| bad())?,
                }),
                _ => Err(bad()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Writes the segment files and manifest for `snapshot` into `dir`,
/// replacing any previous materialization of the same table. Values are
/// pulled through [`Storage::read_page`], so whatever the snapshot would
/// serve in memory (generated base data, appended pages, checkpoint images)
/// is exactly what lands on disk.
///
/// The write is *crash-atomic*: segments land in fresh `.v<N>.seg` files
/// (the previous version's files are never modified), each is fsynced, and
/// the manifest — the single commit point — is written to a temp file,
/// fsynced, renamed over `<table>.manifest` and the directory fsynced. A
/// crash anywhere in between leaves the previous manifest pointing at the
/// previous, untouched segment files; orphaned new-version segments are
/// overwritten by the next materialization. `wal_seq` records the WAL
/// sequence number this image covers, so recovery can skip commit records
/// the image already contains. Returns the version number written.
pub(crate) fn write_table(
    storage: &Storage,
    layout: &TableLayout,
    snapshot: &Snapshot,
    dir: &Path,
    wal_seq: u64,
) -> Result<u64> {
    let table_name = &layout.spec().name;
    validate_name("table", table_name)?;
    for col in &layout.spec().columns {
        validate_name("column", &col.name)?;
    }
    fs::create_dir_all(dir)?;

    // The previous durable version, if any, fixes the new version number
    // and tells us which files to clean up once the new image is durable.
    let manifest_path = dir.join(manifest_file_name(table_name));
    let previous = match fs::read_to_string(&manifest_path) {
        Ok(text) => parse_manifest(&manifest_path, &text).ok(),
        Err(_) => None,
    };
    let version = previous.as_ref().map_or(1, |m| m.version + 1);

    for col in 0..layout.column_count() {
        let slot = slot_bytes(layout, col);
        let path = dir.join(segment_file_name(table_name, col, version));
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut writer = BufWriter::new(file);
        let pages = snapshot.column_pages(col).len() as u64;
        let mut slot_buf = vec![0u8; slot as usize];
        for page_index in 0..pages {
            let data = storage.read_page(layout, snapshot, col, page_index)?;
            let needed = data.values.len() * 8;
            if needed as u64 > slot {
                return Err(Error::internal(format!(
                    "page {} of {table_name}.{col} holds {} values but the slot is {slot} bytes",
                    data.page,
                    data.values.len()
                )));
            }
            slot_buf.fill(0);
            for (i, v) in data.values.iter().enumerate() {
                slot_buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            writer.write_all(&slot_buf)?;
        }
        // Footer block: magic, page count, slot bytes, value width.
        let mut footer = vec![0u8; SEGMENT_ALIGN as usize];
        footer[0..8].copy_from_slice(FOOTER_MAGIC);
        footer[8..16].copy_from_slice(&pages.to_le_bytes());
        footer[16..24].copy_from_slice(&slot.to_le_bytes());
        footer[24..32].copy_from_slice(&8u64.to_le_bytes());
        writer.write_all(&footer)?;
        writer
            .into_inner()
            .map_err(|e| e.into_error())?
            .sync_all()?;
    }

    let mut manifest = String::new();
    manifest.push_str(MANIFEST_HEADER);
    manifest.push('\n');
    manifest.push_str(&format!("table {table_name}\n"));
    manifest.push_str(&format!("table_id {}\n", snapshot.table().raw()));
    manifest.push_str(&format!("version {version}\n"));
    manifest.push_str(&format!("wal_seq {wal_seq}\n"));
    manifest.push_str(&format!("page_size {}\n", layout.page_size_bytes()));
    manifest.push_str(&format!("chunk_tuples {}\n", layout.chunk_tuples()));
    manifest.push_str(&format!("stable_tuples {}\n", snapshot.stable_tuples()));
    manifest.push_str(&format!("snapshot {}\n", snapshot.id().raw()));
    manifest.push_str(&format!("columns {}\n", layout.column_count()));
    let zone_map = snapshot.zone_map();
    for (idx, col) in layout.spec().columns.iter().enumerate() {
        manifest.push_str(&format!(
            "column {idx} {} {} {}\n",
            col.name,
            type_token(&col.column_type),
            col.bytes_per_tuple
        ));
        manifest.push_str(&format!("pages {idx}"));
        for page in snapshot.column_pages(idx) {
            manifest.push_str(&format!(" {}", page.raw()));
        }
        manifest.push('\n');
        // Persist the snapshot's zone metadata (min/max pairs per chunk) so
        // a cold reopen keeps pruning exactly like the engine that wrote
        // this image.
        if let Some(entries) = zone_map.and_then(|z| z.entries().get(idx)) {
            manifest.push_str(&format!("zones {idx}"));
            for e in entries {
                manifest.push_str(&format!(" {} {}", e.min, e.max));
            }
            manifest.push('\n');
        }
    }
    // Atomic manifest install: temp file, fsync, rename, fsync directory.
    // The rename is the commit point; a crash before it leaves the previous
    // manifest (pointing at the previous version's segments) authoritative.
    let tmp_path = dir.join(format!("{table_name}.manifest.tmp"));
    {
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(manifest.as_bytes())?;
        tmp.sync_all()?;
    }
    fs::rename(&tmp_path, &manifest_path)?;
    fsync_dir(dir)?;
    // Only now is it safe to drop the previous version's segment files.
    if let Some(old) = previous {
        for col in 0..old.columns.len() {
            let _ = fs::remove_file(dir.join(segment_file_name(&old.name, col, old.version)));
        }
    }
    Ok(version)
}

// ---------------------------------------------------------------------------
// Manifest parsing (cold reopen)
// ---------------------------------------------------------------------------

/// Everything a manifest records about one materialized table.
#[derive(Debug, Clone)]
pub(crate) struct ManifestTable {
    pub name: String,
    /// The table id the image was materialized under, when recorded.
    /// Reopening restores tables in id order so WAL records — which
    /// reference tables by id — resolve to the same tables after recovery.
    pub table_id: Option<u32>,
    /// Materialization version; segment files are `<name>_col<i>.v<version>.seg`.
    pub version: u64,
    /// WAL sequence number this durable image covers: commit records with a
    /// per-table sequence at or below this are already folded into the
    /// segments and must be skipped during recovery.
    pub wal_seq: u64,
    pub page_size: u64,
    pub chunk_tuples: u64,
    pub stable_tuples: u64,
    pub columns: Vec<ColumnSpec>,
    pub column_pages: Vec<Vec<PageId>>,
    /// Per-column per-chunk min/max zone entries, empty when the image was
    /// written without zone metadata (older manifests stay readable).
    pub zones: Vec<Vec<ZoneEntry>>,
}

fn parse_manifest(path: &Path, text: &str) -> Result<ManifestTable> {
    let ctx = |msg: String| Error::io(format!("{}: {msg}", path.display()));
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(MANIFEST_HEADER) {
        return Err(ctx("not a scanshare table manifest".to_string()));
    }
    let mut name = None;
    let mut table_id = None;
    let mut version = 1u64;
    let mut wal_seq = 0u64;
    let mut page_size = None;
    let mut chunk_tuples = None;
    let mut stable_tuples = None;
    let mut columns: Vec<ColumnSpec> = Vec::new();
    let mut column_pages: Vec<Vec<PageId>> = Vec::new();
    let mut zones: Vec<Vec<ZoneEntry>> = Vec::new();
    for line in lines {
        let mut fields = line.split_whitespace();
        let Some(key) = fields.next() else { continue };
        match key {
            "table" => name = fields.next().map(str::to_string),
            "table_id" => {
                table_id = Some(
                    fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| ctx("malformed table_id line".to_string()))?,
                );
            }
            "version" => {
                version = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ctx("malformed version line".to_string()))?;
            }
            "wal_seq" => {
                wal_seq = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ctx("malformed wal_seq line".to_string()))?;
            }
            "page_size" => page_size = fields.next().and_then(|v| v.parse().ok()),
            "chunk_tuples" => chunk_tuples = fields.next().and_then(|v| v.parse().ok()),
            "stable_tuples" => stable_tuples = fields.next().and_then(|v| v.parse().ok()),
            "snapshot" | "columns" => {}
            "column" => {
                let idx: usize = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ctx("malformed column line".to_string()))?;
                if idx != columns.len() {
                    return Err(ctx(format!("column {idx} out of order")));
                }
                let col_name = fields
                    .next()
                    .ok_or_else(|| ctx("column line missing name".to_string()))?;
                let ty = parse_type_token(
                    fields
                        .next()
                        .ok_or_else(|| ctx("column line missing type".to_string()))?,
                )?;
                let width: f64 = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ctx("column line missing width".to_string()))?;
                columns.push(ColumnSpec::with_width(col_name, ty, width));
            }
            "pages" => {
                let idx: usize = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ctx("malformed pages line".to_string()))?;
                if idx != column_pages.len() {
                    return Err(ctx(format!("pages {idx} out of order")));
                }
                let ids: Option<Vec<PageId>> = fields
                    .map(|v| v.parse::<u64>().ok().map(PageId::new))
                    .collect();
                column_pages
                    .push(ids.ok_or_else(|| ctx("pages line holds a non-numeric id".to_string()))?);
            }
            "zones" => {
                let idx: usize = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ctx("malformed zones line".to_string()))?;
                if idx != zones.len() {
                    return Err(ctx(format!("zones {idx} out of order")));
                }
                let nums: Vec<i64> = fields
                    .map(|v| v.parse::<i64>())
                    .collect::<std::result::Result<_, _>>()
                    .map_err(|_| ctx("zones line holds a non-numeric bound".to_string()))?;
                if nums.len() % 2 != 0 {
                    return Err(ctx("zones line holds an odd number of bounds".to_string()));
                }
                zones.push(
                    nums.chunks_exact(2)
                        .map(|pair| ZoneEntry {
                            min: pair[0],
                            max: pair[1],
                        })
                        .collect(),
                );
            }
            other => return Err(ctx(format!("unknown manifest key {other:?}"))),
        }
    }
    let name = name.ok_or_else(|| ctx("missing table name".to_string()))?;
    if columns.is_empty() || columns.len() != column_pages.len() {
        return Err(ctx(format!(
            "{} column specs but {} page lists",
            columns.len(),
            column_pages.len()
        )));
    }
    if !zones.is_empty()
        && (zones.len() != columns.len() || zones.windows(2).any(|w| w[0].len() != w[1].len()))
    {
        return Err(ctx(
            "zone entries must cover every column with equal chunk counts".to_string(),
        ));
    }
    Ok(ManifestTable {
        name,
        table_id,
        version,
        wal_seq,
        page_size: page_size.ok_or_else(|| ctx("missing page_size".to_string()))?,
        chunk_tuples: chunk_tuples.ok_or_else(|| ctx("missing chunk_tuples".to_string()))?,
        stable_tuples: stable_tuples.ok_or_else(|| ctx("missing stable_tuples".to_string()))?,
        columns,
        column_pages,
        zones,
    })
}

/// Reads every `*.manifest` in `dir`, ordered by recorded table id (file
/// name breaks ties and orders manifests from before table ids were
/// recorded), so a reopen assigns every table the id its WAL records
/// reference.
pub(crate) fn read_manifests(dir: &Path) -> Result<Vec<ManifestTable>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "manifest"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        out.push(parse_manifest(&path, &text)?);
    }
    out.sort_by(|a, b| {
        let key = |m: &ManifestTable| m.table_id.map_or(u64::from(u32::MAX) + 1, u64::from);
        key(a).cmp(&key(b)).then_with(|| a.name.cmp(&b.name))
    });
    Ok(out)
}

// ---------------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------------

/// Where one page lives on disk.
#[derive(Debug, Clone, Copy)]
struct PageSlot {
    segment: usize,
    offset: u64,
    slot_bytes: u64,
    value_count: usize,
}

#[derive(Debug, Default)]
struct FileMap {
    /// One open segment file per (table, column).
    segments: Vec<File>,
    /// (table name, column index) → index into `segments`; re-materializing
    /// a table replaces its entries in place.
    seg_index: HashMap<(String, usize), usize>,
    /// Pages registered per table, so a re-materialization can drop stale
    /// slots.
    table_pages: HashMap<String, Vec<PageId>>,
    pages: HashMap<PageId, PageSlot>,
}

#[derive(Debug)]
struct DecodeCache {
    map: HashMap<PageId, Arc<Vec<Value>>>,
    order: VecDeque<PageId>,
    capacity: usize,
}

impl DecodeCache {
    fn insert(&mut self, page: PageId, values: Arc<Vec<Value>>) {
        if self.map.insert(page, values).is_none() {
            self.order.push_back(page);
        }
        while self.map.len() > self.capacity {
            let Some(evict) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&evict);
        }
    }

    fn remove(&mut self, page: PageId) {
        if self.map.remove(&page).is_some() {
            self.order.retain(|p| *p != page);
        }
    }
}

/// Maps [`PageId`]s to on-disk segment slots and serves positional page
/// reads — the storage side of the real-file I/O backend.
///
/// The store implements [`scanshare_iosim::PageReader`], so an
/// [`scanshare_iosim::FileIoDevice`] built over it performs real `pread`s
/// against the segment files, each into a per-thread slot buffer reused
/// across reads. Decoded pages land in a small bounded FIFO cache that
/// [`Storage::read_page`] consults before falling back to its own
/// synchronous read, so data correctness never depends on the device having
/// read a page first. A page id names one immutable page (re-registering a
/// table evicts its ids), so a read of a page the cache holds skips the
/// decode.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    map: RwLock<FileMap>,
    cache: Mutex<DecodeCache>,
}

impl FileStore {
    /// Creates an empty store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            map: RwLock::new(FileMap::default()),
            cache: Mutex::new(DecodeCache {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity: DEFAULT_CACHE_PAGES,
            }),
        }
    }

    /// The directory the segment files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Registers (or replaces) the mapping for one materialized table. The
    /// segment files of the given materialization version must already
    /// exist on disk.
    pub(crate) fn register_table(
        &self,
        layout: &TableLayout,
        snapshot: &Snapshot,
        version: u64,
    ) -> Result<()> {
        let table_name = layout.spec().name.clone();
        let mut map = self.map.write();
        // Drop any previous registration of this table.
        if let Some(old_pages) = map.table_pages.remove(&table_name) {
            let mut cache = self.cache.lock();
            for page in old_pages {
                map.pages.remove(&page);
                cache.remove(page);
            }
        }
        let mut registered = Vec::new();
        for col in 0..layout.column_count() {
            let segment = File::open(self.dir.join(segment_file_name(&table_name, col, version)))?;
            let seg_idx = match map.seg_index.get(&(table_name.clone(), col)) {
                Some(&idx) => {
                    map.segments[idx] = segment;
                    idx
                }
                None => {
                    map.segments.push(segment);
                    let idx = map.segments.len() - 1;
                    map.seg_index.insert((table_name.clone(), col), idx);
                    idx
                }
            };
            let slot = slot_bytes(layout, col);
            for (page_index, &page) in snapshot.column_pages(col).iter().enumerate() {
                let sid_range =
                    layout.sid_range_of_page(col, page_index as u64, snapshot.stable_tuples());
                map.pages.insert(
                    page,
                    PageSlot {
                        segment: seg_idx,
                        offset: page_index as u64 * slot,
                        slot_bytes: slot,
                        value_count: sid_range.len() as usize,
                    },
                );
                registered.push(page);
            }
        }
        map.table_pages.insert(table_name, registered);
        Ok(())
    }

    /// The decoded values of `page`, if it was recently read off disk.
    pub fn cached_page(&self, page: PageId) -> Option<Arc<Vec<Value>>> {
        self.cache.lock().map.get(&page).cloned()
    }

    /// Decoded values of a file-backed page: served from the decode cache
    /// when possible, otherwise read synchronously off disk. `None` means
    /// the page is not backed by this store (it lives in memory — appended
    /// or checkpointed after the last materialization).
    pub fn page_values(&self, page: PageId) -> std::io::Result<Option<Arc<Vec<Value>>>> {
        if let Some(values) = self.cached_page(page) {
            return Ok(Some(values));
        }
        let Some((values, _)) = self.read_and_decode(page)? else {
            return Ok(None);
        };
        Ok(Some(values))
    }

    /// Reads the slot of `page` off disk and decodes it, returning the
    /// values and the bytes transferred. `None` if the page is not mapped.
    /// The slot is read into a per-thread buffer reused across reads; a page
    /// the cache already holds is read but not decoded again.
    fn read_and_decode(&self, page: PageId) -> std::io::Result<Option<(Arc<Vec<Value>>, u64)>> {
        thread_local! {
            static SLOT: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        let map = self.map.read();
        let Some(slot) = map.pages.get(&page).copied() else {
            return Ok(None);
        };
        let len = slot.slot_bytes as usize;
        SLOT.with_borrow_mut(|buf| {
            if buf.len() < len {
                buf.resize(len, 0);
            }
            let buf = &mut buf[..len];
            pread_exact(&map.segments[slot.segment], buf, slot.offset)?;
            if let Some(values) = self.cached_page(page) {
                return Ok(Some((values, slot.slot_bytes)));
            }
            let values: Vec<Value> = buf[..slot.value_count * 8]
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                .collect();
            let values = Arc::new(values);
            self.cache.lock().insert(page, Arc::clone(&values));
            Ok(Some((values, slot.slot_bytes)))
        })
    }
}

impl PageReader for FileStore {
    /// Device-side read: always performs the disk transfer (the buffer
    /// manager asked for a load, so the bytes must move), then parks the
    /// decoded values in the cache for [`Storage::read_page`] to pick up,
    /// unless the cache already holds them.
    /// Pages that are not file-backed read as zero bytes — they live in
    /// memory (appended or checkpointed after the last materialization), so
    /// no disk transfer is needed to serve them.
    fn read_page(&self, page: PageId) -> std::io::Result<u64> {
        match self.read_and_decode(page)? {
            Some((_, bytes)) => Ok(bytes),
            None => Ok(0),
        }
    }
}

/// Positional read of exactly `buf.len()` bytes at `offset`.
fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        let _ = (file, buf, offset);
        Err(std::io::Error::other(
            "positional segment reads require a unix platform",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::DataGen;
    use crate::table::TableSpec;
    use std::sync::atomic::{AtomicU32, Ordering};

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique, self-cleaning temp directory (zero-dep stand-in for the
    /// tempfile crate).
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let seq = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("scanshare-seg-{tag}-{}-{seq}", std::process::id()));
            fs::create_dir_all(&path).unwrap();
            Self(path)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_storage() -> (Arc<Storage>, scanshare_common::TableId) {
        let storage = Storage::with_seed(1024, 500, 11);
        let spec = TableSpec::new(
            "seg_t",
            vec![
                ColumnSpec::with_width("a", ColumnType::Int64, 8.0),
                ColumnSpec::with_width("b", ColumnType::Dict { cardinality: 16 }, 0.5),
            ],
            1000,
        );
        let id = storage
            .create_table_with_data(
                spec,
                vec![
                    DataGen::Sequential { start: 0, step: 3 },
                    DataGen::Uniform { min: 0, max: 15 },
                ],
            )
            .unwrap();
        (storage, id)
    }

    #[test]
    fn slot_bytes_are_aligned_and_hold_a_page() {
        let (storage, id) = sample_storage();
        let layout = storage.layout(id).unwrap();
        for col in 0..layout.column_count() {
            let slot = slot_bytes(&layout, col);
            assert_eq!(slot % SEGMENT_ALIGN, 0);
            assert!(slot >= layout.tuples_per_page(col) * 8);
        }
    }

    #[test]
    fn materialize_writes_segments_footer_and_manifest() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("write");
        storage.materialize_table(id, &dir.0).unwrap();
        let layout = storage.layout(id).unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        for col in 0..layout.column_count() {
            let path = dir.0.join(segment_file_name("seg_t", col, 1));
            let bytes = fs::read(&path).unwrap();
            let pages = snap.column_pages(col).len() as u64;
            let slot = slot_bytes(&layout, col);
            assert_eq!(bytes.len() as u64, pages * slot + SEGMENT_ALIGN);
            let footer = &bytes[(pages * slot) as usize..];
            assert_eq!(&footer[0..8], FOOTER_MAGIC);
            assert_eq!(u64::from_le_bytes(footer[8..16].try_into().unwrap()), pages);
        }
        let manifest = fs::read_to_string(dir.0.join("seg_t.manifest")).unwrap();
        assert!(manifest.starts_with(MANIFEST_HEADER));
        let parsed = read_manifests(&dir.0).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "seg_t");
        assert_eq!(parsed[0].stable_tuples, 1000);
        assert_eq!(
            parsed[0].column_pages[0],
            snap.column_pages(0).to_vec(),
            "manifest records the snapshot's page ids verbatim"
        );
    }

    #[test]
    fn file_store_reads_match_the_in_memory_values() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("read");
        let store = storage.materialize_table(id, &dir.0).unwrap();
        let layout = storage.layout(id).unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        for col in 0..layout.column_count() {
            for (idx, &page) in snap.column_pages(col).iter().enumerate() {
                let expected = storage.read_page(&layout, &snap, col, idx as u64).unwrap();
                let bytes = store.read_page(page).unwrap();
                assert_eq!(bytes, slot_bytes(&layout, col));
                let got = store.cached_page(page).expect("read decodes into cache");
                assert_eq!(*got, *expected.values);
            }
        }
    }

    #[test]
    fn rereads_move_their_bytes_but_decode_a_page_once() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("reread");
        let store = storage.materialize_table(id, &dir.0).unwrap();
        let layout = storage.layout(id).unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        for col in 0..layout.column_count() {
            let slot = slot_bytes(&layout, col);
            for &page in snap.column_pages(col) {
                assert_eq!(store.read_page(page).unwrap(), slot);
                let first = store.cached_page(page).expect("read decodes into cache");
                assert_eq!(
                    store.read_page(page).unwrap(),
                    slot,
                    "a re-read moves its bytes"
                );
                let second = store.cached_page(page).unwrap();
                assert!(
                    Arc::ptr_eq(&first, &second),
                    "a cached page is decoded once"
                );
            }
        }
        // Re-registering the table evicts its pages, and reads decode the
        // new segments.
        let again = storage.materialize_table(id, &dir.0).unwrap();
        assert!(Arc::ptr_eq(&store, &again));
        for col in 0..layout.column_count() {
            for (idx, &page) in snap.column_pages(col).iter().enumerate() {
                assert!(store.cached_page(page).is_none(), "re-registration evicts");
                let expected = storage.read_page(&layout, &snap, col, idx as u64).unwrap();
                assert_eq!(store.read_page(page).unwrap(), slot_bytes(&layout, col));
                assert_eq!(*store.cached_page(page).unwrap(), *expected.values);
            }
        }
    }

    #[test]
    fn unmapped_pages_read_as_zero_bytes() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("unmapped");
        let store = storage.materialize_table(id, &dir.0).unwrap();
        assert_eq!(store.read_page(PageId::new(999_999)).unwrap(), 0);
        assert!(store.page_values(PageId::new(999_999)).unwrap().is_none());
    }

    #[test]
    fn decode_cache_is_bounded() {
        let mut cache = DecodeCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: 2,
        };
        for i in 0..5u64 {
            cache.insert(PageId::new(i), Arc::new(vec![i as i64]));
        }
        assert_eq!(cache.map.len(), 2);
        assert!(cache.map.contains_key(&PageId::new(4)));
        assert!(!cache.map.contains_key(&PageId::new(0)));
    }

    #[test]
    fn cold_reopen_preserves_page_ids_and_values() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("reopen");
        storage.materialize_table(id, &dir.0).unwrap();
        let layout = storage.layout(id).unwrap();
        let snap = storage.master_snapshot(id).unwrap();

        let reopened = Storage::open_directory(&dir.0).unwrap();
        let rid = reopened.table_by_name("seg_t").unwrap().id;
        let rlayout = reopened.layout(rid).unwrap();
        let rsnap = reopened.master_snapshot(rid).unwrap();
        assert!(
            snap.same_pages(&rsnap),
            "reopened snapshot references the manifest's page ids verbatim"
        );
        assert_eq!(rsnap.stable_tuples(), snap.stable_tuples());
        for col in 0..layout.column_count() {
            assert_eq!(rlayout.tuples_per_page(col), layout.tuples_per_page(col));
            for idx in 0..snap.column_pages(col).len() as u64 {
                let a = storage.read_page(&layout, &snap, col, idx).unwrap();
                let b = reopened.read_page(&rlayout, &rsnap, col, idx).unwrap();
                assert_eq!(*a.values, *b.values, "column {col} page {idx}");
                assert_eq!(a.page, b.page);
            }
        }
        // Appending to the reopened table never collides with on-disk ids.
        let mut tx = reopened.begin_append(rid).unwrap();
        tx.append_rows(&[vec![7], vec![3]]).unwrap();
        let appended = tx.commit().unwrap();
        let max_disk = snap.pages().map(PageId::raw).max().unwrap();
        for page in appended.pages() {
            if snap.pages().all(|old| old != page) {
                assert!(page.raw() > max_disk, "fresh page {page} collides");
            }
        }
    }

    #[test]
    fn rematerialization_bumps_version_and_drops_old_segments() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("version");
        storage.materialize_table(id, &dir.0).unwrap();
        assert!(dir.0.join(segment_file_name("seg_t", 0, 1)).exists());
        storage.materialize_table(id, &dir.0).unwrap();
        let parsed = read_manifests(&dir.0).unwrap();
        assert_eq!(parsed[0].version, 2);
        assert!(dir.0.join(segment_file_name("seg_t", 0, 2)).exists());
        assert!(
            !dir.0.join(segment_file_name("seg_t", 0, 1)).exists(),
            "previous version is cleaned up once the new manifest is durable"
        );
        // The reopened storage reads the new version's files.
        let reopened = Storage::open_directory(&dir.0).unwrap();
        let rid = reopened.table_by_name("seg_t").unwrap().id;
        assert!(reopened.master_snapshot(rid).is_ok());
    }

    #[test]
    fn manifest_records_wal_seq() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("walseq");
        let snap = storage.master_snapshot(id).unwrap();
        storage
            .materialize_snapshot_logged(&snap, &dir.0, 42)
            .unwrap();
        let parsed = read_manifests(&dir.0).unwrap();
        assert_eq!(parsed[0].wal_seq, 42);
        let reopened = Storage::open_directory(&dir.0).unwrap();
        let rid = reopened.table_by_name("seg_t").unwrap().id;
        assert_eq!(reopened.durable_wal_seq(rid), 42);
    }

    #[test]
    fn leftover_manifest_tmp_is_ignored_on_reopen() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("tmpleft");
        storage.materialize_table(id, &dir.0).unwrap();
        // A crash between the temp write and the rename leaves a .tmp file.
        fs::write(dir.0.join("seg_t.manifest.tmp"), "torn garbage").unwrap();
        let reopened = Storage::open_directory(&dir.0).unwrap();
        assert!(reopened.table_by_name("seg_t").is_ok());
    }

    #[test]
    fn open_directory_rejects_empty_and_garbled_dirs() {
        let dir = TestDir::new("empty");
        assert!(Storage::open_directory(&dir.0).is_err());
        fs::write(dir.0.join("junk.manifest"), "not a manifest\n").unwrap();
        assert!(Storage::open_directory(&dir.0).is_err());
    }

    #[test]
    fn type_tokens_round_trip() {
        for ty in [
            ColumnType::Int64,
            ColumnType::Decimal,
            ColumnType::Date,
            ColumnType::Dict { cardinality: 37 },
            ColumnType::Varchar { avg_len: 12 },
        ] {
            assert_eq!(parse_type_token(&type_token(&ty)).unwrap(), ty);
        }
        assert!(parse_type_token("blob").is_err());
        assert!(parse_type_token("dict:abc").is_err());
    }

    #[test]
    fn zone_metadata_round_trips_through_the_manifest() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("zones");
        storage.materialize_table(id, &dir.0).unwrap();
        let snap = storage.master_snapshot(id).unwrap();
        let zones = snap.zone_map().expect("base table has zones");
        let manifest = fs::read_to_string(dir.0.join("seg_t.manifest")).unwrap();
        assert!(manifest.contains("\nzones 0 "), "manifest persists zones");

        let reopened = Storage::open_directory(&dir.0).unwrap();
        let rid = reopened.table_by_name("seg_t").unwrap().id;
        let rsnap = reopened.master_snapshot(rid).unwrap();
        let rzones = rsnap.zone_map().expect("cold reopen restores zones");
        assert_eq!(zones.entries(), rzones.entries());
    }

    #[test]
    fn manifests_without_zones_stay_readable_and_zoneless() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("nozones");
        storage.materialize_table(id, &dir.0).unwrap();
        // Strip the zones lines, as an older engine would have written.
        let path = dir.0.join("seg_t.manifest");
        let stripped: String = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("zones "))
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&path, stripped).unwrap();
        let reopened = Storage::open_directory(&dir.0).unwrap();
        let rid = reopened.table_by_name("seg_t").unwrap().id;
        let rsnap = reopened.master_snapshot(rid).unwrap();
        assert!(rsnap.zone_map().is_none());
    }

    #[test]
    fn partial_zone_coverage_is_rejected() {
        let (storage, id) = sample_storage();
        let dir = TestDir::new("partialzones");
        storage.materialize_table(id, &dir.0).unwrap();
        let path = dir.0.join("seg_t.manifest");
        // Keep zones for column 0 only: the manifest becomes inconsistent.
        let mut seen = false;
        let broken: String = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter(|l| {
                if l.starts_with("zones ") && seen {
                    return false;
                }
                if l.starts_with("zones ") {
                    seen = true;
                }
                true
            })
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&path, broken).unwrap();
        assert!(Storage::open_directory(&dir.0).is_err());
    }

    #[test]
    fn hostile_names_are_rejected() {
        let storage = Storage::with_seed(1024, 500, 1);
        let spec = TableSpec::new(
            "evil/../name",
            vec![ColumnSpec::new("a", ColumnType::Int64)],
            10,
        );
        let id = storage.create_table(spec).unwrap();
        let dir = TestDir::new("hostile");
        let err = storage.materialize_table(id, &dir.0).unwrap_err();
        assert!(err.to_string().contains("segment file names"));
    }
}
