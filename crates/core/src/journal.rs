//! Durable subscription journal: a checksummed, length-prefixed WAL of
//! subscribe/unsubscribe/recompile operations plus epoch-consistent
//! registry snapshots with log truncation.
//!
//! The journal persists the **mutable layer** of the two-layer broker —
//! the [`SubscriptionRegistry`] — because everything else the publish
//! path reads is a deterministic compile of it. Recovery therefore
//! replays `snapshot + WAL tail` into a restored registry (dead slots
//! preserved, so handle numbering is identical) and runs **one** engine
//! compile, which by the recompile-parity property is bit-identical to a
//! live broker that called `recompile()` at the recovery point.
//!
//! # On-disk format
//!
//! Both files live in one journal directory:
//!
//! * `wal.bin` — a sequence of records, each
//!   `[u32 LE payload_len][u32 LE crc32(payload)][payload]`. The payload
//!   is one operation: tag byte `1` (subscribe: handle, node, dims, and
//!   per-dimension `f64` corner bits), `2` (unsubscribe: handle) or `3`
//!   (recompile, no fields).
//! * `snapshot.bin` — a 4-byte magic followed by one record-framed
//!   registry image (node count, next slot, live entries). Written to a
//!   temporary file and atomically renamed, so a crash never leaves a
//!   half-written snapshot; the WAL is truncated only after the rename.
//!
//! # Torn-write analysis
//!
//! A crash can leave the WAL with (a) a partial header, (b) a complete
//! header but a short payload, or (c) a complete record whose payload
//! was torn mid-write (checksum mismatch). Replay stops cleanly at the
//! first such record, counts it as truncated, and resuming truncates the
//! file back to the valid prefix — an op is recovered iff its record was
//! fully written, which is exactly the append-after-apply, ack-after-
//! append contract: **acked control ops are exactly-once, the single op
//! in flight at the crash is at-most-once**.
//!
//! A crash can also land *between* the snapshot rename and the WAL
//! truncation, leaving a snapshot that already folded the records still
//! sitting in the WAL. Recovery handles that window by replaying
//! idempotently: handles are never reused, so a subscribe whose handle
//! is below the restored `next_slot`, or an unsubscribe of an
//! already-dead handle, is a stale record the snapshot absorbed — it is
//! skipped and counted (`RecoveryCounters::stale_ops`), never an error.
//!
//! # Durability scope
//!
//! With the default [`JournalConfig::sync_writes`] (on), every append
//! is `fsync`ed (`sync_data`) before the caller acks, the snapshot file
//! is synced before the rename, and the journal directory is synced
//! after it — acked ops survive OS crashes and power loss, not just
//! process death. Turning `sync_writes` off relaxes appends to
//! page-cache durability: acked ops then survive any *process*-level
//! kill (the crash model the chaos tests exercise) but an OS crash may
//! drop the most recent acks. Benchmarks use the relaxed mode where
//! journal setup cost would otherwise dominate.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pubsub_geom::{Interval, Rect};
use pubsub_netsim::NodeId;

use crate::registry::SubscriptionRegistry;
use crate::BrokerError;

/// WAL file name inside the journal directory.
const WAL_FILE: &str = "wal.bin";
/// Snapshot file name inside the journal directory.
const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary snapshot name; renamed over [`SNAPSHOT_FILE`] atomically.
const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Snapshot magic: `PSJ1`.
const SNAPSHOT_MAGIC: [u8; 4] = *b"PSJ1";

const TAG_SUBSCRIBE: u8 = 1;
const TAG_UNSUBSCRIBE: u8 = 2;
const TAG_RECOMPILE: u8 = 3;

fn io_err(context: &str, e: &std::io::Error) -> BrokerError {
    BrokerError::Journal {
        message: format!("{context}: {e}"),
    }
}

fn corrupt(context: impl Into<String>) -> BrokerError {
    BrokerError::Journal {
        message: context.into(),
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `data`. Implemented in-crate —
/// journal records are control-plane sized, so the bitwise form is fast
/// enough and avoids a dependency.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One durable control-plane operation, as journaled.
#[derive(Clone, PartialEq, Debug)]
pub enum JournalOp {
    /// A subscription was registered under `handle`.
    Subscribe {
        /// The raw handle the registry issued (slot index).
        handle: u32,
        /// The owning node's raw id.
        node: u32,
        /// The registered (pre-clamp) rectangle.
        rect: Rect,
    },
    /// The subscription at `handle` was removed.
    Unsubscribe {
        /// The raw handle that was removed.
        handle: u32,
    },
    /// A full engine recompile ran. Replay treats this as a no-op — the
    /// recovery compile already folds every surviving subscription — but
    /// journaling it keeps the op stream a faithful history.
    Recompile,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BrokerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| corrupt("journal payload shorter than its fields"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, BrokerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, BrokerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn u8(&mut self) -> Result<u8, BrokerError> {
        Ok(self.take(1)?[0])
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

fn put_sides(buf: &mut Vec<u8>, sides: &[Interval]) {
    put_u32(buf, sides.len() as u32);
    for side in sides {
        put_u64(buf, side.lo().to_bits());
        put_u64(buf, side.hi().to_bits());
    }
}

fn read_rect(cur: &mut Cursor<'_>) -> Result<Rect, BrokerError> {
    let dims = cur.u32()? as usize;
    if dims == 0 || dims > 1 << 16 {
        return Err(corrupt(format!("journal rect has {dims} dimensions")));
    }
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        lo.push(f64::from_bits(cur.u64()?));
        hi.push(f64::from_bits(cur.u64()?));
    }
    Rect::from_corners(&lo, &hi)
        .map_err(|e| corrupt(format!("journal rect failed validation: {e}")))
}

impl JournalOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            JournalOp::Subscribe { handle, node, rect } => {
                buf.push(TAG_SUBSCRIBE);
                put_u32(buf, *handle);
                put_u32(buf, *node);
                put_sides(buf, rect.sides());
            }
            JournalOp::Unsubscribe { handle } => {
                buf.push(TAG_UNSUBSCRIBE);
                put_u32(buf, *handle);
            }
            JournalOp::Recompile => buf.push(TAG_RECOMPILE),
        }
    }

    fn decode(payload: &[u8]) -> Result<JournalOp, BrokerError> {
        let mut cur = Cursor::new(payload);
        let op = match cur.u8()? {
            TAG_SUBSCRIBE => JournalOp::Subscribe {
                handle: cur.u32()?,
                node: cur.u32()?,
                rect: read_rect(&mut cur)?,
            },
            TAG_UNSUBSCRIBE => JournalOp::Unsubscribe { handle: cur.u32()? },
            TAG_RECOMPILE => JournalOp::Recompile,
            other => return Err(corrupt(format!("unknown journal op tag {other}"))),
        };
        if !cur.done() {
            return Err(corrupt("journal op payload has trailing bytes"));
        }
        Ok(op)
    }
}

/// A registry image as stored in `snapshot.bin`: enough to rebuild the
/// [`SubscriptionRegistry`] with identical handle numbering (dead slots
/// stay dead, so removed handles stay invalid after recovery).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RegistryImage {
    /// Node count of the topology the registry was created for.
    pub node_count: u32,
    /// Next slot the registry would issue (total handles ever issued).
    pub next_slot: u32,
    /// Live subscriptions: (raw handle, raw node, registered rect), in
    /// handle order.
    pub live: Vec<(u32, u32, Rect)>,
}

impl RegistryImage {
    /// Captures the image of a live registry.
    pub fn capture(registry: &SubscriptionRegistry) -> Self {
        RegistryImage {
            node_count: registry.node_capacity() as u32,
            next_slot: registry.issued() as u32,
            live: registry
                .live()
                .map(|(h, n, sides)| {
                    let rect = Rect::new(sides.to_vec()).expect("a registered rect has sides");
                    (h.raw(), n.0, rect)
                })
                .collect(),
        }
    }

    /// The image's snapshot payload: the test oracle of
    /// [`DurableJournal::write_snapshot`], which encodes the registry
    /// directly.
    #[cfg(test)]
    fn encode(&self, buf: &mut Vec<u8>) {
        let live = self.live.iter().map(|(h, n, r)| (*h, *n, r.sides()));
        encode_image(buf, self.node_count, self.next_slot, self.live.len(), live);
    }

    fn decode(payload: &[u8]) -> Result<RegistryImage, BrokerError> {
        let mut cur = Cursor::new(payload);
        let node_count = cur.u32()?;
        let next_slot = cur.u32()?;
        let count = cur.u32()? as usize;
        if count > next_slot as usize {
            return Err(corrupt("snapshot live count exceeds issued slots"));
        }
        // Each entry takes at least a handle, a node and a
        // one-dimensional rect (dims + lo + hi): a count the payload
        // cannot hold is corrupt, and must not size the allocation.
        if count > cur.remaining() / (4 + 4 + 4 + 16) {
            return Err(corrupt("snapshot live count exceeds its payload"));
        }
        let mut live = Vec::with_capacity(count);
        for _ in 0..count {
            let handle = cur.u32()?;
            let node = cur.u32()?;
            let rect = read_rect(&mut cur)?;
            live.push((handle, node, rect));
        }
        if !cur.done() {
            return Err(corrupt("snapshot payload has trailing bytes"));
        }
        Ok(RegistryImage {
            node_count,
            next_slot,
            live,
        })
    }

    /// Rebuilds a registry of `dims`-dimensional rectangles from the
    /// image.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Journal`] if the image is internally inconsistent
    /// (out-of-range handles or nodes, duplicate handles);
    /// [`BrokerError::DimensionMismatch`] for a rectangle that is not
    /// `dims`-dimensional.
    pub fn restore(&self, dims: usize) -> Result<SubscriptionRegistry, BrokerError> {
        SubscriptionRegistry::restore(
            self.node_count as usize,
            dims,
            self.next_slot,
            self.live.iter().map(|(h, n, r)| (*h, NodeId(*n), r)),
        )
    }
}

/// The snapshot payload of a registry image: node count, next slot,
/// then each live entry's handle, node and sides.
fn encode_image<'a>(
    buf: &mut Vec<u8>,
    node_count: u32,
    next_slot: u32,
    count: usize,
    live: impl Iterator<Item = (u32, u32, &'a [Interval])>,
) {
    buf.clear();
    put_u32(buf, node_count);
    put_u32(buf, next_slot);
    put_u32(buf, count as u32);
    for (handle, node, sides) in live {
        put_u32(buf, handle);
        put_u32(buf, node);
        put_sides(buf, sides);
    }
}

/// The snapshot payload of `registry`, encoded straight from its rows:
/// the bytes of `RegistryImage::capture(registry)`'s encoding, without
/// the image.
fn encode_registry(buf: &mut Vec<u8>, registry: &SubscriptionRegistry) {
    let live = registry.live().map(|(h, n, sides)| (h.raw(), n.0, sides));
    encode_image(
        buf,
        registry.node_capacity() as u32,
        registry.issued() as u32,
        registry.len(),
        live,
    );
}

/// What [`DurableJournal::resume`] found on disk: the last snapshot (if
/// any), the valid WAL tail after it, and how many trailing records were
/// torn and discarded.
#[derive(Debug)]
pub struct JournalReplay {
    /// The last durable registry snapshot; `None` for a journal that
    /// never snapshotted (replay starts from an empty registry).
    pub image: Option<RegistryImage>,
    /// Operations journaled after the snapshot, in append order.
    pub tail: Vec<JournalOp>,
    /// Torn/corrupt trailing records discarded by replay (at most the
    /// single record in flight at the crash, unless the file was
    /// damaged).
    pub truncated_records: u64,
}

/// Statistics the journal keeps about itself, surfaced through
/// `MetricsSnapshot::recovery` after a recovery.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct JournalStats {
    /// Operations appended since open.
    pub appended_ops: u64,
    /// Snapshots written since open.
    pub snapshots: u64,
}

/// Where a journal lives and how often it snapshots. Passed to
/// `BrokerBuilder::journal`.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    dir: PathBuf,
    snapshot_every: u64,
    sync_writes: bool,
}

impl JournalConfig {
    /// A journal in `dir` (created if missing) snapshotting every 4096
    /// appended operations, with synced writes (see
    /// [`JournalConfig::sync_writes`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            snapshot_every: 4096,
            sync_writes: true,
        }
    }

    /// Overrides the snapshot cadence: a registry snapshot is written
    /// (and the WAL truncated) after every `ops` appended operations
    /// (minimum 1).
    pub fn snapshot_every(mut self, ops: u64) -> Self {
        self.snapshot_every = ops.max(1);
        self
    }

    /// Whether appends `fsync` before the caller acks (the default).
    /// On, acked ops survive OS crashes and power loss; off, appends
    /// only reach the page cache, scoping durability to process-level
    /// kills — the trade is one `sync_data` per control op.
    pub fn sync_writes(mut self, sync: bool) -> Self {
        self.sync_writes = sync;
        self
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// The open, append-side journal a journaled broker owns. Create with
/// [`DurableJournal::create`] (fresh broker) or [`DurableJournal::resume`]
/// (recovery).
#[derive(Debug)]
pub struct DurableJournal {
    dir: PathBuf,
    wal: File,
    wal_len: u64,
    snapshot_every: u64,
    ops_since_snapshot: u64,
    sync_writes: bool,
    stats: JournalStats,
    encode_buf: Vec<u8>,
}

/// Flushes directory metadata (new files, renames) to stable storage.
/// Windows cannot open a directory as a `File`; there the rename's
/// durability is what the filesystem gives us.
fn sync_dir(dir: &Path) -> Result<(), BrokerError> {
    #[cfg(unix)]
    {
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync journal directory", &e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

impl DurableJournal {
    /// Creates (or wipes) the journal directory for a fresh broker: an
    /// empty WAL and no snapshot. `BrokerBuilder::build` writes the
    /// initial registry snapshot right after this.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Journal`] on any I/O failure.
    pub fn create(config: &JournalConfig) -> Result<Self, BrokerError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| io_err("create journal directory", &e))?;
        let snapshot_path = config.dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            std::fs::remove_file(&snapshot_path)
                .map_err(|e| io_err("remove stale snapshot", &e))?;
        }
        let wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(config.dir.join(WAL_FILE))
            .map_err(|e| io_err("create WAL", &e))?;
        if config.sync_writes {
            sync_dir(&config.dir)?;
        }
        Ok(DurableJournal {
            dir: config.dir.clone(),
            wal,
            wal_len: 0,
            snapshot_every: config.snapshot_every,
            ops_since_snapshot: 0,
            sync_writes: config.sync_writes,
            stats: JournalStats::default(),
            encode_buf: Vec::new(),
        })
    }

    /// Opens an existing journal for recovery: loads the snapshot and the
    /// valid WAL tail (discarding a torn final record), truncates the WAL
    /// back to the valid prefix, and returns the journal positioned to
    /// append.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Journal`] on I/O failure or a corrupt snapshot (the
    /// snapshot is written atomically, so corruption there is damage, not
    /// a torn write).
    pub fn resume(config: &JournalConfig) -> Result<(Self, JournalReplay), BrokerError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| io_err("create journal directory", &e))?;
        let image = match std::fs::read(config.dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => Some(decode_snapshot(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read snapshot", &e)),
        };
        let wal_path = config.dir.join(WAL_FILE);
        let bytes = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read WAL", &e)),
        };
        let (tail, valid_len, truncated_records) = scan_wal(&bytes)?;
        let mut wal = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&wal_path)
            .map_err(|e| io_err("open WAL", &e))?;
        wal.set_len(valid_len)
            .map_err(|e| io_err("truncate torn WAL tail", &e))?;
        if config.sync_writes {
            wal.sync_data()
                .map_err(|e| io_err("sync truncated WAL", &e))?;
        }
        wal.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek WAL end", &e))?;
        Ok((
            DurableJournal {
                dir: config.dir.clone(),
                wal,
                wal_len: valid_len,
                snapshot_every: config.snapshot_every,
                ops_since_snapshot: tail.len() as u64,
                sync_writes: config.sync_writes,
                stats: JournalStats::default(),
                encode_buf: Vec::new(),
            },
            JournalReplay {
                image,
                tail,
                truncated_records,
            },
        ))
    }

    /// Appends one operation record and makes it durable — `sync_data`
    /// under the default [`JournalConfig::sync_writes`], page cache
    /// otherwise. Called *after* the in-memory apply succeeded and
    /// *before* the caller acks, so an acked op is always recoverable.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Journal`] on I/O failure.
    pub fn append(&mut self, op: &JournalOp) -> Result<(), BrokerError> {
        let mut payload = std::mem::take(&mut self.encode_buf);
        op.encode(&mut payload);
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        self.encode_buf = payload;
        self.wal
            .write_all(&frame)
            .map_err(|e| io_err("append WAL record", &e))?;
        if self.sync_writes {
            self.wal
                .sync_data()
                .map_err(|e| io_err("sync WAL record", &e))?;
        }
        self.wal_len += frame.len() as u64;
        self.ops_since_snapshot += 1;
        self.stats.appended_ops += 1;
        Ok(())
    }

    /// Whether the snapshot cadence says a snapshot is due.
    pub fn snapshot_due(&self) -> bool {
        self.ops_since_snapshot >= self.snapshot_every
    }

    /// Writes an atomic registry snapshot (temp file + rename), then
    /// truncates the WAL — the epoch-consistent checkpoint after which
    /// the tail is empty.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Journal`] on I/O failure; the previous snapshot
    /// stays intact if the write or rename fails.
    pub fn write_snapshot(&mut self, registry: &SubscriptionRegistry) -> Result<(), BrokerError> {
        let mut payload = std::mem::take(&mut self.encode_buf);
        encode_registry(&mut payload, registry);
        let mut bytes = Vec::with_capacity(12 + payload.len());
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        self.encode_buf = payload;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot temp", &e))?;
            f.write_all(&bytes)
                .map_err(|e| io_err("write snapshot", &e))?;
            f.sync_all().map_err(|e| io_err("sync snapshot", &e))?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))
            .map_err(|e| io_err("commit snapshot", &e))?;
        if self.sync_writes {
            // Make the rename itself durable before truncating the WAL:
            // otherwise an OS crash could surface the *old* snapshot
            // next to an already-truncated log.
            sync_dir(&self.dir)?;
        }
        self.wal
            .set_len(0)
            .map_err(|e| io_err("truncate WAL after snapshot", &e))?;
        if self.sync_writes {
            self.wal
                .sync_data()
                .map_err(|e| io_err("sync truncated WAL", &e))?;
        }
        self.wal
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("rewind WAL after snapshot", &e))?;
        self.wal_len = 0;
        self.ops_since_snapshot = 0;
        self.stats.snapshots += 1;
        Ok(())
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Self-statistics since open.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

fn decode_snapshot(bytes: &[u8]) -> Result<RegistryImage, BrokerError> {
    if bytes.len() < 12 || bytes[..4] != SNAPSHOT_MAGIC {
        return Err(corrupt("snapshot file missing magic"));
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4")) as usize;
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4"));
    let payload = bytes
        .get(12..12 + len)
        .ok_or_else(|| corrupt("snapshot payload shorter than its header"))?;
    if crc32(payload) != crc {
        return Err(corrupt("snapshot checksum mismatch"));
    }
    RegistryImage::decode(payload)
}

/// Scans the WAL, returning the decodable prefix of operations, the byte
/// length of that prefix, and how many trailing records were discarded
/// as torn (incomplete header, short payload, or checksum mismatch).
fn scan_wal(bytes: &[u8]) -> Result<(Vec<JournalOp>, u64, u64), BrokerError> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            // Short payload: the record in flight at the crash.
            return Ok((ops, pos as u64, 1));
        };
        if crc32(payload) != crc {
            return Ok((ops, pos as u64, 1));
        }
        // A checksummed payload that fails to decode is not a torn
        // write — it is a format error worth surfacing loudly.
        ops.push(JournalOp::decode(payload)?);
        pos += 8 + len;
    }
    let torn_header = u64::from(pos < bytes.len());
    Ok((ops, pos as u64, torn_header))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect2(lo: [f64; 2], hi: [f64; 2]) -> Rect {
        Rect::from_corners(&lo, &hi).expect("rect")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// A checksummed snapshot whose live count claims `u32::MAX` entries
    /// in a 12-byte payload is corrupt, not a 137 GB allocation.
    #[test]
    fn snapshot_count_beyond_payload_is_corrupt() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u32(&mut payload, u32::MAX);
        put_u32(&mut payload, u32::MAX);
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(BrokerError::Journal { .. })
        ));
    }

    /// The snapshot is encoded straight from the registry's rows; the
    /// captured image is the oracle of its bytes. The registry shares
    /// rows, reuses a freed one and keeps dead slots.
    #[test]
    fn snapshot_bytes_equal_the_captured_image() {
        let mut registry = SubscriptionRegistry::new(5, 2);
        let hot = rect2([0.25, -1.5], [9.75, f64::INFINITY]);
        let mut handles = Vec::new();
        for (node, r) in [
            (1, &hot),
            (2, &rect2([1.0, 1.0], [2.0, 2.0])),
            (4, &hot),
            (0, &rect2([-0.0, 3.0], [4.0, 5.0])),
            (3, &hot),
        ] {
            handles.push(registry.insert(NodeId(node), r).expect("insert"));
        }
        registry.remove(handles[1]).expect("remove");
        registry.remove(handles[2]).expect("remove");
        registry
            .insert(NodeId(2), &rect2([6.0, 7.0], [8.0, 9.0]))
            .expect("insert into the freed row");
        let image = RegistryImage::capture(&registry);
        assert_eq!(image.live.len(), 4);
        let (mut direct, mut captured) = (Vec::new(), Vec::new());
        encode_registry(&mut direct, &registry);
        image.encode(&mut captured);
        assert_eq!(direct, captured);
        assert_eq!(RegistryImage::decode(&direct).expect("decode"), image);
        let restored = image.restore(2).expect("restore");
        let live = |r: &SubscriptionRegistry| {
            r.live()
                .map(|(h, n, sides)| (h, n, sides.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(live(&restored), live(&registry));
        assert_eq!(restored.issued(), registry.issued());
        assert_eq!(restored.distinct_rects(), registry.distinct_rects());
        assert!(matches!(
            image.restore(3),
            Err(BrokerError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn ops_round_trip_bit_exactly() {
        let ops = vec![
            JournalOp::Subscribe {
                handle: 7,
                node: 3,
                rect: rect2([0.25, -1.5], [9.75, f64::INFINITY]),
            },
            JournalOp::Unsubscribe { handle: 7 },
            JournalOp::Recompile,
        ];
        let mut buf = Vec::new();
        for op in &ops {
            op.encode(&mut buf);
            assert_eq!(&JournalOp::decode(&buf).expect("decode"), op);
        }
    }

    #[test]
    fn append_resume_replays_tail_and_truncates_torn_bytes() {
        let dir = std::env::temp_dir().join(format!("pubsub-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = JournalConfig::new(&dir).snapshot_every(1_000_000);
        let mut journal = DurableJournal::create(&config).expect("create");
        let ops = vec![
            JournalOp::Subscribe {
                handle: 0,
                node: 1,
                rect: rect2([0.0, 0.0], [5.0, 5.0]),
            },
            JournalOp::Recompile,
            JournalOp::Unsubscribe { handle: 0 },
        ];
        for op in &ops {
            journal.append(op).expect("append");
        }
        drop(journal);

        // Clean resume: the whole tail comes back.
        let (journal, replay) = DurableJournal::resume(&config).expect("resume");
        assert_eq!(replay.tail, ops);
        assert_eq!(replay.truncated_records, 0);
        assert!(replay.image.is_none());
        let full_len = journal.wal_len();
        drop(journal);

        // Torn tail: chop mid-record; resume drops exactly the torn one.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).expect("read");
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).expect("tear");
        let (journal, replay) = DurableJournal::resume(&config).expect("resume torn");
        assert_eq!(replay.tail, ops[..2]);
        assert_eq!(replay.truncated_records, 1);
        assert!(journal.wal_len() < full_len);
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
