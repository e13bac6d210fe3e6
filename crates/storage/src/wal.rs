//! Per-server write-ahead log.
//!
//! The paper's insert path is explicitly non-transactional: points sit in
//! ingest buffers until `b` of them seal into a batch, and a crash loses
//! the open tail. The WAL closes that hole without giving up the
//! striped-parallel ingest of the previous PR:
//!
//! - **Frames.** Every entry is `len:u32 | crc32:u32 | payload`, where the
//!   payload is `lsn:u64 | kind:u8 | body`. LSNs are assigned from one
//!   atomic counter, so they are globally monotone; the CRC covers the
//!   whole payload. Five kinds exist: point appends, table definitions,
//!   source registrations, predicate deletes, and late (out-of-order)
//!   point appends — enough to rebuild a server from an empty disk image.
//!   Late points carry their own kind because they seal through the
//!   side-buffer path and are guarded by a *separate* per-source replay
//!   low-water mark (`late_sealed`): open-buffer and side-buffer LSNs of
//!   one source interleave, so a single mark could not cover both without
//!   losing whichever stream sealed later.
//! - **Group commit per stripe.** Appends encode into one of
//!   [`WAL_STRIPES`] staging buffers selected by the same multiplicative
//!   hash as the ingest shards, so the WAL adds no cross-source lock
//!   contention. A stripe flushes to the [`LogStore`] when it exceeds the
//!   group-commit threshold; [`Wal::sync`] flushes every stripe and
//!   fsyncs, advancing the *durable LSN* — the acknowledgement boundary.
//! - **Ordering.** The table holds the ingest-shard lock across
//!   `append → buffer push`, and a source maps to exactly one stripe, so
//!   per-source LSN order equals buffer order equals arrival order. File
//!   order is *not* LSN order (stripes flush independently); recovery
//!   sorts frames by LSN before replay.
//! - **Recovery.** [`Wal::open`] scans the log once — length, CRC and
//!   body shape per frame, nothing decoded — stops at the first torn or
//!   malformed frame, truncates the log back to the last good byte, and
//!   hands the server an LSN-sorted index over the log bytes. Replay
//!   reads a frame's kind, table and source in place and decodes only the
//!   frames it applies.
//! - **Checkpoints.** [`Wal::retain`] rewrites the log keeping the frames
//!   the checkpoint image does not hold, through the same scan.

use crate::delete::DeletePredicate;
use crate::snapshot::TableConfigSnapshot;
use odh_pager::log::LogStore;
use odh_sim::ResourceMeter;
use odh_types::{OdhError, Record, Result, SourceClass, SourceId, Timestamp};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Staging stripes; matches `stripe::SHARD_COUNT` so a source's WAL stripe
/// is as contention-free as its ingest shard.
pub const WAL_STRIPES: usize = 16;

/// Flush a stripe to the log once its staging buffer exceeds this many
/// bytes (group commit).
pub const GROUP_COMMIT_BYTES: usize = 64 * 1024;

/// Upper bound on one frame; larger length prefixes mean garbage.
const MAX_FRAME: usize = 1 << 20;

const KIND_POINT: u8 = 1;
const KIND_TABLE_DEF: u8 = 2;
const KIND_SOURCE: u8 = 3;
const KIND_DELETE: u8 = 4;
const KIND_LATE_POINT: u8 = 5;

/// One decoded WAL entry (see [`WalFrame::entry`]).
#[derive(Debug, Clone)]
pub enum WalEntry {
    Point {
        table: u16,
        record: Record,
    },
    TableDef {
        table: u16,
        config: TableConfigSnapshot,
    },
    Source {
        table: u16,
        source: SourceId,
        class: SourceClass,
    },
    Delete {
        table: u16,
        predicate: DeletePredicate,
    },
    /// A point that arrived below its source's seal watermark and was
    /// routed to the side buffer. Identical body to `Point`; the distinct
    /// kind routes replay back through the side buffer so the two
    /// per-source low-water marks stay independent.
    LatePoint {
        table: u16,
        record: Record,
    },
}

/// One recovered frame, borrowed from the log bytes. Nothing is decoded
/// until asked: the kind, table and point source are fixed-offset reads,
/// so replay can decide to skip a frame without building anything.
#[derive(Debug, Clone, Copy)]
pub struct WalFrame<'a> {
    pub lsn: u64,
    kind: u8,
    body: &'a [u8],
}

impl WalFrame<'_> {
    /// The table id every frame body starts with (the scan guarantees
    /// the bytes exist).
    pub fn table(&self) -> u16 {
        u16::from_le_bytes([self.body[0], self.body[1]])
    }

    /// For a point frame, its source and whether it is a late point;
    /// `None` for every other kind.
    pub fn point_source(&self) -> Option<(SourceId, bool)> {
        let late = match self.kind {
            KIND_POINT => false,
            KIND_LATE_POINT => true,
            _ => return None,
        };
        Some((SourceId(u64::from_le_bytes(self.body[2..10].try_into().unwrap())), late))
    }

    /// Is this a predicate-delete frame?
    pub fn is_delete(&self) -> bool {
        self.kind == KIND_DELETE
    }

    /// Decode a point frame's source, timestamp and values into `row`,
    /// reusing its value allocation.
    pub fn decode_point_into(&self, row: &mut Record) -> Result<()> {
        decode_point_body(self.body, row).map(drop)
    }

    /// Decode the whole entry.
    pub fn entry(&self) -> Result<WalEntry> {
        decode_entry(self.kind, self.body)
    }
}

/// Where one well-formed frame sits in the log: its LSN, its first byte
/// (the length prefix) and its payload length.
#[derive(Debug, Clone, Copy)]
struct FrameRef {
    lsn: u64,
    off: usize,
    len: u32,
}

impl FrameRef {
    fn end(&self) -> usize {
        self.off + 8 + self.len as usize
    }

    fn frame<'a>(&self, bytes: &'a [u8]) -> WalFrame<'a> {
        let payload = &bytes[self.off + 8..self.end()];
        WalFrame { lsn: self.lsn, kind: payload[8], body: &payload[9..] }
    }
}

/// What [`Wal::open`] found: the log bytes plus an LSN-sorted index of
/// their well-formed frames.
pub struct WalRecovery {
    bytes: Vec<u8>,
    index: Vec<FrameRef>,
    /// Bytes cut off the tail (torn/corrupt frames).
    pub truncated_bytes: u64,
    /// Human-readable note when the tail was truncated.
    pub warning: Option<String>,
}

impl WalRecovery {
    /// Number of surviving frames.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The surviving frames in LSN (replay) order.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = WalFrame<'_>> + '_ {
        self.index.iter().map(|r| r.frame(&self.bytes))
    }
}

/// Aggregate WAL counters (for benches and the resource model).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct WalStats {
    pub appends: u64,
    pub bytes_appended: u64,
    pub group_commits: u64,
    pub syncs: u64,
}

/// One staging stripe: the encode buffer plus its append counters. The
/// counters live under the stripe lock (already held on every append)
/// instead of shared atomics, so hot-path appends touch no cross-stripe
/// cache line.
#[derive(Default)]
struct Stripe {
    buf: Vec<u8>,
    appends: u64,
    bytes_appended: u64,
    /// Appends/bytes already settled into the shared registry counters —
    /// the settle happens per group commit, keeping the per-append path
    /// free of shared-cache-line traffic.
    settled_appends: u64,
    settled_bytes: u64,
}

/// Registry handles of one WAL. Counters are cluster-wide (every server
/// of a cluster shares one meter, hence one registry); they are settled
/// at group-commit/sync boundaries, so after any [`Wal::sync`] the
/// registry agrees exactly with [`Wal::stats`].
struct WalObs {
    registry: Arc<odh_obs::Registry>,
    appends: Arc<odh_obs::Counter>,
    bytes: Arc<odh_obs::Counter>,
    group_commits: Arc<odh_obs::Counter>,
    syncs: Arc<odh_obs::Counter>,
    /// Append latency, sampled 1-in-[`APPEND_SAMPLE`] (per stripe) so the
    /// hot path pays no clock reads on the other appends.
    append_hist: Arc<odh_obs::Histogram>,
    fsync_hist: Arc<odh_obs::Histogram>,
    /// Log size in bytes, summed over every WAL sharing the registry:
    /// each WAL publishes the delta against what it last reported.
    log_bytes: Arc<odh_obs::Gauge>,
    published_log_bytes: std::sync::atomic::AtomicI64,
}

/// Sample rate for append-latency spans (power of two; the stripe-local
/// append count selects).
const APPEND_SAMPLE: u64 = 64;

impl WalObs {
    fn new(meter: &ResourceMeter) -> WalObs {
        let registry = meter.registry().clone();
        WalObs {
            appends: registry.counter("odh_wal_appends_total", &[]),
            bytes: registry.counter("odh_wal_bytes_total", &[]),
            group_commits: registry.counter("odh_wal_group_commits_total", &[]),
            syncs: registry.counter("odh_wal_syncs_total", &[]),
            append_hist: registry.histogram("odh_wal_append_seconds", &[]),
            fsync_hist: registry.histogram("odh_wal_fsync_seconds", &[]),
            log_bytes: registry.gauge("odh_wal_log_bytes", &[]),
            published_log_bytes: std::sync::atomic::AtomicI64::new(0),
            registry,
        }
    }
}

/// The write-ahead log of one data server.
pub struct Wal {
    log: Arc<dyn LogStore>,
    meter: Arc<ResourceMeter>,
    /// Next LSN to assign (LSNs start at 1).
    next_lsn: AtomicU64,
    /// Highest LSN known durable (flushed + synced).
    durable_lsn: AtomicU64,
    stripes: Vec<Mutex<Stripe>>,
    group_commit_bytes: usize,
    group_commits: AtomicU64,
    syncs: AtomicU64,
    obs: WalObs,
}

#[inline]
fn stripe_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize & (WAL_STRIPES - 1)
}

impl Wal {
    /// Start a WAL over an empty (or to-be-discarded) log.
    pub fn create(log: Arc<dyn LogStore>, meter: Arc<ResourceMeter>) -> Result<Arc<Wal>> {
        log.set_len(0)?;
        Ok(Arc::new(Wal::with_state(log, meter, 1, 0)))
    }

    /// Reopen an existing log: index every well-formed frame, truncate a
    /// torn or corrupt tail, and return the survivors sorted by LSN.
    /// Frames stay undecoded bytes until replay asks for them.
    pub fn open(
        log: Arc<dyn LogStore>,
        meter: Arc<ResourceMeter>,
    ) -> Result<(Arc<Wal>, WalRecovery)> {
        let bytes = log.read_all()?;
        let (mut index, good_len, reason) = scan(&bytes);
        let truncated = (bytes.len() - good_len) as u64;
        let warning = if truncated > 0 {
            let w = format!(
                "wal: truncated {truncated} byte(s) of torn/corrupt tail at offset {good_len} ({})",
                reason.unwrap_or_default()
            );
            eprintln!("warning: {w}");
            log.set_len(good_len as u64)?;
            Some(w)
        } else {
            None
        };
        // LSNs are unique, so an unstable sort replays the same order.
        index.sort_unstable_by_key(|f| f.lsn);
        let max_lsn = index.last().map(|f| f.lsn).unwrap_or(0);
        let wal = Arc::new(Wal::with_state(log, meter, max_lsn + 1, max_lsn));
        wal.publish_log_bytes();
        Ok((wal, WalRecovery { bytes, index, truncated_bytes: truncated, warning }))
    }

    fn with_state(
        log: Arc<dyn LogStore>,
        meter: Arc<ResourceMeter>,
        next_lsn: u64,
        durable: u64,
    ) -> Wal {
        let obs = WalObs::new(&meter);
        Wal {
            log,
            meter,
            next_lsn: AtomicU64::new(next_lsn),
            durable_lsn: AtomicU64::new(durable),
            stripes: (0..WAL_STRIPES).map(|_| Mutex::new(Stripe::default())).collect(),
            group_commit_bytes: GROUP_COMMIT_BYTES,
            group_commits: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            obs,
        }
    }

    /// Append one point. The caller must hold the ingest-shard lock of
    /// `record.source` across this call and the buffer push, which makes
    /// per-source LSN order identical to buffer order.
    pub fn append_point(&self, table: u16, record: &Record) -> Result<u64> {
        self.append_point_kind(KIND_POINT, table, record)
    }

    /// Append one late (out-of-order) point. Same body as
    /// [`Wal::append_point`], distinct kind: replay routes it into the
    /// side buffer under the `late_sealed` low-water mark. The caller must
    /// hold the **side-buffer** shard lock of `record.source` across this
    /// call and the side-buffer push.
    pub fn append_late_point(&self, table: u16, record: &Record) -> Result<u64> {
        self.append_point_kind(KIND_LATE_POINT, table, record)
    }

    fn append_point_kind(&self, kind: u8, table: u16, record: &Record) -> Result<u64> {
        self.append(stripe_of(record.source.0), kind, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&record.source.0.to_le_bytes());
            buf.extend_from_slice(&record.ts.micros().to_le_bytes());
            buf.extend_from_slice(&(record.values.len() as u16).to_le_bytes());
            for chunk in record.values.chunks(8) {
                let mut bm = 0u8;
                for (i, v) in chunk.iter().enumerate() {
                    if v.is_some() {
                        bm |= 1 << i;
                    }
                }
                buf.push(bm);
            }
            for v in record.values.iter().flatten() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Append a same-source run of points under a **single** stripe-lock
    /// acquisition — the batch-ingest counterpart of [`Wal::append_point`].
    /// Each row still becomes its own point frame with its own LSN (the
    /// log bytes are identical to appending the rows one at a time, so
    /// recovery is untouched); only the locking is amortized. `cols` is
    /// column-major: `cols[tag][row]`. Returns the `(first, last)` LSNs
    /// of the run.
    pub fn append_run(
        &self,
        table: u16,
        source: u64,
        ts: &[i64],
        cols: &[Vec<Option<f64>>],
        rows: std::ops::Range<usize>,
    ) -> Result<(u64, u64)> {
        let mut s = self.stripes[stripe_of(source)].lock();
        let _span = s
            .appends
            .is_multiple_of(APPEND_SAMPLE)
            .then(|| self.obs.registry.span("wal_append", &self.obs.append_hist));
        let mut first = None;
        let mut last = 0u64;
        for row in rows {
            // LSN assignment and encoding are atomic under the stripe
            // lock, as in `append`: within a source, file order is LSN
            // order.
            let lsn = self.next_lsn.fetch_add(1, Ordering::AcqRel);
            first.get_or_insert(lsn);
            last = lsn;
            let frame_start = s.buf.len();
            s.buf.extend_from_slice(&[0u8; 8]); // len + crc placeholders
            let payload_start = s.buf.len();
            s.buf.extend_from_slice(&lsn.to_le_bytes());
            s.buf.push(KIND_POINT);
            s.buf.extend_from_slice(&table.to_le_bytes());
            s.buf.extend_from_slice(&source.to_le_bytes());
            s.buf.extend_from_slice(&ts[row].to_le_bytes());
            s.buf.extend_from_slice(&(cols.len() as u16).to_le_bytes());
            for chunk in cols.chunks(8) {
                let mut bm = 0u8;
                for (i, col) in chunk.iter().enumerate() {
                    if col[row].is_some() {
                        bm |= 1 << i;
                    }
                }
                s.buf.push(bm);
            }
            for col in cols {
                if let Some(v) = col[row] {
                    s.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            let payload_len = s.buf.len() - payload_start;
            if payload_len > MAX_FRAME {
                s.buf.truncate(frame_start);
                return Err(OdhError::Config(format!(
                    "wal: frame of {payload_len} bytes exceeds limit"
                )));
            }
            let crc = crc32(&s.buf[payload_start..]);
            s.buf[frame_start..frame_start + 4]
                .copy_from_slice(&(payload_len as u32).to_le_bytes());
            s.buf[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
            s.appends += 1;
            s.bytes_appended += (8 + payload_len) as u64;
        }
        if s.buf.len() >= self.group_commit_bytes {
            self.flush_stripe(&mut s)?;
        }
        Ok((first.unwrap_or(0), last))
    }

    /// Append a table definition (so a server can be rebuilt from an
    /// empty disk image).
    pub fn append_table_def(&self, table: u16, config: &TableConfigSnapshot) -> Result<u64> {
        let json = serde_json::to_vec(config)
            .map_err(|e| OdhError::Corrupt(format!("wal: encode table def: {e}")))?;
        self.append(0, KIND_TABLE_DEF, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&json);
        })
    }

    /// Append a predicate delete. The tombstone becomes durable (hence
    /// acknowledgeable) at the next [`Wal::sync`], like any point.
    pub fn append_delete(&self, table: u16, predicate: &DeletePredicate) -> Result<u64> {
        let json = serde_json::to_vec(predicate)
            .map_err(|e| OdhError::Corrupt(format!("wal: encode delete predicate: {e}")))?;
        self.append(0, KIND_DELETE, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&json);
        })
    }

    /// Append a source registration.
    pub fn append_source(&self, table: u16, source: SourceId, class: &SourceClass) -> Result<u64> {
        let json = serde_json::to_vec(class)
            .map_err(|e| OdhError::Corrupt(format!("wal: encode source class: {e}")))?;
        self.append(stripe_of(source.0), KIND_SOURCE, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&source.0.to_le_bytes());
            buf.extend_from_slice(&json);
        })
    }

    /// The shared frame writer: encodes `len | crc | lsn | kind | body`
    /// **directly into the stripe's staging buffer** — the body writer
    /// appends in place, then the length and CRC placeholders are patched.
    /// No temporary allocation happens on the append path.
    fn append(
        &self,
        stripe: usize,
        kind: u8,
        write_body: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64> {
        let mut s = self.stripes[stripe].lock();
        let _span = s
            .appends
            .is_multiple_of(APPEND_SAMPLE)
            .then(|| self.obs.registry.span("wal_append", &self.obs.append_hist));
        // LSN assignment and encoding are atomic under the stripe lock, so
        // within a stripe (hence within a source) file order is LSN order.
        let lsn = self.next_lsn.fetch_add(1, Ordering::AcqRel);
        let frame_start = s.buf.len();
        s.buf.extend_from_slice(&[0u8; 8]); // len + crc placeholders
        let payload_start = s.buf.len();
        s.buf.extend_from_slice(&lsn.to_le_bytes());
        s.buf.push(kind);
        write_body(&mut s.buf);
        let payload_len = s.buf.len() - payload_start;
        if payload_len > MAX_FRAME {
            s.buf.truncate(frame_start);
            return Err(OdhError::Config(format!(
                "wal: frame of {payload_len} bytes exceeds limit"
            )));
        }
        let crc = crc32(&s.buf[payload_start..]);
        s.buf[frame_start..frame_start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        s.buf[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
        s.appends += 1;
        s.bytes_appended += (8 + payload_len) as u64;
        if s.buf.len() >= self.group_commit_bytes {
            self.flush_stripe(&mut s)?;
        }
        Ok(lsn)
    }

    fn flush_stripe(&self, s: &mut MutexGuard<'_, Stripe>) -> Result<()> {
        if s.buf.is_empty() {
            return Ok(());
        }
        self.group_commits.fetch_add(1, Ordering::Relaxed);
        self.obs.group_commits.inc();
        self.obs.appends.add(s.appends - s.settled_appends);
        self.obs.bytes.add(s.bytes_appended - s.settled_bytes);
        s.settled_appends = s.appends;
        s.settled_bytes = s.bytes_appended;
        self.meter.wal_write(s.buf.len());
        let r = self.log.append(&s.buf);
        s.buf.clear();
        self.publish_log_bytes();
        r
    }

    /// Bring the `odh_wal_log_bytes` gauge up to this log's current size.
    fn publish_log_bytes(&self) {
        let now = self.log.len() as i64;
        let prev = self.obs.published_log_bytes.swap(now, Ordering::Relaxed);
        self.obs.log_bytes.add(now - prev);
    }

    /// Flush every stripe and fsync the log. Returns the durable LSN: every
    /// record appended before this call is now crash-safe (the group-commit
    /// acknowledgement point).
    pub fn sync(&self) -> Result<u64> {
        let target = self.next_lsn.load(Ordering::Acquire) - 1;
        for stripe in &self.stripes {
            self.flush_stripe(&mut stripe.lock())?;
        }
        {
            let _span = self.obs.registry.span("wal_fsync", &self.obs.fsync_hist);
            self.log.sync()?;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.obs.syncs.inc();
        self.meter.wal_sync();
        self.durable_lsn.fetch_max(target, Ordering::AcqRel);
        Ok(target)
    }

    /// Highest LSN assigned so far (0 when none).
    pub fn max_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Acquire) - 1
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// Drop every frame with `lsn <= low_water` and keep the tail.
    pub fn truncate_through(&self, low_water: u64) -> Result<()> {
        self.retain(|f| f.lsn > low_water)
    }

    /// Rewrite the log keeping only the frames `keep` accepts, in file
    /// order — the checkpoint's log truncation. Appends are blocked for
    /// the duration (all stripe locks are held). The rewrite is not
    /// atomic; a crash in the middle can lose kept frames, which is why
    /// the server only calls this *after* the checkpoint image (covering
    /// every dropped frame) is durable, and why dropping everything
    /// reduces to a single truncate-to-zero.
    pub fn retain(&self, mut keep: impl FnMut(&WalFrame<'_>) -> bool) -> Result<()> {
        let mut guards: Vec<MutexGuard<'_, Stripe>> =
            self.stripes.iter().map(|s| s.lock()).collect();
        for g in guards.iter_mut() {
            self.flush_stripe(g)?;
        }
        let bytes = self.log.read_all()?;
        let (index, good_len, _) = scan(&bytes);
        debug_assert_eq!(good_len, bytes.len(), "wal must be fully valid before truncation");
        let mut kept = Vec::new();
        for r in &index {
            if keep(&r.frame(&bytes)) {
                kept.extend_from_slice(&bytes[r.off..r.end()]);
            }
        }
        if kept.len() == bytes.len() {
            return Ok(());
        }
        self.log.set_len(0)?;
        if !kept.is_empty() {
            self.meter.wal_write(kept.len());
            self.log.append(&kept)?;
        }
        self.log.sync()?;
        self.publish_log_bytes();
        Ok(())
    }

    /// Current log size in bytes (excluding staged, unflushed entries).
    pub fn log_bytes(&self) -> u64 {
        self.log.len()
    }

    pub fn stats(&self) -> WalStats {
        let (mut appends, mut bytes) = (0u64, 0u64);
        for s in &self.stripes {
            let s = s.lock();
            appends += s.appends;
            bytes += s.bytes_appended;
        }
        WalStats {
            appends,
            bytes_appended: bytes,
            group_commits: self.group_commits.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.obs.log_bytes.add(-self.obs.published_log_bytes.swap(0, Ordering::Relaxed));
    }
}

/// Walk `bytes` once, checking each frame's length, CRC and body shape
/// without decoding it. Returns the well-formed prefix's frames in file
/// order, the offset of the first byte past that prefix, and why the walk
/// stopped there (`None` at a clean end).
fn scan(bytes: &[u8]) -> (Vec<FrameRef>, usize, Option<String>) {
    let mut index = Vec::new();
    let mut off = 0usize;
    let reason;
    loop {
        let Some(header) = bytes.get(off..off + 8) else {
            reason = (off != bytes.len()).then(|| "partial frame header".to_string());
            break;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if !(9..=MAX_FRAME).contains(&len) {
            reason = Some(format!("implausible frame length {len}"));
            break;
        }
        let Some(payload) = bytes.get(off + 8..off + 8 + len) else {
            reason = Some("partial frame payload".into());
            break;
        };
        if crc32(payload) != crc {
            reason = Some("crc mismatch".into());
            break;
        }
        if let Err(e) = check_body(payload[8], &payload[9..]) {
            reason = Some(format!("undecodable frame: {e}"));
            break;
        }
        let lsn = u64::from_le_bytes(payload[..8].try_into().unwrap());
        index.push(FrameRef { lsn, off, len: len as u32 });
        off += 8 + len;
    }
    (index, off, reason)
}

fn truncated_body() -> OdhError {
    OdhError::Corrupt("wal: truncated frame body".into())
}

/// The scan's body check: a point body must hold its header, bitmap and
/// one value per set bit (allocation-free); the rare JSON-bodied kinds
/// are decoded and dropped, so the same bytes that fail replay's decode
/// fail here.
fn check_body(kind: u8, body: &[u8]) -> Result<()> {
    match kind {
        KIND_POINT | KIND_LATE_POINT => {
            let n = body.get(18..20).map(|b| u16::from_le_bytes([b[0], b[1]]) as usize);
            let bitmap = n.and_then(|n| body.get(20..20 + n.div_ceil(8)).map(|bm| (n, bm)));
            let (n, bitmap) = bitmap.ok_or_else(truncated_body)?;
            let present: usize = bitmap
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let bits = (n - 8 * i).min(8);
                    (b & (0xFFu16 >> (8 - bits)) as u8).count_ones() as usize
                })
                .sum();
            if body.len() < 20 + bitmap.len() + 8 * present {
                return Err(truncated_body());
            }
            Ok(())
        }
        _ => decode_entry(kind, body).map(drop),
    }
}

/// Decode the shared `Point`/`LatePoint` frame body into `row`, reusing
/// its value vector; returns the table id.
fn decode_point_body(body: &[u8], row: &mut Record) -> Result<u16> {
    if body.len() < 20 {
        return Err(truncated_body());
    }
    let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
    let source = u64::from_le_bytes(body[2..10].try_into().unwrap());
    let ts = i64::from_le_bytes(body[10..18].try_into().unwrap());
    let n = u16::from_le_bytes(body[18..20].try_into().unwrap()) as usize;
    let bm_len = n.div_ceil(8);
    if body.len() < 20 + bm_len {
        return Err(truncated_body());
    }
    let bitmap = &body[20..20 + bm_len];
    row.source = SourceId(source);
    row.ts = Timestamp(ts);
    row.values.clear();
    let mut voff = 20 + bm_len;
    for i in 0..n {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            let Some(v) = body.get(voff..voff + 8) else {
                return Err(truncated_body());
            };
            row.values.push(Some(f64::from_le_bytes(v.try_into().unwrap())));
            voff += 8;
        } else {
            row.values.push(None);
        }
    }
    Ok(table)
}

fn decode_entry(kind: u8, body: &[u8]) -> Result<WalEntry> {
    let short = truncated_body;
    let point = |body| {
        let mut record = Record::new(SourceId(0), Timestamp(0), Vec::new());
        decode_point_body(body, &mut record).map(|table| (table, record))
    };
    match kind {
        KIND_POINT => {
            let (table, record) = point(body)?;
            Ok(WalEntry::Point { table, record })
        }
        KIND_LATE_POINT => {
            let (table, record) = point(body)?;
            Ok(WalEntry::LatePoint { table, record })
        }
        KIND_DELETE => {
            if body.len() < 2 {
                return Err(short());
            }
            let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
            let predicate: DeletePredicate = serde_json::from_slice(&body[2..])
                .map_err(|e| OdhError::Corrupt(format!("wal: delete predicate: {e}")))?;
            Ok(WalEntry::Delete { table, predicate })
        }
        KIND_TABLE_DEF => {
            if body.len() < 2 {
                return Err(short());
            }
            let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
            let config: TableConfigSnapshot = serde_json::from_slice(&body[2..])
                .map_err(|e| OdhError::Corrupt(format!("wal: table def: {e}")))?;
            Ok(WalEntry::TableDef { table, config })
        }
        KIND_SOURCE => {
            if body.len() < 10 {
                return Err(short());
            }
            let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
            let source = u64::from_le_bytes(body[2..10].try_into().unwrap());
            let class: SourceClass = serde_json::from_slice(&body[10..])
                .map_err(|e| OdhError::Corrupt(format!("wal: source class: {e}")))?;
            Ok(WalEntry::Source { table, source: SourceId(source), class })
        }
        k => Err(OdhError::Corrupt(format!("wal: unknown frame kind {k}"))),
    }
}

/// Slicing-by-8 lookup tables for CRC-32 (IEEE 802.3), built at compile
/// time. `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]`
/// advances a byte through `k` further zero bytes, letting the loop fold
/// 8 input bytes per iteration with independent lookups (the
/// byte-at-a-time serial dependency is what made CRC the hottest part of
/// the WAL append path).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3), slicing-by-8; the standard reflected polynomial.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use odh_pager::log::MemLog;
    use odh_types::SchemaType;

    fn mem_wal() -> (Arc<MemLog>, Arc<Wal>) {
        let log = Arc::new(MemLog::new());
        let wal = Wal::create(log.clone(), ResourceMeter::unmetered()).unwrap();
        (log, wal)
    }

    /// Every surviving frame, decoded, in replay order.
    fn entries(rec: &WalRecovery) -> Vec<(u64, WalEntry)> {
        rec.frames().map(|f| (f.lsn, f.entry().unwrap())).collect()
    }

    fn point(src: u64, ts: i64) -> Record {
        Record::new(SourceId(src), Timestamp(ts), vec![Some(ts as f64), None, Some(-1.0)])
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_with_monotone_lsns() {
        let (log, wal) = mem_wal();
        let cfg = TableConfigSnapshot::from(&TableConfig::new(SchemaType::new("m", ["a"])));
        wal.append_table_def(3, &cfg).unwrap();
        wal.append_source(3, SourceId(7), &SourceClass::irregular_high()).unwrap();
        for i in 0..10i64 {
            wal.append_point(3, &point(7, i)).unwrap();
        }
        assert_eq!(wal.sync().unwrap(), 12);
        assert_eq!(wal.durable_lsn(), 12);

        let (wal2, rec) = Wal::open(log, ResourceMeter::unmetered()).unwrap();
        let frames = entries(&rec);
        assert_eq!(frames.len(), 12);
        assert!(rec.warning.is_none());
        assert!(frames.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(wal2.max_lsn(), 12);
        match &frames[0].1 {
            WalEntry::TableDef { table, config } => {
                assert_eq!(*table, 3);
                assert_eq!(config.schema.name, "m");
            }
            e => panic!("expected table def, got {e:?}"),
        }
        let head = rec.frames().nth(5).unwrap();
        assert_eq!(head.table(), 3);
        assert_eq!(head.point_source(), Some((SourceId(7), false)));
        match &frames[5].1 {
            WalEntry::Point { table, record } => {
                assert_eq!(*table, 3);
                assert_eq!(record.ts, Timestamp(3));
                assert_eq!(record.values, vec![Some(3.0), None, Some(-1.0)]);
            }
            e => panic!("expected point, got {e:?}"),
        }
    }

    #[test]
    fn late_point_and_delete_frames_round_trip() {
        let (log, wal) = mem_wal();
        wal.append_late_point(3, &point(7, 41)).unwrap();
        let pred = DeletePredicate::for_sources(10, 20, [SourceId(7), SourceId(9)]);
        wal.append_delete(3, &pred).unwrap();
        wal.append_delete(4, &DeletePredicate::all_sources(i64::MIN, 0)).unwrap();
        wal.sync().unwrap();
        let (_, rec) = Wal::open(log, ResourceMeter::unmetered()).unwrap();
        let frames = entries(&rec);
        assert_eq!(frames.len(), 3);
        assert_eq!(rec.frames().next().unwrap().point_source(), Some((SourceId(7), true)));
        assert_eq!(rec.frames().nth(1).unwrap().point_source(), None);
        match &frames[0].1 {
            WalEntry::LatePoint { table, record } => {
                assert_eq!(*table, 3);
                assert_eq!(record.source, SourceId(7));
                assert_eq!(record.ts, Timestamp(41));
            }
            e => panic!("expected late point, got {e:?}"),
        }
        match &frames[1].1 {
            WalEntry::Delete { table, predicate } => {
                assert_eq!(*table, 3);
                assert_eq!(*predicate, pred);
            }
            e => panic!("expected delete, got {e:?}"),
        }
        match &frames[2].1 {
            WalEntry::Delete { predicate, .. } => assert_eq!(predicate.sources, None),
            e => panic!("expected delete, got {e:?}"),
        }
    }

    #[test]
    fn group_commit_batches_appends() {
        let (log, wal) = mem_wal();
        for i in 0..100i64 {
            wal.append_point(0, &point(1, i)).unwrap();
        }
        // Nothing flushed yet (well under the threshold), one commit on sync.
        assert_eq!(log.len(), 0);
        wal.sync().unwrap();
        let s = wal.stats();
        assert_eq!(s.appends, 100);
        assert_eq!(s.group_commits, 1);
        assert_eq!(log.len(), s.bytes_appended);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_parse() {
        let (log, wal) = mem_wal();
        for i in 0..5i64 {
            wal.append_point(0, &point(2, i)).unwrap();
        }
        wal.sync().unwrap();
        let good = log.len();
        // A torn frame: header promising more bytes than exist.
        log.append(&[64, 0, 0, 0, 1, 2, 3, 4, 9, 9]).unwrap();
        let (_, rec) = Wal::open(log.clone(), ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.truncated_bytes, 10);
        assert!(rec.warning.is_some());
        assert_eq!(log.len(), good, "log physically truncated to last good frame");
    }

    #[test]
    fn bit_flip_stops_parse_at_corrupt_frame() {
        let (log, wal) = mem_wal();
        for i in 0..8i64 {
            wal.append_point(0, &point(3, i)).unwrap();
        }
        wal.sync().unwrap();
        // Flip a bit in the 6th frame's payload; frames 1..=5 survive.
        let frame_len = log.len() / 8;
        log.flip_bit(5 * frame_len + 10);
        let (_, rec) = Wal::open(log, ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.len(), 5);
        assert!(rec.warning.unwrap().contains("crc"));
    }

    #[test]
    fn truncate_through_keeps_tail_frames() {
        let (log, wal) = mem_wal();
        for i in 0..10i64 {
            wal.append_point(0, &point(4, i)).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate_through(7).unwrap();
        let (_, rec) = Wal::open(log, ResourceMeter::unmetered()).unwrap();
        let lsns: Vec<u64> = rec.frames().map(|f| f.lsn).collect();
        assert_eq!(lsns, vec![8, 9, 10]);
        // New appends continue above the old maximum.
        assert_eq!(wal.append_point(0, &point(4, 99)).unwrap(), 11);
    }

    #[test]
    fn truncate_everything_empties_the_log() {
        let (log, wal) = mem_wal();
        for i in 0..10i64 {
            wal.append_point(0, &point(4, i)).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate_through(wal.max_lsn()).unwrap();
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn sparse_and_empty_value_vectors_round_trip() {
        let (log, wal) = mem_wal();
        wal.append_point(0, &Record::new(SourceId(1), Timestamp(5), vec![None, None])).unwrap();
        wal.append_point(0, &Record::new(SourceId(1), Timestamp(6), vec![])).unwrap();
        wal.sync().unwrap();
        let (_, rec) = Wal::open(log, ResourceMeter::unmetered()).unwrap();
        let frames = entries(&rec);
        match &frames[0].1 {
            WalEntry::Point { record, .. } => assert_eq!(record.values, vec![None, None]),
            e => panic!("{e:?}"),
        }
        match &frames[1].1 {
            WalEntry::Point { record, .. } => assert!(record.values.is_empty()),
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn scratch_decode_reuses_the_row() {
        let (log, wal) = mem_wal();
        wal.append_point(2, &point(5, 10)).unwrap();
        wal.append_point(2, &Record::new(SourceId(6), Timestamp(11), vec![None])).unwrap();
        wal.sync().unwrap();
        let (_, rec) = Wal::open(log, ResourceMeter::unmetered()).unwrap();
        let mut row = Record::new(SourceId(0), Timestamp(0), Vec::new());
        let mut frames = rec.frames();
        frames.next().unwrap().decode_point_into(&mut row).unwrap();
        assert_eq!(row, point(5, 10));
        frames.next().unwrap().decode_point_into(&mut row).unwrap();
        assert_eq!(row, Record::new(SourceId(6), Timestamp(11), vec![None]));
    }

    #[test]
    fn point_with_missing_values_stops_the_scan() {
        let (log, wal) = mem_wal();
        for i in 0..3i64 {
            wal.append_point(0, &point(3, i)).unwrap();
        }
        wal.sync().unwrap();
        let good = log.len();
        // A CRC-valid frame whose bitmap promises two values but carries one.
        let mut payload = 99u64.to_le_bytes().to_vec();
        payload.push(KIND_POINT);
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(&7i64.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.push(0b11);
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        log.append(&frame).unwrap();
        let (_, rec) = Wal::open(log.clone(), ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.len(), 3);
        assert!(rec.warning.unwrap().contains("undecodable"));
        assert_eq!(log.len(), good);
    }

    #[test]
    fn retain_keeps_exactly_the_accepted_frames() {
        let (log, wal) = mem_wal();
        for i in 0..10i64 {
            wal.append_point(0, &point(i as u64 % 2, i)).unwrap();
        }
        wal.sync().unwrap();
        let before = log.len();
        wal.retain(|_| true).unwrap();
        assert_eq!(log.len(), before, "keeping everything leaves the log alone");
        wal.retain(|f| f.point_source().is_some_and(|(s, _)| s == SourceId(1))).unwrap();
        let (_, rec) = Wal::open(log, ResourceMeter::unmetered()).unwrap();
        let lsns: Vec<u64> = rec.frames().map(|f| f.lsn).collect();
        assert_eq!(lsns, vec![2, 4, 6, 8, 10]);
    }

    #[test]
    fn concurrent_appends_keep_per_source_lsn_order() {
        let (_, wal) = mem_wal();
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 4];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|src| {
                    let wal = &wal;
                    s.spawn(move || {
                        (0..200i64)
                            .map(|i| wal.append_point(0, &point(src, i)).unwrap())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                seen[i] = h.join().unwrap();
            }
        });
        for lsns in &seen {
            assert!(lsns.windows(2).all(|w| w[0] < w[1]), "per-source LSNs must be monotone");
        }
        let mut all: Vec<u64> = seen.concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "LSNs are globally unique");
    }
}
