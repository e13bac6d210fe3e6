//! Checkpoint/recovery of an [`OdhTable`].
//!
//! A snapshot is the table's *metadata* — container page lists, B-tree
//! roots, the source registry, configuration, counters — serialized by the
//! server's checkpoint into its own pager. The page data itself is already
//! on the disk once the pool is flushed, so recovery is: reopen the disk,
//! deserialize the snapshot, re-attach the structures. Open ingest buffers
//! are *not* part of a snapshot (the paper's insert path is explicitly
//! non-transactional); [`OdhTable::snapshot`] therefore requires a flush
//! first and refuses to run with unsealed points.
//!
//! With a WAL attached the image is lenient instead, and its per-source
//! seal marks say which logged points it already holds: [`SealMarks`] is
//! the one rule replay and checkpoint truncation both apply to them.

use crate::container::{Container, ContainerSnapshot};
use crate::select::{ingestion_structure, Structure};
use crate::stats::{MeterIoHook, StatsSnapshot, StorageStats};
use crate::table::{OdhTable, TableConfig, TableFreeze};
use odh_pager::pool::BufferPool;
use odh_sim::ResourceMeter;
use odh_types::{OdhError, Result, SourceClass, SourceId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Recovery image of one operational table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSnapshot {
    pub config: TableConfigSnapshot,
    pub sources: Vec<(u64, SourceClass)>,
    pub rts: ContainerSnapshot,
    pub irts: ContainerSnapshot,
    pub mg: ContainerSnapshot,
    /// Cold-tier generation; `None` in pre-compaction snapshots (an empty
    /// cold container is created on restore).
    pub cold: Option<ContainerSnapshot>,
    pub reorganized: bool,
    pub stats: StatsSnapshot,
    /// Sealed low-water marks (highest container-sealed WAL LSN) per
    /// source and per MG group; replay skips frames at or below them.
    /// `None` in pre-WAL snapshots (the vendored serde stub has no field
    /// defaults, so optional fields are `Option`s).
    pub sealed: Option<Vec<(u64, u64)>>,
    pub mg_sealed: Option<Vec<(u32, u64)>>,
    /// The table id this table logs WAL frames under, when durable.
    pub wal_table_id: Option<u16>,
    /// Side-buffer sealed low-water marks per source (late-arrival path);
    /// `None` in pre-hostile-ingest snapshots.
    pub late_sealed: Option<Vec<(u64, u64)>>,
    /// Active (unresolved) tombstones at checkpoint time.
    pub tombstones: Option<Vec<crate::delete::Tombstone>>,
    /// Highest delete LSN ever applied — replay skips delete frames at or
    /// below it so a retired tombstone cannot resurrect.
    pub tombstone_sealed: Option<u64>,
}

/// The replay low-water marks of one table image, resolved per source.
#[derive(Debug, Default)]
pub struct SealMarks {
    /// Per source, the mark its in-order point frames seal under: its own
    /// `sealed` mark, or its MG group's `mg_sealed` mark.
    points: HashMap<u64, u64>,
    /// Per source, its side-buffer `late_sealed` mark.
    late: HashMap<u64, u64>,
}

impl SealMarks {
    /// The coverage rule WAL replay and checkpoint truncation share: a
    /// point frame is already in the image when its LSN is at or below
    /// the mark its seal path advances. Replay skips such a frame without
    /// decoding it; a checkpoint drops it from the log.
    pub fn covers(&self, source: SourceId, late: bool, lsn: u64) -> bool {
        let marks = if late { &self.late } else { &self.points };
        marks.get(&source.0).is_some_and(|&mark| lsn <= mark)
    }
}

impl TableSnapshot {
    /// The image's seal marks, exactly as captured.
    pub fn seal_marks(&self) -> SealMarks {
        let sealed: HashMap<u64, u64> = self.sealed.iter().flatten().copied().collect();
        let mg: HashMap<u32, u64> = self.mg_sealed.iter().flatten().copied().collect();
        let points = self
            .sources
            .iter()
            .filter_map(|&(id, class)| {
                let mark = match ingestion_structure(class) {
                    Structure::Mg => {
                        let group = id.checked_div(self.config.mg_group_size).unwrap_or(0);
                        mg.get(&(group as u32))
                    }
                    _ => sealed.get(&id),
                };
                mark.map(|&m| (id, m))
            })
            .collect();
        SealMarks { points, late: self.late_sealed.iter().flatten().copied().collect() }
    }
}

/// Serializable form of [`TableConfig`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableConfigSnapshot {
    pub schema: odh_types::SchemaType,
    pub batch_size: usize,
    pub policy: odh_compress::column::Policy,
    pub mg_group_size: u64,
    /// `None` in pre-WAL snapshots (treated as `false`).
    pub strict_snapshot: Option<bool>,
    /// Decoded-batch cache budget; `None` in pre-read-path snapshots
    /// (treated as the default).
    pub decode_cache_bytes: Option<usize>,
    /// Seal pipeline worker count; `None` in pre-pipeline snapshots
    /// (treated as the default).
    pub seal_workers: Option<usize>,
    /// Seal queue depth; `None` in pre-pipeline snapshots.
    pub seal_queue_depth: Option<usize>,
    /// Compaction knobs; all `None` in pre-compaction snapshots
    /// (treated as the defaults: merge below batch_size, target 4×,
    /// no cold tier, no TTL, manual compaction only).
    pub compact_min_batch: Option<usize>,
    pub compact_target_batch: Option<usize>,
    pub cold_after_us: Option<i64>,
    pub retention_ttl_us: Option<i64>,
    pub compact_interval_ms: Option<u64>,
}

impl From<&TableConfig> for TableConfigSnapshot {
    fn from(c: &TableConfig) -> Self {
        TableConfigSnapshot {
            schema: c.schema.clone(),
            batch_size: c.batch_size,
            policy: c.policy,
            mg_group_size: c.mg_group_size,
            strict_snapshot: Some(c.strict_snapshot),
            decode_cache_bytes: Some(c.decode_cache_bytes),
            seal_workers: Some(c.seal_workers),
            seal_queue_depth: Some(c.seal_queue_depth),
            compact_min_batch: Some(c.compact_min_batch),
            compact_target_batch: Some(c.compact_target_batch),
            cold_after_us: Some(c.cold_after_us),
            retention_ttl_us: Some(c.retention_ttl_us),
            compact_interval_ms: Some(c.compact_interval_ms),
        }
    }
}

impl From<&TableConfigSnapshot> for TableConfig {
    fn from(s: &TableConfigSnapshot) -> Self {
        let mut cfg = TableConfig::new(s.schema.clone())
            .with_batch_size(s.batch_size)
            .with_policy(s.policy)
            .with_mg_group_size(s.mg_group_size)
            .with_strict_snapshot(s.strict_snapshot.unwrap_or(false))
            .with_decode_cache_bytes(
                s.decode_cache_bytes.unwrap_or(crate::table::DEFAULT_DECODE_CACHE_BYTES),
            )
            .with_seal_workers(s.seal_workers.unwrap_or_else(crate::table::default_seal_workers))
            .with_seal_queue_depth(
                s.seal_queue_depth.unwrap_or(crate::table::DEFAULT_SEAL_QUEUE_DEPTH),
            );
        // Raw microsecond/knob fields round-trip directly (the builders
        // exist for the Duration-typed public API).
        cfg.compact_min_batch = s.compact_min_batch.unwrap_or(0);
        cfg.compact_target_batch = s.compact_target_batch.unwrap_or(0);
        cfg.cold_after_us = s.cold_after_us.unwrap_or(0);
        cfg.retention_ttl_us = s.retention_ttl_us.unwrap_or(0);
        cfg.compact_interval_ms = s.compact_interval_ms.unwrap_or(0);
        cfg
    }
}

impl OdhTable {
    /// Capture the table's recovery image.
    ///
    /// Without a WAL (or with [`TableConfig::with_strict_snapshot`]) this
    /// fails if any ingest buffer still holds unsealed points — call
    /// [`OdhTable::flush`] first. With a WAL attached the checkpoint is
    /// *lenient*: open buffers are simply left out of the image (their
    /// rows sit above the checkpoint LSN in the log, so recovery replays
    /// them), and the persisted counters are reduced by the buffered rows
    /// that replay will re-count.
    pub fn snapshot(&self) -> Result<TableSnapshot> {
        self.freeze()?.snapshot()
    }
    /// Re-attach a table from its recovery image over a reopened pool.
    pub fn restore(
        pool: Arc<BufferPool>,
        meter: Arc<ResourceMeter>,
        snap: &TableSnapshot,
    ) -> Result<OdhTable> {
        pool.set_hook(Arc::new(MeterIoHook(meter.clone())));
        let cold = match &snap.cold {
            Some(c) => Container::restore(pool.clone(), c),
            // Pre-compaction snapshot: start with an empty cold tier (the
            // structure tag is nominal — cold batches self-describe).
            None => Container::create(pool.clone(), crate::select::Structure::Irts)?,
        };
        let table = OdhTable::from_parts(
            TableConfig::from(&snap.config),
            pool.clone(),
            meter,
            Container::restore(pool.clone(), &snap.rts),
            Container::restore(pool.clone(), &snap.irts),
            Container::restore(pool, &snap.mg),
            cold,
            snap.reorganized,
            StorageStats::from_snapshot(&snap.stats),
        );
        for (id, class) in &snap.sources {
            table.register_source(odh_types::SourceId(*id), *class)?;
        }
        // Restore the sealed low-water marks so WAL replay stays idempotent
        // after re-attaching the log. (register_source above never logs:
        // the WAL is only bound after restore.)
        table.registry.restore_sealed(snap.sealed.iter().flatten().copied());
        table.registry.restore_mg_sealed(snap.mg_sealed.iter().flatten().copied());
        table.registry.restore_late_sealed(snap.late_sealed.iter().flatten().copied());
        for t in snap.tombstones.iter().flatten() {
            table.restore_tombstone(t.clone());
        }
        table
            .tombstone_sealed
            .store(snap.tombstone_sealed.unwrap_or(0), std::sync::atomic::Ordering::SeqCst);
        if let Some(tid) = snap.wal_table_id {
            let _ = table.restored_wal_table_id.set(tid);
        }
        Ok(table)
    }
}

impl TableFreeze<'_> {
    /// Capture the frozen table's recovery image (see
    /// [`OdhTable::snapshot`]). No install or compaction pass can run
    /// while the freeze is held, so the containers and the seal marks are
    /// captured at one instant: every batch in the image is covered by its
    /// source's mark.
    pub fn snapshot(&self) -> Result<TableSnapshot> {
        let t = self.table();
        let buffered = t.buffered_points();
        let lenient = t.wal_table_id().is_some() && !t.config().strict_snapshot;
        if buffered > 0 && !lenient {
            return Err(OdhError::Config(
                "snapshot with unsealed ingest buffers; flush first".into(),
            ));
        }
        let sources = t.registry.snapshot_sources();
        let mut stats = t.stats.snapshot();
        if buffered > 0 {
            let (records, points) = t.buffered_totals();
            stats.records_ingested = stats.records_ingested.saturating_sub(records);
            stats.points_ingested = stats.points_ingested.saturating_sub(points);
        }
        let sealed = t.registry.snapshot_sealed();
        let mg_sealed = t.registry.snapshot_mg_sealed();
        #[cfg(test)]
        t.stall_at(crate::table::Stall::MarksCaptured);
        Ok(TableSnapshot {
            config: TableConfigSnapshot::from(t.config()),
            sources,
            rts: t.rts.read().snapshot(),
            irts: t.irts.read().snapshot(),
            mg: t.mg.read().snapshot(),
            cold: Some(t.cold.read().snapshot()),
            reorganized: t.reorganized.load(std::sync::atomic::Ordering::Acquire),
            stats,
            sealed: Some(sealed),
            mg_sealed: Some(mg_sealed),
            wal_table_id: t.wal_table_id(),
            late_sealed: Some(t.registry.snapshot_late_sealed()),
            tombstones: Some(t.tombstones().as_ref().clone()),
            tombstone_sealed: Some(t.tombstone_sealed.load(std::sync::atomic::Ordering::SeqCst)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_pager::disk::FileDisk;
    use odh_types::{Duration, Record, SchemaType, SourceId, Timestamp};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("odh-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn snapshot_restore_round_trip_over_a_real_file() {
        let path = tmp("table.pages");
        let snap_json;
        {
            let disk = Arc::new(FileDisk::create(&path).unwrap());
            let pool = BufferPool::new(disk, 256);
            let t = OdhTable::create(
                pool,
                ResourceMeter::unmetered(),
                TableConfig::new(SchemaType::new("m", ["a", "b"])).with_batch_size(16),
            )
            .unwrap();
            for id in 0..6u64 {
                t.register_source(
                    SourceId(id),
                    SourceClass::regular_low(Duration::from_minutes(15)),
                )
                .unwrap();
            }
            for i in 0..40i64 {
                for id in 0..6u64 {
                    t.put(&Record::dense(
                        SourceId(id),
                        Timestamp(i * 900_000_000),
                        [i as f64, id as f64],
                    ))
                    .unwrap();
                }
            }
            t.flush().unwrap();
            snap_json = serde_json::to_string(&t.snapshot().unwrap()).unwrap();
        }
        // Reopen the file fresh, restore, and query.
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 256);
        let snap: TableSnapshot = serde_json::from_str(&snap_json).unwrap();
        let t = OdhTable::restore(pool, ResourceMeter::unmetered(), &snap).unwrap();
        assert_eq!(t.source_count(), 6);
        assert_eq!(t.stats().snapshot().points_ingested, 480);
        let pts =
            t.historical_scan(SourceId(3), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(pts.len(), 40);
        assert_eq!(pts[7].values, vec![Some(7.0), Some(3.0)]);
        // And it accepts new writes.
        t.put(&Record::dense(SourceId(3), Timestamp(99 * 900_000_000), [9.0, 9.0])).unwrap();
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(3), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 41);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_refuses_unsealed_buffers() {
        let pool = BufferPool::new(Arc::new(odh_pager::disk::MemDisk::new()), 64);
        let t = OdhTable::create(
            pool,
            ResourceMeter::unmetered(),
            TableConfig::new(SchemaType::new("m", ["a"])).with_batch_size(1000),
        )
        .unwrap();
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        t.put(&Record::dense(SourceId(1), Timestamp(1), [1.0])).unwrap();
        assert_eq!(t.snapshot().err().unwrap().kind(), "config");
        t.flush().unwrap();
        assert!(t.snapshot().is_ok());
    }

    #[test]
    fn tombstones_and_late_marks_survive_snapshot_restore() {
        let path = tmp("hostile.pages");
        let snap_json;
        {
            let disk = Arc::new(FileDisk::create(&path).unwrap());
            let pool = BufferPool::new(disk, 256);
            let t = OdhTable::create(
                pool.clone(),
                ResourceMeter::unmetered(),
                TableConfig::new(SchemaType::new("m", ["a", "b"])).with_batch_size(16),
            )
            .unwrap();
            t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
            for i in 0..40i64 {
                t.put(&Record::dense(SourceId(1), Timestamp(i * 1_000_000), [i as f64, 0.0]))
                    .unwrap();
            }
            t.flush().unwrap();
            t.delete(&crate::delete::DeletePredicate::all_sources(5_000_000, 9_000_000)).unwrap();
            snap_json = serde_json::to_string(&t.snapshot().unwrap()).unwrap();
            pool.flush_all().unwrap();
        }
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 256);
        let snap: TableSnapshot = serde_json::from_str(&snap_json).unwrap();
        let t = OdhTable::restore(pool, ResourceMeter::unmetered(), &snap).unwrap();
        assert_eq!(t.tombstones().len(), 1, "tombstone restored");
        let pts =
            t.historical_scan(SourceId(1), Timestamp(i64::MIN), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 35, "restored tombstone still masks");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_snapshot_round_trips() {
        let cfg = TableConfig::new(SchemaType::new("x", ["t1", "t2"]))
            .with_batch_size(77)
            .with_policy(odh_compress::column::Policy::Lossy { max_dev: 0.25 })
            .with_mg_group_size(123);
        let snap = TableConfigSnapshot::from(&cfg);
        let back = TableConfig::from(&snap);
        assert_eq!(back.schema, cfg.schema);
        assert_eq!(back.batch_size, 77);
        assert_eq!(back.mg_group_size, 123);
    }
}
