//! Batch records — the on-heap serialization of the three structures.
//!
//! Every batch record carries its `end` timestamp in the header so scans
//! can decide overlap with a time range without touching the ValueBlob
//! (I/O-free pruning); only matching records pay blob decode cost.
//!
//! Since the v2 record tags, a sealed batch also carries one
//! [`TagSummary`] per tag — `(count, null_count, sum, min, max)` computed
//! from the raw columns at seal time, *before* any lossy encoding. A scan
//! that only needs `COUNT/SUM/AVG/MIN/MAX` over a time range that fully
//! covers the batch can be answered from the summary block alone, never
//! touching the ValueBlob. v1 tags (no summaries) still deserialize, so
//! snapshots written before the format change keep restoring.

use crate::blob::ValueBlob;
use odh_btree::KeyBuf;
use odh_compress::{delta, varint};
use odh_types::{GroupId, OdhError, Result, SourceId};

const T_RTS: u8 = 1;
const T_IRTS: u8 = 2;
const T_MG: u8 = 3;
// v2: same layout with a per-tag summary block between the header and
// the ValueBlob bytes.
const T_RTS2: u8 = 4;
const T_IRTS2: u8 = 5;
const T_MG2: u8 = 6;

/// Per-tag aggregate summary of one sealed batch, computed from the raw
/// (pre-compression) column at seal time — exact even under lossy blob
/// policies.
#[derive(Debug, Clone, PartialEq)]
pub struct TagSummary {
    /// Non-null values in the column.
    pub count: u64,
    /// NULL slots in the column (`count + null_count == n_points`).
    pub null_count: u64,
    /// Sum over the non-null values (0.0 when `count == 0`).
    pub sum: f64,
    /// Minimum non-null value; `+INFINITY` when `count == 0`.
    pub min: f64,
    /// Maximum non-null value; `-INFINITY` when `count == 0`.
    pub max: f64,
}

impl TagSummary {
    /// The identity element for [`TagSummary::merge`].
    pub fn empty() -> TagSummary {
        TagSummary { count: 0, null_count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold another summary into this one (summaries form a monoid).
    pub fn merge(&mut self, other: &TagSummary) {
        self.count += other.count;
        self.null_count += other.null_count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fold one raw value into this summary.
    pub fn add(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.count += 1;
                self.sum += x;
                self.min = self.min.min(x);
                self.max = self.max.max(x);
            }
            None => self.null_count += 1,
        }
    }

    /// Summarize one raw column.
    pub fn from_column(col: &[Option<f64>]) -> TagSummary {
        let mut s = TagSummary::empty();
        for v in col {
            s.add(*v);
        }
        s
    }
}

/// Summarize every tag column of a batch about to be sealed.
pub fn summarize_columns(cols: &[Vec<Option<f64>>]) -> Vec<TagSummary> {
    cols.iter().map(|c| TagSummary::from_column(c)).collect()
}

fn write_summaries(out: &mut Vec<u8>, summaries: &[TagSummary]) {
    varint::write_u64(out, summaries.len() as u64);
    for s in summaries {
        varint::write_u64(out, s.count);
        varint::write_u64(out, s.null_count);
        out.extend_from_slice(&s.sum.to_le_bytes());
        out.extend_from_slice(&s.min.to_le_bytes());
        out.extend_from_slice(&s.max.to_le_bytes());
    }
}

fn read_summaries(buf: &[u8], pos: &mut usize) -> Result<Vec<TagSummary>> {
    let n = varint::read_u64(buf, pos)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let count = varint::read_u64(buf, pos)?;
        let null_count = varint::read_u64(buf, pos)?;
        let mut f = [0u8; 8];
        let mut take = |pos: &mut usize| -> Result<f64> {
            let end = *pos + 8;
            if end > buf.len() {
                return Err(OdhError::Corrupt("truncated batch summary block".into()));
            }
            f.copy_from_slice(&buf[*pos..end]);
            *pos = end;
            Ok(f64::from_le_bytes(f))
        };
        let sum = take(pos)?;
        let min = take(pos)?;
        let max = take(pos)?;
        out.push(TagSummary { count, null_count, sum, min, max });
    }
    Ok(out)
}

/// A Regular Time Series batch: `b` points of one source at a fixed
/// interval. Timestamps are implicit: `begin + i × interval`.
#[derive(Debug, Clone, PartialEq)]
pub struct RtsBatch {
    pub source: SourceId,
    pub begin: i64,
    pub interval: i64,
    pub count: u32,
    pub blob: ValueBlob,
    /// Per-tag seal-time summaries; `None` on records read back from a
    /// pre-v2 snapshot.
    pub summaries: Option<Vec<TagSummary>>,
}

/// An Irregular Time Series batch: `b` points of one source with an
/// explicit delta-of-delta timestamp block.
#[derive(Debug, Clone, PartialEq)]
pub struct IrtsBatch {
    pub source: SourceId,
    pub begin: i64,
    pub end: i64,
    pub timestamps: Vec<i64>,
    pub blob: ValueBlob,
    /// Per-tag seal-time summaries; `None` on pre-v2 records.
    pub summaries: Option<Vec<TagSummary>>,
}

/// A Mixed Grouping batch: `b` points, in timestamp order, from a *group*
/// of low-frequency sources; `ids[i]` is the source of point `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct MgBatch {
    pub group: GroupId,
    pub begin: i64,
    pub end: i64,
    pub ids: Vec<SourceId>,
    pub timestamps: Vec<i64>,
    pub blob: ValueBlob,
    /// Per-tag seal-time summaries over the *whole group batch* (all
    /// member sources pooled); `None` on pre-v2 records.
    pub summaries: Option<Vec<TagSummary>>,
}

impl RtsBatch {
    pub fn end(&self) -> i64 {
        self.begin + (self.count.max(1) as i64 - 1) * self.interval
    }

    pub fn timestamps(&self) -> Vec<i64> {
        (0..self.count as i64).map(|i| self.begin + i * self.interval).collect()
    }

    /// B-tree key: `(id, begin_time)` — the first two fields (Fig. 1).
    pub fn key(&self) -> Vec<u8> {
        KeyBuf::new().push_u64(self.source.0).push_i64(self.begin).build()
    }

    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blob.len() + 32);
        out.push(if self.summaries.is_some() { T_RTS2 } else { T_RTS });
        varint::write_u64(&mut out, self.source.0);
        varint::write_i64(&mut out, self.begin);
        varint::write_i64(&mut out, self.interval);
        varint::write_u64(&mut out, self.count as u64);
        if let Some(s) = &self.summaries {
            write_summaries(&mut out, s);
        }
        out.extend_from_slice(&self.blob.bytes);
        out
    }
}

impl IrtsBatch {
    pub fn key(&self) -> Vec<u8> {
        KeyBuf::new().push_u64(self.source.0).push_i64(self.begin).build()
    }

    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blob.len() + self.timestamps.len() + 32);
        out.push(if self.summaries.is_some() { T_IRTS2 } else { T_IRTS });
        varint::write_u64(&mut out, self.source.0);
        let ts_block = delta::encode_timestamps(&self.timestamps);
        out.extend_from_slice(&ts_block);
        if let Some(s) = &self.summaries {
            write_summaries(&mut out, s);
        }
        out.extend_from_slice(&self.blob.bytes);
        out
    }
}

impl MgBatch {
    pub fn key(&self) -> Vec<u8> {
        KeyBuf::new().push_u32(self.group.0).push_i64(self.begin).build()
    }

    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blob.len() + self.timestamps.len() * 2 + 32);
        out.push(if self.summaries.is_some() { T_MG2 } else { T_MG });
        varint::write_u64(&mut out, self.group.0 as u64);
        varint::write_u64(&mut out, self.ids.len() as u64);
        // Source ids of consecutive points are delta-coded: grouped
        // low-frequency sources report in near-id-order sweeps, so deltas
        // are small — this is the "data grouping compresses ids" effect.
        let mut prev = 0i64;
        for id in &self.ids {
            varint::write_i64(&mut out, id.0 as i64 - prev);
            prev = id.0 as i64;
        }
        let ts_block = delta::encode_timestamps(&self.timestamps);
        out.extend_from_slice(&ts_block);
        if let Some(s) = &self.summaries {
            write_summaries(&mut out, s);
        }
        out.extend_from_slice(&self.blob.bytes);
        out
    }
}

/// Any batch record, as read back from a heap file.
#[derive(Debug, Clone, PartialEq)]
pub enum Batch {
    Rts(RtsBatch),
    Irts(IrtsBatch),
    Mg(MgBatch),
}

impl Batch {
    /// Deserialize a heap payload.
    pub fn deserialize(buf: &[u8]) -> Result<Batch> {
        let tag = *buf.first().ok_or_else(|| OdhError::Corrupt("empty batch record".into()))?;
        let mut pos = 1usize;
        match tag {
            T_RTS | T_RTS2 => {
                let source = SourceId(varint::read_u64(buf, &mut pos)?);
                let begin = varint::read_i64(buf, &mut pos)?;
                let interval = varint::read_i64(buf, &mut pos)?;
                let count = varint::read_u64(buf, &mut pos)?;
                let summaries =
                    if tag == T_RTS2 { Some(read_summaries(buf, &mut pos)?) } else { None };
                let blob = ValueBlob { bytes: buf[pos..].to_vec() };
                // Heap pages carry no checksum, so the header is checked
                // against the blob: `count` is what COUNT(*) summaries and
                // cache allocations trust, and `begin + (count-1)·interval`
                // must not overflow where `end()` computes it.
                let blob_rows = blob.n_points()?;
                let count = u32::try_from(count)
                    .ok()
                    .filter(|&c| c as usize == blob_rows)
                    .ok_or_else(|| {
                        OdhError::Corrupt(format!("RTS record: count {count}, blob {blob_rows}"))
                    })?;
                (count.max(1) as i64 - 1)
                    .checked_mul(interval)
                    .and_then(|span| begin.checked_add(span))
                    .ok_or_else(|| {
                        OdhError::Corrupt(format!(
                            "RTS record: {count} rows from {begin} every {interval} overflow"
                        ))
                    })?;
                Ok(Batch::Rts(RtsBatch { source, begin, interval, count, blob, summaries }))
            }
            T_IRTS | T_IRTS2 => {
                let source = SourceId(varint::read_u64(buf, &mut pos)?);
                let timestamps = delta::decode_timestamps_at(buf, &mut pos)?;
                let (begin, end) = bounds(&timestamps)?;
                let summaries =
                    if tag == T_IRTS2 { Some(read_summaries(buf, &mut pos)?) } else { None };
                let blob = ValueBlob { bytes: buf[pos..].to_vec() };
                Ok(Batch::Irts(IrtsBatch { source, begin, end, timestamps, blob, summaries }))
            }
            T_MG | T_MG2 => {
                let group = GroupId(varint::read_u64(buf, &mut pos)? as u32);
                let n = varint::read_u64(buf, &mut pos)? as usize;
                let mut ids = Vec::with_capacity(n);
                let mut prev = 0i64;
                for _ in 0..n {
                    prev += varint::read_i64(buf, &mut pos)?;
                    ids.push(SourceId(prev as u64));
                }
                let timestamps = delta::decode_timestamps_at(buf, &mut pos)?;
                if timestamps.len() != n {
                    return Err(OdhError::Corrupt(format!(
                        "MG record: {n} ids but {} timestamps",
                        timestamps.len()
                    )));
                }
                let (begin, end) = bounds(&timestamps)?;
                let summaries =
                    if tag == T_MG2 { Some(read_summaries(buf, &mut pos)?) } else { None };
                let blob = ValueBlob { bytes: buf[pos..].to_vec() };
                Ok(Batch::Mg(MgBatch { group, begin, end, ids, timestamps, blob, summaries }))
            }
            other => Err(OdhError::Corrupt(format!("unknown batch tag {other}"))),
        }
    }

    /// Time coverage `[begin, end]` of this batch.
    pub fn time_range(&self) -> (i64, i64) {
        match self {
            Batch::Rts(b) => (b.begin, b.end()),
            Batch::Irts(b) => (b.begin, b.end),
            Batch::Mg(b) => (b.begin, b.end),
        }
    }

    pub fn n_points(&self) -> usize {
        match self {
            Batch::Rts(b) => b.count as usize,
            Batch::Irts(b) => b.timestamps.len(),
            Batch::Mg(b) => b.timestamps.len(),
        }
    }

    pub fn blob(&self) -> &ValueBlob {
        match self {
            Batch::Rts(b) => &b.blob,
            Batch::Irts(b) => &b.blob,
            Batch::Mg(b) => &b.blob,
        }
    }

    /// Seal-time per-tag summaries, when the record carries them.
    pub fn summaries(&self) -> Option<&[TagSummary]> {
        match self {
            Batch::Rts(b) => b.summaries.as_deref(),
            Batch::Irts(b) => b.summaries.as_deref(),
            Batch::Mg(b) => b.summaries.as_deref(),
        }
    }

    /// The single source of a per-source batch; `None` for MG batches
    /// (their rows carry per-row ids).
    pub fn source(&self) -> Option<SourceId> {
        match self {
            Batch::Rts(b) => Some(b.source),
            Batch::Irts(b) => Some(b.source),
            Batch::Mg(_) => None,
        }
    }

    /// B-tree key of this batch in its container.
    pub fn key(&self) -> Vec<u8> {
        match self {
            Batch::Rts(b) => b.key(),
            Batch::Irts(b) => b.key(),
            Batch::Mg(b) => b.key(),
        }
    }

    /// Re-serialize to the heap payload form (the compactor copies
    /// already-large batches between generations without re-encoding).
    pub fn serialize(&self) -> Vec<u8> {
        match self {
            Batch::Rts(b) => b.serialize(),
            Batch::Irts(b) => b.serialize(),
            Batch::Mg(b) => b.serialize(),
        }
    }

    /// Explicit timestamps of every point (materialized for RTS).
    pub fn timestamps(&self) -> Vec<i64> {
        match self {
            Batch::Rts(b) => b.timestamps(),
            Batch::Irts(b) => b.timestamps.clone(),
            Batch::Mg(b) => b.timestamps.clone(),
        }
    }
}

fn bounds(ts: &[i64]) -> Result<(i64, i64)> {
    if ts.is_empty() {
        return Err(OdhError::Corrupt("batch with zero timestamps".into()));
    }
    Ok((ts[0], *ts.last().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_compress::column::Policy;

    fn blob_for(ts: &[i64], tags: usize) -> ValueBlob {
        let cols: Vec<Vec<Option<f64>>> = (0..tags)
            .map(|c| ts.iter().map(|&t| Some(t as f64 * 0.001 + c as f64)).collect())
            .collect();
        ValueBlob::encode(ts, &cols, Policy::Lossless)
    }

    #[test]
    fn rts_round_trip() {
        let ts: Vec<i64> = (0..50).map(|i| 1_000_000 + i * 20_000).collect();
        let b = RtsBatch {
            source: SourceId(42),
            begin: ts[0],
            interval: 20_000,
            count: 50,
            blob: blob_for(&ts, 3),
            summaries: None,
        };
        assert_eq!(b.timestamps(), ts);
        assert_eq!(b.end(), *ts.last().unwrap());
        let back = Batch::deserialize(&b.serialize()).unwrap();
        assert_eq!(back, Batch::Rts(b.clone()));
        assert_eq!(back.time_range(), (b.begin, b.end()));
        assert_eq!(back.n_points(), 50);
    }

    #[test]
    fn irts_round_trip() {
        let ts = vec![10i64, 17, 40, 41, 1000];
        let b = IrtsBatch {
            source: SourceId(7),
            begin: 10,
            end: 1000,
            timestamps: ts.clone(),
            blob: blob_for(&ts, 2),
            summaries: None,
        };
        let back = Batch::deserialize(&b.serialize()).unwrap();
        assert_eq!(back, Batch::Irts(b));
    }

    #[test]
    fn mg_round_trip() {
        let ts = vec![100i64, 100, 105, 110];
        let b = MgBatch {
            group: GroupId(3),
            begin: 100,
            end: 110,
            ids: vec![SourceId(900), SourceId(901), SourceId(7), SourceId(902)],
            timestamps: ts.clone(),
            blob: blob_for(&ts, 4),
            summaries: None,
        };
        let back = Batch::deserialize(&b.serialize()).unwrap();
        assert_eq!(back, Batch::Mg(b));
    }

    #[test]
    fn keys_order_by_id_then_time() {
        let mk = |src, begin| RtsBatch {
            source: SourceId(src),
            begin,
            interval: 1,
            count: 1,
            blob: blob_for(&[begin], 1),
            summaries: None,
        };
        assert!(mk(1, 500).key() < mk(2, 0).key());
        assert!(mk(2, 0).key() < mk(2, 1).key());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Batch::deserialize(&[]).is_err());
        assert!(Batch::deserialize(&[99, 0, 0]).is_err());
    }

    #[test]
    fn single_point_rts_end_is_begin() {
        let b = RtsBatch {
            source: SourceId(1),
            begin: 77,
            interval: 1000,
            count: 1,
            blob: blob_for(&[77], 1),
            summaries: None,
        };
        assert_eq!(b.end(), 77);
    }

    #[test]
    fn v2_summary_round_trip() {
        let ts = vec![10i64, 17, 40, 41, 1000];
        let cols = vec![
            vec![Some(1.0), None, Some(3.5), Some(-2.0), None],
            vec![None, None, None, None, None],
        ];
        let b = IrtsBatch {
            source: SourceId(7),
            begin: 10,
            end: 1000,
            timestamps: ts.clone(),
            blob: ValueBlob::encode(&ts, &cols, Policy::Lossless),
            summaries: Some(summarize_columns(&cols)),
        };
        let back = Batch::deserialize(&b.serialize()).unwrap();
        assert_eq!(back, Batch::Irts(b.clone()));
        let s = back.summaries().unwrap();
        assert_eq!(s[0], TagSummary { count: 3, null_count: 2, sum: 2.5, min: -2.0, max: 3.5 });
        // All-null tag: neutral sentinels, so the summary stays comparable.
        assert_eq!(
            s[1],
            TagSummary {
                count: 0,
                null_count: 5,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY
            }
        );
    }

    #[test]
    fn v1_records_still_deserialize_without_summaries() {
        // A record serialized with `summaries: None` uses the v1 tag and
        // must read back exactly as before the format change.
        let ts: Vec<i64> = (0..8).map(|i| i * 500).collect();
        let b = RtsBatch {
            source: SourceId(3),
            begin: 0,
            interval: 500,
            count: 8,
            blob: blob_for(&ts, 2),
            summaries: None,
        };
        let bytes = b.serialize();
        assert_eq!(bytes[0], 1, "summary-less batches keep the v1 tag");
        let back = Batch::deserialize(&bytes).unwrap();
        assert_eq!(back.summaries(), None);
        assert_eq!(back, Batch::Rts(b));
    }
}
