//! Error paths through the public APIs: every failure must be a typed
//! `OdhError`, never a panic or silent corruption.

use odh_core::server::DataServer;
use odh_core::Historian;
use odh_pager::disk::MemDisk;
use odh_pager::log::{LogStore, MemLog};
use odh_sim::ResourceMeter;
use odh_storage::batch::Batch;
use odh_storage::{DeletePredicate, TableConfig, Wal};
use odh_types::{
    DataType, Datum, Record, RelSchema, Row, SchemaType, SourceClass, SourceId, Timestamp,
};
use proptest::prelude::*;
use std::sync::Arc;

fn historian() -> Historian {
    let h = Historian::builder().build().unwrap();
    h.define_schema_type(TableConfig::new(SchemaType::new("t", ["a", "b"])).with_batch_size(8))
        .unwrap();
    h.register_source("t", SourceId(1), SourceClass::irregular_high()).unwrap();
    h
}

#[test]
fn writes_to_unknown_sources_and_types_fail_cleanly() {
    let h = historian();
    let w = h.writer("t").unwrap();
    let err = w.write(&Record::dense(SourceId(99), Timestamp(0), [1.0, 2.0])).err().unwrap();
    assert_eq!(err.kind(), "not_found");
    assert!(h.writer("missing_type").is_err());
    let err = w.write(&Record::dense(SourceId(1), Timestamp(0), [1.0])).err().unwrap();
    assert_eq!(err.kind(), "schema");
}

#[test]
fn sql_errors_are_typed() {
    let h = historian();
    assert_eq!(h.sql("this is not sql").err().unwrap().kind(), "parse");
    assert_eq!(h.sql("select nope from t_v").err().unwrap().kind(), "plan");
    assert_eq!(h.sql("select * from missing").err().unwrap().kind(), "plan");
    assert_eq!(
        h.sql("select * from t_v where timestamp > 'not a time'").err().unwrap().kind(),
        "plan"
    );
    assert_eq!(h.sql("select a, COUNT(*) from t_v").err().unwrap().kind(), "plan");
    // A well-formed query on an empty table is NOT an error.
    assert_eq!(h.sql("select * from t_v where id = 1").unwrap().rows.len(), 0);
}

#[test]
fn corrupt_batch_payloads_are_rejected() {
    assert_eq!(Batch::deserialize(&[]).err().unwrap().kind(), "corrupt");
    assert_eq!(Batch::deserialize(&[42, 1, 2, 3]).err().unwrap().kind(), "corrupt");
    // A valid RTS batch, truncated mid-blob, must fail decode — not panic.
    use odh_compress::column::Policy;
    use odh_storage::blob::ValueBlob;
    let ts: Vec<i64> = (0..50).map(|i| i * 1_000).collect();
    let cols = vec![ts.iter().map(|&t| Some(t as f64)).collect::<Vec<_>>()];
    let b = odh_storage::batch::RtsBatch {
        source: SourceId(1),
        begin: 0,
        interval: 1_000,
        count: 50,
        blob: ValueBlob::encode(&ts, &cols, Policy::Lossless),
        summaries: None,
    };
    let bytes = b.serialize();
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 3] {
        match Batch::deserialize(&bytes[..cut]) {
            // Header may survive the cut; decoding the blob must not.
            Ok(Batch::Rts(r)) => {
                assert!(r.blob.decode_tags(&r.timestamps(), &[0]).is_err(), "cut={cut}");
            }
            Ok(other) => panic!("wrong structure {other:?}"),
            Err(e) => assert_eq!(e.kind(), "corrupt"),
        }
    }
    // Headers the blob contradicts: a span past `i64::MAX` (`end()` would
    // overflow) and a row count the 50-row blob does not hold.
    for bad in [
        odh_storage::batch::RtsBatch { interval: i64::MAX / 2, ..b.clone() },
        odh_storage::batch::RtsBatch { count: 3_000_000, ..b.clone() },
    ] {
        let err = Batch::deserialize(&bad.serialize()).expect_err("corrupt header accepted");
        assert_eq!(err.kind(), "corrupt");
    }
}

#[test]
fn relational_inserts_validate_types() {
    let h = historian();
    let t = h.create_relational_table(RelSchema::new(
        "dim",
        [("id", DataType::I64), ("name", DataType::Str)],
    ));
    let err = t.insert(&Row::new(vec![Datum::str("x"), Datum::str("y")])).err().unwrap();
    assert_eq!(err.kind(), "schema");
    let err = t.insert(&Row::new(vec![Datum::I64(1)])).err().unwrap();
    assert_eq!(err.kind(), "schema");
    t.insert(&Row::new(vec![Datum::I64(1), Datum::str("ok")])).unwrap();
    assert_eq!(t.row_count(), 1);
}

#[test]
fn csv_reader_surfaces_errors_and_keeps_going_until_then() {
    let dir = std::env::temp_dir().join(format!("odh-robust-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("mixed.csv");
    std::fs::write(&p, "1,1000,1.5\n2,2000,\n3,broken\n").unwrap();
    let rows: Vec<_> = iotx::csv::CsvReader::open(&p).unwrap().collect();
    assert!(rows[0].is_ok());
    assert!(rows[1].is_ok(), "empty value field is NULL, not an error");
    assert_eq!(rows[2].as_ref().err().unwrap().kind(), "corrupt");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queries_with_empty_ranges_and_extreme_bounds() {
    let h = historian();
    let w = h.writer("t").unwrap();
    for i in 0..20i64 {
        w.write(&Record::dense(SourceId(1), Timestamp(i * 1000), [1.0, 2.0])).unwrap();
    }
    h.flush().unwrap();
    // Inverted range → empty, not error.
    let r = h
        .sql("select * from t_v where timestamp between '2020-01-01 00:00:00' and '2019-01-01 00:00:00'")
        .unwrap();
    assert!(r.rows.is_empty());
    // Range ending before epoch.
    let r = h
        .sql("select * from t_v where timestamp between '1960-01-01 00:00:00' and '1961-01-01 00:00:00'")
        .unwrap();
    assert!(r.rows.is_empty());
    // Negative ids simply match nothing.
    let r = h.sql("select * from t_v where id = -5").unwrap();
    assert!(r.rows.is_empty());
}

/// The ingest-disorder contract: out-of-order arrival is NEVER an error.
/// The accepted disorder window is up to `batch_size` rows since a
/// source's last seal — such rows sit in the open buffer and are
/// absorbed by the seal-time sort. Anything older than the seal
/// watermark is routed to the WAL-covered side buffer, still accepted
/// and immediately queryable. Delete predicates, by contrast, validate:
/// malformed requests are typed errors, never silent no-ops.
#[test]
fn disorder_window_contract_and_delete_validation() {
    let h = historian();
    let w = h.writer("t").unwrap();
    // Within the window: the open batch absorbs arbitrary disorder with
    // no side-path detour.
    for ts in [5_000i64, 1_000, 3_000, 2_000, 4_000] {
        w.write(&Record::dense(SourceId(1), Timestamp(ts), [1.0, 2.0])).unwrap();
    }
    assert_eq!(
        h.registry().sum_counter("odh_ooo_side_rows_total"),
        0,
        "in-window disorder must not take the side path"
    );
    // Seal twice, then arrive behind the watermark: beyond the window,
    // the row takes the side path — accepted, counted, not an error.
    // (Seals complete off-thread; the flush barrier forces the watermark
    // advance so the next row is deterministically late.)
    for i in 0..16i64 {
        w.write(&Record::dense(SourceId(1), Timestamp(10_000 + i * 1_000), [1.0, 2.0])).unwrap();
    }
    h.flush().unwrap();
    w.write(&Record::dense(SourceId(1), Timestamp(500), [9.0, 9.0])).unwrap();
    assert_eq!(h.registry().sum_counter("odh_ooo_side_rows_total"), 1);
    // Every row is queryable regardless of which route it took.
    assert_eq!(h.sql("select * from t_v where id = 1").unwrap().rows.len(), 22);
    // Inverted delete ranges are config errors; unknown schema types are
    // not_found.
    let err = h.delete("t", &DeletePredicate::all_sources(10, 5)).err().unwrap();
    assert_eq!(err.kind(), "config");
    let err = h.delete("missing", &DeletePredicate::all_sources(0, 1)).err().unwrap();
    assert_eq!(err.kind(), "not_found");
}

#[test]
fn duplicate_definitions_rejected() {
    let h = historian();
    let err =
        h.define_schema_type(TableConfig::new(SchemaType::new("t", ["a", "b"]))).err().unwrap();
    assert_eq!(err.kind(), "config");
    let err = h.register_source("t", SourceId(1), SourceClass::irregular_high()).err().unwrap();
    assert_eq!(err.kind(), "config");
}

/// A real WAL with every frame kind: a table definition, registrations,
/// in-order points (IRTS and MG sources, NULLs included), late points and
/// a predicate delete. Nothing is checkpointed, so replay rebuilds the
/// whole server from the log.
fn wal_bytes() -> Vec<u8> {
    let meter = ResourceMeter::unmetered();
    let log = Arc::new(MemLog::new());
    let server =
        DataServer::with_disk_wal(0, meter, Arc::new(MemDisk::new()), 256, log.clone()).unwrap();
    let table = server
        .create_table(TableConfig::new(SchemaType::new("w", ["a", "b"])).with_batch_size(4))
        .unwrap();
    table.register_source(SourceId(0), SourceClass::irregular_high()).unwrap();
    table.register_source(SourceId(1), SourceClass::irregular_low()).unwrap();
    for i in 0..9i64 {
        let b = if i % 3 == 0 { None } else { Some(-(i as f64)) };
        table
            .put(&Record::new(SourceId(i as u64 % 2), Timestamp(100 + i), vec![Some(i as f64), b]))
            .unwrap();
    }
    table.put(&Record::dense(SourceId(0), Timestamp(1), [7.0, 7.0])).unwrap(); // late
    table.delete(&DeletePredicate::all_sources(102, 103)).unwrap();
    server.sync().unwrap();
    log.read_all().unwrap()
}

/// Whether a frame body is well formed by the recovery rule, restated
/// independently of the WAL code: a point body holds its 20-byte header,
/// its bitmap and one value per set bit (trailing bytes allowed); the
/// other kinds carry a table id and their JSON.
fn body_well_formed(kind: u8, body: &[u8]) -> bool {
    let json_after = |skip: usize| body.get(skip..);
    match kind {
        1 | 5 => {
            if body.len() < 20 {
                return false;
            }
            let n = u16::from_le_bytes([body[18], body[19]]) as usize;
            let Some(bitmap) = body.get(20..20 + n.div_ceil(8)) else {
                return false;
            };
            let present = (0..n).filter(|i| bitmap[i / 8] & (1 << (i % 8)) != 0).count();
            body.len() >= 20 + bitmap.len() + 8 * present
        }
        2 => json_after(2)
            .is_some_and(|j| serde_json::from_slice::<odh_storage::TableConfigSnapshot>(j).is_ok()),
        3 => json_after(10).is_some_and(|j| serde_json::from_slice::<SourceClass>(j).is_ok()),
        4 => json_after(2).is_some_and(|j| serde_json::from_slice::<DeletePredicate>(j).is_ok()),
        _ => false,
    }
}

/// LSNs of the longest prefix of well-formed frames (length in
/// `9..=1 MiB`, complete, CRC-valid, well-formed body), ascending.
fn well_formed_prefix(bytes: &[u8]) -> Vec<u64> {
    let mut lsns = Vec::new();
    let mut off = 0usize;
    while let Some(h) = bytes.get(off..off + 8) {
        let len = u32::from_le_bytes(h[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(h[4..8].try_into().unwrap());
        if !(9..=1 << 20).contains(&len) {
            break;
        }
        let Some(payload) = bytes.get(off + 8..off + 8 + len) else { break };
        if odh_storage::wal::crc32(payload) != crc || !body_well_formed(payload[8], &payload[9..]) {
            break;
        }
        lsns.push(u64::from_le_bytes(payload[..8].try_into().unwrap()));
        off += 8 + len;
    }
    lsns.sort_unstable();
    lsns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncated, bit-flipped or spliced log bytes: `Wal::open` keeps
    /// exactly the longest well-formed prefix, and replaying it into a
    /// fresh server either succeeds or fails with a typed error — never
    /// a panic or an out-of-bounds read.
    #[test]
    fn damaged_wal_bytes_recover_the_well_formed_prefix(
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 0..3),
        splice in prop::option::of((any::<usize>(), prop::collection::vec(any::<u8>(), 1..24))),
        truncate in any::<bool>(),
    ) {
        let mut bytes = wal_bytes();
        for (at, bit) in &flips {
            let i = at % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        if let Some((at, junk)) = &splice {
            let i = at % (bytes.len() + 1);
            bytes.splice(i..i, junk.iter().copied());
        }
        if truncate {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let want = well_formed_prefix(&bytes);

        let log = Arc::new(MemLog::new());
        log.append(&bytes).unwrap();
        let (_, recovery) = Wal::open(log.clone(), ResourceMeter::unmetered()).unwrap();
        let got: Vec<u64> = recovery.frames().map(|f| f.lsn).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(recovery.warning.is_some(), recovery.truncated_bytes > 0);

        let replayed = DataServer::open_with_wal(
            0,
            ResourceMeter::unmetered(),
            Arc::new(MemDisk::new()),
            256,
            log,
        );
        if let Err(e) = replayed {
            prop_assert!(!e.kind().is_empty());
        }
    }
}
