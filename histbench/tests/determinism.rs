//! The workload seed is the only source of randomness: the same seed
//! must give byte-identical inputs, and another seed different ones.

use histbench::workloads::{dashboard_live, history_scan, ingest_wire};
use histbench::{data, Config, Scale};

fn cfg(workload: &str, seed: u64) -> Config {
    Config {
        workload: workload.into(),
        seed,
        seconds: 1.0,
        trace: false,
        scale: Scale::Tiny,
        work_dir: std::env::temp_dir(),
    }
}

#[test]
fn ingest_frames_follow_the_seed() {
    let a = ingest_wire::generate(7, &cfg("ingest_wire", 7), 4);
    let b = ingest_wire::generate(7, &cfg("ingest_wire", 7), 4);
    let c = ingest_wire::generate(8, &cfg("ingest_wire", 8), 4);
    assert_eq!(a.digest, b.digest);
    let bytes = |i: &ingest_wire::Inputs| -> Vec<u8> {
        i.streams.iter().flat_map(|s| &s.frames).flat_map(|f| f.bytes.clone()).collect()
    };
    assert_eq!(bytes(&a), bytes(&b), "same seed, same frames");
    assert_ne!(a.digest, c.digest, "another seed, other frames");
}

#[test]
fn archive_records_follow_the_seed() {
    let digest = |seed| {
        let (_, _, td, ld) = history_scan::inputs(&cfg("history_scan", seed));
        (data::records_digest(&td), data::records_digest(&ld))
    };
    assert_eq!(digest(3), digest(3));
    let (a, b) = (digest(3), digest(4));
    assert!(a.0 != b.0 && a.1 != b.1, "another seed changes both datasets");
}

#[test]
fn live_feed_follows_the_seed() {
    let frames = |seed| {
        let (preload, mut feed, _) = dashboard_live::inputs(&cfg("dashboard_live", seed));
        let mut out = vec![data::records_digest(&preload).to_le_bytes().to_vec()];
        for _ in 0..50 {
            out.push(feed.next_frame().0);
        }
        out
    };
    assert_eq!(frames(5), frames(5));
    assert_ne!(frames(5), frames(6));
}

#[test]
fn every_late_row_is_sent_once() {
    let (_, mut feed, _) = dashboard_live::inputs(&cfg("dashboard_live", 9));
    let rows: u64 = (0..400).map(|_| feed.next_frame().1).sum();
    assert_eq!(rows, 400 * 20);
    assert!(feed.late_rows > 0, "the feed sends some rows late");
}
