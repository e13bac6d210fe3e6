//! Seeded inputs: iotx TD and LD records, their pre-encoded wire frames,
//! the reference answers the correctness oracles compare against, and
//! the historian schema every workload shares.
//!
//! The workload seed is the only source of randomness: it derives the TD
//! and LD generator seeds and every query parameter, so one seed always
//! yields byte-identical frames and queries.

use iotx::ld::{self, LdSpec};
use iotx::td::{self, TdSpec};
use odh_core::Historian;
use odh_net::frame;
use odh_storage::TableConfig;
use odh_types::{Duration, Record, Result, SourceClass, SourceId};

pub const TD: &str = "trade";
pub const LD: &str = "observation";
pub const TD_TAGS: usize = td::TRADE_TAGS.len();
pub const LD_TAGS: usize = ld::OBSERVATION_TAGS.len();
/// Points per sealed batch (the paper's `b`) for both schema types.
pub const BATCH_POINTS: usize = 512;
/// Sources per Mixed-Grouping group for the sparse LD stations.
pub const LD_MG_GROUP: u64 = 1000;

/// Derive an independent sub-seed for one input stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// TD: `accounts` accounts trading at 20 Hz each for `secs` seconds.
pub fn td_spec(seed: u64, accounts: u64, secs: i64) -> TdSpec {
    TdSpec {
        accounts,
        hz_per_account: 20.0,
        duration: Duration::from_secs(secs),
        seed: sub_seed(seed, 1),
    }
}

/// LD: `sensors` stations at the paper's 23 s replayed interval, all 15
/// Observation tags in the schema (3–8 present per station).
pub fn ld_spec(seed: u64, sensors: u64, secs: i64) -> LdSpec {
    LdSpec {
        sensors,
        mean_interval: Duration::from_secs(23),
        duration: Duration::from_secs(secs),
        tags: LD_TAGS,
        seed: sub_seed(seed, 2),
    }
}

/// Define both schema types on `h` and register every source with its
/// Table 1 class: TD accounts irregular high-frequency (IRTS), LD
/// stations irregular low-frequency (MG).
pub fn define_schema(
    h: &Historian,
    accounts: u64,
    sensors: u64,
    compact_interval_ms: u64,
) -> Result<()> {
    h.define_schema_type(
        TableConfig::new(td::trade_schema_type())
            .with_batch_size(BATCH_POINTS)
            .with_compact_interval_ms(compact_interval_ms),
    )?;
    h.define_schema_type(
        TableConfig::new(ld::observation_schema_type(LD_TAGS))
            .with_batch_size(BATCH_POINTS)
            .with_mg_group_size(LD_MG_GROUP)
            .with_compact_interval_ms(compact_interval_ms),
    )?;
    for a in 0..accounts {
        h.register_source(TD, SourceId(a), SourceClass::irregular_high())?;
    }
    for s in 0..sensors {
        h.register_source(LD, SourceId(s), SourceClass::irregular_low())?;
    }
    Ok(())
}

/// One pre-encoded `BATCH` frame.
pub struct Frame {
    pub bytes: Vec<u8>,
    pub rows: u64,
}

/// The frames one wire session sends, seqs numbered from 1.
pub struct Stream {
    pub schema: &'static str,
    pub ntags: usize,
    pub frames: Vec<Frame>,
    pub rows: u64,
    pub points: u64,
}

/// Encode `records` into frames of at most `frame_rows` rows.
pub fn encode_stream(
    schema: &'static str,
    ntags: usize,
    records: &[Record],
    frame_rows: usize,
) -> Stream {
    let frames: Vec<Frame> = records
        .chunks(frame_rows.max(1))
        .enumerate()
        .map(|(i, chunk)| {
            let mut bytes = Vec::new();
            frame::encode_batch(&mut bytes, i as u64 + 1, ntags, chunk)
                .expect("generated records fit a wire frame");
            Frame { bytes, rows: chunk.len() as u64 }
        })
        .collect();
    Stream {
        schema,
        ntags,
        frames,
        rows: records.len() as u64,
        points: records.iter().map(|r| r.data_points() as u64).sum(),
    }
}

/// Split `records` into `parts` by source (source id mod `parts`),
/// keeping each source's rows in generation order.
pub fn split_by_source(records: Vec<Record>, parts: usize) -> Vec<Vec<Record>> {
    let parts = parts.max(1);
    let mut out: Vec<Vec<Record>> = (0..parts).map(|_| Vec::new()).collect();
    for r in records {
        out[(r.source.0 % parts as u64) as usize].push(r);
    }
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over every frame of every stream, in order.
pub fn digest(streams: &[Stream]) -> u64 {
    streams.iter().flat_map(|s| &s.frames).fold(FNV_OFFSET, |h, f| fnv(h, &f.bytes))
}

/// FNV-1a over every record's source, timestamp and values, in order.
pub fn records_digest(records: &[Record]) -> u64 {
    records.iter().fold(FNV_OFFSET, |mut h, r| {
        h = fnv(h, &r.source.0.to_le_bytes());
        h = fnv(h, &r.ts.micros().to_le_bytes());
        for v in &r.values {
            h = match v {
                Some(v) => fnv(fnv(h, &[1]), &v.to_bits().to_le_bytes()),
                None => fnv(h, &[0]),
            };
        }
        h
    })
}

/// What the generator says the stored data must answer.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    pub rows: u64,
    /// Non-NULL points.
    pub points: u64,
    /// Per-tag sums of the non-NULL values, in schema order.
    pub tag_sums: Vec<f64>,
    /// Per-tag sums of absolute values (the tolerance scale for the sums).
    pub tag_abs: Vec<f64>,
    /// Rows per source id.
    pub per_source: Vec<u64>,
}

impl Reference {
    pub fn of(records: &[Record], ntags: usize, sources: u64) -> Reference {
        let mut r = Reference {
            tag_sums: vec![0.0; ntags],
            tag_abs: vec![0.0; ntags],
            per_source: vec![0; sources as usize],
            ..Reference::default()
        };
        for rec in records {
            r.rows += 1;
            r.per_source[rec.source.0 as usize] += 1;
            for (t, v) in rec.values.iter().enumerate() {
                if let Some(v) = v {
                    r.points += 1;
                    r.tag_sums[t] += v;
                    r.tag_abs[t] += v.abs();
                }
            }
        }
        r
    }

    /// Does `sum` equal tag `t`'s reference sum up to summation order?
    pub fn sum_matches(&self, t: usize, sum: f64) -> bool {
        (sum - self.tag_sums[t]).abs() <= 1e-9 * self.tag_abs[t].max(1.0)
    }
}

/// A weighted schedule: every cycle of `Σ weight` draws holds each item
/// exactly `weight` times, in a seeded random order. Fixing the
/// composition (instead of drawing each time independently) keeps the
/// run-to-run spread of a mix with rare heavy queries down to what the
/// system does, not what the dice did. Used for the query mix and for
/// stratified query parameters.
pub struct Deck<T> {
    cards: Vec<T>,
    pos: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(mix: &[(T, u32)]) -> Deck<T> {
        let cards: Vec<T> =
            mix.iter().flat_map(|(item, w)| std::iter::repeat_n(*item, *w as usize)).collect();
        assert!(!cards.is_empty(), "a schedule needs a positive weight");
        let pos = cards.len();
        Deck { cards, pos }
    }

    pub fn next(&mut self, rng: &mut impl rand::Rng) -> T {
        if self.pos == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = (rng.gen::<u64>() % (i as u64 + 1)) as usize;
                self.cards.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.cards[self.pos - 1]
    }
}

/// Uniform draws from `[0, 1)`, stratified: each cycle of `n` draws puts
/// one draw in each of `n` equal strata, in seeded order.
pub struct Strata(Deck<u32>);

impl Strata {
    pub fn new(n: u32) -> Strata {
        let strata: Vec<(u32, u32)> = (0..n).map(|i| (i, 1)).collect();
        Strata(Deck::new(&strata))
    }

    pub fn next(&mut self, rng: &mut impl rand::Rng) -> f64 {
        let n = self.0.cards.len() as f64;
        (self.0.next(rng) as f64 + rng.gen::<f64>()) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_per_stream_and_seed() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn deck_cycles_hold_the_exact_mix() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut deck = Deck::new(&[("a", 3), ("b", 1)]);
        let mut strata = Strata::new(4);
        let mut seen: Vec<u32> = (0..4).map(|_| (strata.next(&mut rng) * 4.0) as u32).collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3]);
        for _ in 0..5 {
            let mut cycle: Vec<&str> = (0..4).map(|_| deck.next(&mut rng)).collect();
            cycle.sort_unstable();
            assert_eq!(cycle, ["a", "a", "a", "b"]);
        }
    }
}
