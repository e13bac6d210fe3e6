//! Readings of the program's own `odh_*` metrics, taken from outside
//! through [`Historian::metrics_text`], and their change over a window.

use odh_core::Historian;
use std::collections::BTreeMap;

/// One scrape: every exposition line, keyed by `name{labels}`. Histogram
/// quantile lines are dropped; their `_count` and `_sum` lines are kept
/// (`*_seconds` sums are in seconds, other sums in the histogram's unit).
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn take(h: &Historian) -> Scrape {
        Scrape::parse(&h.metrics_text())
    }

    pub fn parse(text: &str) -> Scrape {
        let mut m = BTreeMap::new();
        for line in text.lines() {
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            if key.contains("quantile=") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                m.insert(key.to_string(), v);
            }
        }
        Scrape(m)
    }

    /// Sum over every label set of metric `name`.
    pub fn sum(&self, name: &str) -> f64 {
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        self.0.iter().filter(|(k, _)| base(k) == name).map(|(_, v)| v).sum::<f64>() + 0.0
    }

    /// Sums of metric `name` grouped by the value of `label`.
    pub fn by_label(&self, name: &str, label: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let pat = format!("{label}=\"");
        for (k, v) in &self.0 {
            if base(k) != name {
                continue;
            }
            if let Some(rest) = k.split_once(&pat).map(|(_, r)| r) {
                if let Some((val, _)) = rest.split_once('"') {
                    *out.entry(val.to_string()).or_default() += v;
                }
            }
        }
        out
    }

    /// `later - self`, line by line (lines absent before count from 0).
    pub fn delta(&self, later: &Scrape) -> Scrape {
        Scrape(
            later
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v - self.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Add another window's change into this one.
    pub fn accumulate(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }
}

fn base(key: &str) -> &str {
    key.split_once('{').map_or(key, |(b, _)| b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_across_labels_and_skips_quantiles() {
        let a = Scrape::parse(
            "odh_x_total{table=\"a\"} 3\nodh_x_total{table=\"b\"} 4\n\
             odh_h_seconds{quantile=\"0.5\"} 0.1\nodh_h_seconds_sum 2.5\n\
             odh_c{table=\"t\",codec=\"xor\"} 2\nodh_c{table=\"u\",codec=\"xor\"} 1\n",
        );
        assert_eq!(a.sum("odh_x_total"), 7.0);
        assert_eq!(a.sum("odh_h_seconds"), 0.0);
        assert_eq!(a.sum("odh_h_seconds_sum"), 2.5);
        assert_eq!(a.by_label("odh_c", "codec")["xor"], 3.0);
        let b = Scrape::parse("odh_x_total{table=\"a\"} 10\nodh_x_total{table=\"b\"} 4\n");
        assert_eq!(a.delta(&b).sum("odh_x_total"), 7.0);
    }
}
