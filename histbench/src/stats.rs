//! Latency samples and the order statistics reported from them.

/// Latency samples of one operation class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

/// Samples that must lie beyond a reported percentile for it to count as
/// supported by the run.
pub const TAIL_SUPPORT: usize = 10;

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn append(&mut self, other: &mut Samples) {
        self.0.append(&mut other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<f64>() / self.0.len() as f64)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        Some(v[rank - 1])
    }

    /// Whether `q` leaves at least [`TAIL_SUPPORT`] samples above it.
    pub fn supports(&self, q: f64) -> bool {
        let n = self.0.len();
        n > 0 && n - ((q * n as f64).ceil() as usize).min(n) >= TAIL_SUPPORT
    }

    /// `q` if the run supports it, `None` otherwise.
    pub fn supported_quantile(&self, q: f64) -> Option<f64> {
        if self.supports(q) {
            self.quantile(q)
        } else {
            None
        }
    }

    /// The highest percentile (in percent, to 0.1) with at least
    /// [`TAIL_SUPPORT`] samples above it, and its value.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        let n = self.0.len();
        if n <= TAIL_SUPPORT {
            return None;
        }
        let mut pct = ((1.0 - TAIL_SUPPORT as f64 / n as f64) * 1000.0).floor() / 10.0;
        while pct > 0.0 && !self.supports(pct / 100.0) {
            pct -= 0.1;
        }
        Some((pct, self.quantile(pct / 100.0)?))
    }
}

// A run is cut into windows (mix cycles or rounds). A rate or a median
// is taken per window and the run reports the median over its windows,
// which the per-window lists in the report line show. A p99 is taken over
// every untraced sample of the run, pooled, so that slow windows count in
// full.

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(i as f64);
        }
        assert!(!s.supports(0.99));
        s.push(999.0);
        assert!(s.supports(0.99));
        assert_eq!(s.quantile(0.99), Some(989.0));
        assert_eq!(s.quantile(0.5), Some(499.0));
    }

    #[test]
    fn highest_supported_leaves_ten_beyond() {
        let mut s = Samples::default();
        for i in 0..200 {
            s.push(i as f64);
        }
        let (pct, v) = s.highest_supported().unwrap();
        assert!((pct - 95.0).abs() < 1e-9, "{pct}");
        assert_eq!(v, 189.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
