//! An exact histogram of `u64` samples.
//!
//! The serving layer reports latency percentiles that committed baselines
//! pin to the microsecond (`results/serve_bench.csv` holds a p99 of
//! 1 297 512 µs), so a bucketed sketch would not do: [`Histogram`] keeps
//! the multiset itself. A quantile is the nearest-rank order statistic,
//! found by selection ([`slice::select_nth_unstable`], linear on average)
//! in the histogram's own buffer. A query reorders the samples, never
//! sorts them in full and never copies them, so one buffer answers any
//! number of quantiles.

/// The exact multiset of recorded samples.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// An empty histogram with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
        }
    }

    pub fn record(&mut self, sample: u64) {
        self.samples.push(sample);
    }

    /// Add every sample of `other`: the result is the multiset union.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Forget every sample, keeping the buffer for the next fill.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// The exact nearest-rank percentile (`pct` in 0–100): the sample of
    /// rank `round(pct/100 · (len − 1))` in ascending order, 0 when empty.
    pub fn quantile(&mut self, pct: f64) -> u64 {
        let n = self.samples.len();
        if n == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * (n - 1) as f64).round() as usize;
        *self.samples.select_nth_unstable(rank.min(n - 1)).1
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, samples: I) {
        self.samples.extend(samples);
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        Self {
            samples: samples.into_iter().collect(),
        }
    }
}
