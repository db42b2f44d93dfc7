//! Order statistics for the report: median + quartiles + n for host
//! timings, nearest-rank percentiles for latency populations, and the
//! process's peak resident set.

/// n, median and quartiles of a host-clock sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median — the spread the
    /// driver compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (exclusive method), so the numbers printed here are the numbers the
/// driver's acceptance rule sees. One sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary::default();
    }
    let at = |p: f64| -> f64 {
        if n == 1 {
            return v[0];
        }
        // position (n+1)·p on a 1-based axis, clamped into the sample
        let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Summary {
        n,
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// 1-based nearest rank of the `pct` cut in a population of `n`: the
/// smallest rank with at least `pct` % of the population at or below it.
/// The epsilon keeps `99.9 % × 20 000` at 19 980, not one float ulp above.
fn nearest_rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an already **sorted** population. Exact for
/// a fixed population (the 25 paper shapes), and the usual estimator for a
/// sampled one (300 000 completions).
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty population");
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `pct` cut — the
/// report prints it so a tail percentile is never quoted off a handful of
/// points.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - nearest_rank(n, pct)
}

/// Peak resident set of this process (`VmHWM`), MB. 0.0 where `/proc` is
/// not there to ask.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 99.9), 100.0);
        assert_eq!(samples_beyond(20_000, 99.9), 20);
        assert_eq!(samples_beyond(25, 99.0), 0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
