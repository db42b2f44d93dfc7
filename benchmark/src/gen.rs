//! Seeded input generators. Every workload builds its inputs here from
//! `--seed`; the library under test only ever sees the generated inputs.
//!
//! The generators are the benchmark's own (one splitmix64 stream, no
//! dependency on the library's `rand` shim) so a change to the library's
//! initialisers cannot silently change what the benchmark feeds it.

use sw_tensor::{Layout, Shape4, Tensor4};

/// splitmix64: tiny, well mixed, and trivially reproducible.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Independent streams for one `--seed`: `stream` keeps the arrival
    /// process, the menu draws and the tensors from sharing a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(`s`) popularity over a menu of `n` items: rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One open-loop request: when it is *due* on the logical clock and which
/// menu item it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_us: u64,
    pub item: usize,
}

/// `n` Poisson arrivals at `rate_per_s` (exponential gaps, logical µs,
/// at least 1 µs apart) with items drawn by `pick`.
pub fn poisson_trace(
    seed: u64,
    n: usize,
    rate_per_s: f64,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Arrival> {
    let mut gaps = Rng::new(seed, 1);
    let mut items = Rng::new(seed, 2);
    let mean_gap_us = 1e6 / rate_per_s;
    let mut due_us = 0u64;
    (0..n)
        .map(|_| {
            due_us += ((-gaps.unit().ln() * mean_gap_us).round() as u64).max(1);
            Arrival {
                due_us,
                item: pick(&mut items),
            }
        })
        .collect()
}

/// The same item sequence offered at another rate: gaps scale by
/// `from_rate / to_rate`, so the rungs of a ladder differ in nothing but
/// load.
pub fn rescale(trace: &[Arrival], from_rate: f64, to_rate: f64) -> Vec<Arrival> {
    let k = from_rate / to_rate;
    let mut last = 0u64;
    trace
        .iter()
        .map(|a| {
            last = ((a.due_us as f64 * k).round() as u64).max(last + 1);
            Arrival {
                due_us: last,
                item: a.item,
            }
        })
        .collect()
}

/// Values in `{-4..=4} / 4`: every product is a multiple of 1/16 and every
/// partial sum is exact in `f64`, so a plan that reassociates additions is
/// still *bit*-identical to the reference.
pub fn lattice_tensor(shape: Shape4, layout: Layout, seed: u64, stream: u64) -> Tensor4<f64> {
    let mut rng = Rng::new(seed, stream);
    Tensor4::from_fn(shape, layout, |_, _, _, _| {
        (rng.below(9) as f64 - 4.0) * 0.25
    })
}

/// A `classes`-way image task: class `k` lights up the `k`-th vertical
/// band of every channel, plus seeded noise. Labels are balanced so the
/// loss curve has the same shape for every seed.
pub fn train_task(
    seed: u64,
    batch: usize,
    channels: usize,
    hw: usize,
    classes: usize,
) -> (Tensor4<f64>, Vec<usize>) {
    let mut rng = Rng::new(seed, 3);
    let offset = rng.below(classes);
    let labels: Vec<usize> = (0..batch).map(|b| (b + offset) % classes).collect();
    let band = hw.div_ceil(classes);
    let x = Tensor4::from_fn(
        Shape4::new(batch, channels, hw, hw),
        Layout::Nchw,
        |b, _, _, c| {
            let lit = c / band == labels[b];
            (if lit { 1.0 } else { 0.1 }) + (rng.unit() - 0.5) * 0.1
        },
    );
    (x, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_trace(seed: u64) -> Vec<Arrival> {
        let z = Zipf::new(24, 1.1);
        poisson_trace(seed, 2_000, 6.0, |r| z.sample(r))
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        assert_eq!(zipf_trace(7), zipf_trace(7));
        assert_ne!(zipf_trace(7), zipf_trace(8));
    }

    #[test]
    fn arrivals_are_strictly_increasing_at_about_the_asked_rate() {
        let t = zipf_trace(3);
        assert!(t.windows(2).all(|w| w[0].due_us < w[1].due_us));
        let rate = t.len() as f64 / (t.last().unwrap().due_us as f64 / 1e6);
        assert!((rate / 6.0 - 1.0).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn zipf_rank_zero_is_hottest_and_every_item_is_reachable() {
        let t = zipf_trace(11);
        let mut counts = [0usize; 24];
        for a in &t {
            counts[a.item] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[5]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn rescale_keeps_items_and_changes_only_load() {
        let base = zipf_trace(5);
        let fast = rescale(&base, 6.0, 12.0);
        assert!(base.iter().zip(&fast).all(|(a, b)| a.item == b.item));
        let ratio = base.last().unwrap().due_us as f64 / fast.last().unwrap().due_us as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        assert!(fast.windows(2).all(|w| w[0].due_us < w[1].due_us));
    }

    #[test]
    fn tensors_and_tasks_follow_the_seed() {
        let s = Shape4::new(2, 3, 4, 4);
        let a = lattice_tensor(s, Layout::Nchw, 1, 9);
        assert!(a == lattice_tensor(s, Layout::Nchw, 1, 9));
        assert!(a != lattice_tensor(s, Layout::Nchw, 2, 9));
        assert!(a
            .data()
            .iter()
            .all(|v| (v * 4.0).fract() == 0.0 && v.abs() <= 1.0));
        let (x1, y1) = train_task(1, 8, 2, 6, 4);
        let (x2, _) = train_task(2, 8, 2, 6, 4);
        assert!(x1 == train_task(1, 8, 2, 6, 4).0);
        assert!(x1 != x2);
        for k in 0..4 {
            assert_eq!(y1.iter().filter(|&&y| y == k).count(), 2);
        }
    }
}
