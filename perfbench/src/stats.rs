//! Raw-sample statistics and the seeded generator behind every input.
//!
//! Quantiles come from the recorded samples themselves (linear
//! interpolation between order statistics), never from histogram bucket
//! bounds, so a reported p50 is a measured value, not a power-of-two
//! ceiling.

/// A set of raw measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), interpolated between order
    /// statistics; `NaN` when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_of(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p90, p99, p99.9 that still has at least ten samples
    /// beyond it, as `(percentile, value)`; `None` below 100 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let sorted = self.sorted();
        let n = sorted.len() as f64;
        [99.9, 99.0, 90.0]
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .map(|p| (p, quantile_of(&sorted, p / 100.0)))
    }
}

fn quantile_of(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// SplitMix64: small, fast, and fully determined by its seed, so the same
/// `--seed` always produces the same workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(s.tail().is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for v in 0..1000 {
            s.push(f64::from(v));
        }
        assert_eq!(s.tail().map(|t| t.0), Some(99.0));
    }
}
