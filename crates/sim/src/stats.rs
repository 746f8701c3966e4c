//! Statistics collectors for experiment output.
//!
//! [`Summary`] accumulates scalar samples (Welford mean/variance plus a
//! reservoir-free exact quantile store) and prints the rows the
//! experiment harness reports.

/// Scalar sample accumulator with exact quantiles.
///
/// Stores all samples; experiments here produce at most a few million
/// scalars, which is cheap, and exactness beats sketch error in a
/// reproduction artefact.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    ///
    /// # Panics
    /// Panics on NaN (a NaN sample is always an upstream bug).
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        let n = self.samples.len() as f64 + 1.0;
        let delta = x - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (x - self.mean);
        self.samples.push(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation; 0 with fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            (self.m2 / (self.samples.len() as f64 - 1.0)).sqrt()
        }
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Fold another summary into this one.
    ///
    /// Implemented by **replaying** `other`'s samples through
    /// [`add`](Summary::add) in their current storage order: insertion
    /// order until a quantile query reorders them. So `a.merge(&b)` on
    /// an unqueried `b` is bit-identical to feeding `a` the concatenated
    /// sample stream — which makes the merge associative at the bit
    /// level and lets per-worker summaries fold into exactly what a
    /// serial run would have produced. (Combining Welford moments with
    /// Chan's formula would be O(1) but rounds differently than
    /// sequential accumulation, breaking that contract.)
    pub fn merge(&mut self, other: &Summary) {
        self.samples.reserve(other.samples.len());
        for &x in &other.samples {
            self.add(x);
        }
    }

    /// Exact quantile by linear interpolation, `q` in `[0, 1]`: the
    /// samples of ranks `floor` and `ceil` of `q · (n − 1)` in
    /// `total_cmp` order (NaN is already excluded at `add`), weighted by
    /// the fractional part.
    ///
    /// Each query selects its ranks in `O(n)` instead of sorting: the
    /// lower rank by `select_nth_unstable_by`, the upper one as the least
    /// sample above it. The selected values are those a full sort would
    /// put at both ranks, bit for bit. A query reorders the stored
    /// samples, hence `&mut self`; see [`merge`](Self::merge).
    ///
    /// # Panics
    /// Panics if empty or `q` out of range.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.samples.is_empty(), "quantile of empty summary");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        let (_, &mut lo_value, above) = self.samples.select_nth_unstable_by(lo, f64::total_cmp);
        let hi_value = if hi == lo {
            lo_value
        } else {
            // Everything above rank `lo` is in `above`, so rank `lo + 1`
            // is its least element.
            above
                .iter()
                .copied()
                .min_by(f64::total_cmp)
                .expect("rank hi is in range")
        };
        lo_value * (1.0 - frac) + hi_value * frac
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_set() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138).abs() < 1e-3);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Summary::new();
        for x in 1..=100 {
            s.add(x as f64);
        }
        assert!((s.median() - 50.5).abs() < 1e-9);
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 100.0).abs() < 1e-12);
        assert!((s.p95() - 95.05).abs() < 0.01);
    }

    #[test]
    fn quantile_works_after_more_adds() {
        let mut s = Summary::new();
        s.add(1.0);
        s.add(3.0);
        assert_eq!(s.median(), 2.0);
        s.add(100.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn merge_matches_sequential_feed_bitwise() {
        let xs = [2.0, 4.0, 4.0, 5.0];
        let ys = [7.0, 9.0, 1.0];
        let mut serial = Summary::new();
        for x in xs.iter().chain(&ys) {
            serial.add(*x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        xs.iter().for_each(|&x| a.add(x));
        ys.iter().for_each(|&y| b.add(y));
        a.merge(&b);
        assert_eq!(a.count(), serial.count());
        assert_eq!(a.mean().to_bits(), serial.mean().to_bits());
        assert_eq!(a.std_dev().to_bits(), serial.std_dev().to_bits());
        assert_eq!(a.median().to_bits(), serial.median().to_bits());
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let mut a = Summary::new();
        a.add(3.0);
        let before = (a.count(), a.mean().to_bits());
        a.merge(&Summary::new());
        assert_eq!((a.count(), a.mean().to_bits()), before);
        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean().to_bits(), a.mean().to_bits());
    }

    #[test]
    fn quantile_stays_exact_across_queries_and_adds() {
        let mut s = Summary::new();
        for x in [5.0, 1.0, 3.0] {
            s.add(x);
        }
        // Queries reorder the samples; answers must agree and stay exact,
        // also after a later add.
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        s.add(0.0);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        Summary::new().quantile(0.5);
    }
}
