//! Seeded randomness for simulations.
//!
//! A self-contained xoshiro256++ generator (seeded through splitmix64)
//! adding the distributions the traffic models need and a
//! stream-splitting constructor so independent subsystems (per-user
//! generators, per-link noise, per-sweep-task streams) get decorrelated
//! but reproducible streams from one master seed.
//!
//! No external dependencies: determinism across platforms and toolchain
//! versions is a correctness property of the scenario harness (parallel
//! sweeps must be bitwise-identical to serial ones), so the generator is
//! pinned here rather than inherited from a crate that may change its
//! stream between versions.

/// splitmix64 step — used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic simulation RNG (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed a master stream.
    pub fn new(seed: u64) -> Self {
        let mut st = seed;
        Self {
            s: [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ],
        }
    }

    /// Derive an independent substream: same `(seed, stream)` always
    /// yields the same stream, and distinct `stream` values decorrelate.
    pub fn substream(seed: u64, stream: u64) -> Self {
        // splitmix-style mixing of the pair.
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::new(z ^ (z >> 31))
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`, unbiased (modulo rejection).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        let threshold = n.wrapping_neg() % n;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % n;
            }
        }
    }

    /// Exponential with the given rate (events/s) — inter-arrival times of
    /// a Poisson process.
    ///
    /// # Panics
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive, got {rate}");
        // Inverse CDF; 1-u avoids ln(0).
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Bernoulli with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.uniform() < p
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 5);
    }

    #[test]
    fn substreams_reproducible_and_decorrelated() {
        let mut a1 = SimRng::substream(7, 0);
        let mut a2 = SimRng::substream(7, 0);
        let mut b = SimRng::substream(7, 1);
        assert_eq!(a1.uniform(), a2.uniform());
        let mut matches = 0;
        for _ in 0..100 {
            if a1.uniform() == b.uniform() {
                matches += 1;
            }
        }
        assert!(matches < 5);
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = SimRng::new(3);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            let v = rng.uniform_range(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut rng = SimRng::new(8);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn bad_exponential_rate_panics() {
        SimRng::new(0).exponential(0.0);
    }
}
