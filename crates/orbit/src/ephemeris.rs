//! Memoized ephemeris sampling.
//!
//! The Figure 2 sweeps evaluate the *same* orbits at the *same* epochs
//! over and over: `random_constellation(n, seed)` draws satellites
//! sequentially, so the size-`n` constellation of a trial is a prefix of
//! every larger size point of that trial, and each size point samples the
//! identical epoch grid. Re-propagating those orbits per size point is
//! the dominant redundant work in `latency_vs_satellites` /
//! `coverage_vs_satellites` (one Kepler solve plus two frame rotations
//! per satellite-epoch).
//!
//! [`EphemerisCache`] memoizes the per-satellite sample — ECI and ECEF
//! position — keyed by the exact bit patterns of
//! `(orbital elements, perturbation model, sample time)`, so any two
//! queries for the same orbit at the same epoch hit the cache regardless
//! of which sweep point asks.
//!
//! The cache is internally locked and shareable across the scenario
//! harness's worker threads. Cached values are pure functions of the key,
//! so cache hits can never change a result — parallel sweeps stay
//! bitwise-identical to serial ones no matter the hit pattern.

use crate::frames::{eci_to_ecef, Vec3};
use crate::propagator::{PerturbationModel, Propagator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Exact-bits cache key for one `(orbit, model, time)` sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleKey {
    bits: [u64; 8],
}

impl SampleKey {
    /// Key for `prop` sampled at `t_s`.
    pub fn new(prop: &Propagator, t_s: f64) -> Self {
        let el = prop.elements();
        let model = match prop.model() {
            PerturbationModel::TwoBody => 0u64,
            PerturbationModel::SecularJ2 => 1u64,
        };
        Self {
            bits: [
                el.semi_major_axis_m.to_bits(),
                el.eccentricity.to_bits(),
                el.inclination_rad.to_bits(),
                el.raan_rad.to_bits(),
                el.arg_perigee_rad.to_bits(),
                el.mean_anomaly_rad.to_bits(),
                model,
                t_s.to_bits(),
            ],
        }
    }
}

/// One cached ephemeris sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EphemerisSample {
    /// ECI position (m).
    pub eci: Vec3,
    /// ECEF position (m) at the same instant.
    pub ecef: Vec3,
}

/// Count a computed lookup: a miss if its insert added the key, else a
/// hit (another thread stored the key first), so misses equal distinct
/// keys on any thread schedule.
fn count_lookup(added: bool, misses: &AtomicU64, hits: &AtomicU64) {
    let counter = if added { misses } else { hits };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A memo table of ephemeris samples, shareable across threads.
#[derive(Debug, Default)]
pub struct EphemerisCache {
    map: Mutex<HashMap<SampleKey, EphemerisSample>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EphemerisCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (ECI, ECEF) sample of `prop` at `t_s`, computed at most once
    /// per distinct `(elements, model, t_s)` key.
    pub fn sample(&self, prop: &Propagator, t_s: f64) -> EphemerisSample {
        let key = SampleKey::new(prop, t_s);
        if let Some(&s) = self.map.lock().expect("ephemeris cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return s;
        }
        // Compute outside the lock: propagation is the expensive part,
        // and recomputing a sample another thread races us to is
        // harmless (pure function, identical value).
        let eci = prop.position_eci(t_s);
        let sample = EphemerisSample {
            eci,
            ecef: eci_to_ecef(eci, t_s),
        };
        let added = self
            .map
            .lock()
            .expect("ephemeris cache lock")
            .insert(key, sample)
            .is_none();
        count_lookup(added, &self.misses, &self.hits);
        sample
    }

    /// Samples for a whole constellation at `t_s`, in satellite order.
    pub fn samples(&self, props: &[Propagator], t_s: f64) -> Vec<EphemerisSample> {
        props.iter().map(|p| self.sample(p, t_s)).collect()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= distinct samples computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct samples currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("ephemeris cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;
    use crate::kepler::OrbitalElements;

    fn prop(ma_deg: f64) -> Propagator {
        Propagator::new(
            OrbitalElements::circular(km_to_m(780.0), 86.4, 0.0, ma_deg).unwrap(),
            PerturbationModel::TwoBody,
        )
    }

    #[test]
    fn cached_sample_matches_direct_propagation() {
        let cache = EphemerisCache::new();
        let p = prop(12.0);
        let s = cache.sample(&p, 345.6);
        assert_eq!(s.eci, p.position_eci(345.6));
        assert_eq!(s.ecef, eci_to_ecef(p.position_eci(345.6), 345.6));
    }

    #[test]
    fn repeat_queries_hit() {
        let cache = EphemerisCache::new();
        let p = prop(45.0);
        let a = cache.sample(&p, 100.0);
        let b = cache.sample(&p, 100.0);
        assert_eq!(a, b);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_threads_count_one_miss_per_key() {
        // All threads query each key at once; whichever computations
        // race, each key is one miss and every other lookup a hit.
        let cache = EphemerisCache::new();
        let (threads, keys, rounds) = (4u64, 8u64, 50u64);
        let props: Vec<_> = (0..keys).map(|k| prop(k as f64)).collect();
        let barrier = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        for p in &props {
                            barrier.wait();
                            cache.sample(p, 60.0);
                        }
                    }
                });
            }
        });
        let lookups = threads * keys * rounds;
        assert_eq!(cache.misses(), keys);
        assert_eq!(cache.hits(), lookups - keys);
        // A schedule may race no computation at all, so also replay a
        // race's loser: its insert finds the key stored, which is a hit.
        let (misses, hits) = (AtomicU64::new(0), AtomicU64::new(0));
        count_lookup(false, &misses, &hits);
        assert_eq!((misses.into_inner(), hits.into_inner()), (0, 1));
    }

    #[test]
    fn distinct_orbits_and_times_miss() {
        let cache = EphemerisCache::new();
        cache.sample(&prop(0.0), 0.0);
        cache.sample(&prop(1.0), 0.0); // different orbit
        cache.sample(&prop(0.0), 60.0); // different epoch
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn shared_across_threads() {
        let cache = EphemerisCache::new();
        let p = prop(30.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..16 {
                        cache.sample(&p, k as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.hits() + cache.misses(), 64);
    }
}
