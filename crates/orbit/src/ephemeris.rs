//! Memoized ephemeris and visibility sampling.
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
//! of which sweep point asks. [`VisibilityCache`] layers a
//! ground-visibility memo (elevation-mask test per satellite sample and
//! ground point) on top — the contact-window building block.
//!
//! Both caches are internally locked and shareable across the scenario
//! harness's worker threads. Cached values are pure functions of the key,
//! so cache hits can never change a result — parallel sweeps stay
//! bitwise-identical to serial ones no matter the hit pattern.

use crate::frames::{eci_to_ecef, Vec3};
use crate::propagator::{PerturbationModel, Propagator};
use crate::visibility::is_visible;
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

/// Key of a ground-visibility query: satellite sample key + ground point
/// + elevation mask, all exact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VisibilityKey {
    sample: SampleKey,
    ground: [u64; 3],
    mask: u64,
}

/// A memo of elevation-mask visibility tests layered over an
/// [`EphemerisCache`] — the repeated kernel of contact-window and access
/// computations.
#[derive(Debug, Default)]
pub struct VisibilityCache {
    ephemeris: EphemerisCache,
    map: Mutex<HashMap<VisibilityKey, bool>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VisibilityCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared ephemeris memo underneath.
    pub fn ephemeris(&self) -> &EphemerisCache {
        &self.ephemeris
    }

    /// Whether `prop` at `t_s` is visible from `ground_ecef` above
    /// `min_elevation_rad`, memoized; also returns the satellite sample
    /// so callers get the slant-range inputs for free.
    pub fn visible(
        &self,
        prop: &Propagator,
        t_s: f64,
        ground_ecef: Vec3,
        min_elevation_rad: f64,
    ) -> (bool, EphemerisSample) {
        let sample_key = SampleKey::new(prop, t_s);
        let key = VisibilityKey {
            sample: sample_key,
            ground: [
                ground_ecef.x.to_bits(),
                ground_ecef.y.to_bits(),
                ground_ecef.z.to_bits(),
            ],
            mask: min_elevation_rad.to_bits(),
        };
        let sample = self.ephemeris.sample(prop, t_s);
        if let Some(&v) = self.map.lock().expect("visibility cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v, sample);
        }
        let v = is_visible(ground_ecef, sample.ecef, min_elevation_rad);
        let added = self
            .map
            .lock()
            .expect("visibility cache lock")
            .insert(key, v)
            .is_none();
        count_lookup(added, &self.misses, &self.hits);
        (v, sample)
    }

    /// Cache hits so far (visibility layer only).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= distinct visibility tests computed) so far
    /// (visibility layer only).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;
    use crate::frames::{geodetic_to_ecef, Geodetic};
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
        // Every thread queries the same keys at once; whichever
        // computations race, each key is one miss and every other
        // lookup a hit.
        let cache = VisibilityCache::new();
        let ground = geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0));
        let (threads, keys, rounds) = (4u64, 8u64, 50u64);
        let barrier = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..rounds {
                        for k in 0..keys {
                            cache.visible(&prop(k as f64), 60.0, ground, 0.0);
                        }
                    }
                });
            }
        });
        let lookups = threads * keys * rounds;
        for (hits, misses) in [
            (cache.hits(), cache.misses()),
            (cache.ephemeris().hits(), cache.ephemeris().misses()),
        ] {
            assert_eq!(misses, keys);
            assert_eq!(hits, lookups - keys);
        }
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
    fn visibility_memo_hits_and_agrees() {
        let cache = VisibilityCache::new();
        let p = prop(0.0);
        let ground = geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0));
        let (a, sample) = cache.visible(&p, 0.0, ground, 0.0);
        let (b, _) = cache.visible(&p, 0.0, ground, 0.0);
        assert_eq!(a, b);
        assert_eq!(a, is_visible(ground, sample.ecef, 0.0));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // The underlying ephemeris sample was shared.
        assert_eq!(cache.ephemeris().misses(), 1);
        assert_eq!(cache.ephemeris().hits(), 1);
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
