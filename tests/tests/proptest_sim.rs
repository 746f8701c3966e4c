//! Randomized property tests of the simulation engine and queues: event
//! ordering, conservation laws, and statistics invariants.
//!
//! Cases are drawn from a seeded [`SimRng`] stream (see
//! `proptest_orbit.rs` for the scheme) — deterministic, dependency-free
//! property testing.

use openspace_sim::prelude::*;

const CASES: u64 = 256;

fn for_cases(seed: u64, mut f: impl FnMut(&mut SimRng)) {
    for case in 0..CASES {
        let mut rng = SimRng::substream(seed, case);
        f(&mut rng);
    }
}

#[test]
fn events_always_pop_in_nondecreasing_time_order() {
    for_cases(0xB1, |rng| {
        let n = 1 + rng.index(199);
        let times: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.0, 1e6)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.processed(), times.len() as u64);
    });
}

#[test]
fn equal_times_preserve_insertion_order() {
    for_cases(0xB2, |rng| {
        let n = 1 + rng.index(99);
        let t = rng.uniform_range(0.0, 1e3);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(t, i);
        }
        let mut expect = 0;
        while let Some((_, i)) = q.pop() {
            assert_eq!(i, expect);
            expect += 1;
        }
    });
}

#[test]
fn queue_conserves_packets() {
    for_cases(0xB3, |rng| {
        let n = 1 + rng.index(99);
        let sizes: Vec<u32> = (0..n).map(|_| 1 + rng.below(4_999) as u32).collect();
        let capacity = 5_000 + rng.below(45_000);
        let drains = rng.index(50);
        let mut q = DropTailQueue::new(capacity);
        // Packets and bytes the queue should hold.
        let (mut held, mut held_bytes) = (0u64, 0u64);
        for (i, &s) in sizes.iter().enumerate() {
            match q.enqueue(i, s) {
                Ok(()) => (held, held_bytes) = (held + 1, held_bytes + s as u64),
                Err(back) => assert_eq!(back, i, "the refused packet is handed back"),
            }
        }
        for _ in 0..drains {
            if let Some((i, bytes)) = q.dequeue() {
                assert_eq!(bytes, sizes[i]);
                (held, held_bytes) = (held - 1, held_bytes - bytes as u64);
            }
        }
        // Conservation: the queue holds exactly the accepted, undrained
        // packets and their bytes, never more than its capacity.
        assert_eq!(q.len() as u64, held);
        assert_eq!(q.occupancy_bytes(), held_bytes);
        assert!(held_bytes <= capacity);
    });
}

#[test]
fn summary_quantiles_are_monotone_and_bounded() {
    for_cases(0xB5, |rng| {
        let n = 2 + rng.index(498);
        let samples: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1e9, 1e9)).collect();
        let q1 = rng.uniform();
        let q2 = rng.uniform();
        let mut s = Summary::new();
        for &x in &samples {
            s.add(x);
        }
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = s.quantile(lo);
        let v_hi = s.quantile(hi);
        assert!(v_lo <= v_hi + 1e-9);
        assert!(v_lo >= s.min() - 1e-9 && v_hi <= s.max() + 1e-9);
        assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
    });
}

#[test]
fn rng_streams_are_reproducible() {
    for_cases(0xB6, |rng| {
        let seed = rng.next_u64();
        let stream = rng.next_u64();
        let mut a = SimRng::substream(seed, stream);
        let mut b = SimRng::substream(seed, stream);
        for _ in 0..32 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    });
}

#[test]
fn cbr_arrivals_are_exactly_periodic() {
    for_cases(0xB7, |rng| {
        let rate = rng.uniform_range(1_000.0, 1e7);
        let bytes = 64 + rng.below(8_936) as u32;
        let mut flow = Arrivals::new(TrafficKind::Cbr, rate, bytes, SimRng::new(rng.next_u64()));
        let period = bytes as f64 * 8.0 / rate;
        let mut t = flow.start(0.0);
        assert!((0.0..period).contains(&t), "phase {t} outside one period");
        for _ in 0..50 {
            let next = flow.next(t);
            assert!((next - t - period).abs() < 1e-9);
            t = next;
        }
    });
}

#[test]
fn poisson_arrivals_are_strictly_increasing() {
    for_cases(0xB8, |rng| {
        let seed = rng.next_u64();
        let rate = rng.uniform_range(1_000.0, 1e6);
        let mut flow = Arrivals::new(TrafficKind::Poisson, rate, 1_000, SimRng::new(seed));
        let mut last = flow.start(0.0);
        for _ in 0..100 {
            let t = flow.next(last);
            assert!(t >= last);
            last = t;
        }
    });
}
