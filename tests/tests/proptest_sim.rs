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
        let capacity = 5_000 + rng.below(45_000);
        let rate_bps = rng.uniform_range(1e3, 1e6);
        let mut q = DropTailQueue::new(capacity);
        // An independent model of the FIFO server: the `(end, bytes)` of
        // every accepted packet, and the bytes it has sent.
        let mut model: Vec<(f64, u32)> = Vec::new();
        let mut now = 0.0;
        let (mut accepted_bytes, mut sent_bytes) = (0u64, 0u64);
        for i in 0..n {
            now += rng.uniform_range(0.0, 0.05);
            let bytes = 1 + rng.below(4_999) as u32;
            let on_wire = |m: &[(f64, u32)]| -> u64 {
                m.iter()
                    .filter(|&&(end, _)| end > now)
                    .map(|&(_, b)| u64::from(b))
                    .sum()
            };
            let fits = on_wire(&model) + u64::from(bytes) <= capacity;
            match q.offer(now, i, bytes, rate_bps) {
                Ok(end) => {
                    assert!(fits, "accepted past the bound");
                    let start = model.last().map_or(now, |&(e, _)| e.max(now));
                    assert_eq!(
                        end.to_bits(),
                        (start + bytes as f64 * 8.0 / rate_bps).to_bits()
                    );
                    model.push((end, bytes));
                    accepted_bytes += u64::from(bytes);
                }
                Err(back) => {
                    assert!(!fits, "refused within the bound");
                    assert_eq!(back, i, "the refused packet is handed back");
                }
            }
            sent_bytes += q.take_sent_bytes();
            // Conservation: every accepted byte is either sent or still
            // on the wire, and the wire never holds more than the bound.
            assert_eq!(q.occupancy_bytes(), on_wire(&model));
            assert_eq!(accepted_bytes, sent_bytes + q.occupancy_bytes());
            assert!(q.occupancy_bytes() <= capacity);
        }
        let unsent = q.drain_unsent(now).count();
        sent_bytes += q.take_sent_bytes();
        assert_eq!(unsent, model.iter().filter(|&&(end, _)| end > now).count());
        assert!(sent_bytes <= accepted_bytes);
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
