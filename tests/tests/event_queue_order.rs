//! Property suite pinning the event queue's order contract: every pop
//! returns the pending event with the least `(time, seq)`, where `seq`
//! is the schedule-call counter, so same-time events fire in schedule
//! order and a simulation is a pure function of its inputs and seed.
//!
//! [`EventQueue`] runs in lockstep with an independent oracle, a plain
//! list of every scheduled `(time, seq, payload)` whose pop is a linear
//! scan for the least `(time, seq)`. Adversarial seeded schedules
//! (same-timestamp bursts, microsecond-to-day spans, interleaved
//! schedule/pop, handlers that schedule offspring mid-run) must pop the
//! oracle's sequence bit for bit, and end with the oracle's `processed`,
//! `depth_high_water` and clock.
//!
//! Every schedule runs twice: once with every event on the far lane
//! ([`EventQueue::schedule`], the one-heap baseline) and once with a
//! seeded coin choosing the lane of each schedule call
//! ([`EventQueue::schedule_near`] on heads). The oracle has no lanes, so
//! the lane an event takes must never change when it pops.

use openspace_sim::prelude::{EventQueue, SimRng};

/// The reference model: pending events in schedule order, popped by
/// scanning for the least `(time, seq)`.
#[derive(Default)]
struct Oracle {
    pending: Vec<(f64, u64, u32)>,
    seq: u64,
    now: f64,
    processed: u64,
    high_water: usize,
}

impl Oracle {
    fn schedule(&mut self, at: f64, payload: u32) {
        self.pending.push((at, self.seq, payload));
        self.seq += 1;
        self.high_water = self.high_water.max(self.pending.len());
    }

    fn next(&self) -> Option<usize> {
        (0..self.pending.len()).reduce(|best, i| {
            let (a, b) = (self.pending[i], self.pending[best]);
            if a.0 < b.0 || (a.0 == b.0 && a.1 < b.1) {
                i
            } else {
                best
            }
        })
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let (t, _, payload) = self.pending.remove(self.next()?);
        self.now = t;
        self.processed += 1;
        Some((t.to_bits(), payload))
    }

    /// The clock after `run_until(until)`: the horizon if the queue
    /// drained (or stopped) short of it.
    fn advance_to(&mut self, until: f64) {
        if let Some(i) = self.next() {
            assert!(self.pending[i].0 > until, "run_until left a due event");
        }
        self.now = self.now.max(until);
    }
}

/// Which lane each schedule call feeds: always the far one, or a seeded
/// coin per call.
struct Lanes(Option<SimRng>);

impl Lanes {
    /// The two rules every schedule runs under, the coin seeded by `seed`.
    fn both(seed: u64) -> [Lanes; 2] {
        [Lanes(None), Lanes(Some(SimRng::substream(0xE9F0, seed)))]
    }

    fn name(&self) -> &'static str {
        if self.0.is_some() {
            "random lanes"
        } else {
            "far lane"
        }
    }

    fn schedule(&mut self, q: &mut EventQueue<u32>, at: f64, payload: u32) {
        if self.0.as_mut().is_some_and(|rng| rng.chance(0.5)) {
            q.schedule_near(at, payload);
        } else {
            q.schedule(at, payload);
        }
    }
}

fn assert_same_state(q: &EventQueue<u32>, oracle: &Oracle, ctx: &str) {
    assert_eq!(q.processed(), oracle.processed, "{ctx}: processed");
    assert_eq!(
        q.depth_high_water(),
        oracle.high_water,
        "{ctx}: depth high-water"
    );
    assert_eq!(q.pending(), oracle.pending.len(), "{ctx}: pending");
    assert_eq!(
        q.now().to_bits(),
        oracle.now.to_bits(),
        "{ctx}: final clock"
    );
}

/// Drive a seeded mix of schedule bursts and pops against the queue
/// and the oracle, comparing every pop as `(time-bits, payload)`.
fn assert_schedule_pops_in_order(seed: u64, spans: &[f64], lanes: &mut Lanes, ctx: &str) {
    let ctx = format!("{ctx} seed {seed}, {}", lanes.name());
    let mut q = EventQueue::new();
    let mut oracle = Oracle::default();
    let mut rng = SimRng::substream(0xE9E9, seed);
    let mut next_id = 0u32;
    for _ in 0..600 {
        if rng.uniform() < 0.55 {
            // A burst of 1-4 events on the *same* timestamp: their
            // order is decided by the seq tie-break alone.
            let at = q.now() + spans[rng.index(spans.len())] * rng.uniform();
            for _ in 0..1 + rng.index(4) {
                lanes.schedule(&mut q, at, next_id);
                oracle.schedule(at, next_id);
                next_id += 1;
            }
        } else {
            let got = q.pop().map(|(t, e)| (t.to_bits(), e));
            assert_eq!(got, oracle.pop(), "{ctx}: pop {}", oracle.processed);
        }
    }
    while let Some((t, e)) = q.pop() {
        assert_eq!(Some((t.to_bits(), e)), oracle.pop(), "{ctx}: drain");
    }
    assert_eq!(oracle.pop(), None, "{ctx}: queue drained early");
    assert_same_state(&q, &oracle, &ctx);
}

#[test]
fn adversarial_schedules_pop_in_time_seq_order() {
    for seed in 0..20 {
        for mut lanes in Lanes::both(seed) {
            // Dense sub-second offsets: many near-collisions.
            assert_schedule_pops_in_order(seed, &[1e-4, 2e-3, 0.5], &mut lanes, "dense");
            // Mixed microsecond-to-day spans: far-future events wait
            // behind long runs of near ones.
            let spans = [1e-6, 3e-5, 1.0, 86_400.0];
            assert_schedule_pops_in_order(seed, &spans, &mut lanes, "mixed-span");
            // Degenerate: every event at one of two timestamps, so
            // ordering is decided almost entirely by the seq tie-break.
            if seed < 10 {
                assert_schedule_pops_in_order(seed, &[0.0, 1.0], &mut lanes, "two-timestamp");
            }
        }
    }
}

#[test]
fn handler_cascades_pop_in_time_seq_order() {
    // The handler schedules offspring mid-run — the shape the packet
    // engine produces (each `HopArrive` schedules the next hop's) — at
    // deliberately mixed time scales.
    for mut lanes in Lanes::both(0) {
        let ctx = lanes.name();
        let until = 2.0e6;
        let mut q = EventQueue::new();
        let mut oracle = Oracle::default();
        for i in 0..32u32 {
            lanes.schedule(&mut q, i as f64 * 0.125, i);
            oracle.schedule(i as f64 * 0.125, i);
        }
        let mut pops = 0usize;
        q.run_until(until, |q, t, e| {
            assert_eq!(
                Some((t.to_bits(), e)),
                oracle.pop(),
                "{ctx}: cascade pop {pops}"
            );
            pops += 1;
            // ≤2 children per pop for the first 6000 pops, then drain.
            if pops < 6_000 {
                let children = [
                    Some((t + 1e-6 * (e as f64 + 1.0), e.wrapping_add(32))),
                    pops.is_multiple_of(3)
                        .then(|| (t + 86_400.0 / (e as f64 + 1.0), e.wrapping_add(33))),
                ];
                for (at, child) in children.into_iter().flatten() {
                    lanes.schedule(q, at, child);
                    oracle.schedule(at, child);
                }
            }
        });
        oracle.advance_to(until);
        assert!(pops > 5_000, "{ctx}: cascade must actually cascade");
        assert_same_state(&q, &oracle, &format!("{ctx}: cascade"));
    }
}

#[test]
fn a_batch_drains_as_its_sorted_schedule() {
    // Schedule everything up front, then drain: the pop sequence is the
    // schedule list sorted by (time, seq), ties and all.
    for mut lanes in Lanes::both(1) {
        let mut rng = SimRng::substream(0xE9EA, 0);
        let mut q = EventQueue::new();
        let mut want: Vec<(f64, u64, u32)> = Vec::new();
        for i in 0..2_000u32 {
            let t = match rng.index(3) {
                0 => rng.index(7) as f64 * 0.25,
                1 => rng.uniform() * 1e-6,
                _ => rng.uniform() * 86_400.0 * 365.0,
            };
            lanes.schedule(&mut q, t, i);
            want.push((t, i as u64, i));
        }
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let got: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.to_bits(), e))
            .collect();
        let want: Vec<(u64, u32)> = want.iter().map(|&(t, _, e)| (t.to_bits(), e)).collect();
        assert_eq!(got, want, "{}", lanes.name());
        assert_eq!(q.processed(), 2_000);
        assert_eq!(q.depth_high_water(), 2_000);
    }
}

#[test]
fn every_size_to_seventy_drains_in_time_seq_order() {
    // Sizes 0..=70 leave the heap's last group of four children holding
    // one to four entries at every depth up to four levels, so both the
    // full-group and the partly filled group child selection run.
    for size in 0..=70u32 {
        for mut lanes in Lanes::both(u64::from(size)) {
            let ctx = format!("size {size}, {}", lanes.name());
            let mut rng = SimRng::substream(0xE9EB, u64::from(size));
            let mut q = EventQueue::new();
            let mut oracle = Oracle::default();
            for i in 0..size {
                let at = rng.index(9) as f64 * 0.5;
                lanes.schedule(&mut q, at, i);
                oracle.schedule(at, i);
            }
            while let Some((t, e)) = q.pop() {
                assert_eq!(Some((t.to_bits(), e)), oracle.pop(), "{ctx}");
            }
            assert_eq!(oracle.pop(), None, "{ctx}: queue drained early");
            assert_same_state(&q, &oracle, &ctx);
        }
    }
}

#[test]
fn deep_churn_with_exact_ties_pops_in_time_seq_order() {
    // A steady pop-one/schedule-one churn 5,000 deep, the depth of the
    // benchmark's deepest queue. About 30% of the new events land on the
    // exact timestamp of the event just popped.
    for mut lanes in Lanes::both(2) {
        let ctx = lanes.name();
        let mut rng = SimRng::substream(0xE9EC, 0);
        let mut q = EventQueue::new();
        let mut oracle = Oracle::default();
        for i in 0..5_000u32 {
            let at = rng.uniform() * 1e-2;
            lanes.schedule(&mut q, at, i);
            oracle.schedule(at, i);
        }
        let mut ties = 0;
        for i in 5_000..25_000u32 {
            let (t, e) = q.pop().expect("queue stays loaded");
            assert_eq!(Some((t.to_bits(), e)), oracle.pop(), "{ctx}: churn pop {i}");
            let at = if rng.uniform() < 0.3 {
                ties += 1;
                t
            } else {
                t + rng.uniform_range(1e-5, 2e-3)
            };
            lanes.schedule(&mut q, at, i);
            oracle.schedule(at, i);
            assert_eq!(q.pending(), 5_000);
        }
        assert!((5_000..7_000).contains(&ties), "{ctx}: {ties} ties");
        while let Some((t, e)) = q.pop() {
            assert_eq!(Some((t.to_bits(), e)), oracle.pop(), "{ctx}: churn drain");
        }
        assert_eq!(oracle.pop(), None, "{ctx}: churn: queue drained early");
        assert_same_state(&q, &oracle, &format!("{ctx}: churn"));
    }
}

#[test]
fn negative_zero_pops_as_positive_zero_in_seq_order() {
    // `-0.0 >= now = +0.0`, so scheduling at -0.0 is legal. The two zeros
    // are one time: they pop in seq order, and the pop returns +0.0.
    let mut q = EventQueue::new();
    q.schedule(0.0, 0u32);
    q.schedule(-0.0, 1);
    q.schedule(0.0, 2);
    q.schedule(-0.0, 3);
    q.schedule(1e-300, 4);
    let pops: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
        .map(|(t, e)| (t.to_bits(), e))
        .collect();
    let zero = 0.0f64.to_bits();
    let want = [(zero, 0), (zero, 1), (zero, 2), (zero, 3)];
    assert_eq!(pops[..4], want);
    assert_eq!(pops[4], (1e-300f64.to_bits(), 4));
    assert_eq!(q.now().to_bits(), 1e-300f64.to_bits());
}

#[test]
fn negative_zero_scheduled_near_pops_as_positive_zero_in_seq_order() {
    // The near lane keys `-0.0` as `+0.0` too, so a near `-0.0` ties a
    // far `+0.0` (and a far `-0.0` a near `+0.0`) and breaks by seq.
    let mut q = EventQueue::new();
    q.schedule_near(-0.0, 0u32);
    q.schedule(0.0, 1);
    q.schedule_near(0.0, 2);
    q.schedule(-0.0, 3);
    q.schedule_near(-0.0, 4);
    q.schedule_near(1e-300, 5);
    let pops: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
        .map(|(t, e)| (t.to_bits(), e))
        .collect();
    let zero = 0.0f64.to_bits();
    let want = [(zero, 0), (zero, 1), (zero, 2), (zero, 3), (zero, 4)];
    assert_eq!(pops[..5], want);
    assert_eq!(pops[5], (1e-300f64.to_bits(), 5));
    assert_eq!(q.processed(), 6);
}

#[test]
fn exact_time_ties_across_lanes_pop_in_seq_order() {
    // Every event at one of three timestamps, the lanes alternating in
    // runs of 1-3 calls, so each timestamp's events are split across
    // both lanes with either lane holding the lower seq. A merge that
    // compared times alone, or let one lane win a time tie, would pop
    // a later call first.
    for seed in 0..10 {
        let mut rng = SimRng::substream(0xE9ED, seed);
        let mut q = EventQueue::new();
        let mut oracle = Oracle::default();
        let mut near = rng.chance(0.5);
        for i in 0..300u32 {
            if rng.index(3) == 0 {
                near = !near;
            }
            let at = [0.5, 1.0, 2.5][rng.index(3)];
            if near {
                q.schedule_near(at, i);
            } else {
                q.schedule(at, i);
            }
            oracle.schedule(at, i);
        }
        let mut last = None;
        while let Some((t, e)) = q.pop() {
            assert_eq!(Some((t.to_bits(), e)), oracle.pop(), "seed {seed}");
            // Within one timestamp the payload (= seq) only grows.
            if let Some((lt, le)) = last {
                assert!(lt < t || (lt == t && le < e), "seed {seed}: {e} after {le}");
            }
            last = Some((t, e));
        }
        assert_same_state(&q, &oracle, &format!("ties seed {seed}"));
    }
}

#[test]
fn a_near_event_past_the_horizon_waits() {
    // `run_until` stops at the least head of either lane: a near event
    // beyond the horizon stays queued, whether the far lane holds an
    // earlier event, a later one, or nothing.
    for far in [Some(1.0), Some(8.0), None] {
        let ctx = format!("far event at {far:?}");
        let mut q = EventQueue::new();
        q.schedule_near(5.0, 0u32);
        if let Some(at) = far {
            q.schedule(at, 1);
        }
        let mut fired = Vec::new();
        q.run_until(2.0, |_, t, e| fired.push((t, e)));
        let due: Vec<_> = far
            .filter(|&at| at <= 2.0)
            .map(|at| (at, 1))
            .into_iter()
            .collect();
        assert_eq!(fired, due, "{ctx}");
        assert_eq!(
            q.pending(),
            1 + usize::from(far.is_some()) - due.len(),
            "{ctx}"
        );
        assert_eq!(q.now(), 2.0, "{ctx}: the clock stops at the horizon");
        q.run_until(6.0, |_, t, e| fired.push((t, e)));
        assert_eq!(
            fired.last(),
            Some(&(5.0, 0)),
            "{ctx}: the near event fires later"
        );
        assert_eq!(q.now(), 6.0, "{ctx}");
    }
}
