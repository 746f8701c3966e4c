//! The discrete-event engine: a time-ordered event queue with stable
//! tie-breaking, and a run loop.
//!
//! Determinism contract: events pop in strictly ascending lexicographic
//! `(time, seq)` order, where `seq` is the monotone schedule-call
//! counter, so two events at the same timestamp fire in the order they
//! were scheduled and a simulation's outcome is a pure function of its
//! inputs and seed. `tests/tests/event_queue_order.rs` checks the pop
//! sequence against an independent sort of every scheduled event.
//!
//! [`EventQueue`] is a binary heap, `O(log n)` per operation, and the
//! only engine. A bucketed calendar queue (`O(1)` amortized) once sat
//! beside it. On the repo benchmark's workloads, whose queues peak at
//! 4,675 pending events, it tied the heap on two and lost on the
//! deepest, so it was removed (DESIGN.md §4 has the numbers).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation timestamp (seconds since simulation epoch).
pub type SimTime = f64;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time (then the
        // lowest sequence number) pops first. Times are finite by
        // construction (schedule() rejects NaN/inf).
        other
            .time
            .partial_cmp(&self.time)
            .expect("simulation times are finite")
            .then(other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event scheduler.
///
/// `E` is the caller's event payload. The engine owns time; handlers run
/// strictly in timestamp order and may schedule further events (at or
/// after the current time).
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    depth_high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
            depth_high_water: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event
    /// (or the last [`run_until`](Self::run_until) horizon, whichever is
    /// later).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events waiting.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Highest number of events ever waiting at once — the queue-depth
    /// high-water mark telemetry reports for capacity planning.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is NaN/infinite or earlier than the current time
    /// (causality violation — always a caller bug).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.heap.push(Scheduled {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.depth_high_water = self.depth_high_water.max(self.heap.len());
    }

    /// Schedule `event` `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
        self.schedule(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        self.processed += 1;
        Some((s.time, s.event))
    }

    /// Run until the queue drains or the clock passes `until`, feeding
    /// each event to `handler` (which may schedule more via the `&mut
    /// Self` it receives). Events with timestamps beyond `until` remain
    /// queued.
    pub fn run_until<F>(&mut self, until: SimTime, mut handler: F)
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        while let Some(s) = self.heap.peek() {
            if s.time > until {
                break;
            }
            let (t, e) = self.pop().expect("peeked event exists");
            handler(self, t, e);
        }
        // Advance the clock to the horizon even if the queue drained early,
        // so successive run_until calls see monotone time.
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let mut order = Vec::new();
        q.run_until(10.0, |_, _, e| order.push(e));
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        let mut order = Vec::new();
        q.run_until(2.0, |_, _, e| order.push(e));
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut q = EventQueue::new();
        q.schedule(0.0, 0u32);
        let mut fired = 0;
        q.run_until(10.0, |q, t, n| {
            fired += 1;
            if n < 5 {
                q.schedule(t + 1.0, n + 1);
            }
        });
        assert_eq!(fired, 6);
        assert_eq!(q.processed(), 6);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(5.0, ());
        let mut fired = 0;
        q.run_until(2.0, |_, _, _| fired += 1);
        assert_eq!(fired, 1);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.now(), 2.0);
        // The remaining event still fires later.
        q.run_until(10.0, |_, _, _| fired += 1);
        assert_eq!(fired, 2);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(4.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 4.5);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "first");
        q.pop();
        q.schedule_in(3.0, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 5.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn depth_high_water_tracks_peak_not_current() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(i as f64, ());
        }
        assert_eq!(q.depth_high_water(), 5);
        q.run_until(10.0, |_, _, _| {});
        assert_eq!(q.pending(), 0);
        assert_eq!(q.depth_high_water(), 5, "high water survives the drain");
    }

    #[test]
    fn empty_run_advances_clock_to_horizon() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.run_until(7.0, |_, _, _| {});
        assert_eq!(q.now(), 7.0);
    }
}
