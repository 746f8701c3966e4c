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
//! [`EventQueue`] is the only engine. It keeps its events in two lanes,
//! each an implicit 4-ary min-heap, `O(log n)` per operation:
//! [`schedule`](EventQueue::schedule) feeds the far lane and
//! [`schedule_near`](EventQueue::schedule_near) the near lane, meant for
//! short-horizon events (netsim's hop arrivals, at most a few hundred
//! packets in flight) that would otherwise sift through a heap of every
//! flow's next injection. A pop takes the lesser of the two lane heads.
//! One `seq` counter numbers both lanes, so keys are unique across them
//! and the least head is the least pending key: the merged pops are
//! exactly the single heap's, and the lane an event goes to changes
//! speed, never order.
//!
//! Each entry carries one `u128` key, `time.to_bits() << 64 | seq`:
//! event times are never below `+0.0` (`-0.0` is stored as `+0.0`), and
//! for non-negative floats the bit pattern orders as the value, so
//! unsigned key order *is* `(time, seq)` order. A pop picks the least of
//! four children with comparisons whose results feed index arithmetic,
//! not branches, and moves entries through a hole rather than swapping
//! (DESIGN.md §4 measures this shape against arity 2, a radix heap and
//! one lane). A bucketed calendar queue (`O(1)` amortized) once sat
//! beside a binary heap. On the repo benchmark's workloads, whose queues
//! peak at 4,675 pending events, it tied the heap on two and lost on the
//! deepest, so it was removed (DESIGN.md §4 has the numbers).

/// Simulation timestamp (seconds since simulation epoch).
pub type SimTime = f64;

/// Children per heap node (the child tournament in
/// `sift_down_from_root` is written for four).
const ARITY: usize = 4;

#[derive(Clone, Copy)]
struct Entry<E> {
    /// `time.to_bits() << 64 | seq`; see [`key`].
    key: u128,
    event: E,
}

/// The heap key of an event at `time` (finite, `>= -0.0`) scheduled as
/// the `seq`-th call. Adding `+0.0` turns `-0.0` into `+0.0`, so the two
/// zeros share a key prefix and tie-break by `seq`, as `-0.0 == 0.0`.
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from((time + 0.0).to_bits()) << 64) | u128::from(seq)
}

/// The time a key was built from (`+0.0` for a `-0.0` schedule).
fn time_of(key: u128) -> SimTime {
    f64::from_bits((key >> 64) as u64)
}

/// One lane: an implicit 4-ary min-heap of entries by key.
struct Heap<E> {
    entries: Vec<Entry<E>>,
}

impl<E: Copy> Heap<E> {
    fn push(&mut self, new: Entry<E>) {
        // Sift the hole at the new leaf up until its parent is smaller.
        let mut hole = self.entries.len();
        self.entries.push(new);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if self.entries[parent].key < new.key {
                break;
            }
            self.entries[hole] = self.entries[parent];
            hole = parent;
        }
        self.entries[hole] = new;
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let last = self.entries.pop()?;
        Some(match self.entries.first() {
            Some(&top) => {
                self.sift_down_from_root(last);
                top
            }
            None => last,
        })
    }

    /// Refill the root's hole with `last`: move the least child up into
    /// the hole until no child is smaller than `last`.
    fn sift_down_from_root(&mut self, last: Entry<E>) {
        let heap = &mut self.entries[..];
        let len = heap.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            let child = if first + ARITY <= len {
                // A full group: a tournament of two pairs. Each `<` only
                // offsets an index, so the compiler emits no branch.
                let c = &heap[first..first + ARITY];
                let a = usize::from(c[1].key < c[0].key);
                let b = 2 + usize::from(c[3].key < c[2].key);
                first + if c[b].key < c[a].key { b } else { a }
            } else if first < len {
                // The last, partly filled group.
                (first + 1..len).fold(first, |m, i| if heap[i].key < heap[m].key { i } else { m })
            } else {
                break;
            };
            if last.key < heap[child].key {
                break;
            }
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = last;
    }
}

/// A deterministic discrete-event scheduler.
///
/// `E` is the caller's event payload, moved by copy through the heaps.
/// The engine owns time; handlers run strictly in timestamp order and
/// may schedule further events (at or after the current time).
pub struct EventQueue<E> {
    far: Heap<E>,
    near: Heap<E>,
    now: SimTime,
    seq: u64,
    processed: u64,
    depth_high_water: usize,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self {
            far: Heap {
                entries: Vec::new(),
            },
            near: Heap {
                entries: Vec::new(),
            },
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

    /// Events waiting, in both lanes.
    pub fn pending(&self) -> usize {
        self.far.entries.len() + self.near.entries.len()
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Highest number of events ever waiting at once, both lanes
    /// together — the queue-depth high-water mark telemetry reports for
    /// capacity planning.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Schedule `event` at absolute time `at`. An event scheduled at
    /// `-0.0` pops at `+0.0`.
    ///
    /// # Panics
    /// Panics if `at` is NaN/infinite or earlier than the current time
    /// (causality violation — always a caller bug).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, event);
        self.far.push(entry);
        self.note_depth();
    }

    /// [`schedule`](Self::schedule) on the near lane, for an event a
    /// short horizon ahead of which few are pending at once. It pops in
    /// the same `(time, seq)` order as if scheduled with `schedule`; the
    /// lane changes only how deep a heap the event sifts through.
    ///
    /// # Panics
    /// As [`schedule`](Self::schedule).
    pub fn schedule_near(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, event);
        self.near.push(entry);
        self.note_depth();
    }

    /// Check `at` and key `event` with the next `seq`.
    fn entry(&mut self, at: SimTime, event: E) -> Entry<E> {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        let entry = Entry {
            key: key(at, self.seq),
            event,
        };
        self.seq += 1;
        entry
    }

    fn note_depth(&mut self) {
        self.depth_high_water = self.depth_high_water.max(self.pending());
    }

    /// The lane whose head is the least pending event: keys are unique
    /// across the lanes, so the lesser head is the least key. With both
    /// lanes empty it is the (empty) far lane. The near lane is tested
    /// first, so a queue that never uses it pays one emptiness test.
    fn next_lane(&mut self) -> &mut Heap<E> {
        match self.near.entries.first() {
            Some(n) if self.far.entries.first().is_none_or(|f| n.key < f.key) => &mut self.near,
            _ => &mut self.far,
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = self.next_lane().pop()?;
        Some(self.fire(top))
    }

    /// Advance the clock to popped entry `top` and count it.
    fn fire(&mut self, top: Entry<E>) -> (SimTime, E) {
        self.now = time_of(top.key);
        self.processed += 1;
        (self.now, top.event)
    }

    /// Run until the queue drains or the clock passes `until`, feeding
    /// each event to `handler` (which may schedule more via the `&mut
    /// Self` it receives). Events with timestamps beyond `until` remain
    /// queued.
    pub fn run_until<F>(&mut self, until: SimTime, mut handler: F)
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        loop {
            let lane = self.next_lane();
            let due = lane
                .entries
                .first()
                .is_some_and(|e| time_of(e.key) <= until);
            if !due {
                break;
            }
            let top = lane.pop().expect("peeked event exists");
            let (t, e) = self.fire(top);
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
    fn lanes_merge_by_time_then_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "far at 2");
        q.schedule_near(1.0, "near at 1");
        q.schedule_near(2.0, "near at 2");
        q.schedule(1.0, "far at 1");
        assert_eq!(q.pending(), 4);
        assert_eq!(q.depth_high_water(), 4, "both lanes count");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["near at 1", "far at 1", "far at 2", "near at 2"]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_near_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_near(5.0, ());
        q.pop();
        q.schedule_near(1.0, ());
    }

    #[test]
    fn empty_run_advances_clock_to_horizon() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.run_until(7.0, |_, _, _| {});
        assert_eq!(q.now(), 7.0);
    }
}
