//! The byte-bounded drop-tail FIFO server of one link.
//!
//! §2.2's reactive-routing discussion is all about queueing: "the cost of
//! a path cannot be fully predicted since ISL congestion cannot be
//! anticipated". Every directed link of the packet simulator
//! (`core::netsim`) transmits its packets through a [`DropTailQueue`].
//!
//! A link serves one packet at a time in arrival order, each for
//! `bytes · 8 / rate_bps` seconds, so the moment a packet's transmission
//! ends is known when it is accepted: `max(now, end of the last packet
//! still on the wire) + service` (Lindley's recursion). The queue stores
//! that end beside each entry and needs no departure event: an entry
//! whose transmission ended by `now` (`end <= now`) has left the link,
//! and it retires the next time the queue is asked anything about `now`.
//! Only entries still waiting or in transmission count toward the byte
//! bound.
//!
//! The queue is generic over what it holds — a packet, or a handle to
//! one.

use std::collections::VecDeque;

/// A byte-bounded drop-tail FIFO server of `(end, bytes, item)` entries,
/// `end` being when the entry's transmission ends.
#[derive(Debug, Clone)]
pub struct DropTailQueue<T> {
    /// Entries not yet transmitted, in service order; `end` never
    /// decreases along the queue.
    entries: VecDeque<(f64, u32, T)>,
    capacity_bytes: u64,
    occupancy_bytes: u64,
    /// Bytes of the entries retired since the last
    /// [`take_sent_bytes`](Self::take_sent_bytes).
    sent_bytes: u64,
}

impl<T> DropTailQueue<T> {
    /// A queue holding at most `capacity_bytes` of untransmitted entries.
    ///
    /// # Panics
    /// Panics if `capacity_bytes == 0`.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        Self {
            entries: VecDeque::new(),
            capacity_bytes,
            occupancy_bytes: 0,
            sent_bytes: 0,
        }
    }

    /// Retire every entry whose transmission ended by `now`, counting its
    /// bytes as sent.
    pub fn retire(&mut self, now: f64) {
        while let Some(&(end, bytes, _)) = self.entries.front() {
            if end > now {
                break;
            }
            self.entries.pop_front();
            // Exact subtraction: occupancy is the sum of queued sizes by
            // construction, so a shortfall here is an accounting bug that
            // must surface, not saturate away.
            self.occupancy_bytes -= u64::from(bytes);
            self.sent_bytes += u64::from(bytes);
        }
    }

    /// Offer `item` of `bytes` bytes at `now` to a link serving
    /// `rate_bps`. After the entries that ended by `now` retire, it is
    /// queued unless it would take the occupancy past the capacity, in
    /// which case it is handed back. Returns when its transmission ends:
    /// `max(now, end of the last entry) + bytes · 8 / rate_bps`, which is
    /// infinite when the rate is too small for the service time to be
    /// finite.
    pub fn offer(&mut self, now: f64, item: T, bytes: u32, rate_bps: f64) -> Result<f64, T> {
        self.retire(now);
        if self.occupancy_bytes + u64::from(bytes) > self.capacity_bytes {
            return Err(item);
        }
        // After `retire`, a queued entry ends after `now`.
        let start = self.entries.back().map_or(now, |&(end, _, _)| end);
        let end = start + bytes as f64 * 8.0 / rate_bps;
        self.occupancy_bytes += u64::from(bytes);
        self.entries.push_back((end, bytes, item));
        Ok(end)
    }

    /// Re-time the untransmitted entries for a new rate at `now`: the
    /// entry in transmission keeps its end, and each later one ends one
    /// service time at `rate_bps` after its predecessor — what the link
    /// would have computed had the rate changed before they started.
    /// `moved(item, old_end, new_end)` sees every untransmitted entry in
    /// order.
    pub fn retime(&mut self, now: f64, rate_bps: f64, mut moved: impl FnMut(&T, f64, f64)) {
        self.retire(now);
        let mut prev: Option<f64> = None;
        for (end, bytes, item) in self.entries.iter_mut() {
            let old = *end;
            if let Some(prev) = prev {
                *end = prev + *bytes as f64 * 8.0 / rate_bps;
            }
            prev = Some(*end);
            moved(item, old, *end);
        }
    }

    /// Retire what ended by `now`, then empty the queue, yielding the
    /// untransmitted items in order.
    pub fn drain_unsent(&mut self, now: f64) -> impl Iterator<Item = T> + '_ {
        self.retire(now);
        self.occupancy_bytes = 0;
        self.entries.drain(..).map(|(_, _, item)| item)
    }

    /// Bytes of the entries retired since the last call, or since the
    /// queue was made; resets the count.
    pub fn take_sent_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.sent_bytes)
    }

    /// Bytes not yet transmitted as of the last retirement.
    pub fn occupancy_bytes(&self) -> u64 {
        self.occupancy_bytes
    }

    /// Entries not yet transmitted as of the last retirement.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is waiting or in transmission.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        // 100 B at 800 b/s: one second of service each, back to back.
        let mut q = DropTailQueue::new(10_000);
        for i in 0..5 {
            assert_eq!(q.offer(0.0, i, 100, 800.0), Ok(i as f64 + 1.0));
        }
        let left: Vec<i32> = q.drain_unsent(2.5).collect();
        assert_eq!(left, [2, 3, 4]);
        assert_eq!(q.take_sent_bytes(), 200);
        assert!(q.is_empty());
    }

    #[test]
    fn overflows_drop_at_tail() {
        let mut q = DropTailQueue::new(250);
        assert!(q.offer(0.0, 1, 100, 800.0).is_ok());
        assert!(q.offer(0.0, 2, 100, 800.0).is_ok());
        // Would exceed 250: handed back, nothing queued.
        assert_eq!(q.offer(0.0, 3, 100, 800.0), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.occupancy_bytes(), 200);
        // A smaller entry still fits.
        assert_eq!(q.offer(0.0, 4, 50, 800.0), Ok(2.5));
    }

    #[test]
    fn occupancy_tracks_bytes() {
        let mut q = DropTailQueue::new(1_000);
        assert_eq!(q.offer(0.0, 'a', 300, 8_000.0), Ok(0.3));
        assert_eq!(q.offer(0.0, 'b', 200, 8_000.0), Ok(0.5));
        assert_eq!(q.occupancy_bytes(), 500);
        // A transmission that ends exactly now has left the link.
        q.retire(0.3);
        assert_eq!(q.occupancy_bytes(), 200);
        assert_eq!(q.take_sent_bytes(), 300);
        assert_eq!(q.take_sent_bytes(), 0);
        // An idle link starts the next transmission at once.
        assert_eq!(q.offer(2.0, 'c', 100, 8_000.0), Ok(2.1));
        assert_eq!(q.occupancy_bytes(), 100);
        assert_eq!(q.take_sent_bytes(), 200);
        assert_eq!(q.drain_unsent(2.0).collect::<Vec<_>>(), ['c']);
        assert_eq!(q.occupancy_bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn ended_bytes_do_not_count_toward_the_bound() {
        let mut q = DropTailQueue::new(200);
        assert_eq!(q.offer(0.0, 1, 200, 800.0), Ok(2.0));
        assert_eq!(q.offer(1.0, 2, 100, 800.0), Err(2));
        assert_eq!(q.offer(2.0, 3, 200, 800.0), Ok(4.0));
    }

    #[test]
    fn retime_keeps_the_head_and_rechains_the_rest() {
        let mut q = DropTailQueue::new(10_000);
        for i in 0..3 {
            q.offer(0.0, i, 100, 800.0).unwrap();
        }
        let mut seen = Vec::new();
        q.retime(0.5, 1_600.0, |&i, old, new| seen.push((i, old, new)));
        assert_eq!(seen, [(0, 1.0, 1.0), (1, 2.0, 1.5), (2, 3.0, 2.0)]);
        assert_eq!(q.offer(0.5, 3, 100, 1_600.0), Ok(2.5));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DropTailQueue::<()>::new(0);
    }
}
