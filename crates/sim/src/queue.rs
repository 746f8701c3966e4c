//! The byte-bounded drop-tail packet queue.
//!
//! §2.2's reactive-routing discussion is all about queueing: "the cost of
//! a path cannot be fully predicted since ISL congestion cannot be
//! anticipated". Every directed link of the packet simulator
//! (`core::netsim`) queues its packets on a [`DropTailQueue`].
//!
//! The queue is generic over what it holds — a packet, or a handle to
//! one — and accounts for each entry's size in bytes alongside it.

use std::collections::VecDeque;

/// A byte-bounded drop-tail FIFO of `(item, bytes)` entries.
#[derive(Debug, Clone)]
pub struct DropTailQueue<T> {
    entries: VecDeque<(T, u32)>,
    capacity_bytes: u64,
    occupancy_bytes: u64,
}

impl<T> DropTailQueue<T> {
    /// A queue holding at most `capacity_bytes` of entries.
    ///
    /// # Panics
    /// Panics if `capacity_bytes == 0`.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        Self {
            entries: VecDeque::new(),
            capacity_bytes,
            occupancy_bytes: 0,
        }
    }

    /// Offer `item` of `bytes` bytes. It is queued unless it would take
    /// the occupancy past the capacity, in which case it is handed back.
    pub fn enqueue(&mut self, item: T, bytes: u32) -> Result<(), T> {
        if self.occupancy_bytes + bytes as u64 > self.capacity_bytes {
            return Err(item);
        }
        self.occupancy_bytes += bytes as u64;
        self.entries.push_back((item, bytes));
        Ok(())
    }

    /// Take the head-of-line entry.
    pub fn dequeue(&mut self) -> Option<(T, u32)> {
        let (item, bytes) = self.entries.pop_front()?;
        // Exact subtraction: occupancy is the sum of queued sizes by
        // construction, so a shortfall here is an accounting bug that
        // must surface, not saturate away.
        debug_assert!(
            self.occupancy_bytes >= bytes as u64,
            "occupancy {} under head entry size {bytes}",
            self.occupancy_bytes,
        );
        self.occupancy_bytes -= bytes as u64;
        Some((item, bytes))
    }

    /// The head-of-line entry, left in place.
    pub fn front(&self) -> Option<&(T, u32)> {
        self.entries.front()
    }

    /// Empty the queue, yielding its entries in order.
    pub fn drain(&mut self) -> impl Iterator<Item = (T, u32)> + '_ {
        self.occupancy_bytes = 0;
        self.entries.drain(..)
    }

    /// Bytes currently queued.
    pub fn occupancy_bytes(&self) -> u64 {
        self.occupancy_bytes
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = DropTailQueue::new(10_000);
        for i in 0..5 {
            q.enqueue(i, 100).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(), Some((i, 100)));
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn overflows_drop_at_tail() {
        let mut q = DropTailQueue::new(250);
        assert_eq!(q.enqueue(1, 100), Ok(()));
        assert_eq!(q.enqueue(2, 100), Ok(()));
        // Would exceed 250: handed back, nothing queued.
        assert_eq!(q.enqueue(3, 100), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.occupancy_bytes(), 200);
        // A smaller entry still fits.
        assert_eq!(q.enqueue(4, 50), Ok(()));
    }

    #[test]
    fn occupancy_tracks_bytes() {
        let mut q = DropTailQueue::new(1_000);
        q.enqueue('a', 300).unwrap();
        q.enqueue('b', 200).unwrap();
        assert_eq!(q.occupancy_bytes(), 500);
        assert_eq!(q.front(), Some(&('a', 300)));
        q.dequeue();
        assert_eq!(q.occupancy_bytes(), 200);
        assert_eq!(q.drain().collect::<Vec<_>>(), [('b', 200)]);
        assert_eq!(q.occupancy_bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DropTailQueue::<()>::new(0);
    }
}
