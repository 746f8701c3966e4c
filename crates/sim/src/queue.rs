//! Byte-bounded packet queues: drop-tail and two-class priority.
//!
//! §2.2's reactive-routing discussion is all about queueing: "the cost of
//! a path cannot be fully predicted since ISL congestion cannot be
//! anticipated", and ground stations "may prioritize traffic coming from
//! \[their\] users". Every directed link of the packet simulator
//! (`core::netsim`) queues its packets on a [`DropTailQueue`], and
//! [`PriorityQueue`] is the ground-station policy built from two of them.
//!
//! The queues are generic over what they hold — a packet, or a handle to
//! one — and account for each entry's size in bytes alongside it.

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

/// A two-class priority queue: native traffic is always served before
/// visitor traffic — the ground-station policy from §2.2.
#[derive(Debug, Clone)]
pub struct PriorityQueue<T> {
    native: DropTailQueue<T>,
    visitor: DropTailQueue<T>,
}

impl<T> PriorityQueue<T> {
    /// Split `capacity_bytes` between classes: natives get
    /// `native_share` of the buffer, visitors the rest. Each class gets
    /// at least one byte, and the two sub-buffers sum to exactly
    /// `capacity_bytes` — the split can never manufacture capacity the
    /// physical buffer does not have.
    ///
    /// # Panics
    /// Panics unless `native_share` is in `(0, 1)` and
    /// `capacity_bytes >= 2` (one byte per class is the smallest
    /// meaningful split).
    pub fn new(capacity_bytes: u64, native_share: f64) -> Self {
        assert!(
            native_share > 0.0 && native_share < 1.0,
            "native share must be in (0,1), got {native_share}"
        );
        assert!(
            capacity_bytes >= 2,
            "priority queue needs at least 2 bytes to split, got {capacity_bytes}"
        );
        let native_cap =
            ((capacity_bytes as f64 * native_share) as u64).clamp(1, capacity_bytes - 1);
        let visitor_cap = capacity_bytes - native_cap;
        Self {
            native: DropTailQueue::new(native_cap),
            visitor: DropTailQueue::new(visitor_cap),
        }
    }

    /// Offer `item` to its class's buffer (`native` = the queue owner's
    /// own traffic); handed back if that buffer is full.
    pub fn enqueue(&mut self, item: T, bytes: u32, native: bool) -> Result<(), T> {
        if native {
            self.native.enqueue(item, bytes)
        } else {
            self.visitor.enqueue(item, bytes)
        }
    }

    /// Strict-priority dequeue: native first.
    pub fn dequeue(&mut self) -> Option<(T, u32)> {
        self.native.dequeue().or_else(|| self.visitor.dequeue())
    }

    /// Total entries queued across both classes.
    pub fn len(&self) -> usize {
        self.native.len() + self.visitor.len()
    }

    /// Whether both classes are empty.
    pub fn is_empty(&self) -> bool {
        self.native.is_empty() && self.visitor.is_empty()
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
    fn priority_serves_native_first() {
        let mut q = PriorityQueue::new(100_000, 0.5);
        q.enqueue(1, 100, false).unwrap();
        q.enqueue(2, 100, true).unwrap();
        assert_eq!(q.dequeue(), Some((2, 100)), "native first");
        assert_eq!(q.dequeue(), Some((1, 100)));
    }

    #[test]
    fn visitor_buffer_is_separate() {
        let mut q = PriorityQueue::new(1_000, 0.8);
        // Visitor capacity is 200 bytes; a 300-byte visitor packet drops
        // even though the native side is empty.
        assert_eq!(q.enqueue(1, 300, false), Err(1));
        assert!(q.enqueue(2, 300, true).is_ok());
    }

    #[test]
    fn empty_checks() {
        let mut q = PriorityQueue::new(1_000, 0.5);
        assert!(q.is_empty());
        q.enqueue((), 10, false).unwrap();
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DropTailQueue::<()>::new(0);
    }

    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn priority_split_of_one_byte_panics() {
        PriorityQueue::<()>::new(1, 0.5);
    }

    #[test]
    fn priority_split_never_exceeds_capacity() {
        // Extreme shares used to round each class up to 1 byte
        // independently, so a 2-byte buffer could admit 3 bytes. The
        // split must now be exact.
        for &(cap, share) in &[
            (2u64, 0.5),
            (2, 0.999),
            (2, 0.001),
            (3, 0.9),
            (1_000, 0.8),
            (100_000, 0.5),
        ] {
            let mut q = PriorityQueue::new(cap, share);
            let mut admitted = 0u64;
            loop {
                let before = admitted;
                for native in [true, false] {
                    if q.enqueue((), 1, native).is_ok() {
                        admitted += 1;
                    }
                }
                if admitted == before {
                    break;
                }
            }
            assert!(
                admitted <= cap,
                "cap {cap} share {share}: admitted {admitted} bytes"
            );
        }
    }

    #[test]
    fn priority_split_preserves_documented_shares() {
        // The documented example split (1000 bytes, 0.8 share -> 800/200)
        // must be unchanged by the exact-sum fix.
        let mut q = PriorityQueue::new(1_000, 0.8);
        assert!(q.enqueue((), 800, true).is_ok());
        assert!(q.enqueue((), 1, true).is_err());
        assert!(q.enqueue((), 200, false).is_ok());
        assert!(q.enqueue((), 1, false).is_err());
    }
}
