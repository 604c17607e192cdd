//! The AP queue stack of paper Fig. 7.
//!
//! Packets buffer at several layers inside an AP — the mac80211 software
//! queue and the NIC's internal hardware queue — and that buffering is the
//! very problem WGTT's switching protocol attacks: at switch time roughly
//! 1,600–2,000 packets sit backlogged in the old AP (§3.1.2), and unless
//! dequeued they are transmitted over a dying link. [`BoundedQueue`] is
//! the drop-tail building block for the software layer; the NIC layer is
//! the staged half of [`crate::sender::Sender`].

use std::collections::VecDeque;

/// A bounded drop-tail FIFO with both packet-count and byte caps.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<(T, u32)>,
    bytes: u64,
    cap_items: usize,
    cap_bytes: u64,
}

impl<T> BoundedQueue<T> {
    /// Queue bounded by `cap_items` entries and `cap_bytes` total bytes.
    pub fn new(cap_items: usize, cap_bytes: u64) -> Self {
        BoundedQueue {
            items: VecDeque::new(),
            bytes: 0,
            cap_items,
            cap_bytes,
        }
    }

    /// mac80211-style software queue: large (1,000 packets / 1.5 MB) so a
    /// switch leaves a fat backlog — the paper's problem statement.
    pub fn mac80211() -> Self {
        BoundedQueue::new(1_000, 1_500_000)
    }

    /// Try to enqueue `item` of `len` bytes. Returns `false` (dropping the
    /// item) when either cap would be exceeded.
    pub fn push(&mut self, item: T, len: u32) -> bool {
        if self.items.len() >= self.cap_items || self.bytes + u64::from(len) > self.cap_bytes {
            return false;
        }
        self.items.push_back((item, len));
        self.bytes += u64::from(len);
        true
    }

    /// Dequeue the head item.
    pub fn pop(&mut self) -> Option<T> {
        let (item, len) = self.items.pop_front()?;
        self.bytes -= u64::from(len);
        Some(item)
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Bytes currently queued.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(10, 10_000);
        for i in 0..5 {
            assert!(q.push(i, 100));
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn packet_cap_drops_tail() {
        let mut q = BoundedQueue::new(2, 10_000);
        assert!(q.push("a", 1));
        assert!(q.push("b", 1));
        assert!(!q.push("c", 1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn byte_cap_drops_tail() {
        let mut q = BoundedQueue::new(100, 2_500);
        assert!(q.push(1, 1500));
        assert!(!q.push(2, 1500));
        assert!(q.push(3, 1000));
        assert_eq!(q.bytes(), 2500);
    }

    #[test]
    fn pop_frees_bytes() {
        let mut q = BoundedQueue::new(100, 2_000);
        q.push(1, 1500);
        assert!(!q.push(2, 1500));
        q.pop();
        assert!(q.push(2, 1500));
    }

    #[test]
    fn presets_have_expected_scale() {
        let sw: BoundedQueue<u32> = BoundedQueue::mac80211();
        assert!(sw.cap_items >= 500);
    }

    proptest! {
        #[test]
        fn byte_accounting_invariant(ops in proptest::collection::vec((any::<bool>(), 1u32..2000), 1..200)) {
            // bytes() always equals the sum of queued item lengths.
            let mut q = BoundedQueue::new(50, 40_000);
            let mut model: VecDeque<u32> = VecDeque::new();
            for (push, len) in ops {
                if push {
                    if q.push((), len) {
                        model.push_back(len);
                    }
                } else {
                    let popped = q.pop();
                    let expect = model.pop_front();
                    prop_assert_eq!(popped.is_some(), expect.is_some());
                }
                prop_assert_eq!(q.bytes(), model.iter().map(|&l| u64::from(l)).sum::<u64>());
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}
