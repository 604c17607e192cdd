//! The time-ordered event queue at the heart of the kernel.
//!
//! [`EventQueue`] is generic over the event payload so that each layer of
//! the reproduction can define its own event vocabulary without coupling
//! this crate to any of them. Ties in time are broken by insertion order
//! (FIFO), which together with the deterministic RNG makes whole runs
//! bit-reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation: the payload's
/// slab slot plus that slot's generation when the event was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// What the heap orders: the firing time, the insertion sequence that
/// breaks ties FIFO, and where the payload lives. Small and `Copy`, so
/// sift operations never move a payload.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event first,
        // breaking ties by insertion sequence for FIFO semantics (`seq` is
        // unique, so `slot` never decides).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One payload cell. While its key is in the heap the cell holds the
/// payload (live) or `None` (cancelled); once the key pops the cell goes
/// back on the free list with its generation bumped, which is what turns
/// every [`EventId`] issued for it so far into a no-op.
struct Slot<E> {
    gen: u32,
    payload: Option<E>,
}

/// A deterministic discrete-event queue.
///
/// ```
/// use wgtt_sim::{EventQueue, SimTime};
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "a"));
/// ```
pub struct EventQueue<E> {
    /// Invariant: the head, if any, is live — cancelled keys are dropped
    /// the moment they reach the top, so peeking never has to search.
    heap: BinaryHeap<Key>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Keys still in `heap` whose slot was cancelled.
    cancelled: usize,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            cancelled: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation clock: the timestamp of the last event popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Panics if `at` is earlier than the current clock — an event in the
    /// past is always a logic bug, and failing fast beats silently warping
    /// causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 pending events");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Key { at, seq, slot });
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Cancel a previously scheduled event: its payload is dropped now,
    /// its key is skipped when it reaches the head. Returns `true` the
    /// first time a live event is cancelled; cancelling an already-popped,
    /// already-cancelled, or never-scheduled id is a no-op returning
    /// `false` (it must not poison future bookkeeping).
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.gen == id.gen && slot.payload.is_some() => {
                slot.payload = None;
                self.cancelled += 1;
                self.drop_cancelled_heads();
                true
            }
            _ => false,
        }
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        let payload = self.slots[key.slot as usize]
            .payload
            .take()
            .expect("the heap head is never a cancelled key");
        self.release(key.slot);
        debug_assert!(key.at >= self.now, "event queue went back in time");
        self.now = key.at;
        self.drop_cancelled_heads();
        Some((key.at, payload))
    }

    /// Pop the earliest live event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the earliest live event without popping it. O(1):
    /// the head is live by the heap invariant.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.at)
    }

    /// Restore the heap invariant after a pop or a cancel exposed
    /// cancelled keys at the head. Each cancelled key is popped exactly
    /// once over its lifetime, so the cost is amortised O(log n).
    fn drop_cancelled_heads(&mut self) {
        while self.cancelled > 0 {
            match self.heap.peek() {
                Some(key) if self.slots[key.slot as usize].payload.is_none() => {
                    let slot = key.slot;
                    self.heap.pop();
                    self.release(slot);
                    self.cancelled -= 1;
                }
                _ => break,
            }
        }
    }

    /// Return a slot whose key just left the heap to the free list.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(1));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), "dead");
        q.schedule(SimTime::from_millis(2), "live");
        assert!(q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("live"));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_then_schedule_again() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), 1);
        q.cancel(id);
        q.schedule(SimTime::from_millis(1), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(7), ());
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "in");
        q.schedule(SimTime::from_millis(15), "out");
        assert_eq!(
            q.pop_until(SimTime::from_millis(10)).map(|(_, e)| e),
            Some("in")
        );
        assert_eq!(q.pop_until(SimTime::from_millis(10)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        // Regression: cancelling an id that already fired used to park it
        // in the cancelled set forever, leaking memory and underflowing
        // len() (heap.len() - cancelled.len()).
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), "fired");
        assert_eq!(q.pop().map(|(_, e)| e), Some("fired"));
        assert!(!q.cancel(id), "cancelling a popped id must return false");
        assert_eq!(q.len(), 0);
        q.schedule(SimTime::from_millis(2), "live");
        assert_eq!(q.len(), 1, "len must not underflow after dead cancel");
        assert_eq!(q.pop().map(|(_, e)| e), Some("live"));
    }

    #[test]
    fn double_cancel_and_unknown_id_are_noops() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "second cancel of the same id");
        assert_eq!(q.len(), 1);
        // An id from a different queue instance (never scheduled here).
        let foreign = EventQueue::<()>::new().schedule(SimTime::from_millis(9), ());
        assert!(!q.cancel(foreign));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_millis(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn readonly_peek_time_sees_past_cancelled_head() {
        // peek_time(&self) must not mutate, yet still report the earliest
        // *live* event right after the head was cancelled.
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(7), ());
        q.cancel(id);
        let q_ref: &EventQueue<()> = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn gc_keeps_peek_cheap_after_cancelled_heads() {
        let mut q = EventQueue::new();
        let dead: Vec<_> = (0..8)
            .map(|i| q.schedule(SimTime::from_millis(i), i))
            .collect();
        q.schedule(SimTime::from_millis(100), 100);
        for id in dead {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(100)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(100));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_head_never_reaches_peek_pop_until_or_len() {
        // Regression: with a cancelled entry at the head, `peek_time`
        // used to scan the whole heap. The head is now dropped eagerly,
        // whether the cancel hits it directly or a pop exposes it, so
        // the three views always agree.
        let mut q = EventQueue::new();
        let head = q.schedule(SimTime::from_millis(1), "head");
        let mid = q.schedule(SimTime::from_millis(2), "mid");
        q.schedule(SimTime::from_millis(3), "live");
        q.schedule(SimTime::from_millis(9), "late");
        // Cancelling a non-head key leaves a tombstone behind the head.
        assert!(q.cancel(mid));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.heap.len(), 4);
        // Cancelling the head drops it and the tombstone it exposes.
        assert!(q.cancel(head));
        assert_eq!(q.heap.len(), 2, "cancelled heads are dropped eagerly");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.pop_until(SimTime::from_millis(2)), None);
        assert_eq!(
            q.pop_until(SimTime::from_millis(3)),
            Some((SimTime::from_millis(3), "live"))
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
        // A pop that exposes a tombstone drops it too.
        let next = q.schedule(SimTime::from_millis(10), "next");
        q.schedule(SimTime::from_millis(11), "last");
        assert!(q.cancel(next));
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(11)));
        assert_eq!((q.len(), q.heap.len()), (1, 1));
    }

    #[test]
    fn slots_are_reused_and_stale_ids_stay_dead() {
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::from_millis(1), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        // The freed slot is reused under a new generation: the old
        // handle must not cancel the new occupant.
        let second = q.schedule(SimTime::from_millis(2), 2);
        assert_eq!(q.slots.len(), 1);
        assert_ne!(first, second);
        assert!(!q.cancel(first));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(second));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Simulate a timer that re-arms itself: a common kernel pattern.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u32);
        let mut fired = Vec::new();
        while let Some((t, gen)) = q.pop() {
            fired.push(gen);
            if gen < 4 {
                q.schedule(t + SimDuration::from_millis(1), gen + 1);
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.now(), SimTime::from_millis(5));
    }
}
