//! Model-equivalence property suite for `wgtt_sim::queue::EventQueue`.
//!
//! The model is the obvious structure: a `BTreeMap<(SimTime, u64), _>`
//! keyed by firing time and insertion sequence. Random interleavings of
//! schedule / cancel / pop / pop_until must produce identical answers on
//! both, including the awkward cancels: an id that already fired, an id
//! cancelled twice, and ids of events sharing one timestamp.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wgtt_sim::queue::{EventId, EventQueue};
use wgtt_sim::time::{SimDuration, SimTime};

/// The reference queue: ordered map, eager removal on cancel.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(SimTime, u64), u64>,
    next_seq: u64,
    now: SimTime,
}

impl Model {
    /// Returns the map key, which is the model's cancellation handle.
    fn schedule(&mut self, at: SimTime, payload: u64) -> (SimTime, u64) {
        let key = (at, self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, payload);
        key
    }

    fn cancel(&mut self, key: (SimTime, u64)) -> bool {
        self.pending.remove(&key).is_some()
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let ((at, _), payload) = self.pending.pop_first()?;
        self.now = at;
        Some((at, payload))
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|&(at, _)| at)
    }
}

proptest! {
    #[test]
    fn random_interleavings_match_the_btreemap_model(
        ops in proptest::collection::vec((0u8..10, 0u64..40, 0u64..1000), 1..400)
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = Model::default();
        // Every handle ever issued, fired and cancelled ones included, so
        // cancel-after-pop and double cancel come up on their own.
        let mut handles: Vec<(EventId, (SimTime, u64))> = Vec::new();
        for (i, &(op, dt, pick)) in ops.iter().enumerate() {
            match op {
                // Schedule; `dt / 8` makes equal timestamps common.
                0..=4 => {
                    let at = model.now + SimDuration::from_micros(dt / 8);
                    let payload = i as u64;
                    handles.push((q.schedule(at, payload), model.schedule(at, payload)));
                }
                5 | 6 => {
                    if !handles.is_empty() {
                        let (id, key) = handles[pick as usize % handles.len()];
                        prop_assert_eq!(q.cancel(id), model.cancel(key), "cancel at op {}", i);
                    }
                }
                7 => prop_assert_eq!(q.pop(), model.pop(), "pop at op {}", i),
                _ => {
                    let deadline = model.now + SimDuration::from_micros(dt / 8);
                    prop_assert_eq!(
                        q.pop_until(deadline),
                        model.pop_until(deadline),
                        "pop_until at op {}",
                        i
                    );
                }
            }
            prop_assert_eq!(q.len(), model.pending.len(), "len after op {}", i);
            prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            prop_assert_eq!(q.peek_time(), model.peek_time(), "peek after op {}", i);
            prop_assert_eq!(q.now(), model.now);
        }
        // Drain: whatever is left comes out in model order.
        while let Some(expected) = model.pop() {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.len(), 0);
    }
}
