//! The controller's switch-ack deadlines: a min-heap plus a due list.
//!
//! The controller arms one 30 ms ack timeout per in-flight switch, at
//! most one per client (§3.1.2), and the event loop asks for the
//! earliest pending deadline after every dispatched action. A binary
//! heap keyed by deadline answers that at its head. The type keeps the
//! name `TimerWheel` only because `benchmark/` imports it by that name.
//!
//! Entries whose deadline [`advance`](TimerWheel::advance) has passed
//! move to a `due` list that [`drain_due`](TimerWheel::drain_due) hands
//! to the caller.
//!
//! ## Stale entries
//!
//! Nothing is ever cancelled. A completed or abandoned switch simply
//! leaves its entry behind; the entry is *stale* because the client's
//! protocol driver no longer reports that deadline.
//! [`next_deadline`](TimerWheel::next_deadline) takes an
//! `is_live(item, deadline_ns)` predicate, drops the stale entries of the
//! due list and pops stale heads off the heap, so memory is bounded by
//! live timers plus stale ones not yet at the head or due. Re-arming the
//! same client at a new deadline just schedules a second entry — at most
//! one of the two can ever be live, and the caller de-duplicates per item
//! when draining.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wgtt_sim::time::SimTime;

/// One scheduled entry: absolute deadline (ns) plus the caller's payload
/// (the controller stores a client id, `NodeId.0`).
type Entry = (u64, u32);

/// Deadline min-heap over `u32` payloads.
#[derive(Debug, Default)]
pub struct TimerWheel {
    /// Entries not yet due, earliest deadline at the head.
    heap: BinaryHeap<Reverse<Entry>>,
    /// Entries whose deadline `advance` has passed, awaiting `drain_due`.
    due: Vec<Entry>,
    /// The instant `advance` last moved to.
    now_ns: u64,
}

impl TimerWheel {
    /// An empty heap with its clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries currently held (live or stale).
    pub fn len(&self) -> usize {
        self.heap.len() + self.due.len()
    }

    /// Whether no entries are held at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arm `item` to fire at `deadline`; at or before the current instant
    /// it is due at once. O(log n).
    pub fn schedule(&mut self, deadline: SimTime, item: u32) {
        let ns = deadline.as_nanos();
        if ns <= self.now_ns {
            self.due.push((ns, item));
        } else {
            self.heap.push(Reverse((ns, item)));
        }
    }

    /// Move the clock to `now`, collecting every entry whose deadline is
    /// ≤ `now` into the due list. A `now` at or before the current
    /// instant changes nothing.
    pub fn advance(&mut self, now: SimTime) {
        self.now_ns = self.now_ns.max(now.as_nanos());
        while let Some(&Reverse(e)) = self.heap.peek() {
            if e.0 > self.now_ns {
                break;
            }
            self.heap.pop();
            self.due.push(e);
        }
    }

    /// Hand every due entry (accumulated by [`advance`](Self::advance))
    /// to `f` and remove it. Call order is unspecified; the controller
    /// sorts by client id before firing, matching the oracle.
    pub fn drain_due(&mut self, mut f: impl FnMut(u32, u64)) {
        for (ns, item) in self.due.drain(..) {
            f(item, ns);
        }
    }

    /// Earliest deadline among live entries, or `None`. Drops the stale
    /// entries of the due list and pops stale heads off the heap.
    pub fn next_deadline(&mut self, mut is_live: impl FnMut(u32, u64) -> bool) -> Option<SimTime> {
        self.due.retain(|&(ns, item)| is_live(item, ns));
        let mut best = self.due.iter().map(|&(ns, _)| ns).min();
        while let Some(&Reverse((ns, item))) = self.heap.peek() {
            if is_live(item, ns) {
                best = Some(best.map_or(ns, |b| b.min(ns)));
                break;
            }
            self.heap.pop();
        }
        best.map(SimTime::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wgtt_sim::time::SimDuration;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn drain(w: &mut TimerWheel) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        w.drain_due(|item, ns| out.push((item, ns)));
        out.sort_unstable();
        out
    }

    #[test]
    fn fires_at_exact_deadline_not_before() {
        let mut w = TimerWheel::new();
        w.schedule(ms(30), 7);
        w.advance(SimTime::from_nanos(ms(30).as_nanos() - 1));
        assert!(drain(&mut w).is_empty());
        w.advance(ms(30));
        assert_eq!(drain(&mut w), vec![(7, ms(30).as_nanos())]);
        assert!(w.is_empty());
    }

    #[test]
    fn near_deadlines_fire_in_one_advance() {
        let mut w = TimerWheel::new();
        for i in 0..100u32 {
            w.schedule(ms(10 + u64::from(i)), i);
        }
        w.advance(ms(200));
        assert_eq!(drain(&mut w).len(), 100);
    }

    #[test]
    fn far_deadline_cascades_from_l1() {
        let mut w = TimerWheel::new();
        // Seconds ahead, far past any 30 ms ack timeout.
        w.schedule(SimTime::from_secs(2), 1);
        w.advance(SimTime::from_secs(1));
        assert!(drain(&mut w).is_empty());
        w.advance(SimTime::from_secs(2));
        assert_eq!(drain(&mut w).len(), 1);
    }

    #[test]
    fn overflow_deadline_survives_long_jumps() {
        let mut w = TimerWheel::new();
        // Half an hour ahead, approached in long jumps.
        w.schedule(SimTime::from_secs(1800), 9);
        for s in [600u64, 1200, 1799] {
            w.advance(SimTime::from_secs(s));
            assert!(drain(&mut w).is_empty(), "not due at {s} s");
        }
        w.advance(SimTime::from_secs(1800));
        assert_eq!(drain(&mut w).len(), 1);
    }

    #[test]
    fn next_deadline_is_min_across_levels() {
        let mut w = TimerWheel::new();
        w.advance(ms(250));
        // Scheduled out of deadline order after the clock moved: the
        // earliest must still win.
        w.schedule(ms(400), 1);
        w.schedule(ms(300), 2);
        w.schedule(SimTime::from_secs(5), 3);
        assert_eq!(w.next_deadline(|_, _| true), Some(ms(300)));
    }

    #[test]
    fn next_deadline_skips_and_compacts_stale() {
        let mut w = TimerWheel::new();
        w.schedule(ms(10), 1);
        w.schedule(ms(20), 2);
        assert_eq!(w.next_deadline(|item, _| item != 1), Some(ms(20)));
        assert_eq!(w.len(), 1, "stale entry compacted");
        assert_eq!(w.next_deadline(|_, _| false), None);
        assert!(w.is_empty());
    }

    #[test]
    fn due_entries_count_toward_next_deadline() {
        let mut w = TimerWheel::new();
        w.schedule(ms(10), 1);
        w.advance(ms(15));
        // Passed but not yet drained: still the earliest pending work.
        assert_eq!(w.next_deadline(|_, _| true), Some(ms(10)));
        assert_eq!(drain(&mut w).len(), 1);
    }

    #[test]
    fn schedule_at_or_before_now_is_immediately_due() {
        let mut w = TimerWheel::new();
        w.advance(ms(100));
        w.schedule(ms(100), 1);
        w.schedule(ms(40), 2);
        assert_eq!(drain(&mut w).len(), 2);
    }

    #[test]
    fn empty_wheel_jump_is_exact() {
        let mut w = TimerWheel::new();
        w.advance(SimTime::from_secs(3600));
        w.schedule(SimTime::from_secs(3600) + SimDuration::from_millis(30), 5);
        assert_eq!(
            w.next_deadline(|_, _| true),
            Some(SimTime::from_secs(3600) + SimDuration::from_millis(30))
        );
        w.advance(SimTime::from_secs(3601));
        assert_eq!(drain(&mut w).len(), 1);
    }

    #[test]
    fn dense_random_schedule_fires_everything_in_order() {
        // Mixed horizons, advanced in irregular jumps: every entry fires
        // exactly once, never early.
        let mut w = TimerWheel::new();
        let mut expect: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..5000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = (x % 40_000_000_000) + 1; // up to 40 s
            w.schedule(SimTime::from_nanos(ns), i);
            expect.push((ns, i));
        }
        let mut fired: Vec<(u64, u32)> = Vec::new();
        let mut now = 0u64;
        while now < 41_000_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += x % 500_000_000; // jumps up to 0.5 s
            w.advance(SimTime::from_nanos(now));
            w.drain_due(|item, ns| {
                assert!(ns <= now, "fired early: {ns} > {now}");
                fired.push((ns, item));
            });
        }
        expect.sort_unstable();
        fired.sort_unstable();
        assert_eq!(fired, expect);
        assert!(w.is_empty());
    }

    proptest! {
        /// Random interleavings of every operation, against a plain `Vec`
        /// of everything scheduled and not yet drained. Items whose bit is
        /// clear in `live` are stale: the heap may drop them early, so
        /// only live entries must match the model exactly.
        #[test]
        fn matches_a_vec_model_under_random_liveness(
            live in any::<u8>(),
            script in proptest::collection::vec((0u8..6, 0u64..200, 0u32..8), 1..120)
        ) {
            let is_live = |item: u32, _ns: u64| live & (1 << item) != 0;
            let live_only = |v: &[(u64, u32)]| -> Vec<(u64, u32)> {
                v.iter().copied().filter(|&(ns, i)| is_live(i, ns)).collect()
            };
            let mut w = TimerWheel::new();
            let mut model: Vec<(u64, u32)> = Vec::new();
            let mut now = 0u64;
            for (op, dt, item) in script {
                match op {
                    // Ahead of the clock, or at or before it (due at once).
                    0 | 1 => {
                        let ns = if op == 0 { now + dt } else { now.saturating_sub(dt) };
                        w.schedule(SimTime::from_nanos(ns), item);
                        model.push((ns, item));
                    }
                    // Forward, or backward (a no-op).
                    2 => {
                        now += dt;
                        w.advance(SimTime::from_nanos(now));
                    }
                    3 => w.advance(SimTime::from_nanos(now.saturating_sub(dt))),
                    4 => {
                        let mut drained = Vec::new();
                        w.drain_due(|item, ns| drained.push((ns, item)));
                        let (mut due, kept): (Vec<_>, Vec<_>) =
                            model.iter().partition(|e| e.0 <= now);
                        model = kept;
                        // Every drained entry was due in the model, and
                        // every live due entry was drained.
                        for e in &drained {
                            let at = due.iter().position(|d| d == e);
                            prop_assert!(at.is_some(), "drained {e:?}, not due in the model");
                            due.swap_remove(at.unwrap());
                        }
                        prop_assert_eq!(live_only(&due), vec![]);
                    }
                    _ => {
                        let want = live_only(&model).iter().map(|&(ns, _)| ns).min();
                        prop_assert_eq!(w.next_deadline(is_live), want.map(SimTime::from_nanos));
                    }
                }
                prop_assert!(w.len() <= model.len());
                prop_assert!(w.len() >= live_only(&model).len());
            }
        }
    }
}
