//! Amortized hierarchical timer wheel for the controller's switch-ack
//! deadlines.
//!
//! The controller arms one 30 ms ack timeout per in-flight switch, and
//! the event loop asks for the earliest pending deadline after *every*
//! dispatched action. With a fleet of 10⁵ clients the seed
//! implementation's answer — iterate every client — turns each packet
//! into an O(n) scan. The wheel makes `schedule` O(1),
//! [`next_deadline`](TimerWheel::next_deadline) O(occupied slots) with a
//! bitmap front-end, and [`advance`](TimerWheel::advance) amortized O(1)
//! per elapsed ~1 ms tick.
//!
//! ## Shape
//!
//! Two levels plus an overflow list, all keyed by absolute deadline in
//! nanoseconds:
//!
//! * **L0**: 256 slots of 2²⁰ ns (≈ 1.05 ms) each — ≈ 269 ms of near
//!   horizon, an order of magnitude past the 30 ms ack timeout, so in
//!   steady state every real deadline lives here.
//! * **L1**: 64 slots of 256 ticks each (≈ 17.2 s). Entries cascade
//!   down into L0 when the cursor reaches their slot.
//! * **Overflow**: a plain vec for anything beyond ≈ 18 min; re-homed
//!   lazily at L1 lap boundaries.
//!
//! Entries whose deadline has been passed by
//! [`advance`](TimerWheel::advance) collect in a `due` bucket that
//! [`drain_due`](TimerWheel::drain_due) hands to the caller.
//!
//! ## Stale entries
//!
//! The wheel never cancels. A completed or abandoned switch simply
//! leaves its entry behind; the entry is *stale* because the client's
//! protocol driver no longer reports that deadline. Every query takes an
//! `is_live(item, deadline_ns)` predicate and compacts the stale entries
//! it visits, so memory is bounded by live timers plus the stale ones
//! not yet walked past. Re-arming the same client at a new deadline just
//! schedules a second entry — at most one of the two can ever be live,
//! and the caller de-duplicates per-item when draining.

use wgtt_sim::time::SimTime;

/// log2 of the L0 slot count.
const L0_BITS: u64 = 8;
/// Near-horizon slots (one ~1 ms tick each).
const L0_SLOTS: usize = 1 << L0_BITS;
/// log2 of the L1 slot count.
const L1_BITS: u64 = 6;
/// Far-horizon slots (256 ticks each).
const L1_SLOTS: usize = 1 << L1_BITS;
/// log2 of the tick length in nanoseconds (2²⁰ ns ≈ 1.05 ms).
const TICK_SHIFT: u64 = 20;

/// One scheduled entry: absolute deadline (ns) plus the caller's payload
/// (the controller stores a client slab index).
type Entry = (u64, u32);

/// Hierarchical timer wheel over `u32` payloads.
#[derive(Debug)]
pub struct TimerWheel {
    l0: Vec<Vec<Entry>>,
    /// Occupancy bitmap over `l0` (4 × 64 bits = 256 slots): lets the
    /// min-scan skip empty regions a word at a time.
    l0_occ: [u64; 4],
    l1: Vec<Vec<Entry>>,
    l1_occ: u64,
    overflow: Vec<Entry>,
    /// Entries whose deadline `advance` has passed, awaiting `drain_due`.
    due: Vec<Entry>,
    /// Tick index of the cursor (== `now_ns >> TICK_SHIFT`).
    base_tick: u64,
    /// The instant `advance` last moved to.
    now_ns: u64,
    /// Total entries anywhere (l0 + l1 + overflow + due), live or stale.
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            l0: vec![Vec::new(); L0_SLOTS],
            l0_occ: [0; 4],
            l1: vec![Vec::new(); L1_SLOTS],
            l1_occ: 0,
            overflow: Vec::new(),
            due: Vec::new(),
            base_tick: 0,
            now_ns: 0,
            len: 0,
        }
    }

    /// Entries currently held (live or stale).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn set_l0(&mut self, slot: usize) {
        self.l0_occ[slot >> 6] |= 1 << (slot & 63);
    }

    fn clear_l0(&mut self, slot: usize) {
        self.l0_occ[slot >> 6] &= !(1 << (slot & 63));
    }

    /// Arm `item` to fire at `deadline`. O(1).
    pub fn schedule(&mut self, deadline: SimTime, item: u32) {
        let ns = deadline.as_nanos();
        self.len += 1;
        if ns <= self.now_ns {
            self.due.push((ns, item));
            return;
        }
        let tick = ns >> TICK_SHIFT;
        if tick - self.base_tick < L0_SLOTS as u64 {
            let slot = (tick as usize) & (L0_SLOTS - 1);
            self.l0[slot].push((ns, item));
            self.set_l0(slot);
        } else if (tick >> L0_BITS) - (self.base_tick >> L0_BITS) < L1_SLOTS as u64 {
            let slot = ((tick >> L0_BITS) as usize) & (L1_SLOTS - 1);
            self.l1[slot].push((ns, item));
            self.l1_occ |= 1 << slot;
        } else {
            self.overflow.push((ns, item));
        }
    }

    /// Re-home an entry that the cursor's motion has brought inside a
    /// nearer horizon (or made due). Does not touch `len`.
    fn replace(&mut self, e: Entry) {
        self.len -= 1;
        self.schedule(SimTime::from_nanos(e.0), e.1);
    }

    /// Move the cursor to `now`, collecting every entry whose deadline
    /// is ≤ `now` into the due bucket and cascading L1/overflow entries
    /// whose horizon the cursor reached. Amortized O(1) per elapsed
    /// tick; O(1) total when the wheel is empty.
    pub fn advance(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        if now_ns <= self.now_ns {
            return;
        }
        let target_tick = now_ns >> TICK_SHIFT;
        if self.len == self.due.len() {
            // Nothing armed: jump the cursor without walking ticks.
            self.base_tick = target_tick;
            self.now_ns = now_ns;
            return;
        }
        self.now_ns = now_ns;
        // The cursor's own slot first: a sub-tick advance can make its
        // entries due without the tick index moving.
        self.drain_l0_due(self.base_tick as usize & (L0_SLOTS - 1));
        while self.base_tick < target_tick {
            self.base_tick += 1;
            if self.base_tick & ((1 << L0_BITS) - 1) == 0 {
                // Entering a new L1 slot: cascade it down into L0.
                let l1_slot = ((self.base_tick >> L0_BITS) as usize) & (L1_SLOTS - 1);
                if self.l1_occ & (1 << l1_slot) != 0 {
                    let entries = std::mem::take(&mut self.l1[l1_slot]);
                    self.l1_occ &= !(1 << l1_slot);
                    for e in entries {
                        self.replace(e);
                    }
                }
                if (self.base_tick >> L0_BITS) & ((1 << L1_BITS) - 1) == 0 {
                    // New L1 lap: overflow entries may fit the wheel now.
                    let entries = std::mem::take(&mut self.overflow);
                    for e in entries {
                        self.replace(e);
                    }
                }
            }
            self.drain_l0_due(self.base_tick as usize & (L0_SLOTS - 1));
        }
    }

    /// Move the entries of one L0 slot whose deadline has passed into
    /// the due bucket.
    fn drain_l0_due(&mut self, slot: usize) {
        if self.l0_occ[slot >> 6] & (1 << (slot & 63)) == 0 {
            return;
        }
        let now_ns = self.now_ns;
        let mut i = 0;
        while i < self.l0[slot].len() {
            if self.l0[slot][i].0 <= now_ns {
                let e = self.l0[slot].swap_remove(i);
                self.due.push(e);
            } else {
                i += 1;
            }
        }
        if self.l0[slot].is_empty() {
            self.clear_l0(slot);
        }
    }

    /// Hand every due entry (accumulated by [`advance`](Self::advance))
    /// to `f` and remove it. Call order is unspecified; the controller
    /// sorts by client id before firing, matching the oracle.
    pub fn drain_due(&mut self, mut f: impl FnMut(u32, u64)) {
        self.len -= self.due.len();
        for (ns, item) in self.due.drain(..) {
            f(item, ns);
        }
    }

    /// Earliest deadline among live entries, or `None`. Compacts the
    /// stale entries it visits: the due bucket and overflow fully, each
    /// level's slots in cursor order up to (and including) the first
    /// slot holding a live entry.
    pub fn next_deadline(&mut self, mut is_live: impl FnMut(u32, u64) -> bool) -> Option<SimTime> {
        let mut best: Option<u64> = None;
        let before = self.due.len();
        self.due.retain(|&(ns, item)| is_live(item, ns));
        self.len -= before - self.due.len();
        for &(ns, _) in &self.due {
            best = Some(best.map_or(ns, |b: u64| b.min(ns)));
        }
        // Level scans stop at the first surviving slot: within a level,
        // cursor ring order is deadline-tick order (every entry is
        // within one lap of the cursor), so later slots can't beat it.
        // Entries in coarser levels *can* — an L1 slot spans 256 ticks,
        // so its min is compared, not trusted blindly.
        let l0_min = self.scan_l0(&mut is_live);
        let l1_min = self.scan_l1(&mut is_live);
        let before = self.overflow.len();
        self.overflow.retain(|&(ns, item)| is_live(item, ns));
        self.len -= before - self.overflow.len();
        let of_min = self.overflow.iter().map(|&(ns, _)| ns).min();
        for m in [l0_min, l1_min, of_min].into_iter().flatten() {
            best = Some(best.map_or(m, |b: u64| b.min(m)));
        }
        best.map(SimTime::from_nanos)
    }

    fn scan_l0(&mut self, is_live: &mut impl FnMut(u32, u64) -> bool) -> Option<u64> {
        let cursor = self.base_tick as usize & (L0_SLOTS - 1);
        let mut i = 0;
        while i < L0_SLOTS {
            let s = (cursor + i) & (L0_SLOTS - 1);
            if s & 63 == 0 && self.l0_occ[s >> 6] == 0 {
                i += 64;
                continue;
            }
            if self.l0_occ[s >> 6] & (1 << (s & 63)) != 0 {
                let before = self.l0[s].len();
                self.l0[s].retain(|&(ns, item)| is_live(item, ns));
                self.len -= before - self.l0[s].len();
                if self.l0[s].is_empty() {
                    self.clear_l0(s);
                } else {
                    return self.l0[s].iter().map(|&(ns, _)| ns).min();
                }
            }
            i += 1;
        }
        None
    }

    fn scan_l1(&mut self, is_live: &mut impl FnMut(u32, u64) -> bool) -> Option<u64> {
        if self.l1_occ == 0 {
            return None;
        }
        let cursor = ((self.base_tick >> L0_BITS) as usize) & (L1_SLOTS - 1);
        for i in 0..L1_SLOTS {
            let s = (cursor + i) & (L1_SLOTS - 1);
            if self.l1_occ & (1 << s) != 0 {
                let before = self.l1[s].len();
                self.l1[s].retain(|&(ns, item)| is_live(item, ns));
                self.len -= before - self.l1[s].len();
                if self.l1[s].is_empty() {
                    self.l1_occ &= !(1 << s);
                } else {
                    return self.l1[s].iter().map(|&(ns, _)| ns).min();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // ~2 s is far past L0's ~269 ms horizon.
        w.schedule(SimTime::from_secs(2), 1);
        w.advance(SimTime::from_secs(1));
        assert!(drain(&mut w).is_empty());
        w.advance(SimTime::from_secs(2));
        assert_eq!(drain(&mut w).len(), 1);
    }

    #[test]
    fn overflow_deadline_survives_long_jumps() {
        let mut w = TimerWheel::new();
        // 30 min is beyond L1's ~18 min horizon.
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
        // L0 entry at 400 ms lands *behind* the ring cursor slot of an
        // L1 entry at 300 ms scheduled earlier — the min must still win.
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
}
