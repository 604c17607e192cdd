//! The per-client cyclic queue (paper §3.1.2, Fig. 7).
//!
//! Every AP within range of a client buffers that client's downlink
//! packets in a ring indexed by an m = 12-bit per-packet index the
//! controller assigns (incrementing per client, so the index is unique
//! within the ring's 4096 slots). Because *every* in-range AP already
//! holds the packets, a switch needs to transfer only one number — the
//! first unsent index `k` — and the new AP resumes delivery from its own
//! copy "almost immediately". [`CyclicQueue::jump_to`] is that resume
//! operation; it also discards the slots the previous AP already covered,
//! which is WGTT's "flushing each others' queues".

use wgtt_mac::seq::{seq_in_window, seq_sub, SEQ_SPACE};
use wgtt_net::Packet;

/// Ring capacity = the 12-bit index space.
pub const RING_SLOTS: usize = SEQ_SPACE as usize;

/// A per-client ring of downlink packets indexed by the controller's
/// 12-bit packet index.
///
/// ```
/// use wgtt::cyclic::CyclicQueue;
/// use wgtt_net::packet::{FlowId, PacketFactory};
/// use wgtt_net::wire::Ipv4Addr;
/// use wgtt_sim::SimTime;
///
/// let mut f = PacketFactory::new();
/// let mut q = CyclicQueue::new();
/// for i in 0..4u16 {
///     let p = f.udp(FlowId(0), Ipv4Addr::new(8, 8, 8, 8),
///                   Ipv4Addr::new(10, 0, 0, 1), i as u32, 1500, SimTime::ZERO);
///     q.insert(i, p);
/// }
/// // A switch hands over k = 2: this AP resumes there, discarding 0–1.
/// q.jump_to(2);
/// assert_eq!(q.pop().unwrap().0, 2);
/// ```
pub struct CyclicQueue {
    /// Storage for the live window `[head, tail)`: a power-of-two number
    /// of slots (or none before the first insert), index `i` living at
    /// `i mod slots.len()`. It grows when an insert reaches past it, so a
    /// ring costs what its deepest backlog did (every in-range AP keeps
    /// one per passing client), and never exceeds `RING_SLOTS / 2`, the
    /// widest window [`CyclicQueue::insert`] admits.
    slots: Vec<Option<Packet>>,
    /// Index of the next packet to hand to the NIC ("first unsent").
    head: u16,
    /// One past the highest index inserted (the producer edge).
    tail: u16,
    /// Occupied slots, all of them inside `[head, tail)`.
    count: usize,
    /// True once any packet has been inserted (disambiguates the
    /// head == tail empty/full cases well enough for our contiguous use).
    primed: bool,
}

impl Default for CyclicQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CyclicQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CyclicQueue")
            .field("head", &self.head)
            .field("tail", &self.tail)
            .field("backlog", &self.backlog())
            .finish()
    }
}

impl CyclicQueue {
    /// An empty ring.
    pub fn new() -> Self {
        CyclicQueue {
            slots: Vec::new(),
            head: 0,
            tail: 0,
            count: 0,
            primed: false,
        }
    }

    /// Store `packet` at `index`. Indices arrive in increasing (mod 4096)
    /// order from the controller, but an AP may *miss* arbitrary stretches
    /// while it is outside the client's fan-out set. Three cases:
    ///
    /// * index at or ahead of the window (< half the ring forward of the
    ///   head): normal insert, extending the producer edge — gaps stay
    ///   vacant and [`CyclicQueue::pop`] skips them;
    /// * index slightly *behind* the head (backhaul reordering of an
    ///   already-consumed slot): dropped;
    /// * index far ahead (the AP rejoined after missing ≥ half the index
    ///   space): the stale backlog is worthless — reset the ring around
    ///   the new index, exactly as a driver re-initialising a ring for a
    ///   returning station would.
    pub fn insert(&mut self, index: u16, packet: Packet) {
        debug_assert!((index as usize) < RING_SLOTS);
        if !self.primed {
            self.primed = true;
            self.head = index;
            self.tail = index;
        }
        /// Window behind the head treated as reordering (drop) rather
        /// than a rejoin (reset).
        const REORDER_GUARD: u16 = 64;
        let fwd = seq_sub(index, self.head);
        if fwd >= SEQ_SPACE - REORDER_GUARD {
            return; // just behind the head: stale duplicate / reorder
        }
        if fwd >= SEQ_SPACE / 2 {
            if self.count >= RING_SLOTS / 4 {
                // Genuine overload: the producer lapped a *full* ring.
                // Drop-tail, as the real driver queue does — the oldest
                // half-ring keeps draining at link capacity.
                return;
            }
            // A mostly-empty window half a ring behind the producer means
            // this AP rejoined the fan-out set after a long absence: the
            // stale backlog is worthless, re-anchor around the new index.
            self.slots.iter_mut().for_each(|s| *s = None);
            self.count = 0;
            self.head = index;
            self.tail = index;
        }
        let reach = seq_sub(index, self.head);
        if reach as usize >= self.slots.len() {
            self.grow(reach as usize + 1);
        }
        let at = self.slot_of(index);
        if self.slots[at].replace(packet).is_none() {
            self.count += 1;
        }
        // Extend the producer edge when this index reaches past it.
        if reach >= seq_sub(self.tail, self.head) {
            self.tail = (index + 1) % SEQ_SPACE;
        }
    }

    /// Where `index` lives. The length is a power of two dividing the
    /// index space, so the mapping is unchanged across the 12-bit wrap.
    fn slot_of(&self, index: u16) -> usize {
        index as usize & (self.slots.len() - 1)
    }

    /// Re-home the live window into storage of at least `min_slots`.
    fn grow(&mut self, min_slots: usize) {
        /// First allocation: 1 KiB of slots.
        const MIN_SLOTS: usize = 16;
        let mask = min_slots.next_power_of_two().max(MIN_SLOTS) - 1;
        let mut grown = vec![None; mask + 1];
        let mut i = self.head;
        while i != self.tail {
            let at = self.slot_of(i);
            grown[i as usize & mask] = self.slots[at].take();
            i = (i + 1) % SEQ_SPACE;
        }
        self.slots = grown;
    }

    /// Index of the next packet to send — the `k` in `start(c, k)`.
    pub fn first_unsent(&self) -> u16 {
        self.head
    }

    /// One past the newest inserted index.
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Take the next buffered packet at or after the head, advancing the
    /// head past it. Vacant slots are skipped: an AP that was outside the
    /// fan-out set for a stretch simply doesn't hold those indices, and
    /// delivery continues with the ones it has. `None` when the ring is
    /// drained (head caught up with tail).
    pub fn pop(&mut self) -> Option<(u16, Packet)> {
        while self.head != self.tail {
            let idx = self.head;
            self.head = (self.head + 1) % SEQ_SPACE;
            let at = self.slot_of(idx);
            if let Some(packet) = self.slots[at].take() {
                self.count -= 1;
                return Some((idx, packet));
            }
        }
        None
    }

    /// Peek the next buffered packet without consuming (skips gaps).
    pub fn peek(&self) -> Option<(u16, &Packet)> {
        let mut i = self.head;
        while i != self.tail {
            if let Some(p) = self.slots[self.slot_of(i)].as_ref() {
                return Some((i, p));
            }
            i = (i + 1) % SEQ_SPACE;
        }
        None
    }

    /// Resume delivery from index `k` (the `start(c, k)` handler):
    /// discard every slot in `[head, k)` — the previous AP owns those —
    /// and point the head at `k`.
    pub fn jump_to(&mut self, k: u16) {
        if !self.primed {
            self.head = k;
            self.tail = k;
            return;
        }
        let span = seq_sub(k, self.head);
        // Only move forward; a stale `start` pointing behind us is ignored.
        if span == 0 || span >= SEQ_SPACE / 2 {
            return;
        }
        // Nothing is buffered past the tail, so the sweep can stop there.
        let mut i = self.head;
        while i != k && i != self.tail {
            let at = self.slot_of(i);
            if self.slots[at].take().is_some() {
                self.count -= 1;
            }
            i = (i + 1) % SEQ_SPACE;
        }
        self.head = k;
        // If k is ahead of everything we ever buffered, tail follows.
        if !seq_in_window(self.tail, self.head, SEQ_SPACE / 2) {
            self.tail = k;
        }
    }

    /// Packets currently waiting between head and tail.
    pub fn backlog(&self) -> usize {
        self.count
    }

    /// Whether no packets are waiting.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drop every buffered packet and reset to `index` (client departed,
    /// or a fresh association).
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.head = 0;
        self.tail = 0;
        self.count = 0;
        self.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wgtt_net::packet::{FlowId, PacketFactory};
    use wgtt_net::wire::Ipv4Addr;
    use wgtt_sim::time::SimTime;

    fn pkt(f: &mut PacketFactory, seq: u32) -> Packet {
        f.udp(
            FlowId(0),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            seq,
            1500,
            SimTime::ZERO,
        )
    }

    #[test]
    fn fifo_in_index_order() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..5u16 {
            q.insert(i, pkt(&mut f, i as u32));
        }
        for i in 0..5u16 {
            let (idx, _) = q.pop().expect("packet present");
            assert_eq!(idx, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn starts_at_first_inserted_index() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(100, pkt(&mut f, 0));
        assert_eq!(q.first_unsent(), 100);
        assert_eq!(q.pop().unwrap().0, 100);
    }

    #[test]
    fn jump_to_discards_prefix() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10u16 {
            q.insert(i, pkt(&mut f, i as u32));
        }
        q.jump_to(6);
        assert_eq!(q.first_unsent(), 6);
        assert_eq!(q.backlog(), 4);
        assert_eq!(q.pop().unwrap().0, 6);
    }

    #[test]
    fn stale_jump_backwards_is_ignored() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for i in 0..10u16 {
            q.insert(i, pkt(&mut f, i as u32));
        }
        q.pop();
        q.pop();
        let head = q.first_unsent();
        q.jump_to(0); // behind: must be a no-op
        assert_eq!(q.first_unsent(), head);
    }

    #[test]
    fn wraps_across_index_space() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for off in 0..6u16 {
            let idx = (4093 + off) % 4096;
            q.insert(idx, pkt(&mut f, off as u32));
        }
        let popped: Vec<u16> = std::iter::from_fn(|| q.pop().map(|(i, _)| i)).collect();
        assert_eq!(popped, vec![4093, 4094, 4095, 0, 1, 2]);
    }

    #[test]
    fn jump_across_wrap() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        for off in 0..8u16 {
            q.insert((4090 + off) % 4096, pkt(&mut f, off as u32));
        }
        q.jump_to(1);
        assert_eq!(q.first_unsent(), 1);
        assert_eq!(q.backlog(), 1); // only index 1 remains
    }

    #[test]
    fn backlog_counts_waiting() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        assert!(q.is_empty());
        for i in 0..2000u16 {
            q.insert(i, pkt(&mut f, i as u32));
        }
        assert_eq!(q.backlog(), 2000); // the paper's ~1,600–2,000 backlog
        q.pop();
        assert_eq!(q.backlog(), 1999);
    }

    #[test]
    fn clear_resets() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.insert(7, pkt(&mut f, 0));
        q.clear();
        assert!(q.is_empty());
        q.insert(3, pkt(&mut f, 1));
        assert_eq!(q.first_unsent(), 3);
    }

    #[test]
    fn jump_to_before_any_insert_anchors() {
        let mut f = PacketFactory::new();
        let mut q = CyclicQueue::new();
        q.jump_to(50);
        q.insert(50, pkt(&mut f, 0));
        assert_eq!(q.pop().unwrap().0, 50);
    }

    proptest! {
        #[test]
        fn pop_always_advances_in_order(start in 0u16..4096, n in 1u16..200) {
            let mut f = PacketFactory::new();
            let mut q = CyclicQueue::new();
            for off in 0..n {
                q.insert((start + off) % 4096, pkt(&mut f, off as u32));
            }
            let mut prev: Option<u16> = None;
            while let Some((idx, _)) = q.pop() {
                if let Some(p) = prev {
                    prop_assert_eq!(idx, (p + 1) % 4096);
                }
                prev = Some(idx);
            }
            prop_assert_eq!(prev, Some((start + n - 1) % 4096));
        }

        #[test]
        fn jump_then_pop_starts_at_k(start in 0u16..4096, n in 2u16..200, skip in 1u16..100) {
            prop_assume!(skip < n);
            let mut f = PacketFactory::new();
            let mut q = CyclicQueue::new();
            for off in 0..n {
                q.insert((start + off) % 4096, pkt(&mut f, off as u32));
            }
            let k = (start + skip) % 4096;
            q.jump_to(k);
            prop_assert_eq!(q.pop().map(|(i, _)| i), Some(k));
            prop_assert_eq!(q.backlog() as u16, n - skip - 1);
        }

        // The three properties below pin the 12-bit wraparound seam
        // specifically: `start` is drawn close enough to 4095 and `n`
        // large enough that every generated sequence crosses index 0.

        #[test]
        fn wrap_crossing_interleaved_insert_pop_conserves(
            start in 3_900u16..4096,
            n in 200u16..500,
            batch in 1u16..8,
        ) {
            // Producer and consumer run concurrently (a batch of
            // inserts, then one pop), exactly how an AP drains its ring
            // while the controller keeps replicating — across the wrap,
            // no packet may be lost, duplicated, or reordered.
            let mut f = PacketFactory::new();
            let mut q = CyclicQueue::new();
            let mut popped: Vec<u16> = Vec::new();
            let mut inserted = 0u16;
            while inserted < n {
                for _ in 0..batch.min(n - inserted) {
                    q.insert((start + inserted) % 4096, pkt(&mut f, inserted as u32));
                    inserted += 1;
                }
                if let Some((idx, _)) = q.pop() {
                    popped.push(idx);
                }
            }
            while let Some((idx, _)) = q.pop() {
                popped.push(idx);
            }
            let expected: Vec<u16> = (0..n).map(|off| (start + off) % 4096).collect();
            prop_assert_eq!(popped, expected);
        }

        #[test]
        fn resume_from_k_across_wrap_preserves_suffix(start in 3_900u16..4096, n in 200u16..500, skip in 0u16..500) {
            prop_assume!(skip < n);
            let mut f = PacketFactory::new();
            let mut q = CyclicQueue::new();
            for off in 0..n {
                q.insert((start + off) % 4096, pkt(&mut f, off as u32));
            }
            // `start(c, k)` lands on either side of the wrap depending
            // on `skip`; the suffix [k, start + n) must survive intact
            // and in order.
            let k = (start + skip) % 4096;
            q.jump_to(k);
            let mut delivered: Vec<u16> = Vec::new();
            while let Some((idx, _)) = q.pop() {
                delivered.push(idx);
            }
            let expected: Vec<u16> = (skip..n).map(|off| (start + off) % 4096).collect();
            prop_assert_eq!(delivered, expected);
        }

        #[test]
        fn switch_handoff_across_wrap_covers_every_index(
            start in 3_950u16..4096,
            n in 200u16..400,
            served_by_old in 1u16..200,
        ) {
            prop_assume!(served_by_old < n);
            // Old and new AP both hold the client's ring (the paper's
            // fan-out replication). The old AP serves a prefix, the
            // switch hands `k` = first unsent to the new AP, which
            // resumes from its own copy: together they must cover
            // [start, start + n) exactly once, in order, across wrap.
            let mut f = PacketFactory::new();
            let mut old_ap = CyclicQueue::new();
            let mut new_ap = CyclicQueue::new();
            for off in 0..n {
                let idx = (start + off) % 4096;
                old_ap.insert(idx, pkt(&mut f, off as u32));
                new_ap.insert(idx, pkt(&mut f, off as u32));
            }
            let mut delivered: Vec<u16> = Vec::new();
            for _ in 0..served_by_old {
                let (idx, _) = old_ap.pop().expect("prefix present");
                delivered.push(idx);
            }
            let k = old_ap.first_unsent();
            new_ap.jump_to(k);
            while let Some((idx, _)) = new_ap.pop() {
                delivered.push(idx);
            }
            let expected: Vec<u16> = (0..n).map(|off| (start + off) % 4096).collect();
            prop_assert_eq!(delivered, expected);
        }
    }
}
