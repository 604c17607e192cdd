//! Model-equivalence property suite for `wgtt::cyclic::CyclicQueue`.
//!
//! The model is the ring the queue used to be: a fixed 4 096-slot array
//! indexed directly by the 12-bit packet index, with `backlog` a scan of
//! head‥tail. The shipping queue keeps every rule of that ring but backs
//! it with storage that grows with the backlog, so random
//! insert / pop / peek / jump_to / clear sequences must give identical
//! answers on both — across the index wrap, for duplicates just behind
//! the head (the reorder guard), and for jumps of half the index space
//! or more with the occupancy on either side of the drop-tail threshold.

use proptest::prelude::*;
use wgtt::cyclic::{CyclicQueue, RING_SLOTS};
use wgtt_mac::seq::{seq_in_window, seq_sub, SEQ_SPACE};
use wgtt_net::packet::{FlowId, PacketFactory};
use wgtt_net::wire::Ipv4Addr;
use wgtt_net::Packet;
use wgtt_sim::time::SimTime;

/// The fixed-array ring, as it stood before the backing store changed.
struct Model {
    slots: Vec<Option<Packet>>,
    head: u16,
    tail: u16,
    count: usize,
    primed: bool,
}

impl Model {
    fn new() -> Self {
        Model {
            slots: vec![None; RING_SLOTS],
            head: 0,
            tail: 0,
            count: 0,
            primed: false,
        }
    }

    fn insert(&mut self, index: u16, packet: Packet) {
        if !self.primed {
            self.primed = true;
            self.head = index;
            self.tail = index;
        }
        const REORDER_GUARD: u16 = 64;
        let fwd = seq_sub(index, self.head);
        if fwd >= SEQ_SPACE - REORDER_GUARD {
            return;
        }
        if fwd >= SEQ_SPACE / 2 {
            if self.count >= RING_SLOTS / 4 {
                return;
            }
            self.slots.iter_mut().for_each(|s| *s = None);
            self.count = 0;
            self.head = index;
            self.tail = index;
        }
        if self.slots[index as usize].is_none() {
            self.count += 1;
        }
        self.slots[index as usize] = Some(packet);
        if seq_sub(index, self.head) >= seq_sub(self.tail, self.head) {
            self.tail = (index + 1) % SEQ_SPACE;
        }
    }

    fn pop(&mut self) -> Option<(u16, Packet)> {
        while self.head != self.tail {
            let idx = self.head;
            self.head = (self.head + 1) % SEQ_SPACE;
            if let Some(packet) = self.slots[idx as usize].take() {
                self.count -= 1;
                return Some((idx, packet));
            }
        }
        None
    }

    fn peek(&self) -> Option<(u16, &Packet)> {
        let mut i = self.head;
        while i != self.tail {
            if let Some(p) = self.slots[i as usize].as_ref() {
                return Some((i, p));
            }
            i = (i + 1) % SEQ_SPACE;
        }
        None
    }

    fn jump_to(&mut self, k: u16) {
        if !self.primed {
            self.head = k;
            self.tail = k;
            return;
        }
        let span = seq_sub(k, self.head);
        if span == 0 || span >= SEQ_SPACE / 2 {
            return;
        }
        let mut i = self.head;
        while i != k {
            if self.slots[i as usize].take().is_some() {
                self.count -= 1;
            }
            i = (i + 1) % SEQ_SPACE;
        }
        self.head = k;
        if !seq_in_window(self.tail, self.head, SEQ_SPACE / 2) {
            self.tail = k;
        }
    }

    fn backlog(&self) -> usize {
        let mut n = 0;
        let mut i = self.head;
        while i != self.tail {
            if self.slots[i as usize].is_some() {
                n += 1;
            }
            i = (i + 1) % SEQ_SPACE;
        }
        n
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.head = 0;
        self.tail = 0;
        self.count = 0;
        self.primed = false;
    }

    /// Occupied slots anywhere in the array, not just head‥tail.
    fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Both rings side by side; every mutation goes to both and every
/// observable is compared after it.
struct Pair {
    q: CyclicQueue,
    model: Model,
    factory: PacketFactory,
    /// The controller's next index: where sequential traffic continues.
    next: u16,
}

impl Pair {
    fn starting_at(start: u16) -> Self {
        Pair {
            q: CyclicQueue::new(),
            model: Model::new(),
            factory: PacketFactory::new(),
            next: start,
        }
    }

    fn insert(&mut self, index: u16) {
        let p = self.factory.udp(
            FlowId(0),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            u32::from(index),
            1500,
            SimTime::ZERO,
        );
        self.q.insert(index, p);
        self.model.insert(index, p);
    }

    /// `n` packets at consecutive indices, as the controller assigns them.
    fn insert_run(&mut self, n: u16) {
        for _ in 0..n {
            self.insert(self.next);
            self.next = (self.next + 1) % SEQ_SPACE;
        }
    }

    fn pop_run(&mut self, n: u16) -> Result<(), TestCaseError> {
        for _ in 0..n {
            prop_assert_eq!(self.q.pop(), self.model.pop());
        }
        Ok(())
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.q.first_unsent(), self.model.head);
        prop_assert_eq!(self.q.tail(), self.model.tail);
        prop_assert_eq!(self.q.backlog(), self.model.backlog());
        prop_assert_eq!(self.q.backlog(), self.model.occupied());
        prop_assert_eq!(self.q.is_empty(), self.model.backlog() == 0);
        prop_assert_eq!(self.q.peek(), self.model.peek());
        Ok(())
    }

    /// Apply one generated operation. `a` picks an offset or an index,
    /// `b` a run length.
    fn apply(&mut self, kind: u8, a: u16, b: u16) -> Result<(), TestCaseError> {
        let head = self.model.head;
        match kind {
            // Steady traffic, sometimes skipping a stretch the AP missed.
            0..=2 => self.insert_run(b % 48 + 1),
            3 => {
                self.next = (self.next + a % 300) % SEQ_SPACE;
                self.insert_run(b % 8 + 1);
            }
            // A burst deep enough to take the occupancy past the
            // drop-tail threshold (RING_SLOTS / 4) in a few steps.
            4 => self.insert_run(b % 700 + 1),
            5..=6 => self.pop_run(b % 64 + 1)?,
            7 => self.pop_run(b % 1500 + 1)?,
            // Behind the head: inside the 64-index reorder guard and
            // just past it (where it reads as a rejoin instead).
            8 => self.insert((head + SEQ_SPACE - 1 - a % 96) % SEQ_SPACE),
            // Half the index space or more ahead of the head.
            9 => {
                let index = (head + SEQ_SPACE / 2 + a % (SEQ_SPACE / 2 - 64)) % SEQ_SPACE;
                self.insert(index);
                if self.model.head == index {
                    // The ring re-anchored there; traffic continues.
                    self.next = (index + 1) % SEQ_SPACE;
                }
            }
            // Anywhere at all.
            10 => self.insert(a % SEQ_SPACE),
            // `start(c, k)`: inside the backlog, past the tail, stale.
            11..=12 => {
                let k = (head + a % 2_300) % SEQ_SPACE;
                self.q.jump_to(k);
                self.model.jump_to(k);
            }
            13 => {
                self.q.jump_to(a % SEQ_SPACE);
                self.model.jump_to(a % SEQ_SPACE);
            }
            _ => {
                // Rare: most sequences should build up state instead.
                if b < 512 {
                    self.q.clear();
                    self.model.clear();
                }
            }
        }
        self.check()
    }
}

proptest! {
    #[test]
    fn random_operation_sequences_match_the_fixed_array_ring(
        start in 0u16..4096,
        ops in proptest::collection::vec((0u8..15, 0u16..4096, 0u16..4096), 1..300),
    ) {
        let mut pair = Pair::starting_at(start);
        for (kind, a, b) in ops {
            pair.apply(kind, a, b)?;
        }
        // Drain: every remaining packet comes out of both in one order.
        while let Some(got) = pair.q.pop() {
            prop_assert_eq!(Some(got), pair.model.pop());
        }
        prop_assert_eq!(pair.model.pop(), None);
        pair.check()?;
    }

    #[test]
    fn half_space_jumps_agree_on_both_sides_of_the_drop_tail_threshold(
        start in 0u16..4096,
        held in 1_000u16..1_050,
        far in 0u16..1_984,
        behind in 0u16..96,
    ) {
        // `held` straddles RING_SLOTS / 4 = 1 024: below it a far-ahead
        // index re-anchors the ring, at or above it the packet is
        // dropped and the backlog stands.
        let mut pair = Pair::starting_at(start);
        pair.insert_run(held);
        pair.check()?;
        let head = pair.model.head;
        pair.insert((head + SEQ_SPACE / 2 + far) % SEQ_SPACE);
        pair.check()?;
        let reanchored = pair.model.head != head;
        prop_assert_eq!(reanchored, usize::from(held) < RING_SLOTS / 4);
        // A late duplicate of a consumed slot, then traffic resumes.
        pair.pop_run(3)?;
        let head = pair.model.head;
        pair.insert((head + SEQ_SPACE - 1 - behind) % SEQ_SPACE);
        pair.check()?;
        pair.next = pair.model.tail;
        pair.insert_run(40);
        pair.check()?;
        // Hand over past everything buffered, then refill from there.
        let k = (pair.model.tail + 5) % SEQ_SPACE;
        pair.q.jump_to(k);
        pair.model.jump_to(k);
        pair.check()?;
        pair.next = k;
        pair.insert_run(20);
        pair.check()?;
        pair.pop_run(25)?;
        pair.check()?;
    }
}
