//! Per-MPDU model suite for `wgtt_mac::sender::Sender`.
//!
//! The model follows every staged MPDU by id — where it waits, how often
//! it has been on the air, how it ended — and predicts what each Block
//! ACK or timeout settles from the 802.11 rules alone: a bitmap covers 64
//! sequence numbers from its start, a copy of the last applied pair is a
//! duplicate, a window that covers nothing in flight is stale, and an
//! MPDU goes at most `RETRY_LIMIT + 1` times. Under random
//! interleavings of stage / build / Block ACK / timeout / clear, with the
//! caller switching between retrying and draining as a WGTT AP does on
//! `stop`, the sender must agree with it on every return value and:
//!
//! * never hold two windows in flight;
//! * lead each aggregate with the retries, in the order they failed, then
//!   fresh MPDUs in the order staged, all inside one Block ACK window;
//! * end every MPDU exactly once — delivered, dropped, or cleared — and
//!   never send one more than the retry budget allows;
//! * conserve them: delivered + dropped + cleared + backlog + in flight =
//!   staged, at every step.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use wgtt_mac::aggregation::AggregationPolicy;
use wgtt_mac::blockack::{BA_WINDOW, RETRY_LIMIT};
use wgtt_mac::frame::{Mpdu, PacketRef};
use wgtt_mac::rate::RateController;
use wgtt_mac::sender::{BaFeedback, Sender, Unacked};
use wgtt_mac::seq::{seq_add, seq_sub};
use wgtt_sim::rng::RngStream;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Delivered,
    Dropped,
    Cleared,
}

/// One MPDU as the model sees it: identity, and transmissions so far.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    id: u64,
    seq: u16,
    sent: u32,
}

#[derive(Default)]
struct Model {
    staged: VecDeque<Tracked>,
    retries: Vec<Tracked>,
    in_flight: Vec<Tracked>,
    last_ba: Option<(u16, u64)>,
    fates: HashMap<u64, Fate>,
    staged_total: u64,
}

impl Model {
    fn end(&mut self, id: u64, fate: Fate) -> Result<(), TestCaseError> {
        prop_assert!(
            self.fates.insert(id, fate).is_none(),
            "MPDU {id} ended twice"
        );
        Ok(())
    }

    /// What a failed MPDU becomes, by mode and budget.
    fn fail(&mut self, m: Tracked, unacked: Unacked, fb: &mut BaFeedback) {
        let exhausted = m.sent > u32::from(RETRY_LIMIT);
        if exhausted || unacked == Unacked::Drop {
            fb.dropped.push(PacketRef { id: m.id, len: 0 });
        } else {
            self.retries.push(m);
        }
    }

    fn on_block_ack(&mut self, start: u16, bitmap: u64, unacked: Unacked) -> BaFeedback {
        let covered = |m: &Tracked| seq_sub(m.seq, start) < BA_WINDOW;
        let stale = !self.in_flight.is_empty() && !self.in_flight.iter().any(covered);
        if stale || self.last_ba == Some((start, bitmap)) {
            return BaFeedback {
                duplicate: true,
                ..BaFeedback::default()
            };
        }
        self.last_ba = Some((start, bitmap));
        let mut fb = BaFeedback::default();
        for m in std::mem::take(&mut self.in_flight) {
            if covered(&m) && (bitmap >> seq_sub(m.seq, start)) & 1 == 1 {
                fb.delivered.push(PacketRef { id: m.id, len: 0 });
            } else {
                self.fail(m, unacked, &mut fb);
            }
        }
        fb
    }

    fn on_ba_timeout(&mut self, unacked: Unacked) -> BaFeedback {
        let mut fb = BaFeedback::default();
        for m in std::mem::take(&mut self.in_flight) {
            self.fail(m, unacked, &mut fb);
        }
        fb
    }

    fn backlog(&self) -> usize {
        self.staged.len() + self.retries.len()
    }

    fn count(&self, fate: Fate) -> u64 {
        self.fates.values().filter(|&&f| f == fate).count() as u64
    }
}

struct Pair {
    sender: Sender,
    model: Model,
    policy: AggregationPolicy,
    next_seq: u16,
    /// The caller's mode: a WGTT AP retries while serving and drains
    /// after `stop`.
    unacked: Unacked,
}

impl Pair {
    fn new(seed: u64, start_seq: u16) -> Self {
        Pair {
            sender: Sender::new(RateController::new(RngStream::root(seed).rng())),
            model: Model::default(),
            policy: AggregationPolicy::default(),
            next_seq: start_seq,
            unacked: Unacked::Retry,
        }
    }

    fn stage(&mut self, n: u16, len: u16) {
        for _ in 0..n {
            let id = self.model.staged_total;
            self.model.staged_total += 1;
            let seq = self.next_seq;
            self.next_seq = seq_add(seq, 1);
            self.sender.stage(Mpdu {
                seq,
                packet: PacketRef { id, len },
                retries: 0,
            });
            self.model.staged.push_back(Tracked { id, seq, sent: 0 });
        }
    }

    fn build(&mut self) -> Result<(), TestCaseError> {
        let busy = !self.model.in_flight.is_empty();
        let Some((mpdus, _mcs)) = self.sender.build(&self.policy) else {
            prop_assert!(
                busy || self.model.backlog() == 0,
                "idle sender with a backlog built nothing"
            );
            return Ok(());
        };
        prop_assert!(!busy, "a second window while one is in flight");
        prop_assert!((1..=self.policy.max_mpdus).contains(&mpdus.len()));
        // The aggregate is a prefix of retries ++ staged.
        for m in &mpdus {
            let mut want = if self.model.retries.is_empty() {
                self.model.staged.pop_front().expect("model backlog")
            } else {
                self.model.retries.remove(0)
            };
            prop_assert_eq!((m.packet.id, m.seq), (want.id, want.seq));
            prop_assert_eq!(
                u32::from(m.retries),
                want.sent,
                "retry count of {}",
                want.id
            );
            prop_assert!(seq_sub(m.seq, mpdus[0].seq) < BA_WINDOW);
            want.sent += 1;
            prop_assert!(
                want.sent <= u32::from(RETRY_LIMIT) + 1,
                "MPDU {} sent {} times",
                want.id,
                want.sent
            );
            self.model.in_flight.push(want);
        }
        Ok(())
    }

    /// Compare an outcome with the model's and record the fates. The
    /// order within `dropped` is the sender's own business.
    fn settle(&mut self, got: BaFeedback, want: BaFeedback) -> Result<(), TestCaseError> {
        let ids = |v: &[PacketRef]| v.iter().map(|p| p.id).collect::<Vec<_>>();
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        prop_assert_eq!(got.duplicate, want.duplicate);
        prop_assert_eq!(ids(&got.delivered), ids(&want.delivered));
        prop_assert_eq!(sorted(ids(&got.dropped)), sorted(ids(&want.dropped)));
        for p in &got.delivered {
            self.model.end(p.id, Fate::Delivered)?;
        }
        for p in &got.dropped {
            self.model.end(p.id, Fate::Dropped)?;
        }
        Ok(())
    }

    fn block_ack(&mut self, start: u16, bitmap: u64) -> Result<(), TestCaseError> {
        let got = self.sender.on_block_ack(start, bitmap, self.unacked);
        let want = self.model.on_block_ack(start, bitmap, self.unacked);
        self.settle(got, want)
    }

    fn timeout(&mut self) -> Result<(), TestCaseError> {
        let got = self.sender.on_ba_timeout(self.unacked);
        let want = self.model.on_ba_timeout(self.unacked);
        self.settle(got, want)
    }

    fn clear(&mut self, window_only: bool) -> Result<(), TestCaseError> {
        let m = &mut self.model;
        let mut gone: Vec<Tracked> = m.in_flight.drain(..).chain(m.retries.drain(..)).collect();
        if window_only {
            self.sender.clear_window();
        } else {
            gone.extend(m.staged.drain(..));
            self.sender.clear();
        }
        for t in gone {
            self.model.end(t.id, Fate::Cleared)?;
        }
        Ok(())
    }

    /// The sender's view of its queues matches, and nothing is lost.
    fn check(&self) -> Result<(), TestCaseError> {
        let m = &self.model;
        prop_assert_eq!(self.sender.has_in_flight(), !m.in_flight.is_empty());
        prop_assert_eq!(self.sender.staged_len(), m.staged.len());
        prop_assert_eq!(self.sender.backlog(), m.backlog());
        prop_assert_eq!(self.sender.has_backlog(), m.backlog() > 0);
        prop_assert_eq!(
            self.sender.has_work(),
            m.in_flight.is_empty() && m.backlog() > 0
        );
        let ended = m.count(Fate::Delivered) + m.count(Fate::Dropped) + m.count(Fate::Cleared);
        prop_assert_eq!(
            ended + (m.backlog() + m.in_flight.len()) as u64,
            m.staged_total,
            "conservation"
        );
        Ok(())
    }

    fn apply(&mut self, kind: u8, a: u16, bits: u64) -> Result<(), TestCaseError> {
        let first = self.model.in_flight.first().map_or(a, |m| m.seq);
        match kind {
            0..=2 => self.stage(a % 40 + 1, 1500),
            3 => self.stage(a % 70 + 1, 40 + a % 1400),
            // The sequence space jumps, as a cyclic index does after an
            // overload drop.
            4 => {
                self.next_seq = seq_add(self.next_seq, a % 3000);
                self.stage(a % 8 + 1, 1500);
            }
            5..=8 => self.build()?,
            // The live window: mostly acknowledged, a random bitmap, all
            // of it, none of it.
            9..=10 => self.block_ack(first, bits | bits.rotate_left(17))?,
            11 => self.block_ack(first, bits)?,
            12 => self.block_ack(first, u64::MAX)?,
            13 => self.block_ack(first, 0)?,
            // A window that starts before the aggregate and may or may
            // not reach it; one that starts inside it.
            14 => self.block_ack(seq_sub(first, a % 130), bits)?,
            15 => self.block_ack(seq_add(first, a % 40), bits)?,
            // A copy of the last pair applied (§3.2.1's forwarded twin).
            16 => {
                if let Some((start, bitmap)) = self.model.last_ba {
                    self.block_ack(start, bitmap)?;
                }
            }
            // Anything at all.
            17 => self.block_ack(a, bits)?,
            18..=19 => self.timeout()?,
            // `stop` arrives, or a new serving stint begins.
            20 => self.unacked = Unacked::Drop,
            21 => {
                self.unacked = Unacked::Retry;
                self.clear(true)?;
            }
            _ => {
                // Rare: most sequences should build up state instead.
                if a < 600 {
                    self.clear(false)?;
                }
            }
        }
        self.check()
    }
}

proptest! {
    #[test]
    fn random_interleavings_match_the_per_mpdu_model(
        seed in any::<u64>(),
        start_seq in 0u16..4096,
        ops in proptest::collection::vec((0u8..23, 0u16..4096, any::<u64>()), 1..400),
    ) {
        let mut pair = Pair::new(seed, start_seq);
        for (kind, a, bits) in ops {
            pair.apply(kind, a, bits)?;
        }
        // Run it dry, alternating a full acknowledgement with a timeout:
        // the retry budget bounds how long that takes.
        pair.unacked = Unacked::Retry;
        let mut rounds = 0u64;
        while pair.sender.has_backlog() || pair.sender.has_in_flight() {
            rounds += 1;
            prop_assert!(rounds <= 30 * (pair.model.staged_total + 1), "livelock");
            pair.build()?;
            if rounds.is_multiple_of(3) {
                pair.timeout()?;
            } else {
                let first = pair.model.in_flight[0].seq;
                pair.block_ack(first, u64::MAX)?;
            }
            pair.check()?;
        }
        let m = &pair.model;
        prop_assert_eq!(m.fates.len() as u64, m.staged_total, "every MPDU ended, once");
        prop_assert_eq!(
            m.count(Fate::Delivered) + m.count(Fate::Dropped) + m.count(Fate::Cleared),
            m.staged_total
        );
    }

    #[test]
    fn an_unanswered_sender_spends_exactly_the_retry_budget(
        seed in any::<u64>(),
        n in 1u16..200,
    ) {
        let mut pair = Pair::new(seed, 4000);
        pair.stage(n, 1500);
        let mut sent = 0u64;
        while pair.sender.has_work() {
            pair.build()?;
            sent += pair.model.in_flight.len() as u64;
            pair.timeout()?;
            pair.check()?;
        }
        prop_assert_eq!(pair.model.count(Fate::Dropped), u64::from(n));
        prop_assert_eq!(sent, u64::from(n) * (u64::from(RETRY_LIMIT) + 1));
    }
}
