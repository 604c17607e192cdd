//! The 802.11n sender: one A-MPDU stop-and-wait window toward one peer.
//!
//! WGTT leaves each radio's stock aggregation, Block ACK and rate
//! control alone and changes only what sits above them (paper §3.2), so
//! the WGTT AP, the 802.11r AP and a client's uplink all run this one
//! type: staged MPDUs and the retry list feed [`build_ampdu`] at the rate
//! the [`RateController`] picks, the [`BaOriginator`] holds the aggregate
//! until a Block ACK or its timeout settles it, the outcome feeds the
//! rate controller, and unacknowledged MPDUs rejoin the retry list.
//! Callers keep only what is their own: where fresh MPDUs come from, and
//! whether a failed MPDU may go again ([`Unacked`]).

use crate::aggregation::{build_ampdu, AggregationPolicy};
use crate::blockack::{BaOriginator, BaResult};
use crate::frame::{Mpdu, PacketRef};
use crate::mcs::Mcs;
use crate::rate::RateController;
use std::collections::VecDeque;

/// What one Block ACK (or its timeout) settled.
#[derive(Debug, Default, PartialEq)]
pub struct BaFeedback {
    /// Packets confirmed delivered.
    pub delivered: Vec<PacketRef>,
    /// Packets given up on: retry budget exhausted, or [`Unacked::Drop`].
    pub dropped: Vec<PacketRef>,
    /// The Block ACK changed nothing: a copy of the last one applied
    /// (§3.2.1), or one from an older window than the aggregate in
    /// flight.
    pub duplicate: bool,
}

/// What becomes of MPDUs an outcome left unacknowledged with retry
/// budget to spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unacked {
    /// Back onto the retry list, ahead of fresh MPDUs.
    Retry,
    /// Dropped: a WGTT AP draining its NIC after `stop` sends each MPDU
    /// once, because the next AP owns the packet from index `k` on.
    Drop,
}

/// Sender-side state of one traffic stream.
#[derive(Debug)]
pub struct Sender {
    staged: VecDeque<Mpdu>,
    retries: Vec<Mpdu>,
    ba: BaOriginator,
    rate: RateController,
    /// Rate of the aggregate in flight, for its feedback.
    mcs: Mcs,
}

impl Sender {
    /// A sender with empty queues. The caller derives `rate`'s random
    /// stream, so each role keeps its own stream label.
    pub fn new(rate: RateController) -> Self {
        Sender {
            staged: VecDeque::new(),
            retries: Vec::new(),
            ba: BaOriginator::default(),
            rate,
            mcs: Mcs::Mcs0,
        }
    }

    /// Queue a fresh MPDU behind those already staged.
    pub fn stage(&mut self, mpdu: Mpdu) {
        self.staged.push_back(mpdu);
    }

    /// Fresh MPDUs staged and not yet sent.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// MPDUs waiting to be sent, retries included.
    pub fn backlog(&self) -> usize {
        self.staged.len() + self.retries.len()
    }

    /// Whether anything waits to be sent.
    pub fn has_backlog(&self) -> bool {
        self.backlog() > 0
    }

    /// Whether an A-MPDU awaits its Block ACK.
    pub fn has_in_flight(&self) -> bool {
        self.ba.has_in_flight()
    }

    /// Whether [`Sender::build`] could produce an aggregate now.
    pub fn has_work(&self) -> bool {
        !self.has_in_flight() && self.has_backlog()
    }

    /// Assemble the next A-MPDU — retries first — and hold it in flight.
    /// `None` while one is outstanding (stop-and-wait) or when nothing is
    /// queued; the rate controller has picked a rate by then either way.
    pub fn build(&mut self, policy: &AggregationPolicy) -> Option<(Vec<Mpdu>, Mcs)> {
        if self.has_in_flight() {
            return None;
        }
        let mcs = self.rate.select();
        let mpdus = build_ampdu(&mut self.retries, &mut self.staged, policy, mcs);
        if mpdus.is_empty() {
            return None;
        }
        self.mcs = mcs;
        self.ba.on_ampdu_sent(mpdus.clone());
        Some((mpdus, mcs))
    }

    /// Apply a Block ACK, heard on air or forwarded by a neighbour. With
    /// nothing in flight it still reaches the originator's duplicate
    /// check and settles nothing.
    pub fn on_block_ack(&mut self, start_seq: u16, bitmap: u64, unacked: Unacked) -> BaFeedback {
        let attempted = self.ba.in_flight().len();
        if attempted > 0 && !self.ba.covers_in_flight(start_seq) {
            return BaFeedback {
                duplicate: true,
                ..BaFeedback::default()
            };
        }
        let result = self.ba.on_block_ack(start_seq, bitmap);
        self.settle(result, attempted, unacked)
    }

    /// No Block ACK came for the aggregate in flight: all of it failed.
    pub fn on_ba_timeout(&mut self, unacked: Unacked) -> BaFeedback {
        let attempted = self.ba.in_flight().len();
        let result = self.ba.on_ba_timeout();
        self.settle(result, attempted, unacked)
    }

    fn settle(&mut self, result: BaResult, attempted: usize, unacked: Unacked) -> BaFeedback {
        if result.duplicate {
            return BaFeedback {
                duplicate: true,
                ..BaFeedback::default()
            };
        }
        self.rate
            .on_feedback(self.mcs, attempted, result.acked.len());
        let mut dropped = result.dropped;
        match unacked {
            Unacked::Retry => self.retries.extend(result.to_retry),
            Unacked::Drop => dropped.extend(result.to_retry.iter().map(|m| m.packet)),
        }
        BaFeedback {
            delivered: result.acked,
            dropped,
            duplicate: false,
        }
    }

    /// Forget the aggregate in flight and the retry list; staged MPDUs
    /// stay. A WGTT AP does this on `start`: the previous AP owns what was
    /// on the air.
    pub fn clear_window(&mut self) {
        self.retries.clear();
        self.ba.clear();
    }

    /// Forget everything queued or in flight.
    pub fn clear(&mut self) {
        self.staged.clear();
        self.clear_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockack::RETRY_LIMIT;
    use wgtt_sim::rng::RngStream;

    fn sender() -> Sender {
        Sender::new(RateController::new(RngStream::root(11).rng()))
    }

    fn stage(s: &mut Sender, seqs: std::ops::Range<u16>) {
        for seq in seqs {
            s.stage(Mpdu {
                seq,
                packet: PacketRef {
                    id: u64::from(seq),
                    len: 1500,
                },
                retries: 0,
            });
        }
    }

    fn seqs(mpdus: &[Mpdu]) -> Vec<u16> {
        mpdus.iter().map(|m| m.seq).collect()
    }

    const POLICY: AggregationPolicy = AggregationPolicy {
        max_mpdus: 32,
        max_bytes: crate::aggregation::MAX_AMPDU_BYTES,
        max_airtime_us: 4_000,
    };

    #[test]
    fn stop_and_wait_until_the_block_ack() {
        let mut s = sender();
        stage(&mut s, 0..100);
        let (first, _) = s.build(&POLICY).expect("work staged");
        assert!(first.len() >= 2, "aggregation must happen");
        assert!(s.has_in_flight() && !s.has_work());
        assert!(s.build(&POLICY).is_none(), "one window at a time");
        let fb = s.on_block_ack(0, u64::MAX, Unacked::Retry);
        assert_eq!(fb.delivered.len(), first.len());
        assert!(!fb.duplicate && fb.dropped.is_empty());
        let (next, _) = s.build(&POLICY).expect("window released");
        assert_eq!(next[0].seq, first.len() as u16);
    }

    #[test]
    fn holes_lead_the_next_aggregate_in_order() {
        let mut s = sender();
        stage(&mut s, 0..64);
        let (mpdus, _) = s.build(&POLICY).unwrap();
        assert!(mpdus.len() > 8);
        let bitmap = ((1u64 << mpdus.len()) - 1) & !(1 << 3) & !(1 << 7);
        let fb = s.on_block_ack(0, bitmap, Unacked::Retry);
        assert_eq!(fb.delivered.len(), mpdus.len() - 2);
        let (next, _) = s.build(&POLICY).unwrap();
        assert_eq!(seqs(&next[..3]), vec![3, 7, mpdus.len() as u16]);
        assert_eq!((next[0].retries, next[2].retries), (1, 0));
    }

    #[test]
    fn timeout_resends_the_window_once_each_in_order() {
        let mut s = sender();
        stage(&mut s, 0..8);
        let (mpdus, _) = s.build(&POLICY).unwrap();
        let fb = s.on_ba_timeout(Unacked::Retry);
        assert_eq!(fb, BaFeedback::default());
        assert_eq!(s.backlog(), 8, "retries rejoin the backlog");
        // The total loss sends the rate controller to the bottom rate, so
        // the window may come back as several airtime-capped aggregates.
        let mut seen = Vec::new();
        while let Some((again, _)) = s.build(&POLICY) {
            assert!(again.iter().all(|m| m.retries == 1));
            seen.extend(seqs(&again));
            s.on_block_ack(again[0].seq, u64::MAX, Unacked::Retry);
        }
        assert_eq!(seen, seqs(&mpdus));
    }

    #[test]
    fn retry_budget_bounds_the_airtime_spent_on_a_departed_peer() {
        let mut s = sender();
        stage(&mut s, 0..64);
        let (mut txops, mut dropped) = (0, 0);
        while let Some((mpdus, _)) = s.build(&POLICY) {
            txops += 1;
            assert!(txops < 1000, "must terminate by retry exhaustion");
            assert!(mpdus.iter().all(|m| m.retries <= RETRY_LIMIT));
            dropped += s.on_ba_timeout(Unacked::Retry).dropped.len();
        }
        assert_eq!(dropped, 64, "everything is eventually dropped");
        assert!(txops >= 8, "many wasted TXOPs: got {txops}");
    }

    #[test]
    fn drain_mode_drops_instead_of_requeueing() {
        for timeout in [false, true] {
            let mut s = sender();
            stage(&mut s, 0..4);
            let (mpdus, _) = s.build(&POLICY).unwrap();
            assert_eq!(mpdus.len(), 4);
            let fb = if timeout {
                s.on_ba_timeout(Unacked::Drop)
            } else {
                s.on_block_ack(0, 0b0101, Unacked::Drop)
            };
            let lost: Vec<u64> = if timeout {
                vec![0, 1, 2, 3]
            } else {
                vec![1, 3]
            };
            assert_eq!(
                fb.dropped.iter().map(|p| p.id).collect::<Vec<_>>(),
                lost,
                "timeout={timeout}"
            );
            assert_eq!(fb.delivered.len(), 4 - lost.len());
            assert!(!s.has_backlog() && !s.has_in_flight());
        }
    }

    #[test]
    fn stray_block_ack_with_nothing_in_flight_still_reaches_the_duplicate_check() {
        let mut s = sender();
        let stray = s.on_block_ack(0, 0b1111, Unacked::Retry);
        assert_eq!(stray, BaFeedback::default(), "settles nothing");
        assert!(s.on_block_ack(0, 0b1111, Unacked::Retry).duplicate);
        // The originator remembers it: the same pair arriving for a real
        // window is a copy, and the window stands until its timeout.
        stage(&mut s, 0..4);
        s.build(&POLICY).unwrap();
        assert!(s.on_block_ack(0, 0b1111, Unacked::Retry).duplicate);
        assert!(s.has_in_flight());
        assert_eq!(s.on_ba_timeout(Unacked::Retry), BaFeedback::default());
        assert_eq!(s.backlog(), 4);
    }

    #[test]
    fn stale_window_leaves_the_aggregate_in_flight() {
        let mut s = sender();
        stage(&mut s, 200..204);
        s.build(&POLICY).unwrap();
        // A Block ACK whose 64-sequence window ends before 200.
        let fb = s.on_block_ack(100, u64::MAX, Unacked::Retry);
        assert!(fb.duplicate && fb.delivered.is_empty());
        assert!(s.has_in_flight());
        let live = s.on_block_ack(200, 0b1111, Unacked::Retry);
        assert_eq!(live.delivered.len(), 4);
        // The stale pair never entered the duplicate check: it applies to
        // a later window that it does cover.
        stage(&mut s, 100..104);
        s.build(&POLICY).unwrap();
        let fb = s.on_block_ack(100, u64::MAX, Unacked::Retry);
        assert_eq!(fb.delivered.len(), 4);
    }

    #[test]
    fn empty_build_still_advances_the_rate_controllers_stream() {
        // Two senders on the same stream; one is asked to build nine times
        // with nothing staged. Its tenth selection is then the probe.
        let (mut idle, mut fresh) = (sender(), sender());
        for _ in 0..9 {
            assert!(idle.build(&POLICY).is_none());
        }
        stage(&mut idle, 0..4);
        stage(&mut fresh, 0..4);
        let (_, probed) = idle.build(&POLICY).unwrap();
        let (_, best) = fresh.build(&POLICY).unwrap();
        assert_eq!(best, Mcs::Mcs7, "optimistic prior picks the top rate");
        assert_ne!(probed, best, "the tenth selection probes another rate");
        // While a window is in flight, build does not reach the controller.
        let mut held = sender();
        stage(&mut held, 0..40);
        held.build(&POLICY).unwrap();
        for _ in 0..9 {
            assert!(held.build(&POLICY).is_none());
        }
        held.on_block_ack(0, u64::MAX, Unacked::Retry);
        assert_eq!(held.build(&POLICY).unwrap().1, best);
    }

    #[test]
    fn clear_window_keeps_staged_and_clear_keeps_nothing() {
        let mut s = sender();
        stage(&mut s, 0..40);
        let (mpdus, _) = s.build(&POLICY).unwrap();
        s.on_ba_timeout(Unacked::Retry);
        s.build(&POLICY).unwrap();
        let staged = s.staged_len();
        assert!(staged > 0 && staged <= 40 - mpdus.len());
        s.clear_window();
        assert!(!s.has_in_flight());
        assert_eq!(s.backlog(), staged, "retries gone, staged kept");
        s.build(&POLICY).unwrap();
        s.clear();
        assert!(!s.has_in_flight() && !s.has_backlog());
    }
}
