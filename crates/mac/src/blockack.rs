//! Block acknowledgement scoreboards (802.11e/n).
//!
//! The **originator** (sender) side tracks the MPDUs of the in-flight
//! A-MPDU and consumes Block ACK bitmaps — whether received on its own
//! radio or *forwarded from a neighbouring AP over the backhaul*, which is
//! WGTT's §3.2.1 mechanism. Forwarded copies of an already-processed
//! Block ACK are detected and dropped exactly as the paper describes
//! ("AP1 first checks whether this Block ACK has been received before").
//! A Block ACK that never arrives means every in-flight MPDU retransmits
//! — the failure mode Block ACK forwarding exists to avoid.
//!
//! The **recipient** (client) side keeps the receive window over the
//! 12-bit sequence space, deduplicates MPDUs, and produces the
//! `(start_seq, bitmap)` pairs that go back on the air.

use crate::frame::{Mpdu, PacketRef};
use crate::seq::{seq_add, seq_in_window, seq_lt, seq_sub};

/// Block ACK window size (compressed bitmap), MPDUs.
pub const BA_WINDOW: u16 = 64;

/// MPDU retry limit before the originator drops a packet.
pub const RETRY_LIMIT: u8 = 7;

/// What an originator learned from one Block ACK (or its absence).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaResult {
    /// Packets positively acknowledged — done, release upstream.
    pub acked: Vec<PacketRef>,
    /// MPDUs to retransmit (retry count already incremented).
    pub to_retry: Vec<Mpdu>,
    /// Packets that exhausted their retry budget and are dropped.
    pub dropped: Vec<PacketRef>,
    /// True if this Block ACK duplicated one already processed (e.g. the
    /// AP heard it on air *and* received a forwarded copy).
    pub duplicate: bool,
}

/// Sender-side Block ACK state for one (AP, client) traffic stream.
#[derive(Debug, Clone, Default)]
pub struct BaOriginator {
    in_flight: Vec<Mpdu>,
    /// Identity of the last Block ACK applied, for §3.2.1 dedup.
    last_ba: Option<(u16, u64)>,
}

impl BaOriginator {
    /// Whether an A-MPDU is outstanding (sent but not yet acknowledged).
    pub fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// The outstanding MPDUs.
    pub fn in_flight(&self) -> &[Mpdu] {
        &self.in_flight
    }

    /// Whether a Block ACK whose bitmap starts at `start_seq` covers any
    /// in-flight MPDU. A forwarded or late copy of an *older* window must
    /// not be applied to the current one — doing so would mark the whole
    /// window failed and release the sender while its A-MPDU is still on
    /// the air.
    pub fn covers_in_flight(&self, start_seq: u16) -> bool {
        self.in_flight
            .iter()
            .any(|m| seq_sub(m.seq, start_seq) < BA_WINDOW)
    }

    /// Record that `mpdus` were just sent as one A-MPDU. Panics if an
    /// A-MPDU is already outstanding — the MAC is stop-and-wait at A-MPDU
    /// granularity.
    pub fn on_ampdu_sent(&mut self, mpdus: Vec<Mpdu>) {
        assert!(
            self.in_flight.is_empty(),
            "A-MPDU sent while previous one still in flight"
        );
        self.in_flight = mpdus;
    }

    /// Apply a Block ACK `(start_seq, bitmap)` — from our own radio or
    /// forwarded by a neighbour AP.
    pub fn on_block_ack(&mut self, start_seq: u16, bitmap: u64) -> BaResult {
        let mut result = BaResult::default();
        // §3.2.1: "AP1 first checks whether this Block ACK has been
        // received before (from its own NIC or from other APs). If so,
        // AP1 drops the forwarded block ACK." The check must hold even
        // with a new A-MPDU in flight, or a forwarded copy of the previous
        // window's BA would be misapplied to the current window.
        if self.last_ba == Some((start_seq, bitmap)) {
            result.duplicate = true;
            return result;
        }
        self.last_ba = Some((start_seq, bitmap));
        for mpdu in std::mem::take(&mut self.in_flight) {
            let offset = seq_sub(mpdu.seq, start_seq);
            let acked = offset < BA_WINDOW && (bitmap >> offset) & 1 == 1;
            if acked {
                result.acked.push(mpdu.packet);
            } else if mpdu.retries >= RETRY_LIMIT {
                result.dropped.push(mpdu.packet);
            } else {
                result.to_retry.push(Mpdu {
                    retries: mpdu.retries + 1,
                    ..mpdu
                });
            }
        }
        result
    }

    /// The Block ACK never arrived (lost on a fading uplink and no
    /// neighbour forwarded a copy): every in-flight MPDU must retry —
    /// the costly behaviour quantified in paper §3.2.1.
    pub fn on_ba_timeout(&mut self) -> BaResult {
        let mut result = BaResult::default();
        for mpdu in std::mem::take(&mut self.in_flight) {
            if mpdu.retries >= RETRY_LIMIT {
                result.dropped.push(mpdu.packet);
            } else {
                result.to_retry.push(Mpdu {
                    retries: mpdu.retries + 1,
                    ..mpdu
                });
            }
        }
        result
    }

    /// Abandon in-flight state without retries (used when the controller
    /// switches the client away and the new AP takes over delivery).
    pub fn clear(&mut self) -> Vec<Mpdu> {
        std::mem::take(&mut self.in_flight)
    }
}

/// Receiver-side Block ACK window for one (AP, client) stream.
///
/// ```
/// use wgtt_mac::blockack::BaRecipient;
/// let mut rx = BaRecipient::new();
/// assert!(rx.on_mpdu(10)); // first copy
/// assert!(!rx.on_mpdu(10)); // duplicate
/// assert!(rx.on_mpdu(11));
/// assert_eq!(rx.block_ack(), (10, 0b11));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BaRecipient {
    win_start: u16,
    /// Bit `i` set ⇔ `win_start + i` received.
    received: u64,
    started: bool,
}

impl BaRecipient {
    /// Create an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current window start sequence.
    pub fn win_start(&self) -> u16 {
        self.win_start
    }

    /// Process a received MPDU. Returns `true` if it is new (first copy),
    /// `false` if it duplicates one already received in the window or
    /// precedes it.
    pub fn on_mpdu(&mut self, seq: u16) -> bool {
        if !self.started {
            // First MPDU anchors the window.
            self.started = true;
            self.win_start = seq;
            self.received = 1;
            return true;
        }
        if seq_in_window(seq, self.win_start, BA_WINDOW) {
            let off = seq_sub(seq, self.win_start);
            let bit = 1u64 << off;
            if self.received & bit != 0 {
                return false;
            }
            self.received |= bit;
            true
        } else if seq_lt(self.win_start, seq) {
            // Ahead of the window: slide forward so `seq` becomes the last
            // slot (802.11 WinStart = seq − 63).
            let new_start = seq_sub(seq, BA_WINDOW - 1);
            let shift = seq_sub(new_start, self.win_start);
            self.received = if shift >= 64 {
                0
            } else {
                self.received >> shift
            };
            self.win_start = new_start;
            self.received |= 1u64 << (BA_WINDOW - 1);
            true
        } else {
            // Behind the window: an old duplicate.
            false
        }
    }

    /// Build the `(start_seq, bitmap)` of a compressed Block ACK response
    /// covering the current window.
    pub fn block_ack(&self) -> (u16, u64) {
        (self.win_start, self.received)
    }

    /// BAR semantics for an aggregate about to be received: when every
    /// MPDU of it lies in the stale half of the window (the originator's
    /// sequence space jumped, e.g. a ring reset after an overload drop
    /// or a long fan-out absence), re-anchor the window at its first
    /// sequence number — what a Block Ack Request would teach the
    /// recipient. An empty aggregate, or one with any MPDU in or ahead
    /// of the window, leaves the window untouched.
    pub fn reanchor_if_behind(&mut self, aggregate: &[Mpdu]) {
        if let Some(first) = aggregate.first() {
            if aggregate.iter().all(|m| self.is_behind(m.seq)) {
                // Behind implies started.
                self.win_start = first.seq;
                self.received = 0;
            }
        }
    }

    /// Whether `seq` falls in the stale ("behind the window") half of the
    /// sequence space — where [`BaRecipient::on_mpdu`] would discard it as
    /// an old duplicate.
    fn is_behind(&self, seq: u16) -> bool {
        self.started
            && !seq_in_window(seq, self.win_start, BA_WINDOW)
            && !seq_lt(self.win_start, seq)
    }

    /// True if `seq` has been recorded as received.
    pub fn has_received(&self, seq: u16) -> bool {
        seq_in_window(seq, self.win_start, BA_WINDOW)
            && (self.received >> seq_sub(seq, self.win_start)) & 1 == 1
    }
}

/// Convenience: which sequence numbers a bitmap acknowledges.
pub fn acked_seqs(start_seq: u16, bitmap: u64) -> impl Iterator<Item = u16> {
    (0..BA_WINDOW).filter_map(move |i| {
        if (bitmap >> i) & 1 == 1 {
            Some(seq_add(start_seq, i))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PacketRef;
    use proptest::prelude::*;

    fn mpdu(seq: u16, id: u64) -> Mpdu {
        Mpdu {
            seq,
            packet: PacketRef { id, len: 1500 },
            retries: 0,
        }
    }

    #[test]
    fn an_aggregate_wholly_behind_the_window_reanchors_it() {
        let mut rx = BaRecipient::new();
        for seq in 1000..1010 {
            rx.on_mpdu(seq);
        }
        let before = rx.block_ack();
        // Empty: untouched.
        rx.reanchor_if_behind(&[]);
        assert_eq!(rx.block_ack(), before);
        // One MPDU in the window: untouched.
        rx.reanchor_if_behind(&[mpdu(10, 0), mpdu(1005, 1)]);
        assert_eq!(rx.block_ack(), before);
        // All behind: the window restarts at the first, empty.
        rx.reanchor_if_behind(&[mpdu(10, 0), mpdu(11, 1)]);
        assert_eq!(rx.block_ack(), (10, 0));
        assert!(rx.on_mpdu(10) && rx.on_mpdu(11));
        assert_eq!(rx.block_ack(), (10, 0b11));
    }

    #[test]
    fn full_ack_releases_all() {
        let mut o = BaOriginator::default();
        o.on_ampdu_sent((0..4).map(|i| mpdu(i, i as u64)).collect());
        let r = o.on_block_ack(0, 0b1111);
        assert_eq!(r.acked.len(), 4);
        assert!(r.to_retry.is_empty());
        assert!(!o.has_in_flight());
    }

    #[test]
    fn partial_ack_retries_holes() {
        let mut o = BaOriginator::default();
        o.on_ampdu_sent((0..4).map(|i| mpdu(i, i as u64)).collect());
        let r = o.on_block_ack(0, 0b1010);
        assert_eq!(r.acked.len(), 2);
        assert_eq!(r.to_retry.len(), 2);
        assert_eq!(r.to_retry[0].retries, 1);
        assert_eq!(
            r.to_retry.iter().map(|m| m.seq).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn ba_timeout_retries_everything() {
        let mut o = BaOriginator::default();
        o.on_ampdu_sent((0..8).map(|i| mpdu(i, i as u64)).collect());
        let r = o.on_ba_timeout();
        assert_eq!(r.to_retry.len(), 8);
        assert!(r.acked.is_empty());
    }

    #[test]
    fn retry_limit_drops() {
        let mut o = BaOriginator::default();
        let mut last_try = mpdu(5, 5);
        last_try.retries = RETRY_LIMIT - 1;
        let mut spent = mpdu(6, 6);
        spent.retries = RETRY_LIMIT; // already at the limit
        o.on_ampdu_sent(vec![last_try, spent]);
        let r = o.on_block_ack(5, 0);
        assert_eq!(r.dropped, vec![spent.packet]);
        assert_eq!(r.to_retry.len(), 1);
        assert_eq!(r.to_retry[0].retries, RETRY_LIMIT);
    }

    #[test]
    fn duplicate_forwarded_ba_is_dropped() {
        // First copy (own radio) applies; second copy (forwarded over the
        // backhaul) is recognized as a duplicate — §3.2.1.
        let mut o = BaOriginator::default();
        o.on_ampdu_sent((0..4).map(|i| mpdu(i, i as u64)).collect());
        let first = o.on_block_ack(0, 0b1111);
        assert!(!first.duplicate);
        let second = o.on_block_ack(0, 0b1111);
        assert!(second.duplicate);
        assert!(second.acked.is_empty());
    }

    #[test]
    fn forwarded_ba_rescues_lost_one() {
        // The AP's own radio missed the BA, but a neighbour forwarded it:
        // the outcome must equal hearing it directly (no retransmissions).
        let mut o = BaOriginator::default();
        o.on_ampdu_sent((0..4).map(|i| mpdu(i, i as u64)).collect());
        let r = o.on_block_ack(0, 0b1111); // forwarded copy
        assert_eq!(r.acked.len(), 4);
        let after = o.on_ba_timeout();
        assert!(after.to_retry.is_empty(), "nothing left to retry");
    }

    #[test]
    fn ack_across_seq_wrap() {
        let mut o = BaOriginator::default();
        o.on_ampdu_sent(vec![mpdu(4094, 1), mpdu(4095, 2), mpdu(0, 3), mpdu(1, 4)]);
        let r = o.on_block_ack(4094, 0b1111);
        assert_eq!(r.acked.len(), 4);
    }

    #[test]
    fn clear_abandons_in_flight() {
        let mut o = BaOriginator::default();
        o.on_ampdu_sent((0..3).map(|i| mpdu(i, i as u64)).collect());
        let abandoned = o.clear();
        assert_eq!(abandoned.len(), 3);
        assert!(!o.has_in_flight());
    }

    #[test]
    fn recipient_dedups_within_window() {
        let mut r = BaRecipient::new();
        assert!(r.on_mpdu(10));
        assert!(!r.on_mpdu(10));
        assert!(r.on_mpdu(11));
        let (start, bm) = r.block_ack();
        assert_eq!(start, 10);
        assert_eq!(bm, 0b11);
    }

    #[test]
    fn recipient_window_slides_forward() {
        let mut r = BaRecipient::new();
        r.on_mpdu(0);
        // Jump far ahead: window must slide so 100 is the last slot.
        assert!(r.on_mpdu(100));
        assert_eq!(r.win_start(), 100 - (BA_WINDOW - 1));
        assert!(r.has_received(100));
        assert!(!r.has_received(50));
        // Old seq now behind the window: duplicate/stale.
        assert!(!r.on_mpdu(0));
    }

    #[test]
    fn recipient_handles_wraparound() {
        let mut r = BaRecipient::new();
        r.on_mpdu(4090);
        assert!(r.on_mpdu(4095));
        assert!(r.on_mpdu(3)); // wrapped
        assert!(r.has_received(4090));
        assert!(r.has_received(3));
        assert!(!r.on_mpdu(4095));
    }

    #[test]
    fn acked_seqs_decodes_bitmap() {
        let seqs: Vec<u16> = acked_seqs(4094, 0b1011).collect();
        assert_eq!(seqs, vec![4094, 4095, 1]);
    }

    #[test]
    fn recipient_ba_round_trips_to_originator() {
        // End-to-end: originator sends 8, channel drops 3, recipient's BA
        // causes exactly the dropped ones to retry.
        let mut o = BaOriginator::default();
        let sent: Vec<Mpdu> = (100..108).map(|s| mpdu(s, s as u64)).collect();
        o.on_ampdu_sent(sent.clone());
        let mut rx = BaRecipient::new();
        for m in &sent {
            if ![101u16, 104, 106].contains(&m.seq) {
                rx.on_mpdu(m.seq);
            }
        }
        let (start, bm) = rx.block_ack();
        let res = o.on_block_ack(start, bm);
        let mut retry_seqs: Vec<u16> = res.to_retry.iter().map(|m| m.seq).collect();
        retry_seqs.sort_unstable();
        assert_eq!(retry_seqs, vec![101, 104, 106]);
        assert_eq!(res.acked.len(), 5);
    }

    proptest! {
        #[test]
        fn originator_conserves_packets(
            start in 0u16..4096,
            n in 1usize..=64,
            bitmap in any::<u64>()
        ) {
            // Every sent MPDU ends up in exactly one of acked/retry/dropped.
            let mut o = BaOriginator::default();
            let mpdus: Vec<Mpdu> = (0..n)
                .map(|i| mpdu(seq_add(start, i as u16), i as u64))
                .collect();
            o.on_ampdu_sent(mpdus);
            let r = o.on_block_ack(start, bitmap);
            prop_assert_eq!(r.acked.len() + r.to_retry.len() + r.dropped.len(), n);
            prop_assert!(!o.has_in_flight());
        }

        #[test]
        fn recipient_bitmap_matches_reports(seqs in proptest::collection::vec(0u16..128, 1..40)) {
            // Whatever arrives, every seq reported "new" inside the final
            // window must be set in the final bitmap.
            let mut r = BaRecipient::new();
            let mut newly = Vec::new();
            for &s in &seqs {
                if r.on_mpdu(s) {
                    newly.push(s);
                }
            }
            let (start, bm) = r.block_ack();
            for s in newly {
                if seq_in_window(s, start, BA_WINDOW) {
                    prop_assert!((bm >> seq_sub(s, start)) & 1 == 1);
                }
            }
        }

        #[test]
        fn recipient_never_reports_same_seq_new_twice_without_slide(
            s in 0u16..4096
        ) {
            let mut r = BaRecipient::new();
            prop_assert!(r.on_mpdu(s));
            prop_assert!(!r.on_mpdu(s));
        }
    }
}
