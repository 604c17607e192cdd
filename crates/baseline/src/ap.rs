//! A conventional 802.11n AP for the baseline schemes.
//!
//! The same downlink scheduler as a WGTT AP ([`Downlink`]: per-client
//! senders with A-MPDU aggregation, Block ACK and Minstrel, round-robin)
//! under the classic data path, which is all this module adds: one FIFO
//! mac80211 queue per client feeds its sender, with sequence numbers
//! assigned as packets leave the queue; packets arrive from the
//! distribution system only while the client is associated *here*, and
//! nothing flushes the queue on a handover — the backlog keeps burning
//! airtime toward a departed client until retries exhaust, exactly the §3
//! buffering pathology WGTT's queue management removes.

use std::collections::VecDeque;
use wgtt_mac::downlink::{Downlink, Feed, NIC_QUEUE_MPDUS};
use wgtt_mac::frame::{Mpdu, NodeId};
use wgtt_mac::sender::Unacked;
use wgtt_mac::seq::seq_next;
use wgtt_net::Packet;
use wgtt_sim::rng::RngStream;

/// Drop-tail cap of a client's mac80211 software queue (paper Fig. 7),
/// packets: large, so a switch leaves the fat backlog of the paper's
/// problem statement (§3.1.2 counts 1,600–2,000 packets at switch time).
/// A byte cap of 1.5 MB would never bind first: no packet exceeds 1,500 B.
const MAC80211_QUEUE_PACKETS: usize = 1_000;

/// One client's mac80211 queue and the next sequence number it assigns.
#[derive(Debug, Default)]
pub struct FifoFeed {
    fifo: VecDeque<Packet>,
    next_seq: u16,
}

impl Feed for FifoFeed {
    fn pop(&mut self) -> Option<Mpdu> {
        let packet = self.fifo.pop_front()?;
        let seq = self.next_seq;
        self.next_seq = seq_next(seq);
        Some(Mpdu::fresh(seq, packet.id, packet.len))
    }

    fn has_fresh(&self) -> bool {
        !self.fifo.is_empty()
    }

    fn unacked(&self) -> Unacked {
        Unacked::Retry
    }
}

/// One baseline AP.
pub struct BaselineAp {
    /// This AP's node id.
    pub id: NodeId,
    /// The downlink scheduler, fed per client from the FIFO.
    pub tx: Downlink<FifoFeed>,
}

impl BaselineAp {
    /// Build an AP; `rng` should be derived per AP id.
    pub fn new(id: NodeId, rng: RngStream) -> Self {
        BaselineAp {
            id,
            tx: Downlink::new(rng, "rate", NIC_QUEUE_MPDUS),
        }
    }

    /// Enqueue a downlink packet (from the distribution system), or drop
    /// it at the tail of a full queue.
    pub fn enqueue_downlink(&mut self, client: NodeId, packet: Packet) {
        let fifo = &mut self.tx.client_mut(client).feed.fifo;
        if fifo.len() < MAC80211_QUEUE_PACKETS {
            fifo.push_back(packet);
        }
    }

    /// The distribution system moved `client` to another AP: drop every
    /// queued frame and the Block ACK state (the real AP removes the STA
    /// entry on the IAPP/DS notification and flushes its queues).
    pub fn flush_client(&mut self, client: NodeId) {
        let c = self.tx.client_mut(client);
        c.feed.fifo.clear();
        c.sender.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_mac::aggregation::AggregationPolicy;
    use wgtt_mac::downlink::TxSide;
    use wgtt_net::packet::{FlowId, PacketFactory};
    use wgtt_net::wire::Ipv4Addr;
    use wgtt_sim::time::SimTime;

    const AP1: NodeId = NodeId(1);
    const CLIENT: NodeId = NodeId(100);

    fn ap() -> BaselineAp {
        BaselineAp::new(AP1, RngStream::root(3))
    }

    fn pkt(f: &mut PacketFactory, seq: u32) -> Packet {
        f.udp(
            FlowId(0),
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(172, 16, 0, 100),
            seq,
            1500,
            SimTime::ZERO,
        )
    }

    #[test]
    fn fifo_order_with_sequential_seqs() {
        let mut a = ap();
        let mut f = PacketFactory::new();
        for i in 0..40 {
            a.enqueue_downlink(CLIENT, pkt(&mut f, i));
        }
        let (mpdus, mcs) = a.tx.build(CLIENT).unwrap();
        let cap = AggregationPolicy::default().byte_cap_at(mcs) as usize / 1500;
        assert_eq!(mpdus.len(), cap.min(32));
        assert!(mpdus.len() >= 2);
        for (i, m) in mpdus.iter().enumerate() {
            assert_eq!(m.seq as usize, i);
        }
    }

    #[test]
    fn queue_overflow_drops() {
        let mut a = ap();
        let mut f = PacketFactory::new();
        for i in 0..3000 {
            a.enqueue_downlink(CLIENT, pkt(&mut f, i));
        }
        let fifo = &a.tx.client(CLIENT).expect("queued to").feed.fifo;
        assert_eq!(fifo.len(), MAC80211_QUEUE_PACKETS);
        // Drop-tail: the head is the first packet, the tail the last kept.
        assert_eq!(fifo.front().map(|p| p.id), Some(0));
        assert_eq!(
            fifo.back().map(|p| p.id),
            Some(MAC80211_QUEUE_PACKETS as u64 - 1)
        );
    }

    #[test]
    fn round_robin_across_clients() {
        // The same scheduler as the WGTT AP's, over the FIFO feed: the
        // same picks as `wgtt::ap`'s test of this name.
        let mut a = ap();
        let mut f = PacketFactory::new();
        let (c2, c3) = (NodeId(101), NodeId(102));
        for client in [CLIENT, c2, c3] {
            for i in 0..10 {
                a.enqueue_downlink(client, pkt(&mut f, i));
            }
        }
        let first = a.tx.next_client().unwrap();
        let (mpdus, _) = a.tx.build(first).unwrap();
        let picks: Vec<NodeId> = (0..3).map(|_| a.tx.next_client().unwrap()).collect();
        assert_eq!(
            (first, picks),
            (CLIENT, vec![c3, c2, c3]),
            "mid-window is skipped"
        );
        a.tx.on_block_ack(first, mpdus[0].seq, (1 << (mpdus.len() - 1)) - 1);
        let picks: Vec<NodeId> = (0..3).map(|_| a.tx.next_client().unwrap()).collect();
        assert_eq!(picks, [c2, c3, CLIENT]);
    }
}
