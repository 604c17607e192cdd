//! A conventional 802.11n AP for the baseline schemes.
//!
//! The same [`Sender`] as a WGTT AP (A-MPDU aggregation, Block ACK,
//! Minstrel) under the classic data path, which is all this module adds:
//! one FIFO mac80211 queue per client, staged into the sender with
//! sequence numbers assigned here; packets arrive from the distribution
//! system only while the client is associated *here*, and nothing flushes
//! the queue on a handover — the backlog keeps burning airtime toward a
//! departed client until retries exhaust, exactly the §3 buffering
//! pathology WGTT's queue management removes.

use std::collections::HashMap;
use wgtt_mac::aggregation::AggregationPolicy;
use wgtt_mac::frame::{Mpdu, NodeId, PacketRef};
use wgtt_mac::queues::BoundedQueue;
use wgtt_mac::rate::RateController;
use wgtt_mac::sender::{BaFeedback, Sender, Unacked};
use wgtt_mac::seq::seq_next;
use wgtt_mac::Mcs;
use wgtt_net::Packet;
use wgtt_sim::rng::RngStream;

/// MPDUs staged below the FIFO with their sequence numbers assigned.
const STAGED_MPDUS: usize = 64;

#[derive(Debug)]
struct ClientQueue {
    fifo: BoundedQueue<Packet>,
    next_seq: u16,
    sender: Sender,
}

impl ClientQueue {
    fn has_work(&self) -> bool {
        !self.sender.has_in_flight() && (self.sender.has_backlog() || !self.fifo.is_empty())
    }
}

/// One baseline AP.
pub struct BaselineAp {
    /// This AP's node id.
    pub id: NodeId,
    clients: HashMap<NodeId, ClientQueue>,
    rng: RngStream,
    agg: AggregationPolicy,
    rr_cursor: usize,
    /// Packets dropped at the full mac80211 queue.
    pub queue_drops: u64,
}

impl BaselineAp {
    /// Build an AP; `rng` should be derived per AP id.
    pub fn new(id: NodeId, rng: RngStream) -> Self {
        BaselineAp {
            id,
            clients: HashMap::new(),
            rng,
            agg: AggregationPolicy::default(),
            rr_cursor: 0,
            queue_drops: 0,
        }
    }

    fn client_mut(&mut self, client: NodeId) -> &mut ClientQueue {
        let stream = self.rng;
        self.clients.entry(client).or_insert_with(|| {
            let rng = stream.derive_indexed("rate", client.0 as u64).rng();
            ClientQueue {
                fifo: BoundedQueue::mac80211(),
                next_seq: 0,
                sender: Sender::new(RateController::new(rng)),
            }
        })
    }

    /// Enqueue a downlink packet (from the distribution system). Returns
    /// `false` on queue overflow.
    pub fn enqueue_downlink(&mut self, client: NodeId, packet: Packet) -> bool {
        let len = u32::from(packet.len);
        let ok = self.client_mut(client).fifo.push(packet, len);
        if !ok {
            self.queue_drops += 1;
        }
        ok
    }

    /// Whether an A-MPDU toward `client` awaits its Block ACK.
    pub fn has_in_flight(&self, client: NodeId) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|q| q.sender.has_in_flight())
    }

    /// Packets queued toward `client` (the handover backlog).
    pub fn backlog(&self, client: NodeId) -> usize {
        self.clients
            .get(&client)
            .map_or(0, |c| c.fifo.len() + c.sender.backlog())
    }

    /// Clients with transmittable work.
    pub fn tx_ready_clients(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .clients
            .iter()
            .filter(|(_, q)| q.has_work())
            .map(|(&c, _)| c)
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether any client has transmittable work.
    pub fn has_tx_ready(&self) -> bool {
        self.clients.values().any(ClientQueue::has_work)
    }

    /// Round-robin pick of the next client to serve.
    pub fn next_tx_client(&mut self) -> Option<NodeId> {
        let ready = self.tx_ready_clients();
        if ready.is_empty() {
            return None;
        }
        let pick = ready[self.rr_cursor % ready.len()];
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        Some(pick)
    }

    /// Build the next A-MPDU toward `client`.
    pub fn build_txop(&mut self, client: NodeId) -> Option<(Vec<Mpdu>, Mcs)> {
        let agg = self.agg;
        let q = self.client_mut(client);
        if q.sender.has_in_flight() {
            return None;
        }
        // Stage fresh packets with newly assigned sequence numbers.
        while q.sender.staged_len() < STAGED_MPDUS {
            let Some(packet) = q.fifo.pop() else { break };
            let seq = q.next_seq;
            q.next_seq = seq_next(q.next_seq);
            q.sender.stage(Mpdu {
                seq,
                packet: PacketRef {
                    id: packet.id,
                    len: packet.len,
                },
                retries: 0,
            });
        }
        q.sender.build(&agg)
    }

    /// A Block ACK from `client` arrived.
    pub fn on_block_ack(&mut self, client: NodeId, start_seq: u16, bitmap: u64) -> BaFeedback {
        self.client_mut(client)
            .sender
            .on_block_ack(start_seq, bitmap, Unacked::Retry)
    }

    /// The distribution system moved `client` to another AP: drop every
    /// queued frame and the Block ACK state (the real AP removes the STA
    /// entry on the IAPP/DS notification and flushes its queues).
    pub fn flush_client(&mut self, client: NodeId) {
        if let Some(q) = self.clients.get_mut(&client) {
            while q.fifo.pop().is_some() {}
            q.sender.clear();
        }
    }

    /// The Block ACK never arrived.
    pub fn on_ba_timeout(&mut self, client: NodeId) -> BaFeedback {
        self.client_mut(client).sender.on_ba_timeout(Unacked::Retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert!(a.enqueue_downlink(CLIENT, pkt(&mut f, i)));
        }
        let (mpdus, mcs) = a.build_txop(CLIENT).unwrap();
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
        let mut accepted = 0;
        for i in 0..3000 {
            if a.enqueue_downlink(CLIENT, pkt(&mut f, i)) {
                accepted += 1;
            }
        }
        assert!(accepted < 3000);
        assert!(a.queue_drops > 0);
        assert_eq!(accepted + a.queue_drops as usize, 3000);
    }

    #[test]
    fn backlog_reports_all_layers() {
        let mut a = ap();
        let mut f = PacketFactory::new();
        for i in 0..100 {
            a.enqueue_downlink(CLIENT, pkt(&mut f, i));
        }
        assert_eq!(a.backlog(CLIENT), 100);
        a.build_txop(CLIENT).unwrap();
        // 64 staged (32 in flight belong to the BA window, 32 still
        // staged) + 36 fifo.
        assert!(a.backlog(CLIENT) >= 36);
        a.on_ba_timeout(CLIENT);
        assert_eq!(a.backlog(CLIENT), 100 - 32 + 32); // retries rejoin
    }
}
