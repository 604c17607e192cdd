//! The WGTT AP data plane (paper Fig. 5 right, Fig. 7).
//!
//! Each AP runs the stock 802.11n downlink scheduler every AP in the model
//! runs ([`Downlink`]: one sender per client, round-robin). What this
//! module adds on top is WGTT's own: the per-client feed is the replicated
//! [`CyclicQueue`], which refills the sender's staged MPDUs (the NIC
//! hardware queue) only while this AP serves the client; the MAC sequence
//! number of every MPDU *is* the packet's 12-bit cyclic index — both
//! spaces are m = 12 bits in the paper, and sharing them is what lets a
//! client's Block ACK window survive an AP switch seamlessly; and after
//! `stop` the old AP drains that NIC backlog once (≈6 ms, §3.1.2) without
//! retrying what fails.
//!
//! Control messages (`stop`/`start`) are processed out-of-band from data
//! (the paper prioritizes them past the cyclic queue); the scenario
//! delivers them after [`crate::switching`]'s processing delays.

use crate::cyclic::CyclicQueue;
use crate::messages::{BackhaulDest, BackhaulMsg};
use std::collections::HashMap;
use wgtt_mac::downlink::{Downlink, Feed, TxSide, NIC_QUEUE_MPDUS};
use wgtt_mac::frame::{Mpdu, NodeId};
use wgtt_mac::sender::Unacked;
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::SimTime;

/// An effect the AP wants performed on the backhaul.
#[derive(Debug, Clone, PartialEq)]
pub struct ApAction {
    /// Destination.
    pub to: BackhaulDest,
    /// The message.
    pub msg: BackhaulMsg,
}

/// One client's driver queue at one AP, and whether this AP serves it.
#[derive(Debug, Default)]
pub struct CyclicFeed {
    cyclic: CyclicQueue,
    serving: bool,
}

impl Feed for CyclicFeed {
    fn pop(&mut self) -> Option<Mpdu> {
        if !self.serving {
            return None;
        }
        let (seq, packet) = self.cyclic.pop()?;
        Some(Mpdu::fresh(seq, packet.id, packet.len))
    }

    fn has_fresh(&self) -> bool {
        self.serving && !self.cyclic.is_empty()
    }

    /// A serving AP retries what a Block ACK left out. Post-stop drain
    /// (§3.1.2): the NIC backlog is sent once over the dying link; the new
    /// AP owns every packet from index k, so failed drain MPDUs are
    /// dropped, not retried.
    fn unacked(&self) -> Unacked {
        if self.serving {
            Unacked::Retry
        } else {
            Unacked::Drop
        }
    }
}

/// One WGTT access point.
pub struct ApAgent {
    /// This AP's node id.
    pub id: NodeId,
    /// client → AP currently serving it (replicated via `AssocSync`).
    serving_map: HashMap<NodeId, NodeId>,
    /// The downlink scheduler, fed per client from the cyclic queue.
    pub tx: Downlink<CyclicFeed>,
    /// Forwarded Block ACKs that rescued an otherwise-lost window.
    pub forwarded_ba_used: u64,
}

impl ApAgent {
    /// Build an AP agent. `rng` must be unique per AP (derive it from the
    /// AP's node id) so rate-control probing decorrelates across APs.
    pub fn new(id: NodeId, rng: RngStream) -> Self {
        ApAgent {
            id,
            serving_map: HashMap::new(),
            tx: Downlink::new(rng, "rate-ctl", NIC_QUEUE_MPDUS),
            forwarded_ba_used: 0,
        }
    }

    fn feed(&self, client: NodeId) -> Option<&CyclicFeed> {
        self.tx.client(client).map(|c| &c.feed)
    }

    /// Whether this AP currently serves `client`.
    pub fn is_serving(&self, client: NodeId) -> bool {
        self.feed(client).is_some_and(|f| f.serving)
    }

    /// The first unsent cyclic index for `client` — the `k` handed over
    /// in `start(c, k)`.
    pub fn first_unsent(&self, client: NodeId) -> u16 {
        self.feed(client).map_or(0, |f| f.cyclic.first_unsent())
    }

    /// Downlink packets backlogged in the driver cyclic queue.
    pub fn backlog(&self, client: NodeId) -> usize {
        self.feed(client).map_or(0, |f| f.cyclic.backlog())
    }

    /// Process a backhaul message addressed to this AP. At most one
    /// message goes back out: the `start` a `stop` hands on, or the
    /// `ack` a `start` earns.
    pub fn on_backhaul(&mut self, msg: BackhaulMsg) -> Option<ApAction> {
        match msg {
            BackhaulMsg::DownlinkData {
                client,
                index,
                packet,
            } => {
                self.tx.client_mut(client).feed.cyclic.insert(index, packet);
                None
            }
            BackhaulMsg::Stop {
                client,
                next_ap,
                switch_id,
            } => {
                let feed = &mut self.tx.client_mut(client).feed;
                feed.serving = false;
                // k = first packet still in the driver queue. Whatever is
                // already staged in the NIC keeps draining (§3.1.2's 6 ms
                // grace); the new AP starts *after* it.
                let k = feed.cyclic.first_unsent();
                Some(ApAction {
                    to: BackhaulDest::Ap(next_ap),
                    msg: BackhaulMsg::Start {
                        client,
                        k,
                        switch_id,
                    },
                })
            }
            BackhaulMsg::Start {
                client,
                k,
                switch_id,
            } => {
                let st = self.tx.client_mut(client);
                st.feed.cyclic.jump_to(k);
                st.feed.serving = true;
                // A fresh serving stint: the old AP owns its in-flight
                // window; ours starts clean.
                st.sender.clear_window();
                self.serving_map.insert(client, self.id);
                Some(ApAction {
                    to: BackhaulDest::Controller,
                    msg: BackhaulMsg::SwitchAck {
                        client,
                        ap: self.id,
                        switch_id,
                    },
                })
            }
            BackhaulMsg::AssocSync { client, via_ap } => {
                self.serving_map.insert(client, via_ap);
                if via_ap != self.id && self.is_serving(client) {
                    // Another AP serves now; make sure we don't also
                    // believe we are serving (covers races where our Stop
                    // was processed before this sync).
                    self.tx.client_mut(client).feed.serving = false;
                }
                None
            }
            BackhaulMsg::BlockAckForward {
                client,
                start_seq,
                bitmap,
            } => {
                // A neighbour overheard a Block ACK our radio may have
                // missed.
                let fb = self.tx.on_block_ack(client, start_seq, bitmap);
                if !fb.duplicate && (!fb.delivered.is_empty() || !fb.dropped.is_empty()) {
                    self.forwarded_ba_used += 1;
                }
                None
            }
            // Controller-bound messages are not for us.
            _ => None,
        }
    }

    /// Any uplink frame (including Block ACKs and bare ACKs) yields a CSI
    /// measurement for the controller.
    pub fn csi_report(&self, client: NodeId, esnr_db: f64, now: SimTime) -> ApAction {
        ApAction {
            to: BackhaulDest::Controller,
            msg: BackhaulMsg::CsiReport {
                client,
                ap: self.id,
                esnr_db,
                at: now,
            },
        }
    }

    /// Our monitor interface overheard a Block ACK from `client`: Block
    /// ACK forwarding between APs (§3.2.1).
    ///
    /// Each AP runs two virtual interfaces: AP-mode for normal traffic and
    /// a monitor-mode interface that overhears frames. The monitor
    /// interface is *disabled on the AP currently serving the client*
    /// (Fig. 8). When a non-serving AP overhears a Block ACK from a
    /// client, it forwards `(client, start_seq, bitmap)` over the backhaul
    /// to the serving AP, which applies it if its own radio missed the
    /// frame — cutting the retransmission storms that lost Block ACKs
    /// otherwise cause at cell edges. With no serving AP there is nothing
    /// to forward to. Duplicate suppression on the receiving side lives in
    /// [`wgtt_mac::blockack::BaOriginator`].
    pub fn on_overheard_block_ack(
        &mut self,
        client: NodeId,
        start_seq: u16,
        bitmap: u64,
    ) -> Option<ApAction> {
        let serving = self.serving_map.get(&client).copied();
        serving
            .filter(|&ap| ap != self.id)
            .map(|serving_ap| ApAction {
                to: BackhaulDest::Ap(serving_ap),
                msg: BackhaulMsg::BlockAckForward {
                    client,
                    start_seq,
                    bitmap,
                },
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::packet::{FlowId, PacketFactory};
    use wgtt_net::wire::Ipv4Addr;

    const AP1: NodeId = NodeId(1);
    const AP2: NodeId = NodeId(2);
    const CLIENT: NodeId = NodeId(100);

    fn agent(id: NodeId) -> ApAgent {
        ApAgent::new(id, RngStream::root(7))
    }

    fn pkt(f: &mut PacketFactory, seq: u32) -> wgtt_net::Packet {
        f.udp(
            FlowId(0),
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(172, 16, 0, 100),
            seq,
            1500,
            SimTime::ZERO,
        )
    }

    fn feed_downlink(ap: &mut ApAgent, f: &mut PacketFactory, n: u16) {
        for i in 0..n {
            ap.on_backhaul(BackhaulMsg::DownlinkData {
                client: CLIENT,
                index: i,
                packet: pkt(f, i as u32),
            });
        }
    }

    fn make_serving(ap: &mut ApAgent, k: u16) {
        ap.on_backhaul(BackhaulMsg::Start {
            client: CLIENT,
            k,
            switch_id: 0,
        });
    }

    #[test]
    fn downlink_buffers_even_when_not_serving() {
        let mut ap = agent(AP2);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 100);
        assert_eq!(ap.backlog(CLIENT), 100);
        assert!(!ap.is_serving(CLIENT));
        assert!(ap.tx.ready_clients().is_empty(), "non-serving AP is silent");
    }

    #[test]
    fn serving_ap_builds_ampdu_with_cyclic_indices_as_seqs() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 100);
        make_serving(&mut ap, 0);
        let (mpdus, mcs) = ap.tx.build(CLIENT).expect("work queued");
        // Aggregation bounded by count, byte, and 4 ms airtime caps.
        let cap =
            wgtt_mac::aggregation::AggregationPolicy::default().byte_cap_at(mcs) as usize / 1500;
        assert_eq!(mpdus.len(), cap.min(32));
        assert!(mpdus.len() >= 2, "aggregation must happen");
        for (i, m) in mpdus.iter().enumerate() {
            assert_eq!(m.seq as usize, i, "seq == cyclic index");
        }
        // Stop-and-wait: no second A-MPDU until the first resolves.
        assert!(ap.tx.build(CLIENT).is_none());
    }

    #[test]
    fn ba_timeout_retransmits_window() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 8);
        make_serving(&mut ap, 0);
        ap.tx.on_ba_timeout(CLIENT);
        assert_eq!(ap.tx.ba_timeouts, 0, "nothing was in flight");
        let (mpdus, _) = ap.tx.build(CLIENT).unwrap();
        let fb = ap.tx.on_ba_timeout(CLIENT);
        assert!(fb.delivered.is_empty() && fb.dropped.is_empty());
        assert_eq!(ap.tx.ba_timeouts, 1);
        // Still serving: the window goes again from its first index.
        let (again, _) = ap.tx.build(CLIENT).unwrap();
        assert_eq!((again[0].seq, again[0].retries), (mpdus[0].seq, 1));
    }

    #[test]
    fn stop_produces_start_with_first_unsent() {
        let mut ap1 = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap1, &mut f, 200);
        make_serving(&mut ap1, 0);
        // One TXOP pulls 64 into NIC staging, sends the first aggregate.
        ap1.tx.build(CLIENT).unwrap();
        let k_expected = ap1.first_unsent(CLIENT);
        assert_eq!(k_expected, 64, "NIC staged 64, so driver head is 64");
        let action = ap1.on_backhaul(BackhaulMsg::Stop {
            client: CLIENT,
            next_ap: AP2,
            switch_id: 42,
        });
        let action = action.expect("a stop hands on a start");
        assert_eq!(action.to, BackhaulDest::Ap(AP2));
        match &action.msg {
            BackhaulMsg::Start {
                client,
                k,
                switch_id,
            } => {
                assert_eq!(*client, CLIENT);
                assert_eq!(*k, k_expected);
                assert_eq!(*switch_id, 42);
            }
            other => panic!("expected Start, got {other:?}"),
        }
        assert!(!ap1.is_serving(CLIENT));
    }

    #[test]
    fn stopped_ap_drains_nic_but_not_cyclic() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 200);
        make_serving(&mut ap, 0);
        let (first, _) = ap.tx.build(CLIENT).unwrap(); // 64 staged
        ap.tx.on_ba_timeout(CLIENT); // first aggregate becomes retries
        ap.on_backhaul(BackhaulMsg::Stop {
            client: CLIENT,
            next_ap: AP2,
            switch_id: 1,
        });
        // Still drains: retries + what is left in NIC staging — but the
        // cyclic backlog is never touched again.
        assert_eq!(ap.tx.ready_clients(), vec![CLIENT]);
        let backlog_before = ap.backlog(CLIENT);
        let mut drained = 0;
        let mut guard = 0;
        while let Some((d, _)) = { ap.tx.build(CLIENT) } {
            guard += 1;
            assert!(guard < 20, "drain must terminate");
            let start = d[0].seq;
            drained += d.len();
            if guard == 1 {
                // Drain mode: one shot per packet, even when it fails.
                assert_eq!(ap.tx.on_ba_timeout(CLIENT).dropped.len(), d.len());
            } else {
                ap.tx.on_block_ack(CLIENT, start, u64::MAX);
            }
        }
        // Everything that was staged/retried went out exactly once.
        assert_eq!(drained, 64 + first.len() - first.len());
        // Cyclic backlog untouched after the stop.
        assert_eq!(ap.backlog(CLIENT), backlog_before);
    }

    #[test]
    fn start_jumps_and_acks() {
        let mut ap2 = agent(AP2);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap2, &mut f, 200);
        assert!(!ap2.is_serving(CLIENT));
        let action = ap2.on_backhaul(BackhaulMsg::Start {
            client: CLIENT,
            k: 64,
            switch_id: 42,
        });
        assert!(ap2.is_serving(CLIENT));
        assert_eq!(ap2.first_unsent(CLIENT), 64);
        let action = action.expect("a start earns an ack");
        assert_eq!(action.to, BackhaulDest::Controller);
        assert!(matches!(
            action.msg,
            BackhaulMsg::SwitchAck { ap, switch_id: 42, .. } if ap == AP2
        ));
        // First TXOP resumes exactly at k.
        let (mpdus, _) = ap2.tx.build(CLIENT).unwrap();
        assert_eq!(mpdus[0].seq, 64);
    }

    #[test]
    fn duplicate_start_is_idempotent() {
        let mut ap2 = agent(AP2);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap2, &mut f, 100);
        ap2.on_backhaul(BackhaulMsg::Start {
            client: CLIENT,
            k: 10,
            switch_id: 1,
        });
        ap2.tx.build(CLIENT).unwrap();
        let head = ap2.first_unsent(CLIENT);
        // Retransmitted stop caused a duplicate start with the same k.
        let ack = ap2.on_backhaul(BackhaulMsg::Start {
            client: CLIENT,
            k: 10,
            switch_id: 1,
        });
        assert!(ack.is_some(), "re-ack so the controller unblocks");
        assert_eq!(ap2.first_unsent(CLIENT), head, "no rewind");
    }

    #[test]
    fn overheard_ba_forwarded_to_serving_ap_only() {
        let mut ap2 = agent(AP2);
        // No serving AP known yet: nothing to forward to.
        assert!(ap2.on_overheard_block_ack(CLIENT, 0, 0xFF).is_none());
        ap2.on_backhaul(BackhaulMsg::AssocSync {
            client: CLIENT,
            via_ap: AP1,
        });
        let fwd = ap2.on_overheard_block_ack(CLIENT, 0, 0xFF);
        assert_eq!(fwd.map(|a| a.to), Some(BackhaulDest::Ap(AP1)));
        // The serving AP itself (monitor disabled) forwards nothing.
        let mut ap1 = agent(AP1);
        ap1.on_backhaul(BackhaulMsg::AssocSync {
            client: CLIENT,
            via_ap: AP1,
        });
        assert!(ap1.on_overheard_block_ack(CLIENT, 0, 0xFF).is_none());
    }

    #[test]
    fn forwarded_ba_applies_like_native() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 8);
        make_serving(&mut ap, 0);
        let (mpdus, _) = ap.tx.build(CLIENT).unwrap();
        let bitmap = (1u64 << mpdus.len()) - 1;
        // The BA comes in over the backhaul, not the radio.
        ap.on_backhaul(BackhaulMsg::BlockAckForward {
            client: CLIENT,
            start_seq: 0,
            bitmap,
        });
        assert_eq!(ap.forwarded_ba_used, 1);
        // Window cleared: timeout has nothing to retransmit.
        let fb = ap.tx.on_ba_timeout(CLIENT);
        assert!(fb.delivered.is_empty());
        assert!(ap.tx.build(CLIENT).is_none(), "queue empty");
    }

    #[test]
    fn assoc_sync_installs_and_corrects_serving() {
        let mut ap = agent(AP1);
        make_serving(&mut ap, 0);
        assert!(ap.is_serving(CLIENT));
        // Controller announces AP2 serves now (our stop raced the sync).
        ap.on_backhaul(BackhaulMsg::AssocSync {
            client: CLIENT,
            via_ap: AP2,
        });
        assert!(!ap.is_serving(CLIENT));
    }

    #[test]
    fn round_robin_across_clients() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        let (c2, c3) = (NodeId(101), NodeId(102));
        for (client, base) in [(CLIENT, 0u32), (c2, 1000), (c3, 2000)] {
            for i in 0..10u16 {
                ap.on_backhaul(BackhaulMsg::DownlinkData {
                    client,
                    index: i,
                    packet: pkt(&mut f, base + i as u32),
                });
            }
            ap.on_backhaul(BackhaulMsg::Start {
                client,
                k: 0,
                switch_id: 0,
            });
        }
        let first = ap.tx.next_client().unwrap();
        // `first` goes mid-window: it is skipped, and the cursor counts on
        // over the two that are left as if nothing had happened.
        let (mpdus, _) = ap.tx.build(first).unwrap();
        let second = ap.tx.next_client().unwrap();
        assert_ne!(first, second, "round robin must alternate");
        let mut picks = vec![first, second];
        picks.extend((0..2).map(|_| ap.tx.next_client().unwrap()));
        assert_eq!(picks, [CLIENT, c3, c2, c3]);
        // Its window settles with data left: it rejoins where the cursor
        // now points.
        ap.tx
            .on_block_ack(first, mpdus[0].seq, (1 << (mpdus.len() - 1)) - 1);
        let picks: Vec<NodeId> = (0..3).map(|_| ap.tx.next_client().unwrap()).collect();
        assert_eq!(picks, [c2, c3, CLIENT]);
    }
}
