//! The WGTT AP data plane (paper Fig. 5 right, Fig. 7).
//!
//! Each AP holds, per client, the replicated [`CyclicQueue`], whether it
//! is the serving AP, and the stock 802.11n [`Sender`] every radio in the
//! model runs. What this module adds on top of the sender is WGTT's own:
//! the sender's staged MPDUs are the NIC hardware queue, refilled from the
//! cyclic queue only while serving; the MAC sequence number of every MPDU
//! *is* the packet's 12-bit cyclic index — both spaces are m = 12 bits in
//! the paper, and sharing them is what lets a client's Block ACK window
//! survive an AP switch seamlessly; and after `stop` the old AP drains
//! that NIC backlog once (≈6 ms, §3.1.2) without retrying what fails.
//!
//! Control messages (`stop`/`start`) are processed out-of-band from data
//! (the paper prioritizes them past the cyclic queue); the scenario
//! delivers them with the configured processing delays.

use crate::bafwd::MonitorPolicy;
use crate::config::WgttConfig;
use crate::cyclic::CyclicQueue;
use crate::messages::{BackhaulDest, BackhaulMsg};
use std::collections::HashMap;
use wgtt_mac::aggregation::AggregationPolicy;
use wgtt_mac::frame::{Mpdu, NodeId, PacketRef};
use wgtt_mac::rate::RateController;
use wgtt_mac::sender::{BaFeedback, Sender, Unacked};
use wgtt_mac::Mcs;
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

/// Per-AP statistics.
#[derive(Debug, Default)]
pub struct ApStats {
    /// A-MPDUs transmitted.
    pub ampdus_sent: u64,
    /// MPDUs transmitted (including retries).
    pub mpdus_sent: u64,
    /// Block ACKs applied from our own radio or forwarded copies.
    pub block_acks_applied: u64,
    /// Forwarded Block ACKs that rescued an otherwise-lost window.
    pub forwarded_ba_used: u64,
    /// Block ACK timeouts (full-window retransmissions).
    pub ba_timeouts: u64,
    /// `stop` control packets handled.
    pub stops_handled: u64,
    /// `start` control packets handled.
    pub starts_handled: u64,
}

#[derive(Debug)]
struct ApClientState {
    cyclic: CyclicQueue,
    serving: bool,
    /// Its staged MPDUs are the NIC hardware queue, below the driver's
    /// cyclic queue.
    sender: Sender,
}

impl ApClientState {
    /// See [`ApAgent::tx_ready_clients`].
    fn tx_ready(&self) -> bool {
        !self.sender.has_in_flight()
            && (self.sender.has_backlog() || (self.serving && !self.cyclic.is_empty()))
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
    cfg: WgttConfig,
    /// client → AP currently serving it (replicated via `AssocSync`).
    serving_map: HashMap<NodeId, NodeId>,
    clients: HashMap<NodeId, ApClientState>,
    rng: RngStream,
    agg_policy: AggregationPolicy,
    /// Round-robin cursor over clients with pending work.
    rr_cursor: usize,
    /// Run statistics.
    pub stats: ApStats,
}

impl ApAgent {
    /// Build an AP agent. `rng` must be unique per AP (derive it from the
    /// AP's node id) so rate-control probing decorrelates across APs.
    pub fn new(id: NodeId, cfg: WgttConfig, rng: RngStream) -> Self {
        ApAgent {
            id,
            cfg,
            serving_map: HashMap::new(),
            clients: HashMap::new(),
            rng,
            agg_policy: AggregationPolicy::default(),
            rr_cursor: 0,
            stats: ApStats::default(),
        }
    }

    fn client_mut(&mut self, client: NodeId) -> &mut ApClientState {
        let stream = self.rng;
        self.clients.entry(client).or_insert_with(|| {
            let rng = stream.derive_indexed("rate-ctl", client.0 as u64).rng();
            ApClientState {
                cyclic: CyclicQueue::new(),
                serving: false,
                sender: Sender::new(RateController::new(rng)),
            }
        })
    }

    /// Whether this AP currently serves `client`.
    pub fn is_serving(&self, client: NodeId) -> bool {
        self.clients.get(&client).is_some_and(|c| c.serving)
    }

    /// Whether an A-MPDU toward `client` is awaiting its Block ACK.
    pub fn has_in_flight(&self, client: NodeId) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|c| c.sender.has_in_flight())
    }

    /// The first unsent cyclic index for `client` — the `k` handed over
    /// in `start(c, k)`.
    pub fn first_unsent(&self, client: NodeId) -> u16 {
        self.clients
            .get(&client)
            .map_or(0, |c| c.cyclic.first_unsent())
    }

    /// Downlink packets backlogged in the driver cyclic queue.
    pub fn backlog(&self, client: NodeId) -> usize {
        self.clients.get(&client).map_or(0, |c| c.cyclic.backlog())
    }

    /// Process a backhaul message addressed to this AP.
    pub fn on_backhaul(&mut self, msg: BackhaulMsg) -> Vec<ApAction> {
        match msg {
            BackhaulMsg::DownlinkData {
                client,
                index,
                packet,
            } => {
                self.client_mut(client).cyclic.insert(index, packet);
                Vec::new()
            }
            BackhaulMsg::Stop {
                client,
                next_ap,
                switch_id,
            } => {
                self.stats.stops_handled += 1;
                let st = self.client_mut(client);
                st.serving = false;
                // k = first packet still in the driver queue. Whatever is
                // already staged in the NIC keeps draining (§3.1.2's 6 ms
                // grace); the new AP starts *after* it.
                let k = st.cyclic.first_unsent();
                vec![ApAction {
                    to: BackhaulDest::Ap(next_ap),
                    msg: BackhaulMsg::Start {
                        client,
                        k,
                        switch_id,
                    },
                }]
            }
            BackhaulMsg::Start {
                client,
                k,
                switch_id,
            } => {
                self.stats.starts_handled += 1;
                let st = self.client_mut(client);
                st.cyclic.jump_to(k);
                st.serving = true;
                // A fresh serving stint: the old AP owns its in-flight
                // window; ours starts clean.
                st.sender.clear_window();
                self.serving_map.insert(client, self.id);
                vec![ApAction {
                    to: BackhaulDest::Controller,
                    msg: BackhaulMsg::SwitchAck {
                        client,
                        ap: self.id,
                        switch_id,
                    },
                }]
            }
            BackhaulMsg::AssocSync { client, via_ap } => {
                self.serving_map.insert(client, via_ap);
                if via_ap != self.id {
                    // Another AP serves now; make sure we don't also
                    // believe we are serving (covers races where our Stop
                    // was processed before this sync).
                    if let Some(st) = self.clients.get_mut(&client) {
                        st.serving = false;
                    }
                }
                Vec::new()
            }
            BackhaulMsg::BlockAckForward {
                client,
                start_seq,
                bitmap,
            } => {
                // A neighbour overheard a Block ACK our radio may have
                // missed.
                let fb = self.apply_block_ack(client, start_seq, bitmap);
                if !fb.duplicate && (!fb.delivered.is_empty() || !fb.dropped.is_empty()) {
                    self.stats.forwarded_ba_used += 1;
                }
                Vec::new()
            }
            // Controller-bound messages are not for us.
            _ => Vec::new(),
        }
    }

    /// Clients with transmittable downlink work, in id order: serving
    /// clients with any queued data, plus non-serving clients still
    /// draining their NIC staging or retries. Skips clients with an
    /// A-MPDU already in flight.
    pub fn tx_ready_clients(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .clients
            .iter()
            .filter(|(_, st)| st.tx_ready())
            .map(|(&c, _)| c)
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether [`ApAgent::tx_ready_clients`] would name anyone — what the
    /// scenario asks after every backhaul delivery, without the list.
    pub fn has_tx_ready(&self) -> bool {
        self.clients.values().any(ApClientState::tx_ready)
    }

    /// Pick the next client to transmit to (round-robin across ready
    /// clients, so multi-client airtime shares fairly).
    pub fn next_tx_client(&mut self) -> Option<NodeId> {
        let ready = self.tx_ready_clients();
        if ready.is_empty() {
            return None;
        }
        let pick = ready[self.rr_cursor % ready.len()];
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        Some(pick)
    }

    /// Build the next A-MPDU for `client`: refill the NIC staging from
    /// the cyclic queue (serving only), then let the sender aggregate
    /// retries + staged MPDUs at the rate it selects.
    pub fn build_txop(&mut self, client: NodeId) -> Option<(Vec<Mpdu>, Mcs)> {
        let nic_cap = self.cfg.nic_queue_mpdus;
        let policy = self.agg_policy;
        let st = self.client_mut(client);
        if st.sender.has_in_flight() {
            return None;
        }
        if st.serving {
            while st.sender.staged_len() < nic_cap {
                let Some((idx, packet)) = st.cyclic.pop() else {
                    break;
                };
                st.sender.stage(Mpdu {
                    seq: idx,
                    packet: PacketRef {
                        id: packet.id,
                        len: packet.len,
                    },
                    retries: 0,
                });
            }
        }
        let (mpdus, mcs) = st.sender.build(&policy)?;
        self.stats.ampdus_sent += 1;
        self.stats.mpdus_sent += mpdus.len() as u64;
        Some((mpdus, mcs))
    }

    fn apply_block_ack(&mut self, client: NodeId, start_seq: u16, bitmap: u64) -> BaFeedback {
        let st = self.client_mut(client);
        let unacked = st.unacked();
        st.sender.on_block_ack(start_seq, bitmap, unacked)
    }

    /// A Block ACK arrived on our own radio.
    pub fn on_block_ack(&mut self, client: NodeId, start_seq: u16, bitmap: u64) -> BaFeedback {
        self.stats.block_acks_applied += 1;
        self.apply_block_ack(client, start_seq, bitmap)
    }

    /// No Block ACK arrived for the in-flight A-MPDU (and no neighbour
    /// forwarded one in time): the whole window retransmits — §3.2.1's
    /// failure mode.
    pub fn on_ba_timeout(&mut self, client: NodeId) -> BaFeedback {
        let st = self.client_mut(client);
        let in_flight = st.sender.has_in_flight();
        let unacked = st.unacked();
        let fb = st.sender.on_ba_timeout(unacked);
        self.stats.ba_timeouts += u64::from(in_flight);
        fb
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

    /// Our monitor interface overheard a Block ACK from `client`. Forward
    /// it to the serving AP unless that is us (§3.2.1 / Fig. 8).
    pub fn on_overheard_block_ack(
        &mut self,
        client: NodeId,
        start_seq: u16,
        bitmap: u64,
    ) -> Vec<ApAction> {
        let policy = MonitorPolicy { me: self.id };
        match policy.should_forward(self.serving_map.get(&client).copied()) {
            Some(serving_ap) => vec![ApAction {
                to: BackhaulDest::Ap(serving_ap),
                msg: BackhaulMsg::BlockAckForward {
                    client,
                    start_seq,
                    bitmap,
                },
            }],
            None => Vec::new(),
        }
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
        ApAgent::new(id, WgttConfig::default(), RngStream::root(7))
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
        assert!(ap.tx_ready_clients().is_empty(), "non-serving AP is silent");
    }

    #[test]
    fn serving_ap_builds_ampdu_with_cyclic_indices_as_seqs() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 100);
        make_serving(&mut ap, 0);
        let (mpdus, mcs) = ap.build_txop(CLIENT).expect("work queued");
        // Aggregation bounded by count, byte, and 4 ms airtime caps.
        let cap =
            wgtt_mac::aggregation::AggregationPolicy::default().byte_cap_at(mcs) as usize / 1500;
        assert_eq!(mpdus.len(), cap.min(32));
        assert!(mpdus.len() >= 2, "aggregation must happen");
        for (i, m) in mpdus.iter().enumerate() {
            assert_eq!(m.seq as usize, i, "seq == cyclic index");
        }
        // Stop-and-wait: no second A-MPDU until the first resolves.
        assert!(ap.build_txop(CLIENT).is_none());
    }

    #[test]
    fn ba_timeout_retransmits_window() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 8);
        make_serving(&mut ap, 0);
        ap.on_ba_timeout(CLIENT);
        assert_eq!(ap.stats.ba_timeouts, 0, "nothing was in flight");
        let (mpdus, _) = ap.build_txop(CLIENT).unwrap();
        let fb = ap.on_ba_timeout(CLIENT);
        assert!(fb.delivered.is_empty() && fb.dropped.is_empty());
        assert_eq!(ap.stats.ba_timeouts, 1);
        // Still serving: the window goes again from its first index.
        let (again, _) = ap.build_txop(CLIENT).unwrap();
        assert_eq!((again[0].seq, again[0].retries), (mpdus[0].seq, 1));
    }

    #[test]
    fn stop_produces_start_with_first_unsent() {
        let mut ap1 = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap1, &mut f, 200);
        make_serving(&mut ap1, 0);
        // One TXOP pulls 64 into NIC staging, sends the first aggregate.
        ap1.build_txop(CLIENT).unwrap();
        let k_expected = ap1.first_unsent(CLIENT);
        assert_eq!(k_expected, 64, "NIC staged 64, so driver head is 64");
        let actions = ap1.on_backhaul(BackhaulMsg::Stop {
            client: CLIENT,
            next_ap: AP2,
            switch_id: 42,
        });
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].to, BackhaulDest::Ap(AP2));
        match &actions[0].msg {
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
        let (first, _) = ap.build_txop(CLIENT).unwrap(); // 64 staged
        ap.on_ba_timeout(CLIENT); // first aggregate becomes retries
        ap.on_backhaul(BackhaulMsg::Stop {
            client: CLIENT,
            next_ap: AP2,
            switch_id: 1,
        });
        // Still drains: retries + what is left in NIC staging — but the
        // cyclic backlog is never touched again.
        assert_eq!(ap.tx_ready_clients(), vec![CLIENT]);
        let backlog_before = ap.backlog(CLIENT);
        let mut drained = 0;
        let mut guard = 0;
        while let Some((d, _)) = { ap.build_txop(CLIENT) } {
            guard += 1;
            assert!(guard < 20, "drain must terminate");
            let start = d[0].seq;
            drained += d.len();
            if guard == 1 {
                // Drain mode: one shot per packet, even when it fails.
                assert_eq!(ap.on_ba_timeout(CLIENT).dropped.len(), d.len());
            } else {
                ap.on_block_ack(CLIENT, start, u64::MAX);
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
        let actions = ap2.on_backhaul(BackhaulMsg::Start {
            client: CLIENT,
            k: 64,
            switch_id: 42,
        });
        assert!(ap2.is_serving(CLIENT));
        assert_eq!(ap2.first_unsent(CLIENT), 64);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].to, BackhaulDest::Controller);
        assert!(matches!(
            actions[0].msg,
            BackhaulMsg::SwitchAck { ap, switch_id: 42, .. } if ap == AP2
        ));
        // First TXOP resumes exactly at k.
        let (mpdus, _) = ap2.build_txop(CLIENT).unwrap();
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
        ap2.build_txop(CLIENT).unwrap();
        let head = ap2.first_unsent(CLIENT);
        // Retransmitted stop caused a duplicate start with the same k.
        let acks = ap2.on_backhaul(BackhaulMsg::Start {
            client: CLIENT,
            k: 10,
            switch_id: 1,
        });
        assert_eq!(acks.len(), 1, "re-ack so the controller unblocks");
        assert_eq!(ap2.first_unsent(CLIENT), head, "no rewind");
    }

    #[test]
    fn overheard_ba_forwarded_to_serving_ap_only() {
        let mut ap2 = agent(AP2);
        ap2.on_backhaul(BackhaulMsg::AssocSync {
            client: CLIENT,
            via_ap: AP1,
        });
        let fwd = ap2.on_overheard_block_ack(CLIENT, 0, 0xFF);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].to, BackhaulDest::Ap(AP1));
        // The serving AP itself (monitor disabled) forwards nothing.
        let mut ap1 = agent(AP1);
        ap1.on_backhaul(BackhaulMsg::AssocSync {
            client: CLIENT,
            via_ap: AP1,
        });
        assert!(ap1.on_overheard_block_ack(CLIENT, 0, 0xFF).is_empty());
    }

    #[test]
    fn forwarded_ba_applies_like_native() {
        let mut ap = agent(AP1);
        let mut f = PacketFactory::new();
        feed_downlink(&mut ap, &mut f, 8);
        make_serving(&mut ap, 0);
        let (mpdus, _) = ap.build_txop(CLIENT).unwrap();
        let bitmap = (1u64 << mpdus.len()) - 1;
        // The BA comes in over the backhaul, not the radio.
        ap.on_backhaul(BackhaulMsg::BlockAckForward {
            client: CLIENT,
            start_seq: 0,
            bitmap,
        });
        assert_eq!(ap.stats.forwarded_ba_used, 1);
        // Window cleared: timeout has nothing to retransmit.
        let fb = ap.on_ba_timeout(CLIENT);
        assert!(fb.delivered.is_empty());
        assert!(ap.build_txop(CLIENT).is_none(), "queue empty");
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
        let c2 = NodeId(101);
        for (client, base) in [(CLIENT, 0u32), (c2, 1000)] {
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
        let first = ap.next_tx_client().unwrap();
        let second = ap.next_tx_client().unwrap();
        assert_ne!(first, second, "round robin must alternate");
    }
}
