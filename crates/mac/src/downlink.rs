//! An AP's downlink scheduler: one [`Sender`] per client, round-robin.
//!
//! The paper's comparison (§5.1) is between two systems that run the same
//! stock 802.11n AP and differ only in the queue management above it
//! (§3.1.2), so both AP kinds run this one type: the client table with
//! each client's lazily derived rate-control stream, the ready test, the
//! round-robin pick, refill-then-build, and the routing of a Block ACK or
//! its timeout to the sender it settles. An AP kind supplies only its
//! per-client [`Feed`]: where fresh MPDUs come from, and whether a failed
//! one may go again.

use crate::aggregation::AggregationPolicy;
use crate::frame::{Mpdu, NodeId};
use crate::mcs::Mcs;
use crate::rate::RateController;
use crate::sender::{BaFeedback, Sender, Unacked};
use wgtt_sim::hash::FastMap;
use wgtt_sim::rng::RngStream;

/// MPDUs a sender stages below its feed: the NIC hardware queue of the
/// testbed's ath9k radios, ≈ 6 ms of airtime, which is all the old AP
/// still drains after a switch (paper §3.1.2). Both AP kinds pass it to
/// [`Downlink::new`].
pub const NIC_QUEUE_MPDUS: usize = 64;

/// What sits above one client's [`Sender`] and refills its staged MPDUs.
pub trait Feed: Default {
    /// The next fresh MPDU, if the feed releases one now.
    fn pop(&mut self) -> Option<Mpdu>;

    /// Whether [`Feed::pop`] would return one.
    fn has_fresh(&self) -> bool;

    /// What becomes of this client's unacknowledged MPDUs.
    fn unacked(&self) -> Unacked;
}

/// One client's entry: its feed and the sender below it.
#[derive(Debug)]
pub struct Client<F> {
    /// The AP kind's queue toward this client.
    pub feed: F,
    /// Its staged MPDUs are the NIC hardware queue below the feed.
    pub sender: Sender,
}

impl<F: Feed> Client<F> {
    fn tx_ready(&self) -> bool {
        !self.sender.has_in_flight() && (self.sender.has_backlog() || self.feed.has_fresh())
    }
}

/// The transmit side of one AP.
pub struct Downlink<F> {
    clients: FastMap<NodeId, Client<F>>,
    rng: RngStream,
    rate_label: &'static str,
    stage_cap: usize,
    /// Round-robin cursor over clients with pending work.
    rr_cursor: usize,
    /// Block ACK timeouts that found a window in flight (full-window
    /// retransmissions — §3.2.1's failure mode).
    pub ba_timeouts: u64,
}

impl<F: Feed> Downlink<F> {
    /// An empty client table. `rng` must be unique per AP; each client's
    /// rate controller draws from its child `(rate_label, client id)`, so
    /// probing decorrelates across APs and clients. A sender holds at most
    /// `stage_cap` fresh MPDUs below its feed.
    pub fn new(rng: RngStream, rate_label: &'static str, stage_cap: usize) -> Self {
        Downlink {
            clients: FastMap::default(),
            rng,
            rate_label,
            stage_cap,
            rr_cursor: 0,
            ba_timeouts: 0,
        }
    }

    /// `client`'s entry, if it has one.
    pub fn client(&self, client: NodeId) -> Option<&Client<F>> {
        self.clients.get(&client)
    }

    /// `client`'s entry, made on first use.
    pub fn client_mut(&mut self, client: NodeId) -> &mut Client<F> {
        let (stream, label) = (self.rng, self.rate_label);
        self.clients.entry(client).or_insert_with(|| {
            let rng = stream.derive_indexed(label, u64::from(client.0)).rng();
            Client {
                feed: F::default(),
                sender: Sender::new(RateController::new(rng)),
            }
        })
    }

    /// Clients with transmittable work, in id order: anything staged or
    /// awaiting retry, or fresh in the feed. Skips clients with an A-MPDU
    /// already in flight.
    pub fn ready_clients(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .clients
            .iter()
            .filter(|(_, c)| c.tx_ready())
            .map(|(&id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Pick the next client to transmit to (round-robin across ready
    /// clients, so multi-client airtime shares fairly).
    pub fn next_client(&mut self) -> Option<NodeId> {
        let ready = self.ready_clients();
        if ready.is_empty() {
            return None;
        }
        let pick = ready[self.rr_cursor % ready.len()];
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        Some(pick)
    }

    /// Build the next A-MPDU for `client`: top its staged MPDUs up from
    /// the feed, then let the sender aggregate retries + staged MPDUs at
    /// the rate it selects.
    pub fn build(&mut self, client: NodeId) -> Option<(Vec<Mpdu>, Mcs)> {
        let cap = self.stage_cap;
        let c = self.client_mut(client);
        if c.sender.has_in_flight() {
            return None;
        }
        while c.sender.staged_len() < cap {
            let Some(mpdu) = c.feed.pop() else { break };
            c.sender.stage(mpdu);
        }
        c.sender.build(&AggregationPolicy::default())
    }
}

/// An AP's transmit side with its feed type erased: what the scenario's
/// station gate drives, whichever system is under test.
pub trait TxSide {
    /// Whether [`Downlink::ready_clients`] would name anyone — what the
    /// scenario asks before contending, without the list.
    fn has_work(&self) -> bool;

    /// The next client in turn and the A-MPDU built for it, held in
    /// flight at its sender.
    fn next_ampdu(&mut self) -> Option<(NodeId, Vec<Mpdu>, Mcs)>;

    /// Whether an A-MPDU toward `client` is awaiting its Block ACK.
    fn has_in_flight(&self, client: NodeId) -> bool;

    /// A Block ACK from `client` arrived, on our radio or forwarded.
    fn on_block_ack(&mut self, client: NodeId, start_seq: u16, bitmap: u64) -> BaFeedback;

    /// No Block ACK arrived for the A-MPDU in flight toward `client` (and
    /// no neighbour forwarded one in time): the whole window failed.
    fn on_ba_timeout(&mut self, client: NodeId) -> BaFeedback;
}

impl<F: Feed> TxSide for Downlink<F> {
    fn has_work(&self) -> bool {
        self.clients.values().any(Client::tx_ready)
    }

    fn next_ampdu(&mut self) -> Option<(NodeId, Vec<Mpdu>, Mcs)> {
        let client = self.next_client()?;
        let (mpdus, mcs) = self.build(client)?;
        Some((client, mpdus, mcs))
    }

    fn has_in_flight(&self, client: NodeId) -> bool {
        self.client(client)
            .is_some_and(|c| c.sender.has_in_flight())
    }

    fn on_block_ack(&mut self, client: NodeId, start_seq: u16, bitmap: u64) -> BaFeedback {
        let c = self.client_mut(client);
        c.sender.on_block_ack(start_seq, bitmap, c.feed.unacked())
    }

    fn on_ba_timeout(&mut self, client: NodeId) -> BaFeedback {
        let c = self.client_mut(client);
        let in_flight = c.sender.has_in_flight();
        let fb = c.sender.on_ba_timeout(c.feed.unacked());
        self.ba_timeouts += u64::from(in_flight);
        fb
    }
}
