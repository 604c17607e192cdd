//! The backhaul message vocabulary between controller and APs.
//!
//! On the real testbed these ride UDP/IP tunnels over Ethernet (paper
//! §3.1.3, §3.2.2); in the simulation they stay typed values, never
//! serialized, and the scenario delivers them as events after
//! [`BACKHAUL_LATENCY`]. Control packets (`Stop`/`Start`/`SwitchAck`) are
//! *prioritized* at the AP — they bypass the data queues (§3.1.2) — which
//! the scenario honours by dispatching them ahead of data processing.

use wgtt_mac::frame::NodeId;
use wgtt_net::Packet;
use wgtt_sim::time::{SimDuration, SimTime};

/// One-way Ethernet backhaul latency between controller and APs. The
/// paper's Fig. 3 labels the hop "< 1 ms"; 300 µs is ours within that.
pub const BACKHAUL_LATENCY: SimDuration = SimDuration::from_micros(300);

/// Where a backhaul message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackhaulDest {
    /// The central controller.
    Controller,
    /// A specific AP.
    Ap(NodeId),
}

/// A message on the Ethernet backhaul.
#[derive(Debug, Clone, PartialEq)]
pub enum BackhaulMsg {
    /// Controller → every in-range AP: replicate this downlink packet at
    /// cyclic index `index` for `client`.
    DownlinkData {
        /// Destination client.
        client: NodeId,
        /// 12-bit cyclic-queue index.
        index: u16,
        /// The tunnelled packet.
        packet: Packet,
    },
    /// Controller → old AP: stop serving `client`; hand off to `next_ap`
    /// (step 1 of the switching protocol).
    Stop {
        /// The client being switched.
        client: NodeId,
        /// The AP taking over.
        next_ap: NodeId,
        /// Identifies the switch attempt (retransmissions reuse it).
        switch_id: u64,
    },
    /// Old AP → new AP: begin serving `client` from cyclic index `k`
    /// (step 2).
    Start {
        /// The client being switched.
        client: NodeId,
        /// First unsent index at the old AP.
        k: u16,
        /// Echoed switch attempt id.
        switch_id: u64,
    },
    /// New AP → controller: switch complete (step 3).
    SwitchAck {
        /// The client switched.
        client: NodeId,
        /// The AP now serving.
        ap: NodeId,
        /// Echoed switch attempt id.
        switch_id: u64,
    },
    /// AP → controller: ESNR computed from one uplink frame's CSI.
    CsiReport {
        /// Client the frame came from.
        client: NodeId,
        /// AP that measured it.
        ap: NodeId,
        /// Effective SNR, dB.
        esnr_db: f64,
        /// Measurement instant.
        at: SimTime,
    },
    /// AP → controller: an overheard uplink data packet (tunnelled).
    UplinkData {
        /// AP that received it.
        ap: NodeId,
        /// The tunnelled packet.
        packet: Packet,
    },
    /// Monitor-mode AP → serving AP: an overheard Block ACK (§3.2.1).
    BlockAckForward {
        /// Client that sent the Block ACK.
        client: NodeId,
        /// Window start sequence.
        start_seq: u16,
        /// Acknowledgement bitmap.
        bitmap: u64,
    },
    /// First AP → all other APs: replicate association state (§4.3).
    AssocSync {
        /// The newly associated client.
        client: NodeId,
        /// AP the client associated through.
        via_ap: NodeId,
    },
}

impl BackhaulMsg {
    /// The client a *control* message concerns (`None` for data, CSI,
    /// Block-ACK-forward and association-sync traffic). Control packets
    /// bypass data queues at the AP (§3.1.2), so `Some` is also what
    /// marks a message as control. Control loss and processing jitter
    /// are modelled per affected client so that one client's switch
    /// never perturbs another's random stream.
    pub fn control_client(&self) -> Option<NodeId> {
        match self {
            BackhaulMsg::Stop { client, .. }
            | BackhaulMsg::Start { client, .. }
            | BackhaulMsg::SwitchAck { client, .. } => Some(*client),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_classification() {
        let stop = BackhaulMsg::Stop {
            client: NodeId(1),
            next_ap: NodeId(2),
            switch_id: 0,
        };
        let start = BackhaulMsg::Start {
            client: NodeId(1),
            k: 5,
            switch_id: 0,
        };
        let ack = BackhaulMsg::SwitchAck {
            client: NodeId(1),
            ap: NodeId(2),
            switch_id: 0,
        };
        for control in [stop, start, ack] {
            assert_eq!(control.control_client(), Some(NodeId(1)));
        }
        let csi = BackhaulMsg::CsiReport {
            client: NodeId(1),
            ap: NodeId(2),
            esnr_db: 10.0,
            at: SimTime::ZERO,
        };
        assert_eq!(csi.control_client(), None);
    }
}
