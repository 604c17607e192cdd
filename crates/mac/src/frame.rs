//! MAC frame vocabulary shared by the medium, the APs, and the clients.
//!
//! The MAC layer does not carry real payload bytes: upper layers keep
//! packet identity through opaque [`PacketRef`] handles (id + length),
//! which is all the link layer needs to compute airtime, apply the error
//! model, and report delivery. The `wgtt-net` crate owns actual headers.

use crate::mcs::Mcs;

/// Identity of a radio node (AP or client) in a scenario. Dense small
/// integers; the scenario crate assigns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Opaque handle to an upper-layer packet: the id keys a packet store in
/// the scenario; the length drives airtime and error modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    /// Scenario-unique packet id.
    pub id: u64,
    /// Length on the wire, bytes.
    pub len: u16,
}

/// One MPDU inside an A-MPDU: a packet plus its 12-bit MAC sequence
/// number and retry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mpdu {
    /// 12-bit MAC sequence number (mod 4096).
    pub seq: u16,
    /// The upper-layer packet this MPDU carries.
    pub packet: PacketRef,
    /// How many times this MPDU has been (re)transmitted before.
    pub retries: u8,
}

impl Mpdu {
    /// A first transmission of packet `id`, `len` bytes on the wire.
    pub fn fresh(seq: u16, id: u64, len: u16) -> Self {
        Mpdu {
            seq,
            packet: PacketRef { id, len },
            retries: 0,
        }
    }
}

/// What kind of PHY transmission a [`Frame`] is.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameKind {
    /// Aggregated data frame (1..=64 MPDUs) expecting a Block ACK.
    Ampdu {
        /// The aggregated MPDUs in sequence order.
        mpdus: Vec<Mpdu>,
    },
    /// Block ACK response: window start + 64-bit bitmap.
    BlockAck {
        /// First sequence number the bitmap covers.
        start_seq: u16,
        /// Bit `i` acknowledges `start_seq + i` (mod 4096).
        bitmap: u64,
    },
    /// Client keepalive: a NULL-data frame whose decoding APs report CSI.
    Keepalive,
    /// AP beacon (baseline roaming discovers APs from these).
    Beacon,
    /// Management exchange frame ((re)association), payload-free in the
    /// model; `step` distinguishes the handshake step for the roamers.
    Mgmt {
        /// Which management step this is.
        step: MgmtStep,
    },
}

/// Management handshake steps used by association and fast roaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgmtStep {
    /// (Re)association request (client → AP).
    AssocReq,
    /// (Re)association response (AP → client).
    AssocResp,
}

/// A PHY-layer transmission on the shared medium.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Transmitting node.
    pub from: NodeId,
    /// Intended receiver. Other nodes may still overhear the frame —
    /// that is how WGTT's Block ACK forwarding works.
    pub to: NodeId,
    /// Payload class.
    pub kind: FrameKind,
    /// Modulation/coding the payload is sent at (control responses use
    /// robust basic rates internally; see `airtime`).
    pub mcs: Mcs,
}
