//! The in-simulation packet record.
//!
//! Subsystems pass [`Packet`]s by value; payload bytes are never
//! materialized on the fast path (lengths drive airtime and queue
//! accounting), but the header fields are real — in particular the IPv4
//! identification field that feeds WGTT's uplink de-duplication, and the
//! transport sequence numbers that the flow metrics and TCP endpoints
//! track.

use crate::wire::Ipv4Addr;
use wgtt_sim::hash::FastMap;
use wgtt_sim::time::SimTime;

/// Identity of an end-to-end flow in a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// Transport-layer content of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// UDP datagram carrying an application sequence number (what iperf3
    /// embeds and Fig. 4 plots).
    Udp {
        /// Application-level sequence number.
        seq: u32,
    },
    /// TCP segment.
    Tcp {
        /// First payload byte's sequence number.
        seq: u32,
        /// Payload bytes (0 for a pure ACK).
        payload: u32,
        /// Cumulative acknowledgement number.
        ack_no: u32,
        /// ACK flag.
        is_ack: bool,
    },
}

/// One packet in flight somewhere in the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Scenario-unique id (keys packet stores and the MAC layer's
    /// `PacketRef` handles).
    pub id: u64,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// IPv4 identification (unique per packet from a source — WGTT's
    /// dedup key material).
    pub ip_ident: u16,
    /// Transport content.
    pub transport: Transport,
    /// Total on-wire length including IP header, bytes.
    pub len: u16,
    /// When the packet was created at its source.
    pub created: SimTime,
}

impl Packet {
    /// The 48-bit de-duplication key the controller uses (paper §3.2.2):
    /// source address (32 bits) + IP identification (16 bits).
    pub fn dedup_key(&self) -> u64 {
        (u64::from(self.src.0) << 16) | u64::from(self.ip_ident)
    }
}

/// Allocates scenario-unique packet ids and per-source IP identification
/// values.
#[derive(Debug, Default)]
pub struct PacketFactory {
    next_id: u64,
    next_ident: FastMap<Ipv4Addr, u16>,
}

impl PacketFactory {
    /// A fresh factory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next packet id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Allocate the next IP identification for `src` (wraps at 2¹⁶ like a
    /// real stack's per-socket counter).
    pub fn next_ident(&mut self, src: Ipv4Addr) -> u16 {
        let e = self.next_ident.entry(src).or_insert(0);
        let v = *e;
        *e = e.wrapping_add(1);
        v
    }

    /// Build a UDP data packet.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        &mut self,
        flow: FlowId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        seq: u32,
        len: u16,
        now: SimTime,
    ) -> Packet {
        Packet {
            id: self.next_id(),
            flow,
            src,
            dst,
            ip_ident: self.next_ident(src),
            transport: Transport::Udp { seq },
            len,
            created: now,
        }
    }

    /// Build a TCP segment (data and/or ACK).
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        &mut self,
        flow: FlowId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        seq: u32,
        payload: u32,
        ack_no: u32,
        is_ack: bool,
        now: SimTime,
    ) -> Packet {
        // 20 B IP + 20 B TCP + payload.
        let len = (40 + payload) as u16;
        Packet {
            id: self.next_id(),
            flow,
            src,
            dst,
            ip_ident: self.next_ident(src),
            transport: Transport::Tcp {
                seq,
                payload,
                ack_no,
                is_ack,
            },
            len,
            created: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn ids_are_unique_and_sequential() {
        let mut f = PacketFactory::new();
        let a = f.udp(FlowId(0), addr(1), addr(2), 0, 1500, SimTime::ZERO);
        let b = f.udp(FlowId(0), addr(1), addr(2), 1, 1500, SimTime::ZERO);
        assert_ne!(a.id, b.id);
        assert_eq!(b.id, a.id + 1);
    }

    #[test]
    fn idents_are_per_source() {
        let mut f = PacketFactory::new();
        let a1 = f.udp(FlowId(0), addr(1), addr(9), 0, 100, SimTime::ZERO);
        let b1 = f.udp(FlowId(1), addr(2), addr(9), 0, 100, SimTime::ZERO);
        let a2 = f.udp(FlowId(0), addr(1), addr(9), 1, 100, SimTime::ZERO);
        assert_eq!(a1.ip_ident, 0);
        assert_eq!(b1.ip_ident, 0);
        assert_eq!(a2.ip_ident, 1);
    }

    #[test]
    fn dedup_key_distinguishes_sources_and_packets() {
        let mut f = PacketFactory::new();
        let a = f.udp(FlowId(0), addr(1), addr(9), 0, 100, SimTime::ZERO);
        let b = f.udp(FlowId(1), addr(2), addr(9), 0, 100, SimTime::ZERO);
        let a2 = f.udp(FlowId(0), addr(1), addr(9), 1, 100, SimTime::ZERO);
        assert_ne!(a.dedup_key(), b.dedup_key());
        assert_ne!(a.dedup_key(), a2.dedup_key());
        // A *copy* of the same packet has the same key — that is the point.
        assert_eq!(a.dedup_key(), a.dedup_key());
    }

    #[test]
    fn dedup_key_layout() {
        let mut f = PacketFactory::new();
        let src = Ipv4Addr::new(1, 2, 3, 4);
        f.next_ident.insert(src, 0xABCD);
        let p = f.udp(FlowId(0), src, addr(9), 0, 1200, SimTime::ZERO);
        assert_eq!(p.dedup_key(), 0x0102_0304_ABCD);
        // The paper's key is 48 bits: address, then identification.
        assert!(p.dedup_key() < (1u64 << 48));
    }

    #[test]
    fn tcp_len_includes_headers() {
        let mut f = PacketFactory::new();
        let seg = f.tcp(
            FlowId(0),
            addr(1),
            addr(2),
            0,
            1448,
            0,
            false,
            SimTime::ZERO,
        );
        assert_eq!(seg.len, 1488);
        let ack = f.tcp(FlowId(0), addr(2), addr(1), 0, 0, 1448, true, SimTime::ZERO);
        assert_eq!(ack.len, 40);
    }

    #[test]
    fn ident_wraps() {
        let mut f = PacketFactory::new();
        f.next_ident.insert(addr(1), u16::MAX);
        assert_eq!(f.next_ident(addr(1)), u16::MAX);
        assert_eq!(f.next_ident(addr(1)), 0);
    }
}
