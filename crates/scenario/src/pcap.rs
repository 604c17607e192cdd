//! libpcap capture of the WGTT backhaul.
//!
//! The controller↔AP data path rides UDP/IP tunnels on the Ethernet
//! backhaul (paper §3.1.3 downlink, §3.2.2 uplink). When capture is
//! enabled (see [`World::enable_backhaul_capture`]) the world hands every
//! backhaul message to [`PcapWriter::record_backhaul`], and each
//! tunnelled data packet is serialized with the real `wgtt-net` wire
//! formats — Ethernet II / IPv4 / UDP / WGTT shim / inner IPv4 — and
//! recorded as a classic pcap (linktype 1) that Wireshark opens directly, in the
//! spirit of smoltcp's `--pcap` example option.
//!
//! [`World::enable_backhaul_capture`]: crate::world::World::enable_backhaul_capture

use wgtt::messages::{BackhaulDest, BackhaulMsg};
use wgtt_net::wire::{
    EthernetHeader, IpProtocol, Ipv4Addr, Ipv4Header, MacAddr, TunnelHeader, TunnelKind, UdpHeader,
    ETHERNET_HEADER_LEN, ETHERTYPE_IPV4, IPV4_HEADER_LEN, TUNNEL_HEADER_LEN, UDP_HEADER_LEN,
};
use wgtt_net::Packet;
use wgtt_sim::time::SimTime;

/// UDP port the tunnel runs on (both directions).
pub const TUNNEL_PORT: u16 = 9000;

/// The controller's node number in the capture; APs are numbered by id.
const CONTROLLER_NODE: u8 = 0xFE;

/// Classic pcap writer (microsecond timestamps, linktype Ethernet).
#[derive(Debug, Default)]
pub struct PcapWriter {
    records: Vec<(SimTime, Vec<u8>)>,
    /// IP ident of the next recorded tunnel's outer header.
    ident: u16,
}

impl PcapWriter {
    /// An empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one frame.
    pub fn record(&mut self, at: SimTime, frame: Vec<u8>) {
        self.records.push((at, frame));
    }

    /// Record `msg`, sent toward `to` over the backhaul at `at`, if it is
    /// a data tunnel; control and CSI messages are not captured.
    pub fn record_backhaul(&mut self, at: SimTime, to: &BackhaulDest, msg: &BackhaulMsg) {
        let dst = match to {
            BackhaulDest::Controller => CONTROLLER_NODE,
            BackhaulDest::Ap(id) => id.0 as u8,
        };
        let (src, kind, client, index, inner) = match msg {
            BackhaulMsg::DownlinkData {
                client,
                index,
                packet,
            } => (
                CONTROLLER_NODE,
                TunnelKind::Downlink,
                client.0,
                *index,
                packet,
            ),
            BackhaulMsg::UplinkData { ap, packet } => {
                (ap.0 as u8, TunnelKind::Uplink, packet.flow.0, 0, packet)
            }
            _ => return,
        };
        let ident = self.ident;
        self.ident = self.ident.wrapping_add(1);
        self.record(
            at,
            encode_tunnel_frame(src, dst, ident, kind, client, index, inner),
        );
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize the whole capture as a pcap byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.records.len() * 64);
        // Global header.
        out.extend_from_slice(&0xa1b2_c3d4u32.to_le_bytes()); // magic
        out.extend_from_slice(&2u16.to_le_bytes()); // major
        out.extend_from_slice(&4u16.to_le_bytes()); // minor
        out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
        out.extend_from_slice(&1u32.to_le_bytes()); // linktype: Ethernet
        for (at, frame) in &self.records {
            let ns = at.as_nanos();
            out.extend_from_slice(&((ns / 1_000_000_000) as u32).to_le_bytes());
            out.extend_from_slice(&(((ns % 1_000_000_000) / 1_000) as u32).to_le_bytes());
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(frame);
        }
        out
    }
}

/// Deterministic backhaul MAC address for a node id (controller = 0xFE).
pub fn backhaul_mac(id: u8) -> MacAddr {
    MacAddr([0x02, 0x57, 0x47, 0x54, 0x54, id])
}

/// Deterministic backhaul IPv4 address for a node id.
pub fn backhaul_ip(id: u8) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 0, id)
}

/// Serialize one tunnelled data packet exactly as it crosses the
/// Ethernet backhaul: outer Ethernet/IPv4/UDP, the WGTT shim, and the
/// inner packet's IPv4 header (payload bytes zeroed — the simulation
/// tracks lengths, not contents).
pub fn encode_tunnel_frame(
    src_node: u8,
    dst_node: u8,
    ident: u16,
    kind: TunnelKind,
    client_id: u32,
    index: u16,
    inner: &Packet,
) -> Vec<u8> {
    let inner_len = inner.len.max(IPV4_HEADER_LEN as u16) as usize;
    let total =
        ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + TUNNEL_HEADER_LEN + inner_len;
    let mut buf = vec![0u8; total];
    EthernetHeader {
        dst: backhaul_mac(dst_node),
        src: backhaul_mac(src_node),
        ethertype: ETHERTYPE_IPV4,
    }
    .emit(&mut buf)
    .expect("buffer sized for headers");
    Ipv4Header {
        src: backhaul_ip(src_node),
        dst: backhaul_ip(dst_node),
        ident,
        ttl: 64,
        protocol: IpProtocol::Udp,
        payload_len: (UDP_HEADER_LEN + TUNNEL_HEADER_LEN + inner_len) as u16,
    }
    .emit(&mut buf[ETHERNET_HEADER_LEN..])
    .expect("buffer sized for headers");
    UdpHeader {
        src_port: TUNNEL_PORT,
        dst_port: TUNNEL_PORT,
        payload_len: (TUNNEL_HEADER_LEN + inner_len) as u16,
    }
    .emit(&mut buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..])
    .expect("buffer sized for headers");
    TunnelHeader {
        client_id,
        index,
        kind,
    }
    .emit(&mut buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN..])
    .expect("buffer sized for headers");
    inner
        .ip_header()
        .emit(
            &mut buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + TUNNEL_HEADER_LEN..],
        )
        .expect("buffer sized for headers");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_net::packet::{FlowId, PacketFactory};

    fn sample_packet() -> Packet {
        let mut f = PacketFactory::new();
        f.udp(
            FlowId(0),
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(172, 16, 0, 100),
            0,
            1500,
            SimTime::ZERO,
        )
    }

    #[test]
    fn pcap_stream_has_valid_headers() {
        let mut w = PcapWriter::new();
        let frame =
            encode_tunnel_frame(0xFE, 1, 7, TunnelKind::Downlink, 100, 42, &sample_packet());
        w.record(SimTime::from_millis(1_234), frame.clone());
        let bytes = w.to_bytes();
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(u32::from_le_bytes(bytes[20..24].try_into().unwrap()), 1);
        // Record header: ts 1.234000, lengths match.
        assert_eq!(u32::from_le_bytes(bytes[24..28].try_into().unwrap()), 1);
        assert_eq!(
            u32::from_le_bytes(bytes[28..32].try_into().unwrap()),
            234_000
        );
        let incl = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        assert_eq!(incl, frame.len());
        assert_eq!(bytes.len(), 24 + 16 + frame.len());
    }

    #[test]
    fn tunnel_frame_parses_back() {
        let inner = sample_packet();
        let frame = encode_tunnel_frame(3, 0xFE, 9, TunnelKind::Uplink, 100, 0, &inner);
        let eth = EthernetHeader::parse(&frame).unwrap();
        assert_eq!(eth.ethertype, ETHERTYPE_IPV4);
        assert_eq!(eth.src, backhaul_mac(3));
        let ip = Ipv4Header::parse(&frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(ip.src, backhaul_ip(3));
        assert_eq!(ip.protocol, IpProtocol::Udp);
        let udp = UdpHeader::parse(&frame[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..]).unwrap();
        assert_eq!(udp.dst_port, TUNNEL_PORT);
        let shim =
            TunnelHeader::parse(&frame[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN..])
                .unwrap();
        assert_eq!(shim.kind, TunnelKind::Uplink);
        assert_eq!(shim.client_id, 100);
        let iip = Ipv4Header::parse(
            &frame[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + TUNNEL_HEADER_LEN..],
        )
        .unwrap();
        assert_eq!(iip.dedup_key(), inner.dedup_key());
    }

    #[test]
    fn empty_capture_is_just_the_global_header() {
        let w = PcapWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.to_bytes().len(), 24);
    }
}
