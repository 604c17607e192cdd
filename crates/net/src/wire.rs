//! Byte-accurate wire formats.
//!
//! WGTT moves packets between controller and APs inside UDP/IP tunnels
//! (paper §3.1.3 downlink, §3.2.2 uplink), and the controller
//! de-duplicates uplink packets on a 48-bit key built from the *source IP
//! address* and the *IPv4 identification field*. Getting those mechanisms
//! right means owning the headers, so this module implements checked
//! parse/emit for Ethernet II, IPv4, UDP, and the WGTT tunnel header,
//! in the style of smoltcp's `wire` layer: plain functions over byte
//! slices, no allocation surprises, errors for every malformed input.

/// Errors a parser can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// A length field disagrees with the buffer.
    BadLength,
    /// Checksum verification failed.
    BadChecksum,
    /// Unsupported version or header format.
    Malformed,
}

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

/// An IPv4 address (wrapped `u32`, network byte order semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four octets.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// IP protocol numbers used in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProtocol {
    /// The assigned protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
        }
    }

    /// Parse a protocol number.
    pub fn from_number(n: u8) -> Result<Self, WireError> {
        match n {
            6 => Ok(IpProtocol::Tcp),
            17 => Ok(IpProtocol::Udp),
            _ => Err(WireError::Malformed),
        }
    }
}

/// The Internet checksum (RFC 1071) over `data`.
///
/// ```
/// use wgtt_net::wire::{internet_checksum, Ipv4Addr, Ipv4Header, IpProtocol};
/// let h = Ipv4Header {
///     src: Ipv4Addr::new(10, 0, 0, 1), dst: Ipv4Addr::new(10, 0, 0, 2),
///     ident: 1, ttl: 64, protocol: IpProtocol::Udp, payload_len: 0,
/// };
/// let mut buf = [0u8; 20];
/// h.emit(&mut buf).unwrap();
/// assert_eq!(internet_checksum(&buf), 0); // a valid header sums to zero
/// ```
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

// ---------------------------------------------------------------- Ethernet

/// Ethernet II header (14 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType (0x0800 = IPv4).
    pub ethertype: u16,
}

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// Ethernet II header length.
pub const ETHERNET_HEADER_LEN: usize = 14;

impl EthernetHeader {
    /// Serialize into the first 14 bytes of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<(), WireError> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        buf[0..6].copy_from_slice(&self.dst.0);
        buf[6..12].copy_from_slice(&self.src.0);
        buf[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
        Ok(())
    }

    /// Parse from the first 14 bytes of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(EthernetHeader {
            dst: MacAddr(buf[0..6].try_into().expect("slice length checked")),
            src: MacAddr(buf[6..12].try_into().expect("slice length checked")),
            ethertype: u16::from_be_bytes([buf[12], buf[13]]),
        })
    }
}

// -------------------------------------------------------------------- IPv4

/// IPv4 header (20 bytes; options are not modelled, as in smoltcp they
/// would be silently ignored anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Identification field — half of WGTT's de-duplication key.
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Payload length in bytes (total length − 20).
    pub payload_len: u16,
}

/// IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;

impl Ipv4Header {
    /// Serialize into the first 20 bytes of `buf`, computing the header
    /// checksum.
    pub fn emit(&self, buf: &mut [u8]) -> Result<(), WireError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let total_len = self.payload_len as usize + IPV4_HEADER_LEN;
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = 0; // DSCP/ECN
        buf[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]); // flags/fragment
        buf[8] = self.ttl;
        buf[9] = self.protocol.number();
        buf[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&buf[0..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&csum.to_be_bytes());
        Ok(())
    }

    /// Parse and verify the first 20 bytes of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] != 0x45 {
            return Err(WireError::Malformed);
        }
        if internet_checksum(&buf[0..IPV4_HEADER_LEN]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total_len < IPV4_HEADER_LEN || total_len > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(Ipv4Header {
            src: Ipv4Addr(u32::from_be_bytes(
                buf[12..16].try_into().expect("slice length checked"),
            )),
            dst: Ipv4Addr(u32::from_be_bytes(
                buf[16..20].try_into().expect("slice length checked"),
            )),
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            protocol: IpProtocol::from_number(buf[9])?,
            payload_len: (total_len - IPV4_HEADER_LEN) as u16,
        })
    }

    /// WGTT's 48-bit uplink de-duplication key: source address (32 bits)
    /// concatenated with the identification field (16 bits) — paper
    /// §3.2.2.
    pub fn dedup_key(&self) -> u64 {
        (u64::from(self.src.0) << 16) | u64::from(self.ident)
    }
}

// --------------------------------------------------------------------- UDP

/// UDP header (8 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length (excluding this header).
    pub payload_len: u16,
}

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

impl UdpHeader {
    /// Serialize into the first 8 bytes of `buf` (checksum left 0 =
    /// "not computed", legal in IPv4 and what the tunnel uses).
    pub fn emit(&self, buf: &mut [u8]) -> Result<(), WireError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        let len = self.payload_len as usize + UDP_HEADER_LEN;
        buf[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]);
        Ok(())
    }

    /// Parse from the first 8 bytes of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if len < UDP_HEADER_LEN || len > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload_len: (len - UDP_HEADER_LEN) as u16,
        })
    }
}

// ----------------------------------------------------------- WGTT tunnel

/// The WGTT backhaul tunnel header: the original client packet is carried
/// whole inside a UDP/IP packet addressed to the AP (downlink, §3.1.3) or
/// the controller (uplink, §3.2.2). Alongside the outer headers WGTT
/// needs the per-client 12-bit cyclic index (downlink) and the receiving
/// AP's identity (uplink); both ride in this 8-byte shim after the outer
/// UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunnelHeader {
    /// Client this packet belongs to (scenario node id).
    pub client_id: u32,
    /// Downlink: the cyclic-queue index assigned by the controller.
    /// Uplink: the id of the AP that overheard the packet.
    pub index: u16,
    /// Discriminates downlink data / uplink data / CSI report payloads.
    pub kind: TunnelKind,
}

/// Payload classes carried over the backhaul tunnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelKind {
    /// Controller → AP data fan-out.
    Downlink,
    /// AP → controller overheard uplink packet.
    Uplink,
    /// AP → controller CSI report.
    CsiReport,
}

/// Tunnel shim length.
pub const TUNNEL_HEADER_LEN: usize = 8;

impl TunnelHeader {
    /// Serialize into the first 8 bytes of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<(), WireError> {
        if buf.len() < TUNNEL_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        buf[0..4].copy_from_slice(&self.client_id.to_be_bytes());
        buf[4..6].copy_from_slice(&self.index.to_be_bytes());
        buf[6] = match self.kind {
            TunnelKind::Downlink => 0,
            TunnelKind::Uplink => 1,
            TunnelKind::CsiReport => 2,
        };
        buf[7] = 0; // reserved
        Ok(())
    }

    /// Parse from the first 8 bytes of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < TUNNEL_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let kind = match buf[6] {
            0 => TunnelKind::Downlink,
            1 => TunnelKind::Uplink,
            2 => TunnelKind::CsiReport,
            _ => return Err(WireError::Malformed),
        };
        Ok(TunnelHeader {
            client_id: u32::from_be_bytes(buf[0..4].try_into().expect("slice length checked")),
            index: u16::from_be_bytes([buf[4], buf[5]]),
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checksum_of_zeroes_is_ffff() {
        assert_eq!(internet_checksum(&[0u8; 20]), 0xFFFF);
    }

    #[test]
    fn checksum_rfc1071_example() {
        // RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7 → sum ddf2,
        // checksum = !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_odd_length_pads() {
        let even = internet_checksum(&[0xAB, 0x00]);
        let odd = internet_checksum(&[0xAB]);
        assert_eq!(even, odd);
    }

    #[test]
    fn ethernet_roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr([1, 2, 3, 4, 5, 6]),
            src: MacAddr([7, 8, 9, 10, 11, 12]),
            ethertype: ETHERTYPE_IPV4,
        };
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let h = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 17),
            ident: 0xBEEF,
            ttl: 64,
            protocol: IpProtocol::Udp,
            payload_len: 100,
        };
        let mut buf = vec![0u8; 120];
        h.emit(&mut buf).unwrap();
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        // Header sums to zero under its own checksum.
        assert_eq!(internet_checksum(&buf[0..IPV4_HEADER_LEN]), 0);
    }

    #[test]
    fn ipv4_detects_corruption() {
        let h = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            ident: 7,
            ttl: 64,
            protocol: IpProtocol::Tcp,
            payload_len: 0,
        };
        let mut buf = vec![0u8; IPV4_HEADER_LEN];
        h.emit(&mut buf).unwrap();
        buf[15] ^= 0x40; // flip a source-address bit
        assert_eq!(Ipv4Header::parse(&buf), Err(WireError::BadChecksum));
    }

    #[test]
    fn ipv4_rejects_short_and_bad_version() {
        assert_eq!(Ipv4Header::parse(&[0u8; 10]), Err(WireError::Truncated));
        let mut buf = vec![0u8; IPV4_HEADER_LEN];
        buf[0] = 0x65; // IPv6 version nibble
        assert_eq!(Ipv4Header::parse(&buf), Err(WireError::Malformed));
    }

    #[test]
    fn dedup_key_layout() {
        let h = Ipv4Header {
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(9, 9, 9, 9),
            ident: 0xABCD,
            ttl: 64,
            protocol: IpProtocol::Udp,
            payload_len: 0,
        };
        assert_eq!(h.dedup_key(), 0x0102_0304_ABCD);
        // Key must fit 48 bits.
        assert!(h.dedup_key() < (1u64 << 48));
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader {
            src_port: 5001,
            dst_port: 443,
            payload_len: 1400,
        };
        let mut buf = vec![0u8; 1408];
        h.emit(&mut buf).unwrap();
        assert_eq!(UdpHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn udp_bad_length_detected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
            payload_len: 100,
        };
        let mut buf = vec![0u8; UDP_HEADER_LEN];
        h.emit(&mut buf).unwrap(); // claims 108 bytes but buffer is 8
        assert_eq!(UdpHeader::parse(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn tunnel_roundtrip_all_kinds() {
        for kind in [
            TunnelKind::Downlink,
            TunnelKind::Uplink,
            TunnelKind::CsiReport,
        ] {
            let h = TunnelHeader {
                client_id: 3,
                index: 4095,
                kind,
            };
            let mut buf = [0u8; TUNNEL_HEADER_LEN];
            h.emit(&mut buf).unwrap();
            assert_eq!(TunnelHeader::parse(&buf).unwrap(), h);
        }
    }

    #[test]
    fn tunnel_rejects_unknown_kind() {
        let mut buf = [0u8; TUNNEL_HEADER_LEN];
        buf[6] = 9;
        assert_eq!(TunnelHeader::parse(&buf), Err(WireError::Malformed));
    }

    #[test]
    fn full_tunnel_stack_composes() {
        // Outer IP/UDP + tunnel shim + inner IP header, as on the backhaul.
        let inner = Ipv4Header {
            src: Ipv4Addr::new(172, 16, 0, 5), // client
            dst: Ipv4Addr::new(8, 8, 8, 8),
            ident: 42,
            ttl: 64,
            protocol: IpProtocol::Udp,
            payload_len: 1000,
        };
        let shim = TunnelHeader {
            client_id: 1,
            index: 17,
            kind: TunnelKind::Uplink,
        };
        let outer_udp = UdpHeader {
            src_port: 9000,
            dst_port: 9000,
            payload_len: (TUNNEL_HEADER_LEN + IPV4_HEADER_LEN + 1000) as u16,
        };
        let outer_ip = Ipv4Header {
            src: Ipv4Addr::new(192, 168, 0, 11), // AP
            dst: Ipv4Addr::new(192, 168, 0, 1),  // controller
            ident: 1,
            ttl: 64,
            protocol: IpProtocol::Udp,
            payload_len: (UDP_HEADER_LEN + TUNNEL_HEADER_LEN + IPV4_HEADER_LEN + 1000) as u16,
        };
        let mut buf =
            vec![
                0u8;
                IPV4_HEADER_LEN + UDP_HEADER_LEN + TUNNEL_HEADER_LEN + IPV4_HEADER_LEN + 1000
            ];
        outer_ip.emit(&mut buf).unwrap();
        outer_udp.emit(&mut buf[IPV4_HEADER_LEN..]).unwrap();
        shim.emit(&mut buf[IPV4_HEADER_LEN + UDP_HEADER_LEN..])
            .unwrap();
        inner
            .emit(&mut buf[IPV4_HEADER_LEN + UDP_HEADER_LEN + TUNNEL_HEADER_LEN..])
            .unwrap();

        // Controller-side decode.
        let oip = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(oip.protocol, IpProtocol::Udp);
        let oudp = UdpHeader::parse(&buf[IPV4_HEADER_LEN..]).unwrap();
        assert_eq!(oudp.dst_port, 9000);
        let sh = TunnelHeader::parse(&buf[IPV4_HEADER_LEN + UDP_HEADER_LEN..]).unwrap();
        assert_eq!(sh.kind, TunnelKind::Uplink);
        let iip = Ipv4Header::parse(&buf[IPV4_HEADER_LEN + UDP_HEADER_LEN + TUNNEL_HEADER_LEN..])
            .unwrap();
        assert_eq!(iip.dedup_key(), inner.dedup_key());
    }

    proptest! {
        #[test]
        fn ipv4_roundtrip_any(
            src in any::<u32>(), dst in any::<u32>(), ident in any::<u16>(),
            ttl in 1u8..=255, udp in any::<bool>(), payload_len in 0u16..1400
        ) {
            let h = Ipv4Header {
                src: Ipv4Addr(src),
                dst: Ipv4Addr(dst),
                ident,
                ttl,
                protocol: if udp { IpProtocol::Udp } else { IpProtocol::Tcp },
                payload_len,
            };
            let mut buf = vec![0u8; IPV4_HEADER_LEN + payload_len as usize];
            h.emit(&mut buf).unwrap();
            prop_assert_eq!(Ipv4Header::parse(&buf).unwrap(), h);
        }

        #[test]
        fn parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = EthernetHeader::parse(&bytes);
            let _ = Ipv4Header::parse(&bytes);
            let _ = UdpHeader::parse(&bytes);
            let _ = TunnelHeader::parse(&bytes);
        }
    }
}
