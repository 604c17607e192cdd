//! Addresses.
//!
//! The backhaul carries `wgtt::BackhaulMsg` values, never serialized
//! bytes, so the one wire type the model needs is the IPv4 address:
//! flows are addressed by it, and the controller de-duplicates uplink
//! packets on a 48-bit key built from the *source address* and the IPv4
//! identification field (paper §3.2.2, [`Packet::dedup_key`]).
//!
//! [`Packet::dedup_key`]: crate::packet::Packet::dedup_key

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
