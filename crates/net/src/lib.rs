//! # wgtt-net — packet substrate and transport endpoints
//!
//! The layers the paper's testbed got for free from Linux and iperf3:
//!
//! * [`wire`] — byte-accurate wire formats (Ethernet II, IPv4 with the
//!   identification field WGTT's §3.2.2 de-duplication keys on, UDP, TCP,
//!   and the WGTT UDP/IP tunnel header), smoltcp-style checked
//!   parse/emit;
//! * [`packet`] — the in-simulation packet record each subsystem passes
//!   around (headers + length; payload bytes are synthesized only when a
//!   path actually serializes, e.g. the tunnel codec);
//! * [`tcp`] — a Reno TCP sender/receiver pair (slow start, congestion
//!   avoidance, fast retransmit/recovery, RFC 6298 RTO with Karn's rule),
//!   enough fidelity to reproduce the baseline's timeout collapse in the
//!   paper's Fig. 14 and the TCP rows of every table;
//! * [`traffic`] — constant-bit-rate UDP and bulk-transfer sources;
//! * [`flow`] — per-flow delivery accounting (goodput, datagram counts).

pub mod flow;
pub mod packet;
pub mod tcp;
pub mod traffic;
pub mod wire;

pub use packet::{FlowId, Packet, Transport};
