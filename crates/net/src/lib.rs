//! # wgtt-net — packet substrate and transport endpoints
//!
//! The layers the paper's testbed got for free from Linux and iperf3:
//!
//! * [`wire`] — the IPv4 address (the backhaul carries typed messages,
//!   not bytes, so no header is ever serialized);
//! * [`packet`] — the in-simulation packet record each subsystem passes
//!   around (header fields + length, never payload bytes), with the
//!   48-bit source-address + IPv4-identification key WGTT's §3.2.2
//!   de-duplication uses;
//! * [`tcp`] — a Reno TCP sender/receiver pair (slow start, congestion
//!   avoidance, fast retransmit/recovery, RFC 6298 RTO with Karn's rule),
//!   enough fidelity to reproduce the baseline's timeout collapse in the
//!   paper's Fig. 14 and the TCP rows of every table;
//! * [`traffic`] — the constant-bit-rate UDP source.

pub mod packet;
pub mod tcp;
pub mod traffic;
pub mod wire;

pub use packet::{FlowId, Packet, Transport};
