//! Per-flow delivery accounting.
//!
//! Receiver-side bookkeeping behind the paper's figures: datagram counts
//! for UDP loss (Figs. 4, 18) and goodput over time (Figs. 13–15).

use crate::packet::{Packet, Transport};
use wgtt_sim::metrics::ThroughputMeter;
use wgtt_sim::time::SimTime;

/// Receiver-side statistics for one UDP flow.
#[derive(Debug, Default)]
pub struct UdpFlowSink {
    /// Delivered-bytes meter (drives throughput curves).
    pub meter: ThroughputMeter,
    received: u64,
}

impl UdpFlowSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the arrival of `pkt` at `now`. De-duplication is the
    /// caller's layer (the MAC receive window, the controller); every
    /// arrival counts.
    pub fn on_packet(&mut self, pkt: &Packet, now: SimTime) {
        let Transport::Udp { .. } = pkt.transport else {
            panic!("UdpFlowSink fed a non-UDP packet");
        };
        self.received += 1;
        self.meter.record(now, u64::from(pkt.len));
    }

    /// Packets received.
    pub fn received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketFactory};
    use crate::wire::Ipv4Addr;

    fn mk(seq: u32, f: &mut PacketFactory) -> Packet {
        f.udp(
            FlowId(0),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            seq,
            1500,
            SimTime::ZERO,
        )
    }

    #[test]
    fn counts_and_loss() {
        let mut f = PacketFactory::new();
        let mut sink = UdpFlowSink::new();
        for seq in [0u32, 1, 3, 4] {
            sink.on_packet(&mk(seq, &mut f), SimTime::from_millis(seq as u64));
        }
        // 5 sent (0..=4), 4 received: the 20 % loss a report's reader
        // takes from this count and the source's.
        assert_eq!(sink.received(), 4);
        assert_eq!(sink.meter.total_bytes(), 4 * 1500);
    }
}
