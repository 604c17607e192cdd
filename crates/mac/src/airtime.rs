//! Microsecond-accurate airtime accounting.
//!
//! Frame aggregation exists because per-frame overhead (preamble, IFS,
//! acknowledgement) is fixed while data airtime shrinks as rates grow
//! (paper §1). Reproducing WGTT's throughput numbers therefore hinges on
//! charging that overhead faithfully: an unaggregated 1500-byte frame at
//! MCS7 is ≈ 36 µs of preamble for ≈ 166 µs of data, while a 32-MPDU
//! A-MPDU amortizes one preamble and one Block ACK over 48 kB.

use crate::frame::{Frame, FrameKind};
use wgtt_sim::time::SimDuration;

/// Backoff slot time (2.4 GHz OFDM), µs.
pub const SLOT_US: u64 = 9;
/// Short interframe space, µs.
pub const SIFS_US: u64 = 10;
/// DCF interframe space = SIFS + 2·slot, µs.
pub const DIFS_US: u64 = SIFS_US + 2 * SLOT_US;
/// HT mixed-mode PHY preamble + PLCP header for one spatial stream, µs.
pub const HT_PREAMBLE_US: u64 = 36;
/// Legacy (non-HT) preamble for control/management frames, µs.
pub const LEGACY_PREAMBLE_US: u64 = 20;
/// Basic rate used for control and management bodies, Mbit/s.
pub const BASIC_RATE_MBPS: f64 = 24.0;
/// Beacon body size, bytes (SSID, rates, HT caps, vendor IEs).
pub const BEACON_BODY_BYTES: u32 = 250;
/// Compressed Block ACK frame size, bytes.
pub const BLOCK_ACK_BYTES: u32 = 32;
/// Management frame body size ((re)association), bytes.
pub const MGMT_BODY_BYTES: u32 = 120;
/// Per-MPDU A-MPDU delimiter + padding overhead, bytes.
pub const MPDU_DELIMITER_BYTES: u32 = 8;
/// Keepalive (NULL-data) frame body size, bytes.
pub const KEEPALIVE_BYTES: u32 = 40;
/// MAC header + FCS per MPDU, bytes.
pub const MAC_HEADER_BYTES: u32 = 34;
/// Minimum contention window (CWmin), slots.
pub const CW_MIN: u32 = 15;
/// Maximum contention window (CWmax), slots.
pub const CW_MAX: u32 = 1023;

/// Airtime of `bytes` of payload at `rate_mbps`, rounded up to whole µs.
fn body_airtime_us(bytes: u32, rate_mbps: f64) -> u64 {
    ((bytes as f64 * 8.0 / rate_mbps).ceil() as u64).max(1)
}

/// On-air duration of a frame's PPDU (preamble + body), excluding IFS and
/// any acknowledgement that follows.
pub fn frame_airtime(frame: &Frame) -> SimDuration {
    let us = match &frame.kind {
        FrameKind::Ampdu { mpdus } => {
            let bytes: u32 = mpdus
                .iter()
                .map(|m| m.packet.len as u32 + MAC_HEADER_BYTES + MPDU_DELIMITER_BYTES)
                .sum();
            HT_PREAMBLE_US + body_airtime_us(bytes, frame.mcs.rate_mbps())
        }
        FrameKind::Keepalive => {
            HT_PREAMBLE_US
                + body_airtime_us(KEEPALIVE_BYTES + MAC_HEADER_BYTES, frame.mcs.rate_mbps())
        }
        FrameKind::BlockAck { .. } => {
            LEGACY_PREAMBLE_US + body_airtime_us(BLOCK_ACK_BYTES, BASIC_RATE_MBPS)
        }
        FrameKind::Beacon => {
            LEGACY_PREAMBLE_US + body_airtime_us(BEACON_BODY_BYTES, BASIC_RATE_MBPS)
        }
        FrameKind::Mgmt { .. } => {
            LEGACY_PREAMBLE_US + body_airtime_us(MGMT_BODY_BYTES, BASIC_RATE_MBPS)
        }
    };
    SimDuration::from_micros(us)
}

/// Contention window size (slots) after `retries` consecutive failures:
/// binary exponential backoff clamped to CWmax.
pub fn contention_window(retries: u8) -> u32 {
    let cw = (CW_MIN + 1) << retries.min(6);
    (cw - 1).min(CW_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Mpdu, NodeId, PacketRef};
    use crate::mcs::Mcs;

    fn ampdu_of(n: usize, len: u16, mcs: Mcs) -> Frame {
        Frame {
            from: NodeId(0),
            to: NodeId(1),
            kind: FrameKind::Ampdu {
                mpdus: (0..n)
                    .map(|i| Mpdu {
                        seq: i as u16,
                        packet: PacketRef { id: i as u64, len },
                        retries: 0,
                    })
                    .collect(),
            },
            mcs,
        }
    }

    fn block_ack() -> Frame {
        Frame {
            from: NodeId(0),
            to: NodeId(1),
            kind: FrameKind::BlockAck {
                start_seq: 0,
                bitmap: 0,
            },
            mcs: Mcs::Mcs0,
        }
    }

    /// The channel time an A-MPDU's exchange holds: the PPDU, SIFS, then
    /// the Block ACK.
    fn exchange(ampdu: &Frame) -> SimDuration {
        frame_airtime(ampdu) + SimDuration::from_micros(SIFS_US) + frame_airtime(&block_ack())
    }

    #[test]
    fn aggregation_amortizes_overhead() {
        // Per-packet airtime of a 32-MPDU aggregate must be far below that
        // of 32 singleton frames — the reason aggregation exists.
        let one = exchange(&ampdu_of(1, 1500, Mcs::Mcs7));
        let many = exchange(&ampdu_of(32, 1500, Mcs::Mcs7));
        let per_packet_single = one.as_micros_f64();
        let per_packet_agg = many.as_micros_f64() / 32.0;
        assert!(
            per_packet_agg < per_packet_single * 0.75,
            "agg {per_packet_agg} µs/pkt vs single {per_packet_single} µs/pkt"
        );
    }

    #[test]
    fn higher_mcs_is_faster() {
        let slow = frame_airtime(&ampdu_of(8, 1500, Mcs::Mcs0));
        let fast = frame_airtime(&ampdu_of(8, 1500, Mcs::Mcs7));
        assert!(fast < slow);
        // Roughly the rate ratio (preamble dilutes it slightly).
        let ratio = slow.as_micros_f64() / fast.as_micros_f64();
        assert!(ratio > 6.0, "ratio = {ratio}");
    }

    #[test]
    fn mcs7_goodput_bound_is_realistic() {
        // 32 aggregated 1500 B MPDUs at MCS7, including Block ACK exchange
        // and DIFS, should land in the 55–68 Mbit/s goodput range — the
        // familiar UDP ceiling of 20 MHz 802.11n.
        let f = ampdu_of(32, 1500, Mcs::Mcs7);
        let total = exchange(&f)
            + SimDuration::from_micros(DIFS_US)
            + SimDuration::from_micros(SLOT_US * (CW_MIN as u64) / 2);
        let goodput = 32.0 * 1500.0 * 8.0 / total.as_secs_f64() / 1e6;
        assert!(
            (55.0..70.0).contains(&goodput),
            "MCS7 aggregated goodput = {goodput} Mbit/s"
        );
    }

    #[test]
    fn block_ack_airtime_is_tens_of_us() {
        let t = frame_airtime(&block_ack()).as_micros_f64();
        assert!((20.0..60.0).contains(&t), "BA airtime {t} µs");
    }

    #[test]
    fn beacon_airtime_reasonable() {
        let f = Frame {
            from: NodeId(0),
            to: NodeId(1),
            kind: FrameKind::Beacon,
            mcs: Mcs::Mcs0,
        };
        let t = frame_airtime(&f).as_micros_f64();
        assert!((50.0..300.0).contains(&t), "beacon airtime {t} µs");
    }

    #[test]
    fn keepalive_airtime_is_a_40_byte_null_data_frame_at_mcs0() {
        let f = Frame {
            from: NodeId(100),
            to: NodeId(0),
            kind: FrameKind::Keepalive,
            mcs: Mcs::Mcs0,
        };
        // HT preamble + ⌈(40 + 34) B · 8 / 7.2 Mbit/s⌉ = 36 + 83 µs.
        assert_eq!(frame_airtime(&f), SimDuration::from_micros(119));
    }

    #[test]
    fn backoff_grows_then_clamps() {
        assert_eq!(contention_window(0), 15);
        assert_eq!(contention_window(1), 31);
        assert_eq!(contention_window(2), 63);
        assert_eq!(contention_window(6), 1023);
        assert_eq!(contention_window(10), 1023);
    }
}
