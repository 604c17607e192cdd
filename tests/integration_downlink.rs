//! Cross-crate integration: the full WGTT downlink path — WAN packet →
//! controller fan-out → cyclic queues → serving AP → A-MPDU → client →
//! flow sink — over the real radio/MAC substrate.

use wgtt::WgttConfig;
use wgtt_mac::mcs::{Mcs, ALL_MCS};
use wgtt_net::packet::FlowId;
use wgtt_radio::Position;
use wgtt_scenario::testbed::{ClientPlan, Direction, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::{SimDuration, SimTime};

fn static_client_world(spec: FlowSpec, seed: u64) -> World {
    let plan = ClientPlan {
        start: Position::new(12.0, 0.0), // AP2 boresight
        speed_mps: 0.0,
        direction: Direction::East,
        stop: None,
        shuttle: None,
    };
    let cfg = TestbedConfig::paper_array().with_clients(vec![plan]);
    let mut w = World::new(
        cfg,
        SystemKind::Wgtt(WgttConfig::default()),
        vec![spec],
        seed,
    );
    w.traffic_start = SimTime::from_millis(200);
    w
}

#[test]
fn static_udp_achieves_near_offered_load() {
    let mut w = static_client_world(FlowSpec::DownlinkUdp { rate_mbps: 20.0 }, 11);
    w.run(SimDuration::from_secs(5));
    let m = &w.report.flow_meters[&FlowId(0)];
    let mbps = m.mbps_over(SimTime::from_millis(200), SimTime::from_secs(5));
    assert!(
        mbps > 17.0,
        "static 20 Mbit/s offered should deliver nearly all, got {mbps}"
    );
}

#[test]
fn static_client_does_not_switch() {
    let mut w = static_client_world(FlowSpec::DownlinkUdp { rate_mbps: 20.0 }, 12);
    w.run(SimDuration::from_secs(5));
    assert!(
        w.report.switches <= 2,
        "parked client at a boresight flapped {} times",
        w.report.switches
    );
}

#[test]
fn udp_saturation_is_bounded_by_link_capacity() {
    // Offer far more than the link can carry: goodput must saturate in the
    // realistic 802.11n band, not run away.
    let mut w = static_client_world(FlowSpec::DownlinkUdp { rate_mbps: 90.0 }, 13);
    w.run(SimDuration::from_secs(5));
    let m = &w.report.flow_meters[&FlowId(0)];
    let mbps = m.mbps_over(SimTime::from_millis(200), SimTime::from_secs(5));
    assert!(
        (20.0..60.0).contains(&mbps),
        "saturated goodput should land in the 802.11n range, got {mbps}"
    );
}

#[test]
fn drive_by_delivers_throughout_the_array() {
    let cfg = TestbedConfig::paper_array().with_clients(vec![ClientPlan::drive_by(15.0)]);
    let mut w = World::new(
        cfg,
        SystemKind::Wgtt(WgttConfig::default()),
        vec![FlowSpec::DownlinkUdp { rate_mbps: 20.0 }],
        14,
    );
    w.traffic_start = SimTime::from_millis(1000);
    w.run(SimDuration::from_secs(12));
    let m = &w.report.flow_meters[&FlowId(0)];
    // The second half of the drive (APs 4–8) must still deliver — the
    // regression this guards: cyclic-ring rejoin gaps starving late APs.
    let first_half = m.mbps_over(SimTime::from_secs(1), SimTime::from_secs(6));
    let second_half = m.mbps_over(SimTime::from_secs(6), SimTime::from_secs(12));
    assert!(first_half > 2.0, "first half {first_half} Mbit/s");
    assert!(second_half > 2.0, "second half {second_half} Mbit/s");
    assert!(w.report.switches >= 4, "switches: {}", w.report.switches);
    // Every bit-rate quantile is a rate some A-MPDU was sent at, never
    // a value interpolated between two MCS steps.
    let rates = ALL_MCS.map(Mcs::rate_mbps);
    for d in w.report.bitrate_series.values() {
        for q in [0.1, 0.5, 0.9, 0.99] {
            let v = d.quantile(q).expect("frames were sent");
            assert!(rates.contains(&v), "q{q} bit rate {v} is no MCS rate");
        }
    }
}

#[test]
fn tcp_bulk_flows_end_to_end() {
    let mut w = static_client_world(FlowSpec::DownlinkTcpBulk, 15);
    w.run(SimDuration::from_secs(5));
    let m = &w.report.flow_meters[&FlowId(0)];
    let mbps = m.mbps_over(SimTime::from_millis(200), SimTime::from_secs(5));
    assert!(mbps > 10.0, "static bulk TCP got only {mbps} Mbit/s");
    // TCP acks travel the uplink: the controller must have deduplicated
    // multi-AP copies.
    let (fwd, _dup) = w.report.uplink_dedup;
    assert!(fwd > 100, "ack stream forwarded {fwd}");
}

#[test]
fn finite_tcp_transfer_completes_and_is_timed() {
    let mut w = static_client_world(FlowSpec::DownlinkTcpBytes { bytes: 500_000 }, 16);
    w.run(SimDuration::from_secs(5));
    let done = w.report.tcp_completion.get(&FlowId(0));
    let t = done.expect("500 kB at ≈20+ Mbit/s completes in seconds");
    assert!(*t < SimTime::from_secs(4), "completed at {t}");
}

// ------------------------------------------------- events that do nothing

/// The APs each downlink packet of a backhaul capture was tunnelled to,
/// in the order recorded: one entry per packet (consecutive downlink
/// records carrying one cyclic index).
fn downlink_fanouts(pcap: &[u8]) -> Vec<Vec<u8>> {
    use wgtt_net::wire::{
        EthernetHeader, TunnelHeader, TunnelKind, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN,
        UDP_HEADER_LEN,
    };
    let mut fanouts: Vec<Vec<u8>> = Vec::new();
    let mut last_index = None;
    let mut at = 24; // past the global header
    while at < pcap.len() {
        let len = u32::from_le_bytes(pcap[at + 8..at + 12].try_into().unwrap()) as usize;
        let frame = &pcap[at + 16..at + 16 + len];
        at += 16 + len;
        let shim = &frame[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN..];
        let shim = TunnelHeader::parse(shim).expect("a tunnel record");
        if shim.kind != TunnelKind::Downlink {
            continue;
        }
        let ap = EthernetHeader::parse(frame)
            .expect("an Ethernet frame")
            .dst
            .0[5];
        if last_index != Some(shim.index) {
            fanouts.push(Vec::new());
            last_index = Some(shim.index);
        }
        fanouts.last_mut().expect("just pushed").push(ap);
    }
    fanouts
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn tcp_drive_schedules_no_timer_and_no_backhaul_event_it_does_not_need() {
    let cfg = TestbedConfig::paper_array().with_clients(vec![ClientPlan::drive_by(15.0)]);
    let mut w = World::new(
        cfg,
        SystemKind::Wgtt(WgttConfig::default()),
        vec![FlowSpec::DownlinkTcpBulk],
        7,
    );
    w.traffic_start = SimTime::from_secs(3); // the car reaches coverage
    w.enable_backhaul_capture();
    w.run(SimDuration::from_secs(5));
    let pcap = w.backhaul_capture().expect("enabled").to_bytes();
    let r = &w.report;

    // What the run delivers does not depend on how many events carry it:
    // these are the values of the engine that scheduled them all.
    assert_eq!(r.flow_meters[&FlowId(0)].total_bytes(), 3_365_152);
    assert_eq!(r.tcp_timeouts[&FlowId(0)], 1);
    assert_eq!(
        fnv1a(&pcap),
        0xa710_899e_99f1_f9f1,
        "backhaul capture moved"
    );

    // One record per (AP, packet), each packet's in the controller's
    // emission order: ascending AP id, the order of its link map.
    let fanouts = downlink_fanouts(&pcap);
    assert!(fanouts.len() > 3_000, "{} packets", fanouts.len());
    assert!(fanouts
        .iter()
        .all(|aps| aps.windows(2).all(|w| w[0] < w[1])));
    let records: usize = fanouts.iter().map(Vec::len).sum();
    assert!(records > 7 * fanouts.len(), "most packets go to all 8 APs");

    // Every ACK that reaches the sender, every RTO and the flow's first
    // window arm one timer, and nothing re-arms a stale one.
    let (acks, _duplicates) = r.uplink_dedup;
    let armed = acks + r.tcp_timeouts[&FlowId(0)] + 1;
    assert!(
        r.events.tcp_timer <= armed,
        "{} TcpTimer events for {armed} armings",
        r.events.tcp_timer
    );
    // A packet's replication is one event whatever its width; the rest
    // are Start, forwarded Block ACKs and AssocSync rounds.
    assert!(
        r.events.backhaul_to_ap < 2 * fanouts.len() as u64,
        "{} Backhaul->AP events for {} packets",
        r.events.backhaul_to_ap,
        fanouts.len()
    );
    assert_eq!(
        r.events.by_kind().map(|(_, n)| n).sum::<u64>(),
        r.events_handled
    );
}
