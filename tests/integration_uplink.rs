//! Cross-crate integration: the uplink path — client A-MPDUs received by
//! multiple APs, tunnelled to the controller, de-duplicated, delivered —
//! and Block ACK forwarding between APs.

use wgtt::WgttConfig;
use wgtt_net::packet::FlowId;
use wgtt_radio::Position;
use wgtt_scenario::testbed::{ClientPlan, Direction, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::{SimDuration, SimTime};

fn world_at(x: f64, spec: FlowSpec, seed: u64) -> World {
    let plan = ClientPlan {
        start: Position::new(x, 0.0),
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
fn uplink_udp_reaches_server_with_dedup() {
    // Client parked between AP0 and AP1 so both overhear its uplink.
    let mut w = world_at(3.0, FlowSpec::UplinkUdp { rate_mbps: 10.0 }, 31);
    w.run(SimDuration::from_secs(5));
    let (fwd, dup) = w.report.uplink_dedup;
    assert!(fwd > 1_000, "forwarded {fwd}");
    assert!(dup > 50, "overlap must produce duplicate copies, got {dup}");
    let m = &w.report.flow_meters[&FlowId(0)];
    let mbps = m.mbps_over(SimTime::from_millis(200), SimTime::from_secs(5));
    assert!(mbps > 7.0, "uplink goodput {mbps} Mbit/s of 10 offered");
}

#[test]
fn no_duplicate_reaches_the_flow_sink() {
    let mut w = world_at(3.0, FlowSpec::UplinkUdp { rate_mbps: 10.0 }, 32);
    w.run(SimDuration::from_secs(5));
    let (sent, received) = w.report.udp_counts[&FlowId(0)];
    // Unique receptions can never exceed emissions — the dedup invariant.
    assert!(received <= sent, "received {received} > sent {sent}");
}

#[test]
fn block_ack_forwarding_engages_at_cell_edges() {
    // A moving client crosses grey zones where the serving AP misses
    // Block ACKs that neighbours overhear and forward (§3.2.1).
    let cfg = TestbedConfig::paper_array().with_clients(vec![ClientPlan::drive_by(15.0)]);
    let mut w = World::new(
        cfg,
        SystemKind::Wgtt(WgttConfig::default()),
        vec![FlowSpec::DownlinkUdp { rate_mbps: 25.0 }],
        33,
    );
    w.traffic_start = SimTime::from_millis(1000);
    w.run(SimDuration::from_secs(12));
    let fwd_used = w.report.forwarded_ba_used;
    assert!(
        fwd_used > 0,
        "forwarded Block ACKs should rescue at least some windows over a full drive"
    );
}

#[test]
fn ack_collisions_are_rare_under_capture_and_jitter() {
    let mut w = world_at(3.0, FlowSpec::UplinkUdp { rate_mbps: 30.0 }, 34);
    w.run(SimDuration::from_secs(5));
    let sent = w.report.ba_responses.get();
    let coll = w.report.ba_collisions.get();
    assert!(sent > 500, "BA responses {sent}");
    let rate = coll as f64 / sent as f64;
    assert!(rate < 0.01, "ACK collision rate {rate} (paper: ≤0.004 %)");
}
