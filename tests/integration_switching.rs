//! Cross-crate integration: the switching protocol under live traffic —
//! stop/start/ack timing, serving continuity, and recovery from control
//! packet loss.

use wgtt::WgttConfig;
use wgtt_net::packet::FlowId;
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::{SimDuration, SimTime};

fn drive_world(cfg_wgtt: WgttConfig, seed: u64) -> World {
    let cfg = TestbedConfig::paper_array().with_clients(vec![ClientPlan::drive_by(15.0)]);
    let mut w = World::new(
        cfg,
        SystemKind::Wgtt(cfg_wgtt),
        vec![FlowSpec::DownlinkUdp { rate_mbps: 25.0 }],
        seed,
    );
    w.traffic_start = SimTime::from_millis(1000);
    w
}

#[test]
fn switch_durations_match_protocol_budget() {
    let mut w = drive_world(WgttConfig::default(), 21);
    w.run(SimDuration::from_secs(12));
    let d = &w.report.switch_durations;
    assert!(d.len() >= 4, "expected several switches, got {}", d.len());
    let mean_ms = d.mean().expect("switches happened") * 1e3;
    // stop processing (≈9 ms) + start processing (≈7 ms) + 3 backhaul
    // hops: the paper's Table 1 band.
    assert!(
        (10.0..30.0).contains(&mean_ms),
        "mean switch duration {mean_ms} ms"
    );
}

#[test]
fn control_packet_loss_recovers_via_retransmission() {
    let lossy = WgttConfig {
        control_loss_prob: 0.25, // brutal: a quarter of control packets die
        ..WgttConfig::default()
    };
    let mut w = drive_world(lossy, 22);
    w.run(SimDuration::from_secs(12));
    // Switching still completes (timeout → stop retransmit) and data flows.
    assert!(w.report.switches >= 3, "switches: {}", w.report.switches);
    let m = &w.report.flow_meters[&FlowId(0)];
    assert!(
        m.total_bytes() > 1_000_000,
        "delivered {} bytes despite control loss",
        m.total_bytes()
    );
}

#[test]
fn hysteresis_bounds_switch_rate() {
    let tight = WgttConfig {
        switch_hysteresis: SimDuration::from_millis(40),
        ..WgttConfig::default()
    };
    let loose = WgttConfig {
        switch_hysteresis: SimDuration::from_millis(400),
        ..WgttConfig::default()
    };
    let mut wt = drive_world(tight, 23);
    wt.run(SimDuration::from_secs(12));
    let mut wl = drive_world(loose, 23);
    wl.run(SimDuration::from_secs(12));
    assert!(
        wt.report.switches >= wl.report.switches,
        "tight hysteresis must allow at least as many switches ({} vs {})",
        wt.report.switches,
        wl.report.switches
    );
}

#[test]
fn switching_accuracy_beats_baseline_on_same_channel() {
    let mut w = drive_world(WgttConfig::default(), 24);
    w.run(SimDuration::from_secs(12));
    let wgtt_acc = w.selection_accuracy().percent() / 100.0;

    let cfg = TestbedConfig::paper_array().with_clients(vec![ClientPlan::drive_by(15.0)]);
    let mut b = World::new(
        cfg,
        SystemKind::Enhanced80211r,
        vec![FlowSpec::DownlinkUdp { rate_mbps: 25.0 }],
        24,
    );
    b.traffic_start = SimTime::from_millis(1000);
    b.run(SimDuration::from_secs(12));
    let base_acc = b.selection_accuracy().percent() / 100.0;

    assert!(
        wgtt_acc > base_acc + 0.05,
        "WGTT accuracy {wgtt_acc:.2} must beat baseline {base_acc:.2}"
    );
    assert!(wgtt_acc > 0.75, "WGTT accuracy {wgtt_acc:.2}");
}
