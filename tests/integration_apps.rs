//! Cross-crate integration: application workloads over the full stack.

use wgtt::WgttConfig;
use wgtt_apps::video::{PlaybackState, VideoPlayer};
use wgtt_net::packet::FlowId;
use wgtt_radio::Position;
use wgtt_scenario::testbed::{ClientPlan, Direction, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::{SimDuration, SimTime};

fn static_world(spec: FlowSpec, seed: u64) -> World {
    let plan = ClientPlan {
        start: Position::new(12.0, 0.0),
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
fn video_replay_over_good_link_never_rebuffers() {
    let mut w = static_world(FlowSpec::DownlinkTcpBulk, 51);
    w.run(SimDuration::from_secs(8));
    let trace = w.report.flow_meters[&FlowId(0)].deliveries();
    assert!(!trace.is_empty());
    let mut player = VideoPlayer::hd_default(SimTime::from_millis(200));
    for &(t, b) in trace {
        player.on_bytes(t, b);
    }
    player.advance(SimTime::from_secs(8));
    assert_eq!(player.state(), PlaybackState::Playing);
    assert_eq!(
        player.rebuffer_events, 0,
        "a 20+ Mbit/s link must sustain a 2.5 Mbit/s stream"
    );
}

#[test]
fn conferencing_sustains_frame_rate_on_good_link() {
    let plan = ClientPlan {
        start: Position::new(12.0, 0.0),
        speed_mps: 0.0,
        direction: Direction::East,
        stop: None,
        shuttle: None,
    };
    let cfg = TestbedConfig::paper_array().with_clients(vec![plan]);
    let mut w = World::new_multi(
        cfg,
        SystemKind::Wgtt(WgttConfig::default()),
        vec![
            (0, FlowSpec::DownlinkConference { adaptive: false }),
            (0, FlowSpec::UplinkConference { adaptive: false }),
        ],
        52,
    );
    w.traffic_start = SimTime::from_millis(200);
    w.run(SimDuration::from_secs(6));
    let fps = &w.report.conference_sinks[&FlowId(0)];
    // Skip the first (partial) second; a parked client at boresight should
    // render essentially all 30 fps.
    let steady: Vec<f64> = fps.iter().skip(1).take(4).copied().collect();
    let mean = steady.iter().sum::<f64>() / steady.len() as f64;
    assert!(mean > 24.0, "steady fps = {mean} (target 30)");
}

#[test]
fn web_page_load_time_scales_with_link() {
    let mut w = static_world(FlowSpec::DownlinkTcpBytes { bytes: 2_100_000 }, 53);
    w.run(SimDuration::from_secs(10));
    let t = w.report.tcp_completion[&FlowId(0)];
    let secs = t.saturating_since(SimTime::from_millis(200)).as_secs_f64();
    // 2.1 MB at ≈20 Mbit/s ≈ 0.9 s; allow slack for slow start.
    assert!(secs < 5.0, "page load took {secs} s");
}
