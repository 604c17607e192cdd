//! Quickstart: drive one client past the eight-AP roadside array under
//! WGTT and watch the controller switch picocells at millisecond scale.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wgtt::WgttConfig;
use wgtt_net::packet::FlowId;
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::{SimDuration, SimTime};

fn main() {
    let speed_mph = 15.0;
    // The paper's Fig. 9 testbed: eight APs over ≈58 m of road, a dense
    // group (AP1–AP4) and a sparser group (AP5–AP8).
    let testbed = TestbedConfig::paper_array();
    let plan = ClientPlan::drive_by(speed_mph);
    let transit = testbed.transit_time(&plan).expect("moving client");

    let mut world = World::new(
        testbed.with_clients(vec![plan]),
        SystemKind::Wgtt(WgttConfig::default()),
        vec![FlowSpec::DownlinkUdp { rate_mbps: 25.0 }],
        42,
    );
    // Start traffic as the client reaches coverage (≈7 m before AP1).
    world.traffic_start = SimTime::from_secs_f64(7.0 / plan.speed_mps);
    world.run(transit);

    let report = &world.report;
    let meter = &report.flow_meters[&FlowId(0)];
    let end = SimTime::ZERO + transit;
    println!("== WGTT quickstart: one client at {speed_mph} mph ==");
    println!(
        "transit {:.1} s, goodput {:.2} Mbit/s of 25 offered",
        transit.as_secs_f64(),
        meter.mbps_over(world.traffic_start, end)
    );
    println!(
        "picocell switches: {} (mean protocol time {:.1} ms)",
        report.switches,
        report.switch_durations.mean().unwrap_or(0.0) * 1e3
    );
    println!(
        "selection accuracy vs oracle: {:.1} %",
        world.selection_accuracy().percent()
    );

    // Per-second throughput and serving AP — the Fig. 14/15 shape.
    println!("\n  t(s)  Mbit/s  serving");
    let bins = meter.binned_mbps(world.traffic_start, SimDuration::from_secs(1), 12);
    let serving = report
        .serving_series
        .get(&wgtt_mac::frame::NodeId(100))
        .map(|ts| ts.resample(world.traffic_start, SimDuration::from_secs(1), 12))
        .unwrap_or_default();
    for (i, mbps) in bins.iter().enumerate() {
        let ap = serving
            .get(i)
            .filter(|v| !v.is_nan())
            .map(|&v| format!("AP{}", v as u32))
            .unwrap_or_else(|| "-".into());
        println!("  {:>4}  {:>6.2}  {}", i, mbps, ap);
    }
}
