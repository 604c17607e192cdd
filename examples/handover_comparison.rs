//! Head-to-head: WGTT vs Enhanced 802.11r vs stock 802.11r over the same
//! drive and the *same channel realization* (equal seeds share fading).
//!
//! ```sh
//! cargo run --release --example handover_comparison [seed]
//! ```

use wgtt::WgttConfig;
use wgtt_net::packet::FlowId;
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::SimTime;

fn run(system: SystemKind, name: &str, seed: u64) {
    let testbed = TestbedConfig::paper_array();
    let plan = ClientPlan::drive_by(15.0);
    let transit = testbed.transit_time(&plan).expect("moving client");
    let start = SimTime::from_secs_f64(7.0 / plan.speed_mps);

    let mut world = World::new(
        testbed.with_clients(vec![plan]),
        system,
        vec![FlowSpec::DownlinkUdp { rate_mbps: 25.0 }],
        seed,
    );
    world.traffic_start = start;
    world.run(transit);

    let meter = &world.report.flow_meters[&FlowId(0)];
    let goodput = meter.mbps_over(start, SimTime::ZERO + transit);
    let (sent, received) = world.report.udp_counts[&FlowId(0)];
    let loss = if sent > 0 {
        100.0 * (1.0 - received.min(sent) as f64 / sent as f64)
    } else {
        0.0
    };
    println!(
        "{name:<18} goodput {goodput:>6.2} Mbit/s   loss {loss:>5.1} %   handovers {:>3}   accuracy {:>5.1} %",
        world.report.switches,
        world.selection_accuracy().percent(),
    );
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    println!("15 mph drive past eight picocell APs, 25 Mbit/s UDP downlink (seed {seed})\n");
    run(SystemKind::Wgtt(WgttConfig::default()), "WGTT", seed);
    run(SystemKind::Enhanced80211r, "Enhanced 802.11r", seed);
    run(SystemKind::Stock80211r, "stock 802.11r", seed);
    println!("\npaper: WGTT achieves 2.6–4.0× the UDP throughput of Enhanced 802.11r,");
    println!("and stock 802.11r fails to hand over at driving speed at all (§2).");
}
