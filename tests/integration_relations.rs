//! Metamorphic relations: changes to a scenario that the physics must
//! not notice, each checked as byte-identical reports.
//!
//! Relation 1: an AP placed beyond every client's decode horizon and
//! interference range changes nothing the clients see. Here a ninth AP
//! stands 2 km past the paper array's last one.
//!
//! Only WGTT is checked. Enhanced 802.11r fails the relation today:
//! `World::begin` staggers beacons at `ai * 100 / n_aps` ms, so the AP
//! count moves every AP's beacon phase, and its delivered bytes with
//! it (ROADMAP item 22). The baseline half lands with that fix.
//!
//! Ignored unoptimised, like `golden_digests`; run with
//! `cargo test --release -p wgtt-scenario --test integration_relations`.

use wgtt::WgttConfig;
use wgtt_net::packet::FlowId;
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::{EventCounts, FlowSpec, PhyWork, SystemKind, World};
use wgtt_sim::time::{SimDuration, SimTime};

/// Where the ninth AP stands: 2 km past the array's last AP (53 m).
const FAR_AP_X: f64 = 2053.0;

/// What the clients' side of a run must keep under the relation.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events_handled: u64,
    frames_on_air: u64,
    switches: u64,
    ba_timeouts: u64,
    uplink_dedup: (u64, u64),
    delivered_bytes: u64,
    phy: PhyWork,
    events: EventCounts,
}

fn drive(testbed: TestbedConfig, flow: FlowSpec, seed: u64) -> Fingerprint {
    let cfg = testbed.with_clients(vec![ClientPlan::drive_by(15.0)]);
    let mut w = World::new(
        cfg,
        SystemKind::Wgtt(WgttConfig::default()),
        vec![flow],
        seed,
    );
    w.traffic_start = SimTime::from_secs(1);
    w.run(SimDuration::from_secs(8));
    let r = &w.report;
    Fingerprint {
        events_handled: r.events_handled,
        frames_on_air: r.frames_on_air,
        switches: r.switches,
        ba_timeouts: r.ba_timeouts,
        uplink_dedup: r.uplink_dedup,
        delivered_bytes: r.flow_meters[&FlowId(0)].total_bytes(),
        phy: r.phy,
        events: r.events,
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds unoptimised; CI runs it with --release"
)]
fn an_ap_beyond_every_range_changes_nothing_under_wgtt() {
    let flows = [
        FlowSpec::DownlinkUdp { rate_mbps: 20.0 },
        FlowSpec::DownlinkTcpBulk,
        FlowSpec::UplinkUdp { rate_mbps: 10.0 },
    ];
    let mut far = TestbedConfig::paper_array();
    far.ap_x.push(FAR_AP_X);
    for seed in 1..=3 {
        for flow in flows {
            let eight = drive(TestbedConfig::paper_array(), flow, seed);
            let nine = drive(far.clone(), flow, seed);
            assert!(
                eight.delivered_bytes > 0,
                "seed {seed}, {flow:?}: nothing delivered"
            );
            assert_eq!(eight, nine, "seed {seed}, {flow:?}");
        }
    }
}
