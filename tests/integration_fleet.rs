//! Fleet-scale regression and determinism tests.
//!
//! Each regression test here pins a bug the fleet generator originally
//! flushed out of the single-road code paths:
//!
//! * client ids used to start at a fixed 100, so a corridor with ≥100
//!   APs aliased AP ids into client ids and indexed out of bounds;
//! * client IPs used to put `100 + index` straight into one `u8` octet,
//!   overflowing at 156 vehicles;
//! * a downlink vehicle that never decoded a frame used to produce an
//!   empty distribution and NaN percentiles instead of one full-run
//!   outage.

use wgtt::WgttConfig;
use wgtt_apps::mix::AppKind;
use wgtt_radio::Position;
use wgtt_scenario::fleet::{FleetConfig, FleetReport};
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::{FlowSpec, SystemKind, World};
use wgtt_sim::time::SimDuration;

#[test]
fn two_hundred_vehicle_world_constructs_and_steps() {
    // 200 clients once overflowed the second `u8` IP octet term
    // (100 + index > 255) during world construction.
    let mut cfg = FleetConfig::corridor(200, 8);
    cfg.duration = SimDuration::from_millis(200);
    let (mut world, kinds) = cfg.build_world(SystemKind::Wgtt(WgttConfig::default()), 1);
    assert_eq!(kinds.len(), 200);
    assert_eq!(world.client_ids().len(), 200);
    world.run(cfg.duration);
}

#[test]
fn corridor_with_more_aps_than_the_old_client_id_base_runs() {
    // Client ids used to start at a fixed 100; with ≥100 APs the AP and
    // client id ranges overlapped and `client_index` went out of bounds.
    let mut cfg = FleetConfig::corridor(3, 120);
    cfg.duration = SimDuration::from_secs(2);
    let report = cfg.run(SystemKind::Wgtt(WgttConfig::default()), 2);
    assert_eq!(report.aps, 120);
    assert_eq!(report.vehicles, 3);
    assert!(report.events_handled > 0);
    assert_eq!(report.backhaul_misaddressed, 0);
    assert_eq!(report.missing_packet_refs, 0);
}

#[test]
fn never_served_downlink_client_is_one_full_outage_not_nan() {
    // A vehicle parked 10 km past the array can never decode a frame.
    let mut plan = ClientPlan::drive_by(5.0);
    plan.start = Position::new(10_000.0, 0.0);
    let cfg = TestbedConfig::paper_array().with_clients(vec![plan]);
    let mut w = World::new(
        cfg,
        SystemKind::Wgtt(WgttConfig::default()),
        vec![FlowSpec::DownlinkUdp { rate_mbps: 2.5 }],
        5,
    );
    w.run(SimDuration::from_secs(3));
    assert!(
        w.report.last_delivery.is_empty(),
        "client 10 km away must never decode a downlink frame"
    );

    let mut fcfg = FleetConfig::corridor(1, 8);
    fcfg.duration = SimDuration::from_secs(3);
    let report = FleetReport::from_world(&w, &[AppKind::Video], &fcfg);
    let v = &report.per_vehicle[0];
    assert!(v.full_outage);
    assert_eq!(v.outages, 1);
    assert!((v.outage_s - 3.0).abs() < 1e-9, "outage_s = {}", v.outage_s);
    assert_eq!(report.full_outage_vehicles, 1);
    assert!((report.full_outage_fraction() - 1.0).abs() < 1e-12);
    assert_eq!(report.outage_quantile(0.5), Some(3.0));
    assert!(report
        .outage_cdf
        .iter()
        .all(|&(v, p)| v.is_finite() && p.is_finite()));
    // Percentiles of an empty bitrate series are None, never NaN.
    for q in [v.bitrate_p50_mbps, v.bitrate_p99_mbps]
        .into_iter()
        .flatten()
    {
        assert!(q.is_finite());
    }
}

fn fleet_fingerprint(seed: u64) -> String {
    let mut cfg = FleetConfig::corridor(10, 8);
    cfg.duration = SimDuration::from_secs(5);
    let report = cfg.run(SystemKind::Wgtt(WgttConfig::default()), seed);
    // digest + the full per-vehicle reduction + the pooled CDF: any
    // nondeterminism in event order, RNG consumption, or float math
    // shows up here.
    format!(
        "{}\n{:?}\n{:?}",
        report.digest(),
        report.per_vehicle,
        report.outage_cdf
    )
}

#[test]
fn same_seed_gives_byte_identical_fleet_report() {
    assert_eq!(fleet_fingerprint(42), fleet_fingerprint(42));
}

#[test]
fn different_seed_gives_a_different_fleet() {
    assert_ne!(fleet_fingerprint(42), fleet_fingerprint(43));
}

#[test]
fn fleet_smoke_experiment_is_jobs_invariant() {
    // The fleet experiment must honor the same contract as the per-figure
    // drivers: `--jobs` is a pure speed knob.
    let ids: Vec<String> = ["fleet_smoke", "fleet_smoke"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let sequential = wgtt_scenario::experiments::render_all(&ids, 3, true, false, 1);
    let parallel = wgtt_scenario::experiments::render_all(&ids, 3, true, false, 2);
    assert_eq!(sequential, parallel);
    assert!(sequential.contains("vehicles"));
}

#[test]
fn policy_smoke_experiment_is_jobs_invariant() {
    // Two corridor runs per render (one per switch rule) — the
    // experiment is still a pure function of (id, seed, quick), so
    // `--jobs` stays a pure speed knob.
    let ids: Vec<String> = ["policy_smoke", "policy_smoke"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let sequential = wgtt_scenario::experiments::render_all(&ids, 3, true, false, 1);
    let parallel = wgtt_scenario::experiments::render_all(&ids, 3, true, false, 2);
    assert_eq!(sequential, parallel);
    for label in ["reactive-median", "load-aware"] {
        assert!(sequential.contains(label), "missing {label} row");
    }
}
