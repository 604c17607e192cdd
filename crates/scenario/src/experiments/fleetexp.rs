//! The fleet-corridor experiment: a small, CI-sized instance of the
//! [`crate::fleet`] generator rendered through the experiment registry,
//! so fleet runs inherit the `--jobs` byte-identity contract and the
//! smoke-test plumbing the per-figure drivers already have.

use crate::experiments::common::wgtt;
use crate::fleet::FleetConfig;
use crate::results::{f, ExperimentOutput};
use crate::world::SystemKind;
use wgtt::{SwitchPolicyKind, WgttConfig};
use wgtt_sim::time::SimDuration;

/// `fleet_smoke`: a 10-vehicle × 8-AP corridor at the paper's picocell
/// density, reduced to the operator aggregates.
pub fn fleet_smoke(seed: u64, quick: bool) -> ExperimentOutput {
    let mut cfg = FleetConfig::corridor(10, 8);
    cfg.duration = SimDuration::from_secs(if quick { 4 } else { 15 });
    let report = cfg.run(wgtt(), seed);

    let mut out = ExperimentOutput::new(
        "fleet_smoke",
        "Fleet corridor smoke: 10 vehicles over 8 picocell APs",
        &["metric", "value"],
    );
    let opt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| f(v, 2));
    out.row(vec!["vehicles".into(), report.vehicles.to_string()]);
    out.row(vec!["aps".into(), report.aps.to_string()]);
    out.row(vec!["switches".into(), report.switches.to_string()]);
    out.row(vec![
        "switch rate (/vehicle-min)".into(),
        f(report.switch_rate_per_vehicle_minute, 2),
    ]);
    out.row(vec![
        "fleet p50 of per-vehicle p50 bitrate (Mbit/s)".into(),
        opt(report.fleet_bitrate_p50(0.5)),
    ]);
    out.row(vec![
        "fleet p50 of per-vehicle p99 bitrate (Mbit/s)".into(),
        opt(report.fleet_bitrate_p99(0.5)),
    ]);
    out.row(vec![
        "outage p50 (s)".into(),
        opt(report.outage_quantile(0.5)),
    ]);
    out.row(vec![
        "outage p99 (s)".into(),
        opt(report.outage_quantile(0.99)),
    ]);
    out.row(vec![
        "full-outage vehicles".into(),
        report.full_outage_vehicles.to_string(),
    ]);
    out.note(report.digest());
    out
}

/// `policy_smoke`: the same CI-sized corridor under each switch rule
/// (reactive-median, load-aware) from one seed — the registry-shaped
/// miniature of `examples/policy_compare.rs`.
pub fn policy_smoke(seed: u64, quick: bool) -> ExperimentOutput {
    let mut cfg = FleetConfig::corridor(10, 8);
    cfg.duration = SimDuration::from_secs(if quick { 4 } else { 15 });

    let mut out = ExperimentOutput::new(
        "policy_smoke",
        "Switch-policy comparison on the fleet corridor",
        &[
            "policy",
            "switches",
            "max ap load",
            "outage p99 (s)",
            "outage >=200ms (s)",
            "p50 bitrate (Mbit/s)",
        ],
    );
    let opt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| f(v, 2));
    for kind in SwitchPolicyKind::all() {
        let wcfg = WgttConfig {
            switch_policy: kind,
            ..Default::default()
        };
        let report = cfg.run(SystemKind::Wgtt(wcfg), seed);
        out.row(vec![
            kind.label().to_string(),
            report.switches.to_string(),
            report.max_ap_load.to_string(),
            opt(report.outage_quantile(0.99)),
            f(report.outage_time_over(0.2), 2),
            opt(report.fleet_bitrate_p50(0.5)),
        ]);
    }
    out
}
