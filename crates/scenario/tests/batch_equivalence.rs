//! The batched overhearing prefill must be outcome-invariant.
//!
//! `World::batch_esnr` (on by default) runs one fused multi-AP
//! synthesis pass before each per-AP decode loop instead of letting the
//! loop fault each link's memo in one at a time. Priming is pure — no
//! random draws, per-link memo state only, and every value it caches is
//! produced by `Link::esnr_db_at` itself — so turning it off must
//! reproduce the *identical* simulation: same discrete events handled,
//! same frames on the air, same switches, same fleet aggregates. This
//! suite pins exactly that, for the WGTT CSI fan-out loops and for the
//! baseline's beacon/RSSI path, under both lean and full sampling.

use wgtt::WgttConfig;
use wgtt_scenario::fleet::{FleetConfig, FleetReport};
use wgtt_scenario::world::SystemKind;
use wgtt_sim::time::SimDuration;

fn run_pair(cfg: &FleetConfig, system: SystemKind, seed: u64, lean: bool) {
    let (mut on, kinds) = cfg.build_world(system, seed);
    let (mut off, _) = cfg.build_world(system, seed);
    assert!(on.batch_esnr, "batched prefill must be the default");
    off.batch_esnr = false;
    on.sample_lean = lean;
    off.sample_lean = lean;
    on.run(cfg.duration);
    off.run(cfg.duration);
    let label = format!("{system:?} seed {seed} lean {lean}");
    assert_eq!(
        on.report.events_handled, off.report.events_handled,
        "events diverged: {label}"
    );
    assert_eq!(
        on.report.frames_on_air, off.report.frames_on_air,
        "frames diverged: {label}"
    );
    assert_eq!(on.report.switches, off.report.switches, "{label}");
    assert_eq!(on.report.ctl_polls, off.report.ctl_polls, "{label}");
    assert_eq!(on.report.uplink_dedup, off.report.uplink_dedup, "{label}");
    assert_eq!(
        on.report.accuracy_hits.to_bits(),
        off.report.accuracy_hits.to_bits(),
        "{label}"
    );
    assert_eq!(
        on.report.accuracy_total.to_bits(),
        off.report.accuracy_total.to_bits(),
        "{label}"
    );
    let da = FleetReport::from_world(&on, &kinds, cfg).equivalence_digest();
    let db = FleetReport::from_world(&off, &kinds, cfg).equivalence_digest();
    assert_eq!(da, db, "fleet digest diverged: {label}");
}

#[test]
fn wgtt_runs_identical_with_and_without_batched_prefill() {
    let mut cfg = FleetConfig::corridor(3, 6);
    cfg.duration = SimDuration::from_millis(400);
    for seed in [1u64, 7] {
        run_pair(&cfg, SystemKind::Wgtt(WgttConfig::default()), seed, true);
    }
    // Full sampling exercises the batched per-(client, AP) ESNR map and
    // the oracle-accuracy bookkeeping built on it.
    run_pair(&cfg, SystemKind::Wgtt(WgttConfig::default()), 3, false);
}

#[test]
fn baseline_runs_identical_with_and_without_batched_prefill() {
    // The baseline exercises the beacon/RSSI powers path instead of the
    // CSI fan-out loops.
    let mut cfg = FleetConfig::corridor(2, 5);
    cfg.duration = SimDuration::from_millis(400);
    run_pair(&cfg, SystemKind::Enhanced80211r, 5, true);
    run_pair(&cfg, SystemKind::Enhanced80211r, 5, false);
}
