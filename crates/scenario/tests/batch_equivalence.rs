//! The sampling loop's batched ESNR map must be outcome-invariant.
//!
//! With `World::sample_lean` off, every 10 ms tick runs
//! `radio::batch::esnr_map` over all (client, AP) links and leaves each
//! link's memo holding that instant's powers and 16-QAM ESNR; a frame
//! ending at the same instant then reads those instead of computing
//! them. The map is pure — no random draws, per-link memo state only,
//! every value produced by the halves of `Link::esnr_db_at` itself — so
//! a lean run and a full one must be the *identical* simulation: same
//! discrete events handled, same frames on the air, same switches, same
//! fleet aggregates. This suite pins that for the WGTT CSI fan-out loops
//! and for the baseline's beacon/RSSI path.

use wgtt::WgttConfig;
use wgtt_scenario::fleet::{FleetConfig, FleetReport};
use wgtt_scenario::world::SystemKind;
use wgtt_sim::time::SimDuration;

fn run_pair(cfg: &FleetConfig, system: SystemKind, seed: u64) {
    let (mut lean, kinds) = cfg.build_world(system, seed);
    let (mut full, _) = cfg.build_world(system, seed);
    lean.sample_lean = true;
    full.sample_lean = false;
    lean.run(cfg.duration);
    full.run(cfg.duration);
    let label = format!("{system:?} seed {seed}");
    assert!(
        lean.report.esnr_traces.is_empty() && !full.report.esnr_traces.is_empty(),
        "only the full run samples the map: {label}"
    );
    assert_eq!(
        lean.report.events_handled, full.report.events_handled,
        "events diverged: {label}"
    );
    assert_eq!(
        lean.report.frames_on_air, full.report.frames_on_air,
        "frames diverged: {label}"
    );
    assert_eq!(lean.report.switches, full.report.switches, "{label}");
    assert_eq!(lean.report.events, full.report.events, "{label}");
    assert_eq!(
        lean.report.uplink_dedup, full.report.uplink_dedup,
        "{label}"
    );
    let da = FleetReport::from_world(&lean, &kinds, cfg).equivalence_digest();
    let db = FleetReport::from_world(&full, &kinds, cfg).equivalence_digest();
    assert_eq!(da, db, "fleet digest diverged: {label}");
}

#[test]
fn wgtt_runs_identical_with_and_without_the_sampling_map() {
    let mut cfg = FleetConfig::corridor(3, 6);
    cfg.duration = SimDuration::from_millis(400);
    for seed in [1u64, 3, 7] {
        run_pair(&cfg, SystemKind::Wgtt(WgttConfig::default()), seed);
    }
}

#[test]
fn baseline_runs_identical_with_and_without_the_sampling_map() {
    let mut cfg = FleetConfig::corridor(2, 5);
    cfg.duration = SimDuration::from_millis(400);
    run_pair(&cfg, SystemKind::Enhanced80211r, 5);
}
