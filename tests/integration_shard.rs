//! Differential harness for the sharded parallel world engine.
//!
//! The sequential [`World`] (driven through `FleetConfig::run`) is the
//! oracle; `scenario::shard::run_sharded` must reproduce its
//! [`FleetReport`] bit for bit on the same seed, for every district
//! count and worker count. Three invariances are pinned:
//!
//! 1. **Oracle equivalence** — for each districted config (1/2/4/8
//!    shards), the parallel engine's merged report equals the sequential
//!    monolithic world's report on every aggregate except the raw event
//!    count (each shard runs its own mobility/sample/poll chains, so
//!    event *counts* legitimately differ; every physical observable
//!    must not) — and the districts' PHY work counters sum to the
//!    monolithic world's.
//! 2. **Worker-count invariance** — 1/2/4/8 workers produce the full
//!    byte-identical report, `events_handled` included.
//! 3. **Schedule invariance** — re-running under fresh thread
//!    interleavings changes nothing, and neither does advancing each
//!    district in backhaul-latency slices instead of straight through.
//!
//! A fourth test bounds the oracle's own cost: the monolithic world may
//! not handle many more events than the districts it contains, draws
//! exactly the links they do, and polls the controller once per armed
//! timeout.

use wgtt::WgttConfig;
use wgtt_scenario::fleet::{FleetConfig, FleetReport};
use wgtt_scenario::shard::{run_sharded, DEFAULT_SYNC_WINDOW};
use wgtt_scenario::world::SystemKind;
use wgtt_sim::time::{SimDuration, SimTime};

fn corridor(districts: usize) -> FleetConfig {
    let mut cfg = FleetConfig::corridor(8, 16);
    cfg.duration = SimDuration::from_secs(2);
    cfg.districts = districts;
    cfg
}

fn wgtt() -> SystemKind {
    SystemKind::Wgtt(WgttConfig::default())
}

/// Full byte-stable fingerprint, `events_handled` included (worker-count
/// comparisons use this; oracle comparisons use `equivalence_digest`).
fn full_fingerprint(r: &FleetReport) -> String {
    format!(
        "events={} {:?} {:?} {}",
        r.events_handled,
        r.events,
        r.phy,
        r.equivalence_digest()
    )
}

#[test]
fn sharded_engine_matches_sequential_oracle_at_1_2_4_8_shards() {
    for districts in [1, 2, 4, 8] {
        let cfg = corridor(districts);
        let oracle = cfg.run(wgtt(), 7);
        let sharded = run_sharded(&cfg, wgtt(), 7, districts, None);
        assert_eq!(
            oracle.equivalence_digest(),
            sharded.equivalence_digest(),
            "oracle divergence at {districts} shards"
        );
        // The merged shape matches too.
        assert_eq!(oracle.vehicles, sharded.vehicles);
        assert_eq!(oracle.per_vehicle.len(), sharded.per_vehicle.len());
        assert_eq!(sharded.backhaul_misaddressed, 0);
        assert_eq!(sharded.missing_packet_refs, 0);
        // The districts' per-kind counts merge into their event count.
        let by_kind: u64 = sharded.events.by_kind().map(|(_, n)| n).sum();
        assert_eq!(by_kind, sharded.events_handled);
        // Same links visited, same rungs deciding them: the districts'
        // PHY work adds up to the monolithic world's, counter by counter.
        assert!(oracle.phy.rolls_ceiling > 0 && oracle.phy.rolls_bound > 0);
        assert!(oracle.phy.syntheses > 0 && oracle.phy.sweeps > 0);
        assert_eq!(
            oracle.phy, sharded.phy,
            "PHY work diverged at {districts} shards"
        );
    }
}

#[test]
fn monolithic_world_handles_about_the_events_its_districts_do() {
    let cfg = corridor(2);
    let (mut world, kinds) = cfg.build_world(wgtt(), 29);
    world.run(cfg.duration);
    let mono = FleetReport::from_world(&world, &kinds, &cfg);
    let districts = run_sharded(&cfg, wgtt(), 29, 1, None);
    assert_eq!(mono.equivalence_digest(), districts.equivalence_digest());
    // An AssocSync round is one event whether it goes to the APs of the
    // world or of a district, and a district runs its own mobility and
    // sampling chains: nothing is left for the monolithic world to pay.
    assert!(
        mono.events_handled as f64 <= 1.05 * districts.events_handled as f64,
        "monolithic {} events vs {} over the districts",
        mono.events_handled,
        districts.events_handled
    );
    // Nor links: the monolithic world draws the (AP, client) pairs its
    // districts do — each district's four vehicles evaluate the channel
    // to each of its eight APs and to none of the other district's — not
    // all 16 × 8.
    assert_eq!(mono.phy.links_built, districts.phy.links_built);
    assert_eq!(mono.phy.links_built, 2 * 4 * 8);
    // One poll per armed deadline: every switch start and every stop
    // retransmission arms exactly one.
    let r = &world.report;
    assert!(r.switches_started > 0, "the corridor must switch");
    assert!(
        r.events.ctl_poll <= r.switches_started + r.stop_retransmits + 1,
        "{} polls for {} starts + {} retransmissions",
        r.events.ctl_poll,
        r.switches_started,
        r.stop_retransmits
    );
    assert_eq!(mono.events, r.events);
}

#[test]
fn worker_count_is_invisible_including_event_counts() {
    let cfg = corridor(4);
    let baseline = full_fingerprint(&run_sharded(&cfg, wgtt(), 11, 1, None));
    for workers in [2, 4, 8] {
        let r = run_sharded(&cfg, wgtt(), 11, workers, None);
        assert_eq!(
            baseline,
            full_fingerprint(&r),
            "worker count {workers} leaked into the report"
        );
    }
}

/// The schedule `benchmark/`'s `district_shard` workload measures: every
/// district world advanced in 300 µs slices, then the reports merged in
/// district order. A world's queue pops in (time, insertion) order
/// however its drain is sliced, so this is the engine's straight run,
/// event for event.
#[test]
fn district_worlds_advanced_in_slices_equal_the_engine() {
    let cfg = corridor(4);
    let parts = cfg
        .district_worlds(wgtt(), 13)
        .into_iter()
        .map(|(mut world, kinds)| {
            world.begin(cfg.duration);
            let mut t = SimTime::ZERO;
            while t < world.end_at() {
                t += DEFAULT_SYNC_WINDOW;
                world.advance_until(t);
            }
            world.finish();
            FleetReport::from_world(&world, &kinds, &cfg)
        })
        .collect();
    let sliced = full_fingerprint(&FleetReport::merge(parts, &cfg));
    for workers in [1, 2] {
        assert_eq!(
            sliced,
            full_fingerprint(&run_sharded(&cfg, wgtt(), 13, workers, None)),
            "slicing the drive moved the report at {workers} workers"
        );
    }
}

#[test]
fn repeated_parallel_runs_are_stable_under_thread_interleaving() {
    // Same config, same seed, fresh thread pool each time: OS scheduling
    // must not be observable.
    let cfg = corridor(4);
    let first = full_fingerprint(&run_sharded(&cfg, wgtt(), 17, 4, None));
    for _ in 0..2 {
        assert_eq!(
            first,
            full_fingerprint(&run_sharded(&cfg, wgtt(), 17, 4, None))
        );
    }
}

#[test]
fn single_district_sharded_equals_classic_sequential_run_exactly() {
    // districts == 1 is the historical corridor; the engine must add
    // nothing, not even to the event count.
    let cfg = corridor(1);
    let classic = cfg.run(wgtt(), 19);
    let sharded = run_sharded(&cfg, wgtt(), 19, 1, None);
    assert_eq!(full_fingerprint(&classic), full_fingerprint(&sharded));
}

#[test]
fn baseline_system_is_worker_count_invariant_too() {
    let cfg = corridor(2);
    let one = full_fingerprint(&run_sharded(&cfg, SystemKind::Enhanced80211r, 23, 1, None));
    let two = full_fingerprint(&run_sharded(&cfg, SystemKind::Enhanced80211r, 23, 2, None));
    assert_eq!(one, two);
}
