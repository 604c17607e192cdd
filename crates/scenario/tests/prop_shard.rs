//! Randomized differential properties for the sharded engine.
//!
//! Complements `tests/integration_shard.rs` (which pins specific
//! corridor shapes) with randomized fleet configurations: for every
//! generated `(config, seed)` the sequential monolithic [`World`] is
//! the oracle and `shard::run_sharded` must reproduce its
//! [`FleetReport`] bit for bit, under randomized worker counts.
//!
//! Each case runs full discrete-event simulations, so the case count is
//! capped at a handful (still honouring a *smaller* `PROPTEST_CASES`,
//! e.g. CI's pinned-seed smoke value) — the cheap per-case work lives
//! in the RNG-only suites, not here.

use wgtt::WgttConfig;
use wgtt_scenario::fleet::FleetConfig;
use wgtt_scenario::shard::run_sharded;
use wgtt_scenario::world::SystemKind;
use wgtt_sim::time::SimDuration;

const MAX_CASES: u32 = 8;

fn wgtt() -> SystemKind {
    SystemKind::Wgtt(WgttConfig::default())
}

#[test]
fn random_corridors_are_shard_invariant() {
    let mut rng = proptest::rng_for("random_corridors_are_shard_invariant");
    let cases = proptest::cases().min(MAX_CASES);
    for case in 0..cases {
        let districts = 1 + rng.below(2) as usize; // 1..=2
        let n_vehicles = districts.max(2) + rng.below(2) as usize;
        let n_aps = (2 * districts).max(4) + rng.below(3) as usize;
        let seed = rng.next_u64();
        let mut cfg = FleetConfig::corridor(n_vehicles, n_aps);
        cfg.duration = SimDuration::from_millis(200 + rng.below(200));
        cfg.districts = districts;

        let oracle = cfg.run(wgtt(), seed);
        let workers = 1 + rng.below(3) as usize;
        let sharded = run_sharded(&cfg, wgtt(), seed, workers, None);
        assert_eq!(
            oracle.equivalence_digest(),
            sharded.equivalence_digest(),
            "case {case}: {districts} districts, {n_vehicles} vehicles, \
             {n_aps} APs, {workers} workers, seed {seed}"
        );
    }
}

#[test]
fn random_worker_schedules_are_byte_identical() {
    // Thread-interleaving stress: the same districted run under two
    // different worker counts (fresh pools, fresh interleavings) must
    // match on the *full* report, raw event count included.
    let mut rng = proptest::rng_for("random_worker_schedules_are_byte_identical");
    let cases = proptest::cases().min(MAX_CASES);
    for case in 0..cases {
        let districts = 2 + rng.below(2) as usize; // 2..=3
        let n_vehicles = districts + rng.below(2) as usize;
        let n_aps = 2 * districts + rng.below(2) as usize;
        let seed = rng.next_u64();
        let mut cfg = FleetConfig::corridor(n_vehicles, n_aps);
        cfg.duration = SimDuration::from_millis(200 + rng.below(150));
        cfg.districts = districts;

        let wa = 1 + rng.below(districts as u64) as usize;
        let wb = 1 + rng.below(8) as usize;
        let a = run_sharded(&cfg, wgtt(), seed, wa, None);
        let b = run_sharded(&cfg, wgtt(), seed, wb, None);
        assert_eq!(a.events_handled, b.events_handled, "case {case}");
        assert_eq!(
            a.equivalence_digest(),
            b.equivalence_digest(),
            "case {case}: workers {wa} vs {wb}, seed {seed}"
        );
    }
}

#[test]
fn district_plan_concatenation_is_the_monolithic_scenario() {
    // Structural half of the invariance: the monolithic generate() and
    // the district plans must describe the same fleet (pure generation,
    // so this one can afford more cases).
    let mut rng = proptest::rng_for("district_plan_concatenation_is_the_monolithic_scenario");
    let cases = proptest::cases().min(64);
    for _ in 0..cases {
        let districts = 1 + rng.below(4) as usize; // 1..=4
        let n_vehicles = districts + rng.below(20) as usize;
        let n_aps = 2 * districts + rng.below(20) as usize;
        let seed = rng.next_u64();
        let cfg = FleetConfig::corridor(n_vehicles, n_aps);
        let mut cfg = cfg;
        cfg.districts = districts;

        let (mono, kinds, flows) = cfg.generate(seed);
        let plans = cfg.district_plan(seed);
        assert_eq!(plans.len(), districts);
        let cat_aps: usize = plans.iter().map(|p| p.cfg.ap_x.len()).sum();
        let cat_veh: usize = plans.iter().map(|p| p.cfg.clients.len()).sum();
        assert_eq!(cat_aps, mono.ap_x.len());
        assert_eq!(cat_veh, mono.clients.len());
        let cat_kinds: Vec<_> = plans.iter().flat_map(|p| p.kinds.clone()).collect();
        assert_eq!(cat_kinds, kinds);
        let cat_flows: usize = plans.iter().map(|p| p.flows.len()).sum();
        assert_eq!(cat_flows, flows.len());
        // Offsets tile the global id space exactly.
        let mut next_ap = 0u32;
        let mut next_veh = 0usize;
        for p in &plans {
            assert_eq!(p.cfg.ap_id_offset, next_ap);
            assert_eq!(p.cfg.client_index_offset, next_veh);
            assert_eq!(
                p.cfg.client_id_first,
                Some(100u32.max(cfg.n_aps as u32) + next_veh as u32)
            );
            next_ap += p.cfg.ap_x.len() as u32;
            next_veh += p.cfg.clients.len();
        }
        assert_eq!(next_ap as usize, cfg.n_aps);
        assert_eq!(next_veh, cfg.n_vehicles);
        // Districts are spatially disjoint by more than the decode
        // horizon: gap between consecutive AP blocks ≥ 150 m even after
        // the 5 m shuttle tails.
        for w in plans.windows(2) {
            let last = *w[0].cfg.ap_x.last().unwrap();
            let first = *w[1].cfg.ap_x.first().unwrap();
            assert!(
                first - last - 10.0 >= 150.0 - 1e-9,
                "districts too close: {last} .. {first}"
            );
        }
    }
}
