//! # Sharded parallel world engine
//!
//! Runs a districted fleet corridor (see [`FleetConfig::districts`]) as
//! independent spatial shards on a scoped-thread pool, and merges the
//! per-shard reports deterministically. The sequential [`World`] stays
//! untouched as the oracle: `tests/integration_shard.rs` and
//! `crates/scenario/tests/prop_shard.rs` replay identical seeds through
//! both engines and assert bit-identical [`FleetReport`] aggregates.
//!
//! ## Why sharding is exact, not approximate
//!
//! Radio interactions in this simulator have hard finite range: carrier
//! sense and capture interference reach 40 m ([`Medium`]'s
//! interference range), and no frame decodes past the 120 m decode
//! horizon. A districted corridor places ≥ 150 m of empty road between
//! adjacent districts' reachable areas (160 m AP-block gap minus the
//! 5 m shuttle tails on each side), so *no event in one district can
//! observe another district* — not a frame, not a deferral, not a
//! capture comparison. Each district also gets its own controller: the
//! paper's controller state is per-client (selection windows, switch
//! machines, per-source dedup), so splitting it by district changes
//! nothing a client can see. With no event to exchange, each district
//! runs straight through, start to end, with nothing to wait for.
//!
//! ## Determinism
//!
//! Every shard is a [`World`] seeded by the same root seed deriving
//! per-entity streams from *global* ids, so a shard's draw sequence is
//! identical to the monolithic world's restricted to its district. The
//! merge is a fold in district order — stable `(district, vehicle)`
//! ordering, independent of which worker thread finished first — so the
//! merged report is a pure function of `(config, seed)`: the worker
//! count cannot leak in.
//!
//! [`Medium`]: wgtt_mac::medium::Medium
//! [`World`]: crate::world::World

use crate::fleet::{FleetConfig, FleetReport};
use crate::world::SystemKind;
use wgtt::messages::BACKHAUL_LATENCY;
use wgtt_sim::time::SimDuration;

/// Unused: the engine runs each district straight through. Deleted
/// with ROADMAP item 6(i), once `benchmark/`'s `district_shard` workload
/// stops slicing its drive by it.
pub const DEFAULT_SYNC_WINDOW: SimDuration = BACKHAUL_LATENCY;

/// Run the districted corridor `cfg` on `min(workers, districts)`
/// threads, each running its districts one after another with
/// [`World::run`](crate::world::World::run), and merge the
/// per-district reports in district order. The `_sync_window`
/// argument is ignored; it is deleted with ROADMAP item 6(i), once
/// `benchmark/` stops passing it.
///
/// The result is bit-identical for every `workers ≥ 1`; with
/// `cfg.districts == 1` it equals the sequential [`FleetConfig::run`]
/// outright.
pub fn run_sharded(
    cfg: &FleetConfig,
    system: SystemKind,
    seed: u64,
    workers: usize,
    _sync_window: Option<SimDuration>,
) -> FleetReport {
    assert!(workers >= 1, "at least one worker");
    let worlds = cfg.district_worlds(system, seed);

    // Deal districts round-robin onto workers, remembering each
    // district's index so the merge below is by district order, never
    // by completion order.
    let workers_used = workers.min(worlds.len());
    let mut buckets: Vec<Vec<_>> = (0..workers_used).map(|_| Vec::new()).collect();
    for (d, district) in worlds.into_iter().enumerate() {
        buckets[d % workers_used].push((d, district));
    }

    let mut parts: Vec<(usize, FleetReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                s.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(d, (mut world, kinds))| {
                            world.run(cfg.duration);
                            (d, FleetReport::from_world(&world, &kinds, cfg))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    parts.sort_by_key(|&(d, _)| d);
    FleetReport::merge(parts.into_iter().map(|(_, r)| r).collect(), cfg)
}
