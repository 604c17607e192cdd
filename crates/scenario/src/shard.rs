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
//! nothing a client can see.
//!
//! With zero boundary events, *any* synchronization window is
//! conservative. The engine still advances shards in lockstep windows
//! (default: the 300 µs backhaul latency, the minimum delay any event
//! crossing a shard boundary would incur if districts ever did
//! interact) behind a [`Barrier`], because that is the structure a
//! future boundary-coupled decomposition needs — and varying the window
//! under the differential harness is the stress mode that pins the
//! engine's schedule-independence.
//!
//! ## Determinism
//!
//! Every shard is a [`World`] seeded by the same root seed deriving
//! per-entity streams from *global* ids, so a shard's draw sequence is
//! identical to the monolithic world's restricted to its district. The
//! merge is a fold in district order — stable `(district, vehicle)`
//! ordering, independent of which worker thread finished first — so the
//! merged report is a pure function of `(config, seed)`: the worker
//! count and the sync window cannot leak in.
//!
//! [`Medium`]: wgtt_mac::medium::Medium

use crate::fleet::{FleetConfig, FleetReport};
use crate::world::{SystemKind, World};
use std::sync::Barrier;
use wgtt::messages::BACKHAUL_LATENCY;
use wgtt_apps::mix::AppKind;
use wgtt_sim::time::{SimDuration, SimTime};

/// Default conservative lookahead between shard barriers: the backhaul
/// latency, i.e. the minimum delay any cross-shard event would incur.
pub const DEFAULT_SYNC_WINDOW: SimDuration = BACKHAUL_LATENCY;

/// Run the districted corridor `cfg` on `workers` threads and merge the
/// per-district reports. `sync_window` overrides
/// [`DEFAULT_SYNC_WINDOW`] (the differential stress tests sweep it to
/// prove the schedule doesn't matter).
///
/// The result is bit-identical for every `workers ≥ 1` and every
/// window; with `cfg.districts == 1` it equals the sequential
/// [`FleetConfig::run`] outright.
pub fn run_sharded(
    cfg: &FleetConfig,
    system: SystemKind,
    seed: u64,
    workers: usize,
    sync_window: Option<SimDuration>,
) -> FleetReport {
    assert!(workers >= 1, "at least one worker");
    let window = sync_window.unwrap_or(DEFAULT_SYNC_WINDOW);
    assert!(window > SimDuration::from_micros(0), "zero-width window");
    let duration = cfg.duration;
    let worlds = cfg.district_worlds(system, seed);

    // Deal districts round-robin onto workers, remembering each
    // district's index so the merge below is by district order, never
    // by completion order.
    let workers_used = workers.min(worlds.len());
    let mut buckets: Vec<Vec<(usize, World, Vec<AppKind>)>> =
        (0..workers_used).map(|_| Vec::new()).collect();
    for (d, (w, kinds)) in worlds.into_iter().enumerate() {
        buckets[d % workers_used].push((d, w, kinds));
    }

    let barrier = Barrier::new(workers_used);
    let rounds = duration.as_nanos() / window.as_nanos();
    let mut parts: Vec<(usize, FleetReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|mut bucket| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(bucket.len());
                    for (_, world, _) in &mut bucket {
                        world.begin(duration);
                    }
                    // Whole windows; the trailing partial one is the
                    // final `advance_until(end)` below.
                    let mut t = SimTime::ZERO;
                    for _ in 0..rounds {
                        t += window;
                        for (_, world, _) in &mut bucket {
                            world.advance_until(t);
                        }
                        // Conservative-lookahead barrier: nobody enters
                        // window k+1 until every shard has drained
                        // window k.
                        barrier.wait();
                    }
                    for (d, world, kinds) in &mut bucket {
                        world.advance_until(world.end_at());
                        world.finish();
                        out.push((*d, FleetReport::from_world(world, kinds, cfg)));
                    }
                    out
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
