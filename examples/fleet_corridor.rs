//! Fleet-scale corridor run: hundreds of vehicles over dozens of
//! picocell APs, with per-vehicle traffic mixes and fleet aggregates.
//!
//! ```sh
//! cargo run --release --example fleet_corridor -- \
//!     --vehicles 200 --aps 32 --seed 1 --duration 30 --shards 4
//! ```
//!
//! `--shards N` splits the corridor into N spatially disjoint districts
//! and runs them on a scoped thread pool (`scenario::shard`); the
//! report is byte-identical to the sequential run of the same
//! districted config — sharding is a pure speed knob. `--shard-workers`
//! caps the pool below the district count.

use std::time::Instant;

use wgtt::{SwitchPolicyKind, WgttConfig};
use wgtt_apps::mix::AppKind;
use wgtt_scenario::fleet::FleetConfig;
use wgtt_scenario::shard::run_sharded;
use wgtt_scenario::world::SystemKind;
use wgtt_sim::time::SimDuration;

struct Args {
    vehicles: usize,
    aps: usize,
    spacing_m: Option<f64>,
    cell_radius_m: Option<f64>,
    seed: u64,
    duration_s: f64,
    per_vehicle: bool,
    shards: usize,
    shard_workers: Option<usize>,
    policy: SwitchPolicyKind,
}

fn parse_args() -> Args {
    let mut args = Args {
        vehicles: 200,
        aps: 32,
        spacing_m: None,
        cell_radius_m: None,
        seed: 1,
        duration_s: 30.0,
        per_vehicle: false,
        shards: 1,
        shard_workers: None,
        policy: SwitchPolicyKind::ReactiveMedian,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        match flag.as_str() {
            "--vehicles" => args.vehicles = take("--vehicles") as usize,
            "--aps" => args.aps = take("--aps") as usize,
            "--spacing" => args.spacing_m = Some(take("--spacing")),
            "--cell-radius" => args.cell_radius_m = Some(take("--cell-radius")),
            "--seed" => args.seed = take("--seed") as u64,
            "--duration" => args.duration_s = take("--duration"),
            "--shards" => args.shards = take("--shards") as usize,
            "--shard-workers" => args.shard_workers = Some(take("--shard-workers") as usize),
            "--per-vehicle" => args.per_vehicle = true,
            "--policy" => {
                let v = it.next().expect("--policy needs a value");
                args.policy = SwitchPolicyKind::parse(&v)
                    .unwrap_or_else(|| panic!("unknown policy {v} (reactive|load-aware)"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: fleet_corridor [--vehicles N] [--aps N] [--spacing M] \
                     [--cell-radius M] [--seed S] [--duration SECS] \
                     [--shards N] [--shard-workers M] \
                     [--policy reactive|load-aware]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn main() {
    let a = parse_args();
    let mut cfg = FleetConfig::corridor(a.vehicles, a.aps);
    if let Some(s) = a.spacing_m {
        cfg.ap_spacing_m = s;
    }
    if let Some(r) = a.cell_radius_m {
        cfg.cell_radius_m = r;
    }
    cfg.duration = SimDuration::from_secs_f64(a.duration_s);
    cfg.districts = a.shards.max(1);

    println!(
        "fleet corridor: {} vehicles, {} APs x {:.0} m ({:.0} m road), \
         reuse {}, seed {}, {:.0} s",
        cfg.n_vehicles,
        cfg.n_aps,
        cfg.ap_spacing_m,
        cfg.road_len(),
        cfg.channel_reuse(),
        a.seed,
        a.duration_s,
    );

    let wcfg = WgttConfig {
        switch_policy: a.policy,
        ..Default::default()
    };
    println!("switch policy: {}", a.policy.label());
    let system = SystemKind::Wgtt(wcfg);
    let wall = Instant::now();
    // `--shard-workers 0` forces the districted config through the
    // sequential monolithic engine — the oracle side of the
    // differential-determinism check in CI.
    let report = if cfg.districts > 1 && a.shard_workers != Some(0) {
        let workers = a.shard_workers.unwrap_or(cfg.districts);
        println!(
            "sharding: {} districts on {} workers",
            cfg.districts, workers
        );
        run_sharded(&cfg, system, a.seed, workers, None)
    } else {
        cfg.run(system, a.seed)
    };
    let wall_s = wall.elapsed().as_secs_f64();

    let count = |k: AppKind| report.per_vehicle.iter().filter(|v| v.kind == k).count();
    println!(
        "\napp mix: video {} / web {} / conference {} / telemetry {}",
        count(AppKind::Video),
        count(AppKind::Web),
        count(AppKind::Conference),
        count(AppKind::Telemetry),
    );

    println!("\nthroughput (delivered PHY bitrate, Mbit/s):");
    for q in [0.10, 0.50, 0.90] {
        println!(
            "  fleet p{:<2.0} of per-vehicle p50: {}   of per-vehicle p99: {}",
            q * 100.0,
            fmt(report.fleet_bitrate_p50(q)),
            fmt(report.fleet_bitrate_p99(q)),
        );
    }

    println!("\nroaming:");
    println!(
        "  {} switches, {:.2} per vehicle-minute, max AP load {}",
        report.switches, report.switch_rate_per_vehicle_minute, report.max_ap_load
    );

    println!("\ndownlink outages (gaps >= 200 ms):");
    match report.outage_quantile(0.5) {
        Some(_) => {
            for q in [0.50, 0.90, 0.99] {
                println!(
                    "  p{:<2.0} duration: {} s",
                    q * 100.0,
                    fmt(report.outage_quantile(q))
                );
            }
        }
        None => println!("  none observed"),
    }
    println!(
        "  vehicles in full outage: {} ({:.1} % of downlink vehicles)",
        report.full_outage_vehicles,
        report.full_outage_fraction() * 100.0
    );

    if a.per_vehicle {
        println!("\nper-vehicle:");
        for v in &report.per_vehicle {
            println!(
                "  {:?} {:<10} p50={} p99={} outage={:.1}s x{}{}",
                v.client,
                format!("{:?}", v.kind),
                fmt(v.bitrate_p50_mbps),
                fmt(v.bitrate_p99_mbps),
                v.outage_s,
                v.outages,
                if v.full_outage { " FULL-OUTAGE" } else { "" },
            );
        }
    }

    println!("\nscale:");
    println!(
        "  {} events, {} frames in {:.1} s wall -> {:.0} events/s, {:.0} frames/s",
        report.events_handled,
        report.frames_on_air,
        wall_s,
        report.events_handled as f64 / wall_s,
        report.frames_on_air as f64 / wall_s,
    );
    for (kind, n) in report.events.by_kind().filter(|&(_, n)| n > 0) {
        let share = 100.0 * n as f64 / report.events_handled as f64;
        println!("  events/{kind}: {n} ({share:.1} %)");
    }
    let phy = &report.phy;
    println!(
        "  {} rolls: {} settled by the static ceiling, {} by the tap-gain bound, {} by exact ESNR",
        phy.rolls, phy.rolls_ceiling, phy.rolls_bound, phy.rolls_exact,
    );
    println!(
        "  {} capture checks evaluated {} powers; {} syntheses, {} BER sweeps in all",
        phy.capture_checks, phy.capture_exact, phy.syntheses, phy.sweeps,
    );
    println!(
        "  links built: {} of {}",
        phy.links_built,
        report.vehicles * report.aps
    );
    assert_eq!(report.backhaul_misaddressed, 0, "misaddressed backhaul");
    assert_eq!(report.missing_packet_refs, 0, "dangling packet refs");
}

fn fmt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.2}"),
        None => "n/a".to_string(),
    }
}
