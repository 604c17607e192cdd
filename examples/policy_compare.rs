//! Switch-rule comparison on one fleet corridor, paired over seeds.
//!
//! Runs the *same* generated scenario (same seed, same vehicles, same
//! traffic deal) under each [`wgtt::SwitchPolicyKind`] — reactive-median
//! (the paper's §3.1.1 rule) and load-aware — for every seed in the
//! range, prints one row per (seed, rule), and then, for each
//! non-reactive rule, the per-seed paired delta of every column against
//! reactive-median: its mean and 95 % t-interval.
//!
//! ```sh
//! cargo run --release --example policy_compare -- \
//!     --vehicles 200 --aps 32 --duration 30 --shards 4 --seeds 1..24
//! ```
//!
//! `--seeds A..B` is inclusive; `--seeds S` runs one seed (and prints
//! no interval). The load-aware rule's own objective is `max_ap_load`;
//! the switch count is the churn it pays for it.

use std::ops::RangeInclusive;
use std::time::Instant;

use wgtt::{SwitchPolicyKind, WgttConfig};
use wgtt_scenario::fleet::{FleetConfig, FleetReport};
use wgtt_scenario::shard::run_sharded;
use wgtt_scenario::world::SystemKind;
use wgtt_sim::time::SimDuration;

struct Args {
    vehicles: usize,
    aps: usize,
    seeds: RangeInclusive<u64>,
    duration_s: f64,
    shards: usize,
}

/// `A..B` (inclusive) or a single seed `S`.
fn parse_seeds(v: &str) -> RangeInclusive<u64> {
    let seed = |s: &str| {
        s.parse::<u64>()
            .unwrap_or_else(|e| panic!("--seeds {v}: {e}"))
    };
    match v.split_once("..") {
        Some((a, b)) => seed(a)..=seed(b),
        None => seed(v)..=seed(v),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        vehicles: 200,
        aps: 32,
        seeds: 1..=1,
        duration_s: 30.0,
        shards: 1,
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
            "--seeds" => {
                args.seeds = parse_seeds(&it.next().expect("--seeds needs a value"));
            }
            "--duration" => args.duration_s = take("--duration"),
            "--shards" => args.shards = take("--shards") as usize,
            "--help" | "-h" => {
                println!(
                    "usage: policy_compare [--vehicles N] [--aps N] [--seeds A..B] \
                     [--duration SECS] [--shards N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    assert!(!args.seeds.is_empty(), "--seeds: empty range");
    args
}

/// The compared columns: header, decimals, and how to read each off a
/// report (`None` where the run has no sample to report).
type Column = (&'static str, usize, fn(&FleetReport) -> Option<f64>);

const COLUMNS: [Column; 6] = [
    ("switches", 0, |r| Some(r.switches as f64)),
    ("rate/v-min", 2, |r| Some(r.switch_rate_per_vehicle_minute)),
    ("max_ap_load", 0, |r| Some(r.max_ap_load as f64)),
    ("outage p99(s)", 2, |r| r.outage_quantile(0.99)),
    ("outage>=200ms", 2, |r| Some(r.outage_time_over(0.2))),
    ("p50 bitrate", 2, |r| r.fleet_bitrate_p50(0.5)),
];

fn run_policy(cfg: &FleetConfig, kind: SwitchPolicyKind, seed: u64) -> FleetReport {
    let wcfg = WgttConfig {
        switch_policy: kind,
        ..Default::default()
    };
    let system = SystemKind::Wgtt(wcfg);
    if cfg.districts > 1 {
        run_sharded(cfg, system, seed, cfg.districts, None)
    } else {
        cfg.run(system, seed)
    }
}

/// Two-sided 95 % critical value of Student's t with `df` degrees of
/// freedom: the table up to 30, the Cornish–Fisher expansion beyond
/// (within 1e-3 there).
fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df <= TABLE.len() {
        return TABLE[df - 1];
    }
    let (z, v) = (1.959_964_f64, df as f64);
    z + (z.powi(3) + z) / (4.0 * v)
        + (5.0 * z.powi(5) + 16.0 * z.powi(3) + 3.0 * z) / (96.0 * v * v)
}

/// Mean of the paired deltas with its 95 % t-interval (two or more
/// seeds), and on how many seeds the rule came out lower and higher.
fn summarize(d: &[f64]) -> String {
    let n = d.len();
    if n == 0 {
        return "n/a".to_string();
    }
    let mean = d.iter().sum::<f64>() / n as f64;
    let interval = if n >= 2 {
        let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let half = t95(n - 1) * (var / n as f64).sqrt();
        format!(" [{:+.2}, {:+.2}]", mean - half, mean + half)
    } else {
        String::new()
    };
    let lower = d.iter().filter(|&&x| x < 0.0).count();
    let higher = d.iter().filter(|&&x| x > 0.0).count();
    let estimate = format!("{mean:+.2}{interval}");
    format!("{estimate:<30} lower on {lower}, higher on {higher} of {n}")
}

fn main() {
    let a = parse_args();
    let mut cfg = FleetConfig::corridor(a.vehicles, a.aps);
    cfg.duration = SimDuration::from_secs_f64(a.duration_s);
    cfg.districts = a.shards.max(1);

    println!(
        "policy compare: {} vehicles, {} APs ({:.0} m road), seeds {}..{}, {:.0} s{}",
        cfg.n_vehicles,
        cfg.n_aps,
        cfg.road_len(),
        a.seeds.start(),
        a.seeds.end(),
        a.duration_s,
        if cfg.districts > 1 {
            format!(", {} shards", cfg.districts)
        } else {
            String::new()
        },
    );
    println!();
    print!("{:>4} {:<16}", "seed", "policy");
    for (name, _, _) in COLUMNS {
        print!(" {name:>13}");
    }
    println!();

    let wall = Instant::now();
    let kinds = SwitchPolicyKind::all();
    // rows[k][i]: the columns of rule `k` on the i-th seed.
    let mut rows: Vec<Vec<[Option<f64>; 6]>> = vec![Vec::new(); kinds.len()];
    for seed in a.seeds.clone() {
        for (k, &kind) in kinds.iter().enumerate() {
            let r = run_policy(&cfg, kind, seed);
            assert_eq!(r.backhaul_misaddressed, 0, "misaddressed backhaul");
            assert_eq!(r.missing_packet_refs, 0, "dangling packet refs");
            let row = COLUMNS.map(|(_, _, read)| read(&r));
            print!("{seed:>4} {:<16}", kind.label());
            for ((_, decimals, _), v) in COLUMNS.iter().zip(row) {
                match v {
                    Some(v) => print!(" {v:>13.decimals$}"),
                    None => print!(" {:>13}", "n/a"),
                }
            }
            println!();
            rows[k].push(row);
        }
    }

    println!();
    println!(
        "paired delta vs {}, per seed: mean [95 % t-interval]",
        kinds[0].label()
    );
    for (k, kind) in kinds.iter().enumerate().skip(1) {
        println!("{}", kind.label());
        for (c, (name, _, _)) in COLUMNS.iter().enumerate() {
            let deltas: Vec<f64> = rows[0]
                .iter()
                .zip(&rows[k])
                .filter_map(|(base, row)| Some(row[c]? - base[c]?))
                .collect();
            println!("  {name:<14} {}", summarize(&deltas));
        }
    }
    println!();
    println!("wall {:.1} s", wall.elapsed().as_secs_f64());
}
