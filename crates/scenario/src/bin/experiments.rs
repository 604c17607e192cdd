//! `wgtt-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! wgtt-experiments [--seed N] [--quick] [ids...]
//! wgtt-experiments --list
//! ```
//!
//! With no ids, runs every experiment in paper order. Output is one
//! aligned text table per artifact (the data behind the paper's plot or
//! table); EXPERIMENTS.md records paper-vs-measured comparisons.

use wgtt_scenario::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut quick = false;
    let mut csv = false;
    let mut jobs = 1usize;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer"));
            }
            "--list" => {
                for id in experiments::ids() {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: wgtt-experiments [--seed N] [--quick] [--csv] [--jobs N] [ids...]"
                );
                eprintln!("ids: {}", experiments::ids().collect::<Vec<_>>().join(" "));
                return;
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        ids = experiments::ids().map(String::from).collect();
    }
    // Reject unknown ids before burning minutes on the known ones —
    // the same validation regardless of `--jobs`.
    for id in &ids {
        if !experiments::ids().any(|known| known == id) {
            eprintln!("unknown experiment id: {id} (try --list)");
            std::process::exit(2);
        }
    }
    // `render_all` is byte-identical for every `jobs` value (each
    // experiment is a pure function of id/seed/quick; threads only race
    // for which id to pull next).
    print!("{}", experiments::render_all(&ids, seed, quick, csv, jobs));
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
