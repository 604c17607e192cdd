//! The behaviour pin: one digest per experiment id.
//!
//! `golden_digests.txt` holds `<id> <fnv1a-64 hex>` for every id of
//! [`experiments::EXPERIMENTS`], taken over the bytes `wgtt-experiments --quick
//! --seed 1 <id>` renders; `golden_digests_full.txt` holds the same for
//! the full run, `wgtt-experiments --seed 1 <id>`. A PR that claims
//! "output unchanged" passes both tests untouched; a PR that changes
//! behaviour on purpose replaces a file with the body its failure
//! message prints, and the diff of that file is the review surface.

use wgtt_scenario::experiments;

const GOLDEN: &str = include_str!("golden_digests.txt");
const GOLDEN_FULL: &str = include_str!("golden_digests_full.txt");

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Render every experiment at seed 1 and compare its digests with
/// `golden`, the contents of `tests/<file>`.
fn assert_digests(quick: bool, golden: &str, file: &str) {
    let mut body = String::new();
    for (id, driver) in experiments::EXPERIMENTS {
        let rendered = driver(1, quick).render();
        body.push_str(&format!("{id} {:016x}\n", fnv1a64(rendered.as_bytes())));
    }
    let changed: Vec<&str> = body
        .lines()
        .filter(|line| !golden.lines().any(|g| g == *line))
        .map(|line| line.split(' ').next().expect("line starts with its id"))
        .collect();
    assert!(
        body == golden,
        "seed 1 output (quick = {quick}) changed for {changed:?}.\n\
         If that is intended, replace tests/{file} with:\n{body}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes unoptimised; CI runs it with --release"
)]
fn quick_experiments_match_golden_digests() {
    assert_digests(true, GOLDEN, "golden_digests.txt");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "many minutes unoptimised; CI runs it with --release"
)]
fn full_experiments_match_golden_digests() {
    assert_digests(false, GOLDEN_FULL, "golden_digests_full.txt");
}
