//! Differential suite for `wgtt_scenario::decide`: the ladder and the
//! ceiling-ordered capture test against the always-exact bodies they
//! replaced in `World` (kept here, verbatim, as the oracles).
//!
//! The inputs are what the radio layer guarantees and nothing more: an
//! exact value, and bounds with `exact ≤ bound ≤ ceiling` — equality and
//! the non-finite corners included.

use proptest::prelude::*;
use wgtt_mac::mcs::ALL_MCS;
use wgtt_mac::Mcs;
use wgtt_scenario::decide::{capture_survives, Ladder, Rung, Step};

/// `roll_mpdu` as it was: `!rng.chance(mcs.per(esnr, len))`, i.e. lost
/// iff the uniform draw falls under the PER at the exact ESNR.
fn oracle_lost(u: f64, mcs: Mcs, exact_esnr_db: f64, len: u16) -> bool {
    u < mcs.per(exact_esnr_db, len)
}

/// `rx_survives` as it was: the fold over every interferer's power.
fn oracle_survives(capture_db: f64, wanted: f64, interferers: &[f64]) -> bool {
    let worst = interferers
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    wanted - worst >= capture_db
}

/// A received power: mostly finite, with the corners the fold has an
/// opinion about.
fn power(pick: u32, finite: f64) -> f64 {
    match pick % 16 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => finite,
    }
}

/// A ceiling for `exact`: at or above it (NaN bounds nothing and may be
/// anything).
fn ceiling_of(exact: f64, slack: f64) -> f64 {
    if exact.is_nan() {
        slack
    } else {
        exact + slack
    }
}

proptest! {
    /// One reception context, many MPDUs: every roll's verdict is the
    /// oracle's, each rung is asked for at most once and in order, and a
    /// rung never asked for was never needed.
    #[test]
    fn ladder_is_chance_of_per_at_the_exact_esnr(
        exact in -40.0f64..45.0,
        slacks in (0.0f64..12.0, 0.0f64..20.0),
        tight in 0u32..4,
        memo_hit in 0u32..8,
        mcs_idx in 0usize..8,
        rolls in proptest::collection::vec((0.0f64..1.0, any::<u16>()), 1..70),
    ) {
        let mcs = ALL_MCS[mcs_idx];
        // A quarter of the cases pin one or both bounds onto the exact
        // value: a bound with no slack must still be a bound.
        let bound = exact + if tight & 1 == 0 { slacks.0 } else { 0.0 };
        let ceiling = bound + if tight & 2 == 0 { slacks.1 } else { 0.0 };
        let mut ladder = Ladder::default();
        if memo_hit == 0 {
            ladder.set(mcs, Rung::Exact, exact);
        }
        let mut asked = Vec::new();
        for &(u, len) in &rolls {
            let lost = loop {
                match ladder.step(u, len) {
                    Step::Lost(lost, _) => break lost,
                    Step::Need(rung) => {
                        prop_assert!(!asked.contains(&rung), "{:?} asked twice", rung);
                        asked.push(rung);
                        let esnr = match rung {
                            Rung::Ceiling => ceiling,
                            Rung::Bound => bound,
                            Rung::Exact => exact,
                        };
                        ladder.set(mcs, rung, esnr);
                    }
                }
            };
            prop_assert_eq!(lost, oracle_lost(u, mcs, exact, len), "u {} len {}", u, len);
        }
        let order = [Rung::Ceiling, Rung::Bound, Rung::Exact];
        prop_assert_eq!(&asked[..], &order[..asked.len()]);
        prop_assert!(memo_hit != 0 || asked.is_empty(), "a memo hit climbs nothing");
    }

    /// An A-MPDU's MPDUs through one ladder: every verdict is a fresh
    /// `Mcs::per`'s, whether the lengths repeat, alternate or mix — a
    /// rung's remembered PER answers only for the length it was taken at.
    #[test]
    fn an_ampdu_through_one_ladder_is_a_fresh_per_for_each_mpdu(
        exact in -10.0f64..40.0,
        slacks in (0.0f64..6.0, 0.0f64..12.0),
        mcs_idx in 0usize..8,
        pattern in 0u32..3,
        mpdus in proptest::collection::vec((0.0f64..1.0, 0usize..4), 1..64),
    ) {
        const LENS: [u16; 4] = [1500, 1488, 64, 0];
        let mcs = ALL_MCS[mcs_idx];
        let bound = exact + slacks.0;
        let ceiling = bound + slacks.1;
        let mut ladder = Ladder::default();
        for (i, &(u, pick)) in mpdus.iter().enumerate() {
            let len = match pattern {
                0 => LENS[pick],
                1 => LENS[i % 2],
                _ => LENS[(i / 8) % 4],
            };
            let lost = loop {
                match ladder.step(u, len) {
                    Step::Lost(lost, _) => break lost,
                    Step::Need(Rung::Ceiling) => ladder.set(mcs, Rung::Ceiling, ceiling),
                    Step::Need(Rung::Bound) => ladder.set(mcs, Rung::Bound, bound),
                    Step::Need(Rung::Exact) => ladder.set(mcs, Rung::Exact, exact),
                }
            };
            prop_assert_eq!(lost, u < mcs.per(exact, len), "MPDU {} len {} u {}", i, len, u);
        }
    }

    /// Non-finite ESNRs take the same verdicts through the ladder as
    /// through `per` itself.
    #[test]
    fn ladder_passes_non_finite_esnr_through(
        corner in 0u32..3,
        mcs_idx in 0usize..8,
        u in 0.0f64..1.0,
        len in any::<u16>(),
    ) {
        let mcs = ALL_MCS[mcs_idx];
        let exact = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][corner as usize];
        // The only ceiling of +∞ is +∞; anything bounds −∞; NaN is
        // bounded by nothing, so its "bounds" are NaN too.
        let ceiling = if exact == f64::NEG_INFINITY { 3.0 } else { exact };
        let mut ladder = Ladder::default();
        let lost = loop {
            match ladder.step(u, len) {
                Step::Lost(lost, _) => break lost,
                Step::Need(Rung::Exact) => ladder.set(mcs, Rung::Exact, exact),
                Step::Need(rung) => ladder.set(mcs, rung, ceiling),
            }
        };
        prop_assert_eq!(lost, oracle_lost(u, mcs, exact, len));
    }

    /// The capture walk is the fold, whatever mix of finite, infinite and
    /// NaN powers it meets, and evaluates each power at most once.
    #[test]
    fn capture_walk_is_the_fold_over_all_interferers(
        wanted in (0u32..64, -100.0f64..-20.0, 0.0f64..30.0),
        interferers in proptest::collection::vec(
            (0u32..64, -120.0f64..-20.0, 0.0f64..30.0, 0u32..4), 0..9),
        capture_db in 5.0f64..15.0,
    ) {
        let wanted_exact = power(wanted.0, wanted.1);
        let wanted_ceiling = ceiling_of(wanted_exact, wanted.2);
        let exacts: Vec<f64> = interferers.iter().map(|i| power(i.0, i.1)).collect();
        // Each interferer is its index; a quarter of the ceilings sit
        // exactly on the value they bound.
        let pairs: Vec<(usize, f64)> = interferers
            .iter()
            .enumerate()
            .map(|(i, x)| (i, ceiling_of(exacts[i], if x.3 == 0 { 0.0 } else { x.2 })))
            .collect();
        let mut evaluated = vec![0u32; pairs.len() + 1];
        let got = capture_survives(capture_db, wanted_ceiling, &pairs, |n| match n {
            None => {
                evaluated[pairs.len()] += 1;
                wanted_exact
            }
            Some(&i) => {
                evaluated[i] += 1;
                exacts[i]
            }
        });
        prop_assert_eq!(got, oracle_survives(capture_db, wanted_exact, &exacts));
        prop_assert!(evaluated.iter().all(|&n| n <= 1), "{:?}", evaluated);
    }
}
