//! The paper's figures as shapes: each test asserts the part of one
//! figure's shape that this reproduction holds, over seeds 1–5.
//!
//! Ignored unoptimised, like `golden_digests`; run with
//! `cargo test --release -p wgtt-scenario --test integration_paper_shapes`.

use wgtt_scenario::experiments::{endtoend, micro, motivation};

/// Fig. 21: past the coherence time, a longer window only averages over
/// a channel that has already changed, so the capacity loss rises
/// strictly through W = 50 → 100 → 200 → 400 ms. (The paper's minimum
/// at W = 10 ms is not asserted: here the loss is least at 2 ms.)
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds unoptimised; CI runs it with --release"
)]
fn fig21_loss_rises_with_long_windows() {
    for seed in 1..=5 {
        let out = micro::fig21(seed);
        let loss_at = |w_ms: &str| -> f64 {
            let row = out
                .rows
                .iter()
                .find(|r| r[0] == w_ms)
                .unwrap_or_else(|| panic!("fig21 has no W = {w_ms} ms row"));
            row[1].parse().expect("loss is a number")
        };
        let losses: Vec<f64> = ["50", "100", "200", "400"].map(loss_at).to_vec();
        assert!(
            losses.windows(2).all(|p| p[0] < p[1]),
            "seed {seed}: loss at W = 50/100/200/400 ms is {losses:?}, not rising"
        );
    }
}

/// Fig. 4: stock 802.11r's 5 s RSSI history outlasts a 20 mph car's
/// dwell in a cell, so its handover fails there and completes at 5 mph.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds unoptimised; CI runs it with --release"
)]
fn fig4_stock_80211r_fails_at_20_mph_only() {
    for seed in 1..=5 {
        let out = motivation::fig4(seed);
        let handover: Vec<(&str, &str)> = out
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[2].as_str()))
            .collect();
        assert_eq!(
            handover,
            [("20 mph", "FAILED"), ("5 mph", "yes")],
            "seed {seed}"
        );
    }
}

/// Table 2: WGTT serves from the oracle-best AP at least 90 % of the
/// in-coverage time on TCP and on UDP, and more of it than Enhanced
/// 802.11r on both.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds unoptimised; CI runs it with --release"
)]
fn table2_wgtt_accuracy_is_high_and_above_enhanced_80211r() {
    for seed in 1..=5 {
        let out = endtoend::table2(seed);
        let flows: Vec<&str> = out.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(flows, ["TCP", "UDP"], "seed {seed}");
        for row in &out.rows {
            let wgtt: f64 = row[1].parse().expect("WGTT % is a number");
            let baseline: f64 = row[2].parse().expect("802.11r % is a number");
            assert!(
                wgtt >= 90.0 && wgtt > baseline,
                "seed {seed} {}: WGTT {wgtt} %, Enhanced 802.11r {baseline} %",
                row[0]
            );
        }
    }
}
