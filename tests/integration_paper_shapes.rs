//! The paper's figures as shapes: each test asserts the part of one
//! figure's shape that this reproduction holds, over seeds 1–5.
//!
//! Ignored unoptimised, like `golden_digests`; run with
//! `cargo test --release -p wgtt-scenario --test integration_paper_shapes`.

use wgtt_scenario::experiments::micro;

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
