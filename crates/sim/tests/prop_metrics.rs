//! Oracle-equivalence property suite for the bounded-memory quantile
//! sketch `wgtt_sim::sketch::P2Sketch`.
//!
//! The exact order statistics (store-and-sort, as
//! `wgtt_sim::metrics::Distribution` computes them) are the oracle. The
//! sketch's contract
//! is *rank* accuracy: a returned quantile value must sit within
//! [`EPSILON`] of the requested rank in the oracle's sorted sample set.
//! Rank error is the honest metric for a CDF estimate — it is invariant
//! under monotone rescaling and does not blow up on bimodal inputs
//! where a sliver of rank spans a valley of value.
//!
//! Streams covered: uniform, normal (Box–Muller), bimodal mixtures, and
//! adversarially sorted (ascending and descending) inputs — the classic
//! worst case for online quantile estimators — plus the hard
//! O(markers) memory bound after 10⁶ observations.

use proptest::prelude::*;
use wgtt_sim::metrics::Distribution;
use wgtt_sim::sketch::{P2Sketch, EPSILON, MARKERS};

/// SplitMix64 — deterministic per-case sample generator.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The five stream shapes the epsilon contract is enforced on.
const SHAPES: usize = 5;

fn sample(shape: usize, i: usize, n: usize, g: &mut Gen) -> f64 {
    match shape {
        // Uniform over [0, 100).
        0 => g.uniform() * 100.0,
        // Normal(50, 10).
        1 => 50.0 + 10.0 * g.normal(),
        // Bimodal: N(-40, 2) / N(+40, 2) mixture, 30/70 split — a deep
        // valley between modes that punishes value-error metrics.
        2 => {
            let mode = if g.uniform() < 0.3 { -40.0 } else { 40.0 };
            mode + 2.0 * g.normal()
        }
        // Adversarially sorted ascending: every observation is a new
        // maximum, so every insertion lands in the top cell.
        3 => i as f64,
        // Adversarially sorted descending: every observation is a new
        // minimum.
        _ => (n - i) as f64,
    }
}

/// Worst-case distance from the requested rank `q` to the interval of
/// ranks the returned value actually occupies in the oracle's sorted
/// samples (0 when the value lands inside its bracket).
fn rank_error(sorted: &[f64], value: f64, q: f64) -> f64 {
    let n = sorted.len();
    let below = sorted.partition_point(|&s| s < value);
    let at_or_below = sorted.partition_point(|&s| s <= value);
    let denom = (n - 1).max(1) as f64;
    // An interpolated value between samples ranks like its neighbours;
    // widen the bracket by one rank on the low side to cover it.
    let lo = below.saturating_sub(1) as f64 / denom;
    let hi = (at_or_below.min(n - 1)) as f64 / denom;
    if q < lo {
        lo - q
    } else if q > hi {
        q - hi
    } else {
        0.0
    }
}

proptest! {
    /// Past the exact phase, every queried quantile is within the
    /// documented rank epsilon of the exact distribution, for every
    /// stream shape.
    #[test]
    fn sketch_rank_error_within_epsilon(
        shape in 0usize..SHAPES,
        seed in any::<u64>(),
        n in 500usize..3_000
    ) {
        let mut g = Gen(seed);
        let mut exact: Vec<f64> = Vec::with_capacity(n);
        let mut sk = P2Sketch::new();
        for i in 0..n {
            let v = sample(shape, i, n, &mut g);
            exact.push(v);
            sk.observe(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        for q in [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.85, 0.9, 0.95, 1.0] {
            let v = sk.quantile(q).expect("non-empty");
            let err = rank_error(&exact, v, q);
            prop_assert!(
                err <= EPSILON,
                "shape={} n={} q={}: rank error {:.4} > epsilon {}",
                shape, n, q, err, EPSILON
            );
        }
    }

    /// The sketch CDF is monotone in value and fraction, starts above 0,
    /// and ends exactly at 1 — directly plottable like the exact CDF.
    #[test]
    fn sketch_cdf_is_monotone_and_normalized(
        shape in 0usize..SHAPES,
        seed in any::<u64>(),
        n in 50usize..2_000
    ) {
        let mut g = Gen(seed);
        let mut sk = P2Sketch::new();
        for i in 0..n {
            sk.observe(sample(shape, i, n, &mut g));
        }
        let cdf = sk.cdf();
        prop_assert!(!cdf.is_empty());
        prop_assert!(cdf.len() <= MARKERS);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "values not monotone");
            prop_assert!(w[0].1 <= w[1].1, "fractions not monotone");
        }
        prop_assert!(cdf[0].1 > 0.0);
        prop_assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    /// Out-of-range quantile requests answer `None` from both the sketch
    /// and the exact `Distribution`, never panic — the regression
    /// contract for the old `assert!`.
    #[test]
    fn out_of_range_quantiles_are_none_not_panic(
        q in -10.0f64..10.0,
        n in 0usize..50
    ) {
        let mut exact = Distribution::new();
        let mut sk = P2Sketch::new();
        for i in 0..n {
            exact.record(i as f64);
            sk.observe(i as f64);
        }
        let in_range = (0.0..=1.0).contains(&q);
        prop_assert_eq!(exact.quantile(q).is_some(), in_range && n > 0);
        prop_assert_eq!(sk.quantile(q).is_some(), in_range && n > 0);
    }
}

/// The satellite's hard memory bound: after 10⁶ records the sketch
/// retains O(markers) values — nothing grows with the stream.
#[test]
fn sketch_memory_stays_o_markers_after_1e6_records() {
    let mut d = P2Sketch::new();
    let mut g = Gen(0xfeed_beef);
    for _ in 0..1_000_000u32 {
        d.observe(g.uniform() * 1_000.0);
    }
    assert_eq!(d.count(), 1_000_000);
    assert!(
        d.stored_values() <= MARKERS,
        "sketch retained {} values (> {MARKERS} markers)",
        d.stored_values()
    );
    // The sketch itself is a fixed-size struct: two marker arrays plus a
    // counter. If someone adds a growable buffer, this fails the build
    // of the claim, not just the runtime.
    assert!(
        std::mem::size_of::<P2Sketch>() <= (2 * MARKERS + 2) * std::mem::size_of::<f64>(),
        "P2Sketch grew beyond its marker arrays"
    );
    // And it still answers sanely after a million observations.
    let med = d.quantile(0.5).expect("non-empty");
    assert!((med - 500.0).abs() < 25.0, "median = {med}");
    assert_eq!(d.quantile(1.5), None);
}
