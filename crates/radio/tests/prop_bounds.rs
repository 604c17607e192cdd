//! Soundness suite for the bounds the frame path decides from.
//!
//! `World` settles delivery rolls and capture comparisons from upper
//! bounds on a link's ESNR and RSSI whenever a bound already gives the
//! answer the exact arithmetic would (`wgtt_scenario::decide`). That is
//! byte-identical only if the bounds really are bounds — in floats, not
//! just on paper:
//!
//! * `esnr_db_at ≤ esnr_bound_db_at ≤ esnr_ceiling_db` for every
//!   modulation (Jensen on the convex BER curves; `|H_k| ≤ Σ_l |g_l|`),
//!   the ceiling asked of the link's `LinkSite`;
//! * `rssi_dbm_at ≤ rssi_ceiling_dbm`;
//! * the site's ceilings are the realization's: the peak gain is a
//!   function of K alone, bit for bit, so a link need not be drawn to be
//!   bounded;
//! * the tap-gain quadratic form `gᴴGg` is the wideband gain to rounding;
//! * splitting a synthesis into tap gains + twiddle MAC changes no bit,
//!   on any backend, so a bound that fails to decide costs no second
//!   sinusoid pass and no divergence.
//!
//! Links span K ∈ {−∞, 6, 9 dB}, positions out to 200 m, and budgets
//! pushed to both ends: ESNR saturated at the 1e-12 BER ceiling and dead
//! links below the −120 dB inversion floor. `BOUND_MARGIN_DB` must stay a
//! thousand times above the worst violation found.

use proptest::prelude::*;
use wgtt_radio::fading::{self, FadingProcess};
use wgtt_radio::{
    linear_to_db, Link, LinkBudget, LinkSite, Modulation, ParabolicAntenna, PathLossModel,
    Position, BOUND_MARGIN_DB, NUM_SUBCARRIERS,
};
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::SimTime;
use wgtt_simd::Backend;

const MODS: [Modulation; 4] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
];

const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

/// What a float bound may be short of its real-number proof by before
/// this suite calls it broken, dB.
const TOL_DB: f64 = BOUND_MARGIN_DB / 1000.0;

fn k_db(idx: u32) -> f64 {
    [f64::NEG_INFINITY, 6.0, 9.0][idx as usize % 3]
}

/// Fixed loss added to the roadside model: the calibrated testbed, a
/// budget hot enough to pin ESNR at its saturation ceiling, and one dead
/// enough to sit below the inversion table's −120 dB floor.
fn extra_loss_db(idx: u32) -> f64 {
    [22.0, 22.0, -45.0, 170.0][idx as usize % 4]
}

fn link(seed: u64, k: f64, extra_loss_db: f64) -> Link {
    LinkSite {
        ap_pos: Position::new(0.0, 12.0),
        ap_boresight_rad: -std::f64::consts::FRAC_PI_2,
        ap_antenna: ParabolicAntenna::laird_gd24bp(),
        client_antenna_dbi: 0.0,
        budget: LinkBudget::default(),
        pathloss: PathLossModel {
            extra_loss_db,
            ..PathLossModel::roadside()
        },
        fading_peak_db: fading::peak_gain_db(k),
    }
    .link(FadingProcess::new(
        RngStream::root(seed).derive("prop-bounds"),
        6.7,
        k,
    ))
}

/// `(exact, bound, ceiling)` of one link-instant under `m`, the ceiling
/// from the link's site.
fn rungs(l: &Link, t: SimTime, pos: Position, m: Modulation) -> (f64, f64, f64) {
    let gains = l.fading.tap_gains_at(t);
    (
        l.esnr_db_at(t, pos, m),
        l.esnr_bound_db_at(t, pos, &gains),
        l.site.esnr_ceiling_db(pos),
    )
}

proptest! {
    #[test]
    fn esnr_below_instant_bound_below_static_ceiling(
        params in (0u64..1_000_000, 0u32..3, 0u32..4),
        samples in proptest::collection::vec((0u64..60_000_000, 0u32..4_000, 0u32..4), 1..24),
    ) {
        let (seed, k_idx, loss_idx) = params;
        let l = link(seed, k_db(k_idx), extra_loss_db(loss_idx));
        for &(us, pos_q, m_idx) in &samples {
            let t = SimTime::from_micros(us);
            let pos = Position::new(f64::from(pos_q) * 0.05, 0.0);
            let (exact, bound, ceiling) = rungs(&l, t, pos, MODS[m_idx as usize]);
            prop_assert!(exact <= bound + TOL_DB, "esnr {exact} above bound {bound}");
            prop_assert!(bound <= ceiling + TOL_DB, "bound {bound} above ceiling {ceiling}");
            let (snr, rssi) = (l.snr_db_at(t, pos), l.rssi_dbm_at(t, pos));
            prop_assert!(snr <= ceiling + TOL_DB, "snr {snr} above ceiling {ceiling}");
            let rssi_ceiling = l.site.rssi_ceiling_dbm(pos);
            prop_assert!(rssi <= rssi_ceiling + TOL_DB, "rssi {rssi} above {rssi_ceiling}");
        }
    }

    #[test]
    fn site_ceilings_are_the_realizations(
        params in (0u64..1_000_000, 0u32..3, 0u32..4),
        positions in proptest::collection::vec(0u32..4_000, 1..24),
    ) {
        let (seed, k_idx, loss_idx) = params;
        let k = k_db(k_idx);
        let l = link(seed, k, extra_loss_db(loss_idx));
        let peak = l.fading.peak_gain_db();
        prop_assert_eq!(fading::peak_gain_db(k).to_bits(), peak.to_bits());
        for &pos_q in &positions {
            let pos = Position::new(f64::from(pos_q) * 0.05, 0.0);
            let mean = l.mean_snr_db(pos);
            prop_assert_eq!(l.site.esnr_ceiling_db(pos).to_bits(), (mean + peak).to_bits());
            let rssi = mean + peak + l.site.budget.noise_floor_dbm;
            prop_assert_eq!(l.site.rssi_ceiling_dbm(pos).to_bits(), rssi.to_bits());
        }
    }

    #[test]
    fn gram_form_is_the_wideband_gain(
        params in (0u64..1_000_000, 0u32..3),
        instants in proptest::collection::vec(0u64..60_000_000, 1..24),
    ) {
        let (seed, k_idx) = params;
        let fp = FadingProcess::new(RngStream::root(seed).derive("prop-gram"), 6.7, k_db(k_idx));
        for &us in &instants {
            let t = SimTime::from_micros(us);
            let swept = fp.wideband_gain_at(t);
            let gram = fp.wideband_gain_of(&fp.tap_gains_at(t));
            prop_assert!(
                (gram - swept).abs() <= 1e-12 * swept,
                "gᴴGg {gram} vs swept {swept}"
            );
        }
    }

    #[test]
    fn split_kernel_keeps_every_bit_on_every_backend(
        params in (0u64..1_000_000, 0u32..3),
        samples in proptest::collection::vec((0u64..60_000_000, 0u32..4_000, 0u32..4), 1..12),
    ) {
        let (seed, k_idx) = params;
        let l = link(seed, k_db(k_idx), 22.0);
        for &(us, pos_q, m_idx) in &samples {
            let t = SimTime::from_micros(us);
            let want = l.fading.powers_at_with(Backend::Scalar, t);
            let scalar_gains = l.fading.tap_gains_at_with(Backend::Scalar, t);
            for b in BACKENDS {
                let gains = l.fading.tap_gains_at_with(b, t);
                prop_assert_eq!(gains, scalar_gains);
                let got = l.fading.powers_from_gains_with(b, &gains);
                for k in 0..NUM_SUBCARRIERS {
                    prop_assert_eq!(got[k].to_bits(), want[k].to_bits(), "{:?} sc {}", b, k);
                }
            }
            // And through the link: the exact rung fed with the gains the
            // bound rung left behind is `esnr_db_at`, memo state included.
            let pos = Position::new(f64::from(pos_q) * 0.05, 0.0);
            let m = MODS[m_idx as usize];
            let (cold, fed) = (l.clone(), l.clone());
            let gains = fed.fading.tap_gains_at(t);
            fed.esnr_bound_db_at(t, pos, &gains);
            prop_assert_eq!(fed.esnr_memo(t, pos, m), None);
            let got = fed.esnr_db_from_gains(t, pos, m, &gains);
            prop_assert_eq!(got.to_bits(), cold.esnr_db_at(t, pos, m).to_bits());
            prop_assert_eq!(fed.esnr_memo(t, pos, m).map(f64::to_bits), Some(got.to_bits()));
            prop_assert_eq!(fed.snr_db_at(t, pos).to_bits(), cold.snr_db_at(t, pos).to_bits());
            prop_assert_eq!(fed.work(), cold.work());
        }
    }
}

/// The margin's evidence: a fixed sweep over every link kind of this
/// suite, reporting how close the bounds come to what they bound and how
/// far floats ever carry a value past its bound.
#[test]
fn margin_is_a_thousand_times_the_worst_violation() {
    let mut slack_bound = f64::INFINITY;
    let mut slack_ceiling = f64::INFINITY;
    let mut worst = 0.0f64;
    let mut saturated = 0;
    let mut dead = 0;
    let mut n = 0;
    for seed in 0..12u64 {
        for loss_idx in 0..4 {
            let l = link(seed, k_db(seed as u32), extra_loss_db(loss_idx));
            for step in 0..300u64 {
                let t = SimTime::from_micros(step * 7_919 + seed * 131);
                let pos = Position::new((step % 200) as f64 + 0.37 * seed as f64, 0.0);
                for m in MODS {
                    let (exact, bound, ceiling) = rungs(&l, t, pos, m);
                    slack_bound = slack_bound.min(bound - exact);
                    slack_ceiling = slack_ceiling.min(ceiling - bound);
                    worst = worst.max(exact - bound).max(bound - ceiling);
                    saturated += usize::from(exact == linear_to_db(m.snr_for_ber(0.0)));
                    dead += usize::from(exact < -120.0);
                    n += 1;
                }
            }
        }
    }
    println!(
        "{n} link-instants ({dead} below -120 dB): smallest slack bound-esnr {slack_bound:.3e} dB, \
         ceiling-bound {slack_ceiling:.3e} dB; worst violation {worst:.3e} dB; \
         margin {BOUND_MARGIN_DB} dB"
    );
    assert!(
        dead > 1_000 && saturated > 1_000,
        "the sweep lost its edge cases"
    );
    assert!(
        BOUND_MARGIN_DB >= 1000.0 * worst,
        "margin {BOUND_MARGIN_DB} dB vs worst violation {worst:e} dB"
    );
}
