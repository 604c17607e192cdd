//! Differential suite for the vectorized SoA PHY (the tentpole of the
//! SIMD frame-path change).
//!
//! The shipping `FadingProcess`/ESNR sweep run on `f64 × 8` lanes with
//! branchless vector transcendentals. The scalar oracle is the seed
//! channel (`fading::reference`, libm transcendentals, array of
//! `Complex`) swept by `scalar_esnr_db`, one libm `Modulation::ber` per
//! subcarrier. These properties pin the SIMD path to that oracle four
//! ways:
//!
//! 1. **epsilon**: end-to-end ESNR (fused powers → lane BER sweep →
//!    inversion) within 1e-6 dB of the scalar oracle on random links,
//!    times, positions and modulations (in practice ~1e-9 dB — the only
//!    deviations are the faithful vector sin/cos/exp);
//! 2. **backend invariance**: bit-identical results on
//!    scalar/AVX2/AVX-512 dispatch (requests clamp to what the CPU runs,
//!    so this suite is meaningful on any host and exhaustive on AVX
//!    hardware) and at every lane width;
//! 3. **batch ≡ single**: the multi-AP batch entry points return the
//!    exact bits of per-link queries, primed or cold;
//! 4. **verdict identity**: an `ApSelector` fed by the SIMD path issues
//!    identical best-AP/switch verdicts as one fed by the scalar oracle
//!    — including exact ties at the ESNR saturation ceiling, which must
//!    remain *true* float ties under the lane sweep so the lowest-id
//!    tie-break sees them.

use proptest::prelude::*;
use wgtt::selection::ApSelector;
use wgtt_mac::frame::NodeId;
use wgtt_radio::esnr::{self, Modulation};
use wgtt_radio::fading::{reference, FadingProcess};
use wgtt_radio::{
    batch, db_to_linear, effective_snr_db, effective_snr_from_powers, linear_to_db, Csi, Link,
    LinkSite, ParabolicAntenna, PathLossModel, Position, NUM_SUBCARRIERS,
};
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::{SimDuration, SimTime};
use wgtt_simd::Backend;

const MODS: [Modulation; 4] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
];

/// Acceptance bound on |SIMD − scalar oracle|, in dB.
const TOL_DB: f64 = 1e-6;

fn k_db(idx: u32) -> f64 {
    [f64::NEG_INFINITY, 0.0, 6.0, 9.0][idx as usize % 4]
}

/// Matched (SIMD, scalar-oracle) fading pair drawn from one stream — the
/// realizations are identical by construction.
fn fading_pair(seed: u64, speed_mps: f64, k: f64) -> (FadingProcess, reference::FadingProcess) {
    let stream = RngStream::root(seed).derive("prop-simd");
    (
        FadingProcess::new(stream, speed_mps, k),
        reference::FadingProcess::new(stream, speed_mps, k),
    )
}

/// The scalar ESNR oracle: the subcarrier-mean of libm
/// [`Modulation::ber`], inverted by the shipping
/// [`Modulation::snr_for_ber`] — so only the sweep differs from the lane
/// path, not the inversion (`prop_esnr` owns that epsilon).
fn scalar_esnr_db(csi: &Csi, mean_snr_db: f64, m: Modulation) -> f64 {
    let mean_snr = db_to_linear(mean_snr_db);
    let mut ber_acc = 0.0;
    for h in &csi.h {
        ber_acc += m.ber(mean_snr * h.norm_sq());
    }
    linear_to_db(m.snr_for_ber(ber_acc / csi.h.len() as f64))
}

fn ap_link(seed: u64, x: f64) -> Link {
    LinkSite::new(
        Position::new(x, 12.0),
        -std::f64::consts::FRAC_PI_2,
        ParabolicAntenna::laird_gd24bp(),
        PathLossModel::roadside(),
        wgtt_radio::fading::peak_gain_db(6.0),
    )
    .link(FadingProcess::new(
        RngStream::root(seed).derive("prop-simd-link"),
        6.7,
        6.0,
    ))
}

proptest! {
    /// End-to-end epsilon: fused SoA synthesis + lane BER sweep vs the
    /// scalar oracle, over random links, instants and modulations.
    #[test]
    fn simd_esnr_within_tolerance_of_scalar_oracle(
        params in (0u64..1_000_000, 0u64..2_000, 0u32..4),
        samples in proptest::collection::vec((0u64..20_000_000, -25.0f64..55.0, 0u32..4), 1..25),
    ) {
        let (seed, speed_q, k_idx) = params;
        let (simd, oracle) = fading_pair(seed, speed_q as f64 * 0.01, k_db(k_idx));
        for &(us, mean_snr_db, mod_idx) in &samples {
            let t = SimTime::from_micros(us);
            let m = MODS[mod_idx as usize];
            let fast = effective_snr_from_powers(&simd.powers_at(t), mean_snr_db, m);
            let want = scalar_esnr_db(&oracle.csi_at(t), mean_snr_db, m);
            prop_assert!(
                (fast - want).abs() <= TOL_DB,
                "seed {} t={:?} {:?}: simd {} vs scalar {}", seed, t, m, fast, want
            );
        }
    }

    /// The raw channel products track the oracle too (tight absolute
    /// bound — unit-mean-power values, deviations are transcendental
    /// rounding only).
    #[test]
    fn simd_channel_tracks_scalar_oracle(
        params in (0u64..1_000_000, 0u64..2_000, 0u32..4),
        times_us in proptest::collection::vec(0u64..20_000_000, 1..20),
    ) {
        let (seed, speed_q, k_idx) = params;
        let (simd, oracle) = fading_pair(seed, speed_q as f64 * 0.01, k_db(k_idx));
        for &us in &times_us {
            let t = SimTime::from_micros(us);
            let (a, b) = (simd.csi_at(t), oracle.csi_at(t));
            for kk in 0..NUM_SUBCARRIERS {
                prop_assert!((a.h[kk].re - b.h[kk].re).abs() < 1e-10);
                prop_assert!((a.h[kk].im - b.h[kk].im).abs() < 1e-10);
            }
            prop_assert!((simd.wideband_gain_at(t) - oracle.wideband_gain_at(t)).abs() < 1e-10);
        }
    }

    /// Backend invariance: every dispatch target returns the same bits
    /// (lane kernels are element-wise IEEE arithmetic in fixed order —
    /// requests above hardware support clamp down, so on a non-AVX host
    /// the comparison is trivially exact, and CI runs this pinned both
    /// ways).
    #[test]
    fn simd_kernels_bit_identical_across_backends(
        params in (0u64..1_000_000, 0u32..4),
        samples in proptest::collection::vec((0u64..20_000_000, -25.0f64..55.0, 0u32..4), 1..15),
    ) {
        let (seed, k_idx) = params;
        let (simd, _) = fading_pair(seed, 6.7, k_db(k_idx));
        for &(us, mean_snr_db, mod_idx) in &samples {
            let t = SimTime::from_micros(us);
            let m = MODS[mod_idx as usize];
            let base_csi = simd.csi_at_with(Backend::Scalar, t);
            let base_powers = simd.powers_at_with(Backend::Scalar, t);
            let base_esnr =
                esnr::effective_snr_from_powers_with(Backend::Scalar, &base_powers, mean_snr_db, m);
            for b in [Backend::Avx2, Backend::Avx512] {
                let csi = simd.csi_at_with(b, t);
                for kk in 0..NUM_SUBCARRIERS {
                    prop_assert_eq!(base_csi.h[kk].re.to_bits(), csi.h[kk].re.to_bits());
                    prop_assert_eq!(base_csi.h[kk].im.to_bits(), csi.h[kk].im.to_bits());
                }
                let powers = simd.powers_at_with(b, t);
                for kk in 0..NUM_SUBCARRIERS {
                    prop_assert_eq!(base_powers[kk].to_bits(), powers[kk].to_bits());
                }
                let e = esnr::effective_snr_from_powers_with(b, &powers, mean_snr_db, m);
                prop_assert_eq!(base_esnr.to_bits(), e.to_bits());
            }
        }
    }

    /// Lane-width invariance of the vector transcendentals on the PHY's
    /// actual argument ranges (`ω·t` up to ~1e6 rad; erfc-Horner
    /// arguments are moderate negatives).
    #[test]
    fn transcendental_lane_widths_bit_invariant(
        xs in proptest::collection::vec(-1.5e6f64..1.5e6, 1..70),
    ) {
        let n = xs.len();
        let (mut s1, mut c1) = (vec![0.0; n], vec![0.0; n]);
        wgtt_simd::math::sincos_lanes::<1>(&xs, &mut s1, &mut c1);
        let es: Vec<f64> = xs.iter().map(|x| -(x.abs() * 1e-6) - 0.1).collect();
        let mut e1 = vec![0.0; n];
        wgtt_simd::math::exp_lanes::<1>(&es, &mut e1);
        macro_rules! check_width {
            ($w:literal) => {{
                let (mut s, mut c) = (vec![0.0; n], vec![0.0; n]);
                wgtt_simd::math::sincos_lanes::<$w>(&xs, &mut s, &mut c);
                let mut e = vec![0.0; n];
                wgtt_simd::math::exp_lanes::<$w>(&es, &mut e);
                for i in 0..n {
                    prop_assert_eq!(s1[i].to_bits(), s[i].to_bits());
                    prop_assert_eq!(c1[i].to_bits(), c[i].to_bits());
                    prop_assert_eq!(e1[i].to_bits(), e[i].to_bits());
                }
            }};
        }
        check_width!(2);
        check_width!(4);
        check_width!(8);
    }

    /// Batch ≡ single: the multi-AP map returns per-link bits exactly,
    /// whether the memos are cold, primed, or revisited, on every
    /// backend dispatch.
    #[test]
    fn batch_map_bit_identical_to_per_link_queries(
        params in (0u64..100_000, 1usize..10, 0u32..4),
        samples in proptest::collection::vec((0u64..10_000_000, 0u32..1_000), 1..10),
    ) {
        let (seed, n_aps, mod_idx) = params;
        let m = MODS[mod_idx as usize];
        let links: Vec<Link> = (0..n_aps)
            .map(|i| ap_link(seed + i as u64, i as f64 * 7.5))
            .collect();
        let mut out = Vec::new();
        for &(us, pos_q) in &samples {
            let t = SimTime::from_micros(us);
            let pos = Position::new(pos_q as f64 * 0.05 - 25.0, 0.0);
            batch::esnr_map(links.iter(), t, pos, m, &mut out);
            prop_assert_eq!(out.len(), links.len());
            for (link, &batched) in links.iter().zip(out.iter()) {
                let single = link.esnr_db_at(t, pos, m);
                prop_assert_eq!(batched.to_bits(), single.to_bits());
                let uncached = link.snapshot(t, pos).esnr_db(m);
                prop_assert_eq!(batched.to_bits(), uncached.to_bits());
            }
        }
    }

    /// Verdict identity: selectors replaying the same random link
    /// history — one through the SIMD pipeline, one through the scalar
    /// oracle — agree on every `best()` AP and `evaluate()` verdict.
    /// The 55 dB end of the SNR range saturates several modulations to
    /// their exact ESNR ceiling, so this also exercises saturation ties
    /// under the lane sweep.
    #[test]
    fn selector_verdicts_identical_under_simd_path(
        mod_idx in 0usize..4,
        steps in proptest::collection::vec(
            (0u64..4, -25.0f64..55.0, 0u64..50_000, 0u64..30_000),
            1..50,
        ),
    ) {
        let m = MODS[mod_idx];
        let pairs: Vec<(FadingProcess, reference::FadingProcess)> = (0..4)
            .map(|i| fading_pair(1000 + i, 6.7, k_db(i as u32)))
            .collect();
        let knobs = (SimDuration::from_millis(100), SimDuration::from_millis(40), 2.0);
        let mut simd_sel = ApSelector::new(knobs.0, knobs.1, knobs.2);
        let mut ref_sel = ApSelector::new(knobs.0, knobs.1, knobs.2);
        let mut t = SimTime::ZERO;
        for (ap_idx, snr_db, dt_us, sample_us) in steps {
            t += SimDuration::from_micros(dt_us + 1);
            let ap = NodeId(ap_idx as u32 + 1);
            let (simd_fp, oracle_fp) = &pairs[ap_idx as usize];
            let ts = SimTime::from_micros(sample_us);
            let fast = effective_snr_from_powers(&simd_fp.powers_at(ts), snr_db, m);
            let want = scalar_esnr_db(&oracle_fp.csi_at(ts), snr_db, m);
            simd_sel.record(ap, t, fast);
            ref_sel.record(ap, t, want);

            match (simd_sel.best(t), ref_sel.best(t)) {
                (None, None) => {}
                (Some((fa, fv)), Some((ra, rv))) => {
                    prop_assert_eq!(fa, ra, "best AP diverged at t={:?}", t);
                    prop_assert!((fv - rv).abs() <= TOL_DB, "best value diverged: {} vs {}", fv, rv);
                }
                other => prop_assert!(false, "best() presence diverged: {:?}", other),
            }
            prop_assert_eq!(simd_sel.evaluate(t), ref_sel.evaluate(t), "verdict diverged at t={:?}", t);
            prop_assert_eq!(simd_sel.current(), ref_sel.current());
        }
    }

    /// Saturation ties stay exact under the SIMD path: links pinned to
    /// the ESNR ceiling produce one identical float on both paths, so
    /// the selector's lowest-id tie-break sees a true tie.
    #[test]
    fn saturation_ceiling_exact_between_paths(seed in 0u64..100_000, us in 0u64..10_000_000) {
        let (simd, oracle) = fading_pair(seed, 6.7, 9.0);
        let t = SimTime::from_micros(us);
        for m in MODS {
            // 90 dB mean SNR: every subcarrier BER underflows the 1e-12
            // clamp floor on any realization.
            let fast = effective_snr_from_powers(&simd.powers_at(t), 90.0, m);
            let want = scalar_esnr_db(&oracle.csi_at(t), 90.0, m);
            prop_assert_eq!(fast.to_bits(), want.to_bits(), "{:?} ceiling not exact", m);
            // And the ceiling is the same exact value as a flat channel's.
            let flat = effective_snr_db(&Csi::flat(), 90.0, m);
            prop_assert_eq!(fast.to_bits(), flat.to_bits());
        }
    }
}
