//! Bit-identity suite for the memoized PHY frame path.
//!
//! The shipping `FadingProcess` draws its realization through the seed
//! implementation (`fading::reference`), and the memoized `Link`
//! sampling must replay the pure `Link::snapshot` computation bit for bit
//! under arbitrary revisit patterns. (The shipping kernels' epsilon
//! contract against the reference lives in `tests/prop_simd.rs`.)

use proptest::prelude::*;
use wgtt_radio::fading::{reference, FadingProcess, NUM_TAPS};
use wgtt_radio::{
    Link, LinkSite, Modulation, ParabolicAntenna, PathLossModel, Position, NUM_SUBCARRIERS,
};
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::SimTime;

/// The K-factors the scenarios exercise plus edge cases: pure Rayleigh,
/// K = 1 (0 dB), and strongly Rician.
fn k_db(idx: u32) -> f64 {
    [f64::NEG_INFINITY, 0.0, 6.0, 9.0][idx as usize % 4]
}

fn modulation(idx: u32) -> Modulation {
    [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ][idx as usize % 4]
}

fn link_pair(seed: u64, speed_mps: f64, k: f64) -> Link {
    LinkSite::new(
        Position::new(0.0, 12.0),
        -std::f64::consts::FRAC_PI_2,
        ParabolicAntenna::laird_gd24bp(),
        PathLossModel::roadside(),
        wgtt_radio::fading::peak_gain_db(k),
    )
    .link(FadingProcess::new(
        RngStream::root(seed).derive("prop-link"),
        speed_mps,
        k,
    ))
}

proptest! {
    /// The construction path through the reference draws the realization
    /// for the fast tables: rebuilding via `from_reference` is the
    /// identity, and tap count stays pinned.
    #[test]
    fn from_reference_is_stable(params in (0u64..1_000_000, 0u32..4)) {
        let (seed, k_idx) = params;
        let stream = RngStream::root(seed).derive("prop-rebuild");
        let oracle = reference::FadingProcess::new(stream, 6.7, k_db(k_idx));
        let a = FadingProcess::from_reference(&oracle);
        let b = FadingProcess::from_reference(&oracle);
        let t = SimTime::from_micros(777);
        prop_assert_eq!(a.wideband_gain_at(t).to_bits(), b.wideband_gain_at(t).to_bits());
        prop_assert_eq!(NUM_TAPS, 6);
    }

    /// Memoized `Link::esnr_db_at` (and repeated `Link::snapshot`s around
    /// it) return the same bits as one fresh snapshot under arbitrary
    /// revisit patterns: repeated instants (memo hits), alternating
    /// modulations at one instant, and position changes at a fixed
    /// instant (memo misses).
    #[test]
    fn memoized_link_sampling_bit_identical(
        params in (0u64..1_000_000, 0u64..2_000, 0u32..4),
        samples in proptest::collection::vec(
            (0u64..20_000_000, 0u32..1_000, 0u32..4, 0u32..3), 1..30),
    ) {
        let (seed, speed_q, k_idx) = params;
        let link = link_pair(seed, speed_q as f64 * 0.01, k_db(k_idx));
        for &(us, pos_q, mod_idx, repeats) in &samples {
            let t = SimTime::from_micros(us);
            let pos = Position::new(pos_q as f64 * 0.05 - 25.0, 0.0);
            let m = modulation(mod_idx);
            // The oracle: one fresh, memo-free computation.
            let want = link.snapshot(t, pos);
            let want_esnr = want.esnr_db(m).to_bits();
            // 1 + repeats memoized queries of the same (t, pos) — the
            // A-MPDU pattern the memo exists for.
            for _ in 0..=repeats {
                let got = link.snapshot(t, pos);
                prop_assert_eq!(got.mean_snr_db.to_bits(), want.mean_snr_db.to_bits());
                prop_assert_eq!(got.snr_db.to_bits(), want.snr_db.to_bits());
                prop_assert_eq!(got.rssi_dbm.to_bits(), want.rssi_dbm.to_bits());
                for kk in 0..NUM_SUBCARRIERS {
                    prop_assert_eq!(got.csi.h[kk].re.to_bits(), want.csi.h[kk].re.to_bits());
                    prop_assert_eq!(got.csi.h[kk].im.to_bits(), want.csi.h[kk].im.to_bits());
                }
                prop_assert_eq!(link.esnr_db_at(t, pos, m).to_bits(), want_esnr);
            }
            // Alternating modulation at the same instant (evicts and
            // refills the single esnr slot) stays exact too.
            let m2 = modulation(mod_idx + 1);
            prop_assert_eq!(
                link.esnr_db_at(t, pos, m2).to_bits(),
                want.esnr_db(m2).to_bits()
            );
            prop_assert_eq!(link.esnr_db_at(t, pos, m).to_bits(), want_esnr);
        }
    }
}
