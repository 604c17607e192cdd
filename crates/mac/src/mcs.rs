//! 802.11n MCS table and the ESNR→error model.
//!
//! The testbed AP feeds one spatial stream through the splitter-combiner
//! into the directional antenna (paper §4.2 footnote), on a 20 MHz channel
//! — so the achievable rate set is MCS 0–7 with short guard interval:
//! 7.2–72.2 Mbit/s. This matches the paper's Fig. 16, where WGTT's link
//! bit rate has a 90th percentile of ≈ 70 Mbit/s.
//!
//! Frame delivery is decided by a per-MCS logistic PER curve in Effective
//! SNR, the standard simulator abstraction: ESNR (not raw SNR) is the
//! x-axis precisely because Halperin's result — which the paper builds on
//! — is that ESNR collapses frequency-selective channels onto the AWGN
//! curve. Thresholds are calibrated for 1500-byte MPDUs and scaled by
//! length.

use wgtt_radio::Modulation;

/// Modulation and coding schemes, 20 MHz / 1 spatial stream / short GI.
///
/// ```
/// use wgtt_mac::Mcs;
/// assert_eq!(Mcs::Mcs7.rate_mbps(), 72.2);
/// // Error rates fall with Effective SNR and rise with frame length:
/// assert!(Mcs::Mcs7.per(25.0, 1500) < Mcs::Mcs7.per(18.0, 1500));
/// assert!(Mcs::Mcs4.per(14.0, 3000) > Mcs::Mcs4.per(14.0, 500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Mcs {
    Mcs0,
    Mcs1,
    Mcs2,
    Mcs3,
    Mcs4,
    Mcs5,
    Mcs6,
    Mcs7,
}

/// All MCS values in ascending rate order.
pub const ALL_MCS: [Mcs; 8] = [
    Mcs::Mcs0,
    Mcs::Mcs1,
    Mcs::Mcs2,
    Mcs::Mcs3,
    Mcs::Mcs4,
    Mcs::Mcs5,
    Mcs::Mcs6,
    Mcs::Mcs7,
];

impl Mcs {
    /// Index 0–7.
    pub fn index(self) -> usize {
        self as usize
    }

    /// PHY data rate, Mbit/s (20 MHz, short GI, 1 SS).
    pub fn rate_mbps(self) -> f64 {
        match self {
            Mcs::Mcs0 => 7.2,
            Mcs::Mcs1 => 14.4,
            Mcs::Mcs2 => 21.7,
            Mcs::Mcs3 => 28.9,
            Mcs::Mcs4 => 43.3,
            Mcs::Mcs5 => 57.8,
            Mcs::Mcs6 => 65.0,
            Mcs::Mcs7 => 72.2,
        }
    }

    /// The constellation this MCS uses — the reference for ESNR.
    pub fn modulation(self) -> Modulation {
        match self {
            Mcs::Mcs0 => Modulation::Bpsk,
            Mcs::Mcs1 | Mcs::Mcs2 => Modulation::Qpsk,
            Mcs::Mcs3 | Mcs::Mcs4 => Modulation::Qam16,
            Mcs::Mcs5 | Mcs::Mcs6 | Mcs::Mcs7 => Modulation::Qam64,
        }
    }

    /// ESNR (dB) at which a 1500-byte MPDU sees 50 % error rate.
    fn esnr_t50_db(self) -> f64 {
        match self {
            Mcs::Mcs0 => 1.5,
            Mcs::Mcs1 => 4.5,
            Mcs::Mcs2 => 7.0,
            Mcs::Mcs3 => 10.0,
            Mcs::Mcs4 => 13.5,
            Mcs::Mcs5 => 17.5,
            Mcs::Mcs6 => 19.0,
            Mcs::Mcs7 => 21.0,
        }
    }

    /// Packet error rate for an `len_bytes` MPDU at `esnr_db` Effective
    /// SNR. Logistic in dB around the 1500-byte 50 % point, with the PER
    /// compounded by length (`1 − (1−p)^{len/1500}`). Non-increasing in
    /// `esnr_db` (`crates/mac/tests/prop_per.rs`). Written as the
    /// composition of its two halves, so a caller rolling many lengths
    /// at one ESNR gets these bits from one `exp` and a `powf` each.
    pub fn per(self, esnr_db: f64, len_bytes: u16) -> f64 {
        Mcs::per_from_q(self.q1500(esnr_db), len_bytes)
    }

    /// The length-independent half of [`Mcs::per`]: the probability that
    /// a 1500-byte MPDU gets through at `esnr_db`.
    pub fn q1500(self, esnr_db: f64) -> f64 {
        const STEEPNESS_PER_DB: f64 = 1.6;
        let x = STEEPNESS_PER_DB * (esnr_db - self.esnr_t50_db());
        let p1500 = 1.0 / (1.0 + x.exp());
        1.0 - p1500
    }

    /// The length half of [`Mcs::per`]: the error rate of a `len_bytes`
    /// MPDU given `q = q1500(esnr_db)`.
    pub fn per_from_q(q: f64, len_bytes: u16) -> f64 {
        let scale = f64::from(len_bytes.max(1)) / 1500.0;
        1.0 - q.powf(scale)
    }

    /// Expected goodput (Mbit/s × delivery probability) for 1500-byte
    /// MPDUs at the given ESNR — what rate adaptation maximizes.
    pub fn expected_goodput_mbps(self, esnr_db: f64) -> f64 {
        self.rate_mbps() * (1.0 - self.per(esnr_db, 1500))
    }

    /// The highest MCS whose 1500-byte PER is below 10 % at `esnr_db`,
    /// or `None` if even MCS0 would mostly fail. This is the "oracle"
    /// rate pick used to compute channel capacity in the Fig. 4/21
    /// capacity-loss metrics.
    pub fn best_for_esnr(esnr_db: f64) -> Option<Mcs> {
        ALL_MCS
            .iter()
            .rev()
            .find(|m| m.per(esnr_db, 1500) < 0.10)
            .copied()
    }
}

/// Achievable link capacity (Mbit/s of PHY rate × success probability,
/// maximized over MCS) at a given ESNR. Zero when no MCS works. This is
/// the "channel capacity" integrand of the paper's capacity-loss metric
/// (Fig. 4 shaded area, Fig. 21 window sweep).
pub fn capacity_mbps(esnr_db: f64) -> f64 {
    ALL_MCS
        .iter()
        .map(|m| m.expected_goodput_mbps(esnr_db))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_strictly_increase() {
        for w in ALL_MCS.windows(2) {
            assert!(w[1].rate_mbps() > w[0].rate_mbps());
        }
    }

    #[test]
    fn thresholds_strictly_increase() {
        for w in ALL_MCS.windows(2) {
            assert!(w[1].esnr_t50_db() > w[0].esnr_t50_db());
        }
    }

    #[test]
    fn per_monotone_in_esnr() {
        for m in ALL_MCS {
            let mut prev = m.per(-5.0, 1500);
            for i in -4..35 {
                let p = m.per(i as f64, 1500);
                assert!(p <= prev);
                prev = p;
            }
        }
    }

    #[test]
    fn per_is_its_two_halves() {
        // The seed's single expression, kept here as the oracle.
        fn seed_per(m: Mcs, esnr_db: f64, len_bytes: u16) -> f64 {
            let x = 1.6 * (esnr_db - m.esnr_t50_db());
            let p1500 = 1.0 / (1.0 + x.exp());
            let scale = f64::from(len_bytes.max(1)) / 1500.0;
            1.0 - (1.0 - p1500).powf(scale)
        }
        for m in ALL_MCS {
            for step in -1200..=1000 {
                let esnr = f64::from(step) * 0.05;
                let q = m.q1500(esnr);
                // Every length at a coarse ESNR stride, a spread of
                // lengths (both ends, the MTU, the control sizes) at
                // every grid point.
                let lens: Vec<u16> = if step % 100 == 0 {
                    (0..=u16::MAX).collect()
                } else {
                    vec![0, 1, 2, 32, 40, 64, 1499, 1500, 1501, 4095, 65_534, 65_535]
                };
                for len in lens {
                    let want = seed_per(m, esnr, len).to_bits();
                    assert_eq!(m.per(esnr, len).to_bits(), want, "{m:?} {esnr} {len}");
                    assert_eq!(Mcs::per_from_q(q, len).to_bits(), want);
                }
            }
        }
        for e in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -535.0, 300.0] {
            let got = Mcs::Mcs2.per(e, 64);
            assert_eq!(got.to_bits(), seed_per(Mcs::Mcs2, e, 64).to_bits());
        }
    }

    #[test]
    fn per_at_t50_is_half() {
        for m in ALL_MCS {
            let p = m.per(m.esnr_t50_db(), 1500);
            assert!((p - 0.5).abs() < 1e-9, "{m:?} PER at t50 = {p}");
        }
    }

    #[test]
    fn longer_frames_fail_more() {
        let m = Mcs::Mcs4;
        let esnr = m.esnr_t50_db() + 2.0;
        assert!(m.per(esnr, 3000) > m.per(esnr, 1500));
        assert!(m.per(esnr, 1500) > m.per(esnr, 100));
    }

    #[test]
    fn high_esnr_delivers_everything() {
        for m in ALL_MCS {
            assert!(m.per(35.0, 1500) < 0.01, "{m:?}");
        }
    }

    #[test]
    fn best_for_esnr_tracks_quality() {
        assert_eq!(Mcs::best_for_esnr(-5.0), None);
        assert_eq!(Mcs::best_for_esnr(4.0), Some(Mcs::Mcs0));
        assert_eq!(Mcs::best_for_esnr(30.0), Some(Mcs::Mcs7));
        // Monotone: more ESNR never picks a slower best MCS.
        let mut prev = -1i32;
        for e in -5..35 {
            let idx = Mcs::best_for_esnr(e as f64).map_or(-1, |m| m.index() as i32);
            assert!(idx >= prev, "best MCS regressed at {e} dB");
            prev = idx;
        }
    }

    #[test]
    fn capacity_is_monotone_and_saturates() {
        let mut prev = capacity_mbps(-10.0);
        assert_eq!(prev, 0.0 + prev); // starts tiny
        for e in -9..40 {
            let c = capacity_mbps(e as f64);
            assert!(c >= prev - 1e-9);
            prev = c;
        }
        assert!((capacity_mbps(40.0) - 72.2).abs() < 0.5);
    }

    #[test]
    fn goodput_crossover_exists() {
        // At low ESNR a low MCS must beat MCS7; at high ESNR vice versa.
        assert!(Mcs::Mcs0.expected_goodput_mbps(4.0) > Mcs::Mcs7.expected_goodput_mbps(4.0));
        assert!(Mcs::Mcs7.expected_goodput_mbps(30.0) > Mcs::Mcs0.expected_goodput_mbps(30.0));
    }

    #[test]
    fn index_roundtrip() {
        for (i, m) in ALL_MCS.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }
}
