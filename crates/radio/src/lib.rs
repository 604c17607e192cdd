//! # wgtt-radio — the wireless channel substrate
//!
//! Wi-Fi Goes to Town's whole premise is the *vehicular picocell regime*:
//! meter-scale AP cells whose link quality to a moving client is governed by
//! (a) large-scale distance/antenna fading at second timescales and (b)
//! millisecond-scale fast fading from constructive/destructive multipath
//! (coherence time ≈ 2–3 ms at 2.4 GHz; paper §1, Fig. 2). The original
//! system measured this over real RF with the Atheros CSI Tool. This crate
//! is the simulation substitute: a physically grounded channel model that
//! produces, for any `(link, instant)`, the same data products the testbed
//! produced —
//!
//! * per-subcarrier CSI over the 56 occupied OFDM subcarriers of a 20 MHz
//!   802.11n channel ([`csi::Csi`]),
//! * Effective SNR computed from that CSI exactly as Halperin et al.
//!   define it ([`esnr`]),
//! * RSSI (total received power) for the Enhanced 802.11r baseline, and
//! * per-MPDU delivery probabilities for the MAC layer.
//!
//! The model is a deterministic pure function of time: tap gains are
//! sums-of-sinusoids (Clarke/Jakes with speed-dependent Doppler), so any
//! component may sample the channel at any instant without stateful
//! bookkeeping, and two systems under comparison (WGTT vs the baseline)
//! can experience *bit-identical* channel realizations.

pub mod antenna;
pub mod batch;
pub mod complex;
pub mod csi;
pub mod esnr;
pub mod fading;
pub mod geometry;
pub mod link;
pub mod pathloss;

pub use antenna::{Antenna, IsotropicAntenna, ParabolicAntenna};
pub use complex::Complex;
pub use csi::{Csi, NUM_SUBCARRIERS, SUBCARRIER_SPACING_HZ};
pub use esnr::{effective_snr_db, effective_snr_from_powers, Modulation};
pub use fading::{FadingProcess, TapGains};
pub use geometry::Position;
pub use link::{Link, LinkBudget, LinkSite, LinkSnapshot, LinkWork, BOUND_MARGIN_DB};
pub use pathloss::PathLossModel;

/// Carrier wavelength at 2.4 GHz channel 11 (2.462 GHz), metres.
pub const WAVELENGTH_M: f64 = 0.1218;

/// Convert a dB value to linear power ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear power ratio to dB. Clamps at -300 dB for zero input.
#[inline]
pub fn linear_to_db(lin: f64) -> f64 {
    if lin <= 0.0 {
        -300.0
    } else {
        10.0 * lin.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for db in [-40.0, -3.0, 0.0, 3.0, 20.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_power_is_floor() {
        assert_eq!(linear_to_db(0.0), -300.0);
        assert_eq!(linear_to_db(-1.0), -300.0);
    }
}
