//! Antenna radiation patterns.
//!
//! Each testbed AP uses a 14 dBi Laird parabolic grid antenna with a 21°
//! half-power beamwidth (paper §4.2). The narrow mainlobe is what makes
//! the *picocell* cells only ≈ 5 m wide along the road, and the sidelobes
//! are what lets neighbouring APs still overhear clients (and, per §5.3.2,
//! what staggers link-layer ACKs enough to avoid collisions). Clients use
//! the laptops' built-in omnidirectional antennas.

/// Parabolic/directional antenna with a quadratic (Gaussian-beam) mainlobe
/// rolloff and a flat sidelobe floor — the standard 3GPP-style pattern
/// `G(θ) = G_max − min(12·(θ/θ_3dB)², A_sl)`.
#[derive(Debug, Clone, Copy)]
pub struct ParabolicAntenna {
    /// Peak (boresight) gain, dBi. Laird GD24BP: 14 dBi.
    pub peak_gain_dbi: f64,
    /// Half-power (−3 dB) beamwidth, degrees. Laird GD24BP: 21°.
    pub beamwidth_deg: f64,
    /// Sidelobe attenuation relative to peak, dB (positive number).
    pub sidelobe_db: f64,
}

impl ParabolicAntenna {
    /// The testbed's antenna: 14 dBi, 21° beamwidth, 25 dB sidelobe floor.
    pub fn laird_gd24bp() -> Self {
        ParabolicAntenna {
            peak_gain_dbi: 14.0,
            beamwidth_deg: 21.0,
            sidelobe_db: 25.0,
        }
    }

    /// Gain in dBi at `angle_rad` off boresight (radians, `[0, π]`).
    pub fn gain_dbi(&self, angle_rad: f64) -> f64 {
        let theta_deg = angle_rad.to_degrees().abs();
        let rolloff = 12.0 * (theta_deg / self.beamwidth_deg).powi(2);
        self.peak_gain_dbi - rolloff.min(self.sidelobe_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boresight_is_peak() {
        let a = ParabolicAntenna::laird_gd24bp();
        assert_eq!(a.gain_dbi(0.0), 14.0);
    }

    #[test]
    fn half_beamwidth_is_minus_3db() {
        let a = ParabolicAntenna::laird_gd24bp();
        let g = a.gain_dbi((21.0f64 / 2.0).to_radians());
        assert!((g - 11.0).abs() < 1e-9, "gain at θ3dB/2 = {g}");
    }

    #[test]
    fn sidelobe_floor_caps_rolloff() {
        let a = ParabolicAntenna::laird_gd24bp();
        let g90 = a.gain_dbi(std::f64::consts::FRAC_PI_2);
        assert!((g90 - (14.0 - 25.0)).abs() < 1e-9);
        // Way past the floor the gain stays put.
        assert_eq!(g90, a.gain_dbi(std::f64::consts::PI));
    }

    #[test]
    fn pattern_is_symmetric_and_monotone_in_mainlobe() {
        let a = ParabolicAntenna::laird_gd24bp();
        assert_eq!(a.gain_dbi(0.2), a.gain_dbi(-0.2));
        let mut prev = a.gain_dbi(0.0);
        for i in 1..20 {
            let g = a.gain_dbi(i as f64 * 0.01);
            assert!(g <= prev, "mainlobe must roll off monotonically");
            prev = g;
        }
    }
}
