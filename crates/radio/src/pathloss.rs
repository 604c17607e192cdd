//! Large-scale propagation loss.
//!
//! A log-distance model, the standard abstraction for roadside microcell
//! propagation: `PL(d) = PL₀ + 10·n·log₁₀(d/d₀)`. The reference loss PL₀
//! absorbs the 2.4 GHz free-space constant; `extra_loss_db` absorbs the
//! fixed implementation losses of the real testbed (RF splitter-combiner,
//! coax pigtails, through-window penetration) that the paper's link budget
//! implies — see DESIGN.md §2 for the calibration rationale.

/// Log-distance path-loss model.
#[derive(Debug, Clone, Copy)]
pub struct PathLossModel {
    /// Reference loss at `d₀ = 1 m`, dB. Free space at 2.4 GHz ≈ 40 dB.
    pub pl0_db: f64,
    /// Path-loss exponent `n`. Free space = 2; roadside with ground and
    /// building reflections ≈ 2.7.
    pub exponent: f64,
    /// Fixed additional loss (splitter, cabling, window penetration), dB.
    pub extra_loss_db: f64,
}

impl PathLossModel {
    /// Calibrated model for the Fig. 9 testbed (see DESIGN.md §2): with the
    /// 14 dBi antenna this yields ≈ 5 m mainlobe cells and 6–10 m of
    /// usable overlap between adjacent APs, matching §2 and Fig. 10.
    pub const fn roadside() -> Self {
        PathLossModel {
            pl0_db: 40.0,
            exponent: 2.7,
            extra_loss_db: 22.0,
        }
    }

    /// Path loss in dB at distance `dist_m` metres. Distances below 1 m
    /// clamp to the reference distance.
    pub fn loss_db(&self, dist_m: f64) -> f64 {
        let d = dist_m.max(1.0);
        self.pl0_db + 10.0 * self.exponent * d.log10() + self.extra_loss_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_distance_loss() {
        let m = PathLossModel {
            pl0_db: 40.0,
            exponent: 2.0,
            extra_loss_db: 0.0,
        };
        assert!((m.loss_db(1.0) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn decade_adds_10n_db() {
        let m = PathLossModel {
            pl0_db: 40.0,
            exponent: 2.7,
            extra_loss_db: 0.0,
        };
        let d10 = m.loss_db(10.0) - m.loss_db(1.0);
        assert!((d10 - 27.0).abs() < 1e-9);
        let d100 = m.loss_db(100.0) - m.loss_db(10.0);
        assert!((d100 - 27.0).abs() < 1e-9);
    }

    #[test]
    fn sub_metre_clamps() {
        let m = PathLossModel::roadside();
        assert_eq!(m.loss_db(0.1), m.loss_db(1.0));
        assert_eq!(m.loss_db(0.0), m.loss_db(1.0));
    }

    #[test]
    fn monotone_in_distance() {
        let m = PathLossModel::roadside();
        let mut prev = m.loss_db(1.0);
        for d in 2..60 {
            let l = m.loss_db(d as f64);
            assert!(l > prev);
            prev = l;
        }
    }
}
