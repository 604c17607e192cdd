//! `LinkSite::mean_snr_db` against its definition, composed from the
//! public API: `bearing_to` → `angle_between` →
//! `ParabolicAntenna::gain_dbi` → `PathLossModel::loss_db`, with the
//! testbed's budget and a 0 dBi client antenna, bit for bit.
//!
//! The site reads the antenna's sidelobe floor from a dot product once
//! the client is more than 1e-6 rad past the floor's edge, so the cases
//! sample the angle off boresight uniformly and also within ±1e-6 rad of
//! that shortcut's edge, for boresights all round the circle.

use proptest::prelude::*;
use wgtt_radio::geometry::angle_between;
use wgtt_radio::{LinkBudget, LinkSite, ParabolicAntenna, PathLossModel, Position};

/// The mean SNR as the site defines it.
fn composed(
    ap: Position,
    boresight: f64,
    antenna: ParabolicAntenna,
    pathloss: PathLossModel,
    client: Position,
) -> f64 {
    let budget = LinkBudget::testbed();
    let off = angle_between(ap.bearing_to(client), boresight);
    let gain = antenna.gain_dbi(off) + 0.0;
    budget.tx_power_dbm + gain - pathloss.loss_db(ap.distance_to(client)) - budget.noise_floor_dbm
}

proptest! {
    #[test]
    fn mean_snr_is_the_composed_pattern_bit_for_bit(
        ap in (-500.0f64..500.0, -50.0f64..50.0),
        boresight in -3.2f64..3.2,
        pattern in (5.0f64..90.0, 0.0f64..40.0, 0.0f64..20.0),
        near_edge in 0u32..3,
        angle in (-3.2f64..3.2, -2e-6f64..2e-6),
        dist in 0.01f64..400.0,
        extra_loss_db in -10.0f64..30.0,
    ) {
        let antenna = ParabolicAntenna {
            peak_gain_dbi: pattern.2,
            beamwidth_deg: pattern.0,
            sidelobe_db: pattern.1,
        };
        let pathloss = PathLossModel { extra_loss_db, ..PathLossModel::roadside() };
        let ap = Position::new(ap.0, ap.1);
        // A third of the cases put the client within 2e-6 rad of the
        // floor's edge plus the 1e-6 rad margin, on either side of it.
        let edge = antenna.beamwidth_deg.to_radians() * (antenna.sidelobe_db / 12.0).sqrt();
        let off = if near_edge == 0 {
            (edge + 1e-6 + angle.1) * angle.0.signum()
        } else {
            angle.0
        };
        let client = Position::new(
            ap.x + dist * (boresight + off).cos(),
            ap.y + dist * (boresight + off).sin(),
        );
        let site = LinkSite::new(ap, boresight, antenna, pathloss, 3.0);
        let want = composed(ap, boresight, antenna, pathloss, client);
        prop_assert_eq!(
            site.mean_snr_db(client).to_bits(),
            want.to_bits(),
            "client {:?} at {} rad off a {} rad boresight", client, off, boresight
        );
    }
}

/// The testbed's antenna along the road: APs at three offsets, clients
/// on a 0.25 m grid, four ways of pointing the antenna.
#[test]
fn testbed_sites_along_the_road_are_the_composed_pattern() {
    let (antenna, pathloss) = (ParabolicAntenna::laird_gd24bp(), PathLossModel::roadside());
    for boresight in [-std::f64::consts::FRAC_PI_2, -1.2, 0.3, 2.9] {
        for ap_x in [0.0, 7.5, 52.5] {
            let ap = Position::new(ap_x, 12.0);
            let site = LinkSite::new(ap, boresight, antenna, pathloss, 3.0);
            for i in -400..=400 {
                let client = Position::new(f64::from(i) * 0.25, f64::from(i % 3) * 3.5);
                let want = composed(ap, boresight, antenna, pathloss, client);
                assert_eq!(
                    site.mean_snr_db(client).to_bits(),
                    want.to_bits(),
                    "{client:?}"
                );
            }
        }
    }
}
