//! Multi-AP ESNR maps.
//!
//! When a client transmits one uplink frame, *every* AP within decode
//! range overhears it and reports an ESNR to the controller — the fan-out
//! the paper's §3.1 measurement pipeline is built on. [`esnr_map`] is
//! that per-(AP, modulation) map: one [`Link::esnr_db_at`] per link, each
//! left in the link's memo, so map and per-link evaluation are
//! bit-identical by construction — `tests/prop_simd.rs` pins exactly
//! that.

use crate::esnr::Modulation;
use crate::geometry::Position;
use crate::link::Link;
use wgtt_sim::time::SimTime;

/// Evaluate the ESNR map of every link in `links` for a client at
/// `client_pos` transmitting at instant `t`, into `out` (cleared first;
/// one entry per link, in iteration order).
pub fn esnr_map<'a, I>(
    links: I,
    t: SimTime,
    client_pos: Position,
    modulation: Modulation,
    out: &mut Vec<f64>,
) where
    I: IntoIterator<Item = &'a Link>,
{
    out.clear();
    out.extend(
        links
            .into_iter()
            .map(|l| l.esnr_db_at(t, client_pos, modulation)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::ParabolicAntenna;
    use crate::fading::FadingProcess;
    use crate::link::LinkSite;
    use crate::pathloss::PathLossModel;
    use wgtt_sim::rng::RngStream;

    fn ap_link(seed: u64, x: f64) -> Link {
        LinkSite::new(
            Position::new(x, 12.0),
            -std::f64::consts::FRAC_PI_2,
            ParabolicAntenna::laird_gd24bp(),
            PathLossModel::roadside(),
            crate::fading::peak_gain_db(6.0),
        )
        .link(FadingProcess::new(
            RngStream::root(seed).derive("link"),
            6.7,
            6.0,
        ))
    }

    #[test]
    fn batch_matches_per_link_queries_exactly() {
        let links: Vec<Link> = (0..8)
            .map(|i| ap_link(i as u64 + 1, i as f64 * 7.5))
            .collect();
        let t = SimTime::from_millis(13);
        let pos = Position::new(11.0, 0.0);
        let mut out = Vec::new();
        esnr_map(links.iter(), t, pos, Modulation::Qam16, &mut out);
        assert_eq!(out.len(), links.len());
        for (link, &batched) in links.iter().zip(out.iter()) {
            // Memo hit — and bit-identical to an uncached evaluation.
            let single = link.esnr_db_at(t, pos, Modulation::Qam16);
            assert_eq!(batched.to_bits(), single.to_bits());
            let uncached = link.snapshot(t, pos).esnr_db(Modulation::Qam16);
            assert_eq!(batched.to_bits(), uncached.to_bits());
        }
    }
}
