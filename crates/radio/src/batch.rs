//! Batched multi-AP ESNR maps.
//!
//! When a client transmits one uplink frame, *every* AP within decode
//! range overhears it and reports an ESNR to the controller — the fan-out
//! the paper's §3.1 measurement pipeline is built on. Evaluating that
//! per-(AP, modulation) map used to mean, per AP: materialize a
//! 56-coefficient complex [`Csi`](crate::Csi), reduce it to powers, run 56
//! libm BER evaluations, invert. [`esnr_map`] instead runs each link
//! through the fused SoA pipeline — one vectorized powers-synthesis pass
//! plus one lane BER sweep per link, no intermediate `Csi` — with a
//! block's sweeps issued ahead of its inversions.
//!
//! Every value is produced by the two halves of [`Link::esnr_db_at`]
//! itself and left in the link's memo, so batch and per-link evaluation
//! are bit-identical by construction — `tests/prop_simd.rs` pins exactly
//! that.

use crate::esnr::Modulation;
use crate::geometry::Position;
use crate::link::Link;
use wgtt_sim::time::SimTime;

/// Links per staged block. The sweeps of a block run back to back before
/// any inversion, giving the out-of-order core a window of independent
/// divider-bound chains; 16 links of stack scratch is plenty to saturate
/// it while keeping the blocks allocation-free.
const BLOCK: usize = 16;

/// Evaluate the ESNR map of every link in `links` for a client at
/// `client_pos` transmitting at instant `t`, into `out` (cleared first;
/// one entry per link, in iteration order).
///
/// Each link goes through the two-stage split of [`Link::esnr_db_at`] —
/// all of a block's lane BER sweeps first (`Link::esnr_mean_ber_at`),
/// then all its inversions (`Link::esnr_finish_at`). Per link the
/// operation sequence is exactly the fused one, so values and memo
/// states are bit-identical to per-link calls; only the interleaving
/// across (independent) links changes.
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
    let mut iter = links.into_iter();
    loop {
        let mut block: [Option<(&Link, Result<f64, f64>)>; BLOCK] = [None; BLOCK];
        let mut n = 0;
        for link in iter.by_ref().take(BLOCK) {
            block[n] = Some((link, link.esnr_mean_ber_at(t, client_pos, modulation)));
            n += 1;
        }
        for slot in block.iter().take(n) {
            let (link, stage) = slot.expect("slot filled above");
            out.push(link.esnr_finish_at(t, client_pos, modulation, stage));
        }
        if n < BLOCK {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::ParabolicAntenna;
    use crate::fading::FadingProcess;
    use crate::link::LinkBudget;
    use crate::pathloss::PathLossModel;
    use wgtt_sim::rng::RngStream;

    fn ap_link(seed: u64, x: f64) -> Link {
        Link {
            ap_pos: Position::new(x, 12.0),
            ap_boresight_rad: -std::f64::consts::FRAC_PI_2,
            ap_antenna: ParabolicAntenna::laird_gd24bp(),
            client_antenna_dbi: 0.0,
            budget: LinkBudget::default(),
            pathloss: PathLossModel::roadside(),
            fading: FadingProcess::new(RngStream::root(seed).derive("link"), 6.7, 6.0),
            shadowing: None,
            memo: Default::default(),
        }
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
