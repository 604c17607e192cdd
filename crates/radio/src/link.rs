//! The composed client↔AP link model.
//!
//! A [`Link`] bundles the static radio configuration of one AP (position,
//! boresight, antenna pattern, link budget, path-loss model) with the
//! link's [`FadingProcess`]. Sampling it at `(time, client position)`
//! yields a [`LinkSnapshot`] with everything the layers above consume:
//! per-subcarrier CSI, instantaneous RSSI, and Effective SNR.
//!
//! The channel is treated as reciprocal (Wi-Fi is TDD on one carrier):
//! the same snapshot describes uplink reception at the AP and downlink
//! reception at the client, which is precisely the property WGTT exploits
//! when it predicts downlink delivery from uplink CSI (§3.1.1).

use crate::antenna::{Antenna, ParabolicAntenna};
use crate::csi::{Csi, NUM_SUBCARRIERS};
use crate::esnr::{effective_snr_db, effective_snr_from_powers, Modulation};
use crate::fading::FadingProcess;
use crate::geometry::{angle_between, Position};
use crate::linear_to_db;
use crate::pathloss::PathLossModel;
use std::cell::RefCell;
use wgtt_sim::time::SimTime;

/// Transmit power and noise assumptions shared by every node.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Transmit power, dBm (per-direction EIRP before antenna gains).
    pub tx_power_dbm: f64,
    /// Receiver noise floor over 20 MHz including noise figure, dBm.
    pub noise_floor_dbm: f64,
}

impl Default for LinkBudget {
    fn default() -> Self {
        // Calibrated so a boresight client at the road (≈12 m) sees ≈25 dB
        // mean SNR, falling through the MCS range within ±5–6 m along the
        // road — the ≈5 m picocell with 6–10 m overlap of paper Figs. 9–10.
        LinkBudget {
            tx_power_dbm: 10.0,
            noise_floor_dbm: -92.0,
        }
    }
}

/// One client↔AP radio link.
#[derive(Debug, Clone)]
pub struct Link {
    /// AP position on the plane, metres.
    pub ap_pos: Position,
    /// AP antenna boresight bearing, radians from +x.
    pub ap_boresight_rad: f64,
    /// AP directional antenna.
    pub ap_antenna: ParabolicAntenna,
    /// Client antenna gain (omnidirectional), dBi.
    pub client_antenna_dbi: f64,
    /// Power/noise budget.
    pub budget: LinkBudget,
    /// Large-scale propagation model.
    pub pathloss: PathLossModel,
    /// Small-scale fading realization for this link.
    pub fading: FadingProcess,
    /// Optional spatially correlated shadowing field (the short,
    /// line-of-sight testbed road carries none; see
    /// [`crate::shadowing`]).
    pub shadowing: Option<crate::shadowing::Shadowing>,
    /// Single-entry sample memo (see [`SnapshotMemo`]). Construction
    /// sites just write `memo: Default::default()`.
    pub memo: SnapshotMemo,
}

/// Single-entry memo of the most recent `(t, client_pos)` sample.
///
/// The MAC layer samples the same link at the same instant several times
/// per frame exchange: a control roll (QPSK) or one per MPDU of an A-MPDU
/// (the data rate's modulation) on the true channel, then the 16-QAM
/// measurement the controller sees, for the frames that decode. The
/// channel is a pure function of `(t, client_pos)`, so those samples are
/// bit-identical — this memo holds each product a frame can read (fused
/// per-subcarrier powers, wideband SNR, one ESNR per modulation), fills
/// it when it is first read, and replays the same bits for repeats. A
/// link nobody queries at an instant computes nothing for it.
///
/// Interior mutability (`RefCell`) keeps the accessors callable through
/// `&Link` while `World` holds other mutable state; `World`s are
/// per-thread under `--jobs`, so no `Sync` is needed. A memo hit consumes
/// no RNG draws and returns the identical floats, so experiment output is
/// byte-identical with or without it (enforced by
/// `crates/radio/tests/prop_fading.rs`).
#[derive(Debug, Clone, Default)]
pub struct SnapshotMemo(RefCell<Option<MemoEntry>>);

#[derive(Debug, Clone)]
struct MemoEntry {
    t: SimTime,
    client_pos: Position,
    /// Large-scale mean SNR at the memo key — cheap pure geometry,
    /// computed eagerly on every refresh because every product needs it.
    mean_snr_db: f64,
    /// Fused per-subcarrier powers `|H_k|²` (the same bits
    /// `snapshot(..).csi.powers()` yields).
    powers: Option<[f64; NUM_SUBCARRIERS]>,
    /// Wideband SNR in dB, reduced from `powers`.
    snr_db: Option<f64>,
    /// ESNR derived from the powers, one slot per modulation (indexed by
    /// `Modulation as usize`): a control or data roll must not evict the
    /// 16-QAM measurement taken at the same instant, nor the reverse.
    esnr: [Option<f64>; 4],
}

/// Everything measurable about a link at one instant and client position.
#[derive(Debug, Clone)]
pub struct LinkSnapshot {
    /// Large-scale mean SNR (budget + antennas − path loss − noise), dB.
    pub mean_snr_db: f64,
    /// Per-subcarrier normalized frequency response.
    pub csi: Csi,
    /// Instantaneous received power, dBm (what RSSI reports).
    pub rssi_dbm: f64,
    /// Instantaneous wideband SNR, dB.
    pub snr_db: f64,
}

impl LinkSnapshot {
    /// Effective SNR in dB under `modulation` — the controller's metric.
    pub fn esnr_db(&self, modulation: Modulation) -> f64 {
        effective_snr_db(&self.csi, self.mean_snr_db, modulation)
    }
}

impl Link {
    /// Large-scale mean SNR for a client at `client_pos`, dB. Pure
    /// geometry — no fading.
    pub fn mean_snr_db(&self, client_pos: Position) -> f64 {
        let dist = self.ap_pos.distance_to(client_pos);
        let bearing = self.ap_pos.bearing_to(client_pos);
        let off_boresight = angle_between(bearing, self.ap_boresight_rad);
        let gain = self.ap_antenna.gain_dbi(off_boresight) + self.client_antenna_dbi;
        let shadow = self
            .shadowing
            .as_ref()
            .map_or(0.0, |s| s.gain_db(client_pos));
        self.budget.tx_power_dbm + gain + shadow
            - self.pathloss.loss_db(dist)
            - self.budget.noise_floor_dbm
    }

    /// Refresh the memo to key `(t, client_pos)`, invalidating every
    /// lazily filled slot on a miss.
    fn memo_refresh<'a>(
        &self,
        memo: &'a mut Option<MemoEntry>,
        t: SimTime,
        client_pos: Position,
    ) -> &'a mut MemoEntry {
        let stale = match memo {
            Some(e) => e.t != t || e.client_pos != client_pos,
            None => true,
        };
        if stale {
            *memo = Some(MemoEntry {
                t,
                client_pos,
                mean_snr_db: self.mean_snr_db(client_pos),
                powers: None,
                snr_db: None,
                esnr: [None; 4],
            });
        }
        memo.as_mut().expect("memo_refresh always fills the entry")
    }

    /// The entry's fused power sweep, synthesizing it on first use.
    fn ensure_powers<'a>(&self, entry: &'a mut MemoEntry) -> &'a [f64; NUM_SUBCARRIERS] {
        if entry.powers.is_none() {
            entry.powers = Some(self.fading.powers_at(entry.t));
        }
        entry.powers.as_ref().expect("powers just filled")
    }

    /// Sample the full link state at instant `t` with the client at
    /// `client_pos`: the 56-coefficient complex CSI and everything
    /// derived from it. Pure and unmemoized — callers that want CSI ask
    /// once per instant; the per-frame paths use the powers-only
    /// accessors below, which return the same bits.
    pub fn snapshot(&self, t: SimTime, client_pos: Position) -> LinkSnapshot {
        let mean_snr_db = self.mean_snr_db(client_pos);
        let csi = self.fading.csi_at(t);
        let fade_db = linear_to_db(csi.mean_power());
        let snr_db = mean_snr_db + fade_db;
        let rssi_dbm = snr_db + self.budget.noise_floor_dbm;
        LinkSnapshot {
            mean_snr_db,
            csi,
            rssi_dbm,
            snr_db,
        }
    }

    /// Instantaneous wideband SNR in dB at `(t, client_pos)` through the
    /// fused power sweep — no 56-coefficient complex snapshot is
    /// materialized. Equal to `self.snapshot(t, client_pos).snr_db` bit
    /// for bit (the powers reduce in the same order
    /// [`Csi::mean_power`] uses).
    pub fn snr_db_at(&self, t: SimTime, client_pos: Position) -> f64 {
        let mut memo = self.memo.0.borrow_mut();
        let entry = self.memo_refresh(&mut memo, t, client_pos);
        if let Some(snr) = entry.snr_db {
            return snr;
        }
        let powers = self.ensure_powers(entry);
        let mut total = 0.0;
        for &p in powers {
            total += p;
        }
        let fade_db = linear_to_db(total / NUM_SUBCARRIERS as f64);
        let snr = entry.mean_snr_db + fade_db;
        entry.snr_db = Some(snr);
        snr
    }

    /// Instantaneous RSSI in dBm at `(t, client_pos)` through the fused
    /// power sweep. Equal to `self.snapshot(t, client_pos).rssi_dbm` bit
    /// for bit.
    pub fn rssi_dbm_at(&self, t: SimTime, client_pos: Position) -> f64 {
        self.snr_db_at(t, client_pos) + self.budget.noise_floor_dbm
    }

    /// Effective SNR (dB) at `(t, client_pos)` under `modulation`,
    /// memoizing the fused power sweep and the ESNR inversion (the lane
    /// BER sweep plus the fast table-and-Newton BER→SNR inverse of
    /// [`crate::esnr`]). No complex snapshot is materialized. Equal to
    /// `self.snapshot(t, client_pos).esnr_db(modulation)` bit for bit.
    pub fn esnr_db_at(&self, t: SimTime, client_pos: Position, modulation: Modulation) -> f64 {
        let mut memo = self.memo.0.borrow_mut();
        let entry = self.memo_refresh(&mut memo, t, client_pos);
        if let Some(e) = entry.esnr[modulation as usize] {
            return e;
        }
        let mean_snr_db = entry.mean_snr_db;
        let powers = self.ensure_powers(entry);
        let esnr = effective_snr_from_powers(powers, mean_snr_db, modulation);
        entry.esnr[modulation as usize] = Some(esnr);
        esnr
    }

    /// Stage 1+2 of a batched ESNR evaluation (see [`crate::batch`]):
    /// refresh the memo to `(t, client_pos)`, synthesize the fused power
    /// sweep, and run the lane BER sweep — `Ok(mean_ber)` awaiting
    /// inversion, or `Err(esnr)` when the memo already holds the final
    /// value. Followed by [`Link::esnr_finish_at`], this is
    /// operation-for-operation [`Link::esnr_db_at`].
    pub(crate) fn esnr_mean_ber_at(
        &self,
        t: SimTime,
        client_pos: Position,
        modulation: Modulation,
    ) -> Result<f64, f64> {
        let mut memo = self.memo.0.borrow_mut();
        let entry = self.memo_refresh(&mut memo, t, client_pos);
        if let Some(e) = entry.esnr[modulation as usize] {
            return Err(e);
        }
        let mean_snr_db = entry.mean_snr_db;
        let powers = self.ensure_powers(entry);
        Ok(crate::esnr::mean_ber_from_powers(
            powers,
            mean_snr_db,
            modulation,
        ))
    }

    /// Stage 3 of a batched ESNR evaluation: invert a staged mean BER
    /// (memoizing the result) or pass a memo hit through unchanged.
    pub(crate) fn esnr_finish_at(
        &self,
        t: SimTime,
        client_pos: Position,
        modulation: Modulation,
        staged: Result<f64, f64>,
    ) -> f64 {
        match staged {
            Err(esnr) => esnr,
            Ok(mean_ber) => {
                let esnr = crate::esnr::esnr_from_mean_ber(mean_ber, modulation);
                let mut memo = self.memo.0.borrow_mut();
                let entry = self.memo_refresh(&mut memo, t, client_pos);
                entry.esnr[modulation as usize] = Some(esnr);
                esnr
            }
        }
    }

    /// Per-AP ESNR map of every link overhearing one frame — see
    /// [`crate::batch::esnr_map`] (this is the same call, hung off `Link`
    /// for discoverability).
    pub fn esnr_batch<'a, I>(
        links: I,
        t: SimTime,
        client_pos: Position,
        modulation: Modulation,
        out: &mut Vec<f64>,
    ) where
        I: IntoIterator<Item = &'a Link>,
    {
        crate::batch::esnr_map(links, t, client_pos, modulation, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_sim::rng::RngStream;

    /// An AP at (0, 12) pointing straight down at the road (y = 0).
    fn test_link(seed: u64) -> Link {
        Link {
            ap_pos: Position::new(0.0, 12.0),
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
    fn boresight_snr_in_calibrated_range() {
        let link = test_link(1);
        let snr = link.mean_snr_db(Position::new(0.0, 0.0));
        assert!(
            (20.0..32.0).contains(&snr),
            "boresight SNR {snr} dB outside calibration"
        );
    }

    #[test]
    fn picocell_size_is_metres() {
        // SNR must fall below the lowest usable MCS (≈2 dB) within ±10 m
        // along the road but stay usable within ±4 m: a meter-scale cell.
        let link = test_link(2);
        let at = |x: f64| link.mean_snr_db(Position::new(x, 0.0));
        assert!(at(0.0) > 18.0);
        assert!(at(4.0) > 8.0, "4 m off: {}", at(4.0));
        assert!(at(10.0) < 4.0, "10 m off: {}", at(10.0));
        assert!(at(-10.0) < 4.0);
    }

    #[test]
    fn overlap_region_between_adjacent_aps() {
        // Two APs 7.5 m apart (paper §2): midway between them both links
        // must still be usable — the grey-zone overlap WGTT exploits.
        let a = test_link(3);
        let mut b = test_link(4);
        b.ap_pos = Position::new(7.5, 12.0);
        let mid = Position::new(3.75, 0.0);
        assert!(a.mean_snr_db(mid) > 6.0, "A at mid: {}", a.mean_snr_db(mid));
        assert!(b.mean_snr_db(mid) > 6.0, "B at mid: {}", b.mean_snr_db(mid));
    }

    #[test]
    fn snapshot_consistency() {
        let link = test_link(5);
        let pos = Position::new(1.0, 0.0);
        let s = link.snapshot(SimTime::from_millis(7), pos);
        // Instantaneous SNR = mean + fade; RSSI = SNR + noise floor.
        assert!((s.rssi_dbm - (s.snr_db + link.budget.noise_floor_dbm)).abs() < 1e-9);
        // ESNR should be within a plausible band of the wideband SNR.
        let e = s.esnr_db(Modulation::Qam16);
        assert!(e <= s.snr_db + 1.0, "ESNR {e} vs SNR {}", s.snr_db);
        assert!(e > s.snr_db - 15.0, "ESNR {e} vs SNR {}", s.snr_db);
    }

    #[test]
    fn shadowing_shifts_the_mean_snr() {
        let mut link = test_link(9);
        let pos = Position::new(1.0, 0.0);
        let base = link.mean_snr_db(pos);
        link.shadowing = Some(crate::shadowing::Shadowing::new(
            RngStream::root(9).derive("shadow"),
            4.0,
            8.0,
        ));
        let shadowed = link.mean_snr_db(pos);
        assert_ne!(base, shadowed);
        assert!((base - shadowed).abs() < 20.0, "shadow within sane bounds");
    }

    #[test]
    fn memoized_sampling_matches_uncached() {
        const MODS: [Modulation; 4] = [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ];
        let link = test_link(7);
        let pos = Position::new(0.5, 0.0);
        let t = SimTime::from_millis(3);
        let oracle = link.snapshot(t, pos);
        let want = MODS.map(|m| oracle.esnr_db(m).to_bits());
        // Every length-4 sequence of the four modulations at one key —
        // all 24 orders, and every repeat — each on a cold memo (the
        // `t2` query evicts it), with the wideband SNR read in between:
        // no slot evicts or shadows another.
        let t2 = SimTime::from_millis(4);
        for code in 0..256usize {
            let order = [code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6];
            link.snr_db_at(t2, pos);
            for i in order {
                let got = link.esnr_db_at(t, pos, MODS[i]);
                assert_eq!(got.to_bits(), want[i], "{:?} in {order:?}", MODS[i]);
                assert_eq!(link.snr_db_at(t, pos).to_bits(), oracle.snr_db.to_bits());
            }
        }
        // Moving time or position invalidates the memo.
        let moved = Position::new(0.75, 0.0);
        for (t, pos) in [(t2, pos), (t2, moved)] {
            assert_eq!(
                link.esnr_db_at(t, pos, Modulation::Qam16).to_bits(),
                link.snapshot(t, pos).esnr_db(Modulation::Qam16).to_bits()
            );
        }
    }

    #[test]
    fn per_pair_state_stays_small() {
        // A world holds APs × clients of these; the tables every link
        // shares must not creep back into the per-link copy.
        assert!(std::mem::size_of::<FadingProcess>() <= 2560);
        assert!(std::mem::size_of::<Link>() <= 4096);
    }

    #[test]
    fn powers_path_snr_and_rssi_match_snapshot_bits() {
        // The CSI-free accessors (fused powers sweep, no 56-coefficient
        // materialization) must return the exact bits of the snapshot
        // fields, cold or memoized.
        let link = test_link(11);
        for (ms, x) in [(3u64, 0.5), (9, -4.0), (15, 7.25)] {
            let t = SimTime::from_millis(ms);
            let pos = Position::new(x, 0.0);
            let want = link.snapshot(t, pos);
            assert_eq!(link.snr_db_at(t, pos).to_bits(), want.snr_db.to_bits());
            assert_eq!(link.rssi_dbm_at(t, pos).to_bits(), want.rssi_dbm.to_bits());
            // And again from the memo.
            assert_eq!(link.rssi_dbm_at(t, pos).to_bits(), want.rssi_dbm.to_bits());
        }
    }

    #[test]
    fn fading_moves_snapshots_at_ms_scale() {
        // At 15 mph the channel decorrelates in a few ms: snapshots 5 ms
        // apart should frequently differ by >1 dB — the fast fading that
        // flips the best AP (paper Fig. 2).
        let link = test_link(6);
        let pos = Position::new(0.5, 0.0);
        let mut moved = 0;
        for i in 0..100 {
            let t0 = SimTime::from_millis(10 * i);
            let t1 = t0 + wgtt_sim::time::SimDuration::from_millis(5);
            let d = (link.snapshot(t0, pos).snr_db - link.snapshot(t1, pos).snr_db).abs();
            if d > 1.0 {
                moved += 1;
            }
        }
        assert!(moved > 30, "only {moved}/100 snapshot pairs moved >1 dB");
    }
}
