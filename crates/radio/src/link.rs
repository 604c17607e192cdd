//! The composed client↔AP link model.
//!
//! A [`Link`] bundles the static radio configuration of one AP (its
//! [`LinkSite`]: position, boresight, antenna pattern, link budget,
//! path-loss model) with the link's [`FadingProcess`]. Sampling it at
//! `(time, client position)` yields a [`LinkSnapshot`] with everything
//! the layers above consume: per-subcarrier CSI, instantaneous RSSI, and
//! Effective SNR.
//!
//! The channel is treated as reciprocal (Wi-Fi is TDD on one carrier):
//! the same snapshot describes uplink reception at the AP and downlink
//! reception at the client, which is precisely the property WGTT exploits
//! when it predicts downlink delivery from uplink CSI (§3.1.1).
//!
//! ## Values and bounds
//!
//! The `*_at` accessors return *values* — ESNR, SNR, RSSI — memoized per
//! `(t, client_pos)` and bit-identical to [`Link::snapshot`]. Most of
//! the frame path only compares such a value against a threshold, and
//! for that there are two upper bounds that cost a fraction of the value
//! (DESIGN.md §17), in decreasing slack and increasing cost:
//!
//! | accessor | holds for | needs | costs |
//! |---|---|---|---|
//! | [`LinkSite::esnr_ceiling_db`], [`LinkSite::rssi_ceiling_dbm`] | every link of the site, every instant | the site | geometry |
//! | [`Link::esnr_bound_db_at`] | the instant of the tap gains | the drawn link | + the sinusoid pass |
//! | [`Link::esnr_db_at`] / [`Link::esnr_db_from_gains`] | — (exact) | the drawn link | + twiddle MAC, BER sweep, inversion |
//!
//! `esnr_db_at ≤ esnr_bound_db_at ≤ esnr_ceiling_db` under every
//! modulation, and `rssi_dbm_at ≤ rssi_ceiling_dbm`
//! (`crates/radio/tests/prop_bounds.rs`); a caller adds
//! [`BOUND_MARGIN_DB`] before trusting a bound in place of the value.
//! The ceilings are site geometry — the peak fading gain is a function
//! of the Rician K alone — so a caller asks them of a link it has not
//! drawn. The bound keeps no per-link state beyond the memo's mean SNR:
//! the tap gains travel with the caller. [`Link::work`] says how much
//! exact arithmetic a link has actually been asked for.

use crate::antenna::ParabolicAntenna;
use crate::csi::{Csi, NUM_SUBCARRIERS};
use crate::esnr::{effective_snr_db, effective_snr_from_powers, Modulation};
use crate::fading::{FadingProcess, TapGains};
use crate::geometry::{angle_between, Position};
use crate::linear_to_db;
use crate::pathloss::PathLossModel;
use std::cell::RefCell;
use wgtt_sim::time::SimTime;

/// Transmit power and noise assumptions shared by every node: one
/// [`LinkBudget::testbed`] for every site.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Transmit power, dBm (per-direction EIRP before antenna gains).
    pub tx_power_dbm: f64,
    /// Receiver noise floor over 20 MHz including noise figure, dBm.
    pub noise_floor_dbm: f64,
}

impl LinkBudget {
    /// The testbed's budget, calibrated so a
    /// boresight client at the road (≈12 m) sees ≈25 dB mean SNR, falling
    /// through the MCS range within ±5–6 m along the road — the ≈5 m
    /// picocell with 6–10 m overlap of paper Figs. 9–10.
    pub const fn testbed() -> Self {
        LinkBudget {
            tx_power_dbm: 10.0,
            noise_floor_dbm: -92.0,
        }
    }
}

/// Every node's budget.
const BUDGET: LinkBudget = LinkBudget::testbed();

/// Gain of every client's antenna, dBi: the laptops' built-in
/// omnidirectional antennas (paper §4.2).
const CLIENT_ANTENNA_DBI: f64 = 0.0;

/// The static half of a [`Link`]: the AP's placement and antenna, the
/// propagation model and the fading's peak gain — everything but the
/// fading realization and the memo. The budget and the client's antenna
/// are the same for every site. Pure geometry, so a caller
/// choosing among links it has not drawn asks here
/// ([`LinkSite::mean_snr_db`] is what [`Link::mean_snr_db`] returns, and
/// the ceilings hold for every link of the site), and [`LinkSite::link`]
/// builds one. [`LinkSite::new`] fixes the boresight and the antenna,
/// from which it derives where the pattern's sidelobe floor begins.
#[derive(Debug, Clone, Copy)]
pub struct LinkSite {
    /// AP position on the plane, metres.
    pub ap_pos: Position,
    /// AP antenna boresight bearing, radians from +x.
    ap_boresight_rad: f64,
    /// AP directional antenna.
    ap_antenna: ParabolicAntenna,
    /// Unit vector along the boresight.
    boresight: (f64, f64),
    /// Cosine of the off-boresight angle beyond which the antenna gain is
    /// its flat floor, with [`FLOOR_MARGIN_RAD`] added to the angle; −∞
    /// when the floor is not reached before π.
    floor_cos: f64,
    /// Large-scale propagation model.
    pub pathloss: PathLossModel,
    /// The most the fading of this site's links can add to their mean
    /// SNR at any instant, dB: [`crate::fading::peak_gain_db`] of their
    /// Rician K.
    pub fading_peak_db: f64,
}

/// Slack, radians, between the parabolic pattern's floor edge and where
/// [`LinkSite::mean_snr_db`] starts reading the floor without the angle.
/// It dwarfs the ulp-level error of both ways of measuring the angle.
const FLOOR_MARGIN_RAD: f64 = 1e-6;

impl LinkSite {
    /// A site from its parts; see the fields of the same names.
    pub fn new(
        ap_pos: Position,
        ap_boresight_rad: f64,
        ap_antenna: ParabolicAntenna,
        pathloss: PathLossModel,
        fading_peak_db: f64,
    ) -> Self {
        // `12·(θ/θ_3dB)² ≥ A_sl` from `θ_3dB·√(A_sl/12)` on.
        let edge = ap_antenna.beamwidth_deg.abs().to_radians()
            * (ap_antenna.sidelobe_db / 12.0).sqrt()
            + FLOOR_MARGIN_RAD;
        LinkSite {
            ap_pos,
            ap_boresight_rad,
            ap_antenna,
            boresight: (ap_boresight_rad.cos(), ap_boresight_rad.sin()),
            floor_cos: if edge < std::f64::consts::PI {
                edge.cos()
            } else {
                f64::NEG_INFINITY
            },
            pathloss,
            fading_peak_db,
        }
    }

    /// Large-scale mean SNR for a client at `client_pos`, dB. Pure
    /// geometry — no fading.
    ///
    /// A client more than 1e-6 rad beyond the floor edge reads
    /// the floor `peak − sidelobe` — what
    /// [`ParabolicAntenna::gain_dbi`] returns there, bit for bit — from
    /// one dot product, without the bearing's `atan2` and the angle's
    /// remainder; inside it the angle is taken as before.
    pub fn mean_snr_db(&self, client_pos: Position) -> f64 {
        let dist = self.ap_pos.distance_to(client_pos);
        let (dx, dy) = (client_pos.x - self.ap_pos.x, client_pos.y - self.ap_pos.y);
        let ap_gain = if dx * self.boresight.0 + dy * self.boresight.1 < self.floor_cos * dist {
            self.ap_antenna.peak_gain_dbi - self.ap_antenna.sidelobe_db
        } else {
            let bearing = self.ap_pos.bearing_to(client_pos);
            self.ap_antenna
                .gain_dbi(angle_between(bearing, self.ap_boresight_rad))
        };
        let gain = ap_gain + CLIENT_ANTENNA_DBI;
        BUDGET.tx_power_dbm + gain - self.pathloss.loss_db(dist) - BUDGET.noise_floor_dbm
    }

    /// Static ceiling on [`Link::esnr_db_at`] and [`Link::snr_db_at`]
    /// for a client at `client_pos`, under any modulation, at every
    /// instant, for every link of this site: the mean SNR plus the most
    /// the fading can add. Geometry only — no link is asked.
    pub fn esnr_ceiling_db(&self, client_pos: Position) -> f64 {
        self.mean_snr_db(client_pos) + self.fading_peak_db
    }

    /// Static ceiling on [`Link::rssi_dbm_at`] for a client at
    /// `client_pos`, associated like it (`(mean + fade) + noise floor`)
    /// so the two compare term by term. A capture comparison reads this
    /// for links it will mostly never evaluate.
    pub fn rssi_ceiling_dbm(&self, client_pos: Position) -> f64 {
        self.esnr_ceiling_db(client_pos) + BUDGET.noise_floor_dbm
    }

    /// The link from this site with the fading realization `fading` and
    /// an empty memo. `fading` must have the K the site's
    /// [`LinkSite::fading_peak_db`] was computed for.
    pub fn link(self, fading: FadingProcess) -> Link {
        debug_assert_eq!(
            fading.peak_gain_db().to_bits(),
            self.fading_peak_db.to_bits(),
            "the realization's peak gain is not the site's"
        );
        Link {
            site: self,
            fading,
            memo: Default::default(),
        }
    }
}

/// One client↔AP radio link: a site, a fading realization and a memo.
#[derive(Debug, Clone)]
pub struct Link {
    /// The AP's placement, antennas, budget and propagation model.
    pub site: LinkSite,
    /// Small-scale fading realization for this link.
    pub fading: FadingProcess,
    memo: RefCell<MemoState>,
}

/// A link's single-entry memo of the most recent `(t, client_pos)`
/// sample.
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
struct MemoState {
    entry: Option<MemoEntry>,
    work: LinkWork,
}

/// The PHY arithmetic a link's memoized accessors have actually run —
/// memo hits and the bound accessors count nothing. Thirty-two bits
/// each: a link synthesizes at most once per frame it is queried for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkWork {
    /// 56-subcarrier power syntheses (twiddle MACs).
    pub syntheses: u32,
    /// Lane BER sweeps, each followed by one BER→SNR inversion.
    pub sweeps: u32,
}

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
    /// Wideband SNR in dB, reduced from `powers`; NaN until first read.
    /// (A NaN slot costs no tag word per link, and a product that really
    /// is NaN is recomputed on each read to the same bits.)
    snr_db: f64,
    /// ESNR derived from the powers, one slot per modulation (indexed by
    /// `Modulation as usize`), NaN until first read: a control or data
    /// roll must not evict the 16-QAM measurement taken at the same
    /// instant, nor the reverse.
    esnr: [f64; 4],
}

impl MemoEntry {
    fn esnr(&self, modulation: Modulation) -> Option<f64> {
        let e = self.esnr[modulation as usize];
        (!e.is_nan()).then_some(e)
    }
}

/// Headroom, dB, a caller adds to an upper bound of this module before
/// letting it stand in for the exact value in a threshold test. It
/// swamps what separates the bounds' real-number proofs from the floats:
/// the 1e-6 dB tolerance of the BER→SNR inversion and ulp-level
/// non-monotonicity of `exp`/`powf`/`log10`
/// (`crates/radio/tests/prop_bounds.rs` measures the worst case and
/// holds this constant a thousand times above it).
pub const BOUND_MARGIN_DB: f64 = 0.25;

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
        self.site.mean_snr_db(client_pos)
    }

    /// Refresh the memo to key `(t, client_pos)`, invalidating every
    /// lazily filled slot on a miss.
    fn memo_refresh<'a>(
        &self,
        memo: &'a mut MemoState,
        t: SimTime,
        client_pos: Position,
    ) -> (&'a mut MemoEntry, &'a mut LinkWork) {
        let stale = match &memo.entry {
            Some(e) => e.t != t || e.client_pos != client_pos,
            None => true,
        };
        if stale {
            memo.entry = Some(MemoEntry {
                t,
                client_pos,
                mean_snr_db: self.mean_snr_db(client_pos),
                powers: None,
                snr_db: f64::NAN,
                esnr: [f64::NAN; 4],
            });
        }
        let entry = memo
            .entry
            .as_mut()
            .expect("memo_refresh always fills the entry");
        (entry, &mut memo.work)
    }

    /// The entry's fused power sweep, synthesizing it on first use —
    /// from `gains` (the tap gains at the entry's instant) when the
    /// caller already holds them.
    fn ensure_powers<'a>(
        &self,
        entry: &'a mut MemoEntry,
        work: &mut LinkWork,
        gains: Option<&TapGains>,
    ) -> &'a [f64; NUM_SUBCARRIERS] {
        if entry.powers.is_none() {
            work.syntheses += 1;
            entry.powers = Some(match gains {
                Some(g) => self.fading.powers_from_gains(g),
                None => self.fading.powers_at(entry.t),
            });
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
        let rssi_dbm = snr_db + BUDGET.noise_floor_dbm;
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
        let mut memo = self.memo.borrow_mut();
        let (entry, work) = self.memo_refresh(&mut memo, t, client_pos);
        if !entry.snr_db.is_nan() {
            return entry.snr_db;
        }
        let powers = self.ensure_powers(entry, work, None);
        let mut total = 0.0;
        for &p in powers {
            total += p;
        }
        let fade_db = linear_to_db(total / NUM_SUBCARRIERS as f64);
        entry.snr_db = entry.mean_snr_db + fade_db;
        entry.snr_db
    }

    /// Instantaneous RSSI in dBm at `(t, client_pos)` through the fused
    /// power sweep. Equal to `self.snapshot(t, client_pos).rssi_dbm` bit
    /// for bit.
    pub fn rssi_dbm_at(&self, t: SimTime, client_pos: Position) -> f64 {
        self.snr_db_at(t, client_pos) + BUDGET.noise_floor_dbm
    }

    /// Effective SNR (dB) at `(t, client_pos)` under `modulation`,
    /// memoizing the fused power sweep and the ESNR inversion (the lane
    /// BER sweep plus the fast table-and-Newton BER→SNR inverse of
    /// [`crate::esnr`]). No complex snapshot is materialized. Equal to
    /// `self.snapshot(t, client_pos).esnr_db(modulation)` bit for bit.
    pub fn esnr_db_at(&self, t: SimTime, client_pos: Position, modulation: Modulation) -> f64 {
        self.esnr_db(t, client_pos, modulation, None)
    }

    /// [`Link::esnr_db_at`] for a caller that already holds
    /// `gains = self.fading.tap_gains_at(t)` (it computed
    /// [`Link::esnr_bound_db_at`] first and the bound did not settle its
    /// question): a synthesis, if one is still needed, skips the
    /// sinusoid pass. Same bits, same memo state afterwards.
    pub fn esnr_db_from_gains(
        &self,
        t: SimTime,
        client_pos: Position,
        modulation: Modulation,
        gains: &TapGains,
    ) -> f64 {
        self.esnr_db(t, client_pos, modulation, Some(gains))
    }

    fn esnr_db(
        &self,
        t: SimTime,
        client_pos: Position,
        modulation: Modulation,
        gains: Option<&TapGains>,
    ) -> f64 {
        let mut memo = self.memo.borrow_mut();
        let (entry, work) = self.memo_refresh(&mut memo, t, client_pos);
        if let Some(e) = entry.esnr(modulation) {
            return e;
        }
        let mean_snr_db = entry.mean_snr_db;
        let powers = self.ensure_powers(entry, work, gains);
        work.sweeps += 1;
        let esnr = effective_snr_from_powers(powers, mean_snr_db, modulation);
        entry.esnr[modulation as usize] = esnr;
        esnr
    }

    /// The ESNR the memo already holds for `(t, client_pos, modulation)`,
    /// if any — a read that computes nothing and leaves the memo as it
    /// found it.
    pub fn esnr_memo(
        &self,
        t: SimTime,
        client_pos: Position,
        modulation: Modulation,
    ) -> Option<f64> {
        match &self.memo.borrow().entry {
            Some(e) if e.t == t && e.client_pos == client_pos => e.esnr(modulation),
            _ => None,
        }
    }

    /// [`Link::mean_snr_db`] through the memo, keyed `(t, client_pos)`:
    /// the channel is not evaluated, and the tighter bound and the exact
    /// value a caller may ask for next find the geometry done.
    pub fn mean_snr_db_at(&self, t: SimTime, client_pos: Position) -> f64 {
        let mut memo = self.memo.borrow_mut();
        self.memo_refresh(&mut memo, t, client_pos).0.mean_snr_db
    }

    /// Instant bound on [`Link::esnr_db_at`] at `(t, client_pos)` under
    /// any modulation, from `gains = self.fading.tap_gains_at(t)` alone:
    /// the wideband SNR. ESNR never exceeds it — every BER curve
    /// `c·Q(√(g·s))` is convex and decreasing in `s`, so the mean BER
    /// over subcarriers is at least the BER at the mean SNR (Jensen) and
    /// inverts to at most that SNR; the inversion's clamp to
    /// `[1e-12, ber(0)]` only lowers it further.
    pub fn esnr_bound_db_at(&self, t: SimTime, client_pos: Position, gains: &TapGains) -> f64 {
        let mut memo = self.memo.borrow_mut();
        let (entry, _) = self.memo_refresh(&mut memo, t, client_pos);
        entry.mean_snr_db + linear_to_db(self.fading.wideband_gain_of(gains))
    }

    /// Syntheses and sweeps this link's memoized accessors have run.
    pub fn work(&self) -> LinkWork {
        self.memo.borrow().work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgtt_sim::rng::RngStream;

    /// An AP at (0, 12) pointing straight down at the road (y = 0).
    fn test_link(seed: u64) -> Link {
        LinkSite::new(
            Position::new(0.0, 12.0),
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
        b.site.ap_pos = Position::new(7.5, 12.0);
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
        assert!((s.rssi_dbm - (s.snr_db + BUDGET.noise_floor_dbm)).abs() < 1e-9);
        // ESNR should be within a plausible band of the wideband SNR.
        let e = s.esnr_db(Modulation::Qam16);
        assert!(e <= s.snr_db + 1.0, "ESNR {e} vs SNR {}", s.snr_db);
        assert!(e > s.snr_db - 15.0, "ESNR {e} vs SNR {}", s.snr_db);
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
    fn work_counts_arithmetic_not_queries() {
        let link = test_link(8);
        let pos = Position::new(2.0, 0.0);
        let t = SimTime::from_millis(5);
        let count = |syntheses, sweeps| LinkWork { syntheses, sweeps };
        // The bounds, the memoized geometry and the memo peek compute no
        // channel.
        let gains = link.fading.tap_gains_at(t);
        let ceiling = link.site.esnr_ceiling_db(pos);
        let bound = link.esnr_bound_db_at(t, pos, &gains);
        link.mean_snr_db_at(t, pos);
        assert!(link.site.rssi_ceiling_dbm(pos) == ceiling + BUDGET.noise_floor_dbm);
        assert_eq!(link.esnr_memo(t, pos, Modulation::Qpsk), None);
        assert_eq!(link.work(), count(0, 0));
        // One synthesis per instant, one sweep per modulation read at it;
        // repeats are memo hits.
        let exact = link.esnr_db_from_gains(t, pos, Modulation::Qpsk, &gains);
        assert!(exact <= bound && bound <= ceiling);
        assert_eq!(link.work(), count(1, 1));
        assert_eq!(link.esnr_db_at(t, pos, Modulation::Qpsk), exact);
        assert_eq!(link.esnr_memo(t, pos, Modulation::Qpsk), Some(exact));
        link.rssi_dbm_at(t, pos);
        assert_eq!(link.work(), count(1, 1));
        link.esnr_db_at(t, pos, Modulation::Qam16);
        assert_eq!(link.work(), count(1, 2));
        link.rssi_dbm_at(SimTime::from_millis(6), pos);
        assert_eq!(link.work(), count(2, 2));
    }

    #[test]
    fn a_site_answers_for_its_link_without_the_fading() {
        let link = test_link(12);
        let site = link.site;
        let t = SimTime::from_millis(2);
        for x in [-60.0, -4.0, 0.0, 2.5, 7.5, 130.0] {
            let pos = Position::new(x, 0.0);
            let mean = site.mean_snr_db(pos).to_bits();
            assert_eq!(mean, link.mean_snr_db(pos).to_bits());
            assert_eq!(mean, link.mean_snr_db_at(t, pos).to_bits());
            let ceiling = site.mean_snr_db(pos) + link.fading.peak_gain_db();
            assert_eq!(site.esnr_ceiling_db(pos).to_bits(), ceiling.to_bits());
        }
        let rebuilt = site.link(link.fading.clone());
        let (t, pos) = (SimTime::from_millis(9), Position::new(1.5, 0.0));
        let esnr = |l: &Link| l.esnr_db_at(t, pos, Modulation::Qam16).to_bits();
        assert_eq!(esnr(&rebuilt), esnr(&link));
    }

    #[test]
    fn per_pair_state_stays_small() {
        // A world holds APs × clients of these; the tables every link
        // shares must not creep back into the per-link copy.
        // The ladder's per-frame state (tap gains, bounds) lives in one
        // context on the world, not here.
        assert!(std::mem::size_of::<FadingProcess>() <= 1984);
        assert!(std::mem::size_of::<Link>() <= 2624);
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
