//! Client-side roaming decisions for the baseline schemes.

use std::collections::HashMap;
use wgtt_mac::frame::{MgmtStep, NodeId};
use wgtt_sim::time::{SimDuration, SimTime};

/// Which baseline policy the client runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoamerMode {
    /// §5.1's Enhanced 802.11r: threshold + strongest-AP + 1 s hysteresis.
    Enhanced {
        /// Minimum time between switches (paper: 1 s).
        hysteresis: SimDuration,
    },
    /// §2's stock 802.11r: requires `history` (5 s) of RSSI observations
    /// below threshold before deciding to roam.
    Stock {
        /// Required low-RSSI observation span (paper: 5 s).
        history: SimDuration,
    },
}

/// RSSI smoothing factor for beacon measurements.
const RSSI_EWMA_ALPHA: f64 = 0.3;
/// Reassociation frame retry interval.
const HANDSHAKE_RETRY: SimDuration = SimDuration::from_millis(50);
/// Beacon observations older than this are discarded — at driving speed
/// a seconds-old RSSI describes a cell the car has already left.
const RSSI_TTL: SimDuration = SimDuration::from_millis(1200);
/// Give up on a target AP after this many reassociation attempts.
const HANDSHAKE_MAX_TRIES: u32 = 5;
/// Reassociate when the serving AP's smoothed RSSI drops below this.
/// Source: ours, unvalidated.
const THRESHOLD_DBM: f64 = -80.0;
/// The challenger must beat the current AP's RSSI by this much.
/// Source: ours, unvalidated.
const MARGIN_DB: f64 = 2.0;

/// What the roamer wants transmitted next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoamerAction {
    /// Nothing to do.
    None,
    /// Transmit a management frame to `ap` (over the air, lossy).
    SendMgmt {
        /// Target AP.
        ap: NodeId,
        /// Handshake step to send.
        step: MgmtStep,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Idle,
    /// Reassociation request sent; awaiting the response.
    AwaitingResponse {
        target: NodeId,
        sent_at: SimTime,
        tries: u32,
    },
}

/// The roaming client state machine.
#[derive(Debug)]
pub struct Roamer {
    mode: RoamerMode,
    rssi: HashMap<NodeId, (f64, SimTime)>,
    associated: Option<NodeId>,
    last_switch: Option<SimTime>,
    below_since: Option<SimTime>,
    state: State,
    /// Completed reassociations.
    pub switches: u64,
    /// Reassociation attempts abandoned after retries (the Fig. 4 20 mph
    /// failure).
    pub failed_handshakes: u64,
}

impl Roamer {
    /// A roamer with a −80 dBm RSSI threshold and a 2 dB margin (the
    /// threshold scheme only reacts once the serving link is already
    /// near the cell edge — the §2 pathology).
    pub fn new(mode: RoamerMode) -> Self {
        Roamer {
            mode,
            rssi: HashMap::new(),
            associated: None,
            last_switch: None,
            below_since: None,
            state: State::Idle,
            switches: 0,
            failed_handshakes: 0,
        }
    }

    /// The AP the client is associated with.
    pub fn associated(&self) -> Option<NodeId> {
        self.associated
    }

    /// Install the initial association (scenario does this once the
    /// client first attaches).
    pub fn set_associated(&mut self, ap: NodeId, now: SimTime) {
        self.associated = Some(ap);
        self.last_switch = Some(now);
        self.below_since = None;
        self.state = State::Idle;
    }

    /// Smoothed RSSI for an AP, if observed (regardless of age; switch
    /// decisions apply the freshness filter).
    pub fn rssi(&self, ap: NodeId) -> Option<f64> {
        self.rssi.get(&ap).map(|&(v, _)| v)
    }

    /// Record a beacon (or any overheard frame) from `ap` at `rssi_dbm`.
    pub fn on_beacon(&mut self, ap: NodeId, rssi_dbm: f64, now: SimTime) {
        let e = self.rssi.entry(ap).or_insert((rssi_dbm, now));
        e.0 = (1.0 - RSSI_EWMA_ALPHA) * e.0 + RSSI_EWMA_ALPHA * rssi_dbm;
        e.1 = now;
    }

    fn best_other(&self, current: NodeId, now: SimTime) -> Option<(NodeId, f64)> {
        let mut best: Option<(NodeId, f64)> = None;
        let mut aps: Vec<(&NodeId, &(f64, SimTime))> = self.rssi.iter().collect();
        aps.sort_by_key(|(ap, _)| **ap); // deterministic
        for (&ap, &(rssi, at)) in aps {
            if ap == current || at + RSSI_TTL < now {
                continue; // stale: the car has moved on since this beacon
            }
            if best.is_none_or(|(_, b)| rssi > b) {
                best = Some((ap, rssi));
            }
        }
        best
    }

    /// Evaluate the roaming rule at `now` (call on each beacon tick).
    pub fn evaluate(&mut self, now: SimTime) -> RoamerAction {
        if let State::AwaitingResponse {
            target,
            sent_at,
            tries,
        } = self.state
        {
            // Drive the handshake retry timer.
            if now.saturating_since(sent_at) >= HANDSHAKE_RETRY {
                if tries >= HANDSHAKE_MAX_TRIES {
                    self.failed_handshakes += 1;
                    self.state = State::Idle;
                } else {
                    self.state = State::AwaitingResponse {
                        target,
                        sent_at: now,
                        tries: tries + 1,
                    };
                    return RoamerAction::SendMgmt {
                        ap: target,
                        step: MgmtStep::AssocReq,
                    };
                }
            } else {
                return RoamerAction::None;
            }
        }

        let Some(current) = self.associated else {
            return RoamerAction::None;
        };
        let Some(cur_rssi) = self.rssi(current) else {
            return RoamerAction::None;
        };
        // A current AP whose beacons have gone silent reads as
        // bottom-of-scale (the client hears nothing from it).
        let cur_rssi = if self
            .rssi
            .get(&current)
            .is_none_or(|&(_, at)| at + RSSI_TTL < now)
        {
            cur_rssi.min(-95.0)
        } else {
            cur_rssi
        };

        // Threshold condition, with the mode's required persistence.
        if cur_rssi >= THRESHOLD_DBM {
            self.below_since = None;
            return RoamerAction::None;
        }
        if self.below_since.is_none() {
            self.below_since = Some(now);
        }
        let required = match self.mode {
            RoamerMode::Enhanced { .. } => SimDuration::ZERO,
            RoamerMode::Stock { history } => history,
        };
        if now.saturating_since(self.below_since.expect("just set")) < required {
            return RoamerAction::None;
        }
        // Hysteresis (Enhanced mode).
        if let RoamerMode::Enhanced { hysteresis } = self.mode {
            if let Some(last) = self.last_switch {
                if now.saturating_since(last) < hysteresis {
                    return RoamerAction::None;
                }
            }
        }
        let Some((target, target_rssi)) = self.best_other(current, now) else {
            return RoamerAction::None;
        };
        if target_rssi < cur_rssi + MARGIN_DB {
            return RoamerAction::None;
        }
        self.state = State::AwaitingResponse {
            target,
            sent_at: now,
            tries: 1,
        };
        RoamerAction::SendMgmt {
            ap: target,
            step: MgmtStep::AssocReq,
        }
    }

    /// The target AP's reassociation response arrived: switch completes.
    pub fn on_assoc_response(&mut self, from: NodeId, now: SimTime) -> bool {
        match self.state {
            State::AwaitingResponse { target, .. } if target == from => {
                self.associated = Some(from);
                self.last_switch = Some(now);
                self.below_since = None;
                self.state = State::Idle;
                self.switches += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AP1: NodeId = NodeId(1);
    const AP2: NodeId = NodeId(2);

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn enhanced() -> Roamer {
        let mut r = Roamer::new(RoamerMode::Enhanced {
            hysteresis: SimDuration::from_secs(1),
        });
        r.set_associated(AP1, SimTime::ZERO);
        r
    }

    #[test]
    fn stays_while_rssi_good() {
        let mut r = enhanced();
        r.on_beacon(AP1, -60.0, ms(1900));
        r.on_beacon(AP2, -50.0, ms(1900)); // even better, but current is fine
        assert_eq!(r.evaluate(ms(2000)), RoamerAction::None);
    }

    #[test]
    fn switches_when_below_threshold_and_better_exists() {
        let mut r = enhanced();
        for _ in 0..20 {
            r.on_beacon(AP1, -85.0, ms(1900));
            r.on_beacon(AP2, -60.0, ms(1900));
        }
        let a = r.evaluate(ms(2000));
        assert_eq!(
            a,
            RoamerAction::SendMgmt {
                ap: AP2,
                step: MgmtStep::AssocReq
            }
        );
        assert!(r.on_assoc_response(AP2, ms(2010)));
        assert_eq!(r.associated(), Some(AP2));
        assert_eq!(r.switches, 1);
    }

    #[test]
    fn hysteresis_blocks_early_switch() {
        let mut r = enhanced();
        for _ in 0..20 {
            r.on_beacon(AP1, -85.0, ms(400));
            r.on_beacon(AP2, -60.0, ms(400));
        }
        // Only 500 ms since association: the 1 s hysteresis holds.
        assert_eq!(r.evaluate(ms(500)), RoamerAction::None);
        assert!(matches!(
            r.evaluate(ms(1000)),
            RoamerAction::SendMgmt { .. }
        ));
    }

    #[test]
    fn margin_prevents_sideways_moves() {
        let mut r = enhanced();
        for _ in 0..20 {
            r.on_beacon(AP1, -85.0, ms(1900));
            r.on_beacon(AP2, -84.5, ms(1900)); // barely better: not worth it
        }
        assert_eq!(r.evaluate(ms(2000)), RoamerAction::None);
    }

    #[test]
    fn handshake_retries_then_gives_up() {
        let mut r = enhanced();
        for _ in 0..20 {
            r.on_beacon(AP1, -85.0, ms(1950));
            r.on_beacon(AP2, -60.0, ms(1950));
        }
        assert!(matches!(
            r.evaluate(ms(2000)),
            RoamerAction::SendMgmt { .. }
        ));
        // Responses never arrive (deep fade): retries at 50 ms intervals
        // until the attempt is abandoned.
        let mut resends = 0;
        let mut t = ms(2000);
        while r.failed_handshakes == 0 {
            t += HANDSHAKE_RETRY;
            if matches!(r.evaluate(t), RoamerAction::SendMgmt { .. }) {
                resends += 1;
            }
            assert!(resends < 20, "attempt must be abandoned");
        }
        // 4 retries of the abandoned attempt, plus the first send of the
        // immediately restarted attempt (conditions still hold).
        assert_eq!(resends, HANDSHAKE_MAX_TRIES as usize, "retries capped");
        // Still associated to the dying AP — the Fig. 4 stranding. (The
        // roamer will start a fresh attempt on later evaluations, but the
        // abandoned one is recorded.)
        assert_eq!(r.associated(), Some(AP1));
        assert_eq!(r.failed_handshakes, 1);
    }

    #[test]
    fn stock_mode_requires_5s_history() {
        let mut r = Roamer::new(RoamerMode::Stock {
            history: SimDuration::from_secs(5),
        });
        r.set_associated(AP1, SimTime::ZERO);
        for t in 0..20u64 {
            r.on_beacon(AP1, -85.0, ms(900 + t * 300));
            r.on_beacon(AP2, -60.0, ms(900 + t * 300));
        }
        // Below threshold from t=1 s, but history must reach 5 s.
        assert_eq!(r.evaluate(ms(1000)), RoamerAction::None);
        assert_eq!(r.evaluate(ms(3000)), RoamerAction::None);
        assert!(matches!(
            r.evaluate(ms(6001)),
            RoamerAction::SendMgmt { .. }
        ));
    }

    #[test]
    fn recovery_above_threshold_resets_history() {
        let mut r = Roamer::new(RoamerMode::Stock {
            history: SimDuration::from_secs(5),
        });
        r.set_associated(AP1, SimTime::ZERO);
        for _ in 0..20 {
            r.on_beacon(AP1, -85.0, ms(900));
            r.on_beacon(AP2, -60.0, ms(900));
        }
        r.evaluate(ms(1000));
        // RSSI recovers briefly: the below-threshold clock restarts.
        for _ in 0..20 {
            r.on_beacon(AP1, -60.0, ms(1900));
        }
        r.evaluate(ms(2000));
        for _ in 0..20 {
            r.on_beacon(AP1, -85.0, ms(6400));
            r.on_beacon(AP2, -60.0, ms(6400));
        }
        assert_eq!(
            r.evaluate(ms(6500)),
            RoamerAction::None,
            "history restarted"
        );
    }

    #[test]
    fn only_the_target_response_moves_the_association() {
        // A drive past four APs under noisy beacons. Every request goes to
        // an AP other than the associated one, and a response from any AP
        // but the target changes nothing, so each counted switch is a
        // change of AP: the switch count is the count of moves.
        let aps = [AP1, AP2, NodeId(3), NodeId(4)];
        let mut r = enhanced();
        let mut noise = 0x9e37_79b9_u32;
        let mut moves = 0;
        for step in 0..2_000u64 {
            let now = ms(step * 10);
            for (i, &ap) in aps.iter().enumerate() {
                noise = noise.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let metres = (step as f64 - 500.0 * (i + 1) as f64).abs() / 10.0;
                r.on_beacon(ap, -50.0 - metres + f64::from(noise >> 28), now);
            }
            let RoamerAction::SendMgmt { ap: target, .. } = r.evaluate(now) else {
                continue;
            };
            let before = (r.associated(), r.switches);
            assert_ne!(Some(target), before.0, "step {step}");
            for &other in aps.iter().filter(|&&ap| ap != target) {
                assert!(!r.on_assoc_response(other, now));
            }
            assert_eq!((r.associated(), r.switches), before);
            // Every third request is lost; its retry goes to the same AP.
            if step % 3 != 0 {
                assert!(r.on_assoc_response(target, now));
                assert_eq!(r.associated(), Some(target));
                moves += 1;
            }
        }
        assert!(moves >= 3, "the drive crosses four cells: {moves} moves");
        assert_eq!(r.switches, moves);
    }

    #[test]
    fn stale_assoc_response_ignored() {
        let mut r = enhanced();
        assert!(!r.on_assoc_response(AP2, ms(100)));
        assert_eq!(r.associated(), Some(AP1));
    }

    #[test]
    fn ewma_smooths_rssi() {
        let mut r = enhanced();
        r.on_beacon(AP1, -60.0, ms(0));
        r.on_beacon(AP1, -90.0, ms(100));
        let v = r.rssi(AP1).unwrap();
        assert!(v > -90.0 && v < -60.0, "smoothed: {v}");
    }
}
