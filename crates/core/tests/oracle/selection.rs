//! The full-scan selector: expire and reduce every link on every query.

use std::collections::BTreeMap;
use wgtt::selection::{
    ApLoads, SwitchPolicyKind, Verdict, WindowReduce, LOAD_BETA_DB, SILENCE_GRACE,
};
use wgtt::window::EsnrWindow;
use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

/// The selector's equivalence oracle — this layer's `NaiveWindow`.
/// Every query expires and reduces **every** link, kept in a `BTreeMap`
/// rather than [`ApSelector`]'s sorted `Vec`. Its verdict is its own
/// scan-and-compare, sharing no code with [`ApSelector`]'s.
/// `prop_selection.rs` drives it in lockstep with [`ApSelector`] and
/// requires bit-identical answers from every method. `in_range` is its
/// own: the decision-table replica in `prop_policy.rs` reads it.
#[derive(Debug)]
pub struct FullScanSelector {
    window: SimDuration,
    hysteresis: SimDuration,
    margin_db: f64,
    policy: WindowReduce,
    links: BTreeMap<NodeId, OracleLink>,
    current: Option<NodeId>,
    last_switch: Option<SimTime>,
    switch_policy: SwitchPolicyKind,
}

#[derive(Debug, Default)]
struct OracleLink {
    window: EsnrWindow,
    last_reading: SimTime,
}

impl FullScanSelector {
    /// Build with the same knobs as [`ApSelector::new`].
    pub fn new(window: SimDuration, hysteresis: SimDuration, margin_db: f64) -> Self {
        FullScanSelector {
            window,
            hysteresis,
            margin_db,
            policy: WindowReduce::Median,
            links: BTreeMap::new(),
            current: None,
            last_switch: None,
            switch_policy: SwitchPolicyKind::ReactiveMedian,
        }
    }

    /// Override the window-reduction policy.
    pub fn set_window_reduce(&mut self, policy: WindowReduce) {
        self.policy = policy;
    }

    /// Override the switch-verdict rule (mirror of
    /// [`ApSelector::set_switch_policy`]).
    pub fn set_switch_policy(&mut self, policy: SwitchPolicyKind) {
        self.switch_policy = policy;
    }

    /// Record an ESNR reading from `ap` at `at`. Non-finite readings
    /// are rejected, same contract as [`ApSelector::record`].
    pub fn record(&mut self, ap: NodeId, at: SimTime, esnr_db: f64) {
        if !esnr_db.is_finite() {
            return;
        }
        let link = self.links.entry(ap).or_default();
        link.last_reading = link.last_reading.max(at);
        link.window.push(at, esnr_db, self.window);
    }

    /// The AP currently serving this client, if any.
    pub fn current(&self) -> Option<NodeId> {
        self.current
    }

    /// Force the serving AP.
    pub fn set_current(&mut self, ap: NodeId, now: SimTime) {
        self.current = Some(ap);
        self.last_switch = Some(now);
    }

    /// APs with at least one reading inside the window.
    pub fn in_range(&mut self, now: SimTime) -> Vec<NodeId> {
        let window = self.window;
        self.links
            .iter_mut()
            .filter_map(|(&ap, l)| {
                l.window.expire(now, window);
                if l.window.is_empty() {
                    None
                } else {
                    Some(ap)
                }
            })
            .collect()
    }

    /// Reduced ESNR of `ap` over the window, if it has readings.
    pub fn median_esnr(&mut self, ap: NodeId, now: SimTime) -> Option<f64> {
        let window = self.window;
        let policy = self.policy;
        let l = self.links.get_mut(&ap)?;
        l.window.expire(now, window);
        l.window.reduce(policy)
    }

    /// The instantaneous argmax AP by a full expire-and-reduce scan.
    pub fn best(&mut self, now: SimTime) -> Option<(NodeId, f64)> {
        let window = self.window;
        let policy = self.policy;
        let mut best: Option<(NodeId, f64)> = None;
        for (&ap, l) in self.links.iter_mut() {
            l.window.expire(now, window);
            if let Some(m) = l.window.reduce(policy) {
                if best.is_none_or(|(_, bm)| m > bm) {
                    best = Some((ap, m));
                }
            }
        }
        best
    }

    /// Most recent reading timestamp from `ap` (mirror of
    /// [`ApSelector::last_heard`]).
    pub fn last_heard(&self, ap: NodeId) -> Option<SimTime> {
        self.links.get(&ap).map(|l| l.last_reading)
    }

    /// Record-then-evaluate against `loads` in one call (mirror of
    /// [`ApSelector::record_and_evaluate`], full-scan semantics).
    pub fn record_and_evaluate(
        &mut self,
        ap: NodeId,
        at: SimTime,
        esnr_db: f64,
        now: SimTime,
        loads: &ApLoads,
    ) -> Verdict {
        self.record(ap, at, esnr_db);
        self.decide(now, loads)
    }

    /// Evaluate the configured switch rule at `now` with every load 0
    /// (same dampers as [`ApSelector::evaluate`], full-scan semantics).
    pub fn evaluate(&mut self, now: SimTime) -> Verdict {
        self.decide(now, &ApLoads::new())
    }

    /// One scan scores every live link — its reduction under the
    /// reactive rule, `v − β·ln(1 + competing)` under the load-aware one
    /// — and the argmax score challenges the serving AP's score through
    /// the dampers and the margin.
    fn decide(&mut self, now: SimTime, loads: &ApLoads) -> Verdict {
        let kind = self.switch_policy;
        let current = self.current;
        let score = |ap: NodeId, v: f64| match kind {
            SwitchPolicyKind::ReactiveMedian => v,
            SwitchPolicyKind::LoadAware => {
                let competing = loads.get(ap).saturating_sub(u32::from(current == Some(ap)));
                v - LOAD_BETA_DB * f64::from(competing + 1).ln()
            }
        };
        let (window, policy) = (self.window, self.policy);
        let mut best: Option<(NodeId, f64)> = None;
        for (&ap, l) in self.links.iter_mut() {
            l.window.expire(now, window);
            if let Some(v) = l.window.reduce(policy) {
                let s = score(ap, v);
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((ap, s));
                }
            }
        }
        let Some((best_ap, best_score)) = best else {
            return Verdict::NoCandidate;
        };
        let Some(current) = current else {
            return Verdict::SwitchTo(best_ap);
        };
        if best_ap == current {
            return Verdict::Stay;
        }
        if let Some(last) = self.last_switch {
            if now.saturating_since(last) < self.hysteresis {
                return Verdict::Stay;
            }
        }
        match self.median_esnr(current, now) {
            None => {
                let silent = self
                    .links
                    .get(&current)
                    .is_none_or(|l| l.last_reading + SILENCE_GRACE <= now);
                if silent {
                    Verdict::SwitchTo(best_ap)
                } else {
                    Verdict::Stay
                }
            }
            Some(cv) if best_score > score(current, cv) + self.margin_db => {
                Verdict::SwitchTo(best_ap)
            }
            Some(_) => Verdict::Stay,
        }
    }
}
