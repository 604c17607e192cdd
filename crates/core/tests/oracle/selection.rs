//! The full-scan selector: expire and reduce every link on every query.

use std::collections::BTreeMap;
use std::sync::Arc;
use wgtt::policy::{PolicyEnv, PolicyView, SwitchPolicy, SwitchPolicyKind};
use wgtt::selection::{Verdict, WindowReduce, SILENCE_GRACE, TREND_WINDOW};
use wgtt::window::EsnrWindow;
use wgtt_mac::frame::NodeId;
use wgtt_sim::time::{SimDuration, SimTime};

/// The pre-fast-path selector, kept as the equivalence oracle — this
/// layer's `NaiveWindow`. Every query expires and reduces
/// **every** link (O(A) per frame); there is no argmax cache and no
/// expiry heap, so there is nothing to go stale. `prop_selection.rs`
/// drives it in lockstep with [`ApSelector`] and requires bit-identical
/// answers from every method.
#[derive(Debug)]
pub struct FullScanSelector {
    window: SimDuration,
    hysteresis: SimDuration,
    margin_db: f64,
    policy: WindowReduce,
    links: BTreeMap<NodeId, OracleLink>,
    current: Option<NodeId>,
    last_switch: Option<SimTime>,
    switch_policy: Arc<dyn SwitchPolicy>,
    track_trend: bool,
}

#[derive(Debug, Default)]
struct OracleLink {
    window: EsnrWindow,
    /// Trend window for the slope fit (mirror of `ApSelector`'s).
    trend: EsnrWindow,
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
            switch_policy: SwitchPolicyKind::ReactiveMedian.build(),
            track_trend: false,
        }
    }

    /// Override the window-reduction policy.
    pub fn set_window_reduce(&mut self, policy: WindowReduce) {
        self.policy = policy;
    }

    /// Override the switch-verdict policy (mirror of
    /// [`ApSelector::set_switch_policy`]).
    pub fn set_switch_policy(&mut self, policy: Arc<dyn SwitchPolicy>) {
        self.track_trend = policy.wants_trend();
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
        if self.track_trend {
            link.trend.push(at, esnr_db, TREND_WINDOW);
        }
    }

    /// Forget `ap` entirely (mirror of [`ApSelector::remove_ap`]).
    pub fn remove_ap(&mut self, ap: NodeId) {
        self.links.remove(&ap);
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

    /// Record-then-evaluate in one call (mirror of
    /// [`ApSelector::record_and_evaluate`], full-scan semantics).
    pub fn record_and_evaluate(
        &mut self,
        ap: NodeId,
        at: SimTime,
        esnr_db: f64,
        now: SimTime,
    ) -> Verdict {
        self.record_and_evaluate_with(ap, at, esnr_db, now, PolicyEnv::default())
    }

    /// Record-then-evaluate with controller-level policy context.
    pub fn record_and_evaluate_with(
        &mut self,
        ap: NodeId,
        at: SimTime,
        esnr_db: f64,
        now: SimTime,
        env: PolicyEnv<'_>,
    ) -> Verdict {
        self.record(ap, at, esnr_db);
        self.evaluate_with(now, env)
    }

    /// Evaluate the configured switch policy at `now` (same dampers as
    /// [`ApSelector::evaluate`], full-scan semantics).
    pub fn evaluate(&mut self, now: SimTime) -> Verdict {
        self.evaluate_with(now, PolicyEnv::default())
    }

    /// [`evaluate`](Self::evaluate) with controller-level policy
    /// context.
    pub fn evaluate_with(&mut self, now: SimTime, env: PolicyEnv<'_>) -> Verdict {
        let policy = Arc::clone(&self.switch_policy);
        let mut view = OracleView {
            sel: self,
            now,
            env,
        };
        policy.decide(&mut view)
    }
}

/// [`PolicyView`] over the full-scan oracle: every query expires the
/// touched link(s) on the spot (no caches, nothing to go stale).
struct OracleView<'a> {
    sel: &'a mut FullScanSelector,
    now: SimTime,
    env: PolicyEnv<'a>,
}

impl PolicyView for OracleView<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn current(&self) -> Option<NodeId> {
        self.sel.current
    }

    fn last_switch(&self) -> Option<SimTime> {
        self.sel.last_switch
    }

    fn hysteresis(&self) -> SimDuration {
        self.sel.hysteresis
    }

    fn margin_db(&self) -> f64 {
        self.sel.margin_db
    }

    fn best(&mut self) -> Option<(NodeId, f64)> {
        self.sel.best(self.now)
    }

    fn reduced(&mut self, ap: NodeId) -> Option<f64> {
        self.sel.median_esnr(ap, self.now)
    }

    fn slope_db_per_s(&mut self, ap: NodeId) -> Option<f64> {
        // The trend window expires on push only (its contents are a
        // pure function of the reading stream), so reads on both
        // selectors see identical samples without an expire here.
        self.sel.links.get(&ap)?.trend.slope_db_per_s()
    }

    fn silent_past_grace(&self, ap: NodeId) -> bool {
        self.sel
            .links
            .get(&ap)
            .is_none_or(|l| l.last_reading + SILENCE_GRACE <= self.now)
    }

    fn load(&self, ap: NodeId) -> u32 {
        self.env.loads.map_or(0, |l| l.get(ap))
    }

    fn for_each_candidate(&mut self, f: &mut dyn FnMut(NodeId, f64, u32)) {
        let window = self.sel.window;
        let policy = self.sel.policy;
        let loads = self.env.loads;
        for (&ap, l) in self.sel.links.iter_mut() {
            l.window.expire(self.now, window);
            if let Some(v) = l.window.reduce(policy) {
                f(ap, v, loads.map_or(0, |t| t.get(ap)));
            }
        }
    }
}
